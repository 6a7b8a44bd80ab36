"""In-memory span tracing for the traced benchmark run.

The tracer wraps public functions of the package at the names their callers
resolve (a module global such as ``kgqa_env.rollout.parse_trajectory``, or a
class attribute such as ``KnowledgeGraph.relation_search``), so no source
file is edited and nothing is traced unless :meth:`Tracer.install` ran.
A span is ``(id, parent id, layer name, start, end)``; spans of one rollout
share the ``rollout.run`` span as their root.
"""

from __future__ import annotations

import functools
import gzip
import math
import threading
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable

#: Percentiles tried for a tail value, highest first.
TAIL_LADDER = (99, 95, 90, 80, 75, 50)


def percentile(values: Iterable[float], p: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def beyond(n: int, p: float) -> int:
    """Samples strictly above the nearest-rank ``p`` percentile of ``n``."""
    return n - max(1, math.ceil(p / 100 * n)) if n else 0


def tail_percentile(n: int) -> int:
    """Highest ladder percentile that leaves at least ten samples beyond it."""
    return next((p for p in TAIL_LADDER if beyond(n, p) >= 10), TAIL_LADDER[-1])


class Tracer:
    """Collects spans and per-layer counters in memory.

    Spans are recorded by the thread that calls a wrapped function; the
    benchmark drives the package from one thread, so span ids need no lock.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._local = threading.local()
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, attrs: Callable | None = None) -> Callable:
        """``fn`` recording one span per call; ``attrs(args, result)`` returns
        counters to add under ``name.<key>``. Calls that raise count under
        ``name.failed`` and re-raise."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.counts[f"{name}.failed"] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if attrs is not None:
                for key, value in attrs(args, result).items():
                    tracer.counts[f"{name}.{key}"] += value
            return result

        return traced

    def patch(self, owner: object, attr: str, name: str, attrs: Callable | None = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper (classmethods keep
        their binding); :meth:`uninstall` restores the original."""
        original = vars(owner)[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, attrs))
        else:
            replacement = self.wrap(name, original, attrs)
        setattr(owner, attr, replacement)
        self._patches.append((owner, attr, original))

    def install(self) -> None:
        """Wrap every traced layer of the package."""
        from kgqa_env import evaluate, filtering, kg, policies, rewards, rollout, web

        p = self.patch
        p(kg, "load_triples", "kg.load_triples")
        p(kg, "sample_ikg", "kg.sample_ikg")
        p(kg.KnowledgeGraph, "relation_search", "kg.relation_search",
          lambda a, r: {"candidates": len(a[0].head_index.get(a[1], ()))})
        p(kg.KnowledgeGraph, "neighbor_search", "kg.neighbor_search",
          lambda a, r: {"sentinel": int(isinstance(r, str))})
        p(kg.KnowledgeGraph, "resolve_entity", "kg.resolve_entity")
        p(kg, "levenshtein", "text.levenshtein")
        p(web.OfflineWebTool, "from_path", "web.from_path")
        p(web.OfflineWebTool, "search", "web.search", lambda a, r: {"hit": int(bool(r))})
        p(web.RemoteWebTool, "search", "web.remote")
        for module in (rollout, policies):
            p(module, "parse_trajectory", "trajectory.parse", lambda a, r: {"chars": len(a[0])})
        for module in (rewards, filtering):
            p(module, "validate_format", "trajectory.validate")
        p(rollout, "run_rollout", "rollout.run")
        p(rollout, "dispatch_action", "rollout.dispatch")
        p(rollout, "force_final_answer", "rollout.force")
        p(policies.ScriptedOracle, "next_segment", "policies.oracle.next_segment")
        p(policies.RemotePolicy, "next_segment", "policies.remote.request")
        for module in (policies, filtering):
            p(module, "parse_plan", "plan.parse_plan")
        p(rewards, "score_trajectory", "rewards.score")
        p(rewards, "group_score_records", "rewards.advantages")
        p(filtering, "filter_trajectory", "filtering.filter")
        p(filtering, "judge_plan", "filtering.judge")
        p(evaluate, "build_report", "evaluate.report")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped TSV (id, parent, layer, start, end in
        seconds from the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\tlayer\tstart_s\tend_s\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{start - origin:.7f}\t{end - origin:.7f}\n")


def self_times(spans: Iterable[tuple[int, int, str, float, float]]) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans.

    Children of one span run one after another on the caller's thread, so
    the part of the parent they cover is the sum of their durations.
    """
    spans = list(spans)
    covered: defaultdict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _, _, start, end in spans}


def layer_table(spans, selfs: dict[int, float]) -> dict[str, dict]:
    """Layer -> calls, busy_s (sum of durations), self_s and durations."""
    table: dict[str, dict] = {}
    for sid, _, name, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["busy_s"] += end - start
        row["self_s"] += selfs[sid]
        row["durations"].append(end - start)
    return table


def nesting_violations(spans: Iterable[tuple[int, int, str, float, float]]) -> int:
    """Spans that do not lie inside their parent span, plus spans that start
    before an earlier sibling (same parent) has ended. With none, the self
    times of the spans under a root add up to the root's duration with no
    time counted twice."""
    spans = list(spans)
    bounds = {sid: (start, end) for sid, _, _, start, end in spans}
    sibling_end: dict[int, float] = {}
    bad = 0
    for sid, parent, _, start, end in sorted(spans, key=lambda s: s[3]):
        if parent >= 0 and (parent not in bounds or not bounds[parent][0] <= start <= end <= bounds[parent][1]):
            bad += 1
        if start < sibling_end.get(parent, -math.inf):
            bad += 1
        sibling_end[parent] = max(end, sibling_end.get(parent, -math.inf))
    return bad


def step_growth(spans, step_layers: tuple[str, ...], root: str = "rollout.run") -> float:
    """Mean step time in the last tenth of each rollout's steps over the mean
    in the first tenth, pooled over rollouts with at least fifty steps (on
    shorter ones the cheap plan step dominates the first tenth). A step
    starts at a policy call and ends at the next one (or the rollout end)."""
    roots = {sid: end for sid, _, name, _, end in spans if name == root}
    starts: defaultdict[int, list[float]] = defaultdict(list)
    for _, parent, name, start, _ in spans:
        if parent in roots and name in step_layers:
            starts[parent].append(start)
    first = last = 0.0
    for sid, points in starts.items():
        points.sort()
        if len(points) < 50:
            continue
        steps = [b - a for a, b in zip(points, points[1:] + [roots[sid]])]
        tenth = len(steps) // 10
        first += sum(steps[:tenth])
        last += sum(steps[-tenth:])
    return last / first if first else 0.0
