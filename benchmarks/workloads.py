"""Workloads of the kgqa-env benchmark and the measurements taken on them.

Every workload is a closed loop with one client. The unit of work is a
*pass*: one pipeline over the workload's fixed question batch (every
rollout, then the reward side, then the eval report), or for ``cli-toy`` the
seven CLI commands as subprocesses. Passes repeat until ``--seconds`` have
elapsed, so every run measures whole batches and the question mix is the
same in every run. The package is driven only through its public API and
the generated files.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import select
import statistics
import subprocess
import sys
import tracemalloc
import urllib.request
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from time import perf_counter

from kgqa_env import evaluate, filtering, kg, qa, rewards, rollout, web
from kgqa_env.data import TOY_ALIASES, TOY_KG, TOY_QA, TOY_WEB_CORPUS
from kgqa_env.policies import RemotePolicy, ScriptedOracle
from kgqa_env.rollout import FORCE_ANSWER_DIRECTIVE
from kgqa_env.text import normalize
from kgqa_env.trajectory import INFO_TAGS, SEARCH_TAGS, ParseError, answer_items, parse_trajectory, retrieval_mask

from speed import REF_COMMAND_S, REF_PROBE_S, CommandProbe, ScanProbe, SpeedScale, probe
from tracing import Tracer, beyond, layer_table, nesting_violations, percentile, self_times, step_growth, tail_percentile

#: Share of each question's critical triples removed for the IKG workloads:
#: the rate of the bundled toy suite's IKG (its tests and ``cli-toy``).
IKG_FRACTION = 0.4
#: Seed of ``sample_ikg``. Generated ids sort in creation order, so a fixed
#: sampler seed removes the same positions of each question's gold path
#: whatever the input seed, and the number of web fallbacks per question,
#: which dominates its cost, does not vary by seed. On the toy suite it also
#: fixes which questions fall back to the web (seed 1, as in the toy tests).
IKG_SEED = 1
#: Fixed latency the stub server adds to every request.
REMOTE_DELAY_S = 0.005
#: Longest wait for the stub server to load, record and start serving.
STUB_START_S = 120
#: Per pass, the reward side repeats over one trajectory per question of the
#: first pass until it has run this long; its throughput comes from the
#: median repetition. From the second pass on, the repetitions are spread
#: over the pass, a share after each question's rollouts, so that they
#: sample the CPU's speed over the whole run rather than a moment of it.
REWARD_MIN_S = 0.5
#: Most rollouts of one question in one pass (see ``Spec.repeat_s``).
MAX_REPEATS = 100
#: CPUs this process may run on when it starts.
ALLOWED_CPUS = frozenset(os.sched_getaffinity(0))
#: Runs the command in its arguments, then prints its wall time (s) and peak
#: resident memory (kB) as the last line of standard error. A child started
#: straight from this process would inherit this process's peak resident
#: memory (it is folded in when the child execs), so each CLI command is
#: started from this small launcher instead, which also keeps the
#: launcher's own start-up out of the command's time.
LAUNCHER = (
    "import resource, subprocess, sys, time\n"
    "t = time.perf_counter()\n"
    "rc = subprocess.run(sys.argv[1:]).returncode\n"
    "t = time.perf_counter() - t\n"
    "print(t, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)\n"
    "sys.exit(rc)\n"
)
CLI_COMMANDS = ("build_kg", "sample_ikg", "rollout", "score", "advantages", "filter_sft", "eval")
TRANSPORT_ERRORS = (rollout.WEB_UNAVAILABLE, rollout.MALFORMED_TOOL_CALL)


@dataclass(frozen=True)
class Spec:
    name: str
    qa_file: str | None  # None: the bundled toy suite
    ikg: bool
    remote: bool
    max_iterations: int
    tail_pct: int  # fixed per workload so that at least ten rollouts lie beyond it
    setup_reps: int  # set-up samples at the start (and, on cli-toy, after every pass)
    #: With repeat_s > 0 each question's rollout repeats within a pass until
    #: it has run this long (at most MAX_REPEATS times), and a rollout sample
    #: is a question's median rollout in the run: many samples of the cheap
    #: questions, without weighting the mix toward them. Without, every
    #: rollout is a sample.
    repeat_s: float = 0.0
    scan_probe: bool = False  # correct rollout times with speed.ScanProbe: the web scan dominates them


SPECS = {
    s.name: s
    for s in (
        Spec("hub-ckg", "qa_hub.jsonl", ikg=False, remote=False, max_iterations=10, tail_pct=75, setup_reps=3),
        Spec("fanout-ikg", "qa_fanout.jsonl", ikg=True, remote=False, max_iterations=1000, tail_pct=60, setup_reps=3,
             repeat_s=0.3, scan_probe=True),
        Spec("remote-policy", "qa_remote.jsonl", ikg=True, remote=True, max_iterations=1000, tail_pct=75, setup_reps=3),
        Spec("cli-toy", None, ikg=True, remote=False, max_iterations=10, tail_pct=60, setup_reps=20,
             repeat_s=0.03),
    )
}


class ForcedAnswers(rollout.Policy):
    """Delegates to ``inner`` and notes each question whose rollout ended in
    the forced-answer directive: the loop hit ``max_iterations`` or dropped
    a segment it could not parse. The oracle then answers from the gold set,
    so Hits@1 alone would not show it."""

    def __init__(self, inner: rollout.Policy):
        self.inner = inner
        self.question = ""
        self.forced: list[str] = []
        self.calls = 0

    def reset(self, example: qa.QAExample) -> None:
        self.question = example.id
        self.inner.reset(example)

    def next_segment(self, conversation: str) -> str:
        if conversation[-len(FORCE_ANSWER_DIRECTIVE) - 16:].rstrip().endswith(FORCE_ANSWER_DIRECTIVE):
            self.forced.append(self.question)
        self.calls += 1
        return self.inner.next_segment(conversation)


class CountingWeb(web.WebTool):
    """Delegates to ``inner`` and counts searches."""

    def __init__(self, inner: web.WebTool):
        self.inner = inner
        self.calls = 0

    def search(self, query: str, k: int) -> list[str]:
        self.calls += 1
        return self.inner.search(query, k)


class StubProcess:
    """``stub.py`` in a child process: it loads the inputs, records oracle
    rollouts and serves them, so none of that runs in the measured process.
    It starts at once; :meth:`wait_ready` waits until it serves."""

    def __init__(self, data: Path, spec: Spec, env: dict):
        cmd = [sys.executable, str(Path(__file__).with_name("stub.py")),
               "--kg", str(data / "kg.tsv"), "--qa", str(data / spec.qa_file), "--web", str(data / "web.jsonl"),
               "--fraction", str(IKG_FRACTION), "--ikg-seed", str(IKG_SEED),
               "--max-iters", str(spec.max_iterations), "--delay", str(REMOTE_DELAY_S)]
        self.proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        os.sched_setaffinity(self.proc.pid, ALLOWED_CPUS)  # not pinned beside the client
        #: ``port`` and the number of recorded ``segments`` and ``searches``.
        self.recorded: dict = {}

    def wait_ready(self) -> "StubProcess":
        ready, _, _ = select.select([self.proc.stdout], [], [], STUB_START_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            raise RuntimeError("the stub server did not start")
        self.recorded = json.loads(line)
        return self

    def url(self, path: str) -> str:
        return f"http://127.0.0.1:{self.recorded['port']}{path}"

    def stats(self) -> dict:
        """Requests, request bytes and misses per route so far."""
        with urllib.request.urlopen(self.url("/stats"), timeout=60) as resp:
            return json.load(resp)

    def close(self) -> None:
        """Close the stub's standard input, which stops it, and wait."""
        if self.proc.poll() is None:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


@dataclass
class Ctx:
    """What the rollouts of one workload run against."""

    spec: Spec
    base_kg: kg.KnowledgeGraph
    kg: kg.KnowledgeGraph
    web: web.WebTool
    offline_web: web.OfflineWebTool | None
    batch: list
    coverage: dict[str, str]
    cfg: rollout.RolloutConfig
    policy: ForcedAnswers
    scale: SpeedScale  # corrects rollout times
    reward_scale: SpeedScale  # corrects reward-side times (the same one unless spec.scan_probe)
    stub: StubProcess | None = None
    cli_scale: SpeedScale | None = None  # cli-toy: corrects CLI command times with speed.CommandProbe
    #: cli-toy: question id -> the in-process oracle trajectory, which the
    #: CLI ``rollout`` command must reproduce.
    expected: dict[str, str] = field(default_factory=dict)
    #: Questions the graph leaves with a partial hop (see partial_hops).
    partial: frozenset[str] = frozenset()

    @property
    def by_id(self) -> dict:
        return {ex.id: ex for ex in self.batch}

    def requests(self) -> int:
        """Requests sent to the stub server so far (0 without one)."""
        return self.policy.calls + self.web.calls if self.stub else 0


@dataclass
class Totals:
    """Everything one run measured and checked."""

    latencies: list[float] = field(default_factory=list)  # every rollout
    samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))  # question -> its rollouts
    rollouts: int = 0
    reward_rep_times: list[float] = field(default_factory=list)
    reward_trajs: list = field(default_factory=list)  # one trajectory per question, from the first pass
    setup_times: list[float] = field(default_factory=list)
    pipelines: list[float] = field(default_factory=list)
    cli_times: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    cli_rss_kb: int = 0  # largest peak resident memory of a CLI command
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    verdicts: int = 0
    kept: int = 0
    problems: list[str] = field(default_factory=list)
    partial_misses: set[str] = field(default_factory=set)  # Hits@1 misses the partial-hop finding explains
    digests: dict[str, str] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def digest(self, kind: str, value: str) -> None:
        """Outputs must not change from one pass to the next."""
        if self.digests.setdefault(kind, value) != value:
            self.problems.append(f"{kind} outputs differ between passes")


# -- set-up -------------------------------------------------------------------

def pin_fastest_cpu(scales: tuple[SpeedScale, ...], stub: StubProcess | None = None) -> None:
    """Pin this process, the processes it starts and every thread of the
    stub server to the CPU that runs the speed probe fastest (about 8 ms on
    two CPUs). On a shared host each CPU's speed drifts on its own, so a
    pass starts on the fastest one; staying on one CPU keeps the probes of
    ``scales`` on the CPU the work runs on. In the closed loop the client
    and the stub never run at once, so they share the CPU."""
    for s in scales:
        s.flush()
    if len(ALLOWED_CPUS) >= 2:
        times = {}
        for cpu in sorted(ALLOWED_CPUS):
            os.sched_setaffinity(0, {cpu})
            times[cpu] = min(probe(), probe())
        chosen = {min(times, key=times.get)}
        os.sched_setaffinity(0, chosen)
        if stub:
            for tid in os.listdir(f"/proc/{stub.proc.pid}/task"):
                os.sched_setaffinity(int(tid), chosen)
    for s in scales:
        s.flush()


def program_setup(spec: Spec, data: Path | None):
    """The program's own set-up calls, which ``setup_s`` times."""
    if spec.qa_file is None:
        batch = qa.load_qa(TOY_QA)
        base = kg.load_triples(TOY_KG, TOY_ALIASES)
        graph, log = kg.sample_ikg(base, batch, IKG_FRACTION, IKG_SEED)
        return base, graph, web.OfflineWebTool.from_path(TOY_WEB_CORPUS), batch, dict(log.coverage)
    batch = qa.load_qa(data / spec.qa_file)
    base = kg.load_triples(data / "kg.tsv")
    graph, coverage = base, {ex.id: kg.COVERAGE_CKG for ex in batch}
    if spec.ikg:
        graph, log = kg.sample_ikg(base, batch, IKG_FRACTION, IKG_SEED)
        coverage = dict(log.coverage)
    offline = None if spec.remote else web.OfflineWebTool.from_path(data / "web.jsonl")
    return base, graph, offline, batch, coverage


def timed_setup(spec: Spec, data: Path | None, times: list[float], reps: int, scale: SpeedScale) -> tuple:
    """Take ``reps`` set-up samples, adding each to ``times``; returns the
    last result. The toy suite's 2 ms set-up works in cache like the toy
    rollouts, so ``scale`` corrects its times. The set-up of the generated
    workloads reads megabytes of files and builds large indexes, which no
    speed probe follows (see ``speed.py``), so their times are as
    measured."""
    result = None
    for _ in range(reps):
        result = None
        gc.collect()
        start = perf_counter()
        result = program_setup(spec, data)
        if data is None:
            scale.add(perf_counter() - start, times)
        else:
            times.append(perf_counter() - start)
    scale.flush()
    return result


def partial_hops(graph: kg.KnowledgeGraph, batch: list) -> frozenset[str]:
    """Questions of which ``graph`` lacks a critical triple whose (head,
    relation) pair still has other tails. The sentinel never fires for such
    a pair, so the oracle answers from the tails that are left: the
    partial-hop finding of ROADMAP.md. When those are wrong tails only (as
    for an intersection that lost its shared tails) its answer can be empty,
    and Hits@1 misses."""
    return frozenset(ex.id for ex in batch for h, r, t in ex.critical_triples
                     if t not in graph.pair_index.get((h, r), (t,)))


def make_ctx(spec: Spec, setup: tuple, server: StubProcess | None, scales: tuple[SpeedScale, SpeedScale]) -> Ctx:
    """Policy and web tool (for ``remote-policy``, clients of the stub
    ``server``, which must be serving); on ``cli-toy`` also the in-process trajectories the CLI
    must match."""
    base, graph, offline, batch, coverage = setup
    cfg = rollout.RolloutConfig(max_iterations=spec.max_iterations)
    partial = partial_hops(graph, batch)
    if server:
        return Ctx(spec, base, graph, CountingWeb(web.RemoteWebTool(server.url("/web"))), None, batch, coverage,
                   cfg, ForcedAnswers(RemotePolicy(server.url("/policy"))), *scales, server, partial=partial)
    ctx = Ctx(spec, base, graph, offline, offline, batch, coverage, cfg, ForcedAnswers(ScriptedOracle()), *scales,
              partial=partial)
    if spec.qa_file is None:
        ctx.expected = {ex.id: rollout.run_rollout(ctx.policy, graph, offline, ex, cfg).raw
                        for ex in ctx.by_id.values()}
    return ctx


# -- one pass -----------------------------------------------------------------

def reward_side(ctx: Ctx, trajs: list) -> tuple[list, list, list]:
    """score_trajectory, then group advantages, then the SFT filter."""
    by_id, judge = ctx.by_id, filtering.RuleJudge()
    records = []
    for traj in trajs:
        ex, cov = by_id[traj.question_id], ctx.coverage[traj.question_id]
        records.append(rewards.score_record(ex.id, rewards.score_trajectory(traj, ex.answers, cov), cov))
    groups = rewards.group_score_records(records)
    verdicts = [filtering.filter_trajectory(t, by_id[t.question_id], ctx.coverage[t.question_id], judge) for t in trajs]
    return records, groups, verdicts


def timed_rollout(ctx: Ctx, ex: qa.QAExample, tot: Totals) -> tuple:
    """One rollout of ``ex``: its trajectory (None if it raised), measured
    time and the part of that time the stub server's injected delays
    took."""
    tot.attempted += 1
    requests = ctx.requests()
    t0 = perf_counter()
    try:
        traj = rollout.run_rollout(ctx.policy, ctx.kg, ctx.web, ex, ctx.cfg)
    except (rollout.RolloutError, web.WebToolError) as exc:
        tot.fail(f"{ex.id}: rollout raised {exc}")
        return None, 0.0, 0.0
    elapsed = perf_counter() - t0
    tot.rollouts += 1
    return traj, elapsed, (ctx.requests() - requests) * REMOTE_DELAY_S


def reward_reps(ctx: Ctx, tot: Totals, seconds: float) -> None:
    """Repeat the reward side over ``tot.reward_trajs`` for ``seconds``."""
    spent = 0.0
    while tot.reward_trajs and spent < seconds:
        t0 = perf_counter()
        reward_side(ctx, tot.reward_trajs)
        elapsed = perf_counter() - t0
        spent += elapsed
        ctx.reward_scale.add(elapsed, tot.reward_rep_times)


def inprocess_pass(ctx: Ctx, tot: Totals) -> float:
    """Rollouts over the batch, the reward side and the eval report; returns
    the pipeline time. Every time is corrected for the CPU's speed, with
    the stub server's injected delays as the fixed part of a remote
    rollout. Checks run after the timed part."""
    scale, parts, trajs = ctx.scale, [], []
    for ex in ctx.batch:
        traj, elapsed, fixed = timed_rollout(ctx, ex, tot)
        if traj is None:
            continue
        scale.add(elapsed, parts, tot.latencies, tot.samples[ex.id], fixed=fixed)
        trajs.append(traj)
        spent, reps = elapsed, 1
        while spent < ctx.spec.repeat_s and reps < MAX_REPEATS:
            again, elapsed, fixed = timed_rollout(ctx, ex, tot)
            if again is None:
                break
            spent, reps = spent + elapsed, reps + 1
            scale.add(elapsed, tot.samples[ex.id], fixed=fixed)
            if again.raw != traj.raw:
                tot.problems.append(f"{ex.id}: a repeated rollout gave another trajectory")
        reward_reps(ctx, tot, REWARD_MIN_S / len(ctx.batch))
    scale.flush()
    ctx.reward_scale.flush()  # a fresh probe before the reward side, if it has its own scale
    t0 = perf_counter()
    outputs = reward_side(ctx, trajs)
    report = evaluate.build_report(trajs, ctx.batch)
    ctx.reward_scale.add(perf_counter() - t0, parts)

    if not tot.reward_trajs:  # the first pass
        tot.reward_trajs = list({t.question_id: t for t in trajs}.values())
        reward_reps(ctx, tot, REWARD_MIN_S)
    ctx.reward_scale.flush()

    check_inprocess(ctx, trajs, outputs, report, tot)
    return sum(parts)


def check_text(qid: str, raw: str, spans: list, tot: Totals, signature: list | None = None) -> None:
    """The trajectory re-parses (to ``signature`` when given) and its
    retrieval masks are sorted, disjoint, in bounds and each covers one
    information block."""
    try:
        steps = parse_trajectory(raw, qid).steps
    except ParseError as exc:
        tot.problems.append(f"{qid}: trajectory does not re-parse: {exc}")
        return
    if signature is not None and [(s.tag, s.content) for s in steps] != signature:
        tot.problems.append(f"{qid}: trajectory re-parses to other steps")
    prev = 0
    for start, end in spans:
        tag = raw[start + 1:raw.find(">", start)] if raw.startswith("<", start) else ""
        if not (prev <= start < end <= len(raw)) or tag not in INFO_TAGS or not raw.endswith(f"</{tag}>", 0, end):
            tot.problems.append(f"{qid}: bad retrieval mask span {(start, end)}")
            return
        prev = end
    if len(spans) != sum(1 for s in steps if s.tag in INFO_TAGS):
        tot.problems.append(f"{qid}: mask count differs from information blocks")


def check_forced(ctx: Ctx, tot: Totals) -> None:
    """No workload reaches the iteration cap or drops a segment, so every
    forced answer is a failed check."""
    for qid in ctx.policy.forced:
        tot.problems.append(f"{qid}: the rollout ended in a forced answer")
    ctx.policy.forced.clear()


def check_answers(ctx: Ctx, trajs: list, tot: Totals) -> None:
    """The oracle never answers a wrong entity, and its first answer is a
    gold one (Hits@1) on every question without a partial hop."""
    by_id = ctx.by_id
    for traj in {t.question_id: t for t in trajs}.values():
        ex = by_id[traj.question_id]
        gold = {normalize(alias) for aliases in ex.answers for alias in aliases}
        items = answer_items(traj)
        if not set(items) <= gold:
            tot.problems.append(f"{ex.id}: the oracle answered {sorted(set(items) - gold)[:3]}, not gold")
        elif not items and ex.id in ctx.partial:
            tot.partial_misses.add(ex.id)
        elif not items:
            tot.problems.append(f"{ex.id}: oracle Hits@1 missed without a partial hop")


def check_inprocess(ctx: Ctx, trajs: list, outputs: tuple, report: dict, tot: Totals) -> None:
    check_answers(ctx, trajs, tot)
    records, groups, verdicts = outputs
    check_forced(ctx, tot)
    h = hashlib.sha256()
    for traj in trajs:
        check_text(traj.question_id, traj.raw, retrieval_mask(traj), tot, traj.step_signature)
        if any(s.tag in INFO_TAGS and s.content in TRANSPORT_ERRORS for s in traj.steps):
            tot.fail(f"{traj.question_id}: a tool call returned a transport error")
        h.update(f"{traj.question_id}\0{traj.raw}\0".encode())
    h.update(json.dumps([records, groups, [(v.keep, list(v.failed_checks)) for v in verdicts], report],
                        sort_keys=True).encode())
    tot.digest("rollout", h.hexdigest()[:16])
    tot.verdicts += len(verdicts)
    tot.kept += sum(v.keep for v in verdicts)


def cli_pass(ctx: Ctx, work: Path, tot: Totals, env: dict) -> None:
    """The seven CLI commands on the toy suite, one subprocess each, timed
    one by one; the pass stops at a command that fails. The trajectories
    must be the in-process oracle's."""
    w = {name: str(work / name) for name in
         ("kg.tsv", "ikg.tsv", "ikg.jsonl", "traj.jsonl", "masks.jsonl", "scores.jsonl", "adv.jsonl", "sft.jsonl", "report.json")}
    toy = {"kg": str(TOY_KG), "aliases": str(TOY_ALIASES), "qa": str(TOY_QA), "web": str(TOY_WEB_CORPUS)}
    argv = {
        "build_kg": ["build-kg", "--triples", toy["kg"], "--aliases", toy["aliases"], "--out", w["kg.tsv"]],
        "sample_ikg": ["sample-ikg", "--triples", w["kg.tsv"], "--aliases", toy["aliases"], "--qa", toy["qa"],
                       "--fraction", str(IKG_FRACTION), "--seed", str(IKG_SEED),
                       "--out-kg", w["ikg.tsv"], "--out-log", w["ikg.jsonl"]],
        "rollout": ["rollout", "--kg", w["ikg.tsv"], "--aliases", toy["aliases"], "--qa", toy["qa"],
                    "--web-corpus", toy["web"], "--out", w["traj.jsonl"], "--masks", w["masks.jsonl"]],
        "score": ["score", "--traj", w["traj.jsonl"], "--qa", toy["qa"], "--ikg-log", w["ikg.jsonl"],
                  "--out", w["scores.jsonl"]],
        "advantages": ["advantages", "--scores", w["scores.jsonl"], "--out", w["adv.jsonl"]],
        "filter_sft": ["filter-sft", "--traj", w["traj.jsonl"], "--qa", toy["qa"], "--ikg-log", w["ikg.jsonl"],
                       "--out", w["sft.jsonl"]],
        "eval": ["eval", "--traj", w["traj.jsonl"], "--qa", toy["qa"], "--out", w["report.json"]],
    }
    for name in CLI_COMMANDS:
        tot.attempted += 1
        proc = subprocess.run([sys.executable, "-c", LAUNCHER, sys.executable, "-m", "kgqa_env", *argv[name]],
                              env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            tot.fail(f"cli {name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
            return
        elapsed, rss_kb = proc.stderr.splitlines()[-1].split()
        ctx.cli_scale.add(float(elapsed), tot.cli_times[name])
        tot.cli_rss_kb = max(tot.cli_rss_kb, int(rss_kb))

    ctx.cli_scale.flush()
    report = json.loads(Path(w["report.json"]).read_text())
    if report["hits_at_1"] != 1.0:
        tot.problems.append(f"cli eval Hits@1 is {report['hits_at_1']}, expected 1.0")
    trajs = [json.loads(line) for line in Path(w["traj.jsonl"]).read_text().splitlines()]
    masks = [json.loads(line) for line in Path(w["masks.jsonl"]).read_text().splitlines()]
    if [t["id"] for t in trajs] != [m["id"] for m in masks]:
        tot.problems.append("cli masks do not line up with trajectories")
    if {t["id"]: t["text"] for t in trajs} != ctx.expected:
        tot.problems.append("cli trajectories differ from the in-process oracle's")
    for t, m in zip(trajs, masks):
        check_text(t["id"], t["text"], [tuple(s) for s in m["masked_spans"]], tot)
    h = hashlib.sha256()
    for name in ("traj.jsonl", "scores.jsonl", "adv.jsonl", "sft.jsonl", "report.json"):
        h.update(Path(w[name]).read_bytes())
    tot.digest("cli", h.hexdigest()[:16])


def run_passes(ctx: Ctx, seconds: float, tot: Totals, work: Path, env: dict, min_passes: int = 2,
               min_beyond: int = 10) -> None:
    """Closed loop of whole passes, stopping once the next pass would end
    more than half a pass after ``seconds``, but not before ``min_passes``
    passes and ``min_beyond`` rollout samples beyond the tail percentile."""
    start = perf_counter()
    while True:
        pin_fastest_cpu(tuple(s for s in (ctx.scale, ctx.reward_scale, ctx.cli_scale) if s), ctx.stub)
        if ctx.spec.qa_file is None:
            cli_pass(ctx, work, tot, env)
            inprocess_pass(ctx, tot)
            # The toy set-up takes about 2 ms; timing it after every pass
            # spreads its samples over the run instead of one instant.
            timed_setup(ctx.spec, None, tot.setup_times, ctx.spec.setup_reps, ctx.scale)
        else:
            tot.pipelines.append(inprocess_pass(ctx, tot))
        tot.passes += 1
        elapsed = perf_counter() - start
        if (tot.passes >= min_passes and beyond(len(rollout_samples(ctx.spec, tot)), ctx.spec.tail_pct) >= min_beyond
                and elapsed * (1 + 0.5 / tot.passes) >= seconds):
            return


# -- metrics ------------------------------------------------------------------

def peak_rss_mb(spec: Spec, tot: Totals) -> float:
    """Peak resident memory of the process that ran the workload: the
    largest CLI command on ``cli-toy``, this process elsewhere (kB on
    Linux)."""
    kb = tot.cli_rss_kb if spec.qa_file is None else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024


def pipeline_s(spec: Spec, tot: Totals) -> float:
    """The median pass; on ``cli-toy`` the sum of the seven commands'
    median times."""
    if spec.qa_file is None:
        return sum(statistics.median(tot.cli_times[c]) for c in CLI_COMMANDS if tot.cli_times[c])
    return statistics.median(tot.pipelines)


def rollout_samples(spec: Spec, tot: Totals) -> list[float]:
    """Every rollout, or with ``spec.repeat_s`` each question's median."""
    if spec.repeat_s:
        return [statistics.median(v) for v in tot.samples.values()]
    return tot.latencies


def end_to_end(spec: Spec, tot: Totals) -> dict[str, tuple[float, str]]:
    samples = rollout_samples(spec, tot)
    lat_ms = [x * 1000 for x in samples]
    return {
        "setup_s": (statistics.median(tot.setup_times), "s"),
        "rollouts_per_s": (len(samples) / sum(samples), "1/s"),
        "rollout_p50_ms": (percentile(lat_ms, 50), "ms"),
        "rollout_tail_ms": (percentile(lat_ms, spec.tail_pct), "ms"),
        "score_filter_per_s": (len(tot.reward_trajs) / statistics.median(tot.reward_rep_times), "1/s"),
        "pipeline_s": (pipeline_s(spec, tot), "s"),
        "peak_rss_mb": (peak_rss_mb(spec, tot), "MB"),
    }


def _median_ms(calls) -> float:
    """Median wall time of the given zero-argument calls, in ms."""
    times = []
    for call in calls:
        t0 = perf_counter()
        call()
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def probes(ctx: Ctx, data: Path | None) -> dict[str, float]:
    """Baseline probes, untraced: relation_search on a typical entity and on
    the 800-relation hub, rollout cost per tool call at 10/200/800
    iterations, offline web search over the full corpus, and the bytes per
    triple that ``KnowledgeGraph.from_triples`` keeps alive."""
    out = dict.fromkeys(PROBES, 0.0)
    triples = list(ctx.base_kg.triples)
    gc.collect()
    tracemalloc.start()
    graph = kg.KnowledgeGraph.from_triples(triples)
    out["kg.bytes_per_triple"] = tracemalloc.get_traced_memory()[0] / len(triples)
    tracemalloc.stop()
    del graph
    if data is None:
        return out
    probe = json.loads((data / "probe.json").read_text())
    base = ctx.base_kg
    out["probe.relation_search_typical_ms"] = _median_ms([partial(base.relation_search, *probe["typical"])] * 200)
    out["probe.relation_search_hub800_ms"] = _median_ms([partial(base.relation_search, *probe["hub800"])] * 5)
    if ctx.offline_web:  # not loaded on remote-policy
        out["probe.web_search_ms"] = _median_ms(partial(ctx.offline_web.search, normalize(q), 3)
                                                for q in probe["web_queries"])
    example = qa.load_qa(data / "qa_probe.jsonl")[0]
    for n in (10, 200, 800):  # on the complete graph: no web calls
        t0 = perf_counter()
        traj = rollout.run_rollout(ScriptedOracle(), base, ctx.web, example,
                                   rollout.RolloutConfig(max_iterations=n))
        calls = sum(1 for s in traj.steps if s.tag in SEARCH_TAGS)
        out[f"probe.step_iters{n}_ms"] = (perf_counter() - t0) * 1000 / calls
    return out


def cli_import_s(env: dict, reps: int = 5) -> float:
    """Package import time in a fresh interpreter, median of ``reps``."""
    code = "import time; t = time.perf_counter(); import kgqa_env; print(time.perf_counter() - t)"
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                  check=True, timeout=60).stdout) for _ in range(reps)]
    return statistics.median(times)


#: Layers reported with calls, busy_s, self_s, p50_ms and tail_ms.
FULL_LAYERS = (
    "kg.relation_search", "kg.neighbor_search", "kg.resolve_entity", "web.search", "web.remote",
    "trajectory.parse", "rollout.dispatch", "policies.oracle.next_segment", "plan.parse_plan",
    "rewards.score", "filtering.filter",
)
PROBES = (
    "kg.bytes_per_triple", "probe.relation_search_typical_ms", "probe.relation_search_hub800_ms",
    "probe.web_search_ms", "probe.step_iters10_ms", "probe.step_iters200_ms", "probe.step_iters800_ms",
)
POLICY_LAYERS = ("policies.oracle.next_segment", "policies.remote.request")


def unit_of(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".failed"):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("step_growth"):
        return "ratio"
    return {"kg.bytes_per_triple": "B", "trajectory.parse.chars": "chars",
            "policies.remote.bytes_sent_per_rollout": "B"}.get(name, "count")


def layer_metric_names() -> list[str]:
    """Every per-layer metric a traced run prints, in order."""
    names = []
    for layer in FULL_LAYERS:
        names += [f"{layer}.{k}" for k in ("calls", "busy_s", "self_s", "p50_ms", "tail_ms")]
    names += [
        "kg.load_triples_s", "kg.sample_ikg_s", "kg.relation_search.candidates_per_call",
        "text.levenshtein.calls", "text.levenshtein.busy_s", "kg.neighbor_search.sentinel_ratio",
        "web.search.hit_ratio", "web.from_path_s", "web.remote.failed",
        "trajectory.parse.chars", "trajectory.validate.busy_s",
        "rollout.run.calls", "rollout.run.self_s", "rollout.segments_per_rollout", "rollout.tool_calls_per_rollout",
        "rollout.forced_answer_ratio", "rollout.step_growth",
        "policies.remote.request_p50_ms", "policies.remote.overhead_ms",
        "policies.remote.bytes_sent_per_rollout", "policies.remote.failed",
        "rewards.advantages.busy_s", "filtering.judge.busy_s", "filtering.kept_ratio",
        "evaluate.report_s", "cli.import_s", *[f"cli.{c}_s" for c in CLI_COMMANDS],
        *PROBES,
        "trace.overhead_ms", "trace.overhead_ratio", "trace.nesting_violations", "run.failed_ratio",
    ]
    return names


def mean_rollout_ms(tot: Totals) -> float:
    """Mean corrected time of every rollout of ``tot``."""
    times = [t for per_question in tot.samples.values() for t in per_question]
    return 1000 * sum(times) / len(times) if times else 0.0


def per_layer(tracer: Tracer, setup_spans: list, tot: Totals, untraced_ms: float, bytes_sent: int | None,
              probe_values: dict, import_s: float, all_rollouts: int) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the traced passes. ``bytes_sent`` is what the
    stub server received on ``/policy`` (None without one) over
    ``all_rollouts`` rollouts, traced and untraced. Also returns text lines
    naming the tail percentile used for each layer."""
    spans, counts = tracer.spans, tracer.counts
    selfs = self_times(spans)
    table = layer_table(spans, selfs)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []}
    row = lambda name: table.get(name, empty)
    setup_durations = defaultdict(list)
    for _, _, name, start, end in setup_spans:
        setup_durations[name].append(end - start)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    per_call = lambda num, name: num / row(name)["calls"] if row(name)["calls"] else 0.0

    m: dict[str, float] = {}
    notes = []
    for layer in FULL_LAYERS:
        r = row(layer)
        durations = [d * 1000 for d in r["durations"]]
        p = tail_percentile(len(durations))
        m.update({f"{layer}.calls": r["calls"], f"{layer}.busy_s": r["busy_s"], f"{layer}.self_s": r["self_s"],
                  f"{layer}.p50_ms": percentile(durations, 50), f"{layer}.tail_ms": percentile(durations, p)})
        if durations:
            notes.append(f"{layer}.tail_ms is p{p} of n={len(durations)} ({beyond(len(durations), p)} beyond)")
    rollouts = row("rollout.run")["calls"]
    segments = sum(row(name)["calls"] for name in POLICY_LAYERS)
    remote = [d * 1000 for d in row("policies.remote.request")["durations"]]
    remote_p50 = percentile(remote, 50)
    traced_ms = mean_rollout_ms(tot)
    m.update({
        "kg.load_triples_s": med(setup_durations["kg.load_triples"]),
        "kg.sample_ikg_s": med(setup_durations["kg.sample_ikg"]),
        "kg.relation_search.candidates_per_call": per_call(counts["kg.relation_search.candidates"], "kg.relation_search"),
        "text.levenshtein.calls": row("text.levenshtein")["calls"],
        "text.levenshtein.busy_s": row("text.levenshtein")["busy_s"],
        "kg.neighbor_search.sentinel_ratio": per_call(counts["kg.neighbor_search.sentinel"], "kg.neighbor_search"),
        "web.search.hit_ratio": per_call(counts["web.search.hit"], "web.search"),
        "web.from_path_s": med(setup_durations["web.from_path"]),
        "web.remote.failed": counts["web.remote.failed"],
        "trajectory.parse.chars": per_call(counts["trajectory.parse.chars"], "trajectory.parse"),
        "trajectory.validate.busy_s": row("trajectory.validate")["busy_s"],
        "rollout.run.calls": rollouts,
        "rollout.run.self_s": row("rollout.run")["self_s"],
        "rollout.segments_per_rollout": segments / rollouts if rollouts else 0.0,
        "rollout.tool_calls_per_rollout": per_call(row("rollout.dispatch")["calls"], "rollout.run"),
        "rollout.forced_answer_ratio": per_call(row("rollout.force")["calls"], "rollout.run"),
        "rollout.step_growth": step_growth(spans, POLICY_LAYERS),
        "policies.remote.request_p50_ms": remote_p50,
        "policies.remote.overhead_ms": remote_p50 - REMOTE_DELAY_S * 1000 if remote else 0.0,
        "policies.remote.bytes_sent_per_rollout": bytes_sent / all_rollouts if bytes_sent is not None else 0.0,
        "policies.remote.failed": counts["policies.remote.request.failed"],
        "rewards.advantages.busy_s": row("rewards.advantages")["busy_s"],
        "filtering.judge.busy_s": row("filtering.judge")["busy_s"],
        "filtering.kept_ratio": tot.kept / tot.verdicts if tot.verdicts else 0.0,
        "evaluate.report_s": med(row("evaluate.report")["durations"]),
        "cli.import_s": import_s,
        **{f"cli.{c}_s": med(tot.cli_times[c]) for c in CLI_COMMANDS},
        **probe_values,
        "trace.overhead_ms": traced_ms - untraced_ms,
        "trace.overhead_ratio": traced_ms / untraced_ms - 1 if untraced_ms else 0.0,
        "trace.nesting_violations": nesting_violations(spans),
        "run.failed_ratio": tot.failed / tot.attempted if tot.attempted else 0.0,
    })
    return m, notes


# -- runs ---------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(kg.__file__).resolve().parents[1])
    return env


def run(spec: Spec, data: Path | None, work: Path, seconds: float, trace: bool,
        trace_path: Path) -> tuple[Totals, dict[str, tuple[float, str]], list[str]]:
    """Measure one workload; returns the totals, the metrics (end-to-end, or
    per-layer when ``trace``) and text lines for the log."""
    env = child_env()
    tot = Totals()
    tracer = Tracer()
    scale = SpeedScale(ScanProbe()) if spec.scan_probe else SpeedScale()
    scales = (scale, SpeedScale()) if spec.scan_probe else (scale, scale)
    # The stub server loads its inputs and records on the CPU the client is
    # not pinned to, while the client takes its first set-up sample.
    server = StubProcess(data, spec, env) if spec.remote else None
    try:
        if trace:
            tracer.install()
        pin_fastest_cpu(scales)
        timed_setup(spec, data, tot.setup_times, 1, scale)  # its result is dropped at once
        if server:
            # The stub loads and records (about 9 s) while the client takes
            # its first set-up sample. The other samples wait for it, so the
            # median sample never competes with it for the machine.
            server.wait_ready()
        setup = timed_setup(spec, data, tot.setup_times, spec.setup_reps - 1, scale)
        setup_spans = list(tracer.spans)
        tracer.uninstall()
        ctx = make_ctx(spec, setup, server, scales)
        if spec.qa_file is None:
            # One probe pair per pass of seven commands: the probe takes 0.13 s.
            ctx.cli_scale = SpeedScale(CommandProbe(), REF_COMMAND_S, block_s=float("inf"))
    except BaseException:
        if server:
            server.close()
        raise
    try:
        if not trace:
            run_passes(ctx, seconds, tot, work, env)
            n = len(rollout_samples(spec, tot))
            q1, med, q3 = statistics.quantiles(scale.probes, n=4)
            lines = [f"rollout_tail_ms is p{spec.tail_pct} of n={n} ({beyond(n, spec.tail_pct)} beyond)",
                     f"speed probes: n={len(scale.probes)} quartiles {q1 * 1000:.3f} {med * 1000:.3f} "
                     f"{q3 * 1000:.3f} ms (rollout times are corrected to {REF_PROBE_S * 1000:g} ms)"]
            return tot, end_to_end(spec, tot), lines

        # Untraced and traced passes alternate, so both see the same machine
        # load; the difference in mean rollout time is the tracing overhead.
        reference = Totals()
        tracer.reset()
        stats_before = ctx.stub.stats() if ctx.stub else None
        start = perf_counter()
        while tot.passes < 2 or perf_counter() - start < seconds:
            run_passes(ctx, 0, reference, work, env, min_passes=1, min_beyond=0)
            tracer.install()
            try:
                run_passes(ctx, 0, tot, work, env, min_passes=1, min_beyond=0)
            finally:
                tracer.uninstall()
        untraced_ms = mean_rollout_ms(reference)
        if reference.digests != tot.digests:
            tot.problems.append("traced outputs differ from untraced outputs")
        tot.problems += reference.problems
        tot.attempted += reference.attempted
        tot.failed += reference.failed
        rollouts = reference.rollouts + tot.rollouts
        bytes_sent = None
        if ctx.stub:
            bytes_sent = ctx.stub.stats()["bytes_in"]["/policy"] - stats_before["bytes_in"].get("/policy", 0)
        probe_values = probes(ctx, data)
        import_s = cli_import_s(env) if spec.qa_file is None else 0.0
        values, lines = per_layer(tracer, setup_spans, tot, untraced_ms, bytes_sent, probe_values, import_s, rollouts)
        if values["trace.nesting_violations"]:
            tot.problems.append(f"{values['trace.nesting_violations']} spans overlap a sibling or leave their parent")
        tracer.spans[:0] = setup_spans
        tracer.write(trace_path)
        lines.append(f"spans written to {trace_path}")
        return tot, {name: (values[name], unit_of(name)) for name in layer_metric_names()}, lines
    finally:
        if ctx.stub:
            ctx.stub.close()
