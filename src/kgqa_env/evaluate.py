"""Evaluation metrics: exact-match Hits@1 and web-search usage ratios."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

from .qa import QAExample, gold_alias_sets
from .trajectory import SEARCH_TAGS, WEB_SEARCH, Trajectory, answer_items


def hits_at_1(trajs: Sequence[Trajectory], qa: Sequence[QAExample]) -> float:
    """Fraction of trajectories whose first predicted answer exactly matches
    any gold alias of their question after normalization. Every sample of a
    question counts, as in the web-usage ratios, and a question without a
    trajectory counts as one miss (with a warning). A trajectory whose
    question has no QA record is a ``ValueError``."""
    if not qa:
        raise ValueError("hits_at_1 needs at least one question")
    by_id = {ex.id: ex for ex in qa}
    hits = 0
    for traj in trajs:
        ex = by_id.get(traj.question_id)
        if ex is None:
            raise ValueError(f"trajectory {traj.question_id!r} has no QA record")
        items = answer_items(traj)
        # items[0] is never "", so the blank aliases the sets leave out could not match it
        if items and any(items[0] in aliases for aliases in gold_alias_sets(ex.answers)):
            hits += 1
    sampled = {t.question_id for t in trajs}
    missing = [ex.id for ex in qa if ex.id not in sampled]
    for qid in missing:
        import logging  # here, where it is used: loading it costs every eval run about 3 ms

        logging.getLogger(__name__).warning("no trajectory for question %s; counted as a miss", qid)
    return hits / (len(trajs) + len(missing))


def web_search_ratio(trajs: Sequence[Trajectory]) -> float:
    """Fraction of trajectories containing at least one web_search block."""
    if not trajs:
        raise ValueError("web_search_ratio needs at least one trajectory")
    with_web = sum(1 for t in trajs if t.blocks(WEB_SEARCH))
    return with_web / len(trajs)


def web_calls_per_tool_call(trajs: Sequence[Trajectory]) -> float:
    """Web search blocks as a fraction of all tool-call blocks; the
    per-operation variant of the web usage ratio."""
    total = sum(1 for t in trajs for s in t.steps if s.tag in SEARCH_TAGS)
    if total == 0:
        return 0.0
    web = sum(1 for t in trajs for s in t.steps if s.tag == WEB_SEARCH)
    return web / total


def build_report(trajs: Sequence[Trajectory], qa: Sequence[QAExample]) -> dict:
    """Single-document eval report with both web-usage variants. No
    trajectory at all, and one whose question has no QA record, is a
    ``ValueError``; the first is raised before :func:`hits_at_1` warns of
    each question as a miss."""
    web = web_search_ratio(trajs)
    return {
        "hits_at_1": hits_at_1(trajs, qa),
        "web_search_ratio": web,
        "web_calls_per_tool_call": web_calls_per_tool_call(trajs),
        "n_questions": len(qa),
    }


def write_report(report: dict, path: str | Path) -> None:
    Path(path).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
