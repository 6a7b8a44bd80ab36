"""Multi-signal reward scoring and group-relative advantages.

``score_trajectory`` is the one scoring entry point. It combines an outcome
reward (answer F1 gated by format validity, with a 0.1 floor for
well-formed attempts) with graph and web coverage of the gold answers in
the concatenated information blocks, and an overall reward that penalizes
web search when the graph was complete, or its absence when the graph was
not. All operations are pure; batches can be scored in parallel without
coordination.

Cost: one call normalizes each information text (the joined graph blocks,
the joined web blocks) once, so scoring is linear in the trajectory's
length, apart from the substring search of each gold alias in its text.
The gold aliases are normalized once per question, not per call:
:func:`kgqa_env.qa.gold_alias_sets` memoizes them by value, for up to
``GOLD_CACHE_SIZE`` (1,024) distinct golds, one training batch of
questions, so a question's G samples, and the filter after the scorer,
read what its first call built. The memo stops at per-question data:
GRPO's samples of one question differ from each other, so a cache keyed by
a trajectory (its parse, its format check, its answer items) would hit
only on repeated identical text.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path
from typing import AbstractSet, NamedTuple, Sequence

from .jsonio import json_text, read_jsonl
from .qa import COVERAGE_CKG, COVERAGE_IKG, gold_alias_sets
from .text import normalize
from .trajectory import (
    NEIGHBOR_INFORMATION,
    WEB_INFORMATION,
    Trajectory,
    answer_items,
    validate_format,
)

ADVANTAGE_EPS = 1e-8


class RewardBreakdown(NamedTuple):
    """All reward components for one trajectory: format validity, answer
    F1, the accuracy reward, graph and web coverage (0 or 1), and the
    overall reward."""

    format_ok: bool
    r_ans: float
    r_acc: float
    r_graph: int
    r_web: int
    r_over: float


def _f1(pred_norm: AbstractSet[str], gold_sets: Sequence[AbstractSet[str]]) -> float:
    """F1 of normalized, non-empty predictions (``answer_items`` gives
    them so) against a question's memoized gold alias sets
    (:func:`~kgqa_env.qa.gold_alias_sets`)."""
    if not pred_norm or not gold_sets:
        return 0.0
    matched_preds = len(pred_norm & set().union(*gold_sets))
    matched_golds = sum(1 for aliases in gold_sets if not aliases.isdisjoint(pred_norm))
    precision = matched_preds / len(pred_norm)
    recall = matched_golds / len(gold_sets)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _covers(text: str, gold_sets: Sequence[AbstractSet[str]]) -> int:
    """1 iff every gold answer has an alias inside the normalized text. The
    text is normalized here, once per call; ``gold_sets`` are the question's
    memoized alias sets, already normalized."""
    if not gold_sets or not text:
        return 0
    haystack = normalize(text)
    return int(all(any(alias in haystack for alias in aliases) for aliases in gold_sets))


def _concat_info(traj: Trajectory, tag: str) -> str:
    return "\n".join(s.content for s in traj.steps if s.tag == tag)


def overall_reward(r_acc: float, r_graph: int, r_web: int, coverage: str) -> float:
    """Combine the component rewards under the question's coverage label.

    Case precedence (accuracy > penalty > shaping > zero): a positive
    accuracy reward passes through untouched; otherwise web use on a
    complete graph, or no web use on an incomplete one, costs -0.1; otherwise
    any successful retrieval earns 0.1; otherwise 0.
    """
    if coverage not in (COVERAGE_CKG, COVERAGE_IKG):
        raise ValueError(f"coverage label must be {COVERAGE_CKG!r} or {COVERAGE_IKG!r}, got {coverage!r}")
    if r_acc > 0:
        return r_acc
    if (coverage == COVERAGE_CKG and r_web > 0) or (coverage == COVERAGE_IKG and r_web == 0):
        return -0.1
    if r_graph > 0 or r_web > 0:
        return 0.1
    return 0.0


def score_trajectory(traj: Trajectory, gold: Sequence[Sequence[str]], coverage: str) -> RewardBreakdown:
    """Full reward breakdown for one trajectory. ``r_ans`` is the set F1 of
    the answer items against the gold alias sets (equal after normalizing);
    ``r_acc`` is 0 for a malformed trajectory, else max(0.1, r_ans).
    ``r_graph`` (``r_web``) is 1 iff every gold answer has an alias in the
    normalized, joined neighbor_information (web_information) contents."""
    gold_sets = gold_alias_sets(gold)
    format_ok = not validate_format(traj)
    r_ans = _f1(set(answer_items(traj)), gold_sets)
    r_acc = max(0.1, r_ans) if format_ok else 0.0
    r_graph = _covers(_concat_info(traj, NEIGHBOR_INFORMATION), gold_sets)
    r_web = _covers(_concat_info(traj, WEB_INFORMATION), gold_sets)
    return RewardBreakdown(
        format_ok=format_ok,
        r_ans=r_ans,
        r_acc=r_acc,
        r_graph=r_graph,
        r_web=r_web,
        r_over=overall_reward(r_acc, r_graph, r_web, coverage),
    )


def group_advantages(rewards: Sequence[float]) -> list[float]:
    """Group-relative advantages: (r - mean) / (population std + eps).
    All-equal groups yield exactly zero advantages."""
    if not rewards:
        raise ValueError("cannot compute advantages of an empty reward group")
    mean = sum(rewards) / len(rewards)
    std = math.sqrt(sum((r - mean) ** 2 for r in rewards) / len(rewards))
    return [(r - mean) / (std + ADVANTAGE_EPS) for r in rewards]


# -- score / advantage files -------------------------------------------------

def score_record(question_id: str, breakdown: RewardBreakdown, coverage: str) -> dict:
    return {
        "id": question_id,
        "format_ok": breakdown.format_ok,
        "r_ans": breakdown.r_ans,
        "R_acc": breakdown.r_acc,
        "R_graph": breakdown.r_graph,
        "R_web": breakdown.r_web,
        "R_over": breakdown.r_over,
        "coverage": coverage,
    }


def read_scores(path: str | Path) -> list[dict]:
    """Read a JSON-lines score file as written by ``score``. Each record needs
    a text ``id`` and an ``R_over`` that is a finite float or an int in float
    range; anything else is a ``ValueError`` naming the file and line."""
    def record(rec: dict) -> dict:
        json_text(rec["id"], "id")
        r_over = rec["R_over"]
        if isinstance(r_over, bool) or not isinstance(r_over, (int, float)):
            raise ValueError(f"'R_over' must be a number, got {r_over!r}")
        if not abs(r_over) <= sys.float_info.max:  # NaN, infinity, or an int no float holds
            raise ValueError(f"'R_over' must be a finite float, got {r_over!r}")
        return rec

    return list(read_jsonl(path, ValueError, "score record", record))


def group_score_records(records: Sequence[dict]) -> list[dict]:
    """Group score records into advantage records, in file order. A group is
    one maximal run of consecutive records with the same question id: the
    samples of one question, as ``rollout`` writes them, however many there
    are. Records of one id that other ids separate form separate groups."""
    out = []
    for qid, run in itertools.groupby(records, key=lambda rec: rec["id"]):
        members = list(run)
        rewards = [float(m["R_over"]) for m in members]
        out.append({
            "id": qid,
            "group": [m["id"] for m in members],
            "rewards": rewards,
            "advantages": group_advantages(rewards),
        })
    return out
