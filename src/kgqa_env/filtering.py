"""Two-stage trajectory filtering for SFT dataset construction.

A trajectory is kept only when it passes every check: tag format validity,
an exactly-correct answer, coverage-appropriate retrieval behavior (no web
search and the gold answer present in graph retrievals when the graph was
complete; a web search whose retrievals contain the gold answer when it was
not), and a plan quality judgment.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple

from .jsonio import post_json
from .plan import Ans, PlanError, expr_dependencies, parse_plan
from .qa import COVERAGE_CKG, COVERAGE_IKG, QAExample, build_prompt, display, gold_alias_sets
from .rewards import _concat_info, _covers, _f1
from .text import normalize
from .trajectory import (
    NEIGHBOR_INFORMATION,
    PLAN,
    WEB_INFORMATION,
    WEB_SEARCH,
    Trajectory,
    answer_items,
    retrieval_mask,
    validate_format,
)

FORMAT = "FORMAT"
ANSWER_CHECK = "ANSWER"
RETRIEVAL_CKG_WEB_PRESENT = "RETRIEVAL_CKG_WEB_PRESENT"
RETRIEVAL_CKG_GRAPH_MISS = "RETRIEVAL_CKG_GRAPH_MISS"
RETRIEVAL_IKG_WEB_ABSENT = "RETRIEVAL_IKG_WEB_ABSENT"
RETRIEVAL_IKG_WEB_MISS = "RETRIEVAL_IKG_WEB_MISS"
PLAN_JUDGE = "PLAN_JUDGE"


class JudgeError(RuntimeError):
    """Judge transport/protocol failure; the caller may retry. A failing
    judge never silently keeps a trajectory."""


class FilterVerdict(NamedTuple):
    keep: bool
    failed_checks: tuple[str, ...]


class Judge(ABC):
    """Scores a plan 1 (reasonable) or 0 (unreasonable) for a question."""

    @abstractmethod
    def score(self, example: QAExample, plan_text: str) -> int:
        raise NotImplementedError


class RuleJudge(Judge):
    """Dependency-free plan judge: the plan must parse, every topic entity of
    the question must appear as some retrieval head, and the final
    sub-question must be the sink (referenced by no other)."""

    def score(self, example: QAExample, plan_text: str) -> int:
        try:
            plan = parse_plan(plan_text)
        except PlanError:
            return 0
        heads = {
            normalize(display(sq.expr.head))
            for sq in plan.sub_questions
            if isinstance(sq.expr, Ans) and not sq.expr.head_is_ref
        }
        for topic in example.topic_entities:
            if normalize(display(topic)) not in heads:
                return 0
        final_id = plan.sub_questions[-1].id
        for sq in plan.sub_questions[:-1]:
            if final_id in expr_dependencies(sq.expr):
                return 0
        return 1


class RemoteJudge(Judge):
    """POST {"question": text, "plan": text} -> {"score": 0|1}."""

    def __init__(self, url: str, timeout: float = 60.0):
        self.url = url
        self.timeout = timeout

    def score(self, example: QAExample, plan_text: str) -> int:
        payload = {"question": example.question, "plan": plan_text}
        return _checked_score(post_json(self.url, payload, "score", self.timeout, JudgeError))


def _checked_score(score: object) -> int:
    """``score`` if it is the int 0 or 1; else :class:`JudgeError`. A bool or
    a float is refused although it compares equal to 0 or 1."""
    if type(score) is not int or score not in (0, 1):
        raise JudgeError(f"judge returned malformed score {score!r}, expected 0 or 1")
    return score


def judge_plan(example: QAExample, plan_text: str, judge: Judge) -> int:
    """Score a plan through the given judge, validating the {0, 1} contract."""
    return _checked_score(judge.score(example, plan_text))


def filter_trajectory(traj: Trajectory, example: QAExample, coverage: str, judge: Judge) -> FilterVerdict:
    """Run all filter checks and collect every failure. ANSWER needs an
    exact answer-set match: answer F1 of 1, as ``score_trajectory`` computes
    it.

    Under IKG, a missing web search fails RETRIEVAL_IKG_WEB_ABSENT while
    RETRIEVAL_IKG_WEB_MISS fires only when web retrievals exist but lack the
    gold answer, so the two codes identify distinct defects. The filter
    computes only the coverage its checks read (the graph's under CKG, the
    web's under IKG), not the scorer's full breakdown.
    """
    if coverage not in (COVERAGE_CKG, COVERAGE_IKG):
        raise ValueError(f"coverage label must be {COVERAGE_CKG!r} or {COVERAGE_IKG!r}, got {coverage!r}")
    failed: list[str] = []
    gold_sets = gold_alias_sets(example.answers)
    if validate_format(traj):
        failed.append(FORMAT)
    if _f1(set(answer_items(traj)), gold_sets) < 1.0:
        failed.append(ANSWER_CHECK)
    has_web = bool(traj.blocks(WEB_SEARCH))
    if coverage == COVERAGE_CKG:
        if has_web:
            failed.append(RETRIEVAL_CKG_WEB_PRESENT)
        if _covers(_concat_info(traj, NEIGHBOR_INFORMATION), gold_sets) == 0:
            failed.append(RETRIEVAL_CKG_GRAPH_MISS)
    else:
        if not has_web:
            failed.append(RETRIEVAL_IKG_WEB_ABSENT)
        elif _covers(_concat_info(traj, WEB_INFORMATION), gold_sets) == 0:
            failed.append(RETRIEVAL_IKG_WEB_MISS)
    plans = traj.blocks(PLAN)
    if not plans or judge_plan(example, plans[0].content, judge) == 0:
        failed.append(PLAN_JUDGE)
    return FilterVerdict(keep=not failed, failed_checks=tuple(failed))


def sft_record(example: QAExample, traj: Trajectory) -> dict:
    """Training record for a kept trajectory: the prompt, the full tagged
    completion, and the char spans an external trainer must exclude from the
    loss (tool-injected text the policy did not generate)."""
    return {
        "prompt": build_prompt(example),
        "completion": traj.raw,
        "masked_spans": [list(span) for span in retrieval_mask(traj)],
    }
