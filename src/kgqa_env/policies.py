"""Bundled policies: a scripted oracle for fixtures and tests, and a client
for a remote chat-style generation endpoint."""

from __future__ import annotations

from typing import Generator, Mapping

from .jsonio import post_json
from .kg import is_sentinel
from .plan import Ans, eval_expr, parse_plan
from .qa import QAExample, gold_tails
from .rollout import FORCE_ANSWER_DIRECTIVE, STOP_TAGS, Policy, RolloutError
from .text import normalize
from .trajectory import (
    ANSWER,
    NEIGHBOR_INFORMATION,
    NEIGHBOR_SEARCH,
    PLAN,
    RELATION_INFORMATION,
    RELATION_SEARCH,
    THINK,
    WEB_SEARCH,
    ParseError,
    parse_trajectory,
    render_block,
)


class ScriptedOracle(Policy):
    """Follows the per-question recorded plan from the QA file, resolving
    each sub-question through the full relation-search / neighbor-search
    protocol and falling back to web search exactly when the graph returns
    the no-information sentinel.

    On a web fallback the oracle binds the expected tails from the recorded
    critical triples (it is an oracle), so missing graph coverage never
    derails the scripted path. Set-algebra sub-questions are evaluated
    internally without tool calls. When a head reference is bound to several
    answers, the oracle fans out one tool-call chain per answer and unions
    the results. The plan runs as one generator, :func:`_script`; the
    forced-answer directive is answered here, without resuming it.
    """

    def __init__(self) -> None:
        self._example: QAExample | None = None
        self._script: Generator[str, str, None] | None = None

    def reset(self, example: QAExample) -> None:
        if not example.plan:
            raise RolloutError(f"question {example.id!r} has no recorded plan for the scripted oracle")
        self._example = example
        self._script = _script(example)
        next(self._script)  # runs the set-up, so a bad plan raises PlanError here

    def next_segment(self, conversation: str) -> str:
        assert self._example is not None and self._script is not None, "reset() first"
        if conversation.rstrip().endswith(FORCE_ANSWER_DIRECTIVE):
            return render_block(ANSWER, "; ".join(aliases[0] for aliases in self._example.answers if aliases))
        try:
            return self._script.send(conversation)
        except StopIteration:
            return ""


def _script(example: QAExample) -> Generator[str, str, None]:
    """Run ``example``'s recorded plan in ``Plan.order``, the execution
    order :func:`parse_plan` stored: a set operation is evaluated on the
    spot, and an ``Ans`` runs one tool-call chain per head. Each ``yield``
    emits one segment and receives the conversation the engine shows next;
    the first ``next`` runs the set-up and stops before the first emission.

    A seeded deviation of a perturbed oracle would replace or skip the
    ``yield`` it perturbs. A partial-hop fallback would go where the
    neighbor tails are read: when they miss a gold tail of the hop, search
    the web as on the sentinel and bind the gold tails.
    """
    plan = parse_plan(example.plan)
    exprs = {sq.id: sq.expr for sq in plan.sub_questions}
    gold: Mapping[tuple[str, str], frozenset[str]] | None = None  # read at the first web fallback
    bindings: dict[str, set[str]] = {}
    yield ""  # primed: reset() returns here
    yield (render_block(THINK, "Decompose the question and schedule retrieval.")
           + "\n" + render_block(PLAN, example.plan))
    for sq_id in plan.order:
        expr = exprs[sq_id]
        if not isinstance(expr, Ans):
            bindings[sq_id] = eval_expr(expr, bindings)
            continue
        hypothesis = expr.relation_hypothesis
        wanted = normalize(hypothesis)
        tails: set[str] = set()
        for head in sorted(bindings[expr.head]) if expr.head_is_ref else [expr.head]:
            conversation = yield render_block(RELATION_SEARCH, f"{head} | {hypothesis}")
            # Prefer the candidate matching the recorded hypothesis (keeps
            # canonical casing); a missing hypothesis means the graph lost
            # this hop, so keep it anyway and let the sentinel trigger web.
            candidates = [c.strip() for c in _last_block(conversation, RELATION_INFORMATION).split(",") if c.strip()]
            relation = next((c for c in candidates if normalize(c) == wanted), hypothesis)
            conversation = yield render_block(NEIGHBOR_SEARCH, f"{head} | {relation}")
            found = _last_block(conversation, NEIGHBOR_INFORMATION)
            if is_sentinel(found):
                yield render_block(WEB_SEARCH, f"{head} | {relation}")
                if gold is None:
                    gold = gold_tails(example.critical_triples)
                tails |= gold.get((normalize(head), relation), frozenset())
            else:
                tails |= {normalize(part) for part in found.split(";")} - {""}
        bindings[sq_id] = tails
    yield render_block(ANSWER, "; ".join(sorted(bindings[plan.sub_questions[-1].id])))


def _last_block(conversation: str, tag: str) -> str:
    """Content of the conversation's last step, parsed from the last
    opening ``tag`` on; "" when there is no such tag or the rest does not
    parse. The prompt and earlier blocks are never re-read, so a step costs
    the same however long the conversation is."""
    start = conversation.rfind(f"<{tag}>")
    try:
        steps = parse_trajectory(conversation[start:]).steps if start >= 0 else ()
    except ParseError:
        steps = ()
    return steps[-1].content if steps else ""


class RemotePolicy(Policy):
    """Client for a chat-style generation server:
    POST {"conversation": text, "stop_tags": [closing tags]} -> {"segment": text}."""

    def __init__(self, url: str, timeout: float = 120.0):
        self.url = url
        self.timeout = timeout

    def reset(self, example: QAExample) -> None:  # stateless server: prompt carries the question
        pass

    def next_segment(self, conversation: str) -> str:
        payload = {"conversation": conversation, "stop_tags": STOP_TAGS}
        segment = post_json(self.url, payload, "segment", self.timeout, RolloutError)
        if not isinstance(segment, str):
            raise RolloutError(f"POST to {self.url} failed: 'segment' is not a string: {segment!r}")
        return segment
