"""Bundled policies: a scripted oracle for fixtures and tests, and a client
for a remote chat-style generation endpoint."""

from __future__ import annotations

from .jsonio import post_json
from .kg import display, is_sentinel
from .plan import Ans, Plan, eval_expr, execution_order, parse_plan
from .qa import QAExample
from .rollout import FORCE_ANSWER_DIRECTIVE, STOP_TAGS, Policy, RolloutError
from .text import normalize
from .trajectory import (
    ANSWER,
    INFO_FOR,
    NEIGHBOR_SEARCH,
    PLAN,
    RELATION_SEARCH,
    THINK,
    WEB_SEARCH,
    ParseError,
    parse_trajectory,
)


def _block(tag: str, content: str) -> str:
    return f"<{tag}>{content}</{tag}>"


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
    the results.
    """

    def __init__(self) -> None:
        self._example: QAExample | None = None
        self._plan: Plan | None = None

    def reset(self, example: QAExample) -> None:
        if not example.plan:
            raise RolloutError(f"question {example.id!r} has no recorded plan for the scripted oracle")
        self._example = example
        self._plan = parse_plan(example.plan)
        self._order = execution_order(self._plan)
        self._plan_emitted = False
        self._qi = 0
        self._heads: list[str] = []
        self._heads_initialized = False
        self._accum: set[str] = set()
        self._bindings: dict[str, set[str]] = {}
        # Gold-path knowledge for web fallbacks: (head surface, relation) -> tails.
        self._gold: dict[tuple[str, str], set[str]] = {}
        for h, r, t in example.critical_triples:
            self._gold.setdefault((normalize(display(h)), r), set()).add(normalize(display(t)))
        # (pending kind, head, relation) awaiting the injected information block.
        self._pending: tuple[str, str, str] | None = None
        self._done = False

    def next_segment(self, conversation: str) -> str:
        assert self._example is not None and self._plan is not None, "reset() first"
        if conversation.rstrip().endswith(FORCE_ANSWER_DIRECTIVE):
            return _block(ANSWER, self._forced_answer())
        if self._done:
            return ""
        if not self._plan_emitted:
            self._plan_emitted = True
            return _block(THINK, "Decompose the question and schedule retrieval.") + "\n" + _block(PLAN, self._example.plan)
        if self._pending is not None:
            emission = self._consume_information(conversation)
            if emission is not None:
                return emission
        return self._advance()

    # -- internals ---------------------------------------------------------

    def _consume_information(self, conversation: str) -> str | None:
        """React to the information block injected after our last search;
        returns the next emission when it follows directly (e.g. the
        neighbor search after picking a relation), else None to advance.

        Only the block the engine just appended is read: the conversation
        from the last opening tag of the information kind answering the
        pending search. Its content is "" when that block is missing or
        does not parse. The prompt and earlier blocks are never re-read, so
        a step costs the same however long the conversation is."""
        kind, head, relation = self._pending  # type: ignore[misc]
        start = conversation.rfind(f"<{INFO_FOR[kind]}>")
        try:
            steps = parse_trajectory(conversation[start:]).steps if start >= 0 else ()
        except ParseError:
            steps = ()
        last = steps[-1].content if steps else ""
        if kind == RELATION_SEARCH:
            # Prefer the candidate matching the recorded hypothesis (keeps
            # canonical casing); a missing hypothesis means the graph lost
            # this hop, so keep it anyway and let the sentinel trigger web.
            candidates = [c.strip() for c in last.split(",") if c.strip()]
            chosen = next((c for c in candidates if normalize(c) == normalize(relation)), relation)
            self._pending = (NEIGHBOR_SEARCH, head, chosen)
            return _block(NEIGHBOR_SEARCH, f"{head} | {chosen}")
        if kind == NEIGHBOR_SEARCH:
            if is_sentinel(last):
                self._pending = (WEB_SEARCH, head, relation)
                return _block(WEB_SEARCH, f"{head} | {relation}")
            self._accum |= {normalize(part) for part in last.split(";") if normalize(part)}
            self._pending = None
            return None
        # Web results arrived; bind the recorded gold tails for this hop.
        self._accum |= self._gold.get((normalize(head), relation), set())
        self._pending = None
        return None

    def _advance(self) -> str:
        plan = self._plan
        assert plan is not None
        while self._qi < len(self._order):
            sub = plan.by_id(self._order[self._qi])
            expr = sub.expr
            if not isinstance(expr, Ans):
                self._bindings[sub.id] = eval_expr(expr, self._bindings)
                self._qi += 1
                continue
            if not self._heads_initialized:
                self._heads = [expr.head] if not expr.head_is_ref else sorted(self._bindings.get(expr.head, set()))
                self._accum = set()
                self._heads_initialized = True
            if self._heads:
                head = self._heads.pop(0)
                self._pending = (RELATION_SEARCH, head, expr.relation_hypothesis)
                return _block(RELATION_SEARCH, f"{head} | {expr.relation_hypothesis}")
            self._bindings[sub.id] = set(self._accum)
            self._accum = set()
            self._heads_initialized = False
            self._qi += 1
        self._done = True
        final_id = plan.sub_questions[-1].id
        answers = sorted(self._bindings.get(final_id, set()))
        return _block(ANSWER, "; ".join(answers))

    def _forced_answer(self) -> str:
        assert self._example is not None
        return "; ".join(aliases[0] for aliases in self._example.answers if aliases)


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
