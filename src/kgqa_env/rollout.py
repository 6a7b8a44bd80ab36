"""Rollout engine: drive the interleaved generate-retrieve loop.

The engine repeatedly asks the policy for the next segment (text ending at a
closing action delimiter), executes search actions against the knowledge
graph or web tool, injects the matching information block, and terminates on
an answer block, or on a second plan block or when the tool-call budget runs
out, at which point the policy is directed to answer from its own knowledge.
A rollout therefore asks the policy for at most ``max_iterations + 3``
segments, whatever it emits.

Each segment is parsed once, on its own, so a step costs the same however
long the trajectory has grown. This is exact: the text assembled so far is
empty or ends at a closing tag (a segment is cut at the closing delimiter of
its action, and injected information blocks are closed and never contain
tag-like text), so the grammar starts afresh where the new piece begins and
no tag can span the boundary. The piece parses to the steps a parse of the
whole text would end with, and fails exactly when that parse would, so the
steps the engine collects are the steps of the returned text.

Distinct rollouts may run concurrently: they share only the immutable graph
and a web tool that tolerates concurrent queries; policy and conversation
state are per-rollout.
"""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from .kg import KnowledgeGraph
from .qa import QAExample, build_prompt
from .text import normalize
from .trajectory import (
    ANSWER,
    INFO_FOR,
    INFO_TAGS,
    NEIGHBOR_SEARCH,
    PLAN,
    RELATION_SEARCH,
    SEARCH_TAGS,
    ParseError,
    Step,
    Trajectory,
    neutralize_tags,
    parse_trajectory,
    render_block,
)
from .web import WebTool, WebToolError

#: Appended verbatim to the conversation when the iteration limit is reached.
FORCE_ANSWER_DIRECTIVE = (
    "Iteration limit reached. Provide your final answer now inside "
    "<answer></answer> using your own knowledge."
)
#: In-band content of an information block for an unusable tool call.
MALFORMED_TOOL_CALL = "malformed tool call"
#: In-band content of a web_information block when the web backend fails.
WEB_UNAVAILABLE = "web tool unavailable"
#: Snippets a web_search returns (a relation_search lists kg.TOP_K_RELATIONS).
TOP_K_DOCS = 3

#: Closing delimiters at which policy segments end.
STOP_TAGS = [f"</{t}>" for t in (PLAN, *sorted(SEARCH_TAGS), ANSWER)]
# No closer is a prefix of another, so the first match is the first closer.
_STOP = re.compile("|".join(map(re.escape, STOP_TAGS)))


class RolloutError(RuntimeError):
    """Rollout aborted before it began or by its policy: the scripted oracle
    has no plan for the question, or the policy backend failed."""


class Policy(ABC):
    """Generates trajectory segments. ``next_segment`` receives the running
    conversation (prompt plus everything generated or injected so far) and
    returns text ending at one of :data:`STOP_TAGS` or at end of output."""

    @abstractmethod
    def reset(self, example: QAExample) -> None:
        raise NotImplementedError

    @abstractmethod
    def next_segment(self, conversation: str) -> str:
        raise NotImplementedError


class RolloutConfig:
    """The tool-call budget of a rollout; at least 1, else ``ValueError``."""

    __slots__ = ("max_iterations",)

    def __init__(self, max_iterations: int = 10) -> None:
        if max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
        self.max_iterations = max_iterations


def _cut_at_action(segment: str) -> tuple[str, str | None]:
    """Truncate a segment at the first closing action delimiter; returns the
    kept piece and the action tag that closed it (None at end of output)."""
    stop = _STOP.search(segment)
    if stop is None:
        return segment, None
    return segment[: stop.end()], stop.group()[2:-1]


def dispatch_action(step: Step, kg: KnowledgeGraph, web: WebTool) -> Step:
    """Execute one search step and return its information block. Malformed
    calls and :class:`WebToolError` (a web backend's transport or protocol
    failure) produce in-band content the policy can react to; any other
    exception from a tool is a programming error and propagates. Tag-like
    text in tool output is neutralized, so the block always parses back as
    exactly one information step."""
    if step.tag not in SEARCH_TAGS:
        raise ValueError(f"dispatch_action expects a search step, got <{step.tag}>")
    return Step(INFO_FOR[step.tag], neutralize_tags(_tool_output(step, kg, web)))


def _tool_output(step: Step, kg: KnowledgeGraph, web: WebTool) -> str:
    head, sep, relation = step.content.partition("|")
    head, relation = head.strip(), relation.strip()
    if not sep or not head or not relation:
        return MALFORMED_TOOL_CALL
    if step.tag == RELATION_SEARCH:
        entity = kg.resolve_entity(head) or head
        return ", ".join(kg.relation_search(entity, relation))
    if step.tag == NEIGHBOR_SEARCH:
        entity = kg.resolve_entity(head) or head
        payload = kg.neighbor_search(entity, relation)
        return payload if isinstance(payload, str) else "; ".join(sorted(payload))
    query = normalize(f"{head} {relation}")
    try:
        snippets = web.search(query, TOP_K_DOCS)
    except WebToolError:
        return WEB_UNAVAILABLE
    return "\n".join(snippets)


def force_final_answer(policy: Policy, conversation: str) -> Step:
    """Append the forced-answer directive, request one final segment, and
    accept only its answer block; degenerate output yields an empty answer
    (scored zero downstream)."""
    segment = policy.next_segment(conversation + "\n" + FORCE_ANSWER_DIRECTIVE + "\n")
    try:
        parsed = parse_trajectory(segment)
    except ParseError:
        return Step(ANSWER, "")
    return next((s for s in parsed.steps if s.tag == ANSWER), Step(ANSWER, ""))


def run_rollout(
    policy: Policy,
    kg: KnowledgeGraph,
    web: WebTool,
    example: QAExample,
    cfg: RolloutConfig | None = None,
) -> Trajectory:
    """Run one full question rollout and return the parsed trajectory.

    The returned trajectory contains only generated and injected blocks; the
    instruction prompt is shown to the policy but kept out of the trajectory
    text. An unparseable policy segment, or one that holds an information
    block, is dropped and the policy is directed to answer immediately; the
    format reward scores what is left. So every information block in the
    trajectory was injected by the engine.
    """
    cfg = cfg or RolloutConfig()
    prompt = build_prompt(example)
    policy.reset(example)
    text = ""
    steps: list[Step] = []
    iterations = 0
    answered = planned = False

    while True:
        segment = policy.next_segment(prompt + text)
        piece, action = _cut_at_action(segment)
        if action is None and not piece.strip():
            break
        try:
            parsed = parse_trajectory(piece)
        except ParseError:
            break  # drop the segment, direct an immediate answer
        if any(step.tag in INFO_TAGS for step in parsed.steps):
            break  # only the engine writes information blocks: drop it too
        text += piece
        steps.extend(parsed.steps)
        if action is None:
            # End of output without an action: keep the parseable trailing
            # text (e.g. a think block) and fall through to the forced answer.
            break
        if action == ANSWER:
            answered = True
            break
        if action == PLAN:
            if planned:
                break  # a second plan: stop, the forced answer follows
            planned = True
            continue
        info = dispatch_action(parsed.steps[-1], kg, web)
        text += "\n" + render_block(info.tag, info.content)
        steps.append(info)
        iterations += 1
        if iterations >= cfg.max_iterations:
            break

    if not answered:
        answer = force_final_answer(policy, prompt + text)
        text += ("\n" if text else "") + render_block(answer.tag, answer.content)
        steps.append(answer)
    return Trajectory(example.id, tuple(steps), text)
