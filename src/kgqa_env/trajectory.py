"""Tag-structured trajectory grammar: parse, validate, render, and mask.

A trajectory is a flat sequence of ``<tag>content</tag>`` blocks drawn from a
closed vocabulary; no nesting, no attributes. Text found outside any block is
kept as think content (LLM output drifts). Parsing rejects text that breaks
the grammar; validation reports, as a tuple of codes, the format rules a
parsed trajectory breaks. All operations here are pure functions over
immutable values.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import Iterable, NamedTuple

from .jsonio import json_id, read_jsonl, write_jsonl
from .text import normalize

THINK = "think"
PLAN = "plan"
RELATION_SEARCH = "relation_search"
RELATION_INFORMATION = "relation_information"
NEIGHBOR_SEARCH = "neighbor_search"
NEIGHBOR_INFORMATION = "neighbor_information"
WEB_SEARCH = "web_search"
WEB_INFORMATION = "web_information"
ANSWER = "answer"

#: Closed tag vocabulary: the action set plus the three injected information tags.
TAGS = frozenset({
    THINK, PLAN, RELATION_SEARCH, RELATION_INFORMATION, NEIGHBOR_SEARCH,
    NEIGHBOR_INFORMATION, WEB_SEARCH, WEB_INFORMATION, ANSWER,
})
SEARCH_TAGS = frozenset({RELATION_SEARCH, NEIGHBOR_SEARCH, WEB_SEARCH})
INFO_TAGS = frozenset({RELATION_INFORMATION, NEIGHBOR_INFORMATION, WEB_INFORMATION})
#: Search tag -> the information tag the engine injects for it.
INFO_FOR = {
    RELATION_SEARCH: RELATION_INFORMATION,
    NEIGHBOR_SEARCH: NEIGHBOR_INFORMATION,
    WEB_SEARCH: WEB_INFORMATION,
}
SEARCH_FOR = {info: search for search, info in INFO_FOR.items()}

# Format violation codes
PLAN_COUNT = "PLAN_COUNT"
PLAN_NOT_FIRST_ACTION = "PLAN_NOT_FIRST_ACTION"
ANSWER_COUNT = "ANSWER_COUNT"
ORPHAN_INFO = "ORPHAN_INFO"

_TAG_RE = re.compile(r"</?([A-Za-z_][A-Za-z0-9_]*)>")
_INFO_BLOCK_RE = re.compile(rf"<({'|'.join(sorted(INFO_TAGS))})>.*?</\1>", re.DOTALL)


class ParseError(ValueError):
    """Trajectory text violating the tag grammar; carries a char offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class Step(NamedTuple):
    """One tagged block: its tag and the text between its delimiters."""

    tag: str
    content: str


class Trajectory(NamedTuple):
    question_id: str
    steps: tuple[Step, ...]
    raw: str

    @property
    def step_signature(self) -> list[tuple[str, str]]:
        """(tag, content) pairs; the identity used by round-trip checks."""
        return [(s.tag, s.content) for s in self.steps]

    def blocks(self, tag: str) -> list[Step]:
        return [s for s in self.steps if s.tag == tag]


def parse_trajectory(text: str, question_id: str = "") -> Trajectory:
    """Segment tagged text into steps, in source order.

    Bare text between blocks becomes a think step, stripped (skipped when
    whitespace-only). Unknown tags, nested tags, unclosed tags and stray
    closing tags all raise :class:`ParseError` with the offending offset.
    """
    steps: list[Step] = []
    pos = 0
    open_tag: str | None = None
    content_start = 0
    open_offset = 0

    def adopt_bare(chunk: str) -> None:
        stripped = chunk.strip()
        if stripped:
            steps.append(Step(THINK, stripped))

    for m in _TAG_RE.finditer(text):
        name = m.group(1)
        closing = m.group(0).startswith("</")
        if open_tag is None:
            if closing:
                raise ParseError(f"closing tag </{name}> without matching opening tag", m.start())
            if name not in TAGS:
                raise ParseError(f"unknown tag <{name}>: only the defined tag vocabulary is allowed", m.start())
            adopt_bare(text[pos:m.start()])
            open_tag = name
            open_offset = m.start()
            content_start = m.end()
        else:
            if not closing:
                raise ParseError(f"nested tag <{name}> inside <{open_tag}> block", m.start())
            if name != open_tag:
                raise ParseError(f"closing tag </{name}> does not match open <{open_tag}> block", m.start())
            steps.append(Step(open_tag, text[content_start:m.start()]))
            open_tag = None
            pos = m.end()
    if open_tag is not None:
        raise ParseError(f"unclosed <{open_tag}> block", open_offset)
    adopt_bare(text[pos:])
    return Trajectory(question_id, tuple(steps), text)


def neutralize_tags(text: str) -> str:
    """``text`` with the ``<`` of every tag-like token (``<x>``, ``</x>``)
    written as ``&lt;``, so that inside a block it parses as plain content.
    Text without ``<`` is returned unchanged."""
    if "<" not in text:
        return text
    return _TAG_RE.sub(lambda m: "&lt;" + m.group(0)[1:], text)


def render_block(tag: str, content: str) -> str:
    """One ``<tag>content</tag>`` block, the delimiters the grammar parses."""
    return f"<{tag}>{content}</{tag}>"


def validate_format(traj: Trajectory) -> tuple[str, ...]:
    """The format rules ``traj`` breaks, as codes in rule order:
    PLAN_COUNT (not exactly one plan block), PLAN_NOT_FIRST_ACTION (a search
    block before the first plan), ANSWER_COUNT (not a single answer block as
    the final step), then ORPHAN_INFO once per information block not right
    after its search block. An empty result gates the accuracy reward."""
    tags = [s.tag for s in traj.steps]
    codes = []
    if tags.count(PLAN) != 1:
        codes.append(PLAN_COUNT)
    if PLAN in tags and not SEARCH_TAGS.isdisjoint(tags[:tags.index(PLAN)]):
        codes.append(PLAN_NOT_FIRST_ACTION)
    if tags.count(ANSWER) != 1 or tags[-1] != ANSWER:
        codes.append(ANSWER_COUNT)
    codes.extend(
        ORPHAN_INFO for i, tag in enumerate(tags)
        if tag in INFO_TAGS and (i == 0 or tags[i - 1] != SEARCH_FOR[tag])
    )
    return tuple(codes)


def retrieval_mask(traj: Trajectory) -> list[tuple[int, int]]:
    """Char spans in ``traj.raw`` of every information block (content plus
    delimiters), disjoint and sorted. These spans are excluded from the
    training loss: the policy did not generate the retrieved text, because
    ``run_rollout`` drops any policy segment that holds an information
    block, so every one it returns was injected by the engine. Exact on any
    text that parses, because no block holds a tag."""
    return [m.span() for m in _INFO_BLOCK_RE.finditer(traj.raw)]


def answer_items(traj: Trajectory) -> list[str]:
    """Ordered, normalized answer items from the last answer block, split on
    ';' or '|'; empty when there is no answer block."""
    answers = traj.blocks(ANSWER)
    if not answers:
        return []
    items = [normalize(part) for part in re.split(r"[;|]", answers[-1].content)]
    return [it for it in items if it]


def read_trajectories(path: str | Path) -> list[Trajectory]:
    """Read a JSON-lines trajectory file ({"id", "text"}) and parse each
    line. An id is read as text (a number as its digits); one that is
    neither is an error naming the file and line."""
    return list(read_jsonl(path, ValueError, "trajectory record",
                           lambda rec: parse_trajectory(rec["text"], question_id=json_id(rec["id"], "id"))))


def write_trajectories(trajs: Iterable[Trajectory], path: str | Path) -> None:
    write_jsonl(({"id": t.question_id, "text": t.raw} for t in trajs), path)


def write_masks(trajs: Iterable[Trajectory], path: str | Path) -> None:
    """Write a JSON-lines mask file ({"id", "masked_spans": [[start, end], ...]})."""
    records = ({"id": t.question_id, "masked_spans": [list(span) for span in retrieval_mask(t)]} for t in trajs)
    write_jsonl(records, path)
