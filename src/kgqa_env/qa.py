"""Question/answer records, their JSON-lines file format, and the prompt
that shows a question to the policy.

Also each question's gold view: :func:`gold_alias_sets`, which the scorer,
the filter and the evaluator read, and :func:`gold_tails`, which the
scripted oracle's web fallback reads. And the vocabulary that the graph
module shares with the commands that load no graph: :class:`Triple`,
:func:`display`, :class:`KGError`, the no-information :data:`SENTINEL`, the
CKG/IKG coverage labels, and the removal log that
:func:`kgqa_env.kg.sample_ikg` writes and ``score`` and ``filter-sft`` read.
``kgqa_env.kg`` re-exports each of these names, so the graph's callers find
them there too; this module imports no graph.
"""

from __future__ import annotations

from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, TypeVar

from .jsonio import json_id, json_list, json_text, read_jsonl, write_jsonl
from .text import _STRIP_CHARS, normalize

SENTINEL = "No information in KG, please use web tool."

COVERAGE_CKG = "CKG"
COVERAGE_IKG = "IKG"

#: Questions whose gold view one process keeps, the least recently used
#: dropped first: one training batch of questions, so each of a question's
#: G samples, and its score and its filter, read what its first one built.
GOLD_CACHE_SIZE = 1024
_BLANK = frozenset(("",))
_V = TypeVar("_V")

# Tag names are spelled without angle brackets here so the full conversation
# (prompt plus generated text) stays parseable by the trajectory grammar.
PROMPT_TEMPLATE = """You answer questions by reasoning over a knowledge graph with web fallback.
Use only these XML-style tag blocks: think, plan, relation_search, neighbor_search,
web_search, answer. Emit exactly one plan block listing sub-questions as
'ID: Ans(type | relation(head, ?))' lines, combined with inter/union/negation over
earlier ids. Resolve each sub-question with a relation_search then a neighbor_search
tool call whose content is 'head | relation'. If the graph answers "{sentinel}",
issue a web_search for the same 'head | relation'. Tool results arrive in matching
relation_information / neighbor_information / web_information blocks. Finish with a
single answer block, items separated by '; '.

Question: {question}
Topic entities: {topics}
"""


class QAError(Exception):
    """Raised for malformed QA files."""


class KGError(Exception):
    """Raised for malformed graph, alias and removal-log files and invalid
    sampling input."""


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


def _triple(value: object, field: str) -> Triple:
    """``value`` as a :class:`Triple` if it is a JSON array of three
    strings; else ``ValueError`` naming ``field`` and the value, which the
    file's reader reports with the file and line."""
    members = [json_text(x, field) for x in json_list(value, field)]
    if len(members) != 3:
        raise ValueError(f"{field!r} entry must be [head, relation, tail], got {value!r}")
    return Triple(*members)


def display(entity: str) -> str:
    """Human-readable surface form of an entity identifier."""
    return entity.replace("_", " ")


class QAExample(NamedTuple):
    """One question with topic entities, gold answers (a list of alias sets,
    one per distinct gold answer) and the critical triples of its gold
    reasoning path. ``plan`` is an optional recorded decomposition used by
    the scripted oracle policy."""

    id: str
    question: str
    topic_entities: tuple[str, ...]
    answers: tuple[tuple[str, ...], ...]
    critical_triples: tuple[Triple, ...] = ()
    plan: str | None = None


def gold_alias_sets(answers: Sequence[Sequence[str]]) -> tuple[frozenset[str], ...]:
    """Each gold answer's normalized, non-empty aliases, in ``answers``'
    order. Memoized by value (see :func:`_by_value`)."""
    return _by_value(_gold_alias_sets, answers)


def gold_tails(critical_triples: Sequence[Sequence[str]]) -> Mapping[tuple[str, str], frozenset[str]]:
    """The gold path's tails for web fallbacks, read-only: (normalized
    surface of the head, relation) -> the normalized surfaces of its tails.
    Memoized by value (see :func:`_by_value`)."""
    return _by_value(_gold_tail_map, critical_triples)


def _by_value(build: Callable[[tuple], _V], rows: Sequence[Sequence[str]]) -> _V:
    """``build(rows)`` from its ``lru_cache``, built once per process for
    each distinct value of ``rows`` (:data:`GOLD_CACHE_SIZE` of them at a
    time): equal golds share one entry, and a miss recomputes, so eviction
    never changes a result. A list works as well as the tuples
    :func:`load_qa` gives, at the price of one copy per call."""
    try:
        return build(rows)
    except TypeError:  # a list somewhere, which no cache key can hold
        return build(tuple(map(tuple, rows)))


@lru_cache(maxsize=GOLD_CACHE_SIZE)
def _gold_alias_sets(answers: tuple[tuple[str, ...], ...]) -> tuple[frozenset[str], ...]:
    return tuple(frozenset(map(normalize, aliases)) - _BLANK for aliases in answers)


@lru_cache(maxsize=GOLD_CACHE_SIZE)
def _gold_tail_map(triples: tuple[Triple, ...]) -> Mapping[tuple[str, str], frozenset[str]]:
    gold: dict[tuple[str, str], set[str]] = {}
    for h, r, t in triples:
        gold.setdefault((normalize(display(h)), r), set()).add(normalize(display(t)))
    return MappingProxyType({key: frozenset(tails) for key, tails in gold.items()})


def load_qa(path: str | Path) -> list[QAExample]:
    """Load a JSON-lines QA file. Each line carries
    {"id", "question", "topic_entities", "answers", "critical_triples"}
    plus an optional "plan" (text or null). The id is read as text (a number
    as its digits); an id that is neither, and a question, topic entity,
    alias or triple member that is not a string, is a :class:`QAError`
    naming the file and line.

    A question without gold answers, or with a gold answer whose every
    alias is blank or punctuation only, is a :class:`QAError` naming the
    file and line: no trajectory could score answer F1 1 on it."""
    seen: set[str] = set()

    def example(rec: dict) -> QAExample:
        triples = json_list(rec.get("critical_triples", []), "critical_triples")
        plan = rec.get("plan")
        if plan is not None and not isinstance(plan, str):
            raise ValueError(f"'plan' must be text or null, got {plan!r}")
        ex = QAExample(
            id=json_id(rec["id"], "id"),
            question=json_text(rec["question"], "question"),
            topic_entities=tuple(json_text(e, "topic_entities")
                                 for e in json_list(rec["topic_entities"], "topic_entities")),
            answers=tuple(tuple(json_text(a, "answers") for a in json_list(s, "answers"))
                          for s in json_list(rec["answers"], "answers")),
            critical_triples=tuple(_triple(t, "critical_triples") for t in triples),
            plan=plan,
        )
        if not ex.answers:
            raise ValueError("'answers' is empty")
        for aliases in ex.answers:
            if not any(a.strip(_STRIP_CHARS) for a in aliases):
                raise ValueError(f"gold answer {list(aliases)!r} has no alias that is not blank or punctuation")
        if ex.id in seen:
            raise ValueError(f"duplicate question id {ex.id!r}")
        seen.add(ex.id)
        return ex

    return list(read_jsonl(path, QAError, "QA record", example))


def build_prompt(example: QAExample) -> str:
    """Instruction-plus-question prompt shown to the policy (and recorded as
    the prompt field of SFT emissions)."""
    topics = ", ".join(example.topic_entities) or "none"
    return PROMPT_TEMPLATE.format(sentinel=SENTINEL, question=example.question, topics=topics)


def _coverage(removed: Sequence[Triple]) -> str:
    return COVERAGE_IKG if removed else COVERAGE_CKG


class RemovalLog(NamedTuple):
    """Per-question record of removed critical triples. Only the removals
    are stored; :attr:`coverage` derives each question's label from them."""

    entries: dict[str, list[Triple]]

    @property
    def coverage(self) -> dict[str, str]:
        """Question id -> IKG if anything was removed for it, else CKG."""
        return {qid: _coverage(removed) for qid, removed in self.entries.items()}


def write_removal_log(log: RemovalLog, path: str | Path) -> None:
    """Write a removal log as JSON-lines {"id", "removed", "coverage"}."""
    write_jsonl(({"id": qid, "removed": [list(t) for t in removed], "coverage": _coverage(removed)}
                 for qid, removed in log.entries.items()), path)


def read_removal_log(path: str | Path) -> RemovalLog:
    """Read a JSON-lines removal log. Ids are read as text (a number as its
    digits), as in the QA and trajectory files; an id may appear once, each
    removed triple holds three strings, and a coverage label must agree with
    the record's removals, else :class:`KGError` names the file and line."""
    seen: set[str] = set()

    def record(rec: dict) -> tuple[str, list[Triple]]:
        qid = json_id(rec["id"], "id")
        if qid in seen:
            raise ValueError(f"duplicate question id {qid!r}")
        seen.add(qid)
        label = rec["coverage"]
        if label not in (COVERAGE_CKG, COVERAGE_IKG):
            raise ValueError(f"unknown coverage label {label!r}")
        removed = [_triple(t, "removed") for t in json_list(rec["removed"], "removed")]
        if label != _coverage(removed):
            raise ValueError(f"coverage label {label!r} disagrees with {len(removed)} removed triples")
        return qid, removed

    return RemovalLog(dict(read_jsonl(path, KGError, "removal-log record", record)))
