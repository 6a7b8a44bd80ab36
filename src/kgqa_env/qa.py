"""Question/answer records, their JSON-lines file format, and the prompt
that shows a question to the policy."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .jsonio import json_id, json_list, json_text, read_jsonl
from .kg import SENTINEL, Triple
from .text import _STRIP_CHARS

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


@dataclass(frozen=True)
class QAExample:
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
            critical_triples=tuple(Triple(*(json_text(x, "critical_triples") for x in json_list(t, "critical_triples")))
                                   for t in triples),
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
