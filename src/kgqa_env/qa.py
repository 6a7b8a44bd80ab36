"""Question/answer records and their JSON-lines file format."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .jsonio import json_list, read_jsonl
from .kg import Triple
from .text import _STRIP_CHARS


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
    plus an optional "plan" (text or null).

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
            id=str(rec["id"]),
            question=str(rec["question"]),
            topic_entities=tuple(str(e) for e in json_list(rec["topic_entities"], "topic_entities")),
            answers=tuple(tuple(str(a) for a in json_list(s, "answers")) for s in json_list(rec["answers"], "answers")),
            critical_triples=tuple(Triple(*(str(x) for x in json_list(t, "critical_triples"))) for t in triples),
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

