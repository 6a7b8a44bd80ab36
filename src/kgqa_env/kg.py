"""Indexed triple store: loading, the two KG lookup tools, and sampling of
incomplete-graph variants with a per-question removal log.

A :class:`KnowledgeGraph` is immutable after construction and safe to share
across concurrent rollouts; :func:`sample_ikg` always returns a fresh graph.
"""

from __future__ import annotations

import functools
import gc
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, TypeVar

from .jsonio import json_list, read_jsonl, write_jsonl
from .text import levenshtein, normalize, token_jaccard, word_tokens

if TYPE_CHECKING:  # pragma: no cover
    from .qa import QAExample

SENTINEL = "No information in KG, please use web tool."
#: Alternate phrasing produced by some generators; accepted on input.
SENTINEL_VARIANT = "No information in the KG, please use web tool."

_SENTINEL_FORMS = frozenset({normalize(SENTINEL), normalize(SENTINEL_VARIANT)})

COVERAGE_CKG = "CKG"
COVERAGE_IKG = "IKG"

_F = TypeVar("_F", bound=Callable)


class KGError(Exception):
    """Raised for malformed graph/alias files and invalid sampling input."""


class Triple(NamedTuple):
    head: str
    relation: str
    tail: str


def display(entity: str) -> str:
    """Human-readable surface form of an entity identifier."""
    return entity.replace("_", " ")


def is_sentinel(text: str) -> bool:
    """True for the no-information marker, in either known phrasing."""
    return normalize(text) in _SENTINEL_FORMS


def gc_paused(loader: _F) -> _F:
    """Run ``loader`` with the cyclic garbage collector paused.

    A bulk loader allocates index containers by the hundred thousand, and
    each batch of them starts a collection that walks everything allocated
    so far: the graph under construction and any graph loaded before it.
    None of it is garbage, so those passes only cost time (seconds on a
    graph of 10^5 triples). The caller's collector state is restored on
    return and on error; a caller that had paused it keeps it paused.
    """
    @functools.wraps(loader)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            return loader(*args, **kwargs)
        finally:
            if was_enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


def _build_indices(
    triples: Iterable[Triple],
) -> tuple[dict[str, frozenset[str]], dict[tuple[str, str], frozenset[str]], frozenset[str]]:
    """Derive (head index, pair index, relation vocabulary) from a triple set."""
    head_sets: dict[str, set[str]] = {}
    pair_sets: dict[tuple[str, str], set[str]] = {}
    relations: set[str] = set()
    for t in triples:
        head_sets.setdefault(t.head, set()).add(t.relation)
        pair_sets.setdefault((t.head, t.relation), set()).add(t.tail)
        relations.add(t.relation)
    head_index = {h: frozenset(rs) for h, rs in head_sets.items()}
    pair_index = {hr: frozenset(ts) for hr, ts in pair_sets.items()}
    return head_index, pair_index, frozenset(relations)


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable, fully indexed triple store with an entity alias map.

    ``aliases`` maps every entity (heads and tails alike) to a tuple of
    surface texts whose first element is always the identifier with
    underscores replaced by spaces; extra aliases come from the alias file.
    """

    triples: frozenset[Triple]
    head_index: dict[str, frozenset[str]]
    pair_index: dict[tuple[str, str], frozenset[str]]
    relations: frozenset[str]
    aliases: dict[str, tuple[str, ...]]
    _resolve: dict[str, str]
    _relation_tokens: dict[str, frozenset[str]]

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[Triple],
        alias_map: dict[str, Sequence[str]] | None = None,
    ) -> "KnowledgeGraph":
        tset = frozenset(triples)
        head_index, pair_index, relations = _build_indices(tset)
        entities = {t.head for t in tset} | {t.tail for t in tset}
        if alias_map:
            entities |= set(alias_map)
        aliases: dict[str, tuple[str, ...]] = {}
        for e in entities:
            names = [display(e)]
            for extra in (alias_map or {}).get(e, ()):
                if extra not in names:
                    names.append(extra)
            aliases[e] = tuple(names)
        resolve: dict[str, str] = {}
        for e in sorted(entities):
            for key in (normalize(e), *(normalize(a) for a in aliases[e])):
                if key:
                    resolve.setdefault(key, e)
        relation_tokens = {r: frozenset(word_tokens(r)) for r in relations}
        return cls(tset, head_index, pair_index, relations, aliases, resolve, relation_tokens)

    def __len__(self) -> int:
        return len(self.triples)

    def resolve_entity(self, text: str) -> str | None:
        """Map surface text (identifier or alias, any case/spacing) to an
        entity identifier; None when nothing matches."""
        return self._resolve.get(normalize(text))

    def entity_display(self, entity: str) -> str:
        """Primary alias of an entity (identifier display form)."""
        names = self.aliases.get(entity)
        return names[0] if names else display(entity)

    def relation_search(self, entity: str, hypothesis: str, k: int = 15) -> list[str]:
        """Top-``k`` relations attached to ``entity``, ranked by word-token
        Jaccard similarity to the hypothesis text; ties break on smaller edit
        distance to the hypothesis, then lexicographic relation name, which
        makes the ranking fully deterministic. Unknown entities yield an
        empty list.

        The edit distance is computed only for relations whose Jaccard is at
        least the ``k``-th best. The cut is exact: every relation below it
        has ``k`` relations with a strictly higher Jaccard ahead of it.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        attached = self.head_index.get(entity)
        if not attached:
            return []
        hyp_tokens = set(word_tokens(hypothesis))
        by_jaccard = sorted((-token_jaccard(hyp_tokens, self._relation_tokens[rel]), rel) for rel in attached)
        if len(by_jaccard) > k:
            cut = by_jaccard[k - 1][0]
            by_jaccard = [pair for pair in by_jaccard if pair[0] <= cut]
        hyp = hypothesis.lower()
        ranked = sorted(by_jaccard, key=lambda pair: (pair[0], levenshtein(hyp, pair[1].lower()), pair[1]))
        return [rel for _, rel in ranked[:k]]

    def neighbor_search(self, entity: str, relation: str) -> set[str] | str:
        """Tail entities of ``(entity, relation)`` rendered as alias texts,
        or the sentinel string when the pair is absent. The sentinel is a
        value, not an error."""
        tails = self.pair_index.get((entity, relation))
        if not tails:
            return SENTINEL
        return {self.entity_display(t) for t in tails}


@gc_paused
def load_triples(path: str | Path, alias_path: str | Path | None = None) -> KnowledgeGraph:
    """Load a TSV triple file (head<TAB>relation<TAB>tail, UTF-8) into an
    indexed graph. Duplicate lines are deduplicated; blank lines skipped.

    Raises :class:`KGError` naming the line number for malformed lines, and
    for files containing no triples at all.
    """
    path = Path(path)
    triples: set[Triple] = set()
    with path.open(encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise KGError(f"malformed triple at line {lineno}: expected 3 tab-separated columns, got {len(fields)}")
            head, relation, tail = (f.strip() for f in fields)
            if not normalize(head) or not normalize(relation):
                raise KGError(f"malformed triple at line {lineno}: empty head or relation")
            triples.add(Triple(head, relation, tail))
    if not triples:
        raise KGError(f"empty graph: no triples in {path}")
    alias_map = load_aliases(alias_path) if alias_path else None
    return KnowledgeGraph.from_triples(triples, alias_map)


def load_aliases(path: str | Path) -> dict[str, list[str]]:
    """Load a JSON-lines alias file ({"entity": id, "aliases": [text, ...]})."""
    alias_map: dict[str, list[str]] = {}
    def record(rec: dict) -> tuple[str, list[str]]:
        return str(rec["entity"]), [str(n) for n in json_list(rec["aliases"], "aliases")]

    for entity, names in read_jsonl(path, KGError, "alias record", record):
        alias_map.setdefault(entity, []).extend(names)
    return alias_map


@dataclass(frozen=True)
class RemovalLog:
    """Per-question record of removed critical triples and the derived
    coverage label (IKG iff anything was removed for that question)."""

    entries: dict[str, list[Triple]]
    coverage: dict[str, str]


@gc_paused
def sample_ikg(
    kg: KnowledgeGraph,
    qa_set: Sequence["QAExample"],
    fraction: float,
    seed: int,
) -> tuple[KnowledgeGraph, RemovalLog]:
    """Derive an incomplete graph by removing, independently per question,
    the ceiling of ``fraction`` times its critical triples, plus every other
    triple between the affected (head, tail) entity pairs in either direction.

    Deterministic for a fixed seed (each question draws from its own stream
    keyed on ``seed`` and the question id, so results do not depend on
    question order). The log records the chosen critical triples only;
    co-pair casualties are implied by the pair purge.
    """
    if not 0.0 <= fraction <= 1.0:
        raise KGError(f"fraction must be in [0, 1], got {fraction}")
    entries: dict[str, list[Triple]] = {}
    coverage: dict[str, str] = {}
    purged_pairs: set[tuple[str, str]] = set()
    for ex in qa_set:
        crits = sorted(set(ex.critical_triples))
        for t in crits:
            if t not in kg.triples:
                raise KGError(f"critical triple {tuple(t)} for question {ex.id!r} is not in the graph")
        # round() guards float dust when fraction * n is an exact integer
        n_remove = min(len(crits), math.ceil(round(fraction * len(crits), 9)))
        rng = random.Random(f"{seed}:{ex.id}")
        chosen = sorted(rng.sample(crits, n_remove)) if n_remove else []
        entries[ex.id] = chosen
        coverage[ex.id] = COVERAGE_IKG if chosen else COVERAGE_CKG
        for t in chosen:
            purged_pairs.add((t.head, t.tail))
            purged_pairs.add((t.tail, t.head))
    survivors = [t for t in kg.triples if (t.head, t.tail) not in purged_pairs]
    derived = KnowledgeGraph.from_triples(survivors, {e: list(a[1:]) for e, a in kg.aliases.items()})
    return derived, RemovalLog(entries, coverage)


def write_removal_log(log: RemovalLog, path: str | Path) -> None:
    """Write a removal log as JSON-lines {"id", "removed", "coverage"}."""
    write_jsonl(
        ({"id": qid, "removed": [list(t) for t in removed], "coverage": log.coverage[qid]}
         for qid, removed in log.entries.items()),
        path,
    )


def read_removal_log(path: str | Path) -> RemovalLog:
    """Read a JSON-lines removal log."""
    def record(rec: dict) -> tuple[str, list[Triple], str]:
        if rec["coverage"] not in (COVERAGE_CKG, COVERAGE_IKG):
            raise ValueError(f"unknown coverage label {rec['coverage']!r}")
        removed = [Triple(*json_list(t, "removed")) for t in json_list(rec["removed"], "removed")]
        return rec["id"], removed, rec["coverage"]

    entries: dict[str, list[Triple]] = {}
    coverage: dict[str, str] = {}
    for qid, removed, label in read_jsonl(path, KGError, "removal-log record", record):
        entries[qid] = removed
        coverage[qid] = label
    return RemovalLog(entries, coverage)


def write_triples(kg: KnowledgeGraph, path: str | Path) -> None:
    """Write the triple set as sorted, deduplicated TSV."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for t in sorted(kg.triples):
            fh.write(f"{t.head}\t{t.relation}\t{t.tail}\n")
