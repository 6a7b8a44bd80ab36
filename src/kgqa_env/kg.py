"""Indexed triple store: loading, the two KG lookup tools, and sampling of
incomplete-graph variants with a per-question removal log.

A :class:`KnowledgeGraph` is immutable after construction and safe to share
across concurrent rollouts. :func:`sample_ikg` returns a new graph that
always shares with its base the alias map, the resolver, both relation
ranking maps, the tail tuples of untouched pairs and the relation tuples
and frozensets of untouched heads. The sharing is safe because neither graph
ever mutates them.
"""

from __future__ import annotations

import functools
import gc
import math
import random
import sys
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, Iterable, Iterator, NamedTuple, Sequence, TypeVar

from .jsonio import json_list, json_text, read_jsonl, write_jsonl
from .text import _STRIP_CHARS, levenshtein, normalize, token_jaccard, word_tokens

if TYPE_CHECKING:  # pragma: no cover
    from .qa import QAExample

SENTINEL = "No information in KG, please use web tool."
_SENTINEL_FORMS = frozenset({normalize(SENTINEL)})

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
    """True for the no-information marker, up to case, punctuation and spacing."""
    return normalize(text) in _SENTINEL_FORMS


def gc_paused(loader: _F) -> _F:
    """Run ``loader`` with the cyclic garbage collector paused.

    A bulk loader allocates index containers by the hundred thousand, and
    each batch of them starts a collection that walks everything allocated
    so far: the graph under construction and any graph loaded before it.
    None of it is garbage, so those passes only cost time (seconds on a
    graph of 10^5 triples). The caller's collector state is restored on
    return and on error; a caller that had paused it keeps it paused.

    After a load that succeeds with the collector running before it, every
    tracked object (the load's, and whatever the caller's young generations
    held) moves straight into the oldest generation, where the young
    collections never look. Re-enabled as it was, the collector would walk
    each loaded container twice on its way there, in whatever ran next: on
    a graph of 10^5 triples about 0.2 s in the first allocation after the
    load and 0.4 s more in a later rollout.
    """
    @functools.wraps(loader)
    def paused(*args, **kwargs):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            loaded = loader(*args, **kwargs)
            if was_enabled:
                gc.freeze()  # every tracked object to the permanent generation,
                gc.unfreeze()  # and from there into the oldest one
            return loaded
        finally:
            if was_enabled:
                gc.enable()

    return paused  # type: ignore[return-value]


#: Relations a relation_search lists. A head with at most this many keeps
#: them as a sorted tuple (a third of a frozenset's bytes or less), ranked
#: whole; a larger one keeps a frozenset, which the token index intersects.
TOP_K_RELATIONS = 15


def _frozen_relations(relations: Collection[str]) -> tuple[str, ...] | frozenset[str]:
    """A head's distinct relations as :class:`KnowledgeGraph` stores them.
    A frozenset is copied from a set, which sizes its table for the members
    it holds; built from a list it grows as it fills, and the hub tables of
    the generated graphs took a fifth more bytes."""
    if len(relations) <= TOP_K_RELATIONS:
        return tuple(sorted(relations))
    return frozenset(set(relations))


def _build_indices(
    triples: Iterable[tuple[str, str, str]],
) -> tuple[dict[str, tuple[str, ...] | frozenset[str]], dict[tuple[str, str], tuple[str, ...]], frozenset[str]]:
    """Derive (head index, pair index, relation vocabulary) from triples;
    duplicates collapse. Each pair's tails are a sorted tuple without
    repeats, and each head's relations are stored by
    :func:`_frozen_relations`, so equal triple sets give equal indexes in
    any order.

    Each build list is replaced by its frozen form in the same dict, and so
    freed as that form is made: the build never holds two full copies of an
    index. A head's relations are collected from the distinct pairs, so
    they need no set to collapse repeats.
    """
    pair_index: dict = {}
    for head, relation, tail in triples:
        pair_index.setdefault((head, relation), []).append(tail)
    head_index: dict = {}
    for pair, tails in pair_index.items():
        # most pairs hold one tail, which needs neither the dedup nor the sort
        pair_index[pair] = tuple(tails) if len(tails) == 1 else tuple(sorted(set(tails)))
        head_index.setdefault(pair[0], []).append(pair[1])
    for head, relations in head_index.items():
        head_index[head] = _frozen_relations(relations)
    return head_index, pair_index, frozenset(relation for _, relation in pair_index)


@dataclass(frozen=True)
class KnowledgeGraph:
    """Immutable, fully indexed triple store with an entity alias map.

    Stored: the relations of each head (a sorted tuple for a head with at
    most :data:`TOP_K_RELATIONS`, which :meth:`relation_search` lists
    whole, and a frozenset for a larger one, which it intersects with the
    token index), the tails of each (head, relation)
    pair (a sorted tuple without repeats: most pairs hold one tail, and a
    1-tuple takes under a quarter of a 1-element frozenset's bytes), the
    alias file's names of each entity it lists (in file order, without
    repeats), the resolver from normalized surface text to entity,
    and the two relation ranking maps. Derived on first read:
    :attr:`triples` from ``pair_index`` and :attr:`relations` from
    ``head_index``. An entity's display text is :func:`display` of its id.

    The ranking maps may name relations that no head keeps (a graph from
    :func:`sample_ikg` shares its base's). That never changes a ranking:
    :meth:`relation_search` draws every candidate from ``head_index``.
    """

    head_index: dict[str, tuple[str, ...] | frozenset[str]]
    pair_index: dict[tuple[str, str], tuple[str, ...]]
    aliases: dict[str, tuple[str, ...]]
    _resolve: dict[str, str]
    _relation_tokens: dict[str, frozenset[str]]  # relation -> its word tokens
    _token_relations: dict[str, frozenset[str]]  # word token -> relations holding it

    @classmethod
    def from_triples(
        cls,
        triples: Iterable[tuple[str, str, str]],
        alias_map: dict[str, Sequence[str]] | None = None,
    ) -> "KnowledgeGraph":
        head_index, pair_index, relations = _build_indices(triples)
        aliases = {e: tuple(dict.fromkeys(names)) for e, names in (alias_map or {}).items()}
        resolve: dict[str, str] = {}
        for e in sorted(set(head_index).union(*pair_index.values(), aliases)):
            for key in (normalize(e), normalize(display(e)), *map(normalize, aliases.get(e, ()))):
                if key:
                    resolve.setdefault(key, e)
        relation_tokens = {r: frozenset(word_tokens(r)) for r in relations}
        token_sets: dict[str, set[str]] = {}
        for relation, tokens in relation_tokens.items():
            for token in tokens:
                token_sets.setdefault(token, set()).add(relation)
        token_relations = {t: frozenset(rs) for t, rs in token_sets.items()}
        return cls(head_index, pair_index, aliases, resolve, relation_tokens, token_relations)

    @functools.cached_property
    def triples(self) -> frozenset[Triple]:
        """Every triple of the graph, built from ``pair_index`` on first read."""
        return frozenset(Triple(h, r, t) for (h, r), tails in self.pair_index.items() for t in tails)

    @functools.cached_property
    def relations(self) -> frozenset[str]:
        """Every relation some head keeps, built from ``head_index`` on first read."""
        return frozenset().union(*self.head_index.values())

    def __len__(self) -> int:
        return sum(map(len, self.pair_index.values()))

    def resolve_entity(self, text: str) -> str | None:
        """Map surface text (identifier or alias, any case/spacing) to an
        entity identifier; None when nothing matches."""
        return self._resolve.get(normalize(text))

    def relation_search(self, entity: str, hypothesis: str) -> list[str]:
        """The :data:`TOP_K_RELATIONS` relations attached to ``entity`` that
        best match the hypothesis, ranked by word-token Jaccard similarity
        to it; ties break on smaller edit distance to the hypothesis, then
        lexicographic relation name, which makes the ranking fully
        deterministic. Unknown entities yield an empty list.

        Only relations whose Jaccard is at least the last place's are kept.
        The cut is exact: every relation below it has a full budget of
        relations with a higher Jaccard ahead of it. A kept relation whose
        Jaccard no other kept relation shares is placed by its Jaccard
        alone; the edit distances of the rest come from one batched
        :func:`levenshtein` call, and none when no two kept relations tie.

        A tuple head is ranked whole. For a frozenset head, the token index
        finds the relations sharing a word with the hypothesis, and if they
        fill the budget only they are scored. That is exact too: each has a
        Jaccard above 0, so the last place does, and every relation sharing
        no word (Jaccard 0) already falls below the cut.
        """
        attached = self.head_index.get(entity)
        if not attached:
            return []
        hyp_tokens = set(word_tokens(hypothesis))
        candidates = attached
        if len(attached) > TOP_K_RELATIONS:
            sharing: set[str] = set()
            for token in hyp_tokens:
                holding = self._token_relations.get(token)
                if holding:
                    sharing |= holding.intersection(attached)
            if len(sharing) >= TOP_K_RELATIONS:
                candidates = sharing
        by_jaccard = sorted((-token_jaccard(hyp_tokens, self._relation_tokens[rel]), rel) for rel in candidates)
        if len(by_jaccard) > TOP_K_RELATIONS:
            cut = by_jaccard[TOP_K_RELATIONS - 1][0]
            by_jaccard = [pair for pair in by_jaccard if pair[0] <= cut]
        shared = Counter(score for score, _ in by_jaccard)
        tied = [rel for score, rel in by_jaccard if shared[score] > 1]
        distance = dict(zip(tied, levenshtein(hypothesis.lower(), [rel.lower() for rel in tied]))) if tied else {}
        ranked = sorted(by_jaccard, key=lambda pair: (pair[0], distance.get(pair[1], 0), pair[1]))
        return [rel for _, rel in ranked[:TOP_K_RELATIONS]]

    def neighbor_search(self, entity: str, relation: str) -> set[str] | str:
        """Tail entities of ``(entity, relation)`` rendered in display form,
        or the sentinel string when the pair is absent. The sentinel is a
        value, not an error."""
        tails = self.pair_index.get((entity, relation))
        if not tails:
            return SENTINEL
        return {display(t) for t in tails}


@gc_paused
def load_triples(path: str | Path, alias_path: str | Path | None = None) -> KnowledgeGraph:
    """Load a TSV triple file (head<TAB>relation<TAB>tail, UTF-8, a leading
    byte-order mark skipped) into an indexed graph. Duplicate lines are
    deduplicated; blank lines skipped.

    Raises :class:`KGError` naming the line number for malformed lines, and
    for files containing no triples at all.
    """
    alias_map = load_aliases(alias_path) if alias_path else None
    kg = KnowledgeGraph.from_triples(_read_tsv(Path(path)), alias_map)
    if not kg.pair_index:
        raise KGError(f"empty graph: no triples in {path}")
    return kg


def _read_tsv(path: Path) -> Iterator[tuple[str, str, str]]:
    """Yield each line's (head, relation, tail), whitespace-trimmed and
    interned, so an entity's every occurrence shares one string."""
    intern = sys.intern
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 3:
                raise KGError(f"malformed triple at line {lineno}: expected 3 tab-separated columns, got {len(fields)}")
            head, relation, tail = fields[0].strip(), fields[1].strip(), fields[2].strip()
            # empty after the strip exactly when normalize() gives "", at a fraction of the cost
            if not (head.strip(_STRIP_CHARS) and relation.strip(_STRIP_CHARS) and tail.strip(_STRIP_CHARS)):
                raise KGError(f"malformed triple at line {lineno}: empty head, relation or tail")
            yield intern(head), intern(relation), intern(tail)


def load_aliases(path: str | Path) -> dict[str, list[str]]:
    """Load a JSON-lines alias file ({"entity": id, "aliases": [text, ...]}).

    Entity ids are read as text and whitespace-trimmed, and one that is
    then blank or punctuation only is rejected, as in the triple file, with
    a :class:`KGError` naming the file and line. So is an alias that is not
    a string.
    """
    alias_map: dict[str, list[str]] = {}
    def record(rec: dict) -> tuple[str, list[str]]:
        entity = str(rec["entity"]).strip()
        if not entity.strip(_STRIP_CHARS):
            raise ValueError(f"empty entity {entity!r}")
        return entity, [json_text(n, "aliases") for n in json_list(rec["aliases"], "aliases")]

    for entity, names in read_jsonl(path, KGError, "alias record", record):
        alias_map.setdefault(entity, []).extend(names)
    return alias_map


def _coverage(removed: Sequence[Triple]) -> str:
    return COVERAGE_IKG if removed else COVERAGE_CKG


@dataclass(frozen=True)
class RemovalLog:
    """Per-question record of removed critical triples. Only the removals
    are stored; :attr:`coverage` derives each question's label from them."""

    entries: dict[str, list[Triple]]

    @property
    def coverage(self) -> dict[str, str]:
        """Question id -> IKG if anything was removed for it, else CKG."""
        return {qid: _coverage(removed) for qid, removed in self.entries.items()}


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
    purged_tails: dict[str, set[str]] = {}  # head -> tails it loses every edge to
    for ex in qa_set:
        crits = sorted(set(ex.critical_triples))
        for t in crits:
            if t.tail not in kg.pair_index.get((t.head, t.relation), ()):
                raise KGError(f"critical triple {tuple(t)} for question {ex.id!r} is not in the graph")
        # round() guards float dust when fraction * n is an exact integer
        n_remove = min(len(crits), math.ceil(round(fraction * len(crits), 9)))
        rng = random.Random(f"{seed}:{ex.id}")
        chosen = sorted(rng.sample(crits, n_remove)) if n_remove else []
        entries[ex.id] = chosen
        for t in chosen:
            purged_tails.setdefault(t.head, set()).add(t.tail)
            purged_tails.setdefault(t.tail, set()).add(t.head)
    return _without_edges(kg, purged_tails), RemovalLog(entries)


def _without_edges(kg: KnowledgeGraph, purged_tails: dict[str, set[str]]) -> KnowledgeGraph:
    """``kg`` without any triple from a head to one of its ``purged_tails``.

    Only the purged heads' pairs are rebuilt, each as the base's tail tuple
    without the purged tails, which keeps it sorted, and a head that loses a
    relation stores the rest by :func:`_frozen_relations`, as
    :func:`_build_indices` does. Every other container
    is the base graph's own, and the entity set is the base's (the aliases are).
    So the result's indexes, relations and resolver equal those of
    ``from_triples`` over the survivors with the base's entities as alias
    keys; its ranking maps are the base's, which rank alike (see
    :class:`KnowledgeGraph`).
    """
    head_index = dict(kg.head_index)
    pair_index = dict(kg.pair_index)
    for head, drop in purged_tails.items():
        attached = head_index.get(head)
        if attached is None:
            continue
        kept = set(attached)
        for relation in attached:
            tails = pair_index[(head, relation)]
            if drop.isdisjoint(tails):
                continue
            left = tuple(t for t in tails if t not in drop)
            if left:
                pair_index[(head, relation)] = left
            else:
                del pair_index[(head, relation)]
                kept.remove(relation)
        if not kept:
            del head_index[head]
        elif len(kept) < len(attached):
            head_index[head] = _frozen_relations(kept)
    return replace(kg, head_index=head_index, pair_index=pair_index)


def write_removal_log(log: RemovalLog, path: str | Path) -> None:
    """Write a removal log as JSON-lines {"id", "removed", "coverage"}."""
    write_jsonl(
        ({"id": qid, "removed": [list(t) for t in removed], "coverage": _coverage(removed)}
         for qid, removed in log.entries.items()),
        path,
    )


def read_removal_log(path: str | Path) -> RemovalLog:
    """Read a JSON-lines removal log. Ids are read as text, as in the QA
    and trajectory files; an id may appear once, each removed triple holds
    three strings, and a coverage label must agree with the record's
    removals, else :class:`KGError` names the file and line."""
    seen: set[str] = set()

    def record(rec: dict) -> tuple[str, list[Triple]]:
        qid = str(rec["id"])
        if qid in seen:
            raise ValueError(f"duplicate question id {qid!r}")
        seen.add(qid)
        label = rec["coverage"]
        if label not in (COVERAGE_CKG, COVERAGE_IKG):
            raise ValueError(f"unknown coverage label {label!r}")
        removed = [Triple(*(json_text(x, "removed") for x in json_list(t, "removed")))
                   for t in json_list(rec["removed"], "removed")]
        if label != _coverage(removed):
            raise ValueError(f"coverage label {label!r} disagrees with {len(removed)} removed triples")
        return qid, removed

    return RemovalLog(dict(read_jsonl(path, KGError, "removal-log record", record)))


def write_triples(kg: KnowledgeGraph, path: str | Path) -> None:
    """Write the triple set as sorted, deduplicated TSV."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for (head, relation), tails in sorted(kg.pair_index.items()):
            for tail in tails:
                fh.write(f"{head}\t{relation}\t{tail}\n")
