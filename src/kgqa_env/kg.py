"""Integer-coded triple store: loading, the two KG lookup tools, and
sampling of incomplete-graph variants with a per-question removal log.

A :class:`KnowledgeGraph` keeps its triples in ``array("i")`` columns of
ids, an id being a position in a sorted name table, so id order is name
order. It is immutable and safe to share across concurrent rollouts.
:func:`sample_ikg` returns a graph that shares every column, table and map
of its base by identity, plus an overlay of what its removals change.

Its entity resolver is a hash table that holds no string: each entry is
the low 32 bits of a name key's ``str`` hash, filed in bucket
``hash & mask``. Those hashes are salted per interpreter
(``PYTHONHASHSEED``), so the table is process-local, as the web corpus's
bucket table is (see :mod:`kgqa_env.web`): a forked worker shares it with
its parent, and pickling a graph raises ``TypeError``; another process
loads the graph itself.

The question-side names the graph works with (:class:`Triple`,
:data:`SENTINEL`, :func:`display`, :class:`KGError`, the coverage labels
and the removal log) are defined in :mod:`kgqa_env.qa` and re-exported here.
"""

from __future__ import annotations

import functools
import math
import random
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from itertools import accumulate, chain, repeat
from operator import add, mul
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

from .jsonio import json_id, json_list, json_text, read_jsonl
from .qa import (  # noqa: F401 -- COVERAGE_*, read_removal_log and write_removal_log are re-exports
    COVERAGE_CKG,
    COVERAGE_IKG,
    SENTINEL,
    KGError,
    QAExample,
    RemovalLog,
    Triple,
    display,
    read_removal_log,
    write_removal_log,
)
from .text import _STRIP_CHARS, levenshtein, normalize, word_tokens

_SENTINEL_FORMS = frozenset({normalize(SENTINEL)})


def is_sentinel(text: str) -> bool:
    """True for the no-information marker, up to case, punctuation and spacing."""
    return normalize(text) in _SENTINEL_FORMS


#: Relations a relation_search lists; a head with more is narrowed by the token index.
TOP_K_RELATIONS = 15


#: The low 32 bits of a ``str`` hash: what the resolver stores of a key.
_LOW32 = 0xFFFFFFFF


def _folded(text: str) -> str:
    """The resolver's key of a name: its normalized display form. A name's
    normalized id and normalized display form fold to the same key,
    ``_folded(normalize(text)) == _folded(text)``, so one entry files both."""
    return normalize(display(text))


def _key_hashes(names: Iterable[str]) -> array:
    """The low 32 bits of the hash of each name's folded key, in order."""
    return array("I", map(_LOW32.__and__, map(hash, map(_folded, names))))


def _position(names: tuple[str, ...], name: str) -> int:
    """``name``'s id in a sorted name table, or -1 when it is not there."""
    at = bisect_left(names, name)
    return at if at < len(names) and names[at] == name else -1


def _encode(triples: Iterable[tuple[str, str, str]], extra: Iterable[str]) -> tuple:
    """(entity table, relation table, *columns) of the triples without
    repeats, ``extra`` in the entity table too. Once the names are sorted, a
    counting sort files each triple as ``relation * n + tail`` into its
    head's slots, each sorted on its own. Only machine ints are held."""
    entity_ids: dict[str, int] = {}  # name -> id in first-seen order, until the names are sorted
    relation_ids: dict[str, int] = {}
    heads, relations, tails = array("i"), array("i"), array("i")
    add_head, add_relation, add_tail = heads.append, relations.append, tails.append
    entity_id, relation_id = entity_ids.setdefault, relation_ids.setdefault
    for head, relation, tail in triples:
        add_head(entity_id(head, len(entity_ids)))
        add_relation(relation_id(relation, len(relation_ids)))
        add_tail(entity_id(tail, len(entity_ids)))
    entities = tuple(sorted(chain(entity_ids, (e for e in extra if e not in entity_ids))))
    relation_names = tuple(sorted(relation_ids))
    rank, relation_rank = array("i", [0]) * len(entity_ids), array("i", [0]) * len(relation_ids)
    for final, name in enumerate(entities):
        if name in entity_ids:
            rank[entity_ids[name]] = final
    for final, name in enumerate(relation_names):
        relation_rank[relation_ids[name]] = final
    del entity_ids, relation_ids, entity_id, relation_id, add_head, add_relation, add_tail
    n = len(entities)
    heads = array("i", map(rank.__getitem__, heads))
    slot = [0] * (n + 1)  # a list, whose subscripts the interpreter runs fastest
    for head in heads:
        slot[head + 1] += 1
    first = array("i", accumulate(slot))
    slot = array("i", first)  # an array: a list would hold an int object per entity
    keyed = array("q", [0]) * len(heads)
    keys = map(add, map(mul, map(relation_rank.__getitem__, relations), repeat(n)), map(rank.__getitem__, tails))
    for head, key in zip(heads, keys):
        keyed[slot[head]] = key
        slot[head] += 1
    del heads, relations, tails, slot, keys  # keys' maps hold the relation and tail columns
    first_pair, pair_relation, first_tail, tail = array("i", [0]), array("i"), array("i"), array("i")
    add_pair, add_first_tail, add_tail = pair_relation.append, first_tail.append, tail.append
    for lo, hi in zip(first, first[1:]):
        previous = -1
        for key in sorted(set(keyed[lo:hi])) if hi - lo > 1 else keyed[lo:hi]:
            relation = key // n
            if relation != previous:
                add_first_tail(len(tail))
                add_pair(relation)
                previous = relation
            add_tail(key - relation * n)
        first_pair.append(len(pair_relation))
    add_first_tail(len(tail))
    return entities, relation_names, first_pair, pair_relation, first_tail, tail


def _resolver(entities: tuple[str, ...], aliases: dict[str, tuple[str, ...]]) -> tuple[array, array, array, array]:
    """(bucket heads, chain links, key hashes, owners) of the resolver's
    entries, in entity order: one for each entity's id and display form,
    then one for each of an alias-file entity's aliases that folds to
    another key. ``owners[entry]`` is the entry's entity id and
    ``hashes[entry]`` its key's hash (see :func:`_key_hashes`). Bucket ``b``
    holds the entries whose hash is ``b`` under the mask, a power of two
    less one, with more buckets than entries: ``heads[b]`` is its first
    entry, ``links[entry]`` the one after ``entry``, and -1 ends a chain.
    The entries are filed last to first, so each chain runs in name order."""
    own = _key_hashes(entities)
    hashes, owners, done = array("I"), array("i"), 0
    for entity in sorted(aliases):  # each alias entry goes right after its entity's own
        owner = _position(entities, entity)
        others = [h for h in dict.fromkeys(_key_hashes(aliases[entity])) if h != own[owner]]
        hashes.extend(own[done:owner + 1] + array("I", others))
        owners.extend(chain(range(done, owner + 1), repeat(owner, len(others))))
        done = owner + 1
    hashes.extend(own[done:])
    owners.extend(range(done, len(entities)))
    heads = array("i", [-1]) * (1 << len(hashes).bit_length())
    mask = len(heads) - 1
    links = array("i", [-1]) * len(hashes)
    for entry in range(len(hashes) - 1, -1, -1):
        bucket = hashes[entry] & mask
        links[entry] = heads[bucket]
        heads[bucket] = entry
    return heads, links, hashes, owners


class _IndexView(Mapping):
    """A read-only mapping computed from a graph's columns on each read;
    equal to another mapping with the same items."""

    __slots__ = ("_lookup", "_present")

    def __init__(self, lookup: Callable, present: Callable[[], Iterator]) -> None:
        self._lookup = lookup  # key -> its value, empty for an absent key
        self._present = present  # () -> the keys present, in order

    def __getitem__(self, key):
        value = self._lookup(key)
        if not value:
            raise KeyError(key)
        return value

    def __iter__(self) -> Iterator:
        return self._present()

    def __len__(self) -> int:
        return sum(1 for _ in self._present())


class KnowledgeGraph:
    """Immutable triple store with an entity alias map. Stored: the sorted
    entity table (heads, tails, alias-file entities) and relation table; the
    pairs of entity ``e`` at ``_first_pair[e]`` up to ``_first_pair[e + 1]``
    in ``_pair_relation`` (ascending relation ids), and the tails of pair
    ``p`` likewise in ``_tail`` (ascending entity ids); each alias-file
    entity's names, in file order without repeats; the resolver, a hash
    table of the entities' name keys (see :func:`_resolver`); the two
    relation ranking maps. A graph from
    :func:`sample_ikg` shares all of it with its base, plus an overlay of
    the surviving tails of each pair and the surviving relations of each
    head its removals touch. Its tables and ranking maps may name relations
    no head keeps; a ranking draws only on the head's own relations.

    Its fields, the class annotations in constructor order, cannot be
    assigned; two graphs are equal when every field is, and
    :meth:`_replace` copies one with some fields changed.
    """

    entities: tuple[str, ...]
    _relation_names: tuple[str, ...]
    _first_pair: array
    _pair_relation: array
    _first_tail: array
    _tail: array
    aliases: dict[str, tuple[str, ...]]
    _resolver: tuple[array, array, array, array]  # bucket heads, chain links, key hashes, owners
    _relation_tokens: tuple[frozenset[str], ...]  # relation id -> its word tokens
    _token_relations: dict[str, frozenset[int]]  # word token -> ids of the relations holding it
    _kept_tails: dict[int, tuple[int, ...]]  # pair -> its surviving tails
    _kept_relations: dict[int, array]  # head id -> its surviving relations

    def __init__(self, *fields: object) -> None:
        # written into the instance dictionary past __setattr__, as functools.cached_property writes there
        vars(self).update(zip(KnowledgeGraph.__annotations__, fields, strict=True))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an immutable KnowledgeGraph")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of an immutable KnowledgeGraph")

    def _asdict(self) -> dict:
        """Field name -> value, in constructor order, as ``NamedTuple._asdict`` gives them."""
        fields = vars(self)
        return {name: fields[name] for name in KnowledgeGraph.__annotations__}

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    __hash__ = None  # its dicts and arrays are unhashable

    def __reduce__(self):
        # the resolver holds this process's string hashes: see the module docstring
        raise TypeError("a KnowledgeGraph cannot be pickled: load its triples in each process")

    def _replace(self, **changes) -> KnowledgeGraph:
        """A new graph with ``changes`` to the named fields and every other
        field shared, as ``NamedTuple._replace`` makes one; an unknown
        field is a ``TypeError``."""
        fields = self._asdict()
        unknown = changes.keys() - fields.keys()
        if unknown:
            raise TypeError(f"KnowledgeGraph has no field {min(unknown)!r}")
        return KnowledgeGraph(*(fields | changes).values())

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, str]],
                     alias_map: dict[str, Sequence[str]] | None = None) -> "KnowledgeGraph":
        aliases = {e: tuple(dict.fromkeys(names)) for e, names in (alias_map or {}).items()}
        entities, relation_names, *columns = _encode(triples, aliases)
        distinct: dict[str, str] = {}  # word_tokens makes a new string per occurrence; keep the first
        relation_tokens = tuple(frozenset(distinct.setdefault(t, t) for t in word_tokens(r)) for r in relation_names)
        token_sets: dict[str, set[int]] = {}
        for relation, tokens in enumerate(relation_tokens):
            for token in tokens:
                token_sets.setdefault(token, set()).add(relation)
        token_relations = {t: frozenset(rs) for t, rs in token_sets.items()}
        return cls(entities, relation_names, *columns, aliases, _resolver(entities, aliases), relation_tokens,
                   token_relations, {}, {})

    def _tails_at(self, pair: int) -> Sequence[int]:
        kept = self._kept_tails.get(pair)
        return self._tail[self._first_tail[pair]:self._first_tail[pair + 1]] if kept is None else kept

    # An unknown name's id, -1, selects nothing: no pair lies from the last position back to 0.
    def _tails_of(self, head: str, relation: str) -> Sequence[int]:
        entity, rel = _position(self.entities, head), _position(self._relation_names, relation)
        lo, hi = self._first_pair[entity], self._first_pair[entity + 1]
        at = bisect_left(self._pair_relation, rel, lo, hi)
        return self._tails_at(at) if at < hi and self._pair_relation[at] == rel else ()

    def _relations_of(self, head: str) -> Sequence[int]:
        entity = _position(self.entities, head)
        kept = self._kept_relations.get(entity)
        return self._pair_relation[self._first_pair[entity]:self._first_pair[entity + 1]] if kept is None else kept

    def _pairs(self) -> Iterator[tuple[int, int, Sequence[int]]]:
        for head in range(len(self.entities)):
            for pair in range(self._first_pair[head], self._first_pair[head + 1]):
                tails = self._tails_at(pair)
                if tails:
                    yield head, self._pair_relation[pair], tails

    @property
    def head_index(self) -> Mapping[str, tuple[str, ...]]:
        names = self._relation_names
        return _IndexView(lambda head: tuple(map(names.__getitem__, self._relations_of(head))),
                          lambda: iter(dict.fromkeys(self.entities[head] for head, _, _ in self._pairs())))

    @property
    def pair_index(self) -> Mapping[tuple[str, str], tuple[str, ...]]:
        names = self.entities
        return _IndexView(lambda pair: tuple(map(names.__getitem__, self._tails_of(*pair))),
                          lambda: ((names[h], self._relation_names[r]) for h, r, _ in self._pairs()))

    @functools.cached_property
    def triples(self) -> frozenset[Triple]:
        names, relations = self.entities, self._relation_names
        return frozenset(Triple(names[h], relations[r], names[t]) for h, r, tails in self._pairs() for t in tails)

    @functools.cached_property
    def relations(self) -> frozenset[str]:
        return frozenset(self._relation_names[r] for _, r, _ in self._pairs())

    def __len__(self) -> int:
        first = self._first_tail
        return len(self._tail) - sum(first[p + 1] - first[p] - len(kept) for p, kept in self._kept_tails.items())

    def resolve_entity(self, text: str) -> str | None:
        """Map surface text (identifier or alias, any case/spacing) to an
        entity identifier; None when nothing matches. The first entity in
        name order wins whose normalized id, display form or alias equals
        the normalized text: the walk confirms each entry of the text's
        bucket that holds its key hash, in name order, so the hashes never
        decide."""
        want = normalize(text)
        if not want:
            return None
        # No folded key holds a "_", and ``want`` folds to itself unless it
        # holds one. So ``want`` is an entity's normalized id or display form
        # exactly when it is the entity's id normalized with each "_" read
        # as ``space``: the id itself when ``want`` holds a "_", else its
        # display form.
        if "_" in want:
            key_hash, space = hash(_folded(want)) & _LOW32, "_"
        else:
            key_hash, space = hash(want) & _LOW32, " "
        heads, links, hashes, owners = self._resolver
        entry = heads[key_hash & (len(heads) - 1)]
        while entry >= 0:
            if hashes[entry] == key_hash:
                entity = self.entities[owners[entry]]
                name = entity.replace("_", space)
                # a name whose lowercase is normalized text normalizes to it: a cheap first check
                if (name.lower() == want or normalize(name) == want
                        or want in map(normalize, self.aliases.get(entity, ()))):
                    return entity
            entry = links[entry]
        return None

    def relation_search(self, entity: str, hypothesis: str) -> list[str]:
        """The :data:`TOP_K_RELATIONS` relations attached to ``entity`` that
        best match the hypothesis, ranked by word-token Jaccard similarity
        to it (0 when either side has no word token); ties break on smaller
        edit distance to the hypothesis, then relation name (id order), so
        the ranking is fully deterministic. Unknown entities yield an empty
        list.

        Only relations whose Jaccard is at least the last place's are kept
        (each one below has a full budget ahead of it), and only kept ones
        that share a Jaccard take an edit distance, from one batched
        :func:`levenshtein` call. A head over the budget scores only the
        relations the token index finds sharing a word with the hypothesis
        if they fill the budget: every other one has Jaccard 0, below the cut.
        Otherwise the whole head is ranked, and every relation that shares
        no word with the hypothesis ties at Jaccard 0 and takes an edit
        distance: this is the case for a hypothesis with no word token, and
        for one whose words reach fewer than the budget's relations.
        """
        attached = self._relations_of(entity)
        if not attached:
            return []
        hyp_tokens = set(word_tokens(hypothesis))
        candidates = attached
        if len(attached) > TOP_K_RELATIONS:
            holding = set().union(*(self._token_relations.get(token, ()) for token in hyp_tokens))
            sharing = holding.intersection(attached)
            if len(sharing) >= TOP_K_RELATIONS:
                candidates = sharing
        tokens, names = self._relation_tokens, self._relation_names
        size = len(hyp_tokens)
        scored = []
        for rel in candidates:
            common = len(hyp_tokens.intersection(tokens[rel]))
            # Jaccard; the union is empty only when neither side has a word token
            scored.append((-common / (size + len(tokens[rel]) - common or 1), rel))
        by_jaccard = sorted(scored)
        if len(by_jaccard) > TOP_K_RELATIONS:
            cut = by_jaccard[TOP_K_RELATIONS - 1][0]
            by_jaccard = [pair for pair in by_jaccard if pair[0] <= cut]
        scores = [score for score, _ in by_jaccard]
        repeated = {score for score, following in zip(scores, scores[1:]) if score == following}
        if not repeated:
            return [names[rel] for _, rel in by_jaccard[:TOP_K_RELATIONS]]
        tied = [pair for pair in by_jaccard if pair[0] in repeated]
        distances = levenshtein(hypothesis.lower(), [names[rel].lower() for _, rel in tied])
        ranked = sorted([(score, 0, rel) for score, rel in by_jaccard if score not in repeated]
                        + [(score, distance, rel) for (score, rel), distance in zip(tied, distances)])
        return [names[rel] for _, _, rel in ranked[:TOP_K_RELATIONS]]

    def neighbor_search(self, entity: str, relation: str) -> set[str] | str:
        """Tail entities of ``(entity, relation)`` rendered in display form,
        or the sentinel string when the pair is absent. The sentinel is a
        value, not an error."""
        tails = self._tails_of(entity, relation)
        if not tails:
            return SENTINEL
        return {display(self.entities[t]) for t in tails}


def load_triples(path: str | Path, alias_path: str | Path | None = None) -> KnowledgeGraph:
    """Load a TSV triple file (head<TAB>relation<TAB>tail, UTF-8, a leading
    byte-order mark skipped) into a graph. Duplicate lines are deduplicated;
    blank lines skipped. Raises :class:`KGError` naming the line number for
    malformed lines, and for files containing no triples at all."""
    kg = KnowledgeGraph.from_triples(_read_tsv(Path(path)), load_aliases(alias_path) if alias_path else None)
    if not len(kg):
        raise KGError(f"empty graph: no triples in {path}")
    return kg


def _read_tsv(path: Path) -> Iterator[tuple[str, str, str]]:
    """Yield each line's (head, relation, tail), whitespace-trimmed."""
    with path.open(encoding="utf-8-sig") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                head, relation, tail = line.split("\t")
            except ValueError:
                if not line.strip():
                    continue
                columns = line.count("\t") + 1
                raise KGError(f"malformed triple at line {lineno}: expected 3 tab-separated columns, "
                              f"got {columns}") from None
            head, relation, tail = head.strip(), relation.strip(), tail.strip()
            # empty after the strip exactly when normalize() gives "", at a fraction of the cost
            if not (head.strip(_STRIP_CHARS) and relation.strip(_STRIP_CHARS) and tail.strip(_STRIP_CHARS)):
                if not line.strip():  # a blank line, tabs and all
                    continue
                raise KGError(f"malformed triple at line {lineno}: empty head, relation or tail")
            yield head, relation, tail


def load_aliases(path: str | Path) -> dict[str, list[str]]:
    """Load a JSON-lines alias file ({"entity": id, "aliases": [text, ...]}).
    Entity ids are read as text (a number as its digits) and trimmed; one
    that is then blank or punctuation only, one that is neither text nor a
    number, and an alias that is not a string raise :class:`KGError` naming
    the file and line."""
    alias_map: dict[str, list[str]] = {}
    def record(rec: dict) -> tuple[str, list[str]]:
        entity = json_id(rec["entity"], "entity").strip()
        if not entity.strip(_STRIP_CHARS):
            raise ValueError(f"empty entity {entity!r}")
        return entity, [json_text(n, "aliases") for n in json_list(rec["aliases"], "aliases")]

    for entity, names in read_jsonl(path, KGError, "alias record", record):
        alias_map.setdefault(entity, []).extend(names)
    return alias_map


def sample_ikg(kg: KnowledgeGraph, qa_set: Sequence[QAExample], fraction: float,
               seed: int) -> tuple[KnowledgeGraph, RemovalLog]:
    """Derive an incomplete graph by removing, independently per question,
    the ceiling of ``fraction`` times its critical triples, plus every other
    triple between the affected (head, tail) entity pairs in either direction.
    Deterministic for a fixed seed (each question draws from its own stream
    keyed on ``seed`` and the question id, so results do not depend on
    question order). The log records the chosen critical triples only;
    co-pair casualties are implied by the pair purge."""
    if not 0.0 <= fraction <= 1.0:
        raise KGError(f"fraction must be in [0, 1], got {fraction}")
    entries: dict[str, list[Triple]] = {}
    purged_tails: dict[str, set[str]] = {}  # head -> tails it loses every edge to
    for ex in qa_set:
        crits = sorted(set(ex.critical_triples))
        for t in crits:
            if _position(kg.entities, t.tail) not in kg._tails_of(t.head, t.relation):
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
    """``kg`` without any triple from a head to one of its ``purged_tails``:
    its overlay extended by each touched pair's surviving tails and by the
    surviving relations of each head that loses a pair. It answers as
    ``from_triples`` over the survivors, ``kg``'s entities as alias keys."""
    kept_tails, kept_relations = dict(kg._kept_tails), dict(kg._kept_relations)
    for head, drop in purged_tails.items():
        entity = _position(kg.entities, head)
        dropped = {_position(kg.entities, tail) for tail in drop}
        pairs = range(kg._first_pair[entity], kg._first_pair[entity + 1])
        emptied = False
        for pair in pairs:
            tails = kg._tails_at(pair)
            if not dropped.isdisjoint(tails):
                kept_tails[pair] = left = tuple(t for t in tails if t not in dropped)
                emptied = emptied or not left
        if emptied:
            kept_relations[entity] = array("i", (kg._pair_relation[p] for p in pairs if kept_tails.get(p, True)))
    return kg._replace(_kept_tails=kept_tails, _kept_relations=kept_relations)


def write_triples(kg: KnowledgeGraph, path: str | Path) -> None:
    """Write the triple set as sorted, deduplicated TSV."""
    names, relations = kg.entities, kg._relation_names
    with Path(path).open("w", encoding="utf-8") as fh:
        for head, relation, tails in kg._pairs():
            prefix = f"{names[head]}\t{relations[relation]}\t"
            fh.writelines(f"{prefix}{names[tail]}\n" for tail in tails)
