"""Web search tools: a deterministic offline corpus and a remote HTTP client.

The offline corpus is JSON-lines, one record per snippet:
``{"keys": [normalized term, ...], "snippet": text}``. A query matches a
record when every key appears among the query's word terms; matches rank by
key count (more specific first), then corpus order. Query terms are
:func:`~kgqa_env.text.word_tokens`, so only a key that is one lowercase run
of letters and digits can match; :meth:`OfflineWebTool.from_path` rejects
any other.

:class:`OfflineWebTool` files each record with keys under one of them, so a
query checks only the records filed under its own terms: a match holds all
its keys, so it is always among them, and no record is checked twice. The
key is the record's rarest one (held by the fewest records, ties to the
least), which keeps the buckets a query checks as small as the corpus
allows: filed under a common word instead, every record holding it is
checked by every query that holds it, and a query's cost depends on which
common words it contains. A record without keys matches no query and is not
filed. Each record keeps its keys as a sorted tuple without repeats: they
are only iterated and counted, and a tuple of four strings takes a third of
a frozenset's bytes. The keys and the snippets are two parallel lists, with
no tuple per record, and a corpus loaded by :meth:`OfflineWebTool.from_path`
holds one string object per distinct key, however many records hold it.
"""

from __future__ import annotations

import functools
import gc
from abc import ABC, abstractmethod
from array import array
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .jsonio import json_list, json_text, post_json, read_jsonl
from .text import word_tokens

_F = TypeVar("_F", bound=Callable)


def gc_paused(loader: _F) -> _F:
    """Run ``loader`` with the cyclic garbage collector paused.

    A bulk loader allocates index containers by the hundred thousand, and
    each batch of them starts a collection that walks everything allocated
    so far: the corpus under construction and whatever the caller holds.
    None of it is garbage, so those passes only cost time. The caller's
    collector state is restored on return and on error; a caller that had
    paused it keeps it paused.

    After a load that succeeds with the collector running before it, every
    tracked object (the load's, and whatever the caller's young generations
    held) moves straight into the oldest generation, where the young
    collections never look. Re-enabled as it was, the collector would walk
    each loaded container twice on its way there, in whatever ran next.
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


class WebToolError(Exception):
    """Transport or protocol failure of a web tool backend."""


class WebTool(ABC):
    """Search interface used by the rollout engine. Implementations must be
    safe for concurrent queries, return at most ``k`` snippets, raise
    ``ValueError`` for ``k`` below 1 and report a backend failure as
    :class:`WebToolError`."""

    @abstractmethod
    def search(self, query: str, k: int) -> list[str]:
        raise NotImplementedError


class OfflineWebTool(WebTool):
    def __init__(self, records: Iterable[tuple[Sequence[str], str]]):
        # Column by column, with no tuple per record: _records[idx] is record
        # idx's keys, _snippets[idx] its snippet.
        self._records: list[tuple[str, ...]] = []
        self._snippets: list[str] = []
        add_keys, add_snippet = self._records.append, self._snippets.append
        for keys, snippet in records:
            add_keys(tuple(sorted(set(keys))))
            add_snippet(snippet)
        counts = Counter(chain.from_iterable(self._records))
        # Each bucket is a chain of record positions: _index maps a key to
        # the last record filed under it, _next[idx] to the one filed before
        # idx (-1 ends the chain). A list per bucket would add an object the
        # garbage collector tracks for nearly every record; loaded next to a
        # large graph, that cost one more full collection. An array holds
        # the positions as machine ints, not one int object each.
        index: dict[str, int] = {}
        nxt = array("i", [-1]) * len(self._records)
        held_by = counts.__getitem__
        for idx, keys in enumerate(self._records):
            if keys:
                key = min(keys, key=held_by)
                nxt[idx] = index.get(key, -1)
                index[key] = idx
        self._index, self._next = index, nxt

    @classmethod
    @gc_paused
    def from_path(cls, path: str | Path) -> "OfflineWebTool":
        """Load a JSON-lines corpus. A malformed record, a key or snippet
        that is not a string, or a key that no query can match, raises
        :class:`WebToolError` naming the file and line."""
        return cls(_read_corpus(path))

    def search(self, query: str, k: int) -> list[str]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        terms = set(word_tokens(query))
        hits = []
        for term in terms:
            idx = self._index.get(term, -1)
            while idx >= 0:
                keys = self._records[idx]
                if terms.issuperset(keys):
                    hits.append((-len(keys), idx))
                idx = self._next[idx]
        hits.sort()
        return [self._snippets[idx] for _, idx in hits[:k]]


def _read_corpus(path: str | Path) -> Iterator[tuple[list[str], str]]:
    """Yield each corpus line's (keys, snippet). Equal keys on different
    lines are yielded as one string object (JSON decoding makes a new one
    for each occurrence), and each distinct key is checked once, where it
    first appears. The map that shares them lives only while the file is
    read, so it is freed before :class:`OfflineWebTool` counts the keys."""
    shared: dict[str, str] = {}

    def record(rec: dict) -> tuple[list[str], str]:
        keys = []
        for key in json_list(rec["keys"], "keys"):
            try:
                seen = shared.get(key)
            except TypeError:  # a list or an object, which json_text rejects
                seen = None
            if seen is None:
                # word_tokens(key) == [key], at a fraction of the cost
                if not (json_text(key, "keys").isalnum() and key == key.lower()):
                    raise ValueError(f"key {key!r} matches no query: a key must be one lowercase word token")
                shared[key] = seen = key
            keys.append(seen)
        return keys, json_text(rec["snippet"], "snippet")

    yield from read_jsonl(path, WebToolError, "corpus record", record)


class RemoteWebTool(WebTool):
    """POST {"query": text, "k": int} -> {"snippets": [text, ...]}."""

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout

    def search(self, query: str, k: int) -> list[str]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        snippets = post_json(self.url, {"query": query, "k": k}, "snippets", self.timeout, WebToolError)
        if not isinstance(snippets, list) or not all(isinstance(s, str) for s in snippets):
            raise WebToolError(f"POST to {self.url} failed: 'snippets' is not a list of strings: {snippets!r}")
        return snippets[:k]
