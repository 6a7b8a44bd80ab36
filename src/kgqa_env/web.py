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
a frozenset's bytes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, Sequence

from .jsonio import json_list, post_json, read_jsonl
from .kg import gc_paused
from .text import word_tokens


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
        self._records = [(tuple(sorted(set(keys))), snippet) for keys, snippet in records]
        counts = Counter(chain.from_iterable(keys for keys, _ in self._records))
        # Each bucket is a chain of record positions: _index maps a key to
        # the last record filed under it, _next[idx] to the one filed before
        # idx (-1 ends the chain). A list per bucket would add an object the
        # garbage collector tracks for nearly every record; loaded next to a
        # large graph, that cost one more full collection.
        index: dict[str, int] = {}
        nxt = [-1] * len(self._records)
        held_by = counts.__getitem__
        for idx, (keys, _) in enumerate(self._records):
            if keys:
                key = min(keys, key=held_by)
                nxt[idx] = index.get(key, -1)
                index[key] = idx
        self._index, self._next = index, nxt

    @classmethod
    @gc_paused
    def from_path(cls, path: str | Path) -> "OfflineWebTool":
        """Load a JSON-lines corpus. A malformed record, or a key that no
        query can match, raises :class:`WebToolError` naming the line."""
        def record(rec: dict) -> tuple[list[str], str]:
            keys = [str(key) for key in json_list(rec["keys"], "keys")]
            for key in keys:
                # word_tokens(key) == [key], at a fraction of the cost
                if not (key.isalnum() and key == key.lower()):
                    raise ValueError(f"key {key!r} matches no query: a key must be one lowercase word token")
            return keys, str(rec["snippet"])

        return cls(read_jsonl(path, WebToolError, "corpus record", record))

    def search(self, query: str, k: int) -> list[str]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        terms = set(word_tokens(query))
        hits = []
        for term in terms:
            idx = self._index.get(term, -1)
            while idx >= 0:
                keys, snippet = self._records[idx]
                if terms.issuperset(keys):
                    hits.append((-len(keys), idx, snippet))
                idx = self._next[idx]
        hits.sort()
        return [snippet for _, _, snippet in hits[:k]]


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
