"""Web search tools: a deterministic offline corpus and a remote HTTP client.

The offline corpus is JSON-lines, one record per snippet:
``{"keys": [normalized term, ...], "snippet": text}``. A query matches a
record when every key appears among the query's word terms; matches rank by
key count (more specific first), then corpus order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from pathlib import Path
from typing import Iterable, Sequence

from .jsonio import post_json, read_jsonl
from .text import word_tokens


class WebToolError(Exception):
    """Transport or protocol failure of a web tool backend."""


class WebTool(ABC):
    """Search interface used by the rollout engine. Implementations must be
    safe for concurrent queries and return at most ``k`` snippets."""

    @abstractmethod
    def search(self, query: str, k: int) -> list[str]:
        raise NotImplementedError


class OfflineWebTool(WebTool):
    def __init__(self, records: Iterable[tuple[Sequence[str], str]]):
        self._records = [(frozenset(keys), snippet) for keys, snippet in records]

    @classmethod
    def from_path(cls, path: str | Path) -> "OfflineWebTool":
        return cls(read_jsonl(
            path, WebToolError, "corpus record", lambda rec: ([str(key) for key in rec["keys"]], str(rec["snippet"]))
        ))

    def search(self, query: str, k: int) -> list[str]:
        terms = set(word_tokens(query))
        hits = [
            (len(keys), idx, snippet)
            for idx, (keys, snippet) in enumerate(self._records)
            if keys and keys <= terms
        ]
        hits.sort(key=lambda h: (-h[0], h[1]))
        return [snippet for _, _, snippet in hits[:k]]


class RemoteWebTool(WebTool):
    """POST {"query": text, "k": int} -> {"snippets": [text, ...]}."""

    def __init__(self, url: str, timeout: float = 30.0):
        self.url = url
        self.timeout = timeout

    def search(self, query: str, k: int) -> list[str]:
        snippets = post_json(self.url, {"query": query, "k": k}, "snippets", self.timeout, WebToolError)
        return [str(s) for s in snippets][:k]
