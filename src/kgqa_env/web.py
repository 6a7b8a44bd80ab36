"""Web search tools: a deterministic offline corpus and a remote HTTP client.

The offline corpus is JSON-lines, one record per snippet:
``{"keys": [normalized term, ...], "snippet": text}``. A query matches a
record when every key appears among the query's word terms; matches rank by
key count (more specific first), then corpus order. Query terms are
:func:`~kgqa_env.text.word_tokens`, so only a key that is one lowercase run
of letters and digits can match; :meth:`OfflineWebTool.from_path` rejects
any other, and the constructor keeps a record that holds one but never
files it.

:class:`OfflineWebTool` holds no object per record. It keeps two columns cut
into chunks of :data:`CHUNK` records: each record's sorted distinct keys,
space-joined, as one line of a chunk's text, and its snippet as UTF-8 bytes
of a chunk's bytes. An ``array("i")`` per column holds each record's end
offset in its chunk.

Each record with keys is filed in one bucket of a hash table, under its
rarest key: bucket ``hash(key) & mask`` of a power-of-two table with more
than two buckets a record. Rarity is counted per bucket, as the key
occurrences of the corpus that hash to it, which is a key's number of
records unless other keys share its bucket; ties go to the least key. So
the load keeps no map from each distinct key to its count, which for the
10^5 records of the benchmark corpus took about 10 MB beside 13 MB of
columns. A bucket is a chain of record positions: ``_index`` holds the last
record filed in each bucket, ``_next[idx]`` the one filed before ``idx``,
and -1 ends a chain. A query walks each distinct bucket of its terms once
and checks each record there against the record's own keys. A match holds
all its keys, so it is always in the bucket of the key it is filed under;
a record filed under another key that shares the bucket costs one check
and is never a hit; and no record is checked twice. The rarest key keeps
the buckets as small as the corpus allows: filed under a common word
instead, every record holding it would be checked by every query that
holds it.

The bucket table is process-local, because ``str`` hashes are salted per
interpreter (``PYTHONHASHSEED``): a forked worker shares it with its
parent, and nothing may persist it or pickle it. Pickling an
:class:`OfflineWebTool` raises ``TypeError``; another process loads the
corpus itself.
"""

from __future__ import annotations

import functools
import gc
import json
from abc import ABC, abstractmethod
from array import array
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Collection, Iterable, Iterator, Sequence, TypeVar

from .jsonio import convert_lines, json_list, json_text, post_json
from .text import word_tokens

_F = TypeVar("_F", bound=Callable)


def gc_paused(loader: _F) -> _F:
    """Run ``loader`` with the cyclic garbage collector paused.

    JSON decoding makes a dict and a list for each corpus record, and a
    chunk's worth of them alive at once starts a young collection every few
    hundred records: about 200 collections for 10^5 records, 0.03 s of a
    0.6 s load, none of them finding garbage. The caller's collector state
    is restored on return and on error; a caller that had paused it keeps
    it paused.

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


#: Records per chunk of a corpus column, and per read of a corpus file.
CHUNK = 1024
_SHIFT = CHUNK.bit_length() - 1


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


class _Column:
    """One text (``str`` or ``bytes``) per record, :data:`CHUNK` records to
    a chunk: record ``idx``'s text ends at ``ends[idx]`` in chunk
    ``idx // CHUNK`` and starts where the record before it in that chunk
    ends."""

    def __init__(self, empty: str | bytes):
        self.chunks: list = []
        self.ends = array("i")
        self._empty = empty

    def append(self, texts: Sequence) -> None:
        """Add the next chunk: the texts of :data:`CHUNK` records, or of the
        last records."""
        self.chunks.append(self._empty.join(texts))
        self.ends.extend(accumulate(map(len, texts)))

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, idx: int):
        start = self.ends[idx - 1] if idx & (CHUNK - 1) else 0
        return self.chunks[idx >> _SHIFT][start:self.ends[idx]]


class OfflineWebTool(WebTool):
    def __init__(self, records: Iterable[tuple[Sequence[str], str]]):
        records = iter(records)
        self._build(map(_matchable, iter(lambda: list(islice(records, CHUNK)), [])))

    def _build(self, chunks: Iterable[tuple[Sequence[Sequence[str]], Sequence[str]]]) -> None:
        """Fill the columns from the (keys, snippets) of :data:`CHUNK`
        records at a time (fewer in the last), then file the records (see
        the module docstring)."""
        # _records[idx] is record idx's keys, _snippets[idx] its snippet
        self._records, self._snippets = _Column(""), _Column(b"")
        # per chunk: the low 32 bits of its records' key hashes in key order,
        # and each record's key count
        filing = []
        for keys, snippets in chunks:
            keys = list(map(sorted, map(set, keys)))  # set() hashes each key, and a str keeps its hash
            hashes = array("I", map(0xFFFFFFFF.__and__, map(hash, chain.from_iterable(keys))))
            filing.append((hashes, array("i", map(len, keys))))
            self._records.append(list(map(str.__add__, map(" ".join, keys), repeat("\n"))))
            self._snippets.append(list(map(str.encode, snippets, repeat("utf-8"), repeat("surrogatepass"))))
        n = len(self._records)
        heads = array("i", [-1]) * (2 << n.bit_length())  # more than two buckets a record
        mask = len(heads) - 1
        # bucket -> key occurrences that hash to it; an array, not a list of
        # twice the size, which once freed left each later load in the
        # process about 2 MB more resident than the first
        held = array("i", [0]) * len(heads)
        for hashes, _ in filing:
            for key_hash in hashes:
                held[key_hash & mask] += 1
        nxt = array("i", [-1]) * n
        idx = 0
        for hashes, counts in filing:
            buckets, end = list(map(mask.__and__, hashes)), 0
            for count in counts:
                if count:  # keys are sorted, and min takes the first of equals
                    start, end = end, end + count
                    bucket = min(buckets[start:end], key=held.__getitem__)
                    nxt[idx] = heads[bucket]
                    heads[bucket] = idx
                idx += 1
        self._index, self._next = heads, nxt

    def __reduce__(self):
        # the bucket table holds this process's string hashes: see the module docstring
        raise TypeError("an OfflineWebTool cannot be pickled: load its corpus in each process")

    @classmethod
    @gc_paused
    def from_path(cls, path: str | Path) -> "OfflineWebTool":
        """Load a JSON-lines corpus. A malformed record, a key or snippet
        that is not a string, or a key that no query can match, raises
        :class:`WebToolError` naming the file and line."""
        tool = cls.__new__(cls)
        tool._build(_read_corpus(path))
        return tool

    def search(self, query: str, k: int) -> list[str]:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        terms = set(word_tokens(query))
        heads, nxt, records = self._index, self._next, self._records
        mask = len(heads) - 1
        hits = []
        for bucket in {hash(term) & mask for term in terms}:
            idx = heads[bucket]
            while idx >= 0:
                keys = records[idx].split()
                if terms.issuperset(keys):
                    hits.append((-len(keys), idx))
                idx = nxt[idx]
        hits.sort()
        return [self._snippets[idx].decode("utf-8", "surrogatepass") for _, idx in hits[:k]]


def _words_only(keys: Collection[str]) -> bool:
    """Whether every key is one word token, ``word_tokens(key) == [key]``,
    checked by a few calls over all the keys at once."""
    try:
        joined = " ".join(keys)
    except TypeError:  # a key that is not a string
        return False
    # One space per join: no key holds a space. Then each key is nonempty,
    # letters and digits only, and lowercase (str.lower maps a character by
    # its neighbours only for a capital sigma, which it always changes).
    return not keys or (joined.count(" ") == len(keys) - 1 and "" not in keys
                        and joined.replace(" ", "").isalnum() and joined == joined.lower())


def _matchable(records: list[tuple[Sequence[str], str]]) -> tuple[list[Sequence[str]], list[str]]:
    """(keys, snippets) of the records, with no keys for a record that holds
    a key no query can match, so that it is never filed."""
    keys, snippets = list(map(itemgetter(0), records)), list(map(itemgetter(1), records))
    if not _words_only(list(chain.from_iterable(keys))):
        keys = [k if _words_only(k) else () for k in keys]
    return keys, snippets


#: json.loads of a text's first value, without its checks for leading and
#: trailing whitespace, which _read_corpus makes for a whole chunk at once.
_scan = json.JSONDecoder().scan_once


def _read_corpus(path: str | Path) -> Iterator[tuple[list[list[str]], list[str]]]:
    """Yield the corpus's (keys, snippets), :data:`CHUNK` records at a time
    (fewer in the last). A chunk is decoded and checked by calls over the
    whole chunk; one that fails a check is read again line by line, which
    names its first bad line."""
    with Path(path).open(encoding="utf-8-sig") as fh:
        numbered = filter(lambda item: item[1].strip(), enumerate(fh, start=1))
        for chunk in iter(lambda: list(islice(numbered, CHUNK)), []):
            lines = list(map(itemgetter(1), chunk))
            try:
                # _scan raises StopIteration at a line that does not start with
                # a value, which ends the map early: the length check sees it.
                decoded = list(map(_scan, lines, repeat(0)))
                records = list(map(itemgetter(0), decoded))
                keys = list(map(itemgetter("keys"), records))
                snippets = list(map(itemgetter("snippet"), records))
                ends = list(map(len, map(str.rstrip, lines, repeat(" \t\n\r"))))  # JSON's whitespace
                checked = (len(decoded) == len(lines) and list(map(itemgetter(1), decoded)) == ends
                           and {*map(type, keys)} <= {list} and {*map(type, snippets)} <= {str}
                           and _words_only(list(chain.from_iterable(keys))))
            except (ValueError, KeyError, TypeError):
                checked = False
            if not checked:
                keys, snippets = _matchable(list(convert_lines(chunk, path, WebToolError, "corpus record", _record)))
            yield keys, snippets


def _record(rec: dict) -> tuple[list[str], str]:
    keys = json_list(rec["keys"], "keys")
    for key in keys:
        if not _words_only([json_text(key, "keys")]):
            raise ValueError(f"key {key!r} matches no query: a key must be one lowercase word token")
    return keys, json_text(rec["snippet"], "snippet")


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
