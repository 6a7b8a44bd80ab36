import json
import os
import pickle
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgqa_env
from kgqa_env.text import word_tokens
from kgqa_env.web import CHUNK, OfflineWebTool, RemoteWebTool, WebToolError, _words_only

# "two words" and "Caps" are never word terms of a query, so records that
# carry them never match; OfflineWebTool.from_path rejects them, the
# constructor keeps the records but files them nowhere.
_KEYS = ["capital", "city", "of", "denmark", "rial", "zürich", "ß", "東京", "two words", "Caps"]


def _scan_oracle(records, query, k):
    """Brute-force scan: every record whose distinct keys all occur among
    the query's word terms, by key count, then corpus order."""
    terms = set(word_tokens(query))
    hits = [(-len(set(keys)), idx, snippet)
            for idx, (keys, snippet) in enumerate(records) if keys and set(keys) <= terms]
    return [snippet for *_, snippet in sorted(hits)[:k]]


def _filed(tool) -> dict[int, int]:
    """Record position -> the bucket it is filed in, for each filed record."""
    filed = {}
    for bucket, idx in enumerate(tool._index):
        while idx >= 0:
            assert idx not in filed  # in one chain only
            filed[idx] = bucket
            idx = tool._next[idx]
    return filed


class TestOfflineCorpus:
    def _tool(self):
        return OfflineWebTool([
            (["iranian", "rial", "currency"], "The Iranian rial is the currency of Iran."),
            (["denmark", "capital"], "Copenhagen is the capital of Denmark."),
            (["capital"], "Generic capital trivia."),
        ])

    def test_all_keys_must_appear(self):
        tool = self._tool()
        assert tool.search("iranian rial currency_of", k=5) == ["The Iranian rial is the currency of Iran."]
        assert tool.search("iranian currency", k=5) == []

    def test_more_specific_records_rank_first(self):
        tool = self._tool()
        got = tool.search("denmark capital city", k=5)
        assert got == ["Copenhagen is the capital of Denmark.", "Generic capital trivia."]

    def test_k_caps_results(self):
        tool = OfflineWebTool([(["x"], f"doc {i}") for i in range(10)])
        assert len(tool.search("x", k=3)) == 3

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            self._tool().search("iranian rial currency", k)

    def test_corpus_order_breaks_ties(self):
        tool = OfflineWebTool([(["x"], "first"), (["x"], "second")])
        assert tool.search("x y z", k=2) == ["first", "second"]
        # records under different keys: query term order must not matter
        keys = ["u", "v", "w", "x", "y", "z"]
        tool = OfflineWebTool([([key], key) for key in keys])
        assert tool.search("z y x w v u", k=6) == keys

    def test_records_are_filed_under_their_rarest_key(self):
        # Filed under "the", which every record holds, each record would be
        # checked by every query that holds "the".
        records = [(["the", f"u{n}"], f"doc {n}") for n in range(20)]
        records += [(["the", "a"], "a1"), (["a", "b", "a"], "a2"), (["d", "c"], "cd"), ([], "none"),
                    (["c", "Caps"], "caps")]
        tool = OfflineWebTool(records)
        size = len(tool._index)
        assert size > 2 * len(records) and size & (size - 1) == 0
        bucket = lambda key: hash(key) & (size - 1)  # noqa: E731
        # Each bucket's count of key occurrences stands for each of its keys'
        # count; the first least held key of a record's sorted keys wins.
        # Neither a record without keys nor one that no query can match is
        # filed or counted.
        matchable = [sorted(set(keys)) if all(word_tokens(k) == [k] for k in keys) else []
                     for keys, _ in records]
        held = Counter(bucket(key) for keys in matchable for key in keys)
        want = {idx: min(map(bucket, keys), key=held.__getitem__) for idx, keys in enumerate(matchable) if keys}
        assert _filed(tool) == want
        assert all(want[n] == bucket(f"u{n}") for n in range(20))  # not under "the", held 21 times
        assert tool.search("the u3 a b", k=5) == ["doc 3", "a1", "a2"]
        assert tool.search("c caps d", k=5) == ["cd"]

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.lists(st.sampled_from(_KEYS), max_size=4), max_size=40),
        snippets=st.lists(st.text(max_size=6), min_size=1, max_size=4),
        pad=st.sampled_from([0, CHUNK - 7, 2 * CHUNK + 3]),
        query=st.lists(st.sampled_from(_KEYS + ["zebra", "Denmark's", "ZÜRICH"]), max_size=6).map(" ".join),
        k=st.integers(1, 12),
    )
    def test_search_matches_brute_force_scan(self, keys, snippets, pad, query, k):
        # Empty key lists, duplicate keys, equal key counts, non-ASCII keys
        # and snippets; after the padding, records on both sides of a chunk
        # boundary.
        records = [(["padding"], "p")] * pad
        records += [(record_keys, f"{snippets[idx % len(snippets)]} {idx}") for idx, record_keys in enumerate(keys)]
        assert OfflineWebTool(records).search(query, k) == _scan_oracle(records, query, k)

    def test_malformed_corpus_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"keys": ["a"]}\n')
        with pytest.raises(WebToolError, match="line 1"):
            OfflineWebTool.from_path(path)

    @pytest.mark.parametrize("key", ["Caps", "two words", "", "currency_of", "iran's"])
    def test_key_no_query_can_match_names_key_and_line(self, tmp_path, key):
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"keys": ["iran"], "snippet": "Iran."}) + "\n"
                        + json.dumps({"keys": ["rial", key], "snippet": "The rial."}) + "\n")
        with pytest.raises(WebToolError, match=f"line 2 of {path}: key {re.escape(repr(key))} matches no query"):
            OfflineWebTool.from_path(path)

    def test_a_repeated_bad_key_is_named_at_its_first_line(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [{"keys": ["iran"]}, {"keys": ["rial", "Rial"]}, {"keys": ["iran"]}, {"keys": ["rial"]},
                 {"keys": ["Rial"]}]
        path.write_text("".join(json.dumps({**line, "snippet": "S."}) + "\n" for line in lines))
        with pytest.raises(WebToolError, match="line 2 of .*: key 'Rial' matches no query"):
            OfflineWebTool.from_path(path)

    def test_columns_hold_no_object_per_record(self, tmp_path):
        # JSON decoding makes a string for each key and each snippet; the
        # tool keeps one text and one bytes object for each chunk of records.
        path = tmp_path / "corpus.jsonl"
        records = [(["rial", "iran", "rial"], "The rial."), (["iran"], "Iran, Ελλάδα, \ud800."),
                   *(([f"k{i}"], f"S{i}.") for i in range(CHUNK))]
        path.write_text("".join(json.dumps({"keys": k, "snippet": s}) + "\n" for k, s in records))
        tool = OfflineWebTool.from_path(path)
        assert len(tool._records) == len(tool._snippets) == CHUNK + 2
        assert [type(c) for c in tool._records.chunks] == [str, str]
        assert [type(c) for c in tool._snippets.chunks] == [bytes, bytes]
        assert tool._records.chunks[0].startswith("iran rial\niran\nk0\n")
        assert tool._records[0] == "iran rial\n" and tool._records[CHUNK + 1] == f"k{CHUNK - 1}\n"
        assert tool.search("Iran rial", 2) == ["The rial.", "Iran, Ελλάδα, \ud800."]
        assert tool.search(f"k{CHUNK - 1}", 1) == [f"S{CHUNK - 1}."]

    def test_from_path_holds_what_the_constructor_holds(self, tmp_path):
        records = [(keys, f"{snippet} é") for keys, snippet in _corpus_records(2 * CHUNK + 10)]
        lines = [json.dumps({"keys": k, "snippet": s}, ensure_ascii=i % 2 == 0) for i, (k, s) in enumerate(records)]
        lines[5] = " " + lines[5]  # json.loads takes it; the chunk is read line by line
        lines[CHUNK + 3] += " \t"
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines[:CHUNK]) + "\n\n \n" + "\n".join(lines[CHUNK:]))  # no last newline
        loaded, built = OfflineWebTool.from_path(path), OfflineWebTool(records)
        for column in ("_records", "_snippets"):
            assert getattr(loaded, column).chunks == getattr(built, column).chunks
            assert getattr(loaded, column).ends == getattr(built, column).ends
        assert _filed(loaded) == _filed(built)

    def test_a_bad_line_past_the_first_chunk_is_named(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [json.dumps({"keys": [f"k{i}"], "snippet": "S."}) for i in range(CHUNK + 5)]
        lines.insert(CHUNK + 2, "")
        lines.insert(CHUNK + 4, json.dumps({"keys": ["k1", "K2"], "snippet": "S."}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(WebToolError, match=f"line {CHUNK + 5} of .*: key 'K2' matches no query"):
            OfflineWebTool.from_path(path)

    @settings(deadline=None)
    @given(key=st.text(max_size=4))
    def test_rejects_exactly_the_keys_no_query_can_hold(self, key):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.jsonl"
            path.write_text(json.dumps({"keys": [key], "snippet": "S."}) + "\n")
            if word_tokens(key) == [key]:
                assert OfflineWebTool.from_path(path).search(key, 1) == ["S."]
            else:
                with pytest.raises(WebToolError, match="matches no query"):
                    OfflineWebTool.from_path(path)

    def test_string_keys_are_not_a_list(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"keys": "iran", "snippet": "Iran is a country."}\n')
        with pytest.raises(WebToolError, match=f"line 1 of {path}: 'keys' must be a list"):
            OfflineWebTool.from_path(path)

    @pytest.mark.parametrize("value", [None, 5, {"a": 1}, ["iran"]], ids=["null", "number", "object", "list"])
    @pytest.mark.parametrize("field", ["keys", "snippet"])
    def test_a_value_that_is_not_text_names_file_and_line(self, tmp_path, field, value):
        # once as the first sight of a key, once after the same key as text
        path = tmp_path / "corpus.jsonl"
        bad = {"keys": ["iran", value], "snippet": "S."} if field == "keys" else {"keys": ["iran"], "snippet": value}
        path.write_text(json.dumps({"keys": ["iran", "5"], "snippet": "Iran."}) + "\n" + json.dumps(bad) + "\n")
        with pytest.raises(WebToolError, match=f"line 2 of {path}: '{field}' must be text"):
            OfflineWebTool.from_path(path)


def _corpus_records(n: int) -> list[tuple[list[str], str]]:
    """``n`` generated records that, like the benchmark corpus, each hold a
    key of their own and two or three of 300 common words."""
    rng = random.Random(0)
    words = [f"word{i}" for i in range(300)]
    return [([f"zq{i:05d}", *rng.sample(words, rng.choice((2, 3)))], f"snippet {i}") for i in range(n)]


def _bytes_per_record(load, n: int) -> tuple[float, float]:
    """Bytes per record that the ``OfflineWebTool`` which ``load()``
    returns keeps alive, and that the load peaks at, by tracemalloc."""
    tracemalloc.start()
    try:
        tool = load()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(_filed(tool)) == n
    return held / n, peak / n


def test_corpus_bytes_per_record():
    # Over records whose strings already exist. 64.7-64.9 B under Python
    # 3.10-3.13; a key tuple, a snippet string and a dict entry per record
    # took 137-146 B, a (keys, snippet) tuple per record and a list of
    # position ints 178-189 B, and a frozenset of keys 337-346 B.
    records = _corpus_records(10_000)
    assert _bytes_per_record(lambda: OfflineWebTool(records), 10_000)[0] < 75


def test_loaded_corpus_bytes_per_record(tmp_path):
    # Through from_path, where JSON decoding makes each key and snippet a
    # new string. 64.9-66.0 B kept and 121-129 B at the peak under Python
    # 3.10-3.13. One string per distinct key, a key tuple and a snippet
    # string per record kept 241-270 B and peaked at 280-326 B; a string
    # per key occurrence kept 370-417 B (over 10^4 records).
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"keys": keys, "snippet": snippet}) + "\n"
                            for keys, snippet in _corpus_records(30_000)))
    held, peak = _bytes_per_record(lambda: OfflineWebTool.from_path(path), 30_000)
    assert held < 76
    assert peak < 150


@settings(deadline=None)
@given(keys=st.lists(st.one_of(st.text(max_size=3), st.text("aA1_ ΣσςÅ\u0301", max_size=3)), max_size=5))
def test_one_word_check_over_many_keys_is_the_check_of_each(keys):
    assert _words_only(keys) == all(word_tokens(key) == [key] for key in keys)


_SEARCHES = """
import json, sys
from kgqa_env.web import OfflineWebTool
tool = OfflineWebTool.from_path(sys.argv[1])
print(json.dumps([tool.search(query, 5) for query in json.loads(sys.argv[2])]))
"""


def test_searches_do_not_depend_on_the_hash_seed(tmp_path):
    # str hashes, and with them every record's bucket, differ from one
    # interpreter to the next
    records = _corpus_records(2 * CHUNK + 10) + [(["zürich", "word1"], "Zürich."), (["word1"], "1.")]
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"keys": k, "snippet": s}) + "\n" for k, s in records))
    queries = ["ZÜRICH word1 word2", "word1", "none",
               *(" ".join(["extra", *records[idx][0], "word1"]) for idx in (7, CHUNK + 1, 2 * CHUNK + 5))]
    want = [OfflineWebTool(records).search(query, 5) for query in queries]
    assert want[2] == [] and all(want[:2] + want[3:])
    src = str(Path(kgqa_env.__file__).resolve().parents[1])
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", _SEARCHES, str(path), json.dumps(queries)],
                             env=env, capture_output=True, text=True, check=True, timeout=120).stdout
        assert json.loads(out) == want


def test_a_tool_is_not_pickled():
    # its buckets would be wrong in a process with other string hashes
    with pytest.raises(TypeError, match="cannot be pickled"):
        pickle.dumps(OfflineWebTool([(["iran"], "Iran.")]))


class TestRemoteWeb:
    def test_wire_protocol(self, stub_server):
        def serve(body):
            assert set(body) == {"query", "k"}
            assert body["k"] == 2
            return 200, {"snippets": ["doc a", "doc b", "doc c"]}

        stub_server.route("/web", serve)
        tool = RemoteWebTool(stub_server.url("/web"))
        assert tool.search("some query", k=2) == ["doc a", "doc b"]

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one_is_rejected_without_a_request(self, stub_server, k):
        stub_server.route("/web", lambda body: (200, {"snippets": ["doc a", "doc b"]}))
        with pytest.raises(ValueError, match="k must be >= 1"):
            RemoteWebTool(stub_server.url("/web")).search("q", k)
        assert stub_server.requests == []

    def test_non_string_snippet_raises(self, stub_server):
        stub_server.route("/web", lambda body: (200, {"snippets": [None]}))
        with pytest.raises(WebToolError, match="not a list of strings"):
            RemoteWebTool(stub_server.url("/web")).search("q", k=1)

    def test_transport_failure_raises(self, stub_server):
        tool = RemoteWebTool(stub_server.url("/missing"), timeout=5)
        with pytest.raises(WebToolError):
            tool.search("q", k=1)
