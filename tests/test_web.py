import json
import random
import re
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_env.text import word_tokens
from kgqa_env.web import OfflineWebTool, RemoteWebTool, WebToolError

# "two words" and "Caps" are never word terms of a query, so records that
# carry them never match; OfflineWebTool.from_path rejects them, the
# constructor does not.
_KEYS = ["capital", "city", "of", "denmark", "rial", "two words", "Caps"]


def _scan_oracle(records, query, k):
    """Brute-force scan: every record whose distinct keys all occur among
    the query's word terms, by key count, then corpus order."""
    terms = set(word_tokens(query))
    hits = [(-len(set(keys)), idx, snippet)
            for idx, (keys, snippet) in enumerate(records) if keys and set(keys) <= terms]
    return [snippet for *_, snippet in sorted(hits)[:k]]


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
        records += [(["the", "a"], "a1"), (["a", "b"], "a2"), (["d", "c"], "cd")]
        tool = OfflineWebTool(records)
        # "a" (2 records) beats "the" (21); "b" (1) beats "a"; "c" and "d"
        # tie at 1 and the least wins.
        assert tool._index == {**{f"u{n}": n for n in range(20)}, "a": 20, "b": 21, "c": 22}
        assert set(tool._next) == {-1}
        assert tool.search("the u3 a b", k=5) == ["doc 3", "a1", "a2"]

    @settings(max_examples=200, deadline=None)
    @given(
        keys=st.lists(st.lists(st.sampled_from(_KEYS), max_size=4), max_size=40),
        query=st.lists(st.sampled_from(_KEYS + ["zebra", "Denmark's"]), max_size=6).map(" ".join),
        k=st.integers(1, 12),
    )
    def test_search_matches_brute_force_scan(self, keys, query, k):
        # Empty key lists, duplicate keys and equal key counts all occur.
        records = [(record_keys, f"doc {idx}") for idx, record_keys in enumerate(keys)]
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
        # each distinct key is checked once, where it first appears
        path = tmp_path / "corpus.jsonl"
        lines = [{"keys": ["iran"]}, {"keys": ["rial", "Rial"]}, {"keys": ["iran"]}, {"keys": ["rial"]},
                 {"keys": ["Rial"]}]
        path.write_text("".join(json.dumps({**line, "snippet": "S."}) + "\n" for line in lines))
        with pytest.raises(WebToolError, match="line 2 of .*: key 'Rial' matches no query"):
            OfflineWebTool.from_path(path)

    def test_equal_keys_share_one_string(self, tmp_path):
        # JSON decoding makes a new string for each occurrence of a key
        path = tmp_path / "corpus.jsonl"
        path.write_text(json.dumps({"keys": ["rial", "iran"], "snippet": "The rial."}) + "\n"
                        + json.dumps({"keys": ["iran"], "snippet": "Iran."}) + "\n")
        tool = OfflineWebTool.from_path(path)
        assert tool._records == [("iran", "rial"), ("iran",)]
        assert tool._records[0][0] is tool._records[1][0]

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


def _bytes_per_record(load, n: int) -> float:
    """Bytes that the ``OfflineWebTool`` which ``load()`` returns keeps
    alive per record, by tracemalloc."""
    tracemalloc.start()
    try:
        tool = load()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tool._index) == n  # each record filed under its own key
    return held / n


def test_corpus_bytes_per_record():
    # Over records whose strings already exist. 116-147 B under Python
    # 3.10-3.13; a (keys, snippet) tuple per record and a list of position
    # ints took 178-189 B, and a frozenset of keys 337-346 B.
    records = _corpus_records(10_000)
    assert _bytes_per_record(lambda: OfflineWebTool(records), 10_000) < 170


def test_loaded_corpus_bytes_per_record(tmp_path):
    # Through from_path, where JSON decoding makes each key a new string.
    # 212-240 B under Python 3.10-3.13; a string per key occurrence took
    # 370-417 B.
    path = tmp_path / "corpus.jsonl"
    path.write_text("".join(json.dumps({"keys": keys, "snippet": snippet}) + "\n"
                            for keys, snippet in _corpus_records(10_000)))
    assert _bytes_per_record(lambda: OfflineWebTool.from_path(path), 10_000) < 280


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
