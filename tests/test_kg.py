import gc
import json
import os
import pickle
import random
import re
import subprocess
import sys
import tracemalloc
from contextlib import contextmanager
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgqa_env
from kgqa_env import kg as kgqa_kg
from kgqa_env import web as kgqa_web
from kgqa_env.kg import (
    SENTINEL,
    TOP_K_RELATIONS,
    KGError,
    KnowledgeGraph,
    Triple,
    display,
    is_sentinel,
    load_aliases,
    load_triples,
    read_removal_log,
    sample_ikg,
    write_removal_log,
    write_triples,
)
from kgqa_env.data import TOY_ALIASES, TOY_KG
from kgqa_env.qa import QAExample
from kgqa_env.text import levenshtein, normalize, word_tokens
from kgqa_env.web import OfflineWebTool

_TK1 = Path(__file__).parent / "data" / "tk1.tsv"


def _example(qid, crits):
    return QAExample(
        id=qid,
        question="q",
        topic_entities=(),
        answers=(("x",),),
        critical_triples=tuple(Triple(*t) for t in crits),
    )


class TestLoad:
    def test_tk1_counts(self, tk1):
        assert len(tk1) == 3
        assert len(tk1.head_index) == 3

    def test_duplicates_are_dropped(self, tmp_path):
        p = tmp_path / "dup.tsv"
        p.write_text("a\tr\tb\na\tr\tb\nc\tr\td\n")
        assert len(load_triples(p)) == 2

    def test_malformed_line_names_line_number(self, tmp_path):
        p = tmp_path / "bad.tsv"
        p.write_text("a\tr\tb\na\tr\n")
        with pytest.raises(KGError, match="line 2"):
            load_triples(p)

    @pytest.mark.parametrize("line", ["a\tr\t", "a\tr\t .", "\tr\tb", "a\t;\tb", "a\tr\t.\u00a0.", "a\t-\x1c-\tb"])
    def test_empty_field_names_line(self, tmp_path, line):
        p = tmp_path / "bad.tsv"
        p.write_text(f"a\tr\tb\n{line}\n")
        with pytest.raises(KGError, match="line 2: empty head, relation or tail"):
            load_triples(p)

    def test_byte_order_mark_is_not_part_of_the_first_head(self, tmp_path):
        p = tmp_path / "bom.tsv"
        p.write_text("Iranian_rial\tcurrency_of\tIran\n", encoding="utf-8-sig")
        kg = load_triples(p)
        assert kg.triples == {Triple("Iranian_rial", "currency_of", "Iran")}
        assert kg.resolve_entity("Iranian rial") == "Iranian_rial"
        assert kg.neighbor_search("Iranian_rial", "currency_of") == {"Iran"}

    def test_blank_lines_are_skipped(self, tmp_path):
        p = tmp_path / "blank.tsv"
        p.write_text("\n  \na\tr\tb\n\t\t\n")
        assert load_triples(p).triples == {Triple("a", "r", "b")}

    def test_triples_are_derived_and_read_only(self, tk1):
        assert tk1.triples == {Triple(h, r, t) for (h, r), ts in tk1.pair_index.items() for t in ts}
        assert tk1.triples is tk1.triples
        with pytest.raises(AttributeError):
            tk1.triples = frozenset()

    def test_write_triples_round_trips_sorted(self, toy_kg, tmp_path):
        p = tmp_path / "out.tsv"
        write_triples(toy_kg, p)
        lines = p.read_text().splitlines()
        assert lines == sorted(lines) and len(lines) == len(toy_kg)
        assert load_triples(p).triples == toy_kg.triples

    def test_empty_file_is_an_error(self, tmp_path):
        p = tmp_path / "empty.tsv"
        p.write_text("")
        with pytest.raises(KGError, match="empty"):
            load_triples(p)

    def test_malformed_alias_record_names_file_and_line(self, tmp_path):
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text('{"entity": "a", "aliases": ["A"]}\n{"entity": "b", "aliases": 5}\n')
        with pytest.raises(KGError, match=f"line 2 of {aliases}"):
            load_aliases(aliases)

    def test_unknown_coverage_label_names_file_and_line(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "q", "removed": [], "coverage": "PARTIAL"}\n')
        with pytest.raises(KGError, match=f"line 1 of {log}: unknown coverage label 'PARTIAL'"):
            read_removal_log(log)

    @pytest.mark.parametrize("record", ['{"id": "q", "removed": [], "coverage": "IKG"}',
                                        '{"id": "q", "removed": [["a", "r", "b"]], "coverage": "CKG"}'])
    def test_coverage_label_must_agree_with_removals(self, tmp_path, record):
        log = tmp_path / "log.jsonl"
        log.write_text(record + "\n")
        with pytest.raises(KGError, match=f"line 1 of {log}: coverage label '.KG' disagrees"):
            read_removal_log(log)

    def test_repeated_removal_log_id_names_file_and_line(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "q", "removed": [], "coverage": "CKG"}\n'
                       '{"id": "q", "removed": [["a", "r", "b"]], "coverage": "IKG"}\n')
        with pytest.raises(KGError, match=f"line 2 of {log}: duplicate question id 'q'"):
            read_removal_log(log)

    def test_numeric_removal_log_id_is_read_as_text(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": 5, "removed": [["a", "r", "b"]], "coverage": "IKG"}\n')
        back = read_removal_log(log)
        assert back.entries == {"5": [Triple("a", "r", "b")]}
        assert back.coverage == {"5": "IKG"}

    def test_string_aliases_are_not_a_list(self, tmp_path):
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text('{"entity": "Iran", "aliases": "Persia"}\n')
        with pytest.raises(KGError, match=f"line 1 of {aliases}: 'aliases' must be a list"):
            load_aliases(aliases)

    @pytest.mark.parametrize("value", ["null", "true", "false", '["a"]', '{"a": 1}'],
                             ids=["null", "true", "false", "list", "object"])
    def test_alias_entity_that_is_neither_text_nor_a_number_names_file_and_line(self, tmp_path, value):
        # str() made the entity "None", which "nobody" then resolved to
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text(f'{{"entity": "a", "aliases": ["A"]}}\n{{"entity": {value}, "aliases": ["Nobody"]}}\n')
        with pytest.raises(KGError, match=f"line 2 of {aliases}: 'entity' must be text or a number"):
            load_aliases(aliases)

    @pytest.mark.parametrize("value", ["null", "true", "false", '["q"]', '{"a": 1}'],
                             ids=["null", "true", "false", "list", "object"])
    def test_removal_log_id_that_is_neither_text_nor_a_number_names_file_and_line(self, tmp_path, value):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "q", "removed": [], "coverage": "CKG"}\n'
                       f'{{"id": {value}, "removed": [], "coverage": "CKG"}}\n')
        with pytest.raises(KGError, match=f"line 2 of {log}: 'id' must be text or a number"):
            read_removal_log(log)

    def test_numeric_alias_entity_is_read_as_text(self, tmp_path):
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text('{"entity": 5, "aliases": ["five"]}\n')
        assert load_aliases(aliases) == {"5": ["five"]}

    @pytest.mark.parametrize("entity", [" ", "", " .;", ".\u2003."])
    def test_blank_alias_entity_names_file_and_line(self, tmp_path, entity):
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text(f'{{"entity": "a", "aliases": ["A"]}}\n{{"entity": "{entity}", "aliases": ["Persia"]}}\n')
        with pytest.raises(KGError, match=f"line 2 of {aliases}: empty entity"):
            load_aliases(aliases)

    def test_alias_entity_is_trimmed_like_a_triple_field(self, tmp_path):
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text('{"entity": " Iran\\t", "aliases": ["Persia"]}\n')
        triples = tmp_path / "kg.tsv"
        triples.write_text("Iran \tcurrency\tRial\n")
        kg = load_triples(triples, aliases)
        assert kg.resolve_entity("Persia") == kg.resolve_entity("Iran") == "Iran"
        assert kg.neighbor_search("Iran", "currency") == {"Rial"}

    @pytest.mark.parametrize("value", ["null", "3", '{"a": 1}'], ids=["null", "number", "object"])
    def test_alias_that_is_not_text_names_file_and_line(self, tmp_path, value):
        # str() would make "none" or "3" resolve to the entity
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text(f'{{"entity": "a", "aliases": ["A"]}}\n{{"entity": "Iran", "aliases": ["Persia", {value}]}}\n')
        with pytest.raises(KGError, match=f"line 2 of {aliases}: 'aliases' must be text"):
            load_aliases(aliases)

    @pytest.mark.parametrize("value", ["null", "3", '{"a": 1}'], ids=["null", "number", "object"])
    def test_removed_triple_member_that_is_not_text_names_file_and_line(self, tmp_path, value):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "q", "removed": [], "coverage": "CKG"}\n'
                       f'{{"id": "r", "removed": [["a", {value}, "b"]], "coverage": "IKG"}}\n')
        with pytest.raises(KGError, match=f"line 2 of {log}: 'removed' must be text"):
            read_removal_log(log)

    @pytest.mark.parametrize("triple", ['["a", "r"]', '["a", "r", "b", "c"]'], ids=["two", "four"])
    def test_removed_triple_of_the_wrong_length_names_file_and_line(self, tmp_path, triple):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "q", "removed": [], "coverage": "CKG"}\n'
                       f'{{"id": "r", "removed": [{triple}], "coverage": "IKG"}}\n')
        value = re.escape(repr(json.loads(triple)))
        with pytest.raises(KGError, match=f"line 2 of {log}: 'removed' entry must be \\[head, relation, tail\\], "
                                          f"got {value}$"):
            read_removal_log(log)

    def test_string_removed_triple_is_not_a_list(self, tmp_path):
        log = tmp_path / "log.jsonl"
        log.write_text('{"id": "q", "removed": ["abc"], "coverage": "IKG"}\n')
        with pytest.raises(KGError, match=f"line 1 of {log}: 'removed' must be a list"):
            read_removal_log(log)

    def test_alias_map_defaults_to_display_form(self, tk1):
        assert tk1.aliases == {}  # no alias file, so only the display form resolves
        assert tk1.neighbor_search("Analyze_That", "written_by") == {"Harold Ramis"}
        assert tk1.resolve_entity("iranian rial") == "Iranian_rial"
        assert tk1.resolve_entity("Iranian_rial") == "Iranian_rial"
        assert tk1.resolve_entity("missing thing") is None

    def test_indices_rebuild_equal(self, tk1, toy_kg):
        for kg in (tk1, toy_kg):
            rebuilt = KnowledgeGraph.from_triples(kg.triples, kg.aliases)
            assert rebuilt == kg
            assert rebuilt.head_index == kg.head_index
            assert rebuilt.pair_index == kg.pair_index
            assert rebuilt.relations == kg.relations


_HUB_WORDS = ["place", "of", "birth", "film", "country", "people", "person", "Zürich", "straße", "köln2"]


_HYP_WORDS = ["place", "of", "birth", "straße"]
_OTHER_WORDS = ["film", "country", "people", "Zürich", "ßß"]
_TOKENLESS = ["__", "._.", "_·_", "—", "._—_."]


def _joined(words):
    return st.tuples(st.sampled_from("_."), st.lists(words, min_size=1, max_size=3)).map(lambda p: p[0].join(p[1]))


def _holding_one_of(hyp_words):
    """A relation name of 1-3 words, at least one of them from ``hyp_words``."""
    return st.builds(lambda sep, words, word, at: sep.join([*words[:at], word, *words[at:]]),
                     st.sampled_from("_."), st.lists(st.sampled_from(_HYP_WORDS + _OTHER_WORDS), max_size=2),
                     st.sampled_from(hyp_words), st.integers(0, 2))


@st.composite
def _hubs_around_k(draw):
    """A head whose count of relations sharing a word with the hypothesis
    is drawn around :data:`TOP_K_RELATIONS` (fewer, exactly as many or
    more), next to 1-12 relations sharing none, some of them with no word
    token at all; so the head holds 13-30 relations, on either side of the
    budget."""
    hyp_words = draw(st.lists(st.sampled_from(_HYP_WORDS), min_size=1, max_size=3, unique=True))
    unused = [w for w in _HYP_WORDS if w not in hyp_words] + _OTHER_WORDS
    n_sharing = TOP_K_RELATIONS + draw(st.integers(-3, 3))
    sharing = draw(st.lists(_holding_one_of(hyp_words), min_size=n_sharing, max_size=n_sharing, unique=True))
    others = draw(st.lists(st.one_of(st.sampled_from(_TOKENLESS), _joined(st.sampled_from(unused))),
                           min_size=1, max_size=12, unique=True))
    hyp = draw(st.one_of(st.just(" ".join(hyp_words)), st.sampled_from(["", "?!", "__", " . "])))
    return sorted(set(sharing) | set(others)), hyp


@contextmanager
def _levenshtein_calls():
    """Record the strings of each call ``relation_search`` makes to the
    edit distance, through the module global it calls."""
    calls = []

    def counting(a, others):
        calls.append(list(others))
        return levenshtein(a, others)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kgqa_kg, "levenshtein", counting)
        yield calls


class TestRelationSearch:
    def test_default_k_is_15(self):
        triples = [Triple("e", f"rel_{i}", "t") for i in range(30)]
        kg = KnowledgeGraph.from_triples(triples)
        assert TOP_K_RELATIONS == 15
        assert len(kg.relation_search("e", "rel")) == 15

    def test_single_relation_entity(self, tk1):
        assert tk1.relation_search("Analyze_That", "anything at all") == ["written_by"]

    def test_equal_tokens_of_two_relations_are_one_string(self):
        # word_tokens makes a new string for each occurrence of a token
        kg = KnowledgeGraph.from_triples([("a", "film.release_date", "b"), ("c", "music.release_date", "d")])
        film, music = (kg._relation_tokens[kg._relation_names.index(r)]
                       for r in ("film.release_date", "music.release_date"))
        shared = [next(t for t in tokens if t == "release") for tokens in (film, music)]
        assert shared[0] is shared[1]
        assert next(t for t in kg._token_relations if t == "release") is shared[0]

    def test_unknown_entity_gives_empty_list(self, tk1):
        assert tk1.relation_search("Nobody", "hypothesis") == []

    def test_tk1_ranking_matches_brute_force(self, tk1):
        assert tk1.relation_search("Iranian_rial", "used in country") == \
            _rank_oracle(tk1, "Iranian_rial", "used in country")[:TOP_K_RELATIONS]

    def test_ranking_matches_brute_force_on_random_graphs(self):
        rng = random.Random(7)
        words = ["currency", "of", "used", "in", "country", "film", "by", "capital", "city", "river"]
        for _ in range(40):
            # heads of 1-30 relations, on either side of the budget
            rels = {
                "_".join(rng.sample(words, rng.randint(1, 3)))
                for _ in range(rng.randint(1, 30))
            }
            kg = KnowledgeGraph.from_triples(Triple("e", r, f"t{i}") for i, r in enumerate(sorted(rels)))
            hyp = " ".join(rng.sample(words, rng.randint(1, 4)))
            got = kg.relation_search("e", hyp)
            assert got == _rank_oracle(kg, "e", hyp)[:TOP_K_RELATIONS]
            assert all(r in kg.head_index["e"] for r in got)

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        n_rels=st.integers(100, 400),
        hyp=st.lists(st.sampled_from(_HUB_WORDS + ["Ünïcode"]), max_size=5).map(" ".join),
    )
    def test_hub_ranking_matches_brute_force(self, seed, n_rels, hyp):
        # Names of 1-3 words from a small vocabulary, joined by "_" or ".":
        # hundreds of relations share a few Jaccard values, so ties straddle
        # the budget's last place, and equal token sets differ in edit distance.
        rng = random.Random(seed)
        rels = set()
        while len(rels) < n_rels:
            rels.add(rng.choice("_.").join(rng.choices(_HUB_WORDS, k=rng.randint(1, 3))))
        kg = KnowledgeGraph.from_triples(Triple("hub", r, f"t{i}") for i, r in enumerate(sorted(rels)))
        with _levenshtein_calls() as calls:
            assert kg.relation_search("hub", hyp) == _rank_oracle(kg, "hub", hyp)[:TOP_K_RELATIONS]
        # one batched call at most, and only over relations that tie
        assert len(calls) <= 1 and all(len(others) >= 2 for others in calls)

    def test_untied_relations_take_no_edit_distance(self, tk1):
        # "used in country": Jaccard 1, 1/3 and 1/5, all different
        kg = KnowledgeGraph.from_triples(Triple("e", r, "t") for r in ["used_in_country", "country", "film_by_used"])
        with _levenshtein_calls() as calls:
            assert tk1.relation_search("Analyze_That", "anything at all") == ["written_by"]
            assert kg.relation_search("e", "used in country") == ["used_in_country", "country", "film_by_used"]
            assert kg.relation_search("e", "used in country") == _rank_oracle(kg, "e", "used in country")
        assert calls == []

    @pytest.mark.parametrize("hyp", ["", "?!", " . __", "based on"])
    def test_tokenless_hypothesis_ties_a_whole_hub_in_one_call(self, hyp):
        # A tokenless hypothesis scores every relation Jaccard 0, so all 800
        # tie at the 15th place; "based on" reaches only two relations, fewer
        # than the budget, so the hub is ranked whole and every relation that
        # shares no word with it ties at Jaccard 0.
        rng = random.Random(3)
        rels = {"based_on", "film.based"}
        while len(rels) < 800:
            rels.add(rng.choice("_.").join(rng.choices(_HUB_WORDS, k=rng.randint(1, 3))))
        kg = KnowledgeGraph.from_triples(Triple("hub", r, "t") for r in rels)
        with _levenshtein_calls() as calls:
            assert kg.relation_search("hub", hyp) == _rank_oracle(kg, "hub", hyp)[:TOP_K_RELATIONS]
        words = set(word_tokens(hyp))
        jaccard_0 = [r.lower() for r in rels if not words.intersection(word_tokens(r))]
        assert len(calls) == 1 and sorted(calls[0]) == sorted(jaccard_0)

    def test_jaccard_is_shared_words_over_all_words(self):
        # "used in country" shares 2 of its 3 words with country_used and
        # with used_in (Jaccard 2/3 each, so the edit distance orders them),
        # 3 of 4 with in_country_used_by, 1 of 3 with country; "anything"
        # shares none with any relation, a tokenless one included (Jaccard 0).
        rels = ["country", "country_used", "used_in", "__", "in_country_used_by"]
        kg = KnowledgeGraph.from_triples(Triple("e", r, "t") for r in rels)
        assert kg.relation_search("e", "used in country") == \
            ["in_country_used_by", "used_in", "country_used", "country", "__"]
        assert kg.relation_search("e", "anything") == ["used_in", "__", "country", "country_used", "in_country_used_by"]
        for hyp in ("used in country", "anything"):
            assert kg.relation_search("e", hyp) == _rank_oracle(kg, "e", hyp)

    @settings(max_examples=300, deadline=None)
    @given(case=_hubs_around_k())
    def test_ranking_matches_brute_force_around_k_sharing(self, case):
        # The token index narrows scoring to word-sharing relations only
        # when they fill the budget; either side of that line, and on it,
        # the ranking is the exhaustive one.
        rels, hyp = case
        kg = KnowledgeGraph.from_triples(Triple("hub", r, f"t{i}") for i, r in enumerate(rels))
        with _levenshtein_calls() as calls:
            assert kg.relation_search("hub", hyp) == _rank_oracle(kg, "hub", hyp)[:TOP_K_RELATIONS]
        assert len(calls) <= 1 and all(len(others) >= 2 for others in calls)

    def test_fewer_than_k_sharing_still_fills_k(self):
        rels = ["place_of_birth", "film", "ßß", "country", *(f"other_{i:02d}" for i in range(14))]
        kg = KnowledgeGraph.from_triples(Triple("hub", r, "t") for r in rels)
        assert len(kg.head_index["hub"]) > TOP_K_RELATIONS  # so the token index narrows it
        got = kg.relation_search("hub", "place")
        assert got[0] == "place_of_birth" and len(got) == TOP_K_RELATIONS
        assert got == _rank_oracle(kg, "hub", "place")[:TOP_K_RELATIONS]

    @settings(max_examples=100, deadline=None)
    @given(
        rels=st.lists(_joined(st.sampled_from(_HUB_WORDS)) | st.sampled_from(_TOKENLESS),
                      min_size=1, max_size=TOP_K_RELATIONS, unique=True),
        hyp=st.lists(st.sampled_from(_HUB_WORDS + ["Ünïcode"]), max_size=4).map(" ".join),
    )
    def test_a_head_within_the_budget_takes_no_token_index(self, rels, hyp):
        # a head within the budget fits in one answer, so it is ranked whole
        kg = KnowledgeGraph.from_triples(Triple("e", r, "t") for r in rels)
        assert type(kg.head_index["e"]) is tuple
        blind = kg._replace(_token_relations={})
        assert blind.relation_search("e", hyp) == kg.relation_search("e", hyp) == _rank_oracle(kg, "e", hyp)


def _edit_distance_oracle(a, b):
    """Independent full-matrix edit distance."""
    m, n = len(a), len(b)
    d = [[0] * (n + 1) for _ in range(m + 1)]
    for i in range(m + 1):
        d[i][0] = i
    for j in range(n + 1):
        d[0][j] = j
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(d[i - 1][j] + 1, d[i][j - 1] + 1, d[i - 1][j - 1] + cost)
    return d[m][n]


def _rank_oracle(kg, entity, hypothesis):
    """Exhaustively score every attached relation and sort."""
    return _rank_relations(kg.head_index.get(entity, ()), hypothesis)


def _rank_relations(relations, hypothesis):
    """Exhaustively score each of ``relations`` and sort."""
    def tokens(text):
        # maximal runs of Unicode letters and digits, lowercased
        return set("".join(c if c.isalnum() else " " for c in text.lower()).split())

    def jac(a, b):
        ta, tb = tokens(a), tokens(b)
        if not ta or not tb:
            return 0.0
        return len(ta & tb) / len(ta | tb)

    scored = [
        (-jac(hypothesis, rel), _edit_distance_oracle(hypothesis.lower(), rel.lower()), rel)
        for rel in relations
    ]
    return [rel for *_, rel in sorted(scored)]


class TestNeighborSearch:
    def test_tk1_lookup(self, tk1):
        assert tk1.neighbor_search("Iranian_rial", "currency_of") == {"Iran"}

    def test_missing_relation_gives_sentinel_verbatim(self, tk1):
        assert tk1.neighbor_search("Iranian_rial", "nonexistent_relation") == \
            "No information in KG, please use web tool."

    def test_absent_entity_gives_sentinel(self, tk1):
        assert tk1.neighbor_search("Nobody", "currency_of") == SENTINEL

    def test_sentinel_variants_accepted(self):
        assert is_sentinel(SENTINEL)
        assert is_sentinel("  no information in KG,   please use web tool")
        assert not is_sentinel("Iran")

    def test_matches_brute_force_scan_on_random_graph(self):
        rng = random.Random(3)
        triples = [
            Triple(f"e{rng.randint(0, 40)}", f"r{rng.randint(0, 8)}", f"t{rng.randint(0, 60)}")
            for _ in range(1500)
        ]
        kg = KnowledgeGraph.from_triples(triples)
        for h, r in [("e1", "r1"), ("e5", "r0"), ("e999", "r1"), ("e7", "r7")]:
            expected = {display(t.tail) for t in kg.triples if t.head == h and t.relation == r}
            got = kg.neighbor_search(h, r)
            if expected:
                assert got == expected
            else:
                assert got == SENTINEL


class TestSampleIkg:
    def _kg(self):
        crits = [Triple("h", f"r{i}", f"t{i}") for i in range(5)]
        extra = [Triple("h", "other", "x"), Triple("t0", "back", "h")]
        return KnowledgeGraph.from_triples(crits + extra), crits

    def test_fraction_zero_is_identity(self):
        kg, crits = self._kg()
        derived, log = sample_ikg(kg, [_example("q", crits)], 0.0, seed=1)
        assert derived.triples == kg.triples
        assert log.coverage == {"q": "CKG"}
        assert log.entries == {"q": []}

    def test_fraction_one_removes_all(self):
        kg, crits = self._kg()
        derived, log = sample_ikg(kg, [_example("q", crits)], 1.0, seed=1)
        assert sorted(log.entries["q"]) == sorted(crits)
        assert log.coverage == {"q": "IKG"}
        assert all(t not in derived.triples for t in crits)

    def test_ceiling_count(self):
        kg, crits = self._kg()
        _, log = sample_ikg(kg, [_example("q", crits)], 0.4, seed=9)
        assert len(log.entries["q"]) == 2  # ceil(0.4 * 5)

    def test_pair_purge_is_bidirectional(self):
        kg, crits = self._kg()
        derived, log = sample_ikg(kg, [_example("q", crits)], 1.0, seed=1)
        # t0 was removed, so the reverse edge t0 -> h must be gone too
        assert Triple("t0", "back", "h") not in derived.triples
        # but the non-critical edge between h and x survives
        assert Triple("h", "other", "x") in derived.triples

    def test_deterministic_per_seed_and_distinct_across_seeds(self):
        crits = [Triple("h", f"r{i}", f"t{i}") for i in range(12)]
        kg = KnowledgeGraph.from_triples(crits)
        ex = [_example("q", crits)]
        _, log_a = sample_ikg(kg, ex, 0.5, seed=5)
        _, log_b = sample_ikg(kg, ex, 0.5, seed=5)
        _, log_c = sample_ikg(kg, ex, 0.5, seed=6)
        assert log_a.entries == log_b.entries
        assert log_a.entries != log_c.entries

    def test_result_independent_of_question_order(self):
        crits = [Triple("h", f"r{i}", f"t{i}") for i in range(6)]
        more = [Triple("g", f"s{i}", f"u{i}") for i in range(6)]
        kg = KnowledgeGraph.from_triples(crits + more)
        ex1, ex2 = _example("q1", crits), _example("q2", more)
        _, log_fwd = sample_ikg(kg, [ex1, ex2], 0.5, seed=2)
        _, log_rev = sample_ikg(kg, [ex2, ex1], 0.5, seed=2)
        assert log_fwd.entries == log_rev.entries

    def test_unknown_critical_triple_names_question(self):
        kg, crits = self._kg()
        bad = _example("why", [("h", "missing", "t")])
        with pytest.raises(KGError, match="why"):
            sample_ikg(kg, [bad], 0.5, seed=1)

    def test_fraction_out_of_range(self):
        kg, crits = self._kg()
        with pytest.raises(KGError):
            sample_ikg(kg, [_example("q", crits)], 1.5, seed=1)

    def test_log_round_trip(self, tmp_path):
        kg, crits = self._kg()
        _, log = sample_ikg(kg, [_example("q", crits)], 0.4, seed=3)
        path = tmp_path / "log.jsonl"
        write_removal_log(log, path)
        back = read_removal_log(path)
        assert back.entries == log.entries
        assert back.coverage == log.coverage


_EQUAL = ("entities", "head_index", "pair_index", "relations", "_resolver", "triples")
_COLUMNS = ("entities", "_relation_names", "_first_pair", "_pair_relation", "_first_tail", "_tail")
_SHARED = (*_COLUMNS, "aliases", "_resolver", "_relation_tokens", "_token_relations")


def _survivors(kg, log):
    """The triples of ``kg`` that a removal log leaves: every edge between
    the two entities of a removed triple goes, in either direction."""
    purged = {pair for removed in log.entries.values() for t in removed
              for pair in ((t.head, t.tail), (t.tail, t.head))}
    return [t for t in kg.triples if (t.head, t.tail) not in purged]


def _assert_matches_rebuild(kg, questions, fraction, seed):
    """``sample_ikg``'s graph equals ``from_triples`` over the survivors of
    the logged removals, with the base graph's entities as alias keys: in
    the entity table and both views, in the relations and resolver, and in
    every ranking ``relation_search`` gives. It shares the base's columns,
    name tables, aliases, resolver and ranking maps, which may still name
    relations no head keeps."""
    derived, log = sample_ikg(kg, questions, fraction, seed)
    survivors = _survivors(kg, log)
    rebuilt = KnowledgeGraph.from_triples(survivors, {e: list(kg.aliases.get(e, ())) for e in kg.entities})
    for field in _EQUAL:
        assert getattr(derived, field) == getattr(rebuilt, field), field
    for field in _SHARED:
        assert getattr(derived, field) is getattr(kg, field), field
    assert len(derived) == len(rebuilt) == len(survivors)
    for head in kg.head_index:
        for hyp in ("", *sorted(kg.relations)):
            assert derived.relation_search(head, hyp) == rebuilt.relation_search(head, hyp), (head, hyp)
    return derived


_ENTITY = st.sampled_from([f"e{i}" for i in range(6)])
_TRIPLE = st.builds(Triple, _ENTITY, st.sampled_from(["r0", "r1", "r2.of", "r_3", "r0.of"]), _ENTITY)


class TestIncrementalIkg:
    @settings(max_examples=300, deadline=None)
    @given(
        data=st.data(),
        triples=st.lists(_TRIPLE, min_size=1, max_size=30),
        extra=st.dictionaries(st.sampled_from(["e0", "e9", "x y"]), st.lists(st.sampled_from(["Alias", "e 0"]), max_size=2)),
        fraction=st.floats(0.0, 1.0),
        seed=st.integers(0, 3),
    )
    def test_equals_full_rebuild(self, data, triples, extra, fraction, seed):
        kg = KnowledgeGraph.from_triples(triples, extra)
        pool = sorted(kg.triples)
        questions = [
            _example(f"q{i}", data.draw(st.lists(st.sampled_from(pool), max_size=6)))
            for i in range(data.draw(st.integers(1, 3)))
        ]
        _assert_matches_rebuild(kg, questions, fraction, seed)

    def test_reverse_co_pair_casualty(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b"), ("b", "s", "a"), ("b", "s", "c"), ("a", "t", "c")])
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "r", "b")])], 1.0, 0)
        assert derived.pair_index[("b", "s")] == ("c",)
        assert ("a", "r") not in derived.pair_index

    def test_forward_co_pair_casualty(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b"), ("a", "s", "b"), ("a", "s", "c")])
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "r", "b")])], 1.0, 0)
        assert derived.head_index["a"] == ("s",)

    def test_vanished_relation_and_emptied_head(self):
        kg = KnowledgeGraph.from_triples([("a", "only_here", "b"), ("c", "r", "d")])
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "only_here", "b")])], 1.0, 0)
        assert "only_here" not in derived.relations
        assert "a" not in derived.head_index
        assert derived.resolve_entity("a") == "a"  # the entity set is unchanged

    def test_vanished_relation_never_ranks(self):
        hub = [f"here_{i:02d}" for i in range(TOP_K_RELATIONS)]  # with here_too, more than the budget
        kg = KnowledgeGraph.from_triples([("a", "only_here", "b"), ("c", "here_too", "d"), ("e", "here_too", "f"),
                                          *(("e", r, "f") for r in hub)])
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "only_here", "b")])], 1.0, 0)
        here = {kg._relation_names[r] for r in derived._token_relations["here"]}
        assert here == {"only_here", "here_too", *hub}  # shared with the base
        assert derived.relation_search("c", "only here") == ["here_too"]
        got = derived.relation_search("e", "only here")  # through the token index
        assert len(got) == TOP_K_RELATIONS and "only_here" not in got
        assert "only_here" not in derived.relations

    def test_token_index_is_shared_while_no_relation_vanishes(self):
        kg = KnowledgeGraph.from_triples([("a", "r", "b"), ("c", "r", "d")])
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "r", "b")])], 1.0, 0)
        assert derived._token_relations is kg._token_relations

    def test_untouched_containers_are_shared(self, toy_kg, toy_qa):
        derived, _ = sample_ikg(toy_kg, toy_qa, 0.4, seed=0)
        assert derived.aliases is toy_kg.aliases and derived._resolver is toy_kg._resolver
        derived = _assert_matches_rebuild(toy_kg, toy_qa, 0.4, seed=1)
        assert len(toy_kg.relations - derived.relations) == 2  # whole relations vanish at this seed


def _assert_canonical_tails(kg):
    for pair, tails in kg.pair_index.items():
        assert type(tails) is tuple and list(tails) == sorted(set(tails)), pair


def _assert_canonical_heads(kg):
    """Each head's relations read as a sorted tuple without repeats, whatever
    their count: exactly its pairs'."""
    held: dict[str, set[str]] = {}
    for head, relation in kg.pair_index:
        held.setdefault(head, set()).add(relation)
    assert set(kg.head_index) == set(held)
    assert len(kg.head_index) == len(held)
    for head, relations in kg.head_index.items():
        assert type(relations) is tuple and list(relations) == sorted(held[head]), head


_WIDE_TRIPLE = st.builds(Triple, st.sampled_from(["e0", "e1"]), st.sampled_from([f"r{i:02d}" for i in range(20)]),
                         st.sampled_from(["e0", "e1", "e2"]))


class TestTailTuples:
    """Each pair's tails and each head's relations read as sorted tuples
    without repeats, from a head of one relation to a hub, so a graph does
    not depend on the order or the repetition of its triples."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), triples=st.lists(_TRIPLE, min_size=1, max_size=30))
    def test_any_order_and_repetition_give_an_equal_graph(self, data, triples):
        repeated = triples + data.draw(st.lists(st.sampled_from(triples), max_size=10))
        reordered = data.draw(st.permutations(repeated))
        kg = KnowledgeGraph.from_triples(triples)
        assert KnowledgeGraph.from_triples(reordered) == kg
        _assert_canonical_tails(kg)
        _assert_canonical_heads(kg)
        questions = [_example("q", data.draw(st.lists(st.sampled_from(sorted(kg.triples)), max_size=6)))]
        derived, _ = sample_ikg(kg, questions, data.draw(st.floats(0.0, 1.0)), seed=0)
        _assert_canonical_tails(derived)
        _assert_canonical_heads(derived)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), triples=st.lists(_WIDE_TRIPLE, min_size=1, max_size=60))
    def test_heads_either_side_of_fifteen_relations(self, data, triples):
        # heads of up to 20 relations, so removals move them across the budget
        kg = KnowledgeGraph.from_triples(triples)
        _assert_canonical_heads(kg)
        questions = [_example("q", data.draw(st.lists(st.sampled_from(sorted(kg.triples)), max_size=8)))]
        derived = _assert_matches_rebuild(kg, questions, data.draw(st.floats(0.0, 1.0)), seed=0)
        _assert_canonical_heads(derived)

    def test_fifteen_and_sixteen_relations_read_alike(self):
        relations = [f"r_{i:02d}" for i in range(16)]
        kg = KnowledgeGraph.from_triples([("a", r, "b") for r in reversed(relations)] + [("c", "r_00", "d")])
        assert kg.head_index["c"] == ("r_00",)
        assert kg.head_index["a"] == tuple(relations)
        got = kg.relation_search("a", "r 03")  # through the token index
        assert got[0] == "r_03" and got == _rank_oracle(kg, "a", "r 03")[:TOP_K_RELATIONS]
        derived = _assert_matches_rebuild(kg, [_example("q", [("c", "r_00", "d")])], 1.0, 0)
        assert derived.head_index["a"] == kg.head_index["a"]
        assert list(derived._kept_relations) == [kg.entities.index("c")]  # untouched heads take no overlay
        kg = KnowledgeGraph.from_triples([("a", r, "b") for r in relations[:15]] + [("a", "r_15", "x")])
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "r_15", "x")])], 1.0, 0)
        assert derived.head_index["a"] == tuple(relations[:15])
        got = derived.relation_search("a", "r 03")  # within the budget, ranked whole
        assert got[0] == "r_03" and sorted(got) == relations[:15]
        derived = _assert_matches_rebuild(kg, [_example("q", [("a", "r_03", "b")])], 1.0, 0)
        assert derived.head_index["a"] == ("r_15",)  # every edge from a to b goes


_REF_ENTITY = st.sampled_from(["e0", "e1", "E_1", "x y", "Zürich", "a.b", "e 0", "_"])
_REF_RELATION = _joined(st.sampled_from(_HUB_WORDS)) | st.sampled_from(_TOKENLESS)


def _resolve_reference(entities, aliases, text):
    """The first entity, in name order, that ``text`` names by its id, its
    display form or one of its aliases, each compared normalized."""
    want = normalize(text)
    for entity in sorted(entities):
        keys = (entity, display(entity), *aliases.get(entity, ()))
        if want and any(normalize(k) == want for k in keys):
            return entity
    return None


def _assert_matches_reference(kg, triples, entities, aliases, probes, tmp_path):
    """``kg`` answers as a scan of the triple list ``triples`` does, with
    ``entities`` as its entity set and ``aliases`` as its alias map."""
    triples = set(triples)
    assert len(kg) == len(triples)
    assert kg.relations == {r for _, r, _ in triples}
    for entity in sorted(entities) + ["missing"]:
        attached = sorted({r for h, r, _ in triples if h == entity})
        for hyp in probes:
            assert kg.relation_search(entity, hyp) == _rank_relations(attached, hyp)[:TOP_K_RELATIONS], (entity, hyp)
        for relation in attached + ["missing"]:
            tails = {display(t) for h, r, t in triples if (h, r) == (entity, relation)}
            assert kg.neighbor_search(entity, relation) == (tails or SENTINEL), (entity, relation)
        for text in (entity, display(entity), entity.upper(), *aliases.get(entity, ())):
            assert kg.resolve_entity(text) == _resolve_reference(entities, aliases, text), text
    out = tmp_path / "kg.tsv"
    write_triples(kg, out)
    assert out.read_text(encoding="utf-8") == "".join(f"{h}\t{r}\t{t}\n" for h, r, t in sorted(triples))


class TestAgainstReference:
    """The integer columns, the views and the overlay of a derived graph
    against a brute-force scan of the triple list."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        triples=st.lists(st.builds(Triple, _REF_ENTITY, _REF_RELATION, _REF_ENTITY), min_size=1, max_size=60),
        extra=st.dictionaries(st.sampled_from(["e0", "Atlantis", "x_y"]),
                              st.lists(st.sampled_from(["Alias", "e 0", "ZÜRICH"]), max_size=2)),
        hub=st.lists(_REF_RELATION, max_size=2 * TOP_K_RELATIONS, unique=True),
        hyp=st.lists(st.sampled_from(_HUB_WORDS), max_size=3).map(" ".join),
    )
    def test_graph_and_derived_graph_match_a_scan_of_the_triples(self, tmp_path_factory, data, triples, extra, hub,
                                                                  hyp):
        # "e0" may hold more relations than the budget, so its ranking goes through the token index
        tmp_path = tmp_path_factory.mktemp("reference")
        triples += [Triple("e0", relation, "e1") for relation in hub]
        kg = KnowledgeGraph.from_triples(triples, extra)
        entities = {t.head for t in triples} | {t.tail for t in triples} | set(extra)
        aliases = {e: list(dict.fromkeys(names)) for e, names in extra.items()}
        assert kg.entities == tuple(sorted(entities))
        _assert_matches_reference(kg, triples, entities, aliases, ("", hyp), tmp_path)
        questions = [_example(f"q{i}", data.draw(st.lists(st.sampled_from(sorted(set(triples))), max_size=5)))
                     for i in range(data.draw(st.integers(1, 3)))]
        derived, log = sample_ikg(kg, questions, data.draw(st.floats(0.0, 1.0)), seed=data.draw(st.integers(0, 3)))
        _assert_matches_reference(derived, _survivors(kg, log), entities, aliases, ("", hyp), tmp_path)
        left = sorted(derived.triples)
        if left:  # an overlay over an overlay
            again, log = sample_ikg(derived, [_example("q", data.draw(st.lists(st.sampled_from(left), max_size=3)))],
                                    1.0, seed=0)
            _assert_matches_reference(again, _survivors(derived, log), entities, aliases, ("", hyp), tmp_path)


_NAME = st.text(st.sampled_from(list("aAb_ .-İß")), min_size=1, max_size=5)


class TestResolver:
    """The resolver's hash table against a scan of every entity's names.
    Names that differ only in case, "_" against " ", or end punctuation fold
    to one key, so they share a chain, and only the confirmation tells them
    apart."""

    @settings(max_examples=300, deadline=None)
    @given(entities=st.lists(_NAME, min_size=1, max_size=8),
           extra=st.dictionaries(_NAME, st.lists(_NAME, max_size=3), max_size=4),
           others=st.lists(_NAME, max_size=4))
    def test_matches_a_scan_of_the_names(self, entities, extra, others):
        kg = KnowledgeGraph.from_triples([(e, "r", entities[0]) for e in entities], extra)
        names = set(entities) | set(extra)
        aliases = {e: list(dict.fromkeys(a)) for e, a in extra.items()}
        probes = [*others, *(text for e in names for text in (e, display(e), e.upper(), *aliases.get(e, ())))]
        for text in probes:
            assert kg.resolve_entity(text) == _resolve_reference(names, aliases, text), text

    def test_names_that_fold_alike_resolve_in_name_order(self):
        kg = KnowledgeGraph.from_triples([("A_B", "r", "a b"), ("a_b", "r", "x")], {"x": ["A  b!", "A_b"]})
        assert kg.entities == ("A_B", "a b", "a_b", "x")
        assert kg.resolve_entity("a b") == "A_B"  # its display form, before "a b"'s id
        assert kg.resolve_entity("a_b") == "A_B"  # its id, before "a_b"'s and x's alias
        assert kg.resolve_entity(" A__B ") is None  # folds as "a b", but no name normalizes to it
        assert kg.resolve_entity("_") is kg.resolve_entity("") is None

    def test_a_graph_is_not_pickled(self, toy_kg):
        # its resolver would be wrong in a process with other string hashes
        with pytest.raises(TypeError, match="cannot be pickled"):
            pickle.dumps(toy_kg)


_RESOLUTIONS = """
import json, sys
from kgqa_env.kg import KnowledgeGraph, load_triples
graphs = [load_triples(sys.argv[1], sys.argv[2]), KnowledgeGraph.from_triples(*json.loads(sys.argv[3]))]
print(json.dumps([[kg.resolve_entity(text) for text in probes] for kg, probes in zip(graphs, json.loads(sys.argv[4]))]))
"""


def test_resolution_does_not_depend_on_the_hash_seed():
    # str hashes, and with them every entry's bucket and chain, differ from
    # one interpreter to the next; the entity that wins must not
    toy = load_triples(TOY_KG, TOY_ALIASES)
    folding = ([["A_B", "r", "a b"], ["a_b", "r", "x"], ["a.b", "r", "x"]], {"x": ["A  b!", "A_b"]})
    graphs = [toy, KnowledgeGraph.from_triples(*folding)]
    probes = [[text for e in kg.entities for text in (e, display(e), e.upper(), *kg.aliases.get(e, ()))]
              + ["missing", "", "Iran Iran", "a  b", "_a_b_"] for kg in graphs]
    want = [[kg.resolve_entity(text) for text in texts] for kg, texts in zip(graphs, probes)]
    assert None in want[0] and None in want[1] and len(set(want[0])) == len(toy.entities) + 1
    src = str(Path(kgqa_env.__file__).resolve().parents[1])
    for seed in ("0", "1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        out = subprocess.run([sys.executable, "-c", _RESOLUTIONS, str(TOY_KG), str(TOY_ALIASES), json.dumps(folding),
                              json.dumps(probes)], env=env, capture_output=True, text=True, check=True,
                             timeout=120).stdout
        assert json.loads(out) == want


def _generated_triples(n: int = 20_000) -> list[Triple]:
    """``n`` generated triples over ``n / 4`` entities and 200 relations.
    Nine pairs in ten hold one tail, as in the generated benchmark graphs."""
    rng = random.Random(0)
    entities = [f"m.{i:05d}" for i in range(n // 4)]
    relations = [f"rel_{i}" for i in range(200)]
    triples = []
    while len(triples) < n:
        head, relation = rng.choice(entities), rng.choice(relations)
        triples += [Triple(head, relation, rng.choice(entities)) for _ in range(1 if rng.random() < 0.9 else 4)]
    return triples


def _graph_memory(n: int = 20_000) -> tuple[float, float]:
    """Bytes that ``from_triples`` keeps alive per triple, and its peak over
    those bytes, by tracemalloc, over ``n`` generated triples whose strings
    already exist (as the benchmark's ``kg.bytes_per_triple`` probe measures
    them)."""
    triples = _generated_triples(n)
    tracemalloc.start()
    try:
        graph = KnowledgeGraph.from_triples(triples)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph) == len(set(triples))
    return held / len(triples), peak / held


def test_graph_bytes_per_triple():
    # 23.9 B under Python 3.11, with the resolver a hash table of 32-bit
    # key hashes. A dict from each normalized name to its entity took
    # 36.7-41.5 B under Python 3.10-3.13, a dict of tuples per head and per
    # pair 155-163 B, a frozenset per head 204-211 B, and a frozenset per
    # pair 332-339 B.
    assert _graph_memory()[0] < 30


def test_graph_build_holds_one_copy_of_its_indexes():
    # The peak over the bytes kept reads 1.21 under Python 3.11: the peak is
    # the first pass's name-to-id dicts beside the id columns. Keeping the
    # count-sort slots as a list of int objects, and the relation and tail
    # columns alive through the last pass, read 1.45; holding each build
    # array to the end 1.27-1.30 (with the name-key dict as the resolver),
    # and building each dict index in full beside its build containers
    # 1.74-1.78.
    assert _graph_memory()[1] < 1.3


def test_a_graph_takes_one_value_for_each_annotated_field():
    kg = KnowledgeGraph.from_triples([Triple("Iranian_rial", "currency_of", "Iran")])
    values = list(kg._asdict().values())
    assert list(kg._asdict()) == list(KnowledgeGraph.__annotations__)
    assert KnowledgeGraph(*values) == kg
    for wrong in (values[:-1], [*values, {}]):
        with pytest.raises(ValueError, match="zip"):
            KnowledgeGraph(*wrong)
    with pytest.raises(TypeError, match="no field '_tails'"):
        kg._replace(_tails=())


def test_a_derived_graph_shares_the_base_columns():
    """``sample_ikg`` shares every column with its base and adds bytes in
    proportion to its removals, not to the graph: 40 removals from 20,000
    triples add about 280 B each under Python 3.11 (11 KB, 2.3% of the
    base's 480 KB), where copying both dict indexes added over 150 KB.
    384 B a removal is 2% of the 768 KB the base took with a dict of name
    keys as its resolver."""
    triples = _generated_triples()
    tracemalloc.start()
    try:
        kg = KnowledgeGraph.from_triples(triples)
        crits = random.Random(1).sample(sorted(kg.triples), 80)
        questions = [_example(f"q{i}", crits[4 * i:4 * i + 4]) for i in range(20)]
        sample_ikg(kg, questions[:1], 0.4, seed=1)  # any first-call allocation is not the graph's
        before = tracemalloc.get_traced_memory()[0]
        derived, log = sample_ikg(kg, questions, 0.4, seed=0)
        del log
        extra = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kg) - len(derived) == 40
    for column in _SHARED:
        assert getattr(derived, column) is getattr(kg, column), column
    assert extra < 384 * 40


def test_loading_leaves_the_collector_next_to_nothing_to_track(tmp_path):
    # The columns are arrays and the name tables tuples of strings, which the
    # collector does not track: a load adds the graph, its maps and the
    # token sets of its 200 relations, about 0.02 objects per triple.
    triples = _generated_triples()
    path = tmp_path / "kg.tsv"
    path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples))
    question = _example("q", triples[::500])
    del triples
    gc.collect()
    before = len(gc.get_objects())
    kg = load_triples(path)
    derived, _ = sample_ikg(kg, [question], 0.5, seed=1)
    assert len(gc.get_objects()) - before < len(kg) / 10
    assert len(derived) < len(kg)


class TestGcPause:
    """The web corpus loader runs with the cyclic collector paused and hands
    the caller's collector state back however it ends: JSON decoding makes a
    dict and a list per record, which start young collections all through
    the load. The graph loaders run with the collector as the caller left
    it: they leave it next to nothing to walk (see the test above), so a
    pause would save no time."""

    @pytest.fixture
    def seen(self, monkeypatch):
        """Collector state observed inside each loader, via the builders they
        call: ``from_triples`` for ``load_triples``, ``_without_edges`` for
        ``sample_ikg`` and ``_read_corpus`` for ``OfflineWebTool.from_path``."""
        states = []
        from_triples = KnowledgeGraph.from_triples.__func__
        without_edges = kgqa_kg._without_edges
        read_corpus = kgqa_web._read_corpus

        def spy_graph(cls, *args, **kwargs):
            states.append(gc.isenabled())
            return from_triples(cls, *args, **kwargs)

        def spy_derived(*args, **kwargs):
            states.append(gc.isenabled())
            return without_edges(*args, **kwargs)

        def spy_corpus(*args, **kwargs):
            states.append(gc.isenabled())
            return read_corpus(*args, **kwargs)

        monkeypatch.setattr(KnowledgeGraph, "from_triples", classmethod(spy_graph))
        monkeypatch.setattr(kgqa_kg, "_without_edges", spy_derived)
        monkeypatch.setattr(kgqa_web, "_read_corpus", spy_corpus)
        return states

    def _load_all(self, tmp_path):
        kg = load_triples(_TK1)
        sample_ikg(kg, [_example("q", sorted(kg.triples))], 0.5, seed=1)
        corpus = tmp_path / "web.jsonl"
        corpus.write_text('{"keys": ["a"], "snippet": "A."}\n')
        return OfflineWebTool.from_path(corpus)

    def test_loaders_pause_and_restore(self, seen, tmp_path):
        assert gc.isenabled()
        self._load_all(tmp_path)
        assert seen == [True, True, False]
        assert gc.isenabled()

    def test_state_restored_after_a_kg_error(self, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("a\tr\n")
        with pytest.raises(KGError):
            load_triples(bad)
        assert gc.isenabled()
        corpus = tmp_path / "web.jsonl"
        corpus.write_text('{"keys": ["a"], "snippet": 5}\n')
        with pytest.raises(kgqa_web.WebToolError):
            OfflineWebTool.from_path(corpus)
        assert gc.isenabled()

    def test_a_caller_pause_is_kept(self, seen, tmp_path):
        gc.disable()
        try:
            self._load_all(tmp_path)
            assert not gc.isenabled()
        finally:
            gc.enable()
        assert seen == [False, False, False]

    @staticmethod
    def _in_oldest_generation(obj) -> bool:
        return any(o is obj for o in gc.get_objects(generation=2))

    def test_loaded_objects_start_in_the_oldest_generation(self, tmp_path):
        web = self._load_all(tmp_path)
        for obj in (web, web._records, web._snippets):
            assert self._in_oldest_generation(obj)

    def test_a_caller_pause_leaves_generations_alone(self, tmp_path):
        gc.disable()
        try:
            web = self._load_all(tmp_path)
            assert not self._in_oldest_generation(web._records)
        finally:
            gc.enable()
