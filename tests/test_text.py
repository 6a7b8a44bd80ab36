from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgqa_env.text import contains_normalized, levenshtein, normalize, token_jaccard, word_tokens
from test_kg import _edit_distance_oracle

# A small alphabet makes near matches common; the non-ASCII letters cover
# characters outside Latin-1 and outside the basic multilingual plane. The
# long strategy crosses the 64-bit word boundary of a fixed-width version.
_ALPHABET = "ab_. é漢😀"
_STRINGS = st.text(_ALPHABET, max_size=12) | st.text(_ALPHABET, min_size=60, max_size=140)


def test_normalize_lowers_trims_and_collapses():
    assert normalize('  "Iran."  ') == "iran"
    assert normalize("Harold\n  Ramis") == "harold ramis"
    assert normalize("") == ""


def test_word_tokens_split_on_dots_and_underscores():
    assert word_tokens("currency_of") == ["currency", "of"]
    assert word_tokens("people.person.born_in") == ["people", "person", "born", "in"]


def test_token_jaccard():
    assert token_jaccard(set(word_tokens("used in country")), set(word_tokens("country_used"))) == 2 / 3
    assert token_jaccard(set(word_tokens("anything")), set(word_tokens(""))) == 0.0


def test_levenshtein_known_values():
    assert levenshtein("kitten", "sitting") == 3
    assert levenshtein("abc", "abc") == 0
    assert levenshtein("", "abc") == 3


@settings(max_examples=150, deadline=None)
@given(_STRINGS, _STRINGS)
@example("", "")
@example("", "漢字")
@example("a" * 70, "a" * 65 + "b")
@example("ab" * 65, "ba" * 64)
def test_levenshtein_matches_full_matrix_dp(a, b):
    assert levenshtein(a, b) == levenshtein(b, a) == _edit_distance_oracle(a, b)


def test_contains_normalized():
    assert contains_normalized("Results: Harold  Ramis; Billy Crystal", "harold ramis")
    assert not contains_normalized("nothing here", "iran")
    assert not contains_normalized("anything", "   ")
