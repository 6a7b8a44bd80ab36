import re
import string
import sys

from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgqa_env.text import _STRIP_CHARS, levenshtein, normalize, word_tokens
from test_kg import _edit_distance_oracle

# A small alphabet makes near matches common; the non-ASCII letters cover
# characters outside Latin-1 and outside the basic multilingual plane, and
# NUL is the character that separates the packed strings. The long strategy
# crosses the 64-bit word boundary of a fixed-width version.
_ALPHABET = "ab_. é漢😀\0"
_STRINGS = st.text(_ALPHABET, max_size=12) | st.text(_ALPHABET, min_size=60, max_size=140)
# 0-20 strings drawn from a pool of at most 8, so duplicates are common
_STRING_LISTS = st.lists(_STRINGS, min_size=1, max_size=8).flatmap(
    lambda pool: st.lists(st.sampled_from(pool), max_size=20))


def test_normalize_lowers_trims_and_collapses():
    assert normalize('  "Iran."  ') == "iran"
    assert normalize("Harold\n  Ramis") == "harold ramis"
    assert normalize("") == ""


# Unicode whitespace that is not ASCII whitespace: no-break space, em space,
# an ASCII file separator and next-line; plus letters that change or grow
# (dotted capital I) when lowercased, and punctuation.
_EDGE_ALPHABET = "aZ éß\u0130\u00a0\u2003\x1c\x85\t\n.,;!?-_\"'()"


def test_normalize_trims_unicode_edge_whitespace():
    assert normalize("Iran\u00a0") == "iran"
    assert normalize("\u00a0a") == "a"
    assert normalize(".\u2003\x1c Harold\u00a0\x85 Ramis\x1c.") == "harold ramis"
    assert normalize(".\u00a0.") == ""


@settings(max_examples=300, deadline=None)
@given(st.text(_EDGE_ALPHABET, max_size=20))
@example("Iran\u00a0")
@example(".\u00a0.")
def test_normalize_is_idempotent_and_trimmed(text):
    out = normalize(text)
    assert normalize(out) == out
    assert out == out.strip(string.punctuation + string.whitespace)
    assert out == out.strip()  # str.strip() trims all Unicode whitespace
    assert "  " not in out


def test_strip_chars_hold_every_whitespace_character():
    # a field is blank exactly when stripping _STRIP_CHARS leaves nothing,
    # which needs every character str.split() and re's \s split on
    spaces = {chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()}
    assert spaces == {c for c in _STRIP_CHARS if c.isspace()}
    assert all(re.fullmatch(r"\s", c) and len(f"a{c}a".split()) == 2 for c in spaces)


def test_word_tokens_split_on_dots_and_underscores():
    assert word_tokens("currency_of") == ["currency", "of"]
    assert word_tokens("people.person.born_in") == ["people", "person", "born", "in"]


def test_word_tokens_keep_unicode_letters_and_digits():
    assert word_tokens("Zürich_city") == ["zürich", "city"]
    assert word_tokens("ßß") == ["ßß"]
    assert word_tokens("København 2024") == ["københavn", "2024"]
    assert word_tokens("__ . —") == []


def test_levenshtein_known_values():
    assert levenshtein("kitten", ["sitting", "kitten", "", "sitting"]) == [3, 0, 6, 3]
    assert levenshtein("", ["abc", ""]) == [3, 0]
    assert levenshtein("abc", []) == []
    assert levenshtein("a\0b", ["a\0b", "ab", "\0", "", "\0\0"]) == [0, 1, 2, 3, 2]


@settings(max_examples=300, deadline=None)
@given(_STRINGS, _STRING_LISTS)
@example("", [])
@example("", ["", "漢字"])
@example("a" * 70, ["a" * 65 + "b", "", "a" * 70, "ab" * 65])
@example("ab" * 65, ["ba" * 64, "b", "ba" * 64])
# several hundred segments, so a wrong offset in the read-out shows far from
# the first; one packed text of ASCII only, one that holds other characters
@example("ba_.\0", ["", "ab", "a_b.", "b" * 70, "a\0", "\0"] * 70)
@example("é漢😀 a", ["漢", "😀a", "", "ab é", "a" * 65 + "😀", "\0é"] * 60)
def test_levenshtein_matches_full_matrix_dp(a, others):
    # one segment per string; long strings cross the 64-bit word boundary
    assert levenshtein(a, others) == [_edit_distance_oracle(a, b) for b in others]
