import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_env import qa
from kgqa_env.kg import Triple
from kgqa_env.qa import QAError, QAExample, gold_alias_sets, load_qa
from kgqa_env.text import normalize


def test_round_trip(tmp_path):
    ex = QAExample(
        id="q1",
        question="What country uses the Iranian rial?",
        topic_entities=("Iranian_rial",),
        answers=(("Iran", "Islamic Republic of Iran"),),
        critical_triples=(Triple("Iranian_rial", "currency_of", "Iran"),),
        plan="S1: Ans(country | currency_of(Iranian rial, ?))",
    )
    path = tmp_path / "qa.jsonl"
    path.write_text(
        '{"id": "q1", "question": "What country uses the Iranian rial?", "topic_entities": ["Iranian_rial"], '
        '"answers": [["Iran", "Islamic Republic of Iran"]], "critical_triples": [["Iranian_rial", "currency_of", "Iran"]], '
        '"plan": "S1: Ans(country | currency_of(Iranian rial, ?))"}\n'
    )
    assert load_qa(path) == [ex]


def test_byte_order_mark_is_skipped(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q", "question": "?", "topic_entities": [], "answers": [["a"]]}\n', encoding="utf-8-sig")
    (ex,) = load_qa(path)
    assert (ex.id, ex.answers) == ("q", (("a",),))


def test_plan_field_is_optional(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q", "question": "?", "topic_entities": [], "answers": [["a"]]}\n')
    (ex,) = load_qa(path)
    assert ex.plan is None
    assert ex.critical_triples == ()


@pytest.mark.parametrize("plan", ["5", "[\"S1\"]", "{}"])
def test_plan_must_be_text_or_null(tmp_path, plan):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q", "question": "?", "topic_entities": [], "answers": [["a"]], "plan": ' + plan + "}\n")
    with pytest.raises(QAError, match=f"line 1 of {path}: 'plan' must be text or null"):
        load_qa(path)


def test_null_plan_loads_as_none(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q", "question": "?", "topic_entities": [], "answers": [["a"]], "plan": null}\n')
    assert load_qa(path)[0].plan is None


def test_malformed_record_names_line(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q1", "question": "?", "topic_entities": [], "answers": [["a"]]}\n{"id": "q2"}\n')
    with pytest.raises(QAError, match="line 2"):
        load_qa(path)


@pytest.mark.parametrize("answers, complaint", [
    ('[]', "'answers' is empty"),
    ('[["  ", "!"]]', r"gold answer \['  ', '!'\] has no alias that is not blank or punctuation"),
    ('[["Iran"], []]', r"gold answer \[\] has no alias"),
    ('[["Iran"], [".\\u2003"]]', "gold answer .* has no alias"),
], ids=["no gold answer", "blank aliases", "no aliases", "unicode blank alias"])
def test_unanswerable_question_names_file_and_line(tmp_path, answers, complaint):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q1", "question": "?", "topic_entities": [], "answers": [["a"]]}\n'
                    '{"id": "q2", "question": "?", "topic_entities": [], "answers": ' + answers + "}\n")
    with pytest.raises(QAError, match=f"line 2 of {path}: {complaint}"):
        load_qa(path)


def test_duplicate_ids_rejected(tmp_path):
    path = tmp_path / "qa.jsonl"
    line = '{"id": "q", "question": "?", "topic_entities": [], "answers": [["a"]]}\n'
    path.write_text(line + line)
    with pytest.raises(QAError, match="duplicate"):
        load_qa(path)


@pytest.mark.parametrize("field", [
    '"topic_entities": "Iran", "answers": [["Iran"]]',
    '"topic_entities": [], "answers": "Iran"',
    '"topic_entities": [], "answers": ["Iran"]',
    '"topic_entities": [], "answers": [["Iran"]], "critical_triples": ["abc"]',
    '"topic_entities": [], "answers": [["Iran"]], "critical_triples": "abc"',
], ids=["topic entities", "answers", "alias set", "critical triple", "critical triples"])
def test_a_string_is_not_a_list(tmp_path, field):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q", "question": "?", ' + field + "}\n")
    with pytest.raises(QAError, match=f"line 1 of {path}: .* must be a list"):
        load_qa(path)


@pytest.mark.parametrize("value", ["null", "3", '{"a": 1}'], ids=["null", "number", "object"])
@pytest.mark.parametrize("field, record", [
    ("question", '"question": VALUE, "topic_entities": [], "answers": [["Iran"]]'),
    ("topic_entities", '"question": "?", "topic_entities": ["Iran", VALUE], "answers": [["Iran"]]'),
    ("answers", '"question": "?", "topic_entities": [], "answers": [["Iran", VALUE]]'),
    ("critical_triples", '"question": "?", "topic_entities": [], "answers": [["Iran"]], '
                         '"critical_triples": [["Iranian_rial", "currency_of", VALUE]]'),
], ids=["question", "topic entity", "alias", "critical triple member"])
def test_a_value_that_is_not_text_names_file_and_line(tmp_path, field, record, value):
    # str() would make gold alias "None", or "3", of such a value
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q1", "question": "?", "topic_entities": [], "answers": [["a"]]}\n'
                    '{"id": "q2", ' + record.replace("VALUE", value) + "}\n")
    with pytest.raises(QAError, match=f"line 2 of {path}: '{field}' must be text"):
        load_qa(path)


@pytest.mark.parametrize("triple", ['["Iranian_rial", "currency_of"]', '["Iranian_rial", "currency_of", "Iran", "x"]'],
                         ids=["two", "four"])
def test_a_critical_triple_of_the_wrong_length_names_file_and_line(tmp_path, triple):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q1", "question": "?", "topic_entities": [], "answers": [["a"]]}\n'
                    '{"id": "q2", "question": "?", "topic_entities": [], "answers": [["Iran"]], '
                    f'"critical_triples": [{triple}]}}\n')
    value = re.escape(repr(json.loads(triple)))
    with pytest.raises(QAError, match=f"line 2 of {path}: 'critical_triples' entry must be "
                                      f"\\[head, relation, tail\\], got {value}$"):
        load_qa(path)


@pytest.mark.parametrize("value", ["null", "true", "false", '["q"]', '{"a": 1}'],
                         ids=["null", "true", "false", "list", "object"])
def test_an_id_that_is_neither_text_nor_a_number_names_file_and_line(tmp_path, value):
    # str() made the id "None", "True" or "['q']"
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": "q1", "question": "?", "topic_entities": [], "answers": [["a"]]}\n'
                    '{"id": ' + value + ', "question": "?", "topic_entities": [], "answers": [["a"]]}\n')
    with pytest.raises(QAError, match=f"line 2 of {path}: 'id' must be text or a number"):
        load_qa(path)


def test_a_numeric_id_is_read_as_text(tmp_path):
    path = tmp_path / "qa.jsonl"
    path.write_text('{"id": 7, "question": "?", "topic_entities": [], "answers": [["a"]]}\n'
                    '{"id": 7.5, "question": "?", "topic_entities": [], "answers": [["a"]]}\n')
    assert [ex.id for ex in load_qa(path)] == ["7", "7.5"]


# -- the gold view ------------------------------------------------------------

def _reference_alias_sets(gold):
    """The per-call formula the memo replaced."""
    return [{normalize(a) for a in s} - {""} for s in gold]


#: Aliases that repeat, that are blank or punctuation only, or that hold
#: Unicode whitespace, besides arbitrary text.
_alias = st.one_of(
    st.sampled_from(["Iran", "iran", " IRAN. ", "", "   ", "?!", "--", "\u3000", "Islamic\u2003Republic\xa0of Iran",
                     "new\u2028york", "\u200a.\u200a"]),
    st.text(max_size=12),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_alias, max_size=5), max_size=5), st.booleans())
def test_memoized_alias_sets_equal_the_per_call_formula(gold, as_tuples):
    if as_tuples:
        gold = tuple(map(tuple, gold))
    expected = _reference_alias_sets(gold)
    assert list(gold_alias_sets(gold)) == expected  # a hit or a miss, whatever ran before
    qa._gold_alias_sets.cache_clear()
    assert list(gold_alias_sets(gold)) == expected  # a miss
    assert list(gold_alias_sets(gold)) == expected  # a hit


def test_list_and_tuple_golds_share_an_entry():
    qa._gold_alias_sets.cache_clear()
    assert gold_alias_sets([["Iran", "Islamic Republic of Iran"]]) is gold_alias_sets((("Iran", "Islamic Republic of Iran"),))
    assert qa._gold_alias_sets.cache_info().currsize == 1


def test_memoized_alias_sets_cannot_be_mutated():
    sets = gold_alias_sets((("Iran", "Islamic Republic of Iran"), ("Iraq",)))
    assert isinstance(sets, tuple)
    assert all(isinstance(s, frozenset) for s in sets)
    with pytest.raises(TypeError):
        sets[0] = frozenset()
    with pytest.raises(AttributeError):
        sets[0].add("persia")


def test_a_second_call_normalizes_no_alias(monkeypatch):
    calls = []
    monkeypatch.setattr(qa, "normalize", lambda text: calls.append(text) or normalize(text))
    qa._gold_alias_sets.cache_clear()
    gold = (("Iran", "Islamic Republic of Iran"), ("Iraq",))
    first = gold_alias_sets(gold)
    assert len(calls) == 3
    assert gold_alias_sets(tuple(map(tuple, gold))) is first  # equal gold, another object
    assert len(calls) == 3


def test_the_memo_is_bounded():
    assert qa._gold_alias_sets.cache_info().maxsize == qa.GOLD_CACHE_SIZE >= 1024
