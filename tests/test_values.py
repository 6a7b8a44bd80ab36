"""The package's records are immutable values: a field cannot be assigned or
deleted, two records are equal when their fields are, and ``_replace``
copies one with some fields changed."""

import pytest

from kgqa_env.filtering import FilterVerdict
from kgqa_env.kg import KnowledgeGraph
from kgqa_env.plan import Ans, Plan, SetOp, SubQuestion
from kgqa_env.qa import QAExample, RemovalLog, Triple
from kgqa_env.rewards import RewardBreakdown
from kgqa_env.trajectory import Step, Trajectory

RIAL = Triple("Iranian_rial", "currency_of", "Iran")
CAPITAL = Triple("Iran", "capital", "Tehran")
S1 = SubQuestion("S1", Ans("country", "Iranian rial", "currency_of"))

#: Record type -> (a function making a fresh record, a field, another value for it).
RECORDS = {
    "Trajectory": (lambda: Trajectory("q", (Step("answer", "Iran"),), "<answer>Iran</answer>"), "raw", ""),
    "QAExample": (lambda: QAExample("q", "Which country uses the rial?", ("Iranian_rial",), (("Iran",),), (RIAL,),
                                    "S1: Ans(country | currency_of(Iranian rial, ?))"), "plan", None),
    "RewardBreakdown": (lambda: RewardBreakdown(True, 1.0, 1.0, 1, 0, 1.0), "r_web", 1),
    "FilterVerdict": (lambda: FilterVerdict(False, ("ANSWER",)), "keep", True),
    "Ans": (lambda: Ans("country", "Iranian rial", "currency_of"), "head", "S2"),
    "SetOp": (lambda: SetOp("union", ("S1", "S2")), "op", "inter"),
    "SubQuestion": (lambda: SubQuestion("S1", SetOp("ref", ("S2",))), "id", "S3"),
    "Plan": (lambda: Plan((S1,), ("S1",)), "order", ()),
    "RemovalLog": (lambda: RemovalLog({"q": [RIAL]}), "entries", {"q": []}),
    "KnowledgeGraph": (lambda: KnowledgeGraph.from_triples([RIAL, CAPITAL], {"Iran": ["Persia"]}), "aliases", {}),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_a_record_is_an_immutable_value(name):
    make, field, other = RECORDS[name]
    record = make()
    assert record == make() and not record != make()
    with pytest.raises(AttributeError):
        setattr(record, field, other)
    with pytest.raises(AttributeError):
        delattr(record, field)
    changed = record._replace(**{field: other})
    assert getattr(changed, field) == other and changed != record
    assert record == make()


def test_qa_example_keeps_its_positional_field_order():
    ex = QAExample("q", "?", ("t",), (("a",),))
    assert (ex.id, ex.question, ex.topic_entities, ex.answers, ex.critical_triples, ex.plan) == \
        ("q", "?", ("t",), (("a",),), (), None)


def test_a_graph_caches_its_derived_sets_and_a_copy_shares_its_columns():
    kg = KnowledgeGraph.from_triples([RIAL, CAPITAL])
    assert kg.triples is kg.triples and kg.relations is kg.relations
    copy = kg._replace()
    assert copy == kg and copy is not kg
    assert copy.entities is kg.entities and copy._tail is kg._tail
    assert copy.triples == kg.triples and copy.triples is not kg.triples
    with pytest.raises(TypeError):
        hash(kg)
    with pytest.raises(TypeError):
        kg._replace(no_such_field=1)
