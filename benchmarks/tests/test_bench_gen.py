import json

import pytest

import gen
from kgqa_env.kg import load_triples
from kgqa_env.plan import parse_plan
from kgqa_env.qa import load_qa
from kgqa_env.text import normalize
from kgqa_env.web import OfflineWebTool

SMALL = gen.Sizes(n_triples=4000, n_web=600, background_entities=400, hub_relations=(800, 300, 320),
                  fanouts=(5, 12), chain3_fanouts=(5,), set_algebra_each=1, remote_max_fanout=5, probe_fanout=20)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen") / "seed7"
    gen.generate(7, out, SMALL)
    return out


def test_same_seed_gives_byte_identical_files(small, tmp_path):
    gen.generate(7, tmp_path, SMALL)
    for name in gen.FILES:
        assert (tmp_path / name).read_bytes() == (small / name).read_bytes(), name


def test_other_seed_gives_other_inputs_of_the_same_shape(small, tmp_path):
    gen.generate(8, tmp_path, SMALL)
    assert (tmp_path / "kg.tsv").read_bytes() != (small / "kg.tsv").read_bytes()
    for name in ("qa_hub.jsonl", "qa_fanout.jsonl", "qa_remote.jsonl"):
        assert len(load_qa(tmp_path / name)) == len(load_qa(small / name))


def test_critical_triples_are_in_the_graph_and_plans_parse(small):
    kg = load_triples(small / "kg.tsv")
    for name in ("qa_hub.jsonl", "qa_fanout.jsonl", "qa_probe.jsonl"):
        for ex in load_qa(small / name):
            assert set(ex.critical_triples) <= kg.triples
            parse_plan(ex.plan)


def test_self_check_rejects_a_missing_critical_triple():
    q = {"id": "x", "critical_triples": [["A", "r.s.t", "B"]], "plan": "S1: Ans(s | r.s.t(A, ?))"}
    with pytest.raises(AssertionError, match="not in the graph"):
        gen._check(set(), [q])


def test_web_corpus_covers_every_gold_fact_and_is_padded(small):
    web = OfflineWebTool.from_path(small / "web.jsonl")
    assert len(web._records) == SMALL.n_web
    for name in ("qa_hub.jsonl", "qa_fanout.jsonl"):
        for ex in load_qa(small / name):
            for h, r, t in ex.critical_triples:
                snippets = web.search(normalize(f"{gen.display(h).lower()} {r}"), 3)
                assert snippets and gen.display(t) in snippets[0]


def test_hub_ladder_and_probe_inputs(small):
    kg = load_triples(small / "kg.tsv")
    probe = json.loads((small / "probe.json").read_text())
    assert len(kg.head_index[probe["hub800"][0]]) == 800
    assert probe["hub800"][1] in kg.head_index[probe["hub800"][0]]
    assert len(kg.head_index[probe["typical"][0]]) <= 3
    fanout = [len({t for h, _, t in ex.critical_triples if h == ex.topic_entities[0]})
              for ex in load_qa(small / "qa_fanout.jsonl") if ex.id.startswith("fan")]
    assert fanout == list(SMALL.fanouts)
