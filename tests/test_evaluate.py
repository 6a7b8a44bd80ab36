import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_env.evaluate import build_report, hits_at_1, web_calls_per_tool_call, web_search_ratio
from kgqa_env.qa import QAExample
from kgqa_env.trajectory import parse_trajectory


def _ex(qid, *aliases):
    return QAExample(id=qid, question="q", topic_entities=(), answers=(tuple(aliases),))


def _traj(qid, answer):
    return parse_trajectory(f"<plan>P</plan><answer>{answer}</answer>", question_id=qid)


class TestHitsAt1:
    def test_all_correct(self):
        qa = [_ex("a", "Iran"), _ex("b", "Tokyo")]
        trajs = [_traj("a", "iran"), _traj("b", "Tokyo")]
        assert hits_at_1(trajs, qa) == 1.0

    def test_all_empty_answers(self):
        qa = [_ex("a", "Iran")]
        assert hits_at_1([_traj("a", "")], qa) == 0.0

    def test_three_of_four(self):
        qa = [_ex(q, "Gold") for q in "abcd"]
        trajs = [_traj("a", "gold"), _traj("b", "Gold"), _traj("c", "gold; junk"), _traj("d", "junk; gold")]
        assert hits_at_1(trajs, qa) == 0.75

    def test_blank_aliases_match_nothing(self):
        qa = [_ex("a", "", " , ", "Gold"), _ex("b", "", "?"), _ex("c", "Gold")]
        trajs = [_traj("a", " GOLD."), _traj("b", "?; gold"), _traj("c", ";;gold")]
        assert hits_at_1(trajs, qa) == 2 / 3

    def test_only_first_item_counts(self):
        qa = [_ex("a", "Gold")]
        assert hits_at_1([_traj("a", "junk; gold")], qa) == 0.0

    def test_missing_trajectory_counts_as_miss_with_warning(self, caplog):
        qa = [_ex("a", "Gold"), _ex("b", "Gold")]
        with caplog.at_level(logging.WARNING):
            score = hits_at_1([_traj("a", "gold")], qa)
        assert score == 0.5
        assert any("b" in rec.message or "b" in str(rec.args) for rec in caplog.records)

    def test_empty_question_set_is_an_error(self):
        with pytest.raises(ValueError):
            hits_at_1([], [])

    def test_order_invariant(self):
        qa = [_ex("a", "x"), _ex("b", "y")]
        trajs = [_traj("a", "x"), _traj("b", "zzz")]
        assert hits_at_1(trajs, qa) == hits_at_1(list(reversed(trajs)), qa)

    def test_a_stray_trajectory_is_named(self):
        qa = [_ex("a", "x")]
        with pytest.raises(ValueError, match="trajectory 'stray' has no QA record"):
            hits_at_1([_traj("a", "x"), _traj("stray", "x")], qa)

    def test_every_sample_counts(self):
        qa = [_ex("a", "x"), _ex("b", "y")]
        right, blank = [_traj("a", "x"), _traj("b", "y")], [_traj("a", ""), _traj("b", "")]
        for trajs in (right + blank, blank + right, [right[0], blank[0], blank[1], right[1]]):
            assert hits_at_1(trajs, qa) == 0.5

    def test_a_question_without_samples_is_one_miss(self):
        qa = [_ex("a", "x"), _ex("b", "y")]
        assert hits_at_1([_traj("a", "x"), _traj("a", "x"), _traj("a", "")], qa) == 2 / 4


WEBBY = "<plan>P</plan><web_search>a | r</web_search><web_information>d</web_information><answer>x</answer>"
GRAPHY = (
    "<plan>P</plan><neighbor_search>a | r</neighbor_search>"
    "<neighbor_information>t</neighbor_information><answer>x</answer>"
)


class TestWebRatios:
    def test_no_web(self):
        trajs = [parse_trajectory(GRAPHY, question_id="a")]
        assert web_search_ratio(trajs) == 0.0

    def test_all_web(self):
        trajs = [parse_trajectory(WEBBY, question_id=q) for q in "ab"]
        assert web_search_ratio(trajs) == 1.0

    def test_mixed(self):
        trajs = [parse_trajectory(WEBBY, "a"), parse_trajectory(GRAPHY, "b")]
        assert web_search_ratio(trajs) == 0.5
        assert web_search_ratio(list(reversed(trajs))) == 0.5

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            web_search_ratio([])

    def test_per_call_variant(self):
        trajs = [parse_trajectory(WEBBY, "a"), parse_trajectory(GRAPHY, "b")]
        assert web_calls_per_tool_call(trajs) == 0.5
        assert web_calls_per_tool_call([parse_trajectory("<answer>x</answer>", "c")]) == 0.0


class TestReport:
    def test_report_keys_and_values(self):
        qa = [_ex("a", "x"), _ex("b", "y")]
        trajs = [parse_trajectory(WEBBY, "a"), parse_trajectory(GRAPHY, "b")]
        report = build_report(trajs, qa)
        assert set(report) == {"hits_at_1", "web_search_ratio", "web_calls_per_tool_call", "n_questions"}
        assert report["hits_at_1"] == 0.5
        assert report["web_search_ratio"] == 0.5
        assert report["n_questions"] == 2


# Trajectories of three questions, each a web or a graph search and a right,
# wrong or blank answer; a question may have none, or several samples.
_QA3 = [_ex("a", "x"), _ex("b", "y"), _ex("c", "z")]
_SAMPLE = st.tuples(st.sampled_from("abc"), st.sampled_from([WEBBY, GRAPHY]), st.sampled_from("xyz "))


def _sample(qid, template, answer):
    return parse_trajectory(template.replace("<answer>x</answer>", f"<answer>{answer}</answer>"), qid)


class TestReportOverSamples:
    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(_SAMPLE, min_size=1, max_size=12), data=st.data())
    def test_invariant_under_any_order(self, samples, data):
        trajs = [_sample(*s) for s in samples]
        shuffled = data.draw(st.permutations(trajs))
        assert build_report(shuffled, _QA3) == build_report(trajs, _QA3)

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(_SAMPLE, min_size=3, max_size=3, unique_by=lambda s: s[0]))
    def test_one_sample_a_question_is_hits_over_questions(self, samples):
        trajs = [_sample(*s) for s in samples]
        hits = sum(answer == ex.answers[0][0] for (_, _, answer), ex in zip(sorted(samples), _QA3))
        assert build_report(trajs, _QA3)["hits_at_1"] == hits / len(_QA3)
