
import pytest

from kgqa_env.filtering import (
    ANSWER_CHECK,
    FORMAT,
    PLAN_JUDGE,
    RETRIEVAL_CKG_GRAPH_MISS,
    RETRIEVAL_CKG_WEB_PRESENT,
    RETRIEVAL_IKG_WEB_ABSENT,
    RETRIEVAL_IKG_WEB_MISS,
    Judge,
    JudgeError,
    RemoteJudge,
    RuleJudge,
    filter_trajectory,
    judge_plan,
    sft_record,
)
from kgqa_env.rewards import score_trajectory
from kgqa_env.trajectory import parse_trajectory, retrieval_mask

PLAN = "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>"
KG_HIT = (
    "<relation_search>Iranian rial | currency_of</relation_search>"
    "<relation_information>currency_of</relation_information>"
    "<neighbor_search>Iranian rial | currency_of</neighbor_search>"
    "<neighbor_information>Iran</neighbor_information>"
)
WEB_HIT = (
    "<web_search>Iranian rial | currency_of</web_search>"
    "<web_information>The Iranian rial is the currency of Iran.</web_information>"
)
WEB_MISS = (
    "<web_search>Iranian rial | currency_of</web_search>"
    "<web_information>No relevant documents were found.</web_information>"
)
GOOD = "<answer>Iran</answer>"
BAD = "<answer>Sweden</answer>"

# (name, trajectory text, coverage, expected failed checks)
SUITE = [
    ("pass", PLAN + KG_HIT + GOOD, "CKG", ()),
    ("format", PLAN + PLAN + KG_HIT + GOOD, "CKG", (FORMAT,)),
    ("answer", PLAN + KG_HIT + BAD, "CKG", (ANSWER_CHECK,)),
    ("ckg_web_present", PLAN + KG_HIT + WEB_HIT + GOOD, "CKG", (RETRIEVAL_CKG_WEB_PRESENT,)),
    ("ckg_graph_miss", PLAN + GOOD, "CKG", (RETRIEVAL_CKG_GRAPH_MISS,)),
    ("ikg_web_absent", PLAN + KG_HIT + GOOD, "IKG", (RETRIEVAL_IKG_WEB_ABSENT,)),
    ("ikg_web_miss_and_answer", PLAN + WEB_MISS + BAD, "IKG", (ANSWER_CHECK, RETRIEVAL_IKG_WEB_MISS)),
    ("plan_judge", "<plan>figure it out somehow</plan>" + KG_HIT + GOOD, "CKG", (PLAN_JUDGE,)),
]


class ConstJudge(Judge):
    def __init__(self, value):
        self.value = value

    def score(self, example, plan_text):
        return self.value


class TestFixtureSuite:
    @pytest.mark.parametrize("name,text,coverage,expected", SUITE, ids=[s[0] for s in SUITE])
    def test_verdicts_and_codes(self, name, text, coverage, expected, tk1_example):
        traj = parse_trajectory(text, question_id=tk1_example.id)
        verdict = filter_trajectory(traj, tk1_example, coverage, RuleJudge())
        assert verdict.failed_checks == expected
        assert verdict.keep == (not expected)

    def test_kept_trajectory_has_full_accuracy_reward(self, tk1_example):
        traj = parse_trajectory(SUITE[0][1])
        verdict = filter_trajectory(traj, tk1_example, "CKG", RuleJudge())
        assert verdict.keep
        assert score_trajectory(traj, tk1_example.answers, "CKG").r_acc == 1.0

    def test_missing_plan_block_fails_plan_judge_too(self, tk1_example):
        traj = parse_trajectory(KG_HIT + GOOD)
        verdict = filter_trajectory(traj, tk1_example, "CKG", RuleJudge())
        assert FORMAT in verdict.failed_checks
        assert PLAN_JUDGE in verdict.failed_checks

    def test_blank_plan_fails_plan_judge(self, tk1_example):
        example = tk1_example._replace(topic_entities=())
        traj = parse_trajectory("<plan></plan>" + KG_HIT + GOOD)
        verdict = filter_trajectory(traj, example, "CKG", RuleJudge())
        assert verdict.failed_checks == (PLAN_JUDGE,)

    def test_unknown_coverage_is_an_error(self, tk1_example):
        traj = parse_trajectory(SUITE[0][1])
        with pytest.raises(ValueError):
            filter_trajectory(traj, tk1_example, "SOMETHING", RuleJudge())


class TestRuleJudge:
    def test_unparseable_plan_scores_zero(self, tk1_example):
        assert RuleJudge().score(tk1_example, "not a plan at all") == 0

    def test_plan_with_an_empty_argument_scores_zero(self, tk1_example):
        plan = "S1: Ans(country | currency_of(Iranian rial, ?))\nS2: Ans(country | currency_of(Iranian rial, ?))\n"
        assert RuleJudge().score(tk1_example, plan + "S3: union(S1, S2,)") == 0

    def test_single_hop_plan_with_topic_scores_one(self, tk1_example):
        assert RuleJudge().score(tk1_example, tk1_example.plan) == 1

    def test_id_form_head_scores_like_display_form(self, tk1_example):
        for head in ("Iranian rial", "Iranian_rial"):
            assert RuleJudge().score(tk1_example, f"S1: Ans(country | currency_of({head}, ?))") == 1, head

    def test_missing_topic_entity_scores_zero(self, tk1_example):
        assert RuleJudge().score(tk1_example, "S1: Ans(country | currency_of(Somewhere else, ?))") == 0

    def test_final_sub_question_must_be_sink(self, tk1_example):
        plan = (
            "S1: Ans(country | currency_of(Iranian rial, ?))\n"
            "S2: inter(S1, S3)\n"
            "S3: Ans(country | currency_of(Iranian rial, ?))"
        )
        assert RuleJudge().score(tk1_example, plan) == 0


class TestJudgePlumbing:
    def test_stub_zero_propagates(self, tk1_example):
        assert judge_plan(tk1_example, "whatever", ConstJudge(0)) == 0

    def test_malformed_local_score_raises(self, tk1_example):
        with pytest.raises(JudgeError):
            judge_plan(tk1_example, "whatever", ConstJudge(0.5))

    @pytest.mark.parametrize("value", [True, 1.0])
    def test_score_equal_to_one_but_not_an_int_raises(self, tk1_example, value):
        with pytest.raises(JudgeError):
            judge_plan(tk1_example, "whatever", ConstJudge(value))

    def test_remote_judge_wire_protocol(self, stub_server, tk1_example):
        def serve(body):
            assert set(body) == {"question", "plan"}
            assert body["question"] == tk1_example.question
            return 200, {"score": 1}

        stub_server.route("/judge", serve)
        judge = RemoteJudge(stub_server.url("/judge"))
        assert judge_plan(tk1_example, tk1_example.plan, judge) == 1

    def test_remote_judge_malformed_score(self, stub_server, tk1_example):
        stub_server.route("/judge", lambda body: (200, {"score": 7}))
        with pytest.raises(JudgeError):
            RemoteJudge(stub_server.url("/judge")).score(tk1_example, "p")

    def test_remote_judge_boolean_score(self, stub_server, tk1_example):
        stub_server.route("/judge", lambda body: (200, {"score": True}))
        with pytest.raises(JudgeError):
            RemoteJudge(stub_server.url("/judge")).score(tk1_example, "p")

    def test_remote_judge_transport_failure(self, stub_server, tk1_example):
        with pytest.raises(JudgeError):
            RemoteJudge(stub_server.url("/nowhere"), timeout=5).score(tk1_example, "p")


class TestSftRecord:
    def test_record_shape(self, tk1_example):
        traj = parse_trajectory(SUITE[0][1], question_id=tk1_example.id)
        rec = sft_record(tk1_example, traj)
        assert tk1_example.question in rec["prompt"]
        assert rec["completion"] == traj.raw
        assert rec["masked_spans"] == [list(s) for s in retrieval_mask(traj)]
