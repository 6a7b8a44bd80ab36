import math
import random
import re
import statistics
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_env.filtering import (
    ANSWER_CHECK,
    FORMAT,
    PLAN_JUDGE,
    RETRIEVAL_CKG_GRAPH_MISS,
    RETRIEVAL_CKG_WEB_PRESENT,
    RETRIEVAL_IKG_WEB_ABSENT,
    RETRIEVAL_IKG_WEB_MISS,
    FilterVerdict,
    RuleJudge,
    filter_trajectory,
)
from kgqa_env.qa import QAExample
from kgqa_env.rewards import (
    RewardBreakdown,
    group_advantages,
    group_score_records,
    overall_reward,
    score_trajectory,
)
from kgqa_env.trajectory import parse_trajectory, validate_format

GOLD_IRAN = (("Iran", "Islamic Republic of Iran"),)


def _r_ans(pred, gold):
    """``r_ans`` of a well-formed trajectory that answers the items of
    ``pred``."""
    traj = parse_trajectory("<plan>P</plan><answer>" + "; ".join(sorted(pred)) + "</answer>")
    return score_trajectory(traj, gold, "CKG").r_ans


def _r_graph(traj, gold):
    return score_trajectory(traj, gold, "CKG").r_graph


def _r_web(traj, gold):
    return score_trajectory(traj, gold, "CKG").r_web


def _f1_oracle(pred, gold):
    """Independent brute-force F1 over already-normalized token strings."""
    pred = sorted(set(pred))
    if not pred or not gold:
        return 0.0
    matched_preds = 0
    for p in pred:
        hit = False
        for aliases in gold:
            for a in aliases:
                if p == a:
                    hit = True
        if hit:
            matched_preds += 1
    matched_golds = 0
    for aliases in gold:
        hit = False
        for a in aliases:
            for p in pred:
                if p == a:
                    hit = True
        if hit:
            matched_golds += 1
    precision = matched_preds / len(pred)
    recall = matched_golds / len(gold)
    if precision == 0 and recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class TestAnswerF1:
    def test_exact_alias_match(self):
        assert _r_ans({"iran"}, GOLD_IRAN) == 1.0

    def test_empty_prediction(self):
        assert _r_ans(set(), GOLD_IRAN) == 0.0

    def test_empty_gold(self):
        assert _r_ans({"iran"}, ()) == 0.0

    def test_hand_computed_partial(self):
        assert _r_ans({"a", "b"}, (("a",),)) == pytest.approx(2 / 3, abs=1e-12)

    def test_symmetry_under_reordering(self):
        gold = (("a", "x"), ("b",), ("c",))
        pred = {"b", "c", "zzz"}
        reordered = tuple(reversed(gold))
        assert _r_ans(pred, gold) == _r_ans(pred, reordered)

    def test_identity_on_matching_sets(self):
        xs = {"a", "b", "c"}
        assert _r_ans(xs, tuple((x,) for x in xs)) == 1.0

    def test_randomized_against_brute_force(self):
        rng = random.Random(42)
        universe = [f"e{i}" for i in range(30)]
        for _ in range(1000):
            pred = {rng.choice(universe) for _ in range(rng.randint(0, 6))}
            gold = tuple(
                tuple({rng.choice(universe) for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(0, 4))
            )
            assert abs(_r_ans(pred, gold) - _f1_oracle(pred, gold)) <= 1e-12


class TestAccuracyReward:
    def test_invalid_format_zeroes_even_perfect_answers(self):
        traj = parse_trajectory("<plan>a</plan><plan>b</plan><answer>Iran</answer>")
        bd = score_trajectory(traj, GOLD_IRAN, "CKG")
        assert not bd.format_ok and bd.r_ans == 1.0 and bd.r_acc == 0.0

    def test_valid_format_floors_at_point_one(self):
        traj = parse_trajectory("<plan>P</plan><answer>wrong</answer>")
        bd = score_trajectory(traj, GOLD_IRAN, "CKG")
        assert bd.format_ok and bd.r_ans == 0.0 and bd.r_acc == 0.1

    def test_valid_format_passes_f1_through(self):
        traj = parse_trajectory("<plan>P</plan><answer>a; b</answer>")
        bd = score_trajectory(traj, (("a",),), "CKG")
        assert bd.format_ok and bd.r_acc == pytest.approx(2 / 3, abs=1e-12)

    def test_small_f1_still_floors(self):
        preds = "; ".join(["a"] + [f"junk{i}" for i in range(29)])
        traj = parse_trajectory(f"<plan>P</plan><answer>{preds}</answer>")
        bd = score_trajectory(traj, (("a",),), "CKG")
        assert bd.format_ok and 0 < bd.r_ans < 0.1 and bd.r_acc == 0.1


class TestRetrievalRewards:
    def test_graph_containment(self):
        traj = parse_trajectory(
            "<neighbor_search>a | r</neighbor_search>"
            "<neighbor_information>Known for: Harold Ramis.</neighbor_information>"
        )
        assert _r_graph(traj, (("harold ramis",),)) == 1

    def test_graph_empty_when_no_blocks(self):
        assert _r_graph(parse_trajectory("<answer>a</answer>"), (("a",),)) == 0

    def test_graph_needs_every_gold_answer(self):
        traj = parse_trajectory(
            "<neighbor_search>x | r</neighbor_search><neighbor_information>a</neighbor_information>"
        )
        assert _r_graph(traj, (("a",), ("b",))) == 0

    def test_web_split_across_snippets_counts(self):
        traj = parse_trajectory(
            "<web_search>x | r</web_search><web_information>first has a</web_information>"
            "<web_search>x | r</web_search><web_information>second has b</web_information>"
        )
        assert _r_web(traj, (("a",), ("b",))) == 1

    def test_web_empty_when_no_blocks(self):
        assert _r_web(parse_trajectory("<answer>a</answer>"), (("a",),)) == 0

    def test_monotone_adding_blocks_never_flips_off(self):
        base = "<neighbor_search>x | r</neighbor_search><neighbor_information>a</neighbor_information>"
        extra = base + "<neighbor_search>y | r</neighbor_search><neighbor_information>junk</neighbor_information>"
        gold = (("a",),)
        assert _r_graph(parse_trajectory(base), gold) == 1
        assert _r_graph(parse_trajectory(extra), gold) == 1


EXPECTED_TABLE = {
    # (r_acc > 0, r_graph, r_web, coverage) -> overall reward
    (True, 0, 0, "CKG"): 0.5, (True, 0, 0, "IKG"): 0.5,
    (True, 0, 1, "CKG"): 0.5, (True, 0, 1, "IKG"): 0.5,
    (True, 1, 0, "CKG"): 0.5, (True, 1, 0, "IKG"): 0.5,
    (True, 1, 1, "CKG"): 0.5, (True, 1, 1, "IKG"): 0.5,
    (False, 0, 0, "CKG"): 0.0, (False, 0, 0, "IKG"): -0.1,
    (False, 0, 1, "CKG"): -0.1, (False, 0, 1, "IKG"): 0.1,
    (False, 1, 0, "CKG"): 0.1, (False, 1, 0, "IKG"): -0.1,
    (False, 1, 1, "CKG"): -0.1, (False, 1, 1, "IKG"): 0.1,
}


class TestOverallReward:
    def test_positive_accuracy_passes_through(self):
        assert overall_reward(0.8, 1, 1, "IKG") == 0.8
        assert overall_reward(0.8, 0, 0, "CKG") == 0.8

    def test_spec_cases(self):
        assert overall_reward(0.0, 1, 0, "CKG") == 0.1
        assert overall_reward(0.0, 0, 1, "CKG") == -0.1
        assert overall_reward(0.0, 0, 0, "IKG") == -0.1
        assert overall_reward(0.0, 0, 0, "CKG") == 0.0

    def test_full_case_table(self):
        for (acc_pos, r_graph, r_web, coverage), expected in EXPECTED_TABLE.items():
            r_acc = 0.5 if acc_pos else 0.0
            assert overall_reward(r_acc, r_graph, r_web, coverage) == expected, (
                acc_pos, r_graph, r_web, coverage)

    def test_missing_coverage_label_is_an_error(self):
        with pytest.raises(ValueError):
            overall_reward(0.5, 0, 0, "unknown")


class TestScoreTrajectory:
    def test_breakdown_fields(self):
        text = (
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>"
            "<neighbor_search>Iranian rial | currency_of</neighbor_search>"
            "<neighbor_information>Iran</neighbor_information>"
            "<answer>Iran</answer>"
        )
        bd = score_trajectory(parse_trajectory(text), GOLD_IRAN, "CKG")
        assert bd.format_ok and bd.r_ans == 1.0 and bd.r_acc == 1.0
        assert bd.r_graph == 1 and bd.r_web == 0 and bd.r_over == 1.0


class TestAdvantages:
    def test_hand_derived_group(self):
        adv = group_advantages([1.0, 0.1, -0.1, 0.0])
        expected = [1.7094086079335313, -0.34188172158670627, -0.7977240170356479, -0.5698028693111771]
        for got, want in zip(adv, expected):
            assert got == pytest.approx(want, abs=1e-6)
        assert abs(sum(adv)) <= 1e-9
        assert group_advantages([1.0, 0.0]) == pytest.approx([1.0, -1.0], abs=1e-6)

    def test_matches_statistics_oracle(self):
        rng = random.Random(19)
        for _ in range(200):
            rewards = [rng.uniform(-1, 1) for _ in range(rng.randint(1, 10))]
            got = group_advantages(rewards)
            mean = statistics.fmean(rewards)
            std = statistics.pstdev(rewards)
            for g, r in zip(got, rewards):
                assert g == pytest.approx((r - mean) / (std + 1e-8), abs=1e-9)

    def test_zero_variance_gives_exact_zeros(self):
        assert group_advantages([0.5, 0.5, 0.5]) == [0.0, 0.0, 0.0]
    def test_empty_group_is_an_error(self):
        with pytest.raises(ValueError):
            group_advantages([])

    def test_mean_zero_and_shift_invariance(self):
        rng = random.Random(77)
        for _ in range(100):
            rewards = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 8))]
            shift = rng.uniform(-5, 5)
            base = group_advantages(rewards)
            shifted = group_advantages([r + shift for r in rewards])
            if statistics.pstdev(rewards) > 0:
                assert abs(sum(base)) <= 1e-9
            for a, b in zip(base, shifted):
                assert a == pytest.approx(b, abs=1e-9)


class TestGrouping:
    def test_each_run_of_one_id_is_one_group(self):
        # each maximal run of one id is a group, however long; a later run of an id is a group of its own
        records = [{"id": "q1", "R_over": r} for r in (1.0, 0.0, 0.5)] * 4
        records += [{"id": "q2", "R_over": 0.25}, {"id": "q1", "R_over": 0.5}]
        groups = group_score_records(records)
        assert [g["id"] for g in groups] == ["q1", "q2", "q1"]
        assert groups[0]["rewards"] == [1.0, 0.0, 0.5] * 4
        assert groups[0]["group"] == ["q1"] * 12
        assert groups[1]["advantages"] == [0.0]
        assert groups[2]["rewards"] == [0.5]
        assert group_score_records([]) == []


# -- the reward side against a brute-force copy of the quadratic scorer -------
#
# A standalone copy of the scorer and filter as they were before scoring
# shared its normalized aliases: regex whitespace collapse after an ASCII
# strip, a nested-loop F1 and one normalization of the joined information
# text per gold alias. The copy's filter, like the real one, passes ANSWER
# only on an exact answer-set match (F1 = 1). The two normalizations agree
# on ASCII text without the separators \x1c-\x1f, which is what the
# strategies draw; the Unicode edge whitespace they differ on is covered by
# the hand-written cases above.

def _old_normalize(text):
    return re.sub(r"\s+", " ", text.strip(string.punctuation + string.whitespace)).lower()


def _old_f1(pred, gold):
    if not pred or not gold:
        return 0.0
    pred_norm = {_old_normalize(p) for p in pred} - {""}
    if not pred_norm:
        return 0.0
    gold_norm = [{_old_normalize(a) for a in aliases} - {""} for aliases in gold]
    matched_preds = sum(1 for p in pred_norm if any(p in aliases for aliases in gold_norm))
    matched_golds = sum(1 for aliases in gold_norm if aliases & pred_norm)
    precision = matched_preds / len(pred_norm)
    recall = matched_golds / len(gold_norm)
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


def _old_items(traj):
    answers = traj.blocks("answer")
    if not answers:
        return []
    return [it for it in (_old_normalize(p) for p in re.split(r"[;|]", answers[-1].content)) if it]


def _old_joined(traj, tag):
    return "\n".join(s.content for s in traj.steps if s.tag == tag)


def _old_covers(text, gold):
    def contains(haystack, needle):
        n = _old_normalize(needle)
        return bool(n) and n in _old_normalize(haystack)

    if not gold or not text:
        return 0
    return int(all(any(contains(text, alias) for alias in aliases) for aliases in gold))


def _old_score(traj, gold, coverage):
    format_ok = not validate_format(traj)
    r_ans = _old_f1(set(_old_items(traj)), gold)
    r_acc = max(0.1, r_ans) if format_ok else 0.0
    r_graph = _old_covers(_old_joined(traj, "neighbor_information"), gold)
    r_web = _old_covers(_old_joined(traj, "web_information"), gold)
    return RewardBreakdown(format_ok, r_ans, r_acc, r_graph, r_web, overall_reward(r_acc, r_graph, r_web, coverage))


def _old_filter(traj, example, coverage):
    failed = []
    if validate_format(traj):
        failed.append(FORMAT)
    if _old_f1(set(_old_items(traj)), example.answers) < 1.0:
        failed.append(ANSWER_CHECK)
    has_web = bool(traj.blocks("web_search"))
    if coverage == "CKG":
        if has_web:
            failed.append(RETRIEVAL_CKG_WEB_PRESENT)
        if _old_covers(_old_joined(traj, "neighbor_information"), example.answers) == 0:
            failed.append(RETRIEVAL_CKG_GRAPH_MISS)
    elif not has_web:
        failed.append(RETRIEVAL_IKG_WEB_ABSENT)
    elif _old_covers(_old_joined(traj, "web_information"), example.answers) == 0:
        failed.append(RETRIEVAL_IKG_WEB_MISS)
    plans = traj.blocks("plan")
    if not plans or RuleJudge().score(example, plans[0].content) == 0:
        failed.append(PLAN_JUDGE)
    return FilterVerdict(keep=not failed, failed_checks=tuple(failed))


# ASCII without the tag brackets and without \x1c-\x1f.
_ASCII = "aInr." + " \t\n\r\x0b\x0c" + "!?;,'-_"
# Aliases that contain each other, differ only in case, spacing or edge
# punctuation, or are empty or punctuation only.
_ALIASES = ["Iran", "iran.", "Ira", "Iranian", "ran", "Harold  Ramis", "harold\tramis", "", "..", "?!", " "]
_ALIAS = st.sampled_from(_ALIASES) | st.text(_ASCII, max_size=6)
_GOOD_PLAN = "S1: Ans(country | currency_of(Iranian rial, ?))"


@st.composite
def _reward_cases(draw):
    alias = st.sampled_from([a for a in _ALIASES if a.strip(string.punctuation + " ")]) | _ALIAS
    gold = tuple(tuple(draw(st.lists(alias, max_size=3))) for _ in range(draw(st.integers(0, 3))))

    def parts():
        # usually one alias of each gold answer, among other text, so that
        # full coverage and exact answers are common
        hits = [draw(st.sampled_from(aliases)) for aliases in gold if aliases and draw(st.integers(0, 3))]
        return draw(st.permutations(hits + draw(st.lists(_ALIAS, max_size=2))))

    def info():
        return draw(st.sampled_from([" ", "  \n ", "\t", "; "])).join(parts())

    blocks = [("plan", draw(st.sampled_from([_GOOD_PLAN, "figure it out"])))]
    for kind in draw(st.lists(st.sampled_from(["neighbor", "web", "think"]), max_size=5)):
        if kind == "think":
            blocks.append(("think", info()))
        else:
            blocks += [(f"{kind}_search", "Iranian rial | currency_of"), (f"{kind}_information", info())]
    if draw(st.integers(0, 4)):
        items = parts()  # the first one again: a duplicate prediction
        blocks.append(("answer", draw(st.sampled_from([";", "|", " ; "])).join(items + items[:1])))
    if draw(st.integers(0, 4)) == 0:
        blocks = draw(st.permutations(blocks))
    text = "".join(f"<{tag}>{content}</{tag}>" for tag, content in blocks)
    return parse_trajectory(text, question_id="q"), gold


class TestAgainstQuadraticOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=_reward_cases(), coverage=st.sampled_from(["CKG", "IKG"]))
    def test_score_and_filter_equal_the_brute_force_copy(self, case, coverage):
        traj, gold = case
        example = QAExample("q", "Which country uses the Iranian rial?", ("Iranian_rial",), gold)
        bd = score_trajectory(traj, gold, coverage)
        verdict = filter_trajectory(traj, example, coverage, RuleJudge())
        assert bd == _old_score(traj, gold, coverage)
        assert verdict == _old_filter(traj, example, coverage)
        # the filter's checks agree with the scorer's breakdown of the same trajectory
        failed = verdict.failed_checks
        assert (FORMAT in failed) == (not bd.format_ok)
        assert (ANSWER_CHECK in failed) == (bd.r_ans < 1)
        if coverage == "CKG":
            assert (RETRIEVAL_CKG_GRAPH_MISS in failed) == (bd.r_graph == 0)
        elif traj.blocks("web_search"):
            assert (RETRIEVAL_IKG_WEB_MISS in failed) == (bd.r_web == 0)


class TestUnicodeEdgeWhitespace:
    def test_f1_matches_an_alias_with_a_trailing_no_break_space(self):
        assert _r_ans({"Iran"}, (("Iran\u00a0",),)) == 1.0

    def test_web_reward_finds_an_alias_with_edge_unicode_whitespace(self):
        traj = parse_trajectory("<plan>P</plan><web_search>q</web_search><web_information>Iran</web_information>")
        assert _r_web(traj, (("Iran\u00a0",),)) == 1
        assert _r_web(traj, (("\u2003Iran\x85",),)) == 1
