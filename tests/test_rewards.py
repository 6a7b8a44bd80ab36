import math
import random
import statistics

import pytest

from kgqa_env.rewards import (
    accuracy_reward,
    answer_f1,
    graph_reward,
    group_advantages,
    group_score_records,
    overall_reward,
    score_trajectory,
    web_reward,
)
from kgqa_env.trajectory import parse_trajectory

GOLD_IRAN = (("Iran", "Islamic Republic of Iran"),)


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
        assert answer_f1({"iran"}, GOLD_IRAN) == 1.0

    def test_empty_prediction(self):
        assert answer_f1(set(), GOLD_IRAN) == 0.0

    def test_empty_gold(self):
        assert answer_f1({"iran"}, ()) == 0.0

    def test_hand_computed_partial(self):
        assert answer_f1({"a", "b"}, (("a",),)) == pytest.approx(2 / 3, abs=1e-12)

    def test_symmetry_under_reordering(self):
        gold = (("a", "x"), ("b",), ("c",))
        pred = {"b", "c", "zzz"}
        reordered = tuple(reversed(gold))
        assert answer_f1(pred, gold) == answer_f1(pred, reordered)

    def test_identity_on_matching_sets(self):
        xs = {"a", "b", "c"}
        assert answer_f1(xs, tuple((x,) for x in xs)) == 1.0

    def test_randomized_against_brute_force(self):
        rng = random.Random(42)
        universe = [f"e{i}" for i in range(30)]
        for _ in range(1000):
            pred = {rng.choice(universe) for _ in range(rng.randint(0, 6))}
            gold = tuple(
                tuple({rng.choice(universe) for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(0, 4))
            )
            assert abs(answer_f1(pred, gold) - _f1_oracle(pred, gold)) <= 1e-12


class TestAccuracyReward:
    def test_invalid_format_zeroes_even_perfect_answers(self):
        traj = parse_trajectory("<plan>a</plan><plan>b</plan><answer>Iran</answer>")
        format_ok, r_ans, r_acc = accuracy_reward(traj, GOLD_IRAN)
        assert not format_ok and r_ans == 1.0 and r_acc == 0.0

    def test_valid_format_floors_at_point_one(self):
        traj = parse_trajectory("<plan>P</plan><answer>wrong</answer>")
        format_ok, r_ans, r_acc = accuracy_reward(traj, GOLD_IRAN)
        assert format_ok and r_ans == 0.0 and r_acc == 0.1

    def test_valid_format_passes_f1_through(self):
        traj = parse_trajectory("<plan>P</plan><answer>a; b</answer>")
        format_ok, r_ans, r_acc = accuracy_reward(traj, (("a",),))
        assert format_ok and r_acc == pytest.approx(2 / 3, abs=1e-12)

    def test_small_f1_still_floors(self):
        preds = "; ".join(["a"] + [f"junk{i}" for i in range(29)])
        traj = parse_trajectory(f"<plan>P</plan><answer>{preds}</answer>")
        format_ok, r_ans, r_acc = accuracy_reward(traj, (("a",),))
        assert format_ok and 0 < r_ans < 0.1 and r_acc == 0.1


class TestRetrievalRewards:
    def test_graph_containment(self):
        traj = parse_trajectory(
            "<neighbor_search>a | r</neighbor_search>"
            "<neighbor_information>Known for: Harold Ramis.</neighbor_information>"
        )
        assert graph_reward(traj, (("harold ramis",),)) == 1

    def test_graph_empty_when_no_blocks(self):
        assert graph_reward(parse_trajectory("<answer>a</answer>"), (("a",),)) == 0

    def test_graph_needs_every_gold_answer(self):
        traj = parse_trajectory(
            "<neighbor_search>x | r</neighbor_search><neighbor_information>a</neighbor_information>"
        )
        assert graph_reward(traj, (("a",), ("b",))) == 0

    def test_web_split_across_snippets_counts(self):
        traj = parse_trajectory(
            "<web_search>x | r</web_search><web_information>first has a</web_information>"
            "<web_search>x | r</web_search><web_information>second has b</web_information>"
        )
        assert web_reward(traj, (("a",), ("b",))) == 1

    def test_web_empty_when_no_blocks(self):
        assert web_reward(parse_trajectory("<answer>a</answer>"), (("a",),)) == 0

    def test_monotone_adding_blocks_never_flips_off(self):
        base = "<neighbor_search>x | r</neighbor_search><neighbor_information>a</neighbor_information>"
        extra = base + "<neighbor_search>y | r</neighbor_search><neighbor_information>junk</neighbor_information>"
        gold = (("a",),)
        assert graph_reward(parse_trajectory(base), gold) == 1
        assert graph_reward(parse_trajectory(extra), gold) == 1


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
        assert "Iran" in bd.o_graph and bd.o_web == ""


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
    def test_consecutive_same_id_grouped_and_chunked(self):
        records = [{"id": "q1", "R_over": r} for r in (1.0, 0.0, 0.5)]
        records += [{"id": "q2", "R_over": 0.25}]
        groups = group_score_records(records, group_size=2)
        assert [g["id"] for g in groups] == ["q1", "q1", "q2"]
        assert groups[0]["rewards"] == [1.0, 0.0]
        assert groups[0]["group"] == ["q1", "q1"]
        assert groups[2]["advantages"] == [0.0]

    def test_group_size_must_be_positive(self):
        with pytest.raises(ValueError):
            group_score_records([], group_size=0)
