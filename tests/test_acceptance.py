"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its runtime budget."""

import math
import random
import statistics
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

import pytest

from kgqa_env.data import TOY_ALIASES, TOY_KG, TOY_QA, TOY_WEB_CORPUS
from kgqa_env.evaluate import hits_at_1, web_search_ratio
from kgqa_env.filtering import RuleJudge, filter_trajectory
from kgqa_env.kg import load_triples, sample_ikg
from kgqa_env.plan import SetOp, eval_expr, expr_dependencies, parse_plan
from kgqa_env.policies import ScriptedOracle
from kgqa_env.qa import load_qa
from kgqa_env.rewards import group_advantages, overall_reward, score_trajectory
from kgqa_env.rollout import RolloutConfig, run_rollout
from kgqa_env.trajectory import (
    INFO_TAGS,
    ORPHAN_INFO,
    PLAN_COUNT,
    TAGS,
    ParseError,
    Step,
    Trajectory,
    parse_trajectory,
    retrieval_mask,
    validate_format,
)
from kgqa_env.web import OfflineWebTool

from test_filtering import SUITE as FILTER_SUITE
from test_trajectory import render


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
    print(f"ACCEPTANCE {number} ({description}): PASS [{elapsed:.2f}s]")


@lru_cache(maxsize=None)
def _toy_rollouts():
    """Oracle rollouts over the bundled 25-question suite, CKG and IKG-40%."""
    kg = load_triples(TOY_KG, TOY_ALIASES)
    qa = load_qa(TOY_QA)
    web = OfflineWebTool.from_path(TOY_WEB_CORPUS)
    oracle = ScriptedOracle()
    ckg = [run_rollout(oracle, kg, web, ex, RolloutConfig()) for ex in qa]
    ikg_kg, log = sample_ikg(kg, qa, 0.4, seed=1)
    ikg = [run_rollout(oracle, ikg_kg, web, ex, RolloutConfig()) for ex in qa]
    return qa, ckg, ikg, log


def test_criterion_1_overall_reward_case_table():
    with criterion(1, "overall-reward case table", 1.0):
        expected = {
            (True, 0, 0, "CKG"): 0.5, (True, 0, 0, "IKG"): 0.5,
            (True, 0, 1, "CKG"): 0.5, (True, 0, 1, "IKG"): 0.5,
            (True, 1, 0, "CKG"): 0.5, (True, 1, 0, "IKG"): 0.5,
            (True, 1, 1, "CKG"): 0.5, (True, 1, 1, "IKG"): 0.5,
            (False, 0, 0, "CKG"): 0.0, (False, 0, 0, "IKG"): -0.1,
            (False, 0, 1, "CKG"): -0.1, (False, 0, 1, "IKG"): 0.1,
            (False, 1, 0, "CKG"): 0.1, (False, 1, 0, "IKG"): -0.1,
            (False, 1, 1, "CKG"): -0.1, (False, 1, 1, "IKG"): 0.1,
        }
        assert len(expected) == 16
        for (acc_pos, r_graph, r_web, coverage), want in expected.items():
            r_acc = 0.5 if acc_pos else 0.0
            got = overall_reward(r_acc, r_graph, r_web, coverage)
            assert got == want, f"cell {(acc_pos, r_graph, r_web, coverage)}: got {got}, want {want}"
        # shaping and penalty constants, verbatim
        assert overall_reward(0.0, 1, 0, "CKG") == 0.1
        assert overall_reward(0.0, 0, 1, "CKG") == -0.1


def test_criterion_2_answer_f1_against_brute_force():
    with criterion(2, "answer F1 vs brute-force oracle", 5.0):
        def oracle_f1(pred, gold):
            pred = sorted(set(pred))
            if not pred or not gold:
                return 0.0
            matched_p = sum(1 for p in pred if any(p == a for aliases in gold for a in aliases))
            matched_g = sum(1 for aliases in gold if any(p == a for a in aliases for p in pred))
            precision, recall = matched_p / len(pred), matched_g / len(gold)
            return 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)

        rng = random.Random(1234)
        universe = [f"e{i}" for i in range(40)]
        for _ in range(1000):
            pred = {rng.choice(universe) for _ in range(rng.randint(0, 8))}
            gold = tuple(
                tuple({rng.choice(universe) for _ in range(rng.randint(1, 3))})
                for _ in range(rng.randint(0, 5))
            )
            traj = parse_trajectory("<plan>P</plan><answer>" + "; ".join(sorted(pred)) + "</answer>")
            bd = score_trajectory(traj, gold, "CKG")
            assert bd.format_ok
            assert abs(bd.r_ans - oracle_f1(pred, gold)) <= 1e-12
            if bd.r_ans < 0.1:
                assert bd.r_acc == 0.1
            else:
                assert bd.r_acc == bd.r_ans


def test_criterion_3_oracle_end_to_end_on_toy_suite():
    with criterion(3, "oracle end-to-end, CKG and IKG-40%", 10.0):
        qa, ckg, ikg, _ = _toy_rollouts()
        assert len(qa) == 25
        assert hits_at_1(ckg, qa) == 1.0
        assert web_search_ratio(ckg) == 0.0
        assert hits_at_1(ikg, qa) == 1.0
        assert abs(web_search_ratio(ikg) - 0.40) <= 1 / 25 + 1e-12


def test_criterion_4_ikg_sampler():
    with criterion(4, "incomplete-graph sampler", 2.0):
        kg = load_triples(TOY_KG, TOY_ALIASES)
        qa = load_qa(TOY_QA)
        for fraction in (0.2, 0.4, 0.6):
            for seed in (1, 2, 3):
                derived, log = sample_ikg(kg, qa, fraction, seed)
                _, log_again = sample_ikg(kg, qa, fraction, seed)
                assert log.entries == log_again.entries
                assert log.coverage == log_again.coverage
                for ex in qa:
                    n = len(set(ex.critical_triples))
                    want = math.ceil(Fraction(str(fraction)) * n)
                    assert len(log.entries[ex.id]) == want, (ex.id, fraction, seed)
                purged = {
                    pair
                    for removed in log.entries.values()
                    for t in removed
                    for pair in ((t.head, t.tail), (t.tail, t.head))
                }
                for t in derived.triples:
                    assert (t.head, t.tail) not in purged


def test_criterion_5_trajectory_grammar():
    with criterion(5, "trajectory grammar round-trip and violations", 5.0):
        rng = random.Random(99)
        alphabet = "abcdefgh XYZ012.,:;'!?- |"
        tags = sorted(TAGS)
        for _ in range(500):
            steps = tuple(
                Step(rng.choice(tags), "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 24))))
                for _ in range(rng.randint(1, 50))
            )
            reparsed = parse_trajectory(render(Trajectory("", steps, "")))
            assert reparsed.step_signature == [(s.tag, s.content) for s in steps]
        with pytest.raises(ParseError):
            parse_trajectory("<lookup>x</lookup>")
        double_plan = parse_trajectory("<plan>a</plan><plan>b</plan><answer>x</answer>")
        assert list(validate_format(double_plan)) == [PLAN_COUNT]
        orphan = parse_trajectory(
            "<plan>a</plan><neighbor_information>x</neighbor_information><answer>x</answer>"
        )
        assert list(validate_format(orphan)) == [ORPHAN_INFO]


def test_criterion_6_retrieval_masking_on_toy_rollouts():
    qa, ckg, ikg, _ = _toy_rollouts()
    with criterion(6, "retrieval masking span arithmetic", 2.0):
        for traj in ckg + ikg:
            spans = retrieval_mask(traj)
            masked = [False] * len(traj.raw)
            for start, end in spans:
                for i in range(start, end):
                    assert not masked[i]
                    masked[i] = True
            # The masked text is exactly the information blocks, and the
            # text left unmasked is exactly the other steps.
            info = [s for s in traj.steps if s.tag in INFO_TAGS]
            rest = [s for s in traj.steps if s.tag not in INFO_TAGS]
            assert [step for start, end in spans for step in parse_trajectory(traj.raw[start:end]).steps] == info
            cuts = [0, *(i for span in spans for i in span), len(traj.raw)]
            unmasked = "".join(traj.raw[lo:hi] for lo, hi in zip(cuts[::2], cuts[1::2]))
            assert list(parse_trajectory(unmasked).steps) == rest


def test_criterion_7_group_advantages():
    with criterion(7, "group-relative advantages", 1.0):
        got = group_advantages([1.0, 0.1, -0.1, 0.0])
        want = [1.7094086079335313, -0.34188172158670627, -0.7977240170356479, -0.5698028693111771]
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-6
        assert abs(sum(got)) <= 1e-9
        assert group_advantages([0.7, 0.7, 0.7, 0.7]) == [0.0, 0.0, 0.0, 0.0]
        rng = random.Random(2024)
        for _ in range(100):
            rewards = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 8))]
            shift = rng.uniform(-10, 10)
            base = group_advantages(rewards)
            shifted = group_advantages([r + shift for r in rewards])
            for a, b in zip(base, shifted):
                assert abs(a - b) <= 1e-9
            if statistics.pstdev(rewards) > 0:
                assert abs(sum(base)) <= 1e-9


def test_criterion_8_sft_filter_fixture_suite(tk1_example):
    with criterion(8, "SFT filter fixture suite", 1.0):
        assert len(FILTER_SUITE) == 8
        judge = RuleJudge()
        seen_codes = set()
        for name, text, coverage, expected in FILTER_SUITE:
            traj = parse_trajectory(text, question_id=tk1_example.id)
            verdict = filter_trajectory(traj, tk1_example, coverage, judge)
            assert verdict.failed_checks == expected, name
            assert verdict.keep == (not expected), name
            seen_codes.update(expected)
        assert len(seen_codes) == 7, "every failure code exercised"
        assert sum(1 for *_, expected in FILTER_SUITE if not expected) == 1
        assert sum(1 for *_, expected in FILTER_SUITE if len(expected) == 2) == 1


def test_criterion_9_plan_algebra_properties():
    with criterion(9, "plan algebra and execution order", 5.0):
        rng = random.Random(31)
        universe = [f"e{i}" for i in range(15)]
        for _ in range(200):
            bindings = {
                f"S{i}": {rng.choice(universe) for _ in range(rng.randint(0, 7))}
                for i in range(1, 5)
            }
            ids = sorted(bindings)
            perm = ids[:]
            rng.shuffle(perm)
            inter_all = eval_expr(SetOp("inter", tuple(ids)), bindings)
            union_all = eval_expr(SetOp("union", tuple(ids)), bindings)
            assert inter_all == eval_expr(SetOp("inter", tuple(perm)), bindings)
            assert union_all == eval_expr(SetOp("union", tuple(perm)), bindings)
            # associativity: folding pairwise agrees with the flat form
            lhs = eval_expr(SetOp("inter", (ids[0], ids[1])), bindings) & eval_expr(SetOp("inter", (ids[2], ids[3])), bindings)
            assert lhs == inter_all
            lhs = eval_expr(SetOp("union", (ids[0], ids[1])), bindings) | eval_expr(SetOp("union", (ids[2], ids[3])), bindings)
            assert lhs == union_all
            assert eval_expr(SetOp("inter", (ids[0], ids[0])), bindings) == bindings[ids[0]]
            assert eval_expr(SetOp("union", (ids[0], ids[0])), bindings) == bindings[ids[0]]
            assert eval_expr(SetOp("negation", (ids[0],)), bindings) == bindings[ids[0]]
        for _ in range(200):
            plan = parse_plan(_random_plan_text(rng))
            order = plan.order
            assert sorted(order) == sorted(sq.id for sq in plan.sub_questions)
            pos = {sq_id: i for i, sq_id in enumerate(order)}
            for sq in plan.sub_questions:
                for dep in expr_dependencies(sq.expr):
                    assert pos[dep] < pos[sq.id]


def _random_plan_text(rng):
    n = rng.randint(2, 9)
    lines = []
    for i in range(1, n + 1):
        earlier = [f"S{j}" for j in range(1, i)]
        if len(earlier) < 2 or rng.random() < 0.4:
            head = rng.choice(earlier) if earlier and rng.random() < 0.3 else f"Entity {i}"
            lines.append(f"S{i}: Ans(thing | rel_{i}({head}, ?))")
        else:
            kind = rng.choice(["inter", "union", "negation"])
            args = rng.sample(earlier, rng.randint(2, min(3, len(earlier))))
            if kind == "negation":
                lines.append(f"S{i}: negation({args[0]}; {', '.join(args[1:])})")
            else:
                lines.append(f"S{i}: {kind}({', '.join(args)})")
    rng.shuffle(lines)
    return "\n".join(lines)
