import itertools
import random
import re
from functools import reduce

import pytest

from kgqa_env.plan import Ans, PlanError, SetOp, eval_expr, expr_dependencies, parse_plan

FIXTURE = (
    "S1: Ans(country | currency_of(Iranian rial, ?))\n"
    "S2: Ans(person | written_by(Analyze That, ?))\n"
    "S3: inter(S1, S2)"
)


def _exprs(plan):
    """Each sub-question's expression by id, in declaration order."""
    return {sq.id: sq.expr for sq in plan.sub_questions}


class TestParse:
    def test_three_line_fixture(self):
        plan = parse_plan(FIXTURE)
        exprs = _exprs(plan)
        assert list(exprs) == ["S1", "S2", "S3"]
        s1 = exprs["S1"]
        assert s1 == Ans("country", "Iranian rial", "currency_of")
        assert expr_dependencies(exprs["S3"]) == ("S1", "S2")

    def test_single_atomic_plan(self):
        exprs = _exprs(parse_plan("S1: Ans(country | currency_of(Iranian rial, ?))"))
        assert list(exprs) == ["S1"]
        assert expr_dependencies(exprs["S1"]) == ()

    def test_self_reference_cycle(self):
        with pytest.raises(PlanError, match="cycle"):
            parse_plan("S1: inter(S1, S2)\nS2: Ans(t | r(x, ?))")

    def test_two_node_cycle(self):
        with pytest.raises(PlanError, match="cycle"):
            parse_plan("S1: union(S2, S2)\nS2: union(S1, S1)")

    def test_duplicate_id(self):
        with pytest.raises(PlanError, match="duplicate"):
            parse_plan("S1: Ans(t | r(x, ?))\nS1: Ans(t | r(y, ?))")

    def test_undeclared_reference(self):
        with pytest.raises(PlanError, match="undeclared"):
            parse_plan("S1: inter(S2, S3)")

    def test_syntax_error_names_line(self):
        with pytest.raises(PlanError, match="line 2"):
            parse_plan("S1: Ans(t | r(x, ?))\nwhat is this line")

    def test_ans_head_reference(self):
        plan = parse_plan("S1: Ans(country | currency_of(Danish krone, ?))\nS2: Ans(city | capital(S1, ?))")
        s2 = _exprs(plan)["S2"]
        assert s2.head_is_ref and s2.head == "S1"
        assert expr_dependencies(s2) == ("S1",)

    def test_head_with_comma_survives(self):
        plan = parse_plan("S1: Ans(city | located_in(Washington, D.C., ?))")
        assert _exprs(plan)["S1"].head == "Washington, D.C."

    def test_negation_grammar(self):
        plan = parse_plan(
            "S1: Ans(t | r(x, ?))\nS2: Ans(t | r(y, ?))\nS3: negation(S1; S2)"
        )
        assert _exprs(plan)["S3"] == SetOp("negation", ("S1", "S2"))

    def test_negation_requires_subtrahend(self):
        with pytest.raises(PlanError):
            parse_plan("S1: Ans(t | r(x, ?))\nS2: negation(S1)")

    def test_inter_requires_two_args(self):
        with pytest.raises(PlanError):
            parse_plan("S1: Ans(t | r(x, ?))\nS2: inter(S1)")

    def test_bare_reference(self):
        plan = parse_plan("S1: Ans(t | r(x, ?))\nS2: S1")
        assert _exprs(plan)["S2"] == SetOp("ref", ("S1",))

    @pytest.mark.parametrize("text", ["", "  \n", "\n\n"])
    def test_blank_plan_is_an_error(self, text):
        with pytest.raises(PlanError, match="no sub-questions"):
            parse_plan(text)

    def test_relation_call_must_end_with_placeholder(self):
        with pytest.raises(PlanError, match="line 1"):
            parse_plan("S1: Ans(t | r(x, y))")

    @pytest.mark.parametrize("call", ["inter(S1, , S2)", "union(S1, S2,)", "union(, S1, S2)", "negation(S1; S2,)"])
    def test_empty_argument_is_an_error(self, call):
        with pytest.raises(PlanError, match="line 3"):
            parse_plan(f"S1: Ans(t | r(x, ?))\nS2: Ans(t | r(y, ?))\nS3: {call}")

    @pytest.mark.parametrize("expr, message", [
        ("what is this", "cannot parse expression 'what is this'"),
        ("Ans(t r(x, ?))", "Ans needs 'type | relation(head, ?)', got 't r(x, ?)'"),
        ("Ans(t | r x)", "Ans needs a relation(head, ?) call, got 'r x'"),
        ("Ans(t | r( , ?))", "relation call has an empty head"),
        ("negation(x; S1)", "negation primary 'X' is not a sub-question id"),
        ("Join(S1, S1)", "unknown function 'join'"),
    ], ids=["unparseable", "ans-without-bar", "ans-without-call", "empty-head", "negation-primary", "unknown"])
    def test_each_expression_error_names_its_line(self, expr, message):
        with pytest.raises(PlanError, match=f"^line 2: {re.escape(message)}$"):
            parse_plan(f"S1: Ans(t | r(x, ?))\nS2: {expr}\nS3: union(S1, S2)")


class TestExecutionOrder:
    def test_fixture_order(self):
        assert parse_plan(FIXTURE).order == ("S1", "S2", "S3")

    def test_independents_keep_declaration_order(self):
        plan = parse_plan("S1: Ans(t | r(x, ?))\nS2: Ans(t | r(y, ?))")
        assert plan.order == ("S1", "S2")

    def test_chain_declared_in_reverse(self):
        plan = parse_plan(
            "S3: Ans(t | r(S2, ?))\nS2: Ans(t | r(S1, ?))\nS1: Ans(t | r(x, ?))"
        )
        assert plan.order == ("S1", "S2", "S3")

    def test_random_acyclic_plans_topologically_valid(self):
        rng = random.Random(23)
        for _ in range(60):
            plan_text, _ = _random_plan(rng)
            plan = parse_plan(plan_text)
            order = plan.order
            assert sorted(order) == sorted(_exprs(plan))
            pos = {sq_id: i for i, sq_id in enumerate(order)}
            for sq in plan.sub_questions:
                for dep in expr_dependencies(sq.expr):
                    assert pos[dep] < pos[sq.id]

    def test_random_plans_run_in_the_least_declaration_order(self):
        # Brute force: of every order that puts dependencies first, the one
        # least by declaration positions, which is the order in which the
        # first declared ready sub-question always runs next.
        rng = random.Random(29)
        for _ in range(60):
            plan = parse_plan(_random_plan(rng)[0])
            exprs = _exprs(plan)
            valid = (order for order in itertools.permutations(exprs)
                     if all(dep in order[:i] for i, sq_id in enumerate(order)
                            for dep in expr_dependencies(exprs[sq_id])))
            assert plan.order == next(valid)


def _random_plan(rng):
    """Random acyclic plan text (possibly with forward references)."""
    n = rng.randint(2, 8)
    lines = []
    for i in range(1, n + 1):
        earlier = [f"S{j}" for j in range(1, i)]
        if len(earlier) < 2 or rng.random() < 0.45:
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
    return "\n".join(lines), n


class TestEval:
    def test_inter_fixture_values(self):
        bindings = {"S1": {"harold ramis", "billy crystal"}, "S2": {"harold ramis"}}
        assert eval_expr(SetOp("inter", ("S1", "S2")), bindings) == {"harold ramis"}

    def test_union_disjoint(self):
        assert eval_expr(SetOp("union", ("S1", "S2")), {"S1": {"a"}, "S2": {"b"}}) == {"a", "b"}

    def test_negation(self):
        assert eval_expr(SetOp("negation", ("S1", "S2")), {"S1": {"a", "b"}, "S2": {"b"}}) == {"a"}

    def test_negation_empty_subtrahend_is_identity(self):
        assert eval_expr(SetOp("negation", ("S1",)), {"S1": {"a", "b"}}) == {"a", "b"}

    def test_ref(self):
        assert eval_expr(SetOp("ref", ("S1",)), {"S1": {"x"}}) == {"x"}

    def test_ans_is_an_error(self):
        with pytest.raises(PlanError, match="tool calls"):
            eval_expr(Ans("t", "x", "r"), {})

    def test_unbound_reference(self):
        with pytest.raises(PlanError, match="unbound"):
            eval_expr(SetOp("ref", ("S9",)), {})

    def test_commutativity_associativity_idempotence(self):
        rng = random.Random(5)
        universe = [f"e{i}" for i in range(12)]
        for _ in range(60):
            bindings = {
                f"S{i}": {rng.choice(universe) for _ in range(rng.randint(0, 6))}
                for i in range(1, 4)
            }
            ids = ["S1", "S2", "S3"]
            perm = ids[:]
            rng.shuffle(perm)
            for op, setop in (("inter", set.intersection), ("union", set.union)):
                expected = reduce(setop, (set(bindings[i]) for i in ids))
                assert eval_expr(SetOp(op, tuple(ids)), bindings) == expected
                assert eval_expr(SetOp(op, tuple(perm)), bindings) == expected
            assert eval_expr(SetOp("inter", ("S1", "S1")), bindings) == bindings["S1"]
            assert eval_expr(SetOp("union", ("S1", "S1")), bindings) == bindings["S1"]
