
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kgqa_env import policies, qa, rollout
from kgqa_env.kg import COVERAGE_CKG, SENTINEL, KnowledgeGraph, Triple, display, is_sentinel, sample_ikg
from kgqa_env.plan import Ans, PlanError, eval_expr, parse_plan
from kgqa_env.policies import RemotePolicy, ScriptedOracle
from kgqa_env.qa import QAExample, build_prompt
from kgqa_env.rewards import score_trajectory
from kgqa_env.rollout import (
    FORCE_ANSWER_DIRECTIVE,
    MALFORMED_TOOL_CALL,
    STOP_TAGS,
    TOP_K_DOCS,
    WEB_UNAVAILABLE,
    Policy,
    RolloutConfig,
    RolloutError,
    _cut_at_action,
    dispatch_action,
    force_final_answer,
    run_rollout,
)
from kgqa_env.text import normalize
from kgqa_env.trajectory import (
    ANSWER,
    INFO_TAGS,
    NEIGHBOR_SEARCH,
    PLAN,
    RELATION_SEARCH,
    SEARCH_TAGS,
    THINK,
    WEB_SEARCH,
    ParseError,
    Step,
    answer_items,
    parse_trajectory,
    render_block,
    retrieval_mask,
    validate_format,
)
from kgqa_env.web import OfflineWebTool, WebTool, WebToolError


class FailingWeb(WebTool):
    def search(self, query, k):
        raise WebToolError("down")


class BuggyWeb(WebTool):
    def search(self, query, k):
        raise AttributeError("programming error in a backend")


class ScriptedSegments(Policy):
    """Replays a fixed list of segments; empty string once exhausted."""

    def __init__(self, segments):
        self._segments = list(segments)
        self._cursor = 0

    def reset(self, example):
        self._cursor = 0

    def next_segment(self, conversation):
        if self._cursor >= len(self._segments):
            return ""
        seg = self._segments[self._cursor]
        self._cursor += 1
        return seg


class TestRolloutConfig:
    @pytest.mark.parametrize("field", ["max_iterations"])
    @pytest.mark.parametrize("value", [0, -1, -2])
    def test_counts_below_one_are_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got {value}"):
            RolloutConfig(**{field: value})

    def test_one_is_the_smallest_count(self):
        assert RolloutConfig(max_iterations=1).max_iterations == 1


class TestDispatch:
    def test_neighbor_lookup_uses_alias_resolution(self, tk1):
        step = Step("neighbor_search", "Iranian rial | currency_of")
        info = dispatch_action(step, tk1, OfflineWebTool([]))
        assert info.tag == "neighbor_information"
        assert info.content == "Iran"

    def test_removed_pair_gives_sentinel_exactly(self, tk1, tk1_example):
        ikg, _ = sample_ikg(tk1, [tk1_example], 1.0, seed=1)
        step = Step("neighbor_search", "Iranian rial | currency_of")
        info = dispatch_action(step, ikg, OfflineWebTool([]))
        assert info.content == SENTINEL

    def test_relation_search_lists_ranked_relations(self, toy_kg):
        step = Step("relation_search", "Germany | major_city")
        info = dispatch_action(step, toy_kg, OfflineWebTool([]))
        assert info.tag == "relation_information"
        assert info.content.split(", ")[0] == "major_city"

    def test_web_search_caps_snippets_at_top_k_docs(self):
        web = OfflineWebTool([(["iran"], f"doc {i}") for i in range(6)])
        kg = KnowledgeGraph.from_triples([Triple("a", "r", "b")])
        step = Step("web_search", "Iran | currency_of")
        info = dispatch_action(step, kg, web)
        assert info.tag == "web_information"
        assert len(info.content.splitlines()) == TOP_K_DOCS

    def test_malformed_content_is_in_band(self, tk1):
        for content in ("no delimiter here", " | rel", "head | "):
            info = dispatch_action(Step("neighbor_search", content), tk1, OfflineWebTool([]))
            assert info.content == MALFORMED_TOOL_CALL

    def test_web_transport_failure_is_in_band(self, tk1):
        info = dispatch_action(Step("web_search", "a | b"), tk1, FailingWeb())
        assert info.content == WEB_UNAVAILABLE

    def test_web_programming_error_propagates(self, tk1):
        with pytest.raises(AttributeError, match="programming error"):
            dispatch_action(Step("web_search", "a | b"), tk1, BuggyWeb())

    def test_non_search_step_rejected(self, tk1):
        with pytest.raises(ValueError):
            dispatch_action(Step("think", "x"), tk1, OfflineWebTool([]))


class TestOracleRollout:
    def test_ckg_full_protocol(self, tk1, tk1_example, tk1_web):
        traj = run_rollout(ScriptedOracle(), tk1, tk1_web, tk1_example)
        tags = [s.tag for s in traj.steps]
        assert tags == [
            "think", "plan", "relation_search", "relation_information",
            "neighbor_search", "neighbor_information", "answer",
        ]
        assert answer_items(traj) == ["iran"]
        assert not validate_format(traj)

    def test_gold_map_is_built_at_the_first_web_fallback(self, tk1, tk1_example, tk1_web, monkeypatch):
        built = []
        gold_tails = qa.gold_tails
        monkeypatch.setattr(policies, "gold_tails", lambda triples: built.append(triples) or gold_tails(triples))
        run_rollout(ScriptedOracle(), tk1, tk1_web, tk1_example)
        assert built == []
        ikg, _ = sample_ikg(tk1, [tk1_example], 1.0, seed=1)
        run_rollout(ScriptedOracle(), ikg, tk1_web, tk1_example)
        assert built == [tk1_example.critical_triples]

    def test_memoized_gold_map_equals_the_per_call_formula(self, tk1_example, toy_qa):
        def reference(example):
            gold = {}
            for h, r, t in example.critical_triples:
                gold.setdefault((normalize(display(h)), r), set()).add(normalize(display(t)))
            return gold

        qa._gold_tail_map.cache_clear()
        for example in [tk1_example, *toy_qa]:
            for _ in range(2):  # a miss, then a hit
                assert qa.gold_tails(example.critical_triples) == reference(example)
        assert qa.gold_tails([list(t) for t in tk1_example.critical_triples]) is qa.gold_tails(tk1_example.critical_triples)

    def test_memoized_gold_map_cannot_be_mutated(self, tk1_example):
        gold = qa.gold_tails(tk1_example.critical_triples)
        with pytest.raises(TypeError):
            gold["x", "y"] = frozenset()
        with pytest.raises(AttributeError):
            gold["iranian rial", "currency_of"].add("iraq")

    def test_the_oracle_emits_nothing_after_its_answer(self, tk1, tk1_example, tk1_web):
        oracle = ScriptedOracle()
        run_rollout(oracle, tk1, tk1_web, tk1_example)  # the script runs to its answer block
        assert oracle.next_segment(build_prompt(tk1_example)) == ""

    def test_last_block_of_a_tail_that_does_not_parse_is_empty(self):
        block = render_block("relation_information", "currency_of, capital")
        assert policies._last_block("prompt\n" + block, "relation_information") == "currency_of, capital"
        assert policies._last_block("prompt\n" + block[:-1], "relation_information") == ""
        assert policies._last_block("prompt\n" + block, "neighbor_information") == ""

    def test_ikg_falls_back_to_web(self, tk1, tk1_example, tk1_web):
        ikg, _ = sample_ikg(tk1, [tk1_example], 1.0, seed=1)
        traj = run_rollout(ScriptedOracle(), ikg, tk1_web, tk1_example)
        tags = [s.tag for s in traj.steps]
        assert tags == [
            "think", "plan", "relation_search", "relation_information",
            "neighbor_search", "neighbor_information", "web_search", "web_information", "answer",
        ]
        neighbor = traj.blocks("neighbor_information")[0]
        assert neighbor.content == SENTINEL
        web_info = traj.blocks("web_information")[0]
        assert "Iran" in web_info.content
        assert answer_items(traj) == ["iran"]

    def test_search_blocks_always_paired(self, toy_kg, toy_qa, toy_web):
        for ex in toy_qa[:8]:
            traj = run_rollout(ScriptedOracle(), toy_kg, toy_web, ex)
            steps = traj.steps
            n_search = sum(1 for s in steps if s.tag in SEARCH_TAGS)
            n_info = sum(1 for s in steps if s.tag in INFO_TAGS)
            assert n_search == n_info
            for i, s in enumerate(steps):
                if s.tag in SEARCH_TAGS:
                    assert steps[i + 1].tag == f"{s.tag.split('_')[0]}_information"

    def test_bit_reproducible(self, toy_kg, toy_qa, toy_web):
        ex = toy_qa[7]
        a = run_rollout(ScriptedOracle(), toy_kg, toy_web, ex)
        b = run_rollout(ScriptedOracle(), toy_kg, toy_web, ex)
        assert a.raw == b.raw

    def test_iteration_limit_forces_answer(self, tk1, tk1_example, tk1_web):
        traj = run_rollout(ScriptedOracle(), tk1, tk1_web, tk1_example, RolloutConfig(max_iterations=1))
        # one tool call happened, then the forced answer path was taken
        assert sum(1 for s in traj.steps if s.tag in SEARCH_TAGS) == 1
        assert traj.steps[-1].tag == "answer"
        assert answer_items(traj) == ["iran"]

    def test_missing_plan_is_an_error(self, tk1, tk1_web, tk1_example):
        bare = QAExample(id="x", question="q", topic_entities=(), answers=(("a",),))
        with pytest.raises(RolloutError, match="recorded plan"):
            run_rollout(ScriptedOracle(), tk1, tk1_web, bare)

    def test_blank_plan_is_an_error(self, tk1, tk1_web, tk1_example):
        blank = tk1_example._replace(plan="  \n")
        with pytest.raises(PlanError, match="no sub-questions"):
            run_rollout(ScriptedOracle(), tk1, tk1_web, blank)

    def test_fan_out_unions_over_multiple_heads(self, tk1_web):
        kg = KnowledgeGraph.from_triples([
            Triple("Hub", "branch_to", "Left"),
            Triple("Hub", "branch_to", "Right"),
            Triple("Left", "holds", "Coin_A"),
            Triple("Right", "holds", "Coin_B"),
        ])
        ex = QAExample(
            id="fan",
            question="Which coins do the branches of Hub hold?",
            topic_entities=("Hub",),
            answers=(("Coin A",), ("Coin B",)),
            critical_triples=(
                Triple("Hub", "branch_to", "Left"),
                Triple("Hub", "branch_to", "Right"),
                Triple("Left", "holds", "Coin_A"),
                Triple("Right", "holds", "Coin_B"),
            ),
            plan="S1: Ans(place | branch_to(Hub, ?))\nS2: Ans(coin | holds(S1, ?))",
        )
        traj = run_rollout(ScriptedOracle(), kg, tk1_web, ex)
        assert answer_items(traj) == ["coin a", "coin b"]
        # one relation+neighbor chain per bound head of S1, plus S1's own chain
        assert sum(1 for s in traj.steps if s.tag == "neighbor_search") == 3


class TestForceFinalAnswer:
    def test_null_policy_yields_empty_answer(self, tk1, tk1_example, tk1_web):
        traj = run_rollout(ScriptedSegments([]), tk1, tk1_web, tk1_example)
        assert traj.step_signature == [("answer", "")]
        assert answer_items(traj) == []

    def test_prose_policy_yields_empty_answer(self):
        step = force_final_answer(ScriptedSegments(["no tags, just rambling"]), "conv")
        assert step == Step("answer", "")

    def test_answer_block_extracted(self):
        policy = ScriptedSegments(["<think>hm</think><answer>Iran</answer>"])
        policy.reset(None)
        step = force_final_answer(policy, "conv")
        assert step == Step("answer", "Iran")

    def test_directive_appended_to_policy_view(self):
        seen = {}

        class Spy(Policy):
            def reset(self, example):
                pass

            def next_segment(self, conversation):
                seen["conversation"] = conversation
                return "<answer>ok</answer>"

        force_final_answer(Spy(), "history")
        assert seen["conversation"].startswith("history")
        assert FORCE_ANSWER_DIRECTIVE in seen["conversation"]


_CLOSERS = [*STOP_TAGS, *(f"</{tag}>" for tag in INFO_TAGS)]


def _earliest_closer(segment):
    """The segment up to and including the first of STOP_TAGS in it, and
    that closer's tag; the whole segment and None without one."""
    for start in range(len(segment)):
        for close in STOP_TAGS:
            if segment.startswith(close, start):
                return segment[:start + len(close)], close[2:-1]
    return segment, None


class TestCutAtAction:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from([*_CLOSERS, *(c.replace("/", "") for c in _CLOSERS), "</", "plan>",
                                     "answer>", "search>", "<", ">", " ", "text", "Ünï"]), max_size=12).map("".join))
    def test_cuts_at_the_earliest_closer(self, segment):
        assert _cut_at_action(segment) == _earliest_closer(segment)

    def test_examples(self):
        assert _cut_at_action("<think>a</think><plan>S1</plan>rest") == ("<think>a</think><plan>S1</plan>", PLAN)
        assert _cut_at_action("x</web_information></answer></plan>") == ("x</web_information></answer>", ANSWER)
        assert _cut_at_action("no closer </relation_information>") == ("no closer </relation_information>", None)


class TestEngineEdges:
    def test_unparseable_segment_is_dropped_and_the_answer_forced(self, tk1, tk1_example, tk1_web):
        policy = ScriptedSegments([
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>",
            "<think>oops<answer>x</answer>",   # nested: unparseable
            "<answer>Iran</answer>",           # consumed by the forced path
        ])
        traj = run_rollout(policy, tk1, tk1_web, tk1_example)
        assert [s.tag for s in traj.steps] == ["plan", "answer"]
        assert answer_items(traj) == ["iran"]

    def test_repeated_plans_end_in_a_forced_answer(self, tk1, tk1_example, tk1_web):
        calls = []

        class PlanForever(Policy):
            def reset(self, example):
                pass

            def next_segment(self, conversation):
                calls.append(conversation)
                assert len(calls) < 100, "the rollout did not stop"
                if conversation.rstrip().endswith(FORCE_ANSWER_DIRECTIVE):
                    return "<answer>Iran</answer>"
                return "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>"

        cfg = RolloutConfig(max_iterations=3)
        traj = run_rollout(PlanForever(), tk1, tk1_web, tk1_example, cfg)
        assert len(calls) <= cfg.max_iterations + 3
        assert calls[-1].rstrip().endswith(FORCE_ANSWER_DIRECTIVE)
        assert [s.tag for s in traj.steps] == ["plan", "plan", "answer"]
        assert answer_items(traj) == ["iran"]
        assert "PLAN_COUNT" in validate_format(traj)

    def test_segment_truncated_at_first_action_close(self, tk1, tk1_example, tk1_web):
        policy = ScriptedSegments([
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan><answer>extra</answer>",
            "<answer>Iran</answer>",
        ])
        traj = run_rollout(policy, tk1, tk1_web, tk1_example)
        assert [s.tag for s in traj.steps] == ["plan", "answer"]
        assert answer_items(traj) == ["iran"]

    def test_trailing_think_kept_before_forced_answer(self, tk1, tk1_example, tk1_web):
        policy = ScriptedSegments(["<think>I give up</think>", "<answer>Iran</answer>"])
        traj = run_rollout(policy, tk1, tk1_web, tk1_example)
        assert [s.tag for s in traj.steps] == ["think", "answer"]

    @pytest.mark.parametrize("info", sorted(INFO_TAGS))
    def test_an_information_block_the_policy_wrote_is_dropped(self, tk1, tk1_example, tk1_web, info):
        # Kept, it would be masked out of the loss as retrieved text and
        # count as graph or web coverage for the reward.
        policy = ScriptedSegments([
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>",
            f"<{info}>Iran</{info}><answer>Iran</answer>",
            "<answer>Iran</answer>",           # consumed by the forced path
        ])
        traj = run_rollout(policy, tk1, tk1_web, tk1_example)
        assert [s.tag for s in traj.steps] == ["plan", "answer"]
        assert retrieval_mask(traj) == []
        breakdown = score_trajectory(traj, tk1_example.answers, COVERAGE_CKG)
        assert (breakdown.r_graph, breakdown.r_web) == (0.0, 0.0)


class TestRemotePolicy:
    def test_wire_protocol_and_rollout(self, stub_server, tk1, tk1_example, tk1_web):
        segments = [
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>",
            "<relation_search>Iranian rial | currency_of</relation_search>",
            "<neighbor_search>Iranian rial | currency_of</neighbor_search>",
            "<answer>Iran</answer>",
        ]
        state = {"i": 0}

        def serve(body):
            assert set(body) == {"conversation", "stop_tags"}
            assert body["stop_tags"] == STOP_TAGS
            seg = segments[state["i"]]
            state["i"] += 1
            return 200, {"segment": seg}

        stub_server.route("/policy", serve)
        policy = RemotePolicy(stub_server.url("/policy"))
        traj = run_rollout(policy, tk1, tk1_web, tk1_example)
        assert answer_items(traj) == ["iran"]
        # conversation grows monotonically and starts with the prompt
        convs = [body["conversation"] for _, body in stub_server.requests]
        assert all(tk1_example.question in c for c in convs)
        assert all(convs[i] == convs[i + 1][: len(convs[i])] for i in range(len(convs) - 1))

    def test_transport_failure_raises(self, stub_server):
        policy = RemotePolicy(stub_server.url("/missing"), timeout=5)
        with pytest.raises(RolloutError):
            policy.next_segment("conv")


# -- reference: the rollout loop that re-parses everything on every step -----

def _reference_rollout(policy, kg, web, example, cfg=None):
    """The engine as it was before segments were parsed on their own: every
    step re-parses the whole generated text."""
    cfg = cfg or RolloutConfig()
    prompt = build_prompt(example)
    policy.reset(example)
    text = ""
    iterations = 0
    answered = planned = False

    while True:
        segment = policy.next_segment(prompt + text)
        piece, action = _cut_at_action(segment)
        if action is None and not piece.strip():
            break
        try:
            parsed = parse_trajectory(text + piece, question_id=example.id)
        except ParseError:
            break
        if sum(step.tag in INFO_TAGS for step in parsed.steps) > iterations:
            break  # the piece holds an information block the engine did not inject
        text += piece
        if action is None:
            break
        if action == ANSWER:
            answered = True
            break
        if action == PLAN:
            if planned:
                break
            planned = True
            continue
        info = dispatch_action(parsed.steps[-1], kg, web)
        text += "\n" + render_block(info.tag, info.content)
        iterations += 1
        if iterations >= cfg.max_iterations:
            break

    if not answered:
        answer = force_final_answer(policy, prompt + text)
        text += ("\n" if text else "") + render_block(answer.tag, answer.content)
    return parse_trajectory(text, question_id=example.id)


class _ReferenceOracle(Policy):
    """The scripted oracle as a state machine, as it was before it ran as
    one generator and before it read only the last block: it re-parses the
    whole conversation, prompt included."""

    def reset(self, example):
        if not example.plan:
            raise RolloutError(f"question {example.id!r} has no recorded plan for the scripted oracle")
        self._example = example
        self._plan = parse_plan(example.plan)
        self._order = self._plan.order
        self._by_id = {sq.id: sq for sq in self._plan.sub_questions}
        self._plan_emitted = False
        self._qi = 0
        self._heads = []
        self._heads_initialized = False
        self._accum = set()
        self._bindings = {}
        self._gold = {}
        for h, r, t in example.critical_triples:
            self._gold.setdefault((normalize(display(h)), r), set()).add(normalize(display(t)))
        self._pending = None
        self._done = False

    def next_segment(self, conversation):
        if conversation.rstrip().endswith(FORCE_ANSWER_DIRECTIVE):
            return render_block(ANSWER, "; ".join(aliases[0] for aliases in self._example.answers if aliases))
        if self._done:
            return ""
        if not self._plan_emitted:
            self._plan_emitted = True
            return (render_block(THINK, "Decompose the question and schedule retrieval.") + "\n"
                    + render_block(PLAN, self._example.plan))
        if self._pending is not None:
            emission = self._consume_information(conversation)
            if emission is not None:
                return emission
        return self._advance()

    def _consume_information(self, conversation):
        kind, head, relation = self._pending
        try:
            steps = parse_trajectory(conversation).steps
        except ParseError:
            steps = ()
        last = steps[-1].content if steps else ""
        if kind == RELATION_SEARCH:
            candidates = [c.strip() for c in last.split(",") if c.strip()]
            chosen = next((c for c in candidates if normalize(c) == normalize(relation)), relation)
            self._pending = (NEIGHBOR_SEARCH, head, chosen)
            return render_block(NEIGHBOR_SEARCH, f"{head} | {chosen}")
        if kind == NEIGHBOR_SEARCH:
            if is_sentinel(last):
                self._pending = (WEB_SEARCH, head, relation)
                return render_block(WEB_SEARCH, f"{head} | {relation}")
            self._accum |= {normalize(part) for part in last.split(";") if normalize(part)}
            self._pending = None
            return None
        self._accum |= self._gold.get((normalize(head), relation), set())
        self._pending = None
        return None

    def _advance(self):
        while self._qi < len(self._order):
            sub = self._by_id[self._order[self._qi]]
            expr = sub.expr
            if not isinstance(expr, Ans):
                self._bindings[sub.id] = eval_expr(expr, self._bindings)
                self._qi += 1
                continue
            if not self._heads_initialized:
                self._heads = [expr.head] if not expr.head_is_ref else sorted(self._bindings.get(expr.head, set()))
                self._accum = set()
                self._heads_initialized = True
            if self._heads:
                head = self._heads.pop(0)
                self._pending = (RELATION_SEARCH, head, expr.relation_hypothesis)
                return render_block(RELATION_SEARCH, f"{head} | {expr.relation_hypothesis}")
            self._bindings[sub.id] = set(self._accum)
            self._accum = set()
            self._heads_initialized = False
            self._qi += 1
        self._done = True
        answers = sorted(self._bindings.get(self._plan.sub_questions[-1].id, set()))
        return render_block(ANSWER, "; ".join(answers))


class Recorder(Policy):
    """Passes calls through to ``inner`` and keeps every conversation shown."""

    def __init__(self, inner):
        self.inner = inner
        self.conversations = []

    def reset(self, example):
        self.inner.reset(example)

    def next_segment(self, conversation):
        self.conversations.append(conversation)
        return self.inner.next_segment(conversation)


def _outcome(run, policy, kg, web, example, cfg):
    """Everything a rollout exposes: the trajectory (steps and raw text) and
    the conversations the policy was shown. The steps must be those the raw
    text parses to."""
    recorder = Recorder(policy)
    traj = run(recorder, kg, web, example, cfg)
    assert traj == parse_trajectory(traj.raw, traj.question_id)
    return (traj.question_id, traj.steps, traj.raw), recorder.conversations


_CONTENTS = st.sampled_from([
    "", "x", "Iranian rial | currency_of", "Iranian_rial | currency", "Iran | country",
    "no delimiter", " | currency_of", "S1: Ans(country | currency_of(Iranian rial, ?))",
])
_TAGS = st.sampled_from([
    "think", "plan", "relation_search", "neighbor_search", "web_search", "answer", "relation_information",
])
_PARTS = st.one_of(
    st.sampled_from(["", " ", "\n", "bare words", "x < y"]),
    st.builds("<{0}>{1}</{0}>".format, _TAGS, _CONTENTS),
    st.builds("<lookup>{}</lookup>".format, _CONTENTS),
    st.builds("</{}>".format, _TAGS),
    st.builds("<{}>{}".format, _TAGS, _CONTENTS),
)
#: A policy segment: zero or more parts; zero parts is empty output.
_SEGMENTS = st.lists(st.lists(_PARTS, max_size=4).map("".join), max_size=8)


_ENTITIES = ("Hub", "Left_Wing", "Right_Wing", "Coin_A", "Coin_B", "Vault")
_RELATIONS = ("branch_to", "holds", "Guarded_By")
#: A dense graph with two tails per (head, relation) pair, so that hops fan
#: out; each case drops a drawn subset of it, so that some hops miss.
_DENSE = sorted({Triple(h, r, _ENTITIES[(i + k * (j + 1)) % 6])
                 for i, h in enumerate(_ENTITIES) for j, r in enumerate(_RELATIONS) for k in (1, 2)})
#: Literal heads: display form, identifier, other case, and an entity the graph lacks.
_LITERAL_HEADS = st.sampled_from(_ENTITIES).flatmap(
    lambda e: st.sampled_from([display(e), e, display(e).lower(), "Nowhere"]))
#: Relation hypotheses: exact, in another case, and missing from the graph.
_HYPOTHESES = st.sampled_from(_RELATIONS).flatmap(lambda r: st.sampled_from([r, r.upper(), r.lower(), "minted_by"]))
_GRAPH_WEB = OfflineWebTool([(["hub"], "Hub <b>branches</b> to two wings."), (["coin"], "Coins are held."),
                             (["vault", "guarded"], "The vault is guarded.")])


def _sub_question(earlier):
    """The right-hand side of one plan line that may refer to the ids in
    ``earlier``."""
    literal = st.builds("Ans(thing | {}({}, ?))".format, _HYPOTHESES, _LITERAL_HEADS)
    if not earlier:
        return literal
    ref = st.sampled_from(earlier)
    refs = st.lists(ref, min_size=2, max_size=3).map(", ".join)
    return st.one_of(
        st.builds("Ans(thing | {}({}, ?))".format, _HYPOTHESES, ref),
        literal,
        st.builds("inter({})".format, refs),
        st.builds("union({})".format, refs),
        st.builds("negation({}; {})".format, ref, refs),
    )


@st.composite
def _oracle_cases(draw):
    """A small graph, a question over it with a random plan of 1-5
    sub-questions and critical triples from the graph, and the graph the
    oracle runs on: the complete one or an IKG sampled from it."""
    # Each sub-question refers only to those before it in a drawn order, not
    # in declaration order: references run forward and backward, never in a
    # cycle.
    order = draw(st.permutations([f"S{i}" for i in range(1, draw(st.integers(1, 5)) + 1)]))
    rhs = {sq_id: draw(_sub_question(order[:pos])) for pos, sq_id in enumerate(order)}
    dropped = draw(st.sets(st.sampled_from(_DENSE)))
    triples = [t for t in _DENSE if t not in dropped]
    plan = "\n".join(f"{sq_id}: {rhs[sq_id]}" for sq_id in sorted(rhs))
    example = QAExample(
        id="drawn",
        question="What does the plan find?",
        topic_entities=(),
        answers=tuple(draw(st.lists(st.lists(st.sampled_from(_ENTITIES).map(display), max_size=2).map(tuple),
                                    max_size=3))),
        critical_triples=tuple(draw(st.lists(st.sampled_from(triples), max_size=6, unique=True)) if triples else ()),
        plan=plan,
    )
    kg = KnowledgeGraph.from_triples(triples)
    fraction = draw(st.sampled_from([None, 0.4, 1.0]))
    if fraction is not None:
        kg, _ = sample_ikg(kg, [example], fraction, seed=draw(st.integers(0, 3)))
    return kg, example


class TestEquivalence:
    """Parsing each segment once gives what re-parsing everything gave."""

    @settings(max_examples=300, deadline=None)
    @given(segments=_SEGMENTS, max_iterations=st.integers(1, 4))
    def test_random_policies(self, tk1, tk1_example, tk1_web, segments, max_iterations):
        cfg = RolloutConfig(max_iterations=max_iterations)
        expected = _outcome(_reference_rollout, ScriptedSegments(segments), tk1, tk1_web, tk1_example, cfg)
        assert _outcome(run_rollout, ScriptedSegments(segments), tk1, tk1_web, tk1_example, cfg) == expected

    @settings(max_examples=300, deadline=None)
    @given(case=_oracle_cases(), max_iterations=st.integers(1, 12))
    def test_scripted_oracle_on_random_plans(self, case, max_iterations):
        kg, example = case
        cfg = RolloutConfig(max_iterations=max_iterations)
        expected = _outcome(_reference_rollout, _ReferenceOracle(), kg, _GRAPH_WEB, example, cfg)
        assert _outcome(run_rollout, ScriptedOracle(), kg, _GRAPH_WEB, example, cfg) == expected

    @pytest.mark.parametrize("max_iterations", [3, 10])
    def test_scripted_oracle_on_the_toy_suite(self, toy_kg, toy_qa, toy_web, max_iterations):
        ikg, _ = sample_ikg(toy_kg, toy_qa, 0.4, seed=7)
        cfg = RolloutConfig(max_iterations=max_iterations)
        for graph in (toy_kg, ikg):
            for ex in toy_qa:
                expected = _outcome(_reference_rollout, _ReferenceOracle(), graph, toy_web, ex, cfg)
                assert _outcome(run_rollout, ScriptedOracle(), graph, toy_web, ex, cfg) == expected, ex.id


class _SnippetWeb(WebTool):
    def __init__(self, snippets):
        self._snippets = snippets

    def search(self, query, k):
        return self._snippets[:k]


class TestTagLikeText:
    def test_injected_information_never_breaks_the_grammar(self, tk1_example):
        kg = KnowledgeGraph.from_triples([
            Triple("Iranian_rial", "currency_of", "Iran_<x>"),
            Triple("Iranian_rial", "currency_<x>_code", "IRR"),
        ])
        web = _SnippetWeb(["see <br> here", "</web_information> and <x>"])
        policy = ScriptedSegments([
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>",
            "<relation_search>Iranian rial | currency_of</relation_search>",
            "<neighbor_search>Iranian rial | currency_of</neighbor_search>",
            "<web_search>Iranian rial | currency_of</web_search>",
            "<answer>Iran</answer>",
        ])
        traj = run_rollout(policy, kg, web, tk1_example)
        assert traj.step_signature[1:] == [
            ("relation_search", "Iranian rial | currency_of"),
            ("relation_information", "currency_of, currency_&lt;x>_code"),
            ("neighbor_search", "Iranian rial | currency_of"),
            ("neighbor_information", "Iran &lt;x>"),
            ("web_search", "Iranian rial | currency_of"),
            ("web_information", "see &lt;br> here\n&lt;/web_information> and &lt;x>"),
            ("answer", "Iran"),
        ]
        assert not validate_format(traj)

    def test_oracle_answers_a_question_with_tag_like_text(self, tk1, tk1_example, tk1_web):
        example = tk1_example._replace(question=tk1_example.question + " <i>exactly</i>")
        traj = run_rollout(ScriptedOracle(), tk1, tk1_web, example)
        assert answer_items(traj) == ["iran"]


def test_rollout_parses_linear_text(monkeypatch, tk1_web):
    """A fan-out over 300 heads (602 tool calls) parses at most the
    trajectory's length, counting the engine's and the oracle's parses."""
    heads = [f"Branch_{i}" for i in range(300)]
    triples = [Triple("Hub", "branch_to", h) for h in heads] + [Triple(h, "holds", f"Coin_{h}") for h in heads]
    example = QAExample(
        id="wide",
        question="Which coins do the branches of Hub hold?",
        topic_entities=("Hub",),
        answers=tuple((f"Coin {h}",) for h in heads),
        critical_triples=tuple(triples),
        plan="S1: Ans(place | branch_to(Hub, ?))\nS2: Ans(coin | holds(S1, ?))",
    )
    parsed = []

    def counting(text, *args, **kwargs):
        parsed.append(len(text))
        return parse_trajectory(text, *args, **kwargs)

    monkeypatch.setattr(rollout, "parse_trajectory", counting)
    monkeypatch.setattr(policies, "parse_trajectory", counting)
    traj = run_rollout(ScriptedOracle(), KnowledgeGraph.from_triples(triples), tk1_web, example,
                       RolloutConfig(max_iterations=800))
    assert sum(1 for s in traj.steps if s.tag in SEARCH_TAGS) == 602
    assert len(answer_items(traj)) == 300
    assert sum(parsed) <= len(traj.raw)
