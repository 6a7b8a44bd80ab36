import pytest

from kgqa_env.kg import SENTINEL, KnowledgeGraph, Triple, sample_ikg
from kgqa_env.policies import RemotePolicy, ScriptedOracle
from kgqa_env.qa import QAExample
from kgqa_env.rollout import (
    FORCE_ANSWER_DIRECTIVE,
    MALFORMED_TOOL_CALL,
    STOP_TAGS,
    WEB_UNAVAILABLE,
    Policy,
    RolloutConfig,
    RolloutError,
    dispatch_action,
    force_final_answer,
    run_rollout,
)
from kgqa_env.trajectory import (
    INFO_TAGS,
    SEARCH_TAGS,
    Step,
    answer_items,
    parse_trajectory,
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


class TestDispatch:
    def test_neighbor_lookup_uses_alias_resolution(self, tk1):
        step = Step("neighbor_search", "Iranian rial | currency_of")
        info = dispatch_action(step, tk1, OfflineWebTool([]), RolloutConfig())
        assert info.tag == "neighbor_information"
        assert info.content == "Iran"

    def test_removed_pair_gives_sentinel_exactly(self, tk1, tk1_example):
        ikg, _ = sample_ikg(tk1, [tk1_example], 1.0, seed=1)
        step = Step("neighbor_search", "Iranian rial | currency_of")
        info = dispatch_action(step, ikg, OfflineWebTool([]), RolloutConfig())
        assert info.content == SENTINEL

    def test_relation_search_lists_ranked_relations(self, toy_kg):
        step = Step("relation_search", "Germany | major_city")
        info = dispatch_action(step, toy_kg, OfflineWebTool([]), RolloutConfig())
        assert info.tag == "relation_information"
        assert info.content.split(", ")[0] == "major_city"

    def test_web_search_caps_snippets_at_top_k_docs(self):
        web = OfflineWebTool([(["iran"], f"doc {i}") for i in range(6)])
        kg = KnowledgeGraph.from_triples([Triple("a", "r", "b")])
        step = Step("web_search", "Iran | currency_of")
        info = dispatch_action(step, kg, web, RolloutConfig(top_k_docs=3))
        assert info.tag == "web_information"
        assert len(info.content.splitlines()) == 3

    def test_malformed_content_is_in_band(self, tk1):
        for content in ("no delimiter here", " | rel", "head | "):
            info = dispatch_action(Step("neighbor_search", content), tk1, OfflineWebTool([]), RolloutConfig())
            assert info.content == MALFORMED_TOOL_CALL

    def test_web_transport_failure_is_in_band(self, tk1):
        info = dispatch_action(Step("web_search", "a | b"), tk1, FailingWeb(), RolloutConfig())
        assert info.content == WEB_UNAVAILABLE

    def test_web_programming_error_propagates(self, tk1):
        with pytest.raises(AttributeError, match="programming error"):
            dispatch_action(Step("web_search", "a | b"), tk1, BuggyWeb(), RolloutConfig())

    def test_non_search_step_rejected(self, tk1):
        with pytest.raises(ValueError):
            dispatch_action(Step("think", "x"), tk1, OfflineWebTool([]), RolloutConfig())


class TestOracleRollout:
    def test_ckg_full_protocol(self, tk1, tk1_example, tk1_web):
        traj = run_rollout(ScriptedOracle(), tk1, tk1_web, tk1_example)
        tags = [s.tag for s in traj.steps]
        assert tags == [
            "think", "plan", "relation_search", "relation_information",
            "neighbor_search", "neighbor_information", "answer",
        ]
        assert answer_items(traj) == ["iran"]
        assert validate_format(traj).valid

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


class TestEngineEdges:
    def test_strict_mode_raises_with_partial(self, tk1, tk1_example, tk1_web):
        policy = ScriptedSegments([
            "<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>",
            "<answer>unclosed",
        ])
        with pytest.raises(RolloutError) as err:
            run_rollout(policy, tk1, tk1_web, tk1_example, RolloutConfig(strict_format=True))
        assert [s.tag for s in err.value.partial.steps] == ["plan"]

    def test_lenient_mode_drops_bad_segment_and_forces(self, tk1, tk1_example, tk1_web):
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
        assert "PLAN_COUNT" in {v.code for v in validate_format(traj).violations}

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
