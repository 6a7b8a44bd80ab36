import subprocess
import sys
from pathlib import Path

import pytest

import gen
import workloads
from kgqa_env.kg import load_triples, sample_ikg
from kgqa_env.policies import RemotePolicy, ScriptedOracle
from kgqa_env.qa import load_qa
from kgqa_env.rollout import RolloutConfig, RolloutError, run_rollout
from kgqa_env.web import OfflineWebTool, RemoteWebTool
from test_bench_gen import SMALL

BENCH = Path(__file__).resolve().parents[1]
SPEC = workloads.Spec("stub-test", "qa_fanout.jsonl", ikg=True, remote=True, max_iterations=1000,
                      tail_pct=75, setup_reps=1)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("stub")
    gen.generate(3, out, SMALL)
    return out


def test_replay_gives_the_in_process_oracle_trajectories(data):
    qa = load_qa(data / SPEC.qa_file)
    kg, _ = sample_ikg(load_triples(data / "kg.tsv"), qa, workloads.IKG_FRACTION, workloads.IKG_SEED)
    cfg = RolloutConfig(max_iterations=SPEC.max_iterations)
    web = OfflineWebTool.from_path(data / "web.jsonl")
    expected = [run_rollout(ScriptedOracle(), kg, web, ex, cfg).raw for ex in qa]

    server = workloads.StubProcess(data, SPEC, workloads.child_env()).wait_ready()
    try:
        assert server.recorded["searches"] > 0, "the IKG subset should reach the web fallback"
        remote, remote_web = RemotePolicy(server.url("/policy")), RemoteWebTool(server.url("/web"))
        for _ in range(2):  # replay is stateless, so it repeats
            assert [run_rollout(remote, kg, remote_web, ex, cfg).raw for ex in qa] == expected
        stats = server.stats()
        assert stats["requests"]["/policy"] == 2 * server.recorded["segments"]
        assert stats["requests"]["/web"] == 2 * server.recorded["searches"]
        assert stats["bytes_in"]["/policy"] > 0 and not stats["misses"]
        with pytest.raises(RolloutError):
            remote.next_segment("a conversation never recorded")
        assert server.stats()["misses"] == {"/policy": 1}
    finally:
        server.close()
    assert server.proc.returncode == 0


def test_forced_answers_are_noted():
    class Silent(ScriptedOracle):
        def next_segment(self, conversation):  # emits no action, so the loop forces an answer
            segment = super().next_segment(conversation)
            return segment if segment.startswith("<answer>") else ""

    from kgqa_env.data import TOY_KG, TOY_QA, TOY_WEB_CORPUS

    ex = load_qa(TOY_QA)[0]
    policy = workloads.ForcedAnswers(Silent())
    run_rollout(policy, load_triples(TOY_KG), OfflineWebTool.from_path(TOY_WEB_CORPUS), ex, RolloutConfig())
    assert policy.forced == [ex.id]


def test_benchmark_refuses_to_run_without_the_package(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    (tmp_path / "benchmarks").mkdir()
    for name in ("run.py", "workloads.py", "tracing.py", "speed.py", "stub.py", "gen.py"):
        (tmp_path / "benchmarks" / name).write_bytes((BENCH / name).read_bytes())
    proc = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "hub-ckg", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_partial_hops_are_pairs_that_keep_other_tails():
    from kgqa_env.kg import KnowledgeGraph, Triple
    from kgqa_env.qa import QAExample

    graph = KnowledgeGraph.from_triples([Triple("A", "r", "X"), Triple("B", "r", "Y")])
    batch = [QAExample(qid, "?", (), (), (triple,)) for qid, triple in (
        ("kept", Triple("A", "r", "X")),
        ("partial", Triple("A", "r", "Z")),  # A still has X under r: no sentinel
        ("emptied", Triple("C", "r", "W")),  # nothing left under (C, r): the sentinel fires
    )]
    assert workloads.partial_hops(graph, batch) == {"partial"}
