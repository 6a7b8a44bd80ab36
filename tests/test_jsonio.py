import json
import socket
import subprocess
import sys

import pytest

from kgqa_env.cli import main
from kgqa_env.data import TOY_ALIASES, TOY_KG, TOY_QA, TOY_WEB_CORPUS
from kgqa_env.filtering import JudgeError, RemoteJudge
from kgqa_env.jsonio import json_id, post_json, read_jsonl, write_jsonl
from kgqa_env.policies import RemotePolicy
from kgqa_env.rewards import read_scores
from kgqa_env.rollout import STOP_TAGS, RolloutError
from kgqa_env.trajectory import read_trajectories
from kgqa_env.web import RemoteWebTool, WebToolError

GOOD_TRAJ = json.dumps({"id": "q1", "text": "<plan>S1: x</plan><answer>a</answer>"})


class TestJsonLines:
    def test_round_trip_skips_blank_lines(self, tmp_path):
        path = tmp_path / "recs.jsonl"
        write_jsonl([{"id": "é"}, [1, 2]], path)
        assert path.read_text(encoding="utf-8") == '{"id": "é"}\n[1, 2]\n'
        path.write_text(path.read_text(encoding="utf-8") + "\n  \n", encoding="utf-8")
        assert list(read_jsonl(path, ValueError, "record")) == [{"id": "é"}, [1, 2]]

    def test_a_record_with_a_lone_surrogate_is_written_with_escapes(self, tmp_path):
        # UTF-8 has no form for a lone surrogate; that record alone is written ASCII-escaped
        path = tmp_path / "recs.jsonl"
        records = [{"id": "é"}, {"id": "q", "text": "Iran \ud800 é"}, [1, 2]]
        write_jsonl(records, path)
        assert path.read_bytes() == '{"id": "é"}\n{"id": "q", "text": "Iran \\ud800 \\u00e9"}\n[1, 2]\n'.encode()
        assert list(read_jsonl(path, ValueError, "record")) == records

    def test_scores_file_bad_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "q1", "R_over": 1.0}\n{"id": "q2", \n')
        with pytest.raises(ValueError, match=f"line 2 of {path}"):
            read_scores(path)

    @pytest.mark.parametrize("r_over,shown", [("NaN", "nan"), ("Infinity", "inf"), ("1" + "0" * 400, "10+")],
                             ids=["nan", "infinity", "huge-int"])
    def test_scores_file_reward_no_float_holds_names_file_and_line(self, tmp_path, r_over, shown):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"id": "q", "R_over": 1.0}\n{"id": "q", "R_over": ' + r_over + "}\n")
        with pytest.raises(ValueError, match=f"line 2 of {path}: 'R_over' must be a finite float, got {shown}$"):
            read_scores(path)

    def test_trajectory_file_bad_json_names_file_and_line(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text(GOOD_TRAJ + "\nnot json\n")
        with pytest.raises(ValueError, match=f"line 2 of {path}"):
            read_trajectories(path)

    def test_trajectory_text_that_fails_to_parse_names_file_and_line(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text("\n" + GOOD_TRAJ + "\n" + json.dumps({"id": "q2", "text": "<plan>unclosed"}) + "\n")
        with pytest.raises(ValueError, match=f"line 3 of {path}.*unclosed"):
            read_trajectories(path)

    @pytest.mark.parametrize("value", ["null", "true", "false", '["q1"]', '{"a": 1}'],
                             ids=["null", "true", "false", "list", "object"])
    def test_trajectory_id_that_is_neither_text_nor_a_number_names_file_and_line(self, tmp_path, value):
        path = tmp_path / "traj.jsonl"
        path.write_text(GOOD_TRAJ + '\n{"id": ' + value + ', "text": "<plan>S1: x</plan><answer>a</answer>"}\n')
        with pytest.raises(ValueError, match=f"line 2 of {path}: 'id' must be text or a number"):
            read_trajectories(path)

    def test_numeric_trajectory_id_is_read_as_text(self, tmp_path):
        path = tmp_path / "traj.jsonl"
        path.write_text('{"id": 5, "text": "<plan>S1: x</plan><answer>a</answer>"}\n')
        assert [t.question_id for t in read_trajectories(path)] == ["5"]


@pytest.mark.parametrize("value, text", [("q", "q"), (5, "5"), (-2, "-2"), (7.5, "7.5")])
def test_json_id_keeps_text_and_writes_numbers_as_text(value, text):
    assert json_id(value, "id") == text


@pytest.mark.parametrize("value", [None, True, False, ["q"], {"a": 1}], ids=["null", "true", "false", "list", "object"])
def test_json_id_rejects_what_is_neither_text_nor_a_number(value):
    with pytest.raises(ValueError, match="'id' must be text or a number"):
        json_id(value, "id")


def _clients(url):
    """(call, error class) for each remote client, pointed at ``url``."""
    from kgqa_env.qa import QAExample

    ex = QAExample(id="q", question="?", topic_entities=(), answers=())
    return [
        (lambda: RemotePolicy(url, timeout=5).next_segment("conv"), RolloutError),
        (lambda: RemoteWebTool(url, timeout=5).search("q", 1), WebToolError),
        (lambda: RemoteJudge(url, timeout=5).score(ex, "p"), JudgeError),
    ]


class TestPostJson:
    def test_body_bytes_and_content_type(self, stub_server):
        stub_server.route("/p", lambda body: (200, {"segment": "s"}))
        payload = {"conversation": "Ünïcode <plan>", "stop_tags": STOP_TAGS}
        assert post_json(stub_server.url("/p"), payload, "segment", 5, RolloutError) == "s"
        assert stub_server.raw == [("application/json", json.dumps(payload).encode("utf-8"))]

    @pytest.mark.parametrize("status, payload", [
        (500, {"segment": "s", "snippets": [], "score": 1}),
        (200, b"<html>not json</html>"),
        (200, {"unrelated": 1}),
        (200, ["a", "list"]),
    ], ids=["http-500", "non-json-body", "missing-key", "not-an-object"])
    def test_failures_map_to_the_client_error(self, stub_server, status, payload):
        stub_server.route("/r", lambda body: (status, payload))
        for call, error_cls in _clients(stub_server.url("/r")):
            with pytest.raises(error_cls, match="failed"):
                call()

    @pytest.mark.parametrize("payload", [
        {"segment": None, "snippets": 5},
        {"segment": 5, "snippets": "abc"},
    ], ids=["null-segment-number-snippets", "number-segment-string-snippets"])
    def test_mistyped_reply_field_maps_to_the_client_error(self, stub_server, payload):
        stub_server.route("/r", lambda body: (200, payload))
        policy, web, _ = _clients(stub_server.url("/r"))
        for call, error_cls in (policy, web):
            with pytest.raises(error_cls, match="failed: '(segment|snippets)' is not a"):
                call()

    def test_closed_port_maps_to_the_client_error(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        for call, error_cls in _clients(f"http://127.0.0.1:{port}/r"):
            with pytest.raises(error_cls, match="failed"):
                call()


#: Package modules each subcommand loads besides ``kgqa_env.cli``. Only the
#: three commands that read a graph file load ``kg``; the others take the coverage
#: labels, ``Triple`` and the removal log from ``qa``.
_COMMAND_MODULES = {
    "build-kg": {"kg", "qa", "jsonio", "text"},
    "sample-ikg": {"kg", "jsonio", "text", "qa"},
    "rollout": {"kg", "qa", "web", "rollout", "policies", "plan", "trajectory", "jsonio", "text"},
    "score": {"rewards", "qa", "trajectory", "jsonio", "text"},
    "advantages": {"rewards", "qa", "trajectory", "jsonio", "text"},
    "filter-sft": {"filtering", "rewards", "plan", "qa", "trajectory", "jsonio", "text"},
    "eval": {"evaluate", "qa", "trajectory", "jsonio", "text"},
}


#: Modules of the HTTP client, which no offline run loads.
_HTTP_CLIENT = {"requests", "urllib.request"}
#: Modules no command needs: ``dataclasses`` and ``inspect``, which it loads,
#: cost every command about 6 ms; ``logging``, which only ``eval``'s warning
#: for a question without a trajectory uses, about 3 ms.
_UNNEEDED = {"dataclasses", "inspect", "logging"}


def _loaded_after(code):
    """Run ``code`` in a fresh interpreter; return the names in its ``sys.modules``."""
    report = "\nimport json, sys; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", code + report], capture_output=True, text=True, timeout=60, check=True)
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _package_modules(loaded):
    return {m.removeprefix("kgqa_env.") for m in loaded if m.startswith("kgqa_env.")} - {"cli"}


def test_cli_import_leaves_the_http_client_unloaded():
    loaded = _loaded_after("import kgqa_env.cli")
    assert not loaded & _HTTP_CLIENT
    assert _package_modules(loaded) == set()


@pytest.fixture(scope="module")
def toy_pipeline(tmp_path_factory):
    """Each subcommand's argv, over files the pipeline before it wrote."""
    w = tmp_path_factory.mktemp("pipeline")
    argvs = {
        "build-kg": ["--triples", TOY_KG, "--aliases", TOY_ALIASES, "--out", w / "kg.tsv"],
        "sample-ikg": ["--triples", TOY_KG, "--aliases", TOY_ALIASES, "--qa", TOY_QA, "--fraction", "0.4",
                       "--out-kg", w / "ikg.tsv", "--out-log", w / "ikg.jsonl"],
        "rollout": ["--kg", w / "ikg.tsv", "--aliases", TOY_ALIASES, "--qa", TOY_QA, "--web-corpus", TOY_WEB_CORPUS,
                    "--out", w / "traj.jsonl", "--masks", w / "masks.jsonl"],
        "score": ["--traj", w / "traj.jsonl", "--qa", TOY_QA, "--ikg-log", w / "ikg.jsonl", "--out", w / "scores.jsonl"],
        "advantages": ["--scores", w / "scores.jsonl", "--out", w / "adv.jsonl"],
        "filter-sft": ["--traj", w / "traj.jsonl", "--qa", TOY_QA, "--ikg-log", w / "ikg.jsonl", "--out", w / "sft.jsonl"],
        "eval": ["--traj", w / "traj.jsonl", "--qa", TOY_QA, "--out", w / "report.json"],
    }
    argvs = {cmd: [cmd, *map(str, argv)] for cmd, argv in argvs.items()}
    for argv in argvs.values():
        assert main(argv) == 0
    return argvs


@pytest.mark.parametrize("command", list(_COMMAND_MODULES))
def test_each_subcommand_loads_only_the_modules_it_runs(toy_pipeline, command):
    loaded = _loaded_after(f"from kgqa_env.cli import main; assert main({toy_pipeline[command]!r}) == 0")
    assert not loaded & _HTTP_CLIENT
    assert not loaded & _UNNEEDED
    assert _package_modules(loaded) == _COMMAND_MODULES[command]
