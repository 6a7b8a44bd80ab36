import json
import re
import subprocess
import sys

import pytest

from kgqa_env.cli import main
from kgqa_env.data import TOY_ALIASES, TOY_KG, TOY_QA, TOY_WEB_CORPUS


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestBuildKg:
    def test_stats_and_normalized_copy(self, capsys, tmp_path):
        out = tmp_path / "kg.tsv"
        rc, stdout, _ = run(capsys, "build-kg", "--triples", str(TOY_KG),
                            "--aliases", str(TOY_ALIASES), "--out", str(out))
        assert rc == 0
        assert stdout == '{"triples": 96, "entities": 110, "relations": 33, "head_entities": 35}\n'
        lines = out.read_text().splitlines()
        assert len(lines) == 96
        assert lines == sorted(lines)

    def test_alias_only_entity_is_counted(self, capsys, tmp_path):
        aliases = tmp_path / "aliases.jsonl"
        aliases.write_text(TOY_ALIASES.read_text() + '{"entity": "Atlantis", "aliases": ["Lost City"]}\n')
        rc, stdout, _ = run(capsys, "build-kg", "--triples", str(TOY_KG), "--aliases", str(aliases))
        assert rc == 0
        assert json.loads(stdout)["entities"] == 111

    def test_malformed_file_reports_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("only\ttwo\n")
        rc, _, stderr = run(capsys, "build-kg", "--triples", str(bad))
        assert rc == 1
        assert "line 1" in stderr


class TestPipeline:
    @pytest.fixture
    def workdir(self, tmp_path, capsys):
        """Run sample-ikg + rollout over the toy suite once."""
        ikg_kg = tmp_path / "ikg.tsv"
        ikg_log = tmp_path / "ikg.jsonl"
        rc, stdout, _ = run(capsys, "sample-ikg", "--triples", str(TOY_KG), "--aliases", str(TOY_ALIASES),
                            "--qa", str(TOY_QA), "--fraction", "0.4", "--seed", "1",
                            "--out-kg", str(ikg_kg), "--out-log", str(ikg_log))
        assert rc == 0
        traj = tmp_path / "traj.jsonl"
        masks = tmp_path / "masks.jsonl"
        rc, _, _ = run(capsys, "rollout", "--kg", str(ikg_kg), "--aliases", str(TOY_ALIASES),
                       "--qa", str(TOY_QA), "--web-corpus", str(TOY_WEB_CORPUS),
                       "--out", str(traj), "--masks", str(masks))
        assert rc == 0
        return tmp_path

    def test_rollout_file_schema(self, workdir):
        lines = [json.loads(l) for l in (workdir / "traj.jsonl").read_text().splitlines()]
        assert len(lines) == 25
        assert all(set(rec) == {"id", "text"} for rec in lines)
        masks = [json.loads(l) for l in (workdir / "masks.jsonl").read_text().splitlines()]
        assert all(set(rec) == {"id", "masked_spans"} for rec in masks)
        assert all(isinstance(s, list) and len(s) == 2 for rec in masks for s in rec["masked_spans"])

    def test_score_advantages_filter_eval(self, workdir, capsys):
        scores = workdir / "scores.jsonl"
        rc, _, _ = run(capsys, "score", "--traj", str(workdir / "traj.jsonl"), "--qa", str(TOY_QA),
                       "--ikg-log", str(workdir / "ikg.jsonl"), "--out", str(scores))
        assert rc == 0
        recs = [json.loads(l) for l in scores.read_text().splitlines()]
        assert len(recs) == 25
        expected_keys = {"id", "format_ok", "r_ans", "R_acc", "R_graph", "R_web", "R_over", "coverage"}
        assert all(set(r) == expected_keys for r in recs)
        assert all(r["coverage"] == "IKG" for r in recs)  # every toy question loses a triple at 0.4

        adv = workdir / "adv.jsonl"
        rc, _, _ = run(capsys, "advantages", "--scores", str(scores), "--out", str(adv))
        assert rc == 0
        groups = [json.loads(l) for l in adv.read_text().splitlines()]
        assert all(set(g) == {"id", "group", "rewards", "advantages"} for g in groups)
        assert all(len(g["rewards"]) == len(g["advantages"]) for g in groups)

        sft = workdir / "sft.jsonl"
        rc, stdout, _ = run(capsys, "filter-sft", "--traj", str(workdir / "traj.jsonl"), "--qa", str(TOY_QA),
                            "--ikg-log", str(workdir / "ikg.jsonl"), "--out", str(sft))
        assert rc == 0
        summary = json.loads(stdout)
        assert summary["kept"] + summary["dropped"] == 25
        kept = [json.loads(l) for l in sft.read_text().splitlines()]
        assert all(set(r) == {"prompt", "completion", "masked_spans"} for r in kept)

        report_path = workdir / "report.json"
        rc, stdout, _ = run(capsys, "eval", "--traj", str(workdir / "traj.jsonl"), "--qa", str(TOY_QA),
                            "--out", str(report_path))
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert report["hits_at_1"] == 1.0
        assert report["web_search_ratio"] == 0.4
        assert report["n_questions"] == 25

    def test_filter_sft_counts_each_failed_check(self, tmp_path, capsys):
        # The toy suite at IKG 0.4, seed 0, as CI runs it: each dropped
        # trajectory counts once under every check code it failed.
        ikg_kg, ikg_log, traj = tmp_path / "ikg.tsv", tmp_path / "ikg.jsonl", tmp_path / "traj.jsonl"
        assert run(capsys, "sample-ikg", "--triples", str(TOY_KG), "--aliases", str(TOY_ALIASES),
                   "--qa", str(TOY_QA), "--fraction", "0.4", "--seed", "0",
                   "--out-kg", str(ikg_kg), "--out-log", str(ikg_log))[0] == 0
        assert run(capsys, "rollout", "--kg", str(ikg_kg), "--aliases", str(TOY_ALIASES), "--qa", str(TOY_QA),
                   "--web-corpus", str(TOY_WEB_CORPUS), "--out", str(traj))[0] == 0
        rc, stdout, _ = run(capsys, "filter-sft", "--traj", str(traj), "--qa", str(TOY_QA),
                            "--ikg-log", str(ikg_log), "--out", str(tmp_path / "sft.jsonl"))
        assert rc == 0
        assert stdout == ('{"kept": 9, "dropped": 16, "failed": {"ANSWER": 15, "RETRIEVAL_IKG_WEB_ABSENT": 15, '
                          '"RETRIEVAL_IKG_WEB_MISS": 1}}\n')

    def test_eval_counts_every_sample_in_either_order(self, workdir, capsys):
        right = (workdir / "traj.jsonl").read_text().splitlines()
        blank = [re.sub(r"<answer>[^<]*</answer>", "<answer></answer>", line) for line in right]
        for first, second in ((right, blank), (blank, right)):
            traj = workdir / "samples.jsonl"
            traj.write_text("".join(f"{a}\n{b}\n" for a, b in zip(first, second)))
            rc, stdout, _ = run(capsys, "eval", "--traj", str(traj), "--qa", str(TOY_QA),
                                "--out", str(workdir / "report.json"))
            assert rc == 0
            report = json.loads(stdout)
            assert (report["hits_at_1"], report["web_search_ratio"], report["n_questions"]) == (0.5, 0.4, 25)

    def test_score_matches_numeric_ids_across_files(self, workdir, capsys):
        # JSON ids written as numbers are read as text in the QA, trajectory and removal-log files alike
        qa, traj, log = (workdir / name for name in ("num_qa.jsonl", "num_traj.jsonl", "num_log.jsonl"))
        for src, dst in ((TOY_QA, qa), (workdir / "traj.jsonl", traj), (workdir / "ikg.jsonl", log)):
            rec = next(json.loads(l) for l in src.read_text().splitlines() if json.loads(l)["id"] == "q01")
            dst.write_text(json.dumps({**rec, "id": 1}) + "\n")
        scores = workdir / "num_scores.jsonl"
        rc, _, stderr = run(capsys, "score", "--traj", str(traj), "--qa", str(qa), "--ikg-log", str(log),
                            "--out", str(scores))
        assert rc == 0, stderr
        [rec] = [json.loads(l) for l in scores.read_text().splitlines()]
        assert rec["id"] == "1" and rec["coverage"] == "IKG"

    def test_score_requires_a_qa_record_for_every_trajectory(self, workdir, capsys):
        traj = workdir / "stray.jsonl"
        traj.write_text(json.dumps({"id": "stray", "text": "<plan>S1: x</plan><answer>a</answer>"}) + "\n")
        rc, _, stderr = run(capsys, "score", "--traj", str(traj), "--qa", str(TOY_QA),
                            "--ikg-log", str(workdir / "ikg.jsonl"), "--out", str(workdir / "x.jsonl"))
        assert rc == 1
        assert stderr == "error: trajectory 'stray' has no QA record\n"

    def test_eval_requires_a_qa_record_for_every_trajectory(self, workdir, capsys):
        # a stray web-search trajectory would otherwise raise web_search_ratio from 0.40 to 0.423
        traj = workdir / "stray.jsonl"
        stray = "<plan>S1: x</plan><web_search>x | r</web_search><web_information>y</web_information><answer>a</answer>"
        traj.write_text((workdir / "traj.jsonl").read_text() + json.dumps({"id": "stray", "text": stray}) + "\n")
        report_path = workdir / "report.json"
        rc, stdout, stderr = run(capsys, "eval", "--traj", str(traj), "--qa", str(TOY_QA), "--out", str(report_path))
        assert (rc, stdout) == (1, "")
        assert stderr == "error: trajectory 'stray' has no QA record\n"
        assert not report_path.exists()

    def test_eval_of_no_trajectory_is_one_error(self, tmp_path, capsys, caplog):
        traj, report_path = tmp_path / "empty.jsonl", tmp_path / "report.json"
        traj.write_text("")
        rc, stdout, stderr = run(capsys, "eval", "--traj", str(traj), "--qa", str(TOY_QA), "--out", str(report_path))
        assert (rc, stdout, stderr) == (1, "", "error: web_search_ratio needs at least one trajectory\n")
        assert caplog.records == []  # no "counted as a miss" warning for each of the 25 questions
        assert not report_path.exists()

    def test_score_requires_coverage_for_every_question(self, workdir, capsys):
        empty_log = workdir / "empty.jsonl"
        empty_log.write_text("")
        rc, _, stderr = run(capsys, "score", "--traj", str(workdir / "traj.jsonl"), "--qa", str(TOY_QA),
                            "--ikg-log", str(empty_log), "--out", str(workdir / "x.jsonl"))
        assert rc == 1
        assert "coverage" in stderr


class TestRolloutFlags:
    def test_offline_web_requires_corpus(self, capsys, tmp_path):
        rc, _, stderr = run(capsys, "rollout", "--kg", str(TOY_KG), "--qa", str(TOY_QA),
                            "--out", str(tmp_path / "t.jsonl"))
        assert rc == 1
        assert "web-corpus" in stderr


    def test_the_options_are_checked_before_any_file_is_read(self, capsys, tmp_path):
        missing = ["--kg", str(tmp_path / "missing.tsv"), "--qa", str(tmp_path / "missing.jsonl"),
                   "--out", str(tmp_path / "t.jsonl")]
        rc, _, stderr = run(capsys, "rollout", *missing, "--web-corpus", str(TOY_WEB_CORPUS), "--max-iters", "0")
        assert (rc, stderr) == (1, "error: max_iterations must be >= 1, got 0\n")
        rc, _, stderr = run(capsys, "rollout", *missing)
        assert (rc, stderr) == (1, "error: rollout needs --web-corpus PATH or --web-url URL\n")

    def test_blank_recorded_plan_is_reported(self, capsys, tmp_path):
        qa = tmp_path / "qa.jsonl"
        qa.write_text('{"id": "q", "question": "?", "topic_entities": [], "answers": [["a"]], "plan": "  \\n"}\n')
        rc, _, stderr = run(capsys, "rollout", "--kg", str(TOY_KG), "--qa", str(qa),
                            "--web-corpus", str(TOY_WEB_CORPUS), "--out", str(tmp_path / "t.jsonl"))
        assert rc == 1
        assert "no sub-questions" in stderr


    def test_a_snippet_with_a_lone_surrogate_reaches_the_trajectory_file(self, capsys, tmp_path):
        corpus = tmp_path / "web.jsonl"
        records = [json.loads(line) for line in TOY_WEB_CORPUS.read_text().splitlines() if line.strip()]
        corpus.write_text("".join(json.dumps({**rec, "snippet": rec["snippet"] + " \ud800"}) + "\n" for rec in records))
        ikg, log, traj = tmp_path / "ikg.tsv", tmp_path / "ikg.jsonl", tmp_path / "traj.jsonl"
        assert run(capsys, "sample-ikg", "--triples", str(TOY_KG), "--aliases", str(TOY_ALIASES), "--qa", str(TOY_QA),
                   "--fraction", "1", "--out-kg", str(ikg), "--out-log", str(log))[0] == 0
        rc, stdout, _ = run(capsys, "rollout", "--kg", str(ikg), "--aliases", str(TOY_ALIASES), "--qa", str(TOY_QA),
                            "--web-corpus", str(corpus), "--out", str(traj))
        assert rc == 0 and json.loads(stdout) == {"questions": 25, "trajectories": 25}
        texts = [json.loads(line)["text"] for line in traj.read_text(encoding="utf-8").splitlines()]
        assert len(texts) == 25 and any("\ud800</web_information>" in text for text in texts)

    @pytest.mark.parametrize("flag, value, field", [
        ("--max-iters", "0", "max_iterations"),
        ("--max-iters", "-2", "max_iterations"),
    ])
    def test_counts_below_one_are_reported(self, capsys, tmp_path, flag, value, field):
        out = tmp_path / "t.jsonl"
        rc, _, stderr = run(capsys, "rollout", "--kg", str(TOY_KG), "--qa", str(TOY_QA),
                            "--web-corpus", str(TOY_WEB_CORPUS), flag, value, "--out", str(out))
        assert rc == 1
        assert f"error: {field} must be >= 1, got {value}" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("removed", [["--strict-format"], ["--top-k-docs", "3"], ["--config", "x"]],
                             ids=["strict-format", "top-k-docs", "config"])
    def test_removed_options_are_unrecognized(self, capsys, tmp_path, removed):
        with pytest.raises(SystemExit) as exit_:
            main(["rollout", "--kg", str(TOY_KG), "--qa", str(TOY_QA), "--web-corpus", str(TOY_WEB_CORPUS),
                  "--out", str(tmp_path / "t.jsonl"), *removed])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not (tmp_path / "t.jsonl").exists()


class TestAdvantagesFlags:
    @pytest.mark.parametrize("record, complaint", [
        ('{"id": "q1"}', "'R_over'"),
        ('{"id": "q1", "R_over": "abc"}', "'R_over' must be a number"),
        ('{"id": 7, "R_over": 1.0}', "'id' must be text"),
    ])
    def test_malformed_score_record_is_reported(self, capsys, tmp_path, record, complaint):
        scores = tmp_path / "scores.jsonl"
        scores.write_text('{"id": "q1", "R_over": 1.0}\n' + record + "\n")
        rc, _, stderr = run(capsys, "advantages", "--scores", str(scores), "--out", str(tmp_path / "adv.jsonl"))
        assert rc == 1
        assert f"malformed score record at line 2 of {scores}: {complaint}" in stderr


class TestRemoteBackends:
    """A URL flag selects the remote backend; the stub server records what
    each one sends."""

    def test_rollout_sends_segments_and_web_queries(self, capsys, tmp_path, stub_server):
        script = iter(["<plan>S1: Ans(country | currency_of(Iranian rial, ?))</plan>",
                       "<web_search>Iranian rial | currency_of</web_search>",
                       "<answer>Iran</answer>"])
        stub_server.route("/policy", lambda body: (200, {"segment": next(script)}))
        stub_server.route("/web", lambda body: (200, {"snippets": ["The Iranian rial is the currency of Iran."]}))
        kg, qa = self._inputs(tmp_path)
        out = tmp_path / "t.jsonl"
        rc, stdout, stderr = run(capsys, "rollout", "--kg", kg, "--qa", qa, "--policy-url", stub_server.url("/policy"),
                                 "--web-url", stub_server.url("/web"), "--out", str(out))
        assert rc == 0, stderr
        assert json.loads(stdout) == {"questions": 1, "trajectories": 1}
        paths = [path for path, _ in stub_server.requests]
        assert paths == ["/policy", "/policy", "/web", "/policy"]
        assert stub_server.requests[2][1] == {"query": "iranian rial currency_of", "k": 3}
        [rec] = [json.loads(line) for line in out.read_text().splitlines()]
        assert "The Iranian rial is the currency of Iran." in rec["text"]
        assert rec["text"].endswith("<answer>Iran</answer>")

    def test_web_url_wins_over_web_corpus(self, capsys, tmp_path, stub_server):
        # the scripted oracle searches the web: the graph lacks the plan's hop
        stub_server.route("/web", lambda body: (200, {"snippets": ["from the server"]}))
        kg, qa = self._inputs(tmp_path)
        out = tmp_path / "t.jsonl"
        rc, _, stderr = run(capsys, "rollout", "--kg", kg, "--qa", qa, "--web-corpus", str(TOY_WEB_CORPUS),
                            "--web-url", stub_server.url("/web"), "--out", str(out))
        assert rc == 0, stderr
        assert [path for path, _ in stub_server.requests] == ["/web"]
        assert "from the server" in out.read_text()

    def test_filter_sft_posts_the_plan_to_the_judge(self, capsys, tmp_path, stub_server):
        stub_server.route("/judge", lambda body: (200, {"score": 1}))
        plan = "S1: Ans(country | currency_of(Iranian rial, ?))"
        traj, log = tmp_path / "t.jsonl", tmp_path / "log.jsonl"
        traj.write_text(json.dumps({"id": "q", "text": f"<plan>{plan}</plan>\n<answer>Iran</answer>"}) + "\n")
        log.write_text('{"id": "q", "removed": [], "coverage": "CKG"}\n')
        rc, _, stderr = run(capsys, "filter-sft", "--traj", str(traj), "--qa", self._inputs(tmp_path)[1],
                            "--ikg-log", str(log), "--judge-url", stub_server.url("/judge"),
                            "--out", str(tmp_path / "sft.jsonl"))
        assert rc == 0, stderr
        assert stub_server.requests == [("/judge", {"question": "What country uses the Iranian rial?", "plan": plan})]

    def test_filter_sft_reports_a_failing_judge(self, capsys, tmp_path, stub_server):
        stub_server.route("/judge", lambda body: (500, {"error": "overloaded"}))
        traj, log = tmp_path / "t.jsonl", tmp_path / "log.jsonl"
        traj.write_text(json.dumps({"id": "q", "text": "<plan>S1: x</plan>\n<answer>Iran</answer>"}) + "\n")
        log.write_text('{"id": "q", "removed": [], "coverage": "CKG"}\n')
        rc, _, stderr = run(capsys, "filter-sft", "--traj", str(traj), "--qa", self._inputs(tmp_path)[1],
                            "--ikg-log", str(log), "--judge-url", stub_server.url("/judge"),
                            "--out", str(tmp_path / "sft.jsonl"))
        assert rc == 1
        assert stderr.startswith(f"error: POST to {stub_server.url('/judge')} failed: ")

    @staticmethod
    def _inputs(tmp_path):
        """A graph without the currency hop, and one question whose recorded plan takes it."""
        kg, qa = tmp_path / "kg.tsv", tmp_path / "qa.jsonl"
        kg.write_text("Iranian_rial\tissued_by\tCentral_Bank_of_Iran\n")
        qa.write_text(json.dumps({"id": "q", "question": "What country uses the Iranian rial?",
                                  "topic_entities": ["Iranian_rial"], "answers": [["Iran"]],
                                  "plan": "S1: Ans(country | currency_of(Iranian rial, ?))"}) + "\n")
        return str(kg), str(qa)


#: Each subcommand and the options it takes, besides --help.
COMMANDS = {
    "build-kg": ("--triples", "--aliases", "--out"),
    "sample-ikg": ("--triples", "--aliases", "--qa", "--fraction", "--seed", "--out-kg", "--out-log"),
    "rollout": ("--kg", "--aliases", "--qa", "--policy-url", "--web-corpus", "--web-url", "--out", "--masks",
                "--max-iters"),
    "score": ("--traj", "--qa", "--ikg-log", "--out"),
    "advantages": ("--scores", "--out"),
    "filter-sft": ("--traj", "--qa", "--ikg-log", "--judge-url", "--out"),
    "eval": ("--traj", "--qa", "--out"),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_every_subcommand_formats_its_help(capsys, command):
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: kgqa {command}")
    options = re.findall(r"^  (?:-h, )?(--[a-z-]+)", out, re.MULTILINE)
    assert options == ["--help", *COMMANDS[command]]


def test_a_one_command_parser_prints_what_the_full_parser_prints(capsys):
    """A launch that names a command builds that subparser only; what the
    top level prints must not show it."""
    from kgqa_env.cli import COMMANDS, build_parser

    def printed(parse, argv):
        with pytest.raises(SystemExit) as exit_:
            parse(argv)
        out = capsys.readouterr()
        return exit_.value.code, out.out, out.err

    full = build_parser()
    assert tuple(full._subparsers._group_actions[0].choices) == COMMANDS
    assert printed(main, ["--help"]) == printed(full.parse_args, ["--help"])
    invalid, missing = printed(main, ["nope"]), printed(main, [])
    assert invalid == printed(build_parser().parse_args, ["nope"])
    assert missing == printed(build_parser().parse_args, [])
    # The full parser names its positional "command" in these two errors.
    assert "error: argument command: invalid choice: 'nope'" in invalid[2]
    assert missing[2].endswith("error: the following arguments are required: command\n")
    unrecognized = ["advantages", "--scores", "s.jsonl", "--out", "a.jsonl", "--bogus"]
    assert printed(main, unrecognized) == printed(build_parser().parse_args, unrecognized)
    for command in COMMANDS:
        one = build_parser([command])
        assert list(one._subparsers._group_actions[0].choices) == [command]
        assert one.format_usage() == full.format_usage()
        for argv in ([command], [command, "--help"]):  # the missing options; the command's help
            assert printed(main, argv) == printed(build_parser().parse_args, argv)


def test_a_programming_error_propagates(monkeypatch):
    from kgqa_env import cli

    def broken(args):
        raise AttributeError("'NoneType' object has no attribute 'head_index'")

    monkeypatch.setattr(cli, "cmd_build_kg", broken)
    with pytest.raises(AttributeError, match="head_index"):
        main(["build-kg", "--triples", str(TOY_KG)])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "kgqa_env", "build-kg", "--triples", str(TOY_KG)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["triples"] == 96
