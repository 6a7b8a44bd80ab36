"""Command-line interface.

``sample-ikg`` is the only randomized subcommand, and the only one with
``--seed``.

A URL selects a remote backend (``--policy-url``, ``--web-url``,
``--judge-url``); without one the scripted oracle, the offline
``--web-corpus`` and the rule judge run.

Start-up
--------
Every command is a process of its own, and importing costs it more than
its work on the toy suite. So each subcommand imports only the package
modules it runs, inside its ``cmd_*`` function; no package module imports
``dataclasses`` (which loads ``inspect``, ``ast`` and ``dis``): the records
are ``NamedTuple`` or plain classes. Only ``build-kg``, ``sample-ikg`` and
``rollout`` load the graph module ``kg``; the others take the coverage
labels, ``Triple``, ``display``, ``KGError`` and the removal log from
``qa``. For the same reason a launch that names its command builds that
one subparser only, not all seven.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

if TYPE_CHECKING:
    from .qa import QAExample
    from .trajectory import Trajectory


#: The subcommands, in the order the top-level help lists them.
COMMANDS = ("build-kg", "sample-ikg", "rollout", "score", "advantages", "filter-sft", "eval")


def build_parser(argv: Sequence[str] | None = None) -> argparse.ArgumentParser:
    """The CLI's parser. When ``argv``, the arguments it is to parse, starts
    with a subcommand, the parser holds that one subparser only: a launch
    then builds one of the seven. Its usage still names all seven, so it
    prints what the full parser prints; without a known subcommand first
    (``--help``, none, an unknown one) the full parser is built."""
    only = argv[0] if argv and argv[0] in COMMANDS else None
    parser = argparse.ArgumentParser(prog="kgqa", description=__doc__.partition("\nStart-up\n")[0])
    # With one subparser the usage would read "{score}"; the metavar keeps
    # the full parser's spelling. The full parser takes none: a metavar would
    # replace "command" in its missing-command and invalid-choice errors.
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}" if only else None)

    def command(name: str, run: Callable[[argparse.Namespace], int], summary: str):
        if only not in (None, name):
            return _skip
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        return p.add_argument

    arg = command("build-kg", cmd_build_kg, "load, validate and report a triple file")
    arg("--triples", required=True)
    arg("--aliases", default=None)
    arg("--out", default=None, help="write a normalized (deduplicated, sorted) TSV copy")

    arg = command("sample-ikg", cmd_sample_ikg, "derive an incomplete graph and removal log")
    arg("--triples", required=True)
    arg("--aliases", default=None)
    arg("--qa", required=True)
    arg("--fraction", type=float, required=True)
    arg("--seed", type=int, default=0, help="random seed")
    arg("--out-kg", required=True)
    arg("--out-log", required=True)

    arg = command("rollout", cmd_rollout, "run the generate-retrieve loop over a QA set")
    arg("--kg", required=True)
    arg("--aliases", default=None)
    arg("--qa", required=True)
    arg("--policy-url", default=None, help="generation server; without one the scripted oracle runs")
    arg("--web-corpus", default=None, help="offline web corpus, searched when no --web-url is given")
    arg("--web-url", default=None, help="web search server; wins over --web-corpus")
    arg("--out", required=True)
    arg("--masks", default=None, help="also write retrieval-mask spans here")
    arg("--max-iters", type=int, default=10)

    arg = command("score", cmd_score, "score trajectories against gold answers")
    arg("--traj", required=True)
    arg("--qa", required=True)
    arg("--ikg-log", required=True)
    arg("--out", required=True)

    arg = command("advantages", cmd_advantages, "group-relative advantages of each run of same-id score records")
    arg("--scores", required=True)
    arg("--out", required=True)

    arg = command("filter-sft", cmd_filter_sft, "filter trajectories into an SFT training file")
    arg("--traj", required=True)
    arg("--qa", required=True)
    arg("--ikg-log", required=True)
    arg("--judge-url", default=None, help="plan judge server; without one the rule judge scores plans")
    arg("--out", required=True)

    arg = command("eval", cmd_eval, "Hits@1 and web-usage report")
    arg("--traj", required=True)
    arg("--qa", required=True)
    arg("--out", required=True)

    return parser


def _skip(*args: object, **kwargs: object) -> None:
    """``add_argument`` for a subcommand the parser leaves out."""


def _labelled(args: argparse.Namespace) -> Iterator[tuple[Trajectory, QAExample, str]]:
    """Each trajectory of ``--traj`` with its QA record and the coverage
    label ``--ikg-log`` gives its question."""
    from .qa import KGError, QAError, load_qa, read_removal_log
    from .trajectory import read_trajectories

    qa = {ex.id: ex for ex in load_qa(args.qa)}
    coverage = read_removal_log(args.ikg_log).coverage
    for traj in read_trajectories(args.traj):
        ex = qa.get(traj.question_id)
        if ex is None:
            raise QAError(f"trajectory {traj.question_id!r} has no QA record")
        if traj.question_id not in coverage:
            raise KGError(f"no coverage label for question {traj.question_id!r} in {args.ikg_log}")
        yield traj, ex, coverage[traj.question_id]


def cmd_build_kg(args: argparse.Namespace) -> int:
    from .kg import load_triples, write_triples

    kg = load_triples(args.triples, args.aliases)
    if args.out:
        write_triples(kg, args.out)
    stats = {
        "triples": len(kg),
        "entities": len(kg.entities),
        "relations": len(kg.relations),
        "head_entities": len(kg.head_index),
    }
    print(json.dumps(stats))
    return 0


def cmd_sample_ikg(args: argparse.Namespace) -> int:
    from .kg import load_triples, sample_ikg, write_triples
    from .qa import load_qa, write_removal_log

    kg = load_triples(args.triples, args.aliases)
    qa = load_qa(args.qa)
    derived, log = sample_ikg(kg, qa, args.fraction, args.seed)
    write_triples(derived, args.out_kg)
    write_removal_log(log, args.out_log)
    removed = sum(len(v) for v in log.entries.values())
    print(json.dumps({
        "fraction": args.fraction,
        "seed": args.seed,
        "questions": len(qa),
        "removed_critical": removed,
        "surviving_triples": len(derived),
    }))
    return 0


def cmd_rollout(args: argparse.Namespace) -> int:
    from .kg import load_triples
    from .policies import RemotePolicy, ScriptedOracle
    from .qa import load_qa
    from .rollout import RolloutConfig, run_rollout
    from .trajectory import write_masks, write_trajectories
    from .web import OfflineWebTool, RemoteWebTool, WebToolError

    cfg = RolloutConfig(max_iterations=args.max_iters)  # the cheap checks first, before any file is read
    if not (args.web_url or args.web_corpus):
        raise WebToolError("rollout needs --web-corpus PATH or --web-url URL")
    kg = load_triples(args.kg, args.aliases)
    qa = load_qa(args.qa)
    web = RemoteWebTool(args.web_url) if args.web_url else OfflineWebTool.from_path(args.web_corpus)
    policy = RemotePolicy(args.policy_url) if args.policy_url else ScriptedOracle()
    trajs = [run_rollout(policy, kg, web, ex, cfg) for ex in qa]
    write_trajectories(trajs, args.out)
    if args.masks:
        write_masks(trajs, args.masks)
    print(json.dumps({"questions": len(qa), "trajectories": len(trajs)}))
    return 0


def cmd_score(args: argparse.Namespace) -> int:
    from . import rewards
    from .jsonio import write_jsonl

    records = [
        rewards.score_record(traj.question_id, rewards.score_trajectory(traj, ex.answers, label), label)
        for traj, ex, label in _labelled(args)
    ]
    write_jsonl(records, args.out)
    print(json.dumps({"scored": len(records)}))
    return 0


def cmd_advantages(args: argparse.Namespace) -> int:
    from . import rewards
    from .jsonio import write_jsonl

    records = rewards.read_scores(args.scores)
    groups = rewards.group_score_records(records)
    write_jsonl(groups, args.out)
    print(json.dumps({"groups": len(groups)}))
    return 0


def cmd_filter_sft(args: argparse.Namespace) -> int:
    from collections import Counter

    from . import filtering
    from .jsonio import write_jsonl

    judge = filtering.RemoteJudge(args.judge_url) if args.judge_url else filtering.RuleJudge()
    kept, dropped, failed = [], 0, Counter()  # failed: check code -> trajectories that failed it
    for traj, ex, label in _labelled(args):
        verdict = filtering.filter_trajectory(traj, ex, label, judge)
        if verdict.keep:
            kept.append(filtering.sft_record(ex, traj))
        else:
            dropped += 1
            failed.update(verdict.failed_checks)
    write_jsonl(kept, args.out)
    print(json.dumps({"kept": len(kept), "dropped": dropped, "failed": dict(sorted(failed.items()))}))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    from . import evaluate
    from .qa import load_qa
    from .trajectory import read_trajectories

    trajs = read_trajectories(args.traj)
    qa = load_qa(args.qa)
    report = evaluate.build_report(trajs, qa)
    evaluate.write_report(report, args.out)
    print(json.dumps(report))
    return 0


def _reported_errors() -> tuple[type[Exception], ...]:
    """The errors ``main`` reports as ``error: ...``: bad input, a failed
    backend or file. ``main`` looks them up only once an exception reaches
    it, so a command that succeeds imports no module it does not run."""
    from .filtering import JudgeError
    from .qa import KGError, QAError
    from .rollout import RolloutError
    from .web import WebToolError

    return KGError, QAError, WebToolError, RolloutError, JudgeError, ValueError, OSError


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.run(args)
    except _reported_errors() as exc:  # evaluated only once an exception arrives
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
