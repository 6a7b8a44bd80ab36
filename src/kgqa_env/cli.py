"""Command-line interface.

Every subcommand accepts ``--config PATH`` pointing at a key=value file whose
keys mirror the long flag names (e.g. ``max-iters=5``); explicit flags win
over config values, which win over built-in defaults. Keys a subcommand does
not know are ignored so one config file can drive a whole pipeline.
``sample-ikg`` is the only randomized subcommand, and the only one with
``--seed``.

A URL selects a remote backend (``--policy-url``, ``--web-url``,
``--judge-url``); without one the scripted oracle, the offline
``--web-corpus`` and the rule judge run.

Each subcommand imports only the package modules it runs, inside its
``cmd_*`` function, because every command is a process of its own and the
whole package costs more to import than ``build-kg`` or ``advantages`` takes
to run.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator

if TYPE_CHECKING:
    from .qa import QAExample
    from .trajectory import Trajectory
    from .web import WebTool


#: Per subcommand: its parser and the flags a config file may set.
Commands = dict[str, tuple[argparse.ArgumentParser, list[argparse.Action]]]


def build_parser() -> tuple[argparse.ArgumentParser, Commands]:
    parser = argparse.ArgumentParser(prog="kgqa", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands: Commands = {}

    def command(name: str, run: Callable[[argparse.Namespace], int], summary: str):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", default=None, help="key=value file mirroring the flags")
        p.set_defaults(run=run)
        commands[name] = (p, [])
        return lambda *flags, **kw: commands[name][1].append(p.add_argument(*flags, **kw))

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
    arg("--top-k-relations", type=int, default=15)
    arg("--top-k-docs", type=int, default=3)
    arg("--strict-format", action="store_true")

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

    return parser, commands


def _load_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"malformed config file line {lineno} of {path}: {line!r}")
        values[key.strip()] = value.strip()
    return values


#: The values a config file may give a store-true key, in any case.
_BOOLEANS = dict.fromkeys(("1", "true", "yes", "on"), True) | dict.fromkeys(("0", "false", "no", "off"), False)


def _apply_config(parser: argparse.ArgumentParser, commands: Commands, argv: list[str]) -> argparse.Namespace:
    """Two-pass parse: pick up --config alone (a full parse would reject
    missing required flags the config provides), turn its values into
    defaults for the invoked subcommand (clearing `required` on flags it
    covers), then parse the real argv on top."""
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config")
    config = probe.parse_known_args(argv)[0].config
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    if not config or command not in commands:
        return parser.parse_args(argv)
    values = _load_config(config)
    subparser, actions = commands[command]
    defaults: dict[str, object] = {}
    for action in actions:
        key = action.option_strings[0].lstrip("-")
        if key in values:
            raw = values[key]
            if action.nargs == 0:  # store_true: the flag takes no value
                if raw.lower() not in _BOOLEANS:
                    raise ValueError(f"config key {key!r} must be one of {', '.join(_BOOLEANS)}, got {raw!r}")
                defaults[action.dest] = _BOOLEANS[raw.lower()]
            else:
                try:
                    defaults[action.dest] = action.type(raw) if action.type else raw
                except ValueError as exc:
                    raise ValueError(f"config key {key!r} in {config}: {exc}") from None
            action.required = False
    subparser.set_defaults(**defaults)
    return parser.parse_args(argv)


def _make_web(args: argparse.Namespace) -> WebTool:
    from .web import OfflineWebTool, RemoteWebTool, WebToolError

    if args.web_url:
        return RemoteWebTool(args.web_url)
    if not args.web_corpus:
        raise WebToolError("rollout needs --web-corpus PATH or --web-url URL")
    return OfflineWebTool.from_path(args.web_corpus)


def _labelled(args: argparse.Namespace) -> Iterator[tuple[Trajectory, QAExample, str]]:
    """Each trajectory of ``--traj`` with its QA record and the coverage
    label ``--ikg-log`` gives its question."""
    from .kg import KGError, read_removal_log
    from .qa import QAError, load_qa
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
        "entities": len(set(kg.head_index).union(*kg.pair_index.values(), kg.aliases)),
        "relations": len(kg.relations),
        "head_entities": len(kg.head_index),
    }
    print(json.dumps(stats))
    return 0


def cmd_sample_ikg(args: argparse.Namespace) -> int:
    from .kg import load_triples, sample_ikg, write_removal_log, write_triples
    from .qa import load_qa

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

    kg = load_triples(args.kg, args.aliases)
    qa = load_qa(args.qa)
    web = _make_web(args)
    policy = RemotePolicy(args.policy_url) if args.policy_url else ScriptedOracle()
    cfg = RolloutConfig(
        max_iterations=args.max_iters,
        top_k_relations=args.top_k_relations,
        top_k_docs=args.top_k_docs,
        strict_format=args.strict_format,
    )
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
    from . import filtering
    from .jsonio import write_jsonl

    judge = filtering.RemoteJudge(args.judge_url) if args.judge_url else filtering.RuleJudge()
    kept, dropped = [], 0
    for traj, ex, label in _labelled(args):
        if filtering.filter_trajectory(traj, ex, label, judge).keep:
            kept.append(filtering.sft_record(ex, traj))
        else:
            dropped += 1
    write_jsonl(kept, args.out)
    print(json.dumps({"kept": len(kept), "dropped": dropped}))
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
    from .kg import KGError
    from .qa import QAError
    from .rollout import RolloutError
    from .web import WebToolError

    return KGError, QAError, WebToolError, RolloutError, JudgeError, ValueError, OSError


def main(argv: list[str] | None = None) -> int:
    parser, commands = build_parser()
    try:
        args = _apply_config(parser, commands, list(argv) if argv is not None else sys.argv[1:])
        return args.run(args)
    except _reported_errors() as exc:  # evaluated only once an exception arrives
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
