"""Run the benchmark over several seeds and report, per workload and
end-to-end metric, the median and the quartile spread as a share of the
median, next to the bound in BENCHMARK.json.

    python3 benchmarks/spread.py --workloads hub-ckg cli-toy --seeds 1-5 [--repeat N] [--out summary.json]

A spread under a third of its bound is the target. ``setup_s`` has no
spread target; only its median is compared between sets of runs. With
``--seeds 3 --repeat 10`` every run has the same inputs, so the spread is
the machine's noise alone.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"), help="e.g. 1-10")
    parser.add_argument("--repeat", type=int, default=1, help="runs per seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", default=None, help="also write the summary as JSON here")
    args = parser.parse_args(argv)

    seeds = [seed for seed in args.seeds for _ in range(args.repeat)]
    summary: dict = {}
    all_ok = True
    for workload in args.workloads:
        values, walls, digests, failures = defaultdict(list), [], {}, 0
        for seed in seeds:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            walls.append(perf_counter() - start)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"]:
                failures += 1
                print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
            digest = [line for line in lines if line.startswith("digest.")]
            if digests.setdefault(seed, digest) != digest:
                failures += 1
                print(f"{workload} seed {seed}: the output digest differs from an earlier run of this seed")
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
        rows = {}
        print(f"\n{workload}: {len(seeds)} runs, wall per run median {statistics.median(walls):.1f}s "
              f"max {max(walls):.1f}s, incorrect runs {failures}")
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            all_ok &= ok
            rows[metric["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "bound": metric["bound"],
                                    "unit": metric["unit"], "values": vals}
            print(f"  {metric['name']:<20} median {med:12.5g} {metric['unit']:<4} spread {spread:6.3f} "
                  f"bound {metric['bound']:.2f} {'ok' if ok else 'WIDE'}")
        summary[workload] = {"runs": len(seeds), "seeds": seeds, "wall_s": walls,
                             "incorrect_runs": failures, "metrics": rows}
        all_ok &= failures == 0
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
