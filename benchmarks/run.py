"""kgqa-env benchmark: one command that generates seeded inputs, drives the
package through its public API, checks the outputs and prints every metric
by name and unit.

    python3 benchmarks/run.py --workload hub-ckg --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` of that checkout and exits non-zero, printing no result, when the
package is not there. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. Generated inputs live under ``.bench_work/`` for the run and
are removed after it; traced spans are kept under ``.bench_traces/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("hub-ckg", "fanout-ikg", "remote-policy", "cli-toy")


def import_package() -> None:
    """Import kgqa_env from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "kgqa_env" / "__init__.py").is_file():
        raise SystemExit(f"error: no kgqa_env package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kgqa_env

    if Path(kgqa_env.__file__).resolve().parent != SRC / "kgqa_env":
        raise SystemExit(f"error: kgqa_env was imported from {kgqa_env.__file__}, not from {SRC}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    # The remote workload talks to a server on 127.0.0.1; never via a proxy.
    os.environ["NO_PROXY"] = os.environ["no_proxy"] = "127.0.0.1,localhost"
    import workloads

    spec = workloads.SPECS[args.workload]
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        data = None
        if spec.qa_file is not None:
            data = work / "data"
            subprocess.run([sys.executable, str(HERE / "gen.py"), "--seed", str(args.seed), "--out", str(data)],
                           check=True, timeout=170)
        trace_path = ROOT / ".bench_traces" / f"{args.workload}-seed{args.seed}.tsv.gz"
        tot, metrics, lines = workloads.run(spec, data, work, args.seconds, bool(args.trace), trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass

    correct = not tot.problems and tot.failed == 0
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={tot.passes} "
          f"attempted={tot.attempted} failed={tot.failed} failed_ratio={tot.failed / tot.attempted:.4f}")
    for kind, digest in sorted(tot.digests.items()):
        print(f"digest.{kind}={digest}")
    if tot.partial_misses:
        print(f"Hits@1 missed on partial-hop questions (allowed): {' '.join(sorted(tot.partial_misses))}")
    for line in lines:
        print(line)
    for problem in tot.problems[:20]:
        print(f"CHECK FAILED: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": tot.attempted,
        "failed": tot.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
