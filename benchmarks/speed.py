"""Correction of the benchmark's timings for the CPU's momentary speed.

On a shared host a CPU's speed drifts, for seconds at a time, with the load
that other tenants put on the hardware it shares. On a 2-vCPU VM a fixed
pure-Python loop took 38 to 111 ms (quartile spread 0.20 of its median),
in CPU time as much as in wall time, so no process-local clock hides it, and
two runs of the same code differed by more than any bound a regression check
could use. Timing a fixed probe right before and right after a
piece of work measures the speed the work ran at; dividing by it cancels
most of the drift (on that VM, medians over 2.6 s of work spread 0.05 of
their median instead of 0.26).

A corrected time is the time the work would take on a CPU that runs the
probe in :data:`REF_PROBE_S`:

    corrected = (measured - fixed) * REF_PROBE_S / mean(probe before, probe after) + fixed

where ``fixed`` is the part of the measured time that no CPU sets (the stub
server's injected sleeps). The process must stay on one CPU between the
probes and the work (the benchmark pins it), or a probe measures another
CPU than the work ran on.

The probe must stress what the work stresses. The interpreter loop of
:func:`probe` follows compute-bound work such as ``relation_search``'s
edit distances; :class:`ScanProbe` walks a working set far larger than a
core's private caches, as the web tool's linear scan over 10^5 records
does. Measured over 200 s of alternating passes on that VM, correcting
``hub-ckg`` passes by the loop left a spread of 0.03 (the scan: 0.09), and
correcting ``fanout-ikg`` passes by the scan left 0.12 (the loop: 0.21;
uncorrected: 0.26).

The CLI commands (process start and imports) slow far less than the loop
in a contended stretch (correcting CLI passes by it widened their spread
from 0.06 to 0.27). :class:`CommandProbe` does what most of a command's
start does: a fresh interpreter imports ``requests``, the package's
heaviest dependency (a similar probe importing standard modules narrowed
the spread of CLI passes from 0.04 to 0.03). Nothing here follows the
set-up of the generated workloads, which reads megabytes of files and
builds large indexes: correcting it by the loop widened the spread of
back-to-back set-ups from 0.15 to 0.27, and by the scan narrowed it only
from 0.20 to 0.18, so the benchmark reports it as measured.
"""

from __future__ import annotations

import random
import subprocess
import sys
from time import perf_counter
from typing import Callable

#: Probe time of the nominal CPU that corrected times refer to: about the
#: median of either probe on the 2-vCPU VM the benchmark was defined on, so
#: that corrected and measured times read alike there.
REF_PROBE_S = 0.002
#: The same for :class:`CommandProbe`.
REF_COMMAND_S = 0.13
#: Work, in measured seconds, between two probes. Shorter pieces of work
#: share a probe pair; a longer one gets its own.
BLOCK_S = 0.05


def _loop() -> int:
    """Interpreter work of the kinds the package does: integer arithmetic,
    dict updates, string slicing and comparison."""
    counts: dict[str, int] = {}
    text = "relation_search neighbor_search"
    x = 0
    for i in range(6000):
        key = text[i % 23:i % 23 + 6]
        counts[key] = counts.get(key, 0) + 1
        x += i * i % 7
    return x + len(counts)


def probe() -> float:
    """Seconds the reference loop takes on this CPU now."""
    start = perf_counter()
    _loop()
    return perf_counter() - start


class ScanProbe:
    """Times a subset test against every fourth of 5x10^4 small frozensets
    (about 12 MB, six times a core's 2 MB L2 cache): the access pattern of
    ``OfflineWebTool.search``. The sets are built once, with a fixed seed."""

    def __init__(self, n: int = 50_000):
        rng = random.Random(0)
        self.items = [frozenset(rng.sample(range(n), 3)) for _ in range(n)]
        self.query = frozenset(range(0, n, 7))

    def __call__(self) -> float:
        start = perf_counter()
        query = self.query
        sum(1 for keys in self.items[::4] if keys <= query)
        return perf_counter() - start


class CommandProbe:
    """Times a fresh interpreter that imports ``requests``."""

    def __call__(self) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import requests"], check=True, timeout=60)
        return perf_counter() - start


class SpeedScale:
    """Collects measured times and hands them on corrected.

    :meth:`add` queues a measured time for one or more sink lists; once
    :data:`BLOCK_S` of work is queued, :meth:`flush` probes the CPU and
    appends the corrected times, computed from the probes before and after
    the queued work, to their sinks. Call :meth:`flush` before reading a
    sink, and right after moving the process to another CPU, so the next
    block's first probe is on the new CPU.
    """

    def __init__(self, probe_fn: Callable[[], float] | None = None, ref: float = REF_PROBE_S,
                 block_s: float = BLOCK_S) -> None:
        """``probe_fn`` (default :func:`probe`) takes ``ref`` seconds on the
        nominal CPU; ``block_s`` replaces :data:`BLOCK_S` for a slow probe."""
        self.probe = probe_fn or probe
        self.ref = ref
        self.block_s = block_s
        self._pending: list[tuple[float, float, tuple[list, ...]]] = []
        self._pending_s = 0.0
        self._last = self.probe()
        #: Every probe taken, in seconds.
        self.probes: list[float] = [self._last]

    def add(self, seconds: float, *sinks: list, fixed: float = 0.0) -> None:
        self._pending.append((seconds, fixed, sinks))
        self._pending_s += seconds
        if self._pending_s >= self.block_s:
            self.flush()

    def flush(self) -> None:
        now = self.probe()
        self.probes.append(now)
        factor = self.ref / ((self._last + now) / 2)
        for seconds, fixed, sinks in self._pending:
            corrected = (seconds - fixed) * factor + fixed
            for sink in sinks:
                sink.append(corrected)
        self._pending.clear()
        self._pending_s = 0.0
        self._last = now
