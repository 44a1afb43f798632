"""Scheduling, statistics and host facts shared by every workload.

A workload is a fixed job list of named operations.  The scheduler runs
complete passes over the list (in a seeded order) while another pass fits
in the time budget, then spends what is left re-running the operations
with the fewest samples.  Every execution is timed here, with
``perf_counter``, never from a timing field the program reports itself.

Host-speed scaling: the 2-core host this was tuned on switches every few
seconds, per CPU, between a fast state and states 1.4-1.8x slower, and
some runs spend all of their 25 seconds in a slow one.  Raw medians moved
by 30-45% between runs.  So ``HostClock`` times a fixed integer loop that
shares no code with the program (``reference_s``) before and after every
execution and, from a timer signal, every tenth of a second during it, and
scales the execution's time by how fast that loop ran: ``scaled = raw *
REFERENCE_S / mean loop time``.  Scaled seconds are wall seconds on this
host in its fast state; a faster or slower program moves them like wall
seconds.  In a one-minute trial, window medians of raw times moved by up
to 20% and those of scaled times by under 5%.  Records keep raw times too.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

# Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
# Fastest time of ``reference_s``'s loop on the 2-core Xeon host the
# benchmark was tuned on; it only sets the scale of the scaled seconds.
REFERENCE_S = 0.25e-3
_TABLE = tuple((i * 7 + 3) % 5 for i in range(27))


def _reference_loop() -> int:
    n, p, mul = 3, 5, _TABLE
    acc = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for s in range(n):
                    a = mul[(i * n + j) * n + s] * mul[(s * n + k) * n + j] - mul[(j * n + k) * n + s] * mul[
                        (i * n + s) * n + k]
                    if a % p:
                        acc += 1
    return acc


def reference_s() -> float:
    """Fastest of three timings of eight runs of the reference loop."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for _ in range(8):
            _reference_loop()
        best = min(best, time.perf_counter() - t0)
    return best


@dataclass
class Op:
    """One operation of a job list: ``run`` does the work and returns the
    output that the workload's check inspects afterwards, outside the timer.
    ``in_child`` marks work done by a child process on this CPU, which the
    timer's sampling would compete with; such work is scaled by the loop
    times before and after it only."""

    name: str
    run: Callable[[], object]
    in_child: bool = False


@dataclass
class Outcome:
    """What a check found in one execution: operations attempted and failed,
    and a reason for each failure."""

    attempted: int = 1
    failed: int = 0
    reasons: list = field(default_factory=list)

    def fail(self, reason: str, count: int = 1) -> "Outcome":
        self.failed += count
        self.reasons.append(reason)
        return self


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    reasons: list = field(default_factory=list)

    def add(self, outcome: Outcome) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.reasons.extend(outcome.reasons[: max(0, 20 - len(self.reasons))])


class HostClock:
    """Times executions and the host's speed along them.  Use it as a
    context manager: while open, a timer signal samples ``reference_s``
    every ``PERIOD_S`` seconds, and the time spent sampling is taken out of
    the execution it interrupted."""

    PERIOD_S = 0.1

    def __init__(self):
        self._refs = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        t0 = time.perf_counter()
        self._refs.append(reference_s())
        self._spent += time.perf_counter() - t0

    def __enter__(self) -> "HostClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def run(self, op: Op) -> tuple:
        """(output, raw seconds, scale to the reference speed) of one execution.
        A full collection first, so that no op pays for the garbage of the
        ops that happened to run before it in the seeded order."""
        gc.collect()
        refs = [reference_s()]
        timer = signal.setitimer(signal.ITIMER_REAL, 0) if op.in_child else None
        first, spent = len(self._refs), self._spent
        t0 = time.perf_counter()
        out = op.run()
        raw = time.perf_counter() - t0 - (self._spent - spent)
        if timer is not None:
            signal.setitimer(signal.ITIMER_REAL, *timer)
        refs += self._refs[first:]
        refs.append(reference_s())
        return out, raw, REFERENCE_S / statistics.fmean(refs)


@dataclass
class Samples:
    """Per op, scaled and raw execution times in seconds; ``in_pass`` marks
    the executions that belong to a complete pass over the job list."""

    times: dict
    raw: dict
    in_pass: dict
    passes: int = 0

    def record(self, name: str, raw: float, scale: float, in_pass: bool) -> None:
        self.times[name].append(raw * scale)
        self.raw[name].append(raw)
        self.in_pass[name].append(in_pass)


def execute(workload, op: Op, samples: Samples, tally: Tally, clock: HostClock, in_pass: bool) -> None:
    out, raw, scale = clock.run(op)
    samples.record(op.name, raw, scale, in_pass)
    tally.add(workload.check(op, out, scale))


def measure(workload, seconds: float, rng: random.Random, tally: Tally, clock: HostClock, ops=None) -> Samples:
    """Run ``ops`` (default ``workload.ops``) for about ``seconds``: at least
    one complete pass, further passes while one fits, then single ops while
    one fits."""
    ops = workload.ops if ops is None else ops
    samples = Samples(*({op.name: [] for op in ops} for _ in range(3)))

    def cost(name):
        return statistics.median(samples.raw[name])

    deadline = time.perf_counter() + seconds
    while True:
        order = list(ops)
        rng.shuffle(order)
        for op in order:
            execute(workload, op, samples, tally, clock, True)
        samples.passes += 1
        if samples.passes >= workload.max_passes:
            break
        if time.perf_counter() + sum(cost(op.name) for op in ops) > deadline:
            break
    while True:
        left = deadline - time.perf_counter()
        fits = [op for op in ops if cost(op.name) <= left]
        if not fits:
            break
        op = min(fits, key=lambda o: (len(samples.times[o.name]), cost(o.name)))
        execute(workload, op, samples, tally, clock, False)
    return samples


def wall_s(times: dict) -> float:
    """The job list once: the sum of every op's median time."""
    return sum(op_medians(times))


def op_medians(times: dict) -> list:
    return [statistics.median(ts) for ts in times.values()]


def pass_samples(samples: Samples) -> list:
    """Every execution that belongs to a complete pass, so each op is
    represented equally however many passes fitted."""
    out = []
    for name, ts in samples.times.items():
        out.extend(t for t, flag in zip(ts, samples.in_pass[name]) if flag)
    return out


def percentile(values: list, q: float) -> float:
    """Nearest-rank percentile ``q`` (0..100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def latency(values: list) -> dict:
    """Median and tail of latency samples in seconds.  The tail is the highest
    percentile of ``TAIL_LADDER`` with at least ten samples beyond it; with
    fewer than twenty samples none qualifies and the tail is the median."""
    n = len(values)
    tail_q = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n * (100.0 - q) / 100.0 >= 10:
            tail_q = q
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, tail_q),
        "tail_percentile": tail_q,
        "samples": n,
    }


def sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def steal_ticks() -> int:
    """Cumulative steal ticks of all CPUs, from /proc/stat (0 if unreadable)."""
    try:
        with open("/proc/stat", "r", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return 0
    return int(fields[8]) if len(fields) > 8 and fields[0] == "cpu" else 0


def git_sha(root: str):
    """The commit of ``root`` read from .git, or None outside a git checkout."""
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head, "r", encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(root, ".git", ref[5:]), "r", encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None
