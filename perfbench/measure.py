"""Timing samples scaled to a reference speed, and operation outcomes.

On a shared 2-vCPU KVM guest (Intel Xeon, Python 3.11.7), identical passes
over sbprof code drift by up to 1.8x over tens of seconds. The drift shows
in process CPU time as much as in wall time, so it is the core running
slower, not the process waiting. `Speed` therefore times a fixed pure-Python
reference loop, which shares no code with sbprof, every TICK_SECONDS
between operations. Each sample is then scaled by REF_SECONDS over the mean
of the two reference timings around it. A scaled time is the time the
operation would take on a machine where one reference run takes
REF_SECONDS; the raw wall-clock samples are kept alongside.
"""

from __future__ import annotations

import hashlib
import statistics
from array import array
from collections import defaultdict
from time import perf_counter

REF_SECONDS = 0.002   # about the median reference run on that guest
TICK_SECONDS = 0.25   # operation time between two reference timings


def _reference_run() -> int:
    """Dict, list, tuple, string and sort work, like sbprof's own code."""
    table = {}
    rows = []
    for i in range(3000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        rows.append((key, str(i)))
    rows.sort()
    return len(table) + len(rows)


class Speed:
    """Reference timings taken between operations; see the module docstring."""

    def __init__(self):
        self.refs = array("d")
        self.spent = 0.0        # wall time spent in reference runs
        self._next = 0.0

    @property
    def epoch(self) -> int:
        return len(self.refs) - 1

    def tick(self, force: bool = False):
        """Time the reference loop if TICK_SECONDS have passed."""
        now = perf_counter()
        if not force and now < self._next:
            return
        best = float("inf")
        for _ in range(3):
            t0 = perf_counter()
            _reference_run()
            best = min(best, perf_counter() - t0)
        self.refs.append(best)
        end = perf_counter()
        self.spent += end - now
        self._next = end + TICK_SECONDS

    def scale(self, epoch: int) -> float:
        """Factor for a sample taken after reference timing `epoch`."""
        around = self.refs[max(epoch, 0):epoch + 2]
        return REF_SECONDS / (sum(around) / len(around))

    def mean_scale(self, first: int = 0) -> float:
        """Factor over all reference timings from `first` on."""
        return REF_SECONDS / statistics.fmean(self.refs[first:])


class Record:
    """What one pass observed: operations with their outcome, other timing
    samples, and a digest of the outputs a traced pass must reproduce.

    Samples are 4-byte floats. Each series also notes where a new reference
    timing began, instead of storing it with every sample, so that memory
    grows by only a few bytes per operation and peak RSS hardly depends on
    how many operations a run gets through."""

    def __init__(self, speed: Speed):
        self.speed = speed
        self.attempted = 0
        self.failed = 0
        self.wrong = 0              # failed checks; errors are not wrong
        self.error_kinds = defaultdict(int)
        self.notes = []
        self.outputs = hashlib.sha1()
        self.op_ok = array("b")     # outcome of each sample in series "op"
        # name -> (samples, [(index of first sample, reference timing), ...])
        self._samples = defaultdict(lambda: (array("f"), []))

    def time(self, name: str, seconds: float):
        values, marks = self._samples[name]
        epoch = max(self.speed.epoch, 0)
        if not marks or marks[-1][1] != epoch:
            marks.append((len(values), epoch))
        values.append(seconds)

    def names(self):
        return list(self._samples)

    def count(self, name: str) -> int:
        return len(self._samples[name][0]) if name in self._samples else 0

    def wall(self, name: str) -> list:
        return list(self._samples[name][0]) if name in self._samples else []

    def scaled(self, name: str) -> list:
        if name not in self._samples:
            return []
        values, marks = self._samples[name]
        out = []
        bounds = [start for start, _e in marks[1:]] + [len(values)]
        for (start, epoch), end in zip(marks, bounds):
            factor = self.speed.scale(epoch)
            out.extend(v * factor for v in values[start:end])
        return out

    def ok_ops(self) -> list:
        """Scaled latencies of the operations that succeeded."""
        return [t for t, ok in zip(self.scaled("op"), self.op_ok) if ok]

    def ops_per_s(self) -> float:
        """Successful operations per second of time spent in operations,
        failed ones included."""
        spent = sum(self.scaled("op"))
        return sum(self.op_ok) / spent if spent else 0.0

    def output(self, *parts):
        self.outputs.update(repr(parts).encode("utf-8"))

    def _note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text)

    def error(self, elapsed, where, exc):
        """One operation that raised a SandboxError."""
        self.attempted += 1
        self.failed += 1
        self.time("op", elapsed)
        self.op_ok.append(0)
        self.error_kinds[f"{where}:{type(exc).__name__}"] += 1
        self._note(f"{where}: {exc}")
        self.output("error", where, type(exc).__name__)

    def outcome(self, elapsed, ok, what=""):
        """One timed operation whose output was checked."""
        self.time("op", elapsed)
        self.op_ok.append(bool(self.check(ok, what)))

    def check(self, ok, what=""):
        """One checked operation outside the latency samples."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            self._note(f"wrong output: {what}")
        return ok


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def geometric_mean(values) -> float:
    return statistics.geometric_mean(values) if values else 0.0


def percentile(values, q) -> float:
    """Percentile q (0-100) by nearest rank."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]
