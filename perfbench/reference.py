"""Machine-speed sampling with a fixed pure-Python reference workload.

On a shared 2-vCPU VM the same pass ran up to 1.5x slower from one
second, or one minute, to the next: over ten 30-second runs the median
pass time spread by 30% (quartile distance over median), and the median
set-up time by 33%.  Timed against a reference chunk run at the same
moments, they spread by 1-5% and 12%.  So the benchmark reports times in
seconds at a fixed nominal speed, the speed at which the chunk takes
``NOMINAL_CHUNK_S``: measured seconds x NOMINAL_CHUNK_S / chunk time.  The
measured seconds are reported beside them.

A pass runs the chunk every ``INTERVAL_S`` seconds from a timer signal
handler.  Work done in time T at a varying speed is T times the mean
speed, so the chunk time used is the harmonic mean of chunks sampled
evenly in time.  The chunks take about 1.5% of a pass; their time is
taken off the pass time, but in a traced pass it falls inside whichever
span they interrupt, in proportion to its length.  Under the heaviest
contention the chunk slows somewhat more than the library, so scaled pass
times then read up to ~8% low.  The set-up, which starts in a fresh
interpreter, is bracketed by chunks run just before and just after it.

The chunk does not touch tourneykit, so no change to the library moves
it: brute-force canonical forms, minimum over all 120 relabellings, of a
fixed set of labelled 5-vertex tournaments, written in the same style of
Python (integer bit operations, tuples, dicts, sets) as the library.
"""

from __future__ import annotations

import itertools
import signal
import statistics
import time

INTERVAL_S = 0.25
# chunk time when the 2-vCPU Xeon VM the benchmark was defined on was quiet
NOMINAL_CHUNK_S = 0.0025
_PAIRS = [(i, j) for i in range(5) for j in range(i + 1, 5)]
_PERMS = list(itertools.permutations(range(5)))
_CODES = range(0, 1 << len(_PAIRS), 128)
_CLASSES = 2  # distinct canonical codes among _CODES, checked on each run


def reference_chunk() -> int:
    seen = set()
    for code in _CODES:
        beats = {}
        for k, (i, j) in enumerate(_PAIRS):
            b = (code >> k) & 1
            beats[i, j] = b
            beats[j, i] = 1 - b
        seen.add(min(
            sum(beats[p[i], p[j]] << k for k, (i, j) in enumerate(_PAIRS))
            for p in _PERMS
        ))
    return len(seen)


def time_chunk() -> float:
    """Seconds taken by one run of the reference chunk."""
    start = time.perf_counter()
    classes = reference_chunk()
    elapsed = time.perf_counter() - start
    if classes != _CLASSES:
        raise RuntimeError(f"reference found {classes} classes, not {_CLASSES}")
    return elapsed


def bracket_chunk_s() -> float:
    """Mean time of three chunks in a row, for bracketing the set-up."""
    return sum(time_chunk() for _ in range(3)) / 3


class SpeedSampler:
    """Context manager: times the reference chunk once on entry, every
    INTERVAL_S seconds inside, and once on exit.

    ``inside_s`` is the time the chunks took inside the block, to be taken
    off the block's own time.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.inside_s = 0.0

    def _on_timer(self, signum, frame) -> None:
        self.samples.append(time_chunk())
        self.inside_s += self.samples[-1]

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(time_chunk())
        signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(time_chunk())

    @property
    def ref_s(self) -> float:
        """Chunk time at the block's mean speed."""
        return statistics.harmonic_mean(self.samples)
