"""Reference-corrected host time.

The host this benchmark runs on drifts: a fixed pure-Python loop slows by
up to 1.6x in episodes that last several seconds, in CPU time as well as
wall time.  A single before/after calibration cannot follow that, so the
benchmark interleaves a short fixed *reference probe* with the workload
and rescales every stretch of workload time by the speed the probes saw
around it.

- Host time is process CPU time (user + system, :data:`CLOCK`): time
  the host gives to other tenants' processes does not count.  Neither
  does time the program spends blocked (a lock, a sleep, I/O), so
  ``run.py`` reads the wall clock beside every timed span and reports
  wall seconds per CPU second as a metric of its own.
- A probe runs :func:`reference_loop` in ``PROBE_CHUNKS`` chunks; its
  duration estimate is ``PROBE_CHUNKS x`` the median chunk time, so one
  disturbed chunk does not skew it.  The probe's own time is excluded
  from every measured interval.
- The :class:`Sampler` fires a probe every ``interval`` seconds of
  process CPU time from ``SIGPROF`` (between two bytecodes of the main
  thread), and callers force one at every interval boundary with
  :meth:`Sampler.mark`.
- :func:`correct` scales the stretch between probes *i* and *i+1* by
  ``P_REF_S / mean(d_i, d_{i+1})``: reference-corrected seconds are the
  seconds the work would take on a host whose probe reads ``P_REF_S``.

This module imports nothing from ``repro``, so a change to the program
cannot change the reference.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Sequence, Tuple

#: Reference probe duration (seconds): the median probe duration measured
#: on the 2-vCPU host the bounds in BENCHMARK.json were set on.  A
#: constant of the benchmark; never re-derived at run time.
P_REF_S = 0.0060

#: Inner-loop iterations per probe chunk, and chunks per probe.
PROBE_LOOPS = 3000
PROBE_CHUNKS = 5

#: Seconds of process CPU time between timer-driven probes, during a
#: long measured pass and during a short span (set-up, a warm rerun),
#: where a span of well under a second still needs several probes.
DEFAULT_INTERVAL_S = 0.25
SHORT_INTERVAL_S = 0.05

#: The host clock every interval and probe is read on.
CLOCK = time.process_time


def reference_loop(n: int) -> int:
    """A fixed mix of integer, dict and branch work: the host-speed ruler."""
    acc = 0
    table = {}
    for i in range(n):
        acc = (acc * 31 + i) & 0xFFFFFFFF
        table[i & 255] = acc
        if acc & 1:
            acc ^= table.get((i >> 3) & 255, 0)
    return acc


#: One probe: (start, end, duration estimate).  Start and end are
#: :data:`CLOCK` readings; the estimate is wall seconds, because the
#: kernel accounts process CPU time in scheduler ticks (4 ms here), too
#: coarse for one chunk, while a few-ms probe is rarely descheduled.
Mark = Tuple[float, float, float]


def run_probe(clock: Callable[[], float] = CLOCK) -> Mark:
    start = clock()
    stamps = [time.perf_counter()]
    for _ in range(PROBE_CHUNKS):
        reference_loop(PROBE_LOOPS)
        stamps.append(time.perf_counter())
    chunks = [b - a for a, b in zip(stamps, stamps[1:])]
    return start, clock(), PROBE_CHUNKS * statistics.median(chunks)


def segment_factors(marks: Sequence[Mark],
                    p_ref: float = P_REF_S) -> List[float]:
    """Factor of the stretch before probe 0, of each stretch between two
    probes, and of the stretch after the last probe: ``len(marks) + 1``
    values.  Stretch *k* follows the first *k* probes."""
    factors = [p_ref / marks[0][2]]
    for (_s0, _e0, d0), (_s1, _e1, d1) in zip(marks, marks[1:]):
        factors.append(p_ref / ((d0 + d1) / 2.0))
    factors.append(p_ref / marks[-1][2])
    return factors


def correct(marks: Sequence[Mark], start: float, end: float,
            p_ref: float = P_REF_S) -> Tuple[float, float]:
    """``(corrected, raw)`` seconds of ``[start, end]`` outside probes.

    Between probes *i* and *i+1* the factor is ``p_ref / mean(d_i,
    d_{i+1})``; before the first probe the first probe's factor applies,
    after the last the last one's.  Time inside a probe counts as
    neither raw nor corrected.
    """
    if not marks:
        raise ValueError("correction needs at least one probe mark")
    lows = [float("-inf")] + [e for _s, e, _d in marks]
    highs = [s for s, _e, _d in marks] + [float("inf")]
    corrected = raw = 0.0
    for lo, hi, factor in zip(lows, highs, segment_factors(marks, p_ref)):
        overlap = min(hi, end) - max(lo, start)
        if overlap > 0:
            raw += overlap
            corrected += overlap * factor
    return corrected, raw


@dataclass
class Sampler:
    """Interleaves reference probes with the workload.

    ``enabled=False`` runs no probe at all: :meth:`mark` then records a
    zero-length mark of exactly ``P_REF_S``, so corrected equals raw.
    That is the "sampler off" mode the output-identity check compares
    against.
    """

    enabled: bool = True
    interval: float = DEFAULT_INTERVAL_S
    clock: Callable[[], float] = CLOCK
    #: Append-only: the tracer reads it by index to cut its segments.
    marks: List[Mark] = field(default_factory=list)
    _busy: bool = False
    _armed: bool = False

    def mark(self) -> None:
        if self._busy:  # the timer fired inside a forced probe
            return
        self._busy = True
        try:
            if self.enabled:
                probe = run_probe(self.clock)
            else:
                now = self.clock()
                probe = (now, now, P_REF_S)
            self.marks.append(probe)
        finally:
            self._busy = False

    def _on_alarm(self, _signum, _frame) -> None:
        self.mark()

    def start(self) -> None:
        """Force a probe now and arm the interval timer."""
        self.mark()
        if self.enabled:
            signal.signal(signal.SIGPROF, self._on_alarm)
            self._armed = True
            self.resume()

    def pause(self) -> None:
        """Disarm the timer; :meth:`resume` re-arms it."""
        signal.setitimer(signal.ITIMER_PROF, 0.0)

    def resume(self, interval: float = 0.0) -> None:
        """Re-arm the timer, optionally with a new interval."""
        if interval:
            self.interval = interval
        if self._armed:
            signal.setitimer(signal.ITIMER_PROF, self.interval,
                             self.interval)

    @contextlib.contextmanager
    def paused(self):
        """No probe while a child process runs (it may not compete with
        the child for the host, nor run after the child's stretch)."""
        self.pause()
        try:
            yield
        finally:
            self.resume()

    def stop(self) -> None:
        """Disarm the timer and force a closing probe."""
        if self._armed:
            self.pause()
            signal.signal(signal.SIGPROF, signal.SIG_DFL)
            self._armed = False
        self.mark()

    def correct(self, start: float, end: float) -> Tuple[float, float]:
        return correct(self.marks, start, end)

    def probe_seconds(self, start: float, end: float) -> float:
        """Seconds spent inside probes within ``[start, end]``."""
        return sum(max(0.0, min(e, end) - max(s, start))
                   for s, e, _d in self.marks)

    def series(self, start: float, end: float) -> List[List[float]]:
        """The probe series within ``[start, end]``, offsets from *start*
        and durations in ms (what the details file records)."""
        return [[round(s - start, 4), round(d * 1e3, 4)]
                for s, _e, d in self.marks if start <= s <= end]
