"""Latency-distribution telemetry: HDR-style log-bucketed histograms.

``CounterSink`` collapses the per-syscall story to flat tallies; a
mechanism whose median forward is cheap but whose p99 stalls (a SIGSYS
delivery landing on a contended selector, a first-execution rewrite) is
invisible there.  :class:`LatencyAnalyzer` pairs ``SyscallEnter`` /
``SyscallExit`` events per ``(pid, tid)`` and feeds the cycle deltas into
:class:`LogHistogram` — power-of-two octaves split into
``2**SUB_BUCKET_BITS`` sub-buckets, so any recorded value is within
~``1/2**SUB_BUCKET_BITS`` of its bucket (the HdrHistogram layout), with
O(1) record cost and a few hundred bytes of state per key.

Keys are ``(phase, nr)`` — a ``write`` forwarded by an interposer's
SIGSYS handler (``sud-handler``) is a different distribution from the
same ``write`` as a raw app trap, which is exactly the per-mechanism-
phase attribution Table 5's cost decomposition needs.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.observability.analyzers.base import Analyzer
from repro.observability.events import BusEvent, SyscallEnter, SyscallExit

#: Sub-bucket resolution: 2**3 = 8 sub-buckets per power-of-two octave,
#: i.e. every value lands in a bucket within 12.5% of its magnitude.
SUB_BUCKET_BITS = 3
_SUB = 1 << SUB_BUCKET_BITS


def bucket_index(value: int) -> int:
    """Index of the log-bucket holding *value* (values < 8 are exact)."""
    if value < _SUB:
        return value
    shift = value.bit_length() - SUB_BUCKET_BITS - 1
    return (shift << SUB_BUCKET_BITS) + (value >> shift)


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``(low, high)`` value range of bucket *index*."""
    if index < _SUB:
        return index, index
    shift = (index - _SUB) >> SUB_BUCKET_BITS
    mantissa = index - (shift << SUB_BUCKET_BITS)
    low = mantissa << shift
    high = ((mantissa + 1) << shift) - 1
    return low, high


def percentile_rank(count: int, p: float) -> int:
    """Target rank (1-based) of percentile *p* over *count* values:
    ``ceil(count * p / 100)`` computed in integer tenths.

    The single rank rule every histogram consumer shares — the SLO
    report, the per-span analyzer snapshots, and ``sloexplain`` — so
    two code paths can never round a boundary differently.  The tenths
    conversion uses explicit half-up rounding: ``int(round(p * 10))``
    banker's-rounds ties to even (``round(992.5) == 992``), which
    silently shifted the target rank down at .5-tenth boundaries like
    ``p=99.25``.
    """
    tenths = int(p * 10 + 0.5)
    return max(1, -(-count * tenths // 1000))  # ceil


def percentile_of_doc(doc: Dict, p: float) -> int:
    """Percentile *p* of a serialized histogram (``to_dict`` output) —
    exact: the sparse bucket table round-trips the full state, so this
    agrees byte-for-byte with the live histogram's :meth:`percentile`."""
    return LogHistogram.from_dict(doc).percentile(p)


class LogHistogram:
    """Sparse log-bucketed histogram of non-negative integers."""

    __slots__ = ("buckets", "count", "total", "min", "max")

    def __init__(self) -> None:
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max = 0

    def record(self, value: int) -> None:
        # bucket_index inlined: this runs once per simulated request.
        if value < _SUB:
            if value < 0:
                value = 0
            index = value
        else:
            shift = value.bit_length() - SUB_BUCKET_BITS - 1
            index = (shift << SUB_BUCKET_BITS) + (value >> shift)
        buckets = self.buckets
        buckets[index] = buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value
        if self.min is None or value < self.min:
            self.min = value

    def merge(self, other: "LogHistogram") -> None:
        for index, n in other.buckets.items():
            self.buckets[index] = self.buckets.get(index, 0) + n
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)
        if other.min is not None:
            self.min = other.min if self.min is None \
                else min(self.min, other.min)

    def percentile(self, p: float) -> int:
        """Value at percentile *p* (0–100]: the upper bound of the bucket
        the target rank falls in, clamped to the observed max — the
        "highest equivalent value" convention of HdrHistogram."""
        if not self.count:
            return 0
        # Integer rank arithmetic (p may be fractional, e.g. 99.9): the
        # target rank is ceil(count * p / 100) computed in tenths so the
        # result is identical however many shards the counts arrived in.
        target = percentile_rank(self.count, p)
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return min(bucket_bounds(index)[1], self.max)
        return self.max

    def to_dict(self) -> Dict:
        """Deterministic JSON-ready summary + sparse bucket table.

        ``count``/``sum`` are the *exact* integer tallies (``mean`` stays
        a rounded rendering), so two shards' dicts merge via
        :meth:`from_dict` + :meth:`merge` into byte-for-byte the
        histogram a single unsharded run would have produced.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min or 0,
            "max": self.max,
            "mean": round(self.total / self.count, 2) if self.count else 0,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "p999": self.percentile(99.9),
            "pmax": self.max,
            "buckets": {str(bucket_bounds(i)[0]): self.buckets[i]
                        for i in sorted(self.buckets)},
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "LogHistogram":
        """Rebuild a histogram from :meth:`to_dict` output — exact: the
        sparse bucket table plus ``count``/``sum``/``min``/``max`` carry
        the full mergeable state (bucket keys are low bounds, which
        :func:`bucket_index` maps back to their bucket)."""
        hist = cls()
        for low, n in doc.get("buckets", {}).items():
            hist.buckets[bucket_index(int(low))] = int(n)
        hist.count = int(doc.get("count", 0))
        hist.total = int(doc.get("sum", 0))
        hist.max = int(doc.get("max", 0))
        if hist.count:
            hist.min = int(doc.get("min", 0))
        return hist


class LatencyAnalyzer(Analyzer):
    """Per-``(phase, nr)`` and per-phase syscall latency histograms.

    Enter/exit pairing is a per-``(pid, tid)`` stack, so nested spans
    (an interposer handler's forwarded call inside the original trap's
    span) attribute correctly: the inner forward pops first.
    """

    name = "latency"

    def __init__(self) -> None:
        super().__init__(window_size=1)
        self._open: Dict[Tuple[int, int], List[Tuple[int, str, int]]] = {}
        self.histograms: Dict[Tuple[str, int], LogHistogram] = {}
        self.phase_histograms: Dict[str, LogHistogram] = {}
        self.unmatched_exits = 0

    def observe(self, event: BusEvent) -> None:
        if isinstance(event, SyscallEnter):
            self._open.setdefault((event.pid, event.tid), []).append(
                (event.nr, event.phase, event.ts))
        elif isinstance(event, SyscallExit):
            stack = self._open.get((event.pid, event.tid))
            if not stack:
                # Enter predates sink attachment: drop, like TraceSink.
                self.unmatched_exits += 1
                return
            _nr, _phase, entered = stack.pop()
            duration = max(0, event.ts - entered)
            key = (event.phase, event.nr)
            hist = self.histograms.get(key)
            if hist is None:
                hist = self.histograms[key] = LogHistogram()
            hist.record(duration)
            phist = self.phase_histograms.get(event.phase)
            if phist is None:
                phist = self.phase_histograms[event.phase] = LogHistogram()
            phist.record(duration)

    def snapshot(self) -> Dict:
        """JSON-ready distribution summary (sorted, deterministic)."""
        from repro.kernel.syscalls import Nr

        per_syscall = {
            f"{phase}:{Nr.name_of(nr)}": hist.to_dict()
            for (phase, nr), hist in self.histograms.items()
        }
        per_phase = {phase: hist.to_dict()
                     for phase, hist in self.phase_histograms.items()}
        return {
            "unit": "cycles",
            "per_syscall": dict(sorted(per_syscall.items())),
            "per_phase": dict(sorted(per_phase.items())),
            "unmatched_exits": self.unmatched_exits,
        }
