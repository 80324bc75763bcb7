"""Per-layer host cost for the traced run.

The benchmark wraps public functions of the program from the outside
(nothing under ``src/`` changes) and charges every stretch of host time
to the layer on top of a span stack: a layer's *self time* is the time
it was on top.  Stretches are cut at every reference probe, so probe
time is excluded and each layer's time is corrected stretch by stretch
with :func:`perfbench.hostclock.segment_factors`.  The stack bottom is
``trace.unattributed``; by construction the self times of every layer,
unattributed included, add up to the traced span, and
:meth:`Tracer.residual` states the difference so the identity is checked,
not assumed.  The clock is process CPU time, which the kernel advances in
4 ms ticks: a span shorter than a tick is charged 0 or 4 ms, with the
span's own length as the expectation, so totals over many spans hold.

Counts come from counters the program already keeps
(``Kernel.interp_stats``, ``CycleModel.counts``, pipeline stats, the
fabric's per-server tallies) plus calls counted at the wrappers.
"""

from __future__ import annotations

import functools
import sys
import weakref
from collections import defaultdict
from typing import Callable, Dict, List, Optional

from perfbench.hostclock import CLOCK, Mark, correct, segment_factors

ROOT = "trace.unattributed"
BOOKKEEPING = "trace.bookkeeping"

#: Every layer the tracer charges, in report order.
LAYERS = (
    "cpu.busy", "kernel.syscall", "kernel.signal", "interposers.install",
    "loader.busy", "core.offline", "faultinject.self", "evaluation.self",
    "evaluation.cache_key", "evaluation.cache_io", "traffic.engine",
    "traffic.schedule", "traffic.calibrate", "traffic.fabric",
    "traffic.merge", BOOKKEEPING, ROOT,
)


class Tracer:
    """A span stack charged in probe-delimited stretches."""

    def __init__(self, marks: List[Mark],
                 clock: Callable[[], float] = CLOCK):
        self.marks = marks  # the sampler's append-only probe list
        self.clock = clock
        self.stack = [ROOT]
        self.consumed = len(marks)
        self.charged: Dict[str, Dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        self.calls: Dict[str, int] = defaultdict(int)
        self.last = self.start = self.end = 0.0

    # ------------------------------------------------------------ charging

    def _advance(self) -> None:
        now = self.clock()
        top = self.charged[self.stack[-1]]
        marks = self.marks
        while self.consumed < len(marks):
            probe_start, probe_end, _ = marks[self.consumed]
            if probe_start > now:
                break  # fired after ``now`` was read: next event's
            top[self.consumed] += probe_start - self.last
            self.last = probe_end
            self.consumed += 1
        top[self.consumed] += now - self.last
        self.last = now

    def push(self, layer: str) -> None:
        self._advance()
        self.stack.append(layer)

    def pop(self) -> None:
        self._advance()
        self.stack.pop()

    def begin(self) -> None:
        self.consumed = len(self.marks)  # probes before the span are not ours
        self.start = self.last = self.clock()

    def finish(self) -> None:
        self._advance()
        self.end = self.last

    # ------------------------------------------------------------ wrapping

    def span(self, layer: str, fn: Callable, count: str = "",
             after: Optional[Callable] = None) -> Callable:
        """*fn* inside a *layer* span; ``after(args, result)`` runs once
        it has returned, outside the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count:
                self.calls[count] += 1
            self.push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop()
            if after is not None:
                after(args, result)
            return result
        return traced

    def wrap_method(self, cls, name: str, layer: str, count: str = "",
                    after: Optional[Callable] = None) -> None:
        setattr(cls, name, self.span(layer, cls.__dict__[name], count,
                                     after))

    def wrap_function(self, module, name: str, layer: str, count: str = "",
                      after: Optional[Callable] = None) -> None:
        """Wrap ``module.name`` at every binding site: each loaded
        ``repro`` module attribute that *is* the original is rebound."""
        original = getattr(module, name)
        traced = self.span(layer, original, count, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)

    # ------------------------------------------------------------ report

    def corrected(self) -> Dict[str, float]:
        factors = segment_factors(self.marks)
        return {layer: sum(raw * factors[seg] for seg, raw in segs.items())
                for layer, segs in self.charged.items()}

    def raw(self) -> Dict[str, float]:
        return {layer: sum(segs.values())
                for layer, segs in self.charged.items()}

    def residual(self) -> Dict[str, float]:
        """Traced span minus the sum of every layer's self time, raw and
        corrected (both should be float rounding, ~1e-12 s)."""
        span_corr, span_raw = correct(self.marks, self.start, self.end)
        return {"raw": span_raw - sum(self.raw().values()),
                "corrected": span_corr - sum(self.corrected().values()),
                "span_raw": span_raw, "span_corrected": span_corr}


class KernelCounters:
    """Per-kernel snapshots of ``interp_stats()`` and ``cycles.counts``,
    taken when each ``run``/``run_process`` call returns (the last one
    wins), so dead kernels still count and the totals are deterministic."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.serial: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self.snapshots: Dict[int, tuple] = {}
        self.booted = 0

    def register(self, kernel) -> None:
        self.serial[kernel] = self.booted
        self.booted += 1

    def snapshot(self, kernel) -> None:
        self.tracer.push(BOOKKEEPING)
        try:
            serial = self.serial.get(kernel)
            if serial is not None:
                counts = {event.value: n
                          for event, n in kernel.cycles.counts.items()}
                self.snapshots[serial] = (kernel.interp_stats(), counts)
        finally:
            self.tracer.pop()

    def totals(self):
        stats: Dict[str, int] = defaultdict(int)
        events: Dict[str, int] = defaultdict(int)
        for interp, counts in self.snapshots.values():
            for key, n in interp.items():
                stats[key] += n
            for key, n in counts.items():
                events[key] += n
        return stats, events


def install(tracer: Tracer) -> "Instrumentation":
    """Wrap every layer boundary the per-layer metrics need."""
    import repro.core.offline as offline
    import repro.evaluation.cache as cache
    import repro.evaluation.pipeline as pipeline
    import repro.faultinject.conformance as conformance
    import repro.loader.libc as libc
    import repro.traffic.engine as engine
    import repro.traffic.fleet as fleet
    import repro.traffic.loadbalancer as loadbalancer
    import repro.traffic.schedule as schedule
    import repro.workloads as workloads_pkg
    from repro.interposers.registry import MechanismRegistry
    from repro.kernel.kernel import Kernel
    from repro.loader.image import SimImage

    inst = Instrumentation(tracer)
    counters = inst.kernels
    calls = tracer.calls

    # cpu: the scheduler loops; syscall/signal spans nest inside them.
    for name in ("run", "run_process"):
        tracer.wrap_method(Kernel, name, "cpu.busy",
                           after=lambda args, _: counters.snapshot(args[0]))
    tracer.wrap_method(Kernel, "handle_syscall", "kernel.syscall")
    tracer.wrap_method(Kernel, "deliver_signal", "kernel.signal")

    # loader: booting kernels, building and loading images.
    tracer.wrap_method(Kernel, "__init__", "loader.busy", "kernels_booted",
                       after=lambda args, _: counters.register(args[0]))
    tracer.wrap_method(Kernel, "spawn_process", "loader.busy")
    finalize = SimImage.finalize

    def finalize_counted(image):
        if not image._finalized:  # finalize() is idempotent
            calls["images_built"] += 1
        return finalize(image)
    SimImage.finalize = finalize_counted
    tracer.wrap_method(SimImage, "finalize", "loader.busy")
    tracer.wrap_function(libc, "build_libc", "loader.busy")
    for mod_name in sorted(sys.modules):
        if not mod_name.startswith(workloads_pkg.__name__ + "."):
            continue
        module = sys.modules[mod_name]
        for attr in sorted(vars(module)):
            fn = getattr(module, attr)
            if (attr.startswith(("install_", "build_")) and callable(fn)
                    and getattr(fn, "__module__", "") == mod_name):
                tracer.wrap_function(module, attr, "loader.busy")

    tracer.wrap_method(MechanismRegistry, "create", "interposers.install")
    tracer.wrap_method(offline.OfflinePhase, "run", "core.offline",
                       "offline_passes")
    tracer.wrap_function(offline, "import_logs", "core.offline")
    tracer.wrap_function(conformance, "run_cell", "faultinject.self")

    # evaluation: pipeline + runner self time, cache keys, cache I/O.
    def count_cache(_args, run):
        inst.cache_hits += run.stats.hits
        inst.cache_misses += run.stats.misses
    tracer.wrap_function(pipeline, "run_cells", "evaluation.self",
                         after=count_cache)
    tracer.wrap_function(pipeline, "execute_cell", "evaluation.self")
    tracer.wrap_function(cache, "cell_key", "evaluation.cache_key")
    for name in ("get", "put"):
        tracer.wrap_method(cache.ResultCache, name, "evaluation.cache_io")

    # traffic: e.g. generate_schedule is bound in both schedule and engine.
    tracer.wrap_function(engine, "run_loadtest", "traffic.engine")
    tracer.wrap_function(engine, "run_shard", "traffic.engine")
    tracer.wrap_function(schedule, "generate_schedule", "traffic.schedule",
                         "schedule_generations")
    tracer.wrap_function(fleet, "calibrate_service_table",
                         "traffic.calibrate")
    tracer.wrap_function(engine, "merge_mechanism", "traffic.merge")

    def count_requests(_args, doc):
        for key in ("offered", "completed", "shed"):
            calls[f"requests_{key}"] += sum(doc[key].values())
    tracer.wrap_function(loadbalancer, "simulate_server", "traffic.fabric",
                         after=count_requests)
    return inst


class Instrumentation:
    """What :func:`install` wired up, and the per-layer metric table."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.kernels = KernelCounters(tracer)
        self.cache_hits = 0
        self.cache_misses = 0

    def metrics(self) -> Dict[str, float]:
        tracer = self.tracer
        seconds = tracer.corrected()
        calls = tracer.calls
        stats, events = self.kernels.totals()
        out: Dict[str, float] = {f"{layer}_s": seconds.get(layer, 0.0)
                                 for layer in LAYERS}
        insns = stats.get("instructions", 0)
        block_lookups = stats.get("block_hits", 0) + stats.get(
            "block_installs", 0)
        trace_entries = stats.get("trace_hits", 0) + stats.get(
            "guard_fails", 0)
        offered = calls.get("requests_offered", 0)
        out.update({
            "cpu.host_ns_per_insn": (out["cpu.busy_s"] * 1e9 / insns
                                     if insns else 0.0),
            "cpu.instructions": insns,
            "cpu.unit_hit_ratio": (stats.get("block_hits", 0)
                                   / block_lookups if block_lookups
                                   else 0.0),
            "cpu.chain_follows": stats.get("chain_follows", 0),
            "cpu.superblock_hits": stats.get("superblock_hits", 0),
            "cpu.trace_hits": stats.get("trace_hits", 0),
            "cpu.traces_compiled": stats.get("traces_compiled", 0),
            "cpu.guard_fail_ratio": (stats.get("guard_fails", 0)
                                     / trace_entries if trace_entries
                                     else 0.0),
            "cpu.icache_misses": stats.get("icache_misses", 0),
            "kernel.syscalls": events.get("kernel_syscall", 0),
            "kernel.signals": events.get("signal_delivery", 0),
            "kernel.context_switches": events.get("context_switch", 0),
            "interposers.rewrites": events.get("rewrite_site", 0),
            "interposers.handler_entries": sum(
                events.get(name, 0) for name in
                ("zpoline_handler", "lazypoline_handler", "k23_handler")),
            "interposers.sud_slowpaths": events.get("sud_armed_slowpath",
                                                    0),
            "loader.kernels_booted": calls.get("kernels_booted", 0),
            "loader.images_built": calls.get("images_built", 0),
            "core.offline_passes": calls.get("offline_passes", 0),
            "evaluation.cache_hits": self.cache_hits,
            "evaluation.cache_misses": self.cache_misses,
            "traffic.schedule_generations": calls.get(
                "schedule_generations", 0),
            "traffic.fabric_ns_per_request": (
                out["traffic.fabric_s"] * 1e9 / offered if offered else 0.0),
            "traffic.requests_completed": calls.get("requests_completed",
                                                    0),
            "traffic.requests_shed": calls.get("requests_shed", 0),
        })
        return out

    def counts(self) -> Dict[str, int]:
        """The integer metrics: they must repeat exactly run to run."""
        return {name: value for name, value in self.metrics().items()
                if isinstance(value, int)}

