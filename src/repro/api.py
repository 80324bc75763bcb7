"""The stable public API surface.

Downstream code (notebooks, external harnesses, the CLI tools) should
import from here rather than from internal modules — internal layouts may
shift between releases, this module does not.  Four facets:

**Running** — the one builder every harness constructs runs through:
:func:`run` executes a frozen :class:`RunConfig` (mechanism, workload,
seed, optional fault schedule, attached sinks/analyzers) and returns a
:class:`RunResult` (exit status, cycles, analyzer verdicts, trace path,
and counters when a :class:`CounterSink` rides in ``sinks``).
:func:`prepare` is the two-phase variant for lockstep harnesses such as
the shadow mirror (:mod:`repro.shadow`); it is also the only code that
boots a machine, so the evaluation tables, conformance cells and tools
share its workload table and its memoized K23 offline pass.
:class:`FaultSchedule` (built with :func:`build_schedule` from a seed
and a :class:`FaultConfig`) is the deterministic fault plan a run can
carry; :class:`AnalyzerSuite` fans one bus attachment out to streaming
analyzers whose findings surface as :class:`PitfallVerdict` records.

**Observability** — the typed instrumentation bus
(:class:`~repro.observability.bus.Bus`), its sinks (counters, ring-buffer
flight recorder, streaming JSONL, Perfetto export, shadow-divergence
collector), and the trace-event schema validator.  Attach sinks to
``kernel.bus``; a bus with no sinks costs one predicate per emit site.

**Interposition** — the mechanism registry
(:data:`~repro.interposers.registry.REGISTRY`), the base
:class:`~repro.interposers.base.Interposer`, and the hook protocol: every
interposition function has the signature
``hook(thread, nr, args, forward) -> result`` where ``forward()`` invokes
the next hook (or the real syscall) and the return value is the
(negative-errno) result the application sees.  :func:`chain` composes
hooks; :data:`EMPTY_HOOK` is the identity.

**Traffic** — the :class:`~repro.workloads.clients.TrafficSource`
protocol every load driver implements: :class:`KeepAliveSource` is the
closed-loop keep-alive driver and :class:`MirroredSource` the
dark-launch mirroring wrapper.
:class:`TrafficConfig` describes an open-loop load test that
``RunConfig(traffic=...)`` or :func:`repro.traffic.engine.run_loadtest`
executes into an :class:`SLOReport` (``METRICS_slo.json``);
:class:`QueueDepthSample` / :class:`TrafficStageStats` are the bus
events the full-serve fleet emits.

**Simulation** — the :class:`~repro.kernel.kernel.Kernel` itself.
"""

from __future__ import annotations

from repro.faultinject.schedule import (FaultConfig, FaultSchedule,
                                        build_schedule)
from repro.interposers.base import EMPTY_HOOK, Interposer
from repro.interposers.hooks import (CountingHook, LatencyHook, RedirectHook,
                                     SandboxHook, TracingHook, chain)
from repro.interposers.registry import (REGISTRY, MechanismRegistry,
                                        MechanismSpec, UnknownMechanismError)
from repro.kernel import Kernel
from repro.observability import (Bus, BusEvent, CounterSink, DivergenceSink,
                                 ExemplarReservoir, NullSink, RequestSpan,
                                 RingBufferSink, ShadowDivergence, Sink,
                                 SpanFlightRecorder, StreamingJSONLSink,
                                 TraceContext, TraceSink,
                                 validate_chrome_trace, write_chrome_trace)
from repro.observability.analyzers import (AnalyzerSuite, LatencyAnalyzer,
                                           PitfallVerdict)
from repro.replay import (Recorder, ReplayDivergenceError, ReplayResult,
                          replay_bundle)
from repro.observability.events import QueueDepthSample, TrafficStageStats
from repro.runapi import (WORKLOADS, PreparedRun, RunConfig, RunResult,
                          WorkloadSpec, prepare, run)
from repro.traffic.config import TrafficConfig
from repro.traffic.slo import SLOReport
from repro.workloads.clients import (KeepAliveSource, MirroredSource,
                                     TrafficSource)

__all__ = [
    # running
    "run",
    "prepare",
    "RunConfig",
    "RunResult",
    "PreparedRun",
    "WorkloadSpec",
    "WORKLOADS",
    "FaultConfig",
    "FaultSchedule",
    "build_schedule",
    "AnalyzerSuite",
    "LatencyAnalyzer",
    "PitfallVerdict",
    # record/replay
    "Recorder",
    "ReplayResult",
    "ReplayDivergenceError",
    "replay_bundle",
    # observability
    "Bus",
    "BusEvent",
    "ShadowDivergence",
    "Sink",
    "NullSink",
    "CounterSink",
    "DivergenceSink",
    "RingBufferSink",
    "StreamingJSONLSink",
    "TraceSink",
    "RequestSpan",
    "TraceContext",
    "ExemplarReservoir",
    "SpanFlightRecorder",
    "write_chrome_trace",
    "validate_chrome_trace",
    # interposition
    "Interposer",
    "EMPTY_HOOK",
    "chain",
    "TracingHook",
    "CountingHook",
    "SandboxHook",
    "RedirectHook",
    "LatencyHook",
    "REGISTRY",
    "MechanismRegistry",
    "MechanismSpec",
    "UnknownMechanismError",
    # traffic
    "TrafficSource",
    "KeepAliveSource",
    "MirroredSource",
    "TrafficConfig",
    "SLOReport",
    "QueueDepthSample",
    "TrafficStageStats",
    # simulation
    "Kernel",
]
