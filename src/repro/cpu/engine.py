"""Execution-engine configuration: chained blocks and the trace JIT.

The basic-block translation cache (:mod:`repro.cpu.blocks`) makes a
*block* the unit of replay.  :class:`EngineConfig` names one of three
configurations: the single-step reference (``REPRO_NO_BLOCK_CACHE=1``,
no block cache at all) or the block cache in one of two tiers:

1. **Chained blocks** — a block ending in a direct jump, a direct call, or
   a fall-through cut caches a reference to its successor block (a
   monomorphic inline cache on ``Block.succ``); steady-state execution
   follows the chain inside one ``run_unit`` call instead of returning to
   the scheduler loop per block.  Conditional branches chain too: the edge
   caches the *last observed* successor and is re-validated against
   ``ctx.rip`` on every follow.  Every icache chains.
2. **Trace JIT** — when a block's replay count reaches
   :attr:`EngineConfig.threshold`, the hot chain starting there is stitched
   into a :class:`repro.cpu.tracejit.Superblock` and compiled at once into
   one ``exec``'d Python function with register/flag operations inlined
   and an inline-cached single-page memory fast path.  A conditional edge
   inside the trace is a *guard*: if the branch goes the other way, the
   trace returns early, the caller un-charges the unexecuted tail, and
   chained blocks resume at the architecturally-correct RIP.  A declined
   compilation registers nothing: the head keeps running as chained
   blocks and is not offered to the compiler again until it is re-recorded.

``REPRO_NO_TRACE_JIT=1`` selects chained blocks only.

Invariants (the lockstep fuzzer asserts them in every configuration):

- **Scheduler semantics**: a unit still ends at every point where the
  scheduler could act — syscalls, hostcalls, serializing instructions,
  uncached successors, faults, and budget exhaustion.  Chaining only
  merges boundaries that were no-ops (the fault-injection engine clips the
  whole-unit budget, so insn-count triggers still land exactly on a unit
  boundary).
- **Cycle accounting**: blocks and traces batch-charge INSTRUCTION up
  front and un-charge the unexecuted tail before any observation point,
  so total sim cycles are identical in every configuration.
- **Icache coherence**: traces doom with their constituent blocks —
  :meth:`repro.cpu.icache.ICache._drop_block` and ``flush_all`` doom every
  superblock a dropped block participates in, and chain edges are
  validated (``succ.valid``) at follow time, so page-indexed invalidation
  (including the munmap/MAP_FIXED shootdowns) unlinks chains and dooms
  traces in the same call that drops the lines.

Environments that expose a ``mem_space`` attribute (the process
:class:`~repro.memory.address_space.AddressSpace`) additionally promise
that their ``mem_read``/``mem_write`` are exactly
``space.read/write(addr, .., pkru=ctx.pkru)`` — the contract that lets a
compiled trace touch page bytes directly.  Environments without it never
get traces compiled.
"""

from __future__ import annotations

import os


class EngineConfig:
    """Which of the three configurations runs and when the trace JIT
    compiles."""

    __slots__ = ("block_cache", "trace_jit", "threshold")

    def __init__(self, trace_jit: bool = True, threshold: int = 16,
                 block_cache: bool = True):
        self.block_cache = block_cache
        self.trace_jit = trace_jit
        self.threshold = threshold

    @classmethod
    def from_env(cls) -> "EngineConfig":
        """The configuration the ``REPRO_NO_BLOCK_CACHE`` and
        ``REPRO_NO_TRACE_JIT`` hatches select."""
        return cls(
            trace_jit=os.environ.get("REPRO_NO_TRACE_JIT", "") != "1",
            block_cache=os.environ.get("REPRO_NO_BLOCK_CACHE", "") != "1")

    def label(self) -> str:
        """The configuration's name in stats, probes and cache keys:
        ``single-step`` (block cache off, which outranks the JIT switch),
        ``chain`` or ``chain+trace_jit``."""
        if not self.block_cache:
            return "single-step"
        return "chain+trace_jit" if self.trace_jit else "chain"

    def __repr__(self) -> str:
        return (f"EngineConfig(trace_jit={self.trace_jit}, "
                f"threshold={self.threshold}, "
                f"block_cache={self.block_cache})")
