"""Execution engine: chained blocks and the trace JIT.

Unit tests for :mod:`repro.cpu.engine` / :mod:`repro.cpu.tracejit` at
the mechanism level — the lockstep fuzzer
(tests/properties/test_prop_lockstep.py) covers whole-program
conformance; this file pins down the individual moving parts: edge
installation and re-validation, trace formation boundaries, batch
charge/un-charge accounting, guard-failure fallback, invalidation
dooming, and the declined-compilation path.
"""

import pytest

from repro.arch.assembler import Asm
from repro.arch.registers import Reg
import repro.cpu.tracejit as tracejit
from repro.cpu.blocks import run_unit
from repro.cpu.core import step
from repro.cpu.cycles import CycleModel, Event
from repro.cpu.engine import EngineConfig
from repro.cpu.icache import ICache, TERM_END
from repro.cpu.state import CpuContext
from repro.memory import AddressSpace, PAGE_SIZE, Prot

CODE_BASE = 0x40_0000
DATA_BASE = 0x60_0000
STACK_TOP = 0x80_0000

#: A low threshold so short test programs compile traces.
HOT = dict(threshold=2)

#: Chained blocks without the JIT: the reference the trace path must match.
CHAIN = EngineConfig(trace_jit=False)


class EngineEnv:
    """Execution environment with an engine-configured icache and the
    trace-JIT ``mem_space`` contract."""

    def __init__(self, code: bytes, engine=None,
                 code_prot=Prot.READ | Prot.EXEC):
        self.context = CpuContext()
        self.icache = ICache(engine=engine)
        self.space = AddressSpace()
        self.mem_space = self.space
        self.cycles = CycleModel()
        self.unit_retired = 0
        self.space.mmap(CODE_BASE, max(len(code), 1), code_prot,
                        name="code", fixed=True)
        self.space.write_kernel(CODE_BASE, code)
        self.space.mmap(DATA_BASE, PAGE_SIZE, Prot.READ | Prot.WRITE,
                        name="data", fixed=True)
        self.space.mmap(STACK_TOP - 16 * PAGE_SIZE, 16 * PAGE_SIZE,
                        Prot.READ | Prot.WRITE, name="stack", fixed=True)
        self.context.rip = CODE_BASE
        self.context.set(Reg.RSP, STACK_TOP - 16)
        self.context.set(Reg.RDI, DATA_BASE)
        self.syscalls = []

    def mem_fetch(self, addr, n):
        return self.space.fetch(addr, n)

    def mem_read(self, addr, n):
        return self.space.read(addr, n, pkru=self.context.pkru)

    def mem_write(self, addr, data):
        self.space.write(addr, data, pkru=self.context.pkru)

    def on_syscall(self):
        self.syscalls.append(self.context.syscall_number)

    def on_hostcall(self, index):
        pass

    def charge(self, event, times=1):
        self.cycles.charge(event, times)

    def run(self, units, budget=100):
        total = 0
        for _ in range(units):
            total += run_unit(self, budget)
        return total

    def run_to_exit(self, single_step=False):
        """Run units (or single steps) until the program faults or halts."""
        try:
            while True:
                if single_step:
                    step(self)
                else:
                    run_unit(self, 100)
        except Exception:
            pass
        return self


def build(writer, engine=None, **kwargs) -> EngineEnv:
    asm = Asm()
    writer(asm)
    return EngineEnv(asm.assemble(), engine=engine, **kwargs)


def counted_loop(trips=300):
    """A hot self-looping block: body, then a conditional back-edge."""
    def writer(a):
        a.mov_ri(Reg.RCX, trips)
        a.mark("loop")
        a.label("loop")
        a.inc(Reg.RAX)
        a.add_rr(Reg.RBX, Reg.RAX)
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    return writer


def loop_entry(trips=300) -> int:
    """Code address of ``counted_loop``'s back-edge target."""
    asm = Asm()
    counted_loop(trips)(asm)
    asm.assemble()
    return CODE_BASE + asm.marks["loop"]


# ----------------------------------------------------------- configuration


def test_config_tier_hierarchy():
    """The block-cache switch outranks the JIT switch: three names."""
    assert EngineConfig().label() == "chain+trace_jit"
    assert EngineConfig(trace_jit=False).label() == "chain"
    assert EngineConfig(block_cache=False).label() == "single-step"
    assert EngineConfig(trace_jit=False, block_cache=False).label() == \
        "single-step"


def test_config_from_env(monkeypatch):
    # Pin the hatches so the test holds when the suite itself runs under
    # one (the CI engine-matrix and block-cache-off jobs do exactly that).
    monkeypatch.delenv("REPRO_NO_TRACE_JIT", raising=False)
    monkeypatch.delenv("REPRO_NO_BLOCK_CACHE", raising=False)
    assert EngineConfig.from_env().label() == "chain+trace_jit"
    monkeypatch.setenv("REPRO_NO_TRACE_JIT", "1")
    config = EngineConfig.from_env()
    assert config.trace_jit is False
    assert config.label() == "chain"
    monkeypatch.setenv("REPRO_NO_BLOCK_CACHE", "1")
    config = EngineConfig.from_env()
    assert config.block_cache is False
    assert config.label() == "single-step"


# ---------------------------------------------------------------- chaining


def test_chain_links_and_follows():
    env = build(counted_loop(), engine=CHAIN)
    env.run(4)
    ic = env.icache
    assert ic.chain_links >= 1
    assert ic.chain_follows >= 1
    # The loop back-edge block chains to itself via the cond edge.
    loop_block = ic._blocks[loop_entry()]
    assert loop_block.succ is loop_block
    # Without the JIT nothing is ever offered to the compiler.
    env.run_to_exit()
    assert ic.traces_compiled == 0
    assert all(b.superblock is None for b in ic._blocks.values())


def test_stale_edge_revalidates_not_misexecutes():
    """A dropped successor is rejected by the succ.valid check and the
    chain falls back to the dictionary lookup."""
    env = build(counted_loop(), engine=CHAIN)
    env.run(4)
    ic = env.icache
    loop_block = ic._blocks[loop_entry()]
    ic._drop_block(loop_block)
    assert not loop_block.valid
    before = env.context.get(Reg.RAX)
    env.run(2)          # must re-record / re-look-up, not follow the corpse
    assert env.context.get(Reg.RAX) > before
    fresh = env.icache._blocks[loop_entry()]
    assert fresh is not loop_block and fresh.valid


# ------------------------------------------------------- trace formation


def test_superblock_forms_after_threshold():
    """A head is stitched and compiled in one go, exactly when its heat
    reaches the threshold."""
    engine = EngineConfig(**HOT)
    env = build(counted_loop(), engine=engine)
    env.run(8)
    ic = env.icache
    assert ic.traces_compiled >= 1
    assert ic.trace_hits >= 1
    head = next(b for b in ic._blocks.values() if b.superblock is not None)
    sb = head.superblock
    assert sb.valid and callable(sb.trace)
    assert head.heat == engine.threshold
    assert sb.n_steps == sum(len(b.steps) for b in sb.blocks)
    for member in sb.blocks:
        assert sb in member.sbs


def test_superblock_formation_stops_at_term_end():
    """Blocks ending in syscalls terminate formation: the scheduler must
    get control back."""
    def writer(a):
        a.mov_ri(Reg.RCX, 30)
        a.label("loop")
        a.mov_ri(Reg.RAX, 39)
        a.syscall_()
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    env = build(writer, engine=EngineConfig(**HOT))
    env.run(30)
    formed = 0
    for block in env.icache._blocks.values():
        sb = block.superblock
        if sb is None:
            continue
        formed += 1
        # No *interior* constituent may end the unit.
        for member in sb.blocks[:-1]:
            assert member.term != TERM_END
    assert formed >= 1
    assert env.icache.traces_compiled == formed


def test_superblock_batch_charge_matches_per_block():
    """Total INSTRUCTION count and sim cycles are identical whether the
    loop retires via traces, chained blocks, or single steps (the
    zero-residual decomposition)."""
    def run_with(engine, single_step=False):
        env = build(counted_loop(25), engine=engine).run_to_exit(single_step)
        return env.cycles.counts[Event.INSTRUCTION], env.cycles.cycles

    stepped = run_with(CHAIN, single_step=True)
    chained = run_with(CHAIN)
    jit = run_with(EngineConfig(**HOT))
    default = run_with(EngineConfig())
    assert stepped == chained == jit == default


def test_guard_failure_falls_back():
    """A conditional *interior* to a trace that goes the un-recorded way
    exits early with the tail un-charged.  The syscall block after the
    conditional ends the trace (TERM_END), so the ``je`` cannot be the
    natural tail exit — its wrong-way branch must be a guard failure."""
    def writer(a):
        a.mov_ri(Reg.RCX, 40)
        a.label("loop")
        a.cmp_ri(Reg.RCX, 20)
        a.je("late")            # not-taken while hot, taken at RCX=20
        a.mov_ri(Reg.RAX, 39)
        a.syscall_()
        a.label("back")
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
        a.label("late")
        a.inc(Reg.RBX)
        a.jmp("back")
    env = build(writer, engine=EngineConfig(**HOT)).run_to_exit()
    ref = build(writer, engine=CHAIN).run_to_exit()
    assert env.icache.traces_compiled >= 1
    assert env.icache.guard_fails >= 1
    assert env.context.get(Reg.RBX) == ref.context.get(Reg.RBX) == 1
    assert len(env.syscalls) == len(ref.syscalls) == 39
    assert env.cycles.cycles == ref.cycles.cycles


def test_invalidation_dooms_superblock_and_reheats():
    env = build(counted_loop(), engine=EngineConfig(**HOT))
    env.run(8)
    ic = env.icache
    head = next(b for b in ic._blocks.values() if b.superblock is not None)
    sb = head.superblock
    member = sb.blocks[-1]
    ic.invalidate_range(member.entry, 1)
    assert not sb.valid
    assert head.superblock is None
    assert head.heat == 0
    assert ic.invalidation_unlinks >= 1


def test_flush_all_dooms_superblocks():
    env = build(counted_loop(), engine=EngineConfig(**HOT))
    env.run(8)
    ic = env.icache
    sb = next(b.superblock for b in ic._blocks.values()
              if b.superblock is not None)
    ic.flush_all()
    assert not sb.valid


def test_form_superblock_respects_max(monkeypatch):
    monkeypatch.setattr(tracejit, "SUPERBLOCK_MAX", 4)
    env = build(counted_loop(), engine=EngineConfig(**HOT))
    env.run(8)
    for block in env.icache._blocks.values():
        if block.superblock is not None:
            assert block.superblock.n_steps <= 4


def test_superblock_loop_closure_stops_at_seen_entry():
    """Following the self-loop's cond edge must stop when the entry
    revisits — a superblock never contains the same block twice."""
    env = build(counted_loop(), engine=EngineConfig(**HOT))
    env.run(8)
    formed = 0
    for block in env.icache._blocks.values():
        sb = block.superblock
        if sb is not None:
            formed += 1
            entries = [b.entry for b in sb.blocks]
            assert len(entries) == len(set(entries))
    assert formed >= 1


# ---------------------------------------------------------------- trace JIT


def test_trace_compiles_and_matches_interpreter():
    def writer(a):
        a.mov_ri(Reg.RCX, 30)
        a.label("loop")
        a.inc(Reg.RAX)
        a.store(Reg.RDI, Reg.RAX)
        a.load(Reg.RBX, Reg.RDI)
        a.push(Reg.RBX)
        a.pop(Reg.RDX)
        a.dec(Reg.RCX)
        a.jne("loop")
        a.hlt()
    jit_env = build(writer, engine=EngineConfig(**HOT)).run_to_exit()
    ref_env = build(writer, engine=CHAIN).run_to_exit()
    assert jit_env.icache.traces_compiled >= 1
    assert jit_env.icache.trace_hits >= 1
    assert tuple(jit_env.context._regs) == tuple(ref_env.context._regs)
    assert jit_env.cycles.cycles == ref_env.cycles.cycles
    assert jit_env.space.read_kernel(DATA_BASE, 8) == \
        ref_env.space.read_kernel(DATA_BASE, 8)


def test_trace_requires_mem_space_contract(monkeypatch):
    """Environments without a ``mem_space`` attribute never get traces
    compiled.  The declined superblock is not registered, the head runs
    as chained blocks, and each head is offered to the compiler once —
    not on every later visit."""
    offered = []
    compile_superblock = tracejit.compile_superblock

    def counting(sb, env):
        offered.append(sb.entry)
        return compile_superblock(sb, env)

    monkeypatch.setattr(tracejit, "compile_superblock", counting)
    env = build(counted_loop(60), engine=EngineConfig(**HOT))
    del env.mem_space
    env.run_to_exit()
    ref = build(counted_loop(60), engine=CHAIN).run_to_exit()
    ic = env.icache
    assert offered and len(offered) == len(set(offered))
    assert ic.traces_compiled == 0 and ic.trace_hits == 0
    assert all(b.superblock is None and not b.sbs
               for b in ic._blocks.values())
    assert ic._blocks[loop_entry(60)].heat > env.icache.engine.threshold
    assert ic.chain_follows == ref.icache.chain_follows
    assert tuple(env.context._regs) == tuple(ref.context._regs)
    assert env.cycles.cycles == ref.cycles.cycles


def test_trace_doomed_by_invalidation_mid_run():
    """A store into a compiled trace's span dooms it; the next dispatch
    re-forms from scratch instead of replaying stale code."""
    env = build(counted_loop(500), engine=EngineConfig(**HOT),
                code_prot=Prot.READ | Prot.WRITE | Prot.EXEC)
    env.run(10)
    ic = env.icache
    assert ic.traces_compiled >= 1
    head = next(b for b in ic._blocks.values() if b.superblock is not None)
    sb = head.superblock
    assert callable(sb.trace)
    ic.invalidate_range(sb.blocks[0].entry, 1)
    assert not sb.valid
    before = env.context.get(Reg.RAX)
    env.run(4)
    assert env.context.get(Reg.RAX) > before
