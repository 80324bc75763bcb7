"""munmap vs the block cache and the single-page fast path.

Regression coverage for the interaction the fault-injection work fixed:
unmapping a page must invalidate every recorded basic block and the memory
fast path over it — including pages in the *middle* of a larger region —
in both interpreter modes.  Stale translations executing from an unmapped
page would be an app-visible divergence from real silicon, which faults.
"""

import pytest

from repro.errors import SegmentationFault
from repro.kernel import Kernel
from repro.kernel.syscalls import Nr
from repro.memory import AddressSpace, PAGE_SIZE, Prot
from repro.workloads.programs import ProgramBuilder

BASE = 0x40_0000


class TestAddressSpacePartialUnmap:
    def test_middle_pages_unmapped_edges_survive(self):
        space = AddressSpace()
        space.mmap(BASE, 4 * PAGE_SIZE, Prot.READ | Prot.WRITE,
                   name="blob", fixed=True)
        space.write_kernel(BASE, b"\x11" * (4 * PAGE_SIZE))
        space.munmap(BASE + PAGE_SIZE, 2 * PAGE_SIZE)
        assert space.is_mapped(BASE, PAGE_SIZE)
        assert not space.is_mapped(BASE + PAGE_SIZE, PAGE_SIZE)
        assert not space.is_mapped(BASE + 2 * PAGE_SIZE, PAGE_SIZE)
        assert space.is_mapped(BASE + 3 * PAGE_SIZE, PAGE_SIZE)
        assert space.read_kernel(BASE, 4) == b"\x11" * 4
        with pytest.raises(SegmentationFault):
            space.read(BASE + PAGE_SIZE, 4)
        # The region split into two same-named remnants.
        names = [r.name for r in space.regions if r.name == "blob"]
        assert len(names) == 2

    def test_fast_path_invalidated_by_partial_unmap(self):
        space = AddressSpace()
        space.mmap(BASE, 4 * PAGE_SIZE, Prot.READ | Prot.WRITE,
                   name="blob", fixed=True)
        addr = BASE + PAGE_SIZE + 8
        space.write(addr, b"\x22" * 8)
        # Warm the single-page fast path on the soon-to-vanish page.
        assert space.read(addr, 8) == b"\x22" * 8
        space.munmap(BASE + PAGE_SIZE, PAGE_SIZE)
        with pytest.raises(SegmentationFault):
            space.read(addr, 8)
        with pytest.raises(SegmentationFault):
            space.write(addr, b"\x33")


class TestKernelStaleCode:
    @pytest.mark.parametrize("block_cache", [True, False])
    def test_unmapped_code_page_faults_not_replays(self, block_cache):
        """A program warms a function's translation, an interposer-style
        host actor munmaps that page mid-run, and the next call must take
        a SIGSEGV — never replay the stale recorded block."""
        kernel = Kernel(seed=7, aslr=False)
        kernel.engine.block_cache = block_cache

        def unmap_func_page(thread) -> None:
            base, image, _ns = thread.process.loaded_images["/bin/unmapself"]
            func = base + image.asm.labels["func"]
            assert func % PAGE_SIZE == 0
            kernel.do_syscall(thread, Nr.munmap,
                              [func, PAGE_SIZE, 0, 0, 0, 0],
                              origin="interposer-internal")

        builder = ProgramBuilder("/bin/unmapself")
        builder.start()
        builder.asm.call("func")            # warm: record func's block
        builder.asm.hostcall(
            kernel.hostcalls.register(unmap_func_page, "unmap_func_page"))
        builder.asm.call("func")            # must fault, not replay
        builder.exit(0)
        builder.asm.align(PAGE_SIZE)
        builder.label("func")
        builder.asm.endbr64()
        builder.asm.ret()
        builder.register(kernel)

        process = kernel.spawn_process("/bin/unmapself")
        kernel.run_process(process, max_steps=200_000)
        assert process.exited
        assert process.exit_status != 0
        assert process.core_dumped  # SIGSEGV dumps core

    def test_shootdown_hooks_fire_for_munmap_and_map_fixed_only(self):
        """munmap and mmap(MAP_FIXED) broadcast icache shootdowns (the IPI
        model); mprotect deliberately does not — stale decodes across a
        permission flip are the P5 behaviour the simulator preserves."""
        from repro.faultinject.engine import FaultInjector
        from repro.faultinject.schedule import FaultConfig, build_schedule
        from repro.workloads.stress import STRESS_PATH, build_stress

        kernel = Kernel(seed=7, aslr=False)
        build_stress(4).register(kernel)
        injector = FaultInjector(kernel, build_schedule(0, FaultConfig()),
                                 main_phase_only=False)
        process = kernel.spawn_process(STRESS_PATH)
        thread = process.main_thread
        base = kernel.do_syscall(
            thread, Nr.mmap, [0, PAGE_SIZE, 0x3, 0x22, (1 << 64) - 1, 0],
            origin="interposer-internal")
        assert base > 0
        assert injector.flushes == 0        # plain mmap: no shootdown
        kernel.do_syscall(thread, Nr.mprotect, [base, PAGE_SIZE, 0x5, 0, 0, 0],
                          origin="interposer-internal")
        assert injector.flushes == 0        # mprotect: stale decodes stay
        assert injector.prot_changes == 1
        kernel.do_syscall(thread, Nr.munmap, [base, PAGE_SIZE, 0, 0, 0, 0],
                          origin="interposer-internal")
        assert injector.flushes == 1        # munmap: IPI shootdown
        kernel.do_syscall(
            thread, Nr.mmap,
            [base, PAGE_SIZE, 0x3, 0x22 | 0x10, (1 << 64) - 1, 0],
            origin="interposer-internal")
        assert injector.flushes == 2        # MAP_FIXED overwrite: shootdown
