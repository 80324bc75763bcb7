"""FaultInjector engine semantics against live kernels."""

import pytest

from repro.cpu.cycles import Event
from repro.faultinject.engine import FaultInjector
from repro.faultinject.schedule import Fault, FaultConfig, build_schedule
from repro.interposers.registry import REGISTRY
from repro.kernel import Kernel
from repro.kernel.syscalls import Nr, SIGCHLD, SIGUSR1
from repro.memory import PAGE_SIZE, Prot
from repro.workloads.stress import STRESS_PATH, build_stress


def stress_kernel(block_cache=None, iterations=20) -> Kernel:
    kernel = Kernel(seed=777, aslr=False)
    kernel.torn_window_probability = 0.0
    if block_cache is not None:
        kernel.engine.block_cache = block_cache
    build_stress(iterations).register(kernel)
    return kernel


def run_with(kernel, schedule, mechanism="native", **inj_kwargs):
    REGISTRY.create(mechanism, kernel)
    injector = FaultInjector(kernel, schedule, **inj_kwargs)
    process = kernel.spawn_process(STRESS_PATH)
    kernel.run_process(process, max_steps=2_000_000)
    assert process.exited
    return process, injector


class TestErrnoChannel:
    def test_rate_one_fails_every_injectable_occurrence(self):
        kernel = Kernel(seed=777, aslr=False)
        kernel.torn_window_probability = 0.0
        from repro.workloads.coreutils import install_coreutils
        install_coreutils(kernel)
        REGISTRY.create("native", kernel)
        config = FaultConfig(horizon=64,
                             errno_rates={int(Nr.read): 1.0})
        injector = FaultInjector(kernel, build_schedule(3, config))
        process = kernel.spawn_process("/usr/bin/cat")
        kernel.run_process(process, max_steps=2_000_000)
        assert process.exited and process.exit_status == 0
        # Every main-phase read failed, so cat printed nothing.
        assert any(line.startswith("errno@") and " read " in line.replace(
            "read ->", "read -> ") for line in injector.log)
        assert bytes(process.output) == b""

    def test_premain_is_never_injected(self):
        kernel = stress_kernel()
        config = FaultConfig(horizon=400, errno_rate=1.0)
        _, injector = run_with(kernel, build_schedule(1, config))
        # stress's only main-phase call is syscall(500) — not injectable —
        # and the loader stub's pre-main calls must not be touched either.
        assert injector.log == []
        assert injector.app_calls > 0


class TestInstructionTriggers:
    @pytest.mark.parametrize("block_cache", [True, False])
    def test_fires_exactly_at_the_scheduled_count(self, block_cache):
        # Warm run (no injector) to learn the deterministic total, then
        # schedule a signal at the midpoint.
        warm = stress_kernel(block_cache=True, iterations=100)
        REGISTRY.create("native", warm)
        process = warm.spawn_process(STRESS_PATH)
        warm.run_process(process, max_steps=2_000_000)
        total = warm.cycles.counts[Event.INSTRUCTION]
        target = total // 2
        assert target > 100

        kernel = stress_kernel(block_cache=block_cache, iterations=100)
        fired = []
        config = FaultConfig(extra_faults=(
            Fault("insn", target, "signal", arg=SIGUSR1),))
        REGISTRY.create("native", kernel)
        injector = FaultInjector(kernel, build_schedule(0, config))
        process = kernel.spawn_process(STRESS_PATH)
        process.dispositions.set_action(
            SIGUSR1,
            lambda ctx: fired.append(kernel.cycles.counts[Event.INSTRUCTION]))
        kernel.run_process(process, max_steps=2_000_000)
        # Budget clipping dooms block replay at the trigger point, so the
        # unit boundary — and the signal — lands on *exactly* the scheduled
        # retire count in both interpreter modes.
        assert fired == [target]
        assert any("signal@insn" in line for line in injector.log)


class TestOtherTriggers:
    def test_exit_signal_lands_after_scheduled_occurrence(self):
        kernel = stress_kernel()
        config = FaultConfig(horizon=40, signal_count=2)
        _, injector = run_with(kernel, build_schedule(4, config))
        assert sum("signal@exit" in line for line in injector.log) == 2

    def test_quantum_trigger_fires(self):
        kernel = stress_kernel()
        config = FaultConfig(extra_faults=(
            Fault("quantum", 1, "signal", arg=SIGCHLD),))
        _, injector = run_with(kernel, build_schedule(0, config))
        assert injector.quanta >= 2
        assert any("signal@quantum1" in line for line in injector.log)

    def test_window_patch_applies_remote_store(self):
        kernel = stress_kernel()
        # Windows must actually open for this test (run_cell pins the
        # probability to 0 precisely because window events are
        # mechanism-variant).
        kernel.torn_window_probability = 1.0
        REGISTRY.create("native", kernel)
        process = kernel.spawn_process(STRESS_PATH)
        scratch = process.address_space.mmap(
            None, PAGE_SIZE, Prot.READ | Prot.WRITE, name="scratch")
        config = FaultConfig(extra_faults=(
            Fault("window", 0, "patch", addr=scratch, data=b"\xaa\xbb"),))
        injector = FaultInjector(kernel, build_schedule(0, config),
                                 main_phase_only=False)
        kernel.preemption_window(process.main_thread)
        assert process.address_space.read_kernel(scratch, 2) == b"\xaa\xbb"
        assert any("patch@window0" in line for line in injector.log)


class TestSelectorFlip:
    def test_flip_lets_one_call_escape_sud(self):
        kernel = stress_kernel()
        config = FaultConfig(extra_faults=(
            Fault("syscall-entry", 3, "selector-flip"),))
        process, injector = run_with(kernel, build_schedule(0, config),
                                     mechanism="SUD")
        assert process.exit_status == 0
        assert any("selector-flip@entry3" in line for line in injector.log)
        main = kernel.syscall_log[process.premain_log_len:]
        origins = [r.origin for r in main
                   if r.pid == process.pid and r.app_requested]
        # Exactly one call bypassed the SIGSYS path (executed natively);
        # the rest were forwarded by the SUD handler.
        assert origins.count("app") == 1
        assert origins.count("sud-handler") == len(origins) - 1


class TestLogDeterminism:
    @pytest.mark.parametrize("block_cache", [True, False])
    def test_two_runs_identical_injection_log(self, block_cache):
        logs = []
        for _ in range(2):
            kernel = stress_kernel(block_cache=block_cache)
            config = FaultConfig(horizon=40, errno_rate=0.5, signal_count=2)
            _, injector = run_with(kernel, build_schedule(6, config),
                                   mechanism="SUD")
            logs.append(list(injector.log))
        assert logs[0] == logs[1]
