"""Block cache on vs off: the evaluation numbers must be byte-identical.

The basic-block translation cache is a pure interpreter optimization —
every cycle count the evaluation pipeline emits must be *exactly* the same
with the cache enabled and with ``REPRO_NO_BLOCK_CACHE=1``.  The flag is
read at :class:`Kernel` construction time, so each half of a comparison
just builds its kernels under the matching environment."""

import os

import pytest

from repro.evaluation.runner import measure_micro_cycles
from repro.kernel.kernel import Kernel
from repro.workloads.stress import STRESS_PATH, install_stress

#: Smoke-sized iteration counts (matching the pipeline's --smoke mode):
#: big enough to exercise replay-heavy steady state, small enough for CI.
LOW, HIGH = 60, 240


def _with_flag(value, fn):
    saved = os.environ.get("REPRO_NO_BLOCK_CACHE")
    try:
        if value is None:
            os.environ.pop("REPRO_NO_BLOCK_CACHE", None)
        else:
            os.environ["REPRO_NO_BLOCK_CACHE"] = value
        return fn()
    finally:
        if saved is None:
            os.environ.pop("REPRO_NO_BLOCK_CACHE", None)
        else:
            os.environ["REPRO_NO_BLOCK_CACHE"] = saved


def test_flag_controls_block_cache():
    assert _with_flag(None, lambda: Kernel(seed=1).engine.block_cache)
    assert not _with_flag("1", lambda: Kernel(seed=1).engine.block_cache)
    assert _with_flag("0", lambda: Kernel(seed=1).engine.block_cache)


@pytest.mark.parametrize("mechanism", [
    "native", "zpoline-default", "lazypoline", "K23-ultra", "SUD",
])
def test_micro_cycles_identical_block_on_off(mechanism):
    on = _with_flag(None, lambda: measure_micro_cycles(mechanism, LOW, HIGH))
    off = _with_flag("1", lambda: measure_micro_cycles(mechanism, LOW, HIGH))
    assert on == off, (
        f"{mechanism}: block cache changed the measurement "
        f"({on!r} on vs {off!r} off)")


def test_stress_run_identical_block_on_off():
    """Full scheduler-level parity: retired count AND final cycle total of a
    multi-quantum syscall-stress run match exactly, mode on vs off."""

    def run():
        kernel = Kernel(seed=42)
        install_stress(kernel, iterations=200)
        process = kernel.spawn_process(STRESS_PATH)
        retired = kernel.run_process(process, max_steps=500_000)
        return retired, kernel.cycles.cycles

    assert _with_flag(None, run) == _with_flag("1", run)
