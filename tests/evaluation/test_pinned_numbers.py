"""Exact simulated numbers pinned across refactors of the run surface.

Every value below was recorded before the evaluation runner, the cycle
decomposition and the conformance cells were moved onto
:mod:`repro.runapi`; they must not move while the code that boots the
machine changes shape.  The cycle model is deterministic, so these are
equalities, not tolerances, and they must hold under every engine tier
(CI runs this file in the engine matrix).
"""

import dataclasses
import hashlib
import json

import pytest

from repro.cpu.cycles import Event
from repro.evaluation.pipeline import ScenarioSpec, execute_cell

MICRO_PARAMS = (("iterations_high", 240), ("iterations_low", 60))


@pytest.mark.parametrize("mechanism, cycles_per_call", [
    ("native", 315.0),
    ("K23-ultra", 438.0),
    ("SUD", 4820.0),
])
def test_micro_cycles_per_call(mechanism, cycles_per_call):
    spec = ScenarioSpec("micro", mechanism, "syscall-stress", 20,
                        MICRO_PARAMS)
    assert execute_cell(spec) == {"cycles_per_call": cycles_per_call}


@pytest.mark.parametrize("mechanism, cycles_per_request", [
    ("native", 9945.0),
    ("K23-ultra", 10242.0),
])
def test_redis_1t_cycles_per_request(mechanism, cycles_per_request):
    value = execute_cell(ScenarioSpec("macro", mechanism, "redis-1t", 30))
    assert value["cycles_per_request"] == cycles_per_request
    assert value["throughput"] == 174613.0


@pytest.mark.parametrize("mechanism, cycles", [
    ("native", 4071317),
    ("K23-ultra", 4159016),
])
def test_sqlite_cycles(mechanism, cycles):
    value = execute_cell(ScenarioSpec("macro", mechanism, "sqlite", 30))
    assert value == {"cycles": cycles}


def test_k23_conformance_observation():
    from repro.faultinject.conformance import run_cell

    obs = run_cell("K23-ultra", "stress", 3)
    assert obs.exit_status == 0
    assert obs.syscalls == ("sys_500=-38",) * 40 + ("exit=?",)
    assert obs.heap_sha == "ad7facb2586fc6e9"
    assert obs.schedule_sha == "f07a9751bcc3711d"
    assert obs.injections == (
        "signal@exit5: SIGCHLD after sys_500 [rewrite-handler]",
        "signal@exit30: SIGCHLD after sys_500 [rewrite-handler]")
    assert obs.counters["total_cycles"] == 423425
    # Everything else.  The counters feed the matrix artifact; only their
    # per-event-type tallies may differ by engine tier (the block cache
    # batches CycleCharge emissions per block).
    fields = dataclasses.asdict(obs)
    counters = fields.pop("counters")
    counters.pop("events")
    assert _sha(fields) == (
        "5266d9f4f053e2d1bac016e94e059569eeeb3b89b6456e6085402c6a06b1892d")
    assert _sha(counters) == (
        "1a4b83e3c32b5a31b24260c19451792cf5e0d003ec1c48240cfe8be6de6d5008")


def _sha(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def test_k23_decomposition():
    from repro.evaluation.breakdown import decompose

    dec = decompose("K23-ultra", iterations=80, seed=85)
    assert dec.rows == {
        Event.INSTRUCTION: (1440, 1440),
        Event.KERNEL_SYSCALL: (80, 24000),
        Event.SUD_ARMED_SLOWPATH: (80, 5680),
        Event.SUD_SELECTOR_WRITE: (160, 160),
        Event.TRAMPOLINE_SLED: (80, 800),
        Event.K23_HANDLER: (80, 80),
        Event.HASHSET_CHECK: (80, 2880),
    }
    assert dec.raw == {}
    assert dec.total == 35040
    assert dec.residual == 0


def test_k23_variants_share_one_offline_pass(monkeypatch):
    """The offline logs are mechanism-independent: a second K23 variant
    on the same workload imports the memoized logs instead of tracing
    the program again."""
    import repro.runapi as runapi
    from repro.core.offline import OfflinePhase

    passes = []
    original = OfflinePhase.run

    def counted(self, *args, **kwargs):
        passes.append(args[0] if args else kwargs.get("path"))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(runapi, "_OFFLINE_CACHE", {})
    monkeypatch.setattr(OfflinePhase, "run", counted)
    config = runapi.RunConfig("K23-ultra", "stress", seed=20,
                              params=(("iterations", 60),))
    assert runapi.run(config).ok
    assert len(passes) == 1
    for variant in ("K23-default", "K23-ultra+"):
        assert runapi.run(dataclasses.replace(config,
                                              mechanism=variant)).ok
    assert len(passes) == 1
