"""The headline guarantee: one seed, one report — byte for byte.

Across ``--jobs`` (shard counts), across engine tiers, across repeated
runs, for both serve modes.  These drive real kernels (calibration at
minimum), so configs are kept small; the 10^6-request scale is the
CLI's job, the *invariance* is proved here.
"""

import os

import pytest

import repro.traffic.fleet as fleet
from repro.traffic.config import TrafficConfig
from repro.traffic.engine import run_loadtest
from repro.traffic.schedule import generate_schedule

TIER_HATCHES = ("REPRO_NO_BLOCK_CACHE", "REPRO_NO_TRACE_JIT")


def model_config(**kwargs):
    defaults = dict(requests=1200, servers=3, connections=48,
                    calibration_requests=12, workers=2, ramp=(1, 2, 8))
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


def full_config(**kwargs):
    defaults = dict(requests=150, servers=2, connections=12,
                    calibration_requests=10, workers=2, ramp=(1, 4),
                    serve_mode="full")
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


@pytest.fixture(autouse=True)
def fresh_calibration():
    """Each test measures its own service tables — cached tables from a
    different engine configuration would mask a tier-variance bug."""
    fleet._CALIBRATION_CACHE.clear()
    yield
    fleet._CALIBRATION_CACHE.clear()


def report_json(traffic, jobs=1, mechanisms=("native",), workload="redis",
                seed=23):
    return run_loadtest(list(mechanisms), workload, traffic, seed=seed,
                        jobs=jobs).to_json()


def test_model_mode_jobs_invariant():
    baseline = report_json(model_config(), jobs=1)
    for jobs in (2, 4):
        fleet._CALIBRATION_CACHE.clear()
        assert report_json(model_config(), jobs=jobs) == baseline, \
            f"--jobs {jobs} perturbed the SLO report"


def test_full_mode_jobs_invariant():
    baseline = report_json(full_config(), jobs=1)
    fleet._CALIBRATION_CACHE.clear()
    assert report_json(full_config(), jobs=2) == baseline


def test_model_mode_engine_tier_invariant():
    baseline = report_json(model_config())
    for hatch in TIER_HATCHES:
        fleet._CALIBRATION_CACHE.clear()
        os.environ[hatch] = "1"
        try:
            assert report_json(model_config()) == baseline, \
                f"{hatch}=1 perturbed the SLO report"
        finally:
            del os.environ[hatch]


def test_full_mode_reference_tier_invariant():
    """Full-serve mode retires every request on real kernels; the
    reference single-step interpreter must produce the same bytes."""
    baseline = report_json(full_config())
    fleet._CALIBRATION_CACHE.clear()
    os.environ["REPRO_NO_BLOCK_CACHE"] = "1"
    try:
        assert report_json(full_config()) == baseline
    finally:
        del os.environ["REPRO_NO_BLOCK_CACHE"]


def test_seed_changes_schedule_and_report():
    assert report_json(model_config(), seed=23) != \
        report_json(model_config(), seed=24)


def test_mechanisms_share_one_schedule():
    """Auto-rate resolution uses only the native calibration, so every
    mechanism is graded against the identical arrival schedule."""
    report = run_loadtest(["native", "zpoline-default"], "redis",
                          model_config(), seed=31)
    digest = report.doc["schedule"]["digest"]
    assert digest  # one digest, echoed once — shared by construction
    totals = [s["totals"]["offered"]
              for s in report.doc["mechanisms"].values()]
    assert totals[0] == totals[1] == 1200


def test_runconfig_traffic_roundtrip():
    from repro.runapi import RunConfig, run

    result = run(RunConfig(mechanism="native", workload="redis", seed=23,
                           traffic=model_config()))
    assert result.slo is not None
    assert result.requests == result.slo.total_completed()
    assert result.ok


PIN_TENANTS = (("anchor", 5), ("batch", 2), ("probe", 1))
PIN_MIX = (("small", 6), ("medium", 3), ("large", 1), ("batch:large", 3),
           ("batch:small", 1), ("probe:medium", 1))

#: SHA-256 of ``run_loadtest(...).to_json()``: the report bytes must not
#: move with host-side changes to the generator, fabric or merge.  Every
#: config sheds load and runs 1201 requests over 3 stages (not a
#: multiple), at either shard count.
PINNED_REPORTS = {
    "shed": (dict(queue_limit=2),
             "bb313830b8e159a97e016525a2507c86926fc992514357a52b6634704345a3e2"),
    "spans-lognormal": (
        dict(arrival="lognormal", spans=True, queue_limit=3),
        "b24e4bca739d4a1e1f31dfbf92c08daf881994b8afb5139bf62fdfd03ebc7f27"),
    "spans-pareto": (
        dict(arrival="pareto", spans=True, queue_limit=3,
             tenants=PIN_TENANTS, mix=PIN_MIX),
        "2d6df1af282b5a5551cb5b2d842ed21b2a2a78b061c13dcb3edc8cf1762b72a5"),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_report_bytes_pinned(name, jobs):
    import hashlib

    overrides, digest = PINNED_REPORTS[name]
    traffic = model_config(requests=1201, ramp=(1, 4, 32), **overrides)
    text = report_json(traffic, jobs=jobs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_one_generation_cold_none_when_cached(tmp_path, monkeypatch):
    """A cold two-mechanism run generates its schedule once (the cells
    share the engine's memo and run_loadtest reads the shard docs); a
    rerun whose cells all hit the cache generates none."""
    import repro.traffic.engine as engine
    from repro.evaluation.cache import ResultCache

    generations = []

    def counted(traffic, seed):
        generations.append(seed)
        return generate_schedule(traffic, seed)

    monkeypatch.setattr(engine, "generate_schedule", counted)
    engine._SCHEDULE_MEMO.clear()
    cache = ResultCache(tmp_path / "cache")
    cold = run_loadtest(["native", "zpoline-default"], "redis",
                        model_config(), seed=31, jobs=1, cache=cache)
    assert len(generations) == 1
    engine._SCHEDULE_MEMO.clear()
    warm = run_loadtest(["native", "zpoline-default"], "redis",
                        model_config(), seed=31, jobs=1, cache=cache)
    assert len(generations) == 1
    assert (warm.stats.hits, warm.stats.misses) == (2, 0)
    assert warm.to_json() == cold.to_json()
