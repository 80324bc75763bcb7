"""Arrival-schedule determinism: same seed, byte-identical columns."""

import pytest

from repro.traffic.config import TrafficConfig
from repro.traffic.schedule import generate_schedule, schedule_summary


def small(**kwargs):
    defaults = dict(requests=2000, rate=100_000, servers=4,
                    connections=64, ramp=(1, 2, 4))
    defaults.update(kwargs)
    return TrafficConfig(**defaults)


def test_same_seed_same_digest():
    a = generate_schedule(small(), 42)
    b = generate_schedule(small(), 42)
    assert a.digest() == b.digest()
    assert a.t_ns == b.t_ns and a.conn == b.conn


def test_different_seed_different_digest():
    assert generate_schedule(small(), 1).digest() != \
        generate_schedule(small(), 2).digest()


def test_unresolved_rate_rejected():
    with pytest.raises(ValueError, match="resolved rate"):
        generate_schedule(TrafficConfig(), 1)


def test_arrivals_monotonic_and_connections_in_range():
    schedule = generate_schedule(small(), 7)
    last = 0
    for i in range(len(schedule)):
        assert schedule.t_ns[i] >= last
        last = schedule.t_ns[i]
        assert 0 <= schedule.conn[i] < 64


@pytest.mark.parametrize("arrival", ["poisson", "lognormal", "pareto"])
def test_every_arrival_process_generates(arrival):
    schedule = generate_schedule(small(arrival=arrival), 3)
    assert len(schedule) == 2000
    assert schedule.span_ns() > 0


def test_stage_bounds_partition_requests():
    schedule = generate_schedule(small(), 5)
    bounds = schedule.stage_bounds()
    assert bounds[0][0] == 0 and bounds[-1][1] == len(schedule)
    for (_, end), (start, _) in zip(bounds, bounds[1:]):
        assert end == start
    for server in range(4):
        for (start, end), indices in zip(bounds,
                                         schedule.server_stages(server)):
            assert all(start <= index < end for index in indices)


def test_ramp_speeds_up_arrivals():
    """Later (higher-multiplier) stages pack the same requests into less
    wall time: mean gap shrinks roughly with the multiplier."""
    schedule = generate_schedule(small(ramp=(1, 8)), 11)
    (s0, e0), (s1, e1) = schedule.stage_bounds()
    span0 = schedule.t_ns[e0 - 1] - schedule.t_ns[s0]
    span1 = schedule.t_ns[e1 - 1] - schedule.t_ns[s1]
    assert span1 * 3 < span0


def test_server_sharding_covers_all_requests():
    schedule = generate_schedule(small(), 9)
    dealt = sorted(index for s in range(4)
                   for indices in schedule.server_stages(s)
                   for index in indices)
    assert dealt == list(range(len(schedule)))
    for s in range(4):
        assert all(schedule.conn[index] % 4 == s
                   for index in schedule.by_server[s])


def test_tenant_weights_respected():
    config = small(requests=4000, tenants=(("heavy", 9), ("light", 1)))
    schedule = generate_schedule(config, 13)
    heavy = schedule.tenant_names.index("heavy")
    count = sum(1 for i in range(len(schedule))
                if schedule.tenant[i] == heavy)
    assert 0.8 < count / len(schedule) < 0.98


def test_summary_echo():
    schedule = generate_schedule(small(), 21)
    doc = schedule_summary(schedule)
    assert doc["requests"] == 2000
    assert doc["digest"] == schedule.digest()
    assert [row["rate"] for row in doc["stages"]] == \
        [100_000, 200_000, 400_000]


PIN_TENANTS = (("anchor", 5), ("batch", 2), ("probe", 1))
PIN_MIX = (("small", 6), ("medium", 3), ("large", 1), ("batch:large", 3),
           ("batch:small", 1), ("probe:medium", 1))

#: The draw stream is part of the artifact contract: METRICS_slo.json
#: and perfbench/reference.json quote schedules drawn this way.  Every
#: arrival process, three tenants with tenant-scoped mixes, a connection
#: count that forces rejection draws, and request counts that are not a
#: multiple of the stage count (the stage-edge requests are where the
#: generator's stage rule and ``stage_bounds`` part ways).
PINNED_SCHEDULE_DIGESTS = {
    ("poisson", 20001, 5):
        "be549b5bd6c42946e760ff9ad9d964b96f758e5c1ef780a8c7eb7675220b04f6",
    ("poisson", 7, 10):
        "2326d1986a5eb6fbcd67c21f1021f1de5645238dfe2e2b661cebdc2d76c991e7",
    ("lognormal", 20001, 5):
        "88748d8536077c84d712fee097d269ed0acd0784c1091e0c37d66b7c7aa46874",
    ("lognormal", 7, 10):
        "79f50169d0b767e12236c72cebbe0590fb136a7161b78e143203e0c12b13e67b",
    ("pareto", 20001, 5):
        "ae3c3397b9544dff5495dee35f9eeaf6517ad07538d3848eaa45a0c761e20e01",
    ("pareto", 7, 10):
        "b83ec63dd31a1ffad2e6cc4eb223d4837b03bfec3d4516278ed6380113d2abb5",
}


@pytest.mark.parametrize("arrival,requests,stages",
                         sorted(PINNED_SCHEDULE_DIGESTS))
def test_schedule_bytes_pinned(arrival, requests, stages):
    config = TrafficConfig(requests=requests, rate=50_000, arrival=arrival,
                           servers=3, connections=100, tenants=PIN_TENANTS,
                           mix=PIN_MIX, ramp=tuple(range(1, stages + 1)))
    assert generate_schedule(config, 29).digest() == \
        PINNED_SCHEDULE_DIGESTS[(arrival, requests, stages)]
