"""Seeded open-loop arrival schedules — byte-identical by construction.

One ``random.Random(seed)`` stream drives every draw, in one fixed
order per request (gap, tenant, kind, connection), so the schedule is a
pure function of ``(config, seed)``: no wall clock, no float
accumulation across shards (each arrival time is the running integer
nanosecond sum), no dict iteration.  A process generates the full
schedule at most once per ``(config, seed)`` (the memo in
:mod:`repro.traffic.engine`), each server walks only its own requests
(:meth:`ArrivalSchedule.server_stages`), and the report merge reads the
small :func:`schedule_echo` every shard doc carries instead of a
schedule of its own.  Never splitting the RNG is what makes ``--jobs
1/2/4`` byte-identical.

Columns live in ``array('q')`` (8 bytes/field): a million-request
schedule is four 8 MB arrays, not a million Python objects.

The rate ramp is request-count-staged: :meth:`ArrivalSchedule.
stage_bounds` gives stage ``s`` the requests from ``s * n // len(ramp)``
on, so every stage holds the same number of requests (±1) and
per-stage percentiles are equally grounded.
"""

from __future__ import annotations

import hashlib
import math
import random
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

from repro.traffic.config import TrafficConfig

NS = 10**9

#: Pareto shape for the heavy-tail arrival option: alpha just above 1
#: keeps the mean finite while the variance diverges — the bursty
#: regime that stresses queue leveling.
PARETO_ALPHA = 1.5

#: Lognormal burstiness; mu is set per stage so the mean gap is exactly
#: 1/rate: the mean of lognormal(mu, sigma) is exp(mu + sigma^2/2).
LOGNORMAL_SIGMA = 1.0


@dataclass(frozen=True)
class ArrivalSchedule:
    """The generated schedule: parallel integer columns + name tables.

    ``t_ns[i]`` is request *i*'s absolute arrival time (virtual
    nanoseconds from test start); ``tenant[i]`` / ``kind[i]`` index
    ``tenant_names`` / ``kind_names``; ``conn[i]`` is the connection the
    request arrives on, and ``conn % servers`` its server — the sharding
    axis.  Stages, the per-server partition and the digest are derived,
    not stored.
    """

    config: TrafficConfig
    seed: int
    t_ns: array
    tenant: array
    kind: array
    conn: array
    tenant_names: Tuple[str, ...]
    kind_names: Tuple[str, ...]

    def __len__(self) -> int:
        return len(self.t_ns)

    def digest(self) -> str:
        """SHA-256 over the raw column bytes: the byte-identity witness
        quoted in METRICS_slo.json and asserted by the property tests."""
        h = hashlib.sha256()
        for column in (self.t_ns, self.tenant, self.kind, self.conn):
            h.update(column.tobytes())
        return h.hexdigest()

    def span_ns(self) -> int:
        return self.t_ns[-1] if len(self.t_ns) else 0

    def stage_bounds(self) -> Tuple[Tuple[int, int], ...]:
        """Per-stage ``(first_index, end_index)`` half-open ranges —
        the stage rule the fabric, full serve and the report tally by.

        generate_schedule draws the rate by another rule (see there):
        when ``n % len(ramp) != 0`` the two disagree on a request at
        some stage edges, which is drawn at one stage's rate and
        tallied in the next.
        """
        n, stages = len(self.t_ns), len(self.config.ramp)
        return tuple((s * n // stages, (s + 1) * n // stages)
                     for s in range(stages))

    def stage_edges_ns(self) -> Tuple[int, ...]:
        """Arrival time of the last request before each stage edge
        (0 for an edge at index 0): ``len(ramp) + 1`` values, stage *s*
        spanning ``edges[s]..edges[s + 1]``."""
        edges = [first for first, _ in self.stage_bounds()]
        edges.append(len(self.t_ns))
        return tuple(self.t_ns[edge - 1] if edge else 0 for edge in edges)

    @cached_property
    def by_server(self) -> Tuple[array, ...]:
        """Each server's request indices in arrival order, partitioned
        in one pass over the connection column."""
        servers = self.config.servers
        parts = tuple(array("q") for _ in range(servers))
        appends = [part.append for part in parts]
        for index, conn in enumerate(self.conn):
            appends[conn % servers](index)
        return parts

    def server_stages(self, server: int) -> List[array]:
        """*server*'s request indices split by :meth:`stage_bounds` —
        the one way the fabric and full serve walk their arrivals."""
        indices = self.by_server[server]
        return [indices[bisect_left(indices, first):
                        bisect_left(indices, end)]
                for first, end in self.stage_bounds()]


def _cumulative(weights: Tuple[Tuple[str, int], ...]) -> Tuple[List[int],
                                                               int]:
    """Running weight sums for a ``bisect_right`` pick, and the total."""
    cumulative, running = [], 0
    for _, weight in weights:
        running += weight
        cumulative.append(running)
    return cumulative, running


def generate_schedule(config: TrafficConfig, seed: int) -> ArrivalSchedule:
    """Generate the full arrival schedule for ``(config, seed)``.

    ``config.rate`` must be resolved (non-zero).  Draw order per request
    is fixed — gap, tenant, kind, connection — and every consumer draw
    happens even when a value is forced (single tenant still burns a
    draw), so adding consumers later can't silently reshuffle the stream
    for old configs.

    The loop draws straight from ``rng.random``/``rng.getrandbits`` and
    inlines what CPython's ``expovariate``, ``lognormvariate``
    (Kinderman–Monahan ``normalvariate``), ``paretovariate`` and
    ``randrange`` do with them, so it consumes the stream exactly as
    those calls would; the pinned digests in
    ``tests/traffic/test_schedule.py`` witness it.  Each float gap is
    truncated to integer nanoseconds at once, so no float state
    survives between requests.
    """
    if config.rate <= 0:
        raise ValueError("generate_schedule needs a resolved rate")
    rng = random.Random(seed)
    draw, getrandbits = rng.random, rng.getrandbits
    log, exp = math.log, math.exp
    magic = random.NV_MAGICCONST

    tenant_names = tuple(name for name, _ in config.tenants)
    tenant_cum, tenant_total = _cumulative(config.tenants)
    tenant_bits = tenant_total.bit_length()
    mixes = [config.mix_for(name) for name in tenant_names]
    kind_names = tuple(sorted({kind for mix in mixes for kind, _ in mix}))
    kind_index = {kind: i for i, kind in enumerate(kind_names)}
    # Per tenant: (cumulative weights, total, draw bits, kind ids).
    kind_tables = []
    for mix in mixes:
        cumulative, total = _cumulative(mix)
        kind_tables.append((cumulative, total, total.bit_length(),
                            [kind_index[kind] for kind, _ in mix]))
    connections = config.connections
    conn_bits = connections.bit_length()

    n = config.requests
    stages = len(config.ramp)
    t_col, tenant_col = array("q", [0]) * n, array("q", [0]) * n
    kind_col, conn_col = array("q", [0]) * n, array("q", [0]) * n
    arrival = config.arrival
    sigma = LOGNORMAL_SIGMA
    pareto_exponent = -1.0 / PARETO_ALPHA
    now = 0
    for stage, multiplier in enumerate(config.ramp):
        rate = config.rate * multiplier
        lambd = rate / NS
        mu = log(NS / rate) - sigma * sigma / 2.0
        xm = (PARETO_ALPHA - 1.0) / PARETO_ALPHA * (NS / rate)
        # Request i is drawn at ramp[i * stages // n], so this stage
        # starts at ceil(stage * n / stages).  That is not stage_bounds'
        # rule: when n % stages != 0 a stage-edge request is drawn at one
        # stage's rate and tallied in the next.  Changing either rule
        # changes METRICS_slo.json bytes.
        first = -(-stage * n // stages)
        end = -(-(stage + 1) * n // stages)
        for index in range(first, end):
            if arrival == "poisson":
                now += int(-log(1.0 - draw()) / lambd)
            elif arrival == "lognormal":
                while True:
                    u1 = draw()
                    u2 = 1.0 - draw()
                    z = magic * (u1 - 0.5) / u2
                    if z * z / 4.0 <= -log(u2):
                        break
                now += int(exp(mu + z * sigma))
            else:  # pareto; xm scales the mean alpha*xm/(alpha-1) to 1/rate
                now += int(xm * (1.0 - draw()) ** pareto_exponent)
            point = getrandbits(tenant_bits)
            while point >= tenant_total:
                point = getrandbits(tenant_bits)
            tenant = bisect_right(tenant_cum, point)
            cumulative, total, bits, kinds = kind_tables[tenant]
            point = getrandbits(bits)
            while point >= total:
                point = getrandbits(bits)
            conn = getrandbits(conn_bits)
            while conn >= connections:
                conn = getrandbits(conn_bits)
            t_col[index] = now
            tenant_col[index] = tenant
            kind_col[index] = kinds[bisect_right(cumulative, point)]
            conn_col[index] = conn
    return ArrivalSchedule(config=config, seed=seed, t_ns=t_col,
                           tenant=tenant_col, kind=kind_col, conn=conn_col,
                           tenant_names=tenant_names, kind_names=kind_names)


def schedule_summary(schedule: ArrivalSchedule) -> Dict:
    """Small JSON echo for reports: count, span, digest, stage bounds."""
    return {
        "requests": len(schedule),
        "span_ns": schedule.span_ns(),
        "digest": schedule.digest(),
        "stages": [
            {"stage": s, "rate": schedule.config.rate * m,
             "first": bounds[0], "end": bounds[1]}
            for s, (m, bounds) in enumerate(
                zip(schedule.config.ramp, schedule.stage_bounds()))
        ],
    }


def schedule_echo(schedule: ArrivalSchedule) -> Dict:
    """Everything the report merge reads of a schedule, small enough to
    ride in every shard doc: the summary echoed into METRICS_slo.json,
    the name tables and the stage-edge arrival times.  Lists, not
    tuples, so a fresh doc equals one read back from the cell cache."""
    return {
        "summary": schedule_summary(schedule),
        "tenant_names": list(schedule.tenant_names),
        "kind_names": list(schedule.kind_names),
        "edges_ns": list(schedule.stage_edges_ns()),
    }
