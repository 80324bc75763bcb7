"""`TrafficConfig`: the frozen, validating description of a load test.

The config is to the traffic engine what ``record=``/``replay_from=``
are to the replay subsystem: a constructor-validated value object that
``RunConfig(traffic=...)`` embeds, with a canonical JSON-safe rendering
(:meth:`TrafficConfig.canonical`) that doubles as the pipeline cache-key
contribution and the provenance echo inside ``METRICS_slo.json``.

Everything here is plain data — the engine interprets it:

- **arrival** — the inter-arrival process: ``poisson`` (exponential
  gaps, the classic open-loop baseline), ``lognormal`` (bursty but
  light-tailed), ``pareto`` (heavy-tailed; the mix *Making "syscall" a
  Privilege not a Right* argues exposes per-transition cost models).
- **rate** — base offered rate in requests/second; 0 means *auto*:
  the engine resolves it to ~60 % of the calibrated native capacity
  before specs are created, so every mechanism faces the same schedule.
- **ramp** — per-stage rate multipliers; the schedule is divided into
  ``len(ramp)`` equal-request stages, stage *i* running at
  ``rate * ramp[i]``.  The saturation knee is read off this staircase.
- **tenants** / **mix** — weighted request attribution and body-size
  mix.  Mix keys are a kind (``small``/``medium``/``large``) or a
  tenant-scoped ``"tenant:kind"``, letting one tenant skew heavy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

ARRIVALS = ("poisson", "lognormal", "pareto")
SERVE_MODES = ("model", "full")
REQUEST_KINDS = ("small", "medium", "large")

DEFAULT_TENANTS = (("anchor", 8), ("batch", 1))
DEFAULT_MIX = (("small", 6), ("medium", 3), ("large", 1))
DEFAULT_RAMP = (1, 2, 4, 8, 16, 32)


def _check_weights(name: str, weights: Tuple[Tuple[str, int], ...]) -> None:
    if not weights:
        raise ValueError(f"traffic: {name} must be non-empty")
    seen = set()
    for key, weight in weights:
        if not isinstance(key, str) or not key:
            raise ValueError(f"traffic: {name} key {key!r} invalid")
        if key in seen:
            raise ValueError(f"traffic: duplicate {name} key {key!r}")
        seen.add(key)
        if not isinstance(weight, int) or weight <= 0:
            raise ValueError(
                f"traffic: {name} weight for {key!r} must be a positive "
                f"integer, got {weight!r}")


@dataclass(frozen=True)
class TrafficConfig:
    """One load test, fully described.  Frozen and validating: any
    instance that exists is runnable, and equal configs produce equal
    cache keys (tuples everywhere, no dict-order dependence)."""

    requests: int = 1_000_000
    rate: int = 0
    arrival: str = "poisson"
    servers: int = 4
    connections: int = 2048
    tenants: Tuple[Tuple[str, int], ...] = DEFAULT_TENANTS
    mix: Tuple[Tuple[str, int], ...] = DEFAULT_MIX
    ramp: Tuple[int, ...] = DEFAULT_RAMP
    queue_limit: int = 4096
    workers: int = 2
    calibration_requests: int = 400
    serve_mode: str = "model"
    slo_p99_ms: int = 2
    #: Per-request span tracing: when True every request carries a span
    #: tree and the report grows a rank-based exemplar section (slowest
    #: ``exemplars`` spans per (stage, tenant, kind), earliest
    #: ``shed_exemplars`` shed spans per group) — see
    #: :mod:`repro.observability.spans` and ``python -m repro sloexplain``.
    spans: bool = False
    exemplars: int = 4
    shed_exemplars: int = 16

    def __post_init__(self) -> None:
        if not isinstance(self.requests, int) or self.requests <= 0:
            raise ValueError("traffic: requests must be a positive integer")
        if not isinstance(self.rate, int) or self.rate < 0:
            raise ValueError("traffic: rate must be >= 0 (0 = auto)")
        if self.arrival not in ARRIVALS:
            raise ValueError(
                f"traffic: unknown arrival {self.arrival!r} "
                f"(choose from {', '.join(ARRIVALS)})")
        if self.serve_mode not in SERVE_MODES:
            raise ValueError(
                f"traffic: unknown serve_mode {self.serve_mode!r} "
                f"(choose from {', '.join(SERVE_MODES)})")
        if not isinstance(self.servers, int) or self.servers <= 0:
            raise ValueError("traffic: servers must be a positive integer")
        if not isinstance(self.connections, int) or \
                self.connections < self.servers:
            raise ValueError("traffic: connections must be an integer "
                             ">= servers")
        if not isinstance(self.workers, int) or self.workers <= 0:
            raise ValueError("traffic: workers must be a positive integer")
        if not isinstance(self.queue_limit, int) or self.queue_limit <= 0:
            raise ValueError("traffic: queue_limit must be positive")
        if not isinstance(self.calibration_requests, int) or \
                self.calibration_requests <= 0:
            raise ValueError("traffic: calibration_requests must be "
                             "positive")
        if not isinstance(self.slo_p99_ms, int) or self.slo_p99_ms <= 0:
            raise ValueError("traffic: slo_p99_ms must be positive")
        if not isinstance(self.spans, bool):
            raise ValueError("traffic: spans must be a bool")
        if not isinstance(self.exemplars, int) or self.exemplars <= 0:
            raise ValueError("traffic: exemplars must be positive")
        if not isinstance(self.shed_exemplars, int) or \
                self.shed_exemplars < 0:
            raise ValueError("traffic: shed_exemplars must be >= 0")
        # Canonicalize sequence fields to tuples (lists accepted in).
        object.__setattr__(self, "tenants",
                           tuple((str(k), int(w)) for k, w in self.tenants))
        object.__setattr__(self, "mix",
                           tuple((str(k), int(w)) for k, w in self.mix))
        object.__setattr__(self, "ramp", tuple(int(m) for m in self.ramp))
        _check_weights("tenants", self.tenants)
        _check_weights("mix", self.mix)
        tenant_names = {name for name, _ in self.tenants}
        for key, _weight in self.mix:
            kind = key.rsplit(":", 1)[-1]
            if kind not in REQUEST_KINDS:
                raise ValueError(
                    f"traffic: mix kind {kind!r} unknown "
                    f"(choose from {', '.join(REQUEST_KINDS)})")
            if ":" in key and key.rsplit(":", 1)[0] not in tenant_names:
                raise ValueError(
                    f"traffic: mix entry {key!r} names an unknown tenant")
        if not self.ramp or any(m <= 0 for m in self.ramp):
            raise ValueError("traffic: ramp must be non-empty positive "
                             "multipliers")

    def mix_for(self, tenant: str) -> Tuple[Tuple[str, int], ...]:
        """The kind mix *tenant* draws from: tenant-scoped entries win
        over unscoped ones when any exist for this tenant."""
        scoped = tuple((key.rsplit(":", 1)[-1], weight)
                       for key, weight in self.mix
                       if key.startswith(tenant + ":"))
        if scoped:
            return scoped
        return tuple((key, weight) for key, weight in self.mix
                     if ":" not in key)

    def canonical(self) -> Dict:
        """Deterministic JSON-safe rendering: the cache-key contribution
        and the ``traffic`` echo in METRICS_slo.json.  ``rate`` must be
        resolved (non-zero) first — an auto rate is an input convenience,
        never an artifact value."""
        if self.rate == 0:
            raise ValueError("traffic: canonical() requires a resolved "
                             "rate (use resolve_rate first)")
        return {
            "requests": self.requests,
            "rate": self.rate,
            "arrival": self.arrival,
            "servers": self.servers,
            "connections": self.connections,
            "tenants": [list(t) for t in self.tenants],
            "mix": [list(m) for m in self.mix],
            "ramp": list(self.ramp),
            "queue_limit": self.queue_limit,
            "workers": self.workers,
            "calibration_requests": self.calibration_requests,
            "serve_mode": self.serve_mode,
            "slo_p99_ms": self.slo_p99_ms,
            "spans": self.spans,
            "exemplars": self.exemplars,
            "shed_exemplars": self.shed_exemplars,
        }

    @classmethod
    def from_dict(cls, doc: Dict) -> "TrafficConfig":
        """Inverse of :meth:`canonical` (also accepts partial dicts)."""
        kwargs = dict(doc)
        for key in ("tenants", "mix"):
            if key in kwargs:
                kwargs[key] = tuple((k, w) for k, w in kwargs[key])
        if "ramp" in kwargs:
            kwargs["ramp"] = tuple(kwargs["ramp"])
        return cls(**kwargs)

    def with_rate(self, rate: int) -> "TrafficConfig":
        """A copy with the auto rate resolved to a concrete value."""
        doc = {f: getattr(self, f) for f in self.__dataclass_fields__}
        doc["rate"] = rate
        return TrafficConfig(**doc)
