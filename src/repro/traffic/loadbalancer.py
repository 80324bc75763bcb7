"""The simulated load balancer: queue-leveled, connection-sharded.

Model-mode heart of the traffic engine.  Arrivals (from the seeded
schedule) flow through a per-server *leveling queue* into a pool of
worker channels — the textbook queue-based-load-leveling shape — with
two production constraints the closed-loop harness never exercises:

- **connection serialization** — one outstanding request per
  connection (HTTP/1.1 keep-alive without pipelining): a request whose
  connection is busy waits client-side, and that wait *is* measured
  latency;
- **bounded queue** — past ``queue_limit`` the balancer sheds
  (503-style); shed counts per (stage, tenant, kind) feed the knee.

Everything is integer virtual nanoseconds driven by a two-source event
merge (arrivals column + completion heap, ``(time, seq)``-ordered), so
a server's simulation is a pure function of its arrival subsequence and
the calibrated service table — the property that makes ``--jobs``
sharding by server exact rather than approximate.

Service times come from the calibration pass
(:func:`repro.traffic.fleet.calibrate_service_table`): per-request-kind
cycles measured on a *real* interposed kernel, converted once to
nanoseconds.  The fabric never invents cost — it only schedules it.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Dict, List, Tuple

from repro.observability.analyzers.latency import LogHistogram

#: Queue-depth samples per server across the schedule span.
DEPTH_SAMPLES = 200


class ServerSim:
    """Discrete-event simulation of one fleet server.

    Feed arrivals in schedule order via :meth:`offer`, then
    :meth:`drain`; read the JSON-safe result from :meth:`result`.
    A request travels as ``(t_ns, (stage, tenant, kind), conn, index,
    service_ns)``: the tally key and the service time are looked up once,
    at arrival.
    """

    def __init__(self, server: int, workers: int, queue_limit: int,
                 service_ns: Dict[Tuple[int, int], int], stages: int,
                 sample_every_ns: int, trace=None):
        self.server = server
        self.workers = workers
        self.queue_limit = queue_limit
        self.service_ns = service_ns
        self.stages = stages
        self.sample_every_ns = max(1, sample_every_ns)
        #: Optional :class:`repro.observability.spans.TraceContext`;
        #: None keeps the hot path at one predicate per request.
        self.trace = trace
        # index -> [conn_wait_ns, queue_enter_ns (-1 = never queued),
        #           queue_wait_ns]; only populated when tracing.
        self._span_meta: Dict[int, List[int]] = {}

        self.free_workers = workers
        self.waiting: deque = deque()
        self.engaged: set = set()
        self.conn_pending: Dict[int, deque] = {}
        self.in_service: List[Tuple[int, int, Tuple]] = []  # heap
        self._seq = 0

        # (stage, tenant, kind) -> tallies / latency histograms (ns);
        # a histogram's count is the completed tally.
        self.offered: Dict[Tuple[int, int, int], int] = {}
        self.shed: Dict[Tuple[int, int, int], int] = {}
        self.latency: Dict[Tuple[int, int, int], LogHistogram] = {}
        self.stage_max_depth = [0] * stages
        self.depth_series: List[Tuple[int, int, int]] = []
        self._next_sample_ns = 0

    # ------------------------------------------------------------ events

    def offer(self, t_ns: int, stage: int, tenant: int, kind: int,
              conn: int, index: int = -1) -> None:
        """One arrival.  Must be called in non-decreasing ``t_ns``.
        *index* is the global schedule index — the span/exemplar
        identity; -1 (direct fabric use without a schedule) disables
        span capture for the request."""
        # Retire completions due by t_ns first (completion-first at
        # ties: a worker freed at t serves an arrival at t).
        in_service = self.in_service
        while in_service and in_service[0][0] <= t_ns:
            self._complete_next()
        if self._next_sample_ns <= t_ns:
            self._sample(t_ns)
        key = (stage, tenant, kind)
        offered = self.offered
        offered[key] = offered.get(key, 0) + 1
        request = (t_ns, key, conn, index, self.service_ns[(tenant, kind)])
        if self.trace is not None and index >= 0:
            self._span_meta[index] = [0, -1, 0]
        if conn in self.engaged:
            pending = self.conn_pending.get(conn)
            if pending is None:
                pending = self.conn_pending[conn] = deque()
            pending.append(request)
            return
        self._admit(request, t_ns)

    def drain(self) -> None:
        """Run every queued/in-service request to completion."""
        while self.in_service:
            self._complete_next()

    # ---------------------------------------------------------- internals

    def _admit(self, request: Tuple, now: int) -> bool:
        """Place *request*; returns False when it was shed (callers own
        any connection release so shed chains stay iterative)."""
        t_ns, key, conn, index, _service = request
        meta = None
        if self.trace is not None and index >= 0:
            meta = self._span_meta[index]
            # The time between arrival and admission is spent waiting
            # for this connection's previous request (keep-alive
            # serialization); 0 when the connection was free.
            meta[0] = now - t_ns
        if self.free_workers:
            self.engaged.add(conn)
            self._start(request, now)
            return True
        waiting = self.waiting
        if len(waiting) >= self.queue_limit:
            self.shed[key] = self.shed.get(key, 0) + 1
            if meta is not None:
                stage, tenant, kind = key
                self._span_meta.pop(index, None)
                self.trace.record(
                    index=index, conn=conn, stage=stage, tenant=tenant,
                    kind=kind, arrival_ns=t_ns, latency_ns=now - t_ns,
                    conn_wait_ns=meta[0], shed=True)
            return False
        self.engaged.add(conn)
        waiting.append(request)
        if meta is not None:
            meta[1] = now
        depth = len(waiting)
        if depth > self.stage_max_depth[key[0]]:
            self.stage_max_depth[key[0]] = depth
        return True

    def _start(self, request: Tuple, now: int) -> None:
        _t, _key, _conn, index, service = request
        if self.trace is not None and index >= 0:
            meta = self._span_meta[index]
            if meta[1] >= 0:
                meta[2] = now - meta[1]
        self.free_workers -= 1
        self._seq += 1
        heapq.heappush(self.in_service, (now + service, self._seq, request))

    def _complete_next(self) -> None:
        done_t, _seq, request = heapq.heappop(self.in_service)
        t_ns, key, conn, index, _service = request
        if self._next_sample_ns <= done_t:
            self._sample(done_t)
        self.free_workers += 1
        hist = self.latency.get(key)
        if hist is None:
            hist = self.latency[key] = LogHistogram()
        hist.record(done_t - t_ns)
        if self.trace is not None and index >= 0:
            stage, tenant, kind = key
            meta = self._span_meta.pop(index)
            self.trace.record(
                index=index, conn=conn, stage=stage, tenant=tenant,
                kind=kind, arrival_ns=t_ns, latency_ns=done_t - t_ns,
                conn_wait_ns=meta[0], queue_ns=meta[2])
        # Fixed post-completion order: next waiting request first (the
        # worker just freed takes it), then the finished connection's
        # next pipelined request.
        if self.waiting:
            self._start(self.waiting.popleft(), done_t)
        self.engaged.discard(conn)
        if self.conn_pending:
            self._release_conn(conn, done_t)

    def _release_conn(self, conn: int, now: int) -> None:
        pending = self.conn_pending.get(conn)
        while pending:
            request = pending.popleft()
            if not pending:
                del self.conn_pending[conn]
                pending = None
            if self._admit(request, now):
                return

    def _sample(self, t_ns: int) -> None:
        while self._next_sample_ns <= t_ns:
            self.depth_series.append((self._next_sample_ns,
                                      len(self.waiting),
                                      self.workers - self.free_workers))
            self._next_sample_ns += self.sample_every_ns

    # ------------------------------------------------------------- output

    def result(self) -> Dict:
        """JSON-safe shard result for this server; merged by the engine
        with plain integer sums + histogram merges."""
        completed = {key: hist.count for key, hist in self.latency.items()}
        return server_result_doc(self.server, self.offered, completed,
                                 self.shed, self.latency,
                                 self.stage_max_depth, self.depth_series)


def server_result_doc(server: int, offered, completed, shed, latency,
                      stage_max_depth, depth_series) -> Dict:
    """The per-server shard-result shape — shared by the model fabric
    and the full-serve fleet driver so the merge never cares which mode
    produced a doc.  Tally keys are ``"stage:tenant:kind"`` strings."""
    def keyed(table: Dict[Tuple[int, int, int], int]) -> Dict[str, int]:
        return {f"{s}:{t}:{k}": n for (s, t, k), n in sorted(table.items())}

    return {
        "server": server,
        "offered": keyed(offered),
        "completed": keyed(completed),
        "shed": keyed(shed),
        "latency": {f"{s}:{t}:{k}": hist.to_dict()
                    for (s, t, k), hist in sorted(latency.items())},
        "stage_max_depth": list(stage_max_depth),
        "depth_series": [list(sample) for sample in depth_series],
    }


def simulate_server(server: int, schedule, service_ns, workers: int,
                    queue_limit: int, trace=None) -> Dict:
    """Run one server's arrivals through the fabric and return its
    shard result.  *schedule* is an ArrivalSchedule; only requests whose
    connection shards to *server* are offered, stage by stage.  *trace*
    (a :class:`repro.observability.spans.TraceContext`) enables
    per-request span capture."""
    span = max(1, schedule.span_ns())
    sim = ServerSim(server=server, workers=workers, queue_limit=queue_limit,
                    service_ns=service_ns, stages=len(schedule.config.ramp),
                    sample_every_ns=span // DEPTH_SAMPLES or 1, trace=trace)
    t_col, tenant_col = schedule.t_ns, schedule.tenant
    kind_col, conn_col = schedule.kind, schedule.conn
    offer = sim.offer
    for stage, indices in enumerate(schedule.server_stages(server)):
        for index in indices:
            offer(t_col[index], stage, tenant_col[index], kind_col[index],
                  conn_col[index], index)
    sim.drain()
    return sim.result()
