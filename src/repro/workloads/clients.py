"""Traffic sources: the wrk / redis-benchmark stand-ins behind one protocol.

Everything that pushes requests at a simulated server — the closed-loop
keep-alive driver the Table 6 macrobenchmarks use, the shadow harness's
lockstep mirror, and the open-loop admission driver of the traffic engine
(:mod:`repro.traffic.fleet`) — implements one protocol,
:class:`TrafficSource`:

- ``warmup(rounds)`` — un-measured rounds to steady state;
- ``drive(requests) -> DriveResult`` — the measured drive;
- ``exchange(limit) -> [response bytes | None, ...]`` — one batch with
  the raw response bytes surfaced (the mirroring seam);
- ``close()`` — shut the connections down cleanly.

All sources drive the simulated servers from host level over keep-alive
connections, mirroring the paper's same-machine setup where client cost is
off the measured (server-side) path.  Construct :class:`KeepAliveSource`
/ :class:`MirroredSource` directly, or use the :func:`wrk` /
:func:`redis_benchmark` factories.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, List, Optional

HTTP_REQUEST = (b"GET / HTTP/1.1\r\nHost: localhost\r\n"
                b"Connection: keep-alive\r\n\r\n")
REDIS_GET = b"*2\r\n$3\r\nGET\r\n$6\r\nkey:42\r\n"

@dataclass
class DriveResult:
    """Outcome of one measured drive.

    Attributes:
        requests: completed request/response round trips.
        cycles: simulated server-side cycles consumed during the drive.
        failures: requests that never produced a response.
    """

    requests: int
    cycles: int
    failures: int

    @property
    def cycles_per_request(self) -> float:
        return self.cycles / self.requests if self.requests else float("inf")


class TrafficSource(ABC):
    """The request-driver protocol every harness consumes.

    A source owns a set of host-level connections into one (or, for
    mirrored sources, a pair of) simulated kernels and exposes the
    four-call surface above.  ``exchange`` is the composition seam:
    anything that needs per-request visibility (the shadow mirror's
    byte comparison, the traffic engine's per-request latency capture)
    layers over it rather than over ``drive``.

    ``bind_trace`` is the trace-context seam: harnesses hand a source a
    recorder (a :class:`~repro.observability.spans.SpanFlightRecorder`
    or anything with ``record(dict)``) and the source feeds it one
    lightweight record per exchange batch entry.  Unbound (the default)
    costs one ``is None`` predicate per batch — the null-sink rule.
    """

    #: Bound trace recorder; None = tracing off (the default).
    trace = None

    def bind_trace(self, trace) -> None:
        """Attach a per-exchange trace recorder (None detaches)."""
        self.trace = trace

    @abstractmethod
    def warmup(self, rounds: int = 2) -> None:
        """Un-measured rounds: lets discovery-rewriters reach steady
        state and servers finish accepting, as the paper's 30-second
        runs do."""

    @abstractmethod
    def drive(self, requests: int) -> DriveResult:
        """Measured drive of *requests* total round trips."""

    @abstractmethod
    def exchange(self, limit: Optional[int] = None
                 ) -> List[Optional[bytes]]:
        """One request/response batch with the response bytes surfaced
        (None = the request never produced a response)."""

    @abstractmethod
    def close(self) -> None:
        """Close every connection and let the server observe the EOFs."""


class KeepAliveSource(TrafficSource):
    """Closed-loop keep-alive driver over N connections (wrk's model).

    Each round sends one request per connection, runs the server, and
    drains the responses — the Table 6 measurement loop.
    """

    def __init__(self, kernel, port: int, connections: int,
                 payload: bytes, steps_per_round: int = 400_000):
        self.kernel = kernel
        self.port = port
        self.payload = payload
        self.steps_per_round = steps_per_round
        self.connections = [kernel.net.connect(port)
                            for _ in range(connections)]
        self.failures = 0
        self._exchange_index = 0

    def warmup(self, rounds: int = 2) -> None:
        for _ in range(rounds):
            self._round()

    def drive(self, requests: int) -> DriveResult:
        start_cycles = self.kernel.cycles.cycles
        completed = 0
        stalled_rounds = 0
        while completed < requests:
            batch = min(len(self.connections), requests - completed)
            done = self._round(limit=batch)
            completed += done
            stalled_rounds = 0 if done else stalled_rounds + 1
            if stalled_rounds >= 5:
                # Server dead or wedged (e.g. killed by a torn rewrite).
                break
        return DriveResult(requests=completed,
                           cycles=self.kernel.cycles.cycles - start_cycles,
                           failures=self.failures)

    def exchange(self, limit: Optional[int] = None
                 ) -> List[Optional[bytes]]:
        """One request/response batch with the response bytes surfaced.

        Sends the payload on each active connection, runs the server,
        and returns the per-connection response bytes (None = the
        request never produced a response).  This is the mirroring seam:
        a :class:`MirroredSource` issues the same exchange on two
        kernels and compares these byte strings, which plain ``drive``
        collapses to done/failed counts.
        """
        active = self.connections if limit is None \
            else self.connections[:limit]
        start_cycles = self.kernel.cycles.cycles
        for connection in active:
            connection.client_send(self.payload)
        self.kernel.run(max_steps=self.steps_per_round)
        responses = [connection.client_recv_all() or None
                     for connection in active]
        if self.trace is not None:
            end_cycles = self.kernel.cycles.cycles
            for conn, response in enumerate(responses):
                self.trace.record({
                    "id": f"x-{self._exchange_index + conn}",
                    "conn": conn,
                    "start_cycles": start_cycles,
                    "end_cycles": end_cycles,
                    "ok": response is not None,
                    "bytes": len(response or b""),
                })
        self._exchange_index += len(responses)
        return responses

    def _round(self, limit: Optional[int] = None) -> int:
        """One batch: a request on each connection, then drain responses."""
        responses = self.exchange(limit)
        done = sum(1 for response in responses if response is not None)
        self.failures += len(responses) - done
        return done

    def close(self) -> None:
        for connection in self.connections:
            connection.client_close()
        self.kernel.run(max_steps=self.steps_per_round)


@dataclass
class MirrorMismatch:
    """One mirrored request whose shadow response differed.

    ``request`` is the global request index (across rounds and
    connections); byte payloads are summarized as lengths plus a short
    hex prefix — enough to render a report line without retaining every
    response body.
    """

    request: int
    connection: int
    primary_len: int
    shadow_len: int
    primary_prefix: str
    shadow_prefix: str

    def describe(self) -> str:
        return (f"request #{self.request} conn {self.connection}: "
                f"primary {self.primary_len}B [{self.primary_prefix}] != "
                f"shadow {self.shadow_len}B [{self.shadow_prefix}]")


def _prefix(data: Optional[bytes], length: int = 8) -> str:
    return "" if data is None else data[:length].hex()


class MirroredSource(TrafficSource):
    """Drive two kernels in lockstep: every request is mirrored.

    The *primary* source's responses are the real ones; the *shadow*
    source receives an identical copy of every request, its responses
    are compared byte-for-byte against the primary's and then discarded
    — the Shadow Request pattern.  Both sources must be configured
    with the same payload and connection count.

    ``on_mismatch`` (when given) is called with each
    :class:`MirrorMismatch` as it is detected, letting the shadow
    harness emit divergence events while the drive is still running.
    Accumulated mismatches stay readable on ``self.mismatches``.
    """

    def __init__(self, primary: KeepAliveSource, shadow: KeepAliveSource,
                 on_mismatch: Optional[Callable[[MirrorMismatch], None]]
                 = None):
        if len(primary.connections) != len(shadow.connections):
            raise ValueError("mirrored sources need identical "
                             "connection counts")
        if primary.payload != shadow.payload:
            raise ValueError("mirrored sources need identical payloads")
        self.primary = primary
        self.shadow = shadow
        self.on_mismatch = on_mismatch
        self.mismatches: List[MirrorMismatch] = []
        self._request_index = 0

    def bind_trace(self, trace) -> None:
        """Trace the *primary* side (the real responses); the shadow's
        exchanges are replicas and would double every record."""
        self.trace = trace
        self.primary.bind_trace(trace)

    def warmup(self, rounds: int = 2) -> None:
        """Un-measured, un-compared rounds on both sides."""
        for _ in range(rounds):
            self.primary.exchange()
            self.shadow.exchange()

    def exchange(self, limit: Optional[int] = None
                 ) -> List[Optional[bytes]]:
        """Mirror one batch; returns the *primary* responses (the real
        ones) after comparing the shadow's copy byte-for-byte."""
        primary_responses = self.primary.exchange(limit)
        shadow_responses = self.shadow.exchange(limit)
        for conn, (mine, theirs) in enumerate(zip(primary_responses,
                                                  shadow_responses)):
            if mine != theirs:
                mismatch = MirrorMismatch(
                    request=self._request_index + conn, connection=conn,
                    primary_len=len(mine or b""),
                    shadow_len=len(theirs or b""),
                    primary_prefix=_prefix(mine),
                    shadow_prefix=_prefix(theirs))
                self.mismatches.append(mismatch)
                if self.on_mismatch is not None:
                    self.on_mismatch(mismatch)
        self._request_index += len(primary_responses)
        return primary_responses

    def _mirror_round(self, limit: Optional[int] = None) -> int:
        responses = self.exchange(limit)
        done = sum(1 for response in responses if response is not None)
        self.primary.failures += len(responses) - done
        return done

    def drive(self, requests: int) -> DriveResult:
        """Mirror *requests* round trips; mismatches accumulate on
        ``self.mismatches`` as they are detected."""
        start_cycles = self.primary.kernel.cycles.cycles
        completed = 0
        stalled_rounds = 0
        while completed < requests:
            batch = min(len(self.primary.connections), requests - completed)
            done = self._mirror_round(limit=batch)
            completed += done
            stalled_rounds = 0 if done else stalled_rounds + 1
            if stalled_rounds >= 5:
                break
        return DriveResult(
            requests=completed,
            cycles=self.primary.kernel.cycles.cycles - start_cycles,
            failures=self.primary.failures)

    def close(self) -> None:
        self.primary.close()
        self.shadow.close()


def wrk(kernel, port: int, connections: int) -> KeepAliveSource:
    """The wrk stand-in (static HTTP GET, keep-alive)."""
    return KeepAliveSource(kernel, port, connections, HTTP_REQUEST)


def redis_benchmark(kernel, port: int, clients: int) -> KeepAliveSource:
    """The redis-benchmark stand-in (100 % GET)."""
    return KeepAliveSource(kernel, port, clients, REDIS_GET)
