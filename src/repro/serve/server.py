"""The resident planning daemon: an asyncio server over the warm runtime.

``python -m repro serve`` keeps one process alive between requests so no
client ever pays cold-start: a warm :class:`~repro.runtime.pool.PlannerPool`
(worker processes with per-digest instance caches and a shared-memory
arena), one :class:`~repro.runtime.store.ResultStore`, and one metrics
registry serve every connection.  Clients speak the NDJSON protocol of
:mod:`repro.serve.protocol` over a Unix socket or localhost TCP.

The server's three load-bearing behaviours:

* **Coalescing** — work is keyed by the content-hash job id, so identical
  concurrent requests share one :class:`Flight`: the first request
  computes, duplicates attach as extra waiters and receive the same
  result frame (``serve_requests_total{outcome="coalesced"}``); identical
  *later* requests are answered straight from the result store
  (``outcome="store_hit"``).  Exactly one pool execution per distinct job,
  ever, no matter the client arrival pattern.
* **Admission control** — each client has a bounded queue inside a
  :class:`~repro.serve.queues.FairQueue`; pushes beyond the bound are
  rejected with ``queue_full``, and the pump drains clients round-robin
  into at most ``max_inflight`` concurrent pool executions, so a flooding
  client can neither exhaust memory nor starve its neighbours.
* **Event fan-out** — every flight keeps a bounded replay buffer of its
  relayed :class:`~repro.events.PlanEvent` stream and any number of
  subscriber :class:`EventChannel` s; a slow consumer buffers up to
  ``event_buffer`` events and then loses the *oldest* ones
  (``serve_subscriber_events_total{outcome="dropped"}``) instead of
  back-pressuring the planner or its fellow subscribers.

Lifecycle: SIGTERM / SIGINT (or the ``shutdown`` verb) starts a graceful
drain — stop admitting, let queued + running flights finish within
``drain_grace`` seconds, then escalate through the pool's soft-cancel /
terminate ladder — and ends with the telemetry flush: an optional store
prune, a metrics snapshot written to ``metrics_out``, and a full pool +
arena teardown that leaves no orphaned workers or ``/dev/shm`` segments.

Threading model: the event loop owns every data structure in this module
(flights, queues, channels).  Blocking work — pool dispatch + collect,
store writes, portfolio races — runs on a small ``ThreadPoolExecutor``;
the only thread → loop crossings are ``call_soon_threadsafe`` hops (event
routing, ready/shutdown signalling), and the only loop → thread state
shared is the dispatch lock serialising arena exports.
"""

from __future__ import annotations

import asyncio
import os
import secrets
import socket as socketlib
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.api.lifecycle import PlanRequest, PlanResult
from repro.errors import ValidationError
from repro.events import PlanEvent
from repro.obs import metrics as obs_metrics
from repro.runtime.jobs import JobResult, PlannerSpec
from repro.runtime.pool import CANCEL_GRACE, EventRelay, PlannerPool
from repro.runtime.store import ResultStore
from repro.serve.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    encode_frame,
    decode_frame,
    error_frame,
    response_frame,
)
from repro.serve.queues import FairQueue, QueueFullError

__all__ = ["ServeConfig", "PlanServer", "ServerHandle", "start_in_thread"]

#: Seconds the server waits after a flight's result for a straggling
#: ``finished`` event before force-closing its subscriber channels (covers
#: failure paths that emit no events at all: descriptor rebuild errors,
#: broken pools, drain cancellations).
_CHANNEL_SETTLE = 0.5

_REQUESTS = obs_metrics.declare_counter(
    "serve_requests_total",
    "Planning requests handled by the serve daemon, by how they resolved",
    ("verb", "outcome"),
)
_CONNECTIONS = obs_metrics.declare_gauge(
    "serve_connections", "Currently connected serve clients"
)
_CONNECTIONS_TOTAL = obs_metrics.declare_counter(
    "serve_connections_total", "Client connections accepted by the serve daemon"
)
_INFLIGHT = obs_metrics.declare_gauge(
    "serve_inflight_jobs", "Flights currently executing on the serve pool"
)
_QUEUE_DEPTH = obs_metrics.declare_gauge(
    "serve_queue_depth", "Admitted flights waiting for a pool slot"
)
_SUB_EVENTS = obs_metrics.declare_counter(
    "serve_subscriber_events_total",
    "Plan events fanned out to serve subscribers",
    ("outcome",),
)
_REQUEST_SECONDS = obs_metrics.declare_histogram(
    "serve_request_seconds", "Wall seconds per serve request", ("verb",)
)


@dataclass
class ServeConfig:
    """Tunables of one :class:`PlanServer` (see ``docs/SERVING.md``)."""

    #: Exactly one of ``socket`` (a Unix socket path) or ``port`` must be
    #: set; ``port=0`` binds an ephemeral localhost port (read it back from
    #: :attr:`PlanServer.address`).
    socket: str | None = None
    host: str = "127.0.0.1"
    port: int | None = None
    #: Worker processes of the warm planning pool.
    workers: int = 1
    #: Global cap on concurrently executing flights (pool slots).
    max_inflight: int = 2
    #: Bound of each client's admission queue (beyond it: ``queue_full``).
    per_client_queue: int = 16
    #: Per-subscriber event buffer; overflow drops the oldest events.
    event_buffer: int = 256
    #: Seconds a drain lets queued + running flights finish before the
    #: escalating cancellation ladder kicks in.
    drain_grace: float = 10.0
    #: Result store (``cache=False`` disables it entirely).
    cache: bool = True
    cache_dir: str | None = None
    #: When set, the drain prunes the store to this byte budget (LRU).
    prune_bytes: int | None = None
    #: When set, the drain writes the registry snapshot here (JSON).
    metrics_out: str | None = None
    #: When set, flights execute over the durable broker spool at this
    #: directory instead of an in-process pool: ``workers`` becomes the
    #: number of ``eblow worker`` subprocesses the daemon owns (0 = rely on
    #: externally launched workers attached to the same spool).  Live event
    #: streams do not cross the spool, so ``subscribe`` delivers no events
    #: for broker-served flights.
    broker: str | None = None
    broker_queue: str = "default"

    def __post_init__(self) -> None:
        if (self.socket is None) == (self.port is None):
            raise ValidationError("ServeConfig needs exactly one of socket= or port=")
        if self.max_inflight < 1:
            raise ValidationError(f"max_inflight must be >= 1, got {self.max_inflight}")


class EventChannel:
    """One subscriber's buffered view of a flight's event stream.

    ``publish`` never blocks: the deque's ``maxlen`` drops the oldest
    buffered event on overflow (counted, surfaced on the terminal frame as
    ``dropped``).  ``async for`` yields events until :meth:`close`.
    """

    def __init__(self, buffer: int) -> None:
        self._items: deque[PlanEvent] = deque(maxlen=max(1, buffer))
        self._wake = asyncio.Event()
        self._closed = False
        self.dropped = 0

    def publish(self, event: PlanEvent) -> None:
        if self._closed:
            return
        if len(self._items) == self._items.maxlen:
            self.dropped += 1
            _SUB_EVENTS.inc(outcome="dropped")
        self._items.append(event)
        self._wake.set()

    def close(self) -> None:
        self._closed = True
        self._wake.set()

    def __aiter__(self) -> "EventChannel":
        return self

    async def __anext__(self) -> PlanEvent:
        while True:
            if self._items:
                return self._items.popleft()
            if self._closed:
                raise StopAsyncIteration
            self._wake.clear()
            await self._wake.wait()


class Flight:
    """One admitted unit of work and everyone attached to it.

    For ``plan`` requests the flight is keyed by the content-hash job id —
    that key is what makes coalescing correct: every request that maps to
    the same id attaches to the same flight.  ``portfolio`` requests get a
    synthetic per-request key (races are not content-addressed).
    """

    __slots__ = (
        "key", "kind", "job", "run", "done", "state",
        "waiters", "channels", "events", "saw_finished", "finished",
    )

    def __init__(self, key: str, kind: str, run: Callable, done: asyncio.Future,
                 event_buffer: int, job=None) -> None:
        self.key = key
        self.kind = kind  # "plan" | "portfolio"
        self.job = job
        self.run = run  # blocking callable, executed on the compute executor
        self.done = done
        self.state = "queued"  # queued | running | done
        self.waiters = 0
        self.channels: set[EventChannel] = set()
        self.events: deque[PlanEvent] = deque(maxlen=max(1, event_buffer))
        self.saw_finished = False
        self.finished = False

    @property
    def abandoned(self) -> bool:
        """Queued with nobody left listening — the pump skips it."""
        return self.waiters <= 0 and not self.channels


class _Connection:
    """Per-client write half: serialized frame writes + identity."""

    def __init__(self, client: str, writer: asyncio.StreamWriter) -> None:
        self.client = client
        self._writer = writer
        self._lock = asyncio.Lock()

    async def send(self, frame: Mapping) -> None:
        async with self._lock:
            self._writer.write(encode_frame(frame))
            await self._writer.drain()

    def close(self) -> None:
        try:
            self._writer.close()
        except Exception:  # noqa: BLE001 — transport already torn down
            pass


class PlanServer:
    """The daemon: accept NDJSON connections, multiplex them onto one pool."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        #: Bound address once listening: the socket path, or ``(host, port)``
        #: with the actual ephemeral port filled in.
        self.address: object | None = None
        #: Optional callback invoked (in the loop) once the server listens.
        self.on_ready: Callable[[object], None] | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pool: PlannerPool | None = None
        self._aux_pools: set[PlannerPool] = set()
        self._scheduler = None  # BrokerScheduler when config.broker is set
        self._relay: EventRelay | None = None
        self._compute: ThreadPoolExecutor | None = None
        self._store: ResultStore | None = None
        self._dispatch_lock = threading.Lock()
        self._queue = FairQueue(per_client=config.per_client_queue)
        self._flights: dict[str, Flight] = {}
        self._connections: dict[str, _Connection] = {}
        self._running = 0
        self._draining = False
        self._shutdown_event: asyncio.Event | None = None
        self._started = time.monotonic()
        self._next_client = 0
        self._counts = {k: 0 for k in ("computed", "coalesced", "store_hit", "rejected", "error")}
        self._store_probes = 0
        self._store_hits = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    async def run(self) -> None:
        """Serve until a shutdown signal, then drain and flush. Blocks."""
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._started = time.monotonic()
        self._shutdown_event = asyncio.Event()
        registry = obs_metrics.MetricsRegistry()
        previous = obs_metrics.installed()
        obs_metrics.install(registry)
        self._store = (
            ResultStore(self.config.cache_dir) if self.config.cache else None
        )
        if self.config.broker is not None:
            # Broker mode: flights ride the durable spool, served by worker
            # subprocesses — no in-process pool (and no live event relay;
            # events do not cross the spool).
            from repro.dist import BrokerConfig, BrokerScheduler

            self._scheduler = BrokerScheduler(
                self.config.broker,
                queue=self.config.broker_queue,
                config=BrokerConfig(
                    store_dir=str(self._store.root) if self._store is not None else None
                ),
                workers=max(0, self.config.workers),
            )
        else:
            self._pool = PlannerPool(max_workers=self.config.workers)
            self._relay = EventRelay(self._on_relay_event)
        self._compute = ThreadPoolExecutor(
            max_workers=self.config.max_inflight + 1, thread_name_prefix="serve-compute"
        )
        import signal as _signal

        handled_signals = []
        for signum in (_signal.SIGTERM, _signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_shutdown)
                handled_signals.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or restricted platform
        try:
            if self.config.socket is not None:
                path = self.config.socket
                if os.path.exists(path):
                    os.unlink(path)  # stale socket from a previous run
                self._server = await asyncio.start_unix_server(
                    self._handle_connection, sock=_listening_unix_socket(path),
                    limit=MAX_FRAME_BYTES,
                )
                self.address = path
            else:
                self._server = await asyncio.start_server(
                    self._handle_connection,
                    host=self.config.host,
                    port=self.config.port,
                    limit=MAX_FRAME_BYTES,
                )
                bound = self._server.sockets[0].getsockname()
                self.address = (bound[0], bound[1])
            if self.on_ready is not None:
                self.on_ready(self.address)
            await self._shutdown_event.wait()
            await self._drain()
        finally:
            await self._teardown(registry)
            for signum in handled_signals:
                try:
                    loop.remove_signal_handler(signum)
                except (NotImplementedError, RuntimeError, ValueError):
                    pass
            obs_metrics.uninstall()
            if previous is not None:
                obs_metrics.install(previous)

    def request_shutdown(self) -> None:
        """Begin a graceful drain (idempotent; safe from the loop thread)."""
        if self._shutdown_event is not None and not self._shutdown_event.is_set():
            # Stop admitting immediately: requests dispatched between this
            # ack and the drain loop taking over must already see rejection.
            self._draining = True
            self._shutdown_event.set()

    def request_shutdown_threadsafe(self) -> None:
        """Begin a graceful drain from any thread."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self.request_shutdown)
        except RuntimeError:
            pass

    async def _drain(self) -> None:
        """Stop admitting, let in-flight work finish, escalate past the grace."""
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        deadline = time.monotonic() + max(0.0, self.config.drain_grace)
        while (self._queue or self._running) and time.monotonic() < deadline:
            await asyncio.sleep(0.05)
        if self._queue or self._running:
            # Grace expired: fail whatever never ran, soft-cancel the rest,
            # and escalate to pool teardown so stuck collects unblock.
            while self._queue:
                flight = self._queue.pop()
                self._flights.pop(flight.key, None)
                if not flight.done.done():
                    flight.done.set_result(self._drain_result(flight))
                self._finish_flight(flight)
            _QUEUE_DEPTH.set(0)
            for pool in [self._pool, *self._aux_pools]:
                if pool is not None:
                    pool.cancel_running()
            settle = time.monotonic() + CANCEL_GRACE
            while self._running and time.monotonic() < settle:
                await asyncio.sleep(0.05)
            if self._running:
                for pool in [self._pool, *self._aux_pools]:
                    if pool is not None:
                        pool.abandon_running()
                        pool.shutdown(wait=False)
            while self._running:
                await asyncio.sleep(0.05)
        # Let waiter tasks write their final result frames before teardown.
        await asyncio.sleep(0.05)

    @staticmethod
    def _drain_result(flight: Flight):
        if flight.kind == "portfolio":
            from repro.runtime.portfolio import PortfolioOutcome

            return PortfolioOutcome(winner=None)
        job = flight.job
        return JobResult(
            job_id=job.job_id,
            case=job.case_name,
            label=job.display_label,
            planner=job.spec.planner,
            status="cancelled",
            error="server drained before the job ran",
        )

    async def _teardown(self, registry) -> None:
        loop = asyncio.get_running_loop()
        if self._compute is not None:
            await loop.run_in_executor(None, lambda: self._compute.shutdown(wait=True))
        for pool in [self._pool, *self._aux_pools]:
            if pool is not None:
                await loop.run_in_executor(None, pool.shutdown)
        self._aux_pools.clear()
        if self._scheduler is not None:
            await loop.run_in_executor(None, self._scheduler.close)
        if self._relay is not None:
            await loop.run_in_executor(None, self._relay.close)
        if self._store is not None and self.config.prune_bytes is not None:
            try:
                self._store.prune(self.config.prune_bytes)
            except Exception:  # noqa: BLE001 — pruning must never fail shutdown
                pass
        if self.config.metrics_out:
            from repro.obs.export import write_snapshot

            try:
                write_snapshot(registry.snapshot(), self.config.metrics_out)
            except Exception:  # noqa: BLE001
                pass
        for conn in list(self._connections.values()):
            conn.close()
        self._connections.clear()
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except Exception:  # noqa: BLE001
                pass
        if self.config.socket is not None:
            try:
                os.unlink(self.config.socket)
            except OSError:
                pass

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._next_client += 1
        client = f"c{self._next_client}"
        conn = _Connection(client, writer)
        self._connections[client] = conn
        _CONNECTIONS.set(len(self._connections))
        _CONNECTIONS_TOTAL.inc()
        tasks: set[asyncio.Task] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    # Oversized line: the stream lost frame sync, bail out.
                    await conn.send(error_frame(
                        None, "protocol",
                        f"frame exceeds the {MAX_FRAME_BYTES}-byte bound",
                    ))
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    frame = decode_frame(line)
                except ProtocolError as exc:
                    await conn.send(error_frame(None, "protocol", str(exc)))
                    continue
                task = asyncio.create_task(self._dispatch(conn, frame))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            # Loop shutdown cancelled us mid-readline (teardown has already
            # run).  Exit normally: a task left in the cancelled state trips
            # the stream protocol's done-callback into logging a spurious
            # "Exception in callback" traceback at interpreter exit.
            pass
        finally:
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            self._connections.pop(client, None)
            _CONNECTIONS.set(len(self._connections))
            conn.close()

    async def _dispatch(self, conn: _Connection, frame: Mapping) -> None:
        verb = frame.get("verb")
        rid = frame.get("id")
        started = time.monotonic()
        try:
            handler = {
                "plan": self._handle_plan,
                "batch": self._handle_batch,
                "portfolio": self._handle_portfolio,
                "subscribe": self._handle_subscribe,
                "status": self._handle_status,
                "shutdown": self._handle_shutdown,
            }.get(verb)
            if handler is None:
                await conn.send(error_frame(rid, "unknown_verb", f"unknown verb {verb!r}"))
                return
            await handler(conn, frame)
        except asyncio.CancelledError:
            raise
        except (ConnectionError, BrokenPipeError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 — one bad request must not kill the daemon
            try:
                await conn.send(
                    error_frame(rid, "internal", f"{type(exc).__name__}: {exc}")
                )
            except Exception:  # noqa: BLE001
                pass
        finally:
            _REQUEST_SECONDS.observe(time.monotonic() - started, verb=str(verb))

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def _count(self, verb: str, outcome: str) -> None:
        self._counts[outcome] = self._counts.get(outcome, 0) + 1
        _REQUESTS.inc(verb=verb, outcome=outcome)

    async def _handle_plan(self, conn: _Connection, frame: Mapping) -> None:
        await self._serve_plan(conn, frame.get("id"), frame.get("request"),
                               want_events=bool(frame.get("events")))

    async def _serve_plan(
        self,
        conn: _Connection,
        rid,
        payload,
        want_events: bool,
        index: int | None = None,
        verb: str = "plan",
    ) -> str:
        """The shared plan path (``plan`` and each ``batch`` element).

        Returns the terminal status string (``ok`` / ``error`` / ... /
        ``rejected``) for the batch summary.
        """
        extra = {} if index is None else {"index": index}
        try:
            if not isinstance(payload, Mapping):
                raise ValidationError("missing or malformed 'request' object")
            request = PlanRequest.from_dict(payload).validated()
            job = request.to_job()
        except Exception as exc:  # noqa: BLE001 — anything wrong with the payload
            self._count(verb, "error")
            await conn.send(error_frame(rid, "bad_request", f"{type(exc).__name__}: {exc}") | extra)
            return "rejected"
        if self._draining:
            self._count(verb, "rejected")
            await conn.send(error_frame(rid, "draining", "server is draining") | extra)
            return "rejected"
        if self._store is not None:
            self._store_probes += 1
            cached = self._store.get(job)
            if cached is not None:
                self._store_hits += 1
                self._count(verb, "store_hit")
                result = PlanResult.from_job_result(cached, timeout=request.timeout)
                await conn.send(response_frame(
                    rid, "ack", job_id=job.job_id, state="done", outcome="store_hit", **extra
                ))
                await conn.send(response_frame(
                    rid, "result", outcome="store_hit", result=result.to_dict(), **extra
                ))
                return result.status
        flight = self._flights.get(job.job_id)
        if flight is not None:
            outcome = "coalesced"
            flight.waiters += 1
        else:
            flight = Flight(
                key=job.job_id,
                kind="plan",
                run=None,
                done=self._loop.create_future(),
                event_buffer=self.config.event_buffer,
                job=job,
            )
            flight.run = lambda flight=flight: self._compute_plan(flight)
            # Count this waiter before the pump sees the flight: a flight
            # with no waiters and no subscribers is "abandoned" and skipped.
            flight.waiters = 1
            try:
                self._queue.push(conn.client, flight)
            except QueueFullError as exc:
                self._count(verb, "rejected")
                await conn.send(error_frame(rid, "queue_full", str(exc)) | extra)
                return "rejected"
            self._flights[job.job_id] = flight
            _QUEUE_DEPTH.set(len(self._queue))
            outcome = "computed"
            self._pump()
        self._count(verb, outcome)
        channel: EventChannel | None = None
        if want_events:
            channel = EventChannel(self.config.event_buffer)
            for event in flight.events:
                channel.publish(event)
            if flight.finished:
                channel.close()
            else:
                flight.channels.add(channel)
        try:
            await conn.send(response_frame(
                rid, "ack", job_id=job.job_id, state=flight.state, outcome=outcome, **extra
            ))
            if channel is not None:
                async for event in channel:
                    _SUB_EVENTS.inc(outcome="delivered")
                    await conn.send(response_frame(rid, "event", event=event.to_dict(), **extra))
            result = await asyncio.shield(flight.done)
        finally:
            flight.waiters -= 1
            if channel is not None:
                flight.channels.discard(channel)
        plan_result = PlanResult.from_job_result(result, timeout=request.timeout)
        await conn.send(response_frame(
            rid, "result", outcome=outcome, result=plan_result.to_dict(), **extra
        ))
        return plan_result.status

    async def _handle_batch(self, conn: _Connection, frame: Mapping) -> None:
        rid = frame.get("id")
        requests = frame.get("requests")
        if not isinstance(requests, list) or not requests:
            self._count("batch", "error")
            await conn.send(error_frame(rid, "bad_request", "'requests' must be a non-empty list"))
            return
        want_events = bool(frame.get("events"))
        statuses = await asyncio.gather(*(
            self._serve_plan(conn, rid, payload, want_events, index=index, verb="batch")
            for index, payload in enumerate(requests)
        ))
        summary: dict[str, int] = {}
        for status in statuses:
            summary[status] = summary.get(status, 0) + 1
        await conn.send(response_frame(
            rid, "done", total=len(statuses),
            ok=summary.get("ok", 0), statuses=summary,
        ))

    async def _handle_portfolio(self, conn: _Connection, frame: Mapping) -> None:
        rid = frame.get("id")
        if self._draining:
            self._count("portfolio", "rejected")
            await conn.send(error_frame(rid, "draining", "server is draining"))
            return
        try:
            params = self._portfolio_params(frame)
        except Exception as exc:  # noqa: BLE001
            self._count("portfolio", "error")
            await conn.send(error_frame(rid, "bad_request", f"{type(exc).__name__}: {exc}"))
            return
        key = f"portfolio:{conn.client}:{rid}"
        flight = Flight(
            key=key,
            kind="portfolio",
            run=None,
            done=self._loop.create_future(),
            event_buffer=self.config.event_buffer,
        )
        flight.run = lambda: self._run_portfolio(flight, params)
        flight.waiters = 1  # counted before the pump can see the flight
        try:
            self._queue.push(conn.client, flight)
        except QueueFullError as exc:
            self._count("portfolio", "rejected")
            await conn.send(error_frame(rid, "queue_full", str(exc)))
            return
        self._flights[key] = flight
        _QUEUE_DEPTH.set(len(self._queue))
        self._count("portfolio", "computed")
        self._pump()
        channel: EventChannel | None = None
        if frame.get("events"):
            channel = EventChannel(self.config.event_buffer)
            flight.channels.add(channel)
        try:
            await conn.send(response_frame(
                rid, "ack", job_id=key, state=flight.state, outcome="computed"
            ))
            if channel is not None:
                async for event in channel:
                    _SUB_EVENTS.inc(outcome="delivered")
                    await conn.send(response_frame(rid, "event", event=event.to_dict()))
            outcome = await asyncio.shield(flight.done)
        finally:
            flight.waiters -= 1
            if channel is not None:
                flight.channels.discard(channel)
        await conn.send(response_frame(
            rid, "result", outcome="computed", portfolio={
                "ok": outcome.ok,
                "wall_seconds": outcome.wall_seconds,
                "cancelled": list(outcome.cancelled),
                "winner": outcome.winner.to_dict() if outcome.winner is not None else None,
                "results": [r.to_dict() for r in outcome.results],
            },
        ))

    @staticmethod
    def _portfolio_params(frame: Mapping) -> dict:
        entries_raw = frame.get("entries")
        if not isinstance(entries_raw, Mapping) or not entries_raw:
            raise ValidationError("'entries' must be a non-empty {label: planner} object")
        entries = {}
        for label, value in entries_raw.items():
            if isinstance(value, Mapping):
                entries[label] = PlannerSpec(value["planner"], dict(value.get("options", {})))
            else:
                entries[label] = PlannerSpec(str(value))
        case = frame.get("case")
        instance = frame.get("instance")
        if (case is None) == (instance is None):
            raise ValidationError("portfolio needs exactly one of 'case' or 'instance'")
        if instance is not None:
            from repro.model import OSPInstance

            target = OSPInstance.from_dict(instance)
        else:
            target = case
        return {
            "target": target,
            "entries": entries,
            "scale": frame.get("scale"),
            "timeout": frame.get("timeout"),
            "budget": frame.get("budget"),
            "goal": frame.get("target"),
            "straggler_grace": frame.get("straggler_grace"),
            "workers": frame.get("jobs"),
        }

    async def _handle_subscribe(self, conn: _Connection, frame: Mapping) -> None:
        rid = frame.get("id")
        job_id = frame.get("job_id")
        flight = self._flights.get(job_id) if isinstance(job_id, str) else None
        if flight is None:
            await conn.send(error_frame(
                rid, "unknown_job", f"no queued or running job {job_id!r}"
            ))
            return
        channel = EventChannel(self.config.event_buffer)
        for event in flight.events:
            channel.publish(event)
        if flight.finished:
            channel.close()
        else:
            flight.channels.add(channel)
        await conn.send(response_frame(rid, "ack", job_id=flight.key, state=flight.state))
        try:
            async for event in channel:
                _SUB_EVENTS.inc(outcome="delivered")
                await conn.send(response_frame(rid, "event", event=event.to_dict()))
        finally:
            flight.channels.discard(channel)
        status = None
        if flight.done.done():
            result = flight.done.result()
            status = getattr(result, "status", None)
            if status is None:
                status = "ok" if result.ok else "error"
        await conn.send(response_frame(
            rid, "done", job_id=flight.key, state=flight.state,
            status=status, dropped=channel.dropped,
        ))

    async def _handle_status(self, conn: _Connection, frame: Mapping) -> None:
        pool = self._pool
        store_stats = {
            "enabled": self._store is not None,
            "probes": self._store_probes,
            "hits": self._store_hits,
            "hit_rate": (self._store_hits / self._store_probes) if self._store_probes else 0.0,
        }
        await conn.send(response_frame(
            frame.get("id"), "status",
            uptime_seconds=time.monotonic() - self._started,
            draining=self._draining,
            connections=len(self._connections),
            inflight=self._running,
            queued=len(self._queue),
            queue_depths=self._queue.depths(),
            flights={
                flight.key: {
                    "kind": flight.kind,
                    "state": flight.state,
                    "waiters": flight.waiters,
                    "subscribers": len(flight.channels),
                }
                for flight in self._flights.values()
            },
            requests=dict(self._counts),
            store=store_stats,
            pool={
                "workers": self.config.workers,
                "max_inflight": self.config.max_inflight,
                "breaks": pool.break_count if pool is not None else 0,
            },
        ))

    async def _handle_shutdown(self, conn: _Connection, frame: Mapping) -> None:
        await conn.send(response_frame(frame.get("id"), "ack", draining=True))
        self.request_shutdown()

    # ------------------------------------------------------------------ #
    # Admission pump + compute
    # ------------------------------------------------------------------ #
    def _pump(self) -> None:
        """Admit queued flights into free pool slots (round-robin)."""
        while self._running < self.config.max_inflight and self._queue:
            flight = self._queue.pop()
            _QUEUE_DEPTH.set(len(self._queue))
            if flight.abandoned:
                self._flights.pop(flight.key, None)
                continue
            flight.state = "running"
            self._running += 1
            _INFLIGHT.set(self._running)
            future = self._loop.run_in_executor(self._compute, flight.run)
            future.add_done_callback(
                lambda f, flight=flight: self._on_flight_done(flight, f)
            )

    def _on_flight_done(self, flight: Flight, future) -> None:
        self._running -= 1
        _INFLIGHT.set(self._running)
        flight.state = "done"
        try:
            result = future.result()
        except Exception as exc:  # noqa: BLE001 — compute wrapper itself failed
            result = self._drain_result(flight)
            if flight.kind == "plan":
                result.status = "error"
                result.error = f"serve execution failed: {type(exc).__name__}: {exc}"
        if not flight.done.done():
            flight.done.set_result(result)
        if flight.saw_finished or flight.kind == "portfolio" or not flight.channels:
            # Portfolio event callbacks stop when run_portfolio returns, and
            # a channelless flight has nothing to settle.
            self._finish_flight(flight)
        else:
            self._loop.call_later(_CHANNEL_SETTLE, self._finish_flight, flight)
        self._pump()

    def _finish_flight(self, flight: Flight) -> None:
        if flight.finished:
            return
        flight.finished = True
        for channel in list(flight.channels):
            channel.close()
        self._flights.pop(flight.key, None)

    def _compute_plan(self, flight: Flight):
        """Blocking (compute thread): one pool execution + store write."""
        job = flight.job
        if self._scheduler is not None:
            # Broker mode: enqueue + collect over the spool.  The worker
            # commit already wrote the store; no driver-side put needed.
            [result] = self._scheduler.run_jobs([job], store=self._store)
            return result
        with self._dispatch_lock:
            # The arena export inside describe()/submit() is not thread-safe;
            # one dispatch at a time, the heavy work happens in the workers.
            [future] = self._pool.submit([job], event_queue=self._relay.queue)
        result = self._pool.collect(job, future)
        if self._store is not None:
            self._store.put(job, result)
        return result

    def _run_portfolio(self, flight: Flight, params: dict):
        """Blocking (compute thread): one portfolio race on its own pool."""
        from repro.runtime.portfolio import run_portfolio

        entries = params["entries"]
        if self._scheduler is not None:
            # Broker mode: the race's entrants run over the shared spool
            # (no live incumbent events, no cross-node cancellation).
            return run_portfolio(
                params["target"],
                entries,
                scale=params["scale"],
                timeout=params["timeout"],
                budget=params["budget"],
                target=params["goal"],
                store=self._store,
                scheduler=self._scheduler,
            )
        workers = params["workers"] or min(len(entries), os.cpu_count() or 1)
        pool = PlannerPool(max_workers=max(1, int(workers)))
        self._aux_pools.add(pool)
        try:
            return run_portfolio(
                params["target"],
                entries,
                scale=params["scale"],
                timeout=params["timeout"],
                budget=params["budget"],
                target=params["goal"],
                straggler_grace=params["straggler_grace"],
                on_event=lambda event: self._threadsafe_flight_event(flight, event),
                store=self._store,
                pool=pool,
            )
        finally:
            self._aux_pools.discard(pool)
            pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Event routing (relay thread → loop)
    # ------------------------------------------------------------------ #
    def _on_relay_event(self, event: PlanEvent) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._route_event, event)
        except RuntimeError:
            pass  # loop shut down mid-flight

    def _threadsafe_flight_event(self, flight: Flight, event: PlanEvent) -> None:
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._flight_event, flight, event)
        except RuntimeError:
            pass

    def _route_event(self, event: PlanEvent) -> None:
        flight = self._flights.get(event.payload.get("job_id"))
        if flight is None:
            return
        self._flight_event(flight, event)

    def _flight_event(self, flight: Flight, event: PlanEvent) -> None:
        flight.events.append(event)
        for channel in list(flight.channels):
            channel.publish(event)
        if event.type == "finished" and flight.kind == "plan":
            flight.saw_finished = True
            if flight.done.done():
                self._finish_flight(flight)


# --------------------------------------------------------------------------- #
# Thread-hosted servers (tests, notebooks)
# --------------------------------------------------------------------------- #


@dataclass
class ServerHandle:
    """A :class:`PlanServer` running on a background thread."""

    server: PlanServer
    thread: threading.Thread
    address: object

    def shutdown(self, timeout: float = 60.0) -> None:
        """Drain the server and join its thread."""
        self.server.request_shutdown_threadsafe()
        self.thread.join(timeout=timeout)
        if self.thread.is_alive():
            raise RuntimeError("serve thread did not shut down within the timeout")

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()


def _listening_unix_socket(path: str) -> socketlib.socket:
    """A Unix socket that already listens when ``path`` appears.

    ``bind`` creates the socket file before ``listen`` runs, and a client
    that connects in between is refused.  Binding under a temporary name in
    the same directory and renaming it onto ``path`` only after ``listen``
    means a client that sees the path can connect.
    """
    temp = f"{path}.{secrets.token_hex(3)}"
    sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
    try:
        sock.bind(temp)
        sock.listen(100)
        os.rename(temp, path)
    except BaseException:
        sock.close()
        if os.path.exists(temp):
            os.unlink(temp)
        raise
    return sock


def start_in_thread(config: ServeConfig, ready_timeout: float = 30.0) -> ServerHandle:
    """Run a :class:`PlanServer` on a daemon thread; return once it listens.

    Signal handlers are not installed (not the main thread) — stop it with
    :meth:`ServerHandle.shutdown`.
    """
    server = PlanServer(config)
    ready = threading.Event()
    failure: list[BaseException] = []

    def _on_ready(_address) -> None:
        ready.set()

    server.on_ready = _on_ready

    def _run() -> None:
        try:
            asyncio.run(server.run())
        except BaseException as exc:  # noqa: BLE001 — surface startup failures
            failure.append(exc)
        finally:
            ready.set()

    thread = threading.Thread(target=_run, name="plan-server", daemon=True)
    thread.start()
    if not ready.wait(timeout=ready_timeout):
        server.request_shutdown_threadsafe()
        raise RuntimeError("serve thread did not become ready within the timeout")
    if failure:
        raise RuntimeError(f"serve thread failed to start: {failure[0]}") from failure[0]
    if server.address is None:
        raise RuntimeError("serve thread exited before binding its address")
    return ServerHandle(server=server, thread=thread, address=server.address)
