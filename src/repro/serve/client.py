"""Blocking client for the serve daemon.

:class:`ServeClient` mirrors the façade surface over the wire — the same
arguments ``repro.plan`` takes produce a request frame, and the result
comes back as the same :class:`~repro.runtime.jobs.JobResult`::

    from repro.serve.client import ServeClient

    with ServeClient(socket="/tmp/eblow.sock") as client:
        result = client.plan("1T-1", planner="eblow", scale=0.12)
        print(result.writing_time)

The client is deliberately synchronous (plain ``socket`` + ``json``): the
daemon carries all the concurrency, and a blocking call per request is the
shape batch scripts and the CLI verbs want.  One client drives one
connection; share nothing across threads (open one client per thread —
connections are cheap, the daemon coalesces the work anyway).
"""

from __future__ import annotations

import itertools
import random
import socket as socketlib
import time
from typing import Callable, Iterator, Mapping

from repro.api.facade import PlanningError
from repro.errors import ReproError
from repro.events import PlanEvent
from repro.runtime.jobs import JobResult, PlanJob
from repro.serve.protocol import decode_frame, encode_frame, request_frame

__all__ = ["ServeClient", "ServeError"]


class ServeError(ReproError):
    """The daemon answered with an ``error`` frame (or the link failed).

    ``code`` is the protocol's stable error code (``queue_full``,
    ``draining``, ``bad_request``, ...) — ``connection`` for link failures.
    """

    def __init__(self, message: str, code: str = "internal") -> None:
        super().__init__(message)
        self.code = code


class ServeClient:
    """One blocking NDJSON connection to a :class:`~repro.serve.server.PlanServer`.

    ``retries`` arms automatic reconnect: a verb that fails with a
    ``connection`` error (link dropped, daemon restarting) re-dials the
    endpoint and re-sends the request, up to ``retries`` times with seeded
    jittered exponential backoff — safe to repeat, because plan requests
    are content-addressed on the daemon (a retried request coalesces onto
    the in-flight computation or is answered from the store).  ``draining``
    rejections get their own budget (``draining_retries``, default: the
    same as ``retries``): a draining daemon is usually about to be replaced
    by its supervisor, so the retry waits out the restart instead of
    failing the caller.  Budgets are per-verb-call, not per-client.
    """

    def __init__(
        self,
        socket: str | None = None,
        host: str = "127.0.0.1",
        port: int | None = None,
        timeout: float | None = None,
        retries: int = 0,
        draining_retries: int | None = None,
        retry_base: float = 0.1,
        retry_cap: float = 2.0,
        retry_jitter: float = 0.5,
        retry_seed: int = 0,
    ) -> None:
        if (socket is None) == (port is None):
            raise ServeError("ServeClient needs exactly one of socket= or port=", code="bad_request")
        self._endpoint = {"socket": socket, "host": host, "port": port, "timeout": timeout}
        self._retries = max(0, int(retries))
        self._draining_retries = (
            self._retries if draining_retries is None else max(0, int(draining_retries))
        )
        self._retry_base = retry_base
        self._retry_cap = retry_cap
        self._retry_jitter = retry_jitter
        self._rng = random.Random(retry_seed)
        self._sock: socketlib.socket | None = None
        self._file = None
        self._ids = itertools.count(1)
        #: Metadata of the most recent request (from its ``ack`` frame).
        self.last_job_id: str | None = None
        self.last_outcome: str | None = None
        #: Successful re-dials performed by the retry machinery.
        self.reconnects = 0
        self._connect_retrying()

    # ------------------------------------------------------------------ #
    # Connection + retry machinery
    # ------------------------------------------------------------------ #
    def _connect(self) -> None:
        socket = self._endpoint["socket"]
        timeout = self._endpoint["timeout"]
        try:
            if socket is not None:
                sock = socketlib.socket(socketlib.AF_UNIX, socketlib.SOCK_STREAM)
                sock.settimeout(timeout)
                sock.connect(socket)
            else:
                sock = socketlib.create_connection(
                    (self._endpoint["host"], self._endpoint["port"]), timeout=timeout
                )
        except OSError as exc:
            raise ServeError(f"could not connect to the serve daemon: {exc}", code="connection") from exc
        self._sock = sock
        self._file = sock.makefile("rwb")

    def _delay(self, failures: int) -> float:
        """Jittered exponential backoff for the ``failures``-th failure."""
        base = min(self._retry_cap, self._retry_base * (2 ** max(0, failures - 1)))
        return base * (1.0 + self._retry_jitter * self._rng.random())

    def _connect_retrying(self) -> None:
        """Initial dial, honouring the connection retry budget."""
        failures = 0
        while True:
            try:
                self._connect()
                return
            except ServeError:
                failures += 1
                if failures > self._retries:
                    raise
                time.sleep(self._delay(failures))

    def _reconnect(self) -> None:
        self.close()
        self._connect()
        self.reconnects += 1

    def _retrying(self, attempt: Callable[[], object]):
        """Run ``attempt`` under the reconnect/draining retry budgets."""
        conn_left = self._retries
        drain_left = self._draining_retries
        failures = 0
        while True:
            try:
                return attempt()
            except ServeError as exc:
                if exc.code == "connection":
                    if conn_left <= 0:
                        raise
                    conn_left -= 1
                elif exc.code == "draining":
                    if drain_left <= 0:
                        raise
                    drain_left -= 1
                else:
                    raise
                failures += 1
                # Re-dial until it sticks (consuming the connection budget):
                # a restarting daemon rejects dials for a moment after it
                # drops established links.
                while True:
                    time.sleep(self._delay(failures))
                    try:
                        self._reconnect()
                        break
                    except ServeError:
                        if conn_left <= 0:
                            raise
                        conn_left -= 1
                        failures += 1

    # ------------------------------------------------------------------ #
    # Wire plumbing
    # ------------------------------------------------------------------ #
    def _send(self, verb: str, **payload) -> str:
        rid = f"r{next(self._ids)}"
        if self._file is None:
            raise ServeError("client is not connected", code="connection")
        try:
            self._file.write(encode_frame(request_frame(rid, verb, **payload)))
            self._file.flush()
        except OSError as exc:
            raise ServeError(f"send failed: {exc}", code="connection") from exc
        return rid

    def _frames(self, rid: str) -> Iterator[dict]:
        """Response frames for ``rid``, until (and including) its terminal one."""
        while True:
            try:
                line = self._file.readline()
            except socketlib.timeout as exc:
                raise ServeError("timed out waiting for the daemon", code="connection") from exc
            except OSError as exc:
                raise ServeError(f"receive failed: {exc}", code="connection") from exc
            if not line:
                raise ServeError("connection closed by the daemon", code="connection")
            frame = decode_frame(line)
            if frame.get("id") != rid:
                continue  # a frame for another in-flight request on this link
            yield frame
            kind = frame.get("frame")
            if kind in ("done", "status"):
                return
            if kind in ("result", "error") and frame.get("index") is None:
                return  # terminal; indexed frames are per-batch-entry
            if kind == "ack" and frame.get("draining"):
                return  # shutdown's terminal ack

    @staticmethod
    def _raise(frame: Mapping) -> None:
        raise ServeError(frame.get("message", "request failed"), code=frame.get("code", "internal"))

    # ------------------------------------------------------------------ #
    # Verbs
    # ------------------------------------------------------------------ #
    def plan(
        self,
        instance,
        planner: str = "eblow",
        *,
        options: Mapping[str, object] | None = None,
        scale: float | None = None,
        timeout: float | None = None,
        label: str | None = None,
        on_event: Callable[[PlanEvent], None] | None = None,
        check: bool = True,
    ) -> JobResult:
        """Plan on the daemon; mirrors :func:`repro.plan`.

        ``instance`` is a benchmark-case name (resolved with ``scale``) or
        an :class:`~repro.model.OSPInstance` shipped inline.  ``on_event``
        receives the live :class:`PlanEvent` stream; with ``check=True`` a
        failed run raises :class:`PlanningError` with the result attached.
        Retried under the reconnect budget (events may replay on a retry).
        """
        return self._retrying(
            lambda: self._plan_once(
                instance, planner, options=options, scale=scale, timeout=timeout,
                label=label, on_event=on_event, check=check,
            )
        )

    def _plan_once(
        self,
        instance,
        planner: str,
        *,
        options,
        scale,
        timeout,
        label,
        on_event,
        check,
    ) -> JobResult:
        request = self._request_payload(instance, planner, options, scale, timeout, label)
        rid = self._send("plan", request=request, events=on_event is not None)
        result: JobResult | None = None
        for frame in self._frames(rid):
            kind = frame.get("frame")
            if kind == "ack":
                self.last_job_id = frame.get("job_id")
                self.last_outcome = frame.get("outcome")
            elif kind == "event" and on_event is not None:
                on_event(PlanEvent.from_dict(frame["event"]))
            elif kind == "result":
                self.last_outcome = frame.get("outcome", self.last_outcome)
                result = JobResult.from_dict(frame["result"])
            elif kind == "error":
                self._raise(frame)
        if result is None:
            raise ServeError("daemon ended the request without a result", code="internal")
        if check and not result.ok:
            raise PlanningError(
                f"planner {planner!r} on {result.case!r} {result.status}: {result.error}",
                result=result,
            )
        return result

    def batch(
        self,
        requests,
        *,
        on_event: Callable[[PlanEvent], None] | None = None,
    ) -> list[JobResult | ServeError]:
        """Run several plan requests; one list slot per request, in order.

        Each element of ``requests`` is a :class:`~repro.runtime.jobs.PlanJob`
        or its ``to_dict()`` form.  Rejected or malformed entries come back
        as :class:`ServeError` values in their slot — the batch itself never
        raises for per-entry failures.
        Whole-batch failures are retried under the reconnect budget.
        """
        return self._retrying(lambda: self._batch_once(requests, on_event=on_event))

    def _batch_once(self, requests, *, on_event) -> list[JobResult | ServeError]:
        payloads = [r.to_dict() if isinstance(r, PlanJob) else dict(r) for r in requests]
        rid = self._send("batch", requests=payloads, events=on_event is not None)
        slots: list[JobResult | ServeError | None] = [None] * len(payloads)
        for frame in self._frames(rid):
            kind = frame.get("frame")
            index = frame.get("index")
            if kind == "event" and on_event is not None:
                on_event(PlanEvent.from_dict(frame["event"]))
            elif kind == "result" and index is not None:
                slots[index] = JobResult.from_dict(frame["result"])
            elif kind == "error":
                if index is None:
                    self._raise(frame)
                slots[index] = ServeError(
                    frame.get("message", "request failed"),
                    code=frame.get("code", "internal"),
                )
        missing = [i for i, slot in enumerate(slots) if slot is None]
        if missing:
            raise ServeError(f"batch ended without results for indices {missing}", code="internal")
        return slots

    def portfolio(
        self,
        instance,
        entries: Mapping[str, object],
        *,
        scale: float | None = None,
        timeout: float | None = None,
        budget: float | None = None,
        target: float | None = None,
        straggler_grace: float | None = None,
        jobs: int | None = None,
        on_event: Callable[[PlanEvent], None] | None = None,
    ) -> dict:
        """Race ``entries`` on the daemon; returns the outcome dict.

        The outcome mirrors :class:`~repro.runtime.portfolio.PortfolioOutcome`:
        ``{"ok", "wall_seconds", "cancelled", "winner", "results"}`` with the
        result records as plain dicts.  Retried under the reconnect budget.
        """
        return self._retrying(
            lambda: self._portfolio_once(
                instance, entries, scale=scale, timeout=timeout, budget=budget,
                target=target, straggler_grace=straggler_grace, jobs=jobs,
                on_event=on_event,
            )
        )

    def _portfolio_once(
        self,
        instance,
        entries: Mapping[str, object],
        *,
        scale,
        timeout,
        budget,
        target,
        straggler_grace,
        jobs,
        on_event,
    ) -> dict:
        payload: dict = {
            "entries": {
                label: (dict(value) if isinstance(value, Mapping) else str(value))
                for label, value in entries.items()
            },
            "scale": scale,
            "timeout": timeout,
            "budget": budget,
            "target": target,
            "straggler_grace": straggler_grace,
            "jobs": jobs,
            "events": on_event is not None,
        }
        if isinstance(instance, str):
            payload["case"] = instance
        else:
            payload["instance"] = instance.to_dict()
        rid = self._send("portfolio", **payload)
        outcome: dict | None = None
        for frame in self._frames(rid):
            kind = frame.get("frame")
            if kind == "ack":
                self.last_job_id = frame.get("job_id")
                self.last_outcome = frame.get("outcome")
            elif kind == "event" and on_event is not None:
                on_event(PlanEvent.from_dict(frame["event"]))
            elif kind == "result":
                outcome = frame["portfolio"]
            elif kind == "error":
                self._raise(frame)
        if outcome is None:
            raise ServeError("daemon ended the portfolio without an outcome", code="internal")
        return outcome

    def iter_events(self, job_id: str) -> Iterator[PlanEvent]:
        """Subscribe to a queued/running job's event stream (``subscribe``).

        Yields each :class:`PlanEvent` until the job finishes; raises
        :class:`ServeError` (``unknown_job``) when no such job is in flight.
        The terminal frame's metadata lands on :attr:`last_done`.
        """
        rid = self._send("subscribe", job_id=job_id)
        self.last_done: dict | None = None
        for frame in self._frames(rid):
            kind = frame.get("frame")
            if kind == "event":
                yield PlanEvent.from_dict(frame["event"])
            elif kind == "done":
                self.last_done = {k: frame.get(k) for k in ("state", "status", "dropped")}
            elif kind == "error":
                self._raise(frame)

    def status(self) -> dict:
        """The daemon's ``status`` frame (queue depths, pool health, counters).

        Retried under the reconnect budget (``draining`` never applies —
        a draining daemon still answers status requests).
        """
        return self._retrying(self._status_once)

    def _status_once(self) -> dict:
        rid = self._send("status")
        for frame in self._frames(rid):
            if frame.get("frame") == "status":
                return {k: v for k, v in frame.items() if k not in ("v", "id", "frame")}
            if frame.get("frame") == "error":
                self._raise(frame)
        raise ServeError("daemon ended the status request without a reply", code="internal")

    def shutdown(self) -> None:
        """Ask the daemon to drain and exit (acknowledged before it does)."""
        rid = self._send("shutdown")
        for frame in self._frames(rid):
            if frame.get("frame") == "error":
                self._raise(frame)

    # ------------------------------------------------------------------ #
    # Housekeeping
    # ------------------------------------------------------------------ #
    @staticmethod
    def _request_payload(instance, planner, options, scale, timeout, label) -> dict:
        payload: dict = {
            "planner": planner,
            "options": dict(options or {}),
            "timeout": timeout,
            "label": label,
        }
        if isinstance(instance, str):
            payload["case"] = instance
            payload["scale"] = scale
        else:
            if scale is not None:
                raise ServeError(
                    "scale= only applies to benchmark-case names", code="bad_request"
                )
            payload["instance"] = instance.to_dict()
        return payload

    def close(self) -> None:
        for closable in (self._file, self._sock):
            if closable is None:
                continue
            try:
                closable.close()
            except OSError:
                pass
        self._file = None
        self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
