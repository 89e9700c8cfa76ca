"""Portfolio racing: several planner configs compete on one instance.

The paper's planners trade quality for runtime in different regimes (greedy
is instant, E-BLOW-0 is fast, E-BLOW-1 is best), so for latency-sensitive
serving the right move is to run a *portfolio* concurrently and keep the
best plan by writing time.  :func:`run_portfolio`:

* serves store hits first (a cached entrant races for free),
* submits the remaining entrants to a process pool at once,
* streams each entrant's :class:`~repro.events.PlanEvent` progress back to
  the parent (``on_event``), label-stamped, over an
  :class:`~repro.runtime.pool.EventRelay`,
* cancels stragglers on **incumbent quality**, not just wall clock: with
  ``straggler_grace`` set, once the first entrant finishes ``ok`` the rest
  get that many seconds of grace, after which any entrant whose latest
  reported incumbent cost does not beat the current winner is cancelled
  (entrants that report a better incumbent keep racing until the budget),
* optionally stops the race ``budget`` seconds after it starts, or as soon
  as a result reaches the ``target`` writing time,
* picks the minimum-writing-time ``ok`` result, breaking ties by label for
  determinism, and records every outcome to telemetry.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import FIRST_COMPLETED, wait
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.errors import ValidationError
from repro.events import PlanEvent, guarded_sink
from repro.model import OSPInstance
from repro.obs import metrics as obs_metrics
from repro.obs.tracing import span
from repro.runtime.jobs import JobResult, PlanJob, PlannerSpec, execute_job
from repro.runtime.pool import EventRelay, PlannerPool, default_workers, labelled_event
from repro.runtime.store import ResultStore
from repro.runtime.telemetry import Telemetry

__all__ = ["PortfolioOutcome", "portfolio_jobs", "run_portfolio"]

_RACES = obs_metrics.declare_counter("portfolio_races_total", "Portfolio races run")
_ENTRANTS = obs_metrics.declare_counter(
    "portfolio_entrants_total",
    "Portfolio entrants by final outcome",
    ("outcome",),  # cache_hit | ok | error | timeout | cancelled
)
_STOPS = obs_metrics.declare_counter(
    "portfolio_stops_total",
    "Early race stops by reason",
    ("reason",),  # target | budget | grace
)
_GRACE_FIRES = obs_metrics.declare_counter(
    "portfolio_grace_fires_total",
    "Times the straggler grace deadline fired and stragglers were re-judged",
)


@dataclass
class PortfolioOutcome:
    """Result of one portfolio race."""

    winner: JobResult | None
    results: list[JobResult] = field(default_factory=list)
    cancelled: list[str] = field(default_factory=list)  # labels that never finished
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.winner is not None


def portfolio_jobs(
    instance_or_case: OSPInstance | str,
    entries: Mapping[str, PlannerSpec | str],
    scale: float | None = None,
    timeout: float | None = None,
) -> list[PlanJob]:
    """One job per portfolio entrant, all targeting the same instance."""
    jobs = []
    for label, value in entries.items():
        spec = value if isinstance(value, PlannerSpec) else PlannerSpec(str(value))
        if isinstance(instance_or_case, OSPInstance):
            jobs.append(PlanJob(spec=spec, instance=instance_or_case, timeout=timeout, label=label))
        else:
            jobs.append(
                PlanJob(
                    spec=spec, case=instance_or_case, scale=scale, timeout=timeout, label=label
                )
            )
    return jobs


def _better(candidate: JobResult, incumbent: JobResult | None) -> bool:
    if not candidate.ok:
        return False
    if incumbent is None:
        return True
    return (candidate.writing_time, candidate.label) < (
        incumbent.writing_time,
        incumbent.label,
    )


class _Race:
    """Mutable bookkeeping of one portfolio race (winner, incumbents, stops)."""

    def __init__(self, target: float | None) -> None:
        self.target = target
        self.winner: JobResult | None = None
        #: when the first ``ok`` result appeared (perf_counter), arming grace.
        self.winner_at: float | None = None
        #: label -> (latest incumbent cost, perf_counter when it arrived).
        self.incumbents: dict[str, tuple[float, float]] = {}

    def observe(self, event: PlanEvent) -> None:
        if event.type != "incumbent":
            return
        label = event.payload.get("label")
        cost = event.payload.get("cost")
        if label is not None and isinstance(cost, (int, float)) and math.isfinite(cost):
            self.incumbents[str(label)] = (float(cost), time.perf_counter())

    def take(self, result: JobResult) -> None:
        if result.ok and self.winner_at is None:
            self.winner_at = time.perf_counter()
        if _better(result, self.winner):
            self.winner = result

    @property
    def target_reached(self) -> bool:
        return (
            self.target is not None
            and self.winner is not None
            and self.winner.writing_time <= self.target
        )

    def promising(self, label: str, freshness: float | None = None) -> bool:
        """Whether ``label``'s reported incumbent beats the current winner.

        Incumbent costs are the annealer's penalized objective (an upper
        bound on the final writing time), so this is conservative: an
        entrant survives grace only if it *already* looks strictly better.
        Entrants that never report incumbents (the 1D flows) are not
        promising by definition — they are bounded by grace alone.

        ``freshness`` (seconds) additionally requires the incumbent report
        to be recent: a straggler that went quiet — plateaued anneal, hung
        native solve, dead worker — stops counting as promising once its
        last report is older than the window, so one good early incumbent
        cannot keep the race polling forever.
        """
        if self.winner is None:
            return True
        entry = self.incumbents.get(label)
        if entry is None:
            return False
        cost, seen_at = entry
        if freshness is not None and time.perf_counter() - seen_at > freshness:
            return False
        return cost < self.winner.writing_time


def run_portfolio(
    instance_or_case: OSPInstance | str,
    entries: Mapping[str, PlannerSpec | str],
    scale: float | None = None,
    max_workers: int | None = None,
    timeout: float | None = None,
    budget: float | None = None,
    target: float | None = None,
    straggler_grace: float | None = None,
    on_event: Callable[[PlanEvent], None] | None = None,
    store: ResultStore | None = None,
    telemetry: Telemetry | None = None,
    pool: PlannerPool | None = None,
    scheduler=None,
) -> PortfolioOutcome:
    """Race the ``entries`` on one instance and return the best plan.

    ``budget`` (seconds) caps how long the race keeps waiting after it
    starts; ``target`` stops it as soon as an ``ok`` result reaches that
    writing time; ``straggler_grace`` (seconds) bounds how long stragglers
    may keep running past the first finisher unless their event stream shows
    a better incumbent.  Entrants still pending when any stop fires are
    cancelled and listed in :attr:`PortfolioOutcome.cancelled`.

    ``pool`` reuses a caller-owned warm :class:`PlannerPool` (kept open
    afterwards; ``max_workers`` is ignored) — races over the same instance
    then skip instance shipping entirely thanks to the pool's arena and the
    workers' digest caches.  Cancelled stragglers on a caller-owned pool
    are *soft-cancelled* in place (``SIGUSR1`` → the job resolves as
    ``cancelled`` and the worker stays warm, see
    :meth:`PlannerPool.cancel_running`) — a wedged worker no longer leaks
    past the race; pass ``timeout=`` or ``budget=`` as a further backstop
    for entrants stuck in uncancellable native code.

    ``scheduler`` (see :mod:`repro.dist.scheduler`) swaps the execution
    substrate for the non-cached entrants — e.g. a
    :class:`~repro.dist.BrokerScheduler` races the portfolio across broker
    workers.  Entrants then run to completion (there is no cross-node
    cancellation; per-entrant ``timeout``/``budget`` still bound each run),
    and ``pool`` / ``max_workers`` / ``straggler_grace`` are ignored.
    """
    if not entries:
        raise ValidationError("portfolio needs at least one planner entry")
    # A budget without per-job timeouts would leave stragglers running
    # unattended in the workers; bound them by the budget itself.
    job_timeout = timeout if timeout is not None else budget
    jobs = portfolio_jobs(instance_or_case, entries, scale=scale, timeout=job_timeout)

    start = time.perf_counter()
    outcome = PortfolioOutcome(winner=None)
    race = _Race(target)

    pending_jobs: list[PlanJob] = []
    for job in jobs:
        cached = store.get(job) if store is not None else None
        if cached is not None:
            outcome.results.append(cached)
            race.take(cached)
            continue
        pending_jobs.append(job)

    if pending_jobs and race.target_reached:
        # A store-hit winner already meets the target: the race is over
        # before the pool phase, but the entrants that never ran must still
        # be accounted for (every other stop path lists them as cancelled).
        outcome.cancelled.extend(job.display_label for job in pending_jobs)
        pending_jobs = []
        _STOPS.inc(reason="target")
    if pending_jobs and scheduler is not None:
        with span(
            "portfolio",
            case=jobs[0].case_name,
            entrants=len(jobs),
            pending=len(pending_jobs),
            scheduler=type(scheduler).__name__,
        ):
            for result in scheduler.run_jobs(pending_jobs, store=store, on_event=on_event):
                outcome.results.append(result)
                race.take(result)
        pending_jobs = []
    if pending_jobs:
        owns_pool = pool is None
        if owns_pool:
            workers = default_workers(max_workers) if max_workers is None else max(1, max_workers)
            workers = min(workers, len(pending_jobs))
            pool = PlannerPool(max_workers=workers)
        try:
            with span(
                "portfolio",
                case=jobs[0].case_name,
                entrants=len(jobs),
                pending=len(pending_jobs),
            ):
                if pool.inline:
                    _run_serial(
                        pending_jobs, outcome, race, start,
                        budget=budget, straggler_grace=straggler_grace,
                        on_event=on_event, store=store,
                    )
                else:
                    _run_race(
                        pool, pending_jobs, outcome, race, start,
                        budget=budget, straggler_grace=straggler_grace,
                        on_event=on_event, store=store, owns_pool=owns_pool,
                    )
        finally:
            if owns_pool:
                pool.shutdown(wait=True)
    outcome.winner = race.winner

    outcome.wall_seconds = time.perf_counter() - start
    _RACES.inc()
    for result in outcome.results:
        _ENTRANTS.inc(outcome="cache_hit" if result.cache_hit else result.status)
    for _ in outcome.cancelled:
        _ENTRANTS.inc(outcome="cancelled")
    if telemetry is not None:
        for result in outcome.results:
            telemetry.record(
                result,
                portfolio_winner=(outcome.winner is not None and result is outcome.winner),
            )
    return outcome


def _run_serial(
    pending_jobs: list[PlanJob],
    outcome: PortfolioOutcome,
    race: _Race,
    start: float,
    budget: float | None,
    straggler_grace: float | None,
    on_event,
    store: ResultStore | None,
) -> None:
    """Single worker: no true race — run in order, honouring the stops.

    With ``straggler_grace`` set, entrants that would only *start* after a
    winner already exists (a finished entrant or a store hit) are skipped
    outright: serially an entrant cannot be preempted once started, so
    "grace for already-running stragglers" has no meaningful analogue —
    letting one start would un-bound the call by its full runtime.
    """
    # Guard the user callback individually (mirroring the pooled relay):
    # race bookkeeping must keep seeing events after a broken callback is
    # dropped.
    callback = guarded_sink(on_event)
    stop_reasons: set[str] = set()
    for job in pending_jobs:
        if budget is not None and time.perf_counter() - start > budget:
            outcome.cancelled.append(job.display_label)
            if "budget" not in stop_reasons:
                stop_reasons.add("budget")
                _STOPS.inc(reason="budget")
            continue
        if race.target_reached or (straggler_grace is not None and race.winner is not None):
            outcome.cancelled.append(job.display_label)
            reason = "target" if race.target_reached else "grace"
            if reason not in stop_reasons:
                stop_reasons.add(reason)
                _STOPS.inc(reason=reason)
            continue
        sink = None
        if callback is not None:
            label = job.display_label

            def sink(event, _label=label):
                event = labelled_event(event, _label)
                race.observe(event)
                callback(event)

        result = execute_job(job, on_event=sink)
        outcome.results.append(result)
        if store is not None:
            store.put(job, result)
        race.take(result)


def _run_race(
    pool: PlannerPool,
    pending_jobs: list[PlanJob],
    outcome: PortfolioOutcome,
    race: _Race,
    start: float,
    budget: float | None,
    straggler_grace: float | None,
    on_event,
    store: ResultStore | None,
    owns_pool: bool = True,
) -> None:
    """True race across worker processes."""
    relay: EventRelay | None = None
    queue = None
    event_types = None
    if on_event is not None or straggler_grace is not None:
        # The race's incumbent bookkeeping must survive a broken user
        # callback — guard the callback individually so one exception
        # cannot change which stragglers get cancelled.
        callback = guarded_sink(on_event)

        def _observe(event: PlanEvent) -> None:
            race.observe(event)
            if callback is not None:
                callback(event)

        relay = EventRelay(_observe)
        queue = relay.queue
        if on_event is None:
            # Only the incumbent stream feeds the race bookkeeping; keep
            # the rest of the (much chattier) protocol out of the workers'
            # IPC path so relaying cannot distort the race being timed.
            event_types = ("incumbent",)

    try:
        futures = pool.submit(pending_jobs, event_queue=queue, event_types=event_types)
        by_future = dict(zip(futures, pending_jobs))
        remaining = set(futures)
        deadline = (start + budget) if budget is not None else None
        # A winner served from the store before the pool phase arms the
        # grace clock immediately — everyone still pending is a straggler.
        grace_deadline: float | None = None
        if straggler_grace is not None and race.winner_at is not None:
            grace_deadline = race.winner_at + straggler_grace
        while remaining:
            now = time.perf_counter()
            bounds = [b for b in (deadline, grace_deadline) if b is not None]
            wait_for = None if not bounds else max(0.0, min(bounds) - now)
            done, remaining = wait(remaining, timeout=wait_for, return_when=FIRST_COMPLETED)
            for future in done:
                job = by_future[future]
                result = pool.collect(job, future)
                outcome.results.append(result)
                if store is not None:
                    store.put(job, result)
                race.take(result)
                if straggler_grace is not None and grace_deadline is None and race.winner_at is not None:
                    grace_deadline = race.winner_at + straggler_grace
            if race.target_reached:
                _STOPS.inc(reason="target")
                break  # good enough — stop the race
            if not done:
                now = time.perf_counter()
                if deadline is not None and now >= deadline:
                    _STOPS.inc(reason="budget")
                    break  # budget expired
                if grace_deadline is not None and now >= grace_deadline:
                    _GRACE_FIRES.inc()
                    # Grace expired: keep waiting only while some straggler's
                    # incumbent stream shows it beating the current winner
                    # *and* still flowing — a straggler that went quiet for a
                    # full grace window is cancelled even if its last report
                    # looked good, so the grace bound cannot be held open
                    # forever by a hung entrant.
                    if any(
                        race.promising(
                            by_future[f].display_label, freshness=straggler_grace
                        )
                        for f in remaining
                    ):
                        grace_deadline = now + 0.25  # promising — re-check shortly
                    else:
                        _STOPS.inc(reason="grace")
                        break
        for future in remaining:
            future.cancel()
            outcome.cancelled.append(by_future[future].display_label)
        if remaining and owns_pool:
            # cancel() is a no-op on already-running entrants; have
            # shutdown terminate them (escalating: soft cancel → SIGTERM →
            # SIGKILL) so the stop truly bounds the call instead of waiting
            # out their per-job timeouts.
            pool.abandon_running()
        elif remaining:
            # Caller-owned warm pool: soft-cancel the running stragglers in
            # place.  A cancellable entrant resolves as ``cancelled`` and
            # frees its worker immediately (the worker — and the pool —
            # stay warm and healthy); one wedged in native code ignores the
            # signal and runs to its per-job timeout (which is why
            # ``job_timeout`` above folds in the budget).
            pool.cancel_running()
    finally:
        if relay is not None:
            relay.close()
