"""Grid execution: drain the job queue through shared exposure engines.

``execute_grid`` is the worker loop behind ``repro grid run|resume``:

1. re-pend any jobs a dead process left ``running`` (crash recovery);
2. claim -> execute -> persist, job by job, with per-phase telemetry
   spans and an ``exposure.cache`` counter-delta event per job (the CI
   gate sums these to prove a digest group built its population once and
   recorded its campaign once — ``campaign_reuses`` counts the jobs that
   reused a recording);
3. on success record the result (deterministic run id, so resume is
   idempotent) and mark the job done; on failure hand the traceback to
   the queue's retry/dead-letter policy; on interrupt un-claim the
   in-flight job and re-raise so the CLI's signal handler semantics hold.

Because the planner ordered jobs group-by-group, a single worker with one
:class:`ExposureEngine` touches each ``SharedExposure`` exactly once per
group.  With ``workers > 1`` each thread gets its *own* engine (the engine
is not thread-safe) and leases whole digest groups off a shared iterator —
jobs in a group still share one build, groups run concurrently, and the
on-disk bundle cache is shared by path.

The loop always flushes its engines in a ``finally`` — together with the
CLI's SIGINT/SIGTERM handler this joins background bundle writes, so an
interrupted run leaves no half-written ``.exposure-*`` temp dirs behind.
"""

from __future__ import annotations

import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..core.scenario import run_scenario
from ..sim.exposure import ExposureEngine
from .queue import ClaimedJob, JobQueue
from .store import ResultStore
from .telemetry import Telemetry

__all__ = ["GridRunResult", "execute_grid"]

#: Test hook: seconds to sleep inside every job execution, so integration
#: tests can interrupt a run deterministically mid-queue.
_JOB_DELAY_ENV = "REPRO_GRID_JOB_DELAY"


@dataclass
class GridRunResult:
    """What one ``execute_grid`` invocation did (not whole-grid state)."""

    grid_id: str
    executed: List[str] = field(default_factory=list)
    done: int = 0
    retried: int = 0
    dead_lettered: int = 0
    wall_seconds: float = 0.0
    job_wall_seconds: Dict[str, float] = field(default_factory=dict)
    exposure_builds: int = 0
    exposure_hits: int = 0
    exposure_disk_hits: int = 0
    #: Jobs served a campaign their engine had already recorded.
    campaign_reuses: int = 0
    interrupted: bool = False


def _job_delay() -> float:
    raw = os.environ.get(_JOB_DELAY_ENV, "").strip()
    if not raw:
        return 0.0
    try:
        return max(0.0, float(raw))
    except ValueError:
        return 0.0


def _run_claimed(
    claimed: ClaimedJob,
    queue: JobQueue,
    store: ResultStore,
    engine: ExposureEngine,
    telemetry: Telemetry,
    out: GridRunResult,
    backoff_base: float,
    progress: Optional[Callable[[str], None]],
    lock: threading.Lock,
) -> None:
    """Execute one leased job through its full lifecycle."""
    job = claimed.job
    span_id = telemetry.span_start(
        "job",
        grid=claimed.grid_id,
        job=job.name,
        digest=job.digest,
        attempt=claimed.attempts,
    )
    queue.set_span(claimed.id, span_id)
    start = time.monotonic()
    try:
        with telemetry.span("phase:resolve", job=job.name):
            spec = job.resolved_spec()
        hits0, misses0, disk0 = engine.hits, engine.misses, engine.disk_hits
        reuses0 = engine.campaign_reuses
        with telemetry.span("phase:execute", job=job.name):
            delay = _job_delay()
            if delay:
                time.sleep(delay)
            result = run_scenario(
                spec, scale=job.scale, seed=job.seed, engine=engine
            )
        builds = engine.misses - misses0
        hits = engine.hits - hits0
        disk_hits = engine.disk_hits - disk0
        reuses = engine.campaign_reuses - reuses0
        telemetry.event(
            "exposure.cache",
            job=job.name,
            digest=result.exposure_digest,
            builds=builds,
            hits=hits,
            disk_hits=disk_hits,
            campaign_reuses=reuses,
        )
        wall = time.monotonic() - start
        with telemetry.span("phase:persist", job=job.name):
            run_id = store.record_result(
                result,
                grid_id=claimed.grid_id,
                job=job,
                wall_seconds=wall,
            )
        queue.mark_done(claimed.id, run_id)
        telemetry.event("job.done", job=job.name, run_id=run_id)
        telemetry.span_end("job", span_id, status="ok", seconds=round(wall, 6))
        with lock:
            out.done += 1
            out.executed.append(job.name)
            out.job_wall_seconds[job.name] = wall
            out.exposure_builds += builds
            out.exposure_hits += hits
            out.exposure_disk_hits += disk_hits
            out.campaign_reuses += reuses
        if progress is not None:
            progress(f"[done] {job.name} -> run {run_id}")
    except (KeyboardInterrupt, SystemExit, GeneratorExit):
        # Graceful interrupt: the attempt is refunded and the job goes
        # straight back to pending — resume picks it up first.
        queue.mark_interrupted(claimed.id)
        telemetry.event("job.interrupted", job=job.name)
        telemetry.span_end("job", span_id, status="interrupted")
        with lock:
            out.interrupted = True
        raise
    except Exception as error:
        tb = traceback.format_exc()
        outcome = queue.mark_failed(claimed.id, tb, backoff_base=backoff_base)
        telemetry.event(
            f"job.{outcome}",
            job=job.name,
            attempt=claimed.attempts,
            error=f"{type(error).__name__}: {error}",
        )
        telemetry.span_end("job", span_id, status="error")
        with lock:
            out.executed.append(job.name)
            if outcome == "dead_letter":
                out.dead_lettered += 1
            else:
                out.retried += 1
        if progress is not None:
            progress(
                f"[{outcome}] {job.name} (attempt {claimed.attempts}"
                f"/{claimed.retry_budget}): {type(error).__name__}: {error}"
            )


class _Budget:
    """Shared --max-jobs allowance across worker threads."""

    def __init__(self, limit: Optional[int]) -> None:
        self._remaining = limit
        self._lock = threading.Lock()

    def take(self) -> bool:
        with self._lock:
            if self._remaining is None:
                return True
            if self._remaining <= 0:
                return False
            self._remaining -= 1
            return True

    def refund(self) -> None:
        with self._lock:
            if self._remaining is not None:
                self._remaining += 1


def _drain(
    db_path: str,
    grid_id: str,
    digest_filter: Optional[str],
    worker: str,
    store: ResultStore,
    engine: ExposureEngine,
    telemetry: Telemetry,
    out: GridRunResult,
    budget: _Budget,
    backoff_base: float,
    progress: Optional[Callable[[str], None]],
    lock: threading.Lock,
    stop: threading.Event,
) -> None:
    """Claim-and-run until this slice of the queue is empty."""
    with JobQueue(db_path) as queue:
        while not stop.is_set():
            if not budget.take():
                return
            claimed = queue.claim_next(worker, grid_id=grid_id, digest=digest_filter)
            if claimed is None:
                budget.refund()
                # Distinguish "drained" from "every pending job is backing
                # off": in the latter case wait out the earliest retry.
                eligible_at = queue.next_eligible_at(grid_id, digest_filter)
                if eligible_at is None:
                    return
                wait = max(0.0, eligible_at - time.time())
                if stop.wait(min(wait, 0.5) if wait else 0.01):
                    return
                continue
            _run_claimed(
                claimed,
                queue,
                store,
                engine,
                telemetry,
                out,
                backoff_base,
                progress,
                lock,
            )


def execute_grid(
    db_path: str,
    grid_id: str,
    engine_factory: Callable[[], ExposureEngine],
    telemetry: Optional[Telemetry] = None,
    workers: int = 1,
    max_jobs: Optional[int] = None,
    backoff_base: float = 0.5,
    progress: Optional[Callable[[str], None]] = None,
    worker_name: Optional[str] = None,
) -> GridRunResult:
    """Execute (or resume) one grid's queue until drained or interrupted."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    telemetry = telemetry if telemetry is not None else Telemetry(None)
    out = GridRunResult(grid_id=grid_id)
    lock = threading.Lock()
    budget = _Budget(max_jobs)
    started = time.monotonic()
    base_name = worker_name or f"worker-{os.getpid()}"
    engines: List[ExposureEngine] = []
    telemetry.event("grid.start", grid=grid_id, workers=workers)
    try:
        with JobQueue(db_path) as control:
            recovered = control.recover_stale(grid_id)
            if recovered:
                telemetry.event("grid.recovered_stale", grid=grid_id, jobs=recovered)
            pending_groups = control.pending_digests(grid_id)
        stop = threading.Event()
        if workers == 1 or len(pending_groups) <= 1:
            # Serial path runs on the calling thread so SIGINT/SIGTERM land
            # inside the in-flight job and its interrupt handling applies.
            engine = engine_factory()
            engines.append(engine)
            store = ResultStore(db_path)
            try:
                _drain(
                    db_path, grid_id, None, base_name, store, engine,
                    telemetry, out, budget, backoff_base, progress, lock, stop,
                )
            finally:
                store.close()
        else:
            # One thread per worker, each leasing whole digest groups off a
            # shared iterator: jobs in a group share that thread's engine.
            group_iter = iter(pending_groups)
            group_lock = threading.Lock()

            def lease() -> Optional[object]:
                with group_lock:
                    return next(group_iter, None)

            def worker_main(index: int) -> None:
                engine = engine_factory()
                with lock:
                    engines.append(engine)
                store = ResultStore(db_path)
                try:
                    while not stop.is_set():
                        digest = lease()
                        if digest is None:
                            return
                        _drain(
                            db_path, grid_id, str(digest),
                            f"{base_name}.{index}", store, engine, telemetry,
                            out, budget, backoff_base, progress, lock, stop,
                        )
                finally:
                    store.close()

            threads = [
                threading.Thread(
                    target=worker_main, args=(index,), daemon=True,
                    name=f"grid-worker-{index}",
                )
                for index in range(workers)
            ]
            for thread in threads:
                thread.start()
            try:
                for thread in threads:
                    while thread.is_alive():
                        thread.join(timeout=0.2)
            except BaseException:
                stop.set()
                out.interrupted = True
                for thread in threads:
                    thread.join(timeout=10.0)
                raise
    finally:
        # Join background bundle writes even on interrupt: no stale
        # .exposure-* temp dirs may survive a killed grid run.
        for engine in engines:
            engine.flush()
        out.wall_seconds = time.monotonic() - started
        telemetry.event(
            "grid.finish",
            grid=grid_id,
            done=out.done,
            retried=out.retried,
            dead_lettered=out.dead_lettered,
            interrupted=out.interrupted,
            seconds=round(out.wall_seconds, 6),
        )
    return out
