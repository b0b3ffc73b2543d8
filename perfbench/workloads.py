"""The four benchmark workloads.

Each workload is a closed loop with one caller.  ``prepare`` builds the
seeded inputs (it is what ``setup_s`` times); ``run`` executes one
operation through the program's public entry points and returns an
:class:`Op` with its canonical output digest, its correctness verdict and
its timings.  A traced run executes the same ``run`` with the layer
wrappers installed, so its digest must equal the untraced one.  Calls the
traced run must see go through module attributes (``grid.plan_grid``,
``runner.execute_grid``), which the wrappers replace.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.core.campaign import (
    FULL_SCALE_DAILY_POPULATION,
    campaign_observation_seed,
    scaled_population_config,
)
from repro.core.scenario import ScenarioResult, resolve_scenario, run_scenario
from repro.netdb.routerinfo import BandwidthTier
from repro.service import grid, runner
from repro.service.queue import JobQueue
from repro.service.store import (
    ResultStore,
    canonical_json,
    series_payload,
    summary_payload,
)
from repro.sim import exposure_cache
from repro.sim.exposure import ExposureEngine
from repro.sim.network import I2PNetwork
from repro.sim.population import reset_snapshot_allocations, snapshot_allocations


@dataclass
class Op:
    """One operation's outcome."""

    digest: Optional[str]
    units: int
    wall: float = 0.0
    work: float = 0.0
    latencies: List[float] = field(default_factory=list)
    failed_units: int = 0
    problems: List[str] = field(default_factory=list)
    #: Outcome counts the per-layer metrics read (jobs done, ...).
    extra: Dict[str, float] = field(default_factory=dict)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class Workload:
    name = ""
    #: Operations (scenario runs, grid jobs or rounds) in one ``run``.
    units = 1
    #: The ``hostspeed`` kernel that matches what bounds this workload's time.
    calibration = "numpy"

    def prepare(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run(self) -> Op:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
class CampaignCold(Workload):
    """``main_campaign`` for 10 days at scale 1.0 on an empty cache."""

    name = "campaign-cold"
    SCALE = 1.0
    DAYS = 10

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = resolve_scenario("main_campaign", days=self.DAYS)
        self.runs = 0

    def run(self) -> Op:
        self.runs += 1
        cache = self.workdir / f"cache-{self.runs}"
        reset_snapshot_allocations()
        start = time.perf_counter()
        engine = ExposureEngine(cache_dir=cache)
        out = run_scenario(self.spec, scale=self.SCALE, seed=self.seed, engine=engine)
        engine.flush()
        wall = time.perf_counter() - start
        shutil.rmtree(cache, ignore_errors=True)
        return self._check(out, wall)

    def _check(self, out: ScenarioResult, wall: float) -> Op:
        result = out.campaign
        problems = []
        if result.log.days_recorded != self.DAYS:
            problems.append(f"{result.log.days_recorded} days recorded, not {self.DAYS}")
        expected = FULL_SCALE_DAILY_POPULATION * self.SCALE
        mean_peers = out.summaries["population"]["mean_daily_peers"]
        if not 0.7 * expected < mean_peers < 1.1 * expected:
            problems.append(f"mean daily peers {mean_peers} outside the scaled band")
        blocked = out.figures["figure_13"].get("5 days").y_at(10)
        if blocked is None or blocked <= 95.0:
            problems.append(f"5-day blacklist at 10 routers blocks {blocked}%, not >95%")
        if snapshot_allocations() != 0:
            problems.append(f"{snapshot_allocations()} day snapshots materialised")
        digest = sha256(
            canonical_json({"summary": summary_payload(out), "series": series_payload(out)})
        )
        return Op(
            digest=digest,
            units=1,
            wall=wall,
            work=float(sum(result.daily_online_population)),
            latencies=[wall],
            failed_units=1 if problems else 0,
            problems=problems,
        )


# --------------------------------------------------------------------------- #
class GridWarm(Workload):
    """An 8-job ``prefix-blocking`` grid over a prebuilt exposure bundle."""

    name = "grid-warm"
    SCALE = 1.0
    DAYS = 10  # the prefix-blocking scenario's own horizon
    TOP_N = tuple(range(1, 9))
    units = len(TOP_N)

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cache = workdir / "cache"
        order = list(self.TOP_N)
        random.Random(f"grid-axis-{seed}").shuffle(order)
        self.spec = grid.GridSpec(
            scenario="prefix-blocking",
            axes=(grid.GridAxis("params.top_n", tuple(order)),),
            scale=self.SCALE,
            seed=seed,
        )
        population = scaled_population_config(self.SCALE, days=self.DAYS, seed=seed)
        observation_seed = campaign_observation_seed(seed)
        builder = ExposureEngine(cache_dir=self.cache, background_writes=False)
        entry = builder.get(population, observation_seed, days=self.DAYS)
        self.peer_days = float(sum(entry.daily_online(self.DAYS)))
        bundle = exposure_cache.cache_path(self.cache, population, observation_seed)
        if not (bundle / "meta.json").is_file():
            raise RuntimeError(f"set-up wrote no exposure bundle at {bundle}")
        self.runs = 0

    def run(self) -> Op:
        self.runs += 1
        db = str(self.workdir / f"service-{self.runs}.sqlite")
        engines: List[ExposureEngine] = []

        def engine_factory() -> ExposureEngine:
            engine = ExposureEngine(cache_dir=self.cache)
            engines.append(engine)
            return engine

        start = time.perf_counter()
        plan = grid.plan_grid(self.spec)
        with JobQueue(db) as queue:
            queue.enqueue_plan(plan)
        outcome = runner.execute_grid(db, plan.grid_id, engine_factory, workers=1)
        with ResultStore(db) as store:
            exported = store.export_bytes(plan.grid_id)
        wall = time.perf_counter() - start

        problems = []
        jobs = len(plan.jobs)
        if outcome.done != jobs or outcome.retried or outcome.dead_lettered:
            problems.append(
                f"{outcome.done}/{jobs} jobs done, {outcome.retried} retried, "
                f"{outcome.dead_lettered} dead"
            )
        builds = sum(engine.misses for engine in engines)
        restores = sum(engine.disk_hits for engine in engines)
        if builds != 0:
            problems.append(f"{builds} populations built; the bundle should serve all")
        if restores != 1:
            problems.append(f"{restores} disk restores, not exactly 1")
        failed = jobs if problems else 0
        runs = json.loads(exported)["runs"]
        if len(runs) != jobs:
            problems.append(f"{len(runs)} results exported for {jobs} jobs")
            failed = jobs
        for run in runs:
            curve = run["series"]["figures"]["scenario_prefix_blocking"]["series"]
            ys = [y for _, y in curve["cumulative block"]]
            if any(later < earlier for earlier, later in zip(ys, ys[1:])):
                problems.append(f"{run['job_name']}: prefix-blocking curve decreases")
                failed = min(jobs, failed + 1)
        return Op(
            digest=hashlib.sha256(exported).hexdigest(),
            units=jobs,
            wall=wall,
            work=self.peer_days * outcome.done,
            latencies=list(outcome.job_wall_seconds.values()),
            failed_units=failed,
            problems=problems,
            extra={
                "jobs_done": outcome.done,
                "jobs_retried": outcome.retried,
                "jobs_dead": outcome.dead_lettered,
            },
        )


# --------------------------------------------------------------------------- #
def _build_network(seed: int, routers: int, convergence_rounds: int) -> I2PNetwork:
    """Floodfills first, then one batch of the rest, then convergence — the
    order ``measure_netdb_scale`` and ``measure_degradation`` use."""
    floodfills = max(1, round(routers * 0.1))
    net = I2PNetwork(seed=seed)
    for _ in range(floodfills):
        net.add_router(floodfill=True, bandwidth_tier=BandwidthTier.O)
    net.batch_add_routers(routers - floodfills)
    net.run_convergence_rounds(rounds=convergence_rounds)
    return net


class NetDbChurn(Workload):
    """Router churn on a converged netDb, then a steady tail."""

    name = "netdb-churn"
    calibration = "python"
    ROUTERS = 1500
    CONVERGENCE_ROUNDS = 3
    CHURN_ROUNDS = 20
    STEADY_ROUNDS = 8
    PROBES = 8
    ROUND_HOURS = 0.25
    units = CHURN_ROUNDS + STEADY_ROUNDS

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        rng = random.Random(f"netdb-churn-{seed}")
        non_floodfills = self.ROUTERS - max(1, round(self.ROUTERS * 0.1))
        churn = max(1, non_floodfills // 100)
        # Per round: which non-floodfills leave (indices into the sorted
        # hashes) and the probe (requester, target) index pairs.  Targets
        # index the routers that were present at the previous publish.
        self.schedule = [
            (
                rng.sample(range(non_floodfills), churn),
                [
                    (rng.randrange(self.ROUTERS), rng.randrange(self.ROUTERS - churn))
                    for _ in range(self.PROBES)
                ],
            )
            for _ in range(self.CHURN_ROUNDS)
        ]

    def run(self) -> Op:
        start = time.perf_counter()
        net = _build_network(self.seed, self.ROUTERS, self.CONVERGENCE_ROUNDS)
        stores = 0
        latencies = []
        trail = []
        failed = 0
        problems = []
        for index, (leavers, probes) in enumerate(self.schedule):
            round_start = time.perf_counter()
            net.step_hours(self.ROUND_HOURS)
            non_floodfills = sorted(h for h, r in net.routers.items() if not r.floodfill)
            for position in leavers:
                net.remove_router(non_floodfills[position])
            joined = {net.add_router().hash for _ in leavers}
            everyone = sorted(net.routers)
            targets = [h for h in everyone if h not in joined]
            answered = []
            for requester, target in probes:
                requester_hash = everyone[requester]
                target_hash = targets[target]
                if target_hash == requester_hash:
                    target_hash = targets[(target + 1) % len(targets)]
                info = net.lookup_routerinfo(requester_hash, target_hash)
                answered.append(info is not None and info.hash == target_hash)
            messages = net.publish_all()
            latencies.append(time.perf_counter() - round_start)
            stores += messages
            trail.append([messages, answered])
            if not all(answered):
                failed += 1
                problems.append(f"churn round {index}: {answered.count(False)} probes unanswered")
        for _ in range(self.STEADY_ROUNDS):
            net.step_hours(self.ROUND_HOURS)
            messages = net.publish_all()
            stores += messages
            trail.append([messages])
        wall = time.perf_counter() - start
        digest = sha256(
            canonical_json(
                {
                    "rounds": trail,
                    "routers": len(net.routers),
                    "replay_rounds": net.plane_stats["replay_rounds"],
                }
            )
        )
        return Op(
            digest=digest,
            units=self.units,
            wall=wall,
            work=float(stores),
            latencies=latencies,
            failed_units=failed,
            problems=problems,
        )


# --------------------------------------------------------------------------- #
class NetDbLossy(Workload):
    """The ``lossy-network`` scenario: 20% iid loss on every link."""

    name = "netdb-lossy"
    calibration = "python"

    def prepare(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.spec = resolve_scenario("lossy-network")
        self.rounds = int(self.spec.params.get("rounds", 24))

    def run(self) -> Op:
        start = time.perf_counter()
        out = run_scenario(self.spec, seed=self.seed)
        wall = time.perf_counter() - start
        summary = out.summaries["fault_injection"]
        figure = out.figures["scenario_fault_injection"]
        success = [list(p) for p in figure.get("publish success ratio").points]
        coverage = [list(p) for p in figure.get("netDb coverage").points]
        problems = []
        if summary["rounds"] != self.rounds or len(success) != self.rounds:
            problems.append(f"{len(success)} rounds sampled, not {self.rounds}")
        if any(not 0.0 <= y <= 1.0 for _, y in success):
            problems.append("a round reports a publish success ratio outside [0, 1]")
        if any(not 0.0 < y <= 1.0 for _, y in coverage):
            problems.append("a round reports a netDb coverage outside (0, 1]")
        if not 0.0 < summary["publish_success_mean"] <= 1.0:
            problems.append(f"publish success mean {summary['publish_success_mean']}")
        if summary["store_drops_total"] <= 0 or summary["store_retries_total"] <= 0:
            problems.append("20% loss produced no drops or no retries")
        if not 0.0 < summary["coverage_min"] <= summary["coverage_final"] <= 1.0:
            problems.append(f"coverage {summary['coverage_min']}..{summary['coverage_final']}")
        if not 0.0 < summary["lookup_success_ratio"] <= 1.0:
            problems.append(f"lookup success ratio {summary['lookup_success_ratio']}")
        points = [[float(x), float(y)] for x, y in success + coverage]
        return Op(
            digest=sha256(canonical_json({"summary": summary, "points": points})),
            units=1,
            wall=wall,
            work=float(summary["router_count"] * summary["rounds"]),
            latencies=[wall],
            failed_units=1 if problems else 0,
            problems=problems,
        )


WORKLOADS = {cls.name: cls for cls in (CampaignCold, GridWarm, NetDbChurn, NetDbLossy)}
