"""Per-layer metrics: what the traced run wraps and how it reports it.

``targets()`` lists every wrapper the traced run installs, by layer.
``METRICS`` names each per-layer metric with its unit, how it is computed
from one traced operation, the end-to-end metric it should move (and on
which workload), and the workload where a change to that layer should
show no change.  BENCHMARK.json's ``per_layer`` list must match it; run
``python3 perfbench/run.py --check-spec`` to compare the two.

Timing rules: a ``*_s`` metric for a wrapped function is that function's
*self* time (its span minus nested spans), except two netDb phases:
``convergence_s`` is inclusive, and ``build_s`` runs from a network's
creation to the start of its convergence.  ``<layer>.self_s`` is the
self time of every span of the layer.  ``sim.exposure_cache.save_s`` runs
on the bundle-writer thread, concurrently with the main thread.
"""

from __future__ import annotations

from typing import Callable, List, NamedTuple, Optional

from spans import Tracer

LAYERS = (
    "sim.population",
    "sim.exposure",
    "sim.exposure_cache",
    "core.monitor",
    "core.analyses",
    "core.scenario",
    "enrichment",
    "service",
    "sim.network",
    "sim.faults",
)

ANALYSIS_NAMES = (
    "population",
    "longevity",
    "ip_churn",
    "capacity",
    "geography",
    "blocking",
    "bridges",
    "summary",
)


# --------------------------------------------------------------------------- #
# Wrappers
# --------------------------------------------------------------------------- #
def _created(kind: str):
    def observe(tracer: Tracer, span, args, result) -> None:
        tracer.created[kind].append(args[0])

    return observe


def _count_addresses(tracer: Tracer, span, args, result) -> None:
    tracer.counters["enrichment.addresses"] += len(args[1])


def _bundle_bytes(tracer: Tracer, span, args, result) -> None:
    from repro.sim.exposure_cache import bundle_size

    tracer.counters["sim.exposure_cache.bundle_bytes"] += bundle_size(result)


def _accumulator_peak(tracer: Tracer, span, args, result) -> None:
    peak = result.log.accumulator_memory_bytes()[1]
    key = "core.monitor.accumulator_peak_bytes"
    tracer.counters[key] = max(tracer.counters[key], peak)


def _network_init(tracer: Tracer, span, args, result) -> None:
    """A new network is in its build phase until convergence starts."""
    tracer.created["network"].append(args[0])
    tracer.counters[("build_start", id(args[0]))] = span.start


def _convergence(tracer: Tracer, span, args, result) -> None:
    started = tracer.counters.pop(("build_start", id(args[0])), None)
    if started is not None:
        tracer.counters["sim.network.build_s"] += span.start - started


def _join(tracer: Tracer, span, args, result) -> None:
    if ("build_start", id(args[0])) in tracer.counters:
        span.name = "build_join"


def _publish(tracer: Tracer, span, args, result) -> None:
    """Classify a publish round: fault-aware, replayed, or slow path."""
    net = args[0]
    tracer.counters["sim.network.msgs"] += result
    if net.faults is not None:
        span.layer = "sim.faults"
        return
    seen = tracer.counters[("replays", id(net))]
    replays = net.plane_stats["replay_rounds"]
    span.name = "publish_replay" if replays > seen else "publish_slow"
    tracer.counters[("replays", id(net))] = replays


def _lookup(tracer: Tracer, span, args, result) -> None:
    if args[0].faults is not None:
        span.layer = "sim.faults"
    tracer.counters["lookups"] += 1
    tracer.counters["lookup_hits"] += result is not None


def targets():
    """``(owner, attribute, layer, span name, observe)`` for every wrapper."""
    from repro.core import blocking, scenario
    from repro.core.campaign import MeasurementCampaign
    from repro.core.monitor import MonitoringRouter, ObservationLog
    from repro.enrichment.radix import PrefixIndex
    from repro.service import grid, runner
    from repro.service.queue import JobQueue
    from repro.service.store import ResultStore
    from repro.sim import exposure_cache, faults
    from repro.sim.exposure import ExposureEngine, SharedExposure
    from repro.sim.network import I2PNetwork
    from repro.sim.observation import ObservationModel
    from repro.sim.population import I2PPopulation

    return [
        (I2PPopulation, "__init__", "sim.population", "bootstrap", _created("population")),
        (I2PPopulation, "day_view", "sim.population", "day_view", None),
        (ObservationModel, "draw_day_exposure", "sim.exposure", "draw", None),
        (SharedExposure, "monitor_day_mask", "sim.exposure", "mask", None),
        (SharedExposure, "prefetch_masks", "sim.exposure", "prefetch", None),
        (ExposureEngine, "__init__", "sim.exposure", "engine_init", _created("engine")),
        (ExposureEngine, "get", "sim.exposure", "engine_get", None),
        (ExposureEngine, "flush", "sim.exposure_cache", "flush_wait", None),
        (exposure_cache, "save_exposure", "sim.exposure_cache", "save", _bundle_bytes),
        (exposure_cache, "load_exposure", "sim.exposure_cache", "load", None),
        (exposure_cache.BundleReader, "day_array", "sim.exposure_cache", "day_array", None),
        (MonitoringRouter, "record_day", "core.monitor", "record", None),
        (ObservationLog, "record_day", "core.monitor", "record", None),
        (MeasurementCampaign, "run", "core.monitor", "campaign_loop", _accumulator_peak),
        *[(scenario.ANALYSES, name, "core.analyses", name, None) for name in scenario.ANALYSES],
        (scenario, "prefix_blocking_curve", "core.analyses", "prefix_blocking", None),
        (scenario, "country_distribution", "core.analyses", "country_distribution", None),
        (runner, "run_scenario", "core.scenario", "run_scenario", None),
        (blocking, "censor_profiles", "enrichment", "profiles", None),
        (PrefixIndex, "__init__", "enrichment", "index_build", None),
        (PrefixIndex, "lookup_batch", "enrichment", "lookup_batch", _count_addresses),
        (grid, "plan_grid", "service", "plan", None),
        (runner, "execute_grid", "service", "execute", None),
        (JobQueue, "enqueue_plan", "service", "enqueue", None),
        (JobQueue, "claim_next", "service", "claim", None),
        (JobQueue, "mark_done", "service", "persist", None),
        (ResultStore, "record_result", "service", "persist", None),
        (ResultStore, "export_bytes", "service", "export", None),
        (I2PNetwork, "__init__", "sim.network", "network_init", _network_init),
        (I2PNetwork, "add_router", "sim.network", "join", _join),
        (I2PNetwork, "batch_add_routers", "sim.network", "batch_join", None),
        (I2PNetwork, "remove_router", "sim.network", "leave", None),
        (I2PNetwork, "publish_all", "sim.network", "publish", _publish),
        (I2PNetwork, "explore", "sim.network", "explore", None),
        (I2PNetwork, "lookup_routerinfo", "sim.network", "lookup", _lookup),
        (I2PNetwork, "step_hours", "sim.network", "expire", None),
        (I2PNetwork, "run_convergence_rounds", "sim.network", "convergence", _convergence),
        (faults, "measure_degradation", "sim.faults", "degradation", None),
    ]


# --------------------------------------------------------------------------- #
# Reading one traced operation
# --------------------------------------------------------------------------- #
class OpTrace:
    """The spans and counters of one traced operation."""

    def __init__(self, tracer: Tracer, op) -> None:
        self.tracer = tracer
        self.op = op
        self._self = tracer.self_times()

    def _match(self, layer: Optional[str], name: Optional[str]):
        for span in self.tracer.spans:
            if layer is not None and span.layer != layer:
                continue
            if name is not None and span.name != name:
                continue
            yield span

    def self_s(self, layer=None, name=None) -> float:
        return sum(self._self[s.id] for s in self._match(layer, name))

    def total_s(self, layer, name) -> float:
        return sum(s.seconds for s in self._match(layer, name))

    def calls(self, layer=None, name=None) -> int:
        return sum(1 for _ in self._match(layer, name))

    def counter(self, key) -> float:
        return self.tracer.counters[key]

    def created(self, kind: str) -> list:
        return self.tracer.created[kind]

    def fault_rounds(self) -> list:
        return [s for net in self.created("network") for s in net.fault_metrics.rounds]

    def plane_stat(self, key: str) -> int:
        return sum(net.plane_stats[key] for net in self.created("network"))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


class Metric(NamedTuple):
    name: str
    unit: str
    #: None: ``run.py`` fills the value in (``trace.overhead_ratio`` needs
    #: the untraced reference operation, ``host.kernel_s`` the host-speed
    #: kernel timings).
    compute: Optional[Callable[[OpTrace], float]]
    #: End-to-end metric this layer should move, and on which workload.
    moves: str
    #: Workload(s) where a change to this layer should show no change.
    quiet_on: str
    better: str = "lower"


_NETDB = "netdb-churn, netdb-lossy"
_CAMPAIGNS = "campaign-cold, grid-warm"


METRICS: List[Metric] = [
    Metric("sim.population.bootstrap_s", "s", lambda t: t.self_s("sim.population", "bootstrap"),
           "work_per_ref_s on campaign-cold", "grid-warm, netdb"),
    Metric("sim.population.day_view_s", "s", lambda t: t.self_s("sim.population", "day_view"),
           "work_per_ref_s on campaign-cold", "grid-warm, netdb"),
    Metric("sim.population.identities", "count",
           lambda t: sum(p.total_identities() for p in t.created("population")),
           "work_per_ref_s on campaign-cold", "grid-warm, netdb"),
    Metric("sim.exposure.draw_s", "s", lambda t: t.self_s("sim.exposure", "draw"),
           "work_per_ref_s on campaign-cold", "netdb"),
    Metric("sim.exposure.mask_s", "s",
           lambda t: t.self_s("sim.exposure", "mask") + t.self_s("sim.exposure", "prefetch"),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("sim.exposure.mask_calls", "count", lambda t: t.calls("sim.exposure", "mask"),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("sim.exposure.engine_misses", "count",
           lambda t: sum(e.misses for e in t.created("engine")),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("sim.exposure.engine_disk_hits", "count",
           lambda t: sum(e.disk_hits for e in t.created("engine")),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("sim.exposure_cache.save_s", "s", lambda t: t.total_s("sim.exposure_cache", "save"),
           "work_per_ref_s and peak_rss_mib on campaign-cold", "netdb"),
    Metric("sim.exposure_cache.bundle_bytes", "bytes",
           lambda t: t.counter("sim.exposure_cache.bundle_bytes"),
           "work_per_ref_s and peak_rss_mib on campaign-cold", "netdb"),
    Metric("sim.exposure_cache.flush_wait_s", "s",
           lambda t: t.self_s("sim.exposure_cache", "flush_wait"),
           "work_per_ref_s on campaign-cold", "netdb"),
    Metric("sim.exposure_cache.load_s", "s", lambda t: t.self_s("sim.exposure_cache", "load"),
           "work_per_ref_s on grid-warm", "campaign-cold"),
    Metric("sim.exposure_cache.day_array_s", "s",
           lambda t: t.self_s("sim.exposure_cache", "day_array"),
           "work_per_ref_s on grid-warm", "campaign-cold"),
    Metric("sim.exposure_cache.day_array_calls", "count",
           lambda t: t.calls("sim.exposure_cache", "day_array"),
           "work_per_ref_s on grid-warm", "campaign-cold"),
    Metric("core.monitor.record_s", "s", lambda t: t.self_s("core.monitor", "record"),
           "work_per_ref_s on both campaign workloads, more on grid-warm", "netdb"),
    Metric("core.monitor.record_calls", "count", lambda t: t.calls("core.monitor", "record"),
           "work_per_ref_s on both campaign workloads", "netdb"),
    Metric("core.monitor.accumulator_peak_bytes", "bytes",
           lambda t: t.counter("core.monitor.accumulator_peak_bytes"),
           "peak_rss_mib on both campaign workloads", "netdb"),
    *[
        Metric(f"core.analyses.{name}_s", "s",
               (lambda n: lambda t: t.self_s("core.analyses", n))(name),
               "work_per_ref_s on campaign-cold", "netdb")
        for name in ANALYSIS_NAMES
    ],
    Metric("core.analyses.prefix_blocking_s", "s",
           lambda t: t.self_s("core.analyses", "prefix_blocking"),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("enrichment.lookup_s", "s", lambda t: t.self_s("enrichment", "lookup_batch"),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("enrichment.addresses", "count", lambda t: t.counter("enrichment.addresses"),
           "work_per_ref_s on grid-warm", "netdb"),
    Metric("enrichment.profile_s", "s", lambda t: t.self_s("enrichment", "profiles"),
           "work_per_ref_s on grid-warm", "netdb"),
    *[
        Metric(f"service.{phase}_s", "s",
               (lambda p: lambda t: t.self_s("service", p))(phase),
               "work_per_ref_s on grid-warm", "campaign-cold, netdb")
        for phase in ("plan", "enqueue", "claim", "persist", "export")
    ],
    Metric("service.overhead_s_per_job", "s",
           lambda t: _ratio(t.self_s("service"), t.op.extra.get("jobs_done", 0)),
           "work_per_ref_s on grid-warm", "campaign-cold, netdb"),
    *[
        Metric(f"service.{key}", "count",
               (lambda k: lambda t: t.op.extra.get(k, 0))(key),
               "failed/attempted on grid-warm", "campaign-cold, netdb",
               "higher" if key == "jobs_done" else "lower")
        for key in ("jobs_done", "jobs_retried", "jobs_dead")
    ],
    Metric("sim.network.build_s", "s", lambda t: t.counter("sim.network.build_s"),
           f"work_per_ref_s on {_NETDB}", _CAMPAIGNS),
    Metric("sim.network.convergence_s", "s", lambda t: t.total_s("sim.network", "convergence"),
           f"work_per_ref_s on {_NETDB}", _CAMPAIGNS),
    Metric("sim.network.publish_slow_s", "s", lambda t: t.self_s("sim.network", "publish_slow"),
           "op_p50_ref_s and work_per_ref_s on netdb-churn", _CAMPAIGNS),
    Metric("sim.network.publish_replay_s", "s",
           lambda t: t.self_s("sim.network", "publish_replay"),
           "work_per_ref_s on netdb-churn (steady tail)", _CAMPAIGNS),
    Metric("sim.network.replay_ratio", "ratio",
           lambda t: _ratio(t.calls("sim.network", "publish_replay"),
                            t.calls("sim.network", "publish_replay")
                            + t.calls("sim.network", "publish_slow")),
           "work_per_ref_s on netdb-churn (steady tail)", _CAMPAIGNS, "higher"),
    Metric("sim.network.explore_s", "s", lambda t: t.self_s("sim.network", "explore"),
           f"work_per_ref_s on {_NETDB}", _CAMPAIGNS),
    Metric("sim.network.lookup_s", "s", lambda t: t.self_s(None, "lookup"),
           f"op_p50_ref_s on {_NETDB}", _CAMPAIGNS),
    Metric("sim.network.lookup_success_ratio", "ratio",
           lambda t: _ratio(t.counter("lookup_hits"), t.counter("lookups")),
           f"op_p50_ref_s on {_NETDB}", _CAMPAIGNS, "higher"),
    Metric("sim.network.join_s", "s",
           lambda t: t.self_s("sim.network", "join"),
           "op_p50_ref_s on netdb-churn", _CAMPAIGNS),
    Metric("sim.network.expire_s", "s", lambda t: t.self_s("sim.network", "expire"),
           f"op_p50_ref_s on {_NETDB}", _CAMPAIGNS),
    Metric("sim.network.msgs", "count", lambda t: t.counter("sim.network.msgs"),
           f"work_per_ref_s on {_NETDB}", _CAMPAIGNS),
    Metric("sim.network.ff_view_rebuilds", "count", lambda t: t.plane_stat("ff_view_rebuilds"),
           "op_p50_ref_s on netdb-churn", _CAMPAIGNS),
    Metric("sim.network.flood_table_rebuilds", "count",
           lambda t: t.plane_stat("flood_table_rebuilds"),
           "op_p50_ref_s on netdb-churn", _CAMPAIGNS),
    Metric("sim.faults.store_drops", "count",
           lambda t: sum(s.store_drops for s in t.fault_rounds()),
           "op_p50_ref_s on netdb-lossy", "netdb-churn"),
    Metric("sim.faults.store_retries", "count",
           lambda t: sum(s.store_retries for s in t.fault_rounds()),
           "op_p50_ref_s on netdb-lossy", "netdb-churn"),
    Metric("sim.faults.lookup_timeouts", "count",
           lambda t: sum(s.lookup_timeouts for s in t.fault_rounds()),
           "op_p50_ref_s on netdb-lossy", "netdb-churn"),
    Metric("sim.faults.retry_ratio", "ratio",
           lambda t: _ratio(sum(s.store_retries for s in t.fault_rounds()),
                            sum(s.store_attempts for s in t.fault_rounds())),
           "op_p50_ref_s on netdb-lossy", "netdb-churn"),
    Metric("sim.faults.publish_success_mean", "ratio",
           lambda t: _ratio(sum(s.publish_success_ratio for s in t.fault_rounds()),
                            len(t.fault_rounds())),
           "op_p50_ref_s on netdb-lossy", "netdb-churn", "higher"),
    *[
        Metric(f"{layer}.self_s", "s", (lambda l: lambda t: t.self_s(l))(layer),
               "the end-to-end metrics of the workloads that reach the layer",
               "the workloads that do not reach it")
        for layer in LAYERS
    ],
    Metric("trace.unattributed_s", "s",
           lambda t: t.op.wall - t.tracer.main_root_seconds(), "none", "none"),
    Metric("trace.overhead_ratio", "ratio", None, "none", "none"),
    Metric("host.kernel_s", "s", None, "none (the host's speed during the run)", "none"),
]
