"""Probabilistic address-based blocking model (Section 6.2, Figure 13).

The model has two sides:

* a **censor** operating *k* monitoring routers inside the network.  Every
  peer IP address the censor observes is added to a blacklist; the blacklist
  can retain addresses for a configurable number of days (the paper
  evaluates windows of 1, 5, 10, 20, and 30 days);
* a **victim**: a long-term, stable I2P client whose netDb contains the
  RouterInfos (and therefore the peer IPs) it needs to build tunnels.

The *blocking rate* is the fraction of the victim's known peer IPs that
also appear in the censor's blacklist — precisely the paper's metric
("the rate of peer IP addresses seen in the netDb of the victim, which can
also be found in the netDb of routers that are controlled by the censor").

Blacklists and the victim's netDb are id arrays over the campaign's
:class:`~repro.core.monitor.AddressTable`, so every rate is a
``count_nonzero`` over boolean masks; :func:`censor_blacklist` and
:func:`victim_known_ips` decode to ``Set[str]`` for callers that want
address strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..analysis.series import FigureData
from ..enrichment.base import GeoProvider
from ..enrichment.provider import resolve_provider
from ..enrichment.radix import PrefixIndex
from ..sim.geo import GeoRegistry
from .campaign import CampaignResult
from .monitor import MonitoringRouter, shared_address_table

__all__ = [
    "BlockingAssessment",
    "CensorProfile",
    "blocking_rate",
    "censor_blacklist",
    "censor_last_seen",
    "victim_known_ips",
    "blocking_assessment",
    "blocking_curve",
    "country_blocking_curve",
    "censor_profiles",
    "prefix_blocking_curve",
]


def blocking_rate(censor_ips: Set[str], victim_ips: Set[str]) -> float:
    """Fraction of the victim's known peer IPs covered by the censor."""
    if not victim_ips:
        return 0.0
    return len(censor_ips & victim_ips) / len(victim_ips)


def _validate_router_count(
    monitors: Sequence[MonitoringRouter], router_count: int
) -> None:
    if router_count <= 0:
        raise ValueError("router_count must be positive")
    if router_count > len(monitors):
        raise ValueError(
            f"censor has only {len(monitors)} routers, requested {router_count}"
        )


def censor_last_seen(
    monitors: Sequence[MonitoringRouter],
    router_count: int,
    evaluation_day: int,
    window_days: int,
    seen: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per address id of the monitors' shared table: the latest day in the
    ``window_days`` days ending on ``evaluation_day`` on which any of the
    censor's first ``router_count`` routers observed it, else -1.

    ``seen`` (an earlier result) is folded in; ``>= 0`` is the blacklist
    as a mask over ids.  The array covers every id interned before it was
    built; callers intern the ids they test against it first.
    """
    _validate_router_count(monitors, router_count)
    censors = monitors[:router_count]
    shared_address_table(censors)
    for monitor in censors:
        seen = monitor.last_seen(evaluation_day, window_days, seen)
    assert seen is not None
    return seen


def censor_blacklist(
    monitors: Sequence[MonitoringRouter],
    router_count: int,
    evaluation_day: int,
    window_days: int,
) -> Set[str]:
    """The censor's blacklist using its first ``router_count`` routers and a
    ``window_days``-day retention window ending on ``evaluation_day``."""
    seen = censor_last_seen(monitors, router_count, evaluation_day, window_days)
    return monitors[0].addresses.decode(np.flatnonzero(seen >= 0))


def victim_known_ips(
    victim: MonitoringRouter, evaluation_day: int, history_days: int = 7
) -> Set[str]:
    """The peer IPs present in the victim's netDb on the evaluation day.

    A stable client accumulates RouterInfos over its recent participation;
    ``history_days`` bounds how far back entries are retained (RouterInfos
    of long-gone peers are eventually dropped from the netDb).
    """
    return victim.ips_in_window(evaluation_day, history_days)


@dataclass(frozen=True)
class BlockingAssessment:
    """One evaluated censor configuration."""

    router_count: int
    window_days: int
    evaluation_day: int
    censor_ip_count: int
    victim_ip_count: int
    blocked_ip_count: int
    rate: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "router_count": self.router_count,
            "window_days": self.window_days,
            "evaluation_day": self.evaluation_day,
            "censor_ip_count": self.censor_ip_count,
            "victim_ip_count": self.victim_ip_count,
            "blocked_ip_count": self.blocked_ip_count,
            "rate": self.rate,
        }


def _percent(count: int, total: int) -> float:
    return (count / total * 100.0) if total else 0.0


def _validate_windows(windows: Sequence[int]) -> Tuple[int, ...]:
    checked = tuple(windows)
    if not checked:
        raise ValueError("at least one blacklist window is required")
    for window in checked:
        if isinstance(window, bool) or not isinstance(window, (int, np.integer)) or window <= 0:
            raise ValueError(f"blacklist windows must be positive integers (got {window!r})")
    return tuple(int(window) for window in checked)


def blocking_assessment(
    result: CampaignResult,
    router_count: int,
    window_days: int = 1,
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
) -> BlockingAssessment:
    """Evaluate one (router count, blacklist window) censor configuration."""
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    shared_address_table([result.victim, *result.monitors[:router_count]])
    victim_ids = result.victim.address_ids_in_window(evaluation_day, victim_history_days)
    blacklist = (
        censor_last_seen(result.monitors, router_count, evaluation_day, window_days) >= 0
    )
    victim_count = int(victim_ids.size)
    blocked = int(np.count_nonzero(blacklist[victim_ids]))
    return BlockingAssessment(
        router_count=router_count,
        window_days=window_days,
        evaluation_day=evaluation_day,
        censor_ip_count=int(np.count_nonzero(blacklist)),
        victim_ip_count=victim_count,
        blocked_ip_count=blocked,
        rate=(blocked / victim_count) if victim_count else 0.0,
    )


def blocking_curve(
    result: CampaignResult,
    router_counts: Optional[Sequence[int]] = None,
    windows: Sequence[int] = (1, 5, 10, 20, 30),
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
) -> FigureData:
    """Figure 13: blocking rate vs censor routers, one series per window.

    The censor's fleet is folded in fleet order into one array holding,
    per address id, the latest day any router so far observed it within
    the longest window; each (router count, window) rate is then one
    comparison over the victim's ids.  Points are emitted in the caller's
    ``router_counts`` order.
    """
    windows = _validate_windows(windows)
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if router_counts is None:
        router_counts = list(range(1, len(result.monitors) + 1))
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1

    figure = FigureData(
        figure_id="figure_13",
        title="Blocking rates under different blacklist time windows",
        x_label="routers under censor control",
        y_label="blocking rate (%)",
    )
    victim_ids = result.victim.address_ids_in_window(evaluation_day, victim_history_days)
    total = int(victim_ids.size)
    figure.add_note(
        f"victim netDb: {total} peer IPs "
        f"(history window {victim_history_days} days, evaluation day {evaluation_day + 1})"
    )
    counts = [int(count) for count in router_counts]
    for count in counts:
        _validate_router_count(result.monitors, count)
    wanted = set(counts)
    max_count = max(counts, default=0)
    censors = result.monitors[:max_count]
    shared_address_table([result.victim, *censors])
    # A window keeps the days from max(0, evaluation_day - window + 1) on.
    thresholds = [max(0, evaluation_day - window + 1) for window in windows]
    seen: Optional[np.ndarray] = None
    rates: Dict[int, List[float]] = {}
    for count, monitor in enumerate(censors, start=1):
        seen = monitor.last_seen(evaluation_day, max(windows), seen)
        if count in wanted:
            victim_seen = seen[victim_ids]
            rates[count] = [
                _percent(int(np.count_nonzero(victim_seen >= threshold)), total)
                for threshold in thresholds
            ]
    for index, window in enumerate(windows):
        series = figure.new_series(f"{window} day" + ("s" if window > 1 else ""))
        for count in counts:
            series.add(count, rates[count][index])
    return figure


def country_blocking_curve(
    result: CampaignResult,
    countries: Sequence[str],
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
    registry: Optional[GeoRegistry] = None,
    provider: Optional[GeoProvider] = None,
) -> FigureData:
    """Country-level (GeoIP) blocking: netDb loss under national address blocks.

    Models a censor that blocks by *geolocation* instead of an observed
    blacklist: every address that resolves to a blocked country is
    unreachable, no in-network monitoring required.  For each prefix of
    ``countries`` the curve reports the fraction of the victim client's
    known peer IPs that the combined country block removes — the
    country-level analogue of Figure 13's address-blacklist rates.
    """
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if not countries:
        raise ValueError("at least one country is required")
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    geo = resolve_provider(registry, provider)
    victim_ips = victim_known_ips(result.victim, evaluation_day, victim_history_days)
    figure = FigureData(
        figure_id="scenario_country_blocking",
        title="Victim netDb loss under country-level address blocking",
        x_label="countries blocked (cumulative)",
        y_label="victim netDb IPs blocked (%)",
    )
    per_country = figure.new_series("single country")
    cumulative = figure.new_series("cumulative block")
    country_of: Dict[str, Optional[str]] = {
        ip: geo.lookup(ip).country for ip in victim_ips
    }
    total = len(victim_ips)
    blocked_cumulative: Set[str] = set()
    for rank, country in enumerate(countries, start=1):
        in_country = {ip for ip, code in country_of.items() if code == country}
        blocked_cumulative |= in_country
        per_country.add(rank, _percent(len(in_country), total))
        cumulative.add(rank, _percent(len(blocked_cumulative), total))
    figure.add_note(
        "countries by rank: "
        + " ".join(f"{rank}:{code}" for rank, code in enumerate(countries, start=1))
    )
    figure.add_note(
        f"victim netDb: {total} peer IPs (evaluation day {evaluation_day + 1})"
    )
    return figure


# --------------------------------------------------------------------------- #
# Prefix-granular censorship (the enrichment plane's blocking model)
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CensorProfile:
    """One national censor's block policy: a set of CIDR prefixes.

    Real-world blocking operates at announcement granularity — a censor
    null-routes or filters the prefixes originating in (or serving) its
    jurisdiction, not individual addresses.  The profile carries the
    prefixes the enrichment provider attributes to the censor's country.
    """

    country: str
    prefixes: Tuple[str, ...]

    @property
    def prefix_count(self) -> int:
        return len(self.prefixes)


def censor_profiles(
    countries: Sequence[str],
    registry: Optional[GeoRegistry] = None,
    provider: Optional[GeoProvider] = None,
) -> List[CensorProfile]:
    """Per-country censor profiles from the enrichment provider's tables."""
    if not countries:
        raise ValueError("at least one country is required")
    geo = resolve_provider(registry, provider)
    return [
        CensorProfile(country=country, prefixes=geo.country_prefixes(country))
        for country in countries
    ]


def prefix_blocking_curve(
    result: CampaignResult,
    countries: Sequence[str],
    evaluation_day: Optional[int] = None,
    victim_history_days: int = 2,
    registry: Optional[GeoRegistry] = None,
    provider: Optional[GeoProvider] = None,
) -> FigureData:
    """Victim netDb loss under prefix-granular censorship.

    The prefix-level analogue of :func:`country_blocking_curve`: each
    censor blocks the CIDR prefixes its country originates (its
    :class:`CensorProfile`), and membership is evaluated with the
    longest-prefix-match index over the victim's known peer addresses.
    The x axis is the *cumulative number of blocked prefixes* as censors
    join the blocking coalition in the given order; the two series report
    each censor's own coverage and the coalition's combined coverage of
    the victim's netDb.
    """
    if result.victim is None:
        raise ValueError("the campaign was run without a victim client")
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    profiles = censor_profiles(countries, registry, provider)
    victim_ids = result.victim.address_ids_in_window(evaluation_day, victim_history_days)
    total = int(victim_ids.size)
    # IPv6 addresses fall outside an IPv4 prefix block: they stay reachable
    # and only contribute to the denominator.
    values = result.victim.addresses.ipv4_values()[victim_ids]
    addrs = values[values >= 0].astype(np.uint32)

    figure = FigureData(
        figure_id="scenario_prefix_blocking",
        title="Victim netDb loss under prefix-granular censorship",
        x_label="prefixes blocked (cumulative)",
        y_label="victim netDb IPs blocked (%)",
    )
    per_censor = figure.new_series("single censor")
    cumulative = figure.new_series("cumulative block")
    blocked = np.zeros(addrs.size, dtype=bool)
    prefix_cursor = 0
    labels: List[str] = []
    for rank, profile in enumerate(profiles, start=1):
        if profile.prefixes and addrs.size:
            index = PrefixIndex((prefix, 1) for prefix in profile.prefixes)
            own = index.lookup_batch(addrs) != 0
        else:
            own = np.zeros(addrs.size, dtype=bool)
        blocked |= own
        prefix_cursor += profile.prefix_count
        per_censor.add(prefix_cursor, _percent(int(own.sum()), total))
        cumulative.add(prefix_cursor, _percent(int(blocked.sum()), total))
        labels.append(f"{rank}:{profile.country}({profile.prefix_count})")
    figure.add_note("censors by rank (prefixes): " + " ".join(labels))
    figure.add_note(
        f"victim netDb: {total} peer IPs (evaluation day {evaluation_day + 1})"
    )
    return figure
