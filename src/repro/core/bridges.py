"""Bridge strategies for censored users (Section 7.1).

The paper's discussion proposes helping censored users with I2P-style
"bridges": the peer IPs the censor has *not* yet blacklisted are
predominantly newly joined peers, and firewalled peers cannot be blocked by
address at all.  The analyses here quantify both observations on top of a
finished measurement campaign:

* what fraction of the peers that appeared on a given day escaped the
  censor's blacklist, split by peer age (newly joined vs long-lived);
* how long a newly joined peer remains unblocked ("bridge survival") as the
  censor keeps monitoring;
* how large the pool of firewalled peers (unblockable by address) is.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from ..analysis.series import FigureData
from .blocking import censor_last_seen
from .campaign import CampaignResult
from .monitor import shared_address_table

__all__ = [
    "BridgePoolSummary",
    "bridge_pool_summary",
    "bridge_survival_curve",
]


@dataclass(frozen=True)
class BridgePoolSummary:
    """Composition of the candidate bridge pool on one evaluation day."""

    evaluation_day: int
    censor_routers: int
    blacklist_window_days: int
    total_online_known_ip: int
    unblocked_known_ip: int
    unblocked_newly_joined: int
    unblocked_long_lived: int
    firewalled_pool: int

    @property
    def unblocked_share(self) -> float:
        if self.total_online_known_ip == 0:
            return 0.0
        return self.unblocked_known_ip / self.total_online_known_ip

    @property
    def new_peer_share_of_unblocked(self) -> float:
        if self.unblocked_known_ip == 0:
            return 0.0
        return self.unblocked_newly_joined / self.unblocked_known_ip

    def as_dict(self) -> Dict[str, float]:
        return {
            "evaluation_day": self.evaluation_day,
            "censor_routers": self.censor_routers,
            "blacklist_window_days": self.blacklist_window_days,
            "total_online_known_ip": self.total_online_known_ip,
            "unblocked_known_ip": self.unblocked_known_ip,
            "unblocked_newly_joined": self.unblocked_newly_joined,
            "unblocked_long_lived": self.unblocked_long_lived,
            "firewalled_pool": self.firewalled_pool,
            "unblocked_share": self.unblocked_share,
            "new_peer_share_of_unblocked": self.new_peer_share_of_unblocked,
        }


def bridge_pool_summary(
    result: CampaignResult,
    censor_routers: int = 10,
    blacklist_window_days: int = 5,
    evaluation_day: Optional[int] = None,
    new_peer_age_days: int = 2,
) -> BridgePoolSummary:
    """Quantify the unblocked / firewalled bridge pool on one day.

    The candidate pool is assessed against the *union* of all monitoring
    observations for that day (the best available approximation of the
    daily online population), while the censor uses only its first
    ``censor_routers`` routers and its blacklist window.  Each online
    known-IP peer's campaign address ids
    (:meth:`ObservationLog.known_ip_presence_on`) are tested against the
    blacklist mask in one segmented pass; no per-peer aggregates or address
    sets are materialised for columnar runs.
    """
    if evaluation_day is None:
        evaluation_day = len(result.log.daily) - 1
    # The peers' addresses are interned before the blacklist mask is sized.
    first_days, addresses = result.log.known_ip_presence_on(evaluation_day)
    blacklist = (
        censor_last_seen(
            result.monitors, censor_routers, evaluation_day, blacklist_window_days
        )
        >= 0
    )
    shared_address_table([result.log, *result.monitors[:censor_routers]])
    firewalled_pool = result.log.daily[evaluation_day].firewalled_peers

    unblocked = ~addresses.blocked_by(blacklist)
    newly_joined = evaluation_day - first_days <= new_peer_age_days
    unblocked_new = int(np.count_nonzero(unblocked & newly_joined))
    unblocked_count = int(np.count_nonzero(unblocked))

    return BridgePoolSummary(
        evaluation_day=evaluation_day,
        censor_routers=censor_routers,
        blacklist_window_days=blacklist_window_days,
        total_online_known_ip=len(addresses),
        unblocked_known_ip=unblocked_count,
        unblocked_newly_joined=unblocked_new,
        unblocked_long_lived=unblocked_count - unblocked_new,
        firewalled_pool=firewalled_pool,
    )


def bridge_survival_curve(
    result: CampaignResult,
    censor_routers: int = 10,
    blacklist_window_days: int = 30,
    cohort_day: Optional[int] = None,
    horizon_days: int = 10,
) -> FigureData:
    """How long newly joined peers stay unblocked as the censor keeps watching.

    The cohort is the set of peers first observed on ``cohort_day``; for
    each subsequent day the curve reports the fraction of the cohort whose
    addresses are still absent from the censor's blacklist.
    """
    if cohort_day is None:
        cohort_day = max(0, len(result.log.daily) - horizon_days - 1)
    last_day = min(len(result.log.daily) - 1, cohort_day + horizon_days)

    cohort = result.log.known_ip_cohort(cohort_day)
    figure = FigureData(
        figure_id="ablation_bridges",
        title="Survival of newly joined peers as censorship bridges",
        x_label="days since first observation",
        y_label="fraction still unblocked (%)",
    )
    series = figure.new_series("new-peer bridges unblocked")
    if not cohort:
        figure.add_note("empty cohort: no newly joined peers on the cohort day")
        return figure

    shared_address_table([result.log, *result.monitors[:censor_routers]])
    # Walk the days in order, folding each day's censor observations into
    # one latest-day-seen array: on day d it holds no day past d, so the
    # blacklist is every id seen since the window opened.
    seen: Optional[np.ndarray] = None
    for day in range(max(0, cohort_day - blacklist_window_days + 1), last_day + 1):
        seen = censor_last_seen(result.monitors, censor_routers, day, 1, seen)
        if day < cohort_day:
            continue
        blacklist = seen >= max(0, day - blacklist_window_days + 1)
        surviving = len(cohort) - int(np.count_nonzero(cohort.blocked_by(blacklist)))
        series.add(day - cohort_day, surviving / len(cohort) * 100.0)
    figure.add_note(
        f"cohort: {len(cohort)} peers first observed on day {cohort_day + 1}; "
        f"censor: {censor_routers} routers, {blacklist_window_days}-day blacklist"
    )
    return figure
