"""Monitoring routers and observation aggregation.

The paper's measurement pipeline (Section 4.3) snapshots each monitoring
router's netDb directory hourly and wipes it daily, so the unit of analysis
is *"peer X was observed on day D with RouterInfo contents Y"*.  This
module provides:

* :class:`MonitoringRouter` — one observing router (its configuration plus
  what it has seen so far, both cumulatively and per day);
* :class:`PeerObservationAggregate` — everything the pipeline retains about
  one peer across the campaign (days seen, addresses, capacity flags,
  geographic placement), mirroring the minimal data collection described in
  the ethics section (hash, addresses, capacity);
* :class:`DailyStats` and :class:`ObservationLog` — the campaign-wide
  aggregation that the per-figure analyses consume.

Recording has two paths.  Columnar day views (the kind
:class:`~repro.sim.population.I2PPopulation` produces) are recorded with
NumPy mask arithmetic: cumulative coverage is a boolean vector over the
global peer index, daily statistics are ``count_nonzero`` over the day's
masks, and per-peer address history is appended to a columnar *event log*
(one row per IP-assignment capture, countries interned to integer codes)
only when a peer's assignment *version* actually advanced.  Every figure
analysis — longevity, churn, capacity, geography, population split,
bridges, blocking — consumes the accumulator arrays directly through the
``ObservationLog`` accessors; the per-peer
:class:`PeerObservationAggregate` objects remain available as a lazily
materialised compatibility view (:attr:`ObservationLog.peers`) for tests
and external callers.  Snapshot-backed views fall back to the original
row-oriented loop, which the equivalence tests use as the reference.

Addresses are interned once per campaign in an :class:`AddressTable`
shared by the monitors, the victim client and the log: a monitor's daily
IPs are ``(day, packed mask)`` entries over the table's day arrays, and
per-peer address histories are id arrays (:class:`PeerAddresses`), so the
censor analyses (blacklists, bridges, the victim's netDb) run as NumPy
bitmap arithmetic and build no ``Set[str]``.
"""

from __future__ import annotations

import itertools
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Collection, Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..enrichment.base import ipv4_to_int
from ..sim.columns import TIER_ORDER, PeerColumns
from ..sim.observation import MonitorMode, MonitorSpec
from ..sim.peer import PeerDaySnapshot
from ..sim.population import DayView

__all__ = [
    "AddressTable",
    "DailyIpSets",
    "MonitoringRouter",
    "PeerAddresses",
    "PeerObservationAggregate",
    "DailyStats",
    "ObservationLog",
    "ip_set_materialisations",
    "reset_ip_set_materialisations",
    "shared_address_table",
]


#: Running count of ``Set[str]`` address sets decoded from an
#: :class:`AddressTable`.  The censor analyses work on interned ids, so a
#: campaign's analyses leave it at zero (the tests enforce it).
_IP_SET_MATERIALISATIONS = 0


def ip_set_materialisations() -> int:
    """Address sets decoded to ``Set[str]`` since the last reset."""
    return _IP_SET_MATERIALISATIONS


def reset_ip_set_materialisations() -> None:
    global _IP_SET_MATERIALISATIONS
    _IP_SET_MATERIALISATIONS = 0


class AddressTable:
    """Campaign-wide interned address table: one dense int id per address.

    A campaign's monitors, victim client and observation log share one
    table, so blacklists, the victim's netDb and per-peer address histories
    are id arrays over a single universe.  Recording only *registers* a
    day's IP/IPv6 arrays (by reference, or as a loader for disk-backed
    days); a day is interned on first use, once however many monitors
    recorded it.  ``None`` (an unset IPv6 slot) interns to ``-1``.
    """

    def __init__(self) -> None:
        # A missing key takes the next id from the counter, so interning is
        # one C-level ``map`` over the addresses; None is pinned to -1.
        self._ids: Dict[Optional[str], int] = defaultdict(itertools.count().__next__)
        self._ids[None] = -1
        self._labels: List[str] = []
        self._ipv4 = np.empty(0, dtype=np.int64)
        self._sources: Dict[int, object] = {}
        self._day_ids: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        self._store: Optional[PeerColumns] = None

    def __len__(self) -> int:
        return len(self._ids) - 1

    def intern(self, addresses: Collection[Optional[str]]) -> np.ndarray:
        """Ids of ``addresses``, new ones numbered in first-seen order."""
        return np.fromiter(
            map(self._ids.__getitem__, addresses), dtype=np.int32, count=len(addresses)
        )

    def register_day(self, store: PeerColumns, day: int, source: object) -> None:
        """Register day ``day``'s ``(ip, ipv6, valid_ip)`` columns, or a
        loader returning them, for interning on first use."""
        if self._store is None:
            self._store = store
        elif store is not self._store:
            raise ValueError(
                "address table already holds days of a different population"
            )
        if day not in self._day_ids:
            self._sources.setdefault(day, source)

    def day_ids(self, day: int) -> Tuple[np.ndarray, np.ndarray]:
        """Day ``day``'s usable addresses as ``(rows, ids)``: the online-peer
        row and address id of every set IP and IPv6 slot of a peer with a
        valid address (the only ones a monitor records)."""
        interned = self._day_ids.get(day)
        if interned is None:
            source = self._sources.pop(day)
            ip, ipv6, valid = source() if callable(source) else source
            present = [valid & np.not_equal(column, None) for column in (ip, ipv6)]
            rows = np.concatenate([np.flatnonzero(mask) for mask in present])
            addresses = np.concatenate([ip[present[0]], ipv6[present[1]]])
            interned = (rows, self.intern(addresses.tolist()))
            self._day_ids[day] = interned
        return interned

    def _synced_labels(self) -> List[str]:
        if len(self._labels) < len(self):
            self._labels.extend(
                itertools.islice(self._ids, len(self._labels) + 1, None)
            )
        return self._labels

    def decode(self, ids: np.ndarray) -> Set[str]:
        """The address strings behind ``ids`` (counted: see
        :func:`ip_set_materialisations`)."""
        global _IP_SET_MATERIALISATIONS
        _IP_SET_MATERIALISATIONS += 1
        labels = self._synced_labels()
        return {labels[i] for i in ids.tolist()}

    def ipv4_values(self) -> np.ndarray:
        """Per id: the IPv4 address as an integer, or -1 for IPv6.

        Extended as the table grows, so each address is parsed once per
        table, however many analyses ask.
        """
        done = self._ipv4.size
        if done < len(self):
            parsed = (ipv4_to_int(a) for a in self._synced_labels()[done:])
            fresh = np.array([-1 if v is None else v for v in parsed], dtype=np.int64)
            self._ipv4 = np.concatenate((self._ipv4, fresh))
        return self._ipv4


def shared_address_table(owners: Iterable[object]) -> AddressTable:
    """The one :class:`AddressTable` that every owner (monitor, victim,
    log) records into; id arrays from different tables do not mix."""
    tables = {id(owner.addresses): owner.addresses for owner in owners}  # type: ignore[attr-defined]
    if len(tables) != 1:
        raise ValueError(
            "monitors, victim and log must record into one address table"
        )
    return tables.popitem()[1]


def _fit(seen: Optional[np.ndarray], size: int) -> np.ndarray:
    """``seen`` grown to ``size`` entries, new entries -1 (never seen)."""
    if seen is not None and seen.size >= size:
        return seen
    grown = np.full(size, -1, dtype=np.int32)
    if seen is not None:
        grown[: seen.size] = seen
    return grown


class DailyIpSets(Sequence):
    """One monitor's per-day observed addresses, as ids over an
    :class:`AddressTable`.

    Columnar recording appends ``(day, packed mask, count)`` entries: the
    day's address arrays are registered once in the shared table (by
    reference, or as a bundle loader for streamed days) and the entry keeps
    only the bit-packed observation mask over the day's online peers.
    Row-oriented recording interns its ``Set[str]`` into the same table.
    Window queries (:meth:`last_seen`) work on ids; indexing decodes one
    day back to a ``Set[str]`` for tests and the CLI.
    """

    def __init__(self, table: Optional[AddressTable] = None) -> None:
        self.table = AddressTable() if table is None else table
        self._entries: List[object] = []

    def append(self, ip_set: Set[str]) -> None:
        self._entries.append(self.table.intern(ip_set))

    def append_day(self, view: DayView, selection: np.ndarray) -> None:
        """Record the addresses of the day's peers under ``selection``."""
        cols = view.columns
        assert cols is not None
        loader = getattr(view, "address_loader", None)
        self.table.register_day(
            cols.columns,
            view.day,
            loader if loader is not None else (cols.ip, cols.ipv6, cols.valid_ip),
        )
        self._entries.append((view.day, np.packbits(selection), cols.count))

    def day_ids(self, index: int) -> np.ndarray:
        """Address ids observed on recorded day ``index`` (may repeat)."""
        entry = self._entries[index]
        if isinstance(entry, np.ndarray):
            return entry
        day, packed_mask, count = entry  # type: ignore[misc]
        rows, ids = self.table.day_ids(day)
        mask = np.unpackbits(packed_mask, count=count).view(bool)
        # np.compress, not ids[...]: boolean indexing measured ~3x slower.
        return np.compress(mask[rows], ids)

    def last_seen(
        self, end: int, window: int, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Per address id: the latest day index in the ``window`` days
        ending at ``end`` (inclusive) on which it was observed, else -1.

        ``out`` (another monitor's result over the same table) is folded
        in, so a censor's fleet reduces to one array.  The result covers
        every id interned so far.
        """
        start = max(0, end - window + 1)
        stop = min(end, len(self._entries) - 1)
        # Intern the window's days before sizing the array.
        days = [(index, self.day_ids(index)) for index in range(start, stop + 1)]
        seen = _fit(out, len(self.table))
        for index, ids in days:
            seen[ids] = np.maximum(seen[ids], index)
        return seen

    def __len__(self) -> int:
        return len(self._entries)

    def __getitem__(self, index: int) -> Set[str]:  # type: ignore[override]
        return self.table.decode(self.day_ids(index))

    def __repr__(self) -> str:
        return f"DailyIpSets(days={len(self._entries)})"


def _observed_mask(view: DayView, observed: Union[np.ndarray, Iterable[int]]) -> np.ndarray:
    """Normalise an observation (mask, index array, or index iterable) to a
    boolean mask over the day's online peers."""
    count = view.online_count
    if isinstance(observed, np.ndarray):
        if observed.dtype == np.bool_:
            if observed.size != count:
                raise ValueError("observation mask length does not match the day")
            return observed
        indices = observed.astype(np.int64, copy=False)
    else:
        indices = np.fromiter((int(i) for i in observed), dtype=np.int64)
    mask = np.zeros(count, dtype=bool)
    if indices.size:
        mask[indices] = True
    return mask


def _observed_indices(
    observed: Union[np.ndarray, Iterable[int]]
) -> Union[np.ndarray, Iterable[int]]:
    """Normalise a boolean mask to indices for the row-oriented path."""
    if isinstance(observed, np.ndarray) and observed.dtype == np.bool_:
        return np.nonzero(observed)[0]
    return observed


class MonitoringRouter:
    """One monitoring router plus its collected observations."""

    def __init__(
        self,
        spec: MonitorSpec,
        collect_daily_ips: bool = False,
        collect_daily_peers: bool = False,
        addresses: Optional[AddressTable] = None,
    ) -> None:
        self.spec = spec
        self.collect_daily_ips = collect_daily_ips
        self.collect_daily_peers = collect_daily_peers
        self.daily_observed_counts: List[int] = []
        self.daily_ip_sets = DailyIpSets(addresses)
        self.daily_peer_sets: List[Set[bytes]] = []
        #: Row-path cumulative ids (columnar recording uses a mask instead).
        self._cumulative_ids: Set[bytes] = set()
        self._cumulative_mask: Optional[np.ndarray] = None
        self._store: Optional[PeerColumns] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def mode(self) -> MonitorMode:
        return self.spec.mode

    @property
    def addresses(self) -> AddressTable:
        return self.daily_ip_sets.table

    @property
    def cumulative_peer_ids(self) -> Set[bytes]:
        """All peer ids this router has ever observed."""
        ids = set(self._cumulative_ids)
        if self._cumulative_mask is not None and self._store is not None:
            size = min(self._cumulative_mask.size, self._store.size)
            mask = self._cumulative_mask[:size]
            ids.update(self._store.peer_ids[:size][mask].tolist())
        return ids

    def record_day(
        self, view: DayView, observed: Union[np.ndarray, Iterable[int]]
    ) -> None:
        """Record one day of observations.

        ``observed`` may be a boolean mask over the day's online peers or
        an array/iterable of positional indices into ``view.snapshots``.
        """
        if view.columns is not None:
            self._record_day_columnar(view, _observed_mask(view, observed))
        else:
            self._record_day_rows(view, _observed_indices(observed))

    def _record_day_columnar(self, view: DayView, mask: np.ndarray) -> None:
        cols = view.columns
        assert cols is not None
        store = cols.columns
        if self._store is not None and self._store is not store:
            raise ValueError(
                "monitor already recorded views from a different population"
            )
        self._store = store
        observed_global = cols.indices[mask]
        if self._cumulative_mask is None or self._cumulative_mask.size < store.size:
            previous = 0 if self._cumulative_mask is None else self._cumulative_mask.size
            grown = np.zeros(max(store.size, previous * 2, 1024), dtype=bool)
            if self._cumulative_mask is not None:
                grown[: self._cumulative_mask.size] = self._cumulative_mask
            self._cumulative_mask = grown
        self._cumulative_mask[observed_global] = True
        self.daily_observed_counts.append(int(observed_global.size))
        if self.collect_daily_ips:
            self.daily_ip_sets.append_day(view, mask & cols.valid_ip)
        if self.collect_daily_peers:
            self.daily_peer_sets.append(set(cols.peer_ids[mask].tolist()))

    def _record_day_rows(
        self, view: DayView, observed_indices: Union[np.ndarray, Iterable[int]]
    ) -> None:
        """Reference row-oriented recording (snapshot-backed views)."""
        peer_ids: Set[bytes] = set()
        ips: Set[str] = set()
        for index in observed_indices:
            snapshot = view.snapshots[int(index)]
            peer_ids.add(snapshot.peer_id)
            for ip in snapshot.ip_addresses:
                ips.add(ip)
        self._cumulative_ids.update(peer_ids)
        self.daily_observed_counts.append(len(peer_ids))
        if self.collect_daily_ips:
            self.daily_ip_sets.append(ips)
        if self.collect_daily_peers:
            self.daily_peer_sets.append(peer_ids)

    def mean_daily_observed(self) -> float:
        if not self.daily_observed_counts:
            return 0.0
        return float(np.mean(self.daily_observed_counts))

    def last_seen(
        self,
        end_day_index: int,
        window_days: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per address id: latest day in the window it was observed, else
        -1 (see :meth:`DailyIpSets.last_seen`).  Requires
        ``collect_daily_ips``."""
        if not self.collect_daily_ips:
            raise RuntimeError("daily IP collection was not enabled for this monitor")
        if window_days <= 0:
            raise ValueError("window_days must be positive")
        return self.daily_ip_sets.last_seen(end_day_index, window_days, out)

    def address_ids_in_window(self, end_day_index: int, window_days: int) -> np.ndarray:
        """Sorted ids of the addresses observed in the ``window_days`` days
        ending at ``end_day_index`` (inclusive)."""
        return np.flatnonzero(self.last_seen(end_day_index, window_days) >= 0)

    def ips_in_window(self, end_day_index: int, window_days: int) -> Set[str]:
        """Union of IPs observed in the ``window_days`` days ending at
        ``end_day_index`` (inclusive).  Requires ``collect_daily_ips``."""
        return self.addresses.decode(
            self.address_ids_in_window(end_day_index, window_days)
        )


@dataclass(frozen=True)
class PeerAddresses:
    """Observed address ids of a selection of peers, in CSR-like form.

    Peer ``i`` owns ``ids[starts[i]:ends[i]]``: its IPv4 and IPv6
    addresses over the whole campaign, as ids of ``table`` (may repeat).
    """

    starts: np.ndarray
    ends: np.ndarray
    ids: np.ndarray
    table: AddressTable

    @classmethod
    def from_sets(
        cls, table: AddressTable, address_sets: Sequence[Set[str]]
    ) -> "PeerAddresses":
        per_peer = [table.intern(addresses) for addresses in address_sets]
        lengths = np.array([ids.size for ids in per_peer], dtype=np.int64)
        ends = np.cumsum(lengths)
        starts = ends - lengths
        ids = np.concatenate(per_peer) if per_peer else np.empty(0, dtype=np.int32)
        return cls(starts=starts, ends=ends, ids=ids, table=table)

    def __len__(self) -> int:
        return int(self.starts.size)

    def blocked_by(self, blacklist: np.ndarray) -> np.ndarray:
        """Per peer: whether any of its addresses is set in ``blacklist``,
        a boolean mask over the table's ids."""
        hits = np.zeros(self.ids.size + 1, dtype=np.int64)
        np.cumsum(blacklist[self.ids], out=hits[1:])
        return hits[self.ends] > hits[self.starts]

    def as_sets(self) -> List[Set[str]]:
        """Per peer: its address strings (a decoder for tests)."""
        return [
            self.table.decode(self.ids[start:end])
            for start, end in zip(self.starts.tolist(), self.ends.tolist())
        ]


@dataclass
class PeerObservationAggregate:
    """Campaign-long aggregate of one observed peer."""

    peer_id: bytes
    first_day: int
    last_day: int
    days_observed: Set[int] = field(default_factory=set)
    ipv4_addresses: Set[str] = field(default_factory=set)
    ipv6_addresses: Set[str] = field(default_factory=set)
    countries: Set[str] = field(default_factory=set)
    asns: Set[int] = field(default_factory=set)
    primary_tier_days: Counter = field(default_factory=Counter)
    advertised_flag_days: Counter = field(default_factory=Counter)
    floodfill_days: int = 0
    reachable_days: int = 0
    unreachable_days: int = 0
    firewalled_days: int = 0
    hidden_days: int = 0

    def record(self, snapshot: PeerDaySnapshot) -> None:
        day = snapshot.day
        self.first_day = min(self.first_day, day)
        self.last_day = max(self.last_day, day)
        self.days_observed.add(day)
        if snapshot.has_valid_ip:
            if snapshot.ip is not None:
                self.ipv4_addresses.add(snapshot.ip)
            if snapshot.ipv6 is not None:
                self.ipv6_addresses.add(snapshot.ipv6)
            if snapshot.country_code:
                self.countries.add(snapshot.country_code)
            if snapshot.asn is not None:
                self.asns.add(snapshot.asn)
        self.primary_tier_days[snapshot.bandwidth_tier.value] += 1
        for tier in snapshot.advertised_tiers:
            self.advertised_flag_days[tier.value] += 1
        if snapshot.floodfill:
            self.floodfill_days += 1
        if snapshot.reachable:
            self.reachable_days += 1
        else:
            self.unreachable_days += 1
        if snapshot.firewalled:
            self.firewalled_days += 1
        if snapshot.hidden:
            self.hidden_days += 1

    # ------------------------------------------------------------------ #
    # Derived per-peer quantities
    # ------------------------------------------------------------------ #
    @property
    def observed_day_count(self) -> int:
        return len(self.days_observed)

    @property
    def observation_span_days(self) -> int:
        """Days between first and last observation, inclusive (intermittent
        presence length as defined for Figure 7)."""
        return self.last_day - self.first_day + 1

    def longest_continuous_run(self) -> int:
        """Longest run of consecutive observed days (continuous presence)."""
        if not self.days_observed:
            return 0
        days = sorted(self.days_observed)
        longest = 1
        current = 1
        for previous, current_day in zip(days, days[1:]):
            if current_day == previous + 1:
                current += 1
                longest = max(longest, current)
            else:
                current = 1
        return longest

    @property
    def has_known_ip(self) -> bool:
        return bool(self.ipv4_addresses or self.ipv6_addresses)

    @property
    def address_count(self) -> int:
        return len(self.ipv4_addresses)

    @property
    def is_mostly_floodfill(self) -> bool:
        return self.floodfill_days * 2 > self.observed_day_count

    def dominant_tier(self) -> Optional[str]:
        if not self.primary_tier_days:
            return None
        return self.primary_tier_days.most_common(1)[0][0]


@dataclass
class DailyStats:
    """Network-wide daily statistics computed from the observation union."""

    day: int
    observed_peers: int = 0
    observed_ipv4: int = 0
    observed_ipv6: int = 0
    observed_all_ips: int = 0
    known_ip_peers: int = 0
    unknown_ip_peers: int = 0
    firewalled_peers: int = 0
    hidden_peers: int = 0
    overlap_peers: int = 0
    floodfill_peers: int = 0
    reachable_peers: int = 0
    unreachable_peers: int = 0
    tier_counts: Dict[str, int] = field(default_factory=dict)
    new_peer_ids: int = 0


class _LogAccumulator:
    """Columnar per-peer accumulators behind :class:`ObservationLog`.

    All arrays are indexed by the population's *global* peer index; the
    per-peer aggregate objects are reconstructed from them on demand.

    Address captures are stored as a *columnar event log* rather than a
    per-peer dict of tuples: one row per (peer, IP-assignment version)
    capture, appended only when a peer is observed with a valid IP and a
    new assignment version, so the event count tracks rotations, not
    peer-days.  Countries are interned to small integer codes
    (``country_labels``) so the geography analyses reduce to
    ``np.unique`` passes over integer keys.
    """

    def __init__(self, store: PeerColumns) -> None:
        self.store = store
        self.horizon = store.horizon_days
        self.capacity = 0
        #: High-water mark of accumulator array memory (bytes), updated on
        #: every (re)allocation — recorded by the perf-budget benchmark.
        self.peak_nbytes = 0
        # ---- columnar address-event log -------------------------------- #
        self.event_count = 0
        self._event_capacity = 1024
        self.event_peer = np.empty(self._event_capacity, dtype=np.int64)
        self.event_asn = np.empty(self._event_capacity, dtype=np.int64)
        self.event_country = np.empty(self._event_capacity, dtype=np.int32)
        #: Parallel per-event address strings (object lists: IPs are
        #: arbitrary-length strings and may be ``None`` for IPv6 slots).
        self.event_ip: List[Optional[str]] = []
        self.event_ipv6: List[Optional[str]] = []
        self.country_codes: Dict[str, int] = {}
        self.country_labels: List[str] = []
        self._allocate(max(store.size, 1024))

    def country_code(self, country: object) -> int:
        """Intern a country string to a stable small code (-1 for unset)."""
        if not country:
            return -1
        code = self.country_codes.get(country)  # type: ignore[arg-type]
        if code is None:
            code = len(self.country_labels)
            self.country_codes[str(country)] = code
            self.country_labels.append(str(country))
        return code

    def ensure_events(self, extra: int) -> None:
        needed = self.event_count + extra
        if needed <= self._event_capacity:
            return
        while self._event_capacity < needed:
            self._event_capacity *= 2
        for name in ("event_peer", "event_asn", "event_country"):
            old = getattr(self, name)
            grown = np.empty(self._event_capacity, dtype=old.dtype)
            grown[: self.event_count] = old[: self.event_count]
            setattr(self, name, grown)
        self._note_memory()

    @property
    def nbytes(self) -> int:
        """Approximate resident size of the accumulator arrays."""
        total = (
            self.observed.nbytes
            + self.first_day.nbytes
            + self.last_day.nbytes
            + self.firewalled_days.nbytes
            + self.hidden_days.nbytes
            + self.reachable_days.nbytes
            + self.unreachable_days.nbytes
            + self.floodfill_days.nbytes
            + self.seen_version.nbytes
            + self.ipv4_count.nbytes
            + self.event_peer.nbytes
            + self.event_asn.nbytes
            + self.event_country.nbytes
        )
        # Event address strings: 8-byte list slots; string storage itself is
        # shared with the population columns, so only count the references.
        total += 8 * (len(self.event_ip) + len(self.event_ipv6))
        return total

    def _note_memory(self) -> None:
        self.peak_nbytes = max(self.peak_nbytes, self.nbytes)

    def _allocate(self, capacity: int) -> None:
        old_capacity = self.capacity
        arrays = {}
        names = (
            "observed",
            "first_day",
            "last_day",
            "firewalled_days",
            "hidden_days",
            "reachable_days",
            "unreachable_days",
            "floodfill_days",
            "seen_version",
            "ipv4_count",
        )
        if old_capacity:
            arrays = {name: getattr(self, name) for name in names}
        self.observed = np.zeros((capacity, self.horizon), dtype=bool)
        self.first_day = np.full(capacity, -1, dtype=np.int32)
        self.last_day = np.full(capacity, -1, dtype=np.int32)
        self.firewalled_days = np.zeros(capacity, dtype=np.int32)
        self.hidden_days = np.zeros(capacity, dtype=np.int32)
        self.reachable_days = np.zeros(capacity, dtype=np.int32)
        self.unreachable_days = np.zeros(capacity, dtype=np.int32)
        self.floodfill_days = np.zeros(capacity, dtype=np.int32)
        self.seen_version = np.zeros(capacity, dtype=np.int64)
        #: Observed IPv4 addresses per peer, counted as address-change
        #: capture events (appended only when the assignment version
        #: advanced).  Each allocation takes a fresh host index, so the
        #: count equals the number of *distinct* addresses as long as an
        #: AS's host counter has not wrapped its 254×254 address space —
        #: far beyond any supported campaign scale (a paper-scale 90-day
        #: run allocates well under 64K addresses even in the
        #: heaviest-weight AS); the columnar/aggregate equivalence tests
        #: cover the supported scales.
        self.ipv4_count = np.zeros(capacity, dtype=np.int32)
        for name, array in arrays.items():
            getattr(self, name)[:old_capacity] = array
        self.capacity = capacity
        self._note_memory()

    def ensure(self, size: int) -> None:
        if size > self.capacity:
            self._allocate(max(size, self.capacity * 2))


class ObservationLog:
    """Campaign-wide aggregation over the union of all monitoring routers.

    ``addresses`` is the campaign's :class:`AddressTable`; the bridge
    analyses read per-peer address histories as ids over it
    (:meth:`known_ip_presence_on`, :meth:`known_ip_cohort`), interning the
    address-event columns once per event count.
    """

    def __init__(self, addresses: Optional[AddressTable] = None) -> None:
        self.addresses = AddressTable() if addresses is None else addresses
        self._peers_rows: Dict[bytes, PeerObservationAggregate] = {}
        self.daily: List[DailyStats] = []
        self._rows_recorded = False
        self._acc: Optional[_LogAccumulator] = None
        self._peers_cache: Optional[Dict[bytes, PeerObservationAggregate]] = None
        self._peers_cache_days = -1
        self._event_addresses_cache: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._event_addresses_count = -1

    @property
    def peers(self) -> Dict[bytes, PeerObservationAggregate]:
        """Per-peer aggregates (materialised lazily for columnar runs)."""
        if self._acc is None:
            return self._peers_rows
        if self._peers_cache is None or self._peers_cache_days != len(self.daily):
            self._peers_cache = self._materialise_peers()
            self._peers_cache_days = len(self.daily)
        return self._peers_cache

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_day(
        self, view: DayView, observed_indices: Union[np.ndarray, Iterable[int]]
    ) -> DailyStats:
        """Record the union of monitor observations for one day.

        One log records through one path: mixing columnar and
        snapshot-backed views would leave two aggregate stores for the
        same peers, so it is rejected.
        """
        if view.columns is not None:
            if self._rows_recorded:
                raise ValueError(
                    "cannot mix columnar and row-oriented recording in one log"
                )
            return self._record_day_columnar(
                view, _observed_mask(view, observed_indices)
            )
        if self._acc is not None:
            raise ValueError(
                "cannot mix columnar and row-oriented recording in one log"
            )
        self._rows_recorded = True
        return self._record_day_rows(view, _observed_indices(observed_indices))

    def _record_day_columnar(self, view: DayView, mask: np.ndarray) -> DailyStats:
        cols = view.columns
        assert cols is not None
        store = cols.columns
        day = view.day
        if self._acc is None:
            self._acc = _LogAccumulator(store)
        elif self._acc.store is not store:
            raise ValueError(
                "log already recorded views from a different population"
            )
        acc = self._acc
        acc.ensure(store.size)

        observed_global = cols.indices[mask]
        firewalled = cols.firewalled[mask]
        hidden = cols.hidden[mask]
        valid = cols.valid_ip[mask]
        reachable = cols.reachable[mask]
        floodfill = cols.floodfill[mask]
        previously_firewalled = acc.firewalled_days[observed_global] > 0
        previously_hidden = acc.hidden_days[observed_global] > 0
        first_seen = acc.first_day[observed_global] < 0

        stats = DailyStats(day=day)
        stats.observed_peers = int(observed_global.size)
        stats.new_peer_ids = int(np.count_nonzero(first_seen))
        stats.known_ip_peers = int(np.count_nonzero(valid))
        stats.unknown_ip_peers = stats.observed_peers - stats.known_ip_peers
        stats.firewalled_peers = int(np.count_nonzero(firewalled))
        stats.hidden_peers = int(np.count_nonzero(hidden))
        stats.overlap_peers = int(
            np.count_nonzero(firewalled & previously_hidden)
        ) + int(np.count_nonzero(hidden & previously_firewalled))
        stats.floodfill_peers = int(np.count_nonzero(floodfill))
        stats.reachable_peers = int(np.count_nonzero(reachable))
        stats.unreachable_peers = stats.observed_peers - stats.reachable_peers
        tier_counts = np.bincount(
            cols.tier_code[mask], minlength=len(TIER_ORDER)
        )
        stats.tier_counts = {
            TIER_ORDER[code].value: int(count)
            for code, count in enumerate(tier_counts)
            if count
        }
        ip_selection = mask & cols.valid_ip
        ipv4 = set(cols.ip[ip_selection].tolist())
        ipv4.discard(None)  # type: ignore[arg-type]
        ipv6_values = cols.ipv6[ip_selection]
        ipv6 = set(ipv6_values[np.not_equal(ipv6_values, None)].tolist())
        stats.observed_ipv4 = len(ipv4)
        stats.observed_ipv6 = len(ipv6)
        stats.observed_all_ips = len(ipv4) + len(ipv6)

        # Accumulate per-peer state (indices within a day are unique, so
        # plain fancy-indexed += is safe).
        acc.observed[observed_global, day] = True
        acc.first_day[observed_global[first_seen]] = day
        acc.last_day[observed_global] = day
        acc.firewalled_days[observed_global[firewalled]] += 1
        acc.hidden_days[observed_global[hidden]] += 1
        acc.floodfill_days[observed_global[floodfill]] += 1
        acc.reachable_days[observed_global[reachable]] += 1
        acc.unreachable_days[observed_global[~reachable]] += 1

        versions = cols.version[mask]
        address_changed = valid & (acc.seen_version[observed_global] != versions)
        if np.any(address_changed):
            changed_global = observed_global[address_changed]
            added = int(changed_global.size)
            acc.ensure_events(added)
            start = acc.event_count
            end = start + added
            acc.event_peer[start:end] = changed_global
            acc.event_asn[start:end] = cols.asn[mask][address_changed]
            countries = cols.country[mask][address_changed].tolist()
            acc.event_country[start:end] = [
                acc.country_code(country) for country in countries
            ]
            acc.event_ip.extend(cols.ip[mask][address_changed].tolist())
            acc.event_ipv6.extend(cols.ipv6[mask][address_changed].tolist())
            acc.event_count = end
            acc.seen_version[changed_global] = versions[address_changed]
            acc.ipv4_count[changed_global] += 1

        self.daily.append(stats)
        return stats

    def _record_day_rows(
        self, view: DayView, observed_indices: Iterable[int]
    ) -> DailyStats:
        """Reference row-oriented recording (snapshot-backed views)."""
        stats = DailyStats(day=view.day)
        tier_counts: Counter = Counter()
        ipv4: Set[str] = set()
        ipv6: Set[str] = set()
        for index in observed_indices:
            snapshot = view.snapshots[int(index)]
            aggregate = self._peers_rows.get(snapshot.peer_id)
            is_new = aggregate is None
            if aggregate is None:
                aggregate = PeerObservationAggregate(
                    peer_id=snapshot.peer_id,
                    first_day=snapshot.day,
                    last_day=snapshot.day,
                )
                self._peers_rows[snapshot.peer_id] = aggregate
            previously_firewalled = aggregate.firewalled_days > 0
            previously_hidden = aggregate.hidden_days > 0
            aggregate.record(snapshot)

            stats.observed_peers += 1
            if is_new:
                stats.new_peer_ids += 1
            if snapshot.has_valid_ip:
                stats.known_ip_peers += 1
                if snapshot.ip is not None:
                    ipv4.add(snapshot.ip)
                if snapshot.ipv6 is not None:
                    ipv6.add(snapshot.ipv6)
            else:
                stats.unknown_ip_peers += 1
            if snapshot.firewalled:
                stats.firewalled_peers += 1
                if previously_hidden:
                    stats.overlap_peers += 1
            if snapshot.hidden:
                stats.hidden_peers += 1
                if previously_firewalled:
                    stats.overlap_peers += 1
            if snapshot.floodfill:
                stats.floodfill_peers += 1
            if snapshot.reachable:
                stats.reachable_peers += 1
            else:
                stats.unreachable_peers += 1
            tier_counts[snapshot.bandwidth_tier.value] += 1
        stats.observed_ipv4 = len(ipv4)
        stats.observed_ipv6 = len(ipv6)
        stats.observed_all_ips = len(ipv4) + len(ipv6)
        stats.tier_counts = dict(tier_counts)
        self.daily.append(stats)
        return stats

    # ------------------------------------------------------------------ #
    # Lazy aggregate materialisation (columnar runs)
    # ------------------------------------------------------------------ #
    def _materialise_peers(self) -> Dict[bytes, PeerObservationAggregate]:
        acc = self._acc
        assert acc is not None
        store = acc.store
        size = store.size
        first_day = acc.first_day[:size]
        observed_rows = np.nonzero(first_day >= 0)[0]
        observed_matrix = acc.observed[:size]
        # nonzero() is row-major, so the day numbers come out grouped by
        # peer; split them at the per-peer counts.
        _, all_days = observed_matrix.nonzero()
        counts = np.count_nonzero(observed_matrix[observed_rows], axis=1)
        day_groups = np.split(all_days, np.cumsum(counts)[:-1]) if counts.size else []

        peer_ids = store.peer_ids
        tier_codes = store.tier_code
        advertised_masks = store.advertised_mask
        events_by_peer = self._events_by_peer()
        peers: Dict[bytes, PeerObservationAggregate] = {}
        for row, global_index in enumerate(observed_rows.tolist()):
            day_list = day_groups[row]
            observed_days = int(day_list.size)
            aggregate = PeerObservationAggregate(
                peer_id=peer_ids[global_index],
                first_day=int(first_day[global_index]),
                last_day=int(acc.last_day[global_index]),
                days_observed=set(day_list.tolist()),
                floodfill_days=int(acc.floodfill_days[global_index]),
                reachable_days=int(acc.reachable_days[global_index]),
                unreachable_days=int(acc.unreachable_days[global_index]),
                firewalled_days=int(acc.firewalled_days[global_index]),
                hidden_days=int(acc.hidden_days[global_index]),
            )
            for event in events_by_peer.get(global_index, ()):
                ip = acc.event_ip[event]
                ipv6_addr = acc.event_ipv6[event]
                country_code = int(acc.event_country[event])
                asn = int(acc.event_asn[event])
                if ip is not None:
                    aggregate.ipv4_addresses.add(ip)
                if ipv6_addr is not None:
                    aggregate.ipv6_addresses.add(ipv6_addr)
                if country_code >= 0:
                    aggregate.countries.add(acc.country_labels[country_code])
                if asn >= 0:
                    aggregate.asns.add(asn)
            aggregate.primary_tier_days[TIER_ORDER[tier_codes[global_index]].value] = (
                observed_days
            )
            # Advertised tiers come from the static bitmask column (not the
            # row-oriented records), so the compatibility view also works on
            # populations restored from the npz cache, which carry no
            # PeerRecord objects.
            mask_bits = int(advertised_masks[global_index])
            for code, tier in enumerate(TIER_ORDER):
                if mask_bits & (1 << code):
                    aggregate.advertised_flag_days[tier.value] += observed_days
            peers[aggregate.peer_id] = aggregate
        return peers

    # ------------------------------------------------------------------ #
    # Aggregate accessors
    # ------------------------------------------------------------------ #
    @property
    def days_recorded(self) -> int:
        return len(self.daily)

    @property
    def unique_peer_count(self) -> int:
        if self._acc is not None:
            size = self._acc.store.size
            return int(np.count_nonzero(self._acc.first_day[:size] >= 0))
        return len(self._peers_rows)

    def known_ip_peers(self) -> List[PeerObservationAggregate]:
        return [p for p in self.peers.values() if p.has_known_ip]

    # ------------------------------------------------------------------ #
    # Columnar analysis accessors (no aggregate materialisation)
    # ------------------------------------------------------------------ #
    def _observed_rows(self) -> np.ndarray:
        """Global peer rows observed at least once (columnar runs only)."""
        acc = self._acc
        assert acc is not None
        size = acc.store.size
        return np.nonzero(acc.first_day[:size] >= 0)[0]

    def _events_by_peer(self) -> Dict[int, List[int]]:
        """Event indices grouped by global peer row (insertion order kept)."""
        acc = self._acc
        assert acc is not None
        groups: Dict[int, List[int]] = {}
        for event, peer in enumerate(acc.event_peer[: acc.event_count].tolist()):
            groups.setdefault(peer, []).append(event)
        return groups

    def _event_addresses(self) -> Tuple[np.ndarray, np.ndarray]:
        """(peer row, address id) per captured address, sorted by peer row
        (unset IPv6 slots dropped); cached per event count."""
        acc = self._acc
        assert acc is not None
        if (
            self._event_addresses_cache is None
            or self._event_addresses_count != acc.event_count
        ):
            peers = acc.event_peer[: acc.event_count]
            rows = np.concatenate((peers, peers))
            ids = np.concatenate(
                (self.addresses.intern(acc.event_ip), self.addresses.intern(acc.event_ipv6))
            )
            keep = ids >= 0
            rows, ids = rows[keep], ids[keep]
            order = np.argsort(rows, kind="stable")
            self._event_addresses_cache = (rows[order], ids[order])
            self._event_addresses_count = acc.event_count
        return self._event_addresses_cache

    def _peer_addresses(self, rows: np.ndarray) -> PeerAddresses:
        """Campaign address ids of the given global peer rows."""
        peer_rows, ids = self._event_addresses()
        return PeerAddresses(
            starts=np.searchsorted(peer_rows, rows, side="left"),
            ends=np.searchsorted(peer_rows, rows, side="right"),
            ids=ids,
            table=self.addresses,
        )

    def country_counts(self) -> Counter:
        """Observed peers per country (each peer counts once per country).

        Columnar runs reduce the interned address-event columns with one
        ``np.unique`` pass over (peer, country) keys; row-oriented runs
        fall back to the per-peer aggregates.
        """
        counts: Counter = Counter()
        if self._acc is None:
            for aggregate in self.peers.values():
                for country in aggregate.countries:
                    counts[country] += 1
            return counts
        acc = self._acc
        n = acc.event_count
        n_labels = len(acc.country_labels)
        if not n or not n_labels:
            return counts
        codes = acc.event_country[:n]
        valid = codes >= 0
        keys = acc.event_peer[:n][valid] * np.int64(n_labels) + codes[valid]
        unique_codes = np.unique(keys) % n_labels
        per_code = np.bincount(unique_codes.astype(np.int64), minlength=n_labels)
        for code, count in enumerate(per_code.tolist()):
            if count:
                counts[acc.country_labels[code]] = count
        return counts

    def _unique_peer_asn_pairs(self) -> np.ndarray:
        """Distinct (peer row, ASN) keys packed as ``row << 32 | asn``."""
        acc = self._acc
        assert acc is not None
        n = acc.event_count
        if not n:
            return np.empty(0, dtype=np.int64)
        asns = acc.event_asn[:n]
        valid = asns >= 0
        keys = (acc.event_peer[:n][valid] << np.int64(32)) | asns[valid]
        return np.unique(keys)

    def asn_counts(self) -> Counter:
        """Observed peers per ASN (each peer counts once per AS)."""
        counts: Counter = Counter()
        if self._acc is None:
            for aggregate in self.peers.values():
                for asn in aggregate.asns:
                    counts[asn] += 1
            return counts
        pairs = self._unique_peer_asn_pairs()
        if not pairs.size:
            return counts
        asns, per_asn = np.unique(pairs & np.int64(0xFFFFFFFF), return_counts=True)
        for asn, count in zip(asns.tolist(), per_asn.tolist()):
            counts[int(asn)] = int(count)
        return counts

    def asn_span_counts(self) -> Counter:
        """Histogram of distinct-AS counts over known-IP peers (Figure 12)."""
        counts: Counter = Counter()
        if self._acc is None:
            for aggregate in self.peers.values():
                if aggregate.has_known_ip:
                    counts[len(aggregate.asns)] += 1
            return counts
        acc = self._acc
        rows = self._observed_rows()
        known_peers = int(np.count_nonzero(acc.ipv4_count[rows] > 0))
        pairs = self._unique_peer_asn_pairs()
        if pairs.size:
            _, spans = np.unique(pairs >> np.int64(32), return_counts=True)
            span_values, span_counts = np.unique(spans, return_counts=True)
            for span, count in zip(span_values.tolist(), span_counts.tolist()):
                counts[int(span)] = int(count)
            known_peers -= int(spans.size)
        if known_peers > 0:
            # Known-IP peers whose captures never carried a resolvable ASN.
            counts[0] += known_peers
        return counts

    def unknown_ip_classification(self) -> Dict[str, int]:
        """Campaign-level unknown-IP split (ever firewalled / hidden / both /
        never addressed), straight off the accumulator counters."""
        if self._acc is None:
            ever_firewalled = ever_hidden = both = never_addressed = 0
            for aggregate in self.peers.values():
                was_firewalled = aggregate.firewalled_days > 0
                was_hidden = aggregate.hidden_days > 0
                if was_firewalled:
                    ever_firewalled += 1
                if was_hidden:
                    ever_hidden += 1
                if was_firewalled and was_hidden:
                    both += 1
                if not aggregate.has_known_ip:
                    never_addressed += 1
        else:
            acc = self._acc
            rows = self._observed_rows()
            was_firewalled = acc.firewalled_days[rows] > 0
            was_hidden = acc.hidden_days[rows] > 0
            ever_firewalled = int(np.count_nonzero(was_firewalled))
            ever_hidden = int(np.count_nonzero(was_hidden))
            both = int(np.count_nonzero(was_firewalled & was_hidden))
            never_addressed = int(np.count_nonzero(acc.ipv4_count[rows] == 0))
        return {
            "ever_firewalled": ever_firewalled,
            "ever_hidden": ever_hidden,
            "both_statuses": both,
            "never_published_address": never_addressed,
        }

    def known_ip_presence_on(self, day: int) -> Tuple[np.ndarray, PeerAddresses]:
        """Known-IP peers observed on ``day``: (first days, address ids).

        Returns one entry per known-IP peer observed on ``day``: the day it
        was first observed, and its full observed address set (IPv4 ∪ IPv6
        over the whole campaign) as ids over :attr:`addresses`.  The bridge
        analyses consume this without materialising per-peer aggregates on
        columnar runs.
        """
        if self._acc is None:
            first_days: List[int] = []
            address_sets: List[Set[str]] = []
            for aggregate in self.peers.values():
                if day in aggregate.days_observed and aggregate.has_known_ip:
                    first_days.append(aggregate.first_day)
                    address_sets.append(
                        aggregate.ipv4_addresses | aggregate.ipv6_addresses
                    )
            return (
                np.asarray(first_days, dtype=np.int64),
                PeerAddresses.from_sets(self.addresses, address_sets),
            )
        acc = self._acc
        size = acc.store.size
        if day < 0 or day >= acc.horizon:
            rows = np.empty(0, dtype=np.int64)
        else:
            rows = np.nonzero(acc.observed[:size, day] & (acc.ipv4_count[:size] > 0))[0]
        return acc.first_day[rows].astype(np.int64), self._peer_addresses(rows)

    def known_ip_cohort(self, first_day: int) -> PeerAddresses:
        """Address ids of known-IP peers *first* observed on ``first_day``
        (the bridge-survival cohort)."""
        if self._acc is None:
            return PeerAddresses.from_sets(
                self.addresses,
                [
                    aggregate.ipv4_addresses | aggregate.ipv6_addresses
                    for aggregate in self.peers.values()
                    if aggregate.first_day == first_day and aggregate.has_known_ip
                ],
            )
        acc = self._acc
        size = acc.store.size
        rows = np.nonzero(
            (acc.first_day[:size] == first_day) & (acc.ipv4_count[:size] > 0)
        )[0]
        return self._peer_addresses(rows)

    def accumulator_memory_bytes(self) -> Tuple[int, int]:
        """(current, peak) accumulator array footprint in bytes (0 for
        row-oriented logs)."""
        if self._acc is None:
            return 0, 0
        # The event lists grow between allocations; fold the current size
        # into the high-water mark before reporting.
        self._acc._note_memory()
        return self._acc.nbytes, self._acc.peak_nbytes

    def presence_lengths(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per observed peer: (longest continuous run, observation span).

        Columnar runs answer straight from the accumulator's observation
        bitmatrix — one vectorised pass per recorded day for the run
        lengths — without materialising any
        :class:`PeerObservationAggregate`; row-oriented runs fall back to
        the per-peer aggregates.  Peer order is unspecified but consistent
        between the two returned arrays.
        """
        if self._acc is None:
            peers = list(self.peers.values())
            continuous = np.fromiter(
                (p.longest_continuous_run() for p in peers),
                dtype=np.int64,
                count=len(peers),
            )
            intermittent = np.fromiter(
                (p.observation_span_days for p in peers),
                dtype=np.int64,
                count=len(peers),
            )
            return continuous, intermittent
        acc = self._acc
        rows = self._observed_rows()
        intermittent = (
            acc.last_day[rows].astype(np.int64) - acc.first_day[rows] + 1
        )
        observed = acc.observed[rows]
        run = np.zeros(rows.size, dtype=np.int64)
        best = np.zeros(rows.size, dtype=np.int64)
        last_recorded_day = self.daily[-1].day if self.daily else -1
        for day in range(min(last_recorded_day + 1, acc.horizon)):
            run = (run + 1) * observed[:, day]
            np.maximum(best, run, out=best)
        return best, intermittent

    def ipv4_address_counts(self) -> np.ndarray:
        """Distinct observed IPv4 addresses per *known-IP* peer.

        The returned array has one entry per peer that was ever observed
        with a usable address (the Figure 8 population); order is
        unspecified.
        """
        if self._acc is None:
            return np.asarray(
                [p.address_count for p in self.peers.values() if p.has_known_ip],
                dtype=np.int64,
            )
        acc = self._acc
        rows = self._observed_rows()
        counts = acc.ipv4_count[rows]
        # Capture events require a valid IPv4, so a known-IP peer always
        # has ipv4_count > 0 (there are no IPv6-only known peers on either
        # recording path).
        return counts[counts > 0].astype(np.int64)

    def floodfill_qualified_counts(
        self, qualified_tier_values: Sequence[str]
    ) -> Tuple[int, int]:
        """(ever-floodfill peers, those whose primary tier is qualified)."""
        qualified_set = set(qualified_tier_values)
        if self._acc is None:
            floodfills = [p for p in self.peers.values() if p.floodfill_days > 0]
            qualified = sum(
                1
                for p in floodfills
                if (p.dominant_tier() or "L") in qualified_set
            )
            return len(floodfills), qualified
        acc = self._acc
        rows = self._observed_rows()
        floodfill = acc.floodfill_days[rows] > 0
        codes = acc.store.tier_code[rows][floodfill]
        qualified_codes = [
            code
            for code, tier in enumerate(TIER_ORDER)
            if tier.value in qualified_set
        ]
        qualified = int(np.count_nonzero(np.isin(codes, qualified_codes)))
        return int(np.count_nonzero(floodfill)), qualified

    def advertised_tier_breakdown(
        self, tier_values: Sequence[str]
    ) -> Tuple[Dict[str, Dict[str, int]], Dict[str, int]]:
        """Per-group advertised-flag counts for Table 1.

        Returns ``(counts, totals)`` where ``counts[group][tier]`` is the
        number of observed peers in ``group`` that ever advertised ``tier``
        and ``totals[group]`` the group's peer count, for the groups
        ``floodfill`` / ``reachable`` / ``unreachable`` / ``total``.
        Columnar runs reduce the static advertised-tier bitmask column
        under the accumulator's group masks; row-oriented runs fall back to
        the per-peer aggregates.
        """
        groups = ("floodfill", "reachable", "unreachable", "total")
        counts: Dict[str, Dict[str, int]] = {
            g: {t: 0 for t in tier_values} for g in groups
        }
        totals: Dict[str, int] = {g: 0 for g in groups}
        if self._acc is None:
            for aggregate in self.peers.values():
                advertised = set(aggregate.advertised_flag_days)
                peer_groups = ["total"]
                if aggregate.floodfill_days > 0:
                    peer_groups.append("floodfill")
                if aggregate.reachable_days > 0:
                    peer_groups.append("reachable")
                if aggregate.unreachable_days > 0:
                    peer_groups.append("unreachable")
                for group in peer_groups:
                    totals[group] += 1
                    for tier in advertised:
                        if tier in counts[group]:
                            counts[group][tier] += 1
            return counts, totals
        acc = self._acc
        rows = self._observed_rows()
        advertised_mask = acc.store.advertised_mask[rows]
        group_masks = {
            "floodfill": acc.floodfill_days[rows] > 0,
            "reachable": acc.reachable_days[rows] > 0,
            "unreachable": acc.unreachable_days[rows] > 0,
            "total": np.ones(rows.size, dtype=bool),
        }
        tier_by_value = {tier.value: code for code, tier in enumerate(TIER_ORDER)}
        for group, group_mask in group_masks.items():
            totals[group] = int(np.count_nonzero(group_mask))
            masked = advertised_mask[group_mask]
            for tier_value in tier_values:
                code = tier_by_value.get(tier_value)
                if code is None:
                    continue
                counts[group][tier_value] = int(
                    np.count_nonzero(masked & np.uint8(1 << code))
                )
        return counts, totals

    def mean_daily_observed(self) -> float:
        if not self.daily:
            return 0.0
        return float(np.mean([d.observed_peers for d in self.daily]))

    def mean_daily(self, attribute: str) -> float:
        """Mean over days of one :class:`DailyStats` attribute."""
        if not self.daily:
            return 0.0
        return float(np.mean([getattr(d, attribute) for d in self.daily]))

    def mean_daily_tier_counts(self) -> Dict[str, float]:
        if not self.daily:
            return {}
        totals: Counter = Counter()
        for stats in self.daily:
            totals.update(stats.tier_counts)
        return {tier: count / len(self.daily) for tier, count in totals.items()}
