"""The campaign address table and the id-based censor analyses."""

import numpy as np
import pytest

from repro.core.blocking import censor_blacklist, censor_last_seen
from repro.core.campaign import run_main_campaign
from repro.core.monitor import (
    AddressTable,
    MonitoringRouter,
    PeerAddresses,
    ip_set_materialisations,
    reset_ip_set_materialisations,
    shared_address_table,
)
from repro.core.scenario import run_scenario
from repro.sim.exposure import ExposureEngine
from repro.sim.observation import MonitorMode, MonitorSpec


class TestAddressTable:
    def test_ids_are_dense_in_first_seen_order(self):
        table = AddressTable()
        ids = table.intern(["10.0.0.1", None, "::1", "10.0.0.1"])
        assert ids.tolist() == [0, -1, 1, 0]
        assert len(table) == 2
        assert table.intern(["::1", "10.0.0.2"]).tolist() == [1, 2]
        assert table.decode(np.array([2, 0])) == {"10.0.0.2", "10.0.0.1"}

    def test_ipv4_values_parse_each_address_once(self):
        table = AddressTable()
        table.intern(["1.2.3.4", "2001:db8::1"])
        assert table.ipv4_values().tolist() == [0x01020304, -1]
        table.intern(["0.0.1.0"])
        assert table.ipv4_values().tolist() == [0x01020304, -1, 256]

    def test_a_day_is_loaded_and_interned_once(self):
        table = AddressTable()
        store = object()
        calls = []

        def loader():
            calls.append(1)
            return (
                np.array(["1.1.1.1", "2.2.2.2", None], dtype=object),
                np.array([None, "::2", None], dtype=object),
                np.array([True, True, False]),
            )

        for _ in range(3):  # three monitors recording the same day
            table.register_day(store, 4, loader)
        rows, ids = table.day_ids(4)
        assert table.day_ids(4)[1] is ids
        assert calls == [1]
        # Row 2 has no valid address; row 1 contributes IPv4 and IPv6.
        assert sorted(zip(rows.tolist(), ids.tolist())) == [(0, 0), (1, 1), (1, 2)]
        assert table.decode(ids) == {"1.1.1.1", "2.2.2.2", "::2"}

    def test_days_of_another_population_are_rejected(self):
        table = AddressTable()
        table.register_day(object(), 0, None)
        with pytest.raises(ValueError, match="different population"):
            table.register_day(object(), 1, None)


class TestPeerAddresses:
    def test_blocked_by_is_a_per_peer_any(self):
        table = AddressTable()
        peers = PeerAddresses.from_sets(table, [{"a", "b"}, set(), {"c"}, {"b"}])
        blacklist = np.zeros(len(table), dtype=bool)
        blacklist[table.intern(["b"])] = True
        assert peers.blocked_by(blacklist).tolist() == [True, False, False, True]
        assert peers.as_sets() == [{"a", "b"}, set(), {"c"}, {"b"}]


class TestCampaignIds:
    def test_one_table_per_campaign(self, small_campaign):
        table = shared_address_table(
            [*small_campaign.monitors, small_campaign.victim, small_campaign.log]
        )
        assert table is small_campaign.log.addresses

    def test_window_ids_decode_to_the_window_ips(self, small_campaign):
        monitor = small_campaign.monitors[3]
        ids = monitor.address_ids_in_window(6, 3)
        assert np.all(np.diff(ids) > 0)
        union = set().union(*(monitor.daily_ip_sets[day] for day in (4, 5, 6)))
        assert monitor.ips_in_window(6, 3) == union == monitor.addresses.decode(ids)

    def test_last_seen_decodes_to_the_blacklist(self, small_campaign):
        mask = censor_last_seen(small_campaign.monitors, 5, 8, 4) >= 0
        blacklist = censor_blacklist(small_campaign.monitors, 5, 8, 4)
        assert small_campaign.monitors[0].addresses.decode(np.flatnonzero(mask)) == blacklist

    def test_monitors_on_different_tables_are_rejected(self, small_campaign):
        stranger = MonitoringRouter(
            MonitorSpec("stranger", MonitorMode.FLOODFILL), collect_daily_ips=True
        )
        with pytest.raises(ValueError, match="one address table"):
            censor_last_seen([small_campaign.monitors[0], stranger], 2, 0, 1)


class TestNoStringSets:
    """The censor analyses build no ``Set[str]`` of addresses at all."""

    def test_main_campaign_and_prefix_blocking_decode_nothing(self):
        engine = ExposureEngine()
        reset_ip_set_materialisations()
        out = run_scenario("main_campaign", scale=0.03, seed=3, days=6, engine=engine)
        assert set(out.spec.analyses) == {
            "population", "longevity", "ip_churn", "capacity",
            "geography", "blocking", "bridges", "summary",
        }
        run_scenario("prefix-blocking", scale=0.03, seed=3, days=6, engine=engine)
        assert ip_set_materialisations() == 0

    def test_string_apis_are_counted(self):
        result = run_main_campaign(days=3, scale=0.01, seed=5)
        reset_ip_set_materialisations()
        result.monitors[0].ips_in_window(2, 2)
        result.victim.daily_ip_sets[1]
        assert ip_set_materialisations() == 2
