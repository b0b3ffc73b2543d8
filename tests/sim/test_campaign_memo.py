"""Recorded-campaign memo on exposure entries.

A campaign recorded on a ``SharedExposure``/``CachedExposure`` entry is
memoised there: a second campaign with the same identity (fleet, days,
collection flags, victim) returns the same read-only ``CampaignResult``
instead of re-drawing masks and re-recording every day.  These tests pin
what counts as the same identity, that the memo lives and dies with its
entry, and that analyses leave a shared result untouched.
"""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.core.campaign import (
    CampaignConfig,
    MeasurementCampaign,
    campaign_observation_seed,
    scaled_population_config,
)
from repro.core.scenario import ANALYSES, ScenarioResult, get_scenario
from repro.service.store import canonical_json, series_payload, summary_payload
from repro.sim.exposure import CachedExposure, ExposureEngine
from repro.sim.observation import standard_monitor_fleet

SCALE = 0.02
SEED = 17
DAYS = 4


def _config(**overrides):
    base = dict(
        population=scaled_population_config(SCALE, days=DAYS, seed=SEED),
        monitors=standard_monitor_fleet(2, 2),
        days=DAYS,
        seed=SEED,
        collect_daily_ips=True,
        include_victim_client=True,
    )
    base.update(overrides)
    return CampaignConfig(**base)


def _prebuilt_bundle(cache_dir):
    """Write the test population's bundle so later engines restore it."""
    config = _config()
    ExposureEngine(cache_dir=cache_dir, background_writes=False).get(
        config.population, campaign_observation_seed(SEED), days=DAYS
    )


class TestMemoHits:
    def test_same_identity_records_once(self):
        engine = ExposureEngine()
        first = MeasurementCampaign(_config(), engine=engine)
        result = first.run()
        second = MeasurementCampaign(_config(), engine=engine)
        again = second.run()
        assert again is result
        assert engine.campaign_reuses == 1
        # The second campaign object adopts the recording it was served.
        assert second.monitors is result.monitors
        assert second.victim is result.victim
        assert second.log is result.log

    def test_restored_entry_records_once(self, tmp_path):
        _prebuilt_bundle(tmp_path)
        engine = ExposureEngine(cache_dir=tmp_path)
        first = MeasurementCampaign(_config(), engine=engine)
        assert isinstance(first.exposure, CachedExposure)
        result = first.run()
        assert MeasurementCampaign(_config(), engine=engine).run() is result
        assert engine.campaign_reuses == 1
        assert engine.disk_hits == 1

    def test_rerunning_one_campaign_does_not_record_twice(self):
        engine = ExposureEngine()
        campaign = MeasurementCampaign(_config(), engine=engine)
        result = campaign.run()
        observed = result.log.mean_daily_observed()
        assert campaign.run() is result
        assert result.log.mean_daily_observed() == observed

    @pytest.mark.parametrize(
        "overrides",
        [
            {"monitors": standard_monitor_fleet(2, 3)},
            {"monitors": standard_monitor_fleet(2, 2, 4000.0)},
            {"days": DAYS - 1},
            {"include_victim_client": False},
            {"victim_bandwidth_kbps": 512.0},
            {"collect_daily_ips": False},
            {"collect_daily_peers": True},
        ],
        ids=[
            "fleet-size",
            "fleet-bandwidth",
            "days",
            "victim-flag",
            "victim-bandwidth",
            "daily-ips",
            "daily-peers",
        ],
    )
    def test_different_identity_misses(self, overrides):
        engine = ExposureEngine()
        base = MeasurementCampaign(_config(), engine=engine).run()
        other = MeasurementCampaign(_config(**overrides), engine=engine).run()
        assert other is not base
        assert engine.campaign_reuses == 0

    def test_shorter_run_of_same_config_misses(self):
        engine = ExposureEngine()
        full = MeasurementCampaign(_config(), engine=engine).run()
        short = MeasurementCampaign(_config(), engine=engine).run(days=DAYS - 1)
        assert short is not full
        assert len(short.daily_online_population) == DAYS - 1
        assert engine.campaign_reuses == 0

    def test_memo_is_bounded_per_entry(self):
        engine = ExposureEngine()
        exposure = MeasurementCampaign(_config(), engine=engine).exposure
        limit = exposure._CAMPAIGN_MEMO
        fleets = [standard_monitor_fleet(1, count) for count in range(1, limit + 2)]
        oldest = MeasurementCampaign(_config(monitors=fleets[0]), engine=engine).run()
        for fleet in fleets[1:]:
            MeasurementCampaign(_config(monitors=fleet), engine=engine).run()
        assert len(exposure._campaigns) == limit
        again = MeasurementCampaign(_config(monitors=fleets[0]), engine=engine).run()
        assert again is not oldest
        assert engine.campaign_reuses == 0


@pytest.fixture()
def no_cyclic_gc():
    """Objects must be freed by reference counting alone."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class TestMemoLifetime:
    """The memo lives on its entry and is freed the moment the entry is."""

    def _recorded(self, engine):
        result = MeasurementCampaign(_config(), engine=engine).run()
        return weakref.ref(result)

    def test_clear_drops_the_memo(self, no_cyclic_gc):
        engine = ExposureEngine()
        recorded = self._recorded(engine)
        assert recorded() is not None
        engine.clear()
        assert recorded() is None

    def test_lru_eviction_drops_the_memo(self, no_cyclic_gc):
        engine = ExposureEngine(capacity=1)
        recorded = self._recorded(engine)
        other = replace(_config().population, seed=SEED + 1)
        engine.get(other, campaign_observation_seed(SEED + 1), days=1)
        assert recorded() is None

    def test_dropping_the_engine_frees_a_restored_entry(self, tmp_path, no_cyclic_gc):
        _prebuilt_bundle(tmp_path)
        engine = ExposureEngine(cache_dir=tmp_path)
        campaign = MeasurementCampaign(_config(), engine=engine)
        assert isinstance(campaign.exposure, CachedExposure)
        result = campaign.run()
        entry = weakref.ref(campaign.exposure)
        reader = weakref.ref(campaign.exposure._reader)
        recorded = weakref.ref(result)
        del engine, campaign, result
        assert entry() is None
        assert reader() is None
        assert recorded() is None


class TestSharedResultIsReadOnly:
    def test_every_analysis_twice_gives_identical_payloads(self, tmp_path):
        _prebuilt_bundle(tmp_path)
        engine = ExposureEngine(cache_dir=tmp_path)
        spec = get_scenario("main_campaign")
        config = _config(monitors=spec.fleet.monitors())
        result = MeasurementCampaign(config, engine=engine).run()

        def payload(name):
            out = ScenarioResult(spec=spec, scale=SCALE, seed=SEED)
            ANALYSES[name](result, out)
            return canonical_json([summary_payload(out), series_payload(out)])

        first = {name: payload(name) for name in ANALYSES}
        second = {name: payload(name) for name in ANALYSES}
        assert first == second
