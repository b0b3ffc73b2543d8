"""Tests for campaign orchestration and the methodology experiments."""

import pytest

from repro.core.campaign import (
    CampaignConfig,
    MeasurementCampaign,
    bandwidth_sweep,
    router_count_sweep,
    run_main_campaign,
    scaled_population_config,
    single_router_experiment,
)
from repro.sim.observation import MonitorMode, MonitorSpec


class TestScaledConfig:
    def test_full_scale(self):
        config = scaled_population_config(1.0, days=90)
        assert config.target_daily_population == 30_500
        assert config.horizon_days == 90

    def test_small_scale_floor(self):
        config = scaled_population_config(0.001, days=5)
        assert config.target_daily_population >= 200

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            scaled_population_config(0.0)

    @pytest.mark.parametrize("scale", [float("nan"), float("inf"), -1.0, "x"])
    def test_non_finite_or_non_numeric_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be a"):
            scaled_population_config(scale)


class TestCampaignConfigValidation:
    def test_days_must_fit_horizon(self):
        population = scaled_population_config(0.02, days=3)
        with pytest.raises(ValueError):
            CampaignConfig(
                population=population,
                monitors=[MonitorSpec("m", MonitorMode.FLOODFILL)],
                days=5,
            )

    def test_requires_monitors(self):
        population = scaled_population_config(0.02, days=3)
        with pytest.raises(ValueError):
            CampaignConfig(population=population, monitors=[], days=3)

    def test_requires_positive_days(self):
        population = scaled_population_config(0.02, days=3)
        with pytest.raises(ValueError):
            CampaignConfig(
                population=population,
                monitors=[MonitorSpec("m", MonitorMode.FLOODFILL)],
                days=0,
            )


class TestMainCampaign(object):
    def test_result_structure(self, small_campaign):
        result = small_campaign
        assert len(result.monitors) == 20
        assert result.victim is not None
        assert result.log.days_recorded == 12
        assert len(result.daily_online_population) == 12
        assert len(result.cumulative_union_by_day) == 12
        assert all(len(row) == 20 for row in result.cumulative_union_by_day)

    def test_coverage_is_high(self, small_campaign):
        """Twenty monitors observe the large majority of the daily population."""
        assert small_campaign.coverage_of_population() > 0.80

    def test_daily_population_stable(self, small_campaign):
        target = small_campaign.config.population.target_daily_population
        for online in small_campaign.daily_online_population:
            assert 0.7 * target <= online <= 1.3 * target

    def test_mean_cumulative_union_monotonic(self, small_campaign):
        curve = small_campaign.mean_cumulative_union()
        assert len(curve) == 20
        assert curve == sorted(curve)

    def test_victim_sees_fewer_peers_than_monitors(self, small_campaign):
        victim_mean = small_campaign.victim.mean_daily_observed()
        monitor_mean = small_campaign.monitors[0].mean_daily_observed()
        assert victim_mean < monitor_mean

    def test_monitors_collect_daily_ips(self, small_campaign):
        assert small_campaign.monitors[0].daily_ip_sets
        assert len(small_campaign.monitors[0].daily_ip_sets) == 12

    def test_run_without_victim(self):
        result = run_main_campaign(
            days=3, scale=0.01, include_victim_client=False, collect_daily_ips=False
        )
        assert result.victim is None
        assert not result.monitors[0].daily_ip_sets


class TestSingleRouterExperiment:
    def test_figure2_shape(self):
        figure = single_router_experiment(days_per_mode=2, scale=0.02, seed=3)
        floodfill = figure.get("floodfill")
        non_floodfill = figure.get("non-floodfill")
        assert len(floodfill.points) == 2
        assert len(non_floodfill.points) == 2
        assert all(y > 0 for y in floodfill.ys + non_floodfill.ys)
        # Both modes observe a large fraction but not all of the network.
        config_population = 30_500 * 0.02
        for y in floodfill.ys + non_floodfill.ys:
            assert 0.25 * config_population < y < 0.9 * config_population


class TestBandwidthSweep:
    def test_figure3_shape(self):
        bandwidths = (128, 2000, 5000)
        figure = bandwidth_sweep(bandwidths_kbps=bandwidths, days=2, scale=0.02, seed=4)
        both = figure.get("both")
        floodfill = figure.get("floodfill")
        non_floodfill = figure.get("non-floodfill")
        assert [p[0] for p in both.points] == list(bandwidths)
        # The combined view dominates each individual mode at every bandwidth.
        for x in bandwidths:
            assert both.y_at(x) >= floodfill.y_at(x)
            assert both.y_at(x) >= non_floodfill.y_at(x)
        # Floodfill wins at 128 KB/s, non-floodfill wins at 5 MB/s (Figure 3).
        assert floodfill.y_at(128) > non_floodfill.y_at(128)
        assert non_floodfill.y_at(5000) > floodfill.y_at(5000)


class TestRouterCountSweep:
    def test_figure4_shape(self):
        figure, result = router_count_sweep(max_routers=12, days=2, scale=0.02, seed=5)
        series = figure.get("cumulative observed")
        assert len(series.points) == 12
        assert series.is_monotonic_nondecreasing()
        # Diminishing returns: the last router adds less than the second one.
        gains = [b - a for a, b in zip(series.ys, series.ys[1:])]
        assert gains[-1] < gains[0]
        # A handful of routers already observes most of what twelve observe.
        assert series.ys[5] / series.ys[-1] > 0.8

    def test_invalid_router_count(self):
        with pytest.raises(ValueError):
            router_count_sweep(max_routers=0, days=1, scale=0.01)
