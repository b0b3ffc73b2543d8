"""Tests for the probabilistic address-based blocking model (Figure 13)."""

import pytest

from repro.core.blocking import (
    blocking_assessment,
    blocking_curve,
    blocking_rate,
    censor_blacklist,
    victim_known_ips,
)
from repro.core.campaign import run_main_campaign


class TestBlockingRate:
    def test_full_overlap(self):
        assert blocking_rate({"a", "b"}, {"a", "b"}) == 1.0

    def test_partial_overlap(self):
        assert blocking_rate({"a"}, {"a", "b"}) == 0.5

    def test_empty_victim(self):
        assert blocking_rate({"a"}, set()) == 0.0

    def test_empty_censor(self):
        assert blocking_rate(set(), {"a"}) == 0.0


class TestCensorBlacklist:
    def test_more_routers_more_ips(self, small_campaign):
        day = small_campaign.log.days_recorded - 1
        one = censor_blacklist(small_campaign.monitors, 1, day, 1)
        ten = censor_blacklist(small_campaign.monitors, 10, day, 1)
        assert len(one) <= len(ten)
        assert one <= ten

    def test_longer_window_more_ips(self, small_campaign):
        day = small_campaign.log.days_recorded - 1
        short = censor_blacklist(small_campaign.monitors, 5, day, 1)
        long = censor_blacklist(small_campaign.monitors, 5, day, 10)
        assert short <= long
        assert len(long) > len(short)

    def test_invalid_router_count(self, small_campaign):
        with pytest.raises(ValueError):
            censor_blacklist(small_campaign.monitors, 0, 1, 1)
        with pytest.raises(ValueError):
            censor_blacklist(small_campaign.monitors, 999, 1, 1)


class TestVictim:
    def test_victim_known_ips_nonempty(self, small_campaign):
        day = small_campaign.log.days_recorded - 1
        ips = victim_known_ips(small_campaign.victim, day, history_days=2)
        assert len(ips) > 0

    def test_longer_history_knows_more(self, small_campaign):
        day = small_campaign.log.days_recorded - 1
        short = victim_known_ips(small_campaign.victim, day, history_days=1)
        long = victim_known_ips(small_campaign.victim, day, history_days=5)
        assert short <= long


class TestBlockingAssessment:
    def test_assessment_fields(self, small_campaign):
        assessment = blocking_assessment(small_campaign, router_count=10, window_days=5)
        assert assessment.router_count == 10
        assert assessment.window_days == 5
        assert 0.0 <= assessment.rate <= 1.0
        assert assessment.blocked_ip_count <= assessment.victim_ip_count
        assert assessment.blocked_ip_count <= assessment.censor_ip_count

    def test_requires_victim(self):
        result = run_main_campaign(days=2, scale=0.01, include_victim_client=False)
        with pytest.raises(ValueError):
            blocking_assessment(result, router_count=1)

    def test_counts_match_the_string_sets(self, small_campaign):
        day = len(small_campaign.log.daily) - 1
        assessment = blocking_assessment(small_campaign, router_count=4, window_days=3)
        censor = censor_blacklist(small_campaign.monitors, 4, day, 3)
        victim = victim_known_ips(small_campaign.victim, day, 2)
        assert assessment.censor_ip_count == len(censor)
        assert assessment.victim_ip_count == len(victim)
        assert assessment.blocked_ip_count == len(censor & victim)
        assert assessment.rate == blocking_rate(censor, victim)

    def test_as_dict(self, small_campaign):
        data = blocking_assessment(small_campaign, router_count=5).as_dict()
        assert set(data) >= {"router_count", "window_days", "rate", "victim_ip_count"}


class TestBlockingCurve:
    def test_figure13_shape(self, small_campaign):
        figure = blocking_curve(
            small_campaign,
            router_counts=[1, 2, 5, 10, 20],
            windows=(1, 5, 10),
        )
        assert set(figure.series) == {"1 day", "5 days", "10 days"}
        one_day = figure.get("1 day")
        five_days = figure.get("5 days")
        # More censor routers never reduce the blocking rate.
        assert one_day.is_monotonic_nondecreasing()
        # A longer blacklist window never reduces the blocking rate.
        for x in one_day.xs:
            assert five_days.y_at(x) >= one_day.y_at(x)
        # All rates are percentages.
        assert all(0.0 <= y <= 100.0 for y in one_day.ys + five_days.ys)

    def test_paper_headline_claims(self, small_campaign):
        """A handful of routers blocks most of the victim's peers; ten routers
        with a 5-day window block well over 90 % (the paper's headline)."""
        figure = blocking_curve(
            small_campaign, router_counts=[1, 6, 10, 20], windows=(1, 5)
        )
        one_day = figure.get("1 day")
        five_days = figure.get("5 days")
        assert one_day.y_at(1) > 40.0
        assert one_day.y_at(6) > 70.0
        assert one_day.y_at(20) > 80.0
        assert five_days.y_at(10) > 90.0

    def test_default_router_counts_cover_all_monitors(self, small_campaign):
        figure = blocking_curve(small_campaign, windows=(1,))
        assert len(figure.get("1 day").points) == len(small_campaign.monitors)

    def test_requires_victim(self):
        result = run_main_campaign(days=2, scale=0.01, include_victim_client=False)
        with pytest.raises(ValueError):
            blocking_curve(result)


class TestBlockingCurveIncrementalSemantics:
    """The incremental blacklist rewrite preserves the original contract."""

    def test_non_positive_router_count_rejected(self, small_campaign):
        with pytest.raises(ValueError, match="router_count must be positive"):
            blocking_curve(small_campaign, router_counts=[0], windows=(1,))

    def test_too_many_routers_rejected(self, small_campaign):
        too_many = len(small_campaign.monitors) + 1
        with pytest.raises(ValueError, match="censor has only"):
            blocking_curve(small_campaign, router_counts=[too_many], windows=(1,))

    @pytest.mark.parametrize("windows", [(), (0,), (5, -1), (1.5,), ("5",), (True,)])
    def test_bad_windows_rejected_before_any_work(self, windows):
        # A bare object() as the result: any read before the check fails
        # with AttributeError instead of the ValueError.
        with pytest.raises(ValueError, match="window"):
            blocking_curve(object(), windows=windows)

    def test_caller_order_and_duplicates_preserved(self, small_campaign):
        figure = blocking_curve(
            small_campaign, router_counts=[6, 1, 6], windows=(1,)
        )
        points = figure.get("1 day").points
        assert [x for x, _ in points] == [6.0, 1.0, 6.0]
        ascending = blocking_curve(
            small_campaign, router_counts=[1, 6], windows=(1,)
        ).get("1 day")
        assert points[0][1] == ascending.y_at(6)
        assert points[1][1] == ascending.y_at(1)


class TestPrefixBlockingCurve:
    """Prefix-granular censorship (the PR 9 enrichment-plane scenario)."""

    def test_curve_shape_and_monotonicity(self, small_campaign):
        from repro.core.blocking import prefix_blocking_curve

        figure = prefix_blocking_curve(small_campaign, ("US", "RU", "GB"))
        assert figure.figure_id == "scenario_prefix_blocking"
        cumulative = figure.get("cumulative block")
        single = figure.get("single censor")
        assert len(cumulative.points) == len(single.points) == 3
        assert cumulative.is_monotonic_nondecreasing()
        assert all(0.0 <= y <= 100.0 for y in cumulative.ys + single.ys)
        # The coalition blocks at least as much as any member alone.
        for (_, c), (_, s) in zip(cumulative.points, single.points):
            assert c >= s - 1e-9

    def test_x_axis_is_cumulative_prefix_count(self, small_campaign):
        from repro.core.blocking import censor_profiles, prefix_blocking_curve

        countries = ("US", "RU")
        figure = prefix_blocking_curve(small_campaign, countries)
        profiles = censor_profiles(countries)
        running = 0
        for (x, _), profile in zip(figure.get("cumulative block").points, profiles):
            running += profile.prefix_count
            assert x == running

    def test_censor_profiles_use_provider_tables(self):
        from repro.core.blocking import censor_profiles
        from repro.enrichment import SyntheticProvider
        from repro.sim.geo import default_registry

        provider = SyntheticProvider(default_registry())
        (profile,) = censor_profiles(("US",), provider=provider)
        assert profile.country == "US"
        assert profile.prefixes == provider.country_prefixes("US")
        assert profile.prefix_count == len(profile.prefixes)

    def test_empty_countries_rejected(self):
        from repro.core.blocking import censor_profiles

        with pytest.raises(ValueError, match="at least one country"):
            censor_profiles(())

    def test_requires_victim(self):
        from repro.core.blocking import prefix_blocking_curve

        result = run_main_campaign(days=2, scale=0.01, include_victim_client=False)
        with pytest.raises(ValueError):
            prefix_blocking_curve(result, ("US",))

    def test_note_documents_censor_ranks(self, small_campaign):
        from repro.core.blocking import prefix_blocking_curve

        figure = prefix_blocking_curve(small_campaign, ("US", "RU"))
        notes = " ".join(figure.notes)
        assert "censors by rank" in notes
        assert "US" in notes
