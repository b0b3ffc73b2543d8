"""Grid planner: axis parsing, expansion, digest grouping, validation."""

import json

import pytest

from repro.core import run_scenario
from repro.core.scenario import scenario_exposure_digest
from repro.service import GridAxis, GridJob, GridSpec, parse_axis, plan_grid
from repro.sim.exposure import ExposureEngine


class TestParseAxis:
    def test_ints_floats_strings(self):
        axis = parse_axis("days=5,10")
        assert axis.key == "days"
        assert axis.values == (5, 10)
        assert parse_axis("scale=0.05,0.1").values == (0.05, 0.1)
        assert parse_axis("params.mode=fast,slow").values == ("fast", "slow")

    def test_colon_builds_tuples(self):
        axis = parse_axis("params.fractions=0.2:0.5,0.3:0.9")
        assert axis.values == ((0.2, 0.5), (0.3, 0.9))

    @pytest.mark.parametrize("text", ["days", "=1,2", "days=", "days= , "])
    def test_malformed_axes_rejected(self, text):
        with pytest.raises(ValueError):
            parse_axis(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown axis key"):
            parse_axis("fleet=1,2")


class TestGridSpec:
    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="given twice"):
            GridSpec(
                scenario="monitor_fraction_sweep",
                axes=(GridAxis("days", (1,)), GridAxis("days", (2,))),
            )

    def test_retry_budget_validated(self):
        with pytest.raises(ValueError, match="retry budget"):
            GridSpec(scenario="monitor_fraction_sweep", retry_budget=0)

    def test_grid_id_is_content_addressed(self):
        a = GridSpec("monitor_fraction_sweep", axes=(GridAxis("days", (2, 3)),))
        b = GridSpec("monitor_fraction_sweep", axes=(GridAxis("days", (2, 3)),))
        c = GridSpec("monitor_fraction_sweep", axes=(GridAxis("days", (2, 4)),))
        assert a.grid_id == b.grid_id
        assert a.grid_id != c.grid_id
        assert a.grid_id.startswith("monitor_fraction_sweep-")

    def test_spec_roundtrips_through_json(self):
        spec = GridSpec(
            scenario="monitor_fraction_sweep",
            axes=(GridAxis("params.fractions", ((0.2, 0.5), (0.3, 0.9))),),
            scale=0.05,
            seed=7,
            days=4,
            retry_budget=2,
        )
        restored = GridSpec.from_dict(json.loads(json.dumps(spec.as_dict())))
        assert restored == spec
        assert restored.grid_id == spec.grid_id


class TestPlanGrid:
    def test_cartesian_expansion_and_names(self):
        plan = plan_grid(
            GridSpec(
                scenario="monitor_fraction_sweep",
                axes=(
                    GridAxis("days", (2, 3)),
                    GridAxis("params.fractions", ((0.5,), (1.0,))),
                ),
                scale=0.02,
            )
        )
        assert len(plan.jobs) == 4
        names = {job.name for job in plan.jobs}
        assert "days=2,params.fractions=0.5" in names
        assert "days=3,params.fractions=1" in names

    def test_no_axes_is_single_job_grid(self):
        plan = plan_grid(GridSpec(scenario="monitor_fraction_sweep", scale=0.02))
        assert [job.name for job in plan.jobs] == ["base"]

    def test_param_only_axes_share_one_digest(self):
        plan = plan_grid(
            GridSpec(
                scenario="monitor_fraction_sweep",
                axes=(
                    GridAxis(
                        "params.fractions",
                        ((0.2, 0.5), (0.3, 0.6), (0.4, 0.8), (0.5, 1.0)),
                    ),
                ),
                scale=0.02,
                days=2,
            )
        )
        assert len(plan.groups) == 1
        digest, group = plan.groups[0]
        assert digest is not None and len(group) == 4
        assert plan.shared_digests == [digest]

    def test_days_axis_splits_groups_and_orders_jobs(self):
        plan = plan_grid(
            GridSpec(
                scenario="monitor_fraction_sweep",
                axes=(
                    GridAxis("days", (2, 3)),
                    GridAxis("params.fractions", ((0.5,), (1.0,))),
                ),
                scale=0.02,
            )
        )
        assert len(plan.groups) == 2
        # Jobs are ordered group-by-group so one exposure drains at a time.
        digests = [job.digest for job in plan.jobs]
        assert digests[0] == digests[1] and digests[2] == digests[3]
        assert digests[0] != digests[2]

    def test_message_level_jobs_have_no_digest(self):
        plan = plan_grid(GridSpec(scenario="reseed_denial", scale=0.02))
        assert plan.jobs[0].digest is None
        assert plan.groups == [(None, plan.jobs)]
        assert plan.shared_digests == []

    def test_unknown_scenario_raises_keyerror(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            plan_grid(GridSpec(scenario="nope"))

    def test_days_axis_on_dayless_kind_fails_at_plan_time(self):
        with pytest.raises(ValueError, match="no day horizon"):
            plan_grid(
                GridSpec(scenario="reseed_denial", axes=(GridAxis("days", (2,)),))
            )

    @pytest.mark.parametrize("scale", [float("nan"), 0.0, -1.0, float("inf")])
    def test_bad_scale_axis_fails_at_plan_time(self, scale):
        with pytest.raises(ValueError, match="scale must be a positive finite number"):
            plan_grid(
                GridSpec(
                    scenario="prefix-blocking",
                    axes=(GridAxis("scale", (0.05, scale)),),
                )
            )

    def test_bad_base_scale_fails_for_message_level_kinds_too(self):
        with pytest.raises(ValueError, match="scale must be a positive finite number"):
            plan_grid(GridSpec(scenario="netdb-scale", scale=float("nan")))

    def test_non_numeric_run_axis_fails_at_plan_time(self):
        with pytest.raises(ValueError, match="days"):
            plan_grid(
                GridSpec(
                    scenario="monitor_fraction_sweep",
                    axes=(GridAxis("days", ("soon",)),),
                )
            )

    def test_duplicate_cells_rejected(self):
        with pytest.raises(ValueError, match="duplicate grid cell"):
            plan_grid(
                GridSpec(
                    scenario="monitor_fraction_sweep",
                    axes=(GridAxis("days", (2, 2)),),
                )
            )

    def test_job_roundtrips_through_json(self):
        plan = plan_grid(
            GridSpec(
                scenario="monitor_fraction_sweep",
                axes=(GridAxis("params.fractions", ((0.2, 0.5),)),),
                scale=0.02,
                days=2,
            )
        )
        job = plan.jobs[0]
        restored = GridJob.from_dict(json.loads(json.dumps(job.as_dict())))
        assert restored == job
        # The restored job resolves to the same runnable spec.
        assert restored.resolved_spec() == job.resolved_spec()


class TestScenarioExposureDigest:
    def test_message_level_kinds_report_none(self):
        assert scenario_exposure_digest("netdb-scale") is None
        assert scenario_exposure_digest("reseed_denial") is None
        assert scenario_exposure_digest("floodfill-takedown") is None

    def test_digest_depends_on_scale_seed_not_params(self):
        base = scenario_exposure_digest("monitor_fraction_sweep", scale=0.02, seed=1)
        assert base is not None
        assert scenario_exposure_digest("monitor_fraction_sweep", 0.02, 2) != base
        assert scenario_exposure_digest("monitor_fraction_sweep", 0.03, 1) != base

    def test_planned_digest_matches_executed_digest_and_bundle(self, tmp_path):
        plan = plan_grid(
            GridSpec(
                scenario="monitor_fraction_sweep",
                axes=(GridAxis("params.fractions", ((0.5,),)),),
                scale=0.02,
                days=2,
            )
        )
        job = plan.jobs[0]
        engine = ExposureEngine(cache_dir=tmp_path / "cache")
        result = run_scenario(
            job.resolved_spec(), scale=job.scale, seed=job.seed, engine=engine
        )
        engine.flush()
        assert result.exposure_digest == job.digest
        bundles = [p.name for p in (tmp_path / "cache").iterdir() if p.is_dir()]
        assert bundles == [job.digest]

    def test_mode_switch_uses_days_per_mode_horizon(self):
        # single_router runs 2 x days_per_mode days; its digest must match
        # a campaign over the same total horizon, not spec.days alone.
        from repro.core.campaign import (
            campaign_observation_seed,
            scaled_population_config,
        )
        from repro.sim.exposure_cache import exposure_digest

        got = scenario_exposure_digest("single_router", scale=0.02, seed=3)
        config = scaled_population_config(0.02, days=10, seed=3)
        assert got == exposure_digest(config, campaign_observation_seed(3))
