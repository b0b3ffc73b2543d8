"""Golden digests for the censorship analyses (Figure 13, bridges, prefixes).

The digests were computed with the string-set implementation (per-monitor
``Set[str]`` blacklists and per-peer address sets).  The interned-id
implementation must reproduce them byte for byte, both on an in-memory
engine and on an exposure restored from its disk bundle, whose monitors
load each day's addresses lazily.
"""

import hashlib

import pytest

from repro.core.bridges import bridge_pool_summary, bridge_survival_curve
from repro.core.scenario import run_scenario
from repro.service.store import canonical_json
from repro.sim.exposure import ExposureEngine

SCALE = 0.05
DAYS = 10
SEED = 41

#: sha256 of the canonical JSON of each pinned output.
GOLDEN = {
    "figure_13": "e057a4606b89f12d3afbc66884e2812d13c703702d0b713a3ccc4c64a298d7c4",
    "bridge_pool": "b6bcb37ae72618d7c05e715dc84154bdb66dc476ada1304651fd79bc33086d6d",
    "bridge_pool_weak_censor": "1c123eefc67f0932446c3f0ba18f20f9aec1684e75854eb022120a94707788f9",
    "ablation_bridges": "25775fd0ea13e578d9284f850822671c43f1c42778a825bd0bd7648dd34e92bc",
    "ablation_bridges_short_window": "f73721e241096227f4afaeefed9a24c282622d77cf49f40c5b82664a3a63557b",
    "scenario_prefix_blocking": "d5cc3a9cd8f55b3218e12449261025801559bab6ad90b7298509eaf6faa5bfa2",
}


def _figure_payload(figure):
    return {
        "series": {
            name: [list(point) for point in series.points]
            for name, series in sorted(figure.series.items())
        },
        "notes": list(figure.notes),
    }


def _digest(payload) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def _run(scenario: str, restored: bool, tmp_path):
    if not restored:
        return run_scenario(scenario, scale=SCALE, seed=SEED, days=DAYS, engine=ExposureEngine())
    cache = tmp_path / "exposure-cache"
    builder = ExposureEngine(cache_dir=cache, background_writes=False)
    run_scenario(scenario, scale=SCALE, seed=SEED, days=DAYS, engine=builder)
    engine = ExposureEngine(cache_dir=cache)
    out = run_scenario(scenario, scale=SCALE, seed=SEED, days=DAYS, engine=engine)
    assert engine.disk_hits == 1 and engine.misses == 0
    return out


@pytest.mark.parametrize("restored", [False, True], ids=["in-memory", "restored"])
class TestCensorGolden:
    def test_main_campaign_censor_outputs(self, restored, tmp_path):
        out = _run("main_campaign", restored, tmp_path)
        digests = {
            "figure_13": _digest(_figure_payload(out.figures["figure_13"])),
            "bridge_pool": _digest(out.summaries["bridge_pool"]),
            "ablation_bridges": _digest(_figure_payload(out.figures["ablation_bridges"])),
            # The default censor blocks every online peer at this scale, so
            # a one-router, one-day censor pins the unblocked split too.
            "bridge_pool_weak_censor": _digest(
                bridge_pool_summary(
                    out.campaign, censor_routers=1, blacklist_window_days=1
                ).as_dict()
            ),
            # A window shorter than the survival horizon lets peers drop
            # off the blacklist again, which the default 30 days never does.
            "ablation_bridges_short_window": _digest(
                _figure_payload(
                    bridge_survival_curve(
                        out.campaign,
                        censor_routers=3,
                        blacklist_window_days=2,
                        cohort_day=2,
                        horizon_days=7,
                    )
                )
            ),
        }
        assert digests == {name: GOLDEN[name] for name in digests}

    def test_prefix_blocking_figure(self, restored, tmp_path):
        out = _run("prefix-blocking", restored, tmp_path)
        figure = out.figures["scenario_prefix_blocking"]
        assert _digest(_figure_payload(figure)) == GOLDEN["scenario_prefix_blocking"]
