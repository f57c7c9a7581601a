"""The health-parity contract: verdict streams are byte-identical with
model-health scoring on or off, for one path and for a fleet at every
``n_jobs``, while the health payload itself rides next to the events as
attributes only."""

import json

import pytest

from repro.experiments.streams import strong_dcl_stream
from repro.models.base import EMConfig
from repro.obs import health as health_mod
from repro.streaming.tracker import MonitorConfig, PathMonitor

from tests.streaming.fleet import event_dicts, run_fleet

FAST_EM = EMConfig(tol=1e-3, max_iter=100, seed=7)


def fast_config(**overrides):
    defaults = dict(window=600, hop=300, n_hidden=1, confirm=2, memory=3,
                    gate_stationarity=False, em=FAST_EM)
    defaults.update(overrides)
    return MonitorConfig(**defaults)


@pytest.fixture(autouse=True)
def health_off_guard():
    health_mod.disable_health()
    yield
    health_mod.disable_health()


@pytest.fixture(scope="module")
def records():
    return list(strong_dcl_stream(1500, seed=20))


class TestByteParity:
    def test_path_monitor_stream_identical_with_health_on(self, records):
        baseline = event_dicts(PathMonitor(fast_config()).run(records))
        health_mod.enable_health()
        with_health = event_dicts(PathMonitor(fast_config()).run(records))
        assert with_health == baseline

    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_drain_modes_identical_with_health_on(self, records, n_jobs):
        streams = {"p0": records}
        baseline = event_dicts(run_fleet(streams, fast_config(),
                                         n_jobs=n_jobs))
        assert baseline == event_dicts(PathMonitor(fast_config(),
                                                   path="p0").run(records))
        health_mod.enable_health()
        with_health = event_dicts(run_fleet(streams, fast_config(),
                                            n_jobs=n_jobs))
        assert with_health == baseline

    def test_health_payload_never_enters_to_dict(self, records):
        health_mod.enable_health()
        events = PathMonitor(fast_config()).run(records)
        analyzed = [e for e in events if e.analysis.analyzed]
        assert analyzed
        for event in analyzed:
            assert event.health is not None  # the attribute rides along
            payload = event.to_dict()
            assert "health" not in payload
            assert "confidence" not in payload


class TestHealthRidesTheEvents:
    def test_fused_and_pool_agree_on_health_scores(self, records):
        """A fused drain scores the same health as per-window fits
        (``PathMonitor``, which fits as the pool drain did)."""
        health_mod.enable_health()

        def health_lines(events):
            return [json.dumps(e.health.to_dict(), sort_keys=True)
                    for e in events if e.health is not None]

        fused = health_lines(run_fleet({"p0": records}, fast_config()))
        per_window = health_lines(
            PathMonitor(fast_config(), path="p0").run(records))
        assert fused and fused == per_window

    def test_pool_workers_propagate_the_health_flag(self, records):
        # At n_jobs=2 the fused fits run in pool workers; every analysed
        # window must still carry a scored report rather than degrading
        # to insufficient-evidence.
        health_mod.enable_health()
        events = run_fleet({"p0": records, "p1": records}, fast_config(),
                           n_jobs=2)
        scored = [e for e in events
                  if e.health is not None and e.health.health is not None]
        assert scored
        for event in scored:
            assert event.health.gof["ok"] is True
            assert event.confidence is not None

    def test_health_off_leaves_attributes_none(self, records):
        events = PathMonitor(fast_config()).run(records)
        for event in events:
            assert event.health is None
            assert event.confidence is None
