"""Model-health scoring: detectors, roll-up, retention, confidence."""

import numpy as np
import pytest

from repro import obs
from repro.models.diagnostics import WindowDiagnostics
from repro.obs.health import (ChiSquareDrift, CusumDetector, HealthConfig,
                              HealthReport, HealthStore, PageHinkleyDetector,
                              PathHealth, _ramp, disable_health,
                              enable_health, is_health_enabled,
                              verdict_confidence)
from repro.obs.schema import validate_event


def _good_diagnostics(mean_loglik=-0.8, emission_z=0.3, dwell_gap=0.5,
                      loss_rate_gap=0.1, below_bound_mass=0.0,
                      counts=None, seed=None):
    if counts is None:
        counts = np.array([120.0, 60.0, 30.0, 15.0])
        if seed is not None:
            rng = np.random.default_rng(seed)
            counts = counts + rng.integers(0, 4, size=counts.size)
    return WindowDiagnostics(
        True, n_obs=300, n_losses=15, mean_loglik=mean_loglik,
        emission_z=emission_z, counts=np.asarray(counts, dtype=float),
        expected_counts=np.asarray(counts, dtype=float),
        dwell_gap=dwell_gap, n_runs=40, loss_rate_gap=loss_rate_gap,
        below_bound_mass=below_bound_mass, beta0=0.06,
    )


class TestHealthSwitch:
    def test_flag_round_trip(self):
        assert not is_health_enabled()
        enable_health()
        assert is_health_enabled()
        disable_health()
        assert not is_health_enabled()

    def test_disable_clears_fleet_state(self):
        enable_health()
        obs.enable()
        report = PathHealth().update(_good_diagnostics())
        report.finalize("p0", 0)
        assert obs.registry().gauge_value("repro_model_health_min") is not None
        disable_health()
        enable_health()
        report = PathHealth().update(_good_diagnostics())
        report.finalize("p1", 0)
        # p0 no longer drags the fleet minimum after the off/on cycle.
        snap = obs.registry().snapshot()
        gauge_paths = [dict(lbls).get("path")
                       for (name, lbls) in snap["gauges"]
                       if name == "repro_model_health"]
        assert "p1" in gauge_paths


class TestRamp:
    def test_below_soft_is_one(self):
        assert _ramp(0.1, 1.0, 2.0, 0.5) == 1.0

    def test_above_hard_is_floor(self):
        assert _ramp(5.0, 1.0, 2.0, 0.5) == 0.5

    def test_linear_in_between(self):
        assert _ramp(1.5, 1.0, 2.0, 0.5) == pytest.approx(0.75)


class TestCusumDetector:
    def test_no_alarm_on_stationary_input(self):
        rng = np.random.default_rng(7)
        detector = CusumDetector()
        fired = [detector.update(x) for x in rng.normal(size=500)]
        assert not any(fired)
        assert detector.n_alarms == 0

    def test_level_shift_detected_within_a_few_windows(self):
        rng = np.random.default_rng(3)
        detector = CusumDetector()
        for x in rng.normal(size=60):
            assert not detector.update(x)
        shifted = rng.normal(loc=3.0, size=30)
        delays = [i for i, x in enumerate(shifted) if detector.update(x)]
        assert delays and delays[0] <= 10

    def test_alarm_rebaselines_to_the_new_regime(self):
        rng = np.random.default_rng(11)
        detector = CusumDetector()
        for x in rng.normal(size=60):
            detector.update(x)
        while not detector.update(float(rng.normal(loc=4.0))):
            pass
        assert detector.baseline.n == 0  # warming up again
        fired = [detector.update(x)
                 for x in rng.normal(loc=4.0, size=100)]
        assert not any(fired)  # the shifted level is the new normal

    def test_no_alarm_during_warmup(self):
        detector = CusumDetector(warmup=8)
        assert not any(detector.update(x) for x in [0.0, 100.0, -100.0, 0.0])


class TestPageHinkleyDetector:
    def test_no_alarm_on_stationary_input(self):
        rng = np.random.default_rng(17)
        detector = PageHinkleyDetector()
        assert not any(detector.update(x) for x in rng.normal(size=500))

    def test_detects_downward_shift(self):
        rng = np.random.default_rng(5)
        detector = PageHinkleyDetector()
        for x in rng.normal(size=60):
            assert not detector.update(x)
        shifted = rng.normal(loc=-3.0, size=30)
        delays = [i for i, x in enumerate(shifted) if detector.update(x)]
        assert delays and delays[0] <= 12
        assert detector.n_alarms == 1


class TestChiSquareDrift:
    def test_first_window_never_alarms(self):
        detector = ChiSquareDrift(z_threshold=1.0)
        assert not detector.update(np.array([50.0, 30.0, 20.0]))
        assert detector.last_z is None

    def test_stationary_counts_stay_quiet(self):
        rng = np.random.default_rng(23)
        detector = ChiSquareDrift()
        p = np.array([0.5, 0.3, 0.15, 0.05])
        fired = [detector.update(rng.multinomial(400, p).astype(float))
                 for _ in range(100)]
        assert not any(fired)

    def test_distribution_break_alarms(self):
        rng = np.random.default_rng(29)
        detector = ChiSquareDrift(z_threshold=6.0)
        p = np.array([0.5, 0.3, 0.15, 0.05])
        for _ in range(10):
            detector.update(rng.multinomial(400, p).astype(float))
        q = np.array([0.05, 0.15, 0.3, 0.5])
        assert detector.update(rng.multinomial(400, q).astype(float))
        assert detector.last_z > 6.0
        # Post-alarm the broken window is the reference: staying in the
        # new regime does not keep re-alarming.
        fired = [detector.update(rng.multinomial(400, q).astype(float))
                 for _ in range(20)]
        assert not any(fired)

    def test_shape_change_resets_the_reference(self):
        detector = ChiSquareDrift(z_threshold=1.0)
        detector.update(np.array([400.0, 0.0, 0.0]))
        assert not detector.update(np.array([0.0, 400.0, 0.0, 0.0]))

    def test_empty_windows_are_ignored(self):
        detector = ChiSquareDrift(z_threshold=1.0)
        detector.update(np.array([10.0, 10.0]))
        assert not detector.update(np.array([0.0, 0.0]))


class TestPathHealth:
    def test_clean_window_scores_one(self):
        report = PathHealth().update(_good_diagnostics())
        assert report.health == 1.0
        assert report.reasons == []
        assert report.alarms == []
        assert report.gof["ok"] is True

    def test_missing_diagnostics_is_insufficient_evidence(self):
        path = PathHealth()
        report = path.update(None)
        assert report.health is None
        assert report.reasons == ["insufficient-evidence"]
        assert report.gof is None
        assert path.n_updates == 0

    def test_skipped_window_never_touches_detectors(self):
        path = PathHealth()
        for _ in range(20):
            diag = WindowDiagnostics(False, reason="no-losses", n_obs=100)
            report = path.update(diag)
            assert report.health is None
            assert report.alarms == []
        assert path.cusum.baseline.n == 0
        assert path.chi2._prev is None

    def test_loglik_shift_alarms_and_discounts(self):
        path = PathHealth(HealthConfig(warmup=8))
        rng = np.random.default_rng(41)
        for _ in range(30):
            mll = -0.8 + float(rng.normal(scale=0.01))
            assert path.update(_good_diagnostics(mean_loglik=mll)).health \
                == pytest.approx(1.0)
        reports = [path.update(_good_diagnostics(mean_loglik=-0.3))
                   for _ in range(6)]
        alarmed = [r for r in reports if r.alarms]
        assert alarmed, "an 0.5-level shift on a 0.01-noise baseline " \
                        "must fire within 6 windows"
        assert "loglik-shift" in alarmed[0].reasons
        assert alarmed[0].health <= 0.5

    def test_alarm_hold_decays_and_health_recovers(self):
        config = HealthConfig(warmup=8, alarm_hold=3)
        path = PathHealth(config)
        rng = np.random.default_rng(43)
        for _ in range(20):
            mll = -0.8 + float(rng.normal(scale=0.01))
            path.update(_good_diagnostics(mean_loglik=mll))
        healths = [path.update(_good_diagnostics(mean_loglik=-0.3)).health
                   for _ in range(25)]
        assert min(healths) <= 0.5           # the break is visible...
        assert healths[-1] == pytest.approx(1.0)  # ...and health recovers

    def test_absolute_gof_terms_discount_without_alarms(self):
        report = PathHealth().update(
            _good_diagnostics(emission_z=20.0, loss_rate_gap=2.0))
        assert report.alarms == []
        assert report.health < 0.5
        assert "predictive-residual" in report.reasons
        assert "loss-rate-mismatch" in report.reasons

    def test_qk_margin_reason(self):
        report = PathHealth().update(
            _good_diagnostics(below_bound_mass=0.05))
        assert "qk-bound-fragile" in report.reasons
        assert report.health == pytest.approx(0.9)


class TestHealthReportFinalize:
    def test_stamps_identity_and_rounds(self):
        report = HealthReport(0.123456, ["loglik-shift"], ["cusum"], None)
        report.finalize("p0", 7)
        payload = report.to_dict()
        assert payload["path"] == "p0"
        assert payload["window"] == 7
        assert payload["health"] == 0.1235
        assert payload["reasons"] == ["loglik-shift"]
        assert payload["alarms"] == ["cusum"]

    def test_metrics_and_event_when_obs_enabled(self):
        obs.enable()
        enable_health()
        events = []
        obs.bus().add_tap(lambda e: events.append(e))
        report = HealthReport(0.4, ["loglik-shift"], ["cusum"], {"ok": True})
        report.finalize("p0", 3)
        assert obs.registry().gauge_value(
            "repro_model_health", path="p0") == 0.4
        assert obs.registry().gauge_value("repro_model_health_min") == 0.4
        assert obs.registry().counter_value(
            "repro_model_drift_alarms_total", detector="cusum") == 1.0
        health_events = [e for e in events if e["kind"] == "model.health"]
        assert len(health_events) == 1
        assert validate_event(health_events[0]) == []
        assert health_events[0]["health"] == 0.4

    def test_fleet_min_tracks_the_worst_path(self):
        obs.enable()
        enable_health()
        HealthReport(0.9, [], [], None).finalize("a", 0)
        HealthReport(0.2, [], [], None).finalize("b", 0)
        assert obs.registry().gauge_value("repro_model_health_min") == 0.2

    def test_none_health_skips_gauges(self):
        obs.enable()
        enable_health()
        HealthReport(None, ["insufficient-evidence"], [], None).finalize(
            "p0", 0)
        assert obs.registry().gauge_value("repro_model_health_min") is None


class TestHealthStore:
    def _report(self, path, window, health):
        report = HealthReport(health, [], [], None)
        report.finalize(path, window)
        return report

    def test_ring_is_bounded_per_path(self):
        store = HealthStore(per_path=3)
        for i in range(10):
            store.add(self._report("p0", i, 0.9))
        reports = store.path_reports("p0")
        assert len(reports) == 3
        assert [r["window"] for r in reports] == [7, 8, 9]

    def test_confidence_rides_in_the_entry(self):
        store = HealthStore()
        store.add(self._report("p0", 0, 0.8), confidence=0.56789)
        assert store.path_reports("p0")[0]["confidence"] == 0.5679
        store.add(self._report("p0", 1, 0.8))
        assert store.path_reports("p0")[1]["confidence"] is None

    def test_unfinalized_reports_are_dropped(self):
        store = HealthStore()
        store.add(HealthReport(0.5, [], [], None))  # no path stamped
        assert store.paths() == []

    def test_forget_drops_the_path(self):
        store = HealthStore()
        store.add(self._report("p0", 0, 0.9))
        store.forget("p0")
        assert store.path_reports("p0") == []
        assert store.paths() == []

    def test_fleet_rollup(self):
        store = HealthStore()
        store.add(self._report("a", 0, 0.4))
        store.add(self._report("a", 1, 0.8))
        store.add(self._report("b", 0, 0.6))
        store.add(self._report("c", 0, None))
        fleet = store.fleet()
        assert fleet["n_paths"] == 3
        assert fleet["min_health"] == 0.6   # a's latest is 0.8, b 0.6
        assert fleet["mean_health"] == pytest.approx(0.7)
        assert fleet["paths"]["c"]["health"] is None

    def test_empty_fleet(self):
        fleet = HealthStore().fleet()
        assert fleet == {"paths": {}, "min_health": None,
                         "mean_health": None, "n_paths": 0}


class TestVerdictConfidence:
    def test_product_of_health_and_agreement(self):
        assert verdict_confidence(
            0.5, ["strong", "strong", "weak"], "strong") \
            == pytest.approx(0.5 * 2 / 3)

    def test_no_health_falls_back_to_agreement(self):
        assert verdict_confidence(None, ["weak", "weak"], "weak") == 1.0

    def test_no_history_falls_back_to_health(self):
        assert verdict_confidence(0.7, [], None) == pytest.approx(0.7)

    def test_nothing_known_is_none(self):
        assert verdict_confidence(None, [], None) is None
