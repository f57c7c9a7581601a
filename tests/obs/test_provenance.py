"""Tests for run-provenance manifests: capture, round-trip, reproduce."""

import io
import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.core.identify import IdentifyConfig, identify
from repro.models.base import EMConfig
from repro.netsim.trace import PathObservation
from repro.obs import provenance
from repro.streaming.tracker import MonitorConfig


def strong_observation(n=2000, q_k=0.1, seed=0):
    rng = np.random.default_rng(seed)
    send = np.arange(n) * 0.02
    delays = np.empty(n)
    queue = 0.0
    for i in range(n):
        queue = min(q_k, max(0.0, queue + rng.uniform(-0.012, 0.015)))
        if queue >= q_k - 1e-12 and rng.random() < 0.7:
            delays[i] = np.nan
        else:
            delays[i] = 0.02 + queue
    return PathObservation(send, delays)


class TestConfigRoundTrip:
    def test_identify_config_survives_serialization(self):
        config = IdentifyConfig(
            n_symbols=7, n_hidden=1, model="hmm", beta0=0.1, beta1=0.01,
            em=EMConfig(tol=1e-2, max_iter=33, seed=42, n_restarts=2),
        )
        data = json.loads(json.dumps(provenance.config_to_dict(config)))
        rebuilt = provenance.identify_config_from_manifest({"config": data})
        assert isinstance(rebuilt, IdentifyConfig)
        assert vars(rebuilt.em) == vars(config.em)
        for key, value in vars(config).items():
            if key != "em":
                assert vars(rebuilt)[key] == value

    def test_monitor_config_survives_serialization(self):
        config = MonitorConfig(window=600, hop=300, n_hidden=1, confirm=2,
                               memory=3, gate_stationarity=False,
                               em=EMConfig(seed=7))
        data = json.loads(json.dumps(provenance.config_to_dict(config)))
        rebuilt = provenance.monitor_config_from_manifest({"config": data})
        assert isinstance(rebuilt, MonitorConfig)
        assert vars(rebuilt.em) == vars(config.em)
        assert rebuilt.window == 600 and rebuilt.confirm == 2

    #: The EMConfig of a manifest written while the E-step engine had
    #: knobs, as ``config_to_dict`` recorded every field then.
    LEGACY_EM = {
        "__type__": "EMConfig", "tol": 0.001, "max_iter": 120,
        "min_prob": 1e-10, "n_restarts": 1, "seed": 0,
        "freeze_loss_iters": 5, "data_driven_init": True,
        "loss_prior_losses": 1.0, "loss_prior_observations": 50.0,
        "n_jobs": 1, "fast_path": True, "backend": "auto",
        "dtype": "float64", "block_size": None,
    }

    def test_legacy_manifests_rebuild(self, caplog):
        """Identify and monitor manifests that still carry the engine
        knobs rebuild, silently while the knobs held their defaults."""
        identify_data = {
            "__type__": "IdentifyConfig", "n_symbols": 5, "n_hidden": 2,
            "model": "mmhd", "beta0": 0.06, "beta1": 0.0,
            "tolerance": 0.001, "propagation_delay": None,
            "em": dict(self.LEGACY_EM),
        }
        monitor_data = {
            "__type__": "MonitorConfig", "window": 3000, "hop": 1500,
            "n_symbols": 5, "n_hidden": 2, "model": "mmhd", "beta0": 0.06,
            "beta1": 0.0, "tolerance": 0.001, "confirm": 3, "memory": 5,
            "gate_stationarity": True, "stationarity_window": None,
            "delay_tolerance": 0.2, "loss_tolerance": 0.05,
            "em": dict(self.LEGACY_EM, seed=7),
        }
        expected = EMConfig(tol=0.001, max_iter=120)
        with caplog.at_level(logging.WARNING, "repro.obs.provenance"):
            identify = provenance.identify_config_from_manifest(
                {"config": json.loads(json.dumps(identify_data))})
            monitor = provenance.monitor_config_from_manifest(
                {"config": json.loads(json.dumps(monitor_data))})
        assert not caplog.records
        assert isinstance(identify, IdentifyConfig)
        assert vars(identify.em) == vars(expected)
        assert identify.n_symbols == 5 and identify.model == "mmhd"
        assert isinstance(monitor, MonitorConfig)
        assert vars(monitor.em) == vars(expected.replace(seed=7))
        assert monitor.window == 3000 and monitor.hop == 1500

    def test_legacy_non_default_knob_is_warned_once(self, caplog):
        data = dict(self.LEGACY_EM, block_size=1, backend="sequential")
        with caplog.at_level(logging.WARNING, "repro.obs.provenance"):
            rebuilt = provenance.em_config_from_dict(data)
        assert vars(rebuilt) == vars(EMConfig(tol=0.001, max_iter=120))
        (record,) = caplog.records
        assert "block_size" in record.getMessage()
        assert "backend" in record.getMessage()

    def test_wrong_config_type_is_rejected(self):
        data = provenance.config_to_dict(MonitorConfig())
        with pytest.raises(ValueError, match="MonitorConfig"):
            provenance.identify_config_from_manifest({"config": data})

    def test_unknown_type_is_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            provenance.identify_config_from_manifest(
                {"config": {"__type__": "bogus"}})


class TestCollect:
    def test_manifest_captures_environment_and_seeds(self):
        config = IdentifyConfig(em=EMConfig(seed=13))
        manifest = provenance.collect_manifest(
            "identify", config=config, argv=["repro", "identify", "x.csv"],
            inputs=["x.csv"], seeds={"demo": 5},
        )
        assert manifest["schema"] == provenance.MANIFEST_SCHEMA
        assert manifest["command"] == "identify"
        assert len(manifest["run_id"]) == 12
        assert manifest["argv"] == ["repro", "identify", "x.csv"]
        assert manifest["inputs"] == ["x.csv"]
        assert manifest["seeds"] == {"demo": 5, "em": 13}
        assert manifest["config"]["__type__"] == "IdentifyConfig"
        assert "numpy" in manifest["packages"]
        assert "repro" in manifest["packages"]
        assert manifest["python"].count(".") >= 1
        assert manifest["platform"]
        # The repo this test runs in is a git checkout.
        assert manifest["git_sha"] is None or len(manifest["git_sha"]) == 40

    def test_write_and_load_round_trip(self, tmp_path):
        manifest = provenance.collect_manifest("bound")
        path = provenance.write_manifest(manifest, tmp_path / "m.json")
        assert provenance.load_manifest(path) == json.loads(
            json.dumps(manifest))

    def test_record_run_emits_event_and_writes_artifact(self, tmp_path):
        sink = io.StringIO()
        obs.enable(events=sink, clear=True)
        out = tmp_path / "manifest.json"
        manifest = provenance.record_run("monitor", config=MonitorConfig(),
                                         out_path=out)
        assert out.exists()
        (line,) = [ln for ln in sink.getvalue().splitlines() if ln]
        event = json.loads(line)
        assert event["kind"] == "run.manifest"
        assert event["run_id"] == manifest["run_id"]
        assert event["manifest_path"] == str(out)
        assert event["manifest"]["command"] == "monitor"

    def test_record_run_without_telemetry_still_writes_artifact(self,
                                                                tmp_path):
        out = tmp_path / "manifest.json"
        provenance.record_run("identify", out_path=out)
        assert json.loads(out.read_text())["command"] == "identify"


class TestReproduce:
    def test_verdict_reproducible_from_manifest_alone(self, tmp_path):
        """The acceptance property: rebuild the config from the manifest
        and the rerun produces the identical verdict and G pmf."""
        observation = strong_observation()
        config = IdentifyConfig(
            n_hidden=1, em=EMConfig(tol=1e-2, max_iter=40, seed=3),
        )
        first = identify(observation, config)
        manifest = provenance.collect_manifest("identify", config=config)
        path = provenance.write_manifest(manifest, tmp_path / "m.json")

        loaded = provenance.load_manifest(path)
        rebuilt_config = provenance.identify_config_from_manifest(loaded)
        second = identify(observation, rebuilt_config)

        assert second.verdict == first.verdict
        np.testing.assert_array_equal(second.distribution.pmf,
                                      first.distribution.pmf)
