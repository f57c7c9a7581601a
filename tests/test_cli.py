"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro import obs
from repro.cli import build_parser, main
from repro.measurement.traceio import load_observation, save_observation
from repro.netsim.trace import PathObservation
from repro.obs.schema import validate_event


def strong_csv(tmp_path, n=2000, q_k=0.1, seed=0):
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
    path = tmp_path / "obs.csv"
    save_observation(PathObservation(send, delays), path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        parser.parse_args(["simulate", "--out", "x.csv"])
        parser.parse_args(["identify", "obs.csv"])
        parser.parse_args(["bound", "obs.csv", "--verdict", "strong"])
        parser.parse_args(["clock", "obs.csv", "--out", "y.csv"])
        parser.parse_args(["pinpoint", "trace.npz"])
        parser.parse_args(["monitor", "obs.csv"])
        parser.parse_args(["stats", "events.jsonl", "--top", "3", "--json"])

    def test_bare_demo_defaults_to_8000_probes(self):
        parser = build_parser()
        assert parser.parse_args(["monitor", "--demo"]).demo == 8000
        assert parser.parse_args(["monitor", "--demo", "500"]).demo == 500
        assert parser.parse_args(["monitor", "x.csv"]).demo is None

    def test_telemetry_and_metrics_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "monitor", "--demo", "--telemetry", "t.jsonl",
            "--metrics-file", "m.prom", "--metrics-port", "0",
        ])
        assert args.telemetry == "t.jsonl"
        assert args.metrics_file == "m.prom"
        assert args.metrics_port == 0
        assert parser.parse_args(["identify", "x.csv"]).telemetry is None
        assert parser.parse_args(
            ["--log-level", "info", "identify", "x.csv"]).log_level == "info"

    def test_unknown_scenario_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--scenario", "bogus",
                  "--out", str(tmp_path / "x.csv")])


class TestCommands:
    def test_identify_command(self, tmp_path, capsys):
        csv_path = strong_csv(tmp_path)
        code = main(["identify", str(csv_path), "--hidden", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: strong" in out

    def test_bound_command_with_explicit_verdict(self, tmp_path, capsys):
        csv_path = strong_csv(tmp_path)
        code = main(["bound", str(csv_path), "--verdict", "strong",
                     "--hidden", "1", "--bound-symbols", "20"])
        out = capsys.readouterr().out
        assert code == 0
        assert "max queuing delay bound" in out

    def test_clock_command_roundtrip(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        n = 1500
        send = np.arange(n) * 0.02
        delay = 0.05 + rng.exponential(0.01, n)
        delay[rng.random(n) < 0.1] = 0.05 + 1e-5
        measured = delay + 4e-5 * send
        in_path = tmp_path / "in.csv"
        out_path = tmp_path / "out.csv"
        save_observation(PathObservation(send, measured), in_path)
        code = main(["clock", str(in_path), "--out", str(out_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "estimated skew" in out
        repaired = load_observation(out_path)
        # The upward drift is gone: late delays no longer exceed early
        # ones systematically.
        early = np.nanmean(repaired.delays[:300])
        late = np.nanmean(repaired.delays[-300:])
        assert abs(late - early) < 0.005

class TestTelemetry:
    MONITOR_ARGS = [
        "monitor", "--demo", "1500", "--window", "600", "--hop", "300",
        "--hidden", "1", "--no-stationarity-gate", "--max-windows", "3",
    ]

    def test_monitor_metrics_file_has_required_series(self, tmp_path, capsys):
        prom = tmp_path / "out.prom"
        code = main(self.MONITOR_ARGS + ["--metrics-file", str(prom)])
        assert code == 0
        assert not obs.is_enabled()  # main() turns its telemetry back off
        text = prom.read_text()
        # Preregistration guarantees the series the CI job scrapes for,
        # even before the first fallback or verdict flip.
        assert 'repro_streaming_fallbacks_total{reason="non-monotone"}' in text
        assert 'repro_window_verdicts_total{verdict="strong"}' in text
        assert "# TYPE repro_windows_total counter" in text
        # Windows actually ran, and stdout stayed pure JSONL.
        events = [json.loads(line)
                  for line in capsys.readouterr().out.splitlines()]
        assert len(events) == 3
        assert all("verdict" in event for event in events)

    def test_monitor_metrics_port_prints_scrape_url(self, tmp_path, capsys):
        code = main(self.MONITOR_ARGS + ["--metrics-port", "0"])
        assert code == 0
        err = capsys.readouterr().err
        assert "metrics: http://127.0.0.1:" in err

    def test_telemetry_file_then_stats(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(self.MONITOR_ARGS + ["--telemetry", str(events_path)])
        assert code == 0
        capsys.readouterr()
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        assert events
        for event in events:
            assert validate_event(event) == [], event
        assert {"span", "streaming.fit", "window"} <= {
            e["kind"] for e in events
        }

        assert main(["stats", str(events_path)]) == 0
        out = capsys.readouterr().out
        assert "events:" in out
        assert "windows:" in out

        assert main(["stats", str(events_path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_events"] == len(events)
        assert summary["windows"]["total"] >= 3

    def test_max_windows_stops_before_the_cycle_drains(self, tmp_path,
                                                       capsys):
        """The loss-free path's skip is published during the poll and
        reaches ``--max-windows``; the congested window waiting for the
        cycle's drain is then neither fitted nor recorded."""
        from repro.experiments.streams import strong_dcl_stream

        send, delays = zip(*strong_dcl_stream(1200, seed=3))
        save_observation(PathObservation(np.array(send), np.array(delays)),
                         tmp_path / "c.csv")
        quiet = 0.02 + 0.1 * np.random.default_rng(9).random(1200)
        save_observation(PathObservation(0.02 * np.arange(1200), quiet),
                         tmp_path / "quiet.csv")
        events_path = tmp_path / "t.jsonl"
        code = main(["monitor", str(tmp_path / "c.csv"),
                     str(tmp_path / "quiet.csv"), "--window", "600",
                     "--hop", "300", "--hidden", "1",
                     "--no-stationarity-gate", "--max-windows", "1",
                     "--telemetry", str(events_path)])
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 1
        kinds = [json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()]
        assert kinds.count("drain.round") == 0
        assert kinds.count("streaming.fit") == 0
        assert kinds.count("window") == 1

    def test_identify_telemetry_records_em_events(self, tmp_path, capsys):
        csv_path = strong_csv(tmp_path)
        events_path = tmp_path / "events.jsonl"
        code = main(["identify", str(csv_path), "--hidden", "1",
                     "--telemetry", str(events_path)])
        assert code == 0
        kinds = [json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()]
        assert "em.fit" in kinds
        assert "em.restart" in kinds
        assert "span" in kinds



class TestObservabilityFlags:
    def test_monitor_diagnostic_flags_parse(self):
        parser = build_parser()
        args = parser.parse_args([
            "monitor", "--demo", "--alert-rules", "default",
            "--flight-recorder", "dumps", "--stall-timeout", "30",
            "--profile", "--telemetry-max-bytes", "1000000",
            "--manifest", "m.json",
        ])
        assert args.alert_rules == "default"
        assert args.flight_recorder == "dumps"
        assert args.stall_timeout == 30.0
        assert args.profile
        assert args.telemetry_max_bytes == 1000000
        assert args.manifest == "m.json"
        quiet = parser.parse_args(["monitor", "--demo"])
        assert quiet.alert_rules is None
        assert quiet.flight_recorder is None
        assert quiet.stall_timeout is None
        assert not quiet.profile

    def test_report_command_parses(self):
        parser = build_parser()
        args = parser.parse_args([
            "report", "--events", "a.jsonl", "--events", "b.jsonl",
            "--bench", "BENCH_x.json", "--baseline", "base",
            "--tolerance", "0.1", "--out", "r.html",
            "--title", "t", "--fail-on-regression",
        ])
        assert args.events == ["a.jsonl", "b.jsonl"]
        assert args.bench == ["BENCH_x.json"]
        assert args.baseline == "base"
        assert args.tolerance == 0.1
        assert args.fail_on_regression


class TestProvenanceAndReport:
    def test_telemetry_run_writes_manifest_and_event(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(TestTelemetry.MONITOR_ARGS
                    + ["--telemetry", str(events_path)])
        assert code == 0
        capsys.readouterr()
        manifest_path = tmp_path / "events.manifest.json"
        assert manifest_path.exists()
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "monitor"
        assert manifest["config"]["__type__"] == "MonitorConfig"
        assert manifest["seeds"]["demo"] == 0
        assert "em" in manifest["seeds"]  # harvested from the EM config
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        (record,) = [e for e in events if e["kind"] == "run.manifest"]
        assert record["run_id"] == manifest["run_id"]

    def test_explicit_manifest_path_without_telemetry(self, tmp_path,
                                                      capsys):
        csv_path = strong_csv(tmp_path)
        manifest_path = tmp_path / "run.manifest.json"
        code = main(["identify", str(csv_path), "--hidden", "1",
                     "--manifest", str(manifest_path)])
        assert code == 0
        manifest = json.loads(manifest_path.read_text())
        assert manifest["command"] == "identify"
        assert manifest["inputs"] == [str(csv_path)]

    def test_report_command_builds_html_from_monitor_run(self, tmp_path,
                                                         capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(TestTelemetry.MONITOR_ARGS
                    + ["--telemetry", str(events_path)]) == 0
        out_path = tmp_path / "report.html"
        code = main(["report", "--events", str(events_path),
                     "--out", str(out_path)])
        captured = capsys.readouterr()
        assert code == 0
        assert "report written to" in captured.out
        html_text = out_path.read_text(encoding="utf-8")
        assert "<svg" in html_text
        assert "Monitored paths" in html_text
        assert "Provenance" in html_text

    def test_monitor_with_default_alert_rules_stays_quiet(self, tmp_path,
                                                          capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(TestTelemetry.MONITOR_ARGS
                    + ["--telemetry", str(events_path),
                       "--alert-rules", "default"])
        assert code == 0  # healthy demo run: no fatal alerts
        capsys.readouterr()
        kinds = {json.loads(line)["kind"]
                 for line in events_path.read_text().splitlines()}
        assert "alert.fired" not in kinds

    def test_monitor_profile_prints_phase_summary(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(TestTelemetry.MONITOR_ARGS
                    + ["--telemetry", str(events_path), "--profile"])
        assert code == 0
        captured = capsys.readouterr()
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        # Every fused group fit is one window.fit phase, the cold first
        # window's group included.
        group_fits = sum(e["groups"] for e in events
                         if e["kind"] == "drain.round")
        assert group_fits == 3
        (phase,) = [e for e in events if e["kind"] == "profile.phase"
                    and e["phase"] == "window.fit"]
        assert phase["calls"] == group_fits
        assert f"window.fit: {group_fits} call(s)" in captured.err


class TestSlowCommands:
    @pytest.mark.slow
    def test_simulate_then_identify_then_pinpoint(self, tmp_path, capsys):
        obs_path = tmp_path / "sim.csv"
        trace_path = tmp_path / "sim.npz"
        code = main([
            "simulate", "--scenario", "strong", "--duration", "60",
            "--warmup", "15", "--out", str(obs_path),
            "--trace-out", str(trace_path),
        ])
        assert code == 0
        code = main(["identify", str(obs_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "verdict: strong" in out
        code = main(["pinpoint", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "r2->r3" in out
