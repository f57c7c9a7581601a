"""Tests for the ``repro serve`` CLI subcommand."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.streams import strong_dcl_stream
from repro.measurement.traceio import save_observation
from repro.netsim.trace import PathObservation
from repro.service import FleetService


def stream_csv(tmp_path, n=1500, seed=20, name="obs.csv"):
    send_times, delays = zip(*strong_dcl_stream(n, seed=seed))
    path = tmp_path / name
    save_observation(PathObservation(np.array(send_times), np.array(delays)),
                     path)
    return path


def serve_args(*extra):
    return ["serve", "--window", "600", "--hop", "300", "--hidden", "1",
            "--confirm", "2", "--memory", "3", "--no-stationarity-gate",
            "--exit-when-idle", "--interval", "0.01", *extra]


def emitted_events(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestParsing:
    def test_serve_command_parses(self):
        args = build_parser().parse_args(
            ["serve", "a.csv", "--port", "8123", "--backpressure", "shed",
             "--high-watermark", "32", "--demo", "--demo-paths", "4"])
        assert args.inputs == ["a.csv"]
        assert args.port == 8123
        assert args.backpressure == "shed"
        assert args.high_watermark == 32
        assert args.demo == 8000
        assert args.demo_paths == 4
        assert args.alert_rules == "default"

    def test_bad_backpressure_mode_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--backpressure", "panic"])


class TestServeRuns:
    def test_demo_paths_emit_jsonl_verdicts(self, capsys):
        code = main(serve_args("--demo", "1500", "--demo-paths", "2",
                               "--seed", "20"))
        captured = capsys.readouterr()
        events = [json.loads(line) for line in captured.out.splitlines()
                  if line.strip()]
        assert code == 0
        assert {e["path"] for e in events} == {"demo-0", "demo-1"}
        for path in ("demo-0", "demo-1"):
            windows = [e["window"] for e in events if e["path"] == path]
            assert windows == [0, 1, 2, 3]
        assert "service: http://127.0.0.1:" in captured.err

    def test_csv_inputs_registered_as_paths(self, tmp_path, capsys):
        csv_path = stream_csv(tmp_path)
        code = main(serve_args(str(csv_path), "--quiet"))
        assert code == 0
        assert emitted_events(capsys) == []  # --quiet suppresses JSONL

    def test_serve_matches_monitor_verdicts(self, tmp_path, capsys):
        """The service CLI and the one-shot monitor CLI agree byte for
        byte on the same observation file (modulo wall-clock lag)."""
        csv_path = stream_csv(tmp_path)
        main(serve_args(str(csv_path)))
        served = emitted_events(capsys)
        main(["monitor", "--window", "600", "--hop", "300", "--hidden", "1",
              "--confirm", "2", "--memory", "3", "--no-stationarity-gate",
              str(csv_path)])
        monitored = emitted_events(capsys)

        def strip(events):
            return [json.dumps({k: v for k, v in e.items() if k != "lag_ms"},
                               sort_keys=True) for e in events]

        assert strip(served) == strip(monitored)
        assert len(served) == 4

    def test_metrics_file_written(self, tmp_path, capsys):
        metrics = tmp_path / "metrics.prom"
        code = main(serve_args("--demo", "900", "--quiet",
                               "--metrics-file", str(metrics)))
        assert code == 0
        text = metrics.read_text()
        assert "repro_service_rounds_total" in text
        assert "repro_service_records_total 900" in text
        assert 'repro_service_paths{status="active"} 1' in text

    def test_shed_backpressure_via_cli(self, capsys):
        code = main(serve_args("--demo", "6000", "--quiet",
                               "--backpressure", "shed",
                               "--high-watermark", "4",
                               "--low-watermark", "2",
                               "--max-pending", "64"))
        assert code == 0

    def test_telemetry_stream_is_schema_valid(self, tmp_path, capsys):
        from repro.obs import schema

        events_path = tmp_path / "events.jsonl"
        code = main(serve_args("--demo", "900", "--quiet",
                               "--telemetry", str(events_path)))
        assert code == 0
        events = [json.loads(line)
                  for line in events_path.read_text().splitlines()]
        kinds = {e["kind"] for e in events}
        assert {"service.path", "service.round", "run.manifest"} <= kinds
        for event in events:
            assert schema.validate_event(event) == [], event


def command_args(command, *extra):
    """The small geometry, for either command (``serve`` exits when idle)."""
    if command == "serve":
        return serve_args(*extra)
    return ["monitor", "--window", "600", "--hop", "300", "--hidden", "1",
            "--confirm", "2", "--memory", "3", "--no-stationarity-gate",
            *extra]


@pytest.mark.parametrize("command", ["monitor", "serve"])
class TestOneRuntime:
    """Both commands read CSVs with one row rule and refresh
    ``--metrics-file`` after every cycle."""

    def test_header_row_is_optional(self, tmp_path, capsys, command):
        csv_path = stream_csv(tmp_path)
        bare = tmp_path / "bare.csv"
        bare.write_text(csv_path.read_text().split("\n", 1)[1])
        assert main(command_args(command, str(csv_path))) == 0
        with_header = emitted_events(capsys)
        assert main(command_args(command, str(bare))) == 0
        without = emitted_events(capsys)
        assert len(with_header) == 4

        def strip(events):
            return [{k: v for k, v in e.items() if k not in ("lag_ms", "path")}
                    for e in events]

        assert strip(without) == strip(with_header)

    def test_header_after_the_first_row_raises(self, tmp_path, capsys,
                                               command):
        lines = stream_csv(tmp_path).read_text().splitlines()
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines[:700] + lines[:1] + lines[700:]))
        with pytest.raises(ValueError, match=r"bad\.csv:701: header row"):
            main(command_args(command, str(bad)))

    def test_metrics_file_refreshed_every_cycle(self, tmp_path, capsys,
                                                monkeypatch, command):
        metrics = tmp_path / "metrics.prom"
        seen = []
        step = FleetService.step

        def spying_step(service):
            seen.append(metrics.read_text() if metrics.exists() else None)
            return step(service)

        monkeypatch.setattr(FleetService, "step", spying_step)
        assert main(command_args(command, "--demo", "1500",
                                 "--metrics-file", str(metrics))) == 0
        assert len(seen) > 2 and seen[0] is None
        for cycles, text in enumerate(seen[1:], start=1):
            assert f"repro_service_rounds_total {cycles}\n" in text
