"""Tests for the ``repro monitor`` CLI subcommand."""

import io
import json

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.streams import strong_dcl_stream
from repro.measurement.traceio import save_observation
from repro.netsim.trace import PathObservation


def stream_csv(tmp_path, n=1500, seed=20, name="obs.csv"):
    send_times, delays = zip(*strong_dcl_stream(n, seed=seed))
    path = tmp_path / name
    save_observation(PathObservation(np.array(send_times), np.array(delays)),
                     path)
    return path


def quiet_csv(tmp_path, n=1500, name="quiet.csv"):
    """A loss-free input: every window is a ``no-losses`` skip."""
    delays = 0.02 + 0.1 * np.random.default_rng(9).random(n)
    path = tmp_path / name
    save_observation(PathObservation(0.02 * np.arange(n), delays), path)
    return path


def monitor_args(*extra):
    return ["monitor", "--window", "600", "--hop", "300", "--hidden", "1",
            "--confirm", "2", "--memory", "3", "--no-stationarity-gate",
            *extra]


def emitted_events(capsys):
    out = capsys.readouterr().out
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestParsing:
    def test_monitor_command_parses(self):
        parser = build_parser()
        args = parser.parse_args(["monitor", "a.csv", "b.csv", "--follow",
                                  "--jobs", "2", "--max-windows", "4"])
        assert args.inputs == ["a.csv", "b.csv"]
        assert args.follow
        assert args.jobs == 2

    def test_no_inputs_and_no_demo_exits(self, capsys):
        with pytest.raises(SystemExit, match="monitor"):
            main(monitor_args())


class TestEvents:
    def test_csv_input_emits_jsonl_verdicts(self, tmp_path, capsys):
        csv_path = stream_csv(tmp_path)
        code = main(monitor_args(str(csv_path)))
        events = emitted_events(capsys)
        assert code == 0
        # 1500 probes, window 600 hop 300: windows at 600..1500.
        assert len(events) == 4
        assert all(e["path"] == str(csv_path) for e in events)
        assert events[-1]["stable_verdict"] == "strong"
        assert events[-1]["probe_range"] == [900, 1500]

    def test_multiple_inputs_tracked_as_separate_paths(self, tmp_path,
                                                       capsys):
        first = stream_csv(tmp_path, seed=20, name="a.csv")
        second = stream_csv(tmp_path, seed=21, name="b.csv")
        code = main(monitor_args(str(first), str(second)))
        events = emitted_events(capsys)
        assert code == 0
        assert {e["path"] for e in events} == {str(first), str(second)}
        for path in (str(first), str(second)):
            windows = [e["window"] for e in events if e["path"] == path]
            assert windows == sorted(windows)

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        csv_path = stream_csv(tmp_path, n=700)
        monkeypatch.setattr("sys.stdin", io.StringIO(csv_path.read_text()))
        code = main(monitor_args("-"))
        events = emitted_events(capsys)
        assert code == 0
        assert events
        assert all(e["path"] == "stdin" for e in events)
        # The 100-probe leftover still becomes a final tail window.
        assert events[-1]["probe_range"][1] == 700

    def test_demo_stream(self, capsys):
        code = main(monitor_args("--demo", "700", "--seed", "20"))
        events = emitted_events(capsys)
        assert code == 0
        assert events[0]["path"] == "demo"
        assert events[0]["status"] == "ok"
        assert events[0]["verdict"] == "strong"

    def test_max_windows_stops_early(self, capsys):
        code = main(monitor_args("--demo", "3000", "--max-windows", "2"))
        events = emitted_events(capsys)
        assert code == 0
        assert len(events) == 2

    def test_later_windows_warm_start(self, capsys):
        main(monitor_args("--demo", "1500", "--seed", "20"))
        events = emitted_events(capsys)
        assert not events[0]["warm_start"]
        assert all(e["warm_start"] for e in events[1:])

    def test_event_schema_is_stable(self, capsys):
        main(monitor_args("--demo", "700", "--seed", "20"))
        (event, *_) = emitted_events(capsys)
        assert set(event) == {
            "path", "window", "probe_range", "time_range", "status",
            "reason", "verdict", "stable_verdict", "changed", "g_pmf",
            "d_star", "bound_seconds", "loss_rate", "log_likelihood",
            "n_iter", "warm_start", "fallback_reason", "lag_ms",
        }


class TestIngestTimeEvents:
    def test_quiet_path_skips_print_before_the_drain(self, tmp_path,
                                                     capsys):
        """The quiet input's windows resolve at ingest, so its first
        skip prints before the congested input's first verdict, though
        the congested input is read first."""
        congested = stream_csv(tmp_path, name="c.csv")
        quiet = quiet_csv(tmp_path)
        assert main(monitor_args(str(congested), str(quiet))) == 0
        events = emitted_events(capsys)
        skips = [e for e in events if e["path"] == str(quiet)]
        assert [e["window"] for e in skips] == [0, 1, 2, 3]
        assert {e["reason"] for e in skips} == {"no-losses"}
        assert len(events) == 8
        assert (events[0]["path"], events[0]["window"]) == (str(quiet), 0)

    def test_max_windows_counts_ingest_time_skips(self, tmp_path, capsys):
        congested = stream_csv(tmp_path, name="c.csv")
        quiet = quiet_csv(tmp_path)
        code = main(monitor_args(str(congested), str(quiet),
                                 "--max-windows", "1"))
        assert code == 0
        (event,) = emitted_events(capsys)
        assert (event["path"], event["window"]) == (str(quiet), 0)
        assert main(monitor_args(str(quiet), "--max-windows", "3")) == 0
        assert [e["window"] for e in emitted_events(capsys)] == [0, 1, 2]

