"""Golden transcripts of ``repro monitor`` and ``repro serve``.

Each transcript is the stdout JSONL of one CLI run with the wall-clock
``lag_ms`` field dropped, asserted byte for byte; a second file pins
every subcommand's flags and their defaults.  Both were recorded from
the CLI as it stood before ``monitor`` became the fleet service on
finite input, so they hold that change to the old outputs.  Regenerate
them (``python -m tests.streaming.test_cli_golden`` from the repository
root, with ``src`` on ``PYTHONPATH``) only for a change that is meant to
alter verdicts or flags.
"""

import argparse
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.experiments.streams import strong_dcl_stream
from repro.measurement.traceio import save_observation
from repro.netsim.trace import PathObservation

DATA = Path(__file__).parent / "data"

SMALL = ["--window", "600", "--hop", "300", "--hidden", "1", "--confirm",
         "2", "--memory", "3", "--no-stationarity-gate"]

#: name -> (argv, stdin file or None); inputs are relative to the run's
#: working directory, so event paths read ``c.csv`` and ``quiet.csv``.
RUNS = {
    "monitor_pair": (["monitor", *SMALL, "c.csv", "quiet.csv"], None),
    "monitor_pair_max1": (["monitor", *SMALL, "c.csv", "quiet.csv",
                           "--max-windows", "1"], None),
    "monitor_pair_max3": (["monitor", *SMALL, "c.csv", "quiet.csv",
                           "--max-windows", "3"], None),
    "monitor_stdin": (["monitor", *SMALL, "-"], "c.csv"),
    "monitor_demo": (["monitor", *SMALL, "--demo", "1500", "--seed", "20"],
                     None),
    "serve_pair": (["serve", *SMALL, "--exit-when-idle", "--interval", "0.01",
                    "c.csv", "quiet.csv"], None),
}


def write_inputs(directory: Path) -> None:
    """The congested and loss-free CSVs of the monitor CLI tests."""
    send_times, delays = zip(*strong_dcl_stream(1500, seed=20))
    save_observation(PathObservation(np.array(send_times), np.array(delays)),
                     directory / "c.csv")
    quiet = 0.02 + 0.1 * np.random.default_rng(9).random(1500)
    save_observation(PathObservation(0.02 * np.arange(1500), quiet),
                     directory / "quiet.csv")


def transcript(argv, stdin=None) -> str:
    """One run's stdout, each event re-serialised without ``lag_ms``."""
    out = io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.StringIO(Path(stdin).read_text())
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(list(argv)) == 0
    finally:
        sys.stdin = saved
    lines = []
    for line in out.getvalue().splitlines():
        event = json.loads(line)
        event.pop("lag_ms")
        lines.append(json.dumps(event) + "\n")
    return "".join(lines)


def flag_table() -> dict:
    """Every subcommand's flags: option strings, default and parsing."""
    parser = build_parser()
    (commands,) = [a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction)]
    table = {}
    for name, sub in [("repro", parser), *sorted(commands.choices.items())]:
        flags = {}
        for action in sub._actions:
            if isinstance(action, (argparse._HelpAction,
                                   argparse._SubParsersAction)):
                continue
            flags[action.dest] = {
                "options": list(action.option_strings),
                "default": action.default,
                "const": action.const,
                "nargs": action.nargs,
                "choices": (None if action.choices is None
                            else list(action.choices)),
                "type": getattr(action.type, "__name__", action.type),
                "required": action.required,
                "action": type(action).__name__,
            }
        table[name] = dict(sorted(flags.items()))
    return table


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_inputs(directory)
    return directory


@pytest.mark.parametrize("name", sorted(RUNS))
def test_transcript_is_unchanged(name, inputs, monkeypatch):
    argv, stdin = RUNS[name]
    monkeypatch.chdir(inputs)
    expected = (DATA / f"{name}.jsonl").read_text()
    assert transcript(argv, stdin) == expected


def test_serve_prints_what_monitor_prints():
    assert ((DATA / "serve_pair.jsonl").read_text()
            == (DATA / "monitor_pair.jsonl").read_text())


def test_flags_and_defaults_are_unchanged():
    expected = json.loads((DATA / "cli_flags.json").read_text())
    assert flag_table() == expected


def regenerate() -> None:
    """Rewrite every golden file from the current CLI."""
    import tempfile

    DATA.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as scratch:
        write_inputs(Path(scratch))
        here = os.getcwd()
        os.chdir(scratch)
        try:
            texts = {name: transcript(argv, stdin)
                     for name, (argv, stdin) in RUNS.items()}
        finally:
            os.chdir(here)
    for name, text in texts.items():
        (DATA / f"{name}.jsonl").write_text(text)
    (DATA / "cli_flags.json").write_text(
        json.dumps(flag_table(), indent=1) + "\n")


if __name__ == "__main__":
    regenerate()
