"""Smoke tests for the packaged ``repro`` console entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def load_pyproject():
    try:
        import tomllib
    except ImportError:  # Python < 3.11
        import pytest

        pytest.skip("tomllib unavailable")
    return tomllib.loads((REPO / "pyproject.toml").read_text())


class TestEntryPoint:
    def test_pyproject_declares_the_script(self):
        project = load_pyproject()["project"]
        assert project["scripts"] == {"repro": "repro.cli:main"}

    def test_target_resolves_to_a_callable(self):
        module_name, _, attr = "repro.cli:main".partition(":")
        import importlib

        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr))

    def test_python_m_repro_help(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO / "src")
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert result.returncode == 0
        for command in ("simulate", "identify", "monitor", "stats"):
            assert command in result.stdout


#: Runs ``python -m repro --help`` and prints, as its last line, the BLAS
#: thread variables as they stood when numpy was first imported.
BLAS_SPY = """
import json, os, runpy, sys
VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
seen = {}
class Spy:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.update((v, os.environ.get(v)) for v in VARS)
sys.meta_path.insert(0, Spy)
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
print(json.dumps(seen))
"""


class TestBlasThreads:
    def blas_env_at_numpy_import(self, **preset):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                            "MKL_NUM_THREADS")}
        env.update(preset, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run([sys.executable, "-c", BLAS_SPY],
                                capture_output=True, text=True, env=env,
                                timeout=60)
        assert result.returncode == 0, result.stderr
        return json.loads(result.stdout.splitlines()[-1])

    def test_cli_defaults_to_one_blas_thread(self):
        assert self.blas_env_at_numpy_import() == {
            "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}

    def test_callers_choice_survives(self):
        assert self.blas_env_at_numpy_import(OPENBLAS_NUM_THREADS="3") == {
            "OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
