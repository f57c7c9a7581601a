"""Package-level smoke tests: public API surface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_top_level_exports(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_subpackage_exports_resolve(self):
        for module in (repro.core, repro.models, repro.netsim,
                       repro.measurement, repro.experiments):
            for name in module.__all__:
                assert getattr(module, name) is not None

    def test_identify_reachable_from_top_level(self):
        # repro.core.identify is rebound to the function by the package's
        # from-import; both spellings must reach the same callable.
        assert repro.identify is repro.core.identify


class TestLazySubpackages:
    def test_core_import_leaves_the_stream_stack_unloaded(self):
        """Subpackages resolve on first attribute access, so importing
        the identification pipeline loads neither the experiments, the
        streaming stack nor the simulator (``repro.netsim`` resolves its
        exports lazily too; only its ``trace`` module is needed)."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        simulator = tuple(f"repro.netsim.{name}" for name in (
            "engine", "link", "monitor", "node", "packet", "probes",
            "queues", "topology", "wireless"))
        unloaded = ("repro.experiments", "repro.streaming") + simulator
        code = ("import sys, repro.core.identify, repro.measurement.traceio; "
                f"print(sorted(m for m in {unloaded!r} if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no attribute"):
            repro.not_a_subpackage
