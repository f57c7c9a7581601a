"""Run provenance manifests: who/what/why for every verdict.

The paper's verdicts (SDCL/WDCL acceptance, the ``Q_k`` bound) are only
trustworthy when a run can show *why* it produced them — which config,
seeds, model, package versions, and platform led to the numbers.  A
**manifest** captures exactly that, as a ``run.manifest`` telemetry
event and (optionally) a ``manifest.json`` artifact next to the event
file, and carries enough to *re-run the analysis*:
``identify_config_from_manifest`` / ``monitor_config_from_manifest``
rebuild the pipeline configuration — including every ``EMConfig`` seed
— so any verdict or BENCH number is reproducible from its manifest
alone (the test suite asserts verdict equality on the round trip).

Config serialization is generic: the pipeline configs (``EMConfig``,
``IdentifyConfig``, ``MonitorConfig``) are plain attribute bags, so
``vars()`` plus recursion over nested configs round-trips them without
per-class schemas.  A ``__type__`` marker records the class for
reconstruction.
"""

from __future__ import annotations

import inspect
import json
import logging
import os
import platform
import subprocess
import sys
import time
import uuid
from pathlib import Path
from typing import Optional, Union

from repro.obs.events import json_default

__all__ = [
    "MANIFEST_SCHEMA",
    "collect_manifest",
    "config_to_dict",
    "write_manifest",
    "load_manifest",
    "record_run",
    "em_config_from_dict",
    "identify_config_from_manifest",
    "monitor_config_from_manifest",
]

#: Manifest format version (bump on incompatible layout changes).
MANIFEST_SCHEMA = 1

_LOG = logging.getLogger(__name__)

#: Environment variables that alter parallelism or benchmark scale —
#: recorded so a manifest explains worker-count differences.
_RECORDED_ENV = ("REPRO_N_JOBS", "REPRO_BENCH_SCALE")


def _git_sha(cwd: Optional[Union[str, Path]] = None) -> Optional[str]:
    """The checked-out commit, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if cwd is None else str(cwd),
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else None


def config_to_dict(config) -> Optional[dict]:
    """A JSON-able projection of a pipeline config object.

    Recurses into nested configs (``IdentifyConfig.em`` is an
    ``EMConfig``) and tags each level with its class name so
    reconstruction can dispatch without guessing.
    """
    if config is None:
        return None
    out = {"__type__": type(config).__name__}
    for key, value in vars(config).items():
        if key.startswith("_"):
            continue
        if hasattr(value, "__dict__") and not isinstance(value, type):
            out[key] = config_to_dict(value)
        else:
            out[key] = value
    return out


def _config_kwargs(data: dict) -> dict:
    return {k: v for k, v in data.items() if k != "__type__"}


def em_config_from_dict(data: dict):
    """Rebuild an :class:`~repro.models.base.EMConfig` from a manifest.

    Keys that are no longer ``EMConfig`` fields are dropped: manifests
    written while the E-step engine had knobs carry its backend, dtype,
    block size and fast-path switch.  One warning names the dropped keys
    whose values chose something other than the knobs' defaults
    (``None``, ``True``, ``"auto"``, ``"float64"``), because the rebuilt
    config runs the one remaining path instead — the same fit to
    round-off.
    """
    from repro.models.base import EMConfig

    fields = _config_kwargs(data)
    known = inspect.signature(EMConfig).parameters
    dropped = {k: fields.pop(k) for k in list(fields) if k not in known}
    changed = {k: v for k, v in dropped.items()
               if not (v is None or v is True or v in ("auto", "float64"))}
    if changed:
        _LOG.warning("manifest EMConfig fields %s no longer exist; the "
                     "rebuilt config runs the single E-step engine", changed)
    return EMConfig(**fields)


def _rebuild_config(data: Optional[dict]):
    if data is None:
        return None
    kind = data.get("__type__")
    fields = _config_kwargs(data)
    if "em" in fields and isinstance(fields["em"], dict):
        fields["em"] = em_config_from_dict(fields["em"])
    if kind == "EMConfig":
        return em_config_from_dict(data)
    if kind == "IdentifyConfig":
        from repro.core.identify import IdentifyConfig

        return IdentifyConfig(**fields)
    if kind == "MonitorConfig":
        from repro.streaming.tracker import MonitorConfig

        return MonitorConfig(**fields)
    raise ValueError(f"cannot rebuild config of type {kind!r}")


def identify_config_from_manifest(manifest: dict):
    """The :class:`IdentifyConfig` a manifest's run used (seeds included)."""
    config = _rebuild_config(manifest.get("config"))
    from repro.core.identify import IdentifyConfig

    if not isinstance(config, IdentifyConfig):
        raise ValueError(
            f"manifest carries {type(config).__name__}, not IdentifyConfig"
        )
    return config


def monitor_config_from_manifest(manifest: dict):
    """The :class:`MonitorConfig` a manifest's run used (seeds included)."""
    config = _rebuild_config(manifest.get("config"))
    from repro.streaming.tracker import MonitorConfig

    if not isinstance(config, MonitorConfig):
        raise ValueError(
            f"manifest carries {type(config).__name__}, not MonitorConfig"
        )
    return config


def collect_manifest(
    command: str,
    config=None,
    argv: Optional[list] = None,
    seeds: Optional[dict] = None,
    inputs: Optional[list] = None,
    extra: Optional[dict] = None,
) -> dict:
    """Assemble one run's provenance manifest (pure data, no I/O).

    Parameters
    ----------
    command:
        The logical run kind (``identify``, ``monitor``, ``bench:...``).
    config:
        The pipeline config object (serialized via :func:`config_to_dict`).
    argv:
        The command line (defaults to ``sys.argv``).
    seeds:
        Named seed streams beyond the ones inside ``config`` (e.g. the
        demo stream seed).
    inputs:
        Input file paths the run consumed.
    extra:
        Free-form command-specific fields.
    """
    import numpy

    from repro.version import __version__

    config_dict = config_to_dict(config)
    seed_map = dict(seeds or {})
    # Surface the EM seed even when it only lives inside the config, so
    # "which seeds?" is answerable without walking the config tree.
    em = (config_dict or {}).get("em")
    if isinstance(em, dict) and "seed" in em:
        seed_map.setdefault("em", em["seed"])
    elif isinstance(config_dict, dict) and "seed" in config_dict:
        seed_map.setdefault("em", config_dict["seed"])
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "run_id": uuid.uuid4().hex[:12],
        "command": command,
        "argv": list(sys.argv if argv is None else argv),
        "wall": time.time(),
        "pid": os.getpid(),
        "config": config_dict,
        "seeds": seed_map,
        "inputs": list(inputs or []),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "packages": {"repro": __version__, "numpy": numpy.__version__},
        "git_sha": _git_sha(),
        "env": {key: os.environ[key] for key in _RECORDED_ENV
                if key in os.environ},
    }
    if extra:
        manifest.update(extra)
    return manifest


def write_manifest(manifest: dict, path: Union[str, Path]) -> Path:
    """Persist a manifest as pretty-printed JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(manifest, indent=2, default=json_default) + "\n",
        encoding="utf-8",
    )
    return path


def load_manifest(path: Union[str, Path]) -> dict:
    """Read a ``manifest.json`` back."""
    return json.loads(Path(path).read_text(encoding="utf-8"))


def record_run(
    command: str,
    config=None,
    out_path: Optional[Union[str, Path]] = None,
    **collect_kwargs,
) -> dict:
    """Collect a manifest, write the artifact, emit the event.

    The one-call entry point the CLI and the benchmarks use: builds the
    manifest, writes ``manifest.json`` when ``out_path`` is given, and
    emits the ``run.manifest`` event (a no-op when telemetry is off).
    Returns the manifest dict either way.
    """
    from repro import obs

    manifest = collect_manifest(command, config=config, **collect_kwargs)
    written = None
    if out_path is not None:
        written = write_manifest(manifest, out_path)
    obs.emit(
        "run.manifest",
        run_id=manifest["run_id"],
        command=command,
        manifest_path=None if written is None else str(written),
        manifest=manifest,
    )
    return manifest
