"""Registry churn never perturbs surviving paths' verdict streams.

The contract: paths registered and deregistered mid-run (including
re-registration of the same id) must leave every *surviving* path's
verdict stream byte-identical to a churn-free run — per-window fits of
that path alone (``PathMonitor``) — at every ``n_jobs``.  Warm-start
chaining, hysteresis and window assembly are per-path state, so churn
elsewhere in the fleet must be invisible.
"""

import pytest

from repro.experiments.streams import strong_dcl_stream
from repro.service import FleetService, IterableSource

from tests.service.conftest import event_keys, fast_config, payload_keys
from tests.streaming.fleet import reference_events

SURVIVORS = ("pA", "pB")


def survivor_streams():
    return {path: list(strong_dcl_stream(2100, seed=50 + i))
            for i, path in enumerate(SURVIVORS)}


def survivor_references():
    """Per-path verdict streams of churn-free, per-window runs."""
    return {path: event_keys(events) for path, events
            in reference_events(survivor_streams(), fast_config()).items()}


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_churn_leaves_survivors_byte_identical(n_jobs):
    payloads = []
    service = FleetService(base_config=fast_config(), n_jobs=n_jobs,
                           emit_fn=payloads.append)
    for path, records in survivor_streams().items():
        service.register(path, source=IterableSource(iter(records)))

    # Churn while the survivors are mid-stream: a transient path comes
    # and goes twice (second incarnation = generation 2), with overrides
    # that keep it in the same fused group and pending windows at every
    # deregistration.
    service.step()
    service.register(
        "transient",
        source=IterableSource(strong_dcl_stream(1500, seed=99)))
    service.step()
    assert service.deregister("transient")["generation"] == 1
    service.step()
    service.register(
        "transient", overrides={"confirm": 3},
        source=IterableSource(strong_dcl_stream(2400, seed=98)))
    service.step()
    service.deregister("transient")
    service.run(exit_when_idle=True, interval=0.0)

    got = payload_keys(payloads)
    reference = survivor_references()
    for path in SURVIVORS:
        mine = [k for k in got if f'"path": "{path}"' in k]
        assert mine == reference[path], f"{path} diverged under churn"
        assert len(mine) > 0


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_per_path_config_overrides_do_not_leak(n_jobs):
    """A path running overridden hysteresis/window parameters alongside
    default paths changes only its own stream."""
    payloads = []
    service = FleetService(base_config=fast_config(), n_jobs=n_jobs,
                           emit_fn=payloads.append)
    streams = survivor_streams()
    for path, records in streams.items():
        service.register(path, source=IterableSource(iter(records)))
    # Same (model, n_hidden, n_symbols): fuses with the others, but its
    # own hop/hysteresis.
    service.register(
        "custom", overrides={"window": 800, "confirm": 1, "memory": 2},
        source=IterableSource(strong_dcl_stream(2400, seed=97)))
    service.run(exit_when_idle=True, interval=0.0)

    got = payload_keys(payloads)
    reference = survivor_references()
    for path in SURVIVORS:
        assert [k for k in got if f'"path": "{path}"' in k] == \
            reference[path]
    custom = [k for k in got if '"path": "custom"' in k]
    # 2400 probes, window 800, hop 400 -> windows at 800..2400.
    assert len(custom) == 5
