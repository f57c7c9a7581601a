"""Fleet monitoring service: registry, service loop, HTTP API, backpressure.

The streaming layer (:mod:`repro.streaming`) answers "given these
records, what are the verdicts?" for a fixed path set; this package
turns it into a long-running *service*: paths register and deregister
at runtime (:mod:`~repro.service.registry`), records arrive through
pluggable non-blocking sources (:mod:`~repro.service.ingest`), drains
run on a continuous schedule (:mod:`~repro.service.loop`), overload is
met with explicit shed/coarsen policies
(:mod:`~repro.service.backpressure`), and the whole thing is driven and
observed over a stdlib HTTP API (:mod:`~repro.service.api`) — started
from the CLI as ``repro serve``.  ``repro monitor`` runs the same
service on finite input, without the API.

The parity contract carries through: windows that are neither shed nor
re-strided produce, per path, the verdict stream of a
:class:`~repro.streaming.tracker.PathMonitor` run over that path's
records, byte for byte.
"""

from repro.service.backpressure import POLICIES, BackpressurePolicy
from repro.service.ingest import (IngestSource, IterableSource, QueueSource,
                                  StreamSource, TailSource)
from repro.service.loop import FleetService
from repro.service.registry import (ACTIVE, CONFIG_OVERRIDE_FIELDS, PAUSED,
                                    PathEntry, PathRegistry, merge_config)

__all__ = [
    "ACTIVE",
    "PAUSED",
    "CONFIG_OVERRIDE_FIELDS",
    "PathEntry",
    "PathRegistry",
    "merge_config",
    "IngestSource",
    "IterableSource",
    "QueueSource",
    "StreamSource",
    "TailSource",
    "BackpressurePolicy",
    "POLICIES",
    "FleetService",
    "ServiceAPI",
    "build_source",
]


def __getattr__(name):
    # ServiceAPI pulls in http.server; import it lazily so the service
    # core stays importable in minimal contexts (e.g. pool workers).
    if name in ("ServiceAPI", "build_source"):
        from repro.service import api

        return getattr(api, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
