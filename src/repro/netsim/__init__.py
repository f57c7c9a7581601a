"""Discrete-event, packet-level network simulator (the ns-2 substitute).

The simulator provides everything the paper's evaluation needs from ns-2:

* store-and-forward links with droptail or Adaptive-RED queues
  (:mod:`repro.netsim.queues`, :mod:`repro.netsim.link`);
* TCP-Reno FTP sources, ns-style empirical web traffic, and exponential
  UDP ON-OFF sources (:mod:`repro.netsim.tcp`, :mod:`repro.netsim.http`,
  :mod:`repro.netsim.traffic`);
* periodic probe streams with exact virtual-probe ground truth
  (:mod:`repro.netsim.probes`, :mod:`repro.netsim.trace`);
* a topology builder with the paper's Fig.-4 four-router chain
  (:mod:`repro.netsim.topology`).
"""

import importlib as _importlib

#: Exported name -> the submodule defining it.  Names resolve on first
#: attribute access (PEP 562, as ``repro`` does for its subpackages), so
#: importing :mod:`repro.netsim.trace` alone (the identification pipeline
#: needs only :class:`PathObservation`) does not load the simulator.
_EXPORTS = {
    "AdaptiveREDQueue": "queues",
    "DropTailQueue": "queues",
    "GilbertElliottLink": "wireless",
    "Host": "node",
    "Link": "link",
    "LossPairProber": "probes",
    "Network": "topology",
    "Node": "node",
    "Packet": "packet",
    "PathObservation": "trace",
    "PeriodicProber": "probes",
    "ProbeRecord": "trace",
    "ProbeTrace": "trace",
    "QueueMonitor": "monitor",
    "QueueStats": "monitor",
    "REDQueue": "queues",
    "Router": "node",
    "Simulator": "engine",
    "chain_network": "topology",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(
            f"module 'repro.netsim' has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"repro.netsim.{module}"), name)
    globals()[name] = value
    return value


__all__ = [
    "AdaptiveREDQueue",
    "DropTailQueue",
    "GilbertElliottLink",
    "Host",
    "Link",
    "LossPairProber",
    "Network",
    "Node",
    "Packet",
    "PathObservation",
    "PeriodicProber",
    "ProbeRecord",
    "ProbeTrace",
    "QueueMonitor",
    "QueueStats",
    "REDQueue",
    "Router",
    "Simulator",
    "chain_network",
]
