"""Model-based identification of dominant congested links.

A full reproduction of:

    Wei Wei, Bing Wang, Don Towsley, Jim Kurose,
    "Model-Based Identification of Dominant Congested Links",
    ACM SIGCOMM Internet Measurement Conference (IMC) 2003;
    extended version in IEEE/ACM Transactions on Networking 19(2), 2011.

The package is organised as:

``repro.netsim``
    A from-scratch discrete-event, packet-level network simulator (the ns-2
    substitute): droptail and Adaptive-RED queues, TCP-Reno, UDP ON-OFF and
    web-like cross traffic, and periodic probe streams with virtual-probe
    ground truth.

``repro.models``
    Hidden Markov model (HMM) and Markov model with a hidden dimension
    (MMHD), both fitted by EM with probe losses treated as delay
    observations with missing values.

``repro.core``
    The paper's contribution: delay discretization, virtual-queuing-delay
    distribution estimators, the SDCL/WDCL hypothesis tests, maximum
    queuing delay upper bounds, the loss-pair baseline, and the end-to-end
    :func:`repro.core.identify.identify` pipeline.

``repro.measurement``
    One-way-delay post-processing: clock offset/skew removal, stationary
    segment selection, and a pathchar-like per-hop capacity estimator.

``repro.experiments``
    Scenario builders and harnesses reproducing every table and figure of
    the paper's evaluation (see DESIGN.md for the index).

``repro.streaming``
    Online identification: sliding probe windows, warm-started EM fits,
    hysteresis verdict tracking, and a multi-path monitor scheduler (the
    ``repro monitor`` CLI).

Quickstart::

    from repro import experiments, core

    scenario = experiments.scenarios.strong_dcl_scenario(bottleneck_mbps=1.0)
    result = experiments.runner.run_scenario(scenario, seed=1)
    report = core.identify.identify(result.trace)
    print(report.summary())
"""

import importlib as _importlib
import logging as _logging

# Library convention: repro.* loggers stay silent unless the consumer
# configures handlers (the CLI's --log-level flag does).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro.version import __version__

#: Subpackages, plus the two names taken from ``repro.core.identify``,
#: resolve on first attribute access (PEP 562): importing one subpackage
#: does not load the experiments, the streaming stack or the TCP traffic
#: models.
_SUBPACKAGES = ("core", "experiments", "measurement", "models", "netsim",
                "obs", "streaming")
_FROM_IDENTIFY = ("IdentificationReport", "identify")


def __getattr__(name):
    if name in _SUBPACKAGES:
        value = _importlib.import_module(f"repro.{name}")
    elif name in _FROM_IDENTIFY:
        value = getattr(_importlib.import_module("repro.core.identify"), name)
    else:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    globals()[name] = value
    return value


__all__ = [
    "IdentificationReport",
    "__version__",
    "core",
    "experiments",
    "identify",
    "measurement",
    "models",
    "netsim",
    "obs",
    "streaming",
]
