"""Golden outputs of the identification pipeline on one fixed stream.

``identify`` and ``estimate_bound`` on a fixed ``strong_dcl_stream``,
pinned field by field: the fields the repository benchmark digests
(verdict, both tests' decisions and ``d*``, the fit's iteration count,
the bound's method, symbol and seconds) exactly, and Ĝ to 1e-6.  A
kernel change that moves any published result fails here, not only in
the benchmark's payload digest.
"""

import numpy as np
import pytest

from repro.core.identify import estimate_bound, identify
from repro.experiments.streams import strong_dcl_stream
from repro.netsim.trace import PathObservation

#: Ĝ of the fit below (M = 5): nearly all loss mass on the top symbol.
G_PMF = [4.349704369971952e-17, 3.193026511423195e-17,
         9.132093726126728e-14, 0.00019385276803776568,
         0.9998061472318709]


@pytest.fixture(scope="module")
def observation():
    records = np.array(list(strong_dcl_stream(2000, seed=7)))
    return PathObservation(records[:, 0], records[:, 1])


def test_identify_golden(observation):
    report = identify(observation)
    assert report.verdict == "strong"
    assert (report.sdcl.accepted, int(report.sdcl.d_star)) == (True, 5)
    assert (report.wdcl.accepted, int(report.wdcl.d_star)) == (True, 5)
    assert report.fitted.n_iter == 157
    assert report.fitted.converged
    np.testing.assert_allclose(report.distribution.pmf, G_PMF, rtol=0,
                               atol=1e-6)


def test_bound_golden(observation):
    bound = estimate_bound(observation, "strong")
    assert (bound.method, int(bound.symbol)) == ("strong", 40)
    assert round(float(bound.seconds), 9) == 0.1
