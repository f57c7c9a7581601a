"""Serial and parallel fits must be numerically identical.

The contract (ISSUE: parallel EM execution layer): for every entry point
that accepts ``n_jobs``, the result is a pure function of the inputs and
the seed — never of the worker count, worker scheduling, or completion
order.  These tests pin that with exact (``rtol=0, atol=0``) comparisons.
"""

import numpy as np
import pytest

from repro.core.bootstrap import bootstrap_identification
from repro.core.identify import IdentifyConfig
from repro.models.base import EMConfig
from repro.models.hmm import fit_hmm
from repro.models.mmhd import fit_mmhd
from repro.models.selection import select_n_hidden
from tests.conftest import make_markov_sequence
from tests.models import dense_reference

N_JOBS = [1, 4]


@pytest.fixture(scope="module")
def seq():
    sequence, _ = make_markov_sequence(n_steps=1500, seed=5)
    return sequence


def _config(n_jobs, **overrides):
    base = dict(tol=1e-3, max_iter=40, n_restarts=3, seed=9,
                freeze_loss_iters=2, n_jobs=n_jobs)
    base.update(overrides)
    return EMConfig(**base)


def _assert_fits_identical(a, b):
    assert np.allclose(a.virtual_delay_pmf, b.virtual_delay_pmf,
                       rtol=0, atol=0)
    assert a.log_likelihood == b.log_likelihood
    assert a.n_iter == b.n_iter
    assert a.converged == b.converged
    assert np.allclose(a.log_likelihoods, b.log_likelihoods, rtol=0, atol=0)


class TestFitDeterminism:
    @pytest.mark.parametrize("fitter", [fit_hmm, fit_mmhd],
                             ids=["hmm", "mmhd"])
    def test_parallel_matches_serial(self, seq, fitter):
        serial = fitter(seq, n_hidden=2, config=_config(1))
        parallel = fitter(seq, n_hidden=2, config=_config(4))
        _assert_fits_identical(serial, parallel)

    @pytest.mark.parametrize("fitter", [fit_hmm, fit_mmhd],
                             ids=["hmm", "mmhd"])
    def test_repeated_parallel_fits_identical(self, seq, fitter):
        first = fitter(seq, n_hidden=2, config=_config(4))
        second = fitter(seq, n_hidden=2, config=_config(4))
        _assert_fits_identical(first, second)

    def test_restarts_explore_distinct_initialisations(self, seq):
        """Multi-restart must actually search: with data-driven init off,
        different restart streams reach different likelihoods at a tight
        iteration budget, and the reduction picks the best."""
        config = _config(1, n_restarts=4, max_iter=5, data_driven_init=False)
        fitted = fit_mmhd(seq, n_hidden=2, config=config)
        singles = [
            fit_mmhd(seq, n_hidden=2,
                     config=_config(1, n_restarts=1, max_iter=5,
                                    data_driven_init=False))
        ]
        assert fitted.log_likelihood >= singles[0].log_likelihood

    def test_fast_path_matches_dense(self, seq):
        """The engine's run-folded fit against the dense per-step
        oracle's sequential fit of every restart."""
        fast = fit_mmhd(seq, n_hidden=2, config=_config(1))
        dense = dense_reference.fit_best("mmhd", seq, 2, _config(1))
        assert np.allclose(fast.virtual_delay_pmf, dense.virtual_delay_pmf,
                           atol=1e-8)
        assert np.isclose(fast.log_likelihood, dense.log_likelihood,
                          rtol=1e-9)


class TestSelectionDeterminism:
    def test_parallel_matches_serial(self, seq):
        kwargs = dict(candidates=(1, 2), config=_config(1, n_restarts=1))
        serial = select_n_hidden(seq, n_jobs=1, **kwargs)
        parallel = select_n_hidden(seq, n_jobs=4, **kwargs)
        assert serial.best_n == parallel.best_n
        for n in serial.bics:
            assert serial.bics[n] == parallel.bics[n]
            _assert_fits_identical(serial.fits[n], parallel.fits[n])


class TestBootstrapDeterminism:
    @pytest.fixture(scope="class")
    def observation(self):
        # A synthetic PathObservation via the probe-trace surface is
        # heavyweight; the netsim runner is the natural source.
        from repro.experiments.runner import run_scenario
        from repro.experiments.scenarios import strong_dcl_scenario
        result = run_scenario(strong_dcl_scenario(1.0), seed=0,
                              duration=30.0, warmup=5.0)
        return result.trace.observation()

    def test_parallel_matches_serial(self, observation):
        config = IdentifyConfig(em=EMConfig(tol=1e-2, max_iter=25))
        kwargs = dict(config=config, n_replicates=4, seed=2,
                      replicate_max_iter=12)
        serial = bootstrap_identification(observation, n_jobs=1, **kwargs)
        parallel = bootstrap_identification(observation, n_jobs=4, **kwargs)
        assert np.allclose(serial.pmfs, parallel.pmfs, rtol=0, atol=0)
        assert np.array_equal(serial.sdcl_accepts, parallel.sdcl_accepts)
        assert np.array_equal(serial.wdcl_accepts, parallel.wdcl_accepts)
        lo_s, hi_s = serial.pmf_interval()
        lo_p, hi_p = parallel.pmf_interval()
        assert np.allclose(lo_s, lo_p, rtol=0, atol=0)
        assert np.allclose(hi_s, hi_p, rtol=0, atol=0)
