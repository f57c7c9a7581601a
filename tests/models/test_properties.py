"""Property-based tests (hypothesis) for the model layer."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import LOSS, EMConfig, ObservationSequence
from repro.models.hmm import HiddenMarkovModel
from repro.models.mmhd import MarkovModelHiddenDimension
from tests.models.dense_reference import expectations, symbol_occupancy


def sequences(min_size=12, max_size=120, n_symbols=4):
    """Observation sequences with at least one loss and one observation."""
    symbol = st.integers(min_value=1, max_value=n_symbols)
    body = st.lists(st.one_of(symbol, st.just(LOSS)),
                    min_size=min_size - 2, max_size=max_size - 2)
    return body.map(lambda xs: ObservationSequence([1] + xs + [LOSS], n_symbols))


def random_hmm(rng, n_hidden, n_symbols):
    pi = rng.dirichlet(np.ones(n_hidden))
    transition = rng.dirichlet(np.ones(n_hidden), size=n_hidden)
    emission = rng.dirichlet(np.ones(n_symbols), size=n_hidden)
    c = rng.uniform(0.05, 0.5, size=n_symbols)
    return HiddenMarkovModel(pi, transition, emission, c)


def random_mmhd(rng, n_hidden, n_symbols):
    n_states = n_hidden * n_symbols
    pi = rng.dirichlet(np.ones(n_states))
    transition = rng.dirichlet(np.ones(n_states), size=n_states)
    c = rng.uniform(0.05, 0.5, size=n_symbols)
    return MarkovModelHiddenDimension(pi, transition, c, n_symbols)


class TestHMMProperties:
    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_em_never_decreases_likelihood(self, seq, seed):
        rng = np.random.default_rng(seed)
        model = random_hmm(rng, n_hidden=2, n_symbols=4)
        before = model.log_likelihood(seq)
        new_model, reported = model.em_step(seq)
        after = new_model.log_likelihood(seq)
        # em_step reports the likelihood of the *current* parameters.
        np.testing.assert_allclose(reported, before, rtol=1e-9)
        assert after >= before - 1e-7

    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_posterior_is_distribution(self, seq, seed):
        rng = np.random.default_rng(seed)
        model = random_hmm(rng, n_hidden=2, n_symbols=4)
        pmf = model.virtual_delay_pmf(seq)
        assert pmf.shape == (4,)
        assert abs(pmf.sum() - 1.0) < 1e-9
        assert (pmf >= -1e-12).all()

    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_em_step_produces_valid_model(self, seq, seed):
        rng = np.random.default_rng(seed)
        model = random_hmm(rng, n_hidden=2, n_symbols=4)
        new_model, _ = model.em_step(seq)
        np.testing.assert_allclose(new_model.pi.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(new_model.transition.sum(axis=1), 1.0,
                                   atol=1e-9)
        np.testing.assert_allclose(new_model.emission.sum(axis=1), 1.0,
                                   atol=1e-9)
        assert ((new_model.loss_given_symbol > 0)
                & (new_model.loss_given_symbol < 1)).all()


class TestMMHDProperties:
    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_em_never_decreases_likelihood(self, seq, seed):
        rng = np.random.default_rng(seed)
        model = random_mmhd(rng, n_hidden=2, n_symbols=4)
        before = model.log_likelihood(seq)
        new_model, _ = model.em_step(seq)
        assert new_model.log_likelihood(seq) >= before - 1e-7

    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_posterior_is_distribution(self, seq, seed):
        rng = np.random.default_rng(seed)
        model = random_mmhd(rng, n_hidden=2, n_symbols=4)
        pmf = model.virtual_delay_pmf(seq)
        assert abs(pmf.sum() - 1.0) < 1e-9
        assert (pmf >= -1e-12).all()

    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_observed_instants_concentrate_on_observed_symbol(self, seq, seed):
        # gamma at an observed instant must sit entirely on that symbol's
        # column of the state space.
        rng = np.random.default_rng(seed)
        model = random_mmhd(rng, n_hidden=2, n_symbols=4)
        gamma, _, _ = expectations(model, seq)
        occupancy = symbol_occupancy(model, gamma)
        symbols0 = seq.zero_based()
        for t in range(len(seq)):
            if symbols0[t] != LOSS:
                assert occupancy[t, symbols0[t]] > 1.0 - 1e-9

    @settings(max_examples=25, deadline=None)
    @given(seq=sequences(), seed=st.integers(0, 100))
    def test_em_step_produces_valid_model(self, seq, seed):
        rng = np.random.default_rng(seed)
        model = random_mmhd(rng, n_hidden=2, n_symbols=4)
        new_model, _ = model.em_step(seq)
        np.testing.assert_allclose(new_model.pi.sum(), 1.0, atol=1e-9)
        np.testing.assert_allclose(new_model.transition.sum(axis=1), 1.0,
                                   atol=1e-9)
        assert ((new_model.loss_given_symbol > 0)
                & (new_model.loss_given_symbol < 1)).all()
