"""Tests for warm-started per-window EM fits."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.discretize import DelayDiscretizer
from repro.experiments.streams import strong_dcl_stream
from repro.models.base import EMConfig, InsufficientLossError
from repro.netsim.trace import PathObservation
from repro.streaming.online_em import (WarmState, _trail_collapsed,
                                       streaming_fit)

EM = EMConfig(tol=1e-3, max_iter=200, seed=7)


def observation_from(records):
    send_times, delays = zip(*records)
    return PathObservation(np.array(send_times), np.array(delays))


def symbolize(observation, n_symbols=5):
    discretizer = DelayDiscretizer.from_observation(observation, n_symbols)
    return discretizer.observation_sequence(observation)


@pytest.fixture(scope="module")
def window_pair():
    """Two overlapping windows of one stationary strong-DCL stream."""
    records = list(strong_dcl_stream(2000, seed=3))
    first = symbolize(observation_from(records[:800]))
    second = symbolize(observation_from(records[400:1200]))
    return first, second


class TestWarmStart:
    # EM is a local optimizer: across *different* windows warm and cold
    # may settle in different basins, so the HMM case gets a loose
    # comparison while the MMHD cases (whose optimum is effectively
    # unique here) must match to round-off.
    @pytest.mark.parametrize("kind,n_hidden,tol", [
        ("mmhd", 1, 1e-3), ("mmhd", 2, 1e-3), ("hmm", 2, 5.0),
    ])
    def test_warm_at_least_as_good_as_cold(self, window_pair, kind,
                                           n_hidden, tol):
        first, second = window_pair
        cold_first = streaming_fit(first, n_hidden, config=EM, kind=kind)
        assert not cold_first.warm_used
        warm = streaming_fit(second, n_hidden, config=EM, kind=kind,
                             warm=cold_first.warm_state())
        cold = streaming_fit(second, n_hidden, config=EM, kind=kind)
        assert warm.warm_used
        assert warm.fallback_reason is None
        assert (warm.fitted.log_likelihood
                >= cold.fitted.log_likelihood - tol)

    def test_warm_converges_faster(self, window_pair):
        first, second = window_pair
        cold_first = streaming_fit(first, 1, config=EM, kind="mmhd")
        warm = streaming_fit(second, 1, config=EM, kind="mmhd",
                             warm=cold_first.warm_state())
        cold = streaming_fit(second, 1, config=EM, kind="mmhd")
        assert warm.fitted.n_iter < cold.fitted.n_iter

    def test_same_window_warm_refit_is_nearly_instant(self, window_pair):
        first, _ = window_pair
        cold = streaming_fit(first, 1, config=EM, kind="mmhd")
        again = streaming_fit(first, 1, config=EM, kind="mmhd",
                              warm=cold.warm_state())
        assert again.warm_used
        assert again.fitted.n_iter <= 2
        assert (again.fitted.log_likelihood
                >= cold.fitted.log_likelihood - 1e-6)

    def test_pmf_shape_and_normalisation(self, window_pair):
        first, second = window_pair
        cold = streaming_fit(first, 2, config=EM, kind="mmhd")
        warm = streaming_fit(second, 2, config=EM, kind="mmhd",
                             warm=cold.warm_state())
        pmf = warm.fitted.virtual_delay_pmf
        assert pmf.shape == (second.n_symbols,)
        assert pmf.sum() == pytest.approx(1.0)


class TestFallback:
    def test_shape_mismatch_falls_back_to_cold(self, window_pair):
        first, second = window_pair
        cold = streaming_fit(first, 2, config=EM, kind="mmhd")
        mismatched = streaming_fit(second, 3, config=EM, kind="mmhd",
                                   warm=cold.warm_state())
        # Not an error: the warm state was simply unusable.
        assert not mismatched.warm_used
        assert mismatched.fallback_reason is None

    def test_kind_mismatch_falls_back_to_cold(self, window_pair):
        first, second = window_pair
        cold = streaming_fit(first, 2, config=EM, kind="mmhd")
        crossed = streaming_fit(second, 2, config=EM, kind="hmm",
                                warm=cold.warm_state())
        assert not crossed.warm_used
        assert crossed.fallback_reason is None

    def test_degenerate_warm_state_recovers_cleanly(self, window_pair):
        _, second = window_pair
        n = second.n_symbols
        # pi concentrated on one symbol plus an absorbing identity
        # transition: the observed symbol changes have zero probability,
        # so the warm E-step hits a zero likelihood.
        degenerate = WarmState("mmhd", n, 1, {
            "pi": np.eye(n)[0],
            "transition": np.eye(n),
            "loss_given_symbol": np.full(n, 0.01),
        })
        result = streaming_fit(second, 1, config=EM, kind="mmhd",
                               warm=degenerate)
        assert not result.warm_used
        assert result.fallback_reason == "zero-likelihood"
        # The fallback fit is a normal cold fit.
        cold = streaming_fit(second, 1, config=EM, kind="mmhd")
        assert (result.fitted.log_likelihood
                == pytest.approx(cold.fitted.log_likelihood))

    def test_no_losses_raises_typed_error(self):
        records = [(i * 0.02, 0.02 + 0.001 * (i % 7)) for i in range(300)]
        seq = symbolize(observation_from(records))
        with pytest.raises(InsufficientLossError):
            streaming_fit(seq, 1, config=EM, kind="mmhd")

    def test_insufficient_loss_error_is_a_value_error(self):
        # Pre-existing call sites catch ValueError; the subsystem must
        # not break them.
        assert issubclass(InsufficientLossError, ValueError)

    def test_unknown_kind_rejected(self, window_pair):
        first, _ = window_pair
        with pytest.raises(ValueError, match="kind"):
            streaming_fit(first, 1, config=EM, kind="markov")


class TestWarmState:
    def test_snapshot_roundtrip_mmhd(self, window_pair):
        first, _ = window_pair
        fitted = streaming_fit(first, 2, config=EM, kind="mmhd").fitted
        state = WarmState.from_model(fitted.model)
        rebuilt = state.build_model()
        np.testing.assert_allclose(rebuilt.pi, fitted.model.pi)
        np.testing.assert_allclose(rebuilt.transition,
                                   fitted.model.transition)
        np.testing.assert_allclose(rebuilt.loss_given_symbol,
                                   fitted.model.loss_given_symbol)

    def test_snapshot_roundtrip_hmm(self, window_pair):
        first, _ = window_pair
        fitted = streaming_fit(first, 2, config=EM, kind="hmm").fitted
        state = WarmState.from_model(fitted.model)
        rebuilt = state.build_model()
        np.testing.assert_allclose(rebuilt.emission, fitted.model.emission)

    def test_snapshot_is_a_copy(self, window_pair):
        first, _ = window_pair
        fitted = streaming_fit(first, 1, config=EM, kind="mmhd").fitted
        state = WarmState.from_model(fitted.model)
        state.params["pi"][0] = 123.0
        assert fitted.model.pi[0] != 123.0

    def test_matches(self, window_pair):
        first, _ = window_pair
        state = streaming_fit(first, 2, config=EM, kind="mmhd").warm_state()
        assert state.matches(first.n_symbols, 2, "mmhd")
        assert not state.matches(first.n_symbols, 3, "mmhd")
        assert not state.matches(first.n_symbols + 1, 2, "mmhd")
        assert not state.matches(first.n_symbols, 2, "hmm")

    def test_picklable(self, window_pair):
        import pickle

        first, _ = window_pair
        state = streaming_fit(first, 2, config=EM, kind="hmm").warm_state()
        clone = pickle.loads(pickle.dumps(state))
        assert clone.matches(first.n_symbols, 2, "hmm")
        np.testing.assert_allclose(clone.params["pi"], state.params["pi"])

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            WarmState("markov", 5, 2, {})


def first_flag(trail, window=None):
    """``(iteration, reason)`` of the first step the trail check flags,
    scanning the trail as the warm phase does: one entry per iteration,
    the check shown the whole trail so far or only its last ``window``
    entries."""
    for k in range(1, len(trail) + 1):
        seen = trail[:k] if window is None else trail[:k][-window:]
        reason = _trail_collapsed(seen)
        if reason is not None:
            return k, reason
    return None, None


#: One warm-trail step: a rise, a drop (inside or past the monotone
#: slack of about 0.5), or a non-finite value standing in for the entry.
TRAIL_STEPS = st.one_of(
    st.floats(0.0, 5.0),
    st.floats(-5.0, 0.0),
    st.floats(-0.6, -0.4),
    st.sampled_from([np.nan, np.inf, -np.inf]),
)


class TestTrailCheck:
    @settings(max_examples=300, deadline=None)
    @given(start=st.floats(-1e5, -1.0), steps=st.lists(TRAIL_STEPS,
                                                        min_size=1,
                                                        max_size=40))
    def test_last_two_entries_flag_what_the_full_trail_flags(self, start,
                                                             steps):
        """Checking each iteration's last step flags the same first
        iteration, for the same reason, as checking the whole trail."""
        trail, level = [], start
        for step in steps:
            if np.isfinite(step):
                level += step
                trail.append(level)
            else:
                trail.append(step)
        assert first_flag(trail, window=2) == first_flag(trail)

