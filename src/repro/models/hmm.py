"""Hidden Markov model with losses as missing delay observations.

The classic Rabiner HMM over delay symbols, extended as the paper
describes: a lost probe is a delay observation whose value is missing.
Concretely, with hidden states ``i = 1..N``, emission matrix
``B[i, m] = P(symbol m | state i)`` and ``c[m] = P(loss | symbol m)``,
the per-step observation likelihood is

* observed symbol ``m``:  ``B[i, m] * (1 - c[m])``;
* loss:                   ``sum_m B[i, m] * c[m]``.

EM marginalises the missing symbol at loss instants, and the paper's
eq. (5) posterior ``G(m) = P(symbol m | loss)`` falls out of the E-step.
All recursions are scaled (Rabiner Section V) so 10^5-observation
sequences pose no underflow risk.

Every E-pass — a restart stack's, a streaming window's, or one model's
in :meth:`HiddenMarkovModel.em_step` — runs the batched engine of
:mod:`repro.models.batched` (a single model is a one-row stack).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.models.base import (
    LOSS,
    EMConfig,
    FittedModel,
    ObservationSequence,
    SymbolIndex,
    floor_and_normalize,
    require_losses,
)

__all__ = ["HiddenMarkovModel", "fit_hmm"]


class _EStepStats:
    """Sufficient statistics of one E-pass of the loss-channel HMM."""

    __slots__ = ("gamma0", "xi_sum", "joint_obs", "joint_loss", "loglik")

    def __init__(self, gamma0, xi_sum, joint_obs, joint_loss, loglik):
        self.gamma0 = gamma0
        self.xi_sum = xi_sum
        self.joint_obs = joint_obs
        self.joint_loss = joint_loss
        self.loglik = loglik


class HiddenMarkovModel:
    """An HMM over delay symbols with a loss channel.

    Parameters
    ----------
    pi:
        Initial hidden-state distribution, shape ``(N,)``.
    transition:
        Hidden-state transition matrix, shape ``(N, N)``, row-stochastic.
    emission:
        ``B[i, m] = P(symbol m+1 | state i)``, shape ``(N, M)``.
    loss_given_symbol:
        ``c[m] = P(loss | symbol m+1)``, shape ``(M,)``, entries in (0, 1).
    """

    def __init__(
        self,
        pi: np.ndarray,
        transition: np.ndarray,
        emission: np.ndarray,
        loss_given_symbol: np.ndarray,
    ):
        pi = np.asarray(pi, dtype=float)
        transition = np.asarray(transition, dtype=float)
        emission = np.asarray(emission, dtype=float)
        loss_given_symbol = np.asarray(loss_given_symbol, dtype=float)
        n_hidden = len(pi)
        if transition.shape != (n_hidden, n_hidden):
            raise ValueError("transition must be (N, N) matching pi")
        if emission.ndim != 2 or emission.shape[0] != n_hidden:
            raise ValueError("emission must be (N, M)")
        if loss_given_symbol.shape != (emission.shape[1],):
            raise ValueError("loss_given_symbol must have one entry per symbol")
        _check_stochastic(pi, "pi")
        _check_stochastic(transition, "transition")
        _check_stochastic(emission, "emission")
        if np.any(loss_given_symbol <= 0) or np.any(loss_given_symbol >= 1):
            raise ValueError("loss_given_symbol entries must lie in (0, 1)")
        self.pi = pi
        self.transition = transition
        self.emission = emission
        self.loss_given_symbol = loss_given_symbol

    @property
    def n_hidden(self) -> int:
        """Number of hidden states N."""
        return len(self.pi)

    @property
    def n_symbols(self) -> int:
        """Number of delay symbols M."""
        return self.emission.shape[1]

    def parameters(self) -> Tuple[np.ndarray, ...]:
        """All parameter arrays, for convergence checks."""
        return (self.pi, self.transition, self.emission, self.loss_given_symbol)

    # ------------------------------------------------------------------
    # Likelihood machinery
    # ------------------------------------------------------------------
    def _observation_likelihoods(self, symbols0: np.ndarray) -> np.ndarray:
        """Per-step state likelihoods, shape ``(T, N)`` (Viterbi's input)."""
        n_steps = len(symbols0)
        likes = np.empty((n_steps, self.n_hidden))
        lost = symbols0 == LOSS
        observed_syms = symbols0[~lost]
        survive = 1.0 - self.loss_given_symbol
        likes[~lost] = (self.emission[:, observed_syms] * survive[observed_syms]).T
        likes[lost] = (self.emission @ self.loss_given_symbol)[None, :]
        return likes

    def log_likelihood(
        self,
        seq: ObservationSequence,
        index: Optional[SymbolIndex] = None,
    ) -> float:
        """Log-likelihood of the observation sequence under this model.

        ``index`` reuses a caller-cached :class:`SymbolIndex` so scoring
        layers (selection, bootstrap) skip the redundant symbol scan.
        """
        # Imported lazily: batched.py builds on this module's classes.
        from repro.models.batched import solo_log_likelihood

        return solo_log_likelihood(self, index or SymbolIndex(seq))

    # ------------------------------------------------------------------
    # EM
    # ------------------------------------------------------------------
    def _estep(self, index: SymbolIndex) -> _EStepStats:
        """E-step: posterior sufficient statistics from one pass.

        ``joint_obs[i, m]`` / ``joint_loss[i, m]`` are expected counts of
        (state, symbol) pairs accumulated over observed / loss instants.
        """
        from repro.models.batched import hmm_estep

        return hmm_estep(self, index)

    def _maximize(
        self,
        stats: _EStepStats,
        min_prob: float,
        loss_prior: Tuple[float, float],
    ) -> "HiddenMarkovModel":
        """M-step from one E-pass's statistics."""
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        joint_total = stats.joint_obs + stats.joint_loss
        emission = floor_and_normalize(joint_total, min_prob)
        symbol_mass = joint_total.sum(axis=0)
        loss_mass = stats.joint_loss.sum(axis=0)
        prior_losses, prior_observations = loss_prior
        loss_given_symbol = (loss_mass + prior_losses) / np.maximum(
            symbol_mass + prior_losses + prior_observations, 1e-300
        )
        loss_given_symbol = np.clip(loss_given_symbol, min_prob, 1.0 - min_prob)
        return HiddenMarkovModel(pi, transition, emission, loss_given_symbol)

    def em_step(
        self,
        seq: ObservationSequence,
        min_prob: float = 1e-10,
        loss_prior=(0.0, 0.0),
        index: Optional[SymbolIndex] = None,
    ):
        """One EM iteration.

        ``loss_prior = (a, b)`` applies a Beta(a, b)-style MAP update to
        ``c`` (see :class:`~repro.models.base.EMConfig`); ``(0, 0)`` is
        the plain MLE.  ``index`` reuses a precomputed
        :class:`SymbolIndex` across iterations.  Returns
        ``(new_model, loglik_of_current_model)``.
        """
        require_losses(seq, "em_step")
        if index is None:
            index = SymbolIndex(seq)
        stats = self._estep(index)
        return self._maximize(stats, min_prob, loss_prior), stats.loglik

    def virtual_delay_pmf(
        self,
        seq: ObservationSequence,
        index: Optional[SymbolIndex] = None,
    ) -> np.ndarray:
        """Eq. (5): ``Ĝ(m) = P(symbol m | loss)`` under this model."""
        require_losses(seq, "virtual_delay_pmf")
        if index is None:
            index = SymbolIndex(seq)
        stats = self._estep(index)
        mass = stats.joint_loss.sum(axis=0)
        total = mass.sum()
        if total <= 0:
            raise ValueError("no losses in the observation sequence")
        return mass / total


def fit_hmm(
    seq: ObservationSequence,
    n_hidden: int,
    config: Optional[EMConfig] = None,
    index: Optional[SymbolIndex] = None,
) -> "FittedHMM":
    """Fit an HMM by EM, with optional random restarts.

    Returns the best fit (by final log-likelihood) across
    ``config.n_restarts`` initialisations.  All restarts run as one
    batched forward-backward (:mod:`repro.models.batched`); they fan out
    over ``config.n_jobs`` worker processes, each batching its shard,
    and the reduction compares in restart order, so the result is
    identical for any ``n_jobs``.  ``index`` reuses a caller-cached
    :class:`SymbolIndex`.
    """
    require_losses(seq, "fit_hmm")
    from repro.models.batched import fit_restarts

    return fit_restarts("hmm", seq, n_hidden, config or EMConfig(), index)


class FittedHMM(FittedModel):
    """A fitted HMM plus the shared :class:`FittedModel` surface."""

    def __init__(self, model: HiddenMarkovModel, **kwargs):
        super().__init__(**kwargs)
        self.model = model


def _check_stochastic(array: np.ndarray, name: str, atol: float = 1e-6) -> None:
    sums = array.sum(axis=-1)
    if not np.allclose(sums, 1.0, atol=atol):
        raise ValueError(f"{name} rows must sum to 1 (got sums {sums})")
    if np.any(array < 0):
        raise ValueError(f"{name} must be non-negative")
