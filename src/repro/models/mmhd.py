"""Markov model with a hidden dimension (MMHD).

The MMHD of Wei, Wang & Towsley ("Continuous-time hidden Markov models for
network performance evaluation", Performance Evaluation 2002): the state at
time ``t`` is a pair ``X_t = (Y_t, D_t)`` of a hidden component
``Y_t ∈ {1..N}`` and the *observable* delay symbol ``D_t ∈ {1..M}``.
Unlike an HMM, the delay symbol is part of the Markov state itself, so
delay-to-delay correlation is modelled directly — the reason the paper
finds MMHD strictly more accurate than HMM (Fig. 8).

Observation model (losses as missing values):

* if probe ``t`` arrives with symbol ``m``, the state is constrained to
  the column ``D_t = m`` with likelihood ``1 - c_m``;
* if probe ``t`` is lost, the symbol is unobserved: every state ``(h, d)``
  is possible with likelihood ``c_d``, where
  ``c_d = P(loss | delay symbol d)``.

The EM algorithm is the paper's Appendix B: scaled forward/backward over
the flattened ``N*M``-state chain, transition update from the ``xi`` sums
(eq. 6-7), ``c`` update from the loss-instant occupancies (eq. 8), and
``Ĝ(m) = P(D_t = m | loss)`` from eq. (5).  With ``N = 1`` the model
degenerates to an observable Markov chain over delay symbols, as noted in
Section V-B.

Run-folded pass
---------------
At an *observed* step the state is confined to the ``N`` states sharing
the observed symbol, so between two observed steps the recursion is an
``N x N`` operator once the loss run separating them is folded in, and a
run of one observed symbol repeats one such operator.  Every E-pass —
restart stacks, streaming windows, and one model's
:meth:`~MarkovModelHiddenDimension.em_step` (a one-row stack) — runs
that run-folded pass (:mod:`repro.models.folded`), one chain node per
run, through the batched engine of :mod:`repro.models.batched`.
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

__all__ = ["MarkovModelHiddenDimension", "fit_mmhd"]


class _EStepStats:
    """Sufficient statistics of one E-pass (the batched engine stacks
    each field over rows).

    ``loss_mass[m]`` / ``total_mass[m]`` are the expected symbol-``m``
    counts over loss instants / all instants (the eq. 8 numerator and
    denominator); ``loss_mass`` normalised is the eq. (5) posterior.
    """

    __slots__ = ("gamma0", "xi_sum", "loss_mass", "total_mass", "loglik")

    def __init__(self, gamma0, xi_sum, loss_mass, total_mass, loglik):
        self.gamma0 = gamma0
        self.xi_sum = xi_sum
        self.loss_mass = loss_mass
        self.total_mass = total_mass
        self.loglik = loglik


class MarkovModelHiddenDimension:
    """MMHD over joint states ``(h, d)`` flattened as ``h * M + d``.

    Parameters
    ----------
    pi:
        Initial joint-state distribution, shape ``(N * M,)``.
    transition:
        Joint transition matrix, shape ``(N * M, N * M)``, row-stochastic.
    loss_given_symbol:
        ``c[d] = P(loss | delay symbol d+1)``, shape ``(M,)``, in (0, 1).
    n_symbols:
        ``M`` — needed to unflatten the state space.
    """

    def __init__(
        self,
        pi: np.ndarray,
        transition: np.ndarray,
        loss_given_symbol: np.ndarray,
        n_symbols: int,
    ):
        pi = np.asarray(pi, dtype=float)
        transition = np.asarray(transition, dtype=float)
        loss_given_symbol = np.asarray(loss_given_symbol, dtype=float)
        n_states = len(pi)
        if n_symbols < 1 or n_states % n_symbols != 0:
            raise ValueError(
                f"state count {n_states} must be a multiple of n_symbols {n_symbols}"
            )
        if transition.shape != (n_states, n_states):
            raise ValueError("transition must be square and match pi")
        if loss_given_symbol.shape != (n_symbols,):
            raise ValueError("loss_given_symbol must have one entry per symbol")
        if not np.allclose(pi.sum(), 1.0, atol=1e-6) or np.any(pi < 0):
            raise ValueError("pi must be a distribution")
        row_sums = transition.sum(axis=1)
        if not np.allclose(row_sums, 1.0, atol=1e-6) or np.any(transition < 0):
            raise ValueError("transition rows must sum to 1")
        if np.any(loss_given_symbol <= 0) or np.any(loss_given_symbol >= 1):
            raise ValueError("loss_given_symbol entries must lie in (0, 1)")
        self.pi = pi
        self.transition = transition
        self.loss_given_symbol = loss_given_symbol
        self.n_symbols = int(n_symbols)
        #: delay symbol (0-based) of each flattened state
        self.state_symbol = np.tile(np.arange(n_symbols), n_states // n_symbols)

    @property
    def n_states(self) -> int:
        """Size of the joint state space, N * M."""
        return len(self.pi)

    @property
    def n_hidden(self) -> int:
        """Number of hidden states N."""
        return self.n_states // self.n_symbols

    def parameters(self) -> Tuple[np.ndarray, ...]:
        """All parameter arrays, for convergence checks."""
        return (self.pi, self.transition, self.loss_given_symbol)

    # ------------------------------------------------------------------
    # Likelihood machinery
    # ------------------------------------------------------------------
    def _observation_likelihoods(self, symbols0: np.ndarray) -> np.ndarray:
        """Per-step state likelihoods, shape ``(T, N*M)``.

        Observed symbol ``m``: mass only on the ``d = m`` column, weighted
        by survival ``1 - c_m``; loss: every state weighted by ``c_d``.
        (The dense Viterbi reference's input.)
        """
        n_steps = len(symbols0)
        likes = np.zeros((n_steps, self.n_states))
        lost = symbols0 == LOSS
        likes[lost] = self.loss_given_symbol[self.state_symbol][None, :]
        observed_idx = np.flatnonzero(~lost)
        observed_syms = symbols0[observed_idx]
        survive = 1.0 - self.loss_given_symbol
        n_symbols = self.n_symbols
        for h in range(self.n_hidden):
            likes[observed_idx, h * n_symbols + observed_syms] = survive[
                observed_syms
            ]
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
    # EM (Appendix B)
    # ------------------------------------------------------------------
    def _estep(self, index: SymbolIndex) -> _EStepStats:
        """One run-folded E-pass."""
        from repro.models.batched import mmhd_estep

        return mmhd_estep(self, index)

    def _maximize(
        self,
        stats: _EStepStats,
        min_prob: float,
        loss_prior: Tuple[float, float],
    ) -> "MarkovModelHiddenDimension":
        """M-step of Appendix B from one E-pass's statistics."""
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        prior_losses, prior_observations = loss_prior
        # eq. (8): expected losses with symbol m over expected symbol-m count.
        loss_given_symbol = (stats.loss_mass + prior_losses) / np.maximum(
            stats.total_mass + prior_losses + prior_observations, 1e-300
        )
        loss_given_symbol = np.clip(loss_given_symbol, min_prob, 1.0 - min_prob)
        return MarkovModelHiddenDimension(
            pi, transition, loss_given_symbol, self.n_symbols
        )

    def em_step(
        self,
        seq: ObservationSequence,
        min_prob: float = 1e-10,
        loss_prior=(0.0, 0.0),
        index: Optional[SymbolIndex] = None,
    ):
        """One EM iteration (maximisation step of Appendix B).

        ``loss_prior = (a, b)`` applies a Beta(a, b)-style MAP update to
        ``c`` (see :class:`~repro.models.base.EMConfig`); ``(0, 0)`` is
        the plain MLE of the paper.  ``index`` reuses a precomputed
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
        """Eq. (5): ``Ĝ(m) = P(D_t = m | loss)`` under this model."""
        require_losses(seq, "virtual_delay_pmf")
        if index is None:
            index = SymbolIndex(seq)
        stats = self._estep(index)
        return stats.loss_mass / stats.loss_mass.sum()


def fit_mmhd(
    seq: ObservationSequence,
    n_hidden: int,
    config: Optional[EMConfig] = None,
    index: Optional[SymbolIndex] = None,
) -> "FittedMMHD":
    """Fit an MMHD by EM, with optional random restarts.

    Restarts are independent EM runs, stacked into one run-folded
    forward-backward (:mod:`repro.models.batched`).  They fan out over
    ``config.n_jobs`` worker processes, each batching its shard, and the
    best final log-likelihood wins, compared in restart order, so the
    result is identical for any ``n_jobs``.  ``index`` reuses a
    caller-cached :class:`SymbolIndex`.
    """
    require_losses(seq, "fit_mmhd")
    from repro.models.batched import fit_restarts

    return fit_restarts("mmhd", seq, n_hidden, config or EMConfig(), index)


class FittedMMHD(FittedModel):
    """A fitted MMHD plus the shared :class:`FittedModel` surface."""

    def __init__(self, model: MarkovModelHiddenDimension, **kwargs):
        super().__init__(**kwargs)
        self.model = model
