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

Fast path
---------
At an *observed* step the state is confined to the ``N`` states sharing
the observed symbol, so between two observed steps the recursion is an
``N x N`` operator once the loss run separating them is folded in.  The
default E-step (:meth:`~MarkovModelHiddenDimension._estep`) runs that
loss-folded pass (:mod:`repro.models.batched`): every restart, streaming
and sequential fit shares it.  The dense textbook implementation is kept
(``EMConfig.fast_path=False``) as the reference the test suite
cross-checks against.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.models.base import (
    LOSS,
    EMConfig,
    FittedModel,
    ObservationSequence,
    SymbolIndex,
    floor_and_normalize,
    max_param_change,
    require_losses,
)
from repro.models.initialization import mmhd_initial_parameters
from repro.models.telemetry import record_fit, record_restart
from repro.obs import span
from repro.parallel import parallel_map, resolve_n_jobs, restart_rng

__all__ = ["MarkovModelHiddenDimension", "fit_mmhd"]


class _EStepStats:
    """Sufficient statistics of one E-pass, shared by every E-step path
    (the batched engines stack each field over rows).

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
    # Likelihood machinery (dense reference path)
    # ------------------------------------------------------------------
    def _observation_likelihoods(self, symbols0: np.ndarray) -> np.ndarray:
        """Per-step state likelihoods, shape ``(T, N*M)``.

        Observed symbol ``m``: mass only on the ``d = m`` column, weighted
        by survival ``1 - c_m``; loss: every state weighted by ``c_d``.
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

    def _forward_backward(self, likes: np.ndarray):
        n_steps = likes.shape[0]
        alpha = np.empty_like(likes)
        scales = np.empty(n_steps)
        state = self.pi * likes[0]
        scales[0] = state.sum()
        if scales[0] <= 0:
            raise FloatingPointError("zero likelihood at t=0")
        alpha[0] = state / scales[0]
        transition = self.transition
        for t in range(1, n_steps):
            state = (alpha[t - 1] @ transition) * likes[t]
            total = state.sum()
            if total <= 0:
                raise FloatingPointError(f"zero likelihood at t={t}")
            scales[t] = total
            alpha[t] = state / total

        beta = np.empty_like(likes)
        beta[n_steps - 1] = 1.0
        for t in range(n_steps - 2, -1, -1):
            beta[t] = transition @ (likes[t + 1] * beta[t + 1]) / scales[t + 1]
        return alpha, beta, scales, float(np.log(scales).sum())

    def log_likelihood(
        self,
        seq: ObservationSequence,
        index: Optional[SymbolIndex] = None,
    ) -> float:
        """Log-likelihood of the observation sequence under this model.

        ``index`` reuses a caller-cached :class:`SymbolIndex` so scoring
        layers (selection, bootstrap) skip the redundant symbol scan.
        """
        symbols0 = index.symbols0 if index is not None else seq.zero_based()
        likes = self._observation_likelihoods(symbols0)
        _, _, _, loglik = self._forward_backward(likes)
        return loglik

    # ------------------------------------------------------------------
    # EM (Appendix B)
    # ------------------------------------------------------------------
    def _expectations(self, seq: ObservationSequence):
        """Dense E-step: ``(gamma, xi_sum, loglik)`` with scaled recursions."""
        symbols0 = seq.zero_based()
        likes = self._observation_likelihoods(symbols0)
        alpha, beta, scales, loglik = self._forward_backward(likes)
        gamma = alpha * beta
        weighted = likes[1:] * beta[1:] / scales[1:, None]
        xi_sum = self.transition * (alpha[:-1].T @ weighted)
        return gamma, xi_sum, loglik

    def _symbol_occupancy(self, gamma: np.ndarray) -> np.ndarray:
        """Collapse state occupancies onto delay symbols: shape (T, M)."""
        n_steps = gamma.shape[0]
        return gamma.reshape(n_steps, self.n_hidden, self.n_symbols).sum(axis=1)

    def _estep_dense(self, index: SymbolIndex) -> _EStepStats:
        """Reference E-step over the full ``(T, N*M)`` arrays."""
        gamma, xi_sum, loglik = self._expectations(index.seq)
        symbol_occ = self._symbol_occupancy(gamma)
        loss_mass = symbol_occ[index.lost].sum(axis=0)
        total_mass = symbol_occ.sum(axis=0)
        return _EStepStats(gamma[0], xi_sum, loss_mass, total_mass, loglik)

    def _estep(self, index: SymbolIndex, fast: bool = True) -> _EStepStats:
        """One E-pass; ``fast`` selects the loss-folded pass."""
        if not fast:
            return self._estep_dense(index)
        # Imported lazily: batched.py builds on this module's classes.
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
        fast: bool = True,
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
        stats = self._estep(index, fast=fast)
        return self._maximize(stats, min_prob, loss_prior), stats.loglik

    def virtual_delay_pmf(
        self,
        seq: ObservationSequence,
        index: Optional[SymbolIndex] = None,
        fast: bool = True,
    ) -> np.ndarray:
        """Eq. (5): ``Ĝ(m) = P(D_t = m | loss)`` under this model."""
        require_losses(seq, "virtual_delay_pmf")
        if index is None:
            index = SymbolIndex(seq)
        stats = self._estep(index, fast=fast)
        return stats.loss_mass / stats.loss_mass.sum()


def _fit_mmhd_restart(task) -> "FittedMMHD":
    """One EM run from one random initialisation (parallel-map worker)."""
    seq, n_hidden, config, restart, index = task
    rng = restart_rng(config.seed, restart)
    pi, transition, c = mmhd_initial_parameters(
        seq, n_hidden, rng, data_driven=config.data_driven_init
    )
    model = MarkovModelHiddenDimension(pi, transition, c, seq.n_symbols)
    if index is None:
        index = SymbolIndex(seq)
    logliks: List[float] = []
    converged = False
    prior = (config.loss_prior_losses, config.loss_prior_observations)
    for iteration in range(config.max_iter):
        stats = model._estep(index, fast=config.fast_path)
        new_model = model._maximize(stats, config.min_prob, prior)
        logliks.append(stats.loglik)
        if iteration < config.freeze_loss_iters:
            # Warm start: learn dynamics before the loss channel.
            new_model = MarkovModelHiddenDimension(
                new_model.pi, new_model.transition, c, seq.n_symbols
            )
        elif (
            max_param_change(model.parameters(), new_model.parameters())
            < config.tol
        ):
            model = new_model
            converged = True
            break
        model = new_model
    # One final E-pass yields both the trailing log-likelihood and the
    # eq. (5) posterior — the seed ran two separate full passes here.
    final_stats = model._estep(index, fast=config.fast_path)
    fitted = FittedMMHD(
        model=model,
        virtual_delay_pmf=final_stats.loss_mass / final_stats.loss_mass.sum(),
        log_likelihoods=logliks + [final_stats.loglik],
        converged=converged,
        n_iter=len(logliks),
    )
    record_restart("mmhd", restart, fitted)
    return fitted


def fit_mmhd(
    seq: ObservationSequence,
    n_hidden: int,
    config: Optional[EMConfig] = None,
    index: Optional[SymbolIndex] = None,
) -> "FittedMMHD":
    """Fit an MMHD by EM, with optional random restarts.

    Restarts are independent EM runs.  ``config.backend`` selects the
    E-step engine: the batched engine stacks all restarts into one
    loss-folded forward-backward (:mod:`repro.models.batched`), the
    sequential engine runs the same pass one restart at a time.  Either way
    restarts fan out over ``config.n_jobs`` worker processes and the
    best final log-likelihood wins, compared in restart order, so the
    result is identical for any ``n_jobs``.  ``index`` reuses a
    caller-cached :class:`SymbolIndex`.
    """
    config = config or EMConfig()
    require_losses(seq, "fit_mmhd")
    # Imported lazily: batched.py builds on this module's model classes.
    from repro.models import batched

    backend = batched.resolve_backend(config, n_hidden)
    with span("em.fit", model="mmhd", n_hidden=n_hidden,
              n_restarts=config.n_restarts, backend=backend):
        if backend in batched.BATCH_BACKENDS:
            fits = batched.batched_restart_fits(
                "mmhd", seq, n_hidden, config, index=index, backend=backend
            )
        else:
            serial = (resolve_n_jobs(config.n_jobs) <= 1
                      or config.n_restarts <= 1)
            shared = (index or SymbolIndex(seq)) if serial else None
            tasks = [(seq, n_hidden, config, r, shared)
                     for r in range(config.n_restarts)]
            fits = parallel_map(_fit_mmhd_restart, tasks, n_jobs=config.n_jobs)
            batched.record_backend(
                "mmhd", backend,
                n_shards=min(resolve_n_jobs(config.n_jobs), len(fits)),
                infos=[{"rows": 1, "batch_iterations": f.n_iter,
                        "active_row_iterations": f.n_iter} for f in fits],
            )
        best_restart = 0
        for restart, fitted in enumerate(fits[1:], start=1):
            if fitted.log_likelihood > fits[best_restart].log_likelihood:
                best_restart = restart
        record_fit("mmhd", fits, best_restart)
        return fits[best_restart]


class FittedMMHD(FittedModel):
    """A fitted MMHD plus the shared :class:`FittedModel` surface."""

    def __init__(self, model: MarkovModelHiddenDimension, **kwargs):
        super().__init__(**kwargs)
        self.model = model
