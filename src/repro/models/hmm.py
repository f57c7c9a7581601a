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

Fit-loop fast path: the symbol-derived index structure
(:class:`~repro.models.base.SymbolIndex`) is computed once per fit and
shared across EM iterations (the old code re-derived masks and scanned
``for m in range(n_symbols)`` every E-step), and the final
log-likelihood and eq. (5) posterior both come from a single trailing
E-pass instead of two separate full passes.
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
from repro.models.initialization import hmm_initial_parameters
from repro.models.telemetry import record_fit, record_restart
from repro.obs import span
from repro.parallel import parallel_map, resolve_n_jobs, restart_rng

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
        """Per-step state likelihoods, shape ``(T, N)``."""
        n_steps = len(symbols0)
        likes = np.empty((n_steps, self.n_hidden))
        lost = symbols0 == LOSS
        observed_syms = symbols0[~lost]
        survive = 1.0 - self.loss_given_symbol
        likes[~lost] = (self.emission[:, observed_syms] * survive[observed_syms]).T
        likes[lost] = (self.emission @ self.loss_given_symbol)[None, :]
        return likes

    def _likelihoods_from_index(self, index: SymbolIndex) -> np.ndarray:
        """Per-step state likelihoods using the precomputed index."""
        likes = np.empty((len(index), self.n_hidden))
        survive = 1.0 - self.loss_given_symbol
        syms = index.observed_symbols
        likes[index.observed_idx] = (self.emission[:, syms] * survive[syms]).T
        likes[index.loss_idx] = (self.emission @ self.loss_given_symbol)[None, :]
        return likes

    def _forward_backward(self, likes: np.ndarray):
        """Scaled forward-backward.

        Returns ``(alpha, beta, scales, log_likelihood)`` with ``alpha``
        normalised per step so ``gamma = alpha * beta`` directly.
        """
        n_steps, n_hidden = likes.shape
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
        if index is not None:
            likes = self._likelihoods_from_index(index)
        else:
            likes = self._observation_likelihoods(seq.zero_based())
        _, _, _, loglik = self._forward_backward(likes)
        return loglik

    # ------------------------------------------------------------------
    # EM
    # ------------------------------------------------------------------
    def _estep(self, index: SymbolIndex) -> _EStepStats:
        """E-step: posterior sufficient statistics from one pass.

        ``joint_obs[i, m]`` / ``joint_loss[i, m]`` are expected counts of
        (state, symbol) pairs accumulated over observed / loss instants.
        """
        likes = self._likelihoods_from_index(index)
        alpha, beta, scales, loglik = self._forward_backward(likes)
        gamma = alpha * beta
        # xi_sum[i, j] = sum_t P(s_t = i, s_{t+1} = j | obs)
        weighted = likes[1:] * beta[1:] / scales[1:, None]
        xi_sum = self.transition * (alpha[:-1].T @ weighted)

        n_hidden, n_symbols = self.emission.shape
        # Expected (state, symbol) counts over observed instants, grouped
        # by symbol in one C-level scatter-add (the old code scanned the
        # whole gamma array once per symbol, every iteration).
        joint_obs_by_symbol = np.zeros((n_symbols, n_hidden))
        np.add.at(
            joint_obs_by_symbol, index.observed_symbols, gamma[index.observed_idx]
        )
        joint_obs = joint_obs_by_symbol.T
        # At a loss instant, P(state i, symbol m | obs) =
        #   gamma_t(i) * B[i, m] c[m] / (B c)[i].
        gamma_loss_total = gamma[index.loss_idx].sum(axis=0)
        loss_like = self.emission @ self.loss_given_symbol
        joint_loss = (
            (gamma_loss_total / loss_like)[:, None]
            * self.emission
            * self.loss_given_symbol[None, :]
        )
        return _EStepStats(gamma[0], xi_sum, joint_obs, joint_loss, loglik)

    def _expectations(self, seq: ObservationSequence):
        """E-step over a raw sequence (compatibility surface).

        Returns ``(gamma, xi_sum, joint_obs, joint_loss, loglik)``.
        """
        symbols0 = seq.zero_based()
        likes = self._observation_likelihoods(symbols0)
        alpha, beta, scales, loglik = self._forward_backward(likes)
        gamma = alpha * beta
        weighted = likes[1:] * beta[1:] / scales[1:, None]
        xi_sum = self.transition * (alpha[:-1].T @ weighted)
        lost = symbols0 == LOSS
        n_hidden, n_symbols = self.emission.shape
        joint_obs = np.zeros((n_hidden, n_symbols))
        for m in range(n_symbols):
            rows = gamma[symbols0 == m]
            if rows.size:
                joint_obs[:, m] = rows.sum(axis=0)
        gamma_loss_total = gamma[lost].sum(axis=0)
        loss_like = self.emission @ self.loss_given_symbol
        joint_loss = (
            (gamma_loss_total / loss_like)[:, None]
            * self.emission
            * self.loss_given_symbol[None, :]
        )
        return gamma, xi_sum, joint_obs, joint_loss, loglik

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


def _fit_hmm_restart(task) -> "FittedHMM":
    """One EM run from one random initialisation (parallel-map worker)."""
    seq, n_hidden, config, restart, index = task
    rng = restart_rng(config.seed, restart)
    pi, transition, emission, c = hmm_initial_parameters(seq, n_hidden, rng)
    model = HiddenMarkovModel(pi, transition, emission, c)
    if index is None:
        index = SymbolIndex(seq)
    logliks: List[float] = []
    converged = False
    prior = (config.loss_prior_losses, config.loss_prior_observations)
    for iteration in range(config.max_iter):
        stats = model._estep(index)
        new_model = model._maximize(stats, config.min_prob, prior)
        logliks.append(stats.loglik)
        if iteration < config.freeze_loss_iters:
            # Warm start: learn dynamics before the loss channel.
            new_model = HiddenMarkovModel(
                new_model.pi, new_model.transition, new_model.emission, c
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
    final_stats = model._estep(index)
    loss_symbol_mass = final_stats.joint_loss.sum(axis=0)
    fitted = FittedHMM(
        model=model,
        virtual_delay_pmf=loss_symbol_mass / loss_symbol_mass.sum(),
        log_likelihoods=logliks + [final_stats.loglik],
        converged=converged,
        n_iter=len(logliks),
    )
    record_restart("hmm", restart, fitted)
    return fitted


def fit_hmm(
    seq: ObservationSequence,
    n_hidden: int,
    config: Optional[EMConfig] = None,
    index: Optional[SymbolIndex] = None,
) -> "FittedHMM":
    """Fit an HMM by EM, with optional random restarts.

    Returns the best fit (by final log-likelihood) across
    ``config.n_restarts`` initialisations.  ``config.backend`` selects
    the E-step engine: the batched engine stacks all restarts into one
    forward-backward (:mod:`repro.models.batched`), the sequential
    engine runs one recursion per restart.  Either way restarts fan out
    over ``config.n_jobs`` worker processes and the reduction compares
    in restart order, so the result is identical for any ``n_jobs``.
    ``index`` reuses a caller-cached :class:`SymbolIndex`.
    """
    config = config or EMConfig()
    require_losses(seq, "fit_hmm")
    # Imported lazily: batched.py builds on this module's model classes.
    from repro.models import batched

    backend = batched.resolve_backend(config, n_hidden)
    with span("em.fit", model="hmm", n_hidden=n_hidden,
              n_restarts=config.n_restarts, backend=backend):
        if backend in batched.BATCH_BACKENDS:
            fits = batched.batched_restart_fits(
                "hmm", seq, n_hidden, config, index=index, backend=backend
            )
        else:
            serial = (resolve_n_jobs(config.n_jobs) <= 1
                      or config.n_restarts <= 1)
            shared = (index or SymbolIndex(seq)) if serial else None
            tasks = [(seq, n_hidden, config, r, shared)
                     for r in range(config.n_restarts)]
            fits = parallel_map(_fit_hmm_restart, tasks, n_jobs=config.n_jobs)
            batched.record_backend(
                "hmm", backend,
                n_shards=min(resolve_n_jobs(config.n_jobs), len(fits)),
                infos=[{"rows": 1, "batch_iterations": f.n_iter,
                        "active_row_iterations": f.n_iter} for f in fits],
            )
        best_restart = 0
        for restart, fitted in enumerate(fits[1:], start=1):
            if fitted.log_likelihood > fits[best_restart].log_likelihood:
                best_restart = restart
        record_fit("hmm", fits, best_restart)
        return fits[best_restart]


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
