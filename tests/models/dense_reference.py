"""Per-step single-model oracles for the batched E-step engine.

The textbook scaled forward-backward (Rabiner Section V), one model and
one step at a time, over a model's dense per-step likelihoods
(``_observation_likelihoods``): the HMM's ``N``-wide chain and the
MMHD's ``N*M``-wide one.  On top of it, the E-step statistics each
model's M-step consumes and a one-restart sequential EM driver.  Slow by
design; the engine's parity tests compare against them.
"""

import numpy as np

from repro.models.base import LOSS, max_param_change
from repro.models.hmm import FittedHMM, HiddenMarkovModel
from repro.models.hmm import _EStepStats as HMMStats
from repro.models.initialization import (
    hmm_initial_parameters,
    mmhd_initial_parameters,
)
from repro.models.mmhd import FittedMMHD, MarkovModelHiddenDimension
from repro.models.mmhd import _EStepStats as MMHDStats
from repro.parallel import restart_rng


def forward_backward(model, likes):
    """Scaled forward-backward of ``model`` over ``likes`` ``(T, S)``.

    Returns ``(alpha, beta, scales, loglik)`` with ``alpha`` normalised
    per step, so ``gamma = alpha * beta``.  Raises
    :class:`FloatingPointError` at the first zero-likelihood step.
    """
    n_steps = likes.shape[0]
    alpha = np.empty_like(likes)
    scales = np.empty(n_steps)
    state = model.pi * likes[0]
    scales[0] = state.sum()
    if scales[0] <= 0:
        raise FloatingPointError("zero likelihood at t=0")
    alpha[0] = state / scales[0]
    transition = model.transition
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


def expectations(model, seq):
    """Dense E-step: ``(gamma, xi_sum, loglik)`` of ``model`` over ``seq``."""
    likes = model._observation_likelihoods(seq.zero_based())
    alpha, beta, scales, loglik = forward_backward(model, likes)
    weighted = likes[1:] * beta[1:] / scales[1:, None]
    xi_sum = model.transition * (alpha[:-1].T @ weighted)
    return alpha * beta, xi_sum, loglik


def hmm_estep(model: HiddenMarkovModel, seq) -> HMMStats:
    """The HMM's E-step statistics; at a loss, ``P(state i, symbol m |
    obs) = gamma_t(i) B[i, m] c[m] / (B c)[i]``."""
    gamma, xi_sum, loglik = expectations(model, seq)
    symbols0 = seq.zero_based()
    n_hidden, n_symbols = model.emission.shape
    joint_obs = np.zeros((n_hidden, n_symbols))
    for m in range(n_symbols):
        joint_obs[:, m] = gamma[symbols0 == m].sum(axis=0)
    gamma_loss_total = gamma[symbols0 == LOSS].sum(axis=0)
    loss_like = model.emission @ model.loss_given_symbol
    joint_loss = ((gamma_loss_total / loss_like)[:, None] * model.emission
                  * model.loss_given_symbol[None, :])
    return HMMStats(gamma[0], xi_sum, joint_obs, joint_loss, loglik)


def symbol_occupancy(model: MarkovModelHiddenDimension, gamma):
    """MMHD state occupancies collapsed onto delay symbols, ``(T, M)``."""
    return gamma.reshape(len(gamma), model.n_hidden,
                         model.n_symbols).sum(axis=1)


def mmhd_estep(model: MarkovModelHiddenDimension, seq) -> MMHDStats:
    """The MMHD's E-step statistics over the full ``(T, N*M)`` arrays."""
    gamma, xi_sum, loglik = expectations(model, seq)
    occupancy = symbol_occupancy(model, gamma)
    lost = seq.zero_based() == LOSS
    return MMHDStats(gamma[0], xi_sum, occupancy[lost].sum(axis=0),
                     occupancy.sum(axis=0), loglik)


def fit_restart(kind, seq, n_hidden, config, restart):
    """One EM run from restart ``restart``'s initialisation, one model
    and one oracle E-step at a time (the engine's restart-row semantics:
    loss channel frozen for ``freeze_loss_iters``, then a parameter
    change below ``tol`` converges, then one trailing E-pass)."""
    rng = restart_rng(config.seed, restart)
    if kind == "hmm":
        pi, transition, emission, c = hmm_initial_parameters(seq, n_hidden,
                                                             rng)
        model = HiddenMarkovModel(pi, transition, emission, c)
        estep, fitted_cls = hmm_estep, FittedHMM

        def frozen(m):
            return HiddenMarkovModel(m.pi, m.transition, m.emission, c)

        def loss_mass(stats):
            return stats.joint_loss.sum(axis=0)
    else:
        pi, transition, c = mmhd_initial_parameters(
            seq, n_hidden, rng, data_driven=config.data_driven_init)
        model = MarkovModelHiddenDimension(pi, transition, c, seq.n_symbols)
        estep, fitted_cls = mmhd_estep, FittedMMHD

        def frozen(m):
            return MarkovModelHiddenDimension(m.pi, m.transition, c,
                                              seq.n_symbols)

        def loss_mass(stats):
            return stats.loss_mass
    prior = (config.loss_prior_losses, config.loss_prior_observations)
    logliks, converged = [], False
    for iteration in range(config.max_iter):
        stats = estep(model, seq)
        new_model = model._maximize(stats, config.min_prob, prior)
        logliks.append(stats.loglik)
        if iteration < config.freeze_loss_iters:
            new_model = frozen(new_model)
        elif (max_param_change(model.parameters(), new_model.parameters())
              < config.tol):
            model, converged = new_model, True
            break
        model = new_model
    final = estep(model, seq)
    mass = loss_mass(final)
    return fitted_cls(model=model, virtual_delay_pmf=mass / mass.sum(),
                      log_likelihoods=logliks + [final.loglik],
                      converged=converged, n_iter=len(logliks))


def fit_best(kind, seq, n_hidden, config):
    """Every restart through :func:`fit_restart`, reduced to the best
    final log-likelihood (first on ties)."""
    fits = [fit_restart(kind, seq, n_hidden, config, r)
            for r in range(config.n_restarts)]
    return max(fits, key=lambda f: f.log_likelihood)


def _fit_hmm_restart(seq, n_hidden, config, restart):
    """One HMM restart through :func:`fit_restart`."""
    return fit_restart("hmm", seq, n_hidden, config, restart)


def _fit_mmhd_restart(seq, n_hidden, config, restart):
    """One MMHD restart through :func:`fit_restart`."""
    return fit_restart("mmhd", seq, n_hidden, config, restart)
