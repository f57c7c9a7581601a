"""Per-window goodness-of-fit diagnostics from E-step byproducts.

The identification procedure publishes a verdict per window, but the
verdict is only as trustworthy as the HMM/MMHD assumptions behind it:
Markov symbol dynamics with geometric state dwell, a loss channel tied
to the delay symbol, and stationarity over the window.  This module
extracts, from one extra scaled forward pass over the *final* fitted
model (:func:`repro.models.batched.hmm_forward` /
:func:`~repro.models.batched.mmhd_forward`, a one-row stack of the
E-step engine), the quantities that say whether those assumptions held:

* **per-observation log-likelihood** — the scale factors of the forward
  recursion are exactly the one-step predictive probabilities
  ``p(o_t | o_{1:t-1})``, so ``mean(log scales)`` is a length-normalized
  sequence-predictability score comparable across windows (the signal
  the streaming CUSUM / Page--Hinkley detectors watch);
* **emission residuals** — observed symbol/loss counts against the
  model's one-step posterior-predictive expected counts, reduced to a
  chi-square-style standardized statistic (``z`` roughly N(0,1) in
  model);
* **dwell-time geometry** — run lengths of the observed symbol sequence
  against the geometric dwell a Markov chain implies: a geometric run
  length with stay probability ``p`` has CV ``sqrt(p)``, so the gap
  ``|cv_emp - sqrt(p_hat)|`` flags semi-Markov (deterministic or
  heavy-tailed) dwell that a refit can hide from marginal statistics;
* **loss-channel consistency** — the window's empirical loss fraction
  against the posterior-predictive expected loss fraction, plus the
  mass of ``G`` sitting strictly below the weak ``Q_k`` bound symbol
  (:func:`repro.core.bounds.weak_dcl_bound`): mass creeping toward the
  ``beta0`` level means the published bound is one regime wobble from
  invalid.

The pass is only run when model-health observability is enabled
(:mod:`repro.obs.health`), never inside EM itself, so the fit path —
and with it fused/per-window verdict parity — is untouched by
construction.

Degenerate windows (no losses, non-finite scales, zero predictive mass)
yield ``None`` / a diagnostics object with ``ok=False`` rather than a
number that would feed a spurious drift alarm, mirroring the
``InsufficientLossError`` -> ``status="skipped"`` semantics of the
streaming tracker.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.bounds import weak_dcl_bound
from repro.core.distributions import DelayDistribution
from repro.models.base import LOSS, ObservationSequence

__all__ = ["WindowDiagnostics", "compute_window_diagnostics"]

#: Minimum observed symbol runs for the dwell statistic to be meaningful.
_MIN_RUNS = 10

#: Expected-count floor for a category to enter the chi-square sum.
_MIN_EXPECTED = 1.0


class WindowDiagnostics:
    """Goodness-of-fit summary of one window under its fitted model.

    Picklable plain-scalar container: computed wherever the window's
    :func:`~repro.streaming.tracker.finish_window` runs (the drain's
    process) and carried on the
    :class:`~repro.streaming.tracker.WindowAnalysis`.
    """

    __slots__ = (
        "ok",
        "reason",
        "n_obs",
        "n_losses",
        "mean_loglik",
        "emission_z",
        "counts",
        "expected_counts",
        "dwell_gap",
        "n_runs",
        "loss_rate_gap",
        "below_bound_mass",
        "beta0",
    )

    def __init__(
        self,
        ok: bool,
        reason: Optional[str] = None,
        n_obs: int = 0,
        n_losses: int = 0,
        mean_loglik: Optional[float] = None,
        emission_z: Optional[float] = None,
        counts: Optional[np.ndarray] = None,
        expected_counts: Optional[np.ndarray] = None,
        dwell_gap: Optional[float] = None,
        n_runs: int = 0,
        loss_rate_gap: Optional[float] = None,
        below_bound_mass: Optional[float] = None,
        beta0: Optional[float] = None,
    ):
        self.ok = bool(ok)
        self.reason = reason
        self.n_obs = int(n_obs)
        self.n_losses = int(n_losses)
        self.mean_loglik = mean_loglik
        self.emission_z = emission_z
        #: observed category counts, symbols ``0..M-1`` then loss.
        self.counts = counts
        #: one-step posterior-predictive expected counts, same layout.
        self.expected_counts = expected_counts
        self.dwell_gap = dwell_gap
        self.n_runs = int(n_runs)
        self.loss_rate_gap = loss_rate_gap
        self.below_bound_mass = below_bound_mass
        self.beta0 = beta0

    def to_dict(self) -> dict:
        """JSON projection (the ``model.health`` event's ``gof`` field)."""
        rounded = {
            "mean_loglik": self.mean_loglik,
            "emission_z": self.emission_z,
            "dwell_gap": self.dwell_gap,
            "loss_rate_gap": self.loss_rate_gap,
            "below_bound_mass": self.below_bound_mass,
        }
        return {
            "ok": self.ok,
            "reason": self.reason,
            "n_obs": self.n_obs,
            "n_losses": self.n_losses,
            "n_runs": self.n_runs,
            **{k: (None if v is None else round(float(v), 6))
               for k, v in rounded.items()},
        }


def _symbol_predictive(model, prior: np.ndarray) -> np.ndarray:
    """Collapse prior *state* distributions (one per row) to delay
    symbols, in each model's own state space: the MMHD's joint ``(h, d)``
    states carry their symbol, the HMM maps hidden states through the
    emission matrix.
    """
    if hasattr(model, "emission"):  # HMM
        return prior @ model.emission
    return prior.reshape(
        len(prior), model.n_hidden, model.n_symbols).sum(axis=1)


def _run_length_stats(observed: np.ndarray):
    """(n_runs, mean, cv) of maximal equal-symbol runs, losses removed."""
    if observed.size == 0:
        return 0, None, None
    boundaries = np.flatnonzero(observed[1:] != observed[:-1])
    lengths = np.diff(np.concatenate(([0], boundaries + 1, [observed.size])))
    lengths = lengths[lengths > 0]
    n_runs = int(lengths.size)
    if n_runs == 0:
        return 0, None, None
    mean = float(lengths.mean())
    cv = float(lengths.std() / mean) if mean > 0 else None
    return n_runs, mean, cv


def compute_window_diagnostics(
    model,
    seq: ObservationSequence,
    g_pmf: Optional[np.ndarray] = None,
    beta0: float = 0.06,
) -> WindowDiagnostics:
    """One diagnostic E-pass of ``seq`` under a fitted ``model``.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.hmm.HiddenMarkovModel` or
        :class:`~repro.models.mmhd.MarkovModelHiddenDimension`.
    seq:
        The window's observation sequence (the same one the fit saw).
    g_pmf:
        The fitted virtual delay PMF ``Ĝ`` (recomputed from the model's
        posterior when omitted — callers in the streaming path already
        hold it).
    beta0:
        The weak-DCL loss parameter used for the ``Q_k`` bound-margin
        check.
    """
    symbols0 = seq.zero_based()
    n_steps = len(symbols0)
    n_losses = int(seq.n_losses)
    if n_losses == 0:
        return WindowDiagnostics(False, reason="no-losses", n_obs=n_steps)
    # Imported lazily: batched.py builds on the model classes.
    from repro.models.batched import hmm_forward, mmhd_forward

    forward = hmm_forward if hasattr(model, "emission") else mmhd_forward
    try:
        alpha, scales = forward(model, seq)
        loglik = float(np.log(scales).sum())
    except FloatingPointError as exc:
        return WindowDiagnostics(False, reason=f"degenerate: {exc}",
                                 n_obs=n_steps, n_losses=n_losses)
    if not np.all(np.isfinite(scales)) or np.any(scales <= 0.0):
        return WindowDiagnostics(False, reason="degenerate: non-finite scales",
                                 n_obs=n_steps, n_losses=n_losses)
    mean_loglik = float(loglik / n_steps)

    # One-step predictive: the prior state distribution before seeing
    # o_t, summed over the window (every count below is such a sum):
    # pi for t=0, alpha[t-1] @ transition after.
    prior = model.pi + alpha[:-1].sum(axis=0) @ model.transition
    prior_symbol = _symbol_predictive(model, prior[None])[0]
    survive = 1.0 - model.loss_given_symbol
    p_obs = prior_symbol * survive                   # (M,)
    p_loss = prior_symbol @ model.loss_given_symbol

    lost = symbols0 == LOSS
    observed = symbols0[~lost]
    n_symbols = len(p_obs)
    counts = np.concatenate([
        np.bincount(observed, minlength=n_symbols).astype(float),
        [float(n_losses)],
    ])
    expected = np.concatenate([p_obs, [float(p_loss)]])
    if not np.all(np.isfinite(expected)):
        return WindowDiagnostics(
            False, reason="degenerate: non-finite predictive mass",
            n_obs=n_steps, n_losses=n_losses)
    include = expected >= _MIN_EXPECTED
    dof = int(include.sum()) - 1
    emission_z = None
    if dof >= 1:
        chi2 = float((((counts - expected) ** 2)[include]
                      / expected[include]).sum())
        emission_z = (chi2 - dof) / np.sqrt(2.0 * dof)

    n_runs, mean_run, cv = _run_length_stats(observed)
    dwell_gap = None
    if n_runs >= _MIN_RUNS and cv is not None and mean_run is not None:
        # Geometric dwell with stay probability p has mean 1/(1-p) and
        # CV sqrt(p); p_hat from the empirical mean closes the loop.
        p_hat = max(0.0, 1.0 - 1.0 / mean_run)
        dwell_gap = float(abs(cv - np.sqrt(p_hat)))

    empirical_loss = n_losses / n_steps
    expected_loss = float(p_loss / n_steps)
    loss_rate_gap = abs(empirical_loss - expected_loss) / max(
        expected_loss, 1e-12)

    below_bound_mass = None
    pmf = g_pmf
    if pmf is None:
        pmf = getattr(model, "virtual_delay_pmf", None)
        if callable(pmf):
            pmf = None  # needs a sequence argument; skip when not given
    if pmf is not None:
        distribution = DelayDistribution(np.asarray(pmf, dtype=float))
        bound = weak_dcl_bound(distribution, beta0)
        below = distribution.pmf[: bound.symbol - 1].sum() \
            if bound.symbol > 1 else 0.0
        below_bound_mass = float(below)

    return WindowDiagnostics(
        True,
        n_obs=n_steps,
        n_losses=n_losses,
        mean_loglik=mean_loglik,
        emission_z=None if emission_z is None else float(emission_z),
        counts=counts,
        expected_counts=expected,
        dwell_gap=dwell_gap,
        n_runs=n_runs,
        loss_rate_gap=float(loss_rate_gap),
        below_bound_mass=below_bound_mass,
        beta0=float(beta0),
    )
