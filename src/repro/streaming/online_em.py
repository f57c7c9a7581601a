"""Online EM: warm-started per-window fits with cold-restart fallback.

A batch fit spends most of its EM iterations travelling from a random
initialisation to the neighbourhood of the optimum.  Consecutive sliding
windows of a (locally) stationary probe stream share most of their data,
so the previous window's fitted parameters land the new window's EM a few
iterations from convergence — an order of magnitude fewer E-passes than a
cold multi-restart fit.

:func:`fused_streaming_fits` implements that policy for many windows in
one ragged mega-batch (:func:`repro.models.batched.run_hedged_fits`),
which is what the scheduler's drain runs:

* a window with no usable warm state (a path's first window, a shape
  mismatch) gets a cold multi-restart fit from the batch pipeline's own
  cold driver, so it equals :func:`repro.models.mmhd.fit_mmhd` /
  :func:`repro.models.hmm.fit_hmm` on that window, bit for bit;
* a window with a warm state runs plain EM from those parameters (no
  loss-channel freeze, no restarts) and returns as soon as the parameter
  change drops below tolerance;
* it falls back to cold restarts whenever the warm trajectory collapses:
  zero likelihood, a non-finite log-likelihood, or a non-monotone
  likelihood trail (EM is monotone, so a real decrease signals numerical
  degeneracy of the inherited parameters).

The hedging is lazy: a healthy warm trajectory returns after its few
iterations, and only a collapsing one pays for cold restart rows.  The
cold rows of every window that needs them — first windows and fallbacks
alike — share one stack, so a fleet's first round is one cold stack
rather than one fit per path.  :func:`streaming_fit`, the per-window
reference behind :class:`~repro.streaming.tracker.PathMonitor`, is the
one-window case of :func:`fused_streaming_fits`, and by row independence
each window's fused result is bit-identical to it.

The warm state itself (:class:`WarmState`) is a plain bundle of parameter
arrays, picklable so the multi-path scheduler can round-trip it through
worker processes.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.models.base import EMConfig, ObservationSequence, require_losses
from repro.models.hmm import HiddenMarkovModel
from repro.models.mmhd import MarkovModelHiddenDimension

_LOG = obs.get_logger(__name__)

__all__ = [
    "WarmState",
    "StreamingFitResult",
    "streaming_fit",
    "fused_streaming_fits",
]

#: Allowed decrease of the EM log-likelihood trail before the warm
#: trajectory is declared collapsed, as ``ABS + REL * |loglik|``.  EM is
#: monotone in its objective, but the M-step's Beta loss prior
#: (:class:`EMConfig.loss_prior_losses` / ``loss_prior_observations``)
#: means that objective is the *penalized* likelihood: the raw trail can
#: dip by a fraction of a nat near convergence.  Genuine degeneracy of
#: inherited parameters loses tens of nats (or goes non-finite), so a
#: sub-nat allowance separates the two cleanly.
_MONOTONE_SLACK_ABS = 0.5
_MONOTONE_SLACK_REL = 1e-4


class WarmState:
    """Picklable parameter snapshot carried from one window to the next."""

    __slots__ = ("kind", "n_symbols", "n_hidden", "params")

    def __init__(self, kind: str, n_symbols: int, n_hidden: int, params: dict):
        if kind not in ("mmhd", "hmm"):
            raise ValueError(f"kind must be 'mmhd' or 'hmm', got {kind!r}")
        self.kind = kind
        self.n_symbols = int(n_symbols)
        self.n_hidden = int(n_hidden)
        self.params = params

    @classmethod
    def from_model(cls, model) -> "WarmState":
        """Snapshot a fitted model's parameters."""
        if isinstance(model, MarkovModelHiddenDimension):
            return cls(
                "mmhd",
                model.n_symbols,
                model.n_hidden,
                {
                    "pi": model.pi.copy(),
                    "transition": model.transition.copy(),
                    "loss_given_symbol": model.loss_given_symbol.copy(),
                },
            )
        if isinstance(model, HiddenMarkovModel):
            return cls(
                "hmm",
                model.n_symbols,
                model.n_hidden,
                {
                    "pi": model.pi.copy(),
                    "transition": model.transition.copy(),
                    "emission": model.emission.copy(),
                    "loss_given_symbol": model.loss_given_symbol.copy(),
                },
            )
        raise TypeError(f"cannot snapshot {type(model).__name__}")

    def build_model(self):
        """Reconstruct the model object from the snapshot."""
        p = self.params
        if self.kind == "mmhd":
            return MarkovModelHiddenDimension(
                p["pi"], p["transition"], p["loss_given_symbol"], self.n_symbols
            )
        return HiddenMarkovModel(
            p["pi"], p["transition"], p["emission"], p["loss_given_symbol"]
        )

    def matches(self, n_symbols: int, n_hidden: int, kind: str) -> bool:
        """Whether this snapshot can seed a fit of the given shape."""
        return (
            self.kind == kind
            and self.n_symbols == int(n_symbols)
            and self.n_hidden == int(n_hidden)
        )


class StreamingFitResult:
    """One window's fit plus how it was obtained.

    Attributes
    ----------
    fitted:
        A :class:`FittedMMHD` / :class:`FittedHMM` — same surface the
        batch fitters return.
    warm_used:
        ``True`` when the returned fit came from the warm trajectory.
    fallback_reason:
        Why the warm start was abandoned (``None`` when it was not
        attempted or succeeded): ``"zero-likelihood"``,
        ``"non-finite-loglik"``, or ``"non-monotone"``.
    """

    __slots__ = ("fitted", "warm_used", "fallback_reason")

    def __init__(self, fitted, warm_used: bool, fallback_reason: Optional[str]):
        self.fitted = fitted
        self.warm_used = bool(warm_used)
        self.fallback_reason = fallback_reason

    def warm_state(self) -> WarmState:
        """Snapshot for the next window of the same path."""
        return WarmState.from_model(self.fitted.model)


def _trail_collapsed(logliks: List[float]) -> Optional[str]:
    trail = np.asarray(logliks, dtype=float)
    if not np.all(np.isfinite(trail)):
        return "non-finite-loglik"
    slack = _MONOTONE_SLACK_ABS + _MONOTONE_SLACK_REL * np.abs(trail[:-1])
    if np.any(np.diff(trail) < -slack):
        return "non-monotone"
    return None


def _record(kind: str, result: "StreamingFitResult") -> "StreamingFitResult":
    """Telemetry for one finished window fit (warm-rate and fallbacks)."""
    if result.fallback_reason is not None:
        _LOG.info("warm start abandoned (%s); cold refit used",
                  result.fallback_reason)
    if not obs.is_enabled():
        return result
    obs.inc("repro_streaming_fits_total", 1.0,
            mode="warm" if result.warm_used else "cold")
    if result.fallback_reason is not None:
        obs.inc("repro_streaming_fallbacks_total", 1.0,
                reason=result.fallback_reason)
    obs.emit(
        "streaming.fit",
        model=kind,
        warm_used=result.warm_used,
        fallback_reason=result.fallback_reason,
        n_iter=int(result.fitted.n_iter),
        loglik=round(float(result.fitted.log_likelihood), 6),
    )
    return result


def fused_streaming_fits(
    kind: str,
    seqs: List[ObservationSequence],
    n_hidden: int,
    configs: List[EMConfig],
    warm_states: List[Optional[WarmState]],
) -> Tuple[List[StreamingFitResult], dict]:
    """Hedged fits for many windows in one ragged mega-batch.

    The scheduler's fused drain stacks the windows of all paths sharing
    ``(kind, n_hidden, n_symbols)`` and runs a single batched recursion
    over the stack.  A window whose warm state is ``None`` or does not
    match the fit shape gets the batch fitter's cold fit
    (``warm_used=False``, ``fallback_reason=None``), from the same cold
    stack that takes the warm fits that fall back.  Per-window results
    (and the per-window ``streaming.fit`` telemetry) are bit-identical to
    one-window calls (:func:`streaming_fit`); ``info`` additionally
    reports the stacks' occupancy and pad-waste accounting for the
    ``drain.round`` event.

    ``configs`` carry the per-window seeds (``seed`` is the only field
    allowed to differ).
    """
    if kind not in ("mmhd", "hmm"):
        raise ValueError(f"kind must be 'mmhd' or 'hmm', got {kind!r}")
    if not (len(seqs) == len(configs) == len(warm_states)):
        raise ValueError("fused_streaming_fits needs one config and one "
                         "warm state (or None) per sequence")
    for seq in seqs:
        require_losses(seq, "fused_streaming_fits")
    # Loaded at the first fit: a fleet whose windows are all skips never
    # pays for the engine's modules.
    from repro.models.batched import run_hedged_fits

    warm_models = [
        warm.build_model()
        if warm is not None and warm.matches(seq.n_symbols, n_hidden, kind)
        else None
        for seq, warm in zip(seqs, warm_states)
    ]
    with obs.span("streaming.fused_fit", model=kind, windows=len(seqs)):
        fits, info = run_hedged_fits(
            kind, seqs, n_hidden, configs, warm_models, _trail_collapsed,
        )
        results = [
            _record(kind, StreamingFitResult(fitted, warm_used, reason))
            for fitted, warm_used, reason in fits
        ]
    return results, info


def streaming_fit(
    seq: ObservationSequence,
    n_hidden: int,
    config: Optional[EMConfig] = None,
    kind: str = "mmhd",
    warm: Optional[WarmState] = None,
) -> StreamingFitResult:
    """Fit one window, warm-starting from the previous window if possible:
    the one-window case of :func:`fused_streaming_fits`.

    Parameters
    ----------
    seq:
        The window's symbolized observation sequence.
    warm:
        The previous window's :class:`WarmState`; ``None`` (or a
        shape-mismatched state) forces a cold multi-restart fit.

    Raises
    ------
    InsufficientLossError:
        When the window contains no lost probes (nothing to estimate);
        the streaming tracker catches this and skips the window.
    """
    results, _ = fused_streaming_fits(kind, [seq], n_hidden,
                                      [config or EMConfig()], [warm])
    return results[0]
