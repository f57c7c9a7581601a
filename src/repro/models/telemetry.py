"""EM fit instrumentation shared by the HMM and MMHD fitters.

The paper's fits are only trustworthy when EM behaves: log-likelihood
climbs monotonically, restarts agree, and the winner is not a lucky
degenerate basin.  These helpers turn each restart and each
multi-restart reduction into telemetry (see :mod:`repro.obs.schema` for
the event payloads) without cluttering the fitters themselves.

Both helpers are cheap no-ops while telemetry is disabled.
``record_restart`` runs inside parallel-map workers — its counters ride
back to the parent through the metric-delta round-trip, and its events
append directly to a shared JSONL sink.
"""

from __future__ import annotations

from typing import Sequence

from repro import obs

__all__ = ["record_restart", "record_fit", "record_drain_round"]

#: decimal places kept for log-likelihoods in event payloads — enough to
#: see non-monotonicity at the EM tolerance, small enough to keep JSONL
#: trajectories compact.
_LOGLIK_DECIMALS = 6


def record_restart(model: str, restart: int, fitted) -> None:
    """Telemetry for one finished EM restart (worker-side).

    Emits the full per-iteration log-likelihood trajectory so a
    non-monotone run can be debugged from the event file alone.
    """
    if not obs.is_enabled():
        return
    obs.inc("repro_em_restarts_total", 1.0, model=model)
    obs.inc("repro_em_iterations_total", float(fitted.n_iter), model=model)
    if not fitted.converged:
        obs.inc("repro_em_nonconverged_total", 1.0, model=model)
    obs.emit(
        "em.restart",
        model=model,
        restart=int(restart),
        n_iter=int(fitted.n_iter),
        converged=bool(fitted.converged),
        loglik=round(float(fitted.log_likelihood), _LOGLIK_DECIMALS),
        logliks=[round(float(v), _LOGLIK_DECIMALS)
                 for v in fitted.log_likelihoods],
    )


def record_fit(model: str, fits: Sequence, best_restart: int) -> None:
    """Telemetry for a multi-restart fit reduced to its winner.

    The restart-to-restart spread of final log-likelihoods
    (``loglik_dispersion``) is the one-number health check for basin
    sensitivity: near zero means restarts agree, large means the
    likelihood surface is multi-modal and the restart budget matters.
    """
    if not obs.is_enabled():
        return
    logliks = [round(float(f.log_likelihood), _LOGLIK_DECIMALS)
               for f in fits]
    obs.inc("repro_em_fits_total", 1.0, model=model)
    obs.inc("repro_em_restart_wins_total", 1.0, restart=int(best_restart))
    obs.emit(
        "em.fit",
        model=model,
        n_restarts=len(fits),
        best_restart=int(best_restart),
        restart_logliks=logliks,
        loglik_dispersion=round(max(logliks) - min(logliks),
                                _LOGLIK_DECIMALS) if logliks else 0.0,
    )


def record_drain_round(windows: int, groups: int, rows: int,
                       pad_fraction: float, dur_s: float) -> None:
    """Telemetry for one multi-path drain round.

    ``pad_fraction`` is the share of mega-batch slots wasted on padding
    (ragged stacks pad every window to the longest one in its group); a
    drain whose rounds report high pad waste is stacking windows of very
    unequal length.  Every round is fused, so the ``mode`` field and
    label always read ``"fused"``.
    """
    if not obs.is_enabled():
        return
    obs.inc("repro_drain_rounds_total", 1.0, mode="fused")
    obs.inc("repro_drain_windows_total", float(windows), mode="fused")
    obs.observe("repro_drain_round_seconds", float(dur_s), mode="fused")
    obs.observe("repro_drain_pad_waste_ratio", float(pad_fraction))
    obs.emit(
        "drain.round",
        mode="fused",
        windows=int(windows),
        groups=int(groups),
        rows=int(rows),
        pad_fraction=round(float(pad_fraction), 4),
        dur_ms=round(float(dur_s) * 1e3, 3),
    )
