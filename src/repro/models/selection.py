"""Model-order selection: how many hidden states does the path need?

The paper varies ``N`` from 1 to 4 and reports that the inferred
distributions barely change; a user still has to pick one.  This module
offers the standard information-criterion answer: fit each candidate and
take the smallest BIC.  Because the degenerate EM basin has *higher*
likelihood than the physical one (DESIGN.md §7.2), selection is run with
the safe defaults (data-driven initialisation and warm start) — BIC
compares model orders within the physical basin, not basins.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.models.base import (
    EMConfig,
    FittedModel,
    ObservationSequence,
    SymbolIndex,
)
from repro.models.hmm import fit_hmm
from repro.models.mmhd import fit_mmhd
from repro.parallel import parallel_map, resolve_n_jobs

__all__ = ["ModelSelection", "bic", "select_n_hidden"]


def _n_parameters(fitted: FittedModel, n_symbols: int) -> int:
    """Free-parameter count of a fitted model."""
    model = fitted.model
    if hasattr(model, "emission"):  # HMM
        n_hidden = model.n_hidden
        return (
            (n_hidden - 1)                       # pi
            + n_hidden * (n_hidden - 1)          # transition rows
            + n_hidden * (n_symbols - 1)         # emission rows
            + n_symbols                          # loss channel
        )
    n_states = model.n_states                    # MMHD
    return (
        (n_states - 1)
        + n_states * (n_states - 1)
        + n_symbols
    )


def bic(fitted: FittedModel, seq: ObservationSequence) -> float:
    """Bayesian information criterion: ``k ln T - 2 ln L`` (lower wins)."""
    k = _n_parameters(fitted, seq.n_symbols)
    return k * np.log(len(seq)) - 2.0 * fitted.log_likelihood


class ModelSelection:
    """Candidate fits plus the chosen model order."""

    def __init__(self, fits: Dict[int, FittedModel], bics: Dict[int, float]):
        self.fits = fits
        self.bics = bics
        self.best_n = min(bics, key=bics.get)

    @property
    def best_fit(self) -> FittedModel:
        """The fitted model at the BIC-minimal N."""
        return self.fits[self.best_n]

    def summary(self) -> str:
        """Per-candidate BIC table with the selection marked."""
        lines = ["model selection (lower BIC wins):"]
        for n_hidden in sorted(self.bics):
            marker = " <- selected" if n_hidden == self.best_n else ""
            lines.append(
                f"  N={n_hidden}: BIC={self.bics[n_hidden]:.1f}"
                f" (logL={self.fits[n_hidden].log_likelihood:.1f}){marker}"
            )
        return "\n".join(lines)


def _fit_candidate(task):
    """Fit one candidate model order (parallel-map worker).

    The candidate fit never nests *pool* parallelism inside a worker
    (that budget is spent across candidates), but each candidate still
    batches its own restarts in-process.  All candidates fit the same
    sequence, so the ``SymbolIndex`` is built once per selection call
    and shared instead of being rebuilt per candidate order.
    """
    seq, n_hidden, model, config, serial_inner, index = task
    fit = fit_mmhd if model == "mmhd" else fit_hmm
    if serial_inner and config is not None:
        config = config.replace(n_jobs=1)
    return fit(seq, n_hidden=n_hidden, config=config, index=index)


def select_n_hidden(
    seq: ObservationSequence,
    candidates: Sequence[int] = (1, 2, 3, 4),
    model: str = "mmhd",
    config: Optional[EMConfig] = None,
    n_jobs: int = 1,
) -> ModelSelection:
    """Fit each candidate ``N`` and pick the BIC-minimal one.

    Note the MMHD's parameter count grows as ``(N M)^2``: on typical probe
    records BIC therefore prefers small ``N`` unless extra hidden structure
    genuinely pays for itself — consistent with the paper's observation
    that the inferred distributions barely change with ``N``.

    ``n_jobs`` fans the candidate fits out over worker processes
    (``-1`` = all CPUs); each candidate's result depends only on the
    shared ``config``, so the selection is identical for every value.
    """
    if not candidates:
        raise ValueError("need at least one candidate N")
    with obs.span("selection.fit", model=model,
                  candidates=[int(n) for n in candidates]):
        serial_inner = resolve_n_jobs(n_jobs) > 1
        index = SymbolIndex(seq)
        tasks = [(seq, int(n_hidden), model, config, serial_inner, index)
                 for n_hidden in candidates]
        fitted_models = parallel_map(_fit_candidate, tasks, n_jobs=n_jobs)
        fits: Dict[int, FittedModel] = {}
        bics: Dict[int, float] = {}
        for (_, n_hidden, _, _, _, _), fitted in zip(tasks, fitted_models):
            fits[n_hidden] = fitted
            bics[n_hidden] = bic(fitted, seq)
        selection = ModelSelection(fits, bics)
    obs.inc("repro_selection_total", 1.0, model=model,
            chosen_n=selection.best_n)
    obs.emit(
        "selection.bic",
        model=model,
        candidates=sorted(bics),
        bics={str(n): round(float(bics[n]), 3) for n in sorted(bics)},
        chosen_n=selection.best_n,
    )
    return selection
