"""The E-step engine: batched forward-backward over a symbol stack.

Every E-pass in the repo runs here.  A batch holds ``K`` parameter sets
of one model — ``pi: (K, N)``, ``transition: (K, N, N)``, … — and
``stack_rows``, which say which sequence of a
:class:`~repro.models.base.SymbolStack` each row fits:

* a multi-restart fit is a one-sequence stack with
  ``stack_rows = zeros(R)``;
* a hedged or fused streaming drain is a stack of many sequences, one
  (or ``n_restarts``) rows per window;
* a single model's E-pass (``em_step``, ``virtual_delay_pmf``,
  ``log_likelihood``, the diagnostics pass) is a one-row stack.

One batch class per model (:class:`_HMMBatch`, :class:`_MMHDBatch`) and
one per-stack constant bundle (:class:`_Aux`) serve all of them, so the
time loop executes ``T`` batched steps per E-pass whatever the number of
rows, instead of one Python loop per row.

Row independence
----------------
Every batched operation computes each row from that row's own
parameters and steps.  Rows of unequal length ``T_r`` are right-padded
to the stack's longest: padded steps are carried, not computed — the
forward pass repeats the row's last valid ``alpha`` with scale 1 and the
backward pass carries ``beta`` left until the row's last valid step sees
exactly the solo boundary value 1 — and every gamma/xi/log-likelihood
accumulation is sliced per length group, so contraction lengths (and
with them BLAS reduction orders) match a solo pass of each row.  A row's
results are therefore *bit-identical* for any batch composition: a fit
sharded over ``n_jobs`` pool workers equals the in-process fit,
converged restarts can be masked out of the batch without perturbing
the survivors, and a fused drain of many windows equals one drain per
window (:func:`run_hedged_fits`).

Kernels
-------
The HMM recursion runs the blocked scan of :mod:`repro.models.scan` for
state widths ``N <= BLOCKED_STATE_LIMIT`` and the per-time-step loop
kernel (:func:`_ragged_forward_backward`) above it.  Every MMHD pass is
the loss-folded pass of :mod:`repro.models.folded`, whose ``N``-wide
chain of observed steps is always scanned blocked.  Every blocked scan
runs at the fixed block :data:`RAGGED_BLOCK_SIZE`.

The engine composes with the process pool: ``n_jobs > 1`` splits the
restarts into contiguous shards (:func:`repro.parallel.shard_items`) and
each worker batches its own shard.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro import obs
from repro.models.base import (
    EMConfig,
    ObservationSequence,
    SymbolIndex,
    SymbolStack,
    floor_and_normalize,
)
from repro.models.folded import _FoldedIndex, _folded_forward_backward
from repro.models.scan import (
    RAGGED_BLOCK_SIZE,
    _BatchZeroLikelihood,
    _check_scales,
    _lane_groups,
    _length_groups,
    _rescale_beta,
    _reversed_steps,
    _row_loglik,
    _scan_forward,
    _Workspace,
)
from repro.models.hmm import FittedHMM, HiddenMarkovModel
from repro.models.hmm import _EStepStats as _HMMStats
from repro.models.initialization import (
    hmm_initial_parameters,
    mmhd_initial_parameters,
)
from repro.models.mmhd import (
    FittedMMHD,
    MarkovModelHiddenDimension,
    _EStepStats,
)
from repro.models.telemetry import record_fit, record_restart
from repro.obs import span
from repro.parallel import parallel_map, resolve_n_jobs, restart_rng, shard_items

__all__ = [
    "BLOCKED_STATE_LIMIT",
    "RAGGED_BLOCK_SIZE",
    "batched_restart_fits",
    "fit_restarts",
    "hmm_estep",
    "hmm_forward",
    "mmhd_estep",
    "mmhd_forward",
    "run_hedged_fit",
    "run_hedged_fits",
    "solo_log_likelihood",
]

#: Largest HMM state width that runs the blocked scan kernel.  The scan
#: composes ``(N, N)`` operators, an ``N``-fold FLOP inflation over the
#: loop kernel's matvecs, so it pays while the loop is dispatch-bound —
#: and where that stops depends on the stack's row count as much as on
#: its width.  On a 2-vCPU host (one BLAS thread, T = 3000) it ran 12x /
#: 6.6x / 3.3x / 1.5x faster than the loop at width 2 for 1 / 4 / 16 /
#: 64 rows, and 1.4x / 0.45x / 0.2x / 0.1x at width 10.  Fleet drains
#: stack many rows, so the cutoff stays at 4.
BLOCKED_STATE_LIMIT = 4

#: ``stack_rows`` of a one-row batch over a one-sequence stack.
_ONE_ROW = np.zeros(1, dtype=np.intp)


@contextmanager
def _zero_likelihood_raises():
    """Report a batch's zero likelihood as :class:`FloatingPointError`."""
    try:
        yield
    except _BatchZeroLikelihood as exc:
        raise FloatingPointError(f"zero likelihood at t={exc.t}") from None


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------
def _blocked_forward_backward(pi, transition, likes,
                              block_size=RAGGED_BLOCK_SIZE, lengths=None,
                              workspace=None, backward=True):
    """Blocked-scan forward-backward of the HMM step operators
    ``transition * diag(likes[t])``.

    Same contract as :func:`_ragged_forward_backward` (returns
    ``(alpha, beta, scales)``; ``lengths=None`` is a uniform stack;
    ``beta`` is ``None`` when ``backward`` is false), with the per-step
    loop replaced by one :func:`_scan_forward` sweep: row ``k``'s
    backward chain runs as lane ``K + k``, the transposed operators in
    the row's reversed time from ones at its last step.
    """
    n_steps, n_rows, n = likes.shape
    ws = workspace if workspace is not None else _Workspace()
    groups = None if lengths is None else _length_groups(lengths)
    lane_groups = groups
    init = pi * likes[0]
    if backward:
        back = _reversed_steps(n_steps if lengths is None else lengths,
                               n_steps)
        at = ws.get("back_at", (n_steps, n_rows), np.intp)
        np.add(back * n_rows, np.arange(n_rows), out=at)
        rev = ws.take("likes_rev", likes.reshape(-1, n), at)
        transposed = np.ascontiguousarray(transition.swapaxes(1, 2))
        init = np.concatenate((init, np.ones_like(init)))
        if groups is not None:
            lane_groups = _lane_groups(groups, n_rows)

    def ops_at(o0, o1, out):
        # Spreading the likelihoods first lets the product run over whole
        # contiguous operators: twice as fast as one broadcast multiply,
        # whose inner loop is only n long.
        fwd = out[:, :n_rows]
        np.copyto(fwd, likes[1 + o0: 1 + o1, :, None, :])
        np.multiply(fwd, transition, out=fwd)
        if backward:
            bwd = out[:, n_rows:]
            np.copyto(bwd, rev[o0:o1, :, :, None])
            np.multiply(bwd, transposed, out=bwd)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        lanes, lane_scales = _scan_forward(init, ops_at, n_steps,
                                           block_size, lane_groups, ws)
        alpha, scales = lanes[:, :n_rows], lane_scales[:, :n_rows]
        _check_scales(scales)
        if not backward:
            return alpha, None, scales
        np.add(back * (2 * n_rows), np.arange(n_rows, 2 * n_rows), out=at)
        beta = ws.take("beta", lanes.reshape(-1, n), at)
        _rescale_beta(alpha, beta, ws)
    # The loop kernel's boundary value, exactly: ones from each row's
    # last step on.
    for t_g, idx in groups or [(n_steps, slice(None))]:
        beta[t_g - 1:, idx] = 1.0
    return alpha, beta, scales


def _ragged_forward_backward(pi, transition, likes, lengths,
                             workspace=None, backward=True):
    """Scaled forward-backward over rows of unequal length: the loop
    kernel.

    ``likes`` is time-major ``(T, K, n)``, ``pi`` ``(K, n)`` and
    ``transition`` ``(K, n, n)``; ``alpha`` comes back normalised per step
    so ``gamma = alpha * beta`` directly.  Rows are only meaningful for
    their first ``lengths[k]`` steps.  Padded steps are *carried*: the
    forward pass repeats the last valid ``alpha`` and forces the padded
    scale to 1, so the per-row log-likelihood (``sum(log(scales[:T_r]))``,
    taken by the caller per length group) never sees a padded factor; the
    backward pass carries ``beta`` leftward so the row's last valid step
    holds exactly the solo boundary value 1.  Every valid slot is
    bit-identical to a solo run of that row.  ``beta`` is ``None`` when
    ``backward`` is false.
    """
    n_steps, n_rows, n = likes.shape
    ws = workspace if workspace is not None else _Workspace()
    dtype = likes.dtype
    lengths = np.asarray(lengths)
    order = np.argsort(lengths, kind="stable")
    sorted_lengths = lengths[order]
    min_len = int(sorted_lengths[0])

    def padded_rows(t):
        """Rows already past their end at step ``t`` (length <= t)."""
        return order[: np.searchsorted(sorted_lengths, t, side="right")]

    alpha = ws.get("alpha", likes.shape, dtype)
    scales = ws.get("scales", (n_steps, n_rows), dtype)
    with np.errstate(divide="ignore", invalid="ignore", under="ignore"):
        state = pi * likes[0]
        total = np.add.reduce(state, axis=1)
        scales[0] = total
        np.divide(state, total[:, None], out=alpha[0])
        for t in range(1, n_steps):
            state = alpha[t]
            np.matmul(alpha[t - 1][:, None, :], transition,
                      out=state.reshape(n_rows, 1, n))
            state *= likes[t]
            total = np.add.reduce(state, axis=1)
            scales[t] = total
            state /= total[:, None]
            if t >= min_len:
                pad = padded_rows(t)
                state[pad] = alpha[t - 1][pad]
                scales[t, pad] = 1.0
        # Padded scales are exactly 1.0, so the uniform checker sees
        # only genuine zeros (always at a valid step of some row).
        _check_scales(scales)
        if not backward:
            return alpha, None, scales
        beta = ws.get("beta", likes.shape, dtype)
        beta[n_steps - 1] = 1.0
        scaled = ws.get("scaled", (n_steps - 1, n_rows, n), dtype)
        np.divide(likes[1:], scales[1:, :, None], out=scaled)
        buf = ws.get("buf", (n_rows, n, 1), dtype)
        for t in range(n_steps - 2, -1, -1):
            np.multiply(scaled[t], beta[t + 1], out=buf[:, :, 0])
            np.matmul(transition, buf, out=beta[t].reshape(n_rows, n, 1))
            if t + 1 >= min_len:
                pad = padded_rows(t + 1)
                beta[t][pad] = beta[t + 1][pad]
    return alpha, beta, scales


class _HMMRows:
    """One set of stack rows laid out for the HMM E-pass.

    ``at`` ``(T, K)`` addresses each step's likelihood in the pass's
    symbol table (:meth:`_HMMBatch.forward_backward`) and ``onehot``
    ``(K, T, M)`` marks the rows' observed symbols.  ``loss_steps`` are
    the steps at which any row is lost, ascending, and ``lost`` ``(L, K,
    1)`` says which rows are lost there.  Rows that are the whole stack,
    or one sequence repeated (a restart stack), take ``onehot`` views
    instead of copies, and so does a length group holding every row.
    Built once per active row set, like the folded pass's layout.
    """

    def __init__(self, aux: "_Aux", rows):
        stack = aux.stack
        n_rows, n_symbols = len(rows), stack.n_symbols
        self.lengths = stack.lengths[rows]
        t_act = int(self.lengths.max())
        self.at = aux.codes[rows, :t_act].T + (n_symbols + 2) * np.arange(
            n_rows)
        if stack.n_rows == 1:
            self.onehot = np.broadcast_to(aux.onehot[0, :t_act],
                                          (n_rows, t_act, n_symbols))
        elif np.array_equal(rows, np.arange(stack.n_rows)):
            self.onehot = aux.onehot
        else:
            self.onehot = aux.onehot[rows, :t_act]
        lost = stack.lost[rows, :t_act].T
        self.loss_steps = np.flatnonzero(lost.any(axis=1))
        self.lost = lost[self.loss_steps, :, None].astype(float)
        self.groups = _length_groups(self.lengths)


class _Aux:
    """Everything the E-passes over one stack share: the stack, the
    constants derived from its symbols alone, the kernel and the fit's
    :class:`~repro.models.scan._Workspace`.

    The kernel follows the state width alone: the HMM runs ``blocked``
    for ``N <= BLOCKED_STATE_LIMIT`` and ``loop`` above it; the MMHD
    always runs the loss-folded pass (``blocked``).  HMM symbols are
    coded ``0..M-1`` observed, ``M`` lost and ``M+1`` padding.
    """

    def __init__(self, kind: str, stack: SymbolStack, n_hidden: int):
        self.kind = kind
        self.stack = stack
        self.n_hidden = int(n_hidden)
        self.n_symbols = n_symbols = stack.n_symbols
        self.workspace = _Workspace()
        if kind == "mmhd":
            self.kernel = "blocked"
            self.n_states = self.n_hidden * n_symbols
            self.state_symbol = np.tile(np.arange(n_symbols), self.n_hidden)
            self.folded = _FoldedIndex(stack)
            return
        self.kernel = ("blocked" if self.n_hidden <= BLOCKED_STATE_LIMIT
                       else "loop")
        self.codes = np.where(stack.observed, stack.symbols0,
                              np.where(stack.lost, n_symbols, n_symbols + 1))
        self.onehot = np.eye(n_symbols + 2)[self.codes, :n_symbols]
        self._layout = (None, None)

    def layout(self, rows) -> _HMMRows:
        """The :class:`_HMMRows` of ``rows``, kept for the latest set."""
        key = rows.tobytes()
        if self._layout[0] != key:
            self._layout = (key, _HMMRows(self, rows))
        return self._layout[1]

    def forward_backward(self, pi, transition, likes, lengths,
                         backward=True):
        """One forward-backward through the stack's kernel."""
        if self.kernel == "blocked":
            return _blocked_forward_backward(
                pi, transition, likes, lengths=lengths,
                workspace=self.workspace, backward=backward)
        return _ragged_forward_backward(pi, transition, likes, lengths,
                                        workspace=self.workspace,
                                        backward=backward)


def _stack_of(index: SymbolIndex) -> SymbolStack:
    """``index``'s sequence as a one-row stack, memoised on the index."""
    if "stack" not in index.memo:
        index.memo["stack"] = SymbolStack([index.seq])
    return index.memo["stack"]


# ----------------------------------------------------------------------
# Batches
# ----------------------------------------------------------------------
class _HMMBatch:
    """A stack of K HMM parameter sets; row ``k`` fits stack row
    ``stack_rows[k]``."""

    kind = "hmm"
    __slots__ = ("pi", "transition", "emission", "loss_c", "stack_rows")

    def __init__(self, pi, transition, emission, loss_c, stack_rows):
        self.pi = pi
        self.transition = transition
        self.emission = emission
        self.loss_c = loss_c
        self.stack_rows = np.asarray(stack_rows)

    @classmethod
    def from_models(cls, models: Sequence[HiddenMarkovModel],
                    stack_rows) -> "_HMMBatch":
        return cls(
            np.stack([m.pi for m in models]),
            np.stack([m.transition for m in models]),
            np.stack([m.emission for m in models]),
            np.stack([m.loss_given_symbol for m in models]),
            stack_rows,
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi)

    def param_arrays(self):
        return (self.pi, self.transition, self.emission, self.loss_c)

    def rows(self, idx) -> "_HMMBatch":
        return _HMMBatch(
            self.pi[idx], self.transition[idx], self.emission[idx],
            self.loss_c[idx], self.stack_rows[idx],
        )

    def set_rows(self, idx, sub: "_HMMBatch") -> None:
        self.pi[idx] = sub.pi
        self.transition[idx] = sub.transition
        self.emission[idx] = sub.emission
        self.loss_c[idx] = sub.loss_c

    def extract(self, row: int) -> HiddenMarkovModel:
        return HiddenMarkovModel(
            self.pi[row], self.transition[row],
            self.emission[row], self.loss_c[row],
        )

    def forward_backward(self, aux: _Aux, backward=True):
        """The rows' step likelihoods and their forward-backward.

        The likelihoods come from one gather out of a per-pass symbol
        table: ``B[:, m] * (1 - c[m])`` for observed symbol ``m``,
        ``B @ c`` for a loss and 0 for padding.  Returns ``(alpha, beta,
        scales, likes, layout)``.
        """
        lay = aux.layout(self.stack_rows)
        n_rows, n_hidden = self.pi.shape
        n_symbols = aux.n_symbols
        ws = aux.workspace
        table = ws.get("like_table", (n_rows, n_symbols + 2, n_hidden))
        np.multiply(self.emission, (1.0 - self.loss_c)[:, None, :],
                    out=table[:, :n_symbols].transpose(0, 2, 1))
        table[:, n_symbols] = np.matmul(self.emission,
                                        self.loss_c[:, :, None])[:, :, 0]
        table[:, n_symbols + 1] = 0.0
        likes = ws.take("likes", table.reshape(-1, n_hidden), lay.at)
        alpha, beta, scales = aux.forward_backward(
            self.pi, self.transition, likes, lay.lengths, backward)
        return alpha, beta, scales, likes, lay

    def estep(self, aux: _Aux) -> _HMMStats:
        """One E-pass: per-row sufficient statistics.

        ``joint_obs[k, i, m]`` / ``joint_loss[k, i, m]`` are expected
        counts of (state, symbol) pairs over observed / loss instants; at
        a loss, ``P(state i, symbol m | obs) = gamma_t(i) B[i, m] c[m] /
        (B c)[i]``.  Every reduction covers exactly each row's own steps.
        """
        alpha, beta, scales, likes, lay = self.forward_backward(aux)
        ws = aux.workspace
        gamma = np.multiply(alpha, beta, out=ws.get("gamma", alpha.shape))
        weighted_b = np.multiply(likes[1:], beta[1:],
                                 out=ws.get("weighted_b", beta[1:].shape))
        weighted_b /= scales[1:, :, None]
        xi_sum = np.empty_like(self.transition)
        joint_obs = np.empty_like(self.emission)
        loglik = np.empty(self.n_rows)
        # Masked-out steps add exact zeros to a row's sum, and axis-0
        # reductions accumulate strictly in step order, so each row's
        # loss mass is bit-identical to summing its own loss steps.
        gamma_loss_total = np.add.reduce(
            ws.take("loss_gamma", gamma, lay.loss_steps) * lay.lost, axis=0)
        for t_g, idx in lay.groups:
            g = gamma[:t_g, idx]                          # (t_g, K_g, N)
            joint_obs[idx] = np.matmul(g.transpose(1, 2, 0),
                                       lay.onehot[idx, :t_g])
            xi_sum[idx] = self.transition[idx] * np.matmul(
                alpha[: t_g - 1, idx].transpose(1, 2, 0),
                weighted_b[: t_g - 1, idx].transpose(1, 0, 2),
            )
            loglik[idx] = _row_loglik(scales[:t_g, idx])
        loss_like = np.matmul(self.emission, self.loss_c[:, :, None])[:, :, 0]
        joint_loss = (
            (gamma_loss_total / loss_like)[:, :, None]
            * self.emission
            * self.loss_c[:, None, :]
        )
        return _HMMStats(gamma[0].copy(), xi_sum, joint_obs, joint_loss,
                         loglik)

    def maximize(self, stats: _HMMStats, min_prob, prior) -> "_HMMBatch":
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        joint_total = stats.joint_obs + stats.joint_loss
        emission = floor_and_normalize(joint_total, min_prob)
        symbol_mass = joint_total.sum(axis=1)
        loss_mass = stats.joint_loss.sum(axis=1)
        prior_losses, prior_observations = prior
        loss_c = (loss_mass + prior_losses) / np.maximum(
            symbol_mass + prior_losses + prior_observations, 1e-300
        )
        loss_c = np.clip(loss_c, min_prob, 1.0 - min_prob)
        return _HMMBatch(pi, transition, emission, loss_c, self.stack_rows)

    @staticmethod
    def loss_symbol_mass(stats: _HMMStats):
        return stats.joint_loss.sum(axis=1)


class _MMHDBatch:
    """A stack of K MMHD parameter sets; row ``k`` fits stack row
    ``stack_rows[k]``."""

    kind = "mmhd"
    __slots__ = ("pi", "transition", "loss_c", "n_symbols", "stack_rows")

    def __init__(self, pi, transition, loss_c, n_symbols, stack_rows):
        self.pi = pi
        self.transition = transition
        self.loss_c = loss_c
        self.n_symbols = int(n_symbols)
        self.stack_rows = np.asarray(stack_rows)

    @classmethod
    def from_models(cls, models: Sequence[MarkovModelHiddenDimension],
                    stack_rows) -> "_MMHDBatch":
        return cls(
            np.stack([m.pi for m in models]),
            np.stack([m.transition for m in models]),
            np.stack([m.loss_given_symbol for m in models]),
            models[0].n_symbols,
            stack_rows,
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi)

    def param_arrays(self):
        return (self.pi, self.transition, self.loss_c)

    def rows(self, idx) -> "_MMHDBatch":
        return _MMHDBatch(
            self.pi[idx], self.transition[idx], self.loss_c[idx],
            self.n_symbols, self.stack_rows[idx],
        )

    def set_rows(self, idx, sub: "_MMHDBatch") -> None:
        self.pi[idx] = sub.pi
        self.transition[idx] = sub.transition
        self.loss_c[idx] = sub.loss_c

    def extract(self, row: int) -> MarkovModelHiddenDimension:
        return MarkovModelHiddenDimension(
            self.pi[row], self.transition[row], self.loss_c[row],
            self.n_symbols,
        )

    def _structured_blocks(self, aux: _Aux):
        """Batched per-(symbol, symbol) transition blocks.

        ``t_oo`` is ``(K, M_from, M_to, N, N)``, ``t_ol`` is
        ``(K, M, N, S)``, ``t_lo`` is ``(K, M, S, N)``, ``t_ll`` is
        ``(K, S, S)``, all with destination likelihoods folded in.
        """
        n_rows = self.n_rows
        n_hidden, n_symbols = aux.n_hidden, aux.n_symbols
        n_states = aux.n_states
        survive = 1.0 - self.loss_c                       # (K, M)
        c_state = self.loss_c[:, aux.state_symbol]        # (K, S)
        a4 = self.transition.reshape(
            n_rows, n_hidden, n_symbols, n_hidden, n_symbols
        )
        t_oo = (
            np.ascontiguousarray(a4.transpose(0, 2, 4, 1, 3))
            * survive[:, None, :, None, None]
        )
        t_ol = (
            np.ascontiguousarray(a4.transpose(0, 2, 1, 3, 4)).reshape(
                n_rows, n_symbols, n_hidden, n_states
            )
            * c_state[:, None, None, :]
        )
        t_lo = (
            np.ascontiguousarray(a4.transpose(0, 4, 1, 2, 3)).reshape(
                n_rows, n_symbols, n_states, n_hidden
            )
            * survive[:, :, None, None]
        )
        t_ll = self.transition * c_state[:, None, :]
        return t_oo, t_ol, t_lo, t_ll, survive, c_state

    def estep(self, aux: _Aux) -> _EStepStats:
        """One loss-folded E-pass; every reduction covers exactly each
        row's own steps (the log-likelihood per length group)."""
        rows = self.stack_rows
        survive = 1.0 - self.loss_c
        c_state = self.loss_c[:, aux.state_symbol]
        fp = _folded_forward_backward(self, aux, rows)
        xi, gamma0, loss_mass, total_mass = fp.statistics(
            survive, c_state, aux.n_hidden)
        loglik = np.empty(self.n_rows)
        for t_g, idx in fp.layout.groups:
            loglik[idx] = _row_loglik(fp.scales[:t_g, idx])
        return _EStepStats(gamma0, self.transition * xi, loss_mass,
                           total_mass, loglik)

    def maximize(self, stats: _EStepStats, min_prob, prior) -> "_MMHDBatch":
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        prior_losses, prior_observations = prior
        loss_c = (stats.loss_mass + prior_losses) / np.maximum(
            stats.total_mass + prior_losses + prior_observations, 1e-300
        )
        loss_c = np.clip(loss_c, min_prob, 1.0 - min_prob)
        return _MMHDBatch(pi, transition, loss_c, self.n_symbols,
                          self.stack_rows)

    @staticmethod
    def loss_symbol_mass(stats: _EStepStats):
        return stats.loss_mass


_BATCH_TYPES = {"hmm": _HMMBatch, "mmhd": _MMHDBatch}
_FITTED_TYPES = {"hmm": FittedHMM, "mmhd": FittedMMHD}


# ----------------------------------------------------------------------
# One model: a one-row stack
# ----------------------------------------------------------------------
def _kind_of(model) -> str:
    return "hmm" if isinstance(model, HiddenMarkovModel) else "mmhd"


def _solo_aux(model, index: SymbolIndex) -> _Aux:
    """The aux of ``model``'s one-row stack over ``index``, memoised on
    the index so repeated passes share its constants and workspace."""
    key = (_kind_of(model), model.n_hidden)
    if key not in index.memo:
        index.memo[key] = _Aux(key[0], _stack_of(index), model.n_hidden)
    return index.memo[key]


def _solo_forward(model, aux: _Aux):
    """Forward-only pass of ``model`` over ``aux``'s one-row stack:
    normalised ``alpha`` ``(T, states)`` and ``scales`` ``(T,)``."""
    batch = _BATCH_TYPES[aux.kind].from_models([model], _ONE_ROW)
    with _zero_likelihood_raises():
        if aux.kind == "hmm":
            alpha, _, scales, _, _ = batch.forward_backward(aux,
                                                            backward=False)
            return alpha[:, 0].copy(), scales[:, 0].copy()
        fp = _folded_forward_backward(batch, aux, _ONE_ROW, backward=False)
        return fp.dense(fp.chain_alpha, fp.loss_alpha)[0], fp.scales[:, 0].copy()


def _solo_estep(model, index: SymbolIndex):
    """One E-pass of a single model; the batch statistics of row 0."""
    batch = _BATCH_TYPES[_kind_of(model)].from_models([model], _ONE_ROW)
    with _zero_likelihood_raises():
        stats = batch.estep(_solo_aux(model, index))
    *arrays, loglik = (getattr(stats, name) for name in stats.__slots__)
    return type(stats)(*(a[0] for a in arrays), float(loglik[0]))


def hmm_forward(model: HiddenMarkovModel, seq: ObservationSequence):
    """Forward pass of one HMM over ``seq``: ``alpha`` ``(T, N)``
    normalised per step and the per-step ``scales`` ``(T,)`` (the
    diagnostics E-pass).  Raises :class:`FloatingPointError` on zero
    likelihood."""
    return _solo_forward(model, _Aux("hmm", SymbolStack([seq]),
                                     model.n_hidden))


def mmhd_forward(model: MarkovModelHiddenDimension, seq: ObservationSequence):
    """Loss-folded forward pass of one MMHD over ``seq``: the dense
    normalised ``alpha`` ``(T, N*M)`` and the per-step ``scales``
    ``(T,)``.  Raises :class:`FloatingPointError` on zero likelihood."""
    return _solo_forward(model, _Aux("mmhd", SymbolStack([seq]),
                                     model.n_hidden))


def hmm_estep(model: HiddenMarkovModel, index: SymbolIndex) -> _HMMStats:
    """One E-pass of a single HMM over ``index``'s sequence.  Raises
    :class:`FloatingPointError` on zero likelihood."""
    return _solo_estep(model, index)


def mmhd_estep(model: MarkovModelHiddenDimension,
               index: SymbolIndex) -> _EStepStats:
    """One loss-folded E-pass of a single MMHD over ``index``'s
    sequence.  Raises :class:`FloatingPointError` on zero likelihood."""
    return _solo_estep(model, index)


def solo_log_likelihood(model, index: SymbolIndex) -> float:
    """Log-likelihood of ``index``'s sequence under one model (a
    forward-only pass).  Raises :class:`FloatingPointError` on zero
    likelihood."""
    _, scales = _solo_forward(model, _solo_aux(model, index))
    return float(_row_loglik(scales[:, None])[0])


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def _row_param_change(old, new) -> np.ndarray:
    """Per-row max absolute parameter change between two batches."""
    change = np.zeros(old.n_rows)
    for a, b in zip(old.param_arrays(), new.param_arrays()):
        np.maximum(
            change,
            np.abs(a - b).reshape(old.n_rows, -1).max(axis=1),
            out=change,
        )
    return change


def _initial_model(kind, seq, n_hidden, config, restart):
    """One restart's initial model, on the restart's own RNG stream."""
    rng = restart_rng(config.seed, restart)
    if kind == "hmm":
        pi, transition, emission, c = hmm_initial_parameters(seq, n_hidden, rng)
        return HiddenMarkovModel(pi, transition, emission, c)
    pi, transition, c = mmhd_initial_parameters(
        seq, n_hidden, rng, data_driven=config.data_driven_init
    )
    return MarkovModelHiddenDimension(pi, transition, c, seq.n_symbols)


class _BatchedEM:
    """EM over a batch with convergence masking.

    Each :meth:`step` runs one batched E+M iteration over the *active*
    rows only: rows whose parameters have converged are frozen in the
    stack and never recomputed (row independence of the batched ops
    means removing them cannot perturb the survivors).  Per-row freeze
    periods hold the initial loss channel (the cold warm start), and
    ``soft_rows`` (the hedged warm rows) survive a zero-likelihood pass
    as a retirement instead of a :class:`FloatingPointError`.
    """

    def __init__(self, batch, aux: _Aux, config: EMConfig,
                 freeze_iters: Sequence[int], soft_rows=()):
        self.batch = batch
        self.aux = aux
        self.config = config
        self.freeze_iters = np.asarray(freeze_iters, dtype=int)
        self.soft_rows = frozenset(int(r) for r in soft_rows)
        n_rows = batch.n_rows
        self.active = np.arange(n_rows)
        self.trails: List[List[float]] = [[] for _ in range(n_rows)]
        self.converged = np.zeros(n_rows, dtype=bool)
        self.failed: set = set()
        self.iteration = 0
        self.frozen_c = batch.loss_c.copy()
        self.batch_iterations = 0
        self.active_row_iterations = 0
        self.prior = (config.loss_prior_losses, config.loss_prior_observations)

    def step(self) -> bool:
        """One batched EM iteration; ``False`` once there is no work."""
        if self.iteration >= self.config.max_iter or not len(self.active):
            return False
        while True:
            if not len(self.active):
                return False
            sub = self.batch.rows(self.active)
            try:
                stats = sub.estep(self.aux)
            except _BatchZeroLikelihood as exc:
                self._retire_failed(exc)
                continue
            break
        new_sub = sub.maximize(stats, self.config.min_prob, self.prior)
        for k, row in enumerate(self.active):
            self.trails[row].append(float(stats.loglik[k]))
        # Warm start: rows still inside their freeze period keep the
        # initial loss channel and skip the convergence check.
        frozen = self.iteration < self.freeze_iters[self.active]
        if np.any(frozen):
            new_sub.loss_c[frozen] = self.frozen_c[self.active[frozen]]
        newly_converged = ~frozen & (
            _row_param_change(sub, new_sub) < self.config.tol
        )
        self.batch.set_rows(self.active, new_sub)
        self.converged[self.active[newly_converged]] = True
        self.batch_iterations += 1
        self.active_row_iterations += len(self.active)
        self.active = self.active[~newly_converged]
        self.iteration += 1
        return True

    def _retire_failed(self, exc: _BatchZeroLikelihood) -> None:
        rows = self.active[exc.rows]
        if any(int(r) not in self.soft_rows for r in rows):
            raise FloatingPointError(f"zero likelihood at t={exc.t}")
        for r in rows:
            self.failed.add(int(r))
        self.active = self.active[~np.isin(self.active, rows)]

    def retire(self, row: int) -> None:
        """Drop a row from the batch without marking it converged."""
        self.active = self.active[self.active != row]

    def run(self) -> None:
        while self.step():
            pass


def _finalize(kind, batch, aux, trails, converged, rows=None):
    """One trailing batched E-pass -> fitted models for ``rows``.

    The final pass yields both the trailing log-likelihood and the
    eq. (5) posterior in a single sweep.
    """
    idx = np.arange(batch.n_rows) if rows is None else np.asarray(rows)
    sub = batch.rows(idx)
    stats = sub.estep(aux)
    mass = sub.loss_symbol_mass(stats)
    fitted_cls = _FITTED_TYPES[kind]
    fits = []
    for k, row in enumerate(idx):
        row_mass = mass[k]
        fits.append(fitted_cls(
            model=sub.extract(k),
            virtual_delay_pmf=row_mass / row_mass.sum(),
            log_likelihoods=trails[row] + [float(stats.loglik[k])],
            converged=bool(converged[row]),
            n_iter=len(trails[row]),
        ))
    return fits


def _kernel_info(aux: _Aux) -> dict:
    """Kernel accounting keys of one aux for the ``em.backend`` event."""
    return {
        "kernel": aux.kernel,
        "block_size": RAGGED_BLOCK_SIZE if aux.kernel == "blocked" else 0,
    }


def _run_shard(kind, seq, n_hidden, config, restarts,
               index: Optional[SymbolIndex] = None):
    """Drive one batch of restarts to completion.

    Returns ``(fits, info)`` with ``fits`` in restart order and ``info``
    carrying the occupancy and kernel accounting for the ``em.backend``
    event.
    """
    stack = SymbolStack([seq]) if index is None else _stack_of(index)
    aux = _Aux(kind, stack, n_hidden)
    models = [
        _initial_model(kind, seq, n_hidden, config, r) for r in restarts
    ]
    batch = _BATCH_TYPES[kind].from_models(
        models, np.zeros(len(restarts), dtype=np.intp))
    driver = _BatchedEM(
        batch, aux, config, [config.freeze_loss_iters] * len(restarts)
    )
    with _zero_likelihood_raises():
        driver.run()
        fits = _finalize(kind, batch, aux, driver.trails, driver.converged)
    for restart, fitted in zip(restarts, fits):
        record_restart(kind, restart, fitted)
    info = {
        "rows": len(restarts),
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
    }
    info.update(_kernel_info(aux))
    return fits, info


def _shard_worker(task):
    """Batch one restart shard (parallel-map worker)."""
    kind, seq, n_hidden, config, restarts = task
    return _run_shard(kind, seq, n_hidden, config, restarts)


def batched_restart_fits(kind, seq: ObservationSequence, n_hidden: int,
                         config: EMConfig,
                         index: Optional[SymbolIndex] = None):
    """All restarts of one fit through the engine.

    With ``config.n_jobs > 1`` the restarts split into contiguous shards
    and each pool worker batches its own shard — pool parallelism and
    batching compose.  Returns the fitted models in restart order; the
    caller performs the best-of reduction.  ``index`` lends its
    memoised one-row stack.
    """
    n_restarts = config.n_restarts
    n_shards = min(resolve_n_jobs(config.n_jobs), n_restarts)
    restarts = list(range(n_restarts))
    if n_shards <= 1:
        fits, info = _run_shard(kind, seq, n_hidden, config, restarts,
                                index=index)
        infos = [info]
    else:
        shards = shard_items(restarts, n_shards)
        tasks = [(kind, seq, n_hidden, config, shard) for shard in shards]
        mapped = parallel_map(_shard_worker, tasks, n_jobs=n_shards,
                              chunksize=1)
        fits = [f for shard_fits, _ in mapped for f in shard_fits]
        infos = [info for _, info in mapped]
    record_backend(kind, n_shards=len(infos), infos=infos)
    return fits


def _best_restart(fits) -> int:
    """The restart with the best final log-likelihood (first on ties)."""
    best = 0
    for restart, fitted in enumerate(fits[1:], start=1):
        if fitted.log_likelihood > fits[best].log_likelihood:
            best = restart
    return best


def fit_restarts(kind, seq: ObservationSequence, n_hidden: int,
                 config: EMConfig, index: Optional[SymbolIndex] = None):
    """A multi-restart fit reduced to its best restart (the body of
    :func:`~repro.models.hmm.fit_hmm` and
    :func:`~repro.models.mmhd.fit_mmhd`)."""
    with span("em.fit", model=kind, n_hidden=n_hidden,
              n_restarts=config.n_restarts):
        fits = batched_restart_fits(kind, seq, n_hidden, config, index=index)
        best = _best_restart(fits)
        record_fit(kind, fits, best)
        return fits[best]


def record_backend(kind: str, n_shards: int, infos: Sequence[dict],
                   fits: int = 1) -> None:
    """Per-stack engine telemetry: counter + ``em.backend`` event.

    A restart fit reports its restart batch (``fits=1``); a hedged fit
    reports each phase stack it runs, ``fits`` being the windows that
    stack fitted.  ``occupancy`` is the fraction of batch-row slots
    that did useful work; ``masked_savings`` is the complement — E-step
    work skipped because converged rows were masked out of their
    batch.  ``kernel`` / ``block_size`` say what ran.
    """
    if not obs.is_enabled():
        return
    rows = sum(i["rows"] for i in infos)
    batch_iterations = sum(i["batch_iterations"] for i in infos)
    active = sum(i["active_row_iterations"] for i in infos)
    slots = sum(i["rows"] * i["batch_iterations"] for i in infos)
    occupancy = active / slots if slots else 1.0
    kernel = infos[0]["kernel"]
    obs.inc("repro_em_backend_fits_total", float(fits), model=kind,
            kernel=kernel)
    obs.observe("repro_em_batch_occupancy_ratio", occupancy, model=kind)
    obs.inc("repro_em_masked_iterations_total", float(slots - active),
            model=kind)
    obs.emit(
        "em.backend",
        model=kind,
        n_restarts=rows,
        n_shards=int(n_shards),
        batch_iterations=batch_iterations,
        occupancy=round(occupancy, 6),
        masked_savings=round(1.0 - occupancy, 6),
        kernel=kernel,
        block_size=infos[0]["block_size"],
    )


# ----------------------------------------------------------------------
# Hedged streaming fits
# ----------------------------------------------------------------------
def _shared_config_key(config: EMConfig):
    """Fields every window of one mega-batch must agree on (seed and
    n_jobs may differ per window; everything that shapes the shared
    driver may not)."""
    return (
        config.tol, config.max_iter, config.min_prob, config.n_restarts,
        config.freeze_loss_iters, config.data_driven_init,
        config.loss_prior_losses, config.loss_prior_observations,
    )


def _warm_phase(kind, seqs, n_hidden, config, warm_models, trail_problem):
    """Phase one of :func:`run_hedged_fits`: one warm row per window.

    Returns ``(results, reasons, info)``: ``results[w]`` is window
    ``w``'s accepted ``(fitted, True, None)``, or ``None`` with
    ``reasons[w]`` saying why the window falls back; ``info`` is the
    stack's accounting.
    """
    n_windows = len(seqs)
    stack = SymbolStack(list(seqs))
    aux = _Aux(kind, stack, n_hidden)
    batch = _BATCH_TYPES[kind].from_models(list(warm_models),
                                           np.arange(n_windows))
    driver = _BatchedEM(batch, aux, config, [0] * n_windows,
                        soft_rows=set(range(n_windows)))

    reasons: List[Optional[str]] = [None] * n_windows
    results: List = [None] * n_windows
    unresolved = set(range(n_windows))

    def finalize_warm_rows(windows):
        """Batched trailing E-pass over these windows' warm rows.

        Returns ``{window: fitted}``; a window whose warm pass hits zero
        likelihood gets ``reasons[w]`` set instead (the solo
        ``finalize_warm`` failure path) and the pass retries without it.
        """
        out = {}
        pending = list(windows)
        while pending:
            try:
                fits = _finalize(kind, batch, aux, driver.trails,
                                 driver.converged, rows=pending)
            except _BatchZeroLikelihood as exc:
                failed_local = {int(i) for i in exc.rows}
                survivors = []
                for i, w in enumerate(pending):
                    if i in failed_local:
                        reasons[w] = "zero-likelihood"
                    else:
                        survivors.append(w)
                pending = survivors
                continue
            out.update(zip(pending, fits))
            break
        return out

    def accept_or_fallback(windows):
        """Finalize warm rows; accept healthy ones, flag the rest."""
        for w, fitted in finalize_warm_rows(windows).items():
            problem = trail_problem(fitted.log_likelihoods)
            if problem is not None:
                reasons[w] = problem
            else:
                results[w] = (fitted, True, None)
                unresolved.discard(w)

    while True:
        progressed = driver.step()
        to_finalize = []
        for w in sorted(unresolved):
            if reasons[w] is not None:
                continue
            if w in driver.failed:
                reasons[w] = "zero-likelihood"
            elif driver.trails[w]:
                # Every earlier step already passed, and a trail grows by
                # one entry per step: its last step decides (the full
                # trail is checked again when the window finalizes).
                problem = trail_problem(driver.trails[w][-2:])
                if problem is not None:
                    reasons[w] = problem
                    driver.retire(w)
                elif driver.converged[w]:
                    to_finalize.append(w)
        if to_finalize:
            accept_or_fallback(to_finalize)
        if not progressed:
            break

    # max_iter exhausted with the warm trajectory intact: the policy
    # still prefers the healthy warm fit.
    leftovers = [w for w in sorted(unresolved) if reasons[w] is None]
    if leftovers:
        accept_or_fallback(leftovers)
    info = {
        "rows": batch.n_rows,
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
        "lengths_sum": int(stack.lengths.sum()),
        "slots": stack.n_rows * stack.t_max,
        "iter_slots": batch.n_rows * driver.batch_iterations,
    }
    info.update(_kernel_info(aux))
    return results, reasons, info


def _cold_phase(kind, seqs, n_hidden, configs, config):
    """Phase two of :func:`run_hedged_fits`: ``n_restarts`` cold rows per
    window, run to convergence, each window's best restart kept.

    The stack holds one copy of each window and the restart rows share
    it (``stack_rows`` repeats each window ``n_restarts`` times), so its
    symbol tables are built once per window.  The accounting still
    counts every restart row's slots, as a stack of per-row copies
    would.  Returns ``(fits, info)`` with ``fits[w]`` window ``w``'s
    best restart.
    """
    n_restarts = config.n_restarts
    stack = SymbolStack(list(seqs))
    aux = _Aux(kind, stack, n_hidden)
    models = [_initial_model(kind, seq, n_hidden, cfg, r)
              for seq, cfg in zip(seqs, configs) for r in range(n_restarts)]
    batch = _BATCH_TYPES[kind].from_models(
        models, np.repeat(np.arange(len(seqs)), n_restarts))
    driver = _BatchedEM(batch, aux, config,
                        [config.freeze_loss_iters] * len(models))
    driver.run()
    with _zero_likelihood_raises():
        restart_fits = _finalize(kind, batch, aux, driver.trails,
                                 driver.converged)
    fits = []
    for w in range(len(seqs)):
        wfits = restart_fits[w * n_restarts: (w + 1) * n_restarts]
        for restart, fitted in enumerate(wfits):
            record_restart(kind, restart, fitted)
        best = _best_restart(wfits)
        record_fit(kind, wfits, best)
        fits.append(wfits[best])
    info = {
        "rows": batch.n_rows,
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
        "lengths_sum": n_restarts * int(stack.lengths.sum()),
        "slots": n_restarts * stack.n_rows * stack.t_max,
        "iter_slots": batch.n_rows * driver.batch_iterations,
    }
    info.update(_kernel_info(aux))
    return fits, info


def run_hedged_fits(kind, seqs: Sequence[ObservationSequence],
                    n_hidden: int, configs: Sequence[EMConfig],
                    warm_models: Sequence,
                    trail_problem: Callable[[List[float]], Optional[str]]):
    """Hedged warm-vs-cold fits for many windows in at most two stacks.

    Phase one stacks the warm row of every window with a warm model
    (no loss-channel freeze, soft zero-likelihood handling) and
    drives them together; a window whose warm row survives to
    convergence finalizes and is done.  Phase two stacks ``n_restarts``
    cold rows for every other window, seeded from ``configs[w].seed``
    and run to convergence for the best-of fit.  It takes two kinds of
    window:

    * a window whose warm trajectory fails (zero likelihood, trail
      collapse, or a failing trailing E-pass).  Cold hedging is *lazy*:
      cold EM trajectories are deterministic and independent of the warm
      rows, so deferring them returns exactly the fits eager hedging
      would, while the common all-warm round pays for one row per window
      instead of ``1 + n_restarts``;
    * a window whose warm model is ``None`` (a path's first window, or
      a warm state the caller found shape-mismatched).  It skips phase
      one, and its result is ``(fitted, False, None)``: the cold fit
      :func:`~repro.streaming.online_em.streaming_fit` returns.  A round
      without warm models builds no phase-one stack.

    By row independence, every window's result is bit-identical to
    running :func:`run_hedged_fit` on that window alone — the parity
    contract behind the scheduler's fused drain mode.

    ``trail_problem(logliks)`` names why a log-likelihood trail
    collapsed, or returns ``None``.  It must decide a trail from its
    finiteness and its step-to-step changes alone: while the warm rows
    iterate it sees only a trail's last two entries (the earlier steps
    passed on earlier iterations), and each warm fit's whole trail
    again when it finalizes.

    ``configs`` may differ only in ``seed`` / ``n_jobs``.  Returns
    ``(results, info)``: ``results[w]`` is the solo-compatible
    ``(fitted, warm_used, fallback_reason)`` triple, ``info`` the
    occupancy/padding accounting of both stacks, with ``t_max`` the
    longest window.  Each stack also goes to :func:`record_backend`,
    counting the windows it fitted, so a round's
    ``repro_em_backend_fits_total`` is the same whether it is drained
    fused or one window at a time.

    Raises :class:`FloatingPointError` when any cold row hits zero
    likelihood (matching the solo engine; the affected drain aborts the
    same way in either drain mode).
    """
    n_windows = len(seqs)
    if not n_windows:
        return [], {"windows": 0, "rows": 0, "batch_iterations": 0,
                    "active_row_iterations": 0, "pad_fraction": 0.0,
                    "t_max": 0}
    config = configs[0]
    shared = _shared_config_key(config)
    for cfg in configs[1:]:
        if _shared_config_key(cfg) != shared:
            raise ValueError(
                "run_hedged_fits windows must share every EMConfig field "
                "except seed/n_jobs"
            )
    results: List = [None] * n_windows
    reasons: List[Optional[str]] = [None] * n_windows
    parts = []
    warm = [w for w in range(n_windows) if warm_models[w] is not None]
    if warm:
        warm_results, warm_reasons, part = _warm_phase(
            kind, [seqs[w] for w in warm], n_hidden, config,
            [warm_models[w] for w in warm], trail_problem)
        record_backend(kind, n_shards=1, infos=[part], fits=len(warm))
        parts.append(part)
        for w, result, reason in zip(warm, warm_results, warm_reasons):
            results[w], reasons[w] = result, reason
    cold = [w for w in range(n_windows) if results[w] is None]
    if cold:
        fits, part = _cold_phase(kind, [seqs[w] for w in cold], n_hidden,
                                 [configs[w] for w in cold], config)
        record_backend(kind, n_shards=1, infos=[part], fits=len(cold))
        parts.append(part)
        for w, fitted in zip(cold, fits):
            results[w] = (fitted, False, reasons[w])

    info = {"windows": n_windows, "t_max": max(len(seq) for seq in seqs)}
    for key in ("rows", "batch_iterations", "active_row_iterations"):
        info[key] = sum(part[key] for part in parts)
    info["kernel"] = parts[0]["kernel"]
    info["block_size"] = parts[0]["block_size"]
    slots = sum(part["slots"] for part in parts)
    lengths_sum = sum(part["lengths_sum"] for part in parts)
    iter_slots = sum(part["iter_slots"] for part in parts)
    info["occupancy"] = (
        info["active_row_iterations"] / iter_slots if iter_slots else 1.0
    )
    info["pad_fraction"] = float(1.0 - lengths_sum / slots) if slots else 0.0
    return results, info


def run_hedged_fit(kind, seq: ObservationSequence, n_hidden: int,
                   config: EMConfig, warm_model,
                   trail_problem: Callable[[List[float]], Optional[str]]):
    """Warm-started fit with a lazy cold-restart hedge.

    One batched EM drives the warm row (no loss-channel freeze).  If the
    warm trajectory survives — no zero likelihood, no trail collapse per
    ``trail_problem`` — the fit returns as soon as that row converges,
    having paid for nothing else.  If it collapses, ``config.n_restarts``
    cold rows run to convergence in one batch for the best-of fallback.

    Implemented as the one-window case of :func:`run_hedged_fits`, so a
    per-window (pool) drain and a fused drain run the exact same kernel
    — that shared kernel is what makes their verdict streams
    byte-identical.  Returns ``(fitted, warm_used, fallback_reason)``.
    """
    results, _ = run_hedged_fits(
        kind, [seq], n_hidden, [config], [warm_model], trail_problem,
    )
    return results[0]
