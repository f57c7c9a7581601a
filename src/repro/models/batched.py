"""Batched restart-stacked E-step engine for the HMM/MMHD fitters.

A multi-restart EM fit runs ``R`` independent forward-backward
recursions over the same observation sequence.  The sequential engine
(:func:`repro.models.hmm._fit_hmm_restart` and its MMHD twin) pays the
interpreted Python time loop once per restart: ``R x T`` tiny
``(N,) @ (N, N)`` matvecs dominated by call overhead, not FLOPs.  This
module stacks all restarts of one fit into parameter tensors
(``pi: (R, N)``, ``transition: (R, N, N)``, ``emission: (R, N, M)``)
and runs ONE forward-backward over the stack, so the time loop executes
``T`` batched ``(R, 1, N) @ (R, N, N)`` matmul steps instead — the
classic Baum-Welch batching opportunity.

Parity with the sequential engine
---------------------------------
``np.matmul`` computes every batch row independently of the others, so
each restart's trajectory through the batched recursions depends only on
its own parameters — never on which other restarts share the stack.
That is what keeps the repo's determinism contract intact: a fit sharded
over ``n_jobs`` pool workers (each worker batching its restart shard)
produces bit-identical per-restart results for every worker count, and
restarts that converge are *masked out* of the active batch (frozen, not
recomputed) without perturbing the survivors.  Relative to the
sequential engine the final log-likelihoods agree to floating-point
round-off (different BLAS reduction orders), and the winning restart is
identical — both are asserted by the benchmark and the property tests.

Ragged multi-sequence batches
-----------------------------
The restart stack shares one observation sequence across all rows.  The
*ragged* engine (:func:`_ragged_forward_backward` plus the
``_Ragged*Batch`` classes) drops that restriction: rows carry their own
sequences of unequal length ``T_r``, right-padded to ``t_max`` through a
:class:`repro.models.base.SymbolStack`.  Padded steps are carried, not
computed — the forward pass repeats the row's last valid ``alpha`` and
forces the padded scale to 1 (``log(1) = 0``), the backward pass carries
``beta`` left until the row's last valid step sees exactly the solo
boundary value 1 — and every gamma/xi/log-likelihood accumulation is
sliced per length group, so contraction lengths (and therefore BLAS
reduction orders) match a solo fit of each row exactly.  Per-row results
are *bit-identical* to fitting that row alone, for any batch
composition.  That is what lets the streaming layer fuse the warm
E-steps of many monitor windows — different paths, different window
lengths — into one mega-batch (:func:`run_hedged_fits`) with one
recursion per drain round instead of one pool task per window, without
perturbing a single verdict.

The per-time-step recursions here are the ``loop`` kernel; the
``blocked`` kernel is :mod:`repro.models.scan`, and every MMHD stack runs
the loss-folded pass of :mod:`repro.models.folded`.

Backend-selection heuristic
---------------------------
``EMConfig.backend="auto"`` resolves per fit via :func:`resolve_backend`:

* **blocked** when the recursion state width (``N`` for both models:
  the MMHD's folded chain is ``N`` wide) is at most
  :data:`BLOCKED_STATE_LIMIT`.  The blocked scan pays ``N^3``
  operator-composition FLOPs to save dispatches.
* **batched** when the width is at most :data:`BATCHED_STATE_LIMIT`.
  Small widths mean each sequential step is interpreter-bound, so
  stacking restarts multiplies useful work per Python step at no extra
  cost.  (The MMHD's folded chain is scanned blocked either way.)
* **sequential** beyond the limit: wide-state matvecs are already
  BLAS-bound, and an ``R``-fold batch only grows the working set past
  cache for no interpreter savings.

The engines compose with the process pool: ``n_jobs > 1`` splits the
restarts into contiguous shards (:func:`repro.parallel.shard_items`) and
each worker batches its own shard, so pool parallelism and in-process
batching multiply rather than compete.
"""

from __future__ import annotations

import math
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
    _BatchZeroLikelihood,
    _check_scales,
    _length_groups,
    _row_loglik,
    _scan_backward,
    _scan_forward,
    _Workspace,
)
from repro.models.hmm import FittedHMM, HiddenMarkovModel
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
from repro.parallel import parallel_map, resolve_n_jobs, restart_rng, shard_items

__all__ = [
    "BATCH_BACKENDS",
    "BATCHED_STATE_LIMIT",
    "BLOCKED_STATE_LIMIT",
    "mmhd_estep",
    "mmhd_forward",
    "resolve_backend",
    "resolve_block_size",
    "batched_restart_fits",
    "run_hedged_fit",
    "run_hedged_fits",
]

#: Largest recursion state width (N for HMM, N*M for MMHD) the "auto"
#: backend still batches.  Below it the sequential per-step matvec is
#: interpreter-bound and batching is close to free; above it the matvec
#: is BLAS-bound and a restart stack mostly grows the working set.
BATCHED_STATE_LIMIT = 64

#: Largest state width the "auto" backend routes through the blocked
#: scan kernel.  The scan composes ``(N, N)`` operators, an ``N``-fold
#: FLOP inflation over the loop kernel's matvecs, so it pays while the
#: loop is dispatch-bound — and where that stops depends on the stack's
#: row count as much as on its width.  On a 2-vCPU host (one BLAS
#: thread, T = 3000) it ran 12x / 6.6x / 3.3x / 1.5x faster than the loop
#: at width 2 for 1 / 4 / 16 / 64 rows, and 1.4x / 0.45x / 0.2x / 0.1x
#: at width 10.  Fleet drains stack many rows, so the cutoff stays at 4.
#: (The MMHD's folded chain is ``N`` wide: usual MMHD fits are width 2.)
BLOCKED_STATE_LIMIT = 4

#: Backends served by the batched restart-stack engine (as opposed to
#: the per-restart sequential loop).  Streaming layers use membership
#: here to decide whether the hedged/fused drain machinery applies.
BATCH_BACKENDS = frozenset({"batched", "blocked"})

#: Fixed block size of the *ragged* blocked kernel.  Auto-tuning from
#: the stack's ``t_max`` would make a row's operator-composition order
#: depend on which other windows share its mega-batch, breaking the
#: fused-equals-solo bit-identity contract; a pinned default keeps every
#: batch composition on the same arithmetic.
RAGGED_BLOCK_SIZE = 64

def resolve_backend(config: EMConfig, n_hidden: int) -> str:
    """Concrete E-step engine for one fit.

    An explicit ``config.backend`` wins; ``"auto"`` applies the
    state-width heuristic documented in the module docstring.  The width
    is ``N`` for both models (the MMHD's folded recursion runs on the
    ``N`` states of each observed symbol, whatever the alphabet size), so
    the model kind and alphabet do not enter.
    """
    if config.backend != "auto":
        return config.backend
    if n_hidden <= BLOCKED_STATE_LIMIT:
        return "blocked"
    return "batched" if n_hidden <= BATCHED_STATE_LIMIT else "sequential"


def resolve_block_size(n_steps: Optional[int] = None,
                       width: int = 2) -> int:
    """Auto-tuned time-block length B for the blocked scan kernel.

    One E-pass costs about ``B`` Python-level scan steps plus ``3 T / B``
    boundary-chain steps, minimised near ``B = sqrt(3 T)``; the nearest
    power of two in ``[32, 256]`` captures that optimum to within a few
    percent on the measured workloads.  Wide states cap at 128 so the
    ``(B, K, N, N)`` scan working set stays cache-resident.  Without a
    sequence length (the ragged mega-batch case) the fixed
    :data:`RAGGED_BLOCK_SIZE` applies — see its docstring.
    """
    if n_steps is None:
        return RAGGED_BLOCK_SIZE
    target = math.sqrt(3.0 * max(int(n_steps), 1))
    block = 32
    while block < 256 and (block * 2) / target < target / block:
        block *= 2
    if width > BLOCKED_STATE_LIMIT:
        block = min(block, 128)
    return block


# ----------------------------------------------------------------------
# Shared recursions
# ----------------------------------------------------------------------
def _blocked_forward_backward(pi, transition, likes, block_size=None,
                              lengths=None, workspace=None):
    """Blocked-scan forward-backward of the HMM step operators
    ``transition * diag(likes[t])``.

    Same contract as :func:`_ragged_forward_backward` (returns
    ``(alpha, beta, scales)``; ``lengths=None`` is a uniform stack), with
    the per-step loop replaced by :func:`_scan_forward` /
    :func:`_scan_backward`.
    """
    n_steps, n_rows, n = likes.shape
    ws = workspace if workspace is not None else _Workspace()
    block = int(block_size) if block_size else resolve_block_size(
        n_steps if lengths is None else None, n
    )

    def ops_at(o0, o1, out, scales=None):
        step = likes[1 + o0: 1 + o1]
        if scales is not None:
            step = np.divide(step, scales[1 + o0: 1 + o1, :, None],
                             out=ws.get("scaled", step.shape, likes.dtype))
        np.multiply(transition, step[:, :, None, :], out=out)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        alpha, scales = _scan_forward(pi * likes[0], ops_at, n_steps, block,
                                      lengths, ws)
        _check_scales(scales)
        beta = _scan_backward(ops_at, scales, n, block, lengths, ws)
    return alpha, beta, scales


class _KernelState:
    """Kernel, precision, and workspace state shared by both aux kinds.

    One aux owns one fit's forward-backward configuration: which kernel
    runs the recursions (``loop`` / ``blocked``), at what dtype and block
    size, and against which per-fit :class:`_Workspace`.  The MMHD's
    folded chain is always scanned blocked, at the pinned
    :data:`RAGGED_BLOCK_SIZE`, so its arithmetic depends on ``N`` alone;
    ``fast_path=False`` runs the dense ``N*M``-wide loop as the reference.
    """

    def _init_kernel(self, kind: str, config: EMConfig, backend: str,
                     n_hidden: int, n_symbols: int,
                     n_steps: Optional[int] = None) -> None:
        self.kind = kind
        self.backend = backend
        self.n_hidden = int(n_hidden)
        self.n_symbols = int(n_symbols)
        self.fast = bool(config.fast_path)
        self.kernel = "blocked" if backend == "blocked" else "loop"
        self.dtype = np.dtype(
            np.float32 if config.dtype == "float32" else np.float64
        )
        if kind == "mmhd":
            self.n_states = self.n_hidden * self.n_symbols
            self.state_symbol = np.tile(np.arange(self.n_symbols),
                                        self.n_hidden)
            n_steps = None
            self.kernel = "blocked" if self.fast else "loop"
        self.block_size = (
            int(config.block_size) if config.block_size
            else resolve_block_size(n_steps, self.n_hidden)
        )
        self.workspace = _Workspace()
        self.dtype_fallbacks = 0

    def demote(self) -> bool:
        """Fall back to float64 after a narrow-precision collapse.

        A zero scale under float32 usually means genuine underflow of
        the narrow exponent range, not a degenerate model; the driver
        retries the failed E-pass once at float64 before concluding the
        likelihood really is zero.  Returns ``True`` exactly when a
        demotion happened; the count lands in the
        ``repro_em_dtype_fallback_total`` counter and the ``em.backend``
        event so the fallback is operator-visible.
        """
        if self.dtype == np.float64:
            return False
        self.dtype = np.dtype(np.float64)
        self.dtype_fallbacks += 1
        if obs.is_enabled():
            obs.inc("repro_em_dtype_fallback_total", 1.0, model=self.kind)
        return True

    def _cast_inputs(self, pi, transition, likes):
        """Narrow the recursion inputs to the working dtype (no-op at
        float64, preserving bit-parity with the pre-dtype engine)."""
        if likes.dtype == self.dtype:
            return pi, transition, likes
        ws = self.workspace
        cast = []
        for name, arr in (("pi_cast", pi), ("transition_cast", transition),
                          ("likes_cast", likes)):
            buf = ws.get(name, arr.shape, self.dtype)
            buf[:] = arr
            cast.append(buf)
        return tuple(cast)

    def _widen(self, alpha, beta, scales):
        """Upcast kernel outputs to float64 views.

        Only the recursions run narrow: the statistics GEMMs and the
        M-step always accumulate at float64, so a float32 fit trades
        per-step precision for speed without also degrading the
        parameter updates.  Exact for float64 input (identity)."""
        if alpha.dtype == np.float64:
            return alpha, beta, scales
        ws = self.workspace
        wide = []
        for name, arr in (("alpha64", alpha), ("beta64", beta),
                          ("scales64", scales)):
            buf = ws.get(name, arr.shape, np.float64)
            buf[:] = arr
            wide.append(buf)
        return tuple(wide)

    def ragged_forward_backward(self, pi, transition, likes, lengths):
        """One ragged forward-backward through the batch's kernel.

        Returns float64 ``(alpha, beta, scales)``; the loop-kernel
        float64 path is byte-for-byte the direct
        :func:`_ragged_forward_backward` call.
        """
        pi, transition, likes = self._cast_inputs(pi, transition, likes)
        if self.kernel == "blocked":
            alpha, beta, scales = _blocked_forward_backward(
                pi, transition, likes, block_size=self.block_size,
                lengths=lengths, workspace=self.workspace,
            )
        else:
            alpha, beta, scales = _ragged_forward_backward(
                pi, transition, likes, lengths, workspace=self.workspace
            )
        return self._widen(alpha, beta, scales)


class _EStepAux(_KernelState):
    """Per-fit constants shared by every batched E-pass: everything
    derivable from the symbols alone (the :class:`SymbolIndex`, the HMM's
    observed-symbol one-hot matrix, the MMHD's one-row stack and its
    :class:`_FoldedIndex`), plus the fit's kernel state."""

    def __init__(self, kind: str, index: SymbolIndex, config: EMConfig,
                 n_hidden: int, backend: str = "batched"):
        self.index = index
        self._init_kernel(kind, config, backend, n_hidden, index.n_symbols,
                          n_steps=len(index))
        if kind == "mmhd":
            self.stack = SymbolStack([index.seq])
            self.folded = _FoldedIndex(self.stack) if self.fast else None
        else:
            onehot = np.zeros((len(index), index.n_symbols))
            onehot[index.observed_idx, index.observed_symbols] = 1.0
            self.onehot = onehot

    def forward_backward(self, pi, transition, likes):
        """The ragged forward-backward with every row full length, plus
        the per-row log-likelihoods (float64 whatever the dtype)."""
        n_steps, n_rows, _ = likes.shape
        alpha, beta, scales = self.ragged_forward_backward(
            pi, transition, likes, np.full(n_rows, n_steps))
        return alpha, beta, scales, _row_loglik(scales)


# ----------------------------------------------------------------------
# HMM restart stack
# ----------------------------------------------------------------------
class _HMMStats:
    """Per-row sufficient statistics of one batched HMM E-pass."""

    __slots__ = ("gamma0", "xi_sum", "joint_obs", "joint_loss", "loglik")

    def __init__(self, gamma0, xi_sum, joint_obs, joint_loss, loglik):
        self.gamma0 = gamma0
        self.xi_sum = xi_sum
        self.joint_obs = joint_obs
        self.joint_loss = joint_loss
        self.loglik = loglik


class _HMMBatch:
    """A stack of K HMM parameter sets, one batch row per restart."""

    kind = "hmm"
    __slots__ = ("pi", "transition", "emission", "loss_c")

    def __init__(self, pi, transition, emission, loss_c):
        self.pi = pi
        self.transition = transition
        self.emission = emission
        self.loss_c = loss_c

    @classmethod
    def from_models(cls, models: Sequence[HiddenMarkovModel]) -> "_HMMBatch":
        return cls(
            np.stack([m.pi for m in models]),
            np.stack([m.transition for m in models]),
            np.stack([m.emission for m in models]),
            np.stack([m.loss_given_symbol for m in models]),
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi)

    def param_arrays(self):
        return (self.pi, self.transition, self.emission, self.loss_c)

    def rows(self, idx) -> "_HMMBatch":
        return _HMMBatch(
            self.pi[idx], self.transition[idx],
            self.emission[idx], self.loss_c[idx],
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

    def estep(self, aux: _EStepAux) -> _HMMStats:
        index = aux.index
        n_rows, n_hidden = self.pi.shape
        survive = 1.0 - self.loss_c                       # (K, M)
        weighted = self.emission * survive[:, None, :]    # (K, N, M)
        likes = np.empty((len(index), n_rows, n_hidden))
        syms = index.observed_symbols
        likes[index.observed_idx] = weighted[:, :, syms].transpose(2, 0, 1)
        loss_like = np.matmul(self.emission, self.loss_c[:, :, None])[:, :, 0]
        likes[index.loss_idx] = loss_like[None, :, :]
        alpha, beta, scales, loglik = aux.forward_backward(
            self.pi, self.transition, likes
        )
        gamma = alpha * beta
        weighted_b = likes[1:] * beta[1:] / scales[1:, :, None]
        xi_sum = self.transition * np.matmul(
            alpha[:-1].transpose(1, 2, 0), weighted_b.transpose(1, 0, 2)
        )
        # Expected (state, symbol) counts over observed instants: the
        # sequential engine's scatter-add becomes one batched GEMM
        # against the shared one-hot symbol matrix.
        joint_obs = np.matmul(gamma.transpose(1, 2, 0), aux.onehot)
        gamma_loss_total = gamma[index.loss_idx].sum(axis=0)       # (K, N)
        joint_loss = (
            (gamma_loss_total / loss_like)[:, :, None]
            * self.emission
            * self.loss_c[:, None, :]
        )
        return _HMMStats(gamma[0], xi_sum, joint_obs, joint_loss, loglik)

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
        return _HMMBatch(pi, transition, emission, loss_c)

    @staticmethod
    def loss_symbol_mass(stats: _HMMStats):
        return stats.joint_loss.sum(axis=1)


def _model_aux(index: SymbolIndex, n_hidden: int) -> _EStepAux:
    """The float64 folded-pass aux of one model over ``index``."""
    return _EStepAux("mmhd", index, EMConfig(backend="blocked",
                                             dtype="float64"),
                     n_hidden, backend="blocked")


def mmhd_forward(model: MarkovModelHiddenDimension, seq: ObservationSequence):
    """Loss-folded forward pass of one MMHD over ``seq``.

    Returns the dense normalised ``alpha`` ``(T, N*M)`` and the per-step
    ``scales`` ``(T,)`` — the dense recursion's values to round-off, at
    a fraction of its cost (the diagnostics E-pass).  Raises
    :class:`FloatingPointError` on zero likelihood.
    """
    aux = _model_aux(SymbolIndex(seq), model.n_hidden)
    try:
        fp = _folded_forward_backward(_MMHDBatch.from_models([model]), aux,
                                      np.zeros(1, dtype=np.intp),
                                      backward=False)
    except _BatchZeroLikelihood as exc:
        raise FloatingPointError(f"zero likelihood at t={exc.t}") from None
    return fp.dense(fp.chain_alpha, fp.loss_alpha)[0], fp.scales[:, 0]


def mmhd_estep(model: MarkovModelHiddenDimension,
               index: SymbolIndex) -> _EStepStats:
    """One loss-folded E-pass of a single model (the sequential engine).

    The per-sequence folded state is memoised on ``index``.  Raises
    :class:`FloatingPointError` on zero likelihood.
    """
    key = ("mmhd", model.n_hidden)
    if key not in index.memo:
        index.memo[key] = _model_aux(index, model.n_hidden)
    try:
        stats = _MMHDBatch.from_models([model]).estep(index.memo[key])
    except _BatchZeroLikelihood as exc:
        raise FloatingPointError(f"zero likelihood at t={exc.t}") from None
    return _EStepStats(stats.gamma0[0], stats.xi_sum[0], stats.loss_mass[0],
                       stats.total_mass[0], float(stats.loglik[0]))


def _dense_mmhd_pass(batch, aux, rows, survive, c_state):
    """The reference pass: dense ``N*M``-wide likelihoods through the
    loop kernel.  Same statistics as :meth:`_FoldedPass.statistics`,
    plus the scales."""
    stack = aux.stack
    lengths = stack.lengths[rows]
    t_act = int(lengths.max())
    n_rows = batch.n_rows
    n_hidden, n_symbols = aux.n_hidden, aux.n_symbols
    likes = np.zeros((t_act, n_rows, aux.n_states))
    obs_k, obs_t = np.nonzero(stack.observed[rows, :t_act])
    syms = stack.symbols0[rows[obs_k], obs_t]
    vals = survive[obs_k, syms]
    for h in range(n_hidden):
        likes[obs_t, obs_k, h * n_symbols + syms] = vals
    lost = stack.lost[rows, :t_act]
    loss_k, loss_t = np.nonzero(lost)
    likes[loss_t, loss_k] = c_state[loss_k]
    alpha, beta, scales = aux.ragged_forward_backward(
        batch.pi, batch.transition, likes, lengths)
    gamma = alpha * beta
    occ = gamma.reshape(t_act, n_rows, n_hidden, n_symbols).sum(axis=2)
    loss_mass = np.add.reduce(occ * lost.T[:, :, None], axis=0)
    total_mass = np.add.reduce(
        occ * stack.valid[rows, :t_act].T[:, :, None], axis=0)
    weighted = likes[1:] * beta[1:] / scales[1:, :, None]
    xi = np.empty_like(batch.transition)
    for t_g, idx in _length_groups(lengths):
        xi[idx] = np.matmul(alpha[: t_g - 1, idx].transpose(1, 2, 0),
                            weighted[: t_g - 1, idx].transpose(1, 0, 2))
    return xi, scales, gamma[0], loss_mass, total_mass


def _mmhd_estep(batch, aux, rows) -> _EStepStats:
    """One MMHD E-pass over batch rows that own stack rows ``rows``.

    The forward-backward is the loss-folded pass, or with
    ``fast_path=False`` the dense loop kernel over ``N*M``-wide
    likelihoods.  Every reduction covers exactly each row's own steps
    (the log-likelihood per length group), which keeps a row's results
    independent of its batch.
    """
    survive = 1.0 - batch.loss_c
    c_state = batch.loss_c[:, aux.state_symbol]
    if aux.fast:
        fp = _folded_forward_backward(batch, aux, rows)
        scales = fp.scales
        xi, gamma0, loss_mass, total_mass = fp.statistics(
            survive, c_state, aux.n_hidden)
    else:
        xi, scales, gamma0, loss_mass, total_mass = _dense_mmhd_pass(
            batch, aux, rows, survive, c_state)
    loglik = np.empty(batch.n_rows)
    for t_g, idx in _length_groups(aux.stack.lengths[rows]):
        loglik[idx] = _row_loglik(scales[:t_g, idx])
    return _EStepStats(gamma0, batch.transition * xi, loss_mass, total_mass,
                      loglik)


# ----------------------------------------------------------------------
# MMHD restart stack
# ----------------------------------------------------------------------
class _MMHDBatch:
    """A stack of K MMHD parameter sets, one batch row per restart."""

    kind = "mmhd"
    __slots__ = ("pi", "transition", "loss_c", "n_symbols")

    def __init__(self, pi, transition, loss_c, n_symbols):
        self.pi = pi
        self.transition = transition
        self.loss_c = loss_c
        self.n_symbols = int(n_symbols)

    @classmethod
    def from_models(
        cls, models: Sequence[MarkovModelHiddenDimension]
    ) -> "_MMHDBatch":
        return cls(
            np.stack([m.pi for m in models]),
            np.stack([m.transition for m in models]),
            np.stack([m.loss_given_symbol for m in models]),
            models[0].n_symbols,
        )

    @property
    def n_rows(self) -> int:
        return len(self.pi)

    def param_arrays(self):
        return (self.pi, self.transition, self.loss_c)

    def rows(self, idx) -> "_MMHDBatch":
        return _MMHDBatch(
            self.pi[idx], self.transition[idx], self.loss_c[idx],
            self.n_symbols,
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

    def _structured_blocks(self, aux: _EStepAux):
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

    def estep(self, aux: _EStepAux) -> _EStepStats:
        return _mmhd_estep(self, aux, np.zeros(self.n_rows, dtype=np.intp))

    def maximize(self, stats: _EStepStats, min_prob, prior) -> "_MMHDBatch":
        pi = floor_and_normalize(stats.gamma0, min_prob)
        transition = floor_and_normalize(stats.xi_sum, min_prob)
        prior_losses, prior_observations = prior
        loss_c = (stats.loss_mass + prior_losses) / np.maximum(
            stats.total_mass + prior_losses + prior_observations, 1e-300
        )
        loss_c = np.clip(loss_c, min_prob, 1.0 - min_prob)
        return _MMHDBatch(pi, transition, loss_c, self.n_symbols)

    @staticmethod
    def loss_symbol_mass(stats: _EStepStats):
        return stats.loss_mass


_BATCH_TYPES = {"hmm": _HMMBatch, "mmhd": _MMHDBatch}
_FITTED_TYPES = {"hmm": FittedHMM, "mmhd": FittedMMHD}


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
    """One restart's initial model, on the same RNG stream the
    sequential engine uses (so both backends start identically)."""
    rng = restart_rng(config.seed, restart)
    if kind == "hmm":
        pi, transition, emission, c = hmm_initial_parameters(seq, n_hidden, rng)
        return HiddenMarkovModel(pi, transition, emission, c)
    pi, transition, c = mmhd_initial_parameters(
        seq, n_hidden, rng, data_driven=config.data_driven_init
    )
    return MarkovModelHiddenDimension(pi, transition, c, seq.n_symbols)


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_estep(batch, aux):
    """One E-pass with the automatic float32 -> float64 retry.

    At float64 this is exactly ``batch.estep(aux)``.  At float32 a
    :class:`_BatchZeroLikelihood` triggers one demotion (see
    :meth:`_KernelState.demote`) and a retry of the same pass at full
    precision; only a collapse that survives float64 — a genuine zero
    likelihood — propagates to the driver's retirement logic.
    """
    try:
        return batch.estep(aux)
    except _BatchZeroLikelihood:
        if not aux.demote():
            raise
        return batch.estep(aux)


class _BatchedEM:
    """EM over a restart stack with convergence masking.

    Each :meth:`step` runs one batched E+M iteration over the *active*
    rows only: rows whose parameters have converged are frozen in the
    stack and never recomputed (row independence of the batched ops
    means removing them cannot perturb the survivors).  Per-row freeze
    periods reproduce the sequential warm start, and ``soft_rows`` (the
    hedged warm row) survive a zero-likelihood forward pass as a
    retirement instead of a :class:`FloatingPointError`.
    """

    def __init__(self, batch, aux: _EStepAux, config: EMConfig,
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
                stats = run_estep(sub, self.aux)
            except _BatchZeroLikelihood as exc:
                self._retire_failed(exc)
                continue
            break
        new_sub = sub.maximize(stats, self.config.min_prob, self.prior)
        for k, row in enumerate(self.active):
            self.trails[row].append(float(stats.loglik[k]))
        # Warm start: rows still inside their freeze period keep the
        # initial loss channel and skip the convergence check, exactly
        # like the sequential loop's freeze branch.
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

    Like the sequential engines, the final pass yields both the trailing
    log-likelihood and the eq. (5) posterior in a single sweep.
    """
    idx = np.arange(batch.n_rows) if rows is None else np.asarray(rows)
    sub = batch.rows(idx)
    stats = run_estep(sub, aux)
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


def _run_shard(kind, seq, n_hidden, config, restarts,
               index: Optional[SymbolIndex] = None,
               backend: str = "batched"):
    """Drive one batch of restarts to completion.

    Returns ``(fits, info)`` with ``fits`` in restart order and ``info``
    carrying the occupancy and kernel accounting for the ``em.backend``
    event.
    """
    if index is None:
        index = SymbolIndex(seq)
    aux = _EStepAux(kind, index, config, n_hidden, backend=backend)
    models = [
        _initial_model(kind, seq, n_hidden, config, r) for r in restarts
    ]
    batch = _BATCH_TYPES[kind].from_models(models)
    driver = _BatchedEM(
        batch, aux, config, [config.freeze_loss_iters] * len(restarts)
    )
    try:
        driver.run()
        fits = _finalize(kind, batch, aux, driver.trails, driver.converged)
    except _BatchZeroLikelihood as exc:
        raise FloatingPointError(f"zero likelihood at t={exc.t}") from None
    for restart, fitted in zip(restarts, fits):
        record_restart(kind, restart, fitted)
    info = {
        "rows": len(restarts),
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
    }
    info.update(_kernel_info(aux))
    return fits, info


def _kernel_info(aux) -> dict:
    """Kernel accounting keys of one aux for the ``em.backend`` event."""
    return {
        "kernel": aux.kernel,
        "block_size": aux.block_size if aux.kernel == "blocked" else 0,
        "dtype": str(aux.dtype),
        "dtype_fallbacks": aux.dtype_fallbacks,
    }


def _shard_worker(task):
    """Batch one restart shard (parallel-map worker)."""
    kind, seq, n_hidden, config, restarts, backend = task
    return _run_shard(kind, seq, n_hidden, config, restarts, backend=backend)


def batched_restart_fits(kind, seq: ObservationSequence, n_hidden: int,
                         config: EMConfig,
                         index: Optional[SymbolIndex] = None,
                         backend: str = "batched"):
    """All restarts of one fit through the batched engine.

    With ``config.n_jobs > 1`` the restarts split into contiguous shards
    and each pool worker batches its own shard — pool parallelism and
    batching compose.  Returns the fitted models in restart order; the
    caller performs the best-of reduction.
    """
    n_restarts = config.n_restarts
    n_shards = min(resolve_n_jobs(config.n_jobs), n_restarts)
    restarts = list(range(n_restarts))
    if n_shards <= 1:
        fits, info = _run_shard(kind, seq, n_hidden, config, restarts,
                                index=index, backend=backend)
        infos = [info]
    else:
        shards = shard_items(restarts, n_shards)
        tasks = [(kind, seq, n_hidden, config, shard, backend)
                 for shard in shards]
        mapped = parallel_map(_shard_worker, tasks, n_jobs=n_shards,
                              chunksize=1)
        fits = [f for shard_fits, _ in mapped for f in shard_fits]
        infos = [info for _, info in mapped]
    record_backend(kind, backend, n_shards=len(infos), infos=infos)
    return fits


def record_backend(kind: str, backend: str, n_shards: int,
                   infos: Sequence[dict]) -> None:
    """Per-backend telemetry for one fit: counter + ``em.backend`` event.

    ``occupancy`` is the fraction of batch-row slots that did useful
    work; ``masked_savings`` is the complement — E-step work skipped
    because converged restarts were masked out of their batch.  The
    sequential engine reports occupancy 1.0 by construction.

    Kernel accounting rides in optional info keys (absent for the
    sequential engine, whose per-restart loop is the ``loop`` kernel at
    float64 by definition): ``kernel`` / ``block_size`` / ``dtype`` are
    what actually ran — so a float32 fit that demoted reports
    ``dtype=float64`` with ``dtype_fallbacks > 0``.
    """
    if not obs.is_enabled():
        return
    rows = sum(i["rows"] for i in infos)
    batch_iterations = sum(i["batch_iterations"] for i in infos)
    active = sum(i["active_row_iterations"] for i in infos)
    slots = sum(i["rows"] * i["batch_iterations"] for i in infos)
    occupancy = active / slots if slots else 1.0
    kernels = {i.get("kernel", "loop") for i in infos}
    dtypes = {i.get("dtype", "float64") for i in infos}
    obs.inc("repro_em_backend_fits_total", 1.0, model=kind, backend=backend)
    obs.observe("repro_em_batch_occupancy_ratio", occupancy, model=kind)
    obs.inc("repro_em_masked_iterations_total", float(slots - active),
            model=kind)
    obs.emit(
        "em.backend",
        model=kind,
        backend=backend,
        n_restarts=rows,
        n_shards=int(n_shards),
        batch_iterations=batch_iterations,
        occupancy=round(occupancy, 6),
        masked_savings=round(1.0 - occupancy, 6),
        kernel=kernels.pop() if len(kernels) == 1 else "mixed",
        block_size=max(int(i.get("block_size", 0)) for i in infos),
        dtype=dtypes.pop() if len(dtypes) == 1 else "mixed",
        dtype_fallbacks=sum(int(i.get("dtype_fallbacks", 0)) for i in infos),
    )


# ----------------------------------------------------------------------
# Ragged multi-sequence batches
# ----------------------------------------------------------------------
def _ragged_forward_backward(pi, transition, likes, lengths,
                             workspace=None):
    """Scaled forward-backward over rows of unequal length.

    ``likes`` is time-major ``(T, K, n)``, ``pi`` ``(K, n)`` and
    ``transition`` ``(K, n, n)``; ``alpha`` comes back normalised per step
    so ``gamma = alpha * beta`` directly.  Rows are only meaningful for
    their first ``lengths[k]`` steps (zero beyond).
    Padded steps are *carried*: the forward pass repeats the last valid
    ``alpha`` and forces the padded scale to 1, so the per-row
    log-likelihood (``sum(log(scales[:T_r]))``, taken by the caller per
    length group) never sees a padded factor; the backward pass carries
    ``beta`` leftward so the row's last valid step holds exactly the
    solo boundary value 1.  Every valid slot is bit-identical to a solo
    run of that row.
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


class _RaggedAux(_KernelState):
    """Per-mega-batch constants shared by every ragged E-pass.

    The ragged analogue of :class:`_EStepAux`: everything derivable from
    the stacked symbols alone is computed once per batch.  Row subsets
    (the driver's active-row masking) slice into these arrays through
    each sub-batch's ``stack_rows``.  The kernel state deliberately gets
    *no* sequence length: the blocked kernel must run at the pinned
    :data:`RAGGED_BLOCK_SIZE` (or an explicit ``config.block_size``) so
    a row's arithmetic never depends on its mega-batch's ``t_max`` —
    the fused-equals-solo byte-identity contract.
    """

    def __init__(self, kind: str, stack: SymbolStack, config: EMConfig,
                 n_hidden: int, backend: str = "batched"):
        self.stack = stack
        self._init_kernel(kind, config, backend, n_hidden, stack.n_symbols)
        if kind == "hmm":
            # Row-major one-hot observed symbols for the joint_obs GEMM.
            onehot = np.zeros((stack.n_rows, stack.t_max, stack.n_symbols))
            k, t = np.nonzero(stack.observed)
            onehot[k, t, stack.symbols0[k, t]] = 1.0
            self.onehot = onehot
        else:
            self.folded = _FoldedIndex(stack) if self.fast else None


class _RaggedHMMBatch(_HMMBatch):
    """HMM parameter stack whose rows own (unequal-length) sequences."""

    __slots__ = ("stack_rows",)

    def __init__(self, pi, transition, emission, loss_c, stack_rows):
        super().__init__(pi, transition, emission, loss_c)
        self.stack_rows = np.asarray(stack_rows)

    @classmethod
    def from_models(cls, models, stack_rows):
        base = _HMMBatch.from_models(models)
        return cls(base.pi, base.transition, base.emission, base.loss_c,
                   stack_rows)

    def rows(self, idx) -> "_RaggedHMMBatch":
        return _RaggedHMMBatch(
            self.pi[idx], self.transition[idx], self.emission[idx],
            self.loss_c[idx], self.stack_rows[idx],
        )

    def maximize(self, stats, min_prob, prior) -> "_RaggedHMMBatch":
        base = super().maximize(stats, min_prob, prior)
        return _RaggedHMMBatch(base.pi, base.transition, base.emission,
                               base.loss_c, self.stack_rows)

    def estep(self, aux: _RaggedAux) -> _HMMStats:
        stack = aux.stack
        rows = self.stack_rows
        lengths = stack.lengths[rows]
        t_act = int(lengths.max())
        n_rows, n_hidden = self.pi.shape
        survive = 1.0 - self.loss_c                       # (K, M)
        weighted = self.emission * survive[:, None, :]    # (K, N, M)
        loss_like = np.matmul(self.emission, self.loss_c[:, :, None])[:, :, 0]
        sub_syms = stack.symbols0[rows, :t_act]           # (K, t_act)
        likes = np.zeros((t_act, n_rows, n_hidden))
        obs_k, obs_t = np.nonzero(stack.observed[rows, :t_act])
        likes[obs_t, obs_k] = weighted[obs_k, :, sub_syms[obs_k, obs_t]]
        lost = stack.lost[rows, :t_act]                   # (K, t_act)
        loss_k, loss_t = np.nonzero(lost)
        likes[loss_t, loss_k] = loss_like[loss_k]
        alpha, beta, scales = aux.ragged_forward_backward(
            self.pi, self.transition, likes, lengths
        )
        gamma = alpha * beta
        weighted_b = likes[1:] * beta[1:] / scales[1:, :, None]
        onehot = aux.onehot[rows, :t_act]                 # (K, t_act, M)
        xi_sum = np.empty_like(self.transition)
        joint_obs = np.empty_like(self.emission)
        gamma_loss_total = np.empty_like(self.pi)
        loglik = np.empty(n_rows)
        for t_g, idx in _length_groups(lengths):
            g = gamma[:t_g, idx]                          # (t_g, K_g, N)
            joint_obs[idx] = np.matmul(
                g.transpose(1, 2, 0), onehot[idx, :t_g]
            )
            xi_sum[idx] = self.transition[idx] * np.matmul(
                alpha[: t_g - 1, idx].transpose(1, 2, 0),
                weighted_b[: t_g - 1, idx].transpose(1, 0, 2),
            )
            # Masked time sum == the uniform engine's gathered loss-step
            # sum: axis-0 reductions accumulate strictly left to right,
            # so interleaved zeros cannot move a single bit.
            gamma_loss_total[idx] = np.add.reduce(
                g * lost[idx, :t_g].T[:, :, None], axis=0
            )
            loglik[idx] = _row_loglik(scales[:t_g, idx])
        joint_loss = (
            (gamma_loss_total / loss_like)[:, :, None]
            * self.emission
            * self.loss_c[:, None, :]
        )
        return _HMMStats(gamma[0], xi_sum, joint_obs, joint_loss, loglik)


class _RaggedMMHDBatch(_MMHDBatch):
    """MMHD parameter stack whose rows own (unequal-length) sequences."""

    __slots__ = ("stack_rows",)

    def __init__(self, pi, transition, loss_c, n_symbols, stack_rows):
        super().__init__(pi, transition, loss_c, n_symbols)
        self.stack_rows = np.asarray(stack_rows)

    @classmethod
    def from_models(cls, models, stack_rows):
        base = _MMHDBatch.from_models(models)
        return cls(base.pi, base.transition, base.loss_c, base.n_symbols,
                   stack_rows)

    def rows(self, idx) -> "_RaggedMMHDBatch":
        return _RaggedMMHDBatch(
            self.pi[idx], self.transition[idx], self.loss_c[idx],
            self.n_symbols, self.stack_rows[idx],
        )

    def maximize(self, stats, min_prob, prior) -> "_RaggedMMHDBatch":
        base = super().maximize(stats, min_prob, prior)
        return _RaggedMMHDBatch(base.pi, base.transition, base.loss_c,
                                base.n_symbols, self.stack_rows)

    def estep(self, aux: _RaggedAux) -> _EStepStats:
        return _mmhd_estep(self, aux, self.stack_rows)


_RAGGED_TYPES = {"hmm": _RaggedHMMBatch, "mmhd": _RaggedMMHDBatch}


# ----------------------------------------------------------------------
# Hedged streaming fit
# ----------------------------------------------------------------------
def _shared_config_key(config: EMConfig):
    """Fields every window of one mega-batch must agree on (seed and
    n_jobs may differ per window; everything that shapes the shared
    driver may not)."""
    return (
        config.tol, config.max_iter, config.min_prob, config.n_restarts,
        config.freeze_loss_iters, config.data_driven_init,
        config.loss_prior_losses, config.loss_prior_observations,
        config.fast_path, config.backend, config.dtype, config.block_size,
    )


def run_hedged_fits(kind, seqs: Sequence[ObservationSequence],
                    n_hidden: int, configs: Sequence[EMConfig],
                    warm_models: Sequence,
                    trail_problem: Callable[[List[float]], Optional[str]],
                    backend: str = "batched"):
    """Hedged warm-vs-cold fits for many windows in ONE ragged batch.

    Phase one stacks every window's warm row (no loss-channel freeze,
    soft zero-likelihood handling) into one ragged batch and drives them
    together; a window whose warm row survives to convergence finalizes
    and is done.  Cold hedging is *lazy*: only windows whose warm
    trajectory fails (zero likelihood, trail collapse, or a failing
    trailing E-pass) enter a second ragged batch of ``n_restarts`` cold
    rows each, seeded from ``configs[w].seed``, run to convergence for
    the best-of fallback.  Cold EM trajectories are deterministic and
    independent of the warm rows, so deferring them returns exactly the
    fits eager hedging would — while the common all-warm round pays for
    one row per window instead of ``1 + n_restarts``.

    Because batch rows are computed independently and all accumulations
    are sliced per row length, every window's result is bit-identical to
    running :func:`run_hedged_fit` on that window alone — the parity
    contract behind the scheduler's fused drain mode.

    ``configs`` may differ only in ``seed`` / ``n_jobs``.  Returns
    ``(results, info)``: ``results[w]`` is the solo-compatible
    ``(fitted, warm_used, fallback_reason)`` triple, ``info`` the
    occupancy/padding accounting of the shared batch.

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
    n_restarts = config.n_restarts

    # Phase one: every window's warm row, one ragged batch (row w is
    # window w).
    stack = SymbolStack(list(seqs))
    aux = _RaggedAux(kind, stack, config, n_hidden, backend=backend)
    batch = _RAGGED_TYPES[kind].from_models(list(warm_models),
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
                problem = trail_problem(driver.trails[w])
                if problem is not None:
                    reasons[w] = problem
                    driver.retire(w)
                elif driver.converged[w]:
                    to_finalize.append(w)
        if to_finalize:
            accept_or_fallback(to_finalize)
        if not progressed:
            break

    # max_iter exhausted with the warm trajectory intact: the sequential
    # policy still prefers the healthy warm fit.
    leftovers = [w for w in sorted(unresolved) if reasons[w] is None]
    if leftovers:
        accept_or_fallback(leftovers)

    # Phase two: lazy cold hedge — a second ragged batch of n_restarts
    # rows per fallback window, run to convergence.  Cold trajectories
    # never depend on the warm rows, so these fits are bit-identical to
    # cold rows that had iterated alongside phase one.
    info = {
        "windows": n_windows,
        "rows": batch.n_rows,
        "batch_iterations": driver.batch_iterations,
        "active_row_iterations": driver.active_row_iterations,
        "lengths_sum": int(stack.lengths.sum()),
        "slots": stack.n_rows * stack.t_max,
        "iter_slots": batch.n_rows * driver.batch_iterations,
        "t_max": stack.t_max,
    }
    info.update(_kernel_info(aux))
    fallback = sorted(unresolved)
    if fallback:
        cold_seqs: List[ObservationSequence] = []
        cold_models: List = []
        for w in fallback:
            for r in range(n_restarts):
                cold_seqs.append(seqs[w])
                cold_models.append(
                    _initial_model(kind, seqs[w], n_hidden, configs[w], r)
                )
        cold_stack = SymbolStack(cold_seqs)
        cold_aux = _RaggedAux(kind, cold_stack, config, n_hidden,
                              backend=backend)
        cold_batch = _RAGGED_TYPES[kind].from_models(
            cold_models, np.arange(len(cold_models))
        )
        cold_driver = _BatchedEM(
            cold_batch, cold_aux, config,
            [config.freeze_loss_iters] * len(cold_models),
        )
        cold_driver.run()
        try:
            fits = _finalize(kind, cold_batch, cold_aux, cold_driver.trails,
                             cold_driver.converged)
        except _BatchZeroLikelihood as exc:
            raise FloatingPointError(
                f"zero likelihood at t={exc.t}"
            ) from None
        for i, w in enumerate(fallback):
            wfits = fits[i * n_restarts: (i + 1) * n_restarts]
            for restart, fitted in enumerate(wfits):
                record_restart(kind, restart, fitted)
            best_restart = 0
            for restart, fitted in enumerate(wfits[1:], start=1):
                if fitted.log_likelihood > wfits[best_restart].log_likelihood:
                    best_restart = restart
            record_fit(kind, wfits, best_restart)
            results[w] = (wfits[best_restart], False, reasons[w])
        info["rows"] += cold_batch.n_rows
        info["batch_iterations"] += cold_driver.batch_iterations
        info["active_row_iterations"] += cold_driver.active_row_iterations
        info["lengths_sum"] += int(cold_stack.lengths.sum())
        info["slots"] += cold_stack.n_rows * cold_stack.t_max
        info["iter_slots"] += cold_batch.n_rows * cold_driver.batch_iterations
        info["dtype_fallbacks"] += cold_aux.dtype_fallbacks
        if str(cold_aux.dtype) != info["dtype"]:
            info["dtype"] = str(cold_aux.dtype)

    slots = info.pop("slots")
    lengths_sum = info.pop("lengths_sum")
    iter_slots = info.pop("iter_slots")
    info["occupancy"] = (
        info["active_row_iterations"] / iter_slots if iter_slots else 1.0
    )
    info["pad_fraction"] = float(1.0 - lengths_sum / slots) if slots else 0.0
    return results, info


def run_hedged_fit(kind, seq: ObservationSequence, n_hidden: int,
                   config: EMConfig, warm_model,
                   trail_problem: Callable[[List[float]], Optional[str]],
                   index: Optional[SymbolIndex] = None,
                   backend: str = "batched"):
    """Warm-started fit with a lazy cold-restart hedge.

    One batched EM drives the warm row (no loss-channel freeze, like the
    sequential warm path).  If the warm trajectory survives — no zero
    likelihood, no trail collapse per ``trail_problem`` — the fit
    returns as soon as that row converges, having paid for nothing else.
    If it collapses, ``config.n_restarts`` cold rows run to convergence
    in one batch for the best-of fallback.

    Implemented as the one-window case of :func:`run_hedged_fits`, so a
    per-window (pool) drain and a fused drain run the exact same kernel
    — that shared kernel is what makes their verdict streams
    byte-identical.  ``index`` is accepted for API compatibility; the
    ragged engine builds its own stacked index.

    Returns ``(fitted, warm_used, fallback_reason)`` matching the
    sequential policy in :func:`repro.streaming.online_em.streaming_fit`.
    """
    del index  # the ragged engine indexes the (single-row) stack itself
    results, _ = run_hedged_fits(
        kind, [seq], n_hidden, [config], [warm_model], trail_problem,
        backend=backend,
    )
    return results[0]
