"""Blocked scan over per-step operators: the ``blocked`` E-step kernel.

A forward-backward that steps through time one Python call at a time is
bound by that dispatch, not by FLOPs.  :func:`_scan_forward` processes
chains of per-step ``(n, n)`` operators in blocks of ``B`` steps: the
within-block prefix products of all blocks and lanes come from ``B``
whole-array products (operators stored component-major; see
:func:`_compose`), and only the ``T / B`` block boundaries chain
sequentially — about ``B + 3 T / B`` dispatches per forward-backward
instead of ``2 T``, since it runs as one sweep: each row's backward chain
is a second lane of transposed operators in the row's reversed time
(:func:`_lane_groups`, :func:`_reversed_steps`), normalised by its own
sums like the forward one, and :func:`_rescale_beta` turns it into the
scaled recursion's ``beta`` afterwards, since posteriors do not depend
on how ``beta`` is scaled at each step (Rabiner, Proc. IEEE 1989).
Exact power-of-two rescaling keeps the scaled-recursion numerics
intact; identity padding applies bitwise-exactly, so a ragged row's
results never depend on its batch, and a forward lane's never on
whether a backward lane runs beside it.
The module also holds the recursion helpers every kernel shares.
"""

from __future__ import annotations

import numpy as np

#: Scan steps between power-of-two rescales of the composed operators.
#: Rescaling is exact (and provably cannot change the reconstructed
#: values outside under/overflow), so the cadence is purely a range
#: safety knob: float64 survives 16 steps of even likelihood ~1e-18.
_RESCALE_EVERY = 16

#: Time-block length B of every blocked scan.  It is fixed rather than
#: tuned to the stack's length so a row's operator-composition order —
#: and so its every bit — never depends on which other sequences share
#: its stack (the fused-equals-solo contract).  On the HMM kernel with 8
#: rows, 64 beat 128 at T = 2000, 3000 and 10000.
RAGGED_BLOCK_SIZE = 64

#: Elements per (steps, K, N, N) operator buffer (and per (N, N, N, ...)
#: composition scratch) above which the blocked kernel processes time in
#: chunks of whole blocks, bounding peak memory (~32 MB per float64
#: buffer) at paper-scale T for wide states.
_CHUNK_ELEMENTS = 1 << 22


class _BatchZeroLikelihood(Exception):
    """A forward pass hit zero total likelihood on some batch rows.

    ``rows`` holds *batch-local* row indices; the driver maps them back
    to restart rows and decides between a hard
    :class:`FloatingPointError` (normal restarts) and a soft retirement
    (the hedged warm row).
    """

    def __init__(self, t: int, rows: np.ndarray, first_bad_t=None):
        detail = ""
        if first_bad_t:
            listed = sorted(first_bad_t.items())[:8]
            detail = " (" + ", ".join(
                f"row {r}: t={tt}" for r, tt in listed
            ) + (", ..." if len(first_bad_t) > 8 else "") + ")"
        super().__init__(f"zero likelihood at t={t}{detail}")
        self.t = int(t)
        self.rows = np.asarray(rows)
        #: Per batch-local row, the row's own first poisoned time step —
        #: the actual collapse point of that restart (the shared ``t``
        #: is only the earliest across rows).
        self.first_bad_t = dict(first_bad_t or {})


def _row_loglik(scales: np.ndarray) -> np.ndarray:
    """Per-row ``sum(log(scales))`` over a time-major ``(T, K)`` array.

    Each row is summed over contiguous memory so numpy's pairwise
    reduction applies with blocking that depends only on ``T`` — making
    the result independent of the batch width ``K`` and bit-identical
    to a 1-D ``np.log(scales).sum()`` of one row.  (A plain
    ``sum(axis=0)`` over the strided time axis falls back to naive
    left-to-right accumulation and diverges in the last ulps.)
    """
    return np.log(np.ascontiguousarray(scales.T)).sum(axis=1)


def _check_scales(scales: np.ndarray) -> None:
    """Deferred zero-likelihood detection over a ``(T, K)`` scale array.

    The forward loops run with divide/invalid errors suppressed: a row
    that hits zero total likelihood poisons only its own lane with NaN
    (row independence), so one vectorised check after the pass replaces
    a per-step ``min()`` — about a third of the old loop cost.  NaN
    scales fail ``> 0`` and are reported alongside exact zeros.
    """
    bad = ~(scales > 0)
    if bad.any():
        rows = np.flatnonzero(bad.any(axis=0))
        # argmax over the time axis gives each poisoned row its own
        # first bad step — the row's actual collapse point.  (NaN
        # poisons everything downstream of the first zero, so the first
        # step is the informative one.)
        first_bad = bad[:, rows].argmax(axis=0)
        first_bad_t = {int(r): int(t) for r, t in zip(rows, first_bad)}
        raise _BatchZeroLikelihood(int(first_bad.min()), rows, first_bad_t)


class _Workspace:
    """Per-fit scratch-array cache shared across EM iterations.

    Every E-pass of one fit needs the same ``alpha``/``beta``/``buf``/
    ``scales`` (and, blocked, operator/prefix) arrays; reallocating them
    each iteration costs an allocator round-trip and a page-fault sweep
    per buffer per pass.  :meth:`get` hands out views of flat buffers
    that are only (re)allocated when a request grows past the cached
    capacity or changes dtype — the first iteration sizes everything for
    the full batch, and later iterations (whose active row count only
    shrinks under convergence masking) slice the same memory.
    """

    __slots__ = ("_buffers",)

    def __init__(self):
        self._buffers: dict = {}

    def get(self, name: str, shape, dtype=np.float64) -> np.ndarray:
        size = 1
        for dim in shape:
            size *= int(dim)
        buf = self._buffers.get(name)
        if buf is None or buf.dtype != np.dtype(dtype) or buf.size < size:
            buf = np.empty(size, dtype=dtype)
            self._buffers[name] = buf
        return buf[:size].reshape(shape)

    def take(self, name: str, src: np.ndarray, at) -> np.ndarray:
        """``src[at]`` along axis 0, gathered into the buffer ``name``."""
        out = self.get(name, at.shape + src.shape[1:], src.dtype)
        return np.take(src, at, axis=0, out=out, mode="clip")


def _length_groups(lengths):
    """``(length, row positions)`` per distinct row length, ascending.

    The accumulation loops slice their time axis per group so every GEMM
    and reduction contracts over exactly the row's own ``T_r`` steps —
    the property that keeps per-row statistics bit-identical to a solo
    fit (zero-padding the contraction would change the BLAS blocking).
    A group holding every row is ``slice(None)``: its views have the
    strides, and bits, of the copies an index array would take.  Row
    layouts compute their groups once and hand them to every pass.
    """
    lengths = np.asarray(lengths)
    groups = []
    for t in np.unique(lengths):
        idx = np.flatnonzero(lengths == t)
        groups.append((int(t),
                       slice(None) if len(idx) == len(lengths) else idx))
    return groups


def _pad_ops_identity(ops_flat, o0, n_slots, groups, eye, n_steps):
    """Overwrite ragged rows' padded step operators with the identity.

    ``ops_flat`` holds this chunk's operators for global op indices
    ``o0 + j``; op ``j`` maps step ``j`` to step ``j + 1``, so a row of
    length ``L`` owns ops ``0 .. L-2`` and everything from ``L-1`` on is
    padding.  Applying the identity is bitwise exact (``x * 1 = x``,
    ``x + 0 = x`` for the non-negative values here), which is what keeps
    a row's valid-region arithmetic independent of how far the batch is
    padded — the ragged bit-identity contract.
    """
    for t_g, idx in groups:
        if t_g >= n_steps:
            continue
        start = max(t_g - 1 - o0, 0)
        if start < n_slots:
            ops_flat[start:n_slots, idx] = eye


def _compose(a, b, out, tmp):
    """``out = a @ b`` for component-major ``(n, n, ...)`` stacks: one
    broadcast multiply into the ``(n, n, n, ...)`` scratch ``tmp`` and one
    reduce, two numpy calls per product at any width and row count.
    ``out`` may be ``b``: the multiply reads it whole first."""
    np.multiply(a[:, :, None], b[None], out=tmp)
    return np.add.reduce(tmp, axis=1, out=out)


def _lane_groups(groups, n_rows):
    """The length groups of a forward-and-backward lane stack: row ``k``'s
    backward lane is lane ``n_rows + k`` and has the row's length."""
    return [(t_g, idx if isinstance(idx, slice)
             else np.concatenate((idx, idx + n_rows)))
            for t_g, idx in groups]


def _reversed_steps(lengths, n_steps):
    """``(T, K)``: ``lengths[k] - 1 - t``, row ``k``'s step ``t`` counted
    back from its last step (0 past the row's end)."""
    return np.maximum(np.asarray(lengths) - 1 - np.arange(n_steps)[:, None], 0)


def _scan_forward(init, ops_at, n_steps, block, groups=None,
                  workspace=None):
    """Blocked scan over per-step operators: ``alpha[t] ∝ alpha[t-1] @
    op[t-1]`` from ``alpha[0] ∝ init``.

    ``init`` is ``(K, n)``, unnormalised, one row per lane, and
    ``ops_at(o0, o1, out)`` writes the ``(K, n, n)`` operators of steps
    ``o0 .. o1-1`` into ``out``.  Returns ``(alpha, scales)`` with
    ``alpha`` normalised per step and ``scales`` the per-step totals; the
    caller checks the scales.  A lane is any chain of row-vector steps.

    1. Build a chunk of step operators with one ``ops_at`` call.
    2. Scan: ``B - 1`` whole-array products compute the within-block
       operator prefix products of *all* blocks simultaneously, in place
       of the operators, with exact power-of-two rescaling every
       :data:`_RESCALE_EVERY` steps to keep the products in range (the
       rescale provably cannot change the reconstructed values — only
       their intermediate exponents).
    3. Chain the ``T / B`` block boundaries sequentially (the only
       genuinely serial part), renormalising at each boundary exactly as
       the scaled recursion does.
    4. Reconstruct every in-block ``alpha[t]`` with one product of the
       boundary values against the prefix products (into the staging
       buffer, dead by then); per-step ``scales`` fall out of the ratios
       of unnormalised totals.

    Ragged lanes (``groups``, the lanes' :func:`_length_groups`) pad with
    identity operators (bitwise-exact application) and their carried
    ``alpha``/``scales`` slots are overwritten with the exact carry
    semantics of the loop kernel afterwards, so valid-region results
    never depend on the batch's ``t_max``.  Chunking bounds the operator
    buffers at :data:`_CHUNK_ELEMENTS` elements without changing any
    arithmetic (blocks only interact through the boundary chain, which
    is chunk-oblivious).
    """
    n_rows, n = init.shape
    ws = workspace if workspace is not None else _Workspace()
    dtype = init.dtype
    block = max(1, int(block))
    n_ops = n_steps - 1
    n_blocks = -(-n_ops // block)
    # Room for whole blocks, so a chunk's values land in one copy.
    alpha_out = ws.get("alpha", (1 + n_blocks * block, n_rows, n), dtype)
    scales_out = ws.get("scales", (1 + n_blocks * block, n_rows), dtype)
    alpha, scales = alpha_out[:n_steps], scales_out[:n_steps]
    total = np.add.reduce(init, axis=1)
    scales[0] = total
    np.divide(init, total[:, None], out=alpha[0])
    if n_steps == 1:
        return alpha, scales
    tiny = np.finfo(dtype).tiny
    eye = np.eye(n, dtype=dtype)
    chunk_blocks = max(1, _CHUNK_ELEMENTS // (max(block, n) * n_rows * n * n))
    cur = alpha[0].T
    for c0 in range(0, n_blocks, chunk_blocks):
        nb = min(chunk_blocks, n_blocks - c0)
        o0 = c0 * block
        o1 = min(o0 + nb * block, n_ops)
        n_c, n_slots = o1 - o0, nb * block
        # Operators laid out component-major, (B, n, n, nb, K): with the
        # batch axes last and contiguous, a product is one broadcast
        # multiply and one reduce over whole arrays instead of numpy's
        # per-matrix matmul dispatch.
        stage = ws.get("stage", (n_slots, n_rows, n, n), dtype)
        ops_at(o0, o1, stage[:n_c])
        stage[n_c:] = eye
        if groups is not None:
            _pad_ops_identity(stage, o0, n_slots, groups, eye, n_steps)
        shape = (nb, n_rows)
        prefix = ws.get("ops", (block, n, n) + shape, dtype)
        np.copyto(prefix, stage.reshape(nb, block, n_rows, n, n)
                  .transpose(1, 3, 4, 0, 2))
        tmp = ws.get("tmp", (n, n, n) + shape, dtype)
        # The factors of steps 0, 16, 32, ... (1 at step 0).
        d = ws.get("rescale", (-(-block // _RESCALE_EVERY),) + shape, dtype)
        d[0] = 1.0
        for i in range(1, block):
            _compose(prefix[i - 1], prefix[i], prefix[i], tmp)
            if i % _RESCALE_EVERY == 0:
                di = d[i // _RESCALE_EVERY]
                mx = np.amax(prefix[i], axis=(0, 1))
                np.exp2(np.floor(np.log2(np.maximum(mx, tiny))), out=di)
                prefix[i] /= di
        entry = ws.get("entry", (n,) + shape, dtype)
        last = prefix[block - 1]
        for b in range(nb):
            entry[:, b] = cur
            end = np.add.reduce(cur[:, None] * last[:, :, b], axis=0)
            cur = end / np.add.reduce(end, axis=0)
        # Each step reuses a buffer the one before it leaves dead: the
        # products go to the staging buffer, their sums to the prefixes'
        # and the scale ratios back to the staging buffer.
        rec = stage.reshape(prefix.shape)
        np.multiply(entry[None, :, None], prefix, out=rec)
        a_hat = prefix.reshape(-1)[:rec.size // n].reshape((block, n) + shape)
        np.add.reduce(rec, axis=1, out=a_hat)
        that = ws.get("totals", (block,) + shape, dtype)
        np.add.reduce(a_hat, axis=1, out=that)
        a_hat /= that[:, None]
        alpha_out[1 + o0: 1 + o0 + n_slots].reshape(
            nb, block, n_rows, n)[:] = a_hat.transpose(2, 0, 3, 1)
        ratio = rec.reshape(-1)[:that.size].reshape(that.shape)
        ratio[0] = that[0]
        np.divide(that[1:], that[:-1], out=ratio[1:])
        ratio[::_RESCALE_EVERY] *= d
        scales_out[1 + o0: 1 + o0 + n_slots].reshape(
            nb, block, n_rows)[:] = ratio.transpose(1, 0, 2)
    if groups is not None:
        # Exact carried-padding semantics of the ragged loop kernel.
        for t_g, idx in groups:
            if t_g < n_steps:
                alpha[t_g:, idx] = alpha[t_g - 1, idx]
                scales[t_g:, idx] = 1.0
    return alpha, scales


def _rescale_beta(alpha, beta, ws, where=True):
    """Turn self-normalised betas into the scaled ones, in place: the
    scaled recursion's ``beta[t]`` is the one with ``alpha[t] . beta[t]
    = 1``, so ``beta[t] / (alpha[t] . beta[t])`` whatever the positive
    factor per step.  ``where`` (``beta``'s shape without the last axis)
    masks slots to leave alone.  A short state axis goes one component
    at a time: an array op over it runs one inner loop per vector."""
    dot = ws.get("dot", beta.shape[:-1])
    n = beta.shape[-1]
    if n > 8:
        np.einsum("...i,...i->...", alpha, beta, out=dot)
        return np.divide(beta, dot[..., None], out=beta,
                         where=np.expand_dims(where, -1))
    term = ws.get("dot_term", dot.shape)
    np.multiply(alpha[..., 0], beta[..., 0], out=dot)
    for i in range(1, n):
        dot += np.multiply(alpha[..., i], beta[..., i], out=term)
    for i in range(n):
        np.divide(beta[..., i], dot, out=beta[..., i], where=where)
    return beta
