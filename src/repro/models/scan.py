"""Blocked scan over per-step operators: the ``blocked`` E-step kernel.

A forward-backward that steps through time one Python call at a time is
bound by that dispatch, not by FLOPs.  :func:`_scan_forward` /
:func:`_scan_backward` process any chain of per-step ``(n, n)``
operators in blocks of ``B`` steps: the within-block prefix (suffix)
products of all blocks and rows come from ``B`` whole-array products
(operators stored component-major; see :func:`_compose`), and only the
``T / B`` block boundaries chain sequentially — about
``B + 3 T / B`` dispatches per pass instead of ``2 T``.  Exact
power-of-two rescaling keeps the scaled-recursion numerics intact;
identity padding applies bitwise-exactly, so a ragged row's results
never depend on its batch.
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


def _scan_chunks(ops_at, n_steps, n_rows, n, dtype, block, groups, ws,
                 scales=None, reverse=False):
    """Yield ``(o0, o1, nb, ops)`` per chunk of whole blocks: the chunk's
    step operators (``ops_at`` output, identity-padded) laid out
    component-major, ``(B, n, n, nb, K)``.

    With the ``(nb, K)`` batch axes last and contiguous, an operator
    product is one broadcast multiply and one reduce over whole arrays
    instead of numpy's per-matrix ``matmul`` dispatch (~60 ns a matrix,
    which dominated the scan at fleet row counts).
    """
    n_ops = n_steps - 1
    eye = np.eye(n, dtype=dtype)
    n_blocks = -(-n_ops // block)
    chunk_blocks = max(1, _CHUNK_ELEMENTS // (max(block, n) * n_rows * n * n))
    starts = list(range(0, n_blocks, chunk_blocks))
    for c0 in (reversed(starts) if reverse else starts):
        nb = min(chunk_blocks, n_blocks - c0)
        o0 = c0 * block
        o1 = min(o0 + nb * block, n_ops)
        n_c, n_slots = o1 - o0, nb * block
        stage = ws.get("stage", (n_slots, n_rows, n, n), dtype)
        if scales is None:
            ops_at(o0, o1, stage[:n_c])
        else:
            ops_at(o0, o1, stage[:n_c], scales)
        stage[n_c:] = eye
        if groups is not None:
            _pad_ops_identity(stage, o0, n_slots, groups, eye, n_steps)
        ops = ws.get("ops", (block, n, n, nb, n_rows), dtype)
        np.copyto(ops, stage.reshape(nb, block, n_rows, n, n)
                  .transpose(1, 3, 4, 0, 2))
        yield o0, o1, nb, ops


def _compose(a, b, out, tmp):
    """``out = a @ b`` for component-major ``(n, n, ...)`` stacks: one
    broadcast multiply into the ``(n, n, n, ...)`` scratch ``tmp`` and one
    reduce, two numpy calls per product at any width and row count."""
    np.multiply(a[:, :, None], b[None], out=tmp)
    return np.add.reduce(tmp, axis=1, out=out)


def _scan_forward(init, ops_at, n_steps, block, groups=None,
                  workspace=None):
    """Forward half of the blocked scan over per-step operators.

    ``alpha[t] ∝ alpha[t-1] @ op[t-1]`` from ``alpha[0] ∝ init``
    (``(K, n)``, unnormalised), where ``ops_at(o0, o1, out)`` writes the
    ``(K, n, n)`` operators of steps ``o0 .. o1-1`` into ``out``.  Returns
    ``(alpha, scales)`` with ``alpha`` normalised per step and ``scales``
    the per-step totals; the caller checks the scales.

    1. Build a chunk of step operators with one ``ops_at`` call.
    2. Scan: ``B - 1`` whole-array products compute the within-block
       operator prefix products of *all* blocks simultaneously, with
       exact power-of-two rescaling every :data:`_RESCALE_EVERY` steps to
       keep the products in range (the rescale provably cannot change
       the reconstructed values — only their intermediate exponents).
    3. Chain the ``T / B`` block boundaries sequentially (the only
       genuinely serial part), renormalising at each boundary exactly as
       the scaled recursion does.
    4. Reconstruct every in-block ``alpha[t]`` with one product of the
       boundary values against the prefix products; per-step ``scales``
       fall out of the ratios of unnormalised totals.

    Ragged rows (``groups``, the rows' :func:`_length_groups`) pad with
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
    alpha = ws.get("alpha", (n_steps, n_rows, n), dtype)
    scales = ws.get("scales", (n_steps, n_rows), dtype)
    total = np.add.reduce(init, axis=1)
    scales[0] = total
    np.divide(init, total[:, None], out=alpha[0])
    if n_steps == 1:
        return alpha, scales
    block = max(1, int(block))
    tiny = np.finfo(dtype).tiny
    cur = alpha[0].T
    for o0, o1, nb, ops in _scan_chunks(ops_at, n_steps, n_rows, n, dtype,
                                        block, groups, ws):
        shape = (nb, n_rows)
        prefix = ws.get("prefix", ops.shape, dtype)
        tmp = ws.get("tmp", (n, n, n) + shape, dtype)
        d = ws.get("rescale", (block,) + shape, dtype)
        d[:] = 1.0
        prefix[0] = ops[0]
        for i in range(1, block):
            _compose(prefix[i - 1], ops[i], prefix[i], tmp)
            if i % _RESCALE_EVERY == 0:
                mx = np.amax(prefix[i], axis=(0, 1))
                np.exp2(np.floor(np.log2(np.maximum(mx, tiny))), out=d[i])
                prefix[i] /= d[i]
        entry = ws.get("entry", (n,) + shape, dtype)
        last = prefix[block - 1]
        for b in range(nb):
            entry[:, b] = cur
            end = np.add.reduce(cur[:, None] * last[:, :, b], axis=0)
            cur = end / np.add.reduce(end, axis=0)
        rec = ws.get("recon", ops.shape, dtype)
        np.multiply(entry[None, :, None], prefix, out=rec)
        a_hat = ws.get("a_hat", (block, n) + shape, dtype)
        np.add.reduce(rec, axis=1, out=a_hat)
        that = ws.get("totals", (block,) + shape, dtype)
        np.add.reduce(a_hat, axis=1, out=that)
        a_hat /= that[:, None]
        n_c = o1 - o0
        alpha[1 + o0: 1 + o1] = a_hat.transpose(2, 0, 3, 1).reshape(
            -1, n_rows, n)[:n_c]
        ratio = ws.get("ratio", (block,) + shape, dtype)
        ratio[0] = that[0]
        np.divide(that[1:], that[:-1], out=ratio[1:])
        ratio *= d
        scales[1 + o0: 1 + o1] = ratio.transpose(1, 0, 2).reshape(
            -1, n_rows)[:n_c]
    if groups is not None:
        # Exact carried-padding semantics of the ragged loop kernel.
        for t_g, idx in groups:
            if t_g < n_steps:
                alpha[t_g:, idx] = alpha[t_g - 1, idx]
                scales[t_g:, idx] = 1.0
    return alpha, scales


def _scan_backward(ops_at, scales, n, block, groups=None, workspace=None,
                   beta_last=None):
    """Backward half of the blocked scan: ``beta[t-1] = op'[t-1] @
    beta[t]`` with ``ops_at(o0, o1, out, scales)`` writing the operators
    already divided by the destination step's scale.

    Suffix products mirror the forward prefix scan, tracking the
    cumulative rescale in (exact) log2 space.  ``beta_last`` (``(K,
    n)``, default ones) is each row's value at its last valid step; the
    identity padding carries it there from the end of the stack exactly.
    """
    n_steps, n_rows = scales.shape
    ws = workspace if workspace is not None else _Workspace()
    dtype = scales.dtype
    beta = ws.get("beta", (n_steps, n_rows, n), dtype)
    if beta_last is None:
        beta_last = np.ones((n_rows, n), dtype=dtype)
    beta[n_steps - 1] = beta_last
    if n_steps == 1:
        return beta
    block = max(1, int(block))
    tiny = np.finfo(dtype).tiny
    cur = np.array(beta_last.T)
    for o0, o1, nb, ops in _scan_chunks(ops_at, n_steps, n_rows, n, dtype,
                                        block, groups, ws, scales=scales,
                                        reverse=True):
        shape = (nb, n_rows)
        suffix = ws.get("prefix", ops.shape, dtype)
        tmp = ws.get("tmp", (n, n, n) + shape, dtype)
        ld = ws.get("logd", (block,) + shape, dtype)
        suffix[block - 1] = ops[block - 1]
        ld[block - 1] = 0.0
        for i in range(block - 2, -1, -1):
            _compose(ops[i], suffix[i + 1], suffix[i], tmp)
            if i and i % _RESCALE_EVERY == 0:
                mx = np.amax(suffix[i], axis=(0, 1))
                di = np.exp2(np.floor(np.log2(np.maximum(mx, tiny))))
                suffix[i] /= di
                np.add(ld[i + 1], np.log2(di), out=ld[i])
            else:
                ld[i] = ld[i + 1]
        bend = ws.get("bend", (n,) + shape, dtype)
        first = suffix[0]
        for b in range(nb - 1, -1, -1):
            bend[:, b] = cur
            nxt = np.add.reduce(first[:, :, b] * cur[None], axis=1)
            cur = nxt * np.exp2(ld[0, b])
        rec = ws.get("recon", ops.shape, dtype)
        np.multiply(suffix, bend[None, None], out=rec)
        b_hat = ws.get("a_hat", (block, n) + shape, dtype)
        np.add.reduce(rec, axis=2, out=b_hat)
        undo = ws.get("totals", (block,) + shape, dtype)
        np.exp2(ld, out=undo)
        b_hat *= undo[:, None]
        beta[o0:o1] = b_hat.transpose(2, 0, 3, 1).reshape(
            -1, n_rows, n)[:o1 - o0]
    if groups is not None:
        # The ragged loop kernel carries beta leftward so every slot from
        # the row's last valid step on holds the row's boundary value.
        for t_g, idx in groups:
            if t_g < n_steps:
                beta[t_g - 1:, idx] = beta_last[idx]
    return beta
