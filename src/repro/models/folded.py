"""The run-folded MMHD forward-backward pass.

At an observed step the MMHD state sits in the ``N`` states of that
symbol (see :mod:`repro.models.mmhd`), and a row's observed steps fall
into runs of one symbol with no loss inside.  Inside a run of symbol
``m`` every step applies the same ``N x N`` operator ``A_m = T_oo[m,
m]`` (``1 - c_m`` folded in), so a row's chain has one node per run, at
the run's first step.  The operator from one node to the next is
``A_m^(k-1)`` (``k`` the run's length) times the key between the runs:
``T_oo[m, m']`` when no loss separates them, else the loss fold
``T_ol[m] @ T_ll^(r-1) @ T_lo[m']`` across ``r`` losses.  One table per
E-pass holds every node operator of the stack, keyed by ``(m, k, r,
m')`` (:func:`_node_table`), a loss run being the case ``k = 1``; the
powers come from a table of ``A_m^j`` doubled by squares
(:class:`_Powers`), the loss folds from a depth recursion
(:func:`_fold_table`), each operator brought to a largest entry in ``[1,
2)`` by an exact power of two.  A run longer than :data:`_RUN_CAP` steps
is split into nodes of at most that many steps (linked by ``T_oo[m,
m]``), so a power spans no more steps than the scan composes between its
own exact rescales, and a row whose runs average under two steps keeps
one node per observed step: folding it would cost the pass its power
tables for a chain that hardly shrinks.

:func:`_folded_forward_backward` scans each row's chain of nodes with the
blocked kernel in one sweep: the forward chain and, as extra lanes, the
backward chain over the transposed operators in reversed time.  The loss
steps' ``alpha`` and ``beta`` come from depth loops vectorised across all
runs, both directions at once (:func:`_runs`): one before the sweep
(leading runs forward, trailing runs backward) and one after it (every
other run).  The backward values are normalised by their own sums, so
they never read the forward scales, and one rescale per layout turns
them into the scaled recursion's (``scan._rescale_beta``).

The statistics never visit a step inside a run.  Each observed step's
posterior mass is 1, so the observed symbol mass is the row's symbol
counts.  A run's expected transition counts are ``sum_j A^j X
A^(k-2-j)`` for the outer product ``X`` of its end ``beta`` and entry
``alpha`` over the run's likelihood (the within-run sums of Lifshits,
Mozes, Weimann & Ziv-Ukelson, Algorithmica 2009): ``X`` is summed per
``(row, symbol, run length)``, and each of a length's ``k - 1`` terms
is read off the power table.  The log-likelihood adds each node's
one-step scale, each run's total over its other steps, and each loss
step's scale.  Per-step values (:meth:`_FoldedPass.alpha`,
:meth:`~_FoldedPass.beta`, :meth:`~_FoldedPass.scales`) are rebuilt from
the nodes and the power table on demand: the diagnostics pass and the
zero-likelihood report read them.  Every MMHD stack — restart, hedged
warm, fused ragged, one-row — runs this one pass.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import SymbolStack
from repro.models.scan import (
    RAGGED_BLOCK_SIZE,
    _RESCALE_EVERY,
    _check_scales,
    _lane_groups,
    _length_groups,
    _rescale_beta,
    _reversed_steps,
    _scan_forward,
)

#: Longest run of one symbol a chain node folds: the steps the scan
#: composes between its exact rescales, so a run's powers need none.
_RUN_CAP = _RESCALE_EVERY


def _normalise(x, major=False):
    """Divide each matrix of ``x`` in place by the power of two at or
    below its largest entry (exact); returns those exponents.  ``x`` is
    ``(..., n, n)``, or component-major ``(n, n, ...)`` when ``major``."""
    if major:
        expo = np.frexp(x.reshape(len(x) * len(x), -1).max(
            axis=0, initial=0.0))[1] - 1
        x *= np.ldexp(1.0, -expo)
    else:
        expo = np.frexp(np.amax(x, axis=(-2, -1)))[1] - 1
        x *= np.ldexp(1.0, -expo)[..., None, None]
    return expo


def _mm(a, b):
    """``a @ b`` for component-major ``(n, n, ...)`` stacks: elementwise
    products and sums over the contiguous batch, in index order, so an
    entry's bits never depend on the batch it sits in."""
    out = a[:, :1] * b[:1]
    for i in range(1, len(b)):
        out += a[:, i:i + 1] * b[i:i + 1]
    return out


class _Powers:
    """Every run power ``A_m^j`` of one pass, ``j < 2^levels``, for
    ``A`` ``(K * M, N, N)`` over flat ``(row, symbol)`` indices:
    ``table`` ``(N, N, 2^levels * K * M)``, component-major and flat
    over ``(j, row, symbol)``.  The table doubles with a ladder of squares
    ``A^(2^i)``: the powers below ``2^i`` times ``A^(2^i)`` are the next
    ``2^i``.  No power spans more than :data:`_RUN_CAP` steps, the span
    the scan composes between its exact rescales, so none is rescaled."""

    def __init__(self, a, levels):
        width, n, _ = a.shape
        table = np.empty((1 << levels, width, n, n))
        table[0] = np.eye(n)
        table[1] = square = a
        for i in range(1, levels):
            square = np.matmul(square, square)
            half = 1 << i
            np.matmul(table[:half], square, out=table[half:2 * half])
        self.table = np.ascontiguousarray(
            table.transpose(2, 3, 0, 1)).reshape(n, n, -1)
        self.width = width

    def power(self, at, j):
        """``A^j`` ``(N, N, *at.shape)`` at flat ``(row, symbol)``
        indices ``at``."""
        return np.take(self.table, j * self.width + at, axis=2)


class _RunGrid:
    """Loss runs of a stack recursed in one depth loop: forward runs
    (``way`` 0) and backward runs (``way`` 1).

    Laid out ``(rows, 2, runs)`` with each row's runs of a way longest
    first, so the runs still going at depth ``d`` occupy its leading
    columns.  ``t0`` is a run's first loss step, ``l0`` that loss's rank
    among the row's losses and ``length`` its loss count (0 pads);
    ``jp``/``mp`` are the chain node and symbol of the observed step
    before the run, ``jn``/``m`` those of the step after it.
    """

    FIELDS = ("t0", "l0", "length", "jp", "mp", "jn", "m")

    def __init__(self, n_rows, k, way, **fields):
        lane = 2 * k + way
        order = np.lexsort((fields["t0"], -fields["length"], lane))
        lane = lane[order]
        counts = np.bincount(lane, minlength=2 * n_rows)
        col = np.arange(len(lane)) - np.repeat(np.cumsum(counts) - counts,
                                               counts)
        n_runs = int(counts.max(initial=0))
        for name in self.FIELDS:
            grid = np.zeros((2 * n_rows, n_runs), dtype=np.intp)
            grid[lane, col] = fields[name][order]
            setattr(self, name, grid.reshape(n_rows, 2, n_runs))

    def take(self, rows) -> "_RunGrid":
        """The grid of batch rows ``rows`` in a depth-major layout: depth
        ``d`` holds ``(K, 2, width[d])`` run states, ``size`` in all.
        ``fwd`` lists each forward run step's position there and its
        flat ``(loss rank, row)`` slot, ``bwd`` each backward one's;
        ``end`` is each run's last position."""
        sub = object.__new__(_RunGrid)
        n_runs = int((self.length[rows] > 0).sum(axis=2).max(initial=0))
        for name in self.FIELDS:
            setattr(sub, name, getattr(self, name)[rows, :, :n_runs])
        length = sub.length
        sub.depth = int(length.max(initial=0))
        going = np.arange(sub.depth)[:, None, None, None] < length
        sub.width = going.sum(axis=3).max(axis=(1, 2), initial=0)
        first = np.concatenate(([0], np.cumsum(2 * len(rows) * sub.width)))
        sub.size = int(first[-1])

        def at(d, k, way, r):
            return first[d] + (2 * k + way) * sub.width[d] + r

        d, k, way, r = np.nonzero(going)
        pos = at(d, k, way, r)
        f, b = way == 0, way == 1
        n_rows = len(rows)
        sub.fwd = (pos[f], (sub.l0[k[f], 0, r[f]] + d[f]) * n_rows + k[f])
        sub.bwd = (pos[b], (sub.l0[k[b], 1, r[b]] + length[k[b], 1, r[b]]
                            - 1 - d[b]) * n_rows + k[b])
        sub.end = at(np.maximum(length - 1, 0), *np.indices(length.shape))
        return sub


class _FoldedIndex:
    """Run structure of a :class:`SymbolStack` for the folded pass.

    Per stack row, the chain nodes, one per run of one observed symbol
    (module docstring) in time order ``(J, rows)``: first step
    ``node_t``, symbol ``node_m`` and length ``node_k``, ``n_nodes`` of
    them, and the row's observed symbol counts ``obs_counts``.  Node ``j``'s
    run power is ``pow_key[j]`` (``(pow_m, pow_n)`` = ``(m, k - 1)``; 0
    is ``k = 1``, the identity); the loss fold to node ``j + 1`` is
    ``fold_key[j]`` (``(m, r, m')``, ``direct`` for ``r = 0`` and
    ``deeper[r - 1]`` the work of depth ``r`` for :func:`_fold_table`; 0,
    the identity, past a row's last node); and the chain operator is
    ``op_key[j]``, the pair ``(op_pow, op_fold)`` (0 pads).  All keys are
    shared by the stack's rows.  A run's inner steps are one term per
    ``(term_key, term_j)``: each power key with each left exponent below
    its own.  The loss runs are two :class:`_RunGrid`
    s over the row's losses (times ``loss_t``, ``n_loss`` of them):
    ``pre`` holds the leading runs forward and the trailing runs
    backward, ``post`` every other run in each direction.  Built once
    per stack.
    """

    def __init__(self, stack: SymbolStack):
        syms = stack.symbols0
        n_rows, n_symbols = stack.n_rows, stack.n_symbols
        self.n_symbols = n_symbols
        self.lengths = stack.lengths
        self._layout = (None, None)
        observed = stack.observed
        obs_k, obs_t = np.nonzero(observed)
        self.obs_counts = np.bincount(
            obs_k * n_symbols + syms[obs_k, obs_t],
            minlength=n_rows * n_symbols).reshape(n_rows, n_symbols) * 1.0
        #: step t continues the run of step t - 1
        same = np.zeros_like(observed)
        same[:, 1:] = (observed[:, 1:] & observed[:, :-1]
                       & (syms[:, 1:] == syms[:, :-1]))
        ends = observed.copy()
        ends[:, :-1] &= ~same[:, 1:]
        rk, t0 = np.nonzero(observed & ~same)
        t1 = np.nonzero(ends)[1]
        # Runs split into pieces of at most _RUN_CAP steps; a row whose
        # runs average under two steps is not folded (a cap of 1).
        cap = np.where(np.bincount(obs_k, minlength=n_rows)
                       >= 2 * np.bincount(rk, minlength=n_rows),
                       _RUN_CAP, 1)[rk]
        pieces = -(-(t1 - t0 + 1) // cap)
        cap = np.repeat(cap, pieces)
        offset = cap * (np.arange(pieces.sum()) - np.repeat(
            np.cumsum(pieces) - pieces, pieces))
        rk, t0, t1 = (np.repeat(rk, pieces), np.repeat(t0, pieces) + offset,
                      np.repeat(t1, pieces))
        t1 = np.minimum(t1, t0 + cap - 1)
        starts = np.zeros_like(observed)
        starts[rk, t0] = True
        m = syms[rk, t0]
        self.n_nodes = np.bincount(rk, minlength=n_rows)
        j = np.arange(len(rk)) - np.repeat(
            np.cumsum(self.n_nodes) - self.n_nodes, self.n_nodes)
        shape = (int(self.n_nodes.max()), n_rows)

        def node_array(values, fill=0):
            out = np.full(shape, fill, dtype=np.intp)
            out[j, rk] = values
            return out

        self.node_t, self.node_m = node_array(t0), node_array(m)
        self.node_k = node_array(t1 - t0 + 1, fill=1)
        long = t1 > t0
        codes, inv = np.unique((t1 - t0)[long] * n_symbols + m[long],
                               return_inverse=True)
        pow_key = np.zeros(len(rk), dtype=np.intp)
        pow_key[long] = inv + 1
        self.pow_key = node_array(pow_key)
        self.n_pow = len(codes) + 1
        self.pow_n = np.concatenate(([0], codes // n_symbols))
        self.pow_m = np.concatenate(([0], codes % n_symbols))
        #: doubling levels the stack's longest run needs
        self.levels = max(1, int(self.pow_n.max()).bit_length())
        self.term_key = np.repeat(np.arange(self.n_pow), self.pow_n)
        self.term_j = np.arange(len(self.term_key)) - np.repeat(
            np.cumsum(self.pow_n) - self.pow_n, self.pow_n)

        nxt = np.flatnonzero(j > 0)
        run = t0[nxt] - t1[nxt - 1] - 1
        codes, fold = np.unique((run * n_symbols + m[nxt - 1]) * n_symbols
                                + m[nxt], return_inverse=True)
        self.n_folds = len(codes) + 1
        self.fold_key = np.zeros(shape, dtype=np.intp)
        self.fold_key[j[nxt] - 1, rk[nxt]] = fold + 1
        k_run, k_pair = np.divmod(codes, n_symbols * n_symbols)
        k_mp, k_m = np.divmod(k_pair, n_symbols)
        #: loss-run length folded into each fold key (-1: the identity)
        self.key_run = np.concatenate(([-1], k_run))
        pos = np.arange(1, self.n_folds)
        at = k_run == 0
        self.direct = (pos[at], k_mp[at], k_m[at])
        self.deeper = []
        mps = np.arange(n_symbols)
        for r in range(1, int(k_run.max(initial=0)) + 1):
            need = np.unique(k_mp[k_run >= r])
            at = k_run == r
            self.deeper.append((np.searchsorted(mps, need), pos[at],
                                np.searchsorted(need, k_mp[at]), k_m[at]))
            mps = need
        codes, op = np.unique(pow_key[nxt - 1] * self.n_folds + fold + 1,
                              return_inverse=True)
        self.op_key = np.zeros((max(shape[0] - 1, 0), n_rows), dtype=np.intp)
        self.op_key[j[nxt] - 1, rk[nxt]] = op + 1
        self.n_keys = len(codes) + 1
        self.op_pow = np.concatenate(([0], codes // self.n_folds))
        self.op_fold = np.concatenate(([0], codes % self.n_folds))

        lost = stack.lost
        loss_k, loss_t = np.nonzero(lost)
        self.n_loss = np.bincount(loss_k, minlength=n_rows)
        rank = np.arange(len(loss_k)) - np.repeat(
            np.cumsum(self.n_loss) - self.n_loss, self.n_loss)
        self.loss_t = np.zeros((int(self.n_loss.max(initial=0)), n_rows),
                               dtype=np.intp)
        self.loss_t[rank, loss_k] = loss_t
        before = np.zeros_like(lost)
        before[:, 1:] = lost[:, :-1]
        after = np.zeros_like(lost)
        after[:, :-1] = lost[:, 1:]
        rk, t0 = np.nonzero(lost & ~before)
        t1 = np.nonzero(lost & ~after)[1]
        jp = np.cumsum(starts, axis=1)[rk, t0] - 1
        fields = {
            "t0": t0, "l0": np.cumsum(lost, axis=1)[rk, t0] - 1,
            "length": t1 - t0 + 1, "jp": jp, "jn": jp + 1,
            "mp": np.maximum(syms[rk, np.maximum(t0 - 1, 0)], 0),
            "m": np.maximum(syms[rk, np.minimum(t1 + 1, stack.t_max - 1)],
                            0),
        }
        lead = t0 == 0
        trail = t1 == self.lengths[rk] - 1

        def grid(fwd, bwd):
            sel = np.concatenate((np.flatnonzero(fwd), np.flatnonzero(bwd)))
            way = np.repeat([0, 1], [np.count_nonzero(fwd), len(sel)
                                     - np.count_nonzero(fwd)])
            return _RunGrid(n_rows, rk[sel], way,
                            **{f: v[sel] for f, v in fields.items()})

        # A leading run's forward start and a trailing run's backward end
        # are known before the chain is scanned; every other run's are not.
        self.pre = grid(lead, trail)
        self.post = grid(~lead, ~trail)

    def layout(self, rows, n_hidden: int) -> "_FoldedRows":
        """The :class:`_FoldedRows` of ``rows``, kept for the latest set."""
        key = (n_hidden, rows.tobytes())
        if self._layout[0] != key:
            self._layout = (key, _FoldedRows(self, rows, n_hidden))
        return self._layout[1]


def _vecmat(x, m, out=None):
    """``x @ m`` per stacked vector ``x`` ``(..., n)`` and matrix ``m``
    ``(..., n, p)``: elementwise steps summed over ``n`` in order, so a
    row's bits never depend on the stack's shape.  A narrow output goes
    one component at a time (an array op over a short last axis runs
    one inner loop per vector)."""
    if out is None:
        out = np.empty(x.shape[:-1] + m.shape[-1:])
    if m.shape[-1] > 4:
        np.multiply(x[..., 0, None], m[..., 0, :], out=out)
        for i in range(1, x.shape[-1]):
            out += x[..., i, None] * m[..., i, :]
        return out
    for j in range(m.shape[-1]):
        col = np.multiply(x[..., 0], m[..., 0, j], out=out[..., j])
        for i in range(1, x.shape[-1]):
            col += x[..., i] * m[..., i, j]
    return out


def _matvec(m, x):
    """``m @ x`` per stacked matrix and vector, as :func:`_vecmat`."""
    return _vecmat(x, np.swapaxes(m, -1, -2))


def _fold_table(fidx: _FoldedIndex, t_oo, t_ol, t_lo, t_ll):
    """Every fold key's ``(N, N)`` operator per row, ``(K, F, N, N)``.

    Key 0 is the identity.  Key ``(mp, r, m)`` folds ``r`` losses:
    ``T_oo[mp, m]`` for ``r = 0``, else ``T_ol[mp] @ T_ll^(r-1) @
    T_lo[m]``, with the ``T_ol @ T_ll^(r-1)`` prefixes advanced one depth
    per step for just the symbols a longer run still needs.  A folded
    operator is about ``c^r`` and would underflow for long runs, so it
    is stored times an exact power of two, which no posterior depends
    on: ``T_ll`` is divided by the one at or below its largest row sum,
    the prefixes are renormalised every :data:`_RESCALE_EVERY` depths,
    and each folded operator ends with its largest entry in ``[1, 2)``.
    ``r = 0`` keys are stored exactly.
    """
    n_rows, n = len(t_oo), t_oo.shape[-1]
    table = np.empty((n_rows, fidx.n_folds, n, n))
    table[:, 0] = np.eye(n)
    pos, mp, m = fidx.direct
    table[:, pos] = t_oo[:, mp, m]
    if not fidx.deeper:
        return table
    row_sum = np.amax(np.add.reduce(t_ll, axis=2), axis=1)
    t_ll = np.ldexp(t_ll, -(np.frexp(row_sum)[1] - 1)[:, None, None])
    prefix = t_ol
    for r, (keep, pos, sel, m) in enumerate(fidx.deeper, start=1):
        prefix = prefix[:, keep]
        if r > 1:
            prefix = np.matmul(prefix, t_ll[:, None])
            if r % _RESCALE_EVERY == 0:
                _normalise(prefix)
        if len(pos):
            table[:, pos] = np.matmul(prefix[:, sel], t_lo[:, m])
    # Keys sort by run length, so the folded ones are the tail.
    _normalise(table[:, 1 + len(fidx.direct[0]):])
    return table


def _node_table(fidx: _FoldedIndex, lay, t_oo, t_ol, t_lo, t_ll):
    """One pass's operators: the run powers (:class:`_Powers`), each
    power key's ``A_m^(k-1)`` ``(N, N, P * K)`` (flat key-major), the fold
    table (:func:`_fold_table`), the node operator table ``(K, U, N, N)``
    — key 0 the identity, key ``(p, f)`` power ``p`` times fold ``f``
    divided by ``2^x`` to a largest entry in ``[1, 2)`` — and those
    ``x`` (flat ``(U - 1, K)``).  With no run longer than one step every
    power is the identity and the node operators are the folds
    themselves (``None`` powers and exponents)."""
    folds = _fold_table(fidx, t_oo, t_ol, t_lo, t_ll)
    if fidx.n_pow == 1:
        return None, None, folds, folds, None
    n, n_rows = t_oo.shape[-1], len(t_oo)
    sym = np.arange(fidx.n_symbols)
    powers = _Powers(t_oo[:, sym, sym].reshape(-1, n, n), fidx.levels)
    run_op = powers.power(lay.pow_sym, lay.pow_n)
    table = _mm(np.take(run_op.reshape(n, n, -1, n_rows), fidx.op_pow,
                        axis=2).reshape(n, n, -1),
                np.take(folds.transpose(2, 3, 1, 0), fidx.op_fold,
                        axis=2).reshape(n, n, -1))
    table_expo = _normalise(table[..., n_rows:], major=True)
    return (powers, run_op, folds,
            table.reshape(n, n, -1, n_rows).transpose(3, 2, 0, 1), table_expo)


def _runs(start, grid: _RunGrid, steps, ws):
    """Normalised recursion through loss runs, vectorised over runs and
    both directions.

    ``start`` ``(K, W, R, S)`` is each run's unnormalised first state
    and ``steps`` ``(K, W, S, S)`` each way's step: ``t_ll`` forward and
    ``t_ll`` transposed backward, whose row-vector step is ``beta[t] =
    t_ll @ beta[t + 1]``.  ``W = 1`` runs the forward way alone.  Depth
    ``d`` advances every run still going by one step.  Returns the
    normalised states ``(size, S)`` and their totals ``(size,)`` in the
    grid's depth-major layout, views of ``ws`` buffers valid until the
    next run recursion."""
    n_rows, ways, _, n = start.shape
    states = ws.get("runs", (grid.size, n), start.dtype)
    totals = ws.get("run_totals", (grid.size,), start.dtype)
    at, state = 0, start
    for d, w in enumerate(grid.width):
        size = 2 * n_rows * w
        if d:
            state = np.matmul(state[:, :, :w, None, :],
                              steps[:, :, None])[..., 0, :]
        total = np.add.reduce(state, axis=-1)
        totals[at:at + size].reshape(n_rows, 2, w)[:, :ways] = total
        state = np.divide(state, total[..., None], out=states[
            at:at + size].reshape(n_rows, 2, w, n)[:, :ways])
        at += size
    return states, totals


class _FoldedRows:
    """One set of stack rows laid out for the folded pass, with the
    buffers its passes reuse.

    Everything here depends on the rows alone, so it is built once per
    active row set (EM iterations repeat a set until a row retires).  A
    pass writes the same slots of the buffers every time — each row's
    node scales, loss steps and log-likelihood terms — so they are
    filled (zeros, unit scales past a row's end) once and never cleared.
    The other scratch lives in the fit's workspace, so iterations do not
    page-fault it anew.
    """

    def __init__(self, fidx: "_FoldedIndex", rows, n_hidden: int):
        n_rows, n_symbols = len(rows), fidx.n_symbols
        n_states = n_hidden * n_symbols
        k = np.arange(n_rows)
        self.n_nodes, self.n_loss = fidx.n_nodes[rows], fidx.n_loss[rows]
        j_max, l_max = int(self.n_nodes.max()), int(self.n_loss.max())
        self.t_act = int(fidx.lengths[rows].max())
        self.node_t = fidx.node_t[:j_max, rows]
        self.node_m = fidx.node_m[:j_max, rows]
        self.node_k = fidx.node_k[:j_max, rows]
        self.loss_t = fidx.loss_t[:l_max, rows]
        self.valid = np.arange(j_max)[:, None] < self.n_nodes
        self.vj, self.vk = np.nonzero(self.valid)
        self.lj, self.lk = np.nonzero(np.arange(l_max)[:, None] < self.n_loss)
        self.last = (self.n_nodes - 1, k)
        #: Each power key per row (flat key-major): its (row, symbol)
        #: power index and exponent.
        self.pow_sym = (fidx.pow_m[:, None] + k * n_symbols).reshape(-1)
        self.pow_n = np.repeat(fidx.pow_n, n_rows)
        pow_key = fidx.pow_key[:j_max, rows]
        fold_key = fidx.fold_key[:j_max, rows]
        #: Each node's run power and fold in the pass's flat key-major
        #: (P, K) and row-major (K, F) tables.
        self.pow_at = pow_key * n_rows + k
        self.fold_at = fold_key + k * fidx.n_folds
        # Each lane's operators in the pass's lane table: row k's forward
        # lane takes its node operators, its backward lane K + k their
        # transposes (the table's second half) from its last node back.
        op_key = fidx.op_key[:j_max - 1, rows]
        #: Each node operator's power-of-two exponent in the pass's flat
        #: key-major (U - 1, K) table (padding reads any).
        self.op_expo_at = np.maximum(op_key - 1, 0) * n_rows + k
        lane = np.arange(2 * n_rows) * fidx.n_keys
        self.lane_idx = np.concatenate((op_key, np.take_along_axis(
            op_key, _reversed_steps(self.n_nodes - 1, j_max - 1), axis=0)),
            axis=1) + lane
        #: Row k's backward lane value at node j, flat over the sweep's
        #: (J, 2K) lanes.
        self.back_at = (_reversed_steps(self.n_nodes, j_max) * (2 * n_rows)
                        + np.arange(n_rows, 2 * n_rows))
        self.pre, self.post = fidx.pre.take(rows), fidx.post.take(rows)
        post, pre = self.post, self.pre
        #: Flat gather indices of the loss runs' neighbours: the node
        #: before each post run and its symbol's (row, symbol) slot, the
        #: node after it and its symbol's slot; for the pre runs the
        #: symbol after the leading run and before the trailing one.
        sym_at = k[:, None, None] * n_symbols
        self.post_at = (post.jp[:, 0] * n_rows + k[:, None],
                        post.mp[:, 0] + sym_at[:, 0],
                        post.jn[:, 1] * n_rows + k[:, None],
                        post.m + sym_at)
        if pre.depth:
            self.pre_m_at = pre.m[:, 0, 0] + k * n_symbols
            self.pre_mp_at = pre.mp[:, 1, 0] + k * n_symbols
        # Forward runs followed by a node, whose scale they set.
        kv, rv = np.nonzero((post.length[:, 0] > 0)
                            & (post.jn[:, 0] < self.n_nodes[:, None]))
        self.exits = (kv, rv, post.jn[kv, 0, rv])
        #: Runs longer than one step (flat (J, K) index ``long_at``), and
        #: every other slot.
        self.single = ~(self.valid & (self.node_k > 1))
        self.long = lj, lk = np.nonzero(~self.single)
        self.long_at = lj * n_rows + lk
        #: Flat (J, K) index of every node and (L, K) index of every loss.
        self.node_at = self.vj * n_rows + self.vk
        self.loss_at = self.lj * n_rows + self.lk
        self.node_scale = np.ones((j_max, n_rows))
        self.loss_scale = np.ones((l_max, n_rows))
        self.loss_alpha = np.zeros((l_max, n_rows, n_states))
        self.loss_beta = np.zeros_like(self.loss_alpha)
        #: The loss slots a row owns (all of them unless rows differ).
        self.loss_owned = (True if (self.n_loss == l_max).all() else
                           np.arange(l_max)[:, None] < self.n_loss)
        #: Log-likelihood terms at their steps (flat (T, K)): each node's
        #: scale, each longer run's product of scales at its last step,
        #: each loss step's scale.
        self.logs = np.zeros((self.t_act, n_rows))
        self.log_at = (
            self.node_t[self.vj, self.vk] * n_rows + self.vk,
            (self.node_t[lj, lk] + self.node_k[lj, lk] - 1) * n_rows + lk,
            self.loss_t[self.lj, self.lk] * n_rows + self.lk)
        self.steps = None
        self.n_symbols, self.n_hidden = n_symbols, n_hidden
        #: Length groups of the rows (log-likelihood sums) and of their
        #: chains (the sweep's ragged padding, forward lanes alone or
        #: with the backward ones).
        self.groups = _length_groups(fidx.lengths[rows])
        self.node_groups = _length_groups(self.n_nodes)
        self.lane_groups = _lane_groups(self.node_groups, n_rows)
        self._statistics = (fidx, rows, n_hidden)

    def with_statistics(self):
        """The layout with what :meth:`_FoldedPass.statistics` reads,
        built on first use: a forward-only pass (the diagnostics pass)
        never needs it."""
        if self._statistics is None:
            return self
        fidx, rows, n_hidden = self._statistics
        self._statistics = None
        n_rows, n_symbols = len(rows), self.n_symbols
        n_states = n_hidden * n_symbols
        k = np.arange(n_rows)
        lj, lk = self.long
        post = self.post
        self.obs_counts = fidx.obs_counts[rows]
        self.long_ends = self.run_ends(lj, lk)
        # The xi statistic's terms.  Node -> node steps with no loss sum
        # per (row, symbol pair, component) bin; a run's inner steps sum
        # their outer product per (row, power key, component) bin, then
        # each term per (row, symbol, component); every other term has a
        # loss step on one side and is a product of (L, K, S) loss-layout
        # arrays: the state before each loss (``before``: the previous
        # loss, or a run's end state on its symbol's columns) against the
        # loss's weighted beta, and each loss's alpha against the weighted
        # beta of the node after it (``after``).
        comp = np.arange(n_hidden * n_hidden)

        def bins(at):
            return (at[..., None] * len(comp) + comp).reshape(-1)

        aj, ak = np.nonzero(self.valid[1:] & (
            fidx.key_run[fidx.fold_key[:len(self.valid) - 1, rows]] == 0))
        self.oo = (aj * n_rows + ak, (aj + 1) * n_rows + ak, bins(
            (ak * n_symbols + self.node_m[aj, ak]) * n_symbols
            + self.node_m[aj + 1, ak]))
        self.n_oo_bins = n_rows * n_symbols * n_symbols * len(comp)
        self.run_bins = bins(self.pow_at[lj, lk])
        self.n_run_bins = n_rows * fidx.n_pow * len(comp)
        #: Each inner-step term per row (term-major): its (row, symbol)
        #: power index, left and right exponents, power key (flat
        #: key-major) and xi bins.
        key, j = fidx.term_key, fidx.term_j
        self.term_sym = (fidx.pow_m[key][:, None] + k * n_symbols).reshape(-1)
        self.term_j = np.repeat(j, n_rows)
        self.term_r = np.repeat(fidx.pow_n[key] - 1 - j, n_rows)
        self.term_key = (key[:, None] * n_rows + k).reshape(-1)
        self.term_bins = bins(self.term_sym)
        self.n_sym_bins = n_rows * n_symbols * len(comp)
        #: Flat (row, symbol) index of every node.
        self.survive_at = k * n_symbols + self.node_m
        steps = np.arange(len(self.loss_t))[:, None]
        gap = np.diff(self.loss_t, axis=0, prepend=-2)
        self.follow = np.nonzero((steps < self.n_loss) & (gap == 1))
        cols = n_symbols * np.arange(n_hidden)

        def embed(way, rank, node, sym):
            # The runs after a node's run are post's forward ones, the
            # runs before a node its backward ones.
            k_, r_ = np.nonzero(post.length[:, way] > 0)
            pos = ((rank[k_, way, r_] * n_rows + k_) * n_states
                   + sym[k_, way, r_])[:, None] + cols
            return pos, node[k_, way, r_], k_

        self.before = embed(0, post.l0, post.jp, post.mp)
        self.after = embed(1, post.l0 + post.length - 1, post.jn, post.m)
        #: Length groups of the rows' losses (the loss-side GEMMs).
        self.loss_groups = _length_groups(self.n_loss)
        self.xi_before, self.xi_after = np.zeros((2,) + self.loss_alpha.shape)
        return self

    def run_ends(self, j, k):
        """What :meth:`_FoldedPass.end_beta` reads for nodes ``j`` of rows
        ``k``: their fold, the next node (flat), which of them end their
        row (and its row) and the nodes themselves (flat)."""
        n_rows = len(self.n_nodes)
        last = j == self.n_nodes[k] - 1
        return (self.fold_at[j, k], np.where(last, j, j + 1) * n_rows + k,
                last, k[last], j * n_rows + k)

    def observed_steps(self):
        """Every observed step of the rows in node order: its node ``j``,
        row ``k``, offset ``o`` into the run, time ``t``, symbol and
        flat ``(J, K)`` node index."""
        if self.steps is None:
            count = self.node_k[self.vj, self.vk]
            o = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count,
                                                   count)
            j, k = np.repeat(self.vj, count), np.repeat(self.vk, count)
            self.steps = (j, k, o, self.node_t[j, k] + o, self.node_m[j, k],
                          np.repeat(self.node_at, count))
        return self.steps


class _FoldedPass:
    """The values of one folded pass over a :class:`_FoldedRows` layout.

    Per node ``(J, K, N)``: ``node_alpha``/``node_beta`` at its run's
    first step and ``end_alpha`` at its last (:meth:`end_beta` gives the
    beta there), each alpha normalised and each beta scaled so ``alpha .
    beta = 1``; ``node_scale`` ``(J, K)`` is the node step's scale and
    ``run_total`` the product of the run's other steps' scales.  Per
    loss in time order ``(L, K, S)``: ``loss_alpha``, ``loss_beta`` and
    ``loss_scale`` ``(L, K)``.  ``loglik`` is the per-row
    log-likelihood.  The layout's and the workspace's buffers, valid
    until the next pass; the betas are ``None`` after a forward-only
    pass.  Per-step values are rebuilt on demand (:meth:`alpha`,
    :meth:`beta`, :meth:`scales`).
    """

    def __init__(self, layout: _FoldedRows, ws, powers, node_alpha,
                 end_alpha, run_total):
        self.layout, self.ws, self.powers = layout, ws, powers
        self.node_alpha, self.end_alpha = node_alpha, end_alpha
        self.run_total = run_total
        self.node_beta = self.loss_beta = self.loglik = self.steps = None
        #: the flat fold table and each row's beta at its last run's end
        self.folds = self.end_last = None
        self.loss_alpha = layout.loss_alpha
        self.node_scale, self.loss_scale = layout.node_scale, layout.loss_scale

    def log_likelihood(self):
        """The per-row log-likelihood ``(K,)``: each row's terms summed
        over its own steps (per length group, so a row's sum never
        depends on its batch).  A row whose likelihood is zero or
        undefined raises :class:`~repro.models.scan._BatchZeroLikelihood`
        at its first such step instead."""
        lay = self.layout
        logs = lay.logs.reshape(-1)
        node_at, run_at, loss_at = lay.log_at
        logs[node_at] = np.log(np.take(self.node_scale, lay.node_at))
        logs[run_at] = np.log(np.take(self.run_total, lay.long_at))
        logs[loss_at] = np.log(np.take(self.loss_scale, lay.loss_at))
        out = np.empty(len(lay.n_nodes))
        for t_g, idx in lay.groups:
            out[idx] = np.ascontiguousarray(lay.logs[:t_g, idx].T).sum(axis=1)
        if not np.isfinite(out).all():
            _check_scales(self.scales())
        return out

    def end_beta(self, ends):
        """The beta ``(Q, N)`` at the last step of each run of ``ends``
        (:meth:`_FoldedRows.run_ends`): the fold to the next node times
        that node's beta (a row's last run: ``end_last``), scaled so
        ``alpha . beta = 1``."""
        fold_at, next_at, last, last_rows, at = ends
        out = _matvec(np.take(self.folds, fold_at, axis=0), np.take(
            self.node_beta.reshape(-1, self.node_beta.shape[2]), next_at,
            axis=0))
        out[last] = self.end_last[last_rows]
        out /= np.add.reduce(np.take(self.end_alpha.reshape(
            -1, out.shape[1]), at, axis=0) * out, axis=1)[:, None]
        return out

    def _forward_steps(self):
        """Normalised ``alpha`` ``(Q, N)`` and scale ``(Q,)`` of every
        observed step (:meth:`_FoldedRows.observed_steps`): the node's
        alpha times the run power of the step's offset."""
        if self.steps is None:
            self.steps = self._rebuild_steps()
        return self.steps

    def _rebuild_steps(self):
        lay = self.layout
        _, k, o, _, m, at = lay.observed_steps()
        state = np.take(self.node_alpha.reshape(-1, lay.n_hidden), at,
                        axis=0)
        if self.powers is not None:
            state = _vecmat(state, self.powers.power(
                k * lay.n_symbols + m, o).transpose(2, 0, 1))
        total = np.add.reduce(state, axis=1)
        inner = o > 0
        scale = np.take(self.node_scale, at)
        with np.errstate(divide="ignore", invalid="ignore"):
            # A step inside a run: the ratio of its total to the previous
            # step's.
            scale[inner] = (total[1:] / total[:-1])[inner[1:]]
            return state / total[:, None], scale

    def _dense(self, obs, loss):
        """Per-observed-step ``(Q, N)`` and loss ``(L, K, S)`` values in
        a zero ``(K, T, S)`` array, the dense recursion's layout."""
        lay = self.layout
        _, k, _, t, m, _ = lay.observed_steps()
        n_hidden, n_states = obs.shape[1], loss.shape[2]
        out = np.zeros((len(lay.n_nodes), lay.t_act, n_states))
        out.reshape(-1, n_states)[lay.lk * lay.t_act + lay.loss_t[
            lay.lj, lay.lk]] = loss[lay.lj, lay.lk]
        out.reshape(-1)[((k * lay.t_act + t) * n_states + m)[:, None]
                        + (n_states // n_hidden) * np.arange(n_hidden)] = obs
        return out

    def alpha(self):
        """The normalised forward ``alpha`` ``(K, T, S)`` per step."""
        return self._dense(self._forward_steps()[0], self.loss_alpha)

    def beta(self):
        """The scaled backward ``beta`` ``(K, T, S)`` per step, on each
        step's support: the run's end beta times the run power of the
        steps left, scaled so ``alpha . beta = 1``."""
        lay = self.layout
        j, k, o, _, m, _ = lay.observed_steps()
        state = self.end_beta(lay.run_ends(j, k))
        if self.powers is not None:
            state = _matvec(self.powers.power(
                k * lay.n_symbols + m, lay.node_k[j, k] - 1 - o)
                .transpose(2, 0, 1), state)
        state /= np.add.reduce(self._forward_steps()[0] * state,
                               axis=1)[:, None]
        return self._dense(state, self.loss_beta)

    def scales(self):
        """The per-step scales ``(T, K)`` (1 past a row's end)."""
        lay = self.layout
        _, k, _, t, _, _ = lay.observed_steps()
        out = np.ones((lay.t_act, len(lay.n_nodes)))
        out[t, k] = self._forward_steps()[1]
        out[lay.loss_t[lay.lj, lay.lk], lay.lk] = \
            self.loss_scale[lay.lj, lay.lk]
        return out

    def statistics(self, survive, c_state, n_hidden):
        """``(xi, gamma0, loss_mass, total_mass)`` of the pass, with ``xi``
        the expected transition counts before the ``transition`` factor.

        Every sum runs over each row's own steps in a fixed order —
        ``bincount`` accumulates in node order, the loss-side GEMMs
        contract over exactly the row's losses (grouped by loss count) —
        so a row's statistics never depend on its batch."""
        lay = self.layout.with_statistics()
        n_rows = len(lay.n_nodes)
        k = np.arange(n_rows)
        n_states = self.loss_alpha.shape[2]
        n_symbols = n_states // n_hidden
        ws = self.ws
        loss_gamma = np.multiply(self.loss_alpha, self.loss_beta,
                                 out=ws.get("loss_gamma", self.loss_alpha.shape))
        loss_mass = np.add.reduce(loss_gamma.reshape(
            len(loss_gamma), n_rows, n_hidden, n_symbols).sum(axis=2), axis=0)
        gamma0 = np.zeros((n_rows, n_states))
        opens = lay.node_t[0] == 0
        cols = lay.node_m[0][:, None] + n_symbols * np.arange(n_hidden)
        gamma0[k[opens, None], cols[opens]] = (
            self.node_alpha[0] * self.node_beta[0])[opens]
        if not opens.all():  # a row opening with a loss has l_max >= 1
            gamma0[~opens] = loss_gamma[0][~opens]

        # weighted[t] = likes[t] * beta[t] / scales[t], nodes and losses.
        ratio = ws.take("w_ratio", survive.reshape(-1), lay.survive_at)
        ratio /= self.node_scale
        w_node = np.multiply(self.node_beta, ratio[..., None],
                             out=ws.get("w_node", self.node_beta.shape))
        w_loss = np.divide(c_state, self.loss_scale[..., None],
                           out=ws.get("w_loss", self.loss_beta.shape))
        w_loss *= self.loss_beta
        a_at, w_at, bins = lay.oo
        a = ws.take("xi_a", self.end_alpha.reshape(-1, n_hidden), a_at)
        w = ws.take("xi_w", w_node.reshape(-1, n_hidden), w_at)
        # (An empty bincount is integer.)
        xi = np.bincount(bins, weights=(a[:, :, None] * w[:, None, :])
                         .reshape(-1), minlength=lay.n_oo_bins).astype(
            float, copy=False).reshape(n_rows, n_symbols, n_symbols,
                                       n_hidden, n_hidden)
        lj, lk = lay.long
        if len(lj):
            # A run's inner steps: sum_j A^j y A^(k-2-j) with y its end
            # beta against its entry alpha over the run's total.
            entry = np.take(self.node_alpha.reshape(-1, n_hidden),
                            lay.long_at, axis=0)
            entry /= np.take(self.run_total, lay.long_at)[:, None]
            y = np.bincount(lay.run_bins, weights=(
                self.end_beta(lay.long_ends)[:, :, None] * entry[:, None, :])
                .reshape(-1), minlength=lay.n_run_bins)
            # One term A^j y A^(n-1-j) per power key and j < n.
            terms = _mm(_mm(self.powers.power(lay.term_sym, lay.term_j),
                            np.take(y.reshape(-1, n_hidden, n_hidden)
                                    .transpose(1, 2, 0), lay.term_key,
                                    axis=2)),
                        self.powers.power(lay.term_sym, lay.term_r))
            inner = np.bincount(lay.term_bins, weights=terms.transpose(
                2, 1, 0).reshape(-1), minlength=lay.n_sym_bins)
            sym = np.arange(n_symbols)
            xi[:, sym, sym] += survive[:, :, None, None] * inner.reshape(
                n_rows, n_symbols, n_hidden, n_hidden)
        xi = xi.transpose(0, 3, 1, 4, 2).reshape(n_rows, n_states, n_states)
        # Only these slots of the zeroed buffers are ever written.
        before = lay.xi_before
        before[lay.follow[0], lay.follow[1]] = \
            self.loss_alpha[lay.follow[0] - 1, lay.follow[1]]
        pos, j, kk = lay.before
        before.reshape(-1)[pos] = self.end_alpha[j, kk]
        after = lay.xi_after
        pos, j, kk = lay.after
        after.reshape(-1)[pos] = w_node[j, kk]
        for l_g, idx in lay.loss_groups:
            xi[idx] += (
                np.matmul(before[:l_g, idx].transpose(1, 2, 0),
                          w_loss[:l_g, idx].transpose(1, 0, 2))
                + np.matmul(self.loss_alpha[:l_g, idx].transpose(1, 2, 0),
                            after[:l_g, idx].transpose(1, 0, 2)))
        return xi, gamma0, loss_mass, loss_mass + lay.obs_counts


def _folded_forward_backward(batch, aux, rows, backward=True):
    """Run-folded forward-backward of an MMHD stack (module docstring).

    ``rows`` are the stack rows of the batch rows.  Returns a
    :class:`_FoldedPass` whose values equal the dense recursion's to
    round-off.  Order of work: the pass's operator tables, the runs the
    chain's ends need (leading runs forward, trailing runs backward), one
    sweep over the nodes' forward and backward lanes, each run's end
    state, every other loss run in both directions, and the rescale of
    the backward values.  ``backward=False`` runs the forward lanes and
    runs alone, bit for bit as the full pass does.
    """
    fidx = aux.folded
    n_rows, n_hidden, n_symbols = batch.n_rows, aux.n_hidden, aux.n_symbols
    n_states = aux.n_states
    t_oo, t_ol, t_lo, t_ll, survive, c_state = batch._structured_blocks(aux)
    pi = batch.pi
    k = np.arange(n_rows)[:, None]
    lay = fidx.layout(rows, n_hidden)
    ws = aux.workspace
    loss_alpha, loss_beta = lay.loss_alpha, lay.loss_beta
    node_scale, loss_scale = lay.node_scale, lay.loss_scale
    pre, post = lay.pre, lay.post
    j_max = len(lay.node_m)
    ways = 2 if backward else 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        powers, run_op, folds, table, table_expo = _node_table(
            fidx, lay, t_oo, t_ol, t_lo, t_ll)
        if backward:
            table = np.concatenate((table, table.swapaxes(2, 3)))
        flat = table.reshape(-1, n_hidden, n_hidden)
        lane_idx = lay.lane_idx[:, :ways * n_rows]
        steps = np.stack((t_ll, t_ll.swapaxes(1, 2)), axis=1)[:, :ways]
        t_ol_flat = t_ol.reshape(-1, n_hidden, n_states)
        t_lo_flat = t_lo.reshape(-1, n_states, n_hidden)
        if powers is not None:
            run_op = np.ascontiguousarray(
                run_op.reshape(n_hidden, n_hidden, -1).transpose(2, 0, 1))

        def ops_at(o0, o1, out):
            np.take(flat, lane_idx[o0:o1], axis=0, out=out, mode="clip")

        def runs(grid, start):
            states, totals = _runs(start, grid, steps, ws)
            pos, at = grid.fwd
            loss_alpha.reshape(-1, n_states)[at] = ws.take("run_put", states,
                                                           pos)
            loss_scale.reshape(-1)[at] = totals[pos]
            if backward:
                pos, at = grid.bwd
                loss_beta.reshape(-1, n_states)[at] = ws.take(
                    "run_put", states, pos)
            return states

        # The first node's forward state, and the beta at the last run's
        # end (1, or what a trailing loss run leaves it).
        m0 = lay.node_m[0]
        init = np.ones((ways * n_rows, n_hidden))
        init[:n_rows] = (pi[k, m0[:, None] + n_symbols * np.arange(n_hidden)]
                         * survive[k[:, 0], m0][:, None])
        end_last = np.ones((n_rows, n_hidden))
        if pre.depth:
            start = np.ones((n_rows, ways, pre.length.shape[2], n_states))
            start[:, 0] = (pi * c_state)[:, None, :]
            # A row has at most one leading and one trailing run.
            last = runs(pre, start)[pre.end[..., 0]]
            enter = _vecmat(last[:, 0], np.take(t_lo_flat, lay.pre_m_at,
                                                axis=0))
            has = pre.length[:, 0, 0] > 0
            init[:n_rows][has] = enter[has]
            if backward:
                leave = _matvec(np.take(t_ol_flat, lay.pre_mp_at, axis=0),
                                last[:, 1])
                has = pre.length[:, 1, 0] > 0
                end_last[has] = leave[has]
        if backward:
            # The last node's beta: its run's power times that end beta.
            init[n_rows:] = end_last if powers is None else _matvec(
                run_op[lay.pow_at[lay.last]], end_last)
        lanes, lane_scales = _scan_forward(
            init, ops_at, j_max, RAGGED_BLOCK_SIZE,
            lay.lane_groups if backward else lay.node_groups, ws)
        a_n = ws.get("node_alpha", (j_max, n_rows, n_hidden))
        np.copyto(a_n, lanes[:, :n_rows])
        # Each run's end: its node's alpha times the run's power (a
        # one-step run's total is 1 exactly).
        end_alpha, run_total = a_n, np.ones((j_max, n_rows))
        if powers is not None:
            end_alpha = _vecmat(a_n, ws.take("run_ops", run_op, lay.pow_at),
                                ws.get("end_alpha", a_n.shape))
            np.add.reduce(end_alpha, axis=2, out=run_total)
            np.copyto(run_total, 1.0, where=lay.single)
            end_alpha /= run_total[..., None]
        # A node's scale: the sweep's node-to-node scale over the run's
        # total, times the power of two its operator was divided by; a
        # node after a loss run takes the run's exit scale instead.
        node_scale[0] = lane_scales[0, :n_rows]
        np.divide(lane_scales[1:, :n_rows], run_total[:-1],
                  out=node_scale[1:])
        if table_expo is not None:
            node_scale[1:] *= np.take(np.ldexp(1.0, table_expo),
                                      lay.op_expo_at)
        if backward:
            b_n = ws.take("node_beta", lanes.reshape(-1, n_hidden),
                          lay.back_at)
        if post.depth:
            start = np.empty((n_rows, ways, post.length.shape[2], n_states))
            # A run's first loss after the end of the run before it, and
            # its last loss before the node after it.
            jp_at, mp_at, jn_at, m_at = lay.post_at
            _vecmat(np.take(end_alpha.reshape(-1, n_hidden), jp_at, axis=0),
                    np.take(t_ol_flat, mp_at, axis=0), out=start[:, 0])
            if backward:
                start[:, 1] = _matvec(np.take(t_lo_flat, m_at[:, 1], axis=0),
                                      np.take(b_n.reshape(-1, n_hidden),
                                              jn_at, axis=0))
            last = runs(post, start)[post.end[:, 0]]
            exit_scale = np.add.reduce(last * np.take(
                np.add.reduce(t_lo, axis=-1).reshape(-1, n_states),
                m_at[:, 0], axis=0), axis=-1)
            kv, rv, exit_j = lay.exits
            node_scale[exit_j, kv] = exit_scale[kv, rv]
        fp = _FoldedPass(lay, ws, powers, a_n, end_alpha, run_total)
        fp.loglik = fp.log_likelihood()
        if backward:
            fp.folds = folds.reshape(-1, n_hidden, n_hidden)
            fp.end_last = end_last
            fp.node_beta = _rescale_beta(a_n, b_n, ws)
            fp.loss_beta = _rescale_beta(loss_alpha, loss_beta, ws,
                                         where=lay.loss_owned)
    return fp
