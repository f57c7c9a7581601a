"""The loss-folded MMHD forward-backward pass.

At an observed step the MMHD state sits in the ``N`` states of that
symbol (see :mod:`repro.models.mmhd`), so between two observed steps
the recursion is an ``N x N`` operator once the loss run separating
them is folded in: ``T_oo[mp, m]`` with no loss between them, else
``T_ol[mp] @ T_ll^(r-1) @ T_lo[m]`` across ``r`` losses.
:func:`_folded_forward_backward` builds those operators once per E-pass
in a table keyed by ``(previous symbol, run length, symbol)``
(:func:`_fold_table`) and scans each row's chain of observed steps with
the blocked kernel in one sweep: the forward chain and, as extra lanes,
the backward chain over the transposed operators in reversed time.  The
loss steps' ``alpha`` and ``beta`` come from depth loops vectorised
across all runs, both directions at once (:func:`_runs`): one before the
sweep (leading runs forward, trailing runs backward) and one after it
(every other run).  The backward values are normalised by their own
sums, so they never read the forward scales, and one rescale per layout
turns them into the scaled recursion's (``scan._rescale_beta``).  An
E-pass costs about ``B + J / B`` (``J`` observed steps) plus the two
longest loss runs in numpy calls instead of ``2 T``.  Every MMHD stack —
restart, hedged warm, fused ragged, one-row — runs this one pass.
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


class _RunGrid:
    """Loss runs of a stack recursed in one depth loop: forward runs
    (``way`` 0) and backward runs (``way`` 1).

    Laid out ``(rows, 2, runs)`` with each row's runs of a way longest
    first, so the runs still going at depth ``d`` occupy its leading
    columns.  ``t0`` is a run's first loss step, ``l0`` that loss's rank
    among the row's losses and ``length`` its loss count (0 pads);
    ``jp``/``mp`` are the chain index and symbol of the observed step
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
        ``fwd`` lists each forward run step's position there, row, time
        and loss rank, ``bwd`` each backward one's position, row and
        loss rank; ``end`` is each run's last position."""
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
        sub.fwd = (pos[f], k[f], sub.t0[k[f], 0, r[f]] + d[f],
                   sub.l0[k[f], 0, r[f]] + d[f])
        sub.bwd = (pos[b], k[b], sub.l0[k[b], 1, r[b]]
                   + length[k[b], 1, r[b]] - 1 - d[b])
        sub.end = at(np.maximum(length - 1, 0), *np.indices(length.shape))
        return sub


class _FoldedIndex:
    """Loss-run structure of a :class:`SymbolStack` for the folded pass.

    Per stack row: the chain of observed steps (times ``chain_t``,
    symbols ``chain_m``, ``n_obs`` of them), the key of each chain
    operator (``op_key[j]`` takes chain step ``j`` to ``j + 1``; key 0,
    the identity, pads), and the loss runs as two :class:`_RunGrid` s
    over the row's losses (times ``loss_t``, ``n_loss`` of them):
    ``pre`` holds the leading runs forward and the trailing runs
    backward, ``post`` every other run in each direction.  The keys
    ``(mp, r, m)`` are shared by all rows; ``direct`` lists the ``r = 0``
    ones and ``deeper[r - 1]`` the work of depth ``r`` for
    :func:`_fold_table`.  Built once per stack.
    """

    def __init__(self, stack: SymbolStack):
        syms = stack.symbols0
        n_rows, n_symbols = stack.n_rows, stack.n_symbols
        self.n_symbols = n_symbols
        self.lengths = stack.lengths
        self._layout = (None, None)
        obs_k, obs_t = np.nonzero(stack.observed)
        self.n_obs = np.bincount(obs_k, minlength=n_rows)
        j = np.arange(len(obs_k)) - np.repeat(
            np.cumsum(self.n_obs) - self.n_obs, self.n_obs)
        j_max = int(self.n_obs.max())
        self.chain_t = np.zeros((j_max, n_rows), dtype=np.intp)
        self.chain_m = np.zeros((j_max, n_rows), dtype=np.intp)
        self.chain_t[j, obs_k] = obs_t
        self.chain_m[j, obs_k] = syms[obs_k, obs_t]

        nxt = np.flatnonzero(j > 0)
        run = obs_t[nxt] - obs_t[nxt - 1] - 1
        codes, key = np.unique(
            (run * n_symbols + syms[obs_k[nxt], obs_t[nxt - 1]]) * n_symbols
            + syms[obs_k[nxt], obs_t[nxt]], return_inverse=True)
        self.op_key = np.zeros((max(j_max - 1, 0), n_rows), dtype=np.intp)
        self.op_key[j[nxt] - 1, obs_k[nxt]] = key + 1
        self.n_keys = len(codes) + 1
        k_run, k_pair = np.divmod(codes, n_symbols * n_symbols)
        k_mp, k_m = np.divmod(k_pair, n_symbols)
        #: loss-run length folded into each key (-1: the identity)
        self.key_run = np.concatenate(([-1], k_run))
        pos = np.arange(1, self.n_keys)
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
        jp = np.cumsum(stack.observed, axis=1)[rk, t0] - 1
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


def _fold_table(fidx: _FoldedIndex, t_oo, t_ol, t_lo, t_ll):
    """Every chain key's ``(N, N)`` operator per row, ``(K, U, N, N)``.

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
    dtype = t_oo.dtype
    tiny = np.finfo(dtype).tiny

    def pow2_floor(x):
        return np.exp2(np.floor(np.log2(np.maximum(x, tiny))))

    table = np.empty((n_rows, fidx.n_keys, n, n), dtype)
    table[:, 0] = np.eye(n, dtype=dtype)
    pos, mp, m = fidx.direct
    table[:, pos] = t_oo[:, mp, m]
    if not fidx.deeper:
        return table
    t_ll = t_ll / pow2_floor(np.amax(np.add.reduce(t_ll, axis=2),
                                     axis=1))[:, None, None]
    prefix = t_ol
    for r, (keep, pos, sel, m) in enumerate(fidx.deeper, start=1):
        prefix = prefix[:, keep]
        if r > 1:
            prefix = np.matmul(prefix, t_ll[:, None])
            if r % _RESCALE_EVERY == 0:
                prefix /= pow2_floor(np.amax(prefix, axis=(-2, -1)))[
                    ..., None, None]
        if len(pos):
            table[:, pos] = np.matmul(prefix[:, sel], t_lo[:, m])
    # Keys sort by run length, so the folded ones are the tail.
    folded = table[:, 1 + len(fidx.direct[0]):]
    folded /= pow2_floor(np.amax(folded, axis=(-2, -1)))[..., None, None]
    return table


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
    chain steps, loss steps and scales — so they are filled (zeros, unit
    scales past a row's end) once and never cleared.  The other scratch
    lives in the fit's workspace, so iterations do not page-fault it anew.
    """

    def __init__(self, fidx: "_FoldedIndex", rows, n_hidden: int):
        n_rows, n_symbols = len(rows), fidx.n_symbols
        n_states = n_hidden * n_symbols
        self.n_obs, self.n_loss = fidx.n_obs[rows], fidx.n_loss[rows]
        j_max, l_max = int(self.n_obs.max()), int(self.n_loss.max())
        self.t_act = int(fidx.lengths[rows].max())
        self.chain_t = fidx.chain_t[:j_max, rows]
        self.chain_m = fidx.chain_m[:j_max, rows]
        self.loss_t = fidx.loss_t[:l_max, rows]
        self.valid = np.arange(j_max)[:, None] < self.n_obs
        self.vj, self.vk = np.nonzero(self.valid)
        self.lj, self.lk = np.nonzero(np.arange(l_max)[:, None] < self.n_loss)
        self.chain_steps = self.chain_t[self.vj, self.vk]
        self.loss_row = self.lk * self.t_act + self.loss_t[self.lj, self.lk]
        self.chain_pos = ((self.vk * self.t_act + self.chain_steps) * n_states
                          + self.chain_m[self.vj, self.vk])[:, None] \
            + n_symbols * np.arange(n_hidden)
        # Each lane's operators in the pass's lane table: row k's forward
        # lane takes its chain operators, its backward lane K + k their
        # transposes (the table's second half) from its last step back.
        op_key = fidx.op_key[:j_max - 1, rows]
        lane = np.arange(2 * n_rows) * fidx.n_keys
        self.lane_idx = np.concatenate((op_key, np.take_along_axis(
            op_key, _reversed_steps(self.n_obs - 1, j_max - 1), axis=0)),
            axis=1) + lane
        #: Row k's backward lane value at chain step j, flat over the
        #: sweep's (J, 2K) lanes.
        self.back_at = (_reversed_steps(self.n_obs, j_max) * (2 * n_rows)
                        + np.arange(n_rows, 2 * n_rows))
        self.pre, self.post = fidx.pre.take(rows), fidx.post.take(rows)
        post = self.post
        # Forward runs followed by a chain step, whose scale they set.
        kv, rv = np.nonzero((post.length[:, 0] > 0)
                            & (post.jn[:, 0] < self.n_obs[:, None]))
        self.exits = (kv, rv, post.t0[kv, 0, rv] + post.length[kv, 0, rv])
        self.scales = np.ones((self.t_act, n_rows))
        self.loss_alpha = np.zeros((l_max, n_rows, n_states))
        self.loss_beta = np.zeros_like(self.loss_alpha)
        #: The loss slots a row owns (all of them unless rows differ).
        self.loss_owned = (True if (self.n_loss == l_max).all() else
                           np.arange(l_max)[:, None] < self.n_loss)

        # The xi statistic's terms.  Observed -> observed steps sum per
        # (row, symbol pair) bin; every other term has a loss step on one
        # side and is a product of (L, K, S) loss-layout arrays: the
        # state before each loss (``before``: the previous loss, or the
        # chain state on its symbol's columns) against the loss's
        # weighted beta, and each loss's alpha against the weighted beta
        # of the observed step after it (``after``).
        oj, ok = np.nonzero(self.valid[1:] & (fidx.key_run[op_key] == 0))
        self.oo = (oj * n_rows + ok, (oj + 1) * n_rows + ok,
                   (ok * n_symbols + self.chain_m[oj, ok]) * n_symbols
                   + self.chain_m[oj + 1, ok])
        # Flat (row, symbol) and (step, row) indices of every chain slot.
        self.survive_at = np.arange(n_rows) * n_symbols + self.chain_m
        self.scale_at = self.chain_t * n_rows + np.arange(n_rows)
        steps = np.arange(l_max)[:, None]
        gap = np.diff(self.loss_t, axis=0, prepend=-2)
        self.follow = np.nonzero((steps < self.n_loss) & (gap == 1))
        cols = n_symbols * np.arange(n_hidden)

        def embed(way, rank, chain_j, sym):
            # The runs after a chain step are post's forward ones, the
            # runs before one its backward ones.
            k_, r_ = np.nonzero(post.length[:, way] > 0)
            pos = ((rank[k_, way, r_] * n_rows + k_) * n_states
                   + sym[k_, way, r_])[:, None] + cols
            return pos, chain_j[k_, way, r_], k_

        self.before = embed(0, post.l0, post.jp, post.mp)
        self.after = embed(1, post.l0 + post.length - 1, post.jn, post.m)
        #: Length groups of the rows (log-likelihood sums), of their
        #: chains (the sweep's ragged padding, forward lanes alone or
        #: with the backward ones) and of their losses.
        self.groups = _length_groups(fidx.lengths[rows])
        self.chain_groups = _length_groups(self.n_obs)
        self.lane_groups = _lane_groups(self.chain_groups, n_rows)
        self.loss_groups = _length_groups(self.n_loss)
        self.xi_before, self.xi_after = np.zeros((2,) + self.loss_alpha.shape)


class _FoldedPass:
    """The values of one folded pass over a :class:`_FoldedRows` layout:
    ``chain_alpha``/``chain_beta`` ``(J, K, N)`` per observed step,
    ``loss_alpha``/``loss_beta`` ``(L, K, S)`` per loss in time order and
    ``scales`` ``(T, K)`` (the layout's and the workspace's buffers, valid
    until the next pass).  The betas are ``None`` after a forward-only
    pass."""

    def __init__(self, layout: _FoldedRows, ws, chain_alpha):
        self.layout, self.ws = layout, ws
        self.chain_alpha, self.chain_beta = chain_alpha, None
        self.loss_alpha, self.loss_beta = layout.loss_alpha, None
        self.scales = layout.scales

    def dense(self, chain, loss):
        """Chain ``(J, K, N)`` and loss ``(L, K, S)`` values in a zero
        ``(K, T, S)`` array, the dense recursion's layout."""
        lay = self.layout
        out = np.zeros((self.scales.shape[1], lay.t_act, loss.shape[2]))
        out.reshape(-1, out.shape[2])[lay.loss_row] = loss[lay.lj, lay.lk]
        out.reshape(-1)[lay.chain_pos] = chain[lay.vj, lay.vk]
        return out

    def statistics(self, survive, c_state, n_hidden):
        """``(xi, gamma0, loss_mass, total_mass)`` of the pass, with ``xi``
        the expected transition counts before the ``transition`` factor.

        Every sum runs over each row's own steps in a fixed order —
        ``bincount`` accumulates in step order, the loss-side GEMMs
        contract over exactly the row's losses (grouped by loss count) —
        so a row's statistics never depend on its batch."""
        lay = self.layout
        n_rows = self.scales.shape[1]
        k = np.arange(n_rows)
        n_states = self.loss_alpha.shape[2]
        n_symbols = n_states // n_hidden
        ws = self.ws
        shape = self.chain_alpha.shape
        chain_gamma = np.multiply(self.chain_alpha, self.chain_beta,
                                  out=ws.get("chain_gamma", shape))
        # Padded slots weigh 0, which cannot move a bit of a bin's sum.
        seen = np.add.reduce(chain_gamma, axis=2, out=ws.get("seen", shape[:2]))
        seen *= lay.valid
        obs_mass = np.bincount(
            lay.survive_at.reshape(-1), weights=seen.reshape(-1),
            minlength=n_rows * n_symbols).reshape(n_rows, n_symbols)
        loss_gamma = np.multiply(self.loss_alpha, self.loss_beta,
                                 out=ws.get("loss_gamma", self.loss_alpha.shape))
        loss_mass = np.add.reduce(loss_gamma.reshape(
            len(loss_gamma), n_rows, n_hidden, n_symbols).sum(axis=2), axis=0)
        gamma0 = np.zeros((n_rows, n_states))
        opens = lay.chain_t[0] == 0
        cols = lay.chain_m[0][:, None] + n_symbols * np.arange(n_hidden)
        gamma0[k[opens, None], cols[opens]] = chain_gamma[0][opens]
        if not opens.all():  # a row opening with a loss has l_max >= 1
            gamma0[~opens] = loss_gamma[0][~opens]

        # weighted[t] = likes[t] * beta[t] / scales[t], chain and loss.
        ratio = ws.take("w_ratio", survive.reshape(-1), lay.survive_at)
        ratio /= ws.take("chain_scales", self.scales.reshape(-1), lay.scale_at)
        w_chain = np.multiply(self.chain_beta, ratio[..., None],
                              out=ws.get("w_chain", shape))
        w_loss = np.divide(c_state, self.scales[lay.loss_t, k][..., None],
                           out=ws.get("w_loss", self.loss_beta.shape))
        w_loss *= self.loss_beta
        xi = np.zeros((n_rows, n_hidden, n_symbols, n_hidden, n_symbols))
        a_at, w_at, bins = lay.oo
        a = ws.take("xi_a", self.chain_alpha.reshape(-1, n_hidden), a_at)
        w = ws.take("xi_w", w_chain.reshape(-1, n_hidden), w_at)
        aw = ws.get("xi_aw", bins.shape)
        for h in range(n_hidden):
            for g in range(n_hidden):
                xi[:, h, :, g, :] = np.bincount(
                    bins, weights=np.multiply(a[:, h], w[:, g], out=aw),
                    minlength=n_rows * n_symbols * n_symbols,
                ).reshape(n_rows, n_symbols, n_symbols)
        xi = xi.reshape(n_rows, n_states, n_states)
        # Only these slots of the zeroed buffers are ever written.
        before = lay.xi_before
        before[lay.follow[0], lay.follow[1]] = \
            self.loss_alpha[lay.follow[0] - 1, lay.follow[1]]
        pos, j, kk = lay.before
        before.reshape(-1)[pos] = self.chain_alpha[j, kk]
        after = lay.xi_after
        pos, j, kk = lay.after
        after.reshape(-1)[pos] = w_chain[j, kk]
        for l_g, idx in lay.loss_groups:
            xi[idx] += (
                np.matmul(before[:l_g, idx].transpose(1, 2, 0),
                          w_loss[:l_g, idx].transpose(1, 0, 2))
                + np.matmul(self.loss_alpha[:l_g, idx].transpose(1, 2, 0),
                            after[:l_g, idx].transpose(1, 0, 2)))
        return xi, gamma0, loss_mass, loss_mass + obs_mass


def _folded_forward_backward(batch, aux, rows, backward=True):
    """Loss-folded forward-backward of an MMHD stack (module docstring).

    ``rows`` are the stack rows of the batch rows.  Returns a
    :class:`_FoldedPass` whose values equal the dense recursion's to
    round-off.  Order of work: the runs the chain's ends need (leading
    runs forward, trailing runs backward), one sweep over the chain's
    forward and backward lanes, every other run in both directions, and
    the rescale of the backward values.  ``backward=False`` runs the
    forward lanes and runs alone, bit for bit as the full pass does.
    """
    fidx = aux.folded
    n_rows, n_hidden, n_symbols = batch.n_rows, aux.n_hidden, aux.n_symbols
    n_states = aux.n_states
    t_oo, t_ol, t_lo, t_ll, survive, c_state = batch._structured_blocks(aux)
    pi = batch.pi
    k = np.arange(n_rows)[:, None]
    lay = fidx.layout(rows, n_hidden)
    ws = aux.workspace
    scales, loss_alpha, loss_beta = lay.scales, lay.loss_alpha, lay.loss_beta
    pre, post = lay.pre, lay.post
    j_max = len(lay.chain_m)
    ways = 2 if backward else 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        table = _fold_table(fidx, t_oo, t_ol, t_lo, t_ll)
        if backward:
            table = np.concatenate((table, table.swapaxes(2, 3)))
        flat = table.reshape(-1, n_hidden, n_hidden)
        lane_idx = lay.lane_idx[:, :ways * n_rows]
        steps = np.stack((t_ll, t_ll.swapaxes(1, 2)), axis=1)[:, :ways]

        def ops_at(o0, o1, out):
            np.take(flat, lane_idx[o0:o1], axis=0, out=out, mode="clip")

        def runs(grid, start):
            states, totals = _runs(start, grid, steps, ws)
            pos, kf, t, l = grid.fwd
            loss_alpha[l, kf] = ws.take("run_put", states, pos)
            scales[t, kf] = totals[pos]
            if backward:
                pos, kb, l = grid.bwd
                loss_beta[l, kb] = ws.take("run_put", states, pos)
            return states

        # The chain's first forward state and last backward state.
        m0 = lay.chain_m[0]
        init = np.ones((ways * n_rows, n_hidden))
        init[:n_rows] = (pi[k, m0[:, None] + n_symbols * np.arange(n_hidden)]
                         * survive[k[:, 0], m0][:, None])
        if pre.depth:
            start = np.ones((n_rows, ways, pre.length.shape[2], n_states))
            start[:, 0] = (pi * c_state)[:, None, :]
            last = runs(pre, start)[pre.end]
            enter = np.matmul(last[:, 0, :, None, :],
                              t_lo[k, pre.m[:, 0]])[:, 0, 0]
            has = pre.length[:, 0, 0] > 0
            init[:n_rows][has] = enter[has]
            if backward:
                leave = np.matmul(t_ol[k, pre.mp[:, 1]],
                                  last[:, 1, ..., None])[:, 0, :, 0]
                has = pre.length[:, 1, 0] > 0
                init[n_rows:][has] = leave[has]
        lanes, lane_scales = _scan_forward(
            init, ops_at, j_max, RAGGED_BLOCK_SIZE,
            lay.lane_groups if backward else lay.chain_groups, ws)
        a_c = ws.get("chain_alpha", (j_max, n_rows, n_hidden))
        np.copyto(a_c, lanes[:, :n_rows])
        s_c = lane_scales[:, :n_rows]
        scales[lay.chain_steps, lay.vk] = s_c[lay.vj, lay.vk]
        if backward:
            b_c = ws.take("chain_beta", lanes.reshape(-1, n_hidden),
                          lay.back_at)
        if post.depth:
            start = np.empty((n_rows, ways, post.length.shape[2], n_states))
            start[:, 0] = np.matmul(a_c[post.jp[:, 0], k][:, :, None, :],
                                    t_ol[k, post.mp[:, 0]])[:, :, 0]
            if backward:
                start[:, 1] = np.matmul(t_lo[k, post.m[:, 1]],
                                        b_c[post.jn[:, 1], k][..., None])[..., 0]
            last = runs(post, start)[post.end[:, 0]]
            exit_scale = np.add.reduce(np.matmul(
                last[:, :, None, :], t_lo[k, post.m[:, 0]])[:, :, 0], axis=-1)
            kv, rv, exit_t = lay.exits
            scales[exit_t, kv] = exit_scale[kv, rv]
        check = scales
        bad = lay.valid & ~(s_c > 0)
        if bad.any():
            bj, bk = np.nonzero(bad)
            check = scales.copy()
            check[lay.chain_t[bj, bk], bk] = 0.0
        _check_scales(check)
        fp = _FoldedPass(lay, ws, a_c)
        if backward:
            fp.chain_beta = _rescale_beta(a_c, b_c, ws)
            fp.loss_beta = _rescale_beta(loss_alpha, loss_beta, ws,
                                         where=lay.loss_owned)
    return fp
