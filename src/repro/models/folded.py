"""The loss-folded MMHD forward-backward pass.

At an observed step the MMHD state sits in the ``N`` states of that
symbol (see :mod:`repro.models.mmhd`), so between two observed steps
the recursion is an ``N x N`` operator once the loss run separating
them is folded in: ``T_oo[mp, m]`` with no loss between them, else
``T_ol[mp] @ T_ll^(r-1) @ T_lo[m]`` across ``r`` losses.
:func:`_folded_forward_backward` builds those operators once per E-pass
in a table keyed by ``(previous symbol, run length, symbol)``
(:func:`_fold_table`), scans each row's chain of observed steps with the
blocked kernel, and rebuilds the loss-step ``alpha``/``beta`` and every
per-step scale with loops over run depth vectorised across all runs.
An E-pass costs about ``B + J / B`` (``J`` observed steps) plus the
longest loss run in numpy calls instead of ``2 T``.  Every MMHD stack —
restart, hedged warm, fused ragged, one-row — runs this one pass.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import SymbolStack
from repro.models.scan import (
    RAGGED_BLOCK_SIZE,
    _RESCALE_EVERY,
    _check_scales,
    _length_groups,
    _scan_backward,
    _scan_forward,
)


class _RunGrid:
    """One kind of loss run (leading, interior or trailing) of a stack.

    Laid out ``(rows, runs)`` with each row's runs longest first, so the
    runs still going at depth ``d`` occupy a row's leading columns.
    ``t0`` is a run's first loss step, ``l0`` that loss's rank among the
    row's losses and ``length`` its loss count (0 pads); ``jp``/``mp``
    are the chain index and symbol of the observed step before the run,
    ``jn``/``m`` those of the step after it.
    """

    FIELDS = ("t0", "l0", "length", "jp", "mp", "jn", "m")

    def __init__(self, n_rows, k, **fields):
        order = np.lexsort((fields["t0"], -fields["length"], k))
        k = k[order]
        counts = np.bincount(k, minlength=n_rows)
        col = np.arange(len(k)) - np.repeat(np.cumsum(counts) - counts,
                                            counts)
        for name in self.FIELDS:
            grid = np.zeros((n_rows, int(counts.max(initial=0))),
                            dtype=np.intp)
            grid[k, col] = fields[name][order]
            setattr(self, name, grid)

    def take(self, rows) -> "_RunGrid":
        """The grid of batch rows ``rows``: ``width[d]`` columns hold a
        run at depth ``d``; ``(d, k, r)`` lists each run step with its
        time ``t_fwd`` and loss rank from the run's start or end."""
        sub = object.__new__(_RunGrid)
        n_runs = int((self.length[rows] > 0).sum(axis=1).max(initial=0))
        for name in self.FIELDS:
            setattr(sub, name, getattr(self, name)[rows, :n_runs])
        sub.depth = int(sub.length.max(initial=0))
        going = np.arange(sub.depth)[:, None, None] < sub.length
        sub.width = going.sum(axis=2).max(axis=1, initial=0)
        sub.d, sub.k, sub.r = np.nonzero(going)
        sub.flat = (sub.d * len(rows) + sub.k) * sub.length.shape[1] + sub.r
        sub.t_fwd = sub.t0[sub.k, sub.r] + sub.d
        sub.l_fwd = sub.l0[sub.k, sub.r] + sub.d
        sub.l_back = (sub.l0[sub.k, sub.r] + sub.length[sub.k, sub.r] - 1
                      - sub.d)
        return sub

    def put(self, target, buf, at, ws) -> None:
        """Scatter per-depth run values to ``target[at, k]`` (``at`` one
        of ``t_fwd`` / ``l_fwd`` / ``l_back``), gathered through ``ws``."""
        flat = buf.reshape((-1,) + buf.shape[3:])
        target[at, self.k] = ws.take("run_put", flat, self.flat)

    def last(self, buf):
        """Each run's value at its last depth, ``(K, R, ...)``."""
        k = np.arange(self.length.shape[0])[:, None]
        r = np.arange(self.length.shape[1])
        return buf[np.maximum(self.length - 1, 0), k, r]


class _FoldedIndex:
    """Loss-run structure of a :class:`SymbolStack` for the folded pass.

    Per stack row: the chain of observed steps (times ``chain_t``,
    symbols ``chain_m``, ``n_obs`` of them), the key of each chain
    operator (``op_key[j]`` takes chain step ``j`` to ``j + 1``; key 0,
    the identity, pads), and the leading, interior and trailing loss runs
    as :class:`_RunGrid` s over the row's losses (times ``loss_t``,
    ``n_loss`` of them).  The keys ``(mp, r, m)`` are shared by all
    rows; ``direct`` lists the ``r = 0`` ones and ``deeper[r - 1]`` the
    work of depth ``r`` for :func:`_fold_table`.  Built once per stack.
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
        self.grids = tuple(
            _RunGrid(n_rows, rk[sel], **{f: v[sel] for f, v in fields.items()})
            for sel in (lead, ~lead & ~trail, trail)
        )

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
    operator is about ``c^r`` and would underflow for long runs, so every
    scaling here is by an exact power of two: ``T_ll`` is divided by the
    one at or below its largest row sum, the prefixes are renormalised
    every :data:`_RESCALE_EVERY` depths, and each folded operator is
    stored with its largest entry in ``[1, 2)``.  The table holds ``F /
    2**expo``; ``expo`` ``(K, U)`` is returned alongside (0 for
    ``r = 0`` keys, which are stored exactly).
    """
    n_rows, n = len(t_oo), t_oo.shape[-1]
    dtype = t_oo.dtype
    tiny = np.finfo(dtype).tiny

    def pow2_floor(x):
        return np.floor(np.log2(np.maximum(x, tiny)))

    table = np.empty((n_rows, fidx.n_keys, n, n), dtype)
    expo = np.zeros((n_rows, fidx.n_keys), dtype)
    table[:, 0] = np.eye(n, dtype=dtype)
    pos, mp, m = fidx.direct
    table[:, pos] = t_oo[:, mp, m]
    if not fidx.deeper:
        return table, expo
    ll_shift = pow2_floor(np.amax(np.add.reduce(t_ll, axis=2), axis=1))
    t_ll = t_ll / np.exp2(ll_shift)[:, None, None]
    prefix, shift = t_ol, np.zeros(t_ol.shape[:2], dtype)
    for r, (keep, pos, sel, m) in enumerate(fidx.deeper, start=1):
        prefix, shift = prefix[:, keep], shift[:, keep]
        if r > 1:
            prefix = np.matmul(prefix, t_ll[:, None])
            shift = shift + ll_shift[:, None]
            if r % _RESCALE_EVERY == 0:
                e = pow2_floor(np.amax(prefix, axis=(-2, -1)))
                prefix /= np.exp2(e)[..., None, None]
                shift = shift + e
        if len(pos):
            table[:, pos] = np.matmul(prefix[:, sel], t_lo[:, m])
            expo[:, pos] = shift[:, sel]
    # Keys sort by run length, so the folded ones are the tail.
    folded = table[:, 1 + len(fidx.direct[0]):]
    e = pow2_floor(np.amax(folded, axis=(-2, -1)))
    folded /= np.exp2(e)[..., None, None]
    expo[:, 1 + len(fidx.direct[0]):] += e
    return table, expo


def _runs_forward(start, grid: _RunGrid, t_ll, ws):
    """Scaled forward recursion through loss runs, vectorised over runs.

    ``start`` ``(K, R, S)`` is each run's unnormalised first-loss state;
    depth ``d`` advances every run still going by one ``t_ll`` step.
    Returns the normalised states ``(D, K, R, S)`` and the scales
    ``(D, K, R)``, views of ``ws`` buffers valid until the next run
    recursion; slots past a run's end hold garbage."""
    alpha = ws.get("runs", (grid.depth,) + start.shape, start.dtype)
    scales = ws.get("run_scales", (grid.depth,) + start.shape[:2], start.dtype)
    state = start
    for d, w in enumerate(grid.width):
        if d:
            state = np.matmul(alpha[d - 1, :, :w, None, :],
                              t_ll[:, None])[:, :, 0]
        total = np.add.reduce(state, axis=-1)
        scales[d, :, :w] = total
        np.divide(state, total[..., None], out=alpha[d, :, :w])
    return alpha, scales


def _runs_backward(end, grid: _RunGrid, t_ll, scales, ws):
    """Scaled backward recursion through loss runs, vectorised over runs.

    ``end`` ``(K, R, S)`` is beta at each run's last loss; reverse depth
    ``d`` steps every run still going one loss earlier with ``beta[t] =
    t_ll @ beta[t + 1] / scales[t + 1]``.  Returns ``(D, K, R, S)``, a
    view of the ``ws`` buffer :func:`_runs_forward` also uses."""
    beta = ws.get("runs", (grid.depth,) + end.shape, end.dtype)
    beta[0] = end
    k = np.arange(len(end))[:, None]
    last = grid.t0 + grid.length - 1
    for d in range(1, grid.depth):
        w = grid.width[d]
        c = scales[np.maximum(last[:, :w] - d + 1, 0), k]
        np.divide(np.matmul(t_ll[:, None], beta[d - 1, :, :w, :, None])
                  [..., 0], c[..., None], out=beta[d, :, :w])
    return beta


def _chain_scale(run_scales, lengths, exit_scale, shift):
    """A folded step's scale ``prod(run scales) * exit_scale``, times
    ``2**-shift`` to match its table operator, for each interior run
    (``run_scales`` is ``(D, runs)``).

    The factors multiply as ``frexp`` mantissas with the exponents summed
    apart (both exact), so runs of any length stay in range."""
    going = np.arange(len(run_scales))[:, None] < lengths
    mant, ex = np.frexp(np.where(going, run_scales, 1.0).astype(np.float64))
    prod = np.ones(mant.shape[1:])
    expo = ex.sum(axis=0) - shift.astype(np.int64)
    for d0 in range(0, len(mant), 512):
        prod, e = np.frexp(prod * np.prod(mant[d0:d0 + 512], axis=0))
        expo += e
    return np.ldexp(prod, expo) * exit_scale


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
        self.op_idx = (fidx.op_key[:j_max - 1, rows]
                       + np.arange(n_rows) * fidx.n_keys)
        self.lead, self.inner, self.trail = (grid.take(rows)
                                             for grid in fidx.grids)
        kv, rv = np.nonzero(self.inner.length > 0)
        self.exits = (kv, rv, self.inner.jn[kv, rv],
                      self.inner.t0[kv, rv] + self.inner.length[kv, rv])
        self.scales = np.ones((self.t_act, n_rows))
        self.loss_alpha = np.zeros((l_max, n_rows, n_states))
        self.loss_beta = np.zeros_like(self.loss_alpha)

        # The xi statistic's terms.  Observed -> observed steps sum per
        # (row, symbol pair) bin; every other term has a loss step on one
        # side and is a product of (L, K, S) loss-layout arrays: the
        # state before each loss (``before``: the previous loss, or the
        # chain state on its symbol's columns) against the loss's
        # weighted beta, and each loss's alpha against the weighted beta
        # of the observed step after it (``after``).
        oj, ok = np.nonzero(
            self.valid[1:] & (fidx.key_run[fidx.op_key[:j_max - 1, rows]] == 0))
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

        def embed(grid_runs, rank, chain_j, sym):
            k_, r_ = np.nonzero(grid_runs.length > 0)
            pos = ((rank[k_, r_] * n_rows + k_) * n_states
                   + sym[k_, r_])[:, None] + cols
            return pos, chain_j[k_, r_], k_

        parts = [embed(g, g.l0, g.jp, g.mp) for g in (self.inner, self.trail)]
        self.before = tuple(np.concatenate(x) for x in zip(*parts))
        parts = [embed(g, g.l0 + g.length - 1, g.jn, g.m)
                 for g in (self.inner, self.lead)]
        self.after = tuple(np.concatenate(x) for x in zip(*parts))
        # A group of all rows takes views: the strides, and bits, of its copies.
        self.loss_groups = [(l_g, slice(None) if len(idx) == n_rows else idx)
                            for l_g, idx in _length_groups(self.n_loss)]
        self.xi_before, self.xi_after = np.zeros((2,) + self.loss_alpha.shape)


class _FoldedPass:
    """The values of one folded pass over a :class:`_FoldedRows` layout:
    ``chain_alpha``/``chain_beta`` ``(J, K, N)`` per observed step,
    ``loss_alpha``/``loss_beta`` ``(L, K, S)`` per loss in time order and
    ``scales`` ``(T, K)`` (the layout's buffers, valid until its next
    pass).  The betas are ``None`` after a forward-only pass."""

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
    round-off.  Order of work: leading runs, the observed-step chain
    (blocked scan over table operators), the runs after chain steps;
    the backward pass mirrors it from the trailing runs.
    """
    fidx = aux.folded
    n_rows, n_hidden, n_symbols = batch.n_rows, aux.n_hidden, aux.n_symbols
    n_states = aux.n_states
    t_oo, t_ol, t_lo, t_ll, survive, c_state = batch._structured_blocks(aux)
    pi = batch.pi
    k = np.arange(n_rows)[:, None]
    lay = fidx.layout(rows, n_hidden)
    ws = aux.workspace
    scales, loss_alpha = lay.scales, lay.loss_alpha
    lead, inner, trail = lay.lead, lay.inner, lay.trail
    chain_m, op_idx = lay.chain_m, lay.op_idx
    j_max = len(chain_m)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore",
                     under="ignore"):
        table, expo = _fold_table(fidx, t_oo, t_ol, t_lo, t_ll)
        flat = table.reshape(-1, n_hidden, n_hidden)

        def ops_at(o0, o1, out, chain_scales=None):
            np.take(flat, op_idx[o0:o1], axis=0, out=out, mode="clip")
            if chain_scales is not None:
                out /= chain_scales[1 + o0: 1 + o1, :, None, None]

        # Forward: leading runs, the chain, the runs after chain steps.
        m0 = chain_m[0]
        init = (pi[k, m0[:, None] + n_symbols * np.arange(n_hidden)]
                * survive[k[:, 0], m0][:, None])
        if lead.depth:
            la, ls = _runs_forward((pi * c_state)[:, None, :], lead, t_ll, ws)
            lead.put(loss_alpha, la, lead.l_fwd, ws)
            lead.put(scales, ls, lead.t_fwd, ws)
            enter = np.matmul(lead.last(la)[:, :, None, :],
                              t_lo[k, lead.m])[:, 0, 0]
            has = lead.length[:, 0] > 0
            init[has] = enter[has]
        a_c, s_c = _scan_forward(init, ops_at, j_max, RAGGED_BLOCK_SIZE,
                                 lay.n_obs, ws)
        fp = _FoldedPass(lay, ws, np.array(a_c))
        scales[lay.chain_steps, lay.vk] = s_c[lay.vj, lay.vk]
        chain_scales = s_c.copy()
        for grid in (inner, trail):
            if not grid.depth:
                continue
            start = np.matmul(a_c[grid.jp, k][:, :, None, :],
                              t_ol[k, grid.mp])[:, :, 0]
            ga, gs = _runs_forward(start, grid, t_ll, ws)
            grid.put(loss_alpha, ga, grid.l_fwd, ws)
            grid.put(scales, gs, grid.t_fwd, ws)
            if grid is inner:
                exit_scale = np.add.reduce(np.matmul(
                    grid.last(ga)[:, :, None, :], t_lo[k, grid.m]
                )[:, :, 0], axis=-1)
                kv, rv, jn, exit_t = lay.exits
                scales[exit_t, kv] = exit_scale[kv, rv]
                chain_scales[jn, kv] = _chain_scale(
                    gs[:, kv, rv], grid.length[kv, rv], exit_scale[kv, rv],
                    expo.reshape(-1)[op_idx[jn - 1, kv]])
        check = scales
        bad = lay.valid & ~(s_c > 0)
        if bad.any():
            bj, bk = np.nonzero(bad)
            check = scales.copy()
            check[lay.chain_t[bj, bk], bk] = 0.0
        _check_scales(check)
        if not backward:
            return fp

        # Backward: trailing runs, the chain, the runs before chain steps.
        loss_beta = lay.loss_beta
        sc = scales
        beta_last = np.ones((n_rows, n_hidden))
        if trail.depth:
            tb = _runs_backward(np.ones(trail.length.shape + (n_states,)),
                                trail, t_ll, sc, ws)
            trail.put(loss_beta, tb, trail.l_back, ws)
            leave = np.matmul(t_ol[k, trail.mp],
                              trail.last(tb)[..., None])[:, 0, :, 0]
            has = trail.length[:, 0] > 0
            beta_last[has] = (leave
                              / sc[trail.t0[:, 0], k[:, 0]][:, None])[has]
        b_c = _scan_backward(ops_at, chain_scales, n_hidden,
                             RAGGED_BLOCK_SIZE, lay.n_obs, ws, beta_last)
        for grid in (inner, lead):
            if not grid.depth:
                continue
            exit_t = np.minimum(grid.t0 + grid.length, lay.t_act - 1)
            end = np.matmul(t_lo[k, grid.m], b_c[grid.jn, k][..., None])
            end = end[..., 0] / sc[exit_t, k][..., None]
            grid.put(loss_beta, _runs_backward(end, grid, t_ll, sc, ws),
                     grid.l_back, ws)
        fp.chain_beta = np.array(b_c)
        fp.loss_beta = loss_beta
    return fp
