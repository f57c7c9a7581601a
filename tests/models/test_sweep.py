"""Property tests for the one-sweep forward-backward.

Both blocked passes (the loss-folded MMHD pass and the HMM blocked
kernel) run each row's backward chain as extra lanes of the forward
scan, normalised by its own sums and rescaled afterwards.  Over random
ragged stacks — leading, interior and trailing loss runs, one longer
than a scan block (64 steps), a row with a single observed step, rows of
different lengths — these check:

- beta, gamma and xi against the dense per-step oracle
  (``tests/models/dense_reference.py``) to round-off;
- forward alpha and scales bit-equal to the forward-only pass;
- every row's outputs bit-equal solo and inside the stack.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.base import LOSS, ObservationSequence, SymbolStack
from repro.models.batched import (
    _BATCH_TYPES,
    _Aux,
    hmm_forward,
    mmhd_forward,
)
from repro.models.folded import _folded_forward_backward
from repro.models.hmm import HiddenMarkovModel
from repro.models.mmhd import MarkovModelHiddenDimension
from tests.models.dense_reference import (
    forward_backward,
    hmm_estep,
    mmhd_estep,
)

N_SYMBOLS = 3
RTOL = 1e-10


@st.composite
def ragged_stacks(draw):
    """2-4 sequences of different lengths: one holds a loss run longer
    than a scan block (leading, interior or trailing), one other has a
    single observed step, and the rest mix runs at both ends and inside."""
    n_rows = draw(st.integers(2, 4))
    long_row, single_row = draw(st.permutations(range(n_rows)))[:2]
    symbol = st.integers(1, N_SYMBOLS)
    seqs = []
    for row in range(n_rows):
        lead = [LOSS] * draw(st.integers(0, 3))
        trail = [LOSS] * draw(st.integers(0, 3))
        if row == single_row:
            body = [draw(symbol)]
        else:
            body = draw(st.lists(st.one_of(symbol, symbol, st.just(LOSS)),
                                 min_size=2, max_size=90))
            body = [draw(symbol)] + body + [draw(symbol)]
        if row == long_row:
            run = [LOSS] * draw(st.integers(65, 140))
            where = draw(st.sampled_from(["lead", "inner", "trail"]))
            if where == "lead":
                lead = run
            elif where == "trail":
                trail = run
            else:
                cut = draw(st.integers(1, len(body) - 1))
                body = body[:cut] + run + body[cut:]
        seqs.append(ObservationSequence(lead + body + trail, N_SYMBOLS))
    return seqs


def random_models(kind, n_hidden, n_models, seed):
    rng = np.random.default_rng(seed)
    models = []
    for _ in range(n_models):
        c = rng.uniform(0.05, 0.5, size=N_SYMBOLS)
        if kind == "hmm":
            models.append(HiddenMarkovModel(
                rng.dirichlet(np.ones(n_hidden)),
                rng.dirichlet(np.ones(n_hidden), size=n_hidden),
                rng.dirichlet(np.ones(N_SYMBOLS), size=n_hidden), c))
        else:
            n_states = n_hidden * N_SYMBOLS
            models.append(MarkovModelHiddenDimension(
                rng.dirichlet(np.ones(n_states)),
                rng.dirichlet(np.ones(n_states), size=n_states), c,
                N_SYMBOLS))
    return models


def close(got, want, err_msg):
    np.testing.assert_allclose(got, want, rtol=RTOL,
                               atol=1e-13 * np.abs(want).max(),
                               err_msg=err_msg)


def stack_pass(kind, models, seqs):
    """Dense ``(alpha, beta, scales)`` per row and the E-step statistics
    of ``models`` fitted to ``seqs`` as one stack."""
    aux = _Aux(kind, SymbolStack(seqs), models[0].n_hidden)
    batch = _BATCH_TYPES[kind].from_models(models, np.arange(len(seqs)))
    if kind == "hmm":
        alpha, beta, scales, _, _ = batch.forward_backward(aux)
        rows = [(alpha[:len(s), k].copy(), beta[:len(s), k].copy(),
                 scales[:len(s), k].copy()) for k, s in enumerate(seqs)]
    else:
        fp = _folded_forward_backward(batch, aux, np.arange(len(seqs)))
        alpha = fp.dense(fp.chain_alpha, fp.loss_alpha)
        beta = fp.dense(fp.chain_beta, fp.loss_beta)
        rows = [(alpha[k, :len(s)], beta[k, :len(s)],
                 fp.scales[:len(s), k].copy()) for k, s in enumerate(seqs)]
    return rows, batch.estep(aux)


STATS = {"hmm": ("gamma0", "xi_sum", "joint_obs", "joint_loss", "loglik"),
         "mmhd": ("gamma0", "xi_sum", "loss_mass", "total_mass", "loglik")}


@settings(max_examples=30, deadline=None)
@given(seqs=ragged_stacks(), kind=st.sampled_from(["hmm", "mmhd"]),
       n_hidden=st.sampled_from([2, 3]), seed=st.integers(0, 2**16))
def test_one_sweep_matches_dense_forward_only_and_solo(seqs, kind, n_hidden,
                                                        seed):
    models = random_models(kind, n_hidden, len(seqs), seed)
    rows, stats = stack_pass(kind, models, seqs)
    oracle_stats = hmm_estep if kind == "hmm" else mmhd_estep
    forward_only = hmm_forward if kind == "hmm" else mmhd_forward
    for k, (seq, model) in enumerate(zip(seqs, models)):
        alpha, beta, scales = rows[k]
        likes = model._observation_likelihoods(seq.zero_based())
        ref_alpha, ref_beta, ref_scales, _ = forward_backward(model, likes)
        # The folded pass keeps beta on each step's support only.
        support = likes > 0
        close(beta[support], ref_beta[support], f"row {k} beta")
        close(alpha * beta, ref_alpha * ref_beta, f"row {k} gamma")
        ref = oracle_stats(model, seq)
        for name in STATS[kind][:-1]:
            close(getattr(stats, name)[k], getattr(ref, name),
                  f"row {k} {name}")
        np.testing.assert_allclose(stats.loglik[k], ref.loglik, rtol=1e-13)

        fwd_alpha, fwd_scales = forward_only(model, seq)
        assert np.array_equal(alpha, fwd_alpha), k
        assert np.array_equal(scales, fwd_scales), k

        (solo,), solo_stats = stack_pass(kind, [model], [seq])
        for name, a, b in zip(("alpha", "beta", "scales"), rows[k], solo):
            assert np.array_equal(a, b), (k, name)
        for name in STATS[kind]:
            assert np.array_equal(getattr(stats, name)[k],
                                  getattr(solo_stats, name)[0]), (k, name)
