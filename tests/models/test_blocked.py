"""Property tests for the blocked-scan forward-backward kernel.

The blocked kernel replaces the per-time-step Python loop with composed
operator blocks; these tests pin its contracts:

- numerical parity with the loop kernel for every block-size shape
  (``B = 1``, ``B`` not dividing ``T``, ``B >= T``, single-step rows),
  uniform and ragged;
- the *exact* padded-region carry semantics of the ragged loop kernel,
  and bitwise independence of a row's results from its batch composition
  (the fused-equals-solo contract, guaranteed by the fixed block size);
- underflow detection per row;
- workspace reuse (no per-iteration reallocation of the big buffers);
- telemetry that reports what actually ran;
- the loss-folded MMHD pass (:func:`_folded_forward_backward`) against
  the dense per-step MMHD oracle.
"""

import io
import json
import logging

import numpy as np
import pytest

from repro import obs
from repro.models import batched
from repro.models.base import EMConfig, SymbolStack
from repro.models.batched import (
    RAGGED_BLOCK_SIZE,
    _Aux,
    _BatchZeroLikelihood,
    _blocked_forward_backward,
    _check_scales,
    _kernel_info,
    _ragged_forward_backward,
    _Workspace,
    batched_restart_fits,
    run_hedged_fit,
    run_hedged_fits,
)
from repro.models.hmm import fit_hmm
from repro.obs.provenance import config_to_dict, em_config_from_dict
from tests.conftest import make_markov_sequence
from tests.models.dense_reference import forward_backward, mmhd_estep
from tests.models.loop_reference import py_reference_forward_backward

RTOL = 1e-9


def random_problem(rng, n_steps, n_rows, n):
    pi = rng.dirichlet(np.ones(n), size=n_rows)
    transition = rng.dirichlet(np.ones(n), size=(n_rows, n))
    likes = rng.uniform(0.01, 1.0, size=(n_steps, n_rows, n))
    return pi, transition, likes


def loop_kernel(pi, transition, likes, workspace=None):
    """The per-step loop kernel over a uniform stack, plus logliks."""
    n_steps, n_rows, _ = likes.shape
    alpha, beta, scales = _ragged_forward_backward(
        pi, transition, likes, np.full(n_rows, n_steps), workspace=workspace)
    return alpha, beta, scales, np.log(scales.T).sum(axis=1)


def assert_parity(ref, out, rtol=RTOL):
    for name, a, b in zip(("alpha", "beta", "scales"), ref, out):
        np.testing.assert_allclose(a, b, rtol=rtol, atol=0.0,
                                   err_msg=name)


class TestUniformParity:
    @pytest.mark.parametrize("n_steps,n", [(2, 2), (5, 3), (97, 2),
                                           (256, 2), (513, 4), (300, 5),
                                           (97, 10)])
    def test_matches_loop_kernel_across_block_sizes(self, n_steps, n):
        rng = np.random.default_rng(n_steps * 10 + n)
        pi, transition, likes = random_problem(rng, n_steps, 6, n)
        a, b, s, ll = loop_kernel(pi, transition, likes)
        ref = (a.copy(), b.copy(), s.copy())
        ll = ll.copy()
        # B = 1, B not dividing T, B = T, B > T, and the fixed default.
        for block in (1, 3, 16, n_steps, 2 * n_steps, RAGGED_BLOCK_SIZE):
            out = _blocked_forward_backward(pi, transition, likes,
                                            block_size=block)
            assert_parity(ref, out)
            np.testing.assert_allclose(
                np.log(out[2].T).sum(axis=1), ll, rtol=RTOL
            )

    def test_single_step_sequence(self):
        rng = np.random.default_rng(0)
        pi, transition, likes = random_problem(rng, 1, 4, 2)
        a, b, s, _ = loop_kernel(pi, transition, likes)
        out = _blocked_forward_backward(pi, transition, likes, block_size=8)
        assert_parity((a, b, s), out)
        assert (out[1] == 1.0).all()

    def test_zero_likelihood_raises_like_loop(self):
        rng = np.random.default_rng(1)
        pi, transition, likes = random_problem(rng, 40, 3, 2)
        likes[25, 1] = 0.0
        with pytest.raises(_BatchZeroLikelihood) as exc:
            _blocked_forward_backward(pi, transition, likes, block_size=8)
        assert 1 in exc.value.first_bad_t
        assert exc.value.first_bad_t[1] == 25


class TestRaggedParity:
    def lengths_case(self, rng, lengths, n=2, block=7):
        lengths = np.asarray(lengths)
        n_rows, t_max = len(lengths), int(lengths.max())
        pi = rng.dirichlet(np.ones(n), size=n_rows)
        transition = rng.dirichlet(np.ones(n), size=(n_rows, n))
        likes = np.zeros((t_max, n_rows, n))
        for k, t_r in enumerate(lengths):
            likes[:t_r, k] = rng.uniform(0.01, 1.0, size=(t_r, n))
        ref = _ragged_forward_backward(pi, transition, likes, lengths)
        ref = tuple(x.copy() for x in ref)
        out = _blocked_forward_backward(pi, transition, likes,
                                        block_size=block, lengths=lengths)
        return lengths, ref, out

    @pytest.mark.parametrize("lengths", [
        [40, 23, 7, 40], [64, 1, 33], [5, 5, 5], [129, 64, 2, 100]
    ])
    def test_matches_ragged_loop_kernel(self, lengths):
        rng = np.random.default_rng(sum(lengths))
        lengths, ref, out = self.lengths_case(rng, lengths)
        t_max = int(lengths.max())
        for k, t_r in enumerate(lengths):
            for a, b in zip(ref, out):
                np.testing.assert_allclose(a[:t_r, k], b[:t_r, k],
                                           rtol=RTOL, atol=0.0)
            # The padded region is *exact*: carried alpha, unit scales
            # and betas, bit for bit what the loop kernel produces.
            alpha, beta, scales = out
            assert np.array_equal(
                alpha[t_r:, k],
                np.broadcast_to(alpha[t_r - 1, k], (t_max - t_r, 2)),
            )
            assert (scales[t_r:, k] == 1.0).all()
            assert (beta[t_r - 1:, k] == 1.0).all()

    def test_solo_row_bit_identical_to_fused_stack(self):
        """A row's results must not depend on its batch's t_max — the
        contract that keeps fused drains byte-identical to solo fits."""
        rng = np.random.default_rng(7)
        lengths = np.array([200, 73, 200, 9, 128])
        n = 2
        pi = rng.dirichlet(np.ones(n), size=len(lengths))
        transition = rng.dirichlet(np.ones(n), size=(len(lengths), n))
        likes = np.zeros((200, len(lengths), n))
        for k, t_r in enumerate(lengths):
            likes[:t_r, k] = rng.uniform(0.01, 1.0, size=(t_r, n))
        fused = _blocked_forward_backward(
            pi, transition, likes, block_size=RAGGED_BLOCK_SIZE,
            lengths=lengths,
        )
        fused = tuple(x.copy() for x in fused)
        for k, t_r in enumerate(lengths):
            solo = _blocked_forward_backward(
                pi[k:k + 1], transition[k:k + 1],
                np.ascontiguousarray(likes[:t_r, k:k + 1]),
                block_size=RAGGED_BLOCK_SIZE, lengths=np.array([t_r]),
            )
            for a, b in zip(fused, solo):
                assert np.array_equal(a[:t_r, k], b[:, 0]), k


class TestWorkspace:
    def test_reuses_buffers_across_calls(self):
        ws = _Workspace()
        a = ws.get("x", (100, 3), np.float64)
        b = ws.get("x", (50, 2), np.float64)
        assert np.shares_memory(a, b)
        wide = ws.get("x", (200, 3), np.float64)  # grows: reallocates
        assert not np.shares_memory(a, wide)
        narrow = ws.get("x", (10,), np.float32)  # dtype change
        assert narrow.dtype == np.float32

    @pytest.mark.parametrize("kernel_call", ["loop", "blocked"])
    def test_no_large_allocations_after_warmup(self, monkeypatch,
                                               kernel_call):
        """Second pass with a shared workspace must not allocate any
        full-size buffer — the per-iteration allocation regression."""
        rng = np.random.default_rng(11)
        pi, transition, likes = random_problem(rng, 500, 4, 2)
        ws = _Workspace()

        def run():
            if kernel_call == "loop":
                return loop_kernel(pi, transition, likes, workspace=ws)
            return _blocked_forward_backward(pi, transition, likes,
                                             block_size=16, workspace=ws)

        run()  # warm the workspace
        big = []
        real_empty = np.empty

        def counting_empty(*args, **kwargs):
            arr = real_empty(*args, **kwargs)
            if arr.size >= 1024:
                big.append(arr.size)
            return arr

        monkeypatch.setattr(np, "empty", counting_empty)
        run()
        assert big == []


class TestResolution:
    def test_resolve_block_size(self):
        """Every stack resolves to the one fixed block size: restart and
        ragged stacks, short and long sequences, both models."""
        for n_steps in (100, 3000, 10000):
            seq, _ = make_markov_sequence(n_steps=n_steps, seed=1)
            for stack in (SymbolStack([seq]), SymbolStack([seq, seq])):
                for kind in ("hmm", "mmhd"):
                    info = _kernel_info(_Aux(kind, stack, 2))
                    assert info == {"kernel": "blocked",
                                    "block_size": RAGGED_BLOCK_SIZE}
        assert RAGGED_BLOCK_SIZE == 64

    def test_resolve_kernel_fallbacks(self):
        """The width names the kernel outright: N = 4 runs blocked and
        N = 5 runs the loop kernel (which reports no block size); the
        MMHD's folded chain is scanned blocked at every width."""
        seq, _ = make_markov_sequence(n_steps=200, seed=1)
        stack = SymbolStack([seq])
        assert _kernel_info(_Aux("hmm", stack, 4)) == {
            "kernel": "blocked", "block_size": RAGGED_BLOCK_SIZE}
        assert _kernel_info(_Aux("hmm", stack, 5)) == {
            "kernel": "loop", "block_size": 0}
        assert _Aux("mmhd", stack, 5).kernel == "blocked"

    def test_backends_frozen(self):
        """No engine can be selected any more: the knobs are rejected."""
        with pytest.raises(TypeError):
            EMConfig(backend="compiled")
        assert not hasattr(EMConfig(), "backend")

    def test_config_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError, match="tol"):
            EMConfig(tol=0)
        with pytest.raises(ValueError, match="n_jobs"):
            EMConfig(n_jobs=-2)
        with pytest.raises(TypeError):
            EMConfig(dtype="float16")
        # The old engine variables no longer shape a config.
        monkeypatch.setenv("REPRO_EM_DTYPE", "float32")
        monkeypatch.setenv("REPRO_EM_BLOCK_SIZE", "48")
        assert vars(EMConfig()) == vars(EMConfig().replace(seed=0))
        assert sorted(vars(EMConfig())) == sorted(
            ["tol", "max_iter", "min_prob", "n_restarts", "seed",
             "freeze_loss_iters", "data_driven_init", "loss_prior_losses",
             "loss_prior_observations", "n_jobs"])

    def test_provenance_round_trip(self, caplog):
        config = EMConfig(seed=4, max_iter=33)
        restored = em_config_from_dict(config_to_dict(config))
        assert vars(restored) == vars(config)
        # A manifest written while the engine knobs existed rebuilds;
        # only a value that chose a non-default path is warned about.
        legacy = dict(config_to_dict(config), fast_path=True,
                      backend="auto", dtype="float64", block_size=None)
        with caplog.at_level(logging.WARNING, "repro.obs.provenance"):
            assert vars(em_config_from_dict(legacy)) == vars(config)
        assert not caplog.records
        legacy.update(dtype="float32", fast_path=False)
        with caplog.at_level(logging.WARNING, "repro.obs.provenance"):
            assert vars(em_config_from_dict(legacy)) == vars(config)
        (record,) = caplog.records
        assert "dtype" in record.getMessage()
        assert "fast_path" in record.getMessage()

    def test_check_scales_reports_every_poisoned_row(self):
        scales = np.ones((6, 4))
        scales[3, 1] = 0.0
        scales[1, 3] = np.nan
        scales[4:, 3] = 0.0
        with pytest.raises(_BatchZeroLikelihood) as exc:
            _check_scales(scales)
        assert exc.value.t == 1
        assert exc.value.first_bad_t == {1: 3, 3: 1}
        assert sorted(exc.value.rows.tolist()) == [1, 3]


def loop_kernel_limit(monkeypatch):
    """Run width-2 HMM stacks on the loop kernel from here on."""
    monkeypatch.setattr(batched, "BLOCKED_STATE_LIMIT", 1)


class TestFitParity:
    @pytest.mark.parametrize("kernel", ["blocked"])
    def test_blocked_fit_matches_batched_fit(self, kernel, monkeypatch):
        """Same winner, same trajectory length, loglik within parity
        tolerance whichever kernel runs the fit."""
        seq, _ = make_markov_sequence(n_steps=1500, seed=29)
        config = EMConfig(tol=1e-3, max_iter=20, n_restarts=3, seed=3,
                          freeze_loss_iters=2)
        assert _Aux("hmm", SymbolStack([seq]), 2).kernel == kernel
        out = fit_hmm(seq, 2, config=config)
        loop_kernel_limit(monkeypatch)
        ref = fit_hmm(seq, 2, config=config)
        assert out.n_iter == ref.n_iter
        assert np.isclose(out.log_likelihood, ref.log_likelihood,
                          rtol=RTOL)
        np.testing.assert_allclose(out.virtual_delay_pmf,
                                   ref.virtual_delay_pmf, rtol=1e-6)

    def test_hedged_fit_matches_across_kernels(self, monkeypatch):
        seq, _ = make_markov_sequence(n_steps=900, seed=31)
        config = EMConfig(tol=1e-3, max_iter=15, n_restarts=2, seed=5)
        cold = fit_hmm(seq, 2, config=config)
        results = {}
        for kernel in ("blocked", "loop"):
            if kernel == "loop":
                loop_kernel_limit(monkeypatch)
            fitted, warm_used, reason = run_hedged_fit(
                "hmm", seq, 2, config, cold.model, lambda trail: None,
            )
            assert warm_used and reason is None
            results[kernel] = fitted
        assert np.isclose(results["blocked"].log_likelihood,
                          results["loop"].log_likelihood, rtol=RTOL)

    def test_ragged_kernel_is_pinned_regardless_of_config(self, monkeypatch):
        """The old block-size variable does not reach the kernel: a
        hedged fit is bit-identical with it set."""
        seq, _ = make_markov_sequence(n_steps=300, seed=2)
        config = EMConfig(tol=1e-3, max_iter=10, n_restarts=2, seed=5)
        warm = fit_hmm(seq, 2, config=config).model
        ref, _, _ = run_hedged_fit("hmm", seq, 2, config, warm,
                                   lambda trail: None)
        monkeypatch.setenv("REPRO_EM_BLOCK_SIZE", "8")
        out, _, _ = run_hedged_fit("hmm", seq, 2, config, warm,
                                   lambda trail: None)
        assert out.log_likelihoods == ref.log_likelihoods
        assert np.array_equal(out.virtual_delay_pmf, ref.virtual_delay_pmf)


class TestTelemetry:
    def events(self, sink):
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_backend_event_reports_kernel_dtype_block(self):
        """The ``em.backend`` event names the kernel and block that ran;
        there is no dtype or backend choice left to report."""
        seq, _ = make_markov_sequence(n_steps=800, seed=41)
        sink = io.StringIO()
        obs.enable(events=sink, clear=True)
        try:
            config = EMConfig(tol=1e-3, max_iter=5, n_restarts=2, seed=1)
            batched_restart_fits("hmm", seq, 2, config)
            counters = obs.metrics_snapshot()["counters"]
        finally:
            obs.disable()
        (event,) = [e for e in self.events(sink)
                    if e["kind"] == "em.backend"]
        assert event["kernel"] == "blocked"
        assert event["block_size"] == RAGGED_BLOCK_SIZE
        for gone in ("backend", "dtype", "dtype_fallbacks"):
            assert gone not in event
        key = ("repro_em_backend_fits_total",
               (("kernel", "blocked"), ("model", "hmm")))
        assert counters[key] == 1.0


class TestCompiledReference:
    """The pure-Python loop oracle (``tests/models/loop_reference.py``)
    against the vectorised loop kernels."""

    def test_python_reference_matches_loop_kernels(self):
        rng = np.random.default_rng(13)
        pi, transition, likes = random_problem(rng, 60, 3, 2)
        n_steps, n_rows, n = likes.shape
        alpha = np.empty_like(likes)
        beta = np.empty_like(likes)
        scales = np.empty((n_steps, n_rows))
        py_reference_forward_backward(
            pi, transition, likes, np.full(n_rows, n_steps),
            alpha, beta, scales,
        )
        ref = loop_kernel(pi, transition, likes)
        assert_parity(ref[:3], (alpha, beta, scales), rtol=1e-12)

    def test_python_reference_ragged_carry(self):
        rng = np.random.default_rng(14)
        lengths = np.array([50, 20, 1])
        pi, transition, likes = random_problem(rng, 50, 3, 2)
        for k, t_r in enumerate(lengths):
            likes[t_r:, k] = 0.0
        alpha = np.empty_like(likes)
        beta = np.empty_like(likes)
        scales = np.empty((50, 3))
        py_reference_forward_backward(
            pi, transition, likes, lengths, alpha, beta, scales,
        )
        ref = _ragged_forward_backward(pi, transition, likes, lengths)
        for k, t_r in enumerate(lengths):
            for a, b in zip(ref, (alpha, beta, scales)):
                np.testing.assert_allclose(a[:t_r, k], b[:t_r, k],
                                           rtol=1e-12)
            assert (scales[t_r:, k] == 1.0).all()


class TestFusedDrainAcrossKernels:
    def test_hedged_windows_agree_across_kernels(self, monkeypatch):
        """The fused drain's verdict-bearing outputs agree whichever
        kernel runs the mega-batch."""
        seqs = []
        for i, n_steps in enumerate((700, 450, 700)):
            seq, _ = make_markov_sequence(n_steps=n_steps, seed=50 + i)
            seqs.append(seq)
        config = EMConfig(tol=1e-3, max_iter=12, n_restarts=2, seed=8)
        warm = [fit_hmm(s, 2, config=config).model for s in seqs]
        outputs = {}
        for kernel in ("blocked", "loop"):
            if kernel == "loop":
                loop_kernel_limit(monkeypatch)
            results, info = run_hedged_fits(
                "hmm", seqs, 2, [config] * len(seqs), list(warm),
                lambda trail: None,
            )
            assert info["kernel"] == kernel
            outputs[kernel] = results
        for (fa, wa, ra), (fb, wb, rb) in zip(outputs["loop"],
                                              outputs["blocked"]):
            assert (wa, ra) == (wb, rb)
            assert fa.n_iter == fb.n_iter
            assert np.isclose(fa.log_likelihood, fb.log_likelihood,
                              rtol=RTOL)
            np.testing.assert_allclose(fa.virtual_delay_pmf,
                                       fb.virtual_delay_pmf, rtol=1e-6)


# ----------------------------------------------------------------------
# Loss-folded MMHD pass
# ----------------------------------------------------------------------
from repro.models.base import LOSS, ObservationSequence  # noqa: E402
from repro.models.batched import (  # noqa: E402
    _BATCH_TYPES,
    _initial_model,
    mmhd_forward,
)
from repro.models.folded import _folded_forward_backward  # noqa: E402
from repro.models.mmhd import MarkovModelHiddenDimension  # noqa: E402


def with_runs(n_steps, n_symbols, runs, seed=0, stickiness=0.8):
    """A sticky symbol chain with the given ``(start, length)`` loss
    runs cut into it plus sparse single losses."""
    seq, _ = make_markov_sequence(
        n_steps=n_steps, n_symbols=n_symbols, stickiness=stickiness,
        loss_given_symbol=[0.02] * n_symbols, seed=seed)
    symbols = seq.symbols.copy()
    for start, length in runs:
        symbols[start:start + length] = LOSS
    return ObservationSequence(symbols, n_symbols)


def assert_matches_dense(stats, row, model, seq, rtol=1e-10):
    ref = mmhd_estep(model, seq)
    for name in ("gamma0", "xi_sum", "loss_mass", "total_mass"):
        got, want = getattr(stats, name)[row], getattr(ref, name)
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=1e-13 * np.abs(want).max(),
                                   err_msg=name)
    np.testing.assert_allclose(stats.loglik[row], ref.loglik, rtol=1e-13)


def restart_stack(models, seq):
    """``models`` as a restart stack over ``seq``, with its aux."""
    aux = _Aux("mmhd", SymbolStack([seq]), models[0].n_hidden)
    batch = _BATCH_TYPES["mmhd"].from_models(
        models, np.zeros(len(models), dtype=np.intp))
    return batch, aux


def folded_stats(models, seq):
    batch, aux = restart_stack(models, seq)
    return batch.estep(aux)


class TestFoldedMMHD:
    LAYOUTS = {
        # leading + trailing runs around interior runs of every size
        "edges": (600, [(0, 7), (100, 1), (200, 3), (590, 10)]),
        # runs longer than the block size (64) and the rescale cadence (16)
        "long": (900, [(50, 17), (150, 65), (400, 130)]),
        # no losses at either end
        "inner": (500, [(40, 2), (300, 5)]),
    }

    @pytest.mark.parametrize("layout", sorted(LAYOUTS))
    @pytest.mark.parametrize("n_hidden", [1, 2, 3, 5])
    def test_matches_dense_oracle(self, layout, n_hidden):
        n_steps, runs = self.LAYOUTS[layout]
        seq = with_runs(n_steps, 5, runs, seed=n_hidden)
        config = EMConfig(seed=4)
        models = [_initial_model("mmhd", seq, n_hidden, config, r)
                  for r in range(3)]
        stats = folded_stats(models, seq)
        for row, model in enumerate(models):
            assert_matches_dense(stats, row, model, seq)

    def test_bound_alphabet_m40(self):
        seq = with_runs(1500, 40, [(0, 3), (700, 21), (1490, 10)],
                        seed=9, stickiness=0.6)
        config = EMConfig(seed=2)
        models = [_initial_model("mmhd", seq, 2, config, r)
                  for r in range(2)]
        stats = folded_stats(models, seq)
        for row, model in enumerate(models):
            assert_matches_dense(stats, row, model, seq)

    def test_run_far_past_the_float64_range(self):
        """A 2000-loss run: the folded operator is ~c^2000, far below
        float64's range, and must stay exact through its power-of-two
        exponent."""
        seq = with_runs(2600, 5, [(300, 2000)], seed=5)
        model = MarkovModelHiddenDimension(
            np.full(10, 0.1), np.full((10, 10), 0.1),
            np.array([0.2, 0.25, 0.3, 0.35, 0.4]), 5)
        stats = folded_stats([model], seq)
        assert_matches_dense(stats, 0, model, seq, rtol=1e-9)

    def test_single_observed_step(self):
        seq = ObservationSequence([LOSS, LOSS, 3, LOSS, LOSS, LOSS], 5)
        config = EMConfig(seed=1)
        model = _initial_model("mmhd", seq, 2, config, 0)
        stats = folded_stats([model], seq)
        assert_matches_dense(stats, 0, model, seq)
        alpha, scales = mmhd_forward(model, seq)
        likes = model._observation_likelihoods(seq.zero_based())
        ref_alpha, _, ref_scales, _ = forward_backward(model, likes)
        np.testing.assert_allclose(alpha, ref_alpha, atol=1e-15)
        np.testing.assert_allclose(scales, ref_scales, rtol=1e-14)

    def test_ragged_rows_match_solo_bitwise(self):
        """Very unequal rows (3000 steps down to one observation): each
        row equals its solo one-row stack bit for bit, and the oracle to
        round-off."""
        seqs = [
            with_runs(3000, 5, [(0, 4), (1000, 70), (2990, 10)], seed=21),
            with_runs(40, 5, [(10, 20)], seed=22),
            ObservationSequence([LOSS, 2, LOSS], 5),
            with_runs(700, 5, [(600, 100)], seed=23),
        ]
        config = EMConfig(seed=6)
        models = [_initial_model("mmhd", s, 2, config, i)
                  for i, s in enumerate(seqs)]
        stack = SymbolStack(seqs)
        aux = _Aux("mmhd", stack, 2)
        fused = _BATCH_TYPES["mmhd"].from_models(
            models, np.arange(len(seqs))).estep(aux)
        for row, (seq, model) in enumerate(zip(seqs, models)):
            assert_matches_dense(fused, row, model, seq)
            solo_aux = _Aux("mmhd", SymbolStack([seq]), 2)
            solo = _BATCH_TYPES["mmhd"].from_models(
                [model], np.array([0])).estep(solo_aux)
            for name in ("gamma0", "xi_sum", "loss_mass", "total_mass",
                         "loglik"):
                assert np.array_equal(getattr(fused, name)[row],
                                      getattr(solo, name)[0]), name

    def test_zero_likelihood_caught_at_first_bad_step(self):
        """A warm row whose model forbids a symbol change collapses at
        the observed step after a loss run — reported per row at the
        same original step the dense recursion fails at."""
        symbols = [1, 1, LOSS, 1, LOSS, LOSS, 2, 2, LOSS, 3]
        seq = ObservationSequence(symbols, 3)
        stuck = MarkovModelHiddenDimension(
            np.eye(3)[0], np.eye(3), np.full(3, 0.1), 3)
        healthy = _initial_model("mmhd", seq, 1, EMConfig(seed=3), 0)
        likes = stuck._observation_likelihoods(seq.zero_based())
        with pytest.raises(FloatingPointError, match="t=6"):
            forward_backward(stuck, likes)
        batch, aux = restart_stack([healthy, stuck], seq)
        with pytest.raises(_BatchZeroLikelihood) as exc:
            batch.estep(aux)
        assert exc.value.rows.tolist() == [1]
        assert exc.value.first_bad_t == {1: 6}
        with pytest.raises(FloatingPointError, match="t=6"):
            mmhd_forward(stuck, seq)

    def test_pass_matches_dense_recursion(self):
        """alpha, beta and scales step by step, and a forward-only pass
        that stops before beta."""
        seq = with_runs(300, 5, [(0, 2), (100, 30), (295, 5)], seed=12)
        model = _initial_model("mmhd", seq, 2, EMConfig(seed=7), 0)
        batch, aux = restart_stack([model], seq)
        rows = np.zeros(1, dtype=np.intp)
        full = _folded_forward_backward(batch, aux, rows)
        alpha = full.dense(full.chain_alpha, full.loss_alpha)[0]
        beta = full.dense(full.chain_beta, full.loss_beta)[0]
        scales = full.scales.copy()
        fwd = _folded_forward_backward(batch, aux, rows, backward=False)
        assert fwd.chain_beta is None and fwd.loss_beta is None
        assert np.array_equal(fwd.dense(fwd.chain_alpha, fwd.loss_alpha)[0],
                              alpha)
        assert np.array_equal(fwd.scales, scales)
        likes = model._observation_likelihoods(seq.zero_based())
        ref_alpha, ref_beta, ref_scales, _ = forward_backward(model, likes)
        np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-15)
        # beta is only carried on each step's support (what gamma uses).
        support = likes > 0
        np.testing.assert_allclose(beta[support], ref_beta[support],
                                   rtol=1e-13)
        assert (beta[~support] == 0).all()
        np.testing.assert_allclose(full.scales[:, 0], ref_scales, rtol=1e-14)
