"""Property tests for the blocked-scan forward-backward kernel.

The blocked kernel replaces the per-time-step Python loop with composed
operator blocks; these tests pin its contracts:

- numerical parity with the loop kernels for every block-size shape
  (``B = 1``, ``B`` not dividing ``T``, ``B >= T``, single-step rows),
  uniform and ragged;
- the *exact* padded-region carry semantics of the ragged loop kernel,
  and bitwise independence of a row's results from its batch composition
  (the fused-equals-solo contract, guaranteed by the pinned ragged block
  size);
- float32 operation within tolerance, underflow detection, and the
  automatic one-shot demotion to float64;
- workspace reuse (no per-iteration reallocation of the big buffers);
- telemetry that reports what actually ran;
- the loss-folded MMHD pass (:func:`_folded_forward_backward`) against
  the dense MMHD E-step oracle.
"""

import io
import json

import numpy as np
import pytest

from repro import obs
from repro.models.base import EMConfig, SymbolIndex, SymbolStack
from repro.models.batched import (
    BATCH_BACKENDS,
    BLOCKED_STATE_LIMIT,
    RAGGED_BLOCK_SIZE,
    _BatchZeroLikelihood,
    _blocked_forward_backward,
    _check_scales,
    _EStepAux,
    _ragged_forward_backward,
    _RaggedAux,
    _Workspace,
    batched_restart_fits,
    resolve_backend,
    resolve_block_size,
    run_estep,
    run_hedged_fit,
    run_hedged_fits,
)
from repro.models.hmm import fit_hmm
from repro.obs.provenance import config_to_dict, em_config_from_dict
from tests.conftest import make_markov_sequence
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
        # B = 1, B not dividing T, B = T, B > T, and the auto choice.
        for block in (1, 3, 16, n_steps, 2 * n_steps, None):
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


class TestFloat32:
    def test_kernel_tolerance_parity(self):
        rng = np.random.default_rng(3)
        pi, transition, likes = random_problem(rng, 400, 4, 2)
        ref = loop_kernel(pi, transition, likes)[:3]
        out32 = _blocked_forward_backward(
            pi.astype(np.float32), transition.astype(np.float32),
            likes.astype(np.float32), block_size=16,
        )
        for a, b in zip(ref, out32):
            assert b.dtype == np.float32
            np.testing.assert_allclose(a, b.astype(np.float64), rtol=1e-4)

    def test_float32_underflow_raises(self):
        """Likelihoods below the float32 range must surface as a
        zero-likelihood collapse, not silently corrupt the fit."""
        rng = np.random.default_rng(4)
        pi, transition, likes = random_problem(rng, 30, 2, 2)
        likes[10, 0] = 1e-50  # zero after the float32 cast
        f32 = (pi.astype(np.float32), transition.astype(np.float32),
               likes.astype(np.float32))
        with pytest.raises(_BatchZeroLikelihood):
            _blocked_forward_backward(*f32, block_size=8)
        # The same problem is fine at float64.
        _blocked_forward_backward(pi, transition, likes, block_size=8)

    def test_run_estep_demotes_once_then_retries(self):
        seq, _ = make_markov_sequence(n_steps=300, seed=5)
        aux = _EStepAux("hmm", SymbolIndex(seq), EMConfig(dtype="float32"),
                        2, backend="blocked")
        assert aux.dtype == np.float32

        class FakeBatch:
            calls = 0

            def estep(self, aux):
                FakeBatch.calls += 1
                if aux.dtype == np.float32:
                    raise _BatchZeroLikelihood(0, np.array([0]))
                return "recovered"

        assert run_estep(FakeBatch(), aux) == "recovered"
        assert FakeBatch.calls == 2
        assert aux.dtype == np.float64
        assert aux.dtype_fallbacks == 1
        # Already at float64: the collapse is genuine and propagates.
        class DeadBatch:
            def estep(self, aux):
                raise _BatchZeroLikelihood(3, np.array([1]))

        with pytest.raises(_BatchZeroLikelihood):
            run_estep(DeadBatch(), aux)
        assert aux.dtype_fallbacks == 1

    def test_fit_level_tolerance_parity(self):
        seq, _ = make_markov_sequence(n_steps=1200, seed=23)
        base = EMConfig(tol=1e-3, max_iter=15, n_restarts=2, seed=9,
                        freeze_loss_iters=2, backend="blocked")
        f64 = fit_hmm(seq, 2, config=base)
        f32 = fit_hmm(seq, 2, config=base.replace(dtype="float32"))
        assert np.isclose(f32.log_likelihood, f64.log_likelihood,
                          rtol=1e-2)
        np.testing.assert_allclose(f32.virtual_delay_pmf,
                                   f64.virtual_delay_pmf, atol=1e-2)


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
        # Ragged batches pin to the fixed block size.
        assert resolve_block_size(None) == RAGGED_BLOCK_SIZE
        # sqrt(3T) rounded to the measured-best powers of two.
        assert resolve_block_size(10000, 2) == 128
        assert resolve_block_size(100, 2) == 32
        assert resolve_block_size(1, 2) == 32
        # Wide states cap the scan working set.
        assert resolve_block_size(100000, 2) == 256
        assert resolve_block_size(100000, 10) == 128

    def test_resolve_kernel_fallbacks(self):
        """The backend names the kernel outright; nothing degrades."""
        seq, _ = make_markov_sequence(n_steps=200, seed=1)
        index = SymbolIndex(seq)
        for kind, batched_kernel in (("hmm", "loop"), ("mmhd", "blocked")):
            for backend, kernel in (("blocked", "blocked"),
                                    ("batched", batched_kernel)):
                aux = _EStepAux(kind, index, EMConfig(), 2, backend=backend)
                assert aux.kernel == kernel
                assert not hasattr(aux, "kernel_fallback")
        # The dense MMHD reference always runs the loop kernel.
        dense = _EStepAux("mmhd", index, EMConfig(fast_path=False), 2,
                          backend="blocked")
        assert dense.kernel == "loop"

    def test_backends_frozen(self):
        assert {"batched", "blocked"} == set(BATCH_BACKENDS)
        assert resolve_backend(EMConfig(backend="blocked"), 4) == "blocked"
        with pytest.raises(ValueError, match="backend"):
            EMConfig(backend="compiled")

    def test_config_validation_and_env(self, monkeypatch):
        with pytest.raises(ValueError, match="dtype"):
            EMConfig(dtype="float16")
        with pytest.raises(ValueError, match="block_size"):
            EMConfig(block_size=0)
        monkeypatch.setenv("REPRO_EM_DTYPE", "float32")
        monkeypatch.setenv("REPRO_EM_BLOCK_SIZE", "48")
        config = EMConfig()
        assert config.dtype == "float32"
        assert config.block_size == 48
        assert config.replace(seed=1).dtype == "float32"
        monkeypatch.setenv("REPRO_EM_DTYPE", "float128")
        with pytest.raises(ValueError, match="dtype"):
            EMConfig()

    def test_provenance_round_trip(self):
        config = EMConfig(dtype="float32", block_size=96, backend="blocked")
        restored = em_config_from_dict(config_to_dict(config))
        assert restored.dtype == "float32"
        assert restored.block_size == 96
        assert restored.backend == "blocked"

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


class TestFitParity:
    @pytest.mark.parametrize("backend", ["blocked"])
    def test_blocked_fit_matches_batched_fit(self, backend):
        """Same winner, same trajectory length, loglik within parity
        tolerance — the fit-level acceptance contract."""
        seq, _ = make_markov_sequence(n_steps=1500, seed=29)
        config = EMConfig(tol=1e-3, max_iter=20, n_restarts=3, seed=3,
                          freeze_loss_iters=2)
        ref = fit_hmm(seq, 2, config=config.replace(backend="batched"))
        out = fit_hmm(seq, 2, config=config.replace(backend=backend))
        assert out.n_iter == ref.n_iter
        assert np.isclose(out.log_likelihood, ref.log_likelihood,
                          rtol=RTOL)
        np.testing.assert_allclose(out.virtual_delay_pmf,
                                   ref.virtual_delay_pmf, rtol=1e-6)

    def test_hedged_fit_matches_across_kernels(self):
        seq, _ = make_markov_sequence(n_steps=900, seed=31)
        config = EMConfig(tol=1e-3, max_iter=15, n_restarts=2, seed=5)
        cold = fit_hmm(seq, 2, config=config.replace(backend="batched"))
        results = {}
        for backend in ("batched", "blocked"):
            fitted, warm_used, reason = run_hedged_fit(
                "hmm", seq, 2, config, cold.model, lambda trail: None,
                backend=backend,
            )
            assert warm_used and reason is None
            results[backend] = fitted
        assert np.isclose(results["blocked"].log_likelihood,
                          results["batched"].log_likelihood, rtol=RTOL)

    def test_ragged_kernel_is_pinned_regardless_of_config(self):
        seq, _ = make_markov_sequence(n_steps=300, seed=2)
        stack = SymbolStack([seq])
        aux = _RaggedAux("hmm", stack, EMConfig(), 2, backend="blocked")
        assert aux.block_size == RAGGED_BLOCK_SIZE
        explicit = _RaggedAux("hmm", stack, EMConfig(block_size=32), 2,
                              backend="blocked")
        assert explicit.block_size == 32


class TestTelemetry:
    def events(self, sink):
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_backend_event_reports_kernel_dtype_block(self):
        seq, _ = make_markov_sequence(n_steps=800, seed=41)
        sink = io.StringIO()
        obs.enable(events=sink, clear=True)
        try:
            config = EMConfig(tol=1e-3, max_iter=5, n_restarts=2, seed=1,
                              backend="blocked")
            batched_restart_fits("hmm", seq, 2, config, backend="blocked")
        finally:
            obs.disable()
        (event,) = [e for e in self.events(sink)
                    if e["kind"] == "em.backend"]
        assert event["backend"] == "blocked"
        assert event["kernel"] == "blocked"
        assert event["dtype"] == "float64"
        assert event["block_size"] >= 1
        assert event["dtype_fallbacks"] == 0


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
    def test_hedged_windows_agree_across_kernels(self):
        """The fused drain's verdict-bearing outputs agree whichever
        kernel runs the mega-batch (float64)."""
        seqs = []
        for i, n_steps in enumerate((700, 450, 700)):
            seq, _ = make_markov_sequence(n_steps=n_steps, seed=50 + i)
            seqs.append(seq)
        config = EMConfig(tol=1e-3, max_iter=12, n_restarts=2, seed=8)
        warm = [
            fit_hmm(s, 2, config=config.replace(backend="batched")).model
            for s in seqs
        ]
        outputs = {}
        for backend in ("batched", "blocked"):
            results, info = run_hedged_fits(
                "hmm", seqs, 2, [config] * len(seqs), list(warm),
                lambda trail: None, backend=backend,
            )
            assert info["kernel"] == ("loop" if backend == "batched"
                                      else "blocked")
            outputs[backend] = results
        for (fa, wa, ra), (fb, wb, rb) in zip(outputs["batched"],
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
    _RAGGED_TYPES,
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
    ref = model._estep_dense(SymbolIndex(seq))
    for name in ("gamma0", "xi_sum", "loss_mass", "total_mass"):
        got, want = getattr(stats, name)[row], getattr(ref, name)
        np.testing.assert_allclose(got, want, rtol=rtol,
                                   atol=1e-13 * np.abs(want).max(),
                                   err_msg=name)
    np.testing.assert_allclose(stats.loglik[row], ref.loglik, rtol=1e-13)


def folded_stats(models, seq):
    aux = _EStepAux("mmhd", SymbolIndex(seq), EMConfig(),
                    models[0].n_hidden, backend="blocked")
    return _BATCH_TYPES["mmhd"].from_models(models).estep(aux)


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
        ref_alpha, _, ref_scales, _ = model._forward_backward(likes)
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
        aux = _RaggedAux("mmhd", stack, config, 2, backend="blocked")
        fused = _RAGGED_TYPES["mmhd"].from_models(
            models, np.arange(len(seqs))).estep(aux)
        for row, (seq, model) in enumerate(zip(seqs, models)):
            assert_matches_dense(fused, row, model, seq)
            solo_aux = _RaggedAux("mmhd", SymbolStack([seq]), config, 2,
                                  backend="blocked")
            solo = _RAGGED_TYPES["mmhd"].from_models(
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
            stuck._forward_backward(likes)
        aux = _EStepAux("mmhd", SymbolIndex(seq), EMConfig(), 1,
                        backend="blocked")
        batch = _BATCH_TYPES["mmhd"].from_models([healthy, stuck])
        with pytest.raises(_BatchZeroLikelihood) as exc:
            batch.estep(aux)
        assert exc.value.rows.tolist() == [1]
        assert exc.value.first_bad_t == {1: 6}
        with pytest.raises(FloatingPointError, match="t=6"):
            mmhd_forward(stuck, seq)

    def test_float32_demotes_on_underflow(self):
        seq = with_runs(400, 5, [(0, 3), (200, 20)], seed=8)
        model = _initial_model("mmhd", seq, 2, EMConfig(seed=1), 0)
        tiny_c = MarkovModelHiddenDimension(
            model.pi, model.transition, np.full(5, 1e-50), 5)
        aux = _EStepAux("mmhd", SymbolIndex(seq), EMConfig(dtype="float32"),
                        2, backend="blocked")
        assert aux.dtype == np.float32
        stats = run_estep(_BATCH_TYPES["mmhd"].from_models([tiny_c]), aux)
        assert aux.dtype == np.float64 and aux.dtype_fallbacks == 1
        assert_matches_dense(stats, 0, tiny_c, seq)
        # A healthy model stays narrow and agrees to float32 precision.
        aux32 = _EStepAux("mmhd", SymbolIndex(seq), EMConfig(dtype="float32"),
                          2, backend="blocked")
        stats32 = run_estep(_BATCH_TYPES["mmhd"].from_models([model]), aux32)
        assert aux32.dtype == np.float32
        ref = model._estep_dense(SymbolIndex(seq))
        np.testing.assert_allclose(stats32.loglik[0], ref.loglik, rtol=1e-5)
        np.testing.assert_allclose(stats32.loss_mass[0], ref.loss_mass,
                                   rtol=1e-3)

    def test_pass_matches_dense_recursion(self):
        """alpha, beta and scales step by step, and a forward-only pass
        that stops before beta."""
        seq = with_runs(300, 5, [(0, 2), (100, 30), (295, 5)], seed=12)
        model = _initial_model("mmhd", seq, 2, EMConfig(seed=7), 0)
        aux = _EStepAux("mmhd", SymbolIndex(seq), EMConfig(), 2,
                        backend="blocked")
        batch = _BATCH_TYPES["mmhd"].from_models([model])
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
        ref_alpha, ref_beta, ref_scales, _ = model._forward_backward(likes)
        np.testing.assert_allclose(alpha, ref_alpha, rtol=0, atol=1e-15)
        # beta is only carried on each step's support (what gamma uses).
        support = likes > 0
        np.testing.assert_allclose(beta[support], ref_beta[support],
                                   rtol=1e-13)
        assert (beta[~support] == 0).all()
        np.testing.assert_allclose(full.scales[:, 0], ref_scales, rtol=1e-14)
