"""Property tests for the batched E-step engine.

The engine promises *parity*, not approximation: same seeds in, same
trajectories out.  These tests pin that promise against the per-step
single-model oracle (``tests/models/dense_reference.py``) for both model
families — per-restart log-likelihood trails, gamma/xi sufficient
statistics, and the winning restart — plus the edge cases the masking
logic has to get right (all restarts converging early, a single-restart
batch) and the kernel choice by state width.
"""

import numpy as np
import pytest

from repro.models import batched
from repro.models.base import EMConfig, ObservationSequence, SymbolStack
from repro.models.batched import (
    BLOCKED_STATE_LIMIT,
    _Aux,
    _BATCH_TYPES,
    batched_restart_fits,
)
from repro.models.hmm import fit_hmm
from repro.models.mmhd import fit_mmhd
from tests.conftest import make_markov_sequence
from tests.models import dense_reference
from tests.models.dense_reference import _fit_hmm_restart, _fit_mmhd_restart

KINDS = [
    ("hmm", fit_hmm, _fit_hmm_restart),
    ("mmhd", fit_mmhd, _fit_mmhd_restart),
]
ESTEPS = {"hmm": dense_reference.hmm_estep, "mmhd": dense_reference.mmhd_estep}


@pytest.fixture(scope="module")
def seq():
    sequence, _ = make_markov_sequence(n_steps=2500, seed=17)
    return sequence


def sequential_fits(seq, restart_worker, config):
    """Every restart through the oracle driver, one at a time."""
    return [restart_worker(seq, 2, config, restart)
            for restart in range(config.n_restarts)]


def restart_batch(kind, seq, models):
    """``models`` as a restart stack over ``seq`` (every row fits stack
    row 0), with its aux."""
    aux = _Aux(kind, SymbolStack([seq]), models[0].n_hidden)
    batch = _BATCH_TYPES[kind].from_models(
        models, np.zeros(len(models), dtype=np.intp))
    return batch, aux


class TestBackendParity:
    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_identical_trajectories_and_winner(self, seq, kind, fit,
                                              restart_worker):
        config = EMConfig(tol=1e-3, max_iter=30, n_restarts=3, seed=11,
                          freeze_loss_iters=2)
        batched_fits = batched_restart_fits(kind, seq, 2, config)
        seq_fits = sequential_fits(seq, restart_worker, config)
        assert len(batched_fits) == config.n_restarts
        for b, s in zip(batched_fits, seq_fits):
            assert b.n_iter == s.n_iter
            assert b.converged == s.converged
            np.testing.assert_allclose(
                b.log_likelihoods, s.log_likelihoods, rtol=1e-9
            )
            np.testing.assert_allclose(
                b.virtual_delay_pmf, s.virtual_delay_pmf, rtol=1e-9
            )
            for pb, ps in zip(b.model.parameters(), s.model.parameters()):
                np.testing.assert_allclose(pb, ps, rtol=1e-9)
        # Identical winning restart — tolerance 0 on the argmax.
        batched_winner = int(np.argmax(
            [f.log_likelihood for f in batched_fits]
        ))
        seq_winner = int(np.argmax([f.log_likelihood for f in seq_fits]))
        assert batched_winner == seq_winner

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_gamma_xi_statistics_match(self, seq, kind, fit,
                                      restart_worker):
        """The batched E-step's sufficient statistics row-match the
        oracle E-step run model by model."""
        config = EMConfig(n_restarts=3, seed=23)
        models = [
            batched._initial_model(kind, seq, 2, config, r)
            for r in range(3)
        ]
        batch, aux = restart_batch(kind, seq, models)
        stats = batch.estep(aux)
        for row, model in enumerate(models):
            ref = ESTEPS[kind](model, seq)
            if kind == "mmhd":
                np.testing.assert_allclose(stats.loss_mass[row],
                                           ref.loss_mass, rtol=1e-9)
                np.testing.assert_allclose(stats.total_mass[row],
                                           ref.total_mass, rtol=1e-9)
            else:
                np.testing.assert_allclose(stats.joint_obs[row],
                                           ref.joint_obs, rtol=1e-9)
                np.testing.assert_allclose(stats.joint_loss[row],
                                           ref.joint_loss, rtol=1e-9)
            np.testing.assert_allclose(stats.gamma0[row], ref.gamma0,
                                       rtol=1e-9)
            np.testing.assert_allclose(stats.xi_sum[row], ref.xi_sum,
                                       rtol=1e-9)
            np.testing.assert_allclose(stats.loglik[row], ref.loglik,
                                       rtol=1e-12)

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_fit_level_parity(self, seq, kind, fit,
                             restart_worker):
        """End to end through fit_hmm/fit_mmhd against the oracle's
        best-of-restarts fit."""
        config = EMConfig(tol=1e-3, max_iter=30, n_restarts=3, seed=5,
                          freeze_loss_iters=2)
        b = fit(seq, 2, config=config)
        s = dense_reference.fit_best(kind, seq, 2, config)
        assert abs(b.log_likelihood - s.log_likelihood) <= (
            1e-9 * abs(s.log_likelihood)
        )
        assert b.n_iter == s.n_iter
        np.testing.assert_allclose(b.virtual_delay_pmf,
                                   s.virtual_delay_pmf, rtol=1e-9)

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_all_restarts_converge_early(self, seq, kind, fit,
                                        restart_worker):
        """A huge tolerance converges every row on its first unfrozen
        iteration; the masking bookkeeping must still finalize all."""
        config = EMConfig(tol=1e6, max_iter=30, n_restarts=3, seed=3,
                          freeze_loss_iters=1)
        batched_fits = batched_restart_fits(kind, seq, 2, config)
        seq_fits = sequential_fits(seq, restart_worker, config)
        for b, s in zip(batched_fits, seq_fits):
            assert b.converged and s.converged
            assert b.n_iter == s.n_iter == 2
            np.testing.assert_allclose(
                b.log_likelihoods, s.log_likelihoods, rtol=1e-9
            )

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_single_restart(self, seq, kind, fit,
                           restart_worker):
        config = EMConfig(tol=1e-3, max_iter=25, n_restarts=1, seed=9,
                          freeze_loss_iters=2)
        (b,) = batched_restart_fits(kind, seq, 2, config)
        (s,) = sequential_fits(seq, restart_worker, config)
        assert b.n_iter == s.n_iter
        np.testing.assert_allclose(b.log_likelihoods, s.log_likelihoods,
                                   rtol=1e-9)
        np.testing.assert_allclose(b.virtual_delay_pmf,
                                   s.virtual_delay_pmf, rtol=1e-9)

    @pytest.mark.parametrize("kind,fit,restart_worker", KINDS)
    def test_sharded_batches_are_bit_identical(self, seq, kind, fit,
                                              restart_worker):
        """Batch rows are computed independently, so sharding the batch
        over workers changes nothing — not even the last ulp."""
        config = EMConfig(tol=1e-3, max_iter=25, n_restarts=3, seed=13,
                          freeze_loss_iters=2)
        f1 = fit(seq, 2, config=config)
        f4 = fit(seq, 2, config=config.replace(n_jobs=3))
        assert f1.log_likelihoods == f4.log_likelihoods
        assert np.array_equal(f1.virtual_delay_pmf, f4.virtual_delay_pmf)
        for a, b in zip(f1.model.parameters(), f4.model.parameters()):
            assert np.array_equal(a, b)


class TestBackendResolution:
    """One engine; the kernel follows the state width and nothing else."""

    def test_auto_uses_state_width(self, seq):
        """The HMM runs the blocked scan up to BLOCKED_STATE_LIMIT (4) and
        the loop kernel above it; the MMHD's folded chain is ``N`` wide
        and always scanned blocked."""
        stack = SymbolStack([seq])
        assert BLOCKED_STATE_LIMIT == 4
        for n_hidden, hmm_kernel in ((1, "blocked"), (4, "blocked"),
                                     (5, "loop"), (16, "loop")):
            assert _Aux("hmm", stack, n_hidden).kernel == hmm_kernel
            assert _Aux("mmhd", stack, n_hidden).kernel == "blocked"

    def test_explicit_backend_wins(self, seq, monkeypatch):
        """The one override is the width limit itself — what the kernel
        benchmark patches to time the loop kernel at width 2 — and it is
        read when a stack's aux is built."""
        stack = SymbolStack([seq])
        monkeypatch.setattr(batched, "BLOCKED_STATE_LIMIT", 0)
        assert _Aux("hmm", stack, 2).kernel == "loop"
        monkeypatch.setattr(batched, "BLOCKED_STATE_LIMIT", 8)
        assert _Aux("hmm", stack, 5).kernel == "blocked"

    def test_env_var_default(self, seq, monkeypatch):
        """The old engine environment variables select nothing: a fit
        with them set is bit-identical to one without."""
        config = EMConfig(tol=1e-3, max_iter=12, n_restarts=2, seed=7,
                          freeze_loss_iters=2)
        refs = [fit(seq, 2, config=config) for _, fit, _ in KINDS]
        monkeypatch.setenv("REPRO_EM_DTYPE", "float32")
        monkeypatch.setenv("REPRO_EM_BLOCK_SIZE", "8")
        monkeypatch.setenv("REPRO_EM_BACKEND", "sequential")
        for (_, fit, _), ref in zip(KINDS, refs):
            out = fit(seq, 2, config=EMConfig(tol=1e-3, max_iter=12,
                                              n_restarts=2, seed=7,
                                              freeze_loss_iters=2))
            assert out.log_likelihoods == ref.log_likelihoods
            assert np.array_equal(out.virtual_delay_pmf,
                                  ref.virtual_delay_pmf)
            for a, b in zip(out.model.parameters(), ref.model.parameters()):
                assert np.array_equal(a, b)

    def test_invalid_backend_rejected(self):
        """The engine knobs are gone from EMConfig, not ignored."""
        for knob in ({"backend": "sequential"}, {"dtype": "float32"},
                     {"block_size": 8}, {"fast_path": False}):
            with pytest.raises(TypeError):
                EMConfig(**knob)
            with pytest.raises(TypeError, match="unknown EMConfig"):
                EMConfig().replace(**knob)
        assert len(vars(EMConfig())) == 10


# ----------------------------------------------------------------------
# Ragged multi-sequence batches
# ----------------------------------------------------------------------

from repro.models.base import PAD, SymbolIndex  # noqa: E402
from repro.models.batched import run_hedged_fits  # noqa: E402
from repro.streaming.online_em import _trail_collapsed  # noqa: E402


def ragged_sequences(lengths, seed0=40):
    return [make_markov_sequence(n_steps=n, seed=seed0 + i)[0]
            for i, n in enumerate(lengths)]


def solo_hedged_fit(kind, seq, n_hidden, config, warm_model):
    """One window through :func:`run_hedged_fits`: the per-window fit."""
    (result,), _ = run_hedged_fits(kind, [seq], n_hidden, [config],
                                   [warm_model], _trail_collapsed)
    return result


class TestSymbolStack:
    def test_padding_and_masks(self):
        seqs = ragged_sequences([50, 30]) + [ObservationSequence([2], 5)]
        stack = SymbolStack(seqs)
        assert stack.n_rows == 3
        assert stack.t_max == 50
        assert stack.lengths.tolist() == [50, 30, 1]
        assert stack.symbols0[1, 30:].tolist() == [PAD] * 20
        assert stack.valid[1, :30].all() and not stack.valid[1, 30:].any()
        assert int(stack.valid.sum()) == 81
        # observed and lost partition exactly the valid region
        assert np.array_equal(stack.valid, stack.observed | stack.lost)
        assert not (stack.observed & stack.lost).any()

    def test_row_index_matches_solo(self):
        seqs = ragged_sequences([60, 25])
        stack = SymbolStack(seqs)
        for row, seq in enumerate(seqs):
            solo = SymbolIndex(seq)
            np.testing.assert_array_equal(stack.row_index(row).symbols0,
                                          solo.symbols0)
            np.testing.assert_array_equal(
                stack.symbols0[row, : len(seq)], solo.symbols0
            )

    def test_rejects_empty_and_mismatched(self):
        with pytest.raises(ValueError, match="at least one"):
            SymbolStack([])
        with pytest.raises(ValueError, match="n_symbols"):
            SymbolStack([ObservationSequence([1], 5),
                         ObservationSequence([1], 4)])


class TestRaggedEStep:
    # Unequal lengths, a duplicate length (group of 2), a length-1 edge
    # row, and a row whose padded tail dominates the stack.
    LENGTHS = [900, 400, 900, 150]

    def _batch(self, kind, seqs, config, n_hidden=2):
        stack = SymbolStack(seqs)
        aux = _Aux(kind, stack, n_hidden)
        models = [batched._initial_model(kind, seq, n_hidden, config, r)
                  for r, seq in enumerate(seqs)]
        batch = _BATCH_TYPES[kind].from_models(
            models, np.arange(len(models))
        )
        return batch, aux, models

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_mixed_lengths_match_solo_estep(self, kind):
        """Each row's statistics equal the oracle E-step on that row
        alone, padding notwithstanding."""
        config = EMConfig(seed=31)
        seqs = ragged_sequences(self.LENGTHS)
        seqs.append(ObservationSequence([2], 5))  # length-1 edge row
        batch, aux, models = self._batch(kind, seqs, config)
        stats = batch.estep(aux)
        for row, (model, seq) in enumerate(zip(models, seqs)):
            ref = ESTEPS[kind](model, seq)
            if kind == "mmhd":
                np.testing.assert_allclose(stats.loss_mass[row],
                                           ref.loss_mass, rtol=1e-9,
                                           atol=1e-300)
                np.testing.assert_allclose(stats.total_mass[row],
                                           ref.total_mass, rtol=1e-9)
            else:
                np.testing.assert_allclose(stats.joint_obs[row],
                                           ref.joint_obs, rtol=1e-9)
                np.testing.assert_allclose(stats.joint_loss[row],
                                           ref.joint_loss, rtol=1e-9,
                                           atol=1e-300)
            np.testing.assert_allclose(stats.gamma0[row], ref.gamma0,
                                       rtol=1e-9)
            np.testing.assert_allclose(stats.xi_sum[row], ref.xi_sum,
                                       rtol=1e-9, atol=1e-300)
            np.testing.assert_allclose(stats.loglik[row], ref.loglik,
                                       rtol=1e-12)

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_mixed_batch_is_bitwise_equal_to_singletons(self, kind):
        """Stacking rows of unequal length changes nothing — not even
        the last ulp — versus a one-row ragged batch per sequence."""
        config = EMConfig(seed=37)
        seqs = ragged_sequences(self.LENGTHS, seed0=50)
        batch, aux, models = self._batch(kind, seqs, config)
        stats = batch.estep(aux)
        for row, seq in enumerate(seqs):
            solo_batch, solo_aux, _ = self._batch(kind, [seq], config)
            solo_batch.pi[0] = batch.pi[row]
            solo_batch.transition[0] = batch.transition[row]
            solo_batch.loss_c[0] = batch.loss_c[row]
            if kind == "hmm":
                solo_batch.emission[0] = batch.emission[row]
            solo = solo_batch.estep(solo_aux)
            assert stats.loglik[row] == solo.loglik[0]
            assert np.array_equal(stats.gamma0[row], solo.gamma0[0])
            assert np.array_equal(stats.xi_sum[row], solo.xi_sum[0])
            if kind == "mmhd":
                assert np.array_equal(stats.loss_mass[row],
                                      solo.loss_mass[0])
                assert np.array_equal(stats.total_mass[row],
                                      solo.total_mass[0])
            else:
                assert np.array_equal(stats.joint_obs[row],
                                      solo.joint_obs[0])
                assert np.array_equal(stats.joint_loss[row],
                                      solo.joint_loss[0])


class TestRaggedHedged:
    CONFIG = EMConfig(tol=1e-3, max_iter=30, n_restarts=2, seed=11,
                      freeze_loss_iters=2)

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_multi_window_matches_solo(self, kind):
        """run_hedged_fits over windows of unequal length returns, per
        window, byte-identical results to one-window calls."""
        lengths = [1200, 700, 1200, 300]
        seqs = ragged_sequences(lengths, seed0=60)
        configs = [self.CONFIG.replace(seed=100 + i)
                   for i in range(len(seqs))]
        warms = [batched._initial_model(kind, seq, 2, cfg, 7)
                 for seq, cfg in zip(seqs, configs)]
        fused, info = run_hedged_fits(kind, seqs, 2, configs, warms,
                                      _trail_collapsed)
        assert info["windows"] == len(seqs)
        # One warm row per window, plus n_restarts lazy cold rows for
        # each window that fell back.
        fallbacks = sum(1 for _, warm_used, _ in fused if not warm_used)
        assert info["rows"] == (len(seqs)
                                + fallbacks * self.CONFIG.n_restarts)
        assert info["t_max"] == max(lengths)
        assert 0.0 < info["pad_fraction"] < 1.0
        for (fitted, warm_used, reason), seq, cfg in zip(fused, seqs,
                                                         configs):
            warm = batched._initial_model(kind, seq, 2, cfg, 7)
            solo, solo_warm, solo_reason = solo_hedged_fit(
                kind, seq, 2, cfg, warm)
            assert warm_used == solo_warm
            assert reason == solo_reason
            assert fitted.n_iter == solo.n_iter
            assert fitted.converged == solo.converged
            assert fitted.log_likelihoods == solo.log_likelihoods
            assert np.array_equal(fitted.virtual_delay_pmf,
                                  solo.virtual_delay_pmf)
            for a, b in zip(fitted.model.parameters(),
                            solo.model.parameters()):
                assert np.array_equal(a, b)

    def test_fallback_window_matches_solo(self):
        """A degenerate warm state in one window falls back to its cold
        restarts without disturbing the healthy windows."""
        from repro.models.mmhd import MarkovModelHiddenDimension

        seqs = ragged_sequences([800, 500], seed0=70)
        configs = [self.CONFIG.replace(seed=200 + i) for i in range(2)]
        # pi pinned to one symbol + absorbing identity transition: the
        # first observed symbol change has zero probability.
        degenerate = MarkovModelHiddenDimension(
            np.eye(5)[0], np.eye(5), np.full(5, 0.01), 5
        )
        healthy = batched._initial_model("mmhd", seqs[0], 1, configs[0], 3)
        fused, _ = run_hedged_fits(
            "mmhd", seqs, 1, configs, [healthy, degenerate],
            _trail_collapsed,
        )
        assert fused[0][1] is True and fused[0][2] is None
        assert fused[1][1] is False
        assert fused[1][2] == "zero-likelihood"
        for (fitted, warm_used, reason), seq, cfg, warm in zip(
            fused, seqs, configs,
            [batched._initial_model("mmhd", seqs[0], 1, configs[0], 3),
             MarkovModelHiddenDimension(np.eye(5)[0], np.eye(5),
                                        np.full(5, 0.01), 5)],
        ):
            solo, solo_warm, solo_reason = solo_hedged_fit(
                "mmhd", seq, 1, cfg, warm)
            assert (warm_used, reason) == (solo_warm, solo_reason)
            assert fitted.log_likelihoods == solo.log_likelihoods
            assert np.array_equal(fitted.virtual_delay_pmf,
                                  solo.virtual_delay_pmf)

    @staticmethod
    def _assert_same_fit(fitted, solo):
        assert fitted.n_iter == solo.n_iter
        assert fitted.converged == solo.converged
        assert fitted.log_likelihoods == solo.log_likelihoods
        assert np.array_equal(fitted.virtual_delay_pmf,
                              solo.virtual_delay_pmf)
        for a, b in zip(fitted.model.parameters(), solo.model.parameters()):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_cold_windows_match_batch_fitter(self, kind):
        """A window with no warm model skips phase one and returns the
        batch fitter's cold fit, bit for bit, as ``(fitted, False,
        None)``; a warm window between two such windows is
        undisturbed."""
        seqs = ragged_sequences([900, 500, 900], seed0=90)
        configs = [self.CONFIG.replace(seed=300 + i) for i in range(3)]
        warm = batched._initial_model(kind, seqs[1], 2, configs[1], 5)
        fused, info = run_hedged_fits(kind, seqs, 2, configs,
                                      [None, warm, None], _trail_collapsed)
        fitter = fit_hmm if kind == "hmm" else fit_mmhd
        for w in (0, 2):
            fitted, warm_used, reason = fused[w]
            assert (warm_used, reason) == (False, None)
            self._assert_same_fit(fitted, fitter(seqs[w], 2, configs[w]))
        solo = solo_hedged_fit(
            kind, seqs[1], 2, configs[1],
            batched._initial_model(kind, seqs[1], 2, configs[1], 5))
        assert fused[1][1:] == solo[1:]
        self._assert_same_fit(fused[1][0], solo[0])
        fell_back = not fused[1][1]
        assert info["rows"] == (1 + (2 + fell_back)
                                * self.CONFIG.n_restarts)
        assert info["t_max"] == 900

    @pytest.mark.parametrize("n_jobs", [1, 2])
    @pytest.mark.parametrize("kind", ["hmm", "mmhd"])
    def test_batch_fitter_is_the_one_window_cold_fit(self, kind, n_jobs):
        """``fit_hmm`` / ``fit_mmhd`` at any ``n_jobs`` equal the cold
        fit of a one-window run_hedged_fits with no warm model, bit for
        bit: the batch pipeline and a fleet's first-window fit share
        one cold driver."""
        (seq,) = ragged_sequences([900], seed0=110)
        config = self.CONFIG.replace(n_restarts=3, seed=13)
        fitter = fit_hmm if kind == "hmm" else fit_mmhd
        fitted = fitter(seq, 2, config.replace(n_jobs=n_jobs))
        cold, warm_used, reason = solo_hedged_fit(kind, seq, 2, config, None)
        assert (warm_used, reason) == (False, None)
        self._assert_same_fit(fitted, cold)

    def test_all_cold_round_is_one_shared_stack(self, monkeypatch):
        """With no warm model, no phase-one stack is built, and the cold
        stack holds one copy of each window for all its restart rows
        while the accounting still counts every row's slots."""
        built = []

        def no_warm_phase(*args, **kwargs):
            raise AssertionError("phase one ran without warm rows")

        class RecordingStack(SymbolStack):
            def __init__(self, seqs):
                super().__init__(seqs)
                built.append(self.n_rows)

        monkeypatch.setattr(batched, "_warm_phase", no_warm_phase)
        monkeypatch.setattr(batched, "SymbolStack", RecordingStack)
        lengths = [900, 500, 900]
        seqs = ragged_sequences(lengths, seed0=95)
        configs = [self.CONFIG.replace(seed=400 + i) for i in range(3)]
        fused, info = run_hedged_fits("mmhd", seqs, 2, configs,
                                      [None] * 3, _trail_collapsed)
        assert built == [3]
        n_restarts = self.CONFIG.n_restarts
        assert info["rows"] == 3 * n_restarts
        assert info["pad_fraction"] == pytest.approx(
            1.0 - sum(lengths) / (3 * max(lengths)))
        assert all(not warm_used and reason is None
                   for _, warm_used, reason in fused)
        for (fitted, _, _), seq, cfg in zip(fused, seqs, configs):
            self._assert_same_fit(fitted, fit_mmhd(seq, 2, cfg))

    def test_rejects_mismatched_configs(self):
        seqs = ragged_sequences([300, 300], seed0=80)
        warms = [batched._initial_model("mmhd", seq, 1, self.CONFIG, 0)
                 for seq in seqs]
        with pytest.raises(ValueError, match="seed"):
            run_hedged_fits(
                "mmhd", seqs, 1,
                [self.CONFIG, self.CONFIG.replace(tol=1e-5)],
                warms, _trail_collapsed,
            )

    def test_empty_batch(self):
        results, info = run_hedged_fits("mmhd", [], 1, [], [],
                                        _trail_collapsed)
        assert results == []
        assert info["windows"] == 0
