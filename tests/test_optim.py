"""AdamW, schedule, and gradient accumulation contracts."""

import tracemalloc

import numpy as np
import pytest

from mtlab import kernels
from mtlab import model as M
from mtlab import optim
from mtlab.config import build_experiment_config
from mtlab.errors import ConfigError, OptimError
from mtlab.harness import ExperimentConfig, run_experiment
from mtlab.numerics import backward
from mtlab.numerics.autodiff import Tensor
from mtlab.synth import SyntheticLangSpec, gen_synthetic
from mtlab.tokenizer import train_subword

from conftest import float64_params


def _scalar_params(value=1.0):
    cfg = M.ModelConfig(vocab_size=10, d_model=2, n_heads=1, n_enc_layers=1,
                        n_dec_layers=1, d_ff=2, max_positions=4)
    # a bare two-entry parameter set is enough to drive the optimizer
    tensors = {"w": Tensor(np.array([[value]], dtype=np.float64))}
    return M.Params(cfg, tensors)


class TestSchedule:
    def test_boundaries(self):
        sched = (100, 1000)  # warmup, total steps
        lr0 = 0.3
        assert optim.lr_at(*sched, lr0, 0) == 0.0
        assert optim.lr_at(*sched, lr0, 100) == pytest.approx(lr0)
        assert optim.lr_at(*sched, lr0, 550) == pytest.approx(0.5 * lr0)
        assert optim.lr_at(*sched, lr0, 1000) == 0.0
        assert optim.lr_at(*sched, lr0, 5000) == 0.0

    def test_piecewise_linear_and_continuous(self):
        sched = (10, 50)
        values = [optim.lr_at(*sched, 1.0, s) for s in range(60)]
        assert max(values) == pytest.approx(1.0)
        assert values.index(max(values)) == 10
        diffs = np.diff(values)
        # two slopes only: warmup up-slope and decay down-slope (then flat 0)
        assert np.allclose(diffs[:9], 0.1)
        assert np.allclose(diffs[10:49], -1.0 / 40)

    def test_zero_warmup(self):
        sched = (0, 10)
        assert optim.lr_at(*sched, 1.0, 0) == pytest.approx(1.0)

    def test_invalid(self):
        # run_experiment caps the warmup at the total, so a negative warmup
        # is the one invalid schedule, and the config refuses it
        with pytest.raises(ConfigError, match="warmup_steps"):
            build_experiment_config({"languages": "sy1,sy2", "warmup_steps": "-1"})
        assert build_experiment_config({"languages": "sy1,sy2", "warmup_steps": "0"})


class TestAdamW:
    def test_single_step_hand_value(self):
        # theta=1, g=1, t=1, lr=0.1: decay to 1 - 0.1 * 0.01, then m_hat=1, v_hat=1
        # theta' = 0.999 - 0.1 * 1/(1 + 1e-8)
        params = _scalar_params(1.0)
        state = optim.AdamWState(params)
        optim.adamw_step(params, np.array([1.0]), state, 1, 0.1)
        expected = 1.0 - 0.1 * 0.01 - 0.1 * (1.0 / (1.0 + 1e-8))
        assert params["w"].data[0, 0] == pytest.approx(expected, abs=1e-6)
        assert params["w"].data[0, 0] == pytest.approx(0.899, abs=1e-6)

    def test_zero_gradient_no_decay_keeps_params(self):
        param = np.array([2.5])
        kernels.adamw_update(param, np.zeros(1), np.zeros(1), np.zeros(1), np.empty(1), 1, 0.1,
                             optim.BETA1, optim.BETA2, optim.EPS, 0.0)
        assert param[0] == 2.5

    def test_decoupled_decay_scales_exactly(self):
        params = _scalar_params(2.0)
        state = optim.AdamWState(params)
        optim.adamw_step(params, np.zeros(1), state, 1, 0.1)
        assert params["w"].data[0, 0] == pytest.approx(
            2.0 * (1 - 0.1 * optim.WEIGHT_DECAY), rel=1e-12
        )

    def test_one_dim_params_exempt_from_decay(self):
        cfg = M.ModelConfig(vocab_size=10, d_model=2, n_heads=1, n_enc_layers=1,
                            n_dec_layers=1, d_ff=2, max_positions=4)
        params = M.Params(cfg, {"b": Tensor(np.array([3.0], dtype=np.float64))})
        state = optim.AdamWState(params)
        optim.adamw_step(params, np.zeros(1), state, 1, 0.1)
        assert params["b"].data[0] == 3.0

    def test_wd_zero_equals_adam(self):
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal((3, 3)) for _ in range(5)]
        param = np.ones(9)
        m = np.zeros(9)
        v = np.zeros(9)
        for t, g in enumerate(grads, 1):
            kernels.adamw_update(param, g.reshape(-1).copy(), m, v, np.empty(9), t, 0.01,
                                 optim.BETA1, optim.BETA2, optim.EPS, 0.0)

        # manual Adam (no decay) as the oracle
        theta = np.ones((3, 3))
        m = np.zeros((3, 3))
        v = np.zeros((3, 3))
        for t, g in enumerate(grads, 1):
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            theta -= 0.01 * (m / (1 - 0.9**t)) / (np.sqrt(v / (1 - 0.999**t)) + 1e-8)
        np.testing.assert_allclose(param.reshape(3, 3), theta, rtol=1e-6)

    def test_non_positive_lr_rejected(self):
        with pytest.raises(ConfigError, match="lr"):
            optim.AdamWConfig(lr=0.0)

    def test_non_finite_gradient_names_parameter(self):
        params = _scalar_params()
        state = optim.AdamWState(params)
        with pytest.raises(OptimError, match="'w'"):
            optim.adamw_step(params, np.array([np.nan]), state, 1, 3e-4)

    @pytest.mark.parametrize("name", ["b", "w2", "g"])
    def test_non_finite_gradient_found_from_offsets(self, name):
        # the vectors sit after every matrix in the buffer, whatever the name order
        tensors = {"b": Tensor(np.zeros(3)), "w1": Tensor(np.ones((2, 2))),
                   "g": Tensor(np.ones(2)), "w2": Tensor(np.ones((3, 1)))}
        params = M.Params(_scalar_params().config, tensors)
        before = params.flat.copy()
        grad = np.zeros(params.flat.size)
        params.views(grad)[name].reshape(-1)[-1] = np.inf
        state = optim.AdamWState(params)
        with pytest.raises(OptimError, match=f"'{name}'"):
            optim.adamw_step(params, grad, state, 1, 3e-4)
        np.testing.assert_array_equal(params.flat, before)
        assert not state.m_flat.any() and not state.v_flat.any()

    def test_flat_step_bit_equals_per_tensor_reference(self):
        rng = np.random.default_rng(12)
        shapes = {"w1": (5, 3), "b1": (3,), "w2": (3, 4, 2), "g": (4,), "w3": (2, 6)}
        init = {k: rng.standard_normal(s).astype(np.float32) for k, s in shapes.items()}
        params = M.Params(_scalar_params().config, {k: Tensor(v.copy()) for k, v in init.items()})
        state = optim.AdamWState(params)
        ref = {k: [v.copy(), np.zeros_like(v), np.zeros_like(v)] for k, v in init.items()}
        for t in range(1, 6):
            lr = 0.01 * t
            grads = {k: rng.standard_normal(s) for k, s in shapes.items()}
            flat = np.concatenate([grads[k].reshape(-1) for k in ("w1", "w2", "w3", "b1", "g")])
            optim.adamw_step(params, flat, state, t, lr)
            for k, (p, m, v) in ref.items():
                g = grads[k].astype(np.float32)
                if p.ndim > 1:
                    p -= lr * optim.WEIGHT_DECAY * p
                m *= optim.BETA1
                m += (1.0 - optim.BETA1) * g
                v *= optim.BETA2
                v += (1.0 - optim.BETA2) * g * g
                p -= lr * (m / (1.0 - optim.BETA1 ** t)) / (
                    np.sqrt(v / (1.0 - optim.BETA2 ** t)) + optim.EPS)
            moments_m, moments_v = params.views(state.m_flat), params.views(state.v_flat)
            for k, (p, m, v) in ref.items():
                assert params[k].data.tobytes() == p.tobytes(), k
                assert moments_m[k].tobytes() == m.tobytes(), k
                assert moments_v[k].tobytes() == v.tobytes(), k

    def test_step_allocates_nothing_parameter_sized(self):
        # numpy reports its buffers to tracemalloc, so the peak is deterministic
        rng = np.random.default_rng(3)
        shapes = {"w1": (200, 300), "w2": (300, 120), "b": (400,), "g": (200,)}
        params = M.Params(_scalar_params().config, {
            k: Tensor(rng.standard_normal(s).astype(np.float32)) for k, s in shapes.items()})
        assert 95_000 < params.flat.size < 105_000
        state = optim.AdamWState(params)
        grad = rng.standard_normal(params.flat.size)
        optim.adamw_step(params, grad, state, 1, 1e-3)  # a first call warms any caches
        tracemalloc.start()
        try:
            optim.adamw_step(params, grad, state, 2, 1e-3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.flat.nbytes / 4

    def test_scheduled_lr_override(self):
        params = _scalar_params(1.0)
        state = optim.AdamWState(params)
        optim.adamw_step(params, np.array([1.0]), state, 1, optim.lr_at(10, 100, 0.2, 5))
        assert params["w"].data[0, 0] == pytest.approx(0.899, abs=1e-6)


class TestAccumulation:
    def _loss_and_grads(self, params, batch):
        loss = M.loss_teacher_forcing(params, batch)
        grads = backward(loss, list(params.tensors.values()))
        return params.flat_grad(grads, np.empty(params.flat.size))

    def test_micro_batches_equal_full_batch(self):
        # run_experiment's accumulation: each micro-batch's flat gradient,
        # weighted by its target tokens, summed and divided by the token total
        cfg = M.ModelConfig(vocab_size=17, d_model=8, n_heads=2, n_enc_layers=1,
                            n_dec_layers=1, d_ff=12, max_positions=12, dropout=0.0)
        params = float64_params(M.init(cfg, seed=3))
        # unequal lengths: per-token weighting must still reproduce the
        # full-batch mean gradient
        seqs = [
            ([3, 4, 5, 1], [6, 7, 1]),
            ([8, 1], [9, 10, 11, 1]),
            ([12, 13, 14, 15, 1], [16, 1]),
            ([5, 6, 1], [7, 8, 9, 1]),
        ]
        full = M.make_batch([s for s, _ in seqs], [t for _, t in seqs], cfg.pad_id)
        want = self._loss_and_grads(params, full)

        total = np.zeros_like(want)
        tokens = 0
        for s, t in seqs:
            micro = M.make_batch([s], [t], cfg.pad_id)
            n_tok = int(micro.tgt_mask.sum())
            total += self._loss_and_grads(params, micro) * n_tok
            tokens += n_tok
        got = total / tokens
        assert got.dtype == np.float64 and got.shape == params.flat.shape
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_training_equivalence_accumulated_vs_full(self):
        # two micro-batches of 2 per step match one batch of 4, step for step
        specs = [SyntheticLangSpec("sy1", 1, "ka", concept_vocab_size=12),
                 SyntheticLangSpec("sy2", 2, "bu", concept_vocab_size=12)]
        parallel, mono, _ = gen_synthetic(specs, 8, 4, (2, 4), seed=2)
        tok = train_subword([[p.src_text for p in parallel.pairs]
                             + [p.tgt_text for p in parallel.pairs]],
                            3 + 2 + 256 + 20, ["sy1", "sy2"])
        assert len(parallel.pairs) % 4 == 0
        cfg = M.ModelConfig(vocab_size=tok.vocab_size, d_model=8, n_heads=2, n_enc_layers=1,
                            n_dec_layers=1, d_ff=12, max_positions=16, dropout=0.0)
        init = float64_params(M.init(cfg, seed=9))

        def train(batch, factor):
            config = ExperimentConfig(
                languages=("sy1", "sy2"), epochs=2, model=cfg,
                optimizer=optim.AdamWConfig(lr=1e-2), warmup_steps=2,
                batch_size_sentences=batch, accumulation_factor=factor, seed=5,
            )
            return run_experiment(config, parallel, mono, tok, init_params=init)

        full, full_log = train(4, 1)
        micro, micro_log = train(2, 2)
        steps = [(e["tokens"], e["lr"]) for e in full_log.entries_of("step")]
        assert len(steps) == 2 * len(parallel.pairs) // 4
        assert [(e["tokens"], e["lr"]) for e in micro_log.entries_of("step")] == steps
        np.testing.assert_allclose(micro_log.loss_trace, full_log.loss_trace, rtol=1e-9)
        assert full.flat.dtype == np.float64
        assert not np.array_equal(full.flat, init.flat)
        np.testing.assert_allclose(micro.flat, full.flat, rtol=0, atol=1e-9)
