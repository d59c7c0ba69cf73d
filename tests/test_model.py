"""Transformer model: shapes, masking, loss, init, gradient correctness."""

import math

import numpy as np
import pytest

from mtlab import checkpoint as ckpt
from mtlab import model as M
from mtlab.errors import CheckpointError, ConfigError, ShapeError
from mtlab.numerics import backward, rng_fork

from conftest import finite_difference_check, float64_params


def _random_batch(cfg, rng, b=2, ts=5, tt=7):
    src = rng.integers(3, cfg.vocab_size, (b, ts))
    tgt = rng.integers(3, cfg.vocab_size, (b, tt))
    return M.Batch(src, tgt, np.ones((b, ts), bool), np.ones((b, tt), bool))


class TestConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ConfigError):
            M.ModelConfig(vocab_size=100, d_model=10, n_heads=4)

    def test_defaults_valid(self):
        M.ModelConfig(vocab_size=100)
        with pytest.raises(ConfigError, match="vocab_size 0"):
            M.init(M.ModelConfig(), seed=0)  # 0, the tokenizer's size, is resolved before init

    @pytest.mark.parametrize(
        "field", ["d_model", "n_heads", "d_ff", "n_enc_layers", "n_dec_layers"]
    )
    def test_non_positive_sizes_are_config_errors(self, field):
        with pytest.raises(ConfigError, match=field):
            M.ModelConfig(vocab_size=100, **{field: 0})

    def test_saved_config_that_fails_its_checks_is_checkpoint_error(self):
        with pytest.raises(CheckpointError, match="n_heads"):
            ckpt.config_from_saved({"vocab_size": 100, "n_heads": 0})


class TestInit:
    def test_same_seed_identical(self, tiny_model_config):
        a = M.init(tiny_model_config, seed=5)
        b = M.init(tiny_model_config, seed=5)
        for name in a.tensors:
            np.testing.assert_array_equal(a[name].data, b[name].data)

    def test_different_seed_differs(self, tiny_model_config):
        a = M.init(tiny_model_config, seed=5)
        b = M.init(tiny_model_config, seed=6)
        assert not np.array_equal(a["embed"].data, b["embed"].data)

    def test_count_params_closed_form(self):
        # independent sum over layer shapes, written out by hand
        v, d, ff, p = 4096, 128, 256, 64
        enc_layers, dec_layers = 2, 2
        cfg = M.ModelConfig(
            vocab_size=v, d_model=d, n_heads=4, n_enc_layers=enc_layers,
            n_dec_layers=dec_layers, d_ff=ff, max_positions=p,
        )
        params = M.init(cfg, seed=0)
        attn = 4 * d * d + 3 * d  # q, k, v, o weights; q, v, o biases (no key bias)
        ln = 2 * d
        ffn = d * ff + ff + ff * d + d
        expected = (
            v * d  # shared embedding (tied: counted once)
            + 2 * p * d  # encoder + decoder position tables
            + enc_layers * (2 * ln + attn + ffn)
            + ln  # encoder final norm
            + dec_layers * (3 * ln + 2 * attn + ffn)
            + ln  # decoder final norm
        )
        assert sum(t.size for t in params.tensors.values()) == expected

    def test_tied_embeddings_share_storage(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        assert "out_proj" not in params.tensors
        k = tiny_model_config.vocab_size - 1
        rng = np.random.default_rng(0)
        src = rng.integers(3, k, (2, 3))
        tgt = rng.integers(3, k, (2, 3))
        batch = M.Batch(src, tgt, np.ones((2, 3), bool), np.ones((2, 3), bool))
        base = M.forward_logits(params, batch).data.copy()
        # writing through the embedding row moves the matching logit column:
        # the output projection is the same storage, not a copy
        params["embed"].data[k] += 1.0
        shifted = M.forward_logits(params, batch).data
        assert not np.allclose(base[..., k], shifted[..., k])
        np.testing.assert_allclose(
            np.delete(base, k, axis=-1), np.delete(shifted, k, axis=-1), atol=1e-5
        )

    def test_initial_loss_finite(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=1)
        batch = _random_batch(tiny_model_config, np.random.default_rng(1))
        assert np.isfinite(M.loss_teacher_forcing(params, batch).item())


class TestParams:
    def _check_layout(self, params):
        flat = params.flat
        assert flat.flags["C_CONTIGUOUS"] and flat.dtype == np.float32
        assert flat.size == sum(t.size for t in params.tensors.values())
        covered = np.zeros(flat.size, dtype=int)
        for name, t in params.tensors.items():
            # every tensor's data is a view into the one buffer
            assert t.data.base is flat, name
            start = (t.data.__array_interface__["data"][0]
                     - flat.__array_interface__["data"][0]) // flat.itemsize
            covered[start : start + t.size] += 1
            # decayed matrices first, then the vectors
            assert (start + t.size <= params.n_decayed) == (t.ndim >= 2), name
        assert (covered == 1).all()

    def test_tensors_are_views_of_one_buffer(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        self._check_layout(params)
        params.flat[:] = 0.5
        assert all((t.data == 0.5).all() for t in params.tensors.values())

    def test_copy_is_independent(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        before = {k: t.data.copy() for k, t in params.tensors.items()}
        clone = params.copy()
        self._check_layout(clone)
        assert list(clone.tensors) == list(params.tensors)
        assert not np.shares_memory(clone.flat, params.flat)
        clone.flat[:] = 0.0
        params["embed"].data[0, 0] = 7.0
        assert clone["embed"].data[0, 0] == 0.0
        for k, t in params.tensors.items():
            expect = before[k] if k != "embed" else t.data
            np.testing.assert_array_equal(t.data, expect)

    def test_save_load_round_trip_keeps_layout(self, tiny_model_config, tmp_path):
        from mtlab import checkpoint

        params = M.init(tiny_model_config, seed=2)
        checkpoint.save_params(tmp_path / "p.ckpt", params)
        loaded, _ = checkpoint.load_params(tmp_path / "p.ckpt")
        self._check_layout(loaded)
        assert list(loaded.tensors) == list(params.tensors)
        assert loaded.flat.tobytes() == params.flat.tobytes()

    def test_mixed_dtypes_rejected(self, tiny_model_config):
        from mtlab.numerics.autodiff import Tensor

        tensors = {"w": Tensor(np.zeros((2, 2), np.float32)), "b": Tensor(np.zeros(2))}
        with pytest.raises(ShapeError, match="dtypes"):
            M.Params(tiny_model_config, tensors)


class TestForward:
    def test_logits_shape(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        batch = _random_batch(tiny_model_config, np.random.default_rng(2), b=2, ts=5, tt=7)
        logits = M.forward_logits(params, batch)
        assert logits.shape == (2, 7, tiny_model_config.vocab_size)

    def test_causality_exact(self, tiny_model_config):
        params = float64_params(M.init(tiny_model_config, seed=3))
        rng = np.random.default_rng(3)
        batch = _random_batch(tiny_model_config, rng, b=1, ts=4, tt=6)
        base = M.forward_logits(params, batch).data.copy()
        t = 3
        perturbed = batch.tgt_ids.copy()
        perturbed[0, t] = (perturbed[0, t] + 1) % tiny_model_config.vocab_size or 3
        batch2 = M.Batch(batch.src_ids, perturbed, batch.src_mask, batch.tgt_mask)
        changed = M.forward_logits(params, batch2).data
        # teacher forcing shifts right: position t feeds logits from t+1 on
        np.testing.assert_array_equal(base[:, : t + 1], changed[:, : t + 1])

    def test_source_pad_invariance(self, tiny_model_config):
        params = float64_params(M.init(tiny_model_config, seed=4))
        rng = np.random.default_rng(4)
        src = rng.integers(3, tiny_model_config.vocab_size, (1, 4))
        tgt = rng.integers(3, tiny_model_config.vocab_size, (1, 5))
        b1 = M.Batch(src, tgt, np.ones((1, 4), bool), np.ones((1, 5), bool))
        padded = np.concatenate([src, np.zeros((1, 3), np.int64)], axis=1)
        mask = np.concatenate([np.ones((1, 4), bool), np.zeros((1, 3), bool)], axis=1)
        b2 = M.Batch(padded, tgt, mask, np.ones((1, 5), bool))
        l1 = M.forward_logits(params, b1).data
        l2 = M.forward_logits(params, b2).data
        np.testing.assert_allclose(l1, l2, atol=1e-6)

    def test_too_long_rejected(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        n = tiny_model_config.max_positions + 1
        batch = M.Batch(
            np.full((1, n), 3), np.full((1, 2), 3),
            np.ones((1, n), bool), np.ones((1, 2), bool),
        )
        with pytest.raises(ShapeError):
            M.forward_logits(params, batch)

    # forward_logits reads the source and the target shifted right, so not the
    # last target column; loss_teacher_forcing reads every target id.
    @pytest.mark.parametrize("side, column, read_by_forward", [
        ("src", 0, True), ("tgt", 0, True), ("tgt", -1, False),
    ], ids=["source", "first-target", "last-target"])
    def test_id_out_of_range_rejected(self, tiny_model_config, side, column, read_by_forward):
        params = M.init(tiny_model_config, seed=0)
        ids = {"src": np.full((1, 3), 3), "tgt": np.full((1, 3), 3)}
        ids[side][0, column] = tiny_model_config.vocab_size
        batch = M.Batch(ids["src"], ids["tgt"], np.ones((1, 3), bool), np.ones((1, 3), bool))
        if read_by_forward:
            with pytest.raises(ShapeError):
                M.forward_logits(params, batch)
        else:
            M.forward_logits(params, batch)
        with pytest.raises(ShapeError):
            M.loss_teacher_forcing(params, batch)


class TestLoss:
    def test_near_uniform_loss_is_log_vocab(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=5)
        batch = _random_batch(tiny_model_config, np.random.default_rng(5), b=4, ts=6, tt=6)
        loss = M.loss_teacher_forcing(params, batch).item()
        assert abs(loss - math.log(tiny_model_config.vocab_size)) < 0.05 * math.log(
            tiny_model_config.vocab_size
        )

    def test_row_duplication_leaves_loss_unchanged(self, tiny_model_config):
        params = float64_params(M.init(tiny_model_config, seed=6))
        rng = np.random.default_rng(6)
        batch = _random_batch(tiny_model_config, rng, b=2, ts=4, tt=5)
        doubled = M.Batch(
            np.concatenate([batch.src_ids] * 2),
            np.concatenate([batch.tgt_ids] * 2),
            np.concatenate([batch.src_mask] * 2),
            np.concatenate([batch.tgt_mask] * 2),
        )
        a = M.loss_teacher_forcing(params, batch).item()
        b = M.loss_teacher_forcing(params, doubled).item()
        assert abs(a - b) < 1e-6

    def test_loss_follows_parameter_dtype(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        assert {t.dtype for t in params.tensors.values()} == {np.dtype(np.float32)}
        batch = _random_batch(tiny_model_config, np.random.default_rng(0))
        assert M.loss_teacher_forcing(params, batch).dtype == np.float32
        assert M.loss_teacher_forcing(float64_params(params), batch).dtype == np.float64

    def test_all_pad_target_rejected(self, tiny_model_config):
        params = M.init(tiny_model_config, seed=0)
        batch = M.Batch(
            np.full((1, 2), 3), np.zeros((1, 3), np.int64),
            np.ones((1, 2), bool), np.zeros((1, 3), bool),
        )
        with pytest.raises(ShapeError):
            M.loss_teacher_forcing(params, batch)

    def test_pad_positions_do_not_affect_loss(self, tiny_model_config):
        params = float64_params(M.init(tiny_model_config, seed=7))
        rng = np.random.default_rng(7)
        src = rng.integers(3, tiny_model_config.vocab_size, (1, 4))
        tgt = rng.integers(3, tiny_model_config.vocab_size, (1, 4))
        b1 = M.Batch(src, tgt, np.ones((1, 4), bool), np.ones((1, 4), bool))
        tgt_padded = np.concatenate([tgt, np.zeros((1, 2), np.int64)], axis=1)
        mask = np.concatenate([np.ones((1, 4), bool), np.zeros((1, 2), bool)], axis=1)
        b2 = M.Batch(src, tgt_padded, np.ones((1, 4), bool), mask)
        assert M.loss_teacher_forcing(params, b1).item() == pytest.approx(
            M.loss_teacher_forcing(params, b2).item(), abs=1e-9
        )


class TestFullModelGradient:
    def test_matches_finite_differences(self):
        cfg = M.ModelConfig(
            vocab_size=13, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
            d_ff=12, max_positions=10, dropout=0.0,
        )
        params = float64_params(M.init(cfg, seed=1))
        batch = M.make_batch([[3, 4, 5, 1], [6, 7, 1]], [[8, 9, 1], [10, 11, 12, 1]], cfg.pad_id)

        def fn():
            return M.loss_teacher_forcing(params, batch)

        tensors = list(params.tensors.values())
        rng = np.random.default_rng(0)
        checked = finite_difference_check(
            fn, tensors, rtol=1e-3, max_entries=25, rng=rng
        )
        assert checked > 400

    def test_every_parameter_learns(self):
        # a parameter the loss does not depend on (as attention's key bias
        # was) gets a float64 gradient at rounding level, about 1e-17
        cfg = M.ModelConfig(
            vocab_size=13, d_model=8, n_heads=2, n_enc_layers=2, n_dec_layers=2,
            d_ff=12, max_positions=10, dropout=0.0,
        )
        params = float64_params(M.init(cfg, seed=4))
        batch = _random_batch(cfg, np.random.default_rng(5), b=3)
        grads = backward(M.loss_teacher_forcing(params, batch), list(params.tensors.values()))
        dead = {
            name: float(np.linalg.norm(grads[t]))
            for name, t in params.tensors.items()
            if np.linalg.norm(grads[t]) <= 1e-8 * (np.linalg.norm(t.data) + 1.0)
        }
        assert dead == {}

    def test_dropout_gradient(self):
        cfg = M.ModelConfig(
            vocab_size=13, d_model=8, n_heads=2, n_enc_layers=1, n_dec_layers=1,
            d_ff=12, max_positions=10, dropout=0.2,
        )
        params = float64_params(M.init(cfg, seed=2))
        batch = M.make_batch([[3, 4, 1]], [[5, 6, 1]], cfg.pad_id)

        def fn():
            return M.loss_teacher_forcing(params, batch, dropout_rng=rng_fork(3, "drop"))

        finite_difference_check(fn, [params["embed"]], rtol=1e-3, max_entries=20)


def test_shift_right():
    tgt = np.array([[5, 6, 7], [8, 0, 0]])
    out = M.shift_right(tgt, eos_id=1)
    np.testing.assert_array_equal(out, [[1, 5, 6], [1, 8, 0]])
