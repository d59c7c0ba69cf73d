"""Autodiff ops: values, finite-difference gradients, rng contracts."""

import math

import numpy as np
import pytest

from mtlab.errors import DistributionError, ShapeError
from mtlab.numerics import (
    Tensor,
    add,
    backward,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    mul,
    no_grad,
    relu,
    reshape,
    rng_fork,
    sample_categorical,
    scale,
    softmax,
    tensor,
    transpose,
    tsum,
    using_dtype,
)

from conftest import finite_difference_check


def _leaf(rng, *shape):
    return tensor(rng.standard_normal(shape), dtype=np.float64)


class TestForwardValues:
    def test_softmax_symmetry(self):
        s = softmax(tensor([0.0, 0.0], dtype=np.float64))
        np.testing.assert_allclose(s.data, [0.5, 0.5])

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = tensor(rng.standard_normal((7, 11)) * 5, dtype=np.float64)
        s = softmax(x, axis=-1)
        np.testing.assert_allclose(s.data.sum(axis=-1), np.ones(7), atol=1e-6)

    def test_matmul_identity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 5))
        out = matmul(tensor(np.eye(3), dtype=np.float64), tensor(a, dtype=np.float64))
        np.testing.assert_allclose(out.data, a)

    def test_matmul_shape_error_names_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            matmul(tensor(np.zeros((2, 3))), tensor(np.zeros((2, 3))))

    def test_cross_entropy_hand_value(self):
        # -log(e^10 / (e^10 + e^-10)) = log1p(e^-20)
        logits = tensor(np.array([[[10.0, -10.0]]]), dtype=np.float64)
        loss = cross_entropy(logits, np.array([[0]]), pad_id=99)
        assert loss.item() == pytest.approx(math.log1p(math.exp(-20)), rel=1e-6)

    def test_cross_entropy_all_pad_is_zero_with_zero_grads(self):
        logits = tensor(np.random.default_rng(0).standard_normal((2, 3, 5)), dtype=np.float64)
        loss = cross_entropy(logits, np.zeros((2, 3), dtype=int), pad_id=0)
        assert loss.item() == 0.0
        grads = backward(loss, [logits])
        assert not grads[logits].any()

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(2)
        x = tensor(rng.standard_normal((9, 33)), dtype=np.float64)
        y = layer_norm(x, eps=1e-8).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-6
        assert np.abs(y.var(axis=-1) - 1.0).max() < 1e-4

    def test_dropout_identity_at_zero(self):
        x = tensor([1.0, 2.0])
        assert dropout(x, 0.0, None) is x

    def test_dropout_scales_by_keep_probability(self):
        rng = rng_fork(0, "drop")
        x = tensor(np.ones(10_000), dtype=np.float64)
        y = dropout(x, 0.25, rng).data
        kept = y > 0
        assert abs(kept.mean() - 0.75) < 0.02
        np.testing.assert_allclose(y[kept], 1.0 / 0.75)


class TestBackward:
    def test_sum_of_squares(self):
        x = tensor([3.0], dtype=np.float64)
        loss = tsum(mul(x, x))
        assert backward(loss, [x])[x] == pytest.approx([6.0])

    def test_constant_loss_gives_zero_grads(self):
        x = tensor([1.0, 2.0], dtype=np.float64)
        loss = tensor(5.0, dtype=np.float64)
        grads = backward(loss, [x])
        np.testing.assert_array_equal(grads[x], np.zeros(2))

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ShapeError):
            backward(tensor([1.0, 2.0]))

    def test_grad_accumulates_across_reuse(self):
        x = tensor([2.0], dtype=np.float64)
        loss = tsum(add(mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
        assert backward(loss, [x])[x] == pytest.approx([5.0])

    def test_two_layer_mlp_matches_finite_differences(self, float64):
        rng = np.random.default_rng(3)
        w1, b1 = _leaf(rng, 6, 8), _leaf(rng, 8)
        w2, b2 = _leaf(rng, 8, 4), _leaf(rng, 4)
        x = rng.standard_normal((5, 6))

        def fn():
            h = gelu(add(matmul(tensor(x, dtype=np.float64), w1), b1))
            out = add(matmul(h, w2), b2)
            return tsum(mul(out, out))

        n = finite_difference_check(fn, [w1, b1, w2, b2], rtol=1e-4)
        assert n == 6 * 8 + 8 + 8 * 4 + 4


class TestPerOpGradients:
    """Every differentiable op against central finite differences (64-bit)."""

    def test_elementwise_and_reduction_ops(self, float64):
        rng = np.random.default_rng(4)
        a = _leaf(rng, 3, 4)
        b = _leaf(rng, 3, 4)
        c = _leaf(rng, 4)
        cases = [
            (lambda: tsum(mul(add(a, b), add(a, c))), [a, b, c]),
            (lambda: tsum(scale(mul(a, a), 0.7)), [a]),
            (lambda: tsum(mul(relu(a), relu(a))), [a]),
            (lambda: tsum(mul(gelu(a), gelu(a))), [a]),
            (lambda: tsum(mul(softmax(a, axis=-1), b)), [a, b]),
            (lambda: tsum(mul(layer_norm(a), b)), [a, b]),
            (lambda: tsum(mul(transpose(a, (1, 0)), transpose(b, (1, 0)))), [a, b]),
            (lambda: tsum(mul(reshape(a, (4, 3)), reshape(b, (4, 3)))), [a, b]),
        ]
        for fn, params in cases:
            finite_difference_check(fn, params, rtol=1e-4)

    def test_matmul_batched(self, float64):
        rng = np.random.default_rng(5)
        a = _leaf(rng, 2, 3, 4)
        b = _leaf(rng, 4, 5)

        def fn():
            out = matmul(a, b)
            return tsum(mul(out, out))

        finite_difference_check(fn, [a, b], rtol=1e-4)

    def test_embedding_lookup(self, float64):
        rng = np.random.default_rng(6)
        table = _leaf(rng, 7, 4)
        ids = np.array([[0, 3, 3], [6, 1, 0]])

        def fn():
            out = embedding_lookup(table, ids)
            return tsum(mul(out, out))

        finite_difference_check(fn, [table], rtol=1e-4)

    def test_cross_entropy_grad(self, float64):
        rng = np.random.default_rng(7)
        logits = _leaf(rng, 2, 3, 6)
        targets = np.array([[1, 0, 5], [2, 0, 4]])  # pad_id=0 masks two cells

        def fn():
            return cross_entropy(logits, targets, pad_id=0)

        finite_difference_check(fn, [logits], rtol=1e-4)

    def test_cross_entropy_label_smoothing_grad(self, float64):
        rng = np.random.default_rng(8)
        logits = _leaf(rng, 4, 5)
        targets = np.array([1, 2, 3, 4])

        def fn():
            return cross_entropy(logits, targets, pad_id=0, label_smoothing=0.1)

        finite_difference_check(fn, [logits], rtol=1e-4)

    def test_dropout_grad_with_refreshed_mask(self, float64):
        rng = np.random.default_rng(9)
        x = _leaf(rng, 6, 6)

        def fn():
            r = rng_fork(11, "dropout-check")
            return tsum(mul(dropout(x, 0.3, r), dropout(x, 0.3, r)))

        finite_difference_check(fn, [x], rtol=1e-4)


class TestNoGrad:
    def test_no_graph_recorded(self):
        x = tensor([1.0, 2.0])
        with no_grad():
            y = mul(x, x)
        assert y.parents == () and y.vjp is None


class TestRng:
    def test_fork_reproducible(self):
        a = rng_fork(42, 1).random(5)
        b = rng_fork(42, 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_fork_streams_differ(self):
        a = rng_fork(42, 1).random(5)
        b = rng_fork(42, 2).random(5)
        assert not np.array_equal(a, b)

    def test_fork_string_and_int_streams_distinct(self):
        a = rng_fork(42, 7).random(5)
        b = rng_fork(42, "7").random(5)
        assert not np.array_equal(a, b)

    def test_categorical_degenerate(self):
        rng = rng_fork(0, 0)
        assert all(sample_categorical([1.0, 0.0, 0.0], rng) == 0 for _ in range(50))

    def test_categorical_frequency(self):
        # 10000 fair coin draws: 99% binomial interval around 0.5
        rng = rng_fork(123, "coin")
        draws = sum(sample_categorical([0.5, 0.5], rng) == 0 for _ in range(10_000))
        assert 0.48 <= draws / 10_000 <= 0.52

    def test_categorical_rejects_bad_distributions(self):
        rng = rng_fork(0, 0)
        with pytest.raises(DistributionError):
            sample_categorical([0.5, 0.6], rng)
        with pytest.raises(DistributionError):
            sample_categorical([-0.5, 1.5], rng)


def test_bitwise_determinism_of_forward_backward():
    rng = np.random.default_rng(10)
    data = rng.standard_normal((4, 4))

    def run():
        x = tensor(data, dtype=np.float64)
        w = tensor(np.eye(4) * 0.5, dtype=np.float64)
        loss = tsum(mul(softmax(matmul(x, w)), layer_norm(x)))
        return loss.item(), backward(loss, [x])[x].tobytes()

    assert run() == run()
