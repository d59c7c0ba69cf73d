import numpy as np
import pytest

from mtlab import model as M
from mtlab.numerics import autodiff, backward
from mtlab.numerics.autodiff import Tensor, matmul, reshape
from mtlab.tokenizer import train_subword


@pytest.fixture(autouse=True)
def grad_mode_restored():
    """Fail the test that leaves graph recording off, not the ones after it."""
    yield
    if not autodiff._GRAD_ENABLED:
        autodiff._GRAD_ENABLED = True
        pytest.fail("test left graph recording off (no_grad not restored)")


@pytest.fixture
def tiny_tokenizer():
    sents = [
        "a b c",
        "c a b",
        "b b a",
        "a c c b",
        "c b a a b",
        "hello world",
    ]
    return train_subword([sents], 3 + 2 + 256 + 16, ["sy1", "sy2"])


@pytest.fixture
def tiny_model_config(tiny_tokenizer):
    return M.ModelConfig(
        vocab_size=tiny_tokenizer.vocab_size,
        d_model=32,
        n_heads=2,
        n_enc_layers=1,
        n_dec_layers=1,
        d_ff=48,
        max_positions=24,
        dropout=0.0,
    )


def finite_difference_check(fn, tensors, rtol, atol=1e-8, h=1e-5, max_entries=None, rng=None):
    """Compare analytic gradients of scalar fn() against central differences.

    ``fn`` must rebuild the graph from the current tensor data on every
    call. Checks use the combined |fd - an| <= atol + rtol*max(|fd|,|an|)
    criterion; returns the number of entries checked.
    """
    loss = fn()
    grads = backward(loss, tensors)
    rng = rng or np.random.default_rng(0)
    checked = 0
    for tensor in tensors:
        flat = tensor.data.reshape(-1)
        gflat = grads[tensor].reshape(-1)
        if max_entries is not None and flat.size > max_entries:
            idxs = rng.choice(flat.size, max_entries, replace=False)
        else:
            idxs = range(flat.size)
        for i in idxs:
            orig = flat[i]
            flat[i] = orig + h
            f_plus = fn().item()
            flat[i] = orig - h
            f_minus = fn().item()
            flat[i] = orig
            fd = (f_plus - f_minus) / (2 * h)
            an = float(gflat[i])
            tol = atol + rtol * max(abs(fd), abs(an))
            assert abs(fd - an) <= tol, (
                f"gradient mismatch at entry {i}: fd={fd!r} analytic={an!r}"
            )
            checked += 1
    return checked


def dot(a, b):
    """Scalar sum(a * b) built from model ops: reshape, matmul, reshape."""
    n = a.size
    return reshape(matmul(reshape(a, (1, n)), reshape(b, (n, 1))), ())


def float64_params(params):
    """A copy of ``params`` cast to float64, for 64-bit gradient checks."""
    return M.Params(
        params.config, {k: Tensor(v.data.astype(np.float64)) for k, v in params.tensors.items()}
    )
