"""Parity between the numba fast path and the pure-numpy fallback.

The parity tests skip when numba is absent or disabled; the known-value
edit distances run on whichever path is installed.
"""

import numpy as np
import pytest

from mtlab import kernels

needs_numba = pytest.mark.skipif(
    not kernels.USE_NUMBA, reason="numba path disabled; nothing to compare"
)


@needs_numba
def test_ce_forward_matches_numpy():
    rng = np.random.default_rng(0)
    logits = rng.standard_normal((40, 17))
    targets = rng.integers(0, 17, 40)
    valid = rng.random(40) > 0.2
    for ls in (0.0, 0.1):
        nb = kernels._ce_forward_nb(logits, targets, valid, ls)
        ref = kernels._ce_forward_np(logits, targets, valid, ls)
        assert nb[1] == ref[1]
        assert nb[0] == pytest.approx(ref[0], rel=1e-12)


@needs_numba
def test_ce_backward_matches_numpy():
    rng = np.random.default_rng(1)
    logits = rng.standard_normal((12, 9))
    targets = rng.integers(0, 9, 12)
    valid = rng.random(12) > 0.3
    for ls in (0.0, 0.05):
        nb = kernels._ce_backward_nb(logits, targets, valid, ls, 0.37)
        ref = kernels._ce_backward_np(logits, targets, valid, ls, 0.37)
        np.testing.assert_allclose(nb, ref, rtol=1e-12, atol=1e-14)


@needs_numba
def test_embedding_grad_matches_numpy():
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 7, 30).astype(np.int64)
    rows = rng.standard_normal((30, 5))
    out_nb = np.zeros((7, 5))
    out_np = np.zeros((7, 5))
    kernels._embedding_grad_nb(out_nb, ids, rows)
    kernels._embedding_grad_np(out_np, ids, rows)
    np.testing.assert_allclose(out_nb, out_np, rtol=1e-12)


@needs_numba
def test_adamw_update_matches_numpy():
    rng = np.random.default_rng(3)
    args = dict(step=3, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.01)
    p1 = rng.standard_normal(64)
    g = rng.standard_normal(64)
    m1 = rng.standard_normal(64) * 0.1
    v1 = np.abs(rng.standard_normal(64)) * 0.1
    p2, m2, v2 = p1.copy(), m1.copy(), v1.copy()
    kernels._adamw_update_nb(p1, g, m1, v1, **args)
    kernels._adamw_update_np(p2, g, m2, v2, **args)
    np.testing.assert_allclose(p1, p2, rtol=1e-12)
    np.testing.assert_allclose(m1, m2, rtol=1e-12)
    np.testing.assert_allclose(v1, v2, rtol=1e-12)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([], [], 0),
        ([1, 2, 3], [], 3),
        ([1, 2, 3], [1, 2, 3], 0),
        ([1, 2, 3], [1, 9, 3], 1),
        ([1, 2], [2, 1, 3], 2),
    ],
)
def test_levenshtein_small_cases(a, b, expected):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    assert kernels._levenshtein_np(a, b) == expected
    assert kernels.levenshtein(a, b) == expected


@needs_numba
def test_levenshtein_random_parity():
    rng = np.random.default_rng(4)
    for _ in range(25):
        a = rng.integers(0, 5, rng.integers(0, 12)).astype(np.int64)
        b = rng.integers(0, 5, rng.integers(0, 12)).astype(np.int64)
        assert kernels._levenshtein_nb(a, b) == kernels._levenshtein_np(a, b)
