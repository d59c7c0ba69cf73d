"""The word-level Levenshtein kernel: known values, and agreement with a
plain dynamic program on random pairs."""

import numpy as np
import pytest

from mtlab import kernels


def dp_levenshtein(a, b):
    """Unit-cost edit distance by the textbook row-by-row dynamic program."""
    prev = list(range(len(b) + 1))
    for i, x in enumerate(a, 1):
        cur = [i]
        for j, y in enumerate(b, 1):
            cur.append(min(cur[j - 1] + 1, prev[j] + 1, prev[j - 1] + (x != y)))
        prev = cur
    return prev[-1]


@pytest.mark.parametrize(
    "a,b,expected",
    [
        ([], [], 0),
        ([1, 2, 3], [], 3),
        ([1, 2, 3], [1, 2, 3], 0),
        ([1, 2, 3], [1, 9, 3], 1),
        ([1, 2], [2, 1, 3], 2),
        ([], [1, 2, 3], 3),
    ],
)
def test_levenshtein_small_cases(a, b, expected):
    assert kernels.levenshtein(a, b) == expected
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    assert kernels.levenshtein(a, b) == expected


def test_levenshtein_matches_dynamic_program_on_random_pairs():
    # Lengths past 64 cross a machine word; small vocabularies repeat tokens.
    rng = np.random.default_rng(20)
    for _ in range(2000):
        vocab = int(rng.integers(1, 10))
        a = rng.integers(0, vocab, int(rng.integers(0, 71)))
        b = rng.integers(0, vocab, int(rng.integers(0, 71)))
        expected = dp_levenshtein(a.tolist(), b.tolist())
        assert kernels.levenshtein(a.tolist(), b.tolist()) == expected
        assert kernels.levenshtein(a, b) == expected

