"""Known-value edit distances for the word-level Levenshtein kernel."""

import numpy as np
import pytest

from mtlab import kernels


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
    assert kernels.levenshtein(a, b) == expected
