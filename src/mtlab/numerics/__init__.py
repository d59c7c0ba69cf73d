"""Tensor arithmetic, reverse-mode autodiff, and seeded randomness.

The package binds the four names other layers use as themselves:
``backward`` and ``no_grad`` from ``autodiff``, ``rng_fork`` and
``sample_categorical`` from ``rng``. The tensor ops are reached through
the module, as ``from mtlab.numerics import autodiff as T``.
"""

from .autodiff import backward, no_grad
from .rng import rng_fork, sample_categorical
