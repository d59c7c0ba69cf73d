"""Tensor arithmetic, reverse-mode autodiff, and seeded randomness."""

from .rng import rng_fork, sample_categorical
from .autodiff import (
    Tensor,
    add,
    backward,
    cross_entropy,
    dropout,
    embedding_lookup,
    gelu,
    layer_norm,
    matmul,
    no_grad,
    reshape,
    scale,
    softmax,
    transpose,
)

__all__ = [
    "Tensor",
    "add",
    "backward",
    "cross_entropy",
    "dropout",
    "embedding_lookup",
    "gelu",
    "layer_norm",
    "matmul",
    "no_grad",
    "reshape",
    "rng_fork",
    "sample_categorical",
    "scale",
    "softmax",
    "transpose",
]
