"""AdamW with decoupled weight decay and a linear warmup/decay schedule.

Only the learning rate is configured; the other hyperparameters are the
constants below. Weight decay is applied to the parameter before the Adam
term; 1-D parameters (layer-norm gains and all biases) are exempt.

Gradients and moments are flat vectors laid out like ``Params.flat``
(weight matrices first, then vectors), so a step is two fused updates, one
per part. The caller counts the steps and sums micro-batch gradients
(``harness._train_step``, into its run's gradient buffer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .errors import ConfigError, OptimError
from .model import Params

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8
WEIGHT_DECAY = 0.01


@dataclass(frozen=True)
class AdamWConfig:
    lr: float = 3e-4

    def __post_init__(self):
        if not 0 < self.lr < math.inf:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")


def lr_at(warmup: int, total: int, base_lr: float, step: int) -> float:
    """Linear 0 -> base_lr over ``warmup`` steps, linear down to 0 at ``total``, then 0."""
    if step < 0:
        raise OptimError(f"step must be non-negative, got {step}")
    if step < warmup:
        return base_lr * step / warmup
    if step >= total:
        return 0.0
    if total == warmup:
        return base_lr
    return base_lr * (total - step) / (total - warmup)


class AdamWState:
    """First and second moment buffers, laid out like ``Params.flat``, and
    the work space of a step: ``grad``, the gradient in the parameters'
    dtype, and ``scratch``. A checkpoint saves only the moments."""

    def __init__(self, params: Params):
        self.m_flat = np.zeros_like(params.flat)
        self.v_flat = np.zeros_like(params.flat)
        self.grad = np.empty_like(params.flat)
        self.scratch = np.empty_like(params.flat)


def adamw_step(params: Params, flat_grad: np.ndarray, state: AdamWState, step: int,
               lr: float) -> None:
    """One in-place AdamW update of every parameter.

    ``flat_grad`` is laid out like ``params.flat`` (``Params.flat_grad``).
    ``step`` is this update's 1-based number, which sets the bias
    correction. The update runs over two slices of the buffers: the decayed
    weight matrices, then the exempt vectors, at learning rate ``lr``. A
    non-finite gradient raises OptimError before the parameters or moments
    change. The step allocates nothing parameter-sized: it works in
    ``state.grad`` and ``state.scratch``.
    """
    grad = state.grad
    np.copyto(grad, flat_grad)
    # the extremes are finite only if every element is (nan propagates)
    if not (np.isfinite(grad.min()) and np.isfinite(grad.max())):
        bad = next(k for k, g in params.views(grad).items() if not np.isfinite(g).all())
        raise OptimError(f"non-finite gradient for parameter {bad!r}")
    for part, wd in ((slice(0, params.n_decayed), WEIGHT_DECAY),
                     (slice(params.n_decayed, None), 0.0)):
        kernels.adamw_update(
            params.flat[part], grad[part], state.m_flat[part], state.v_flat[part],
            state.scratch[part], step, float(lr), BETA1, BETA2, EPS, wd,
        )
