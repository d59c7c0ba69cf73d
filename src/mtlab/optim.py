"""AdamW with decoupled weight decay, linear warmup/decay schedule, and
token-weighted gradient accumulation.

Only the learning rate is configured; the other hyperparameters are the
constants below. Weight decay is applied to the parameter before the Adam
term; 1-D parameters (layer-norm gains and all biases) are exempt.

Gradients and moments are flat vectors laid out like ``Params.flat``
(weight matrices first, then vectors), so a step is two fused updates, one
per part, and accumulating a micro-batch is one vector sum.
"""

from __future__ import annotations

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
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")


@dataclass(frozen=True)
class ScheduleConfig:
    warmup_steps: int
    total_steps: int

    def validate(self) -> None:
        if not 0 <= self.warmup_steps <= self.total_steps:
            raise ConfigError(
                f"need 0 <= warmup_steps <= total_steps, got "
                f"{self.warmup_steps}, {self.total_steps}"
            )


def lr_at(schedule: ScheduleConfig, base_lr: float, step: int) -> float:
    """Linear 0 -> base_lr over warmup, then linear base_lr -> 0, then 0."""
    if step < 0:
        raise OptimError(f"step must be non-negative, got {step}")
    w, total = schedule.warmup_steps, schedule.total_steps
    if step < w:
        return base_lr * step / w
    if step >= total:
        return 0.0
    if total == w:
        return base_lr
    return base_lr * (total - step) / (total - w)


class AdamWState:
    """First/second moment buffers and the shared step counter.

    ``m_flat`` and ``v_flat`` are laid out like ``Params.flat``; ``m`` and
    ``v`` map each parameter name to its view of them, which is how
    checkpoints save and restore the moments.
    """

    def __init__(self, params: Params):
        self.t = 0
        self.m_flat = np.zeros_like(params.flat)
        self.v_flat = np.zeros_like(params.flat)
        self.m = params.views(self.m_flat)
        self.v = params.views(self.v_flat)


def adamw_step(
    params: Params,
    flat_grad: np.ndarray,
    state: AdamWState,
    config: AdamWConfig,
    lr: float | None = None,
) -> None:
    """One in-place AdamW update of every parameter.

    ``flat_grad`` is laid out like ``params.flat`` (``Params.flat_grad``).
    The update runs over two slices of the buffers: the decayed weight
    matrices, then the exempt vectors. ``lr`` overrides config.lr (the
    schedule feeds it per step).
    """
    if not np.isfinite(flat_grad).all():
        bad = next(k for k, g in params.views(flat_grad).items() if not np.isfinite(g).all())
        raise OptimError(f"non-finite gradient for parameter {bad!r}")
    step_lr = float(config.lr if lr is None else lr)
    state.t += 1
    grad = np.asarray(flat_grad, dtype=params.flat.dtype)
    for part, wd in ((slice(0, params.n_decayed), WEIGHT_DECAY),
                     (slice(params.n_decayed, None), 0.0)):
        kernels.adamw_update(
            params.flat[part], grad[part], state.m_flat[part], state.v_flat[part],
            state.t, step_lr, BETA1, BETA2, EPS, wd,
        )


class GradAccumulator:
    """Token-weighted gradient averaging across micro-batches.

    Each micro-batch contributes its per-token-mean flat gradient
    (``Params.flat_grad``) weighted by its non-pad token count, summed in
    one float64 vector, so ``flush`` reproduces the gradient of the mean
    loss over the combined batch exactly (up to float rounding).
    """

    def __init__(self, factor: int = 1):
        if factor < 1:
            raise ConfigError(f"accumulation factor must be >= 1, got {factor}")
        self.factor = factor
        self._sum: np.ndarray | None = None
        self._weight = 0.0
        self.count = 0

    @property
    def ready(self) -> bool:
        return self.count >= self.factor

    def add(self, flat_grad: np.ndarray, weight: float) -> None:
        if weight <= 0:
            raise OptimError(f"micro-batch weight must be positive, got {weight}")
        scaled = np.asarray(flat_grad, dtype=np.float64) * weight
        if self._sum is None:
            self._sum = scaled
        else:
            self._sum += scaled
        self._weight += weight
        self.count += 1

    def flush(self) -> np.ndarray:
        if self._sum is None:
            raise OptimError("flush called before any accumulate")
        out = self._sum / self._weight
        self._sum = None
        self._weight = 0.0
        self.count = 0
        return out
