"""AdamW with decoupled weight decay, linear warmup/decay schedule, and
token-weighted gradient accumulation.

Only the learning rate is configured; the other hyperparameters are the
constants below. Weight decay is applied to the parameter before the Adam
term; 1-D parameters (layer-norm gains and all biases) are exempt.
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
    """First/second moment buffers and the shared step counter."""

    def __init__(self, params: Params):
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.tensors.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.tensors.items()}


def adamw_step(
    params: Params,
    grads: dict[str, np.ndarray],
    state: AdamWState,
    config: AdamWConfig,
    lr: float | None = None,
) -> None:
    """One in-place AdamW update over every parameter present in ``grads``.

    ``lr`` overrides config.lr (the schedule feeds it per step).
    """
    step_lr = config.lr if lr is None else lr
    state.t += 1
    for name, tensor in params.tensors.items():
        grad = grads.get(name)
        if grad is None:
            continue
        if not np.all(np.isfinite(grad)):
            raise OptimError(f"non-finite gradient for parameter {name!r}")
        if not tensor.data.flags["C_CONTIGUOUS"]:
            tensor.data = np.ascontiguousarray(tensor.data)
        wd = WEIGHT_DECAY if tensor.data.ndim > 1 else 0.0
        kernels.adamw_update(
            tensor.data.reshape(-1),
            np.ascontiguousarray(grad, dtype=tensor.data.dtype).reshape(-1),
            state.m[name].reshape(-1),
            state.v[name].reshape(-1),
            state.t,
            float(step_lr),
            BETA1,
            BETA2,
            EPS,
            wd,
        )


class GradAccumulator:
    """Token-weighted gradient averaging across micro-batches.

    Each micro-batch contributes its per-token-mean gradients weighted by
    its non-pad token count, so ``flush`` reproduces the gradient of the
    mean loss over the combined batch exactly (up to float rounding).
    """

    def __init__(self, factor: int = 1):
        if factor < 1:
            raise ConfigError(f"accumulation factor must be >= 1, got {factor}")
        self.factor = factor
        self._sums: dict[str, np.ndarray] | None = None
        self._weight = 0.0
        self.count = 0

    @property
    def ready(self) -> bool:
        return self.count >= self.factor

    def add(self, grads: dict[str, np.ndarray], weight: float) -> None:
        if weight <= 0:
            raise OptimError(f"micro-batch weight must be positive, got {weight}")
        if self._sums is None:
            self._sums = {k: np.asarray(g, dtype=np.float64) * weight for k, g in grads.items()}
        else:
            for k, g in grads.items():
                self._sums[k] += np.asarray(g, dtype=np.float64) * weight
        self._weight += weight
        self.count += 1

    def flush(self) -> dict[str, np.ndarray]:
        if self._sums is None:
            raise OptimError("flush called before any accumulate")
        out = {k: s / self._weight for k, s in self._sums.items()}
        self._sums = None
        self._weight = 0.0
        self.count = 0
        return out
