"""Dense tensors with reverse-mode automatic differentiation.

The op set is exactly what a small encoder-decoder transformer needs:
(batched) matmul, broadcasting add, scaling, embedding lookup, softmax,
layer norm with its gain and bias, GeLU, dropout, reshape/transpose, and
a fused padded cross entropy. Graphs are recorded eagerly as each op runs
(the recorded graph plays the tape role); ``backward`` replays it once in
reverse topological order.

There is no dtype setting: every op computes in the dtype of its inputs.
The model's parameters are float32 (``model.init``, ``checkpoint``); the
gradient checks cast theirs to float64.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .. import kernels
from ..errors import ShapeError

_GRAD_ENABLED = True

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (evaluation / generation).

    Grad mode is one process-wide flag, saved on entry and restored on exit,
    so mtlab training and decoding calls must not run on several threads at
    once: one thread can leave recording off for all. Use processes to use
    more cores.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


class Tensor:
    """A value node: numpy data plus the recorded parents and pullback."""

    __slots__ = ("data", "parents", "vjp")

    def __init__(self, data, parents=(), vjp=None):
        self.data = np.asarray(data)
        if _GRAD_ENABLED:
            self.parents = tuple(parents)
            self.vjp = vjp
        else:
            self.parents = ()
            self.vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype})"


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcasted gradient back to the original operand shape."""
    if grad.shape == tuple(shape):
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _toposort(root: Tensor) -> list[Tensor]:
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def backward(loss: Tensor, params) -> dict[Tensor, np.ndarray]:
    """d(loss)/d(p) for each tensor p of ``params``.

    Returns a dict keyed by tensor identity holding exactly those tensors,
    with zeros for any the loss does not reach. Other nodes' gradients are
    freed as soon as they have been passed on.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    order = _toposort(loss)
    keep = {id(p) for p in params}
    for node in reversed(order):
        grad = grads.get(node)
        if grad is None:
            continue
        if node.vjp is not None:
            parent_grads = node.vjp(grad)
            for parent, pg in zip(node.parents, parent_grads):
                if pg is None:
                    continue
                existing = grads.get(parent)
                grads[parent] = pg if existing is None else existing + pg
        if id(node) not in keep:
            del grads[node]
    return {p: grads.get(p, np.zeros_like(p.data)) for p in params}


# ---------------------------------------------------------------------------
# elementwise / broadcasting ops
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    try:
        out = a.data + b.data
    except ValueError:
        raise ShapeError(f"add: incompatible shapes {a.shape} + {b.shape}") from None

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, (a, b), vjp)


def scale(a: Tensor, s: float) -> Tensor:
    s = float(s)
    out = a.data * s

    def vjp(g):
        return (g * s,)

    return Tensor(out, (a,), vjp)


# ---------------------------------------------------------------------------
# linear algebra and lookups
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """``a @ b``, batched over leading axes as ``np.matmul``.

    When ``b`` is 2-D (a weight, or the transposed embedding of the tied
    output projection), the pullback flattens ``a``'s leading axes, so each
    gradient is one GEMM: ``gb = a2.T @ g2`` and ``ga = g2 @ b.T``. The
    forward stays one batched ``np.matmul``.
    """
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >=2-D operands, got {a.shape} @ {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from None

    def vjp(g):
        if b.ndim == 2:
            # one GEMM per gradient over the flattened leading axes of a
            a2 = a.data.reshape(-1, a.shape[-1])
            g2 = g.reshape(-1, g.shape[-1])
            return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2
        ga = np.matmul(g, b.data.swapaxes(-1, -2))
        gb = np.matmul(a.data.swapaxes(-1, -2), g)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor(out, (a, b), vjp)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    ids = np.asarray(ids)
    if np.any(ids < 0) or np.any(ids >= table.shape[0]):
        raise ShapeError(
            f"embedding ids out of range [0, {table.shape[0]}) for table {table.shape}"
        )
    out = table.data[ids]

    def vjp(g):
        grad = np.zeros_like(table.data)
        rows = np.ascontiguousarray(g.reshape(-1, table.shape[1]))
        kernels.embedding_grad(grad, ids.reshape(-1).astype(np.int64), rows)
        return (grad,)

    return Tensor(out, (table,), vjp)


def transpose(a: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    out = np.transpose(a.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return Tensor(out, (a,), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    out = a.data.reshape(shape)

    def vjp(g):
        return (g.reshape(a.shape),)

    return Tensor(out, (a,), vjp)


# ---------------------------------------------------------------------------
# nonlinearities and normalization
# ---------------------------------------------------------------------------

def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    s = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * s).sum(axis=axis, keepdims=True)
        return ((g - inner) * s,)

    return Tensor(s, (x,), vjp)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Layer norm over the last axis with a learned gain and bias.

    One node: ``gain * (x - mean) / sqrt(var + 1e-5) + bias``, whose
    pullback returns the gradients of ``x``, ``gain`` and ``bias``
    (Ba et al. 2016).
    """
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + 1e-5)
    y = xc * inv
    out = y * gain.data + bias.data

    def vjp(g):
        gn = g * gain.data  # gradient of the normalized y
        gn_mean = gn.mean(axis=-1, keepdims=True)
        gny_mean = (gn * y).mean(axis=-1, keepdims=True)
        gx = inv * (gn - gn_mean - y * gny_mean)
        return gx, _unbroadcast(g * y, gain.shape), _unbroadcast(g, bias.shape)

    return Tensor(out, (x, gain, bias), vjp)


def gelu(x: Tensor) -> Tensor:
    """GeLU, tanh approximation."""
    d = x.data
    inner = _GELU_C * (d + _GELU_A * (d * d * d))
    t = np.tanh(inner)
    out = 0.5 * d * (1.0 + t)

    def vjp(g):
        sech2 = 1.0 - t * t
        deriv = 0.5 * (1.0 + t) + 0.5 * d * sech2 * _GELU_C * (1.0 + 3.0 * _GELU_A * d * d)
        return (g * deriv,)

    return Tensor(out, (x,), vjp)


def dropout(x: Tensor, p: float, rng) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    if p <= 0.0:
        return x
    if not 0.0 <= p < 1.0:
        raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
    if rng is None:
        raise ShapeError("dropout with p > 0 needs an rng")
    mask = (rng.random(x.shape) >= p).astype(x.dtype) / (1.0 - p)
    out = x.data * mask

    def vjp(g):
        return (g * mask,)

    return Tensor(out, (x,), vjp)


# ---------------------------------------------------------------------------
# fused loss
# ---------------------------------------------------------------------------

def cross_entropy(logits: Tensor, target_ids, pad_id: int) -> Tensor:
    """Mean token-level cross entropy over non-pad targets.

    ``logits`` has shape [..., V]; ``target_ids`` matches the leading shape.
    Targets equal to ``pad_id`` contribute neither loss nor gradient; if
    every target is pad the loss is exactly 0 with zero gradients. The
    pullback reuses the forward's float64 exponentials and row sums
    (``kernels.ce_forward``) instead of computing the softmax again.
    """
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.shape != logits.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: targets {targets.shape} do not match logits {logits.shape}"
        )
    v = logits.shape[-1]
    if np.any(((targets < 0) | (targets >= v)) & (targets != pad_id)):
        raise ShapeError("cross_entropy: target id out of range")
    flat = np.ascontiguousarray(logits.data.reshape(-1, v))
    tflat = targets.reshape(-1)
    valid = tflat != pad_id
    safe_targets = np.where(valid, tflat, 0)
    loss_sum, count, exp, row_sums = kernels.ce_forward(flat, safe_targets, valid)
    value = np.asarray(loss_sum / count if count else 0.0, dtype=logits.dtype)

    def vjp(g):
        if count == 0:
            return (np.zeros_like(logits.data),)
        grad_scale = float(g) / count
        grad = kernels.ce_backward(flat, safe_targets, valid, grad_scale, exp, row_sums)
        return (np.asarray(grad).reshape(logits.shape),)

    return Tensor(value, (logits,), vjp)
