"""Hot inner-loop kernels, written in numpy.

Kernels here are the loops that dominate CPU time at this project's scale:
fused padded cross entropy (``ce_forward``, ``ce_backward``), the
embedding-gradient scatter-add (``embedding_grad``), the fused AdamW
parameter update (``adamw_update``), and the word-level edit distance
(``levenshtein``) used by the shift search in TER. There is one
implementation of each, with no compiled fast path and no switch; time them
with ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

# Always False; kept only because perfbench's environment report reads it.
USE_NUMBA = False


def ce_forward(logits, targets, valid, label_smoothing):
    """Sum of per-row cross entropies over valid rows.

    logits: [N, V] float array; targets: [N] int64; valid: [N] bool.
    Returns (loss_sum, n_valid) with loss_sum accumulated in float64.
    """
    if not valid.any():
        return 0.0, 0
    sel = logits[valid].astype(np.float64)
    tgt = targets[valid]
    m = sel.max(axis=1, keepdims=True)
    lse = np.log(np.exp(sel - m).sum(axis=1)) + m[:, 0]
    picked = sel[np.arange(sel.shape[0]), tgt]
    ls = label_smoothing
    if ls > 0.0:
        mean_logp = sel.mean(axis=1) - lse
        loss = (lse - picked) * (1.0 - ls) - ls * mean_logp
        # per-row: lse - (1-ls)*x_t - (ls/V)*sum_k x_k
    else:
        loss = lse - picked
    return float(loss.sum()), int(sel.shape[0])


def ce_backward(logits, targets, valid, label_smoothing, scale):
    """Gradient of ``scale * sum_valid ce_row`` w.r.t. logits."""
    grad = np.zeros_like(logits)
    if not valid.any() or scale == 0.0:
        return grad
    sel = logits[valid].astype(np.float64)
    tgt = targets[valid]
    m = sel.max(axis=1, keepdims=True)
    e = np.exp(sel - m)
    p = e / e.sum(axis=1, keepdims=True)
    ls = label_smoothing
    v = sel.shape[1]
    p[np.arange(sel.shape[0]), tgt] -= 1.0 - ls
    if ls > 0.0:
        p -= ls / v
    grad[valid] = (p * scale).astype(logits.dtype)
    return grad


def embedding_grad(out, ids, grad_rows):
    """Scatter-add grad_rows[i] into out[ids[i]] (in place)."""
    np.add.at(out, ids, grad_rows)
    return out


def adamw_update(param, grad, m, v, step, lr, beta1, beta2, eps, weight_decay):
    """One fused AdamW update, in place over flat views.

    Decoupled weight decay is applied to the parameter before the Adam
    term; bias correction uses ``step`` (1-based).
    """
    if weight_decay != 0.0:
        param -= lr * weight_decay * param
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def levenshtein(a, b):
    """Word-level edit distance between two int sequences."""
    n, m = len(a), len(b)
    if n == 0:
        return m
    if m == 0:
        return n
    prev = np.arange(m + 1, dtype=np.int64)
    cur = np.empty(m + 1, dtype=np.int64)
    for i in range(1, n + 1):
        cur[0] = i
        sub = prev[:-1] + (b != a[i - 1])
        # cur[j] = min(cur[j-1]+1, prev[j]+1, sub[j-1]) needs the running min
        for j in range(1, m + 1):
            cur[j] = min(cur[j - 1] + 1, prev[j] + 1, sub[j - 1])
        prev, cur = cur, prev
    return int(prev[m])
