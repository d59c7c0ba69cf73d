"""Hot inner-loop kernels with a numba fast path and a pure-numpy fallback.

The numba path is used whenever numba imports cleanly; set ``MTLAB_NUMBA=0``
to force the numpy fallback (useful for debugging and for timing both paths
with ``python3 perfbench/run.py``, whose output reports ``kernels.USE_NUMBA``).
Both paths compute the same quantities; floating-point rounding may differ
between them because summation order differs.

Kernels here are the loops that dominate CPU time at this project's scale:
fused padded cross entropy (forward and backward), the embedding-gradient
scatter-add, the fused AdamW parameter update, and the word-level edit
distance used by the shift search in TER.
"""

from __future__ import annotations

import os

import numpy as np

_env = os.environ.get("MTLAB_NUMBA", "1").strip().lower()
USE_NUMBA = _env not in ("0", "false", "no", "off")

if USE_NUMBA:
    try:
        from numba import njit
    except ImportError:  # pragma: no cover - numba is a declared dependency
        USE_NUMBA = False


# ---------------------------------------------------------------------------
# numpy reference implementations
# ---------------------------------------------------------------------------

def _ce_forward_np(logits, targets, valid, label_smoothing):
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


def _ce_backward_np(logits, targets, valid, label_smoothing, scale):
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


def _embedding_grad_np(out, ids, grad_rows):
    """Scatter-add grad_rows[i] into out[ids[i]] (in place)."""
    np.add.at(out, ids, grad_rows)
    return out


def _adamw_update_np(param, grad, m, v, step, lr, beta1, beta2, eps, weight_decay):
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


def _levenshtein_np(a, b):
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


# ---------------------------------------------------------------------------
# numba fast paths
# ---------------------------------------------------------------------------

if USE_NUMBA:

    @njit(cache=True)
    def _ce_forward_nb(logits, targets, valid, label_smoothing):
        n_rows, n_cols = logits.shape
        total = 0.0
        count = 0
        for i in range(n_rows):
            if not valid[i]:
                continue
            m = logits[i, 0]
            for j in range(1, n_cols):
                if logits[i, j] > m:
                    m = logits[i, j]
            s = 0.0
            row_sum = 0.0
            for j in range(n_cols):
                s += np.exp(logits[i, j] - m)
                row_sum += logits[i, j]
            lse = np.log(s) + m
            t = targets[i]
            if label_smoothing > 0.0:
                total += (
                    lse
                    - (1.0 - label_smoothing) * logits[i, t]
                    - (label_smoothing / n_cols) * row_sum
                )
            else:
                total += lse - logits[i, t]
            count += 1
        return total, count

    @njit(cache=True)
    def _ce_backward_nb(logits, targets, valid, label_smoothing, scale):
        n_rows, n_cols = logits.shape
        grad = np.zeros_like(logits)
        if scale == 0.0:
            return grad
        for i in range(n_rows):
            if not valid[i]:
                continue
            m = logits[i, 0]
            for j in range(1, n_cols):
                if logits[i, j] > m:
                    m = logits[i, j]
            s = 0.0
            for j in range(n_cols):
                s += np.exp(logits[i, j] - m)
            t = targets[i]
            for j in range(n_cols):
                p = np.exp(logits[i, j] - m) / s
                if j == t:
                    p -= 1.0 - label_smoothing
                if label_smoothing > 0.0:
                    p -= label_smoothing / n_cols
                grad[i, j] = p * scale
        return grad

    @njit(cache=True)
    def _embedding_grad_nb(out, ids, grad_rows):
        d = grad_rows.shape[1]
        for i in range(ids.shape[0]):
            row = ids[i]
            for j in range(d):
                out[row, j] += grad_rows[i, j]
        return out

    @njit(cache=True)
    def _adamw_update_nb(param, grad, m, v, step, lr, beta1, beta2, eps, weight_decay):
        bc1 = 1.0 - beta1 ** step
        bc2 = 1.0 - beta2 ** step
        for i in range(param.shape[0]):
            p = param[i]
            if weight_decay != 0.0:
                p -= lr * weight_decay * p
            g = grad[i]
            m[i] = beta1 * m[i] + (1.0 - beta1) * g
            v[i] = beta2 * v[i] + (1.0 - beta2) * g * g
            param[i] = p - lr * (m[i] / bc1) / (np.sqrt(v[i] / bc2) + eps)

    @njit(cache=True)
    def _levenshtein_nb(a, b):
        n = a.shape[0]
        m = b.shape[0]
        if n == 0:
            return m
        if m == 0:
            return n
        prev = np.empty(m + 1, dtype=np.int64)
        cur = np.empty(m + 1, dtype=np.int64)
        for j in range(m + 1):
            prev[j] = j
        for i in range(1, n + 1):
            cur[0] = i
            ai = a[i - 1]
            for j in range(1, m + 1):
                cost = 0 if b[j - 1] == ai else 1
                best = prev[j - 1] + cost
                if cur[j - 1] + 1 < best:
                    best = cur[j - 1] + 1
                if prev[j] + 1 < best:
                    best = prev[j] + 1
                cur[j] = best
            for j in range(m + 1):
                prev[j] = cur[j]
        return prev[m]

    ce_forward = _ce_forward_nb
    ce_backward = _ce_backward_nb
    embedding_grad = _embedding_grad_nb
    adamw_update = _adamw_update_nb
    levenshtein = _levenshtein_nb
else:
    ce_forward = _ce_forward_np
    ce_backward = _ce_backward_np
    embedding_grad = _embedding_grad_np
    adamw_update = _adamw_update_np
    levenshtein = _levenshtein_np
