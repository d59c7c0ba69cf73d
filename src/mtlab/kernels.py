"""Hot inner-loop kernels.

Kernels here are the loops that dominate CPU time at this project's scale:
fused padded cross entropy (``ce_forward``, ``ce_backward``), the
embedding-gradient scatter-add (``embedding_grad``), the fused AdamW
parameter update (``adamw_update``), and the token-level edit distance
(``levenshtein``) used by the shift search in TER. The first four are
numpy; ``levenshtein`` is bit-parallel over Python ints, not numpy. There
is one implementation of each, with no compiled fast path and no switch;
time them with ``python3 perfbench/run.py --trace 1``.
"""

from __future__ import annotations

import numpy as np

# Always False; kept only because perfbench's environment report reads it.
USE_NUMBA = False


def ce_forward(logits, targets, valid):
    """Sum of per-row cross entropies over valid rows.

    logits: [N, V] float array; targets: [N] int64; valid: [N] bool.
    Returns (loss_sum, n_valid, exp, row_sums): loss_sum is accumulated in
    float64, and ``exp`` ([n_valid, V], float64, shifted by each row's max)
    and its row sums are what ``ce_backward`` needs for the softmax.
    """
    if not valid.any():
        return 0.0, 0, None, None
    sel = logits[valid].astype(np.float64)
    tgt = targets[valid]
    m = sel.max(axis=1, keepdims=True)
    e = np.exp(sel - m)
    s = e.sum(axis=1)
    lse = np.log(s) + m[:, 0]
    picked = sel[np.arange(sel.shape[0]), tgt]
    return float((lse - picked).sum()), int(sel.shape[0]), e, s


def ce_backward(logits, targets, valid, scale, exp, row_sums):
    """Gradient of ``scale * sum_valid ce_row`` w.r.t. logits.

    ``exp`` and ``row_sums`` are ``ce_forward``'s for the same arguments; it
    returns them only when some row is valid.
    """
    grad = np.zeros_like(logits)
    p = exp / row_sums[:, None]
    p[np.arange(p.shape[0]), targets[valid]] -= 1.0
    grad[valid] = (p * scale).astype(logits.dtype)
    return grad


def embedding_grad(out, ids, grad_rows):
    """Scatter-add grad_rows[i] into out[ids[i]] (in place)."""
    np.add.at(out, ids, grad_rows)
    return out


def adamw_update(param, grad, m, v, scratch, step, lr, beta1, beta2, eps, weight_decay):
    """One fused AdamW update, in place over flat views.

    Decoupled weight decay is applied to the parameter before the Adam
    term; bias correction uses ``step`` (1-based). Every result goes to
    ``out=``, so no array is allocated: ``scratch`` (``param``'s size and
    dtype) holds each intermediate, and ``grad`` holds the Adam term's
    denominator once the moments are updated, so both are overwritten. The
    operations and their order are those of
    ``param -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)``.
    """
    if weight_decay != 0.0:
        param -= np.multiply(param, lr * weight_decay, out=scratch)
    m *= beta1
    m += np.multiply(grad, 1.0 - beta1, out=scratch)
    v *= beta2
    np.multiply(grad, 1.0 - beta2, out=scratch)
    v += np.multiply(scratch, grad, out=scratch)
    bc1 = 1.0 - beta1 ** step
    bc2 = 1.0 - beta2 ** step
    np.multiply(np.divide(m, bc1, out=scratch), lr, out=scratch)
    np.add(np.sqrt(np.divide(v, bc2, out=grad), out=grad), eps, out=grad)
    param -= np.divide(scratch, grad, out=scratch)


def levenshtein(a, b):
    """Unit-cost Levenshtein edit distance between two token sequences.

    Myers/Hyyrö bit-parallel algorithm (Myers 1999, J. ACM 46(3); Hyyrö
    2001): bit i of each Python-int vector stands for row i of the dynamic
    programming table over ``b``, and one column step per token of ``a`` is
    a few word-level AND/OR/add operations. The positive and negative
    vertical deltas ``pv``/``mv`` run over ``a``; the horizontal delta shifts
    in a 1 because row 0 of a global distance grows by one per column. Ints
    have arbitrary precision, so ``b`` may be any length. Tokens may be any
    hashable values that compare equal when they are the same token, such as
    TER's subword pieces; ``a`` and ``b`` may be lists, tuples or integer
    arrays.
    """
    m = len(b)
    if m == 0:
        return len(a)
    peq = {}
    bit = 1
    for tok in b:
        peq[tok] = peq.get(tok, 0) | bit
        bit <<= 1
    mask = bit - 1
    last = bit >> 1
    pv, mv, dist = mask, 0, m
    for tok in a:
        eq = peq.get(tok, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            dist += 1
        elif mh & last:
            dist -= 1
        ph = ((ph << 1) | 1) & mask
        pv = ((mh << 1) | ~(xv | ph)) & mask
        mv = ph & xv
    return dist
