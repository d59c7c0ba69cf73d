"""Seeded random streams and the categorical sampling primitive.

Every piece of randomness in the package flows through ``rng_fork`` so that
runs are reproducible from a single seed and independent of batching: each
consumer forks its own stream from ``(seed, stream_id)`` instead of sharing
a mutable generator.
"""

from __future__ import annotations

import hashlib

import numpy as np

from ..errors import DistributionError

_U64 = 2**64


def _stream_words(stream_id) -> tuple[int, ...]:
    # Ints and strings hash to disjoint word tuples so rng_fork(s, 1) and
    # rng_fork(s, "1") do not collide.
    if isinstance(stream_id, (int, np.integer)):
        return (0, int(stream_id) % _U64)
    digest = hashlib.blake2b(str(stream_id).encode("utf-8"), digest_size=16).digest()
    return (
        1,
        int.from_bytes(digest[:8], "little"),
        int.from_bytes(digest[8:], "little"),
    )


def rng_fork(seed: int, stream_id) -> np.random.Generator:
    """Create an independent, reproducible generator for (seed, stream_id).

    Identical arguments always produce an identical stream; distinct
    stream ids produce statistically independent streams.
    """
    entropy = [int(seed) % _U64, *_stream_words(stream_id)]
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))


def sample_categorical(probs, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector.

    Raises DistributionError unless probs is a 1-D non-negative vector
    summing to 1 within 1e-6.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise DistributionError(f"probs must be a non-empty 1-D vector, got shape {p.shape}")
    if not np.all(np.isfinite(p)) or np.any(p < 0):
        raise DistributionError("probs must be finite and non-negative")
    total = p.sum()
    if abs(total - 1.0) > 1e-6:
        raise DistributionError(f"probs sum to {total!r}, expected 1 within 1e-6")
    u = rng.random() * total
    idx = int(np.searchsorted(np.cumsum(p), u, side="right"))
    return min(idx, p.size - 1)
