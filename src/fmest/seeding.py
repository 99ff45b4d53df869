"""Deterministic substream derivation for reproducible (and parallelizable) draws.

Every stochastic routine in the package derives its generator from an integer
seed plus a tuple of integer stream labels (curve index, repetition index,
bootstrap replicate, ...).  Two calls with the same key produce bit-identical
draws regardless of execution order, which is what makes threaded runs agree
with serial ones.
"""

from __future__ import annotations

import numpy as np

def as_key(seed) -> tuple[int, ...]:
    """Normalize a seed (int or tuple of ints) to a tuple of nonnegative ints."""
    if isinstance(seed, (int, np.integer)):
        parts = (int(seed),)
    else:
        parts = tuple(int(s) for s in seed)
    if not parts:
        raise ValueError("seed key must be nonempty")
    for p in parts:
        if p < 0:
            raise ValueError(f"seed components must be nonnegative, got {p}")
    return parts


def make_rng(seed) -> np.random.Generator:
    """Generator seeded from the full key; independent across distinct keys."""
    return np.random.default_rng(list(as_key(seed)))
