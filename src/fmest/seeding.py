"""Deterministic substream derivation for reproducible (and parallelizable) draws.

Every stochastic routine in the package derives its generator from an integer
seed plus a tuple of integer stream labels.  Two calls with the same key
produce bit-identical draws regardless of execution order, which is what makes
threaded runs agree with serial ones.  The keys in use:

* ``generate_curves(..., seed)``: errors on (seed, 0), the random scale on
  (seed, 1), contamination on (seed, 2);
* ``generate_masks(..., seed)``: curve i's mask on (seed, i);
* ``bootstrap_ensemble(..., seed)`` and ``trend_ci``: replicate b's resample on
  (seed, b); ``anova_l2_test`` resamples group g's replicate b on (seed, g, b).

Each stream is numpy's ``default_rng`` of its key.  :func:`make_rng` builds one
such generator; :func:`substreams` derives the streams (seed, 0) ... (seed,
count - 1) in one batched pass and yields generators bit-identical to
``make_rng((*seed, i))``.  :func:`stream_states` and :func:`reseeded` are its
two halves, for a caller that returns to some of the streams later.
"""

from __future__ import annotations

import numpy as np

# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


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


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence makes of a nonnegative int, low word first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """(count + 1, 1) uint32: init, init * mult, init * mult**2, ... mod 2**32."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    return np.array(consts, dtype=np.uint32)[:, None]


def _seed_words(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(key).generate_state(8, uint32) for a batch of keys.

    Row w of the (L, count) uint32 ``entropy`` holds word w of every key's
    entropy; returns (count, 8) uint32.  The hash constants advance the same
    way for every key, so each step of the pool mixing runs once over the
    whole batch, and updates that do not depend on each other run together.
    """
    words = entropy.shape[0]
    # hashmix call k xors in consts[k] and multiplies by consts[k + 1]; there
    # is one call per pool word, one per ordered pair of pool words, and one
    # per pool word for each entropy word beyond the pool
    consts = _hash_consts(_INIT_A, _MULT_A, _POOL_SIZE * max(words, _POOL_SIZE))
    calls = 0

    def hashmix(value):
        nonlocal calls
        k = value.shape[0]
        value = (value ^ consts[calls:calls + k]) * consts[calls + 1:calls + k + 1]
        calls += k
        return value ^ (value >> _SHIFT)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ (result >> _SHIFT)

    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:min(words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = hashmix(pool)
    # mix every pool word into the others, so late words affect early ones
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = mix(pool[dst], hashmix(np.repeat(pool[src:src + 1], len(dst), axis=0)))
    for w in range(_POOL_SIZE, words):
        pool = mix(pool, hashmix(np.repeat(entropy[w:w + 1], _POOL_SIZE, axis=0)))
    consts = _hash_consts(_INIT_B, _MULT_B, 8)
    state = (pool[np.arange(8) % _POOL_SIZE] ^ consts[:-1]) * consts[1:]
    return np.ascontiguousarray((state ^ (state >> _SHIFT)).T)


def stream_states(seed, count: int) -> list[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` pairs of the keys (*seed, 0) ... (*seed,
    count - 1), derived in one batched pass: the SeedSequence hashing of all
    the keys runs at once on uint32 arrays."""
    key = as_key(seed)
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"substream count must lie in [0, 2**32], got {count}")
    prefix = [w for part in key for w in _words(part)]
    entropy = np.empty((len(prefix) + 1, count), dtype=np.uint32)
    entropy[:-1] = np.array(prefix, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(count)
    # PCG64 reads generate_state(4, uint64) as (initstate, initseq), high word first
    states = []
    for s_hi, s_lo, i_hi, i_lo in _seed_words(entropy).astype("<u4").view("<u8").tolist():
        # pcg_setseq_128_srandom_r: two LCG steps from state 0
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        states.append((((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def reseeded(states):
    """Yield one generator, reseeded in turn to each PCG64 ``(state, inc)``
    of ``states`` through its ``state`` setter, so a yielded generator is
    valid only until the next one is taken."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    for state, inc in states:
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": inc},
                               "has_uint32": 0, "uinteger": 0}
        yield rng


def substreams(seed, count: int):
    """Yield the generators of the keys (*seed, 0) ... (*seed, count - 1),
    each bit-identical to ``make_rng((*seed, i))``; see :func:`stream_states`
    and :func:`reseeded`."""
    return reseeded(stream_states(seed, count))
