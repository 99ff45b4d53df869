"""Batched substream derivation against the single-key ``make_rng`` path."""

import numpy as np
import pytest

from fmest.seeding import make_rng, reseeded, stream_states, substreams

# one-, two- and three-word components: SeedSequence splits ints into uint32 words
COMPONENTS = (0, 2**32 - 1, 2**32, 2**64 + 5)


def _assert_same_stream(rng, key):
    ref = make_rng(key)
    assert rng.bit_generator.state == ref.bit_generator.state, key
    np.testing.assert_array_equal(rng.integers(0, 2**64, size=3, dtype=np.uint64),
                                  ref.integers(0, 2**64, size=3, dtype=np.uint64))
    assert rng.random() == ref.random()


@pytest.mark.parametrize("length", range(1, 7))
def test_substreams_equal_make_rng(length):
    """Every component value at every position, keys of 1 to 6 components;
    the assembled entropy runs from 2 to 13 words."""
    for shift in range(len(COMPONENTS)):
        key = tuple(COMPONENTS[(shift + pos) % len(COMPONENTS)] for pos in range(length))
        count = 0
        for i, rng in enumerate(substreams(key, 3)):
            _assert_same_stream(rng, (*key, i))
            count += 1
        assert count == 3


@pytest.mark.parametrize("count", [0, 1, 1000])
def test_substreams_count(count):
    key = (7, 2**64 + 5)
    n = 0
    for i, rng in enumerate(substreams(key, count)):
        assert rng.bit_generator.state == make_rng((*key, i)).bit_generator.state, i
        n += 1
    assert n == count
    assert len(list(substreams(3, count))) == count


def test_reseeded_returns_to_any_stream():
    """A state kept from the batched pass reseeds its stream from the start,
    in any order, as generate_masks does for the curves that redraw."""
    key = (4, 2**40)
    states = stream_states(key, 50)
    picks = [41, 3, 3, 0]
    count = 0
    for i, rng in zip(picks, reseeded([states[i] for i in picks])):
        _assert_same_stream(rng, (*key, i))
        count += 1
    assert count == len(picks)


def test_substreams_rejects_bad_keys():
    with pytest.raises(ValueError, match="nonnegative"):
        next(substreams((1, -2), 4))
    with pytest.raises(ValueError, match="nonempty"):
        next(substreams((), 4))
    with pytest.raises(ValueError, match="count"):
        next(substreams(1, -1))
