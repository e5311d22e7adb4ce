"""Substream keys derived in bulk against numpy's SeedSequence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nbreserve._rng import substream, substreams

_WORD = 2**32


def _same_streams(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.bit_generator.random_raw(6), w.bit_generator.random_raw(6))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    seed=st.one_of(st.integers(0, 2**128), st.sampled_from([0, _WORD - 1, _WORD, 2**64, 2**128 - 1, 2**128])),
    path=st.lists(st.one_of(st.integers(0, _WORD - 1), st.integers(_WORD, 2**80)), max_size=3),
    lo=st.one_of(st.sampled_from([0, 1, _WORD - 4, _WORD - 1]), st.integers(0, _WORD - 1)),
    n=st.integers(0, 6),
)
def test_substreams_are_substream(seed, path, lo, n):
    # a range reaching 2**32 gives b a second word and takes the per-stream path
    _same_streams(substreams(seed, path, lo, lo + n), [substream(seed, *path, b) for b in range(lo, lo + n)])


@pytest.mark.parametrize("seed, path, lo, hi", [(0, (), 0, 1), (7, (1, 0, 3), 0, 120), (2**128, (2**40,), 98, 203)])
def test_substreams_examples(seed, path, lo, hi):
    _same_streams(substreams(seed, path, lo, hi), [substream(seed, *path, b) for b in range(lo, hi)])


@pytest.mark.parametrize("seed, path", [(-1, ()), (3, (1, -2))])
def test_negative_entropy_rejected(seed, path):
    with pytest.raises(ValueError):
        substream(seed, *path, 0)
    with pytest.raises(ValueError):
        substreams(seed, path, 0, 3)
