"""Substream keys."""

import pytest

from nbreserve._rng import substream


@pytest.mark.parametrize("seed, path", [(-1, ()), (3, (1, -2))])
def test_negative_entropy_rejected(seed, path):
    with pytest.raises(ValueError):
        substream(seed, *path, 0)
