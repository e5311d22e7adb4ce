"""Deterministic random number streams.

All stochastic code in the package draws from Philox, a counter-based
bit generator (Salmon et al. 2011). Each unit of work (a block of
bootstrap replicates, a simulated triangle) gets its own substream keyed
by the user seed plus an integer path, so results are bitwise identical
no matter how work is split across processes. A substream's Philox key
is what numpy's ``SeedSequence`` derives from (seed, path).
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for the substream identified by ``(seed, *path)``.

    The same (seed, path) pair always yields the same stream, and
    distinct paths yield statistically independent streams.
    """
    ss = np.random.SeedSequence(seed, spawn_key=tuple(int(x) for x in path))
    return np.random.Generator(np.random.Philox(ss))
