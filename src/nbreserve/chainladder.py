"""Deterministic chain-ladder development factors and projections."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ZeroColumnSumError
from .triangle import CumulativeTriangle, RunOffTriangle, cumulate


@dataclass(frozen=True)
class ChainLadderResult:
    """Chain-ladder projection of a cumulative triangle.

    ``reserves`` are exact reals (ultimate minus latest diagonal).
    ``rounded_reserves`` reconciles to ``rounded_total`` by the largest
    remainder method: each year keeps the floor of its reserve and the
    leftover units go to the years with the biggest fractional parts, so
    per-year integers always add up to the rounded total.  Plain half-up
    rounding of each year does not guarantee that.
    """

    factors: np.ndarray
    latest: np.ndarray
    ultimates: np.ndarray
    reserves: np.ndarray
    total_reserve: float
    origin_label: Optional[object] = None

    @property
    def rounded_reserves(self) -> np.ndarray:
        floors = np.floor(self.reserves).astype(np.int64)
        remainder = int(self.rounded_total - floors.sum())
        out = floors.copy()
        if remainder > 0:
            # ties in the fractional part go to the earlier accident year
            order = np.argsort(-(self.reserves - floors), kind="stable")
            out[order[:remainder]] += 1
        return out

    @property
    def rounded_total(self) -> int:
        return int(math.floor(self.total_reserve + 0.5))


def dev_factors(c: CumulativeTriangle) -> np.ndarray:
    """Volume-weighted development factors f_j for j = 0..J-2.

    f_j sums C[i, j+1] over the accident years where that cell is
    observed (i <= I - j - 1) and divides by the matching C[i, j] sum.
    The sums are Python integers, exact past 2**63, and each factor is
    their correctly rounded quotient.
    """
    I = c.dimension
    grid = c.grid.tolist()
    # those years hold every observed cell of column j + 1, and every one
    # of column j but its last, in year I - j
    sums = [sum(col) for col in zip(*grid)]
    factors = np.empty(I - 1)
    for j in range(I - 1):
        den = sums[j] - grid[I - 1 - j][j]
        if den == 0:
            raise ZeroColumnSumError(f"development year {j}: column sum is zero")
        factors[j] = sums[j + 1] / den
    return factors


def project(c: CumulativeTriangle, factors: Optional[Sequence[float]] = None) -> ChainLadderResult:
    """Project each accident year to ultimate and report reserves.

    The first accident year is fully developed, so its reserve is zero;
    later years multiply the latest diagonal by the remaining factors.
    """
    I = c.dimension
    f = np.asarray(factors, dtype=float) if factors is not None else dev_factors(c)
    if f.shape != (I - 1,):
        raise ValueError(f"expected {I - 1} development factors, got {f.shape}")
    latest = c.latest().astype(float)
    ultimates = np.empty(I)
    for i in range(1, I + 1):
        # np.prod's own reduction, without its Python-level dispatch
        ultimates[i - 1] = latest[i - 1] * np.multiply.reduce(f[I - i : I - 1])
    reserves = ultimates - latest
    return ChainLadderResult(
        factors=f,
        latest=latest,
        ultimates=ultimates,
        reserves=reserves,
        total_reserve=float(reserves.sum()),
        origin_label=c.origin_label,
    )


def chain_ladder(t: RunOffTriangle) -> ChainLadderResult:
    """Convenience wrapper: cumulate an incremental triangle and project."""
    return project(cumulate(t))
