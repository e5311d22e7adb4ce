"""Residual diagnostics and profile-curve export."""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .dispersion import KappaEstimate, _nb_variance
from .glm import ModelFit


@dataclass(frozen=True)
class ResidualSet:
    """Pearson residuals per observed cell with their factor labels."""

    ay: np.ndarray
    dy: np.ndarray
    calendar: np.ndarray  # ay + dy, the diagonal index
    fitted: np.ndarray
    pearson: np.ndarray

    def __len__(self) -> int:
        return len(self.pearson)


def pearson_residuals(fit: ModelFit, kappa: Optional[float] = None) -> ResidualSet:
    """Pearson residuals (y - mu) / sqrt(V(mu)).

    The variance is plain mu for Poisson families and otherwise
    :func:`~nbreserve.dispersion._nb_variance`: mu + mu^2 / kappa, or
    mu for kappa at or above the search cap, the Poisson limit, as in
    sampling. ``kappa`` defaults to the fit's own dispersion; pass it
    explicitly to assess a Poisson fit at an external kappa estimate.
    """
    if kappa is None:
        kappa = fit.family.kappa if fit.family.tag == "negbin" else None
    elif not kappa > 0:
        raise ValueError(f"kappa must be positive, got {kappa}")
    mu = fit.fitted_mu
    variance = mu if kappa is None else _nb_variance(mu, kappa)
    return ResidualSet(
        ay=fit.ay.copy(),
        dy=fit.dy.copy(),
        calendar=fit.ay + fit.dy,
        fitted=mu.copy(),
        pearson=(fit.y - mu) / np.sqrt(variance),
    )


@dataclass(frozen=True)
class FactorGroup:
    """Residual quartile summary for one factor level."""

    level: int
    n: int
    q1: float
    median: float
    q3: float


def residuals_by_factor(rs: ResidualSet, factor: str) -> List[FactorGroup]:
    """Group residuals by ``ay``, ``dy``, or ``calendar`` level."""
    try:
        labels = getattr(rs, factor)
    except AttributeError:
        raise ValueError(f"factor must be one of ay, dy, calendar; got {factor!r}") from None
    groups = []
    for level in np.unique(labels):
        vals = rs.pearson[labels == level]
        q1, med, q3 = np.percentile(vals, [25, 50, 75])
        groups.append(FactorGroup(level=int(level), n=len(vals), q1=float(q1), median=float(med), q3=float(q3)))
    return groups


def residuals_csv(rs: ResidualSet) -> str:
    """CSV with columns ay, dy, calendar, fitted, pearson."""
    out = io.StringIO()
    out.write("ay,dy,calendar,fitted,pearson\n")
    for i in range(len(rs)):
        out.write(
            f"{int(rs.ay[i])},{int(rs.dy[i])},{int(rs.calendar[i])},"
            f"{rs.fitted[i]:.6f},{rs.pearson[i]:.6f}\n"
        )
    return out.getvalue()


def export_profile(est: KappaEstimate) -> str:
    """Profile curve as CSV with the MLE and interval endpoints marked.

    Columns: kappa, loglik, marker, where marker is empty, ``mle``,
    ``ci_lower``, or ``ci_upper``.
    """
    lower, upper = est.ci95
    targets = {"mle": est.kappa_mle, "ci_lower": lower, "ci_upper": upper}
    kappas = est.profile_curve[:, 0]
    marks = {}
    for name, value in targets.items():
        idx = int(np.argmin(np.abs(kappas - value)))
        if np.isclose(kappas[idx], value, rtol=1e-6):
            marks.setdefault(idx, []).append(name)
    out = io.StringIO()
    out.write("kappa,loglik,marker\n")
    for i, (kappa, ll) in enumerate(est.profile_curve):
        marker = ";".join(marks.get(i, []))
        out.write(f"{kappa:.10g},{ll:.10f},{marker}\n")
    return out.getvalue()
