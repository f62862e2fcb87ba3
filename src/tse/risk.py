"""Tail conditional expectations and additive risk allocation.

For a univariate selection-elliptical loss the tail conditional
expectation is the truncated mean above the upper quantile.  For a sum of
correlated components the total tail expectation decomposes exactly into
per-component contributions obtained from the truncated mean of a small
augmented joint (selection block, then the sum), mapped back through the
cross-dispersion between components and the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import copysign, inf, isfinite
from typing import Optional

import numpy as np

from .elliptical import (
    DEFAULT_SETTINGS,
    NORMAL,
    RectangleProbSettings,
    TruncationBox,
)
from .errors import MomentNotDefinedError, NumericalError, SpecError
from .selection import (
    SelectionSpec,
    SutParams,
    _sqrtm_spd,
    affine_outcome,
    box_mass,
    build_selection,
    marginal_outcome,
    tse_mean_cov,
)
from .truncated import truncated_mean_cov

__all__ = [
    "SumDistParams",
    "RiskDecomposition",
    "survival",
    "quantile_upper",
    "tce",
    "mtce",
    "mtce_at_level",
    "sum_distribution",
    "tce_sum_decomposed",
]

@dataclass(frozen=True)
class SumDistParams:
    """Univariate skew-t/skew-normal law of a component sum.

    ``delta_sum`` is the summed cross-loading of the selection variable;
    the induced shape is ``delta_sum / sqrt(var_sum - delta_sum^2)``.
    """

    mean_sum: float
    var_sum: float
    delta_sum: float
    shape_sum: float
    df: Optional[float]

    def __post_init__(self):
        if self.var_sum <= 0:
            raise SpecError("sum variance must be positive")
        if self.var_sum - self.delta_sum ** 2 <= 0:
            raise SpecError("summed loading is too large for the sum variance")


def survival(spec: SelectionSpec, threshold: float,
             settings: RectangleProbSettings = DEFAULT_SETTINGS) -> float:
    """``P(Y > threshold)`` for a univariate selection law."""
    if spec.n_outcome != 1:
        raise SpecError("survival is defined for univariate outcome specs")
    return box_mass(spec, TruncationBox([threshold], [np.inf]), settings)[0]


def quantile_upper(spec: SelectionSpec, alpha: float,
                   settings: RectangleProbSettings = DEFAULT_SETTINGS) -> float:
    """Threshold with upper-tail mass ``alpha``: ``P(Y > y) = alpha``.

    Brackets by doubling away from the location in scale units until the
    survival function crosses ``alpha``, then solves by Brent's method to
    an absolute tolerance of ``1e-10 * min(1, scale)``.  It fails beyond
    2**512 scale units, where the Student-t survival reads 0.
    """
    if not 0.0 < alpha < 1.0:
        raise SpecError("tail level must lie strictly inside (0, 1)")
    if spec.n_outcome != 1:
        raise SpecError("quantile_upper is defined for univariate outcome specs")
    loc = float(spec.joint.xi[-1])
    scale = float(np.sqrt(spec.joint.omega[-1, -1]))

    def f(y):
        return float(survival(spec, y, settings) - alpha)

    def outward(sign):
        y, step = loc + sign * scale, scale
        fy = f(y)
        while sign * fy >= 0.0:
            y += sign * step
            step *= 2.0
            z = (y - loc) / scale
            if not isfinite(z * z):
                raise NumericalError("the quantile lies beyond 2**512 scale units")
            fy = f(y)
        return y, fy

    (lo, flo), (hi, fhi) = outward(-1.0), outward(1.0)
    return _brent(f, lo, hi, flo, fhi, xtol=1e-10 * min(1.0, scale))


def _brent(f, xpre, xcur, fpre, fcur, xtol=1e-10):
    """Root of ``f`` between ``xpre`` and ``xcur``, given ``f`` at both.

    scipy's ``brentq`` C routine (Brent 1973) step for step at ``xtol``,
    ``rtol=8.9e-16``: a zero division is C's inf or NaN, so it bisects.
    """
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if copysign(1.0, fpre) == copysign(1.0, fcur):
        raise NumericalError("the root is not bracketed: no sign change")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):
        if fpre != 0.0 and fcur != 0.0 and copysign(1.0, fpre) != copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + 8.9e-16 * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = inf
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise NumericalError("Brent's method did not converge in 100 iterations")


def tce(spec: SelectionSpec, alpha: float,
        settings: RectangleProbSettings = DEFAULT_SETTINGS) -> float:
    """Tail conditional expectation ``E[Y | Y > y_alpha]`` at level alpha."""
    return _tce_with_quantile(spec, alpha, settings)[0]


def _tce_with_quantile(spec, alpha, settings):
    """:func:`tce` and the quantile ``y_alpha`` it solves for."""
    if spec.n_outcome != 1:
        raise SpecError("tce is defined for univariate outcome specs")
    if spec.family != NORMAL and spec.nu <= 1.0:
        raise MomentNotDefinedError("tail expectation needs more than one degree of freedom")
    y_alpha = quantile_upper(spec, alpha, settings)
    tail = TruncationBox([y_alpha], [np.inf])
    rep = tse_mean_cov(spec, tail, settings)
    return float(rep.require_mean()[0]), y_alpha


def mtce(spec: SelectionSpec, thresholds,
         settings: RectangleProbSettings = DEFAULT_SETTINGS) -> np.ndarray:
    """Componentwise tail expectation ``E[Y | Y > thresholds]``.

    The thresholds are one per outcome coordinate; entries may be ``-inf``
    to leave a coordinate unconditioned.
    """
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if thresholds.size != spec.n_outcome:
        raise SpecError("one threshold per outcome coordinate required")
    if np.any(thresholds == np.inf):
        raise SpecError("thresholds must be below +inf")
    tail = TruncationBox(thresholds, np.full(spec.n_outcome, np.inf))
    rep = tse_mean_cov(spec, tail, settings)
    return rep.require_mean()


def mtce_at_level(spec: SelectionSpec, alpha: float,
                  settings: RectangleProbSettings = DEFAULT_SETTINGS) -> dict:
    """Convenience wrapper: marginal upper quantiles at a common level.

    Computes each coordinate's marginal quantile through its univariate
    selection law, then the joint tail expectation at that corner.
    """
    qs = np.empty(spec.n_outcome)
    for i in range(spec.n_outcome):
        qs[i] = quantile_upper(marginal_outcome(spec, [i]), alpha, settings)
    return {"thresholds": qs, "mtce": mtce(spec, qs, settings)}


def _sum_spec(spec: SelectionSpec) -> SelectionSpec:
    ones = np.ones((1, spec.n_outcome))
    return affine_outcome(spec, ones, np.zeros(1))


def sum_distribution(params: SutParams) -> SumDistParams:
    """Closed-form univariate law of the component sum for q = 1 families."""
    if params.q != 1:
        raise SpecError("the closed-form sum law needs a single selection component")
    lam = params.shape[0]
    mu_s = float(params.location.sum())
    var_s = float(params.scale.sum())
    root = _sqrtm_spd(params.scale)
    delta = root @ lam / np.sqrt(1.0 + lam @ lam)
    delta_s = float(delta.sum())
    shape_s = delta_s / np.sqrt(var_s - delta_s ** 2)
    return SumDistParams(mu_s, var_s, delta_s, shape_s, params.df)


@dataclass(frozen=True)
class RiskDecomposition:
    """Total tail expectation of a sum and its additive allocation."""

    total: float
    contributions: np.ndarray
    aux_selection_mean: float
    quantile: float
    alpha: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise SpecError("tail level must lie strictly inside (0, 1)")


def tce_sum_decomposed(params: SutParams, alpha: float,
                       settings: RectangleProbSettings = DEFAULT_SETTINGS,
                       ) -> RiskDecomposition:
    """Tail expectation of the sum, decomposed over components.

    Forms the sum's univariate selection law, finds its upper quantile,
    computes the truncated mean of the (selection, sum) joint above it,
    and maps back through the cross-dispersion: the contributions add up
    to the total exactly by construction.
    """
    if params.df is not None and params.df <= 1.0:
        raise MomentNotDefinedError("tail expectation needs more than one degree of freedom")
    spec = build_selection(params)
    q = spec.n_selection
    sum_spec = _sum_spec(spec)
    s_alpha = quantile_upper(sum_spec, alpha, settings)

    aug_lo = np.concatenate([sum_spec.selection_lower, [s_alpha]])
    aug_hi = np.concatenate([sum_spec.selection_upper, [np.inf]])
    rep = truncated_mean_cov(sum_spec.joint, TruncationBox(aug_lo, aug_hi), settings)
    e_s = rep.require_mean()

    omega = spec.joint.omega
    o21 = omega[q:, :q]
    o22 = omega[q:, q:]
    cross = np.hstack([o21, (o22 @ np.ones(spec.n_outcome))[:, None]])
    xi_s = sum_spec.joint.xi
    contributions = spec.joint.xi[q:] + cross @ np.linalg.solve(sum_spec.joint.omega,
                                                                e_s - xi_s)
    total = float(e_s[-1])
    if abs(contributions.sum() - total) > 1e-8 * max(1.0, abs(total)):
        raise NumericalError("allocation additivity violated beyond tolerance")
    aux = float(e_s[0]) / np.sqrt(sum_spec.joint.omega[0, 0]) if q else float("nan")
    return RiskDecomposition(total=total, contributions=contributions,
                             aux_selection_mean=aux, quantile=float(s_alpha),
                             alpha=float(alpha))
