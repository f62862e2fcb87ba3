"""Elliptical joints with normal or Student-t kernels.

Everything downstream (truncated moments, selection families, censoring
identities, risk measures) reduces to a handful of operations on a jointly
elliptical vector: marginalisation, conditioning, Mahalanobis distances,
densities and rectangle probabilities.  This module provides those
operations for the two kernels supported by the engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ._special import gammaln, ndtri, stdtrit
from .errors import NumericalError, SpecError
from .qmc import _cdf, rect_prob_qmc

__all__ = [
    "NORMAL",
    "STUDENT_T",
    "EllipticalJoint",
    "RectangleProbSettings",
    "TruncationBox",
    "normal_joint",
    "student_joint",
    "marginal",
    "conditional",
    "mahalanobis",
    "nu_factor",
    "density",
    "log_density",
    "rectangle_prob",
    "univariate_cdf",
    "univariate_quantile",
]

NORMAL = "normal"
STUDENT_T = "student_t"

_SYM_RTOL = 1e-12


def _as_vector(x, name="vector"):
    v = np.atleast_1d(np.asarray(x, dtype=float))
    if v.ndim != 1:
        raise SpecError(f"{name} must be one-dimensional")
    return v


def _as_matrix(x, name="matrix"):
    m = np.atleast_2d(np.asarray(x, dtype=float))
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SpecError(f"{name} must be square")
    return m


@dataclass(frozen=True)
class TruncationBox:
    """Coordinatewise truncation limits; entries may be infinite.

    ``lower[i] == upper[i]`` marks a degenerate (zero-width) coordinate and
    is only accepted when ``allow_degenerate`` is set.
    """

    lower: np.ndarray
    upper: np.ndarray
    allow_degenerate: bool = False

    def __post_init__(self):
        lo = _as_vector(self.lower, "lower")
        hi = _as_vector(self.upper, "upper")
        if lo.size != hi.size:
            raise SpecError("lower and upper must have the same length")
        if np.any(np.isnan(lo)) or np.any(np.isnan(hi)):
            raise SpecError("box limits must not be NaN")
        if np.any(lo == np.inf) or np.any(hi == -np.inf):
            raise SpecError("lower limits must be < +inf and upper limits > -inf")
        if np.any(lo > hi):
            raise SpecError("box requires lower <= upper in every coordinate")
        if not self.allow_degenerate and np.any(lo == hi):
            raise SpecError("degenerate coordinate (lower == upper) must be flagged")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def is_degenerate(self) -> np.ndarray:
        return self.lower == self.upper

    def both_infinite(self) -> np.ndarray:
        return np.isinf(self.lower) & np.isinf(self.upper)

    def fully_finite(self) -> np.ndarray:
        return np.isfinite(self.lower) & np.isfinite(self.upper)

    def subset(self, idx) -> "TruncationBox":
        idx = np.asarray(idx, dtype=int)
        return _derived(TruncationBox, lower=self.lower[idx], upper=self.upper[idx],
                        allow_degenerate=self.allow_degenerate)


@dataclass(frozen=True)
class RectangleProbSettings:
    """Budget and determinism knobs for the QMC rectangle integrator.

    They apply to lattice calls only: rectangles that the rule of the
    ``tse.qmc`` module docstring (``qmc._exact``) computes deterministically
    ignore them.
    ``max_points`` scrambled Sobol' points are evaluated per scramble,
    ``num_shifts`` scrambles are drawn from ``seed``, and a call whose
    error estimate misses ``target_abs_error`` is refined once to
    ``4 * max_points`` points.  Any ``max_points`` of at least 1000 is used
    as given; Sobol' points are balanced at powers of two, such as the
    default 8192.
    """

    max_points: int = 8192
    target_abs_error: float = 1e-6
    seed: int = 7
    num_shifts: int = 12

    def __post_init__(self):
        if self.max_points < 1000:
            raise SpecError("max_points must be at least 1000")
        if self.target_abs_error <= 0:
            raise SpecError("target_abs_error must be positive")
        if self.num_shifts < 8:
            raise SpecError("num_shifts must be at least 8")


DEFAULT_SETTINGS = RectangleProbSettings()


@dataclass(frozen=True)
class EllipticalJoint:
    """Location/dispersion pair with a normal or Student-t kernel."""

    family: str
    xi: np.ndarray
    omega: np.ndarray
    nu: Optional[float] = None

    def __post_init__(self):
        if self.family not in (NORMAL, STUDENT_T):
            raise SpecError(f"unknown kernel family {self.family!r}")
        xi = _as_vector(self.xi, "xi")
        omega = _as_matrix(self.omega, "omega")
        if omega.shape[0] != xi.size:
            raise SpecError("location and dispersion dimensions disagree")
        sym_err = np.abs(omega - omega.T).max()
        sym_scale = max(np.abs(omega).max(), 1.0)
        if sym_err > _SYM_RTOL * sym_scale:
            raise SpecError("dispersion matrix is not symmetric")
        omega = 0.5 * (omega + omega.T)
        _require_pd(omega)
        if self.family == STUDENT_T:
            if self.nu is None or not self.nu > 0:
                raise SpecError("Student-t kernel requires nu > 0")
            object.__setattr__(self, "nu", float(self.nu))
        elif self.nu is not None:
            raise SpecError("normal kernel takes no degrees of freedom")
        xi.flags.writeable = False
        omega.flags.writeable = False
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "omega", omega)

    @property
    def dim(self) -> int:
        return self.xi.size


def _derived(cls, **fields):
    """An :class:`EllipticalJoint` or :class:`TruncationBox` built from
    ``fields`` (every field, by name) that are derived from validated
    instances, without re-validating them.

    Subsets, conditionals and concatenations of validated parts keep what
    the checks guarantee: float arrays of matching sizes, an exactly
    symmetric dispersion (on which the constructor's symmetrising step is
    the identity), the family and its degrees of freedom, and ordered box
    limits.  A derived joint keeps only the positive-definiteness check, as
    a Schur complement can lose it numerically, and gets read-only arrays.
    """
    if cls is EllipticalJoint:
        _require_pd(fields["omega"])
        fields["xi"].flags.writeable = False
        fields["omega"].flags.writeable = False
    obj = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(obj, name, value)
    return obj


def _require_pd(omega):
    try:
        np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise NumericalError("dispersion matrix is not positive definite")


def normal_joint(xi, omega) -> EllipticalJoint:
    return EllipticalJoint(NORMAL, np.array(xi, dtype=float), np.array(omega, dtype=float))


def student_joint(xi, omega, nu) -> EllipticalJoint:
    return EllipticalJoint(STUDENT_T, np.array(xi, dtype=float),
                           np.array(omega, dtype=float), float(nu))


def _check_indices(idx, dim, name) -> np.ndarray:
    idx = np.atleast_1d(np.asarray(idx, dtype=int))
    if idx.size == 0:
        raise SpecError(f"{name} index list must be nonempty")
    if (idx < 0).any() or (idx >= dim).any():
        raise SpecError(f"{name} index out of range for dimension {dim}")
    if len(set(idx.tolist())) != idx.size:
        raise SpecError(f"{name} index list must not repeat indices")
    return idx


def _complement(dim, idx) -> np.ndarray:
    """The indices of ``0..dim-1`` not in ``idx``, in increasing order."""
    out = np.ones(dim, dtype=bool)
    out[idx] = False
    return np.flatnonzero(out)


def marginal(joint: EllipticalJoint, keep: Sequence[int]) -> EllipticalJoint:
    """Marginal law of the coordinates in ``keep`` (order preserved).

    Both kernels are closed under marginalisation with unchanged degrees of
    freedom, so this is a plain subset of the location and dispersion.  The
    result is derived from a validated joint, so of the constructor's checks
    it keeps only the positive-definiteness check of its dispersion.
    """
    keep = _check_indices(keep, joint.dim, "keep")
    return _derived(EllipticalJoint, family=joint.family, xi=joint.xi[keep],
                    omega=joint.omega[keep[:, None], keep], nu=joint.nu)


def conditional(joint: EllipticalJoint, given: Sequence[int], value) -> EllipticalJoint:
    """Law of the remaining coordinates given exact values for ``given``.

    The normal kernel keeps its Schur-complement dispersion unchanged; the
    Student-t kernel gains ``len(given)`` degrees of freedom and its
    dispersion rescales by ``(nu + delta) / (nu + len(given))`` where
    ``delta`` is the Mahalanobis distance of the conditioning value under
    the given-block marginal.  Of the constructor's checks, the result keeps
    only the positive-definiteness check of its dispersion, which raises
    ``NumericalError`` on a Schur complement that has lost it numerically.
    """
    given = _check_indices(given, joint.dim, "given")
    if given.size >= joint.dim:
        raise SpecError("conditioning must leave at least one coordinate")
    value = _as_vector(value, "value")
    if value.size != given.size:
        raise SpecError("conditioning value length must match index list")
    if not np.all(np.isfinite(value)):
        raise SpecError("conditioning value must be finite")

    _, schur, xi, factor, nu = _conditional_law(joint, given, value)
    return _derived(EllipticalJoint, family=joint.family, xi=xi, omega=factor * schur, nu=nu)


def _conditional_law(joint: EllipticalJoint, given, value):
    """The parts of :func:`conditional` for validated index and value
    arrays: the regression gain of the remaining coordinates on ``given``,
    the symmetrised Schur complement, the conditional location, and the
    Student-t scale factor and degrees of freedom (``1.0`` and ``None`` for
    the normal kernel).  The conditional dispersion is the factor times the
    Schur complement."""
    keep = _complement(joint.dim, given)
    o_gg = joint.omega[given[:, None], given]
    o_kg = joint.omega[keep[:, None], given]
    o_kk = joint.omega[keep[:, None], keep]
    try:
        solve = np.linalg.solve(o_gg, value - joint.xi[given])
        gain = np.linalg.solve(o_gg, o_kg.T).T
    except np.linalg.LinAlgError:
        raise NumericalError("given-block dispersion is singular")
    xi = joint.xi[keep] + o_kg @ solve
    schur = o_kk - gain @ o_kg.T
    schur = 0.5 * (schur + schur.T)
    if joint.family == NORMAL:
        return gain, schur, xi, 1.0, None
    delta = float((value - joint.xi[given]) @ solve)
    return gain, schur, xi, (joint.nu + delta) / (joint.nu + given.size), joint.nu + given.size


def mahalanobis(joint: EllipticalJoint, x) -> float:
    """Squared scaled distance ``(x - xi)' omega^{-1} (x - xi)``."""
    x = _as_vector(x, "x")
    if x.size != joint.dim:
        raise SpecError("point dimension does not match the joint")
    return float(_log_density_rows(joint, _log_density_parts(joint), x[None])[2][0])


def nu_factor(joint: EllipticalJoint, x) -> float:
    """Squared conditional-scale factor ``(nu + dim) / (nu + mahalanobis)``.

    Callers that need the unsquared factor take the square root.
    """
    if joint.family != STUDENT_T:
        raise SpecError("nu_factor is defined for the Student-t kernel only")
    return (joint.nu + joint.dim) / (joint.nu + mahalanobis(joint, x))


def log_density(joint: EllipticalJoint, x):
    """Log density at a point ``x`` (a float) or at each row of ``x`` (an
    array), evaluated kernel-appropriately in log space."""
    x = np.asarray(x, dtype=float)
    rows = np.atleast_2d(x)
    if x.ndim > 2 or rows.shape[1] != joint.dim:
        raise SpecError("point dimension does not match the joint")
    out = _log_density_rows(joint, _log_density_parts(joint), rows)[0]
    return float(out[0]) if x.ndim < 2 else out


def _log_density_parts(joint: EllipticalJoint):
    """The point-free parts of :func:`log_density`: the inverse of the
    dispersion's Cholesky factor and the log normalising constant."""
    p = joint.dim
    try:
        chol = np.linalg.cholesky(joint.omega)
    except np.linalg.LinAlgError:
        raise NumericalError("dispersion matrix is not positive definite")
    half_logdet = float(np.sum(np.log(np.diag(chol))))
    inv_chol = np.linalg.inv(chol)
    if joint.family == NORMAL:
        return inv_chol, -0.5 * p * np.log(2.0 * np.pi) - half_logdet
    nu = joint.nu
    return inv_chol, (gammaln(0.5 * (nu + p)) - gammaln(0.5 * nu)
                      - 0.5 * p * np.log(nu * np.pi) - half_logdet)


def _log_density_rows(joint: EllipticalJoint, parts, rows):
    """:func:`log_density` at each row of the 2-D array ``rows``, given
    ``parts = _log_density_parts(joint)``, with the whitened rows
    ``z = L^{-1} (x - xi)`` and their squared scaled distances
    ``delta = sum(z**2)``, ``L`` the dispersion's Cholesky factor."""
    inv_chol, const = parts
    z = (rows - joint.xi) @ inv_chol.T
    delta = np.sum(z * z, axis=1)
    if joint.family == NORMAL:
        return const - 0.5 * delta, z, delta
    return const - 0.5 * (joint.nu + joint.dim) * np.log1p(delta / joint.nu), z, delta


def density(joint: EllipticalJoint, x):
    """Density at a point (a float) or at each row of ``x`` (an array)."""
    out = np.exp(log_density(joint, x))
    return out if isinstance(out, np.ndarray) else float(out)


def univariate_cdf(family: str, z, nu: Optional[float] = None):
    """Standardised cdf for the given kernel family."""
    if family == NORMAL:
        return _cdf(z)
    if family == STUDENT_T:
        if nu is None or nu <= 0:
            raise SpecError("Student-t cdf requires nu > 0")
        return _cdf(z, nu)
    raise SpecError(f"unknown kernel family {family!r}")


def univariate_quantile(family: str, prob, nu: Optional[float] = None):
    """Inverse of :func:`univariate_cdf` on the open unit interval."""
    prob_arr = np.asarray(prob, dtype=float)
    if np.any(prob_arr <= 0.0) or np.any(prob_arr >= 1.0):
        raise SpecError("quantile argument must lie strictly inside (0, 1)")
    if family == NORMAL:
        out = ndtri(prob_arr)
    elif family == STUDENT_T:
        if nu is None or nu <= 0:
            raise SpecError("Student-t quantile requires nu > 0")
        out = stdtrit(nu, prob_arr)
    else:
        raise SpecError(f"unknown kernel family {family!r}")
    if out.ndim == 0:
        return float(out)
    return out


def rectangle_prob(joint: EllipticalJoint, tbox: TruncationBox,
                   settings: RectangleProbSettings = DEFAULT_SETTINGS):
    """``P(lower <= X <= upper)`` with an error estimate.

    Coordinates whose limits are infinite on both sides are marginalised
    out before integration; the rest go to ``qmc.rect_prob_qmc``, exact or
    on the lattice by the rule of the ``tse.qmc`` module docstring.
    Results are deterministic for a fixed seed.
    """
    if tbox.dim != joint.dim:
        raise SpecError("box dimension does not match the joint")
    if np.any(tbox.lower > tbox.upper):
        raise SpecError("box requires lower <= upper")
    keep = np.flatnonzero(~tbox.both_infinite())
    if keep.size == 0:
        return 1.0, 0.0
    sub = joint if keep.size == joint.dim else marginal(joint, keep)
    lo = tbox.lower[keep] - sub.xi
    hi = tbox.upper[keep] - sub.xi
    return rect_prob_qmc(
        sub.omega, lo, hi, df=sub.nu,
        max_points=settings.max_points,
        num_shifts=settings.num_shifts,
        seed=settings.seed,
        target_abs_error=settings.target_abs_error,
    )

