"""Selection-elliptical families: SUT/EST/ST and their normal limits.

A selection distribution is the law of the outcome block of an elliptical
joint conditioned on its selection block falling in a rectangle.  Densities
follow from the conditional form of that definition, and truncated moments
reduce to truncated moments of the underlying symmetric joint with the
selection rectangle prepended to the truncation box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .elliptical import (
    DEFAULT_SETTINGS,
    NORMAL,
    STUDENT_T,
    EllipticalJoint,
    RectangleProbSettings,
    TruncationBox,
    _conditional_law,
    _derived,
    _log_density_parts,
    _log_density_rows,
    conditional,
    log_density,
    marginal,
    normal_joint,
    rectangle_prob,
    student_joint,
)
from .errors import MomentNotDefinedError, NumericalError, SpecError
from .qmc import _cdf, rect_probs
from .truncated import (
    MomentReport,
    _check_order,
    _oob_target,
    _product_moment,
    _recursion_closes,
    existence_check,
    truncated_mean_cov,
)

__all__ = [
    "SelectionSpec",
    "SutParams",
    "LimitingTParams",
    "build_selection",
    "selection_probability",
    "box_mass",
    "se_pdf",
    "se_logpdf",
    "tse_mean_cov",
    "tse_moment",
    "limiting_t",
    "sut_existence",
    "affine_outcome",
    "marginal_outcome",
    "st_pdf",
    "est_pdf",
    "sn_pdf",
    "esn_pdf",
]


@dataclass(frozen=True)
class SelectionSpec:
    """Outcome block of ``joint`` conditioned on the selection rectangle.

    The first ``n_selection`` coordinates of ``joint`` form the selection
    block; the remaining ``n_outcome`` coordinates carry the distribution
    of interest.  ``n_selection == 0`` degenerates to the plain elliptical
    law of the outcome block.  The instance memoises its selection
    probability per :class:`RectangleProbSettings`, and the point-free parts
    of its density once.
    """

    joint: EllipticalJoint
    n_selection: int
    n_outcome: int
    selection_lower: np.ndarray
    selection_upper: np.ndarray

    def __post_init__(self):
        q, p = self.n_selection, self.n_outcome
        if q < 0 or p < 1 or q + p != self.joint.dim:
            raise SpecError("selection/outcome split does not match the joint dimension")
        lo = np.atleast_1d(np.asarray(self.selection_lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.selection_upper, dtype=float))
        if q == 0:
            lo = np.zeros(0)
            hi = np.zeros(0)
        if lo.size != q or hi.size != q:
            raise SpecError("selection limits must cover the selection block")
        if q and (not np.all(lo < hi) or np.any(lo == np.inf) or np.any(hi == -np.inf)):
            raise SpecError("selection rectangle must have positive volume and no NaN limit")
        object.__setattr__(self, "selection_lower", lo)
        object.__setattr__(self, "selection_upper", hi)
        object.__setattr__(self, "_selection_probs", {})
        object.__setattr__(self, "_density", None)

    @property
    def family(self) -> str:
        return self.joint.family

    @property
    def nu(self) -> Optional[float]:
        return self.joint.nu

    def outcome_marginal(self) -> EllipticalJoint:
        idx = np.arange(self.n_selection, self.joint.dim)
        return marginal(self.joint, idx)

    def _density_parts(self):
        """The point-free parts of :func:`se_logpdf`, computed on first use:
        the outcome marginal and its log-density parts, then (``None``
        without a selection block) the whitened cross dispersion
        ``omega_12 L^{-T}``, ``L`` the outcome dispersion's Cholesky factor,
        and the diagonal, as a column, and correlation of the Schur
        complement of the selection block given the outcome block."""
        parts = self._density
        if parts is None:
            outcome = self.outcome_marginal()
            log_parts = _log_density_parts(outcome)
            q = self.n_selection
            white_cross = schur_var = schur_corr = None
            if q:
                white_cross = self.joint.omega[:q, q:] @ log_parts[0].T
                given = np.arange(q, self.joint.dim)
                schur = _conditional_law(self.joint, given, self.joint.xi[q:])[1]
                var = np.diag(schur)
                schur_var = var[:, None]
                schur_corr = schur / np.sqrt(np.outer(var, var))
            parts = (outcome, log_parts, white_cross, schur_var, schur_corr)
            object.__setattr__(self, "_density", parts)
        return parts

    def selection_marginal(self) -> EllipticalJoint:
        if self.n_selection == 0:
            raise SpecError("spec has no selection block")
        return marginal(self.joint, np.arange(self.n_selection))

    def augmented_box(self, tbox: Optional[TruncationBox]) -> TruncationBox:
        """Selection rectangle prepended to an outcome truncation box."""
        if tbox is None:
            lo2 = np.full(self.n_outcome, -np.inf)
            hi2 = np.full(self.n_outcome, np.inf)
        else:
            if tbox.dim != self.n_outcome:
                raise SpecError("box dimension does not match the outcome block")
            lo2, hi2 = tbox.lower, tbox.upper
        return _derived(
            TruncationBox,
            lower=np.concatenate([self.selection_lower, lo2]),
            upper=np.concatenate([self.selection_upper, hi2]),
            allow_degenerate=tbox.allow_degenerate if tbox is not None else False,
        )


@dataclass(frozen=True)
class SutParams:
    """Location/scale/shape/extension parametrization of the unified
    skew-t family (``df=None`` selects the unified skew-normal limit).

    ``shape`` is a ``q x p`` loading matrix, one row per selection
    component (a plain length-``p`` vector is accepted when ``q == 1``);
    ``selection_corr`` must be a correlation matrix (unit diagonal,
    positive definite).  The induced joint places the selection block
    first with dispersion ``selection_corr + shape @ shape.T`` and cross
    block ``sqrtm(scale) @ shape.T``.
    """

    location: np.ndarray
    scale: np.ndarray
    shape: np.ndarray
    extension: np.ndarray
    selection_corr: np.ndarray
    df: Optional[float] = None

    def __post_init__(self):
        mu = np.atleast_1d(np.asarray(self.location, dtype=float))
        sigma = np.atleast_2d(np.asarray(self.scale, dtype=float))
        lam = np.asarray(self.shape, dtype=float)
        if lam.ndim == 1:
            lam = lam[None, :]
        tau = np.atleast_1d(np.asarray(self.extension, dtype=float))
        psi = np.atleast_2d(np.asarray(self.selection_corr, dtype=float))
        p = mu.size
        q = tau.size
        if sigma.shape != (p, p):
            raise SpecError("scale must be p x p")
        if lam.shape != (q, p):
            raise SpecError("shape must be q x p (one row per selection component)")
        if psi.shape != (q, q):
            raise SpecError("selection correlation must be q x q")
        if np.abs(np.diag(psi) - 1.0).max() > 1e-12:
            raise SpecError("selection correlation must have a unit diagonal")
        for name, m in (("scale", sigma), ("selection correlation", psi)):
            try:
                np.linalg.cholesky(m)
            except np.linalg.LinAlgError:
                raise NumericalError(f"{name} matrix is not positive definite")
        if self.df is not None and not self.df > 0:
            raise SpecError("df must be positive (or None for the normal kernel)")
        object.__setattr__(self, "location", mu)
        object.__setattr__(self, "scale", sigma)
        object.__setattr__(self, "shape", lam)
        object.__setattr__(self, "extension", tau)
        object.__setattr__(self, "selection_corr", psi)

    @property
    def p(self) -> int:
        return self.location.size

    @property
    def q(self) -> int:
        return self.extension.size

    @property
    def family(self) -> str:
        return NORMAL if self.df is None else STUDENT_T


def _sqrtm_spd(matrix: np.ndarray) -> np.ndarray:
    """Symmetric square root of a symmetric positive-definite matrix."""
    vals, vecs = np.linalg.eigh(matrix)
    if vals.min() <= 0:
        raise NumericalError("matrix is not positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def build_selection(params: SutParams) -> SelectionSpec:
    """Assemble the joint representation with selection rectangle [0, inf)^q."""
    p, q = params.p, params.q
    root = _sqrtm_spd(params.scale)
    o21 = root @ params.shape.T
    o11 = params.selection_corr + params.shape @ params.shape.T
    omega = np.block([[o11, o21.T], [o21, params.scale]])
    omega = 0.5 * (omega + omega.T)
    xi = np.concatenate([params.extension, params.location])
    if params.df is None:
        joint = normal_joint(xi, omega)
    else:
        joint = student_joint(xi, omega, params.df)
    return SelectionSpec(joint, q, p, np.zeros(q), np.full(q, np.inf))


def selection_probability(spec: SelectionSpec,
                          settings: RectangleProbSettings = DEFAULT_SETTINGS) -> float:
    """Mass of the selection rectangle under the selection-block marginal,
    computed once per spec and settings."""
    if spec.n_selection == 0:
        return 1.0
    prob = spec._selection_probs.get(settings)
    if prob is None:
        tb = TruncationBox(spec.selection_lower, spec.selection_upper)
        prob, _ = rectangle_prob(spec.selection_marginal(), tb, settings)
        spec._selection_probs[settings] = prob
    return prob


def box_mass(spec: SelectionSpec, tbox: Optional[TruncationBox],
             settings: RectangleProbSettings = DEFAULT_SETTINGS):
    """Mass of the outcome box ``tbox`` under the selection law.

    The rectangle probability of the augmented box over the selection
    probability, clipped to [0, 1].  Returns ``(mass, err, selection_prob)``
    where ``err`` is the error estimate of the numerator scaled to the
    mass.  Raises ``NumericalError`` when the selection probability
    underflows.
    """
    num, err = rectangle_prob(spec.joint, spec.augmented_box(tbox), settings)
    den = selection_probability(spec, settings)
    if den <= 0.0:
        raise NumericalError("selection probability underflowed")
    return min(max(num / den, 0.0), 1.0), err / den, den


def se_logpdf(spec: SelectionSpec, y,
              settings: RectangleProbSettings = DEFAULT_SETTINGS):
    """Log density of the selection distribution at ``y`` (rows or vector).

    Evaluates the closed form: outcome-marginal kernel density times the
    conditional probability of the selection rectangle, divided by the
    marginal selection probability.  The selection probability is always an
    explicit rectangle probability of the conditioning event.  A point with
    an infinite coordinate has log density ``-inf``, as has a normal-kernel
    point whose squared distance overflows.  A NaN coordinate raises
    ``SpecError``; a Student-t point whose squared distance overflows raises
    ``NumericalError``.
    """
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    rows = np.atleast_2d(y)
    if rows.shape[1] != spec.n_outcome:
        raise SpecError("point dimension does not match the outcome block")
    if not np.isfinite(rows).all():
        if np.isnan(rows).any():
            raise SpecError("point has a NaN coordinate")
        return _se_logpdf_live(spec, rows, np.isfinite(rows).all(axis=1), single, settings)
    out_joint, log_parts, white_cross, schur_var, schur_corr = spec._density_parts()
    log_f, z, delta = _log_density_rows(out_joint, log_parts, rows)
    q = spec.n_selection
    if q == 0:
        return log_f[0] if single else log_f
    if spec.family == NORMAL and not np.isfinite(log_f).all():
        # The squared distance overflowed: the density is 0 whatever the
        # selection factor, which could not be formed.
        return _se_logpdf_live(spec, rows, np.isfinite(log_f), single, settings)

    den = selection_probability(spec, settings)
    if den <= 0.0:
        raise NumericalError("selection probability underflowed")

    # omega_12 omega_22^{-1} (y - xi_2) = (omega_12 L^{-T}) z.
    cond_mean = spec.joint.xi[:q, None] + white_cross @ z.T
    if spec.family == STUDENT_T:
        nu = spec.nu
        if not np.isfinite(delta).all():
            raise NumericalError("squared distance of the point overflows")
        factors = (nu + delta) / (nu + spec.n_outcome)
        df_c = nu + spec.n_outcome
    else:
        factors, df_c = 1.0, None

    # Every row shares the Schur correlation; only the standardised limits
    # differ, so one call covers all rows.
    sd = np.sqrt(schur_var * factors)
    num, _ = rect_probs(schur_corr, ((spec.selection_lower[:, None] - cond_mean) / sd).T,
                        ((spec.selection_upper[:, None] - cond_mean) / sd).T, df_c,
                        max_points=settings.max_points, num_shifts=settings.num_shifts,
                        seed=settings.seed, target_abs_error=settings.target_abs_error)
    with np.errstate(divide="ignore"):
        out = log_f + np.log(np.maximum(num, 0.0)) - np.log(den)
    return out[0] if single else out


def _se_logpdf_live(spec, rows, live, single, settings):
    """:func:`se_logpdf` at the ``live`` rows and ``-inf`` at the others."""
    out = np.full(rows.shape[0], -np.inf)
    if live.any():
        out[live] = se_logpdf(spec, rows[live], settings)
    return out[0] if single else out


def se_pdf(spec: SelectionSpec, y,
           settings: RectangleProbSettings = DEFAULT_SETTINGS):
    """Density of the selection distribution at ``y`` (rows or vector)."""
    return np.exp(se_logpdf(spec, y, settings))


def tse_mean_cov(spec: SelectionSpec, tbox: Optional[TruncationBox],
                 settings: RectangleProbSettings = DEFAULT_SETTINGS) -> MomentReport:
    """Mean and covariance of the truncated selection distribution.

    Prepends the selection rectangle to the truncation box, computes the
    truncated moments of the symmetric joint, and reads off the outcome
    block, Monte Carlo standard errors included.  The reported probability
    mass is the truncated mass under the selection law, i.e. the
    augmented-box mass over the selection mass.
    """
    aug_box = spec.augmented_box(tbox)
    rep = truncated_mean_cov(spec.joint, aug_box, settings)
    q = spec.n_selection
    mean = rep.mean[q:] if rep.mean is not None else None
    cov = second = stderr = None
    if rep.covariance is not None:
        cov = rep.covariance[q:, q:]
        second = rep.second_moment[q:, q:]
    if rep.mc_stderr is not None:
        stderr = {k: v[q:, q:] if k == "cov" else v[q:] for k, v in rep.mc_stderr.items()}
    prob = _tse_prob_mass(spec, rep, tbox, settings)
    return MomentReport(prob, mean, second, cov, rep.existence, rep.method, rep.notes, stderr)


def _tse_prob_mass(spec, aug_report, tbox, settings):
    den = selection_probability(spec, settings)
    if den > 0.0:
        return float(min(max(aug_report.prob_mass / den, 0.0), 1.0))
    # Selection mass underflowed in double precision: report the box mass
    # under the limiting law (selection block collapsed onto its near limit).
    if tbox is None:
        return 1.0
    sel_box = TruncationBox(spec.selection_lower, spec.selection_upper)
    sel_joint = spec.selection_marginal()
    try:
        target = _oob_target(sel_joint, sel_box, list(range(spec.n_selection)))
    except NumericalError:
        return 0.0
    cond = conditional(spec.joint, np.arange(spec.n_selection), target)
    prob, _ = rectangle_prob(cond, tbox, settings)
    return prob


def tse_moment(spec: SelectionSpec, tbox: Optional[TruncationBox], order,
               settings: RectangleProbSettings = DEFAULT_SETTINGS) -> float:
    """``E[Y^order | box]`` for the truncated selection distribution.

    The moment is a product moment of the symmetric joint over the
    augmented box, from the face recursion of :mod:`tse.truncated`, which
    holds degenerate, out-of-bounds and underflowed coordinates at a point
    as :func:`tse_mean_cov` does: always for the normal kernel, and for the
    Student-t kernel whenever ``nu`` exceeds the total order or the joint
    is univariate.  Below that (Student-t, at least two joint dimensions,
    ``nu`` at most the total order) moments up to total order two come from
    :func:`tse_mean_cov`, and higher ones are estimated from 10^6 draws of
    :func:`sample_se` seeded with ``settings.seed``.
    """
    return _tse_moment_path(spec, tbox, order, settings)[0]


# Draws of the Monte Carlo fallback of tse_moment.
_MC_DRAWS = 1_000_000


def _tse_moment_path(spec, tbox, order, settings):
    """:func:`tse_moment` with the path taken and the Monte Carlo standard error.

    Returns ``(value, method, mc_stderr)``; ``mc_stderr`` is ``None`` on the
    deterministic paths, a float for the fallback, and the report's
    ``mc_stderr`` dict when :func:`tse_mean_cov` took its Gibbs route.
    """
    k = _check_order(order, spec.n_outcome)
    aug_box = spec.augmented_box(tbox)
    aug_order = np.concatenate([np.zeros(spec.n_selection, dtype=int), k])
    if not existence_check(spec.family, spec.nu, aug_box, aug_order):
        raise MomentNotDefinedError(
            f"moment of order {tuple(int(v) for v in k)} does not exist for these limits")
    if k.sum() == 0:
        return 1.0, ("direct",), None
    if spec.joint.dim == 1 or _recursion_closes(spec.nu, k.sum()):
        value, method = _product_moment(spec.joint, aug_box, aug_order, settings)
        return value, method, None
    if k.sum() <= 2:
        rep = tse_mean_cov(spec, tbox, settings)
        nz = np.flatnonzero(k)
        if k.sum() == 1:
            value = rep.require_mean()[nz[0]]
        else:
            value = rep.require_second_moment()[nz[0], nz[-1]]
        return float(value), rep.method, rep.mc_stderr
    from .oracle import estimate_moments, sample_se

    batch = sample_se(spec, tbox, _MC_DRAWS, settings.seed)
    est = estimate_moments(batch, k)
    return float(est.value), ("mc-" + batch.method,), float(est.std_error)


@dataclass(frozen=True)
class LimitingTParams:
    """Outcome law conditioned on the selection block at its boundary.

    For the normal kernel this is the limit of the selection law as every
    extension coordinate goes to minus infinity.  For the Student-t kernel
    it is a Student-t with ``df + q`` degrees of freedom and an inflated
    scale, but no limit: see :func:`limiting_t`.
    """

    location: np.ndarray
    base_scale: np.ndarray
    scale_inflation: float
    df: Optional[float]
    standardized_extension: Optional[float] = None

    def to_joint(self) -> EllipticalJoint:
        scale = self.scale_inflation * self.base_scale
        if self.df is None:
            return normal_joint(self.location, self.base_scale)
        return student_joint(self.location, scale, self.df)


def limiting_t(params: SutParams) -> LimitingTParams:
    """Outcome law with the selection block held at its boundary.

    ``to_joint()`` is exactly :func:`tse.elliptical.conditional` of the
    :func:`build_selection` joint at the selection boundary ``0``.  For the
    normal kernel this is the receding-extension limit: as every extension
    coordinate goes to minus infinity the selection law converges to it,
    in law and in moments.  For the Student-t kernel it is only that
    conditional law (``censored_factor`` builds on the same law), and
    neither a limit in law nor one in moments: given ``X0 > c`` the
    overshoot ``X0 / c`` tends to a Pareto(df) law and does not vanish (for
    an EST with location zero the ratio of the true mean to this law's mean
    tends to ``df / (df - 1)``).
    """
    q = params.q
    _, schur, xi, factor, nu = _conditional_law(build_selection(params).joint, np.arange(q),
                                                np.zeros(q))
    tau_tilde = None
    if q == 1:
        lam = params.shape[0]
        tau_tilde = float(params.extension[0] / np.sqrt(1.0 + lam @ lam))
    return LimitingTParams(xi, schur, float(factor), nu, tau_tilde)


def sut_existence(params: SutParams, tbox: Optional[TruncationBox], order) -> bool:
    """Moment existence for the doubly truncated family.

    Counts outcome coordinates with two finite limits; the order carried by
    coordinates with an infinite limit must stay strictly below ``df`` plus
    that count.  Normal kernels always pass.
    """
    spec = build_selection(params)
    k = np.atleast_1d(np.asarray(order, dtype=int))
    if k.size != params.p:
        raise SpecError("order length must match the outcome dimension")
    aug_box = spec.augmented_box(tbox)
    aug_order = np.concatenate([np.zeros(params.q, dtype=int), k])
    return existence_check(spec.family, spec.nu, aug_box, aug_order)


def affine_outcome(spec: SelectionSpec, a_matrix, offset) -> SelectionSpec:
    """Selection law of ``A @ Y + b``; the selection event is untouched."""
    a = np.atleast_2d(np.asarray(a_matrix, dtype=float))
    b = np.atleast_1d(np.asarray(offset, dtype=float))
    r, p = a.shape
    if p != spec.n_outcome or b.size != r or r < 1:
        raise SpecError("affine map shape does not match the outcome block")
    q = spec.n_selection
    omega = spec.joint.omega
    o11 = omega[:q, :q]
    o12 = omega[:q, q:]
    o22 = omega[q:, q:]
    new_omega = np.block([
        [o11, o12 @ a.T],
        [a @ o12.T, a @ o22 @ a.T],
    ])
    new_omega = 0.5 * (new_omega + new_omega.T)
    new_xi = np.concatenate([spec.joint.xi[:q], a @ spec.joint.xi[q:] + b])
    joint = EllipticalJoint(spec.family, new_xi, new_omega, spec.nu)
    return SelectionSpec(joint, q, r, spec.selection_lower, spec.selection_upper)


def marginal_outcome(spec: SelectionSpec, keep) -> SelectionSpec:
    """Marginal selection law of a subset of outcome coordinates."""
    keep = np.atleast_1d(np.asarray(keep, dtype=int))
    if np.any(keep < 0) or np.any(keep >= spec.n_outcome):
        raise SpecError("outcome index out of range")
    idx = np.concatenate([np.arange(spec.n_selection), spec.n_selection + keep])
    joint = marginal(spec.joint, idx)
    return SelectionSpec(joint, spec.n_selection, keep.size,
                         spec.selection_lower, spec.selection_upper)


# ---------------------------------------------------------------------------
# Closed-form densities for the q = 1 members, used as cross-checks of
# ``se_pdf`` (the CLI evaluates every family through ``se_pdf``).
# ---------------------------------------------------------------------------

def _skew_parts(y, location, scale, shape):
    y = np.atleast_2d(np.asarray(y, dtype=float))
    mu = np.atleast_1d(np.asarray(location, dtype=float))
    sigma = np.atleast_2d(np.asarray(scale, dtype=float))
    lam = np.atleast_1d(np.asarray(shape, dtype=float))
    root_inv = np.linalg.inv(_sqrtm_spd(sigma))
    diff = y - mu
    std = diff @ root_inv.T
    proj = std @ lam
    delta = np.sum(std * std, axis=1)
    return y, mu, sigma, lam, proj, delta


def st_pdf(y, location, scale, shape, df):
    """Skew-t density (zero extension), vectorised over rows of ``y``."""
    y, mu, sigma, lam, proj, delta = _skew_parts(y, location, scale, shape)
    p = mu.size
    base = student_joint(mu, sigma, df)
    logs = log_density(base, y)
    nu_y = np.sqrt((df + p) / (df + delta))
    tail = _cdf(proj * nu_y, df + p)
    out = 2.0 * np.exp(logs) * tail
    return out[0] if np.asarray(y).ndim == 1 else out


def est_pdf(y, location, scale, shape, extension, df):
    """Extended skew-t density, vectorised over rows of ``y``."""
    y, mu, sigma, lam, proj, delta = _skew_parts(y, location, scale, shape)
    p = mu.size
    base = student_joint(mu, sigma, df)
    logs = log_density(base, y)
    nu_y = np.sqrt((df + p) / (df + delta))
    tau = float(np.atleast_1d(extension)[0])
    tau_tilde = tau / np.sqrt(1.0 + lam @ lam)
    num = _cdf((tau + proj) * nu_y, df + p)
    den = _cdf(tau_tilde, df)
    out = np.exp(logs) * num / den
    return out[0] if np.asarray(y).ndim == 1 else out


def sn_pdf(y, location, scale, shape):
    """Skew-normal density, vectorised over rows of ``y``."""
    y, mu, sigma, lam, proj, _ = _skew_parts(y, location, scale, shape)
    base = normal_joint(mu, sigma)
    logs = log_density(base, y)
    out = 2.0 * np.exp(logs) * _cdf(proj)
    return out[0] if np.asarray(y).ndim == 1 else out


def esn_pdf(y, location, scale, shape, extension):
    """Extended skew-normal density, vectorised over rows of ``y``."""
    y, mu, sigma, lam, proj, _ = _skew_parts(y, location, scale, shape)
    base = normal_joint(mu, sigma)
    logs = log_density(base, y)
    tau = float(np.atleast_1d(extension)[0])
    tau_tilde = tau / np.sqrt(1.0 + lam @ lam)
    out = np.exp(logs) * _cdf(tau + proj) / _cdf(tau_tilde)
    return out[0] if np.asarray(y).ndim == 1 else out
