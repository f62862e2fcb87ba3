"""Moments of rectangle-truncated multivariate normal and Student-t vectors.

The mean and second moment over a box are assembled from boundary (face)
identities: integrating the kernel's gradient identity over the box turns
first moments into a weighted sum of one-dimension-lower rectangle
probabilities evaluated on the faces, and second moments into the same face
terms plus conditional first moments one dimension down.  For the
Student-t kernel each recursion level decrements the degrees of freedom of
the face distribution by one.

Extreme configurations get dedicated treatment:

* degenerate coordinates (``lower == upper``) are removed by conditioning;
* coordinates whose marginal box probability underflows are collapsed onto
  their near limit and the rest is conditioned on that point (a Student-t
  coordinate whose far limit is infinite raises instead);
* coordinates unbounded on both sides are split off and reassembled from
  the truncated block via the conditional-scale constant, integrating only
  over the truncated block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .elliptical import (
    DEFAULT_SETTINGS,
    NORMAL,
    STUDENT_T,
    EllipticalJoint,
    IndexPartition,
    RectangleProbSettings,
    TruncationBox,
    _uv_interval_logprob,
    conditional,
    marginal,
)
from .errors import MomentNotDefinedError, NumericalError, SpecError
from .qmc import rect_prob_qmc

__all__ = [
    "ExistenceFlags",
    "MomentReport",
    "existence_check",
    "moment_flags",
    "tmvn_mean_cov",
    "tmvt_mean_cov",
    "truncated_mean_cov",
    "tmvn_product_moment",
    "omega_12",
    "moments_with_double_infinite",
    "moments_out_of_bounds",
]

# Marginal log-probability below which a coordinate block counts as
# out of bounds in double precision.
OOB_LOG_THRESHOLD = float(np.log(1e-250))
# Largest far-to-near width, relative to the near limit's distance from the
# location, at which an out-of-bounds Student-t coordinate still collapses.
OOB_T_REL_WIDTH = 1e-6

DEFAULT_ORDER_CAP = 8


@dataclass(frozen=True)
class ExistenceFlags:
    """Which of the first two truncated moments exist."""

    mean: bool
    second: bool


@dataclass(frozen=True)
class MomentReport:
    """Probability mass and first two moments of a truncated distribution.

    Nonexistent moments are reported as ``None``; ``require_*`` accessors
    raise instead of returning them.  ``method`` records which computation
    paths produced the numbers ("direct", "double-infinite",
    "out-of-bounds", "degenerate", "mc-gibbs").
    """

    prob_mass: float
    mean: Optional[np.ndarray]
    second_moment: Optional[np.ndarray]
    covariance: Optional[np.ndarray]
    existence: ExistenceFlags
    method: tuple = ("direct",)
    notes: tuple = ()
    mc_stderr: Optional[dict] = None

    def require_mean(self) -> np.ndarray:
        if self.mean is None:
            raise MomentNotDefinedError(
                "truncated mean does not exist for these degrees of freedom and limits")
        return self.mean

    def require_cov(self) -> np.ndarray:
        if self.covariance is None:
            raise MomentNotDefinedError(
                "truncated covariance does not exist for these degrees of freedom and limits")
        return self.covariance

    def require_second_moment(self) -> np.ndarray:
        if self.second_moment is None:
            raise MomentNotDefinedError(
                "truncated second moment does not exist for these degrees of freedom and limits")
        return self.second_moment


def _check_order(order, dim, cap=DEFAULT_ORDER_CAP) -> np.ndarray:
    k = np.atleast_1d(np.asarray(order, dtype=int))
    if k.size != dim:
        raise SpecError("moment order length must match the dimension")
    if np.any(k < 0):
        raise SpecError("moment orders must be nonnegative")
    if k.sum() > cap:
        raise SpecError(f"total moment order {k.sum()} exceeds the cap of {cap}")
    return k


def existence_check(family: str, nu, tbox: TruncationBox, order) -> bool:
    """Whether ``E[X^order | box]`` exists.

    Normal kernel: always.  Student-t: the order carried by coordinates
    with at least one infinite limit must be strictly below ``nu`` plus the
    number of fully finite coordinates.
    """
    k = _check_order(order, tbox.dim, cap=10**9)
    if family == NORMAL:
        return True
    if nu is None or nu <= 0:
        raise SpecError("Student-t existence check requires nu > 0")
    finite = tbox.fully_finite()
    p1 = int(np.count_nonzero(finite))
    k2 = int(k[~finite].sum())
    return k2 < nu + p1


def moment_flags(family: str, nu, tbox: TruncationBox) -> ExistenceFlags:
    """Existence of the full mean vector and second-moment matrix."""
    if family == NORMAL:
        return ExistenceFlags(True, True)
    finite = tbox.fully_finite()
    p1 = int(np.count_nonzero(finite))
    if p1 == tbox.dim:
        return ExistenceFlags(True, True)
    return ExistenceFlags(1 < nu + p1, 2 < nu + p1)


# ---------------------------------------------------------------------------
# Centred raw-moment engine.  All functions below work with location zero;
# the public entry points shift the box by the location first.
# ---------------------------------------------------------------------------

class _Engine:
    """Carries the QMC settings and the per-invocation face-term cache."""

    def __init__(self, settings: RectangleProbSettings):
        self.settings = settings
        self.cache: dict = {}

    def _key(self, tag, nu, sigma, lo, hi):
        return (tag, nu, sigma.tobytes(), lo.tobytes(), hi.tobytes())

    def prob(self, nu, sigma, lo, hi):
        """Centred rectangle probability; exact in one to three dimensions."""
        key = self._key("p", nu, sigma, lo, hi)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        keep = np.flatnonzero(~(np.isinf(lo) & np.isinf(hi) & (lo < hi)))
        # Face probabilities keep the single-pass budget: the assembled
        # moments are insensitive to per-face refinement and the shared
        # cache keeps both extreme-case paths on identical integrals.
        out, _ = rect_prob_qmc(
            sigma[np.ix_(keep, keep)], lo[keep], hi[keep], df=nu,
            max_points=self.settings.max_points,
            num_shifts=self.settings.num_shifts,
            seed=self.settings.seed)
        self.cache[key] = out
        return out

    # -- univariate building blocks -------------------------------------

    @staticmethod
    def _norm_pdf(t, var):
        if not np.isfinite(t):
            return 0.0
        return float(np.exp(-0.5 * t * t / var) / np.sqrt(2.0 * np.pi * var))

    @staticmethod
    def _t_face_constant(p, nu, var_k, t):
        """Scaled Student-t face weight for a p-dim problem at ``x_k = t``.

        This is the one-dimensional factor multiplying the (p-1)-dim
        conditional rectangle probability with ``nu - 1`` degrees of
        freedom; it decays like ``|t|^{-(nu-1)}``.
        """
        if not np.isfinite(t):
            return 0.0
        log_k = (
            gammaln(0.5 * (nu + p)) + gammaln(0.5 * (nu - 1.0))
            - gammaln(0.5 * nu) - gammaln(0.5 * (nu + p - 2.0))
            - 0.5 * np.log(np.pi) + 0.5 * (nu - 2.0) * np.log(nu)
        )
        return float(np.exp(log_k - 0.5 * np.log(var_k)
                            - 0.5 * (nu - 1.0) * np.log(nu + t * t / var_k)))

    def _face_parts(self, nu, sigma, k, t):
        """Conditional location/dispersion/df one dimension down at x_k = t."""
        p = sigma.shape[0]
        others = [i for i in range(p) if i != k]
        var_k = sigma[k, k]
        mu_c = sigma[others, k] * (t / var_k)
        schur = sigma[np.ix_(others, others)] - np.outer(sigma[others, k],
                                                         sigma[k, others]) / var_k
        schur = 0.5 * (schur + schur.T)
        if nu is None:
            return others, mu_c, schur, None, self._norm_pdf(t, var_k)
        scale = schur * ((nu + t * t / var_k) / (nu - 1.0))
        return others, mu_c, scale, nu - 1.0, self._t_face_constant(p, nu, var_k, t)

    # -- univariate moments ----------------------------------------------

    def _uv_raw_mean(self, nu, var, lo, hi):
        """``E[X 1_{[lo,hi]}]`` for a centred scalar with variance/scale var."""
        if nu is None:
            return var * (self._norm_pdf(lo, var) - self._norm_pdf(hi, var))
        s = np.sqrt(var)
        c = np.exp(gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
                   - 0.5 * np.log(nu * np.pi))
        if nu == 1.0:
            # Logarithmic antiderivative at exactly one degree of freedom.
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise MomentNotDefinedError("Cauchy mean requires finite limits")
            ua, ub = lo / s, hi / s
            return float(s * c * 0.5 * (np.log1p(ub * ub) - np.log1p(ua * ua)))

        def antider(t):
            if not np.isfinite(t):
                return 0.0 if nu > 1.0 else np.inf
            u = t / s
            return float((1.0 + u * u / nu) ** (-0.5 * (nu - 1.0)))

        va, vb = antider(lo), antider(hi)
        if not (np.isfinite(va) and np.isfinite(vb)):
            raise MomentNotDefinedError("mean does not exist for these limits")
        return float(s * c * (nu / (nu - 1.0)) * (va - vb))

    def _uv_raw_second(self, nu, var, lo, hi):
        """``E[X^2 1_{[lo,hi]}]`` for a centred scalar."""
        if nu is None:
            L = self.prob(None, np.array([[var]]), np.array([lo]), np.array([hi]))
            face = 0.0
            if np.isfinite(lo):
                face += lo * self._norm_pdf(lo, var)
            if np.isfinite(hi):
                face -= hi * self._norm_pdf(hi, var)
            return var * L + var * face
        if nu > 2.0:
            scaled = np.array([[var * nu / (nu - 2.0)]])
            Lt = self.prob(nu - 2.0, scaled, np.array([lo]), np.array([hi]))
            face = 0.0
            for t, sign in ((lo, 1.0), (hi, -1.0)):
                if np.isfinite(t):
                    face += sign * t * self._t_face_constant(1, nu, var, t)
            return var * (nu / (nu - 2.0)) * Lt + var * (nu / (nu - 1.0)) * face
        # Low degrees of freedom with a bounded box: direct quadrature.
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise MomentNotDefinedError("second moment does not exist for these limits")
        s = np.sqrt(var)
        logc = (gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
                - 0.5 * np.log(nu * np.pi) - 0.5 * np.log(var))

        def integrand(x):
            return x * x * np.exp(logc - 0.5 * (nu + 1.0) * np.log1p(x * x / (nu * var)))

        val, _ = quad(integrand, lo, hi, limit=200)
        return float(val)

    # -- multivariate raw moments ----------------------------------------

    def raw_mean(self, nu, sigma, lo, hi):
        """Centred ``(L, E[X 1_box])``."""
        key = self._key("m", nu, sigma, lo, hi)
        hit = self.cache.get(key)
        if hit is not None:
            return hit
        p = sigma.shape[0]
        L = self.prob(nu, sigma, lo, hi)
        if p == 1:
            out = (L, np.array([self._uv_raw_mean(nu, sigma[0, 0], lo[0], hi[0])]))
            self.cache[key] = out
            return out
        face = np.zeros(p)
        for k in range(p):
            for t, sign in ((lo[k], 1.0), (hi[k], -1.0)):
                if not np.isfinite(t):
                    continue
                others, mu_c, disp, df_c, weight = self._face_parts(nu, sigma, k, t)
                if weight == 0.0:
                    continue
                Lc = self.prob(df_c, disp, lo[others] - mu_c, hi[others] - mu_c)
                face[k] += sign * weight * Lc
        pref = 1.0 if nu is None else nu / (nu + p - 2.0)
        out = (L, pref * (sigma @ face))
        self.cache[key] = out
        return out

    def raw_mean_shifted(self, nu, mu, sigma, lo, hi):
        """``(L, E[U 1_box])`` for a joint with location ``mu``."""
        L, m0 = self.raw_mean(nu, sigma, lo - mu, hi - mu)
        return L, mu * L + m0

    def raw_second(self, nu, sigma, lo, hi):
        """Centred ``(L, E[X 1_box], E[X X' 1_box])``; Student-t needs nu > 2."""
        p = sigma.shape[0]
        L, m1 = self.raw_mean(nu, sigma, lo, hi)
        if p == 1:
            M = np.array([[self._uv_raw_second(nu, sigma[0, 0], lo[0], hi[0])]])
            return L, m1, M
        if nu is not None and nu <= 2.0:
            raise MomentNotDefinedError(
                "analytic Student-t second moments require nu > 2")
        W = np.zeros((p, p))
        for k in range(p):
            for t, sign in ((lo[k], 1.0), (hi[k], -1.0)):
                if not np.isfinite(t):
                    continue
                others, mu_c, disp, df_c, weight = self._face_parts(nu, sigma, k, t)
                if weight == 0.0:
                    continue
                Lc, m1c = self.raw_mean_shifted(df_c, mu_c, disp, lo[others], hi[others])
                contrib = np.empty(p)
                contrib[others] = m1c
                contrib[k] = t * Lc
                W[k] += sign * weight * contrib
        if nu is None:
            M = sigma * L + sigma @ W
        else:
            scaled = sigma * (nu / (nu - 2.0))
            Lt = self.prob(nu - 2.0, scaled, lo, hi)
            M = scaled * Lt + (nu / (nu + p - 2.0)) * (sigma @ W)
        return L, m1, 0.5 * (M + M.T)


# ---------------------------------------------------------------------------
# Report pipeline: degenerate reduction, out-of-bounds collapse,
# double-infinite split, then the direct face-identity computation.
# ---------------------------------------------------------------------------

def _embed_vector(dim, idx_parts, vec_parts):
    out = np.empty(dim)
    for idx, vec in zip(idx_parts, vec_parts):
        out[list(idx)] = vec
    return out


def _embed_matrix(dim, blocks):
    out = np.zeros((dim, dim))
    for (rows, cols), mat in blocks.items():
        out[np.ix_(list(rows), list(cols))] = mat
    return out


def _oob_target(joint, tbox, idx):
    """Finite limit each out-of-bounds coordinate collapses onto.

    The collapse treats the block as numerically a point at its near
    limits.  A Student-t coordinate breaks that premise unless its far limit
    lies within ``OOB_T_REL_WIDTH`` (1e-6) of the near limit, relative to
    the near limit's distance from the location: given ``X > c`` the
    overshoot ``X / c`` tends to a Pareto(nu) law as ``c`` grows, so the
    conditional mean, measured from the location, stays a fixed factor past
    the near limit whenever the far limit is of the order of the near one
    (``nu / (nu - 1)`` for an infinite far limit).  Such blocks raise
    ``NumericalError`` instead of returning the boundary law; within the
    tolerance, the collapsed mean is off by less than that relative width.
    Normal kernels collapse whatever the far limit.
    """
    target = np.empty(len(idx))
    for j, i in enumerate(idx):
        lo_i, hi_i = tbox.lower[i], tbox.upper[i]
        if hi_i < joint.xi[i]:
            target[j], far = hi_i, lo_i
        else:
            target[j], far = lo_i, hi_i
        if not np.isfinite(target[j]):
            raise NumericalError("out-of-bounds coordinate has no finite near limit")
        if joint.family != NORMAL and not (
                abs(far - target[j]) <= OOB_T_REL_WIDTH * abs(target[j] - joint.xi[i])):
            raise NumericalError(
                "out-of-bounds Student-t coordinate has a far limit of the order "
                "of its near limit; its overshoot past the near limit does not "
                "vanish, so the block cannot be collapsed onto a point")
    return target


def _scan_out_of_bounds(joint, tbox):
    flagged = []
    scale = np.sqrt(np.diag(joint.omega))
    for i in range(joint.dim):
        lo = (tbox.lower[i] - joint.xi[i]) / scale[i]
        hi = (tbox.upper[i] - joint.xi[i]) / scale[i]
        if _uv_interval_logprob(lo, hi, joint.nu) < OOB_LOG_THRESHOLD:
            flagged.append(i)
    return flagged


def _point_mass_report(dim, point, flags, method, notes=()):
    return MomentReport(
        prob_mass=0.0,
        mean=np.array(point, dtype=float),
        second_moment=np.outer(point, point),
        covariance=np.zeros((dim, dim)),
        existence=flags,
        method=method,
        notes=notes,
    )


_ALL_OOB_NOTE = "all blocks out of bounds; degenerate point mass at the limits"


def _condition_embed(joint, tbox, eng, idx, values, prob, tag, note,
                     force_direct=False):
    """Moments with the coordinates ``idx`` held at ``values``.

    The other coordinates get the truncated moments of the law conditioned
    on that point, embedded next to the held values.  ``prob`` is the
    reported box mass (``None`` takes the conditioned report's), ``tag``
    is appended to its method, and holding every coordinate gives a point
    mass labelled ``note``.

    A held Student-t coordinate is always fully finite: a degenerate one
    has ``lower == upper`` and a collapsed one a far limit within
    ``OOB_T_REL_WIDTH`` of its near limit (see :func:`_oob_target`).  The
    full box counts it as fully finite, while the conditioned law drops it
    and gains a degree of freedom, so ``nu`` plus the fully finite count is
    the same for both and :func:`moment_flags` of the full box equals the
    conditioned report's (normal flags are always true).  The conditioned
    report's existence flags and missing moments therefore carry over
    unchanged.
    """
    idx = np.asarray(idx)
    if idx.size == joint.dim:
        return _point_mass_report(joint.dim, values,
                                  moment_flags(joint.family, joint.nu, tbox),
                                  (tag,), (note,))
    keep = np.setdiff1d(np.arange(joint.dim), idx)
    rep = truncated_mean_cov(conditional(joint, idx, values), tbox.subset(keep),
                             eng.settings, force_direct=force_direct, _engine=eng)
    mean = cov = second = None
    if rep.mean is not None:
        mean = _embed_vector(joint.dim, (keep, idx), (rep.mean, values))
    if rep.covariance is not None:
        cov = _embed_matrix(joint.dim, {(tuple(keep), tuple(keep)): rep.covariance})
        second = cov + np.outer(mean, mean)
    return MomentReport(rep.prob_mass if prob is None else prob, mean, second, cov,
                        rep.existence, rep.method + (tag,), rep.notes)


def truncated_mean_cov(joint: EllipticalJoint, tbox: TruncationBox,
                       settings: RectangleProbSettings = DEFAULT_SETTINGS,
                       *, force_direct: bool = False,
                       _engine: Optional[_Engine] = None) -> MomentReport:
    """Mean and covariance of ``X | lower <= X <= upper``.

    Routes through the degenerate / out-of-bounds / double-infinite paths
    as the box demands, otherwise evaluates the face identities directly.
    ``force_direct`` disables the double-infinite split (used to validate
    that both paths agree).
    """
    if tbox.dim != joint.dim:
        raise SpecError("box dimension does not match the joint")
    eng = _engine if _engine is not None else _Engine(settings)

    # Degenerate coordinates: condition them away.
    deg = np.flatnonzero(tbox.is_degenerate())
    if deg.size:
        return _condition_embed(joint, tbox, eng, deg, tbox.lower[deg], None,
                                "degenerate", "all coordinates degenerate", force_direct)

    # Out-of-bounds coordinates: collapse onto the near limit (the box mass
    # underflows, so the block is numerically a point; Student-t blocks whose
    # far limit is not within OOB_T_REL_WIDTH of the near one raise instead,
    # see _oob_target).
    oob = _scan_out_of_bounds(joint, tbox)
    if oob:
        return _condition_embed(joint, tbox, eng, oob, _oob_target(joint, tbox, oob), 0.0,
                                "out-of-bounds", _ALL_OOB_NOTE, force_direct)

    flags = moment_flags(joint.family, joint.nu, tbox)
    both_inf = np.flatnonzero(tbox.both_infinite())
    if both_inf.size == joint.dim:
        # No truncation anywhere.
        mean = joint.xi.copy() if flags.mean else None
        cov = second = None
        if flags.second:
            factor = 1.0 if joint.family == NORMAL else joint.nu / (joint.nu - 2.0)
            cov = factor * joint.omega
            second = cov + np.outer(mean, mean)
        return MomentReport(1.0, mean, second, cov, flags, ("untruncated",))

    if both_inf.size and not force_direct:
        return _double_infinite_report(joint, tbox, eng, flags, force_direct)

    return _direct_report(joint, tbox, eng, flags)


def _needs_mc_fallback(joint, flags):
    if joint.family == NORMAL or joint.dim == 1:
        return False
    if flags.mean and joint.nu <= 1.0:
        return True
    if flags.second and joint.nu <= 2.0:
        return True
    return False


def _direct_report(joint, tbox, eng, flags):
    if _needs_mc_fallback(joint, flags):
        return _gibbs_report(joint, tbox, eng, flags)
    lo = tbox.lower - joint.xi
    hi = tbox.upper - joint.xi
    sigma = joint.omega
    nu = joint.nu
    if flags.second:
        L, m1, M2 = eng.raw_second(nu, sigma, lo, hi)
    elif flags.mean:
        L, m1 = eng.raw_mean(nu, sigma, lo, hi)
        M2 = None
    else:
        L = eng.prob(nu, sigma, lo, hi)
        m1 = M2 = None
    if L <= 0.0:
        # The QMC estimate underflowed even though no single coordinate was
        # flagged; collapse the whole box like the out-of-bounds case.
        corner = _oob_target(joint, tbox, list(range(joint.dim)))
        return _point_mass_report(joint.dim, corner, flags, ("out-of-bounds",),
                                  ("joint probability underflowed",))
    mean = second = cov = None
    if m1 is not None:
        mean = joint.xi + m1 / L
    if M2 is not None:
        m0 = m1 / L
        second = M2 / L + np.outer(joint.xi, m0) + np.outer(m0, joint.xi) \
            + np.outer(joint.xi, joint.xi)
        second = 0.5 * (second + second.T)
        cov = second - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T)
    return MomentReport(min(max(L, 0.0), 1.0), mean, second, cov, flags, ("direct",))


def _gibbs_report(joint, tbox, eng, flags, n_draws=400_000):
    """Low-degrees-of-freedom fallback served by the Gibbs oracle."""
    from .oracle import estimate_mean_cov, sample_truncated_gibbs

    batch = sample_truncated_gibbs(joint, tbox, n_draws, seed=eng.settings.seed)
    est = estimate_mean_cov(batch)
    L = eng.prob(joint.nu, joint.omega, tbox.lower - joint.xi, tbox.upper - joint.xi)
    mean = est["mean"].value if flags.mean else None
    cov = est["cov"].value if flags.second else None
    second = cov + np.outer(mean, mean) if flags.second else None
    stderr = {"mean": est["mean"].std_error, "cov": est["cov"].std_error}
    return MomentReport(min(max(L, 0.0), 1.0), mean, second, cov, flags,
                        ("mc-gibbs",), ("moments estimated by Gibbs sampling",),
                        mc_stderr=stderr)


def omega_12(block_joint: EllipticalJoint, block_box: TruncationBox,
             settings: RectangleProbSettings = DEFAULT_SETTINGS,
             *, _engine: Optional[_Engine] = None) -> float:
    """Expected conditional-scale inflation of an untruncated block.

    For the Student-t kernel this is the ratio of two rectangle
    probabilities: the truncated block evaluated under a dispersion scaled
    by ``nu / (nu - 2)`` with ``nu - 2`` degrees of freedom, against the
    plain block probability, times ``nu / (nu - 2)``.  Equals one for the
    normal kernel; undefined for ``nu <= 2``.  Both probabilities also
    appear in the block's own moment computation, so a shared engine
    recycles them.
    """
    if block_joint.family == NORMAL:
        return 1.0
    nu = block_joint.nu
    if nu <= 2.0:
        raise MomentNotDefinedError("conditional-scale constant requires nu > 2")
    eng = _engine if _engine is not None else _Engine(settings)
    lo = block_box.lower - block_joint.xi
    hi = block_box.upper - block_joint.xi
    num = eng.prob(nu - 2.0, block_joint.omega * (nu / (nu - 2.0)), lo, hi)
    den = eng.prob(nu, block_joint.omega, lo, hi)
    if den <= 0.0:
        raise NumericalError("block probability underflowed in omega_12")
    return float((nu / (nu - 2.0)) * num / den)


def _double_infinite_report(joint, tbox, eng, flags, force_direct):
    """Split off coordinates with two infinite limits and reassemble."""
    idx1 = np.flatnonzero(tbox.both_infinite())
    idx2 = np.flatnonzero(~tbox.both_infinite())
    sub2 = marginal(joint, idx2)
    rep2 = truncated_mean_cov(sub2, tbox.subset(idx2), eng.settings,
                              force_direct=force_direct, _engine=eng)
    dim = joint.dim
    omega = joint.omega
    o22 = omega[np.ix_(idx2, idx2)]
    o12 = omega[np.ix_(idx1, idx2)]
    o11 = omega[np.ix_(idx1, idx1)]
    xi1 = joint.xi[idx1]
    xi2 = joint.xi[idx2]

    mean = None
    if flags.mean and rep2.mean is not None:
        mu2 = rep2.mean
        mean1 = xi1 + o12 @ np.linalg.solve(o22, mu2 - xi2)
        mean = _embed_vector(dim, (idx1, idx2), (mean1, mu2))

    cov = second = None
    if flags.second and rep2.covariance is not None:
        s22 = rep2.covariance
        gain = np.linalg.solve(o22, o12.T).T
        if joint.family == NORMAL:
            w = 1.0
        elif joint.nu > 2.0:
            w = omega_12(sub2, tbox.subset(idx2), eng.settings, _engine=eng)
        else:
            # nu <= 2 but the moment exists thanks to finite coordinates:
            # use the equivalent trace form of the expectation directly.
            centred = s22 + np.outer(mu2 - xi2, mu2 - xi2)
            r2 = idx2.size
            w = (joint.nu + float(np.trace(np.linalg.solve(o22, centred)))) \
                / (joint.nu + r2 - 2.0)
        c11 = w * (o11 - gain @ o12.T) + gain @ s22 @ gain.T
        c12 = gain @ s22
        cov = _embed_matrix(dim, {
            (tuple(idx1), tuple(idx1)): c11,
            (tuple(idx1), tuple(idx2)): c12,
            (tuple(idx2), tuple(idx1)): c12.T,
            (tuple(idx2), tuple(idx2)): s22,
        })
        cov = 0.5 * (cov + cov.T)
        second = cov + np.outer(mean, mean)
    return MomentReport(rep2.prob_mass, mean, second, cov, flags,
                        rep2.method + ("double-infinite",), rep2.notes)


def moments_with_double_infinite(joint: EllipticalJoint, tbox: TruncationBox,
                                 settings: RectangleProbSettings = DEFAULT_SETTINGS,
                                 ) -> MomentReport:
    """Mean/covariance via the split over doubly infinite coordinates.

    Requires at least one coordinate with limits ``(-inf, +inf)``; the
    truncated moments are integrated only over the complementary block.
    """
    if not np.any(tbox.both_infinite()):
        raise SpecError("no coordinate has two infinite limits")
    return truncated_mean_cov(joint, tbox, settings)


def moments_out_of_bounds(joint: EllipticalJoint, tbox: TruncationBox,
                          partition: IndexPartition,
                          settings: RectangleProbSettings = DEFAULT_SETTINGS,
                          ) -> MomentReport:
    """Mean/covariance when the ``set_two`` block's box mass underflows.

    The block collapses onto its finite near limits; the ``set_one`` block
    is computed as truncated moments of the law conditioned on that point.
    A Student-t block whose far limit is not within ``OOB_T_REL_WIDTH`` of
    its near limit (see :func:`_oob_target`) raises ``NumericalError``.
    """
    idx2 = list(partition.set_two)
    if not idx2:
        raise SpecError("out-of-bounds partition must name a nonempty block")
    return _condition_embed(joint, tbox, _Engine(settings), idx2,
                            _oob_target(joint, tbox, idx2), 0.0, "out-of-bounds",
                            _ALL_OOB_NOTE)


def tmvn_mean_cov(joint: EllipticalJoint, tbox: TruncationBox,
                  settings: RectangleProbSettings = DEFAULT_SETTINGS) -> MomentReport:
    """Truncated-normal mean and covariance (normal kernel required)."""
    if joint.family != NORMAL:
        raise SpecError("tmvn_mean_cov requires a normal kernel")
    return truncated_mean_cov(joint, tbox, settings)


def tmvt_mean_cov(joint: EllipticalJoint, tbox: TruncationBox,
                  settings: RectangleProbSettings = DEFAULT_SETTINGS) -> MomentReport:
    """Truncated Student-t mean and covariance with existence gating."""
    if joint.family != STUDENT_T:
        raise SpecError("tmvt_mean_cov requires a Student-t kernel")
    return truncated_mean_cov(joint, tbox, settings)


# ---------------------------------------------------------------------------
# Arbitrary product moments for the normal kernel: a dimension recursion
# relating an order-k moment to order-(k-1) moments and face terms.
# ---------------------------------------------------------------------------

class _ProductMomentProblem:
    def __init__(self, eng: _Engine, mu, sigma, lo, hi):
        self.eng = eng
        self.mu = mu
        self.sigma = sigma
        self.lo = lo
        self.hi = hi
        self.dim = mu.size
        self._memo: dict = {}
        self._faces: dict = {}

    def prob(self):
        return self.eng.prob(None, self.sigma, self.lo - self.mu, self.hi - self.mu)

    def face(self, j, t):
        key = (j, t)
        hit = self._faces.get(key)
        if hit is not None:
            return hit
        others, mu_c, schur, _, _ = self.eng._face_parts(None, self.sigma, j,
                                                         t - self.mu[j])
        sub = _ProductMomentProblem(self.eng, self.mu[others] + mu_c, schur,
                                    self.lo[others], self.hi[others])
        self._faces[key] = sub
        return sub

    def raw(self, k: tuple) -> float:
        """Unnormalised ``E[X^k 1_box]``."""
        if self.dim == 0:
            return 1.0
        hit = self._memo.get(k)
        if hit is not None:
            return hit
        if sum(k) == 0:
            val = self.prob()
            self._memo[k] = val
            return val
        i = next(idx for idx, ki in enumerate(k) if ki > 0)
        k1 = list(k)
        k1[i] -= 1
        k1 = tuple(k1)
        val = self.mu[i] * self.raw(k1)
        for j in range(self.dim):
            term = 0.0
            if k1[j] > 0:
                k2 = list(k1)
                k2[j] -= 1
                term += k1[j] * self.raw(tuple(k2))
            k_rest = tuple(kv for idx, kv in enumerate(k1) if idx != j)
            a_j, b_j = self.lo[j], self.hi[j]
            if np.isfinite(a_j):
                dens = _Engine._norm_pdf(a_j - self.mu[j], self.sigma[j, j])
                if dens > 0.0:
                    term += (a_j ** k1[j]) * dens * self.face(j, a_j).raw(k_rest)
            if np.isfinite(b_j):
                dens = _Engine._norm_pdf(b_j - self.mu[j], self.sigma[j, j])
                if dens > 0.0:
                    term -= (b_j ** k1[j]) * dens * self.face(j, b_j).raw(k_rest)
            val += self.sigma[i, j] * term
        self._memo[k] = val
        return val


def tmvn_product_moment(joint: EllipticalJoint, tbox: TruncationBox, order,
                        settings: RectangleProbSettings = DEFAULT_SETTINGS,
                        order_cap: int = DEFAULT_ORDER_CAP) -> float:
    """``E[X^order | lower <= X <= upper]`` for the normal kernel.

    ``order`` is a vector of per-coordinate exponents; the empty order
    returns one exactly.
    """
    if joint.family != NORMAL:
        raise SpecError("tmvn_product_moment requires a normal kernel")
    if tbox.dim != joint.dim:
        raise SpecError("box dimension does not match the joint")
    k = _check_order(order, joint.dim, cap=order_cap)
    if k.sum() == 0:
        return 1.0
    eng = _Engine(settings)

    # Degenerate coordinates contribute fixed powers of their pinned value.
    deg = np.flatnonzero(tbox.is_degenerate())
    factor = 1.0
    if deg.size:
        values = tbox.lower[deg]
        factor = float(np.prod(values ** k[deg]))
        if deg.size == joint.dim:
            return factor
        keep = np.array([i for i in range(joint.dim) if i not in set(deg.tolist())])
        sub = conditional(joint, deg, values)
        prob = _ProductMomentProblem(eng, sub.xi, sub.omega,
                                     tbox.lower[keep], tbox.upper[keep])
        k = k[keep]
    else:
        prob = _ProductMomentProblem(eng, joint.xi, joint.omega,
                                     tbox.lower, tbox.upper)
    L = prob.raw(tuple(0 for _ in range(prob.dim)))
    if L <= 0.0:
        raise NumericalError("box probability underflowed; no product-moment path")
    return float(factor * prob.raw(tuple(int(v) for v in k)) / L)
