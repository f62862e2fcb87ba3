"""Moments of rectangle-truncated multivariate normal and Student-t vectors.

One memoised recursion (:class:`_Moments`) gives every product moment over
a box, for both kernels.  Integrating the kernel's gradient identity
against ``x^k`` over the box by parts turns an order-(k+1) moment into
order-(k-1) moments under the gradient law and order-k moments on the box
faces, one dimension down, down to rectangle probabilities.  For the
Student-t kernel the gradient law has ``nu - 2`` degrees of freedom and
each face law ``nu - 1``; ``nu`` above the total order keeps every node
well defined.  The root holds one table of the recursion's nodes, keyed on
their degrees of freedom and the set of coordinates fixed with their
values.  The key is exact: a face law does not depend on the order in
which its coordinates were fixed, and the face of a gradient law is the
gradient law of the face.  So each distinct law is integrated once,
although a second-level face is reached through ``(k, j)`` and ``(j, k)``.
Below four dimensions a rectangle probability costs mostly numpy's per-call
overhead, so a node builds all its faces in one array step, on its first
face: their laws and weights from one broadcast over its coordinates.  Of
the faces new to the table, those that keep one coordinate get their masses
on Python floats and those that keep two in one stacked exact call, with
one correlation per row; each mass keeps the bits of its own call.  A face
of three or more coordinates keeps a call of its own: the nested rule that
integrates it picks its outer coordinate from the masses summed over a
stack's rows, so a stack would move its bits.
The same recursion serves the mean and covariance of
:func:`truncated_mean_cov`, :func:`tmvn_product_moment` and the product
moments of ``tse.selection.tse_moment``.  A law of one coordinate takes
its box mass from the hold, and, where its recursion needs no quadrature
(:func:`_recursion_closes` at the highest order its existence flags ask
for), a scalar route on Python floats (:func:`_uv_report`), with the same
bits.

Extreme configurations hold coordinates at a point and condition the rest
of the law on it.  One helper (:func:`_held`) picks them, in this order,
for every moment:

* degenerate coordinates (``lower == upper``), at their value;
* coordinates narrower than ``NARROW_WIDTH`` standard scales, at their
  midpoint (also tagged ``degenerate``);
* coordinates out of bounds, at their near limit (a Student-t coordinate
  whose far limit is not close to the near one raises instead, see
  :func:`_oob_target`): those whose marginal box probability is below
  ``OOB_MASS`` (1e-250), or below 1e-11 of the cdf at the interval's inner
  limit, where the direct route's cdf differences cancel;
* when the whole box mass underflows though no single coordinate's does,
  the coordinate with the least marginal mass, at its near limit.

Coordinates unbounded on both sides are split off the mean and covariance
and reassembled from the truncated block via the conditional-scale
constant, integrating only over the truncated block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._special import gammaln
from .elliptical import (
    DEFAULT_SETTINGS,
    NORMAL,
    STUDENT_T,
    EllipticalJoint,
    RectangleProbSettings,
    TruncationBox,
    _conditional_law,
    conditional,
    marginal,
)
from .errors import MomentNotDefinedError, NumericalError, SpecError
from .qmc import _ROUND, _standardise, _uv_prob, rect_prob_qmc, rect_probs

__all__ = [
    "ExistenceFlags",
    "MomentReport",
    "existence_check",
    "moment_flags",
    "tmvn_mean_cov",
    "tmvt_mean_cov",
    "truncated_mean_cov",
    "tmvn_product_moment",
]

# Marginal box probability below which a coordinate counts as out of bounds
# in double precision, and its log.
OOB_MASS = 1e-250
OOB_LOG_THRESHOLD = float(np.log(OOB_MASS))
# Largest far-to-near width, relative to the near limit's distance from the
# location, at which an out-of-bounds Student-t coordinate still collapses.
OOB_T_REL_WIDTH = 1e-6
# Standardised width below which a coordinate is held at its midpoint.  For
# N(0, 1) on [1, 1 + w] the face recursion loses about 1.2e-16 / w of the
# mean to cancellation and the midpoint errs by about w**2 / 12; the two
# cross near w = 1e-5.
NARROW_WIDTH = 1e-5
# Draws of the Gibbs fallback of the direct route.
_GIBBS_DRAWS = 400_000

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
    paths produced the numbers ("direct", "untruncated",
    "double-infinite", "out-of-bounds", "degenerate", "mc-gibbs").
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


def _recursion_closes(nu, order) -> bool:
    """Whether the face recursion reaches moments up to ``order`` through
    rectangle probabilities alone: the normal kernel (``nu`` None), or
    ``nu`` above the order, which keeps every node's degrees of freedom
    above its own order.  Below that, only a one-dimensional finite box is
    served, by quadrature."""
    return nu is None or nu > order


# ---------------------------------------------------------------------------
# Face identity.  Fixing x_k = t leaves a law one dimension down times a
# one-dimensional weight.
# ---------------------------------------------------------------------------

def _norm_pdf(t, var):
    """Normal face weight: the density of N(0, var) at ``t``; arrays broadcast."""
    return np.exp(-0.5 * t * t / var) / np.sqrt(2.0 * np.pi * var)


def _t_face_constant(p, nu, var_k, t):
    """Scaled Student-t face weight for a p-dim problem at ``x_k = t``;
    arrays broadcast, and the ``gammaln`` constant is computed once.

    This is the one-dimensional factor multiplying the (p-1)-dim
    conditional rectangle probability with ``nu - 1`` degrees of
    freedom; it decays like ``|t|^{-(nu-1)}``.
    """
    log_k = (
        gammaln(0.5 * (nu + p)) + gammaln(0.5 * (nu - 1.0))
        - gammaln(0.5 * nu) - gammaln(0.5 * (nu + p - 2.0))
        - 0.5 * np.log(np.pi) + 0.5 * (nu - 2.0) * np.log(nu)
    )
    return np.exp(log_k - 0.5 * np.log(var_k)
                  - 0.5 * (nu - 1.0) * np.log(nu + t * t / var_k))


def _lower_order(k, j):
    return k[:j] + (k[j] - 1,) + k[j + 1:]


def _face_masses(nodes, sigma, lo, hi, df):
    """Set the masses of face nodes whose laws keep one or two coordinates
    (those not unbounded on both sides), each the value its own
    :meth:`_Moments.mass` would give: one coordinate on Python floats
    (:func:`_uv_prob`), two in one stacked :func:`rect_probs` call with one
    correlation per row.  ``sigma``, ``lo`` and ``hi`` stack the nodes'
    dispersions and limits centred on their locations.  Nodes of other laws
    keep their own calls.  One-coordinate masses are not stacked: through
    :func:`rect_probs` at ``n = 1`` they took longer than ``_uv_prob`` per
    face, at the four rows a node has at most."""
    kept = ~(np.isinf(lo) & np.isinf(hi) & (lo < hi))
    # The faces of one node keep the same number of coordinates.
    n = int(kept[0].sum())
    if n not in (1, 2):
        return
    k = np.nonzero(kept)[1].reshape(-1, n)
    at = np.arange(len(nodes))[:, None]
    sigma, lo, hi = sigma[at[:, :, None], k[:, :, None], k[:, None, :]], lo[at, k], hi[at, k]
    if n == 1:
        for node, v, a, b in zip(nodes, sigma.ravel().tolist(), lo.ravel().tolist(),
                                 hi.ravel().tolist()):
            node._mass = _uv_prob(v, a, b, df)[0]
        return
    prob, _ = rect_probs(*_standardise(sigma, lo, hi), df)
    for node, pr in zip(nodes, np.clip(prob, 0.0, 1.0).tolist()):
        node._mass = pr


class _Moments:
    """Unnormalised product moments ``E[X^k 1_box]`` of one law on one box.

    The law has location ``mu``, dispersion ``sigma`` and ``nu`` degrees of
    freedom (``None`` for the normal kernel); the box is ``[lo, hi]``.  The
    kernel's gradient identity ``(x - mu) f = -w Sigma grad g``, integrated
    against ``x^k`` by parts, gives every order ``|k| + 1`` moment from
    order ``|k| - 1`` moments under ``g`` and order ``|k|`` moments on the
    box faces, one dimension down.  Normal kernel: ``g = f`` and every
    weight is one.  Student-t: ``g`` is the t(nu - 2) law with dispersion
    ``nu Sigma / (nu - 2)`` and weight ``nu / (nu - 2)``, and the face terms
    carry ``nu / (nu + p - 2)`` and laws with ``nu - 1`` degrees of freedom.
    Where the recursion ends is :func:`_recursion_closes`.  Each node
    memoises its moments and its box probability (:meth:`mass`).

    The root's table holds every node of the recursion once, keyed on
    ``(nu, fixed)``: its degrees of freedom and the set of (original
    coordinate, value) pairs its faces fixed.  The key is exact, as the law
    on a face does not depend on the order in which its coordinates were
    fixed, and the face of a gradient law is the gradient law of the face
    (at ``nu - 3`` both have dispersion
    ``schur (nu + t**2 / s_kk) / (nu - 3)``).  So a second-level face
    reached through ``(k, j)`` and ``(j, k)`` is built and integrated once.

    A node's first :meth:`face` builds all its faces in one array step
    (:meth:`_expand`): their laws and weights from one broadcast, and the
    masses of those new to the table that keep one or two coordinates
    (:func:`_face_masses`), each with the bits of its own :meth:`mass`.
    Faces of three or more kept coordinates keep one call each: the nested
    rule picks its outer coordinate from the masses summed over a stack's
    rows, so a stack would move their bits.  The caller empties the table
    once the root's result is assembled: it is the one reference every node
    holds to the others, so no reference cycle is left among the nodes.
    """

    def __init__(self, settings: RectangleProbSettings, nu, mu, sigma, lo, hi,
                 coords=None, fixed=frozenset(), table=None):
        self.settings, self.nu, self.mu, self.sigma = settings, nu, mu, sigma
        self.lo, self.hi = lo, hi
        self.dim = mu.size
        self.coords = tuple(range(self.dim)) if coords is None else coords
        self.fixed = fixed
        self.table = {} if table is None else table
        self._mass: Optional[float] = None
        self._up: dict = {}
        self._faces: Optional[dict] = None
        self._down = None

    def mass(self) -> float:
        """Box probability on limits centred on ``mu``; exact where ``qmc._exact`` holds."""
        if self._mass is None:
            lo, hi = self.lo - self.mu, self.hi - self.mu
            keep = np.flatnonzero(~(np.isinf(lo) & np.isinf(hi) & (lo < hi)))
            # Face probabilities keep the single-pass budget: the assembled
            # moments are insensitive to per-face refinement.
            self._mass, _ = rect_prob_qmc(
                self.sigma[np.ix_(keep, keep)], lo[keep], hi[keep], df=self.nu,
                max_points=self.settings.max_points,
                num_shifts=self.settings.num_shifts,
                seed=self.settings.seed)
        return self._mass

    def raw(self, k: tuple) -> float:
        if self.dim == 0:
            return 1.0
        if not any(k):
            return self.mass()
        i = next(idx for idx, ki in enumerate(k) if ki > 0)
        return self.up(_lower_order(k, i))[i]

    def down(self):
        """The gradient law: the node itself for the normal kernel."""
        if self.nu is None:
            return self
        if self._down is None:
            nu = self.nu
            key = (nu - 2.0, self.fixed)
            self._down = self.table.get(key)
            if self._down is None:
                self._down = self.table[key] = _Moments(
                    self.settings, nu - 2.0, self.mu, self.sigma * (nu / (nu - 2.0)),
                    self.lo, self.hi, self.coords, self.fixed, self.table)
        return self._down

    def face(self, j, t):
        """The law on the face ``x_j = t`` and its weight."""
        if self._faces is None:
            self._faces = self._expand()
        return self._faces[(j, t)]

    def _expand(self):
        """Every face of the node, keyed on ``(j, t)`` in the order of
        :meth:`up`: the law on it and its weight.  One broadcast gives every
        coordinate's Schur complement, and each element of a face's
        location, dispersion and weight takes the operations of a face built
        alone.  A face already in the table is taken from it; new faces of
        nonzero weight go to :func:`_face_masses`."""
        p, nu, sigma, mu = self.dim, self.nu, self.sigma, self.mu
        pairs = [(j, t) for j, limits in enumerate(zip(self.lo.tolist(), self.hi.tolist()))
                 for t in limits if math.isfinite(t)]
        j = np.array([j for j, _ in pairs])
        t_c = np.array([t for _, t in pairs]) - mu[j]
        diag = np.diagonal(sigma)
        var = diag[j]
        schur = sigma - sigma.T[:, :, None] * sigma[:, None, :] / diag[:, None, None]
        schur = 0.5 * (schur + schur.transpose(0, 2, 1))
        o = np.array([[i for i in range(p) if i != jj] for jj, _ in pairs], dtype=int)
        at = np.arange(len(pairs))[:, None]
        loc = (mu + sigma.T[j] * (t_c / var)[:, None])[at, o]
        disp = schur[j[:, None, None], o[:, :, None], o[:, None, :]]
        if nu is None:
            df, weight = None, _norm_pdf(t_c, var)
        else:
            df, weight = nu - 1.0, _t_face_constant(p, nu, var, t_c)
            disp = disp * ((nu + t_c * t_c / var) / (nu - 1.0))[:, None, None]
        lo, hi = self.lo[o], self.hi[o]
        faces, new = {}, []
        for i, ((jj, t), oi, w) in enumerate(zip(pairs, o.tolist(), weight.tolist())):
            fixed = self.fixed | {(self.coords[jj], t)}
            sub = self.table.get((df, fixed))
            if sub is None:
                sub = self.table[(df, fixed)] = _Moments(
                    self.settings, df, loc[i], disp[i], lo[i], hi[i],
                    tuple(self.coords[k] for k in oi), fixed, self.table)
                if w != 0.0:
                    new.append(i)
            faces[(jj, t)] = (sub, w)
        if new:
            _face_masses([faces[pairs[i]][0] for i in new], disp[new],
                         lo[new] - loc[new], hi[new] - loc[new], df)
        return faces

    def up(self, k: tuple) -> np.ndarray:
        """``E[X^(k + e_i) 1_box]`` for every coordinate ``i``."""
        hit = self._up.get(k)
        if hit is not None:
            return hit
        nu, p = self.nu, self.dim
        if not _recursion_closes(nu, sum(k) + 1):
            self._up[k] = self._quad(sum(k) + 1)
            return self._up[k]
        inner = np.zeros(p)
        faces = np.zeros(p)
        for j in range(p):
            if k[j]:
                inner[j] = k[j] * self.down().raw(_lower_order(k, j))
            rest = k[:j] + k[j + 1:]
            for t, sign in ((self.lo[j], 1.0), (self.hi[j], -1.0)):
                if not np.isfinite(t):
                    continue
                sub, weight = self.face(j, t)
                if weight == 0.0:
                    continue
                faces[j] += sign * weight * (t ** k[j] * sub.raw(rest))
        pref = 1.0 if nu is None else nu / (nu + p - 2.0)
        out = self.mu * self.raw(k) + pref * (self.sigma @ faces)
        if any(k):
            out = out + self.down().sigma @ inner
        self._up[k] = out
        return out

    def _quad(self, order):
        """One-dimensional ``E[X^order 1_box]`` for ``nu <= order``."""
        if self.dim != 1 or not np.all(np.isfinite(self.lo) & np.isfinite(self.hi)):
            raise MomentNotDefinedError(
                f"analytic Student-t moments of order {order} require nu > {order}")
        # This import loads all of scipy.special, which tse._special avoids;
        # no job example takes this route.
        from scipy.integrate import quad

        nu, var, mu = self.nu, self.sigma[0, 0], self.mu[0]
        logc = (gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
                - 0.5 * np.log(nu * np.pi) - 0.5 * np.log(var))

        def integrand(x):
            return x ** order * np.exp(
                logc - 0.5 * (nu + 1.0) * np.log1p((x - mu) ** 2 / (nu * var)))

        val, _ = quad(integrand, self.lo[0], self.hi[0], limit=200)
        return np.array([val])


# ---------------------------------------------------------------------------
# Report pipeline: held coordinates, the double-infinite split, then the
# direct face-identity computation.
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


def _held(joint, tbox, masses):
    """The coordinates a moment holds at a point: ``(idx, values, tag)`` or ``None``.

    Degenerate coordinates are held at their value; otherwise coordinates
    narrower than ``NARROW_WIDTH`` standard scales, at their midpoint, also
    tagged ``degenerate``; otherwise coordinates out of bounds, at their near
    limit: those whose marginal box mass is below ``OOB_MASS`` (1e-250), or
    below 1e-11 of the cdf at the interval's inner limit.  Near limits come
    from :func:`_oob_target`, which refuses Student-t blocks it cannot
    collapse.

    Each coordinate's mass and the cdf at its inner limit (the reflected
    upper limit) come from one :func:`_uv_prob` call, as the mass and its
    rounding floor, ``_ROUND`` times that cdf.  The list ``masses`` receives
    the masses, so that a one-coordinate root integrates its box once and a
    box whose mass underflows holds the coordinate with the least of them.
    """
    deg = np.flatnonzero(tbox.is_degenerate())
    if deg.size:
        return deg, tbox.lower[deg], "degenerate"
    var = np.diag(joint.omega)
    width = (tbox.upper - tbox.lower) / np.sqrt(var)
    narrow = np.flatnonzero(width < NARROW_WIDTH)
    if narrow.size:
        return narrow, 0.5 * (tbox.lower[narrow] + tbox.upper[narrow]), "degenerate"
    mass, out = [], []
    for v, a, b in zip(var.tolist(), (tbox.lower - joint.xi).tolist(),
                       (tbox.upper - joint.xi).tolist()):
        m, floor = _uv_prob(v, a, b, joint.nu)
        mass.append(m)
        # A far interval below 1e-11 of the cdf at its inner limit is held
        # too.  The cutoff is load-bearing: the direct route's cdf
        # differences cancel on such far, relatively narrow boxes (without
        # it, t5 on [1e13, 1e13 + 1] has a mean 5.6e10 below the box).
        out.append(m < OOB_MASS or m < 1e-11 / _ROUND * floor)
    masses.extend(mass)
    idx = np.flatnonzero(out)
    if not idx.size:
        return None
    return idx, _oob_target(joint, tbox, idx), "out-of-bounds"


_ALL_HELD_NOTE = {
    "degenerate": "all coordinates degenerate",
    "out-of-bounds": "all blocks out of bounds; degenerate point mass at the limits",
}
_NARROW_NOTE = f"coordinates narrower than {NARROW_WIDTH:g} standard scales held at their midpoints"


def _condition_embed(joint, tbox, settings, held):
    """Moments with the coordinates ``idx`` held at ``values``; ``held`` is
    ``(idx, values, tag)`` as :func:`_held` returns it.

    The other coordinates get the truncated moments of the law conditioned
    on that point, embedded next to the held values, and ``tag`` is
    appended to the method.  Holding every coordinate gives a point mass.
    A degenerate hold reports the conditioned box mass, a narrow one (held
    coordinates of positive width) the box's own rectangle probability and
    a note; an out-of-bounds one reports zero, as the held block's mass
    underflows.

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
    idx, values, tag = held
    prob, notes = None, ()
    if tag == "degenerate" and tbox.lower[idx[0]] < tbox.upper[idx[0]]:
        prob, notes = min(_root(joint, tbox, settings).mass(), 1.0), (_NARROW_NOTE,)
    if idx.size == joint.dim:
        point = np.array(values, dtype=float)
        return MomentReport(0.0 if prob is None else prob, point, np.outer(point, point),
                            np.zeros((joint.dim, joint.dim)),
                            moment_flags(joint.family, joint.nu, tbox),
                            (tag,), (_ALL_HELD_NOTE[tag],) + notes)
    keep = np.setdiff1d(np.arange(joint.dim), idx)
    rep = truncated_mean_cov(conditional(joint, idx, values), tbox.subset(keep), settings)
    mean = cov = second = None
    if rep.mean is not None:
        mean = _embed_vector(joint.dim, (keep, idx), (rep.mean, values))
    if rep.covariance is not None:
        cov = _embed_matrix(joint.dim, {(tuple(keep), tuple(keep)): rep.covariance})
        second = cov + np.outer(mean, mean)
    if prob is None:
        prob = rep.prob_mass if tag == "degenerate" else 0.0
    return MomentReport(prob, mean, second, cov, rep.existence, rep.method + (tag,),
                        rep.notes + notes)


def truncated_mean_cov(joint: EllipticalJoint, tbox: TruncationBox,
                       settings: RectangleProbSettings = DEFAULT_SETTINGS) -> MomentReport:
    """Mean and covariance of ``X | lower <= X <= upper``.

    Holds the coordinates :func:`_held` picks and conditions the rest on
    them, splits off doubly infinite coordinates, and otherwise evaluates
    the face identities directly (:func:`_direct_report`).
    """
    if tbox.dim != joint.dim:
        raise SpecError("box dimension does not match the joint")
    masses = []
    held = _held(joint, tbox, masses)
    if held is not None:
        return _condition_embed(joint, tbox, settings, held)

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

    if both_inf.size:
        return _double_infinite_report(joint, tbox, settings, flags, masses)

    return _direct_report(joint, tbox, settings, flags, masses)


def _root(joint, tbox, settings):
    """The recursion for ``joint`` on ``tbox``, run about the location."""
    return _Moments(settings, joint.nu, np.zeros(joint.dim), joint.omega,
                    tbox.lower - joint.xi, tbox.upper - joint.xi)


def _uv_report(joint, tbox, flags, L):
    """:func:`_direct_report` of one coordinate on Python floats, given its
    box mass ``L`` from the hold (at least ``OOB_MASS``, or the hold would
    have taken the coordinate), where the recursion calls no
    ``_Moments._quad``: each step repeats its operations in its order, with
    its ufuncs."""
    nu, var, xi = joint.nu, float(joint.omega[0, 0]), float(joint.xi[0])
    lo, hi = float(tbox.lower[0]) - xi, float(tbox.upper[0]) - xi
    f1 = f2 = 0.0  # the face sums of the first and second moment
    for t, sign in ((lo, 1.0), (hi, -1.0)):
        if not math.isfinite(t):
            continue
        w = float(_norm_pdf(t, var) if nu is None else _t_face_constant(1, nu, var, t))
        if w != 0.0:
            f1, f2 = f1 + sign * w, f2 + sign * w * t
    pref = 1.0 if nu is None else nu / (nu + 1.0 - 2.0)
    m1 = 0.0 + pref * (var * f1)
    m0 = m1 / L
    mean, second, cov = np.array([xi + m0]), None, None
    if flags.second:
        sd = var if nu is None else var * (nu / (nu - 2.0))  # the gradient law's variance
        down = L if nu is None else _uv_prob(sd, lo, hi, nu - 2.0)[0]
        m2 = 0.0 * m1 + pref * (var * f2) + sd * down
        s = 0.5 * (m2 + m2) / L + xi * m0 + m0 * xi + xi * xi
        s = 0.5 * (s + s)
        c = s - mean[0] * mean[0]
        second, cov = np.array([[s]]), np.array([[0.5 * (c + c)]])
    return MomentReport(L, mean, second, cov, flags, ("direct",))


def _direct_report(joint, tbox, settings, flags, masses=()):
    """The report of the face recursion, run about ``xi`` (the origin enters
    every face limit, so it fixes the last bits), or, for one coordinate
    whose box mass the hold gives in ``masses``, :func:`_uv_report`'s where
    the recursion closes.  Where it does not, one coordinate takes
    quadrature, with the hold's mass, and more take :func:`_gibbs_report`."""
    if len(masses) == 1 and _recursion_closes(joint.nu, 1 + flags.second):
        return _uv_report(joint, tbox, flags, masses[0])
    top = _root(joint, tbox, settings)
    if len(masses) == 1:
        top._mass = masses[0]
    L = top.mass()
    if L <= 0.0:
        # The box mass underflowed though no single coordinate's did: hold
        # the coordinate with the least marginal mass and condition on it.
        idx = np.array([np.argmin(masses)])
        held = idx, _oob_target(joint, tbox, idx), "out-of-bounds"
        rep = _condition_embed(joint, tbox, settings, held)
        return replace(rep, notes=rep.notes + ("joint probability underflowed",))
    if joint.dim > 1 and not _recursion_closes(joint.nu, flags.mean + flags.second):
        return _gibbs_report(joint, tbox, settings, flags, L)
    p = joint.dim
    zero = (0,) * p
    mean = second = cov = None
    try:
        if flags.mean:
            m0 = top.up(zero) / L
        if flags.second:
            M2 = np.column_stack([top.up(tuple(int(i == j) for i in range(p)))
                                  for j in range(p)])
    finally:
        top.table.clear()
    if flags.mean:
        mean = joint.xi + m0
    if flags.second:
        M2 = 0.5 * (M2 + M2.T)
        second = M2 / L + np.outer(joint.xi, m0) + np.outer(m0, joint.xi) \
            + np.outer(joint.xi, joint.xi)
        second = 0.5 * (second + second.T)
        cov = second - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T)
    return MomentReport(min(L, 1.0), mean, second, cov, flags, ("direct",))


def _gibbs_report(joint, tbox, settings, flags, L):
    """Low-degrees-of-freedom fallback served by the Gibbs oracle; ``L`` is
    the box mass.  It reports the flagged moments and their errors only."""
    from .oracle import estimate_mean_cov, sample_truncated_gibbs

    batch = sample_truncated_gibbs(joint, tbox, _GIBBS_DRAWS, seed=settings.seed)
    est = estimate_mean_cov(batch)
    mean = est["mean"].value if flags.mean else None
    cov = est["cov"].value if flags.second else None
    second = cov + np.outer(mean, mean) if flags.second else None
    stderr = {"mean": est["mean"].std_error}
    if flags.second:
        stderr["cov"] = est["cov"].std_error
    return MomentReport(min(max(L, 0.0), 1.0), mean, second, cov, flags,
                        ("mc-gibbs",), ("moments estimated by Gibbs sampling",),
                        mc_stderr=stderr)


def _double_infinite_report(joint, tbox, settings, flags, masses):
    """Split off coordinates with two infinite limits and reassemble.

    The block takes the direct route, as the full box has no degenerate or
    out-of-bounds coordinate, with the ``masses`` that the full box's hold
    gave its coordinates.  The conditional-scale weight of the free
    coordinates is the expectation of ``(nu + d2) / (nu + r2 - 2)`` over
    the truncated block, ``d2`` being the block's Mahalanobis distance and
    ``r2`` its dimension.  The trace form needs only the block's mean and
    covariance.  For ``nu > 2`` it equals
    ``nu / (nu - 2) * P_{nu-2}(block) / P_nu(block)``, where ``P_{nu-2}`` is
    the block probability under ``nu - 2`` degrees of freedom and
    dispersion ``nu Omega22 / (nu - 2)`` (the root's gradient law).  The
    trace form also holds where the recursion does not close
    (:func:`_recursion_closes`), where the direct route on the full box
    falls back to Gibbs sampling.  The free coordinates' regression on the
    block, and their Schur complement, are those of their law given the
    block at its truncated mean (:func:`tse.elliptical._conditional_law`).
    """
    idx1 = np.flatnonzero(tbox.both_infinite())
    idx2 = np.flatnonzero(~tbox.both_infinite())
    sub2 = marginal(joint, idx2)
    box2 = tbox.subset(idx2)
    rep2 = _direct_report(sub2, box2, settings, moment_flags(sub2.family, sub2.nu, box2),
                          [masses[i] for i in idx2])
    dim = joint.dim
    mean = cov = second = None
    if flags.mean and rep2.mean is not None:
        mu2 = rep2.mean
        gain, schur, mean1, _, _ = _conditional_law(joint, idx2, mu2)
        mean = _embed_vector(dim, (idx1, idx2), (mean1, mu2))
        if flags.second and rep2.covariance is not None:
            s22 = rep2.covariance
            w = 1.0
            if joint.family != NORMAL:
                centred = s22 + np.outer(mu2 - sub2.xi, mu2 - sub2.xi)
                w = (joint.nu + float(np.trace(np.linalg.solve(sub2.omega, centred)))) \
                    / (joint.nu + idx2.size - 2.0)
            c11 = w * schur + gain @ s22 @ gain.T
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
# Arbitrary product moments through the same recursion.
# ---------------------------------------------------------------------------

def _product_moment(joint: EllipticalJoint, tbox: TruncationBox, k,
                    settings: RectangleProbSettings):
    """``E[X^k | box]`` and the method tags of its path, for either kernel.

    Coordinates that :func:`_held` picks contribute fixed powers of their
    held value, and the rest is the moment of the law conditioned on them;
    a box whose mass underflows holds one coordinate more.  One coordinate
    takes its box mass from the hold.  A Student-t kernel needs ``nu``
    above the total order unless the box is one-dimensional and finite
    (see :func:`_recursion_closes`).
    """
    masses = []
    held = _held(joint, tbox, masses)
    if held is None:
        top = _Moments(settings, joint.nu, joint.xi, joint.omega, tbox.lower, tbox.upper)
        if len(masses) == 1:
            top._mass = masses[0]
        L = top.mass()
        if L > 0.0:
            try:
                return float(top.raw(tuple(int(v) for v in k)) / L), ("direct",)
            finally:
                top.table.clear()
        idx = np.array([np.argmin(masses)])
        held = idx, _oob_target(joint, tbox, idx), "out-of-bounds"
    idx, values, tag = held
    factor = float(np.prod(values ** k[idx]))
    if idx.size == joint.dim:
        return factor, (tag,)
    keep = np.setdiff1d(np.arange(joint.dim), idx)
    value, method = _product_moment(conditional(joint, idx, values), tbox.subset(keep),
                                    k[keep], settings)
    return factor * value, method + (tag,)


def tmvn_product_moment(joint: EllipticalJoint, tbox: TruncationBox, order,
                        settings: RectangleProbSettings = DEFAULT_SETTINGS) -> float:
    """``E[X^order | lower <= X <= upper]`` for the normal kernel.

    ``order`` is a vector of per-coordinate exponents; the empty order
    returns one exactly.  The moment comes from the face recursion that
    also serves :func:`truncated_mean_cov`, and holds the same coordinates
    at a point: held coordinates contribute fixed powers of their value.
    """
    if joint.family != NORMAL:
        raise SpecError("tmvn_product_moment requires a normal kernel")
    if tbox.dim != joint.dim:
        raise SpecError("box dimension does not match the joint")
    k = _check_order(order, joint.dim)
    if k.sum() == 0:
        return 1.0
    return _product_moment(joint, tbox, k, settings)[0]
