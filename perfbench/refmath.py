"""Reference computations for the benchmark's correctness checks.

Everything here is built from numpy and scipy alone; this module never
imports ``tse``.  Laws are described by a location ``m``, a dispersion
``S`` and degrees of freedom ``nu`` (``None`` for the normal kernel).
A selection law is the law of the outcome block of such a joint given that
its first ``q`` coordinates are nonnegative.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, stats
from scipy.special import gammaln, ndtr, stdtr

# Seed of scipy's own randomized QMC in three and more dimensions, so that a
# reference is a pure function of its inputs.
SCIPY_QMC_SEED = 20240601
SCIPY_T_MAXPTS = 200_000
SCIPY_NORMAL_ABSEPS = 1e-7

_QUAD = {"epsabs": 1e-13, "epsrel": 1e-11, "limit": 200}

# The paper's numerical example (EX5): a SUT law with q = 2, p = 2 and its
# truncation box.  ``nu`` is None for the SUN twin.
EX5 = {
    "mu": [0.0, 0.0],
    "sigma": [[1.0, 0.2], [0.2, 4.0]],
    "lam": [[1.0, 3.0], [-3.0, -2.0]],
    "tau": [-1.0, 2.0],
    "psi": [[1.0, -0.5], [-0.5, 1.0]],
    "nu": 4.0,
}
EX5_BOX = ([-0.8, -0.6], [0.5, 0.7])


# ---------------------------------------------------------------------------
# Parametrization of the skew families (the selection joint)
# ---------------------------------------------------------------------------

def sqrtm_spd(a):
    vals, vecs = np.linalg.eigh(np.asarray(a, dtype=float))
    return (vecs * np.sqrt(vals)) @ vecs.T


def selection_joint(mu, sigma, lam, tau, psi):
    """Location and dispersion of (selection block, outcome block).

    The selection block has dispersion ``psi + lam lam'`` and cross block
    ``sqrtm(sigma) lam'``; its location is the extension ``tau``.
    """
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    lam = np.atleast_2d(np.asarray(lam, dtype=float))
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    psi = np.atleast_2d(np.asarray(psi, dtype=float))
    o21 = sqrtm_spd(sigma) @ lam.T
    o11 = psi + lam @ lam.T
    omega = np.block([[o11, o21.T], [o21, sigma]])
    return np.concatenate([tau, mu]), 0.5 * (omega + omega.T)


def conditional(m, S, nu, given, value):
    """Law of the other coordinates given exact values for ``given``."""
    given = np.atleast_1d(np.asarray(given, dtype=int))
    value = np.atleast_1d(np.asarray(value, dtype=float))
    keep = np.array([i for i in range(m.size) if i not in set(given.tolist())])
    s_gg = S[np.ix_(given, given)]
    s_kg = S[np.ix_(keep, given)]
    dev = value - m[given]
    sol = np.linalg.solve(s_gg, dev)
    m_c = m[keep] + s_kg @ sol
    S_c = S[np.ix_(keep, keep)] - s_kg @ np.linalg.solve(s_gg, s_kg.T)
    S_c = 0.5 * (S_c + S_c.T)
    if nu is None:
        return m_c, S_c, None
    factor = (nu + float(dev @ sol)) / (nu + given.size)
    return m_c, factor * S_c, nu + given.size


def logpdf(x, m, S, nu):
    """Joint log density (rows of ``x``) through ``scipy.stats``."""
    if nu is None:
        return stats.multivariate_normal(mean=m, cov=S).logpdf(x)
    return stats.multivariate_t(loc=m, shape=S, df=nu).logpdf(x)


# ---------------------------------------------------------------------------
# Rectangle probabilities
# ---------------------------------------------------------------------------

def _uv_pdf(z, nu):
    if nu is None:
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi)
    return np.exp(gammaln(0.5 * (nu + 1)) - gammaln(0.5 * nu) - 0.5 * np.log(nu * np.pi)
                  - 0.5 * (nu + 1) * np.log1p(z * z / nu))


def _uv_cdf(z, nu):
    return ndtr(z) if nu is None else stdtr(nu, z)


def uv_interval(m, s2, nu, a, b):
    s = np.sqrt(s2)
    return float(_uv_cdf((b - m) / s, nu) - _uv_cdf((a - m) / s, nu))


def _bivariate(m, S, nu, a, b):
    """Exact-to-quadrature-accuracy bivariate rectangle probability.

    Integrates the first coordinate's density against the conditional
    interval probability of the second.
    """
    s11, s12, s22 = S[0, 0], S[0, 1], S[1, 1]
    beta = s12 / s11
    s22_1 = s22 - s12 * beta
    sd1 = np.sqrt(s11)

    def inner(x):
        z = (x - m[0]) / sd1
        loc = m[1] + beta * (x - m[0])
        if nu is None:
            sc = np.sqrt(s22_1)
            nu_c = None
        else:
            sc = np.sqrt((nu + z * z) / (nu + 1.0) * s22_1)
            nu_c = nu + 1.0
        hi = _uv_cdf((b[1] - loc) / sc, nu_c) if np.isfinite(b[1]) else 1.0
        lo = _uv_cdf((a[1] - loc) / sc, nu_c) if np.isfinite(a[1]) else 0.0
        return _uv_pdf(z, nu) / sd1 * (hi - lo)

    # Split at the first coordinate's location so the peak is an endpoint.
    pts = sorted({float(a[0]), float(b[0]), float(np.clip(m[0], a[0], b[0]))})
    total = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi > lo:
            total += integrate.quad(inner, lo, hi, **_QUAD)[0]
    return total


def rect_prob(m, S, nu, a, b):
    """``P(a <= X <= b)``; coordinates free on both sides are dropped."""
    m = np.asarray(m, dtype=float)
    S = np.asarray(S, dtype=float)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    keep = np.flatnonzero(~(np.isinf(a) & np.isinf(b)))
    if keep.size == 0:
        return 1.0
    m, S, a, b = m[keep], S[np.ix_(keep, keep)], a[keep], b[keep]
    if keep.size == 1:
        return uv_interval(m[0], S[0, 0], nu, a[0], b[0])
    if keep.size == 2:
        return _bivariate(m, S, nu, a, b)
    if nu is None:
        return float(stats.multivariate_normal.cdf(
            b, mean=m, cov=S, abseps=SCIPY_NORMAL_ABSEPS, lower_limit=a,
            rng=SCIPY_QMC_SEED))
    return float(stats.multivariate_t(loc=m, shape=S, df=nu).cdf(
        b, lower_limit=a, maxpts=SCIPY_T_MAXPTS, random_state=SCIPY_QMC_SEED))


# ---------------------------------------------------------------------------
# Truncated moments: closed-form single truncation, quadrature, Monte Carlo
# ---------------------------------------------------------------------------

def uv_truncated_moments(m, s2, nu, a, b):
    """Mass, mean and second raw moment of a univariate law on [a, b]."""
    s = np.sqrt(s2)

    def dens(x):
        return _uv_pdf((x - m) / s, nu) / s

    pts = sorted({float(a), float(b), float(np.clip(m, a, b))})
    mass = mean = second = 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        if hi > lo:
            mass += integrate.quad(dens, lo, hi, **_QUAD)[0]
            mean += integrate.quad(lambda x: x * dens(x), lo, hi, **_QUAD)[0]
            second += integrate.quad(lambda x: x * x * dens(x), lo, hi, **_QUAD)[0]
    return mass, mean / mass, second / mass


def single_truncation(m, S, nu, k, a, b):
    """Moments when only coordinate ``k`` is truncated (regression form).

    The other coordinates are a linear regression on ``X_k`` plus an
    uncorrelated residual whose scale, for the Student-t kernel, grows with
    ``X_k^2`` (conditional law with ``nu + 1`` degrees of freedom).
    """
    mass, e1, e2 = uv_truncated_moments(m[k], S[k, k], nu, a, b)
    var_k = e2 - e1 * e1
    beta = S[:, k] / S[k, k]
    resid = S - np.outer(S[:, k], S[k, :]) / S[k, k]
    if nu is None:
        scale = 1.0
    else:
        e_dev2 = e2 - 2.0 * e1 * m[k] + m[k] ** 2
        scale = (nu + e_dev2 / S[k, k]) / (nu - 1.0)
    mean = m + beta * (e1 - m[k])
    cov = scale * resid + var_k * np.outer(beta, beta)
    return mass, mean, 0.5 * (cov + cov.T)


def mc_truncated(m, S, nu, a, b, rng, n_accept, max_draws=40_000_000, chunk=500_000):
    """Mean and covariance of the truncated law by rejection Monte Carlo."""
    chol = np.linalg.cholesky(S)
    d = m.size
    n_draw = 0
    kept = []
    got = 0
    while got < n_accept:
        if n_draw >= max_draws:
            raise RuntimeError("Monte Carlo reference: acceptance too low")
        z = rng.standard_normal((chunk, d)) @ chol.T
        if nu is not None:
            z /= np.sqrt(rng.chisquare(nu, chunk) / nu)[:, None]
        x = m + z
        ok = np.all((x >= a) & (x <= b), axis=1)
        kept.append(x[ok])
        got += int(ok.sum())
        n_draw += chunk
    x = np.concatenate(kept)
    return {"mean": x.mean(axis=0), "cov": np.cov(x, rowvar=False)}


def box_moments_2d(dens, a, b):
    """Mass, mean and second raw moment of a 2-D density over a box.

    ``scipy.integrate.dblquad`` over the box; infinite limits are allowed.
    """
    opts = {"epsabs": 1e-11, "epsrel": 1e-9}

    def q(g):
        return integrate.dblquad(lambda y2, y1: g(y1, y2) * dens(np.array([y1, y2])),
                                 a[0], b[0], a[1], b[1], **opts)[0]

    mass = q(lambda y1, y2: 1.0)
    mean = np.array([q(lambda y1, y2: y1), q(lambda y1, y2: y2)]) / mass
    m11 = q(lambda y1, y2: y1 * y1) / mass
    m12 = q(lambda y1, y2: y1 * y2) / mass
    m22 = q(lambda y1, y2: y2 * y2) / mass
    second = np.array([[m11, m12], [m12, m22]])
    return mass, mean, second


# ---------------------------------------------------------------------------
# Selection laws: density and the censored-expectation right-hand side
# ---------------------------------------------------------------------------

def selection_density(xi, omega, nu, q):
    """Density of the outcome block given the selection block is >= 0."""
    p_sel = rect_prob(xi[:q], omega[:q, :q], nu, np.zeros(q), np.full(q, np.inf))
    out_m, out_S = xi[q:], omega[q:, q:]
    given = np.arange(q, xi.size)

    def dens(y):
        y = np.atleast_1d(y)
        m_c, S_c, nu_c = conditional(xi, omega, nu, given, y)
        p_c = rect_prob(m_c, S_c, nu_c, np.zeros(q), np.full(q, np.inf))
        return float(np.exp(logpdf(y, out_m, out_S, nu))) * p_c / p_sel

    return dens


def selection_logpdf(xi, omega, nu, q, y, p_sel=None):
    """Log density of the selection law at one outcome point."""
    if p_sel is None:
        p_sel = rect_prob(xi[:q], omega[:q, :q], nu, np.zeros(q), np.full(q, np.inf))
    given = np.arange(q, xi.size)
    m_c, S_c, nu_c = conditional(xi, omega, nu, given, y)
    p_c = rect_prob(m_c, S_c, nu_c, np.zeros(q), np.full(q, np.inf))
    return float(logpdf(y, xi[q:], omega[q:, q:], nu)) + np.log(p_c) - np.log(p_sel), p_c


def censored_second(xi, omega, nu, q, lower, upper):
    """``eta * P(W in box) / P_sel(box) * E[W W' | W in box]``.

    ``W`` is the outcome block given a zero selection block; ``eta`` is the
    selection density at zero over the selection mass.  The outcome box has
    one coordinate, which may be open on one side, or two finite ones.
    """
    m_s, S_s = xi[:q], omega[:q, :q]
    zero = np.zeros(q)
    inf = np.full(q, np.inf)
    p_sel = rect_prob(m_s, S_s, nu, zero, inf)
    log_eta = float(logpdf(zero, m_s, S_s, nu)) - np.log(p_sel)
    m_w, S_w, nu_w = conditional(xi, omega, nu, np.arange(q), zero)
    p_w = rect_prob(m_w, S_w, nu_w, lower, upper)
    p_aug = rect_prob(xi, omega, nu, np.concatenate([zero, lower]),
                      np.concatenate([inf, upper]))
    factor = np.exp(log_eta) * p_w * p_sel / p_aug
    if m_w.size == 1:
        _, _, e2 = uv_truncated_moments(m_w[0], S_w[0, 0], nu_w, lower[0], upper[0])
        return factor * np.array([[e2]])

    def dens(y):
        return float(np.exp(logpdf(y, m_w, S_w, nu_w)))

    _, _, second = box_moments_2d(dens, lower, upper)
    return factor * second
