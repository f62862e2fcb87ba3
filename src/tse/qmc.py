"""Rectangle probabilities of centred normal and Student-t vectors.

One to three dimensions are computed deterministically.  One dimension is
the univariate cdf.  Two dimensions use the exact bivariate normal cdf
through Owen's T function (Owen 1956); the Student-t case integrates that
cdf against the chi mixing law by tanh-sinh quadrature in the chi quantile
(Genz 2004, *Stat. Comput.* 14).  Three dimensions integrate the exact
bivariate rectangle of two coordinates, conditional on the third, by
tanh-sinh quadrature on the third coordinate's probability scale (Genz
2004 again).

Four and more dimensions use separation-of-variables integration: the box
probability is rewritten as an integral over the unit cube by sequentially
conditioning along a reordered Cholesky factor, and the cube integral is
evaluated with randomly shifted Richtmyer (Kronecker) lattice points.  The
Student-t case adds one cube dimension that carries the chi scale mixing
variable.  One kernel serves both laws; it walks the points in blocks of a
fixed size, generating each block's lattice rows on the fly, so its memory
does not grow with the point count.  A Kronecker sequence is extensible, so
a refinement to four times the points adds the new points to the sums of
the first pass.  The random shifts are independent replicates, so the
kernel of a call in ``_THREAD_MIN_DIM`` or more dimensions splits them into
one group per CPU the process may use and runs the groups on threads;
smaller calls run on the caller alone.  Every group walks the same blocks
in the same order, so results do not depend on the number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import gammainccinv, gammaincinv, ndtr, ndtri, owens_t, stdtr, stdtrit

from .errors import NumericalError

__all__ = ["bivariate_rect_prob", "rect_prob_qmc"]

# Square roots of the first 100 primes (mod 1) are the classic Richtmyer
# generating vector; fixed here so results depend only on the seed.
_PRIMES = np.array([
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211,
    223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379,
    383, 389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461,
    463, 467, 479, 487, 491, 499, 503, 509, 521, 523, 541,
])

_UNIT_EPS = 1e-15


def _generators(dim: int) -> np.ndarray:
    if dim > _PRIMES.size:
        raise NumericalError(f"QMC generator table covers {_PRIMES.size} dims, got {dim}")
    return np.mod(np.sqrt(_PRIMES[:dim].astype(float)), 1.0)


def _standardise(sigma, lower, upper):
    """Correlation matrix and limits in units of the coordinate scales."""
    scale = np.sqrt(np.diag(sigma))
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        raise NumericalError("dispersion matrix has a non-positive diagonal")
    corr = np.array(sigma, dtype=float)
    corr /= scale[:, None]
    corr /= scale[None, :]
    return corr, lower / scale, upper / scale


def _reordered_cholesky(sigma, lower, upper):
    """Scaled, reordered Cholesky factor plus matching limits.

    Variables are greedily ordered so that the coordinate with the smallest
    expected conditional probability is integrated first (Gibson/Glasbey/
    Elston ordering as used by Genz), which concentrates the integrand
    variation in the leading lattice dimensions.  Rows of the factor and the
    limits are rescaled so the factor has a unit diagonal.
    """
    n = sigma.shape[0]
    cov, lo, hi = _standardise(sigma, lower, upper)

    chol = np.zeros((n, n))
    y = np.zeros(n)
    for k in range(n):
        # Pick the remaining variable with the smallest conditional mass.
        best, best_prob, best_ld = k, np.inf, (0.0, 0.0)
        for i in range(k, n):
            resid = cov[i, i] - chol[i, :k] @ chol[i, :k]
            if resid <= 1e-14:
                raise NumericalError("dispersion matrix is numerically singular")
            ci = np.sqrt(resid)
            s = chol[i, :k] @ y[:k]
            loi = (lo[i] - s) / ci
            hii = (hi[i] - s) / ci
            prob = ndtr(hii) - ndtr(loi)
            if prob < best_prob:
                best, best_prob, best_ld = i, prob, (loi, hii)
        if best != k:
            cov[[k, best], :] = cov[[best, k], :]
            cov[:, [k, best]] = cov[:, [best, k]]
            chol[[k, best], :] = chol[[best, k], :]
            lo[[k, best]] = lo[[best, k]]
            hi[[k, best]] = hi[[best, k]]

        resid = cov[k, k] - chol[k, :k] @ chol[k, :k]
        ck = np.sqrt(resid)
        chol[k, k] = ck
        for i in range(k + 1, n):
            chol[i, k] = (cov[i, k] - chol[i, :k] @ chol[k, :k]) / ck

        lom, him = best_ld
        dem = ndtr(him) - ndtr(lom)
        if dem > 1e-300:
            inv = 1.0 / np.sqrt(2.0 * np.pi)
            pl = inv * np.exp(-0.5 * lom * lom) if np.isfinite(lom) else 0.0
            ph = inv * np.exp(-0.5 * him * him) if np.isfinite(him) else 0.0
            y[k] = (pl - ph) / dem
        elif np.isfinite(lom) and lom > 0:
            y[k] = lom
        elif np.isfinite(him) and him < 0:
            y[k] = him
        else:
            y[k] = 0.0

        # Unit-diagonal rescaling of row k.
        chol[k, :k + 1] /= ck
        with np.errstate(invalid="ignore"):
            lo[k] /= ck
            hi[k] /= ck
    return chol, lo, hi


# Lattice points per block of the kernel; its working set is about
# 8 * n * num_shifts * _BLOCK bytes, split among the shift groups.
# Measured on a 2-core Xeon (4 MiB L2) with 12 shifts in one group: blocks
# of 512 to 4096 points ran the 40-dimensional orthant, and 4-, 5- and
# 8-dimensional boxes of both kernels, in equal time; 8192 and 16384 were
# 9 % and 22 % slower on the orthant, whose peak RSS was 64, 72 and 88 MB
# at 1024, 2048 and 4096 points.  2048 is the smallest of these at which
# every job in job_examples/ prints the digits that one sum over all
# 20 000 points gave (1024 moved sut_moments in the 16th digit).  Every
# shift group walks the same blocks in the same order, so the per-shift
# sums do not depend on the number of groups.
_BLOCK = 2048

# Chi scale tables, one per (df, seed, num_shifts, qmc_dim), each holding
# points 1 .. n of the first lattice dimension for the largest n asked for
# so far; a call that needs more points extends the table.  A small FIFO
# cache avoids recomputing them across the many rectangle probabilities one
# moment computation needs.  Entries are read-only.
_CHI_CACHE: dict = {}
_CACHE_CAP = 8

# Fewest dimensions at which a call splits its shifts into groups on
# threads; smaller calls run in one group on the caller.  Each group hands
# the GIL back and forth between numpy calls, and the fewer the dimensions
# the shorter those calls.  Measured on a shared 2-vCPU Xeon VM with 12
# shifts and 20 000 points of the normal kernel: two groups ran d = 4, 5,
# 6 and 8 no faster than one (0.93 to 0.97 times the time) and spread up
# to six times as widely from call to call, while d = 10, 12, 16 and 40 ran
# 1.35, 1.48, 1.48 and 1.60 times faster.
_THREAD_MIN_DIM = 12

# Threads that run every shift group but the caller's, and the process
# that started them: a forked child has none of its parent's threads, so
# it starts its own pool.
_POOL = None
_POOL_PID = None
_POOL_SIZE = 0


def _cpus():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _run_groups(work, groups):
    """``work(group)`` for every group: the caller runs the first, a thread
    pool the others.  ``ndtr``, ``ndtri``, ``gammaincinv`` and BLAS release
    the GIL, so the groups run in parallel."""
    global _POOL, _POOL_PID, _POOL_SIZE
    futures = []
    if len(groups) > 1:
        if _POOL_PID != os.getpid() or _POOL_SIZE < len(groups) - 1:
            _POOL = ThreadPoolExecutor(len(groups) - 1, thread_name_prefix="tse-lattice")
            _POOL_PID, _POOL_SIZE = os.getpid(), len(groups) - 1
        futures = [_POOL.submit(work, g) for g in groups[1:]]
    work(groups[0])
    for f in futures:
        f.result()


def _tent_rows(first, stop, gen_j, shifts_j):
    """Points ``first+1 .. stop`` of one lattice dimension, one row per shift:
    ``frac(i * q_j + shift_j)`` followed by the tent (baker) transform."""
    z = np.arange(first + 1, stop + 1)[None, :] * gen_j + shifts_j[:, None]
    z -= np.floor(z)
    return np.abs(2.0 * z - 1.0)


def _chi_table(df, seed, shifts, stop):
    """The cached chi table for these shifts and the number of its points
    that are filled in, or a new table of ``stop`` points whose first
    points are copied from a shorter cached one."""
    old = _CHI_CACHE.get((df, seed) + shifts.shape)
    have = 0 if old is None else old.shape[1]
    if have >= stop:
        return old, have
    table = np.empty((shifts.shape[0], stop))
    if old is not None:
        table[:, :have] = old
    return table, have


def _lattice_sums(chol, lo, hi, df, seed, num_shifts, first, stop):
    """Per-shift sums of the separation-of-variables integrand over the
    lattice points ``first+1 .. stop``, walked in blocks of ``_BLOCK``.

    The Student-t kernel spends the first lattice dimension on its chi
    scale ``r``; the normal kernel is the same loop with ``r = 1`` and the
    conditioning coordinates on lattice dimensions one lower.  An infinite
    limit gives ``c = 0`` or ``d = 1`` without a cdf call.

    From ``_THREAD_MIN_DIM`` dimensions up, the shifts are split into one
    group per CPU the process may use (at most ``num_shifts``); smaller
    calls run in one group.  Each group fills its rows of a missing chi
    table (``sqrt(chisq_df^{-1}(u)/df)``) and then walks every block for
    its shifts only, into a buffer the caller allocates: thread-local
    malloc arenas would keep it otherwise.
    """
    n = chol.shape[0]
    qmc_dim = n - 1 if df is None else n
    gen = _generators(qmc_dim)
    shifts = np.random.default_rng(seed).random((num_shifts, qmc_dim))
    chi, have = (None, stop) if df is None else _chi_table(df, seed, shifts, stop)
    # The conditioned coordinates take the last n - 1 lattice dimensions.
    gen_y, shifts_y = gen[1 - n:], shifts[:, 1 - n:]
    k = min(_cpus(), num_shifts) if n >= _THREAD_MIN_DIM else 1
    groups = []
    for g in range(k):
        rows = slice(num_shifts * g // k, num_shifts * (g + 1) // k)
        size = (n - 1) * (rows.stop - rows.start) * min(_BLOCK, stop - first)
        groups.append((rows, np.empty(size)))
    sums = np.zeros(num_shifts)

    def walk(group):
        rows, buf = group
        for a in range(have, stop, _BLOCK):
            b = min(a + _BLOCK, stop)
            u = np.clip(_tent_rows(a, b, gen[0], shifts[rows, 0]), _UNIT_EPS, 1.0 - _UNIT_EPS)
            chi[rows, a:b] = np.sqrt(2.0 * gammaincinv(0.5 * df, u) / df)
        m = rows.stop - rows.start
        for a in range(first, stop, _BLOCK):
            b = min(a + _BLOCK, stop)
            r = 1.0 if chi is None else chi[rows, a:b]
            y = buf[:(n - 1) * m * (b - a)].reshape(n - 1, m, b - a)
            s = 0.0
            pv = np.ones((m, b - a))
            for i in range(n):
                if i > 0:
                    w = _tent_rows(a, b, gen_y[i - 1], shifts_y[rows, i - 1])
                    y[i - 1] = ndtri(np.clip(c + w * (d - c), _UNIT_EPS, 1.0 - _UNIT_EPS))
                    s = np.tensordot(chol[i, :i], y[:i], axes=(0, 0))
                c = 0.0 if lo[i] == -np.inf else ndtr(r * lo[i] - s)
                d = 1.0 if hi[i] == np.inf else ndtr(r * hi[i] - s)
                pv *= d - c
            sums[rows] += pv.sum(axis=1)

    _run_groups(walk, groups)
    if have < stop:
        chi.flags.writeable = False
        key = (df, seed) + shifts.shape
        _CHI_CACHE.pop(key, None)
        if len(_CHI_CACHE) >= _CACHE_CAP:
            _CHI_CACHE.pop(next(iter(_CHI_CACHE)))
        _CHI_CACHE[key] = chi
    return sums


# -- exact two-dimensional probabilities -------------------------------------

# Rounding floor per unit of summed term magnitude.
_ROUND = 16.0 * np.finfo(float).eps
# Owen's form is replaced by the conditional rule where its rounding floor
# exceeds this fraction of the probability.
_TAIL_REL = 1e-9
# Relative rounding floor of the conditional rule: the few-ulp errors of
# ndtr and ndtri grow by the tail slopes, up to about 1e3 at the end nodes.
_TAIL_ROUND = 4096.0 * np.finfo(float).eps


def _tanh_sinh(step=1.0 / 16.0, half=51):
    """Tanh-sinh rule on (0, 1) with nodes ``t = k * step``, ``|k| <= half``.

    Returns, per node, whether it lies below 1/2, its distance to the nearer
    end of the interval (free of cancellation at either end), its weight,
    and whether it also belongs to the rule with twice the step.  With the
    defaults, ``|t| <= 3.2`` and the mass left out is about 2e-17.
    """
    k = np.arange(-half, half + 1)
    t = step * k
    y = 0.5 * np.pi * np.sinh(t)
    weight = step * 0.25 * np.pi * np.cosh(t) / np.cosh(y) ** 2
    return t < 0.0, 1.0 / (1.0 + np.exp(2.0 * np.abs(y))), weight, k % 2 == 0


_TS_LOW, _TS_DIST, _TS_WEIGHT, _TS_COARSE = _tanh_sinh()


def _ts_sum(values, scale=1.0):
    """Tanh-sinh sums over the last axis: the estimate and its gap to the
    rule with twice the step."""
    fine = scale * (values @ _TS_WEIGHT)
    coarse = 2.0 * scale * (values[..., _TS_COARSE] @ _TS_WEIGHT[_TS_COARSE])
    return fine, np.abs(fine - coarse)


def _bvn_lower(h, k, r):
    """``P(X <= h, Y <= k)`` of a standard bivariate normal, correlation ``r``.

    Owen's (1956) form ``Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta``
    with the infinite and zero limits taken explicitly.  Arrays broadcast.
    Returns the value and the summed magnitude of its terms.
    """
    h, k, r = (np.array(v, dtype=float) for v in np.broadcast_arrays(h, k, r))
    out = np.zeros(h.shape)
    mag = np.zeros(h.shape)
    empty = (h == -np.inf) | (k == -np.inf)
    h_all = (h == np.inf) & ~empty
    k_all = (k == np.inf) & ~empty & ~h_all
    out[h_all] = ndtr(k[h_all])
    out[k_all] = ndtr(h[k_all])
    mag[h_all | k_all] = out[h_all | k_all]
    fin = ~(empty | h_all | k_all)
    h, k, r = h[fin], k[fin], r[fin]
    c = np.sqrt((1.0 - r) * (1.0 + r))
    zero = (h == 0.0) & (k == 0.0)
    # beta = 1/2 exactly where the signs of h and k differ; it is folded
    # into the positive limit's half cdf, Phi(x)/2 - 1/2 = -Phi(-x)/2.
    split = h * k < 0.0
    terms = []
    for x, y in ((h, k), (k, h)):
        with np.errstate(divide="ignore", invalid="ignore"):
            a = np.where(x == 0.0, 0.0, (y - r * x) / (x * c))
        half = np.where(split & (x > 0.0), -0.5 * ndtr(-x), 0.5 * ndtr(x))
        tee = owens_t(x, a)
        # A zero limit with the other limit nonzero contributes nothing:
        # Phi(0)/2 - T(0, +-inf) - beta = 0 for either sign of the other.
        terms.append(np.where(x == 0.0, 0.0, half - tee))
        mag[fin] += np.abs(half) + np.abs(tee)
    val = terms[0] + terms[1]
    val[zero] = 0.25 + np.arcsin(r[zero]) / (2.0 * np.pi)
    out[fin] = val
    return out, mag


def _lower_tail(lower, upper):
    """Reflect each interval that leans into the upper tail, so that its
    limits sit in the accurate lower tail of the cdf.  Returns which
    intervals were reflected and the new limits."""
    with np.errstate(invalid="ignore"):
        flip = (lower + upper) > 0.0
    return flip, np.where(flip, -upper, lower), np.where(flip, -lower, upper)


def _cdf(z, df=None):
    """Standard normal (``df`` None) or Student-t cdf."""
    return ndtr(z) if df is None else stdtr(df, z)


def _reflect(lower, upper, r):
    """:func:`_lower_tail` for ``(..., 2)`` limits, with the correlation
    ``r`` negated where exactly one coordinate was reflected."""
    flip, lo, hi = _lower_tail(lower, upper)
    return lo, hi, r * np.where(flip[..., 0] ^ flip[..., 1], -1.0, 1.0)


def _bvn_rect(lower, upper, r):
    """``P(lower <= Z <= upper)`` for standard bivariate normal rows.

    ``lower`` and ``upper`` are ``(..., 2)``; ``r`` broadcasts against the
    leading shape.  Returns the probabilities and their rounding floors.
    """
    lo, hi, r = _reflect(lower, upper, r)
    h = np.stack([hi[..., 0], lo[..., 0], hi[..., 0], lo[..., 0]])
    k = np.stack([hi[..., 1], hi[..., 1], lo[..., 1], lo[..., 1]])
    val, mag = _bvn_lower(h, k, r)
    return val[0] - val[1] - val[2] + val[3], _ROUND * mag.sum(axis=0)


def _bvn_rect_conditional(lower, upper, r):
    """The rectangles of :func:`_bvn_rect` for ``(m, 2)`` rows and a scalar
    correlation, by tanh-sinh quadrature of the conditional form.

    The coordinate with the smaller mass is integrated on its probability
    scale against the conditional interval probability of the other.  Every
    node term is positive, so probabilities far below the rounding floor of
    Owen's form keep their relative accuracy.
    """
    lo, hi, r = _reflect(lower, upper, r)
    mass = ndtr(hi) - ndtr(lo)
    order = np.where((mass[:, 0] > mass[:, 1])[:, None], [1, 0], [0, 1])
    lo, hi, mass = (np.take_along_axis(v, order, axis=1) for v in (lo, hi, mass))
    d = mass[:, :1]
    v = np.where(_TS_LOW, ndtr(lo[:, :1]) + d * _TS_DIST, ndtr(hi[:, :1]) - d * _TS_DIST)
    # End nodes can round to v = 0 or 1; keep x finite there.
    x = np.clip(ndtri(v), -40.0, 40.0)
    r = r[:, None]
    c = np.sqrt((1.0 - r) * (1.0 + r))
    zl = (lo[:, 1:] - r * x) / c
    zh = (hi[:, 1:] - r * x) / c
    with np.errstate(invalid="ignore"):
        up = (zl + zh) > 0.0
    inner = np.where(up, ndtr(-zl) - ndtr(-zh), ndtr(zh) - ndtr(zl))
    prob, gap = _ts_sum(inner, d[:, 0])
    return prob, gap + _TAIL_ROUND * prob


def _chi_scales(df):
    """``w = sqrt(chisq_df^{-1}(u) / df)`` at the tanh-sinh nodes."""
    s = np.empty_like(_TS_DIST)
    s[_TS_LOW] = gammaincinv(0.5 * df, _TS_DIST[_TS_LOW])
    s[~_TS_LOW] = gammainccinv(0.5 * df, _TS_DIST[~_TS_LOW])
    return np.sqrt(2.0 * s / df)


def bivariate_rect_prob(rho, lower, upper, df=None):
    """Exact rectangle probabilities of a standardised bivariate law.

    Parameters
    ----------
    rho : float
        Correlation shared by every row; ``1 - rho**2`` must exceed 1e-14.
    lower, upper : (m, 2) arrays
        Standardised limits (unit scales), one box per row; entries may be
        infinite.
    df : float, optional
        Student-t degrees of freedom; ``None`` selects the normal kernel.

    Returns
    -------
    (prob, err) : pair of (m,) arrays
        Probabilities clipped to ``[0, 1]`` and error estimates.  The normal
        kernel uses Owen's form, exact up to a rounding floor proportional to
        the magnitude of the terms it sums; rows whose probability lies far
        below that floor (deep joint tails) take the conditional tanh-sinh
        rule instead when its estimate is smaller.  The Student-t kernel
        integrates the normal rectangle over the chi quantile by tanh-sinh
        quadrature; its estimate adds the gap to the rule with twice the
        step, on the same nodes, to the rounding floor.
    """
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    rho = float(rho)
    if not 1.0 - rho * rho > 1e-14:
        raise NumericalError("dispersion matrix is numerically singular")
    if df is None:
        prob, err = _bvn_rect(lower, upper, rho)
        tail = np.flatnonzero(err > _TAIL_REL * prob)
        if tail.size:
            p_tail, e_tail = _bvn_rect_conditional(lower[tail], upper[tail], rho)
            better = e_tail < err[tail]
            prob[tail[better]] = p_tail[better]
            err[tail[better]] = e_tail[better]
    else:
        w = _chi_scales(df)[:, None, None]
        with np.errstate(invalid="ignore"):
            lo = np.where(np.isinf(lower), lower, w * lower)
            hi = np.where(np.isinf(upper), upper, w * upper)
        vals, floor = _bvn_rect(lo, hi, rho)
        prob, gap = _ts_sum(vals.T)
        err = gap + floor.T @ _TS_WEIGHT
    return np.clip(prob, 0.0, 1.0), err


def _uv_mass(lower, upper, df=None):
    """Univariate interval probabilities of the standard normal (``df`` None)
    or Student-t law, each interval reflected into the lower tail first so
    that upper-tail masses keep their relative accuracy."""
    _, lo, hi = _lower_tail(lower, upper)
    return _cdf(hi, df) - _cdf(lo, df)


# -- exact three-dimensional probabilities -----------------------------------

# Largest |x| kept at the outer Student-t nodes: end nodes whose probability
# rounds to 0 or 1 would otherwise map to an infinite coordinate.
_T_NODE_CAP = 1e150
# The outer rule is split where an inner limit's conditional cdf steps
# sharply, at ``x = limit / r_j``: steps narrower than ``_STEP_WIDTH`` in
# ``x`` get edges at the step and ``_STEP_SPAN`` widths either side of it.
_STEP_WIDTH = 0.25
_STEP_SPAN = 8.0


def _trivariate_rect(corr, lower, upper, df=None):
    """``P(lower <= Z <= upper)`` for a standardised trivariate law.

    Every coordinate is reflected into its lower tail, and the one with the
    smallest marginal mass is integrated on its probability scale by the
    tanh-sinh rule.  Given ``Z_1 = x`` the other two are bivariate with
    correlation ``(r23 - r21 r31) / (s2 s3)``, ``s_j = sqrt(1 - r_j1**2)``,
    centred at ``r_j1 x`` with scales ``s_j``; for the Student-t kernel they
    have ``df + 1`` degrees of freedom and scales multiplied by
    ``sqrt((df + x**2) / (df + 1))``.  The correlation is the same at every
    node, so one :func:`bivariate_rect_prob` call covers the inner integral.
    Where a strong correlation makes an inner limit step sharply in ``x``,
    the outer interval is split at the step and on either side of it, so
    that each piece of the rule sees a smooth integrand.  The error
    estimate is the outer step gaps plus the weighted inner estimates and a
    relative rounding floor.
    """
    flip, lo, hi = _lower_tail(lower, upper)
    sign = np.where(flip, -1.0, 1.0)
    corr = corr * np.outer(sign, sign)
    mass = _cdf(hi, df) - _cdf(lo, df)
    first = int(np.argmin(mass))
    if not mass[first] > 0.0:
        return 0.0, 0.0
    rest = [j for j in range(3) if j != first]
    r = corr[rest, first]
    s2 = (1.0 - r) * (1.0 + r)
    if np.any(s2 <= 1e-14):
        raise NumericalError("dispersion matrix is numerically singular")
    s = np.sqrt(s2)
    rho = (corr[rest[0], rest[1]] - r[0] * r[1]) / (s[0] * s[1])

    steps = []
    for j in range(2):
        for limit in (lo[rest[j]], hi[rest[j]]):
            if not (np.isfinite(limit) and r[j] != 0.0):
                continue
            at = limit / r[j]
            step = s[j] / abs(r[j])
            if df is not None:
                step *= np.sqrt((df + at * at) / (df + 1.0))
            if step < _STEP_WIDTH:
                steps += [at - _STEP_SPAN * step, at, at + _STEP_SPAN * step]
    steps = np.unique([x for x in steps if lo[first] < x < hi[first]])
    edges = _cdf(np.concatenate([lo[first:first + 1], steps, hi[first:first + 1]]), df)
    width = np.diff(edges)
    v = np.where(_TS_LOW, edges[:-1, None] + width[:, None] * _TS_DIST,
                 edges[1:, None] - width[:, None] * _TS_DIST).ravel()
    if df is None:
        x = np.clip(ndtri(v), -40.0, 40.0)
        scale = s
    else:
        # stdtrit maps a probability of exactly 0 to +inf.
        x = stdtrit(df, np.maximum(v, np.finfo(float).tiny))
        x = np.clip(x, -_T_NODE_CAP, _T_NODE_CAP)
        scale = s * np.sqrt((df + x * x) / (df + 1.0))[:, None]
    shift = r * x[:, None]
    inner, inner_err = bivariate_rect_prob(
        rho, (lo[rest] - shift) / scale, (hi[rest] - shift) / scale,
        None if df is None else df + 1.0)
    shape = (width.size, _TS_WEIGHT.size)
    prob, gap = _ts_sum(inner.reshape(shape), width)
    inner_err = width * (inner_err.reshape(shape) @ _TS_WEIGHT)
    prob = prob.sum()
    return prob, gap.sum() + inner_err.sum() + _TAIL_ROUND * prob


# Largest dimension computed exactly; the lattice serves the rest.
_EXACT_MAX_DIM = 3


def rect_prob_qmc(sigma, lower, upper, df=None, *, max_points=20_000,
                  num_shifts=12, seed=7, target_abs_error=None):
    """Probability that a centred normal / Student-t vector lies in a box.

    One to three dimensions are exact (the univariate cdf,
    :func:`bivariate_rect_prob`, and tanh-sinh quadrature of the bivariate
    form in three); the lattice settings ``max_points``, ``num_shifts``,
    ``seed`` and ``target_abs_error`` apply from four dimensions up.

    Parameters
    ----------
    sigma : (n, n) array
        Positive-definite dispersion matrix.
    lower, upper : (n,) arrays
        Box limits; entries may be ``-inf`` / ``+inf``.  Coordinates that are
        unbounded on both sides must be removed by the caller beforehand.
    df : float, optional
        Student-t degrees of freedom; ``None`` selects the normal kernel.
    max_points : int
        Lattice points per randomization shift, evaluated in blocks of
        ``_BLOCK`` points.
    num_shifts : int
        Number of random shifts; the spread of the per-shift means yields
        the error estimate.  From ``_THREAD_MIN_DIM`` (12) dimensions up,
        the shifts are split into one group per CPU in
        ``os.sched_getaffinity(0)`` (at most ``num_shifts`` groups), run by
        the calling thread and as many pool threads as there are other
        groups; the result does not depend on the number of groups.
    seed : int
        Seed for the shift generator; fixes the result exactly.
    target_abs_error : float, optional
        Absolute error goal; when the first pass misses it, one refinement
        extends it to ``4 * max_points`` points of the same sequence: only
        the points after the first ``max_points`` are evaluated (still
        deterministic).

    Returns
    -------
    (prob, err) : pair of floats
        Estimated probability (clipped to ``[0, 1]``) and an error bound:
        three standard errors of the shift means from four dimensions up,
        the quadrature estimate in two and three.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if n == 0:
        return 1.0, 0.0
    if np.any(lower > upper):
        raise NumericalError("lower limit exceeds upper limit")

    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if n <= _EXACT_MAX_DIM:
        # One to three dimensions are exact; no randomization error.
        corr, lo, hi = _standardise(sigma, lower, upper)
        if n == 1:
            prob, err = _uv_mass(lo[0], hi[0], df), 1e-15
        elif n == 2:
            prob, err = bivariate_rect_prob(corr[0, 1], lo, hi, df)
            prob, err = prob[0], err[0]
        else:
            prob, err = _trivariate_rect(corr, lo, hi, df)
        return float(min(max(prob, 0.0), 1.0)), float(err)

    chol, lo, hi = _reordered_cholesky(sigma, lower, upper)

    def estimate(means):
        prob = min(max(float(means.mean()), 0.0), 1.0)
        return prob, 3.0 * float(means.std(ddof=1)) / np.sqrt(num_shifts)

    sums = _lattice_sums(chol, lo, hi, df, seed, num_shifts, 0, max_points)
    prob, err = estimate(sums / max_points)
    if target_abs_error is not None and err > target_abs_error:
        # The Kronecker sequence extends, so the refinement adds the points
        # max_points+1 .. 4 max_points to the sums of the first pass.
        sums += _lattice_sums(chol, lo, hi, df, seed, num_shifts, max_points, 4 * max_points)
        prob, err = estimate(sums / (4 * max_points))
    return prob, err
