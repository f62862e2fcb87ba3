"""Rectangle probabilities of centred normal and Student-t vectors.

One to three dimensions are computed deterministically.  One dimension is
the univariate cdf.  Two dimensions use the exact bivariate normal cdf
through Owen's T function (Owen 1956).  The Student-t case with an integer
number of degrees of freedom up to ``_DS_MAX_DF`` sums the finite series of
Dunnett & Sobel (1954, *Biometrika* 41) in the form of Genz's ``BVTL``
(Genz 2004, *Stat. Comput.* 14); any other Student-t, and the deep joint
tails where the series' rounding floor swamps the probability, integrate
the normal cdf against the chi mixing law by tanh-sinh quadrature in the
chi quantile (Genz 2004).  Three dimensions integrate the exact
bivariate rectangle of two coordinates, conditional on the third, by
tanh-sinh quadrature on the third coordinate's probability scale (Genz
2004 again).

Four and more dimensions use separation-of-variables integration (Genz
1992): every coordinate is reflected into its lower tail, the box
probability is rewritten as an integral over the unit cube by sequentially
conditioning along a reordered Cholesky factor, and the cube integral is
evaluated with scrambled Sobol' points.  The direction numbers are Joe &
Kuo's (2008, *SIAM J. Sci. Comput.* 30) for up to 100 dimensions; each
random shift is an independent linear matrix scramble plus digital shift
(Matousek 1998, *J. Complexity* 14).  The Student-t case adds one cube
dimension that carries the chi scale mixing variable.  One kernel serves
both laws; it walks the points in Gray-code order in blocks of a fixed
size, generating each block's rows one dimension at a time, so its memory
does not grow with the point count.  A Sobol' sequence is extensible, so a
refinement to four times the points adds the new points to the sums of the
first pass.  The scrambles are independent replicates, so the kernel of a
call in ``_THREAD_MIN_DIM`` or more dimensions splits them into one group
per CPU the process may use and runs the groups on threads; smaller calls
run on the caller alone.  Every group walks the same blocks in the same
order, so results do not depend on the number of threads.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.special import gammainccinv, gammaincinv, gammaln, ndtr, ndtri, owens_t, stdtr, stdtrit

from .errors import NumericalError

__all__ = ["bivariate_rect_prob", "rect_prob_qmc"]

# Joe & Kuo (2008) direction numbers (new-joe-kuo-6.21201, as scipy ships
# them) for Sobol' dimensions 2 .. 100: per dimension, its primitive
# polynomial as an integer whose bits are the coefficients, and the initial
# numbers m_1 .. m_s, s the degree.  The first dimension is the van der
# Corput sequence in base 2.
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
    (229, (1, 3, 1, 3, 5, 53, 69)), (239, (1, 1, 5, 5, 23, 33, 13)),
    (241, (1, 1, 7, 7, 1, 61, 123)), (247, (1, 1, 7, 9, 13, 61, 49)),
    (253, (1, 3, 3, 5, 3, 55, 33)), (285, (1, 3, 1, 15, 31, 13, 49, 245)),
    (299, (1, 3, 5, 15, 31, 59, 63, 97)),
    (301, (1, 3, 1, 11, 11, 11, 77, 249)), (333, (1, 3, 1, 11, 27, 43, 71, 9)),
    (351, (1, 1, 7, 15, 21, 11, 81, 45)), (355, (1, 3, 7, 3, 25, 31, 65, 79)),
    (357, (1, 3, 1, 1, 19, 11, 3, 205)), (361, (1, 1, 5, 9, 19, 21, 29, 157)),
    (369, (1, 3, 7, 11, 1, 33, 89, 185)), (391, (1, 3, 3, 3, 15, 9, 79, 71)),
    (397, (1, 3, 7, 11, 15, 39, 119, 27)),
    (425, (1, 1, 3, 1, 11, 31, 97, 225)), (451, (1, 1, 1, 3, 23, 43, 57, 177)),
    (463, (1, 3, 7, 7, 17, 17, 37, 71)), (487, (1, 3, 1, 5, 27, 63, 123, 213)),
    (501, (1, 1, 3, 5, 11, 43, 53, 133)),
    (529, (1, 3, 5, 5, 29, 17, 47, 173, 479)),
    (539, (1, 3, 3, 11, 3, 1, 109, 9, 69)),
    (545, (1, 1, 1, 5, 17, 39, 23, 5, 343)),
    (557, (1, 3, 1, 5, 25, 15, 31, 103, 499)),
    (563, (1, 1, 1, 11, 11, 17, 63, 105, 183)),
    (601, (1, 1, 5, 11, 9, 29, 97, 231, 363)),
    (607, (1, 1, 5, 15, 19, 45, 41, 7, 383)),
    (617, (1, 3, 7, 7, 31, 19, 83, 137, 221)),
    (623, (1, 1, 1, 3, 23, 15, 111, 223, 83)),
    (631, (1, 1, 5, 13, 31, 15, 55, 25, 161)),
    (637, (1, 1, 3, 13, 25, 47, 39, 87, 257)),
    (647, (1, 1, 1, 11, 21, 53, 125, 249, 293)),
    (661, (1, 1, 7, 11, 11, 7, 57, 79, 323)),
    (675, (1, 1, 5, 5, 17, 13, 81, 3, 131)),
    (677, (1, 1, 7, 13, 23, 7, 65, 251, 475)),
    (687, (1, 3, 5, 1, 9, 43, 3, 149, 11)),
    (695, (1, 1, 3, 13, 31, 13, 13, 255, 487)),
    (701, (1, 3, 3, 1, 5, 63, 89, 91, 127)),
    (719, (1, 1, 3, 3, 1, 19, 123, 127, 237)),
    (721, (1, 1, 5, 7, 23, 31, 37, 243, 289)),
    (731, (1, 1, 5, 11, 17, 53, 117, 183, 491)),
    (757, (1, 1, 1, 5, 1, 13, 13, 209, 345)),
    (761, (1, 1, 3, 15, 1, 57, 115, 7, 33)),
    (787, (1, 3, 1, 11, 7, 43, 81, 207, 175)),
    (789, (1, 3, 1, 1, 15, 27, 63, 255, 49)),
    (799, (1, 3, 5, 3, 27, 61, 105, 171, 305)),
    (803, (1, 1, 5, 3, 1, 3, 57, 249, 149)),
    (817, (1, 1, 3, 5, 5, 57, 15, 13, 159)),
    (827, (1, 1, 1, 11, 7, 11, 105, 141, 225)),
    (847, (1, 3, 3, 5, 27, 59, 121, 101, 271)),
    (859, (1, 3, 5, 9, 11, 49, 51, 59, 115)),
    (865, (1, 1, 7, 1, 23, 45, 125, 71, 419)),
    (875, (1, 1, 3, 5, 23, 5, 105, 109, 75)),
    (877, (1, 1, 7, 15, 7, 11, 67, 121, 453)),
    (883, (1, 3, 7, 3, 9, 13, 31, 27, 449)),
    (895, (1, 3, 1, 15, 19, 39, 39, 89, 15)),
    (901, (1, 1, 1, 1, 1, 33, 73, 145, 379)),
    (911, (1, 3, 1, 15, 15, 43, 29, 13, 483)),
    (949, (1, 1, 7, 3, 19, 27, 85, 131, 431)),
    (953, (1, 3, 3, 3, 5, 35, 23, 195, 349)),
    (967, (1, 3, 3, 7, 9, 27, 39, 59, 297)),
    (971, (1, 1, 3, 9, 11, 17, 13, 241, 157)),
    (973, (1, 3, 7, 15, 25, 57, 33, 189, 213)),
    (981, (1, 1, 7, 1, 9, 55, 73, 83, 217)),
    (985, (1, 3, 3, 13, 19, 27, 23, 113, 249)),
    (995, (1, 3, 5, 3, 23, 43, 3, 253, 479)),
    (1001, (1, 1, 5, 5, 11, 5, 45, 117, 217)),
)

# Bits per coordinate of the Sobol' points.
_BITS = 32


@functools.cache
def _direction_table():
    """The ``(100, _BITS)`` direction numbers ``v_jk = m_jk * 2**(31 - k)``,
    with ``m_jk`` from the Bratley & Fox (1988) recurrence on the table."""
    m = [[1] * _BITS]
    for poly, init in _JOE_KUO:
        s = len(init)
        mj = list(init)
        for k in range(s, _BITS):
            new = mj[k - s] ^ (mj[k - s] << s)
            for i in range(1, s):
                if poly >> (s - i) & 1:
                    new ^= mj[k - i] << i
            mj.append(new)
        m.append(mj)
    v = (np.array(m, dtype=np.uint64) << np.arange(_BITS - 1, -1, -1, dtype=np.uint64)
         ).astype(np.uint32)
    v.flags.writeable = False
    return v


def _scrambles(seed, num_shifts, dim):
    """Direction numbers ``(num_shifts, dim, _BITS)`` and digital shifts
    ``(num_shifts, dim)`` of one linear matrix scramble (Matousek 1998) per
    shift and dimension, each shift drawn from its own child of
    ``SeedSequence(seed)``.

    Digit ``b`` (``b = 0`` the most significant) of a scrambled coordinate
    is digit ``b`` plus a random combination of the digits above it,
    modulo 2: a random lower unit-triangular matrix over GF(2), which is
    invertible.  The matrix is linear, so scrambling the direction numbers
    scrambles every point; the digital shift is the scrambled first point.
    """
    if dim > len(_JOE_KUO) + 1:
        raise NumericalError(f"Sobol' table covers {len(_JOE_KUO) + 1} dims, got {dim}")
    v = _direction_table()[:dim]
    digit = np.uint32(1) << np.arange(_BITS - 1, -1, -1, dtype=np.uint32)
    rows = np.empty((num_shifts, dim, _BITS), dtype=np.uint32)
    shifts = np.empty((num_shifts, dim), dtype=np.uint32)
    for s, child in enumerate(np.random.SeedSequence(seed).spawn(num_shifts)):
        rng = np.random.default_rng(child)
        rows[s] = rng.integers(0, 1 << _BITS, size=(dim, _BITS), dtype=np.uint32)
        shifts[s] = rng.integers(0, 1 << _BITS, size=dim, dtype=np.uint32)
    rows = rows & ~(digit - np.uint32(1)) | digit
    odd = np.bitwise_count(rows[..., None] & v[:, None, :]) & np.uint8(1)
    dirs = np.bitwise_or.reduce(odd.astype(np.uint32) * digit[:, None], axis=-2)
    return dirs, shifts


def _sobol_rows(dirs, shifts, first, stop):
    """Points ``first .. stop-1`` of one Sobol' dimension in Gray-code order,
    one row per scramble, as ``uint32`` digits: point ``i + 1`` is point
    ``i`` XOR ``dirs[:, ctz(i + 1)]``, ``ctz`` the count of trailing zero
    bits."""
    x = np.empty((shifts.size, stop - first), dtype=np.uint32)
    gray = first ^ (first >> 1)
    start = shifts.copy()
    for k in range(gray.bit_length()):
        if gray >> k & 1:
            start ^= dirs[:, k]
    x[:, 0] = start
    i = np.arange(first + 1, stop)
    x[:, 1:] = dirs[:, np.bitwise_count((i & -i) - 1)]
    return np.bitwise_xor.accumulate(x, axis=1, out=x)


def _unit(x):
    """Sobol' digits mapped to the centres of their cells in (0, 1)."""
    return (x + 0.5) * 2.0 ** -_BITS


# Conditional probabilities are clipped into [_TINY, _BELOW_ONE] before
# ``ndtri``, which keeps every probability above the smallest normal double
# at full relative accuracy.
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


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


# Sobol' points per block of the kernel; its working set is about
# 8 * n * num_shifts * _BLOCK bytes, split among the shift groups.
# Measured with the Kronecker lattice this kernel replaced, on a 2-core
# Xeon (4 MiB L2) with 12 shifts in one group: blocks of 512 to 4096 points
# ran the 40-dimensional orthant, and 4-, 5- and 8-dimensional boxes of
# both kernels, in equal time; 8192 and 16384 were 9 % and 22 % slower on
# the orthant, whose peak RSS was 64, 72 and 88 MB at 1024, 2048 and 4096
# points.  Being a power of two, 2048 makes every whole block a net of
# each scramble, and the default 8192 points four whole blocks.  Every
# shift group walks the same blocks in the same order, so the per-shift
# sums do not depend on the number of groups.
_BLOCK = 2048

# Chi scale tables, one per (df, seed, num_shifts, qmc_dim), each holding
# points 0 .. n-1 of the first Sobol' dimension for the largest n asked for
# so far; a call that needs more points extends the table.  A small FIFO
# cache avoids recomputing them across the many rectangle probabilities one
# moment computation needs.  Entries are read-only.
_CHI_CACHE: dict = {}
_CACHE_CAP = 8

# Fewest dimensions at which a call splits its shifts into groups on
# threads; smaller calls run in one group on the caller.  Each group hands
# the GIL back and forth between numpy calls, and the fewer the dimensions
# the shorter those calls.  Measured on a shared 2-vCPU Xeon VM with 12
# shifts and 20 000 points of the normal kernel on the Kronecker lattice
# that preceded the Sobol' points: two groups ran d = 4, 5, 6 and 8 no
# faster than one (0.93 to 0.97 times the time) and spread up to six times
# as widely from call to call, while d = 10, 12, 16 and 40 ran 1.35, 1.48,
# 1.48 and 1.60 times faster.
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


def _chi_table(key, num_shifts, stop):
    """The cached chi table under ``key`` and the number of its points that
    are filled in, or a new ``(num_shifts, stop)`` table whose first points
    are copied from a shorter cached one."""
    old = _CHI_CACHE.get(key)
    have = 0 if old is None else old.shape[1]
    if have >= stop:
        return old, have
    table = np.empty((num_shifts, stop))
    if old is not None:
        table[:, :have] = old
    return table, have


def _lattice_sums(chol, lo, hi, df, seed, num_shifts, first, stop):
    """Per-shift sums of the separation-of-variables integrand over the
    points ``first .. stop-1`` of the scrambled Sobol' sequence, walked in
    blocks of ``_BLOCK``.

    The Student-t kernel spends the first Sobol' dimension on its chi scale
    ``r``; the normal kernel is the same loop with ``r = 1`` and the
    conditioning coordinates on Sobol' dimensions one lower.  An infinite
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
    dirs, shifts = _scrambles(seed, num_shifts, qmc_dim)
    key = (df, seed, num_shifts, qmc_dim)
    chi, have = (None, stop) if df is None else _chi_table(key, num_shifts, stop)
    # The conditioned coordinates take the last n - 1 Sobol' dimensions.
    dirs_y, shifts_y = dirs[:, 1 - n:], shifts[:, 1 - n:]
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
            x = _sobol_rows(dirs[rows, 0], shifts[rows, 0], a, b)
            chi[rows, a:b] = np.sqrt(2.0 * gammaincinv(0.5 * df, _unit(x)) / df)
        m = rows.stop - rows.start
        for a in range(first, stop, _BLOCK):
            b = min(a + _BLOCK, stop)
            r = 1.0 if chi is None else chi[rows, a:b]
            y = buf[:(n - 1) * m * (b - a)].reshape(n - 1, m, b - a)
            s = 0.0
            pv = np.ones((m, b - a))
            for i in range(n):
                if i > 0:
                    w = _unit(_sobol_rows(dirs_y[rows, i - 1], shifts_y[rows, i - 1], a, b))
                    y[i - 1] = ndtri(np.clip(c + w * (d - c), _TINY, _BELOW_ONE))
                    s = np.tensordot(chol[i, :i], y[:i], axes=(0, 0))
                c = 0.0 if lo[i] == -np.inf else ndtr(r * lo[i] - s)
                d = 1.0 if hi[i] == np.inf else ndtr(r * hi[i] - s)
                pv *= d - c
            sums[rows] += pv.sum(axis=1)

    _run_groups(walk, groups)
    if have < stop:
        chi.flags.writeable = False
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


def _open_corners(h, k, r, df=None):
    """Broadcast the corners ``(h, k)`` and correlations ``r`` of a lower
    orthant, and fill those with an infinite limit: an empty side gives 0,
    a free side the univariate cdf of the other limit (``df`` as in
    :func:`_cdf`).  Returns the values and magnitudes so far, the mask of
    the finite corners, and their ``h``, ``k`` and ``r``."""
    h, k, r = (np.array(v, dtype=float) for v in np.broadcast_arrays(h, k, r))
    out = np.zeros(h.shape)
    mag = np.zeros(h.shape)
    empty = (h == -np.inf) | (k == -np.inf)
    h_all = (h == np.inf) & ~empty
    k_all = (k == np.inf) & ~empty & ~h_all
    out[h_all] = _cdf(k[h_all], df)
    out[k_all] = _cdf(h[k_all], df)
    mag[h_all | k_all] = out[h_all | k_all]
    fin = ~(empty | h_all | k_all)
    return out, mag, fin, h[fin], k[fin], r[fin]


def _bvn_lower(h, k, r):
    """``P(X <= h, Y <= k)`` of a standard bivariate normal, correlation ``r``.

    Owen's (1956) form ``Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta``
    with the infinite and zero limits taken explicitly.  Arrays broadcast.
    Returns the value and the summed magnitude of its terms.
    """
    out, mag, fin, h, k, r = _open_corners(h, k, r)
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


# Largest integer df that takes the Dunnett-Sobel series.  On one row its
# cost met that of the chi rule's 103 nodes between df 32 and 44 for a
# half-open box and near 50 for a finite one; the cap sits at the lower end.
_DS_MAX_DF = 32
# Corners with a finite limit beyond this magnitude leave the series to the
# chi rule: there an odd-df angle just short of a full turn could no longer
# be told from 0.
_DS_BIG = 1e10


def _bvt_lower(nu, h, k, r):
    """``P(X <= h, Y <= k)`` of a standard bivariate Student-t with integer
    ``nu`` degrees of freedom and correlation ``r``.

    Dunnett & Sobel's (1954) finite series in the form of Genz's ``BVTL``
    (Genz 2004): an angle term, then ``nu / 2`` (even ``nu``) or
    ``(nu - 1) / 2`` (odd) steps of incomplete-beta recurrences, each step
    one term for ``h`` and one for ``k``.  Infinite limits are taken as in
    :func:`_bvn_lower`.  Arrays broadcast.  Returns the value and the summed
    magnitude of its terms; corners with a limit beyond ``_DS_BIG`` get an
    infinite magnitude.
    """
    out, mag, fin, h, k, r = _open_corners(h, k, r, nu)
    big = np.maximum(np.abs(h), np.abs(k)) > _DS_BIG
    # Row 0 carries the terms in h, row 1 those in k.
    x = np.where(big, 0.0, np.stack([h, k]))
    h, k = x
    sq = x * x
    ors = (1.0 - r) * (1.0 + r)
    dev = x[::-1] - r * x
    wide = ors * (nu + sq)
    q = dev * dev + wide
    # The incomplete-beta argument dev**2 / q and its complement.
    arg, comp = dev * dev / q, wide / q
    sign = np.where(dev < 0.0, -1.0, 1.0)
    shrink = 1.0 / (1.0 + sq / nu)
    if nu % 2 == 0:
        val = np.arctan2(np.sqrt(ors), -r) / (2.0 * np.pi)
        size = np.abs(val)
        g = x / np.sqrt(16.0 * (nu + sq))
        b = 2.0 / np.pi * np.arctan2(np.abs(dev), np.sqrt(wide))
        d = 2.0 / np.pi * np.sqrt(arg * comp)
    else:
        hk = h * k
        hkrn, hkn, hpk, qhrk = hk + r * nu, hk - nu, h + k, np.sqrt(q[1])
        val = np.arctan2(-np.sqrt(nu) * (hkn * qhrk + hpk * hkrn),
                         hkn * hkrn - nu * hpk * qhrk) / (2.0 * np.pi)
        val = np.where(val < -1e-15, val + 1.0, val)
        # The angle's rounding error is absolute, a few ulps of one radian.
        size = np.abs(val) + 0.5 / np.pi
        g = x * shrink / (2.0 * np.pi * np.sqrt(nu))
        b = d = np.sqrt(arg)
    terms = g_sum = 0.0
    for j in range(1, (nu + 2) // 2):
        terms = terms + g * (1.0 + sign * b)
        g_sum = g_sum + g
        if nu % 2 == 0:
            b = b + d
            d = d * comp * (2 * j / (2 * j + 1))
            g = g * shrink * ((2 * j - 1) / (2 * j))
        else:
            d = d * comp * ((2 * j - 1) / (2 * j))
            b = b + d
            g = g * shrink * (2 * j / (2 * j + 1))
    # Each g keeps its limit's sign and 0 <= b <= 1, so 2 |sum g| bounds
    # the terms' magnitude.
    out[fin] = val + np.sum(terms, axis=0)
    mag[fin] = np.where(big, np.inf, size + 2.0 * np.sum(np.abs(g_sum), axis=0))
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


def _bv_rect(lower, upper, r, df=None):
    """``P(lower <= Z <= upper)`` for standard bivariate normal rows
    (``df`` None, Owen's form) or Student-t rows (integer ``df``, the
    Dunnett-Sobel series).

    ``lower`` and ``upper`` are ``(..., 2)``; ``r`` broadcasts against the
    leading shape.  Returns the probabilities and their rounding floors.
    """
    lo, hi, r = _reflect(lower, upper, r)
    h = np.stack([hi[..., 0], lo[..., 0], hi[..., 0], lo[..., 0]])
    k = np.stack([hi[..., 1], hi[..., 1], lo[..., 1], lo[..., 1]])
    val, mag = _bvn_lower(h, k, r) if df is None else _bvt_lower(df, h, k, r)
    return val[0] - val[1] - val[2] + val[3], _ROUND * mag.sum(axis=0)


def _bvn_rect_conditional(lower, upper, r):
    """The normal rectangles of :func:`_bv_rect` for ``(m, 2)`` rows and a
    scalar correlation, by tanh-sinh quadrature of the conditional form.

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


def _chi_rect(lower, upper, rho, df):
    """Student-t rectangles of ``(m, 2)`` rows by tanh-sinh quadrature of
    the normal rectangle over the chi quantile: the probabilities and their
    estimates, the gap to the rule with twice the step on the same nodes
    plus the rounding floor."""
    w = _chi_scales(df)[:, None, None]
    with np.errstate(invalid="ignore"):
        lo = np.where(np.isinf(lower), lower, w * lower)
        hi = np.where(np.isinf(upper), upper, w * upper)
    vals, floor = _bv_rect(lo, hi, rho)
    prob, gap = _ts_sum(vals.T)
    return prob, gap + floor.T @ _TS_WEIGHT


def _tail_rule(prob, err, rule):
    """Give the rows whose estimate ``err`` exceeds ``_TAIL_REL * prob``
    (or is not a number) the value and estimate of ``rule(rows)`` wherever
    that estimate is smaller; ``prob`` and ``err`` are updated in place."""
    tail = np.flatnonzero(~(err <= _TAIL_REL * prob))
    if tail.size:
        p_tail, e_tail = rule(tail)
        better = e_tail < err[tail]
        prob[tail[better]] = p_tail[better]
        err[tail[better]] = e_tail[better]


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
        rule instead when its estimate is smaller.  A Student-t kernel with
        integer ``df`` up to ``_DS_MAX_DF`` sums Dunnett & Sobel's finite
        series, exact up to its own rounding floor; its deep-tail rows take
        the chi rule below in the same way.  Any other ``df`` integrates the
        normal rectangle over the chi quantile by tanh-sinh quadrature (the
        chi rule); its estimate adds the gap to the rule with twice the
        step, on the same nodes, to the rounding floor.
    """
    lower = np.atleast_2d(np.asarray(lower, dtype=float))
    upper = np.atleast_2d(np.asarray(upper, dtype=float))
    rho = float(rho)
    if not 1.0 - rho * rho > 1e-14:
        raise NumericalError("dispersion matrix is numerically singular")
    if df is None:
        prob, err = _bv_rect(lower, upper, rho)
        _tail_rule(prob, err, lambda rows: _bvn_rect_conditional(lower[rows], upper[rows], rho))
    elif float(df).is_integer() and 1 <= df <= _DS_MAX_DF:
        prob, err = _bv_rect(lower, upper, rho, int(df))
        _tail_rule(prob, err, lambda rows: _chi_rect(lower[rows], upper[rows], rho, df))
    else:
        prob, err = _chi_rect(lower, upper, rho, df)
    return np.clip(prob, 0.0, 1.0), err


# Intervals narrower than this, in units of max(1, |midpoint|), take the
# midpoint rule for their mass.  The cdf difference loses about
# eps / (width * max(1, |midpoint|)) of it to cancellation, while the rule's
# fourth-order term stays below 1e-13 of it.
_NARROW = 1e-3


def _uv_mass(lower, upper, df=None):
    """Univariate interval probabilities of the standard normal (``df`` None)
    or Student-t law, each interval reflected into the lower tail first so
    that upper-tail masses keep their relative accuracy.  Narrow intervals
    take the density at the midpoint times the width, with its second-order
    term ``f''(m) / f(m) * width**2 / 24``, free of cdf cancellation."""
    _, lo, hi = _lower_tail(lower, upper)
    mass = _cdf(hi, df) - _cdf(lo, df)
    with np.errstate(invalid="ignore"):
        mid, width = 0.5 * (lo + hi), hi - lo
        narrow = width * np.maximum(1.0, np.abs(mid)) < _NARROW
    if not np.any(narrow):
        return mass
    m2 = mid * mid
    if df is None:
        log_f = -0.5 * m2 - 0.5 * np.log(2.0 * np.pi)
        curv = m2 - 1.0
    else:
        log_f = (gammaln(0.5 * (df + 1.0)) - gammaln(0.5 * df) - 0.5 * np.log(df * np.pi)
                 - 0.5 * (df + 1.0) * np.log1p(m2 / df))
        curv = (df + 1.0) * ((df + 2.0) * m2 - df) / (df + m2) ** 2
    with np.errstate(invalid="ignore", over="ignore"):
        rule = np.exp(log_f) * width * (1.0 + curv * width * width / 24.0)
    return np.where(narrow, rule, mass)


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


def rect_prob_qmc(sigma, lower, upper, df=None, *, max_points=8192,
                  num_shifts=12, seed=7, target_abs_error=None):
    """Probability that a centred normal / Student-t vector lies in a box.

    One to three dimensions are exact (the univariate cdf;
    :func:`bivariate_rect_prob`, which sums Owen's form, or for an integer
    ``df`` up to ``_DS_MAX_DF`` the Dunnett-Sobel series, or else takes the
    chi rule; and tanh-sinh quadrature of the bivariate form in three, whose
    inner Student-t rectangles have ``df + 1`` degrees of freedom); the
    Sobol' settings ``max_points``, ``num_shifts``,
    ``seed`` and ``target_abs_error`` apply from four dimensions up, and
    at most 100 Sobol' dimensions are available: ``n - 1`` for the normal
    kernel, ``n`` for the Student-t.

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
        Sobol' points per scramble, evaluated in blocks of ``_BLOCK``
        points.  Any count is accepted; the points of a scramble are
        balanced (a net) when it is a power of two.
    num_shifts : int
        Number of independent scrambles (random shifts), each drawn from
        its own child of ``SeedSequence(seed)``; the spread of the
        per-scramble means yields the error estimate.  From ``_THREAD_MIN_DIM`` (12) dimensions up,
        the shifts are split into one group per CPU in
        ``os.sched_getaffinity(0)`` (at most ``num_shifts`` groups), run by
        the calling thread and as many pool threads as there are other
        groups; the result does not depend on the number of groups.
    seed : int
        Seed of the scrambles; fixes the result exactly.
    target_abs_error : float, optional
        Absolute error goal; when the first pass misses it, one refinement
        extends it to ``4 * max_points`` points of the same sequence: only
        the points after the first ``max_points`` are evaluated (still
        deterministic).

    Returns
    -------
    (prob, err) : pair of floats
        Estimated probability (clipped to ``[0, 1]``) and an error bound:
        from four dimensions up, three standard errors of the scramble
        means plus a relative rounding floor; in two dimensions the
        rounding floor of Owen's form or of the series, or the chi rule's
        estimate; in three the quadrature estimate.
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

    flip, lower, upper = _lower_tail(lower, upper)
    sign = np.where(flip, -1.0, 1.0)
    chol, lo, hi = _reordered_cholesky(sigma * np.outer(sign, sign), lower, upper)

    def estimate(means):
        prob = min(max(float(means.mean()), 0.0), 1.0)
        return prob, 3.0 * float(means.std(ddof=1)) / np.sqrt(num_shifts) + _TAIL_ROUND * prob

    sums = _lattice_sums(chol, lo, hi, df, seed, num_shifts, 0, max_points)
    prob, err = estimate(sums / max_points)
    if target_abs_error is not None and err > target_abs_error:
        # The Sobol' sequence extends, so the refinement adds the points
        # max_points .. 4 max_points - 1 to the sums of the first pass.
        sums += _lattice_sums(chol, lo, hi, df, seed, num_shifts, max_points, 4 * max_points)
        prob, err = estimate(sums / (4 * max_points))
    return prob, err
