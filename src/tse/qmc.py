"""Rectangle probabilities of centred normal and Student-t vectors.

Up to three dimensions, and four for the normal kernel or an integer number
of degrees of freedom up to ``_DS_MAX_DF - 2`` (:func:`_exact`), are
computed deterministically.  One dimension is the univariate cdf.  Two
dimensions use the exact bivariate normal cdf through Owen's T function
(Owen 1956).  The Student-t case with an integer number of degrees of
freedom up to ``_DS_MAX_DF`` sums the finite series of Dunnett & Sobel
(1954, *Biometrika* 41) in the form of Genz's ``BVTL`` (Genz 2004, *Stat.
Comput.* 14).  Every other box takes one nested conditional rule (Genz 2004
again): three and four dimensions; two dimensions of any other Student-t;
and the deep joint tails of two where the rounding floor of Owen's form or
of the series swamps the probability.  One coordinate is integrated on its
probability scale by tanh-sinh quadrature, and the others, given it, go in
one stacked call to the exact routine one dimension down.

All other boxes use separation-of-variables integration (Genz 1992):
every coordinate is reflected into its lower tail, the box
probability is rewritten as an integral over the unit cube by sequentially
conditioning along a reordered Cholesky factor, and the cube integral is
evaluated with scrambled Sobol' points.  The direction numbers are Joe &
Kuo's (2008, *SIAM J. Sci. Comput.* 30) for up to 100 dimensions; each
random shift is an independent linear matrix scramble plus digital shift
(Matousek 1998, *J. Complexity* 14).  The Student-t case adds one cube
dimension that carries the chi scale mixing variable.  One kernel serves
both laws; it walks the points in Gray-code order in blocks of a fixed
size, so its memory does not grow with the point count; Gray code is
linear over XOR, so a point is the XOR of entries of three tables made once
per call.  A Sobol' sequence is extensible, so a refinement to four times
the points adds the new points to the sums of the first pass.  The
scrambles are independent replicates, so the kernel splits them into one
group per CPU the process may use and runs the groups on threads.  Every
group walks the same blocks in the same order and sums without BLAS, so
results depend neither on the number of threads nor on BLAS's.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ._special import gammaincinv, gammaln, ndtr, ndtri, owens_t, stdtr, stdtrit
from .errors import NumericalError, SpecError

__all__ = ["rect_prob_qmc", "rect_probs"]

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


def _sobol_offsets(dirs, step, count):
    """Points ``0, step, .., (count - 1) step`` XOR their digital shift, as
    ``dirs.shape[:-1] + (count,)`` digits, ``step = 2**s``.  Gray code is
    linear over XOR and ``(q + 1) step ^ q step`` sets bits ``s .. s + c``,
    ``c = ctz(q + 1)`` the count of trailing zero bits, so point ``(q + 1)
    step`` is point ``q step`` XOR the direction numbers of bit ``s + c``
    and, if ``s > 0``, of bit ``s - 1``."""
    s = step.bit_length() - 1
    steps = dirs[..., s:] ^ dirs[..., s - 1, None] if s else dirs
    q = np.arange(count)
    out = np.empty(dirs.shape[:-1] + (count,), dtype=np.uint32)
    # Into the whole of ``out``, as numpy copies a strided one; entry 0 is 0.
    np.take(steps, np.bitwise_count((q & -q) - 1), axis=-1, out=out, mode="clip")
    out[..., 0] = 0
    return np.bitwise_xor.accumulate(out, axis=-1, out=out)


def _unit(x, out=None):
    """Sobol' digits mapped to the centres of their cells in (0, 1)."""
    return np.multiply(np.add(x, 0.5, out=out), 2.0 ** -_BITS, out=out)


# Conditional probabilities are clipped into [_TINY, _BELOW_ONE] before
# ``ndtri``, which keeps every probability above the smallest normal double
# at full relative accuracy.
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _standardise(sigma, lower, upper):
    """Correlation matrix and limits in units of the coordinate scales; a
    stack of dispersions ``(..., n, n)`` with limits ``(..., n)`` gives one
    per entry, each as it would alone."""
    scale = np.sqrt(np.diagonal(sigma, axis1=-2, axis2=-1))
    if np.any(scale <= 0.0) or not np.all(np.isfinite(scale)):
        raise NumericalError("dispersion matrix has a non-positive diagonal")
    corr = np.array(sigma, dtype=float)
    corr /= scale[..., :, None]
    corr /= scale[..., None, :]
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
# 8 * n * num_shifts * _BLOCK bytes, split among the shift groups.  On a
# shared 2-vCPU Xeon, two groups, 20 000 points refined to 80 000, blocks of
# 512, 1024, 2048, 4096, 8192 and 16384 points ran the 40-dimensional
# orthant in 671, 568, 540, 521, 512 and 502 ms at a peak RSS of 63, 63, 67,
# 75, 92 and 127 MB; 4- to 8-dimensional boxes ran 45-54 % slower at 512
# and 2-14 % faster at 4096.  A power of two makes every whole block a net
# of each scramble.  Every shift group walks the same blocks in the same
# order, so the per-shift sums do not depend on the number of groups.
_BLOCK = 2048
# Points per row of a block: the kernel keeps tables of _ROW and _BLOCK //
# _ROW points.  One table of _BLOCK points (_ROW = 2048) ran as fast and
# raised the orthant's peak RSS by 3.5 MB.
_ROW = 64

# Chi scale tables, one per (df, seed, num_shifts, qmc_dim), each holding
# points 0 .. n-1 of the first Sobol' dimension for the largest n asked for
# so far; a call that needs more points extends the table.  A small FIFO
# cache avoids recomputing them across the many rectangle probabilities one
# moment computation needs.  Entries are read-only.
_CHI_CACHE: dict = {}
_CACHE_CAP = 8

# Threads that run every shift group but the caller's, and the process
# that started them: a forked child has none of its parent's threads, so
# it starts its own pool.  Every lattice call uses them: on the Xeon above,
# two groups ran boxes of d = 4 (df 7.5), 5, 6 and 8, both kernels, 1.56 to
# 1.81 times as fast as one at 20 000 points (BLAS threads pinned or not)
# and 1.01 to 1.17 times at 1024.
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
    pool the others.  ``ndtr``, ``ndtri``, ``gammaincinv`` and numpy's loops
    release the GIL, so the groups run in parallel."""
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
    the blocks of ``_BLOCK`` points that cover them.

    The Student-t kernel spends the first Sobol' dimension on its chi scale
    ``r``; the normal kernel is the same loop with ``r = 1`` and the
    conditioning coordinates on Sobol' dimensions one lower.  An infinite
    limit gives ``c = 0`` or ``d = 1`` without a cdf call.

    The shifts are split into one group per CPU the process may use (at
    most ``num_shifts``), run on threads.  Each group fills its rows of a
    missing chi table (``sqrt(chisq_df^{-1}(u)/df)``) and then walks every
    block for its shifts only, into buffers the caller allocates:
    thread-local malloc arenas would keep them otherwise.
    """
    n = chol.shape[0]
    qmc_dim = n - 1 if df is None else n
    dirs, shifts = _scrambles(seed, num_shifts, qmc_dim)
    key = (df, seed, num_shifts, qmc_dim)
    chi, have = (None, stop) if df is None else _chi_table(key, num_shifts, stop)
    # Point base + q _ROW + j, base a multiple of _BLOCK and j < _ROW, is
    # point base XOR the offsets of q _ROW and of j (gray is linear).
    heads = shifts[..., None] ^ _sobol_offsets(dirs, _BLOCK, -(-stop // _BLOCK))
    mid, low = _sobol_offsets(dirs, _ROW, _BLOCK // _ROW), _sobol_offsets(dirs, 1, _ROW)
    k = min(_cpus(), num_shifts)
    groups = []
    for g in range(k):
        rows = slice(num_shifts * g // k, num_shifts * (g + 1) // k)
        m = rows.stop - rows.start
        groups.append((rows, np.empty((n - 1) * m * min(_BLOCK, stop - first)),
                       np.empty((m, _BLOCK // _ROW, _ROW), dtype=np.uint32)))
    sums = np.zeros(num_shifts)

    def walk(group):
        rows, buf, x = group
        m = rows.stop - rows.start

        def blocks(a, b):
            # For each block aligned to _BLOCK that covers points a .. b - 1:
            # its points base + j0 .. base + j1 - 1 there, and its points
            # base + q _ROW of every dimension.
            for base in range(a - a % _BLOCK, b, _BLOCK) if a < b else ():
                yield (base, max(a - base, 0), min(b - base, _BLOCK),
                       heads[rows, :, base // _BLOCK, None] ^ mid[rows])

        def digits(start, t, j0, j1):
            # The block's points on Sobol' dimension t.
            np.bitwise_xor(start[:, t, :, None], low[rows, t, None, :], out=x)
            return x.reshape(m, _BLOCK)[:, j0:j1]

        for base, j0, j1, start in blocks(have, stop):
            u = _unit(digits(start, 0, j0, j1))
            chi[rows, base + j0:base + j1] = np.sqrt(2.0 * gammaincinv(0.5 * df, u) / df)
        for base, j0, j1, start in blocks(first, stop):
            a, b = base + j0, base + j1
            r = 1.0 if chi is None else chi[rows, a:b]
            y = buf[:(n - 1) * m * (b - a)].reshape(n - 1, m, b - a)
            s = 0.0
            pv = np.ones((m, b - a))
            for i in range(n):
                if i > 0:
                    # y[i - 1] = ndtri(clip(c + u * width)), in place; the
                    # conditioned coordinates take the last n - 1 Sobol'
                    # dimensions.
                    u = _unit(digits(start, qmc_dim - n + i, j0, j1), out=y[i - 1])
                    u *= width
                    u += c
                    ndtri(np.clip(u, _TINY, _BELOW_ONE, out=u), out=u)
                    # Summed in the order of j, with no BLAS call.
                    s = np.einsum("j,jmb->mb", chol[i, :i], y[:i])
                c = 0.0 if lo[i] == -np.inf else ndtr(r * lo[i] - s)
                width = (1.0 if hi[i] == np.inf else ndtr(r * hi[i] - s)) - c
                pv *= width
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


def _tanh_sinh(step, half):
    """Tanh-sinh rule on (0, 1) with nodes ``t = k * step``, ``|k| <= half``.

    Returns, per node, whether it lies below 1/2, its distance to the nearer
    end of the interval (free of cancellation at either end), its weight,
    and whether it also belongs to the rule with twice the step.
    """
    k = np.arange(-half, half + 1)
    t = step * k
    y = 0.5 * np.pi * np.sinh(t)
    weight = step * 0.25 * np.pi * np.cosh(t) / np.cosh(y) ** 2
    return t < 0.0, 1.0 / (1.0 + np.exp(2.0 * np.abs(y))), weight, k % 2 == 0


# The 2-D and 3-D levels of the nested rule take step 1/16 (103 nodes,
# |t| <= 3.2, about 2e-17 of the mass left out), the outer level
# of a 4-D box step 1/8 (51 nodes), which halves its inner rows.  Against
# step 1/32 at every level, on random, orthant, deep-tail and strongly
# correlated boxes, step 1/8 there moved 4-D values by at most 1.2e-13
# (normal) and 9e-15 (integer df 1 to 30), and at the 3-D level it would
# have moved Student-t values by up to 1.4e-10 (df 0.5).
_TS = _tanh_sinh(1.0 / 16.0, 51)
_TS_4D = _tanh_sinh(1.0 / 8.0, 25)


def _ts_sum(values, scale=1.0, rule=_TS):
    """Tanh-sinh sums over the last axis: the estimate and its gap to the
    rule with twice the step."""
    _, _, weight, coarse = rule
    fine = scale * (values @ weight)
    coarse = 2.0 * scale * (values[..., coarse] @ weight[coarse])
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


# Largest integer df that takes the Dunnett-Sobel series.  On one row (2-vCPU
# Xeon) it took 0.77-0.81 times the time of the nested rule's 2-D level at
# df 32, met it near df 45 on a half-open box and still took 0.93-0.97 times
# it at df 47-48 on a finite one.  The cap also decides which 4-D boxes are
# exact (:func:`_exact`), whose inner rows have df + 2.
_DS_MAX_DF = 32
# Corners with a finite limit beyond this magnitude leave the series to the
# nested rule: there an odd-df angle just short of a full turn could no
# longer be told from 0.
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
    x = np.where(big, 0.0, np.array([h, k]))
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


def _bvt_row(nu, lower, upper, r):
    """:func:`_bv_rect` of one Student-t row, ``(2,)`` limits and integer
    ``nu``, on Python floats: on one row, numpy's per-call cost is most of
    the stacked form's time.  The reflection and each corner repeat the
    stacked form's operations in its order, so the result is bit-identical;
    the angles take ``np.arctan2``, which ``math.atan2`` differs from by an
    ulp on some corners."""
    (a0, a1), (b0, b1) = lower.tolist(), upper.tolist()
    f0, f1 = a0 > -b0, a1 > -b1
    lo0, hi0 = (-b0, -a0) if f0 else (a0, b0)
    lo1, hi1 = (-b1, -a1) if f1 else (a1, b1)
    r = -r if f0 != f1 else r
    # The even-df series starts every finite corner from the same angle.
    angle = None if nu % 2 else float(
        np.arctan2(math.sqrt((1.0 - r) * (1.0 + r)), -r)) / (2.0 * math.pi)
    (v0, m0), (v1, m1), (v2, m2), (v3, m3) = (
        _bvt_corner(nu, h, k, r, angle)
        for h, k in ((hi0, hi1), (lo0, hi1), (hi0, lo1), (lo0, lo1)))
    return v0 - v1 - v2 + v3, _ROUND * (m0 + m1 + m2 + m3)


def _bvt_corner(nu, h, k, r, angle):
    """One corner of :func:`_bvt_lower` on Python floats: its value and
    magnitude; ``angle`` is the even-df value of :func:`_bvt_row`."""
    if h == -math.inf or k == -math.inf:
        return 0.0, 0.0
    if h == math.inf or k == math.inf:
        p = float(stdtr(nu, k if h == math.inf else h))
        return p, p
    # As np.maximum, a NaN limit makes no corner big.
    big = (abs(h) > _DS_BIG or abs(k) > _DS_BIG) and h == h and k == k
    if big:
        h = k = 0.0
    ors = (1.0 - r) * (1.0 + r)
    terms, g_sums = [], []
    for x, y in ((h, k), (k, h)):
        sq = x * x
        dev = y - r * x
        wide = ors * (nu + sq)
        q = dev * dev + wide
        arg, comp = dev * dev / q, wide / q
        sign = -1.0 if dev < 0.0 else 1.0
        shrink = 1.0 / (1.0 + sq / nu)
        if nu % 2 == 0:
            g = x / math.sqrt(16.0 * (nu + sq))
            b = 2.0 / math.pi * float(np.arctan2(abs(dev), math.sqrt(wide)))
            d = 2.0 / math.pi * math.sqrt(arg * comp)
        else:
            g = x * shrink / (2.0 * math.pi * math.sqrt(nu))
            b = d = math.sqrt(arg)
        t = g_sum = 0.0
        for j in range(1, (nu + 2) // 2):
            t = t + g * (1.0 + sign * b)
            g_sum = g_sum + g
            if nu % 2 == 0:
                b = b + d
                d = d * comp * (2 * j / (2 * j + 1))
                g = g * shrink * ((2 * j - 1) / (2 * j))
            else:
                d = d * comp * ((2 * j - 1) / (2 * j))
                b = b + d
                g = g * shrink * (2 * j / (2 * j + 1))
        terms.append(t)
        g_sums.append(g_sum)
    if nu % 2 == 0:
        val = angle
        size = abs(val)
    else:
        # The loop's last q is that of the terms in k.
        hk, qhrk = h * k, math.sqrt(q)
        hkrn, hkn, hpk = hk + r * nu, hk - nu, h + k
        val = float(np.arctan2(-math.sqrt(nu) * (hkn * qhrk + hpk * hkrn),
                               hkn * hkrn - nu * hpk * qhrk)) / (2.0 * math.pi)
        val = val + 1.0 if val < -1e-15 else val
        size = abs(val) + 0.5 / math.pi
    mag = math.inf if big else size + 2.0 * (abs(g_sums[0]) + abs(g_sums[1]))
    return val + (terms[0] + terms[1]), mag


def _lower_tail(lower, upper):
    """Reflect each interval that leans into the upper tail, so that its
    limits sit in the accurate lower tail of the cdf.  Returns which
    intervals were reflected and the new limits."""
    flip = lower > -upper
    return flip, np.where(flip, -upper, lower), np.where(flip, -lower, upper)


def _cdf(z, df=None):
    """Standard normal (``df`` None) or Student-t cdf."""
    return ndtr(z) if df is None else stdtr(df, z)


def _bv_rect(lower, upper, r, df=None):
    """``P(lower <= Z <= upper)`` for standard bivariate normal rows
    (``df`` None, Owen's form) or Student-t rows (integer ``df``, the
    Dunnett-Sobel series).

    ``lower`` and ``upper`` are ``(..., 2)``; ``r`` broadcasts against the
    leading shape.  Each row is reflected into the lower tail first, which
    negates ``r`` where exactly one coordinate flips.  Returns the
    probabilities and their rounding floors.
    """
    flip, lo, hi = _lower_tail(lower, upper)
    r = r * np.where(flip[..., 0] ^ flip[..., 1], -1.0, 1.0)
    h = np.array([hi[..., 0], lo[..., 0], hi[..., 0], lo[..., 0]])
    k = np.array([hi[..., 1], hi[..., 1], lo[..., 1], lo[..., 1]])
    val, mag = _bvn_lower(h, k, r) if df is None else _bvt_lower(df, h, k, r)
    return val[0] - val[1] - val[2] + val[3], _ROUND * mag.sum(axis=0)


def _check_df(df):
    """Refuse degrees of freedom that are not positive, NaN included."""
    if df is not None and not df > 0:
        raise SpecError(f"degrees of freedom must be positive, got {df!r}")


def _bivariate(rho, lower, upper, df=None, weight=None, group=None):
    """Exact rectangle probabilities, clipped to ``[0, 1]``, and error
    estimates of ``(m, 2)`` rows of standardised limits, for
    :func:`rect_probs` at ``n = 2`` and the nested rule's inner rows.

    The normal kernel sums Owen's form and an integer ``df`` up to
    ``_DS_MAX_DF`` the Dunnett-Sobel series, each exact up to a rounding
    floor proportional to the magnitude of the terms it sums; every row of
    any other ``df`` takes the two-dimensional level of the nested rule.
    ``rho`` is one correlation shared by every row, or an ``(m,)`` array of
    one per row.  Owen's form and the series broadcast it element by
    element, and a row of its own correlation that takes the nested rule
    takes it alone (:func:`_nested_2d`), so each such row gets the bits of
    a stack of that one row.  A stack of one Student-t row with no outer
    ``weight`` sums the series on Python floats (:func:`_bvt_row`),
    bit-identical to the stacked form, and returns it clipped at once if it
    needs no tail rule, because numpy's per-call cost on one-element arrays
    is most of the stacked form's time on one row; larger stacks keep the
    stacked form.  A row of the closed form takes the nested rule where its
    estimate exceeds ``_TAIL_REL`` of its probability.  Given the nested
    rule's outer ``weight`` of each row and the ``group`` (outermost row)
    it belongs to, such a row keeps the closed form, with twice its value
    added to its estimate, where that bound, weighted, stays within
    ``_TAIL_REL`` of the mean weighted value of its group's rows that need
    no tail rule: nodes of negligible weight."""
    per_row = isinstance(rho, np.ndarray)
    if not ((1.0 - rho * rho > 1e-14).all() if per_row else 1.0 - rho * rho > 1e-14):
        raise NumericalError("dispersion matrix is numerically singular")
    if not (df is None or float(df).is_integer() and 1 <= df <= _DS_MAX_DF):
        prob, err = _nested_2d(rho, lower, upper, df)
        return np.clip(prob, 0.0, 1.0), err
    if df is not None and weight is None and lower.shape[0] == 1:
        prob, err = _bvt_row(int(df), lower[0], upper[0], float(rho[0] if per_row else rho))
        if err <= _TAIL_REL * prob:
            return np.array([min(max(prob, 0.0), 1.0)]), np.array([err])
        prob, err = np.array([prob]), np.array([err])
    else:
        prob, err = _bv_rect(lower, upper, rho, None if df is None else int(df))
    sure = err <= _TAIL_REL * prob
    if weight is not None and not sure.all():
        share = np.bincount(group, weight * np.where(sure, prob, 0.0)) / np.bincount(group)
        bound = 2.0 * np.abs(prob) + err
        small = ~sure & (weight * bound <= _TAIL_REL * share[group])
        err[small] = bound[small]
        sure |= small
    tail = np.flatnonzero(~sure)
    if tail.size:
        p_tail, e_tail = _nested_2d(rho[tail] if per_row else rho, lower[tail], upper[tail], df)
        better = e_tail < err[tail]
        prob[tail[better]] = p_tail[better]
        err[tail[better]] = e_tail[better]
    return np.clip(prob, 0.0, 1.0), err


def _nested_2d(rho, lower, upper, df):
    """:func:`_nested_rect` of ``(m, 2)`` rows of one correlation ``rho``,
    or of one correlation per row, each row then in a call of its own."""
    if not isinstance(rho, np.ndarray):
        return _nested_rect(np.array([[1.0, rho], [rho, 1.0]]), lower, upper, df)
    rows = [_nested_rect(np.array([[1.0, r], [r, 1.0]]), lower[i:i + 1], upper[i:i + 1], df)
            for i, r in enumerate(rho.tolist())]
    return np.concatenate([p for p, _ in rows]), np.concatenate([e for _, e in rows])


# Intervals narrower than this, in units of max(1, |midpoint|), take the
# midpoint rule for their mass.  The cdf difference loses about
# eps / (width * max(1, |midpoint|)) of it to cancellation, while the rule's
# fourth-order term stays below 1e-13 of it.
_NARROW = 1e-3


def _uv_mass(lower, upper, df=None, with_floor=False):
    """Univariate interval probabilities of stacked rows of the standard
    normal (``df`` None) or Student-t law, each interval reflected into the
    lower tail first so that upper-tail masses keep their relative accuracy.
    Narrow intervals take the density at the midpoint times the width, with
    its second-order term ``f''(m) / f(m) * width**2 / 24``, free of cdf
    cancellation.  One interval on Python floats takes :func:`_uv_prob`.
    ``with_floor`` also returns the rounding floors, those of the larger cdf
    of each reflected interval, for :func:`rect_probs` at ``n = 1``, its one
    user, which would otherwise evaluate that cdf twice: on the 10 712 inner
    rows of one 3-D nested rule at ``df = 4.5`` that took 7.1 ms against
    4.5 ms (2-CPU x86 machine)."""
    _, lo, hi = _lower_tail(lower, upper)
    top = _cdf(hi, df)
    mass = top - _cdf(lo, df)
    with np.errstate(invalid="ignore"):
        mid, width = 0.5 * (lo + hi), hi - lo
        narrow = width * np.maximum(1.0, np.abs(mid)) < _NARROW
    if narrow.any():
        with np.errstate(invalid="ignore", over="ignore"):
            m2 = mid * mid
            if df is None:
                log_f = -0.5 * m2 - 0.5 * np.log(2.0 * np.pi)
                curv = m2 - 1.0
            else:
                log_f = (gammaln(0.5 * (df + 1.0)) - gammaln(0.5 * df)
                         - 0.5 * np.log(df * np.pi) - 0.5 * (df + 1.0) * np.log1p(m2 / df))
                curv = (df + 1.0) * ((df + 2.0) * m2 - df) / (df + m2) ** 2
            rule = np.exp(log_f) * width * (1.0 + curv * width * width / 24.0)
        mass = np.where(narrow, rule, mass)
    return (mass, _ROUND * top) if with_floor else mass


def _uv_prob(var, lower, upper, df=None):
    """:func:`rect_prob_qmc` of one coordinate of variance ``var`` on Python
    floats: the probability, clipped to ``[0, 1]``, and its rounding floor,
    ``_ROUND`` times the cdf at the reflected upper limit, bit-identical to
    :func:`rect_probs` of the standardised interval (its reflection, cdf
    difference and floor, or :func:`_uv_mass` on a narrow interval).  It is
    the one scalar home of a coordinate's interval mass: besides
    :func:`rect_prob_qmc` at ``n = 1``, it gives the face recursion its
    one-coordinate faces and ``truncated._held`` the masses that decide its
    holds, of which a one-coordinate report takes its box mass."""
    if not 0.0 < var < math.inf:
        raise NumericalError("dispersion matrix has a non-positive diagonal")
    scale = math.sqrt(var)
    lo, hi = lower / scale, upper / scale
    a, b = (-hi, -lo) if lo > -hi else (lo, hi)
    top = _cdf(b, df)
    if (b - a) * max(1.0, abs(0.5 * (a + b))) < _NARROW:
        mass = _uv_mass(np.array([lo]), np.array([hi]), df)[0]
    else:
        mass = top - _cdf(a, df)
    return float(min(max(mass, 0.0), 1.0)), float(_ROUND * top)


# -- the nested conditional rule ---------------------------------------------

# Largest |x| kept at the outer Student-t nodes: end nodes whose probability
# rounds to 0 or 1 would otherwise map to an infinite coordinate.
_T_NODE_CAP = 1e150
# The outer rule is split where an inner limit's conditional cdf steps
# sharply, at ``x = limit / r_j``: steps narrower than ``_STEP_WIDTH`` in
# ``x`` get edges at the step and ``_STEP_SPAN`` widths either side of it.
_STEP_WIDTH = 0.25
_STEP_SPAN = 8.0


def _nested_rect(corr, lower, upper, df=None, outer=None, group=None):
    """``P(lower <= Z <= upper)`` for ``(m, n)`` rows, ``n`` from 2 to 4, of
    a standardised law with correlation ``corr``, by the nested conditional
    form (Genz 2004).

    One coordinate is integrated on its probability scale by the tanh-sinh
    rule, reflected into its lower tail per row: the one of smallest mass
    summed over the rows (at ``n = 2``, where a swap keeps the correlation,
    each row's own; at ``n = 4``, one of a pair correlated sharply enough to
    step, whose partner's deep conditional tail is then integrated one level
    down).  Pieces take their masses from :func:`_uv_mass`.  Given it at
    ``x``, the others are centred at ``r_j x``, with scales
    ``s_j = sqrt(1 - r_j**2)`` and correlations ``(r_jk - r_j r_k) /
    (s_j s_k)``, which the reflection leaves alone; for the Student-t they
    have ``df + 1`` degrees of freedom and scales times
    ``sqrt((df + x**2) / (df + 1))``.  So one stacked call one level down
    serves every node of every row; it carries each inner row's ``outer``
    weight and ``group`` (outermost row) down to the bivariate level, which
    leaves deep-tail rows of negligible weight to the closed form.  Where an
    inner limit's conditional cdf steps sharply in ``x``, the outer interval
    is split at the step and on either side of it.  Returns the
    probabilities and their estimates: the outer step gaps plus the
    weighted inner estimates, the rounding floors of the cdf differences and
    a relative rounding floor.
    """
    m, n = lower.shape
    mass = _uv_mass(lower, upper, df)
    key = mass if n == 2 else mass.sum(axis=0, keepdims=True)
    if n == 4:
        key = key - m * (np.abs(corr - np.eye(n)).max(axis=0) * np.hypot(1.0, _STEP_WIDTH) > 1.0)
    order = np.argsort(key, axis=1, kind="stable")
    rows = np.arange(m)[:, None]
    lower, upper, width = lower[rows, order], upper[rows, order], mass[rows, order[:, :1]]
    corr = corr[order[0]][:, order[0]]
    r = corr[1:, 0]
    s2 = (1.0 - r) * (1.0 + r)
    if (s2 <= 1e-14).any():
        raise NumericalError("dispersion matrix is numerically singular")
    s = np.sqrt(s2)
    inner_corr = (corr[1:, 1:] - r[:, None] * r) / (s[:, None] * s)
    # Steps at x = limit / r_j, of width s_j / |r_j| in x times the Student-t
    # scale factor there, which is at least sqrt(df / (df + 1)).
    sharp = s < _STEP_WIDTH * np.abs(r) * (1.0 if df is None else (1.0 + 1.0 / df) ** 0.5)
    flip, lo, hi = _lower_tail(lower[:, 0], upper[:, 0])
    r = r * np.where(flip, -1.0, 1.0)[:, None]

    edges = np.array([lo, hi]).T
    if sharp.any():
        with np.errstate(divide="ignore", invalid="ignore"):
            at = np.stack([lower[:, 1:], upper[:, 1:]], axis=-1) / r[..., None]
            step = (s / np.abs(r))[..., None] * (
                1.0 if df is None else np.sqrt((df + at * at) / (df + 1.0)))
            cuts = at[..., None] + step[..., None] * np.array([-_STEP_SPAN, 0.0, _STEP_SPAN])
        inside = (np.isfinite(at) & (step < _STEP_WIDTH))[..., None] \
            & (lo[:, None, None, None] < cuts) & (cuts < hi[:, None, None, None])
        cuts = np.sort(np.where(inside, cuts, np.inf).reshape(m, -1), axis=1)
        edges = np.concatenate([edges[:, :1], np.minimum(cuts, hi[:, None]), edges[:, 1:]], axis=1)
        width = _uv_mass(edges[:, :-1], edges[:, 1:], df)
    edges = _cdf(edges, df)
    # Only pieces of positive mass are integrated, each on its own row.
    row, piece = np.nonzero(width > 0.0)
    start, stop, width = edges[row, piece], edges[row, piece + 1], width[row, piece]

    rule = _TS_4D if n == 4 else _TS
    low, dist, weight, _ = rule
    v = np.where(low, start[:, None] + width[:, None] * dist, stop[:, None] - width[:, None] * dist)
    if df is None:
        # End nodes can round to v = 0 or 1; keep x finite there.
        x = np.clip(ndtri(v), -40.0, 40.0)
        scale = s
    else:
        # stdtrit maps a probability of exactly 0 to +inf.
        x = np.clip(stdtrit(df, np.maximum(v, _TINY)), -_T_NODE_CAP, _T_NODE_CAP)
        scale = s * np.sqrt((df + x * x) / (df + 1.0))[..., None]
        df = df + 1.0
    shift = r[row, None, :] * x[..., None]
    ilo = ((lower[row, None, 1:] - shift) / scale).reshape(-1, n - 1)
    ihi = ((upper[row, None, 1:] - shift) / scale).reshape(-1, n - 1)
    if n == 2:
        inner, inner_err = rect_probs(inner_corr, ilo, ihi, df)
    else:
        wt = (width[:, None] * weight * (1.0 if outer is None else outer[row, None])).ravel()
        grp = np.repeat(row if group is None else group[row], weight.size)
        inner, inner_err = (_bivariate(inner_corr[0, 1], ilo, ihi, df, wt, grp) if n == 3
                            else _nested_rect(inner_corr, ilo, ihi, df, wt, grp))
    inner, inner_err = inner.reshape(v.shape), inner_err.reshape(v.shape) @ weight
    prob, gap = _ts_sum(inner, width, rule)
    # The pieces' masses round like those of _uv_mass.
    floor = _ROUND * np.minimum(stop, 1.0 - start) * (inner @ weight)
    prob = np.bincount(row, prob, m)
    return prob, np.bincount(row, gap + width * inner_err + floor, m) + _TAIL_ROUND * prob


def _exact(n, df=None):
    """Whether an ``n``-dimensional box is exact rather than a lattice call,
    by the rule of the module docstring: at four dimensions a Student-t
    box's inner rectangles have ``df + 2`` and must take the series."""
    return n <= 3 or n == 4 and (df is None or float(df).is_integer() and df + 2 <= _DS_MAX_DF)


def rect_probs(corr, lower, upper, df=None, **lattice):
    """``P(lower <= Z <= upper)`` and error estimates for ``(m, n)`` arrays of
    standardised limits, one box per row; the stacked entry.

    The rows share the ``(n, n)`` correlation ``corr``, or, at ``n = 2``,
    have one each: ``corr`` of shape ``(m, 2, 2)``, and then each row gets
    the bits of a call of its own (see :func:`_bivariate`).  Where
    :func:`_exact` holds, one stacked exact call serves every row, at
    ``n = 1`` :func:`_uv_mass` with its floors, which :func:`_uv_prob`
    repeats bit for bit on one interval, and at ``n = 2``
    :func:`_bivariate`; otherwise each row is a lattice call of
    :func:`rect_prob_qmc` with the keyword settings ``lattice``.  Returns
    two ``(m,)`` arrays."""
    _check_df(df)
    m, n = lower.shape
    if not _exact(n, df):
        out = [rect_prob_qmc(corr, a, b, df, **lattice) for a, b in zip(lower, upper)]
        return np.reshape(out, (m, 2)).T
    if n == 1:
        return _uv_mass(lower[:, 0], upper[:, 0], df, with_floor=True)
    if n == 2:
        return _bivariate(corr[:, 0, 1] if corr.ndim == 3 else float(corr[0, 1]),
                          lower, upper, df)
    return _nested_rect(corr, lower, upper, df)


def rect_prob_qmc(sigma, lower, upper, df=None, *, max_points=8192,
                  num_shifts=12, seed=7, target_abs_error=None):
    """Probability that a centred normal / Student-t vector lies in a box.

    One coordinate takes :func:`_uv_prob`, the univariate cdf difference
    on Python floats, bit-identical to :func:`rect_probs` at ``n = 1``.
    Other boxes that the rule of the module docstring (:func:`_exact`)
    calls exact take :func:`rect_probs`, and the rest the lattice.
    The Sobol' settings ``max_points``, ``num_shifts``, ``seed`` and
    ``target_abs_error`` apply to lattice calls only, and at most 100
    Sobol' dimensions are available: ``n - 1`` for the normal kernel, ``n``
    for the Student-t.

    Parameters
    ----------
    sigma : (n, n) array
        Positive-definite dispersion matrix.
    lower, upper : (n,) arrays
        Box limits, ``lower <= upper`` and none NaN; entries may be
        ``-inf`` / ``+inf``.  Coordinates that are unbounded on both sides
        must be removed by the caller beforehand.
    df : float, optional
        Student-t degrees of freedom, positive; ``None`` selects the normal
        kernel.
    max_points : int
        Sobol' points per scramble, evaluated in blocks of ``_BLOCK``
        points.  Any count is accepted; the points of a scramble are
        balanced (a net) when it is a power of two.
    num_shifts : int
        Number of independent scrambles (random shifts), each drawn from
        its own child of ``SeedSequence(seed)``; the spread of the
        per-scramble means yields the error estimate.  The shifts are
        split into one group per CPU in ``os.sched_getaffinity(0)`` (at
        most ``num_shifts`` groups), run by the calling thread and as many
        pool threads as there are other groups; the result does not depend
        on the number of groups.
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
        on the lattice, three standard errors of the scramble means plus a
        relative rounding floor; otherwise the rounding floor of the cdf
        difference, of Owen's form or of the series, or the estimate of the
        nested rule.
    """
    _check_df(df)
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = lower.size
    if n == 0:
        return 1.0, 0.0
    if not np.all(lower <= upper):
        raise NumericalError("a lower limit exceeds its upper limit or a limit is NaN")

    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if n == 1:
        return _uv_prob(float(sigma[0, 0]), float(lower[0]), float(upper[0]), df)
    if _exact(n, df):
        corr, lo, hi = _standardise(sigma, lower, upper)
        prob, err = rect_probs(corr, lo[None], hi[None], df)
        return float(min(max(prob[0], 0.0), 1.0)), float(err[0])

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
