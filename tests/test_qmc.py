"""``rect_prob_qmc``: its lattice kernel (four dimensions with a non-integer
df, five and up) and the nested four-dimensional rule that replaced it for
the normal kernel and integer df."""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tse.qmc as qmc_mod
from tse.elliptical import RectangleProbSettings
from tse.errors import NumericalError, SpecError
from tse.qmc import _uv_mass, rect_prob_qmc


def _corr(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d + 2))
    c = a @ a.T / (d + 2)
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


_SCALES4 = np.array([1.0, 2.0, 0.5, 1.5])
_BOX4 = (np.array([-1.0, -1.5, -1.0, -2.0]), np.array([1.5, 2.0, 0.3, 1.0]))
_UPPER_OPEN5 = (np.array([-0.5, 0.2, -1.0, 0.0, -0.3]), np.full(5, np.inf))
_MIXED6 = (np.array([-np.inf, -1.0, -0.5, -np.inf, -2.0, 0.1]),
           np.array([1.0, np.inf, 1.5, 0.4, 2.0, np.inf]))

# (sigma, lower, upper, df, keyword settings) and the probability of the
# scrambled Sobol' kernel.  Each value lies within its own error estimate of
# a reference at 2**18 points per shift and 16 shifts (seed 12345).  The
# 5-D and 6-D values also lie within the error bound of the value that the
# Kronecker lattice before them gave.
GOLDEN = {
    "t2.5-4d-box": ((_corr(4, 3) * np.outer(_SCALES4, _SCALES4),) + _BOX4 + (2.5, {}),
                    0.21032528089426883),
    "t7-5d-upper-open": ((_corr(5, 4),) + _UPPER_OPEN5 + (7.0, {}), 0.06314165860016169),
    "t7-5d-refined": ((_corr(5, 4),) + _UPPER_OPEN5
                      + (7.0, {"max_points": 3000, "target_abs_error": 1e-9}),
                      0.06314085603851616),
    "normal-5d-refined": ((_corr(5, 4),) + _UPPER_OPEN5
                          + (None, {"max_points": 2000, "target_abs_error": 1e-9}),
                          0.06635248677695733),
    "normal-6d-odd-points": ((_corr(6, 5),) + _MIXED6 + (None, {"max_points": 10_007}),
                             0.10834523909151904),
}


@pytest.mark.parametrize("case", GOLDEN, ids=str)
def test_golden_values(case):
    (sigma, lo, hi, df, kw), expected = GOLDEN[case]
    qmc_mod._CHI_CACHE.clear()
    p, _ = rect_prob_qmc(sigma, lo, hi, df, **kw)
    assert p == pytest.approx(expected, rel=1e-13, abs=0)


def test_golden_settings_cover_partial_blocks_and_refinement():
    assert any(kw.get("max_points", RectangleProbSettings().max_points) % qmc_mod._BLOCK
               for (*_, kw), _ in GOLDEN.values())
    for case in ("t7-5d-refined", "normal-5d-refined"):
        (sigma, lo, hi, df, kw), _ = GOLDEN[case]
        _, err = rect_prob_qmc(sigma, lo, hi, df, max_points=kw["max_points"])
        assert err > kw["target_abs_error"]


@pytest.mark.parametrize("df", [None, 7.0])
def test_refinement_extends_the_first_pass(df):
    # A Sobol' sequence in Gray-code order is extensible: the refined call
    # at N points is the unrefined call at 4N points, up to the order of the
    # sums.
    sigma, (lo, hi) = _corr(5, 4), _UPPER_OPEN5
    n = 2500
    refined, _ = rect_prob_qmc(sigma, lo, hi, df, max_points=n, target_abs_error=1e-12)
    full, _ = rect_prob_qmc(sigma, lo, hi, df, max_points=4 * n)
    assert abs(refined - full) <= 1e-15


def test_fixed_seed_repeats_exactly():
    sigma, (lo, hi) = _corr(5, 4), _UPPER_OPEN5
    first = rect_prob_qmc(sigma, lo, hi, 7.0, target_abs_error=1e-9)
    qmc_mod._CHI_CACHE.clear()
    assert rect_prob_qmc(sigma, lo, hi, 7.0, target_abs_error=1e-9) == first


def test_high_dimensional_orthant_memory():
    # Holding every lattice point of the refinement at once peaked at 623 MB.
    d = 40
    sigma = 0.5 * np.eye(d) + 0.5
    tracemalloc.start()
    try:
        p, err = rect_prob_qmc(sigma, np.zeros(d), np.full(d, np.inf),
                               target_abs_error=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert abs(p - 1.0 / (d + 1)) <= err
    # The value of the kernel before the block tables and the BLAS-free
    # conditioning sums: their order of summation moves no digit here.
    assert p == pytest.approx(0.024393851782928494, rel=1e-15, abs=0)


def test_refinement_extends_the_chi_table(monkeypatch):
    # The refinement computes chi factors only for points 3001 .. 12000, and
    # the longer table replaces the shorter one in the cache.
    evals = []
    gammaincinv = qmc_mod.gammaincinv
    monkeypatch.setattr(qmc_mod, "gammaincinv",
                        lambda a, u: evals.append(u.size) or gammaincinv(a, u))
    (sigma, lo, hi, df, kw), expected = GOLDEN["t7-5d-refined"]
    qmc_mod._CHI_CACHE.clear()
    p, _ = rect_prob_qmc(sigma, lo, hi, df, **kw)
    assert p == expected
    assert sum(evals) == 12 * 4 * kw["max_points"]
    assert [t.shape for t in qmc_mod._CHI_CACHE.values()] == [(12, 4 * kw["max_points"])]


# Refined calls that end in partial blocks, for both kernels and a cold chi
# table, split into shift groups of equal and unequal sizes.
POOL_CASES = {
    "normal-5d-refined": (_corr(5, 4),) + _UPPER_OPEN5
    + (None, {"max_points": 2500, "target_abs_error": 1e-12}),
    "t7-5d-refined": (_corr(5, 4),) + _UPPER_OPEN5
    + (7.0, {"max_points": 2500, "target_abs_error": 1e-12}),
    "t3-6d-odd-points": (_corr(6, 5),) + _MIXED6 + (3.0, {"max_points": 10_007}),
}


@pytest.mark.parametrize("case", POOL_CASES, ids=str)
def test_result_does_not_depend_on_the_cpu_count(case, monkeypatch):
    sigma, lo, hi, df, kw = POOL_CASES[case]
    results = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)),
                            raising=False)
        qmc_mod._CHI_CACHE.clear()
        results.append(rect_prob_qmc(sigma, lo, hi, df, **kw))
    assert qmc_mod._POOL_SIZE >= 4
    assert results[0] == results[1] == results[2]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_lattice_call_in_forked_child(monkeypatch):
    # The child inherits the parent's pool object but none of its threads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    sigma, (lo, hi) = _corr(5, 4), _UPPER_OPEN5
    expected = rect_prob_qmc(sigma, lo, hi, 7.0, max_points=3000)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    child = ctx.Process(
        target=lambda: queue.put(rect_prob_qmc(sigma, lo, hi, 7.0, max_points=3000)))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    assert queue.get() == expected


def test_every_lattice_call_runs_on_threads(monkeypatch):
    # A 4-D box at integer df is exact and reaches no kernel; at df 7.5 it is
    # the smallest lattice call, and it splits its shifts like a 5-D one.
    sizes = []
    run_groups = qmc_mod._run_groups
    monkeypatch.setattr(qmc_mod, "_run_groups",
                        lambda work, groups: sizes.append(len(groups)) or run_groups(work, groups))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for d, df in ((4, 7.0), (4, 7.5), (5, None)):
        rect_prob_qmc(_corr(d, 6), np.zeros(d), np.full(d, np.inf), df, max_points=2048)
    assert sizes == [2, 2]


def test_import_starts_no_thread():
    code = "import threading, tse.cli; print(threading.active_count())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.strip() == "1"


def _sobol_rows(dirs, shifts, first, stop):
    # Points first .. stop-1 of one Sobol' dimension by the Gray-code
    # recurrence: point i + 1 is point i XOR dirs[:, ctz(i + 1)].
    x = np.empty((shifts.size, stop - first), dtype=np.uint32)
    gray = first ^ (first >> 1)
    x[:, 0] = shifts
    for k in range(gray.bit_length()):
        if gray >> k & 1:
            x[:, 0] ^= dirs[:, k]
    i = np.arange(first + 1, stop)
    x[:, 1:] = dirs[:, np.bitwise_count((i & -i) - 1)]
    return np.bitwise_xor.accumulate(x, axis=1)


def _walked_points(dirs, shifts, first, stop):
    # Points first .. stop-1 as the kernel composes them, block by block:
    # the block's first point XOR the offsets of its rows and of their points.
    B, R = qmc_mod._BLOCK, qmc_mod._ROW
    heads = shifts[..., None] ^ qmc_mod._sobol_offsets(dirs, B, -(-stop // B))
    mid, low = qmc_mod._sobol_offsets(dirs, R, B // R), qmc_mod._sobol_offsets(dirs, 1, R)
    blocks = [(heads[..., a // B, None, None] ^ mid[..., None] ^ low[..., None, :]).reshape(
        shifts.shape + (B,))[..., max(first - a, 0):stop - a]
        for a in range(first - first % B, stop, B)]
    return np.concatenate(blocks, axis=-1)


def test_unscrambled_points_match_scipy():
    from scipy.stats import qmc

    n = 4096
    v = qmc_mod._direction_table()
    ours = _walked_points(v, np.zeros(v.shape[0], np.uint32), 0, n).T
    expected = qmc.Sobol(v.shape[0], scramble=False, bits=32).random(n)
    assert np.array_equal(ours * 2.0 ** -32, expected)
    assert np.array_equal(ours.T[3], _sobol_rows(v[None, 3], np.zeros(1, np.uint32), 0, n)[0])


def test_points_are_walked_in_blocks_of_the_same_sequence():
    # Aligned blocks, an unaligned first point (a refinement from 2500) and a
    # partial last block all give the points of the Gray-code recurrence.
    dirs, shifts = qmc_mod._scrambles(7, 12, 3)
    for first, stop in ((0, 4096), (2500, 10_000), (0, 10_007)):
        walked = _walked_points(dirs, shifts, first, stop)
        for t in range(3):
            assert np.array_equal(walked[:, t],
                                  _sobol_rows(dirs[:, t], shifts[:, t], first, stop))
    # Every scramble of a 2**k-point prefix puts one point in each of 2**k cells.
    cells = np.sort(_walked_points(dirs, shifts, 0, 2048)[:, 2] >> np.uint32(21), axis=1)
    assert np.array_equal(cells, np.broadcast_to(np.arange(2048), cells.shape))


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss in KiB is Linux's")
def test_high_dimensional_orthant_on_two_groups_peak_rss():
    # The kernel before the block tables grew the peak RSS by 9.6-9.8 MiB on
    # this call, and the bound is 2 MiB above that.  One table of a whole
    # block in place of the row tables (_ROW = 2048) grows it by 12.8 MiB.
    code = ("import os, resource, numpy as np\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "from tse.qmc import rect_prob_qmc\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "rect_prob_qmc(0.5 * np.eye(40) + 0.5, np.zeros(40), np.full(40, np.inf),\n"
            "              target_abs_error=1e-6)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert int(run.stdout) < 11.75 * 1024


def test_dimension_cap():
    # The table covers 100 Sobol' dimensions; the Student-t kernel takes one
    # per coordinate.
    d = len(qmc_mod._JOE_KUO) + 2
    with pytest.raises(NumericalError, match="100 dims"):
        rect_prob_qmc(np.eye(d), np.zeros(d), np.full(d, np.inf), 5.0, max_points=1024)


def test_import_and_lattice_calls_leave_scipy_stats_unloaded():
    code = ("import sys, numpy as np, tse.cli\n"
            "from tse.qmc import rect_prob_qmc\n"
            "rect_prob_qmc(0.5 * np.eye(4) + 0.5, np.zeros(4), np.full(4, np.inf))\n"
            "rect_prob_qmc(0.5 * np.eye(4) + 0.5, np.zeros(4), np.full(4, np.inf), 5.0)\n"
            "rect_prob_qmc(0.5 * np.eye(40) + 0.5, np.zeros(40), np.full(40, np.inf),\n"
            "              max_points=2048)\n"
            "print('scipy.stats' in sys.modules)")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_upper_tail_box():
    # X_1 >= 10, X_2..4 <= 1 for independent coordinates: Q(10) Phi(1)**3.
    p, err = rect_prob_qmc(np.eye(4), [10.0, -np.inf, -np.inf, -np.inf],
                           [np.inf, 1.0, 1.0, 1.0])
    exact = 7.619853024160526e-24 * 0.8413447460685429 ** 3
    assert abs(p - exact) <= err
    assert err < 1e-9 * exact


def _deep_joint_tail():
    # X <= (-6, -9, -1, 5, 5), equicorrelated at 0.3.  The exact three-dimensional
    # value of the first three coordinates exceeds the five-dimensional one by
    # at most P(X_2 <= -9, X_4 > 5) + P(X_2 <= -9, X_5 > 5) = 2 p24.
    sigma = 0.7 * np.eye(5) + 0.3
    upper = np.array([-6.0, -9.0, -1.0, 5.0, 5.0])
    p, err = rect_prob_qmc(sigma, np.full(5, -np.inf), upper)
    p3, err3 = rect_prob_qmc(sigma[:3, :3], np.full(3, -np.inf), upper[:3])
    p24, _ = rect_prob_qmc(sigma[np.ix_([1, 3], [1, 3])], [-np.inf, 5.0], [-9.0, np.inf])
    return p, err, p3, err3, p24


def test_deep_joint_tail_box():
    p, err, p3, _, p24 = _deep_joint_tail()
    assert p3 == pytest.approx(3.48256e-23, rel=1e-5, abs=0)
    assert 2 * p24 < 1e-6 * err
    assert abs(p - p3) <= 1e-4 * p3
    assert err < 1e-4 * p3


@pytest.mark.xfail(strict=True, reason="the lattice's three-standard-error bound "
                   "misses this deep joint tail: it is 1.06 of the bound off at seed 7")
def test_deep_joint_tail_box_within_bound():
    p, err, p3, err3, p24 = _deep_joint_tail()
    assert abs(p - p3) <= err + err3 + 2 * p24


def test_nested_deep_joint_tail_box():
    # The four-dimensional box of the same law, which the nested rule
    # serves: 0 <= p3 - p <= P(X_2 <= -9, X_4 > 5).
    sigma = 0.7 * np.eye(4) + 0.3
    upper = np.array([-6.0, -9.0, -1.0, 5.0])
    p, err = rect_prob_qmc(sigma, np.full(4, -np.inf), upper)
    p3, err3 = rect_prob_qmc(sigma[:3, :3], np.full(3, -np.inf), upper[:3])
    p24, _ = rect_prob_qmc(sigma[np.ix_([1, 3], [1, 3])], [-np.inf, 5.0], [-9.0, np.inf])
    assert -(err + err3) <= p3 - p <= p24 + err + err3
    assert err < 1e-9 * p3


# Lattice values and stated errors of a four-dimensional normal box that the
# nested rule serves: at 8192 points, and refined from 2000 to 8000.
_LATTICE_4D = ((0.22981480367568777, 2.235940876791944e-07),
               (0.22981530466721525, 1.8045850045410792e-06))


def test_nested_4d_box_within_the_lattice_errors():
    p, err = rect_prob_qmc(_corr(4, 3) * np.outer(_SCALES4, _SCALES4), *_BOX4)
    assert err < 1e-10
    for value, bound in _LATTICE_4D:
        assert abs(p - value) <= bound


def test_four_dimensions_take_the_lattice_only_for_non_integer_df(monkeypatch):
    def refuse(*args):
        raise AssertionError("lattice reached")

    sigma, (lo, hi) = _corr(4, 3), _BOX4
    lattice = qmc_mod._lattice_sums
    monkeypatch.setattr(qmc_mod, "_lattice_sums", refuse)
    for df in (None, 1.0, 5.0, float(qmc_mod._DS_MAX_DF - 2)):
        rect_prob_qmc(sigma, lo, hi, df)
    calls = []
    monkeypatch.setattr(qmc_mod, "_lattice_sums", lambda *a: calls.append(a) or lattice(*a))
    for df in (2.5, float(qmc_mod._DS_MAX_DF - 1)):
        rect_prob_qmc(sigma, lo, hi, df)
    assert len(calls) == 2


# Correlations at which a conditional limit steps sharply: two coordinates
# almost equal, all four almost equal, and two almost opposite.
_SHARP4 = {
    "r12": np.array([[1.0, 0.999999, 0.3, 0.2], [0.999999, 1.0, 0.3, 0.2],
                     [0.3, 0.3, 1.0, 0.1], [0.2, 0.2, 0.1, 1.0]]),
    "equi": 0.001 * np.eye(4) + 0.999,
    "r34": np.array([[1.0, 0.4, 0.3, -0.3], [0.4, 1.0, 0.2, -0.2],
                     [0.3, 0.2, 1.0, -0.9995], [-0.3, -0.2, -0.9995, 1.0]]),
}


@pytest.mark.parametrize("df", [None, 3.0, 6.0])
@pytest.mark.parametrize("case", _SHARP4, ids=str)
def test_nested_orthants_partition_the_space(case, df):
    pt = np.array([0.3, -0.2, 0.5, 0.1])
    total = bound = 0.0
    for mask in range(16):
        up = np.array([(mask >> k) & 1 for k in range(4)], bool)
        p, err = rect_prob_qmc(_SHARP4[case], np.where(up, pt, -np.inf),
                               np.where(up, np.inf, pt), df)
        total += p
        bound += err
    assert abs(total - 1.0) <= bound


def test_narrow_interval_keeps_relative_accuracy():
    # N(0, 1) on [1, 1 + 1e-11], against mpmath at 50 digits.
    lo = 1.0
    hi = lo + 1e-11
    exact = 2.4197074453868e-12
    assert _uv_mass(lo, hi) == pytest.approx(exact, rel=1e-12, abs=0)
    assert rect_prob_qmc([[1.0]], [lo], [hi])[0] == pytest.approx(exact, rel=1e-12, abs=0)


@pytest.mark.parametrize("nu, h, k, r, exact", [
    (1, -73.4, 0.65, -0.92, 1.7495139742472494e-4),
    (1, -541.0, 2.78, 0.25, 3.6844047653164297e-4),
    (1, 0.4, 1.5, -0.3, 0.49166554688074317),
    (2, -3.0, 1.0, 0.5, 0.041297930416045959),
    (3, -100.0, -300.0, 0.9, 3.9969150059076775e-8),
])
def test_student_series_corner_within_its_floor(nu, h, k, r, exact):
    # Bivariate Student-t lower orthants, against mpmath quadrature of the
    # conditional form at 50 digits.  The first two lie beyond the floor of
    # the terms alone: the odd-df angle's rounding error is absolute.
    val, mag = qmc_mod._bvt_lower(nu, h, k, r)
    assert abs(val - exact) <= qmc_mod._ROUND * mag


def test_wide_intervals_keep_the_cdf_difference():
    lo = np.array([-1.0, 0.3, 1.0, -np.inf, 2.0])
    hi = np.array([0.5, 0.3 + 2e-3, np.inf, 0.7, 2.0 + 1e-3])
    for df in (None, 5.0):
        flip = lo + hi > 0
        a, b = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
        assert np.array_equal(_uv_mass(lo, hi, df),
                              qmc_mod._cdf(b, df) - qmc_mod._cdf(a, df))


def test_univariate_rows_floor_at_the_reflected_upper_cdf():
    lo = np.array([-1.0, 0.3, 1.0, -np.inf, 2.0, -3.0])
    hi = np.array([0.5, 0.3 + 2e-4, np.inf, 0.7, 2.0 + 1e-3, -3.0 + 1e-6])
    upper = np.where(lo > -hi, -lo, hi)
    for df in (None, 5.0):
        prob, err = qmc_mod.rect_probs(np.eye(1), lo[:, None], hi[:, None], df)
        assert np.array_equal(prob, _uv_mass(lo, hi, df))
        assert np.array_equal(err, qmc_mod._ROUND * qmc_mod._cdf(upper, df))


def _one_coordinate_intervals(rng, m):
    """``m`` random intervals of each kind: widths from 1e-9 to 1e-2 (where
    the midpoint rule takes over) and from 1e-2 to 30, both centred out to
    ``|c| = 1e3``; lower-open and upper-open half-lines."""
    centre = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3.0, 3.0, m)
    narrow = 10.0 ** rng.uniform(-9.0, -2.0, m)
    wide = 10.0 ** rng.uniform(-2.0, 1.5, m)
    limit = rng.uniform(-40.0, 40.0, m)
    lo = np.concatenate([centre - 0.5 * narrow, centre - 0.5 * wide,
                         np.full(m, -np.inf), limit])
    hi = np.concatenate([centre + 0.5 * narrow, centre + 0.5 * wide,
                         limit, np.full(m, np.inf)])
    return lo, hi


@pytest.mark.parametrize("df", [None, 0.5, 1.0, 4.5, 7.0, 1e6])
def test_one_coordinate_route_equals_rect_probs(df):
    # rect_prob_qmc at n = 1 takes _uv_prob on Python floats; it must return
    # exactly, values and sign bits, what rect_probs returns for the same
    # standardised interval.
    rng = np.random.default_rng(17)
    lo, hi = _one_coordinate_intervals(rng, 750)
    var = rng.uniform(0.2, 5.0, lo.size)
    for v, a, b in zip(var, lo, hi):
        s = np.sqrt(v)
        prob, err = qmc_mod.rect_probs(np.eye(1), np.array([[a / s]]), np.array([[b / s]]), df)
        want = (min(max(prob[0], 0.0), 1.0), err[0])
        got = rect_prob_qmc([[v]], [a], [b], df)
        assert got == want and np.array_equal(np.signbit(got), np.signbit(want)), (v, a, b)


def test_one_coordinate_reports_share_the_route(monkeypatch):
    import tse.truncated

    assert tse.truncated._uv_prob is qmc_mod._uv_prob
    calls = []
    real = qmc_mod._uv_prob
    monkeypatch.setattr(qmc_mod, "_uv_prob", lambda *args: calls.append(args) or real(*args))
    assert rect_prob_qmc([[2.0]], [-0.5], [1.0], 5.0) == real(2.0, -0.5, 1.0, 5.0)
    assert calls == [(2.0, -0.5, 1.0, 5.0)]


def test_one_coordinate_route_refuses_a_bad_variance():
    for var in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(NumericalError):
            rect_prob_qmc([[var]], [0.0], [1.0])


def _own_correlation_rows():
    """Rows of the standardised bivariate law, each with its own correlation
    (|rho| up to 0.999): random boxes, boxes with infinite limits and deep
    joint tails beyond the reach of the closed forms."""
    rng = np.random.default_rng(27)
    m = 24
    rho = rng.uniform(-0.999, 0.999, m)
    rho[:3] = [0.999, -0.999, 0.0]
    lo = rng.uniform(-3.0, 1.0, (m, 2))
    hi = lo + rng.uniform(0.05, 3.0, (m, 2))
    lo[3:7, 0], hi[5:9, 1], lo[9], hi[10] = -np.inf, np.inf, -np.inf, np.inf
    lo[11:15], hi[11:15] = [[7.0, 7.5], [8.0, 6.0], [9.0, 9.0], [6.5, 10.0]], np.inf
    lo[15:17], hi[15:17] = -np.inf, [[-7.0, -8.0], [-9.0, -6.5]]
    return np.array([[[1.0, r], [r, 1.0]] for r in rho]), lo, hi


@pytest.mark.parametrize("df", [None, *range(1, 33), 4.5, 40.0])
def test_rows_of_their_own_correlation_keep_the_bits_of_single_calls(df):
    # The face recursion stacks two-coordinate faces of different
    # correlations in one call; each row must come out as its own call.
    corr, lo, hi = _own_correlation_rows()
    prob, err = qmc_mod.rect_probs(corr, lo, hi, df)
    for i in range(lo.shape[0]):
        assert (prob[i], err[i]) == rect_prob_qmc(corr[i], lo[i], hi[i], df), i
    if df is None or 6 <= df <= qmc_mod._DS_MAX_DF:
        # Some rows of the closed forms take the nested rule, on their own.
        value, floor = qmc_mod._bv_rect(lo, hi, corr[:, 0, 1], df)
        assert (floor > qmc_mod._TAIL_REL * value).sum() >= 3


def _series_rows(df):
    # Random boxes whose limits are drawn in part from infinite, zero and
    # beyond-_DS_BIG values, with correlations up to +-0.99, and fixed rows
    # of every kind of corner.
    rng = np.random.default_rng(100 + df)
    special = np.array([-np.inf, np.inf, 0.0, 2e10, -2e10, 3e10, -3e10])
    rows = [([-np.inf, -np.inf], [0.0, np.inf], 0.99), ([0.0, 0.0], [np.inf, 2e10], -0.99),
            ([-3e10, -1.0], [2e10, 0.0], 0.5), ([-np.inf, 0.3], [np.inf, np.inf], -0.2),
            ([-50.0, -60.0], [-40.0, 70.0], 0.0), ([np.nan, -np.inf], [1.0, 3e10], 0.4),
            ([0.3, -1.0], [0.3, 1.0], 0.6), ([-np.inf, -2.0], [-np.inf, 0.0], -0.3),
            ([-0.0, -0.0], [0.0, np.inf], 0.1)]
    for _ in range(200):
        lim = rng.normal(size=4) * rng.choice([0.3, 1.0, 3.0, 30.0, 1e3])
        pick = rng.random(4) < 0.35
        lim[pick] = rng.choice(special, pick.sum())
        rows.append((np.minimum(lim[:2], lim[2:]), np.maximum(lim[:2], lim[2:]),
                     rng.uniform(-0.99, 0.99)))
    return [(np.array(lo, float), np.array(hi, float), r) for lo, hi, r in rows]


@pytest.mark.parametrize("df", range(1, qmc_mod._DS_MAX_DF + 1))
def test_one_row_series_equals_the_stacked_form(df):
    for lo, hi, r in _series_rows(df):
        prob, err = qmc_mod._bvt_row(df, lo, hi, r)
        stacked = qmc_mod._bv_rect(lo[None], hi[None], r, df)
        assert np.array_equal([prob, err], np.concatenate(stacked), equal_nan=True), (lo, hi, r)
        # rect_probs returns a sure row straight from _bvt_row.  Stacked on
        # a sure second row, the row takes the array form, the sure test,
        # the tail rule (on that row alone) and the clip.
        corr = np.array([[1.0, r], [r, 1.0]])
        one = np.concatenate(qmc_mod.rect_probs(corr, lo[None], hi[None], float(df)))
        pair = qmc_mod.rect_probs(corr, np.stack([lo, [-1.0, -1.0]]),
                                  np.stack([hi, [1.0, 1.0]]), float(df))
        stacked = np.array([pair[0][0], pair[1][0]])
        assert np.array_equal(one, stacked, equal_nan=True), (lo, hi, r)
        assert np.array_equal(np.signbit(one), np.signbit(stacked)), (lo, hi, r)


def test_one_row_deep_tail_still_takes_the_nested_rule(monkeypatch):
    # At df 8 the series' floor on this joint tail is 2.4e-1 of the value.
    lo, hi, r = np.full((1, 2), -np.inf), np.array([[-50.0, -60.0]]), -0.3
    series, floor = qmc_mod._bvt_row(8, lo[0], hi[0], r)
    assert floor > qmc_mod._TAIL_REL * series
    nested = qmc_mod._nested_rect(np.array([[1.0, r], [r, 1.0]]), lo, hi, 8.0)
    calls = []
    rule = qmc_mod._nested_rect
    monkeypatch.setattr(qmc_mod, "_nested_rect", lambda *a: calls.append(a) or rule(*a))
    prob, err = qmc_mod.rect_probs(np.array([[1.0, r], [r, 1.0]]), lo, hi, 8.0)
    assert len(calls) == 1
    assert np.array_equal(prob, nested[0]) and np.array_equal(err, nested[1])
    assert abs(prob[0] - series) > 1e-3 * series


def test_one_row_never_enters_the_stacked_series(monkeypatch):
    def refuse(*args):
        raise AssertionError("stacked series reached")

    monkeypatch.setattr(qmc_mod, "_bvt_lower", refuse)
    lo, hi = np.array([[-0.3, -1.2]]), np.array([[0.8, np.inf]])
    corr = np.array([[1.0, -0.4], [-0.4, 1.0]])
    for df in (1.0, 4.0, 7.0, float(qmc_mod._DS_MAX_DF)):
        qmc_mod.rect_probs(corr, lo, hi, df)
        rect_prob_qmc([[2.0, 0.5], [0.5, 1.0]], lo[0], hi[0], df)
    with pytest.raises(AssertionError, match="stacked series"):
        qmc_mod.rect_probs(corr, np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0), 4.0)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_nan_limit_refused(n):
    lower, upper = np.full(n, -1.0), np.full(n, 1.0)
    lower[-1] = np.nan
    with pytest.raises(NumericalError, match="NaN"):
        rect_prob_qmc(np.eye(n), lower, upper, 5.0)


@pytest.mark.parametrize("call, df", [
    ("rect_prob_qmc", 0.0), ("rect_probs", 0.0), ("rect_probs", -1.0), ("rect_probs", np.nan),
    ("rect_prob_qmc", -2.0),
])
def test_non_positive_df_refused(call, df):
    lo, hi = np.array([[-1.0, 0.0]]), np.array([[1.0, 2.0]])
    calls = {
        "rect_prob_qmc": lambda: rect_prob_qmc(np.eye(1), [0.0], [1.0], df),
        "rect_probs": lambda: qmc_mod.rect_probs(np.eye(2), lo, hi, df),
    }
    with pytest.raises(SpecError, match="degrees of freedom"):
        calls[call]()
