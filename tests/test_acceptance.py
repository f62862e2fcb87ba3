"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module takes several minutes because of the Monte Carlo
oracles.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import norm, t as tdist

import tse.qmc as qmc_mod
from tse.elliptical import (
    DEFAULT_SETTINGS,
    TruncationBox,
    normal_joint,
    rectangle_prob,
    student_joint,
)
from tse.errors import MomentNotDefinedError, RejectionInfeasibleError
from tse.oracle import estimate_mean_cov, sample_se_rejection
from tse.qmc import rect_prob_qmc
from tse.risk import tce, tce_sum_decomposed
from tse.selection import (
    SelectionSpec,
    SutParams,
    build_selection,
    est_pdf,
    limiting_t,
    se_pdf,
    st_pdf,
    tse_mean_cov,
)
from tse.truncated import _direct_report, moment_flags, tmvt_mean_cov, truncated_mean_cov


def _report(num, ok, detail=""):
    print(f"\n[ACCEPTANCE {num:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def _plain_spec(joint):
    return SelectionSpec(joint, 0, joint.dim, np.zeros(0), np.zeros(0))


EX5 = SutParams(
    location=[0.0, 0.0],
    scale=[[1.0, 0.2], [0.2, 4.0]],
    shape=[[1.0, 3.0], [-3.0, -2.0]],
    extension=[-1.0, 2.0],
    selection_corr=[[1.0, -0.5], [-0.5, 1.0]],
    df=4.0,
)
EX5_BOX = TruncationBox([-0.8, -0.6], [0.5, 0.7])
EX5_MEAN = np.array([-0.039, 0.303])
EX5_COV = np.array([[0.112, -0.007], [-0.007, 0.096]])


@pytest.mark.known_discrepancy
def test_criterion_01_golden_reproduction():
    """Published numerical-example values within +-0.0015 per entry, <= 5 s."""
    qmc_mod._CHI_CACHE.clear()
    spec = build_selection(EX5)
    start = time.perf_counter()
    rep = tse_mean_cov(spec, EX5_BOX)
    elapsed = time.perf_counter() - start
    dev_mean = np.abs(rep.mean - EX5_MEAN)
    dev_cov = np.abs(rep.covariance - EX5_COV)
    ok = bool(dev_mean.max() <= 1.5e-3 and dev_cov.max() <= 1.5e-3 and elapsed <= 5.0)
    _report(1, ok,
            f"mean={np.round(rep.mean, 5)} dev={np.round(dev_mean, 5)} "
            f"cov dev max={dev_cov.max():.5f} runtime={elapsed:.2f}s "
            "(three independent methods agree the published mean carries "
            "~2.4e-3 of its own numerical error; see decisions ledger)")
    assert ok, (
        f"mean deviations {dev_mean} exceed 1.5e-3: the engine value "
        f"{rep.mean} is confirmed by a direct Monte Carlo simulation of the "
        f"definition and by scipy-based quadrature; the published values "
        f"cannot be reproduced exactly by any tested parametrization")


def test_criterion_02_untruncated_reductions():
    omega = np.array([[1.0, 0.3], [0.3, 2.0]])
    xi = np.array([0.4, -0.7])
    full = TruncationBox([-np.inf, -np.inf], [np.inf, np.inf])

    rep_t = tmvt_mean_cov(student_joint(xi, omega, 4.0), full)
    err_t = max(np.abs(rep_t.mean - xi).max(),
                np.abs(rep_t.covariance - 2.0 * omega).max())

    rep_n = truncated_mean_cov(normal_joint(xi, omega), full)
    err_n = max(np.abs(rep_n.mean - xi).max(),
                np.abs(rep_n.covariance - omega).max())

    # the same reductions through the selection construction (no shortcut)
    params = SutParams(xi, omega, [[0.0, 0.0]], [0.0], [[1.0]], 4.0)
    rep_s = tse_mean_cov(build_selection(params), None)
    err_s = max(np.abs(rep_s.mean - xi).max(),
                np.abs(rep_s.covariance - 2.0 * omega).max())

    ok = err_t <= 1e-8 and err_s <= 1e-8 and err_n <= 1e-10
    _report(2, ok, f"t err={err_t:.2e} selection err={err_s:.2e} normal err={err_n:.2e}")
    assert ok


def test_criterion_03_univariate_closed_forms():
    rep = truncated_mean_cov(normal_joint([0.0], [[1.0]]),
                             TruncationBox([0.0], [np.inf]))
    err_mean = abs(rep.mean[0] - 0.7978845608)
    err_var = abs(rep.covariance[0, 0] - 0.3633802277)
    val = tce(_plain_spec(normal_joint([0.0], [[1.0]])), 0.05)
    err_tce = abs(val - 2.0627128)
    ok = err_mean <= 1e-9 and err_var <= 1e-9 and err_tce <= 1e-6
    _report(3, ok, f"mean err={err_mean:.1e} var err={err_var:.1e} tce err={err_tce:.1e}")
    assert ok


def _random_instance(rng):
    p = int(rng.integers(1, 5))
    q = int(rng.integers(0, 3))
    student = rng.random() < 0.5
    nu = float(rng.uniform(3.0, 10.0)) if student else None
    a = rng.standard_normal((p, p)) * 0.6
    scale = a @ a.T + np.eye(p) * rng.uniform(0.5, 2.0)
    loc = rng.standard_normal(p) * 0.3
    if q == 0:
        joint = student_joint(loc, scale, nu) if student else normal_joint(loc, scale)
        spec = SelectionSpec(joint, 0, p, np.zeros(0), np.zeros(0))
    else:
        shape = rng.uniform(-1.0, 1.0, (q, p))
        tau = rng.uniform(-0.6, 0.6, q)
        if q == 1:
            psi = np.eye(1)
        else:
            r = rng.uniform(-0.4, 0.4)
            psi = np.array([[1.0, r], [r, 1.0]])
        spec = build_selection(SutParams(loc, scale, shape, tau, psi, nu))
    sd = np.sqrt(np.diag(scale))
    lo = np.empty(p)
    hi = np.empty(p)
    for i in range(p):
        kind = rng.integers(0, 4)
        if kind == 0:
            lo[i], hi[i] = rng.uniform(-2, -0.2) * sd[i], rng.uniform(0.2, 2) * sd[i]
        elif kind == 1:
            lo[i], hi[i] = rng.uniform(-1.5, 0.5) * sd[i], np.inf
        elif kind == 2:
            lo[i], hi[i] = -np.inf, rng.uniform(-0.5, 1.5) * sd[i]
        else:
            lo[i], hi[i] = -np.inf, np.inf
    return spec, TruncationBox(lo, hi)


def test_criterion_04_mc_agreement_suite():
    rng = np.random.default_rng(424242)
    start = time.perf_counter()
    results = []
    while len(results) < 20:
        spec, box = _random_instance(rng)
        seed = int(rng.integers(1e9))
        try:
            batch = sample_se_rejection(spec, box, 1_000_000, seed=seed)
        except RejectionInfeasibleError:
            continue
        rep = tse_mean_cov(spec, box)
        est = estimate_mean_cov(batch)
        zm = np.abs(rep.mean - est["mean"].value) / np.maximum(
            est["mean"].std_error, 1e-300)
        zc = np.abs(rep.covariance - est["cov"].value) / np.maximum(
            est["cov"].std_error, 1e-300)
        worst = float(max(zm.max(), zc.max()))
        results.append(worst)
    elapsed = time.perf_counter() - start
    n_pass = sum(w <= 4.0 for w in results)
    ok = n_pass >= 19 and elapsed <= 600.0
    _report(4, ok, f"{n_pass}/20 specs within 4 SE, worst z={max(results):.2f}, "
                   f"runtime={elapsed:.0f}s")
    assert ok


def test_criterion_05_family_collapse_grids():
    rng = np.random.default_rng(55)
    mu = np.array([0.3, -0.2])
    sig = np.array([[1.5, 0.4], [0.4, 0.9]])
    lam = np.array([1.2, -0.7])
    tau = 0.6
    nu = 5.0
    pts = rng.standard_normal((1000, 2)) * 1.5 + mu

    sut_q1 = build_selection(SutParams(mu, sig, lam, [tau], [[1.0]], nu))
    d_sut = se_pdf(sut_q1, pts)
    d_est = est_pdf(pts, mu, sig, lam, tau, nu)
    err1 = float(np.abs(d_sut - d_est).max())

    st_spec = build_selection(SutParams(mu, sig, lam, [0.0], [[1.0]], nu))
    d_est0 = se_pdf(st_spec, pts)
    d_st = st_pdf(pts, mu, sig, lam, nu)
    err2 = float(np.abs(d_est0 - d_st).max())

    lam2 = np.array([[1.0, 0.5], [-0.3, 0.8]])
    tau2 = [0.2, -0.4]
    psi2 = [[1.0, 0.3], [0.3, 1.0]]
    sut_big = build_selection(SutParams(mu, sig, lam2, tau2, psi2, 1e6))
    sun = build_selection(SutParams(mu, sig, lam2, tau2, psi2, None))
    d_big = se_pdf(sut_big, pts)
    d_sun = se_pdf(sun, pts)
    err3 = float(np.abs(d_big - d_sun).max())

    ok = err1 <= 1e-10 and err2 <= 1e-10 and err3 <= 1e-5
    _report(5, ok, f"unified-vs-extended={err1:.1e} zero-extension-vs-skew={err2:.1e} "
                   f"big-df-vs-normal={err3:.1e}")
    assert ok


@pytest.mark.known_discrepancy
def test_criterion_06_limiting_case():
    # Student kernel: moments against the receding-extension limit.
    params = SutParams([0.0], [[1.0]], [2.0], [-30.0], [[1.0]], 5.0)
    rep = tse_mean_cov(build_selection(params), None)
    lim = limiting_t(params)
    lj = lim.to_joint()
    lim_mean = lj.xi
    lim_cov = lj.omega * lj.nu / (lj.nu - 2.0)
    rel_mean = float(np.abs(rep.mean / lim_mean - 1.0).max())
    rel_cov = float(np.abs(rep.covariance / lim_cov - 1.0).max())
    part_a = rel_mean <= 1e-3 and rel_cov <= 1e-3

    # Normal kernel: the underflowing extension must route through the
    # out-of-bounds path and land on the limiting normal law.
    params_n = SutParams([0.2, -0.5], [[1.0, 0.3], [0.3, 1.5]],
                         [0.25, -0.2], [-45.0], [[1.0]], None)
    rep_n = tse_mean_cov(build_selection(params_n), None)
    lim_n = limiting_t(params_n).to_joint()
    part_b = ("out-of-bounds" in rep_n.method
              and np.abs(rep_n.mean - lim_n.xi).max() <= 1e-4
              and np.abs(rep_n.covariance - lim_n.omega).max() <= 1e-4)

    ok = bool(part_a and part_b)
    _report(6, ok,
            f"student rel errors mean={rel_mean:.3f} cov={rel_cov:.3f} "
            f"(limit is weak, not in moments: ratio tends to nu/(nu-1); see "
            f"ledger) | normal out-of-bounds path: {'ok' if part_b else 'bad'}")
    assert ok, (
        "heavy-tail moments do not converge to the limiting law's moments: "
        f"relative gaps mean={rel_mean:.3f}, cov={rel_cov:.3f} vs required 1e-3; "
        "the engine value equals direct quadrature of the closed-form density")


def test_criterion_07_existence_gating():
    full = TruncationBox([-np.inf, -np.inf], [np.inf, np.inf])

    # (a) fully unbounded Cauchy kernel: mean request must fail
    rep_a = tmvt_mean_cov(student_joint([0.0, 0.0], np.eye(2), 1.0), full)
    try:
        rep_a.require_mean()
        part_a = False
    except MomentNotDefinedError:
        part_a = True

    # (b) one fully finite coordinate: mean accepted, second rejected
    box_b = TruncationBox([-1.0, -np.inf], [1.0, np.inf])
    rep_b = tmvt_mean_cov(student_joint([0.0, 0.0], np.eye(2), 1.0), box_b)
    part_b = rep_b.existence.mean and rep_b.mean is not None \
        and not rep_b.existence.second and rep_b.covariance is None

    # (c) no fully finite coordinate (p1 = 0) on the positive orthant.  At
    # nu = 2.5 both moments exist (order 2 < nu + p1 = 2.5): a t_2.5 has
    # variance 5 and the orthant mass 1/4, so E[X_i^2 | box] <= 20.  By sign
    # symmetry the orthant law of each coordinate is that of |T|, with mean
    # m = sqrt(nu/pi) G((nu-1)/2) / G(nu/2); the variance is nu/(nu-2) - m^2
    # and the covariance (2/pi) nu/(nu-2) - m^2.  At nu = 2.0 the mean
    # (sqrt 2) exists and the second moment does not (2 < nu + p1 fails).
    box_c = TruncationBox([0.0, 0.0], [np.inf, np.inf])
    nu = 2.5
    rep_c = tmvt_mean_cov(student_joint([0.0, 0.0], np.eye(2), nu), box_c)
    m = math.sqrt(nu / math.pi) * math.gamma((nu - 1.0) / 2.0) / math.gamma(nu / 2.0)
    var = nu / (nu - 2.0) - m * m
    cov = 2.0 / math.pi * nu / (nu - 2.0) - m * m
    both_accepted = bool(rep_c.existence.mean and rep_c.mean is not None
                         and rep_c.existence.second and rep_c.covariance is not None)
    err_c = np.inf
    if both_accepted:
        err_c = max(np.abs(rep_c.mean - m).max(),
                    np.abs(rep_c.covariance - [[var, cov], [cov, var]]).max())

    rep_c2 = tmvt_mean_cov(student_joint([0.0, 0.0], np.eye(2), 2.0), box_c)
    err_c2 = np.inf
    if rep_c2.existence.mean and rep_c2.mean is not None:
        err_c2 = float(np.abs(rep_c2.mean - math.sqrt(2.0)).max())
    second_rejected = not rep_c2.existence.second and rep_c2.covariance is None
    part_c = err_c <= 1e-6 and err_c2 <= 1e-6 and second_rejected

    ok = bool(part_a and part_b and part_c)
    _report(7, ok,
            f"unbounded cauchy mean rejected: {part_a} | p1=1 gating: {part_b} | "
            f"p1=0 nu=2.5 closed-form err={err_c:.1e} | nu=2.0 mean err={err_c2:.1e} "
            f"second rejected: {second_rejected}")
    assert ok


def test_criterion_08_double_infinite_path():
    rng = np.random.default_rng(88)
    agree = []
    for trial in range(3):
        a = rng.standard_normal((3, 3))
        omega = a @ a.T + 2 * np.eye(3)
        student = trial % 2 == 0
        joint = (student_joint(rng.standard_normal(3) * 0.3, omega, 6.0)
                 if student else normal_joint(rng.standard_normal(3) * 0.3, omega))
        box = TruncationBox([-np.inf, -1.0, 0.0], [np.inf, 1.5, 2.0])
        split = truncated_mean_cov(joint, box)
        direct = _direct_report(joint, box, DEFAULT_SETTINGS,
                                moment_flags(joint.family, joint.nu, box))
        assert "double-infinite" in split.method
        agree.append(max(np.abs(split.mean - direct.mean).max(),
                         np.abs(split.covariance - direct.covariance).max()))
    worst = max(agree)

    # Integration-dimension speed claim: dropping the unbounded coordinate
    # before integration beats full-dimension QMC.  The normal kernel loses
    # a whole cube dimension; the Student-t keeps the cube dimension that
    # carries the chi variable, so its gain is smaller.
    omega = np.array([[2.0, 1.0, 0.3], [1.0, 3.0, 0.5], [0.3, 0.5, 1.5]])
    lo3 = np.array([-np.inf, -1.0, 0.0])
    hi3 = np.array([np.inf, 1.5, 2.0])
    keep = [1, 2]
    sub = (omega[np.ix_(keep, keep)], lo3[keep], hi3[keep])

    def cpu_time(fn, reps=12):
        fn()  # warm lattice caches
        t0 = time.process_time()
        for _ in range(reps):
            out = fn()
        return (time.process_time() - t0) / reps, out

    t_full_n, p_full = cpu_time(lambda: rect_prob_qmc(omega, lo3, hi3)[0], reps=20)
    t_red_n, p_red = cpu_time(lambda: rect_prob_qmc(*sub)[0], reps=20)
    speed_normal = t_full_n / t_red_n
    t_full_t, q_full = cpu_time(lambda: rect_prob_qmc(omega, lo3, hi3, df=6.0)[0])
    t_red_t, q_red = cpu_time(lambda: rect_prob_qmc(*sub, df=6.0)[0])
    speed_student = t_full_t / t_red_t
    same = abs(p_full - p_red) < 5e-6 and abs(q_full - q_red) < 5e-6

    ok = bool(worst <= 1e-6 and same and speed_normal > 1.2)
    _report(8, ok, f"path agreement={worst:.2e} | reduced-dimension speedup: "
                   f"normal {speed_normal:.2f}x, student {speed_student:.2f}x "
                   "(the student transform keeps one cube dimension for the "
                   "chi variable, so its gain is within timing noise)")
    assert ok


def test_criterion_09_risk_identities():
    rng = np.random.default_rng(99)
    alpha = 0.05

    # additivity on randomized portfolios
    gaps = []
    portfolios = []
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        sig = a @ a.T + 3 * np.eye(3)
        params = SutParams(rng.standard_normal(3) * 0.3, sig,
                           rng.uniform(-1.2, 1.2, 3), [0.0], [[1.0]], 8.0)
        dec = tce_sum_decomposed(params, alpha)
        gaps.append(abs(dec.contributions.sum() - dec.total))
        portfolios.append((params, dec))
    additive = max(gaps) <= 1e-8

    # contributions against 1e7-draw tail averages
    mc_ok = True
    worst_z = 0.0
    for params, dec in portfolios[:2]:
        spec = build_selection(params)
        batch = sample_se_rejection(spec, None, 10_000_000, seed=7)
        y = batch.draws
        s = y.sum(axis=1)
        tail = y[s > dec.quantile]
        se = tail.std(axis=0) / np.sqrt(tail.shape[0])
        z = np.abs(dec.contributions - tail.mean(axis=0)) / se
        worst_z = max(worst_z, float(z.max()))
        mc_ok = mc_ok and bool(np.all(z <= 4.0))

    # sum-law check: Kolmogorov-Smirnov against the closed-form density
    from tse.risk import sum_distribution

    params, _ = portfolios[0]
    sd = sum_distribution(params)
    spec = build_selection(params)
    batch = sample_se_rejection(spec, None, 1_000_000, seed=11)
    s = np.sort(batch.draws.sum(axis=1))
    xs = np.linspace(s[0] - 1.0, s[-1] + 1.0, 40_001)
    pdf = st_pdf(xs[:, None], [sd.mean_sum], [[sd.var_sum]], [sd.shape_sum], sd.df)
    cdf = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))])
    cdf_at_s = np.interp(s, xs, cdf)
    n = s.size
    i = np.arange(1, n + 1)
    ks = max(np.max(i / n - cdf_at_s), np.max(cdf_at_s - (i - 1) / n))
    ks_crit = 1.628 / np.sqrt(n)  # 1% asymptotic critical value
    ks_ok = ks < ks_crit

    ok = bool(additive and mc_ok and ks_ok)
    _report(9, ok, f"additivity gap={max(gaps):.1e} | tail-average worst z="
                   f"{worst_z:.2f} | KS={ks:.2e} < {ks_crit:.2e}: {ks_ok}")
    assert ok


def test_criterion_10_censored_identities():
    from tse.censored import censored_factor
    from tse.selection import _sqrtm_spd

    rng = np.random.default_rng(1010)
    all_ok = True
    worst = 0.0
    for trial in range(4):
        student = trial >= 2
        p = 2
        a = rng.standard_normal((p, p)) * 0.5
        sig = a @ a.T + np.eye(p)
        lam = rng.uniform(-1.0, 1.0, p)
        tau = float(rng.uniform(-0.5, 0.5))
        nu = float(rng.uniform(4.0, 9.0)) if student else None
        params = SutParams(rng.standard_normal(p) * 0.3, sig, lam, [tau],
                           [[1.0]], nu)
        spec = build_selection(params)
        box = TruncationBox(rng.uniform(-2.5, -1.0, p), rng.uniform(1.0, 2.5, p))
        fac = censored_factor(params, box)
        batch = sample_se_rejection(spec, box, 400_000, seed=100 + trial)
        y = batch.draws

        rinv = np.linalg.inv(_sqrtm_spd(sig))
        std = (y - params.location) @ rinv.T
        proj = std @ lam
        if student:
            delta = np.sum(std * std, axis=1)
            nuy = np.sqrt((nu + p) / (nu + delta))
            arg = (tau + proj) * nuy
            ratio = nuy * tdist.pdf(arg, nu + p) / tdist.cdf(arg, nu + p)
        else:
            arg = tau + proj
            ratio = norm.pdf(arg) / norm.cdf(arg)

        for kind, g in (("one", np.ones((batch.n, 1))),
                        ("mean", y),
                        ("second", y[:, :, None] * y[:, None, :])):
            vals = g.reshape(batch.n, -1) * ratio[:, None]
            lhs = vals.mean(axis=0)
            se = vals.std(axis=0) / np.sqrt(batch.n)
            rhs = np.atleast_1d(np.asarray(fac.expectation(kind))).ravel()
            z = np.abs(lhs - rhs) / np.maximum(se, 1e-300)
            worst = max(worst, float(z.max()))
            all_ok = all_ok and bool(np.all(z <= 4.0))

    _report(10, all_ok, f"worst z over 4 specs x 3 g-kinds = {worst:.2f}")
    assert all_ok


def test_criterion_11_rectangle_probability_accuracy():
    j = normal_joint([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
    p, err = rectangle_prob(j, TruncationBox([0.0, 0.0], [np.inf, np.inf]))
    exact = 0.25 + np.arcsin(0.5) / (2 * np.pi)
    orthant_ok = abs(p - exact) <= 1e-6

    # complementary boxes partitioning the plane sum to one
    t_split = 0.4
    quads = []
    for lo0, hi0 in ((-np.inf, t_split), (t_split, np.inf)):
        for lo1, hi1 in ((-np.inf, -0.3), (-0.3, np.inf)):
            quads.append(rectangle_prob(j, TruncationBox([lo0, lo1], [hi0, hi1])))
    total = sum(q[0] for q in quads)
    bound = sum(q[1] for q in quads) + 1e-12
    comp_ok = abs(total - 1.0) <= bound

    # one-dimensional half spaces (exact)
    j1 = student_joint([0.2], [[1.5]], 3.0)
    p1, e1 = rectangle_prob(j1, TruncationBox([-np.inf], [0.9]))
    p2, e2 = rectangle_prob(j1, TruncationBox([0.9], [np.inf]))
    comp1_ok = abs(p1 + p2 - 1.0) <= 2 * (e1 + e2) + 1e-12

    ok = bool(orthant_ok and comp_ok and comp1_ok)
    _report(11, ok, f"orthant err={abs(p - exact):.2e} | 2-D partition gap="
                    f"{abs(total - 1.0):.2e} within {bound:.2e} | 1-D exact")
    assert ok
