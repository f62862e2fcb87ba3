import numpy as np
import pytest
from scipy.optimize import brentq
from scipy.stats import norm, t

from tse.elliptical import normal_joint, student_joint
from tse.errors import MomentNotDefinedError, NumericalError, SpecError
from tse.oracle import sample_se_rejection
from tse.risk import (
    _brent,
    mtce,
    mtce_at_level,
    quantile_upper,
    sum_distribution,
    survival,
    tce,
    tce_sum_decomposed,
)
from tse.selection import SelectionSpec, SutParams, build_selection, st_pdf

from conftest import z_within


def _plain_spec(joint):
    return SelectionSpec(joint, 0, joint.dim, np.zeros(0), np.zeros(0))


class TestQuantile:
    def test_normal_median(self):
        spec = _plain_spec(normal_joint([0.0], [[1.0]]))
        assert quantile_upper(spec, 0.5) == pytest.approx(0.0, abs=1e-10)

    def test_cauchy_quartile(self):
        spec = _plain_spec(student_joint([0.0], [[1.0]], 1.0))
        assert quantile_upper(spec, 0.25) == pytest.approx(1.0, abs=1e-8)

    def test_survival_self_consistency_random_est(self, rng):
        params = SutParams([0.2], [[1.5]], [1.1], [0.4], [[1.0]], 6.0)
        spec = build_selection(params)
        for alpha in (0.5, 0.1, 0.05):
            q = quantile_upper(spec, alpha)
            assert abs(survival(spec, q) - alpha) < 1e-8

    def test_alpha_domain(self):
        spec = _plain_spec(normal_joint([0.0], [[1.0]]))
        with pytest.raises(SpecError):
            quantile_upper(spec, 0.0)
        with pytest.raises(SpecError):
            quantile_upper(spec, 1.0)

    @pytest.mark.parametrize("nu, alpha", [(None, 1e-300), (1.1, 1e-3), (6.0, 1e-9)])
    def test_quantile_beyond_fifty_scale_units(self, nu, alpha):
        # 37.0, 192.4 and 56.8 scale units: past the old 50-unit bracket cap.
        joint = normal_joint([0.0], [[1.0]]) if nu is None else student_joint([0.0], [[1.0]], nu)
        law = norm if nu is None else t(nu)
        assert quantile_upper(_plain_spec(joint), alpha) == pytest.approx(law.isf(alpha), rel=1e-12)

    @pytest.mark.parametrize("s", [1e-6, 1e-9, 1e-11])
    def test_small_scale_quantile_is_scale_relative(self, s):
        spec = _plain_spec(normal_joint([0.0], [[s * s]]))
        assert quantile_upper(spec, 0.1) == pytest.approx(1.2815515655446004 * s, rel=1e-9)

    def test_quantile_past_squared_overflow_raises(self):
        # The t_1.1 quantile at 1e-200 is about 2.4e181, but the survival
        # function reads 0 from 2**512 scale units on.
        spec = _plain_spec(student_joint([0.0], [[1.0]], 1.1))
        with pytest.raises(NumericalError):
            quantile_upper(spec, 1e-200)


def _brent_cases():
    rng = np.random.default_rng(19)
    for _ in range(60):
        a, s, alpha = rng.uniform(-3, 3), rng.uniform(0.2, 3), 10 ** rng.uniform(-12, -0.3)
        yield (lambda x, a=a, s=s, alpha=alpha: float(norm.sf(x, a, s) - alpha)), -50.0, 50.0
        nu, alpha = rng.uniform(1.1, 10), 10 ** rng.uniform(-6, -0.3)
        yield (lambda x, nu=nu, alpha=alpha: float(t.sf(x, nu) - alpha)), -1e6, 1e6
        r, c = rng.standard_normal(3) * 2, rng.standard_normal()
        yield (lambda x, r=r, c=c: float(np.prod(x - r) + c)), -10.0, 10.0
    # A step 3e-10 wide: near the root the steps are as small as the
    # tolerance, where the step test's "- delta" decides.
    yield (lambda x: float(np.tanh((x + 0.18) / 3e-10) ** 3 - 0.1)), -2.0, 2.0
    # Deep normal tail: many survival values round to the same difference
    # from alpha, so the secant and extrapolation steps divide by zero.
    yield (lambda x: float(norm.sf(x) - 1e-200)), 16.0, 32.0
    spec = _plain_spec(normal_joint([0.0], [[1.0]]))
    yield (lambda x: float(survival(spec, x) - 1e-200)), 16.0, 32.0
    # A law of scale 1e-11, solved at the scale-relative tolerance.
    tiny = _plain_spec(normal_joint([0.0], [[1e-22]]))
    yield (lambda x: float(survival(tiny, x) - 0.1)), -1e-11, 4e-11


class TestBrent:
    def test_equals_scipy_brentq_bit_for_bit(self):
        # 1e-10 is the tolerance for laws of scale 1 and above; quantiles of
        # smaller laws solve at 1e-10 times their scale.
        for xtol in (1e-10, 1e-13, 1e-21):
            for f, a, b in _brent_cases():
                assert _brent(f, a, b, f(a), f(b), xtol) == brentq(f, a, b, xtol=xtol,
                                                                    rtol=8.9e-16)

    def test_no_sign_change_raises(self):
        with pytest.raises(NumericalError):
            _brent(lambda x: x * x + 1.0, -1.0, 2.0, 2.0, 5.0)

    def test_no_convergence_raises(self):
        # A step on a 1e300-wide bracket needs about 1 000 bisections.
        def f(x):
            return 1.0 if x < 0.3 else -1.0
        with pytest.raises(RuntimeError):
            brentq(f, -1e300, 1e300, xtol=1e-10, rtol=8.9e-16)
        with pytest.raises(NumericalError):
            _brent(f, -1e300, 1e300, 1.0, -1.0)


class TestTce:
    def test_standard_normal_closed_form(self):
        spec = _plain_spec(normal_joint([0.0], [[1.0]]))
        z = norm.ppf(0.95)
        assert tce(spec, 0.05) == pytest.approx(norm.pdf(z) / 0.05, abs=1e-6)

    def test_level_near_one_returns_plain_mean(self):
        spec = _plain_spec(normal_joint([0.7], [[2.0]]))
        assert tce(spec, 1 - 1e-9) == pytest.approx(0.7, abs=1e-6)

    def test_skew_t_against_mc(self):
        params = SutParams([0.0], [[1.0]], [2.0], [0.0], [[1.0]], 6.0)
        spec = build_selection(params)
        val = tce(spec, 0.05)
        batch = sample_se_rejection(spec, None, 2_000_000, seed=11)
        y = batch.draws[:, 0]
        q = np.quantile(y, 0.95)
        tail = y[y > q]
        se = tail.std() / np.sqrt(tail.size)
        assert abs(val - tail.mean()) < 4 * se

    def test_cauchy_tail_mean_rejected(self):
        spec = _plain_spec(student_joint([0.0], [[1.0]], 1.0))
        with pytest.raises(MomentNotDefinedError):
            tce(spec, 0.05)


class TestMtce:
    def test_unconditioned_thresholds_return_mean(self):
        params = SutParams([0.3, -0.2], [[1.0, 0.2], [0.2, 1.5]],
                           [0.5, 0.8], [0.0], [[1.0]], 7.0)
        spec = build_selection(params)
        from tse.selection import tse_mean_cov

        mean = tse_mean_cov(spec, None).mean
        got = mtce(spec, [-np.inf, -np.inf])
        np.testing.assert_allclose(got, mean, atol=1e-9)

    def test_exchangeable_symmetry(self):
        sig = np.array([[1.0, 0.4], [0.4, 1.0]])
        params = SutParams([0.0, 0.0], sig, [0.6, 0.6], [0.0], [[1.0]], 6.0)
        spec = build_selection(params)
        out = mtce(spec, [0.8, 0.8])
        assert out[0] == pytest.approx(out[1], rel=1e-9)

    def test_bivariate_skew_t_against_mc(self):
        params = SutParams([0.1, -0.3], [[1.0, 0.3], [0.3, 1.4]],
                           [0.9, -0.4], [0.0], [[1.0]], 7.0)
        spec = build_selection(params)
        batch = sample_se_rejection(spec, None, 2_000_000, seed=23)
        y = batch.draws
        qs = np.quantile(y, 0.9, axis=0)
        got = mtce(spec, qs)
        mask = np.all(y > qs, axis=1)
        tail = y[mask]
        se = tail.std(axis=0) / np.sqrt(tail.shape[0])
        assert z_within(got, tail.mean(axis=0), se)

    def test_level_wrapper_consistency(self):
        params = SutParams([0.0, 0.0], np.eye(2), [0.5, -0.5], [0.0], [[1.0]], 8.0)
        spec = build_selection(params)
        out = mtce_at_level(spec, 0.2)
        np.testing.assert_allclose(mtce(spec, out["thresholds"]), out["mtce"],
                                   atol=1e-12)


class TestSumDecomposition:
    def test_additivity(self, rng):
        for seed in range(3):
            r = np.random.default_rng(seed)
            a = r.standard_normal((3, 3))
            sig = a @ a.T + 3 * np.eye(3)
            params = SutParams(r.standard_normal(3) * 0.3, sig,
                               r.standard_normal(3), [0.0], [[1.0]], 8.0)
            dec = tce_sum_decomposed(params, 0.05)
            assert abs(dec.contributions.sum() - dec.total) < 1e-8

    def test_single_asset_reduces_to_tce(self):
        params = SutParams([0.1], [[1.3]], [0.9], [0.0], [[1.0]], 6.0)
        dec = tce_sum_decomposed(params, 0.05)
        spec = build_selection(params)
        assert dec.contributions[0] == pytest.approx(tce(spec, 0.05), abs=1e-8)

    def test_zero_shape_classical_allocation(self):
        # Normal portfolio: contribution_i = mu_i + (sigma_iS / sigma_S^2)
        # * (TCE_S - mu_S), the covariance allocation.
        mu = np.array([0.2, -0.1, 0.4])
        sig = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2], [0.1, -0.2, 1.5]])
        params = SutParams(mu, sig, np.zeros(3), [0.0], [[1.0]], None)
        alpha = 0.05
        dec = tce_sum_decomposed(params, alpha)
        mu_s = mu.sum()
        var_s = sig.sum()
        z = norm.ppf(1 - alpha)
        tce_s = mu_s + np.sqrt(var_s) * norm.pdf(z) / alpha
        assert dec.total == pytest.approx(tce_s, abs=1e-7)
        sigma_is = sig.sum(axis=1)
        expected = mu + sigma_is / var_s * (tce_s - mu_s)
        np.testing.assert_allclose(dec.contributions, expected, atol=1e-7)

    def test_translation_equivariance(self):
        sig = np.array([[1.0, 0.2], [0.2, 1.5]])
        lam = np.array([0.7, -0.3])
        base = SutParams([0.0, 0.0], sig, lam, [0.0], [[1.0]], 9.0)
        shift = np.array([0.5, -1.2])
        moved = SutParams(shift, sig, lam, [0.0], [[1.0]], 9.0)
        d0 = tce_sum_decomposed(base, 0.05)
        d1 = tce_sum_decomposed(moved, 0.05)
        assert d1.total == pytest.approx(d0.total + shift.sum(), abs=1e-8)
        np.testing.assert_allclose(d1.contributions, d0.contributions + shift,
                                   atol=1e-8)
        assert d1.quantile == pytest.approx(d0.quantile + shift.sum(), abs=1e-8)

    def test_monotone_in_alpha(self):
        params = SutParams([0.0, 0.0], np.eye(2), [0.8, 0.2], [0.0], [[1.0]], 7.0)
        vals = [tce_sum_decomposed(params, a).total for a in (0.01, 0.05, 0.2, 0.5)]
        assert all(vals[i] >= vals[i + 1] - 1e-10 for i in range(len(vals) - 1))

    def test_contributions_against_mc(self):
        mu = np.array([0.1, -0.2, 0.05])
        sig = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2], [0.1, -0.2, 1.5]])
        lam = np.array([0.8, -0.5, 1.2])
        params = SutParams(mu, sig, lam, [0.0], [[1.0]], 8.0)
        alpha = 0.05
        dec = tce_sum_decomposed(params, alpha)
        spec = build_selection(params)
        batch = sample_se_rejection(spec, None, 2_000_000, seed=3)
        y = batch.draws
        s = y.sum(axis=1)
        mask = s > dec.quantile
        tail = y[mask]
        se = tail.std(axis=0) / np.sqrt(tail.shape[0])
        assert z_within(dec.contributions, tail.mean(axis=0), se)
        # empirical tail mass consistent with alpha
        assert abs(mask.mean() - alpha) < 4 * np.sqrt(alpha * (1 - alpha) / s.size)

    def test_sum_distribution_params(self):
        mu = np.array([0.1, -0.2, 0.05])
        sig = np.array([[1.0, 0.3, 0.1], [0.3, 2.0, -0.2], [0.1, -0.2, 1.5]])
        lam = np.array([0.8, -0.5, 1.2])
        params = SutParams(mu, sig, lam, [0.0], [[1.0]], 8.0)
        sd = sum_distribution(params)
        assert sd.mean_sum == pytest.approx(mu.sum())
        assert sd.var_sum == pytest.approx(sig.sum())
        # the induced univariate law matches 1'Y draws through its pdf
        spec = build_selection(params)
        batch = sample_se_rejection(spec, None, 400_000, seed=6)
        s = batch.draws.sum(axis=1)
        xs = np.linspace(s.min(), s.max(), 2001)
        pdf = st_pdf(xs[:, None], [sd.mean_sum], [[sd.var_sum]], [sd.shape_sum],
                     sd.df)
        # KS-style comparison on a coarse grid
        cdf = np.cumsum(pdf) * (xs[1] - xs[0])
        emp = np.searchsorted(np.sort(s), xs) / s.size
        assert np.max(np.abs(cdf - emp)) < 0.01

    def test_low_df_rejected(self):
        params = SutParams([0.0], [[1.0]], [0.5], [0.0], [[1.0]], 1.0)
        with pytest.raises(MomentNotDefinedError):
            tce_sum_decomposed(params, 0.05)
