import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm, t as tdist

from tse.censored import censored_factor, censored_factor_conditional
from tse.elliptical import (
    DEFAULT_SETTINGS,
    RectangleProbSettings,
    TruncationBox,
    conditional,
    log_density,
    rectangle_prob,
)
from tse.errors import NumericalError, SpecError
from tse.oracle import sample_se_rejection
from tse.selection import (
    SelectionSpec,
    SutParams,
    build_selection,
    esn_pdf,
    limiting_t,
    selection_probability,
)
from tse.truncated import truncated_mean_cov


def _lhs_ratio_student(y, mu, sig, lam, tau, nu):
    """Exact conditional density-to-mass ratio of the selection variable at
    its threshold, for one-dimensional selection over rows ``y``."""
    p = np.atleast_2d(y).shape[1]
    mu = np.asarray(mu)
    rinv = np.linalg.inv(np.linalg.cholesky(np.atleast_2d(sig)))  # lower
    # use the symmetric root for consistency with the construction
    from tse.selection import _sqrtm_spd

    rinv = np.linalg.inv(_sqrtm_spd(np.atleast_2d(sig)))
    diff = np.atleast_2d(y) - mu
    std = diff @ rinv.T
    proj = std @ np.asarray(lam)
    delta = np.sum(std * std, axis=1)
    nuy = np.sqrt((nu + p) / (nu + delta))
    arg = (tau + proj) * nuy
    return nuy * tdist.pdf(arg, nu + p) / tdist.cdf(arg, nu + p)


class TestAggregateIdentity:
    def test_student_kernel_identity(self):
        mu, sig, lam, tau, nu = [0.0], [[1.0]], [1.5], 0.5, 7.0
        params = SutParams(mu, sig, lam, [tau], [[1.0]], nu)
        spec = build_selection(params)
        box = TruncationBox([-1.0], [2.0])
        fac = censored_factor(params, box)
        batch = sample_se_rejection(spec, box, 400_000, seed=2)
        y = batch.draws
        ratio = _lhs_ratio_student(y, mu, sig, lam, tau, nu)
        for kind, g in (("one", np.ones(batch.n)),
                        ("mean", y[:, 0]),
                        ("second", y[:, 0] ** 2)):
            vals = g * ratio
            lhs, se = vals.mean(), vals.std() / np.sqrt(vals.size)
            rhs = float(np.atleast_1d(np.asarray(fac.expectation(kind))).ravel()[0])
            assert abs(lhs - rhs) < 4 * se

    def test_normal_kernel_identity(self):
        mu, sig, lam, tau = np.array([0.2]), np.array([[1.4]]), np.array([0.9]), 0.3
        params = SutParams(mu, sig, lam, [tau], [[1.0]], None)
        spec = build_selection(params)
        box = TruncationBox([-1.5], [1.8])
        fac = censored_factor(params, box)
        batch = sample_se_rejection(spec, box, 400_000, seed=9)
        y = batch.draws[:, 0]
        arg = tau + lam[0] * (y - mu[0]) / np.sqrt(sig[0, 0])
        ratio = norm.pdf(arg) / norm.cdf(arg)
        for kind, g in (("one", np.ones(y.size)), ("mean", y), ("second", y * y)):
            vals = g * ratio
            lhs, se = vals.mean(), vals.std() / np.sqrt(vals.size)
            rhs = float(np.atleast_1d(np.asarray(fac.expectation(kind))).ravel()[0])
            assert abs(lhs - rhs) < 4 * se

    def test_eta_closed_forms(self):
        # lam = 0, tau = 0: eta = sqrt(2/pi); scaling by sqrt(1 + lam'lam)
        fac0 = censored_factor(SutParams([0.0], [[1.0]], [0.0], [0.0], [[1.0]], None),
                               None)
        assert fac0.eta == pytest.approx(np.sqrt(2 / np.pi), rel=1e-12)
        assert fac0.prob_ratio == pytest.approx(1.0, rel=1e-12)
        fac3 = censored_factor(SutParams([0.0], [[1.0]], [np.sqrt(3.0)], [0.0],
                                         [[1.0]], None), None)
        assert fac3.eta == pytest.approx(np.sqrt(2 / (np.pi * 4.0)), rel=1e-12)

    def test_student_eta_matches_display(self):
        lam, tau, nu = np.array([1.2, -0.5]), 0.4, 6.0
        params = SutParams([0.0, 0.0], np.eye(2), lam, [tau], [[1.0]], nu)
        fac = censored_factor(params, None)
        s2 = 1.0 + lam @ lam
        eta_display = (tdist.pdf(tau / np.sqrt(s2), nu) / np.sqrt(s2)
                       / tdist.cdf(tau / np.sqrt(s2), nu))
        assert fac.eta == pytest.approx(eta_display, rel=1e-12)

    def test_limiting_block_matches_receding_extension_limit(self):
        params = SutParams([0.3, -0.1], [[1.2, 0.2], [0.2, 0.9]],
                           [0.8, -0.4], [0.6], [[1.0]], 5.0)
        fac = censored_factor(params, TruncationBox([-1.0, -1.0], [1.0, 1.0]))
        lim = limiting_t(params).to_joint()
        np.testing.assert_allclose(fac.limiting.xi, lim.xi, atol=1e-12)
        np.testing.assert_allclose(fac.limiting.omega, lim.omega, atol=1e-12)

    def test_normal_equals_large_df_factor(self):
        mu, sig, lam, tau = [0.1], [[1.1]], [0.7], 0.2
        box = TruncationBox([-1.0], [1.5])
        f_norm = censored_factor(SutParams(mu, sig, lam, [tau], [[1.0]], None), box)
        f_bigdf = censored_factor(SutParams(mu, sig, lam, [tau], [[1.0]], 1e6), box)
        for kind in ("one", "mean", "second"):
            a = np.atleast_1d(np.asarray(f_norm.expectation(kind))).ravel()
            b = np.atleast_1d(np.asarray(f_bigdf.expectation(kind))).ravel()
            np.testing.assert_allclose(a, b, rtol=1e-4)

    def test_requires_positive_orthant_selection(self):
        from tse.selection import SelectionSpec
        from tse.elliptical import normal_joint

        j = normal_joint([0.0, 0.0], np.eye(2))
        spec = SelectionSpec(j, 1, 1, np.array([-1.0]), np.array([np.inf]))
        with pytest.raises(SpecError):
            censored_factor(spec, None)


class TestConditionalIdentity:
    def _setup(self):
        mu = np.array([0.2, -0.1])
        sig = np.array([[1.3, 0.4], [0.4, 0.8]])
        lam = np.array([0.7, -0.9])
        tau = 0.25
        params = SutParams(mu, sig, lam, [tau], [[1.0]], None)
        box = TruncationBox([-2.0, -1.0], [1.5, 1.0])
        return params, box, mu, sig, lam, tau

    def test_conditional_identity_against_quadrature(self):
        params, box, mu, sig, lam, tau = self._setup()
        y1 = 0.3
        fac = censored_factor_conditional(params, box, [0], [y1])
        from tse.selection import _sqrtm_spd

        rinv = np.linalg.inv(_sqrtm_spd(sig))

        def ratio(y):
            arg = tau + lam @ (rinv @ (y - mu))
            return norm.pdf(arg) / norm.cdf(arg)

        def jpdf(v):
            return esn_pdf(np.array([[y1, v]]), mu, sig, lam, tau)[0]

        den, _ = quad(jpdf, box.lower[1], box.upper[1], limit=200)
        for kind, g in (("one", lambda v: 1.0), ("mean", lambda v: v),
                        ("second", lambda v: v * v)):
            num, _ = quad(lambda v: g(v) * ratio(np.array([y1, v])) * jpdf(v),
                          box.lower[1], box.upper[1], limit=200)
            rhs = float(np.atleast_1d(np.asarray(fac.expectation(kind))).ravel()[0])
            assert rhs == pytest.approx(num / den, abs=2e-5, rel=1e-4)

    def test_no_observation_reduces_to_plain_factor(self):
        params, box, *_ = self._setup()
        f0 = censored_factor_conditional(params, box, [], [])
        f1 = censored_factor(params, box)
        assert f0.expectation("one") == pytest.approx(f1.expectation("one"), rel=1e-12)

    def test_fully_observed_leaves_scalar_factor(self):
        params, box, mu, sig, lam, tau = self._setup()
        y_obs = np.array([0.3, 0.0])
        fac = censored_factor_conditional(params, box, [0, 1], y_obs)
        assert fac.prob_ratio == 1.0
        from tse.selection import _sqrtm_spd

        rinv = np.linalg.inv(_sqrtm_spd(sig))
        arg = tau + lam @ (rinv @ (y_obs - mu))
        assert fac.expectation("one") == pytest.approx(
            norm.pdf(arg) / norm.cdf(arg), rel=1e-10)
        with pytest.raises(SpecError):
            fac.expectation("mean")

    def test_observed_outside_box_rejected(self):
        params, box, *_ = self._setup()
        with pytest.raises(SpecError):
            censored_factor_conditional(params, box, [0], [5.0])

    def test_conditional_consistency_against_aggregate(self):
        # Averaging the conditional factor over draws of the observed
        # coordinate reproduces the aggregate identity.
        params, box, *_ = self._setup()
        spec = build_selection(params)
        batch = sample_se_rejection(spec, box, 4000, seed=5)
        y1s = batch.draws[:200, 0]
        vals = []
        for y1 in y1s:
            f = censored_factor_conditional(params, box, [0], [y1])
            vals.append(f.expectation("one"))
        vals = np.array(vals)
        agg = censored_factor(params, box).expectation("one")
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - agg) < 4 * se


EX5 = SutParams([0.0, 0.0], [[1.0, 0.2], [0.2, 4.0]], [[1.0, 3.0], [-3.0, -2.0]],
                [-1.0, 2.0], [[1.0, -0.5], [-0.5, 1.0]], 4.0)
# First coordinates of the three EX5 draws whose second coordinate falls
# below the detection limit 1.0 in perfbench's em-iteration workload.
EM_FIRST = (-2.295359815972321, -0.11144347011768167, 0.2808835460946743)
EM_BOX = TruncationBox([-np.inf, -np.inf], [np.inf, 1.0])


def _reference_expectation(spec, tbox, observed, values, kind):
    """The censored expectation in its uncancelled form: eta times the box
    mass ratio, with the selection mass of the conditioned spec computed."""
    q = spec.n_selection
    if len(observed):
        keep = [i for i in range(spec.n_outcome) if i not in observed]
        joint = conditional(spec.joint, q + np.asarray(observed), values)
        spec = SelectionSpec(joint, q, len(keep), spec.selection_lower, spec.selection_upper)
        tbox = tbox.subset(keep)
    p_aug, _ = rectangle_prob(spec.joint, spec.augmented_box(tbox))
    p_sel = selection_probability(spec)
    zero = np.zeros(q)
    log_eta = float(log_density(spec.selection_marginal(), zero) - np.log(p_sel))
    limiting = conditional(spec.joint, np.arange(q), zero)
    p_w, _ = rectangle_prob(limiting, tbox)
    mass = min(max(p_aug / p_sel, 0.0), 1.0)
    factor = float(np.exp(log_eta + float(np.log(p_w) - np.log(mass))))
    if kind == "one":
        return factor
    rep = truncated_mean_cov(limiting, tbox)
    return factor * (rep.mean if kind == "mean" else rep.second_moment)


class TestCancelledFactor:
    CASES = [
        (SutParams([0.2, -0.1], [[1.3, 0.4], [0.4, 0.8]], [0.7, -0.9], [0.25], [[1.0]], None),
         TruncationBox([-2.0, -1.0], [1.5, 1.0])),
        (SutParams([0.0], [[1.0]], [1.5], [0.5], [[1.0]], 7.0), TruncationBox([-1.0], [2.0])),
        (SutParams([0.1], [[1.1]], [0.7], [0.2], [[1.0]], None), TruncationBox([-1.0], [1.5])),
        (EX5, TruncationBox([-0.8, -0.6], [0.5, 0.7])),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("kind", ["one", "mean", "second"])
    def test_matches_uncancelled_form(self, case, kind):
        params, box = self.CASES[case]
        spec = build_selection(params)
        got = censored_factor(spec, box).expectation(kind)
        ref = _reference_expectation(spec, box, [], [], kind)
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)
        if params.p == 2:
            got = censored_factor_conditional(spec, box, [0], [0.3]).expectation(kind)
            ref = _reference_expectation(spec, box, [0], [0.3], kind)
            np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    @pytest.mark.parametrize("y1", EM_FIRST)
    def test_em_observations_match_uncancelled_form(self, y1):
        spec = build_selection(EX5)
        got = censored_factor_conditional(spec, EM_BOX, [0], [y1]).expectation("second")
        ref = _reference_expectation(spec, EM_BOX, [0], [y1], "second")
        np.testing.assert_allclose(got, ref, rtol=1e-13, atol=0)

    def test_conditioned_selection_mass_is_never_computed(self, monkeypatch):
        import tse.censored
        import tse.selection

        calls = []
        real = tse.selection.selection_probability

        def counted(spec, settings):
            calls.append(spec)
            return real(spec, settings)

        monkeypatch.setattr(tse.selection, "selection_probability", counted)
        monkeypatch.setattr(tse.censored, "selection_probability", counted)
        spec = build_selection(EX5)
        for y1 in EM_FIRST:
            fac = censored_factor_conditional(spec, EM_BOX, [0], [y1])
            for kind in ("one", "mean", "second"):
                fac.expectation(kind)
        assert calls == []
        # Reading eta is what asks for the selection mass of the
        # conditioned spec, and only then.
        eta = fac.eta
        assert len(calls) == 1 and calls[0] is fac.spec and calls[0] is not spec
        assert eta * fac.prob_ratio == pytest.approx(fac.scalar_factor(), rel=1e-13)

    @pytest.mark.parametrize("observed", [[1], [0], []])
    def test_box_of_wrong_dimension_raises(self, observed):
        params = SutParams([0.2, -0.1], [[1.3, 0.4], [0.4, 0.8]], [0.7, -0.9], [0.25],
                           [[1.0]], None)
        with pytest.raises(SpecError):
            censored_factor_conditional(params, TruncationBox([-1.0], [1.0]), observed,
                                        [0.5] * len(observed))

    def test_augmented_mass_underflow_raises(self):
        params = SutParams([0.0], [[1.0]], [0.2], [0.0], [[1.0]], None)
        with pytest.raises(NumericalError):
            censored_factor(params, TruncationBox([-1e4], [-1e4 + 1.0]))


def _unshared_expectation(spec, tbox, observed, values, kind, settings=DEFAULT_SETTINGS):
    """The censored expectation formed as before W's report supplied
    P(W in B): f_sel(0) P(W in B) / P(aug) with P(W in B) from
    ``rectangle_prob``, times W's truncated moments computed apart."""
    q = spec.n_selection
    if len(observed):
        keep = [i for i in range(spec.n_outcome) if i not in observed]
        joint = conditional(spec.joint, q + np.asarray(observed), values)
        spec = SelectionSpec(joint, q, len(keep), spec.selection_lower, spec.selection_upper)
        tbox = tbox.subset(keep)
    p_aug, _ = rectangle_prob(spec.joint, spec.augmented_box(tbox), settings)
    zero = np.zeros(q)
    log_f0 = log_density(spec.selection_marginal(), zero)
    limiting = conditional(spec.joint, np.arange(q), zero)
    p_w, _ = rectangle_prob(limiting, tbox, settings)
    factor = float(np.exp(float(log_f0 + np.log(p_w) - np.log(p_aug))))
    if kind == "one":
        return factor
    rep = truncated_mean_cov(limiting, tbox, settings)
    return factor * (rep.mean if kind == "mean" else rep.second_moment)


class TestSharedLimitingMass:
    """The moment kinds take P(W in B) from W's report; every result must
    equal the unshared form bit for bit."""

    SUN = SutParams(EX5.location, EX5.scale, EX5.shape, EX5.extension,
                    EX5.selection_corr, None)
    CASES = TestCancelledFactor.CASES + [
        (SUN, TruncationBox([-0.8, -0.6], [0.5, 0.7])),
        (SutParams([0.2, -0.1], [[1.3, 0.4], [0.4, 0.8]], [0.7, -0.9], [0.25], [[1.0]], 5.0),
         TruncationBox([-2.0, -np.inf], [1.5, 1.0])),
        # W ~ N(0, 6.2e-4) has mass 2.8e-284 here: its report holds the
        # coordinate out of bounds and reports mass 0, so rectangle_prob
        # supplies P(W in B).
        (SutParams([0.0], [[1.0]], [40.0], [0.0], [[1.0]], None),
         TruncationBox([0.9], [np.inf])),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    @pytest.mark.parametrize("kind", ["one", "mean", "second"])
    def test_bit_identical_to_unshared_form(self, case, kind):
        params, box = self.CASES[case]
        spec = build_selection(params)
        got = censored_factor(spec, box).expectation(kind)
        assert np.array_equal(got, _unshared_expectation(spec, box, [], [], kind))
        if params.p == 2:
            got = censored_factor_conditional(spec, box, [0], [0.3]).expectation(kind)
            assert np.array_equal(got, _unshared_expectation(spec, box, [0], [0.3], kind))

    @pytest.mark.parametrize("y1", EM_FIRST)
    @pytest.mark.parametrize("kind", ["one", "mean", "second"])
    def test_em_observations_bit_identical(self, y1, kind):
        spec = build_selection(EX5)
        got = censored_factor_conditional(spec, EM_BOX, [0], [y1]).expectation(kind)
        assert np.array_equal(got, _unshared_expectation(spec, EM_BOX, [0], [y1], kind))

    def test_lattice_box_keeps_the_refined_mass(self):
        # W is 4-D with 5.5 degrees of freedom, so its box is a lattice call
        # that rectangle_prob refines and the moment recursion does not.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 6))
        params = SutParams(np.zeros(4), a @ a.T / 6 + 0.5 * np.eye(4),
                           [0.6, -0.4, 0.3, 0.2], [0.2], [[1.0]], 4.5)
        box = TruncationBox([-1.0, -1.5, -0.5, -2.0], [1.2, 0.8, 1.5, 0.6])
        settings = RectangleProbSettings(max_points=1024, target_abs_error=1e-12)
        spec = build_selection(params)
        fac = censored_factor(spec, box, settings)
        assert fac.limiting.nu == 5.5
        got = fac.expectation("second")
        ref = _unshared_expectation(spec, box, [], [], "second", settings)
        assert np.array_equal(got, ref)
        p_w, _ = rectangle_prob(fac.limiting, box, settings)
        assert fac.truncated_limiting_moments().prob_mass != p_w

    def test_second_integrates_w_box_once(self, monkeypatch):
        import tse.elliptical
        import tse.qmc
        import tse.truncated

        calls = []
        real, real_uv = tse.qmc.rect_prob_qmc, tse.qmc._uv_prob

        def counted(sigma, lower, upper, df=None, **kw):
            calls.append((np.size(lower), df))
            return real(sigma, lower, upper, df, **kw)

        def counted_uv(var, lower, upper, df=None):
            calls.append((1, df))
            return real_uv(var, lower, upper, df)

        monkeypatch.setattr(tse.elliptical, "rect_prob_qmc", counted)
        monkeypatch.setattr(tse.truncated, "rect_prob_qmc", counted)
        monkeypatch.setattr(tse.truncated, "_uv_prob", counted_uv)
        spec = build_selection(EX5)
        for y1 in EM_FIRST:
            fac = censored_factor_conditional(spec, EM_BOX, [0], [y1])
            calls.clear()
            fac.expectation("second")
            # W is one-dimensional, so its report integrates its boxes with
            # _uv_prob: W's own box once; the gradient law's nu - 2 mass is
            # another interval.
            assert calls.count((1, fac.limiting.nu)) == 1
            assert calls.count((1, fac.limiting.nu - 2.0)) == 1
            calls.clear()
            fac.expectation("mean")
            fac.log_factor
            assert calls == []

    def test_one_computes_no_moments(self, monkeypatch):
        import tse.censored

        calls = []
        real = tse.censored.truncated_mean_cov

        def counted(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(tse.censored, "truncated_mean_cov", counted)
        spec = build_selection(EX5)
        fac = censored_factor_conditional(spec, EM_BOX, [0], [EM_FIRST[1]])
        one = fac.expectation("one")
        fac.log_factor
        assert calls == []
        # Asking for a moment afterwards computes the report once and gives
        # what a fresh factor gives.
        second = fac.expectation("second")
        fac.expectation("mean")
        assert len(calls) == 1
        fresh = censored_factor_conditional(spec, EM_BOX, [0], [EM_FIRST[1]])
        assert np.array_equal(second, fresh.expectation("second"))
        assert one == fresh.expectation("one")

    def test_augmented_box_equals_validated(self):
        spec = build_selection(EX5)
        box = TruncationBox([-0.8, 0.1], [0.5, 0.1], allow_degenerate=True)
        aug = spec.augmented_box(box)
        ref = TruncationBox(np.r_[spec.selection_lower, box.lower],
                            np.r_[spec.selection_upper, box.upper], allow_degenerate=True)
        np.testing.assert_array_equal(aug.lower, ref.lower)
        np.testing.assert_array_equal(aug.upper, ref.upper)
        assert aug.allow_degenerate
