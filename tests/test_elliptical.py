import mpmath
import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.stats import t as tdist

from tse.elliptical import (
    EllipticalJoint,
    RectangleProbSettings,
    TruncationBox,
    _log_density_parts,
    _log_density_rows,
    conditional,
    density,
    mahalanobis,
    marginal,
    normal_joint,
    nu_factor,
    rectangle_prob,
    student_joint,
    univariate_cdf,
    univariate_quantile,
)
from tse.errors import NumericalError, SpecError
from tse.oracle import sample_joint
from tse.qmc import _DS_MAX_DF

from conftest import z_within


class TestValidation:
    def test_asymmetric_dispersion_rejected(self):
        with pytest.raises(SpecError):
            normal_joint([0, 0], [[1.0, 0.2], [0.3, 1.0]])

    def test_non_pd_rejected(self):
        with pytest.raises(NumericalError):
            normal_joint([0, 0], [[1.0, 2.0], [2.0, 1.0]])

    def test_student_needs_positive_df(self):
        with pytest.raises(SpecError):
            student_joint([0.0], [[1.0]], 0.0)

    def test_box_orientation(self):
        with pytest.raises(SpecError):
            TruncationBox([1.0], [0.0])
        with pytest.raises(SpecError):
            TruncationBox([np.inf], [np.inf])
        with pytest.raises(SpecError):
            TruncationBox([0.0], [0.0])  # degenerate needs the flag
        TruncationBox([0.0], [0.0], allow_degenerate=True)

    def test_settings_bounds(self):
        with pytest.raises(SpecError):
            RectangleProbSettings(max_points=10)
        with pytest.raises(SpecError):
            RectangleProbSettings(num_shifts=2)
        with pytest.raises(SpecError):
            RectangleProbSettings(target_abs_error=0.0)


class TestMarginal:
    def test_identity_subset_of_standard_normal(self):
        j = normal_joint([0, 0], np.eye(2))
        m = marginal(j, [1])
        assert m.dim == 1
        assert m.xi[0] == 0.0 and m.omega[0, 0] == 1.0

    def test_joint_parameter_block(self):
        # Last two coordinates of the 4-dim example joint recover the plain
        # bivariate t with the displayed scale.
        from tse.selection import SutParams, build_selection

        params = SutParams([0.0, 0.0], [[1.0, 0.2], [0.2, 4.0]],
                           [[1.0, 3.0], [-3.0, -2.0]], [-1.0, 2.0],
                           [[1.0, -0.5], [-0.5, 1.0]], 4.0)
        joint = build_selection(params).joint
        m = marginal(joint, [2, 3])
        assert m.nu == 4.0
        np.testing.assert_allclose(m.xi, [0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(m.omega, [[1.0, 0.2], [0.2, 4.0]], atol=1e-12)

    def test_marginal_against_mc(self, rng):
        xi = np.array([0.5, -1.0, 2.0])
        a = rng.standard_normal((3, 3))
        omega = a @ a.T + 2 * np.eye(3)
        j = student_joint(xi, omega, 5.0)
        m = marginal(j, [0, 2])
        draws = sample_joint(m, 1_000_000, np.random.default_rng(1))
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert z_within(m.xi, draws.mean(axis=0), se)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5, unique=True),
           st.data())
    @hyp_settings(max_examples=40, deadline=None)
    def test_marginal_associativity(self, keep, data):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((5, 5))
        j = normal_joint(rng.standard_normal(5), a @ a.T + 5 * np.eye(5))
        inner = data.draw(st.lists(st.integers(0, len(keep) - 1), min_size=1,
                                   max_size=len(keep), unique=True))
        two_step = marginal(marginal(j, keep), inner)
        one_step = marginal(j, [keep[i] for i in inner])
        np.testing.assert_array_equal(two_step.xi, one_step.xi)
        np.testing.assert_array_equal(two_step.omega, one_step.omega)


class TestConditional:
    def test_independent_coordinates(self):
        j = normal_joint([0, 0], np.eye(2))
        c = conditional(j, [1], [5.0])
        assert c.family == "normal"
        np.testing.assert_allclose(c.xi, [0.0])
        np.testing.assert_allclose(c.omega, [[1.0]])

    def test_student_scale_update_at_center(self):
        j = student_joint([0, 0], np.eye(2), 4.0)
        c = conditional(j, [1], [0.0])
        assert c.nu == 5.0
        np.testing.assert_allclose(c.omega, [[0.8]], rtol=1e-14)

    def test_normal_dispersion_ignores_value(self):
        j = normal_joint([0.0, 1.0], [[2.0, 0.7], [0.7, 1.5]])
        c1 = conditional(j, [1], [0.0])
        c2 = conditional(j, [1], [37.0])
        np.testing.assert_array_equal(c1.omega, c2.omega)

    def test_student_scale_ratio_between_values(self):
        j = student_joint([0.0, 0.0], [[2.0, 1.0], [1.0, 3.0]], 6.0)
        v1, v2 = 0.5, 2.5
        c1 = conditional(j, [1], [v1])
        c2 = conditional(j, [1], [v2])
        d1 = v1 ** 2 / 3.0
        d2 = v2 ** 2 / 3.0
        expected = (6.0 + d2) / (6.0 + d1)
        np.testing.assert_allclose(c2.omega / c1.omega, expected, rtol=1e-12)

    def test_conditional_against_quadrature(self):
        # Conditional mean and variance from direct quadrature of the joint
        # density ratio.
        j = student_joint([0.0, 0.0], [[2.0, 1.0], [1.0, 3.0]], 6.0)
        x2 = 1.5
        c = conditional(j, [1], [x2])

        def joint_pdf(x1):
            return density(j, [x1, x2])

        norm_c, _ = quad(joint_pdf, -60, 60, limit=300)
        m1, _ = quad(lambda v: v * joint_pdf(v), -60, 60, limit=300)
        m2, _ = quad(lambda v: v * v * joint_pdf(v), -60, 60, limit=300)
        mean = m1 / norm_c
        var = m2 / norm_c - mean ** 2
        np.testing.assert_allclose(c.xi[0], mean, rtol=1e-7)
        # variance of a t with df 7 is scale * 7/5
        np.testing.assert_allclose(c.omega[0, 0] * 7.0 / 5.0, var, rtol=1e-5)

    def test_singular_given_block(self):
        j = normal_joint([0, 0, 0], np.eye(3))
        with pytest.raises(SpecError):
            conditional(j, [0, 1, 2], [0, 0, 0])


def _assert_same_joint(derived, validated):
    assert derived.family == validated.family and derived.nu == validated.nu
    for a, b in ((derived.xi, validated.xi), (derived.omega, validated.omega)):
        np.testing.assert_array_equal(a, b)
        assert a.dtype == b.dtype and a.flags.c_contiguous == b.flags.c_contiguous
        assert not a.flags.writeable


class TestDerivedLaws:
    """Marginals, conditionals and sub-boxes skip re-validation; they must
    equal what the validating constructors make of the same parts."""

    OMEGA = np.array([[2.0, 0.6, -0.3, 0.2], [0.6, 1.5, 0.4, -0.1],
                      [-0.3, 0.4, 1.2, 0.5], [0.2, -0.1, 0.5, 0.9]])
    XI = np.array([0.3, -0.2, 1.1, 0.0])

    @pytest.fixture(params=[None, 4.0])
    def joint(self, request):
        if request.param is None:
            return normal_joint(self.XI, self.OMEGA)
        return student_joint(self.XI, self.OMEGA, request.param)

    @pytest.mark.parametrize("keep", [[0], [2, 0], [1, 2, 3]])
    def test_marginal_equals_validated(self, joint, keep):
        m = marginal(joint, keep)
        idx = np.array(keep)
        _assert_same_joint(m, EllipticalJoint(joint.family, self.XI[idx],
                                              self.OMEGA[np.ix_(idx, idx)], joint.nu))

    @pytest.mark.parametrize("given, value", [([0], [0.4]), ([3, 1], [-1.0, 2.5])])
    def test_conditional_equals_validated(self, joint, given, value):
        c = conditional(joint, given, value)
        _assert_same_joint(c, EllipticalJoint(c.family, c.xi.copy(), c.omega.copy(), c.nu))
        assert c.nu == (None if joint.nu is None else joint.nu + len(given))

    def test_subset_equals_validated(self):
        b = TruncationBox([-1.0, 0.5, -np.inf, 2.0], [1.0, 0.5, 3.0, np.inf],
                          allow_degenerate=True)
        for idx in ([1], [3, 0, 2]):
            sub = b.subset(idx)
            ref = TruncationBox(b.lower[idx], b.upper[idx], allow_degenerate=True)
            np.testing.assert_array_equal(sub.lower, ref.lower)
            np.testing.assert_array_equal(sub.upper, ref.upper)
            assert sub.allow_degenerate and sub.lower.dtype == ref.lower.dtype

    @pytest.mark.parametrize("nu", [None, 3.0])
    def test_non_pd_schur_complement_still_raises(self, nu):
        # The dispersion passes Cholesky, but the Schur complement of its
        # first coordinate rounds to a value that does not.
        omega = [[1.275604688897389, 1.7145883970794726],
                 [1.7145883970794726, 2.304642964224818]]
        j = normal_joint([0.0, 0.0], omega) if nu is None else student_joint([0.0, 0.0],
                                                                             omega, nu)
        with pytest.raises(NumericalError):
            conditional(j, [0], [0.2])


class TestMahalanobisAndFactor:
    def test_center_is_zero(self):
        j = normal_joint([1.0, -2.0], [[2.0, 0.3], [0.3, 1.0]])
        assert mahalanobis(j, [1.0, -2.0]) == 0.0

    def test_scalar_case(self):
        j = normal_joint([0.0], [[4.0]])
        assert mahalanobis(j, [2.0]) == pytest.approx(1.0, rel=1e-14)

    def test_hand_inverted_two_by_two(self):
        sigma = np.array([[1.0, 0.2], [0.2, 4.0]])
        j = normal_joint([0.0, 0.0], sigma)
        x = np.array([1.0, 1.0])
        det = 1.0 * 4.0 - 0.2 * 0.2
        inv = np.array([[4.0, -0.2], [-0.2, 1.0]]) / det
        np.testing.assert_allclose(mahalanobis(j, x), x @ inv @ x, rtol=1e-13)

    def test_nu_factor_center(self):
        j = student_joint([0, 0], np.eye(2), 4.0)
        assert nu_factor(j, [0.0, 0.0]) == pytest.approx(1.5)

    def test_nu_factor_direct_substitution(self):
        j = student_joint([0.0], [[1.0]], 1.0)
        x = [np.sqrt(3.0)]
        assert nu_factor(j, x) == pytest.approx(0.5, rel=1e-12)

    def test_nu_factor_rejects_normal(self):
        with pytest.raises(SpecError):
            nu_factor(normal_joint([0.0], [[1.0]]), [0.0])

    @given(st.lists(st.floats(-20, 20), min_size=2, max_size=2))
    @hyp_settings(max_examples=60, deadline=None)
    def test_nu_factor_algebraic_identity(self, x):
        j = student_joint([0.3, -0.7], [[1.5, 0.4], [0.4, 2.0]], 3.5)
        f = nu_factor(j, x)
        d = mahalanobis(j, x)
        assert abs(f * (3.5 + d) - (3.5 + 2)) < 1e-12 * (3.5 + d)


def _mp_delta(xi, omega, x):
    """``(x - xi)' omega^{-1} (x - xi)`` at 40 digits."""
    with mpmath.workdps(40):
        diff = mpmath.matrix([mpmath.mpf(a) - mpmath.mpf(b) for a, b in zip(x, xi)])
        return (diff.T * mpmath.lu_solve(mpmath.matrix(omega.tolist()), diff))[0]


def _distance_cases():
    """``(bound, xi, omega, x)``: random laws ``a a' + c I`` of d = 1-6,
    cond(omega) at most 1e3, at relative bound 2e-14, and rotated laws of
    condition number 1e8 at 1e-7, each with points drawn from the law."""
    rng = np.random.default_rng(11)
    cases = []
    for d in range(1, 7):
        for _ in range(4):
            a = rng.standard_normal((d, d))
            omega = (a @ a.T + rng.uniform(0.05, 2.0) * np.eye(d)) * np.exp(rng.uniform(-3, 3))
            cases.append((2e-14, omega))
        if d > 1:
            for _ in range(2):
                rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
                omega = (rot * np.geomspace(1.0, 1e-8, d)) @ rot.T * np.exp(rng.uniform(-3, 3))
                cases.append((1e-7, 0.5 * (omega + omega.T)))
    out = []
    for bound, omega in cases:
        cond = np.linalg.cond(omega)
        assert cond <= 1e3 if bound == 2e-14 else 0.5e8 <= cond <= 2e8
        xi = rng.standard_normal(omega.shape[0])
        chol = np.linalg.cholesky(omega)
        for _ in range(2):
            x = xi + chol @ rng.standard_normal(xi.size) * rng.uniform(0.2, 3.0)
            out.append((bound, xi, omega, x))
    return out


class TestSquaredDistanceAccuracy:
    @pytest.mark.parametrize("nu", [None, 0.5, 1.5, 4.0, 30.0])
    def test_against_mpmath(self, nu):
        for bound, xi, omega, x in _distance_cases():
            j = normal_joint(xi, omega) if nu is None else student_joint(xi, omega, nu)
            ref = _mp_delta(j.xi, j.omega, x)
            delta = _log_density_rows(j, _log_density_parts(j), x[None])[2][0]
            with mpmath.workdps(40):
                got = {"delta": delta, "mahalanobis": mahalanobis(j, x)}
                exact = {"delta": ref, "mahalanobis": ref}
                if nu is not None:
                    got["nu_factor"] = nu_factor(j, x)
                    exact["nu_factor"] = (nu + x.size) / (nu + ref)
                for name, value in got.items():
                    rel = abs((mpmath.mpf(value) - exact[name]) / exact[name])
                    assert rel <= bound, (name, x.size, bound, float(rel))


class TestDensity:
    def test_standard_normal_at_zero(self):
        assert density(normal_joint([0.0], [[1.0]]), [0.0]) == pytest.approx(
            0.3989422804014327, abs=1e-12)

    def test_cauchy_at_zero(self):
        assert density(student_joint([0.0], [[1.0]], 1.0), [0.0]) == pytest.approx(
            1.0 / np.pi, rel=1e-13)

    def test_grid_normalization(self):
        j = student_joint([0.0, 0.0], [[1.0, 0.4], [0.4, 2.0]], 8.0)
        scale = np.sqrt(np.diag(j.omega))
        xs = np.linspace(-8 * scale[0], 8 * scale[0], 401)
        ys = np.linspace(-8 * scale[1], 8 * scale[1], 401)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        chol = np.linalg.cholesky(j.omega)
        z = np.linalg.solve(chol, pts.T)
        dd = np.sum(z * z, axis=0)
        from scipy.special import gammaln
        nu = 8.0
        logc = (gammaln(5.0) - gammaln(4.0) - np.log(nu * np.pi)
                - np.log(np.diag(chol)).sum())
        vals = np.exp(logc - 5.0 * np.log1p(dd / nu)).reshape(401, 401)
        total = np.trapezoid(np.trapezoid(vals, ys, axis=1), xs)
        # cross-check one point against the scalar implementation
        assert density(j, pts[1234]) == pytest.approx(vals.ravel()[1234], rel=1e-12)
        assert abs(total - 1.0) <= 1e-4

    def test_permutation_invariance(self, rng):
        a = rng.standard_normal((3, 3))
        omega = a @ a.T + 3 * np.eye(3)
        xi = rng.standard_normal(3)
        x = rng.standard_normal(3)
        j = student_joint(xi, omega, 5.0)
        perm = [2, 0, 1]
        jp = student_joint(xi[perm], omega[np.ix_(perm, perm)], 5.0)
        assert density(j, x) == pytest.approx(density(jp, x[perm]), rel=1e-13)


class TestUnivariate:
    def test_normal_cdf_center(self):
        assert univariate_cdf("normal", 0.0) == 0.5

    def test_cauchy_closed_form(self):
        assert univariate_cdf("student_t", 1.0, nu=1.0) == pytest.approx(0.75, rel=1e-12)

    def test_roundtrip_property(self, rng):
        # Upper-tail normal cdf values saturate at 1 - eps beyond z ~ 5.2,
        # so the inverse cannot recover them in double precision; the
        # round-trip is exact to 1e-9 wherever the cdf value is
        # representable.
        z = rng.uniform(-8, 5, 1000)
        for family, nu in (("normal", None), ("student_t", 3.0)):
            p = univariate_cdf(family, z, nu=nu)
            back = univariate_quantile(family, p, nu=nu)
            assert np.max(np.abs(back - z)) < 1e-9

    def test_cdf_monotone(self, rng):
        z = np.sort(rng.uniform(-9, 9, 500))
        for family, nu in (("normal", None), ("student_t", 2.5)):
            p = univariate_cdf(family, z, nu=nu)
            assert np.all(np.diff(p) >= 0.0)

    def test_quantile_domain(self):
        with pytest.raises(SpecError):
            univariate_quantile("normal", 0.0)
        with pytest.raises(SpecError):
            univariate_quantile("normal", 1.0)


class TestRectangleProb:
    def test_full_space_is_exactly_one(self):
        j = student_joint([0, 0, 0], np.eye(3), 3.0)
        p, err = rectangle_prob(j, TruncationBox([-np.inf] * 3, [np.inf] * 3))
        assert p == 1.0 and err == 0.0

    def test_univariate_t_symmetric_interval(self):
        j = student_joint([0.0], [[1.0]], 4.0)
        c = 1.3
        p, _ = rectangle_prob(j, TruncationBox([-c], [c]))
        assert p == pytest.approx(2 * tdist.cdf(c, 4) - 1, abs=1e-14)

    def test_bivariate_orthant_closed_form(self):
        j = normal_joint([0, 0], [[1.0, 0.5], [0.5, 1.0]])
        p, err = rectangle_prob(j, TruncationBox([0, 0], [np.inf, np.inf]))
        exact = 0.25 + np.arcsin(0.5) / (2 * np.pi)
        assert abs(p - exact) < 1e-6
        assert err < 1e-5

    def test_monotone_in_box(self):
        j = student_joint([0, 0], [[1.0, 0.6], [0.6, 1.0]], 5.0)
        small = TruncationBox([-1.0, -0.5], [1.0, 0.5])
        big = TruncationBox([-2.0, -1.0], [1.5, 1.0])
        p1, e1 = rectangle_prob(j, small)
        p2, e2 = rectangle_prob(j, big)
        assert p2 >= p1 - 2 * (e1 + e2)

    def test_complementary_halfspaces_sum_to_one(self):
        j = normal_joint([0.3], [[2.0]])
        t = 0.7
        p1, e1 = rectangle_prob(j, TruncationBox([-np.inf], [t]))
        p2, e2 = rectangle_prob(j, TruncationBox([t], [np.inf]))
        assert abs(p1 + p2 - 1.0) <= 2 * (e1 + e2) + 1e-12

    def test_deterministic_for_fixed_seed(self):
        j = student_joint([0, 0, 0], [[2, 1, 0.3], [1, 3, 0.5], [0.3, 0.5, 1.5]], 5.0)
        b = TruncationBox([-1, 0, -2], [2, 3, 1])
        s = RectangleProbSettings(seed=123)
        p1, e1 = rectangle_prob(j, b, s)
        p2, e2 = rectangle_prob(j, b, s)
        assert p1 == p2 and e1 == e2

    def test_unbounded_dims_marginalized(self):
        # A coordinate with two infinite limits must not change the result.
        j = normal_joint([0, 0], [[1.0, 0.5], [0.5, 1.0]])
        p2, _ = rectangle_prob(j, TruncationBox([0.0, -np.inf], [np.inf, np.inf]))
        assert p2 == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        j = normal_joint([0, 0], np.eye(2))
        with pytest.raises(SpecError):
            rectangle_prob(j, TruncationBox([0.0], [1.0]))

    def test_against_scipy_normal_cdf(self, rng):
        from scipy.stats import multivariate_normal

        a = rng.standard_normal((4, 4)) * 0.5
        cov = a @ a.T + np.eye(4)
        xi = rng.standard_normal(4) * 0.3
        lo = xi - rng.uniform(0.5, 2.0, 4)
        hi = xi + rng.uniform(0.5, 2.0, 4)
        p, err = rectangle_prob(normal_joint(xi, cov), TruncationBox(lo, hi))
        ref = multivariate_normal(mean=xi, cov=cov, seed=1).cdf(hi, lower_limit=lo)
        assert abs(p - ref) < 5e-5

    def test_against_scipy_student_cdf(self, rng):
        from scipy.stats import multivariate_t

        a = rng.standard_normal((3, 3)) * 0.5
        cov = a @ a.T + np.eye(3)
        xi = rng.standard_normal(3) * 0.3
        hi = xi + rng.uniform(0.5, 2.0, 3)
        j = student_joint(xi, cov, 5.0)
        p, err = rectangle_prob(j, TruncationBox(np.full(3, -np.inf), hi))
        ref = multivariate_t(loc=xi, shape=cov, df=5.0, seed=1).cdf(hi)
        assert abs(p - ref) < 5e-4


def _corr2(rho):
    """The 2 x 2 correlation matrix of ``rho``."""
    return np.array([[1.0, rho], [rho, 1.0]])


def _quad_rect(rho, lo, hi, nu=None):
    """Conditional-form quadrature of a standardised bivariate rectangle."""
    from scipy.stats import norm

    c = np.sqrt(1.0 - rho * rho)
    marg = norm if nu is None else tdist(nu)
    cond = norm if nu is None else tdist(nu + 1.0)

    def inner(x):
        sc = c if nu is None else c * np.sqrt((nu + x * x) / (nu + 1.0))
        zl, zh = (lo[1] - rho * x) / sc, (hi[1] - rho * x) / sc
        if zl + zh > 0:
            mass = cond.sf(zl) - cond.sf(zh)
        else:
            mass = cond.cdf(zh) - cond.cdf(zl)
        return marg.pdf(x) * mass

    # Split at the peak and, where the conditional law is sharp, at its steps.
    steps = (lo[1] / rho, hi[1] / rho) if rho else ()
    cuts = [v for v in (0.0,) + steps if lo[0] < v < hi[0]]
    edges = [lo[0]] + sorted(cuts) + [hi[0]]
    total = err = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v, e = quad(inner, a, b, epsabs=0.0, epsrel=1e-13, limit=400)
        total += v
        err += e
    return total, err


class TestBivariateExact:
    """Two-dimensional rectangles: Owen's T form, the Dunnett-Sobel series
    (integer df up to ``_DS_MAX_DF``, both parities, and the cap itself)
    and the nested conditional rule (any other df, and the cap plus one)."""

    # Integer df of both parities, the series' cap and the first df past it.
    INTEGER_DF = [1.0, 2.0, 3.0, 6.0, 7.0, float(_DS_MAX_DF), float(_DS_MAX_DF + 1)]

    BOXES = [
        ([-0.7, -1.2], [1.1, 0.4]),
        ([-np.inf, -0.5], [0.8, np.inf]),
        ([0.3, -np.inf], [np.inf, -0.2]),
        ([-2.5, 1.0], [-0.5, 3.0]),
    ]

    @staticmethod
    def _prob(rho, lo, hi, nu=None):
        from tse.qmc import rect_probs

        p, e = rect_probs(_corr2(rho), np.array([lo], float), np.array([hi], float), nu)
        return p[0], e[0]

    @pytest.mark.parametrize("nu", [None, 0.5, 3.0, 30.0] + [
        v for v in INTEGER_DF if v != 3.0])
    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.0, 0.5, 0.999999])
    def test_orthant_closed_form(self, nu, rho):
        exact = 0.25 + np.arcsin(rho) / (2 * np.pi)
        p, _ = self._prob(rho, [0.0, 0.0], [np.inf, np.inf], nu)
        assert p == pytest.approx(exact, abs=1e-14)
        p, _ = self._prob(rho, [-np.inf, -np.inf], [0.0, 0.0], nu)
        assert p == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.5, 4.0, 30.0, 1e6] + [
        v for v in INTEGER_DF if v != 1.0])
    def test_student_against_quadrature(self, nu):
        tol = 1e-12 if nu <= 300 else 1e-9
        for rho in (-0.6, 0.35):
            for lo, hi in self.BOXES:
                p, err = self._prob(rho, lo, hi, nu)
                ref, ref_err = _quad_rect(rho, lo, hi, nu)
                assert abs(p - ref) <= tol
                # The error estimate covers the gap to quadrature.
                assert abs(p - ref) <= err + ref_err + 1e-15

    def test_normal_against_quadrature(self):
        for rho in (-0.6, 0.0, 0.35, 0.95):
            for lo, hi in self.BOXES:
                p, err = self._prob(rho, lo, hi)
                ref, ref_err = _quad_rect(rho, lo, hi)
                assert abs(p - ref) <= err + ref_err + 1e-15
                assert abs(p - ref) <= 1e-14

    @pytest.mark.parametrize("nu", [None, 4.0, 5.0])
    def test_zero_and_infinite_limits(self, nu):
        from scipy.stats import norm

        uv = norm.cdf if nu is None else (lambda z: tdist.cdf(z, nu))
        rho = 0.4
        # A free coordinate reduces to the univariate cdf.
        p, _ = self._prob(rho, [-np.inf, -np.inf], [0.7, np.inf], nu)
        assert p == pytest.approx(uv(0.7), abs=1e-14)
        p, _ = self._prob(rho, [0.0, -np.inf], [np.inf, np.inf], nu)
        assert p == pytest.approx(0.5, abs=1e-14)
        # One limit at zero, the other finite, against quadrature.
        for lo, hi in (([0.0, -np.inf], [np.inf, 1.3]), ([-np.inf, -0.8], [0.0, 0.0])):
            p, _ = self._prob(rho, lo, hi, nu)
            assert p == pytest.approx(_quad_rect(rho, lo, hi, nu)[0], abs=1e-12)
        # An empty side gives zero.
        p, _ = self._prob(rho, [-np.inf, -np.inf], [-np.inf, 1.0], nu)
        assert p == 0.0

    @pytest.mark.parametrize("rho", [0.999999, -0.999999])
    def test_near_singular_correlation(self, rho):
        for lo, hi in (([-np.inf, -np.inf], [0.5, 0.3]), ([-1.0, -0.5], [1.2, 2.0])):
            p, err = self._prob(rho, lo, hi)
            ref, ref_err = _quad_rect(rho, lo, hi)
            assert abs(p - ref) <= err + ref_err + 1e-14
        # Four quadrants around a point partition the plane.
        h, k = 0.3, -0.2
        total = sum(self._prob(rho, lo, hi)[0] for lo, hi in (
            ([-np.inf, -np.inf], [h, k]), ([h, -np.inf], [np.inf, k]),
            ([-np.inf, k], [h, np.inf]), ([h, k], [np.inf, np.inf])))
        assert total == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("nu", [None, 4.0, 5.0])
    def test_zero_width_box_is_zero(self, nu):
        p, err = self._prob(0.3, [0.5, -1.0], [0.5, 2.0], nu)
        assert p == 0.0

    def test_deep_tails_keep_relative_accuracy(self):
        from scipy.stats import norm

        p, err = self._prob(0.0, [20.0, 20.0], [np.inf, np.inf])
        assert p == pytest.approx(norm.sf(20.0) ** 2, rel=1e-12, abs=0)
        assert err < 1e-11 * p
        for rho, lo, hi in ((0.3, [-np.inf, 2.0], [-8.0, np.inf]),
                            (0.0, [-np.inf, -np.inf], [-1.0, -10.0]),
                            (-0.9, [-np.inf, -np.inf], [-5.0, -5.0])):
            p, err = self._prob(rho, lo, hi)
            ref, ref_err = _quad_rect(rho, lo, hi)
            assert p == pytest.approx(ref, rel=1e-9, abs=0)
            assert abs(p - ref) <= err + ref_err

    @pytest.mark.parametrize("nu, rho, lo, hi", [
        (4.0, 0.5, [-np.inf, -np.inf], [-50.0, -60.0]),
        (5.0, 0.3, [-30.0, -40.0], [-20.0, -25.0]),
        (7.5, -0.9, [-np.inf, -np.inf], [-50.0, -60.0]),
        (12.5, -0.9, [-np.inf, -np.inf], [-50.0, -60.0]),
        (12.5, 0.3, [-30.0, -40.0], [-20.0, -25.0]),
    ])
    def test_student_deep_tails_lie_within_estimate(self, nu, rho, lo, hi):
        # The series' rounding floor swamps these probabilities, and a
        # non-integer df has no series; the result must still lie within its
        # own estimate of the quadrature value.
        p, err = self._prob(rho, lo, hi, nu)
        ref, ref_err = _quad_rect(rho, np.array(lo), np.array(hi), nu)
        assert p > 0.0
        assert abs(p - ref) <= err + ref_err
        assert err < 1e-6 * p

    @pytest.mark.parametrize("nu", [3.0, 4.0])
    def test_student_huge_finite_limits(self, nu):
        # Limits far beyond any mass act as infinite ones.
        p, _ = self._prob(0.4, [-1e20, -1e20], [1e20, 1e20], nu)
        assert p == pytest.approx(1.0, abs=1e-14)
        p, _ = self._prob(0.4, [-1e20, -3.0], [1e20, 2.0], nu)
        assert p == pytest.approx(tdist.cdf(2.0, nu) - tdist.cdf(-3.0, nu), abs=1e-14)

    @pytest.mark.parametrize("nu", [4.0, 5.0])
    def test_student_narrow_box_takes_smaller_tail_estimate(self, nu):
        from tse.qmc import _bv_rect

        # The series' four corners cancel on this narrow strip, so the tail
        # rule's smaller estimate is kept.
        lo, hi = [-np.inf, -1.8], [-2.3, -1.8 + 1e-5]
        _, floor = _bv_rect(np.array([lo]), np.array([hi]), 0.9, int(nu))
        p, err = self._prob(0.9, lo, hi, nu)
        ref, ref_err = _quad_rect(0.9, np.array(lo), np.array(hi), nu)
        assert err < 0.5 * floor[0]
        assert abs(p - ref) <= err + ref_err

    @pytest.mark.parametrize("nu, rho, lo, hi", [
        (7.0, -0.2, [10.0, 12.0], [np.inf, np.inf]),
        (23.0, -0.47, [5.66, -np.inf], [7.59, np.inf]),
        (33.0, -0.2, [10.0, 12.0], [np.inf, np.inf]),
        (40.0, -0.2, [10.0, 12.0], [np.inf, np.inf]),
        (49.0, -0.47, [5.66, -np.inf], [7.59, np.inf]),
        (51.0, -0.47, [5.66, -np.inf], [7.59, np.inf]),
        (7.5, 0.3, [1e6, -np.inf], [1e6 + 0.5, np.inf]),
    ])
    def test_student_upper_tails_lie_within_estimate(self, nu, rho, lo, hi):
        # Upper tails within and beyond the series' cap and at non-integer
        # df, down to a strip of mass 1e-48: each result must lie within its
        # own estimate of the quadrature value.
        p, err = self._prob(rho, lo, hi, nu)
        ref, ref_err = _quad_rect(rho, np.array(lo), np.array(hi), nu)
        assert abs(p - ref) <= err + ref_err

    def test_stack_matches_rows_and_is_deterministic(self):
        from tse.qmc import rect_probs

        lo = np.array([b[0] for b in self.BOXES], float)
        hi = np.array([b[1] for b in self.BOXES], float)
        for nu in (None, 4.0, 5.0):
            p, e = rect_probs(_corr2(0.35), lo, hi, nu)
            p2, e2 = rect_probs(_corr2(0.35), lo, hi, nu)
            assert np.array_equal(p, p2) and np.array_equal(e, e2)
            rows = [self._prob(0.35, a, b, nu)[0] for a, b in self.BOXES]
            np.testing.assert_allclose(p, rows, rtol=0, atol=1e-15)

    def test_rectangle_prob_routes_two_dimensions(self):
        j = student_joint([0.3, -0.2], [[2.0, 0.6], [0.6, 1.5]], 5.0)
        b = TruncationBox([-1.0, 0.0], [2.0, np.inf])
        p, err = rectangle_prob(j, b)
        sd = np.sqrt([2.0, 1.5])
        ref, _ = _quad_rect(0.6 / (sd[0] * sd[1]), (b.lower - j.xi) / sd,
                            (b.upper - j.xi) / sd, 5.0)
        assert abs(p - ref) < 1e-13 and err < 1e-12
        assert rectangle_prob(j, b, RectangleProbSettings(seed=99)) == (p, err)


def _quad_rect3(corr, lo, hi, nu=None):
    """Nested quadrature of a standardised trivariate rectangle.

    The outer and middle integrals run over the probability scales of the
    first coordinate and of the second given the first; the third enters
    through its conditional interval probability given both.
    """
    from scipy.special import ndtr, ndtri, stdtr, stdtrit

    def cdf(z, df):
        return ndtr(z) if nu is None else stdtr(df, z)

    def ppf(u, df):
        return ndtri(u) if nu is None else stdtrit(df, u)

    corr, lo, hi = (np.asarray(v, dtype=float) for v in (corr, lo, hi))
    c12 = corr[:2, :2]
    beta = np.linalg.solve(c12, corr[:2, 2])
    s3 = np.sqrt(1.0 - beta @ corr[:2, 2])
    s2 = np.sqrt(1.0 - corr[0, 1] ** 2)
    inv12 = np.linalg.inv(c12)
    df = [nu, None if nu is None else nu + 1.0, None if nu is None else nu + 2.0]

    def mass(a, b, k):
        # Interval probability, reflected into the lower tail.
        if a + b > 0:
            a, b = -b, -a
        return cdf(b, df[k]) - cdf(a, df[k])

    def inner(v, x):
        sc = s2 if nu is None else s2 * np.sqrt((nu + x * x) / (nu + 1.0))
        y = corr[0, 1] * x + sc * ppf(v, df[1])
        xy = np.array([x, y])
        sc = s3 if nu is None else s3 * np.sqrt((nu + xy @ inv12 @ xy) / (nu + 2.0))
        return mass((lo[2] - beta @ xy) / sc, (hi[2] - beta @ xy) / sc, 2)

    def outer(u):
        x = ppf(u, df[0])
        sc = s2 if nu is None else s2 * np.sqrt((nu + x * x) / (nu + 1.0))
        a, b = (cdf((lim - corr[0, 1] * x) / sc, df[1]) for lim in (lo[1], hi[1]))
        return _split_quad(lambda v: inner(v, x), a, b)[0] if b > a else 0.0

    return _split_quad(outer, cdf(lo[0], df[0]), cdf(hi[0], df[0]))


def _split_quad(f, a, b):
    """``quad`` over ``[a, b]`` split at 1/2; the value and error estimate."""
    edges = [a] + ([0.5] if a < 0.5 < b else []) + [b]
    parts = [quad(f, u, v, epsabs=0.0, epsrel=1e-12, limit=200)
             for u, v in zip(edges[:-1], edges[1:])]
    return sum(p[0] for p in parts), sum(p[1] for p in parts)


class TestTrivariateExact:
    """Three-dimensional rectangles: tanh-sinh quadrature of the bivariate form."""

    CORR = np.array([[1.0, 0.45, -0.3], [0.45, 1.0, 0.2], [-0.3, 0.2, 1.0]])
    BOXES = [
        ([-0.7, -1.2, -0.4], [1.1, 0.4, 2.0]),
        ([0.4, -2.0, -0.9], [2.5, 0.1, 1.3]),
    ]

    @staticmethod
    def _prob(corr, lo, hi, nu=None):
        from tse.qmc import rect_prob_qmc

        return rect_prob_qmc(corr, np.asarray(lo, float), np.asarray(hi, float), nu)

    @pytest.mark.parametrize("nu", [None, 0.5, 3.0, 30.0])
    @pytest.mark.parametrize("r", [(0.5, 0.5, 0.5), (-0.3, 0.6, 0.1), (0.9, -0.45, -0.7)])
    def test_orthant_closed_form(self, nu, r):
        corr = np.array([[1.0, r[0], r[1]], [r[0], 1.0, r[2]], [r[1], r[2], 1.0]])
        exact = 0.125 + np.arcsin(r).sum() / (4 * np.pi)
        p, _ = self._prob(corr, [0.0] * 3, [np.inf] * 3, nu)
        assert p == pytest.approx(exact, abs=1e-14)
        p, _ = self._prob(corr, [-np.inf] * 3, [0.0] * 3, nu)
        assert p == pytest.approx(exact, abs=1e-14)

    @pytest.mark.parametrize("nu", [None, 0.5, 1.0, 2.5, 5.0, 30.0, 1e6])
    def test_against_nested_quadrature(self, nu):
        tol = 1e-12 if nu is None else (1e-10 if nu <= 300 else 1e-9)
        for lo, hi in self.BOXES:
            p, err = self._prob(self.CORR, lo, hi, nu)
            ref, ref_err = _quad_rect3(self.CORR, lo, hi, nu)
            assert abs(p - ref) <= tol
            # The error estimate covers the gap to quadrature.
            assert abs(p - ref) <= err + ref_err + 1e-15

    @pytest.mark.parametrize("nu", [None, 4.0])
    def test_zero_and_infinite_limits(self, nu):
        from tse.qmc import rect_probs

        corr = self.CORR
        # A free coordinate leaves the bivariate rectangle of the other two.
        lo, hi = np.array([-0.5, -np.inf, 0.2]), np.array([1.0, 0.0, np.inf])
        p, _ = self._prob(corr, lo, hi, nu)
        p2, _ = rect_probs(_corr2(corr[0, 2]), lo[[0, 2]][None], hi[[0, 2]][None], nu)
        lo_free, hi_free = lo.copy(), hi.copy()
        lo_free[1], hi_free[1] = -np.inf, np.inf
        # The reflection test forms lo + hi = nan here; it must not warn.
        with np.errstate(invalid="raise"):
            p_free, _ = self._prob(corr, lo_free, hi_free, nu)
        assert p_free == pytest.approx(p2[0], abs=1e-14)
        # Zero limits against quadrature.
        ref, _ = _quad_rect3(corr, lo, hi, nu)
        assert p == pytest.approx(ref, abs=1e-12)
        # An empty side gives zero.
        p, _ = self._prob(corr, [-np.inf] * 3, [1.0, -np.inf, 2.0], nu)
        assert p == 0.0

    def test_near_singular_correlation(self):
        r = 0.999999
        corr = np.array([[1.0, r, 0.3], [r, 1.0, 0.3], [0.3, 0.3, 1.0]])
        for lo, hi in (([-np.inf, -np.inf, -np.inf], [0.5, 0.3, 1.0]),
                       ([-1.0, -0.5, -2.0], [1.2, 2.0, 0.4])):
            p, err = self._prob(corr, lo, hi)
            ref, ref_err = _quad_rect3(corr[[2, 0, 1]][:, [2, 0, 1]],
                                       np.array(lo)[[2, 0, 1]], np.array(hi)[[2, 0, 1]])
            assert abs(p - ref) <= err + ref_err + 1e-14
        # The eight octants around a point partition the space.
        pt = np.array([0.3, -0.2, 0.5])
        total = 0.0
        for mask in range(8):
            up = np.array([(mask >> k) & 1 for k in range(3)], bool)
            total += self._prob(corr, np.where(up, pt, -np.inf), np.where(up, np.inf, pt))[0]
        assert total == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("nu", [None, 4.0])
    def test_zero_width_box_is_zero(self, nu):
        p, err = self._prob(self.CORR, [0.5, -1.0, -2.0], [0.5, 2.0, 1.0], nu)
        assert p == 0.0 and err == 0.0

    def test_deterministic_and_ignores_lattice_settings(self):
        j = student_joint([0, 0, 0], [[2, 1, 0.3], [1, 3, 0.5], [0.3, 0.5, 1.5]], 5.0)
        b = TruncationBox([-1, 0, -2], [2, 3, 1])
        first = rectangle_prob(j, b)
        assert rectangle_prob(j, b) == first
        assert rectangle_prob(j, b, RectangleProbSettings(seed=99, max_points=1000)) == first

    def test_deep_joint_tail_keeps_relative_accuracy(self):
        # The lattice returned 8.36e-24 with error 3.6e-31 here.
        corr = np.full((3, 3), 0.3) + 0.7 * np.eye(3)
        lo, hi = [-np.inf] * 3, [-6.0, -9.0, -1.0]
        p, err = self._prob(corr, lo, hi)
        # Integrate over the rarest coordinate first.
        ref, ref_err = _quad_rect3(corr, np.array(lo)[[1, 0, 2]], np.array(hi)[[1, 0, 2]])
        assert p == pytest.approx(3.4826e-23, rel=1e-4)
        assert abs(p - ref) <= err + ref_err
        assert err < 1e-9 * p

    @pytest.mark.parametrize("nu", [None, 5.0])
    def test_upper_half_space(self, nu):
        from scipy.special import ndtr, stdtr

        # The lattice returned 0 for X >= 10 with two free coordinates.
        exact = ndtr(-10.0) if nu is None else stdtr(nu, -10.0)
        p, _ = self._prob(self.CORR, [10.0, -np.inf, -np.inf], [np.inf] * 3, nu)
        assert p == pytest.approx(exact, rel=1e-12, abs=0)


class TestUnivariateUpperTail:
    @pytest.mark.parametrize("nu", [None, 0.7, 5.0, 1e6])
    def test_upper_tail_reflected(self, nu):
        from scipy.special import ndtr, stdtr

        from tse.qmc import rect_prob_qmc
        from tse.truncated import _Moments

        exact = ndtr(-10.0) if nu is None else stdtr(nu, -10.0)
        p, _ = rect_prob_qmc([[1.0]], [10.0], [np.inf], nu)
        assert p == pytest.approx(exact, rel=1e-12, abs=0)
        p = _Moments(RectangleProbSettings(), nu, np.zeros(2), np.diag([4.0, 1.0]),
                     np.array([20.0, -np.inf]), np.array([np.inf, np.inf])).mass()
        assert p == pytest.approx(exact, rel=1e-12, abs=0)
