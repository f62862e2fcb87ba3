import numpy as np
import pytest
from scipy.integrate import dblquad, quad
from scipy.optimize import brentq
from scipy.special import gammaln
from scipy.stats import norm, t as tdist

from tse.elliptical import (
    DEFAULT_SETTINGS,
    TruncationBox,
    conditional,
    marginal,
    normal_joint,
    student_joint,
)
from tse.errors import MomentNotDefinedError, NumericalError, SpecError
from tse.oracle import estimate_mean_cov, sample_truncated_gibbs
import tse.qmc as qmc_mod
from tse.qmc import rect_prob_qmc
from tse.truncated import (
    OOB_LOG_THRESHOLD,
    _Moments,
    _direct_report,
    _held,
    _oob_target,
    _root,
    existence_check,
    moment_flags,
    tmvn_mean_cov,
    tmvn_product_moment,
    tmvt_mean_cov,
    truncated_mean_cov,
)

from conftest import z_within


def _random_pd(rng, p, diag=2.0):
    a = rng.standard_normal((p, p))
    return a @ a.T + diag * np.eye(p)


class TestNormalMeanCov:
    def test_untruncated_is_exact(self):
        j = normal_joint([0.4, -1.2], [[1.0, 0.3], [0.3, 2.0]])
        rep = tmvn_mean_cov(j, TruncationBox([-np.inf] * 2, [np.inf] * 2))
        np.testing.assert_allclose(rep.mean, j.xi, atol=1e-12)
        np.testing.assert_allclose(rep.covariance, j.omega, atol=1e-10)
        assert rep.prob_mass == 1.0

    def test_half_line_closed_form(self):
        j = normal_joint([0.0], [[1.0]])
        rep = tmvn_mean_cov(j, TruncationBox([0.0], [np.inf]))
        mean = norm.pdf(0) / norm.sf(0)
        np.testing.assert_allclose(rep.mean[0], mean, atol=1e-9)
        np.testing.assert_allclose(rep.covariance[0, 0], 1 - mean ** 2, atol=1e-9)

    def test_general_one_sided_closed_form(self):
        # mu + sigma * phi(a)/sf(a) for a one-sided box
        mu, s, a = 0.7, 1.6, -0.3
        j = normal_joint([mu], [[s * s]])
        rep = tmvn_mean_cov(j, TruncationBox([a], [np.inf]))
        z = (a - mu) / s
        np.testing.assert_allclose(rep.mean[0], mu + s * norm.pdf(z) / norm.sf(z),
                                   atol=1e-10)

    def test_symmetric_box_against_gibbs(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        b = TruncationBox([-1.0, -1.0], [1.0, 1.0])
        rep = tmvn_mean_cov(j, b)
        np.testing.assert_allclose(rep.mean, [0.0, 0.0], atol=1e-9)
        batch = sample_truncated_gibbs(j, b, 400_000, seed=13)
        est = estimate_mean_cov(batch)
        assert z_within(rep.covariance, est["cov"].value, est["cov"].std_error)

    def test_prob_mass_in_unit_interval(self, rng):
        j = normal_joint(rng.standard_normal(3), _random_pd(rng, 3))
        b = TruncationBox([-1.0, -np.inf, 0.0], [1.0, 0.5, np.inf])
        rep = tmvn_mean_cov(j, b)
        assert 0.0 <= rep.prob_mass <= 1.0


class TestStudentMeanCov:
    def test_untruncated_scaling(self):
        omega = np.array([[1.0, 0.3], [0.3, 2.0]])
        j = student_joint([0.5, -0.5], omega, 4.0)
        rep = tmvt_mean_cov(j, TruncationBox([-np.inf] * 2, [np.inf] * 2))
        np.testing.assert_allclose(rep.mean, j.xi, atol=1e-12)
        np.testing.assert_allclose(rep.covariance, 2.0 * omega, atol=1e-8)

    def test_cauchy_half_line_mean_does_not_exist(self):
        j = student_joint([0.0], [[1.0]], 1.0)
        rep = tmvt_mean_cov(j, TruncationBox([0.0], [np.inf]))
        assert not rep.existence.mean
        assert rep.mean is None
        with pytest.raises(MomentNotDefinedError):
            rep.require_mean()

    def test_box_against_gibbs(self):
        j = student_joint([0.0, 0.0], np.eye(2), 5.0)
        b = TruncationBox([0.0, 0.0], [2.0, 1.0])
        rep = tmvt_mean_cov(j, b)
        batch = sample_truncated_gibbs(j, b, 400_000, seed=21)
        est = estimate_mean_cov(batch)
        assert z_within(rep.mean, est["mean"].value, est["mean"].std_error)
        assert z_within(rep.covariance, est["cov"].value, est["cov"].std_error)

    def test_univariate_against_quadrature(self):
        nu, s2 = 4.5, 1.7
        j = student_joint([0.2], [[s2]], nu)
        a, b = -0.5, 2.0
        rep = tmvt_mean_cov(j, TruncationBox([a], [b]))

        def pdf(x):
            return tdist.pdf((x - 0.2) / np.sqrt(s2), nu) / np.sqrt(s2)

        mass, _ = quad(pdf, a, b)
        m1, _ = quad(lambda x: x * pdf(x), a, b)
        m2, _ = quad(lambda x: x * x * pdf(x), a, b)
        np.testing.assert_allclose(rep.prob_mass, mass, rtol=1e-10)
        np.testing.assert_allclose(rep.mean[0], m1 / mass, rtol=1e-9)
        np.testing.assert_allclose(rep.covariance[0, 0],
                                   m2 / mass - (m1 / mass) ** 2, rtol=1e-8)

    def test_low_df_finite_box_uses_mc(self):
        # Second moments exist on a bounded box for nu <= 2 but have no
        # analytic face path; the Gibbs fallback serves them.
        j = student_joint([0.0, 0.0], np.eye(2), 1.5)
        b = TruncationBox([-1.0, -1.0], [1.0, 2.0])
        rep = tmvt_mean_cov(j, b)
        assert rep.existence.second
        assert "mc-gibbs" in rep.method
        assert rep.mc_stderr is not None
        batch = sample_truncated_gibbs(j, b, 200_000, seed=77)
        est = estimate_mean_cov(batch)
        assert z_within(rep.mean, est["mean"].value, est["mean"].std_error, k=5)

    def test_cauchy_bounded_univariate_mean(self):
        # Exact logarithmic antiderivative at nu = 1.
        j = student_joint([0.0], [[1.0]], 1.0)
        rep = tmvt_mean_cov(j, TruncationBox([0.0], [2.0]))
        m1, _ = quad(lambda x: x / (np.pi * (1 + x * x)), 0.0, 2.0)
        mass = tdist.cdf(2.0, 1) - 0.5
        np.testing.assert_allclose(rep.mean[0], m1 / mass, rtol=1e-12)


class TestProductMoments:
    def test_zero_order_is_one(self):
        j = normal_joint([0.0, 0.0], np.eye(2))
        assert tmvn_product_moment(j, TruncationBox([-1, -1], [1, 1]), [0, 0]) == 1.0

    def test_half_line_second_moment(self):
        j = normal_joint([0.0], [[1.0]])
        val = tmvn_product_moment(j, TruncationBox([0.0], [np.inf]), [2])
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_against_gibbs(self, rng):
        omega = _random_pd(rng, 2, diag=1.0)
        j = normal_joint([0.2, -0.4], omega)
        b = TruncationBox([-1.5, -1.0], [1.0, 2.0])
        val = tmvn_product_moment(j, b, [2, 1])
        batch = sample_truncated_gibbs(j, b, 600_000, seed=5)
        prods = batch.draws[:, 0] ** 2 * batch.draws[:, 1]
        se = prods.std() / np.sqrt(prods.size)
        assert abs(val - prods.mean()) < 4 * se

    def test_degenerate_coordinate_contributes_its_power(self):
        j = normal_joint([0.0, 0.2, -0.1], [[1.0, 0.4, 0.1], [0.4, 2.0, 0.3],
                                            [0.1, 0.3, 1.0]])
        b = TruncationBox([0.3, -1.0, 0.0], [0.3, 2.0, np.inf], allow_degenerate=True)
        sub = tmvn_product_moment(conditional(j, [0], [0.3]), b.subset([1, 2]), [1, 1])
        assert tmvn_product_moment(j, b, [2, 1, 1]) == pytest.approx(0.3 ** 2 * sub,
                                                                     rel=1e-14)

    def test_consistency_with_mean_cov(self, rng):
        omega = _random_pd(rng, 3, diag=1.5)
        j = normal_joint(rng.standard_normal(3) * 0.5, omega)
        b = TruncationBox([-1.0, -np.inf, 0.0], [2.0, 1.0, np.inf])
        rep = tmvn_mean_cov(j, b)
        for i in range(3):
            e = np.zeros(3, dtype=int)
            e[i] = 1
            assert abs(tmvn_product_moment(j, b, e) - rep.mean[i]) < 1e-9
        for i in range(3):
            for k in range(i, 3):
                e = np.zeros(3, dtype=int)
                e[i] += 1
                e[k] += 1
                assert abs(tmvn_product_moment(j, b, e)
                           - rep.second_moment[i, k]) < 1e-8

    def test_odd_moments_vanish_on_symmetric_box(self):
        j = normal_joint([0.0, 0.0], [[1.0, -0.4], [-0.4, 1.0]])
        b = TruncationBox([-1.2, -0.8], [1.2, 0.8])
        assert abs(tmvn_product_moment(j, b, [1, 0])) < 1e-9
        assert abs(tmvn_product_moment(j, b, [3, 0])) < 1e-9
        assert abs(tmvn_product_moment(j, b, [1, 2])) < 1e-9

    def test_order_cap(self):
        j = normal_joint([0.0], [[1.0]])
        with pytest.raises(SpecError):
            tmvn_product_moment(j, TruncationBox([0.0], [1.0]), [9])

    def test_student_kernel_rejected(self):
        j = student_joint([0.0], [[1.0]], 4.0)
        with pytest.raises(SpecError):
            tmvn_product_moment(j, TruncationBox([0.0], [1.0]), [1])


class TestDoubleInfinite:
    def test_all_coordinates_unbounded(self):
        omega = np.array([[1.0, 0.2], [0.2, 1.5]])
        j = student_joint([1.0, 2.0], omega, 6.0)
        rep = tmvt_mean_cov(j, TruncationBox([-np.inf] * 2, [np.inf] * 2))
        np.testing.assert_allclose(rep.covariance, 1.5 * omega, atol=1e-10)

    def test_cross_covariance_formula(self):
        # 2-D normal, first coordinate unbounded: the cross block equals
        # Sigma22 Omega22^{-1} Omega21 with Sigma22 from the truncated block.
        j = normal_joint([0.0, 0.0], [[2.0, 0.8], [0.8, 1.0]])
        b = TruncationBox([-np.inf, 0.0], [np.inf, np.inf])
        rep = truncated_mean_cov(j, b)
        assert "double-infinite" in rep.method
        sub = tmvn_mean_cov(normal_joint([0.0], [[1.0]]), TruncationBox([0.0], [np.inf]))
        s22 = sub.covariance[0, 0]
        np.testing.assert_allclose(rep.covariance[0, 1], s22 * 0.8 / 1.0, rtol=1e-9)
        direct = _direct_report(j, b, DEFAULT_SETTINGS, moment_flags(j.family, j.nu, b))
        np.testing.assert_allclose(rep.covariance, direct.covariance, atol=1e-6)
        np.testing.assert_allclose(rep.mean, direct.mean, atol=1e-6)

    def test_three_dim_student_against_gibbs(self, rng):
        omega = _random_pd(rng, 3)
        j = student_joint([0.1, -0.2, 0.3], omega, 6.0)
        b = TruncationBox([-np.inf, -1.0, 0.0], [np.inf, 1.0, 2.0])
        rep = truncated_mean_cov(j, b)
        assert "double-infinite" in rep.method
        batch = sample_truncated_gibbs(j, b, 400_000, seed=31)
        est = estimate_mean_cov(batch)
        assert z_within(rep.mean, est["mean"].value, est["mean"].std_error)
        assert z_within(rep.covariance, est["cov"].value, est["cov"].std_error, k=4.5)

    @pytest.mark.parametrize("nu", [0.7, 1.5, 5.0])
    def test_split_matches_quadrature_at_low_df(self, nu):
        # Below nu = 2 the direct route on the full box falls back to Gibbs
        # sampling; the split stays deterministic and exact.
        xi = np.array([0.3, -0.2])
        omega = np.array([[1.0, 0.5], [0.5, 2.0]])
        b = TruncationBox([-np.inf, -1.5], [np.inf, 3.0])
        rep = truncated_mean_cov(student_joint(xi, omega, nu), b)
        assert rep.method == ("direct", "double-infinite")
        assert rep.mc_stderr is None

        prec = np.linalg.inv(omega)
        logc = (gammaln(0.5 * (nu + 2.0)) - gammaln(0.5 * nu) - np.log(nu * np.pi)
                - 0.5 * np.log(np.linalg.det(omega)))

        def integral(g):
            def integrand(x1, x2):
                d = np.array([x1, x2]) - xi
                return g(x1, x2) * np.exp(logc - 0.5 * (nu + 2.0) * np.log1p(d @ prec @ d / nu))
            return dblquad(integrand, -1.5, 3.0, -np.inf, np.inf,
                           epsabs=1e-14, epsrel=1e-13)[0]

        mass = integral(lambda x1, x2: 1.0)
        mean = np.array([integral(lambda x1, x2: x1), integral(lambda x1, x2: x2)]) / mass
        assert rep.prob_mass == pytest.approx(mass, rel=0, abs=1e-12)
        np.testing.assert_allclose(rep.mean, mean, rtol=0, atol=1e-12)
        if nu <= 1.0:
            # One fully finite coordinate: the covariance needs nu > 1.
            assert rep.covariance is None
            return
        cross = integral(lambda x1, x2: x1 * x2) / mass
        second = np.array([[integral(lambda x1, x2: x1 * x1) / mass, cross],
                           [cross, integral(lambda x1, x2: x2 * x2) / mass]])
        np.testing.assert_allclose(rep.covariance, second - np.outer(mean, mean),
                                   rtol=0, atol=1e-12)

    def test_split_equals_direct(self):
        # d in {3, 4, 5} with one or two free coordinates, for the normal
        # kernel and nu = 7, 2.5.  d = 5 with one free coordinate at
        # nu = 2.5 leaves a four-dimensional block at non-integer nu, which
        # runs on the QMC lattice, so it is left out.
        lower, upper = [-0.5, 0.0, -1.0, -np.inf], [1.5, 2.5, 0.8, 1.0]
        for d in (3, 4, 5):
            for free in ((0,), (0, 2)):
                for nu in (None, 7.0, 2.5):
                    if d - len(free) == 4 and nu == 2.5:
                        continue
                    rng = np.random.default_rng(100 * d + len(free))
                    omega = _random_pd(rng, d)
                    xi = 0.3 * rng.standard_normal(d)
                    j = normal_joint(xi, omega) if nu is None else student_joint(xi, omega, nu)
                    rest = [i for i in range(d) if i not in free]
                    lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
                    lo[rest], hi[rest] = lower[:len(rest)], upper[:len(rest)]
                    b = TruncationBox(lo, hi)
                    split = truncated_mean_cov(j, b)
                    direct = _direct_report(j, b, DEFAULT_SETTINGS,
                                            moment_flags(j.family, j.nu, b))
                    case = f"d={d} free={free} nu={nu}"
                    assert split.method == ("direct", "double-infinite"), case
                    assert direct.method == ("direct",), case
                    np.testing.assert_allclose(split.mean, direct.mean, rtol=0,
                                               atol=1e-13, err_msg=case)
                    np.testing.assert_allclose(split.covariance, direct.covariance,
                                               rtol=0, atol=1e-13, err_msg=case)

    def test_split_issues_no_extra_probabilities(self, rectangles):
        # The conditional-scale weight comes from the block's mean and
        # covariance, so the split costs what the truncated block costs.
        omega = np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.4], [-0.2, 0.4, 1.0]])
        j = student_joint([0.1, -0.2, 0.3], omega, 6.0)
        b = TruncationBox([-np.inf, -0.5, -1.0], [np.inf, 1.0, 0.8])
        rep = truncated_mean_cov(j, b)
        assert rep.method == ("direct", "double-infinite")
        split_calls = rectangles.total
        rectangles.clear()
        truncated_mean_cov(marginal(j, [1, 2]), b.subset([1, 2]))
        assert split_calls == rectangles.total == 6


class TestOutOfBounds:
    def test_lower_tail_box_collapses_to_upper_face(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]])
        b = TruncationBox([-1.0, -50.0], [1.0, -49.0])
        rep = truncated_mean_cov(j, b)
        assert "out-of-bounds" in rep.method
        assert rep.mean[1] == pytest.approx(-49.0)
        assert abs(rep.covariance[1, 1]) < 1e-12

    def test_upper_tail_box_collapses_to_lower_face(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.2], [0.2, 1.0]])
        b = TruncationBox([-1.0, 40.0], [1.0, 41.0])
        rep = truncated_mean_cov(j, b)
        assert rep.mean[1] == pytest.approx(40.0)

    def test_against_gibbs_in_extreme_box(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.4], [0.4, 1.0]])
        b = TruncationBox([-0.5, -50.0], [1.5, -49.0])
        rep = truncated_mean_cov(j, b)
        batch = sample_truncated_gibbs(j, b, 200_000, seed=17)
        est = estimate_mean_cov(batch)
        assert np.all(np.abs(rep.mean - est["mean"].value) < 0.05)

    @pytest.mark.parametrize("joint,box", [
        (normal_joint([0.0, 0.5, 0.0], [[1.0, 0.3, 0.2], [0.3, 1.5, -0.4],
                                        [0.2, -0.4, 1.0]]),
         TruncationBox([40.0, -1.0, -60.0], [41.0, 2.0, -59.0])),
        (student_joint([0.0, 0.5, 0.0], [[1.0, 0.3, 0.2], [0.3, 1.5, -0.4],
                                         [0.2, -0.4, 1.0]], 5.0),
         TruncationBox([1e70, -1.0, 0.0], [1e70 * (1 + 1e-7), 2.0, np.inf])),
        (normal_joint([0.0, 0.0], [[1.0, 0.6], [0.6, 1.0]]),
         TruncationBox([-1.0, -50.0], [1.0, -49.0])),
    ])
    def test_explicit_partition_equals_automatic_route(self, joint, box):
        # Reference from public pieces: condition on the remote coordinates
        # at their near limits, take the truncated moments of the rest and
        # embed them next to the held point.
        dim = joint.dim
        two = [i for i in range(dim) if abs(box.lower[i]) > 30.0]
        one = [i for i in range(dim) if i not in two]
        near = np.where(box.upper[two] < joint.xi[two], box.upper[two], box.lower[two])
        sub = truncated_mean_cov(conditional(joint, two, near), box.subset(one))
        mean = np.empty(dim)
        mean[one], mean[two] = sub.mean, near
        cov = np.zeros((dim, dim))
        cov[np.ix_(one, one)] = sub.covariance
        auto = truncated_mean_cov(joint, box)
        assert "out-of-bounds" in auto.method
        assert auto.method == sub.method + ("out-of-bounds",) and auto.notes == sub.notes
        assert auto.prob_mass == 0.0
        assert auto.existence == sub.existence
        np.testing.assert_allclose(auto.mean, mean, rtol=1e-13)
        np.testing.assert_allclose(auto.covariance, cov, rtol=1e-12, atol=1e-14)

    def test_all_blocks_out_of_bounds(self):
        j = normal_joint([0.0, 0.0], np.eye(2))
        b = TruncationBox([44.0, -50.0], [45.0, -49.0])
        rep = truncated_mean_cov(j, b)
        np.testing.assert_allclose(rep.mean, [44.0, -49.0])
        assert np.all(rep.covariance == 0.0)
        assert rep.notes  # warning annotation present

    def test_student_block_with_infinite_far_limit_refused(self):
        # Given X > c, X / c tends to a Pareto(nu) law however remote c is:
        # the block never shrinks to a point, so the collapse must refuse.
        j = student_joint([0.0, 0.0], [[1.0, 0.3], [0.3, 1.0]], 5.0)
        b = TruncationBox([-1.0, 1e70], [1.0, np.inf])
        with pytest.raises(NumericalError):
            _oob_target(j, b, [1])
        with pytest.raises(NumericalError):
            truncated_mean_cov(j, b)

    def test_student_block_with_comparable_far_limit_refused(self):
        # On [c, 2c] the mean of a t5 stays (5/4)(15/16)/(31/32) c = 1.2097 c
        # however remote c is, so collapsing onto c would be wrong.
        j = student_joint([0.0], [[1.0]], 5.0)
        with pytest.raises(NumericalError):
            truncated_mean_cov(j, TruncationBox([1e70], [2e70]))
        # A far limit within the relative tolerance still collapses.
        rep = truncated_mean_cov(j, TruncationBox([1e70], [1e70 * (1 + 1e-7)]))
        assert "out-of-bounds" in rep.method
        assert rep.mean[0] == pytest.approx(1e70, rel=1e-6)

    @pytest.mark.parametrize("nu, lo, width", [
        (5.0, 1e13, 1.0), (2.5, -3.5e12, 0.06), (0.5, 1.25e15, 5.3),
        (4.5, -449711356412756.8, 100.36), (5.0, 1e13, 10.0)])
    def test_far_relatively_narrow_student_box_collapses(self, nu, lo, width):
        # Each interval holds less than 1e-11 of the cdf at its inner limit.
        # Without the cutoff the direct route cancels there: the mean lands
        # 5.6e10 below the first box and 5.6e11 above the second, and the
        # variance of the third is -7.6e28.  The fourth holds 1.004e-12 of
        # that cdf, just above a cutoff of 1e-12, whose direct mean lands
        # 7.9e12 above the box; the fifth holds 5e-12, and its direct mean
        # lands 1.7e10 below the box.
        rep = truncated_mean_cov(student_joint([0.0], [[1.0]], nu),
                                 TruncationBox([lo], [lo + width]))
        assert rep.method == ("out-of-bounds",)
        assert lo <= rep.mean[0] <= lo + width

    @pytest.mark.xfail(strict=True, reason=(
        "known open finding (ROADMAP item 7): far, relatively narrow Student-t "
        "boxes holding just above 1e-11 of the cdf at their inner limit take "
        "the direct route, whose cdf differences cancel"))
    def test_far_student_box_above_the_cutoff_keeps_its_mean_inside(self):
        # t5 on [1e13, 1e13 + 2e5] holds 1e-7 of the cdf at its inner limit;
        # the direct mean lands 3.89 widths below the box.
        lo, hi = 1e13, 1e13 + 2e5
        rep = truncated_mean_cov(student_joint([0.0], [[1.0]], 5.0), TruncationBox([lo], [hi]))
        assert lo <= rep.mean[0] <= hi

    def test_gibbs_draws_stay_inside_extreme_box(self):
        j = normal_joint([0.0], [[1.0]])
        b = TruncationBox([-50.0], [-49.0])
        batch = sample_truncated_gibbs(j, b, 50_000, seed=3)
        assert np.all(batch.draws >= -50.0) and np.all(batch.draws <= -49.0)
        # tail slice mean sits 1/49 below the near face
        assert abs(batch.draws.mean() + 49.0) < 0.05


class TestNarrowBoxes:
    """Coordinates narrower than ``NARROW_WIDTH`` standard scales are held
    at their midpoint: the face recursion's cancellation would otherwise
    exceed the midpoint's error of about w**2 / 12."""

    def test_mean_stays_inside_a_narrow_box(self):
        rep = truncated_mean_cov(normal_joint([0.0], [[1.0]]),
                                 TruncationBox([1.0], [1.0 + 1e-11]))
        assert rep.method == ("degenerate",)
        assert any("midpoint" in note for note in rep.notes)
        assert 1.0 <= rep.mean[0] <= 1.0 + 1e-11
        # The box's own rectangle probability, about phi(1) * w.
        assert rep.prob_mass == pytest.approx(norm.pdf(1.0) * 1e-11, rel=1e-4)

    def test_variance_of_a_narrow_box_is_not_negative(self):
        rep = truncated_mean_cov(normal_joint([0.0], [[1.0]]),
                                 TruncationBox([0.0], [1e-9]))
        assert rep.covariance[0, 0] >= 0.0

    def test_student_narrow_box_at_the_location(self):
        # Its near limit sits at the location, so the out-of-bounds collapse
        # used to refuse it.
        rep = truncated_mean_cov(student_joint([0.0], [[1.0]], 5.0),
                                 TruncationBox([0.0], [1e-13]))
        assert "degenerate" in rep.method
        assert 0.0 <= rep.mean[0] <= 1e-13

    def test_narrow_coordinate_conditions_the_rest(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.5], [0.5, 4.0]])
        b = TruncationBox([0.25, -1.0], [0.25 + 1e-8, 1.0])
        mid = 0.5 * (b.lower[0] + b.upper[0])
        rep = truncated_mean_cov(j, b)
        sub = truncated_mean_cov(conditional(j, [0], [mid]), b.subset([1]))
        assert rep.method == ("direct", "degenerate")
        assert rep.mean[0] == mid
        assert rep.mean[1] == sub.mean[0]
        assert rep.prob_mass == pytest.approx(
            rect_prob_qmc(j.omega, b.lower, b.upper)[0], rel=1e-12)

    def test_width_above_the_threshold_stays_direct(self):
        a, w = 1.0, 1e-4
        rep = truncated_mean_cov(normal_joint([0.0], [[1.0]]), TruncationBox([a], [a + w]))
        mass = quad(norm.pdf, a, a + w, epsabs=0.0, epsrel=1e-13)[0]
        mean = -norm.pdf(a) * np.expm1(-0.5 * w * (2.0 * a + w)) / mass
        assert rep.method == ("direct",)
        assert abs(rep.mean[0] - mean) <= 1e-11

    @pytest.mark.xfail(strict=True, reason=(
        "known open finding (ROADMAP): NARROW_WIDTH is sized from the mean's "
        "cancellation only, and the covariance cancels at wider boxes"))
    def test_covariance_of_a_box_just_above_the_threshold(self):
        # 4e-5 standard scales is above NARROW_WIDTH, so the box is not held.
        # Its covariance is close to that of the flat law, w**2 / 12 on
        # each side.
        w = 4e-5
        rep = truncated_mean_cov(normal_joint([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]]),
                                 TruncationBox([-0.5 * w] * 2, [0.5 * w] * 2))
        assert np.linalg.eigvalsh(rep.covariance).min() >= 0.0
        np.testing.assert_allclose(np.diag(rep.covariance), w * w / 12.0, rtol=1e-2)


def _recursion_report(joint, tbox):
    """The report of the face recursion on a one-coordinate law, assembled
    as ``_direct_report`` assembles it for every dimension."""
    top = _root(joint, tbox, DEFAULT_SETTINGS)
    flags = moment_flags(joint.family, joint.nu, tbox)
    L = top.mass()
    m0 = top.up((0,)) / L
    mean, second, cov = joint.xi + m0, None, None
    if flags.second:
        M2 = np.column_stack([top.up((1,))])
        M2 = 0.5 * (M2 + M2.T)
        second = M2 / L + np.outer(joint.xi, m0) + np.outer(m0, joint.xi) \
            + np.outer(joint.xi, joint.xi)
        second = 0.5 * (second + second.T)
        cov = second - np.outer(mean, mean)
        cov = 0.5 * (cov + cov.T)
    return min(L, 1.0), mean, second, cov


def _deep_tail(nu, gap=1.0):
    """Standardised limit whose upper tail holds ``gap`` above the log mass
    at which ``_held`` collapses a coordinate."""
    logsf = norm.logsf if nu is None else (lambda z: tdist.logsf(z, nu))
    return np.exp(brentq(lambda u: logsf(np.exp(u)) - (OOB_LOG_THRESHOLD + gap), 0.0, 690.0))


class TestUnivariateRoute:
    """A one-coordinate law whose recursion needs no quadrature takes the
    scalar route, and its report is the recursion's bit for bit."""

    XI, VAR = 0.37, 2.3
    KERNELS = [None, 2.0 + 1e-9, 2.5, 3.0, 4.0, 5.0, 6.5, 7.0, 30.0]
    MEAN_ONLY = [1.0 + 1e-9, 1.5, 2.0]
    # Standardised boxes: finite, lower-open and upper-open, then widths
    # above NARROW_WIDTH that take _uv_mass's midpoint rule.
    BOXES = [(-1.0, 0.5), (0.3, 2.2), (-4.0, -3.9), (-np.inf, 0.7), (1.3, np.inf),
             (-2.5, np.inf), (-np.inf, -6.0)]
    MIDPOINT = [(0.3, 0.3 + 5e-5), (3.0, 3.0 + 2e-4), (-0.7 - 3e-4, -0.7),
                (-1e-5, 1e-5 + 4e-5)]

    @classmethod
    def cases(cls):
        rng = np.random.default_rng(25)
        out = [(nu, box) for nu in cls.KERNELS for box in cls.BOXES + cls.MIDPOINT]
        out += [(nu, box) for nu in cls.MEAN_ONLY for box in cls.BOXES if np.isinf(box).any()]
        for nu in cls.KERNELS:
            z = _deep_tail(nu)
            out += [(nu, (z, np.inf)), (nu, (-np.inf, -z)), (nu, (z, 2.0 * z))]
            if nu is None:
                out += [(nu, (z, z + 0.5))]
        for _ in range(300):
            nu = cls.KERNELS[rng.integers(len(cls.KERNELS))]
            a = rng.normal() * rng.choice([1.0, 3.0, 8.0])
            b = a + np.exp(rng.normal() * 3.0 - 1.0)
            out.append((nu, rng.choice([(a, b), (-np.inf, b), (a, np.inf)])))
        return out

    def _law(self, nu, box):
        s = np.sqrt(self.VAR)
        j = normal_joint([self.XI], [[self.VAR]]) if nu is None else \
            student_joint([self.XI], [[self.VAR]], nu)
        return j, TruncationBox([self.XI + s * box[0]], [self.XI + s * box[1]])

    def test_equals_the_face_recursion(self, monkeypatch):
        import tse.truncated

        laws = []
        for nu, box in self.cases():
            j, b = self._law(nu, box)
            if _held(j, b, []) is None:
                laws.append((j, b, _recursion_report(j, b)))
        assert len(laws) > 400
        midpoint = deep = 0
        monkeypatch.setattr(tse.truncated, "_root", None)  # the route never recurses
        for j, b, ref in laws:
            rep = truncated_mean_cov(j, b)
            assert rep.method == ("direct",)
            assert rep.prob_mass == ref[0], (j.nu, b)
            for got, want in zip((rep.mean, rep.second_moment, rep.covariance), ref[1:]):
                assert (got is None) == (want is None), (j.nu, b)
                if got is not None:
                    assert np.array_equal(got, want), (j.nu, b)
                    assert np.array_equal(np.signbit(got), np.signbit(want)), (j.nu, b)
            lo, hi = (b.lower[0] - self.XI) / np.sqrt(self.VAR), (b.upper[0] - self.XI) / np.sqrt(self.VAR)
            midpoint += (hi - lo) * max(1.0, abs(0.5 * (lo + hi))) < qmc_mod._NARROW
            deep += ref[0] < 1e-240
        assert midpoint >= 36 and deep >= 28

    @pytest.mark.parametrize("nu,box", [
        (1.0, (0.0, 2.0)), (0.5, (-1.0, 3.0)), (1.5, (-0.5, 1.0)), (2.0, (0.2, 4.0)),
        (0.8, (1.0, np.inf))])
    def test_quadrature_boxes_stay_on_the_recursion(self, monkeypatch, nu, box):
        import tse.truncated

        j, b = self._law(nu, box)
        ref = truncated_mean_cov(j, b)
        monkeypatch.setattr(tse.truncated, "_uv_report", None)
        rep = truncated_mean_cov(j, b)
        assert rep.prob_mass == ref.prob_mass and np.array_equal(rep.mean, ref.mean)

    def test_deep_tails_below_the_threshold_are_held(self):
        # One nat below the out-of-bounds mass, every box of the deep tails
        # that take the route one nat above it is out of bounds: the normal
        # kernel's is held at its near limit, and the Student-t collapse
        # refuses the others, as their far limits are not close to the near
        # ones.
        for nu in self.KERNELS:
            z = _deep_tail(nu, gap=-1.0)
            boxes = [(z, np.inf), (-np.inf, -z), (z, 2.0 * z)]
            for box in boxes + ([(z, z + 0.5)] if nu is None else []):
                j, b = self._law(nu, box)
                if nu is None:
                    assert _held(j, b, [])[2] == "out-of-bounds", box
                else:
                    with pytest.raises(NumericalError, match="out-of-bounds Student-t"):
                        _held(j, b, [])

    def test_underflowed_mass_is_held_before_the_route(self, monkeypatch):
        # The route takes its box mass from the hold, so a mass that
        # underflows is held at the near limit and reaches neither the
        # route nor the recursion.
        import tse.truncated

        j, b = self._law(None, (0.3, 2.2))
        monkeypatch.setattr(tse.truncated, "_uv_prob", lambda *args: (0.0, 0.0))
        monkeypatch.setattr(tse.truncated, "_uv_report", None)
        monkeypatch.setattr(tse.truncated, "_root", None)
        rep = truncated_mean_cov(j, b)
        assert rep.method == ("out-of-bounds",) and rep.mean[0] == b.lower[0]

    def test_two_coordinates_stay_on_the_recursion(self, monkeypatch):
        import tse.truncated

        monkeypatch.setattr(tse.truncated, "_uv_report", None)
        rep = tmvt_mean_cov(student_joint([0.0, 0.1], [[1.0, 0.3], [0.3, 2.0]], 5.0),
                            TruncationBox([-1.0, -np.inf], [1.0, 0.5]))
        assert rep.method == ("direct",)


def _baseline(d, nu):
    """The ROADMAP baseline law and box: correlation ``A Aᵀ/(d+2)`` rescaled
    to a unit diagonal, ``A`` a d × (d+2) standard normal draw from
    ``default_rng(1)`` in the order d = 2 … 6; location 0; ``[-0.8, 1.2]^d``."""
    rng = np.random.default_rng(1)
    for k in range(2, d + 1):
        a = rng.standard_normal((k, k + 2))
    c = a @ a.T / (d + 2)
    s = np.sqrt(np.diag(c))
    c = c / np.outer(s, s)
    joint = normal_joint(np.zeros(d), c) if nu is None else student_joint(np.zeros(d), c, nu)
    return joint, TruncationBox(np.full(d, -0.8), np.full(d, 1.2))


class TestFaceTable:
    """The root's table builds and integrates each distinct face law once."""

    # Means and covariances (upper triangles, row by row) of the baseline
    # laws, as the recursion gave them when every node memoised only its own
    # faces.  Dropping a repeated face keeps one of two equal integrals.
    PINNED = {
        (3, None): ([0.03288326384508313, 0.13716334665421012, 0.027237373297364482],
                    [0.23268742244218768, -0.00018018997801449478, -0.15794779809232287,
                     0.28875895883404895, -0.00982299460597571, 0.23153186130594866]),
        (3, 5.0): ([0.03234122687015599, 0.12638961800185897, 0.02673631083130281],
                   [0.22588083970664766, 0.0010962952804527814, -0.15223155535173358,
                    0.27804703495924354, -0.00971957090009108, 0.22490331801843771]),
        (4, None): ([0.13458563556140735, 0.1305823164919748, 0.1740228674122386,
                     0.17241508129134697],
                    [0.2642999361285747, -0.05441654494723558, 0.07876890631102478,
                     0.029979870286267692, 0.27974456921236807, 0.015927662462356402,
                     0.03378582385251916, 0.27171855589449984, 0.03280417355410876,
                     0.2809380311768134]),
        (4, 5.0): ([0.12095270509819528, 0.11536276361010246, 0.15729730567597833,
                    0.15641058704212044],
                   [0.25028676681567785, -0.05531764228271394, 0.08451119774862896,
                    0.034151023379077626, 0.2646117213411645, 0.015226007810242342,
                    0.03702786516914219, 0.25722615392003395, 0.03970499783506938,
                    0.26561287302529396]),
        (5, None): ([0.1390707428306679, 0.1559260974968488, 0.14285984517464637,
                     0.12868955628615433, 0.1240243967078274],
                    [0.25691020323515956, 0.025007191110449894, -0.06677776063975367,
                     0.1126064380394701, 0.011935836153337109, 0.28708437278365906,
                     0.035980927530790824, -0.004449086977765599, -0.010098072052301782,
                     0.2525986944378618, 0.015033121703125686, 0.1255427325620988,
                     0.2582469759956606, -0.061247954086342635, 0.25559440760521845]),
        (5, 5.0): ([0.11949288817659251, 0.13791221458923797, 0.12309244676682336,
                    0.110289124672965, 0.10589701535338138],
                   [0.24216582538577686, 0.02601921840164773, -0.06631206951808302,
                    0.11625963037470123, 0.0017316855720790423, 0.2701341579425095,
                    0.03762507790210408, -0.0013780120866909804, -0.006566550595445263,
                    0.23866000330265633, 0.004898198573534124, 0.1274160532594078,
                    0.24313856460713487, -0.062299169611176465, 0.24097343224333945]),
    }

    @pytest.mark.parametrize("nu, counts", [(None, (19, 33, 51, 73)), (5.0, (20, 34, 52, 74))])
    def test_issues_each_distinct_probability_once(self, nu, counts, rectangles):
        # The distinct integrals that the mean and covariance need: 1 + 2d
        # first-level faces, 2d(d - 1) second-level ones, and for the
        # Student-t the gradient law's box.
        for d, count in zip((3, 4, 5, 6), counts):
            rectangles.clear()
            rep = truncated_mean_cov(*_baseline(d, nu))
            assert rep.method == ("direct",) and rectangles.total == count, d

    def test_two_coordinate_faces_of_a_node_share_one_call(self, rectangles):
        # At d = 3 the root's six faces keep two coordinates each.
        truncated_mean_cov(*_baseline(3, None))
        assert [s for s in rectangles.stacks if s[1] == 2] == [(6, 2)]

    @pytest.mark.parametrize("nu", [None, 5.0])
    def test_a_face_is_one_node_whatever_the_order(self, nu):
        joint, box = _baseline(3, nu)
        top = _root(joint, box, DEFAULT_SETTINGS)
        lo, hi = box.lower, box.upper
        a = top.face(0, lo[0])[0].face(1, hi[2])[0]
        b = top.face(2, hi[2])[0].face(0, lo[0])[0]
        assert a is b and a.coords == (1,) and a.fixed == {(0, lo[0]), (2, hi[2])}
        # The face of the gradient law is the gradient law of the face.
        f = top.face(1, lo[1])[0]
        assert f.down() is top.down().face(1, lo[1])[0]
        assert (f.down() is f) == (nu is None)

    @pytest.mark.parametrize("key", PINNED, ids=str)
    def test_moments_stay_where_they_were(self, key):
        mean, upper = self.PINNED[key]
        rep = truncated_mean_cov(*_baseline(*key))
        iu = np.triu_indices(key[0])
        np.testing.assert_allclose(rep.mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.covariance[iu], upper, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("nu", [None, 7.0])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_face_laws_are_conditional_laws(self, d, nu):
        # The law on the face x_j = t is the conditional law there; for the
        # Student-t kernel it is that law's gradient law, t(nu - 1) with
        # dispersion (nu + delta) / (nu - 1) times the Schur complement.
        rng = np.random.default_rng(d)
        omega = _random_pd(rng, d, diag=0.5)
        xi = 0.3 * rng.standard_normal(d)
        joint = normal_joint(xi, omega) if nu is None else student_joint(xi, omega, nu)
        box = TruncationBox(xi - rng.uniform(0.3, 2.0, d), xi + rng.uniform(0.3, 2.0, d))
        top = _root(joint, box, DEFAULT_SETTINGS)
        for k in range(d):
            top.up(tuple(int(i == k) for i in range(d)))
        nodes = [top, *top.table.values()]
        checked = 0
        for node in (n for n in nodes if n._faces):
            law = (normal_joint(node.mu, node.sigma) if node.nu is None
                   else student_joint(node.mu, node.sigma, node.nu))
            for (j, t), (face, _) in node._faces.items():
                if face.dim == 0:
                    continue
                cond = conditional(law, [j], [t])
                disp, df = cond.omega, cond.nu
                if nu is not None:
                    disp, df = disp * (cond.nu / (cond.nu - 2.0)), cond.nu - 2.0
                assert face.nu == df
                for got, want in ((face.mu, cond.xi), (face.sigma, disp)):
                    np.testing.assert_allclose(got, want, rtol=0,
                                               atol=1e-14 * np.abs(want).max())
                checked += 1
        assert checked >= 2 * d * max(d - 1, 1)

    @pytest.mark.parametrize("call", ["normal", "t7", "product"])
    def test_each_recursion_frees_its_nodes_without_the_collector(self, call, moment_nodes):
        import gc

        joint, box = _baseline(3, 7.0 if call == "t7" else None)
        gc.disable()
        try:
            if call == "product":
                tmvn_product_moment(joint, box, [2, 1, 1])
            else:
                truncated_mean_cov(joint, box)
            assert len(moment_nodes) >= 19
            assert [r for r in moment_nodes if r() is not None] == []
        finally:
            gc.enable()


class TestExistence:
    def test_bounded_box_any_order(self):
        b = TruncationBox([-1.0, 0.0], [1.0, 2.0])
        assert existence_check("student_t", 0.3, b, [6, 2])

    def test_cauchy_unbounded_first_moment(self):
        b = TruncationBox([-np.inf, -1.0], [np.inf, np.inf])
        assert not existence_check("student_t", 1.0, b, [1, 0])

    def test_low_df_with_two_finite(self):
        b = TruncationBox([-1.0, 0.0, -np.inf], [1.0, 2.0, np.inf])
        assert existence_check("student_t", 0.5, b, [0, 0, 2])

    def test_normal_always_exists(self):
        b = TruncationBox([-np.inf], [np.inf])
        assert existence_check("normal", None, b, [8])

    def test_strict_boundary_case(self):
        # order exactly nu + p1 does not exist (strict inequality)
        b = TruncationBox([-np.inf, 0.0], [np.inf, 1.0])
        assert not existence_check("student_t", 1.0, b, [2, 0])

    def test_flags(self):
        b = TruncationBox([0.0, -np.inf], [np.inf, np.inf])
        f = moment_flags("student_t", 1.5, b)
        assert f.mean and not f.second

    def test_monotone_in_df(self):
        b = TruncationBox([-np.inf, 0.0], [np.inf, np.inf])
        order = [2, 1]
        prev = False
        for nu in (0.5, 1.0, 2.0, 3.5, 10.0):
            cur = existence_check("student_t", nu, b, order)
            assert cur or not prev
            prev = cur


class TestReportInvariants:
    def test_permutation_equivariance(self, rng):
        omega = _random_pd(rng, 3)
        xi = rng.standard_normal(3)
        lo = np.array([-1.0, -np.inf, 0.0])
        hi = np.array([1.0, 0.5, 2.0])
        j = normal_joint(xi, omega)
        rep = tmvn_mean_cov(j, TruncationBox(lo, hi))
        perm = [2, 0, 1]
        jp = normal_joint(xi[perm], omega[np.ix_(perm, perm)])
        repp = tmvn_mean_cov(jp, TruncationBox(lo[perm], hi[perm]))
        np.testing.assert_allclose(repp.mean, rep.mean[perm], rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(repp.covariance,
                                   rep.covariance[np.ix_(perm, perm)],
                                   rtol=1e-9, atol=1e-12)

    def test_sandwich(self, rng):
        omega = _random_pd(rng, 2)
        j = student_joint(rng.standard_normal(2), omega, 5.0)
        lo = np.array([-0.5, -np.inf])
        hi = np.array([1.0, 0.0])
        rep = tmvt_mean_cov(j, TruncationBox(lo, hi))
        assert np.all(rep.mean >= lo - 1e-9)
        assert np.all(rep.mean <= hi + 1e-9)

    def test_cov_consistent_and_psd(self, rng):
        omega = _random_pd(rng, 3)
        j = normal_joint(rng.standard_normal(3), omega)
        b = TruncationBox([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0])
        rep = tmvn_mean_cov(j, b)
        recon = rep.second_moment - np.outer(rep.mean, rep.mean)
        np.testing.assert_allclose(rep.covariance, recon, atol=1e-8)
        eigvals = np.linalg.eigvalsh(rep.covariance)
        assert eigvals.min() > -1e-8

    def test_degenerate_coordinate_reduces_by_conditioning(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.5], [0.5, 1.0]])
        b = TruncationBox([0.25, -1.0], [0.25, 1.0], allow_degenerate=True)
        rep = tmvn_mean_cov(j, b)
        assert "degenerate" in rep.method
        assert rep.mean[0] == 0.25
        assert np.all(rep.covariance[0] == 0.0)
        # remaining coordinate equals the conditioned univariate problem
        from tse.elliptical import conditional
        sub = conditional(j, [0], [0.25])
        sub_rep = tmvn_mean_cov(sub, TruncationBox([-1.0], [1.0]))
        np.testing.assert_allclose(rep.mean[1], sub_rep.mean[0], rtol=1e-12)

    @pytest.mark.parametrize("nu,lower,upper", [
        (1.5, [0.3, -1.0, 0.0], [0.3, 2.0, np.inf]),
        (0.5, [0.3, 0.0, -np.inf], [0.3, np.inf, np.inf]),
    ])
    def test_student_degenerate_coordinate_matches_conditioning(self, nu, lower, upper):
        from tse.elliptical import conditional

        j = student_joint([0.0, 0.2, -0.1], [[1.0, 0.4, 0.1], [0.4, 2.0, 0.3],
                                             [0.1, 0.3, 1.0]], nu)
        b = TruncationBox(lower, upper, allow_degenerate=True)
        rep = tmvt_mean_cov(j, b)
        sub_rep = tmvt_mean_cov(conditional(j, [0], [0.3]), b.subset([1, 2]))
        assert "degenerate" in rep.method
        assert rep.existence == sub_rep.existence == moment_flags(j.family, j.nu, b)
        assert rep.prob_mass == sub_rep.prob_mass
        assert rep.mean[0] == 0.3
        np.testing.assert_array_equal(rep.mean[1:], sub_rep.mean)
        if sub_rep.covariance is None:
            assert rep.covariance is None and rep.second_moment is None
        else:
            np.testing.assert_array_equal(rep.covariance[1:, 1:], sub_rep.covariance)
            assert np.all(rep.covariance[0] == 0.0)


def _count_uv_prob(monkeypatch):
    """The argument tuples of every ``qmc._uv_prob`` call from here on."""
    import tse.truncated as truncated_mod

    calls = []
    uv_prob = qmc_mod._uv_prob

    def counted(*args):
        calls.append(args)
        return uv_prob(*args)

    monkeypatch.setattr(qmc_mod, "_uv_prob", counted)
    monkeypatch.setattr(truncated_mod, "_uv_prob", counted)
    return calls


class TestOneCoordinateRoot:
    """A one-coordinate root takes the box mass that the hold computed."""

    BOX = TruncationBox([-0.5], [1.0])

    def test_product_moment_integrates_its_box_once(self, monkeypatch):
        j = normal_joint([0.0], [[2.0]])
        top = _Moments(DEFAULT_SETTINGS, None, j.xi, j.omega, self.BOX.lower, self.BOX.upper)
        ref = float(top.raw((3,)) / top.mass())
        calls = _count_uv_prob(monkeypatch)
        assert tmvn_product_moment(j, self.BOX, [3]) == ref
        assert len(calls) == 1

    def test_quadrature_route_integrates_its_box_once(self, monkeypatch):
        j = student_joint([0.0], [[2.0]], 1.5)
        # The route's own integration of the box, with no mass from a hold.
        ref = _direct_report(j, self.BOX, DEFAULT_SETTINGS, moment_flags(j.family, j.nu, self.BOX))
        calls = _count_uv_prob(monkeypatch)
        rep = truncated_mean_cov(j, self.BOX)
        assert len(calls) == 1
        assert rep.method == ("direct",) and rep.prob_mass == ref.prob_mass
        np.testing.assert_array_equal(rep.mean, ref.mean)
        np.testing.assert_array_equal(rep.covariance, ref.covariance)


class TestUnderflowedBox:
    """A box whose mass underflows though no coordinate's does holds the
    coordinate with the least mass that the first hold recorded: two
    ``_uv_prob`` calls for the box and one for the conditioned law, where
    integrating each coordinate's interval again made five."""

    JOINT = normal_joint([0.0, 0.0], [[1.0, -0.999], [-0.999, 1.0]])
    BOX = TruncationBox([30.0, 30.0], [31.0, 31.0])

    def test_mean_cov_integrates_each_interval_once(self, monkeypatch):
        calls = _count_uv_prob(monkeypatch)
        rep = truncated_mean_cov(self.JOINT, self.BOX)
        assert len(calls) == 3
        assert rep.method == ("out-of-bounds", "out-of-bounds")
        assert rep.notes[-1] == "joint probability underflowed"
        assert rep.prob_mass == 0.0
        np.testing.assert_array_equal(rep.mean, [30.0, 30.0])
        np.testing.assert_array_equal(rep.covariance, np.zeros((2, 2)))
        np.testing.assert_array_equal(rep.second_moment, np.full((2, 2), 900.0))

    @pytest.mark.parametrize("order,value", [([1, 1], 900.0), ([0, 1], 30.0),
                                             ([3, 2], 30.0 ** 5)])
    def test_product_moment_integrates_each_interval_once(self, monkeypatch, order, value):
        calls = _count_uv_prob(monkeypatch)
        assert tmvn_product_moment(self.JOINT, self.BOX, order) == value
        assert len(calls) == 3


class TestGibbsRoute:
    def test_mean_only_report_carries_only_the_mean_error(self):
        # t_0.8 on [-1, 1] x [-1, inf): the mean exists (nu + 1 > 1) but the
        # covariance does not, and nu <= 1 leaves the recursion for Gibbs.
        j = student_joint([0.0, 0.0], np.eye(2), 0.8)
        box = TruncationBox([-1.0, -1.0], [1.0, np.inf])
        rep = truncated_mean_cov(j, box)
        assert rep.method == ("mc-gibbs",)
        assert rep.covariance is None and rep.second_moment is None
        assert set(rep.mc_stderr) == {"mean"}
        se = rep.mc_stderr["mean"]

        def f(y, x):
            return np.exp(-0.5 * 2.8 * np.log1p((x * x + y * y) / 0.8))

        mass = dblquad(f, -1.0, 1.0, -1.0, np.inf)[0]
        ref = np.array([dblquad(lambda y, x: x * f(y, x), -1.0, 1.0, -1.0, np.inf)[0],
                        dblquad(lambda y, x: y * f(y, x), -1.0, 1.0, -1.0, np.inf)[0]]) / mass
        assert np.all(np.abs(rep.mean - ref) <= 4.0 * se)

