import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad, simpson
from scipy.special import gammaln, log_ndtr
from scipy.stats import norm

from tse.elliptical import (
    STUDENT_T,
    RectangleProbSettings,
    TruncationBox,
    conditional,
    log_density,
    rectangle_prob,
    student_joint,
)
import tse.qmc as qmc_mod
from tse.errors import MomentNotDefinedError, NumericalError, SpecError
from tse.qmc import rect_probs
from tse.oracle import estimate_mean_cov, estimate_moments, sample_se, sample_se_rejection
from tse.risk import survival
from tse.selection import (
    SelectionSpec,
    SutParams,
    _tse_moment_path,
    affine_outcome,
    box_mass,
    build_selection,
    esn_pdf,
    est_pdf,
    limiting_t,
    marginal_outcome,
    se_logpdf,
    se_pdf,
    selection_probability,
    sn_pdf,
    st_pdf,
    sut_existence,
    tse_mean_cov,
    tse_moment,
)
from tse.truncated import truncated_mean_cov
from conftest import z_within


EX5 = SutParams(
    location=[0.0, 0.0],
    scale=[[1.0, 0.2], [0.2, 4.0]],
    shape=[[1.0, 3.0], [-3.0, -2.0]],
    extension=[-1.0, 2.0],
    selection_corr=[[1.0, -0.5], [-0.5, 1.0]],
    df=4.0,
)
EX5_BOX = TruncationBox([-0.8, -0.6], [0.5, 0.7])


def _random_valid_params(rng, p, q, df=None):
    a = rng.standard_normal((p, p))
    scale = a @ a.T + p * np.eye(p)
    shape = rng.standard_normal((q, p))
    if q == 1:
        psi = np.eye(1)
    else:
        c = rng.standard_normal((q, q)) * 0.3
        psi = c @ c.T + np.eye(q)
        d = np.sqrt(np.diag(psi))
        psi = psi / np.outer(d, d)
    return SutParams(rng.standard_normal(p) * 0.4, scale, shape,
                     rng.standard_normal(q) * 0.5, psi, df)


class TestBuildSelection:
    def test_zero_shape_decouples_selection(self):
        params = SutParams([0.0], [[2.5]], [0.0], [0.0], [[1.0]], None)
        spec = build_selection(params)
        np.testing.assert_allclose(spec.joint.omega, [[1.0, 0.0], [0.0, 2.5]])
        # distribution of the outcome is the plain kernel
        y = np.linspace(-3, 3, 7)[:, None]
        np.testing.assert_allclose(
            se_pdf(spec, y), norm.pdf(y[:, 0], scale=np.sqrt(2.5)), rtol=1e-12)

    def test_example_joint_assembles_pd(self):
        spec = build_selection(EX5)
        assert spec.joint.dim == 4
        assert spec.joint.nu == 4.0
        np.linalg.cholesky(spec.joint.omega)
        np.testing.assert_allclose(spec.joint.xi, [-1.0, 2.0, 0.0, 0.0])

    def test_schur_complement_pd_on_random_draws(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 4))
            q = int(rng.integers(1, 3))
            params = _random_valid_params(rng, p, q, df=5.0)
            spec = build_selection(params)
            omega = spec.joint.omega
            o11 = omega[:q, :q]
            o12 = omega[:q, q:]
            o22 = omega[q:, q:]
            schur = o11 - o12 @ np.linalg.solve(o22, o12.T)
            assert np.linalg.eigvalsh(schur).min() > 0

    def test_unit_diagonal_enforced(self):
        with pytest.raises(SpecError):
            SutParams([0.0], [[1.0]], [[0.5]], [0.0], [[2.0]], None)

    @pytest.mark.parametrize("lo, hi", [([np.nan], [np.inf]), ([0.0], [np.nan]),
                                        ([1.0], [1.0])])
    def test_selection_rectangle_validated(self, lo, hi):
        # The augmented box is built from these limits without re-validation.
        joint = student_joint([0.0, 0.0], np.eye(2), 4.0)
        with pytest.raises(SpecError):
            SelectionSpec(joint, 1, 1, lo, hi)


class TestExampleReferences:
    REFERENCES = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text())

    @pytest.mark.parametrize("key, df", [("ex5_sut", 4.0), ("ex5_sun", None)])
    def test_mean_cov_match_references_at_every_seed(self, key, df):
        # Every rectangle probability of EX5 is exact, so the QMC seed
        # cannot move the result.
        spec = build_selection(replace(EX5, df=df))
        ref = self.REFERENCES[key]
        first = tse_mean_cov(spec, EX5_BOX)
        np.testing.assert_allclose(first.mean, ref["mean"], rtol=0, atol=1e-12)
        np.testing.assert_allclose(first.covariance, ref["cov"], rtol=0, atol=1e-12)
        for seed in range(1, 9):
            rep = tse_mean_cov(spec, EX5_BOX, RectangleProbSettings(seed=seed))
            assert np.array_equal(rep.mean, first.mean)
            assert np.array_equal(rep.covariance, first.covariance)


class TestBoxMass:
    def test_equals_survival_on_a_tail_box(self):
        spec = build_selection(SutParams([0.3], [[2.0]], [1.5], [0.4], [[1.0]], 5.0))
        for y in (-1.0, 0.5, 3.0):
            mass, _, _ = box_mass(spec, TruncationBox([y], [np.inf]))
            assert mass == survival(spec, y)

    def test_ratio_of_the_two_rectangle_probabilities(self):
        spec = build_selection(EX5)
        mass, err, sel_prob = box_mass(spec, EX5_BOX)
        num, num_err = rectangle_prob(spec.joint, spec.augmented_box(EX5_BOX))
        den, _ = rectangle_prob(spec.selection_marginal(),
                                TruncationBox(spec.selection_lower, spec.selection_upper))
        assert sel_prob == den == selection_probability(spec)
        assert mass == num / den
        assert err == num_err / den

    def test_selection_probability_underflow_raises(self):
        spec = build_selection(SutParams([0.0], [[1.0]], [0.2], [-45.0], [[1.0]], None))
        with pytest.raises(NumericalError):
            box_mass(spec, TruncationBox([0.0], [1.0]))

    def test_selection_probability_computed_once_per_spec_and_settings(self, monkeypatch):
        import tse.selection

        spec = build_selection(EX5)
        calls = []
        real = tse.selection.rectangle_prob

        def counted(joint, box, settings):
            calls.append((joint.dim, settings))
            return real(joint, box, settings)

        monkeypatch.setattr(tse.selection, "rectangle_prob", counted)
        y = np.array([0.3, -0.4])
        first = se_logpdf(spec, y)
        assert se_logpdf(spec, y) == first
        assert calls == [(2, RectangleProbSettings())]
        # Other settings are another integral; a new spec starts empty.
        other = RectangleProbSettings(seed=3)
        se_logpdf(spec, y, other)
        se_logpdf(build_selection(EX5), y)
        assert calls == [(2, RectangleProbSettings()), (2, other), (2, RectangleProbSettings())]


def _reference_se_logpdf(spec, y, settings=RectangleProbSettings()):
    """The selection log density with every point-free part formed again on
    each call, as se_logpdf did before it memoised them on the spec."""
    y = np.asarray(y, dtype=float)
    single = y.ndim == 1
    rows = np.atleast_2d(y)
    out_joint = spec.outcome_marginal()
    log_f = log_density(out_joint, rows)
    q = spec.n_selection
    if q == 0:
        return log_f[0] if single else log_f
    den = selection_probability(spec, settings)
    omega = spec.joint.omega
    o11 = omega[:q, :q]
    o12 = omega[:q, q:]
    o22 = omega[q:, q:]
    solve22 = np.linalg.solve(o22, (rows - out_joint.xi).T)
    cond_mean = spec.joint.xi[:q, None] + o12 @ solve22
    schur = o11 - o12 @ np.linalg.solve(o22, o12.T)
    schur = 0.5 * (schur + schur.T)
    if spec.family == STUDENT_T:
        nu = spec.nu
        delta = np.sum((rows - out_joint.xi).T * solve22, axis=0)
        factors = (nu + delta) / (nu + spec.n_outcome)
        df_c = nu + spec.n_outcome
    else:
        factors, df_c = 1.0, None
    sd = np.sqrt(np.diag(schur)[:, None] * factors)
    corr = schur / np.sqrt(np.outer(np.diag(schur), np.diag(schur)))
    num, _ = rect_probs(corr, ((spec.selection_lower[:, None] - cond_mean) / sd).T,
                        ((spec.selection_upper[:, None] - cond_mean) / sd).T, df_c,
                        max_points=settings.max_points, num_shifts=settings.num_shifts,
                        seed=settings.seed, target_abs_error=settings.target_abs_error)
    with np.errstate(divide="ignore"):
        out = log_f + np.log(np.maximum(num, 0.0)) - np.log(den)
    return out[0] if single else out


def _density_specs(df):
    return {
        1: build_selection(SutParams([0.3, -0.2], [[1.3, 0.4], [0.4, 0.8]], [0.7, -0.9],
                                     [0.25], [[1.0]], df)),
        2: build_selection(replace(EX5, df=df)),
    }


class TestMemoisedDensity:
    @pytest.mark.parametrize("df", [4.0, None])
    @pytest.mark.parametrize("q", [1, 2])
    def test_bit_identical_to_the_reference(self, df, q):
        spec = _density_specs(df)[q]
        ys = np.random.default_rng(3).standard_normal((40, 2)) * [1.5, 3.0]
        assert np.array_equal(se_logpdf(spec, ys), _reference_se_logpdf(spec, ys))
        for y in ys[:8]:
            got = se_logpdf(spec, y)
            assert np.array_equal(got, _reference_se_logpdf(spec, y))
            assert np.ndim(got) == 0

    def test_no_selection_block_is_bit_identical(self):
        spec = SelectionSpec(student_joint([0.1, 0.2], [[1.0, 0.3], [0.3, 2.0]], 5.0), 0, 2,
                             np.zeros(0), np.zeros(0))
        ys = np.random.default_rng(4).standard_normal((10, 2))
        assert np.array_equal(se_logpdf(spec, ys), _reference_se_logpdf(spec, ys))

    def test_memo_belongs_to_its_spec(self):
        # A spec fills its memo on first use and keeps it; a spec built from
        # it, or a new spec of the same law, starts with its own.
        a, b = _density_specs(4.0)[2], _density_specs(None)[2]
        y = np.array([0.4, -1.1])
        se_logpdf(a, y)
        parts = a._density
        assert parts is not None
        se_logpdf(a, y)
        assert a._density is parts
        assert b._density is None
        assert np.array_equal(se_logpdf(b, y), _reference_se_logpdf(b, y))
        assert b._density is not parts
        shifted = affine_outcome(a, np.eye(2), [0.5, 0.0])
        assert shifted._density is None
        assert np.array_equal(se_logpdf(shifted, y), _reference_se_logpdf(shifted, y))
        assert se_logpdf(shifted, y) != se_logpdf(a, y)
        twin = replace(a)
        assert twin._density is None
        assert np.array_equal(se_logpdf(twin, y), se_logpdf(a, y))
        assert twin._density is not parts

    @pytest.mark.parametrize("df", [4.0, None])
    def test_nan_coordinate_raises(self, df):
        spec = _density_specs(df)[2]
        with pytest.raises(SpecError):
            se_logpdf(spec, np.array([np.nan, 0.0]))
        with pytest.raises(SpecError):
            se_logpdf(spec, np.array([[0.1, 0.2], [0.3, np.nan]]))

    @pytest.mark.parametrize("df", [4.0, None])
    def test_infinite_coordinate_has_zero_density(self, df):
        spec = _density_specs(df)[2]
        for y in ([np.inf, 0.0], [0.0, -np.inf], [np.inf, -np.inf]):
            assert se_logpdf(spec, np.array(y)) == -np.inf
        ys = np.array([[0.1, 0.2], [np.inf, 0.0], [-0.3, 1.1]])
        got = se_logpdf(spec, ys)
        assert got[1] == -np.inf
        assert np.array_equal(got[[0, 2]], se_logpdf(spec, ys[[0, 2]]))

    def test_student_squared_distance_overflow_raises(self):
        spec = _density_specs(4.0)[2]
        with pytest.raises(NumericalError):
            se_logpdf(spec, np.array([1e200, 0.0]))

    def test_normal_squared_distance_overflow_has_zero_density(self):
        # The density underflows to 0; the selection factor cannot be formed
        # and no NaN may come of it.
        spec = _density_specs(None)[2]
        for y in ([1e200, 0.0], [-1e308, 1e308]):
            assert se_logpdf(spec, np.array(y)) == -np.inf


class TestDensities:
    def test_symmetric_reduction_probability_telescopes(self):
        params = SutParams([1.0, -1.0], [[1.0, 0.3], [0.3, 2.0]],
                           [[0.0, 0.0]], [0.0], [[1.0]], 4.0)
        spec = build_selection(params)
        y = np.array([[0.5, -0.5], [2.0, 1.0]])
        base = student_joint([1.0, -1.0], [[1.0, 0.3], [0.3, 2.0]], 4.0)
        from tse.elliptical import density
        expected = [density(base, row) for row in y]
        np.testing.assert_allclose(se_pdf(spec, y), expected, rtol=1e-12)

    def test_est_matches_closed_form_on_grid(self, rng):
        mu = np.array([0.3, -0.2])
        sig = np.array([[1.5, 0.4], [0.4, 0.9]])
        lam = np.array([1.2, -0.7])
        spec = build_selection(SutParams(mu, sig, lam, [0.6], [[1.0]], 5.0))
        pts = rng.standard_normal((500, 2)) * 1.5
        np.testing.assert_allclose(se_pdf(spec, pts),
                                   est_pdf(pts, mu, sig, lam, 0.6, 5.0),
                                   rtol=0, atol=1e-10)

    def test_zero_extension_matches_skew_t(self, rng):
        mu = np.array([0.1])
        sig = np.array([[1.2]])
        lam = np.array([2.0])
        spec = build_selection(SutParams(mu, sig, lam, [0.0], [[1.0]], 6.0))
        pts = rng.standard_normal((500, 1)) * 2.0
        np.testing.assert_allclose(se_pdf(spec, pts),
                                   st_pdf(pts, mu, sig, lam, 6.0),
                                   rtol=0, atol=1e-10)

    def test_normal_kernel_families(self, rng):
        mu = np.array([0.0, 0.5])
        sig = np.array([[1.0, -0.2], [-0.2, 0.8]])
        lam = np.array([0.9, 1.1])
        pts = rng.standard_normal((300, 2))
        s_esn = build_selection(SutParams(mu, sig, lam, [0.4], [[1.0]], None))
        np.testing.assert_allclose(se_pdf(s_esn, pts),
                                   esn_pdf(pts, mu, sig, lam, 0.4), atol=1e-12)
        s_sn = build_selection(SutParams(mu, sig, lam, [0.0], [[1.0]], None))
        np.testing.assert_allclose(se_pdf(s_sn, pts),
                                   sn_pdf(pts, mu, sig, lam), atol=1e-12)

    @pytest.mark.parametrize("extension", [0.0, 0.6])
    def test_univariate_selection_keeps_upper_tail(self, extension):
        # Far left of SN/ESN(lambda = 2) the conditional selection
        # probability is an upper-tail mass, lost when formed as 1 - cdf.
        mu, sig, lam = np.array([0.0]), np.array([[1.0]]), np.array([2.0])
        spec = build_selection(SutParams(mu, sig, lam, [extension], [[1.0]], None))
        y = np.array([[-3.0], [-5.0], [-8.0], [-10.0]])
        if extension == 0.0:
            expected = np.log(sn_pdf(y, mu, sig, lam))
        else:
            expected = np.log(esn_pdf(y, mu, sig, lam, extension))
        np.testing.assert_allclose(se_logpdf(spec, y), expected, rtol=1e-12, atol=0)

    def test_independent_selection_component_factors_out(self):
        # With q = 3 one stacked call forms every row's three-dimensional
        # conditional rectangle probability.  A third selection component
        # with a zero shape row and no correlation with the other two is
        # independent of everything else, so it scales numerator and
        # selection probability alike.
        mu = np.array([0.2, -0.3])
        sig = np.array([[1.0, 0.3], [0.3, 1.4]])
        shape = np.array([[0.8, -0.5], [0.3, 0.6]])
        psi = np.array([[1.0, 0.4], [0.4, 1.0]])
        two = build_selection(SutParams(mu, sig, shape, [0.3, -0.2], psi, None))
        psi3 = np.eye(3)
        psi3[:2, :2] = psi
        three = build_selection(SutParams(mu, sig, np.vstack([shape, np.zeros(2)]),
                                          [0.3, -0.2, 0.7], psi3, None))
        y = np.array([[0.0, 0.0], [1.2, -0.7], [-2.0, 1.5], [0.4, 2.5]])
        np.testing.assert_allclose(se_logpdf(three, y), se_logpdf(two, y),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("q", [3, 4])
    @pytest.mark.parametrize("df", [None, 5.0])
    def test_stacked_selection_probabilities_match_rowwise(self, rng, q, df):
        # One stacked call over the rows against one rectangle_prob of each
        # row's conditional law: within that call's bound, counted once for
        # each side, and the rounding of the log and exp.
        spec = build_selection(_random_valid_params(rng, 2, q, df))
        y = rng.standard_normal((4, 2))
        box = TruncationBox(spec.selection_lower, spec.selection_upper)
        f = log_density(spec.outcome_marginal(), y)
        den = selection_probability(spec)
        got = np.exp(se_logpdf(spec, y) - f) * den
        for i, point in enumerate(y):
            cond = conditional(spec.joint, np.arange(q, q + 2), point)
            num, err = rectangle_prob(cond, box)
            assert abs(got[i] - num) <= 2 * err + 1e-15 * num

    def test_sut_pdf_normalizes(self):
        # two-dimensional selection block: per-point conditional rectangle
        # probabilities; Simpson integration over a wide grid.
        params = SutParams([0.0, 0.0], [[1.0, 0.2], [0.2, 1.5]],
                           [[0.8, -0.5], [0.3, 0.6]], [0.3, -0.2],
                           [[1.0, 0.4], [0.4, 1.0]], 8.0)
        spec = build_selection(params)
        cheap = RectangleProbSettings(max_points=2000, num_shifts=8, seed=7,
                                      target_abs_error=1e-4)
        xs = np.linspace(-9, 9, 61)
        ys = np.linspace(-11, 11, 61)
        xx, yy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([xx.ravel(), yy.ravel()])
        dens = se_pdf(spec, pts, cheap).reshape(61, 61)
        total = simpson(simpson(dens, x=ys, axis=1), x=xs)
        assert abs(total - 1.0) <= 1e-4

    def test_selection_probability_underflow_raises(self):
        params = SutParams([0.0], [[1.0]], [0.2], [-45.0], [[1.0]], None)
        spec = build_selection(params)
        from tse.errors import NumericalError
        with pytest.raises(NumericalError):
            se_pdf(spec, np.array([0.0]))

    def test_two_dim_selection_against_scipy(self):
        # q = 2 density assembled independently from scipy's multivariate-t
        # cdf: kernel density times conditional orthant mass over marginal
        # selection mass.
        from scipy.stats import multivariate_t

        params = SutParams([0.1, -0.2], [[1.0, 0.2], [0.2, 1.5]],
                           [[0.8, -0.5], [0.3, 0.6]], [0.3, -0.2],
                           [[1.0, 0.4], [0.4, 1.0]], 6.0)
        spec = build_selection(params)
        omega = spec.joint.omega
        q = 2
        o11, o12, o22 = omega[:q, :q], omega[:q, q:], omega[q:, q:]
        schur = o11 - o12 @ np.linalg.solve(o22, o12.T)
        nu = 6.0
        for y in ([0.4, -0.6], [1.2, 0.9], [-0.8, 0.1]):
            y = np.asarray(y)
            mine = se_pdf(spec, y)
            diff = y - params.location
            dens = multivariate_t(loc=params.location, shape=params.scale,
                                  df=nu).pdf(y)
            m = params.extension + o12 @ np.linalg.solve(o22, diff)
            delta = diff @ np.linalg.solve(o22, diff)
            cond_scale = schur * (nu + delta) / (nu + 2.0)
            num = multivariate_t(loc=-m, shape=cond_scale, df=nu + 2.0,
                                 seed=5).cdf(np.zeros(2))
            den = multivariate_t(loc=-params.extension, shape=o11, df=nu,
                                 seed=5).cdf(np.zeros(2))
            assert mine == pytest.approx(dens * num / den, rel=2e-4)

    @pytest.mark.parametrize("df", [4.0, None])
    def test_two_dim_selection_matches_per_row_loop(self, df):
        # The q = 2 density evaluates all rows in one stacked call; the
        # reference builds each row's conditional law and calls
        # rectangle_prob on it.
        from dataclasses import replace

        from tse.elliptical import normal_joint

        spec = build_selection(replace(EX5, df=df))
        rng = np.random.default_rng(11)
        ys = rng.standard_normal((200, 2)) * [1.5, 3.0]
        q = 2
        omega, xi = spec.joint.omega, spec.joint.xi
        o12, o22 = omega[:q, q:], omega[q:, q:]
        schur = omega[:q, :q] - o12 @ np.linalg.solve(o22, o12.T)
        schur = 0.5 * (schur + schur.T)
        den = selection_probability(spec)
        sel_box = TruncationBox(spec.selection_lower, spec.selection_upper)
        ref = np.empty(len(ys))
        for i, y in enumerate(ys):
            sol = np.linalg.solve(o22, y - xi[q:])
            m = xi[:q] + o12 @ sol
            if df is None:
                cond = normal_joint(m, schur)
                dens = np.exp(-0.5 * (y - xi[q:]) @ sol) / (
                    2 * np.pi * np.sqrt(np.linalg.det(o22)))
            else:
                cond = student_joint(m, schur * (df + (y - xi[q:]) @ sol) / (df + 2.0),
                                     df + 2.0)
                from scipy.stats import multivariate_t

                dens = multivariate_t(loc=xi[q:], shape=o22, df=df).pdf(y)
            ref[i] = dens * rectangle_prob(cond, sel_box)[0] / den
        np.testing.assert_allclose(se_pdf(spec, ys), ref, rtol=0, atol=1e-14)


class TestTseMoments:
    def test_zero_order(self):
        spec = build_selection(EX5)
        assert tse_moment(spec, EX5_BOX, [0, 0]) == 1.0

    def test_skew_normal_mean_closed_form(self):
        spec = build_selection(SutParams([0.0], [[1.0]], [1.0], [0.0], [[1.0]], None))
        m = tse_moment(spec, None, [1])
        assert m == pytest.approx(np.sqrt(2 / np.pi) / np.sqrt(2), abs=1e-10)

    def test_moment_matches_report(self):
        spec = build_selection(EX5)
        rep = tse_mean_cov(spec, EX5_BOX)
        np.testing.assert_allclose(tse_moment(spec, EX5_BOX, [1, 0]),
                                   rep.mean[0], rtol=1e-12)
        np.testing.assert_allclose(tse_moment(spec, EX5_BOX, [1, 1]),
                                   rep.second_moment[0, 1], rtol=1e-12)
        np.testing.assert_allclose(tse_moment(spec, EX5_BOX, [0, 2]),
                                   rep.second_moment[1, 1], rtol=1e-12)

    def test_untruncated_symmetric_reduction(self):
        sig = np.array([[1.3, 0.2], [0.2, 0.9]])
        params = SutParams([0.7, -0.4], sig, [[0.0, 0.0]], [0.0], [[1.0]], 4.0)
        rep = tse_mean_cov(build_selection(params), None)
        np.testing.assert_allclose(rep.mean, [0.7, -0.4], atol=1e-9)
        np.testing.assert_allclose(rep.covariance, 2.0 * sig, rtol=1e-7)

    def test_random_esn_against_rejection_oracle(self, rng):
        params = _random_valid_params(rng, 2, 1, df=None)
        spec = build_selection(params)
        b = TruncationBox([-1.5, -2.0], [1.5, 2.0])
        rep = tse_mean_cov(spec, b)
        batch = sample_se_rejection(spec, b, 400_000, seed=4)
        est = estimate_mean_cov(batch)
        assert z_within(rep.mean, est["mean"].value, est["mean"].std_error)
        assert z_within(rep.covariance, est["cov"].value, est["cov"].std_error, k=4.5)

    def test_prob_mass_ratio(self):
        spec = build_selection(EX5)
        rep = tse_mean_cov(spec, EX5_BOX)
        num, _ = rectangle_prob(spec.joint, spec.augmented_box(EX5_BOX))
        den = selection_probability(spec)
        # public probabilities may take the refinement pass; the engine's
        # single-pass values agree within the quadrature error
        assert rep.prob_mass == pytest.approx(num / den, rel=1e-4)

    # The means and covariances (upper triangles) that the face recursion
    # gave when every node memoised only its own faces.
    @pytest.mark.parametrize("df, count, mean, cov", [
        (4.0, 21, [-0.041559398523843924, 0.30076920383327477],
         [0.11075693968219098, -0.007673109066605333, 0.09628981677571558]),
        (None, 20, [-0.05373730632934789, 0.2905241607366821],
         [0.11125501333525863, -0.0132777569595715, 0.09644201113949748]),
    ])
    def test_ex5_integrates_each_distinct_face_once(self, df, count, mean, cov,
                                                    rectangles):
        rep = tse_mean_cov(build_selection(replace(EX5, df=df)), EX5_BOX)
        assert rectangles.total == count
        np.testing.assert_allclose(rep.mean, mean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(rep.covariance[np.triu_indices(2)], cov, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("df", [4.0, None])
    def test_ex5_recursion_frees_its_nodes_without_the_collector(self, df, moment_nodes):
        import gc

        spec = build_selection(replace(EX5, df=df))
        gc.disable()
        try:
            tse_mean_cov(spec, EX5_BOX)
            assert len(moment_nodes) >= 20
            assert [r for r in moment_nodes if r() is not None] == []
        finally:
            gc.enable()

    def test_student_high_order_fallback_is_seeded(self):
        params = SutParams([0.0], [[1.0]], [1.5], [0.0], [[1.0]], 12.0)
        spec = build_selection(params)
        b = TruncationBox([-2.0], [2.0])
        v1 = tse_moment(spec, b, [3])
        v2 = tse_moment(spec, b, [3])
        assert v1 == v2  # deterministic fallback
        # sanity against the rejection oracle
        batch = sample_se_rejection(spec, b, 400_000, seed=8)
        m3 = (batch.draws[:, 0] ** 3).mean()
        se = (batch.draws[:, 0] ** 3).std() / np.sqrt(batch.n)
        assert abs(v1 - m3) < 5 * se

    def test_nonexistent_moment_raises(self):
        params = SutParams([0.0], [[1.0]], [1.0], [0.0], [[1.0]], 1.0)
        spec = build_selection(params)
        with pytest.raises(MomentNotDefinedError):
            tse_moment(spec, None, [1])

    def test_skew_normal_third_moment_against_quadrature(self):
        lam = 1.3
        spec = build_selection(SutParams([0.0], [[1.0]], [lam], [0.0], [[1.0]], None))
        got = tse_moment(spec, None, [3])
        ref, _ = quad(lambda y: y ** 3 * sn_pdf(np.array([[y]]), [0.0], [[1.0]],
                                                [lam])[0], -12, 12, limit=300)
        assert got == pytest.approx(ref, rel=1e-9)

    def test_truncated_esn_mixed_moment_against_quadrature(self):
        from scipy.integrate import dblquad

        mu = np.array([0.1, -0.2])
        sig = np.array([[1.0, 0.3], [0.3, 0.8]])
        lam = np.array([0.9, -0.6])
        tau = 0.2
        spec = build_selection(SutParams(mu, sig, lam, [tau], [[1.0]], None))
        b = TruncationBox([-1.0, -1.2], [1.4, 0.9])
        got = tse_moment(spec, b, [2, 1])

        def f(y2, y1):
            return esn_pdf(np.array([[y1, y2]]), mu, sig, lam, tau)[0]

        mass, _ = dblquad(f, b.lower[0], b.upper[0],
                          lambda _: b.lower[1], lambda _: b.upper[1])
        num, _ = dblquad(lambda y2, y1: y1 ** 2 * y2 * f(y2, y1),
                         b.lower[0], b.upper[0],
                         lambda _: b.lower[1], lambda _: b.upper[1])
        # face probabilities carry the default QMC budget (~1e-6 absolute)
        assert got == pytest.approx(num / mass, rel=1e-4)


def _t_density(x, xi, omega, nu):
    """Multivariate Student-t density at one point, written out."""
    z = np.asarray(x, dtype=float) - xi
    d = z.size
    quad_form = z @ np.linalg.solve(omega, z)
    return float(np.exp(gammaln(0.5 * (nu + d)) - gammaln(0.5 * nu)
                        - 0.5 * d * np.log(nu * np.pi)
                        - 0.5 * np.log(np.linalg.det(omega))
                        - 0.5 * (nu + d) * np.log1p(quad_form / nu)))


def _plain(joint):
    """The joint itself as a selection spec without a selection block."""
    return SelectionSpec(joint, 0, joint.dim, [], [])


class TestStudentProductMoments:
    """Student-t product moments above order two from the face recursion."""

    QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=200)

    @pytest.mark.parametrize("nu", [3.5, 5.0, 6.0])
    @pytest.mark.parametrize("order", [3, 4])
    def test_univariate_against_quadrature(self, nu, order):
        # nu = 3.5 at order 4 takes the one-dimensional quadrature base case.
        j = student_joint([0.3], [[1.5]], nu)
        lo, hi = -1.2, 2.0
        got = tse_moment(_plain(j), TruncationBox([lo], [hi]), [order])

        def f(x):
            return _t_density([x], j.xi, j.omega, nu)

        ref = quad(lambda x: x ** order * f(x), lo, hi, **self.QUAD)[0] \
            / quad(f, lo, hi, **self.QUAD)[0]
        assert got == pytest.approx(ref, abs=1e-10)

    # nu above the total order; below it the fallback is Monte Carlo.
    @pytest.mark.parametrize("nu,order", [
        (nu, order) for nu in (3.5, 5.0, 6.0)
        for order in ((3, 0), (2, 1), (1, 2), (0, 3), (4, 0), (3, 1), (2, 2), (0, 4))
        if nu > sum(order)])
    def test_bivariate_against_nested_quadrature(self, nu, order):
        from scipy.integrate import dblquad

        xi = np.array([0.3, -0.2])
        omega = np.array([[1.2, 0.4], [0.4, 0.8]])
        lo, hi = np.array([-1.0, -0.7]), np.array([1.5, 1.1])
        got = tse_moment(_plain(student_joint(xi, omega, nu)), TruncationBox(lo, hi),
                         list(order))

        def f(y, x):
            return _t_density([x, y], xi, omega, nu)

        opts = dict(epsabs=1e-14, epsrel=1e-12)
        mass = dblquad(f, lo[0], hi[0], lo[1], hi[1], **opts)[0]
        num = dblquad(lambda y, x: x ** order[0] * y ** order[1] * f(y, x),
                      lo[0], hi[0], lo[1], hi[1], **opts)[0]
        assert got == pytest.approx(num / mass, abs=1e-10)

    @pytest.mark.parametrize("nu,order,lo,hi", [
        (5.0, 3, -1.0, np.inf),
        (5.0, 4, -1.0, np.inf),
        (6.0, 4, -np.inf, 0.5),
        (4.5, 3, 0.0, np.inf),
    ])
    def test_one_sided_univariate(self, nu, order, lo, hi):
        j = student_joint([0.2], [[0.9]], nu)
        got = tse_moment(_plain(j), TruncationBox([lo], [hi]), [order])

        def f(x):
            return _t_density([x], j.xi, j.omega, nu)

        ref = quad(lambda x: x ** order * f(x), lo, hi, **self.QUAD)[0] \
            / quad(f, lo, hi, **self.QUAD)[0]
        assert got == pytest.approx(ref, rel=1e-9)

    def test_ex5_mixed_third_order_against_monte_carlo(self):
        spec = build_selection(EX5)
        got = tse_moment(spec, EX5_BOX, [2, 1])
        batch = sample_se(spec, EX5_BOX, 200_000, seed=11)
        est = estimate_moments(batch, [2, 1])
        assert z_within(got, est.value, est.std_error)

    def test_low_df_bivariate_takes_monte_carlo(self):
        # nu = 2.5 at total order 3 on a two-dimensional augmented box.
        spec = build_selection(SutParams([0.0], [[1.0]], [1.5], [0.0], [[1.0]], 2.5))
        value, method, stderr = _tse_moment_path(spec, TruncationBox([-2.0], [2.0]), [3],
                                                 RectangleProbSettings())
        assert method == ("mc-rejection",)
        assert isinstance(stderr, float) and 0.0 < stderr < 0.01
        assert value == tse_moment(spec, TruncationBox([-2.0], [2.0]), [3])

    def test_recursion_path_is_direct(self):
        spec = build_selection(EX5)
        value, method, stderr = _tse_moment_path(spec, EX5_BOX, [3, 0],
                                                 RectangleProbSettings())
        assert method == ("direct",) and stderr is None


class TestHeldCoordinates:
    """``tse_moment`` holds the coordinates ``tse_mean_cov`` holds."""

    def test_underflowed_box_holds_least_mass_coordinate(self):
        # Neither coordinate's marginal mass underflows, but the augmented
        # box mass does: the selection coordinate is held at its near limit,
        # which pushes the outcome to the top of its box.
        lam, tau = 2.0, -45.0
        spec = build_selection(SutParams([0.0], [[1.0]], [lam], [tau], [[1.0]], None))
        b = TruncationBox([-1.0], [1.0])
        rep = tse_mean_cov(spec, b)

        def weight(y):  # ESN density up to a constant, kept in range
            return np.exp(norm.logpdf(y) + log_ndtr(tau + lam * y)
                          - norm.logpdf(1.0) - log_ndtr(tau + lam))

        ref = quad(lambda y: y * weight(y), -1.0, 1.0)[0] / quad(weight, -1.0, 1.0)[0]
        assert ref == pytest.approx(0.98826, abs=1e-5)
        assert -1.0 <= rep.mean[0] <= 1.0
        assert abs(rep.mean[0] - ref) < 0.02
        assert "joint probability underflowed" in rep.notes
        assert tse_moment(spec, b, [1]) == pytest.approx(rep.mean[0], rel=1e-12)
        assert tse_moment(spec, b, [2]) == pytest.approx(rep.second_moment[0, 0],
                                                         rel=1e-12)

    def test_low_df_mean_takes_recursion(self):
        # nu = 1.5 exceeds the order, so the recursion serves the mean even
        # though tse_mean_cov needs its Gibbs route for the second moments.
        lam, nu = 1.5, 1.5
        spec = build_selection(SutParams([0.0], [[1.0]], [lam], [0.0], [[1.0]], nu))
        b = TruncationBox([-2.0], [2.0])
        value, method, stderr = _tse_moment_path(spec, b, [1], RectangleProbSettings())

        def f(y):
            return st_pdf(np.array([[y]]), [0.0], [[1.0]], [lam], nu)[0]

        opts = dict(epsabs=0.0, epsrel=1e-13, limit=200)
        ref = quad(lambda y: y * f(y), -2.0, 2.0, **opts)[0] / quad(f, -2.0, 2.0, **opts)[0]
        assert method == ("direct",) and stderr is None
        assert abs(value - ref) < 1e-10

    def test_ex5_mean_entry_issues_only_its_recursion(self, monkeypatch):
        import tse.truncated

        calls = []
        real = tse.truncated.rect_prob_qmc

        def counted(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(tse.truncated, "rect_prob_qmc", counted)
        tse_moment(build_selection(EX5), EX5_BOX, [1, 0])
        assert len(calls) == 7

    def test_ex5_third_order_shares_faces_of_gradient_laws(self, rectangles):
        # Order (2, 1) needs faces of the gradient law, which the table
        # shares with the gradient laws of faces: 39 distinct probabilities
        # where 62 were issued, and the value the unshared recursion gave.
        value = tse_moment(build_selection(EX5), EX5_BOX, [2, 1])
        assert rectangles.total == 39
        assert value == pytest.approx(0.034038430571647064, rel=0, abs=1e-12)

    def test_out_of_bounds_coordinate_is_held(self):
        j = student_joint([0.0, 0.5, 0.0], [[1.0, 0.3, 0.2], [0.3, 1.5, -0.4],
                                            [0.2, -0.4, 1.0]], 5.0)
        b = TruncationBox([1e70, -1.0, 0.0], [1e70 * (1 + 1e-7), 2.0, np.inf])
        spec = SelectionSpec(j, 0, 3, [], [])
        rep = tse_mean_cov(spec, b)
        settings = RectangleProbSettings()
        value, method, _ = _tse_moment_path(spec, b, [0, 1, 0], settings)
        assert "out-of-bounds" in rep.method and method == rep.method
        assert value == pytest.approx(rep.mean[1], rel=1e-12)
        assert tse_moment(spec, b, [1, 0, 0]) == rep.mean[0] == 1e70
        # Order three exceeds what tse_mean_cov serves: the recursion runs
        # on the law conditioned on the held coordinate.
        cond = SelectionSpec(conditional(j, [0], [1e70]), 0, 2, [], [])
        assert tse_moment(spec, b, [0, 3, 0]) == pytest.approx(
            tse_moment(cond, b.subset([1, 2]), [3, 0]), rel=1e-12)


class TestAffineClosure:
    def test_diagonal_affine_transforms_moments(self, rng):
        params = _random_valid_params(rng, 2, 1, df=6.0)
        spec = build_selection(params)
        a = np.diag([2.0, -0.5])
        b_off = np.array([0.3, -1.0])
        transformed = affine_outcome(spec, a, b_off)
        rep = tse_mean_cov(spec, None)
        rep_t = tse_mean_cov(transformed, None)
        np.testing.assert_allclose(rep_t.mean, a @ rep.mean + b_off, atol=1e-8)
        np.testing.assert_allclose(rep_t.covariance, a @ rep.covariance @ a.T,
                                   atol=1e-8)

    def test_marginal_outcome_density(self, rng):
        params = _random_valid_params(rng, 3, 1, df=7.0)
        spec = build_selection(params)
        sub = marginal_outcome(spec, [1])
        # marginal density integrates to one
        val, _ = quad(lambda y: se_pdf(sub, np.array([y])), -200, 200, limit=500)
        assert val == pytest.approx(1.0, abs=1e-6)


class TestLimiting:
    def test_zero_shape_specialization(self):
        params = SutParams([0.5, -0.2], [[1.0, 0.1], [0.1, 2.0]],
                           [[0.0, 0.0]], [-3.0], [[1.0]], 4.0)
        lim = limiting_t(params)
        np.testing.assert_allclose(lim.location, [0.5, -0.2])
        np.testing.assert_allclose(lim.base_scale, [[1.0, 0.1], [0.1, 2.0]])
        assert lim.scale_inflation == pytest.approx((4.0 + 9.0) / 5.0)
        assert lim.df == 5.0

    def test_limit_is_conditional_at_zero(self):
        from tse.elliptical import conditional
        params = _random_valid_params(np.random.default_rng(3), 2, 2, df=5.0)
        spec = build_selection(params)
        lim = limiting_t(params).to_joint()
        cond = conditional(spec.joint, [0, 1], [0.0, 0.0])
        np.testing.assert_array_equal(lim.xi, cond.xi)
        np.testing.assert_array_equal(lim.omega, cond.omega)
        assert lim.nu == cond.nu

    def test_engine_matches_quadrature_for_remote_extension(self):
        # Heavy-tail check: the engine's moments for a very negative
        # extension equal direct quadrature of the closed-form density.
        mu, sig, lam, tau, nu = 0.0, 1.0, 2.0, -30.0, 5.0
        params = SutParams([mu], [[sig]], [lam], [tau], [[1.0]], nu)
        rep = tse_mean_cov(build_selection(params), None)

        def f(y):
            return est_pdf(np.array([[y]]), [mu], [[sig]], [lam], tau, nu)[0]

        m1, _ = quad(lambda y: y * f(y), -2000, 2000, limit=500)
        m2, _ = quad(lambda y: y * y * f(y), -2000, 2000, limit=500)
        assert rep.mean[0] == pytest.approx(m1, rel=1e-6)
        assert rep.covariance[0, 0] == pytest.approx(m2 - m1 ** 2, rel=1e-5)

    def test_normal_kernel_out_of_bounds_path_hits_limit(self):
        params = SutParams([0.2, -0.5], [[1.0, 0.3], [0.3, 1.5]],
                           [0.25, -0.2], [-45.0], [[1.0]], None)
        spec = build_selection(params)
        rep = tse_mean_cov(spec, None)
        assert "out-of-bounds" in rep.method
        lim = limiting_t(params).to_joint()
        np.testing.assert_allclose(rep.mean, lim.xi, atol=1e-4)
        np.testing.assert_allclose(rep.covariance, lim.omega, atol=1e-4)

    def test_student_kernel_remote_extension_refused(self):
        # The boundary law's mean is 4e54 but the true mean is about 5e54
        # (ratio nu / (nu - 1)): the out-of-bounds collapse must refuse.
        from tse.errors import NumericalError
        params = SutParams([0.0], [[1.0]], [2.0], [-1e55], [[1.0]], 5.0)
        with pytest.raises(NumericalError):
            tse_mean_cov(build_selection(params), None)


class TestSutExistence:
    def test_bounded_box_any_order(self):
        assert sut_existence(EX5, EX5_BOX, [5, 3])

    def test_low_df_one_finite(self):
        params = SutParams([0.0, 0.0], np.eye(2), [[0.5, 0.5]], [0.0], [[1.0]], 1.0)
        b = TruncationBox([-1.0, -np.inf], [1.0, np.inf])
        assert sut_existence(params, b, [1, 0])
        assert sut_existence(params, b, [0, 1])
        assert not sut_existence(params, b, [0, 2])

    def test_sufficient_conditions_of_finite_limits(self):
        for nu in (0.2, 0.7, 1.0, 3.0):
            params = SutParams([0.0, 0.0], np.eye(2), [[0.5, 0.5]], [0.0],
                               [[1.0]], nu)
            b1 = TruncationBox([-1.0, -np.inf], [1.0, np.inf])
            assert sut_existence(params, b1, [1, 1])  # means exist when p1 >= 1
            b2 = TruncationBox([-1.0, -1.0], [1.0, 1.0])
            assert sut_existence(params, b2, [2, 2])  # bounded: all orders

    def test_monotone_in_df(self):
        b = TruncationBox([-np.inf, 0.0], [np.inf, np.inf])
        prev = False
        for nu in (0.5, 1.5, 2.5, 4.0, 9.0):
            params = SutParams([0.0, 0.0], np.eye(2), [[0.5, 0.5]], [0.0],
                               [[1.0]], nu)
            cur = sut_existence(params, b, [1, 2])
            assert cur or not prev
            prev = cur


class TestMonteCarloErrors:
    def test_standard_errors_cover_the_outcome_block_only(self):
        # SUT at nu = 1.5 on [-1, 1]^2: the augmented joint takes Gibbs.
        params = SutParams([0.1, -0.2], [[1.0, 0.3], [0.3, 1.5]], [0.8, -0.5], [0.3],
                           [[1.0]], 1.5)
        spec = build_selection(params)
        box = TruncationBox([-1.0, -1.0], [1.0, 1.0])
        rep = tse_mean_cov(spec, box)
        aug = truncated_mean_cov(spec.joint, spec.augmented_box(box))
        assert rep.method == aug.method == ("mc-gibbs",)
        assert rep.mean.shape == rep.mc_stderr["mean"].shape == (2,)
        assert rep.covariance.shape == rep.mc_stderr["cov"].shape == (2, 2)
        np.testing.assert_array_equal(rep.mc_stderr["mean"], aug.mc_stderr["mean"][1:])
        np.testing.assert_array_equal(rep.mc_stderr["cov"], aug.mc_stderr["cov"][1:, 1:])


class TestUntracedRoutes:
    def test_underflowed_selection_reports_the_outcome_marginal(self):
        # Zero shape makes the outcome independent of the selection block,
        # whose mass at tau = -100 underflows: the report is the marginal's.
        params = SutParams([0.3, -0.2], [[1.0, 0.4], [0.4, 2.0]], [0.0, 0.0], [-100.0],
                           [[1.0]], None)
        spec = build_selection(params)
        assert selection_probability(spec) == 0.0
        box = TruncationBox([-1.0, -0.5], [1.0, 2.0])
        rep = tse_mean_cov(spec, box)
        ref = truncated_mean_cov(spec.outcome_marginal(), box)
        assert rep.prob_mass == ref.prob_mass
        np.testing.assert_array_equal(rep.mean, ref.mean)
        np.testing.assert_array_equal(rep.covariance, ref.covariance)

    @pytest.mark.parametrize("order, entry", [((0, 2), (1, 1)), ((1, 1), (0, 1))])
    def test_moment_below_the_order_takes_the_double_infinite_split(self, order, entry):
        # t at nu = 1.5 with no selection block: nu is not above the order,
        # so the moment comes from tse_mean_cov, deterministically.
        joint = student_joint([0.3, -0.2], [[1.0, 0.5], [0.5, 2.0]], 1.5)
        spec = SelectionSpec(joint, 0, 2, [], [])
        box = TruncationBox([-np.inf, -1.5], [np.inf, 3.0])
        value, method, stderr = _tse_moment_path(spec, box, order, RectangleProbSettings())
        assert method == ("direct", "double-infinite") and stderr is None
        assert value == tse_mean_cov(spec, box).second_moment[entry]
        assert tse_moment(spec, box, order) == value

    @pytest.mark.parametrize("df", [None, 5.0])
    def test_five_selection_coordinates_take_one_lattice_call_per_point(self, df, monkeypatch):
        params = _random_valid_params(np.random.default_rng(29), 2, 5, df=df)
        spec = build_selection(params)
        ys = np.array([[0.2, -0.4], [1.1, 0.3], [-0.6, 0.9]])
        calls = []
        lattice = qmc_mod.rect_prob_qmc
        monkeypatch.setattr(qmc_mod, "rect_prob_qmc",
                            lambda *a, **k: calls.append(a) or lattice(*a, **k))
        log_pdf = se_logpdf(spec, ys)
        assert len(calls) == len(ys)
        den = selection_probability(spec)
        sel_box = TruncationBox(spec.selection_lower, spec.selection_upper)
        for y, value in zip(ys, log_pdf):
            num = np.exp(value - log_density(spec.outcome_marginal(), y)) * den
            ref, err = rectangle_prob(conditional(spec.joint, [5, 6], y), sel_box)
            assert abs(num - ref) <= err

