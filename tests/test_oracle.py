import numpy as np
import pytest
from scipy.stats import norm

from tse.elliptical import TruncationBox, normal_joint, student_joint
from tse.errors import RejectionInfeasibleError, SpecError
from tse.oracle import (
    estimate_mean_cov,
    estimate_moments,
    sample_se_rejection,
    sample_truncated_gibbs,
)
from tse.selection import SelectionSpec, SutParams, build_selection

from conftest import z_within


class TestRejection:
    def test_untruncated_pure_elliptical(self):
        j = student_joint([1.0, -2.0], [[2.0, 0.5], [0.5, 1.0]], 6.0)
        spec = SelectionSpec(j, 0, 2, np.zeros(0), np.zeros(0))
        batch = sample_se_rejection(spec, None, 300_000, seed=1)
        est = estimate_mean_cov(batch)
        assert z_within(j.xi, est["mean"].value, est["mean"].std_error)

    def test_example_spec_matches_engine(self):
        from tse.selection import tse_mean_cov

        params = SutParams([0.0, 0.0], [[1.0, 0.2], [0.2, 4.0]],
                           [[1.0, 3.0], [-3.0, -2.0]], [-1.0, 2.0],
                           [[1.0, -0.5], [-0.5, 1.0]], 4.0)
        spec = build_selection(params)
        b = TruncationBox([-0.8, -0.6], [0.5, 0.7])
        batch = sample_se_rejection(spec, b, 300_000, seed=2)
        est = estimate_mean_cov(batch)
        rep = tse_mean_cov(spec, b)
        assert z_within(rep.mean, est["mean"].value, est["mean"].std_error)
        assert z_within(rep.covariance, est["cov"].value, est["cov"].std_error, k=4.5)

    def test_deterministic_batches(self):
        params = SutParams([0.0], [[1.0]], [1.0], [0.0], [[1.0]], 5.0)
        spec = build_selection(params)
        b1 = sample_se_rejection(spec, None, 50_000, seed=42)
        b2 = sample_se_rejection(spec, None, 50_000, seed=42)
        assert np.array_equal(b1.draws, b2.draws)
        assert b1.n_proposed == b2.n_proposed

    def test_draws_respect_box_and_selection(self):
        params = SutParams([0.0, 0.0], np.eye(2), [[1.0, -1.0]], [0.0], [[1.0]], None)
        spec = build_selection(params)
        b = TruncationBox([-1.0, 0.0], [1.0, 2.0])
        batch = sample_se_rejection(spec, b, 100_000, seed=3)
        assert np.all(batch.draws >= b.lower - 1e-12)
        assert np.all(batch.draws <= b.upper + 1e-12)

    def test_infeasible_acceptance_raises(self):
        params = SutParams([0.0], [[1.0]], [0.1], [-30.0], [[1.0]], None)
        spec = build_selection(params)
        with pytest.raises(RejectionInfeasibleError):
            sample_se_rejection(spec, None, 1000, seed=4)


class TestGibbs:
    def test_half_line_closed_form(self):
        j = normal_joint([0.0], [[1.0]])
        batch = sample_truncated_gibbs(j, TruncationBox([0.0], [np.inf]),
                                       400_000, seed=5)
        est = estimate_mean_cov(batch)
        target = norm.pdf(0) / norm.sf(0)
        assert z_within([target], est["mean"].value, est["mean"].std_error)

    def test_split_chain_agreement(self):
        j = student_joint([0.0, 0.0, 0.0],
                          [[2.0, 1.0, 0.3], [1.0, 3.0, 0.5], [0.3, 0.5, 1.5]], 5.0)
        b = TruncationBox([-1.0, 0.0, -2.0], [2.0, 3.0, 1.0])
        batch = sample_truncated_gibbs(j, b, 400_000, seed=6)
        half = batch.n // 2
        first, second = batch.draws[:half], batch.draws[half:]
        m1, m2 = first.mean(axis=0), second.mean(axis=0)
        se = np.sqrt(first.var(axis=0) / half + second.var(axis=0) / half)
        # conservative: serial correlation inflates the naive error a bit
        assert np.all(np.abs(m1 - m2) < 6 * se)

    def test_agrees_with_rejection(self):
        j = student_joint([0.5, -0.5], [[1.0, 0.4], [0.4, 2.0]], 8.0)
        b = TruncationBox([-1.0, -2.0], [2.0, 1.0])
        spec = SelectionSpec(j, 0, 2, np.zeros(0), np.zeros(0))
        rej = estimate_mean_cov(sample_se_rejection(spec, b, 300_000, seed=7))
        gib = estimate_mean_cov(sample_truncated_gibbs(j, b, 300_000, seed=8))
        se = np.sqrt(rej["mean"].std_error ** 2 + gib["mean"].std_error ** 2)
        assert z_within(rej["mean"].value, gib["mean"].value, se)
        se_c = np.sqrt(rej["cov"].std_error ** 2 + gib["cov"].std_error ** 2)
        assert z_within(rej["cov"].value, gib["cov"].value, se_c, k=4.5)

    def test_every_draw_inside_box(self):
        j = normal_joint([0.0, 0.0], [[1.0, 0.9], [0.9, 1.0]])
        b = TruncationBox([0.5, -np.inf], [0.6, 0.0])
        batch = sample_truncated_gibbs(j, b, 50_000, seed=9)
        assert np.all(batch.draws >= b.lower - 1e-12)
        assert np.all(batch.draws <= b.upper + 1e-12)


class TestEstimators:
    def test_order_zero(self):
        j = normal_joint([0.0], [[1.0]])
        batch = sample_truncated_gibbs(j, TruncationBox([-1.0], [1.0]), 1000, seed=1)
        est = estimate_moments(batch, [0])
        assert est.value == 1.0 and est.std_error == 0.0

    def test_degenerate_data(self):
        from tse.oracle import SampleBatch

        draws = np.full((500, 2), [2.0, -3.0])
        batch = SampleBatch(draws=draws, n_proposed=500, seed=0, method="rejection")
        est = estimate_moments(batch, [1, 0])
        assert est.value == pytest.approx(2.0)
        assert est.std_error == pytest.approx(0.0, abs=1e-15)

    def test_standard_normal_second_moment(self):
        j = normal_joint([0.0], [[1.0]])
        spec = SelectionSpec(j, 0, 1, np.zeros(0), np.zeros(0))
        batch = sample_se_rejection(spec, None, 1_000_000, seed=10)
        est = estimate_moments(batch, [2])
        assert abs(est.value - 1.0) < 4 * est.std_error

    def test_order_and_size_guards(self):
        j = normal_joint([0.0], [[1.0]])
        batch = sample_truncated_gibbs(j, TruncationBox([-1.0], [1.0]), 1000, seed=2)
        with pytest.raises(SpecError):
            estimate_moments(batch, [9])
        from tse.oracle import SampleBatch

        small = SampleBatch(draws=np.zeros((10, 1)), n_proposed=10, seed=0,
                            method="rejection")
        with pytest.raises(SpecError):
            estimate_moments(small, [1])

    def test_unbiased_covariance_divisor(self):
        from tse.oracle import SampleBatch

        rng = np.random.default_rng(0)
        draws = rng.standard_normal((200, 1))
        batch = SampleBatch(draws=draws, n_proposed=200, seed=0, method="rejection")
        est = estimate_mean_cov(batch)
        manual = ((draws - draws.mean(0)) ** 2).sum() / (200 - 1)
        assert est["cov"].value[0, 0] == pytest.approx(manual, rel=1e-12)

    def test_gibbs_std_error_matches_spread_across_seeds(self):
        # A draw count that leaves a partial last sweep over the chains must
        # still get batch-means standard errors: strongly correlated chains
        # make an iid standard error about 0.6 times the true spread here.
        j = student_joint([0.0, 0.0], [[1.0, 0.95], [0.95, 1.0]], 1.5)
        b = TruncationBox([-1.0, -1.0], [1.0, 2.0])
        means, mean_se, covs, cov_se = [], [], [], []
        for seed in range(40):
            batch = sample_truncated_gibbs(j, b, 64 * 150 + 37, burn_in=300,
                                           seed=seed, n_chains=64)
            est = estimate_mean_cov(batch)
            means.append(est["mean"].value)
            mean_se.append(est["mean"].std_error)
            covs.append(np.diag(est["cov"].value))
            cov_se.append(np.diag(est["cov"].std_error))
        ratio_mean = np.median(mean_se, axis=0) / np.std(means, axis=0, ddof=1)
        ratio_cov = np.median(cov_se, axis=0) / np.std(covs, axis=0, ddof=1)
        assert np.all((ratio_mean > 0.75) & (ratio_mean < 1.6)), ratio_mean
        assert np.all((ratio_cov > 0.75) & (ratio_cov < 1.6)), ratio_cov
