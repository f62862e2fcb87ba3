import numpy as np
import pytest
from scipy.special import log_ndtr, ndtr, ndtri, ndtri_exp
from scipy.stats import norm

from tse import oracle
from tse.elliptical import STUDENT_T, TruncationBox, normal_joint, student_joint
from tse.errors import RejectionInfeasibleError, SpecError
from tse.oracle import (
    _rtnorm,
    estimate_mean_cov,
    estimate_moments,
    sample_se_rejection,
    sample_truncated_gibbs,
)
from tse.selection import SelectionSpec, SutParams, build_selection

from conftest import z_within

_TAIL_CUT = 5.0


# Reference implementations: the Gibbs sweep and its estimators as first
# written, with every invariant recomputed inside the loop.  The sampler
# must reproduce their output bit for bit at every seed.

def _reference_rtnorm(rng, lo, hi, size):
    lo = np.broadcast_to(np.asarray(lo, dtype=float), size).copy()
    hi = np.broadcast_to(np.asarray(hi, dtype=float), size).copy()
    out = np.empty(size)

    # Mirror left-tail boxes into the right tail.
    flip = hi < -_TAIL_CUT
    lo[flip], hi[flip] = -hi[flip], -lo[flip]
    tail = lo > _TAIL_CUT
    central = ~tail

    if np.any(central):
        a = ndtr(lo[central])
        b = ndtr(hi[central])
        u = a + rng.random(int(central.sum())) * (b - a)
        out[central] = ndtri(np.clip(u, 1e-16, 1.0 - 1e-16))

    if np.any(tail):
        tlo = lo[tail]
        thi = hi[tail]
        m = tlo.size
        lam = 0.5 * (tlo + np.sqrt(tlo * tlo + 4.0))
        x = np.empty(m)
        todo = np.ones(m, dtype=bool)
        for _ in range(64):
            k = int(todo.sum())
            if k == 0:
                break
            prop = tlo[todo] + rng.exponential(1.0, k) / lam[todo]
            u = rng.random(k)
            good = (prop <= thi[todo]) & (np.log(u) <= -0.5 * (prop - lam[todo]) ** 2)
            idx = np.flatnonzero(todo)
            x[idx[good]] = prop[good]
            todo[idx[good]] = False
        if np.any(todo):
            # Thin or remote slices: exact inverse cdf on log survival values.
            lsf_lo = log_ndtr(-tlo[todo])
            lsf_hi = log_ndtr(-thi[todo])
            ratio = np.exp(np.clip(lsf_hi - lsf_lo, -745.0, 0.0))
            u = rng.random(int(todo.sum()))
            log_u = lsf_lo + np.log(ratio + u * (1.0 - ratio))
            x[todo] = -ndtri_exp(log_u)
        out[tail] = x

    out[flip] = -out[flip]
    return out


def _reference_gibbs(joint, tbox, n, burn_in=500, seed=0, n_chains=256):
    rng = np.random.default_rng(seed)
    p = joint.dim
    lo, hi = tbox.lower, tbox.upper
    n_chains = int(min(n_chains, max(1, n)))
    steps = int(np.ceil(n / n_chains))

    prec = np.linalg.inv(joint.omega)
    cond_sd = 1.0 / np.sqrt(np.diag(prec))

    start = np.empty(p)
    scale = np.sqrt(np.diag(joint.omega))
    for i in range(p):
        if np.isfinite(lo[i]) and np.isfinite(hi[i]):
            start[i] = 0.5 * (lo[i] + hi[i])
        elif np.isfinite(lo[i]):
            start[i] = lo[i] + 0.5 * scale[i]
        elif np.isfinite(hi[i]):
            start[i] = hi[i] - 0.5 * scale[i]
        else:
            start[i] = np.clip(joint.xi[i], lo[i], hi[i])

    x = np.tile(start, (n_chains, 1))
    draws = np.empty((steps, n_chains, p))
    student = joint.family == STUDENT_T

    for sweep in range(burn_in + steps):
        if student:
            diff = x - joint.xi
            delta = np.einsum("ni,ij,nj->n", diff, prec, diff)
            w = rng.gamma(0.5 * (joint.nu + p), 2.0 / (joint.nu + delta))
            sd_scale = 1.0 / np.sqrt(w)
        else:
            sd_scale = np.ones(n_chains)
        for i in range(p):
            others = [j for j in range(p) if j != i]
            adj = (x[:, others] - joint.xi[others]) @ prec[others, i]
            mean_i = joint.xi[i] - adj / prec[i, i]
            sd_i = cond_sd[i] * sd_scale
            z = _reference_rtnorm(rng, (lo[i] - mean_i) / sd_i, (hi[i] - mean_i) / sd_i,
                                  (n_chains,))
            x[:, i] = mean_i + z * sd_i
        if sweep >= burn_in:
            draws[sweep - burn_in] = x

    flat = draws.reshape(steps * n_chains, p)[:n]
    np.clip(flat, lo, hi, out=flat)
    return flat


def _reference_mean_cov(x, n_chains):
    """Mean, covariance and their batch-means SEs, through the einsum."""
    n, p = x.shape
    steps = n // n_chains
    mean = x.mean(axis=0)
    per_chain = x[:steps * n_chains].reshape(steps, n_chains, p).mean(axis=0)
    mean_se = per_chain.std(axis=0, ddof=1) / np.sqrt(n_chains)
    centred = x - mean
    cov = centred.T @ centred / (n - 1)
    d = centred[:steps * n_chains].reshape(steps, n_chains, p)
    chain_prod = np.einsum("sci,scj->cij", d, d) / d.shape[0]
    cov_se = chain_prod.std(axis=0, ddof=1) / np.sqrt(n_chains)
    return mean, mean_se, cov, cov_se


# Box patterns in standard scales about the location, one per coordinate.
# "remote" rows lie far enough out that the sweep mirrors, takes the tail
# proposal and falls back on the log-space rescue.
_MIXED = [(-1.0, 1.5), (-0.5, np.inf), (-np.inf, 0.8), (-np.inf, np.inf)]
_REMOTE = [(8.0, 9.0), (-9.0, -7.0), (38.0, 38.0 + 1e-9), (-0.5, np.inf)]


def _gibbs_grid(p):
    rng = np.random.default_rng(100 + p)
    a = rng.standard_normal((p, p + 2))
    omega = a @ a.T / (p + 2) + 0.1 * np.eye(p)
    xi = rng.standard_normal(p)
    sd = np.sqrt(np.diag(omega))
    patterns = [_MIXED] + [_REMOTE[k:] + _REMOTE[:k] for k in range(3)]
    for nu in (None, 0.7, 1.5, 4.0):
        joint = normal_joint(xi, omega) if nu is None else student_joint(xi, omega, nu)
        for pattern in patterns:
            rows = np.array([pattern[k % len(pattern)] for k in range(p)])
            yield joint, TruncationBox(xi + rows[:, 0] * sd, xi + rows[:, 1] * sd)


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

    def test_negative_burn_in_raises(self):
        j = normal_joint([0.0], [[1.0]])
        with pytest.raises(SpecError, match="burn_in"):
            sample_truncated_gibbs(j, TruncationBox([-1.0], [1.0]), 1000,
                                   burn_in=-3, seed=1, n_chains=100)

    def test_no_chains_raises(self):
        j = normal_joint([0.0], [[1.0]])
        with pytest.raises(SpecError, match="chain"):
            sample_truncated_gibbs(j, TruncationBox([-1.0], [1.0]), 1000,
                                   seed=1, n_chains=0)

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_draws_match_reference_sweep(self, p, monkeypatch):
        # 64 chains into 781 draws leaves a partial last sweep.
        n, chains, burn_in = 64 * 12 + 13, 64, 10
        seen = {"mirror": 0, "tail": 0, "rescue": 0}

        def traced_rtnorm(rng, lo, hi, size):
            seen["mirror"] += int(np.any(np.asarray(hi) < -_TAIL_CUT))
            seen["tail"] += int(np.any(np.asarray(lo) > _TAIL_CUT))
            return _rtnorm(rng, lo, hi, size)

        def traced_ndtri_exp(y):
            seen["rescue"] += 1
            return ndtri_exp(y)

        monkeypatch.setattr(oracle, "_rtnorm", traced_rtnorm)
        monkeypatch.setattr(oracle, "ndtri_exp", traced_ndtri_exp)
        for seed, (joint, box) in enumerate(_gibbs_grid(p)):
            batch = sample_truncated_gibbs(joint, box, n, burn_in=burn_in, seed=seed,
                                           n_chains=chains)
            ref = _reference_gibbs(joint, box, n, burn_in=burn_in, seed=seed,
                                   n_chains=chains)
            assert np.array_equal(batch.draws, ref), (joint.nu, box.lower, box.upper)
            est = estimate_mean_cov(batch)
            got = (est["mean"].value, est["mean"].std_error, est["cov"].value,
                   est["cov"].std_error)
            for a, b in zip(got, _reference_mean_cov(ref, chains)):
                assert np.array_equal(a, b)
        assert min(seen.values()) > 0, seen

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


class TestTruncatedNormalDraws:
    """Each branch of ``_rtnorm``: central, mirrored, tail proposal, rescue."""

    N = 20_000

    @staticmethod
    def _exact_mean(lo, hi):
        if hi - lo < 1e-6:
            return 0.5 * (lo + hi)  # thin slice: flat to within rounding
        if lo >= 0.0:
            return (norm.pdf(lo) - norm.pdf(hi)) / (norm.sf(lo) - norm.sf(hi))
        return (norm.pdf(lo) - norm.pdf(hi)) / (norm.cdf(hi) - norm.cdf(lo))

    def _check(self, z, lo, hi):
        assert np.all((z >= lo) & (z <= hi))
        se = z.std(ddof=1) / np.sqrt(z.size)
        assert z_within(self._exact_mean(lo, hi), z.mean(), se)

    @pytest.mark.parametrize("lo, hi", [
        (-1.0, 2.0),             # central inverse cdf
        (-9.0, -7.0),            # left tail, mirrored
        (6.0, 9.0),              # right tail, exponential proposal
        (38.0, 38.0 + 1e-9),     # thin remote slice, log-space rescue
    ])
    def test_interval(self, lo, hi):
        z = _rtnorm(np.random.default_rng(11), lo, hi, (self.N,))
        self._check(z, lo, hi)

    def test_mixed_vector(self):
        rows = np.array([(-1.0, 2.0), (-9.0, -7.0), (6.0, 9.0), (38.0, 38.0 + 1e-9)])
        lo = np.tile(rows[:, 0], self.N // 4)
        hi = np.tile(rows[:, 1], self.N // 4)
        z = _rtnorm(np.random.default_rng(12), lo, hi, (self.N,))
        for k, (a, b) in enumerate(rows):
            self._check(z[k::4], a, b)
