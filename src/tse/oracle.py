"""Monte Carlo samplers and moment estimators used for verification.

Two samplers cover the two regimes: direct rejection sampling through the
selection representation whenever the joint acceptance probability is
workable, and a coordinatewise Gibbs sampler for rectangle-truncated
normal / Student-t vectors when it is not (extreme boxes, tiny mass);
``sample_se`` tries the first and falls back to the second.
Estimators report standard errors so analytic results can be compared at
a fixed number of sigmas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ._special import log_ndtr, ndtr, ndtri, ndtri_exp
from .elliptical import STUDENT_T, EllipticalJoint, TruncationBox
from .errors import NumericalError, RejectionInfeasibleError, SpecError

__all__ = [
    "SampleBatch",
    "MomentEstimate",
    "sample_joint",
    "sample_se",
    "sample_se_rejection",
    "sample_truncated_gibbs",
    "estimate_moments",
    "estimate_mean_cov",
]

_PILOT_SIZE = 10_000
_MIN_ACCEPT = 1e-4
_MAX_PROPOSALS = 200_000_000
_TAIL_CUT = 5.0


@dataclass(frozen=True)
class SampleBatch:
    """Draws from a truncated target plus bookkeeping for error bars."""

    draws: np.ndarray
    n_proposed: int
    seed: int
    method: str
    n_chains: int = 1

    @property
    def n(self) -> int:
        return self.draws.shape[0]


@dataclass(frozen=True)
class MomentEstimate:
    """Point estimate with matching-shape standard errors."""

    value: np.ndarray
    std_error: np.ndarray
    n_effective: int


def sample_joint(joint: EllipticalJoint, n: int, rng: np.random.Generator) -> np.ndarray:
    """Plain draws from an untruncated elliptical joint."""
    chol = np.linalg.cholesky(joint.omega)
    z = rng.standard_normal((n, joint.dim)) @ chol.T
    if joint.family == STUDENT_T:
        w = rng.chisquare(joint.nu, n) / joint.nu
        z /= np.sqrt(w)[:, None]
    return joint.xi + z


def sample_se_rejection(spec, tbox: Optional[TruncationBox], n: int, seed: int) -> SampleBatch:
    """Rejection sampler for a truncated selection distribution.

    Simulates the defining construction: draw the full joint, keep the
    outcome block whenever the selection block falls in the selection
    rectangle and the outcome falls in ``tbox``.  A pilot run estimates the
    acceptance probability; below ``1e-4`` the caller must switch to Gibbs.
    """
    from .selection import SelectionSpec  # deferred: selection imports oracle-free modules

    if not isinstance(spec, SelectionSpec):
        raise SpecError("sample_se_rejection expects a SelectionSpec")
    if n < 1:
        raise SpecError("need at least one draw")
    rng = np.random.default_rng(seed)
    q = spec.n_selection
    sel_lo, sel_hi = spec.selection_lower, spec.selection_upper
    if tbox is not None and tbox.dim != spec.n_outcome:
        raise SpecError("box dimension does not match the outcome block")

    def accept_mask(x):
        ok = np.ones(x.shape[0], dtype=bool)
        if q:
            x1 = x[:, :q]
            ok &= np.all((x1 >= sel_lo) & (x1 <= sel_hi), axis=1)
        if tbox is not None:
            x2 = x[:, q:]
            ok &= np.all((x2 >= tbox.lower) & (x2 <= tbox.upper), axis=1)
        return ok

    pilot = sample_joint(spec.joint, _PILOT_SIZE, rng)
    pilot_ok = accept_mask(pilot)
    rate = max(pilot_ok.mean(), 0.5 / _PILOT_SIZE)
    if pilot_ok.mean() < _MIN_ACCEPT:
        raise RejectionInfeasibleError(
            f"pilot acceptance {pilot_ok.mean():.2e} below {_MIN_ACCEPT}; use the Gibbs sampler")

    kept = [pilot[pilot_ok, q:]]
    got = int(pilot_ok.sum())
    proposed = _PILOT_SIZE
    while got < n:
        m = int(min(max((n - got) / rate * 1.2, 10_000), 4_000_000))
        if proposed + m > _MAX_PROPOSALS:
            raise NumericalError("rejection sampler exceeded its proposal budget")
        x = sample_joint(spec.joint, m, rng)
        ok = accept_mask(x)
        kept.append(x[ok, q:])
        got += int(ok.sum())
        proposed += m
    draws = np.concatenate(kept, axis=0)[:n]
    return SampleBatch(draws=draws, n_proposed=proposed, seed=seed, method="rejection")


def sample_se(spec, tbox: Optional[TruncationBox], n: int, seed: int) -> SampleBatch:
    """Outcome draws of a truncated selection distribution.

    Rejection sampling through the defining construction when its pilot
    acceptance is workable; otherwise Gibbs draws of the joint truncated to
    the augmented box, with the selection block dropped.
    """
    try:
        return sample_se_rejection(spec, tbox, n, seed=seed)
    except RejectionInfeasibleError:
        batch = sample_truncated_gibbs(spec.joint, spec.augmented_box(tbox), n, seed=seed)
        return replace(batch, draws=batch.draws[:, spec.n_selection:])


def _rtnorm(rng, lo, hi, size):
    """Standard-normal draws conditioned on ``lo <= z <= hi`` (vectorised).

    Inverse-cdf in the central region; for boxes starting beyond
    ``_TAIL_CUT`` standard units a shifted-exponential proposal in the
    spirit of Robert's tail sampler, with a log-space inverse-cdf rescue
    for slices the proposal keeps rejecting.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if not ((hi < -_TAIL_CUT).any() or (lo > _TAIL_CUT).any()):
        # Every interval is central: inverse cdf straight from the inputs,
        # in place (maximum then minimum is what np.clip computes).
        a = ndtr(lo)
        u = rng.random(size)
        u *= ndtr(hi) - a
        u += a
        np.maximum(u, 1e-16, out=u)
        np.minimum(u, 1.0 - 1e-16, out=u)
        return ndtri(u, out=u)

    lo = np.broadcast_to(lo, size).copy()
    hi = np.broadcast_to(hi, size).copy()
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


def sample_truncated_gibbs(joint: EllipticalJoint, tbox: TruncationBox, n: int,
                           burn_in: int = 500, seed: int = 0,
                           n_chains: int = 256) -> SampleBatch:
    """Gibbs draws from a rectangle-truncated normal or Student-t law.

    Runs ``n_chains`` parallel chains of coordinatewise truncated-normal
    updates; the Student-t kernel is handled through its gamma scale
    mixture (draw the mixing weight given the state, then update the
    conditional normal coordinates).  The first ``burn_in`` sweeps of every
    chain are discarded.
    """
    if tbox.dim != joint.dim:
        raise SpecError("box dimension does not match the joint")
    if n < 1:
        raise SpecError("need at least one draw")
    if burn_in < 0:
        raise SpecError("burn_in must be nonnegative")
    if n_chains < 1:
        raise SpecError("need at least one chain")
    rng = np.random.default_rng(seed)
    p = joint.dim
    lo, hi = tbox.lower, tbox.upper
    n_chains = int(min(n_chains, max(1, n)))
    steps = int(np.ceil(n / n_chains))

    prec = np.linalg.inv(joint.omega)
    cond_sd = 1.0 / np.sqrt(np.diag(prec))

    # Feasible start: midpoint of finite boxes, one scale unit inside
    # one-sided ones.
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
    xi = joint.xi
    # Sweep invariants: each coordinate's conditional-mean terms over the
    # other coordinates (an int array, so p = 1 indexes an empty set).
    others = [np.array([j for j in range(p) if j != i], dtype=int) for i in range(p)]
    xi_others = [xi[o] for o in others]
    prec_others = [prec[o, i] for i, o in enumerate(others)]
    shape = 0.5 * (joint.nu + p) if student else None
    sd_scale = np.ones(n_chains)

    for sweep in range(burn_in + steps):
        if student:
            diff = x - xi
            delta = np.einsum("ni,ij,nj->n", diff, prec, diff)
            # gamma(shape, scale) is scale times one standard-gamma draw.
            w = rng.standard_gamma(shape, n_chains) * (2.0 / (joint.nu + delta))
            sd_scale = 1.0 / np.sqrt(w)
        for i in range(p):
            adj = (x[:, others[i]] - xi_others[i]) @ prec_others[i]
            mean_i = xi[i] - adj / prec[i, i]
            sd_i = cond_sd[i] * sd_scale
            z = _rtnorm(rng, (lo[i] - mean_i) / sd_i, (hi[i] - mean_i) / sd_i,
                        (n_chains,))
            x[:, i] = mean_i + z * sd_i
        if sweep >= burn_in:
            draws[sweep - burn_in] = x

    flat = draws.reshape(steps * n_chains, p)[:n]
    np.clip(flat, lo, hi, out=flat)
    return SampleBatch(draws=flat, n_proposed=n, seed=seed, method="gibbs",
                       n_chains=n_chains)


def _whole_sweeps(values: np.ndarray, n_chains: int) -> np.ndarray:
    """Gibbs rows ``(sweeps, chains, ...)``, the ragged last sweep dropped.

    Draws are stored sweep by sweep, one row per chain, so a draw count
    that does not divide over the chains ends in a partial sweep.
    """
    steps = values.shape[0] // n_chains
    return values[:steps * n_chains].reshape(steps, n_chains, *values.shape[1:])


def _batch_std_error(values: np.ndarray, n_chains: int) -> np.ndarray:
    """Standard error of the mean; batch means over chains for Gibbs output."""
    n = values.shape[0]
    if n_chains > 1 and n >= n_chains:
        per_chain = _whole_sweeps(values, n_chains).mean(axis=0)
        return per_chain.std(axis=0, ddof=1) / np.sqrt(n_chains)
    return values.std(axis=0, ddof=1) / np.sqrt(n)


def estimate_moments(batch: SampleBatch, order) -> MomentEstimate:
    """Plug-in product-moment estimate ``E[prod X_i^{k_i}]`` with its SE."""
    k = np.atleast_1d(np.asarray(order, dtype=int))
    if k.size != batch.draws.shape[1]:
        raise SpecError("order length must match the draw dimension")
    if np.any(k < 0):
        raise SpecError("moment orders must be nonnegative")
    if k.sum() > 8:
        raise SpecError("orders above total degree 8 are too unstable to estimate")
    if batch.n < 100:
        raise SpecError("need at least 100 draws for a moment estimate")
    if k.sum() == 0:
        return MomentEstimate(np.float64(1.0), np.float64(0.0), batch.n)
    vals = np.prod(batch.draws ** k, axis=1)
    se = _batch_std_error(vals, batch.n_chains if batch.method == "gibbs" else 1)
    return MomentEstimate(vals.mean(), se, batch.n)


def estimate_mean_cov(batch: SampleBatch) -> dict:
    """Mean vector and covariance matrix estimates with standard errors.

    Covariance uses the unbiased divisor; its standard errors come from the
    empirical variance of the centred cross products.
    """
    x = batch.draws
    n, p = x.shape
    if n < 100:
        raise SpecError("need at least 100 draws for moment estimates")
    chains = batch.n_chains if batch.method == "gibbs" else 1
    mean = x.mean(axis=0)
    mean_se = _batch_std_error(x, chains)
    centred = x - mean
    cov = centred.T @ centred / (n - 1)
    if chains > 1 and n >= chains:
        d = _whole_sweeps(centred, chains)
        # One pair at a time, summed over sweeps in order: the same bits as
        # a single "sci,scj->cij" einsum, at a fraction of its cost and with
        # no (sweeps, chains) product array.
        chain_prod = np.empty((chains, p, p))
        for i in range(p):
            for j in range(i, p):
                chain_prod[:, i, j] = chain_prod[:, j, i] = np.einsum(
                    "sc,sc->c", d[..., i], d[..., j])
        chain_prod /= d.shape[0]
        cov_se = chain_prod.std(axis=0, ddof=1) / np.sqrt(chains)
    else:
        sq = centred * centred
        second = sq.T @ sq / n
        raw = centred.T @ centred / n
        cov_se = np.sqrt(np.maximum(second - raw * raw, 0.0) / n)
    return {
        "mean": MomentEstimate(mean, mean_se, n),
        "cov": MomentEstimate(cov, cov_se, n),
    }
