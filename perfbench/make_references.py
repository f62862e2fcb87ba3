"""Recompute the stored references in ``references.json``.

Run from the repository root::

    python3 perfbench/make_references.py

Every number comes from ``refmath`` (numpy and scipy only; ``tse`` is
never imported): 2-D quadrature of the selection-law densities for the
truncated moments, 1-D quadrature with root finding for quantiles and tail
expectations, and seeded numpy Monte Carlo for the tail allocations of a
sum.  The laws, boxes and levels are read from the job files in
``job_examples/``; the paper's numerical example (EX5) comes from
``refmath``.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from scipy import integrate, optimize  # noqa: E402

import refmath  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "references.json"
JOB_DIR = HERE.parent / "job_examples"

ALLOC_DRAWS = 20_000_000
ALLOC_SEED = 20240611
_QUAD = {"epsabs": 1e-12, "epsrel": 1e-10, "limit": 400}


def box_moments(dens, lower, upper):
    mass, mean, second = refmath.box_moments_2d(dens, np.array(lower, dtype=float),
                                                np.array(upper, dtype=float))
    cov = second - np.outer(mean, mean)
    return {"prob": mass, "mean": mean.tolist(), "cov": cov.tolist()}


def job(name):
    """A job file of ``job_examples/``: its distribution and the rest."""
    with open(JOB_DIR / f"{name}.json") as fh:
        return json.load(fh)


def selection_law(dist):
    """Selection joint ``(xi, omega)``, ``nu`` and ``q`` of a job's skew family."""
    if dist["family"] in ("ST", "EST"):
        lam, tau, psi = [dist["lambda"]], [dist.get("tau", 0.0)], [[1.0]]
    else:
        lam, tau, psi = dist["lambda"], dist["tau"], dist["psi"]
    xi, omega = refmath.selection_joint(dist["mu"], dist["sigma"], lam, tau, psi)
    return xi, omega, dist.get("nu"), np.atleast_2d(lam).shape[0]


def selection_box_moments(xi, omega, nu, q, lower, upper):
    return box_moments(refmath.selection_density(xi, omega, nu, q), lower, upper)


def moments_job(name):
    spec = job(name)
    dist, box = spec["distribution"], spec["box"]
    lower, upper = ([float(v) for v in box[k]] for k in ("lower", "upper"))
    if dist["family"] == "t":
        m, S = np.array(dist["mu"], dtype=float), np.array(dist["sigma"], dtype=float)

        def dens(y):
            return float(np.exp(refmath.logpdf(y, m, S, dist["nu"])))

        return box_moments(dens, lower, upper)
    return selection_box_moments(*selection_law(dist), lower, upper)


def ex5_moments(nu):
    ex5 = refmath.EX5
    xi, omega = refmath.selection_joint(ex5["mu"], ex5["sigma"], ex5["lam"], ex5["tau"],
                                        ex5["psi"])
    return selection_box_moments(xi, omega, nu, 2, *refmath.EX5_BOX)


def upper_tail(dens, loc, alpha):
    """Quantile with upper mass ``alpha`` and the tail expectation above it."""
    def survival(y):
        return integrate.quad(dens, y, np.inf, **_QUAD)[0]

    lo, hi = loc - 1.0, loc + 1.0
    while survival(lo) < alpha:
        lo -= 1.0
    while survival(hi) > alpha:
        hi += 1.0
    q = optimize.brentq(lambda y: survival(y) - alpha, lo, hi, xtol=1e-12, rtol=1e-14)
    tail_mean = integrate.quad(lambda y: y * dens(y), q, np.inf, **_QUAD)[0] / survival(q)
    return q, tail_mean


def univariate_selection(xi, omega, nu, rows):
    """Density of the outcome in ``rows`` = (selection index, outcome index)."""
    idx = np.array(rows)
    dens = refmath.selection_density(xi[idx], omega[np.ix_(idx, idx)], nu, 1)
    return lambda y: dens(np.array([y]))


def st_tce():
    spec = job("st_tce")
    xi, omega, nu, _ = selection_law(spec["distribution"])
    q, tce = upper_tail(univariate_selection(xi, omega, nu, [0, 1]), xi[1], spec["alpha"])
    return {"quantile": q, "tce": tce}


def st_tce_sum():
    spec = job("st_tce_sum")
    xi, omega, nu, _ = selection_law(spec["distribution"])
    p = xi.size - 1
    a = np.zeros((2, p + 1))
    a[0, 0] = 1.0
    a[1, 1:] = 1.0
    xs, oms = a @ xi, a @ omega @ a.T
    q, total = upper_tail(univariate_selection(xs, oms, nu, [0, 1]), xs[1], spec["alpha"])
    # Allocations E[Y_i | X0 >= 0, sum > q] by rejection Monte Carlo.
    rng = np.random.default_rng(ALLOC_SEED)
    chol = np.linalg.cholesky(omega)
    s1 = np.zeros(p)
    s2 = np.zeros(p)
    n = 0
    for _ in range(ALLOC_DRAWS // 1_000_000):
        z = rng.standard_normal((1_000_000, p + 1)) @ chol.T
        z /= np.sqrt(rng.chisquare(nu, 1_000_000) / nu)[:, None]
        x = xi + z
        y = x[(x[:, 0] >= 0.0) & (x[:, 1:].sum(axis=1) > q), 1:]
        s1 += y.sum(axis=0)
        s2 += (y * y).sum(axis=0)
        n += y.shape[0]
    mean = s1 / n
    se = np.sqrt((s2 / n - mean * mean) / n)
    return {"quantile": q, "total": total, "contributions": mean.tolist(),
            "contributions_se": se.tolist(), "contributions_draws": n}


def est_mtce():
    spec = job("est_mtce")
    xi, omega, nu, _ = selection_law(spec["distribution"])
    thresholds = [upper_tail(univariate_selection(xi, omega, nu, [0, 1 + i]), xi[1 + i],
                             spec["alpha"])[0]
                  for i in range(xi.size - 1)]
    mom = box_moments(refmath.selection_density(xi, omega, nu, 1), thresholds,
                      [np.inf] * len(thresholds))
    return {"thresholds": thresholds, "mtce": mom["mean"]}


def main():
    jobs = {
        "ex5_sut": lambda: ex5_moments(refmath.EX5["nu"]),
        "ex5_sun": lambda: ex5_moments(None),
        "sun_moments": lambda: moments_job("sun_moments"),
        "sut_moments": lambda: moments_job("sut_moments"),
        "t_moments": lambda: moments_job("t_moments"),
        "st_tce": st_tce,
        "st_tce_sum": st_tce_sum,
        "est_mtce": est_mtce,
    }
    out = {"command": "python3 perfbench/make_references.py"}
    for name, fn in jobs.items():
        t0 = time.perf_counter()
        out[name] = fn()
        print(f"{name}: {time.perf_counter() - t0:.1f} s {out[name]}", file=sys.stderr)
    OUT.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
