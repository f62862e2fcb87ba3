"""The three workloads: inputs, operations, references, checks.

An operation is one public API call or one CLI process.  Each workload
returns a list of :class:`Op`; a pass runs the list once, in order.

The program's inputs are fixed: the in-process workloads draw their data
once from ``DATA_SEED`` and call the program with its default QMC settings,
and ``cli-jobs`` runs the job files as they are.  The run's ``--seed``
seeds the benchmark's own Monte Carlo references.  The cost of a call
moves with its data and with the QMC seed (one ``se_logpdf`` call varies
by 13 % over points of the EX5 law, and refinement and the program's
8-entry caches switch between patterns), so inputs redrawn per seed
spread the figures far wider than the machine does; see README.md.

After
the timed passes the benchmark computes each operation's reference with
``refmath`` (numpy and scipy only) or reads it from ``references.json``,
and checks every pass's output against it with the fixed tolerances
below.  The tolerances never use an error the program reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

import numpy as np
from scipy import stats

import refmath
import tse

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
JOB_DIR = ROOT / "job_examples"

# -- tolerances (fixed; see README "Correctness checks") --------------------
LOGPDF_ABS = 1e-3          # log density, plus PROB_ABS / P(selection | y)
PROB_ABS = 1e-5            # conditional selection probability behind a log density
CENSORED_REL = 2e-3        # censored second-moment expectation, relative to its largest entry
ORTHANT_ABS = 2e-4         # equicorrelated orthant probability against 1 / (d + 1)
PROB_MASS_ABS = 2e-4       # box mass of a moment call against a rectangle reference
EXACT_MEAN_ABS = 1e-3      # mean / odd moment, in units of the coordinate scale
EXACT_COV_ABS = 2e-3       # covariance against a closed form, in scale units
MC_MEAN_ABS = 0.02         # mean against a Monte Carlo reference, in scale units
MC_COV_ABS = 0.04          # covariance against a Monte Carlo reference, in scale units
QUAD_MOMENT_ABS = 2e-3     # moments against a stored quadrature reference
QUAD_RISK_ABS = 2e-4       # quantiles and tail expectations against quadrature
MC_ALLOC_ABS = 0.02        # tail allocations against a stored Monte Carlo reference
GRID_ABS = 1e-9            # closed-form density grid
GIBBS_MEAN_ABS = 0.01      # Gibbs-sampled moments against rejection Monte Carlo
GIBBS_SE_FLOOR = 0.8       # reported SE / batch-means SE must reach this

# Checks that fail at this commit because of a known fault in the program;
# an operation failing only these leaves the run "correct".
KNOWN_FAULTS = {
    "gibbs_stderr": "oracle._batch_std_error falls back to an iid SE when the "
                    "draws do not divide over the chains",
}

MC_ACCEPT = 200_000        # accepted draws behind each Monte Carlo reference
DATA_SEED = 20240607       # the fixed data of em-iteration and dimension-sweep


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    reference: Callable[[], object]
    check: Callable[[object, object], list]
    argv: Optional[list] = None       # CLI operations: arguments after the module


def _stored():
    with open(HERE / "references.json") as fh:
        return json.load(fh)


def _scale_units(diff, scale):
    return np.abs(diff) / scale


def _fail_if(failures, cond, check_id, msg):
    if cond:
        failures.append((check_id, msg))


# ---------------------------------------------------------------------------
# em-iteration: E-step traffic of an interval-censored EM fit
# ---------------------------------------------------------------------------

EX5, EX5_BOX = refmath.EX5, refmath.EX5_BOX

# One pass is the E-step over EM_POINTS observations drawn in order from EX5.
# The second coordinate is left-censored at a detection limit: a reading
# below EM_LIMIT is reported as the interval (-inf, EM_LIMIT] and goes
# through censored_factor_conditional with the first coordinate exact; the
# other observations are exact and go through se_logpdf.  The E-step takes
# them in data order.  EM_LIMIT is close to the lower quartile of the second
# coordinate; 3 of the 18 drawn readings fall below it.  The pass then needs
# 8 chi scale tables, as many as the program's caches hold, so they stay
# warm.  Mixing in points censored in both coordinates would need 10.
EM_POINTS = 18
EM_LIMIT = 1.0


def _ex5_params(df):
    return tse.SutParams(location=EX5["mu"], scale=EX5["sigma"], shape=EX5["lam"],
                         extension=EX5["tau"], selection_corr=EX5["psi"], df=df)


def _ex5_joint(df):
    xi, omega = refmath.selection_joint(EX5["mu"], EX5["sigma"], EX5["lam"],
                                        EX5["tau"], EX5["psi"])
    return xi, omega, df


def _em_observations():
    """Observations drawn from EX5 (rejection through its definition)."""
    xi, omega, nu = _ex5_joint(EX5["nu"])
    rng = np.random.default_rng(DATA_SEED)
    chol = np.linalg.cholesky(omega)
    kept = []
    while sum(len(k) for k in kept) < EM_POINTS:
        z = rng.standard_normal((256, 4)) @ chol.T
        z /= np.sqrt(rng.chisquare(nu, 256) / nu)[:, None]
        x = xi + z
        kept.append(x[np.all(x[:, :2] >= 0.0, axis=1), 2:])
    lo = np.array([-np.inf, -np.inf])
    hi = np.array([np.inf, EM_LIMIT])
    return [("P", y, lo, hi) if y[1] < EM_LIMIT else ("E", y, None, None)
            for y in np.concatenate(kept)[:EM_POINTS]]


def em_iteration(seed):
    del seed  # the data set is fixed; see the module docstring
    spec = tse.build_selection(_ex5_params(EX5["nu"]))
    xi, omega, nu = _ex5_joint(EX5["nu"])
    p_sel = {}

    def selection_mass():
        if "v" not in p_sel:
            p_sel["v"] = refmath.rect_prob(xi[:2], omega[:2, :2], nu, np.zeros(2),
                                           np.full(2, np.inf))
        return p_sel["v"]

    ops = []
    for i, (kind, y, lo, hi) in enumerate(_em_observations()):
        if kind == "E":
            ops.append(Op(
                f"E{i:02d}-se_logpdf",
                lambda y=y: float(tse.se_logpdf(spec, y)),
                lambda y=y: refmath.selection_logpdf(xi, omega, nu, 2, y, selection_mass()),
                _check_logpdf))
        else:
            ops.append(Op(
                f"P{i:02d}-censored-conditional",
                lambda y=y, lo=lo, hi=hi: np.asarray(tse.censored_factor_conditional(
                    spec, tse.TruncationBox(lo, hi), [0], [y[0]]).expectation("second")),
                lambda y=y, lo=lo, hi=hi: _partial_reference(xi, omega, nu, y, lo, hi),
                _check_censored))
    return ops


def _partial_reference(xi, omega, nu, y, lo, hi):
    xi_c, om_c, nu_c = refmath.conditional(xi, omega, nu, [2], [y[0]])
    return refmath.censored_second(xi_c, om_c, nu_c, 2, lo[1:], hi[1:])


def _check_logpdf(out, ref):
    ref_logpdf, p_cond = ref
    fails = []
    tol = LOGPDF_ABS + PROB_ABS / p_cond
    _fail_if(fails, not abs(out - ref_logpdf) <= tol, "logpdf",
             f"log density {out!r} vs {ref_logpdf!r} (tol {tol:.2e})")
    return fails


def _check_censored(out, ref):
    fails = []
    out = np.asarray(out)
    err = np.abs(out - ref).max() / np.abs(ref).max()
    _fail_if(fails, out.shape != ref.shape or not err <= CENSORED_REL, "censored",
             f"censored expectation rel err {err:.2e}: {out.tolist()} vs {ref.tolist()}")
    return fails


# ---------------------------------------------------------------------------
# dimension-sweep: a few large calls across dimension and kernel
# ---------------------------------------------------------------------------

T_NU = 7.0            # truncated Student-t moments (sixth moments exist, so MC is steady)
ORTHANT_NU = 5.0
GIBBS_CASE = {"nu": 1.5, "rho": 0.9, "lower": [-1.0, -1.0], "upper": [1.0, 2.0]}
GIBBS_DRAWS = 400_000  # the draws the program's mc-gibbs route takes ...
GIBBS_SEED = 7         # ... with the default QMC settings' seed
GIBBS_CHAINS = 256


def _random_dispersion(rng, d):
    a = rng.normal(size=(d, d))
    c = a @ a.T / d + np.eye(d)
    sd = np.sqrt(np.diag(c))
    c = c / np.outer(sd, sd)
    s = rng.uniform(0.7, 1.5, size=d)
    return c * np.outer(s, s)


def _joint(nu, m, S):
    if nu is None:
        return tse.normal_joint(m, S)
    return tse.student_joint(m, S, nu)


def _moment_op(name, nu, m, S, lo, hi, mc_seed, reference_kind, k=None):
    """One tmvn/tmvt_mean_cov call with its reference."""
    fn = "tmvn_mean_cov" if nu is None else "tmvt_mean_cov"
    box_lo, box_hi = np.array(lo, dtype=float), np.array(hi, dtype=float)

    def call():
        rep = getattr(tse, fn)(_joint(nu, m, S), tse.TruncationBox(box_lo, box_hi))
        return {"prob": rep.prob_mass, "mean": rep.mean, "cov": rep.covariance}

    def reference():
        prob = refmath.rect_prob(m, S, nu, box_lo, box_hi)
        if reference_kind == "single":
            _, mean, cov = refmath.single_truncation(m, S, nu, k, box_lo[k], box_hi[k])
            return {"prob": prob, "mean": mean, "cov": cov, "exact": True}
        mc = refmath.mc_truncated(m, S, nu, box_lo, box_hi, np.random.default_rng(mc_seed),
                                  MC_ACCEPT)
        mean = np.zeros_like(m) if reference_kind == "symmetric" else mc["mean"]
        return {"prob": prob, "mean": mean, "cov": mc["cov"],
                "exact": False, "exact_mean": reference_kind == "symmetric"}

    def check(out, ref):
        fails = []
        scale = np.sqrt(np.diag(S))
        _fail_if(fails, not abs(out["prob"] - ref["prob"]) <= PROB_MASS_ABS, "prob",
                 f"prob {out['prob']!r} vs {ref['prob']!r}")
        exact_mean = ref["exact"] or ref.get("exact_mean", False)
        tol_m = EXACT_MEAN_ABS if exact_mean else MC_MEAN_ABS
        tol_c = EXACT_COV_ABS if ref["exact"] else MC_COV_ABS
        dm = _scale_units(out["mean"] - ref["mean"], scale).max()
        dc = _scale_units(out["cov"] - ref["cov"], np.outer(scale, scale)).max()
        _fail_if(fails, not dm <= tol_m, "mean", f"mean off by {dm:.2e} scale units")
        _fail_if(fails, not dc <= tol_c, "cov", f"covariance off by {dc:.2e} scale units")
        return fails

    return Op(name, call, reference, check)


def _orthant_op(name, nu, d, rng):
    scales = rng.uniform(0.5, 2.0, size=d)
    S = (0.5 * np.eye(d) + 0.5) * np.outer(scales, scales)
    lo, hi = np.zeros(d), np.full(d, np.inf)

    def call():
        return float(tse.rectangle_prob(_joint(nu, np.zeros(d), S),
                                        tse.TruncationBox(lo, hi))[0])

    def check(out, ref):
        return [("orthant", f"{out!r} vs 1/{d + 1}")] if not abs(out - ref) <= ORTHANT_ABS else []

    return Op(name, call, lambda: 1.0 / (d + 1), check)


def _product_moment_op(rng):
    d = 3
    S = _random_dispersion(rng, d)
    h = rng.uniform(0.6, 1.5, size=d) * np.sqrt(np.diag(S))
    order = [2, 1, 0]

    def call():
        return float(tse.tmvn_product_moment(tse.normal_joint(np.zeros(d), S),
                                             tse.TruncationBox(-h, h), order))

    def check(out, ref):
        scale = float(np.prod(np.sqrt(np.diag(S)) ** np.array(order)))
        ok = abs(out - ref) <= EXACT_MEAN_ABS * scale
        return [] if ok else [("odd_moment", f"odd moment {out!r} should vanish")]

    return Op("pm-n3-odd", call, lambda: 0.0, check)


def _ex5_op(name, df, key):
    lo, hi = EX5_BOX

    def call():
        rep = tse.tse_mean_cov(tse.build_selection(_ex5_params(df)),
                               tse.TruncationBox(lo, hi))
        return {"prob": rep.prob_mass, "mean": rep.mean, "cov": rep.covariance}

    return Op(name, call, lambda: _stored()[key], _check_quad_moments)


def _check_quad_moments(out, ref):
    fails = []
    for k in ("prob", "mean", "cov"):
        d = np.abs(np.asarray(out[k]) - np.asarray(ref[k])).max()
        _fail_if(fails, not d <= QUAD_MOMENT_ABS, k, f"{k} off by {d:.2e}")
    return fails


def _gibbs_op():
    c = GIBBS_CASE
    S = np.array([[1.0, c["rho"]], [c["rho"], 1.0]])
    lo, hi = np.array(c["lower"]), np.array(c["upper"])
    joint = tse.student_joint(np.zeros(2), S, c["nu"])
    box = tse.TruncationBox(lo, hi)

    def call():
        rep = tse.tmvt_mean_cov(joint, box)
        return {"mean": rep.mean, "cov": rep.covariance,
                "mean_se": None if rep.mc_stderr is None else rep.mc_stderr["mean"]}

    def reference():
        mc = refmath.mc_truncated(np.zeros(2), S, c["nu"], lo, hi,
                                  np.random.default_rng(12345), 1_000_000)
        # Batch means over the chains of the very draws the program uses.
        batch = tse.sample_truncated_gibbs(joint, box, GIBBS_DRAWS, seed=GIBBS_SEED)
        steps = batch.draws.shape[0] // GIBBS_CHAINS
        per_chain = batch.draws[:steps * GIBBS_CHAINS].reshape(
            steps, GIBBS_CHAINS, 2).mean(axis=0)
        bm_se = per_chain.std(axis=0, ddof=1) / np.sqrt(GIBBS_CHAINS)
        return {"mean": mc["mean"], "cov": mc["cov"], "batch_se": bm_se}

    def check(out, ref):
        fails = []
        dm = np.abs(out["mean"] - ref["mean"]).max()
        dc = np.abs(out["cov"] - ref["cov"]).max()
        _fail_if(fails, not dm <= GIBBS_MEAN_ABS, "mean", f"Gibbs mean off by {dm:.2e}")
        _fail_if(fails, not dc <= 2 * GIBBS_MEAN_ABS, "cov", f"Gibbs cov off by {dc:.2e}")
        se = out["mean_se"]
        ratio = None if se is None else np.min(np.asarray(se) / ref["batch_se"])
        _fail_if(fails, ratio is None or not ratio >= GIBBS_SE_FLOOR, "gibbs_stderr",
                 f"reported mean SE / batch-means SE = {ratio}")
        return fails

    return Op("mc-gibbs-t1.5", call, reference, check)


def dimension_sweep(seed):
    rng = np.random.default_rng(DATA_SEED)
    mc_seeds = iter(np.random.default_rng(seed % 2 ** 32).integers(0, 2 ** 31, size=32).tolist())
    ops = []

    def loc(d):
        return rng.uniform(-0.3, 0.3, size=d)

    def finite(S):
        s = np.sqrt(np.diag(S))
        return -rng.uniform(0.5, 1.5, s.size) * s, rng.uniform(0.5, 1.5, s.size) * s

    def upper_open(S):
        s = np.sqrt(np.diag(S))
        return rng.uniform(-1.0, 0.3, s.size) * s, np.full(s.size, np.inf)

    shapes = {
        None: ((2, "finite"), (3, "upper"), (4, "sym"), (5, "upper"), (6, "free3")),
        T_NU: ((2, "finite"), (3, "sym"), (4, "upper"), (5, "upper"), (6, "free3")),
    }
    for nu, tag in ((None, "n"), (T_NU, "t")):
        # Finite, one-sided, symmetric and partly doubly infinite boxes.
        for d, kind in shapes[nu]:
            S = _random_dispersion(rng, d)
            m = loc(d)
            if kind == "finite":
                lo, hi = finite(S)
            elif kind == "upper":
                lo, hi = upper_open(S)
            elif kind == "free3":
                lo, hi = finite(S)
                lo[3:], hi[3:] = -np.inf, np.inf
            else:
                m = np.zeros(d)
                s = np.sqrt(np.diag(S))
                hi = rng.uniform(0.6, 1.5, d) * s
                lo = -hi
            ref_kind = "symmetric" if kind == "sym" else "mc"
            ops.append(_moment_op(f"{tag}{d}-{kind}", nu, m, S, lo, hi, next(mc_seeds),
                                  ref_kind))
        # One truncated coordinate, the rest doubly infinite: closed form.
        d = 4 if nu is None else 3
        S = _random_dispersion(rng, d)
        m = loc(d)
        lo, hi = np.full(d, -np.inf), np.full(d, np.inf)
        lo[1] = m[1] + rng.uniform(-1.0, 0.5) * np.sqrt(S[1, 1])
        if nu is None:
            hi[1] = lo[1] + rng.uniform(0.5, 2.0) * np.sqrt(S[1, 1])
        ops.append(_moment_op(f"{tag}{d}-single", nu, m, S, lo, hi, None, "single", k=1))

    ops.append(_product_moment_op(rng))
    ops.append(_ex5_op("ex5-sut", EX5["nu"], "ex5_sut"))
    ops.append(_ex5_op("ex5-sun", None, "ex5_sun"))
    for nu, d in ((None, 40), (ORTHANT_NU, 2)):
        ops.append(_orthant_op(f"orthant-{'n' if nu is None else 't'}{d}", nu, d, rng))
    ops.append(_gibbs_op())
    return ops


# ---------------------------------------------------------------------------
# cli-jobs: every example job as a cold CLI process
# ---------------------------------------------------------------------------

def _job_command(path):
    with open(path) as fh:
        return json.load(fh)["command"]


def cli_jobs(seed):
    """The example jobs; their inputs are the files, so the seed is unused."""
    del seed
    ops = []
    for path in sorted(JOB_DIR.glob("*.json")):
        argv = [_job_command(path), "--spec", str(path)]
        name = path.stem
        ops.append(Op(name, None, lambda name=name: _cli_reference(name),
                      lambda out, ref, name=name: _check_cli(name, out, ref), argv=argv))
    return ops


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = "src"
    return env


def run_cli_process(argv):
    """One cold ``python -m tse.cli`` process; returns its stdout text."""
    proc = subprocess.run([sys.executable, "-m", "tse.cli", *argv], cwd=ROOT,
                          env=cli_env(), capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"tse.cli {argv[0]} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-400:]}")
    return proc.stdout


def run_cli_in_process(argv):
    """The same job through ``tse.cli.main`` in this process (traced run)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["tse.cli"].main(argv)
    if code != 0:
        raise RuntimeError(f"tse.cli {argv[0]} returned {code}")
    return buf.getvalue()


def _cli_reference(name):
    stored = _stored()
    if name == "normal_prob":
        return {"prob": 1.0 / 3.0}
    if name == "sn_pdf_grid":
        with open(JOB_DIR / "sn_pdf_grid.json") as fh:
            spec = json.load(fh)
        dist, grid = spec["distribution"], spec["grid"]
        x = np.linspace(grid["lower"][0], grid["upper"][0], grid["num"][0])
        law = stats.skewnorm(dist["lambda"][0], loc=dist["mu"][0],
                             scale=np.sqrt(dist["sigma"][0][0]))
        return {"x": x, "density": law.pdf(x)}
    return stored.get(name)


def _check_cli(name, text, ref):
    fails = []
    if name == "sn_pdf_grid":
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in text.strip().splitlines()[1:]])
        ok = rows.shape == (ref["x"].size, 2) and np.abs(rows[:, 0] - ref["x"]).max() <= GRID_ABS \
            and np.abs(rows[:, 1] - ref["density"]).max() <= GRID_ABS
        _fail_if(fails, not ok, "grid", "density grid differs from scipy.stats.skewnorm")
        return fails
    values = json.loads(text)["values"]
    if name.endswith("_validate"):
        _fail_if(fails, values.get("pass") is not True, "validate", "validate did not pass")
    elif name == "normal_prob":
        _fail_if(fails, not abs(values["prob"] - ref["prob"]) <= PROB_MASS_ABS, "prob",
                 f"prob {values['prob']!r} vs 1/3")
    elif name in ("sun_moments", "sut_moments", "t_moments"):
        out = {"prob": values["prob_mass"], "mean": values["mean"], "cov": values["covariance"]}
        fails += _check_quad_moments(out, ref)
    elif name == "st_tce":
        for k in ("tce", "quantile"):
            d = abs(values[k] - ref[k])
            _fail_if(fails, not d <= QUAD_RISK_ABS, k, f"{k} off by {d:.2e}")
    elif name == "st_tce_sum":
        for k in ("total", "quantile"):
            d = abs(values[k] - ref[k])
            _fail_if(fails, not d <= QUAD_RISK_ABS, k, f"{k} off by {d:.2e}")
        contrib = np.array(values["contributions"])
        d = np.abs(contrib - np.array(ref["contributions"])).max()
        _fail_if(fails, not d <= MC_ALLOC_ABS, "contributions", f"allocations off by {d:.2e}")
        gap = abs(contrib.sum() - values["total"])
        _fail_if(fails, not gap <= 1e-8 * max(1.0, abs(values["total"])), "additivity",
                 f"allocations miss the total by {gap:.2e}")
    elif name == "est_mtce":
        for k in ("thresholds", "mtce"):
            d = np.abs(np.array(values[k]) - np.array(ref[k])).max()
            _fail_if(fails, not d <= QUAD_RISK_ABS, k, f"{k} off by {d:.2e}")
    else:
        fails.append(("unknown_job", f"no reference for job {name}"))
    return fails


WORKLOADS = {
    "em-iteration": em_iteration,
    "dimension-sweep": dimension_sweep,
    "cli-jobs": cli_jobs,
}
