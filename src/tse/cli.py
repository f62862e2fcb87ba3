"""Command-line front end: JSON jobs in, JSON (or CSV grids) out.

Commands
--------
moments   mean/covariance (or one product moment) of a truncated family
prob      truncated box probability under the selection law
pdf-grid  density values on a 1-D or 2-D grid, CSV formatted
tce       upper-tail conditional expectation of a univariate family
mtce      componentwise tail expectation above a threshold vector
tce-sum   tail expectation of the component sum with its allocation
validate  compare analytic moments against a Monte Carlo oracle

Exit codes: 0 success, 2 malformed job, 3 nonexistent moment requested,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

import numpy as np

from . import __version__
from .elliptical import (
    DEFAULT_SETTINGS,
    RectangleProbSettings,
    TruncationBox,
    normal_joint,
    student_joint,
)
from .errors import MomentNotDefinedError, NumericalError, SpecError
from .oracle import estimate_mean_cov, sample_se
from .qmc import _exact
from .risk import _tce_with_quantile, mtce, mtce_at_level, tce_sum_decomposed
from .selection import (
    SelectionSpec,
    SutParams,
    _tse_moment_path,
    box_mass,
    build_selection,
    se_pdf,
    tse_mean_cov,
)

COMMANDS = ("moments", "prob", "pdf-grid", "tce", "mtce", "tce-sum", "validate")

_EXIT_OK = 0
_EXIT_BAD_JOB = 2
_EXIT_NONEXISTENT = 3
_EXIT_NUMERICAL = 4


# ---------------------------------------------------------------------------
# JSON helpers: infinities travel as the strings "-inf"/"inf", and every
# emitted number is finite (nonexistent values become null).
# ---------------------------------------------------------------------------

def _num_in(x):
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return np.inf
        if s in ("-inf", "-infinity"):
            return -np.inf
        raise SpecError(f"unrecognised numeric string {x!r}")
    if isinstance(x, (int, float)):
        return float(x)
    raise SpecError(f"expected a number, got {type(x).__name__}")


def _int_in(x, name, array=False):
    """A nonnegative integer job field, or with ``array`` a list of them."""
    if array:
        if not isinstance(x, list):
            raise SpecError(f"field {name!r} must be an array")
        return [_int_in(v, name) for v in x]
    integral = (isinstance(x, int) and not isinstance(x, bool)
                or isinstance(x, float) and x.is_integer())
    if not integral or x < 0:
        raise SpecError(f"field {name!r} must be a nonnegative integer, got {x!r}")
    return int(x)


def _array_in(x, name):
    if not isinstance(x, list):
        raise SpecError(f"field {name!r} must be an array")
    if x and isinstance(x[0], list):
        rows = [[_num_in(v) for v in row] for row in x]
        width = {len(r) for r in rows}
        if len(width) != 1:
            raise SpecError(f"field {name!r} must be rectangular")
        return np.array(rows)
    return np.array([_num_in(v) for v in x])


def _json_out(x):
    if isinstance(x, dict):
        return {k: _json_out(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_out(v) for v in x]
    if isinstance(x, np.ndarray):
        return _json_out(x.tolist())
    if isinstance(x, (np.floating, float)):
        v = float(x)
        if np.isnan(v):
            return None
        if v == np.inf:
            return "inf"
        if v == -np.inf:
            return "-inf"
        return v
    if isinstance(x, (np.integer,)):
        return int(x)
    return x


def _box_in(obj, dim) -> TruncationBox:
    if not isinstance(obj, dict) or "lower" not in obj or "upper" not in obj:
        raise SpecError("box must be an object with 'lower' and 'upper' arrays")
    lo = _array_in(obj["lower"], "box.lower")
    hi = _array_in(obj["upper"], "box.upper")
    if lo.ndim != 1 or lo.size != dim or hi.size != dim:
        raise SpecError(f"box limits must have length {dim}")
    return TruncationBox(lo, hi)


_FAMILIES = ("normal", "t", "SN", "ESN", "ST", "EST", "SUN", "SUT")


def parse_distribution(obj) -> tuple:
    """Distribution block -> (SelectionSpec, SutParams or None).

    ``normal``/``t`` are plain elliptical laws; the skewed families map to
    the selection construction with the positive orthant as selection set.
    """
    if not isinstance(obj, dict):
        raise SpecError("distribution must be an object")
    fam = obj.get("family")
    if fam not in _FAMILIES:
        raise SpecError(f"unknown distribution family {fam!r}; expected one of {_FAMILIES}")
    mu = _array_in(obj.get("mu", obj.get("location")), "mu")
    sigma = _array_in(obj.get("sigma", obj.get("scale")), "sigma")
    if sigma.ndim != 2:
        raise SpecError("sigma must be a matrix")
    p = mu.size

    if fam in ("normal", "t"):
        if fam == "t":
            nu = _num_in(obj.get("nu"))
            joint = student_joint(mu, sigma, nu)
        else:
            joint = normal_joint(mu, sigma)
        return SelectionSpec(joint, 0, p, np.zeros(0), np.zeros(0)), None

    lam = _array_in(obj.get("lambda", obj.get("shape")), "lambda")
    if fam in ("SN", "ST", "ESN", "EST"):
        if lam.ndim != 1:
            raise SpecError(f"family {fam} takes a shape vector")
        lam = lam[None, :]
        if fam in ("SN", "ST"):
            tau = np.zeros(1)
        else:
            tau = np.array([_num_in(obj.get("tau"))])
        psi = np.eye(1)
    else:
        if lam.ndim != 2:
            raise SpecError(f"family {fam} takes a shape matrix (q x p)")
        tau = _array_in(obj.get("tau"), "tau")
        psi = _array_in(obj.get("psi"), "psi")
        if psi.ndim != 2:
            raise SpecError("psi must be a matrix")
    nu = _num_in(obj.get("nu")) if fam in ("ST", "EST", "SUT") else None
    params = SutParams(location=mu, scale=sigma, shape=lam, extension=tau,
                       selection_corr=psi, df=nu)
    return build_selection(params), params


def _settings_in(job, seed_override: Optional[int]) -> RectangleProbSettings:
    """The job's QMC settings; fields it leaves out take the defaults of
    :class:`RectangleProbSettings`.  ``qmc.max_points`` is used as given:
    the Sobol' points of a shift are balanced when it is a power of two."""
    qmc = job.get("qmc", {})
    if not isinstance(qmc, dict):
        raise SpecError("qmc must be an object")
    d = DEFAULT_SETTINGS
    seed = qmc.get("seed", job.get("seed", d.seed))
    if seed_override is not None:
        seed = seed_override
    return RectangleProbSettings(
        max_points=_int_in(qmc.get("max_points", d.max_points), "qmc.max_points"),
        target_abs_error=_num_in(qmc.get("target_abs_error", d.target_abs_error)),
        seed=_int_in(seed, "seed"),
        num_shifts=_int_in(qmc.get("num_shifts", d.num_shifts), "qmc.num_shifts"),
    )


def _report_values(rep):
    values = {
        "prob_mass": rep.prob_mass,
        "mean": rep.mean,
        "covariance": rep.covariance,
        "second_moment": rep.second_moment,
    }
    diagnostics = {
        "existence": {"mean": rep.existence.mean, "second": rep.existence.second},
        "notes": list(rep.notes),
    }
    if rep.mc_stderr is not None:
        diagnostics["mc_stderr"] = rep.mc_stderr
    return values, diagnostics


def run(job: dict, command: str, seed_override: Optional[int] = None) -> dict:
    """Execute one job and return the JobResult payload as a dict."""
    if not isinstance(job, dict):
        raise SpecError("job must be a JSON object")
    if "command" in job and job["command"] != command:
        raise SpecError(
            f"job file says command {job['command']!r} but {command!r} was invoked")
    settings = _settings_in(job, seed_override)
    spec, params = parse_distribution(job.get("distribution"))
    tbox = _box_in(job["box"], spec.n_outcome) if "box" in job else None

    if command == "moments":
        if "order" in job:
            order = _int_in(job["order"], "order", array=True)
            value, method, mc_stderr = _tse_moment_path(spec, tbox, order, settings)
            diagnostics = {} if mc_stderr is None else {"mc_stderr": mc_stderr}
            return _result({"moment": value, "order": order}, method, diagnostics)
        rep = tse_mean_cov(spec, tbox, settings)
        values, diagnostics = _report_values(rep)
        return _result(values, rep.method, diagnostics)

    if command == "prob":
        if tbox is None:
            raise SpecError("prob requires a box")
        prob, err, sel_prob = box_mass(spec, tbox, settings)
        exact = _exact(np.count_nonzero(~spec.augmented_box(tbox).both_infinite()), spec.joint.nu)
        return _result({"prob": prob}, ("exact" if exact else "qmc",),
                       {"error_estimate": err, "selection_prob": sel_prob})

    if command == "pdf-grid":
        return _pdf_grid(job, spec, tbox, settings)

    if command == "tce":
        alpha = _num_in(job.get("alpha"))
        value, y_alpha = _tce_with_quantile(spec, alpha, settings)
        return _result({"tce": value, "quantile": y_alpha, "alpha": alpha},
                       ("direct",), {})

    if command == "mtce":
        if "thresholds" in job:
            thresholds = _array_in(job["thresholds"], "thresholds")
            values = mtce(spec, thresholds, settings)
            return _result({"mtce": values, "thresholds": thresholds}, ("direct",), {})
        alpha = _num_in(job.get("alpha"))
        out = mtce_at_level(spec, alpha, settings)
        return _result({"mtce": out["mtce"], "thresholds": out["thresholds"],
                        "alpha": alpha}, ("direct",), {})

    if command == "tce-sum":
        if params is None or params.q != 1:
            raise SpecError("tce-sum needs a one-dimensional selection family "
                            "(SN/ESN/ST/EST or SUN/SUT with q = 1)")
        alpha = _num_in(job.get("alpha"))
        dec = tce_sum_decomposed(params, alpha, settings)
        return _result({
            "total": dec.total,
            "contributions": dec.contributions,
            "quantile": dec.quantile,
            "alpha": dec.alpha,
            "aux_selection_mean": dec.aux_selection_mean,
        }, ("direct",), {"additivity_gap": float(dec.contributions.sum() - dec.total)})

    if command == "validate":
        return _validate(job, spec, tbox, settings)

    raise SpecError(f"unknown command {command!r}")


def _result(values, method, diagnostics) -> dict:
    return {
        "values": values,
        "method": list(method),
        "diagnostics": diagnostics,
        "version": __version__,
    }


def _pdf_grid(job, spec, tbox, settings) -> dict:
    grid = job.get("grid")
    if not isinstance(grid, dict):
        raise SpecError("pdf-grid requires a 'grid' object with lower/upper/num")
    if spec.n_outcome > 2:
        raise SpecError("pdf-grid supports one- and two-dimensional outcomes only")
    lo = _array_in(grid.get("lower"), "grid.lower")
    hi = _array_in(grid.get("upper"), "grid.upper")
    num = _int_in(grid.get("num"), "grid.num", array=True)
    if lo.size != spec.n_outcome or hi.size != spec.n_outcome or len(num) != spec.n_outcome:
        raise SpecError("grid fields must match the outcome dimension")
    axes = [np.linspace(lo[i], hi[i], num[i]) for i in range(spec.n_outcome)]
    if spec.n_outcome == 1:
        points = axes[0][:, None]
    else:
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        points = np.column_stack([xx.ravel(), yy.ravel()])
    dens = se_pdf(spec, points, settings)
    if tbox is not None:
        mass = box_mass(spec, tbox, settings)[0]
        if mass <= 0.0:
            raise NumericalError("truncation box mass underflowed")
        inside = np.all((points >= tbox.lower) & (points <= tbox.upper), axis=1)
        dens = np.where(inside, dens / mass, 0.0)
    header = "x,density" if spec.n_outcome == 1 else "x,y,density"
    lines = [header]
    for row, d in zip(points, dens):
        coords = ",".join(repr(float(v)) for v in row)
        lines.append(f"{coords},{repr(float(d))}")
    return {"csv": "\n".join(lines) + "\n"}


def _validate(job, spec, tbox, settings) -> dict:
    """Analytic moments against a seeded Monte Carlo oracle, in sigmas."""
    n_draws = _int_in(job.get("draws", 200_000), "draws")
    rep = tse_mean_cov(spec, tbox, settings)
    batch = sample_se(spec, tbox, n_draws, settings.seed)
    est = estimate_mean_cov(batch)
    z_mean = (rep.require_mean() - est["mean"].value) / est["mean"].std_error
    z_cov = (rep.require_cov() - est["cov"].value) / np.maximum(est["cov"].std_error,
                                                                1e-300)
    worst = float(max(np.abs(z_mean).max(), np.abs(z_cov).max()))
    ok = worst <= 4.0
    result = _result({
        "analytic_mean": rep.require_mean(),
        "mc_mean": est["mean"].value,
        "z_mean": z_mean,
        "analytic_cov": rep.require_cov(),
        "mc_cov": est["cov"].value,
        "z_cov": z_cov,
        "worst_abs_z": worst,
        "pass": bool(ok),
    }, rep.method, {"draws": batch.n, "sampler": batch.method})
    if not ok:
        raise NumericalError(
            "validation failed: analytic and Monte Carlo moments disagree beyond 4 SE\n"
            + json.dumps(_json_out(result), sort_keys=True))
    return result


def _emit(result: dict, out_path: Optional[str]):
    if "csv" in result:
        payload = result["csv"]
    else:
        payload = json.dumps(_json_out(result), sort_keys=True, indent=2) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tse",
        description="Truncated moments, probabilities and tail risk for "
                    "selection-elliptical distributions.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", required=True, help="path to the JSON job file")
    parser.add_argument("--out", help="write the result here instead of stdout")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the job's randomization seed")
    args = parser.parse_args(argv)

    try:
        with open(args.spec) as fh:
            job = json.load(fh)
    except FileNotFoundError:
        print(f"error: job file not found: {args.spec}", file=sys.stderr)
        return _EXIT_BAD_JOB
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON at line {exc.lineno} column {exc.colno}: "
              f"{exc.msg}", file=sys.stderr)
        return _EXIT_BAD_JOB

    try:
        result = run(job, args.command, seed_override=args.seed)
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_BAD_JOB
    except MomentNotDefinedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NONEXISTENT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERICAL
    _emit(result, args.out)
    return _EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
