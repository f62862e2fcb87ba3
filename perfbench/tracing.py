"""Traced run: spans and counts at the boundaries of the ``tse`` modules.

The tracer replaces each layer's public functions with timing wrappers,
at every binding the loaded ``tse.*`` modules hold (``rect_prob_qmc`` is
imported by name into ``tse.elliptical`` and ``tse.truncated``, for
example), plus the ``scipy.special`` names bound in ``tse.qmc``.  Each call
becomes a span (name, start, end, parent) with its self time and a few
attributes read from the arguments and the result.  Nothing inside the
program changes; the wrappers are removed when the traced passes end.

A target that no longer exists raises :class:`TraceError`, so a renamed
function fails the run instead of reporting zeros.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

import numpy as np


class TraceError(RuntimeError):
    pass


# (defining module, attribute, layer, where to replace it).  "all" replaces
# every binding of the same object across the loaded tse modules; "own"
# only the named module's binding.
TARGETS = [
    ("tse.qmc", "rect_prob_qmc", "qmc", "all"),
    ("tse.qmc", "ndtr", "special", "own"),
    ("tse.qmc", "ndtri", "special", "own"),
    ("tse.qmc", "gammaincinv", "special", "own"),
    ("tse.elliptical", "rectangle_prob", "elliptical", "all"),
    ("tse.elliptical", "conditional", "elliptical", "all"),
    ("tse.truncated", "truncated_mean_cov", "truncated", "all"),
    ("tse.truncated", "tmvn_mean_cov", "truncated", "all"),
    ("tse.truncated", "tmvt_mean_cov", "truncated", "all"),
    ("tse.truncated", "tmvn_product_moment", "truncated", "all"),
    ("tse.selection", "se_logpdf", "selection", "all"),
    ("tse.selection", "se_pdf", "selection", "all"),
    ("tse.selection", "tse_mean_cov", "selection", "all"),
    ("tse.selection", "tse_moment", "selection", "all"),
    ("tse.selection", "selection_probability", "selection", "all"),
    ("tse.censored", "censored_factor", "censored", "all"),
    ("tse.censored", "censored_factor_conditional", "censored", "all"),
    ("tse.censored", "CensoredFactor.expectation", "censored", "own"),
    ("tse.risk", "survival", "risk", "all"),
    ("tse.risk", "quantile_upper", "risk", "all"),
    ("tse.risk", "tce", "risk", "all"),
    ("tse.risk", "mtce", "risk", "all"),
    ("tse.risk", "mtce_at_level", "risk", "all"),
    ("tse.risk", "tce_sum_decomposed", "risk", "all"),
    ("tse.oracle", "sample_truncated_gibbs", "oracle", "all"),
    ("tse.oracle", "sample_se_rejection", "oracle", "all"),
    ("tse.oracle", "estimate_mean_cov", "oracle", "all"),
    ("tse.oracle", "estimate_moments", "oracle", "all"),
    ("tse.cli", "main", "cli", "all"),
    ("tse.cli", "run", "cli", "all"),
    ("tse.cli", "_emit", "cli", "all"),
]

# Span record fields.
NAME, LAYER, START, END, PARENT, CHILD, ROOT, PASS, ATTRS = range(9)

# Working arrays of one QMC pass besides the lattice rows and the
# conditioned values: limits, probabilities, the product and temporaries.
_QMC_TEMP_ARRAYS = 6


class Tracer:
    """Keeps spans in memory while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self.current_pass = 0

    # -- installation -------------------------------------------------------

    def install(self):
        try:
            self._install()
        except TraceError:
            self.uninstall()
            raise

    def _install(self):
        for mod_name, attr, layer, scope in TARGETS:
            importlib.import_module(mod_name)
        tse_modules = [m for name, m in sorted(sys.modules.items())
                       if m is not None and (name == "tse" or name.startswith("tse."))]
        for mod_name, attr, layer, scope in TARGETS:
            module = sys.modules[mod_name]
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name, None)
                if owner is None:
                    raise TraceError(f"{mod_name}.{cls_name} no longer exists")
            original = owner.__dict__.get(leaf) if isinstance(owner, type) \
                else getattr(owner, leaf, None)
            if original is None:
                raise TraceError(f"{mod_name}.{attr} no longer exists")
            wrapper = self._wrap(attr.split(".")[-1], layer, original)
            owners = [owner]
            if scope == "all":
                owners = [m for m in tse_modules if getattr(m, leaf, None) is original]
            for target in owners:
                self._patches.append((target, leaf, original))
                setattr(target, leaf, wrapper)

    def uninstall(self):
        for target, leaf, original in reversed(self._patches):
            setattr(target, leaf, original)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def _open(self, name, layer):
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else None
        idx = len(self.spans)
        self.spans.append([name, layer, 0.0, 0.0, parent, 0.0, root, self.current_pass, None])
        self._stack.append(idx)
        self.spans[idx][START] = time.perf_counter()
        return idx

    def _close(self, idx):
        end = time.perf_counter()
        self._stack.pop()
        span = self.spans[idx]
        span[END] = end
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += end - span[START]
        return span

    def op(self, name):
        """Context manager for one benchmark operation (a root span)."""
        tracer = self

        class _Op:
            def __enter__(self):
                self.idx = tracer._open(name, "op")
                tracer.spans[self.idx][ROOT] = name

            def __exit__(self, *exc):
                tracer._close(self.idx)
                return False

        return _Op()

    def _wrap(self, name, layer, fn):
        tracer = self
        attrs_of = _ATTRS.get(name)
        sig = None
        if attrs_of is not None and not isinstance(fn, np.ufunc):
            sig = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            idx = tracer._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = tracer._close(idx)
            if attrs_of is not None:
                bound = args
                if sig is not None:
                    ba = sig.bind(*args, **kwargs)
                    ba.apply_defaults()
                    bound = ba.arguments
                attrs_of(tracer, span, bound, result)
            return result

        if isinstance(fn, np.ufunc):
            wrapper.__name__ = fn.__name__
            wrapper.__doc__ = fn.__doc__
            return wrapper
        return functools.wraps(fn)(wrapper)


# -- attributes read at the boundaries -------------------------------------

def _qmc_attrs(tracer, span, a, result):
    lower = np.asarray(a["lower"], dtype=float)
    key = (lower.size, a["df"],
           np.round(np.atleast_2d(np.asarray(a["sigma"], dtype=float)), 10).tobytes(),
           np.round(lower, 10).tobytes(),
           np.round(np.asarray(a["upper"], dtype=float), 10).tobytes())
    extra = span[ATTRS] or {}
    span[ATTRS] = {
        "n": lower.size, "df": a["df"], "key": key, "err": float(result[1]),
        "target": a["target_abs_error"], "shifts": a["num_shifts"],
        "max_points": a["max_points"], "ndtri": extra.get("ndtri", []),
    }


def _ndtri_attrs(tracer, span, args, result):
    parent = tracer.spans[span[PARENT]] if span[PARENT] >= 0 else None
    if parent is not None and parent[NAME] == "rect_prob_qmc":
        if parent[ATTRS] is None:
            parent[ATTRS] = {"ndtri": []}
        parent[ATTRS]["ndtri"].append(int(np.size(args[0])))


def _gammaincinv_attrs(tracer, span, args, result):
    span[ATTRS] = {"evals": int(np.size(result))}


def _se_logpdf_attrs(tracer, span, a, result):
    span[ATTRS] = {"points": int(np.atleast_2d(np.asarray(a["y"], dtype=float)).shape[0])}


def _route_attrs(tracer, span, a, result):
    span[ATTRS] = {"route": result.method[-1]}


def _draws_attrs(tracer, span, a, result):
    span[ATTRS] = {"draws": int(result.n)}


_ATTRS = {
    "rect_prob_qmc": _qmc_attrs,
    "ndtri": _ndtri_attrs,
    "gammaincinv": _gammaincinv_attrs,
    "se_logpdf": _se_logpdf_attrs,
    "truncated_mean_cov": _route_attrs,
    "sample_truncated_gibbs": _draws_attrs,
    "sample_se_rejection": _draws_attrs,
}

ROUTES = ("direct", "double-infinite", "out-of-bounds", "degenerate", "mc-gibbs",
          "untruncated")


# -- per-layer metrics -----------------------------------------------------

def _has_ancestor(spans, span, name):
    p = span[PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def _qmc_points(at):
    """Lattice points times shifts over all passes of one QMC call."""
    n = at["n"]
    if n < 2 or not at["ndtri"]:
        return 0, False, 0.0
    per_pass = n - 1  # ndtri runs once per conditioned coordinate per pass
    points = sum(at["ndtri"]) / per_pass
    largest = max(at["ndtri"])
    refined = largest > at["max_points"] * at["shifts"]
    qmc_dim = n - 1 if at["df"] is None else n
    work_mb = 8.0 * largest * (qmc_dim + (n - 1) + _QMC_TEMP_ARRAYS) / 2 ** 20
    return points, refined, work_mb


def layer_metrics(tracer: Tracer, passes: int, import_s: float) -> dict:
    """Per-layer metrics, as totals per timed pass (maxima and ratios as is)."""
    spans = tracer.spans
    per = 1.0 / passes
    by_name: dict = {}
    self_by_layer: dict = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)
        self_s = s[END] - s[START] - s[CHILD]
        self_by_layer[s[LAYER]] = self_by_layer.get(s[LAYER], 0.0) + self_s

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ()))

    # Calls that raised carry no attributes and are left out of the counts.
    qmc = [s for s in by_name.get("rect_prob_qmc", []) if s[ATTRS] and "key" in s[ATTRS]]
    unique = {(s[PASS], s[ATTRS]["key"]) for s in qmc}
    points = 0.0
    refined = 0
    work_mb = 0.0
    for s in qmc:
        pts, ref, mb = _qmc_points(s[ATTRS])
        points += pts
        refined += int(ref)
        work_mb = max(work_mb, mb)
    target_missed = sum(1 for s in qmc if s[ATTRS]["target"] is not None
                        and s[ATTRS]["err"] > s[ATTRS]["target"])

    tmc = [s for s in by_name.get("truncated_mean_cov", []) if s[ATTRS]]
    outer_tmc = [s for s in tmc if not _has_ancestor(spans, s, "truncated_mean_cov")]
    qmc_in_tmc = sum(1 for s in qmc if _has_ancestor(spans, s, "truncated_mean_cov"))
    routes = {r: 0 for r in ROUTES}
    for s in tmc:
        routes[s[ATTRS]["route"]] = routes.get(s[ATTRS]["route"], 0) + 1

    quantiles = calls("quantile_upper")
    surv_in_q = sum(1 for s in by_name.get("survival", [])
                    if _has_ancestor(spans, s, "quantile_upper"))

    m = {
        "qmc.calls": len(qmc) * per,
        "qmc.calls_2d": sum(1 for s in qmc if s[ATTRS]["n"] == 2) * per,
        "qmc.calls_3d_up": sum(1 for s in qmc if s[ATTRS]["n"] >= 3) * per,
        "qmc.calls_t": sum(1 for s in qmc if s[ATTRS]["df"] is not None) * per,
        "qmc.unique_ratio": len(unique) / len(qmc) if qmc else 0.0,
        "qmc.points": points * per,
        "qmc.refined": refined * per,
        "qmc.target_missed": target_missed * per,
        "qmc.err_max": max((s[ATTRS]["err"] for s in qmc), default=0.0),
        "qmc.self_s": self_by_layer.get("qmc", 0.0) * per,
        "qmc.work_mb_max": work_mb,
        "special.gammaincinv_s": total_s("gammaincinv") * per,
        "special.gammaincinv_evals": sum(s[ATTRS]["evals"]
                                         for s in by_name.get("gammaincinv", [])) * per,
        "special.ndtri_s": total_s("ndtri") * per,
        "special.ndtr_s": total_s("ndtr") * per,
        "elliptical.rectangle_prob.calls": calls("rectangle_prob") * per,
        "elliptical.rectangle_prob.self_s": sum(
            s[END] - s[START] - s[CHILD] for s in by_name.get("rectangle_prob", [])) * per,
        "elliptical.conditional.calls": calls("conditional") * per,
        "truncated.mean_cov.calls": len(tmc) * per,
    }
    for r in ROUTES:
        m["truncated.route." + r.replace("-", "_")] = routes[r] * per
    m.update({
        "truncated.qmc_per_call": qmc_in_tmc / len(outer_tmc) if outer_tmc else 0.0,
        "truncated.self_s": self_by_layer.get("truncated", 0.0) * per,
        "selection.se_logpdf.points": sum(s[ATTRS]["points"]
                                          for s in by_name.get("se_logpdf", [])) * per,
        "selection.se_logpdf.s": total_s("se_logpdf") * per,
        "selection.tse_mean_cov.calls": calls("tse_mean_cov") * per,
        "selection.selection_probability.calls": calls("selection_probability") * per,
        "selection.self_s": self_by_layer.get("selection", 0.0) * per,
        "censored.factor.calls": calls("censored_factor") * per,
        "censored.self_s": self_by_layer.get("censored", 0.0) * per,
        "risk.quantile.calls": quantiles * per,
        "risk.survival.calls": calls("survival") * per,
        "risk.survival_per_quantile": surv_in_q / quantiles if quantiles else 0.0,
        "risk.self_s": self_by_layer.get("risk", 0.0) * per,
        "oracle.draws": sum(s[ATTRS]["draws"]
                            for name in ("sample_truncated_gibbs", "sample_se_rejection")
                            for s in by_name.get(name, [])) * per,
        "oracle.self_s": self_by_layer.get("oracle", 0.0) * per,
        "cli.import_s": import_s,
        "cli.run_s": total_s("run") * per,
        "cli.emit_s": total_s("_emit") * per,
    })
    return m


def qmc_calls_by_op(tracer: Tracer, op_name: str, pass_index: int) -> tuple:
    """QMC calls of one operation in one pass, keyed by (dimension, df).

    Returns the calls the face recursion (``truncated_mean_cov``) issued and
    the number issued outside it.
    """
    inside: dict = {}
    outside = 0
    for s in tracer.spans:
        if s[NAME] == "rect_prob_qmc" and s[ROOT] == op_name and s[PASS] == pass_index:
            if not _has_ancestor(tracer.spans, s, "truncated_mean_cov"):
                outside += 1
                continue
            df = s[ATTRS]["df"]
            key = (s[ATTRS]["n"], None if df is None else float(df))
            inside[key] = inside.get(key, 0) + 1
    return inside, outside


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb_max"):
        return "MB"
    if name.endswith("err_max"):
        return "prob"
    if name.endswith(("ratio", "per_call", "per_quantile")):
        return "ratio"
    return "count"
