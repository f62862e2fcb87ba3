"""Conditional-expectation identities used by interval-censored E-steps.

The key identity rewrites a truncated-selection expectation of
``g(Y) * density(selection threshold | Y) / survival(threshold | Y)`` as a
closed-form factor times a plain truncated-elliptical expectation of
``g``: the factor is the threshold density-to-mass ratio of the selection
block times the ratio of box masses under the limiting law and under the
selection law.  A conditional variant covers the case where part of the
outcome vector is observed exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .elliptical import (
    DEFAULT_SETTINGS,
    EllipticalJoint,
    RectangleProbSettings,
    TruncationBox,
    _complement,
    conditional,
    log_density,
    rectangle_prob,
)
from .errors import NumericalError, SpecError
from .qmc import _exact
from .selection import SelectionSpec, SutParams, build_selection, selection_probability
from .truncated import MomentReport, truncated_mean_cov

__all__ = ["GKind", "CensoredFactor", "censored_factor", "censored_factor_conditional"]

# Supported g shapes for the censored expectations: the constant one, the
# identity (first moment) and the outer square (second moment).
G_KINDS = ("one", "mean", "second")
GKind = str


@dataclass(frozen=True)
class CensoredFactor:
    """Everything needed to evaluate the censored-expectation identity.

    ``expectation(kind)`` returns the full right-hand side
    ``eta * prob_ratio * E[g(W)]`` where ``W`` is the limiting law
    truncated to the box ``B``.  ``eta = f_sel(0) / P(sel)`` is the
    density-to-mass ratio of the selection block at its threshold, and
    ``prob_ratio = P(W in B) / (P(aug) / P(sel))`` is the ratio of the box
    masses under the limiting law and under the selection law, ``P(aug)``
    being the joint mass of the selection rectangle and the box.  ``P(sel)``
    cancels from the product, so ``log_factor`` is
    ``log f_sel(0) + log P(W in B) - log P(aug)``, from
    ``log_threshold_density`` and ``log_joint_mass = log P(aug)``, and
    ``spec``'s selection mass is computed only when ``eta`` or
    ``prob_ratio`` is read.

    ``P(W in B)`` is computed once per instance.  ``kind="mean"`` and
    ``kind="second"`` compute ``W``'s truncated moments (memoised, see
    :meth:`truncated_limiting_moments`) and take it from their report's
    ``prob_mass``, which is the same rectangle probability.  ``kind="one"``
    and ``log_factor`` take it from ``rectangle_prob`` and compute no
    moments; so do the moment kinds where the report's mass is not the
    box's rectangle probability: where the report holds a coordinate
    (``"out-of-bounds"`` or ``"degenerate"`` in its method), and where the
    box goes to the Sobol' lattice, which ``rectangle_prob`` refines to its
    target and the moment recursion does not.

    ``limiting`` and ``spec`` are ``None`` when conditioning has consumed
    the whole outcome block: then only ``kind="one"`` is meaningful,
    ``log_joint_mass`` is the log selection mass of the conditioned law, the
    factor is ``eta`` and ``prob_ratio`` is 1.
    """

    log_threshold_density: float
    log_joint_mass: float
    spec: Optional[SelectionSpec]
    limiting: Optional[EllipticalJoint]
    box: Optional[TruncationBox]
    settings: RectangleProbSettings = DEFAULT_SETTINGS

    def __post_init__(self):
        object.__setattr__(self, "_report", None)
        object.__setattr__(self, "_log_p_w", None)

    @property
    def log_factor(self) -> float:
        return float(self.log_threshold_density + self._limiting_log_mass()
                     - self.log_joint_mass)

    @property
    def log_eta(self) -> float:
        if self.spec is None:
            return self.log_factor
        p_sel = selection_probability(self.spec, self.settings)
        if p_sel <= 0.0:
            raise NumericalError("selection probability underflowed")
        return float(self.log_threshold_density - np.log(p_sel))

    @property
    def log_prob_ratio(self) -> float:
        return self.log_factor - self.log_eta

    @property
    def eta(self) -> float:
        return float(np.exp(self.log_eta))

    @property
    def prob_ratio(self) -> float:
        return float(np.exp(self.log_prob_ratio))

    def scalar_factor(self) -> float:
        return float(np.exp(self.log_factor))

    def truncated_limiting_moments(self) -> MomentReport:
        """``W``'s truncated moments, computed on first use and then shared."""
        if self.limiting is None:
            raise SpecError("no outcome block remains after conditioning")
        if self._report is None:
            object.__setattr__(self, "_report",
                               truncated_mean_cov(self.limiting, self.box, self.settings))
        return self._report

    def _limiting_log_mass(self) -> float:
        """``log P(W in B)``, computed on first use; 0 without an outcome block."""
        if self._log_p_w is None:
            log_mass = 0.0
            if self.limiting is not None:
                p_w = _report_box_mass(self._report, self.limiting, self.box)
                if p_w is None:
                    p_w, _ = rectangle_prob(self.limiting, self.box, self.settings)
                with np.errstate(divide="ignore"):
                    log_mass = float(np.log(p_w))
            object.__setattr__(self, "_log_p_w", log_mass)
        return self._log_p_w

    def expectation(self, kind: GKind = "one"):
        """Right-hand side of the identity for g in {1, y, y y'}."""
        if kind not in G_KINDS:
            raise SpecError(f"g kind must be one of {G_KINDS}")
        if kind == "one":
            return self.scalar_factor()
        if self.limiting is None:
            raise SpecError("only the constant g remains for a fully observed block")
        rep = self.truncated_limiting_moments()
        factor = self.scalar_factor()
        if kind == "mean":
            return factor * rep.require_mean()
        return factor * rep.require_second_moment()


def _report_box_mass(rep: Optional[MomentReport], limiting: EllipticalJoint,
                     tbox: TruncationBox) -> Optional[float]:
    """``P(W in B)`` from ``W``'s report where that is ``rectangle_prob``'s
    value bit for bit, else ``None``: without a report, where the report
    holds a coordinate, and where the box is a lattice call."""
    if rep is None or "out-of-bounds" in rep.method or "degenerate" in rep.method:
        return None
    if not _exact(int(np.count_nonzero(~tbox.both_infinite())), limiting.nu):
        return None
    return rep.prob_mass


def _as_spec(params: Union[SutParams, SelectionSpec]) -> SelectionSpec:
    if isinstance(params, SutParams):
        return build_selection(params)
    if isinstance(params, SelectionSpec):
        return params
    raise SpecError("expected SutParams or a SelectionSpec")


def _require_zero_threshold(spec: SelectionSpec):
    if spec.n_selection == 0:
        raise SpecError("censored identities need a selection block")
    if np.any(spec.selection_lower != 0.0) or np.any(np.isfinite(spec.selection_upper)):
        raise SpecError("censored identities hold for the selection rectangle [0, inf)^q")


def censored_factor(params: Union[SutParams, SelectionSpec],
                    tbox: Optional[TruncationBox],
                    settings: RectangleProbSettings = DEFAULT_SETTINGS,
                    ) -> CensoredFactor:
    """Factor of the censored-expectation identity for a truncated spec.

    The selection rectangle must be the positive orthant.  The factor is
    formed in log space as ``f_sel(0) * P(W in B) / P(aug)``, so extreme
    extensions only degrade the reported value, not the computation.
    Raises ``NumericalError`` when ``P(aug)`` underflows.
    """
    spec = _as_spec(params)
    _require_zero_threshold(spec)
    q = spec.n_selection

    if tbox is None:
        tbox = TruncationBox(np.full(spec.n_outcome, -np.inf),
                             np.full(spec.n_outcome, np.inf))
    p_aug, _ = rectangle_prob(spec.joint, spec.augmented_box(tbox), settings)
    if p_aug <= 0.0:
        raise NumericalError("mass of the augmented box underflowed")
    zero = np.zeros(q)
    log_f0 = log_density(spec.selection_marginal(), zero)
    limiting = conditional(spec.joint, np.arange(q), zero)
    return CensoredFactor(log_f0, float(np.log(p_aug)), spec, limiting, tbox, settings)


def censored_factor_conditional(params: Union[SutParams, SelectionSpec],
                                tbox: Optional[TruncationBox],
                                observed,
                                observed_values,
                                settings: RectangleProbSettings = DEFAULT_SETTINGS,
                                ) -> CensoredFactor:
    """Censored factor given exact values for part of the outcome block.

    Conditioning the joint on the observed coordinates produces another
    selection spec (same rectangle, reduced outcome block); the plain
    factor of that spec is the conditional identity.  Observing everything
    leaves only the scalar factor.
    """
    spec = _as_spec(params)
    _require_zero_threshold(spec)
    observed = np.atleast_1d(np.asarray(observed, dtype=int))
    values = np.atleast_1d(np.asarray(observed_values, dtype=float))
    if observed.size == 0:
        return censored_factor(spec, tbox, settings)
    if np.any(observed < 0) or np.any(observed >= spec.n_outcome):
        raise SpecError("observed index out of range for the outcome block")
    if values.size != observed.size:
        raise SpecError("observed values must match the observed index list")
    if tbox is not None:
        if tbox.dim != spec.n_outcome:
            raise SpecError("box dimension does not match the outcome block")
        lo = tbox.lower[observed]
        hi = tbox.upper[observed]
        if np.any(values < lo) or np.any(values > hi):
            raise SpecError("observed values fall outside their box slice")

    q = spec.n_selection
    cond_joint = conditional(spec.joint, q + observed, values)
    remaining = _complement(spec.n_outcome, observed)
    if remaining.size == 0:
        # Fully observed outcome: only the density-to-mass factor survives.
        sel_star = cond_joint
        log_f0 = log_density(sel_star, np.zeros(q))
        sel_box = TruncationBox(np.zeros(q), np.full(q, np.inf))
        p_sel, _ = rectangle_prob(sel_star, sel_box, settings)
        if p_sel <= 0.0:
            raise NumericalError("conditional selection mass underflowed")
        return CensoredFactor(log_f0, float(np.log(p_sel)), None, None, None, settings)
    sub_spec = SelectionSpec(cond_joint, q, remaining.size,
                             spec.selection_lower, spec.selection_upper)
    sub_box = tbox.subset(remaining) if tbox is not None else None
    return censored_factor(sub_spec, sub_box, settings)
