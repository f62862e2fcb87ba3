import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from tse.elliptical import RectangleProbSettings


def z_within(analytic, estimate, se, k=4.0):
    """True when every entry of |analytic - estimate| is within k standard errors."""
    a = np.asarray(analytic, dtype=float)
    e = np.asarray(estimate, dtype=float)
    s = np.maximum(np.asarray(se, dtype=float), 1e-300)
    return bool(np.all(np.abs(a - e) <= k * s))


def max_z(analytic, estimate, se):
    a = np.asarray(analytic, dtype=float)
    e = np.asarray(estimate, dtype=float)
    s = np.maximum(np.asarray(se, dtype=float), 1e-300)
    return float(np.max(np.abs(a - e) / s))


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def fast_settings():
    """Cheaper QMC budget for Monte Carlo comparisons where 1e-5 accuracy suffices."""
    return RectangleProbSettings(max_points=4000, num_shifts=8, seed=7,
                                 target_abs_error=1e-4)


class RectangleCount:
    """The rectangle probabilities that ``tse.truncated`` issues: its single
    calls of ``rect_prob_qmc`` and ``_uv_prob``, and every row of its stacked
    ``rect_probs`` calls, whose ``(rows, coordinates)`` shapes ``stacks``
    records in call order.  The marginal masses by which ``_held`` decides
    what to hold are left out, save the one a one-coordinate report takes
    over as its box mass."""

    def __init__(self):
        self.singles = 0
        self.stacks = []

    @property
    def total(self):
        return self.singles + sum(rows for rows, _ in self.stacks)

    def clear(self):
        self.singles = 0
        self.stacks.clear()


@pytest.fixture
def rectangles(monkeypatch):
    """Count the rectangle probabilities of the face recursion."""
    import tse.truncated

    count = RectangleCount()
    for name in ("rect_prob_qmc", "_uv_prob"):
        def single(*args, _real=getattr(tse.truncated, name), **kwargs):
            count.singles += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(tse.truncated, name, single)

    def stacked(corr, lower, upper, *args, _real=tse.truncated.rect_probs, **kwargs):
        count.stacks.append(lower.shape)
        return _real(corr, lower, upper, *args, **kwargs)

    def held(*args, _real=tse.truncated._held, **kwargs):
        singles = count.singles
        try:
            return _real(*args, **kwargs)
        finally:
            count.singles = singles

    def uv_report(*args, _real=tse.truncated._uv_report):
        count.singles += 1
        return _real(*args)

    monkeypatch.setattr(tse.truncated, "rect_probs", stacked)
    monkeypatch.setattr(tse.truncated, "_held", held)
    monkeypatch.setattr(tse.truncated, "_uv_report", uv_report)
    return count


@pytest.fixture
def moment_nodes(monkeypatch):
    """Weak references to every node of the face recursion built while the
    test runs."""
    import weakref

    import tse.truncated

    refs = []
    init = tse.truncated._Moments.__init__

    def recorded(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(tse.truncated._Moments, "__init__", recorded)
    return refs
