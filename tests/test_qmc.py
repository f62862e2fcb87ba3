"""The lattice kernel of ``rect_prob_qmc`` (four dimensions and up)."""

import multiprocessing
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import tse.qmc as qmc_mod
from tse.qmc import rect_prob_qmc


def _corr(d, seed):
    a = np.random.default_rng(seed).normal(size=(d, d + 2))
    c = a @ a.T / (d + 2)
    s = np.sqrt(np.diag(c))
    return c / np.outer(s, s)


_SCALES4 = np.array([1.0, 2.0, 0.5, 1.5])
_BOX4 = (np.array([-1.0, -1.5, -1.0, -2.0]), np.array([1.5, 2.0, 0.3, 1.0]))
_UPPER_OPEN5 = (np.array([-0.5, 0.2, -1.0, 0.0, -0.3]), np.full(5, np.inf))
_MIXED6 = (np.array([-np.inf, -1.0, -0.5, -np.inf, -2.0, 0.1]),
           np.array([1.0, np.inf, 1.5, 0.4, 2.0, np.inf]))

# (sigma, lower, upper, df, keyword settings) and the probability the
# kernel gave when it held every lattice point of a pass at once.
GOLDEN = {
    "normal-4d-box": ((_corr(4, 3) * np.outer(_SCALES4, _SCALES4),) + _BOX4 + (None, {}),
                      0.2298159378333965),
    "t7-5d-upper-open": ((_corr(5, 4),) + _UPPER_OPEN5 + (7.0, {}), 0.0631370814568742),
    "t7-5d-refined": ((_corr(5, 4),) + _UPPER_OPEN5
                      + (7.0, {"max_points": 3000, "target_abs_error": 1e-9}),
                      0.06313566972366493),
    "normal-4d-refined": ((_corr(4, 3) * np.outer(_SCALES4, _SCALES4),) + _BOX4
                          + (None, {"max_points": 2000, "target_abs_error": 1e-9}),
                          0.22981531371461952),
    "normal-6d-odd-points": ((_corr(6, 5),) + _MIXED6 + (None, {"max_points": 10_007}),
                             0.10834624552527233),
}


@pytest.mark.parametrize("case", GOLDEN, ids=str)
def test_golden_values(case):
    (sigma, lo, hi, df, kw), expected = GOLDEN[case]
    qmc_mod._CHI_CACHE.clear()
    p, _ = rect_prob_qmc(sigma, lo, hi, df, **kw)
    assert p == pytest.approx(expected, rel=1e-13, abs=0)


def test_golden_settings_cover_partial_blocks_and_refinement():
    assert any(kw.get("max_points", 20_000) % qmc_mod._BLOCK
               for (*_, kw), _ in GOLDEN.values())
    for case in ("t7-5d-refined", "normal-4d-refined"):
        (sigma, lo, hi, df, kw), _ = GOLDEN[case]
        _, err = rect_prob_qmc(sigma, lo, hi, df, max_points=kw["max_points"])
        assert err > kw["target_abs_error"]


@pytest.mark.parametrize("df", [None, 7.0])
def test_refinement_extends_the_first_pass(df):
    # A Kronecker sequence is extensible: the refined call at N points is
    # the unrefined call at 4N points, up to the order of the sums.
    sigma, (lo, hi) = _corr(5, 4), _UPPER_OPEN5
    n = 2500
    refined, _ = rect_prob_qmc(sigma, lo, hi, df, max_points=n, target_abs_error=1e-12)
    full, _ = rect_prob_qmc(sigma, lo, hi, df, max_points=4 * n)
    assert abs(refined - full) <= 1e-15


def test_fixed_seed_repeats_exactly():
    sigma, (lo, hi) = _corr(5, 4), _UPPER_OPEN5
    first = rect_prob_qmc(sigma, lo, hi, 7.0, target_abs_error=1e-9)
    qmc_mod._CHI_CACHE.clear()
    assert rect_prob_qmc(sigma, lo, hi, 7.0, target_abs_error=1e-9) == first


def test_high_dimensional_orthant_memory():
    # Holding every lattice point of the refinement at once peaked at 623 MB.
    d = 40
    sigma = 0.5 * np.eye(d) + 0.5
    tracemalloc.start()
    try:
        p, err = rect_prob_qmc(sigma, np.zeros(d), np.full(d, np.inf),
                               target_abs_error=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert abs(p - 1.0 / (d + 1)) <= err


def test_refinement_extends_the_chi_table(monkeypatch):
    # The refinement computes chi factors only for points 3001 .. 12000, and
    # the longer table replaces the shorter one in the cache.
    evals = []
    gammaincinv = qmc_mod.gammaincinv
    monkeypatch.setattr(qmc_mod, "gammaincinv",
                        lambda a, u: evals.append(u.size) or gammaincinv(a, u))
    (sigma, lo, hi, df, kw), expected = GOLDEN["t7-5d-refined"]
    qmc_mod._CHI_CACHE.clear()
    p, _ = rect_prob_qmc(sigma, lo, hi, df, **kw)
    assert p == expected
    assert sum(evals) == 12 * 4 * kw["max_points"]
    assert [t.shape for t in qmc_mod._CHI_CACHE.values()] == [(12, 4 * kw["max_points"])]


# Refined calls that end in partial blocks, for both kernels and a cold chi
# table, split into shift groups of equal and unequal sizes.
POOL_CASES = {
    "normal-5d-refined": (_corr(5, 4),) + _UPPER_OPEN5
    + (None, {"max_points": 2500, "target_abs_error": 1e-12}),
    "t7-5d-refined": (_corr(5, 4),) + _UPPER_OPEN5
    + (7.0, {"max_points": 2500, "target_abs_error": 1e-12}),
    "t3-6d-odd-points": (_corr(6, 5),) + _MIXED6 + (3.0, {"max_points": 10_007}),
}


@pytest.mark.parametrize("case", POOL_CASES, ids=str)
def test_result_does_not_depend_on_the_cpu_count(case, monkeypatch):
    # These calls are below the threading threshold; lower it so that they
    # run in shift groups.
    monkeypatch.setattr(qmc_mod, "_THREAD_MIN_DIM", 1)
    sigma, lo, hi, df, kw = POOL_CASES[case]
    results = []
    for cpus in (1, 2, 5):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, k=cpus: set(range(k)),
                            raising=False)
        qmc_mod._CHI_CACHE.clear()
        results.append(rect_prob_qmc(sigma, lo, hi, df, **kw))
    assert qmc_mod._POOL_SIZE >= 4
    assert results[0] == results[1] == results[2]


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_lattice_call_in_forked_child(monkeypatch):
    # The child inherits the parent's pool object but none of its threads.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(qmc_mod, "_THREAD_MIN_DIM", 1)
    sigma, (lo, hi) = _corr(5, 4), _UPPER_OPEN5
    expected = rect_prob_qmc(sigma, lo, hi, 7.0, max_points=3000)
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    child = ctx.Process(
        target=lambda: queue.put(rect_prob_qmc(sigma, lo, hi, 7.0, max_points=3000)))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0
    assert queue.get() == expected


def test_only_calls_from_the_threshold_up_run_on_threads(monkeypatch):
    sizes = []
    run_groups = qmc_mod._run_groups
    monkeypatch.setattr(qmc_mod, "_run_groups",
                        lambda work, groups: sizes.append(len(groups)) or run_groups(work, groups))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    d = qmc_mod._THREAD_MIN_DIM
    rect_prob_qmc(_corr(d - 1, 6), np.zeros(d - 1), np.full(d - 1, np.inf), 7.0,
                  max_points=2048)
    rect_prob_qmc(_corr(d, 6), np.zeros(d), np.full(d, np.inf), max_points=2048)
    assert sizes == [1, 2]


def test_import_starts_no_thread():
    code = "import threading, tse.cli; print(threading.active_count())"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0
    assert run.stdout.strip() == "1"
