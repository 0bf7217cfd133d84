"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (run with -s to watch them stream).

Tolerances are pinned here and nowhere else.  Where a criterion needs an
independent oracle (cofactor determinants, additive-closure generation,
minor gcds), the oracle lives in this file and shares no code with the
implementation it checks.
"""

import random
import time
from fractions import Fraction
from itertools import combinations

import numpy as np

from latgen.bounds import alpha, fullrank_lower_bound, ideal_probability, zeta, zeta_inv
from latgen.exactmat import det, snf_with_transforms, unimodular_columns
from latgen.experiments import (
    ExperimentConfig,
    run_coprime_table,
    run_fullrank_check,
    run_lemma_verification,
    run_tv_suite,
    run_unimodular_experiment,
)
from latgen.groupgen import abelian_groups_up_to, generation_prob_exact
from latgen.lattice import LatticeBasis
from oracles import generation_prob_bruteforce, matmul, transpose


def _cold_zeta_cache() -> None:
    """Time criteria 1-3 from an empty zeta cache, as a first call pays it."""
    zeta.cache_clear()
    zeta_inv.cache_clear()


def _report(num: int, name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f"  {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.1f}s){tail}")


# ---------------------------------------------------------------------------
# 1. ideal probability column (15 tabulated values, 4 decimals in percent)
# ---------------------------------------------------------------------------

IDEAL_TABLE_PERCENT = [
    "60.7927", "50.5739", "46.7272", "45.0631", "44.2949",
    "43.9281", "43.7497", "43.6620", "43.6187", "43.5971",
    "43.5864", "43.5810", "43.5784", "43.5770", "43.5764",
]


def test_criterion_01_ideal_probability_table():
    _cold_zeta_cache()
    start = time.time()
    ok = True
    worst = Fraction(0)
    for n, printed in enumerate(IDEAL_TABLE_PERCENT, start=1):
        enc = ideal_probability(n, n + 1) * 100
        target = Fraction(printed)
        deviation = abs(enc.mid - target)
        worst = max(worst, deviation)
        ok = ok and enc.hi - enc.lo < Fraction(1, 10**10) and deviation <= Fraction(1, 2 * 10**4)
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(1, "ideal-probability-table", ok, elapsed, f"worst dev {float(worst):.2e}")
    assert ok


# ---------------------------------------------------------------------------
# 2. full-rank lower-bound table (n = 1..7, 3 decimals)
# ---------------------------------------------------------------------------

FULLRANK_TABLE = ["0.666", "0.725", "0.812", "0.859", "0.883", "0.896", "0.905"]


def test_criterion_02_fullrank_table():
    _cold_zeta_cache()
    start = time.time()
    ok = True
    for n, printed in enumerate(FULLRANK_TABLE, start=1):
        enc = fullrank_lower_bound(n)
        ok = ok and abs(enc.mid - Fraction(printed)) <= Fraction(1, 1000)
        ok = ok and enc.hi - enc.lo < Fraction(1, 10**12)
    elapsed = time.time() - start
    ok = ok and elapsed < 1.0
    _report(2, "fullrank-lower-bound-table", ok, elapsed)
    assert ok


# ---------------------------------------------------------------------------
# 3. certified alpha_n lower bound >= 0.092 for n in 2..50
# ---------------------------------------------------------------------------


def test_criterion_03_alpha_floor():
    _cold_zeta_cache()
    start = time.time()
    floor = Fraction(92, 1000)
    lows = [alpha(n).lo for n in range(2, 51)]
    ok = all(lo >= floor for lo in lows)
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _report(3, "alpha-certified-floor", ok, elapsed, f"min lo {float(min(lows)):.4f}")
    assert ok


# ---------------------------------------------------------------------------
# 4. coprimality ratio: 13/22 at n = 10, unique minimum over [1, 1000]
# ---------------------------------------------------------------------------


def test_criterion_04_coprime_minimum():
    start = time.time()
    table = run_coprime_table(1000)
    ok = (
        table.rows[9].ratio == Fraction(13, 22)
        and Fraction(table.header["minimum"]) == Fraction(13, 22)
        and table.header["argmin"] == [10]
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 5.0
    _report(4, "coprime-minimum-13-22", ok, elapsed)
    assert ok


# ---------------------------------------------------------------------------
# 5. desk-scale reproduction of the empirical average column
# ---------------------------------------------------------------------------


def test_criterion_05_unimodular_experiment_desk_scale():
    start = time.time()
    cfg = ExperimentConfig(
        n_values=(1, 2, 3, 4),
        m_policy="n+1",
        C=10**4,
        reps=100,
        samples=10**4,
        seed=0,
    )
    reports = run_unimodular_experiment(cfg, workers=4)
    ok = True
    details = []
    for report in reports:
        mid = (report.ideal_lo + report.ideal_hi) / 2
        deviation = abs(float(report.average - mid))
        within = deviation <= 3 * report.radius
        details.append(f"n={report.n} dev={deviation:.4f}/{3 * report.radius:.4f}")
        ok = ok and within
    elapsed = time.time() - start
    ok = ok and elapsed < 600.0
    _report(5, "unimodular-desk-scale", ok, elapsed, " ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 6. square case: no unimodular n x n matrices to speak of
# ---------------------------------------------------------------------------


def test_criterion_06_square_case_collapse():
    start = time.time()
    cfg = ExperimentConfig(
        n_values=(2,), m_policy="n", C=10**4, reps=10, samples=10**4, seed=0
    )
    (report,) = run_unimodular_experiment(cfg)
    ok = report.average < Fraction(1, 1000)
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(
        6, "square-case-collapse", ok, elapsed, f"freq={float(report.average):.2e}"
    )
    assert ok


# ---------------------------------------------------------------------------
# 7. exact generation probability equals the exhaustive count
# ---------------------------------------------------------------------------


def test_criterion_07_group_oracle_equivalence():
    start = time.time()
    checked = 0
    ok = True
    for group in abelian_groups_up_to(200):
        for t in range(1, 4):
            if generation_prob_bruteforce(group, t) != generation_prob_exact(group, t):
                ok = False
            checked += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _report(7, "group-oracle-equivalence", ok, elapsed, f"{checked} pairs")
    assert ok


# ---------------------------------------------------------------------------
# 8. window counting bounds on the desk-scale lattice suite
# ---------------------------------------------------------------------------


def test_criterion_08_counting_bounds_suite():
    start = time.time()
    report = run_lemma_verification()
    ok = report.ok and len(report.rows) >= 20
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _report(8, "counting-bounds-suite", ok, elapsed, f"{len(report.rows)} lattices")
    assert ok


# ---------------------------------------------------------------------------
# 9. exact total variation against the closed-form bound
# ---------------------------------------------------------------------------


def test_criterion_09_tv_suite():
    start = time.time()
    report = run_tv_suite()
    worked = next(row for row in report.rows if row.name == "z1_mod2_101")
    ok = (
        report.ok
        and len(report.rows) >= 10
        and worked.tv_exact == Fraction(1, 202)
        and worked.tv_bound == Fraction(1, 34)
    )
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _report(9, "tv-distance-suite", ok, elapsed, f"{len(report.rows)} instances")
    assert ok


# ---------------------------------------------------------------------------
# 10. full-rank sampling frequency at the window threshold
# ---------------------------------------------------------------------------


def test_criterion_10_fullrank_frequency():
    start = time.time()
    from latgen.bounds import window_thresholds

    z2 = LatticeBasis([[1, 0], [0, 1]])
    skew = LatticeBasis([[1, 1], [0, 1]])
    ok = True
    details = []
    for name, lattice in (("z2", z2), ("skew", skew)):
        threshold = window_thresholds(2, lattice.nu_upper)[0]
        report = run_fullrank_check(lattice, threshold, trials=1500, seed=0, name=name)
        (row,) = report.rows
        floor = 0.5 - 3 * row.radius
        ok = ok and row.hypothesis_held and float(row.frequency) >= floor
        details.append(f"{name}: {float(row.frequency):.4f}>={floor:.3f}")
    elapsed = time.time() - start
    ok = ok and elapsed < 60.0
    _report(10, "fullrank-frequency", ok, elapsed, " ".join(details))
    assert ok


# ---------------------------------------------------------------------------
# 11. exact-matrix algebra at scale + closure-oracle agreement
# ---------------------------------------------------------------------------


def _closure_generates_zn(columns, n, entry_bound):
    """Additive-closure oracle for "columns generate Z^n".

    BFS over +-column steps inside the box of half-width 1 + n * max|entry|
    (a rearrangement bound keeps some path to any reachable unit vector
    inside that box), then check every standard basis vector was visited.
    """
    k = 1 + n * entry_bound
    d = 2 * k + 1
    steps = []
    for col in columns:
        steps.append(list(col))
        steps.append([-c for c in col])
    steps = np.array(steps, dtype=np.int64)
    weights = np.array([d ** (n - 1 - i) for i in range(n)], dtype=np.int64)
    visited = np.zeros(d**n, dtype=bool)
    origin = np.zeros((1, n), dtype=np.int64)
    visited[(origin + k) @ weights] = True
    target_flat = (np.eye(n, dtype=np.int64) + k) @ weights
    frontier = origin
    while frontier.shape[0]:
        cand = (frontier[:, None, :] + steps[None, :, :]).reshape(-1, n)
        cand = cand[(np.abs(cand) <= k).all(axis=1)]
        flat = (cand + k) @ weights
        flat = flat[~visited[flat]]
        if flat.size == 0:
            break
        flat = np.unique(flat)
        visited[flat] = True
        if visited[target_flat].all():
            return True
        coords = np.empty((flat.size, n), dtype=np.int64)
        rest = flat.copy()
        for i in range(n):
            coords[:, i] = rest // weights[i] - k
            rest = rest % weights[i]
        frontier = coords
    return bool(visited[target_flat].all())


def _minor_gcd_full(rows, k):
    from math import gcd

    n, m = len(rows), len(rows[0])
    g = 0
    for ri in combinations(range(n), k):
        for ci in combinations(range(m), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, _det_cofactor(sub))
    return g


def _det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total, sign = 0, 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += sign * rows[0][j] * _det_cofactor(minor)
        sign = -sign
    return total


def test_criterion_11_exact_matrix_suite():
    start = time.time()
    rng = random.Random(20240811)
    ok = True
    # normal-form invariants on large-entry matrices
    bound = 10**18
    for _ in range(10**4):
        n = rng.randint(1, 5)
        m = rng.randint(1, 5)
        a = [[rng.randint(-bound, bound) for _ in range(m)] for _ in range(n)]
        columns = transpose(a)
        divisors, u, v = snf_with_transforms(columns, n)
        diagonal = [
            [divisors[i] if i == j and i < len(divisors) else 0 for j in range(m)]
            for i in range(n)
        ]
        # det reads rows as columns: det(U^T) = det U
        if matmul(matmul(u, a), v) != diagonal or det(u) not in (-1, 1) or det(v) not in (-1, 1):
            ok = False
            break
        if any(b % s for s, b in zip(divisors, divisors[1:])):
            ok = False
            break
        if n == m:
            d = det(columns)
            if d:
                prod = 1
                for x in divisors:
                    prod *= x
                if prod != abs(d):
                    ok = False
                    break
    forms_elapsed = time.time() - start
    # closure-oracle agreement on 3 x m matrices, entries in [-5, 5]
    mismatches = 0
    for _ in range(10**4):
        m = rng.randint(1, 4)
        cols = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(m)]
        fast = unimodular_columns(cols, 3)
        if fast != _closure_generates_zn(cols, 3, 5):
            mismatches += 1
    ok = ok and mismatches == 0
    elapsed = time.time() - start
    ok = ok and elapsed < 300.0
    _report(
        11,
        "exact-matrix-suite",
        ok,
        elapsed,
        f"normal forms {forms_elapsed:.0f}s, closure mismatches {mismatches}",
    )
    assert ok
