"""Exact matrix algebra: examples plus randomized invariants.

Oracles used here are independent of the implementations they check:
cofactor expansion for determinants, gcd-of-minors for unimodularity and
Smith divisors, a Bezout row elimination for unimodularity, an
additive-closure search for "do these columns generate Z^n", and
Gaussian elimination over Fractions (``oracles``) for solves and rank.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from latgen.exactmat import (
    _bareiss_columns,
    _full_rank_mod2,
    _minors_gcd2,
    _minors_gcd3,
    _minors_gcd4,
    det,
    snf_with_transforms,
    unimodular_columns,
)
from latgen.lattice import LatticeBasis
from oracles import fraction_inverse, fraction_solve, matmul, rank_of_rows, transpose

# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def det_cofactor(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    sign = 1
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        total += sign * rows[0][j] * det_cofactor(minor)
        sign = -sign
    return total


def minors_gcd(rows, k):
    """gcd of all k x k minors (0 when every minor vanishes)."""
    n, m = len(rows), len(rows[0])
    g = 0
    for ri in combinations(range(n), k):
        for ci in combinations(range(m), k):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, det_cofactor(sub))
    return g


def generates_zn_closure(columns, n, step_bound):
    """Closure oracle: BFS over +-column steps inside a box.

    The box half-width is 1 + n * step_bound; a rearrangement argument
    guarantees any expressible target of sup-norm 1 is reachable through
    partial sums that never leave that box, so checking that every
    standard basis vector is visited decides generation exactly.
    """
    k = 1 + n * step_bound
    targets = set()
    for i in range(n):
        e = [0] * n
        e[i] = 1
        targets.add(tuple(e))
    steps = []
    for col in columns:
        steps.append(tuple(col))
        steps.append(tuple(-c for c in col))
    seen = {(0,) * n}
    frontier = [(0,) * n]
    found = set()
    while frontier:
        nxt = []
        for point in frontier:
            for step in steps:
                cand = tuple(p + s for p, s in zip(point, step))
                if cand in seen or any(abs(c) > k for c in cand):
                    continue
                seen.add(cand)
                if cand in targets:
                    found.add(cand)
                    if len(found) == len(targets):
                        return True
                nxt.append(cand)
        frontier = nxt
    return len(found) == len(targets)


def _xgcd(a, b):
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g (b != 0)."""
    x, next_x = 1, 0
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x = -g, -x
    return g, x, (g - x * a) // b


def _unimodular_by_rows(cols, n):
    """Row-elimination oracle for "the columns generate Z^n".

    Decides the HNF-pivots-all-one condition row by row: a Bezout
    combination of the active columns realizes the row gcd as a new
    pivot column (anything but 1 fails immediately), after which the row
    is eliminated from the rest.  Entries grow along the way, which is
    why the library decides from maximal minors instead.
    """
    m = len(cols)
    if m < n:
        return False
    if n == 1:
        g = 0
        for col in cols:
            g = gcd(g, col[0])
            if g == 1:
                return True
        return False
    work = [list(c) for c in cols]
    for i in range(n):
        # cheap necessary condition first: the row gcd is the HNF pivot
        g = 0
        for j in range(i, len(work)):
            v = work[j][i]
            if v:
                g = gcd(g, v)
                if g == 1:
                    break
        if g != 1:
            return False
        g = 0
        combo = None
        for j in range(i, len(work)):
            a = work[j][i]
            if not a:
                continue
            if combo is None:
                combo = work[j][i:]
                g = -a if a < 0 else a
                if g != a:
                    combo = [-u for u in combo]
                if g == 1:
                    break
                continue
            if a % g == 0:
                continue
            g, x, y = _xgcd(g, a)
            cj = work[j]
            combo = [x * u + y * cj[i + t] for t, u in enumerate(combo)]
            if g == 1:
                break
        if combo is None or g != 1:
            return False
        # row i of every active column dies; the combo becomes the pivot
        for j in range(i, len(work)):
            cj = work[j]
            q = cj[i]
            if q:
                for t in range(i, n):
                    cj[t] -= q * combo[t - i]
        work.insert(i, [0] * i + combo)
    return True


def random_matrix(rng, n, m, lo, hi):
    """Rows of an n x m matrix with entries uniform on [lo, hi]."""
    return [[rng.randint(lo, hi) for _ in range(m)] for _ in range(n)]


def identity(n):
    return [[int(i == j) for i in range(n)] for j in range(n)]


def test_kernels_take_tuple_columns_and_leave_input_unmodified():
    # the Smith form works in place, so the kernels must copy
    columns = [[4, 6], [2, 1], [0, 3]]
    snapshot = [list(col) for col in columns]
    results = (det(columns[:2]), snf_with_transforms(columns, 2))
    assert columns == snapshot
    tuples = tuple(tuple(col) for col in columns)
    assert (det(tuples[:2]), snf_with_transforms(tuples, 2)) == results


# ---------------------------------------------------------------------------
# determinant
# ---------------------------------------------------------------------------


def test_det_examples():
    assert det(identity(4)) == 1
    assert det(transpose([[2, 0], [0, 3]])) == 6
    assert det([]) == 1
    assert det([[-7]]) == -7
    assert det([[0]]) == 0
    assert det(transpose([[0, 1], [1, 0]])) == -1
    assert det(transpose([[0, 0, 2], [0, 3, 0], [5, 0, 0]])) == -30


def test_det_matches_cofactor_oracle():
    rng = random.Random(123)
    for _ in range(60):
        n = rng.randint(1, 5)
        a = random_matrix(rng, n, n, -10, 10)
        assert det(transpose(a)) == det_cofactor(a)


def test_det_pivot_order_and_singular_match_cofactor_oracle():
    """Sparse, permuted and rank-deficient matrices: pivots out of order
    (both signs of the permutation) and determinant 0."""
    rng = random.Random(321)
    signs = set()
    singular = 0
    for _ in range(400):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, 0, 1, -1, 2, -3)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:  # repeat a combination of rows
            i, j = rng.sample(range(n), 2)
            rows[i] = [rng.randint(-2, 2) * x for x in rows[j]]
        expected = det_cofactor(rows)
        assert det(transpose(rows)) == expected, rows
        d, pivots, _ = _bareiss_columns(transpose(rows), n)
        if expected:
            signs.add((pivots == sorted(pivots), expected * d > 0))
        else:
            singular += 1
    assert (False, False) in signs and (False, True) in signs
    assert singular > 50


def test_det_requires_square():
    with pytest.raises(ValueError):
        det(transpose([[1, 2, 3], [4, 5, 6]]))


# ---------------------------------------------------------------------------
# SNF
# ---------------------------------------------------------------------------


def test_snf_examples():
    assert snf_with_transforms(transpose([[2, 0], [0, 3]]), 2)[0] == [1, 6]
    assert snf_with_transforms(identity(4), 4)[0] == [1, 1, 1, 1]
    assert snf_with_transforms(transpose([[2, 0], [0, 2]]), 2)[0] == [2, 2]
    assert snf_with_transforms([[0, 0], [0, 0]], 2)[0] == []


def test_snf_random_invariants():
    rng = random.Random(987)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        a = random_matrix(rng, n, m, -12, 12)
        divisors, u, v = snf_with_transforms(transpose(a), n)
        assert all(d > 0 for d in divisors)
        for d1, d2 in zip(divisors, divisors[1:]):
            assert d2 % d1 == 0
        # U A V is the diagonal the divisors describe
        s = matmul(matmul(u, a), v)
        for i in range(n):
            for j in range(m):
                expected = divisors[i] if i == j and i < len(divisors) else 0
                assert s[i][j] == expected
        assert det(u) in (-1, 1)
        assert det(v) in (-1, 1)
        # gcd-of-minors characterization: prod(d_1..d_k) = gcd of k-minors
        prod = 1
        for k, d in enumerate(divisors, start=1):
            prod *= d
            assert prod == minors_gcd(a, k)
        if len(divisors) < min(n, m):
            assert minors_gcd(a, len(divisors) + 1) == 0


def test_snf_det_product():
    rng = random.Random(55)
    for _ in range(80):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -9, 9)
        d = det(transpose(a))
        if d == 0:
            continue
        prod = 1
        for x in snf_with_transforms(transpose(a), n)[0]:
            prod *= x
        assert prod == abs(d)


# ---------------------------------------------------------------------------
# unimodularity
# ---------------------------------------------------------------------------


def test_is_unimodular_examples():
    assert unimodular_columns(identity(3), 3)
    assert not unimodular_columns(transpose([[2, 0], [0, 2]]), 2)
    assert unimodular_columns(transpose([[1, 0, 2], [0, 1, 3]]), 2)
    # fewer columns than rows can never generate
    assert not unimodular_columns(transpose([[1], [0]]), 2)


def test_is_unimodular_agrees_with_minor_gcd():
    rng = random.Random(31415)
    for _ in range(400):
        n = rng.randint(1, 3)
        m = rng.randint(n, n + 2)
        a = random_matrix(rng, n, m, -6, 6)
        expected = minors_gcd(a, n) == 1
        assert unimodular_columns(transpose(a), n) == expected


def test_is_unimodular_agrees_with_closure_oracle():
    rng = random.Random(2718)
    for _ in range(150):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        cols = transpose(random_matrix(rng, n, m, -5, 5))
        expected = generates_zn_closure(cols, n, 5)
        assert unimodular_columns(cols, n) == expected


def test_unimodular_columns_matches_row_elimination_oracle():
    rng = random.Random(20260)
    checked = 0
    for bound in (6, 10**4, 10**18):
        for n in range(1, 7):
            for m in range(n, n + 4):
                # small n and m are cheap and hit every branch; fewer of
                # the large ones keep the oracle's entry growth affordable
                for _ in range(max(120, 700 - 100 * n)):
                    cols = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
                    assert unimodular_columns(cols, n) == _unimodular_by_rows(cols, n), (
                        n,
                        cols,
                    )
                    checked += 1
    assert checked >= 20000


def test_unimodular_columns_edge_cases():
    cases = [
        # singular leading 2 x 2 block, full rank overall
        ([[1, 0], [2, 0], [0, 1]], 2, True),
        ([[2, 0], [4, 0], [0, 1]], 2, False),
        ([[1, 1, 0], [2, 2, 0], [0, 0, 1], [0, 1, 0]], 3, True),
        # rank deficient
        ([[1, 2], [2, 4], [3, 6]], 2, False),
        ([[1, 0, 0], [0, 1, 0], [1, 1, 0], [2, 3, 0]], 3, False),
        # zero columns
        ([[0, 0], [1, 0], [0, 1]], 2, True),
        ([[0, 0], [0, 0], [0, 0]], 2, False),
        ([[0], [0]], 1, False),
        # fewer columns than rows
        ([[1, 0]], 2, False),
        ([], 1, False),
        # square: decided by the determinant alone
        ([[2, 1], [1, 1]], 2, True),
        ([[2, 0], [0, 1]], 2, False),
    ]
    for cols, n, expected in cases:
        assert unimodular_columns(cols, n) == expected, cols
        assert _unimodular_by_rows(cols, n) == expected, cols


@pytest.mark.parametrize("p", [2, 6, 10**18 + 9])
def test_unimodular_columns_generate_past_a_one_swap_gcd(p):
    # the groupgen shape: diag(p, p) next to the elements.  The pivot
    # columns are diag(p, p), so D = p^2 and every one-swap minor is 0 or
    # +-p: their gcd is p, yet the columns generate, which only the
    # modular path can tell
    cols = [[p, 0], [0, p], [1, 0], [0, 1]]
    d, pivots, others = _bareiss_columns(cols, 2)
    assert (d, pivots) == (p * p, [0, 1])
    assert gcd(d, *others[0], *others[1]) == p
    assert unimodular_columns(cols, 2)
    assert not unimodular_columns([[p, 0], [0, p], [1, 0], [0, p + p]], 2)
    assert unimodular_columns([[p, 0], [0, p], [1, 2], [1, 3]], 2)


def _sublattice_columns(rng, n, m, p):
    """m tuple columns U x with x_0 divisible by p, U a random unimodular
    matrix: they lie in a sublattice of index p, so they are rank
    deficient mod p, yet full rank over Q for most draws."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        q = rng.choice((-2, -1, 1, 2))
        u[i] = [a + q * b for a, b in zip(u[i], u[j])]
    cols = []
    for _ in range(m):
        x = [p * rng.randint(-3, 3)] + [rng.randint(-3, 3) for _ in range(n - 1)]
        cols.append(tuple(sum(row[k] * x[k] for k in range(n)) for row in u))
    return cols


@pytest.mark.parametrize("n", range(2, 7))
def test_unimodular_columns_mod2_sieve_matches_minor_gcd(n):
    # three kinds of n x m matrices, m = n+1 and n+2: random small entries;
    # full-rank columns that the mod-2 sieve rejects; and sieve survivors
    # that fail mod 3, which only the elimination can reject
    rng = random.Random(1211 + n)
    per_kind = max(4, 24 - 4 * n)
    cases = []
    for m in (n + 1, n + 2):
        for _ in range(per_kind):
            cases.append(("random", [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(m)]))
        for kind, p in (("even", 2), ("mod3", 3)):
            found = 0
            while found < per_kind:
                cols = _sublattice_columns(rng, n, m, p)
                survives = _full_rank_mod2(cols, n)
                if kind == "even":
                    assert not survives
                    if minors_gcd(transpose(cols), n) == 0:
                        continue  # rank deficient over Q as well
                elif not survives:
                    continue
                cases.append((kind, cols))
                found += 1
    decided = {kind: set() for kind in ("random", "even", "mod3")}
    for kind, cols in cases:
        snapshot = list(cols)
        expected = minors_gcd(transpose(cols), n) == 1
        assert unimodular_columns(cols, n) == expected, (kind, cols)
        assert cols == snapshot
        decided[kind].add(expected)
    assert decided == {"random": {False, True}, "even": {False}, "mod3": {False}}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_minors_gcd_kernels_match_minor_gcd_oracle(n):
    # the closed-form kernel returns the gcd of the n + 1 maximal minors
    # itself, so it is compared with the oracle's gcd, not just with 1
    kernel = {2: _minors_gcd2, 3: _minors_gcd3, 4: _minors_gcd4}[n]
    rng = random.Random(2113 + n)
    m = n + 1
    cases = []  # (kind, a divisor of the minors' gcd, columns)
    for bound in (1, 10**4, 10**18):
        for _ in range(150):
            cases.append(("bound", 1, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]))
    for p in (2, 3):
        for _ in range(60):
            cases.append((f"p={p}", p, _sublattice_columns(rng, n, m, p)))
    for zeros in range(1, m + 1):
        for _ in range(20):
            cols = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
            for j in rng.sample(range(m), zeros):
                cols[j] = [0] * n
            cases.append(("zero", 1, cols))
    seen = {kind: set() for kind in ("bound", "p=2", "p=3", "zero")}
    for kind, divisor, cols in cases:
        expected = minors_gcd(transpose(cols), n)
        assert expected % divisor == 0
        snapshot = [list(col) for col in cols]
        as_lists = [list(col) for col in cols]
        as_tuples = [tuple(col) for col in cols]
        assert kernel(as_lists) == expected, (kind, cols)
        assert kernel(as_tuples) == expected, (kind, cols)
        assert as_lists == snapshot and [list(col) for col in as_tuples] == snapshot
        seen[kind].add(min(expected, 2))  # 0: rank deficient, 1: generates
    assert seen["bound"] == {0, 1, 2}
    assert 2 in seen["p=2"] and 2 in seen["p=3"] and 0 in seen["zero"]


def test_bareiss_columns_yields_maximal_minors():
    rng = random.Random(1968)
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(n, n + 2)
        bound = rng.choice([2, 50, 10**18])
        cols = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]
        snapshot = [list(c) for c in cols]
        d, pivots, others = _bareiss_columns(cols, n)
        assert cols == snapshot
        if d == 0:
            assert minors_gcd(transpose(cols), n) == 0
            continue

        def minor(columns):
            return det_cofactor([[c[i] for c in columns] for i in range(n)])

        pivot_cols = [cols[j] for j in pivots]
        assert d == minor(pivot_cols)
        rest = [cols[j] for j in range(m) if j not in pivots]
        assert len(others) == len(rest) == m - n
        for col, eliminated in zip(rest, others):
            for k in range(n):
                swapped = pivot_cols[:k] + [col] + pivot_cols[k + 1 :]
                assert eliminated[k] == minor(swapped)


# ---------------------------------------------------------------------------
# integral solves (lattice coordinates) and the Fraction oracles
# ---------------------------------------------------------------------------


def test_solve_integral_examples():
    assert LatticeBasis([[1, 0], [0, 1]]).coordinates([3, 5]) == [3, 5]
    two = LatticeBasis([[2, 0], [0, 2]])
    assert two.coordinates([2, 4]) == [1, 2]
    with pytest.raises(ValueError, match="not a lattice point"):
        two.coordinates([1, 0])


def test_solve_integral_singular_raises():
    with pytest.raises(ValueError, match="singular"):
        LatticeBasis([[1, 2], [2, 4]])


def test_solve_integral_random_roundtrip():
    rng = random.Random(4711)
    for _ in range(100):
        n = rng.randint(1, 4)
        a = random_matrix(rng, n, n, -9, 9)
        if det(transpose(a)) == 0:
            continue
        x = [rng.randint(-20, 20) for _ in range(n)]
        v = [sum(a[i][j] * x[j] for j in range(n)) for i in range(n)]
        assert LatticeBasis(transpose(a)).coordinates(v) == x


def test_rational_inverse_and_solve():
    rng = random.Random(808)
    for _ in range(40):
        n = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(n)]
            for _ in range(n)
        ]
        inv = fraction_inverse(rows)
        if inv is None:
            assert rank_of_rows(rows) < n
            continue
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        product = [
            [sum(rows[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert product == identity
        rhs = [Fraction(rng.randint(-10, 10)) for _ in range(n)]
        x = fraction_solve(rows, rhs)
        assert [sum(r * y for r, y in zip(row, x)) for row in rows] == rhs


def test_rank_of_rows():
    for rows, rank in [
        ([[1, 0], [0, 1]], 2),
        ([[1, 2], [2, 4]], 1),
        ([], 0),
        ([[0, 0, 0]], 0),
        ([[Fraction(1, 2), 0, 0], [0, 1, 0], [1, 2, 0]], 2),
    ]:
        assert rank_of_rows(rows) == rank
