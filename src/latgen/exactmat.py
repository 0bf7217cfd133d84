"""Exact integer matrix algebra.

Everything here runs on Python's arbitrary-precision integers; no
floating point or rational arithmetic enters any computation.  Entry
magnitudes around 10**18 are routine (products of minors far exceed
machine words, which is why exactness is non-negotiable).

Four reductions answer every question: two eliminations over Z,
fraction-free Gauss-Jordan (``_bareiss_columns``: determinants,
adjugates, maximal minors and, beyond the closed-form shapes below, the
unimodularity decision) and the Smith form (``snf_with_transforms``:
quotient groups, from the row transform, and a parallelepiped's coset
map, from the column transform; in both, the divisors also decide full
rank), and, for the unimodularity decision only, the mod-2 XOR-basis
sieve (``_full_rank_mod2``) and the reduction modulo the minors' gcd
(``_generates_mod``).

The unimodularity decision (``unimodular_columns``) takes one of three
routes.  For m = n + 1 columns at n = 2..4 (the desk experiment's
shapes), a closed-form kernel (``_minors_gcd2`` .. ``_minors_gcd4``)
expands the n + 1 maximal minors over shared cofactors and returns their
gcd.  At n = 1 a gcd scan of the entries decides.  Everywhere else a
mod-2 rank sieve (``_full_rank_mod2``) rejects columns whose parities
span less than (Z/2)^n with bit operations alone (columns that generate
Z^n also generate (Z/2)^n), and the Bareiss elimination decides the
survivors.

A matrix is a plain sequence of its columns, each a sequence of Python
integers (lists or tuples); no kernel modifies its input.  The Smith
transforms and the scaled inverse come back as lists of rows, because
their callers apply them to vectors and read them by entry.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence


# ---------------------------------------------------------------------------
# Maximal minors and the unimodularity decision
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x a + y b = g.

    Half-extended: only the x sequence is carried, y is recovered at the
    end (requires b != 0).
    """
    x, next_x = 1, 0
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        g, next_g = next_g, g - q * next_g
    if g < 0:
        g, x = -g, -x
    return g, x, (g - x * a) // b


def _bareiss_columns(
    cols: Sequence[Sequence[int]], n: int
) -> tuple[int, list[int], list[list[int]]]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination over integer
    columns of length n, with column pivoting.

    Row k takes as pivot the first unused column whose row-k entry is
    nonzero.  Returns (D, pivots, others): pivots[k] is the index of row
    k's pivot column, D is the last pivot, the determinant of the pivot
    columns A_P taken in that order, and others holds every non-pivot
    column a_j, in input order, as D A_P^-1 a_j.  By Cramer's rule entry
    k of such a column is the maximal minor that puts a_j in place of
    pivot column k (same column order as D).  Every division is exact
    (Sylvester's identity), so all entries are minors of the input and
    never grow past Hadamard's bound.  D = 0 when a row has no pivot,
    that is when the columns have rank below n.  The input is not
    modified.
    """
    others = list(cols)
    index = list(range(len(cols)))
    pivots = []
    prev = 1
    for k in range(n):
        for t, pc in enumerate(others):
            if pc[k]:
                break
        else:
            return 0, pivots, others
        del others[t]
        pivots.append(index.pop(t))
        p = pc[k]
        updated = []
        for col in others:
            a = col[k]
            col = [(p * x - y * a) // prev for x, y in zip(col, pc)]
            col[k] = a
            updated.append(col)
        others = updated
        prev = p
    return prev, pivots, others


def unimodular_columns(cols: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the given columns (length n each) generate Z^n.

    Minor criterion: integer columns generate Z^n exactly when the gcd of
    their n x n minors is 1 (d_1...d_n of the Smith form).

    * m < n: False.  n = 1: a gcd scan.
    * m = n + 1 and n = 2..4: the closed-form kernel ``_MINORS_GCD[n]``
      computes all n + 1 maximal minors and the answer is their gcd == 1.
      The mod-2 sieve does not run here: on the desk matrices
      (C = 10^4, m = n + 1) sieve plus kernel cost 1.33, 2.34 and 4.72
      us per call at n = 2, 3, 4 against 0.54, 1.64 and 4.24 us for the
      kernel alone (BENCH_21.json), so the sieve costs more than it
      saves.  The unrolled cost grows as (n + 1) 2^n, so larger n take
      the elimination.
    * Otherwise (n >= 5, or m != n + 1), rank below n modulo 2
      (``_full_rank_mod2``): False, before any elimination.  Ahead of
      the Bareiss elimination the sieve rejected 35-41% of the desk
      matrices and shortened the mean decision at every n measured,
      2..12 (BENCH_19.json), so it runs wherever the elimination does.
    * Then one fraction-free elimination (``_bareiss_columns``) yields
      the minor D of the pivot columns (0: rank below n, False) and, in
      every other column a_j, the n minors that put a_j in place of one
      pivot column.  At m = n + 1 those are all n + 1 maximal minors, so
      the answer is gcd(D, ...) == 1, stopping as soon as the running
      gcd reaches 1.
    * m > n + 1: a gcd g of 1 still decides True.  Otherwise the columns
      are decided exactly modulo g by ``_generates_mod``: the pivot
      columns with one more column a_j span a lattice of index
      g_j = gcd(D, minors of a_j), which therefore contains g_j Z^n, so
      the span of all the columns contains g Z^n (g = gcd of the g_j)
      and generates Z^n exactly when it generates (Z/g)^n.  Entries
      there stay below g <= |D|.

    Integers only; every entry of the elimination and every kernel
    intermediate is a minor of the input, so nothing grows past
    Hadamard's bound.
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
    if m == n + 1 and n <= 4:
        return _MINORS_GCD[n](cols) == 1
    if not _full_rank_mod2(cols, n):
        return False
    d, _, others = _bareiss_columns(cols, n)
    if not d:
        return False
    g = abs(d)
    for col in others:
        for x in col:
            g = gcd(g, x)
            if g == 1:
                return True
    return g == 1 if m <= n + 1 else _generates_mod(cols, n, g)


def _minors_gcd2(cols: Sequence[Sequence[int]]) -> int:
    """gcd of the three 2 x 2 minors of three columns of length 2."""
    (a0, b0), (a1, b1), (a2, b2) = cols
    return gcd(a1 * b2 - a2 * b1, a0 * b2 - a2 * b0, a0 * b1 - a1 * b0)


def _minors_gcd3(cols: Sequence[Sequence[int]]) -> int:
    """gcd of the four 3 x 3 minors of four columns of length 3.

    Each minor is expanded along row 0 over the six 2 x 2 minors p_ij of
    rows 1 and 2, which the four share: 24 multiplications.
    """
    (a0, b0, c0), (a1, b1, c1), (a2, b2, c2), (a3, b3, c3) = cols
    p01 = b0 * c1 - b1 * c0
    p02 = b0 * c2 - b2 * c0
    p03 = b0 * c3 - b3 * c0
    p12 = b1 * c2 - b2 * c1
    p13 = b1 * c3 - b3 * c1
    p23 = b2 * c3 - b3 * c2
    return gcd(
        a1 * p23 - a2 * p13 + a3 * p12,
        a0 * p23 - a2 * p03 + a3 * p02,
        a0 * p13 - a1 * p03 + a3 * p01,
        a0 * p12 - a1 * p02 + a2 * p01,
    )


def _minors_gcd4(cols: Sequence[Sequence[int]]) -> int:
    """gcd of the five 4 x 4 minors of five columns of length 4.

    Cofactor expansion over shared minors: the ten 2 x 2 minors p_ij of
    rows 2 and 3, the ten 3 x 3 minors t_ijk of rows 1..3 (each along
    row 1), then the five 4 x 4 minors along row 0: 70 multiplications.
    """
    (a0, b0, c0, d0), (a1, b1, c1, d1), (a2, b2, c2, d2), (a3, b3, c3, d3), (
        a4, b4, c4, d4
    ) = cols
    p01 = c0 * d1 - c1 * d0
    p02 = c0 * d2 - c2 * d0
    p03 = c0 * d3 - c3 * d0
    p04 = c0 * d4 - c4 * d0
    p12 = c1 * d2 - c2 * d1
    p13 = c1 * d3 - c3 * d1
    p14 = c1 * d4 - c4 * d1
    p23 = c2 * d3 - c3 * d2
    p24 = c2 * d4 - c4 * d2
    p34 = c3 * d4 - c4 * d3
    t012 = b0 * p12 - b1 * p02 + b2 * p01
    t013 = b0 * p13 - b1 * p03 + b3 * p01
    t014 = b0 * p14 - b1 * p04 + b4 * p01
    t023 = b0 * p23 - b2 * p03 + b3 * p02
    t024 = b0 * p24 - b2 * p04 + b4 * p02
    t034 = b0 * p34 - b3 * p04 + b4 * p03
    t123 = b1 * p23 - b2 * p13 + b3 * p12
    t124 = b1 * p24 - b2 * p14 + b4 * p12
    t134 = b1 * p34 - b3 * p14 + b4 * p13
    t234 = b2 * p34 - b3 * p24 + b4 * p23
    return gcd(
        a1 * t234 - a2 * t134 + a3 * t124 - a4 * t123,
        a0 * t234 - a2 * t034 + a3 * t024 - a4 * t023,
        a0 * t134 - a1 * t034 + a3 * t014 - a4 * t013,
        a0 * t124 - a1 * t024 + a2 * t014 - a4 * t012,
        a0 * t123 - a1 * t023 + a2 * t013 - a3 * t012,
    )


# the closed-form kernels, by n, for m = n + 1 columns
_MINORS_GCD = (None, None, _minors_gcd2, _minors_gcd3, _minors_gcd4)


def _full_rank_mod2(cols: Sequence[Sequence[int]], n: int) -> bool:
    """True iff the columns reduced mod 2 span (Z/2)^n.

    Each column's parity bits are packed into one int and inserted into
    an XOR basis keyed by leading bit; the columns span exactly when the
    basis reaches n vectors.
    """
    basis = {}
    for col in cols:
        v = 0
        for x in col:
            v = v << 1 | x & 1
        while v:
            top = v.bit_length()
            if top not in basis:
                basis[top] = v
                if len(basis) == n:
                    return True
                break
            v ^= basis[top]
    return len(basis) == n


def _generates_mod(cols: Sequence[Sequence[int]], n: int, modulus: int) -> bool:
    """True iff the columns generate (Z/modulus)^n, modulus > 1.

    Row by row, a Bezout combination of the active columns reaches a row
    entry that is a unit modulo the modulus (none exists: the columns
    fail), is scaled to 1 and clears that row from the other columns.
    All entries are kept reduced into [0, modulus).
    """
    work = [[x % modulus for x in c] for c in cols]
    for i in range(n):
        combo = None
        g = 0
        for col in work:
            a = col[i]
            if not a or (g and a % g == 0):
                continue
            if combo is None:
                combo, g = col, a
            else:
                g, x, y = _xgcd(g, a)
                combo = [(x * u + y * v) % modulus for u, v in zip(combo, col)]
            if gcd(g, modulus) == 1:
                break
        else:
            return False
        inv = pow(g, -1, modulus)
        combo = [u * inv % modulus for u in combo]
        for t, col in enumerate(work):
            q = col[i]
            if q:
                work[t] = [(v - q * u) % modulus for v, u in zip(col, combo)]
    return True


# ---------------------------------------------------------------------------
# Determinant (Bareiss fraction-free elimination)
# ---------------------------------------------------------------------------


def det(columns: Sequence[Sequence[int]]) -> int:
    """Determinant of the square matrix given by its columns: the sign of
    the pivot order times the last pivot of one fraction-free elimination
    (``_bareiss_columns``); 1 for n = 0."""
    n = len(columns)
    if any(len(col) != n for col in columns):
        raise ValueError("determinant requires a square matrix")
    d, pivots, _ = _bareiss_columns(columns, n)
    return _permutation_sign(pivots) * d if d else 0


def _scaled_inverse(cols: Sequence[Sequence[int]], n: int) -> tuple[int, list[list[int]]]:
    """(|det V|, rows of T = |det V| V^-1) for the n x n integer matrix V
    with the given columns; (0, []) when V is singular.

    One fraction-free elimination of [V | I]: the identity columns come
    last, so they take a pivot only when V is singular; otherwise they end
    up as D (V P)^-1 for the pivot order P and the last pivot
    D = +-det V.  T = +-adj(V) is integral.
    """
    identity = [[int(i == j) for i in range(n)] for j in range(n)]
    d, pivots, inverse = _bareiss_columns(list(cols) + identity, n)
    if any(c >= n for c in pivots):
        return 0, []
    sign = 1 if d > 0 else -1
    rows = [None] * n
    for k, c in enumerate(pivots):
        rows[c] = [sign * col[k] for col in inverse]
    return abs(d), rows


def _permutation_sign(perm: Sequence[int]) -> int:
    """+1 or -1: the parity of a permutation of range(len(perm))."""
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        j = perm[start]
        seen[start] = True
        while not seen[j]:  # each further element of the cycle is one swap
            seen[j] = True
            j = perm[j]
            sign = -sign
    return sign


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


def snf_with_transforms(
    columns: Sequence[Sequence[int]], n: int
) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize the n x m matrix A given by its m columns (each of
    length n): U A V = diag(d_1..d_r, 0...).

    Returns (divisors, rows of U, rows of V); U is n x n, V is m x m, both
    unimodular.  The divisors are the invariant factors
    d_1 | d_2 | ... | d_r (zeros dropped, so the zero matrix yields an
    empty list), and d_1 ... d_k is the gcd of all k x k minors.
    """
    m = len(columns)
    if any(len(col) != n for col in columns):
        raise ValueError(f"columns must have length {n}")
    mat = [[col[i] for col in columns] for i in range(n)]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(m)] for i in range(m)]

    def row_op(i, k, q):  # row_i -= q * row_k, in A and U
        mi, mk, ui, uk = mat[i], mat[k], u[i], u[k]
        for t in range(m):
            mi[t] -= q * mk[t]
        for t in range(n):
            ui[t] -= q * uk[t]

    def col_op(j, k, q):  # col_j -= q * col_k, in A and V
        for row in mat + v:
            row[j] -= q * row[k]

    def select_pivot(t) -> bool:
        """Swap a minimal-magnitude nonzero of the trailing block into
        (t, t) and make it positive; False when the block is zero."""
        best = pos = None
        for i in range(t, n):
            for j in range(t, m):
                e = mat[i][j]
                if e and (best is None or -best < e < best):
                    best, pos = abs(e), (i, j)
        if pos is None:
            return False
        i, j = pos
        mat[t], mat[i] = mat[i], mat[t]
        u[t], u[i] = u[i], u[t]
        for row in mat + v:
            row[t], row[j] = row[j], row[t]
        if mat[t][t] < 0:
            mat[t] = [-x for x in mat[t]]
            u[t] = [-x for x in u[t]]
        return True

    t = 0
    limit = min(n, m)
    while t < limit:
        if not select_pivot(t):
            break
        while True:
            # one reduction sweep with symmetric quotients: remainders end
            # up in [-p/2, p/2], so re-selecting the global minimum at
            # least halves the pivot and entry growth stays tame
            p = mat[t][t]
            half = p // 2
            for i in range(t + 1, n):
                q = (mat[i][t] + half) // p
                if q:
                    row_op(i, t, q)
            for j in range(t + 1, m):
                q = (mat[t][j] + half) // p
                if q:
                    col_op(j, t, q)
            if any(mat[i][t] for i in range(t + 1, n)) or any(mat[t][t + 1 :]):
                select_pivot(t)
                continue
            # enforce divisibility of the trailing block by the pivot p
            culprit = next(
                (i for i in range(t + 1, n) if any(x % p for x in mat[i][t + 1 :])), None
            )
            if culprit is None:
                break
            row_op(t, culprit, -1)  # add the offending row to row t
        t += 1

    divisors = [mat[i][i] for i in range(limit) if i < t and mat[i][i]]
    return divisors, u, v
