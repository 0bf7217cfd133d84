"""Reference implementations the tests compare the library against.

Exact Gaussian elimination over ``Fraction`` (solve, inverse, rank)
checks the library's integer elimination kernels, ``matmul`` checks
their normal-form transforms, an exhaustive tuple count (with its own
Hermite basis) checks the closed-form group generation probabilities,
and the totient summatory carries the coprime pair counts.
``contains_enclosure`` checks that a coarser enclosure nests a finer one,
and ``zeta_hat`` encloses the infinite product the ideal probabilities
decrease to.
``lattice_point`` maps the integer basis coordinates the library returns
to rational points, ``lambda1_sq_by_box`` finds a shortest lattice
vector by scanning the coefficient box ``coordinate_radii`` gives,
``parallelepiped_cell`` gives a parallelepiped's
integer points as a half-open cell, independent of the Smith form the
coset sampler uses, and ``box_rejection_sample`` samples a half-open
cell by rejection from its bounding box.
"""

import itertools
from fractions import Fraction
from math import floor, isqrt, lcm, prod

from latgen.bounds import PRECISION, totients, zeta_inv
from latgen.enclosure import Enclosure
from latgen.exactmat import _scaled_inverse
from latgen.lattice import HalfOpenCell


def fraction_solve(rows, rhs):
    """Solve rows @ x = rhs by Gaussian elimination over Fractions; None
    when the matrix is singular."""
    n = len(rows)
    aug = [[Fraction(e) for e in rows[i]] + [Fraction(rhs[i])] for i in range(n)]
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if aug[i][k]), None)
        if pivot_row is None:
            return None
        aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
        pk = aug[k][k]
        for i in range(k + 1, n):
            if aug[i][k]:
                factor = aug[i][k] / pk
                for j in range(k, n + 1):
                    aug[i][j] -= factor * aug[k][j]
    x = [Fraction(0)] * n
    for k in range(n - 1, -1, -1):
        s = aug[k][n] - sum(aug[k][j] * x[j] for j in range(k + 1, n))
        x[k] = s / aug[k][k]
    return x


def fraction_inverse(rows):
    """Rows of the inverse of a square rational matrix; None when singular."""
    n = len(rows)
    cols = []
    for j in range(n):
        x = fraction_solve(rows, [int(i == j) for i in range(n)])
        if x is None:
            return None
        cols.append(x)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def fraction_det(rows):
    """Determinant by elimination over Fractions (row swaps flip the sign)."""
    work = [[Fraction(e) for e in row] for row in rows]
    n = len(work)
    result = Fraction(1)
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if work[i][k]), None)
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != k:
            work[k], work[pivot_row] = work[pivot_row], work[k]
            result = -result
        result *= work[k][k]
        for i in range(k + 1, n):
            factor = work[i][k] / work[k][k]
            for j in range(k, n):
                work[i][j] -= factor * work[k][j]
    return result


def rank_of_rows(rows):
    """Exact rank by Gaussian elimination over Fractions on a copy."""
    work = [[Fraction(e) for e in row] for row in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    col = 0
    while rank < len(work) and col < ncols:
        pivot_row = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if pivot_row is None:
            col += 1
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pv = work[rank][col]
        for i in range(rank + 1, len(work)):
            if work[i][col]:
                f = work[i][col] / pv
                for j in range(col, ncols):
                    work[i][j] -= f * work[rank][j]
        rank += 1
        col += 1
    return rank


def matmul(a, b):
    """Rows of the product of two integer matrices given by their rows."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(matrix):
    """Columns of a matrix given by its rows, or rows of one given by its
    columns (at least one of each)."""
    return [list(line) for line in zip(*matrix)]


def lattice_point(columns, coords):
    """The point B c of the basis with the given rational columns."""
    point = [Fraction(0)] * len(columns)
    for col, c in zip(columns, coords):
        point = [p + c * Fraction(e) for p, e in zip(point, col)]
    return tuple(point)


def coordinate_radii(gram, bound):
    """Radii r_i with |c_i| <= r_i for every integer vector c with
    c G c <= bound, G a positive definite Gram matrix: by Cauchy-Schwarz
    in the inner product G, c_i^2 <= bound * (G^-1)_ii, over the exact
    inverse."""
    inverse = fraction_inverse(gram)
    return [isqrt(floor(bound * inverse[i][i])) for i in range(len(gram))]


def lambda1_sq_by_box(columns, max_box=2 * 10**6):
    """Squared length of a shortest nonzero vector of the lattice with the
    given rational basis columns, by scanning every coefficient vector in
    the ``coordinate_radii`` box of the shortest column's squared length;
    None when that box holds more than ``max_box`` points."""
    columns = [[Fraction(e) for e in col] for col in columns]
    scale = lcm(*(e.denominator for col in columns for e in col))
    scaled = [[int(e * scale) for e in col] for col in columns]
    gram = [[sum(map(int.__mul__, u, v)) for v in scaled] for u in scaled]
    best = min(gram[i][i] for i in range(len(gram)))
    radii = coordinate_radii(gram, best)
    if prod(2 * r + 1 for r in radii) > max_box:
        return None
    for c in itertools.product(*(range(-r, r + 1) for r in radii)):
        if any(c):
            best = min(best, sum(x * y * e for x, row in zip(c, gram) for y, e in zip(c, row)))
    return Fraction(best, scale * scale)


def generation_prob_bruteforce(group, t: int) -> Fraction:
    """Exhaustive count of generating t-tuples over all |G|^t tuples.

    Counts by walking tuple prefixes and merging prefixes that span the
    same subgroup (the subgroup is kept as a canonical Hermite basis), so
    the count is exactly the naive enumeration's without repeating
    identical continuations.  Guarded to |G|^t <= 10^7 nominal tuples.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    order = group.order
    if order**t > 10**7:
        raise ValueError(f"brute force guard exceeded: |G|^t = {order ** t}")
    k = group.ngens
    if k == 0:
        return Fraction(1)
    if t < k:
        return Fraction(0)

    diag_cols = []
    for i, d in enumerate(group.invariant_factors):
        col = [0] * k
        col[i] = d
        diag_cols.append(col)

    def canonical(extra_cols):
        return _hermite_basis([list(c) for c in extra_cols] + diag_cols, k)

    identity_key = canonical(
        [[1 if i == j else 0 for i in range(k)] for j in range(k)]
    )
    start_key = canonical([])
    elements = [list(e) for e in group.elements()]

    levels = {start_key: 1}
    for _ in range(t):
        nxt = {}
        for key, count in levels.items():
            base_cols = [list(col) for col in key]
            for g in elements:
                new_key = canonical(base_cols + [g])
                nxt[new_key] = nxt.get(new_key, 0) + count
        levels = nxt
    return Fraction(levels.get(identity_key, 0), order**t)


def _hermite_basis(cols, k):
    """The pivot columns of the column Hermite form of integer columns of
    length k, as a tuple key: a canonical basis of the lattice they span.
    Pivots are positive with strictly increasing pivot rows, and entries
    left of a pivot are reduced into [0, pivot).  Works on the given
    lists in place."""
    m = len(cols)
    r = 0
    for i in range(k):
        while True:  # gcd-eliminate row i across columns r..m-1
            nz = [j for j in range(r, m) if cols[j][i]]
            if len(nz) <= 1:
                break
            j0 = min(nz, key=lambda j: abs(cols[j][i]))
            for j in nz:
                q = cols[j][i] // cols[j0][i]
                if j != j0 and q:
                    cols[j] = [x - q * y for x, y in zip(cols[j], cols[j0])]
        if not nz:
            continue
        cols[r], cols[nz[0]] = cols[nz[0]], cols[r]
        if cols[r][i] < 0:
            cols[r] = [-x for x in cols[r]]
        for j in range(r):  # reduce row i of earlier pivots into [0, pivot)
            q = cols[j][i] // cols[r][i]
            cols[j] = [x - q * y for x, y in zip(cols[j], cols[r])]
        r += 1
    return tuple(tuple(col) for col in cols[:r])


def contains_enclosure(outer, inner) -> bool:
    """True when the enclosure ``outer`` contains all of ``inner``."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def zeta_hat():
    """Enclosure of prod_{i>=2} zeta(i)^-1, rounded outward on the
    10**-(PRECISION+8) grid.

    Factors beyond the cutoff M multiply to something in
    [1 - 2^(1-M), 1], since each lies in [1 - 2^(1-i), 1].
    """
    grid_digits = PRECISION + 8
    cutoff = 2
    while Fraction(1, 2 ** (cutoff - 1)) >= Fraction(1, 10 ** (grid_digits + 1)):
        cutoff += 1
    acc = Enclosure.exact(1)
    for i in range(2, cutoff + 1):
        acc = (acc * zeta_inv(i)).round_outward(grid_digits)
    return acc * Enclosure(1 - Fraction(1, 2 ** (cutoff - 1)), 1)


def totient_summatory(n: int) -> int:
    """Exact sum_{k=1}^{n} phi(k)."""
    return sum(totients(n)[1:])


def parallelepiped_cell(generators):
    """The integer points of V [0,1)^n, V the generator columns, as the
    half-open cell with rows T = |det V| V^-1 (one elimination of
    [V | I]), limit |det V| and G = V, so its box comes from V's rows."""
    limit, rows = _scaled_inverse(generators, len(generators))
    if limit == 0:
        raise ValueError("degenerate parallelepiped: generators are dependent")
    return HalfOpenCell(rows, limit, list(zip(*generators)))


def box_rejection_sample(cell, rng, count):
    """``count`` uniform integer points of a half-open cell by rejection
    from its box, one scalar candidate at a time: candidate coordinate i
    takes draw index cursor + i, and rejected candidates are skipped.  On
    parallelepipeds this is the "splitmix64-ctr-v1" sample stream, the one
    before coset sampling."""
    out = []
    while len(out) < count:
        base = rng.draw_cursor
        rng.draw_cursor += len(cell.box)
        z = tuple(
            lo + rng.draw_below(hi - lo + 1, base + i) for i, (lo, hi) in enumerate(cell.box)
        )
        if cell.contains(z):
            out.append(z)
    return out
