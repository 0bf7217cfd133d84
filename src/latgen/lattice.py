"""Full-rank lattices with exact rational bases.

A lattice is held by an n x n nonsingular column basis B.  Between the
modules, a lattice point is its integer coordinate vector c (the point
is B c): window enumeration and window sampling return coordinate
tuples, hyperplane counts and quotient projections take them, and the
generation question is decided on them, since lattice vectors generate
the lattice exactly when their coordinates generate Z^n.  The span of
some basis columns is, in these coordinates, a coordinate subspace, so a
hyperplane count only tests which coordinates are 0.  Rational
vectors are converted to coordinates only at the edges, by
``LatticeBasis.coordinates``.

Everything is exact, and the covering-radius machinery only ever
produces one-sided bounds (a certified upper bound from the closed form,
a grid under-estimate for the lower side of the window-count bracket),
since the exact covering radius is never needed.  Both search short
vectors the same way: one walk over the integer points of an ellipsoid
w G w <= bound, G the integer Gram matrix (``_ellipsoid_rows``), finds
the shortest vector the closed form needs and each grid point's nearest
lattice point.  No search has a dimension limit: each refuses by a bound
on its own work, every walk in ``_schur_chain`` (``_WALK_GUARD``) and
window enumeration by its coordinate box (``_BOX_GUARD``, in
``HalfOpenCell.points``), which holds every point of the window, so it
needs no covering radius.

A basis B is held as the integer matrix S = q B (q the least common
denominator of its entries) together with |det S| and the integer matrix
T = |det S| S^-1, both from one fraction-free elimination; coordinates
(which refuse vectors outside the lattice) and the rows of B^-1 that box
a window's coordinates are integer arithmetic on these.

A window [0, B)^n, n the lattice's dimension, is passed as its bound B
(an int or Fraction; B <= 0 raises).  In basis coordinates it is one
half-open cell (``HalfOpenCell``, built by ``window_cell``): the integer
points z with 0 <= (R z)_i < L for an integer matrix R and L > 0, which
are the integer points of the parallelotope G [0, 1)^n with G = L R^-1.
Enumeration and the window sampler decide membership on the same R and L
in integer arithmetic.  A parallelepiped needs no cell: it is sampled
through its Smith form (``sampling.Parallelepiped``).
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from functools import cached_property
from math import ceil, floor, isqrt, lcm, prod
from operator import mul
from typing import Optional, Sequence, Union

from .enclosure import half_power, sqrt_enclosure
from .exactmat import _scaled_inverse

_BOX_GUARD = 10**7
_WALK_GUARD = 2 * 10**6


def vectors_from_json(value, what: str) -> list[list[Fraction]]:
    """Exact vectors from decoded JSON: a list of lists whose entries are
    JSON integers or strings ("3", "-2/7", "0.1").  Anything else (floats,
    booleans, null, strings that are not rationals such as "x" or "1/0",
    other shapes) raises ValueError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(v, list) for v in value):
        raise ValueError(f"{what} must be a JSON list of vectors")

    def exact(e) -> Fraction:
        if isinstance(e, bool) or not isinstance(e, (int, str)):
            raise ValueError(f"{what} entry {json.dumps(e)} is not a JSON integer or string")
        try:
            return Fraction(e)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"{what} entry {json.dumps(e)} is not a rational number") from None

    return [[exact(e) for e in vec] for vec in value]


class LatticeBasis:
    """Full-rank lattice spanned by n rational column vectors of length n."""

    def __init__(self, columns: Sequence[Sequence]):
        columns = tuple(tuple(Fraction(x) for x in col) for col in columns)
        n = len(columns)
        if n < 1:
            raise ValueError("dimension must be >= 1")
        if any(len(col) != n for col in columns):
            raise ValueError("basis matrix must be square")
        scale = lcm(*(x.denominator for col in columns for x in col))
        scaled_cols = [[int(x * scale) for x in col] for col in columns]
        d, adjugate = _scaled_inverse(scaled_cols, n)
        if d == 0:
            raise ValueError("basis is singular")
        self.columns = columns
        self._scale = scale
        self._scaled_rows = [list(row) for row in zip(*scaled_cols)]
        # T = |det S| S^-1, so B^-1 = scale * T / |det S|
        self._adjugate = adjugate
        self._scaled_det = d
        self.det = Fraction(d, scale**n)

    @classmethod
    def from_json(cls, text: str) -> "LatticeBasis":
        """Load {"n": int, "basis": [[...], ...], "column_major": bool}.

        Entries are JSON integers or strings ("p/q" or decimal), so
        rationals load exactly (``vectors_from_json``);
        column_major defaults to true.  Any other key or shape raises
        ValueError.
        """
        obj = json.loads(text)
        if not isinstance(obj, dict) or "basis" not in obj:
            raise ValueError('lattice JSON must be an object with "n" and "basis"')
        unknown = set(obj) - {"n", "basis", "column_major"}
        if unknown:
            raise ValueError(f"unknown lattice keys: {sorted(unknown)}")
        n = obj.get("n")
        if isinstance(n, bool) or not isinstance(n, int):
            raise ValueError(f'lattice "n" must be a JSON integer, not {json.dumps(n)}')
        column_major = obj.get("column_major", True)
        if not isinstance(column_major, bool):
            raise ValueError('lattice "column_major" must be true or false')
        vectors = vectors_from_json(obj["basis"], "lattice basis")
        if len(vectors) != n or any(len(v) != n for v in vectors):
            raise ValueError("basis shape does not match n")
        if not column_major:
            vectors = list(zip(*vectors))
        return cls(vectors)

    @property
    def dim(self) -> int:
        return len(self.columns)

    def _coordinate_numerators(self, vector: Sequence) -> tuple[list[int], int]:
        """(u, d) with the basis coordinates of the vector equal to u / d."""
        if len(vector) != self.dim:
            raise ValueError("dimension mismatch")
        vector = [Fraction(x) for x in vector]
        den = lcm(*(x.denominator for x in vector))
        w = [x.numerator * (den // x.denominator) * self._scale for x in vector]
        u = [sum(t * x for t, x in zip(row, w)) for row in self._adjugate]
        return u, self._scaled_det * den

    def coordinates(self, vector: Sequence) -> list[int]:
        """Integer basis coordinates of a lattice vector; raises when the
        vector is not in the lattice (that always signals a caller bug)."""
        u, d = self._coordinate_numerators(vector)
        if any(x % d for x in u):
            raise ValueError(f"vector {tuple(vector)} is not a lattice point")
        return [x // d for x in u]

    # -- invariants ----------------------------------------------------------

    @cached_property
    def nu_upper(self) -> Fraction:
        return covering_radius_upper(self)

    @property
    def lambda1_sq(self) -> Fraction:
        """Exact squared length of a shortest nonzero vector, searched
        afresh on each read (``nu_upper``, its one reader, is cached).

        The shortest basis column has Q = min diag(G), G the integer Gram
        matrix of the scaled basis, so a shortest vector lies in the
        ellipsoid Q <= min diag(G): lambda1^2 is the least nonzero Q of its
        walk (``_ellipsoid_rows``), over scale^2; ``_schur_chain`` refuses
        a walk too large before it starts.
        """
        gram = _int_gram(self._scaled_rows)
        chain = _schur_chain(gram, min(row[i] for i, row in enumerate(gram)))
        a = gram[-1][-1]
        least = min(
            (a * t + 2 * b) * t + rest
            for outer, ts, b, rest in _ellipsoid_rows(chain)
            for t in ts
            if t or any(outer)
        )
        return Fraction(least, self._scale**2)

    def __repr__(self) -> str:
        return f"LatticeBasis({[[str(e) for e in col] for col in self.columns]!r})"


def _int_gram(rows: list[list[int]]) -> list[list[int]]:
    n = len(rows)
    cols = [[rows[i][j] for i in range(n)] for j in range(n)]
    return [
        [sum(x * y for x, y in zip(cols[i], cols[j])) for j in range(n)]
        for i in range(n)
    ]


def _quadform(gram: list[list[int]], c: list[int]) -> int:
    n = len(c)
    total = 0
    for i in range(n):
        ci = c[i]
        if ci:
            row = gram[i]
            total += ci * sum(row[j] * c[j] for j in range(n))
    return total


# ---------------------------------------------------------------------------
# covering radius bounds
# ---------------------------------------------------------------------------


def covering_radius_upper(lattice: LatticeBasis) -> Fraction:
    """Closed-form upper bound (1/2) n^(n/2+1) det / lambda1^(n-1).

    Irrational powers are replaced by outward-rounded rational bounds, so
    the result is always a valid upper bound.
    """
    n = lattice.dim
    n_power = half_power(n, n + 2, 30).hi
    lam_power = half_power(lattice.lambda1_sq, n - 1, 30).lo
    if lam_power <= 0:
        raise ArithmeticError("shortest vector bound underflowed")
    return Fraction(1, 2) * n_power * lattice.det / lam_power


def _schur_chain(gram: list[list[int]], bound: int) -> list[tuple[list[list[int]], int]]:
    """The levels of the walk over the integer points w with w G w <= bound
    (G an integer positive definite Gram matrix): [(G, bound), (H, a *
    bound), ...] down to a 1 x 1 matrix, each H = a G' - g g^T the integer
    Schur complement of the last pivot a = G_nn of the level before it
    (G' = G without row and column n, g = the rest of row n).  The one
    walk guard: raises ValueError when ``_walk_size`` exceeds 2 * 10^6."""
    chain = [(gram, bound)]
    while len(gram) > 1:
        a, g = gram[-1][-1], gram[-1][:-1]
        gram = [[a * x - gi * gj for x, gj in zip(row, g)] for row, gi in zip(gram, g)]
        bound *= a
        chain.append((gram, bound))
    size = _walk_size(chain)
    if size > _WALK_GUARD:
        raise ValueError(f"ellipsoid walk too large ({size})")
    return chain


def _walk_size(chain: list[tuple[list[list[int]], int]]) -> int:
    """The product over the levels of c = 2 isqrt(beta // a) + 3, beta the
    level's bound and a its last pivot: a bound on the rows and points
    ``_ellipsoid_rows(chain)`` visits, which ``_schur_chain`` checks first.

    Over an outer point w, a level's row holds the t with a t^2 + 2 b t +
    Q(w, 0) <= beta, that is (a t + b)^2 <= a beta - H(w) <= a beta, since
    the next level's H(w) = a Q(w, 0) - b^2 is >= 0.  So t lies in an
    interval of length 2 sqrt(beta / a) < 2 (m + 1), m = isqrt(beta // a)
    (as beta / a < beta // a + 1 <= (m + 1)^2), which holds at most
    2 m + 2 = c - 1 integers.  The innermost level has one row, over the
    empty point, and each point of a level is one row of the level outside
    it, so the k-th level from the inside holds at most
    D_k = (c_1 - 1) ... (c_k - 1) points.  The walk visits that one row
    and the points of every level (the other rows being those points), at
    most 1 + D_1 + ... + D_n: some of the nonnegative terms of the
    expanded product (1 + (c_1 - 1)) ... (1 + (c_n - 1)).
    """
    return prod(2 * isqrt(bound // gram[-1][-1]) + 3 for gram, bound in chain)


def _ellipsoid_rows(chain: list[tuple[list[list[int]], int]]):
    """The integer points w with w G w <= bound, (G, bound) = chain[0] and
    chain from ``_schur_chain``, one row at a time: yields (outer, ts, b,
    rest) for each integer outer point w_1..w_(n-1) whose line of last
    coordinates meets the ellipsoid, with Q(outer, t) = (a t + 2 b) t + rest for a = G_nn, b = the
    sum of G_nj w_j and rest = Q(outer, 0), and ts the range of the last
    coordinates t with Q(outer, t) <= bound.

    The t range is a root pair solved with ``isqrt``.  Its discriminant
    is a * bound - H(outer), H the next level's Schur complement, so the
    outer points are exactly those of the ellipsoid H <= a * bound,
    walked the same way.
    """
    (gram, bound), inner = chain[0], chain[1:]
    a, g = gram[-1][-1], gram[-1][:-1]
    outers = [()]
    if inner:
        outers = ((*head, t) for head, ts, _, _ in _ellipsoid_rows(inner) for t in ts)
    for outer in outers:
        b = sum(map(mul, g, outer))
        rest = _quadform(gram, [*outer, 0])
        root = isqrt(a * (bound - rest) + b * b)
        yield outer, range(-((b + root) // a), (root - b) // a + 1), b, rest


def covering_radius_estimate(lattice: LatticeBasis, grid_resolution: int) -> Fraction:
    """Grid under-estimate of the covering radius, in any dimension.

    Takes the farthest grid point of a fundamental domain from the
    lattice; distances are exact and the final square root rounds down,
    so the value never exceeds the true covering radius and converges to
    it from below as the resolution grows.

    In units of 1/(scale * res), the lattice points lie at the vectors w
    with every w_i divisible by res, so the squared distance from grid
    point g to its nearest lattice point is the least Q(w) = w G w over
    the integer vectors w = g (mod res), G the integer Gram matrix.  Each
    class has a centred representative in the box [-(res // 2),
    (res - 1) // 2]^n, where every |w_i| <= res // 2, so
    Q(w) = sum G_ij w_i w_j <= (res // 2)^2 sum |G_ij| = ``bound`` on the
    whole box: the box lies inside the ellipsoid Q <= bound, and so does
    each class's minimum.  (With every G_ij >= 0 the bound is Q at the
    corner -(res // 2) (1, ..., 1), the largest value on the box.)  One
    walk over the integer points of that ellipsoid (``_ellipsoid_rows``),
    keeping the least Q per class, therefore finds every distance
    exactly.  It walks the box's res^n points, so res^n <= ``_walk_size``:
    the walk guard, passed before the table of res^n least values is
    made, bounds it too.
    """
    if grid_resolution < 1:
        raise ValueError("resolution must be >= 1")
    n, res = lattice.dim, grid_resolution
    gram = _int_gram(lattice._scaled_rows)
    bound = (res // 2) ** 2 * sum(abs(g) for row in gram for g in row)
    chain = _schur_chain(gram, bound)
    a = gram[-1][-1]
    least = [bound] * res**n
    for outer, ts, b, rest in _ellipsoid_rows(chain):
        base = 0
        for x in outer:
            base = base * res + x % res
        base *= res
        for t in ts:
            key = base + t % res
            q = (a * t + 2 * b) * t + rest
            if q < least[key]:
                least[key] = q
    max_dist_sq = Fraction(max(least), (lattice._scale * res) ** 2)
    return sqrt_enclosure(max_dist_sq, 25).lo


# ---------------------------------------------------------------------------
# half-open cells and enumeration
# ---------------------------------------------------------------------------


class HalfOpenCell:
    """The integer points z with 0 <= (R z)_i < L for every row i of R:
    those of the half-open parallelotope G [0, 1)^n, G = L R^-1.

    ``box`` holds inclusive ranges covering coordinate i of every point,
    from row i of G (given by the caller, since G need not be integral).
    """

    __slots__ = ("rows", "limit", "box")

    def __init__(
        self,
        rows: Sequence[Sequence[int]],
        limit: int,
        generator_rows: Sequence[Sequence[Union[int, Fraction]]],
    ):
        self.rows = rows
        self.limit = limit
        self.box = []
        for row in generator_rows:
            # coordinate i of G a, a in [0, 1)^n, covers the real range from
            # the sum of the negative entries of row i to the sum of the
            # positive ones; an end is attained only where it is 0
            lo = sum(min(g, 0) for g in row)
            hi = sum(max(g, 0) for g in row)
            lo_int, hi_int = ceil(lo), floor(hi)
            self.box.append((lo_int + (lo_int == lo < 0), hi_int - (hi_int == hi > 0)))

    def contains(self, z: Sequence[int]) -> bool:
        limit = self.limit
        for row in self.rows:
            u = sum(map(mul, row, z))
            if u < 0 or u >= limit:
                return False
        return True

    def points(self) -> list[tuple[int, ...]]:
        """Every integer point of the cell, in lexicographic order; raises
        when the box holds more than 10^7 candidates."""
        size = 1
        for lo, hi in self.box:
            size *= hi - lo + 1
        if size > _BOX_GUARD:
            raise ValueError(f"enumeration guard exceeded: coordinate box too large ({size})")
        ranges = (range(lo, hi + 1) for lo, hi in self.box)
        return list(filter(self.contains, itertools.product(*ranges)))


def _window_bound(bound: Union[int, Fraction]) -> Fraction:
    """The bound B of the window [0, B)^n as a Fraction; B <= 0 raises."""
    bound = Fraction(bound)
    if bound <= 0:
        raise ValueError("window bound must be positive")
    return bound


def window_cell(lattice: LatticeBasis, bound: Union[int, Fraction]) -> HalfOpenCell:
    """The coordinates c of the lattice points B c of the window [0, B)^n.

    B c lies in [0, num/den)^n exactly when 0 <= (den S c)_i < num q, so
    R = den S, L = num q and G = (num/den) B^-1, whose rows are positive
    multiples of the rows of T.
    """
    bound = _window_bound(bound)
    per_unit = bound * Fraction(lattice._scale, lattice._scaled_det)
    return HalfOpenCell(
        [[bound.denominator * e for e in row] for row in lattice._scaled_rows],
        bound.numerator * lattice._scale,
        [[per_unit * t for t in row] for row in lattice._adjugate],
    )


def enumerate_window(lattice: LatticeBasis, bound: Union[int, Fraction]) -> list[tuple[int, ...]]:
    """Coordinates c of all lattice points B c in the window [0, B)^n,
    B = ``bound``, in lexicographic order.

    Guarded by the one bound on its own work, a coordinate box of at most
    10^7 candidates: the box holds every point, so it also bounds the
    returned list.  The guard raises instead of truncating, since a silent
    cut would corrupt the counting checks built on top of this.
    """
    return window_cell(lattice, bound).points()


def count_in_hyperplane(
    lattice: LatticeBasis,
    support: Sequence[int],
    points: Sequence[Sequence[int]],
) -> int:
    """Count the lattice points B c, given by their coordinates c as
    ``enumerate_window`` returns them, that lie in the span of the basis
    columns with indices in ``support`` (1 <= k < n distinct indices).

    In basis coordinates that span is the coordinate subspace on
    ``support``, so B c lies in it exactly when every c_j with j outside
    ``support`` is 0.
    """
    n = lattice.dim
    chosen = set(support)
    if not chosen or not chosen < set(range(n)) or len(chosen) != len(support):
        raise ValueError(f"support must be 1 <= k < {n} distinct indices in 0..{n - 1}")
    outside = [j for j in range(n) if j not in chosen]
    return sum(1 for c in points if not any(c[j] for j in outside))


def lemma1_bounds(
    lattice: LatticeBasis, bound: Union[int, Fraction], nu_lower: Union[int, Fraction]
) -> tuple[Fraction, Fraction]:
    """Two-sided prediction for |lattice ∩ [0, B)^n|: the lower side uses a
    covering-radius under-estimate, the upper side the cached upper bound."""
    b = _window_bound(bound)
    n = lattice.dim
    nu_lower = Fraction(nu_lower)
    if b <= 2 * nu_lower:
        raise ValueError("window too small: need B > 2 * covering radius")
    lower = (b - 2 * nu_lower) ** n / lattice.det
    upper = (b + 2 * lattice.nu_upper) ** n / lattice.det
    return lower, upper


def lemma2_count_bound(lattice: LatticeBasis, bound: Union[int, Fraction], k: int) -> Fraction:
    """Upper bound n^(k/2) (B + 2 nu)^k (2 nu)^(n-k) / det for the number
    of points of [0, B)^n in any k-dimensional hyperplane (nu = upper bound)."""
    n = lattice.dim
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    nu = lattice.nu_upper
    b = _window_bound(bound)
    return half_power(n, k, 30).hi * (b + 2 * nu) ** k * (2 * nu) ** (n - k) / lattice.det
