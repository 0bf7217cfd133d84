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
since the exact covering radius is never needed.

A basis B is held as the integer matrix S = q B (q the least common
denominator of its entries) together with |det S| and the integer matrix
T = |det S| S^-1, both from one fraction-free elimination; coordinates
(which refuse vectors outside the lattice) and the inverse rows used to
size search boxes are integer arithmetic on these.

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
from math import ceil, floor, isqrt, lcm
from operator import mul
from typing import Optional, Sequence, Union

from .enclosure import half_power, sqrt_enclosure
from .exactmat import _scaled_inverse

_ENUM_GUARD = 10**7
_BOX_GUARD = 5 * 10**7


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
        afresh on each read (``nu_upper``, its one reader, is cached)."""
        n = self.dim
        gram = _int_gram(self._scaled_rows)
        qq = self._scale * self._scale
        # initial bound: the shortest basis column
        best = min(
            Fraction(_quadform(gram, [int(i == j) for i in range(n)]), qq)
            for j in range(n)
        )
        radii = self._coordinate_radii(best)
        box = 1
        for r in radii:
            box *= 2 * r + 1
        if box > 2 * 10**6:
            raise ValueError(f"shortest-vector search box too large ({box})")
        for c in itertools.product(*(range(-r, r + 1) for r in radii)):
            if not any(c):
                continue
            value = Fraction(_quadform(gram, list(c)), qq)
            if value < best:
                best = value
        return best

    def _coordinate_radii(self, norm_sq_bound: Fraction) -> list[int]:
        """Integer radii r_i with |c_i| <= r_i for every lattice vector of
        squared norm <= norm_sq_bound (via rows of the inverse basis
        B^-1 = scale * T / |det S|)."""
        factor = Fraction(self._scale**2, self._scaled_det**2) * norm_sq_bound
        return [
            isqrt(ceil(sum(t * t for t in row) * factor)) + 1
            for row in self._adjugate
        ]

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


def _ellipsoid_rows(gram: list[list[int]], bound: int):
    """The integer points w with w G w <= bound (G an integer positive
    definite Gram matrix), one row at a time: yields (outer, ts) for each
    outer point w_1..w_(n-1) over which the ellipsoid holds a point, ts the
    range of the last coordinates t with Q(outer, t) <= bound.

    With a = G_nn and b = the sum of G_nj w_j, Q(outer, t) = a t^2 + 2 b t
    + Q(outer, 0), so the t range is a root pair solved with ``isqrt``.
    Its discriminant is a * bound - H(outer), H = a G' - g g^T the integer
    Schur complement of a (G' = G without row and column n, g = the rest
    of row n), so the outer points are exactly those of the ellipsoid
    H <= a * bound, walked the same way.
    """
    n = len(gram)
    a = gram[-1][-1]
    g = gram[-1][:-1]
    if n == 1:
        outers = [()]
    else:
        schur = [[a * x - gi * gj for x, gj in zip(row, g)] for row, gi in zip(gram, g)]
        outers = (
            (*head, t) for head, ts in _ellipsoid_rows(schur, a * bound) for t in ts
        )
    for outer in outers:
        b = sum(map(mul, g, outer))
        root = isqrt(a * bound - a * _quadform(gram, [*outer, 0]) + b * b)
        yield outer, range(-((b + root) // a), (root - b) // a + 1)


def covering_radius_estimate(lattice: LatticeBasis, grid_resolution: int) -> Fraction:
    """Grid under-estimate of the covering radius (n <= 3 only).

    Takes the farthest grid point of a fundamental domain from the
    lattice; distances are exact and the final square root rounds down,
    so the value never exceeds the true covering radius and converges to
    it from below as the resolution grows.

    In units of 1/(scale * res), the lattice points lie at the vectors w
    with every w_i divisible by res, so the squared distance from grid
    point g to its nearest lattice point is the least Q(w) = w G w over
    the integer vectors w = g (mod res), G the integer Gram matrix.  Each
    class has a centred representative in the box [-(res // 2),
    (res - 1) // 2]^n, and Q is convex, so Q is at most its largest corner
    value ``bound`` on the whole box: the box lies inside the ellipsoid
    Q <= bound, and so does each class's minimum.  One walk over the
    integer points of that ellipsoid (``_ellipsoid_rows``), keeping the
    least Q per class, therefore finds every distance exactly.
    """
    n = lattice.dim
    if n > 3:
        raise ValueError("grid estimate supported only for n <= 3")
    if grid_resolution < 1:
        raise ValueError("resolution must be >= 1")
    res = grid_resolution
    gram = _int_gram(lattice._scaled_rows)
    corners = itertools.product((-(res // 2), (res - 1) // 2), repeat=n)
    bound = max(_quadform(gram, list(c)) for c in corners)
    a = gram[-1][-1]
    least = [bound] * res**n
    for outer, ts in _ellipsoid_rows(gram, bound):
        b = sum(map(mul, gram[-1], outer))
        rest = _quadform(gram, [*outer, 0])
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
        when the box holds more than 5 * 10^7 candidates."""
        size = 1
        for lo, hi in self.box:
            size *= hi - lo + 1
        if size > _BOX_GUARD:
            raise ValueError(f"enumeration coordinate box too large ({size})")
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

    Guarded to n <= 4 and a predicted point count of at most 10^7; the
    guards raise instead of truncating, since a silent cut would corrupt
    the counting checks built on top of this.
    """
    cell = window_cell(lattice, bound)
    n = lattice.dim
    if n > 4:
        raise ValueError("enumeration guarded to n <= 4")
    predicted = (bound + 2 * lattice.nu_upper) ** n / lattice.det
    if predicted > _ENUM_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: predicted count {float(predicted):.3g}"
        )
    return cell.points()


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
