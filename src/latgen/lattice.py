"""Full-rank lattices with exact rational bases.

A lattice is held by an n x n nonsingular column basis.  Everything is
exact: membership, enumeration and rank tests run on integers after
clearing denominators, and the covering-radius machinery only ever
produces one-sided bounds (a certified upper bound from the closed form,
a grid under-estimate for the lower side of the window-count bracket),
since the exact covering radius is never needed.

Window membership is half-open throughout: a point belongs to [0, B)^n
when every coordinate satisfies 0 <= y_i < B under exact comparison.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from math import isqrt, lcm
from typing import Optional, Sequence, Union

import numpy as np

from .enclosure import sqrt_enclosure
from .exactmat import (
    ExactMatrix,
    RationalMatrix,
    hnf,
    rank_of_rows,
    unimodular_columns,
)

_ENUM_GUARD = 10**7
_BOX_GUARD = 5 * 10**7
_INT64_GUARD = 1 << 62


def _floor(x: Fraction) -> int:
    return x.numerator // x.denominator


def _ceil(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


class Window:
    """The half-open cube [0, B)^n."""

    __slots__ = ("dim", "bound")

    def __init__(self, dim: int, bound: Union[int, Fraction]):
        bound = Fraction(bound)
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        if bound <= 0:
            raise ValueError("window bound must be positive")
        self.dim = dim
        self.bound = bound

    def __repr__(self) -> str:
        return f"Window(dim={self.dim}, bound={self.bound})"


class LatticeBasis:
    """Full-rank lattice spanned by the columns of a rational matrix."""

    def __init__(self, basis: RationalMatrix):
        if basis.rows != basis.cols:
            raise ValueError("basis matrix must be square")
        if basis.rows < 1:
            raise ValueError("dimension must be >= 1")
        d = basis.det()
        if d == 0:
            raise ValueError("basis is singular")
        self.basis = basis
        self.det = abs(d)
        self._inverse: Optional[RationalMatrix] = None
        self._lambda1_sq: Optional[Fraction] = None
        self._nu_upper: Optional[Fraction] = None
        # integer form: scaled = denominator * basis, entries integral
        denom = 1
        for e in basis.entries:
            denom = denom * e.denominator // _gcd(denom, e.denominator)
        self._scale = denom
        self._scaled_rows = [
            [int(e * denom) for e in row] for row in basis.to_rows()
        ]

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence]) -> "LatticeBasis":
        return cls(RationalMatrix.from_columns(columns))

    @classmethod
    def from_json(cls, text: str) -> "LatticeBasis":
        """Load {"n": int, "basis": [[...], ...], "column_major": bool}.

        Entries are strings ("p/q" or decimal) so exactness survives the
        round trip; column_major defaults to true.
        """
        obj = json.loads(text)
        n = obj["n"]
        vectors = [[Fraction(e) for e in vec] for vec in obj["basis"]]
        if len(vectors) != n or any(len(v) != n for v in vectors):
            raise ValueError("basis shape does not match n")
        if obj.get("column_major", True):
            return cls(RationalMatrix.from_columns(vectors))
        return cls(RationalMatrix.from_rows(vectors))

    def to_json(self) -> str:
        return json.dumps(
            {
                "n": self.dim,
                "basis": [[str(e) for e in col] for col in self.basis.columns()],
                "column_major": True,
            }
        )

    @property
    def dim(self) -> int:
        return self.basis.rows

    @property
    def inverse(self) -> RationalMatrix:
        if self._inverse is None:
            self._inverse = self.basis.inverse()
        return self._inverse

    def coordinates_rational(self, vector: Sequence) -> list[Fraction]:
        return self.inverse.apply([Fraction(x) for x in vector])

    def coordinates(self, vector: Sequence) -> list[int]:
        """Integer basis coordinates of a lattice vector; raises when the
        vector is not in the lattice (that always signals a caller bug)."""
        coords = self.coordinates_rational(vector)
        if any(c.denominator != 1 for c in coords):
            raise ValueError(f"vector {tuple(vector)} is not a lattice point")
        return [c.numerator for c in coords]

    def contains(self, vector: Sequence) -> bool:
        return all(c.denominator == 1 for c in self.coordinates_rational(vector))

    def point_from_coordinates(self, coords: Sequence[int]) -> tuple[Fraction, ...]:
        return tuple(
            Fraction(sum(row[j] * coords[j] for j in range(self.dim)), self._scale)
            for row in self._scaled_rows
        )

    # -- cached invariants ---------------------------------------------------

    @property
    def lambda1_sq(self) -> Fraction:
        """Exact squared length of a shortest nonzero vector."""
        if self._lambda1_sq is None:
            self._lambda1_sq = self._shortest_vector_sq()
        return self._lambda1_sq

    @property
    def nu_upper(self) -> Fraction:
        if self._nu_upper is None:
            self._nu_upper = covering_radius_upper(self)
        return self._nu_upper

    def _shortest_vector_sq(self) -> Fraction:
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
        squared norm <= norm_sq_bound (via rows of the inverse basis)."""
        radii = []
        for row in self.inverse.to_rows():
            row_norm_sq = sum(e * e for e in row)
            q = row_norm_sq * norm_sq_bound
            radii.append(isqrt(_ceil(q)) + 1)
        return radii

    def __repr__(self) -> str:
        return f"LatticeBasis({self.basis!r})"


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return abs(a)


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
    digits = 30
    # n^(n/2 + 1) = n^((n+2)/2)
    if n % 2 == 0:
        n_power = Fraction(n ** ((n + 2) // 2))
    else:
        n_power = n ** ((n + 1) // 2) * sqrt_enclosure(n, digits).hi
    lam_sq = lattice.lambda1_sq
    if (n - 1) % 2 == 0:
        lam_power = lam_sq ** ((n - 1) // 2)
    else:
        lam_power = lam_sq ** ((n - 2) // 2) * sqrt_enclosure(lam_sq, digits).lo
    if lam_power <= 0:
        raise ArithmeticError("shortest vector bound underflowed")
    return Fraction(1, 2) * n_power * lattice.det / lam_power


def covering_radius_estimate(lattice: LatticeBasis, grid_resolution: int) -> Fraction:
    """Grid under-estimate of the covering radius (n <= 3 only).

    Takes the farthest grid point of a fundamental domain from the
    lattice; distances are exact and the final square root rounds down,
    so the value never exceeds the true covering radius and converges to
    it from below as the resolution grows.

    All res^n grid points are searched at once.  In units of 1/(scale *
    res), grid point g lies at w0 = g - res * round(g / res) from its
    rounded lattice point and at w0 - res * o from the one o further on.
    One box of offsets o, sized from the largest starting distance, holds
    every lattice point that can be nearest to any grid point, so the
    minimum over it is the exact distance.  The squared distances are
    integers, kept in int64 only when a bound on their size rules out
    overflow and in Python integers (object arrays) otherwise.
    """
    n = lattice.dim
    if n > 3:
        raise ValueError("grid estimate supported only for n <= 3")
    if grid_resolution < 1:
        raise ValueError("resolution must be >= 1")
    res = grid_resolution
    gram = _int_gram(lattice._scaled_rows)
    qq_res = (lattice._scale * res) ** 2
    # each w0_i ranges over the integers of [-(res // 2), (res - 1) // 2];
    # the quadratic form is convex, so its maximum there sits at a corner
    corners = itertools.product((-(res // 2), (res - 1) // 2), repeat=n)
    start_max = max(_quadform(gram, list(c)) for c in corners)
    radii = lattice._coordinate_radii(Fraction(start_max, qq_res))
    # |w_i| < res * (r_i + 1) = w_bound, so no partial sum of w G w
    # reaches n^2 * max|G| * w_bound^2
    w_bound = res * (max(radii) + 1)
    g_max = max(abs(x) for row in gram for x in row)
    exact_int64 = n * n * g_max * w_bound * w_bound < _INT64_GUARD
    dtype = np.int64 if exact_int64 else object
    g = np.indices((res,) * n).reshape(n, -1).T
    w0 = (g - res * (2 * g >= res)).astype(dtype)
    gram_np = np.array(gram, dtype=dtype)
    best = None
    for offs in itertools.product(*(range(-r, r + 1) for r in radii)):
        w = w0 - res * np.array(offs, dtype=dtype)
        dist = ((w @ gram_np) * w).sum(axis=1)
        best = dist if best is None else np.minimum(best, dist)
    max_dist_sq = Fraction(int(best.max()), qq_res)
    return sqrt_enclosure(max_dist_sq, 25).lo


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _coordinate_ranges(lattice: LatticeBasis, window: Window) -> list[range]:
    inv_rows = lattice.inverse.to_rows()
    b = window.bound
    ranges = []
    for row in inv_rows:
        lo = b * sum(min(e, 0) for e in row)
        hi = b * sum(max(e, 0) for e in row)
        ranges.append(range(_ceil(lo), _floor(hi) + 1))
    return ranges


def enumerate_window(lattice: LatticeBasis, window: Window) -> list[tuple[Fraction, ...]]:
    """All lattice points in [0, B)^n, in lexicographic coordinate order.

    Guarded to n <= 4 and a predicted point count of at most 10^7; the
    guards raise instead of truncating, since a silent cut would corrupt
    the counting checks built on top of this.
    """
    q = lattice._scale
    return [
        tuple(Fraction(y, q) for y in ys) for ys in _window_scaled(lattice, window)
    ]


def _window_scaled(lattice: LatticeBasis, window: Window) -> list[tuple[int, ...]]:
    """The points of ``enumerate_window`` times the basis scale, as integers."""
    n = lattice.dim
    if window.dim != n:
        raise ValueError("window dimension mismatch")
    if n > 4:
        raise ValueError("enumeration guarded to n <= 4")
    predicted = (window.bound + 2 * lattice.nu_upper) ** n / lattice.det
    if predicted > _ENUM_GUARD:
        raise ValueError(
            f"enumeration guard exceeded: predicted count {float(predicted):.3g}"
        )
    ranges = _coordinate_ranges(lattice, window)
    box = 1
    for r in ranges:
        box *= len(r)
    if box > _BOX_GUARD:
        raise ValueError(f"enumeration coordinate box too large ({box})")
    rows = lattice._scaled_rows
    num, den = window.bound.numerator, window.bound.denominator
    limit = num * lattice._scale
    out = []
    for c in itertools.product(*ranges):
        ok = True
        ys = []
        for row in rows:
            y = sum(row[j] * c[j] for j in range(n))
            if y < 0 or y * den >= limit:
                ok = False
                break
            ys.append(y)
        if ok:
            out.append(tuple(ys))
    return out


def count_in_hyperplane(
    lattice: LatticeBasis,
    window: Window,
    spanning: Sequence[Sequence],
    scaled_points: Optional[Sequence[Sequence[int]]] = None,
) -> int:
    """Count lattice points of the window lying in the span of the given
    vectors (k = len(spanning), 1 <= k < n).

    The span is cut out by integer normals: the kernel columns of the
    Hermite form of the spanning rows (denominators cleared).  A window
    point lies in the span exactly when its scaled integer coordinates
    are orthogonal to every normal.  ``scaled_points`` takes the window's
    points as ``_window_scaled`` returns them, so a caller counting many
    spans enumerates the window once; they are enumerated when omitted.
    """
    k = len(spanning)
    n = lattice.dim
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n spanning vectors")
    rows = []
    for v in spanning:
        v = [Fraction(x) for x in v]
        d = lcm(*(x.denominator for x in v))
        rows.append([int(x * d) for x in v])
    h, u = hnf(ExactMatrix.from_rows(rows))
    # A @ U = H with the zero columns of H last: the matching columns of U
    # are an integer basis of {x : A x = 0}
    if sum(1 for col in h.columns() if any(col)) != k:
        raise ValueError("spanning set is not independent")
    normals = u.columns()[k:]
    if scaled_points is None:
        scaled_points = _window_scaled(lattice, window)
    return sum(
        1
        for ys in scaled_points
        if not any(sum(a * y for a, y in zip(normal, ys)) for normal in normals)
    )


def lemma1_bounds(
    lattice: LatticeBasis, window: Window, nu_lower: Union[int, Fraction]
) -> tuple[Fraction, Fraction]:
    """Two-sided prediction for |lattice ∩ window|: the lower side uses a
    covering-radius under-estimate, the upper side the cached upper bound."""
    b = window.bound
    n = lattice.dim
    nu_lower = Fraction(nu_lower)
    if b <= 2 * nu_lower:
        raise ValueError("window too small: need B > 2 * covering radius")
    lower = (b - 2 * nu_lower) ** n / lattice.det
    upper = (b + 2 * lattice.nu_upper) ** n / lattice.det
    return lower, upper


def lemma2_count_bound(lattice: LatticeBasis, window: Window, k: int) -> Fraction:
    """Upper bound n^(k/2) (B + 2 nu)^k (2 nu)^(n-k) / det for the number
    of window points in any k-dimensional hyperplane (nu = upper bound)."""
    n = lattice.dim
    if not 1 <= k < n:
        raise ValueError("need 1 <= k < n")
    nu = lattice.nu_upper
    b = window.bound
    n_half = sqrt_enclosure(n**k, 30).hi
    return n_half * (b + 2 * nu) ** k * (2 * nu) ** (n - k) / lattice.det


# ---------------------------------------------------------------------------
# generation tests
# ---------------------------------------------------------------------------


def rank_of_span(vectors: Sequence[Sequence]) -> int:
    """Rank over the rationals of an arbitrary list of vectors."""
    if not vectors:
        return 0
    return rank_of_rows([[Fraction(x) for x in v] for v in vectors])


def generates_lattice(lattice: LatticeBasis, vectors: Sequence[Sequence]) -> bool:
    """True iff the given lattice vectors span the whole lattice.

    Every input must be a lattice point (anything else raises: it means
    the sampler feeding this test is broken).  The decision reduces to
    the coordinate matrix generating Z^n.
    """
    coords = [lattice.coordinates(v) for v in vectors]
    return unimodular_columns(coords, lattice.dim)
