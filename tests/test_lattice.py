"""Lattice enumeration, covering-radius bounds and generation tests.

The enumeration oracle is a blunt coefficient scan over a generous box of
integer basis combinations; the counting bounds are then checked against
it instance by instance.  Determinants, coordinates, membership and rank
are checked against Gaussian elimination over Fractions (``oracles``).
The library returns lattice points as integer basis coordinates c; the
tests map them to the rational points B c with ``oracles.lattice_point``.
"""

import itertools
import random
from fractions import Fraction
from math import ceil, floor, isqrt

import pytest

from latgen import lattice as lattice_module
from latgen.enclosure import sqrt_enclosure
from latgen.exactmat import unimodular_columns
from latgen.experiments import default_lemma_instances
from latgen.lattice import (
    LatticeBasis,
    _ellipsoid_rows,
    _int_gram,
    _quadform,
    _schur_chain,
    _walk_size,
    count_in_hyperplane,
    covering_radius_estimate,
    covering_radius_upper,
    enumerate_window,
    lemma1_bounds,
    lemma2_count_bound,
)
from oracles import (
    coordinate_radii,
    fraction_det,
    fraction_inverse,
    lambda1_sq_by_box,
    lattice_point,
    rank_of_rows,
)


def lat(*columns):
    return LatticeBasis(columns)


def window_points(basis: LatticeBasis, bound) -> list[tuple]:
    """The rational points B c of the window [0, bound)^n, in enumeration order."""
    return [lattice_point(basis.columns, c) for c in enumerate_window(basis, bound)]


def generates_lattice(basis: LatticeBasis, vectors) -> bool:
    """Lattice vectors generate the lattice iff their coordinates generate Z^n."""
    return unimodular_columns([basis.coordinates(v) for v in vectors], basis.dim)


def rows_of(columns):
    return [list(row) for row in zip(*columns)]


def enumerate_by_scan(basis: LatticeBasis, bound, coeff_box=12):
    """Oracle: try every integer combination with coefficients in a box."""
    n = basis.dim
    bound = Fraction(bound)
    points = set()

    def rec(i, acc):
        if i == n:
            if all(0 <= x < bound for x in acc):
                points.add(tuple(acc))
            return
        col = basis.columns[i]
        for c in range(-coeff_box, coeff_box + 1):
            rec(i + 1, [a + c * e for a, e in zip(acc, col)])

    rec(0, [Fraction(0)] * n)
    return points


Z1 = lat([1])
Z2 = lat([1, 0], [0, 1])
TWOZ2 = lat([2, 0], [0, 2])
SKEW = lat([1, 0], [1, 1])  # columns of [[1,1],[0,1]]


# ---------------------------------------------------------------------------
# covering radius
# ---------------------------------------------------------------------------


def test_covering_radius_upper_examples():
    assert covering_radius_upper(Z1) == Fraction(1, 2)
    assert covering_radius_upper(Z2) == 2
    assert covering_radius_upper(Z2) >= Fraction(7072, 10000)  # true nu ~ 0.7071


def test_covering_radius_upper_scales():
    scaled = lat([3, 0], [0, 3])
    assert covering_radius_upper(scaled) == 3 * covering_radius_upper(Z2)


def test_covering_radius_estimate_z2():
    est = covering_radius_estimate(Z2, 100)
    assert Fraction(70, 100) <= est <= Fraction(7072, 10000)


def test_covering_radius_estimate_z1():
    est = covering_radius_estimate(Z1, 100)
    assert Fraction(49, 100) <= est <= Fraction(1, 2)


def test_covering_radius_estimate_scales():
    base = covering_radius_estimate(Z2, 20)
    doubled = covering_radius_estimate(TWOZ2, 20)
    assert abs(doubled - 2 * base) < Fraction(1, 10**20)


def identity_basis(n: int) -> LatticeBasis:
    return lat(*([int(i == j) for i in range(n)] for j in range(n)))


def test_covering_radius_estimate_guard(monkeypatch):
    # no dimension limit: an even resolution puts a grid point on the deep
    # hole of Z^n, so the estimate is nu(Z^n) = sqrt(n) / 2 itself
    for res in (2, 4):
        assert covering_radius_estimate(identity_basis(4), res) == 1
    z5 = identity_basis(5)
    assert covering_radius_estimate(z5, 2) == sqrt_enclosure(Fraction(5, 4), 25).lo

    # the walk guard refuses what is too large before walking: 40^5 grid
    # classes, and a walk size bound of about 6 * 10^9
    def no_walk(chain):
        raise AssertionError("walked")

    monkeypatch.setattr(lattice_module, "_ellipsoid_rows", no_walk)
    with pytest.raises(ValueError, match=r"too large \(6240321451\)"):
        covering_radius_estimate(z5, 40)
    # the walk's bound is read off the Gram matrix, without visiting the
    # 2^18 corners of the grid box, so Z^18 is refused at once
    with pytest.raises(ValueError, match=r"too large \(5559917313492231481\)"):
        covering_radius_estimate(identity_basis(18), 2)


def test_estimate_below_upper_bound():
    for basis in (Z1, Z2, SKEW, lat([2, 0], [1, 3])):
        assert covering_radius_estimate(basis, 24) <= covering_radius_upper(basis)


def covering_radius_estimate_scalar(lattice: LatticeBasis, res: int) -> Fraction:
    """Oracle: one exact nearest-point search per grid point, each in a box
    sized from that point's own starting distance."""
    n = lattice.dim
    gram = _int_gram(lattice._scaled_rows)
    inverse = fraction_inverse(rows_of(lattice.columns))
    row_norm_sq = [sum(e * e for e in row) for row in inverse]
    qq_res = (lattice._scale * res) ** 2
    max_dist_sq = Fraction(0)
    for g in itertools.product(range(res), repeat=n):
        c0 = [floor(Fraction(gi, res) + Fraction(1, 2)) for gi in g]
        w0 = [gi - res * c0i for gi, c0i in zip(g, c0)]
        best = _quadform(gram, w0)
        if best:
            radii = [
                isqrt(ceil(rn * Fraction(best, qq_res))) + 1 for rn in row_norm_sq
            ]
            for offs in itertools.product(*(range(-r, r + 1) for r in radii)):
                w = [w0i - res * o for w0i, o in zip(w0, offs)]
                best = min(best, _quadform(gram, w))
        max_dist_sq = max(max_dist_sq, Fraction(best, qq_res))
    return sqrt_enclosure(max_dist_sq, 25).lo


def test_covering_radius_estimate_matches_scalar_on_lemma_instances():
    for inst in default_lemma_instances():
        res = inst.grid_resolution
        fast = covering_radius_estimate(inst.lattice, res)
        assert fast == covering_radius_estimate_scalar(inst.lattice, res), inst.name


# 2 on the diagonal and 1 below it; its exact covering radius squared is
# 765/256, from the vertices of its Voronoi cell
LOWER4 = lat(*([2 if i == j else int(i > j) for i in range(4)] for j in range(4)))


@pytest.mark.parametrize(
    "basis,nu_sq", [(identity_basis(4), 1), (LOWER4, Fraction(765, 256))], ids=["Z4", "lower4"]
)
def test_covering_radius_estimate_matches_scalar_at_n4(basis, nu_sq):
    for res in (2, 3):
        fast = covering_radius_estimate(basis, res)
        assert fast == covering_radius_estimate_scalar(basis, res), res
        assert fast**2 <= nu_sq and fast < basis.nu_upper, res


def random_rational_basis(rng: random.Random, n: int) -> LatticeBasis:
    while True:
        columns = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5))) for _ in range(n)]
            for _ in range(n)
        ]
        if fraction_det(columns) != 0:
            return lat(*columns)


@pytest.mark.parametrize(
    "n,resolutions", [(1, (1, 2, 7, 33)), (2, (1, 3, 8, 15)), (3, (1, 2, 5))]
)
def test_covering_radius_estimate_matches_scalar_on_random_bases(n, resolutions):
    rng = random.Random(1000 + n)
    for _ in range(6):
        basis = random_rational_basis(rng, n)
        for res in resolutions:
            fast = covering_radius_estimate(basis, res)
            assert fast == covering_radius_estimate_scalar(basis, res), (basis, res)


def test_covering_radius_estimate_large_entries_match_scalar():
    basis = lat([10**12, 3], [Fraction(1, 7), 10**12 + 9])
    gram = _int_gram(basis._scaled_rows)
    # squared distances pass 2^62 here, far outside any fixed-width integer
    assert max(abs(x) for row in gram for x in row) > 2**62
    for res in (4, 9):
        fast = covering_radius_estimate(basis, res)
        assert fast == covering_radius_estimate_scalar(basis, res)


@pytest.mark.parametrize("columns,resolutions,scalar_resolutions", [
    ([[1, 0], [37, 1]], (3, 4, 8), (3,)),
    ([[1, 0, 0], [13, 1, 0], [7, 29, 1]], (2, 3), ()),
])
def test_covering_radius_estimate_skewed_bases_match_scalar(
    columns, resolutions, scalar_resolutions
):
    # both bases span Z^n, but the ellipsoid Q <= bound around their grid
    # box holds hundreds of times as many points as the box.  A unimodular
    # change of basis only permutes the grid classes g mod res, so the
    # estimate must equal the scalar search on the standard basis; where
    # the scalar search on the skewed basis itself is affordable, it too
    basis = lat(*columns)
    n = basis.dim
    standard = lat(*([int(i == j) for i in range(n)] for j in range(n)))
    for res in resolutions:
        fast = covering_radius_estimate(basis, res)
        assert fast == covering_radius_estimate_scalar(standard, res), res
    for res in scalar_resolutions:
        fast = covering_radius_estimate(basis, res)
        assert fast == covering_radius_estimate_scalar(basis, res), res


@pytest.mark.parametrize("columns,resolutions", [
    ([[1, 0], [-3, 1]], (2, 3, 4, 8)),
    ([[2, -1], [1, 3]], (2, 3, 4, 8)),
    ([[1, 0, 0], [-2, 1, 0], [3, -4, 1]], (2, 3, 4)),
])
def test_covering_radius_estimate_negative_gram_matches_scalar(columns, resolutions):
    # with negative Gram entries the walk's bound (res // 2)^2 sum |G_ij|
    # exceeds Q on every box corner; the estimate is the same
    basis = lat(*columns)
    assert min(x for row in _int_gram(basis._scaled_rows) for x in row) < 0
    for res in resolutions:
        fast = covering_radius_estimate(basis, res)
        assert fast == covering_radius_estimate_scalar(basis, res), res


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ellipsoid_rows_match_a_box_scan(n):
    rng = random.Random(2000 + n)
    for _ in range(4):
        basis = random_rational_basis(rng, n)
        gram = _int_gram(basis._scaled_rows)
        bound = rng.randint(0, 4 * max(row[i] for i, row in enumerate(gram)))
        chain = _schur_chain(gram, bound)
        rows = list(_ellipsoid_rows(chain))
        walked = [(*outer, t) for outer, ts, _, _ in rows for t in ts]
        radii = coordinate_radii(gram, bound)
        box = itertools.product(*(range(-r, r + 1) for r in radii))
        assert walked == [w for w in box if _quadform(gram, list(w)) <= bound]
        assert _walk_size(chain) >= len(rows) + len(walked)


# ---------------------------------------------------------------------------
# lambda_1
# ---------------------------------------------------------------------------


def test_lambda1_examples():
    assert Z2.lambda1_sq == 1
    assert TWOZ2.lambda1_sq == 4
    assert lat([2, 0], [0, 3]).lambda1_sq == 4
    assert SKEW.lambda1_sq == 1
    assert lat([Fraction(1, 2), 0], [0, 5]).lambda1_sq == Fraction(1, 4)


@pytest.mark.parametrize("n,count", [(1, 40), (2, 40), (3, 40), (4, 12)])
def test_lambda1_matches_the_box_oracle(n, count):
    rng = random.Random(3000 + n)
    compared = 0
    for _ in range(count):
        basis = random_rational_basis(rng, n)
        expected = lambda1_sq_by_box(basis.columns)
        if expected is not None:
            assert basis.lambda1_sq == expected, basis
            compared += 1
    assert compared >= count - 2


@pytest.mark.parametrize(
    "columns",
    [
        [[1, 0, 0], [0, 1, 0], [500, 700, 1]],
        [[1, 0, 0], [13, 1, 0], [7, 29, 1]],
        [[1, 0], [37, 1]],
        [[1, 0, 0, 0], [3, 1, 0, 0], [5, 7, 1, 0], [11, 13, 17, 1]],
    ],
)
def test_lambda1_of_skewed_bases_of_z_n(columns):
    # each spans Z^n, but its coordinate box around the shortest column
    # holds up to millions of points; the ellipsoid walk visits few
    assert lat(*columns).lambda1_sq == 1


def test_lambda1_refuses_a_walk_too_large_before_walking(monkeypatch):
    # det 1 with columns of length 10^6: the walk would visit about
    # 3 * 10^12 points, and its size bound says so up front
    def no_walk(chain):
        raise AssertionError("walked")

    monkeypatch.setattr(lattice_module, "_ellipsoid_rows", no_walk)
    with pytest.raises(ValueError, match=r"too large \(6000006000015\)"):
        lat([10**6, 1], [10**6 + 1, 1]).lambda1_sq


def test_lambda1_matches_window_minimum():
    # rectangular lattices put a shortest vector inside [0, B)^n
    for basis in (Z2, TWOZ2, lat([2, 0], [0, 3])):
        points = window_points(basis, 8)
        norms = [x * x + y * y for x, y in points if (x, y) != (0, 0)]
        assert min(norms) == basis.lambda1_sq


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_window_examples():
    assert len(enumerate_window(Z2, 3)) == 9
    coords = enumerate_window(TWOZ2, 3)
    assert sorted(coords) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    pts = window_points(TWOZ2, 3)
    assert sorted(pts) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    # rectangular count factorizes: |2Z ∩ [0,12)| * |3Z ∩ [0,12)|
    assert len(enumerate_window(lat([2, 0], [0, 3]), 12)) == 24


def test_enumerate_window_matches_scan_oracle():
    rng = random.Random(1234)
    cases = [
        (Z2, 3),
        (SKEW, 2),
        (lat([2, 1], [1, 3]), 5),
        (lat([Fraction(3, 2), 0], [1, 2]), 4),
        (lat([1, 0, 0], [0, 2, 0], [1, 1, 3]), 4),
    ]
    for basis, bound in cases:
        got = set(window_points(basis, bound))
        expected = enumerate_by_scan(basis, bound)
        assert got == expected
    # a couple of random 2-d integer lattices
    for _ in range(5):
        cols = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0] == 0:
            continue
        basis = lat(*cols)
        got = set(window_points(basis, 3))
        assert got == enumerate_by_scan(basis, 3, coeff_box=15)


def test_enumerate_window_lexicographic_and_deterministic():
    first = enumerate_window(SKEW, 3)
    second = enumerate_window(SKEW, 3)
    assert first == second
    assert first == sorted(set(first))
    points = window_points(SKEW, 3)
    assert [tuple(SKEW.coordinates(p)) for p in points] == first


def test_enumerate_window_guards():
    with pytest.raises(ValueError, match="guard"):
        enumerate_window(Z1, 10**9)
    l5 = LatticeBasis([[int(i == j) for i in range(5)] for j in range(5)])
    assert len(enumerate_window(l5, 2)) == 32


def test_half_open_membership():
    pts = window_points(Z2, 2)
    assert (2, 0) not in pts and (0, 2) not in pts
    assert (0, 0) in pts and (1, 1) in pts


# ---------------------------------------------------------------------------
# hyperplane counts
# ---------------------------------------------------------------------------


def test_count_in_hyperplane_examples():
    points = enumerate_window(Z2, 3)
    assert count_in_hyperplane(Z2, [0], points) == 3


def test_count_in_hyperplane_errors():
    z3 = lat([1, 0, 0], [0, 1, 0], [0, 0, 1])
    for support in ([], [0, 1, 2], [1, 1], [3]):  # k = 0, k = n, repeated, out of range
        with pytest.raises(ValueError, match="distinct indices"):
            count_in_hyperplane(z3, support, [])


def count_in_hyperplane_by_rank(basis: LatticeBasis, bound, spanning) -> int:
    """Oracle: a Fraction rank test of span + [point] for every window point."""
    span_rows = [[Fraction(x) for x in v] for v in spanning]
    k = rank_of_rows(span_rows)
    return sum(
        1
        for point in window_points(basis, bound)
        if rank_of_rows(span_rows + [list(point)]) == k
    )


def test_count_in_hyperplane_matches_rank_oracle():
    rng = random.Random(404)
    cases = [(inst.lattice, inst.bound) for inst in default_lemma_instances()]
    cases += [(random_rational_basis(rng, n), 5) for n in (2, 3) for _ in range(4)]
    for basis, bound in cases:
        n = basis.dim
        points = enumerate_window(basis, bound)
        for k in range(1, n):
            for support in itertools.combinations(range(n), k):
                spanning = [basis.columns[j] for j in support]
                count = count_in_hyperplane(basis, support, points)
                assert count == count_in_hyperplane_by_rank(basis, bound, spanning), (
                    basis,
                    support,
                )


def test_hyperplane_count_within_bound():
    count = count_in_hyperplane(Z2, [0], enumerate_window(Z2, 10))
    assert count == 10
    assert count <= lemma2_count_bound(Z2, 10, 1)


def test_lemma1_bounds_bracket_counts():
    suite = [
        (Z2, 10),
        (TWOZ2, 12),
        (SKEW, 8),
        (lat([2, 0], [0, 3]), 12),
    ]
    for basis, bound in suite:
        est = covering_radius_estimate(basis, 32)
        lower, upper = lemma1_bounds(basis, bound, est)
        count = len(enumerate_window(basis, bound))
        assert lower <= count <= upper


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


def test_generates_lattice_examples():
    assert generates_lattice(Z2, [(1, 0), (0, 1)])
    assert not generates_lattice(Z2, [(2, 0), (0, 2), (2, 2)])
    assert generates_lattice(TWOZ2, [(2, 0), (0, 2)])


def test_generates_lattice_own_basis():
    for basis in (Z1, Z2, TWOZ2, SKEW, lat([Fraction(1, 3), 0], [1, 2])):
        assert generates_lattice(basis, basis.columns)


def test_generates_lattice_permutation_invariant():
    rng = random.Random(77)
    vectors = [(1, 2), (0, 1), (5, 3)]
    reference = generates_lattice(Z2, vectors)
    for _ in range(5):
        shuffled = vectors[:]
        rng.shuffle(shuffled)
        assert generates_lattice(Z2, shuffled) == reference


def test_generates_lattice_rejects_foreign_vector():
    with pytest.raises(ValueError, match="not a lattice point"):
        generates_lattice(TWOZ2, [(1, 0)])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_kernel_matches_fraction_inverse(n):
    """det and coordinates (members and non-members) on seeded random
    rational bases."""
    rng = random.Random(90 + n)
    for _ in range(25):
        basis = random_rational_basis(rng, n)
        rows = rows_of(basis.columns)
        assert basis.det == abs(fraction_det(rows))
        inverse = fraction_inverse(rows)
        coords = [rng.randint(-9, 9) for _ in range(n)]
        point = lattice_point(basis.columns, coords)
        assert [sum(e * x for e, x in zip(row, point)) for row in inverse] == coords
        assert basis.coordinates(point) == coords
        # a rational vector whose oracle coordinates are not all integers
        while True:
            vector = [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n)]
            exact = [sum(e * x for e, x in zip(row, vector)) for row in inverse]
            if any(c.denominator != 1 for c in exact):
                break
        with pytest.raises(ValueError, match="not a lattice point"):
            basis.coordinates(vector)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_lattice_json_roundtrip():
    basis = lat([Fraction(1, 3), 0], [1, 2])
    loaded = LatticeBasis.from_json('{"n": 2, "basis": [["1/3", "0"], ["1", "2"]]}')
    assert loaded.columns == basis.columns


def test_lattice_json_row_major():
    text = '{"n": 2, "basis": [["1", "1"], ["0", "1"]], "column_major": false}'
    basis = LatticeBasis.from_json(text)
    assert rows_of(basis.columns) == [[1, 1], [0, 1]]


def test_lattice_json_preserves_exactness():
    text = '{"n": 1, "basis": [["1/3"]], "column_major": true}'
    basis = LatticeBasis.from_json(text)
    assert basis.columns[0][0] == Fraction(1, 3)


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        lat([1, 2], [2, 4])
