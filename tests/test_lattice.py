"""Lattice enumeration, covering-radius bounds and generation tests.

The enumeration oracle is a blunt coefficient scan over a generous box of
integer basis combinations; the counting bounds are then checked against
it instance by instance.
"""

import itertools
import random
from fractions import Fraction
from math import isqrt

import pytest

from latgen.enclosure import sqrt_enclosure
from latgen.exactmat import RationalMatrix, rank_of_rows
from latgen.experiments import default_lemma_instances
from latgen.lattice import (
    LatticeBasis,
    Window,
    _ceil,
    _floor,
    _int_gram,
    _quadform,
    count_in_hyperplane,
    covering_radius_estimate,
    covering_radius_upper,
    enumerate_window,
    generates_lattice,
    lemma1_bounds,
    lemma2_count_bound,
    rank_of_span,
)


def lat(*columns):
    return LatticeBasis.from_columns(list(columns))


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
        col = basis.basis.column(i)
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


def test_covering_radius_estimate_guard():
    l4 = lat([1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    with pytest.raises(ValueError):
        covering_radius_estimate(l4, 4)


def test_estimate_below_upper_bound():
    for basis in (Z1, Z2, SKEW, lat([2, 0], [1, 3])):
        assert covering_radius_estimate(basis, 24) <= covering_radius_upper(basis)


def covering_radius_estimate_scalar(lattice: LatticeBasis, res: int) -> Fraction:
    """Oracle: one exact nearest-point search per grid point, each in a box
    sized from that point's own starting distance."""
    n = lattice.dim
    gram = _int_gram(lattice._scaled_rows)
    row_norm_sq = [sum(e * e for e in row) for row in lattice.inverse.to_rows()]
    qq_res = (lattice._scale * res) ** 2
    max_dist_sq = Fraction(0)
    for g in itertools.product(range(res), repeat=n):
        c0 = [_floor(Fraction(gi, res) + Fraction(1, 2)) for gi in g]
        w0 = [gi - res * c0i for gi, c0i in zip(g, c0)]
        best = _quadform(gram, w0)
        if best:
            radii = [
                isqrt(_ceil(rn * Fraction(best, qq_res))) + 1 for rn in row_norm_sq
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


def random_rational_basis(rng: random.Random, n: int) -> LatticeBasis:
    while True:
        columns = [
            [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 5))) for _ in range(n)]
            for _ in range(n)
        ]
        if RationalMatrix.from_columns(columns).det() != 0:
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
    # squared distances pass 2^62 here, so the search runs on Python integers
    assert max(abs(x) for row in gram for x in row) > 2**62
    for res in (4, 9):
        fast = covering_radius_estimate(basis, res)
        assert fast == covering_radius_estimate_scalar(basis, res)


# ---------------------------------------------------------------------------
# lambda_1
# ---------------------------------------------------------------------------


def test_lambda1_examples():
    assert Z2.lambda1_sq == 1
    assert TWOZ2.lambda1_sq == 4
    assert lat([2, 0], [0, 3]).lambda1_sq == 4
    assert SKEW.lambda1_sq == 1
    assert lat([Fraction(1, 2), 0], [0, 5]).lambda1_sq == Fraction(1, 4)


def test_lambda1_matches_window_minimum():
    # rectangular lattices put a shortest vector inside [0, B)^n
    for basis in (Z2, TWOZ2, lat([2, 0], [0, 3])):
        points = enumerate_window(basis, Window(2, 8))
        norms = [x * x + y * y for x, y in points if (x, y) != (0, 0)]
        assert min(norms) == basis.lambda1_sq


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_enumerate_window_examples():
    assert len(enumerate_window(Z2, Window(2, 3))) == 9
    pts = enumerate_window(TWOZ2, Window(2, 3))
    assert sorted(pts) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    # rectangular count factorizes: |2Z ∩ [0,12)| * |3Z ∩ [0,12)|
    assert len(enumerate_window(lat([2, 0], [0, 3]), Window(2, 12))) == 24


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
        got = set(enumerate_window(basis, Window(basis.dim, bound)))
        expected = enumerate_by_scan(basis, bound)
        assert got == expected
    # a couple of random 2-d integer lattices
    for _ in range(5):
        cols = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
        if cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0] == 0:
            continue
        basis = lat(*cols)
        got = set(enumerate_window(basis, Window(2, 3)))
        assert got == enumerate_by_scan(basis, 3, coeff_box=15)


def test_enumerate_window_lexicographic_and_deterministic():
    first = enumerate_window(SKEW, Window(2, 3))
    second = enumerate_window(SKEW, Window(2, 3))
    assert first == second
    coords = [SKEW.coordinates(p) for p in first]
    assert coords == sorted(coords)


def test_enumerate_window_guards():
    with pytest.raises(ValueError, match="guard"):
        enumerate_window(Z1, Window(1, 10**9))
    l5 = LatticeBasis(RationalMatrix.identity(5))
    with pytest.raises(ValueError):
        enumerate_window(l5, Window(5, 2))


def test_half_open_membership():
    pts = enumerate_window(Z2, Window(2, 2))
    assert (2, 0) not in pts and (0, 2) not in pts
    assert (0, 0) in pts and (1, 1) in pts


# ---------------------------------------------------------------------------
# hyperplane counts
# ---------------------------------------------------------------------------


def test_count_in_hyperplane_examples():
    w = Window(2, 3)
    assert count_in_hyperplane(Z2, w, [(1, 0)]) == 3
    assert count_in_hyperplane(Z2, w, [(1, 1)]) == 3


def test_count_in_hyperplane_errors():
    with pytest.raises(ValueError):
        count_in_hyperplane(Z2, Window(2, 3), [(1, 2), (2, 4)])
    with pytest.raises(ValueError):
        count_in_hyperplane(Z2, Window(2, 3), [(1, 0), (0, 1)])


def count_in_hyperplane_by_rank(basis: LatticeBasis, window: Window, spanning) -> int:
    """Oracle: a Fraction rank test of span + [point] for every window point."""
    span_rows = [[Fraction(x) for x in v] for v in spanning]
    k = rank_of_rows(span_rows)
    return sum(
        1
        for point in enumerate_window(basis, window)
        if rank_of_rows(span_rows + [list(point)]) == k
    )


def test_count_in_hyperplane_matches_rank_oracle():
    rng = random.Random(404)
    cases = [(inst.lattice, inst.bound) for inst in default_lemma_instances()]
    cases += [(random_rational_basis(rng, n), 5) for n in (2, 3) for _ in range(4)]
    for basis, bound in cases:
        n = basis.dim
        window = Window(n, bound)
        columns = basis.basis.columns()
        spans = [
            [columns[j] for j in subset]
            for k in range(1, n)
            for subset in itertools.combinations(range(n), k)
        ]
        # spans that are not spanned by basis vectors: rational, mixed signs
        spans += [
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(k)
            ]
            for k in range(1, n)
        ]
        for spanning in spans:
            if rank_of_span(spanning) != len(spanning):
                continue
            count = count_in_hyperplane(basis, window, spanning)
            assert count == count_in_hyperplane_by_rank(basis, window, spanning), (
                basis,
                spanning,
            )


def test_hyperplane_count_within_bound():
    w = Window(2, 10)
    count = count_in_hyperplane(Z2, w, [(1, 0)])
    assert count == 10
    assert count <= lemma2_count_bound(Z2, w, 1)


def test_lemma1_bounds_bracket_counts():
    suite = [
        (Z2, 10),
        (TWOZ2, 12),
        (SKEW, 8),
        (lat([2, 0], [0, 3]), 12),
    ]
    for basis, bound in suite:
        w = Window(2, bound)
        est = covering_radius_estimate(basis, 32)
        lower, upper = lemma1_bounds(basis, w, est)
        count = len(enumerate_window(basis, w))
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
        cols = basis.basis.columns()
        assert generates_lattice(basis, cols)


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


def test_rank_of_span():
    assert rank_of_span([(1, 0), (0, 1)]) == 2
    assert rank_of_span([(1, 2), (2, 4)]) == 1
    assert rank_of_span([]) == 0
    assert rank_of_span([(Fraction(1, 2), 0, 0), (0, 1, 0)]) == 2


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------


def test_lattice_json_roundtrip():
    basis = lat([Fraction(1, 3), 0], [1, 2])
    loaded = LatticeBasis.from_json(basis.to_json())
    assert loaded.basis == basis.basis


def test_lattice_json_row_major():
    text = '{"n": 2, "basis": [["1", "1"], ["0", "1"]], "column_major": false}'
    basis = LatticeBasis.from_json(text)
    assert basis.basis.to_rows() == [[1, 1], [0, 1]]


def test_lattice_json_preserves_exactness():
    text = '{"n": 1, "basis": [["1/3"]], "column_major": true}'
    basis = LatticeBasis.from_json(text)
    assert basis.basis.entry(0, 0) == Fraction(1, 3)


def test_singular_basis_rejected():
    with pytest.raises(ValueError):
        lat([1, 2], [2, 4])
