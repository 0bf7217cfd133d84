"""Sampler contracts: support exactness, determinism, uniformity.

Ground truth for sampler supports is exhaustive enumeration of the
integer points; the coset sampler is also checked exhaustively, every
draw tuple against the enumerated cell and the Smith-form projection of
``groupgen.quotient_group``.  The uniformity check is a chi-square test
against the enumerated support with a documented 1-in-10-seeds flakiness
budget.
"""

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from latgen import sampling
from latgen.exactmat import _scaled_inverse
from latgen.groupgen import quotient_group
from latgen.lattice import LatticeBasis, enumerate_window
from latgen.sampling import (
    Parallelepiped,
    RngStream,
    SamplerError,
    WindowSampler,
    random_parallelepiped,
)
from oracles import fraction_det, lattice_point, parallelepiped_cell

Z2 = LatticeBasis([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# stream primitives
# ---------------------------------------------------------------------------


def test_stream_determinism():
    a = RngStream(seed=7, stream=3)
    b = RngStream(seed=7, stream=3)
    assert [a.word(i) for i in range(20)] == [b.word(i) for i in range(20)]
    assert [a.draw_below(1000, i) for i in range(50)] == [
        b.draw_below(1000, i) for i in range(50)
    ]


def test_stream_separation():
    a = RngStream(seed=7, stream=0)
    b = RngStream(seed=7, stream=1)
    c = RngStream(seed=8, stream=0)
    words_a = [a.word(i) for i in range(8)]
    assert words_a != [b.word(i) for i in range(8)]
    assert words_a != [c.word(i) for i in range(8)]


def test_words_np_matches_scalar():
    rng = RngStream(seed=42, stream=5)
    idx = np.arange(0, 200, dtype=np.uint64)
    vec = rng.words_np(idx)
    assert vec.tolist() == [rng.word(i) for i in range(200)]


def test_draw_below_range_and_trivial_bound():
    rng = RngStream(seed=1)
    values = [rng.draw_below(17, i) for i in range(500)]
    assert all(0 <= v < 17 for v in values)
    assert set(values) == set(range(17))
    assert rng.draw_below(1, 500) == 0
    assert sampling._BoundedDraws(rng, [1]).row() == [0]
    assert rng.draw_cursor == 1  # index slot consumed, no words needed


def test_draw_below_huge_bound():
    rng = RngStream(seed=9)
    bound = 3 * 10**19  # needs two 64-bit words
    values = [rng.draw_below(bound, i) for i in range(200)]
    assert all(0 <= v < bound for v in values)
    assert max(values) > bound // 4  # sanity: actually spread out
    again = RngStream(seed=9)
    assert values == [again.draw_below(bound, i) for i in range(200)]


def test_draw_below_in_block_values_pinned():
    # values from before overflow sub-streams existed: every draw that
    # finishes inside its 64-word block keeps its exact value
    rng = RngStream(seed=2024, stream=3)
    assert [rng.draw_below(17, i) for i in range(6)] == [6, 1, 11, 11, 14, 6]
    assert [rng.draw_below(1000, i) for i in range(6)] == [582, 65, 561, 299, 238, 984]
    assert [rng.draw_below(2**64 + 1, i) for i in range(3)] == [
        7023393112780940715,
        3152349911881556033,
        6576846864092154042,
    ]

    def digest(values):
        return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()

    wide = [rng.draw_below(2**512 + 1, i) for i in range(64)]
    assert digest(wide) == (
        "4266dcc5419450bf49ab353a299f981b4198afd07c0245d23d8f397dc3f8e561"
    )
    # at 1025 bits a block holds 3 attempts; these indices used to exhaust it
    exhausted = {7, 8, 17, 18, 21, 27, 48, 60, 61}
    bound = 2**1024 + 1
    in_block = [rng.draw_below(bound, i) for i in range(64) if i not in exhausted]
    assert digest(in_block) == (
        "6c6ddea8e43e15fa13713f8b0a04723082f37cc3825afc77faa4cdd2eb7a1d3a"
    )
    assert all(0 <= rng.draw_below(bound, i) < bound for i in exhausted)


@pytest.mark.parametrize("bound", [2**4096 + 1, 2**8192 + 1])
def test_draw_below_beyond_block(bound):
    # more than 64 words per attempt: every attempt is an overflow one
    rng = RngStream(seed=5, stream=1)
    values = [rng.draw_below(bound, i) for i in range(40)]
    assert all(0 <= v < bound for v in values)
    assert len(set(values)) == 40
    again = RngStream(seed=5, stream=1)
    assert values == [again.draw_below(bound, i) for i in range(40)]


class _SaturatedBlocks(RngStream):
    """A stream whose in-block words are all ones, so a draw below a bound
    that is not a power of two only ever succeeds past its block."""

    def word(self, index):
        return (1 << 64) - 1

    def words_np(self, indices):
        return np.full(indices.shape, (1 << 64) - 1, dtype=np.uint64)


def test_engines_bit_identical_past_the_block():
    p = Parallelepiped([[4, 1], [1, 4]])  # Smith factors 1 and 15
    fast_rng = _SaturatedBlocks(seed=77, stream=9)
    exact_rng = _SaturatedBlocks(seed=77, stream=9)
    assert p._fast
    samples = p.take(fast_rng, 200)
    p._fast = False  # the big-integer engine
    assert samples == p.take(exact_rng, 200)
    assert fast_rng.draw_cursor == exact_rng.draw_cursor
    cell = parallelepiped_cell(p.generators)
    assert all(cell.contains(z) for z in samples)


class _BrokenGenerator(_SaturatedBlocks):
    """Every word all ones, overflow sub-streams included."""

    def overflow_word(self, index, attempt, w):
        return (1 << 64) - 1


def test_broken_generator_still_reported():
    with pytest.raises(SamplerError, match="generator fault"):
        _BrokenGenerator(seed=1).draw_below(5, 0)
    p = Parallelepiped([[4, 1], [1, 4]])
    for fast in (True, False):
        p._fast = fast
        with pytest.raises(SamplerError, match="generator fault"):
            p.take(_BrokenGenerator(seed=1), 1)


def test_random_parallelepiped_entries_cover_the_range():
    for c in (1, 2):
        rng = RngStream(seed=3)
        drawn = [random_parallelepiped(2, c, rng) for _ in range(40)]
        values = {x for p in drawn for g in p.generators for x in g}
        assert values == set(range(-c, c + 1))


def test_provenance():
    rng = RngStream(seed=11, stream=4)
    assert rng.provenance() == {
        "algorithm": "splitmix64-ctr-v1",
        "seed": 11,
        "stream": 4,
    }


# ---------------------------------------------------------------------------
# parallelepipeds
# ---------------------------------------------------------------------------


def test_parallelepiped_rejects_degenerate():
    with pytest.raises(ValueError, match="degenerate"):
        Parallelepiped([[1, 2], [2, 4]])


def test_random_parallelepiped_n1_c1():
    rng = RngStream(seed=0)
    for _ in range(40):
        p = random_parallelepiped(1, 1, rng)
        assert p.generators[0][0] in (-1, 1)


def test_random_parallelepiped_deterministic():
    p1 = random_parallelepiped(3, 10**4, RngStream(seed=5, stream=2))
    p2 = random_parallelepiped(3, 10**4, RngStream(seed=5, stream=2))
    assert p1.generators == p2.generators
    assert parallelepiped_cell(p1.generators).limit == parallelepiped_cell(p2.generators).limit


def test_parallelepiped_degenerate_exactly_when_det_is_zero():
    # Smith rank below n is det V = 0: entries in {-1, 0, 1} are often
    # singular, entries up to 10^18 almost never
    rng = random.Random(2020)
    singular = regular = 0
    for bound in (1, 10**18):
        for _ in range(300):
            n = rng.randint(1, 5)
            generators = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
            degenerate = fraction_det(generators) == 0
            try:
                Parallelepiped(generators)
            except ValueError as exc:
                assert degenerate and "degenerate" in str(exc), generators
                singular += 1
            else:
                assert not degenerate, generators
                regular += 1
    assert singular > 50 and regular > 300


def test_integer_box_half_open():
    cube = parallelepiped_cell([[5, 0], [0, 5]])
    assert cube.box == [(0, 4), (0, 4)]
    mixed = parallelepiped_cell([[1, -2], [0, 3]])
    for z in mixed.points():
        for (lo, hi), coord in zip(mixed.box, z):
            assert lo <= coord <= hi


def test_membership_rows_are_scaled_inverse():
    # T V = |det V| I on random generators, entries up to 10^18
    rng = random.Random(1805)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        bound = rng.choice([3, 10**4, 10**18])
        generators = [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(n)]
        limit, rows = _scaled_inverse(generators, n)
        assert limit == abs(fraction_det(generators))
        if limit == 0:
            assert rows == []
            continue
        for i in range(n):
            for j in range(n):
                product = sum(rows[i][k] * generators[j][k] for k in range(n))
                assert product == (limit if i == j else 0)
        checked += 1
    assert checked > 150


def test_enumerate_matches_membership():
    cell = parallelepiped_cell([[3, 1], [1, 4]])
    points = cell.points()
    assert len(points) == cell.limit  # unit-volume cells partition Z^2
    for z in points:
        assert cell.contains(z)
    assert not cell.contains((100, 100))


# ---------------------------------------------------------------------------
# coset sampling
# ---------------------------------------------------------------------------


def test_cube_sampler_accepts_everything():
    p = Parallelepiped([[5, 0, 0], [0, 5, 0], [0, 0, 5]])
    rng = RngStream(seed=13)
    samples = p.take(rng, 2000)
    assert rng.draw_cursor == 2000 * 3  # one draw per Smith factor 5, none rejected
    assert {s for s in samples} <= {tuple(v) for v in itertools.product(range(5), repeat=3)}
    assert len(set(samples)) == 125  # every point seen


def test_sampler_support_matches_enumeration():
    cases = [
        Parallelepiped([[1, 1], [0, 1]]),
        Parallelepiped([[3, 1], [1, 4]]),
        Parallelepiped([[2, -1], [1, 3]]),
        Parallelepiped([[-2, 1], [1, -3]]),
    ]
    for p in cases:
        cell = parallelepiped_cell(p.generators)
        expected = set(cell.points())
        rng = RngStream(seed=101, stream=cell.limit)
        draws = p.take(rng, 220 * max(1, len(expected)))
        got = set(draws)
        assert got == expected


def test_degenerate_direction_single_point():
    p = Parallelepiped([[1, 1], [0, 1]])
    assert parallelepiped_cell(p.generators).points() == [(0, 0)]
    rng = RngStream(seed=2)
    assert p.take(rng, 1) == [(0, 0)]


def test_boundary_points_excluded():
    p = Parallelepiped([[2, 0], [0, 2]])
    expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
    rng = RngStream(seed=4)
    assert set(p.take(rng, 400)) == expected


def test_engines_bit_identical():
    p = Parallelepiped([[3, 1], [1, 4]])
    fast_rng = RngStream(seed=77, stream=9)
    exact_rng = RngStream(seed=77, stream=9)
    assert p._fast
    fast = p.take(fast_rng, 500)
    p._fast = False  # the big-integer engine
    assert fast == p.take(exact_rng, 500)
    assert fast_rng.draw_cursor == exact_rng.draw_cursor


def test_engine_guard_reads_row_sums(monkeypatch):
    # e = 3 and row 0 of V has absolute sum exactly 2^62: the box of P
    # (row 0 in [0, 2^62 - 1]) fits in 62 bits, but the guard wants every
    # row sum below 2^62, so the big-integer engine runs
    columns = [[3, 0], [2**62 - 3, 1]]
    p = Parallelepiped(columns)
    cell = parallelepiped_cell(columns)
    assert p._exponent == 3 and not p._fast
    assert cell.box == [(0, 2**62 - 1), (0, 0)]
    monkeypatch.setattr(sampling, "_INT64_GUARD", 2**62 + 1)
    forced = Parallelepiped(columns)  # the int64 engine, as a box guard chose
    assert forced._fast
    exact_rng = RngStream(seed=30, stream=4)
    fast_rng = RngStream(seed=30, stream=4)
    exact = p.take(exact_rng, 500)
    assert forced.take(fast_rng, 500) == exact
    assert fast_rng.draw_cursor == exact_rng.draw_cursor == 500
    assert all(cell.contains(z) for z in exact)


def test_take_granularity_irrelevant():
    p = Parallelepiped([[3, 1], [1, 4]])
    one = p.take(RngStream(seed=6), 60)
    other_rng = RngStream(seed=6)
    pieces = []
    for chunk in (1, 2, 7, 50):
        pieces.extend(p.take(other_rng, chunk))
    assert pieces == one


def test_exact_engine_huge_entries():
    c = 10**18
    rng = RngStream(seed=21)
    p = random_parallelepiped(2, c, rng)
    assert not p._fast  # magnitudes force the big-integer engine
    cell = parallelepiped_cell(p.generators)
    for z in p.take(rng, 5):
        assert cell.contains(z)


def _small_parallelepipeds(seed: int, count: int) -> list[Parallelepiped]:
    """Random parallelepipeds with n <= 4 and |det V| <= 3000."""
    rng = random.Random(seed)
    bound = {1: 3000, 2: 40, 3: 10, 4: 4}
    found = []
    while len(found) < count:
        n = rng.randint(1, 4)
        generators = [[rng.randint(-bound[n], bound[n]) for _ in range(n)] for _ in range(n)]
        if 0 < abs(fraction_det(generators)) <= 3000:
            found.append(Parallelepiped(generators))
    return found


def test_coset_map_is_a_bijection_onto_the_cell():
    # every draw tuple y, through either engine, is one point of the cell
    # in the coset of y, and together they are all of the cell's points
    several_factors = [
        Parallelepiped([[4, 2], [2, 4]]),
        Parallelepiped([[3, 0, 0], [0, 6, 0], [0, 0, 6]]),
        Parallelepiped([[6, 3, 0], [0, 6, 3], [3, 0, 6]]),
        Parallelepiped([[2 * (i == j) for i in range(4)] for j in range(4)]),
    ]
    for p in several_factors + _small_parallelepipeds(2026, 200):
        assert p._fast
        ys = list(itertools.product(*(range(d) for d in p._bounds)))
        exact = [p._point_exact(y) for y in ys]
        fast = p._points_int64(np.array(ys, dtype=np.uint64)).tolist()
        assert [list(z) for z in exact] == fast
        assert sorted(exact) == parallelepiped_cell(p.generators).points()
        _, projection = quotient_group(p.generators)
        assert [projection(z) for z in exact] == ys


def _guard_cases():
    yield Parallelepiped([[2**31, 5], [3, 2**31 - 1]]), True  # |det V| = 2^62 - 2^31 - 15
    yield Parallelepiped([[2**31, 5], [3, 2**31 + 1]]), False  # |det V| = 2^62 + 2^31 - 15
    for n in range(1, 7):
        p = random_parallelepiped(n, 10**18, RngStream(seed=21, stream=n))
        yield p, n == 1  # at n = 1, |det V| <= 10^18 < 2^62


@pytest.mark.parametrize("p,fast_engine", list(_guard_cases()))
def test_coset_engines_bit_identical_at_the_guard(p, fast_engine):
    fast_rng = RngStream(seed=8, stream=3)
    exact_rng = RngStream(seed=8, stream=3)
    assert p._fast == fast_engine
    samples = p.take(fast_rng, 300)
    p._fast = False  # the big-integer engine
    assert samples == p.take(exact_rng, 300)
    assert fast_rng.draw_cursor == exact_rng.draw_cursor
    # sample j is the point of the cell in the coset of draws j k + i
    bounds = p._bounds
    cell = parallelepiped_cell(p.generators)
    _, projection = quotient_group(p.generators)
    draws = RngStream(seed=8, stream=3)
    for j, z in enumerate(samples):
        assert cell.contains(z)
        assert projection(z) == tuple(
            draws.draw_below(d, j * len(bounds) + i) for i, d in enumerate(bounds)
        )


def _folding_cases():
    """Parallelepipeds with e in (2^59, 2^62), so that F = (2^63 - 1) // e - 1
    lies in [1, 14] and the int64 engine folds in the middle of a sample."""
    yield Parallelepiped([[2**59 + 1]])
    yield Parallelepiped([[2**62 - 1]])
    yield Parallelepiped([[6, 0], [0, 6 * (2**58 + 3)]])  # two factors, e = 6 (2^58 + 3)
    for n, c in ((2, 2**31), (3, 2**21), (4, 2**16)):
        for stream in range(100):
            p = random_parallelepiped(n, c, RngStream(seed=59, stream=stream))
            if 2**59 < p._exponent < 2**62:
                yield p
                break


@pytest.mark.parametrize("p", list(_folding_cases()))
def test_coset_engines_bit_identical_with_mid_sample_folds(p):
    fast_rng = RngStream(seed=5, stream=1)
    exact_rng = RngStream(seed=5, stream=1)
    e = p._exponent
    window = (2**63 - 1) // e - 1
    assert p._fast and 2**59 < e < 2**62 and 1 <= window <= 15
    assert sum(len(table) for table in p._tables) > window
    # the extreme draws: y = 0, y = d_i - 1 and every nibble 0xF, which
    # adds the v = 15 row of each table, the largest a sums
    extremes = [
        (0, d - 1, 16 ** len(table) - 1) for d, table in zip(p._bounds, p._tables)
    ]
    ys = list(itertools.product(*extremes))
    points = p._points_int64(np.array(ys, dtype=np.uint64)).tolist()
    assert points == [list(p._point_exact(y)) for y in ys]
    fast = p.take(fast_rng, 300)
    p._fast = False  # the big-integer engine
    assert fast == p.take(exact_rng, 300)
    assert fast_rng.draw_cursor == exact_rng.draw_cursor


def test_uniformity_chi_square():
    # 10 seeds, chi-square at significance 1e-3 against the enumerated
    # support; by design one failing seed is tolerated.
    p = Parallelepiped([[3, 1], [1, 4]])
    support = parallelepiped_cell(p.generators).points()
    index = {z: i for i, z in enumerate(support)}
    draws_per_seed = 10**5
    critical = scipy.stats.chi2.isf(1e-3, df=len(support) - 1)
    passes = 0
    for seed in range(10):
        counts = [0] * len(support)
        for z in p.take(RngStream(seed=seed, stream=1), draws_per_seed):
            counts[index[z]] += 1
        expected = draws_per_seed / len(support)
        stat = sum((c - expected) ** 2 / expected for c in counts)
        if stat <= critical:
            passes += 1
    assert passes >= 9


# ---------------------------------------------------------------------------
# window sampling
# ---------------------------------------------------------------------------


def test_window_sampler_z2():
    sampler = WindowSampler(Z2, 3, RngStream(seed=31))
    draws = sampler.take(1500)
    assert set(draws) == {(x, y) for x in range(3) for y in range(3)}
    assert sampler.acceptance_estimate == 1.0


def test_window_sampler_scaled_lattice():
    lattice = LatticeBasis([[2, 0], [0, 2]])
    draws = WindowSampler(lattice, 3, RngStream(seed=32)).take(800)
    assert set(draws) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    points = {lattice_point(lattice.columns, c) for c in draws}
    assert points == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_window_sampler_matches_enumeration_support():
    lattice = LatticeBasis([[2, 1], [1, 3]])
    expected = set(enumerate_window(lattice, 6))
    draws = WindowSampler(lattice, 6, RngStream(seed=33)).take(
        250 * len(expected)
    )
    assert set(draws) == expected


def test_max_rejects_error_carries_estimate(monkeypatch):
    monkeypatch.setattr(sampling, "_MAX_REJECTS", 40)
    thin = LatticeBasis([[1, 0], [3000, 1]])  # 4 window points in a box of 12,002
    rng = RngStream(seed=123)
    with pytest.raises(SamplerError) as info:
        WindowSampler(thin, 2, rng).take(50)
    message = str(info.value)
    assert message.startswith("exceeded 40 rejects for one sample")
    assert 0 <= float(message.rsplit("acceptance so far ", 1)[1].rstrip(")")) < 0.2


# window streams taken when the window sampler still had an int64 engine
# (the 2^70 window ran on its big-integer one); every take, whole or
# chunked, must reproduce them: (lattice columns, bound, samples, cursor)
WINDOW_STREAM_PINS = [
    ([[2, 1], [1, 3]], 6, [
        (2, 0), (2, 1), (2, 0), (0, 1), (-1, 2), (3, -1),
        (1, 1), (0, 1), (3, -1), (2, 1), (3, -1), (3, -1),
    ], 84),
    ([[2, 1], [1, 3]], 2**70, [
        (590654325345453468064, -180701484761699859770),
        (467123242930487560196, -133208525773931350294),
        (391603997047066315624, 86803508804987350867),
        (124384136216149188795, 108335656527431451176),
        (94746167214798907177, 109805136729984665584),
        (441477950746515196950, 140542699152555594343),
    ], 48),
]


@pytest.mark.parametrize("columns,bound,samples,cursor", WINDOW_STREAM_PINS)
@pytest.mark.parametrize("chunk", [None, 1])
def test_window_stream_pinned(columns, bound, samples, cursor, chunk):
    rng = RngStream(seed=77, stream=9)
    sampler = WindowSampler(LatticeBasis(columns), bound, rng)
    if chunk is None:
        taken = sampler.take(len(samples))
    else:
        taken = [z for _ in range(len(samples)) for z in sampler.take(chunk)]
    assert taken == samples
    assert rng.draw_cursor == cursor
    assert sampler.candidates == cursor // 2
    assert sampler.acceptance_estimate < 1


def test_window_sampler_membership_contract():
    lattice = LatticeBasis([[Fraction(3, 2), 0], [1, 2]])
    bound = Fraction(5)
    for c in WindowSampler(lattice, bound, RngStream(seed=34)).take(300):
        point = lattice_point(lattice.columns, c)
        assert all(0 <= y < bound for y in point)


def test_sample_lattice_point_single():
    [point] = WindowSampler(Z2, 3, RngStream(seed=35)).take(1)
    assert all(0 <= c < 3 for c in point)
