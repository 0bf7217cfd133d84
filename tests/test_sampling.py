"""Sampler contracts: support exactness, determinism, uniformity.

Ground truth for sampler supports is exhaustive enumeration of the
integer points; the uniformity check is a chi-square test against the
enumerated support with a documented 1-in-10-seeds flakiness budget.
"""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
import scipy.stats

from latgen.lattice import LatticeBasis, Window, enumerate_window
from latgen.sampling import (
    Parallelepiped,
    RngStream,
    SamplerError,
    WindowSampler,
    random_parallelepiped,
    sample_integer_point,
    sample_lattice_point_in_window,
)

Z2 = LatticeBasis.from_columns([[1, 0], [0, 1]])


# ---------------------------------------------------------------------------
# stream primitives
# ---------------------------------------------------------------------------


def test_stream_determinism():
    a = RngStream(seed=7, stream=3)
    b = RngStream(seed=7, stream=3)
    assert [a.word(i) for i in range(20)] == [b.word(i) for i in range(20)]
    assert [a.draw_below(1000) for _ in range(50)] == [
        b.draw_below(1000) for _ in range(50)
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
    values = [rng.draw_below(17) for _ in range(500)]
    assert all(0 <= v < 17 for v in values)
    assert set(values) == set(range(17))
    cursor = rng.draw_cursor
    assert rng.draw_below(1) == 0
    assert rng.draw_cursor == cursor + 1  # index slot consumed, no words needed


def test_draw_below_huge_bound():
    rng = RngStream(seed=9)
    bound = 3 * 10**19  # needs two 64-bit words
    values = [rng.draw_below(bound) for _ in range(200)]
    assert all(0 <= v < bound for v in values)
    assert max(values) > bound // 4  # sanity: actually spread out
    again = RngStream(seed=9)
    assert values == [again.draw_below(bound) for _ in range(200)]


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
    values = [rng.draw_below(bound) for _ in range(40)]
    assert all(0 <= v < bound for v in values)
    assert len(set(values)) == 40
    again = RngStream(seed=5, stream=1)
    assert values == [again.draw_below(bound) for _ in range(40)]


def test_overflow_words_np_matches_scalar():
    rng = RngStream(seed=42, stream=5)
    idx = np.arange(0, 50, dtype=np.uint64)
    for attempt in (64, 65, 700):
        vec = rng.overflow_words_np(idx, attempt)
        assert vec.tolist() == [rng.overflow_word(i, attempt, 0) for i in range(50)]


class _SaturatedBlocks(RngStream):
    """A stream whose in-block words are all ones, so a draw below a bound
    that is not a power of two only ever succeeds past its block."""

    def word(self, index):
        return (1 << 64) - 1

    def words_np(self, indices):
        return np.full(indices.shape, (1 << 64) - 1, dtype=np.uint64)


def test_engines_bit_identical_past_the_block():
    p = Parallelepiped([[4, 1], [1, 4]], translate=[2, 5])  # box ranges 5 and 5
    fast_rng = _SaturatedBlocks(seed=77, stream=9)
    exact_rng = _SaturatedBlocks(seed=77, stream=9)
    fast = p.sampler(fast_rng)
    exact = p.sampler(exact_rng, force_exact=True)
    assert fast._fast and not exact._fast
    samples = fast.take(200)
    assert samples == exact.take(200)
    assert fast_rng.draw_cursor == exact_rng.draw_cursor
    assert all(p.contains_integer_point(z) for z in samples)


class _BrokenGenerator(_SaturatedBlocks):
    """Every word all ones, overflow sub-streams included."""

    def overflow_word(self, index, attempt, w):
        return (1 << 64) - 1

    def overflow_words_np(self, indices, attempt):
        return np.full(indices.shape, (1 << 64) - 1, dtype=np.uint64)


def test_broken_generator_still_reported():
    with pytest.raises(SamplerError, match="generator fault"):
        _BrokenGenerator(seed=1).draw_below(5)
    p = Parallelepiped([[4, 1], [1, 4]])
    for force_exact in (False, True):
        sampler = p.sampler(_BrokenGenerator(seed=1), force_exact=force_exact)
        with pytest.raises(SamplerError, match="generator fault"):
            sampler.take(1)


def test_draw_int_inclusive():
    rng = RngStream(seed=3)
    values = [rng.draw_int(-2, 2) for _ in range(400)]
    assert set(values) == {-2, -1, 0, 1, 2}


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
    assert p1.det == p2.det != 0


def test_integer_box_half_open():
    cube = Parallelepiped([[5, 0], [0, 5]])
    assert cube.integer_box() == [(0, 4), (0, 4)]
    mixed = Parallelepiped([[1, -2], [0, 3]])
    box = mixed.integer_box()
    for z in mixed.enumerate_integer_points():
        for (lo, hi), coord in zip(box, z):
            assert lo <= coord <= hi


def test_enumerate_matches_membership():
    p = Parallelepiped([[3, 1], [1, 4]])
    points = p.enumerate_integer_points()
    assert len(points) == abs(p.det)  # unit-volume cells partition Z^2
    for z in points:
        assert p.contains_integer_point(z)
    assert not p.contains_integer_point((100, 100))


# ---------------------------------------------------------------------------
# rejection sampling
# ---------------------------------------------------------------------------


def test_cube_sampler_accepts_everything():
    p = Parallelepiped([[5, 0, 0], [0, 5, 0], [0, 0, 5]])
    rng = RngStream(seed=13)
    sampler = p.sampler(rng)
    samples = sampler.take(2000)
    assert sampler.acceptance_estimate == 1.0
    assert {s for s in samples} <= {tuple(v) for v in __import__("itertools").product(range(5), repeat=3)}
    assert len(set(samples)) == 125  # every point seen


def test_sampler_support_matches_enumeration():
    cases = [
        Parallelepiped([[1, 1], [0, 1]]),
        Parallelepiped([[3, 1], [1, 4]]),
        Parallelepiped([[2, -1], [1, 3]], translate=[7, -2]),
        Parallelepiped([[-2, 1], [1, -3]]),
    ]
    for p in cases:
        expected = set(p.enumerate_integer_points())
        rng = RngStream(seed=101, stream=abs(p.det))
        draws = p.sampler(rng).take(220 * max(1, len(expected)))
        got = set(draws)
        assert got == expected


def test_degenerate_direction_single_point():
    p = Parallelepiped([[1, 1], [0, 1]])
    assert p.enumerate_integer_points() == [(0, 0)]
    rng = RngStream(seed=2)
    assert sample_integer_point(p, rng) == (0, 0)


def test_boundary_points_excluded():
    p = Parallelepiped([[2, 0], [0, 2]])
    expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
    rng = RngStream(seed=4)
    assert set(p.sampler(rng).take(400)) == expected


def test_engines_bit_identical():
    p = Parallelepiped([[3, 1], [1, 4]], translate=[2, 5])
    fast_rng = RngStream(seed=77, stream=9)
    exact_rng = RngStream(seed=77, stream=9)
    fast = p.sampler(fast_rng)
    exact = p.sampler(exact_rng, force_exact=True)
    assert fast._fast and not exact._fast
    assert fast.take(500) == exact.take(500)
    assert fast_rng.draw_cursor == exact_rng.draw_cursor


def test_take_granularity_irrelevant():
    p = Parallelepiped([[3, 1], [1, 4]])
    one = p.sampler(RngStream(seed=6)).take(60)
    other_rng = RngStream(seed=6)
    other = p.sampler(other_rng)
    pieces = []
    for chunk in (1, 2, 7, 50):
        pieces.extend(other.take(chunk))
    assert pieces == one


def test_exact_engine_huge_entries():
    c = 10**18
    rng = RngStream(seed=21)
    p = random_parallelepiped(2, c, rng)
    sampler = p.sampler(rng)
    assert not sampler._fast  # magnitudes force the big-integer engine
    for z in sampler.take(5):
        assert p.contains_integer_point(z)


def test_max_rejects_error_carries_estimate():
    thin = Parallelepiped([[1, 3000], [0, 1]])
    rng = RngStream(seed=123)
    with pytest.raises(SamplerError) as info:
        thin.sampler(rng, max_rejects=40).take(50)
    assert 0 <= info.value.acceptance_estimate < 0.2


def test_uniformity_chi_square():
    # 10 seeds, chi-square at significance 1e-3 against the enumerated
    # support; by design one failing seed is tolerated.
    p = Parallelepiped([[3, 1], [1, 4]])
    support = p.enumerate_integer_points()
    index = {z: i for i, z in enumerate(support)}
    draws_per_seed = 10**5
    critical = scipy.stats.chi2.isf(1e-3, df=len(support) - 1)
    passes = 0
    for seed in range(10):
        counts = [0] * len(support)
        sampler = p.sampler(RngStream(seed=seed, stream=1))
        for z in sampler.take(draws_per_seed):
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
    sampler = WindowSampler(Z2, Window(2, 3), RngStream(seed=31))
    draws = sampler.take(1500)
    assert set(draws) == {(x, y) for x in range(3) for y in range(3)}
    assert sampler.acceptance_estimate == 1.0


def test_window_sampler_scaled_lattice():
    lattice = LatticeBasis.from_columns([[2, 0], [0, 2]])
    draws = WindowSampler(lattice, Window(2, 3), RngStream(seed=32)).take(800)
    assert set(draws) == {(0, 0), (0, 2), (2, 0), (2, 2)}


def test_window_sampler_matches_enumeration_support():
    lattice = LatticeBasis.from_columns([[2, 1], [1, 3]])
    window = Window(2, 6)
    expected = set(enumerate_window(lattice, window))
    draws = WindowSampler(lattice, window, RngStream(seed=33)).take(
        250 * len(expected)
    )
    assert set(draws) == expected


def test_window_sampler_membership_contract():
    lattice = LatticeBasis.from_columns([[Fraction(3, 2), 0], [1, 2]])
    bound = Fraction(5)
    for point in WindowSampler(lattice, Window(2, bound), RngStream(seed=34)).take(300):
        assert all(0 <= c < bound for c in point)


def test_sample_lattice_point_single():
    point = sample_lattice_point_in_window(Z2, Window(2, 3), RngStream(seed=35))
    assert all(0 <= c < 3 for c in point)
