"""Finite abelian group generation: exact formulas vs exhaustive counts.

The subgroup-closure oracle walks the additive closure of the chosen
elements inside the group and compares its size to the group order; it
shares no code with ``generates``, the normal-form test it checks.
"""

import random
from collections import namedtuple
from fractions import Fraction
from itertools import product

import pytest

from latgen.bounds import ideal_probability
from latgen.exactmat import unimodular_columns
from latgen.groupgen import (
    FiniteAbelianGroup,
    abelian_groups_of_order,
    abelian_groups_up_to,
    generation_prob_exact,
    lambda_t_pgroup,
    quotient_group,
)
from oracles import generation_prob_bruteforce, zeta_hat


def generates(group, elems):
    """True iff the elements generate the group: their reduced coordinate
    columns beside diag(d_1..d_k) generate Z^k.  With two or more
    elements that is more than k + 1 columns, the modular path of
    ``unimodular_columns``."""
    k = group.ngens
    cols = [[c % d for c, d in zip(e, group.invariant_factors)] for e in elems]
    for i, d in enumerate(group.invariant_factors):
        cols.append([d * (r == i) for r in range(k)])
    return k == 0 or unimodular_columns(cols, k)


def group_add(group, a, b):
    """a + b in the group, coordinate by coordinate mod its invariant factors."""
    return tuple((x + y) % d for x, y, d in zip(a, b, group.invariant_factors))


def closure_size(group, elems):
    """Additive closure of the elements (plus 0) inside the group."""
    seen = {(0,) * group.ngens}
    frontier = list(seen)
    elems = [tuple(c % d for c, d in zip(e, group.invariant_factors)) for e in elems]
    while frontier:
        nxt = []
        for point in frontier:
            for g in elems:
                cand = group_add(group, point, g)
                if cand not in seen:
                    seen.add(cand)
                    nxt.append(cand)
        frontier = nxt
    return len(seen)


def generates_by_closure(group, elems):
    return closure_size(group, elems) == group.order


def count_generating_tuples(group, t):
    """Literal enumeration of all |G|^t tuples (tiny groups only)."""
    total = 0
    for tup in product(list(group.elements()), repeat=t):
        if generates_by_closure(group, tup):
            total += 1
    return total


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_group_normalization():
    g = FiniteAbelianGroup([1, 1, 2, 6])
    assert g.invariant_factors == (2, 6)
    assert g.order == 12
    assert g.ngens == 2
    assert FiniteAbelianGroup([]).order == 1


def test_group_rejects_broken_chain():
    with pytest.raises(ValueError):
        FiniteAbelianGroup([4, 6])
    with pytest.raises(ValueError):
        FiniteAbelianGroup([0, 2])


def test_elements_and_reduction():
    g = FiniteAbelianGroup([2, 4])
    assert len(list(g.elements())) == 8


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def test_quotient_examples():
    g, proj = quotient_group([(2, 0), (0, 3)])
    assert g.invariant_factors == (6,)
    # projection is a homomorphism vanishing exactly on the sublattice
    assert proj((2, 0)) == (0,)
    assert proj((0, 3)) == (0,)
    images = {proj((x, y)) for x in range(2) for y in range(3)}
    assert len(images) == 6

    trivial, _ = quotient_group([(1, 0), (0, 1)])
    assert trivial.invariant_factors == ()

    g22, _ = quotient_group([(2, 0), (0, 2)])
    assert g22.invariant_factors == (2, 2)


def test_quotient_projection_additive():
    g, proj = quotient_group([(4, 2), (0, 6)])
    rng = random.Random(5)
    for _ in range(30):
        v = (rng.randint(-9, 9), rng.randint(-9, 9))
        w = (rng.randint(-9, 9), rng.randint(-9, 9))
        s = (v[0] + w[0], v[1] + w[1])
        assert proj(s) == group_add(g, proj(v), proj(w))


def test_quotient_order_equals_index():
    rng = random.Random(6)
    for _ in range(25):
        cols = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
        d = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
        if d == 0:
            continue
        g, _ = quotient_group(cols)
        assert g.order == abs(d)


def test_quotient_errors():
    with pytest.raises(ValueError):
        quotient_group([(1, 0)])
    with pytest.raises(ValueError):
        quotient_group([(1, 0), (2, 0)])


# ---------------------------------------------------------------------------
# p-group formula
# ---------------------------------------------------------------------------


def test_lambda_t_examples():
    assert lambda_t_pgroup(2, 1, 2) == Fraction(3, 4)
    assert lambda_t_pgroup(3, 2, 2) == Fraction(16, 27)
    assert lambda_t_pgroup(5, 3, 3) == (
        (1 - Fraction(1, 5)) * (1 - Fraction(1, 25)) * (1 - Fraction(1, 125))
    )
    assert lambda_t_pgroup(2, 3, 1) == 0


def test_lambda_t_rejects_nonprime():
    with pytest.raises(ValueError):
        lambda_t_pgroup(6, 1, 2)


def test_lambda_t_two_product_forms_agree():
    # prod_{i=1}^{d} (1 - p^-i) * prod_{i=d+1}^{t} (p^(i-d) - p^-d)/(p^(i-d) - 1)
    for p in (2, 3, 5, 7):
        for d in range(1, 4):
            for t in range(d, d + 4):
                first = Fraction(1)
                for i in range(1, d + 1):
                    first *= 1 - Fraction(1, p**i)
                for i in range(d + 1, t + 1):
                    first *= Fraction(
                        Fraction(p ** (i - d)) - Fraction(1, p**d),
                        p ** (i - d) - 1,
                    )
                assert first == lambda_t_pgroup(p, d, t)


def test_lambda_t_matches_tiny_enumeration():
    assert lambda_t_pgroup(2, 1, 2) == Fraction(
        count_generating_tuples(FiniteAbelianGroup([2]), 2), 4
    )
    assert lambda_t_pgroup(3, 2, 2) == Fraction(
        count_generating_tuples(FiniteAbelianGroup([3, 3]), 2), 81
    )


# ---------------------------------------------------------------------------
# exact generation probability
# ---------------------------------------------------------------------------


def test_generation_prob_exact_examples():
    assert generation_prob_exact(FiniteAbelianGroup([]), 3) == 1
    assert generation_prob_exact(FiniteAbelianGroup([6]), 2) == Fraction(2, 3)
    assert generation_prob_exact(FiniteAbelianGroup([2, 2]), 3) == Fraction(21, 32)
    assert generation_prob_exact(FiniteAbelianGroup([2, 2]), 1) == 0


def test_generation_prob_monotone_in_t():
    for factors in ([2], [6], [2, 4], [3, 9], [2, 2, 2]):
        g = FiniteAbelianGroup(factors)
        values = [generation_prob_exact(g, t) for t in range(g.ngens, g.ngens + 5)]
        assert all(a <= b for a, b in zip(values, values[1:]))


def test_bruteforce_matches_exact_small_sweep():
    for g in abelian_groups_up_to(40):
        for t in range(1, 4):
            assert generation_prob_bruteforce(g, t) == generation_prob_exact(g, t)


def test_bruteforce_matches_naive_enumeration():
    for factors in ([2], [4], [2, 2], [6]):
        g = FiniteAbelianGroup(factors)
        for t in (1, 2, 3):
            naive = Fraction(count_generating_tuples(g, t), g.order**t)
            assert generation_prob_bruteforce(g, t) == naive


def test_bruteforce_guard():
    with pytest.raises(ValueError, match="guard"):
        generation_prob_bruteforce(FiniteAbelianGroup([1000]), 3)


def test_no_tuple_generates_below_minimal_count():
    g = FiniteAbelianGroup([2, 2])
    assert generation_prob_bruteforce(g, 1) == 0
    for e in g.elements():
        assert not generates(g, [e])


# ---------------------------------------------------------------------------
# generates
# ---------------------------------------------------------------------------


def test_generates_examples():
    g = FiniteAbelianGroup([2, 4])
    assert generates(g, [(1, 0), (0, 1)])
    assert generates(g, [(1, 1), (0, 1)])
    assert not generates(FiniteAbelianGroup([4]), [(2,)])
    assert generates(FiniteAbelianGroup([]), [])


def test_generates_matches_closure_oracle():
    rng = random.Random(314)
    pool = [
        FiniteAbelianGroup([4]),
        FiniteAbelianGroup([2, 2]),
        FiniteAbelianGroup([2, 4]),
        FiniteAbelianGroup([3, 3]),
        FiniteAbelianGroup([12]),
        FiniteAbelianGroup([2, 2, 2]),
    ]
    for _ in range(300):
        g = rng.choice(pool)
        t = rng.randint(0, 3)
        elems = [
            tuple(rng.randrange(d) for d in g.invariant_factors) for _ in range(t)
        ]
        assert generates(g, elems) == generates_by_closure(g, elems)


def test_generates_invariances():
    g = FiniteAbelianGroup([2, 6])
    elems = [(1, 1), (0, 5), (1, 3)]
    reference = generates(g, elems)
    assert generates(g, elems[::-1]) == reference
    negated = [tuple((-c) % d for c, d in zip(e, g.invariant_factors)) for e in elems]
    assert generates(g, negated) == reference


# ---------------------------------------------------------------------------
# group enumeration and the generation-bound report
# ---------------------------------------------------------------------------


def test_abelian_groups_of_order():
    assert [g.invariant_factors for g in abelian_groups_of_order(1)] == [()]
    assert sorted(g.invariant_factors for g in abelian_groups_of_order(8)) == [
        (2, 2, 2),
        (2, 4),
        (8,),
    ]
    assert sorted(g.invariant_factors for g in abelian_groups_of_order(12)) == [
        (2, 6),
        (12,),
    ]
    assert len(abelian_groups_of_order(200)) == 6
    for g in abelian_groups_of_order(72):
        assert g.order == 72


def _library_groups(n):
    """Groups with at most n generators exercising varied prime mixes."""
    groups = [
        FiniteAbelianGroup([]),
        FiniteAbelianGroup([2] * n),
        FiniteAbelianGroup([6] * n),
        FiniteAbelianGroup([30] * max(1, n - 1)),
        FiniteAbelianGroup([12]),
        FiniteAbelianGroup([2**i for i in range(1, n + 1)]),
        FiniteAbelianGroup([2, 4] + [12] * max(0, n - 2)),
    ]
    # dedupe while preserving order
    seen = set()
    unique = []
    for g in groups:
        if g.invariant_factors not in seen and g.ngens <= n:
            seen.add(g.invariant_factors)
            unique.append(g)
    return unique


Prop1Row = namedtuple("Prop1Row", "factors n t probability bound_lower ok")


def proposition1_check(n_max):
    """Rows checking that every n-generated library group is generated by
    n + 1 uniform elements with probability at least the certified
    zeta-product lower bound (itself at least the infinite-product
    constant)."""
    rows = []
    hat_lower = zeta_hat().lo
    for n in range(1, n_max + 1):
        bound_lower = ideal_probability(n, n + 1).lo
        assert bound_lower >= hat_lower
        for group in _library_groups(n):
            prob = generation_prob_exact(group, n + 1)
            ok = prob >= bound_lower
            rows.append(Prop1Row(group.invariant_factors, n, n + 1, prob, bound_lower, ok))
    return rows


def test_proposition1_check_passes():
    rows = proposition1_check(4)
    assert all(row.ok for row in rows)
    assert len(rows) > 10
    worst = FiniteAbelianGroup([2] * 3)
    row = next(r for r in rows if r.factors == worst.invariant_factors and r.n == 3)
    assert row.probability >= row.bound_lower


def test_counterexample_family_decays():
    # (Z/(p_1..p_j))^n with only t = n samples: probability drops with j
    primes = [2, 3, 5, 7]
    n = 2
    previous = None
    for j in range(1, 5):
        modulus = 1
        for p in primes[:j]:
            modulus *= p
        g = FiniteAbelianGroup([modulus] * n)
        prob = generation_prob_exact(g, n)
        assert prob > 0
        if previous is not None:
            assert prob < previous
        previous = prob
