"""Bound pipeline: enclosures, zeta products, totients, coprimality.

Expected constants asserted here were cross-checked against the certified
enclosures themselves plus independent oracles (gcd counting for
coprimality, direct rational substitution for the closed forms).
"""

from fractions import Fraction
from math import gcd

import pytest

from latgen.bounds import (
    _GRID_DIGITS,
    alpha,
    fullrank_lower_bound,
    ideal_probability,
    pk_bound,
    totients,
    tv_bound,
    window_thresholds,
    zeta,
)
from latgen.enclosure import Enclosure, half_power, sqrt_enclosure
from latgen.experiments import run_coprime_table
from oracles import contains_enclosure, totient_summatory, zeta_hat


def coprime_pairs_bruteforce(n):
    """O(n^2) gcd count of {(x, y) in [0, n]^2 : gcd(x, y) = 1}."""
    return sum(
        1 for x in range(n + 1) for y in range(n + 1) if gcd(x, y) == 1
    )


# ---------------------------------------------------------------------------
# enclosure primitives
# ---------------------------------------------------------------------------


def test_enclosure_arithmetic():
    a = Enclosure(Fraction(1, 3), Fraction(1, 2))
    assert (a**2).contains(Fraction(1, 5))
    with pytest.raises(ZeroDivisionError):
        Enclosure(0, 2).reciprocal()
    assert (1 / a).contains(Fraction(5, 2))


def test_enclosure_refuses_negative_values():
    with pytest.raises(ValueError):
        Enclosure(-1, 2)
    with pytest.raises(ValueError):
        Enclosure(1, 2) - 3
    with pytest.raises(ValueError):
        1 - Enclosure(0, 2)


def test_sqrt_enclosure_brackets():
    for value in (2, 3, Fraction(1, 2), 10**12 + 7):
        enc = sqrt_enclosure(value, 25)
        assert enc.lo * enc.lo <= value <= enc.hi * enc.hi
        assert enc.hi - enc.lo <= Fraction(1, 10**25)
    assert sqrt_enclosure(Fraction(9, 4), 10) == Enclosure.exact(Fraction(3, 2))


def test_half_power():
    assert half_power(3, 4, 10) == Enclosure.exact(9)
    assert half_power(Fraction(1, 2), 0, 10) == Enclosure.exact(1)
    odd = half_power(3, 5, 20)  # 9 sqrt(3)
    assert odd == 9 * sqrt_enclosure(3, 20)
    assert odd.lo**2 <= 3**5 <= odd.hi**2
    assert half_power(Fraction(9, 4), 3, 10) == Enclosure.exact(Fraction(27, 8))


def test_round_outward_nests_on_finer_grids():
    e = Enclosure(Fraction(1, 3), Fraction(2, 3))
    coarse = e.round_outward(3)
    fine = e.round_outward(9)
    assert contains_enclosure(coarse, fine)


# ---------------------------------------------------------------------------
# zeta
# ---------------------------------------------------------------------------


def test_zeta_two_contains_pi_squared_over_six():
    enc = zeta(2)
    # pi^2 / 6 = 1.6449340668482264364724151666460251892189...
    ref = Fraction(16449340668482264364724151666460251892189, 10**40)
    assert enc.contains(ref)
    assert enc.hi - enc.lo < Fraction(1, 10**30)


def test_zeta_ten_bracket():
    enc = zeta(10)
    assert Fraction(10009, 10000) < enc.lo and enc.hi < Fraction(1001, 1000)


def test_zeta_width_contract():
    for s in (2, 3, 7, 19, 40, 120):
        enc = zeta(s)
        assert enc.hi - enc.lo < Fraction(2, 10**38)


def test_zeta_rejects_small_s():
    with pytest.raises(ValueError):
        zeta(1)


def test_zeta_hat_digits():
    enc = zeta_hat()
    assert enc.lo >= Fraction(434, 1000)
    assert enc.hi <= Fraction(6080, 10000)
    # certified decimal expansion starts 0.43575707677...
    assert Fraction(43575707677, 10**11) < enc.lo
    assert enc.hi < Fraction(43575707678, 10**11)
    assert enc.hi - enc.lo < Fraction(1, 10**25)


# ---------------------------------------------------------------------------
# ideal probabilities
# ---------------------------------------------------------------------------

IDEAL_PERCENTS = {
    1: "60.7927",
    4: "45.0631",
    15: "43.5764",
}


def test_ideal_probability_tabulated_values():
    for n, printed in IDEAL_PERCENTS.items():
        enc = ideal_probability(n, n + 1) * 100
        target = Fraction(printed)
        assert enc.lo - Fraction(1, 10**4) / 2 <= target <= enc.hi + Fraction(1, 10**4) / 2
        assert abs(enc.mid - target) < Fraction(1, 10**4)


def test_ideal_probability_square_and_errors():
    assert ideal_probability(3, 3) == Enclosure.exact(0)
    with pytest.raises(ValueError):
        ideal_probability(3, 2)


def test_ideal_probability_decreasing_to_zeta_hat():
    prev = None
    for n in range(1, 12):
        enc = ideal_probability(n, n + 1)
        if prev is not None:
            assert enc.hi < prev.lo
        prev = enc
    limit = ideal_probability(40, 41)
    hat = zeta_hat()
    assert limit.hi >= hat.lo and limit.lo <= hat.hi + Fraction(1, 10**10)
    assert limit.lo > hat.lo  # still strictly above the infinite product


# ---------------------------------------------------------------------------
# P_k, full-rank product, alpha
# ---------------------------------------------------------------------------


def test_pk_bound_hand_value():
    enc = pk_bound(1, 8, 0)
    assert enc.contains(Fraction(1, 3))
    assert enc.hi - enc.lo < Fraction(1, 10**20)


def test_pk_bound_k_zero_closed_form():
    for n in (1, 2, 3, 5):
        for j in (5, 9, Fraction(17, 2)):
            enc = pk_bound(n, j, 0)
            assert enc.contains(Fraction(2**n) / (Fraction(j) - 2) ** n)


def test_pk_bound_rejects_small_ratio():
    with pytest.raises(ValueError):
        pk_bound(2, 2, 0)


def test_pk_sum_below_half_at_reference_ratio():
    for n in range(1, 9):
        j = 8 * half_power(n, n, _GRID_DIGITS)  # the ratio 8 n^(n/2)
        total = Enclosure.exact(0)
        for k in range(n):
            total = total + pk_bound(n, j, k)
        assert total.hi < Fraction(1, 2)


FULLRANK_TABLE = {
    1: "0.666",
    2: "0.725",
    3: "0.812",
    4: "0.859",
    5: "0.883",
    6: "0.896",
    7: "0.905",
}


def test_fullrank_lower_bound_table():
    for n, printed in FULLRANK_TABLE.items():
        enc = fullrank_lower_bound(n)
        assert abs(enc.mid - Fraction(printed)) <= Fraction(1, 1000)
        assert enc.hi - enc.lo < Fraction(1, 10**15)


def test_fullrank_exact_small_case():
    assert fullrank_lower_bound(1).contains(Fraction(2, 3))


def test_fullrank_increasing():
    values = [fullrank_lower_bound(n) for n in range(1, 8)]
    for a, b in zip(values, values[1:]):
        assert b.lo > a.hi


def test_alpha_values():
    # alpha_2 ~ 0.18545, alpha_5 ~ 0.17038; the documented reference list
    # (0.238, 0.185, 0.176, 0.172, 0.170) lines up with n = 1..5.
    a2 = alpha(2)
    assert a2.lo > Fraction(185, 1000)
    assert a2.hi < Fraction(186, 1000)
    a3 = alpha(3)
    assert a3.lo > Fraction(176, 1000)
    a5 = alpha(5)
    assert a5.lo > Fraction(170, 1000)
    with pytest.raises(ValueError):
        alpha(1)


def test_alpha_floor_and_limit():
    hat = zeta_hat()
    for n in range(2, 51):
        enc = alpha(n)
        assert enc.lo >= Fraction(92, 1000)
    a50 = alpha(50)
    target = hat - Fraction(1, 4)
    assert a50.hi < target.hi  # approaches the limit from below
    assert a50.lo > Fraction(17, 100)
    assert fullrank_lower_bound(50).lo > Fraction(96, 100)


# ---------------------------------------------------------------------------
# total variation bound and window thresholds
# ---------------------------------------------------------------------------


def test_tv_bound_values():
    assert tv_bound(2, 100, 0, 0) == 0
    assert tv_bound(2, 100, 1, 1) == 1 - Fraction(98, 102) ** 2
    assert tv_bound(1, 101, 1, Fraction(1, 2)) == Fraction(1, 34)
    with pytest.raises(ValueError):
        tv_bound(2, 2, 1, 1)


def test_tv_bound_monotone_in_radii():
    base = tv_bound(3, 1000, 5, 5)
    assert tv_bound(3, 1000, 6, 5) > base
    assert tv_bound(3, 1000, 5, 6) > base


def test_tv_bound_vanishes_for_huge_windows():
    assert tv_bound(2, 10**12, 1, 1) < Fraction(1, 10**10)


def test_tv_chain_quarter_bound():
    # nu1 <= n B / 2 and B1 = 8 n^2 (n+1) B force the bound below 1/(4(n+1))
    for n in range(2, 31):
        b = Fraction(1)
        nu1 = n * b / 2
        b1 = 8 * n * n * (n + 1) * b
        assert tv_bound(n, b1, nu1, nu1) <= Fraction(1, 4 * (n + 1))


def test_window_thresholds():
    b_min, b1_min = window_thresholds(2, 1)
    assert b_min == 16
    assert b1_min == 1536
    with pytest.raises(ValueError):
        window_thresholds(1, 1)
    # linear scaling in nu
    b2, b12 = window_thresholds(3, 2)
    b1x, b11 = window_thresholds(3, 1)
    assert b2 == 2 * b1x and b12 == 2 * b11
    # odd n rounds the sqrt factor upward
    assert b1x >= 8 * Fraction(3**3) ** Fraction(1, 2) - Fraction(1, 10**6)


# ---------------------------------------------------------------------------
# totients and coprimality
# ---------------------------------------------------------------------------


def test_totient_summatory_values():
    assert totient_summatory(1) == 1
    assert totient_summatory(10) == 32


def test_totients_match_gcd_definition():
    phi = totients(200)
    for k in (1, 2, 12, 97, 143, 200):
        direct = sum(1 for x in range(k) if gcd(x, k) == 1)
        if k == 1:
            direct = 1
        assert phi[k] == direct


def test_summatory_matches_pair_count_oracle():
    for n in (1, 10, 137, 300):
        assert 2 * totient_summatory(n) + 1 == coprime_pairs_bruteforce(n)


def test_summatory_matches_pair_count_at_1000():
    assert 2 * totient_summatory(1000) + 1 == coprime_pairs_bruteforce(1000)


def test_coprime_prob_exact_values():
    assert [row.ratio for row in run_coprime_table(1).rows] == [Fraction(3, 2)]
    ratios = [row.ratio for row in run_coprime_table(10).rows]
    assert ratios[:2] == [Fraction(3, 2), Fraction(5, 6)]
    assert ratios[9] == Fraction(13, 22)


def test_coprime_prob_matches_bruteforce_counts():
    # incremental pairwise-gcd count, no totients involved
    count = 0  # the pair (0, 0) is not coprime
    ratios = [row.ratio for row in run_coprime_table(300).rows]
    for n in range(1, 301):
        count += 1 if gcd(n, n) == 1 else 0
        for t in range(n):
            count += 1 if gcd(t, n) == 1 else 0
            count += 1 if gcd(n, t) == 1 else 0
        assert ratios[n - 1] == Fraction(count, n * (n + 1))


def test_coprime_minimum_at_ten():
    table = run_coprime_table(1000)
    values = {row.n: row.ratio for row in table.rows}
    floor = Fraction(13, 22)
    assert all(v >= floor for v in values.values())
    assert [n for n, v in values.items() if v == floor] == [10]
    assert table.ok and Fraction(table.header["minimum"]) == floor
    assert table.header["argmin"] == [10]
