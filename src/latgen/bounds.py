"""Closed-form probability bounds, certified on one fixed decimal grid.

Every non-rational constant is produced as an :class:`Enclosure` whose
endpoints are exact rationals, so "matches the printed table to k
decimals" is a decidable assertion rather than a floating-point hope.
Purely rational quantities (the total-variation bound) are returned as
exact ``Fraction`` values.

zeta(s) is evaluated by partial summation with a certified
Euler-Maclaurin tail: the correction terms alternate and decay fast at
the fixed cutoff N = 48, the remainder is enveloped by the first omitted
term, and we keep a 3x safety margin on top.  A plain integral tail
bound cannot reach 30-digit widths for small s in any feasible number of
terms, which is why the corrections are needed at all; for large s the
integral bracket alone is already below the grid and is used directly.

Every enclosure rounds outward on the one grid 10**-(PRECISION + 8),
with ``PRECISION`` = 30: the paper quotes its constants to three or four
decimals, so 30 leaves every printed digit decided with room to spare.
``zeta``, ``zeta_inv`` and ``fullrank_lower_bound`` are cached by their
one argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .enclosure import Enclosure, half_power

_EULER_MACLAURIN_N = 48

PRECISION = 30
_GRID_DIGITS = PRECISION + 8

# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, cached)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, computed by the defining recurrence."""
    if n == 0:
        return Fraction(1)
    # sum_{j=0}^{n} C(n+1, j) B_j = 0
    acc = Fraction(0)
    binom = 1  # C(n+1, 0)
    for j in range(n):
        acc += binom * _bernoulli(j)
        binom = binom * (n + 1 - j) // (j + 1)
    return -acc / (n + 1)


# ---------------------------------------------------------------------------
# zeta enclosures
# ---------------------------------------------------------------------------


def _zeta_raw(s: int) -> Enclosure:
    n = _EULER_MACLAURIN_N
    tol = Fraction(1, 10 ** (_GRID_DIGITS + 2))
    partial = sum(Fraction(1, k**s) for k in range(1, n))
    integral = Fraction(1, (s - 1) * n ** (s - 1))
    f_n = Fraction(1, n**s)
    if f_n < tol:
        # integral bracket: sum_{k>=N} k^-s lies in [I, I + N^-s]
        return Enclosure(partial + integral, partial + integral + f_n)
    total = partial + integral + f_n / 2
    # correction terms t_j = B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^(1-s-2j)
    poch = Fraction(s)  # rising factorial s(s+1)...(s+2j-2)
    fact = 2  # (2j)!
    j = 1
    prev_abs: Optional[Fraction] = None
    while True:
        term = _bernoulli(2 * j) / fact * poch * Fraction(1, n ** (s + 2 * j - 1))
        t_abs = abs(term)
        if prev_abs is not None and 4 * t_abs > prev_abs:
            raise ArithmeticError(
                f"zeta tail terms stopped decaying at s={s}, j={j} "
                "before reaching the certified grid"
            )
        if 3 * t_abs < tol:
            # remainder enveloped by first omitted term; 3x safety margin
            return Enclosure(total - 3 * t_abs, total + 3 * t_abs)
        total += term
        prev_abs = t_abs
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        j += 1


@lru_cache(maxsize=None)
def zeta(s: int) -> Enclosure:
    if s < 2:
        raise ValueError("zeta enclosure defined for integer s >= 2")
    return _zeta_raw(s).round_outward(_GRID_DIGITS)


@lru_cache(maxsize=None)
def zeta_inv(s: int) -> Enclosure:
    """Enclosure of 1/zeta(s), clamped into the true range (1-2^(1-s), 1)."""
    return zeta(s).reciprocal().intersect(
        Enclosure(1 - Fraction(1, 2 ** (s - 1)), 1)
    )


# ---------------------------------------------------------------------------
# probability bounds
# ---------------------------------------------------------------------------


def ideal_probability(n: int, m: int) -> Enclosure:
    """Enclosure of prod_{j=m-n+1}^{m} zeta(j)^-1, the large-window limit of
    the probability that an n x m random integer matrix is unimodular.

    For m = n the limit is 0 and we return it exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < n:
        raise ValueError("m < n cannot generate")
    if m == n:
        return Enclosure.exact(0)
    acc = Enclosure.exact(1)
    for j in range(m - n + 1, m + 1):
        acc = (acc * zeta_inv(j)).round_outward(_GRID_DIGITS)
    return acc


def pk_bound(n: int, j: Union[int, Fraction, Enclosure], k: int) -> Enclosure:
    """Hyperplane-hit bound n^(k/2) (j+2)^k 2^(n-k) / (j-2)^n for a window
    of j covering radii, 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    j_enc = Enclosure._coerce(j)
    if j_enc.lo <= 2:
        raise ValueError("window ratio j must exceed 2")
    value = (
        half_power(n, k, _GRID_DIGITS)
        * (j_enc + 2) ** k
        * (2 ** (n - k))
        / (j_enc - 2) ** n
    )
    return value.round_outward(_GRID_DIGITS)


@lru_cache(maxsize=None)
def fullrank_lower_bound(n: int) -> Enclosure:
    """Enclosure of prod_{k=0}^{n-1} (1 - n^(k/2) (4n^(n/2)+1)^k / (4n^(n/2)-1)^n),
    the lower bound on n samples spanning full rank at window ratio 8 n^(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    # factor k is 1 - pk_bound at window ratio j = 8 n^(n/2)
    j = 8 * half_power(n, n, _GRID_DIGITS)
    acc = Enclosure.exact(1)
    for k in range(n):
        acc = (acc * (1 - pk_bound(n, j, k))).round_outward(_GRID_DIGITS)
    return acc


def alpha(n: int) -> Enclosure:
    """Certified enclosure of the constant generation-probability bound

        (prod_{i=2}^{n+1} zeta(i)^-1 - 1/4) * fullrank_lower_bound(n).

    Defined for n >= 2; the same product evaluated at n = 1 would give
    about 0.238 but is outside this function's domain.
    """
    if n < 2:
        raise ValueError("alpha is defined for n >= 2")
    value = (ideal_probability(n, n + 1) - Fraction(1, 4)) * fullrank_lower_bound(n)
    return value.round_outward(_GRID_DIGITS)


def tv_bound(
    n: int,
    b1: Union[int, Fraction],
    nu1_upper: Union[int, Fraction],
    nu_upper: Union[int, Fraction],
) -> Fraction:
    """Total-variation bound 1 - (B1 - 2 nu1)^n / (B1 + 2 nu)^n.

    Increasing in both covering-radius arguments, so any upper bounds for
    them give a valid bound.  Requires B1 > 2 nu1.
    """
    b1 = Fraction(b1)
    nu1 = Fraction(nu1_upper)
    nu = Fraction(nu_upper)
    if n < 1:
        raise ValueError("n must be >= 1")
    if nu1 < 0 or nu < 0:
        raise ValueError("covering radii are nonnegative")
    if b1 <= 2 * nu1:
        raise ValueError("hypothesis violated: need B1 > 2 * nu1")
    return 1 - (b1 - 2 * nu1) ** n / (b1 + 2 * nu) ** n


def window_thresholds(n: int, nu_upper: Union[int, Fraction]) -> tuple[Fraction, Fraction]:
    """Least window bounds (B_min, B1_min) = (8 n^(n/2) nu, 8 n^2 (n+1) B_min).

    n^(n/2) for odd n is rounded up, so the returned thresholds remain
    valid lower limits on admissible windows.  n = 1 is rejected: the
    two-window analysis starts at n = 2.
    """
    nu = Fraction(nu_upper)
    if nu <= 0:
        raise ValueError("nu_upper must be positive")
    if n < 2:
        raise ValueError("window thresholds are defined for n >= 2")
    b_min = 8 * half_power(n, n, _GRID_DIGITS).hi * nu
    return b_min, 8 * n * n * (n + 1) * b_min


# ---------------------------------------------------------------------------
# totients and the coprimality ratio
# ---------------------------------------------------------------------------

_SIEVE_LIMIT = 10**7


def totients(limit: int) -> list[int]:
    """phi(0..limit) by the smallest-prime-factor linear sieve."""
    if not 1 <= limit <= _SIEVE_LIMIT:
        raise ValueError(f"limit must be in [1, {_SIEVE_LIMIT}]")
    phi = [0] * (limit + 1)
    phi[1] = 1
    primes: list[int] = []
    for i in range(2, limit + 1):
        if phi[i] == 0:
            phi[i] = i - 1
            primes.append(i)
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            if i % p == 0:
                phi[ip] = phi[i] * p
                break
            phi[ip] = phi[i] * (p - 1)
    return phi
