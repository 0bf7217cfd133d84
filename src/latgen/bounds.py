"""Closed-form probability bounds, certified to requested precision.

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
"""

from __future__ import annotations

import threading
from fractions import Fraction
from typing import Optional, Union

from .enclosure import Enclosure, half_power

_EULER_MACLAURIN_N = 48
_MAX_PRECISION = 50

# ---------------------------------------------------------------------------
# Bernoulli numbers (exact, cached)
# ---------------------------------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def _bernoulli(n: int) -> Fraction:
    """B_n with B_1 = -1/2, computed by the defining recurrence."""
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            # sum_{j=0}^{m} C(m+1, j) B_j = 0
            acc = Fraction(0)
            binom = 1  # C(m+1, 0)
            for j in range(m):
                acc += binom * _bernoulli_cache[j]
                binom = binom * (m + 1 - j) // (j + 1)
            _bernoulli_cache.append(-acc / (m + 1))
        return _bernoulli_cache[n]


# ---------------------------------------------------------------------------
# zeta enclosures
# ---------------------------------------------------------------------------


def _zeta_raw(s: int, grid_digits: int) -> Enclosure:
    n = _EULER_MACLAURIN_N
    tol = Fraction(1, 10 ** (grid_digits + 2))
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
                f"zeta tail terms stopped decaying at s={s}, j={j}; "
                "precision beyond the supported range"
            )
        if 3 * t_abs < tol:
            # remainder enveloped by first omitted term; 3x safety margin
            return Enclosure(total - 3 * t_abs, total + 3 * t_abs)
        total += term
        prev_abs = t_abs
        poch *= (s + 2 * j - 1) * (s + 2 * j)
        fact *= (2 * j + 1) * (2 * j + 2)
        j += 1


class ZetaContext:
    """Shared cache of zeta enclosures at a fixed working precision.

    The cache fill is synchronized, so a context can be shared by
    concurrent readers.  All derived enclosures round outward on the
    10**-(precision+8) grid; grids at higher precision refine ones at
    lower precision, so recomputation at higher precision nests.
    """

    def __init__(self, precision: int = 30):
        if not 1 <= precision <= _MAX_PRECISION:
            raise ValueError(f"precision must be in [1, {_MAX_PRECISION}]")
        self.precision = precision
        self.grid_digits = precision + 8
        self._lock = threading.Lock()
        self._zeta: dict[int, Enclosure] = {}
        self._zeta_inv: dict[int, Enclosure] = {}
        self._zeta_hat: Optional[Enclosure] = None

    def zeta(self, s: int) -> Enclosure:
        if s < 2:
            raise ValueError("zeta enclosure defined for integer s >= 2")
        with self._lock:
            if s not in self._zeta:
                self._zeta[s] = _zeta_raw(s, self.grid_digits).round_outward(
                    self.grid_digits
                )
            return self._zeta[s]

    def zeta_inv(self, s: int) -> Enclosure:
        """Enclosure of 1/zeta(s), clamped into the true range (1-2^(1-s), 1)."""
        with self._lock:
            cached = self._zeta_inv.get(s)
        if cached is not None:
            return cached
        value = self.zeta(s).reciprocal().intersect(
            Enclosure(1 - Fraction(1, 2 ** (s - 1)), 1)
        )
        with self._lock:
            self._zeta_inv[s] = value
        return value

    def zeta_hat(self) -> Enclosure:
        """Enclosure of prod_{i>=2} zeta(i)^-1.

        Factors beyond the cutoff M multiply to something in
        [1 - 2^(1-M), 1], since each lies in [1 - 2^(1-i), 1].
        """
        with self._lock:
            if self._zeta_hat is not None:
                return self._zeta_hat
        cutoff = 2
        while Fraction(1, 2 ** (cutoff - 1)) >= Fraction(1, 10 ** (self.grid_digits + 1)):
            cutoff += 1
        acc = Enclosure.exact(1)
        for i in range(2, cutoff + 1):
            acc = (acc * self.zeta_inv(i)).round_outward(self.grid_digits)
        acc = acc * Enclosure(1 - Fraction(1, 2 ** (cutoff - 1)), 1)
        with self._lock:
            self._zeta_hat = acc
        return acc


_default_context: Optional[ZetaContext] = None
_default_lock = threading.Lock()


def default_context() -> ZetaContext:
    global _default_context
    with _default_lock:
        if _default_context is None:
            _default_context = ZetaContext()
        return _default_context


# ---------------------------------------------------------------------------
# probability bounds
# ---------------------------------------------------------------------------


def ideal_probability(n: int, m: int, ctx: Optional[ZetaContext] = None) -> Enclosure:
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
    ctx = ctx or default_context()
    acc = Enclosure.exact(1)
    for j in range(m - n + 1, m + 1):
        acc = (acc * ctx.zeta_inv(j)).round_outward(ctx.grid_digits)
    return acc


def pk_bound(
    n: int,
    j: Union[int, Fraction, Enclosure],
    k: int,
    ctx: Optional[ZetaContext] = None,
) -> Enclosure:
    """Hyperplane-hit bound n^(k/2) (j+2)^k 2^(n-k) / (j-2)^n for a window
    of j covering radii, 0 <= k < n."""
    if not 0 <= k < n:
        raise ValueError("need 0 <= k < n")
    ctx = ctx or default_context()
    j_enc = j if isinstance(j, Enclosure) else Enclosure.exact(j)
    if j_enc.lo <= 2:
        raise ValueError("window ratio j must exceed 2")
    value = (
        half_power(n, k, ctx.grid_digits)
        * (j_enc + 2) ** k
        * (2 ** (n - k))
        / (j_enc - 2) ** n
    )
    return value.round_outward(ctx.grid_digits)


def fullrank_lower_bound(n: int, ctx: Optional[ZetaContext] = None) -> Enclosure:
    """Enclosure of prod_{k=0}^{n-1} (1 - n^(k/2) (4n^(n/2)+1)^k / (4n^(n/2)-1)^n),
    the lower bound on n samples spanning full rank at window ratio 8 n^(n/2)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ctx = ctx or default_context()
    g = ctx.grid_digits
    # factor k is 1 - pk_bound at window ratio j = 8 n^(n/2)
    j = 8 * half_power(n, n, g)
    acc = Enclosure.exact(1)
    for k in range(n):
        acc = (acc * (1 - pk_bound(n, j, k, ctx))).round_outward(g)
    return acc


def alpha(n: int, ctx: Optional[ZetaContext] = None) -> Enclosure:
    """Certified enclosure of the constant generation-probability bound

        (prod_{i=2}^{n+1} zeta(i)^-1 - 1/4) * fullrank_lower_bound(n).

    Defined for n >= 2; the same product evaluated at n = 1 would give
    about 0.238 but is outside this function's domain.
    """
    if n < 2:
        raise ValueError("alpha is defined for n >= 2")
    ctx = ctx or default_context()
    value = (ideal_probability(n, n + 1, ctx) - Fraction(1, 4)) * fullrank_lower_bound(
        n, ctx
    )
    return value.round_outward(ctx.grid_digits)


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


def window_thresholds(
    n: int, nu_upper: Union[int, Fraction], ctx: Optional[ZetaContext] = None
) -> tuple[Fraction, Fraction]:
    """Window sizes (B_min, B1_min) = (8 n^(n/2) nu, 8 n^2 (n+1) B_min).

    n^(n/2) for odd n is rounded up, so the returned thresholds remain
    valid lower limits on admissible windows.  n = 1 is rejected: the
    two-window analysis starts at n = 2.
    """
    nu = Fraction(nu_upper)
    if nu <= 0:
        raise ValueError("nu_upper must be positive")
    if n < 2:
        raise ValueError("window thresholds are defined for n >= 2")
    ctx = ctx or default_context()
    b_min = 8 * half_power(n, n, ctx.grid_digits).hi * nu
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
