"""Finite abelian groups in invariant-factor form.

A group is a chain d_1 | d_2 | ... | d_k of invariant factors (each >= 2
after normalization), elements are coordinate tuples with coords[i] in
[0, d_i).  Generation probabilities come from the exact per-prime
product formula; the tests check it against an exhaustive tuple count.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .exactmat import snf_with_transforms

GroupElement = tuple[int, ...]


class FiniteAbelianGroup:
    """Z/d_1 x ... x Z/d_k with d_1 | d_2 | ... | d_k, all d_i >= 2.

    Invariant factors equal to 1 are dropped at construction, so k is
    always the minimal number of generators; the trivial group has an
    empty factor list.
    """

    __slots__ = ("invariant_factors",)

    def __init__(self, invariant_factors: Iterable[int]):
        factors = [int(d) for d in invariant_factors]
        if any(d < 1 for d in factors):
            raise ValueError("invariant factors must be positive")
        factors = [d for d in factors if d > 1]
        for a, b in zip(factors, factors[1:]):
            if b % a:
                raise ValueError(f"broken divisibility chain: {a} does not divide {b}")
        self.invariant_factors = tuple(factors)

    @property
    def order(self) -> int:
        result = 1
        for d in self.invariant_factors:
            result *= d
        return result

    @property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    def elements(self) -> Iterator[GroupElement]:
        return itertools.product(*(range(d) for d in self.invariant_factors))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteAbelianGroup)
            and self.invariant_factors == other.invariant_factors
        )

    def __hash__(self) -> int:
        return hash(self.invariant_factors)

    def __repr__(self) -> str:
        return f"FiniteAbelianGroup({list(self.invariant_factors)!r})"


def quotient_group(
    coordinate_columns: Sequence[Sequence[int]],
) -> tuple[FiniteAbelianGroup, Callable[[Sequence[int]], GroupElement]]:
    """Quotient of a lattice by a full-rank sublattice, both in basis
    coordinates: Z^n modulo the columns of the integer matrix C.

    C is diagonalized as U C V = diag(d_i) and the returned projection
    sends a coordinate vector x to (U x mod d) restricted to the
    nontrivial factors.  The group order equals |det C|, the sublattice
    index.
    """
    n = len(coordinate_columns)
    if any(len(col) != n for col in coordinate_columns):
        raise ValueError("sublattice needs n generators of length n")
    divisors, u_rows, _ = snf_with_transforms(coordinate_columns, n)
    if len(divisors) < n:
        raise ValueError("sublattice generators are not full rank")
    group = FiniteAbelianGroup(divisors)
    kept = [i for i, d in enumerate(divisors) if d > 1]

    def projection(x: Sequence[int]) -> GroupElement:
        return tuple(
            sum(a * b for a, b in zip(u_rows[i], x)) % divisors[i] for i in kept
        )

    return group, projection


def lambda_t_pgroup(p: int, d: int, t: int) -> Fraction:
    """Probability that t uniform elements generate a p-group needing d
    generators: prod_{i=t-d+1}^{t} (1 - p^-i); zero when t < d."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if t < 0:
        raise ValueError("t must be >= 0")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if t < d:
        return Fraction(0)
    result = Fraction(1)
    for i in range(t - d + 1, t + 1):
        result *= 1 - Fraction(1, p**i)
    return result


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    f = 2
    while f * f <= p:
        if p % f == 0:
            return False
        f += 1
    return True


def _prime_factors(n: int) -> list[int]:
    primes = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        primes.append(n)
    return primes


def generation_prob_exact(group: FiniteAbelianGroup, t: int) -> Fraction:
    """Exact probability that t uniform elements generate the group.

    Product over the primes p dividing the order of the p-group formula,
    where the p-part needs d_p = #{invariant factors divisible by p}
    generators.
    """
    k = group.ngens
    if t < 0:
        raise ValueError("t must be >= 0")
    if k == 0:
        return Fraction(1)
    if t < k:
        return Fraction(0)
    result = Fraction(1)
    for p in _prime_factors(group.invariant_factors[-1]):
        d_p = sum(1 for d in group.invariant_factors if d % p == 0)
        result *= lambda_t_pgroup(p, d_p, t)
    return result


# ---------------------------------------------------------------------------
# group library and the generation bound check
# ---------------------------------------------------------------------------


def _partitions(n: int, cap: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    if n == 0:
        yield ()
        return
    cap = n if cap is None else min(cap, n)
    for first in range(cap, 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def abelian_groups_of_order(n: int) -> list[FiniteAbelianGroup]:
    """All abelian groups of order n, in invariant-factor form."""
    if n < 1:
        raise ValueError("order must be >= 1")
    if n == 1:
        return [FiniteAbelianGroup([])]
    factorization = {}
    m = n
    for p in _prime_factors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        factorization[p] = e
    per_prime = []
    for p, e in factorization.items():
        per_prime.append([(p, part) for part in _partitions(e)])
    groups = []
    for combo in itertools.product(*per_prime):
        k = max(len(part) for _, part in combo)
        factors = []
        for i in range(k):
            d = 1
            for p, part in combo:
                if i < len(part):
                    d *= p ** part[i]
            factors.append(d)
        factors.reverse()  # exponents were descending; chain wants ascending
        groups.append(FiniteAbelianGroup(factors))
    return groups


def abelian_groups_up_to(max_order: int) -> list[FiniteAbelianGroup]:
    out = []
    for n in range(1, max_order + 1):
        out.extend(abelian_groups_of_order(n))
    return out
