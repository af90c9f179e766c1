"""Integer number theory: factorization, Möbius, Euler phi.

Every integer the CLI factors is small: `Parameters` refuses n*r > 2^20,
so r and n stay below 2^20; the field generator factors 2^m - 1 for
m <= 16; and `verify --suite fixed-orbits` reaches `e_set`, which
factors 2^r - 1, only for r <= 16.  So factorization is plain trial
division, exact at every size it accepts.  It refuses n of more than
FACTOR_GUARD_BITS = 40 bits with a GuardError; below that, its worst
case is a prime or a semiprime with two ~20-bit factors, about 2^19
divisions.  Only library calls reach the guard: `poly_order` at
q^d > 2^40 and `e_set_count` at r > 40.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import GuardError, InternalCheckError

FACTOR_GUARD_BITS = 40


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as a sorted tuple of (prime, exponent), by trial division."""
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    if n.bit_length() > FACTOR_GUARD_BITS:
        raise GuardError(
            f"factorize: {n.bit_length()}-bit n exceeds the 2^{FACTOR_GUARD_BITS} trial-division guard"
        )
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def mobius(n: int) -> int:
    if n < 1:
        raise ValueError("mobius requires n >= 1")
    result = 1
    for _, e in factorize(n):
        if e > 1:
            return 0
        result = -result
    return result


def mobius_power_sum(base: int, r: int) -> int:
    """sum over d | r of mu(d) * base^(r/d), exactly."""
    return sum(mobius(d) * base ** (r // d) for d in divisors(r))


def exact_quotient(total: int, divisor: int, what: str) -> int:
    """total / divisor, exact by theory; a remainder raises InternalCheckError naming `what`."""
    quotient, remainder = divmod(total, divisor)
    if remainder:
        raise InternalCheckError(f"{what} is not divisible by {divisor}")
    return quotient


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("euler_phi requires n >= 1")
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result
