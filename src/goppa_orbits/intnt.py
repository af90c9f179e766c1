"""Integer number theory: factorization, Möbius, Euler phi.

Factorization is Miller-Rabin plus Brent's cycle-finding rho, with no
embedded factor tables.  The fixed Miller-Rabin bases (the primes up to
37) are proven deterministic only below about 3.3e24 (the bound is
3317044064679887385961981); above it a composite could in principle
pass as prime.  What this package factors (degrees, and 2^k - 1 for
k <= 64) lies far below that bound.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import InternalCheckError

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set (deterministic below ~3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """Brent's rho; returns a nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization as a sorted tuple of (prime, exponent).

    Exact for n below about 3.3e24, where the Miller-Rabin bases are
    proven deterministic; beyond that a reported prime is only probable.
    """
    if n < 1:
        raise ValueError("factorize requires n >= 1")
    factors: dict[int, int] = {}
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        d = _rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(factors.items()))


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
