"""Trial-division factorization against an oracle written here, not imported from `intnt`."""

import pytest

from goppa_orbits import intnt
from goppa_orbits.errors import GuardError
from goppa_orbits.polyq import Parameters, e_set_count


def _has_divisor_up_to_root(p: int) -> bool:
    d = 2
    while d * d <= p:
        if p % d == 0:
            return True
        d += 1
    return False


def _sieve(limit: int) -> list[bool]:
    """Eratosthenes: flags[k] is True iff k is prime, for 0 <= k < limit."""
    flags = [False, False] + [True] * (limit - 2)
    for p in range(2, limit):
        if flags[p]:
            for multiple in range(p * p, limit, p):
                flags[multiple] = False
    return flags


def test_factorizations_below_2_to_the_12():
    for n in range(1, 1 << 12):
        factors = intnt.factorize(n)
        primes = [p for p, _ in factors]
        assert primes == sorted(set(primes)), n
        product = 1
        for p, e in factors:
            assert p >= 2 and e >= 1 and not _has_divisor_up_to_root(p), (n, p)
            product *= p**e
        assert product == n


def test_largest_tier1_factorization():
    # q^d - 1 at (5, 7), the largest integer the poly_order oracle factors
    assert intnt.factorize(2**35 - 1) == ((31, 1), (71, 1), (127, 1), (122921, 1))


def test_is_prime_matches_a_sieve():
    flags = _sieve(10**4)
    assert [n for n in range(-3, 10**4) if intnt.is_prime(n)] == [n for n in range(10**4) if flags[n]]


def test_guard_at_40_bits():
    assert intnt.factorize(2**40 - 1) == ((3, 1), (5, 2), (11, 1), (17, 1), (31, 1), (41, 1), (61681, 1))
    with pytest.raises(GuardError, match=r"^factorize: 41-bit n exceeds the 2\^40 trial-division guard$"):
        intnt.factorize(2**40)


def test_e_set_count_beyond_the_guard():
    # 2^41 - 1 has 41 bits; no CLI path reaches e_set at r > 16
    with pytest.raises(GuardError, match=r"^factorize: 41-bit n exceeds the 2\^40"):
        e_set_count(Parameters(5, 41))
