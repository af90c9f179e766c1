"""Polynomial-layer tests.

Three routes to the monic irreducibles of degree r are checked against
each other:

* Ben-Or's test (`is_irreducible`), one polynomial at a time;
* the library's enumeration (`enumerate_irreducibles`), a product sieve
  on bit-packed indices that multiplies no polynomial and never calls
  Ben-Or's test;
* this module's oracle: every monic reducible of degree r is a product
  of a low-degree monic irreducible (degree <= r/2, found by root
  checks) and a monic cofactor, multiplied out with `poly_mul` into a
  set and complemented.

The oracle is independent of Ben-Or's test, and of the library sieve's
index arithmetic; Ben-Or's test is independent of both sieves, so the
enumeration is compared with Ben-Or's filter wherever it is small enough.
"""

import math
import random
import time
from collections import Counter
from itertools import zip_longest

import pytest

from goppa_orbits import intnt
from goppa_orbits.errors import GuardError, HypothesisError, InternalCheckError
from goppa_orbits.gf2field import gf2_is_irreducible, make_field, make_tower
from goppa_orbits.polyq import (
    Parameters,
    _rem,
    count_divisor_polys_mobius,
    count_irreducibles,
    divisor_polynomials,
    divisor_polynomials_by_minpoly,
    divides_x2r_plus_x,
    e_set,
    e_set_count,
    enumerate_irreducibles,
    is_irreducible,
    monic_by_index,
    poly_eval,
    poly_frobenius,
    poly_mul,
    poly_degree,
    poly_divmod,
    poly_order,
    poly_to_text,
    poly_sort_key,
)


def _add(f, g):
    """The coefficientwise sum, trailing zeros dropped."""
    out = [a ^ b for a, b in zip_longest(f, g, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _all_monic(gf, r):
    return [monic_by_index(gf, r, idx) for idx in range(gf.order**r)]


def _ben_or_filter(gf, r):
    """The monic polynomials of degree r that pass Ben-Or's test, in index order."""
    return [f for f in _all_monic(gf, r) if is_irreducible(gf, f)]


def _oracle_reducibles(gf, r):
    """Product-sieve set of the monic reducibles of degree r (r <= 5)."""
    assert r <= 5
    # low-degree irreducibles by root exhaustion (valid for degree <= 3)
    low = {1: [(a, 1) for a in range(gf.order)]}
    if r >= 4:
        low[2] = [
            f for f in _all_monic(gf, 2) if all(poly_eval(gf, f, a) for a in range(gf.order))
        ]
    reducible = set()
    for d, factors in low.items():
        if d > r - d and d != r - d:
            continue
        for f in factors:
            for g in _all_monic(gf, r - d):
                reducible.add(poly_mul(gf, f, g))
    return reducible


def _oracle_irreducible_count(gf, r):
    """Product-sieve count of monic irreducibles of degree r (r <= 5)."""
    return gf.order**r - len(_oracle_reducibles(gf, r))


class TestRingOps:
    def test_char2_binomial(self, gf8):
        assert poly_mul(gf8, (1, 1), (1, 1)) == (1, 0, 1)

    def test_eval(self, gf8, rng):
        for _ in range(50):
            a = rng.randrange(8)
            assert poly_eval(gf8, (1, 0, 1), a) == gf8.square(a) ^ 1

    def test_divmod_round_trip(self, gf8, rng):
        for _ in range(100):
            f = tuple(rng.randrange(8) for _ in range(6))
            g = tuple(rng.randrange(8) for _ in range(3)) + (rng.randrange(1, 8),)
            fn = _add(f, ())  # drops trailing zeros
            q, rem = poly_divmod(gf8, fn, g)
            assert _add(poly_mul(gf8, q, g), rem) == fn
            assert len(rem) < len(g)

    @pytest.mark.parametrize("m", [1, 3, 7, 9])
    def test_remainder_without_quotient(self, m, rng):
        # the reduction behind the oracles poly_powmod, poly_order and divides_x2r_plus_x; m = 9 computes rows
        gf = make_field(m)
        for len_f in range(10):
            for len_g in range(1, 8):
                # monic, then non-monic divisors (GF(2) has only monic ones); len_g > len_f leaves f as it is
                for lead in (1, rng.randrange(1, gf.order)):
                    f = _add(tuple(rng.randrange(gf.order) for _ in range(len_f)), ())
                    g = tuple(rng.randrange(gf.order) for _ in range(len_g - 1)) + (lead,)
                    assert _rem(gf, f, g) == poly_divmod(gf, f, g)[1]
        with pytest.raises(ZeroDivisionError):
            _rem(gf, (1, 1), ())
        with pytest.raises(ZeroDivisionError):
            poly_divmod(gf, (1, 1), ())


class TestPolyFrobenius:
    @pytest.mark.parametrize("m", [1, 3, 8, 17])
    def test_each_coefficient_squared_k_times(self, m, rng):
        # m = 17 has no log tables, so it squares
        gf = make_field(m)
        for _ in range(20):
            f = tuple(rng.randrange(gf.order) for _ in range(8)) + (1,)
            k = rng.randrange(-m, 3 * m)
            squared = []
            for a in f:
                for _ in range(k % m):
                    a = gf.square(a)
                squared.append(a)
            assert poly_frobenius(gf, f, k) == tuple(squared)


class TestOperandChecks:
    @pytest.mark.parametrize("bad", [8, -1])
    def test_non_elements_rejected(self, gf8, bad):
        # rows[-1] would silently read the last row: every entry point checks
        for call in (
            lambda: poly_mul(gf8, (1, 1), (bad, 1)),
            lambda: poly_mul(gf8, (bad, 1), (1, 1)),
            lambda: poly_divmod(gf8, (1, 0, 1), (bad, 1)),
            lambda: poly_divmod(gf8, (bad, 0, 1), (1, 1)),
            lambda: poly_divmod(gf8, (bad,), (1, 1)),
            lambda: is_irreducible(gf8, (bad, 1, 1)),
            lambda: poly_frobenius(gf8, (1, bad, 1), 1),
        ):
            with pytest.raises(ValueError, match="is not an element of GF"):
                call()


class TestIrreducibility:
    def test_degree_one_always(self, gf8):
        assert all(is_irreducible(gf8, (a, 1)) for a in range(8))

    def test_products_are_reducible(self, gf8, rng):
        from conftest import random_irreducible

        for _ in range(30):
            f = random_irreducible(gf8, rng.randrange(1, 3), rng)
            g = random_irreducible(gf8, rng.randrange(1, 3), rng)
            assert not is_irreducible(gf8, poly_mul(gf8, f, g))

    def test_constant_rejected(self, gf8):
        with pytest.raises(ValueError):
            is_irreducible(gf8, (1,))

    def test_binary_quintic_over_gf2_17(self):
        # beyond the list tables (m > 16: rows multiply through _mul_raw);
        # gcd(5, 17) = 1 keeps x^5 + x^2 + 1 irreducible over GF(2^17)
        gf = make_field(17)
        assert not is_irreducible(gf, poly_mul(gf, (12345, 1), (99999, 1)))
        assert is_irreducible(gf, (1, 0, 1, 0, 0, 1))

    @pytest.mark.parametrize("n,r", [(11, 7), (13, 5)])
    def test_divisors_beyond_the_list_tables(self, n, r, rng):
        # m > 8: rows are computed products, and every inverse is an exp/log read
        gf = make_field(n)
        divisors = divisor_polynomials(Parameters(n, r))
        assert divisors and all(is_irreducible(gf, f) for f in divisors)
        for f in divisors:
            g = tuple(rng.randrange(gf.order) for _ in range(rng.choice((2, 3)))) + (1,)
            assert not is_irreducible(gf, poly_mul(gf, f, g))

    # (r, factor degrees, the k of Ben-Or's gcd rounds (r//2/2, r//2] that see a factor)
    GCD_SCHEDULE = [
        (4, (1, 3), {2}),
        (5, (1, 4), {2}),
        (7, (2, 5), {2}),
        (8, (4, 4), {4}),
        (8, (1, 7), {3, 4}),
        (8, (2, 6), {4}),
        (8, (3, 5), {3}),
        (9, (4, 5), {4}),
    ]

    @pytest.mark.parametrize("m", [1, 2])
    @pytest.mark.parametrize(
        "r, degrees, rounds", GCD_SCHEDULE, ids=[f"r{r}-{a}x{b}" for r, (a, b), _ in GCD_SCHEDULE]
    )
    def test_gcd_schedule_refuses_every_product(self, m, r, degrees, rounds):
        # each product is seen only at the listed rounds: dropping k = r//2, or
        # keeping it alone, lets some of them through.  The factors come from
        # the sieve, so a broken Ben-Or cannot pick them.
        gf, rnd = make_field(m), random.Random(r * 10 + m)
        h = r // 2
        assert {k for k in range(h // 2 + 1, h + 1) if any(k % d == 0 for d in degrees)} == rounds
        pools = {d: list(enumerate_irreducibles(gf, d)) for d in set(degrees)}
        for _ in range(4):
            if degrees[0] == degrees[1]:
                a, b = rnd.sample(pools[degrees[0]], 2)
            else:
                a, b = (rnd.choice(pools[d]) for d in degrees)
            assert not is_irreducible(gf, poly_mul(gf, a, b))

    def test_zero_leading_coefficient_is_named(self, gf8):
        for f in ((1, 0), (1, 1, 0), (1, 1, 0, 0, 0, 0, 0, 0)):
            with pytest.raises(ValueError, match=rf"zero leading coefficient f\[{len(f) - 1}\]"):
                is_irreducible(gf8, f)

    def test_scaling_keeps_the_verdict(self, gf8):
        # a non-monic f is rescaled first; every c f must get f's verdict
        for f in _all_monic(gf8, 4):
            verdict = is_irreducible(gf8, f)
            assert all(is_irreducible(gf8, tuple(gf8.mul(c, a) for a in f)) == verdict for c in range(2, 8))

    def test_quadratic_count_oracle(self, gf8):
        assert _oracle_irreducible_count(gf8, 2) == 28
        assert sum(1 for _ in enumerate_irreducibles(gf8, 2)) == 28
        assert count_irreducibles(8, 2) == 28

    def test_quintic_count_oracle(self, gf8):
        # the routes: the oracle's product set, the library sieve, Ben-Or, Möbius
        assert _oracle_irreducible_count(gf8, 5) == 6552
        irreducibles = list(enumerate_irreducibles(gf8, 5))
        assert len(irreducibles) == 6552
        assert count_irreducibles(8, 5) == 6552
        # the same set, not only the same count, and the same list as Ben-Or's
        assert set(irreducibles) == set(_all_monic(gf8, 5)) - _oracle_reducibles(gf8, 5)
        assert irreducibles == _ben_or_filter(gf8, 5)

    def test_quartic_set_oracle_over_gf4(self):
        # r = 4 holds the squares g^2 of irreducible quadratics, caught only
        # at the last step k = r/2 of the Ben-Or loop
        gf4 = make_field(2)
        reducible = _oracle_reducibles(gf4, 4)
        squares = {poly_mul(gf4, g, g) for g in enumerate_irreducibles(gf4, 2)}
        assert squares and squares <= reducible
        assert not any(is_irreducible(gf4, f) for f in squares)
        assert set(enumerate_irreducibles(gf4, 4)) == set(_all_monic(gf4, 4)) - reducible
        assert list(enumerate_irreducibles(gf4, 4)) == _ben_or_filter(gf4, 4)
        assert _oracle_irreducible_count(gf4, 4) == count_irreducibles(4, 4)

    @pytest.mark.parametrize(
        "m,r", [(m, r) for m in range(1, 13) for r in range(1, 12 // m + 1)] + [(2, 8), (4, 4)]
    )
    def test_sieve_matches_ben_or_filter(self, m, r):
        # every (q, r) with q^r <= 2^12, and two with q^r = 2^16, compared as ordered lists;
        # Ben-Or's first round reads x^q as a monomial when q < r, e.g. (m, r) = (2, 6),
        # as x^r = low when q = r (2, 4), as one of its x^k when r < q <= 2r - 1 (2, 3),
        # and squares from x^(2^j) <= x^(2r - 1) when q > 2r - 1 (3, 4)
        gf = make_field(m)
        assert list(enumerate_irreducibles(gf, r)) == _ben_or_filter(gf, r)

    def test_sieve_matches_bit_packed_test_at_2_16(self, gf2):
        packed = [sum(c << i for i, c in enumerate(f)) for f in enumerate_irreducibles(gf2, 16)]
        assert packed == [f for f in range(1 << 16, 1 << 17) if gf2_is_irreducible(f)]

    def test_sieve_at_the_guard(self, gf32):
        # 32^4 = 2^20 candidates, the largest domain the guard admits
        assert sum(1 for _ in enumerate_irreducibles(gf32, 4)) == count_irreducibles(32, 4) == 261888

    def test_binary_quadratic(self, gf2):
        assert list(enumerate_irreducibles(gf2, 2)) == [(1, 1, 1)]

    @pytest.mark.parametrize("q,r", [(2, 6), (2, 8), (4, 4), (8, 3)])
    def test_enumeration_matches_count(self, q, r):
        gf = make_field(q.bit_length() - 1)
        assert sum(1 for _ in enumerate_irreducibles(gf, r)) == count_irreducibles(q, r)

    def test_enumeration_guard(self, gf32):
        with pytest.raises(GuardError):
            next(enumerate_irreducibles(gf32, 7))

    @pytest.mark.parametrize("r", [0, -1])
    def test_enumeration_needs_positive_degree(self, gf2, r):
        with pytest.raises(ValueError, match=rf"degree r >= 1, got r = {r}$"):
            list(enumerate_irreducibles(gf2, r))

    def test_enumeration_guard_boundary(self, gf2):
        # the guard sits at 2^20 candidates, as documented, and names the refused size
        with pytest.raises(GuardError, match=r"2\^21 candidates"):
            next(enumerate_irreducibles(gf2, 21))
        assert poly_degree(next(enumerate_irreducibles(gf2, 20))) == 20

    def test_enumeration_guard_priced_in_bits(self, gf8):
        # 8^(10^9) would be a 3-gigabit integer; the guard compares 3 * 10^9 with 20
        start = time.perf_counter()
        with pytest.raises(GuardError) as err:
            next(enumerate_irreducibles(gf8, 10**9))
        assert time.perf_counter() - start < 1
        assert str(err.value) == "enumeration of q^r = 8^1000000000 = 2^3000000000 candidates exceeds the 2^20 guard"

    def test_enumeration_is_sorted_and_unique(self, gf8):
        polys = list(enumerate_irreducibles(gf8, 2))
        keys = [poly_sort_key(f) for f in polys]
        assert keys == sorted(keys)
        assert len(set(polys)) == len(polys)


class TestCountingFormulas:
    def test_count_irreducibles_small(self):
        assert count_irreducibles(2, 1) == 2

    def test_count_irreducibles_large_two_routes(self):
        # ascending vs descending divisor summation, plus the closed form
        val = count_irreducibles(32, 7)
        total = 0
        for d in sorted(intnt.divisors(7), reverse=True):
            total += intnt.mobius(d) * 32 ** (7 // d)
        assert val == total // 7 == (32**7 - 32) // 7 == 4908534048

    def test_mobius(self):
        assert intnt.mobius(1) == 1
        assert intnt.mobius(4) == 0
        assert intnt.mobius(6) == 1
        assert sum(intnt.mobius(d) for d in intnt.divisors(12)) == 0

    def test_phi(self):
        assert intnt.euler_phi(1) == 1
        assert intnt.euler_phi(7) == 6

    def test_divisor_poly_counts(self):
        assert count_divisor_polys_mobius(7) == 18
        assert count_divisor_polys_mobius(5) == 6
        assert count_divisor_polys_mobius(1) == 1
        assert count_divisor_polys_mobius(11) == (2047 - 1) // 11


class TestPolyOrder:
    def test_known_binary_orders(self, gf2):
        assert poly_order(gf2, (1, 1)) == 1
        assert poly_order(gf2, (1, 1, 1)) == 3

    def test_zero_constant_rejected(self, gf2):
        with pytest.raises(ValueError):
            poly_order(gf2, (0, 1))

    def test_divisor_poly_orders_divide_mersenne(self, gf32):
        params = Parameters(5, 7)
        for f in divisor_polynomials(params):
            assert (2**7 - 1) % poly_order(gf32, f) == 0

    def test_order_criterion_equivalence_exhaustive(self, gf8):
        # f | x^(2^5) + x iff ord(f) | 2^5 - 1, over all of I_5
        for f in enumerate_irreducibles(gf8, 5):
            divides = divides_x2r_plus_x(gf8, f, 5)
            assert divides == ((2**5 - 1) % poly_order(gf8, f) == 0)

    @pytest.mark.parametrize("n, r", [(1, 11), (2, 9), (3, 5), (5, 7)])
    def test_divisor_orders_are_the_e_set(self, n, r):
        # e_set_count sums phi(e)/r over E(r, q): each e in E is the order of phi(e)/r divisors
        params = Parameters(n, r, strict=False)
        orders = Counter(poly_order(make_field(n), f) for f in divisor_polynomials(params))
        assert orders == {e: intnt.euler_phi(e) // r for e in e_set(params)}
        assert sum(orders.values()) == e_set_count(params) == count_divisor_polys_mobius(r)

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_order_of_q_mod_mersenne(self, n):
        # ord of q modulo 2^r - 1 equals r whenever gcd(r, n) = 1
        for r in range(2, 21):
            m = 2**r - 1
            if intnt.is_prime(n) and n > 3 and r >= 3:
                try:
                    Parameters(n, r)
                except HypothesisError:
                    continue
                q = pow(2, n, m)
                assert pow(q, r, m) == 1
                assert all(pow(q, d, m) != 1 for d in range(1, r))


class TestDivisorPolynomials:
    def test_count_5_7(self):
        divs = divisor_polynomials(Parameters(5, 7))
        assert len(divs) == 18

    def test_count_3_5(self):
        divs = divisor_polynomials(Parameters(3, 5, strict=False))
        assert len(divs) == 6

    def test_each_divides_by_explicit_poly_mod(self, gf8):
        # materialize x^(2^5) + x and divide, the long way
        big = [0] * 33
        big[1] = 1
        big[32] = 1
        big = tuple(big)
        divs = divisor_polynomials(Parameters(3, 5, strict=False))
        for f in divs:
            assert poly_divmod(gf8, big, f)[1] == ()

    def test_no_other_irreducible_divides(self, gf8):
        divs = set(divisor_polynomials(Parameters(3, 5, strict=False)))
        for f in enumerate_irreducibles(gf8, 5):
            assert divides_x2r_plus_x(gf8, f, 5) == (f in divs)

    def test_sorted_output(self):
        divs = divisor_polynomials(Parameters(5, 7))
        assert divs == sorted(divs, key=poly_sort_key)

    @pytest.mark.parametrize(
        "n,r", [(3, 5), (3, 7), (5, 7), (7, 5), (3, 6), (2, 4), (9, 5), (11, 5)]
    )
    def test_matches_minimal_polynomial_route(self, n, r):
        # binary-irreducible scan vs minimal polynomials through GF(2^(nr));
        # at (3, 6) and (2, 4) gcd(r, n) > 1 and both sides are empty; at
        # n = 9 and 11 the polynomial loops run on computed rows (m > 8)
        expected = divisor_polynomials_by_minpoly(make_tower(n, r))
        assert divisor_polynomials(Parameters(n, r, strict=False)) == expected
        assert bool(expected) == (math.gcd(n, r) == 1)

    def test_beyond_the_tower_ceiling(self):
        # n r = 77 > 64: no tower exists here, the scan still answers
        params = Parameters(7, 11)
        with pytest.raises(GuardError):
            make_tower(7, 11)
        divs = divisor_polynomials(params)
        assert len(divs) == 186 == count_divisor_polys_mobius(11) == e_set_count(params)

    def test_non_divisor_from_the_scan_is_refused(self, monkeypatch):
        # the bit-packed GF(2) re-check catches a scan that yields x^5 + 1,
        # which divides x^31 + 1 only if 5 | 31
        good, bad = list(enumerate_irreducibles(make_field(1), 5)), (1, 0, 0, 0, 0, 1)
        monkeypatch.setattr("goppa_orbits.polyq.enumerate_irreducibles", lambda gf, r: iter(good + [bad]))
        with pytest.raises(InternalCheckError, match="fails its defining divisibility"):
            divisor_polynomials(Parameters(3, 5, strict=False))
        assert not divides_x2r_plus_x(make_field(3), bad, 5)

    def test_scan_guard(self):
        # the scan stops at 2^16 binary candidates and names the refused size;
        # with gcd(r, n) != 1 there is nothing to scan, so nothing is refused
        with pytest.raises(GuardError, match=r"2\^17 binary candidates exceeds the 2\^16 guard"):
            divisor_polynomials(Parameters(5, 17))
        assert divisor_polynomials(Parameters(3, 18, strict=False)) == []


class TestESet:
    @pytest.mark.parametrize(
        "n,r,strict", [(5, 7, True), (3, 5, False), (7, 5, True), (7, 11, True)]
    )
    def test_matches_mobius_count(self, n, r, strict):
        params = Parameters(n, r, strict=strict)
        assert e_set_count(params) == count_divisor_polys_mobius(r)

    def test_mersenne_prime_case(self):
        # r = 5, q = 2^7: 2^5 - 1 = 31 is prime, so E = {31} and the count is 6
        params = Parameters(7, 5)
        assert e_set(params) == [31]
        assert e_set_count(params) == intnt.euler_phi(31) // 5 == 6


class TestParameters:
    def test_strict_accepts_known_good_pairs(self):
        for n, r in [(5, 7), (7, 5), (7, 11), (7, 13), (7, 17), (7, 19)]:
            Parameters(n, r)

    def test_rejections_name_the_condition(self):
        with pytest.raises(HypothesisError, match="odd prime"):
            Parameters(4, 7)
        with pytest.raises(HypothesisError, match="odd prime"):
            Parameters(9, 7)
        with pytest.raises(HypothesisError, match="at least 3"):
            Parameters(5, 2)
        with pytest.raises(HypothesisError, match=r"gcd\(r, n\)"):
            Parameters(5, 10)
        with pytest.raises(HypothesisError, match=r"gcd\(r, q\(q\^2-1\)\)"):
            Parameters(7, 3)

    @pytest.mark.parametrize("n, r, name, value", [(0, 7, "n", 0), (-5, 7, "n", -5), (5, 0, "r", 0), (0, -1, "n", 0)])
    def test_non_positive_names_itself(self, n, r, name, value):
        with pytest.raises(HypothesisError, match=rf"^{name} must be positive, got {name} = {value}$"):
            Parameters(n, r, strict=False)

    def test_bit_ceiling_is_checked_before_any_power(self):
        # q^r = 2^(n r): n r = 2^20 is admitted, one bit more is refused in both modes, naming n and r
        assert Parameters(1 << 10, 1 << 10, strict=False).r == 1 << 10
        message = r"^n\*r = 1048577 exceeds the 2\^20 ceiling on the bit size of q\^r \(n = 1048577, r = 1\)$"
        with pytest.raises(GuardError, match=message):
            Parameters(2**20 + 1, 1, strict=False)
        # 2^61 - 1 is prime: only the ceiling stands between it and 1 << n
        for strict in (True, False):
            with pytest.raises(GuardError, match=r"\(n = 2305843009213693951, r = 7\)$"):
                Parameters(2**61 - 1, 7, strict)
            with pytest.raises(GuardError, match=r"\(n = 5, r = 2305843009213693951\)$"):
                Parameters(5, 2**61 - 1, strict)
        with pytest.raises(GuardError, match=r"^n = 2305843009213693951: n\*r exceeds .* for every r >= 3$"):
            Parameters.check_n(2**61 - 1)

    def test_relaxed_skips_hypotheses(self):
        Parameters(3, 2, strict=False)

    def test_q(self):
        assert Parameters(5, 7).q == 32

    def test_replace_and_make_run_the_checks(self):
        with pytest.raises(HypothesisError, match=r"^n=4: n must be an odd prime > 3$"):
            Parameters(5, 7)._replace(n=4)
        with pytest.raises(HypothesisError, match=r"^r must be positive, got r = 0$"):
            Parameters(3, 2, strict=False)._replace(r=0)
        with pytest.raises(HypothesisError, match=r"^r=2: r must be at least 3$"):
            Parameters._make((5, 2))
        assert Parameters(3, 2, strict=False)._replace(n=4) == Parameters._make((4, 2, False))
        assert Parameters(5, 7)._replace(r=13) == Parameters(5, 13)


class TestTextForms:
    def test_display(self, gf8):
        assert poly_to_text(gf8, (2, 0, 0, 0, 0, 1)) == "x^5 + g"
        assert poly_to_text(gf8, ()) == "0"
        assert poly_to_text(gf8, (1, 3, 1)) == "x^2 + g3*x + 1"
