"""Polynomial-layer tests.

The irreducibility counts are checked against a product-sieve oracle:
every monic reducible of degree r is a product of a low-degree monic
irreducible (degree <= r/2, found by root checks) and a monic cofactor,
so sieving products and complementing is independent of the library's
Ben-Or test.
"""

import math

import pytest

from goppa_orbits import intnt
from goppa_orbits.errors import GuardError, HypothesisError, InternalCheckError
from goppa_orbits.gf2field import make_field, make_tower
from goppa_orbits.polyq import (
    Parameters,
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
    poly_add,
    poly_eval,
    poly_gcd,
    poly_invmod,
    poly_mod,
    poly_monic,
    poly_mul,
    poly_degree,
    poly_order,
    poly_to_text,
    poly_sort_key,
)


def _all_monic(gf, r):
    return [monic_by_index(gf, r, idx) for idx in range(gf.order**r)]


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

    def test_gcd_with_zero_is_monic_scaled(self, gf8):
        f = (3, 5, 2)  # leading coefficient 2
        assert poly_gcd(gf8, f, ()) == poly_monic(gf8, f)
        assert poly_gcd(gf8, (), f)[-1] == 1

    def test_eval(self, gf8, rng):
        for _ in range(50):
            a = rng.randrange(8)
            assert poly_eval(gf8, (1, 0, 1), a) == gf8.square(a) ^ 1

    def test_divmod_round_trip(self, gf8, rng):
        for _ in range(100):
            f = tuple(rng.randrange(8) for _ in range(6))
            g = tuple(rng.randrange(8) for _ in range(3)) + (rng.randrange(1, 8),)
            from goppa_orbits.polyq import poly_divmod, poly_from_coeffs

            fn = poly_from_coeffs(gf8, f)
            q, rem = poly_divmod(gf8, fn, g)
            assert poly_add(poly_mul(gf8, q, g), rem) == fn
            assert len(rem) < len(g)

    def test_invmod(self, gf8, rng):
        g = (3, 1, 1)  # irreducible? ensured below
        assert is_irreducible(gf8, g)
        for a in range(8):
            inv = poly_invmod(gf8, (a, 1), g)
            assert poly_mod(gf8, poly_mul(gf8, inv, (a, 1)), g) == (1,)


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

    def test_quadratic_count_oracle(self, gf8):
        assert _oracle_irreducible_count(gf8, 2) == 28
        assert sum(1 for _ in enumerate_irreducibles(gf8, 2)) == 28
        assert count_irreducibles(8, 2) == 28

    def test_quintic_count_oracle(self, gf8):
        # the three routes: product sieve, Ben-Or-filtered enumeration, Möbius
        assert _oracle_irreducible_count(gf8, 5) == 6552
        irreducibles = list(enumerate_irreducibles(gf8, 5))
        assert len(irreducibles) == 6552
        assert count_irreducibles(8, 5) == 6552
        # the same set, not only the same count
        assert set(irreducibles) == set(_all_monic(gf8, 5)) - _oracle_reducibles(gf8, 5)

    def test_quartic_set_oracle_over_gf4(self):
        # r = 4 holds the squares g^2 of irreducible quadratics, caught only
        # at the last step k = r/2 of the Ben-Or loop
        gf4 = make_field(2)
        reducible = _oracle_reducibles(gf4, 4)
        squares = {poly_mul(gf4, g, g) for g in enumerate_irreducibles(gf4, 2)}
        assert squares and squares <= reducible
        assert not any(is_irreducible(gf4, f) for f in squares)
        assert set(enumerate_irreducibles(gf4, 4)) == set(_all_monic(gf4, 4)) - reducible
        assert _oracle_irreducible_count(gf4, 4) == count_irreducibles(4, 4)

    def test_binary_quadratic(self, gf2):
        assert list(enumerate_irreducibles(gf2, 2)) == [(1, 1, 1)]

    @pytest.mark.parametrize("q,r", [(2, 6), (2, 8), (4, 4), (8, 3)])
    def test_enumeration_matches_count(self, q, r):
        gf = make_field(q.bit_length() - 1)
        assert sum(1 for _ in enumerate_irreducibles(gf, r)) == count_irreducibles(q, r)

    def test_enumeration_guard(self, gf32):
        with pytest.raises(GuardError):
            next(enumerate_irreducibles(gf32, 7))

    def test_enumeration_guard_boundary(self, gf2):
        # the guard sits at 2^20 candidates, as documented, and names the refused size
        with pytest.raises(GuardError, match=r"2\^21 candidates"):
            next(enumerate_irreducibles(gf2, 21))
        assert poly_degree(next(enumerate_irreducibles(gf2, 20))) == 20

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
        from goppa_orbits.polyq import mobius

        assert mobius(1) == 1
        assert mobius(4) == 0
        assert mobius(6) == 1
        assert sum(mobius(d) for d in intnt.divisors(12)) == 0

    def test_phi(self):
        from goppa_orbits.polyq import euler_phi

        assert euler_phi(1) == 1
        assert euler_phi(7) == 6

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
                assert intnt.multiplicative_order(pow(2, n, m), m) == r


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
            assert poly_mod(gf8, big, f) == ()

    def test_no_other_irreducible_divides(self, gf8):
        divs = set(divisor_polynomials(Parameters(3, 5, strict=False)))
        for f in enumerate_irreducibles(gf8, 5):
            assert divides_x2r_plus_x(gf8, f, 5) == (f in divs)

    def test_sorted_output(self):
        divs = divisor_polynomials(Parameters(5, 7))
        assert divs == sorted(divs, key=poly_sort_key)

    @pytest.mark.parametrize("n,r", [(3, 5), (3, 7), (5, 7), (7, 5), (3, 6), (2, 4)])
    def test_matches_minimal_polynomial_route(self, n, r):
        # binary-irreducible scan vs minimal polynomials through GF(2^(nr));
        # at (3, 6) and (2, 4) gcd(r, n) > 1 and both sides are empty
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

    def test_relaxed_skips_hypotheses(self):
        Parameters(3, 2, strict=False)

    def test_q(self):
        assert Parameters(5, 7).q == 32


class TestTextForms:
    def test_display(self, gf8):
        assert poly_to_text(gf8, (2, 0, 0, 0, 0, 1)) == "x^5 + g"
        assert poly_to_text(gf8, ()) == "0"
        assert poly_to_text(gf8, (1, 3, 1)) == "x^2 + g3*x + 1"

    def test_bits_round_trip(self, gf8):
        from goppa_orbits.polyq import poly_from_bits, poly_to_bits

        f = (3, 0, 5, 1)
        assert poly_from_bits(gf8, poly_to_bits(gf8, f)) == f
