"""Bound formulas and brute-force cross-validation at desk scale."""

import time
from collections import Counter
from fractions import Fraction

import pytest

from conftest import random_irreducible
from goppa_orbits import enumeration, intnt
from goppa_orbits.action import _pgl_orbit_members, act_element, act_poly, pgl_enumerate
from goppa_orbits.enumeration import (
    bound,
    brute_force_orbit_count,
    fixed_orbit_count_formula,
    make_table,
    pgl_orbit_count_formula,
)
from goppa_orbits.errors import GuardError, HypothesisError, InternalCheckError
from goppa_orbits.gf2field import Tower, make_field, make_tower
from goppa_orbits.polyq import (
    Parameters,
    count_divisor_polys_mobius,
    count_irreducibles,
    divisor_polynomials,
    e_set_count,
    enumerate_irreducibles,
    poly_frobenius,
)

TABLE_N7 = {
    5: 469,
    11: 935870030557051,
    13: 12974326183623782445,
    17: 2663294067654074513871726265,
    19: 39042208951344950852613887707059,
}


class TestBound:
    def test_headline_value(self):
        rep = bound(Parameters(5, 7))
        assert rep.bound == 29991
        assert rep.fixed_orbit_count == 3
        assert rep.pgl_orbit_count == 149943

    @pytest.mark.parametrize("r,expected", sorted(TABLE_N7.items()))
    def test_length_129_table(self, r, expected):
        assert bound(Parameters(7, r)).bound == expected

    def test_term_breakdown(self):
        from fractions import Fraction

        rep = bound(Parameters(5, 7))
        assert rep.fixed_term == Fraction(12, 5)
        assert rep.pgl_term == Fraction(149943, 5)
        assert rep.fixed_term + rep.pgl_term == 29991

    def test_decomposition_identity(self):
        # bound*n - fixed*(n-1) = total PGL orbit count
        for n, r in [(5, 7), (7, 5), (7, 11), (11, 7), (13, 5)]:
            rep = bound(Parameters(n, r))
            assert rep.bound * n - rep.fixed_orbit_count * (n - 1) == rep.pgl_orbit_count

    def test_relaxed_parameters_refused(self):
        with pytest.raises(HypothesisError):
            bound(Parameters(3, 5, strict=False))
        with pytest.raises(HypothesisError, match=r"^n=4: n must be an odd prime > 3$"):
            bound(Parameters(4, 7, strict=False))

    def test_strict_parameters_validated_once(self, monkeypatch):
        # Construction checks n = 5 once; nothing else tests a primality.
        calls = []
        real = intnt.is_prime

        def recording(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(intnt, "is_prime", recording)
        intnt.factorize.cache_clear()
        assert bound(Parameters(5, 7)).bound == 29991
        assert calls == [5]

    def test_monotone_in_r(self):
        values = [bound(Parameters(7, r)).bound for r in sorted(TABLE_N7)]
        assert values == sorted(values)
        assert all(v >= 1 for v in values)

    def test_each_mobius_sum_computed_once(self, monkeypatch):
        calls = []
        real = intnt.mobius_power_sum

        def counting(base, r):
            calls.append((base, r))
            return real(base, r)

        monkeypatch.setattr(intnt, "mobius_power_sum", counting)
        assert bound(Parameters(5, 7)).bound == 29991
        assert sorted(calls) == [(2, 7), (32, 7)]


def _mobius(d: int) -> int:
    """The Möbius function by trial division, independent of `intnt`."""
    sign, p = 1, 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if d > 1 else sign


def readme_summands(n: int, r: int) -> tuple[Fraction, Fraction]:
    """The README's two summands, each from its own Möbius sum."""
    q = 2**n
    divisors = [d for d in range(1, r + 1) if r % d == 0]
    s1 = sum(_mobius(d) * (2 ** (r // d) - 1) for d in divisors)
    s2 = sum(_mobius(d) * q ** (r // d) for d in divisors)
    return Fraction((n - 1) * s1, 6 * r * n), Fraction(s2, r * n * q * (q * q - 1))


class TestGeneralFormula:
    """The bound, built as F + (P - F)/n, against the README's general
    two-summand formula at every admitted (n, r) with r <= 300."""

    @pytest.mark.parametrize("n", [5, 7, 11, 13])
    def test_sweep(self, n):
        admitted = 0
        for r in range(1, 301):
            try:
                params = Parameters(n, r)
            except HypothesisError:
                continue
            admitted += 1
            rep = bound(params)
            fixed_term, pgl_term = readme_summands(n, r)
            assert (rep.fixed_term, rep.pgl_term) == (fixed_term, pgl_term)
            assert fixed_term + pgl_term == rep.bound
        assert admitted >= 30


class TestExactness:
    """Every counting formula's division is checked, never rounded."""

    def test_pgl_count_outside_the_hypotheses(self):
        # |I_3| over GF(8) is 168, not a multiple of |PGL2(F_8)| = 504
        with pytest.raises(InternalCheckError, match=(
            r"^trivial-stabilizer hypotheses violated or arithmetic bug: \|I_r\| is not divisible by 504$"
        )):
            pgl_orbit_count_formula(Parameters(3, 3, strict=False))

    def test_fixed_count_outside_the_hypotheses(self):
        # one binary irreducible quadratic: a divisor count of 1
        assert count_divisor_polys_mobius(2) == 1
        with pytest.raises(InternalCheckError, match=r"^divisor-polynomial count is not divisible by 6$"):
            fixed_orbit_count_formula(Parameters(3, 2, strict=False))

    def test_bound_checks_that_n_divides_p_minus_f(self, monkeypatch):
        real = enumeration.fixed_orbit_count_formula
        monkeypatch.setattr(enumeration, "fixed_orbit_count_formula", lambda params: real(params) + 1)
        with pytest.raises(InternalCheckError, match=r"^non-fixed PGL-orbit count P - F is not divisible by 5$"):
            bound(Parameters(5, 7))

    @pytest.mark.parametrize("count, message", [
        (lambda: count_irreducibles(2, 7), "Möbius sum for |I_r|"),
        (lambda: count_divisor_polys_mobius(7), "Möbius sum for the divisor count"),
    ])
    def test_mobius_counts(self, monkeypatch, count, message):
        real = intnt.mobius_power_sum
        monkeypatch.setattr(intnt, "mobius_power_sum", lambda base, r: real(base, r) + 1)
        with pytest.raises(InternalCheckError) as err:
            count()
        assert str(err.value) == f"{message} is not divisible by 7"

    def test_phi_sum(self, monkeypatch):
        # E(7, 32) = {127}, and phi(127) + 1 = 127 is not a multiple of 7
        real = intnt.euler_phi
        monkeypatch.setattr(intnt, "euler_phi", lambda e: real(e) + 1)
        with pytest.raises(InternalCheckError, match=r"^phi sum over E\(r, q\) is not divisible by 7$"):
            e_set_count(Parameters(5, 7))


class TestOrbitCountFormulas:
    def test_pgl_orbit_count(self):
        assert pgl_orbit_count_formula(Parameters(5, 7)) == 149943
        assert 149943 * 32736 == 4908534048

    def test_relaxed_formula_matches_brute_force(self, gf8):
        # q = 8, r = 5 is outside the strict hypotheses but every
        # stabilizer is still trivial, so the division is exact
        count = pgl_orbit_count_formula(Parameters(3, 5, strict=False))
        assert count == 6552 // 504 == 13
        assert count == brute_force_orbit_count(gf8, 5, "PGL", "polynomials")

    def test_fixed_orbit_count(self):
        assert fixed_orbit_count_formula(Parameters(5, 7)) == 3
        assert fixed_orbit_count_formula(Parameters(7, 5)) == 1
        assert fixed_orbit_count_formula(Parameters(7, 11)) == 2046 // 66 == 31


class TestMakeTable:
    def test_length_129_rows(self):
        rows, rejected = make_table(7, [5, 11, 13, 17, 19])
        assert not rejected
        assert [rep.bound for rep in rows] == [TABLE_N7[r] for r in (5, 11, 13, 17, 19)]

    def test_r3_rejected_for_gcd(self):
        # 128^2 - 1 = 16383 = 3 * 43 * 127, so gcd(3, q(q^2-1)) = 3
        rows, rejected = make_table(7, [3, 5])
        assert len(rows) == 1
        assert rejected[0][0] == 3
        assert "gcd" in rejected[0][1]

    def test_single_row(self):
        rows, _ = make_table(5, [7])
        assert rows[0].bound == 29991


def per_matrix_orbit_count(gf, r, group, domain):
    """The reference walk: every PGL matrix at every Frobenius power i < rn, applied to each unvisited seed.

    Seeds are taken in ascending order.  The walk stops once every seed
    is visited, since no later seed can start an orbit.
    """
    mats = tuple(pgl_enumerate(gf))
    frobs = range(r * gf.m) if group == "PGammaL" else (0,)
    if domain == "polynomials":
        seeds = list(enumerate_irreducibles(gf, r))

        def images(f, i):
            return {act_poly(gf, mat, f, frob=i) for mat in mats}
    else:
        tower = make_tower(gf.m, r)
        seeds = [alpha for alpha in range(tower.ext.order) if tower.degree_over(alpha) == r]

        def images(alpha, i):
            return {act_element(tower, (mat, i), alpha) for mat in mats}
    every, visited, count = set(seeds), set(), 0
    for x in seeds:
        if x in visited:
            continue
        count += 1
        for i in frobs:
            visited |= images(x, i)
            if visited == every:
                return count
    return count


class TestBruteForce:
    @pytest.mark.parametrize("m, r", [(m, r) for m in range(1, 6) for r in range(2, 11) if m * r <= 10])
    def test_matches_per_matrix_walk(self, m, r):
        gf = make_field(m)
        for group in ("PGL", "PGammaL"):
            for domain in ("polynomials", "elements"):
                assert brute_force_orbit_count(gf, r, group, domain) == per_matrix_orbit_count(gf, r, group, domain)

    def test_binary_cubics_single_orbit(self, gf2):
        # regression value recorded from the harness itself: the two
        # binary cubics x^3+x+1 and x^3+x^2+1 are swapped by x -> 1/x
        assert brute_force_orbit_count(gf2, 3, "PGL", "polynomials") == 1

    def test_pgl_on_quintics_matches_formula(self, gf8):
        assert brute_force_orbit_count(gf8, 5, "PGL", "polynomials") == 13
        assert 13 == 6552 // 504

    def test_semilinear_matches_on_small_field(self):
        gf4 = make_field(2)
        polys = brute_force_orbit_count(gf4, 3, "PGammaL", "polynomials")
        elems = brute_force_orbit_count(gf4, 3, "PGammaL", "elements")
        assert polys == elems

    def test_guards(self, gf32):
        with pytest.raises(GuardError, match=r"32\^7 = 2\^35 candidates"):
            brute_force_orbit_count(gf32, 7, "PGL", "polynomials")
        with pytest.raises(GuardError):
            brute_force_orbit_count(gf32, 4, "PGL", "elements")

    def test_element_guard_priced_in_bits(self, gf2, gf8):
        # 8^(10^9) would be a 3-gigabit integer; the guard compares 3 * 10^9 with 16
        start = time.perf_counter()
        with pytest.raises(GuardError) as err:
            brute_force_orbit_count(gf8, 10**9, "PGL", "elements")
        assert time.perf_counter() - start < 1
        assert str(err.value) == "element domain q^r = 8^1000000000 exceeds the 2^16 guard"
        with pytest.raises(GuardError, match=r"^element domain q\^r = 2\^17 exceeds the 2\^16 guard$"):
            brute_force_orbit_count(gf2, 17, "PGL", "elements")

    @pytest.mark.parametrize("m, r", [(1, 16), (1, 9), (2, 5), (3, 4), (4, 3)])
    def test_element_twists_test_the_degree_once(self, m, r, monkeypatch):
        # a Frobenius twist has its seed's degree, so only the outer loop's alphas are tested
        gf = make_field(m)
        expected = brute_force_orbit_count(gf, r, "PGammaL", "polynomials")
        calls = Counter()
        real = Tower.degree_over

        def counting(tower, alpha):
            calls[alpha] += 1
            return real(tower, alpha)

        monkeypatch.setattr(Tower, "degree_over", counting)
        assert brute_force_orbit_count(gf, r, "PGammaL", "elements") == expected
        assert max(calls.values()) == 1

    @pytest.mark.parametrize("m, r", [(2, 4), (2, 5), (3, 5), (1, 9)])
    def test_element_walk_stops_at_coverage(self, m, r, monkeypatch):
        # once the orbits hold all r |I_r| elements of degree r, no other alpha is
        # tested: the last one tested seeded the last orbit, where a full walk
        # would end on an element of lower degree
        gf, tested, real = make_field(m), [], Tower.degree_over

        def recording(tower, alpha):
            tested.append(alpha)
            return real(tower, alpha)

        monkeypatch.setattr(Tower, "degree_over", recording)
        for group in ("PGL", "PGammaL"):
            tested.clear()
            count = brute_force_orbit_count(gf, r, group, "elements")
            if group == "PGammaL":
                assert count == brute_force_orbit_count(gf, r, group, "polynomials")
            assert real(make_tower(m, r), tested[-1]) == r

    def test_linear_degree_rejected(self, gf8):
        for domain in ("polynomials", "elements"):
            with pytest.raises(ValueError, match=r"degree r >= 2, got r = 1"):
                brute_force_orbit_count(gf8, 1, "PGammaL", domain)

    def test_unknown_inputs(self, gf2):
        with pytest.raises(ValueError):
            brute_force_orbit_count(gf2, 3, "GL", "polynomials")
        with pytest.raises(ValueError):
            brute_force_orbit_count(gf2, 3, "PGL", "codes")


class TestGaloisOrbitSizes:
    def test_sigma_r_orbit_sizes_are_1_or_n(self, gf32, rng):
        # follow sigma^r translates of PGL-orbits until they return:
        # the 3 fixed orbits return immediately, sampled others after n = 5
        params = Parameters(5, 7)
        divisors = divisor_polynomials(params)
        seeds = [divisors[0], divisors[6], divisors[12]]
        seeds += [random_irreducible(gf32, 7, rng) for _ in range(20)]
        for f in seeds:
            members = set(_pgl_orbit_members(gf32, f))
            g = f
            period = 0
            while True:
                g = poly_frobenius(gf32, g, 7)
                period += 1
                if g in members:
                    break
                assert period <= 5
            assert period in (1, 5)
