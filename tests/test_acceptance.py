"""Acceptance suite: one test per criterion, in order, each printing a
pass/fail line (run with -s to watch them live).

Shared expensive artifacts (the 18 divisor polynomials at (5, 7), their
three materialized orbits over GF(32), the full list of 6552 quintics
over GF(8)) are built once per module.  Every tolerance is exact
integer or set equality; nothing is approximate anywhere in this suite.
"""

import random

import pytest

from conftest import random_irreducible, random_matrix, random_semilinear
from goppa_orbits.action import (
    IDENTITY,
    Orbit,
    act_element,
    act_poly,
    act_poly_semilinear,
    agl_decompose,
    count_divisors_in_orbit,
    is_orbit_sigma_r_fixed,
    pgl_element_orbit,
    pgl_orbit,
    pgammal_compose,
    pgammal_inverse,
    stabilizer,
)
from goppa_orbits.enumeration import bound, brute_force_orbit_count
from goppa_orbits.gf2field import make_field, make_tower
from goppa_orbits.goppa import code_from_orbit_element, congruence_holds, GoppaSpec, weight_enumerator
from goppa_orbits.polyq import (
    Parameters,
    count_divisor_polys_mobius,
    count_irreducibles,
    divisor_polynomials,
    e_set_count,
    enumerate_irreducibles,
    is_irreducible,
)


def _report(criterion: int, label: str, passed: bool) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {label}")
    assert passed, f"criterion {criterion} failed: {label}"


@pytest.fixture(scope="module")
def params_5_7():
    return Parameters(5, 7)


@pytest.fixture(scope="module")
def divisors_5_7(params_5_7):
    divs = divisor_polynomials(params_5_7)
    assert len(divs) == 18
    return divs


@pytest.fixture(scope="module")
def fixed_orbits_5_7(gf32, divisors_5_7) -> list[Orbit]:
    orbits = []
    remaining = set(divisors_5_7)
    while remaining:
        orbit = pgl_orbit(gf32, min(remaining))
        orbits.append(orbit)
        remaining -= set(orbit.members)
    return orbits


@pytest.fixture(scope="module")
def all_quintics(gf8):
    return list(enumerate_irreducibles(gf8, 5))


def test_criterion_1_golden_bound_values():
    expected = {
        (5, 7): 29991,
        (7, 5): 469,
        (7, 11): 935870030557051,
        (7, 13): 12974326183623782445,
        (7, 17): 2663294067654074513871726265,
        (7, 19): 39042208951344950852613887707059,
    }
    results = {(n, r): bound(Parameters(n, r)).bound for n, r in expected}
    _report(1, "exact bound values for (5,7) and the five length-129 rows", results == expected)


def test_criterion_2_fixed_orbit_structure(gf32, params_5_7, divisors_5_7, fixed_orbits_5_7):
    ok = len(divisors_5_7) == 18
    ok &= len(fixed_orbits_5_7) == 3
    divisor_set = set(divisors_5_7)
    claimed = set()
    for orbit in fixed_orbits_5_7:
        ok &= orbit.size == 32736
        inside = divisor_set & set(orbit.members)
        ok &= len(inside) == 6
        claimed |= inside
    ok &= claimed == divisor_set
    for f in divisors_5_7:
        ok &= count_divisors_in_orbit(f, params_5_7) == 6
    _report(2, "18 divisors, 3 orbits of size 32736, 6 divisors in each", ok)


def test_criterion_3_dual_method_agreement(gf32, params_5_7, divisors_5_7):
    ok = True
    for f in divisors_5_7:
        by_div = is_orbit_sigma_r_fixed(f, params_5_7, "divisibility")
        by_direct = is_orbit_sigma_r_fixed(f, params_5_7, "direct")
        ok &= by_div and by_direct
    rnd = random.Random(0x57FE)
    non_fixed = 0
    draws = 0
    while non_fixed < 100 and draws < 120:
        draws += 1
        f = random_irreducible(gf32, 7, rnd)
        by_div = is_orbit_sigma_r_fixed(f, params_5_7, "divisibility")
        by_direct = is_orbit_sigma_r_fixed(f, params_5_7, "direct")
        ok &= by_div == by_direct
        if not by_div:
            non_fixed += 1
    ok &= non_fixed >= 100
    _report(3, f"divisibility/direct agree on 18 divisor orbits and {non_fixed} random non-fixed", ok)


def test_criterion_4_stabilizer_triviality(gf8, gf32, all_quintics):
    ok = all(stabilizer(gf8, f) == [IDENTITY] for f in all_quintics)
    rnd = random.Random(0x57AB)
    sampled = [random_irreducible(gf32, 7, rnd) for _ in range(50)]
    ok &= all(stabilizer(gf32, f) == [IDENTITY] for f in sampled)
    _report(4, "trivial stabilizers: all 6552 quintics over GF(8), 50 sampled septics over GF(32)", ok)


def test_criterion_5_brute_force_vs_formula(gf8):
    count = brute_force_orbit_count(gf8, 5, "PGL", "polynomials")
    _report(5, f"brute-force PGL orbit count {count} == 13 == 6552/504", count == 13 == 6552 // 504)


def test_criterion_6_orbit_count_bijection(gf8):
    on_polys = brute_force_orbit_count(gf8, 5, "PGammaL", "polynomials")
    on_elems = brute_force_orbit_count(gf8, 5, "PGammaL", "elements")
    _report(6, f"semi-linear orbit counts: polynomials {on_polys} == elements {on_elems}", on_polys == on_elems)


def test_criterion_7_counting_cross_validation(all_quintics):
    ok = True
    for n, r in [(5, 7), (7, 5), (7, 11)]:
        ok &= e_set_count(Parameters(n, r)) == count_divisor_polys_mobius(r)
    ok &= len(all_quintics) == count_irreducibles(8, 5)
    pairs = [(2, 8), (2, 10), (4, 4), (4, 5), (8, 3), (8, 4), (16, 3), (16, 4), (32, 3)]
    for q, r in pairs:
        gf = make_field(q.bit_length() - 1)
        ok &= sum(1 for _ in enumerate_irreducibles(gf, r)) == count_irreducibles(q, r)
    _report(7, "order-based == Möbius divisor counts; formula == enumeration up to 2^20", ok)


def test_criterion_8_property_suites(gf8, gf32, tower_3_5):
    rnd = random.Random(0x9807)
    rn = 15
    identity = (IDENTITY, 0)
    ok = True

    # group axioms, 10^4 random triples
    for _ in range(10_000):
        g = random_semilinear(gf8, rn, rnd)
        h = random_semilinear(gf8, rn, rnd)
        k = random_semilinear(gf8, rn, rnd)
        ok &= pgammal_compose(gf8, rn, pgammal_compose(gf8, rn, g, h), k) == pgammal_compose(
            gf8, rn, g, pgammal_compose(gf8, rn, h, k)
        )
        ok &= pgammal_compose(gf8, rn, g, pgammal_inverse(gf8, rn, g)) == identity
    _report(8, "semi-linear group axioms over 10^4 random triples", ok)

    # action axioms on elements, 10^4 random cases
    degree5 = [a for a in range(tower_3_5.ext.order) if tower_3_5.degree_over(a) == 5]
    ok = True
    for _ in range(10_000):
        alpha = degree5[rnd.randrange(len(degree5))]
        g = random_semilinear(gf8, rn, rnd)
        h = random_semilinear(gf8, rn, rnd)
        gh = pgammal_compose(gf8, rn, g, h)
        ok &= act_element(tower_3_5, gh, alpha) == act_element(
            tower_3_5, g, act_element(tower_3_5, h, alpha)
        )
        ok &= act_element(tower_3_5, identity, alpha) == alpha
    _report(8, "element-action axioms over 10^4 random cases", ok)

    # action axioms on polynomials, 10^4 random cases over a seed pool
    pool = [random_irreducible(gf8, 5, rnd) for _ in range(50)]
    ok = True
    for _ in range(10_000):
        f = pool[rnd.randrange(len(pool))]
        g = random_semilinear(gf8, rn, rnd)
        h = random_semilinear(gf8, rn, rnd)
        gh = pgammal_compose(gf8, rn, g, h)
        ok &= act_poly_semilinear(gf8, g, act_poly_semilinear(gf8, h, f)) == act_poly_semilinear(
            gf8, gh, f
        )
        ok &= act_poly_semilinear(gf8, identity, f) == f
    _report(8, "polynomial-action axioms over 10^4 random cases", ok)

    # action output is always monic irreducible of degree r
    ok = True
    for _ in range(10_000):
        f = pool[rnd.randrange(len(pool))]
        image = act_poly(gf8, random_matrix(gf8, rnd), f, frob=rnd.randrange(rn))
        ok &= len(image) == 6 and image[-1] == 1 and is_irreducible(gf8, image)
    _report(8, "polynomial action preserves monic irreducibility over 10^4 samples", ok)

    # trace-image identity, exhaustively for q in {8, 32} with gcd(r, n) = 1
    ok = True
    for gf, r in ((gf8, 5), (gf32, 7)):
        squares = {gf.square(h) ^ h for h in gf.elements()}
        powers = {gf.frobenius(h, r) ^ h for h in gf.elements()}
        ok &= squares == powers
    _report(8, "trace-image identity holds exhaustively for q in {8, 32}", ok)

    # affine decomposition yields q + 1 parts at q = 8
    alpha = degree5[0]
    parts = agl_decompose(tower_3_5, alpha)
    ok = len(parts) == 9 and sum(s for _, s in parts) == len(pgl_element_orbit(tower_3_5, alpha))
    _report(8, "affine decomposition gives q+1 = 9 parts partitioning the projective orbit", ok)


def test_criterion_9_goppa_evidence(tower_3_2):
    t = tower_3_2
    rnd = random.Random(0x60)
    alpha = next(a for a in range(t.ext.order) if t.degree_over(a) == 2)
    spec = GoppaSpec(tower=t, g=t.minimal_polynomial(alpha), alpha=alpha)
    from goppa_orbits.goppa import build_goppa, extend_code

    code = build_goppa(spec)
    ok = all(congruence_holds(spec, w) for w in code.codewords())
    extended = extend_code(code)
    ok &= all(w.bit_count() % 2 == 0 for w in extended.codewords())
    reference = weight_enumerator(code_from_orbit_element(t, alpha))
    pairs = 0
    while pairs < 5:
        g = random_semilinear(t.base, 6, rnd)
        beta = act_element(t, g, alpha)
        ok &= weight_enumerator(code_from_orbit_element(t, beta)) == reference
        pairs += 1
    _report(9, "congruence holds symbolically; extensions have even weight; 5 translate pairs share enumerators", ok)
