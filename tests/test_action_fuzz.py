"""A seeded fuzz of the orbit layer, with materialized orbits as the oracle.

`stabilizer`, `orbit_canonical` and both sigma^r-fixedness methods answer
from the coset sweep and hold no orbit; `pgl_orbit` materializes the
orbit itself (q <= 128).  For each generated case f over GF(2^m) at
degree r, q = 2^m <= 32, the sweep's answers must match that orbit:

* the canonical form is its least member, and every member's canonical
  form is the same;
* the stabilizer fixes f, holds the identity, and |Stab| |orbit| = q^3 - q;
* the direct method answers True exactly when sigma^r f is a member;
* the divisibility method answers True exactly when the orbit meets the
  degree-r divisors of x^(2^r) + x, and refuses gcd(r, m) > 1.

The methods are held to each other too: where both apply they agree,
the direct answer is whether f and sigma^r f share a canonical form, and
the divisibility answer whether f's canonical form heads a divisor class.

The cases are uniform irreducibles, their PGL images and Frobenius
twists, sparse seeds x^r + a x^k + b (x^7 + g at (3, 7) has |Stab| = 7),
images of divisors and images of fixed orbits whose canonical form is
not binary, so that the direct method walks the representatives again
and answers True (2 of the 31 fixed orbits at (3, 11)).  The rows have
odd and even r and gcd(r, m) > 1.

Run as a script, it holds the cases of each seed given (the test's seed
if none is) to the same checks and exits 1 if any case breaks them:

    PYTHONPATH=src python tests/test_action_fuzz.py 1 2 3
"""

import random
import sys
from math import gcd

from goppa_orbits.action import (
    IDENTITY,
    act_poly,
    fixed_orbit_classes,
    is_orbit_sigma_r_fixed,
    mat_canonical,
    mat_det,
    orbit_canonical,
    pgl_orbit,
    stabilizer,
)
from goppa_orbits.gf2field import make_field
from goppa_orbits.polyq import Parameters, divisor_polynomials, is_irreducible, poly_frobenius

# (m, r): odd and even r, gcd(r, m) > 1 at (2, 4), (2, 6), (3, 3), (3, 6) and (5, 5).
ROWS = ((1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (2, 7), (3, 3), (3, 4), (3, 5), (3, 6), (3, 7), (3, 11),
        (4, 3), (4, 5), (5, 3), (5, 5))
KINDS = ("uniform", "pgl image", "frobenius twist", "sparse", "divisor image", "fixed class image")
SEED, COUNT = 36, 96


def _irreducible(gf, r, rng):
    while True:
        f = tuple(rng.randrange(gf.order) for _ in range(r)) + (1,)
        if is_irreducible(gf, f):
            return f


def _matrix(gf, rng):
    while True:
        mat = tuple(rng.randrange(gf.order) for _ in range(4))
        if mat_det(gf, mat):
            return mat_canonical(gf, mat)


def _seed(rng, kind, gf, params):
    """One seed of the kind, or a uniform irreducible where the row has none of that kind."""
    r = params.r
    if kind == "sparse":
        for _ in range(20):
            f = [0] * r + [1]
            f[0] = rng.randrange(1, gf.order)
            f[rng.randrange(r)] ^= rng.randrange(gf.order)
            if is_irreducible(gf, f):
                return tuple(f)
    admissible = gcd(r, gf.m) == 1
    if kind == "divisor image" and admissible:
        return act_poly(gf, _matrix(gf, rng), rng.choice(divisor_polynomials(params)))
    if kind == "fixed class image" and admissible:
        # a fixed orbit whose canonical form c is not binary: sigma^r(c) != c, so the direct method walks
        walking = [c for c in fixed_orbit_classes(params) if any(e > 1 for e in c)]
        if walking:
            return act_poly(gf, _matrix(gf, rng), rng.choice(walking))
    f = _irreducible(gf, r, rng)
    if kind == "pgl image":
        return act_poly(gf, _matrix(gf, rng), f)
    if kind == "frobenius twist":
        return poly_frobenius(gf, f, rng.randrange(1, max(gf.m, 2)))
    return f


def cases(seed=SEED, count=COUNT):
    """count (m, r, kind, f) cases: every row with one kind, then every row with the next."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        m, r = ROWS[i % len(ROWS)]
        kind = KINDS[i // len(ROWS) % len(KINDS)]
        out.append((m, r, kind, _seed(rng, kind, make_field(m), Parameters(m, r, strict=False))))
    return out


def check_answers(m, r, f, rng):
    """Hold the sweep's answers about f to f's materialized orbit and to each other; return
    (|Stab|, direct, walked), walked when the direct method had to walk the representatives."""
    gf, params = make_field(m), Parameters(m, r, strict=False)
    q = gf.order
    orbit = pgl_orbit(gf, f)
    canonical = orbit_canonical(gf, f)
    assert canonical == orbit.canonical
    assert orbit_canonical(gf, rng.choice(orbit.members)) == canonical
    stab = stabilizer(gf, f)
    assert len(stab) * orbit.size == q**3 - q
    assert IDENTITY in stab and len(set(stab)) == len(stab)
    assert all(act_poly(gf, mat, f) == f for mat in stab)
    twist = poly_frobenius(gf, f, r)
    direct = is_orbit_sigma_r_fixed(f, params, "direct")
    assert direct == (twist in orbit)
    assert direct == (orbit_canonical(gf, twist) == canonical)
    if gcd(r, m) == 1:
        divisibility = is_orbit_sigma_r_fixed(f, params, "divisibility")
        assert divisibility == (not set(divisor_polynomials(params)).isdisjoint(orbit.members))
        assert divisibility == (canonical in fixed_orbit_classes(params)) == direct
    else:
        try:
            is_orbit_sigma_r_fixed(f, params, "divisibility")
        except ValueError as exc:
            assert "gcd(r, n) = 1" in str(exc)
        else:
            raise AssertionError(f"the divisibility method answered at gcd({r}, {m}) > 1")
    # the direct method walks when c is least among its images and sigma^r(c) != c
    walked = poly_frobenius(gf, canonical, r) != canonical and all(
        poly_frobenius(gf, canonical, r * j)[::-1] >= canonical[::-1] for j in range(1, m))
    return len(stab), direct, walked


def test_every_case_matches_its_materialized_orbit():
    rng = random.Random(SEED)
    seen = {(m, r, kind) + check_answers(m, r, f, rng) for m, r, kind, f in cases()}
    # the fuzz reaches what it is for: |Stab| > 1 above q = 2, even r, gcd(r, m) > 1, walks to both answers
    assert any(stab > 1 for m, _, _, stab, _, _ in seen if m > 1)
    assert any(r % 2 == 0 for _, r, *_ in seen) and any(gcd(r, m) > 1 for m, r, *_ in seen)
    assert {(direct, walked) for *_, direct, walked in seen} == {(False, False), (True, False), (False, True),
                                                                (True, True)}


if __name__ == "__main__":
    if not __debug__:
        sys.exit("the checks are asserts, which -O removes")
    broken = 0
    for seed in map(int, sys.argv[1:] or [SEED]):
        rng, failures = random.Random(seed), []
        for m, r, kind, f in cases(seed):
            try:
                check_answers(m, r, f, rng)
            except Exception as exc:  # an uncaught error breaks the checks too
                failures.append(f"  ({m}, {r}) {kind} {f}: {type(exc).__name__}: {exc}")
        print(f"seed {seed}: {COUNT} cases, {len(failures)} broke the checks", *failures, sep="\n")
        broken += len(failures)
    sys.exit(1 if broken else 0)
