"""Seeded benchmark inputs and the independent reference answers they are
checked against.

Nothing here imports goppa_orbits: the inputs are built, and the answers
checked, with this module's own arithmetic, so a defect in the library
cannot make its own inputs or excuse its own outputs.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ---------------------------------------------------------------------------
# The closed-form bound, evaluated with Fraction and a local Möbius function
# ---------------------------------------------------------------------------

GOLDEN_BOUNDS = {(5, 7): 29991, (7, 13): 12974326183623782445}
BOUND_NS = (5, 7, 11, 13)
BOUND_R_MAX = 3000
BOUND_R_STRATA = 10
DIGIT_LIMIT = 4300


def _prime_factors(n: int) -> list[int]:
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _mobius(n: int) -> int:
    primes = _prime_factors(n)
    square_free = math.prod(primes) == n
    return (-1) ** len(primes) if square_free else 0


def _mobius_sum(base: int, r: int, minus_one: bool = False) -> int:
    return sum(
        _mobius(d) * (base ** (r // d) - (1 if minus_one else 0))
        for d in range(1, r + 1)
        if r % d == 0
    )


def hypotheses_hold(n: int, r: int) -> bool:
    """The paper's conditions: n an odd prime > 3, r >= 3, gcd(r, n) = 1 and
    gcd(r, q(q^2 - 1)) = 1 with q = 2^n."""
    q = 1 << n
    return n > 3 and _prime_factors(n) == [n] and r >= 3 and math.gcd(r, n * q * (q * q - 1)) == 1


def expected_bound_row(n: int, r: int) -> tuple[int, int, int, int, int, int]:
    """(n, r, q, fixed orbits, PGL orbits, bound) as `bound --format csv`
    prints them, from the paper's formula

        (n-1)/(6rn) * sum mu(d)(2^(r/d) - 1) + 1/(rnq(q^2-1)) * sum mu(d) q^(r/d).
    """
    q = 1 << n
    s1 = _mobius_sum(2, r, minus_one=True)
    s2 = _mobius_sum(q, r)
    value = Fraction((n - 1) * s1, 6 * r * n) + Fraction(s2, r * n * q * (q * q - 1))
    fixed = Fraction(s1, 6 * r)
    pgl = Fraction(s2, r * q * (q * q - 1))
    if value.denominator != 1 or fixed.denominator != 1 or pgl.denominator != 1:
        raise AssertionError(f"the formula is not integral at (n, r) = ({n}, {r})")
    return n, r, q, int(fixed), int(pgl), int(value)


def printable(n: int, r: int) -> bool:
    """Whether every number of the row fits Python's default 4300-digit
    int-to-str limit, which the CLI keeps: above it, `bound` refuses."""
    return all(v < 10**DIGIT_LIMIT for v in expected_bound_row(n, r))


def _valid_degrees(n: int) -> list[int]:
    return [r for r in range(3, BOUND_R_MAX + 1) if hypotheses_hold(n, r)]


def _split_at_limit(n: int) -> tuple[list[int], list[int]]:
    """The valid degrees for n, split into those the CLI can print and those
    above the digit limit.  The row grows with r, so a bisection finds the cut."""
    degrees = _valid_degrees(n)
    lo, hi = 0, len(degrees)
    while lo < hi:
        mid = (lo + hi) // 2
        if printable(n, degrees[mid]):
            lo = mid + 1
        else:
            hi = mid
    return degrees[:lo], degrees[lo:]


def bound_pairs(seed: int, count: int) -> list[tuple[int, int]]:
    """The README goldens first, then (N, R) pairs in cycles over the cells
    (N in BOUND_NS) x (one of BOUND_R_STRATA equal slices of the degrees
    whose row fits the digit limit), each cycle in a seeded order, with R
    uniform over the hypothesis-valid degrees of its slice.  Every run,
    wherever it stops, then sees about the same mix of sizes.

    Pairs above the limit are refused by the CLI (ROADMAP item 5); they
    are probed apart from the timed sample, see over_limit_pairs.
    """
    rng = random.Random(seed)
    cells = []
    for n in BOUND_NS:
        degrees, _ = _split_at_limit(n)
        for k in range(BOUND_R_STRATA):
            cells.append((n, degrees[k * len(degrees) // BOUND_R_STRATA:(k + 1) * len(degrees) // BOUND_R_STRATA]))
    pairs = list(GOLDEN_BOUNDS)
    while len(pairs) < count:
        for n, degrees in rng.sample(cells, len(cells)):
            pairs.append((n, rng.choice(degrees)))
    return pairs[:count]


def over_limit_pairs(seed: int) -> list[tuple[int, int]]:
    """One seeded pair per N with R in (the digit limit's cut, BOUND_R_MAX]:
    the CLI refuses these today, and their count shows in every run."""
    rng = random.Random(seed)
    return [(n, rng.choice(_split_at_limit(n)[1])) for n in BOUND_NS]


# ---------------------------------------------------------------------------
# GF(8) = GF(2)[x] / (x^3 + x + 1), the library's pinned modulus for m = 3
# ---------------------------------------------------------------------------

Q = 8
R = 7
GF8_MODULUS = 0b1011
PGL_ORDER = Q**3 - Q


def _gf8_mul_raw(a: int, b: int) -> int:
    prod = 0
    for i in range(3):
        if b >> i & 1:
            prod ^= a << i
    for i in (4, 3):
        if prod >> i & 1:
            prod ^= GF8_MODULUS << (i - 3)
    return prod


MUL = [[_gf8_mul_raw(a, b) for b in range(Q)] for a in range(Q)]
INV = [0] + [next(b for b in range(1, Q) if MUL[a][b] == 1) for a in range(1, Q)]


def _poly_mul(f: list[int], g: list[int]) -> list[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            row = MUL[a]
            for j, b in enumerate(g):
                out[i + j] ^= row[b]
    return out


def _poly_mod(a: list[int], f: tuple[int, ...]) -> list[int]:
    """Remainder of a modulo the monic f."""
    a = list(a)
    r = len(f) - 1
    for i in range(len(a) - 1, r - 1, -1):
        c = a[i]
        if c:
            row = MUL[c]
            for j in range(r + 1):
                a[i - r + j] ^= row[f[j]]
    return a[:r]


def _has_root(f: tuple[int, ...]) -> bool:
    for x in range(Q):
        acc = 0
        for c in reversed(f):
            acc = MUL[acc][x] ^ c
        if acc == 0:
            return True
    return False


def is_irreducible_prime_degree(f: tuple[int, ...]) -> bool:
    """For monic f of prime degree R over GF(8): irreducible iff f has no
    root in GF(8) and x^(8^R) = x mod f."""
    if _has_root(f):
        return False
    x = [0, 1] + [0] * (len(f) - 3)
    t = x
    for _ in range(3 * R):  # x -> x^2, 3R times, gives x^(8^R)
        sq = [0] * (2 * len(t) - 1)
        for i, c in enumerate(t):
            sq[2 * i] = MUL[c][c]
        t = _poly_mod(sq, f)
    return t == x


def act(f: tuple[int, ...], mat: tuple[int, int, int, int]) -> tuple[int, ...]:
    """The substitution action: sum_j f_j (b + dx)^j (a + cx)^(r-j), made monic."""
    a, b, c, d = mat
    r = len(f) - 1
    out = [0] * (r + 1)
    for j, fj in enumerate(f):
        if not fj:
            continue
        term = [fj]
        for _ in range(j):
            term = _poly_mul(term, [b, d])
        for _ in range(r - j):
            term = _poly_mul(term, [a, c])
        for i, t in enumerate(term):
            out[i] ^= t
    lead = out[r]
    if lead == 0:
        raise AssertionError("the action dropped the degree")
    il = INV[lead]
    return tuple(MUL[il][t] for t in out)


def _random_matrix(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        a, b, c, d = (rng.randrange(Q) for _ in range(4))
        if MUL[a][d] ^ MUL[b][c]:
            return a, b, c, d


def _binary_irreducibles(r: int) -> list[tuple[int, ...]]:
    """Monic irreducibles of degree r over GF(2), as GF(8) coefficient tuples.

    Because gcd(r, 3) = 1 these are exactly the degree-r divisors of
    x^(2^r) + x over GF(8).
    """
    out = []
    for low in range(1 << r):
        f = low | 1 << r
        if not any(_gf2_divides(g, f) for g in range(2, 1 << (r // 2 + 1))):
            out.append(tuple((f >> i) & 1 for i in range(r + 1)))
    return out


def _gf2_divides(g: int, f: int) -> bool:
    dg = g.bit_length() - 1
    while f.bit_length() - 1 >= dg:
        f ^= g << (f.bit_length() - 1 - dg)
    return f == 0


# Each block of 20 queries holds 14 uniform, 3 divisor and 3 order-7 inputs
# in a seeded order, so every prefix of a run has about the same mix.
QUERY_BLOCK = ("uniform",) * 14 + ("divisor_image",) * 3 + ("order7_image",) * 3


def orbit_queries(seed: int, count: int) -> list[tuple[str, tuple[int, ...]]]:
    """(kind, f) pairs of monic irreducible septics over GF(8).

    uniform:       drawn uniformly from all monic irreducible septics.
    divisor_image: g(h) for a binary irreducible septic h; its orbit is
                   fixed by the 2^7-power Frobenius.
    order7_image:  g(x^7 + c) for c outside GF(2); x -> ax with a^7 = 1
                   fixes x^7 + c, so |Stab| = 7 (7 divides q - 1 here).
    """
    rng = random.Random(seed)
    divisors = _binary_irreducibles(R)
    kinds: list[str] = []
    while len(kinds) < count:
        kinds += rng.sample(QUERY_BLOCK, len(QUERY_BLOCK))
    out = []
    for kind in kinds[:count]:
        if kind == "uniform":
            while True:
                f = tuple(rng.randrange(Q) for _ in range(R)) + (1,)
                if is_irreducible_prime_degree(f):
                    break
        elif kind == "divisor_image":
            f = act(rng.choice(divisors), _random_matrix(rng))
        else:
            f = act((rng.randrange(2, Q),) + (0,) * (R - 1) + (1,), _random_matrix(rng))
        out.append((kind, f))
    return out
