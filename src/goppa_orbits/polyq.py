"""Dense polynomial arithmetic over GF(q), q = 2^n.

A polynomial is a tuple of field elements (ints), lowest degree first,
with no trailing zeros; the zero polynomial is the empty tuple.  Every
operation takes the field context as its first argument.  Tuples keep
polynomials hashable, which the orbit machinery depends on.

This module also owns the number-theoretic counting formulas: the
Möbius count of monic irreducibles, the count of degree-r divisors of
x^(2^r) + x, and the equivalent order-based count over the divisor set
E(r, q) of 2^r - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import GuardError, HypothesisError, InternalCheckError
from .gf2field import GF2m, Tower, gf2_is_irreducible, make_field, subfield_elements
from . import intnt
from .intnt import euler_phi, mobius

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------

def poly_from_coeffs(gf: GF2m, coeffs) -> Poly:
    """Normalize a coefficient sequence (lowest degree first)."""
    c = list(coeffs)
    for a in c:
        gf._check(a)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_degree(f: Poly) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(f) - 1


def poly_add(f: Poly, g: Poly) -> Poly:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, a in enumerate(g):
        out[i] ^= a
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_scale(gf: GF2m, c: int, f: Poly) -> Poly:
    if c == 0:
        return ZERO
    if c == 1:
        return f
    mul = gf.mul
    return tuple(mul(c, a) for a in f)


def poly_mul(gf: GF2m, f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    mul = gf.mul
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                if b:
                    out[i + j] ^= mul(a, b)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_divmod(gf: GF2m, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return ZERO, f
    mul = gf.mul
    inv_lead = gf.inv(g[-1])
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(f) - dg)
    for top in range(len(f) - 1, dg - 1, -1):
        c = rem[top]
        if c:
            c = mul(c, inv_lead)
            quot[top - dg] = c
            for j, b in enumerate(g):
                if b:
                    rem[top - dg + j] ^= mul(c, b)
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return tuple(quot), tuple(rem)


def poly_mod(gf: GF2m, f: Poly, g: Poly) -> Poly:
    return poly_divmod(gf, f, g)[1]


def poly_monic(gf: GF2m, f: Poly) -> Poly:
    """Scale to leading coefficient 1 (zero polynomial stays zero)."""
    if not f or f[-1] == 1:
        return f
    return poly_scale(gf, gf.inv(f[-1]), f)


def poly_gcd(gf: GF2m, f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    while g:
        f, g = g, poly_mod(gf, f, g)
    return poly_monic(gf, f)


def poly_eval(gf: GF2m, f: Poly, a: int) -> int:
    mul = gf.mul
    acc = 0
    for c in reversed(f):
        acc = mul(acc, a) ^ c
    return acc


def poly_invmod(gf: GF2m, f: Poly, mod: Poly) -> Poly:
    """Inverse of f modulo mod; requires gcd(f, mod) = 1."""
    r0, r1 = mod, poly_mod(gf, f, mod)
    s0, s1 = ZERO, ONE
    while r1:
        q, rem = poly_divmod(gf, r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, poly_add(s0, poly_mul(gf, q, s1))
    if poly_degree(r0) != 0:
        raise ZeroDivisionError("polynomial is not invertible modulo the given modulus")
    return poly_mod(gf, poly_scale(gf, gf.inv(r0[0]), s0), mod)


def poly_sqr_mod(gf: GF2m, f: Poly, mod: Poly) -> Poly:
    """f^2 mod `mod`; cross terms vanish in characteristic 2."""
    if not f:
        return ZERO
    sq = gf.square
    out = [0] * (2 * len(f) - 1)
    for i, a in enumerate(f):
        if a:
            out[2 * i] = sq(a)
    while out and out[-1] == 0:
        out.pop()
    return poly_mod(gf, tuple(out), mod)


def poly_powmod(gf: GF2m, f: Poly, e: int, mod: Poly) -> Poly:
    """f^e mod `mod` for arbitrary-precision e >= 0."""
    if e < 0:
        raise ValueError("negative polynomial exponent")
    result = poly_mod(gf, ONE, mod)
    f = poly_mod(gf, f, mod)
    while e:
        if e & 1:
            result = poly_mod(gf, poly_mul(gf, result, f), mod)
        e >>= 1
        if e:
            f = poly_mod(gf, poly_mul(gf, f, f), mod)
    return result


def poly_frobenius(gf: GF2m, f: Poly, k: int) -> Poly:
    """Apply a^(2^k) to every coefficient."""
    frob = gf.frobenius
    return tuple(frob(a, k) for a in f)


def poly_sort_key(f: Poly):
    """Total order: by degree, then coefficients from highest degree down."""
    return (len(f), tuple(reversed(f)))


# ---------------------------------------------------------------------------
# Irreducibility and enumeration
# ---------------------------------------------------------------------------

def is_irreducible(gf: GF2m, f: Poly) -> bool:
    """Irreducibility over GF(q) by Ben-Or's test.

    f of degree r is irreducible iff gcd(x^(q^k) - x mod f, f) = 1 for
    every k = 1 .. r // 2; the loop stops at the first nontrivial gcd.
    """
    r = poly_degree(f)
    if r < 1:
        raise ValueError("irreducibility is undefined for constants")
    x_mod = poly_mod(gf, X, f)
    t = x_mod
    for _ in range(r // 2):
        for _ in range(gf.m):
            t = poly_sqr_mod(gf, t, f)
        if poly_degree(poly_gcd(gf, poly_add(t, x_mod), f)) != 0:
            return False
    return True


def count_irreducibles(q: int, r: int) -> int:
    """|I_r| = (1/r) * sum over d | r of mu(d) q^(r/d), exactly."""
    if q < 2 or r < 1:
        raise ValueError("need q >= 2 and r >= 1")
    total = intnt.mobius_power_sum(q, r)
    if total % r:
        raise InternalCheckError(f"Möbius sum {total} not divisible by r={r}")
    return total // r


def monic_by_index(gf: GF2m, r: int, idx: int) -> Poly:
    """The idx-th monic polynomial of degree r (constant term = least digit)."""
    coeffs = []
    for _ in range(r):
        coeffs.append(idx % gf.order)
        idx //= gf.order
    coeffs.append(1)
    return tuple(coeffs)


def enumerate_irreducibles(gf: GF2m, r: int):
    """Yield every monic irreducible of degree r, in index order.

    The index order is ascending base-q value of the non-leading
    coefficient vector, constant term least significant.
    """
    total = gf.order**r
    if total > 1 << 20:
        raise GuardError(
            f"enumeration of {gf.order}^{r} = 2^{gf.m * r} candidates exceeds the 2^20 guard"
        )
    for idx in range(total):
        f = monic_by_index(gf, r, idx)
        if is_irreducible(gf, f):
            yield f


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Parameters:
    """The pair (n, r) with q = 2^n, plus the arithmetic hypotheses.

    In strict mode (the default), construction enforces: n an odd prime
    greater than 3, r >= 3, gcd(r, n) = 1 and gcd(r, q(q^2 - 1)) = 1.
    Relaxed mode skips those checks; the bound computation refuses
    relaxed parameters, but the group-action machinery accepts them.
    """

    n: int
    r: int
    strict: bool = True

    def __post_init__(self):
        if self.n < 1 or self.r < 1:
            raise HypothesisError("n and r must be positive")
        if self.strict:
            self.validate()

    @property
    def q(self) -> int:
        return 1 << self.n

    def validate(self) -> None:
        n, r = self.n, self.r
        if n <= 3 or not intnt.is_prime(n):
            raise HypothesisError(f"n={n}: n must be an odd prime > 3")
        if r < 3:
            raise HypothesisError(f"r={r}: r must be at least 3")
        if math.gcd(r, n) != 1:
            raise HypothesisError(f"gcd(r, n) = gcd({r}, {n}) != 1")
        # gcd(r, q(q^2-1)) via residues mod r, avoiding the huge product.
        qr = pow(2, n, r)
        residue = qr * (qr * qr - 1) % r
        g = math.gcd(r, residue)
        if g != 1:
            raise HypothesisError(f"gcd(r, q(q^2-1)) = {g} != 1 for n={n}, r={r}")


# ---------------------------------------------------------------------------
# Orders and divisors of x^(2^r) + x
# ---------------------------------------------------------------------------

def poly_order(gf: GF2m, f: Poly) -> int:
    """Least e >= 1 with f | x^e - 1; f must be irreducible with f(0) != 0."""
    if not f or f[0] == 0:
        raise ValueError("polynomial order requires a nonzero constant term")
    if not is_irreducible(gf, f):
        raise ValueError("polynomial order implemented for irreducibles only")
    d = poly_degree(f)
    m = gf.order**d - 1
    e = m
    one = poly_mod(gf, ONE, f)
    for p, _ in intnt.factorize(m):
        while e % p == 0 and poly_powmod(gf, X, e // p, f) == one:
            e //= p
    return e


def divides_x2r_plus_x(gf: GF2m, f: Poly, r: int) -> bool:
    """Does f divide x^(2^r) + x?  Computed as r squarings mod f."""
    t = poly_mod(gf, X, f)
    for _ in range(r):
        t = poly_sqr_mod(gf, t, f)
    return poly_mod(gf, poly_add(t, X), f) == ZERO


def count_divisor_polys_mobius(r: int) -> int:
    """(1/r) * sum over d | r of mu(d) (2^(r/d) - 1), exactly."""
    if r < 1:
        raise ValueError("r must be positive")
    # sum over d | r of mu(d) is 1 at r = 1 and 0 otherwise.
    total = intnt.mobius_power_sum(2, r) - (r == 1)
    if total % r:
        raise InternalCheckError(f"Möbius sum {total} not divisible by r={r}")
    return total // r


def divisor_polynomials(params: Parameters) -> list[Poly]:
    """Monic irreducible degree-r polynomials over GF(q) dividing x^(2^r)+x.

    A root of x^(2^r) + x of degree d over GF(2) has degree
    d / gcd(d, n) over GF(q), so degree-r divisors exist only when
    gcd(r, n) = 1, and then they are exactly the binary irreducibles of
    degree r.  Those are found by scanning the 2^r bit-packed binary
    candidates.  Sorted by the standard polynomial order; each result is
    re-verified to divide x^(2^r) + x.
    """
    n, r = params.n, params.r
    if math.gcd(r, n) != 1:
        return []
    if r > 16:
        raise GuardError(f"divisor enumeration of 2^{r} binary candidates exceeds the 2^16 guard")
    top = 1 << r
    found = [
        tuple((f >> i) & 1 for i in range(r + 1))
        for f in range(top, 2 * top)
        if gf2_is_irreducible(f)
    ]
    result = sorted(found, key=poly_sort_key)
    gf = make_field(n)
    for f in result:
        if not divides_x2r_plus_x(gf, f, r):
            raise InternalCheckError("divisor polynomial fails its defining divisibility")
    return result


def divisor_polynomials_by_minpoly(tower: Tower) -> list[Poly]:
    """The degree-r divisors of x^(2^r)+x over GF(q), through the tower.

    The general route, kept as the reference for `divisor_polynomials`:
    the minimal polynomials over GF(q) of the elements of the subfield
    GF(2^r) of GF(q^r) (exactly the roots of x^(2^r) + x), keeping those
    of degree r.  Sorted by the standard polynomial order.
    """
    r = tower.r
    found = set()
    for beta in subfield_elements(tower.ext, r):
        mp = tower.minimal_polynomial(beta)
        if poly_degree(mp) == r:
            found.add(mp)
    return sorted(found, key=poly_sort_key)


def e_set(params: Parameters) -> list[int]:
    """E(r, q): divisors e > 1 of 2^r - 1 not dividing q^d - 1 for any d < r."""
    n, r = params.n, params.r
    m = 2**r - 1
    out = []
    for e in intnt.divisors(m):
        if e == 1:
            continue
        if all(pow(2, n * d, e) != 1 for d in range(1, r)):
            out.append(e)
    return out


def e_set_count(params: Parameters) -> int:
    """sum of phi(e) over E(r, q), divided exactly by r."""
    total = sum(intnt.euler_phi(e) for e in e_set(params))
    r = params.r
    if total % r:
        raise InternalCheckError(f"phi sum {total} over E(r,q) not divisible by r={r}")
    return total // r


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def poly_to_bits(gf: GF2m, f: Poly) -> list[str]:
    """Serialized coefficient list: LSB-first bit-strings, lowest degree first."""
    from .gf2field import elem_to_bits

    return [elem_to_bits(c, gf.m) for c in f]


def poly_from_bits(gf: GF2m, bits: list[str]) -> Poly:
    from .gf2field import elem_from_bits

    return poly_from_coeffs(gf, (elem_from_bits(s) for s in bits))


def elem_to_text(gf: GF2m, c: int) -> str:
    """Display a coefficient as a power of the field generator g."""
    if c == 0:
        return "0"
    if c == 1:
        return "1"
    if gf._log is not None:
        k = gf._log[c]
        return "g" if k == 1 else f"g{k}"
    from .gf2field import elem_to_bits

    return "b" + elem_to_bits(c, gf.m)


def poly_to_text(gf: GF2m, f: Poly) -> str:
    """Human-readable form, e.g. 'x^5 + g3*x + g'."""
    if not f:
        return "0"
    terms = []
    for i in range(len(f) - 1, -1, -1):
        c = f[i]
        if c == 0:
            continue
        xpart = "1" if i == 0 else "x" if i == 1 else f"x^{i}"
        if i == 0:
            terms.append(elem_to_text(gf, c))
        elif c == 1:
            terms.append(xpart)
        else:
            terms.append(f"{elem_to_text(gf, c)}*{xpart}")
    return " + ".join(terms)
