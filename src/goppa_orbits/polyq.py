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
from collections import namedtuple

from .errors import GuardError, HypothesisError, InternalCheckError, require_positive
from .gf2field import GF2m, Tower, clmul, elem_to_bits, gf2_mod, gf2_span, make_field, subfield_elements
from . import intnt

Poly = tuple[int, ...]

ZERO: Poly = ()
ONE: Poly = (1,)
X: Poly = (0, 1)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------

def poly_degree(f: Poly) -> int:
    """Degree; the zero polynomial has degree -1."""
    return len(f) - 1


def poly_mul(gf: GF2m, f: Poly, g: Poly) -> Poly:
    """The schoolbook product; oracle for `enumerate_irreducibles`, which multiplies no polynomial."""
    gf._check(*f, *g)
    if not f or not g:
        return ZERO
    rows = gf.rows
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            ra = rows[a]
            for j, b in enumerate(g, i):
                out[j] ^= ra[b]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_divmod(gf: GF2m, f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder by long division; oracle for `_rem`, which builds no quotient."""
    gf._check(*f, *g)
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    if len(f) < len(g):
        return ZERO, f
    rows = gf.rows
    r_inv_lead = rows[gf.inv(g[-1])]
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * (len(f) - dg)
    for lo in range(len(quot) - 1, -1, -1):
        c = quot[lo] = r_inv_lead[rem[lo + dg]]
        if c:
            rc = rows[c]
            for j, b in enumerate(g, lo):
                rem[j] ^= rc[b]
    while rem and rem[-1] == 0:
        rem.pop()
    while quot and quot[-1] == 0:
        quot.pop()
    return tuple(quot), tuple(rem)


def _rem(gf: GF2m, f, g: Poly) -> Poly:
    """f mod g for operands already checked, building no quotient; a monic g needs no inverse."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    dg = len(g) - 1
    if len(f) <= dg:
        return tuple(f)
    rows, low = gf.rows, g[:-1]
    r_inv_lead = None if g[-1] == 1 else rows[gf.inv(g[-1])]
    rem = list(f)
    for top in range(len(rem) - 1, dg - 1, -1):
        c = rem[top]
        if c:
            rc = rows[c] if r_inv_lead is None else rows[r_inv_lead[c]]
            for j, b in enumerate(low, top - dg):
                rem[j] ^= rc[b]
    del rem[dg:]
    while rem and rem[-1] == 0:
        rem.pop()
    return tuple(rem)


def poly_eval(gf: GF2m, f: Poly, a: int) -> int:
    gf._check(a, *f)
    ra = gf.rows[a]
    acc = 0
    for c in reversed(f):
        acc = ra[acc] ^ c
    return acc


def poly_powmod(gf: GF2m, f: Poly, e: int, mod: Poly) -> Poly:
    """f^e mod `mod` for arbitrary-precision e >= 0; oracle for `e_set_count`, through `poly_order`."""
    if e < 0:
        raise ValueError("negative polynomial exponent")
    gf._check(*f, *mod)
    result = _rem(gf, ONE, mod)
    f = _rem(gf, f, mod)
    while e:
        if e & 1:
            result = _rem(gf, poly_mul(gf, result, f), mod)
        e >>= 1
        if e:
            f = _rem(gf, poly_mul(gf, f, f), mod)
    return result


def poly_frobenius(gf: GF2m, f: Poly, k: int) -> Poly:
    """Apply a^(2^k) to every coefficient; f is checked once."""
    gf._check(*f)
    frob = gf._frobenius
    return tuple([frob(a, k) for a in f])


def poly_sort_key(f: Poly):
    """By degree, then coefficients from the top: the oracle for `_pgl_orbit_members`'s member order."""
    return (len(f), tuple(reversed(f)))


# ---------------------------------------------------------------------------
# Irreducibility and enumeration
# ---------------------------------------------------------------------------

def is_irreducible(gf: GF2m, f: Poly) -> bool:
    """Irreducibility over GF(q) by Ben-Or's test.

    f of degree r is irreducible iff gcd(x^(q^k) - x mod f, f) = 1 for
    every k = 1 .. h, h = r // 2.  x^(q^k) is advanced for every k, but
    the gcd runs only for k in (h/2, h]: a factor of degree d <= h has
    roots in GF(q^k) for the multiple k = d * (h // d), which lies there
    as d * (h // d) > h - d >= h/2.  So an irreducible f, the input of
    every product caller, costs ceil(h/2) gcds, and a reducible one may
    be refused a round later.  f is checked once here; only a non-monic
    f is rescaled.  x^k mod f, k = r .. 2r - 2, is built once by
    shift-and-fold; a square mod f reads its even powers as product rows,
    so it divides nothing.  The first round starts from the largest
    x^(2^j) with 2^j <= min(q, 2r - 1), so it squares nothing when
    q <= 2r - 1.  The gcds run on lists in place, inverting by table.
    """
    r = poly_degree(f)
    if r < 1:
        raise ValueError("irreducibility is undefined for constants")
    gf._check(*f)
    if not f[r]:
        raise ValueError(f"zero leading coefficient f[{r}]: a polynomial tuple has no trailing zeros")
    rows, inverse = gf.rows, gf._inverse
    low = list(f[:r]) if f[r] == 1 else [rows[inverse(f[r])][a] for a in f[:r]]
    # powers[i] = x^(r+i) mod f: x^r = low in characteristic 2, and x^(k+1)
    # shifts x^k and folds its top back; squarings fold through the even ones.
    powers = [low]
    for _ in range(r - 2):
        rt = rows[powers[-1][-1]]
        powers.append([a ^ rt[b] for a, b in zip([0] + powers[-1][:-1], low)])
    folds = [[rows[a] for a in power] for power in powers[r & 1 :: 2]]
    # x^e, e = 2^j: a monomial below x^r, else read from powers
    e = 1 << min(gf.m, (2 * r - 1).bit_length() - 1)
    t = powers[e - r] if e >= r else [0] * e + [1] + [0] * (r - e - 1)
    h, half, squarings = r // 2, (r + 1) // 2, gf.m + 1 - e.bit_length()
    for k in range(1, h + 1):
        for _ in range(squarings):
            sq = [rows[a][a] for a in t]
            t = [0] * r
            t[::2] = sq[:half]
            for a, fold in zip(sq[half:], folds):
                if a:
                    t = [b ^ row[a] for b, row in zip(t, fold)]
        squarings = gf.m
        if 2 * k <= h:
            continue
        # gcd(t - x, f) by Euclid on lists; u runs from f, w from t - x.
        u, w = low + [1], t[:]
        w[1] ^= 1
        while w and not w[-1]:
            w.pop()
        while len(w) > 1:
            dw = len(w) - 1
            inv = rows[inverse(w[-1])]
            for top in range(len(u) - 1, dw - 1, -1):
                if u[top]:
                    rc = rows[inv[u[top]]]
                    for j in range(dw):
                        u[top - dw + j] ^= rc[w[j]]
            del u[dw:]
            while u and not u[-1]:
                u.pop()
            u, w = w, u
        if not w:
            return False
    return True


def count_irreducibles(q: int, r: int) -> int:
    """|I_r| = (1/r) * sum over d | r of mu(d) q^(r/d), exactly."""
    if q < 2 or r < 1:
        raise ValueError("need q >= 2 and r >= 1")
    return intnt.exact_quotient(intnt.mobius_power_sum(q, r), r, "Möbius sum for |I_r|")


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
    coefficient vector, constant term least significant.  A product
    sieve: one byte per candidate, marked for every a*b with a monic
    irreducible of degree d <= r/2 (from this sieve at degree d) and b
    monic of degree r - d; the unmarked indices are the irreducibles.
    As q = 2^m, an index packs the m-bit coefficients side by side, so
    adding polynomials is XOR of indices and b -> a*b is GF(2)-linear:
    the indices marked for a are idx(a*x^(r-d)) XOR the span of the
    packed products a*2^k*x^j, k < m, j < r - d, where 2^k is the field
    element with bit k set.  No polynomial is multiplied;
    `is_irreducible` (Ben-Or) is the test it must match.
    """
    if r < 1:
        raise ValueError(f"irreducible enumeration needs degree r >= 1, got r = {r}")
    m, rows = gf.m, gf.rows
    # Priced in bits, so a huge r is refused without building q^r.
    if m * r > 20:
        raise GuardError(f"enumeration of q^r = {gf.order}^{r} = 2^{m * r} candidates exceeds the 2^20 guard")
    total = 1 << (m * r)
    marked = bytearray(total)
    for d in range(1, r // 2 + 1):
        for a in enumerate_irreducibles(gf, d):
            scaled = [sum(rows[1 << k][c] << (m * i) for i, c in enumerate(a)) for k in range(m)]
            basis = [v << (m * j) for j in range(r - d) for v in scaled]
            # a*x^(r-d) without its x^r; the span splits in two, so
            # neither list outgrows 2^12 entries
            low = gf2_span(basis[:12], (scaled[0] << (m * (r - d))) ^ total)
            for h in gf2_span(basis[12:]):
                for idx in low:
                    marked[idx ^ h] = 1
    idx = marked.find(0)
    while idx >= 0:
        yield monic_by_index(gf, r, idx)
        idx = marked.find(0, idx + 1)


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

# n r, the bit size of q^r, the largest number the counting formulas build
_BITS_CEILING = 20


class Parameters(namedtuple("Parameters", "n r strict")):
    """The pair (n, r) with q = 2^n, plus the arithmetic hypotheses.

    In strict mode (the default), construction enforces: n an odd prime
    greater than 3, r >= 3, gcd(r, n) = 1 and gcd(r, q(q^2 - 1)) = 1.
    Relaxed mode skips those checks; the bound computation refuses
    relaxed parameters, but the group-action machinery accepts them.
    Both modes refuse n r > 2^20 first.
    Every construction, `_make` and `_replace` included, runs the checks,
    so a strict instance is valid by construction.
    """

    __slots__ = ()

    def __new__(cls, n: int, r: int, strict: bool = True):
        self = super().__new__(cls, n, r, strict)
        require_positive(n=n, r=r)
        if n * r > 1 << _BITS_CEILING:
            raise GuardError(
                f"n*r = {n * r} exceeds the 2^{_BITS_CEILING} ceiling on the bit size of q^r (n = {n}, r = {r})"
            )
        if strict:
            self.validate()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    @property
    def q(self) -> int:
        return 1 << self.n

    @staticmethod
    def check_n(n: int) -> None:
        """The strict hypotheses on n alone, with r >= 3 in the n*r ceiling, for callers that pair one n with many r."""
        require_positive(n=n)
        if 3 * n > 1 << _BITS_CEILING:
            raise GuardError(
                f"n = {n}: n*r exceeds the 2^{_BITS_CEILING} ceiling on the bit size of q^r for every r >= 3"
            )
        if n <= 3 or not intnt.is_prime(n):
            raise HypothesisError(f"n={n}: n must be an odd prime > 3")

    def validate(self) -> None:
        n, r = self.n, self.r
        self.check_n(n)
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
    """Least e >= 1 with f | x^e - 1; f must be irreducible with f(0) != 0.

    Oracle for `e_set_count`: each e in E(r, q) is the order of phi(e)/r
    of the divisor polynomials.
    """
    if not f or f[0] == 0:
        raise ValueError("polynomial order requires a nonzero constant term")
    if not is_irreducible(gf, f):
        raise ValueError("polynomial order implemented for irreducibles only")
    d = poly_degree(f)
    m = gf.order**d - 1
    e = m
    one = _rem(gf, ONE, f)
    for p, _ in intnt.factorize(m):
        while e % p == 0 and poly_powmod(gf, X, e // p, f) == one:
            e //= p
    return e


def divides_x2r_plus_x(gf: GF2m, f: Poly, r: int) -> bool:
    """Does f divide x^(2^r) + x?  r squarings mod f over GF(q); oracle for `divisor_polynomials`."""
    gf._check(*f)
    rows = gf.rows
    t = x = _rem(gf, X, f)
    for _ in range(r):
        # cross terms vanish in characteristic 2
        t = _rem(gf, [c for a in t for c in (rows[a][a], 0)][:-1], f)
    return t == x


def count_divisor_polys_mobius(r: int) -> int:
    """(1/r) * sum over d | r of mu(d) (2^(r/d) - 1), exactly."""
    require_positive(r=r)
    # sum over d | r of mu(d) is 1 at r = 1 and 0 otherwise.
    total = intnt.mobius_power_sum(2, r) - (r == 1)
    return intnt.exact_quotient(total, r, "Möbius sum for the divisor count")


def divisor_polynomials(params: Parameters) -> list[Poly]:
    """Monic irreducible degree-r polynomials over GF(q) dividing x^(2^r)+x.

    A root of x^(2^r) + x of degree d over GF(2) has degree
    d / gcd(d, n) over GF(q), so degree-r divisors exist only when
    gcd(r, n) = 1, and then they are exactly the binary irreducibles of
    degree r: `enumerate_irreducibles` over GF(2), whose index order is
    the standard polynomial order.  Each result is re-verified to divide
    x^(2^r) + x over GF(2), bit-packed (divisibility is the same over GF(q)).
    """
    n, r = params.n, params.r
    if math.gcd(r, n) != 1:
        return []
    if r > 16:
        raise GuardError(f"divisor enumeration of 2^{r} binary candidates exceeds the 2^16 guard")
    result = list(enumerate_irreducibles(make_field(1), r))
    for f in result:
        packed = sum(c << i for i, c in enumerate(f))
        t = x = gf2_mod(2, packed)
        for _ in range(r):
            t = gf2_mod(clmul(t, t), packed)
        if t != x:
            raise InternalCheckError("divisor polynomial fails its defining divisibility")
    return result


def divisor_polynomials_by_minpoly(tower: Tower) -> list[Poly]:
    """The degree-r divisors of x^(2^r)+x over GF(q), through the tower.

    The general route, kept as the oracle for `divisor_polynomials`:
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
    return intnt.exact_quotient(total, params.r, "phi sum over E(r, q)")


# ---------------------------------------------------------------------------
# Text forms
# ---------------------------------------------------------------------------

def poly_to_bits(gf: GF2m, f: Poly) -> list[str]:
    """Serialized coefficient list: LSB-first bit-strings, lowest degree first."""
    return [elem_to_bits(c, gf.m) for c in f]


def elem_to_text(gf: GF2m, c: int) -> str:
    """Display a coefficient as a power of the field generator g."""
    if c == 0:
        return "0"
    if c == 1:
        return "1"
    if gf._log is not None:
        k = gf._log[c]
        return "g" if k == 1 else f"g{k}"
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
