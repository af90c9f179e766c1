"""Binary finite fields GF(2^m) and the tower GF(2) < GF(q) < GF(q^r).

Field elements are plain ints: bit i is the coefficient of x^i in the
residue-class representative, so 0 and 1 are the field's zero and one.
A `GF2m` context carries the modulus and does all arithmetic; contexts
are immutable after construction and safe to share.

Multiplication is carry-less multiply followed by modular reduction.
Fields with m <= 16 additionally build exp/log tables over a fixed
primitive element, which the orbit machinery leans on heavily.

Deterministic choices, documented so runs are reproducible everywhere:

* `make_field(m)` picks the monic irreducible modulus of degree m whose
  bit-packed value (bit i = coefficient of x^i) is smallest, e.g.
  m=1: x, m=2: x^2+x+1, m=3: x^3+x+1, m=4: x^4+x+1, m=5: x^5+x^2+1,
  m=6: x^6+x+1, m=7: x^7+x+1, m=8: x^8+x^4+x^3+x+1.
* `make_tower(n, r)` embeds GF(2^n) into GF(2^(nr)) by sending the base
  generator to the smallest (as an int) root of the base modulus in the
  extension; any root gives an isomorphic tower.
"""

from __future__ import annotations

from functools import lru_cache

from .bitmat import kernel_basis, row_reduce
from .errors import GuardError
from .intnt import factorize

MAX_DEGREE = 64
_TABLE_DEGREE = 16
_ROOT_SCAN_DEGREE = 16


# ---------------------------------------------------------------------------
# GF(2)[x] on bit-packed ints (bit i = coefficient of x^i)
# ---------------------------------------------------------------------------

def clmul(a: int, b: int) -> int:
    """Carry-less product of two binary polynomials."""
    r = 0
    while b:
        lsb = b & -b
        r ^= a << (lsb.bit_length() - 1)
        b ^= lsb
    return r


def gf2_mod(a: int, mod: int) -> int:
    """Remainder of a modulo mod in GF(2)[x]."""
    dm = mod.bit_length() - 1
    da = a.bit_length() - 1
    while da >= dm:
        a ^= mod << (da - dm)
        da = a.bit_length() - 1
    return a


def gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, gf2_mod(a, b)
    return a


def gf2_invmod(a: int, mod: int) -> int:
    """Inverse of a modulo the irreducible mod, by extended Euclid."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse")
    r0, r1 = mod, a
    s0, s1 = 0, 1
    while r1:
        dr0, dr1 = r0.bit_length() - 1, r1.bit_length() - 1
        if dr0 < dr1:
            r0, r1, s0, s1 = r1, r0, s1, s0
            continue
        shift = dr0 - dr1
        r0 ^= r1 << shift
        s0 ^= s1 << shift
    if r1 != 0 or r0 != 1:
        raise ZeroDivisionError("modulus is not irreducible or element is zero")
    return gf2_mod(s0, mod)


def gf2_is_irreducible(f: int) -> bool:
    """Irreducibility over GF(2) of a bit-packed binary polynomial.

    Ben-Or's test: f of degree m is irreducible iff
    gcd(x^(2^k) - x mod f, f) = 1 for every k = 1 .. m // 2.
    """
    m = f.bit_length() - 1
    if m < 1:
        return False
    x_mod = gf2_mod(2, f)
    t = x_mod
    for _ in range(m // 2):
        t = gf2_mod(clmul(t, t), f)
        if gf2_gcd(t ^ x_mod, f) != 1:
            return False
    return True


def smallest_irreducible(m: int) -> int:
    """Monic irreducible of degree m with smallest bit-packed value."""
    if not 1 <= m <= MAX_DEGREE:
        raise GuardError(f"field degree {m} outside supported range 1..{MAX_DEGREE}")
    top = 1 << m
    for low in range(top):
        f = top | low
        if gf2_is_irreducible(f):
            return f
    raise AssertionError("unreachable: irreducibles exist in every degree")


def modulus_to_text(mod: int) -> str:
    """Human-readable form, e.g. 0b1011 -> 'x^3+x+1'."""
    if mod == 0:
        return "0"
    terms = []
    for i in range(mod.bit_length() - 1, -1, -1):
        if (mod >> i) & 1:
            terms.append("1" if i == 0 else "x" if i == 1 else f"x^{i}")
    return "+".join(terms)


def modulus_to_bits(mod: int) -> str:
    """Coefficient bit-string, lowest degree first, e.g. 0b1011 -> '1101'."""
    return "".join("1" if (mod >> i) & 1 else "0" for i in range(mod.bit_length()))


def modulus_from_text(text: str) -> int:
    """Parse either text form of a binary polynomial.

    Accepts the LSB-first bit-string ('1101') and the human-readable
    polynomial ('x^3+x+1', case-insensitive, whitespace ignored).
    """
    s = text.strip().lower().replace(" ", "")
    if s and set(s) <= {"0", "1"} and len(s) > 1:
        return sum(1 << i for i, c in enumerate(s) if c == "1")
    mod = 0
    for term in s.split("+"):
        if term == "1":
            mod ^= 1
        elif term == "x":
            mod ^= 2
        elif term.startswith("x^"):
            mod ^= 1 << int(term[2:])
        elif term == "0" and s == "0":
            return 0
        else:
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
    return mod


def elem_to_bits(a: int, m: int) -> str:
    """Fixed-width LSB-first bit-string of a field element."""
    return "".join("1" if (a >> i) & 1 else "0" for i in range(m))


def elem_from_bits(s: str) -> int:
    return sum(1 << i for i, c in enumerate(s.strip()) if c == "1")


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class GF2m:
    """GF(2^m) defined by an explicit monic irreducible modulus."""

    def __init__(self, m: int, modulus: int | None = None):
        if not 1 <= m <= MAX_DEGREE:
            raise GuardError(f"field degree {m} outside supported range 1..{MAX_DEGREE}")
        if modulus is None:
            modulus = smallest_irreducible(m)
        if modulus.bit_length() - 1 != m:
            raise ValueError(f"modulus degree {modulus.bit_length() - 1} != m={m}")
        if not gf2_is_irreducible(modulus):
            raise ValueError(f"modulus {modulus_to_text(modulus)} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self.mult_order = self.order - 1
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m <= _TABLE_DEGREE:
            self._build_tables()

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus={modulus_to_text(self.modulus)})"

    def _mul_raw(self, a: int, b: int) -> int:
        return gf2_mod(clmul(a, b), self.modulus)

    def _build_tables(self) -> None:
        g = self._find_generator()
        s = self.mult_order
        exp = [1] * (2 * s if s > 1 else 2)
        v = 1
        for i in range(1, s):
            v = self._mul_raw(v, g)
            exp[i] = v
        for i in range(s, len(exp)):
            exp[i] = exp[i - s]
        log = [-1] * self.order
        for i in range(s):
            log[exp[i]] = i
        self.generator = g
        self._exp = exp
        self._log = log

    def _find_generator(self) -> int:
        s = self.mult_order
        if s == 1:
            return 1
        prime_parts = [s // p for p, _ in factorize(s)]
        for cand in range(2, self.order):
            if all(self._pow_raw(cand, k) != 1 for k in prime_parts):
                return cand
        raise AssertionError("unreachable: the multiplicative group is cyclic")

    def _pow_raw(self, a: int, e: int) -> int:
        r = 1
        while e:
            if e & 1:
                r = self._mul_raw(r, a)
            a = self._mul_raw(a, a)
            e >>= 1
        return r

    def _check(self, *elems: int) -> None:
        for a in elems:
            if a >> self.m or a < 0:
                raise ValueError(f"{a} is not an element of GF(2^{self.m})")

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        self._check(a, b)
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        if self._exp is not None:
            if a == 0 or b == 0:
                return 0
            return self._exp[self._log[a] + self._log[b]]
        return self._mul_raw(a, b)

    def square(self, a: int) -> int:
        if self._exp is not None:
            if a == 0:
                return 0
            return self._exp[2 * self._log[a]]
        return self._mul_raw(a, a)

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        if self._exp is not None:
            return self._exp[self.mult_order - self._log[a]]
        return gf2_invmod(a, self.modulus)

    def pow(self, a: int, e: int) -> int:
        """a^e; arbitrary-precision e is reduced mod 2^m - 1 for a != 0."""
        self._check(a)
        if e < 0:
            return self.pow(self.inv(a), -e)
        if a == 0:
            return 1 if e == 0 else 0
        s = self.mult_order
        e = e % s if s else 0
        if self._exp is not None:
            return self._exp[self._log[a] * e % s] if s else 1
        return self._pow_raw(a, e)

    def frobenius(self, a: int, k: int) -> int:
        """a^(2^k); k is reduced mod m since squaring m times is identity."""
        self._check(a)
        k %= self.m
        for _ in range(k):
            a = self.square(a)
        return a

    def trace(self, a: int) -> int:
        """Absolute trace to GF(2): a + a^2 + a^4 + ... + a^(2^(m-1))."""
        self._check(a)
        acc = a
        t = a
        for _ in range(self.m - 1):
            t = self.square(t)
            acc ^= t
        if acc not in (0, 1):
            raise AssertionError("trace landed outside GF(2)")
        return acc

    def elements(self) -> range:
        return range(self.order)


@lru_cache(maxsize=None)
def make_field(m: int) -> GF2m:
    """GF(2^m) with the deterministic smallest modulus, cached per degree."""
    return GF2m(m)


# ---------------------------------------------------------------------------
# The tower GF(q) < GF(q^r)
# ---------------------------------------------------------------------------

class Tower:
    """GF(q) = GF(2^n) embedded in GF(q^r) = GF(2^(nr)).

    The embedding sends the base generator to `root`, a root of the base
    modulus inside the extension; it is a field homomorphism fixing
    GF(2).  `r` and `n` are recoverable as ext.m // base.m and base.m.
    """

    def __init__(self, base: GF2m, ext: GF2m, root: int):
        if ext.m % base.m != 0:
            raise ValueError("extension degree is not a multiple of the base degree")
        self.base = base
        self.ext = ext
        self.n = base.m
        self.r = ext.m // base.m
        self.root = root
        if _eval_gf2poly(ext, base.modulus, root) != 0:
            raise ValueError("root does not satisfy the base modulus")
        wpows = [1]
        for _ in range(base.m - 1):
            wpows.append(ext.mul(wpows[-1], root))
        self._wpows = wpows
        # Each row carries the base element it embeds in the bits above ext.m.
        rows = [w | 1 << (ext.m + i) for i, w in enumerate(wpows)]
        self._unembed_rows = list(zip(*row_reduce(rows, ext.m)))

    def __repr__(self) -> str:
        return f"Tower(GF(2^{self.n}) < GF(2^{self.ext.m}))"

    def embed(self, a: int) -> int:
        """Image of a base-field element in the extension."""
        self.base._check(a)
        y = 0
        i = 0
        while a:
            if a & 1:
                y ^= self._wpows[i]
            a >>= 1
            i += 1
        return y

    def unembed(self, y: int) -> int:
        """Preimage of an extension element lying in the embedded base field."""
        self.ext._check(y)
        for row, col in self._unembed_rows:
            if (y >> col) & 1:
                y ^= row
        m = self.ext.m
        if y & ((1 << m) - 1):
            raise ValueError("element is not in the embedded base field")
        return y >> m

    def frob_q(self, alpha: int, k: int = 1) -> int:
        """alpha^(q^k), the base-field Frobenius iterated k times."""
        return self.ext.frobenius(alpha, self.n * k)

    def degree_over(self, alpha: int) -> int:
        """Smallest d >= 1 with alpha^(q^d) = alpha; always divides r."""
        beta = self.frob_q(alpha)
        d = 1
        while beta != alpha:
            beta = self.frob_q(beta)
            d += 1
            if d > self.r:
                raise AssertionError("degree did not divide r; tower is inconsistent")
        return d

    def minimal_polynomial(self, alpha: int) -> tuple[int, ...]:
        """Monic minimal polynomial of alpha over GF(q).

        Returned as base-field coefficients, lowest degree first; its
        degree is degree_over(alpha).
        """
        self.ext._check(alpha)
        ext = self.ext
        conjugates = [alpha]
        beta = self.frob_q(alpha)
        while beta != alpha:
            conjugates.append(beta)
            beta = self.frob_q(beta)
        poly = [1]
        for c in conjugates:
            # multiply by (x + c)
            nxt = [0] * (len(poly) + 1)
            for i, t in enumerate(poly):
                nxt[i + 1] ^= t
                nxt[i] ^= ext.mul(t, c)
            poly = nxt
        return tuple(self.unembed(c) for c in poly)


def subfield_elements(ext: GF2m, d: int) -> list[int]:
    """All elements of GF(2^d) inside GF(2^m): the roots of x^(2^d) + x.

    Computed as the kernel of the GF(2)-linear map z -> z^(2^d) + z,
    then spanned; requires d | m and 2^d enumerable.
    """
    nm = ext.m
    if nm % d != 0:
        raise ValueError(f"GF(2^{d}) is not a subfield of GF(2^{nm})")
    if d > 30:
        raise GuardError(f"subfield enumeration 2^{d} exceeds the 2^30 ceiling")
    cols = [ext.frobenius(1 << i, d) ^ (1 << i) for i in range(nm)]
    rows = []
    for i in range(nm):
        row = 0
        for j, c in enumerate(cols):
            row |= ((c >> i) & 1) << j
        rows.append(row)
    basis = kernel_basis(rows, nm)
    if len(basis) != d:
        raise AssertionError("subfield dimension mismatch")
    elems = [0]
    for b in basis:
        elems += [e ^ b for e in elems]
    return sorted(elems)


def _eval_gf2poly(gf: GF2m, poly: int, at: int) -> int:
    """Evaluate a GF(2)-coefficient polynomial at a point of gf (Horner)."""
    acc = 0
    for i in range(poly.bit_length() - 1, -1, -1):
        acc = gf.mul(acc, at)
        if (poly >> i) & 1:
            acc ^= 1
    return acc


def make_tower(n: int, r: int, root_choice: int = 0) -> Tower:
    """Build GF(2^n) < GF(2^(nr)) with the deterministic embedding.

    The base generator maps to the (root_choice)-th smallest root of the
    base modulus in the extension (0 = smallest, the default used
    everywhere; other choices exist only to check that results are
    embedding-independent).
    """
    if n < 1 or r < 1:
        raise ValueError("tower degrees must be positive")
    if n * r > MAX_DEGREE:
        raise GuardError(f"composite degree {n * r} exceeds the {MAX_DEGREE}-bit ceiling")
    if n > _ROOT_SCAN_DEGREE:
        raise GuardError(f"tower base degree {n} exceeds the root-scan ceiling {_ROOT_SCAN_DEGREE}")
    base = make_field(n)
    ext = make_field(n * r)
    # Roots of the base modulus all live in the copy of GF(2^n) inside ext.
    roots = [z for z in subfield_elements(ext, n) if _eval_gf2poly(ext, base.modulus, z) == 0]
    if len(roots) != n:
        raise AssertionError("an irreducible of degree n must have n roots in GF(2^(nr))")
    return Tower(base, ext, roots[root_choice])
