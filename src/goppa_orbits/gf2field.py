"""Binary finite fields GF(2^m) and the tower GF(2) < GF(q) < GF(q^r).

Field elements are plain ints: bit i is the coefficient of x^i in the
residue-class representative, so 0 and 1 are the field's zero and one.
A `GF2m` context carries the modulus and does all arithmetic; contexts
are immutable after construction and safe to share.

Multiplication is carry-less multiply followed by modular reduction.
Fields with m <= 16 additionally build exp/log tables over a fixed
primitive element.  `rows` is the unchecked product table, rows[a][b] =
a*b (lists for m <= 8; above, each row computes its products on demand,
one exp/log read each up to m = 16), for the hot loops of polyq and
action; their public functions check operands once per call.

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

from .errors import GuardError, require_positive
from .intnt import factorize

MAX_DEGREE = 64
_TABLE_DEGREE = 16
_ROW_TABLE_DEGREE = 8
_TOWER_DEGREE = 16


def check_degree(m: int, name: str = "m") -> None:
    """The one guard of MAX_DEGREE: refuse a field degree outside 1..MAX_DEGREE, under the caller's name for it."""
    if not 1 <= m <= MAX_DEGREE:
        raise GuardError(f"field degree {name} = {m} outside supported range 1..{MAX_DEGREE}")


def _check_tower_degree(n: int) -> None:
    """The one guard of _TOWER_DEGREE: a tower scans its 2^n base elements for a root and tables their images."""
    if n > _TOWER_DEGREE:
        raise GuardError(f"tower base degree {n} exceeds the ceiling {_TOWER_DEGREE} of its 2^n-element scan and table")


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
    check_degree(m)
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
        elif term.startswith("x^") and term[2:].isdecimal():
            k = int(term[2:])
            if k:  # x^0 is 1; a degree over the field ceiling is refused before 1 << k is built
                check_degree(k, "k of x^k")
            mod ^= 1 << k
        elif term == "0" and s == "0":
            return 0
        else:
            raise ValueError(f"cannot parse polynomial term {term!r} in {text!r}")
    return mod


def elem_to_bits(a: int, m: int) -> str:
    """Fixed-width LSB-first bit-string of a field element."""
    return "".join("1" if (a >> i) & 1 else "0" for i in range(m))


# ---------------------------------------------------------------------------
# Field context
# ---------------------------------------------------------------------------

class GF2m:
    """GF(2^m) defined by an explicit monic irreducible modulus."""

    def __init__(self, m: int, modulus: int | None = None):
        check_degree(m)
        if modulus is None:
            modulus = smallest_irreducible(m)
        elif modulus.bit_length() - 1 != m:
            raise ValueError(f"modulus degree {modulus.bit_length() - 1} != m={m}")
        elif not gf2_is_irreducible(modulus):
            raise ValueError(f"modulus {modulus_to_text(modulus)} is reducible over GF(2)")
        self.m = m
        self.modulus = modulus
        self.order = 1 << m
        self.mult_order = self.order - 1
        self._exp: list[int] | None = None
        self._log: list[int] | None = None
        if m <= _TABLE_DEGREE:
            self._build_tables()
        self.rows = self._build_rows() if m <= _ROW_TABLE_DEGREE else _ComputedRows(self)

    def __repr__(self) -> str:
        return f"GF2m(m={self.m}, modulus={modulus_to_text(self.modulus)})"

    def _mul_raw(self, a: int, b: int) -> int:
        return gf2_mod(clmul(a, b), self.modulus)

    def _build_tables(self) -> None:
        # exp[i + 1] = exp[i] * g: shift over the set bits of g, fold bits >= m back by table
        g = self._find_generator()
        m, s, mask = self.m, self.mult_order, self.order - 1
        shifts = [j for j in range(g.bit_length()) if g >> j & 1]
        fold = [gf2_mod(h << m, self.modulus) for h in range(1 << (g.bit_length() - 1))]
        exp = [0] * s
        log = [-1] * self.order
        v = 1
        for i in range(s):
            exp[i] = v
            log[v] = i
            w = 0
            for j in shifts:
                w ^= v << j
            v = w & mask ^ fold[w >> m]
        exp *= 2
        self.generator = g
        self._exp = exp
        self._log = log

    def _build_rows(self) -> list[list[int]]:
        exp, logs = self._exp, self._log[1:]
        return [[0] * self.order] + [[0] + [exp[la + lb] for lb in logs] for la in logs]

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

    def mul(self, a: int, b: int) -> int:
        self._check(a, b)
        return self.rows[a][b]

    def square(self, a: int) -> int:
        self._check(a)
        return self.rows[a][a]

    def inv(self, a: int) -> int:
        self._check(a)
        if a == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self._inverse(a)

    def _inverse(self, a: int) -> int:
        """1/a for a nonzero element already checked."""
        if self._exp is not None:
            return self._exp[self.mult_order - self._log[a]]
        return gf2_invmod(a, self.modulus)

    def frobenius(self, a: int, k: int) -> int:
        """a^(2^k); k is reduced mod m since squaring m times is identity."""
        self._check(a)
        return self._frobenius(a, k)

    def _frobenius(self, a: int, k: int) -> int:
        if not a:
            return 0
        if self._exp is not None:
            # log a^(2^k) = 2^(k mod m) log a (mod s): one table read, like inv
            return self._exp[(self._log[a] << k % self.m) % self.mult_order]
        for _ in range(k % self.m):
            a = self._mul_raw(a, a)
        return a

    def elements(self) -> range:
        return range(self.order)


class _ComputedRows:
    """`GF2m.rows` for m > 8, where a list table would be too large.  rows[a]
    is chosen once per row, so rows[a][b] is one Python call: with exp/log
    tables (m <= 16), a shared list of zeros for a = 0, else a `_LogRow`;
    above m = 16, a `_RawRow`."""

    __slots__ = ("exp", "log", "mul", "zeros")

    def __init__(self, gf: GF2m):
        self.exp, self.log, self.mul = gf._exp, gf._log, gf._mul_raw
        self.zeros = None if self.log is None else [0] * gf.order

    def __getitem__(self, a: int):
        if self.log is None:
            return _RawRow(self.mul, a)
        return _LogRow(self.exp, self.log, self.log[a]) if a else self.zeros


class _LogRow:
    """rows[a] for a != 0 of a field with exp/log tables: [b] = exp[log a + log b]."""

    __slots__ = ("exp", "log", "la")

    def __init__(self, exp: list[int], log: list[int], la: int):
        self.exp, self.log, self.la = exp, log, la

    def __getitem__(self, b: int) -> int:
        return self.exp[self.la + self.log[b]] if b else 0


class _RawRow:
    """rows[a] of a field without exp/log tables (m > 16): [b] = `GF2m._mul_raw`(a, b)."""

    __slots__ = ("mul", "a")

    def __init__(self, mul, a: int):
        self.mul, self.a = mul, a

    def __getitem__(self, b: int) -> int:
        return self.mul(self.a, b)


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
    GF(2).  `embedded[a]` is the image of a, the XOR of root^i over the
    bits i of a; its 2^n entries cap n at 16.  `r` and `n` are
    recoverable as ext.m // base.m and base.m.
    """

    def __init__(self, base: GF2m, ext: GF2m, root: int):
        if ext.m % base.m != 0:
            raise ValueError("extension degree is not a multiple of the base degree")
        _check_tower_degree(base.m)
        self.base = base
        self.ext = ext
        self.n = base.m
        self.r = ext.m // base.m
        self.root = root
        if _eval_gf2poly(ext, base.modulus, root) != 0:
            raise ValueError("root does not satisfy the base modulus")
        powers = [1]
        for _ in range(base.m - 1):
            powers.append(ext.mul(powers[-1], root))
        self.embedded = tuple(gf2_span(powers))
        self._preimage = {y: a for a, y in enumerate(self.embedded)}

    def __repr__(self) -> str:
        return f"Tower(GF(2^{self.n}) < GF(2^{self.ext.m}))"

    def embed(self, a: int) -> int:
        """Image of a base-field element in the extension."""
        self.base._check(a)
        return self.embedded[a]

    def unembed(self, y: int) -> int:
        """Preimage of an extension element lying in the embedded base field."""
        self.ext._check(y)
        if y not in self._preimage:
            raise ValueError("element is not in the embedded base field")
        return self._preimage[y]

    def frob_q(self, alpha: int) -> int:
        """alpha^q, the base-field Frobenius."""
        return self.ext.frobenius(alpha, self.n)

    def _conjugates(self, alpha: int) -> list[int]:
        """alpha, alpha^q, alpha^(q^2), ... up to the first repeat: degree_over(alpha) of them."""
        conjugates, beta = [alpha], self.frob_q(alpha)
        while beta != alpha:
            if len(conjugates) == self.r:
                raise AssertionError("degree did not divide r; tower is inconsistent")
            conjugates.append(beta)
            beta = self.frob_q(beta)
        return conjugates

    def degree_over(self, alpha: int) -> int:
        """Smallest d >= 1 with alpha^(q^d) = alpha; always divides r."""
        return len(self._conjugates(alpha))

    def minimal_polynomial(self, alpha: int) -> tuple[int, ...]:
        """Monic minimal polynomial of alpha over GF(q).

        Returned as base-field coefficients, lowest degree first; its
        degree is degree_over(alpha).
        """
        poly = [1]
        for c in self._conjugates(alpha):
            # multiply by (x + c): zip pairs p_i with p_(i-1)
            rc = self.ext.rows[c]
            poly = [rc[s] ^ t for s, t in zip(poly + [0], [0] + poly)]
        return tuple(self.unembed(c) for c in poly)


def gf2_kernel(images: list[int]) -> list[int]:
    """Basis of the kernel of the GF(2)-linear map sending basis vector i to images[i].

    Each image is reduced by the earlier independent ones, pivoting on
    the top bit, carrying the combination of inputs; one that reduces to
    0 gives a kernel vector made of its own bit and independent inputs
    only, as row reduction builds it for a free column.  Vectors come in
    input order, bit i standing for input i.
    """
    pivots: dict[int, tuple[int, int]] = {}
    kernel = []
    for i, v in enumerate(images):
        combo = 1 << i
        while v:
            top = v.bit_length() - 1
            if top not in pivots:
                pivots[top] = v, combo
                break
            pv, pc = pivots[top]
            v ^= pv
            combo ^= pc
        else:
            kernel.append(combo)
    return kernel


def gf2_span(basis: list[int], start: int = 0) -> list[int]:
    """Every start XOR a sum of basis vectors: entry k XORs start with basis[i] over the set bits i of k."""
    span = [start]
    for v in basis:
        span += [e ^ v for e in span]
    return span


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
    basis = gf2_kernel([ext.frobenius(1 << i, d) ^ (1 << i) for i in range(nm)])
    if len(basis) != d:
        raise AssertionError("subfield dimension mismatch")
    return sorted(gf2_span(basis))


def _eval_gf2poly(gf: GF2m, poly: int, at: int) -> int:
    """Evaluate a GF(2)-coefficient polynomial at a point of gf (Horner)."""
    acc = 0
    for i in range(poly.bit_length() - 1, -1, -1):
        acc = gf.mul(acc, at) ^ (poly >> i) & 1
    return acc


def make_tower(n: int, r: int) -> Tower:
    """Build GF(2^n) < GF(2^(nr)) with the deterministic embedding.

    The base generator maps to the smallest root of the base modulus in
    the extension, where the ascending scan of GF(2^n) stops; the other
    roots are its n - 1 Frobenius conjugates, all above it.
    """
    require_positive(n=n, r=r)
    check_degree(n * r, "n*r")
    _check_tower_degree(n)
    base = make_field(n)
    ext = make_field(n * r)
    # Roots of the base modulus all live in the copy of GF(2^n) inside ext.
    root = next(z for z in subfield_elements(ext, n) if _eval_gf2poly(ext, base.modulus, z) == 0)
    conjugates = {ext.frobenius(root, k) for k in range(n)}
    if len(conjugates) != n or min(conjugates) != root:
        raise AssertionError("an irreducible of degree n must have n roots in GF(2^(nr))")
    return Tower(base, ext, root)
