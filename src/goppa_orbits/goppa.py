"""Irreducible binary Goppa codes, their one-bit parity extension, and
weight-enumerator evidence for equivalence of codes built from elements
of the same semi-linear orbit.

A code of length q is cut out by the congruence
sum_i c_i / (x - alpha_i) = 0 (mod g(x)) over the support L = F_q, with
g monic irreducible of degree r over F_q.  Concretely the single row
(1/(alpha - alpha_0), ..., 1/(alpha - alpha_(q-1))) over F_(q^r), alpha
a root of g, is the GF(2)-linear map whose kernel is the code; its nr
binary rows over the power basis of the extension generator (i.e. the
bits of our element representation) are the parity checks.  Every
construction re-checks the congruence by synthetic division,
independently of the matrix path.

Codewords are bit-packed ints: bit i is coordinate i, and coordinate i
of the support is the field element with integer representation i.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import GuardError, InternalCheckError
from .gf2field import MAX_DEGREE, Tower, gf2_kernel
from .polyq import is_irreducible, poly_degree, poly_eval

_LENGTH_DEGREE = 10
_WEIGHT_ENUM_DIM_GUARD = 24
_PERM_SEARCH_LENGTH_GUARD = 9


class BinaryCode(namedtuple("BinaryCode", "length generator parity_check dimension")):
    """A binary linear code given by generator and parity-check rows.

    Construction validates that every row lies in the length coordinates,
    that the generator rows are independent, that generator and
    parity-check rows are orthogonal, and that the dimension matches
    length - rank(parity_check), in `_make` and `_replace` too.
    """

    __slots__ = ()

    def __new__(cls, length: int, generator: tuple[int, ...], parity_check: tuple[int, ...], dimension: int):
        self = super().__new__(cls, length, generator, parity_check, dimension)
        if dimension != len(generator):
            raise ValueError("dimension must equal the number of generator rows")
        if any(row >> length for row in (*generator, *parity_check)):
            raise ValueError(f"every row must lie in the {length} coordinates")
        if gf2_kernel(generator):
            raise ValueError("generator rows are linearly dependent")
        for g in generator:
            for h in parity_check:
                if (g & h).bit_count() & 1:
                    raise ValueError("generator row fails a parity check")
        if length - len(parity_check) + len(gf2_kernel(parity_check)) != dimension:
            raise ValueError("parity-check rank disagrees with the dimension")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def codewords(self):
        """All 2^dimension codewords, in Gray-code order starting at 0."""
        word = 0
        yield word
        for k in range(1, 1 << self.dimension):
            word ^= self.generator[(k & -k).bit_length() - 1]
            yield word


class GoppaSpec(namedtuple("GoppaSpec", "tower g alpha")):
    """Everything needed to build one code: the tower, g, and a root, checked like `BinaryCode`."""

    __slots__ = ()

    def __new__(cls, tower: Tower, g: tuple[int, ...], alpha: int):
        self = super().__new__(cls, tower, g, alpha)
        if poly_degree(g) < 2 or g[-1] != 1 or not is_irreducible(tower.base, g):
            raise ValueError("the defining polynomial must be monic irreducible of degree >= 2")
        if poly_eval(tower.ext, tuple(map(tower.embed, g)), alpha) != 0:
            raise ValueError("alpha is not a root of the defining polynomial")
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


def check_length(n: int) -> None:
    """Refuse base degree n > 10 (length q = 2^n over the 2^10 guard) without building q."""
    if n > _LENGTH_DEGREE:
        length = 1 << n if n <= MAX_DEGREE else f"2^n with n = {n}"
        raise GuardError(f"code length {length} exceeds the 2^{_LENGTH_DEGREE} guard")


def build_goppa(spec: GoppaSpec) -> BinaryCode:
    """The length-q code of the congruence, via the parity-check row."""
    tower = spec.tower
    ext = tower.ext
    q = tower.base.order
    check_length(tower.n)
    # alpha is a root of g, irreducible of degree >= 2, so no alpha + e is zero
    h_row = [ext._inverse(spec.alpha ^ e) for e in tower.embedded]
    bin_rows = []
    for k in range(ext.m):
        row = 0
        for i, h in enumerate(h_row):
            row |= ((h >> k) & 1) << i
        bin_rows.append(row)
    basis = sorted(gf2_kernel(h_row))
    code = BinaryCode(
        length=q,
        generator=tuple(basis),
        parity_check=tuple(bin_rows),
        dimension=len(basis),
    )
    # The congruence is GF(2)-linear in the word, so checking a basis checks the code.
    if not all(congruence_holds(spec, word) for word in code.generator):
        raise InternalCheckError("matrix kernel violates the defining congruence")
    return code


def congruence_holds(spec: GoppaSpec, word: int) -> bool:
    """Does a single length-q word satisfy the defining congruence?

    For each coordinate a in the word, one Horner pass divides g by
    x - a: g(x) = (x - a) Q_a(x) + g(a), Q_a's coefficients from the top
    down, then g(a).  g has no root in F_q, so 1/(x - a) = Q_a(x) / g(a)
    mod g, and the sum of these terms has degree < r: no reduction.
    """
    gf = spec.tower.base
    rows = gf.rows
    total = [0] * poly_degree(spec.g)
    for a in range(gf.order):
        if (word >> a) & 1:
            ra, acc, quotient = rows[a], 0, []
            for c in reversed(spec.g):
                acc = ra[acc] ^ c
                quotient.append(acc)
            scale = rows[gf._inverse(quotient.pop())]
            for i, c in enumerate(quotient):
                total[i] ^= scale[c]
    return not any(total)


def extend_code(code: BinaryCode) -> BinaryCode:
    """Append one overall-parity coordinate; the dimension is unchanged."""
    n = code.length
    gen = tuple(row | ((row.bit_count() & 1) << n) for row in code.generator)
    checks = tuple(code.parity_check) + ((1 << (n + 1)) - 1,)
    return BinaryCode(length=n + 1, generator=gen, parity_check=checks, dimension=code.dimension)


def weight_enumerator(code: BinaryCode) -> list[int]:
    """Exact codeword weight histogram, indexed 0..length."""
    if code.dimension > _WEIGHT_ENUM_DIM_GUARD:
        raise GuardError(f"weight enumeration guard: dimension {code.dimension} exceeds {_WEIGHT_ENUM_DIM_GUARD}")
    hist = [0] * (code.length + 1)
    for word in code.codewords():
        hist[word.bit_count()] += 1
    return hist


def code_from_orbit_element(tower: Tower, alpha: int) -> BinaryCode:
    """The extended code determined by alpha of full degree r.

    Uses g = the minimal polynomial of alpha; conjugate alphas share g
    and therefore the code.
    """
    r = tower.degree_over(alpha)
    if r != tower.r:
        raise ValueError(f"alpha has degree {r} over the base, expected {tower.r}")
    g = tower.minimal_polynomial(alpha)
    return extend_code(build_goppa(GoppaSpec(tower=tower, g=g, alpha=alpha)))


def permutation_equivalent(first: BinaryCode, second: BinaryCode) -> bool:
    """Exhaustive permutation-equivalence search, for tiny lengths only.

    This is a last-resort decision procedure gated to length <= 9; the
    weight enumerator is used as a fast necessary condition first.
    Oracle for `code_from_orbit_element`: at q = 8, codes built from
    one semi-linear orbit must be permutation-equivalent.
    """
    if first.length != second.length or first.dimension != second.dimension:
        return False
    if first.length > _PERM_SEARCH_LENGTH_GUARD:
        raise GuardError(f"permutation search guard: length {first.length} exceeds {_PERM_SEARCH_LENGTH_GUARD}")
    if weight_enumerator(first) != weight_enumerator(second):
        return False
    words1 = list(first.codewords())
    words2 = frozenset(second.codewords())
    n = first.length
    for perm in itertools.permutations(range(n)):
        for w in words1:
            image = 0
            for i in range(n):
                if (w >> i) & 1:
                    image |= 1 << perm[i]
            if image not in words2:
                break
        else:
            return True
    return False
