"""Irreducible binary Goppa codes, their one-bit parity extension, and
weight-enumerator evidence for equivalence of codes built from elements
of the same semi-linear orbit.

A code of length q is cut out by the congruence
sum_i c_i / (x - alpha_i) = 0 (mod g(x)) over the support L = F_q, with
g monic irreducible of degree r over F_q.  Concretely the single row
(1/(alpha - alpha_0), ..., 1/(alpha - alpha_(q-1))) over F_(q^r), alpha
a root of g, is expanded into nr binary rows over the power basis of
the extension generator (i.e. the bits of our element representation)
and the code is the GF(2) kernel.  Every construction re-checks the
congruence by polynomial arithmetic, independently of the matrix path.

Codewords are bit-packed ints: bit i is coordinate i, and coordinate i
of the support is the field element with integer representation i.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .bitmat import kernel_basis, rank
from .errors import GuardError, InternalCheckError
from .gf2field import MAX_DEGREE, Tower
from .polyq import Poly, is_irreducible, poly_add, poly_degree, poly_eval, poly_invmod, poly_mod

_LENGTH_DEGREE = 10
_WEIGHT_ENUM_DIM_GUARD = 24
_PERM_SEARCH_LENGTH_GUARD = 9


@dataclass(frozen=True)
class BinaryCode:
    """A binary linear code given by generator and parity-check rows.

    Construction validates that the generator rows are independent, that
    generator and parity-check rows are orthogonal, and that the
    dimension matches length - rank(parity_check).
    """

    length: int
    generator: tuple[int, ...]
    parity_check: tuple[int, ...]
    dimension: int

    def __post_init__(self):
        if self.dimension != len(self.generator):
            raise ValueError("dimension must equal the number of generator rows")
        if rank(list(self.generator), self.length) != self.dimension:
            raise ValueError("generator rows are linearly dependent")
        for g in self.generator:
            for h in self.parity_check:
                if (g & h).bit_count() & 1:
                    raise ValueError("generator row fails a parity check")
        if self.length - rank(list(self.parity_check), self.length) != self.dimension:
            raise ValueError("parity-check rank disagrees with the dimension")

    def codewords(self):
        """All 2^dimension codewords, in Gray-code order starting at 0."""
        word = 0
        yield word
        for k in range(1, 1 << self.dimension):
            word ^= self.generator[(k & -k).bit_length() - 1]
            yield word


@dataclass(frozen=True)
class GoppaSpec:
    """Everything needed to build one code: the tower, g, and a root."""

    tower: Tower
    g: Poly
    alpha: int

    def __post_init__(self):
        gf = self.tower.base
        r = poly_degree(self.g)
        if r < 2 or self.g[-1] != 1 or not is_irreducible(gf, self.g):
            raise ValueError("the defining polynomial must be monic irreducible of degree >= 2")
        if poly_eval(self.tower.ext, tuple(map(self.tower.embed, self.g)), self.alpha) != 0:
            raise ValueError("alpha is not a root of the defining polynomial")

    @property
    def support(self) -> range:
        """L = F_q in integer order."""
        return range(self.tower.base.order)


def check_length(n: int) -> None:
    """Refuse base degree n > 10 (length q = 2^n over the 2^10 guard) without building q."""
    if n > _LENGTH_DEGREE:
        length = 1 << n if n <= MAX_DEGREE else f"2^n with n = {n}"
        raise GuardError(f"code length {length} exceeds the 2^10 guard")


def build_goppa(spec: GoppaSpec) -> BinaryCode:
    """The length-q code of the congruence, via the parity-check row."""
    tower = spec.tower
    ext = tower.ext
    q = tower.base.order
    check_length(tower.n)
    h_row = [ext.inv(spec.alpha ^ tower.embed(ai)) for ai in spec.support]
    bin_rows = []
    for k in range(ext.m):
        row = 0
        for i, h in enumerate(h_row):
            row |= ((h >> k) & 1) << i
        bin_rows.append(row)
    basis = sorted(kernel_basis(bin_rows, q))
    code = BinaryCode(
        length=q,
        generator=tuple(basis),
        parity_check=tuple(bin_rows),
        dimension=len(basis),
    )
    _check_congruence(spec, code.generator)
    return code


def _check_congruence(spec: GoppaSpec, words: tuple[int, ...]) -> None:
    """Re-derive membership from the defining congruence, symbolically.

    The congruence is GF(2)-linear in the codeword, so checking a basis
    checks the whole code.
    """
    if not all(congruence_holds(spec, word) for word in words):
        raise InternalCheckError("matrix kernel violates the defining congruence")


def congruence_holds(spec: GoppaSpec, word: int) -> bool:
    """Does a single length-q word satisfy the defining congruence?"""
    gf = spec.tower.base
    total: Poly = ()
    for i in spec.support:
        if (word >> i) & 1:
            total = poly_add(total, poly_invmod(gf, (i, 1), spec.g))
    return poly_mod(gf, total, spec.g) == ()


def extend_code(code: BinaryCode) -> BinaryCode:
    """Append one overall-parity coordinate; the dimension is unchanged."""
    n = code.length
    gen = tuple(row | ((row.bit_count() & 1) << n) for row in code.generator)
    checks = tuple(code.parity_check) + ((1 << (n + 1)) - 1,)
    return BinaryCode(length=n + 1, generator=gen, parity_check=checks, dimension=code.dimension)


def weight_enumerator(code: BinaryCode) -> list[int]:
    """Exact codeword weight histogram, indexed 0..length."""
    if code.dimension > _WEIGHT_ENUM_DIM_GUARD:
        raise GuardError(f"weight enumeration guard: dimension {code.dimension} exceeds 24")
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
        raise GuardError(f"permutation search guard: length {first.length} exceeds 9")
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
