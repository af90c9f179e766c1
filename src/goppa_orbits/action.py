"""PGL2(F_q), its affine subgroup, the projective semi-linear group, and
their two actions: Möbius transformations on extension-field elements
and the substitution action on monic irreducible polynomials.

Matrices are canonical coset representatives: tuples (a, b, c, d) of
base-field elements, scaled so the first nonzero entry in that order is
1.  Semi-linear elements pair a matrix with a Frobenius exponent i,
composing as (A, i) * (B, j) = (A * sigma^i(B), i + j mod rn).

Every Möbius map is rho(ux + v) with rho(x) = x or 1/x + gamma, so an
orbit is materialized as the affine images of f and of the q reversed
shifts of f: q(q+1) Taylor shifts plus table-driven scalings, not |PGL|
full transforms (tests check it against the per-matrix transform).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import GuardError, InternalCheckError
from .gf2field import GF2m, Tower, make_field, make_tower
from .polyq import (
    Parameters,
    Poly,
    divisor_polynomials,
    is_irreducible,
    poly_frobenius,
    poly_sort_key,
)

Matrix = tuple[int, int, int, int]
SemiLinear = tuple[Matrix, int]

IDENTITY: Matrix = (1, 0, 0, 1)

_PGL_GUARD_BITS = 21


# ---------------------------------------------------------------------------
# Matrices and group structure
# ---------------------------------------------------------------------------

def mat_det(gf: GF2m, mat: Matrix) -> int:
    gf._check(*mat)
    a, b, c, d = mat
    return gf.rows[a][d] ^ gf.rows[b][c]


def mat_canonical(gf: GF2m, mat: Matrix) -> Matrix:
    """Scale so the first nonzero entry of (a, b, c, d) equals 1."""
    if mat_det(gf, mat) == 0:
        raise ValueError(f"matrix {mat} is singular")
    lead = next(e for e in mat if e)
    if lead == 1:
        return mat
    rs = gf.rows[gf.inv(lead)]
    return tuple(rs[e] for e in mat)


def mat_mul(gf: GF2m, x: Matrix, y: Matrix) -> Matrix:
    gf._check(*x, *y)
    a, b, c, d = (gf.rows[e] for e in x)
    t, u, v, w = y
    return mat_canonical(gf, (a[t] ^ b[v], a[u] ^ b[w], c[t] ^ d[v], c[u] ^ d[w]))


def mat_inv(gf: GF2m, mat: Matrix) -> Matrix:
    # The adjugate; canonicalization absorbs the determinant scaling.
    a, b, c, d = mat
    return mat_canonical(gf, (d, b, c, a))


def mat_frobenius(gf: GF2m, mat: Matrix, i: int) -> Matrix:
    frob = gf.frobenius
    return tuple(frob(e, i) for e in mat)


def _check_pgl_guard(q: int) -> None:
    """One ceiling for every sweep over PGL2(F_q): q^3 - q <= 2^21 (q <= 128)."""
    if q**3 - q > 1 << _PGL_GUARD_BITS:
        raise GuardError(f"|PGL2(F_{q})| = {q**3 - q} exceeds the 2^{_PGL_GUARD_BITS} guard")


def pgl_enumerate(gf: GF2m):
    """Yield each canonical representative of PGL2(F_q) exactly once.

    Order: the a=1 block (b, then c, then d ascending), then the a=0,
    b=1 block; the total is q^3 - q.
    """
    q = gf.order
    _check_pgl_guard(q)
    for b in range(q):
        for c in range(q):
            bc = gf.rows[b][c]
            for d in range(q):
                if d != bc:
                    yield (1, b, c, d)
    for c in range(1, q):
        for d in range(q):
            yield (0, 1, c, d)


def agl_enumerate(gf: GF2m):
    """The affine subgroup {(a, b; 0, 1) : a != 0} as canonical elements.

    Yields q(q-1) matrices of the form (1, b/a, 0, 1/a).
    """
    q = gf.order
    _check_pgl_guard(q)
    for a in range(1, q):
        ia = gf.inv(a)
        for b in range(q):
            yield (1, gf.rows[ia][b], 0, ia)


def pgammal_compose(gf: GF2m, frob_order: int, g: SemiLinear, h: SemiLinear) -> SemiLinear:
    """(A, i) * (B, j) = (A * sigma^i(B), (i + j) mod rn)."""
    (a_mat, i), (b_mat, j) = g, h
    return mat_mul(gf, a_mat, mat_frobenius(gf, b_mat, i)), (i + j) % frob_order


def pgammal_inverse(gf: GF2m, frob_order: int, g: SemiLinear) -> SemiLinear:
    mat, i = g
    j = (frob_order - i) % frob_order
    return mat_frobenius(gf, mat_inv(gf, mat), j), j


@lru_cache(maxsize=4)
def _pgl_list(gf: GF2m) -> tuple[Matrix, ...]:
    return tuple(pgl_enumerate(gf))


# ---------------------------------------------------------------------------
# The two actions
# ---------------------------------------------------------------------------

def act_element(tower: Tower, g: SemiLinear, alpha: int) -> int:
    """Möbius image (a*alpha^(2^i) + b) / (c*alpha^(2^i) + d).

    Requires alpha of degree >= 2 over the base field, which guarantees
    the denominator cannot vanish (the matrix entries are base-field
    scalars).
    """
    (a, b, c, d), i = g
    ext = tower.ext
    w = ext.frobenius(alpha, i)
    num = ext.mul(tower.embed(a), w) ^ tower.embed(b)
    den = ext.mul(tower.embed(c), w) ^ tower.embed(d)
    if den == 0:
        raise ValueError("denominator vanished: alpha has degree < 2 over the base field")
    return ext.mul(num, ext.inv(den))


def act_poly(gf: GF2m, mat: Matrix, f: Poly, frob: int = 0) -> Poly:
    """Image of monic irreducible f under the substitution action.

    Computes sum_j (sigma^frob f_j) (dx - b)^j (-cx + a)^(r-j), then
    scales monic (signs vanish in characteristic 2).  The result is
    monic irreducible of the same degree whenever f is; irreducibility
    of the input is trusted here (orbit entry points validate it), and a
    dropped degree raises since it can only mean a reducible input or an
    arithmetic bug.
    """
    gf._check(*mat, *f)
    r = len(f) - 1
    if r < 1 or f[r] != 1:
        raise ValueError("action requires a monic polynomial of degree >= 1")
    ra, rb, rc, rd = (gf.rows[e] for e in mat)
    if frob % gf.m:
        f = poly_frobenius(gf, f, frob)
    # Ladder of (a + cx)^k, k = 0..r.
    vpows = [[1]]
    for _ in range(r):
        nxt = [0] * (len(vpows[-1]) + 1)
        for i, t in enumerate(vpows[-1]):
            nxt[i] ^= ra[t]
            nxt[i + 1] ^= rc[t]
        vpows.append(nxt)
    # Horner in (b + dx): res <- res*(b + dx) + f_j*(a + cx)^(r-j).
    res = [f[r]]
    for j in range(r - 1, -1, -1):
        nxt = [0] * (len(res) + 1)
        for i, t in enumerate(res):
            nxt[i] ^= rb[t]
            nxt[i + 1] ^= rd[t]
        fj = f[j]
        if fj:
            rf = gf.rows[fj]
            for i, t in enumerate(vpows[r - j]):
                nxt[i] ^= rf[t]
        res = nxt
    lead = res[r]
    if lead == 0:
        raise InternalCheckError(
            "polynomial action dropped the degree: input reducible or arithmetic bug"
        )
    if lead != 1:
        ril = gf.rows[gf.inv(lead)]
        res = [ril[t] for t in res]
    return tuple(res)


def act_poly_semilinear(gf: GF2m, g: SemiLinear, f: Poly) -> Poly:
    mat, i = g
    return act_poly(gf, mat, f, frob=i)


# ---------------------------------------------------------------------------
# Orbits and stabilizers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Orbit:
    """A materialized group orbit of polynomials."""

    canonical: Poly
    size: int
    members: tuple[Poly, ...]

    def __contains__(self, f: Poly) -> bool:
        return f in self.members


def _taylor_shift(gf: GF2m, f, v: int) -> list[int]:
    """Coefficients of f(x + v), by repeated synthetic division."""
    c = list(f)
    if v:
        rv = gf.rows[v]
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] ^= rv[c[j + 1]]
    return c


@lru_cache(maxsize=6)
def _pgl_orbit_members(gf: GF2m, f: Poly) -> tuple[Poly, ...]:
    """The set {act_poly(gf, A, f) : A in PGL}, sorted by poly_sort_key."""
    q, s = gf.order, gf.mult_order
    _check_pgl_guard(q)
    gf._check(*f)
    r = len(f) - 1
    if r < 2:
        # A linear polynomial's root lies in F_q; some Möbius map sends it to infinity.
        raise ValueError(f"PGL orbits need degree r >= 2, got r = {r}")
    if f[r] != 1:
        raise ValueError("action requires a monic polynomial")
    exp, log = gf._exp, gf._log
    ones = [1] * s
    # Members are collected highest coefficient first, where plain tuple
    # order is poly_sort_key order (every member has degree r).
    members = set()
    # f(1/x + gamma) x^r is the reversal of f(x + gamma).
    for h in [f] + [_taylor_shift(gf, f, gamma)[::-1] for gamma in range(q)]:
        if h[r] == 0:
            raise InternalCheckError(
                "polynomial action dropped the degree: input reducible or arithmetic bug"
            )
        for v in range(q):
            c = _taylor_shift(gf, h, v)
            # x -> u x, made monic: c_j u^(j - r) / c_r for u = exp[k].
            lead = log[c[r]]
            cols = [
                [exp[(log[cj] - lead + (j - r) * k) % s] for k in range(s)] if cj else [0] * s
                for j, cj in enumerate(c[:r])
            ]
            members.update(zip(ones, *reversed(cols)))
    return tuple(m[::-1] for m in sorted(members))


def pgl_orbit(gf: GF2m, f: Poly) -> Orbit:
    """The PGL orbit of f under the substitution action, materialized."""
    if not is_irreducible(gf, f) or f[-1] != 1:
        raise ValueError("orbit seeds must be monic irreducible")
    members = _pgl_orbit_members(gf, f)
    return Orbit(canonical=members[0], size=len(members), members=members)


def pgl_orbits(gf: GF2m, seeds):
    """Yield each PGL orbit that the seeds meet, once, in seed order."""
    seen: set[Poly] = set()
    for f in seeds:
        if f not in seen:
            orbit = pgl_orbit(gf, f)
            seen.update(orbit.members)
            yield orbit


def stabilizer(gf: GF2m, f: Poly) -> list[Matrix]:
    """All canonical A in PGL with A(f) = f; always contains the identity.

    By orbit-stabilizer the stabilizer is trivial exactly when the orbit
    has full size q^3 - q; only smaller orbits are scanned per matrix.
    """
    if len(_pgl_orbit_members(gf, f)) == gf.order**3 - gf.order:
        return [IDENTITY]
    return [mat for mat in _pgl_list(gf) if act_poly(gf, mat, f) == f]


@lru_cache(maxsize=8)
def _divisor_set(params: Parameters) -> frozenset[Poly]:
    return frozenset(divisor_polynomials(params))


def is_orbit_sigma_r_fixed(f: Poly, params: Parameters, method: str = "divisibility") -> bool:
    """Is PGL(f) fixed by the coefficientwise 2^r-power Frobenius?

    method="divisibility": does the orbit meet the set of degree-r
    divisors of x^(2^r) + x?  method="direct": is sigma^r f itself an
    orbit member?  The two must agree; tests cross-check them.
    """
    gf = make_field(params.n)
    if len(f) - 1 != params.r:
        raise ValueError(f"expected degree r={params.r}, got {len(f) - 1}")
    if not is_irreducible(gf, f):
        raise ValueError("fixed-orbit test needs an irreducible seed")
    members = _pgl_orbit_members(gf, f)
    if method == "divisibility":
        return not _divisor_set(params).isdisjoint(members)
    if method == "direct":
        return poly_frobenius(gf, f, params.r) in members
    raise ValueError(f"unknown method {method!r}")


def pgl2_binary_subgroup() -> tuple[Matrix, ...]:
    """The six matrices with entries in GF(2): the copy of PGL2(F_2).

    Applied to a degree-r divisor of x^(2^r) + x, these produce exactly
    the divisor polynomials in its orbit.
    """
    return ((1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0))


def count_divisors_in_orbit(f: Poly, params: Parameters) -> int:
    """How many members of PGL(f) divide x^(2^r) + x.

    Precondition: f itself is a divisor polynomial.
    """
    divisors = _divisor_set(params)
    if f not in divisors:
        raise ValueError("f must itself divide x^(2^r) + x")
    gf = make_field(params.n)
    members = _pgl_orbit_members(gf, f)
    return sum(1 for m in members if m in divisors)


# ---------------------------------------------------------------------------
# Element orbits and the affine decomposition
# ---------------------------------------------------------------------------

def pgl_element_orbit(tower: Tower, alpha: int) -> frozenset[int]:
    """PGL(alpha) under the Möbius action; alpha must have degree >= 2."""
    _check_pgl_guard(tower.base.order)
    return frozenset(act_element(tower, (mat, 0), alpha) for mat in _pgl_list(tower.base))


def agl_element_orbit(tower: Tower, alpha: int) -> frozenset[int]:
    """AGL(alpha) = {a*alpha + b : a != 0}; directly materialized."""
    ext = tower.ext
    out = set()
    for a in range(1, tower.base.order):
        ea = tower.embed(a)
        base_img = ext.mul(ea, alpha)
        for b in range(tower.base.order):
            out.add(base_img ^ tower.embed(b))
    return frozenset(out)


def agl_decompose(tower: Tower, alpha: int) -> list[tuple[int, int]]:
    """Partition PGL(alpha) into AGL-orbits.

    Returns (representative, orbit size) pairs for the q+1 representatives
    alpha and 1/(alpha + gamma), gamma in F_q; verifies that the parts are
    pairwise disjoint and exhaust PGL(alpha).
    """
    r = tower.degree_over(alpha)
    if r < 2:
        raise ValueError("affine decomposition needs an element of degree >= 2")
    ext = tower.ext
    full = pgl_element_orbit(tower, alpha)
    reps = [alpha]
    for gamma in range(tower.base.order):
        reps.append(ext.inv(alpha ^ tower.embed(gamma)))
    parts = [agl_element_orbit(tower, rep) for rep in reps]
    union: set[int] = set()
    total = 0
    for part in parts:
        total += len(part)
        union |= part
    if total != len(union) or union != full:
        raise InternalCheckError("affine orbits failed to partition the projective orbit")
    return [(rep, len(part)) for rep, part in zip(reps, parts)]
