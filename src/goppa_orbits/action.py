"""PGL2(F_q), its affine subgroup, the projective semi-linear group, and
their two actions: Möbius transformations on extension-field elements
and the substitution action on monic irreducible polynomials.

Matrices are canonical coset representatives: tuples (a, b, c, d) of
base-field elements, scaled so the first nonzero entry in that order is
1.  Semi-linear elements pair a matrix with a Frobenius exponent i,
composing as (A, i) * (B, j) = (A * sigma^i(B), i + j mod rn).

Every Möbius map is rho(ux + v) with rho(x) = x or 1/x + gamma, so an
orbit is the affine images of f and of the q reversed shifts of f (q(q+1)
Taylor shifts, each scaling column a strided slice of the field's exp
table), or of alpha and the q elements 1/(alpha + gamma), not |PGL|
transforms; `pgl_orbits` walks I_r that way, within |PGL| <= 2^21.
Tests check both domains against the per-matrix `act_poly`/`act_element`,
named oracles like every function here that no product path calls.

The least orbit member, and every group element reaching it, comes from
a sweep over the q+1 coset representatives and their translations, with
only the least scalings tried: one translation each for odd degree r,
which clears the x^(r-1) coefficient, all q for even r, compared in the
log domain on the field's exp/log tables (m <= 16).  Canonical forms,
stabilizers and the sigma^r-fixedness tests use that sweep and
materialize no orbit; its guard prices it in Taylor shifts.  Four memos
keep one entry each: `_plan`, `_sweep` (with the seed's representatives),
`_irreducible_seed` and `fixed_orbit_classes`, whose divisor sweeps skip
the seed memo.  So `stabilizer` and both fixedness methods asked about one
f sweep f once, test it once and walk its representatives once more.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from math import gcd
from types import MappingProxyType

from .errors import GuardError, InternalCheckError
from .gf2field import _TABLE_DEGREE, GF2m, Tower, make_field
from .polyq import (
    Parameters,
    Poly,
    count_irreducibles,
    divisor_polynomials,
    enumerate_irreducibles,
    is_irreducible,
    poly_frobenius,
)

Matrix = tuple[int, int, int, int]
SemiLinear = tuple[Matrix, int]

IDENTITY: Matrix = (1, 0, 0, 1)

_PGL_GUARD_BITS = 21
_SWEEP_GUARD_BITS = 21


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
    rs = gf.rows[gf._inverse(lead)]
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
    """sigma^i on each entry; oracle for the twists of `brute_force_orbit_count`."""
    frob = gf.frobenius
    return tuple(frob(e, i) for e in mat)


def _check_pgl_guard(q: int) -> None:
    """The ceiling of every walk over the whole group or orbit: q^3 - q <= 2^21 (q <= 128)."""
    if q**3 - q > 1 << _PGL_GUARD_BITS:
        raise GuardError(f"|PGL2(F_{q})| = {q**3 - q} exceeds the 2^{_PGL_GUARD_BITS} guard")


def _check_sweep_guard(gf: GF2m, r: int) -> None:
    """The ceilings of a coset sweep at degree r: the field's log tables
    (m <= 16), and its Taylor shifts, 2(q + 1) at odd r and q(q + 1) + q at
    even r, at most 2^21 (q <= 1024 at even r)."""
    if gf._log is None:
        raise GuardError(f"GF(2^{gf.m}) exceeds the 2^{_TABLE_DEGREE} log-table ceiling of the coset sweep")
    q = gf.order
    shifts = 2 * (q + 1) if r % 2 else q * (q + 1) + q
    if shifts > 1 << _SWEEP_GUARD_BITS:
        raise GuardError(f"a degree-{r} sweep over GF({q}) takes {shifts} Taylor shifts, "
                         f"which exceeds the 2^{_SWEEP_GUARD_BITS} guard")


def pgl_enumerate(gf: GF2m):
    """Yield each canonical representative of PGL2(F_q) exactly once.

    Order: the a=1 block (b, then c, then d ascending), then the a=0,
    b=1 block; the total is q^3 - q.  Oracle for `_pgl_orbit_members`.
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

    Yields q(q-1) matrices of the form (1, b/a, 0, 1/a).  Oracle for
    `_affine_images`, with `act_element`.
    """
    q = gf.order
    _check_pgl_guard(q)
    for a in range(1, q):
        ia = gf.inv(a)
        for b in range(q):
            yield (1, gf.rows[ia][b], 0, ia)


def pgammal_compose(gf: GF2m, frob_order: int, g: SemiLinear, h: SemiLinear) -> SemiLinear:
    """(A, i) * (B, j) = (A * sigma^i(B), (i + j) mod rn); oracle for `brute_force_orbit_count`."""
    (a_mat, i), (b_mat, j) = g, h
    return mat_mul(gf, a_mat, mat_frobenius(gf, b_mat, i)), (i + j) % frob_order


def pgammal_inverse(gf: GF2m, frob_order: int, g: SemiLinear) -> SemiLinear:
    """(A, i)^-1 under `pgammal_compose`; oracle for `brute_force_orbit_count`."""
    mat, i = g
    j = (frob_order - i) % frob_order
    return mat_frobenius(gf, mat_inv(gf, mat), j), j


def _pgl_position(mat: Matrix):
    """Sort key that lists canonical matrices in pgl_enumerate order."""
    return mat[0] == 0, mat


# ---------------------------------------------------------------------------
# The two actions
# ---------------------------------------------------------------------------

def act_element(tower: Tower, g: SemiLinear, alpha: int) -> int:
    """Möbius image (a*alpha^(2^i) + b) / (c*alpha^(2^i) + d).

    alpha must have degree >= 2 over the base field, so the denominator
    cannot vanish.  Applied with every matrix, it is the oracle for
    `_element_orbit`.
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
    of the input is trusted here (`pgl_orbit` tests it on every call,
    `is_orbit_sigma_r_fixed` once per seed through a one-entry memo;
    `orbit_canonical` and `stabilizer` accept any monic seed with no
    root in F_q), and a dropped degree raises since it can only mean a
    root in F_q or an arithmetic bug.  Applied with every matrix, it is
    the oracle for `_pgl_orbit_members` and `_sweep`.
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
    """`act_poly` for (A, i); oracle for the PGammaL action `brute_force_orbit_count` assumes."""
    mat, i = g
    return act_poly(gf, mat, f, frob=i)


# ---------------------------------------------------------------------------
# Orbits and stabilizers
# ---------------------------------------------------------------------------

class Orbit(namedtuple("Orbit", "members")):
    """A materialized group orbit of polynomials, members in poly_sort_key order."""

    __slots__ = ()

    @property
    def canonical(self) -> Poly:
        return self.members[0]

    @property
    def size(self) -> int:
        return len(self.members)

    def __contains__(self, f: Poly) -> bool:
        return f in self.members


_Plan = namedtuple("_Plan", "powers lucas terms offsets least")


# Every memo here keeps one entry: a CLI command or library session asks about one (field, degree),
# Parameters and seed at a time.  A plan is under 0.1 MiB at q = 128, r = 19, 82 MiB at q = 2^16, r = 5.
@lru_cache(maxsize=1)
def _plan(gf: GF2m, r: int) -> _Plan:
    """The tables a sweep at degree r over gf reads (m <= 16: callers check the sweep guard first).

    powers[v][d]: the product row of v^d for d <= r (0^0 = 1).
    lucas: (i, j, j - i) for each j <= r and each i < j whose bits lie in j.
    terms[i], i < r: the (j, j - i) of lucas that land on i.
    offsets[k][j], j < r: (r - j) k mod s, the log of u^(r - j) for u = g^k,
    so c u^-(r - j) is exp[log c - log(lead) - offsets[k][j]] once scaled
    by 1/lead; that index lies in (-2s, s), which exp's 2s entries take
    with no reduction mod s.  least[j]: row l lists every k at which that
    value is least when log c - log(lead) = l (mod s).
    """
    s, rows, exp, log = gf.mult_order, gf.rows, gf._exp, gf._log
    powers = tuple(tuple(rows[exp[log[v] * d % s] if v else 0**d] for d in range(r + 1)) for v in range(gf.order))
    lucas = tuple((i, j, j - i) for j in range(1, r + 1) for i in range(j) if i & j == i)
    terms = tuple(tuple((j, d) for t, j, d in lucas if t == i) for i in range(r))
    offsets = tuple(tuple((r - j) * k % s for j in range(r)) for k in range(s))
    least = tuple(_least_scalings(exp, s, r - j) for j in range(r))
    return _Plan(powers, lucas, terms, offsets, least)


def _least_scalings(exp: list[int], s: int, e: int) -> tuple[tuple[int, ...], ...]:
    """Row l: every k < s at which exp[l - e k mod s] is least, ascending.

    Those values are exp[t] over the logs t = l (mod g), g = gcd(e, s), so
    the least is exp[t] for the t of l's residue class with the least exp,
    reached by the g solutions k of e k = l - t (mod s).
    """
    g = gcd(e, s)
    span = s // g
    best = [min(range(c, s, g), key=exp.__getitem__) for c in range(g)]
    # pow(., -1, 1) is 0, which also serves q = 2 (s = 1)
    inv = pow(e // g, -1, span)
    return tuple(tuple(range((l - best[l % g]) // g * inv % span, s, span)) for l in range(s))


def _taylor_shift(plan: _Plan, f, v: int) -> list[int]:
    """Coefficients of f(x + v): c_i = f_i + the sum of v^(j-i) f_j over the j > i
    whose bits contain those of i, as binom(j, i) is odd just for those (Lucas)."""
    c = list(f)
    if v:
        powers = plan.powers[v]
        for i, j, d in plan.lucas:
            c[i] ^= powers[d][f[j]]
    return c


def _check_seed(gf: GF2m, f: Poly) -> int:
    """Validate an orbit seed (sweep guard, coefficients, degree >= 2, monic); return its degree."""
    r = len(f) - 1
    _check_sweep_guard(gf, r)
    gf._check(*f)
    if r < 2:
        # A linear polynomial's root lies in F_q; some Möbius map sends it to infinity.
        raise ValueError(f"PGL orbits need degree r >= 2, got r = {r}")
    if f[r] != 1:
        raise ValueError("action requires a monic polynomial")
    return r


def _representatives(gf: GF2m, f: Poly) -> tuple[tuple[int | None, Poly], ...]:
    """(gamma, h) for h = f (gamma None) and h = x^r f(1/x + gamma), the reversal of f(x + gamma).

    f is a seed tuple `_check_seed` passed.  Each h is built in full from
    f's nonzero Lucas terms (gamma = 0 is the reversal itself).
    """
    r = len(f) - 1
    plan, reps, rev = _plan(gf, r), [(None, f)], list(f[::-1])
    # the term v^d f_j of f(x + v)_i lands on x^(r - i) of the reversal
    terms = [(r - i, d, f[j]) for i, j, d in plan.lucas if f[j]]
    for gamma, pw in enumerate(plan.powers):
        h = rev[:]
        if gamma:
            for i, d, fj in terms:
                h[i] ^= pw[d][fj]
        # h[r] is f(gamma): a root in F_q, which some Möbius map sends to infinity
        if not h[r]:
            raise ValueError(f"the seed has the root {gamma} in F_q, so it is reducible")
        reps.append((gamma, tuple(h)))
    return tuple(reps)


def _pgl_orbit_members(gf: GF2m, f: Poly) -> tuple[Poly, ...]:
    """The set {act_poly(gf, A, f) : A in PGL}, sorted by poly_sort_key (callers check the PGL guard)."""
    r = _check_seed(gf, f)
    plan = _plan(gf, r)
    s, log = gf.mult_order, gf._log
    # x -> u x, made monic: c_j u^(j - r) / c_r over u = g^k, k < s, is exp at
    # low - (r - j) k mod s for low = log c_j - log c_r, so a column is one
    # strided slice of exp repeated, walked down from low + (r - j) s.
    cycle = gf._exp[:s] * (r + 1)
    zero, ones = [0] * s, [1] * s
    # Members are collected highest coefficient first, where plain tuple
    # order is poly_sort_key order (every member has degree r).
    members = set()
    for _, h in _representatives(gf, tuple(f)):
        lead = log[h[r]]
        for v in range(gf.order):
            c = _taylor_shift(plan, h, v)
            cols = [ones]
            for j in range(r - 1, -1, -1):
                if c[j]:
                    low = (log[c[j]] - lead) % s
                    cols.append(cycle[low + (r - j) * s:low:j - r])
                else:
                    cols.append(zero)
            members.update(zip(*cols))
    return tuple(m[::-1] for m in sorted(members))


@lru_cache(maxsize=1)
def _sweep(gf: GF2m, f: Poly) -> tuple[Poly, tuple[Matrix, ...], tuple[tuple[int | None, Poly], ...]]:
    """The least member of PGL(f), every canonical A with act_poly(A, f) equal to it, and f's representatives.

    f is a seed `_check_seed` passed; the one-entry memo also keeps the
    representatives that `_reaches` walks for the direct fixedness test.

    Each coset representative h goes through translations x -> x + v,
    then scalings x -> u x; made monic, c_j becomes c_j u^(j-r) / h_r (a
    shift keeps the lead h_r).  Only the u minimising the top nonzero c_j
    below x^r can reach the least member.  For odd r the translation
    v = h_(r-1) / h_r clears x^(r-1) (r = 1 in characteristic 2), and the
    least member has that coefficient zero; for even r, c_(r-1) = h_(r-1)
    whatever v is, so every v is tried.  A candidate is compared with the
    least so far from x^(r-1) down (x^(r-2) at odd r, as v cleared
    x^(r-1)), computing each c_j only when reached; only a new least is
    built in full.  The hits are the group elements sending f to the
    least member, so there are |Stab(f)| of them.  Per
    seed: q Taylor shifts to build the representatives, then q + 1
    candidates at odd r and q(q + 1) at even r, most refused within the
    first two or three coefficients.
    """
    r = len(f) - 1
    plan = _plan(gf, r)
    powers, terms, offsets, least = plan.powers, plan.terms, plan.offsets, plan.least
    rows, exp, log = gf.rows, gf._exp, gf._log
    # best[j]: the x^j coefficient of the least candidate so far; q is above every element.
    best, hits, reps = [gf.order] * r, [], _representatives(gf, f)
    for gamma, h in reps:
        lead = log[h[r]]
        # exp has 2s entries, so a negative log difference indexes the right power.
        for v in (exp[log[h[r - 1]] - lead] if h[r - 1] else 0,) if r % 2 else range(gf.order):
            pw, top, below = powers[v], r - 1 - r % 2, False
            # c(0) = 0 would be a root in F_q, which the degree check refused.
            while True:
                ct = h[top]
                for j, d in terms[top]:
                    ct ^= pw[d][h[j]]
                if ct:
                    break
                # a zero where best is not: below it whatever the scaling
                below = below or best[top] > 0
                top -= 1
            for k in least[top][log[ct] - lead]:
                off, i, ci = offsets[k], top, ct
                while not below:
                    val = exp[log[ci] - lead - off[i]] if ci else 0
                    if val != best[i]:
                        below = val < best[i]
                        break
                    if not i:
                        hits.append((gamma, v, exp[k]))
                        break
                    i -= 1
                    ci = h[i]
                    for j, d in terms[i]:
                        ci ^= pw[d][h[j]]
                if below:
                    c = _taylor_shift(plan, h, v)
                    best = [exp[log[cj] - lead - o] if cj else 0 for cj, o in zip(c, off)]
                    hits, below = [(gamma, v, exp[k])], False
    # x -> u x + v is (1, v; 0, u) in act_poly's convention, and
    # x -> 1/(u x + v) + gamma is (v, gamma v + 1; u, gamma u).
    mats = tuple(
        (1, v, 0, u) if gamma is None else mat_canonical(gf, (v, rows[gamma][v] ^ 1, u, rows[gamma][u]))
        for gamma, v, u in hits
    )
    return tuple(best) + (1,), mats, reps


def _reaches(gf: GF2m, reps: tuple[tuple[int | None, Poly], ...], target: Poly) -> bool:
    """Is target in PGL(f)?  `_sweep`'s candidates, each compared with target alone.

    reps are f's representatives as `_sweep` keeps them; target is monic of
    degree r, an x^0 term and, at odd r, no x^(r-1) term, so one translation
    per representative can reach it.  A candidate matches at t, target's top
    index below r, for the u = g^k that scale c_t to target_t: as 1 is the
    least nonzero element, the plan's least[t] row at log c_t - log h_r -
    log target_t, unless its first k misses target_t and so does every k.
    """
    r = len(target) - 1
    t = max(j for j in range(r) if target[j])
    plan = _plan(gf, r)
    powers, terms, offsets, least = plan.powers, plan.terms, plan.offsets, plan.least[t]
    s, exp, log = gf.mult_order, gf._exp, gf._log
    want = log[target[t]]
    for _, h in reps:
        lead = log[h[r]]
        for v in (exp[log[h[r - 1]] - lead] if h[r - 1] else 0,) if r % 2 else range(gf.order):
            pw = powers[v]
            for i in range(r - 1 - r % 2, t - 1, -1):
                ci = h[i]
                for j, d in terms[i]:
                    ci ^= pw[d][h[j]]
                if ci:
                    break
            if i != t or not ci:
                continue
            ks = least[(log[ci] - lead - want) % s]
            if exp[log[ci] - lead - offsets[ks[0]][t]] != target[t]:
                continue
            for k in ks:
                off, i = offsets[k], t
                while i:
                    i -= 1
                    ci = h[i]
                    for j, d in terms[i]:
                        ci ^= pw[d][h[j]]
                    if (exp[log[ci] - lead - off[i]] if ci else 0) != target[i]:
                        break
                else:
                    return True
    return False


def orbit_canonical(gf: GF2m, f: Poly) -> Poly:
    """The least member of PGL(f) under poly_sort_key, i.e. Orbit.canonical."""
    _check_seed(gf, f)
    return _sweep(gf, tuple(f))[0]


def pgl_orbit(gf: GF2m, f: Poly) -> Orbit:
    """The PGL orbit of f under the substitution action, materialized."""
    _check_pgl_guard(gf.order)
    if not is_irreducible(gf, f) or f[-1] != 1:
        raise ValueError("orbit seeds must be monic irreducible")
    return Orbit(_pgl_orbit_members(gf, f))


def pgl_orbits(gf: GF2m, r: int):
    """Yield each PGL orbit on I_r once, seeded from `enumerate_irreducibles` (no seed re-tested).

    The group-size guard is checked before the sieve runs; the walk ends
    once its orbits cover all |I_r| irreducibles, counted after the sieve
    admits r.
    """
    _check_pgl_guard(gf.order)
    seen: set[Poly] = set()
    total = 0
    for f in enumerate_irreducibles(gf, r):
        total = total or count_irreducibles(gf.order, r)
        if f not in seen:
            orbit = Orbit(_pgl_orbit_members(gf, f))
            seen.update(orbit.members)
            yield orbit
            if len(seen) == total:
                return


def stabilizer(gf: GF2m, f: Poly) -> list[Matrix]:
    """All canonical A in PGL with A(f) = f, in pgl_enumerate order.

    The sweep's hits A_0, ..., A_k all send f to the least orbit member,
    so Stab(f) = {A_0^-1 A_i}.  The list is fresh on every call; the
    memoized sweep keeps its hits in a tuple.
    """
    _check_seed(gf, f)
    hits = _sweep(gf, tuple(f))[1]
    if len(hits) == 1:
        return [IDENTITY]
    back = mat_inv(gf, hits[0])
    return sorted((mat_mul(gf, back, mat) for mat in hits), key=_pgl_position)


@lru_cache(maxsize=1)
def fixed_orbit_classes(params: Parameters) -> MappingProxyType:
    """The degree-r divisors of x^(2^r) + x, grouped by orbit canonical form.

    Maps each canonical form to the tuple of divisors in that PGL orbit,
    both in divisor order.  The divisors have binary coefficients, so
    every orbit they meet is fixed by sigma^r; under the paper's
    hypotheses these are all the fixed orbits, with 6 divisors each.
    """
    gf = make_field(params.n)
    _check_sweep_guard(gf, params.r)
    divisors = divisor_polynomials(params)
    if divisors:  # binary and monic of degree r: one seed check serves them all
        _check_seed(gf, divisors[0])
    classes: dict[Poly, list[Poly]] = {}
    for d in divisors:
        classes.setdefault(_sweep.__wrapped__(gf, d)[0], []).append(d)
    return MappingProxyType({canon: tuple(ds) for canon, ds in classes.items()})


def is_orbit_sigma_r_fixed(f: Poly, params: Parameters, method: str = "divisibility") -> bool:
    """Is PGL(f) fixed by the coefficientwise 2^r-power Frobenius?

    method="divisibility": does the orbit meet the set of degree-r
    divisors of x^(2^r) + x, i.e. is its canonical form one of theirs?
    Such divisors exist only when gcd(r, n) = 1; elsewhere this method
    raises ValueError.  method="direct": is sigma^r f itself an orbit
    member, i.e. do f and sigma^r f share a canonical form?  As
    sigma^r(PGL(f)) = PGL(sigma^r f), that holds exactly when sigma^r of
    f's canonical form lies in PGL(f), which `_reaches` tests on the
    sweep's least-scaling rows.  Where both methods apply they must agree.
    f must have degree r and be irreducible, which the memoized Ben-Or test
    checks once per seed; a reducible seed is refused on every call.
    """
    gf, f = make_field(params.n), tuple(f)
    _check_sweep_guard(gf, params.r)
    if len(f) - 1 != params.r:
        raise ValueError(f"expected degree r={params.r}, got {len(f) - 1}")
    if not _irreducible_seed(gf, f):
        raise ValueError("fixed-orbit test needs an irreducible seed")
    if method == "divisibility":
        common = gcd(params.r, params.n)
        if common != 1:
            raise ValueError(f"the divisibility method needs gcd(r, n) = 1, got gcd({params.r}, {params.n}) = {common}")
        return orbit_canonical(gf, f) in fixed_orbit_classes(params)
    if method == "direct":
        canonical = orbit_canonical(gf, f)
        return _reaches(gf, _sweep(gf, f)[2], poly_frobenius(gf, canonical, params.r))
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=1)
def _irreducible_seed(gf: GF2m, f: Poly) -> bool:
    """is_irreducible(gf, f) for `is_orbit_sigma_r_fixed`, memoized for the last (field, seed)."""
    return is_irreducible(gf, f)


def pgl2_binary_subgroup() -> tuple[Matrix, ...]:
    """The six matrices with entries in GF(2): the copy of PGL2(F_2).

    Applied to a degree-r divisor of x^(2^r) + x, these produce exactly
    the divisor polynomials in its orbit.
    """
    return ((1, 0, 0, 1), (1, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 0))


def count_divisors_in_orbit(f: Poly, params: Parameters) -> int:
    """How many members of PGL(f) divide x^(2^r) + x, from the materialized orbit.

    Precondition: f itself is a divisor polynomial.  Oracle for the
    six divisors per class of `fixed_orbit_classes`.
    """
    divisors = set(divisor_polynomials(params))
    if f not in divisors:
        raise ValueError("f must itself divide x^(2^r) + x")
    return len(divisors.intersection(pgl_orbit(make_field(params.n), f).members))


# ---------------------------------------------------------------------------
# Element orbits and the affine decomposition
# ---------------------------------------------------------------------------

def _element_coset_representatives(tower: Tower, alpha: int, degree: int) -> tuple[list[int], tuple[int, ...]]:
    """alpha and each 1/(alpha + gamma), whose AGL orbits make up PGL(alpha); and F_q, embedded.

    degree is alpha's degree over the base field, which the caller has
    already computed.
    """
    _check_pgl_guard(tower.base.order)
    if degree < 2:
        raise ValueError("element orbits need alpha of degree >= 2 over the base field")
    base = tower.embedded
    return [alpha] + [tower.ext._inverse(alpha ^ e) for e in base], base


def _affine_images(ext: GF2m, reps: list[int], base: tuple[int, ...]) -> frozenset[int]:
    """{a * rep + b : rep in reps, a != 0} for a, b in the embedded base field (base[0] = 0)."""
    scaled = [ext.rows[rep][a] for rep in reps for a in base[1:]]
    return frozenset(s ^ b for s in scaled for b in base)


def _element_orbit(tower: Tower, alpha: int, degree: int) -> frozenset[int]:
    """PGL(alpha) as q+1 affine orbits, given alpha's degree over the base field."""
    return _affine_images(tower.ext, *_element_coset_representatives(tower, alpha, degree))


def pgl_element_orbit(tower: Tower, alpha: int) -> frozenset[int]:
    """PGL(alpha) under the Möbius action, as q+1 affine orbits; alpha must have degree >= 2."""
    return _element_orbit(tower, alpha, tower.degree_over(alpha))


def agl_decompose(tower: Tower, alpha: int) -> list[tuple[int, int]]:
    """Partition PGL(alpha) into AGL-orbits.

    Returns (representative, orbit size) pairs for the q+1 representatives
    alpha and 1/(alpha + gamma), gamma in F_q, whose AGL orbits make up
    PGL(alpha); verifies that those parts are pairwise disjoint.  Oracle
    for the parts that `_element_orbit` unites.
    """
    reps, base = _element_coset_representatives(tower, alpha, tower.degree_over(alpha))
    parts = [_affine_images(tower.ext, [rep], base) for rep in reps]
    if sum(map(len, parts)) != len(frozenset().union(*parts)):
        raise InternalCheckError("affine orbits failed to partition the projective orbit")
    return [(rep, len(part)) for rep, part in zip(reps, parts)]
