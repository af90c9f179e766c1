"""The headline computation: an exact upper bound on the number of
inequivalent extended irreducible binary Goppa codes of length 2^n + 1
and degree r, together with brute-force orbit counters that
cross-validate the closed formulas at desk scale from the orbits that
`action` materializes (tests hold them to the per-matrix walk).

The bound decomposes over orbits of the projective semi-linear group:
with F the number of PGL-orbits of I_r fixed by the 2^r-power Frobenius
and P the total number of PGL-orbits, the answer is F + (P - F)/n, and
every division is exact by construction.  Non-integrality anywhere is
raised as an internal error, never rounded.
"""

from __future__ import annotations

from collections import namedtuple

from . import intnt
from .action import _element_orbit, pgl_orbits
from .errors import GuardError
from .gf2field import GF2m, make_tower
from .polyq import Parameters, Poly, count_divisor_polys_mobius, count_irreducibles, poly_frobenius


class BoundReport(namedtuple("BoundReport", "params fixed_orbit_count pgl_orbit_count bound")):
    """Exact result of the bound computation with its term breakdown.

    The terms (n-1)F/n and P/n are Fractions built on access, so output
    that prints only the counts never imports `fractions`.
    """

    __slots__ = ()

    @property
    def fixed_term(self):
        from fractions import Fraction

        n = self.params.n
        return Fraction((n - 1) * self.fixed_orbit_count, n)

    @property
    def pgl_term(self):
        from fractions import Fraction

        return Fraction(self.pgl_orbit_count, self.params.n)

    def __repr__(self) -> str:
        return f"{super().__repr__()[:-1]}, fixed_term={self.fixed_term!r}, pgl_term={self.pgl_term!r})"


def pgl_orbit_count_formula(params: Parameters) -> int:
    """|PGL \\ I_r| = |I_r| / (q (q^2 - 1)).

    Relaxed parameters are accepted when the division still comes out
    exact (every PGL-stabilizer trivial), e.g. q = 8, r = 5; an inexact
    division is raised, never rounded.
    """
    q = params.q
    hint = "trivial-stabilizer hypotheses violated or arithmetic bug: |I_r|"
    return intnt.exact_quotient(count_irreducibles(q, params.r), q * (q * q - 1), hint)


def fixed_orbit_count_formula(params: Parameters) -> int:
    """Number of Frobenius^(2^r)-fixed PGL-orbits: the divisor count / 6."""
    return intnt.exact_quotient(count_divisor_polys_mobius(params.r), 6, "divisor-polynomial count")


def bound(params: Parameters) -> BoundReport:
    """The exact upper bound F + (P - F)/n, with terms (n-1)F/n and P/n.

    Of the P PGL-orbits, the P - F not fixed by Frobenius fall into
    Galois classes of size n, so n must divide P - F.
    """
    if not params.strict:  # a strict Parameters was validated when it was built
        params.validate()
    fixed = fixed_orbit_count_formula(params)
    pgl = pgl_orbit_count_formula(params)
    return BoundReport(
        params=params,
        fixed_orbit_count=fixed,
        pgl_orbit_count=pgl,
        bound=fixed + intnt.exact_quotient(pgl - fixed, params.n, "non-fixed PGL-orbit count P - F"),
    )


def make_table(n: int, r_list: list[int]) -> tuple[list[BoundReport], list[tuple[int, str]]]:
    """Bound reports for each r; n is checked before any row (each row's `Parameters` checks it
    again, from the `factorize` cache), and only a refused r is collected, not raised."""
    Parameters.check_n(n)
    rows: list[BoundReport] = []
    rejected: list[tuple[int, str]] = []
    for r in r_list:
        try:
            rows.append(bound(Parameters(n, r)))
        except ValueError as exc:
            rejected.append((r, str(exc)))
    return rows, rejected


# ---------------------------------------------------------------------------
# Brute-force cross-validation
# ---------------------------------------------------------------------------

def brute_force_orbit_count(
    gf: GF2m, r: int, group: str = "PGL", domain: str = "polynomials"
) -> int:
    """Count orbits by materializing them over unvisited seeds.

    group is "PGL" or "PGammaL"; domain is "polynomials" (all of I_r,
    walked by `pgl_orbits`) or "elements" (all extension elements of
    degree r, seeds in integer order).  sigma normalizes PGL, so
    sigma^i maps PGL(x) onto PGL(sigma^i x), and a PGammaL orbit is the
    union of those PGL orbits over the twists i < rn.  On polynomials
    sigma^n fixes every coefficient, so i < n suffice: a walked orbit is
    a twist of a counted one exactly when it holds sigma^i of that
    orbit's canonical form, 0 < i < n.  Either walk stops once its orbits
    cover the domain: |I_r| polynomials, r |I_r| elements.  Tests compare
    both domains against the walk that applies every group element to
    each seed.
    """
    if r < 2:
        raise ValueError(f"PGL orbits need degree r >= 2, got r = {r}")
    if group not in ("PGL", "PGammaL"):
        raise ValueError(f"unknown group {group!r}")
    n = gf.m
    twists = range(r * n) if group == "PGammaL" else (0,)
    count = 0
    if domain == "polynomials":
        twisted: set[Poly] = set()
        for orbit in pgl_orbits(gf, r):
            if twisted.isdisjoint(orbit.members):
                count += 1
                twisted.update(poly_frobenius(gf, orbit.canonical, i) for i in twists[1:n])
        return count
    if domain == "elements":
        if gf.m * r > 16:
            raise GuardError(f"element domain q^r = {gf.order}^{r} exceeds the 2^16 guard")
        tower = make_tower(n, r)
        ext = tower.ext
        seen: set[int] = set()
        total = r * count_irreducibles(gf.order, r)
        for alpha in range(ext.order):
            if alpha in seen or tower.degree_over(alpha) != r:
                continue
            count += 1
            # sigma^i is a field automorphism fixing F_q, so every twist has degree r.
            for i in twists:
                beta = ext.frobenius(alpha, i)
                if beta not in seen:
                    seen |= _element_orbit(tower, beta, r)
            if len(seen) == total:
                break
        return count
    raise ValueError(f"unknown domain {domain!r}")
