"""Command-line front end.

Subcommands: bound, table, verify, orbits, goppa, field-info.  Output
formats: plain (default) and json everywhere, csv for bound, table and
orbits.  Big integers are rendered as decimal strings in JSON since
table values overflow 64 bits from r = 17 on.  Output is deterministic:
identical invocations produce identical bytes.

Exit status: 0 on success, 1 on hypothesis violations, bad arguments or
guard ceilings (the message names the failed condition), 2 when an
internal exactness assertion fails (an arithmetic bug, worth a report).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import enumeration, goppa
from .action import Matrix, count_divisors_in_orbit, pgl2_binary_subgroup, pgl_orbit
from .enumeration import BoundReport
from .errors import GuardError, HypothesisError, InternalCheckError
from .gf2field import (
    GF2m,
    elem_to_bits,
    make_field,
    make_tower,
    modulus_from_text,
    modulus_to_bits,
    modulus_to_text,
)
from .polyq import (
    Parameters,
    Poly,
    count_divisor_polys_mobius,
    divisor_polynomials,
    e_set_count,
    enumerate_irreducibles,
    poly_to_bits,
    poly_to_text,
)

CSV_HEADER = "n,r,q,fixed_orbits,pgl_orbits,bound"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved here for
    # internal assertion failures, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _report_row(rep: BoundReport) -> str:
    p = rep.params
    return f"{p.n},{p.r},{p.q},{rep.fixed_orbit_count},{rep.pgl_orbit_count},{rep.bound}"


def _report_json(rep: BoundReport) -> dict:
    p = rep.params
    return {
        "n": p.n,
        "r": p.r,
        "q": str(p.q),
        "fixed_orbits": str(rep.fixed_orbit_count),
        "pgl_orbits": str(rep.pgl_orbit_count),
        "bound": str(rep.bound),
        "terms": {
            "fixed_orbit_term": {
                "numerator": str(rep.fixed_term.numerator),
                "denominator": str(rep.fixed_term.denominator),
            },
            "generic_orbit_term": {
                "numerator": str(rep.pgl_term.numerator),
                "denominator": str(rep.pgl_term.denominator),
            },
        },
    }


def _emit_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _mat_to_bits(gf: GF2m, mat: Matrix) -> list[str]:
    return [elem_to_bits(e, gf.m) for e in mat]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> int:
    rep = enumeration.bound(Parameters(args.n, args.r))
    if args.format == "json":
        _emit_json(_report_json(rep))
    elif args.format == "csv":
        print(CSV_HEADER)
        print(_report_row(rep))
    else:
        p = rep.params
        print(f"n = {p.n}, r = {p.r}, q = 2^{p.n} = {p.q}")
        print(f"fixed orbit count   = {rep.fixed_orbit_count}")
        print(f"total PGL orbits    = {rep.pgl_orbit_count}")
        print(f"term breakdown      = {rep.fixed_term} + {rep.pgl_term}")
        print(f"upper bound         = {rep.bound}")
    return 0


def _cmd_table(args) -> int:
    rows, rejected = enumeration.make_table(args.n, args.r_list)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "rows": [_report_json(rep) for rep in rows],
                "rejected": [{"r": r, "reason": reason} for r, reason in rejected],
            }
        )
        return 0
    for r, reason in rejected:
        print(f"rejected r={r}: {reason}", file=sys.stderr)
    if args.format == "csv":
        print(CSV_HEADER)
        for rep in rows:
            print(_report_row(rep))
    else:
        print(f"upper bounds for n = {args.n} (code length {2**args.n + 1})")
        for rep in rows:
            print(f"  r = {rep.params.r:<3d} bound = {rep.bound}")
    return 0


def _check_domain_guard(q: int, r: int, ceiling_bits: int, user_bits: int | None) -> None:
    bits = ceiling_bits if user_bits is None else min(ceiling_bits, user_bits)
    if q**r > 1 << bits:
        raise GuardError(f"domain size {q}^{r} exceeds the 2^{bits} enumeration guard")


def _cmd_verify(args) -> int:
    ok = True
    checks: list[dict] = []

    def check(label: str, passed: bool, detail: str = "") -> None:
        nonlocal ok
        ok = ok and passed
        checks.append({"label": label, "passed": passed, "detail": detail})
        if args.format != "json":
            tail = f" ({detail})" if detail else ""
            print(f"{'PASS' if passed else 'FAIL'}: {label}{tail}")

    if args.suite == "fixed-orbits":
        params = Parameters(args.n, args.r)
        divisors = divisor_polynomials(params)
        expected = count_divisor_polys_mobius(params.r)
        check(
            "divisor polynomial count matches the Möbius formula",
            len(divisors) == expected,
            f"{len(divisors)} == {expected}",
        )
        e_count = e_set_count(params)
        check("order-based count agrees", e_count == expected, f"e_set_count = {e_count}")
        gf = make_field(params.n)
        remaining = set(divisors)
        orbits = 0
        per_orbit_ok = True
        size_ok = True
        while remaining:
            seed = min(remaining)
            orbit = pgl_orbit(gf, seed)
            orbits += 1
            inside = remaining & set(orbit.members)
            per_orbit_ok &= len(inside) == 6
            per_orbit_ok &= count_divisors_in_orbit(seed, params) == 6
            size_ok &= orbit.size == gf.order**3 - gf.order
            remaining -= inside
        expected_orbits = enumeration.fixed_orbit_count_formula(params)
        check("fixed orbit count", orbits == expected_orbits, f"{orbits} == {expected_orbits}")
        check("each fixed orbit contains exactly 6 divisor polynomials", per_orbit_ok)
        check("each fixed orbit has full size q^3 - q", size_ok)
        if args.format == "json":
            _emit_json(
                {
                    "suite": "fixed-orbits",
                    "n": args.n,
                    "r": args.r,
                    "divisor_polynomials": len(divisors),
                    "fixed_orbits": orbits,
                    "witness_matrices": [_mat_to_bits(gf, m) for m in pgl2_binary_subgroup()],
                    "checks": checks,
                    "passed": ok,
                }
            )
    elif args.suite == "bijection":
        gf = make_field(args.n)
        _check_domain_guard(gf.order, args.r, 16, args.max_domain_bits)
        on_polys = enumeration.brute_force_orbit_count(gf, args.r, "PGammaL", "polynomials")
        on_elems = enumeration.brute_force_orbit_count(gf, args.r, "PGammaL", "elements")
        check(
            "semi-linear orbit counts agree on polynomials and elements",
            on_polys == on_elems,
            f"{on_polys} == {on_elems}",
        )
        if args.format == "json":
            _emit_json(
                {
                    "suite": "bijection",
                    "n": args.n,
                    "r": args.r,
                    "orbits_on_polynomials": on_polys,
                    "orbits_on_elements": on_elems,
                    "checks": checks,
                    "passed": ok,
                }
            )
    else:
        raise ValueError(f"unknown suite {args.suite!r}")
    if not ok:
        raise InternalCheckError(f"verification suite {args.suite!r} failed")
    return 0


def _cmd_orbits(args) -> int:
    q = args.q
    if q < 2 or q & (q - 1):
        raise ValueError(f"q={q} must be a power of two, at least 2")
    gf = make_field(q.bit_length() - 1)
    _check_domain_guard(q, args.r, 20, args.max_domain_bits)
    seen: set[Poly] = set()
    orbits = []
    for f in enumerate_irreducibles(gf, args.r):
        if f in seen:
            continue
        orbit = pgl_orbit(gf, f)
        orbits.append(orbit)
        seen |= set(orbit.members)
    if args.format == "json":
        payload = []
        for orbit in orbits:
            entry = {
                "canonical": poly_to_bits(gf, orbit.canonical),
                "canonical_text": poly_to_text(gf, orbit.canonical),
                "size": orbit.size,
            }
            if args.members:
                entry["members"] = [poly_to_bits(gf, m) for m in orbit.members]
            payload.append(entry)
        _emit_json({"q": q, "r": args.r, "orbit_count": len(orbits), "orbits": payload})
    else:
        if args.format == "csv":
            print("canonical,size")
            for orbit in orbits:
                print(f"{''.join(poly_to_bits(gf, orbit.canonical))},{orbit.size}")
        else:
            print(f"{len(orbits)} orbits of PGL2(F_{q}) on degree-{args.r} irreducibles")
            for orbit in orbits:
                print(f"  size {orbit.size:<6d} canonical {poly_to_text(gf, orbit.canonical)}")
    return 0


def _cmd_goppa(args) -> int:
    tower = make_tower(args.n, args.r)
    if args.alpha == "min":
        alpha = next(a for a in range(tower.ext.order) if tower.degree_over(a) == args.r)
    else:
        alpha = int(args.alpha, 16)
        if not 0 <= alpha < tower.ext.order:
            raise ValueError(f"alpha {args.alpha} is outside GF(2^{tower.ext.m})")
        if tower.degree_over(alpha) != args.r:
            raise ValueError(f"alpha must have degree exactly {args.r} over GF(2^{args.n})")
    g = tower.minimal_polynomial(alpha)
    code = goppa.code_from_orbit_element(tower, alpha)
    hist = goppa.weight_enumerator(code)
    if args.format == "json":
        _emit_json(
            {
                "n": args.n,
                "r": args.r,
                "alpha": f"{alpha:x}",
                "goppa_polynomial": poly_to_bits(tower.base, g),
                "goppa_polynomial_text": poly_to_text(tower.base, g),
                "length": code.length,
                "dimension": code.dimension,
                "generator_rows": [elem_to_bits(row, code.length) for row in code.generator],
                "weight_enumerator": hist,
            }
        )
    else:
        print(f"extended code from alpha = 0x{alpha:x} over GF(2^{tower.ext.m})")
        print(f"defining polynomial: {poly_to_text(tower.base, g)}")
        print(f"length = {code.length}, dimension = {code.dimension}")
        print("generator rows (coordinate 0 first):")
        for row in code.generator:
            print(f"  {elem_to_bits(row, code.length)}")
        print(f"weight enumerator: {hist}")
    return 0


def _cmd_field_info(args) -> int:
    if args.modulus is not None:
        gf = GF2m(args.m, modulus_from_text(args.modulus))
    else:
        gf = make_field(args.m)
    info = {
        "m": gf.m,
        "q": str(gf.order),
        "modulus_text": modulus_to_text(gf.modulus),
        "modulus_bits": modulus_to_bits(gf.modulus),
    }
    if gf._log is not None:
        info["generator"] = elem_to_bits(gf.generator, gf.m)
    if args.format == "json":
        _emit_json(info)
    else:
        print(f"GF(2^{gf.m}), {gf.order} elements")
        print(f"modulus: {info['modulus_text']}  (bits, lowest degree first: {info['modulus_bits']})")
        if "generator" in info:
            print(f"multiplicative generator (bits): {info['generator']}")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="goppa-orbits", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p, csv=True):
        choices = ("plain", "json", "csv") if csv else ("plain", "json")
        p.add_argument("--format", choices=choices, default="plain")

    p = sub.add_parser("bound", help="exact inequivalent-code upper bound for one (n, r)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("table", help="bounds for one n and a list of degrees")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", dest="r_list", type=lambda s: [int(x) for x in s.split(",")], required=True)
    add_format(p)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("verify", help="brute-force verification suites")
    p.add_argument("--suite", choices=("fixed-orbits", "bijection"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-domain-bits", type=int, default=None,
                   help="lower the enumeration guard (never raises the built-in ceiling)")
    add_format(p, csv=False)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("orbits", help="dump all PGL orbits of degree-r irreducibles")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--members", action="store_true", help="include full member lists (json)")
    p.add_argument("--max-domain-bits", type=int, default=None,
                   help="lower the enumeration guard (never raises the built-in ceiling)")
    add_format(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("goppa", help="build one extended code and report it")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--alpha", required=True,
                   help="hex representation of the defining element, or 'min'")
    add_format(p, csv=False)
    p.set_defaults(func=_cmd_goppa)

    p = sub.add_parser("field-info", help="describe GF(2^m) and its modulus")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--modulus", default=None, help="override modulus: 'x^3+x+1' or LSB-first bits '1101'")
    add_format(p, csv=False)
    p.set_defaults(func=_cmd_field_info)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Exact output has no size limit: lift Python's int-to-str digit cap
    # (3.11+) while the command runs, and restore it for in-process callers.
    saved_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except (HypothesisError, GuardError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (InternalCheckError, AssertionError) as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return 2
    finally:
        if saved_limit is not None:
            sys.set_int_max_str_digits(saved_limit)


if __name__ == "__main__":
    raise SystemExit(main())
