"""Command-line front end.

Subcommands: bound, table, verify, orbits, goppa, field-info.  Output
formats: plain (default) and json everywhere, csv for bound, table and
orbits.  Big integers are rendered as decimal strings in JSON since
table values overflow 64 bits from r = 17 on.  Output is deterministic:
identical invocations produce identical bytes.

Exit status: 0 on success, 1 on hypothesis violations, bad arguments or
guard ceilings (the message names the failed condition), 2 when an
internal exactness assertion fails (an arithmetic bug, worth a report;
a failed `verify` names its failed checks).  On any failure stdout stays
empty and the message goes to stderr.
"""

from __future__ import annotations

import argparse
import sys

from . import enumeration
from .action import IDENTITY, fixed_orbit_classes, pgl2_binary_subgroup, pgl_orbits, stabilizer
from .enumeration import BoundReport
from .errors import GuardError, InternalCheckError
from .gf2field import (
    MAX_DEGREE,
    GF2m,
    elem_to_bits,
    make_field,
    make_tower,
    modulus_from_text,
    modulus_to_text,
)
from .polyq import Parameters, e_set_count, poly_to_bits, poly_to_text

CSV_HEADER = "n,r,q,fixed_orbits,pgl_orbits,bound"
COMMANDS = ("bound", "table", "verify", "orbits", "goppa", "field-info")


def _help_width() -> int:
    """shutil.get_terminal_size().columns - 2, argparse's default width, without importing shutil.

    argparse builds a HelpFormatter for every add_argument, and each one
    imports shutil for this number; the first import also loads bz2,
    lzma, zlib and fnmatch, which no command needs.
    """
    import os

    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns <= 0:
        try:
            columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
        except (AttributeError, ValueError, OSError):
            columns = 0
    return (columns or 80) - 2


class _HelpFormatter(argparse.HelpFormatter):
    def __init__(self, prog, **kwargs):
        super().__init__(prog, width=_help_width(), **kwargs)


class _Parser(argparse.ArgumentParser):
    # Subparsers are built with type(self), so they get this formatter too.
    def __init__(self, *args, formatter_class=_HelpFormatter, **kwargs):
        super().__init__(*args, formatter_class=formatter_class, **kwargs)

    # argparse exits 2 on usage errors by default; 2 is reserved here for
    # internal assertion failures, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


class _NonNegative(argparse.Action):
    def __call__(self, parser, namespace, value, option_string=None):
        if value < 0:
            raise argparse.ArgumentError(self, f"must be >= 0, got {value}")
        setattr(namespace, self.dest, value)


def _report_row(rep: BoundReport) -> str:
    p = rep.params
    return f"{p.n},{p.r},{p.q},{rep.fixed_orbit_count},{rep.pgl_orbit_count},{rep.bound}"


def _report_json(rep: BoundReport) -> dict:
    p = rep.params
    fixed_term, pgl_term = rep.fixed_term, rep.pgl_term
    return {
        "n": p.n,
        "r": p.r,
        "q": str(p.q),
        "fixed_orbits": str(rep.fixed_orbit_count),
        "pgl_orbits": str(rep.pgl_orbit_count),
        "bound": str(rep.bound),
        "terms": {
            "fixed_orbit_term": {
                "numerator": str(fixed_term.numerator),
                "denominator": str(fixed_term.denominator),
            },
            "generic_orbit_term": {
                "numerator": str(pgl_term.numerator),
                "denominator": str(pgl_term.denominator),
            },
        },
    }


# ---------------------------------------------------------------------------
# Subcommands: each returns its output, a list of lines or a JSON object
# ---------------------------------------------------------------------------

def _cmd_bound(args) -> list[str] | dict:
    rep = enumeration.bound(Parameters(args.n, args.r))
    if args.format == "json":
        return _report_json(rep)
    if args.format == "csv":
        return [CSV_HEADER, _report_row(rep)]
    p = rep.params
    return [
        f"n = {p.n}, r = {p.r}, q = 2^{p.n} = {p.q}",
        f"fixed orbit count   = {rep.fixed_orbit_count}",
        f"total PGL orbits    = {rep.pgl_orbit_count}",
        f"term breakdown      = {rep.fixed_term} + {rep.pgl_term}",
        f"upper bound         = {rep.bound}",
    ]


def _cmd_table(args) -> list[str] | dict:
    rows, rejected = enumeration.make_table(args.n, args.r_list)
    if args.format == "json":
        return {
            "n": args.n,
            "rows": [_report_json(rep) for rep in rows],
            "rejected": [{"r": r, "reason": reason} for r, reason in rejected],
        }
    for r, reason in rejected:
        print(f"rejected r={r}: {reason}", file=sys.stderr)
    if args.format == "csv":
        return [CSV_HEADER] + [_report_row(rep) for rep in rows]
    return [f"upper bounds for n = {args.n} (code length {2**args.n + 1})"] + [
        f"  r = {rep.params.r:<3d} bound = {rep.bound}" for rep in rows
    ]


def _check_domain_guard(gf: GF2m, r: int, user_bits: int | None) -> None:
    """Refuse q^r > 2^user_bits (--max-domain-bits) by m * r; the built-in ceilings are the library's."""
    if user_bits is not None and gf.m * r > user_bits:
        raise GuardError(f"domain size {gf.order}^{r} exceeds the 2^{user_bits} enumeration guard")


def _cmd_verify(args) -> list[str] | dict:
    # GF2m's own refusal names its degree m; here that degree is the option n.
    if not 1 <= args.n <= MAX_DEGREE:
        raise GuardError(f"field degree n = {args.n} outside supported range 1..{MAX_DEGREE}")
    # Each check is (label, passed, detail).
    if args.suite == "fixed-orbits":
        params = Parameters(args.n, args.r)
        # The suite's one enumeration is the divisor scan's 2^r binary candidates.
        _check_domain_guard(make_field(1), args.r, args.max_domain_bits)
        # The divisor polynomials grouped by orbit canonical form: one group per fixed orbit.
        classes = fixed_orbit_classes(params)
        divisor_count = sum(len(members) for members in classes.values())
        # The formula divides the Möbius divisor count by 6 exactly, so 6 times it is that count.
        expected_orbits = enumeration.fixed_orbit_count_formula(params)
        expected = 6 * expected_orbits
        e_count = e_set_count(params)
        gf = make_field(params.n)
        checks = [
            ("divisor polynomial count matches the Möbius formula", divisor_count == expected,
             f"{divisor_count} == {expected}"),
            ("order-based count agrees", e_count == expected, f"e_set_count = {e_count}"),
            ("fixed orbit count", len(classes) == expected_orbits, f"{len(classes)} == {expected_orbits}"),
            ("each fixed orbit contains exactly 6 divisor polynomials",
             all(len(members) == 6 for members in classes.values()), ""),
            # |PGL(f)| = (q^3 - q) / |Stab(f)|
            ("each fixed orbit has full size q^3 - q",
             all(stabilizer(gf, canon) == [IDENTITY] for canon in classes), ""),
        ]
        payload = {
            "suite": "fixed-orbits",
            "n": args.n,
            "r": args.r,
            "divisor_polynomials": divisor_count,
            "fixed_orbits": len(classes),
            "witness_matrices": [[elem_to_bits(e, gf.m) for e in m] for m in pgl2_binary_subgroup()],
        }
    else:
        gf = make_field(args.n)
        _check_domain_guard(gf, args.r, args.max_domain_bits)
        # Elements first: their 2^16 ceiling is the lower one, so it refuses before any polynomial work.
        on_elems = enumeration.brute_force_orbit_count(gf, args.r, "PGammaL", "elements")
        on_polys = enumeration.brute_force_orbit_count(gf, args.r, "PGammaL", "polynomials")
        checks = [("semi-linear orbit counts agree on polynomials and elements", on_polys == on_elems,
                   f"{on_polys} == {on_elems}")]
        payload = {
            "suite": "bijection",
            "n": args.n,
            "r": args.r,
            "orbits_on_polynomials": on_polys,
            "orbits_on_elements": on_elems,
        }
    texts = [f"{label} ({detail})" if detail else label for label, _, detail in checks]
    failed = [text for text, (_, passed, _) in zip(texts, checks) if not passed]
    if failed:
        raise InternalCheckError(f"verification suite {args.suite!r} failed: {'; '.join(failed)}")
    if args.format == "json":
        payload["checks"] = [dict(zip(("label", "passed", "detail"), check)) for check in checks]
        payload["passed"] = True
        return payload
    return [f"PASS: {text}" for text in texts]


def _cmd_orbits(args) -> list[str] | dict:
    q = args.q
    if q < 2 or q & (q - 1):
        raise ValueError(f"q={q} must be a power of two, at least 2")
    m = q.bit_length() - 1
    # GF2m's own refusal names its degree m; here the option is q = 2^m.
    if m > MAX_DEGREE:
        raise GuardError(f"q = 2^{m} outside supported range 2..2^{MAX_DEGREE}")
    gf = make_field(m)
    _check_domain_guard(gf, args.r, args.max_domain_bits)
    orbits = list(pgl_orbits(gf, args.r))
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
        return {"q": q, "r": args.r, "orbit_count": len(orbits), "orbits": payload}
    if args.format == "csv":
        return ["canonical,size"] + [
            f"{''.join(poly_to_bits(gf, orbit.canonical))},{orbit.size}" for orbit in orbits
        ]
    return [f"{len(orbits)} orbits of PGL2(F_{q}) on degree-{args.r} irreducibles"] + [
        f"  size {orbit.size:<6d} canonical {poly_to_text(gf, orbit.canonical)}" for orbit in orbits
    ]


def _cmd_goppa(args) -> list[str] | dict:
    from . import goppa

    goppa.check_length(args.n)
    tower = make_tower(args.n, args.r)
    if args.r < 2:
        raise ValueError(f"goppa codes need degree r >= 2, got r = {args.r}")
    if args.alpha is None:
        alpha = next(a for a in range(tower.ext.order) if tower.degree_over(a) == args.r)
    else:
        alpha = args.alpha
        if not 0 <= alpha < tower.ext.order:
            raise ValueError(f"alpha {alpha:x} is outside GF(2^{tower.ext.m})")
        if tower.degree_over(alpha) != args.r:
            raise ValueError(f"alpha must have degree exactly {args.r} over GF(2^{args.n})")
    g = tower.minimal_polynomial(alpha)
    code = goppa.code_from_orbit_element(tower, alpha)
    hist = goppa.weight_enumerator(code)
    if args.format == "json":
        return {
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
    return [
        f"extended code from alpha = 0x{alpha:x} over GF(2^{tower.ext.m})",
        f"defining polynomial: {poly_to_text(tower.base, g)}",
        f"length = {code.length}, dimension = {code.dimension}",
        "generator rows (coordinate 0 first):",
        *(f"  {elem_to_bits(row, code.length)}" for row in code.generator),
        f"weight enumerator: {hist}",
    ]


def _cmd_field_info(args) -> list[str] | dict:
    if args.modulus is not None:
        gf = GF2m(args.m, args.modulus)
    else:
        gf = make_field(args.m)
    info = {
        "m": gf.m,
        "q": str(gf.order),
        "modulus_text": modulus_to_text(gf.modulus),
        "modulus_bits": elem_to_bits(gf.modulus, gf.m + 1),
    }
    if gf._log is not None:
        info["generator"] = elem_to_bits(gf.generator, gf.m)
    if args.format == "json":
        return info
    lines = [
        f"GF(2^{gf.m}), {gf.order} elements",
        f"modulus: {info['modulus_text']}  (bits, lowest degree first: {info['modulus_bits']})",
    ]
    if "generator" in info:
        lines.append(f"multiplicative generator (bits): {info['generator']}")
    return lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers such as 5,7,11, got {text!r}")


def _alpha(text: str) -> int | None:
    """'min' (None: the least element of degree r) or a hex element."""
    if text == "min":
        return None
    try:
        return int(text, 16)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a hex field element such as 1f, or 'min', got {text!r}")


def _modulus(text: str) -> int:
    try:
        return modulus_from_text(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a binary polynomial such as x^3+x+1 or LSB-first bits such as 1101, got {text!r}"
        )


def build_parser(commands=COMMANDS) -> argparse.ArgumentParser:
    """The parser with the named subcommands, all of COMMANDS by default.

    With fewer, the usage line still lists all of COMMANDS, so a usage
    error reads the same as from the full parser.  The full parser keeps
    argparse's own wording for a missing or unknown subcommand.
    """
    parser = _Parser(prog="goppa-orbits", description=__doc__.split("\n\n")[0])
    metavar = None if tuple(commands) == COMMANDS else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar=metavar)

    def add_format(p, csv=True):
        choices = ("plain", "json", "csv") if csv else ("plain", "json")
        p.add_argument("--format", choices=choices, default="plain")

    def add_max_domain_bits(p):
        p.add_argument("--max-domain-bits", type=int, default=None, action=_NonNegative,
                       help="lower the enumeration guard (never raises the built-in ceiling)")

    if "bound" in commands:
        p = sub.add_parser("bound", help="exact inequivalent-code upper bound for one (n, r)")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        add_format(p)
        p.set_defaults(func=_cmd_bound)

    if "table" in commands:
        p = sub.add_parser("table", help="bounds for one n and a list of degrees")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", dest="r_list", type=_int_list, required=True)
        add_format(p)
        p.set_defaults(func=_cmd_table)

    if "verify" in commands:
        p = sub.add_parser("verify", help="brute-force verification suites")
        p.add_argument("--suite", choices=("fixed-orbits", "bijection"), required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        add_max_domain_bits(p)
        add_format(p, csv=False)
        p.set_defaults(func=_cmd_verify)

    if "orbits" in commands:
        p = sub.add_parser("orbits", help="dump all PGL orbits of degree-r irreducibles")
        p.add_argument("--q", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--members", action="store_true", help="include full member lists (json)")
        add_max_domain_bits(p)
        add_format(p)
        p.set_defaults(func=_cmd_orbits)

    if "goppa" in commands:
        p = sub.add_parser("goppa", help="build one extended code and report it")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--alpha", type=_alpha, required=True,
                       help="hex representation of the defining element, or 'min'")
        add_format(p, csv=False)
        p.set_defaults(func=_cmd_goppa)

    if "field-info" in commands:
        p = sub.add_parser("field-info", help="describe GF(2^m) and its modulus")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--modulus", type=_modulus, default=None, help="override modulus: 'x^3+x+1' or LSB-first bits '1101'")
        add_format(p, csv=False)
        p.set_defaults(func=_cmd_field_info)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # Build only the invoked subcommand's parser; anything else gets all of them.
    args = build_parser(argv[:1] if argv and argv[0] in COMMANDS else COMMANDS).parse_args(argv)
    # Exact output has no size limit: lift Python's int-to-str digit cap
    # (3.11+) while the command runs, and restore it for in-process callers.
    saved_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if saved_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        # Build the whole output first, so a failure leaves stdout empty.
        result = args.func(args)
        if isinstance(result, dict):
            import json

            result = [json.dumps(result, indent=2)]
        sys.stdout.write("".join(f"{line}\n" for line in result))
        return 0
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
