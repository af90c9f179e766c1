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

import sys
from types import SimpleNamespace

from . import enumeration
from .action import IDENTITY, fixed_orbit_classes, pgl2_binary_subgroup, pgl_orbits, stabilizer
from .enumeration import BoundReport
from .errors import GuardError, InternalCheckError
from .gf2field import (
    GF2m,
    check_degree,
    elem_to_bits,
    make_field,
    make_tower,
    modulus_from_text,
    modulus_to_text,
)
from .polyq import Parameters, e_set_count, poly_to_bits, poly_to_text

CSV_HEADER = "n,r,q,fixed_orbits,pgl_orbits,bound"

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
    check_degree(args.n, "n")
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
    check_degree(m, "log2 q")
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
        raise ValueError(f"expected comma-separated integers such as 5,7,11, got {text!r}") from None


def _non_negative(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"invalid int value: {text!r}") from None  # argparse's wording for type=int
    if value < 0:
        raise ValueError(f"must be >= 0, got {value}")
    return value


def _alpha(text: str) -> int | None:
    """'min' (None: the least element of degree r) or a hex element."""
    if text == "min":
        return None
    try:
        return int(text, 16)
    except ValueError:
        raise ValueError(f"expected a hex field element such as 1f, or 'min', got {text!r}") from None


def _modulus(text: str) -> int:
    try:
        return modulus_from_text(text)
    except GuardError:
        raise
    except ValueError:
        raise ValueError(
            f"expected a binary polynomial such as x^3+x+1 or LSB-first bits such as 1101, got {text!r}"
        ) from None


# command -> (help, function, options), each option with its add_argument keywords, in help order.
_INT = {"type": int, "required": True}
_FORMAT = {"choices": ("plain", "json", "csv"), "default": "plain"}
_NO_CSV = {"choices": ("plain", "json"), "default": "plain"}
_MAX_DOMAIN_BITS = {"type": _non_negative, "default": None,
                    "help": "lower the enumeration guard (never raises the built-in ceiling)"}
COMMANDS = {
    "bound": ("exact inequivalent-code upper bound for one (n, r)", _cmd_bound,
              {"--n": _INT, "--r": _INT, "--format": _FORMAT}),
    "table": ("bounds for one n and a list of degrees", _cmd_table,
              {"--n": _INT, "--r": {"dest": "r_list", "type": _int_list, "required": True}, "--format": _FORMAT}),
    "verify": ("brute-force verification suites", _cmd_verify,
               {"--suite": {"choices": ("fixed-orbits", "bijection"), "required": True}, "--n": _INT, "--r": _INT,
                "--max-domain-bits": _MAX_DOMAIN_BITS, "--format": _NO_CSV}),
    "orbits": ("dump all PGL orbits of degree-r irreducibles", _cmd_orbits,
               {"--q": _INT, "--r": _INT,
                "--members": {"action": "store_true", "default": False, "help": "include full member lists (json)"},
                "--max-domain-bits": _MAX_DOMAIN_BITS, "--format": _FORMAT}),
    "goppa": ("build one extended code and report it", _cmd_goppa,
              {"--n": _INT, "--r": _INT, "--alpha": {"type": _alpha, "required": True,
                                                     "help": "hex representation of the defining element, or 'min'"},
               "--format": _NO_CSV}),
    "field-info": ("describe GF(2^m) and its modulus", _cmd_field_info,
                   {"--m": _INT, "--modulus": {"type": _modulus, "default": None,
                                               "help": "override modulus: 'x^3+x+1' or LSB-first bits '1101'"},
                    "--format": _NO_CSV}),
}


def build_parser():
    """argparse over COMMANDS: main's parser for every line _parse_plain declines, and its oracle."""
    import argparse

    class Parser(argparse.ArgumentParser):
        # argparse exits 2 on usage errors by default; 2 is reserved here for
        # internal assertion failures, so remap usage problems to 1.
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(1)

    def checked(convert):
        # argparse prints an ArgumentTypeError's own message; a plain int keeps argparse's wording
        def call(text):
            try:
                return convert(text)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return call

    parser = Parser(prog="goppa-orbits", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (help_text, func, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, spec in options.items():
            if spec.get("type", int) is not int:
                spec = dict(spec, type=checked(spec["type"]))
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """What build_parser().parse_args(argv) returns, for a plain command line; None for any other.

    A plain line is a command, then each of its options at most once,
    spelled in full, with its value in the next token unless it is a flag;
    no value starts with '-', each converts and is among the option's
    choices, and every required option is given.  argparse answers
    every other line, so help and usage errors are its own.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    _, func, options = COMMANDS[argv[0]]
    given = {}
    tokens = iter(argv[1:])
    for flag in tokens:
        spec = options.get(flag)
        if spec is None or flag in given:
            return None
        if spec.get("action") == "store_true":
            given[flag] = True
            continue
        text = next(tokens, "-")  # a missing value is argparse's to report
        if text.startswith("-"):
            return None
        try:
            given[flag] = spec.get("type", str)(text)
        except ValueError:
            return None
        if "choices" in spec and given[flag] not in spec["choices"]:
            return None
    if any(spec.get("required") and flag not in given for flag, spec in options.items()):
        return None
    values = {spec.get("dest", flag[2:].replace("-", "_")): given.get(flag, spec.get("default"))
              for flag, spec in options.items()}
    return SimpleNamespace(subcommand=argv[0], func=func, **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_plain(argv) or build_parser().parse_args(argv)
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
