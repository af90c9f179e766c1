"""Every guard ceiling against the README's table of them.

The Guards section of README.md opens with one table row per ceiling:
where it lives, its limit, what it counts, and the message its guard
prints one step above the limit (a ceiling compared twice quotes both
messages, in source order).  Each row is probed here at that step,
with an input cheap enough that the refusal must come before any work,
and a named constant must show its value in the row's limit and message.
A ceiling with several entry points is probed from each of them, every
ceiling Tier-1 can afford is probed exactly at its limit too, and a scan
of the source checks that each named constant is compared in one place.
"""

import ast
import importlib
import re
from collections import defaultdict
from pathlib import Path

import pytest

from goppa_orbits.action import _check_sweep_guard, orbit_canonical, pgl_orbits
from goppa_orbits.cli import main
from goppa_orbits.enumeration import brute_force_orbit_count
from goppa_orbits.errors import GuardError, HypothesisError
from goppa_orbits.gf2field import (
    MAX_DEGREE,
    GF2m,
    Tower,
    make_field,
    make_tower,
    modulus_from_text,
    smallest_irreducible,
    subfield_elements,
)
from goppa_orbits.goppa import BinaryCode, check_length, permutation_equivalent, weight_enumerator
from goppa_orbits.intnt import factorize
from goppa_orbits.polyq import Parameters, divisor_polynomials, enumerate_irreducibles

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"
SRC = ROOT / "src" / "goppa_orbits"

# ceiling -> a call one step above its limit
PROBES = {
    "gf2field.MAX_DEGREE": lambda: make_field(65),
    "gf2field._TABLE_DEGREE": lambda: orbit_canonical(make_field(17), (1, 0, 0, 0, 0, 1)),
    "gf2field._TOWER_DEGREE": lambda: make_tower(17, 1),
    "gf2field.subfield_elements": lambda: subfield_elements(make_field(31), 31),
    "action._PGL_GUARD_BITS": lambda: next(pgl_orbits(make_field(8), 2)),
    "action._SWEEP_GUARD_BITS": lambda: orbit_canonical(make_field(11), (1, 1, 1)),
    "polyq.enumerate_irreducibles": lambda: next(enumerate_irreducibles(make_field(3), 7)),
    "polyq.divisor_polynomials": lambda: divisor_polynomials(Parameters(5, 17)),
    "polyq._BITS_CEILING": lambda: Parameters(1, (1 << 20) + 1),
    "enumeration.brute_force_orbit_count": lambda: brute_force_orbit_count(make_field(1), 17, "PGL", "elements"),
    "intnt.FACTOR_GUARD_BITS": lambda: factorize(1 << 40),
    "goppa._LENGTH_DEGREE": lambda: check_length(11),
    "goppa._WEIGHT_ENUM_DIM_GUARD": lambda: weight_enumerator(BinaryCode(25, tuple(1 << i for i in range(25)), (), 25)),
    "goppa._PERM_SEARCH_LENGTH_GUARD": lambda: permutation_equivalent(
        *[BinaryCode(10, (), tuple(1 << i for i in range(10)), 0)] * 2
    ),
}


def _guard_table() -> dict[str, tuple[str, list[str]]]:
    """ceiling -> (limit, quoted messages), from the first table of the README's Guards section."""
    section = README.read_text(encoding="utf-8").split("\n## Guards\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.split("\n"):
        if line.startswith("| `"):
            cells = [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells[1], re.findall(r"`([^`]*)`", cells[3])
    return rows


TABLE = _guard_table()


def _value(ceiling: str):
    """The object a table row names: a module constant, or the function whose literal is the ceiling."""
    module, name = ceiling.split(".")
    return getattr(importlib.import_module(f"goppa_orbits.{module}"), name)


def _refusal(call) -> str:
    with pytest.raises(GuardError) as refused:
        call()
    return str(refused.value)


def test_the_table_lists_every_ceiling_once():
    assert sorted(TABLE) == sorted(PROBES)


@pytest.mark.parametrize("ceiling", sorted(PROBES))
def test_one_step_above_the_limit_is_refused_with_the_quoted_message(ceiling):
    limit, messages = TABLE[ceiling]
    assert len(messages) == (2 if ceiling in TWO_COMPARISONS else 1)
    assert _refusal(PROBES[ceiling]) == messages[0]
    value = _value(ceiling)
    if isinstance(value, int):
        assert str(value) in re.findall(r"\d+", limit)
        assert all(str(value) in re.findall(r"\d+", message) for message in messages)


def _cli_refusal(capsys, line: str) -> str:
    """The message of a command line that exits 1 with stdout empty, less main's 'error: ' prefix."""
    code = main(line.split())
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith("error: ") and captured.err.endswith("\n")
    return captured.err[len("error: "):-1]


# MAX_DEGREE one step above its limit from every entry point (a call, or a command line), with
# the name each gives the degree; the degrees follow the constant, so a new ceiling changes only
# the README's row here.
_ABOVE = MAX_DEGREE + 1
_ABOVE_MAX_DEGREE = {
    "make_field": (lambda: make_field(_ABOVE), "m"),
    "GF2m": (lambda: GF2m(_ABOVE, (1 << _ABOVE) | 1), "m"),
    "smallest_irreducible": (lambda: smallest_irreducible(_ABOVE), "m"),
    "make_tower": (lambda: make_tower(1, _ABOVE), "n*r"),
    "modulus_from_text": (lambda: modulus_from_text(f"x^{_ABOVE}+1"), "k of x^k"),
    "cli-verify-bijection": (f"verify --suite bijection --n {_ABOVE} --r 3", "n"),
    "cli-verify-fixed-orbits": (f"verify --suite fixed-orbits --n {_ABOVE} --r 3", "n"),
    "cli-orbits": (f"orbits --q {2**_ABOVE} --r 2", "log2 q"),
    "cli-field-info": (f"field-info --m {_ABOVE}", "m"),
    "cli-goppa": (f"goppa --n 1 --r {_ABOVE} --alpha min", "n*r"),
}


@pytest.mark.parametrize("entry", sorted(_ABOVE_MAX_DEGREE))
def test_every_entry_point_prints_the_one_field_degree_message(capsys, entry):
    probe, name = _ABOVE_MAX_DEGREE[entry]
    message = _cli_refusal(capsys, probe) if isinstance(probe, str) else _refusal(probe)
    # the table quotes the library's name m; an entry point may only put its own name there
    assert message == TABLE["gf2field.MAX_DEGREE"][1][0].replace("degree m =", f"degree {name} =")


@pytest.mark.parametrize("probe", [
    lambda: make_tower(17, 1),
    lambda: Tower(make_field(17), make_field(17), 0),
], ids=["make_tower", "Tower"])
def test_every_entry_point_prints_the_one_tower_message(probe):
    assert _refusal(probe) == TABLE["gf2field._TOWER_DEGREE"][1][0]


# 3n = 2^20 + 2: one step above the largest n that check_n, the second comparison, admits
_ABOVE_CHECK_N = (1 << 20) // 3 + 1


def test_one_step_above_the_whole_n_check_prints_the_second_quoted_message(capsys):
    message = TABLE["polyq._BITS_CEILING"][1][1]
    assert _refusal(lambda: Parameters.check_n(_ABOVE_CHECK_N)) == message
    assert _cli_refusal(capsys, f"table --n {_ABOVE_CHECK_N} --r 5") == message


# ceiling -> calls exactly at its limit, which that ceiling admits; each returns, or is refused by
# another check (asserted where it is).  An off-by-one in a guard's comparison fails here.
_CODE_9 = BinaryCode(9, (), tuple(1 << i for i in range(9)), 0)
AT_THE_LIMIT = {
    "gf2field.MAX_DEGREE": [
        lambda: make_field(MAX_DEGREE),
        lambda: GF2m(MAX_DEGREE, smallest_irreducible(MAX_DEGREE)),
        lambda: make_tower(1, MAX_DEGREE),
        lambda: modulus_from_text(f"x^{MAX_DEGREE}+x^0"),
    ],
    "gf2field._TABLE_DEGREE": [lambda: _check_sweep_guard(make_field(16), 5)],
    "gf2field._TOWER_DEGREE": [lambda: make_tower(16, 1)],  # its Tower(...) passes the same check
    "action._PGL_GUARD_BITS": [lambda: next(pgl_orbits(make_field(7), 2))],
    "action._SWEEP_GUARD_BITS": [lambda: _check_sweep_guard(make_field(10), 2)],
    "polyq.enumerate_irreducibles": [lambda: next(enumerate_irreducibles(make_field(1), 20))],
    "polyq.divisor_polynomials": [lambda: divisor_polynomials(Parameters(5, 16, strict=False))],
    "polyq._BITS_CEILING": [
        lambda: Parameters(1, 1 << 20, strict=False),
        # 3n = 2^20 - 1: the largest n the whole-table check admits, refused as composite
        lambda: pytest.raises(HypothesisError, Parameters.check_n, ((1 << 20) - 1) // 3),
    ],
    "enumeration.brute_force_orbit_count": [lambda: brute_force_orbit_count(make_field(1), 16, "PGL", "elements")],
    "intnt.FACTOR_GUARD_BITS": [lambda: factorize((1 << 40) - 1)],
    "goppa._LENGTH_DEGREE": [lambda: check_length(10)],
    "goppa._PERM_SEARCH_LENGTH_GUARD": [lambda: permutation_equivalent(_CODE_9, _CODE_9)],
}
# At their limits these two take far longer than a Tier-1 test: 2^30 subfield
# elements, and the 2^24 codewords of a weight enumeration.
TOO_COSTLY_AT_THE_LIMIT = {"gf2field.subfield_elements", "goppa._WEIGHT_ENUM_DIM_GUARD"}


def test_every_affordable_ceiling_is_probed_at_its_limit():
    assert sorted(AT_THE_LIMIT) == sorted(set(PROBES) - TOO_COSTLY_AT_THE_LIMIT)


@pytest.mark.parametrize("call", [pytest.param(call, id=f"{ceiling}-{i}")
                                  for ceiling, calls in AT_THE_LIMIT.items() for i, call in enumerate(calls)])
def test_exactly_at_the_limit_is_admitted(call):
    call()


@pytest.mark.parametrize("argv, expected", [
    (f"field-info --m {MAX_DEGREE}", None),
    (f"goppa --n 1 --r {MAX_DEGREE} --alpha min", None),
    (f"orbits --q {2**MAX_DEGREE} --r 2", f"|PGL2(F_{2**MAX_DEGREE})| = "),
    (f"verify --suite bijection --n {MAX_DEGREE} --r 3", "element domain q^r = "),
    (f"verify --suite fixed-orbits --n {MAX_DEGREE} --r 3", f"n={MAX_DEGREE}: n must be an odd prime > 3"),
    (f"field-info --m 3 --modulus x^{MAX_DEGREE}+1", f"modulus degree {MAX_DEGREE} != m=3"),
])
def test_the_cli_admits_the_largest_field_degree(capsys, argv, expected):
    """Each command admits a field degree at the ceiling; the refusals that remain come from later checks."""
    code = main(argv.split())
    captured = capsys.readouterr()
    if expected is None:
        assert (code, captured.err) == (0, "") and captured.out
    else:
        assert (code, captured.out) == (1, "") and captured.err.startswith(f"error: {expected}")


# module -> its syntax tree, for every module of the package
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, reaches as an attribute or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def _compared_names() -> dict[str, list[tuple[str, str]]]:
    """name -> (module, enclosing function) of each ast.Compare in the package that reads the name."""
    found = defaultdict(list)

    class Visitor(ast.NodeVisitor):
        def __init__(self, module):
            self.module, self.scope = module, []

        def visit_FunctionDef(self, node):
            self.scope.append(node.name)
            self.generic_visit(node)
            self.scope.pop()

        def visit_Compare(self, node):
            for name in sorted(_names(node)):
                found[name].append((self.module, ".".join(self.scope)))

    for module, tree in MODULES.items():
        Visitor(module).visit(tree)
    return found


COMPARED = _compared_names()
CONSTANTS = sorted(ceiling for ceiling in PROBES if isinstance(_value(ceiling), int))
# Compared twice: n*r of one pair in Parameters, and 3n in the whole-table check, whose
# message names no r.  One message cannot be true for both callers.
TWO_COMPARISONS = {"polyq._BITS_CEILING"}


def test_the_two_field_ceilings_are_compared_only_in_their_check_functions():
    assert COMPARED["MAX_DEGREE"] == [("gf2field", "check_degree")]
    assert COMPARED["_TOWER_DEGREE"] == [("gf2field", "_check_tower_degree")]


def test_max_degree_is_read_only_in_gf2field():
    assert [module for module, tree in MODULES.items() if "MAX_DEGREE" in _names(tree)] == ["gf2field"]


@pytest.mark.parametrize("ceiling", CONSTANTS)
def test_each_constant_ceiling_is_compared_in_one_place(ceiling):
    module, name = ceiling.split(".")
    sites = COMPARED[name]
    assert len(sites) == (2 if ceiling in TWO_COMPARISONS else 1), sites
    assert {site[0] for site in sites} == {module}
