"""Every guard ceiling against the README's table of them.

The Guards section of README.md opens with one table row per ceiling:
where it lives, its limit, what it counts, and the message its guard
prints one step above the limit.  Each row is probed here at that step,
with an input cheap enough that the refusal must come before any work,
and a named constant must show its value in the row's limit and message.
"""

import importlib
import re
from pathlib import Path

import pytest

from goppa_orbits.action import orbit_canonical, pgl_orbits
from goppa_orbits.enumeration import brute_force_orbit_count
from goppa_orbits.errors import GuardError
from goppa_orbits.gf2field import make_field, make_tower, subfield_elements
from goppa_orbits.goppa import BinaryCode, check_length, permutation_equivalent, weight_enumerator
from goppa_orbits.intnt import factorize
from goppa_orbits.polyq import Parameters, divisor_polynomials, enumerate_irreducibles

README = Path(__file__).resolve().parent.parent / "README.md"

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


def _guard_table() -> dict[str, tuple[str, str]]:
    """ceiling -> (limit, message), from the first table of the README's Guards section."""
    section = README.read_text(encoding="utf-8").split("\n## Guards\n", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.split("\n"):
        if line.startswith("| `"):
            cells = [cell.strip().replace("\\|", "|") for cell in re.split(r"(?<!\\)\|", line)[1:-1]]
            rows[cells[0].strip("`")] = cells[1], cells[3].strip("`")
    return rows


TABLE = _guard_table()


def test_the_table_lists_every_ceiling_once():
    assert sorted(TABLE) == sorted(PROBES)


@pytest.mark.parametrize("ceiling", sorted(PROBES))
def test_one_step_above_the_limit_is_refused_with_the_quoted_message(ceiling):
    limit, message = TABLE[ceiling]
    with pytest.raises(GuardError) as refused:
        PROBES[ceiling]()
    assert str(refused.value) == message
    module, name = ceiling.split(".")
    value = getattr(importlib.import_module(f"goppa_orbits.{module}"), name)
    if isinstance(value, int):
        assert str(value) in re.findall(r"\d+", limit)
        assert str(value) in re.findall(r"\d+", message)
