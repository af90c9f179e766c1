"""Group actions on irreducible polynomials over GF(2^n) and the exact
upper bound on inequivalent extended irreducible binary Goppa codes."""

from .action import (
    Orbit,
    act_element,
    act_poly,
    agl_decompose,
    agl_enumerate,
    count_divisors_in_orbit,
    is_orbit_sigma_r_fixed,
    pgl_enumerate,
    pgl_orbit,
    stabilizer,
)
from .enumeration import (
    BoundReport,
    bound,
    brute_force_orbit_count,
    fixed_orbit_count_formula,
    make_table,
    pgl_orbit_count_formula,
)
from .errors import GuardError, HypothesisError, InternalCheckError
from .gf2field import GF2m, Tower, make_field, make_tower
from .polyq import (
    Parameters,
    count_divisor_polys_mobius,
    count_irreducibles,
    divisor_polynomials,
    e_set_count,
    enumerate_irreducibles,
    is_irreducible,
    poly_order,
)

__version__ = "0.1.0"

# Only the `goppa` subcommand builds codes, so `goppa` loads on first use (PEP 562).
_GOPPA_NAMES = frozenset(
    ("BinaryCode", "GoppaSpec", "build_goppa", "code_from_orbit_element", "extend_code", "weight_enumerator")
)


def __getattr__(name: str):
    if name in _GOPPA_NAMES:
        from . import goppa

        return getattr(goppa, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
