"""Every public function is a product path or a named oracle.

The public check reads src/ with `ast`, so only code counts as a use:
names and attributes, never import aliases, strings, comments or
docstrings.  Each public module-level function, and each public method
of `GF2m` and `Tower`, must be one of:

* a product path: referenced from src/ outside its own body and outside
  every oracle (a method counts only as an attribute, so a builtin of
  the same name keeps no method alive);
* a named oracle: listed in ORACLES with the product function it checks,
  which exists and which the oracle's docstring names;
* an entry point: a library call that the orbit_queries benchmark
  session or the acceptance suite makes and no product code needs.

A listed name that is not a public function, or that product code
references, is stale and fails the check too.  Private helpers need
only be named somewhere in src/ or tests/ outside their own `def`.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from functools import lru_cache
from pathlib import Path

import goppa_orbits

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "goppa_orbits"
CLASSES = ("GF2m", "Tower")

# oracle -> the product function it checks
ORACLES = {
    "action.pgl_enumerate": "action._pgl_orbit_members",
    "action.agl_enumerate": "action._affine_images",
    "action.act_poly": "action._pgl_orbit_members",
    "action.act_element": "action._element_orbit",
    "action.agl_decompose": "action._element_orbit",
    "action.mat_frobenius": "enumeration.brute_force_orbit_count",
    "action.pgammal_compose": "enumeration.brute_force_orbit_count",
    "action.pgammal_inverse": "enumeration.brute_force_orbit_count",
    "action.act_poly_semilinear": "enumeration.brute_force_orbit_count",
    "action.count_divisors_in_orbit": "action.fixed_orbit_classes",
    "polyq.poly_mul": "polyq.enumerate_irreducibles",
    "polyq.poly_divmod": "polyq._rem",
    "polyq.divides_x2r_plus_x": "polyq.divisor_polynomials",
    "polyq.divisor_polynomials_by_minpoly": "polyq.divisor_polynomials",
    "polyq.poly_order": "polyq.e_set_count",
    "polyq.poly_powmod": "polyq.e_set_count",
    "polyq.poly_sort_key": "action._pgl_orbit_members",
    "goppa.permutation_equivalent": "goppa.code_from_orbit_element",
}

ENTRY_POINTS = (
    "action.pgl_orbit",  # orbit_queries and acceptance
    "action.is_orbit_sigma_r_fixed",  # orbit_queries and acceptance
    "action.pgl_element_orbit",  # acceptance
    "gf2field.GF2m.square",  # acceptance
    "gf2field.GF2m.elements",  # acceptance
)


@lru_cache(maxsize=None)
def _scan():
    """(defs, refs): every function and GF2m/Tower method by qualified name with
    its node, and (enclosing function or None, referenced name, is_attribute)."""
    defs, refs = {}, []

    def visit(node, module, owner):
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, ast.FunctionDef) and owner is None:
                inner = f"{module}.{child.name}"
                defs[inner] = child
            elif isinstance(child, ast.FunctionDef) and owner in {f"{module}.{c}" for c in CLASSES}:
                inner = f"{owner}.{child.name}"
                defs[inner] = child
            elif isinstance(child, ast.ClassDef) and owner is None:
                inner = f"{module}.{child.name}"
            elif isinstance(child, ast.Name):
                refs.append((owner, child.id, False))
            elif isinstance(child, ast.Attribute):
                refs.append((owner, child.attr, True))
            visit(child, module, inner)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, None)
    return defs, refs


def _is_method(qualified: str) -> bool:
    return qualified.count(".") == 2


def _product_referenced(qualified: str) -> bool:
    """Named by src/ code outside its own body and outside every oracle."""
    _, refs = _scan()
    name = qualified.rsplit(".", 1)[1]
    return any(
        ref == name and (is_attr or not _is_method(qualified)) and owner != qualified and owner not in ORACLES
        for owner, ref, is_attr in refs
    )


def _public():
    defs, _ = _scan()
    return [q for q in defs if not q.rsplit(".", 1)[1].startswith("_")]


def test_every_public_function_is_a_product_path_or_a_named_oracle():
    listed = set(ORACLES) | set(ENTRY_POINTS)
    unlisted = [q for q in _public() if q not in listed and not _product_referenced(q)]
    assert unlisted == [], "neither called by product code nor a named oracle or entry point"


def test_no_stale_oracle_or_entry_point():
    public = set(_public())
    listed = list(ORACLES) + list(ENTRY_POINTS)
    assert len(listed) == len(set(listed))
    assert [q for q in listed if q not in public] == [], "listed but not a public function"
    assert [q for q in listed if _product_referenced(q)] == [], "listed but called by product code"


def test_each_oracle_names_the_product_function_it_checks():
    defs, _ = _scan()
    for oracle, target in ORACLES.items():
        assert target in defs and target not in ORACLES, f"{oracle} checks {target}, which is not product code"
        doc = ast.get_docstring(defs[oracle]) or ""
        assert "oracle" in doc.lower() and f"`{target.rsplit('.', 1)[1]}`" in doc, oracle


def _private_functions():
    for info in pkgutil.iter_modules(goppa_orbits.__path__):
        mod = importlib.import_module(f"goppa_orbits.{info.name}")
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if name.startswith("_") and not name.startswith("__") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{info.name}.{name}", name


def test_every_private_helper_is_named_outside_its_def():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    unused = [
        qualified
        for qualified, name in _private_functions()
        if not re.search(rf"\b{name}\b", re.sub(rf"\bdef {name}\b", "", text))
    ]
    assert unused == []
