"""Every module-level function, public or private helper, has a caller or a test.

A function named nowhere in src/ or tests/ except in its own `def` is
dead code: delete it, or add the test that keeps it honest.  Dunders
are left out; Python calls them.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import goppa_orbits

ROOT = Path(__file__).resolve().parent.parent


def _module_functions():
    for info in pkgutil.iter_modules(goppa_orbits.__path__):
        mod = importlib.import_module(f"goppa_orbits.{info.name}")
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if not name.startswith("__") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{info.name}.{name}", name


def _unused(private: bool) -> list[str]:
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    return [
        qualified
        for qualified, name in _module_functions()
        if name.startswith("_") == private and not re.search(rf"\b{name}\b", re.sub(rf"\bdef {name}\b", "", text))
    ]


def test_every_public_function_is_named_outside_its_def():
    assert _unused(private=False) == []


def test_every_private_helper_is_named_outside_its_def():
    assert _unused(private=True) == []
