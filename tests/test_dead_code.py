"""Every public module-level function has a caller or a test.

A function named nowhere in src/ or tests/ except in its own `def` is
dead code: delete it, or add the test that keeps it honest.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import goppa_orbits

ROOT = Path(__file__).resolve().parent.parent


def _public_functions():
    for info in pkgutil.iter_modules(goppa_orbits.__path__):
        mod = importlib.import_module(f"goppa_orbits.{info.name}")
        for name, obj in vars(mod).items():
            fn = inspect.unwrap(obj) if callable(obj) else obj
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                yield f"{info.name}.{name}", name


def test_every_public_function_is_named_outside_its_def():
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    text = "\n".join(path.read_text(encoding="utf-8") for path in files)
    unused = [
        qualified
        for qualified, name in _public_functions()
        if not re.search(rf"\b{name}\b", re.sub(rf"\bdef {name}\b", "", text))
    ]
    assert unused == []
