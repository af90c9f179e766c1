"""What `import goppa_orbits` and `import goppa_orbits.cli` load, and the value types used instead of dataclasses.

The package root holds only its docstring and version, so importing it
loads no submodule.  Every CLI invocation pays for its imports before
any command runs, so the start-up set is checked by name: no module is
in it that only some commands use.  The three result types are namedtuples; they keep the
field names, equality, hashing, immutability and repr they had as
frozen dataclasses.  No module of the package imports dataclasses, so
even the `goppa` subcommand, whose code records are namedtuples too
(tests/test_goppa.py), runs without it.
"""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from goppa_orbits.action import Orbit, fixed_orbit_classes, pgl_orbit
from goppa_orbits.enumeration import BoundReport, bound
from goppa_orbits.polyq import Parameters, poly_sort_key

ROOT = Path(__file__).resolve().parent.parent

# Modules no benchmarked command runs: dataclasses pulls in inspect, fractions
# pulls in decimal, json is for --format json, goppa for the goppa subcommand.
# main parses a valid command line from its own option table, so argparse, with
# the re, gettext, locale and enum it imports, loads only for help and usage errors.
NOT_AT_START_UP = {
    "dataclasses", "inspect", "fractions", "decimal", "json", "goppa_orbits.goppa",
    "argparse", "re", "gettext", "locale", "enum",
}
# argparse's help formatter also imports shutil for the terminal width, and
# shutil the compression modules and fnmatch.
NOT_ON_THE_PARSE_PATH = {"argparse", "locale", "shutil", "bz2", "lzma", "fnmatch"}
QUINTIC = (1, 0, 1, 0, 0, 1)  # x^5 + x^2 + 1, irreducible over GF(8) since gcd(5, 3) = 1


def _loaded_by(argv, expected_out):
    """The modules a fresh `python -S` has loaded after main(argv) printed expected_out."""
    code = (
        "import contextlib, io, sys\n"
        "from goppa_orbits.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    code = main({argv!r})\n"
        f"assert (code, out.getvalue()) == (0, {expected_out!r}), out.getvalue()\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    return set(proc.stdout.split())


class TestImportSet:
    def test_cli_import_skips_what_only_some_commands_use(self):
        code = "import goppa_orbits.cli, sys; print(' '.join(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert "goppa_orbits.cli" in loaded
        assert NOT_AT_START_UP & loaded == set()

    def test_bound_parses_its_command_line_without_shutil(self):
        loaded = _loaded_by(["bound", "--n", "5", "--r", "7", "--format", "csv"],
                            "n,r,q,fixed_orbits,pgl_orbits,bound\n5,7,32,3,149943,29991\n")
        assert NOT_ON_THE_PARSE_PATH & loaded == set()

    def test_bijection_parses_its_command_line_without_argparse(self):
        loaded = _loaded_by(["verify", "--suite", "bijection", "--n", "2", "--r", "5"],
                            "PASS: semi-linear orbit counts agree on polynomials and elements (3 == 3)\n")
        assert NOT_ON_THE_PARSE_PATH & loaded == set()

    def test_help_still_comes_from_argparse(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-S", "-m", "goppa_orbits.cli", "bound", "-h"], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("usage: goppa-orbits bound [-h] --n N --r R") and "--format" in proc.stdout

    def test_goppa_runs_without_dataclasses(self):
        code = (
            "import contextlib, io, sys\n"
            "from goppa_orbits.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['goppa', '--n', '3', '--r', '2', '--alpha', 'min']) == 0\n"
            "print(' '.join(sorted(sys.modules)))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert "goppa_orbits.goppa" in loaded
        assert {"dataclasses", "inspect"} & loaded == set()

    def test_package_root_imports_no_submodule(self):
        code = "import goppa_orbits, sys; print(' '.join(sorted(sys.modules)))"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert "goppa_orbits" in loaded
        assert {name for name in loaded if name.startswith("goppa_orbits.")} == set()


class TestValueTypes:
    def test_fields_are_immutable(self, gf8):
        orbit = pgl_orbit(gf8, QUINTIC)
        for obj, field in [(Parameters(5, 7), "n"), (bound(Parameters(5, 7)), "bound"), (orbit, "members")]:
            with pytest.raises(AttributeError):
                setattr(obj, field, None)
            with pytest.raises(AttributeError):
                obj.extra = 1

    def test_field_names(self):
        assert Parameters._fields == ("n", "r", "strict")
        assert BoundReport._fields == ("params", "fixed_orbit_count", "pgl_orbit_count", "bound")
        assert Orbit._fields == ("members",)

    def test_equal_parameters_share_one_cache_entry(self):
        first = fixed_orbit_classes(Parameters(7, 11))
        before = fixed_orbit_classes.cache_info()
        again = Parameters(7, 11)
        assert again == Parameters(7, 11) and hash(again) == hash(Parameters(7, 11))
        assert fixed_orbit_classes(again) is first
        after = fixed_orbit_classes.cache_info()
        assert (after.hits, after.misses, after.currsize) == (before.hits + 1, before.misses, before.currsize)
        assert Parameters(7, 11) != Parameters(7, 11, strict=False)

    def test_repr(self):
        assert repr(Parameters(5, 7)) == "Parameters(n=5, r=7, strict=True)"
        assert repr(bound(Parameters(5, 7))) == (
            "BoundReport(params=Parameters(n=5, r=7, strict=True), fixed_orbit_count=3, pgl_orbit_count=149943, "
            "bound=29991, fixed_term=Fraction(12, 5), pgl_term=Fraction(149943, 5))"
        )

    @pytest.mark.parametrize("n, r, fixed_term, pgl_term", [
        (5, 7, Fraction(12, 5), Fraction(149943, 5)),
        (7, 13, Fraction(90), Fraction(12974326183623782355)),
    ])
    def test_terms(self, n, r, fixed_term, pgl_term):
        rep = bound(Parameters(n, r))
        assert (rep.fixed_term, rep.pgl_term) == (fixed_term, pgl_term)
        assert type(rep.fixed_term) is Fraction and type(rep.pgl_term) is Fraction
        assert rep == bound(Parameters(n, r)) and hash(rep) == hash(bound(Parameters(n, r)))

    def test_orbit_membership_size_and_canonical(self, gf8):
        orbit = pgl_orbit(gf8, QUINTIC)
        assert orbit.size == 504 == len(orbit.members)
        assert orbit.canonical == orbit.members[0] == min(orbit.members, key=poly_sort_key)
        assert all(f in orbit for f in orbit.members)
        assert (1, 0, 0, 1, 0, 1) in orbit  # the reversal, x -> 1/x
        assert (1, 0, 0, 0, 0, 1) not in orbit
        assert orbit.members not in orbit
        assert orbit == Orbit(orbit.members) and hash(orbit) == hash(Orbit(orbit.members))
