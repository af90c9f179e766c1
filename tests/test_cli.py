"""Command-line interface: golden outputs, exit codes, determinism."""

import contextlib
import json
import re
import sys

import pytest

from goppa_orbits.cli import main
from goppa_orbits.enumeration import bound
from goppa_orbits.polyq import Parameters

GOLDEN_BOUND_JSON = """\
{
  "n": 5,
  "r": 7,
  "q": "32",
  "fixed_orbits": "3",
  "pgl_orbits": "149943",
  "bound": "29991",
  "terms": {
    "fixed_orbit_term": {
      "numerator": "12",
      "denominator": "5"
    },
    "generic_orbit_term": {
      "numerator": "149943",
      "denominator": "5"
    }
  }
}
"""


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBoundCommand:
    def test_json_golden(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--r", "7", "--format", "json")
        assert code == 0
        assert out == GOLDEN_BOUND_JSON
        assert json.loads(out)["bound"] == "29991"

    def test_plain_mentions_bound(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--r", "7")
        assert code == 0
        assert "29991" in out

    def test_csv_schema(self, capsys):
        code, out, _ = run(capsys, "bound", "--n", "5", "--r", "7", "--format", "csv")
        assert code == 0
        assert out == "n,r,q,fixed_orbits,pgl_orbits,bound\n5,7,32,3,149943,29991\n"

    def test_hypothesis_violation_exits_1(self, capsys):
        code, _, err = run(capsys, "bound", "--n", "4", "--r", "7")
        assert code == 1
        assert "odd prime" in err

    def test_determinism(self, capsys):
        _, first, _ = run(capsys, "bound", "--n", "7", "--r", "17", "--format", "json")
        _, second, _ = run(capsys, "bound", "--n", "7", "--r", "17", "--format", "json")
        assert first == second


@contextlib.contextmanager
def unlimited_int_str():
    """Lift Python's int-to-str digit cap (3.11+) inside the block."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


class TestBigIntegerOutput:
    """At (5, 10007) the bound has over 4300 digits, past Python's default
    int-to-str cap; every format must still print it in full."""

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_full_row_at_5_10007(self, capsys, fmt):
        limit_before = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
        code, out, err = run(capsys, "bound", "--n", "5", "--r", "10007", "--format", fmt)
        assert code == 0, err
        if limit_before is not None:
            assert sys.get_int_max_str_digits() == limit_before
        rep = bound(Parameters(5, 10007))
        with unlimited_int_str():
            fixed, pgl, value = str(rep.fixed_orbit_count), str(rep.pgl_orbit_count), str(rep.bound)
            fixed_term, pgl_term = str(rep.fixed_term), str(rep.pgl_term)
            pgl_term_num = str(rep.pgl_term.numerator)
        assert len(value) > 4300
        if fmt == "csv":
            assert out == f"n,r,q,fixed_orbits,pgl_orbits,bound\n5,10007,32,{fixed},{pgl},{value}\n"
        elif fmt == "json":
            payload = json.loads(out)
            assert (payload["fixed_orbits"], payload["pgl_orbits"], payload["bound"]) == (fixed, pgl, value)
            assert payload["terms"]["generic_orbit_term"]["numerator"] == pgl_term_num
        else:
            assert out == (
                "n = 5, r = 10007, q = 2^5 = 32\n"
                f"fixed orbit count   = {fixed}\n"
                f"total PGL orbits    = {pgl}\n"
                f"term breakdown      = {fixed_term} + {pgl_term}\n"
                f"upper bound         = {value}\n"
            )

    def test_table_row_at_5_10007(self, capsys):
        code, out, err = run(capsys, "table", "--n", "5", "--r", "7,10007", "--format", "csv")
        assert code == 0, err
        with unlimited_int_str():
            value = str(bound(Parameters(5, 10007)).bound)
        assert out.splitlines()[2].endswith("," + value)


class TestTableCommand:
    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "7", "--r", "5,11", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,r,q,fixed_orbits,pgl_orbits,bound"
        assert lines[1].endswith("469")
        assert lines[2].endswith("935870030557051")

    def test_rejected_rows_reported_not_fatal(self, capsys):
        code, out, err = run(capsys, "table", "--n", "7", "--r", "3,5", "--format", "csv")
        assert code == 0
        assert "rejected r=3" in err
        assert out.splitlines()[1].endswith("469")

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "table", "--n", "7", "--r", "3,5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][0]["bound"] == "469"
        assert payload["rejected"][0]["r"] == 3


class TestVerifyCommand:
    def test_bijection_small(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "bijection", "--n", "2", "--r", "3")
        assert code == 0
        assert out.startswith("PASS")

    def test_fixed_orbits_suite(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["divisor_polynomials"] == 18
        assert payload["fixed_orbits"] == 3
        assert len(payload["witness_matrices"]) == 6
        assert len(payload["checks"]) == 5
        assert all(c["passed"] for c in payload["checks"])
        assert payload["passed"] is True

    def test_fixed_orbits_requires_hypotheses(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "fixed-orbits", "--n", "3", "--r", "5")
        assert code == 1
        assert "odd prime" in err

    def test_domain_guard_can_be_lowered(self, capsys):
        code, _, err = run(
            capsys,
            "verify", "--suite", "bijection", "--n", "2", "--r", "3",
            "--max-domain-bits", "4",
        )
        assert code == 1
        assert "guard" in err


class TestOrbitsCommand:
    def test_binary_cubics(self, capsys):
        code, out, _ = run(capsys, "orbits", "--q", "2", "--r", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["orbit_count"] == 1
        assert payload["orbits"][0]["size"] == 2

    def test_members_flag(self, capsys):
        code, out, _ = run(
            capsys, "orbits", "--q", "2", "--r", "3", "--format", "json", "--members"
        )
        payload = json.loads(out)
        assert len(payload["orbits"][0]["members"]) == 2

    def test_non_power_of_two_rejected(self, capsys):
        code, _, err = run(capsys, "orbits", "--q", "6", "--r", "2")
        assert code == 1
        assert "power of two" in err


class TestGoppaCommand:
    def test_min_alpha(self, capsys):
        code, out, _ = run(
            capsys, "goppa", "--n", "3", "--r", "2", "--alpha", "min", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["length"] == 9
        assert payload["dimension"] == 2
        assert payload["weight_enumerator"] == [1, 0, 0, 0, 0, 0, 3, 0, 0, 0]

    def test_hex_alpha_matches_min(self, capsys):
        _, golden, _ = run(capsys, "goppa", "--n", "3", "--r", "2", "--alpha", "min")
        _, hexed, _ = run(capsys, "goppa", "--n", "3", "--r", "2", "--alpha", "2")
        assert golden == hexed

    def test_wrong_degree_alpha_exits_1(self, capsys):
        code, _, err = run(capsys, "goppa", "--n", "3", "--r", "2", "--alpha", "1")
        assert code == 1
        assert "degree" in err


class TestFieldInfoCommand:
    def test_default_modulus(self, capsys):
        code, out, _ = run(capsys, "field-info", "--m", "3", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["modulus_text"] == "x^3+x+1"
        assert payload["modulus_bits"] == "1101"

    def test_both_modulus_forms_accepted(self, capsys):
        _, human, _ = run(capsys, "field-info", "--m", "3", "--modulus", "x^3+x^2+1")
        _, bits, _ = run(capsys, "field-info", "--m", "3", "--modulus", "1011")
        assert human == bits

    def test_reducible_modulus_exits_1(self, capsys):
        code, _, err = run(capsys, "field-info", "--m", "3", "--modulus", "x^3+1")
        assert code == 1
        assert "reducible" in err


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "--n", "5", "--r", "7", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--suite", "bijection", "--n", "2", "--r", "3"],
            ["goppa", "--n", "3", "--r", "2", "--alpha", "min"],
            ["field-info", "--m", "3"],
        ],
    )
    def test_csv_refused_where_not_implemented(self, capsys, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--format", "csv"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        # argparse quotes the choices on some Python versions and not on others
        assert re.search(r"--format: invalid choice: .*\(choose from '?plain'?, '?json'?\)", captured.err)
