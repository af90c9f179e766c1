"""Command-line interface: golden outputs, exit codes, determinism."""

import contextlib
import itertools
import json
import re
import sys
import time
import tracemalloc
from fractions import Fraction

import pytest

from goppa_orbits import cli, enumeration, intnt
from goppa_orbits.cli import COMMANDS, build_parser, main
from goppa_orbits.enumeration import bound
from goppa_orbits.errors import InternalCheckError
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

    @pytest.mark.parametrize("n, r, message", [
        ("-5", "7", "n must be positive, got n = -5"),
        ("5", "0", "r must be positive, got r = 0"),
    ])
    def test_non_positive_parameter_names_itself(self, capsys, n, r, message):
        code, out, err = run(capsys, "bound", "--n", n, "--r", r)
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

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

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_internal_failure_is_not_a_rejected_row(self, capsys, monkeypatch, fmt):
        def broken(params):
            raise InternalCheckError("injected")

        monkeypatch.setattr(enumeration, "pgl_orbit_count_formula", broken)
        for command in ("bound", "table"):
            code, out, err = run(capsys, command, "--n", "7", "--r", "5", "--format", fmt)
            assert (code, out, err) == (2, "", "internal check failed: injected\n")

    @pytest.mark.parametrize("n, message", [
        ("-5", "n must be positive, got n = -5"),
        ("4", "n=4: n must be an odd prime > 3"),
    ])
    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    def test_bad_n_refuses_the_whole_table(self, capsys, n, message, fmt):
        code, out, err = run(capsys, "table", "--n", n, "--r", "3,5", "--format", fmt)
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("fmt", ["plain", "json"])
    def test_failed_check_names_itself_and_leaves_stdout_empty(self, capsys, monkeypatch, fmt):
        # the suite takes the Möbius count as 6 F, so a wrong F fails all three count checks
        monkeypatch.setattr(enumeration, "fixed_orbit_count_formula", lambda params: 4)
        code, out, err = run(
            capsys,
            "verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7", "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert err == (
            "internal check failed: verification suite 'fixed-orbits' failed: "
            "divisor polynomial count matches the Möbius formula (18 == 24); "
            "order-based count agrees (e_set_count = 18); fixed orbit count (3 == 4)\n"
        )

    def test_mobius_sum_computed_once(self, capsys, monkeypatch):
        calls = []
        real = intnt.mobius_power_sum

        def counting(base, r):
            calls.append((base, r))
            return real(base, r)

        monkeypatch.setattr(intnt, "mobius_power_sum", counting)
        code, _, _ = run(capsys, "verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7")
        assert code == 0
        assert calls == [(2, 7)]

    def test_nontrivial_stabilizer_fails_the_full_size_check(self, capsys, monkeypatch):
        import goppa_orbits.cli as cli

        monkeypatch.setattr(cli, "stabilizer", lambda gf, f: [(1, 0, 0, 1), (1, 1, 0, 1)])
        code, out, err = run(capsys, "verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7")
        assert (code, out) == (2, "")
        assert err.endswith("failed: each fixed orbit has full size q^3 - q\n")

    def test_fixed_orbits_past_the_log_tables_names_the_ceiling(self, capsys):
        # the sweep reads the field's exp/log tables, which stop at m = 16
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "fixed-orbits", "--n", "17", "--r", "5")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "error: GF(2^17) exceeds the 2^16 log-table ceiling of the coset sweep\n"

    def test_linear_degree_exits_1(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "bijection", "--n", "3", "--r", "1")
        assert (code, out) == (1, "")
        assert "degree r >= 2, got r = 1" in err

    def test_negative_domain_bits_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["verify", "--suite", "bijection", "--n", "2", "--r", "3", "--max-domain-bits", "-5"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err
        assert "argument --max-domain-bits: must be >= 0, got -5" in captured.err

    def test_fixed_orbits_domain_guard_counts_the_binary_candidates(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7", "--max-domain-bits", "6")
        assert (code, out) == (1, "")
        assert err == "error: domain size 2^7 exceeds the 2^6 enumeration guard\n"
        code, out, _ = run(capsys, "verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7", "--max-domain-bits", "7")
        assert code == 0 and out.startswith("PASS: ")

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

    @pytest.mark.parametrize("q", ["2", "8"])
    def test_linear_degree_exits_1(self, capsys, q):
        code, out, err = run(capsys, "orbits", "--q", q, "--r", "1")
        assert (code, out) == (1, "")
        assert "degree r >= 2, got r = 1" in err

    @pytest.mark.parametrize("r", ["0", "-1"])
    def test_non_positive_degree_exits_1(self, capsys, r):
        code, out, err = run(capsys, "orbits", "--q", "2", "--r", r)
        assert (code, out) == (1, "")
        assert err == f"error: irreducible enumeration needs degree r >= 1, got r = {r}\n"

    def test_pgl_guard_refuses_q_1024_at_once(self, capsys):
        # q^r = 2^20 passes the domain guard; the orbit would need 2^30 transforms
        start = time.perf_counter()
        code, out, err = run(capsys, "orbits", "--q", "1024", "--r", "2")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "error: |PGL2(F_1024)| = 1073740800 exceeds the 2^21 guard\n"

    def test_pgl_guard_refuses_q_256(self, capsys):
        # materialization keeps the group-size guard that the sweep no longer shares
        code, out, err = run(capsys, "orbits", "--q", "256", "--r", "2")
        assert (code, out) == (1, "")
        assert err == "error: |PGL2(F_256)| = 16776960 exceeds the 2^21 guard\n"

    def test_domain_guard_priced_in_bits(self, capsys):
        # 8^999999999 would be a 3-gigabit integer; the library guards compare 3 * r with 20 and 16
        start = time.perf_counter()
        code, out, err = run(capsys, "orbits", "--q", "8", "--r", "999999999")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "error: enumeration of q^r = 8^999999999 = 2^2999999997 candidates exceeds the 2^20 guard\n"
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--suite", "bijection", "--n", "3", "--r", "999999999")
        assert time.perf_counter() - start < 1
        assert (code, out) == (1, "")
        assert err == "error: element domain q^r = 8^999999999 exceeds the 2^16 guard\n"

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

    @pytest.mark.parametrize("n, r, message", [
        ("3", "-2", "r must be positive, got r = -2"),
        ("0", "2", "n must be positive, got n = 0"),
        ("-3", "-2", "n must be positive, got n = -3"),
    ])
    def test_non_positive_degree_names_itself(self, capsys, n, r, message):
        code, out, err = run(capsys, "goppa", "--n", n, "--r", r, "--alpha", "min")
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_length_refused_before_the_tower(self, capsys, monkeypatch):
        def no_tower(n, r):
            raise AssertionError("make_tower called")

        monkeypatch.setattr(cli, "make_tower", no_tower)
        code, out, err = run(capsys, "goppa", "--n", "16", "--r", "4", "--alpha", "min")
        assert (code, out, err) == (1, "", "error: code length 2^n = 2^16 exceeds the 2^10 guard\n")


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
        _, constant_x0, _ = run(capsys, "field-info", "--m", "3", "--modulus", "x^3+x^2+x^0")
        assert human == bits == constant_x0

    def test_reducible_modulus_exits_1(self, capsys):
        code, _, err = run(capsys, "field-info", "--m", "3", "--modulus", "x^3+1")
        assert code == 1
        assert "reducible" in err

    def test_huge_term_refused_before_it_is_built(self, capsys):
        """x^1000000000 would be a 125 MB int; the field ceiling refuses its degree while parsing."""
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as refused:
                main(["field-info", "--m", "3", "--modulus", "x^1000000000"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        captured = capsys.readouterr()
        assert (refused.value.code, captured.out) == (1, "")
        assert captured.err.splitlines()[-1] == (
            "goppa-orbits field-info: error: argument --modulus: "
            "field degree k of x^k = 1000000000 outside supported range 1..64"
        )
        assert peak < 1 << 20


# Each numeric option of each subcommand, given an empty, negative, non-numeric or
# huge value.  Every huge value is refused before any work: composite where a
# prime is needed, even where r must be odd, not a power of two for --q, past the
# 64-bit ceiling for a field or tower degree, outside GF(2^6) for --alpha.  Each
# --n and --r also gets the prime 2^61 - 1, which meets every hypothesis on its
# own, so only a size ceiling refuses it: n*r for the formulas, else a degree's.
_OPTION_BASES = {
    "bound": (["bound", "--n", "5", "--r", "7"], ("--n", "--r")),
    "table": (["table", "--n", "5", "--r", "7"], ("--n",)),
    "fixed-orbits": (["verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7"], ("--n", "--r")),
    "bijection": (["verify", "--suite", "bijection", "--n", "2", "--r", "5"], ("--n", "--r")),
    "orbits": (["orbits", "--q", "8", "--r", "3"], ("--q", "--r")),
    "goppa": (["goppa", "--n", "3", "--r", "2", "--alpha", "min"], ("--n", "--r", "--alpha")),
    "field-info": (["field-info", "--m", "6"], ("--m",)),
}
_BAD_VALUES = {"empty": "", "negative": "-5", "non-numeric": "xyz", "huge": "99999999998"}
_HUGE_PRIME = str(2**61 - 1)
_OPTION_CASES = [
    (command, option, kind) for command, (_, options) in _OPTION_BASES.items()
    for option in options for kind in _BAD_VALUES
] + [
    (command, option, "huge-prime") for command, (_, options) in _OPTION_BASES.items()
    for option in options if option in ("--n", "--r")
] + [
    # table's --r is a list whose refused values are rows, so only a malformed list exits 1
    ("table", "--r", "empty"), ("table", "--r", "non-numeric"),
    # --max-domain-bits only lowers a guard, so a huge value is not an error
    *((command, "--max-domain-bits", kind) for command in ("fixed-orbits", "bijection", "orbits")
      for kind in ("empty", "negative", "non-numeric")),
]


# The whole last stderr line of each row that argparse refuses; the command
# itself refuses every other row.
_USAGE_ERRORS = {
    ("bound", "--n", "empty"): "goppa-orbits bound: error: argument --n: invalid int value: ''",
    ("bound", "--n", "non-numeric"): "goppa-orbits bound: error: argument --n: invalid int value: 'xyz'",
    ("bound", "--r", "empty"): "goppa-orbits bound: error: argument --r: invalid int value: ''",
    ("bound", "--r", "non-numeric"): "goppa-orbits bound: error: argument --r: invalid int value: 'xyz'",
    ("table", "--n", "empty"): "goppa-orbits table: error: argument --n: invalid int value: ''",
    ("table", "--n", "non-numeric"): "goppa-orbits table: error: argument --n: invalid int value: 'xyz'",
    ("fixed-orbits", "--n", "empty"): "goppa-orbits verify: error: argument --n: invalid int value: ''",
    ("fixed-orbits", "--n", "non-numeric"): "goppa-orbits verify: error: argument --n: invalid int value: 'xyz'",
    ("fixed-orbits", "--r", "empty"): "goppa-orbits verify: error: argument --r: invalid int value: ''",
    ("fixed-orbits", "--r", "non-numeric"): "goppa-orbits verify: error: argument --r: invalid int value: 'xyz'",
    ("bijection", "--n", "empty"): "goppa-orbits verify: error: argument --n: invalid int value: ''",
    ("bijection", "--n", "non-numeric"): "goppa-orbits verify: error: argument --n: invalid int value: 'xyz'",
    ("bijection", "--r", "empty"): "goppa-orbits verify: error: argument --r: invalid int value: ''",
    ("bijection", "--r", "non-numeric"): "goppa-orbits verify: error: argument --r: invalid int value: 'xyz'",
    ("orbits", "--q", "empty"): "goppa-orbits orbits: error: argument --q: invalid int value: ''",
    ("orbits", "--q", "non-numeric"): "goppa-orbits orbits: error: argument --q: invalid int value: 'xyz'",
    ("orbits", "--r", "empty"): "goppa-orbits orbits: error: argument --r: invalid int value: ''",
    ("orbits", "--r", "non-numeric"): "goppa-orbits orbits: error: argument --r: invalid int value: 'xyz'",
    ("goppa", "--n", "empty"): "goppa-orbits goppa: error: argument --n: invalid int value: ''",
    ("goppa", "--n", "non-numeric"): "goppa-orbits goppa: error: argument --n: invalid int value: 'xyz'",
    ("goppa", "--r", "empty"): "goppa-orbits goppa: error: argument --r: invalid int value: ''",
    ("goppa", "--r", "non-numeric"): "goppa-orbits goppa: error: argument --r: invalid int value: 'xyz'",
    ("goppa", "--alpha", "empty"):
        "goppa-orbits goppa: error: argument --alpha: expected a hex field element such as 1f, or 'min', got ''",
    ("goppa", "--alpha", "non-numeric"):
        "goppa-orbits goppa: error: argument --alpha: expected a hex field element such as 1f, or 'min', got 'xyz'",
    ("field-info", "--m", "empty"): "goppa-orbits field-info: error: argument --m: invalid int value: ''",
    ("field-info", "--m", "non-numeric"): "goppa-orbits field-info: error: argument --m: invalid int value: 'xyz'",
    ("table", "--r", "empty"):
        "goppa-orbits table: error: argument --r: expected comma-separated integers such as 5,7,11, got ''",
    ("table", "--r", "non-numeric"):
        "goppa-orbits table: error: argument --r: expected comma-separated integers such as 5,7,11, got 'xyz'",
    ("fixed-orbits", "--max-domain-bits", "empty"):
        "goppa-orbits verify: error: argument --max-domain-bits: invalid int value: ''",
    ("fixed-orbits", "--max-domain-bits", "negative"):
        "goppa-orbits verify: error: argument --max-domain-bits: must be >= 0, got -5",
    ("fixed-orbits", "--max-domain-bits", "non-numeric"):
        "goppa-orbits verify: error: argument --max-domain-bits: invalid int value: 'xyz'",
    ("bijection", "--max-domain-bits", "empty"):
        "goppa-orbits verify: error: argument --max-domain-bits: invalid int value: ''",
    ("bijection", "--max-domain-bits", "negative"):
        "goppa-orbits verify: error: argument --max-domain-bits: must be >= 0, got -5",
    ("bijection", "--max-domain-bits", "non-numeric"):
        "goppa-orbits verify: error: argument --max-domain-bits: invalid int value: 'xyz'",
    ("orbits", "--max-domain-bits", "empty"):
        "goppa-orbits orbits: error: argument --max-domain-bits: invalid int value: ''",
    ("orbits", "--max-domain-bits", "negative"):
        "goppa-orbits orbits: error: argument --max-domain-bits: must be >= 0, got -5",
    ("orbits", "--max-domain-bits", "non-numeric"):
        "goppa-orbits orbits: error: argument --max-domain-bits: invalid int value: 'xyz'",
}


def _with_option(command, option, value):
    argv = list(_OPTION_BASES[command][0])
    if option in argv:
        argv[argv.index(option) + 1] = value
    else:
        argv += [option, value]
    return argv


class TestOptionErrors:
    @pytest.mark.parametrize("command, option, kind", _OPTION_CASES)
    def test_bad_value_names_its_option(self, capsys, command, option, kind):
        value = "ffffffffffffffff" if (option, kind) == ("--alpha", "huge") else _BAD_VALUES.get(kind, _HUGE_PRIME)
        refused = False
        try:
            code = main(_with_option(command, option, value))
        except SystemExit as exc:  # argparse usage errors
            code, refused = exc.code, True
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        # the last line is the message; argparse prints a usage line naming every option before it
        message = captured.err.splitlines()[-1]
        assert re.search(rf"(?<!\w){option[2:]}(?!\w)", message), message
        assert _USAGE_ERRORS.get((command, option, kind)) == (message if refused else None)

    @pytest.mark.parametrize("value", ["-5", "0", "99999999998", _HUGE_PRIME])
    def test_table_refuses_a_bad_degree_as_a_row(self, capsys, value):
        code, out, err = run(capsys, "table", "--n", "5", "--r", f"7,{value}")
        assert (code, out) == (0, "upper bounds for n = 5 (code length 33)\n  r = 7   bound = 29991\n")
        assert err.startswith(f"rejected r={value}: ")
        assert re.search(r"(?<!\w)r(?!\w)", err.split(": ", 1)[1])

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--suite", "bijection", "--n", "0", "--r", "5"], "field degree n = 0 outside supported range 1..64"),
        (["verify", "--suite", "fixed-orbits", "--n", "67", "--r", "5"],
         "field degree n = 67 outside supported range 1..64"),
        (["field-info", "--m", "0"], "field degree m = 0 outside supported range 1..64"),
        (["goppa", "--n", "3", "--r", "99999999999", "--alpha", "min"],
         "field degree n*r = 299999999997 outside supported range 1..64"),
        (["goppa", "--n", "3", "--r", "1", "--alpha", "min"], "goppa codes need degree r >= 2, got r = 1"),
        (["goppa", "--n", "3", "--r", "1", "--alpha", "1"], "goppa codes need degree r >= 2, got r = 1"),
        # GF2m would name its degree m; the option is q = 2^m
        (["orbits", "--q", str(2**65), "--r", "2"], "field degree log2 q = 65 outside supported range 1..64"),
        (["orbits", "--q", str(2**70), "--r", "2"], "field degree log2 q = 70 outside supported range 1..64"),
    ], ids=["bijection-n", "fixed-orbits-n", "field-info-m", "goppa-n-r", "goppa-r-1-min", "goppa-r-1-alpha",
            "orbits-q-2^65", "orbits-q-2^70"])
    def test_renamed_messages(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


def _parse(capsys, parse, argv):
    """Exit code, stdout and stderr of a parse that ends in SystemExit (help or a usage error)."""
    with pytest.raises(SystemExit) as excinfo:
        parse(argv)
    captured = capsys.readouterr()
    return excinfo.value.code, captured.out, captured.err


def _full_parse(argv):
    build_parser().parse_args(argv)


@pytest.fixture(params=[None, "120", "40", "junk"], ids=lambda columns: f"COLUMNS={columns}")
def columns(request, monkeypatch):
    if request.param is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", request.param)
    return request.param


class TestNarrowParser:
    """main parses plain command lines itself and prints what the full parser prints for every other."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_and_usage_errors_match_the_full_parser(self, capsys, columns, command):
        valid = _OPTION_BASES["fixed-orbits" if command == "verify" else command][0]
        # -h, a missing required option, and an unrecognized argument (reported with the top-level usage line)
        for argv in ([command, "-h"], [command], valid + ["--bogus"]):
            narrow = _parse(capsys, main, argv)
            assert narrow == _parse(capsys, _full_parse, argv)
            assert narrow[0] == (0 if "-h" in argv else 1)
        usage = "usage: goppa-orbits [-h] {bound,table,verify,orbits,goppa,field-info} ... goppa-orbits: error:"
        assert usage in " ".join(narrow[2].split())

    @pytest.mark.parametrize("argv, code, line", [
        ([], 1, "goppa-orbits: error: the following arguments are required: subcommand"),
        (["frob"], 1, "goppa-orbits: error: argument subcommand: invalid choice: "),
        (["-h"], 0, "usage: goppa-orbits [-h] {bound,table,verify,orbits,goppa,field-info} ..."),
    ])
    def test_top_level_wording(self, capsys, monkeypatch, argv, code, line):
        monkeypatch.setenv("COLUMNS", "120")
        result = _parse(capsys, main, argv)
        assert result == _parse(capsys, _full_parse, argv)
        assert result[0] == code
        assert line in (result[1] or result[2])

    @pytest.mark.parametrize("argv, built", [
        (["bound", "--n", "5", "--r", "7"], []),
        (["field-info", "-h"], [tuple(COMMANDS)]),
        ([], [tuple(COMMANDS)]),
        (["-h"], [tuple(COMMANDS)]),
        (["frob", "bound"], [tuple(COMMANDS)]),
        (["bou", "--n", "5"], [tuple(COMMANDS)]),
    ])
    def test_only_the_invoked_subcommand_is_built(self, capsys, monkeypatch, argv, built):
        # a valid line builds no parser; help and usage errors build the full one, once
        calls = []

        def recording():
            parser = build_parser()
            calls.append(tuple(next(action.choices for action in parser._actions if action.dest == "subcommand")))
            return parser

        monkeypatch.setattr(cli, "build_parser", recording)
        with contextlib.suppress(SystemExit):
            main(argv)
        capsys.readouterr()
        assert calls == built


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["bound", "--n", "5", "--r", "7", "--frobnicate"])
        assert excinfo.value.code == 1

    def test_missing_subcommand_exits_1(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 1

    def test_malformed_degree_list_says_what_a_list_is(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["table", "--n", "7", "--r", "5,,7"])
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "goppa-orbits table: error: argument --r: expected comma-separated integers such as 5,7,11, got '5,,7'"
        )

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["field-info", "--m", "3", "--modulus", "x^3+x^+1"],
             "argument --modulus: expected a binary polynomial such as x^3+x+1 or LSB-first bits such as 1101, "
             "got 'x^3+x^+1'"),
            (["goppa", "--n", "3", "--r", "2", "--alpha", "zz"],
             "argument --alpha: expected a hex field element such as 1f, or 'min', got 'zz'"),
            # argparse's own wording for a plain int, which the non-negative converter keeps
            (["verify", "--suite", "bijection", "--n", "2", "--r", "5", "--max-domain-bits", "abc"],
             "argument --max-domain-bits: invalid int value: 'abc'"),
            (["verify", "--suite", "bijection", "--n", "2", "--r", "5", "--max-domain-bits", ""],
             "argument --max-domain-bits: invalid int value: ''"),
            (["verify", "--suite", "bijection", "--n", "2", "--r", "5", "--max-domain-bits", "-1"],
             "argument --max-domain-bits: must be >= 0, got -1"),
        ],
    )
    def test_malformed_value_names_option_and_form(self, capsys, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == f"goppa-orbits {argv[0]}: error: {message}"

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


def _format_lines():
    """Each golden and README command line of bound, table and orbits, without its --format."""
    from test_cli_fuzz import _readme_examples
    from test_cli_golden import CASES

    lines = set()
    for argv in [text.split() for text in CASES.values()] + list(_readme_examples()):
        if argv[0] in ("bound", "table", "orbits"):
            if "--format" in argv:
                i = argv.index("--format")
                argv = argv[:i] + argv[i + 2:]
            lines.add(" ".join(argv))
    return sorted(lines)


_REPORT_KEYS = ("n", "r", "q", "fixed_orbits", "pgl_orbits", "bound")


def _reports(fmt, out):
    """The numbers of each bound or table row that the format prints, by name."""
    if fmt == "json":
        data = json.loads(out)
        rows = []
        for rep in data.get("rows", [data]):
            row = {key: int(rep[key]) for key in _REPORT_KEYS}
            terms = rep["terms"]
            row["terms"] = [Fraction(int(terms[t]["numerator"]), int(terms[t]["denominator"]))
                            for t in ("fixed_orbit_term", "generic_orbit_term")]
            rows.append(row)
        return rows
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == cli.CSV_HEADER
        return [dict(zip(_REPORT_KEYS, map(int, line.split(",")))) for line in lines[1:]]
    title = re.fullmatch(r"upper bounds for n = (\d+) \(code length (\d+)\)", lines[0])
    if title:  # table: n and q + 1 in the title, r and the bound on each row
        n, length = map(int, title.groups())
        return [dict(n=n, q=length - 1, **dict(zip(("r", "bound"), map(int, re.fullmatch(
            r"  r = (\d+) +bound = (\d+)", line).groups())))) for line in lines[1:]]
    n, r, n_again, q = map(int, re.fullmatch(r"n = (\d+), r = (\d+), q = 2\^(\d+) = (\d+)", lines[0]).groups())
    assert n_again == n
    values = [line.split(" = ", 1)[1] for line in lines[1:]]
    return [dict(n=n, r=r, q=q, fixed_orbits=int(values[0]), pgl_orbits=int(values[1]),
                 terms=[Fraction(term) for term in values[2].split(" + ")], bound=int(values[3]))]


def _orbit_lists(fmt, out):
    """What the format prints of the orbits, as one row: their count and each size and canonical form."""
    if fmt == "json":
        data = json.loads(out)
        orbits = data["orbits"]
        assert data["orbit_count"] == len(orbits)
        return [dict(q=data["q"], r=data["r"], count=data["orbit_count"], sizes=[o["size"] for o in orbits],
                     text=[o["canonical_text"] for o in orbits], bits=["".join(o["canonical"]) for o in orbits])]
    lines = out.splitlines()
    if fmt == "csv":
        assert lines[0] == "canonical,size"
        rows = [line.split(",") for line in lines[1:]]
        return [dict(count=len(rows), sizes=[int(size) for _, size in rows], bits=[bits for bits, _ in rows])]
    count, q, r = map(int, re.fullmatch(r"(\d+) orbits of PGL2\(F_(\d+)\) on degree-(\d+) irreducibles",
                                        lines[0]).groups())
    rows = [re.fullmatch(r"  size (\d+) +canonical (.+)", line).groups() for line in lines[1:]]
    assert count == len(rows)
    return [dict(q=q, r=r, count=count, sizes=[int(size) for size, _ in rows], text=[text for _, text in rows])]


@pytest.mark.parametrize("line", _format_lines())
def test_plain_json_and_csv_agree_on_every_shared_number(capsys, line):
    parse = _orbit_lists if line.startswith("orbits") else _reports
    parsed = {}
    for fmt in ("plain", "json", "csv"):
        code, out, _ = run(capsys, *line.split(), "--format", fmt)
        assert code == 0
        parsed[fmt] = parse(fmt, out)
    for rows_a, rows_b in itertools.combinations(parsed.values(), 2):
        assert len(rows_a) == len(rows_b)
        for a, b in zip(rows_a, rows_b):
            shared = a.keys() & b.keys()
            assert len(shared) >= 2
            assert {key: a[key] for key in shared} == {key: b[key] for key in shared}
