"""Golden CLI outputs: stdout must match the checked-in bytes exactly.

Each file under golden/ is the stdout of the invocation listed with it
below.  Output is part of the CLI's contract: any changed byte fails here,
so an intended change of output means regenerating the file on purpose.
"""

from pathlib import Path

import pytest

from goppa_orbits import action
from goppa_orbits.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "bound_n5_r7.plain": "bound --n 5 --r 7",
    "bound_n5_r7.json": "bound --n 5 --r 7 --format json",
    "bound_n5_r7.csv": "bound --n 5 --r 7 --format csv",
    "table_n7_r3_5_11.plain": "table --n 7 --r 3,5,11",
    "table_n7_r3_5_11.json": "table --n 7 --r 3,5,11 --format json",
    "table_n7_r3_5_11.csv": "table --n 7 --r 3,5,11 --format csv",
    "verify_fixed-orbits_n5_r7.plain": "verify --suite fixed-orbits --n 5 --r 7",
    "verify_fixed-orbits_n5_r7.json": "verify --suite fixed-orbits --n 5 --r 7 --format json",
    "verify_fixed-orbits_n5_r13.plain": "verify --suite fixed-orbits --n 5 --r 13",
    "verify_fixed-orbits_n7_r5.plain": "verify --suite fixed-orbits --n 7 --r 5",
    "verify_fixed-orbits_n7_r11.plain": "verify --suite fixed-orbits --n 7 --r 11",
    "verify_fixed-orbits_n7_r11.json": "verify --suite fixed-orbits --n 7 --r 11 --format json",
    "verify_fixed-orbits_n7_r13.plain": "verify --suite fixed-orbits --n 7 --r 13",
    "verify_fixed-orbits_n11_r5.plain": "verify --suite fixed-orbits --n 11 --r 5",
    "verify_fixed-orbits_n11_r5.json": "verify --suite fixed-orbits --n 11 --r 5 --format json",
    "verify_fixed-orbits_n11_r7.plain": "verify --suite fixed-orbits --n 11 --r 7",
    "verify_fixed-orbits_n13_r5.plain": "verify --suite fixed-orbits --n 13 --r 5",
    "verify_fixed-orbits_n13_r7.plain": "verify --suite fixed-orbits --n 13 --r 7",
    "verify_bijection_n2_r5.plain": "verify --suite bijection --n 2 --r 5",
    "verify_bijection_n2_r5.json": "verify --suite bijection --n 2 --r 5 --format json",
    "orbits_q8_r5.plain": "orbits --q 8 --r 5",
    "orbits_q8_r5.csv": "orbits --q 8 --r 5 --format csv",
    "orbits_q4_r3_members.json": "orbits --q 4 --r 3 --format json --members",
    "goppa_n3_r2_min.plain": "goppa --n 3 --r 2 --alpha min",
    "goppa_n3_r2_min.json": "goppa --n 3 --r 2 --alpha min --format json",
    "field-info_m6.plain": "field-info --m 6",
    "field-info_m6.json": "field-info --m 6 --format json",
}

# table reports its rejected rows on stderr, except in json, which lists them.
TABLE_STDERR = "rejected r=3: gcd(r, q(q^2-1)) = 3 != 1 for n=7, r=3\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(capsys, name):
    code = main(CASES[name].split())
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == (GOLDEN / name).read_bytes().decode("utf-8")
    expected_err = TABLE_STDERR if name.startswith("table") and not name.endswith(".json") else ""
    assert captured.err == expected_err


def test_every_golden_file_is_checked():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", ["verify_bijection_n2_r5.plain", "verify_bijection_n2_r5.json", "orbits_q8_r5.plain"])
def test_orbit_walks_need_no_sweep(monkeypatch, capsys, name):
    """The bijection suite and `orbits` print their bytes from materialized orbits alone:
    a Frobenius twist is named by membership, never by a canonical-form sweep."""

    def refuse(*args):
        raise AssertionError("a coset sweep ran")

    monkeypatch.setattr(action, "_sweep", refuse)
    monkeypatch.setattr(action, "_reaches", refuse)
    assert main(CASES[name].split()) == 0
    assert capsys.readouterr().out == (GOLDEN / name).read_bytes().decode("utf-8")
