"""A seeded fuzz of the command line, with argparse as the oracle of main's own parse.

`cli._parse_plain` parses plain, valid command lines from the option
table and declines every other; `cli.build_parser`, the argparse parser of
the same table, is its oracle.  For each generated argument vector the
table parse either declines or returns exactly what argparse returns, and
the whole run keeps the exit contract: exit 0 with output, or exit 1 with
a message on stderr, nothing on stdout and no traceback.  Every golden
command line and every README example takes the table parse, so the fast
path is never silently dead.

The values are boundary and malformed integers, bad formats, suites,
alphas, moduli and degree lists; the shapes are repeats, `--opt=value`,
abbreviations, `--`, unknown tokens, help flags and missing values.  Each
base command line runs in milliseconds, and so does every mutation of it.

Run as a script, it holds the vectors of each seed given (the test's seed
if none is) to the same checks and exits 1 if any vector breaks them:

    PYTHONPATH=src python tests/test_cli_fuzz.py 1 2 3
"""

import contextlib
import io
import itertools
import random
import re
import shlex
import sys
from pathlib import Path

import pytest

from goppa_orbits import cli
from goppa_orbits.cli import build_parser, main
from test_cli_golden import CASES

ROOT = Path(__file__).resolve().parent.parent

# One valid command line per command (and suite), and the options it leaves out.
BASES = {
    "bound": (["bound", "--n", "5", "--r", "7"], ["--format"]),
    "table": (["table", "--n", "5", "--r", "7,11"], ["--format"]),
    "fixed-orbits": (["verify", "--suite", "fixed-orbits", "--n", "5", "--r", "7"], ["--max-domain-bits", "--format"]),
    "bijection": (["verify", "--suite", "bijection", "--n", "2", "--r", "3"], ["--max-domain-bits", "--format"]),
    "orbits": (["orbits", "--q", "4", "--r", "3"], ["--members", "--max-domain-bits", "--format"]),
    "goppa": (["goppa", "--n", "3", "--r", "2", "--alpha", "min"], ["--format"]),
    "field-info": (["field-info", "--m", "4"], ["--modulus", "--format"]),
}
VALUES = {
    "--format": ["plain", "json", "csv", "JSON", "xml", "", "js"],
    "--suite": ["fixed-orbits", "bijection", "bij", "Bijection", ""],
    "--alpha": ["min", "1", "f", "1f", "zz", "MIN", "0x7", "", "-1", "ffffffffffffffff", "+1"],
    "--modulus": ["x^4+x+1", "11001", "x^4+x^+1", "x^", "1101", "", "X^4 + X + 1", "0", "1", "x^4+x^3+x^2+x+1"],
    "--max-domain-bits": ["0", "30", "-1", "abc", "", "+7", "1e3", "9" * 20, "07", " 3"],
}
DEGREE_LISTS = ["7,11", "5,,7", "", "7,", " 7, 11", "+7,05", "7;11", "-7,11", "0,1,2", "3,5,9"]
MUTATIONS = "set set set set repeat equals abbreviate drop dashes unknown help command no-value".split()
SEED, COUNT = 31, 350


def _values(command, option):
    if (command, option) == ("table", "--r"):
        return DEGREE_LISTS
    if option in VALUES:
        return VALUES[option]
    base = BASES[command][0]
    v = base[base.index(option) + 1]
    return ["0", "-0", f"+{v}", f"0{v}", f"{v}.0", "1e3", f"0x{v}", f"{v}_0", f" {v}", "9" * 20, "", v, "-5", "abc"]


def _mutate(rng, command, argv):
    base, optional = BASES[command]
    option = rng.choice([token for token in base if token.startswith("--")] + optional)
    flag = option == "--members"
    kind = rng.choice(MUTATIONS)
    if kind == "drop" and option in argv:
        i = argv.index(option)
        del argv[i:i + 1 + (not flag)]
    elif kind in ("set", "drop") and option in argv and not flag:
        i = argv.index(option)
        argv[i + 1:i + 2] = [rng.choice(_values(command, option))]
    elif kind in ("set", "drop", "repeat"):
        argv += [option] if flag else [option, rng.choice(_values(command, option))]
    elif kind == "equals":
        argv.append("--members=1" if flag else f"{option}={rng.choice(_values(command, option))}")
    elif kind == "abbreviate":
        short = option[:rng.randrange(3, len(option))] if len(option) > 3 else option[1:]
        argv += [short] if flag else [short, rng.choice(_values(command, option))]
    elif kind == "dashes":
        argv.insert(rng.randrange(1, len(argv) + 1), "--")
    elif kind == "unknown":
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["--bogus", "-x", "extra", "--N", "--n5"]))
    elif kind == "help":
        argv.insert(rng.randrange(1, len(argv) + 1), rng.choice(["-h", "--help"]))
    elif kind == "command":
        argv[0] = rng.choice(["bou", "frob", "", "BOUND", "--n", "verify-", "fieldinfo"])
    else:  # the option with its value missing
        argv.append(option)
    return argv


def vectors(seed=SEED, count=COUNT):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        command = list(BASES)[i % len(BASES)]
        argv = list(BASES[command][0])
        for _ in range(rng.choice((1, 1, 2))):
            argv = _mutate(rng, command, argv)
        out.append(argv)
    return out


def _readme_examples():
    """Every command line of the README's CLI block, with each bracketed option left out or given."""
    block = (ROOT / "README.md").read_text(encoding="utf-8").split("## CLI", 1)[1].split("```")[1]
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line.startswith("goppa-orbits "):
            continue
        parts = re.split(r"\[([^]]*)\]", line[len("goppa-orbits "):])
        # '--format plain|json|csv' stands for each of its values
        optional = [[""] + [f"{alt.rsplit(' ', 1)[0]} {value}" if "|" in alt else alt
                            for value in alt.rsplit(" ", 1)[-1].split("|")] for alt in parts[1::2]]
        for chosen in itertools.product(*optional):
            text = parts[0] + " ".join(chosen)
            yield shlex.split(text)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse: help or a usage error
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv):
    """The table parse declines or equals argparse's namespace; the run exits 0 with
    output, or 1 with stdout empty, a message on stderr and no traceback."""
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(build_parser().parse_args(argv))
    code, out, err = _run(argv)
    if code == 0:
        assert out
    else:
        assert (code, out) == (1, "") and err.strip()
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", vectors(), ids=shlex.join)
def test_table_parse_agrees_with_argparse_and_the_exit_contract_holds(argv):
    check_contract(argv)


def test_the_fuzz_reaches_both_parsers():
    taken = [cli._parse_plain(argv) is not None for argv in vectors()]
    assert 0.1 < sum(taken) / len(taken) < 0.9


@pytest.mark.parametrize("argv", [text.split() for text in CASES.values()] + list(_readme_examples()), ids=shlex.join)
def test_golden_and_readme_command_lines_take_the_table_parse(argv):
    plain = cli._parse_plain(argv)
    assert plain is not None
    assert vars(plain) == vars(build_parser().parse_args(argv))


if __name__ == "__main__":
    if not __debug__:
        sys.exit("the contract checks are asserts, which -O removes")
    broken = 0
    for seed in map(int, sys.argv[1:] or [SEED]):
        failures = []
        for argv in vectors(seed):
            try:
                check_contract(argv)
            except (Exception, SystemExit) as exc:  # an uncaught error breaks the contract too
                failures.append(f"  {shlex.join(argv)}: {type(exc).__name__}: {exc}")
        print(f"seed {seed}: {COUNT} vectors, {len(failures)} broke the contract", *failures, sep="\n")
        broken += len(failures)
    sys.exit(1 if broken else 0)
