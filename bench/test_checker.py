"""The checker accepts sepsym's real outputs and rejects corrupted ones.

    python3 -m pytest -q bench/test_checker.py

Each test runs one small invocation through sepsym.cli.main, checks that
the genuine output passes, then corrupts one value and checks that the
checker notices.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import checker  # noqa: E402
from sepsym import cli, gf  # noqa: E402


def run(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return buf.getvalue(), code


def check(argv, text, code):
    moduli = {}
    if "--q" in argv:
        q = int(argv[argv.index("--q") + 1])
        moduli[q] = gf.field_for_order(q).modulus
    return checker.check_round([argv], [text], [code], moduli, ROOT)


def assert_clean(argv):
    text, code = run(*argv)
    report = check(argv, text, code)
    assert (report.errors, report.failed) == ([], 0)
    return text, code


def edit_row(text, column, value, row=0):
    """Replace one cell of a CSV table's data row."""
    lines = text.splitlines()
    header = lines[1].split(",")
    cells = lines[2 + row].split(",")
    cells[header.index(column)] = value
    lines[2 + row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_flipped_verdict_is_rejected():
    argv = ("check-sep", "--q", "4", "--n", "6", "--preset", "sq")
    text, code = assert_clean(argv)
    assert check(argv, edit_row(text, "separating", "false"), code).errors
    assert check(argv, text, 1).errors


def test_wrong_witness_is_rejected():
    argv = ("check-sep", "--q", "9", "--n", "4", "--T", "1,3")
    text, code = assert_clean(argv)
    assert code == 1
    row = dict(zip(text.splitlines()[1].split(","), text.splitlines()[2].split(",")))
    a, b = row["witness_a"], row["witness_b"]
    bumped = "|".join(b.split("|")[:-1] + [str(int(b.split("|")[-1]) % 8 + 1)])
    assert check(argv, edit_row(text, "witness_b", bumped), code).errors
    swapped = edit_row(edit_row(text, "witness_a", b), "witness_b", a)
    assert check(argv, swapped, code).errors


def test_wrong_fingerprint_count_is_rejected():
    argv = ("check-sep", "--q", "256", "--n", "2", "--T", "2")
    text, code = assert_clean(argv)
    row = dict(zip(text.splitlines()[1].split(","), text.splitlines()[2].split(",")))
    more = str(int(row["fingerprint_count"]) + 1)
    assert check(argv, edit_row(text, "fingerprint_count", more), code).errors


def test_wrong_minsep_is_rejected():
    argv = ("minsep", "--q", "7", "--n", "5", "--format", "json")
    text, code = assert_clean(argv)
    record = json.loads(text)
    for key, value in (("sq_redundant", None), ("min_size", record["min_size"] + 1),
                       ("witness", "1|2|3|5")):
        assert check(argv, json.dumps(dict(record, **{key: value})) + "\n", code).errors


def test_shifted_bracket_counts_as_failed():
    argv = ("chi-table", "--q-min", "2", "--q-max", "40")
    text, code = assert_clean(argv)
    row = 10 - 2
    lines = text.splitlines()
    cells = lines[2 + row].split(",")
    assert cells[0] == "10"
    shifted = edit_row(edit_row(text, "x0_lo", repr(float(cells[2]) + 1e-9), row),
                       "x0_hi", repr(float(cells[3]) + 1e-9), row)
    report = check(argv, shifted, code)
    assert (report.errors, report.failed, report.ops) == ([], 1, 39)
    assert check(argv, edit_row(text, "chi", "4", row), code).errors


def test_off_by_one_delta_count_is_rejected():
    argv = ("delta3", "--n-min", "2", "--n-max", "300", "--verify")
    text, code = assert_clean(argv)
    summary = text.splitlines()[-1]
    delta0 = int(summary.split("delta0=")[1].split()[0])
    wrong = text.replace(f"delta0={delta0}", f"delta0={delta0 + 1}")
    assert check(argv, wrong, code).errors


def test_wrong_window_kind_is_rejected():
    argv = ("classify3", "--n-min", "9", "--n-max", "100", "--format", "json")
    text, code = assert_clean(argv)
    rows = [json.loads(line) for line in text.splitlines()]
    rows[0]["kind"] = "B" if rows[0]["kind"] != "B" else "A"
    assert check(argv, "".join(json.dumps(r) + "\n" for r in rows), code).errors


def test_golden_verification_is_checked():
    argv = ("chi-table", "--q-min", "2", "--q-max", "200", "--verify-golden")
    text, code = assert_clean(argv)
    assert check(argv, text.replace("count=199", "count=198"), code).errors
