import contextlib
import io
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sepsym
from sepsym import chi, cli, f3, gf, separating
from sepsym.errors import NotSeparatingError, ParameterError
from sepsym.exactcount import delta3
from support import naive_defect, scan_chi

# The checkout's src directory, so that child interpreters run the same code.
SRC = str(pathlib.Path(sepsym.__file__).resolve().parents[1])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return env


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out.splitlines()


def json_rows(lines):
    return [json.loads(line) for line in lines if line.startswith("{")]


def _old_cell(value) -> str:
    """The CSV cell as an isinstance chain: the oracle for the writer's type dispatch."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


CELL_VALUES = st.one_of(
    st.none(), st.booleans(),
    st.integers(), st.integers(-10 ** 400, 10 ** 400),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 5e-324, math.inf, -math.inf, math.nan]),
    st.text(), st.sampled_from(['"', '\\', 'a,b', "\u00e9\u2603", "\x00\x1f\x7f", "\n\t", ""]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.text(), CELL_VALUES), max_size=8, unique_by=lambda kv: kv[0]))
def test_writer_rows_equal_the_cell_join_and_json_dumps(pairs):
    columns = tuple(k for k, _ in pairs)
    values = tuple(v for _, v in pairs)
    for fmt, want in (("csv", ",".join(_old_cell(v) for v in values)),
                      ("json", json.dumps(dict(zip(columns, values))))):
        stream = io.StringIO()
        writer = cli.TableWriter(stream, fmt, columns)
        head = stream.getvalue()
        writer.row(values)
        assert stream.getvalue() == head + want + "\n"


class _Writes:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)


# run starts next to 9/10, 99/100, 10^k and the signs, and anywhere
RUN_STARTS = st.one_of(
    st.integers(-1100, 1100), st.integers(-10 ** 30, 10 ** 30),
    st.sampled_from([10 ** k - d for k in (3, 6, 15, 40) for d in (1, 3, 1030)]))


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.text(), CELL_VALUES), max_size=6, unique_by=lambda kv: kv[0]),
       st.text(), RUN_STARTS, st.integers(0, 2 * cli.ROWS_PER_WRITE + 5))
def test_writer_run_equals_its_rows(pairs, first, lo, length):
    # lengths past two chunks, so a run is written in several pieces
    columns = (first, *(k for k, _ in pairs if k != first))
    rest = tuple(v for k, v in pairs if k != first)
    hi = lo + length - 1
    chunk = cli.ROWS_PER_WRITE
    for fmt in ("csv", "json"):
        runs, rows = _Writes(), _Writes()
        run_writer = cli.TableWriter(runs, fmt, columns)
        row_writer = cli.TableWriter(rows, fmt, columns)
        assert runs.writes == rows.writes
        runs.writes, rows.writes = [], []
        run_writer.rows(lo, hi, rest)
        for n in range(lo, hi + 1):
            row_writer.row((n, *rest))
        # row writes each row at once, rows them in pieces of ROWS_PER_WRITE
        assert len(rows.writes) == length
        assert runs.writes == ["".join(rows.writes[i:i + chunk]) for i in range(0, length, chunk)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.text(), max_size=6, unique=True),
       st.lists(st.lists(CELL_VALUES, min_size=6, max_size=6), min_size=1, max_size=5),
       st.integers(0, 2 * cli.ROWS_PER_WRITE + 5))
def test_writer_table_equals_the_cell_join_and_json_dumps(columns, pool, length):
    # columns of one type and of mixed types, in tables past two chunks
    columns = tuple(columns)
    rows = [tuple(pool[i * i % len(pool)][:len(columns)]) for i in range(length)]
    chunk = cli.ROWS_PER_WRITE
    for fmt in ("csv", "json"):
        stream = _Writes()
        writer = cli.TableWriter(stream, fmt, columns)
        stream.writes = []
        assert writer.table(iter(rows)) == length
        if fmt == "csv":
            want = [",".join(_old_cell(v) for v in row) + "\n" for row in rows]
        else:
            want = [json.dumps(dict(zip(columns, row))) + "\n" for row in rows]
        assert stream.writes == ["".join(want[i:i + chunk]) for i in range(0, length, chunk)]


def test_import_loads_no_process_pool():
    # the pool's import cost a third of sepsym's import time; dataclasses
    # would load inspect, and inspect ast, dis and tokenize
    code = ("import sys, sepsym, sepsym.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing', 'dataclasses', 'inspect')))")
    out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_gamma_csv(capsys):
    rc, lines = run(capsys, "gamma", "--q", "3", "--n", "5")
    assert rc == 0
    assert lines[0] == "# sepsym-table v1"
    assert lines[1] == "q,n,orbits,gamma,size_s,size_sq,delta"
    assert lines[2] == "3,5,21,3,5,3,0"


def test_gamma_refuses_an_orbit_count_too_long_to_print(capsys, tmp_path):
    # Python converts an int of at most get_int_max_str_digits() digits to
    # text; binom(53000, 3000) has 5,005
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        for fmt in ("csv", "json"):
            rc = cli.main(["gamma", "--q", "3001", "--n", "50000", "--format", fmt])
            captured = capsys.readouterr()
            assert (rc, captured.out) == (2, "")
            assert captured.err.startswith("error: ") and "4300 digits" in captured.err
        out = tmp_path / "gamma.csv"
        out.write_text("kept\n")
        assert cli.main(["gamma", "--q", "3001", "--n", "50000", "--out", str(out)]) == 2
        assert out.read_text() == "kept\n"
        # at q = 3 the count (n+1)(n+2)/2 reaches 10**640 between n and n + 1
        sys.set_int_max_str_digits(640)
        n = math.isqrt(2 * 10 ** 640) - 2
        while (n + 2) * (n + 3) // 2 < 10 ** 640:
            n += 1
        rc, lines = run(capsys, "gamma", "--q", "3", "--n", str(n))
        assert rc == 0 and lines[2].split(",")[2] == str((n + 1) * (n + 2) // 2)
        assert run(capsys, "gamma", "--q", "3", "--n", str(n + 1)) == (2, [])
    finally:
        sys.set_int_max_str_digits(limit)


def test_gamma_refuses_at_the_digit_limit_on_the_diagonal(capsys):
    # q = n + 1: the digit bound is inconclusive near the limit, so the exact
    # comparison decides; binom(2n, n) reaches 10**640 between n and n + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        n = 1000
        while math.comb(2 * n + 2, n + 1) < 10 ** 640:
            n += 1
        count = math.comb(2 * n, n)
        assert 10 ** 639 <= count < 10 ** 640 <= math.comb(2 * n + 2, n + 1)
        rc, lines = run(capsys, "gamma", "--q", str(n + 1), "--n", str(n))
        assert rc == 0 and lines[2].split(",")[2] == str(count)
        assert run(capsys, "gamma", "--q", str(n + 2), "--n", str(n + 1)) == (2, [])
    finally:
        sys.set_int_max_str_digits(limit)


def _gamma_exit(q, n):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["gamma", "--q", str(q), "--n", str(n)])
    return rc, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 4000), st.integers(1, 4000), st.integers(640, 6000))
def test_gamma_refuses_exactly_the_counts_too_long_to_print(q, n, limit):
    too_long = math.comb(n + q - 1, n) >= 10 ** limit
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        rc, out, err = _gamma_exit(q, n)
    finally:
        sys.set_int_max_str_digits(saved)
    assert (rc, out == "", err.startswith("error: ")) == ((2, True, True) if too_long
                                                         else (0, False, False))


def test_gamma_beyond_float_range():
    # counts of 401 digits print; one with about 10^403 digits is refused at once
    big = 10 ** 400
    for q, n, orbits in ((2, big, big + 1), (big, 1, big)):
        rc, out, _ = _gamma_exit(q, n)
        assert (rc, out.splitlines()[2].split(",")[2]) == (0, str(orbits))
    assert _gamma_exit(big, big)[:2] == (2, "")


@pytest.mark.parametrize("q, n", [(100003, 100000), (10 ** 8, 10 ** 8)])
def test_gamma_refuses_before_counting_as_a_process(tmp_path, q, n):
    # the counts have about 60,000 and 6*10^7 digits: counting them took 0.9 s
    # and more than 10 s
    target = tmp_path / "gamma.csv"
    target.write_text("kept\n")
    for out in ([], ["--out", str(target)]):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "sepsym", "gamma", "--q", str(q),
                               "--n", str(n), *out],
                              capture_output=True, text=True, timeout=60, env=child_env())
        assert time.perf_counter() - t0 < 0.5
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and "digits" in proc.stderr
    assert target.read_text() == "kept\n"


def test_gamma_non_prime_power(capsys):
    rc, lines = run(capsys, "gamma", "--q", "6", "--n", "4")
    assert rc == 0
    assert lines[2] == "6,4,126,3,,,"
    rc, _ = run(capsys, "gamma", "--q", "1", "--n", "4")
    assert rc == 2


def test_chi_json(capsys):
    rc, lines = run(capsys, "chi", "--q", "2", "--format", "json")
    assert rc == 0
    row = json_rows(lines)[0]
    assert row["q"] == 2
    assert row["chi"] == 2
    assert row["x0_is_integer"] is True
    assert row["x0_lo"] < 3 < row["x0_hi"]


def test_chi_q_cap(capsys):
    assert cli.MAX_CHI_Q == 10 ** 15
    rc, lines = run(capsys, "chi", "--q", str(cli.MAX_CHI_Q))
    assert rc == 0
    assert lines[2].startswith(f"{cli.MAX_CHI_Q},17,")
    rc, lines = run(capsys, "chi", "--q", str(cli.MAX_CHI_Q + 1))
    assert rc == 2
    assert lines == []


def test_chi_table_rows(capsys):
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "6")
    assert rc == 0
    assert lines[1] == "q,chi,x0_lo,x0_hi,x0_is_integer,lnln_floor"
    assert len(lines) == 7
    assert lines[2].startswith("2,2,")
    assert lines[3].startswith("3,3,")


def test_records_are_their_rows(capsys):
    # the CLI writes a ChiRecord or an F3Class as it is: field i is column i
    assert chi.ChiRecord._fields == tuple("lower_bound" if c == "lnln_floor" else c
                                          for c in cli.CHI_COLUMNS)
    rc, lines = run(capsys, "classify3", "--n-min", "9", "--n-max", "9")
    assert rc == 0
    assert f3.F3Class._fields == tuple("predicted_delta" if c == "delta_predicted" else c
                                       for c in lines[1].split(","))
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "40", "--format", "json")
    assert rc == 0
    assert json_rows(lines) == [dict(zip(cli.CHI_COLUMNS, rec)) for rec in chi.chi_table(2, 40)]


@pytest.mark.parametrize("lo, hi", [(2, 2 * 10 ** 4), (9 * 10 ** 5, 10 ** 6)])
def test_chi_table_bytes_equal_per_record_rows(capsys, lo, hi):
    # the batched, per-column writer against each record formatted on its own
    records = chi.chi_table(lo, hi)
    header = [cli.SCHEMA_TAG, ",".join(cli.CHI_COLUMNS)]
    want = {"csv": header + [",".join(_old_cell(v) for v in rec) for rec in records],
            "json": [json.dumps(dict(zip(cli.CHI_COLUMNS, rec))) for rec in records]}
    for fmt, lines in want.items():
        rc = cli.main(["chi-table", "--q-min", str(lo), "--q-max", str(hi), "--format", fmt])
        assert (rc, capsys.readouterr().out) == (0, "\n".join(lines) + "\n")


def test_chi_table_verify_golden_ok(capsys):
    want = {"csv": f"{cli.SCHEMA_TAG}\n# verified=true q_min=2 q_max=120 count=119\n",
            "json": '{"verified": true, "q_min": 2, "q_max": 120, "count": 119}\n'}
    for fmt, text in want.items():
        rc = cli.main(["chi-table", "--q-min", "2", "--q-max", "120", "--verify-golden",
                       "--format", fmt])
        assert (rc, capsys.readouterr().out) == (0, text)


def test_chi_table_verify_golden_coverage(capsys):
    rc, _ = run(capsys, "chi-table", "--q-min", "2", "--q-max", "20000",
                "--verify-golden")
    assert rc == 2


def test_chi_table_verify_golden_mismatch(capsys, monkeypatch):
    # q = 3 lies in no range: a mismatch with an empty expected cell; q = 4 matches
    monkeypatch.setattr(cli, "_load_golden_ranges", lambda: [(2, 2, 9), (4, 10000, 3)])
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "4",
                    "--verify-golden")
    assert rc == 1
    assert lines[2:4] == ["2,9,2", "3,,3"]
    assert lines[4] == "# verified=false mismatches=2"


# gaps (q in no range), wrong values across chi's steps at 18 and 110, ranges
# that start before q_min or end past q_max, and an unsorted table
@pytest.mark.parametrize("ranges, q_min, q_max", [
    ([(2, 2, 9), (4, 20, 3), (25, 10000, 4)], 2, 30),
    ([(2, 18, 3), (19, 109, 4), (110, 704, 5)], 3, 200),
    ([(110, 704, 4), (2, 50, 3)], 10, 120),
    ([(2, 10000, 3)], 17, 19),
    ([(2, 100, 3), (200, 300, 5)], 150, 160),
])
def test_verify_golden_runs_equal_a_per_q_lookup(capsys, monkeypatch, ranges, q_min, q_max):
    monkeypatch.setattr(cli, "_load_golden_ranges", lambda: ranges)
    golden = {q: c for lo, hi, c in ranges for q in range(lo, hi + 1)}
    rows = [f"{q},{'' if golden.get(q) is None else golden[q]},{c}"
            for q, c in ((q, scan_chi(q)) for q in range(q_min, q_max + 1))
            if c != golden.get(q)]
    rc, lines = run(capsys, "chi-table", "--q-min", str(q_min), "--q-max", str(q_max),
                    "--verify-golden")
    assert rows
    assert (rc, lines[2:]) == (1, rows + [f"# verified=false mismatches={len(rows)}"])


def test_verify_golden_criterion_calls(capsys, monkeypatch):
    # chi(10^4) = 7: two exact criterion tests for each of the edges Q_3, ..., Q_8
    calls = []
    criterion = chi.least_possible_criterion
    monkeypatch.setattr(chi, "least_possible_criterion",
                        lambda q, n: calls.append((q, n)) or criterion(q, n))
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "10000", "--verify-golden")
    assert (rc, lines[-1]) == (0, "# verified=true q_min=2 q_max=10000 count=9999")
    assert len(calls) == 2 * (7 - 1)
    assert chi.chi_exact(10 ** 4) == 7


def test_chi_table_range_validation(capsys):
    rc, _ = run(capsys, "chi-table", "--q-min", "9", "--q-max", "4")
    assert rc == 2
    rc, _ = run(capsys, "chi-table", "--q-min", "2", "--q-max", str(10 ** 7))
    assert rc == 2


def test_jobs_keep_output(capsys, monkeypatch):
    table = ("chi-table", "--q-min", "2", "--q-max", "60")
    assert run(capsys, *table, "--jobs", "2") == run(capsys, *table, "--jobs", "1")
    golden = table + ("--verify-golden",)
    rc, lines = run(capsys, *golden, "--jobs", "2")
    assert rc == 0
    assert (rc, lines) == run(capsys, *golden, "--jobs", "1")
    # --jobs is the only worker-count setting; the environment is not read
    monkeypatch.setenv("SEPSYM_JOBS", "zero")
    rc, _ = run(capsys, *table)
    assert rc == 0


def test_jobs_flag_validation(capsys):
    rc, _ = run(capsys, "chi-table", "--q-min", "2", "--q-max", "10",
                "--jobs", "0")
    assert rc == 2


def test_delta3_rows(capsys):
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "12")
    assert rc == 0
    assert lines[1] == "n,delta_exact,delta_predicted,kind"
    assert lines[2] == "2,0,0,-"
    assert lines[9] == "9,1,1,A"
    assert lines[12] == "12,0,0,B"
    assert lines[-1] == "# delta0=8 delta1=3"


def test_delta3_verify_ok(capsys):
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "500", "--verify")
    assert rc == 0
    assert any("verified=true" in line for line in lines)


def test_delta3_verify_mismatch(capsys, monkeypatch):
    # the CLI reads the prediction runs; zero their predictions, keep their kinds
    runs = f3.prediction_runs
    monkeypatch.setattr(f3, "prediction_runs",
                        lambda lo, hi: ((a, b, kind, 0) for a, b, kind, _ in runs(lo, hi)))
    rc, lines = run(capsys, "delta3", "--n-min", "9", "--n-max", "11", "--verify")
    assert rc == 1
    assert any("mismatches=3" in line for line in lines)
    # the kind column of a mismatch row comes from the prediction run
    assert lines[2:5] == ["9,1,0,A", "10,1,0,A", "11,1,0,A"]


def _flipped(runs, x, y):
    """The prediction runs with the prediction flipped on [x, y], cut at x and y + 1."""
    for lo, hi, kind, p in runs:
        for a, b, flip in ((lo, min(hi, x - 1), False), (max(lo, x), min(hi, y), True),
                           (max(lo, y + 1), hi, False)):
            if a <= b:
                yield a, b, kind, 1 - p if flip else p


@pytest.mark.parametrize("x, y", [(5, 14), (20, 40), (9, 9), (26, 28)])
def test_delta3_verify_mismatch_across_run_boundaries(capsys, monkeypatch, x, y):
    # [5, 14] crosses the exact runs' edge at 9 and the windows' at 9 and 12;
    # each mismatch row must be the per-n row
    rows = [f"{n},{delta3(n)},{1 - f3.predicted_delta3(n)},"
            f"{f3.classify3(n).kind if n >= 9 else '-'}" for n in range(x, y + 1)]
    exact = [delta3(n) for n in range(2, 61)]
    runs = f3.prediction_runs
    monkeypatch.setattr(f3, "prediction_runs", lambda lo, hi: _flipped(runs(lo, hi), x, y))
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "60", "--verify")
    assert rc == 1
    assert lines == [cli.SCHEMA_TAG, "n,delta_exact,delta_predicted,kind", *rows,
                     f"# delta0={exact.count(0)} delta1={exact.count(1)} verified=false "
                     f"mismatches={y - x + 1}"]


def test_delta3_verify_reach_1e100(capsys):
    # in O(runs): about 830 runs per side, whatever the length of the range
    t0 = time.perf_counter()
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", str(10 ** 100), "--verify")
    assert time.perf_counter() - t0 < 1.0
    assert rc == 0
    summary = dict(kv.split("=") for kv in lines[-1][2:].split())
    assert int(summary["delta0"]) + int(summary["delta1"]) == 10 ** 100 - 1
    assert (summary["verified"], summary["mismatches"]) == ("true", "0")


def test_delta3_verify_reach_1e6(capsys):
    # ten times the exhaustive range of acceptance criterion 2, in about a second
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "1000000", "--verify")
    assert rc == 0
    assert lines == [cli.SCHEMA_TAG, "n,delta_exact,delta_predicted,kind",
                     "# delta0=550389 delta1=449610 verified=true mismatches=0"]


def test_delta3_and_classify3_rows_match_oracles(capsys):
    classes = {n: f3.classify3(n) for n in range(9, 3001)}
    exact = [naive_defect(3, n) for n in range(2, 3001)]
    rows = [f"{n},{d},{classes[n].predicted_delta if n >= 9 else 0},"
            f"{classes[n].kind if n >= 9 else '-'}" for n, d in zip(range(2, 3001), exact)]
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "3000")
    assert rc == 0
    assert lines == [cli.SCHEMA_TAG, "n,delta_exact,delta_predicted,kind", *rows,
                     f"# delta0={exact.count(0)} delta1={exact.count(1)}"]
    rc, lines = run(capsys, "classify3", "--n-min", "9", "--n-max", "3000", "--format", "json")
    assert rc == 0
    assert lines == [json.dumps({"n": c.n, "r": c.r, "kind": c.kind, "alpha": c.alpha,
                                 "beta": c.beta, "delta": c.delta,
                                 "delta_predicted": c.predicted_delta})
                     for c in classes.values()]


def test_ternary_runs_equal_per_n_rows(capsys, tmp_path):
    # across 3^9, past several ROWS_PER_WRITE chunks, against per-n oracle rows
    ns = range(3 ** 9 - 50, 3 ** 9 + 5001)
    classes = [f3.classify3(n) for n in ns]
    exact = [naive_defect(3, n) for n in ns]
    tables = {
        "delta3": (("n", "delta_exact", "delta_predicted", "kind"),
                   [(n, d, c.predicted_delta, c.kind) for n, d, c in zip(ns, exact, classes)],
                   {"delta0": exact.count(0), "delta1": exact.count(1)}),
        "classify3": (("n", "r", "kind", "alpha", "beta", "delta", "delta_predicted"),
                      classes, None),
    }
    for command, (columns, rows, summary) in tables.items():
        for fmt in ("csv", "json"):
            if fmt == "csv":
                want = [cli.SCHEMA_TAG, ",".join(columns), *(",".join(map(_old_cell, row))
                                                            for row in rows)]
                if summary:
                    want.append("# " + " ".join(f"{k}={v}" for k, v in summary.items()))
            else:
                want = [json.dumps(dict(zip(columns, row))) for row in rows]
                if summary:
                    want.append(json.dumps(summary))
            argv = (command, "--n-min", str(ns[0]), "--n-max", str(ns[-1]), "--format", fmt)
            assert run(capsys, *argv) == (0, want)
            target = tmp_path / f"{command}.{fmt}"
            assert run(capsys, *argv, "--out", str(target)) == (0, [])
            assert target.read_text() == "\n".join(want) + "\n"


def test_ternary_tables_write_runs_not_rows(capsys, monkeypatch):
    # a return to one row call or one F3Class per n fails here
    calls = []
    row, f3_class = cli.TableWriter.row, f3.F3Class
    monkeypatch.setattr(cli.TableWriter, "row",
                        lambda self, values: calls.append("row") or row(self, values))
    monkeypatch.setattr(f3, "F3Class",
                        lambda *fields: calls.append("F3Class") or f3_class(*fields))
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "200000")
    assert (rc, len(lines)) == (0, 200002)
    rc, lines = run(capsys, "classify3", "--n-min", "9", "--n-max", "200000")
    assert (rc, len(lines)) == (0, 199994)
    runs = f3.prediction_runs
    monkeypatch.setattr(f3, "prediction_runs",
                        lambda lo, hi: _flipped(runs(lo, hi), 2187, 3091))  # window A at r = 7
    rc, lines = run(capsys, "delta3", "--n-min", "2", "--n-max", "200000", "--verify")
    assert (rc, len(lines)) == (1, 2 + 905 + 1)
    assert lines[-1].endswith("verified=false mismatches=905")
    assert calls == []


def test_delta3_validation(capsys):
    rc, _ = run(capsys, "delta3", "--n-min", "1", "--n-max", "5")
    assert rc == 2


def test_classify3_single(capsys):
    rc, lines = run(capsys, "classify3", "--n-min", "20", "--n-max", "20", "--format", "json")
    assert rc == 0
    row = json_rows(lines)[0]
    assert row["kind"] == "D"
    assert row["delta_predicted"] == 1


def test_classify3_range(capsys):
    rc, lines = run(capsys, "classify3", "--n-min", "9", "--n-max", "12")
    assert rc == 0
    assert len(lines) == 6
    assert lines[2].startswith("9,2,A,")


def test_classify3_usage(capsys):
    rc, _ = run(capsys, "classify3")
    assert rc == 2
    rc, _ = run(capsys, "classify3", "--n-min", "9")
    assert rc == 2
    rc, _ = run(capsys, "classify3", "--n-min", "8", "--n-max", "8")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("classify3", "--n-min", "5", "--n-max", "12"),
    ("classify3", "--n-min", "12", "--n-max", "9"),
    ("orbits", "--q", "3", "--n", "0"),
    ("chi", "--q", "1"),
])
def test_usage_error_prints_no_table(capsys, tmp_path, argv):
    rc, lines = run(capsys, *argv)
    assert rc == 2
    assert lines == []
    # a usage error leaves the --out file as it was, neither created nor emptied
    target = tmp_path / "table.csv"
    rc, _ = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert not target.exists()
    target.write_text("kept\n")
    rc, _ = run(capsys, *argv, "--out", str(target))
    assert rc == 2
    assert target.read_text() == "kept\n"


def test_check_sep_preset(capsys):
    rc, lines = run(capsys, "check-sep", "--q", "4", "--n", "6", "--preset", "sq",
                    "--format", "json")
    assert rc == 0
    row = json_rows(lines)[0]
    assert row["separating"] is True
    assert row["T"] == "1|2|3|4|6"
    assert row["orbit_count"] == row["fingerprint_count"] == 84


# Cells of 0.5 to 2.8 million orbits, which the slice decides without a
# walk over every orbit; no time is asserted, and the orbit bound is unchanged.
@pytest.mark.parametrize("q,n", [(256, 3), (64, 4), (1024, 2)])
def test_check_sep_preset_reaches_wide_cells(capsys, q, n):
    rc, lines = run(capsys, "check-sep", "--q", str(q), "--n", str(n), "--preset", "sq",
                    "--format", "json")
    assert rc == 0
    row = json_rows(lines)[0]
    assert row["separating"] is True
    assert row["orbit_count"] == row["fingerprint_count"] == math.comb(n + q - 1, q - 1)


def test_check_sep_failure_exit(capsys):
    rc, lines = run(capsys, "check-sep", "--q", "2", "--n", "3", "--T", "1")
    assert rc == 1
    assert "2,3,1,false,4,2,0|0|0,0|1|1" in lines


def test_check_sep_usage(capsys):
    rc, _ = run(capsys, "check-sep", "--q", "2", "--n", "3")
    assert rc == 2
    rc, _ = run(capsys, "check-sep", "--q", "2", "--n", "3", "--T", "1,x")
    assert rc == 2
    rc, _ = run(capsys, "check-sep", "--q", "2", "--n", "3", "--T", "7")
    assert rc == 2
    rc, _ = run(capsys, "check-sep", "--q", "6", "--n", "3", "--T", "1")
    assert rc == 2


def test_a_command_factors_q_once(capsys):
    # gamma asks again through size_sq, check-sep --preset sq through
    # index_set_nq: both repeats are cache hits
    for argv in (("gamma", "--q", "1000003", "--n", "3"),
                 ("check-sep", "--q", "1024", "--n", "2", "--preset", "sq")):
        gf.prime_power.cache_clear()
        assert run(capsys, *argv)[0] == 0
        assert gf.prime_power.cache_info().misses == 1


def test_check_sep_refuses_a_large_order_unfactored(capsys, monkeypatch):
    monkeypatch.setattr(gf, "prime_power", lambda q: pytest.fail(f"prime_power({q}) called"))
    rc = cli.main(["check-sep", "--q", str(10 ** 15 + 37), "--n", "2", "--preset", "sq"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (2, "")
    assert captured.err == "error: field order 1000000000000037 exceeds the bound 1024\n"


def test_minsep(capsys):
    rc, lines = run(capsys, "minsep", "--q", "2", "--n", "3")
    assert rc == 0
    assert lines[1] == "q,n,min_size,gamma,equals_gamma,witness,sq_size,sq_redundant"
    assert lines[2] == "2,3,2,2,true,1|2,2,"


def test_minsep_scaled_set_not_separating(capsys, monkeypatch):
    # No grid cell reaches this branch: every scaled set there separates.
    rc, lines = run(capsys, "minsep", "--q", "7", "--n", "5")
    assert (rc, lines[2]) == (0, "7,5,4,4,true,1|2|3|4,5,5")

    def refuse(*args, **kwargs):
        raise NotSeparatingError("minimality is defined only for separating sets")

    monkeypatch.setattr(separating, "check_minimal", refuse)
    rc, lines = run(capsys, "minsep", "--q", "7", "--n", "5")
    assert (rc, lines[2]) == (0, "7,5,4,4,true,1|2|3|4,5,")
    rc, lines = run(capsys, "minsep", "--q", "7", "--n", "5", "--format", "json")
    assert rc == 0
    assert json_rows(lines)[0]["sq_redundant"] is None

    # any other parameter error is still a usage error
    def reject(*args, **kwargs):
        raise ParameterError("bad index set")

    monkeypatch.setattr(separating, "check_minimal", reject)
    rc, _ = run(capsys, "minsep", "--q", "7", "--n", "5")
    assert rc == 2


def test_minsep_walks_once(capsys, monkeypatch):
    walks = []
    walk = separating._orbit_batches

    def counted(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(separating, "_orbit_batches", counted)
    separating._slices.cache_clear()
    rc, lines = run(capsys, "minsep", "--q", "8", "--n", "5")
    assert (rc, lines[2]) == (0, "8,5,4,4,true,1|2|3|4,5,5")
    assert len(walks) == 1


@pytest.mark.parametrize("fault, message", [
    ("drop_last", "the slice rebuilds 81 orbits, not 84"),
    ("no_witness", "32 fingerprints for 84 orbits, but no collision found"),
], ids=["drop_last", "no_witness"])
def test_an_internal_fault_exits_4(capsys, monkeypatch, fault, message):
    # a failed internal check is a bug: neither a failed verification (1) nor
    # a usage error (2)
    if fault == "drop_last":
        walk = separating._orbit_batches
        monkeypatch.setattr(separating, "_orbit_batches",
                            lambda *args: [list(itertools.chain.from_iterable(walk(*args)))[:-1]])
    else:
        monkeypatch.setattr(separating, "_first_collision", lambda *args: None)
    rc = cli.main(["check-sep", "--q", "4", "--n", "6", "--T", "1,2,3"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (cli.EXIT_INTERNAL, "")
    assert cli.EXIT_INTERNAL == 4
    assert captured.err == f"error: internal: {message}\n"


def test_orbits(capsys):
    rc, lines = run(capsys, "orbits", "--q", "2", "--n", "3")
    assert rc == 0
    assert lines[2:6] == ["0|0|0", "0|0|1", "0|1|1", "1|1|1"]
    assert lines[6] == "# count=4"


def test_orbit_bound(capsys):
    # binom(1026, 3) > 10^7 orbits: refused before the first row
    rc, lines = run(capsys, "orbits", "--q", "1024", "--n", "3")
    assert (rc, lines) == (2, [])


def test_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    rc, lines = run(capsys, "chi", "--q", "5", "--out", str(target))
    assert rc == 0
    assert lines == []
    content = target.read_text().splitlines()
    assert content[0] == "# sepsym-table v1"
    assert content[2].startswith("5,3,")


def test_parser_is_built_once(capsys, monkeypatch, tmp_path):
    builds = []
    build = cli._build_parser
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", lambda: builds.append(1) or build())
    target = tmp_path / "chi.csv"
    # a usage error, then good calls: the second with --out, the third without
    assert cli.main(["chi", "--q"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "usage:" in err
    rc, lines = run(capsys, "chi", "--q", "5", "--out", str(target))
    assert (rc, lines) == (0, [])
    written = target.read_text()
    rc, lines = run(capsys, "chi", "--q", "5")
    assert rc == 0
    assert "\n".join(lines) + "\n" == written
    assert target.read_text() == written
    rc, lines = run(capsys, "gamma", "--q", "2", "--n", "2")
    assert (rc, lines[2]) == (0, "2,2,3,2,2,2,0")
    assert len(builds) == 1


def test_no_command(capsys):
    assert cli.main([]) == 2


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sepsym", "gamma",
                           "--q", "2", "--n", "2"],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "2,2,3,2,2,2,0" in proc.stdout


def test_closed_pipe_exits_quietly():
    # 54,264 rows overflow the pipe buffer, so the write after close must fail
    proc = subprocess.Popen([sys.executable, "-m", "sepsym", "orbits",
                             "--q", "16", "--n", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env())
    assert proc.stdout.readline() == b"# sepsym-table v1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == cli.EXIT_PIPE_CLOSED == 141
    assert stderr == b""


def test_unwritable_out_path(tmp_path):
    target = tmp_path / "missing" / "dir" / "x.csv"
    proc = subprocess.run([sys.executable, "-m", "sepsym", "gamma",
                           "--q", "3", "--n", "5", "--out", str(target)],
                          capture_output=True, text=True, timeout=60, env=child_env())
    assert proc.returncode == cli.EXIT_IO == 3
    assert proc.stderr.startswith("error: ")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
