import io
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
from sepsym import chi, cli, f3, separating
from sepsym.errors import NotSeparatingError, ParameterError
from sepsym.exactcount import delta3
from support import naive_defect

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


def test_chi_table_verify_golden_ok(capsys):
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "120",
                    "--verify-golden")
    assert rc == 0
    assert any("verified=true" in line for line in lines)


def test_chi_table_verify_golden_coverage(capsys):
    rc, _ = run(capsys, "chi-table", "--q-min", "2", "--q-max", "20000",
                "--verify-golden")
    assert rc == 2


def test_chi_table_verify_golden_mismatch(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_load_golden_ranges", lambda: [(2, 10000, 9)])
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "4",
                    "--verify-golden")
    assert rc == 1
    assert "2,9,2" in lines
    assert any("mismatches=3" in line for line in lines)


def test_golden_walk_follows_q_across_gaps():
    ranges = [(2, 5, 2), (10, 20, 3), (21, 21, 4)]
    want = [next((c for lo, hi, c in ranges if lo <= q <= hi), None) for q in range(1, 26)]
    assert list(cli._golden_chi(range(1, 26), ranges)) == want
    assert want[:11] == [None, 2, 2, 2, 2, None, None, None, None, 3, 3]


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
    separating._value_rows.cache_clear()
    rc, lines = run(capsys, "minsep", "--q", "8", "--n", "5")
    assert (rc, lines[2]) == (0, "8,5,4,4,true,1|2|3|4,5,5")
    assert len(walks) == 1


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
