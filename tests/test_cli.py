import json
import subprocess
import sys

import pytest

from sepsym import cli, f3


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out.splitlines()


def json_rows(lines):
    return [json.loads(line) for line in lines if line.startswith("{")]


def test_gamma_csv(capsys):
    rc, lines = run(capsys, "gamma", "--q", "3", "--n", "5")
    assert rc == 0
    assert lines[0] == "# sepsym-table v1"
    assert lines[1] == "q,n,orbits,gamma,size_s,size_sq,delta"
    assert lines[2] == "3,5,21,3,5,3,0"


def test_gamma_non_prime_power(capsys):
    rc, lines = run(capsys, "gamma", "--q", "6", "--n", "4")
    assert rc == 0
    assert lines[2] == "6,4,126,3,,,"
    rc, _ = run(capsys, "gamma", "--q", "6", "--n", "4", "--with-sq")
    assert rc == 2


def test_chi_json(capsys):
    rc, lines = run(capsys, "chi", "--q", "2", "--format", "json")
    assert rc == 0
    row = json_rows(lines)[0]
    assert row["q"] == 2
    assert row["chi"] == 2
    assert row["x0_is_integer"] is True
    assert row["x0_lo"] < 3 < row["x0_hi"]


def test_chi_table_rows(capsys):
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "6")
    assert rc == 0
    assert lines[1] == "q,chi,x0_lo,x0_hi,x0_is_integer,lnln_floor"
    assert len(lines) == 7
    assert lines[2].startswith("2,2,")
    assert lines[3].startswith("3,3,")


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


def test_chi_table_range_validation(capsys):
    rc, _ = run(capsys, "chi-table", "--q-min", "9", "--q-max", "4")
    assert rc == 2
    rc, _ = run(capsys, "chi-table", "--q-min", "2", "--q-max", str(10 ** 7))
    assert rc == 2


def test_jobs_environment(capsys, monkeypatch):
    monkeypatch.setenv("SEPSYM_JOBS", "2")
    rc, lines = run(capsys, "chi-table", "--q-min", "2", "--q-max", "30",
                    "--verify-golden")
    assert rc == 0
    monkeypatch.setenv("SEPSYM_JOBS", "zero")
    rc, _ = run(capsys, "chi-table", "--q-min", "2", "--q-max", "30")
    assert rc == 2


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
    monkeypatch.setattr(f3, "predicted_delta3", lambda n: 0)
    rc, lines = run(capsys, "delta3", "--n-min", "9", "--n-max", "11", "--verify")
    assert rc == 1
    assert any("mismatches=3" in line for line in lines)


def test_delta3_validation(capsys):
    rc, _ = run(capsys, "delta3", "--n-min", "1", "--n-max", "5")
    assert rc == 2


def test_classify3_single(capsys):
    rc, lines = run(capsys, "classify3", "--n", "20", "--format", "json")
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
    rc, _ = run(capsys, "classify3", "--n", "8")
    assert rc == 2


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


def test_orbits(capsys):
    rc, lines = run(capsys, "orbits", "--q", "2", "--n", "3")
    assert rc == 0
    assert lines[2:6] == ["0|0|0", "0|0|1", "0|1|1", "1|1|1"]
    assert lines[6] == "# count=4"


def test_orbit_bound(capsys):
    rc, _ = run(capsys, "orbits", "--q", "3", "--n", "9", "--orbit-bound", "10")
    assert rc == 2


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
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "2,2,3,2,2,2,0" in proc.stdout


def test_closed_pipe_exits_quietly():
    # 54,264 rows overflow the pipe buffer, so the write after close must fail
    proc = subprocess.Popen([sys.executable, "-m", "sepsym", "orbits",
                             "--q", "16", "--n", "6"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
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
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == cli.EXIT_IO == 3
    assert proc.stderr.startswith("error: ")
    assert str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
