"""The benchmark's invocations against the CLI's parser.

An option the CLI drops but a workload still passes would show up only as
failed operations in a benchmark run; this test fails first.
"""

import json
import pathlib

import pytest

from sepsym import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_every_workload_invocation_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    argvs = [argv for name in names for seed in (1, 2)
             for argv in workloads.build(name, seed).invocations]
    assert argvs
    parser = cli._build_parser()
    for argv in argvs:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"sepsym {' '.join(argv)} no longer parses")
