"""The benchmark's invocations and its tracer against the program.

An option the CLI drops but a workload still passes would show up only as
failed operations in a benchmark run, and a function renamed under the
tracer only as a broken traced run; these tests fail first.
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


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import layers

    from sepsym import exactcount, f3

    originals = (cli.main, exactcount.size_sq, f3.floor_log, f3.delta_small_of)
    tracer = layers.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert (cli.main, exactcount.size_sq, f3.floor_log, f3.delta_small_of) == originals
