"""sepsym benchmark: run one workload and print one JSON result line.

    python3 bench/run.py --workload scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workloads (bench/workloads.py) are
fixed lists of sepsym CLI invocations. A run

1. starts one fresh worker interpreter that imports sepsym from src/,
   builds every field the workload uses and then repeats whole rounds of
   the invocations for about --seconds seconds;
2. times SETUP_PROBES fresh interpreters, half before and half after the
   worker, from process start until sepsym is imported and every field is
   built (setup_s is their median; skipped with --trace 1);
3. checks the first round's outputs with bench/checker.py, which computes
   everything apart from the program, and requires every later round to
   reproduce them byte for byte;
4. prints {"correct", "attempted", "failed", "metrics"} as the last line.

With --trace 0 the metrics are the end-to-end ones (setup_s, wall_s,
max_cmd_s, peak_rss_mib); with --trace 1 they are the per-layer ones from
bench/layers.py. Every time is given in seconds at the machine's idle
speed, measured against a calibration loop (bench/calibration.py), because
other tenants of a shared machine slow it by up to half for minutes. The
exit code is 0 when a result was printed, 1 when the program or the worker
broke, 2 on bad arguments or a missing source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 21
DEADLINE_S = 170

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import checker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}


class BenchError(Exception):
    """The worker failed or ran out of time; no result can be printed."""


def _remaining(start: float) -> float:
    left = DEADLINE_S - (perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time")
    return left


def probe_setup(fields, start: float) -> float:
    """Seconds from starting an interpreter until it reports sepsym imported and fields built.

    Scaled to the machine's idle speed by the calibration loops run just
    before and after (bench/calibration.py).
    """
    before = calibration.timed()
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), "setup", *map(str, fields)],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.communicate(timeout=_remaining(start))
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed * calibration.REFERENCE_S / min(before, calibration.timed())


def run_worker(workload, seconds: int, trace: bool, start: float) -> dict:
    job = {"invocations": workload.invocations, "fields": workload.fields,
           "seconds": seconds, "trace": trace}
    proc = subprocess.Popen([sys.executable, str(WORKER), "run"], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(json.dumps(job), timeout=_remaining(start))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker timed out")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(out.splitlines()[-1])


def end_to_end(setups, result) -> dict:
    """Set-up as the median probe; each invocation as its median over the rounds.

    Every time is in seconds at the machine's idle speed: the measured time
    times REFERENCE_S over the calibration loop's time beside it.
    """
    rounds = [calibration.reference_seconds(r["times"], r["cals"])
              for r in result["rounds"] if not r["traced"]]
    per_cmd = [statistics.median(times) for times in zip(*rounds)]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": sum(per_cmd),
        "max_cmd_s": max(per_cmd),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = perf_counter()
    if not (ROOT / "src" / "sepsym" / "__init__.py").is_file():
        print(f"error: no sepsym source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.build(args.workload, args.seed)
    try:
        setups = []
        if not args.trace:
            probe_setup(workload.fields, start)  # compiles bytecode; not a sample
            setups = [probe_setup(workload.fields, start) for _ in range(SETUP_PROBES // 2)]
        result = run_worker(workload, args.seconds, bool(args.trace), start)
        if not args.trace:
            setups += [probe_setup(workload.fields, start)
                       for _ in range(SETUP_PROBES - len(setups))]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = checker.check_round(workload.invocations, result["outputs"], result["codes"],
                                 result["moduli"], ROOT)
    if not result["consistent"]:
        report.errors.append("a later round did not reproduce the first round's output")
    if args.trace:
        layers = result["layers"]
        if not layers.pop("counts_repeat"):
            report.errors.append("per-layer counts differ between traced rounds")
        values, units = layers, LAYER_UNITS
    else:
        values, units = end_to_end(setups, result), END_TO_END_UNITS
    for line in report.errors[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    rounds = len(result["rounds"])
    print(json.dumps({
        "correct": not report.errors,
        "attempted": rounds * report.ops,
        "failed": rounds * report.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
