"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/figures.py                              # seeds 1..10, end to end
    python3 bench/figures.py --seeds 11-12 --trace 1      # per-layer metrics

Runs bench/run.py on every workload in BENCHMARK.json, one run at a time
(never in parallel, so runs do not contend for the two cores), with the
run length from BENCHMARK.json. For each workload and metric it prints the
median, the quartiles and their spread (Q3 - Q1 as a share of the median),
and checks that every run was correct and that the share of failed
operations was the same in every run. The raw results go to
bench/results/figures-seeds<seeds>-trace<modes>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return out


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="a seed or a range lo-hi")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="+", default=[0],
                        help="0: end-to-end metrics, 1: per-layer metrics, or both")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = [w["name"] for w in bench["workloads"]]
    report, ok = {}, True
    for workload, trace in ((w, t) for w in names for t in args.trace):
        results = [run_once(workload, seed, bench["run_seconds"], trace)
                   for seed in _seeds(args.seeds)]
        shares = {(r["failed"], r["attempted"]) for r in results}
        same_share = len({f / a for f, a in shares}) == 1
        correct = all(r["correct"] for r in results)
        ok &= same_share and correct
        summary = summarise(results)
        report[f"{workload} trace={trace}"] = {"runs": results, "summary": summary}
        print(f"{workload} trace={trace}: correct={correct} failed/attempted={sorted(shares)} "
              f"same share={same_share}")
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or name == "setup_s" or s["spread"] < bound / 3 else "  WIDE"
            print(f"  {name:26s} median {s['median']:<14.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} spread {s['spread']:.4f}{flag}")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"figures-seeds{args.seeds}-trace{''.join(map(str, args.trace))}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"wrote {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
