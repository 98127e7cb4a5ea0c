"""Run one workload's sepsym CLI invocations in this fresh interpreter.

Two modes, both started by bench/run.py:

    worker.py setup Q...   import sepsym from the checkout's src/, build the
                           fields F_Q, print "ready" and exit. run.py times
                           this from process start as the set-up time.
    worker.py run          read a job (JSON on stdin), set up, then repeat
                           whole rounds of the invocations until the time is
                           used, and print one JSON result line.

Each invocation goes through ``sepsym.cli.main`` with stdout captured, and
is timed between two runs of the calibration loop (bench/calibration.py).
Only the first round's outputs are returned; later rounds must reproduce
them byte for byte. In a traced run, untraced and traced rounds alternate,
so the tracing overhead is measured on the same inputs.
"""

import contextlib
import hashlib
import io
import json
import os
import statistics
import sys
from time import perf_counter

import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)


def set_up(fields):
    import sepsym
    from sepsym import gf

    if os.path.dirname(os.path.abspath(sepsym.__file__)) != os.path.join(SRC, "sepsym"):
        raise SystemExit(f"sepsym imported from {sepsym.__file__}, not from {SRC}")
    return {q: list(gf.field_for_order(q).modulus) for q in fields}


def run_round(cli, invocations):
    """(times, calibrations, outputs, codes); each calibration is the faster loop beside its invocation."""
    times, cals, outputs, codes = [], [], [], []
    before = calibration.timed()
    for argv in invocations:
        buf = io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
        times.append(perf_counter() - t0)
        after = calibration.timed()
        cals.append(min(before, after))
        before = after
        outputs.append(buf.getvalue())
        codes.append(code)
    return times, cals, outputs, codes


def digest(outputs, codes) -> str:
    h = hashlib.sha256()
    for text, code in zip(outputs, codes):
        h.update(f"{code}\n{len(text)}\n".encode())
        h.update(text.encode())
    return h.hexdigest()


def run(job):
    invocations, seconds, traced = job["invocations"], job["seconds"], job["trace"]
    tracer = build = None
    if traced:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        before = calibration.timed()
    moduli = set_up(job["fields"])
    from sepsym import cli

    if tracer:
        cal = min(before, calibration.timed())
        build = tracer.inclusive["gf.build"] * calibration.REFERENCE_S / cal
        tracer.uninstall()
    rounds, layer = [], []
    first = None
    consistent = True
    start = perf_counter()
    while True:
        for on in ((False, True) if traced else (False,)):
            if on:
                tracer.reset()
                tracer.install()
            times, cals, outputs, codes = run_round(cli, invocations)
            if on:
                tracer.uninstall()
                scale = calibration.REFERENCE_S / statistics.median(cals)
                layer.append({k: v * scale if is_time(k) else v
                              for k, v in tracer.metrics().items()})
            rounds.append({"times": times, "cals": cals, "traced": on})
            if first is None:
                first = (outputs, codes, digest(outputs, codes))
            else:
                consistent &= digest(outputs, codes) == first[2]
        elapsed = perf_counter() - start
        per_step = elapsed / (len(rounds) // (2 if traced else 1))
        if elapsed + per_step > seconds:
            break
    result = {"rounds": rounds, "outputs": first[0], "codes": first[1],
              "consistent": consistent, "peak_rss_kib": peak_rss_kib(), "moduli": moduli}
    if traced:
        result["layers"] = _layer_summary(layer, rounds, build, first[0])
    return result


def peak_rss_kib() -> int:
    """Peak resident memory of this interpreter's own address space, in KiB.

    VmHWM starts afresh at exec. getrusage's ru_maxrss does not: on Linux it
    keeps the peak of the process that started this one, and run.py holds
    sympy and mpmath (for the checker), more than sepsym needs.
    """
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise SystemExit("no VmHWM in /proc/self/status")


def is_time(metric: str) -> bool:
    return metric.endswith(("_s", ".s"))


def _layer_summary(layer, rounds, build, outputs):
    """Counts from the first traced round (and whether they repeat); times as medians."""
    out = {}
    for name, value in layer[0].items():
        if is_time(name):
            out[name] = statistics.median(m[name] for m in layer)
        else:
            out[name] = value
    out["gf.build_s"] = build
    out["cli.bytes_out"] = sum(len(text.encode()) for text in outputs)

    def round_s(on):
        return statistics.median(sum(calibration.reference_seconds(r["times"], r["cals"]))
                                 for r in rounds if r["traced"] == on)

    out["trace.overhead_s"] = round_s(True) - round_s(False)
    counts = [{k: v for k, v in m.items() if not is_time(k)} for m in layer]
    out["counts_repeat"] = all(c == counts[0] for c in counts)
    return out


def main(argv):
    if argv[:1] == ["setup"]:
        set_up([int(q) for q in argv[1:]])
        print("ready", flush=True)
        return 0
    if argv[:1] == ["run"]:
        result = run(json.load(sys.stdin))
        sys.stdout.write(json.dumps(result) + "\n")
        return 0
    print("usage: worker.py setup Q... | worker.py run < job.json", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
