"""Command-line front end: compute, verify, and emit tables.

Exit codes: 0 on success or a verified property, 1 on a verification
failure (non-separating set, golden/table mismatch), 2 on usage or
parameter errors, 3 when reading or writing a file fails. When the reader
of standard output closes it early (``sepsym orbits ... | head``) the
command stops without a message and exits 141, the status a shell reports
for a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources

from sepsym import chi, esym, exactcount, f3, gf, separating
from sepsym.errors import ParameterError, ScaleError
from sepsym.orbits import DEFAULT_ORBIT_BOUND, enumerate_orbits

SCHEMA_TAG = "# sepsym-table v1"
MAX_TABLE_Q = 10 ** 6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PIPE_CLOSED = 128 + 13  # 128 + SIGPIPE, as a shell reports it


# ---------------------------------------------------------------- output --

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


class TableWriter:
    """Emit rows as versioned CSV or as one flat JSON object per line."""

    def __init__(self, stream, fmt: str, columns):
        self.stream = stream
        self.fmt = fmt
        self.columns = tuple(columns)
        if fmt == "csv":
            print(SCHEMA_TAG, file=stream)
            print(",".join(self.columns), file=stream)

    def row(self, record: dict):
        if self.fmt == "csv":
            print(",".join(_cell(record.get(c)) for c in self.columns), file=self.stream)
        else:
            print(json.dumps(record), file=self.stream)

    def summary(self, record: dict):
        if self.fmt == "csv":
            body = " ".join(f"{k}={_cell(v)}" for k, v in record.items())
            print(f"# {body}", file=self.stream)
        else:
            print(json.dumps(record), file=self.stream)


def _join(seq) -> str:
    return "|".join(str(x) for x in seq)


# ---------------------------------------------------------------- golden --

def _load_golden_ranges():
    """(q_lo, q_hi, chi) rows of the shipped golden table."""
    text = resources.files("sepsym").joinpath("data/chi_golden.csv").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("q_lo"):
            continue
        lo, hi, c = line.split(",")
        rows.append((int(lo), int(hi), int(c)))
    return rows


def _golden_chi(q: int, ranges) -> int | None:
    for lo, hi, c in ranges:
        if lo <= q <= hi:
            return c
    return None


# ------------------------------------------------------------- plumbing --

def _resolve_jobs(args) -> int:
    jobs = getattr(args, "jobs", None)
    if jobs is None:
        env = os.environ.get("SEPSYM_JOBS")
        if env is None:
            return 1
        try:
            jobs = int(env)
        except ValueError:
            raise ParameterError(f"SEPSYM_JOBS must be an integer, got {env!r}")
    if jobs < 1:
        raise ParameterError(f"worker count must be >= 1, got {jobs}")
    return jobs


def _parse_index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"could not parse index list {text!r}")


def _chi_values(q_min: int, q_max: int, jobs: int) -> list[int]:
    qs = range(q_min, q_max + 1)
    if jobs > 1:
        chunk = max(1, len(qs) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(chi.chi_exact, qs, chunksize=chunk))
    return [chi.chi_exact(q) for q in qs]


def _chi_row(rec: chi.ChiRecord) -> dict:
    return {
        "q": rec.q,
        "chi": rec.chi,
        "x0_lo": rec.x0_lo,
        "x0_hi": rec.x0_hi,
        "x0_is_integer": rec.x0_is_integer,
        "lnln_floor": rec.lower_bound,
    }


CHI_COLUMNS = ("q", "chi", "x0_lo", "x0_hi", "x0_is_integer", "lnln_floor")


# ------------------------------------------------------------- commands --

def _cmd_gamma(args, stream) -> int:
    q, n = args.q, args.n
    pk = gf.prime_power(q)
    if args.with_sq and pk is None:
        raise ParameterError(f"--with-sq requires a prime-power q, got {q}")
    record = {
        "q": q,
        "n": n,
        "orbits": exactcount.orbit_count(q, n),
        "gamma": exactcount.gamma(q, n),
        "size_s": None,
        "size_sq": None,
        "delta": None,
    }
    if pk is not None:
        record["size_s"] = n
        record["size_sq"] = exactcount.size_sq(q, pk[0], n)
        record["delta"] = record["size_sq"] - record["gamma"]
    writer = TableWriter(stream, args.format,
                         ("q", "n", "orbits", "gamma", "size_s", "size_sq", "delta"))
    writer.row(record)
    return EXIT_OK


def _cmd_chi(args, stream) -> int:
    rec = chi.chi_record(args.q)
    writer = TableWriter(stream, args.format, CHI_COLUMNS)
    writer.row(_chi_row(rec))
    return EXIT_OK


def _cmd_chi_table(args, stream) -> int:
    q_min, q_max = args.q_min, args.q_max
    if q_min < 2 or q_min > q_max:
        raise ParameterError(f"require 2 <= q-min <= q-max, got [{q_min}, {q_max}]")
    if q_max > MAX_TABLE_Q:
        raise ParameterError(f"q-max above the supported cap {MAX_TABLE_Q}")
    jobs = _resolve_jobs(args)
    if args.verify_golden:
        ranges = _load_golden_ranges()
        lo_cov = min(r[0] for r in ranges)
        hi_cov = max(r[1] for r in ranges)
        if q_min < lo_cov or q_max > hi_cov:
            raise ParameterError(
                f"the golden table covers q in [{lo_cov}, {hi_cov}]; "
                f"requested [{q_min}, {q_max}]")
        values = _chi_values(q_min, q_max, jobs)
        mismatches = []
        for q, actual in zip(range(q_min, q_max + 1), values):
            expected = _golden_chi(q, ranges)
            if actual != expected:
                mismatches.append((q, expected, actual))
        if mismatches:
            writer = TableWriter(stream, args.format, ("q", "chi_expected", "chi_actual"))
            for q, expected, actual in mismatches:
                writer.row({"q": q, "chi_expected": expected, "chi_actual": actual})
            writer.summary({"verified": False, "mismatches": len(mismatches)})
            return EXIT_VERIFY_FAILED
        count = q_max - q_min + 1
        if args.format == "csv":
            print(SCHEMA_TAG, file=stream)
            print(f"# verified=true q_min={q_min} q_max={q_max} count={count}", file=stream)
        else:
            print(json.dumps({"verified": True, "q_min": q_min, "q_max": q_max,
                              "count": count}), file=stream)
        return EXIT_OK
    records = chi.chi_table(q_min, q_max, jobs=jobs)
    writer = TableWriter(stream, args.format, CHI_COLUMNS)
    for rec in records:
        writer.row(_chi_row(rec))
    return EXIT_OK


def _cmd_delta3(args, stream) -> int:
    n_min, n_max = args.n_min, args.n_max
    if n_min < 2 or n_min > n_max:
        raise ParameterError(f"require 2 <= n-min <= n-max, got [{n_min}, {n_max}]")
    columns = ("n", "delta_exact", "delta_predicted", "kind")
    writer = None if args.verify else TableWriter(stream, args.format, columns)
    counts = {}
    mismatches = []
    for n in range(n_min, n_max + 1):
        exact = exactcount.delta3(n)
        predicted = f3.predicted_delta3(n)
        kind = f3.classify3(n).kind if n >= 9 else "-"
        counts[exact] = counts.get(exact, 0) + 1
        record = {"n": n, "delta_exact": exact, "delta_predicted": predicted, "kind": kind}
        if args.verify:
            if exact != predicted:
                mismatches.append(record)
        else:
            writer.row(record)
    summary = {"delta0": counts.get(0, 0), "delta1": counts.get(1, 0)}
    if args.verify:
        writer = TableWriter(stream, args.format, columns)
        for record in mismatches:
            writer.row(record)
        summary["verified"] = not mismatches
        summary["mismatches"] = len(mismatches)
        writer.summary(summary)
        return EXIT_VERIFY_FAILED if mismatches else EXIT_OK
    writer.summary(summary)
    return EXIT_OK


def _cmd_classify3(args, stream) -> int:
    if args.n is not None:
        n_min = n_max = args.n
    elif args.n_min is not None and args.n_max is not None:
        n_min, n_max = args.n_min, args.n_max
    else:
        raise ParameterError("pass either --n or both --n-min and --n-max")
    if n_min > n_max:
        raise ParameterError(f"require n-min <= n-max, got [{n_min}, {n_max}]")
    writer = TableWriter(stream, args.format,
                         ("n", "r", "kind", "alpha", "beta", "delta", "delta_predicted"))
    for n in range(n_min, n_max + 1):
        c = f3.classify3(n)
        writer.row({"n": c.n, "r": c.r, "kind": c.kind, "alpha": c.alpha,
                    "beta": c.beta, "delta": c.delta,
                    "delta_predicted": c.predicted_delta})
    return EXIT_OK


def _select_indices(args, field, n):
    if args.preset == "sq":
        return esym.index_set_nq(n, field.q, field.p)
    if args.preset == "full":
        return tuple(range(1, n + 1))
    return _parse_index_list(args.T)


def _cmd_check_sep(args, stream) -> int:
    field = gf.field_for_order(args.q)
    n = args.n
    indices = _select_indices(args, field, n)
    verdict = separating.check_separating(field, n, indices, bound=args.orbit_bound)
    writer = TableWriter(stream, args.format,
                         ("q", "n", "T", "separating", "orbit_count",
                          "fingerprint_count", "witness_a", "witness_b"))
    record = {
        "q": field.q,
        "n": n,
        "T": _join(sorted(set(indices))),
        "separating": verdict.separating,
        "orbit_count": verdict.orbit_count,
        "fingerprint_count": verdict.fingerprint_count,
        "witness_a": _join(verdict.witness[0]) if verdict.witness else None,
        "witness_b": _join(verdict.witness[1]) if verdict.witness else None,
    }
    writer.row(record)
    return EXIT_OK if verdict.separating else EXIT_VERIFY_FAILED


def _cmd_minsep(args, stream) -> int:
    field = gf.field_for_order(args.q)
    n = args.n
    size, witness = separating.min_separating_size(field, n, bound=args.orbit_bound)
    g = exactcount.gamma(field.q, n)
    sq = esym.index_set_nq(n, field.q, field.p)
    sq_redundant = None
    if separating.check_separating(field, n, sq, bound=args.orbit_bound).separating:
        _, redundant = separating.check_minimal(field, n, sq, bound=args.orbit_bound)
        sq_redundant = _join(redundant)
    writer = TableWriter(stream, args.format,
                         ("q", "n", "min_size", "gamma", "equals_gamma",
                          "witness", "sq_size", "sq_redundant"))
    writer.row({
        "q": field.q,
        "n": n,
        "min_size": size,
        "gamma": g,
        "equals_gamma": size == g,
        "witness": _join(witness),
        "sq_size": len(sq),
        "sq_redundant": sq_redundant,
    })
    return EXIT_OK


def _cmd_orbits(args, stream) -> int:
    field = gf.field_for_order(args.q)
    writer = TableWriter(stream, args.format, ("rep",))
    total = 0
    for rep in enumerate_orbits(field, args.n, bound=args.orbit_bound):
        writer.row({"rep": _join(rep)})
        total += 1
    writer.summary({"count": total})
    return EXIT_OK


# --------------------------------------------------------------- parser --

def _add_common(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="output format (default csv)")
    sub.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsym",
        description="Separating sets of elementary symmetric functions over finite fields: "
                    "exact counts, crossover thresholds, and brute-force verification.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gamma", help="orbit count and the least conceivable separating size")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--with-sq", action="store_true", dest="with_sq",
                   help="require the power-scaled set columns (prime-power q only)")
    _add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = subs.add_parser("chi", help="exact chi and the root bracket for one q")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_chi)

    p = subs.add_parser("chi-table", help="chi records for a range of q")
    p.add_argument("--q-min", type=int, required=True, dest="q_min")
    p.add_argument("--q-max", type=int, required=True, dest="q_max")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker processes (default SEPSYM_JOBS or 1)")
    p.add_argument("--verify-golden", action="store_true", dest="verify_golden",
                   help="compare against the shipped golden table instead of printing rows")
    _add_common(p)
    p.set_defaults(func=_cmd_chi_table)

    p = subs.add_parser("delta3", help="exact ternary defect against its interval prediction")
    p.add_argument("--n-min", type=int, required=True, dest="n_min")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    p.add_argument("--verify", action="store_true",
                   help="compare exact and predicted values instead of printing rows")
    _add_common(p)
    p.set_defaults(func=_cmd_delta3)

    p = subs.add_parser("classify3", help="five-window classification for n >= 9")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-min", type=int, default=None, dest="n_min")
    p.add_argument("--n-max", type=int, default=None, dest="n_max")
    _add_common(p)
    p.set_defaults(func=_cmd_classify3)

    p = subs.add_parser("check-sep", help="brute-force separation check for an index set")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--T", help="comma-separated indices, e.g. 1,2,4")
    group.add_argument("--preset", choices=("sq", "full"),
                       help="sq: the power-scaled set; full: all of 1..n")
    p.add_argument("--orbit-bound", type=int, default=DEFAULT_ORBIT_BOUND,
                   dest="orbit_bound")
    _add_common(p)
    p.set_defaults(func=_cmd_check_sep)

    p = subs.add_parser("minsep", help="smallest separating subset size by exhaustive search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orbit-bound", type=int, default=DEFAULT_ORBIT_BOUND,
                   dest="orbit_bound")
    _add_common(p)
    p.set_defaults(func=_cmd_minsep)

    p = subs.add_parser("orbits", help="stream the canonical orbit representatives")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--orbit-bound", type=int, default=DEFAULT_ORBIT_BOUND,
                   dest="orbit_bound")
    _add_common(p)
    p.set_defaults(func=_cmd_orbits)

    return parser


def _silence_stdout():
    """Point the stdout descriptor at the null device.

    The interpreter flushes sys.stdout at exit; into a closed pipe that
    flush would fail again and print a traceback.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    out = getattr(args, "out", None)
    try:
        if out:
            with open(out, "w", encoding="utf-8") as stream:
                return args.func(args, stream)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except (ParameterError, ScaleError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        if not out:
            _silence_stdout()
        return EXIT_PIPE_CLOSED
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
