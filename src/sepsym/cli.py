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
import math
import os
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii

from sepsym import chi, esym, exactcount, f3, gf, separating
from sepsym.errors import NotSeparatingError, ParameterError, ScaleError
from sepsym.orbits import enumerate_orbits

SCHEMA_TAG = "# sepsym-table v1"
MAX_TABLE_Q = 10 ** 6
# chi for one q: below 2^53, so q is exact as a float, and the x0 bracket is
# checked against mpmath up to here
MAX_CHI_Q = 10 ** 15

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_PIPE_CLOSED = 128 + 13  # 128 + SIGPIPE, as a shell reports it


# ---------------------------------------------------------------- output --

_CSV_CELL = {type(None): lambda v: "", bool: ("false", "true").__getitem__, float: repr}
_JSON_VALUE = {type(None): lambda v: "null", bool: ("false", "true").__getitem__,
               int: int.__repr__, str: encode_basestring_ascii,
               float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v)}


def _cell(value) -> str:
    """A CSV cell: empty for None, true/false, repr for a float, str for the rest."""
    return _CSV_CELL.get(type(value), str)(value)


class TableWriter:
    """Emit rows as versioned CSV or as one flat JSON object per line."""

    def __init__(self, stream, fmt: str, columns):
        self.stream = stream
        self.fmt = fmt
        self.columns = tuple(columns)
        # a JSON line is '{' + '"column": value' joined by ', ' + '}', as json.dumps writes a dict
        self._keys = tuple(json.dumps(c) + ": " for c in self.columns)
        if fmt == "csv":
            print(SCHEMA_TAG, file=stream)
            print(",".join(self.columns), file=stream)

    def row(self, values):
        """One row from a tuple of values in column order."""
        if self.fmt == "csv":
            get = _CSV_CELL.get
            line = ",".join([get(type(v), str)(v) for v in values])
        else:
            get = _JSON_VALUE.get
            line = "{" + ", ".join([k + get(type(v), json.dumps)(v)
                                    for k, v in zip(self._keys, values)]) + "}"
        self.stream.write(line + "\n")

    def summary(self, record: dict):
        if self.fmt == "csv":
            body = " ".join(f"{k}={_cell(v)}" for k, v in record.items())
            print(f"# {body}", file=self.stream)
        else:
            print(json.dumps(record), file=self.stream)


class _OpenOnWrite:
    """A text file that is opened, and so truncated, only when the first text is written.

    A command that fails before its first row (a usage error) leaves the
    file as it was.
    """

    def __init__(self, path):
        self.path = path
        self.file = None

    def write(self, text: str) -> int:
        if self.file is None:
            self.file = open(self.path, "w", encoding="utf-8")
        return self.file.write(text)

    def close(self):
        if self.file is not None:
            self.file.close()


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


def _golden_chi(qs, ranges):
    """The golden chi of each q in the increasing iterable qs, None where no range holds q.

    The ranges are disjoint and sorted by q, as the shipped table is, so one
    walk over them follows q.
    """
    ranges = iter(ranges)
    lo, hi, c = next(ranges, (None, None, None))
    for q in qs:
        while hi is not None and hi < q:
            lo, hi, c = next(ranges, (None, None, None))
        yield c if hi is not None and lo <= q else None


# ------------------------------------------------------------- plumbing --

def _parse_index_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ParameterError(f"could not parse index list {text!r}")


# the fields of chi.ChiRecord, in order: a record is its row
CHI_COLUMNS = ("q", "chi", "x0_lo", "x0_hi", "x0_is_integer", "lnln_floor")


# ------------------------------------------------------------- commands --

def _cmd_gamma(args, stream) -> int:
    q, n = args.q, args.n
    orbits = exactcount.orbit_count(q, n)
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    if limit and orbits >= 10 ** limit:
        raise ScaleError(f"the orbit count for q={q}, n={n} has more than {limit} digits, "
                         "more than Python converts to text")
    g = exactcount.floor_log(q, orbits - 1) + 1  # gamma(q, n), from the count in hand
    pk = gf.prime_power(q)
    size_s = size_sq = delta = None
    if pk is not None:
        size_s = n
        size_sq = exactcount.size_sq(q, pk[0], n)
        delta = size_sq - g
    writer = TableWriter(stream, args.format,
                         ("q", "n", "orbits", "gamma", "size_s", "size_sq", "delta"))
    writer.row((q, n, orbits, g, size_s, size_sq, delta))
    return EXIT_OK


def _cmd_chi(args, stream) -> int:
    if args.q > MAX_CHI_Q:
        raise ParameterError(f"q above the supported cap {MAX_CHI_Q}")
    rec = chi.chi_record(args.q)
    writer = TableWriter(stream, args.format, CHI_COLUMNS)
    writer.row(rec)
    return EXIT_OK


def _cmd_chi_table(args, stream) -> int:
    q_min, q_max = args.q_min, args.q_max
    if q_min < 2 or q_min > q_max:
        raise ParameterError(f"require 2 <= q-min <= q-max, got [{q_min}, {q_max}]")
    if q_max > MAX_TABLE_Q:
        raise ParameterError(f"q-max above the supported cap {MAX_TABLE_Q}")
    if args.jobs < 1:  # checked, otherwise ignored: --jobs is kept only so that old calls parse
        raise ParameterError(f"worker count must be >= 1, got {args.jobs}")
    if args.verify_golden:
        ranges = _load_golden_ranges()
        lo_cov = min(r[0] for r in ranges)
        hi_cov = max(r[1] for r in ranges)
        if q_min < lo_cov or q_max > hi_cov:
            raise ParameterError(
                f"the golden table covers q in [{lo_cov}, {hi_cov}]; "
                f"requested [{q_min}, {q_max}]")
        qs = range(q_min, q_max + 1)
        mismatches = [(q, expected, actual) for (q, actual), expected
                      in zip(chi.chi_sweep(q_min, q_max), _golden_chi(qs, ranges))
                      if actual != expected]
        if mismatches:
            writer = TableWriter(stream, args.format, ("q", "chi_expected", "chi_actual"))
            for mismatch in mismatches:
                writer.row(mismatch)
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
    records = chi.chi_table(q_min, q_max)
    writer = TableWriter(stream, args.format, CHI_COLUMNS)
    for rec in records:
        writer.row(rec)
    return EXIT_OK


def _common_runs(exact, predicted):
    """(n_lo, n_hi, delta, kind, predicted) on the union of the breakpoints of two run lists.

    Both lists cover the same range: exact as (n_lo, n_hi, delta), the
    prediction as (n_lo, n_hi, kind, predicted).
    """
    e, p = next(exact, None), next(predicted, None)
    while e and p:
        lo, hi = max(e[0], p[0]), min(e[1], p[1])
        yield lo, hi, e[2], p[2], p[3]
        if e[1] == hi:
            e = next(exact, None)
        if p[1] == hi:
            p = next(predicted, None)


def _cmd_delta3(args, stream) -> int:
    n_min, n_max = args.n_min, args.n_max
    if n_min < 2 or n_min > n_max:
        raise ParameterError(f"require 2 <= n-min <= n-max, got [{n_min}, {n_max}]")
    writer = TableWriter(stream, args.format, ("n", "delta_exact", "delta_predicted", "kind"))
    counts = {}
    mismatches = 0  # rows written under --verify
    for lo, hi, exact, kind, predicted in _common_runs(exactcount.defect_runs(3, n_min, n_max),
                                                       f3.prediction_runs(n_min, n_max)):
        counts[exact] = counts.get(exact, 0) + hi - lo + 1
        if args.verify and exact == predicted:
            continue
        mismatches += hi - lo + 1
        for n in range(lo, hi + 1):
            writer.row((n, exact, predicted, kind))
    summary = {"delta0": counts.get(0, 0), "delta1": counts.get(1, 0)}
    if args.verify:
        summary["verified"] = not mismatches
        summary["mismatches"] = mismatches
    writer.summary(summary)
    return EXIT_VERIFY_FAILED if args.verify and mismatches else EXIT_OK


def _cmd_classify3(args, stream) -> int:
    n_min, n_max = args.n_min, args.n_max
    if n_min > n_max:
        raise ParameterError(f"require n-min <= n-max, got [{n_min}, {n_max}]")
    rows = f3.classify3_range(n_min, n_max)  # rejects n_min < 9 before any output
    writer = TableWriter(stream, args.format,
                         ("n", "r", "kind", "alpha", "beta", "delta", "delta_predicted"))
    for row in rows:
        writer.row(row)
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
    verdict = separating.check_separating(field, n, indices)
    writer = TableWriter(stream, args.format,
                         ("q", "n", "T", "separating", "orbit_count",
                          "fingerprint_count", "witness_a", "witness_b"))
    writer.row((field.q, n, _join(sorted(set(indices))), verdict.separating,
                verdict.orbit_count, verdict.fingerprint_count,
                _join(verdict.witness[0]) if verdict.witness else None,
                _join(verdict.witness[1]) if verdict.witness else None))
    return EXIT_OK if verdict.separating else EXIT_VERIFY_FAILED


def _cmd_minsep(args, stream) -> int:
    field = gf.field_for_order(args.q)
    n = args.n
    size, witness = separating.min_separating_size(field, n)
    g = exactcount.gamma(field.q, n)
    sq = esym.index_set_nq(n, field.q, field.p)
    try:
        _, redundant = separating.check_minimal(field, n, sq)
        sq_redundant = _join(redundant)
    except NotSeparatingError:
        sq_redundant = None
    writer = TableWriter(stream, args.format,
                         ("q", "n", "min_size", "gamma", "equals_gamma",
                          "witness", "sq_size", "sq_redundant"))
    writer.row((field.q, n, size, g, size == g, _join(witness), len(sq), sq_redundant))
    return EXIT_OK


def _cmd_orbits(args, stream) -> int:
    field = gf.field_for_order(args.q)
    reps = enumerate_orbits(field, args.n)
    writer = TableWriter(stream, args.format, ("rep",))
    total = 0
    for rep in reps:
        writer.row((_join(rep),))
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
    _add_common(p)
    p.set_defaults(func=_cmd_gamma)

    p = subs.add_parser("chi", help="exact chi and the root bracket for one q")
    p.add_argument("--q", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_chi)

    p = subs.add_parser("chi-table", help="chi records for a range of q")
    p.add_argument("--q-min", type=int, required=True, dest="q_min")
    p.add_argument("--q-max", type=int, required=True, dest="q_max")
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored, since tables run in one process; still accepted (and "
                        "must be >= 1) because the benchmark workloads pass it, until "
                        "they next change")
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
    p.add_argument("--n-min", type=int, required=True, dest="n_min")
    p.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_common(p)
    p.set_defaults(func=_cmd_classify3)

    p = subs.add_parser("check-sep", help="brute-force separation check for an index set")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--T", help="comma-separated indices, e.g. 1,2,4")
    group.add_argument("--preset", choices=("sq", "full"),
                       help="sq: the power-scaled set; full: all of 1..n")
    _add_common(p)
    p.set_defaults(func=_cmd_check_sep)

    p = subs.add_parser("minsep", help="smallest separating subset size by exhaustive search")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_minsep)

    p = subs.add_parser("orbits", help="stream the canonical orbit representatives")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
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
            stream = _OpenOnWrite(out)
            try:
                return args.func(args, stream)
            finally:
                stream.close()
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
