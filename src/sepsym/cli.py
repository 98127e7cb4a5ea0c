"""Command-line front end: compute, verify, and emit tables.

Exit codes: 0 on success or a verified property, 1 on a verification
failure (non-separating set, golden/table mismatch), 2 on usage or
parameter errors, 3 when reading or writing a file fails, 4 when an
internal check fails (a RuntimeError: a bug, not a verdict). When the reader
of standard output closes it early (``sepsym orbits ... | head``) the
command stops without a message and exits 141, the status a shell reports
for a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
from importlib import resources
from json.encoder import encode_basestring_ascii

from sepsym import chi, esym, exactcount, f3, gf, separating
from sepsym.chi import MAX_CHI_Q  # noqa: F401 (the cap of chi --q is the library's)
from sepsym.errors import NotSeparatingError, ParameterError, ScaleError
from sepsym.orbits import enumerate_orbits

SCHEMA_TAG = "# sepsym-table v1"
MAX_TABLE_Q = 10 ** 6

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_INTERNAL = 4
EXIT_PIPE_CLOSED = 128 + 13  # 128 + SIGPIPE, as a shell reports it
ROWS_PER_WRITE = 1024  # by TableWriter.rows, so a long run never builds one long string


# ---------------------------------------------------------------- output --

_CSV_CELL = {type(None): lambda v: "", bool: ("false", "true").__getitem__, float: repr}
_JSON_VALUE = {type(None): lambda v: "null", bool: ("false", "true").__getitem__,
               int: int.__repr__, str: encode_basestring_ascii,
               float: lambda v: float.__repr__(v) if math.isfinite(v) else json.dumps(v)}


class TableWriter:
    """Emit rows as versioned CSV or as one flat JSON object per line."""

    def __init__(self, stream, fmt: str, columns):
        self.stream = stream
        self.fmt = fmt
        self.columns = tuple(columns)
        # a line is open + the cells joined by sep + end; a JSON cell is '"column": value',
        # as json.dumps writes a dict
        self._keys = tuple(json.dumps(c) + ": " for c in self.columns)
        self._open, self._sep, self._end = ("", ",", "\n") if fmt == "csv" else ("{", ", ", "}\n")
        if fmt == "csv":
            print(SCHEMA_TAG, file=stream)
            if self.columns:
                print(",".join(self.columns), file=stream)

    def _joined(self, batch, keys):
        """Each row of batch as its cells joined by sep; in JSON each cell has its key from keys.

        Cells are formatted column by column: a column whose cells share one
        type goes through that type's cell function in one map, any other
        column cell by cell.
        """
        cell_of, default = (_CSV_CELL, str) if self.fmt == "csv" else (_JSON_VALUE, json.dumps)
        columns = []
        for column, key in zip(zip(*batch), keys):
            kinds = set(map(type, column))
            if len(kinds) == 1:
                cells = map(cell_of.get(kinds.pop(), default), column)
            else:
                cells = [cell_of.get(type(v), default)(v) for v in column]
            columns.append(cells if self.fmt == "csv" else map(key.__add__, cells))
        return map(self._sep.join, zip(*columns)) if columns else [""] * len(batch)

    def table(self, rows) -> int:
        """Every row of the iterable rows, as row writes it, ROWS_PER_WRITE rows at a time.

        Returns the number of rows.
        """
        rows, count = iter(rows), 0
        between = self._end + self._open
        for batch in iter(lambda: list(itertools.islice(rows, ROWS_PER_WRITE)), []):
            self.stream.write(self._open + between.join(self._joined(batch, self._keys))
                              + self._end)
            count += len(batch)
        return count

    def row(self, values):
        """One row from a tuple of values in column order."""
        self.table((values,))

    def rows(self, lo: int, hi: int, rest):
        """The rows (n, *rest) for n = lo, ..., hi, as row writes them, ROWS_PER_WRITE at a time.

        rest is formatted once, and an int's cell is str(n) in both formats.
        """
        head = self._open + ("" if self.fmt == "csv" else self._keys[0])
        cells = "".join(self._joined([rest], self._keys[1:]))  # one row: its cells joined by sep
        tail = (self._sep + cells if rest else "") + self._end
        for start in range(lo, hi + 1, ROWS_PER_WRITE):
            ns = map(str, range(start, min(start + ROWS_PER_WRITE, hi + 1)))
            self.stream.write(head + (tail + head).join(ns) + tail)

    def summary(self, record: dict):
        if self.fmt == "csv":
            body = " ".join(f"{k}={_CSV_CELL.get(type(v), str)(v)}" for k, v in record.items())
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
    return [tuple(map(int, line.split(","))) for line in map(str.strip, text.splitlines())
            if line and not line.startswith(("#", "q_lo"))]


def _golden_runs(ranges, q_min: int, q_max: int):
    """(lo, hi, chi) on [q_min, q_max] from the golden ranges, chi None where no range lies."""
    q = q_min
    for lo, hi, c in sorted(ranges):
        lo, hi = max(lo, q), min(hi, q_max)
        if lo > hi:
            continue
        if lo > q:
            yield q, lo - 1, None
        yield lo, hi, c
        q = hi + 1
    if q <= q_max:
        yield q, q_max, None


# ------------------------------------------------------------- commands --

# the fields of chi.ChiRecord, in order: a record is its row
CHI_COLUMNS = ("q", "chi", "x0_lo", "x0_hi", "x0_is_integer", "lnln_floor")


def _cmd_gamma(args, stream) -> int:
    q, n = args.q, args.n
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    # binom(N, m) >= (N/m)**m for N = n+q-1, m = min(n, q-1): a count with more than
    # m*log10(N/m) > limit + 1 digits is refused unbuilt; the exact test decides the rest
    m = min(n, q - 1)
    too_long = limit and m >= 1 and math.log10(n + q - 1) - math.log10(m) > (limit + 1) / m
    orbits = None if too_long else exactcount.orbit_count(q, n)
    if limit and (too_long or orbits >= 10 ** limit):
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
        mismatches = [(lo, hi, expected, actual) for lo, hi, expected, actual
                      in exactcount.common_runs(_golden_runs(ranges, q_min, q_max),
                                                chi.chi_runs(q_min, q_max))
                      if expected != actual]
        # the mismatched q as rows, or no columns and only the summary
        writer = TableWriter(stream, args.format,
                             ("q", "chi_expected", "chi_actual") if mismatches else ())
        for lo, hi, expected, actual in mismatches:
            writer.rows(lo, hi, (expected, actual))
        if mismatches:
            writer.summary({"verified": False,
                            "mismatches": sum(hi - lo + 1 for lo, hi, _, _ in mismatches)})
            return EXIT_VERIFY_FAILED
        writer.summary({"verified": True, "q_min": q_min, "q_max": q_max,
                        "count": q_max - q_min + 1})
        return EXIT_OK
    writer = TableWriter(stream, args.format, CHI_COLUMNS)
    writer.table(chi.chi_rows(q_min, q_max))
    return EXIT_OK


def _cmd_delta3(args, stream) -> int:
    n_min, n_max = args.n_min, args.n_max
    if n_min < 2 or n_min > n_max:
        raise ParameterError(f"require 2 <= n-min <= n-max, got [{n_min}, {n_max}]")
    writer = TableWriter(stream, args.format, ("n", "delta_exact", "delta_predicted", "kind"))
    counts = {}
    mismatches = 0  # rows written under --verify
    for lo, hi, exact, kind, predicted in exactcount.common_runs(
            exactcount.defect_runs(3, n_min, n_max), f3.prediction_runs(n_min, n_max)):
        counts[exact] = counts.get(exact, 0) + hi - lo + 1
        if args.verify and exact == predicted:
            continue
        mismatches += hi - lo + 1
        writer.rows(lo, hi, (exact, predicted, kind))
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
    runs = f3.window_runs(n_min, n_max)  # rejects n_min < 9 before any output
    writer = TableWriter(stream, args.format,
                         ("n", "r", "kind", "alpha", "beta", "delta", "delta_predicted"))
    for lo, hi, r, kind in runs:  # each row holds the fields of an F3Class
        writer.rows(lo, hi, (r, kind, *f3.KIND_TERMS[kind], f3.PREDICTED[kind]))
    return EXIT_OK


def _select_indices(args, field, n):
    if args.preset == "sq":
        return esym.index_set_nq(n, field.q, field.p)
    if args.preset == "full":
        return tuple(range(1, n + 1))
    try:
        return tuple(int(part) for part in args.T.split(","))
    except ValueError:
        raise ParameterError(f"could not parse index list {args.T!r}")


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
    total = writer.table((_join(rep),) for rep in reps)
    writer.summary({"count": total})
    return EXIT_OK


# --------------------------------------------------------------- parser --

def _command(subs, name: str, func, help: str, *ints: str):
    """A subcommand running func, with each option in ints an int it requires."""
    p = subs.add_parser(name, help=help)
    for flag in ints:
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(func=func)
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sepsym",
        description="Separating sets of elementary symmetric functions over finite fields: "
                    "exact counts, crossover thresholds, and brute-force verification.")
    subs = parser.add_subparsers(dest="command", required=True)
    _command(subs, "gamma", _cmd_gamma,
             "orbit count and the least conceivable separating size", "--q", "--n")
    _command(subs, "chi", _cmd_chi, "exact chi and the root bracket for one q", "--q")
    p = _command(subs, "chi-table", _cmd_chi_table, "chi records for a range of q",
                 "--q-min", "--q-max")
    p.add_argument("--jobs", type=int, default=1,
                   help="ignored, since tables run in one process; still accepted (and "
                        "must be >= 1) because the benchmark workloads pass it, until "
                        "they next change")
    p.add_argument("--verify-golden", action="store_true",
                   help="compare against the shipped golden table instead of printing rows")
    p = _command(subs, "delta3", _cmd_delta3,
                 "exact ternary defect against its interval prediction", "--n-min", "--n-max")
    p.add_argument("--verify", action="store_true",
                   help="compare exact and predicted values instead of printing rows")
    _command(subs, "classify3", _cmd_classify3, "five-window classification for n >= 9",
             "--n-min", "--n-max")
    p = _command(subs, "check-sep", _cmd_check_sep,
                 "brute-force separation check for an index set", "--q", "--n")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--T", help="comma-separated indices, e.g. 1,2,4")
    group.add_argument("--preset", choices=("sq", "full"),
                       help="sq: the power-scaled set; full: all of 1..n")
    _command(subs, "minsep", _cmd_minsep,
             "smallest separating subset size by exhaustive search", "--q", "--n")
    _command(subs, "orbits", _cmd_orbits, "stream the canonical orbit representatives",
             "--q", "--n")
    for p in subs.choices.values():  # every command, last
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="output format (default csv)")
        p.add_argument("--out", metavar="PATH", help="write output to PATH instead of stdout")
    return parser


def _silence_stdout():
    """Point the stdout descriptor at the null device.

    The interpreter flushes sys.stdout at exit; into a closed pipe that
    flush would fail again and print a traceback.
    """
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


_parser = None  # built by the first main call, then reused: building it takes about 1 ms


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    try:
        args = _parser.parse_args(argv)
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
    except RuntimeError as exc:  # after ScaleError, which is one
        print(f"error: internal: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
