"""Check the outputs of sepsym CLI invocations against bench/reference.py.

``check_round`` takes one round of a workload (the argv lists, the captured
stdout texts, the exit codes and the moduli of the fields the program built)
and returns a Report. Every output line is checked against values computed
apart from the program; nothing is compared with a stored copy of an
earlier output.

Operations: each chi record is one operation, and so is every other
invocation. A chi record whose [x0_lo, x0_hi] does not contain the root is
counted as failed; any other disagreement is an error, which makes the run
incorrect.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import reference as ref

SCHEMA_TAG = "# sepsym-table v1"
BRACKET_TOL = 1e-9
GOLDEN = Path("src") / "sepsym" / "data" / "chi_golden.csv"


@dataclass
class Report:
    ops: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def expect(self, ok: bool, what: str):
        if not ok:
            self.errors.append(what)


# --------------------------------------------------------------- parsing --

def _options(argv) -> dict:
    opts = {}
    for i, tok in enumerate(argv):
        if tok.startswith("--"):
            nxt = argv[i + 1] if i + 1 < len(argv) else None
            opts[tok[2:]] = nxt if nxt is not None and not nxt.startswith("--") else True
    return opts


def _parse_csv(text: str, report: Report, label: str):
    """(header, rows, summary) of a versioned CSV table; summary merges every '# k=v' line."""
    lines = text.splitlines()
    report.expect(bool(lines) and lines[0] == SCHEMA_TAG, f"{label}: missing schema tag")
    header, rows, summary = None, [], {}
    for line in lines[1:]:
        if line.startswith("# "):
            for pair in line[2:].split(" "):
                key, _, value = pair.partition("=")
                summary[key] = value
        elif header is None:
            header = line.split(",")
        else:
            cells = line.split(",")
            report.expect(len(cells) == len(header), f"{label}: ragged row {line!r}")
            rows.append(dict(zip(header, cells)))
    return header, rows, summary


def _parse_json(text: str):
    return [json.loads(line) for line in text.splitlines() if line]


def _vector(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split("|")) if text else ()


def _bool(text: str):
    return {"true": True, "false": False}.get(text)


# ------------------------------------------------------------ brute force --

def _fields(q: int, moduli: dict):
    """(program-modulus field, other-modulus field) for F_q."""
    p, k = ref.prime_power(q)
    own = tuple(moduli[q])
    return ref.ref_field(p, k, own), ref.ref_field(p, k, ref.other_modulus(p, k, own))


def _check_sep(opts, text, code, moduli, report):
    q, n = int(opts["q"]), int(opts["n"])
    label = f"check-sep q={q} n={n}"
    p, _ = ref.prime_power(q)
    if opts.get("preset") == "sq":
        indices = ref.scaled_indices(n, q, p)
    elif opts.get("preset") == "full":
        indices = tuple(range(1, n + 1))
    else:
        indices = tuple(sorted({int(t) for t in opts["T"].split(",")}))
    own, other = _fields(q, moduli)
    total, distinct = ref.separation(other, n, indices)
    separating = distinct == total
    _, rows, _ = _parse_csv(text, report, label)
    report.ops += 1
    report.expect(len(rows) == 1, f"{label}: expected one row, got {len(rows)}")
    if len(rows) != 1:
        return
    row = rows[0]
    report.expect((row["q"], row["n"]) == (str(q), str(n)), f"{label}: wrong q, n echo")
    report.expect(row["T"] == "|".join(map(str, indices)), f"{label}: T {row['T']} != {indices}")
    report.expect(row["orbit_count"] == str(ref.orbit_count(q, n)) == str(total),
                  f"{label}: orbit_count {row['orbit_count']} != {ref.orbit_count(q, n)}")
    report.expect(row["fingerprint_count"] == str(distinct),
                  f"{label}: fingerprint_count {row['fingerprint_count']} != {distinct}")
    report.expect(_bool(row["separating"]) is separating,
                  f"{label}: separating={row['separating']}, reference says {separating}")
    report.expect(code == (0 if separating else 1), f"{label}: exit code {code}")
    if separating:
        report.expect(row["witness_a"] == row["witness_b"] == "", f"{label}: witness on a separating set")
        return
    a, b = _vector(row["witness_a"]), _vector(row["witness_b"])
    for w in (a, b):
        report.expect(len(w) == n and list(w) == sorted(w) and all(0 <= x < q for x in w),
                      f"{label}: witness {w} is not an orbit representative")
    report.expect(a < b, f"{label}: witness pair {a}, {b} not in lex order")
    if len(a) == len(b) == n:
        sa, sb = own.esym_poly(a), own.esym_poly(b)
        report.expect([sa[t - 1] for t in indices] == [sb[t - 1] for t in indices],
                      f"{label}: witness fingerprints differ")
    report.expect(ref.first_collision(own, n, indices) == (a, b),
                  f"{label}: witness {a}, {b} is not the first collision in lex order")


def _check_minsep(opts, text, code, moduli, report):
    q, n = int(opts["q"]), int(opts["n"])
    label = f"minsep q={q} n={n}"
    p, _ = ref.prime_power(q)
    _, other = _fields(q, moduli)
    rows = ref.value_rows(other, n)
    g = ref.gamma(q, n)
    size, witness = None, None
    for k in range(g, n + 1):
        witness = next((T for T in itertools.combinations(range(1, n + 1), k)
                        if ref.separates(rows, T)), None)
        if witness is not None:
            size = k
            break
    sq = ref.scaled_indices(n, q, p)
    redundant = None
    if ref.separates(rows, sq):
        redundant = "|".join(str(t) for t in sq
                             if ref.separates(rows, tuple(u for u in sq if u != t)))
    expected = {"q": q, "n": n, "min_size": size, "gamma": g, "equals_gamma": size == g,
                "witness": "|".join(map(str, witness)), "sq_size": len(sq),
                "sq_redundant": redundant}
    got = _parse_json(text)
    report.ops += 1
    report.expect(got == [expected], f"{label}: got {got}, reference {expected}")
    report.expect(size is not None and size >= g, f"{label}: minimum below gamma")
    report.expect(code == 0, f"{label}: exit code {code}")


# --------------------------------------------------------------- numeric --

def _check_chi_table(opts, text, code, root, report):
    q_min, q_max = int(opts["q-min"]), int(opts["q-max"])
    if opts.get("verify-golden"):
        return _check_golden(q_min, q_max, text, code, root, report)
    label = f"chi-table [{q_min}, {q_max}]"
    header, rows, _ = _parse_csv(text, report, label)
    report.expect(header == ["q", "chi", "x0_lo", "x0_hi", "x0_is_integer", "lnln_floor"],
                  f"{label}: header {header}")
    report.expect([r.get("q") for r in rows] == [str(q) for q in range(q_min, q_max + 1)],
                  f"{label}: rows do not cover the range in order")
    report.expect(code == 0, f"{label}: exit code {code}")
    for row in rows:
        report.ops += 1
        q, c = int(row["q"]), int(row["chi"])
        lo, hi = float(row["x0_lo"]), float(row["x0_hi"])
        at = f"{label}: q={q}"
        report.expect(c >= 1 and ref.criterion(q, c) and not ref.criterion(q, c + 1),
                      f"{at}: chi={c} fails the exact criterion")
        is_int = ref.root_is_integer(q, c)
        report.expect(_bool(row["x0_is_integer"]) is is_int, f"{at}: x0_is_integer wrong")
        report.expect(lo < hi and hi - lo <= BRACKET_TOL, f"{at}: bracket [{lo}, {hi}] too wide")
        report.expect(int(row["lnln_floor"]) == ref.lnln_floor(q), f"{at}: lnln_floor wrong")
        if is_int:
            contains = lo < c + 1 < hi
        else:
            report.expect(c <= lo and hi <= c + 1, f"{at}: bracket outside [chi, chi+1]")
            contains = ref.gap_signs(q, lo, hi) == (-1, 1)
        if not contains:
            report.failed += 1


def _golden_ranges(root: Path):
    out = []
    for line in (root / GOLDEN).read_text().splitlines():
        if line and not line.startswith("#") and not line.startswith("q_lo"):
            out.append(tuple(int(x) for x in line.split(",")))
    return out


def _check_golden(q_min, q_max, text, code, root, report):
    label = f"chi-table --verify-golden [{q_min}, {q_max}]"
    golden = _golden_ranges(root)
    mismatches = [q for q in range(q_min, q_max + 1)
                  if ref.chi(q) != next((c for lo, hi, c in golden if lo <= q <= hi), None)]
    report.ops += 1
    report.expect(not mismatches, f"{label}: the golden table disagrees with chi at {mismatches[:5]}")
    expected = [SCHEMA_TAG,
                f"# verified=true q_min={q_min} q_max={q_max} count={q_max - q_min + 1}"]
    report.expect(text.splitlines() == expected, f"{label}: output {text[:200]!r}")
    report.expect(code == 0, f"{label}: exit code {code}")


def _ternary_rows(n_lo, n_hi):
    exact = ref.ternary_defects(n_lo, n_hi)
    return [(n, d, ref.ternary_predicted(n)) for n, d in zip(range(n_lo, n_hi + 1), exact)]


def _check_delta3(opts, text, code, report):
    n_min, n_max = int(opts["n-min"]), int(opts["n-max"])
    verify = bool(opts.get("verify"))
    label = f"delta3 [{n_min}, {n_max}]"
    expected = _ternary_rows(n_min, n_max)
    header, rows, summary = _parse_csv(text, report, label)
    report.ops += 1
    report.expect(header == ["n", "delta_exact", "delta_predicted", "kind"], f"{label}: header {header}")
    shown = [(n, d, pd) for n, d, pd in expected if d != pd] if verify else expected
    report.expect([(int(r["n"]), int(r["delta_exact"]), int(r["delta_predicted"])) for r in rows]
                  == shown, f"{label}: rows disagree with the reference")
    if not verify:
        report.expect([r["kind"] for r in rows]
                      == [ref.ternary_class(n)[1] if n >= 9 else "-" for n, _, _ in expected],
                      f"{label}: window kinds disagree with the reference")
    want = {"delta0": str(sum(d == 0 for _, d, _ in expected)),
            "delta1": str(sum(d == 1 for _, d, _ in expected))}
    if verify:
        want["verified"] = "true" if not shown else "false"
        want["mismatches"] = str(len(shown))
    report.expect(summary == want, f"{label}: summary {summary}, reference {want}")
    report.expect(code == (1 if verify and shown else 0), f"{label}: exit code {code}")


def _check_classify3(opts, text, code, report):
    n_min, n_max = int(opts["n-min"]), int(opts["n-max"])
    label = f"classify3 [{n_min}, {n_max}]"
    expected = []
    for n, d, _ in _ternary_rows(n_min, n_max):
        r, kind = ref.ternary_class(n)
        alpha, beta, delta = ref.KIND_TERMS[kind]
        expected.append({"n": n, "r": r, "kind": kind, "alpha": alpha, "beta": beta,
                         "delta": delta, "delta_predicted": d})
    report.ops += 1
    report.expect(_parse_json(text) == expected, f"{label}: rows disagree with the reference")
    report.expect(code == 0, f"{label}: exit code {code}")


# ----------------------------------------------------------------- entry --

def check_round(invocations, outputs, codes, moduli, root: Path) -> Report:
    """Check one round; moduli maps each field order the program built to its modulus."""
    report = Report()
    moduli = {int(q): m for q, m in moduli.items()}
    for argv, text, code in zip(invocations, outputs, codes):
        opts = _options(argv)
        command = argv[0]
        if command == "check-sep":
            _check_sep(opts, text, code, moduli, report)
        elif command == "minsep":
            _check_minsep(opts, text, code, moduli, report)
        elif command == "chi-table":
            _check_chi_table(opts, text, code, root, report)
        elif command == "delta3":
            _check_delta3(opts, text, code, report)
        elif command == "classify3":
            _check_classify3(opts, text, code, report)
        else:
            report.errors.append(f"no check for command {command}")
    return report
