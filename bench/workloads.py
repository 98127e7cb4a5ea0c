"""The benchmark's workloads: fixed lists of sepsym CLI invocations.

A workload is the list of argv lists that one round passes to
``sepsym.cli.main``, plus the field orders its set-up builds. The seed picks
only inputs that leave the amount of work unchanged: which indices a
``--T`` below gamma keeps, the order of the ``minsep`` cells, and where the
seeded ternary windows sit. So every seed does the same work, the counts of
a traced run repeat exactly, and the share of failed operations is the same
on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from reference import gamma, window_starts

# Every invocation is kept well under a second. On a shared 2-core machine
# the speed drifts by up to half for minutes at a time; the fastest of many
# rounds is steady only when one invocation is short and rounds are many.

# (q, n, selection) per check-sep cell; every shape runs sq, full and a
# --T of size gamma - 1, which cannot separate and must print a witness.
SCAN_CELLS = (
    # wide field, short vectors: many orbits, cheap esym per orbit
    (32, 4, "sq"), (64, 3, "full"), (81, 3, "T"), (256, 2, "sq"),
    # small field, long vectors: few orbits, O(n^2) esym per orbit
    (5, 20, "sq"), (3, 60, "full"), (2, 200, "sq"), (7, 10, "T"),
)

# minsep cells whose minimum exceeds gamma, plus (7, 5), (8, 5) and (8, 6),
# whose scaled index set has a redundant index.
SEARCH_CELLS = ((4, 8), (7, 6), (9, 5), (16, 4), (3, 10), (11, 5), (7, 5), (8, 5), (8, 6))

# 256 < q <= 1024: the polynomial-arithmetic path. Odd characteristic at
# n = 2 (17^2, 7^3, 19^2). Characteristic 2 only at n = 1 (2^9, 2^10): at
# n = 2 the smallest such cell, q = 512, takes 4-5 s, too long to time
# steadily, so the cost of that case is left out of the timings.
WIDE_CELLS = ((289, 2, "T"), (343, 2, "sq"), (512, 1, "sq"), (1024, 1, "full"))

# Fixed numeric ranges, each split into invocations of a few tenths of a
# second. The chi table over [2, 10^4] holds the kept bracket fault (28
# records whose x0 bracket misses the root), so it must not depend on the
# seed.
CHI_RANGES = ((2, 5_000), (5_001, 10_000))
DELTA3_VERIFY_RANGES = tuple((max(2, lo), lo + 12_499) for lo in range(1, 100_000, 12_500))
# Seeded ternary windows of fixed length. Each lies inside one window kind
# of the r = 12 band (3^12 <= n < 3^13), delta3's in kind A and classify3's
# in kind B, because the number of f3 calls per n depends on the kind: so
# every seed makes the same calls and writes the same number of bytes.
WINDOW = 10_000
TERNARY_R = 12


@dataclass(frozen=True)
class Workload:
    name: str
    invocations: tuple[tuple[str, ...], ...]
    fields: tuple[int, ...]


def _check_sep(rng: random.Random, q: int, n: int, selection: str) -> tuple[str, ...]:
    argv = ["check-sep", "--q", str(q), "--n", str(n)]
    if selection == "T":
        subset = sorted(rng.sample(range(1, n + 1), gamma(q, n) - 1))
        argv += ["--T", ",".join(map(str, subset))]
    else:
        argv += ["--preset", selection]
    return tuple(argv)


def _scan(rng):
    return [_check_sep(rng, *cell) for cell in SCAN_CELLS], [c[0] for c in SCAN_CELLS]


def _search(rng):
    cells = list(SEARCH_CELLS)
    rng.shuffle(cells)
    invocations = [("minsep", "--q", str(q), "--n", str(n), "--format", "json")
                   for q, n in cells]
    return invocations, [q for q, _ in SEARCH_CELLS]


def _wide_field(rng):
    return [_check_sep(rng, *cell) for cell in WIDE_CELLS], [c[0] for c in WIDE_CELLS]


def _numeric(rng):
    start_b, start_c = window_starts(TERNARY_R)[:2]
    a = rng.randrange(3 ** TERNARY_R, start_b - WINDOW + 1)
    b = rng.randrange(start_b, start_c - WINDOW + 1)
    # --jobs 1 explicitly: otherwise chi-table takes its worker count from SEPSYM_JOBS.
    invocations = [("chi-table", "--q-min", str(lo), "--q-max", str(hi), "--jobs", "1")
                   for lo, hi in CHI_RANGES]
    invocations.append(("chi-table", "--q-min", "2", "--q-max", str(CHI_RANGES[-1][1]),
                        "--verify-golden", "--jobs", "1"))
    invocations += [("delta3", "--n-min", str(lo), "--n-max", str(hi), "--verify")
                    for lo, hi in DELTA3_VERIFY_RANGES]
    invocations += [
        ("delta3", "--n-min", str(a), "--n-max", str(a + WINDOW - 1)),
        ("classify3", "--n-min", str(b), "--n-max", str(b + WINDOW - 1), "--format", "json"),
    ]
    return invocations, []


BUILDERS = {"scan": _scan, "search": _search, "wide-field": _wide_field, "numeric": _numeric}


def build(name: str, seed: int) -> Workload:
    """The workload's invocation list for one seed; the same seed gives the same list."""
    invocations, fields = BUILDERS[name](random.Random(f"{name}:{seed}"))
    return Workload(name=name, invocations=tuple(tuple(a) for a in invocations),
                    fields=tuple(sorted(set(fields))))
