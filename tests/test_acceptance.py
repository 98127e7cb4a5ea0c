"""End-to-end acceptance battery.

Each test prints one PASS/FAIL line, echoed again in the terminal summary.
Criteria with stated runtime budgets assert them (10 s for the full chi
table verification, 60 s for the exhaustive ternary-defect sweep, 1 s per
brute-force grid cell).
"""

import itertools
import math
import time

from sepsym import chi, cli, exactcount, f3, gf
from sepsym.esym import esym_all, index_set_nq
from sepsym.orbits import enumerate_orbits
from sepsym.separating import check_minimal, check_separating
from support import BRUTE_GRID, EE2, GRID_CELLS, mp_gap, technical_expression

import random


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def test_criterion_01_chi_golden_table(acceptance_log, capsys):
    t0 = time.perf_counter()
    rc = cli.main(["chi-table", "--q-min", "2", "--q-max", "10000",
                   "--verify-golden"])
    dt = time.perf_counter() - t0
    capsys.readouterr()
    ok = rc == 0 and dt < 10.0
    acceptance_log(f"criterion 1 {_verdict(ok)}: chi table for q in [2, 10^4] "
                   f"matches the golden ranges, single-threaded in {dt:.2f} s")
    assert rc == 0
    assert dt < 10.0


def test_criterion_02_ternary_defect_sweep(acceptance_log):
    t0 = time.perf_counter()
    mismatches = [n for n in range(2, 100001)
                  if exactcount.delta3(n) != f3.predicted_delta3(n)]
    dt = time.perf_counter() - t0
    ok = not mismatches and dt < 60.0
    acceptance_log(f"criterion 2 {_verdict(ok)}: exact defect equals interval "
                   f"prediction for all n in [2, 10^5], {len(mismatches)} "
                   f"mismatches in {dt:.2f} s")
    assert mismatches == []
    assert dt < 60.0


def test_criterion_03_correction_term_identities(acceptance_log):
    bad_alpha = [n for n in range(1, 100001)
                 if 2 * exactcount.floor_log(3, n)
                 != exactcount.floor_log(3, n * n) + f3.alpha_of(n)]
    bad_beta = [n for n in range(6, 100001)
                if exactcount.floor_log(3, n * n)
                - exactcount.floor_log(3, (n + 1) * (n + 2) // 2) - 1
                != f3.beta_of(n)]
    bad_chain = [r for r in range(3, 61) if not f3.boundary_chain_ok(r)]
    ok = not (bad_alpha or bad_beta or bad_chain)
    acceptance_log(f"criterion 3 {_verdict(ok)}: floor-log identities for the "
                   f"correction terms hold on [1, 10^5] and [6, 10^5]; "
                   f"boundary chain exact for r in [3, 60]")
    assert bad_alpha == []
    assert bad_beta == []
    assert bad_chain == []


def test_criterion_04_root_brackets(acceptance_log, full_chi_records):
    t0 = time.perf_counter()
    failures = []
    for rec in full_chi_records:
        if not rec.x0_lo > 1.0:
            failures.append((rec.q, "lo"))
        if rec.q > 3 and not rec.x0_hi < rec.q:
            failures.append((rec.q, "hi"))
        if not rec.x0_hi - rec.x0_lo <= 1e-9:
            failures.append((rec.q, "width"))
        if rec.x0_is_integer:
            implied = round((rec.x0_lo + rec.x0_hi) / 2) - 1
        else:
            implied = math.floor(rec.x0_hi)
        if implied != rec.chi:
            failures.append((rec.q, "chi"))
        # containment: the gap, at 40 digits, changes sign across the bracket
        gap = mp_gap(rec.q)
        contains = gap(rec.x0_lo) < 0 < gap(rec.x0_hi)
        if not contains:
            failures.append((rec.q, "contains"))
    dt = time.perf_counter() - t0
    rec2 = full_chi_records[0]
    q2_integer = rec2.q == 2 and rec2.x0_is_integer \
        and round((rec2.x0_lo + rec2.x0_hi) / 2) == 3
    ok = not failures and q2_integer
    acceptance_log(f"criterion 4 {_verdict(ok)}: brackets over [2, 10^4] stay "
                   f"in (1, q), have width <= 1e-9, imply the exact chi, "
                   f"contain the root by a 40-digit sign check, "
                   f"and detect the integer root 3 at q = 2; "
                   f"{len(failures)} failures in {dt:.2f} s")
    assert failures == []
    assert q2_integer


def test_criterion_05_lower_bounds(acceptance_log, full_chi_records):
    bad = [rec.q for rec in full_chi_records if rec.chi < rec.lower_bound]
    # over [2, 10^100] on the common runs of chi and the bound: both are exact
    # step functions, so one comparison per run decides every q in it
    runs = list(exactcount.common_runs(chi.chi_runs(2, 10 ** 100), chi.lnln_runs(2, 10 ** 100)))
    bad_runs = [(lo, hi) for lo, hi, c, k in runs if c < k]
    grid = [EE2 * (1e8 / EE2) ** (i / 99) for i in range(100)]
    positivity = [technical_expression(q) > 0.0 for q in grid]
    ok = not bad and not bad_runs and all(positivity)
    acceptance_log(f"criterion 5 {_verdict(ok)}: chi dominates floor(ln ln q) "
                   f"on [2, 10^4] and on all {len(runs)} common runs over [2, 10^100], "
                   f"and the threshold expression is positive at "
                   f"{sum(positivity)}/100 grid points")
    assert bad == []
    assert bad_runs == []
    assert all(positivity)


def test_criterion_06_scaled_sets_separate(acceptance_log):
    slow = []
    failing = []
    worst = 0.0
    for q, n in GRID_CELLS:
        spec = gf.field_for_order(q)
        T = index_set_nq(n, q, spec.p)
        t0 = time.perf_counter()
        verdict = check_separating(spec, n, T)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        if not verdict.separating:
            failing.append((q, n))
        if dt >= 1.0:
            slow.append((q, n, dt))
    ok = not failing and not slow
    acceptance_log(f"criterion 6 {_verdict(ok)}: scaled index sets separate "
                   f"on all {len(GRID_CELLS)} grid cells, worst cell "
                   f"{worst * 1000:.0f} ms")
    assert failing == []
    assert slow == []


def test_criterion_07_full_set_least_below_threshold(acceptance_log):
    failures = []
    for q, top in sorted(BRUTE_GRID.items()):
        spec = gf.field_for_order(q)
        c = chi.chi_exact(q)
        for n in range(2, min(c, top) + 1):
            if exactcount.gamma(q, n) != n:
                failures.append((q, n, "gamma"))
            for T in itertools.combinations(range(1, n + 1), n - 1):
                if check_separating(spec, n, T).separating:
                    failures.append((q, n, T))
        n1 = c + 1
        if n1 <= top and not n1 > exactcount.gamma(q, n1):
            failures.append((q, n1, "above"))
    ok = not failures
    acceptance_log(f"criterion 7 {_verdict(ok)}: below the threshold the full "
                   f"set is optimal and every one-smaller subset fails; above "
                   f"it gamma drops; {len(failures)} failures")
    assert failures == []


def test_criterion_08_information_bound(acceptance_log):
    failures = []
    cells = 0
    subsets = 0
    for q, n in GRID_CELLS:
        if n > 10:
            continue
        cells += 1
        spec = gf.field_for_order(q)
        g = exactcount.gamma(q, n)
        for k in range(g):
            for T in itertools.combinations(range(1, n + 1), k):
                subsets += 1
                if check_separating(spec, n, T).separating:
                    failures.append((q, n, T))
    ok = not failures
    acceptance_log(f"criterion 8 {_verdict(ok)}: no subset below the "
                   f"information bound separates; {subsets} subsets over "
                   f"{cells} cells, {len(failures)} failures")
    assert failures == []


def test_criterion_09_binary_scaled_set_least_and_minimal(acceptance_log):
    count_bad = [n for n in range(2, 301)
                 if exactcount.size_sq(2, 2, n) != exactcount.gamma(2, n)]
    F2 = gf.field_for_order(2)
    minimal_bad = []
    for n in range(2, 17):
        T = index_set_nq(n, 2, 2)
        verdict = check_separating(F2, n, T)
        is_min, redundant = check_minimal(F2, n, T)
        if not (verdict.separating and is_min and redundant == []):
            minimal_bad.append(n)
    ok = not count_bad and not minimal_bad
    acceptance_log(f"criterion 9 {_verdict(ok)}: binary scaled set has least "
                   f"possible size on [2, 300] and is inclusion-minimal for "
                   f"n <= 16")
    assert count_bad == []
    assert minimal_bad == []


def test_criterion_10_structural_suites(acceptance_log):
    axiom_bad = []
    for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        spec = gf.field_for_order(q)
        els = range(q)
        for a in els:
            for b in els:
                for c in els:
                    if spec.add(spec.add(a, b), c) != spec.add(a, spec.add(b, c)) \
                            or spec.mul(spec.mul(a, b), c) != spec.mul(a, spec.mul(b, c)) \
                            or spec.mul(a, spec.add(b, c)) != spec.add(spec.mul(a, b),
                                                                       spec.mul(a, c)):
                        axiom_bad.append((q, a, b, c))
    rng = random.Random(77001)
    for q in (25, 27, 49, 64, 81, 125):
        spec = gf.field_for_order(q)
        for _ in range(300):
            a, b, c = (rng.randrange(q) for _ in range(3))
            if spec.mul(a, spec.add(b, c)) != spec.add(spec.mul(a, b), spec.mul(a, c)) \
                    or spec.mul(spec.mul(a, b), c) != spec.mul(a, spec.mul(b, c)):
                axiom_bad.append((q, a, b, c))

    perm_bad = []
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27):
        spec = gf.field_for_order(q)
        full = set(range(q))
        for a in range(1, q):
            if {spec.mul(a, b) for b in range(q)} != full:
                perm_bad.append((q, a))

    count_bad = [(q, n) for q, n in GRID_CELLS
                 if sum(1 for _ in enumerate_orbits(gf.field_for_order(q), n))
                 != exactcount.orbit_count(q, n)]

    invariance_bad = []
    rng = random.Random(424242)
    for q, n in GRID_CELLS:
        spec = gf.field_for_order(q)
        for _ in range(1000):
            v = [rng.randrange(q) for _ in range(n)]
            w = v[:]
            rng.shuffle(w)
            if esym_all(v, spec) != esym_all(w, spec):
                invariance_bad.append((q, n, v))
                break

    ok = not (axiom_bad or perm_bad or count_bad or invariance_bad)
    acceptance_log(f"criterion 10 {_verdict(ok)}: field axioms, inverse "
                   f"permutations, orbit counts, and symmetric-function "
                   f"invariance (1000 cases per cell) all hold")
    assert axiom_bad == []
    assert perm_bad == []
    assert count_bad == []
    assert invariance_bad == []


def test_findings_survey(acceptance_log, full_chi_records):
    # observations the theory leaves open, reported without asserting
    # chi(q), decided at each q apart from chi_runs (whose chi only ever adds
    # one): the largest n with the criterion, stepping n up from 2
    chis = []
    for q in range(2, 10_001):
        n = 2
        while exactcount.least_possible_criterion(q, n + 1):
            n += 1
        chis.append(n)
    nondecreasing = all(a <= b for a, b in zip(chis, chis[1:]))
    acceptance_log(f"finding: chi, decided at each q by the exact criterion, is "
                   f"nondecreasing over q in [2, 10^4]: {nondecreasing}")
    # over [2, 10^100], chi decided apart from chi_runs' edges at both ends of
    # each of its runs: the criterion holds at c and fails at c + 1 exactly
    # when chi(q) = c, since it holds at n exactly for the integers n < x_0
    runs = list(chi.chi_runs(2, 10 ** 100))
    ends = all(exactcount.least_possible_criterion(q, c)
               and not exactcount.least_possible_criterion(q, c + 1)
               for lo, hi, c in runs for q in (lo, hi))
    acceptance_log(f"finding: over q in [2, 10^100], the criterion gives chi at both ends "
                   f"of each of chi_runs' {len(runs)} runs as that run's chi: {ends}")
    # with the ends decided, chi at q and q + 1 across each run boundary
    # differs by one: no q is the edge of two steps of chi
    by_one = all(b[0] == a[1] + 1 and b[2] == a[2] + 1 for a, b in zip(runs, runs[1:]))
    acceptance_log(f"finding: over q in [2, 10^100], chi steps by exactly one at each of "
                   f"the {len(runs) - 1} run boundaries, so no two chi edges coincide: "
                   f"{ends and by_one}")
    integer_qs = [rec.q for rec in full_chi_records if rec.x0_is_integer]
    acceptance_log(f"finding: integer roots detected at q in {integer_qs}")
    non_minimal = []
    for q in (3, 4, 5, 7, 8, 9):
        spec = gf.field_for_order(q)
        for n in range(2, min(BRUTE_GRID[q], 8) + 1):
            T = index_set_nq(n, q, spec.p)
            if check_separating(spec, n, T).separating:
                is_min, redundant = check_minimal(spec, n, T)
                if not is_min:
                    non_minimal.append((q, n, tuple(redundant)))
    acceptance_log(f"finding: scaled sets with redundant indices at small "
                   f"scale: {non_minimal if non_minimal else 'none'}")
