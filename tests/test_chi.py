import functools
import math
import random
import time
from collections import Counter

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsym import chi, cli
from sepsym.errors import ParameterError
from support import EE2, bisect_bracket, bisect_cell, mp_gap, scan_chi, technical_expression


def _expand(runs):
    return [(q, value) for lo, hi, value in runs for q in range(lo, hi + 1)]


def test_chi_exact_examples():
    assert chi.chi_exact(2) == 2
    assert chi.chi_exact(17) == 3
    assert chi.chi_exact(18) == 4
    assert chi.chi_exact(5019) == 7


def test_chi_runs_equal_scan():
    top = 2 * 10 ** 5
    runs = list(chi.chi_runs(2, top))
    assert _expand(runs) == [(q, scan_chi(q)) for q in range(2, top + 1)]
    # maximal runs: one per value of chi, each starting at an edge
    assert [lo for lo, _, _ in runs] == [2, 3, 18, 110, 705, 5019, 40292]


def test_chi_exact_equals_scan_at_each_edge():
    for n in range(3, 41):
        edge = math.factorial(n) - math.comb(n, 2)
        assert [chi.chi_exact(q) for q in (edge - 1, edge)] == [n - 1, n]
        assert [scan_chi(q) for q in (edge - 1, edge)] == [n - 1, n]


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(2), math.log(1e15)))
def test_chi_exact_equals_scan_log_uniform(u):
    q = min(max(int(math.exp(u)), 2), 10 ** 15)
    assert chi.chi_exact(q) == scan_chi(q)


def test_edge_certificate_failure_raises(monkeypatch):
    # a criterion that already holds one below the edge Q_5 = 110
    criterion = chi.least_possible_criterion
    monkeypatch.setattr(chi, "least_possible_criterion",
                        lambda q, n: q == 109 and n == 5 or criterion(q, n))
    assert chi.chi_exact(17) == 3
    # from q = 18 on, chi_exact and chi_runs read the edge Q_5
    with pytest.raises(RuntimeError, match="chi edge Q_5: 110"):
        chi.chi_exact(18)
    with pytest.raises(RuntimeError, match="chi edge Q_5: 110"):
        list(chi.chi_runs(2, 20))


def test_chi_bounds():
    for q in range(2, 200):
        c = chi.chi_exact(q)
        assert c >= 1
        if q > 3:
            assert c < q


def test_bracket_q2_integer_root():
    lo, hi, is_int = chi.x0_bracket(2)
    assert is_int
    assert lo < 3.0 < hi
    assert hi - lo <= chi.TOL
    # 2^(3-1) = 4 = 3 + 1 exactly
    assert 2 ** 2 == math.comb(3 + 1, 3)


def test_bracket_q4_and_q18():
    lo, hi, is_int = chi.x0_bracket(4)
    assert not is_int
    assert 3.0 < lo < hi < 4.0
    lo, hi, is_int = chi.x0_bracket(18)
    assert not is_int
    assert 4.0 < lo < hi < 5.0


def test_bracket_contains_sign_change():
    for q in list(range(2, 120)) + [704, 705, 5019, 10000]:
        c = chi.chi_exact(q)
        lo, hi, is_int = chi.x0_bracket(q)
        assert c <= lo < hi
        assert chi.root_gap(q, c) < 0
        if is_int:
            # the bracket straddles the exact root at c + 1
            m = round((lo + hi) / 2)
            assert m == c + 1
            assert q ** (m - 1) == math.comb(m + q - 1, m)
            assert abs(chi.root_gap(q, float(m))) <= 1e-9
        else:
            assert hi <= c + 1
            assert chi.root_gap(q, lo) < 0 < chi.root_gap(q, hi)
            assert chi.root_gap(q, c + 1) > 0


def test_bracket_contains_findroot_at_powers_of_ten():
    for k in range(4, 16):
        q = 10 ** k
        c = chi.chi_exact(q)
        lo, hi, is_int = chi.x0_bracket(q)
        with mpmath.workdps(40):
            root = mpmath.findroot(mp_gap(q), (c, c + 1), solver="anderson")
            assert lo < root < hi, (k, lo, hi, root)
        assert not is_int
        assert c <= lo and hi <= c + 1
        assert hi - lo <= chi.TOL


@settings(max_examples=50, deadline=None)
@given(st.integers(10 ** 6 + 1, 10 ** 15))
def test_bracket_contains_root_above_table_range(q):
    # the range of `sepsym chi --q` beyond the table's cap
    lo, hi, is_int = chi.x0_bracket(q)
    gap = mp_gap(q)
    assert gap(lo) < 0 < gap(hi), (q, lo, hi)
    assert not is_int
    assert hi - lo <= chi.TOL


def test_bracket_equals_bisection_over_table_start():
    for q in range(2, 2 * 10 ** 4 + 1):
        assert chi.x0_bracket(q) == bisect_bracket(q, chi.chi_exact(q)), q


@settings(max_examples=200, deadline=None)
@given(st.floats(math.log(2e4), math.log(1e15)))
def test_bracket_equals_bisection_log_uniform(u):
    q = min(max(int(math.exp(u)), 2 * 10 ** 4 + 1), 10 ** 15)
    assert chi.x0_bracket(q) == bisect_bracket(q, chi.chi_exact(q))


# a bisection cell edge within 1.5-2.9e-14 in gap of the root (43812: 1.45e-14
# at its high edge), and q = 2, whose root is the integer 3
@pytest.mark.parametrize("q", [2, 7324, 43812, 87986, 91674, 96221])
def test_bracket_equals_bisection_near_a_cell_edge(q):
    assert chi.x0_bracket(q) == bisect_bracket(q, chi.chi_exact(q))


def _exact_stirling_rest(q):
    # three int quotients, each correctly rounded
    return 1 / (12 * q) - 1 / (360 * q ** 3) + 1 / (1260 * q ** 5)


def _gap_s_q(q):
    # the s_q that the gap of q binds, the third argument of its _stirling_gap
    return chi._gap(q).args[2]


def test_stirling_rest_equals_exact_quotients_up_to_the_table_cap():
    # bisect_bracket reads chi._gap too, so a drift in s_q shows only here
    exact = _exact_stirling_rest
    assert [q for q in range(65, cli.MAX_TABLE_Q + 1) if chi._stirling_rest(q) != exact(q)] == []
    assert [_gap_s_q(q) for q in (65, 10 ** 6)] == [exact(65), exact(10 ** 6)]


@settings(max_examples=300, deadline=None)
@given(st.floats(math.log(65), math.log(chi.MAX_CHI_Q)))
def test_stirling_rest_equals_exact_quotients_log_uniform(u):
    q = min(max(int(math.exp(u)), 65), chi.MAX_CHI_Q)
    assert _gap_s_q(q) == chi._stirling_rest(q) == _exact_stirling_rest(q)


def _recording(gap, limit=math.inf):
    seen = []

    def recorded(x):
        seen.append(x)
        assert len(seen) <= limit, "too many gap evaluations"
        return gap(x)
    return recorded, seen


@pytest.mark.parametrize("q", [3, 18, 7324, 43812, 10 ** 9])
@pytest.mark.parametrize("cells", [-3, -1, 1, 3])
def test_cell_found_from_a_shifted_estimate(q, cells):
    c = chi.chi_exact(q)
    want = bisect_cell(chi._gap(q), c)
    gap, seen = _recording(chi._gap(q))
    lo, hi, root = chi._cell(gap, c, want[0] + (cells + 0.5) * chi._CELL)
    assert (lo, hi) == want
    # the interpolated root lies in the cell, within about 3e-14 of the bisection cell's root
    assert lo <= root <= hi
    # at most two probes per cell visited
    assert len(seen) <= 2 * (abs(cells) + 1)


def test_cell_at_the_clamped_ends():
    # q = 2: the root is 3 = c + 1, in the last cell; gap(3) is never read
    gap, seen = _recording(chi._gap(2))
    want = bisect_cell(chi._gap(2), 2)
    assert want == (3.0 - chi._CELL, 3.0)
    for x_hat in (7.0, 3.0, 3.0 - 2.5 * chi._CELL):
        assert chi._cell(gap, 2, x_hat)[:2] == want
    assert 3.0 not in seen
    # a root in the first cell; gap(c) is never read
    c = 5
    gap, seen = _recording(lambda x: x - (c + chi._CELL / 3))
    want = bisect_cell(gap, c)
    assert want == (5.0, 5.0 + chi._CELL)
    for x_hat in (-2.0, 5.0, 5.0 + 3.5 * chi._CELL):
        assert chi._cell(gap, c, x_hat)[:2] == want
    assert 5.0 not in seen and 6.0 not in seen


@pytest.mark.parametrize("steps", [0, 1])
def test_bracket_equals_bisection_after_a_short_secant(monkeypatch, steps):
    # the estimate then lies up to 2^31 cells from the root: the cell search
    # gallops and bisects, so it still ends in bisection's cell, within 64
    # evaluations beyond the secant's
    rng = random.Random(steps)
    qs = [2, 3, 18, 7324, 43812, 10 ** 15]
    qs += [int(math.exp(rng.uniform(math.log(2), math.log(1e15)))) for _ in range(200)]
    want = [bisect_bracket(q, chi.chi_exact(q)) for q in qs]
    gap = chi._gap
    monkeypatch.setattr(chi, "_SECANT_STEPS", steps)
    monkeypatch.setattr(chi, "_gap", lambda q: _recording(gap(q), limit=66 + steps)[0])
    t0 = time.perf_counter()
    assert [chi.x0_bracket(q) for q in qs] == want
    assert time.perf_counter() - t0 < 10


@pytest.mark.parametrize("q", [3, 43812, 10 ** 15])
def test_cell_from_an_estimate_at_either_end(q):
    c = chi.chi_exact(q)
    want = bisect_cell(chi._gap(q), c)
    for x_hat in (float(c), float(c + 1)):
        # a gallop over at most 31 doublings and a bisection of the last one
        gap, seen = _recording(chi._gap(q), limit=64)
        assert chi._cell(gap, c, x_hat)[:2] == want
        assert float(c) not in seen and float(c + 1) not in seen


def test_bracket_gap_evaluations_per_q(monkeypatch):
    # a return to bisection (31) or a secant that stops converging fails here
    per_q = []
    gap = chi._gap

    def recorded(q):
        g, seen = _recording(gap(q))
        per_q.append(seen)
        return g
    monkeypatch.setattr(chi, "_gap", recorded)
    for q in range(2, 10 ** 4 + 1):
        chi.x0_bracket(q)
    counts = [len(seen) for seen in per_q]
    assert len(counts) == 10 ** 4 - 1
    assert sum(counts) / len(counts) <= 12
    assert max(counts) <= 16


def test_sweep_gap_evaluations_per_q(monkeypatch):
    # from q = 337 on the extrapolated root lands in its cell for nearly every
    # q, and the row's two cell probes are its only gap evaluations; a cold
    # secant takes four or more. The sweep probes a row's cell with
    # _stirling_gap itself, and every other row evaluates a _gap callable:
    # both are counted by q. A _gap partial binds _stirling_gap when it is
    # built, so it binds the counted one, whose calls are not counted twice.
    gap, stirling_gap = chi._gap, chi._stirling_gap
    counts = Counter()

    def counted(q, *args):
        counts[q] += 1
        return stirling_gap(q, *args)

    def recorded(q):
        g = gap(q)
        if isinstance(g, functools.partial) and g.func is counted:
            return g
        return lambda x: counts.update((q,)) or g(x)
    monkeypatch.setattr(chi, "_stirling_gap", counted)
    monkeypatch.setattr(chi, "_gap", recorded)
    for lo, hi, mean in ((2, 10 ** 4, 2.75), (5001, 10 ** 4, 2.05)):
        counts.clear()
        chi.chi_table(lo, hi)
        assert len(counts) == hi - lo + 1
        assert sum(counts.values()) / len(counts) <= mean


@pytest.mark.parametrize("lo, hi", [(2, 10 ** 4), (5001, 10 ** 4), (10 ** 4, 10 ** 4)])
def test_sweep_criterion_calls(monkeypatch, lo, hi):
    # two per edge, each certified once: the edges Q_3, ..., Q_{chi(hi)+1}
    calls = []
    criterion = chi.least_possible_criterion
    monkeypatch.setattr(chi, "least_possible_criterion",
                        lambda q, n: calls.append((q, n)) or criterion(q, n))
    chi.chi_table(lo, hi)
    assert len(calls) == 2 * (scan_chi(hi) - 1)


def _records(lo, hi):
    return [chi.chi_record(q) for q in range(lo, hi + 1)]


def test_chi_table_equals_records_over_table_start():
    assert chi.chi_table(2, 2 * 10 ** 4) == _records(2, 2 * 10 ** 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 10 ** 6), st.integers(0, 299))
def test_chi_table_equals_records_on_windows(lo, length):
    assert chi.chi_table(lo, lo + length) == _records(lo, lo + length)


# from q = 2 and 3 (one and two cold rows), and across the steps of chi
# 3 -> 4 -> 5 -> 6 -> 7 at q = 18, 110, 705 and 5019
@pytest.mark.parametrize("lo, hi", [(2, 2), (2, 3), (2, 40), (3, 3), (3, 4), (3, 30), (17, 18),
                                    (18, 19), (15, 21), (109, 110), (106, 113), (704, 705),
                                    (700, 710), (5018, 5019), (5010, 5030)])
def test_chi_table_windows_at_the_start_and_across_chi_steps(lo, hi):
    assert chi.chi_table(lo, hi) == _records(lo, hi)


@pytest.mark.parametrize("cells", [-2 ** 31, -2 ** 20, -1000, -3, 3, 1000, 2 ** 20, 2 ** 31])
def test_chi_table_from_a_start_cells_away(monkeypatch, cells):
    want = _records(2, 400) + _records(5000, 5100)
    extrapolate, shifted_rows = chi._extrapolate, []

    def shifted(*roots):
        x = extrapolate(*roots)
        if x is None:
            return None
        shifted_rows.append(x)
        return x + cells * chi._CELL
    monkeypatch.setattr(chi, "_extrapolate", shifted)
    assert chi.chi_table(2, 400) + chi.chi_table(5000, 5100) == want
    # the interpolated roots do not depend on the estimate, so the same rows
    # are estimated as without the shift: every row from q = 337 on, and
    # every row but the first four of the second table
    assert len(shifted_rows) == 64 + 97


def test_chi_table_examples():
    recs = chi.chi_table(2, 17)
    assert [r.chi for r in recs] == [2] + [3] * 15
    assert [r.q for r in recs] == list(range(2, 18))
    assert [r.chi for r in chi.chi_table(109, 110)] == [4, 5]
    assert [r.chi for r in chi.chi_table(704, 705)] == [5, 6]


def test_chi_table_validation():
    with pytest.raises(ParameterError):
        chi.chi_table(5, 3)
    with pytest.raises(ParameterError):
        chi.chi_table(1, 5)


@pytest.mark.parametrize("call, args", [(chi.chi_record, (10 ** 15 + 1,)),
                                         (chi.x0_bracket, (10 ** 400,)),
                                         (chi.chi_table, (2, 10 ** 16))],
                         ids=["chi_record", "x0_bracket", "chi_table"])
def test_chi_q_cap_is_the_library_s(call, args):
    # the bracket's error argument is made only below 2^53
    assert chi.MAX_CHI_Q == 10 ** 15 < 2 ** 53
    with pytest.raises(ParameterError, match="^q above the supported cap 1000000000000000$"):
        call(*args)


def test_record_fields_consistent():
    rec = chi.chi_record(18)
    assert rec.q == 18
    assert rec.chi == 4
    assert rec.x0_is_integer is False
    assert rec.chi == math.floor(rec.x0_hi)
    assert rec.lower_bound == chi.lnln_floor(18)


def test_lnln_examples():
    assert chi.lnln_floor(2) <= 0
    assert chi.lnln_floor(10_000) == 2
    assert chi.lnln_floor(5019) == 2
    assert chi.chi_exact(2) >= chi.lnln_floor(2)
    assert chi.chi_exact(10_000) >= chi.lnln_floor(10_000)
    assert chi.chi_exact(5019) >= chi.lnln_floor(5019)


@pytest.mark.parametrize("k", [5, 6])
def test_lnln_floor_below_a_threshold_with_more_digits_than_the_float_recheck(k):
    # q = ceil(e^(e^k)) - 1 has 65 (k = 5) and 176 (k = 6) digits, so ln ln q
    # sits just below k; the thresholds come from mpmath at 400 digits
    with mpmath.workdps(400):
        q = int(mpmath.ceil(mpmath.e ** mpmath.e ** k)) - 1
        assert mpmath.floor(mpmath.log(mpmath.log(q))) == k - 1
        assert mpmath.floor(mpmath.log(mpmath.log(q + 1))) == k
    assert chi.lnln_floor(q) == k - 1
    assert chi.lnln_floor(q + 1) == k


def test_lnln_runs_equal_per_q_floor():
    top = 2 * 10 ** 5
    runs = list(chi.lnln_runs(2, top))
    assert _expand(runs) == [(q, chi.lnln_floor(q)) for q in range(2, top + 1)]
    # maximal runs: the steps at 3, 16 and 1619, and nothing else
    assert runs == [(2, 2, -1), (3, 15, 0), (16, 1618, 1), (1619, top, 2)]


# windows that start at, end at and straddle the steps 3, 16 and 1619
@pytest.mark.parametrize("lo, hi", [(2, 3), (3, 3), (2, 40), (15, 16), (16, 16), (14, 18),
                                    (1618, 1619), (1619, 1620), (1500, 1700), (2, 2000)])
def test_lnln_runs_on_windows_across_steps(lo, hi):
    want = [chi.lnln_floor(q) for q in range(lo, hi + 1)]
    assert [k for _, k in _expand(chi.lnln_runs(lo, hi))] == want
    assert [rec.lower_bound for rec in chi.chi_table(lo, hi)] == want


def test_lnln_floor_at_the_fourth_step_through_chi_record():
    # ceil(e^(e^3)) = 528491312: the least q with floor(ln ln q) = 3
    with mpmath.workdps(50):
        edge = int(mpmath.ceil(mpmath.e ** mpmath.e ** 3))
        want = [int(mpmath.floor(mpmath.log(mpmath.log(q)))) for q in range(edge - 2, edge + 3)]
    assert edge == 528491312
    assert want == [2, 2, 3, 3, 3]
    assert [chi.chi_record(q).lower_bound for q in range(edge - 2, edge + 3)] == want
    assert [rec.lower_bound for rec in chi.chi_table(edge - 2, edge + 2)] == want


def test_lnln_runs_up_to_a_googol():
    # bisected on integers, not on a range, whose length must fit in a C ssize_t;
    # each run starts at ceil(e^(e^k)), from mpmath at 200 digits
    runs = list(chi.lnln_runs(2, 10 ** 100))
    with mpmath.workdps(200):
        steps = [int(mpmath.ceil(mpmath.e ** mpmath.e ** k)) for k in range(6)]
    assert [lo for lo, _, _ in runs] == [2, *steps]
    assert [k for _, _, k in runs] == list(range(-1, 6))
    assert [hi for _, hi, _ in runs] == [*[q - 1 for q in steps], 10 ** 100]


@pytest.mark.parametrize("q", [10 ** 15, 528491311, 528491312])
def test_chi_record_lnln_work_guard(monkeypatch, q):
    # a record reads the bound's one run: a walk from a float e^(e^k), off
    # by about 1.5*10^9 integers at k = 4, fails here at the fifth call
    calls = []
    lnln_floor = chi.lnln_floor

    def counted(x):
        calls.append(x)
        assert len(calls) <= 4, "too many lnln_floor calls"
        return lnln_floor(x)
    monkeypatch.setattr(chi, "lnln_floor", counted)
    assert chi.chi_record(q).lower_bound == lnln_floor(q)
    assert len(calls) <= 4


def test_lnln_runs_step_cost(monkeypatch):
    # one call for a run's value and a bisection over the rest of the range for its end
    calls = []
    lnln_floor = chi.lnln_floor
    monkeypatch.setattr(chi, "lnln_floor", lambda x: calls.append(x) or lnln_floor(x))
    assert list(chi.lnln_runs(1700, 10 ** 6)) == [(1700, 10 ** 6, 2)]
    assert len(calls) <= 1 + 21
    calls.clear()
    assert len(list(chi.lnln_runs(2, 10 ** 6))) == 4
    assert len(calls) <= 4 * (1 + 21)


def test_technical_expression_examples():
    assert technical_expression(EE2 + 1.0) > 0
    assert technical_expression(1e4) > 0
    assert technical_expression(1e6) > 0
    grid = [EE2 + 1.0, 2e3, 1e4, 1e6, 1e8]
    assert [technical_expression(q) > 0.0 for q in grid] == [True] * 5
    with pytest.raises(ParameterError):
        technical_expression(100.0)


def test_smallest_q_reaching_each_chi(full_chi_records):
    # first q whose chi reaches n, for n = 2..7
    firsts = {}
    for rec in full_chi_records:
        for n in range(2, 8):
            if rec.chi >= n and n not in firsts:
                firsts[n] = rec.q
    assert [firsts[n] for n in range(2, 8)] == [2, 3, 18, 110, 705, 5019]
