import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsym import f3
from sepsym.errors import ParameterError
from sepsym.esym import index_set_nq
from sepsym.exactcount import defect_runs, delta3, floor_log
from support import interval_alpha, interval_beta, naive_defect

KIND_ORDER = {"A": 0, "B": 1, "C": 2, "D": 3, "E": 4}


def test_cmp_ar_examples():
    assert f3.cmp_ar(9, 4) == 0
    assert f3.cmp_ar(5, 3) == -1
    assert f3.cmp_ar(6, 3) == 1


def test_cmp_br_examples():
    assert f3.cmp_br(11, 4) == -1  # 625 < 649
    assert f3.cmp_br(12, 4) == 1   # 729 > 649
    # b_2 = (sqrt(73) - 3)/2 is irrational and strictly below 3
    assert f3.cmp_br(3, 2) == 1
    assert (2 * 3 + 3) ** 2 == 81 and 8 * 9 + 1 == 73


def test_cmp_validation():
    with pytest.raises(ParameterError):
        f3.cmp_ar(0, 2)
    with pytest.raises(ParameterError):
        f3.cmp_ar(3, -1)
    with pytest.raises(ParameterError):
        f3.cmp_br(0, 2)


def test_alpha_examples():
    assert f3.alpha_of(5) == 0
    assert f3.alpha_of(6) == -1
    assert f3.alpha_of(9) == 0


def test_alpha_against_interval_scan():
    for n in range(1, 5001):
        assert f3.alpha_of(n) == interval_alpha(n)


def test_alpha_floor_log_identity():
    for n in range(1, 10001):
        assert 2 * floor_log(3, n) == floor_log(3, n * n) + f3.alpha_of(n)


def test_beta_examples():
    assert f3.beta_of(9) == 0
    assert f3.beta_of(12) == -1
    assert f3.beta_of(6) == -1
    with pytest.raises(ParameterError):
        f3.beta_of(5)


def test_beta_against_interval_scan():
    for n in range(6, 5001):
        assert f3.beta_of(n) == interval_beta(n)


def test_beta_floor_log_identity():
    for n in range(6, 10001):
        m = (n + 1) * (n + 2) // 2
        assert floor_log(3, n * n) - floor_log(3, m) - 1 == f3.beta_of(n)


def test_beta_guard_triangular_not_power_of_three():
    # (n+1)(n+2)/2 = 3 at n = 1; no further hits in range
    for n in range(2, 100001):
        m = (n + 1) * (n + 2) // 2
        assert 3 ** floor_log(3, m) != m


def test_delta_small_examples():
    assert f3.delta_small_of(9) == 1
    assert f3.delta_small_of(6) == 2
    assert f3.delta_small_of(1) == 1


def test_delta_small_counts_scaled_indices():
    for n in range(1, 5001):
        assert len(index_set_nq(n, 3, 3)) == 2 * floor_log(3, n) + f3.delta_small_of(n)


def test_classify_examples():
    c9 = f3.classify3(9)
    assert (c9.kind, c9.predicted_delta) == ("A", 1)
    c12 = f3.classify3(12)
    assert (c12.kind, c12.predicted_delta) == ("B", 0)
    c20 = f3.classify3(20)
    assert (c20.kind, c20.predicted_delta) == ("D", 1)
    with pytest.raises(ParameterError):
        f3.classify3(8)


def test_classify_boundary_memberships():
    # r = 2 block: [9, 11.24) A, [11.24, 15.59) B, [15.59, 18) C, [18, 20.55) D,
    # [20.55, 27) E
    kinds = {n: f3.classify3(n).kind for n in range(9, 27)}
    assert [kinds[n] for n in (9, 10, 11)] == ["A"] * 3
    assert [kinds[n] for n in (12, 13, 14, 15)] == ["B"] * 4
    assert [kinds[n] for n in (16, 17)] == ["C"] * 2
    assert [kinds[n] for n in (18, 19, 20)] == ["D"] * 3
    assert [kinds[n] for n in range(21, 27)] == ["E"] * 6
    assert f3.classify3(27).kind == "A"


def test_classify_consistency_sweep():
    prev = None
    seen_per_r = {}
    for n in range(9, 3 ** 9):
        c = f3.classify3(n)
        assert (c.alpha, c.beta, c.delta) == f3.KIND_TERMS[c.kind]
        assert c.predicted_delta == c.alpha + c.beta + c.delta
        assert c.predicted_delta in (0, 1)
        assert c.alpha == f3.alpha_of(n)
        assert c.beta == f3.beta_of(n)
        assert c.delta == f3.delta_small_of(n)
        assert c.r == floor_log(3, n)
        if prev is not None:
            pr, pk = prev
            assert c.r >= pr
            if c.r == pr:
                assert KIND_ORDER[c.kind] >= KIND_ORDER[pk]
        prev = (c.r, c.kind)
        seen_per_r.setdefault(c.r, set()).add(c.kind)
    for r in range(3, 8):
        assert seen_per_r[r] == set("ABCDE")


def test_predicted_delta_examples():
    for n in range(2, 9):
        assert f3.predicted_delta3(n) == 0
    assert f3.predicted_delta3(9) == 1
    with pytest.raises(ParameterError):
        f3.predicted_delta3(1)


def test_predicted_matches_exact_small():
    for n in range(2, 2001):
        assert f3.predicted_delta3(n) == delta3(n)


def test_boundary_chain():
    for r in range(3, 61):
        assert f3.boundary_chain_ok(r)


def test_boundary_chain_against_high_precision():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        for r in (3, 4, 5, 10, 25, 60):
            a_r = mpmath.power(3, mpmath.mpf(r) / 2)
            b_r = (-3 + mpmath.sqrt(8 * mpmath.power(3, r) + 1)) / 2
            a_r1 = mpmath.power(3, mpmath.mpf(r + 1) / 2)
            assert a_r < b_r < a_r1


def test_block_ordering_constants():
    # a_{2r+1} < 2 a_{2r} and 2 a_{2r} < b_{2r+1}, the two interval cuts not
    # covered by the chain, exactly in integers
    for r in range(2, 40):
        assert 3 ** (2 * r + 1) < 4 * 3 ** (2 * r)
        s = 4 * 3 ** r + 3
        assert s * s < 8 * 3 ** (2 * r + 1) + 1


def _window_boundary_points(r_max=400, reach=3):
    """Every n >= 2 within reach of a_r, b_r, 3^floor(r/2) and 2*3^floor(r/2), r <= r_max."""
    points = set()
    for r in range(r_max + 1):
        t, h = 3 ** r, 3 ** (r // 2)
        for centre in (math.isqrt(t), (math.isqrt(8 * t + 1) - 3) // 2, h, 2 * h):
            points.update(range(max(2, centre - reach), centre + reach + 1))
    return sorted(points)


def test_delta3_matches_prediction_at_window_boundaries():
    # both sides are O(log n), so the claim is checked where the windows
    # change, up to n ~ 10^96, not only on the exhaustive range [2, 10^5]
    points = _window_boundary_points()
    assert points[-1] > 10 ** 95
    assert [n for n in points if delta3(n) != f3.predicted_delta3(n)] == []


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 60))
def test_delta3_matches_prediction_up_to_1e60(n):
    assert delta3(n) == f3.predicted_delta3(n)


def _assert_sweeps_match(lo, hi):
    """Both sweeps over [lo, hi] against the independent oracle and the per-n functions."""
    ns = range(lo, hi + 1)
    exact = [d for a, b, d in defect_runs(3, lo, hi) for _ in range(a, b + 1)]
    assert exact == [naive_defect(3, n) for n in ns]
    assert exact == [delta3(n) for n in ns]
    runs = list(f3.prediction_runs(lo, hi))
    predicted = [(n, kind, p) for a, b, kind, p in runs for n in range(a, b + 1)]
    assert [p for _, _, p in predicted] == exact
    # the prediction runs: in order, covering [lo, hi], one kind each
    assert [(r[0], r[1]) for r in runs] == [(lo, runs[0][1])] + [(a[1] + 1, b[1]) for a, b
                                                                 in zip(runs, runs[1:])]
    assert runs[-1][1] == hi and all(a <= b for a, b, _, _ in runs)
    assert predicted == [(n, f3.classify3(n).kind if n >= 9 else "-", f3.predicted_delta3(n))
                         for n in ns]
    if hi >= 9:
        lo9 = max(lo, 9)
        # classify3 per n is the expansion of the window runs, with the band r
        windows = list(f3.window_runs(lo9, hi))
        assert [tuple(f3.classify3(n)) for n in range(lo9, hi + 1)] == [
            (n, r, kind, *f3.KIND_TERMS[kind], f3.PREDICTED[kind])
            for a, b, r, kind in windows for n in range(a, b + 1)]
        # the window runs are the prediction runs from 9 on
        assert [(a, b, kind, f3.PREDICTED[kind]) for a, b, _, kind in windows] == list(
            f3.prediction_runs(lo9, hi))


def test_sweeps_across_every_window_edge_up_to_r_60():
    # windows straddling 3^r, 2*3^r, ceil(a_r) and ceil(b_r), so every sweep
    # crosses a band or window edge inside its range
    for r in range(61):
        t = 3 ** r
        for centre in (t, 2 * t, math.isqrt(t), (math.isqrt(8 * t + 1) - 3) // 2):
            _assert_sweeps_match(max(2, centre - 5), centre + 5)
    # a sweep over several whole bands
    _assert_sweeps_match(2, 3 ** 8 + 7)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 60), st.integers(min_value=0, max_value=3000))
def test_sweeps_on_random_windows_up_to_1e60(a, length):
    _assert_sweeps_match(a, a + length)


def test_range_validation_and_empty_ranges():
    # a bad lower end is refused when the sweep is made, before any value
    with pytest.raises(ParameterError):
        defect_runs(3, 1, 5)
    with pytest.raises(ParameterError):
        f3.prediction_runs(1, 5)
    with pytest.raises(ParameterError):
        f3.window_runs(8, 20)
    assert list(defect_runs(3, 10, 9)) == []
    assert list(f3.prediction_runs(10, 9)) == []
    assert list(f3.window_runs(10, 9)) == []


def test_window_starts_are_certified_and_ordered():
    for r in range(1, 401):
        power = 3 ** r
        starts = f3.window_starts(r)
        a, b, c, d, e, end = starts
        assert (a, d, end) == (power, 2 * power, 3 * power)
        for t, cmp, s in ((b, f3.cmp_br, 2 * r), (c, f3.cmp_ar, 2 * r + 1),
                          (e, f3.cmp_br, 2 * r + 1)):
            assert cmp(t, s) >= 0 and cmp(t - 1, s) < 0
        assert power <= a <= b <= c <= d <= e < end
    with pytest.raises(ParameterError):
        f3.window_starts(0)
