import itertools
import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sepsym import chi, exactcount, f3
from sepsym.errors import ParameterError
from sepsym.esym import index_set_nq
from sepsym.exactcount import (
    certified_least,
    defect_runs,
    delta3,
    floor_log,
    gamma,
    least_possible_criterion,
    orbit_count,
    size_sq,
)
from sepsym.gf import prime_power
from support import naive_defect

DEFECT_QS = (2, 3, 4, 5, 7, 8, 9, 16)


def test_orbit_count_examples():
    assert orbit_count(2, 3) == 4
    assert orbit_count(3, 9) == 55
    assert orbit_count(3, 5) == 21
    for q, n in ((2, 16), (5, 8), (9, 5)):
        assert orbit_count(q, n) == math.comb(n + q - 1, q - 1)


def test_floor_log_examples():
    assert floor_log(3, 1) == 0
    assert floor_log(3, 144) == 4
    assert floor_log(2, 8) == 3


def test_floor_log_brackets_powers():
    for base in (2, 3, 10):
        for k in range(12):
            m = base ** k
            assert floor_log(base, m) == k
            if m > 1:
                assert floor_log(base, m - 1) == k - 1
            assert floor_log(base, m + 1) == (k + 1 if base ** (k + 1) == m + 1 else k)


def _floor_log_by_products(base, m):
    """The oracle: multiply up from base**0 while the next power is <= m."""
    k, power = 0, base
    while power <= m:
        k, power = k + 1, power * base
    return k


def test_floor_log_at_and_next_to_every_power():
    for base in range(2, 38):
        for k in range(401):
            m = base ** k
            for x in (m - 1, m, m + 1):
                if x >= 1:
                    assert floor_log(base, x) == _floor_log_by_products(base, x), (base, x)


def test_floor_log_where_the_estimate_rounds_up():
    # next to a power of 2 the estimate from bit lengths can come out one
    # above the answer (base 2**60 + 1 at m = 2**60); the exact comparisons
    # take it back
    for base in (2 ** j + d for j in (53, 60, 200) for d in (-1, 1)):
        for k in range(21):
            m = base ** k
            for x in (m - 1, m, m + 1, 2 ** (m.bit_length() - 1)):
                if x >= 1:
                    assert floor_log(base, x) == _floor_log_by_products(base, x), (base, x)


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10 ** 6) | st.integers(2, 10 ** 40), st.integers(1, 10 ** 300))
def test_floor_log_equals_the_product_loop(base, m):
    assert floor_log(base, m) == _floor_log_by_products(base, m)


def test_floor_log_validation():
    with pytest.raises(ParameterError):
        floor_log(3, 0)
    with pytest.raises(ParameterError):
        floor_log(1, 5)


def test_gamma_examples():
    assert gamma(2, 2) == 2
    assert gamma(3, 5) == 3
    assert gamma(3, 9) == 4


def test_gamma_is_exact_ceiling():
    for q in (2, 3, 4, 5, 7, 9, 16):
        for n in range(1, 40):
            k = gamma(q, n)
            M = orbit_count(q, n)
            assert q ** k >= M
            assert k == 0 or q ** (k - 1) < M
            # second formulation
            assert k == floor_log(q, M - 1) + 1


def test_gamma_at_exact_powers():
    # q^k == orbit count must not round up an extra step
    assert orbit_count(2, 3) == 4
    assert gamma(2, 3) == 2
    assert orbit_count(2, 7) == 8
    assert gamma(2, 7) == 3


def test_size_sq_examples():
    assert size_sq(2, 2, 4) == 3
    assert size_sq(3, 3, 9) == 5
    assert size_sq(3, 3, 6) == 4


SIZE_QS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256, 1024)


def test_size_sq_counts_the_index_set():
    for q in SIZE_QS:
        p = prime_power(q)[0]
        for n in range(1, 600):
            assert size_sq(q, p, n) == len(index_set_nq(n, q, p)), (q, n)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(SIZE_QS), st.integers(min_value=1, max_value=10 ** 60))
def test_size_sq_counts_the_index_set_up_to_1e60(q, n):
    p = prime_power(q)[0]
    assert size_sq(q, p, n) == len(index_set_nq(n, q, p))


def test_size_sq_validation():
    for q, p, n in ((4, 2, 0), (6, 2, 5), (9, 2, 5), (8, 4, 5), (1, 2, 5)):
        with pytest.raises(ParameterError):
            size_sq(q, p, n)


def test_n_bounds_gamma_above():
    for q in range(2, 101):
        for n in range(1, 101):
            assert n >= gamma(q, n)


def test_delta3_examples():
    assert delta3(5) == 0
    assert delta3(9) == 1
    assert delta3(12) == 0
    with pytest.raises(ParameterError):
        delta3(1)


def test_delta3_range_of_values():
    for n in range(2, 20001):
        assert delta3(n) in (0, 1)


def test_criterion_examples():
    assert least_possible_criterion(2, 2) is True
    assert least_possible_criterion(2, 3) is False  # 4 < 4 fails
    assert least_possible_criterion(18, 4) is True  # 5832 < 5985


def test_criterion_is_monotone_switch():
    # true on an initial segment of n, false from the first failure onward,
    # scanned across the guaranteed-failure point max(4, q)
    for q in range(2, 201):
        flipped = False
        for n in range(1, max(4, q) + 6):
            value = least_possible_criterion(q, n)
            if flipped:
                assert not value
            elif not value:
                flipped = True
                assert n > 1
        assert flipped


def test_validation():
    with pytest.raises(ParameterError):
        orbit_count(1, 5)
    with pytest.raises(ParameterError):
        orbit_count(3, 0)
    with pytest.raises(ParameterError):
        gamma(2, 0)


def _expand(runs):
    return [d for lo, hi, d in runs for _ in range(lo, hi + 1)]


def _direct(q, n):
    return size_sq(q, prime_power(q)[0], n) - gamma(q, n)


@pytest.mark.parametrize("q", DEFECT_QS)
def test_defect_runs_against_naive_defect(q):
    top = 600
    want = [naive_defect(q, n) for n in range(2, top + 1)]
    runs = list(defect_runs(q, 2, top))
    # maximal runs, in order, covering the range
    assert runs[0][0] == 2 and runs[-1][1] == top
    assert all(lo <= hi for lo, hi, _ in runs)
    for (_, hi, d), (lo, _, d_next) in zip(runs, runs[1:]):
        assert lo == hi + 1 and d != d_next
    assert _expand(runs) == want
    for n_min in (2, 3, 7, 8, 9, 15, 16, 17, 100):
        for n_max in (n_min, n_min + 1, n_min + 40, top):
            assert _expand(defect_runs(q, n_min, n_max)) == want[n_min - 2:n_max - 1]


def _edges(q, top):
    """Every n <= top where a term of the defect can step: each j * p**m (1 <= j < q)
    and each least n with binom(n+q-1, q-1) > q**k."""
    p = prime_power(q)[0]
    points = set()
    for j in range(1, q):
        t = j
        while t <= top:
            points.add(t)
            t *= p
    # binom(lo+q-1, q-1) <= power < binom(hi+q-1, q-1) throughout; each edge
    # lies above the one before, and most below twice it
    power, lo = 1, 0
    while math.comb(top + q - 1, q - 1) > power:
        hi = min(top, 2 * lo + q)
        if math.comb(hi + q - 1, q - 1) <= power:
            hi = top
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if math.comb(mid + q - 1, q - 1) > power else (mid, hi)
        points.add(hi)
        power *= q
        lo = hi - 1
    return sorted(points)


@pytest.mark.parametrize("q", DEFECT_QS)
def test_defect_runs_at_every_edge_up_to_1e60(q):
    # the defect is constant between edges, so comparing n = e - 1 and e
    # with size_sq - gamma at every edge e checks the whole run list (q = 16
    # has about 2300 edges below 10^60)
    top = 10 ** 60
    runs = list(defect_runs(q, 2, top))
    starts = [lo for lo, _, _ in runs]
    for e in _edges(q, top):
        lo = max(2, e - 1)
        want = [_direct(q, n) for n in range(lo, e + 1)]
        assert _expand(defect_runs(q, lo, e)) == want, e
        assert [runs[bisect_right(starts, n) - 1][2] for n in range(lo, e + 1)] == want, e


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(DEFECT_QS), st.integers(min_value=2, max_value=10 ** 60),
       st.integers(min_value=0, max_value=200))
def test_defect_runs_on_random_windows_up_to_1e60(q, a, length):
    assert _expand(defect_runs(q, a, a + length)) == [_direct(q, n)
                                                      for n in range(a, a + length + 1)]


def test_defect_runs_q3_is_delta3():
    # both against size_sq - gamma per n: delta3 is itself the one-row sweep
    want = [_direct(3, n) for n in range(2, 5001)]
    assert _expand(defect_runs(3, 2, 5000)) == want
    assert [delta3(n) for n in range(2, 5001)] == want
    with pytest.raises(ParameterError, match=r"^the defect is defined for n >= 2, got 1$"):
        delta3(1)
    assert [d for _, _, d in defect_runs(3, 2, 10 ** 100)] == [0, 1] * 415 + [0]


def test_defect_runs_validation_and_laziness(monkeypatch):
    for q, n_min in ((6, 2), (1, 2), (12, 5), (3, 1), (16, 0)):
        with pytest.raises(ParameterError):
            defect_runs(q, n_min, 10)
    assert list(defect_runs(3, 10, 9)) == []
    # the size edges come from a heap, never from the index set of n_max
    monkeypatch.setattr(exactcount, "index_set_nq", None)
    assert next(defect_runs(16, 2, 10 ** 1000)) == (2, 3, 0)
    # a gamma edge is searched for only when gamma changes inside the range:
    # binom(12, 2) = 66 and binom(13, 2) = 78 both lie in (3**3, 3**4]
    monkeypatch.setattr(exactcount, "_gamma_edge", None)
    assert list(defect_runs(3, 10, 11)) == [(10, 11, 1)]


def test_negative_defect_is_refused(monkeypatch):
    monkeypatch.setattr(exactcount, "gamma", lambda q, n: n)
    with pytest.raises(RuntimeError):
        list(defect_runs(3, 100, 200))


# (threshold, its nondecreasing predicate, the least integer the code finds for it)
@pytest.mark.parametrize("what, holds, found", [
    pytest.param("chi edge Q_5", lambda q: least_possible_criterion(q, 5),
                 lambda: chi._edge(5), id="chi-edge"),
    pytest.param("gamma edge for q=3", lambda n: orbit_count(3, n) > 3 ** 7,
                 lambda: exactcount._gamma_edge(3, 3 ** 7), id="gamma-edge-3"),
    pytest.param("gamma edge for q=16", lambda n: orbit_count(16, n) > 16 ** 7,
                 lambda: exactcount._gamma_edge(16, 16 ** 7), id="gamma-edge-16"),
    pytest.param("window start at b_6", lambda n: f3.cmp_br(n, 6) >= 0,
                 lambda: f3.window_starts(3)[1], id="window-b6"),
    pytest.param("window start at a_7", lambda n: f3.cmp_ar(n, 7) >= 0,
                 lambda: f3.window_starts(3)[2], id="window-a7"),
    pytest.param("window start at b_7", lambda n: f3.cmp_br(n, 7) >= 0,
                 lambda: f3.window_starts(3)[4], id="window-b7"),
])
def test_certified_least(what, holds, found):
    t = next(n for n in itertools.count(2) if holds(n))
    assert found() == t
    assert certified_least(t, holds, what) == t
    for wrong in (t - 1, t + 1):
        with pytest.raises(RuntimeError, match=f"^{what}: {wrong} is not the least"):
            certified_least(wrong, holds, what)


def test_uncertified_gamma_edge_is_refused(monkeypatch):
    # every edge found is certified: a root bracket that misses the edge
    # ends the bisection at a wrong n, and is refused
    monkeypatch.setattr(exactcount, "_iroot", lambda m, e: m)
    with pytest.raises(RuntimeError, match="gamma edge for q=3"):
        exactcount._gamma_edge(3, 3 ** 7)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 200), st.integers(min_value=1, max_value=15))
def test_iroot_is_the_integer_root(m, e):
    x = exactcount._iroot(m, e)
    assert x ** e <= m < (x + 1) ** e
