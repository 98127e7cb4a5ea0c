"""Exact crossover thresholds with a certified numeric bracket for the root.

For every integer q >= 2 there is a unique real x_0 > 1 solving

    q**(x-1) == (x/1 + 1) * (x/2 + 1) * ... * (x/(q-1) + 1),

and the counting criterion q**(n-1) < binom(n+q-1, n) holds exactly for the
integers n < x_0. chi_exact finds the largest such n, chi(q), from the edges
Q_n = n! - binom(n, 2) (n >= 3): chi(q) >= n exactly when q >= Q_n, so chi
is 2 plus the number of edges <= q. The criterion is
f_n(q) = q * prod_{i<n} (1 + i/q) > n!, where f_n(1) = n! and
(ln f_n)'(q) = (1/q) * (1 - sum_{i<n} i/(q+i)) with the bracket increasing
in q: f_n falls and then rises, so for each n the criterion holds exactly
for the integers q >= Q_n. Expanding f_n(q) = q + binom(n, 2) + e_2/q + ...
gives the closed form (the remainder at Q_n - 1 is below 1 for n >= 5), and
each edge is certified by two exact criterion evaluations, at Q_n and at
Q_n - 1. x0_bracket then isolates x_0 inside [chi, chi+1] numerically.
Whether x_0 is itself an integer is never decided by float proximity: the
root equals chi+1 exactly when q**chi == binom(chi+q, chi+1), a big-integer
equality.

The bracket is the cell that bisecting [chi, chi+1] down to a width below
TOL/2 would end in, found without bisecting: 2**-30 > TOL/2 >= 2**-31, so
that bisection always halves 31 times and ends in a cell of the grid
chi + m * 2**-31 (exact doubles for chi < 2**21). A secant iteration
estimates x_0, and two gap evaluations confirm its cell: gap < 0 at the low
end and >= 0 at the high end. The computed gap errs by at most 1e-14 and
rises with slope >= 0.36, so at most one grid point, within 3e-14 of x_0,
can carry a wrong sign; the signs along the grid still change exactly once,
and that change is the cell both bisection and the two probes find.

A margin, not the width, certifies the bracket: each end of the cell moves
TOL/4 outward, where |gap| >= 9e-11 >> its 1e-14 error. The argument is made
for q <= MAX_CHI_Q < 2**53, and chi_rows, behind every bracket, refuses more.

chi_rows sweeps q upward in one loop. chi and floor(ln ln q) come as runs
(chi_runs steps chi up by one at each edge; lnln_runs finds each step of
the lower bound by bisection on lnln_floor). Each row estimates its root by
the cubic extrapolation of the last four roots (each interpolated between
its cell's two probes) from the fifth row on, and by a secant at (chi,
chi+1) before. Above q = 64 the loop probes an extrapolated estimate's
interior cell with two _stirling_gap calls, building no gap object, and
yields the row when they straddle zero; every other row (cold, q <= 64, a
miss, or the cell at chi or chi+1) takes _gap(q) to _cell, which gallops
from the estimate. chi_table builds its records from those rows, and
chi_record(q) is the one-row table, so it always starts cold. The start
decides only how many probes are taken; every row equals chi_record's.

Above q = 64 the gap is Stirling's series (_stirling_gap), its remainder
s_q from one int quotient and two float products (_stirling_rest), equal
bit for bit to the three exact int quotients it replaces wherever the
tests check it: every q of the table's range and log-uniform q up to
MAX_CHI_Q.
"""

from __future__ import annotations

import decimal
import math
from functools import partial
from typing import NamedTuple

from sepsym.errors import ParameterError
from sepsym.exactcount import certified_least, common_runs, least_possible_criterion

# chi_rows' q: below 2^53, so q is exact as a float, and the x0 bracket is
# checked against mpmath up to here
MAX_CHI_Q = 10 ** 15
TOL = 1e-9
_MARGIN = TOL / 4  # each end of a bracket moves this far outward
_NEAR_INT_BAND = 1e-9

# Bisecting [c, c+1] to a width below TOL/2 halves 31 times: its cells.
_CELLS = 2 ** 31
_CELL = 1.0 / _CELLS
# The secant stops once its step is 64 times narrower than a cell. The cap
# only bounds the loop: over [2, 10^5] and at 3,000 log-uniform q up to 10^15
# a cold secant evaluates the gap at most 6 times, its two start points
# included.
_SECANT_STOP = _CELL / 64
_SECANT_STEPS = 12
# On [c, c+1] the gap's second derivative is at most pi^2/6 - 1 and its
# slope at least 0.36, so a secant step from errors e0, e1 leaves an error of
# at most 0.9*|e0|*|e1|.
_SECANT_CONTRACTION = 0.9
# chi_table starts a cell search from the cubic extrapolation of the last
# four roots only where it is this close to the quadratic one.
_EXTRAPOLATION_AGREEMENT = 64 * _CELL


class ChiRecord(NamedTuple):
    """Per-q result: exact chi, the root bracket, and the floor(ln ln q) lower bound.

    The fields are in the order of the chi table's columns, so a record is its row.
    """

    q: int
    chi: int
    x0_lo: float
    x0_hi: float
    x0_is_integer: bool
    lower_bound: int


def _edge(n: int) -> int:
    """Q_n = n! - binom(n, 2), the least q with the criterion at n (n >= 3).

    Certified exactly (exactcount.certified_least): for a fixed n the
    criterion holds for all q from its least one on.
    """
    return certified_least(math.factorial(n) - math.comb(n, 2),
                           lambda q: least_possible_criterion(q, n), f"chi edge Q_{n}")


def chi_exact(q: int) -> int:
    """Largest n with q**(n-1) < binom(n+q-1, n): 2 plus the number of edges Q_n <= q.

    The chi of the one run of chi_runs(q, q).
    """
    return next(chi_runs(q, q))[2]


def chi_runs(q_min: int, q_max: int):
    """(lo, hi, chi) on the maximal runs of [q_min, q_max] where chi is constant.

    The criterion holds at n = 2 for every q >= 2, and Q_3 < Q_4 < ...: chi
    starts at 2 and steps up by one at each edge, walked from Q_3, so a run
    ends one below an edge. The edges up to chi(q_max) + 1 are each
    certified once.
    """
    if q_min < 2:
        raise ParameterError(f"q must be >= 2, got {q_min}")
    lo, c, edge = q_min, 2, _edge(3)
    while edge <= q_max:
        if edge > lo:
            yield lo, edge - 1, c
            lo = edge
        c, edge = c + 1, _edge(c + 2)
    yield lo, q_max, c


def _stirling_rest(q: int) -> float:
    """S(q) = 1/(12q) - 1/(360q^3) + 1/(1260q^5), the remainder of lgamma(q), for q > 64.

    1/(12q) is an int quotient, so correctly rounded; the two smaller terms
    come from float products of q, never from ** (float ** goes through
    libm's pow, which can differ between platforms). The sum equals the one
    from three exact int quotients bit for bit: tests/test_chi.py checks
    every q in [65, 10^6] and log-uniform q up to MAX_CHI_Q.
    """
    f = float(q)
    f3 = f * f * f
    return 1 / (12 * q) - 1.0 / (360.0 * f3) + 1.0 / (1260.0 * f3 * f * f)


def _stirling_gap(q: int, ln_q: float, s_q: float, x: float) -> float:
    """root_gap(q, x) by Stirling's series (Abramowitz & Stegun 6.1.41), for q > 64.

    ln_q = log(q) and s_q = _stirling_rest(q) are the terms in q alone.
    """
    r = 1.0 / (q + x)
    return (x + math.lgamma(x + 1.0) - ln_q - (q + x - 0.5) * math.log1p(x / q)
            - (r * (1 / 12 - r * r * (1 / 360 - r * r / 1260)) - s_q))


def _gap(q: int):
    """x -> root_gap(q, x), with the terms in q alone computed once.

    Neither form subtracts two numbers of size q*ln(q): a compensated sum up
    to q = 64, _stirling_gap above it.
    """
    ln_q = math.log(q)
    if q <= 64:
        return lambda x: (x - 1.0) * ln_q - math.fsum(math.log1p(x / i) for i in range(1, q))
    return partial(_stirling_gap, q, ln_q, _stirling_rest(q))


def root_gap(q: int, x: float) -> float:
    """(x-1)*ln(q) - sum_{i=1}^{q-1} ln(x/i + 1); negative below the root, positive above."""
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    return _gap(q)(x)


def _at(gap, c: int, i: int) -> float:
    """gap at the grid point c + i*_CELL; -inf at or below c, inf at or above c+1 (not read)."""
    if i <= 0:
        return -math.inf
    return gap(c + i * _CELL) if i < _CELLS else math.inf


def _cell(gap, c: int, x_hat: float):
    """(lo, hi, root): the grid cell [c + m*_CELL, c + (m+1)*_CELL] where gap changes sign.

    Starts in the cell holding x_hat (clamped to [c, c+1]) and probes its two
    ends. Unless they straddle the sign change, it gallops toward it with
    doubling steps and bisects the grid points between, so an estimate d
    cells off costs about 2*log2(d) probes. Like bisection, it never
    evaluates c or c+1. root lies in the cell: the zero of the line through
    the gap at its two ends, or the cell's midpoint when one end is c or c+1.
    chi_rows probes an extrapolated interior start cell above q = 64 itself
    and calls this for every other row and on a miss.
    """
    m = (x_hat - c) * _CELLS
    lo = int(m) if 1.0 <= m < _CELLS - 1 else (0 if m < 1.0 else _CELLS - 1)
    g_lo, g_hi = _at(gap, c, lo), _at(gap, c, lo + 1)
    hi, step = lo + 1, 1
    while g_lo >= 0.0:
        hi, g_hi, lo, step = lo, g_lo, max(lo - step, 0), 2 * step
        g_lo = _at(gap, c, lo)
    while g_hi < 0.0:
        lo, g_lo, hi, step = hi, g_hi, min(hi + step, _CELLS), 2 * step
        g_hi = _at(gap, c, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        g = gap(c + mid * _CELL)
        if g < 0.0:
            lo, g_lo = mid, g
        else:
            hi, g_hi = mid, g
    x = c + lo * _CELL
    t = g_lo / (g_lo - g_hi) if math.isfinite(g_lo) and math.isfinite(g_hi) else 0.5
    return x, x + _CELL, x + t * _CELL


def _secant(gap, c: int) -> float:
    """The root in [c, c+1] estimated by a secant iteration from (c, c+1).

    The gap is convex, with second derivative sum 1/(x+i)**2, so the
    iteration converges from the bracket. It stops once its step, or the
    error bound of the point it stepped to, is below _SECANT_STOP.
    """
    x0, x1 = float(c), float(c + 1)
    g0, g1 = gap(x0), gap(x1)
    for _ in range(_SECANT_STEPS):
        if g1 == g0:
            break
        step = g1 * (x1 - x0) / (g1 - g0)
        # |e1| is about |step| and |e0| about |step| + |x1 - x0|
        error = _SECANT_CONTRACTION * abs(step) * (abs(step) + abs(x1 - x0))
        x0, g0, x1 = x1, g1, x1 - step
        if abs(step) < _SECANT_STOP or error < _SECANT_STOP:
            break
        g1 = gap(x1)
    return x1


def _from_cell(q: int, c: int, lo: float, hi: float):
    """(x0_lo, x0_hi, x0_is_integer) from the sign-change cell [lo, hi] of _cell in [c, c+1].

    Each end moves TOL/4 outward: the gap has slope >= 0.36 on [c, c+1]
    (least at q = 2) and an error near 1e-14, so each moved end has
    |gap| >= 9e-11 on its own side of the root. An integer root c+1
    (q**c == binom(c+q, c+1)) ends strictly inside; other brackets are
    clamped to [c, c+1], and as TOL/4 < _CELL only an end at c or c+1 is
    clamped: it stays where it is. Only the last cell, the one with
    hi = c+1, can hold an integer root, so the exact test runs there alone.
    """
    x0_lo = lo - _MARGIN if lo > c else lo
    if hi < c + 1:
        return x0_lo, hi + _MARGIN, False
    if q ** c == math.comb(c + q, c + 1):
        return x0_lo, hi + _MARGIN, True
    return x0_lo, hi, False


def x0_bracket(q: int):
    """(x0_lo, x0_hi, x0_is_integer) with x0_lo < x_0 < x0_hi and width <= TOL."""
    return chi_record(q)[2:5]


def lnln_floor(q: int) -> int:
    """floor(ln(ln q)), with a guard band around integer boundaries.

    When the float value sits within 1e-9 of an integer k, the floor is
    decided by comparing ln q with e**k in decimal, whose ln and exp are
    correctly rounded, at 30 digits more than q has, so that neither double
    rounding nor a rounded q can move the cutoff.
    """
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    v = math.log(math.log(q))
    k = round(v)
    if abs(v - k) <= _NEAR_INT_BAND:
        with decimal.localcontext() as ctx:
            ctx.prec = len(str(q)) + 30
            return k if decimal.Decimal(q).ln() >= decimal.Decimal(k).exp() else k - 1
    return math.floor(v)


def lnln_runs(q_min: int, q_max: int):
    """(lo, hi, k) on the maximal runs of [q_min, q_max] where lnln_floor is k.

    Each run's end is found by bisection on the integers with lnln_floor
    itself as the key, never from a float e**(e**k): a run costs about
    log2(q_max - lo) calls, for a range of any length.
    """
    lo = q_min
    while lo <= q_max:
        k, hi, top = lnln_floor(lo), lo, q_max  # the run ends in [hi, top]
        while hi < top:
            mid = (hi + top + 1) // 2
            hi, top = (hi, mid - 1) if lnln_floor(mid) > k else (mid, top)
        yield lo, hi, k
        lo = hi + 1


def chi_record(q: int) -> ChiRecord:
    """The full per-q record: exact chi, root bracket, and lower bound; chi_table(q, q)[0]."""
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    return chi_table(q, q)[0]


def _extrapolate(c: int, r1: float, r2: float, r3: float, r4: float):
    """The next root, 4*r1 - 6*r2 + 4*r3 - r4 from the last four (r1 the latest), or None.

    None unless it lies in [c, c+1] and within _EXTRAPOLATION_AGREEMENT of
    the quadratic extrapolation 3*r1 - 3*r2 + r3.
    """
    x = 4.0 * r1 - 6.0 * r2 + 4.0 * r3 - r4
    if c <= x <= c + 1 and abs(x - (3.0 * r1 - 3.0 * r2 + r3)) <= _EXTRAPOLATION_AGREEMENT:
        return x
    return None


def chi_rows(q_min: int, q_max: int):
    """The row (q, chi, x0_lo, x0_hi, x0_is_integer, lnln_floor) of each q in [q_min, q_max].

    Plain tuples in ChiRecord's field order, from one upward sweep over the
    common runs of chi and the lower bound (chi_runs, lnln_runs). Each row
    starts from the root that _extrapolate gives from the last four rows'
    roots, if it gives one, and else from the cold secant's estimate. Above
    q = 64 the loop probes an extrapolated interior start cell itself, with
    no gap object; _cell takes the rest, and the misses, with _gap(q).
    """
    if q_min < 2 or q_min > q_max:
        raise ParameterError(f"require 2 <= q_min <= q_max, got [{q_min}, {q_max}]")
    if q_max > MAX_CHI_Q:
        raise ParameterError(f"q above the supported cap {MAX_CHI_Q}")
    r1 = r2 = r3 = r4 = None
    for lo, hi, c, k in common_runs(chi_runs(q_min, q_max), lnln_runs(q_min, q_max)):
        for q in range(lo, hi + 1):
            x_hat = None if r4 is None else _extrapolate(c, r1, r2, r3, r4)
            # an estimate in an interior cell, above q = 64: most rows end at its two probes
            m = (x_hat - c) * _CELLS if x_hat is not None and q > 64 else 0.0
            if 1.0 <= m < _CELLS - 1:
                ln_q, s_q, x = math.log(q), _stirling_rest(q), c + int(m) * _CELL
                g_lo, g_hi = _stirling_gap(q, ln_q, s_q, x), _stirling_gap(q, ln_q, s_q, x + _CELL)
                if g_lo < 0.0 <= g_hi:
                    # _from_cell's row: c < x and x + _CELL < c + 1, so no integer root
                    yield (q, c, x - _MARGIN, x + _CELL + _MARGIN, False, k)
                    r1, r2, r3, r4 = x + g_lo / (g_lo - g_hi) * _CELL, r1, r2, r3
                    continue
            gap = _gap(q)
            x_lo, x_hi, root = _cell(gap, c, x_hat or _secant(gap, c))
            yield (q, c, *_from_cell(q, c, x_lo, x_hi), k)
            r1, r2, r3, r4 = root, r1, r2, r3


def chi_table(q_min: int, q_max: int) -> list[ChiRecord]:
    """ChiRecord for every q in [q_min, q_max], ordered by q: the rows of chi_rows."""
    return list(map(ChiRecord._make, chi_rows(q_min, q_max)))
