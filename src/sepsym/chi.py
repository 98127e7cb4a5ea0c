"""Exact crossover thresholds with a certified numeric bracket for the root.

For every integer q >= 2 there is a unique real x_0 > 1 solving

    q**(x-1) == (x/1 + 1) * (x/2 + 1) * ... * (x/(q-1) + 1),

and the counting criterion q**(n-1) < binom(n+q-1, n) holds exactly for the
integers n < x_0. chi_exact finds the largest such n by exact integer
comparisons; x0_bracket then isolates x_0 inside [chi, chi+1] numerically.
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
TOL/4 outward, where |gap| >= 9e-11 >> its 1e-14 error.

chi, chi_record and x0_bracket start cold for each q: the scan from n = 1,
the secant from (chi, chi+1). chi_table sweeps q upward and starts warm:
each scan from the previous q's chi, each secant (from the third row on)
next to the root extrapolated from the last two rows. The start decides
only how many steps and probes are taken; every record equals chi_record's.
"""

from __future__ import annotations

import decimal
import math
from typing import NamedTuple

from sepsym.errors import ParameterError
from sepsym.exactcount import least_possible_criterion

TOL = 1e-9
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
# The width of a warm secant's start pair: its two gap values differ by at
# least 0.36 * 2^-24 ~ 2e-8, far above their 1e-14 error.
_WARM_WIDTH = 2.0 ** -24

# Validity threshold of the auxiliary positivity check: e**(e**2) ~ 1618.18.
EE2 = math.exp(math.exp(2.0))


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


def chi_exact(q: int) -> int:
    """Largest n with q**(n-1) < binom(n+q-1, n), by upward scan from n = 1.

    The criterion holds at n = 1 for every q >= 2 and fails from some point
    on (at n = max(4, q) at the latest), so the scan terminates.
    """
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    return _scan_up(q, 1)


def _scan_up(q: int, n: int) -> int:
    """Largest chi >= n with the criterion at chi, given that it holds at n."""
    while least_possible_criterion(q, n + 1):
        n += 1
    return n


def chi_sweep(q_min: int, q_max: int):
    """(q, chi_exact(q)) for q = q_min..q_max, each scan started from the previous q's chi.

    The criterion holds exactly for the integers n < x_0 (the gap is convex
    and negative at x = 1), so where it holds at the previous chi the scan
    steps up from there, and elsewhere it starts again from n = 1.
    """
    c = 1
    for q in range(q_min, q_max + 1):
        if not least_possible_criterion(q, c):
            c = 1
        c = _scan_up(q, c)
        yield q, c


def _gap(q: int):
    """x -> root_gap(q, x), with the terms in q alone computed once.

    Neither form subtracts two numbers of size q*ln(q): a compensated sum up
    to q = 64, Stirling's series (Abramowitz & Stegun 6.1.41) above it.
    """
    ln_q = math.log(q)
    if q <= 64:
        return lambda x: (x - 1.0) * ln_q - math.fsum(math.log1p(x / i) for i in range(1, q))
    # S(z) = 1/(12z) - 1/(360z^3) + 1/(1260z^5), the remainder of lgamma(z)
    s_q = 1 / (12 * q) - 1 / (360 * q ** 3) + 1 / (1260 * q ** 5)

    def gap(x: float) -> float:
        r = 1.0 / (q + x)
        return (x + math.lgamma(x + 1.0) - ln_q - (q + x - 0.5) * math.log1p(x / q)
                - (r * (1 / 12 - r * r * (1 / 360 - r * r / 1260)) - s_q))
    return gap


def root_gap(q: int, x: float) -> float:
    """(x-1)*ln(q) - sum_{i=1}^{q-1} ln(x/i + 1); negative below the root, positive above."""
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    return _gap(q)(x)


def _below(gap, c: int, i: int) -> bool:
    """gap < 0 at the grid point c + i*_CELL, with gap(c) < 0 <= gap(c+1) given."""
    return i <= 0 or (i < _CELLS and gap(c + i * _CELL) < 0.0)


def _cell(gap, c: int, x_hat: float):
    """The grid cell [c + m*_CELL, c + (m+1)*_CELL] where gap changes sign, searched from x_hat.

    Starts in the cell holding x_hat (clamped to [c, c+1]); when its two
    probes do not show the sign change, gallops toward it with doubling
    steps and bisects the grid points between, so an estimate d cells off
    costs about 2*log2(d) probes. Like bisection, it never evaluates c or
    c+1: gap(c) < 0 and gap(c+1) >= 0 are given.
    """
    lo = min(max(math.floor((x_hat - c) * _CELLS), 0), _CELLS - 1)
    hi, step = lo + 1, 1
    if lo > 0 and gap(c + lo * _CELL) >= 0.0:
        while True:
            hi, lo, step = lo, max(lo - step, 0), 2 * step
            if _below(gap, c, lo):
                break
    elif hi < _CELLS and gap(c + hi * _CELL) < 0.0:
        while True:
            lo, hi, step = hi, min(hi + step, _CELLS), 2 * step
            if not _below(gap, c, hi):
                break
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _below(gap, c, mid):
            lo = mid
        else:
            hi = mid
    x = c + lo * _CELL
    return x, x + _CELL


def _bracket(q: int, c: int, start=None):
    """Bracket the root inside [c, c+1], where c == chi_exact(q).

    A secant iteration from the pair start, or else from (c, c+1), estimates
    the root (the gap is convex, with second derivative sum 1/(x+i)**2, so it
    converges from the bracket), and _cell confirms the grid cell of width
    _CELL < TOL/2 around it: the cell bisection would end in. The secant
    stops once its step, or the error bound of the point it stepped to, is
    below _SECANT_STOP; the start changes only how many evaluations it and
    _cell take, never the cell. Then each end moves TOL/4 outward:
    the gap has slope >= 0.36 on [c, c+1] (least at q = 2) and an error near
    1e-14, so each moved end has |gap| >= 9e-11 on its own side of the root.
    An integer root c+1 (q**c == binom(c+q, c+1)) ends strictly inside;
    other brackets are clamped to [c, c+1].
    """
    gap = _gap(q)
    x0, x1 = start or (float(c), float(c + 1))
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
    lo, hi = _cell(gap, c, x1)
    lo, hi = lo - TOL / 4, hi + TOL / 4
    if q ** c == math.comb(c + q, c + 1):
        return (lo, hi, True)
    return (max(lo, float(c)), min(hi, float(c + 1)), False)


def x0_bracket(q: int):
    """(x0_lo, x0_hi, x0_is_integer) with x0_lo < x_0 < x0_hi and width <= TOL."""
    return _bracket(q, chi_exact(q))


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


def chi_record(q: int) -> ChiRecord:
    """The full per-q record: exact chi, root bracket, and lower bound."""
    c = chi_exact(q)
    lo, hi, is_int = _bracket(q, c)
    return ChiRecord(q, c, lo, hi, is_int, lnln_floor(q))


def _warm_start(c: int, r1: float, r2: float):
    """A secant start pair at 2*r1 - r2, extrapolated from the previous two roots r1 and r2.

    The pair is clamped into [c, c+1].
    """
    x = min(max(2.0 * r1 - r2, float(c)), c + 1.0 - _WARM_WIDTH)
    return x, x + _WARM_WIDTH


def chi_table(q_min: int, q_max: int) -> list[ChiRecord]:
    """ChiRecord for every q in [q_min, q_max], ordered by q; each equals chi_record(q).

    One upward sweep: chi comes from chi_sweep, and from the third row on the
    secant starts next to the root extrapolated from the midpoints of the
    previous two brackets.
    """
    if q_min < 2 or q_min > q_max:
        raise ParameterError(f"require 2 <= q_min <= q_max, got [{q_min}, {q_max}]")
    records = []
    r1 = r2 = None
    for q, c in chi_sweep(q_min, q_max):
        lo, hi, is_int = _bracket(q, c, None if r2 is None else _warm_start(c, r1, r2))
        records.append(ChiRecord(q, c, lo, hi, is_int, lnln_floor(q)))
        r1, r2 = 0.5 * (lo + hi), r1
    return records


def technical_expression(q: float) -> float:
    """ln(q) - (2*ln(ln q) + 1) * ln(ln(ln q)), defined for q >= e**(e**2)."""
    if q < EE2:
        raise ParameterError(
            f"grid point {q} below the validity threshold e**(e**2) ~ {EE2:.2f}")
    a = math.log(q)
    b = math.log(a)
    return a - (2.0 * b + 1.0) * math.log(b)


def technical_inequality_check(q_grid) -> list[bool]:
    """Positivity of technical_expression at each grid point."""
    return [technical_expression(q) > 0.0 for q in q_grid]
