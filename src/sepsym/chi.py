"""Exact crossover thresholds with a certified numeric bracket for the root.

For every integer q >= 2 there is a unique real x_0 > 1 solving

    q**(x-1) == (x/1 + 1) * (x/2 + 1) * ... * (x/(q-1) + 1),

and the counting criterion q**(n-1) < binom(n+q-1, n) holds exactly for the
integers n < x_0. chi_exact finds the largest such n by exact integer
comparisons; x0_bracket then isolates x_0 inside [chi, chi+1] numerically.
Whether x_0 is itself an integer is never decided by float proximity: the
root equals chi+1 exactly when q**chi == binom(chi+q, chi+1), a big-integer
equality.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

from sepsym.errors import ParameterError
from sepsym.exactcount import least_possible_criterion

DEFAULT_TOL = 1e-9
MIN_TOL = 1e-12
_BISECT_CAP = 200
_NEAR_INT_BAND = 1e-9

# Validity threshold of the auxiliary positivity check: e**(e**2) ~ 1618.18.
EE2 = math.exp(math.exp(2.0))


@dataclass(frozen=True)
class ChiRecord:
    """Per-q result: exact chi, the root bracket, and the floor(ln ln q) lower bound."""

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
    n = 1
    while least_possible_criterion(q, n + 1):
        n += 1
    return n


def root_gap(q: int, x: float) -> float:
    """(x-1)*ln(q) - sum_{i=1}^{q-1} ln(x/i + 1); negative below the root, positive above.

    The sum telescopes: sum ln((x+i)/i) = lgamma(x+q) - lgamma(x+1) - lgamma(q),
    which keeps each evaluation O(1) and free of overflow however large q gets.
    """
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    return (x - 1.0) * math.log(q) - (
        math.lgamma(x + q) - math.lgamma(x + 1.0) - math.lgamma(q)
    )


def _bracket(q: int, c: int, tol: float):
    """Bracket the root inside [c, c+1], where c == chi_exact(q)."""
    m = c + 1
    if q ** (m - 1) == math.comb(m + q - 1, m):
        # The root is the integer m exactly. Bisection cannot strictly
        # contain an endpoint root, so return a straddling bracket instead;
        # quarter-tol half-width keeps the width under tol after rounding.
        half = tol / 4.0
        return (m - half, m + half, True)
    lo, hi = float(c), float(m)
    for _ in range(_BISECT_CAP):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        if root_gap(q, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return (lo, hi, False)


def _check_tol(tol: float):
    if not tol >= MIN_TOL:
        raise ParameterError(f"tolerance must be >= {MIN_TOL}, got {tol}")


def x0_bracket(q: int, tol: float = DEFAULT_TOL):
    """(x0_lo, x0_hi, x0_is_integer) with x0_lo < x_0 < x0_hi and width <= tol."""
    _check_tol(tol)
    return _bracket(q, chi_exact(q), tol)


def lnln_floor(q: int) -> int:
    """floor(ln(ln q)), with a guard band around integer boundaries.

    When the float value sits within 1e-9 of an integer the floor is
    re-derived at 50 significant digits so the cutoff cannot be decided by
    double rounding.
    """
    if q < 2:
        raise ParameterError(f"q must be >= 2, got {q}")
    v = math.log(math.log(q))
    if abs(v - round(v)) <= _NEAR_INT_BAND:
        import mpmath

        with mpmath.workdps(50):
            return int(mpmath.floor(mpmath.log(mpmath.log(q))))
    return math.floor(v)


def chi_record(q: int, tol: float = DEFAULT_TOL) -> ChiRecord:
    """The full per-q record: exact chi, root bracket, and lower bound."""
    _check_tol(tol)
    c = chi_exact(q)
    lo, hi, is_int = _bracket(q, c, tol)
    return ChiRecord(q=q, chi=c, x0_lo=lo, x0_hi=hi, x0_is_integer=is_int,
                     lower_bound=lnln_floor(q))


def chi_table(q_min: int, q_max: int, tol: float = DEFAULT_TOL,
              jobs: int = 1) -> list[ChiRecord]:
    """ChiRecord for every q in [q_min, q_max], ordered by q.

    With jobs > 1 the independent q values are fanned out across worker
    processes, at most one per row and per CPU; the output order stays by q
    regardless of completion order.
    """
    if q_min < 2 or q_min > q_max:
        raise ParameterError(f"require 2 <= q_min <= q_max, got [{q_min}, {q_max}]")
    qs = range(q_min, q_max + 1)
    # the pool starts all its workers at once, so never ask for more than can run
    jobs = min(jobs, len(qs), os.cpu_count() or 1)
    if jobs > 1:
        worker = partial(chi_record, tol=tol)
        chunk = max(1, len(qs) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, qs, chunksize=chunk))
    return [chi_record(q, tol) for q in qs]


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
