"""Interval classification of the ternary defect.

The defect delta3(n) = size_sq(3, 3, n) - gamma(3, n) is predicted without
any counting by locating n between the boundaries

    a_r = 3**(r/2)    and    b_r = (-3 + sqrt(8 * 3**r + 1)) / 2.

Both are irrational for most r, so every membership test is reduced to a
big-integer comparison by monotone squaring: n >= a_r iff n*n >= 3**r, and
n >= b_r iff (2n+3)**2 >= 8*3**r + 1. Integers do land exactly on
boundaries (n = 3**r at even r), which float comparisons would misplace.

For n >= 9, with r chosen so that a_{2r} <= n < a_{2r+2}, the five windows

    A = [a_{2r}, b_{2r})        B = [b_{2r}, a_{2r+1})
    C = [a_{2r+1}, 2*a_{2r})    D = [2*a_{2r}, b_{2r+1})
    E = [b_{2r+1}, a_{2r+2})

carry the term triples below, and the predicted defect is their sum,
1 on A and D and 0 on B, C, E. For 2 <= n <= 8 the defect is constantly 0.

A range of n is classified as runs, one per window it meets. The four
window starts of a band r, the least integers n >= b_{2r}, a_{2r+1},
2*3**r and b_{2r+1}, are computed once with math.isqrt and each is
certified by exactcount.certified_least, the exact comparison at t and
t - 1; a range is then cut at those integers.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from sepsym.errors import ParameterError
from sepsym.exactcount import certified_least, floor_log

# kind -> (alpha, beta, delta)
KIND_TERMS = {
    "A": (0, 0, 1),
    "B": (0, -1, 1),
    "C": (-1, 0, 1),
    "D": (-1, 0, 2),
    "E": (-1, -1, 2),
}
PREDICTED = {kind: sum(terms) for kind, terms in KIND_TERMS.items()}


def _sign(d: int) -> int:
    return (d > 0) - (d < 0)


def cmp_ar(n: int, r: int) -> int:
    """Order of n against a_r = 3**(r/2): -1, 0, or +1, decided exactly."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    return _sign(n * n - 3 ** r)


def cmp_br(n: int, r: int) -> int:
    """Order of n against b_r = (-3 + sqrt(8*3**r + 1))/2, decided exactly.

    n >= b_r iff 2n+3 >= sqrt(8*3**r + 1); both sides are positive, so one
    squaring settles it in integers.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    s = 2 * n + 3
    return _sign(s * s - (8 * 3 ** r + 1))


def alpha_of(n: int) -> int:
    """0 for n in [a_{2r}, a_{2r+1}), -1 for n in [a_{2r+1}, a_{2r+2})."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    r = floor_log(3, n)
    return 0 if cmp_ar(n, 2 * r + 1) < 0 else -1


def beta_of(n: int) -> int:
    """0 for n in [a_r, b_r), -1 for n in [b_r, a_{r+1}); defined for n >= 6."""
    if n < 6:
        raise ParameterError(f"beta is defined for n >= 6, got {n}")
    r = floor_log(3, n * n)
    return 0 if cmp_br(n, r) < 0 else -1


def delta_small_of(n: int) -> int:
    """1 for n in [3**r, 2*3**r), 2 for n in [2*3**r, 3**(r+1))."""
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    r = floor_log(3, n)
    return 1 if n < 2 * 3 ** r else 2


class F3Class(NamedTuple):
    n: int
    r: int
    kind: str
    alpha: int
    beta: int
    delta: int
    predicted_delta: int


@functools.cache
def window_starts(r: int) -> tuple[int, int, int, int, int, int]:
    """(3**r, start of B, C, D, E, 3**(r+1)) for the band 3**r <= n < 3**(r+1), r >= 1.

    Window A runs from the first entry to the second, ..., E from the fifth
    to the last. The starts of B and E are the least n with (2n+3)**2 >=
    8*3**s + 1 (s = 2r, 2r+1), that of C the least n with n*n >= 3**(2r+1).
    Kept per r, so later ranges and per-n calls in the same band reuse them.
    """
    if r < 1:
        raise ParameterError(f"window starts are defined for r >= 1, got {r}")
    power = 3 ** r

    def b_start(s):
        # (2n+3)**2 >= 8*3**s + 1 iff 2n + 3 >= c = ceil(sqrt(8*3**s + 1))
        c = math.isqrt(8 * 3 ** s) + 1
        return certified_least((c - 2) // 2, lambda n: cmp_br(n, s) >= 0,
                               f"window start at b_{s}")

    a_start = certified_least(math.isqrt(3 * power * power - 1) + 1,
                              lambda n: cmp_ar(n, 2 * r + 1) >= 0, f"window start at a_{2 * r + 1}")
    return power, b_start(2 * r), a_start, 2 * power, b_start(2 * r + 1), 3 * power


def _window_runs(n: int, n_max: int):
    """window_runs(n, n_max), without the check on n."""
    r = floor_log(3, n)
    while n <= n_max:
        for kind, end in zip("ABCDE", window_starts(r)[1:]):
            if n < end and n <= n_max:
                yield n, min(end - 1, n_max), r, kind
                n = end
        r += 1


def window_runs(n_min: int, n_max: int):
    """(n_lo, n_hi, r, kind) for the windows met by [n_min, n_max], n_min >= 9, clipped to it.

    In order, one run per window; an empty range yields nothing. n_min is
    checked at the call, before the first run is asked for.
    """
    if n_min < 9:
        raise ParameterError(
            f"interval classification applies for n >= 9; got {n_min} (the defect is 0 below 9)")
    return _window_runs(n_min, n_max)


def classify3(n: int) -> F3Class:
    """Locate n >= 9 in the five-window partition and read off the defect terms."""
    _, _, r, kind = next(window_runs(n, n))
    return F3Class(n, r, kind, *KIND_TERMS[kind], PREDICTED[kind])


def prediction_runs(n_min: int, n_max: int):
    """The predicted defect over [n_min, n_max], n_min >= 2, as runs (n_lo, n_hi, kind, predicted).

    One run per window met, clipped to the range, in order; below 9 the
    kind is "-" and the prediction 0. An empty range yields nothing.
    """
    if n_min < 2:
        raise ParameterError(f"the defect is defined for n >= 2, got {n_min}")
    small = [(n_min, min(n_max, 8), "-", 0)] if n_min <= min(n_max, 8) else []
    return itertools.chain(small, ((lo, hi, kind, PREDICTED[kind]) for lo, hi, _, kind
                                   in _window_runs(max(n_min, 9), n_max)))


def predicted_delta3(n: int) -> int:
    """Interval prediction of the defect: constantly 0 for 2 <= n <= 8, classified above."""
    return next(prediction_runs(n, n))[3]


def boundary_chain_ok(r: int) -> bool:
    """Exact check of a_r < b_r < a_{r+1}; the chain holds for every r >= 3.

    a_r < b_r unwinds to 12*a_r < 4*3**r - 8 and, squaring once more, to
    144*3**r < (4*3**r - 8)**2. For b_r < a_{r+1} the analogous first step
    leaves 8*3**r + 1 - 4*3**(r+1) - 9 on the small side, which is already
    negative; the second squaring is kept for the general shape.
    """
    if r < 0:
        raise ParameterError(f"r must be >= 0, got {r}")
    pw = 3 ** r
    rhs = 4 * pw - 8
    a_lt_b = rhs > 0 and 144 * pw < rhs * rhs
    lhs = 8 * pw + 1 - 12 * pw - 9
    b_lt_a1 = lhs < 0 or lhs * lhs < 144 * 3 * pw
    return a_lt_b and b_lt_a1
