"""A fixed pure-Python loop that measures how fast this machine runs right now.

On a shared machine other tenants slow every process by up to half, for
minutes at a time. A loop of the same kind of work as sepsym (tuple keys,
dict updates, small-int arithmetic), timed right next to each measured
invocation, slows by the same factor, so the ratio of the two times
stays put while either time alone drifts. run.py and worker.py report
times as ratio * REFERENCE_S: seconds at the speed this machine runs when
idle. The loop never touches sepsym, so a change to the program moves the
ratio in full.
"""

from time import perf_counter

# Fastest time of loop() seen on an idle core of the 2-core reference
# machine (Python 3.11); it only converts ratios into seconds.
REFERENCE_S = 0.0056


def loop() -> int:
    d = {}
    for i in range(30_000):
        key = (i & 63, (i >> 6) & 63)
        d[key] = d.get(key, 0) + i * 3 % 7
    return len(d)


def timed() -> float:
    """Seconds one loop() takes now."""
    t0 = perf_counter()
    loop()
    return perf_counter() - t0


def reference_seconds(times, cals) -> list[float]:
    """Measured times at the machine's idle speed, each against the loop time beside it."""
    return [t * REFERENCE_S / c for t, c in zip(times, cals)]
