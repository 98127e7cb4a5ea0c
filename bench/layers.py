"""Per-layer timing and counts, taken by wrapping sepsym's public functions from outside.

Each wrapped function opens a span named after its layer. A span's
inclusive time is its duration; its self time is that minus the time of the
wrapped calls made inside it. A call into the layer already on top of the
stack (delta3 calling gamma, predicted_delta3 calling classify3) is counted
but opens no new span. Names are patched where they are looked up: a
module that imported a function by name holds its own reference, so
``separating.esym_all`` is patched as well as ``esym.esym_all``.

A wrapper costs time, and a wrapped call made inside a span would add that
cost to the span: esym_all makes hundreds of thousands of wrapped
FieldSpec.add/mul calls per round. So every wrapper adds its own cost to a
running total, the debt: the part it clocks itself, plus a constant for
the part it cannot clock (entering and leaving the wrapper, half of each
clock reading), which calibrate() measures on no-op functions. A span
subtracts from its duration the debt that the calls inside it ran up. The
reported times keep only the error of those constants; trace.overhead_s
is the whole cost of tracing.

Only aggregates are kept (totals per span name and counters), since the
brute-force layers make millions of calls per round.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter

CALIBRATION_CALLS = 2000
CALIBRATION_TRIALS = 5


def _esym_steps(args) -> int:
    """Inner-loop steps of esym_all's convolution: i + 1 for each nonzero v[i]."""
    return sum(i + 1 for i, x in enumerate(args[0]) if x)


def _noop(a, b):
    return None


def _items(a, b):
    yield from range(CALIBRATION_CALLS)


def _calls(fn) -> float:
    t0 = perf_counter()
    for _ in range(CALIBRATION_CALLS):
        fn(1, 2)
    return perf_counter() - t0


def _iterate(it) -> float:
    t0 = perf_counter()
    for _ in it:
        pass
    return perf_counter() - t0


class Tracer:
    def __init__(self):
        self.stack = []
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self.debt = [0.0]
        # kind -> (unclocked cost per call, clock overhead inside a clocked call)
        self.costs = {}
        self._patches = []

    def reset(self):
        self.inclusive.clear()
        self.self_time.clear()
        self.counts.clear()

    # ------------------------------------------------------------ wrapping --

    def _span(self, fn, name, counter=None, steps=None, after=None):
        stack, counts, debt = self.stack, self.counts, self.debt
        inclusive, self_time = self.inclusive, self.self_time
        cost, slop = self.costs.get("span", (0.0, 0.0))

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            if counter:
                counts[counter] += 1
            if steps:
                counts[steps] += _esym_steps(args)
            opens = not stack or stack[-1][0] != name
            if opens:
                frame = [name, 0.0]
                stack.append(frame)
            d0 = debt[0]
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                if opens:
                    took = t1 - t0 - slop - (debt[0] - d0)
                    stack.pop()
                    inclusive[name] += took
                    self_time[name] += took - frame[1]
                    if stack:
                        stack[-1][1] += took
            if after:
                after(result)
            debt[0] += perf_counter() - t_in - (t1 - t0) + cost
            return result

        return wrapper

    def _count(self, fn, counter):
        counts, debt = self.counts, self.debt
        cost = self.costs.get("count", (0.0, 0.0))[0]

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            debt[0] += cost
            return fn(*args, **kwargs)

        return wrapper

    def _iterator(self, fn, name, counter):
        """Time the creation and every next() of the iterator fn returns."""
        stack, counts, debt = self.stack, self.counts, self.debt
        inclusive, self_time = self.inclusive, self.self_time
        call_cost, call_slop = self.costs.get("call", (0.0, 0.0))
        next_cost, next_slop = self.costs.get("next", (0.0, 0.0))

        def timed(it):
            nxt = it.__next__
            total = 0.0
            items = 0
            try:
                while True:
                    t_in = perf_counter()
                    d0 = debt[0]
                    t0 = perf_counter()
                    try:
                        item = nxt()
                    except StopIteration:
                        return
                    t1 = perf_counter()
                    took = t1 - t0 - next_slop - (debt[0] - d0)
                    total += took
                    items += 1
                    if stack:
                        stack[-1][1] += took
                    debt[0] += perf_counter() - t_in - (t1 - t0) + next_cost
                    yield item
            finally:
                inclusive[name] += total
                self_time[name] += total
                counts[counter] += items

        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            d0 = debt[0]
            t0 = perf_counter()
            it = fn(*args, **kwargs)
            t1 = perf_counter()
            took = t1 - t0 - call_slop - (debt[0] - d0)
            inclusive[name] += took
            self_time[name] += took
            if stack:
                stack[-1][1] += took
            gen = timed(it)
            debt[0] += perf_counter() - t_in - (t1 - t0) + call_cost
            return gen

        return wrapper

    def calibrate(self):
        """Measure, on no-op functions, what each kind of wrapper costs beyond what it clocks.

        For each kind, (unclocked cost, slop): the wrapped call's time less
        the direct call's and less the debt it clocked, and the time the
        wrapper clocks as the call's own less the direct call's. Medians of
        CALIBRATION_TRIALS trials of CALIBRATION_CALLS calls.
        """
        n = CALIBRATION_CALLS
        self.costs = {}
        trials = defaultdict(list)

        def trial(kind, wrapped_s, direct_s, d0):
            inner = self.inclusive.pop("calibration", 0.0)
            trials[kind].append(((wrapped_s - direct_s - (self.debt[0] - d0)) / n,
                                 (inner - direct_s) / n))

        for _ in range(CALIBRATION_TRIALS):
            empty = _iterate(range(n))
            for kind, wrapper in (("span", self._span(_noop, "calibration")),
                                  ("count", self._count(_noop, "calibration")),
                                  ("call", self._iterator(_items, "calibration", "calibration"))):
                direct = _calls(_items if kind == "call" else _noop) - empty
                d0 = self.debt[0]
                trial(kind, _calls(wrapper) - empty, direct, d0)
            it = self._iterator(_items, "calibration", "calibration")(1, 2)
            self.inclusive.pop("calibration")
            direct = _iterate(_items(1, 2)) - empty
            d0 = self.debt[0]
            trial("next", _iterate(it) - empty, direct, d0)
        self.costs = {kind: (statistics.median(c for c, _ in t), statistics.median(s for _, s in t))
                      for kind, t in trials.items()}
        self.reset()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(self, owner, attr, name, counter=None, steps=None, after=None):
        """Time every call of owner.attr as a span; optionally count calls, steps, results."""
        self._patch(owner, attr, self._span(getattr(owner, attr), name, counter, steps, after))

    def count(self, owner, attr, counter):
        self._patch(owner, attr, self._count(getattr(owner, attr), counter))

    def iterator(self, owner, attr, name, counter):
        self._patch(owner, attr, self._iterator(getattr(owner, attr), name, counter))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------- sepsym --

    def install(self):
        """Calibrate, then wrap every layer of sepsym; undo with uninstall()."""
        import mpmath

        from sepsym import chi, cli, esym, exactcount, f3, gf, orbits, separating

        self.calibrate()
        counts = self.counts

        def after_scan(verdict):
            counts["separating.scans"] += 1
            counts["separating.separating"] += verdict.separating
            counts["separating.fingerprints"] += verdict.fingerprint_count
            if any(frame[0] == "separating.search" for frame in self.stack):
                counts["separating.subsets_tried"] += 1

        self.span(cli, "main", "cli")
        for attr in ("field_for_order", "make_field"):
            self.span(gf, attr, "gf.build")
        self.span(gf.FieldSpec, "add", "gf.arith", counter="gf.add_calls")
        self.span(gf.FieldSpec, "mul", "gf.arith", counter="gf.mul_calls")
        for owner in (orbits, separating, cli):
            self.iterator(owner, "enumerate_orbits", "orbits", "orbits.reps")
        for owner in (esym, separating):
            self.span(owner, "esym_all", "esym", counter="esym.calls", steps="esym.steps")
        self.span(separating, "check_separating", "separating.scan", after=after_scan)
        self.span(separating, "check_minimal", "separating.minimal")
        self.span(separating, "min_separating_size", "separating.search")
        self.span(chi, "chi_exact", "chi.scan")
        self.span(chi, "chi_record", "chi.record")
        self.span(chi, "lnln_floor", "chi.lnln")
        self.count(chi, "root_gap", "chi.root_gap_calls")
        self.count(mpmath, "workdps", "chi.mp_rechecks")
        self.span(chi, "least_possible_criterion", "exactcount", counter="chi.criterion_calls")
        for attr in ("orbit_count", "floor_log", "gamma", "size_sq", "delta3",
                     "least_possible_criterion"):
            self.span(exactcount, attr, "exactcount")
        self.span(separating, "gamma", "exactcount")
        self.span(f3, "floor_log", "exactcount")
        for attr in ("cmp_ar", "cmp_br", "alpha_of", "beta_of", "delta_small_of",
                     "classify3", "predicted_delta3", "boundary_chain_ok"):
            self.span(f3, attr, "f3", counter="f3.calls")

    def metrics(self) -> dict:
        """The per-layer metrics of what ran since the last reset, by name."""
        inc, own, n = self.inclusive, self.self_time, self.counts
        scans = n["separating.scans"]
        return {
            "gf.add_calls": n["gf.add_calls"],
            "gf.mul_calls": n["gf.mul_calls"],
            "gf.arith_s": inc["gf.arith"],
            "orbits.reps": n["orbits.reps"],
            "orbits.s": inc["orbits"],
            "esym.calls": n["esym.calls"],
            "esym.s": inc["esym"],
            "esym.steps": n["esym.steps"],
            "separating.scans": scans,
            "separating.self_s": own["separating.scan"],
            "separating.fingerprints": n["separating.fingerprints"],
            "separating.search_s": inc["separating.search"],
            "separating.subsets_tried": n["separating.subsets_tried"],
            "separating.useful_ratio": n["separating.separating"] / scans if scans else 0.0,
            "separating.minimal_s": inc["separating.minimal"],
            "chi.scan_s": inc["chi.scan"],
            "chi.criterion_calls": n["chi.criterion_calls"],
            "chi.root_gap_calls": n["chi.root_gap_calls"],
            "chi.bracket_s": own["chi.record"],
            "chi.lnln_s": inc["chi.lnln"],
            "chi.mp_rechecks": n["chi.mp_rechecks"],
            "exactcount.s": inc["exactcount"],
            "f3.calls": n["f3.calls"],
            "f3.s": inc["f3"],
            "cli.self_s": own["cli"],
        }
