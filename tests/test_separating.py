import itertools
import math
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sepsym import gf, separating
from sepsym.errors import NotSeparatingError, ParameterError, ScaleError
from sepsym.esym import esym_all, index_set_nq
from sepsym.exactcount import gamma, orbit_count
from sepsym.orbits import enumerate_orbits
from sepsym.separating import (
    SeparationVerdict,
    _projector,
    _separates_on_slice,
    _slices,
    check_minimal,
    check_separating,
    min_separating_size,
)
from support import (
    GRID_CELLS,
    lucas_check,
    naive_check,
    naive_min_size,
    naive_redundant,
    naive_rows,
)

TABLE_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 25, 27, 32, 49, 64, 81, 125, 128, 243, 256)

# Fields with list table rows at every n with at most 2000 orbits; F_2 with
# long vectors; fields above 256, whose table rows are arrays, at n <= 2.
WALK_CELLS = st.one_of(
    st.sampled_from([(q, n) for q in TABLE_ORDERS for n in range(1, 12)
                     if orbit_count(q, n) <= 2000]),
    st.tuples(st.just(2), st.integers(1, 200)),
    st.sampled_from([(257, 1), (257, 2), (289, 1), (289, 2), (343, 1), (512, 1), (512, 2),
                     (729, 1), (1024, 1)]),
)

# The minsep cells of the benchmark's search workload and the brute-force grid
# up to n = 8.
ORACLE_CELLS = sorted({(4, 8), (7, 6), (9, 5), (16, 4), (3, 10), (11, 5), (7, 5), (8, 5), (8, 6)}
                      | {(q, n) for q, n in GRID_CELLS if n <= 8})


def test_full_pair_separates_q2_n3():
    F2 = gf.field_for_order(2)
    v = check_separating(F2, 3, (1, 2))
    assert v.separating
    assert v.witness is None
    assert v.orbit_count == 4
    assert v.fingerprint_count == 4


def test_single_index_fails_q2_n3():
    F2 = gf.field_for_order(2)
    v = check_separating(F2, 3, (1,))
    assert not v.separating
    assert v.orbit_count == 4
    assert v.fingerprint_count == 2
    # s_1 vanishes on both the zero orbit and (0,1,1); that is the first
    # collision in lexicographic order
    assert v.witness == ((0, 0, 0), (0, 1, 1))


def test_scaled_set_separates_q3_n9():
    F3 = gf.field_for_order(3)
    T = index_set_nq(9, 3, 3)
    v = check_separating(F3, 9, T)
    assert v.separating
    assert v.orbit_count == 55


def test_verdict_invariant_on_samples():
    rng = random.Random(133700)
    for _ in range(60):
        q = rng.choice((2, 3, 4))
        n = rng.randrange(2, 7)
        spec = gf.field_for_order(q)
        size = rng.randrange(1, n + 1)
        T = tuple(rng.sample(range(1, n + 1), size))
        v = check_separating(spec, n, T)
        assert v.orbit_count == orbit_count(q, n)
        assert v.separating == (v.fingerprint_count == v.orbit_count)
        assert (v.witness is None) == v.separating


def test_monotone_under_supersets():
    rng = random.Random(20240)
    spec = gf.field_for_order(3)
    n = 5
    for _ in range(50):
        size = rng.randrange(1, n + 1)
        T = set(rng.sample(range(1, n + 1), size))
        if check_separating(spec, n, T).separating:
            extra = set(range(1, n + 1)) - T
            for t in extra:
                assert check_separating(spec, n, T | {t}).separating


def test_full_set_always_separates_small():
    for q in (2, 3, 4):
        spec = gf.field_for_order(q)
        for n in range(1, 7):
            assert check_separating(spec, n, range(1, n + 1)).separating


def test_check_minimal_examples():
    F2 = gf.field_for_order(2)
    assert check_minimal(F2, 3, (1, 2)) == (True, [])
    ok, redundant = check_minimal(F2, 3, (1, 2, 3))
    assert not ok
    assert redundant == [3]
    F3 = gf.field_for_order(3)
    assert check_minimal(F3, 3, (1, 2, 3)) == (True, [])


def test_check_minimal_requires_separating_input():
    F2 = gf.field_for_order(2)
    with pytest.raises(ParameterError):
        check_minimal(F2, 3, (1,))
    # the refusal has its own class, which callers such as minsep catch alone
    with pytest.raises(NotSeparatingError, match="minimality is defined only for separating sets"):
        check_minimal(F2, 3, (1,))
    assert issubclass(NotSeparatingError, ParameterError)


def test_min_separating_size_examples():
    F2 = gf.field_for_order(2)
    assert min_separating_size(F2, 3) == (2, (1, 2))
    assert min_separating_size(F2, 2)[0] == 2
    F3 = gf.field_for_order(3)
    assert min_separating_size(F3, 2) == (2, (1, 2))


def test_min_size_bounded_below_by_gamma():
    from sepsym.chi import chi_exact
    for q in (2, 3, 4, 5):
        spec = gf.field_for_order(q)
        c = chi_exact(q)
        for n in range(1, 6):
            size, T = min_separating_size(spec, n)
            assert size >= gamma(q, n)
            assert check_separating(spec, n, T).separating
            if n <= c:
                assert size == gamma(q, n) == n


def test_scale_and_parameter_errors():
    F2 = gf.field_for_order(2)
    with pytest.raises(ScaleError):
        min_separating_size(F2, 17)
    with pytest.raises(ParameterError):
        min_separating_size(F2, 0)
    with pytest.raises(ParameterError):
        check_separating(F2, 3, (0,))
    with pytest.raises(ParameterError):
        check_separating(F2, 3, (4,))
    F9 = gf.field_for_order(9)
    with pytest.raises(ScaleError):
        check_separating(F9, 30, (1,))  # binom(38, 8) > 10^7 orbits
    with pytest.raises(ScaleError, match="100001 orbits x 100000 indices exceed"):
        check_separating(F2, 100_000, range(1, 100_001))  # 10^5 orbits, 10^10 entries


@pytest.mark.parametrize("n, kind", [
    (1500, "scaled"), (2047, "scaled"), (3000, "scaled"),
    (1500, "scaled-but-top"), (2048, "scaled-but-top"), (3000, "scaled-but-top"),
    (1500, "random"), (2047, "random"), (3000, "random"),
    (1500, "random+scaled"), (3000, "random+scaled"),
    (1000, "full"), (2047, "full"),
])
def test_q2_verdicts_match_lucas(n, kind):
    # at q = 2 and n in the thousands, where naive_check is too slow: the
    # scaled set {2^m <= n} and its supersets separate, and without its top
    # power it does not; half of [1, n] at random may go either way
    scaled = index_set_nq(n, 2, 2)
    half = random.Random(n).sample(range(1, n + 1), n // 2)
    T = {"scaled": scaled, "scaled-but-top": scaled[:-1], "random": half,
         "random+scaled": half + list(scaled), "full": range(1, n + 1)}[kind]
    want = lucas_check(n, T)
    if kind != "random":
        assert want[0] == (kind != "scaled-but-top")
    assert tuple(check_separating(gf.field_for_order(2), n, T)) == want


def test_exhaustive_small_subsets_q2_n4():
    # all subsets of {1..4} classified by brute force; gamma(2, 4) = 3 and the
    # only separating triple is the scaled index set {1, 2, 4}: dropping s_4
    # merges the all-ones orbit with the zero orbit because C(4, t) is even
    # for t = 1, 2, 3
    F2 = gf.field_for_order(2)
    separating = []
    for k in range(5):
        for T in itertools.combinations(range(1, 5), k):
            if check_separating(F2, 4, T).separating:
                separating.append(T)
    assert separating == [(1, 2, 4), (1, 2, 3, 4)]
    assert min_separating_size(F2, 4) == (3, (1, 2, 4))


def test_walks_without_products_leave_tables_unbuilt(fresh_steps):
    # fresh instances, so that no earlier test has built their tables; F_16
    # walks its levels as bytes blocks, stepped by tables that _steps builds
    for q in (1024, 16):
        spec = gf.FieldSpec(2, q.bit_length() - 1, gf.field_for_order(q).modulus)
        assert sum(1 for _ in enumerate_orbits(spec, 2)) == orbit_count(q, 2)
        assert check_separating(spec, 1, (1,)).separating
        assert min_separating_size(spec, 1) == (1, (1,))
        assert esym_all((5,), spec) == (5,)
        assert "tables" not in vars(spec) and "logs" not in vars(spec)
        assert _steps_built() == 0
        assert esym_all((5, 7), spec) == (spec.add(5, 7), spec.mul(5, 7))
        assert "tables" in vars(spec)


@pytest.mark.parametrize("search, cells", [
    (lambda F: check_separating(F, 6, (2, 3, 4)), 84 * 3),
    (lambda F: min_separating_size(F, 6), 84 * 6),
    (lambda F: check_minimal(F, 6, (1, 2, 3, 4, 6)), 84 * 6),
], ids=["check_separating", "min_separating_size", "check_minimal"])
def test_the_fingerprint_store_is_bounded_first(monkeypatch, fresh_walk, fresh_steps, search,
                                                cells):
    # (4, 6) has 84 orbits; the walk of check_minimal and min_separating_size
    # keeps all n = 6 values of each. One entry under orbits x |T| is refused
    # before a fresh instance builds its tables, logs or step tables; at the
    # bound it runs, and its walk builds the step tables of F_4.
    spec = gf.FieldSpec(2, 2, gf.field_for_order(4).modulus)
    monkeypatch.setattr(separating, "MAX_STORE_CELLS", cells - 1)
    with pytest.raises(ScaleError, match=f"84 orbits x {cells // 84} indices exceed the "
                                         f"fingerprint store bound of {cells - 1} entries"):
        search(spec)
    assert "tables" not in vars(spec) and "logs" not in vars(spec)
    assert _steps_built() == 0
    monkeypatch.setattr(separating, "MAX_STORE_CELLS", cells)
    search(spec)
    assert "tables" in vars(spec) and _steps_built() == 1


@pytest.mark.parametrize("search", [
    lambda F, n: check_separating(F, n, ()),
    lambda F, n: check_minimal(F, n, ()),
    lambda F, n: min_separating_size(F, n),
    lambda F, n: check_separating(F, n, (1,)),
    lambda F, n: check_minimal(F, n, (1,)),
], ids=["check_separating", "check_minimal", "min_separating_size",
        "check_separating_T1", "check_minimal_T1"])
@pytest.mark.parametrize("q, n, error, message", [
    (4, 0, ParameterError, "n must be >= 1, got 0"),
    (32, 16, ScaleError, "1503232609098 orbits exceed the enumeration bound 10000000"),
], ids=["n=0", "above-MAX_ORBITS"])
def test_the_walk_inputs_are_refused_first(fresh_walk, fresh_steps, search, q, n, error,
                                           message):
    # The walk does not check n or the orbit count itself: each entry point
    # refuses n = 0, and binom(47, 31) > MAX_ORBITS orbits at (32, 16), before
    # a fresh instance builds its tables, logs or step tables, and before it
    # checks the indices, so that n = 0 with T = {1} names n, not the index.
    base = gf.field_for_order(q)
    spec = gf.FieldSpec(base.p, base.k, base.modulus)
    with pytest.raises(error, match=f"^{message}$"):
        search(spec, n)
    assert "tables" not in vars(spec) and "logs" not in vars(spec)
    assert _steps_built() == 0


@settings(max_examples=40, deadline=None)
@given(WALK_CELLS)
def test_orbit_rows_match_esym_all(cell):
    q, n = cell
    spec = gf.field_for_order(q)
    want = [(rep, esym_all(rep, spec)) for rep in enumerate_orbits(spec, n)]
    rows = itertools.chain.from_iterable(separating._orbit_batches(spec, n, tuple(range(1, n + 1))))
    assert list(zip(enumerate_orbits(spec, n), rows, strict=True)) == want


@pytest.mark.parametrize("q", [q for q in TABLE_ORDERS if q * q <= 256])
def test_step_tables_map_a_plus_q_b_to_a_plus_y_b(q):
    # byte a + q b of table y is a + y b, and the bytes past q * q are 0
    F = gf.field_for_order(q)
    steps = separating._steps(F)
    assert len(steps) == q
    for y, table in enumerate(steps):
        want = bytearray(256)
        for a, b in itertools.product(range(q), repeat=2):
            want[a + q * b] = F.add(a, F.mul(y, b))
        assert len(table) == 256 and table == want


# Levels held as bytes blocks (q <= 16), read by columns or, where the parts
# are few (q = 2 and 3 throughout), by rows, and as list columns (q >= 17).
# The examples draw t0 > 1 with g > 1, where level n has parts with
# s_{t0-1} = 0 ((7, 6) with t0 = 2, (13, 5) with t0 = 4, (17, 3) with
# t0 = 2 on list columns), the same at t0 = n ((7, 3) with t0 = 3), a slice
# whose levels are read by rows up to level 14, then by columns ((3, 30)
# with t0 = 1 and 15 indices), q = 16, whose step tables fill all 256 bytes
# ((16, 5) with t0 = 2), and every index of a 40-long vector, read by rows.
STREAM_CELLS = [(q, n) for q in TABLE_ORDERS for n in range(1, 41) if orbit_count(q, n) <= 2000]


class _EveryIndex(random.Random):
    """Draws t0 = 1 and keeps every index after it."""

    def choice(self, seq):
        return seq[0]

    def random(self):
        return 0.0


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(STREAM_CELLS), st.randoms(use_true_random=False))
@example((7, 6), random.Random(1))
@example((13, 5), random.Random(9))
@example((7, 3), random.Random(0))
@example((3, 30), random.Random(2))
@example((16, 5), random.Random(3))
@example((17, 3), random.Random(9))
@example((2, 40), _EveryIndex())
def test_sliced_stream_matches_naive_rows(cell, rng):
    # as a multiset, the stream for t0 = min idx is every orbit whose s_t0
    # lies in the slice set cs (every orbit when cs is empty), projected to idx
    q, n = cell
    spec = gf.field_for_order(q)
    t0 = rng.choice([1, n, rng.randint(1, n)])
    idx = (t0, *[t for t in range(t0 + 1, n + 1) if rng.random() < 0.5])
    cs, _ = separating._slice_set(spec, t0)
    got = Counter(itertools.chain.from_iterable(separating._orbit_batches(spec, n, idx, cs)))
    want = Counter(tuple(v[t - 1] for t in idx) for _, v in naive_rows(spec, n)
                   if not cs or v[t0 - 1] in cs)
    assert got == want


@pytest.mark.parametrize("q", [3, 4, 7])
@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_the_empty_set_counts_every_orbit(q, n):
    # every fingerprint is the empty tuple, one per orbit, so the first
    # collision is the zero orbit with the next one
    spec = gf.field_for_order(q)
    v = check_separating(spec, n, ())
    assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
        naive_check(spec, n, ())


def test_the_witness_walk_stays_lazy():
    # the first collision of (1, 2) over F_256 at n = 3 lies at the start of
    # level 3: a walk that built level 3 whole would hold about 2.8M children
    spec = gf.field_for_order(256)
    spec.tables  # built before the measurement, which is of the walk alone
    tracemalloc.start()
    try:
        witness = separating._first_collision(spec, 3, (1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert witness == ((0, 188, 189), (1, 1, 1))
    assert peak < 16 * 2 ** 20


@pytest.mark.parametrize("q,n", ORACLE_CELLS)
def test_verdicts_match_naive_oracle(q, n):
    spec = gf.field_for_order(q)
    size, T = min_separating_size(spec, n)
    assert (size, T) == naive_min_size(spec, n)
    sq = index_set_nq(n, q, spec.p)
    for idx in (T[:-1], sq, range(1, n + 1)):
        v = check_separating(spec, n, idx)
        assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
            naive_check(spec, n, idx)
    # a separating set of least size has no redundant index
    assert check_minimal(spec, n, T) == (True, [])
    if naive_check(spec, n, sq)[0]:
        redundant = naive_redundant(spec, n, sq)
        assert check_minimal(spec, n, sq) == (not redundant, redundant)


@pytest.mark.parametrize("q,n", ORACLE_CELLS)
def test_essential_indices_match_naive_oracle(q, n):
    # t is essential when {1..n} minus t does not separate: exactly the t that
    # check_minimal does not find redundant in {1..n}, and, since a set inside
    # one that does not separate does not separate either, in every separating
    # set, the oracle's least one too
    spec = gf.field_for_order(q)
    rows = naive_rows(spec, n)
    full = range(1, n + 1)
    essential = {t for t in full
                 if not naive_check(spec, n, [u for u in full if u != t], rows)[0]}
    assert essential == set(full) - set(check_minimal(spec, n, full)[1])
    assert essential <= set(naive_min_size(spec, n)[1])


def test_min_size_beyond_the_essential_indices():
    # (13, 10) is the one cell with q <= 32 and n <= 16 whose essential
    # indices, {1..7}, do not separate, so the search adds one more index
    F13 = gf.field_for_order(13)
    assert check_minimal(F13, 10, range(1, 11)) == (False, [8, 9, 10])
    assert min_separating_size(F13, 10) == (8, (1, 2, 3, 4, 5, 6, 7, 8))


# The witness pairs the first leaf, in walk order, whose fingerprint an
# earlier leaf has with the first leaf that has it. Without index 1 the
# leaves of the zero prefix (one batch of siblings) already collide with
# each other; with it, siblings never collide and the first collision is
# against a leaf of an earlier batch.
SIBLING_COLLISIONS = [(2, 1, ()), (7, 1, ()), (1024, 1, ()), (5, 2, (2,)), (9, 3, (2, 3)),
                      (4, 6, (2, 3, 4, 5, 6)), (289, 2, (2,)), (512, 2, (2,))]
EARLIER_COLLISIONS = [(3, 2, (1,)), (7, 4, (1, 2, 3)), (8, 3, (1, 2)), (16, 3, (1, 2)),
                      (4, 9, (1, 2, 3, 4, 5, 6)), (289, 2, (1,)), (512, 2, (1,)),
                      # long vectors, first colliding 37% and 52% of the way into the walk
                      (3, 14, (1, 2, 3, 5, 6, 7, 14)),
                      (2, 30, (1, 2, 4, 6, 8, 11, 13, 15, 17, 18, 20, 27, 29))]


@pytest.mark.parametrize("q,n,T,siblings",
                         [(*cell, True) for cell in SIBLING_COLLISIONS]
                         + [(*cell, False) for cell in EARLIER_COLLISIONS])
def test_first_collision_matches_naive_oracle(q, n, T, siblings):
    spec = gf.field_for_order(q)
    v = check_separating(spec, n, T)
    assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
        naive_check(spec, n, T)
    earlier, rep = v.witness
    assert (earlier[:-1] == rep[:-1]) == siblings


# n = 1 at list-row and array-row orders, and n = 2 over fields with array
# table rows, characteristic 2 included.
@pytest.mark.parametrize("q,n", [(2, 1), (9, 1), (343, 1), (1024, 1),
                                 (289, 2), (343, 2), (512, 2)])
def test_presets_match_naive_oracle(q, n):
    spec = gf.field_for_order(q)
    for idx in {index_set_nq(n, q, spec.p), tuple(range(1, n + 1))}:
        v = check_separating(spec, n, idx)
        assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
            naive_check(spec, n, idx)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(q, n) for q in TABLE_ORDERS for n in range(1, 12)
                        if orbit_count(q, n) <= 3000]),
       st.randoms(use_true_random=False))
def test_sets_below_gamma_match_naive_oracle(cell, rng):
    q, n = cell
    spec = gf.field_for_order(q)
    T = rng.sample(range(1, n + 1), gamma(q, n) - 1)
    v = check_separating(spec, n, T)
    assert not v.separating
    assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
        naive_check(spec, n, T)


def test_widest_field_n2_counts():
    spec = gf.field_for_order(1024)
    v = check_separating(spec, 2, index_set_nq(2, 1024, 2))
    assert v.separating
    assert v.witness is None
    assert v.orbit_count == v.fingerprint_count == 524_800


# Long vectors, where most orbits have a zero and most batches hold one or
# two orbits: the scaled set, the full set, a set of size gamma - 1, which
# must give a witness, and the scaled set without its largest index, whose
# witness pairs orbits of two different levels of the walk.
@pytest.mark.parametrize("q,n", [(2, 200), (3, 60), (5, 20), (4, 30)])
def test_long_vectors_match_naive_oracle(q, n):
    spec = gf.field_for_order(q)
    rows = naive_rows(spec, n)
    sq = index_set_nq(n, q, spec.p)
    below = random.Random(1000 * q + n).sample(range(1, n + 1), gamma(q, n) - 1)
    for idx in (sq, range(1, n + 1), below, sq[:-1]):
        v = check_separating(spec, n, idx)
        assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
            naive_check(spec, n, idx, rows)
    assert not check_separating(spec, n, below).separating


def test_scaled_sets_separate_on_longest_vectors():
    F2, F3 = gf.field_for_order(2), gf.field_for_order(3)
    assert check_separating(F2, 1000, index_set_nq(1000, 2, 2)) == \
        SeparationVerdict(True, None, 1001, 1001)
    assert check_separating(F3, 120, index_set_nq(120, 3, 3)) == \
        SeparationVerdict(True, None, 7381, 7381)


# Index sets whose least index t0 >= 2 has gcd(t0, q - 1) > 1, so that the
# slice holds several cosets of the t0-th powers; none contains 1, so most do
# not separate. Also t0 = q - 1 and the empty set (t0 = 0), where the t0-th
# powers are 1 alone and every orbit is in the slice, and n = 1.
SLICE_CELLS = [(q, n, t0) for q in (7, 9, 13, 16, 25) for t0 in (2, 3, 4) for n in range(t0, 9)
               if math.gcd(t0, q - 1) > 1 and orbit_count(q, n) <= 3000]
SLICE_CELLS += [(q, n, t0) for q in (7, 9, 13, 16, 25) for n, t0 in ((1, 0), (1, 1), (2, 0), (3, 0))]
SLICE_CELLS += [(q, n, q - 1) for q in (3, 4, 5, 7) for n in range(q - 1, 9)
                if orbit_count(q, n) <= 3000]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(SLICE_CELLS), st.randoms(use_true_random=False))
def test_slices_of_several_cosets_match_naive_oracle(cell, rng):
    q, n, t0 = cell
    spec = gf.field_for_order(q)
    T = [t0, *[t for t in range(t0 + 1, n + 1) if rng.random() < 0.5]] if t0 else []
    v = check_separating(spec, n, T)
    assert (v.separating, v.witness, v.orbit_count, v.fingerprint_count) == \
        naive_check(spec, n, T)


@pytest.mark.parametrize("T", [(1, 2, 3, 4, 6), (3, 6)], ids=["slice", "every_orbit"])
def test_slice_orbit_count_is_checked(monkeypatch, T):
    # the orbit count rebuilt from the slice is compared with binom(n+q-1, q-1);
    # for T = (3, 6) over F_4 the slice is every orbit
    monkeypatch.setattr(separating, "orbit_count", lambda q, n: math.comb(n + q - 1, q - 1) + 1)
    with pytest.raises(RuntimeError, match="the slice rebuilds 84 orbits"):
        check_separating(gf.field_for_order(4), 6, T)


@pytest.mark.parametrize("edit, total", [(lambda fps: fps[:-1], 81),
                                         (lambda fps: fps + fps[-1:], 87)],
                         ids=["drop_last", "repeat_last"])
def test_slice_counts_are_rebuilt_from_the_stream(monkeypatch, edit, total):
    # both counts come from the fingerprints the walk yields, so a walk that
    # drops or repeats one fails the orbit-count check; the last one of the
    # slice has s_1 != 0 and stands for h = 3 orbits
    walk = separating._orbit_batches
    monkeypatch.setattr(separating, "_orbit_batches",
                        lambda *args: [edit(list(itertools.chain.from_iterable(walk(*args))))])
    with pytest.raises(RuntimeError, match=f"the slice rebuilds {total} orbits, not 84"):
        check_separating(gf.field_for_order(4), 6, (1, 2, 3, 4, 6))


def test_the_stream_is_counted_in_chunks(monkeypatch):
    # 10**6 references to one fingerprint, on a slice of every orbit (h = 1):
    # the counts hold one chunk and the distinct fingerprints, not a list of
    # every reference (about 8 MiB)
    spec = gf.field_for_order(4)
    monkeypatch.setattr(separating, "_orbit_batches",
                        lambda *args: [itertools.repeat((0, 0), 10 ** 6)])
    monkeypatch.setattr(separating, "orbit_count", lambda q, n: 10 ** 6)
    monkeypatch.setattr(separating, "_first_collision", lambda *args: ("a", "b"))
    tracemalloc.start()
    try:
        verdict = check_separating(spec, 6, (3, 6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict == SeparationVerdict(False, ("a", "b"), 10 ** 6, 1)
    assert peak < 2 ** 20


def test_a_negative_count_comes_with_a_witness(monkeypatch):
    # the counts say (1, 2, 3) does not separate over F_4 at n = 6; a witness
    # walk that finds no collision contradicts them
    monkeypatch.setattr(separating, "_first_collision", lambda *args: None)
    F4 = gf.field_for_order(4)
    with pytest.raises(RuntimeError,
                       match="^32 fingerprints for 84 orbits, but no collision found$"):
        check_separating(F4, 6, (1, 2, 3))
    assert check_separating(F4, 6, (1, 2, 3, 4, 6)) == SeparationVerdict(True, None, 84, 84)


def test_slice_verdicts_match_every_row_on_the_grid():
    # every nonempty T of every small grid cell: g = 1, g > 1 (q = 7 with t0 = 2
    # or 3, q = 9 with t0 = 2 or 4) and h = 1 (q = 2, q = 3 with t0 even)
    for q, n in [(q, n) for q, n in GRID_CELLS if n <= 6 and orbit_count(q, n) <= 2000]:
        spec = gf.field_for_order(q)
        values = [v for _, v in naive_rows(spec, n)]
        for k in range(1, n + 1):
            for T in itertools.combinations(range(1, n + 1), k):
                assert _separates_on_slice(spec, n, T) == \
                    separating._separates(values, _projector(T)), (q, n, T)


LARGER_SLICE_CELLS = [(q, n) for q in TABLE_ORDERS for n in range(7, 12)
                      if orbit_count(q, n) <= 2000]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(LARGER_SLICE_CELLS), st.randoms(use_true_random=False))
def test_slice_verdicts_match_every_row_on_larger_cells(cell, rng):
    q, n = cell
    spec = gf.field_for_order(q)
    T = tuple(sorted(rng.sample(range(1, n + 1), rng.randint(1, n))))
    values = [v for _, v in naive_rows(spec, n)]
    assert _separates_on_slice(spec, n, T) == separating._separates(values, _projector(T))


def _count_scans(monkeypatch):
    scanned = []
    scan = separating._separates
    monkeypatch.setattr(separating, "_separates",
                        lambda rows, project: scanned.append(len(rows)) or scan(rows, project))
    return scanned


def test_candidates_scan_only_their_slice(monkeypatch, fresh_walk):
    scanned = _count_scans(monkeypatch)
    F16 = gf.field_for_order(16)
    # the drop-ones (1, 3, 4), (1, 2, 4) and (1, 2, 3) of {1..4} fail on the
    # 516 rows of t0 = 1 of 3876 orbits, and (2, 3, 4) cannot separate, so
    # E = (1, 2, 3, 4) is tried next: four scans
    assert min_separating_size(F16, 4) == (4, (1, 2, 3, 4))
    assert scanned == [516] * 4
    scanned.clear()
    # every verdict is kept: no scan
    assert check_minimal(F16, 4, (1, 2, 3, 4)) == (True, [])
    assert scanned == []
    # over F_7 at n = 5, with no verdict kept: 132 rows of 462 orbits, and
    # (2, 3, 4, 5) is not scanned
    assert check_minimal(gf.field_for_order(7), 5, (1, 2, 3, 4, 5)) == (False, [5])
    assert scanned == [132] * 5
    assert len(_slices(F16, 4)[0]) == 516 and orbit_count(16, 4) == 3876


@pytest.mark.parametrize("q,n,redundant", [(8, 5, [5]), (8, 10, [5, 10]), (4, 8, [])])
def test_check_minimal_after_the_search_reads_kept_verdicts(monkeypatch, fresh_walk,
                                                            q, n, redundant):
    # the scaled set holds the witness, which the search saw separate; each of
    # its drop-ones lacks 1, lies inside a drop-one of {1..n} that failed, or
    # holds the witness (at (8, 10), the scaled set minus 5 or 10)
    spec = gf.field_for_order(q)
    scanned = _count_scans(monkeypatch)
    min_separating_size(spec, n)
    scanned.clear()
    assert check_minimal(spec, n, index_set_nq(n, q, spec.p)) == (not redundant, redundant)
    assert scanned == []


KEPT_VERDICT_CELLS = LARGER_SLICE_CELLS + [(q, n) for q, n in GRID_CELLS
                                           if n <= 6 and orbit_count(q, n) <= 2000]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KEPT_VERDICT_CELLS), st.randoms(use_true_random=False))
def test_kept_verdicts_are_sound(cell, rng):
    # a sequence of sets, half of them an earlier one with one index toggled,
    # so that many are answered by inclusion; a kept verdict or a scan, every
    # answer is the oracle's, and no set is scanned twice
    q, n = cell
    spec = gf.field_for_order(q)
    values = [v for _, v in naive_rows(spec, n)]
    sets = []
    for _ in range(12):
        if sets and rng.random() < 0.5:
            T = set(rng.choice(sets)) ^ {rng.randint(1, n)}
        else:
            T = rng.sample(range(1, n + 1), rng.randint(1, n))
        sets.append(tuple(sorted(T)))
    want = [separating._separates(values, _projector(T)) for T in sets]
    _slices.cache_clear()
    with pytest.MonkeyPatch.context() as mp:
        scanned = _count_scans(mp)
        assert [_separates_on_slice(spec, n, T) for T in sets] == want, (q, n, sets)
        done = len(scanned)
        assert [_separates_on_slice(spec, n, T) for T in sets] == want
    assert len(scanned) == done <= len(set(sets))


@pytest.mark.parametrize("q,n", [(q, n) for q, n in GRID_CELLS if n >= 2])
def test_sets_without_1_do_not_separate(monkeypatch, q, n):
    # the zero orbit and (0, ..., 0, 1) agree on every s_t with t >= 2, so both
    # the oracle and check_separating give that pair as the first collision of
    # a T without 1; _separates_on_slice answers False without a scan
    spec = gf.field_for_order(q)
    rng = random.Random(1000 * q + n)
    rows = naive_rows(spec, n)
    witness = ((0,) * n, (0,) * (n - 1) + (1,))
    scanned = []
    monkeypatch.setattr(separating, "_separates", lambda *args: scanned.append(args))
    for _ in range(6):
        T = tuple(sorted(rng.sample(range(2, n + 1), rng.randint(1, n - 1))))
        assert naive_check(spec, n, T, rows)[:2] == (False, witness)
        assert check_separating(spec, n, T)[:2] == (False, witness)
        assert _separates_on_slice(spec, n, T) is False
    assert _separates_on_slice(spec, n, ()) is False
    assert scanned == []


def test_check_minimal_without_1_builds_nothing(fresh_steps):
    # a fresh instance: the set cannot separate, and is refused with no walk
    spec = gf.FieldSpec(2, 2, gf.field_for_order(4).modulus)
    with pytest.raises(NotSeparatingError):
        check_minimal(spec, 6, (2, 3, 4, 5, 6))
    assert "tables" not in vars(spec) and "logs" not in vars(spec)
    assert _steps_built() == 0
    assert check_minimal(spec, 6, (1, 2, 3, 4, 6)) == (True, [])
    assert _steps_built() == 1


def _minsep(q, n):
    spec = gf.field_for_order(q)
    return min_separating_size(spec, n), check_minimal(spec, n, index_set_nq(n, q, spec.p))


def test_slices_follow_the_walk():
    # the slices of each cell come from its own walk, also when the walk of
    # another cell was freed in between and a new one may take its address
    cells = [(7, 5), (8, 6), (7, 5), (8, 5), (16, 4), (7, 5),
             *[(q, n) for q in (3, 4, 5, 7, 8, 9) for n in range(2, 6)]]
    got = [_minsep(q, n) for q, n in cells]
    want = []
    for q, n in cells:
        _slices.cache_clear()
        want.append(_minsep(q, n))
    assert got == want


@pytest.fixture
def fresh_walk():
    _slices.cache_clear()
    yield
    _slices.cache_clear()


@pytest.fixture
def fresh_steps():
    separating._steps.cache_clear()


def _steps_built():
    """The fields whose step tables the walk built since fresh_steps cleared them."""
    return separating._steps.cache_info().misses


@pytest.mark.parametrize("search", [lambda F: min_separating_size(F, 6),
                                    lambda F: check_minimal(F, 6, (1, 2, 3, 4, 6))],
                         ids=["min_separating_size", "check_minimal"])
def test_slice_rows_are_checked_against_the_orbit_count(monkeypatch, fresh_walk, search):
    # a walk that drops the last row of the slice of t0 = 1, with s_1 != 0,
    # leaves it h = 3 orbits short
    walk = separating._orbit_batches
    monkeypatch.setattr(separating, "_orbit_batches",
                        lambda *args: [list(itertools.chain.from_iterable(walk(*args)))[:-1]])
    with pytest.raises(RuntimeError, match="the slice rebuilds 81 orbits, not 84"):
        search(gf.field_for_order(4))
