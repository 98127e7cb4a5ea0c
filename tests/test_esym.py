import random

import pytest

from sepsym import gf
from sepsym.errors import ParameterError
from sepsym.esym import esym_all, fingerprint, index_set_nq
from sepsym.orbits import enumerate_orbits
from support import brute_esym, scaled_index_member


def test_esym_examples():
    F2 = gf.field_for_order(2)
    assert esym_all((0, 1, 1), F2) == (0, 1, 0)
    F5 = gf.field_for_order(5)
    assert esym_all((0,) * 6, F5) == (0,) * 6
    F3 = gf.field_for_order(3)
    assert esym_all((1, 1, 1), F3) == (0, 0, 1)


def test_esym_against_brute_force():
    for q, n_top in ((2, 6), (3, 6), (4, 5), (5, 5), (9, 4)):
        spec = gf.field_for_order(q)
        for n in range(1, n_top + 1):
            for rep in enumerate_orbits(spec, n):
                assert esym_all(rep, spec) == brute_esym(rep, spec)


def test_esym_permutation_invariance_random():
    rng = random.Random(271828)
    for _ in range(1000):
        q = rng.choice((2, 3, 4, 7, 8))
        n = rng.randrange(1, 10)
        spec = gf.field_for_order(q)
        v = [rng.randrange(q) for _ in range(n)]
        w = v[:]
        rng.shuffle(w)
        assert esym_all(v, spec) == esym_all(w, spec)


def test_esym_generating_polynomial_identity():
    # prod(1 + v_i z) agrees with 1 + sum_t s_t z^t at random points z
    rng = random.Random(65537)
    for q, n in ((2, 5), (3, 5), (4, 4), (9, 3)):
        spec = gf.field_for_order(q)
        for rep in enumerate_orbits(spec, n):
            s = esym_all(rep, spec)
            for _ in range(20):
                z = rng.randrange(q)
                lhs = 1
                for x in rep:
                    lhs = spec.mul(lhs, spec.add(1, spec.mul(x, z)))
                rhs = 1
                zpow = 1
                for t in range(1, n + 1):
                    zpow = spec.mul(zpow, z)
                    rhs = spec.add(rhs, spec.mul(s[t - 1], zpow))
                assert lhs == rhs


def test_fingerprint_examples():
    F2 = gf.field_for_order(2)
    assert fingerprint((0, 0, 1), (1, 2), F2) == (1, 0)
    v = (0, 1, 1)
    assert fingerprint(v, range(1, 4), F2) == esym_all(v, F2)
    F3 = gf.field_for_order(3)
    T9 = index_set_nq(9, 3, 3)
    assert fingerprint((0,) * 9, T9, F3) == (0,) * 5


def test_fingerprint_sorts_and_dedups():
    F3 = gf.field_for_order(3)
    v = (0, 1, 2, 2)
    assert fingerprint(v, (3, 1, 3), F3) == fingerprint(v, (1, 3), F3)


def test_index_set_examples():
    assert index_set_nq(4, 2, 2) == (1, 2, 4)
    assert index_set_nq(9, 3, 3) == (1, 2, 3, 6, 9)
    assert index_set_nq(5, 3, 3) == (1, 2, 3)
    assert index_set_nq(10, 4, 2) == (1, 2, 3, 4, 6, 8)


def test_index_set_membership_oracle():
    # t = j*p^m with j < q iff the p-free part of t is below q
    for q, p in ((2, 2), (3, 3), (4, 2), (5, 5), (7, 7), (8, 2), (9, 3), (16, 2), (27, 3)):
        for n in (1, 2, 7, 23, 60):
            got = set(index_set_nq(n, q, p))
            want = {t for t in range(1, n + 1) if scaled_index_member(t, n, q, p)}
            assert got == want


def test_index_set_monotone_in_n():
    for n in range(1, 41):
        small = set(index_set_nq(n, 3, 3))
        large = set(index_set_nq(n + 1, 3, 3))
        assert small <= large
        assert len(small) <= len(large)


def test_index_set_prime_case_is_scaled_powers():
    for p in (2, 3, 5, 7):
        for n in (4, 10, 30):
            want = sorted({j * p ** m for j in range(1, p)
                           for m in range(0, 8) if j * p ** m <= n})
            assert list(index_set_nq(n, p, p)) == want


def test_validation():
    F3 = gf.field_for_order(3)
    with pytest.raises(ParameterError):
        esym_all((0, 3), F3)
    with pytest.raises(ParameterError):
        fingerprint((0, 1), (0,), F3)
    with pytest.raises(ParameterError):
        fingerprint((0, 1), (3,), F3)
    with pytest.raises(ParameterError):
        index_set_nq(10, 6, 2)
    with pytest.raises(ParameterError, match="^p must be prime, got 4$"):
        index_set_nq(5, 9, 4)
    with pytest.raises(ParameterError, match="^q = 8 is not a power of p = 3$"):
        index_set_nq(10, 8, 3)
    with pytest.raises(ParameterError):
        index_set_nq(0, 2, 2)
