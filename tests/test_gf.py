import random

import pytest
from sympy import factorint
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_add, gf_irreducible_p, gf_mul, gf_rem

from sepsym import gf
from sepsym.errors import ParameterError, ScaleError
from support import is_irreducible_by_products

EXHAUSTIVE_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]
SAMPLED_ORDERS = [25, 27, 49, 64, 81, 125, 128, 243, 256, 343, 512, 729, 1024]
# prime and odd-square orders above 256, which SAMPLED_ORDERS lacks
ORACLE_ORDERS = SAMPLED_ORDERS + [257, 289, 961, 1021]


def _sympy_poly(value, p, k):
    """Base-p digits of value (low degree first) as a sympy GF(p) polynomial, high degree first."""
    digits = [(value // p ** i) % p for i in range(k)]
    return [ZZ(c) for c in reversed(digits)]


def _sympy_index(poly, p):
    return sum(int(c) * p ** i for i, c in enumerate(reversed(poly)))


def test_prime_power_decomposition():
    assert gf.prime_power(2) == (2, 1)
    assert gf.prime_power(8) == (2, 3)
    assert gf.prime_power(9) == (3, 2)
    assert gf.prime_power(1024) == (2, 10)
    assert gf.prime_power(6) is None
    assert gf.prime_power(12) is None
    assert gf.prime_power(1) is None
    for q in range(-3, 3000):
        factors = factorint(q) if q >= 2 else {}
        want = next(iter(factors.items())) if len(factors) == 1 else None
        assert gf.prime_power(q) == want
    assert gf.prime_power(1009 ** 3) == (1009, 3)
    assert gf.prime_power(2 * 1000003) is None


def test_make_field_examples():
    F3 = gf.make_field(3, 1)
    assert F3.q == 3 and F3.p == 3 and F3.k == 1
    F4 = gf.make_field(2, 2)
    assert F4.modulus == (1, 1, 1)
    with pytest.raises(ParameterError):
        gf.make_field(4, 1)


def test_make_field_bounds():
    with pytest.raises(ScaleError):
        gf.make_field(2, 11)


def test_field_for_order_rejects_non_prime_powers():
    for q in (1, 6, 10, 12, 100):
        with pytest.raises(ParameterError):
            gf.field_for_order(q)


def test_make_field_large_k_is_a_scale_error():
    # 2**(10**5) has more digits than int-to-text converts: the bound refuses it unbuilt
    with pytest.raises(ScaleError, match="exceeds the bound 1024"):
        gf.make_field(2, 10 ** 5)


def test_order_bound_is_checked_before_factoring(monkeypatch):
    monkeypatch.setattr(gf, "prime_power", lambda q: pytest.fail(f"prime_power({q}) called"))
    with pytest.raises(ScaleError, match="field order 1000000000000037 exceeds"):
        gf.field_for_order(10 ** 15 + 37)
    for p, k in ((10 ** 15 + 37, 1), (4, 6), (2000, 1)):
        with pytest.raises(ScaleError):
            gf.make_field(p, k)
    with pytest.raises(ScaleError):  # not a prime power, but above the bound first
        gf.field_for_order(2000)
    for p, k in ((1, 3), (0, 1), (2, 0)):
        with pytest.raises(ParameterError):
            gf.make_field(p, k)


def test_make_field_deterministic():
    a = gf.make_field(3, 3)
    b = gf.make_field(3, 3)
    assert a.modulus == b.modulus
    assert a is b


def test_add_examples():
    assert gf.field_for_order(2).add(1, 1) == 0
    assert gf.field_for_order(3).add(2, 2) == 1
    F4 = gf.field_for_order(4)
    assert F4.add(2, 3) == 1


def test_mul_examples():
    F4 = gf.field_for_order(4)
    assert F4.mul(2, 2) == 3
    F5 = gf.field_for_order(5)
    assert F5.mul(3, 4) == 2
    for q in (2, 3, 4, 5, 8, 9):
        spec = gf.field_for_order(q)
        for a in spec.elements():
            assert spec.mul(a, 1) == a


def test_elements_order():
    assert gf.field_for_order(3).elements() == [0, 1, 2]
    assert gf.field_for_order(4).elements() == [0, 1, 2, 3]
    assert gf.field_for_order(2).elements() == [0, 1]


def test_coeffs_round_trip():
    F4 = gf.field_for_order(4)
    assert F4.coeffs(2) == (0, 1)
    assert F4.coeffs(3) == (1, 1)
    F9 = gf.field_for_order(9)
    assert F9.coeffs(5) == (2, 1)


def test_moduli_are_irreducible():
    # independent reducibility search over all monic factor pairs
    for p, k in ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)):
        spec = gf.make_field(p, k)
        assert len(spec.modulus) == k + 1
        assert spec.modulus[-1] == 1
        assert is_irreducible_by_products(spec.modulus, p)


def test_moduli_are_lexicographically_least():
    for p, k in ((2, 2), (2, 3), (3, 2)):
        spec = gf.make_field(p, k)
        chosen = sum(c * p ** i for i, c in enumerate(spec.modulus[:-1]))
        for c in range(chosen):
            coeffs = []
            value = c
            for _ in range(k):
                coeffs.append(value % p)
                value //= p
            assert not is_irreducible_by_products(tuple(coeffs + [1]), p)


def test_arithmetic_matches_sympy():
    # sympy's GF(p) polynomial tools as an independent oracle for the modulus
    # choice and for sums and products under the base-p index encoding
    rng = random.Random(771205)
    for q in ORACLE_ORDERS:
        spec = gf.field_for_order(q)
        p, k = spec.p, spec.k
        modulus = [ZZ(c) for c in reversed(spec.modulus)]
        assert spec.modulus[-1] == 1 and gf_irreducible_p(modulus, p, ZZ)
        chosen = _sympy_index(modulus[1:], p)
        for c in range(chosen):
            assert not gf_irreducible_p([ZZ(1)] + _sympy_poly(c, p, k), p, ZZ)
        for _ in range(300):
            a = rng.randrange(q)
            b = rng.randrange(q)
            fa, fb = _sympy_poly(a, p, k), _sympy_poly(b, p, k)
            assert spec.add(a, b) == _sympy_index(gf_add(fa, fb, p, ZZ), p)
            assert spec.mul(a, b) == _sympy_index(gf_rem(gf_mul(fa, fb, p, ZZ), modulus, p, ZZ), p)


def test_field_axioms_exhaustive_small():
    for q in EXHAUSTIVE_ORDERS:
        spec = gf.field_for_order(q)
        els = spec.elements()
        assert spec.add(0, 0) == 0 and spec.mul(1, 1) == 1
        for a in els:
            assert spec.add(a, 0) == a
            assert spec.mul(a, 0) == 0
            for b in els:
                assert spec.add(a, b) == spec.add(b, a)
                assert spec.mul(a, b) == spec.mul(b, a)
        for a in els:
            for b in els:
                for c in els:
                    assert spec.add(spec.add(a, b), c) == spec.add(a, spec.add(b, c))
                    assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                    assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b),
                                                                   spec.mul(a, c))


def test_field_axioms_sampled_large():
    rng = random.Random(411203)
    for q in SAMPLED_ORDERS:
        spec = gf.field_for_order(q)
        assert spec.q == q
        for _ in range(200):
            a = rng.randrange(q)
            b = rng.randrange(q)
            c = rng.randrange(q)
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
            assert spec.mul(a, spec.add(b, c)) == spec.add(spec.mul(a, b),
                                                           spec.mul(a, c))
            assert spec.add(a, 0) == a and spec.mul(a, 1) == a


def test_nonzero_rows_are_permutations():
    for q in (4, 8, 9, 16, 27, 49):
        spec = gf.field_for_order(q)
        full = set(spec.elements())
        for a in range(1, q):
            row = {spec.mul(a, b) for b in spec.elements()}
            assert row == full


def test_inverses():
    for q in (2, 3, 4, 5, 8, 9, 16, 27):
        spec = gf.field_for_order(q)
        for a in range(1, q):
            assert spec.mul(a, spec.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        gf.field_for_order(5).inv(0)
    # a field above 256, whose table rows are arrays
    spec = gf.field_for_order(343)
    rng = random.Random(59014)
    for _ in range(10):
        a = rng.randrange(1, 343)
        assert spec.mul(a, spec.inv(a)) == 1


@pytest.mark.parametrize("q", [q for q in range(2, 257) if gf.prime_power(q)]
                         + [289, 343, 512, 729, 1024])
def test_logs_walk_a_generator(q):
    spec = gf.field_for_order(q)
    exp, log = spec.logs
    assert exp[0] == 1 and sorted(exp) == list(range(1, q))
    for i in range(q - 2):
        assert exp[i + 1] == spec.mul(exp[i], exp[1])
    for i, x in enumerate(exp):
        assert log[x] == i


def test_index_validation():
    F4 = gf.field_for_order(4)
    with pytest.raises(ParameterError):
        F4.add(4, 0)
    with pytest.raises(ParameterError):
        F4.mul(1, -1)


def test_characteristic_addition():
    # p-fold sums of 1 vanish
    for q in (4, 8, 9, 27, 25):
        spec = gf.field_for_order(q)
        acc = 0
        for _ in range(spec.p):
            acc = spec.add(acc, 1)
        assert acc == 0
