import functools
import math
import random
import re

import pytest

from carlitzdigits.errors import HypothesisError, ParseError
from carlitzdigits.ffq import (
    FieldElement,
    FieldSpec,
    UnitCharacter,
    canonical_generator,
    dlog,
    mult_order,
    quadratic_character,
    unit_character,
)

FIELDS = (2, 3, 4, 5, 7, 8, 9, 25, 49)


def specs():
    return [FieldSpec.from_order(q) for q in FIELDS]


def test_from_order_rejects_non_prime_powers():
    for q in (0, 1, 6, 10, 12):
        with pytest.raises(ParseError):
            FieldSpec.from_order(q)


def test_prime_field_rejects_modulus():
    with pytest.raises(ParseError):
        FieldSpec.from_order(5, (1, 1))


def test_bad_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # x^2+1 = (x+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldSpec(2, 4, (1, 0, 1, 0, 1))  # (x^2+x+1)^2: no root, still reducible
    with pytest.raises(ValueError):
        FieldSpec(3, 2, (1, 1))  # wrong degree


def test_field_sizes_and_index_roundtrip():
    for spec in specs():
        elems = list(spec.elements())
        assert len(elems) == spec.q
        assert len(set(elems)) == spec.q
        for i, x in enumerate(elems):
            assert x.index() == i
            assert spec.from_index(i) == x


def test_ring_axioms_random():
    rng = random.Random(1)
    for spec in specs():
        for _ in range(40):
            a = spec.from_index(rng.randrange(spec.q))
            b = spec.from_index(rng.randrange(spec.q))
            c = spec.from_index(rng.randrange(spec.q))
            assert a + b == b + a
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == spec.zero
            assert a * spec.one == a


def test_inverse_and_division():
    rng = random.Random(2)
    for spec in specs():
        for _ in range(30):
            a = spec.from_index(rng.randrange(1, spec.q))
            assert a * a.inverse() == spec.one
            b = spec.from_index(rng.randrange(1, spec.q))
            assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        FieldSpec.from_order(3).zero.inverse()


def test_pow_matches_repeated_product():
    rng = random.Random(3)
    for spec in specs():
        for _ in range(20):
            a = spec.from_index(rng.randrange(1, spec.q))
            e = rng.randrange(0, 3 * spec.q)
            expected = spec.one
            for _ in range(e):
                expected = expected * a
            assert a**e == expected
            assert a**-1 == a.inverse()


def test_constant_embedding_and_str():
    f9 = FieldSpec.from_order(9)
    x = f9.element((1, 1))
    assert str(x) == "1+1*g"
    assert str(f9.element(2)) == "2"
    assert str(f9.zero) == "0"
    f3 = FieldSpec.from_order(3)
    assert str(f3.element(2)) == "2"
    f8 = FieldSpec.from_order(8)
    assert str(f8.element((0, 0, 1))) == "1*g^2"


def test_mult_order_divides_group_order():
    for spec in specs():
        orders = set()
        for x in spec.elements():
            if x.is_zero():
                continue
            t = mult_order(x)
            assert (spec.q - 1) % t == 0
            assert x**t == spec.one
            if t > 1:
                assert x ** (t - 1) != spec.one
            orders.add(t)
        assert spec.q - 1 in orders  # a generator exists


def test_canonical_generator_is_least():
    for spec in specs():
        g = canonical_generator(spec)
        assert mult_order(g) == spec.q - 1
        for x in spec.elements():
            if x == g:
                break
            assert x.is_zero() or mult_order(x) < spec.q - 1


# every field of the order and generator tests, and F_25 by an explicit modulus
STEPPED_FIELDS = [*specs(), FieldSpec.from_order(16), FieldSpec.from_order(27),
                  FieldSpec(5, 2, (2, 1, 1))]


@functools.cache
def stepped_orders(spec):
    """index -> order of each unit of spec, by multiplying its powers by it
    until they reach 1."""
    orders = {}
    for x in spec.elements():
        if x:
            k, y = 1, x
            while y != spec.one:
                k, y = k + 1, y * x
            orders[x.index()] = k
    return orders


@pytest.mark.parametrize("spec", STEPPED_FIELDS, ids=lambda s: f"{s.q}-{s.modulus}")
def test_mult_order_matches_stepping(spec):
    for i, order in stepped_orders(spec).items():
        assert mult_order(spec.from_index(i)) == order


@pytest.mark.parametrize("spec", STEPPED_FIELDS, ids=lambda s: f"{s.q}-{s.modulus}")
def test_canonical_generator_is_first_of_full_search(spec):
    """The full search over every element, the prime field included."""
    orders = stepped_orders(spec)
    want = min(i for i, order in orders.items() if order == spec.q - 1)
    assert canonical_generator(spec).index() == want


def test_canonical_generator_small_fields():
    assert canonical_generator(FieldSpec.from_order(3)).index() == 2
    assert canonical_generator(FieldSpec.from_order(5)).index() == 2
    assert canonical_generator(FieldSpec.from_order(7)).index() == 3


def test_dlog_inverts_powers():
    for q in (3, 4, 5, 9, 7):
        spec = FieldSpec.from_order(q)
        g = canonical_generator(spec)
        for k in range(spec.q - 1):
            assert dlog(g**k, g) == k


def test_dlog_matches_stepped_powers():
    """dlog against the powers of w stepped one by one, for every generator
    w and every x."""
    for q in (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49):
        spec = FieldSpec.from_order(q)
        units = [x for x in spec.elements() if x]
        for w in units:
            if mult_order(w) != q - 1:
                continue
            stepped, cur = {}, spec.one
            for k in range(q - 1):
                stepped[cur] = k
                cur = cur * w
            assert cur == spec.one and len(stepped) == q - 1
            for x in units:
                assert dlog(x, w) == stepped[x]
            with pytest.raises(ValueError, match="zero has no discrete log"):
                dlog(spec.zero, w)


def test_non_generators_refused():
    """A nonzero non-generator and zero are refused as generators, by dlog
    and by UnitCharacter; a zero argument is refused first."""
    for q in (2, 3, 4, 5, 9):
        spec = FieldSpec.from_order(q)
        bad = [x for x in spec.elements() if x and mult_order(x) < q - 1] + [spec.zero]
        for w in bad:
            message = f"^{re.escape(str(w))} does not generate the unit group$"
            with pytest.raises(ValueError, match=message):
                unit_character(spec, 1, w)
            with pytest.raises(ValueError, match="does not generate the unit group"):
                dlog(spec.one, w)
            with pytest.raises(ValueError, match="zero has no discrete log"):
                dlog(spec.zero, w)


def test_generator_from_another_field_refused():
    f3, f5 = FieldSpec.from_order(3), FieldSpec.from_order(5)
    g5 = canonical_generator(f5)
    with pytest.raises(ValueError, match="different field"):
        UnitCharacter(f3, 1, g5)
    with pytest.raises(ValueError, match="different field"):
        dlog(f3.element(2), g5)
    with pytest.raises(ValueError, match="different field"):
        unit_character(f3, 1).exponent(f5.element(2))


def test_quadratic_character_values_and_multiplicativity():
    for q in (3, 5, 7, 9, 25, 49):
        spec = FieldSpec.from_order(q)
        assert quadratic_character(spec.zero) == 0
        values = [quadratic_character(x) for x in spec.elements() if not x.is_zero()]
        assert values.count(1) == (q - 1) // 2
        assert values.count(-1) == (q - 1) // 2
        rng = random.Random(q)
        for _ in range(30):
            a = spec.from_index(rng.randrange(1, q))
            b = spec.from_index(rng.randrange(1, q))
            assert quadratic_character(a * b) == quadratic_character(a) * quadratic_character(b)
            assert quadratic_character(a * a) == 1


def test_quadratic_character_needs_odd_q():
    with pytest.raises(HypothesisError):
        quadratic_character(FieldSpec.from_order(2).one)


def test_unit_character_homomorphism():
    rng = random.Random(4)
    for q in (3, 4, 5, 7, 9):
        spec = FieldSpec.from_order(q)
        n = q - 1
        for s in range(n):
            lam = unit_character(spec, s)
            assert lam.order == (n // math.gcd(s, n) if s else 1)
            for _ in range(20):
                a = spec.from_index(rng.randrange(1, q))
                b = spec.from_index(rng.randrange(1, q))
                ea, eb, eab = lam.exponent(a), lam.exponent(b), lam.exponent(a * b)
                assert eab == (ea + eb) % n
                conj = lam.conjugate()
                assert (lam.exponent(a) + conj.exponent(a)) % n == 0
            assert lam.exponent(spec.zero) is None


def test_unit_character_trivial_cases():
    spec2 = FieldSpec.from_order(2)
    lam = unit_character(spec2, 0)
    assert lam.is_trivial()
    assert lam.exponent(spec2.one) == 0
    spec3 = FieldSpec.from_order(3)
    assert unit_character(spec3, 0).is_trivial()
    assert not unit_character(spec3, 1).is_trivial()
    assert unit_character(spec3, 2).s == 0  # normalized mod q-1


def test_elements_cross_field_mix_rejected():
    a = FieldSpec.from_order(3).one
    b = FieldSpec.from_order(5).one
    with pytest.raises(ValueError):
        _ = a + b
