import functools
import itertools
import math
import random
import re

import pytest

from carlitzdigits import cli, polyring
from carlitzdigits.errors import HypothesisError, ParseError
from carlitzdigits.ffq import (
    BUILTIN_MODULI,
    FieldElement,
    FieldSpec,
    UnitCharacter,
    _index,
    _log,
    canonical_generator,
    dlog,
    quadratic_character,
    unit_character,
)
from carlitzdigits.numutil import element_order, least_witness
from carlitzdigits.polyring import Poly, mod_pow

FIELDS = (2, 3, 4, 5, 7, 8, 9, 25, 49)


def mult_order(x):
    """Order of the unit x in F_q^x, by numutil.element_order."""
    return element_order(x.spec.q - 1, lambda e: x**e == x.spec.one)


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


def reference_exp_log(spec):
    """(exp, log) on indices as one table from the list of powers: exp[k] =
    w^k, w the canonical generator, over 4(q - 1) - 1 entries reading 0
    from 2(q - 1) - 1 on; log inverts it, log[0] the sentinel 2(q - 1) - 1."""
    n = spec.q - 1
    w = canonical_generator(spec)
    powers, cur = [], spec.one
    for _ in range(n):
        powers.append(cur.index())
        cur = cur * w
    log = [2 * n - 1] * spec.q
    for k, x in enumerate(powers):
        log[x] = k
    return tuple(powers + powers[: n - 1] + [0] * (2 * n)), tuple(log)


EXTENSIONS = [FieldSpec(p, a) for p, a in BUILTIN_MODULI]
# x^2+1 over F_3, x^4+x^3+x^2+x+1 over F_2, x^2+2 over F_5 and x^3+2 over F_7:
# moduli whose class x is not a generator
USER_MODULI = [pytest.param(spec, id=f"q{spec.q}-{spec.modulus}") for spec in (
    FieldSpec(3, 2, (1, 0, 1)), FieldSpec(2, 4, (1, 1, 1, 1, 1)), FieldSpec(5, 2, (2, 0, 1)),
    FieldSpec(7, 3, (2, 0, 0, 1)))]


@pytest.mark.parametrize("spec", [*(FieldSpec(p) for p in (2, 3, 5, 7, 11, 101)), *EXTENSIONS,
                                  *USER_MODULI], ids=lambda spec: f"q{spec.q}")
def test_log_table_and_derived_exp_match_reference(spec):
    exp, log = reference_exp_log(spec)
    assert _log(spec) == log
    if spec.a > 1:
        assert polyring._field(spec).exp == exp


@pytest.mark.parametrize("spec", EXTENSIONS + USER_MODULI, ids=lambda spec: f"q{spec.q}")
def test_tables_build_without_extension_field_arithmetic(spec, monkeypatch):
    """The canonical generator and the log table of an extension field are
    built by prime-field arithmetic alone: with no arithmetic of the field
    to be had (a fresh _field cache, _ExtensionField refusing), both are
    built again and equal the reference's."""
    exp, log = reference_exp_log(spec)

    def refuse(spec):
        raise AssertionError(f"extension-field arithmetic built for {spec}")

    monkeypatch.setattr(polyring, "_field", functools.cache(polyring._field.__wrapped__))
    monkeypatch.setattr(polyring, "_ExtensionField", refuse)
    assert canonical_generator.__wrapped__(spec).index() == exp[1]
    assert _log.__wrapped__(spec) == log


def reference_canonical_generator(spec):
    """canonical_generator before it was polyring's search: a loop of its
    own over the elements, each powered in F_p or in F_p[x]/(modulus)."""
    n, one, power = spec.q - 1, spec.one, pow
    if spec.a > 1:
        m = Poly(FieldSpec(spec.p), spec.modulus)
        one, power = Poly.one(m.spec), lambda x, e: mod_pow(Poly(m.spec, x.coeffs), e, m)
    for i in range(1 if spec.a == 1 else spec.p, spec.q):
        x = spec.from_index(i)
        if least_witness(n, lambda e: power(x, e) == one) is None:
            return x
    raise AssertionError("unit group of a finite field is cyclic")


def reference_log(spec):
    """_log before it walked by _Modulus.walk: ints mod p, or for a > 1
    one product and one division by the modulus per power."""
    n, p = spec.q - 1, spec.p
    w = reference_canonical_generator(spec).coeffs
    log = [2 * n - 1] * spec.q
    if spec.a == 1:
        cur = 1
        for k in range(n):
            log[cur] = k
            cur = cur * w[0] % p
        return tuple(log)
    mul, cur = polyring._Modulus(Poly(FieldSpec(p), spec.modulus)).mul, [1]
    for k in range(n):
        log[_index(cur, p)] = k
        cur = mul(cur, w)
    return tuple(log)


# F_1024 by x^10+x^3+x^2+x+1 and F_2187 by x^7+x^2+2: x generates neither
LARGER_USER_MODULI = [pytest.param(spec, id=f"q{spec.q}-{spec.modulus}") for spec in (
    FieldSpec(2, 10, (1, 1, 1, 1) + (0,) * 6 + (1,)), FieldSpec(3, 7, (2, 0, 1, 0, 0, 0, 0, 1)))]


@pytest.mark.parametrize("spec", [*(FieldSpec(p) for p in (2, 3, 5, 7, 11, 101, 65537, 999983)),
                                  *EXTENSIONS, *USER_MODULI, *LARGER_USER_MODULI],
                         ids=lambda spec: f"q{spec.q}")
def test_generator_and_log_match_their_own_loops(spec):
    """The generator found by polyring's primitive-residue search and the
    log table walked by _Modulus.walk equal those of the loops ffq had."""
    assert canonical_generator.__wrapped__(spec) == reference_canonical_generator(spec)
    assert _log.__wrapped__(spec) == reference_log(spec)


@pytest.mark.parametrize("spec", [*EXTENSIONS, *USER_MODULI, *LARGER_USER_MODULI],
                         ids=lambda spec: f"q{spec.q}")
def test_log_steps_without_products_mod_the_modulus(spec, monkeypatch):
    """For a > 1 the powers of w are stepped by one packed map per step
    (_Modulus.walk), never by a product and a division mod the modulus."""
    want = reference_log(spec)
    canonical_generator(spec)

    def refuse(self, u, v):
        raise AssertionError("a product mod the modulus")

    monkeypatch.setattr(polyring._Modulus, "mul", refuse)
    assert _log.__wrapped__(spec) == want


def reference_mul(x, y):
    """FieldElement.__mul__ before it ran on polyring's arithmetic: a
    schoolbook on coordinates, then a reduction by the modulus."""
    spec = x.spec
    p = spec.p
    if spec.a == 1:
        return FieldElement(spec, (x.coeffs[0] * y.coeffs[0] % p,))
    prod = [0] * (2 * spec.a - 1)
    for i, c in enumerate(x.coeffs):
        if c:
            for j, d in enumerate(y.coeffs):
                prod[i + j] = (prod[i + j] + c * d) % p
    mod = spec.modulus
    for k in range(len(prod) - 1, spec.a - 1, -1):
        c = prod[k]
        if c:
            prod[k] = 0
            for i in range(spec.a):
                prod[k - spec.a + i] = (prod[k - spec.a + i] - c * mod[i]) % p
    return FieldElement(spec, tuple(prod[: spec.a]))


def reference_pow(x, e):
    """FieldElement.__pow__ before: square-and-multiply by reference_mul."""
    if e < 0:
        return reference_pow(reference_inverse(x), -e)
    result, base = x.spec.one, x
    while e:
        if e & 1:
            result = reference_mul(result, base)
        base = reference_mul(base, base)
        e >>= 1
    return result


def reference_inverse(x):
    """FieldElement.inverse before: the power q - 2."""
    if x.is_zero():
        raise ZeroDivisionError("zero has no inverse")
    return reference_pow(x, x.spec.q - 2)


@pytest.mark.parametrize("spec", [*EXTENSIONS, FieldSpec(101), *USER_MODULI],
                         ids=lambda spec: f"q{spec.q}")
def test_operations_match_reference(spec):
    """Products, quotients, sums and differences of every pair of elements
    (of 3000 seeded pairs when q > 64), negatives, inverses and powers
    (negative ones too) of every element, against the coordinate arithmetic
    FieldElement had of its own."""
    p, elements = spec.p, list(spec.elements())
    rng = random.Random(spec.q)
    pairs = (itertools.product(elements, repeat=2) if spec.q <= 64 else
             ((rng.choice(elements), rng.choice(elements)) for _ in range(3000)))
    for x, y in pairs:
        assert x * y == reference_mul(x, y)
        assert x + y == FieldElement(spec, tuple((c + d) % p for c, d in zip(x.coeffs, y.coeffs)))
        assert x - y == FieldElement(spec, tuple((c - d) % p for c, d in zip(x.coeffs, y.coeffs)))
        if y:
            assert x / y == reference_mul(x, reference_inverse(y))
    for x in elements:
        assert -x == FieldElement(spec, tuple(-c % p for c in x.coeffs))
        for e in (0, 1, 2, 3, spec.q - 2, spec.q - 1, spec.q, 5 * spec.q + 3, 10**12 + 39):
            assert x**e == reference_pow(x, e)
        if x:
            assert x.inverse() == reference_inverse(x)
            for e in (-1, -2, -spec.q, -(10**12 + 39)):
                assert x**e == reference_pow(x, e)
    zero = spec.zero
    for refuse in (zero.inverse, lambda: zero**-1, lambda: spec.one / zero,
                   lambda: reference_inverse(zero)):
        with pytest.raises(ZeroDivisionError, match="^zero has no inverse$"):
            refuse()


def test_prime_field_table_builds_no_exp_table(monkeypatch, capsys):
    """Every table of class numbers over F_7, d = 2, with both cross-checks,
    answers without the extension-field arithmetic, the only reader of an
    exp table."""
    def refuse(spec):
        raise AssertionError(f"extension-field arithmetic built for {spec}")

    monkeypatch.setattr(polyring, "_ExtensionField", refuse)
    argv = ["sweep", "--q", "7", "--d", "2", "--verify", "charsum", "--verify", "pointcount"]
    assert cli.main(argv) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 210 and all(row.endswith(",true") for row in rows)
