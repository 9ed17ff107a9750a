"""Differential tests of the Frobenius map x -> x^q mod m, of mod_pow by
base-q digits and of the blocked distinct-degree split, against the
square-and-multiply and the one-gcd-per-degree split they replace."""

import random

import pytest

from carlitzdigits import polyring
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.numutil import prime_factors
from carlitzdigits.polyring import (
    _factor_degrees,
    _make,
    _Modulus,
    _modulus,
    _slot,
    gen,
    mod_pow,
    poly_gcd,
)

QS = (2, 3, 4, 5, 7, 8, 9, 11, 25, 27)
FIELDS = [FieldSpec.from_order(q) for q in QS] + [FieldSpec(5, 2, (2, 1, 1))]
FIELD_IDS = [f"q{q}" for q in QS] + ["q25-explicit-modulus"]


def square_and_multiply(base, e, m):
    """base^e mod m, square-and-multiply from the top bit down (mod_pow
    before the Frobenius map)."""
    mod = _Modulus(m)
    product = mod.F.product
    acc = result = mod.divmod(base.ints if e else (1,))[1]
    for bit in bin(e)[3:]:
        result = mod.divmod(product(result, result))[1]
        if bit == "1":
            result = mod.divmod(product(result, acc))[1]
    return _make(m.spec, result)


def per_degree_factor_degrees(m):
    """_factor_degrees before blocking: one gcd per degree."""
    q, t = m.spec.q, gen(m.spec)
    a, h, i = m.monic(), t, 0
    while 2 * (i + 1) <= len(a.ints) - 1:
        i += 1
        h = square_and_multiply(h, q, a)
        f = poly_gcd(h - t, a)
        if len(f.ints) > 1:
            e = 0
            while len(f.ints) > 1:
                a, e = a // f, e + 1
                f = poly_gcd(a, f)
            yield i, e
            h = h % a
    if len(a.ints) > 1:
        yield len(a.ints) - 1, 1


def rand_poly(rng, spec, length, lead=None):
    """length random indices, the last nonzero (lead, if given)."""
    ints = [rng.randrange(spec.q) for _ in range(length)]
    if ints:
        ints[-1] = lead or rng.randrange(1, spec.q)
    return _make(spec, ints)


def moduli(rng, spec):
    """A constant m, and m of degree 1, 2, 3, 5 and 8, monic at even
    degree and with a leading coefficient other than 1 at odd degree when
    q > 2."""
    yield rand_poly(rng, spec, 1)
    for d in (1, 2, 3, 5, 8):
        lead = 1 if d % 2 == 0 or spec.q == 2 else rng.randrange(2, spec.q)
        yield rand_poly(rng, spec, d + 1, lead)


def exponents(rng, q, d):
    """0, 1, q - 1, q, q + 1, q^2, (q^d - 1)/l for each prime l | q^d - 1,
    and one e >= 2^70."""
    n = q ** max(d, 1) - 1
    out = [0, 1, q - 1, q, q + 1, q * q] + [n // ell for ell in prime_factors(n)]
    return out + [rng.randrange(2**70, 2**71)]


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_mod_pow_matches_square_and_multiply(spec):
    """Every exponent on a fresh modulus (powers by square-and-multiply
    until the map is built) and again once the map serves it; bases of
    degree below deg m, at least deg m, divisible by m, and T."""
    rng = random.Random(1000 + spec.q + spec.a)
    q = spec.q
    for m in moduli(rng, spec):
        d = len(m.ints) - 1
        bases = [rand_poly(rng, spec, rng.randint(1, max(d, 1))),
                 rand_poly(rng, spec, d + 3), m * rand_poly(rng, spec, 2), gen(spec)]
        for base in bases:
            polyring._modulus.cache_clear()
            for _ in range(2):
                for e in exponents(rng, q, d):
                    want = square_and_multiply(base, e, m)
                    assert mod_pow(base, e, m) == want, (str(m), str(base), e)
            if d >= 1 and (base % m).ints:
                assert _modulus(m).frobenius is not None
    polyring._modulus.cache_clear()


WIDE = [FieldSpec(65537), FieldSpec(2**31 - 1)]


@pytest.mark.parametrize("spec", FIELDS + WIDE,
                         ids=FIELD_IDS + [f"p{s.p}" for s in WIDE])
def test_frobenius_map_is_the_qth_power(spec):
    """The map against x^q by square-and-multiply on random x reduced mod
    m (zero and constants included), monic and non-monic m; over F_p, p =
    2^31 - 1, deg m >= 5 puts deg m * (p - 1)^2 past the widest slot, so
    the map sums its columns on ints."""
    rng = random.Random(1100 + spec.p + spec.a)
    p, a = spec.p, spec.a
    for d in (1, 2, 3, 4, 7, 12):
        lead = 1 if d % 2 == 0 or spec.q == 2 else rng.randrange(2, spec.q)
        m = rand_poly(rng, spec, d + 1, lead)
        if p == 2**31 - 1:
            assert (_slot((d * a * (p - 1) ** 2).bit_length()) is None) == (d >= 5)
        frobenius = _Modulus(m)._frobenius_map()
        xs = [_make(spec, ()), rand_poly(rng, spec, 1)]
        xs += [rand_poly(rng, spec, rng.randint(1, d)) for _ in range(8)]
        for x in xs:
            assert _make(spec, frobenius(list(x.ints))) == square_and_multiply(x, spec.q, m)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9))
def test_blocked_split_matches_per_degree(q):
    """_factor_degrees against the one-gcd-per-degree split on random m of
    degree up to 40 and on products of three random factors, one squared,
    whose degrees fall into several blocks."""
    spec = FieldSpec.from_order(q)
    rng = random.Random(1200 + q)
    cases = [rand_poly(rng, spec, rng.randint(2, 41)) for _ in range(12)]
    for _ in range(12):
        factors = [rand_poly(rng, spec, rng.choice((1, 2, 3, 5, 9, 10, 11)) + 1)
                   for _ in range(3)]
        cases.append(factors[0] * factors[0] * factors[1] * factors[2])
    for m in cases:
        assert list(_factor_degrees(m)) == list(per_degree_factor_degrees(m)), str(m)
