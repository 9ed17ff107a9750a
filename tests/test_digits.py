import json
import random
from itertools import islice

import pytest

from carlitzdigits.digits import (
    DigitExpansion,
    digit_closed_form,
    digit_expand,
    digit_period,
    twisted_digit_sum,
)
from carlitzdigits.errors import HypothesisError
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.numutil import element_order
from carlitzdigits.polyring import (
    Poly,
    _Modulus,
    format_poly,
    gen,
    is_irreducible,
    mod_pow,
    monic_polys,
    parse_poly,
    poly,
    poly_gcd,
)

from conftest import EX1, EX2, EX3, random_irreducible, random_poly


def pinned_setup(example):
    spec = FieldSpec.from_order(example["q"])
    return spec, parse_poly(spec, example["P"]), parse_poly(spec, example["G"])


@pytest.mark.parametrize("example", (EX1, EX2, EX3), ids=("q3d2", "q2d3", "q3d3"))
def test_pinned_digit_lists(example):
    spec, P, G = pinned_setup(example)
    r = example["r"]
    exp = digit_expand(Poly.one(spec), P, G, 2 * r)
    assert exp.h0.is_zero()
    assert [format_poly(h) for h in exp.digits[:r]] == list(example["digits"])
    assert exp.period == example["N"]
    # one scalar block later the digits repeat up to the unit w = G^r mod P
    w = mod_pow(G, r, P)
    assert w.degree() == 0
    c = w.leading_coeff()
    for k in range(r):
        assert exp.digits[k + r] == exp.digits[k].scale(c)


def test_closed_form_matches_division():
    rng = random.Random(31)
    reducible_seen = 0
    done = 0
    while done < 200:
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        M = random_poly(rng, spec, rng.randint(1, 4))
        G = random_poly(rng, spec, rng.randint(1, 3))
        if poly_gcd(G, M).degree() != 0:
            continue
        n = rng.randint(1, 15)
        exp = digit_expand(Poly.one(spec), M, G, n)
        for k in range(1, n + 1):
            h = digit_closed_form(M, G, k)
            assert h == exp.digits[k - 1]
            assert h.is_zero() or h.degree() < G.degree()
        # exactness: the quotient of G^n by M is the digit partial sum
        # S = sum H_k G^(n-k), because G^n = S*M + (G^n mod M)
        S = Poly.zero(spec)
        Gp = Poly.one(spec)
        for k in range(n, 0, -1):
            S = S + exp.digits[k - 1] * Gp
            Gp = Gp * G
        quo, rem = divmod(Gp, M)
        assert quo == S
        assert rem == mod_pow(G, n, M)
        if not is_irreducible(M.monic()):
            reducible_seen += 1
        done += 1
    assert reducible_seen > 10


def brute_order(G, M):
    """The order of G mod M by stepping its powers, one division each, on
    index lists through one polyring._Modulus."""
    mod = _Modulus(M)
    product = mod.F.product
    one, g = mod.divmod((1,))[1], mod.divmod(G.ints)[1]
    cur, count = g, 1
    while cur != one:
        cur, count = mod.divmod(product(cur, g))[1], count + 1
    return count


def test_period_matches_brute_order():
    rng = random.Random(32)
    done = 0
    while done < 100:
        spec = FieldSpec.from_order(rng.choice((2, 3, 4)))
        M = random_poly(rng, spec, rng.randint(1, 3))
        G = random_poly(rng, spec, rng.randint(1, 3))
        if poly_gcd(G, M).degree() != 0:
            continue
        g = digit_period(M, G)
        assert g == brute_order(G, M)
        exp = digit_expand(Poly.one(spec), M, G, 2 * g)
        if exp.period is not None:
            assert exp.period == g
        for k in range(g):
            assert exp.digits[k + g] == exp.digits[k]
        done += 1


BASES = ("T", "T+1", "2*T^2+T+1", "T^5+T^2+1")


def _period_cases(spec, degrees, bases_per_m):
    """(M, G) for every monic M of these degrees and the first bases_per_m
    bases of BASES coprime to it, of degree below, at and above deg M."""
    bases = [parse_poly(spec, text) for text in BASES]
    for d in degrees:
        for M in monic_polys(spec, d):
            coprime = (G for G in bases if poly_gcd(G, M).degree() == 0)
            for G in islice(coprime, bases_per_m):
                yield M, G


# (q, degrees of M); the ids of the first five name the largest degree
@pytest.mark.parametrize("q, degrees", [
    pytest.param(2, range(1, 5), id="2-4"),
    pytest.param(3, range(1, 4), id="3-3"),
    pytest.param(4, range(1, 3), id="4-2"),
    pytest.param(5, range(1, 3), id="5-2"),
    pytest.param(9, range(1, 3), id="9-2"),
    pytest.param(2, range(5, 7), id="2-deg5-6"),
    pytest.param(3, range(4, 7), id="3-deg4-6"),
    pytest.param(4, range(3, 5), id="4-deg3-4"),
    pytest.param(9, range(3, 4), id="9-deg3"),
])
def test_period_matches_stepping_every_monic_modulus(q, degrees):
    """The exponent route against stepping: every monic M of these degrees,
    squarefree or not, irreducible or not."""
    spec = FieldSpec.from_order(q)
    kinds = set()
    for M, G in _period_cases(spec, degrees, len(BASES)):
        assert digit_period(M, G) == brute_order(G, M)
        kinds.add(is_irreducible(M))
    assert kinds == {True, False}


def test_period_of_every_quartic_over_f9():
    """Every monic quartic M over F_9 with its first base from BASES.  The
    period g is certified to be the order of G by G^g = 1 and G^(g/ell) != 1
    for each prime ell | g (which divides q^4 - 1 or p = 3); where M has a
    repeated factor it is also stepped.  Stepping all 6561 takes 50 s of CPU
    on a 2-core shared host, 42 s of it for the 1620 irreducible ones."""
    spec = FieldSpec.from_order(9)
    one = Poly.one(spec)
    repeated = 0
    for M, G in _period_cases(spec, (4,), 1):
        g = digit_period(M, G)
        assert mod_pow(G, g, M) == one % M
        for ell in (2, 3, 5, 7, 13, 41):
            assert g % ell or mod_pow(G, g // ell, M) != one % M
        if poly_gcd(M, _derivative(M)).degree() > 0:
            assert g == brute_order(G, M)
            repeated += 1
    assert repeated > 500


def _derivative(f):
    spec = f.spec
    return Poly(spec, [c * spec.element(i % spec.p) for i, c in enumerate(f.coeffs)][1:])


def _power(f, k):
    out = Poly.one(f.spec)
    for _ in range(k):
        out = out * f
    return out


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_period_matches_stepping_repeated_factors(q):
    """Moduli with a factor of multiplicity p, p + 1 and 3: (T+1)^p (T^2+1),
    (T+1)^(p+1) and P^3, P irreducible of degree 2, also times a constant,
    against every base of BASES coprime to them."""
    spec = FieldSpec.from_order(q)
    p, t1 = spec.p, parse_poly(spec, "T+1")
    P = next(f for f in monic_polys(spec, 2) if is_irreducible(f))
    c = spec.from_index(q - 1)
    for M in (_power(t1, p) * parse_poly(spec, "T^2+1"), _power(t1, p + 1),
              _power(P, 3), _power(P, 3).scale(c)):
        for G in (parse_poly(spec, text) for text in BASES):
            if poly_gcd(G, M).degree() == 0:
                assert digit_period(M, G) == brute_order(G, M)


def test_expansion_without_coprime_base():
    spec = FieldSpec.from_order(2)
    t = gen(spec)
    exp = digit_expand(Poly.one(spec), t * t, t, 3)
    assert [format_poly(h) for h in exp.digits] == ["0", "1", "0"]
    assert exp.period is None


def test_terminating_expansion():
    spec = FieldSpec.from_order(3)
    t = gen(spec)
    num = t * t + t
    exp = digit_expand(num, t, t + Poly.one(spec), 4)
    assert format_poly(exp.h0) == "T+1"
    assert all(h.is_zero() for h in exp.digits)
    assert exp.period is None


def test_zero_numerator():
    spec = FieldSpec.from_order(3)
    exp = digit_expand(Poly.zero(spec), gen(spec), gen(spec) + Poly.one(spec), 3)
    assert exp.h0.is_zero()
    assert all(h.is_zero() for h in exp.digits)


def test_polynomial_part_tracks_valuation():
    rng = random.Random(33)
    for _ in range(100):
        spec = FieldSpec.from_order(rng.choice((2, 3, 5)))
        num = random_poly(rng, spec, rng.randint(0, 4))
        den = random_poly(rng, spec, rng.randint(1, 4))
        base = random_poly(rng, spec, rng.randint(1, 3))
        exp = digit_expand(num, den, base, 2)
        assert exp.h0.is_zero() == (num.degree() < den.degree())


def test_rudnick_and_twisted_sums():
    rng = random.Random(34)
    satisfied = 0
    violated = 0
    tries = 0
    while satisfied < 120 and tries < 5000:
        tries += 1
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        M = random_poly(rng, spec, rng.randint(1, 3))
        G = random_poly(rng, spec, rng.randint(1, 3))
        if poly_gcd(G, M).degree() != 0:
            continue
        if rng.randrange(2):
            alpha = spec.one
        else:
            alpha = spec.from_index(rng.randrange(1, spec.q))
        g = digit_period(M, G)
        aG = G.scale(alpha)
        witness = G * (aG - Poly.one(spec))
        hyp_gcd = witness.is_zero() or poly_gcd(witness, M).degree() == 0
        hyp_ord = g % element_order(spec.q - 1, lambda e: alpha**e == spec.one) == 0
        total = twisted_digit_sum(M, G, alpha)
        if hyp_gcd and hyp_ord and not witness.is_zero():
            satisfied += 1
            assert total.is_zero()
        else:
            violated += 1
    assert satisfied >= 120
    assert violated > 0


def test_twisted_sum_matches_closed_forms():
    """The stepped period sum against sum_{k <= g} alpha^k H_k with each H_k
    from digit_closed_form (G_{k-1} by modular powering), about half of the
    moduli reducible."""
    rng = random.Random(4077)
    for case in range(60):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        if case % 2:
            M = random_poly(rng, spec, rng.randint(1, 2))
            M = M * random_poly(rng, spec, rng.randint(1, 2))
        else:
            M = random_irreducible(rng, spec, rng.randint(1, 3))
        G = random_poly(rng, spec, rng.randint(1, 3))
        while poly_gcd(G, M).degree() != 0:
            G = random_poly(rng, spec, rng.randint(1, 3))
        alpha = spec.from_index(rng.randrange(1, spec.q))
        expected = Poly.zero(spec)
        ak = spec.one
        for k in range(1, digit_period(M, G) + 1):
            ak = ak * alpha
            expected = expected + digit_closed_form(M, G, k).scale(ak)
        assert twisted_digit_sum(M, G, alpha) == expected


def test_twisted_sum_counterexample():
    spec = FieldSpec.from_order(2)
    t = gen(spec)
    total = twisted_digit_sum(t, t + Poly.one(spec), spec.one)
    assert format_poly(total) == "1"


def test_json_roundtrip():
    rng = random.Random(35)
    for _ in range(20):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 9)))
        num = random_poly(rng, spec, rng.randint(0, 3))
        den = random_poly(rng, spec, rng.randint(1, 3))
        base = random_poly(rng, spec, rng.randint(1, 3))
        exp = digit_expand(num, den, base, 6)
        blob = json.dumps(exp.to_json_dict())
        back = DigitExpansion.from_json_dict(spec, json.loads(blob))
        assert back == exp


def test_error_paths():
    spec = FieldSpec.from_order(3)
    t = gen(spec)
    P = parse_poly(spec, "T^2+1")
    one = Poly.one(spec)
    with pytest.raises(ZeroDivisionError):
        digit_expand(one, Poly.zero(spec), t, 3)
    with pytest.raises(HypothesisError):
        digit_expand(one, P, poly(spec, 2), 3)
    with pytest.raises(ValueError):
        digit_expand(one, P, t, 0)
    with pytest.raises(ValueError):
        digit_closed_form(P, t, 0)
    with pytest.raises(HypothesisError):
        digit_closed_form(t * t, t, 1)
    with pytest.raises(HypothesisError):
        digit_period(poly(spec, 2), t)
    with pytest.raises(HypothesisError):
        digit_period(t * P, t)
    with pytest.raises(ValueError):
        twisted_digit_sum(P, t, spec.zero)
    with pytest.raises(HypothesisError):
        twisted_digit_sum(t * P, t, spec.one)
