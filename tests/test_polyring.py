import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from carlitzdigits import polyring
from carlitzdigits.errors import ParseError
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.polyring import (
    NEG_INF,
    Poly,
    _factor_degrees,
    format_poly,
    gen,
    is_irreducible,
    mod_pow,
    monic_polys,
    monic_polys_below,
    parse_poly,
    poly,
    poly_gcd,
    primitivity_witness,
    valuation_inf,
)
from carlitzdigits.numutil import least_witness

from conftest import random_poly


def test_zero_conventions():
    spec = FieldSpec.from_order(3)
    z = Poly.zero(spec)
    assert z.degree() == NEG_INF
    assert z.leading_coeff() == spec.zero
    assert z.is_zero()
    f = parse_poly(spec, "2*T+2")
    assert f.degree() == 1
    assert f.leading_coeff() == spec.element(2)
    c = parse_poly(FieldSpec.from_order(7), "5")
    assert c.degree() == 0
    assert c.leading_coeff().index() == 5


def test_divmod_examples():
    spec = FieldSpec.from_order(3)
    q, r = divmod(parse_poly(spec, "T^2+1"), parse_poly(spec, "T"))
    assert format_poly(q) == "T" and format_poly(r) == "1"
    G = parse_poly(spec, "T^2+T+2")
    P = parse_poly(spec, "T^2+1")
    q, r = divmod(G * Poly.one(spec), P)
    assert format_poly(q) == "1" and format_poly(r) == "T+1"
    spec2 = FieldSpec.from_order(2)
    f = parse_poly(spec2, "T+1")
    assert format_poly(f * f) == "T^2+1"


def test_divmod_property_random():
    rng = random.Random(10)
    for _ in range(150):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        f = random_poly(rng, spec, rng.randint(0, 6))
        g = random_poly(rng, spec, rng.randint(0, 4))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.is_zero() or r.degree() < g.degree()


def test_division_by_zero():
    spec = FieldSpec.from_order(3)
    with pytest.raises(ZeroDivisionError):
        divmod(gen(spec), Poly.zero(spec))


def test_valuation_inf():
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^2+1")
    assert valuation_inf(Poly.one(spec), P) == 2
    t2 = parse_poly(spec, "T^2")
    assert valuation_inf(t2, t2) == 0
    assert valuation_inf(parse_poly(spec, "T^3+T"), gen(spec)) == -2
    with pytest.raises(ValueError):
        valuation_inf(Poly.zero(spec), P)


def test_irreducibility_examples():
    spec3 = FieldSpec.from_order(3)
    spec2 = FieldSpec.from_order(2)
    assert is_irreducible(parse_poly(spec3, "T^2+1"))
    assert is_irreducible(parse_poly(spec2, "T^3+T+1"))
    assert not is_irreducible(parse_poly(spec3, "T^2+2"))
    assert is_irreducible(parse_poly(spec3, "2*T+1"))
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(spec3))


def brute_irreducible(f):
    d = f.degree()
    if d < 1:
        return False
    for s in range(1, d):
        for g in monic_polys(f.spec, s):
            if (f % g).is_zero():
                return False
    return True


def test_irreducibility_matches_trial_division():
    for q in (2, 3, 4):
        spec = FieldSpec.from_order(q)
        for d in range(1, 5):
            for f in monic_polys(spec, d):
                assert is_irreducible(f) == brute_irreducible(f)


REFARITH = Path(__file__).resolve().parent.parent / "perfbench" / "refarith.py"


@pytest.fixture(scope="module")
def refarith():
    """The benchmark's reference arithmetic (Rabin's test), which does not
    import the package, with the package's moduli of F_8, F_16 and F_25
    added to its own of F_4 and F_9 (indices in the same order)."""
    spec = importlib.util.spec_from_file_location("refarith_for_polyring", REFARITH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for q in (8, 16, 25):
        field = FieldSpec.from_order(q)
        module.MODULI[q] = (field.p, field.modulus)
    return module


def test_irreducibility_matches_reference_rabin(refarith):
    """Every monic of degree <= 6 over F_2, F_3, F_4, then random P of
    degree <= 14, non-monic ones and powers g^k among them."""
    R, rng = refarith, random.Random(17)

    def check(F, f):
        assert is_irreducible(f) == R.is_irreducible(F, list(f.ints)), format_poly(f)

    for q in (2, 3, 4):
        F, spec = R.Field(q), FieldSpec.from_order(q)
        for d in range(1, 7):
            for f in monic_polys(spec, d):
                check(F, f)
    for q in (2, 3, 5, 7, 8, 9, 16, 25):
        F, spec = R.Field(q), FieldSpec.from_order(q)
        for _ in range(24):
            check(F, random_poly(rng, spec, rng.randint(1, 14), monic=rng.randrange(2) == 1))
            g = random_poly(rng, spec, rng.randint(1, 4))
            check(F, _power(g, rng.randint(2, 14 // g.degree())))


def _power(g, k):
    out = g
    for _ in range(k - 1):
        out = out * g
    return out


def test_factor_degrees_match_chosen_factors():
    """m = c * prod Q_j^(e_j) for distinct irreducibles Q_j found by trial
    division: _factor_degrees yields each degree once, ascending, with the
    largest e_j among the Q_j of that degree."""
    rng = random.Random(18)
    for q in (2, 3, 4, 5):
        spec = FieldSpec.from_order(q)
        irreducibles = [f for d in range(1, 5) for f in monic_polys(spec, d)
                        if brute_irreducible(f)]
        for _ in range(40):
            chosen = rng.sample(irreducibles, rng.randint(1, 4))
            m, want = Poly.one(spec) * spec.from_index(rng.randrange(1, q)), {}
            for Q in chosen:
                e = rng.choice((1, 1, 2, 3, 5))
                m = m * _power(Q, e)
                want[Q.degree()] = max(want.get(Q.degree(), 0), e)
            assert list(_factor_degrees(m)) == sorted(want.items()), format_poly(m)


def test_monic_enumeration():
    for q in (2, 3, 5):
        spec = FieldSpec.from_order(q)
        for s in range(0, 3):
            polys = list(monic_polys(spec, s))
            assert len(polys) == q**s
            assert len(set(polys)) == q**s
            assert all(f.is_monic() and f.degree() == s for f in polys)
        below = list(monic_polys_below(spec, 3))
        assert len(below) == 1 + q + q * q


@pytest.mark.parametrize("q, s", [(2, 0), (2, 5), (3, 1), (5, 3), (11, 2)])
def test_enumeration_order_is_product_order(q, s):
    """The lazy enumeration yields the tuples of itertools.product read
    backwards: the constant coefficient varies fastest."""
    spec = FieldSpec.from_order(q)
    want = [digits[::-1] for digits in itertools.product(range(q), repeat=s)]
    assert [f.ints[:-1] for f in monic_polys(spec, s)] == want
    assert [f.ints + (0,) * (s - len(f.ints)) for f in polyring.all_polys_below(spec, s)] == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_irreducible_sieve_matches_the_split(q):
    """The sieve that the point count and sweep read lists the monic
    polynomials that is_irreducible accepts, in enumeration order."""
    spec = FieldSpec.from_order(q)
    d = 1
    while q**d <= 5000:
        want = [P for P in monic_polys(spec, d) if is_irreducible(P)]
        assert polyring._irreducibles(spec, d) == tuple(want), (q, d)
        d += 1


def test_mod_pow_matches_naive():
    rng = random.Random(11)
    for _ in range(60):
        spec = FieldSpec.from_order(rng.choice((2, 3, 5)))
        m = random_poly(rng, spec, rng.randint(1, 4))
        b = random_poly(rng, spec, rng.randint(0, 3))
        e = rng.randrange(0, 40)
        naive = Poly.one(spec) % m
        for _ in range(e):
            naive = (naive * b) % m
        assert mod_pow(b, e, m) == naive


def test_mod_pow_sets_up_each_modulus_once(monkeypatch):
    """Powers of many bases mod one m build one _Modulus of m; an equal m
    made anew reuses it, and a second modulus gets its own."""
    built = []

    class Counting(polyring._Modulus):
        def __init__(self, m):
            built.append(m)
            super().__init__(m)

    monkeypatch.setattr(polyring, "_Modulus", Counting)
    polyring._modulus.cache_clear()
    try:
        spec = FieldSpec.from_order(3)
        m = parse_poly(spec, "T^4+T+2")
        for k in range(1, 30):
            base = poly(spec, k % 3, 1)
            assert mod_pow(base, k, m) == mod_pow(base, k, parse_poly(spec, "T^4+T+2"))
        m2 = parse_poly(spec, "T^3+2*T+1")
        mod_pow(gen(spec), 5, m2)
        assert built == [m, m2]
    finally:
        polyring._modulus.cache_clear()


def reference_primitivity_witness(G, P):
    """The least prime ell | N = q^deg P - 1 with G^(N/ell) = 1 mod P, one
    mod_pow per prime of N, ascending; None when G is primitive."""
    N = P.spec.q ** (len(P.ints) - 1) - 1
    one = Poly.one(P.spec) % P
    return least_witness(N, lambda e: mod_pow(G, e, P) == one)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27])
def test_primitivity_witness_matches_the_powering_reference(q):
    """The norm-first witness is the reference's least witness for every
    nonzero residue mod every monic irreducible P with q^deg P <= 128 and
    mod a few P of degree 3 that are not monic, and for seeded residues and
    lifts (deg G >= deg P) mod seeded P at (3, 8), (7, 4) and (2, 12)."""
    def check(g, P):
        assert primitivity_witness(g, P) == reference_primitivity_witness(g, P), (str(P), str(g))

    spec = FieldSpec.from_order(q)
    d = 1
    while q**d <= 128:
        for P in polyring._irreducibles(spec, d):
            for g in itertools.islice(polyring.all_polys_below(spec, d), 1, None):
                check(g, P)
        d += 1
    if q in (5, 7):  # Res(P, g) carries lc(P)^deg g; the witnesses do not
        for P in polyring._irreducibles(spec, 3)[:3]:
            P = P.scale(spec.from_index(q - 2))
            for g in itertools.islice(polyring.all_polys_below(spec, 3), 1, None):
                check(g, P)
    rng = random.Random(q)
    for sq, sd in ((3, 8), (7, 4), (2, 12)):
        if sq != q:
            continue
        for P in rng.sample(polyring._irreducibles(spec, sd), 4):
            for _ in range(25):
                g = random_poly(rng, spec, rng.randrange(2 * sd))
                if not (g % P).is_zero():
                    check(g, P)


def test_poly_gcd_properties():
    rng = random.Random(12)
    for _ in range(80):
        spec = FieldSpec.from_order(rng.choice((2, 3)))
        f = random_poly(rng, spec, rng.randint(0, 4))
        g = random_poly(rng, spec, rng.randint(0, 4))
        d = poly_gcd(f, g)
        assert (f % d).is_zero() and (g % d).is_zero()
        assert d.is_monic()
        common = random_poly(rng, spec, 2)
        d2 = poly_gcd(f * common, g * common)
        assert (d2 % common.monic()).is_zero()


def test_parse_human_and_list_forms():
    spec = FieldSpec.from_order(3)
    f = parse_poly(spec, "T^3+2*T+2")
    assert f == parse_poly(spec, "2,2,0,1")
    assert f == parse_poly(spec, "T^3+2T+2")  # implicit product
    assert format_poly(f) == "T^3+2*T+2"
    assert format_poly(f, style="list") == "2,2,0,1"
    assert parse_poly(spec, "T+T") == parse_poly(spec, "2*T")
    assert parse_poly(spec, "0").is_zero()
    assert format_poly(Poly.zero(spec)) == "0"
    assert format_poly(Poly.zero(spec), style="list") == "0"


def test_parse_extension_coefficients():
    spec = FieldSpec.from_order(4)
    f = parse_poly(spec, "(1,1)*T^2+(0,1)")
    assert f.degree() == 2
    assert f.coeffs[2] == spec.element((1, 1))
    assert f.coeffs[0] == spec.element((0, 1))
    assert parse_poly(spec, format_poly(f)) == f
    assert parse_poly(spec, format_poly(f, style="list")) == f


def test_parse_roundtrip_random():
    rng = random.Random(13)
    for _ in range(150):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5, 9)))
        f = random_poly(rng, spec, rng.randint(0, 5))
        if rng.randrange(2):
            f = Poly.zero(spec)
        assert parse_poly(spec, format_poly(f)) == f
        assert parse_poly(spec, format_poly(f, style="list")) == f


def test_parse_errors():
    spec = FieldSpec.from_order(3)
    for bad in ("T^", "x+1", "T^^2", "1,,2", "(1,2)"):
        with pytest.raises(ParseError):
            parse_poly(spec, bad)
    # a length-1 coefficient vector is legal over a prime field
    assert parse_poly(spec, "T+(1)") == parse_poly(spec, "T+1")


def test_evaluate():
    spec = FieldSpec.from_order(5)
    f = parse_poly(spec, "T^2+3*T+1")
    for x in spec.elements():
        expected = x * x + spec.element(3) * x + spec.one
        assert f.evaluate(x) == expected


def test_poly_constructor_and_gen():
    spec = FieldSpec.from_order(3)
    f = poly(spec, 2, 2, 0, 1)
    assert format_poly(f) == "T^3+2*T+2"
    assert format_poly(gen(spec)) == "T"
    assert f.constant_coeff() == spec.element(2)
