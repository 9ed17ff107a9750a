import importlib.util
import random
from pathlib import Path

import pytest

from carlitzdigits import carlitz
from carlitzdigits.carlitz import AdditivePoly, _add_twisted, carlitz_poly
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.polyring import Poly, _field, _make, format_poly, gen, parse_poly

from conftest import all_irreducibles, random_poly


def test_action_of_one_and_t():
    for q in (2, 3, 5):
        spec = FieldSpec.from_order(q)
        rho1 = carlitz_poly(Poly.one(spec))
        assert rho1.coeffs == (Poly.one(spec),)
        assert str(rho1) == "x"
        rhot = carlitz_poly(gen(spec))
        assert rhot.coeffs == (gen(spec), Poly.one(spec))
        assert str(rhot) == f"T*x + x^{q}"


def test_action_of_t_squared_binary():
    spec = FieldSpec.from_order(2)
    rho = carlitz_poly(parse_poly(spec, "T^2"))
    assert str(rho) == "T^2*x + (T^2+T)*x^2 + x^4"


def test_zero_operand():
    spec = FieldSpec.from_order(3)
    rho = carlitz_poly(Poly.zero(spec))
    assert rho.is_zero()
    assert str(rho) == "0"
    with pytest.raises(ValueError):
        rho.x_degree()


def test_x_degree():
    rng = random.Random(61)
    for _ in range(50):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        I = random_poly(rng, spec, rng.randint(0, 4))
        assert carlitz_poly(I).x_degree() == spec.q ** I.degree()


def test_additivity_in_the_operand():
    rng = random.Random(62)
    for _ in range(100):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        I = random_poly(rng, spec, rng.randint(0, 4))
        J = random_poly(rng, spec, rng.randint(0, 4))
        assert carlitz_poly(I + J) == carlitz_poly(I) + carlitz_poly(J)


def test_multiplicativity_is_composition():
    rng = random.Random(63)
    for _ in range(100):
        # q = 4 and 9 take the Frobenius twist of compose over extension fields
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5, 9)))
        I = random_poly(rng, spec, rng.randint(0, 2))
        J = random_poly(rng, spec, rng.randint(0, 2))
        lhs = carlitz_poly(I * J)
        assert lhs == carlitz_poly(I).compose(carlitz_poly(J))
        assert lhs == carlitz_poly(J).compose(carlitz_poly(I))


def test_apply_is_linear():
    rng = random.Random(64)
    for _ in range(60):
        spec = FieldSpec.from_order(rng.choice((2, 3, 4)))
        rho = carlitz_poly(random_poly(rng, spec, rng.randint(0, 3)))
        x = random_poly(rng, spec, rng.randint(0, 3))
        y = random_poly(rng, spec, rng.randint(0, 3))
        c = spec.from_index(rng.randrange(1, spec.q))
        assert rho.apply(x + y) == rho.apply(x) + rho.apply(y)
        assert rho.apply(x.scale(c)) == rho.apply(x).scale(c)


def test_apply_matches_coefficients():
    rng = random.Random(65)
    for _ in range(40):
        # q = 4 tests Frobenius over an extension field
        spec = FieldSpec.from_order(rng.choice((2, 3, 4, 5)))
        I = random_poly(rng, spec, rng.randint(0, 3))
        rho = carlitz_poly(I)
        x = random_poly(rng, spec, rng.randint(0, 2))
        direct = Poly.zero(spec)
        for i, c in enumerate(rho.coeffs):
            xp = x
            for _ in range(i):
                power = Poly.one(spec)
                for _ in range(spec.q):
                    power = power * xp
                xp = power
            direct = direct + c * xp
        assert rho.apply(x) == direct


def test_prime_operand_coefficients_divisible():
    """For irreducible P every non-leading, non-constant-term coefficient
    of rho_P is divisible by P, and the x coefficient is P itself."""
    for spec, degree in (
        (FieldSpec.from_order(2), 3),
        (FieldSpec.from_order(3), 2),
        (FieldSpec.from_order(3), 3),
    ):
        for P in all_irreducibles(spec, degree):
            rho = carlitz_poly(P)
            assert rho.coeffs[0] == P
            assert rho.coeffs[-1] == Poly.one(spec)
            for c in rho.coeffs[1:-1]:
                assert (c % P).is_zero()


def test_identity_and_zero_helpers():
    spec = FieldSpec.from_order(3)
    ident = AdditivePoly.identity(spec)
    z = AdditivePoly.zero(spec)
    rho = carlitz_poly(parse_poly(spec, "T^2+2*T+1"))
    assert ident.compose(rho) == rho
    assert rho.compose(ident) == rho
    assert rho + z == rho
    assert z.compose(rho).is_zero()
    with pytest.raises(ValueError):
        rho + carlitz_poly(gen(FieldSpec.from_order(2)))


REFARITH = Path(__file__).resolve().parent.parent / "perfbench" / "refarith.py"


@pytest.fixture(scope="module")
def refarith():
    """The benchmark's reference arithmetic, which does not import the package."""
    spec = importlib.util.spec_from_file_location("refarith_for_carlitz", REFARITH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _against_horner(R, q, I, f):
    """rho_I(f) by the package equals the reference Horner evaluation; both
    meet only in the text grammar.  Returns the output."""
    F, spec = R.Field(q), FieldSpec.from_order(q)
    out = carlitz_poly(parse_poly(spec, R.poly_text(F, I))).apply(
        parse_poly(spec, R.poly_text(F, f)))
    assert format_poly(out) == R.poly_text(F, R.trim(R.carlitz_horner(F, I, f))), (q, I, f)
    return out


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 9))
def test_apply_matches_reference_horner(refarith, q):
    R, rng = refarith, random.Random(66 + q)
    F = R.Field(q)
    c = rng.randrange(1, q)
    cases = [
        ([], R.random_poly(F, rng, 2)),  # I = 0
        ([c], R.random_poly(F, rng, 3)),  # constant I
        (R.random_poly(F, rng, 3), []),  # f = 0
        (R.random_poly(F, rng, 3), [c]),  # constant f
        (R.random_poly(F, rng, 3), [0, c, 0, 0, 1]),  # sparse f, no constant term
    ]
    cases += [(R.random_poly(F, rng, rng.randint(0, 4)), R.random_poly(F, rng, rng.randint(0, 3)))
              for _ in range(8)]
    # (deg I, deg f) on both sides of apply's byte test, terms * (p - 1)^2 < 256
    # with terms = (deg I + 1) * (deg f + 1) for a dense f
    cases += [(R.random_poly(F, rng, dI), R.random_poly(F, rng, df, dense=True))
              for dI, df in _BYTE_TEST_SHAPES.get(q, ())]
    for I, f in cases:
        _against_horner(R, q, I, f)


_BYTE_TEST_SHAPES = {
    2: ((12, 3), (7, 30)),  # output degree 12288; 8 * 31 = 248 terms
    3: ((8, 2), (8, 6)),  # 27 terms; 63 terms, 252 per slot
    4: ((3, 2),),  # an extension field: lists
    5: ((2, 4), (3, 3)),  # 15 terms, 240 per slot; 16 terms, 256: lists
    7: ((1, 2), (2, 2)),  # 6 terms, 216 per slot; 9 terms: lists
}


@pytest.mark.parametrize("q, dI, df, packed", [
    (2, 5, 3, True), (3, 4, 2, True), (5, 2, 4, True), (7, 1, 2, True),
    (4, 4, 2, False), (5, 3, 3, False), (7, 2, 2, False), (9, 2, 1, False),
])
def test_apply_takes_the_byte_slots_exactly_below_the_byte_bound(monkeypatch, q, dI, df, packed):
    """With the index-list loop patched to raise, an apply over F_p whose
    terms * (p - 1)^2 is below 256 still answers, and every other one
    reaches the loop."""
    rng, spec = random.Random(68), FieldSpec.from_order(q)
    rho = carlitz_poly(random_poly(rng, spec, dI))
    f = Poly(spec, [spec.from_index(rng.randrange(1, q)) for _ in range(df + 1)])
    want = rho.apply(f)

    def loop(*args):
        raise AssertionError("reached _add_twisted")

    monkeypatch.setattr(carlitz, "_add_twisted", loop)
    if packed:
        assert rho.apply(f) == want
    else:
        with pytest.raises(AssertionError, match="_add_twisted"):
            rho.apply(f)


@pytest.mark.parametrize("p, n_coeffs, n_terms", [(2, 5, 51), (3, 9, 7), (5, 3, 5), (7, 1, 7)])
def test_packed_apply_at_the_byte_bound(p, n_coeffs, n_terms):
    """Every coefficient p - 1 and coefficients long enough that the middle
    slots receive every term: sums of 240-255 before the reduction.  Zero
    coefficients in the map and in the argument shift nothing."""
    spec, F = FieldSpec.from_order(p), _field(FieldSpec.from_order(p))
    top = Poly(spec, [spec.from_index(p - 1)] * (n_terms * p ** (n_coeffs - 1) + 7))
    for coeffs, d in (
        ((top,) * n_coeffs, [p - 1] * n_terms),
        (tuple((top, Poly.zero(spec))[i % 2] for i in range(n_coeffs)), [0, p - 1, 0] * n_terms),
    ):
        rho, x = AdditivePoly(spec, coeffs), Poly(spec, [spec.from_index(c) for c in d])
        assert len(rho.coeffs) * n_terms * (p - 1) ** 2 < 256
        acc = []
        for i, c in enumerate(rho.coeffs):
            _add_twisted(F, acc, c.ints, x.ints, p**i)
        assert rho.apply(x) == _make(spec, acc)


def test_apply_matches_reference_horner_at_degree_13122(refarith):
    R = refarith
    F, rng = R.Field(3), random.Random(67)
    out = _against_horner(R, 3, R.random_poly(F, rng, 8), R.random_poly(F, rng, 2, dense=True))
    assert out.degree() == 3**8 * 2
