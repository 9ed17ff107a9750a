import json
import math
import random
import time

import pytest

from carlitzdigits import classnum
from carlitzdigits.chars import build_context, restriction, subfield
from carlitzdigits.classnum import (
    CSV_COLUMNS,
    ClassNumberReport,
    _orbit_product,
    _root_sum,
    _twisted_factor,
    canonical_primitive_lift,
    compute_report,
    digit_degree_sum,
    digit_polynomials,
    full_degree_identity,
    full_twist_identity,
    h_from_char_sums,
    h_minus_from_digits,
    h_plus_from_digits,
    point_count_class_number,
    quadratic_class_number,
    window_degree_identity,
    window_twist_identity,
)
from carlitzdigits.cycint import CycloInt, cyclotomic_poly, exponent_sum, int_poly_resultant
from carlitzdigits.errors import ExactnessError, HypothesisError
from carlitzdigits.ffq import FieldElement, FieldSpec, mult_order, unit_character
from carlitzdigits.numutil import divisors, prime_factors
from carlitzdigits.polyring import (
    Poly,
    all_polys_below,
    format_poly,
    is_irreducible,
    mod_pow,
    monic_polys,
    parse_poly,
)

from conftest import EX1, EX2, EX3, all_irreducibles, random_context
from test_digits import brute_order

# q = 2 context with deg G < deg P, so the digit stream has zero digits
SMALL_BASE = ("T^3+T+1", "T")


@pytest.fixture(scope="module")
def ctx_small():
    spec = FieldSpec.from_order(2)
    return build_context(parse_poly(spec, SMALL_BASE[0]), parse_poly(spec, SMALL_BASE[1]))


def test_digit_polynomials_pinned(ctx1, ctx2, ctx3):
    dp1 = digit_polynomials(ctx1)
    assert [format_poly(h) for h in dp1.digits] == list(EX1["digits"])
    assert dp1.degree_poly == EX1["degree_poly"]
    dp2 = digit_polynomials(ctx2)
    assert dp2.degree_poly == EX2["degree_poly"]
    # the quadratic twist of the third example carries the signs eps
    desc = subfield(ctx3, 2)
    lam = [u for u in desc.unit_chars if not u.is_trivial()][0]
    tp = digit_polynomials(ctx3).twisted_poly(lam)
    assert [c.as_integer() for c in tp] == list(EX3["eps"])


def test_twisted_poly_zero_digits(ctx_small):
    dp = digit_polynomials(ctx_small)
    assert len(dp.digits) == ctx_small.r == 7
    assert any(h.is_zero() for h in dp.digits)
    lam = restriction(ctx_small.char(0))
    exps = dp.twisted_exponents(lam)
    for h, e in zip(dp.digits, exps):
        assert (e is None) == h.is_zero()
        if e is not None:
            assert e == 0  # q = 2 leaves only the trivial twist
    for h, c in zip(dp.digits, dp.twisted_poly(lam)):
        assert c.is_zero() == h.is_zero()
        if not c.is_zero():
            assert c.as_integer() == 1


def test_degree_sum_closed_form_examples():
    assert digit_degree_sum(3, 2, 2) == 3
    assert digit_degree_sum(2, 3, 3) == 10
    for q, d in ((2, 2), (3, 3), (5, 2)):
        assert digit_degree_sum(q, d, 1) == 0
    with pytest.raises(ValueError):
        digit_degree_sum(3, 0, 2)
    with pytest.raises(ValueError):
        digit_degree_sum(3, 2, 0)


def test_degree_sum_matches_digits(ctx_pool):
    for ctx in ctx_pool:
        dp = digit_polynomials(ctx)
        assert sum(dp.degree_poly) == digit_degree_sum(ctx.spec.q, ctx.d, ctx.e)


def sample_chars(rng, ctx, count=6):
    js = list(range(ctx.N))
    rng.shuffle(js)
    return js[:count]


def test_identities_on_random_contexts(ctx_pool):
    rng = random.Random(51)
    window_cases = 0
    full_cases = 0
    for ctx in ctx_pool:
        q = ctx.spec.q
        for j in sample_chars(rng, ctx):
            chi = ctx.char(j)
            lhs, rhs = window_twist_identity(ctx, chi)
            assert lhs == rhs
            window_cases += 1
            if j % (q - 1) == 0:
                lhs, rhs = window_degree_identity(ctx, chi)
                assert lhs == rhs
            if ctx.e >= ctx.d:
                lhs, rhs = full_twist_identity(ctx, chi)
                assert lhs == rhs
                full_cases += 1
                if j % (q - 1) == 0 and j != 0:
                    lhs, rhs = full_degree_identity(ctx, chi)
                    assert lhs == rhs
    assert window_cases >= 100
    assert full_cases >= 100


def test_identity_hypothesis_errors(ctx1, ctx_small):
    # chi_1 over q = 3 is not trivial on scalars
    with pytest.raises(HypothesisError):
        window_degree_identity(ctx1, ctx1.char(1))
    with pytest.raises(HypothesisError):
        full_degree_identity(ctx1, ctx1.char(0))  # trivial chi
    with pytest.raises(HypothesisError):
        full_degree_identity(ctx1, ctx1.char(1))
    # small base: deg G < deg P rules out the full-range forms
    with pytest.raises(HypothesisError):
        full_degree_identity(ctx_small, ctx_small.char(1))
    with pytest.raises(HypothesisError):
        full_twist_identity(ctx_small, ctx_small.char(1))


def test_degree_corruption_breaks_identity(ctx_small):
    """Zero digits must contribute coefficient 0, not -1, to the degree
    polynomial; the corrupted convention fails the windowed identity."""
    dp = digit_polynomials(ctx_small)
    chi = ctx_small.char(0)
    lhs, rhs = window_degree_identity(ctx_small, chi)
    assert lhs == rhs
    corrupted = tuple(
        -1 if h.is_zero() else deg for h, deg in zip(dp.digits, dp.degree_poly)
    )
    bad_lhs = exponent_sum(
        ctx_small.N, ((chi.j * k, c) for k, c in enumerate(corrupted) if c)
    )
    assert bad_lhs != rhs


def test_constant_corruption_breaks_h_plus(ctx1):
    """Constant digits have degree 0; forcing deg'(const) = -1 changes the
    plus part of the first reference example."""
    dp = digit_polynomials(ctx1)
    corrupted = tuple(
        -1 if h.degree() == 0 else deg for h, deg in zip(dp.digits, dp.degree_poly)
    )
    assert corrupted != dp.degree_poly
    m = subfield(ctx1, 8).m
    res = int_poly_resultant((1,) * m, corrupted)
    sign = 1 if m % 2 else -1
    assert sign * res != h_plus_from_digits(ctx1, 8)


def test_h_plus_pinned(ctx1, ctx2):
    assert h_plus_from_digits(ctx1, 8) == EX1["h_plus_full"] == 1
    assert h_plus_from_digits(ctx2, 7) == EX2["h_plus_full"] == 71
    # l = 2 on the first example: m = 2 and h+ = -F(-1)
    F = digit_polynomials(ctx1).degree_poly
    value = sum(c * (-1) ** k for k, c in enumerate(F))
    assert h_plus_from_digits(ctx1, 2) == -value == 1


def test_h_plus_errors(ctx3, ctx_small):
    with pytest.raises(HypothesisError):
        h_plus_from_digits(ctx3, 2)  # m = 1: the real subfield is rational
    with pytest.raises(HypothesisError):
        h_plus_from_digits(ctx_small, 7)  # deg G < deg P


def test_h_minus_pinned(ctx3):
    assert h_minus_from_digits(ctx3, 26) == EX3["h_minus_full"] == 774144
    assert h_minus_from_digits(ctx3, 2) == EX3["h_quadratic"] == 7


def test_h_minus_errors(ctx1, ctx_small):
    with pytest.raises(HypothesisError):
        h_minus_from_digits(ctx1, 2)  # n = 1: L is already real
    with pytest.raises(HypothesisError):
        h_minus_from_digits(ctx_small, 7)


def test_quadratic_class_number_pinned(ctx1, ctx3):
    assert quadratic_class_number(ctx1.P, ctx1.G) == EX1["h_quadratic"] == 1
    assert quadratic_class_number(ctx3.P, ctx3.G) == EX3["h_quadratic"] == 7
    spec2 = FieldSpec.from_order(2)
    with pytest.raises(HypothesisError):
        quadratic_class_number(parse_poly(spec2, "T^3+T+1"), parse_poly(spec2, "T^3"))


def test_quadratic_matches_report(ctx_pool):
    rng = random.Random(52)
    checked = 0
    pool = list(ctx_pool)
    while checked < 12:
        ctx = pool.pop() if pool else random_context(rng, qs=(3, 5), e_range=(2, 4))
        if ctx.spec.q % 2 == 0 or ctx.e < ctx.d:
            continue
        rep = compute_report(ctx, 2)
        assert quadratic_class_number(ctx.P, ctx.G) == rep.h
        checked += 1


def test_point_count_quadratic_and_quintic():
    spec = FieldSpec.from_order(3)
    for P in all_irreducibles(spec, 2):
        assert point_count_class_number(P) == 1  # genus zero
    assert point_count_class_number(parse_poly(spec, EX3["P"])) == 7
    for q in (3, 9):  # over F_9 the genus-2 count embeds F_9 in F_81
        spec_q = FieldSpec.from_order(q)
        quintic = next(P for P in monic_polys(spec_q, 5) if is_irreducible(P))
        h_pc = point_count_class_number(quintic)
        G = canonical_primitive_lift(quintic)
        assert quadratic_class_number(quintic, G) == h_pc


def test_point_count_errors():
    spec2 = FieldSpec.from_order(2)
    spec3 = FieldSpec.from_order(3)
    with pytest.raises(HypothesisError):
        point_count_class_number(parse_poly(spec2, "T^3+T+1"))  # q even
    with pytest.raises(HypothesisError):
        point_count_class_number(parse_poly(spec3, "T^6+1"))  # degree too big
    with pytest.raises(HypothesisError):
        point_count_class_number(parse_poly(spec3, "T"))  # degree too small
    sq = parse_poly(spec3, "T^2+1")
    with pytest.raises(HypothesisError, match="monic irreducible"):
        point_count_class_number(sq * sq)  # reducible
    with pytest.raises(HypothesisError, match="monic irreducible"):
        point_count_class_number(parse_poly(spec3, "2*T^2+2"))  # irreducible, not monic
    # the checks run in order: q, then the degree, then P itself
    with pytest.raises(HypothesisError, match="needs q odd"):
        point_count_class_number(parse_poly(spec2, "T^6+T^2"))
    with pytest.raises(HypothesisError, match="2 <= deg P <= 5"):
        point_count_class_number(parse_poly(spec3, "2*T^6"))


def test_char_sums_pinned(ctx1, ctx2, ctx3):
    assert h_from_char_sums(ctx1, 1) == (1, 1, 1)
    assert h_from_char_sums(ctx2, 7).h_plus == 71
    full = h_from_char_sums(ctx3, 26)
    assert full.h_minus == 774144
    assert full.h == full.h_plus * full.h_minus
    assert h_from_char_sums(ctx3, 2) == (1, 7, 7)


def test_canonical_primitive_lift(spec3):
    P = parse_poly(spec3, "T^2+1")
    G = canonical_primitive_lift(P)
    assert format_poly(G) == "T^2+T+2"
    for spec, degree in ((FieldSpec.from_order(2), 3), (spec3, 2), (spec3, 3)):
        for P in all_irreducibles(spec, degree):
            G = canonical_primitive_lift(P)
            assert G.is_monic() and G.degree() == P.degree()
            ctx = build_context(P, G)  # primitive by construction
            g0 = G - P
            # minimality: every earlier residue in enumeration order fails
            N = ctx.N
            one = Poly.one(spec) % P
            for cand in all_polys_below(spec, P.degree()):
                if cand == g0:
                    break
                assert cand.is_zero() or any(
                    mod_pow(cand, N // ell, P) == one for ell in prime_factors(N)
                )


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 9])
def test_canonical_primitive_lift_is_first_of_full_search(q):
    """Every irreducible P of degree 1-3: the least residue of order N by
    stepping, over every candidate, the constants included."""
    spec = FieldSpec.from_order(q)
    for d in (1, 2, 3):
        N = q**d - 1
        for P in all_irreducibles(spec, d):
            g0 = next(c for c in all_polys_below(spec, d)
                      if c and brute_order(c, P) == N)
            assert canonical_primitive_lift(P) == g0 + P


def test_report_roundtrip_and_csv(ctx1, ctx3):
    rep = compute_report(ctx1, 8, verify_charsum=True)
    assert rep.agree
    assert rep.methods == ("digits", "charsum")
    assert rep.h == rep.h_plus * rep.h_minus >= 1
    blob = json.dumps(rep.to_json_dict())
    assert ClassNumberReport.from_json_dict(json.loads(blob)) == rep
    row = rep.csv_row()
    assert len(row) == len(CSV_COLUMNS)
    assert row[CSV_COLUMNS.index("methods")] == "digits+charsum"
    assert row[CSV_COLUMNS.index("agree")] == "true"
    rep3 = compute_report(ctx3, 2, verify_charsum=True, verify_pointcount=True)
    assert rep3.agree and rep3.h == 7
    assert rep3.methods == ("digits", "charsum", "pointcount")
    with pytest.raises(HypothesisError):
        compute_report(ctx3, 26, verify_pointcount=True)
    trivial = compute_report(ctx1, 1)
    assert (trivial.h_plus, trivial.h_minus, trivial.h) == (1, 1, 1)


def test_both_class_number_routes_agree(ctx_pool):
    rng = random.Random(53)
    cases = 0
    pool = list(ctx_pool)
    while cases < 100:
        ctx = pool.pop() if pool else random_context(rng, e_range=(2, 4))
        if ctx.e < ctx.d:
            continue
        for l in range(1, ctx.N + 1):
            if ctx.N % l:
                continue
            rep = compute_report(ctx, l, verify_charsum=True)
            assert rep.agree
            cases += 1
    assert cases >= 100


def test_resultant_route_equals_product_route(ctx_pool):
    """Differential test of h+ against the full Sylvester resultant
    res((u^m - 1)/(u - 1), F), which the library does not compute."""
    rng = random.Random(54)
    cases = 0
    pool = list(ctx_pool)
    while cases < 100:
        ctx = pool.pop() if pool else random_context(rng, e_range=(2, 4))
        if ctx.e < ctx.d:
            continue
        F = digit_polynomials(ctx).degree_poly
        for l in range(1, ctx.N + 1):
            if ctx.N % l:
                continue
            m = math.gcd(l, ctx.r)
            if m == 1:
                continue
            h = h_plus_from_digits(ctx, l)
            sign = 1 if m % 2 else -1
            assert h == sign * int_poly_resultant((1,) * m, F)
            cases += 1
    assert cases >= 100


def test_h_minus_equals_product_route(ctx_pool):
    """h- as norms over Galois orbits against the exact Z[zeta_N] product
    of the twisted factor over every chi in X_L^-."""
    rng = random.Random(55)
    cases = 0
    pool = list(ctx_pool)
    while cases < 100:
        ctx = pool.pop() if pool else random_context(rng, e_range=(2, 4))
        if ctx.e < ctx.d:
            continue
        dp = digit_polynomials(ctx)
        for l in range(1, ctx.N + 1):
            if ctx.N % l:
                continue
            desc = subfield(ctx, l)
            if desc.n == 1:
                continue
            prod = CycloInt.one(ctx.N)
            for j in desc.chis_minus:
                prod = prod * _twisted_factor(ctx, dp, ctx.char(j))
            assert prod.as_integer() == h_minus_from_digits(ctx, l)
            cases += 1
    assert cases >= 100


def test_orbit_product_is_the_norm():
    """The Galois-orbit product against res(Phi_t, v) for every t <= 40,
    which includes non-cyclic (Z/t)^x such as t = 8, 12, 15, 24."""
    rng = random.Random(56)
    for t in range(1, 41):
        for _ in range(4):
            v = [rng.randint(-2, 2) for _ in range(rng.randint(1, t + 3))]
            got = _orbit_product(exponent_sum(t, enumerate(v))).as_integer()
            assert got == int_poly_resultant(cyclotomic_poly(t), v)


def _char_sum_product_route(ctx, l):
    """(h+, h-) as exact Z[zeta_N] products of one character sum per chi."""
    desc = subfield(ctx, l)
    window = [(ctx.dlog[I], s) for s in range(ctx.d) for I in monic_polys(ctx.spec, s)]
    hp = CycloInt.one(ctx.N)
    for j in desc.chis_plus:
        if j:
            hp = hp * -exponent_sum(ctx.N, ((j * k, s) for k, s in window))
    hm = CycloInt.one(ctx.N)
    for j in desc.chis_minus:
        hm = hm * exponent_sum(ctx.N, ((j * k, 1) for k, _ in window))
    return hp.as_integer(), hm.as_integer()


def test_char_sums_equal_product_route(ctx_pool):
    """Orbit products in Z[zeta_t] against the per-character Z[zeta_N]
    product over X_L^+ and X_L^-, including N = 80 and N = 120."""
    contexts = list(ctx_pool)
    for q, P in ((3, "T^4+T+2"), (11, "T^2+T+7")):
        spec = FieldSpec.from_order(q)
        P = parse_poly(spec, P)
        contexts.append(build_context(P, canonical_primitive_lift(P)))
    assert {80, 120} <= {ctx.N for ctx in contexts}
    cases = 0
    for ctx in contexts:
        for l in range(1, ctx.N + 1):
            if ctx.N % l == 0:
                cs = h_from_char_sums(ctx, l)
                assert (cs.h_plus, cs.h_minus) == _char_sum_product_route(ctx, l)
                cases += 1
    assert cases >= 100


def test_char_sums_need_true_conjugates(monkeypatch):
    """With sigma_u replaced by the identity the orbit products are powers,
    not norms, and must fail the integer collapse."""
    spec = FieldSpec.from_order(EX3["q"])
    ctx = build_context(parse_poly(spec, EX3["P"]), parse_poly(spec, EX3["G"]))
    monkeypatch.setattr(CycloInt, "galois", lambda self, u: self)
    with pytest.raises(ExactnessError):
        h_from_char_sums(ctx, 26)


def test_resultant_of_long_degree_polynomial():
    """res(u + 1, F) = F(-1) for the degree polynomial of P = T^4+T+1 over
    F_7 (deg F = 399, a 400-square Sylvester matrix) in bounded time."""
    spec = FieldSpec.from_order(7)
    P = parse_poly(spec, "T^4+T+1")
    F = digit_polynomials(build_context(P, canonical_primitive_lift(P))).degree_poly
    assert len(F) == 400
    start = time.monotonic()
    value = int_poly_resultant((1, 1), F)
    assert time.monotonic() - start < 10
    assert value == sum(c * (-1) ** k for k, c in enumerate(F)) == -12


@pytest.mark.parametrize("sign", [1, -1])
def test_advisory_check_beyond_float_range(sign):
    # |exact| = 10^400 has no complex() value; the guard works in log space
    exact = sign * 10**400
    factors = [complex(sign * 1e100)] + [complex(1e100)] * 3
    classnum._advisory_check(factors, exact, "control")
    for wrong in (2 * exact, -exact):
        with pytest.raises(ExactnessError):
            classnum._advisory_check(factors, wrong, "control")


@pytest.mark.parametrize("bad_t", [4, 16])
def test_digit_norm_guard(monkeypatch, bad_t):
    """A wrong digit-route norm for one order t (4 divides r, 16 does not)
    fails the float guard in every row whose product includes t, also on a
    second pass over the table when every memo is warm."""
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^4+T+2")
    ctx = build_context(P, canonical_primitive_lift(P))
    true_norm = classnum.norm
    monkeypatch.setattr(
        classnum, "norm", lambda t, v: 2 * true_norm(t, v) if t == bad_t else true_norm(t, v)
    )
    hit = 0
    for _ in range(2):
        for l in divisors(ctx.N):
            # a plus order (t | r) enters where t | m, a minus order where t | l
            reach = math.gcd(l, ctx.r) if ctx.r % bad_t == 0 else l
            if reach % bad_t == 0:
                hit += 1
                with pytest.raises(ExactnessError):
                    compute_report(ctx, l)
            else:
                compute_report(ctx, l)
    assert hit >= 4


def _guard_tables():
    """EX3 (N = 26) and the canonical tables of N = 80 and N = 124."""
    spec = FieldSpec.from_order(EX3["q"])
    contexts = [build_context(parse_poly(spec, EX3["P"]), parse_poly(spec, EX3["G"]))]
    for q, P in ((3, "T^4+T+2"), (5, "T^3+T+1")):
        spec = FieldSpec.from_order(q)
        P = parse_poly(spec, P)
        contexts.append(build_context(P, canonical_primitive_lift(P)))
    assert [ctx.N for ctx in contexts] == [26, 80, 124]
    return contexts


def test_roots_divide_row_degree(monkeypatch):
    """A row of degree l reads roots tables of orders dividing l only: each
    character of X_L is guarded at its own order, never at N."""
    true_roots = classnum._roots
    requested = []
    monkeypatch.setattr(classnum, "_roots", lambda n: requested.append(n) or true_roots(n))
    calls = 0
    for ctx in _guard_tables():
        for l in divisors(ctx.N):
            requested.clear()
            compute_report(ctx, l, verify_charsum=True)
            assert all(l % n == 0 for n in requested), (ctx.N, l, requested)
            calls += len(requested)
    assert calls > 0


@pytest.mark.parametrize("bad_t", [4, 16])
def test_char_sum_guard(monkeypatch, bad_t):
    """A wrong orbit product for one order t (4 divides r, 16 does not)
    fails the oracle's float guard in every row whose product includes t,
    also on a second pass over the table when every memo is warm."""
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^4+T+2")
    ctx = build_context(P, canonical_primitive_lift(P))
    true_product = classnum._orbit_product

    def product(x):
        y = true_product(x)
        return y + y if x.n == bad_t else y

    monkeypatch.setattr(classnum, "_orbit_product", product)
    hit = 0
    for _ in range(2):
        for l in divisors(ctx.N):
            if l % bad_t == 0:
                hit += 1
                with pytest.raises(ExactnessError):
                    h_from_char_sums(ctx, l)
            else:
                h_from_char_sums(ctx, l)
    assert hit == (12 if bad_t == 4 else 4)


def _twisted_exponents_reference(dp, lam):
    """The lam-twisted coefficient exponents digit by digit, from the
    exponents of lam at lc(G) and lc(H_k)."""
    n = max(lam.spec.q - 1, 1)
    base = lam.exponent(dp.ctx.G.leading_coeff())
    return tuple(
        None if h.is_zero() else (base - lam.exponent(h.leading_coeff())) % n
        for h in dp.digits
    )


def _twisted_terms_reference(ctx, j):
    """Exponents of zeta_N in the twisted polynomial of chi_j's restriction
    to scalars at chi_j(G), one per nonzero digit: each coefficient exponent
    is lifted along zeta_{q-1} = zeta_N^r."""
    exps = _twisted_exponents_reference(digit_polynomials(ctx), restriction(ctx.char(j)))
    return [(ctx.r * e + j * k) % ctx.N for k, e in enumerate(exps) if e is not None]


def test_twisted_exponents_match_per_digit_formula(ctx_pool):
    """twisted_exponents(lam), derived from the per-context exponents E_k,
    equals the per-digit formula for every s and every generator of F_q^x."""
    cases = 0
    for ctx in ctx_pool:
        spec = ctx.spec
        dp = digit_polynomials(ctx)
        gens = [w for w in spec.elements() if w and mult_order(w) == spec.q - 1]
        for w in gens:
            for s in range(spec.q - 1):
                lam = unit_character(spec, s, w)
                assert dp.twisted_exponents(lam) == _twisted_exponents_reference(dp, lam)
                cases += 1
        for j in (1, ctx.N - 1):
            want = _twisted_terms_reference(ctx, j)
            assert [j * x % ctx.N for x in dp.twist] == want
            assert _twisted_factor(ctx, dp, ctx.char(j)) == exponent_sum(
                ctx.N, ((x, 1) for x in want)
            )
    assert cases > 200


def test_full_table_builds_few_field_elements(monkeypatch):
    """A whole (q, d) = (3, 6) table, every l | N with the character-sum
    oracle, reads leading coefficients as table indices: it builds fewer
    FieldElements than its r = 364 digits."""
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^6+T+2")
    built = []
    true_init = FieldElement.__init__
    monkeypatch.setattr(
        FieldElement, "__init__", lambda *a, **k: built.append(1) or true_init(*a, **k)
    )
    ctx = build_context(P, canonical_primitive_lift(P))
    for l in divisors(ctx.N):
        compute_report(ctx, l, verify_charsum=True)
    assert ctx.r == 364
    assert len(built) < 64


def test_guard_values_memoized_per_character(ctx_pool):
    """After every row of a table, each memoized guard value is bit for bit
    the floating sum at the character's own order t a row would evaluate
    afresh, within 1e-12 (relative) of the same sum over the N-th roots,
    and each route's memo holds every nontrivial character once."""
    for ctx in [c for c in ctx_pool if c.e >= c.d][:8]:
        for l in divisors(ctx.N):
            compute_report(ctx, l, verify_charsum=True)
        dp = digit_polynomials(ctx)
        window = [(ctx.dlog[I], s) for s in range(ctx.d) for I in monic_polys(ctx.spec, s)]
        F = dp.degree_poly
        for memo, route in ((dp._value_memo, "digits"), (ctx._char_sum_memo, "charsum")):
            assert len(memo) == ctx.N - 1
            for j, z in memo.items():
                g = math.gcd(j, ctx.N)
                t, u = ctx.N // g, j // g
                plus = ctx.r % t == 0
                if route == "digits" and plus:
                    terms = [(j * k, c) for k, c in enumerate(F) if c]
                elif route == "digits":
                    terms = [(x, 1) for x in _twisted_terms_reference(ctx, j)]
                elif plus:
                    terms = [(j * k, -s) for k, s in window if s]
                else:
                    terms = [(j * k, 1) for k, _ in window]
                assert all(e % g == 0 for e, _ in terms)
                assert z == _root_sum(t, ((e // g, w) for e, w in terms))
                reference = _root_sum(ctx.N, terms)  # the N-th roots form
                assert abs(z - reference) <= 1e-12 * abs(reference)
