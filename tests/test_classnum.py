import cmath
import json
import math
import random
import re
import time
import tracemalloc
from collections import Counter
from itertools import islice

import pytest

from carlitzdigits import classnum, polyring
from carlitzdigits.chars import build_context, restriction, subfield
from carlitzdigits.classnum import (
    CSV_COLUMNS,
    ClassNumberReport,
    _orbit_product,
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
from carlitzdigits.cycint import CycloInt, cyclotomic_poly, exponent_sum, int_poly_resultant, norm
from carlitzdigits.errors import (ExactnessError, HypothesisError, PrimitivityError,
                                  ResourceLimitError)
from carlitzdigits.ffq import (FieldElement, FieldSpec, canonical_generator, quadratic_character,
                              unit_character)
from carlitzdigits.numutil import divisors, element_order, prime_factors
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
from test_polyring import reference_primitivity_witness

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


def _nonsquare_lead_cubics():
    """For q in {3, 5, 7, 9}: the first irreducible cubic P, whose quadratic
    subfield has genus 1, with the first primitive G of degree 4 whose
    leading coefficient is the canonical generator of F_q^x, a nonsquare
    (eta_G = -1)."""
    out = []
    for q in (3, 5, 7, 9):
        spec = FieldSpec.from_order(q)
        P = next(f for f in monic_polys(spec, 3) if is_irreducible(f))
        top = Poly(spec, [spec.zero] * 4 + [canonical_generator(spec)])
        for low in all_polys_below(spec, 4):
            try:
                out.append(build_context(P, top + low))
                break
            except (PrimitivityError, HypothesisError):
                continue
    return out


def test_quadratic_matches_report(ctx_pool):
    """The signed digit sum against the report's h, whose odd-d half reads
    the same twist, and against the point count, which reads nothing of the
    walk: ctx_pool and random contexts, and for odd d a non-monic G of
    degree e > d with eta_G = -1 over each odd q <= 9."""
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
    cubics = _nonsquare_lead_cubics()
    assert [(c.spec.q, c.d, c.e) for c in cubics] == [(q, 3, 4) for q in (3, 5, 7, 9)]
    for ctx in cubics:
        assert quadratic_character(ctx.G.leading_coeff()) == -1
        h = quadratic_class_number(ctx.P, ctx.G)
        assert h == compute_report(ctx, 2).h == point_count_class_number(ctx.P)


def test_point_count_quadratic_and_quintic():
    spec = FieldSpec.from_order(3)
    for P in all_irreducibles(spec, 2):
        assert point_count_class_number(P) == 1  # genus zero
    assert point_count_class_number(parse_poly(spec, EX3["P"])) == 7
    for q in (3, 9):  # genus 2: the count takes the places of degree 1 and 2
        spec_q = FieldSpec.from_order(q)
        quintic = next(P for P in monic_polys(spec_q, 5) if is_irreducible(P))
        h_pc = point_count_class_number(quintic)
        G = canonical_primitive_lift(quintic)
        assert quadratic_class_number(quintic, G) == h_pc


def test_point_count_errors():
    spec2 = FieldSpec.from_order(2)
    spec3 = FieldSpec.from_order(3)
    sq = parse_poly(spec3, "T^2+1")
    # reducible; irreducible but not monic; constant
    for P in (sq * sq, parse_poly(spec3, "2*T^2+2"), parse_poly(spec3, "1")):
        with pytest.raises(HypothesisError, match="monic irreducible"):
            point_count_class_number(P)
    with pytest.raises(HypothesisError, match="l = 3 does not divide N = 8"):
        point_count_class_number(sq, 3)
    with pytest.raises(HypothesisError, match="l = 2 does not divide N = 7"):
        point_count_class_number(parse_poly(spec2, "T^3+T+1"))
    # the checks run in order: P itself, then l, then the work bound
    with pytest.raises(HypothesisError, match="monic irreducible"):
        point_count_class_number(parse_poly(spec3, "2*T^12+T^2+2"), 3)
    with pytest.raises(HypothesisError, match="l = 3 does not divide"):
        point_count_class_number(parse_poly(spec3, "T^12+T^2+2"), 3)
    # g = 15 and 20: sum of q^f over f <= g is (3^16 - 3) / 2 and 2^21 - 2 polynomials
    for P, l, g in ((parse_poly(spec3, "T^12+T^2+2"), 4, 15),
                    (parse_poly(spec2, "T^12+T^6+T^5+T^3+1"), 5, 20)):
        with pytest.raises(ResourceLimitError, match=f"l = {l} has genus {g}: .* bound 30000"):
            point_count_class_number(P, l)
    # deg P = 1, l = 7 over F_2 and deg P = 6 are answered too
    assert point_count_class_number(parse_poly(spec3, "T")) == 1  # genus 0
    assert point_count_class_number(parse_poly(spec2, "T^3+T+1"), 7) == EX2["h_plus_full"]
    P6 = next(P for P in monic_polys(spec3, 6) if is_irreducible(P))
    assert point_count_class_number(P6) == quadratic_class_number(P6, canonical_primitive_lift(P6))


def test_point_count_on_whole_tables():
    """Every row of the (2, 6), (3, 4), (4, 3), (5, 2) and (7, 2) tables
    within the bound: the count equals the digit route's h.  Among them are
    rows of genus >= 1, rows with l not dividing q - 1 (the Frobenius taken
    mod P) and rows over even q."""
    rows = Counter()
    for q, d in ((2, 6), (3, 4), (4, 3), (5, 2), (7, 2)):
        spec = FieldSpec.from_order(q)
        for P in all_irreducibles(spec, d):
            ctx = build_context(P, canonical_primitive_lift(P))
            for l in divisors(ctx.N):
                if classnum._point_count_refusal(q, d, l) is None:
                    assert point_count_class_number(P, l) == compute_report(ctx, l).h
                    if classnum._genus(q, d, l)[1] >= 1:
                        rows["g >= 1"] += 1
                        rows["l not dividing q - 1"] += (q - 1) % l > 0
                        rows["even q"] += q % 2 == 0
    assert len(rows) == 3 and all(rows.values()), rows


def first_irreducibles(spec, d, count):
    """The first count monic irreducibles of degree d (all for None)."""
    return islice((P for P in monic_polys(spec, d) if is_irreducible(P)), count)


def test_point_count_matches_the_signed_digits_on_quintics():
    """Genus 2: every irreducible quintic over F_3 and the first ones over
    F_5 and F_9 (F_81 taken as F_9[T]/(Q_2))."""
    for q, count in ((3, None), (5, 8), (9, 3)):
        spec = FieldSpec.from_order(q)
        for P in first_irreducibles(spec, 5, count):
            G = canonical_primitive_lift(P)
            assert point_count_class_number(P) == quadratic_class_number(P, G)


def model_coeffs(P, spec, embed=lambda c: c):
    """(-1)^d P as field elements of spec, ascending, through embed."""
    sign = -spec.one if len(P.ints) % 2 == 0 else spec.one
    return [sign * embed(c) for c in P.coeffs]


def affine_points(spec, f) -> int:
    """#{(x, y) : y^2 = f(x)} over spec, pair by pair on FieldElement
    arithmetic, f ascending."""
    roots = Counter(y * y for y in spec.elements())
    total = 0
    for x in spec.elements():
        v = spec.zero
        for c in reversed(f):
            v = v * x + c
        total += roots[v]
    return total


def test_point_count_genus_one_is_the_affine_count():
    """Genus 1: h = L(1) = #C(F_q), the affine points counted pair by pair
    plus 1 point at infinity for d = 3 and 2 for d = 4."""
    for q in (3, 5, 7, 9, 11):
        spec = FieldSpec.from_order(q)
        for d in (3, 4):
            for P in first_irreducibles(spec, d, 6):
                points = affine_points(spec, model_coeffs(P, spec)) + 2 - d % 2
                assert point_count_class_number(P) == points


# quintics over F_25 -> quadratic_class_number, taken once: each builds a
# context of r = 406901 steps (about 20 s and 220 MB).  The first is the
# first irreducible quintic; the others have other class numbers.
QUINTICS_Q25 = {
    "T^5+T+(0,1)": 521,
    "T^5+(4,0)*T^4+(4,2)*T^3+(4,3)*T^2+(4,3)*T+(4,0)": 723,
    "T^5+(4,1)*T^4+(1,2)*T^3+(4,1)*T^2+(2,0)*T+(0,2)": 613,
    "T^5+(3,3)*T^4+(2,2)*T^3+(1,2)*T^2+(3,2)*T+(2,3)": 573,
}


def test_point_count_genus_two_over_f625():
    """Genus 2 over F_25 against counts over F_25 and over F_625, the latter
    built as F_5[x]/(f), deg f = 4, with F_25 embedded by a root of its
    modulus, each pair by pair, and Newton's identities written out."""
    spec = FieldSpec.from_order(25)
    f = next(m for m in monic_polys(FieldSpec(5), 4) if is_irreducible(m))
    ext = FieldSpec(5, 4, f.ints)
    z = next(x for x in ext.elements()
             if not sum((ext.element(c) * x**k for k, c in enumerate(spec.modulus)), ext.zero))
    embed = lambda c: ext.element(c.coeffs[0]) + ext.element(c.coeffs[1]) * z
    for text, h in QUINTICS_Q25.items():
        P = parse_poly(spec, text)
        s1 = 25 + 1 - (affine_points(spec, model_coeffs(P, spec)) + 1)
        s2 = 625 + 1 - (affine_points(ext, model_coeffs(P, ext, embed)) + 1)
        assert (s1 * s1 - s2) % 2 == 0
        c1, c2 = -s1, (s1 * s1 - s2) // 2
        assert point_count_class_number(P) == 1 + c1 + c2 + 25 * c1 + 625 == h


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


def test_primitive_search_reads_the_field_lazily():
    """The lift mod T+1 over F_999983 and the generator of F_(2^61-1) test a
    few candidates each, and enumeration reads range(q) lazily, so neither
    makes a list of all q residues (about 38 MB for the first when it did)."""
    spec = FieldSpec(999983)
    tracemalloc.start()
    try:
        G = canonical_primitive_lift(parse_poly(spec, "T+1"))
        g = canonical_generator.__wrapped__(FieldSpec(2**61 - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert format_poly(G) == "T+6" and g.index() == 37  # 5 and 37 are the least primitive roots
    assert peak < 4 * 2**20


def test_prime_field_primitive_search_powers_no_polynomial(monkeypatch):
    """Over F_p the norm of a residue mod T or T+1 is the residue itself,
    so the generator of F_(2^61-1) and the lift mod T+1 over F_999983 test
    every candidate on ints, without mod_pow."""

    def no_mod_pow(*args):
        raise AssertionError("a prime-field search powered a polynomial")

    monkeypatch.setattr(polyring, "mod_pow", no_mod_pow)
    G = canonical_primitive_lift(parse_poly(FieldSpec(999983), "T+1"))
    assert format_poly(G) == "T+6"
    assert canonical_generator.__wrapped__(FieldSpec(2**61 - 1)).index() == 37


def test_canonical_primitive_lift_matches_the_powering_search(ctx_pool):
    """Over every (q, deg P) that the random context pool draws, the lift of
    each monic irreducible P is P plus the first residue, constants skipped
    when deg P >= 2, that the powering reference finds primitive."""
    for spec, d in sorted({(ctx.spec, ctx.d) for ctx in ctx_pool}, key=lambda k: (k[0].q, k[1])):
        for P in polyring._irreducibles(spec, d):
            g0 = next(g for g in islice(all_polys_below(spec, d), spec.q if d >= 2 else 1, None)
                      if reference_primitivity_witness(g, P) is None)
            assert canonical_primitive_lift(P) == g0 + P, str(P)


def test_report_refuses_point_count_before_any_norm(monkeypatch, ctx1, ctx3):
    # l = 4 and 8 over F_3, deg P = 2 (genus 0 and 2), and deg P = 1, answer
    for l in (4, 8):
        rep = compute_report(ctx1, l, verify_charsum=True, verify_pointcount=True)
        assert rep.agree and rep.methods == ("digits", "charsum", "pointcount")
    linear = build_context(parse_poly(FieldSpec(3), "T+1"), parse_poly(FieldSpec(3), "T"))
    assert compute_report(linear, 2, verify_pointcount=True).agree

    def no_work(*args):
        raise AssertionError("a refused report took a norm")

    monkeypatch.setattr(classnum, "_digit_norm", no_work)
    monkeypatch.setattr(classnum, "_orbit_value", no_work)
    # l = 26 over F_3, deg P = 3: genus 19, over the bound
    with pytest.raises(ResourceLimitError, match="l = 26 has genus 19"):
        compute_report(ctx3, 26, verify_charsum=True, verify_pointcount=True)


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
    with pytest.raises(ResourceLimitError):  # genus 19, over the bound
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
                prod = prod * exponent_sum(ctx.N, ((j * x, 1) for x in dp.twist))
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
    true_mul = classnum._mul
    monkeypatch.setattr(classnum, "_mul", lambda n, a, b, u: true_mul(n, a, b, 1))
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
    """An orbit of order 127 whose norm exceeds 10^308, so it has no float
    value: the guard compares logarithms and takes the int's exactly.  The
    vector and its negative have the same norm, positive as for every t > 2."""
    rng = random.Random(127)
    vec = [sign * rng.randint(-10**3, 10**3) for _ in range(127)]
    exact = norm(127, vec)
    assert exact > 10**400
    classnum._orbit_guard(127, vec, exact, "control")
    for wrong in (2 * exact, -exact):
        with pytest.raises(ExactnessError, match="^control: advisory complex product differs by"):
            classnum._orbit_guard(127, vec, wrong, "control")
    # an exact value too small by more than e^709 fails the guard, not the float exp
    with pytest.raises(ExactnessError, match="^control: advisory complex product differs by inf"):
        classnum._orbit_guard(127, vec, 1, "control")


@pytest.mark.parametrize("t", [3, 4, 5, 7, 8, 9, 12, 15, 16, 21, 30, 63, 124])
def test_orbit_guard_rejects_wrong_values(t):
    """The guard, which evaluates half of (Z/t)^x and conjugates the rest,
    passes the exact norm of an orbit and rejects, with the guard's
    messages, that value off by a relative 1e-5 or 2e-6 (the tolerance is
    1e-6), its negative and zero.  The pairs repeat exponents mod t and are
    folded first."""
    rng = random.Random(t)
    pairs = [(rng.randrange(-3 * t, 3 * t), rng.randint(-10**4, 10**4)) for _ in range(2 * t)]
    vec = classnum._folded(t, pairs)
    assert vec == [sum(w for e, w in pairs if e % t == k) for k in range(t)]
    exact = norm(t, vec)
    assert abs(exact) > 10**6
    classnum._orbit_guard(t, vec, exact, "control")
    for wrong, message in ((exact + exact // 10**5, "advisory complex product differs by"),
                           (exact + exact // 500000, "advisory complex product differs by"),
                           (-exact, "advisory complex product differs by"),
                           (0, "exact value is zero")):
        with pytest.raises(ExactnessError, match=f"^control: {message}"):
            classnum._orbit_guard(t, vec, wrong, "control")


@pytest.mark.parametrize("vec", [(5, 2), (2, 5), (-5, -2), (-2, -5), (10**7, 3), (3, 10**7)])
def test_orbit_guard_order_two_sign(vec):
    """At t = 2 the orbit is the one real value b(-1), of either sign: the
    guard passes it and rejects its negative, its double and, where it is
    large, that value off by a relative 2e-6."""
    exact = vec[0] - vec[1]
    assert exact == norm(2, vec)
    classnum._orbit_guard(2, vec, exact, "control")
    for wrong in (-exact, 2 * exact) + ((exact + exact // 500000,) if abs(exact) > 10**6 else ()):
        with pytest.raises(ExactnessError, match="^control: advisory complex product differs by"):
            classnum._orbit_guard(2, vec, wrong, "control")


def _reference_orbit_guard(t, vec, exact, what):
    """The guard in its earlier form, kept as the reference: the
    complex-log product over all phi(t) values, each z_(t-u), u <= t/2,
    taken as the conjugate of z_u."""
    roots = [cmath.exp(2j * cmath.pi * k / t) for k in range(t)]
    terms = [(e, w) for e, w in enumerate(vec) if w]
    values = {}
    for u in range(1, t):
        if math.gcd(u, t) == 1:
            if 2 * u <= t:
                values[u] = sum(w * roots[u * e % t] for e, w in terms)
            else:
                values[u] = values[t - u].conjugate()
    total = 0j
    for z in values.values():
        if z == 0:
            raise ExactnessError(f"{what}: advisory factor evaluated to zero")
        total += cmath.log(z)
    if exact == 0:
        raise ExactnessError(f"{what}: exact value is zero")
    target = complex(math.log(abs(exact)), math.pi if exact < 0 else 0.0)
    diff = cmath.exp(total - target)
    if abs(diff - 1) > 1e-6:
        raise ExactnessError(
            f"{what}: advisory complex product differs by {abs(diff - 1):.3e} (relative)"
        )


def test_orbit_guard_matches_complex_log_reference():
    """The guard against the complex-log product over all of (Z/t)^x, for
    every 2 <= t <= 130 (t = 1 is no character order), on six vectors each
    and seven candidate values per vector: the exact norm, off by a relative +-1e-5, its negative,
    zero, its double and the norm + 1.  Same outcome, same message up to the
    printed relative error, and that error within one unit of its last
    printed digit: summed in another order the floats may round a tie the
    other way (one t = 14 case is off by exactly 1/128)."""

    def outcome(guard, *args):
        """None when the guard passes, else its message split around the
        printed error: [text, error, text], or [text] without one."""
        try:
            guard(*args)
        except ExactnessError as exc:
            return re.split(r"(\d\.\d{3}e[-+]\d+)", str(exc))
        return None

    rng = random.Random(22)
    cases, rejected = 0, 0
    for t in range(2, 131):
        for lo, hi in ((0, 7), (-1, 1), (-10**4, 10**4), (0, 1), (-3, 3), (0, 7)):
            vec = [rng.randint(lo, hi) for _ in range(t)]
            exact = norm(t, vec)
            for value in {exact, exact + exact // 10**5, exact - exact // 10**5, -exact, 0,
                          2 * exact, exact + 1}:
                want = outcome(_reference_orbit_guard, t, vec, value, "control")
                got = outcome(classnum._orbit_guard, t, vec, value, "control")
                assert (got is None) == (want is None), (t, vec, value)
                if want is not None:
                    assert got[::2] == want[::2], (t, vec, value)
                    for g, w in zip(got[1::2], want[1::2]):
                        unit = 10.0 ** (int(w.split("e")[1]) - 3)  # of the last printed digit
                        assert abs(float(g) - float(w)) <= unit * (1 + 1e-9), (t, vec, value)
                cases += 1
                rejected += want is not None
    assert cases > 4000 and cases - rejected > 700 and rejected > 3000


@pytest.mark.parametrize("route, bad_t", [
    pytest.param("digits", 4, id="4"),
    pytest.param("digits", 16, id="16"),
    pytest.param("charsum", 4, id="charsum-4"),
    pytest.param("charsum", 16, id="charsum-16"),
])
def test_digit_norm_guard(monkeypatch, route, bad_t):
    """A wrong exact value for one order t (4 divides r, 16 does not) fails
    its orbit's float guard in every row whose product includes t, also on a
    second pass over the table: a value that fails never enters the memo.
    The digit route gets a doubled norm; the character-sum route, under
    verify_charsum, a doubled orbit product."""
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^4+T+2")
    ctx = build_context(P, canonical_primitive_lift(P))
    if route == "digits":
        true_norm = classnum.norm
        monkeypatch.setattr(
            classnum, "norm", lambda t, v: 2 * true_norm(t, v) if t == bad_t else true_norm(t, v)
        )
    else:
        true_product = classnum._orbit_product

        def product(x):
            y = true_product(x)
            return y + y if x.n == bad_t else y

        monkeypatch.setattr(classnum, "_orbit_product", product)
    hit = 0
    for _ in range(2):
        for l in divisors(ctx.N):
            # a minus order enters where t | l, a plus order (t | r) where
            # t | m = gcd(l, r), which for t | r is again where t | l
            if l % bad_t == 0:
                hit += 1
                with pytest.raises(ExactnessError, match=f"orbit of order {bad_t}"):
                    compute_report(ctx, l, verify_charsum=route == "charsum")
            else:
                compute_report(ctx, l, verify_charsum=route == "charsum")
    assert hit == (12 if bad_t == 4 else 4)


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


def _complex_sum(n, weighted_exponents):
    """Floating sum of w * exp(2 pi i e / n) over (e, w) pairs."""
    return sum(w * cmath.exp(2j * cmath.pi * (e % n) / n) for e, w in weighted_exponents)


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
        gens = [w for w in spec.elements()
                if w and element_order(spec.q - 1, lambda e: w**e == spec.one) == spec.q - 1]
        for w in gens:
            for s in range(spec.q - 1):
                lam = unit_character(spec, s, w)
                assert dp.twisted_exponents(lam) == _twisted_exponents_reference(dp, lam)
                cases += 1
        for j in (1, ctx.N - 1):
            want = _twisted_terms_reference(ctx, j)
            assert [j * x % ctx.N for x in dp.twist] == want
            assert exponent_sum(ctx.N, ((j * x, 1) for x in dp.twist)) == exponent_sum(
                ctx.N, ((x, 1) for x in want)
            )
    assert cases > 200


def test_full_table_builds_few_field_elements(monkeypatch):
    """A whole (q, d) = (3, 6) table, every l | N with the character-sum
    oracle, reads leading coefficients as table indices: it builds fewer
    FieldElements than its r = 364 digits.  It reads the context's per-step
    ints only: powers, digits and dlog are never built, and neither the
    context nor its DigitPolynomials holds a Poly but P and G."""
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
    assert not {"powers", "digits", "dlog"} & set(vars(ctx))
    held = [x for obj in (ctx, digit_polynomials(ctx)) for v in vars(obj).values()
            for x in (v if isinstance(v, (tuple, list)) else (v,)) if isinstance(x, Poly)]
    assert held == [ctx.P, ctx.G]


def test_twist_is_built_only_when_read():
    """Over F_2 every order t divides r = N, so a full table with the
    character-sum oracle never reads the twist exponents, and they are not
    built."""
    spec = FieldSpec.from_order(2)
    P = parse_poly(spec, "T^7+T+1")
    ctx = build_context(P, canonical_primitive_lift(P))
    for l in divisors(ctx.N):
        compute_report(ctx, l, verify_charsum=True)
    assert "twist" not in vars(digit_polynomials(ctx))
    assert digit_polynomials(ctx).twist and "twist" in vars(digit_polynomials(ctx))


# q = 3, d = 10: r = 29524 steps; l = 8 reads the orders 2 and 4, which
# divide r, and 8, which does not
LONG_CONTEXT = "T^10+2*T^2+1"


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        value = fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return value, peak


def _record_bytes(ctx) -> int:
    return sum(a.itemsize * len(a) for a in (ctx.power_degrees, ctx.logs))


def test_context_walk_holds_no_more_than_its_records():
    """build_context writes each step's records into its two arrays as it
    reads the walk: its traced peak stays below three times their size,
    which a list or tuple of one entry per step would exceed."""
    P = parse_poly(FieldSpec.from_order(3), LONG_CONTEXT)
    G = canonical_primitive_lift(P)
    ctx, peak = _traced_peak(build_context, P, G)
    assert ctx.r == 29524
    assert peak < 3 * _record_bytes(ctx)


def test_report_folds_the_records_in_place():
    """Both routes fold ctx.power_degrees and ctx.logs mod x^t - 1 as they
    read them, so a report with the character-sum oracle allocates less than
    twice the two arrays, and neither the degree polynomial nor the twist is
    built."""
    P = parse_poly(FieldSpec.from_order(3), LONG_CONTEXT)
    ctx = build_context(P, canonical_primitive_lift(P))
    report, peak = _traced_peak(compute_report, ctx, 8, verify_charsum=True)
    assert (report.m, report.h, report.agree) == (4, 8251823266108200, True)
    assert peak < 2 * _record_bytes(ctx)
    assert not {"degree_poly", "twist"} & set(vars(digit_polynomials(ctx)))


def test_report_builds_no_character_set():
    """Every row of a (q, d) = (3, 4) table, with the character-sum oracle,
    reads only l, m and n of its subfield: no memoized descriptor holds a
    character set."""
    spec = FieldSpec.from_order(3)
    P = next(f for f in monic_polys(spec, 4) if is_irreducible(f))
    ctx = build_context(P, canonical_primitive_lift(P))
    for l in divisors(ctx.N):
        compute_report(ctx, l, verify_charsum=True)
    assert sorted(ctx._subfield_memo) == divisors(ctx.N) == divisors(80)
    views = {"chis", "chis_plus", "chis_minus", "alpha_exponents", "unit_chars"}
    for desc in ctx._subfield_memo.values():
        assert not views & set(vars(desc))


def test_guard_checks_each_orbit_once(ctx_pool, monkeypatch):
    """Over two passes of every row of a table with the character-sum oracle,
    each route calls the float guard exactly once per order t | N, t > 1,
    with the exact value it then memoizes and a vector mod x^t - 1 whose
    value z_u at zeta_t^u is the value at chi_j, j = u*N/t, for every u in
    (Z/t)^x: each within 1e-12 (relative) of the same sum over the N-th
    roots."""
    true_guard = classnum._orbit_guard
    calls = []

    def guard(t, vec, exact, what):
        calls.append((what, t, vec, exact))
        true_guard(t, vec, exact, what)

    monkeypatch.setattr(classnum, "_orbit_guard", guard)
    routes = (("digits", "digit route orbit of order "),
              ("charsum", "character sum orbit of order "))
    for pooled in [c for c in ctx_pool if c.e >= c.d][:8]:
        ctx = build_context(pooled.P, pooled.G)  # memos cold, whatever ran before
        calls.clear()
        for _ in range(2):
            for l in divisors(ctx.N):
                compute_report(ctx, l, verify_charsum=True)
        orders = divisors(ctx.N)[1:]
        assert len(calls) == 2 * len(orders)
        dp = digit_polynomials(ctx)
        window = [(ctx.dlog[I], s) for s in range(ctx.d) for I in monic_polys(ctx.spec, s)]
        F = dp.degree_poly
        for route, prefix in routes:
            got = [(t, vec, x) for w, t, vec, x in calls if w.startswith(prefix)]
            assert sorted(t for t, _, _ in got) == orders
            assert all(w == f"{prefix}{t}" for w, t, _, _ in calls if w.startswith(prefix))
            for t, vec, exact in got:
                if route == "digits":
                    assert exact == classnum._digit_norm(dp, t)
                else:
                    assert exact == classnum._orbit_value(ctx, t)
                assert len(vec) == t
                plus = ctx.r % t == 0
                for u in (u for u in range(1, t) if math.gcd(u, t) == 1):
                    z = _complex_sum(t, ((u * e, w) for e, w in enumerate(vec)))
                    j = u * (ctx.N // t)
                    if route == "digits" and plus:
                        terms = [(j * k, c) for k, c in enumerate(F) if c]
                    elif route == "digits":
                        terms = [(x, 1) for x in _twisted_terms_reference(ctx, j)]
                    elif plus:
                        terms = [(j * k, -s) for k, s in window if s]
                    else:
                        terms = [(j * k, 1) for k, _ in window]
                    reference = _complex_sum(ctx.N, terms)  # the N-th roots form
                    assert abs(z - reference) <= 1e-12 * abs(reference)


def test_monic_window_matches_enumeration(ctx_pool):
    """The window read off ctx.dlog against the monic polynomials of
    max(lo, 0) <= degree < d enumerated degree by degree, for lo = d - e
    (negative when deg G > deg P), both ends and the full window."""
    cases = 0
    for ctx in ctx_pool:
        for lo in {ctx.d - ctx.e, 0, 1, ctx.d - 1}:
            want = sorted((ctx.dlog[I], s)
                          for s in range(max(lo, 0), ctx.d) for I in monic_polys(ctx.spec, s))
            assert sorted(classnum._monic_window(ctx, lo)) == want
            cases += bool(want)
    assert cases > 200
