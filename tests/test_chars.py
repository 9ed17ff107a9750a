import math
import random
from itertools import islice

import pytest

from carlitzdigits import chars
from carlitzdigits.chars import (
    DirichletChar,
    ResidueCtx,
    build_context,
    restriction,
    subfield,
)
from carlitzdigits.classnum import canonical_primitive_lift
from carlitzdigits.cycint import CycloInt, root_of_unity
from carlitzdigits.errors import (
    HypothesisError,
    PrimitivityError,
    ResourceLimitError,
)
from carlitzdigits.digits import digit_closed_form, digit_expand
from carlitzdigits.ffq import FieldSpec, UnitCharacter
from carlitzdigits.numutil import prime_factors
from carlitzdigits.polyring import (
    Poly,
    _Modulus,
    gen,
    is_irreducible,
    mod_pow,
    monic_polys,
    parse_poly,
    poly,
)

from conftest import (EX1, EX3, all_irreducibles, random_context, random_irreducible,
                      random_poly, walk_steps)


def _power(ctx, k):
    """G^k mod P by repeated squaring, apart from the context's division."""
    return mod_pow(ctx.G, k, ctx.P)


def test_context_basics(ctx1):
    assert ctx1.d == 2 and ctx1.e == 2
    assert ctx1.N == 8 and ctx1.r == 4
    assert len(ctx1.powers) == ctx1.r == len(ctx1.digits) == len(ctx1.dlog)
    assert ctx1.powers[0] == Poly.one(ctx1.spec)
    # w = G^r is a scalar of full order q - 1
    assert _power(ctx1, 4).degree() == 0
    assert ctx1.unit_gen == ctx1.spec.element(2)
    assert _power(ctx1, 4) == Poly(ctx1.spec, (ctx1.unit_gen,))


def test_power_table_is_bijective(ctx1, ctx2, ctx3):
    for ctx in (ctx1, ctx2, ctx3):
        seen = {_power(ctx, k) for k in range(ctx.N)}
        assert len(seen) == ctx.N
        for k, p in enumerate(ctx.powers):
            assert p == _power(ctx, k)
        for k in range(ctx.N):
            p = _power(ctx, k)
            assert ctx.dlog_of(p) == k
            assert p.is_zero() is False
            assert p.degree() < ctx.d


def test_dlog_is_homomorphic(ctx3):
    rng = random.Random(41)
    for _ in range(100):
        a = rng.randrange(ctx3.N)
        b = rng.randrange(ctx3.N)
        prod = (_power(ctx3, a) * _power(ctx3, b)) % ctx3.P
        assert ctx3.dlog_of(prod) == (a + b) % ctx3.N
    assert ctx3.dlog_of(ctx3.P) is None
    assert ctx3.dlog_of(Poly.zero(ctx3.spec)) is None


def test_primitivity_failure_names_witness():
    spec = FieldSpec.from_order(5)
    P = parse_poly(spec, "T^2+T+1")
    # N = 24; T+3 has order 8 mod P, so the ell = 3 test power is 1
    with pytest.raises(PrimitivityError) as info:
        build_context(P, parse_poly(spec, "T+3"))
    assert info.value.witness == 3
    assert chars.primitivity_witness(parse_poly(spec, "T+3"), P) == 3  # polyring's, kept here
    with pytest.raises(PrimitivityError):
        build_context(P, Poly.one(spec))


def _order(G, P):
    """The order of G mod P by stepping its powers."""
    one, cur, k = Poly.one(P.spec), G % P, 1
    while cur != one:
        cur, k = (cur * G) % P, k + 1
    return k


# (q, d): both closing checks of the division fail somewhere here (the
# scalar G^r of too small an order, and a constant G^k with 0 < k < r),
# q = 2 included, where every G^r is the scalar 1
REFUSAL_FIELDS = ((2, 4), (3, 3), (4, 2), (4, 3), (5, 2), (7, 2), (9, 2))


def _no_table(spec):
    raise AssertionError("the log table was read")


@pytest.mark.parametrize("q, d", REFUSAL_FIELDS)
def test_non_primitive_base_refused_with_least_witness(q, d, monkeypatch):
    """For every prime ell | N, G = g^ell (g primitive) has order N/ell, and
    products of two primes name the smaller one; the refusal names the least
    prime ell with ord(G) | N/ell, found here by stepping.  Over a prime field
    the order check reads no log table: the refusal comes without one."""
    spec = FieldSpec.from_order(q)
    if spec.a == 1:
        monkeypatch.setattr(chars, "_log", _no_table)
    P = all_irreducibles(spec, d)[-1]
    N = q**d - 1
    g = next(c for c in monic_polys(spec, d - 1) if _order(c, P) == N)
    ells = sorted(prime_factors(N))
    exponents = ells + [a * b for a, b in zip(ells, ells[1:])] + [N]
    for k, x in enumerate(exponents):
        G = mod_pow(g, x, P) + (P if k % 2 else Poly.zero(spec))
        order = _order(G, P)
        want = min(ell for ell in ells if (N // ell) % order == 0)
        assert want == min(ell for ell in ells if x % ell == 0)
        with pytest.raises(PrimitivityError) as info:
            build_context(P, G)
        assert info.value.witness == want
        assert str(info.value) == f"G is not primitive mod P: its order divides N/{want}"
    monkeypatch.undo()
    assert build_context(P, g).N == N


def test_context_hypothesis_errors():
    """Monic, then irreducible, then the order bound, then gcd(G, P) = 1,
    then primitivity: each refusal names the first failing hypothesis."""
    spec = FieldSpec.from_order(3)
    t = gen(spec)
    P = parse_poly(spec, "T^2+1")
    reducible = parse_poly(spec, "T^2+2")
    with pytest.raises(HypothesisError, match="monic"):
        build_context(P.scale(spec.element(2)), t)  # not monic
    with pytest.raises(HypothesisError, match="monic"):
        build_context(reducible.scale(spec.element(2)), reducible)
    for G in (t, reducible, reducible * t, Poly.one(spec)):  # G = 0 mod P, G = 1
        with pytest.raises(HypothesisError, match="irreducible"):
            build_context(reducible, G)
    with pytest.raises(HypothesisError, match="gcd"):
        build_context(P, P * t)  # gcd(G, P) != 1
    with pytest.raises(HypothesisError):
        build_context(poly(spec, 2), t)  # constant P
    with pytest.raises(ValueError):
        build_context(P, gen(FieldSpec.from_order(5)))


def test_resource_bound_refused():
    spec = FieldSpec.from_order(2)
    # x^64 + x^4 + x^3 + x + 1, irreducible over F_2; N = 2^64 - 1 is
    # past the documented bound so the table build must be refused
    coeffs = [spec.zero] * 65
    for k in (0, 1, 3, 4, 64):
        coeffs[k] = spec.one
    P = Poly(spec, tuple(coeffs))
    assert is_irreducible(P)
    for G in (gen(spec), P * gen(spec)):  # the bound comes before gcd(G, P) = 1
        with pytest.raises(ResourceLimitError):
            build_context(P, G)


def test_deg_map(ctx1):
    """G^k = w^(k // r) G^(k % r), w a scalar, so the degree of G^k mod P
    is power_degrees[k % r] for every k < N."""
    assert tuple(ctx1.power_degrees[:2]) == (0, 1)
    for k in range(ctx1.N):
        assert ctx1.power_degrees[k % ctx1.r] == _power(ctx1, k).degree()


def test_char_values(ctx1):
    N = ctx1.N
    chi = ctx1.char(3)
    assert chi.value_at_base() == root_of_unity(N, 3)
    for k in range(N):
        assert chi.value(_power(ctx1, k)) == root_of_unity(N, 3 * k)
    assert chi.value(ctx1.P).is_zero()
    assert chi.value(ctx1.P * ctx1.G).is_zero()
    assert chi.exponent_at(ctx1.P) is None
    conj = chi.conjugate()
    assert conj.j == N - 3
    for k in range(N):
        gk = _power(ctx1, k)
        assert (chi.value(gk) * conj.value(gk)) == CycloInt.one(N)


def test_char_is_multiplicative(ctx3):
    rng = random.Random(42)
    for _ in range(100):
        j = rng.randrange(ctx3.N)
        chi = ctx3.char(j)
        a, b = rng.randrange(ctx3.N), rng.randrange(ctx3.N)
        pa, pb = _power(ctx3, a), _power(ctx3, b)
        assert chi.value((pa * pb) % ctx3.P) == chi.value(pa) * chi.value(pb)


def test_char_order_and_trivial(ctx1):
    assert ctx1.char(0).is_trivial()
    assert ctx1.char(0).order == 1
    assert ctx1.char(8).is_trivial()  # reduced mod N
    for j in range(1, ctx1.N):
        assert ctx1.char(j).order == ctx1.N // math.gcd(j, ctx1.N)


def test_restriction_to_scalars(ctx1, ctx3):
    # j = 0 restricts trivially, and so does any j divisible by q - 1
    assert restriction(ctx1.char(0)).is_trivial()
    assert restriction(ctx1.char(2)).is_trivial()
    assert ctx1.char(2).restricts_to_scalars_trivially()
    assert not ctx1.char(3).restricts_to_scalars_trivially()
    # q = 3, N = 26: chi_13 restricts to the quadratic character of F_3
    lam = restriction(ctx3.char(13))
    assert lam.s == 1
    assert not lam.is_trivial()
    assert lam.order == 2
    # the restriction index is against w = G^r: chi_j(w) = zeta_N^(j r)
    for j in (1, 5, 13):
        chi = ctx3.char(j)
        lam = restriction(chi)
        for c in ctx3.spec.elements():
            if c.is_zero():
                continue
            cpoly = Poly(ctx3.spec, (c,))
            ex = lam.exponent(c)
            # lambda(c) = zeta_{q-1}^ex embeds as zeta_N^(ex * r)
            assert chi.value(cpoly) == root_of_unity(ctx3.N, ex * ctx3.r)


def test_subfield_quadratic_even_d(ctx1):
    # d = 2: r = 4 is even, so l = 2 gives m = 2, n = 1
    desc = subfield(ctx1, 2)
    assert (desc.m, desc.n) == (2, 1)
    assert desc.chis == (0, 4)
    assert desc.chis_plus == (0, 4)
    assert desc.chis_minus == ()
    assert len(desc.unit_chars) == 1 and desc.unit_chars[0].is_trivial()


def test_subfield_quadratic_odd_d(ctx3):
    # d = 3: r = 13 is odd, so l = 2 gives m = 1, n = 2
    desc = subfield(ctx3, 2)
    assert (desc.m, desc.n) == (1, 2)
    assert desc.chis == (0, 13)
    assert desc.chis_plus == (0,)
    assert desc.chis_minus == (13,)
    lam = [u for u in desc.unit_chars if not u.is_trivial()][0]
    assert desc.alpha(lam).as_integer() == -1


def test_subfield_trivial_and_errors(ctx1):
    desc = subfield(ctx1, 1)
    assert (desc.l, desc.m, desc.n) == (1, 1, 1)
    assert desc.chis == (0,)
    with pytest.raises(HypothesisError):
        subfield(ctx1, 3)  # 3 does not divide 8
    with pytest.raises(HypothesisError):
        subfield(ctx1, 0)


def test_subfield_structure_all_divisors(ctx1, ctx2, ctx3):
    for ctx in (ctx1, ctx2, ctx3):
        for l in range(1, ctx.N + 1):
            if ctx.N % l:
                continue
            desc = subfield(ctx, l)
            assert desc.m == math.gcd(l, ctx.r)
            assert desc.n == desc.l // desc.m
            assert (ctx.spec.q - 1) % desc.n == 0
            assert len(desc.chis) == l
            assert len(desc.chis_plus) == desc.m
            assert len(desc.chis_minus) == l - desc.m
            assert set(desc.chis_plus) | set(desc.chis_minus) == set(desc.chis)
            # X_L is exactly the chi with chi^l trivial
            for j in desc.chis:
                assert j * l % ctx.N == 0
            # chis_plus are the scalar-trivial members
            for j in desc.chis:
                trivial = j % (ctx.spec.q - 1) == 0
                assert (j in desc.chis_plus) == trivial
            # alpha has order dividing n and is injective on Y_L
            alphas = set()
            for lam in desc.unit_chars:
                a = desc.alpha(lam)
                assert a**desc.n == CycloInt.one(ctx.N)
                alphas.add(a.coeffs)
            assert len(alphas) == desc.n


def test_monic_reps_partition(ctx_pool):
    """The monic parts of G^0..G^(r-1) are the monic polynomials of degree
    < d, each exactly once, and G^r is a scalar."""
    for ctx in ctx_pool:
        seen = {}
        for k in range(ctx.r):
            key = _power(ctx, k).monic().ints
            seen[key] = seen.get(key, 0) + 1
        expected = {}
        for s in range(ctx.d):
            for mp in monic_polys(ctx.spec, s):
                expected[mp.ints] = 1
        assert seen == expected
        assert _power(ctx, ctx.r).degree() == 0
        assert sorted(p.monic().ints for p in ctx.powers) == sorted(expected)


def _e_below_d_context():
    """A context with deg G < deg P, by fixed search over F_3."""
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^3+2*T+1")
    for G in monic_polys(spec, 2):
        try:
            return build_context(P, G)
        except PrimitivityError:
            continue
    raise AssertionError("some monic quadratic is primitive mod P")


def _lead_contexts():
    """Contexts whose G has lc != 1 (over F_2 lc is 1) and deg G below, equal
    to and above deg P = 3, over q in {2, 3, 4, 5, 7, 9}, and one whose map
    has slots wider than a byte and coordinates past a byte (p = 257, d = 2)."""
    rng, out = random.Random(31), []
    cases = [(FieldSpec.from_order(q), 3, (2, 3, 4)) for q in (2, 3, 4, 5, 7, 9)]
    for spec, d, degrees in cases + [(FieldSpec(257), 2, (3,))]:
        P = random_irreducible(rng, spec, d)
        for e in degrees:
            while True:
                G = random_poly(rng, spec, e)
                if spec.q > 2 and G.ints[-1] == 1:
                    continue
                try:
                    out.append(build_context(P, G))
                    break
                except (PrimitivityError, HypothesisError):  # G a multiple of P
                    continue
    return out


def test_division_matches_digits_module(ctx_pool, ctx2):
    """The context's walk and the digit records read off it against the
    long division with quotients (ctx.digits), digit_closed_form,
    digit_expand and repeated squaring, its per-step ints against the Poly
    views they stand for, G^logs[k] against the monic part of G^k, and
    dlog_of at every k < N (every (1 + N // 4096)-th k when N > 4095, here
    only p = 257); over q in {2, 3, 4, 5, 7, 9}, d = 1 (r = 1) included,
    lc G != 1 with deg G on either side of deg P, and p = 257."""
    small = _e_below_d_context()
    assert small.e < small.d and ctx2.spec.q == 2 and ctx2.r == ctx2.N
    rng = random.Random(16)
    extra = [random_context(rng, qs=(q,), d_range=(1, 3))
             for q in (2, 3, 4, 5, 7, 9) for _ in range(4)]
    assert min(c.d for c in extra) == 1
    leads = _lead_contexts()
    assert {(c.spec.q, (c.e > c.d) - (c.e < c.d)) for c in leads} >= {
        (q, s) for q in (2, 3, 4, 5, 7, 9) for s in (-1, 0, 1)}
    assert all(c.G.ints[-1] != 1 for c in leads if c.spec.q > 2)
    for ctx in ctx_pool + extra + leads + [ctx2, small]:
        one = Poly.one(ctx.spec)
        assert len(ctx.digits) == ctx.r
        assert digit_expand(one, ctx.P, ctx.G, ctx.r).digits == ctx.digits
        for k in range(1, ctx.r + 1):
            assert digit_closed_form(ctx.P, ctx.G, k) == ctx.digits[k - 1]
        assert tuple(ctx.digit_degrees) == tuple(max(h.degree(), 0) for h in ctx.digits)
        assert tuple(ctx.digit_leads) == tuple(h.ints[-1] if h.ints else 0 for h in ctx.digits)
        assert ctx.powers == tuple(_power(ctx, k) for k in range(ctx.r))
        assert tuple(ctx.power_degrees) == tuple(g.degree() for g in ctx.powers)
        assert list(ctx.dlog.items()) == [(g.monic(), k) for g, k in zip(ctx.powers, ctx.logs)]
        for g, k in zip(ctx.powers, ctx.logs):
            assert _power(ctx, k) == g.monic()
        for k in range(0, ctx.N, 1 + ctx.N // 4096):
            assert ctx.dlog_of(_power(ctx, k)) == k


def test_long_walk_matches_the_division_with_quotients():
    """r = 265720 (T^12+T^2+2 over F_3, G its canonical lift): the power and
    digit records against the ints of _Modulus.walk, the division with
    quotients, w = G^r against its last remainder, and G^logs[k] against
    the monic part of G^k at sampled k."""
    spec = FieldSpec.from_order(3)
    P = parse_poly(spec, "T^12+T^2+2")
    ctx = build_context(P, canonical_primitive_lift(P))
    assert ctx.r == 265720
    degrees, leads, digit_degrees, digit_leads = [0], [1], [], []
    for h, g in islice(walk_steps(_Modulus(P), ctx.G.ints, (1,)), ctx.r):
        digit_degrees.append(max(len(h) - 1, 0))
        digit_leads.append(h[-1] if h else 0)
        degrees.append(len(g) - 1)
        leads.append(g[-1])
    assert (degrees.pop(), leads.pop()) == (0, ctx.unit_gen.index())
    assert tuple(ctx.power_degrees) == tuple(degrees)
    assert tuple(ctx.power_leads) == tuple(leads)
    assert tuple(ctx.digit_degrees) == tuple(digit_degrees)
    assert tuple(ctx.digit_leads) == tuple(digit_leads)
    for k in random.Random(17).sample(range(ctx.r), 40):
        g = _power(ctx, k)
        assert (g.degree(), g.ints[-1]) == (degrees[k], leads[k])
        assert _power(ctx, ctx.logs[k]) == g.monic()


def _eager_subfield(ctx, l):
    """The five character sets of the degree-l subfield as the descriptor
    built them eagerly, with its self-checks: the reference for the views
    that SubfieldDescriptor builds on first read."""
    q = ctx.spec.q
    m = math.gcd(l, ctx.r)
    n = l // m
    assert (q - 1) % n == 0
    chis = tuple(t * (ctx.N // l) for t in range(l))
    plus_set = frozenset(t * (ctx.N // m) for t in range(m))
    chis_plus = tuple(sorted(plus_set))
    chis_minus = tuple(sorted(set(chis) - plus_set))
    alpha_exponents = {}
    for j in chis:
        s, a = j % (q - 1), j * m % ctx.N
        assert alpha_exponents.setdefault(s, a) == a
    assert len(alpha_exponents) == n == len(set(alpha_exponents.values()))
    unit_chars = tuple(UnitCharacter(ctx.spec, s, ctx.unit_gen) for s in sorted(alpha_exponents))
    return chis, chis_plus, chis_minus, unit_chars, alpha_exponents


def test_subfield_views_match_eager_construction():
    """For every l | N, on contexts over q in {2, 3, 4, 5, 9} with d <= 3,
    the descriptor's five views equal the eager construction, alpha_exponents
    in the same order."""
    rng = random.Random(20)
    for q in (2, 3, 4, 5, 9):
        for _ in range(4):
            ctx = random_context(rng, qs=(q,), d_range=(1, 3))
            for l in (l for l in range(1, ctx.N + 1) if ctx.N % l == 0):
                desc = subfield(ctx, l)
                assert (desc.m, desc.n) == (math.gcd(l, ctx.r), l // math.gcd(l, ctx.r))
                chis, plus, minus, units, alphas = _eager_subfield(ctx, l)
                assert (desc.chis, desc.chis_plus, desc.chis_minus) == (chis, plus, minus)
                assert desc.unit_chars == units
                assert list(desc.alpha_exponents.items()) == list(alphas.items())


def test_subfield_is_memoized(ctx3):
    desc = subfield(ctx3, 13)
    assert subfield(ctx3, 13) is desc
    assert subfield(ctx3, 2) is not desc
    for _ in range(2):
        with pytest.raises(HypothesisError):
            subfield(ctx3, 5)
