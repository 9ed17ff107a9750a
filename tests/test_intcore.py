"""Differential tests of the int-coded polynomial core against a schoolbook
over FieldElement arithmetic, the definition of F_q."""

import random
from itertools import islice

import pytest

from carlitzdigits import polyring
from carlitzdigits.carlitz import carlitz_poly
from carlitzdigits.digits import long_division
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.polyring import (
    KRONECKER_MIN_LEN,
    Poly,
    _make,
    _Modulus,
    _slot,
    is_irreducible,
    mod_pow,
    monic_polys,
    parse_poly,
    poly,
    poly_gcd,
)

from conftest import walk_steps

QS = (2, 3, 4, 5, 7, 8, 9)
FIELDS = [FieldSpec.from_order(q) for q in QS] + [FieldSpec(5, 2, (2, 1, 1))]
FIELD_IDS = [f"q{q}" for q in QS] + ["q25-explicit-modulus"]


# -- the oracle: element lists, ascending, no trailing zeros --

def trim(v):
    v = list(v)
    while v and v[-1].is_zero():
        v.pop()
    return v


def ref_add(spec, a, b):
    n = max(len(a), len(b))
    a = list(a) + [spec.zero] * (n - len(a))
    b = list(b) + [spec.zero] * (n - len(b))
    return trim(x + y for x, y in zip(a, b))


def ref_mul(spec, a, b):
    if not a or not b:
        return []
    out = [spec.zero] * (len(a) + len(b) - 1)
    nb = [(j, y) for j, y in enumerate(b) if not y.is_zero()]
    for i, x in enumerate(a):
        if not x.is_zero():
            for j, y in nb:
                out[i + j] = out[i + j] + x * y
    return trim(out)


def ref_divmod(spec, a, b):
    dg = len(b) - 1
    rem = list(a)
    if len(rem) - 1 < dg:
        return [], trim(rem)
    inv = b[-1].inverse()
    quo = [spec.zero] * (len(rem) - dg)
    for k in range(len(rem) - dg - 1, -1, -1):
        c = rem[k + dg] * inv
        quo[k] = c
        for i, y in enumerate(b):
            rem[k + i] = rem[k + i] - c * y
    return trim(quo), trim(rem[:dg])


def ref_mod_pow(spec, base, e, m):
    result = ref_divmod(spec, [spec.one], m)[1]
    acc = ref_divmod(spec, base, m)[1]
    while e:
        if e & 1:
            result = ref_divmod(spec, ref_mul(spec, result, acc), m)[1]
        acc = ref_divmod(spec, ref_mul(spec, acc, acc), m)[1]
        e >>= 1
    return result


def ref_gcd(spec, f, g):
    while g:
        f, g = g, ref_divmod(spec, f, g)[1]
    if not f:
        return f
    inv = f[-1].inverse()
    return [c * inv for c in f]


def ref_irreducible(spec, f):
    d = len(f) - 1
    return all(
        ref_divmod(spec, f, list(g.coeffs))[1]
        for s in range(1, d // 2 + 1)
        for g in monic_polys(spec, s)
    )


def rand_elems(rng, spec, length):
    """length coefficients, the last nonzero; length 0 is the zero list."""
    v = [spec.from_index(rng.randrange(spec.q)) for _ in range(length)]
    if v:
        v[-1] = spec.from_index(rng.randrange(1, spec.q))
    return v


def lengths(rng):
    """Lengths on both sides of the Kronecker crossover, zero and
    constants included, up to degree 300."""
    small = (0, 1, KRONECKER_MIN_LEN - 1, KRONECKER_MIN_LEN, KRONECKER_MIN_LEN + 1)
    out = [(x, y) for x in small for y in (1, 5, rng.randint(2, 40))]
    out += [(rng.randint(0, 301), rng.randint(0, 60)) for _ in range(4)]
    out += [(301, rng.randint(100, 301))]
    return out


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_products_and_sums_match_oracle(spec):
    rng = random.Random(spec.q)
    for la, lb in lengths(rng):
        a, b = rand_elems(rng, spec, la), rand_elems(rng, spec, lb)
        fa, fb = Poly(spec, a), Poly(spec, b)
        assert list((fa * fb).coeffs) == ref_mul(spec, a, b)
        assert list((fb * fa).coeffs) == ref_mul(spec, b, a)
        assert list((fa + fb).coeffs) == ref_add(spec, a, b)
        assert list((fa - fb).coeffs) == ref_add(spec, a, [-c for c in b])


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_divmod_matches_oracle(spec):
    rng = random.Random(100 + spec.q)
    for la, lb in lengths(rng):
        a, b = rand_elems(rng, spec, la), rand_elems(rng, spec, max(lb, 1))
        quo, rem = divmod(Poly(spec, a), Poly(spec, b))
        rq, rr = ref_divmod(spec, a, b)
        assert list(quo.coeffs) == rq
        assert list(rem.coeffs) == rr


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_mod_pow_and_gcd_match_oracle(spec):
    rng = random.Random(200 + spec.q)
    for _ in range(6):
        m = rand_elems(rng, spec, rng.randint(1, 13))
        base = rand_elems(rng, spec, rng.randint(0, 20))
        e = rng.choice((0, 1, 2, rng.randrange(10**6)))
        got = mod_pow(Poly(spec, base), e, Poly(spec, m))
        assert list(got.coeffs) == ref_mod_pow(spec, base, e, m)
    for _ in range(6):
        common = rand_elems(rng, spec, rng.randint(0, 20))
        f = ref_mul(spec, common, rand_elems(rng, spec, rng.randint(0, 40)))
        g = ref_mul(spec, common, rand_elems(rng, spec, rng.randint(0, 40)))
        got = poly_gcd(Poly(spec, f), Poly(spec, g))
        assert list(got.coeffs) == ref_gcd(spec, f, g)


def ref_long_division(spec, base, m, cur, n):
    """n steps of base * G_{k-1} = H_k * m + G_k from G_0 = cur."""
    out = []
    for _ in range(n):
        h, cur = ref_divmod(spec, ref_mul(spec, base, cur), m)
        out.append((h, cur))
    return out


def kernel_cases(rng, spec):
    """(m, base): a constant m, m of lengths around the Kronecker crossover
    (so the reduced operands fall on both sides of it) and a longer one,
    each with bases on both sides of the crossover and a base that m
    divides.  Past F_3 some leading coefficient of m is its own inverse
    and some is not."""
    ks = KRONECKER_MIN_LEN
    for lm in (1, ks, ks + 1, ks + 2, 12):
        m = rand_elems(rng, spec, lm)
        if spec.q > 2 and lm != ks:
            m[-1] = spec.from_index(rng.randrange(2, spec.q))
        bases = [rand_elems(rng, spec, n) for n in (ks - 1, ks, ks + 1, lm + 3)]
        bases.append(ref_mul(spec, m, rand_elems(rng, spec, 2)))
        for base in bases:
            yield m, base


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_mod_pow_kernel_matches_oracle(spec):
    rng = random.Random(600 + spec.q)
    for m, base in kernel_cases(rng, spec):
        for e in (0, 1, 2, 3, 5, rng.randrange(2**70, 2**71)):
            got = mod_pow(Poly(spec, base), e, Poly(spec, m))
            assert list(got.coeffs) == ref_mod_pow(spec, base, e, m)


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_long_division_kernel_matches_oracle(spec):
    rng = random.Random(700 + spec.q)
    for m, base in kernel_cases(rng, spec):
        # G_0 zero, one and a residue of degree up to deg m - 1; a constant
        # m has no walk
        starts = ([], [spec.one], ref_divmod(spec, rand_elems(rng, spec, len(m) + 2), m)[1])
        if len(m) < 2:
            continue
        for cur in starts:
            pb, pm, pc = Poly(spec, base), Poly(spec, m), Poly(spec, cur)
            want = ref_long_division(spec, base, m, cur, 9)
            steps = islice(walk_steps(_Modulus(pm), pb.ints, pc.ints), 9)
            got = [(list(_make(spec, h).coeffs), list(_make(spec, g).coeffs)) for h, g in steps]
            assert got == want
            digits = islice(long_division(pb, pm, pc), 9)
            assert [list(h.coeffs) for h in digits] == [h for h, _ in want]


def divmod_steps(base, m, cur, n):
    """n steps of base * G_{k-1} = H_k * m + G_k, each one _Modulus.divmod."""
    mod = _Modulus(m)
    product, c, out = mod.F.product, cur.ints, []
    for _ in range(n):
        hk, c = mod.divmod(product(base.ints, c))
        out.append((_make(m.spec, hk), _make(m.spec, c)))
    return out


def assert_walk_matches_divmod(base, m, cur, n):
    want = divmod_steps(base, m, cur, n)
    steps = islice(walk_steps(_Modulus(m), base.ints, cur.ints), n)
    assert [(_make(m.spec, h), _make(m.spec, g)) for h, g in steps] == want
    assert list(islice(long_division(base, m, cur), n)) == [h for h, _ in want]


def packed_steps_cases(spec):
    """(G, M, G_0) for deg M = 1..20, monic or not, deg G below and at least
    deg M, and G_0 zero, a constant, of degree below deg M and the remainder
    mod M of one of degree at least deg M."""
    rng = random.Random(800 + spec.q)
    for d in range(1, 21):
        m = Poly(spec, rand_elems(rng, spec, d + 1))
        if d % 2 == 0:
            m = m.monic()
        for deg_g in (rng.randrange(d), rng.randint(d, d + 3)):
            base = Poly(spec, rand_elems(rng, spec, deg_g + 1))
            for len_c in (0, 1, rng.randint(1, d), rng.randint(d + 1, d + 5)):
                yield base, m, Poly(spec, rand_elems(rng, spec, len_c)) % m


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_packed_steps_match_divmod(spec):
    """200 steps of the walk with quotients against the divmod loop on
    packed_steps_cases."""
    for base, m, cur in packed_steps_cases(spec):
        assert_walk_matches_divmod(base, m, cur, 200)


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_maps_without_a_slot_sum_columns(spec, monkeypatch):
    """With no slot wide enough for any map, the walk with quotients and the
    Frobenius map take _linear_map's column sums: 40 steps against the
    divmod loop on packed_steps_cases, and the map against x^q mod M by the
    oracle on random x of degree below deg M, zero and constants included."""
    monkeypatch.setattr(polyring, "_slot", lambda bits: None)
    for base, m, cur in packed_steps_cases(spec):
        assert_walk_matches_divmod(base, m, cur, 40)
    rng = random.Random(850 + spec.q)
    for d in (1, 2, 3, 4, 7, 12):
        m = rand_elems(rng, spec, d + 1)
        frobenius = _Modulus(Poly(spec, m))._frobenius_map()
        for x in [[], rand_elems(rng, spec, 1)] + [rand_elems(rng, spec, d) for _ in range(8)]:
            got = _make(spec, frobenius(list(Poly(spec, x).ints)))
            assert list(got.coeffs) == ref_mod_pow(spec, x, spec.q, m)


def test_steps_without_a_slot_sum_columns():
    """Over F_p, p = 2^31 - 1, deg M = 8 puts 8 * (p - 1)^2 past the widest
    slot, so the walk sums the map's columns on ints.  G_0 is zero, a
    constant, of degree 4 and the remainder mod M of one of degree 11."""
    spec = FieldSpec(2**31 - 1)
    rng = random.Random(900)
    m = Poly(spec, rand_elems(rng, spec, 9))
    assert _slot((8 * (spec.p - 1) ** 2).bit_length()) is None
    for len_c in (0, 1, 5, 12):
        cur = Poly(spec, rand_elems(rng, spec, len_c)) % m
        assert_walk_matches_divmod(Poly(spec, rand_elems(rng, spec, 4)), m, cur, 50)


def largest_coordinate_sum(spec):
    """(c, s): s = max over t of sum_j (coordinate t of c * x^j), the
    largest sum over F_q, c a coefficient that attains it (c = p - 1 over F_p)."""
    if spec.a == 1:
        return spec.p - 1, spec.p - 1
    xs = [spec.from_index(spec.p**j) for j in range(spec.a)]
    return max(
        (max(sum((spec.from_index(c) * x).coeffs[t] for x in xs) for t in range(spec.a)), c)
        for c in range(spec.q)
    )[::-1]


EDGES = [(spec, 8) for spec in FIELDS] + [
    (FieldSpec(131), 16), (FieldSpec(65537), 32), (FieldSpec(2**32 + 15), 64)]


@pytest.mark.parametrize("spec, width", EDGES, ids=[f"p{s.p}a{s.a}-{w}" for s, w in EDGES])
def test_packed_steps_fill_the_slot(spec, width):
    """M = T^d, G = c * (1 + T + ... + T^(d-1)) and G_0 of coefficients
    q - 1 (every coordinate p - 1) make the first step's slot of T^(d-1)
    sum d * (p - 1) * s >= 2^width, while deg M * a * (p - 1)^2 takes
    width + 1 bits: a slot one bit narrower than the bound overflows."""
    p, a = spec.p, spec.a
    c, s = largest_coordinate_sum(spec)
    d = -(-(2**width) // ((p - 1) * s))
    assert (d * a * (p - 1) ** 2).bit_length() == width + 1
    m = Poly(spec, [spec.zero] * d + [spec.one])
    base = _make(spec, [c] * d)
    cur = _make(spec, [spec.q - 1] * d)
    assert_walk_matches_divmod(base, m, cur, 3)


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_irreducibility_matches_oracle(spec):
    rng = random.Random(300 + spec.q)
    max_degree = 6 if spec.q <= 5 else 4
    seen = set()
    for _ in range(12):
        f = rand_elems(rng, spec, rng.randint(2, max_degree + 1))
        if rng.randrange(3) == 0:  # a product, reducible by construction
            f = ref_mul(spec, f[:2] or [spec.one], rand_elems(rng, spec, 3))
        verdict = is_irreducible(Poly(spec, f))
        assert verdict == ref_irreducible(spec, f)
        seen.add(verdict)
    assert seen == {True, False}


@pytest.mark.parametrize("spec", FIELDS, ids=FIELD_IDS)
def test_constructors_agree(spec):
    rng = random.Random(400 + spec.q)
    for length in (0, 1, 2, 7, 40):
        elems = tuple(rand_elems(rng, spec, length))
        f = Poly(spec, elems)
        assert f.coeffs == elems
        padded = Poly(spec, elems + (spec.zero, spec.zero))
        via_text = parse_poly(spec, str(f))
        via_poly = poly(spec, *elems)
        # the same polynomial out of the int kernels
        via_arith = (f + Poly.one(spec)) - Poly.one(spec)
        for g in (padded, via_text, via_poly, via_arith):
            assert g == f and hash(g) == hash(f)
            assert g.ints == tuple(c.index() for c in elems)
        assert len({f, padded, via_text, via_poly, via_arith}) == 1
    assert Poly(spec, (spec.one,)) != Poly(FieldSpec.from_order(11), (1,))


def ref_power(spec, f, k):
    out = [spec.one]
    for _ in range(k):
        out = ref_mul(spec, out, f)
    return out


@pytest.mark.parametrize("q, deg_i", [(2, 12), (3, 8)])
def test_carlitz_action_at_output_degree_ten_thousand(q, deg_i):
    spec = FieldSpec.from_order(q)
    rng = random.Random(500 + q)
    I = Poly(spec, rand_elems(rng, spec, deg_i + 1))
    f1 = rand_elems(rng, spec, 3)
    f2 = rand_elems(rng, spec, 2)
    rho = carlitz_poly(I)
    out = rho.apply(Poly(spec, f1))
    assert out.degree() >= 8000
    assert rho.apply(Poly(spec, f1) + Poly(spec, f2)) == out + rho.apply(Poly(spec, f2))
    want, fp = [], f1
    for i, c in enumerate(rho.coeffs):
        if i:
            fp = ref_power(spec, fp, q)
        want = ref_add(spec, want, ref_mul(spec, list(c.coeffs), fp))
    assert list(out.coeffs) == want
