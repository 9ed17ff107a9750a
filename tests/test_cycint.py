import cmath
import hashlib
import math
import random
import time

import pytest

from carlitzdigits.chars import build_context
from carlitzdigits import cycint
from carlitzdigits.classnum import (_orbit_product, canonical_primitive_lift, compute_report,
                                    digit_polynomials)
from carlitzdigits.cycint import (
    CycloInt,
    _modular_resultant,
    _mul,
    _norm_mod,
    _norm_plan,
    _prime,
    _reduce,
    _resultant_mod,
    _trim_int,
    _units,
    cyclotomic_poly,
    exponent_sum,
    int_poly_resultant,
    norm,
    root_of_unity,
)
from carlitzdigits.ffq import FieldSpec
from carlitzdigits.numutil import divisors, is_prime, prime_factors
from carlitzdigits.polyring import is_irreducible, monic_polys


def euler_phi(n):
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


def int_poly_eval(f, x):
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def bareiss_det(m):
    """Determinant of a square integer matrix by fraction-free elimination."""
    m = [list(row) for row in m]
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_resultant(f, g):
    """Reference res(f, g): the Sylvester determinant by Bareiss elimination,
    with the package's convention and edge cases."""
    f, g = list(f), list(g)
    while f and f[-1] == 0:
        f.pop()
    while g and g[-1] == 0:
        g.pop()
    if not f or not g:
        return 0
    df, dg = len(f) - 1, len(g) - 1
    if df == 0 and dg == 0:
        return 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    size = df + dg
    frev, grev = f[::-1], g[::-1]
    rows = [[0] * i + frev + [0] * (size - df - 1 - i) for i in range(dg)]
    rows += [[0] * i + grev + [0] * (size - dg - 1 - i) for i in range(df)]
    return bareiss_det(rows)


def bareiss_norm(t, coeffs):
    """Reference N_{Q(zeta_t)/Q}: the Bareiss determinant of multiplication
    by the value on the basis 1, zeta_t, ..., zeta_t^(phi(t)-1)."""
    phi = cyclotomic_poly(t)
    deg = len(phi) - 1

    def times_zeta(v):
        top = v[-1]
        out = [0] + v[:-1]
        for i in range(deg):
            out[i] -= top * phi[i]
        return out

    v = [0] * deg
    for c in reversed(coeffs):
        v = times_zeta(v)
        v[0] += c
    columns = [v]
    for _ in range(deg - 1):
        columns.append(times_zeta(columns[-1]))
    return bareiss_det(columns)


def test_cyclotomic_poly_pinned():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(6) == (1, -1, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)


_PHI_RECURSIVE = {1: [-1, 1]}


def _cyclotomic_recursive(n):
    """Phi_n as x^n - 1 divided by Phi_d for every proper divisor d, by
    long division, Phi_d built the same way."""
    if n not in _PHI_RECURSIVE:
        f = [-1] + [0] * (n - 1) + [1]
        for d in range(1, n):
            if n % d:
                continue
            g = _cyclotomic_recursive(d)
            dg = len(g) - 1
            quo = [0] * (len(f) - dg)
            for k in range(len(quo) - 1, -1, -1):
                c = quo[k] = f[k + dg]
                if c:
                    f[k : k + dg + 1] = [x - c * b for x, b in zip(f[k : k + dg + 1], g)]
            assert not any(f[:dg])
            f = quo
        _PHI_RECURSIVE[n] = f
    return _PHI_RECURSIVE[n]


def test_cyclotomic_poly_matches_recursive_division():
    """The Moebius product against x^n - 1 divided by every Phi_d, d | n,
    d < n, for every n <= 1200; a cold Phi_65535 (65535 = 3 * 5 * 17 * 257,
    phi = 32768) takes less than a second."""
    for n in range(1, 1201):
        assert cyclotomic_poly(n) == tuple(_cyclotomic_recursive(n))
    start = time.process_time()
    phi = cyclotomic_poly.__wrapped__(65535)
    assert time.process_time() - start < 1
    assert len(phi) == 32769 and phi[0] == phi[-1] == 1


def _reduce_dense(n, vec):
    """Reduction mod Phi_n through every low coefficient of Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    vec = list(vec)
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            vec[k] = 0
            for i in range(deg):
                vec[k - deg + i] -= c * phi[i]
    out = vec[:deg]
    return tuple(out + [0] * (deg - len(out)))


def test_reduce_matches_dense_reduction():
    """_reduce folds mod x^n - 1 from the top down, reduces mod the sparse
    multiple of Phi_n at the least prime of n, then through the nonzero
    terms of Phi_n; it agrees with the dense reduction for every n <= 130,
    Phi_105 (a coefficient -2) included, on vectors shorter and longer than
    phi(n), up to 3n + 1 (folded more than once), with entries of 3 to 200
    bits."""
    assert -2 in cyclotomic_poly(105)
    rng = random.Random(130)
    for n in range(1, 131):
        deg = len(cyclotomic_poly(n)) - 1
        for length in (1, deg, n, 2 * n - 1, 2 * deg + 3, 3 * n + 1):
            for bits in (3, 64, 200):
                vec = [rng.randint(-(2**bits), 2**bits) for _ in range(length)]
                assert _reduce(n, vec) == _reduce_dense(n, vec)


def _mul_reference(n, a, b):
    """The schoolbook product reduced densely mod Phi_n."""
    return _reduce_dense(n, int_poly_mul(a, b))


def _operand_pairs(rng, deg):
    """Operand pairs of length deg: random signed entries of 1 to 200 bits,
    an all-zero and a one-term operand, and every entry +-max on both
    sides, where one product coefficient is exactly deg * max|a| * max|b|."""
    pairs = []
    for bits in (1, 7, 40, 200):
        big = lambda: rng.randint(-(2**bits), 2**bits)
        pairs.append(([big() for _ in range(deg)], [big() for _ in range(deg)]))
    x = [rng.randint(-9, 9) for _ in range(deg)]
    one_term = [0] * deg
    one_term[rng.randrange(deg)] = rng.choice((1, -(2**100), 2**200))
    pairs += [([0] * deg, x), (x, [0] * deg), (one_term, x), (x, one_term)]
    for ma, mb in ((1, 1), (255, 2**8), (2**31 - 1, 2**32), (2**200, 3)):
        for sa, sb in ((1, 1), (1, -1), (-1, -1)):
            pairs.append(([sa * ma] * deg, [sb * mb] * deg))
    return pairs


def _kronecker_reference(a, b):
    """a*b for int lists by one signed Kronecker product, as CycloInt
    products took it before _mul: both operands packed over their own
    lengths with an offset of half a slot, the offsets taken back out by
    the int of all-one slots, unpacked before any reduction."""
    n = len(a) + len(b) - 1
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return [0] * n
    size = -(-(bound.bit_length() + 1) // 8)
    w = 8 * size
    half = 1 << (w - 1)
    ones = ((1 << (w * n)) - 1) // ((1 << w) - 1)
    A, B = (
        int.from_bytes(b"".join([(x + half).to_bytes(size, "little") for x in v]), "little")
        - half * (ones >> w * (n - len(v)))
        for v in (a, b)
    )
    buf = (A * B + half * ones).to_bytes(n * size, "little")
    return [int.from_bytes(buf[i : i + size], "little") - half for i in range(0, len(buf), size)]


def _galois_reference(n, coeffs, u):
    """sigma_u of a reduced vector, as CycloInt.galois takes it: spread
    over n slots, then _reduce."""
    vec = [0] * n
    for i, c in enumerate(coeffs):
        vec[u * i % n] += c
    return _reduce(n, vec)


def _mul_galois_reference(n, a, b, u):
    """a * sigma_u(b) by galois, the reference Kronecker product and _reduce."""
    return _reduce(n, _kronecker_reference(a, _galois_reference(n, b, u)))


def _orbit_product_reference(x):
    """_orbit_product's subgroup chain and doubling on the reference product."""
    t = x.n
    H = {1}
    y = x.coeffs
    for g in range(2, t):
        if g in H or math.gcd(g, t) != 1:
            continue
        k, gk = 1, g
        while gk not in H:
            k, gk = k + 1, gk * g % t
        p, n = y, 1
        for bit in bin(k)[3:]:
            p, n = _mul_galois_reference(t, p, p, pow(g, n, t)), 2 * n
            if bit == "1":
                p, n = _mul_galois_reference(t, y, p, g), n + 1
        y = p
        H = {h * pow(g, j, t) % t for h in H for j in range(k)}
    return y


def _sample_units(rng, n):
    """1, -1 and up to four more units mod n."""
    units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
    return sorted({1, n - 1 or 1, *rng.sample(units, min(4, len(units)))})


def test_mul_matches_galois_and_kronecker():
    """_mul(n, a, b, u) = a * sigma_u(b) against galois, the Kronecker
    product and _reduce taken apart, for every n <= 130 and a sample of
    units u (u and u + n alike), on entries from {0, +-1, +-2^200}, zero
    operands and a aliased to b."""
    rng = random.Random(135)
    for n in range(1, 131):
        deg = len(cyclotomic_poly(n)) - 1
        for u in _sample_units(rng, n):
            for values in ((0, 1, -1), (0, 2**200, -(2**200)), (1, -1, 2**200, -(2**200))):
                a = tuple(rng.choice(values) for _ in range(deg))
                b = tuple(rng.choice(values) for _ in range(deg))
                want = _mul_galois_reference(n, a, b, u)
                assert _mul(n, a, b, u) == want, (n, u)
                assert _mul(n, a, b, u + n) == want
                assert _mul(n, a, a, u) == _mul_galois_reference(n, a, a, u)
                assert _mul(n, (0,) * deg, b, u) == _mul(n, a, (0,) * deg, u) == (0,) * deg


def test_mul_slot_bound_matches_schoolbook():
    """_mul at its slot bound: with every entry +-max the products reach
    phi(n) * max|a| * max|b| (at n = 2^k, u = 1, coefficient phi(n) - 1
    is exactly that), for max around each byte boundary, against the
    schoolbook product reduced densely, and sigma_u against galois."""
    rng = random.Random(132)
    orders = list(range(1, 41)) + [63, 64, 105, 124, 127, 128]
    for m in (1, 127, 128, 255, 2**15, 2**31, 2**63 - 1, 2**64, 2**100):
        for n in orders:
            deg = len(cyclotomic_poly(n)) - 1
            for sa, sb in ((1, 1), (1, -1), (-1, -1)):
                a, b = (sa * m,) * deg, (sb * m,) * deg
                got = _mul(n, a, b, 1)
                assert got == _mul_reference(n, a, b)
                if n > 1 and n & (n - 1) == 0:
                    assert got[deg - 1] == sa * sb * deg * m * m
                u = rng.choice(_sample_units(rng, n))
                assert _mul(n, a, b, u) == _mul_galois_reference(n, a, b, u)


def test_orbit_product_matches_galois_route():
    """_orbit_product by _mul against its subgroup chain on galois, the
    Kronecker product and _reduce taken apart, for every t <= 130, on
    vectors of -1, 0, 1 and of up to 40 bits."""
    rng = random.Random(136)
    for t in range(1, 131):
        deg = len(cyclotomic_poly(t)) - 1
        for bits in (1, 40):
            x = CycloInt(t, tuple(rng.randint(-(2**bits) + 1, 2**bits - 1) for _ in range(deg)))
            assert _orbit_product(x).coeffs == _orbit_product_reference(x)


@pytest.mark.parametrize("t", [256, 509, 701])
def test_orbit_product_equals_norm_at_large_orders(t):
    """The orbit product of a random -1, 0, 1 window collapses to the digit
    route's norm at orders up to the degree bound (phi 128, 508, 700)."""
    rng = random.Random(t)
    v = [rng.choice((-1, 0, 1)) for _ in range(t)]
    assert _orbit_product(exponent_sum(t, enumerate(v))).coeffs == (norm(t, v),) + (0,) * (
        len(cyclotomic_poly(t)) - 2)


def test_norm_needs_no_product_code(monkeypatch):
    """norm shares no code that computes the answer with the oracle's
    products: with _mul and _reduce made to raise, it still answers."""
    rng = random.Random(137)
    cases = [(t, [rng.randint(-5, 5) for _ in range(t + 3)]) for t in (1, 2, 12, 105, 127)]
    want = [norm(t, v) for t, v in cases]

    def refuse(*args):
        raise AssertionError("norm reached the product code")

    monkeypatch.setattr(cycint, "_mul", refuse)
    monkeypatch.setattr(cycint, "_reduce", refuse)
    cycint._norm_plan.cache_clear()
    assert [norm(t, v) for t, v in cases] == want


def test_products_match_schoolbook_every_order():
    """CycloInt products, one Kronecker product each, against the schoolbook
    product reduced densely, for every n <= 130, on the operand pairs
    above."""
    rng = random.Random(133)
    for n in range(1, 131):
        deg = len(cyclotomic_poly(n)) - 1
        for a, b in _operand_pairs(rng, deg):
            got = CycloInt(n, tuple(a)) * CycloInt(n, tuple(b))
            assert got.coeffs == _mul_reference(n, a, b)


def test_powers_galois_lifts_and_sums_match_dense():
    """__pow__, galois, lift and exponent_sum, which reduce through the
    sparse multiple of Phi_n, against products and vectors reduced densely,
    for every n <= 130 (lift to every multiple m <= 130 of n)."""
    rng = random.Random(134)
    for n in range(1, 131):
        deg = len(cyclotomic_poly(n)) - 1
        x = [rng.randint(-(2**40), 2**40) for _ in range(deg)]
        e = rng.randint(2, 4)
        want = [1] + [0] * (deg - 1)
        for _ in range(e):
            want = list(_mul_reference(n, want, x))
        assert (CycloInt(n, tuple(x)) ** e).coeffs == tuple(want)
        u = rng.choice([u for u in range(1, n + 1) if math.gcd(u, n) == 1])
        vec = [0] * n
        for i, c in enumerate(x):
            vec[u * i % n] += c
        assert CycloInt(n, tuple(x)).galois(u).coeffs == _reduce_dense(n, vec)
        for m in range(n, 131, n):
            k = m // n
            vec = [0] * ((deg - 1) * k + 1)
            for i, c in enumerate(x):
                vec[i * k] += c
            assert CycloInt(n, tuple(x)).lift(m).coeffs == _reduce_dense(m, vec)
        pairs = [(rng.randint(-3 * n, 3 * n), rng.randint(-(2**200), 2**200)) for _ in range(9)]
        vec = [0] * n
        for k, w in pairs:
            vec[k % n] += w
        assert exponent_sum(n, pairs).coeffs == _reduce_dense(n, vec)


def test_cyclotomic_poly_degree_and_product():
    for n in range(1, 31):
        assert len(cyclotomic_poly(n)) - 1 == euler_phi(n)
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = int_poly_mul(prod, list(cyclotomic_poly(d)))
        expected = [0] * (n + 1)
        expected[0] = -1
        expected[n] = 1
        assert prod == expected


def test_ring_axioms_random():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.choice((1, 2, 3, 4, 5, 6, 8, 12, 26))
        deg = len(cyclotomic_poly(n)) - 1
        mk = lambda: CycloInt(n, tuple(rng.randint(-9, 9) for _ in range(deg)))
        a, b, c = mk(), mk(), mk()
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + CycloInt.zero(n) == a
        assert a * CycloInt.one(n) == a
        assert a - a == CycloInt.zero(n)
        assert 3 * a == a + a + a


def test_geometric_sum_vanishes():
    for n in (2, 3, 4, 6, 8, 12, 26):
        for j in range(2 * n + 1):
            s = exponent_sum(n, ((j * k, 1) for k in range(n)))
            expected = n if j % n == 0 else 0
            assert s.as_integer() == expected


def test_inverse_roots():
    for n in (1, 2, 3, 5, 8, 24, 26, 30, 48):
        for k in range(n):
            prod = root_of_unity(n, k) * root_of_unity(n, n - k)
            assert prod == CycloInt.one(n)


def test_powers_match_exponents():
    for n in (4, 6, 26):
        z = root_of_unity(n, 1)
        for k in range(2 * n):
            assert z**k == root_of_unity(n, k)


def test_lift_consistency():
    rng = random.Random(22)
    pairs = [(2, 8), (4, 8), (3, 12), (8, 24), (2, 26), (13, 26), (1, 7)]
    for n, m in pairs:
        for a in range(n):
            assert root_of_unity(n, a).lift(m) == root_of_unity(m, a * (m // n))
        for _ in range(10):
            deg = len(cyclotomic_poly(n)) - 1
            x = CycloInt(n, tuple(rng.randint(-5, 5) for _ in range(deg)))
            y = CycloInt(n, tuple(rng.randint(-5, 5) for _ in range(deg)))
            assert (x * y).lift(m) == x.lift(m) * y.lift(m)
            assert (x + y).lift(m) == x.lift(m) + y.lift(m)
    with pytest.raises(ValueError):
        root_of_unity(8, 1).lift(12)


def test_order_mismatch_rejected():
    with pytest.raises(ValueError):
        root_of_unity(4, 1) + root_of_unity(8, 1)
    with pytest.raises(ValueError):
        root_of_unity(4, 1) * root_of_unity(8, 2)


def test_as_integer():
    assert CycloInt.from_int(12, -7).as_integer() == -7
    assert root_of_unity(2, 1).as_integer() == -1
    assert root_of_unity(4, 2).as_integer() == -1
    assert root_of_unity(4, 1).as_integer() is None
    assert root_of_unity(3, 1).as_integer() is None


def zeta_eval(x):
    """The value of x in Z[zeta_n] at zeta_n = exp(2 pi i / n), a float."""
    return int_poly_eval(x.coeffs, cmath.exp(2j * cmath.pi / x.n))


def test_reduced_roots_evaluate_to_cmath():
    """root_of_unity and exponent_sum, reduced mod Phi_n, still take their
    values at zeta_n (zeta_eval against cmath)."""
    for n in (2, 3, 4, 8, 26):
        for k in range(n):
            got = zeta_eval(root_of_unity(n, k))
            want = cmath.exp(2j * cmath.pi * k / n)
            assert abs(got - want) < 1e-9
    x = exponent_sum(26, [(3, 2), (17, -5), (0, 1)])
    want = 2 * cmath.exp(2j * cmath.pi * 3 / 26) - 5 * cmath.exp(2j * cmath.pi * 17 / 26) + 1
    assert abs(zeta_eval(x) - want) < 1e-9


def test_resultant_linear():
    rng = random.Random(23)
    for _ in range(50):
        a, b = rng.randint(-20, 20), rng.randint(-20, 20)
        assert int_poly_resultant((-a, 1), (-b, 1)) == a - b


def test_resultant_against_root_product():
    rng = random.Random(24)
    for _ in range(100):
        roots = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        lead = rng.choice((1, 2, -3))
        f = [lead]
        for a in roots:
            f = int_poly_mul(f, [-a, 1])
        g = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [rng.choice((1, -1, 2))]
        expected = lead ** (len(g) - 1)
        for a in roots:
            expected *= int_poly_eval(g, a)
        assert int_poly_resultant(f, g) == expected


def test_resultant_edge_cases():
    assert int_poly_resultant((), (1, 2)) == 0
    assert int_poly_resultant((0, 0), (1, 2)) == 0
    assert int_poly_resultant((5,), (7,)) == 1
    assert int_poly_resultant((3,), (1, 2, 1)) == 9
    assert int_poly_resultant((1, 2, 1), (3,)) == 9


def test_resultant_matches_sylvester_bareiss():
    """The modular resultant against the Sylvester determinant: non-monic
    inputs whose leading coefficients the first CRT primes divide, entries
    up to 2^200 (many primes), and zero and constant inputs."""
    rng = random.Random(27)
    p0, p1, p2 = _prime(2, 0), _prime(2, 1), _prime(2, 2)
    leads = (p0, p0 * p1, -p1 * p2, 3 * p0 * p1 * p2, 2, -1)
    for _ in range(60):
        f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.choice(leads)]
        g = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))] + [rng.choice(leads)]
        assert int_poly_resultant(f, g) == sylvester_resultant(f, g)
    for _ in range(60):
        bits = rng.choice((1, 30, 64, 130, 200))
        big = lambda: rng.randint(-(2**bits), 2**bits)
        f = [big() for _ in range(rng.randint(1, 7))]
        g = [big() for _ in range(rng.randint(1, 7))]
        assert int_poly_resultant(f, g) == sylvester_resultant(f, g)
    small = ((), (0,), (0, 0), (5,), (-3, 0), (0, 1), (2, -1, 4), (0, 0, 7))
    for f in small:
        for g in small:
            assert int_poly_resultant(f, g) == sylvester_resultant(f, g)


def test_norm_matches_bareiss_every_order():
    """norm(t, v) against the Bareiss determinant of multiplication by v for
    every t <= 130 (124 and 127 included), on digit-like vectors: entries
    0-7, lengths up to 127."""
    rng = random.Random(28)
    for t in range(1, 131):
        assert norm(t, [0] * rng.randint(1, 127)) == 0
        length = 127 if t in (124, 127) else rng.randint(1, 127)
        v = [rng.randint(0, 7) for _ in range(length)]
        assert norm(t, v) == bareiss_norm(t, v)


def test_bounds_attained():
    """Inputs at which each bound is attained, with |answer| = 0.55 p for
    the first prime p the routine uses: stopping after that prime, under a
    bound too small by a factor of 2 or more, returns the wrong residue.
    Hadamard: the Sylvester rows of x + c and c*x - 1 are orthogonal.
    Parseval/AM-GM at t = 2 and 4, whose first primes are those of norm's
    transform: b = c - c*x^(t/2) vanishes at 1 and -1."""
    p = _prime(2, 0)
    c = math.isqrt(11 * p // 20)
    assert int_poly_resultant((c, 1), (-1, c)) == -(1 + c * c)
    p = _norm_plan(2, 0).p
    c = 11 * p // 40
    assert norm(2, (c, -c)) == 2 * c
    p = _norm_plan(4, 0).p
    c = math.isqrt(11 * p // 80)
    assert 4 * c * c > p // 2
    assert norm(4, (c, 0, -c, 0)) == 4 * c * c


def test_crt_primes():
    """The resultant's CRT primes are the ten primes just below 2^62, largest first."""
    gaps = (57, 87, 117, 143, 153, 167, 171, 195, 203, 273)
    assert [2**62 - _prime(2, k) for k in range(10)] == list(gaps)


def test_norm_matches_resultant_and_conjugates():
    """norm(t, v) against the Sylvester determinant of res(Phi_t, v) by
    Bareiss elimination and the product of v over the primitive t-th roots
    of unity; t <= 40 includes non-cyclic (Z/t)^x such as t = 8, 12, 15, 24."""
    rng = random.Random(25)
    for t in range(1, 41):
        assert norm(t, [0] * rng.randint(1, t + 1)) == 0
        for _ in range(6):
            v = [rng.randint(-1, 1) for _ in range(rng.randint(1, t + 3))]
            exact = norm(t, v)
            assert exact == sylvester_resultant(cyclotomic_poly(t), v)
            prod = 1 + 0j
            for a in range(1, t + 1):
                if math.gcd(a, t) == 1:
                    prod *= int_poly_eval(v, cmath.exp(2j * cmath.pi * a / t))
            if abs(exact) < 2**40:
                assert round(prod.real) == exact and abs(prod.imag) < 0.5
            else:
                assert abs(prod - exact) <= 1e-9 * abs(exact)


def test_bad_coordinate_count():
    with pytest.raises(ValueError):
        CycloInt(4, (1, 2, 3))


def test_galois_conjugation():
    """sigma_u against evaluation at zeta_n^u, multiplicativity and
    sigma_u(sigma_v(x)) = sigma_uv(x), for every n <= 40."""
    rng = random.Random(26)
    for n in range(1, 41):
        deg = len(cyclotomic_poly(n)) - 1
        units = [u for u in range(1, n + 1) if math.gcd(u, n) == 1]
        for _ in range(3):
            x = CycloInt(n, tuple(rng.randint(-4, 4) for _ in range(deg)))
            y = CycloInt(n, tuple(rng.randint(-4, 4) for _ in range(deg)))
            u, v = rng.choice(units), rng.choice(units)
            want = int_poly_eval(x.coeffs, cmath.exp(2j * cmath.pi * u / n))
            assert abs(zeta_eval(x.galois(u)) - want) < 1e-9 * (1 + abs(want))
            assert (x * y).galois(u) == x.galois(u) * y.galois(u)
            assert x.galois(v).galois(u) == x.galois(u * v)
        assert x.galois(1) == x
    with pytest.raises(ValueError):
        root_of_unity(12, 1).galois(4)


def _folded(t, v):
    b = [0] * t
    for k, c in enumerate(v):
        b[k % t] += c
    return b


def test_transform_matches_euclid_every_order():
    """norm, by the transform, against the retained Euclid: for every
    t <= 256, _modular_resultant(Phi_t, b) under norm's own bound, on
    signed digit-like entries (-7..7) and, for t <= 40, entries up to 2^64
    in size; and for every t <= 256 each of the first two primes' residues
    (_norm_mod) against _resultant_mod on entries up to 2^64 in size.
    Chirped, the entries are residues spread over [0, p), so the slots of
    the convolution come near their bound t * (p - 1)^2."""
    rng = random.Random(29)
    for t in range(1, 257):
        phi = list(cyclotomic_poly(t))
        deg = len(phi) - 1
        for bits in (3, 64) if t <= 40 else (3,):
            b = [rng.randint(-(2**bits) + 1, 2**bits - 1) for _ in range(t)]
            bound_sq = -(-(t * sum(c * c for c in b)) ** deg // deg**deg)
            want = _modular_resultant(phi, _trim_int(b), bound_sq) if any(b) else 0
            assert norm(t, b) == want, t
        b = [rng.randint(-(2**64), 2**64) for _ in range(t)]
        b[-1] = b[-1] or 1
        for k in (0, 1):
            plan = _norm_plan(t, k)
            assert _norm_mod(b, _units(t), plan) == _resultant_mod(phi, b, plan.p), (t, k)
        assert norm(t, [0] * rng.randint(1, 2 * t)) == 0


def test_norm_primes_and_roots():
    """For every t <= 256, norm's first three primes are prime, = 1 (mod 2t)
    and counted down from 2^62 with no prime of that progression skipped;
    psi has order 2t for even t and t for odd t, psi^2 has order t; the
    chirp, the packed filter and the scale are the powers of psi they name,
    and the slot is the fewest bytes that hold t * (p - 1)^2."""

    def has_order(x, n, p):
        return pow(x, n, p) == 1 and all(pow(x, n // r, p) != 1 for r in prime_factors(n))

    for t in range(1, 257):
        above = 1 << 62
        for k in range(3):
            p, psi, chirp, filt, size, scale = _norm_plan(t, k)
            assert is_prime(p) and p % (2 * t) == 1 and p < above, (t, k)
            assert not any(is_prime(n) for n in range(p + 2 * t, above, 2 * t)), (t, k)
            above = p
            assert has_order(psi, 2 * t if t % 2 == 0 else t, p), (t, k)
            assert has_order(psi * psi % p, t, p), (t, k)
            assert chirp == tuple(pow(psi, j * j, p) for j in range(t))
            slots = filt.to_bytes(t * size, "little")
            assert [int.from_bytes(slots[j * size : (j + 1) * size], "little")
                    for j in range(t)] == [pow(psi, -j * j, p) for j in range(t)]
            assert 256 ** (size - 1) <= t * (p - 1) ** 2 < 256**size
            assert scale == math.prod(chirp[u] for u in _units(t)) % p


# sha256 of repr(sorted memo items) of the (2, 8) and (5, 4) full tables,
# as norm gave them by Euclid in F_p[x] before the transform.
_TABLE_NORM_DIGESTS = {
    (2, 8): "3eec56e3165ecc20cbae6fe2eed2d9fcd2b08bfbacb44801133f8a7ae1ff0b05",
    (5, 4): "4b072ce95338ca08265ebfb4437800b11ede2d0796cae2f421927550d9f698ec",
}


def test_digit_norms_of_full_tables_unchanged():
    """Every _digit_norm that a full class-number table takes (compute_report
    with the character sums for every l | N, on the first irreducible P
    with P(0) != 0 and its canonical lift) equals the value of the
    Euclid-based norm, pinned as one digest per table: (2, 8) takes 7
    orders up to t = 255, (5, 4) 19 up to t = 624."""
    for (q, d), digest in _TABLE_NORM_DIGESTS.items():
        spec = FieldSpec.from_order(q)
        P = next(f for f in monic_polys(spec, d) if is_irreducible(f) and f.ints[0])
        ctx = build_context(P, canonical_primitive_lift(P))
        for l in divisors(ctx.N):
            assert compute_report(ctx, l, verify_charsum=True).agree
        memo = sorted(digit_polynomials(ctx)._norm_memo.items())
        assert hashlib.sha256(repr(memo).encode()).hexdigest() == digest, (q, d)
