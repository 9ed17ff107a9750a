"""Divisor class numbers of subfields of cyclotomic function fields.

Let P be monic irreducible of degree d over F_q and G a primitive base mod P
(so the unit group mod P is generated by G, of order N = q^d - 1).  Two
generating polynomials built from the first r = N/(q-1) digits H_1..H_r of
1/P in base G carry the class number data:

  degree polynomial      sum_k deg'(H_k) u^(k-1)            (deg'(0) = 0)
  twisted polynomial     lam(lc(G)) sum_k lam~(lc(H_k)) u^(k-1)

for unit characters lam of F_q^x (lam~ the conjugate, lam~(0) = 0, lc the
leading coefficient).  The digit route reads both off the context's power
records, with no division: P is monic, so G * G^k = H_(k+1) * P + G^(k+1)
makes H_(k+1) = 0 exactly when e + deg G^k < d (e = deg G), and otherwise
gives it degree e + deg G^k - d and leading coefficient lc G * lc G^k, so
that its twist exponent E_(k+1) (DigitPolynomials) is logs[k].  The identity
checks read the digits off the long division instead.  When deg G >= deg P,
products of their values at roots of unity give the plus part and the
relative part of the class number of any subfield of the P-th cyclotomic
function field.  Each product runs over Galois orbits of characters, one per
order t, so it is a product of exact norms N_{Q(zeta_t)/Q} (cycint.norm);
floats only guard.  Each route checks each orbit where it makes its exact
value, against the floating values at the orbit's characters, one per pair
of complex conjugates (_orbit_guard), and only then memoizes that value per
order t, the digit route on its DigitPolynomials and the character sums on
the ResidueCtx.  So a table over every l | N takes and checks each orbit
once, and a row's product is that of checked factors.

Independent routes kept alongside the digit route, sharing no product code
with it: the classical character sum formulas over monic polynomials of
degree < d (no hypothesis on deg G), taken as one Galois-orbit product in
Z[zeta_t] per character order t (products a * sigma_u(b) of conjugates,
each one cycint._mul), each of which must collapse to a rational integer, and
a point count for any subfield, from P alone: the places of degree <= g
come from the splitting of primes (the Frobenius of Q is Q mod P), and
Newton's identities turn their counts into the zeta numerator.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import NamedTuple

from .chars import DirichletChar, ResidueCtx, _require_subfield_degree, build_context, subfield
from .cycint import CycloInt, _folded, _mul, _reduce, exponent_sum, norm, root_of_unity
from .errors import ExactnessError, HypothesisError, ResourceLimitError
from .ffq import UnitCharacter, _inverse_log, _log
from .numutil import divisors
from .polyring import Poly, _irreducibles, is_irreducible, least_primitive_residue, mod_pow

_ADVISORY_REL_TOL = 1e-6


@dataclass(eq=False)
class DigitPolynomials:
    """First r digits of 1/P in base G and their generating polynomials.

    degree_poly holds deg' H_k and twist E_k = (k - 1) + r * log_w(lc(G) /
    lc(H_k)) < N, w = G^r, for each H_k != 0: E_k = logs[k - 1] (module
    docstring), and the twisted polynomial of chi_j's restriction to scalars
    at chi_j(G) is sum_k zeta_N^(j * E_k).  Both are built on first read.
    """

    ctx: ResidueCtx
    # the digit route's memo, apart from the character-sum oracle's on ctx
    _norm_memo: dict = field(default_factory=dict, init=False, repr=False)

    @functools.cached_property
    def degree_poly(self) -> tuple[int, ...]:
        return tuple(self._degrees())

    @functools.cached_property
    def twist(self) -> tuple[int, ...]:
        return tuple(k for k, _ in _monic_window(self.ctx, self.ctx.d - self.ctx.e))

    def _degrees(self):
        """deg' H_(k+1) = max(deg G^k + e - d, 0) for k = 0..r-1, read in
        place: _digit_norm and quadratic_class_number fold it unbuilt."""
        shift = self.ctx.e - self.ctx.d
        return (s + shift if s + shift > 0 else 0 for s in self.ctx.power_degrees)

    @property
    def digits(self) -> tuple[Poly, ...]:  # H_1..H_r, built on first read
        return self.ctx.digits

    def twisted_exponents(self, lam: UnitCharacter) -> tuple[int | None, ...]:
        """Coefficient exponents of the lam-twisted polynomial.

        Entry k-1 is the exponent of zeta_{q-1} in lam(lc(G)) * lam~(lc(H_k)),
        or None where H_k = 0 (the coefficient 0); it is E_k // r times the
        exponent of lam(w), and E_k mod r = k - 1.
        """
        r, n, c = self.ctx.r, lam.spec.q - 1, lam.exponent(self.ctx.unit_gen)
        out: list[int | None] = [None] * r
        for x in self.twist:
            out[x % r] = x // r * c % n
        return tuple(out)

    def twisted_poly(self, lam: UnitCharacter) -> tuple[CycloInt, ...]:
        """Coefficients of the lam-twisted polynomial in Z[zeta_{q-1}]."""
        n = lam.spec.q - 1
        return tuple(CycloInt.zero(n) if e is None else root_of_unity(n, e)
                     for e in self.twisted_exponents(lam))


def digit_polynomials(ctx: ResidueCtx) -> DigitPolynomials:
    """The ctx's DigitPolynomials, memoized on it."""
    if ctx._digit_memo is None:
        ctx._digit_memo = DigitPolynomials(ctx=ctx)
    return ctx._digit_memo


def _monic_window(ctx: ResidueCtx, lo: int):
    """(dlog, deg) for monic I with max(lo, 0) <= deg I < d.

    The monic parts of G^0..G^(r-1) are the r monic residues of degree < d,
    so ctx.logs and ctx.power_degrees give each once, in order of k."""
    return ((k, s) for k, s in zip(ctx.logs, ctx.power_degrees) if s >= lo)


def _degree_identity(ctx: ResidueCtx, chi: DirichletChar, lo: int):
    """(degree polynomial at chi(G), sum over monic I, max(lo, 0) <= deg I
    < d, of (deg I - lo) chi(I)), for chi trivial on scalars.  The degree
    polynomial is read off the long division (ctx.digits), not the walk."""
    if not chi.restricts_to_scalars_trivially():
        raise HypothesisError("chi must be trivial on scalars")
    degrees = (h.degree() for h in ctx.digits)
    lhs = exponent_sum(ctx.N, ((chi.j * k, c) for k, c in enumerate(degrees) if c > 0))
    rhs = exponent_sum(ctx.N, ((chi.j * k, s - lo) for k, s in _monic_window(ctx, lo) if s - lo))
    return lhs, rhs


def window_degree_identity(ctx: ResidueCtx, chi: DirichletChar):
    """Degree polynomial at chi(G) against the windowed weighted sum.

    For chi trivial on scalars: value equals
    sum over monic I, d-e <= deg I < d, of (deg I - (d-e)) chi(I).
    Valid in both regimes of e = deg G.  Returns (lhs, rhs).
    """
    return _degree_identity(ctx, chi, ctx.d - ctx.e)


def full_degree_identity(ctx: ResidueCtx, chi: DirichletChar):
    """Degree polynomial at chi(G) against sum of chi(I) deg I, deg I < d.

    Needs deg G >= deg P and chi nontrivial (but trivial on scalars).
    Returns (lhs, rhs).
    """
    _require_big_base(ctx)
    if chi.is_trivial():
        raise HypothesisError("chi must be nontrivial")
    return _degree_identity(ctx, chi, 0)


def _twist_identity(ctx: ResidueCtx, chi: DirichletChar, lo: int):
    """(twisted polynomial at chi(G), sum of chi(I), monic I, max(lo, 0) <= deg I < d).

    The twisted polynomial is read off the long division (ctx.digits): the
    term of H_k != 0 is zeta_N^(j * E_k), E_k = (k - 1) + r * log_w(lc G /
    lc H_k), each lc H_k's log taken in F_q's log table."""
    log, n, r = _log(ctx.spec), ctx.spec.q - 1, ctx.r
    base, lg = _inverse_log(ctx.unit_gen), log[ctx.G.ints[-1]]
    twist = (k + r * ((lg - log[h.ints[-1]]) * base % n) for k, h in enumerate(ctx.digits) if h)
    lhs = exponent_sum(ctx.N, ((chi.j * x, 1) for x in twist))
    rhs = exponent_sum(ctx.N, ((chi.j * k, 1) for k, _ in _monic_window(ctx, lo)))
    return lhs, rhs


def window_twist_identity(ctx: ResidueCtx, chi: DirichletChar):
    """Twisted polynomial at chi(G) against the windowed plain sum.

    Equals sum of chi(I) over monic I with d-e <= deg I < d, for any chi.
    Valid in both regimes of e.  Returns (lhs, rhs).
    """
    return _twist_identity(ctx, chi, ctx.d - ctx.e)


def full_twist_identity(ctx: ResidueCtx, chi: DirichletChar):
    """Twisted polynomial at chi(G) against sum of chi(I), deg I < d.

    Valid for every chi once deg G >= deg P.  Returns (lhs, rhs).
    """
    _require_big_base(ctx)
    return _twist_identity(ctx, chi, 0)


def digit_degree_sum(q: int, d: int, e: int) -> int:
    """Closed form for sum of deg'(H_k), k = 1..r.

    q^(d-e) * s1(e) when e < d, and (e-d) * s0(d) + s1(d) when e >= d,
    with s0(j) = sum_{i<j} q^i and s1(j) = sum_{i<j} i q^i.
    """
    if d < 1 or e < 1:
        raise ValueError("degrees must be >= 1")
    s0 = lambda j: sum(q**i for i in range(j))
    s1 = lambda j: sum(i * q**i for i in range(j))
    if e < d:
        return q ** (d - e) * s1(e)
    return (e - d) * s0(d) + s1(d)


def _require_big_base(ctx: ResidueCtx) -> None:
    if ctx.e < ctx.d:
        raise HypothesisError("requires deg G >= deg P")


def _collapse(value: CycloInt, what: str) -> int:
    v = value.as_integer()
    if v is None:
        raise ExactnessError(f"{what} did not collapse to a rational integer")
    return v


@functools.lru_cache(maxsize=32)
def _roots(t: int) -> tuple[tuple[complex, ...], ...]:
    """For each unit u <= t/2 mod t, in order, the row of zeta_t^(u * e),
    0 <= e < t, as floats: each row a permutation of the first (u = 1),
    sharing its complex objects."""
    first = tuple(cmath.exp(2j * cmath.pi * k / t) for k in range(t))
    return (first, *(operator.itemgetter(*(u * e % t for e in range(t)))(first)
                     for u in range(2, t // 2 + 1) if math.gcd(u, t) == 1))


def _orbit_guard(t: int, vec, exact: int, what: str) -> None:
    """Float guard of one Galois orbit, t >= 2: the exact value against the
    product, over u in (Z/t)^x, of z_u = sum of vec[e] * zeta_t^(u * e), the
    value at chi_{u N/t} of the orbit's pairs folded mod t (_folded).

    The entries are integers, so z_(t-u) is the complex conjugate of z_u and
    the product is real, and only u <= t/2 is evaluated.  For t > 2 the
    product is that of |z_u|^2 over u < t/2, so the exact value must be
    positive and ln(exact) must match the sum of the 2 * ln|z_u|; math.log
    takes the int exactly, so the guard works past the float range.  For
    t = 2 it is the one real value z_1 = b(-1), compared in sign and in
    magnitude.  The nonzero entries are picked once per vector, and each
    z_u is read off row u of _roots(t) by one itemgetter and summed term by
    term in the order of e.  A violation is an internal error.
    """
    idx = [e for e, w in enumerate(vec) if w] or [0]
    # itemgetter of one index returns the item, of a one-item slice a tuple
    pick = operator.itemgetter(*idx if len(idx) > 1 else [slice(idx[0], idx[0] + 1)])
    terms = functools.partial(map, operator.mul, pick(vec))
    factors = list(map(sum, map(terms, map(pick, _roots(t)))))
    weight = 1 if t == 2 else 2  # for t > 2, z_u stands for z_u and z_(t-u)
    if 0 in factors:
        raise ExactnessError(f"{what}: advisory factor evaluated to zero")
    if exact == 0:
        raise ExactnessError(f"{what}: exact value is zero")
    log_ratio = sum(weight * math.log(abs(z)) for z in factors) - math.log(abs(exact))
    ratio = math.exp(log_ratio) if log_ratio < 700 else math.inf  # exp overflows past 709
    off = abs(ratio - 1) if (exact > 0) == (t > 2 or factors[0].real > 0) else ratio + 1
    if off > _ADVISORY_REL_TOL:
        raise ExactnessError(f"{what}: advisory complex product differs by {off:.3e} (relative)")


def _digit_norm(dp: DigitPolynomials, t: int) -> int:
    """Norm N_{Q(zeta_t)/Q} of the digit route's value at the characters of
    exact order t, guarded and then memoized per t, whatever l asks for it.

    Order t lies in X_L^+ exactly when t | r (m = gcd(l, r)): there the
    value is F(zeta_t), F the degree polynomial; elsewhere it is the twisted
    polynomial at chi_j, j = N/t, whose term of H_k is zeta_t^(E_k).
    """
    if t not in dp._norm_memo:
        if dp.ctx.r % t == 0:
            pairs = ((k, c) for k, c in enumerate(dp._degrees()) if c)
        else:
            pairs = ((x, 1) for x, _ in _monic_window(dp.ctx, dp.ctx.d - dp.ctx.e))
        vec = _folded(t, pairs)
        value = norm(t, vec)
        _orbit_guard(t, vec, value, f"digit route orbit of order {t}")
        dp._norm_memo[t] = value
    return dp._norm_memo[t]


def h_plus_from_digits(ctx: ResidueCtx, l: int) -> int:
    """Class number of the real subfield L+ from the degree polynomial F.

    h = (-1)^(m-1) * product of F over the nontrivial m-th roots of unity,
    m = gcd(l, r).  The roots of exact order t form one Galois orbit, so the
    product is that of the norms N_{Q(zeta_t)/Q}(F(zeta_t)) over t | m,
    t > 1.  Needs deg G >= deg P and m > 1.
    """
    desc = subfield(ctx, l)
    _require_big_base(ctx)
    m = desc.m
    if m == 1:
        raise HypothesisError("L+ is the rational base field (m = 1); nothing to compute")
    dp = digit_polynomials(ctx)
    sign = 1 if m % 2 else -1
    return sign * math.prod(_digit_norm(dp, t) for t in divisors(m)[1:])


def h_minus_from_digits(ctx: ResidueCtx, l: int) -> int:
    """Relative class number h_L / h_{L+} from twisted polynomials.

    Product over chi in X_L^- of the twisted polynomial at chi(G).  X_L^- is
    the set of characters of exact order t for t | l, t not dividing m, and
    each such set is one Galois orbit, so the product is that of the norms
    N_{Q(zeta_t)/Q} of the value at chi_{N/t}, written in Z[zeta_t].  Needs
    deg G >= deg P and n > 1.
    """
    desc = subfield(ctx, l)
    _require_big_base(ctx)
    if desc.n == 1:
        raise HypothesisError("L equals its real subfield (n = 1); nothing to compute")
    dp = digit_polynomials(ctx)
    return math.prod(_digit_norm(dp, t) for t in divisors(l) if desc.m % t)


class CharSumClassNumbers(NamedTuple):
    h_plus: int
    h_minus: int
    h: int


@functools.lru_cache(maxsize=None)
def _orbit_chain(t: int) -> tuple[tuple[int, tuple[tuple[int, bool], ...]], ...]:
    """_orbit_product's steps at order t: for each g that extends the
    subgroup chain, g and, per doubling, (g^n, whether y * sigma_g follows).

    Climbs a subgroup chain H of (Z/t)^x.  For each g not in H, with k least
    such that g^k is in H, P(k) = prod_{j<k} sigma_{g^j}(y) is taken by
    doubling from P(1) = y: P(2n) = P(n) * sigma_{g^n}(P(n)) and P(n+1) =
    y * sigma_g(P(n)), one step per bit of k after the first.
    """
    H, chain = {1}, []
    for g in range(2, t):
        if g in H or math.gcd(g, t) != 1:
            continue
        k, gk = 1, g
        while gk not in H:
            k, gk = k + 1, gk * g % t
        steps, n = [], 1
        for bit in bin(k)[3:]:
            steps.append((pow(g, n, t), bit == "1"))
            n = 2 * n + (bit == "1")
        chain.append((g, tuple(steps)))
        H = {h * pow(g, j, t) % t for h in H for j in range(k)}
    return tuple(chain)


def _orbit_product(x: CycloInt) -> CycloInt:
    """prod over u in (Z/t)^x of sigma_u(x), t = x.n, along _orbit_chain(t):
    y = prod_{h in H} sigma_h(x) becomes P(k) for each g of the chain, each
    product one cycint._mul."""
    t = x.n
    y = x.coeffs
    for g, steps in _orbit_chain(t):
        p = y
        for u, plus_one in steps:
            p = _mul(t, p, p, u)
            if plus_one:
                p = _mul(t, y, p, g)
        y = p
    return CycloInt(t, y)


def _orbit_value(ctx: ResidueCtx, t: int) -> int:
    """Product of the character sums over the characters of exact order t.

    chi_j with j = u*N/t sends I to zeta_t^(u * dlog I), so the window
    folded by dlog mod t is the sum at u = 1 in Z[zeta_t], and the orbit's
    product is the product of its Galois conjugates.  Order t lies in X_L^+
    exactly when t | r (m = gcd(l, r)): there the sum is -sum chi(I) deg I,
    elsewhere sum chi(I).  Guarded and then memoized on the ctx, whatever l
    asks for it.
    """
    if t not in ctx._orbit_memo:
        if ctx.r % t:
            pairs = ((k, 1) for k, _ in _monic_window(ctx, 0))
        else:
            pairs = ((k, -s) for k, s in _monic_window(ctx, 0) if s)
        vec = _folded(t, pairs)
        what = f"character sum orbit of order {t}"
        value = _collapse(_orbit_product(CycloInt(t, _reduce(t, vec))), what)
        _orbit_guard(t, vec, value, what)
        ctx._orbit_memo[t] = value
    return ctx._orbit_memo[t]


def h_from_char_sums(ctx: ResidueCtx, l: int) -> CharSumClassNumbers:
    """Class number of the degree-l subfield by the character sum formulas.

    h+ is the product over nontrivial chi in X_L^+ of -sum chi(I) deg I,
    h- the product over chi in X_L^- of sum chi(I), both over monic I of
    degree < d.  The characters of exact order t form one Galois orbit, so
    each part is a product of orbit products in Z[zeta_t] (t | m, t > 1
    for h+; t | l, t not dividing m for h-), each of which must collapse to
    a rational integer.  No hypothesis on deg G; this is the digit route's
    oracle.
    """
    desc = subfield(ctx, l)
    h_plus = h_minus = 1
    for t in divisors(l)[1:]:
        if desc.m % t:
            h_minus *= _orbit_value(ctx, t)
        else:
            h_plus *= _orbit_value(ctx, t)
    return CharSumClassNumbers(h_plus, h_minus, h_plus * h_minus)


def quadratic_class_number(P: Poly, G: Poly) -> int:
    """Class number of the quadratic subfield from signed digit data.

    For q odd and deg G >= deg P: even d gives the alternating sum of digit
    degrees; odd d gives -eta_G times the alternating sum of the quadratic
    characters of the digit leading coefficients, eta_G that of lc(G).
    """
    if P.spec.q % 2 == 0:
        raise HypothesisError("q must be odd for the quadratic subfield")
    ctx = build_context(P, G)
    _require_big_base(ctx)
    if ctx.d % 2 == 0:
        sign, terms = 1, digit_polynomials(ctx)._degrees()
    else:  # every H_k != 0 as e >= d, and eta(lc G / lc H_(k+1)) = (-1)^(logs[k] // r)
        sign, terms = -1, (-1 if x // ctx.r % 2 else 1 for x in ctx.logs)
    return sign * sum(-x if k % 2 else x for k, x in enumerate(terms, start=1))


def canonical_primitive_lift(P: Poly) -> Poly:
    """G = g0 + P for the least primitive residue g0 mod P in enumeration
    order, by the search that also finds F_q's canonical generator.

    The result is monic of degree d = deg P, so deg G >= deg P holds and
    G is primitive mod P exactly because g0 is.
    """
    return least_primitive_residue(P) + P


# -- point counting oracle, for every subfield --

# A point count of genus g sieves sum_{f <= g} q^f monic polynomials and takes
# one Frobenius order per irreducible; above this it exits 4 (sweep skips it).
# CPU time of one count with a cold sieve, on a 2-core shared host, at the
# costliest (d, l) within the bound per q (two to four runs each, first
# irreducible P with P(0) != 0):
# q = 2, g = 12 (work 8190; d = 14, l = 3) 0.2-0.3 s; q = 3, g = 9 (29523;
# d = 19, l = 2) 1.0-1.6 s; q = 4, g = 7 (21844; d = 8, l = 3) 0.9-1.5 s;
# q = 5, g = 6 (19530; d = 8, l = 3) 0.8-1.1 s; q = 11, g = 4 (16104;
# d = 6, l = 3) 0.8-1.3 s; q = 25, g = 3 (16275; d = 4, l = 4) 0.9-1.4 s;
# q = 27, g = 3 (20439): d = 7, l = 2 (each order a power mod its own Q,
# Zech products over F_27) 1.3-2.5 s, and d = 4, l = 4 (each order a
# mod_pow of exponent N/4 mod P, through the Frobenius map of P) 1.4-1.9 s.
# The sieve takes the 8190 monic polynomials over F_2 of degree <= 12 in
# 0.09-0.17 s, where is_irreducible on each takes 1.1-1.6 s.
POINT_COUNT_BOUND = 30000


def _genus(q: int, d: int, l: int) -> tuple[int, int]:
    """(m, g) of the degree-l subfield for deg P = d over F_q (_point_count)."""
    m = math.gcd(l, (q**d - 1) // (q - 1))
    return m, ((l - 1) * d - l - m + 2) // 2


def _point_count_refusal(q: int, d: int, l: int) -> str | None:
    """Why the point count of the degree-l subfield for deg P = d over F_q
    is over its work bound, or None when it is within."""
    g = _genus(q, d, l)[1]
    if sum(q**f for f in range(1, min(g, 64) + 1)) > POINT_COUNT_BOUND:  # q^64 alone is over
        return (f"the point count for l = {l} has genus {g}: it sieves sum_(f <= g) q^f "
                f"polynomials, over the bound {POINT_COUNT_BOUND}")
    return None


def point_count_class_number(P: Poly, l: int = 2) -> int:
    """Class number of the degree-l subfield of the P-th cyclotomic function
    field by counting its places (_point_count).  Needs P monic irreducible,
    l | q^deg P - 1 and sum_(f <= g) q^f within POINT_COUNT_BOUND."""
    if not (P.is_monic() and len(P.ints) > 1 and is_irreducible(P)):
        raise HypothesisError("P must be monic irreducible")
    q, d = P.spec.q, len(P.ints) - 1
    _require_subfield_degree(l, q**d - 1)
    why = _point_count_refusal(q, d, l)
    if why:
        raise ResourceLimitError(why)
    return _point_count(P, l)


def _point_count(P: Poly, l: int) -> int:
    """point_count_class_number for a P proven irreducible and an l | N
    within the bound.

    The degree-l subfield L has m = gcd(l, r) places of degree 1 at infinity,
    each ramified of index l / m, and one of degree d at P, totally and tamely
    ramified, so its genus is g = ((l-1)d - l - m + 2)/2 (Riemann-Hurwitz).
    Each monic irreducible Q != P of degree f gives l / o places of degree
    o * f, o the order in Gal(L/K) of the Frobenius of Q, which is Q mod P
    (Carlitz reciprocity): the order of Q^(N/l) mod P.  For l | q - 1 it is
    taken in A/(Q): Q^r mod P is the resultant res(P, Q) = (-1)^(df) (P mod
    Q)^((q^f-1)/(q-1)), so Q^(N/l) = ((-1)^d P)^((q^f-1)/l) mod Q, a scalar.
    The places of degree j <= g give N_k = sum_{j | k} j * (number of degree
    j) and s_k = q^k + 1 - N_k; Newton's identities give the coefficients c_k
    of L(u) for k <= g, c_{2g-k} = q^(g-k) c_k the rest, and h = L(1)."""
    spec, q, d = P.spec, P.spec.q, len(P.ints) - 1
    m, g = _genus(q, d, l)
    one, signed = Poly.one(spec), -P if d % 2 else P
    places = Counter({1: m}) + Counter({d: 1})  # places[j]: those of L of degree j
    for f in range(1, g + 1):
        orders = [k for k in divisors(l) if k * f <= g]  # the o that give degrees <= g
        for Q in _irreducibles(spec, f):
            if Q != P:
                # the power mod Q for l | q - 1, timed against the one mod P
                # through P's Frobenius map (warm sieve, first irreducible P,
                # 2-core host): (q, d, l) = (27, 7, 2) 1.5-2.6 against 5.1-7.0 s,
                # (3, 19, 2) 0.87-1.08 against 3.9-4.4 s; mod P won only at
                # (4, 8, 3), 0.81-1.07 against 1.13-1.41 s, and (7, 5, 3), which
                # no workload reaches.
                base, e, mod = ((signed, (q**f - 1) // l, Q) if (q - 1) % l == 0
                                else (Q, (q**d - 1) // l, P))
                x = mod_pow(base, e, mod)  # x^l = 1: o is the least k | l with x^k = 1
                o = next((k for k in orders
                          if k == l or (mod_pow(x, k, mod) if k > 1 else x) == one), 0)
                if o:
                    places[o * f] += l // o
    power_sums = [q**k + 1 - sum(j * places[j] for j in divisors(k)) for k in range(1, g + 1)]
    coeffs = [1]
    for k in range(1, g + 1):
        total = -sum(s * c for s, c in zip(power_sums, reversed(coeffs)))
        if total % k:
            raise ExactnessError("Newton identity produced a non-integer coefficient")
        coeffs.append(total // k)
    h = sum(coeffs) + sum(q ** (g - k) * c for k, c in enumerate(coeffs[:g]))
    if h < 1:
        raise ExactnessError("point count produced a non-positive class number")
    return h


# -- reports --

CSV_COLUMNS = ("q", "d", "P", "G", "l", "m", "n", "h_plus", "h_minus", "h", "methods", "agree")


@dataclass(frozen=True)
class ClassNumberReport:
    q: int
    d: int
    P: str
    G: str
    e: int
    r: int
    l: int
    m: int
    n: int
    h_plus: int
    h_minus: int
    h: int
    methods: tuple[str, ...]
    agree: bool

    def to_json_dict(self) -> dict:
        """The fields in their order, methods as a list."""
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["methods"] = list(self.methods)
        return data

    @classmethod
    def from_json_dict(cls, data: dict) -> "ClassNumberReport":
        kwargs = {f.name: data[f.name] for f in fields(cls)}
        kwargs["methods"] = tuple(kwargs["methods"])
        return cls(**kwargs)

    def csv_row(self) -> list:
        return [
            self.q, self.d, self.P, self.G, self.l, self.m, self.n,
            self.h_plus, self.h_minus, self.h,
            "+".join(self.methods), str(self.agree).lower(),
        ]


def compute_report(
    ctx: ResidueCtx,
    l: int,
    verify_charsum: bool = False,
    verify_pointcount: bool = False,
) -> ClassNumberReport:
    """Digit-route class numbers for the degree-l subfield, with optional
    oracle comparisons.  The digit route needs deg G >= deg P; degenerate
    parts (m = 1 or n = 1) are the empty products, i.e. 1.
    """
    desc = subfield(ctx, l)
    _require_big_base(ctx)
    why = verify_pointcount and _point_count_refusal(ctx.spec.q, ctx.d, l)
    if why:
        raise ResourceLimitError(why)
    h_plus = 1 if desc.m == 1 else h_plus_from_digits(ctx, l)
    h_minus = 1 if desc.n == 1 else h_minus_from_digits(ctx, l)
    h = h_plus * h_minus
    methods = ["digits"]
    agree = True
    if verify_charsum:
        cs = h_from_char_sums(ctx, l)
        methods.append("charsum")
        agree = agree and cs.h_plus == h_plus and cs.h_minus == h_minus
    if verify_pointcount:
        methods.append("pointcount")
        agree = agree and _point_count(ctx.P, l) == h
    return ClassNumberReport(
        q=ctx.spec.q, d=ctx.d, P=ctx.names[0], G=ctx.names[1],
        e=ctx.e, r=ctx.r, l=l, m=desc.m, n=desc.n,
        h_plus=h_plus, h_minus=h_minus, h=h,
        methods=tuple(methods), agree=agree,
    )
