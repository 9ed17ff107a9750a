"""Divisor class numbers of subfields of cyclotomic function fields.

Let P be monic irreducible of degree d over F_q and G a primitive base mod P
(so the unit group mod P is generated by G, of order N = q^d - 1).  Two
generating polynomials built from the first r = N/(q-1) digits H_1..H_r of
1/P in base G carry the class number data:

  degree polynomial      sum_k deg'(H_k) u^(k-1)            (deg'(0) = 0)
  twisted polynomial     lam(lc(G)) sum_k lam~(lc(H_k)) u^(k-1)

for unit characters lam of F_q^x (lam~ the conjugate, lam~(0) = 0, lc the
leading coefficient; the digit route reads each lc(H_k) once, as E_k in
DigitPolynomials.twist).  When deg G >= deg P, products of their values at
roots of unity give the plus part and the relative part of the class number
of any subfield of the P-th cyclotomic function field.  Each product runs
over Galois orbits of characters, one per order t, so it is a product of
exact norms N_{Q(zeta_t)/Q} (cycint.norm); floats only guard, each guard
value at its character's own order t.  Each route memoizes its exact values
per order t and its guard values per character, the digit route on its
DigitPolynomials and the character sums on the ResidueCtx, so a table over
every l | N takes each once while every row still checks its product
against all its characters.

Independent routes kept alongside the digit route, sharing no product code
with it: the classical character sum formulas over monic polynomials of
degree < d (no hypothesis on deg G), taken as one Galois-orbit product in
Z[zeta_t] per character order t (products of conjugates under
CycloInt.galois), each of which must collapse to a rational integer, and
point counting on the hyperelliptic model for the quadratic subfield.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import asdict, dataclass, field, fields
from itertools import islice
from typing import NamedTuple

from .chars import DirichletChar, ResidueCtx, build_context, primitivity_witness, subfield
from .cycint import CycloInt, exponent_sum, norm, root_of_unity
from .errors import ExactnessError, HypothesisError
from .ffq import FieldSpec, UnitCharacter, _exp_log, _inverse_log, quadratic_character
from .numutil import divisors
from .polyring import (
    Poly,
    all_polys_below,
    format_poly,
    is_irreducible,
    monic_polys,
)

_ADVISORY_REL_TOL = 1e-6


@dataclass(eq=False)
class DigitPolynomials:
    """First r digits of 1/P in base G and their generating polynomials.

    twist holds E_k = (k - 1) + r * log_w(lc(G) / lc(H_k)) < N, w = G^r, for
    each H_k != 0: the twisted polynomial of chi_j's restriction to scalars,
    at chi_j(G), is sum_k zeta_N^(j * E_k).
    """

    ctx: ResidueCtx
    digits: tuple[Poly, ...]
    degree_poly: tuple[int, ...]
    twist: tuple[int, ...] = field(init=False, repr=False)
    # the digit route's memos, apart from the character-sum oracle's on ctx
    _norm_memo: dict = field(default_factory=dict, init=False, repr=False)
    _value_memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        ctx = self.ctx
        log = _exp_log(ctx.spec)[1]
        n, base, lg = ctx.spec.q - 1, _inverse_log(ctx.unit_gen), log[ctx.G.ints[-1]]
        self.twist = tuple(
            k + ctx.r * ((lg - log[h.ints[-1]]) * base % n)
            for k, h in enumerate(self.digits) if h.ints
        )

    def twisted_exponents(self, lam: UnitCharacter) -> tuple[int | None, ...]:
        """Coefficient exponents of the lam-twisted polynomial.

        Entry k-1 is the exponent of zeta_{q-1} in lam(lc(G)) * lam~(lc(H_k)),
        or None where H_k = 0 (the coefficient 0); it is E_k // r times the
        exponent of lam(w), and E_k mod r = k - 1.
        """
        r, n, c = self.ctx.r, lam.spec.q - 1, lam.exponent(self.ctx.unit_gen)
        out: list[int | None] = [None] * len(self.digits)
        for x in self.twist:
            out[x % r] = x // r * c % n
        return tuple(out)

    def twisted_poly(self, lam: UnitCharacter) -> tuple[CycloInt, ...]:
        """Coefficients of the lam-twisted polynomial in Z[zeta_{q-1}]."""
        n = lam.spec.q - 1
        return tuple(CycloInt.zero(n) if e is None else root_of_unity(n, e)
                     for e in self.twisted_exponents(lam))


def digit_polynomials(ctx: ResidueCtx) -> DigitPolynomials:
    """The ctx's digits H_1..H_r with their degree polynomial, memoized."""
    cached = getattr(ctx, "_digit_memo", None)
    if cached is None:
        degs = tuple(len(h.ints) - 1 if h.ints else 0 for h in ctx.digits)
        cached = ctx._digit_memo = DigitPolynomials(ctx=ctx, digits=ctx.digits, degree_poly=degs)
    return cached


def _monic_window(ctx: ResidueCtx, lo: int):
    """(dlog, deg) for monic I with max(lo, 0) <= deg I < d.

    Monic polynomials of degree < d are their own canonical residues, so
    the discrete log is a direct table lookup.
    """
    for s in range(max(lo, 0), ctx.d):
        for mp in monic_polys(ctx.spec, s):
            yield ctx.dlog[mp], s


def _degree_identity(ctx: ResidueCtx, chi: DirichletChar, lo: int):
    """(degree polynomial at chi(G), sum over monic I, max(lo, 0) <= deg I
    < d, of (deg I - lo) chi(I)), for chi trivial on scalars."""
    if not chi.restricts_to_scalars_trivially():
        raise HypothesisError("chi must be trivial on scalars")
    dp = digit_polynomials(ctx)
    lhs = exponent_sum(ctx.N, ((chi.j * k, c) for k, c in enumerate(dp.degree_poly) if c))
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


def _twisted_factor(ctx: ResidueCtx, dp: DigitPolynomials, chi: DirichletChar) -> CycloInt:
    """Twisted polynomial of lam = chi restricted to scalars, at chi(G)."""
    return exponent_sum(ctx.N, ((chi.j * x, 1) for x in dp.twist))


def _twist_identity(ctx: ResidueCtx, chi: DirichletChar, lo: int):
    """(twisted polynomial at chi(G), sum of chi(I), monic I, max(lo, 0) <= deg I < d)."""
    lhs = _twisted_factor(ctx, digit_polynomials(ctx), chi)
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
def _roots(n: int) -> tuple[complex, ...]:
    """exp(2 pi i k / n) for 0 <= k < n, as floats."""
    return tuple(cmath.exp(2j * cmath.pi * k / n) for k in range(n))


def _root_sum(n: int, weighted_exponents) -> complex:
    """Floating sum of w * exp(2 pi i e / n) over (e, w) pairs."""
    roots = _roots(n)
    return sum(w * roots[e % n] for e, w in weighted_exponents)


def _advisory_check(factors, exact: int, what: str) -> None:
    """Compare the floating product of factors against the exact integer.

    Factors are complex numbers or anything with a complex value (CycloInt).
    Accumulated in log space so large products cannot overflow.  This is
    an advisory cross-check: a violation is an internal error.
    """
    if not factors:
        return
    total = 0j
    for f in factors:
        z = complex(f)
        if z == 0:
            raise ExactnessError(f"{what}: advisory factor evaluated to zero")
        total += cmath.log(z)
    if exact == 0:
        raise ExactnessError(f"{what}: exact value is zero")
    # math.log takes the int exactly; complex(exact) overflows past ~1.8e308
    target = complex(math.log(abs(exact)), math.pi if exact < 0 else 0.0)
    diff = cmath.exp(total - target)
    if abs(diff - 1) > _ADVISORY_REL_TOL:
        raise ExactnessError(
            f"{what}: advisory complex product differs by {abs(diff - 1):.3e} (relative)"
        )


def _digit_value(dp: DigitPolynomials, j: int) -> complex:
    """Floating digit-route value at chi_j over the roots of its order t,
    memoized per j: F(zeta_N^j), F the degree polynomial, when t | r (chi_j
    in X_L^+), else the twisted polynomial of chi_j's own restriction."""
    if j not in dp._value_memo:
        ctx = dp.ctx
        g = math.gcd(j, ctx.N)
        t = ctx.N // g  # zeta_N^j = zeta_t^(j/g); every exponent is a multiple of g
        if ctx.r % t == 0:
            terms = ((j // g * k, c) for k, c in enumerate(dp.degree_poly) if c)
        else:
            terms = ((j // g * x, 1) for x in dp.twist)
        dp._value_memo[j] = _root_sum(t, terms)
    return dp._value_memo[j]


def _digit_norm(dp: DigitPolynomials, t: int) -> int:
    """Norm N_{Q(zeta_t)/Q} of the digit route's value at the characters of
    exact order t, memoized per t, whatever l asks for it.

    Order t lies in X_L^+ exactly when t | r (m = gcd(l, r)): there the
    value is F(zeta_t), F the degree polynomial; elsewhere it is the twisted
    polynomial at chi_j, j = N/t, folded into Z[zeta_t].
    """
    if t not in dp._norm_memo:
        if dp.ctx.r % t == 0:
            dp._norm_memo[t] = norm(t, dp.degree_poly)
        else:
            vec = [0] * t  # chi_{N/t} sends the term of H_k to zeta_t^(E_k)
            for x in dp.twist:
                vec[x % t] += 1
            dp._norm_memo[t] = norm(t, vec)
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
    value = 1
    for t in divisors(m)[1:]:
        value *= _digit_norm(dp, t)
    values = [_digit_value(dp, j) for j in desc.chis_plus if j]
    _advisory_check(values, value, "plus-part product")
    sign = 1 if m % 2 else -1
    return sign * value


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
    value = 1
    for t in divisors(l):
        if desc.m % t:
            value *= _digit_norm(dp, t)
    values = [_digit_value(dp, j) for j in desc.chis_minus]
    _advisory_check(values, value, "minus-part product")
    return value


class CharSumClassNumbers(NamedTuple):
    h_plus: int
    h_minus: int
    h: int


def _char_sum_window(ctx: ResidueCtx) -> tuple[tuple[int, int], ...]:
    """(dlog, deg) for every monic I of degree < d, computed once per ctx."""
    cached = getattr(ctx, "_window_memo", None)
    if cached is None:
        cached = ctx._window_memo = tuple(_monic_window(ctx, 0))
    return cached


def _orbit_product(x: CycloInt) -> CycloInt:
    """prod over u in (Z/t)^x of sigma_u(x), t = x.n.

    Climbs a subgroup chain H of (Z/t)^x, keeping y = prod_{h in H}
    sigma_h(x).  For each g not in H, with k least such that g^k is in H,
    y becomes prod_{j<k} sigma_{g^j}(y) = P(k), taken by doubling:
    P(2n) = P(n) * sigma_{g^n}(P(n)) and P(n+1) = y * sigma_g(P(n)).
    """
    t = x.n
    H = {1}
    y = x
    for g in range(2, t):
        if g in H or math.gcd(g, t) != 1:
            continue
        k, gk = 1, g
        while gk not in H:
            k, gk = k + 1, gk * g % t
        p, n = y, 1
        for bit in bin(k)[3:]:
            p, n = p * p.galois(pow(g, n, t)), 2 * n
            if bit == "1":
                p, n = y * p.galois(g), n + 1
        y = p
        H = {h * pow(g, j, t) % t for h in H for j in range(k)}
    return y


def _orbit_value(ctx: ResidueCtx, t: int) -> int:
    """Product of the character sums over the characters of exact order t.

    chi_j with j = u*N/t sends I to zeta_t^(u * dlog I), so the window
    folded by dlog mod t is the sum at u = 1 in Z[zeta_t], and the orbit's
    product is the product of its Galois conjugates.  Order t lies in X_L^+
    exactly when t | r (m = gcd(l, r)): there the sum is -sum chi(I) deg I,
    elsewhere sum chi(I).  Memoized on the ctx, whatever l asks for it.
    """
    memo = getattr(ctx, "_orbit_memo", None)
    if memo is None:
        memo = ctx._orbit_memo = {}
    if t not in memo:
        window = _char_sum_window(ctx)
        if ctx.r % t:
            x = exponent_sum(t, ((k, 1) for k, _ in window))
        else:
            x = exponent_sum(t, ((k, -s) for k, s in window if s))
        memo[t] = _collapse(_orbit_product(x), f"character sum orbit of order {t}")
    return memo[t]


def _char_sum_value(ctx: ResidueCtx, j: int) -> complex:
    """Floating character sum at chi_j over the roots of its order t,
    memoized on the ctx: -sum chi(I) deg I when chi_j lies in X_L^+ (t | r),
    sum chi(I) otherwise."""
    memo = getattr(ctx, "_char_sum_memo", None)
    if memo is None:
        memo = ctx._char_sum_memo = {}
    if j not in memo:
        window = _char_sum_window(ctx)
        g = math.gcd(j, ctx.N)
        t, u = ctx.N // g, j // g  # chi_j(I) = zeta_t^(u * dlog I)
        if ctx.r % t:
            memo[j] = _root_sum(t, ((u * k, 1) for k, _ in window))
        else:
            memo[j] = _root_sum(t, ((u * k, -s) for k, s in window if s))
    return memo[j]


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
    plus_factors = [_char_sum_value(ctx, j) for j in desc.chis_plus if j]
    minus_factors = [_char_sum_value(ctx, j) for j in desc.chis_minus]
    _advisory_check(plus_factors, h_plus, "character sum plus part")
    _advisory_check(minus_factors, h_minus, "character sum minus part")
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
    dp = digit_polynomials(ctx)
    if ctx.d % 2 == 0:
        total = 0
        for k, deg in enumerate(dp.degree_poly, start=1):
            total += deg if k % 2 == 0 else -deg
        return total
    eta = quadratic_character(G.leading_coeff())
    total = 0
    for k, h in enumerate(dp.digits, start=1):
        eps = quadratic_character(h.leading_coeff())
        total += eps if k % 2 == 0 else -eps
    return -eta * total


def canonical_primitive_lift(P: Poly) -> Poly:
    """G = g0 + P for the least primitive residue g0 in enumeration order.

    The result is monic of degree d = deg P, so deg G >= deg P holds and
    G is primitive mod P exactly because g0 is.  Zero is skipped, and when
    d >= 2 so are the q constants, which come first (orders divide q - 1).
    """
    d = len(P.ints) - 1
    for cand in islice(all_polys_below(P.spec, d), P.spec.q if d >= 2 else 1, None):
        if primitivity_witness(cand, P) is None:
            return cand + P
    raise ExactnessError("no primitive residue found; unit groups are cyclic")


# -- point counting oracle for the quadratic subfield --

def point_count_class_number(P: Poly) -> int:
    """Class number of F_q(T, y), y^2 = (-1)^d P(T), by point counting.

    Counts points of the smooth hyperelliptic model over F_{q^i} for
    i = 1..genus, rebuilds the zeta numerator through Newton's identities
    and the functional equation, and evaluates it at 1.  Needs q odd and
    2 <= d <= 5 (genus at most 2).
    """
    return _point_count(P, proven_irreducible=False)


def _point_count(P: Poly, proven_irreducible: bool) -> int:
    """point_count_class_number; proven_irreducible skips the test of P,
    which build_context made for the P of a ResidueCtx."""
    spec = P.spec
    q = spec.q
    if q % 2 == 0:
        raise HypothesisError("point counting needs q odd")
    d = len(P.ints) - 1
    if not 2 <= d <= 5:
        raise HypothesisError("point counting supports 2 <= deg P <= 5")
    if not proven_irreducible and not (P.is_monic() and is_irreducible(P)):
        raise HypothesisError("P must be monic irreducible")
    genus = (d - 1) // 2
    if genus == 0:
        return 1
    negate = d % 2 == 1
    infinity = 1 if d % 2 else 2
    power_sums = []
    for i in range(1, genus + 1):
        ext, embed = _extension_with_embedding(spec, i)
        model = Poly(ext, [embed(c) for c in P.coeffs])
        if negate:
            model = -model
        total = sum(quadratic_character(model.evaluate(t)) for t in ext.elements())
        n_points = q**i + total + infinity
        power_sums.append(q**i + 1 - n_points)
    s1 = power_sums[0]
    if genus == 1:
        h = 1 - s1 + q
    else:
        s2 = power_sums[1]
        e1 = s1
        if (s1 * s1 - s2) % 2:
            raise ExactnessError("Newton identity produced a non-integer coefficient")
        e2 = (s1 * s1 - s2) // 2
        b1, b2 = -e1, e2
        h = 1 + b1 + b2 + q * b1 + q * q
    if h < 1:
        raise ExactnessError("point count produced a non-positive class number")
    return h


@functools.lru_cache(maxsize=None)
def _default_modulus(p: int, k: int) -> tuple[int, ...]:
    """First monic irreducible of degree k over F_p, in enumeration order."""
    base = FieldSpec(p)
    for cand in monic_polys(base, k):
        if is_irreducible(cand):
            return cand.ints
    raise AssertionError("irreducibles of every degree exist")


def _extension_with_embedding(spec: FieldSpec, i: int):
    """The field F_{q^i} together with an embedding F_q -> F_{q^i}."""
    if i == 1:
        return spec, lambda c: c
    k = spec.a * i
    try:
        ext = FieldSpec(spec.p, k)
    except ValueError:
        ext = FieldSpec(spec.p, k, _default_modulus(spec.p, k))
    if spec.a == 1:
        return ext, lambda c, _ext=ext: _ext.element(c.coeffs[0])
    # embed by sending the generator to a root of the base modulus
    modulus = Poly(ext, spec.modulus)
    root = next((x for x in ext.elements() if modulus.evaluate(x).is_zero()), None)
    if root is None:
        raise ExactnessError("base modulus has no root in the extension")
    return ext, lambda c, _ext=ext, _root=root: Poly(_ext, c.coeffs).evaluate(_root)


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
        return {**asdict(self), "methods": list(self.methods)}

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
        if l != 2:
            raise HypothesisError("the point count oracle applies to the quadratic subfield (l = 2)")
        pc = _point_count(ctx.P, proven_irreducible=True)
        methods.append("pointcount")
        agree = agree and pc == h
    return ClassNumberReport(
        q=ctx.spec.q, d=ctx.d, P=format_poly(ctx.P), G=format_poly(ctx.G),
        e=ctx.e, r=ctx.r, l=l, m=desc.m, n=desc.n,
        h_plus=h_plus, h_minus=h_minus, h=h,
        methods=tuple(methods), agree=agree,
    )
