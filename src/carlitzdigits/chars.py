"""Characters of the unit group (A/P)^x for irreducible P, indexed by a
primitive base.

With P monic irreducible of degree d the unit group is cyclic of order
N = q^d - 1.  A base G that generates it fixes an isomorphism k -> G^k, and
every character is chi_j: G^k -> zeta_N^(j*k).

Scalars sit inside the unit group as the subgroup of order q - 1 generated
by w = G^r, r = N/(q-1); restriction to scalars therefore lands on unit
characters indexed against w, not against the canonical generator of F_q^x.
The context is the r-step walk G^k = G * G^(k-1) mod P (polyring._Modulus.
walk), each step one packed F_p-linear map of the coordinates of G^(k-1),
with rows (the remainders of G * x^j * T^i by P, deg P columns) built once
per context, and keeps two array records per step, deg G^k and the log of
its monic part, read off each output by its trailing zero bytes and its
leading coefficient.  The digits H_k of 1/P in base G are the long division
G * G^(k-1) = H_k * P + G^k; of them the context keeps only the reference
digits, the division with quotients (classnum reads the digit records off
the two power records).  A residue's discrete log is that of its monic
part plus r times that of its leading coefficient against w.  G has order
N when w generates F_q^x and no G^k, 0 < k < r, is a constant: two powers
share a monic part exactly when their quotient is a scalar.

Subgroups of the character group come from subfields: for l | N the field
fixed by the index-l subgroup H_L has character group X_L = {chi : chi^l = 1}.
The subgroup generated by H_L and the scalars is generated by G^l and G^r,
hence has index gcd(l, r); that gcd is the character count m of the real
part X_L^+, and n = l/m divides q - 1.  A subfield is those three integers
(the class numbers read no more); its character sets are built when read.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass, field
from itertools import islice

from .cycint import CycloInt, root_of_unity
from .digits import long_division
from .errors import ExactnessError, HypothesisError, PrimitivityError, ResourceLimitError
from .ffq import FieldElement, UnitCharacter, _indices, _inverse_log, _log, dlog
from .numutil import least_witness
from .polyring import (Poly, _make, _Modulus, _packing, _slot, format_poly, is_irreducible,
                       primitivity_witness)

_N_BOUND = 2**63

# build_context reads the walk's outputs in blocks of this many steps: one
# comprehension per record and block, and at most a block of them held.  In
# CPU time on a 2-core host, a per-step loop takes 4-8% longer at r = 1023
# and 3280; at r = 265720 blocks of 256 to 16384 take the same 0.40-0.51 s,
# and one list of all r outputs holds 15 MB more.
_WALK_BLOCK = 4096


@dataclass(eq=False)
class ResidueCtx:
    """The r-step walk G^k = G * G^(k-1) mod P as two array records per
    step k < r: deg G^k and the log of its monic part; w = G^r (unit_gen).
    powers (G^0..G^(r-1) mod P) and dlog (monic part of G^k -> logs[k], in
    order of k) are Polys built on first read, by a second walk; digits
    (H_1..H_r) by digits.long_division, the same walk with quotient
    columns, which the digit records that classnum reads off the power
    records are tested against."""

    P: Poly
    G: Poly
    d: int
    e: int
    N: int
    r: int
    power_degrees: array
    logs: array
    unit_gen: FieldElement
    _subfield_memo: dict = field(default_factory=dict, init=False, repr=False)
    _digit_memo: object = field(default=None, init=False, repr=False)  # classnum.DigitPolynomials
    _orbit_memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def spec(self):
        return self.P.spec

    @functools.cached_property
    def powers(self) -> tuple[Poly, ...]:
        spec = self.spec
        walk = islice(_Modulus(self.P).walk(self.G.ints, (1,), 0), self.r - 1)
        return (Poly.one(spec), *(_make(spec, _indices(g, spec.p, spec.a)) for g in walk))

    @functools.cached_property
    def digits(self) -> tuple[Poly, ...]:
        return tuple(islice(long_division(self.G, self.P, Poly.one(self.spec)), self.r))

    @functools.cached_property
    def dlog(self) -> dict:
        return {g.monic(): k for g, k in zip(self.powers, self.logs)}

    @functools.cached_property
    def names(self) -> tuple[str, str]:
        return format_poly(self.P), format_poly(self.G)

    def char(self, j: int) -> "DirichletChar":
        return DirichletChar(self, j % self.N)

    def dlog_of(self, poly: Poly) -> int | None:
        """Discrete log of (poly mod P) base G, or None when P divides poly."""
        rem = poly % self.P
        if rem.is_zero():
            return None
        t = dlog(rem.leading_coeff(), self.unit_gen)
        return (self.dlog[rem.monic()] + self.r * t) % self.N


def _require_monic(P: Poly) -> None:
    if len(P.ints) < 2 or not P.is_monic():
        raise HypothesisError("P must be monic of positive degree")


def _require_subfield_degree(l: int, N: int) -> None:
    """Refuse an l that is the degree of no subfield: l must divide N."""
    if l < 1 or N % l:
        raise HypothesisError(f"l = {l} does not divide N = {N}")


def build_context(P: Poly, G: Poly) -> ResidueCtx:
    """Validate (P, G) and walk G^k = G * G^(k-1) mod P for k = 1..r.

    P must be monic irreducible; G must be a unit mod P of full order N.
    The walk proves that order: when w = G^r generates F_q^x and no G^k
    with 0 < k < r is a constant, G has order r(q-1) = N.  Only when it does
    not is the least witness ell with G^(N/ell) = 1 computed, and named by
    the PrimitivityError.
    """
    if P.spec != G.spec:
        raise ValueError("P and G live over different fields")
    spec = P.spec
    _require_monic(P)
    d = len(P.ints) - 1
    if not is_irreducible(P):
        raise HypothesisError("P must be irreducible")
    N = spec.q**d - 1
    if N >= _N_BOUND:
        raise ResourceLimitError(f"unit group order {N} exceeds the 64-bit bound")
    if (G % P).is_zero():
        raise HypothesisError("requires gcd(G, P) = 1")
    r, n, p, a = N // (spec.q - 1), spec.q - 1, spec.p, spec.a
    degrees, leads = array("B", [0]), array(_slot(n.bit_length())[1], [1])  # G^0 = 1
    size, walk = _packing(p)[1], islice(_Modulus(P).walk(G.ints, (1,), 0), r)  # p < 2^63: size is set
    for gs in iter(lambda: list(islice(walk, _WALK_BLOCK)), []):
        # the position of each G^k's last nonzero coordinate, which lies in lc G^k
        tops = [(len(bytes(g).rstrip(b"\0")) - 1) // size for g in gs]
        if a == 1:
            degrees.extend(tops)
            leads.extend([g[t] for g, t in zip(gs, tops)])
        else:
            tops = [t // a for t in tops]
            degrees.extend(tops)
            coords = [c for g, t in zip(gs, tops) for c in g[t * a : t * a + a]]
            leads.extend(_indices(coords, p, a))
    w_degree, w = degrees.pop(), spec.from_index(leads.pop())  # G^r
    # order N: G^r is the first constant power of G, and it generates F_q^x
    first = not w_degree and all(degrees[1:])
    if not (first and least_witness(n, lambda e: w**e == spec.one) is None):
        ell = primitivity_witness(G, P)
        if ell is None:
            raise ExactnessError("G fails the division's order check, yet no witness ell exists")
        raise PrimitivityError(
            f"G is not primitive mod P: its order divides N/{ell}", witness=ell
        )
    # the monic part of G^k has log k - r * log_w(lc G^k), and r * x mod N = r * (x mod n)
    log, base = _log(spec), _inverse_log(w)
    shift = {c: r * (log[c] * base % n) for c in set(leads)}
    return ResidueCtx(
        P=P, G=G, d=d, e=len(G.ints) - 1, N=N, r=r, power_degrees=degrees,
        logs=array("q", ((k - shift[c]) % N for k, c in enumerate(leads))), unit_gen=w,
    )


@dataclass(frozen=True)
class DirichletChar:
    """chi_j on (A/P)^x: chi_j(G^k) = zeta_N^(j*k), and 0 on multiples of P."""

    ctx: ResidueCtx
    j: int

    def __post_init__(self):
        object.__setattr__(self, "j", self.j % self.ctx.N)

    def is_trivial(self) -> bool:
        return self.j == 0

    @property
    def order(self) -> int:
        return self.ctx.N // math.gcd(self.j, self.ctx.N) if self.j else 1

    def exponent_at(self, poly: Poly) -> int | None:
        """Exponent of zeta_N for chi(poly), or None when the value is 0."""
        k = self.ctx.dlog_of(poly)
        if k is None:
            return None
        return self.j * k % self.ctx.N

    def value(self, poly: Poly) -> CycloInt:
        e = self.exponent_at(poly)
        if e is None:
            return CycloInt.zero(self.ctx.N)
        return root_of_unity(self.ctx.N, e)

    def value_at_base(self) -> CycloInt:
        """chi(G) = zeta_N^j."""
        return root_of_unity(self.ctx.N, self.j)

    def conjugate(self) -> "DirichletChar":
        return DirichletChar(self.ctx, -self.j)

    def restricts_to_scalars_trivially(self) -> bool:
        return self.j % (self.ctx.spec.q - 1) == 0


def restriction(chi: DirichletChar) -> UnitCharacter:
    """Restriction of chi_j to the scalar subgroup, indexed against w = G^r.

    chi_j(G^r) = zeta_N^(j*r) = zeta_{q-1}^j, so the restriction is the unit
    character of index j mod (q-1) relative to w.
    """
    spec = chi.ctx.spec
    return UnitCharacter(spec, chi.j % (spec.q - 1), chi.ctx.unit_gen)


@dataclass(frozen=True)
class SubfieldDescriptor:
    """The degree-l subfield L inside the P-th cyclotomic function field, as
    l, m = gcd(l, r) (the count of real characters, X_L^+) and n = l/m.

    The character data is built on first read: chis / chis_plus / chis_minus
    are the chi_j index sets for X_L (multiples of N/l), X_L^+ (multiples of
    N/m) and their difference.  unit_chars lists the restrictions lambda of
    X_L to scalars (the group Y_L of order n), and alpha_exponents maps each
    lambda index s to the exponent a with alpha_lambda = zeta_N^a, where
    alpha_lambda = chi(G)^m for any chi in X_L restricting to lambda:
    chi_j restricts to s = j mod (q-1) and gives a = j*m mod N.
    """

    ctx: ResidueCtx
    l: int
    m: int
    n: int

    @functools.cached_property
    def chis(self) -> tuple[int, ...]:
        return tuple(range(0, self.ctx.N, self.ctx.N // self.l))

    @functools.cached_property
    def chis_plus(self) -> tuple[int, ...]:
        return tuple(range(0, self.ctx.N, self.ctx.N // self.m))

    @functools.cached_property
    def chis_minus(self) -> tuple[int, ...]:
        return tuple(j for j in self.chis if j % (self.ctx.N // self.m))

    @functools.cached_property
    def alpha_exponents(self) -> dict:
        q1, N = self.ctx.spec.q - 1, self.ctx.N
        return {j % q1: j * self.m % N for j in self.chis}

    @functools.cached_property
    def unit_chars(self) -> tuple[UnitCharacter, ...]:
        return tuple(UnitCharacter(self.ctx.spec, s, self.ctx.unit_gen)
                     for s in sorted(self.alpha_exponents))

    def alpha(self, lam: UnitCharacter) -> CycloInt:
        return root_of_unity(self.ctx.N, self.alpha_exponents[lam.s])


def subfield(ctx: ResidueCtx, l: int) -> SubfieldDescriptor:
    """Descriptor for the subfield of degree l over the base field; l | N.
    Memoized on the ctx."""
    _require_subfield_degree(l, ctx.N)
    if l not in ctx._subfield_memo:
        m = math.gcd(l, ctx.r)
        ctx._subfield_memo[l] = SubfieldDescriptor(ctx, l, m, l // m)
    return ctx._subfield_memo[l]
