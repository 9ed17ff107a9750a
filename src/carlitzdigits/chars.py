"""Characters of the unit group (A/P)^x for irreducible P, indexed by a
primitive base.

With P monic irreducible of degree d the unit group is cyclic of order
N = q^d - 1.  A base G that generates it fixes an isomorphism k -> G^k, and
every character is chi_j: G^k -> zeta_N^(j*k).

Scalars sit inside the unit group as the subgroup of order q - 1 generated
by w = G^r, r = N/(q-1); restriction to scalars therefore lands on unit
characters indexed against w, not against the canonical generator of F_q^x.
The context is the r-step long division G * G^(k-1) = H_k * P + G^k of 1/P
in base G (digits.long_division); a residue's discrete log is that of its
monic part plus r times that of its leading coefficient against w.  Whether
w generates F_q^x is read once, from the field's exp/log table that those
logs use (gcd(log w, q - 1) = 1).

Subgroups of the character group come from subfields: for l | N the field
fixed by the index-l subgroup H_L has character group X_L = {chi : chi^l = 1}.
The subgroup generated by H_L and the scalars is generated by G^l and G^r,
hence has index gcd(l, r); that gcd is the character count m of the real
part X_L^+, and n = l/m divides q - 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

from .cycint import CycloInt, root_of_unity
from .digits import long_division
from .errors import ExactnessError, HypothesisError, PrimitivityError, ResourceLimitError
from .ffq import FieldElement, UnitCharacter, _exp_log, dlog
from .numutil import least_witness
from .polyring import Poly, _field, _make, is_irreducible, mod_pow

_N_BOUND = 2**63


@dataclass(eq=False)
class ResidueCtx:
    """G^0..G^(r-1) mod P (powers), the digits H_1..H_r of 1/P in base G,
    the discrete logs of the monic residues (dlog) and w = G^r (unit_gen)."""

    P: Poly
    G: Poly
    d: int
    e: int
    N: int
    r: int
    powers: tuple[Poly, ...]
    digits: tuple[Poly, ...]
    dlog: dict
    unit_gen: FieldElement
    _subfield_memo: dict = field(default_factory=dict, init=False, repr=False)

    @property
    def spec(self):
        return self.P.spec

    def char(self, j: int) -> "DirichletChar":
        return DirichletChar(self, j % self.N)

    def dlog_of(self, poly: Poly) -> int | None:
        """Discrete log of (poly mod P) base G, or None when P divides poly."""
        rem = poly % self.P
        if rem.is_zero():
            return None
        t = dlog(rem.leading_coeff(), self.unit_gen)
        return (self.dlog[rem.monic()] + self.r * t) % self.N


def primitivity_witness(G: Poly, P: Poly) -> int | None:
    """The least prime ell | q^deg P - 1 = N with G^(N/ell) = 1 mod P; None
    when G, a unit mod the irreducible P, is primitive."""
    N = P.spec.q ** (len(P.ints) - 1) - 1
    one = Poly.one(P.spec) % P
    return least_witness(N, lambda e: mod_pow(G, e, P) == one)


def build_context(P: Poly, G: Poly) -> ResidueCtx:
    """Validate (P, G) and run the r-step long division of 1/P in base G.

    P must be monic irreducible; G must be a unit mod P of full order N.
    The division proves that order: when w = G^r generates F_q^x and the
    monic parts of G^0..G^(r-1) are distinct, G has order r(q-1) = N.  Only
    when it does not is the least witness ell with G^(N/ell) = 1 computed,
    and named by the PrimitivityError.
    """
    if P.spec != G.spec:
        raise ValueError("P and G live over different fields")
    spec = P.spec
    d = len(P.ints) - 1
    if d < 1 or not P.is_monic():
        raise HypothesisError("P must be monic of positive degree")
    if not is_irreducible(P):
        raise HypothesisError("P must be irreducible")
    N = spec.q**d - 1
    if N >= _N_BOUND:
        raise ResourceLimitError(f"unit group order {N} exceeds the 64-bit bound")
    if (G % P).is_zero():
        raise HypothesisError("requires gcd(G, P) = 1")
    r = N // (spec.q - 1)
    powers, digits = [Poly.one(spec)], []
    for h, cur in islice(long_division(G, P, powers[0]), r):
        digits.append(h)
        powers.append(cur)
    cur = powers.pop()  # G^r
    unit_gen, n = cur.constant_coeff(), spec.q - 1
    lw = _exp_log(spec)[1][unit_gen.index()]  # w generates when prime to n
    generates = len(cur.ints) == 1 and math.gcd(lw, n) == 1
    logs = _monic_logs(powers, pow(lw, -1, n), r, N) if generates else {}
    if len(logs) != r:
        ell = primitivity_witness(G, P)
        if ell is None:
            raise ExactnessError("G fails the division's order check, yet no witness ell exists")
        raise PrimitivityError(
            f"G is not primitive mod P: its order divides N/{ell}", witness=ell
        )
    return ResidueCtx(
        P=P, G=G, d=d, e=len(G.ints) - 1, N=N, r=r, powers=tuple(powers),
        digits=tuple(digits), dlog=logs, unit_gen=unit_gen,
    )


def _monic_logs(powers, base: int, r: int, N: int) -> dict:
    """monic part of G^k -> its log k - r * base * log(lc(G^k)) mod N, base =
    1 / log w mod q - 1; a power with leading coefficient 1 is its own key."""
    spec = powers[0].spec
    F, log = _field(spec), _exp_log(spec)[1]
    logs = {}
    for k, g in enumerate(powers):
        lc = g.ints[-1]
        if lc == 1:
            logs[g] = k
        else:
            logs[_make(g.spec, F.scale(g.ints, F.inv(lc)))] = (k - r * log[lc] * base) % N
    return logs


def deg_map(ctx: ResidueCtx, k: int) -> int:
    """Degree of the canonical representative of G^k = w^(k//r) G^(k%r)."""
    if not 0 <= k < ctx.N:
        raise ValueError("exponent out of range")
    return len(ctx.powers[k % ctx.r].ints) - 1


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
    """Character data of the degree-l subfield L inside the P-th cyclotomic
    function field, plus its real subfield L+.

    chis / chis_plus / chis_minus are the chi_j index sets for X_L, X_L^+
    and their difference.  unit_chars lists the restrictions lambda of X_L
    to scalars (the group Y_L of order n), and alpha_exponents maps each
    lambda index s to the exponent a with alpha_lambda = zeta_N^a, where
    alpha_lambda = chi(G)^m for any chi in X_L restricting to lambda.
    """

    ctx: ResidueCtx
    l: int
    m: int
    n: int
    chis: tuple[int, ...]
    chis_plus: tuple[int, ...]
    chis_minus: tuple[int, ...]
    unit_chars: tuple[UnitCharacter, ...]
    alpha_exponents: dict = field(compare=False)

    def alpha(self, lam: UnitCharacter) -> CycloInt:
        return root_of_unity(self.ctx.N, self.alpha_exponents[lam.s])


def subfield(ctx: ResidueCtx, l: int) -> SubfieldDescriptor:
    """Descriptor for the subfield of degree l over the base field; l | N.
    Memoized on the ctx."""
    if l < 1 or ctx.N % l:
        raise HypothesisError(f"l = {l} does not divide N = {ctx.N}")
    if l in ctx._subfield_memo:
        return ctx._subfield_memo[l]
    q = ctx.spec.q
    m = math.gcd(l, ctx.r)
    n = l // m
    if (q - 1) % n:
        raise RuntimeError("n must divide q - 1")
    chis = tuple(t * (ctx.N // l) for t in range(l))
    plus_step = ctx.N // m
    plus_set = frozenset(t * plus_step for t in range(m))
    chis_plus = tuple(sorted(plus_set))
    chis_minus = tuple(sorted(set(chis) - plus_set))
    alpha_exponents: dict[int, int] = {}
    for j in chis:
        s = j % (q - 1)
        a = j * m % ctx.N
        if s in alpha_exponents:
            if alpha_exponents[s] != a:
                raise RuntimeError("alpha is not constant on restriction fibers")
        else:
            alpha_exponents[s] = a
    if len(alpha_exponents) != n:
        raise RuntimeError("restriction image has unexpected size")
    if len(set(alpha_exponents.values())) != n:
        raise RuntimeError("alpha must be injective on Y_L")
    unit_chars = tuple(
        UnitCharacter(ctx.spec, s, ctx.unit_gen) for s in sorted(alpha_exponents)
    )
    desc = ctx._subfield_memo[l] = SubfieldDescriptor(
        ctx=ctx, l=l, m=m, n=n, chis=chis, chis_plus=chis_plus,
        chis_minus=chis_minus, unit_chars=unit_chars, alpha_exponents=alpha_exponents,
    )
    return desc
