"""Digit expansions of rational functions in a polynomial base.

Fix a nonconstant base G in A = F_q[T].  Every f = F1/F2 has a unique
expansion f = H_0 + sum_{k>=1} H_k / G^k with H_0 in A and every later
digit in S_G = {H : deg H < deg G} (zero allowed): H_0 is the polynomial
part, and each step multiplies the fractional remainder by G and splits off
its polynomial part again.  All arithmetic is exact on reduced numerator /
denominator pairs; nothing here is floating point.

For f = 1/M with gcd(G, M) = 1 each step G * G_{k-1} = H_k * M + G_k, G_k
the canonical representative of G^k mod M, is one division (long_division).
The closed form H_k = (G * G_{k-1} - G_k) / M, G_{k-1} by modular powering,
is the independent path; the digit stream is purely periodic with period
equal to the multiplicative order of G modulo M.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import ExactnessError, HypothesisError, ResourceLimitError
from .ffq import FieldElement, FieldSpec
from .numutil import prime_factors
from .polyring import (Poly, _make, _Modulus, format_poly, is_irreducible, mod_pow, parse_poly,
                       poly_gcd)

# Order finding by stepping (reducible moduli) gives up after this many
# powers with ResourceLimitError: about 2.3 s of CPU for a degree-16
# modulus over F_9 on a 2-core shared host, and far above the periods of up
# to a few thousand that reducible moduli of moderate degree have.
ORDER_STEP_BOUND = 10**5


@dataclass(frozen=True)
class DigitExpansion:
    """Base-G expansion of numerator/denominator, digits H_1..H_N."""

    base: Poly
    numerator: Poly
    denominator: Poly
    h0: Poly
    digits: tuple[Poly, ...]
    period: int | None

    def to_json_dict(self) -> dict:
        return {
            "base": format_poly(self.base),
            "numerator": format_poly(self.numerator),
            "denominator": format_poly(self.denominator),
            "H0": format_poly(self.h0),
            "digits": [format_poly(h) for h in self.digits],
            "period": self.period,
        }

    @classmethod
    def from_json_dict(cls, spec: FieldSpec, data: dict) -> "DigitExpansion":
        return cls(
            base=parse_poly(spec, data["base"]),
            numerator=parse_poly(spec, data["numerator"]),
            denominator=parse_poly(spec, data["denominator"]),
            h0=parse_poly(spec, data["H0"]),
            digits=tuple(parse_poly(spec, h) for h in data["digits"]),
            period=data["period"],
        )


def long_division(base: Poly, m: Poly, cur: Poly):
    """Yield (H_k, G_k) for k = 1, 2, ... from G_0 = cur: one division
    base * G_{k-1} = H_k * m + G_k per step, without end.

    The steps run on index lists through the modulus set up once
    (polyring._Modulus); only the yielded values are made Polys."""
    base._check(m)
    cur._check(m)
    spec, mod = m.spec, _Modulus(m)
    product, b, c = mod.F.product, base.ints, cur.ints
    while True:
        hk, c = mod.divmod(product(b, c))
        yield _make(spec, hk), _make(spec, c)


def digit_expand(f1: Poly, f2: Poly, base: Poly, n: int) -> DigitExpansion:
    """First n digits (plus H_0) of F1/F2 in base G, by exact division.

    The fractional part is carried as a reduced numerator over a fixed
    denominator; each digit is the polynomial quotient of G * remainder.
    """
    if f2.is_zero():
        raise ZeroDivisionError("zero denominator")
    if len(base.ints) - 1 < 1:
        raise HypothesisError("base must be nonconstant")
    if n < 1:
        raise ValueError("need at least one digit")
    g0 = poly_gcd(f1, f2)
    num, den = f1, f2
    if not g0.is_zero() and g0.degree() != 0:
        num, den = f1 // g0, f2 // g0
    h0, rem = divmod(num, den)
    digits = tuple(hk for hk, _ in islice(long_division(base, den, rem), n))
    period = None
    if len(den.ints) - 1 >= 1 and not rem.is_zero():
        if poly_gcd(base, den).degree() == 0:
            period = _order_mod(base, den)
    return DigitExpansion(base, f1, f2, h0, digits, period)


def _order_mod(g: Poly, m: Poly) -> int:
    """Multiplicative order of g modulo m; needs gcd(g, m) = 1.

    When m is irreducible the order divides q^deg(m) - 1 and is found by
    dividing out prime factors; otherwise the powers are stepped directly,
    at most ORDER_STEP_BOUND of them (ResourceLimitError beyond).
    """
    spec = g.spec
    d = len(m.ints) - 1
    one = Poly.one(spec) % m
    if is_irreducible(m):
        n = spec.q**d - 1
        t = n
        for ell in prime_factors(n) if n > 1 else ():
            while t % ell == 0 and mod_pow(g, t // ell, m) == one:
                t //= ell
        if mod_pow(g, t, m) != one:
            raise ExactnessError("order finding failed; is gcd(G, M) = 1?")
        return t
    bound = spec.q**d
    for count, (_, cur) in enumerate(long_division(g, m, one), start=1):
        if count > bound:
            raise ExactnessError("order finding did not terminate; is gcd(G, M) = 1?")
        if count > ORDER_STEP_BOUND:
            raise ResourceLimitError(
                f"the order of G mod a reducible M exceeds the step bound {ORDER_STEP_BOUND}"
            )
        if cur == one:
            return count


def digit_period(m: Poly, base: Poly) -> int:
    """Period of the digit stream of 1/M in base G.

    Equals the multiplicative order of G mod M.  A window of digits is
    recomputed through the closed form to confirm H_{k+g} = H_k.
    """
    _require_coprime_pair(m, base)
    g = _order_mod(base, m)
    for k in range(1, min(g, 8) + 1):
        if digit_closed_form(m, base, k) != digit_closed_form(m, base, k + g):
            raise ExactnessError("claimed period fails on the verification window")
    return g


def digit_closed_form(m: Poly, base: Poly, k: int) -> Poly:
    """H_k of 1/M in base G via H_k = (G * G_{k-1} - G_k) / M, G_{k-1} by
    modular powering: the floor quotient, as G_k is the remainder."""
    _require_coprime_pair(m, base)
    if k < 1:
        raise ValueError("digit index starts at 1")
    quo = (base * mod_pow(base, k - 1, m)) // m
    if len(quo.ints) - 1 >= len(base.ints) - 1:
        raise ExactnessError("closed form digit escapes the digit set")
    if len(base.ints) >= len(m.ints) and quo.is_zero():
        raise ExactnessError("digit vanished although deg G >= deg M")
    return quo


def twisted_digit_sum(m: Poly, base: Poly, alpha: FieldElement) -> Poly:
    """sum_{k=1}^{g} alpha^k H_k over one full period g of 1/M in base G.

    Returned raw: the sum vanishes when the order of alpha divides g and
    gcd(M, G*(alpha*G - 1)) = 1, and is an observable nonzero value when
    those hypotheses fail.
    """
    if alpha.is_zero():
        raise ValueError("alpha must be a unit")
    _require_coprime_pair(m, base)
    g = _order_mod(base, m)
    total = Poly.zero(m.spec)
    ak = m.spec.one
    for hk, _ in islice(long_division(base, m, Poly.one(m.spec) % m), g):
        ak = ak * alpha
        total = total + hk.scale(ak)
    return total


def _require_coprime_pair(m: Poly, base: Poly) -> None:
    if len(m.ints) - 1 < 1:
        raise HypothesisError("M must be nonconstant")
    if len(base.ints) - 1 < 1:
        raise HypothesisError("base must be nonconstant")
    if poly_gcd(base, m).degree() != 0:
        raise HypothesisError("requires gcd(G, M) = 1")
