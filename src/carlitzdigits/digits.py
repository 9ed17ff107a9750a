"""Digit expansions of rational functions in a polynomial base.

Fix a nonconstant base G in A = F_q[T].  Every f = F1/F2 has a unique
expansion f = H_0 + sum_{k>=1} H_k / G^k with H_0 in A and every later
digit in S_G = {H : deg H < deg G} (zero allowed): H_0 is the polynomial
part, and each step multiplies the fractional remainder by G and splits off
its polynomial part again.  All arithmetic is exact on reduced numerator /
denominator pairs; nothing here is floating point.

For f = 1/M with gcd(G, M) = 1 each step G * G_{k-1} = H_k * M + G_k, G_k
the canonical representative of G^k mod M, is one division (long_division).
With deg G_{k-1} < deg M that division is F_p-linear in the coordinates of
G_{k-1}: the step is one sum of packed rows, each row the remainder and
quotient of G * x^j * T^i by M, in slots proven wide enough for
deg M * a * (p - 1)^2, q = p^a, or summed column by column on ints when p
is too large for any slot (polyring._Modulus.walk).  A constant reduced
denominator leaves every digit zero.
The closed form H_k = (G * G_{k-1} - G_k) / M, G_{k-1} by modular powering,
is the independent path; the digit stream is purely periodic with period
equal to the multiplicative order of G modulo M.  That order divides the
exponent n = p^s * lcm(q^i - 1) of (A/M)^x, the lcm over the degrees i of
the irreducible factors of M and p^s at least their largest multiplicity,
read off by the distinct-degree split of polyring._factor_degrees (which
also answers is_irreducible); G^n = 1 mod M is verified, and
numutil.element_order then divides the primes of n out of it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import islice, repeat

from .errors import ExactnessError, HypothesisError
from .ffq import FieldElement, FieldSpec, _indices
from .numutil import element_order
from .polyring import (Poly, _factor_degrees, _make, _Modulus, format_poly, mod_pow,
                       parse_poly, poly_gcd)


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


def long_division(base: Poly, m: Poly, cur: Poly) -> Iterator[Poly]:
    """The digits H_k, k = 1, 2, ..., of the division base * G_{k-1} =
    H_k * m + G_k from G_0 = cur, one step each, without end; deg cur <
    deg m and deg m >= 1.

    The steps are polyring._Modulus.walk with deg base quotient columns:
    one row per coordinate of G_{k-1}, packing the remainder and quotient
    of base * x^j * T^i by m, is built per call, and a step sums
    coordinate * row and reduces each slot mod p.  Only each output's
    quotient half is decoded and made a Poly."""
    base._check(m)
    cur._check(m)
    spec = m.spec
    p, a, n = spec.p, spec.a, (len(m.ints) - 1) * spec.a
    walk = _Modulus(m).walk(base.ints, cur.ints, len(base.ints) - 1)
    return (_make(spec, _indices(out[n:], p, a)) for out in walk)


def digit_expand(f1: Poly, f2: Poly, base: Poly, n: int) -> DigitExpansion:
    """First n digits (plus H_0) of F1/F2 in base G, by exact division
    (digit_stream); n is checked before the period is computed."""
    if n < 1:
        raise ValueError("need at least one digit")
    h0, period, digits = digit_stream(f1, f2, base)
    return DigitExpansion(base, f1, f2, h0, tuple(islice(digits, n)), period)


def digit_stream(f1: Poly, f2: Poly, base: Poly) -> tuple[Poly, int | None, Iterator[Poly]]:
    """(H_0, period, H_1, H_2, ...) of F1/F2 in base G: the period (None
    when the expansion terminates or gcd(G, den) != 1) is computed first,
    the digits one long-division step each, as they are read, without end.

    The fractional part is carried as a reduced numerator over a fixed
    denominator; each digit is the polynomial quotient of G * remainder.
    """
    if f2.is_zero():
        raise ZeroDivisionError("zero denominator")
    if len(base.ints) - 1 < 1:
        raise HypothesisError("base must be nonconstant")
    g0 = poly_gcd(f1, f2)
    num, den = f1, f2
    if not g0.is_zero() and g0.degree() != 0:
        num, den = f1 // g0, f2 // g0
    h0, rem = divmod(num, den)
    if rem.is_zero():  # F1/F2 is a polynomial, as for every constant den
        return h0, None, repeat(Poly.zero(f1.spec))
    period = _order_mod(base, den) if poly_gcd(base, den).degree() == 0 else None
    return h0, period, long_division(base, den, rem)


def _order_mod(g: Poly, m: Poly) -> int:
    """Multiplicative order of g modulo m; needs gcd(g, m) = 1.

    g^n = 1 for the exponent n of (A/m)^x is verified (ExactnessError
    otherwise), and element_order divides the primes of n out of the order.
    Every power is mod the one m, so mod_pow reads its exponents in base q
    through the Frobenius map of m, built at the first or second of them (n
    has about deg m base-q digits): one application per digit and a few
    products per bit of a digit, where square-and-multiply squares log2(q)
    times per digit.
    """
    one = Poly.one(g.spec) % m
    n = _unit_exponent(m)
    if mod_pow(g, n, m) != one:
        raise ExactnessError("G^n != 1 mod M for the exponent n of (A/M)^x; is gcd(G, M) = 1?")
    return element_order(n, lambda e: mod_pow(g, e, m) == one)


def _unit_exponent(m: Poly) -> int:
    """The exponent p^s * lcm(q^i - 1) of (A/m)^x, deg m >= 1: a factor
    P^e of m, deg P = i, has (A/P^e)^x of exponent (q^i - 1) * p^s for the
    least p^s >= e, i and e read off polyring._factor_degrees."""
    spec = m.spec
    exponent, mult = 1, 1
    for i, e in _factor_degrees(m):
        exponent, mult = math.lcm(exponent, spec.q**i - 1), max(mult, e)
    ps = 1
    while ps < mult:
        ps *= spec.p
    return ps * exponent


def digit_period(m: Poly, base: Poly) -> int:
    """Period of the digit stream of 1/M in base G.

    Equals the multiplicative order g of G mod M: G^g = 1 mod M makes the
    division's remainders, hence its digits, repeat after g steps.
    """
    _require_coprime_pair(m, base)
    return _order_mod(base, m)


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
    for hk in islice(long_division(base, m, Poly.one(m.spec) % m), g):
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
