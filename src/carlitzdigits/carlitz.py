"""The Carlitz module action of A = F_q[T] on itself.

T acts by x -> T*x + x^q and constants act by multiplication; extending
multiplicatively gives, for each I in A, an F_q-linear (additive) polynomial
rho_I(x) = sum_i c_i x^(q^i) with c_i in A, of degree q^deg(I) in x.  The
coefficients are computed by a Horner recursion over the coefficients of I:
rho_{a_0 + T*J} = a_0 * x + rho_T(rho_J(x)).
"""

from __future__ import annotations

from dataclasses import dataclass

from .ffq import FieldSpec
from .polyring import Poly, _make, format_poly


@dataclass(frozen=True)
class AdditivePoly:
    """sum_i coeffs[i] * x^(q^i) with coefficients in F_q[T]."""

    spec: FieldSpec
    coeffs: tuple[Poly, ...]

    def __post_init__(self):
        coeffs = self.coeffs
        while coeffs and coeffs[-1].is_zero():
            coeffs = coeffs[:-1]
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def zero(cls, spec: FieldSpec) -> "AdditivePoly":
        return cls(spec, ())

    @classmethod
    def identity(cls, spec: FieldSpec) -> "AdditivePoly":
        return cls(spec, (Poly.one(spec),))

    def is_zero(self) -> bool:
        return not self.coeffs

    def x_degree(self) -> int:
        """Degree in x, i.e. q^(number of Frobenius twists)."""
        if not self.coeffs:
            raise ValueError("the zero map has no degree")
        return self.spec.q ** (len(self.coeffs) - 1)

    def __add__(self, other: "AdditivePoly") -> "AdditivePoly":
        if other.spec != self.spec:
            raise ValueError("operands live over different fields")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return AdditivePoly(self.spec, tuple(out))

    def compose(self, other: "AdditivePoly") -> "AdditivePoly":
        """self(other(x)); coefficients multiply with a Frobenius twist."""
        if other.spec != self.spec:
            raise ValueError("operands live over different fields")
        if not self.coeffs or not other.coeffs:
            return AdditivePoly.zero(self.spec)
        out = [Poly.zero(self.spec)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            for j, d in enumerate(other.coeffs):
                out[i + j] = out[i + j] + c * _q_power(d, i)
        return AdditivePoly(self.spec, tuple(out))

    def apply(self, x: Poly) -> Poly:
        """Evaluate at a polynomial argument."""
        acc = Poly.zero(self.spec)
        xp = x
        for i, c in enumerate(self.coeffs):
            if i:
                xp = _q_power(xp, 1)
            acc = acc + c * xp
        return acc

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        q = self.spec.q
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            xpow = "x" if i == 0 else f"x^{q**i}"
            if c == Poly.one(self.spec):
                terms.append(xpow)
            else:
                cs = format_poly(c)
                if "+" in cs:
                    cs = f"({cs})"
                terms.append(f"{cs}*{xpow}")
        return " + ".join(terms)


def _q_power(f: Poly, i: int) -> Poly:
    """f^(q^i).  Frobenius spreads coefficients: sum a_k T^(k*q^i)."""
    if i == 0 or f.is_zero():
        return f
    step = f.spec.q**i
    out = [0] * ((len(f.ints) - 1) * step + 1)
    out[::step] = f.ints
    return _make(f.spec, out)


def carlitz_poly(operand: Poly) -> AdditivePoly:
    """The additive polynomial rho_I for I in F_q[T].

    Horner over the coefficients of I, highest first: starting from 0,
    rho <- rho_T o rho + a_j * x, using rho_T(y) = T*y + y^q.
    """
    spec = operand.spec
    rho = AdditivePoly.zero(spec)
    for a in reversed(operand.ints):
        # rho_T o rho: c'_i = T*c_i + c_{i-1}^q, then a_j * x
        twisted = [Poly.zero(spec)] + [_q_power(c, 1) for c in rho.coeffs]
        for i, c in enumerate(rho.coeffs):
            twisted[i] = twisted[i] + _make(spec, (0,) + c.ints)
        twisted[0] = twisted[0] + _make(spec, (a,))
        rho = AdditivePoly(spec, tuple(twisted))
    return rho
