"""The Carlitz module action of A = F_q[T] on itself.

T acts by x -> T*x + x^q and constants act by multiplication; extending
multiplicatively gives, for each I in A, an F_q-linear (additive) polynomial
rho_I(x) = sum_i c_i x^(q^i) with c_i in A, of degree q^deg(I) in x.  The
coefficients are computed by a Horner recursion over the coefficients of I:
rho_{a_0 + T*J} = a_0 * x + rho_T(rho_J(x)).  Everything runs on index
lists with no polynomial product: as a^q = a on F_q, f^(q^i) spreads the
coefficients of f to the exponents k*q^i (see _add_twisted).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .ffq import FieldSpec
from .polyring import Poly, _field, _make, format_poly


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
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=Poly.zero(self.spec))
        return AdditivePoly(self.spec, tuple(c + d for c, d in pairs))

    def compose(self, other: "AdditivePoly") -> "AdditivePoly":
        """self(other(x)) = sum_{i,j} c_i d_j^(q^i) x^(q^(i+j))."""
        if other.spec != self.spec:
            raise ValueError("operands live over different fields")
        F, q = _field(self.spec), self.spec.q
        out = [[] for _ in range(len(self.coeffs) + len(other.coeffs) - 1)]
        for i, c in enumerate(self.coeffs):
            for j, d in enumerate(other.coeffs):
                _add_twisted(F, out[i + j], c.ints, d.ints, q**i)
        return AdditivePoly(self.spec, tuple(_make(self.spec, c) for c in out))

    def apply(self, x: Poly) -> Poly:
        """Evaluate at a polynomial argument: sum_i c_i x^(q^i), added into
        one accumulator by deg x + 1 shifted copies of each c_i."""
        if x.spec != self.spec:
            raise ValueError("operands live over different fields")
        F, q, acc = _field(self.spec), self.spec.q, []
        for i, c in enumerate(self.coeffs):
            _add_twisted(F, acc, c.ints, x.ints, q**i)
        return _make(self.spec, acc)

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


def _add_twisted(F, acc: list[int], c, d, step: int) -> None:
    """acc += c * d^step in place, step a power of q, extending acc as
    needed: d^step = sum_k d_k T^(k*step) on F_q, one shifted axpy per d_k."""
    n = len(c)
    acc.extend([0] * ((len(d) - 1) * step + n - len(acc)))
    for k, dk in enumerate(d):
        if dk:
            s = k * step
            acc[s : s + n] = F.axpy(acc[s : s + n], dk, c)


def carlitz_poly(operand: Poly) -> AdditivePoly:
    """The additive polynomial rho_I for I in F_q[T].

    Horner over the coefficients a_j of I, highest first: starting from 0,
    rho <- rho_T o rho + a_j * x, using rho_T(y) = T*y + y^q, that is
    c'_i = T*c_i + c_{i-1}(T^q) with c'_0 = T*c_0 + a_j.  T*c_i prepends a 0
    (a_j for c'_0), c_{i-1}(T^q) is one strided axpy into every q-th slot,
    and each c_i becomes a Poly once, at the end.
    """
    spec = operand.spec
    F, q, rho = _field(spec), spec.q, []
    for a in reversed(operand.ints):
        twisted = [[0, *c] for c in rho] + [[0]]
        for c, t in zip(rho, twisted[1:]):
            end = (len(c) - 1) * q + 1
            t.extend([0] * (end - len(t)))
            t[:end:q] = F.axpy(t[:end:q], 1, c)
        twisted[0][0] = a
        rho = twisted
    return AdditivePoly(spec, tuple(_make(spec, c) for c in rho))
