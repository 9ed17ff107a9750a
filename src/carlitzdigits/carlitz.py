"""The Carlitz module action of A = F_q[T] on itself.

T acts by x -> T*x + x^q and constants act by multiplication; extending
multiplicatively gives, for each I in A, an F_q-linear (additive) polynomial
rho_I(x) = sum_i c_i x^(q^i) with c_i in A, of degree q^deg(I) in x.  The
coefficients are computed by a Horner recursion over the coefficients of I:
rho_{a_0 + T*J} = a_0 * x + rho_T(rho_J(x)).  Nothing takes a polynomial
product: as a^q = a on F_q, f^(q^i) spreads the coefficients of f to the
exponents k*q^i, so c_i * f^(q^i) is one shifted copy of c_i per nonzero
coefficient of f.  Over F_p, when no sum can pass a byte, apply adds those
copies as ints into one byte-slot buffer and reduces it once
(_packed_apply); otherwise, and in compose, they are axpys on index lists
(_add_twisted).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest

from .ffq import FieldSpec
from .polyring import Poly, _field, _make, _residues, format_poly


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
        one accumulator by one shifted copy of c_i per nonzero x_k.

        A slot of the output receives at most one product c_ij * x_k of at
        most (p - 1)^2 per (i, k), so over F_p with
        terms * (p - 1)^2 < 256, terms = len(coeffs) * (nonzero x_k), every
        sum fits in a byte and _packed_apply adds each copy as one int
        segment of a bytearray.  Every other case (extension fields, F_5
        with 16 or more terms, larger p with many terms) adds index lists
        by _add_twisted.  Measured warm (best of seven, 2-core shared
        host) on the (q, deg I, deg f) shapes of perfbench's carlitz_eval,
        the packed path took 0.27-0.56 of the lists' time on the 12 larger
        prime-field shapes and 0.60-0.83 on the 3 smallest, (2, 3, 2),
        (3, 3, 3) and (5, 3, 1); (5, 3, 3) and every F_4 shape stay on the
        lists.  Outputs of degree 12288 over F_2 and 13122 over F_3 took
        0.26-0.28 and 0.18-0.19 ms against 2.0-2.1 and 0.97-1.04 ms."""
        if x.spec != self.spec:
            raise ValueError("operands live over different fields")
        F, q, d, coeffs = _field(self.spec), self.spec.q, x.ints, [c.ints for c in self.coeffs]
        terms = len(coeffs) * (len(d) - d.count(0))
        if not terms:
            return Poly.zero(self.spec)
        if F.a == 1 and terms * (F.p - 1) ** 2 < 256:
            return _make(self.spec, _packed_apply(F.p, coeffs, d))
        acc = []
        for i, c in enumerate(coeffs):
            _add_twisted(F, acc, c, d, q**i)
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


def _packed_apply(p: int, coeffs, d) -> bytearray:
    """sum_i c_i * d^(p^i) over F_p in byte slots, as residues: each c_i
    packed once as an int, d_k * c_i added into its segment at k*p^i by one
    int sum, and every slot reduced mod p by one translate.  The caller
    ensures no slot passes 255, so segments add without carries."""
    out = bytearray(max((len(d) - 1) * p**i + len(c) for i, c in enumerate(coeffs)))
    view = memoryview(out)
    for i, c in enumerate(coeffs):
        n, step, packed = len(c), p**i, int.from_bytes(bytes(c), "little")
        for k, dk in enumerate(d):
            if dk:
                s = k * step
                total = int.from_bytes(view[s : s + n], "little") + dk * packed
                view[s : s + n] = total.to_bytes(n, "little")
    return out.translate(_residues(p))


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
