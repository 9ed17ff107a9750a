"""Arithmetic in the finite field F_q with q = p^a elements.

An element is a coefficient vector (c_0, ..., c_{a-1}) over the prime field,
standing for c_0 + c_1*g + ... + c_{a-1}*g^(a-1) where g is the class of the
variable modulo a fixed monic irreducible degree-a polynomial over F_p.  For
a = 1 the vector has a single entry and no modulus is involved.

Elements are enumerated in a fixed order (index 0 .. q-1): coefficient
vectors read as base-p digit strings with the constant coordinate varying
fastest (the codec: _index per element, _coordinates and _indices per list).
Every deterministic choice in this package (canonical generators,
polynomial enumeration, sweep order) refers to that order.

Moduli for small extension fields (q <= 64) are built in; any other
extension field needs an explicit monic irreducible modulus.

FieldElement's operations run on indices, by polyring's arithmetic of the
field.  Each field has one log table of F_q^x for its canonical generator,
built on first use by F_p arithmetic alone; every scalar discrete log
reads it, and that arithmetic derives its exp table from it.  With F_q =
F_p[x]/(m), m the modulus (x when a = 1), the generator is the least
primitive residue mod m and the table walks its powers mod m, as (A/P)^x's.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

from .errors import HypothesisError, ParseError
from .numutil import factorize, is_prime

# Fixed moduli for the extension fields with q = p^a <= 64, coefficients
# ascending.  These are the classical Conway polynomials, but nothing below
# depends on that normalization beyond monic irreducibility.
BUILTIN_MODULI: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 1, 0, 1),
    (2, 4): (1, 1, 0, 0, 1),
    (2, 5): (1, 0, 1, 0, 0, 1),
    (2, 6): (1, 1, 0, 1, 1, 0, 1),
    (3, 2): (2, 2, 1),
    (3, 3): (1, 2, 0, 1),
    (5, 2): (2, 4, 1),
    (7, 2): (3, 6, 1),
}


@dataclass(frozen=True)
class FieldSpec:
    """Description of F_q, q = p^a. The modulus is present exactly when a > 1."""

    p: int
    a: int = 1
    modulus: tuple[int, ...] | None = None

    def __post_init__(self):
        if not is_prime(self.p):
            raise ValueError(f"p = {self.p} is not prime")
        if self.a < 1:
            raise ValueError("a must be >= 1")
        if self.a == 1:
            if self.modulus is not None:
                raise ValueError("prime fields take no modulus")
            return
        mod = self.modulus
        if mod is None:
            mod = BUILTIN_MODULI.get((self.p, self.a))
            if mod is None:
                raise ValueError(
                    f"no built-in modulus for p^a = {self.p}^{self.a}; pass one explicitly"
                )
            object.__setattr__(self, "modulus", mod)
            return
        mod = tuple(c % self.p for c in mod)
        if len(mod) != self.a + 1 or mod[-1] != 1:
            raise ValueError("modulus must be monic of degree a")
        from .polyring import Poly, is_irreducible  # polyring imports this module

        prime = FieldSpec(self.p)
        if not is_irreducible(Poly(prime, mod)):
            raise ValueError("modulus is reducible over F_p")
        object.__setattr__(self, "modulus", mod)

    @property
    def q(self) -> int:
        return self.p**self.a

    @classmethod
    def from_order(cls, q: int, modulus: tuple[int, ...] | None = None) -> "FieldSpec":
        """Build the FieldSpec for the field with q elements (q a prime power)."""
        if q < 2 or len(factorize(q)) != 1:
            raise ParseError(f"q = {q} is not a prime power")
        ((p, a),) = factorize(q)
        if a == 1:
            if modulus is not None:
                raise ParseError("prime fields take no modulus")
            return cls(p)
        return cls(p, a, modulus)

    def element(self, value) -> "FieldElement":
        """Coerce an int (constant embedding) or coefficient iterable."""
        if isinstance(value, FieldElement):
            if value.spec != self:
                raise ValueError("element belongs to a different field")
            return value
        if isinstance(value, int):
            coeffs = (value % self.p,) + (0,) * (self.a - 1)
            return FieldElement(self, coeffs)
        coeffs = tuple(int(c) % self.p for c in value)
        if len(coeffs) > self.a:
            raise ValueError("too many coefficients for this field")
        coeffs += (0,) * (self.a - len(coeffs))
        return FieldElement(self, coeffs)

    def from_index(self, i: int) -> "FieldElement":
        """The i-th element in the canonical order, 0 <= i < q."""
        if not 0 <= i < self.q:
            raise ValueError("index out of range")
        return FieldElement(self, tuple(_coordinates((i,), self.p, self.a)))

    def elements(self):
        for i in range(self.q):
            yield self.from_index(i)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, (0,) * self.a)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)


@dataclass(frozen=True)
class FieldElement:
    spec: FieldSpec
    coeffs: tuple[int, ...]

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement) or other.spec != self.spec:
            raise ValueError("operands live in different fields")

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def index(self) -> int:
        return _index(self.coeffs, self.spec.p)

    def __add__(self, other):
        self._check(other)
        return self.spec.from_index(_arithmetic(self.spec).add(self.index(), other.index()))

    def __neg__(self):
        return self * self.spec.element(-1)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        return self.spec.from_index(_arithmetic(self.spec).mul(self.index(), other.index()))

    def __pow__(self, e: int):
        if e < 0 and self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        return self.spec.from_index(_arithmetic(self.spec).pow(self.index(), e))

    def inverse(self) -> "FieldElement":
        return self**-1

    def __truediv__(self, other):
        self._check(other)
        return self * other.inverse()

    def __str__(self) -> str:
        if self.spec.a == 1:
            return str(self.coeffs[0])
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*g")
            else:
                terms.append(f"{c}*g^{i}")
        return "+".join(terms) if terms else "0"


def _index(coeffs, p: int) -> int:
    """The canonical index of a list of coordinates, lowest first."""
    i = 0
    for c in reversed(coeffs):
        i = i * p + c
    return i


def _coordinates(ints, p: int, a: int) -> list[int]:
    """The base-p coordinates of the indices, a per index, lowest first."""
    if a == 1:
        return list(ints)
    return [v // p**j % p for v in ints for j in range(a)]


def _indices(coords: list[int], p: int, a: int) -> list[int]:
    """The indices of a list of coordinates, a per index, lowest first."""
    if a == 1:
        return coords
    out = coords[a - 1 :: a]
    for j in range(a - 2, -1, -1):
        out = list(map(operator.add, map(p.__mul__, out), coords[j::a]))
    return out


def _arithmetic(spec: FieldSpec):
    """polyring's arithmetic of spec on indices, the one FieldElement runs on."""
    from .polyring import _field  # polyring imports this module

    return _field(spec)


@functools.lru_cache(maxsize=None)
def canonical_generator(spec: FieldSpec) -> FieldElement:
    """The least generator of F_q^x in the canonical element order: the least
    primitive residue mod m in F_q = F_p[x]/(m), m the modulus or x when
    a = 1, read as coordinates (so the prime field is skipped when a > 1)."""
    from .polyring import Poly, least_primitive_residue  # polyring imports this module

    m = Poly(FieldSpec(spec.p), spec.modulus or (0, 1))
    return spec.element(least_primitive_residue(m).ints)


def quadratic_character(x: FieldElement) -> int:
    """+1 on nonzero squares, -1 on nonsquares, 0 at zero.  Needs q odd."""
    q = x.spec.q
    if q % 2 == 0:
        raise HypothesisError("q must be odd for the quadratic character")
    if x.is_zero():
        return 0
    return 1 if x ** ((q - 1) // 2) == x.spec.one else -1


@functools.lru_cache(maxsize=None)
def _log(spec: FieldSpec) -> tuple[int, ...]:
    """log[x] = k with w^k = x on indices, 0 <= k < n = q - 1, w the
    canonical generator; log[0] is the sentinel 2n - 1.  The powers of w
    are stepped on ints mod p, or when a > 1 mod the modulus by
    polyring._Modulus.walk, whose outputs are w^k's coordinates: its index
    is their dot product with the powers of p."""
    n, p = spec.q - 1, spec.p
    w = canonical_generator(spec).coeffs
    log = [2 * n - 1] * spec.q
    if spec.a == 1:
        cur = 1
        for k in range(n):
            log[cur] = k
            cur = cur * w[0] % p
        return tuple(log)
    from .polyring import Poly, _Modulus  # polyring imports this module

    log[1], weights = 0, [p**j for j in range(spec.a)]
    for k, g in zip(range(1, n), _Modulus(Poly(FieldSpec(p), spec.modulus)).walk(w, (1,), 0)):
        log[sum(map(operator.mul, g, weights))] = k
    return tuple(log)


def _inverse_log(w: FieldElement) -> int:
    """1 / log w mod q - 1, so log_w x = log x * _inverse_log(w).  Refuses any
    w but a generator, zero by name: its sentinel log is prime to q - 1."""
    lw, n = _log(w.spec)[w.index()], w.spec.q - 1
    if w.is_zero() or math.gcd(lw, n) != 1:
        raise ValueError(f"{w} does not generate the unit group")
    return pow(lw, -1, n)


def dlog(x: FieldElement, generator: FieldElement) -> int:
    """Discrete log of x base a generator of F_q^x."""
    if x.is_zero():
        raise ValueError("zero has no discrete log")
    if x.spec != generator.spec:
        raise ValueError("x and the generator lie in different fields")
    return _log(x.spec)[x.index()] * _inverse_log(generator) % (x.spec.q - 1)


@dataclass(frozen=True)
class UnitCharacter:
    """Character lambda_s of F_q^x relative to a chosen generator w.

    lambda_s(w^t) = zeta_{q-1}^(s*t).  ``exponent`` returns the exponent of
    zeta_{q-1}, or None at zero (the character value 0).  The generator
    defaults to the canonical one, but callers that index characters against
    a different generator (e.g. the reduction of a primitive base) pass it
    explicitly.
    """

    spec: FieldSpec
    s: int
    generator: FieldElement

    def __post_init__(self):
        object.__setattr__(self, "s", self.s % (self.spec.q - 1))
        if self.generator.spec != self.spec:
            raise ValueError("the generator lies in a different field")
        _inverse_log(self.generator)

    @property
    def order(self) -> int:
        return (self.spec.q - 1) // math.gcd(self.s, self.spec.q - 1)

    def is_trivial(self) -> bool:
        return self.s == 0 or self.spec.q == 2

    def exponent(self, x: FieldElement) -> int | None:
        """Exponent k with lambda(x) = zeta_{q-1}^k, or None when x = 0."""
        if x.is_zero():
            return None
        return self.s * dlog(x, self.generator) % (self.spec.q - 1)

    def conjugate(self) -> "UnitCharacter":
        return UnitCharacter(self.spec, -self.s, self.generator)


def unit_character(spec: FieldSpec, s: int, generator: FieldElement | None = None) -> UnitCharacter:
    if generator is None:
        generator = canonical_generator(spec)
    return UnitCharacter(spec, s, generator)
