"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

A value is a vector of phi(n) arbitrary-precision integers: the residue of
an integer polynomial in zeta_n modulo the n-th cyclotomic polynomial.
Since Phi_n is the minimal polynomial of zeta_n over Q, a rational integer
has exactly one representation (everything in coordinate 0), which is what
makes ``as_integer`` a sound collapse test for class number products.

``norm`` (the digit route's exact norm) works on plain int lists, not CycloInt;
``CycloInt.galois`` serves the character-sum route's Galois-orbit products.

complex_eval is advisory only: it maps a value to floating complex for
cross-checking magnitudes, never for producing results.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from .numutil import divisors


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.  Phi_1 = x - 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return (-1, 1)
    # divide x^n - 1 by Phi_d for every proper divisor d; all divisions exact
    f = [0] * (n + 1)
    f[0], f[n] = -1, 1
    for d in divisors(n):
        if d < n:
            f = _int_poly_div_exact(f, cyclotomic_poly(d))
    return tuple(f)


def _int_poly_div_exact(f, g):
    """Quotient of integer polynomials when g is monic and divides f."""
    f = list(f)
    dg = len(g) - 1
    quo = [0] * (len(f) - dg)
    for k in range(len(f) - dg - 1, -1, -1):
        c = f[k + dg]
        if c:
            quo[k] = c
            for i, b in enumerate(g):
                f[k + i] -= c * b
    if any(f[:dg]):
        raise ArithmeticError("division was not exact")
    return quo


def _reduce(n: int, vec: list[int]) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta_n modulo Phi_n."""
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    vec = list(vec)
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            vec[k] = 0
            for i in range(deg):
                vec[k - deg + i] -= c * phi[i]
    out = vec[:deg]
    out += [0] * (deg - len(out))
    return tuple(out)


@dataclass(frozen=True)
class CycloInt:
    """An element of Z[zeta_n], reduced modulo Phi_n."""

    n: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        deg = len(cyclotomic_poly(self.n)) - 1
        if len(self.coeffs) != deg:
            raise ValueError(f"need exactly {deg} coordinates for order {self.n}")

    @classmethod
    def from_int(cls, n: int, value: int) -> "CycloInt":
        deg = len(cyclotomic_poly(n)) - 1
        return cls(n, (value,) + (0,) * (deg - 1))

    @classmethod
    def zero(cls, n: int) -> "CycloInt":
        return cls.from_int(n, 0)

    @classmethod
    def one(cls, n: int) -> "CycloInt":
        return cls.from_int(n, 1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def _check(self, other: "CycloInt") -> None:
        if not isinstance(other, CycloInt):
            raise TypeError("expected a CycloInt")
        if other.n != self.n:
            raise ValueError(
                f"root orders differ ({self.n} vs {other.n}); lift explicitly first"
            )

    def __add__(self, other):
        self._check(other)
        return CycloInt(self.n, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return CycloInt(self.n, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return CycloInt(self.n, tuple(a * other for a in self.coeffs))
        self._check(other)
        a, b = self.coeffs, other.coeffs
        prod = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        return CycloInt(self.n, _reduce(self.n, prod))

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        result = CycloInt.one(self.n)
        acc = self
        while e:
            if e & 1:
                result = result * acc
            acc = acc * acc
            e >>= 1
        return result

    def lift(self, m: int) -> "CycloInt":
        """Image in Z[zeta_m] for n | m, via zeta_n -> zeta_m^(m/n)."""
        if m % self.n:
            raise ValueError(f"{self.n} does not divide {m}")
        k = m // self.n
        vec = [0] * ((len(self.coeffs) - 1) * k + 1 or 1)
        for i, c in enumerate(self.coeffs):
            vec[i * k] += c
        return CycloInt(m, _reduce(m, vec))

    def galois(self, u: int) -> "CycloInt":
        """Image under sigma_u: zeta_n -> zeta_n^u, for gcd(u, n) = 1."""
        if math.gcd(u, self.n) != 1:
            raise ValueError(f"{u} is not a unit mod {self.n}")
        vec = [0] * self.n
        for i, c in enumerate(self.coeffs):
            vec[u * i % self.n] += c
        return CycloInt(self.n, _reduce(self.n, vec))

    def as_integer(self) -> int | None:
        """The rational integer this value equals, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def complex_eval(self) -> complex:
        z = cmath.exp(2j * cmath.pi / self.n)
        acc = 0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    __complex__ = complex_eval


def root_of_unity(n: int, k: int = 1) -> CycloInt:
    """zeta_n^k as an element of Z[zeta_n]."""
    k %= n
    vec = [0] * (k + 1)
    vec[k] = 1
    return CycloInt(n, _reduce(n, vec))


def exponent_sum(n: int, weighted_exponents) -> CycloInt:
    """Sum of w * zeta_n^e over (e, w) pairs, accumulated exactly."""
    vec = [0] * n
    for e, w in weighted_exponents:
        vec[e % n] += w
    return CycloInt(n, _reduce(n, vec))


def norm(t: int, coeffs) -> int:
    """N_{Q(zeta_t)/Q} of sum_k coeffs[k] * zeta_t^k, exactly.

    The determinant of multiplication by the value on the basis
    1, zeta_t, ..., zeta_t^(phi(t)-1).  Both the reduction of the input
    (Horner) and the phi(t) columns use one step, multiplication by zeta_t:
    shift up, then subtract the top coefficient times Phi_t.
    """
    phi = cyclotomic_poly(t)
    deg = len(phi) - 1

    def times_zeta(v: list[int]) -> list[int]:
        top = v[-1]
        out = [0] + v[:-1]
        if top:
            for i in range(deg):
                out[i] -= top * phi[i]
        return out

    v = [0] * deg
    for c in reversed(coeffs):
        v = times_zeta(v)
        v[0] += c
    columns = [v]
    for _ in range(deg - 1):
        columns.append(times_zeta(columns[-1]))
    return _bareiss_det(columns)


def int_poly_resultant(f, g) -> int:
    """Resultant of integer polynomials (ascending coefficients).

    Convention: res(f, g) = lc(f)^deg(g) * product of g over the roots of f.
    Computed as the Sylvester determinant by fraction-free (Bareiss)
    elimination, so the value is exact.
    """
    f = _trim_int(f)
    g = _trim_int(g)
    if not f or not g:
        return 0
    df, dg = len(f) - 1, len(g) - 1
    if df == 0 and dg == 0:
        return 1
    if df == 0:
        return f[0] ** dg
    if dg == 0:
        return g[0] ** df
    size = df + dg
    rows = []
    frev, grev = list(reversed(f)), list(reversed(g))
    for i in range(dg):
        rows.append([0] * i + frev + [0] * (size - df - 1 - i))
    for i in range(df):
        rows.append([0] * i + grev + [0] * (size - dg - 1 - i))
    return _bareiss_det(rows)


def _trim_int(f) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _bareiss_det(m: list[list[int]]) -> int:
    n = len(m)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]
