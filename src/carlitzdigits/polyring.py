"""The polynomial ring A = F_q[T].

A polynomial holds its field once and its coefficients as a tuple of ints,
ascending by degree, with no trailing zeros; the zero polynomial is the
empty tuple.  Each int is the canonical index of the coefficient
(FieldSpec.from_index), which over a prime field is the residue mod p.
FieldElement, whose operations run on _field below, is the type at the
edges: Poly(spec, elements), Poly.coeffs (a read-only view), leading_coeff,
constant_coeff, evaluate, scale, poly() and the parser.  deg 0 is the
sentinel NEG_INF (so deg respects products only away from zero), and the
leading coefficient of 0 is defined to be 0.

Arithmetic runs on the ints.  Over a prime field, a product whose shorter
operand has at least KRONECKER_MIN_LEN coefficients is taken by Kronecker
substitution: each operand is packed into one Python int with a slot of
2*bitlen(p) + bitlen(shorter length) bits per coefficient (rounded up to a
machine array item), the two ints are multiplied once (CPython switches to
Karatsuba for large ones), and the slots are unpacked and reduced mod p.
Every other product is a schoolbook, row by row over the nonzero
coefficients of the sparser operand.  Over an extension field the
coefficients go through the field's log table (ffq._log, built by F_p
arithmetic), its inverse exp and q - 1 Zech logarithms.  Division by m is
one loop on lists of ints (_Modulus.divmod), with the inverse of the
leading coefficient and the negated low coefficients of m set up once:
divmod and mod_pow run it, and wrap only their results in Poly.

Powers mod m go through the Frobenius map x -> x^q mod m, which is F_q-
linear: c^q = c for c in F_q, so (sum_i c_i T^i)^q = sum_i c_i R_i with the
rows R_i = T^(iq) mod m (Berlekamp's Q-matrix), one packed F_p-linear map
(_linear_map, below) per modulus.
With e = sum_i d_i q^i, base^e = prod_b y_b^(2^b), y_b the product of the
Frob^i(base) whose digit d_i has bit b set (_Modulus.power): L - 1 maps for
L digits and about L*B/2 + 2B products, B the bits of q - 1, where
square-and-multiply takes about 1.5*L*log2(q).  The map is built once per
modulus (mod_pow keeps the last 64), when the applications asked of it
would take FROBENIUS_MAP_MIN products by square-and-multiply; until then a
power is square-and-multiply.

The long division of digits, b * G_{k-1} = H_k * m + G_k for a fixed b and
m, steps by such a map too (_Modulus.walk): with deg G_{k-1} < deg m = d
the step is F_q-linear in G_{k-1}, its row for T^i the remainder and then
the first e coefficients of the quotient of b * T^i by m (_Modulus._rows:
one divmod of b, then T times the row above).  e = deg b keeps every digit
H_k (digits.long_division); e = 0 keeps the remainders alone, d columns
for any deg b (the residue context of chars, and the powers of F_q's
generator b mod its modulus m over F_p in ffq._log).
_linear_map packs such a map from its rows for T^i, i < d: a canonical
index is its string of base-p coordinates (q = p^a; ffq holds the codec),
so basis element x^j T^i, x the generator of F_q over F_p, gets the
coordinates of x^j times row i, one per slot of one int.  An application
sums coordinate * row, writes the int out once and reduces each slot mod
p.  A slot receives d*a terms of at most (p - 1)^2: it is the narrowest
item of _SLOTS that holds d*a*(p - 1)^2; without one, columns sum on ints.
The reduced coordinates come out as bytes when p <= 256 (_packing), so a
reader finds an output's leading coefficient by its trailing zero bytes.
One distinct-degree split (_factor_degrees) answers is_irreducible and the
unit-group exponent of A/(m) in digits; its h <- h^q steps are powers mod
m, and it takes one gcd per block of FACTOR_BLOCK degrees.

Enumeration of polynomials is lexicographic with the constant coefficient
varying fastest, matching the element order of the coefficient field, and
reads range(q) lazily: the search in that order for the least primitive
residue mod m (classnum.canonical_primitive_lift, F_q's generator) pays
only for the candidates it tests.  Each candidate g is tested norm first
(primitivity_witness): with r = (q^deg m - 1)/(q - 1) and m monic, g^r =
Res(m, g) is a scalar that one Euclid computes, so the primes of q - 1 are
tests in F_q and only the primes of r alone power g mod m; when deg m = 1
(F_p's generator, m = T) r = 1 and the search runs on scalars.  That Euclid
(_resultant) is the package's only one: cycint's integer resultant reads
its residue mod each CRT prime p off it over F_p.
_irreducibles sieves the monic irreducibles of a degree in that order (the
point count's Q, sweep's P).

Text forms: a human-readable sum of terms like "T^3+2*T+2" (parsing also
accepts the implicit product "2T"), and a bare coefficient list "2,2,0,1"
(ascending).  Over extension fields a coefficient is a parenthesized list
of prime-field coordinates, e.g. "(1,1)*T^2+(0,1)".
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
import sys
from array import array

from .errors import ExactnessError, HypothesisError, ParseError
from .ffq import FieldElement, FieldSpec, _coordinates, _indices, _log
from .numutil import least_witness, prime_factors

NEG_INF = float("-inf")

# Products whose shorter operand has fewer coefficients than this use the
# schoolbook.  Measured over F_2 (best of seven, 2-core host): 1 x 8
# coefficients take 4.2 us by schoolbook and 5.1 us by Kronecker, 2 x 10
# 6.4 and 5.4 us, 3 x 16 9.5 and 5.4 us; over F_7, 2 x 2 take 5.5 and 2.9 us.
KRONECKER_MIN_LEN = 2

# _Modulus.power builds the Frobenius map of a modulus once the x -> x^q
# applications asked of it, the current power's included, would take this
# many products by square-and-multiply (bitlen(q) + popcount(q) - 2 each),
# so that a modulus spends on plain powers about what the map would cost
# before it gets one.  Measured (best of five, 2-core shared host) at
# deg m = 8: a plain x^q took 14-23 us over F_2 (one product), 28-43 us
# over F_3 (two) and 362-389 us over F_25 (six), building the map 25-40,
# 36-45 and 591-621 us, applying it 1.6-2.7, 1.4-2.5 and 7-13 us; so the
# map costs 2-10 products, and 2-21 over q <= 25 and deg m in 4..16.  All
# monic polynomials of degree 5 over F_5 took 10-30% longer in
# is_irreducible with the map built at the second application (six
# products), the last one their split needs.
FROBENIUS_MAP_MIN = 10

# _factor_degrees tries degree 1 alone, then this many degrees per gcd.
# Measured as above (best of 150 calls): is_irreducible of
# T^19+T^5+T^2+T+1 over F_2 took 677-702 us at one gcd per degree, 485-513
# us with blocks of 4, 441-446 us with 8 and 429 us with 16 (709-747 us
# before the Frobenius map); the 600 moduli of degree 2-4 and 7 that
# sweep_all_l sets up, most with a factor of degree 1, took 35.8-37.4 ms at
# one gcd per degree and 36.3-37.3 ms with blocks of 8 (35.6-39.8 ms
# before).  A block that holds a factor costs its products and one gcd more.
FACTOR_BLOCK = 8

# (bits, typecode) of the unsigned array items, narrowest first.  Ints and
# items both use the native byte order: on a big-endian host both operands
# and the product are packed backwards, which is the same product.
_SLOTS = sorted((array(tc).itemsize * 8, tc) for tc in "BHIQ")


@functools.lru_cache(maxsize=None)
def _slot(bits: int):
    """The narrowest (bits, typecode) of _SLOTS at least bits wide, or None."""
    return next((s for s in _SLOTS if s[0] >= bits), None)


class _PrimeField:
    """F_p on residues."""

    a = 1

    def __init__(self, p: int):
        self.p = self.q = p
        self.minus_one = p - 1

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.p

    def mul(self, x: int, y: int) -> int:
        return x * y % self.p

    def pow(self, x: int, e: int) -> int:
        return pow(x, e, self.p)

    def scale(self, v, c: int) -> list[int]:
        p = self.p
        return [c * y % p for y in v]

    def axpy(self, u, c: int, v) -> list[int]:
        """u + c*v, entry by entry over the common length."""
        p = self.p
        return [(x + c * y) % p for x, y in zip(u, v)]

    def product(self, a, b) -> list[int]:
        p = self.p
        short = min(len(a), len(b))
        slot = short >= KRONECKER_MIN_LEN and _slot(2 * p.bit_length() + short.bit_length())
        if not slot:
            return _schoolbook(self, a, b)
        tc, order = slot[1], sys.byteorder
        out = array(tc)
        prod = int.from_bytes(array(tc, a), order) * int.from_bytes(array(tc, b), order)
        out.frombytes(prod.to_bytes((len(a) + len(b) - 1) * out.itemsize, order))
        return list(map(p.__rmod__, out))


class _ExtensionField:
    """F_q, q = p^a with a > 1, on canonical indices.

    log is the field's table (ffq._log, log[0] the sentinel 2n - 1, n =
    q - 1), exp[k] = w^k, w the canonical generator, reads 0 from 2n - 1 on
    and zech[k] = log(1 + w^k) is the sentinel where 1 + w^k = 0.
    """

    def __init__(self, spec: FieldSpec):
        self.p, self.a, self.q = spec.p, spec.a, spec.q
        n, p = spec.q - 1, spec.p
        self.log = log = _log(spec)
        powers = sorted(range(1, spec.q), key=log.__getitem__)  # w^0, w^1, ...
        self.exp = exp = tuple(powers + powers[: n - 1] + [0] * (2 * n))
        self.zech = [log[x - x % p + (x + 1) % p] for x in exp[:n]]  # 1 + x on coordinate 0
        self.minus_one = exp[n // 2] if spec.p % 2 else 1
        # coordinates add without carry; in characteristic 2 that is xor
        self.add = operator.xor if spec.p == 2 else self._zech_add

    def _zech_add(self, x: int, y: int) -> int:
        if not x or not y:
            return x or y
        lx = self.log[x]
        return self.exp[lx + self.zech[self.log[y] - lx]]

    def mul(self, x: int, y: int) -> int:
        return self.exp[self.log[x] + self.log[y]]

    def pow(self, x: int, e: int) -> int:
        if not x:  # 0^0 = 1; 0^e for e < 0 is left to the caller
            return 0 if e else 1
        return self.exp[self.log[x] * e % (self.q - 1)]

    def scale(self, v, c: int) -> list[int]:
        exp, log, lc = self.exp, self.log, self.log[c]
        return [exp[lc + log[y]] for y in v]

    def axpy(self, u, c: int, v) -> list[int]:
        """u + c*v, entry by entry over the common length."""
        return list(map(self.add, u, v if c == 1 else self.scale(v, c)))

    def product(self, a, b) -> list[int]:
        return _schoolbook(self, a, b)


def _schoolbook(F, a, b) -> list[int]:
    """a*b row by row, over the nonzero coefficients of the sparser one."""
    if len(a) - a.count(0) > len(b) - b.count(0):
        a, b = b, a
    nb = len(b)
    out = [0] * (len(a) + nb - 1)
    for i, x in enumerate(a):
        if x:
            out[i : i + nb] = F.axpy(out[i : i + nb], x, b)
    return out


@functools.lru_cache(maxsize=None)
def _field(spec: FieldSpec):
    """The integer arithmetic of spec, built once per field."""
    return _PrimeField(spec.p) if spec.a == 1 else _ExtensionField(spec)


def _trimmed(ints) -> tuple[int, ...]:
    n = len(ints)
    while n and not ints[n - 1]:
        n -= 1
    return tuple(ints[:n])


def _make(spec: FieldSpec, ints) -> "Poly":
    """A Poly from a sequence of indices, trailing zeros dropped."""
    f = object.__new__(Poly)
    f.spec = spec
    f.ints = _trimmed(ints)
    return f


class Poly:
    """A polynomial over F_q; see the module docstring for the encoding.

    Equality and hashing follow (spec, ints).  Instances are immutable by
    convention.
    """

    __slots__ = ("spec", "ints")

    def __init__(self, spec: FieldSpec, coeffs):
        self.spec = spec
        self.ints = _trimmed([spec.element(c).index() for c in coeffs])

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as field elements, ascending (a new tuple)."""
        return tuple(map(self.spec.from_index, self.ints))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ints == other.ints and self.spec == other.spec

    def __hash__(self):
        return hash((self.spec, self.ints))

    def __repr__(self) -> str:
        return f"Poly(spec={self.spec!r}, coeffs={self.coeffs!r})"

    @classmethod
    def zero(cls, spec: FieldSpec) -> "Poly":
        return _make(spec, ())

    @classmethod
    def one(cls, spec: FieldSpec) -> "Poly":
        return _make(spec, (1,))

    def is_zero(self) -> bool:
        return not self.ints

    def __bool__(self) -> bool:
        return bool(self.ints)

    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.ints) - 1 if self.ints else NEG_INF

    def leading_coeff(self) -> FieldElement:
        return self.spec.from_index(self.ints[-1]) if self.ints else self.spec.zero

    def is_monic(self) -> bool:
        return bool(self.ints) and self.ints[-1] == 1

    def constant_coeff(self) -> FieldElement:
        return self.spec.from_index(self.ints[0]) if self.ints else self.spec.zero

    def _check(self, other: "Poly") -> None:
        if not isinstance(other, Poly) or (
            other.spec is not self.spec and other.spec != self.spec
        ):
            raise ValueError("operands live over different fields")

    def _plus_multiple(self, c: int, other: "Poly") -> "Poly":
        """self + c * other, c an index."""
        self._check(other)
        a, b = self.ints, other.ints
        if len(a) < len(b):
            a += (0,) * (len(b) - len(a))
        out = _field(self.spec).axpy(a, c, b)
        out.extend(a[len(b) :])
        return _make(self.spec, out)

    def __add__(self, other):
        return self._plus_multiple(1, other)

    def __neg__(self):
        F = _field(self.spec)
        return _make(self.spec, F.scale(self.ints, F.minus_one))

    def __sub__(self, other):
        return self._plus_multiple(_field(self.spec).minus_one, other)

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        self._check(other)
        if not self.ints or not other.ints:
            return Poly.zero(self.spec)
        return _make(self.spec, _field(self.spec).product(self.ints, other.ints))

    def __rmul__(self, other):
        if isinstance(other, FieldElement):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: FieldElement) -> "Poly":
        return _make(self.spec, _field(self.spec).scale(self.ints, self.spec.element(c).index()))

    def __divmod__(self, other):
        self._check(other)
        if len(self.ints) < len(other.ints):
            return Poly.zero(self.spec), self
        quo, rem = _Modulus(other).divmod(self.ints)
        return _make(self.spec, quo), _make(self.spec, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero():
            raise ZeroDivisionError("zero polynomial cannot be made monic")
        F = _field(self.spec)
        return _make(self.spec, F.scale(self.ints, F.pow(self.ints[-1], -1)))

    def evaluate(self, x: FieldElement) -> FieldElement:
        F = _field(self.spec)
        xi = self.spec.element(x).index()
        acc = 0
        for c in reversed(self.ints):
            acc = F.add(F.mul(acc, xi), c)
        return self.spec.from_index(acc)

    def __str__(self) -> str:
        return format_poly(self)


def poly(spec: FieldSpec, *coeffs) -> Poly:
    """Convenience constructor from ints or field elements, ascending."""
    return Poly(spec, coeffs)


def gen(spec: FieldSpec) -> Poly:
    """The variable T."""
    return _make(spec, (0, 1))


def valuation_inf(f1: Poly, f2: Poly) -> int:
    """Valuation at infinity of f1/f2, i.e. deg f2 - deg f1."""
    if f1.is_zero() or f2.is_zero():
        raise ValueError("valuation of zero is undefined")
    return len(f2.ints) - len(f1.ints)


class _Modulus:
    """Division by a fixed nonzero m on index lists: the field, the inverse
    of the leading coefficient and the negated low coefficients are set up
    once.  divmod is the one long-division loop of the package; walk
    repeats the division of b * G_{k-1} by m as one packed F_p-linear map,
    and power reads its exponent in base q through another, x -> x^q."""

    __slots__ = ("F", "dg", "inv", "minus_low", "frobenius", "asked")

    def __init__(self, m: Poly):
        if not m.ints:
            raise ZeroDivisionError("polynomial division by zero")
        self.F = F = _field(m.spec)
        self.dg = len(m.ints) - 1
        self.inv = F.pow(m.ints[-1], -1)
        self.minus_low = F.scale(m.ints[:-1], F.minus_one)
        self.frobenius = None  # x -> x^q mod m, built by power once it pays
        self.asked = 0  # products the x^q asked of m so far take by square-and-multiply

    def mul(self, u, v) -> list[int]:
        """u * v mod m."""
        return self.divmod(self.F.product(u, v))[1]

    def divmod(self, a) -> tuple[list[int], list[int]]:
        """(quotient, remainder) of the index sequence a, the remainder
        without trailing zeros."""
        F, dg, inv, low = self.F, self.dg, self.inv, self.minus_low
        rem = list(a)
        quo = [0] * (len(rem) - dg)
        for k in range(len(rem) - dg - 1, -1, -1):
            c = F.mul(rem[k + dg], inv)
            if c:
                quo[k] = c
                rem[k : k + dg] = F.axpy(rem[k : k + dg], c, low)
        del rem[dg:]
        while rem and not rem[-1]:
            rem.pop()
        return quo, rem

    def walk(self, b, c, e):
        """Yield _linear_map's outputs for b * G_{k-1} = H_k * m + G_k from
        G_0 = c, deg c < deg m, without end: the coordinates of G_k, a per
        coefficient, then those of H_k's first e coefficients (bytes for
        p <= 256, see _packing).  The map runs on _rows(b, e), and each
        output's first deg m * a coordinates are fed back; deg m >= 1."""
        F = self.F
        apply, n = _linear_map(F, self._rows(b, e)), self.dg * F.a
        x = _coordinates(c, F.p, F.a)
        while True:
            out = apply(x)
            x = out[:n]
            yield out

    def _rows(self, b, e) -> list[list[int]]:
        """Row i < deg m of the step b * G_{k-1} = H_k * m + G_k: the
        remainder of b * T^i by m and then the first e coefficients of its
        quotient.  Row 0 is one divmod of b, and row i is T times row i - 1,
        reduced by one axpy."""
        F, dg = self.F, self.dg
        quo, rem = self.divmod(b)
        rem += [0] * (dg - len(rem))
        rows = []
        for i in range(dg):
            if i:  # T * (quo * m + rem), where T * rem = t * m + (T * rem mod m)
                t = F.mul(rem[-1], self.inv)
                quo, rem = [t] + quo, F.axpy([0] + rem[:-1], t, self.minus_low)
            rows.append(rem + quo[:e] + [0] * (e - len(quo)))
        return rows

    def power(self, x, e: int) -> list[int]:
        """x^e mod m for x nonzero and reduced mod m, e >= 1.

        With e = sum_i d_i q^i, x^e is prod_b y_b^(2^b), y_b the product of
        Frob^i(x) = x^(q^i) over the i whose digit d_i has bit b set: L - 1
        applications of the Frobenius map for L digits, about L*B/2 products
        into the y_b and 2(B - 1) to join them from the top bit down, B the
        bits of a digit.  Until the map serves m (FROBENIUS_MAP_MIN), e is
        one digit: square-and-multiply."""
        q, digits, rest = self.F.q, [], e
        while rest:
            rest, digit = divmod(rest, q)
            digits.append(digit)
        if self.frobenius is None and len(digits) > 1:
            # the products a square-and-multiply x^q takes, per application
            self.asked += (len(digits) - 1) * (q.bit_length() + bin(q).count("1") - 2)
            if self.asked < FROBENIUS_MAP_MIN:
                return self._power(x, [e])
            self.frobenius = self._frobenius_map()
        return self._power(x, digits)

    def _power(self, x, digits) -> list[int]:
        """x^e mod m, e = sum_i digits[i] q^i (see power)."""
        divmod, product = self.divmod, self.F.product
        planes, f = [None] * max(digits).bit_length(), x
        for i, digit in enumerate(digits):
            if i:
                f = self.frobenius(f)
            for b in range(digit.bit_length()):
                if digit >> b & 1:
                    planes[b] = f if planes[b] is None else divmod(product(planes[b], f))[1]
        acc = None
        for y in reversed(planes):
            if acc is not None:
                acc = divmod(product(acc, acc))[1]
            if y is not None:
                acc = y if acc is None else divmod(product(acc, y))[1]
        return acc

    def _frobenius_map(self):
        """x -> x^q mod m on index lists reduced mod m (Berlekamp's Q-matrix).

        c^q = c on F_q, so (sum_i c_i T^i)^q = sum_i c_i R_i with rows R_i =
        T^(iq) mod m, R_i = R_(i-1) * T^q mod m, and _linear_map runs it."""
        F, dg, p, a, q = self.F, self.dg, self.F.p, self.F.a, self.F.q
        tq = self._power([0, 1], [q]) if 1 < dg <= q else None
        rows = [[1]]
        while len(rows) < dg:  # for q < deg m, T^q * R is a shift and q reduction steps
            rows.append(self.divmod([0] * q + rows[-1])[1] if tq is None else self.mul(rows[-1], tq))
        apply = _linear_map(F, [row + [0] * (dg - len(row)) for row in rows])
        return lambda x: _trimmed(_indices(apply(_coordinates(x, p, a)), p, a))


def _linear_map(F, rows):
    """The F_q-linear map sum_i c_i T^i -> sum_i c_i * rows[i], F_p-linear
    on coordinate lists: coordinate row (i, j) holds the coordinates of
    x^j * rows[i], x the generator of F_q over F_p, packed one coordinate
    per slot into one int, and an application is one sum of products of
    ints, one to_bytes and one reduction mod p per slot (byte slots in one
    pass, through a table of residues).  The slot holds a sum of
    len(rows) * a products of at most (p - 1)^2; where no slot is that
    wide, each column is summed on ints.  The output coordinates come as
    _packing(p) holds them."""
    p, a, order = F.p, F.a, sys.byteorder
    coords = [_coordinates(F.scale(row, p**j) if j else row, p, a)
              for row in rows for j in range(a)]
    pack = _packing(p)[0]
    slot = _slot((len(coords) * (p - 1) ** 2).bit_length())
    if slot is None:
        columns = list(zip(*coords))
        return lambda x: pack([sum(map(operator.mul, x, col)) % p for col in columns])
    tc = slot[1]
    ints = [int.from_bytes(array(tc, row), order) for row in coords]
    size = len(coords[0]) * array(tc).itemsize
    if tc == "B":
        residues = _residues(p)
        return lambda x: sum(map(operator.mul, x, ints)).to_bytes(size, order).translate(residues)
    return lambda x: pack(map(p.__rmod__, memoryview(
        sum(map(operator.mul, x, ints)).to_bytes(size, order)).cast(tc)))


def _packing(p: int):
    """(pack, size): _linear_map hands out coordinates mod p as bytes when
    p <= 256, else as an array of the narrowest item that holds p - 1, of
    size bytes (a list, size None, past 64 bits).  So the last nonzero
    coordinate of an output g sits at (len(bytes(g).rstrip(b"\\0")) - 1) // size
    whenever size is not None."""
    if p <= 256:
        return bytes, 1
    slot = _slot((p - 1).bit_length())
    if slot is None:
        return list, None
    return functools.partial(array, slot[1]), array(slot[1]).itemsize


@functools.lru_cache(maxsize=None)
def _residues(p: int) -> bytes:
    """The bytes.translate table that reduces every byte of a byte-slot
    buffer mod p in one pass (_linear_map, carlitz's packed apply)."""
    return (bytes(range(p)) * (256 // p + 1))[:256]


@functools.lru_cache(maxsize=64)
def _modulus(m: Poly) -> _Modulus:
    """The _Modulus of m, built once for each of the last 64 moduli that
    mod_pow was given: a caller that powers many bases mod one P (a
    primitivity witness, a point count) sets up the division once."""
    return _Modulus(m)


def mod_pow(base: Poly, e: int, m: Poly) -> Poly:
    """base^e mod m for e >= 0 (e may be a big integer), by _Modulus.power."""
    if e < 0:
        raise ValueError("negative exponents are not supported")
    if m.is_zero():
        raise ZeroDivisionError("zero modulus")
    base._check(m)
    mod = _modulus(m)
    x = mod.divmod(base.ints if e else (1,))[1]
    return _make(m.spec, mod.power(x, e) if e and x else x)


def primitivity_witness(G: Poly, P: Poly) -> int | None:
    """The least prime ell | q^deg P - 1 = N with G^(N/ell) = 1 mod P; None
    when G, a unit mod the irreducible P, is primitive.  A G with
    gcd(G, P) != 1 is refused with HypothesisError, as build_context does.

    With r = N/(q - 1), G^r is the norm of G from A/P = F_(q^deg P) to F_q,
    the scalar nu = Res(P, g) / lc(P)^deg g, g = G mod P (Rosen, Number
    Theory in Function Fields, ch. 1), that one Euclid computes.  So each
    prime ell of q - 1 is one test nu^((q-1)/ell) = 1 in F_q, and only the
    primes of r prime to q - 1, below the least such ell, power G mod P.
    When deg P = 1, r = 1 and nu = g: no polynomial is powered."""
    F, q, mod = _field(P.spec), P.spec.q, _modulus(P)
    N, x = q**mod.dg - 1, mod.divmod(G.ints)[1]
    nu = F.mul(_resultant(P.spec, P.ints, x), F.pow(P.ints[-1], 1 - len(x)))
    if not nu:  # Res(P, g) = 0: G is no unit mod P
        raise HypothesisError("requires gcd(G, P) = 1")
    scalar = least_witness(q - 1, lambda e: F.pow(nu, e) == 1)
    below, one = scalar or N + 1, Poly.one(P.spec)
    return next((ell for ell in itertools.takewhile(below.__gt__, prime_factors(N))
                 if (q - 1) % ell and mod_pow(G, N // ell, P) == one), scalar)


def _resultant(spec: FieldSpec, a, b) -> int:
    """Res(a, b) = lc(a)^deg b * prod b(alpha) over the roots alpha of a,
    for index lists a and b without trailing zeros, a nonzero, as an index,
    by Euclid's remainders: Res(a, b) = (-1)^(deg a * deg b)
    lc(b)^(deg a - deg c) Res(b, c), c = a mod b, down to Res(a, c) =
    c^deg a for a constant c.  Each division is one _Modulus, as in
    poly_gcd; 0 when gcd(a, b) != 1.  It is the package's one Euclid
    resultant: primitivity_witness reads norms from F_q^deg P to F_q off it,
    and cycint.int_poly_resultant its residues mod each CRT prime p."""
    F, res = _field(spec), 1
    while len(b) > 1:
        c = _Modulus(_make(spec, b)).divmod(a)[1]
        if (len(a) - 1) * (len(b) - 1) % 2:
            res = F.mul(res, F.minus_one)
        a, b, res = b, c, F.mul(res, F.pow(b[-1], len(a) - len(c)))
    return F.mul(res, F.pow(b[0], len(a) - 1)) if b else 0


def least_primitive_residue(m: Poly) -> Poly:
    """The first residue mod the irreducible m, in enumeration order, that
    generates (A/m)^x, skipping zero and, when deg m >= 2, the q constants
    (their orders divide q - 1).  A candidate that is no unit refuses m."""
    d = len(m.ints) - 1
    for cand in itertools.islice(all_polys_below(m.spec, d), m.spec.q if d >= 2 else 1, None):
        try:
            if primitivity_witness(cand, m) is None:
                return cand
        except HypothesisError:  # a nonzero residue of degree < deg m shares a factor with m
            raise HypothesisError("P must be irreducible") from None
    raise ExactnessError("no primitive residue found; unit groups are cyclic")


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0.  Euclid on index lists, one _Modulus per
    division."""
    f._check(g)
    spec, a, b = f.spec, f.ints, g.ints
    while b:
        a, b = b, _Modulus(_make(spec, b)).divmod(a)[1] if len(a) >= len(b) else a
    return _make(spec, a).monic() if a else Poly.zero(spec)


def is_irreducible(f: Poly) -> bool:
    """True when the first factor degree of f (_factor_degrees) is deg f
    itself: f has no irreducible factor of degree <= deg f / 2."""
    d = len(f.ints) - 1
    if d < 1:
        raise ValueError("irreducibility is only defined for nonconstant polynomials")
    return next(_factor_degrees(f)) == (d, 1)


def _factor_degrees(m: Poly):
    """(i, e) for each degree i of the irreducible factors of m, deg m >= 1,
    ascending, e the largest multiplicity among them: distinct-degree
    factorization (Cantor and Zassenhaus 1981).  With h = T^(q^i) mod a,
    gcd(h - T, a) is the product of the irreducible factors of a of degree
    i once those of lower degree are gone, and a is divided by it until
    they are coprime, in as many rounds as their largest multiplicity.
    Once 2i > deg a, what is left of a is 1 or irreducible, yielded last.
    Degree 1 is tried alone, then FACTOR_BLOCK degrees at a time: one gcd
    of a with the product of their h - T mod a, and only when it is
    nontrivial one gcd per degree with it (von zur Gathen and Shoup 1992)."""
    q, t = m.spec.q, gen(m.spec)
    a, h, i = m.monic(), t, 0
    while 2 * (i + 1) <= len(a.ints) - 1:
        block, size = [], FACTOR_BLOCK if i else 1
        while len(block) < size and 2 * (i + 1) <= len(a.ints) - 1:
            i += 1
            h = mod_pow(h, q, a)
            block.append((i, h - t))
        mod, prod = _modulus(a), block[0][1].ints
        for _, x in block[1:]:
            prod = mod.mul(prod, x.ints)
        g = poly_gcd(_make(m.spec, prod), a)  # the factors of a of the block's degrees
        for j, x in block:
            if len(g.ints) == 1 or 2 * j > len(a.ints) - 1:
                break
            f = poly_gcd(x, g) if len(block) > 1 else g
            if len(f.ints) > 1:
                e = 0
                while len(f.ints) > 1:
                    a, e = a // f, e + 1
                    f = poly_gcd(a, f)
                yield j, e
                h, g = h % a, poly_gcd(g, a)
    if len(a.ints) > 1:
        yield len(a.ints) - 1, 1


def _index_tuples(q: int, s: int):
    """All s-tuples over range(q), the first entry varying fastest, lazily."""
    if not s:
        return iter([()])
    return ((c, *rest) for rest in _index_tuples(q, s - 1) for c in range(q))


def monic_polys(spec: FieldSpec, s: int):
    """All q^s monic polynomials of degree s, in the canonical order."""
    if s < 0:
        raise ValueError("degree must be >= 0")
    for ints in _index_tuples(spec.q, s):
        yield _make(spec, ints + (1,))


@functools.lru_cache(maxsize=64)
def _irreducibles(spec: FieldSpec, f: int) -> tuple[Poly, ...]:
    """The monic irreducibles of degree f in enumeration order: the monic polynomials
    that are no product A * B, A monic irreducible of degree <= f / 2, B monic."""
    composite = {(A * B).ints for a in range(1, f // 2 + 1)
                 for A in _irreducibles(spec, a) for B in monic_polys(spec, f - a)}
    return tuple(Q for Q in monic_polys(spec, f) if Q.ints not in composite)


def monic_polys_below(spec: FieldSpec, d: int):
    """All monic polynomials of degree < d, by ascending degree."""
    for s in range(d):
        yield from monic_polys(spec, s)


def all_polys_below(spec: FieldSpec, d: int):
    """All q^d polynomials of degree < d (zero included), canonical order."""
    for ints in _index_tuples(spec.q, d):
        yield _make(spec, ints)


# -- text forms --

_TERM_RE = re.compile(
    r"^(?:\((?P<vec>[0-9,\s]*)\)|(?P<int>[0-9]+))?\s*\*?\s*(?P<var>T(?:\^(?P<exp>[0-9]+))?)?$"
)


def _split_top(s: str, sep: str) -> list[str]:
    """s split at each sep outside parentheses."""
    parts, depth, cur = [], 0, []
    for ch in s:
        depth += (ch == "(") - (ch == ")")
        if depth < 0:
            raise ParseError(f"unbalanced parentheses in {s!r}")
        if ch == sep and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if depth:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    parts.append("".join(cur))
    return parts


def _parse_element(spec: FieldSpec, text: str) -> int:
    """The index of a coefficient written as an int or a coordinate list."""
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
        parts = [p.strip() for p in text.split(",")] if text.strip() else []
        try:
            return spec.element([int(p) for p in parts]).index()
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad field element {text!r}: {exc}") from None
    try:
        return spec.element(int(text)).index()
    except ValueError:
        raise ParseError(f"bad field element {text!r}") from None


def parse_poly(spec: FieldSpec, text: str) -> Poly:
    """Parse either text form (terms joined by +, or a coefficient list)."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    if "T" not in s:  # coefficient list, ascending
        return _make(spec, [_parse_element(spec, item) for item in _split_top(s, ",")])
    F = _field(spec)
    acc: dict[int, int] = {}
    for raw in _split_top(s, "+"):
        term = raw.strip().replace(" ", "")
        m = _TERM_RE.match(term)
        if not m or (m.group("vec") is None and m.group("int") is None and m.group("var") is None):
            raise ParseError(f"bad term {raw!r} in polynomial {text!r}")
        if m.group("vec") is not None:
            c = _parse_element(spec, "(" + m.group("vec") + ")")
        else:
            c = _parse_element(spec, m.group("int") or "1")
        if m.group("var") is None:
            k = 0
        else:
            k = int(m.group("exp")) if m.group("exp") else 1
        acc[k] = F.add(acc.get(k, 0), c)
    return _make(spec, [acc.get(i, 0) for i in range(max(acc) + 1)])


def _format_coeff(spec: FieldSpec, i: int) -> str:
    if spec.a == 1:
        return str(i)
    return "(" + ",".join(map(str, _coordinates((i,), spec.p, spec.a))) + ")"


def format_poly(f: Poly, style: str = "human") -> str:
    if style == "list":
        if f.is_zero():
            return "0"
        return ",".join(_format_coeff(f.spec, c) for c in f.ints)
    if style != "human":
        raise ValueError(f"unknown style {style!r}")
    if f.is_zero():
        return "0"
    terms = []
    for k in range(len(f.ints) - 1, -1, -1):
        c = f.ints[k]
        if not c:
            continue
        if k == 0:
            terms.append(_format_coeff(f.spec, c))
        else:
            var = "T" if k == 1 else f"T^{k}"
            terms.append(var if c == 1 else f"{_format_coeff(f.spec, c)}*{var}")
    return "+".join(terms)
