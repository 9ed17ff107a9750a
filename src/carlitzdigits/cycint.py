"""Exact arithmetic in rings of cyclotomic integers Z[zeta_n].

A value is a vector of phi(n) arbitrary-precision integers: the residue of
an integer polynomial in zeta_n modulo the n-th cyclotomic polynomial.
Since Phi_n is the minimal polynomial of zeta_n over Q, a rational integer
has exactly one representation (everything in coordinate 0), which is what
makes ``as_integer`` a sound collapse test for class number products.

``norm`` (the digit route's exact norm) and ``int_poly_resultant`` work on
plain int lists, not CycloInt, and each joins residues mod primes just
below 2^62 (``_prime``, certified by ``numutil.is_prime``) by one CRT loop
(``_crt``) until the product of the primes exceeds twice a proven bound on
the answer, then returns the symmetric residue.  ``norm`` folds its input
mod x^t - 1 by ``_folded`` (the one fold of (e, w) pairs) and evaluates it
at the primitive t-th roots of unity mod primes p = 1 (mod 2t), by one
cyclic Bluestein transform per prime (``_norm_mod``): a chirp, one
unsigned Kronecker product by a filter packed once, and a fold mod x^t - 1.
Its primes, roots, chirps and filters are cached per order and prime
(``_norm_plan``), and its bound is Parseval/AM-GM.  It calls none of
``_reduce``, ``_mul`` or the oracle's orbit products.
``int_poly_resultant`` runs Euclid in F_p[x] under Hadamard's bound on
the Sylvester determinant.

CycloInt serves the character-sum route's Galois-orbit products.  Every
product, a * b and the orbit product's a * sigma_u(b) alike, is one call
of ``_mul``: b's slots packed once and laid out as sigma_u(b), one signed
Kronecker product in byte slots with an offset of half a slot, folded mod
x^n - 1 and reduced mod the sparse multiple sum_{i<p} x^(i*n/p) of Phi_n
(p the least prime of n) while still packed, then one ``to_bytes`` and a
pass through the nonzero terms of Phi_n.  Every other vector (``galois``,
``lift``, ``root_of_unity``, ``exponent_sum``) is reduced by ``_reduce``,
which takes the same three stages on a list.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

from .numutil import divisors, is_prime, mobius, prime_factors


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending.  Phi_1 = x - 1.

    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d): the factors with mu = +1 are
    multiplied in first, then those with mu = -1 divided out, each division
    exact.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ds = divisors(n)
    f = [1]
    for d in (d for d in ds if mobius(n // d) == 1):  # f * (x^d - 1)
        f = [0] * d + f
        for i in range(len(f) - d):
            f[i] -= f[i + d]
    for d in (d for d in ds if mobius(n // d) == -1):  # f / (x^d - 1)
        f = [-c for c in f[:-d]]
        for i in range(d, len(f)):
            f[i] += f[i - d]
    return tuple(f)


@functools.lru_cache(maxsize=None)
def _reduction_plan(n: int) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """(m, deg, terms) for _reduce at order n.

    m = n/p for p the least prime factor of n (m = 0 for n = 1), so that
    Psi = sum_{i<p} x^(i*m) = (x^n - 1)/(x^m - 1) is a multiple of Phi_n
    of degree n - m; deg = phi(n), and terms holds (i - deg, a) for each
    nonzero a = Phi_n[i], i < deg.
    """
    phi = cyclotomic_poly(n)
    deg = len(phi) - 1
    m = n // prime_factors(n)[0] if n > 1 else 0
    return m, deg, tuple((i - deg, a) for i, a in enumerate(phi[:deg]) if a)


def _reduce(n: int, vec: list[int]) -> tuple[int, ...]:
    """Reduce an integer polynomial in zeta_n mod Phi_n, in three stages.

    Phi_n divides x^n - 1 and Psi = (x^n - 1)/(x^m - 1), m = n/p for p the
    least prime of n (zeta_n is no root of x^m - 1).  So the vector is
    first folded mod x^n - 1, block by block from the top down (any length
    is safe); then its top block of m coefficients, those of degree
    n - m and up, is subtracted from each of the p - 1 blocks below it,
    which reduces mod Psi = x^(n/2) + 1 for even n and Phi_n itself for
    prime n; only the degrees from n - m - 1 down to phi(n) are left to
    reduce through the nonzero terms of Phi_n.
    """
    m, deg, terms = _reduction_plan(n)
    vec = list(vec)
    hi = len(vec)
    while hi > n:
        lo = max(n, hi - n)
        vec[lo - n : hi - n] = map(operator.add, vec[lo - n : hi - n], vec[lo:hi])
        hi = lo
    del vec[n:]
    cut = n - m
    if len(vec) > cut:
        top = vec[cut:]
        del vec[cut:]
        for i in range(0, cut, m):
            vec[i : i + len(top)] = map(operator.sub, vec[i : i + len(top)], top)
    return _reduce_terms(vec, deg, terms)


def _reduce_terms(vec: list[int], deg: int, terms) -> tuple[int, ...]:
    """The last stage of _reduce and _mul: vec, of degree below n - m,
    reduced through the nonzero terms (i - deg, a) of Phi_n, top down, and
    padded to deg = phi(n) coordinates."""
    for k in range(len(vec) - 1, deg - 1, -1):
        c = vec[k]
        if c:
            for i, a in terms:
                vec[k + i] -= c * a
    out = vec[:deg]
    out += [0] * (deg - len(out))
    return tuple(out)


@functools.lru_cache(maxsize=1024)
def _spread(n: int, u: int) -> operator.itemgetter:
    """The map laying sigma_u(b) out over n slots, n >= 2, u a unit mod n:
    slot k reads b's slot j = k / u (mod n) where j < phi(n), and else the
    zero slot phi(n) packed after b's."""
    deg = len(cyclotomic_poly(n)) - 1
    inv = pow(u, -1, n)
    return operator.itemgetter(*(min(k * inv % n, deg) for k in range(n)))


@functools.lru_cache(maxsize=256)
def _offset(size: int, length: int) -> int:
    """2^(w-1) in each of length slots of w = 8 * size bits."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * length, "little")


@functools.lru_cache(maxsize=256)
def _blocks(size: int, m: int, count: int) -> int:
    """sum_{i<count} 2^(w*i*m), w = 8 * size: times a packed block of m
    slots of w bits, count copies of it side by side."""
    return int.from_bytes((b"\x01" + bytes(size * m - 1)) * count, "little")


def _mul(n: int, a, b, u: int) -> tuple[int, ...]:
    """a * sigma_u(b) mod Phi_n for reduced coefficient tuples a, b and a
    unit u mod n, by one signed Kronecker product.

    Each slot of w bits holds its coefficient plus 2^(w-1).  b's slots are
    packed once, laid out as sigma_u(b) over n slots (_spread) and reduced
    mod Psi = sum_{i<p} x^(i*m), m = n/p for p the least prime of n, as in
    _reduce: the top block of m slots comes off each of the p - 1 blocks
    below it, as one product by sum_{i<p-1} 2^(w*i*m) (_blocks).  That
    leaves n - m slots of at most 2 * max|b|, each of which meets each of
    a's phi(n) slots once in the product and in its fold mod x^n - 1 (the
    top slots added to the low n ones), so both have coefficients of at
    most 2 * phi(n) * max|a| * max|b|; the fold reduced mod Psi in the same
    way has twice that.  So a slot of the fewest bytes with
    2^(w-1) > 4 * phi(n) * max|a| * max|b| holds every stage.  Only the
    n - m slots left are unpacked, by one to_bytes, for _reduce_terms.
    """
    if n == 1:
        return (a[0] * b[0],)
    m, deg, terms = _reduction_plan(n)
    bound = 4 * deg * max(map(abs, a)) * max(map(abs, b))
    if not bound:
        return (0,) * deg
    size = -(-(bound.bit_length() + 1) // 8)
    w, cut = 8 * size, n - m
    half, low, blocks = 1 << (w - 1), (1 << (w * cut)) - 1, _blocks(size, m, cut // m)
    slots = [(x + half).to_bytes(size, "little") for x in b]
    slots.append(half.to_bytes(size, "little"))
    spread = int.from_bytes(b"".join(_spread(n, u % n)(slots)), "little")
    spread = (spread & low) - (spread >> (w * cut)) * blocks  # signed, the offsets cancel
    A = int.from_bytes(b"".join([(x + half).to_bytes(size, "little") for x in a]), "little")
    prod = (A - _offset(size, deg)) * spread + _offset(size, n)  # the low n slots offset
    prod = (prod >> (w * n)) + (prod & ((1 << (w * n)) - 1))
    prod = (prod & low) - ((prod >> (w * cut)) - _offset(size, m)) * blocks
    buf = prod.to_bytes(cut * size, "little")
    vec = [int.from_bytes(buf[i : i + size], "little") - half for i in range(0, cut * size, size)]
    return _reduce_terms(vec, deg, terms)


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
        """Product by an int, or in Z[zeta_n] (_mul)."""
        if isinstance(other, int):
            return CycloInt(self.n, tuple(a * other for a in self.coeffs))
        self._check(other)
        return CycloInt(self.n, _mul(self.n, self.coeffs, other.coeffs, 1))

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
        return exponent_sum(m, ((i * k, c) for i, c in enumerate(self.coeffs)))

    def galois(self, u: int) -> "CycloInt":
        """Image under sigma_u: zeta_n -> zeta_n^u, for gcd(u, n) = 1."""
        if math.gcd(u, self.n) != 1:
            raise ValueError(f"{u} is not a unit mod {self.n}")
        return exponent_sum(self.n, ((u * i, c) for i, c in enumerate(self.coeffs)))

    def as_integer(self) -> int | None:
        """The rational integer this value equals, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]


def root_of_unity(n: int, k: int = 1) -> CycloInt:
    """zeta_n^k as an element of Z[zeta_n]."""
    k %= n
    vec = [0] * (k + 1)
    vec[k] = 1
    return CycloInt(n, _reduce(n, vec))


def _folded(t: int, pairs) -> list[int]:
    """The (e, w) pairs as a vector mod x^t - 1: entry k sums w over e = k mod t."""
    vec = [0] * t
    for e, w in pairs:
        vec[e % t] += w
    return vec


def exponent_sum(n: int, weighted_exponents) -> CycloInt:
    """Sum of w * zeta_n^e over (e, w) pairs, accumulated exactly."""
    return CycloInt(n, _reduce(n, _folded(n, weighted_exponents)))


def norm(t: int, coeffs) -> int:
    """N_{Q(zeta_t)/Q} of sum_k coeffs[k] * zeta_t^k, exactly.

    This is the product of b over the primitive t-th roots of unity, b the
    input folded mod x^t - 1.  Parseval over all t-th roots and AM-GM over
    the phi(t) primitive ones bound it: |N|^2 <= (t * sum b_j^2 /
    phi(t))^phi(t).  The product is taken mod the primes of _norm_plan(t,
    k), k = 0, 1, ..., by _norm_mod, and the residues are joined by _crt.
    """
    b = _folded(t, enumerate(coeffs))
    units = _units(t)
    deg = len(units)
    bound_sq = -(-(t * sum(map(operator.mul, b, b))) ** deg // deg**deg)
    plans = map(functools.partial(_norm_plan, t), itertools.count())
    return _crt(((_norm_mod(b, units, plan), plan.p) for plan in plans), bound_sq)


def _crt(residues, bound_sq: int) -> int:
    """The integer x with x^2 <= bound_sq from its residues (r, p), x = r
    (mod p) for distinct primes p: they are joined by CRT, drawing from the
    iterable only until the modulus M satisfies M^2 > 4 * bound_sq; the
    symmetric residue in (-M/2, M/2] is then exact."""
    residues = iter(residues)
    residue, modulus = 0, 1
    while modulus * modulus <= 4 * bound_sq:
        r, p = next(residues)
        residue += modulus * ((r - residue) * pow(modulus, -1, p) % p)
        modulus *= p
    return residue - modulus if 2 * residue > modulus else residue


def _norm_mod(b: list[int], units: tuple[int, ...], plan: _NormPlan) -> int:
    """prod_u b(omega^u) mod p over u in (Z/t)^x, t = len(b), by one
    cyclic Bluestein transform mod the prime p of plan.

    omega = psi^2 has order t and 2kj = k^2 + j^2 - (k - j)^2, so
    b(omega^k) = psi^(k^2) * sum_j (b_j psi^(j^2)) psi^(-(k-j)^2), a cyclic
    convolution of length t, since psi^(-m^2) has period t in m.  It is one
    unsigned Kronecker product of the chirped b by the packed filter,
    folded mod x^t - 1 by adding its top t - 1 slots to its bottom ones: a
    slot holds the t terms of at most (p - 1)^2 of one coefficient.  The
    product over the units is then scale * prod_u conv[u].
    """
    p, _, chirp, filt, size, scale = plan
    w = 8 * size * len(b)
    conv = int.from_bytes(
        b"".join([(x * c % p).to_bytes(size, "little") for x, c in zip(b, chirp)]), "little"
    ) * filt
    buf = ((conv >> w) + (conv & ((1 << w) - 1))).to_bytes(w // 8, "little")
    r = scale
    for u in units:
        r = r * int.from_bytes(buf[u * size : u * size + size], "little") % p
    return r


@functools.lru_cache(maxsize=None)
def _units(t: int) -> tuple[int, ...]:
    """(Z/t)^x as the residues 0 <= u < t prime to t ((0,) for t = 1)."""
    return tuple(u for u in range(t) if math.gcd(u, t) == 1)


@functools.lru_cache(maxsize=None)
def _prime(step: int, k: int) -> int:
    """The k-th prime p = 1 (mod step) below 2^62 (k >= 0), counting down
    from the largest; step 2 gives the odd primes, step 2t norm's at order t."""
    n = ((1 << 62) - 2) // step * step + 1 + step if k == 0 else _prime(step, k - 1)
    n -= step
    while not is_prime(n):
        n -= step
    return n


class _NormPlan(NamedTuple):
    """What norm reads mod one prime p = 1 (mod 2t) at order t."""

    p: int
    psi: int  # of order 2t for even t, t for odd t; psi^2 has order t
    chirp: tuple[int, ...]  # psi^(j^2), j < t
    filt: int  # psi^(-m^2), m < t, one per slot of size bytes
    size: int  # the fewest bytes that hold t * (p - 1)^2
    scale: int  # prod_u psi^(u^2) over (Z/t)^x


def _square_powers(z: int, t: int, p: int) -> tuple[int, ...]:
    """z^(j^2) mod p for j < t, each from the last by z^(2j+1)."""
    out, c, d, z2 = [], 1, z, z * z % p
    for _ in range(t):
        out.append(c)
        c = c * d % p
        d = d * z2 % p
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _norm_plan(t: int, k: int) -> _NormPlan:
    """norm's k-th prime p = _prime(2t, k) and what the transform reads mod p.

    x = g^((p-1)/(2t)) for the least g >= 2 whose x has exact order 2t
    (x^(2t/r) != 1 for each prime r | 2t).  psi = x for even t, where
    psi^(-m^2) has period t because t^2 = 0 (mod 2t); psi = -x = x^(t+1)
    for odd t, of order t, so that psi^(m^2) has period t; psi^2 = x^2 has
    order t either way.
    """
    step = 2 * t
    n = _prime(step, k)
    e = (n - 1) // step
    for g in itertools.count(2):
        x = pow(g, e, n)
        if all(pow(x, step // r, n) != 1 for r in prime_factors(step)):
            break
    psi = x if t % 2 == 0 else n - x
    chirp = _square_powers(psi, t, n)
    size = -(-(t * (n - 1) ** 2).bit_length() // 8)
    filt = int.from_bytes(
        b"".join([h.to_bytes(size, "little") for h in _square_powers(pow(psi, -1, n), t, n)]),
        "little",
    )
    scale = 1
    for u in _units(t):
        scale = scale * chirp[u] % n
    return _NormPlan(n, psi, chirp, filt, size, scale)


def int_poly_resultant(f, g) -> int:
    """Resultant of integer polynomials (ascending coefficients).

    Convention: res(f, g) = lc(f)^deg(g) * product of g over the roots of f.
    Computed mod primes and joined by CRT under the Hadamard bound on the
    Sylvester determinant, |res| <= ||f||_2^deg(g) * ||g||_2^deg(f), so
    the value is exact.
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
    bound_sq = sum(c * c for c in f) ** dg * sum(c * c for c in g) ** df
    return _modular_resultant(f, g, bound_sq)


def _trim_int(f) -> list[int]:
    f = list(f)
    while f and f[-1] == 0:
        f.pop()
    return f


def _modular_resultant(f: list[int], g: list[int], bound_sq: int) -> int:
    """res(f, g) for deg f, deg g >= 0, given |res(f, g)|^2 <= bound_sq.

    Residues mod the primes _prime(2, k) that do not divide lc(f) * lc(g)
    (so the degrees survive reduction) are joined by _crt.
    """
    lead = f[-1] * g[-1]
    primes = map(functools.partial(_prime, 2), itertools.count())
    return _crt(((_resultant_mod(f, g, p), p) for p in primes if lead % p), bound_sq)


def _resultant_mod(f: list[int], g: list[int], p: int) -> int:
    """res(f, g) mod p by Euclid in F_p[x]; p must not divide lc(f) * lc(g).

    Uses res(a, b) = (-1)^(deg a * deg b) res(b, a) and, for deg a <= deg b,
    res(a, b) = lc(a)^(deg b - deg r) res(a, r) with r = b mod a.
    Coefficients are kept highest first; inside one division they are
    left unreduced (each step adds less than p^2) until its last step.
    """
    a = [c % p for c in reversed(f)]
    b = [c % p for c in reversed(g)]
    acc = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        if da > db:
            if da & db & 1:
                acc = -acc
            a, b, da, db = b, a, db, da
        if da == 0:
            return acc * pow(a[0], db, p) % p
        inv = pow(a[0], -1, p)
        tail = a[1:]
        while len(b) > da + 1:
            c = b[0] * inv % p
            b = [x - c * y for x, y in zip(b[1:], tail)] + b[da + 1:]
        c = b[0] * inv % p
        b = [(x - c * y) % p for x, y in zip(b[1:], tail)]
        k = 0
        while k < da and not b[k]:
            k += 1
        if k == da:
            return 0
        b = b[k:]
        acc = acc * pow(a[0], db - (len(b) - 1), p) % p
