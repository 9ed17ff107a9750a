"""Reference arithmetic the benchmark checks the package against.

Nothing here imports carlitzdigits.  A field F_q (q = p^a) is a pair of
addition and multiplication tables over element indices 0..q-1, in the
package's documented order: the coefficient vector (c_0, ..., c_{a-1}) of
c_0 + c_1*g + ... has index c_0 + c_1*p + ..., and g is a root of the
package's built-in modulus for F_4 or F_9.  A polynomial over F_q is a
list of indices, ascending by degree, with no trailing zeros.
"""

from __future__ import annotations

import cmath
import math

# Built-in moduli of the package for the extension fields used here
# (ascending F_p coefficients of a monic irreducible of degree a).
MODULI = {4: (2, (1, 1, 1)), 9: (3, (2, 2, 1))}


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def divisors(n: int) -> list[int]:
    return [k for k in range(1, n + 1) if n % k == 0]


class Field:
    """F_q as tables; elements are ints 0..q-1."""

    def __init__(self, q: int):
        if q in MODULI:
            p, mod = MODULI[q]
            a = len(mod) - 1
        else:
            if len(prime_factors(q)) != 1 or prime_factors(q)[0] != q:
                raise ValueError(f"no reference field of order {q}")
            p, mod, a = q, None, 1
        self.q, self.p, self.a, self.modulus = q, p, a, mod
        vecs = [[i // p**k % p for k in range(a)] for i in range(q)]
        index = lambda v: sum(c * p**k for k, c in enumerate(v))
        self.add = [[index([(x + y) % p for x, y in zip(u, v)]) for v in vecs] for u in vecs]
        self.mul = [[index(self._vec_mul(u, v)) for v in vecs] for u in vecs]
        self.neg = [index([-x % p for x in u]) for u in vecs]
        self.sub = [[self.add[i][self.neg[j]] for j in range(q)] for i in range(q)]
        self.inv = [0] * q
        for i in range(1, q):
            self.inv[i] = next(j for j in range(1, q) if self.mul[i][j] == 1)
        self.vecs = vecs

    def _vec_mul(self, u, v):
        p, a = self.p, self.a
        prod = [0] * (2 * a - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, a - 1, -1):
            c = prod[k]
            if c:
                for i in range(a + 1):
                    prod[k - a + i] = (prod[k - a + i] - c * self.modulus[i]) % p
        return prod[:a]

    def coeff_text(self, c: int) -> str:
        if self.a == 1:
            return str(c)
        return "(" + ",".join(str(x) for x in self.vecs[c]) + ")"


# -- polynomials over F ------------------------------------------------

def trim(f: list[int]) -> list[int]:
    while f and f[-1] == 0:
        f.pop()
    return f


def deg(f: list[int]) -> int:
    """Degree, with -1 for the zero polynomial."""
    return len(f) - 1


def padd(F: Field, f, g):
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    add = F.add
    for i, c in enumerate(g):
        out[i] = add[out[i]][c]
    return trim(out)


def psub(F: Field, f, g):
    return padd(F, f, [F.neg[c] for c in g])


def pscale(F: Field, f, c: int):
    row = F.mul[c]
    return trim([row[x] for x in f])


def pmul(F: Field, f, g):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    add, mul = F.add, F.mul
    for i, x in enumerate(f):
        if x:
            row = mul[x]
            for j, y in enumerate(g):
                if y:
                    out[i + j] = add[out[i + j]][row[y]]
    return trim(out)


def pdivmod(F: Field, f, g):
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    dg = len(g) - 1
    rem = list(f)
    if len(rem) - 1 < dg:
        return [], rem
    inv = F.inv[g[-1]]
    quo = [0] * (len(rem) - dg)
    sub, mul = F.sub, F.mul
    for k in range(len(rem) - dg - 1, -1, -1):
        c = mul[rem[k + dg]][inv]
        if c:
            quo[k] = c
            row = mul[c]
            for i, b in enumerate(g):
                rem[k + i] = sub[rem[k + i]][row[b]]
    return trim(quo), trim(rem[:dg])


def pmod(F: Field, f, g):
    return pdivmod(F, f, g)[1]


def powmod(F: Field, f, e: int, m):
    result = pmod(F, [1], m)
    acc = pmod(F, f, m)
    while e:
        if e & 1:
            result = pmod(F, pmul(F, result, acc), m)
        acc = pmod(F, pmul(F, acc, acc), m)
        e >>= 1
    return result


def pmonic(F: Field, f):
    return pscale(F, f, F.inv[f[-1]])


def pgcd(F: Field, f, g):
    """Monic gcd (the zero polynomial for gcd(0, 0))."""
    while g:
        f, g = g, pmod(F, f, g)
    return pmonic(F, f) if f else f


def is_irreducible(F: Field, f) -> bool:
    """Rabin's test on a polynomial of degree >= 1."""
    d = deg(f)
    if d == 1:
        return True
    x = [0, 1]
    frob = [pmod(F, x, f)]  # frob[k] = x^(q^k) mod f
    for _ in range(d):
        frob.append(powmod(F, frob[-1], F.q, f))
    if frob[d] != frob[0]:
        return False
    for ell in prime_factors(d):
        if deg(pgcd(F, psub(F, frob[d // ell], frob[0]), f)) != 0:
            return False
    return True


def mult_order_is(F: Field, g, m, order: int) -> bool:
    """True when g has multiplicative order exactly `order` modulo m."""
    one = pmod(F, [1], m)
    if powmod(F, g, order, m) != one:
        return False
    return all(powmod(F, g, order // ell, m) != one for ell in prime_factors(order))


def monic_below(F: Field, d: int):
    """(poly, degree) for every monic polynomial of degree < d."""
    q = F.q
    for s in range(d):
        for idx in range(q**s):
            yield [idx // q**i % q for i in range(s)] + [1], s


def poly_text(F: Field, f) -> str:
    """The package's human grammar, e.g. "T^3+2*T+2" or "(1,1)*T^2+(0,1)"."""
    if not f:
        return "0"
    terms = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if not c:
            continue
        var = "" if k == 0 else ("T" if k == 1 else f"T^{k}")
        if not var:
            terms.append(F.coeff_text(c))
        elif c == 1:
            terms.append(var)
        else:
            terms.append(f"{F.coeff_text(c)}*{var}")
    return "+".join(terms)


def random_poly(F: Field, rng, d: int, monic: bool = False, dense: bool = False):
    """Random polynomial of degree d; dense ones have no zero coefficient."""
    coeffs = [rng.randrange(1 if dense else 0, F.q) for _ in range(d)]
    coeffs.append(1 if monic else rng.randrange(1, F.q))
    return coeffs


def random_irreducible(F: Field, rng, d: int):
    while True:
        f = random_poly(F, rng, d, monic=True)
        if is_irreducible(F, f):
            return f


# -- class numbers -----------------------------------------------------

def legendre_class_number(F: Field, P) -> int:
    """Class number of the quadratic subfield (q odd) by Legendre sums.

    chi(I) = I^((q^d-1)/2) mod P is +1 or -1 for monic I of degree < d;
    the class number is -sum chi(I) deg I for even d and sum chi(I) for
    odd d.
    """
    d = deg(P)
    half = (F.q**d - 1) // 2
    total = 0
    for poly, s in monic_below(F, d):
        v = powmod(F, poly, half, P)
        if v == [1]:
            chi = 1
        elif v == [F.neg[1]]:
            chi = -1
        else:
            raise ArithmeticError("Euler criterion gave neither +1 nor -1")
        total += chi * (s if d % 2 == 0 else 1)
    return -total if d % 2 == 0 else total


class CharSums:
    """Floating character sums mod an irreducible P, by an own power table.

    For every s mod N = q^d - 1, S0[s] = sum chi_s(I) and S1[s] =
    sum chi_s(I) deg I over monic I of degree < d, where chi_s(g^k) =
    exp(2 pi i s k / N) for the least primitive residue g.  The group
    X_L = {chi : chi^l = 1} is {chi_s : s a multiple of N/l} whichever
    generator is used, and chi_s is even (trivial on F_q^x) when q - 1
    divides s.
    """

    def __init__(self, F: Field, P):
        d = deg(P)
        self.N = N = F.q**d - 1
        self.q = F.q
        primes = prime_factors(N) if N > 1 else []
        one = pmod(F, [1], P)
        for idx in range(1, F.q**d):
            g = trim([idx // F.q**i % F.q for i in range(d)])
            if all(powmod(F, g, N // ell, P) != one for ell in primes):
                break
        dlog = {}
        cur = one
        for k in range(N):
            dlog[tuple(cur)] = k
            cur = pmod(F, pmul(F, cur, g), P)
        logs = [(dlog[tuple(poly)], s) for poly, s in monic_below(F, d)]
        cos = [math.cos(2 * math.pi * t / N) for t in range(N)]
        sin = [math.sin(2 * math.pi * t / N) for t in range(N)]
        self.S0, self.S1 = [], []
        for s in range(N):
            idx = [(s * k % N, w) for k, w in logs]
            self.S0.append(complex(math.fsum(cos[t] for t, _ in idx),
                                   math.fsum(sin[t] for t, _ in idx)))
            self.S1.append(complex(math.fsum(w * cos[t] for t, w in idx),
                                   math.fsum(w * sin[t] for t, w in idx)))

    def log_parts(self, l: int) -> tuple[complex, complex]:
        """Complex logs of h+ and h- for the degree-l subfield."""
        N = self.N
        log_plus = log_minus = 0j
        for t in range(l):
            s = t * (N // l)
            if s % (self.q - 1) == 0:
                if s:
                    log_plus += cmath.log(-self.S1[s])
            else:
                log_minus += cmath.log(self.S0[s])
        return log_plus, log_minus


def matches_log(value: int, log_value: complex, rel: float) -> bool:
    """True when the positive integer value equals exp(log_value) within rel."""
    if value < 1:
        return False
    return abs(cmath.exp(log_value - math.log(value)) - 1) <= rel


def rounded(log_value: complex, rel: float) -> int | None:
    """The integer exp(log_value) rounds to, or None when it is not within rel."""
    z = cmath.exp(log_value)
    value = round(z.real)
    return value if matches_log(value, log_value, rel) else None


# -- digits and the Carlitz action ---------------------------------------

def long_division_digits(F: Field, num, den, base, n: int):
    """H_0 and the first n digits of num/den in base G, by long division."""
    h0, rem = pdivmod(F, num, den)
    digits = []
    for _ in range(n):
        hk, rem = pdivmod(F, pmul(F, base, rem), den)
        digits.append(hk)
    return h0, digits


def carlitz_horner(F: Field, I, f):
    """rho_I(f) by Horner over I with rho_T(y) = T*y + y^q.

    Over F_q every coefficient satisfies a^q = a, so y^q spreads the
    coefficients of y to the exponents k*q.
    """
    q = F.q
    acc = []
    for a in reversed(I):
        spread = [0] * (q * (len(acc) - 1) + 1) if acc else []
        for k, c in enumerate(acc):
            spread[k * q] = c
        acc = padd(F, padd(F, [0] + acc if acc else [], spread), pscale(F, f, a))
    return acc


# -- self-test against the paper's pinned values ---------------------------

def self_test() -> list[str]:
    """Reproduce the paper's pinned values through the routes above.

    Returns the failures; the empty list means every value was reproduced.
    """
    failures = []

    def expect(what, got, want):
        if got != want:
            failures.append(f"{what}: expected {want!r}, got {got!r}")

    for q in (2, 3, 4, 5, 7, 9, 11):
        F = Field(q)
        rng = range(q)
        if any(F.mul[a][F.add[b][c]] != F.add[F.mul[a][b]][F.mul[a][c]]
               for a in rng for b in rng for c in rng):
            failures.append(f"F_{q}: multiplication does not distribute")
        if any(sorted(F.mul[a][1:]) != list(range(1, q)) for a in range(1, q)):
            failures.append(f"F_{q}: a nonzero element is not invertible")
    F2, F3 = Field(2), Field(3)
    _, digits = long_division_digits(F3, [1], [1, 0, 1], [2, 1, 1], 4)
    expect("digits of 1/(T^2+1) in base T^2+T+2 over F_3",
           [poly_text(F3, h) for h in digits], ["1", "T+2", "2*T+2", "2*T"])
    _, digits = long_division_digits(F3, [1], [2, 2, 0, 1], [2, 1, 0, 1], 13)
    expect("digits of 1/(T^3+2T+2) in base T^3+T+2 over F_3",
           [poly_text(F3, h) for h in digits],
           ["1", "2*T", "T^2+2", "2*T+2", "T^2+T+2", "2*T^2+2*T", "T^2+2*T",
            "T^2+T+1", "2*T^2", "2*T+1", "T^2+2*T+2", "T^2+2*T+1", "T^2+1"])
    expect("quadratic class number of T^2+1 over F_3",
           legendre_class_number(F3, [1, 0, 1]), 1)
    expect("quadratic class number of T^3+2T+2 over F_3",
           legendre_class_number(F3, [2, 2, 0, 1]), 7)
    log_plus, _ = CharSums(F2, [1, 1, 0, 1]).log_parts(7)
    expect("h+ of the full field of T^3+T+1 over F_2", rounded(log_plus, 1e-9), 71)
    _, log_minus = CharSums(F3, [2, 2, 0, 1]).log_parts(26)
    expect("h- of the full field of T^3+2T+2 over F_3",
           rounded(log_minus, 1e-9), 774144)
    return failures
