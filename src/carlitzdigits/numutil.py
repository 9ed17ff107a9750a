"""Small integer helpers: a primality test, factoring, divisor lists, the
Moebius function, and the one order loop of the package.

Factoring trial-divides by the integers below TRIAL_BOUND only.  Each
cofactor left is certified prime by is_prime, or split by Pollard's rho
with Brent's cycle finding (Pollard 1975; Brent 1980) and its parts
treated alike; a request whose cofactors do not split within RHO_BUDGET
steps, or which cannot be certified, is refused with ResourceLimitError.
The group orders of classnum and sweep, at most 10^6 = TRIAL_BOUND^2,
factor by trial division alone; the exponents p^s * lcm(q^i - 1) of
(A/M)^x that digit periods need run to hundreds of bits and need the rest.
Primality is deterministic Miller-Rabin, which also certifies the 62-bit
primes of cycint's modular resultant.

Order and primitivity tests (F_q^x, (A/M)^x) run element_order or
least_witness, which divide the primes of the group order n out one by one
(Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.4.3),
given a power test is_one(e), that is x^e = 1, but for the point count's
scan of the k | l with k * f <= g and build_context's proof by division.
"""

from __future__ import annotations

import functools
import math

from .errors import ResourceLimitError


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015); the least strong pseudoprime to all of them.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality for n below 3.3 * 10^24; ValueError above."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError(f"primality of {n} is certified only below {_MR_EXACT_BELOW}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Factoring trial-divides by the integers below this bound, so a cofactor
# left below its square is prime.
TRIAL_BOUND = 1000

# Steps x -> x^2 + c mod the cofactor that one factorize call may spend in
# Pollard's rho before it is refused: spending all of them on 2^127 - 1
# takes 1.3 s of CPU on a 2-core shared host.  A prime factor p takes about
# sqrt(p) steps to split off, so a number whose second-largest prime factor
# is below about 10^12 factors.
RHO_BUDGET = 2**22

# Differences x - y multiplied together per gcd in Brent's loop.
_RHO_BATCH = 128


@functools.lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending.

    ResourceLimitError when a cofactor neither splits within RHO_BUDGET
    steps of rho nor is certified prime (is_prime, below _MR_EXACT_BELOW).
    """
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    f = 2
    while f < TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            n //= f
            out[f] = out.get(f, 0) + 1
        f += 1 if f == 2 else 2
    budget = RHO_BUDGET
    todo = [n] if n > 1 else []
    while todo:
        c = todo.pop()
        if c < TRIAL_BOUND**2 or (c < _MR_EXACT_BELOW and is_prime(c)):
            out[c] = out.get(c, 0) + 1
        else:
            d, budget = _rho_divisor(c, budget)
            todo += (d, c // d)
    return tuple(sorted(out.items()))


def _rho_divisor(n: int, budget: int) -> tuple[int, int]:
    """(d, steps left) for a divisor 1 < d < n of n, found with at most
    budget steps of x -> x^2 + c mod n; n has no prime factor below
    TRIAL_BOUND and is composite, or is a prime too large to certify.

    Brent's variant of Pollard's rho: y runs r steps ahead of the saved x,
    r doubling, and the differences x - y are multiplied in batches, one gcd
    per batch; a batch whose gcd is n is stepped again one by one, and a
    sequence that closes on n tries the next c.  ResourceLimitError before
    a round that would overspend the budget.
    """
    c = 0
    while True:
        c += 1
        y, r, acc, g = 2, 1, 1, 1
        while g == 1:
            budget -= 2 * r  # r steps to run y ahead, at most r more in batches
            if budget < 0:
                uncertified = (f"; primality is certified only below {_MR_EXACT_BELOW}"
                               if n >= _MR_EXACT_BELOW else "")
                raise ResourceLimitError(
                    f"no factor of {n} found within the budget of {RHO_BUDGET} rho steps"
                    + uncertified
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                g = math.gcd(acc, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g, budget


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def totient(n: int) -> int:
    """Euler's phi(n), the degree of the n-th cyclotomic polynomial."""
    for p in prime_factors(n):
        n = n // p * (p - 1)
    return n


def mobius(n: int) -> int:
    """The Moebius function: 0 when a square above 1 divides n, else
    (-1)^(number of primes of n)."""
    exps = [e for _, e in factorize(n)]
    return 0 if max(exps, default=1) > 1 else (-1) ** len(exps)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def element_order(n: int, is_one) -> int:
    """The order t | n of an x with x^n = 1: each prime ell of n is divided
    out of t while is_one(t / ell)."""
    t = n
    for ell in prime_factors(n):
        while t % ell == 0 and is_one(t // ell):
            t //= ell
    return t


def least_witness(n: int, is_one) -> int | None:
    """The least prime ell | n with is_one(n / ell); None when x has order n."""
    return next((ell for ell in prime_factors(n) if is_one(n // ell)), None)
