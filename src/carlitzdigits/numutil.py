"""Small integer helpers: a primality test, trial-division factoring and
divisor lists.

Factoring here is deliberately naive.  Group orders in this package are
desk-scale (the character machinery refuses anything past 64 bits), so
trial division is always sufficient and keeps the dependency surface empty.
Primality is deterministic Miller-Rabin, which also certifies the 62-bit
primes of cycint's modular resultant.
"""

from __future__ import annotations

import functools


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


@functools.lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, e), ...) with p ascending."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def prime_factors(n: int) -> tuple[int, ...]:
    return tuple(p for p, _ in factorize(n))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorize(n):
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)
