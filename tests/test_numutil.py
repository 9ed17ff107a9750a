import math
import random
import time

import pytest

from carlitzdigits.errors import ResourceLimitError
from carlitzdigits.numutil import (
    RHO_BUDGET,
    TRIAL_BOUND,
    _rho_divisor,
    divisors,
    element_order,
    factorize,
    is_prime,
    least_witness,
    mobius,
    prime_factors,
    totient,
)

from conftest import trial_factorize


def brute_is_prime(n):
    if n < 2:
        return False
    return all(n % k for k in range(2, n))


def test_is_prime_matches_brute_force():
    for n in range(0, 500):
        assert is_prime(n) == brute_is_prime(n)


def test_is_prime_large():
    """Strong pseudoprimes to the first 9 and the first 12 prime bases are
    rejected; at the bound of exactness the test refuses."""
    assert not is_prime(3825123056546413051)
    assert not is_prime(318665857834031151167461)
    assert is_prime(2**61 - 1) and not is_prime(2**62 - 1)
    assert is_prime(2**62 - 57) and not is_prime(2**62 - 59)
    with pytest.raises(ValueError):
        is_prime(3317044064679887385961981)


def test_factorize_reconstructs_and_uses_primes():
    for n in range(2, 2000):
        total = 1
        last = 0
        for p, e in factorize(n):
            assert is_prime(p)
            assert e >= 1
            assert p > last
            last = p
            total *= p**e
        assert total == n


def test_factorize_one_is_empty():
    assert factorize(1) == ()


def test_factorize_matches_trial_division():
    """Every n < 10^5, random n < 10^12, and products of two or three primes
    above TRIAL_BOUND, which only rho splits."""
    for n in range(1, 10**5):
        assert factorize(n) == trial_factorize(n)
    rng = random.Random(12)
    primes = [p for p in range(TRIAL_BOUND, 20000) if is_prime(p)]
    cases = [rng.randrange(1, 10**12) for _ in range(40)]
    cases += [rng.choice(primes) * rng.choice(primes) for _ in range(40)]
    cases += [rng.choice(primes[:200]) ** 2 * rng.choice(primes[:200]) for _ in range(20)]
    for n in cases:
        assert factorize(n) == trial_factorize(n)


def test_rho_divisor_splits_every_odd_composite():
    for n in range(9, 10**5, 2):
        if not is_prime(n):
            d, left = _rho_divisor(n, RHO_BUDGET)
            assert 1 < d < n and n % d == 0
            assert 0 <= left < RHO_BUDGET


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 49])
def test_factorize_group_orders(q):
    """q^d - 1 below 10^24, the exponents of F_{q^d}^x: certified primes,
    ascending, whose product is q^d - 1."""
    d = 1
    while q**d - 1 < 10**24:
        total, last = 1, 1
        for p, e in factorize(q**d - 1):
            assert is_prime(p) and e >= 1 and p > last
            total, last = total * p**e, p
        assert total == q**d - 1
        d += 1


def test_factorize_refuses_within_budget():
    """3 * (2^127 - 1): after trial division, rho spends its budget on a
    prime too large for is_prime to certify, and the request is refused,
    not left to is_prime's ValueError."""
    start = time.process_time()
    with pytest.raises(ResourceLimitError, match="budget"):
        factorize(3 * (2**127 - 1))
    assert time.process_time() - start < 10


def test_prime_factors():
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)


def test_divisors_sorted_and_complete():
    for n in (1, 2, 12, 26, 24, 360, 97):
        ds = divisors(n)
        assert list(ds) == sorted(ds)
        assert list(ds) == [k for k in range(1, n + 1) if n % k == 0]


def test_totient_counts_the_units():
    for n in list(range(1, 600)) + [1023, 8191, 524287]:
        assert totient(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_mobius_matches_definition():
    """mu(n) is 0 when a square k^2 > 1 divides n, else (-1)^(number of
    primes dividing n); its sum over the divisors of n is [n = 1]."""
    for n in range(1, 1001):
        primes = [p for p in range(2, n + 1) if n % p == 0 and brute_is_prime(p)]
        squarefree = all(n % (k * k) for k in range(2, math.isqrt(n) + 1))
        assert mobius(n) == ((-1) ** len(primes) if squarefree else 0)
        assert sum(mobius(d) for d in divisors(n)) == (n == 1)


def test_order_and_witness_match_stepping():
    """On (Z/m)^x, m <= 500, of order n = phi(m): the order of every unit x
    is that found by stepping its powers, and the least witness is the least
    prime ell | n with x^(n/ell) = 1, that is with ell | n / order."""
    for m in range(2, 501):
        units = [x for x in range(1, m) if math.gcd(x, m) == 1]
        n = len(units)
        for x in units:
            order, y = 1, x % m
            while y != 1 % m:
                order, y = order + 1, y * x % m
            is_one = lambda e: pow(x, e, m) == 1 % m
            assert element_order(n, is_one) == order
            rest = n // order
            want = next((ell for ell in range(2, rest + 1) if rest % ell == 0), None)
            assert least_witness(n, is_one) == want
