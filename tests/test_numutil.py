import math

import pytest

from carlitzdigits.numutil import (
    divisors,
    element_order,
    factorize,
    is_prime,
    least_witness,
    prime_factors,
)


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


def test_prime_factors():
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)


def test_divisors_sorted_and_complete():
    for n in (1, 2, 12, 26, 24, 360, 97):
        ds = divisors(n)
        assert list(ds) == sorted(ds)
        assert list(ds) == [k for k in range(1, n + 1) if n % k == 0]


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
