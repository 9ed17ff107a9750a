import pytest

from carlitzdigits.numutil import divisors, factorize, is_prime, prime_factors


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
