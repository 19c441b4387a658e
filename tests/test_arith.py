from math import isqrt

import pytest

from cyclesets.arith import factorize, ilog, is_prime


def trial_division(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_equals_trial_division():
    for n in range(-5, 5001):
        assert is_prime(n) == trial_division(n), n


@pytest.mark.parametrize("n,prime", [
    (999_983, True),
    (1_000_003, True),
    (2 ** 31 - 1, True),
    (10 ** 9 + 7, True),
    (2 * 1_000_003, False),
    (1_000_003 ** 2, False),
    (999_983 * 1_000_003, False),
    (65_537 * (2 ** 31 - 1), False),
])
def test_is_prime_large(n, prime):
    assert is_prime(n) is prime


def test_factorize_and_ilog_reject_bad_input():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        ilog(12, 2)
    for n in (0, -8):
        with pytest.raises(ValueError, match=f"^{n} is not a power of 2$"):
            ilog(n, 2)
