"""Small integer helpers used by the construction and classification code."""

from __future__ import annotations


def is_prime(n: int) -> bool:
    return n > 1 and factorize(n) == {n: 1}


def factorize(n: int) -> dict[int, int]:
    """Prime factorization as {prime: multiplicity}; n must be >= 1."""
    if n < 1:
        raise ValueError("factorize expects a positive integer")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n == p**k and k >= 1, or None."""
    if n < 2:
        return None
    fact = factorize(n)
    if len(fact) != 1:
        return None
    (p, k), = fact.items()
    return p, k


def ilog(n: int, p: int) -> int:
    """Exact logarithm: the e with p**e == n. Raises if n is not a power of p."""
    e = 0
    m = n
    while m > 1:
        if m % p:
            raise ValueError(f"{n} is not a power of {p}")
        m //= p
        e += 1
    if p ** e != n:
        raise ValueError(f"{n} is not a power of {p}")
    return e

