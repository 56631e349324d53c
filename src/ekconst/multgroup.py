"""Arithmetic of the multiplicative group Z_q*: primality, primitive roots,
and the power-of-a-generator index sequence used to reorder character sums
into discrete Fourier transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Deterministic Miller-Rabin witness sets: below each bound, the first
# primes listed admit no strong pseudoprime (Jaeschke 1993); the last set
# is complete for all n < 2^64.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUNDS = (
    (3_215_031_751, 4),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

PRIME_LIMIT = 1 << 64


class DomainError(ValueError):
    """An argument outside the domain of the function it was passed to."""


class NotPrimeError(DomainError):
    """Raised when an operation requiring an odd prime gets something else."""


@dataclass(frozen=True)
class PrimeContext:
    """An odd prime q with a primitive root g and m = (q-1)/2.

    The index sequence a_k = g^k mod q, k = 0..q-2, is a permutation of
    1..q-1 and satisfies a_{k+m} = q - a_k because g^m = q-1; residues
    forms any stretch of it.
    """

    q: int
    g: int
    m: int


def is_prime(n: int) -> bool:
    """Deterministic primality verdict for 0 <= n < 2^64, else DomainError."""
    if n >= PRIME_LIMIT:
        raise DomainError(f"{n} is outside the proven 64-bit witness domain")
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    count = next((c for bound, c in _MR_BOUNDS if n < bound),
                 len(_MR_WITNESSES))
    for a in _MR_WITNESSES[:count]:
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


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 by trial division: by 2, then by the
    odd d while d*d <= n; a cofactor above 1 that is left is prime.

    The loop runs at most about sqrt(n)/2 times, so about 27,600 divisions
    for any q - 1 that build_context accepts (q < 3.04e9).
    """
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        factors[n] = 1
    return factors


def primitive_root(q: int) -> int:
    """Smallest g >= 2 generating Z_q* for odd prime q."""
    if q < 3 or not is_prime(q):
        raise NotPrimeError(f"{q} is not an odd prime")
    cofactors = [(q - 1) // p for p in factorize(q - 1)]
    for g in range(2, q):
        if all(pow(g, e, q) != 1 for e in cofactors):
            return g
    raise ArithmeticError(f"no primitive root found for {q}")  # unreachable


# residues forms int64 products of two residues below q
_CONTEXT_LIMIT = math.isqrt(2**63 - 1)


def build_context(q: int) -> PrimeContext:
    """Build the PrimeContext for odd prime q: the limit check and the
    primitive root, O(sqrt(q)) time and no residues."""
    if q > _CONTEXT_LIMIT:
        raise DomainError(
            f"q={q} is above {_CONTEXT_LIMIT}: int64 products of residues "
            f"overflow once q^2 >= 2^63"
        )
    return PrimeContext(q=q, g=primitive_root(q), m=(q - 1) // 2)


def residues(ctx: PrimeContext, k_lo: int, k_hi: int) -> np.ndarray:
    """a_k = g^k mod q for k_lo <= k < k_hi as int64, in O(k_hi - k_lo)
    time and memory from one pow(g, k_lo, q)."""
    q = ctx.q
    a = np.empty(k_hi - k_lo, dtype=np.int64)
    a[:1] = pow(ctx.g, k_lo, q)
    n = 1
    while n < len(a):
        # a[n+k] = a[k] * g^n, in place: extend the prefix by up to its length
        step = min(n, len(a) - n)
        np.multiply(a[:step], pow(ctx.g, n, q), out=a[n:n + step])
        a[n:n + step] %= q
        n += step
    return a
