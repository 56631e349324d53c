"""The greedy sequence of prime offsets, admissibility bookkeeping, and the
candidate score

    v(q) = sum over 2 <= i <= 2089 with b(i) q + 1 prime of 1/b(i),

which flags primes q whose Euler-Kronecker constant is likely to be small:
each prime b q + 1 splits completely often enough to drag the constant down.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .multgroup import PRIME_LIMIT, DomainError, is_prime

GREEDY_COUNT = 2089
# v_of_q sieves with the primes below SIEVE_BOUND; those below SLICE_BELOW
# cross off by slices, the rest by one scatter (equally fast from 32 to 1024)
SIEVE_BOUND = 1 << 16
SLICE_BELOW = 64


@dataclass(frozen=True)
class OffsetSequence:
    """Strictly increasing offsets with b[0] = 0; every prefix is admissible:
    for each prime r <= len(b) the residues mod r omit at least one class."""

    b: tuple


@lru_cache(maxsize=4)
def greedy_offsets(count: int) -> OffsetSequence:
    """First `count` elements: b(1) = 0, then each next element is the
    smallest integer such that no prime r has all residue classes covered.

    Only primes r <= current length can be covered by that many residues,
    so the check is finite.
    """
    if not 1 <= count <= GREEDY_COUNT:
        raise DomainError(
            f"count must be in [1, {GREEDY_COUNT}], got {count}")
    primes = [p for p in range(2, count + 1) if is_prime(p)]
    # taken[i][r] marks the class r mod primes[i] as covered; free[i]
    # counts the classes left, and last maps each prime with one class
    # left to that class, which the next element must avoid (a prime with
    # p - 1 classes covered is at most the current length)
    taken = [bytearray(p) for p in primes]
    free = list(primes)
    last: dict[int, int] = {}
    b = []
    candidate = 0
    while True:
        for i, p in enumerate(primes):
            r = candidate % p
            if not taken[i][r]:
                taken[i][r] = 1
                free[i] -= 1
                if free[i] == 1:
                    last[p] = taken[i].index(0)
        b.append(candidate)
        if len(b) == count:
            return OffsetSequence(b=tuple(b))
        candidate += 1
        while any(candidate % p == r for p, r in last.items()):
            candidate += 1


@lru_cache(maxsize=1)
def _sieving_primes() -> np.ndarray:
    """The primes below SIEVE_BOUND, by a sieve of Eratosthenes."""
    flags = np.ones(SIEVE_BOUND, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(SIEVE_BOUND - 1) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags)


def _inverse(a: np.ndarray, p: np.ndarray) -> np.ndarray:
    """a^(p-2) mod p elementwise, the inverse of a mod each prime p, for
    p < 2^31 so that no product leaves int64."""
    out = np.ones_like(p)
    e = p - 2
    while e.any():
        out = np.where(e & 1, out * a % p, out)
        a = a * a % p
        e >>= 1
    return out


def _crossed_off(q: int, b_max: int, root: int) -> np.ndarray:
    """flags[b], for 0 <= b <= b_max, tells whether b*q+1 has a prime
    factor p <= root below SIEVE_BOUND and is not p itself."""
    p = _sieving_primes()
    p = p[:np.searchsorted(p, root, side="right")]
    a = (np.uint64(q) % p.astype(np.uint64)).astype(np.int64)  # q < 2^64
    p, a = p[a != 0], a[a != 0]
    b = p - _inverse(a, p)      # the least b >= 1 with p | b*q+1
    if q < SIEVE_BOUND:
        # where b*q+1 = p, a prime, cross off from one period later
        b += p * (b * q + 1 == p)
    flags = np.zeros(b_max + 1, dtype=bool)
    # a prime below SLICE_BELOW crosses off a long run: one slice each
    k = int(np.searchsorted(p, SLICE_BELOW))
    for start, step in zip(b[:k].tolist(), p[:k].tolist()):
        flags[start::step] = True
    # the others cross off a few b each, all in one scatter
    b, p = b[k:], p[k:]
    counts = np.maximum(0, (b_max - b) // p + 1)
    ends = np.cumsum(counts)
    step = np.arange(int(counts.sum())) - np.repeat(ends - counts, counts)
    flags[np.repeat(b, counts) + step * np.repeat(p, counts)] = True
    return flags


def v_of_q(q: int, seq: OffsetSequence | None = None) -> float:
    """Score of q against the offset sequence (default: all 2089).

    A prime p that does not divide q divides b*q+1 exactly when
    b = -1/q (mod p), so one sieve over the b in [1, b_max], with the
    primes p below SIEVE_BOUND, crosses off each point b*q+1 with such a
    factor other than itself.  When every point is below SIEVE_BOUND^2 the
    points left are the primes; otherwise each point left gets one
    is_prime test.  The terms 1/b go through math.fsum, which rounds their
    exact sum once, so the value does not depend on how the points were
    decided.
    """
    if q < 3:
        raise DomainError(f"q must be >= 3, got {q}")
    if seq is None:
        seq = greedy_offsets(GREEDY_COUNT)
    offs = np.array(seq.b[1:], dtype=np.int64)
    if not offs.size:
        return 0.0
    b_max = int(offs.max())
    # on Python ints; the sieve forms no product b*q
    if b_max * q + 1 >= PRIME_LIMIT:
        raise DomainError(
            f"{b_max}*{q}+1 exceeds the primality tester's domain"
        )
    root = math.isqrt(b_max * q + 1)
    left = offs[~_crossed_off(q, b_max, root)[offs]].tolist()
    if root >= SIEVE_BOUND:
        left = [b for b in left if is_prime(b * q + 1)]
    return math.fsum([1.0 / b for b in left])
