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

from .multgroup import PRIME_LIMIT, is_prime

GREEDY_COUNT = 2089


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
        raise ValueError(f"count must be in [1, {GREEDY_COUNT}], got {count}")
    primes = [p for p in range(2, count + 1) if is_prime(p)]
    used: dict[int, set] = {p: {0} for p in primes}
    b = [0]
    candidate = 0
    while len(b) < count:
        n = len(b) + 1
        active = [p for p in primes if p <= n]
        candidate += 1
        while True:
            ok = True
            for p in active:
                residues = used[p]
                if len(residues) == p - 1 and candidate % p not in residues:
                    ok = False
                    break
            if ok:
                break
            candidate += 1
        b.append(candidate)
        for p in primes:
            used[p].add(candidate % p)
    return OffsetSequence(b=tuple(b))


def v_of_q(q: int, seq: OffsetSequence | None = None) -> float:
    """Score of q against the offset sequence (default: all 2089).

    Terms accumulate in descending-b order (ascending magnitude) through
    exact summation for a stable last digit.
    """
    if q < 3:
        raise ValueError(f"q must be >= 3, got {q}")
    if seq is None:
        seq = greedy_offsets(GREEDY_COUNT)
    terms = []
    for b in reversed(seq.b[1:]):
        n = b * q + 1
        if n >= PRIME_LIMIT:
            raise OverflowError(
                f"{b}*{q}+1 exceeds the primality tester's domain"
            )
        if is_prime(n):
            terms.append(1.0 / b)
    return math.fsum(terms)
