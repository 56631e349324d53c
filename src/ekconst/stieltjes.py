"""Generalized Euler constants in arithmetic progressions,

    gamma_k(a,q) = lim_N [ sum_{m<=N, m=a mod q} log(m)^k/m
                           - log(N)^{k+1}/(q(k+1)) ]
                 = -(1/q) [ log(q)^{k+1}/(k+1)
                            + sum_{n<=k} C(k,n) log(q)^{k-n} psi_n(a/q) ],

evaluated through the generalized digamma values.  A table evaluates each
psi_n once, as an array over all residues, and assembles every cell the
way the per-cell gammak_aq does."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import specfun

K_MAX = 20
Q_MAX = 100


@dataclass(frozen=True)
class StieltjesTable:
    q: int
    k_max: int
    values: dict = field(repr=False)  # (k, a) -> gamma_k(a, q)

    def __getitem__(self, key: tuple[int, int]) -> float:
        return self.values[key]


def _check_range(a: int, q: int) -> None:
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if not 1 <= a <= q:
        raise ValueError(f"a must satisfy 1 <= a <= q, got a={a}, q={q}")


def _from_psi(k: int, q: int, psi) -> float:
    """gamma_k(a, q) from psi[n] = psi_n(a/q), n = 0..k."""
    lq = math.log(q)
    total = lq ** (k + 1) / (k + 1)
    for n in range(k + 1):
        total += math.comb(k, n) * lq ** (k - n) * psi[n]
    return -total / q


def gammak_aq(k: int, a: int, q: int) -> float:
    """gamma_k(a, q) by the binomial formula over psi_0..psi_k."""
    if not 0 <= k <= K_MAX:
        raise ValueError(f"k must satisfy 0 <= k <= {K_MAX}, got {k}")
    if q > Q_MAX:
        raise ValueError(f"q must satisfy q <= {Q_MAX}, got {q}")
    _check_range(a, q)
    return _from_psi(k, q, [specfun.psi_n(n, a / q) for n in range(k + 1)])


def build_table(q: int, k_max: int) -> StieltjesTable:
    """All gamma_k(a, q) for 0 <= k <= k_max, 1 <= a <= q.

    Each psi_n is evaluated once, over all a/q; every cell equals
    gammak_aq(k, a, q) bit for bit."""
    if not 1 <= q <= Q_MAX:
        raise ValueError(f"q must satisfy 1 <= q <= {Q_MAX}, got {q}")
    if not 0 <= k_max <= K_MAX:
        raise ValueError(f"k_max must satisfy 0 <= k_max <= {K_MAX}, "
                         f"got {k_max}")
    x = [a / q for a in range(1, q + 1)]
    rows = [specfun.psi_n_values(n, x).tolist() for n in range(k_max + 1)]
    psi = list(zip(*rows))  # psi[a - 1][n] = psi_n(a/q)
    values = {
        (k, a): _from_psi(k, q, psi[a - 1])
        for k in range(k_max + 1)
        for a in range(1, q + 1)
    }
    return StieltjesTable(q=q, k_max=k_max, values=values)
