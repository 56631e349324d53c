"""Generalized Euler constants in arithmetic progressions,

    gamma_k(a,q) = lim_N [ sum_{m<=N, m=a mod q} log(m)^k/m
                           - log(N)^{k+1}/(q(k+1)) ]
                 = -(1/q) [ log(q)^{k+1}/(k+1)
                            + sum_{n<=k} C(k,n) log(q)^{k-n} psi_n(a/q) ],

evaluated through the generalized digamma values.  A table evaluates each
psi_n once, as an array over all residues, and forms each row k over all
residues at once."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import specfun
from .multgroup import DomainError

K_MAX = 20
Q_MAX = 100


@dataclass(frozen=True)
class StieltjesTable:
    q: int
    k_max: int
    # gamma_k(a, q) at index k*q + a - 1: row k holds a = 1..q
    values: np.ndarray = field(repr=False)


def build_table(q: int, k_max: int) -> StieltjesTable:
    """All gamma_k(a, q) for 0 <= k <= k_max, 1 <= a <= q."""
    if not 1 <= q <= Q_MAX:
        raise DomainError(f"q must satisfy 1 <= q <= {Q_MAX}, got {q}")
    if not 0 <= k_max <= K_MAX:
        raise DomainError(f"k_max must satisfy 0 <= k_max <= {K_MAX}, "
                          f"got {k_max}")
    x = np.arange(1, q + 1) / q
    psi = [specfun.psi_n_values(n, x) for n in range(k_max + 1)]
    lq = math.log(q)
    rows = []
    for k in range(k_max + 1):
        total = lq ** (k + 1) / (k + 1)
        for n in range(k + 1):
            total = total + math.comb(k, n) * lq ** (k - n) * psi[n]
        rows.append(-total / q)
    return StieltjesTable(q=q, k_max=k_max, values=np.concatenate(rows))
