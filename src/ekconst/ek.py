"""Assembly of the Euler-Kronecker constants, their difference, and the
maximum logarithmic-derivative modulus M_q from precomputed value tables.

Character sums over the nontrivial Dirichlet characters mod q are reordered
through a_k = g^k into discrete Fourier transforms (bin j of the sign=-1
transform of f(a_k/q) is the sum of conj(chi_1^j)(a) f(a/q), where
chi_1(g) = e(1/(q-1))).  chi_1^j is even exactly when j is even, so the
even-character pipeline consumes the b branch of the decimation split and
the odd-character pipeline the c branch.

Two independent routes are implemented:

  method "s":  even characters through S(x) and log Gamma, odd characters
               through the first chi-Bernoulli numbers and log Gamma
               (four half-length transforms, see s_ratios);
  method "t":  all characters through T(x) and psi(x) with two full-length
               sign=+1 transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import cache as cache_mod
from .cache import FunctionTag, ValueTable
from .fft import dft, dif_split
from .multgroup import PrimeContext
from .specfun import DEFAULT_CONFIG, EULER_GAMMA, EvalConfig, LOG_2PI

BERNOULLI_FLOOR = 1e-12
_EPS = float(np.finfo(np.float64).eps)

METHOD_S = "s"
METHOD_T = "t"
METHOD_BOTH = "both"

# the tables each method consumes, in evaluation order
METHOD_TAGS = {
    METHOD_S: (FunctionTag.LOGGAMMA, FunctionTag.S_PAIR),
    METHOD_T: (FunctionTag.T, FunctionTag.PSI),
    METHOD_BOTH: (FunctionTag.LOGGAMMA, FunctionTag.S_PAIR,
                  FunctionTag.T, FunctionTag.PSI),
}


class CharacterSumError(ArithmeticError):
    """Internal inconsistency in the character-sum pipeline."""


@dataclass(frozen=True)
class EKResult:
    q: int
    ek: float
    ek_plus: float
    ek_diff: float
    mq_odd: float
    mq_even: float
    mq: float
    ek_norm: float
    ek_plus_norm: float
    mq_norm: float
    method: str
    method_discrepancy: float | None = None
    # the largest imaginary residue of the reported route's character
    # sums, and the float64 budget that sum was checked against
    imag_residue: float = 0.0
    imag_bound: float = 0.0


def _require(caches: Mapping[FunctionTag, ValueTable], ctx: PrimeContext,
             tag: FunctionTag) -> ValueTable:
    try:
        table = caches[tag]
    except KeyError:
        raise KeyError(f"method needs a {tag.value} cache") from None
    if table.q != ctx.q or table.g != ctx.g:
        raise ValueError(
            f"{tag.value} cache is for q={table.q}, g={table.g}, "
            f"context has q={ctx.q}, g={ctx.g}"
        )
    if not table.is_full_range:
        raise ValueError(f"{tag.value} cache does not cover the full range")
    return table


def method_tags(method: str) -> tuple[FunctionTag, ...]:
    """The tables the given method consumes; ValueError if it is unknown."""
    try:
        return METHOD_TAGS[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}") from None


def build_caches(ctx: PrimeContext, method: str = METHOD_S,
                 cfg: EvalConfig = DEFAULT_CONFIG,
                 ) -> dict[FunctionTag, ValueTable]:
    """Precompute in memory the tables the given method consumes."""
    return {tag: cache_mod.precompute(ctx, tag, cfg=cfg)
            for tag in method_tags(method)}


def bernoulli_twisted(ctx: PrimeContext) -> np.ndarray:
    """First chi-Bernoulli numbers B_{1, conj(chi_1^{2t+1})} for t < m.

    B_{1,chi} = (1/q) sum_a a chi(a); nonzero exactly for odd characters.
    Computed as the c branch of the decimation split of f(x) = x.
    """
    q, m = ctx.q, ctx.m
    k = np.arange(m)
    c = np.exp(-2j * np.pi * k / (q - 1)) * (2.0 * ctx.a_seq[:m] - q) / q
    bern = dft(c, sign=-1).values
    if float(np.min(np.abs(bern))) < BERNOULLI_FLOOR:
        raise CharacterSumError(
            "a first chi-Bernoulli number is numerically zero; "
            "character indexing is inconsistent"
        )
    return bern


def s_ratios(ctx: PrimeContext, log_gamma_table: ValueTable,
             s_pair_table: ValueTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-character ratios of the S method, from four transforms of length
    m = (q-1)/2: the two decimation branches of log Gamma, the S pair
    table and the Bernoulli sequence.

    Returns (odd, even).  For chi = chi_1^{2t+1}, t < m,
    odd[t] = [sum_a conj(chi)(a) log Gamma(a/q)] / B_{1,conj chi}
    and L'/L(1,chi) = gamma + log 2 pi + odd[t].  For chi = chi_1^{2t},
    1 <= t < m, even[t-1] is the ratio of sum_a conj(chi)(a) S(a/q) to
    sum_a conj(chi)(a) log Gamma(a/q), and
    L'/L(1,chi) = gamma + log 2 pi - even[t-1]/2.
    """
    # each m-length intermediate is dropped once used: this stage sets the
    # peak memory of method "s" at large q
    b, c = dif_split(log_gamma_table.values, sign=-1)
    odd = dft(c, sign=-1).values
    del c
    odd /= bernoulli_twisted(ctx)
    den = dft(b, sign=-1).values[1:]
    del b
    if den.size and float(np.min(np.abs(den))) < BERNOULLI_FLOOR:
        raise CharacterSumError(
            "an even-character log Gamma sum vanishes (L(1,chi) = 0?)"
        )
    even = dft(s_pair_table.values, sign=-1).values[1:]
    even /= den
    return odd, even


def _take_real(constant: float, terms: np.ndarray, n: int,
               what: str) -> tuple[float, float, float]:
    """constant + sum(terms), which must be real: returns its real part,
    its imaginary residue and the bound that residue passed.

    The terms come from transforms of length at most n, so each carries a
    relative float64 error of about eps*log2(n); the bound is that error
    budget, eps*log2(n)*sum|terms|, of the whole sum.
    """
    value = constant + complex(np.sum(terms))
    residue = abs(value.imag)
    bound = _EPS * math.log2(n) * float(np.sum(np.abs(terms)))
    if residue > bound:
        raise CharacterSumError(
            f"imaginary residue {residue:.3e} of {what} exceeds its float64 "
            f"budget eps*log2({n})*sum|terms| = {bound:.3e}"
        )
    return value.real, residue, bound


def _assemble_s(ctx: PrimeContext, log_gamma_table: ValueTable,
                s_pair_table: ValueTable):
    q = ctx.q
    odd, even = s_ratios(ctx, log_gamma_table, s_pair_table)
    diff, r1, b1 = _take_real((q - 1) / 2 * (EULER_GAMMA + LOG_2PI), odd,
                              q - 1, "odd character sum")
    mq_odd = float(np.max(np.abs(EULER_GAMMA + LOG_2PI + odd)))
    del odd
    ek_plus, r2, b2 = _take_real(
        (q - 1) / 2 * EULER_GAMMA + (q - 3) / 2 * LOG_2PI, -0.5 * even,
        q - 1, "even character sum")
    mq_even = (float(np.max(np.abs(EULER_GAMMA + LOG_2PI - 0.5 * even)))
               if even.size else 0.0)
    return (diff + ek_plus, ek_plus, diff, mq_odd, mq_even,
            max((r1, b1), (r2, b2)))


def _assemble_t(ctx: PrimeContext, t_table: ValueTable,
                psi_table: ValueTable):
    q = ctx.q
    t_spec = dft(t_table.values, sign=1).values
    psi_spec = dft(psi_table.values, sign=1).values
    ratios = t_spec[1:] / psi_spec[1:]       # bins j = 1..q-2
    per_char = -math.log(q) - ratios
    ek, r1, b1 = _take_real(EULER_GAMMA, per_char, q - 1,
                            "T-method character sum")
    ek_plus, r2, b2 = _take_real(EULER_GAMMA, per_char[1::2], q - 1,
                                 "T-method even character sum")  # even j
    mq_odd = float(np.max(np.abs(per_char[0::2])))
    evens = per_char[1::2]
    mq_even = float(np.max(np.abs(evens))) if evens.size else 0.0
    return (ek, ek_plus, ek - ek_plus, mq_odd, mq_even,
            max((r1, b1), (r2, b2)))


def compute_ek(ctx: PrimeContext,
               caches: Mapping[FunctionTag, ValueTable] | None = None,
               method: str = METHOD_S,
               cfg: EvalConfig = DEFAULT_CONFIG) -> EKResult:
    """Full constant computation for one prime; see module docstring.

    With method "both" the S route provides the reported values and the
    T route the cross-check discrepancy.
    """
    method_tags(method)  # rejects an unknown method
    if caches is None:
        caches = build_caches(ctx, method, cfg)
    discrepancy = None
    if method in (METHOD_S, METHOD_BOTH):
        ek, ek_plus, diff, mq_odd, mq_even, imag = _assemble_s(
            ctx,
            _require(caches, ctx, FunctionTag.LOGGAMMA),
            _require(caches, ctx, FunctionTag.S_PAIR),
        )
    if method in (METHOD_T, METHOD_BOTH):
        out_t = _assemble_t(
            ctx,
            _require(caches, ctx, FunctionTag.T),
            _require(caches, ctx, FunctionTag.PSI),
        )
        if method == METHOD_T:
            ek, ek_plus, diff, mq_odd, mq_even, imag = out_t
        else:
            discrepancy = abs(ek - out_t[0])
    mq = max(mq_odd, mq_even)
    lq = math.log(ctx.q)
    llq = math.log(lq)
    return EKResult(
        q=ctx.q, ek=ek, ek_plus=ek_plus, ek_diff=diff,
        mq_odd=mq_odd, mq_even=mq_even, mq=mq,
        ek_norm=ek / lq, ek_plus_norm=ek_plus / lq, mq_norm=mq / llq,
        method=method, method_discrepancy=discrepancy,
        imag_residue=imag[0], imag_bound=imag[1],
    )

