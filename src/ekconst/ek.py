"""Assembly of the Euler-Kronecker constants, their difference, and the
maximum logarithmic-derivative modulus M_q from precomputed value tables.

Character sums over the nontrivial Dirichlet characters mod q are reordered
through a_k = g^k into discrete Fourier transforms (bin j of the
transform of f(a_k/q) is the sum of conj(chi_1^j)(a) f(a/q), where
chi_1(g) = e(1/(q-1))).  chi_1^j is even exactly when j is even, so the
even characters take the b branch of the decimation split and the odd
ones the c branch, each a transform of length m = (q-1)/2.

Two independent routes each run four such transforms and return
per-character (odd, even) ratios indexed alike, which _reduce turns into
the constants:

  method "s":  even characters through S(x) and log Gamma, odd characters
               through the first chi-Bernoulli numbers and log Gamma
               (s_ratios);
  method "t":  all characters through T(x) and psi(x) (t_ratios).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import cache as cache_mod
from .cache import FunctionTag, ValueTable
from .fft import dft, dif_split, twiddle
from .multgroup import PrimeContext
from .specfun import EULER_GAMMA, LOG_2PI

BERNOULLI_FLOOR = 1e-12
_EPS = float(np.finfo(np.float64).eps)

METHOD_S = "s"
METHOD_T = "t"
METHOD_BOTH = "both"

# the tables each method consumes, in evaluation order
METHOD_TAGS = {
    METHOD_S: (FunctionTag.LOGGAMMA, FunctionTag.S_PAIR),
    METHOD_T: (FunctionTag.T, FunctionTag.PSI),
}
METHOD_TAGS[METHOD_BOTH] = METHOD_TAGS[METHOD_S] + METHOD_TAGS[METHOD_T]


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


def _table(ctx: PrimeContext, caches: Mapping[FunctionTag, ValueTable],
           tag: FunctionTag) -> ValueTable:
    """The tagged table from caches, or evaluated here if caches lacks it.
    Either way it must hold the tag's values for ctx's q and g, and pass
    the closed-form gate, which refuses a table short of the full range."""
    table = caches.get(tag) or cache_mod.precompute(ctx, tag)
    if (table.function_tag, table.q, table.g) != (tag, ctx.q, ctx.g):
        raise ValueError(f"{tag.value} table for q={table.q}, g={table.g} "
                         f"does not match the context q={ctx.q}, g={ctx.g}"
                         f" (it holds {table.function_tag.value} values)")
    cache_mod.check_closed_form(table)
    return table


def bernoulli_twisted(ctx: PrimeContext, tw: np.ndarray) -> np.ndarray:
    """First chi-Bernoulli numbers B_{1, conj(chi_1^{2t+1})} for t < m.

    B_{1,chi} = (1/q) sum_a a chi(a); nonzero exactly for odd characters.
    Computed as the c branch of the decimation split of f(x) = x, with
    tw = twiddle(q-1) as the caller's splits use it.
    """
    q, m = ctx.q, ctx.m
    c = tw * (2.0 * ctx.a_seq[:m] - q) / q
    return dft(c).values


def _divide(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num / den, in place in num; CharacterSumError if some |den| is below
    BERNOULLI_FLOOR (or NaN), where the ratio would be inf or noise."""
    if den.size and not float(np.min(np.abs(den))) >= BERNOULLI_FLOOR:
        raise CharacterSumError(f"{what} is numerically zero "
                                f"(below {BERNOULLI_FLOOR:g})")
    num /= den
    return num


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
    tw = twiddle(ctx.q - 1)
    b, c = dif_split(log_gamma_table.values, tw)
    odd = dft(c).values
    del c
    odd = _divide(odd, bernoulli_twisted(ctx, tw),
                  "a first chi-Bernoulli number")
    del tw
    den = dft(b).values[1:]
    del b
    even = _divide(dft(s_pair_table.values).values[1:], den,
                   "an even-character log Gamma sum")
    return odd, even


def t_ratios(ctx: PrimeContext, t_table: ValueTable,
             psi_table: ValueTable) -> tuple[np.ndarray, np.ndarray]:
    """Per-character ratios of the T method, from four transforms of length
    m = (q-1)/2: the two decimation branches of the T and psi tables.

    Returns (odd, even), indexed as by s_ratios: odd[t] belongs to
    chi = chi_1^{2t+1}, t < m, and even[t-1] to chi = chi_1^{2t},
    1 <= t < m.  Each is the ratio r of sum_a chi(a) T(a/q) to
    sum_a chi(a) psi(a/q), and L'/L(1,chi) = -log q - r.
    """
    tw = twiddle(ctx.q - 1)
    b_t, c = dif_split(t_table.values, tw)
    odd = dft(c).values
    del c
    b_psi, c = dif_split(psi_table.values, tw)
    del tw
    odd = _divide(odd, dft(c).values, "an odd-character psi sum")
    del c
    even = _divide(dft(b_t).values[1:], dft(b_psi).values[1:],
                   "an even-character psi sum")
    # the transforms give the conj(chi) sums of real tables; conjugating
    # their ratio gives the ratio of the chi sums
    return np.conjugate(odd, out=odd), np.conjugate(even, out=even)


def _take_real(constant: float, terms: np.ndarray, n: int,
               what: str) -> tuple[float, float, float]:
    """constant + sum(terms), which must be finite and real: returns its
    real part, its imaginary residue and the bound that residue passed.

    The terms come from transforms of length at most n, so each carries a
    relative float64 error of about eps*log2(n); the bound is that error
    budget, eps*log2(n)*sum|terms|, of the whole sum.
    """
    value = constant + complex(np.sum(terms))
    if not cmath.isfinite(value):
        raise CharacterSumError(f"{what} is not finite: {value}")
    residue = abs(value.imag)
    bound = _EPS * math.log2(n) * float(np.sum(np.abs(terms)))
    if not residue <= bound:
        raise CharacterSumError(
            f"imaginary residue {residue:.3e} of {what} exceeds its float64 "
            f"budget eps*log2({n})*sum|terms| = {bound:.3e}"
        )
    return value.real, residue, bound


def _reduce(q: int, odd: np.ndarray, even: np.ndarray, shift: float,
            odd_constant: float, even_constant: float):
    """(ek, ek_plus, ek_diff, mq_odd, mq_even, (imag residue, its bound))
    from one route's per-character terms, indexed as by s_ratios, with
    L'/L(1,chi) = shift + term.  ek_diff = odd_constant + sum(odd) and
    ek_plus = even_constant + sum(even) are each gated by _take_real."""
    diff, r1, b1 = _take_real(odd_constant, odd, q - 1, "odd character sum")
    ek_plus, r2, b2 = _take_real(even_constant, even, q - 1,
                                 "even character sum")
    mq_odd = float(np.max(np.abs(shift + odd)))
    mq_even = float(np.max(np.abs(shift + even))) if even.size else 0.0
    return (diff + ek_plus, ek_plus, diff, mq_odd, mq_even,
            max((r1, b1), (r2, b2)))


def compute_ek(ctx: PrimeContext,
               caches: Mapping[FunctionTag, ValueTable] | None = None,
               method: str = METHOD_S) -> EKResult:
    """Full constant computation for one prime; see module docstring.

    Each table the method needs comes from caches if it is there and is
    evaluated here otherwise, one route at a time, so the S route's
    evaluated tables are gone before the T route evaluates its own.  With
    method "both" the S route provides the reported values and the T route
    the cross-check discrepancy.
    """
    if method not in METHOD_TAGS:
        raise ValueError(f"unknown method {method!r}")
    caches = caches or {}
    q = ctx.q
    discrepancy = None
    if method in (METHOD_S, METHOD_BOTH):
        odd, even = s_ratios(ctx, *(_table(ctx, caches, tag)
                                    for tag in METHOD_TAGS[METHOD_S]))
        even *= -0.5
        shift = EULER_GAMMA + LOG_2PI
        out = _reduce(q, odd, even, shift, (q - 1) / 2 * shift,
                      (q - 1) / 2 * EULER_GAMMA + (q - 3) / 2 * LOG_2PI)
        del odd, even  # before the T transforms allocate theirs
    if method in (METHOD_T, METHOD_BOTH):
        odd, even = t_ratios(ctx, *(_table(ctx, caches, tag)
                                    for tag in METHOD_TAGS[METHOD_T]))
        for r in (odd, even):
            np.subtract(-math.log(q), r, out=r)
        out_t = _reduce(q, odd, even, 0.0, 0.0, EULER_GAMMA)
        if method == METHOD_T:
            out = out_t
        else:
            discrepancy = abs(out[0] - out_t[0])
    ek, ek_plus, diff, mq_odd, mq_even, imag = out
    mq = max(mq_odd, mq_even)
    lq = math.log(q)
    llq = math.log(lq)
    return EKResult(
        q=q, ek=ek, ek_plus=ek_plus, ek_diff=diff,
        mq_odd=mq_odd, mq_even=mq_even, mq=mq,
        ek_norm=ek / lq, ek_plus_norm=ek_plus / lq, mq_norm=mq / llq,
        method=method, method_discrepancy=discrepancy,
        imag_residue=imag[0], imag_bound=imag[1],
    )

