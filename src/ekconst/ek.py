"""Assembly of the Euler-Kronecker constants, their difference, and the
maximum logarithmic-derivative modulus M_q from precomputed value tables.

Character sums over the nontrivial Dirichlet characters mod q are reordered
through a_k = g^k into discrete Fourier transforms (bin j of the
transform of f(a_k/q) is the sum of conj(chi_1^j)(a) f(a/q), where
chi_1(g) = e(1/(q-1))).  chi_1^j is even exactly when j is even, so the
decimation split (parity_bins) gives the odd characters and the even ones
each from a transform of length m = (q-1)/2.

Each of two independent routes runs in two parity halves.  A half takes
two such transforms and divides them, one ratio per character; _half
reduces the ratios to the half's constant, its max |L'/L(1,chi)| and its
imaginary residue before the next half allocates.  The odd half gives
ek_diff and the even half ek_plus:

  method "s":  odd characters through log Gamma and the first
               chi-Bernoulli numbers (s_odd), even characters through
               S(x) and log Gamma (s_even);
  method "t":  both halves through T(x) and psi(x) (t_half).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cache as cache_mod
from .cache import FunctionTag, ValueTable
from .fft import dft, twiddle
from .multgroup import PrimeContext, residues
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


def _table(ctx: PrimeContext, tables: Callable | None,
           tag: FunctionTag) -> ValueTable:
    """The tagged table from tables(tag), or evaluated here if that is None.
    Either way it must hold the tag's values for ctx's q and g, and pass
    the closed-form gate, which refuses a table short of the full range."""
    table = (tables and tables(tag)) or cache_mod.precompute(ctx, tag)
    if (table.function_tag, table.q, table.g) != (tag, ctx.q, ctx.g):
        raise ValueError(f"{tag.value} table for q={table.q}, g={table.g} "
                         f"does not match the context q={ctx.q}, g={ctx.g}"
                         f" (it holds {table.function_tag.value} values)")
    cache_mod.check_closed_form(table)
    return table


def parity_bins(f: np.ndarray, tw: np.ndarray | None = None) -> np.ndarray:
    """The bins of one parity of the transform of f (indexed by k, length
    q-1), from one transform of length m = (q-1)/2 through dft: the
    decimation-in-frequency split, one branch at a time.

    With tw = twiddle(q-1), the odd bins: out[t] is bin 2t+1, t < m, the
    transform of tw[k]*(f[k] - f[k+m]).  Without, the even bins but bin 0
    (the trivial character's): out[t-1] is bin 2t, 1 <= t < m, from the
    transform of f[k] + f[k+m].
    """
    m, odd = divmod(len(f), 2)
    if odd:
        raise ValueError(f"input length must be even, got {len(f)}")
    if tw is None:
        return dft(f[:m] + f[m:]).values[1:]
    return dft(tw * (f[:m] - f[m:])).values


def bernoulli_twisted(ctx: PrimeContext, tw: np.ndarray) -> np.ndarray:
    """First chi-Bernoulli numbers B_{1, conj(chi_1^{2t+1})} for t < m.

    B_{1,chi} = (1/q) sum_a a chi(a); nonzero exactly for odd characters.
    Computed as the odd branch of f(x) = x, with a_{k+m} = q - a_k folded
    in exactly, and tw = twiddle(q-1).
    """
    q, m = ctx.q, ctx.m
    c = tw * (2.0 * residues(ctx, 0, m) - q) / q
    return dft(c).values


def _divide(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num / den, in place in num; CharacterSumError if some |den| is below
    BERNOULLI_FLOOR (or NaN), where the ratio would be inf or noise."""
    if den.size and not float(np.min(np.abs(den))) >= BERNOULLI_FLOOR:
        raise CharacterSumError(f"{what} is numerically zero "
                                f"(below {BERNOULLI_FLOOR:g})")
    num /= den
    return num


def s_odd(ctx: PrimeContext, log_gamma_table: ValueTable,
          tw: np.ndarray) -> np.ndarray:
    """The odd half of the S method, tw = twiddle(q-1): for chi =
    chi_1^{2t+1}, t < m, out[t] = L'/L(1,chi) - (gamma + log 2 pi), the
    ratio of sum_a conj(chi)(a) log Gamma(a/q) to B_{1,conj chi}."""
    return _divide(parity_bins(log_gamma_table.values, tw),
                   bernoulli_twisted(ctx, tw), "a first chi-Bernoulli number")


def s_even(log_gamma_table: ValueTable,
           s_pair_table: ValueTable) -> np.ndarray:
    """The even half of the S method: for chi = chi_1^{2t}, 1 <= t < m,
    out[t-1] = L'/L(1,chi) - (gamma + log 2 pi), which is -1/2 times the
    ratio of sum_a conj(chi)(a) S(a/q) to sum_a conj(chi)(a) log Gamma(a/q).
    The S pair table holds S(x) + S(1-x), the even branch as it stands."""
    den = parity_bins(log_gamma_table.values)
    even = _divide(dft(s_pair_table.values).values[1:], den,
                   "an even-character log Gamma sum")
    even *= -0.5
    return even


def t_half(q: int, t_table: ValueTable, psi_table: ValueTable,
           tw: np.ndarray | None = None) -> np.ndarray:
    """One half of the T method: L'/L(1,chi) = -log q - r, with r the ratio
    of sum_a chi(a) T(a/q) to sum_a chi(a) psi(a/q), for the characters
    that parity_bins(f, tw) gives the bins of, indexed as it indexes them.
    """
    parity = "even" if tw is None else "odd"
    r = _divide(parity_bins(t_table.values, tw),
                parity_bins(psi_table.values, tw),
                f"an {parity}-character psi sum")
    # the transforms give the conj(chi) sums of real tables; conjugating
    # their ratio gives the ratio of the chi sums
    np.conjugate(r, out=r)
    return np.subtract(-math.log(q), r, out=r)


def _half(q: int, terms: np.ndarray, shift: float, constant: float,
          what: str) -> tuple[float, float, tuple[float, float]]:
    """(value, max |L'/L(1,chi)|, (imag residue, bound)) of one half, from
    its per-character terms, with L'/L(1,chi) = shift + term.  The value
    constant + sum(terms) must be finite and real.

    The terms come from transforms of length at most q-1, so each carries a
    relative float64 error of about eps*log2(q-1); the bound on the
    imaginary residue is that error budget, eps*log2(q-1)*sum|terms|, of
    the whole sum.
    """
    value = constant + complex(np.sum(terms))
    if not cmath.isfinite(value):
        raise CharacterSumError(f"{what} is not finite: {value}")
    residue = abs(value.imag)
    bound = _EPS * math.log2(q - 1) * float(np.sum(np.abs(terms)))
    if not residue <= bound:
        raise CharacterSumError(
            f"imaginary residue {residue:.3e} of {what} exceeds its float64 "
            f"budget eps*log2({q - 1})*sum|terms| = {bound:.3e}"
        )
    mq = float(np.max(np.abs(shift + terms))) if terms.size else 0.0
    return value.real, mq, (residue, bound)


def compute_ek(ctx: PrimeContext, tables: Callable | None = None,
               method: str = METHOD_S) -> EKResult:
    """Full constant computation for one prime; see module docstring.

    Each table is fetched at its first use from the lookup tables(tag), a
    FunctionTag -> ValueTable or None, or evaluated here where that gives
    None, and held only while its halves run: LOGGAMMA from the odd half
    of route "s", S_PAIR for its even half, T and PSI for route "t".  With
    method "both" the S route provides the reported values and the T route
    the cross-check discrepancy.
    """
    if method not in METHOD_TAGS:
        raise ValueError(f"unknown method {method!r}")
    q, m = ctx.q, ctx.m
    # per route, ((ek_diff, mq_odd, imag), (ek_plus, mq_even, imag)); each
    # half's arrays are gone once _half returns, before the next allocates
    routes = []
    if method in (METHOD_S, METHOD_BOTH):
        lg = _table(ctx, tables, FunctionTag.LOGGAMMA)
        shift = EULER_GAMMA + LOG_2PI
        odd = _half(q, s_odd(ctx, lg, twiddle(q - 1)), shift, m * shift,
                    "odd character sum")
        even = _half(q, s_even(lg, _table(ctx, tables, FunctionTag.S_PAIR)),
                     shift, m * EULER_GAMMA + (m - 1) * LOG_2PI,
                     "even character sum")
        routes.append((odd, even))
        del lg  # before the T route fetches its own tables
    if method in (METHOD_T, METHOD_BOTH):
        t, psi = (_table(ctx, tables, tag) for tag in METHOD_TAGS[METHOD_T])
        routes.append((
            _half(q, t_half(q, t, psi, twiddle(q - 1)), 0.0, 0.0,
                  "odd character sum"),
            _half(q, t_half(q, t, psi), 0.0, EULER_GAMMA,
                  "even character sum"),
        ))
    ek, *cross = (odd[0] + even[0] for odd, even in routes)
    (diff, mq_odd, imag_odd), (ek_plus, mq_even, imag_even) = routes[0]
    mq = max(mq_odd, mq_even)
    imag = max(imag_odd, imag_even)
    lq = math.log(q)
    llq = math.log(lq)
    return EKResult(
        q=q, ek=ek, ek_plus=ek_plus, ek_diff=diff,
        mq_odd=mq_odd, mq_even=mq_even, mq=mq,
        ek_norm=ek / lq, ek_plus_norm=ek_plus / lq, mq_norm=mq / llq,
        method=method,
        method_discrepancy=abs(ek - cross[0]) if cross else None,
        imag_residue=imag[0], imag_bound=imag[1],
    )

