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
               (one full-length transform plus two half-length ones);
  method "t":  all characters through T(x) and psi(x) with two full-length
               sign=+1 transforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import cache as cache_mod
from .cache import FunctionTag, ValueTable
from .fft import Spectrum, dft, dif_split
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
class CharacterSums:
    """The three spectra feeding the S-method assembly."""

    logGamma_spec: Spectrum
    s_even_spec: Spectrum
    bern_odd_spec: Spectrum


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


def bernoulli_twisted(ctx: PrimeContext) -> Spectrum:
    """First chi-Bernoulli numbers B_{1, conj(chi_1^{2t+1})} for t < m.

    B_{1,chi} = (1/q) sum_a a chi(a); nonzero exactly for odd characters.
    Computed as the c branch of the decimation split of f(x) = x.
    """
    q, m = ctx.q, ctx.m
    k = np.arange(m)
    c = np.exp(-2j * np.pi * k / (q - 1)) * (2.0 * ctx.a_seq[:m] - q) / q
    spec = dft(c, sign=-1, decimated=True)
    if float(np.min(np.abs(spec.values))) < BERNOULLI_FLOOR:
        raise CharacterSumError(
            "a first chi-Bernoulli number is numerically zero; "
            "character indexing is inconsistent"
        )
    return spec


def character_sums(ctx: PrimeContext, log_gamma_table: ValueTable,
                   s_pair_table: ValueTable) -> CharacterSums:
    """The three transforms of the S method (one full, two half length)."""
    lg_spec = dft(log_gamma_table.values, sign=-1)
    s_spec = dft(s_pair_table.values, sign=-1, decimated=True)
    return CharacterSums(
        logGamma_spec=lg_spec,
        s_even_spec=s_spec,
        bern_odd_spec=bernoulli_twisted(ctx),
    )


def _take_real(constant: float, terms: np.ndarray, n: int,
               what: str) -> tuple[float, float, float]:
    """constant + sum(terms), which must be real: returns its real part,
    its imaginary residue and the bound that residue passed.

    The terms come from transforms of length n, so each carries a
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


def _odd_character_values(ctx: PrimeContext, num_odd: np.ndarray,
                          bern: np.ndarray) -> np.ndarray:
    if float(np.min(np.abs(bern))) < BERNOULLI_FLOOR:
        raise CharacterSumError("first chi-Bernoulli number below floor")
    return EULER_GAMMA + LOG_2PI + num_odd / bern


def _even_character_values(even_num: np.ndarray,
                           even_den: np.ndarray) -> np.ndarray:
    if even_den.size and float(np.min(np.abs(even_den))) < BERNOULLI_FLOOR:
        raise CharacterSumError(
            "an even-character log Gamma sum vanishes (L(1,chi) = 0?)"
        )
    return EULER_GAMMA + LOG_2PI - 0.5 * even_num / even_den


def compute_odd_sum(ctx: PrimeContext, log_gamma_table: ValueTable) -> float:
    """Sum of L'/L(1,chi) over the odd characters mod q.

    Equals (q-1)/2 (gamma + log 2 pi)
    + sum_{chi odd} (1/B_{1,conj chi}) sum_a conj(chi)(a) log Gamma(a/q),
    evaluated with two decimated transforms of length (q-1)/2.
    """
    if log_gamma_table.function_tag is not FunctionTag.LOGGAMMA:
        raise ValueError("compute_odd_sum needs a LOGGAMMA cache")
    q, m = ctx.q, ctx.m
    pair = dif_split(log_gamma_table.values, sign=-1)
    num_odd = dft(pair.c_seq, sign=-1, decimated=True).values
    bern = bernoulli_twisted(ctx).values
    _odd_character_values(ctx, num_odd, bern)  # guard
    value, _, _ = _take_real((q - 1) / 2 * (EULER_GAMMA + LOG_2PI),
                             num_odd / bern, q - 1, "odd character sum")
    return value


def compute_even_part(ctx: PrimeContext, s_pair_table: ValueTable,
                      log_gamma_table: ValueTable) -> float:
    """The Euler-Kronecker constant of the maximal real subfield.

    (q-1)/2 gamma + (q-3)/2 log 2 pi
    - (1/2) sum_{chi even, chi != chi0}
        [sum_a conj(chi)(a) S(a/q)] / [sum_a conj(chi)(a) log Gamma(a/q)],
    with numerators from the decimated S pair branch and denominators from
    the even bins of the log Gamma spectrum.
    """
    if s_pair_table.function_tag is not FunctionTag.S_PAIR:
        raise ValueError("compute_even_part needs an S_PAIR cache")
    if log_gamma_table.function_tag is not FunctionTag.LOGGAMMA:
        raise ValueError("compute_even_part needs a LOGGAMMA cache")
    q = ctx.q
    s_spec = dft(s_pair_table.values, sign=-1, decimated=True).values
    pair = dif_split(log_gamma_table.values, sign=-1)
    even_den = dft(pair.b_seq, sign=-1, decimated=True).values
    _even_character_values(s_spec[1:], even_den[1:])  # denominator guard
    value, _, _ = _take_real((q - 1) / 2 * EULER_GAMMA + (q - 3) / 2 * LOG_2PI,
                             -0.5 * (s_spec[1:] / even_den[1:]), q - 1,
                             "even character sum")
    return value


def compute_mq(ctx: PrimeContext, log_gamma_table: ValueTable,
               s_pair_table: ValueTable) -> tuple[float, float]:
    """(M_q^odd, M_q^even): parity-wise maxima of |L'/L(1,chi)|."""
    sums = character_sums(ctx, log_gamma_table, s_pair_table)
    return _mq_from_sums(ctx, sums)


def _mq_from_sums(ctx: PrimeContext,
                  sums: CharacterSums) -> tuple[float, float]:
    full = sums.logGamma_spec.values
    odd_vals = _odd_character_values(ctx, full[1::2], sums.bern_odd_spec.values)
    even_vals = _even_character_values(sums.s_even_spec.values[1:],
                                       full[0::2][1:])
    mq_odd = float(np.max(np.abs(odd_vals)))
    mq_even = float(np.max(np.abs(even_vals))) if even_vals.size else 0.0
    return mq_odd, mq_even


def _assemble_s(ctx: PrimeContext, sums: CharacterSums):
    q = ctx.q
    full = sums.logGamma_spec.values
    num_odd = full[1::2]                     # bins j = 2t+1
    even_den = full[0::2][1:]                # bins j = 2t, t >= 1
    odd_vals = _odd_character_values(ctx, num_odd, sums.bern_odd_spec.values)
    even_vals = _even_character_values(sums.s_even_spec.values[1:], even_den)

    diff, r1, b1 = _take_real(
        (q - 1) / 2 * (EULER_GAMMA + LOG_2PI),
        num_odd / sums.bern_odd_spec.values, q - 1, "odd character sum")
    ek_plus, r2, b2 = _take_real(
        (q - 1) / 2 * EULER_GAMMA + (q - 3) / 2 * LOG_2PI,
        -0.5 * (sums.s_even_spec.values[1:] / even_den), q - 1,
        "even character sum")
    mq_odd = float(np.max(np.abs(odd_vals)))
    mq_even = float(np.max(np.abs(even_vals))) if even_vals.size else 0.0
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
        sums = character_sums(
            ctx,
            _require(caches, ctx, FunctionTag.LOGGAMMA),
            _require(caches, ctx, FunctionTag.S_PAIR),
        )
        ek, ek_plus, diff, mq_odd, mq_even, imag = _assemble_s(ctx, sums)
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


def checksum(ctx: PrimeContext, table: ValueTable) -> float:
    """Residual of a full cache against its closed-form sum.

    The caller thresholds the result; linearity makes a single corrupted
    entry show up at its full magnitude.
    """
    if table.q != ctx.q:
        raise ValueError(f"cache q={table.q} does not match context q={ctx.q}")
    if not table.is_full_range:
        raise ValueError("checksum requires a full-range cache")
    return table.checksum_residual()
