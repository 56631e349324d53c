"""Assembly of the Euler-Kronecker constants, their difference, and the
maximum logarithmic-derivative modulus M_q from precomputed value tables.

Character sums over the nontrivial Dirichlet characters mod q are reordered
through a_k = g^k into discrete Fourier transforms (bin j of the
transform of f(a_k/q) is the sum of conj(chi_1^j)(a) f(a/q), where
chi_1(g) = e(1/(q-1))).  chi_1^j is even exactly when j is even.  Both
parities of a table come from one transform of length m = (q-1)/2 of its
values packed as f[0::2] + i f[1::2] (packed_spectrum, parity_bins).  The
Bernoulli sequence is the odd branch of a decimation split, and the S
pair table an even branch as it stands.

Each of two independent routes runs in two parity halves.  A half divides
two sets of bins, one ratio per character; _half reduces the ratios to the
half's constant, its max |L'/L(1,chi)| and its imaginary residue before
the next half allocates.  The odd half gives ek_diff, the even ek_plus:

  method "s":  odd characters through log Gamma and the first
               chi-Bernoulli numbers (s_odd), even characters through
               S(x) and log Gamma (s_even): three transforms;
  method "t":  both halves through T(x) and psi(x) (t_half): two.
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


def packed_spectrum(f: np.ndarray, tw: np.ndarray,
                    tag: FunctionTag) -> np.ndarray:
    """Z, the dft of the tag's real table f (length q-1 = 2m) packed as z =
    (f-c)[0::2] + i (f-c)[1::2]; f is dropped once packed.  c moves bin 0
    only: mean(f) for LOGGAMMA, which keeps its transform accurate, else 0,
    as for T and psi, ruled by their values near x = 0.

    One inverse sample checks Z: sum_j Z[j] e(jt/m) = m z[t], t = (m-1)//2,
    which a one-bin roll of Z moves by about 2m|z[t]|; t != -t (mod m)
    refuses a conjugate-direction Z.  e(jt/m) is (-1)^j tw[j] for odd m,
    and (-1)^j e(-j/m) for even m, e(-j/m) being tw[2j], then -tw[2j-m].
    Past eps*log2(q-1)*m*||z||_2, which bounds _half's kind of budget
    eps*log2(q-1)*sum|Z| (Parseval) and comes from the input, so that a
    wrong Z cannot raise it: CharacterSumError.
    """
    m, odd = divmod(len(f), 2)
    if odd:
        raise ValueError(f"input length must be even, got {len(f)}")
    c = float(np.mean(f)) if tag is FunctionTag.LOGGAMMA else 0.0
    z = np.empty(m, dtype=complex)
    np.subtract(f[0::2], c, out=z.real)
    np.subtract(f[1::2], c, out=z.imag)
    del f
    sample = complex(z[(m - 1) // 2])
    scale = m * math.sqrt(np.vdot(z, z).real)
    z, roots = dft(z).values, tw[::2 - m % 2]
    h = len(roots)  # m for odd m, when z[h:] is empty
    back = (_alternating_dot(roots, z[:h])
            - (-1) ** h * _alternating_dot(roots, z[h:]))
    residual, bound = abs(back - m * sample), _EPS * math.log2(2 * m) * scale
    if not residual <= bound:
        raise CharacterSumError(
            f"inverse sample of the packed {tag.value} transform is off by "
            f"{residual:.3e}, past its float64 budget "
            f"eps*log2({2 * m})*m*||z||_2 = {bound:.3e}")
    return z


def _alternating_dot(roots: np.ndarray, z: np.ndarray,
                     block: int = 1 << 15) -> complex:
    """sum_j (-1)^j roots[j] z[j], added pairwise in cached blocks of even
    length, then over them."""
    return complex(np.sum([np.sum(roots[i:i + block:2] * z[i:i + block:2])
                           - np.sum(roots[i + 1:i + block:2]
                                    * z[i + 1:i + block:2])
                           for i in range(0, len(z), block)]))


def parity_bins(z: np.ndarray, tw: np.ndarray, odd: bool) -> np.ndarray:
    """One parity of the transform F of f, z = packed_spectrum(f, tw, ...):
    odd, out[t] = F[2t+1], t < m; even, out[t-1] = F[2t], 1 <= t < m, from
    F[i] = E[i] + tw[i] O[i] and F[i+m] = E[i] - tw[i] O[i], i < m, where
    E = (Z + conj Z[-i])/2 and O = (Z - conj Z[-i])/2i transform f[0::2]
    and f[1::2], read at i, i+2, ... from strided and reversed views."""
    m = len(z)
    out = rest = np.empty(m - 1 + odd, dtype=complex)
    for i, sign in ((2 - odd, 1), ((m + odd) % 2, -1)):
        part, rest = rest[:len(range(i, m, 2))], rest[len(range(i, m, 2)):]
        if i == 0:  # Z[-0] is Z[0], so E[0] and O[0] are its two parts
            part[0] = z[0].real + sign * z[0].imag
            part, i = part[1:], 2
        a, b = z[i::2], np.conjugate(z[m - i::-2][:len(part)])
        np.add(a, b, out=part)
        np.subtract(a, b, out=b)
        b *= tw[i::2]
        part += np.multiply(b, -1j * sign, out=b)  # in place: a lower peak
        part *= 0.5
    return out


def bernoulli_twisted(ctx: PrimeContext, tw: np.ndarray) -> np.ndarray:
    """First chi-Bernoulli numbers B_{1, conj(chi_1^{2t+1})}, t < m, with
    B_{1,chi} = (1/q) sum_a a chi(a), nonzero exactly for odd characters:
    the odd branch of f(x) = x, a_{k+m} = q - a_k folded in exactly."""
    return dft(tw * (2.0 * residues(ctx, 0, ctx.m) - ctx.q) / ctx.q).values


def _divide(num: np.ndarray, den: np.ndarray, what: str) -> np.ndarray:
    """num / den, in place in num; CharacterSumError if some |den| is below
    BERNOULLI_FLOOR (or NaN), where the ratio would be inf or noise."""
    if den.size and not float(np.min(np.abs(den))) >= BERNOULLI_FLOOR:
        raise CharacterSumError(f"{what} is numerically zero "
                                f"(below {BERNOULLI_FLOOR:g})")
    num /= den
    return num


def s_odd(ctx: PrimeContext, log_gamma: np.ndarray,
          tw: np.ndarray) -> np.ndarray:
    """The odd half of the S method, log_gamma the packed spectrum of the
    LOGGAMMA values and tw = twiddle(q-1): for chi = chi_1^{2t+1}, t < m,
    out[t] = L'/L(1,chi) - (gamma + log 2 pi), the ratio of
    sum_a conj(chi)(a) log Gamma(a/q) to B_{1,conj chi}."""
    den = bernoulli_twisted(ctx, tw)  # before the bins, for a lower peak
    return _divide(parity_bins(log_gamma, tw, True), den,
                   "a first chi-Bernoulli number")


def s_even(log_gamma: np.ndarray, tw: np.ndarray,
           s_pair_table: ValueTable) -> np.ndarray:
    """The even half of the S method, log_gamma and tw as for s_odd: for
    chi = chi_1^{2t}, 1 <= t < m, out[t-1] = L'/L(1,chi) - (gamma + log 2 pi),
    -1/2 times the ratio of sum_a conj(chi)(a) S(a/q), from S(x) + S(1-x),
    an even branch as it stands, to sum_a conj(chi)(a) log Gamma(a/q)."""
    num = dft(s_pair_table.values).values[1:]  # before the bins, as s_odd
    even = _divide(num, parity_bins(log_gamma, tw, False),
                   "an even-character log Gamma sum")
    even *= -0.5
    return even


def t_half(q: int, t: np.ndarray, psi: np.ndarray, tw: np.ndarray,
           odd: bool) -> np.ndarray:
    """One half of the T method, t and psi the packed spectra of the T and
    PSI values: L'/L(1,chi) = -log q - r, r the ratio of sum_a chi(a) T(a/q)
    to sum_a chi(a) psi(a/q), for the characters of parity_bins(., tw, odd),
    indexed as it indexes them."""
    r = _divide(parity_bins(t, tw, odd), parity_bins(psi, tw, odd),
                f"an {'odd' if odd else 'even'}-character psi sum")
    # the transforms give the conj(chi) sums of real tables; conjugating
    # their ratio gives the ratio of the chi sums
    np.conjugate(r, out=r)
    return np.subtract(-math.log(q), r, out=r)


def _half(q: int, terms: np.ndarray, shift: float, constant: float,
          what: str) -> tuple[float, float, tuple[float, float]]:
    """(value, max |L'/L(1,chi)|, (imag residue, bound)) of one half, from
    its per-character terms, with L'/L(1,chi) = shift + term.  The value
    constant + sum(terms) must be finite and real: each term comes from
    transforms of length at most q-1, with a relative float64 error of
    about eps*log2(q-1), so its imaginary residue is bounded by that error
    budget of the whole sum, eps*log2(q-1)*sum|terms|."""
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
    None: LOGGAMMA, packed, for route "s", S_PAIR for its even half, T and
    then PSI, each packed, for route "t".  A table is dropped once packed,
    unless tables(tag) holds it; its spectrum lives while its halves run.
    With method "both" the S route provides the reported values and the T
    route the cross-check discrepancy.
    """
    if method not in METHOD_TAGS:
        raise ValueError(f"unknown method {method!r}")
    q, m = ctx.q, ctx.m
    tw = twiddle(q - 1)
    # per route, ((ek_diff, mq_odd, imag), (ek_plus, mq_even, imag)); each
    # half's arrays are gone once _half returns, before the next allocates
    routes = []
    if method in (METHOD_S, METHOD_BOTH):
        lg = packed_spectrum(_table(ctx, tables, FunctionTag.LOGGAMMA).values,
                             tw, FunctionTag.LOGGAMMA)
        shift = EULER_GAMMA + LOG_2PI
        odd = _half(q, s_odd(ctx, lg, tw), shift, m * shift,
                    "odd character sum")
        even = _half(q, s_even(lg, tw,
                               _table(ctx, tables, FunctionTag.S_PAIR)),
                     shift, m * EULER_GAMMA + (m - 1) * LOG_2PI,
                     "even character sum")
        routes.append((odd, even))
        del lg  # before the T route makes its own spectra
    if method in (METHOD_T, METHOD_BOTH):
        t, psi = (packed_spectrum(_table(ctx, tables, tag).values, tw, tag)
                  for tag in METHOD_TAGS[METHOD_T])
        routes.append((
            _half(q, t_half(q, t, psi, tw, True), 0.0, 0.0,
                  "odd character sum"),
            _half(q, t_half(q, t, psi, tw, False), 0.0, EULER_GAMMA,
                  "even character sum"),
        ))
    ek, *cross = (odd[0] + even[0] for odd, even in routes)
    (diff, mq_odd, imag_odd), (ek_plus, mq_even, imag_even) = routes[0]
    mq = max(mq_odd, mq_even)
    imag = max(imag_odd, imag_even)
    lq = math.log(q)
    return EKResult(
        q=q, ek=ek, ek_plus=ek_plus, ek_diff=diff,
        mq_odd=mq_odd, mq_even=mq_even, mq=mq,
        ek_norm=ek / lq, ek_plus_norm=ek_plus / lq, mq_norm=mq / math.log(lq),
        method=method,
        method_discrepancy=abs(ek - cross[0]) if cross else None,
        imag_residue=imag[0], imag_bound=imag[1],
    )

