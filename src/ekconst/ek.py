"""Assembly of the Euler-Kronecker constants, their difference, and the
maximum logarithmic-derivative modulus M_q from precomputed value tables.

Character sums over the nontrivial Dirichlet characters mod q are reordered
through a_k = g^k into discrete Fourier transforms (bin j of the
transform of f(a_k/q) is the sum of conj(chi_1^j)(a) f(a/q), where
chi_1(g) = e(1/(q-1))).  chi_1^j is even exactly when j is even.  Both
parities of a table come from one transform of length m = (q-1)/2 of its
values packed as f[0::2] + i f[1::2] (pack, packed_spectrum), whose
unit roots UnitRoots forms per block.  The S pair values and the
Bernoulli input share one such table (s_pair_bernoulli): the S pair
values are its even branch, and the first chi-Bernoulli numbers its odd
branch.

Each of two independent routes runs in two parity halves, and every half
is one pass of parity_ratios: block by block it unpacks one parity's bins
of a numerator and of a denominator spectrum and divides them into the
half's one array, one ratio per character.  _half reduces that array to
the half's constant, its max |L'/L(1,chi)| and its imaginary residue
before the next half allocates.  The odd half gives ek_diff, the even
ek_plus:

  method "s":  odd characters through log Gamma and the first
               chi-Bernoulli numbers, even characters through S(x) and
               log Gamma: two transforms;
  method "t":  both halves through T(x) and psi(x): two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import cache as cache_mod
from .cache import FunctionTag, ValueTable
from .fft import UnitRoots, dft
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


def pack(f: np.ndarray, centre: bool = False) -> np.ndarray:
    """z = (f-c)[0::2] + i (f-c)[1::2] for a real table f of even length,
    a complex view of the new array f - c.  c moves bin 0 only: mean(f)
    if centre, as for LOGGAMMA, which keeps its transform accurate, else
    0, as for T and psi, ruled by their values near x = 0."""
    if len(f) % 2:
        raise ValueError(f"input length must be even, got {len(f)}")
    return np.subtract(f, f.sum() / len(f) if centre else 0.0).view(complex)


def s_pair_bernoulli(ctx: PrimeContext, s: np.ndarray) -> np.ndarray:
    """The S pair values s and the Bernoulli input as one real table y of
    length q-1 = 2m, packed as pack packs: y[k] = s[k] - c + 8 u[k] and
    y[k+m] = s[k] - c - 8 u[k], k < m, u[k] = (2 a_k - q)/q, c = mean(s).
    Its bin 2t is twice bin t of s (t >= 1), its bin 2t+1 is 16 times
    B_{1, conj(chi_1^{2t+1})} = (1/q) sum_a a conj(chi)(a), the odd branch
    of a/q with a_{k+m} = q - a_k folded in exactly.  The factor 8 gives
    the two parts about the same norm (||s - c||/||u|| is 7 to 10 for q
    from 101 to 10^7), and scales exactly."""
    m = ctx.m
    u = 2.0 * residues(ctx, 0, m)
    u -= ctx.q
    u /= ctx.q / 8
    y = np.empty(2 * m)
    lo, hi = y[:m], y[m:]
    np.subtract(s, s.sum() / len(s), out=lo)
    np.subtract(lo, u, out=hi)
    lo += u
    return y.view(complex)


_BLOCK = 1 << 15    # points per block of roots and of their temporaries


def packed_spectrum(z: np.ndarray, roots: UnitRoots,
                    what: str) -> np.ndarray:
    """Z = dft(z), z the packed real table f of length q-1 = 2m, z =
    f[0::2] + i f[1::2] (pack, s_pair_bernoulli); z is consumed, roots is
    UnitRoots(q-1), and what names the table in an error.

    One inverse sample checks Z: sum_j Z[j] e(jt/m) = m z[t], t = (m-1)//2,
    which a one-bin roll of Z moves by about 2m|z[t]|; t != -t (mod m)
    refuses a conjugate-direction Z.  e(jt/m) is (-1)^j e(-j/2m) for odd
    m, and (-1)^j e(-j/m) for even m, then minus that at j - m/2.  Past
    eps*log2(q-1)*m*||z||_2, which bounds _half's kind of budget
    eps*log2(q-1)*sum|Z| (Parseval) and comes from the input, so that a
    wrong Z cannot raise it: CharacterSumError.
    """
    m = len(z)
    sample = complex(z[(m - 1) // 2])
    scale = m * math.sqrt(np.vdot(z, z).real)
    z = dft(z).values
    # the roots of a block serve both halves, z[:h] and, for even m only,
    # z[h:]; each block's alternating sums are pairwise, then over blocks
    step = 2 - m % 2
    h = m // step
    halves = (z[:h], z[h:])[:step]
    sums = np.zeros((step, -(-h // _BLOCK)), dtype=complex)
    for block, i in enumerate(range(0, h, _BLOCK)):
        r = roots.block(step * i, step * min(i + _BLOCK, h), step)
        for total, half in zip(sums, halves):
            part = half[i:i + _BLOCK]
            total[block] = ((r[0::2] * part[0::2]).sum()
                            - (r[1::2] * part[1::2]).sum())
    back, *upper = sums.sum(axis=1)
    if upper:
        back -= (-1) ** h * upper[0]
    residual, bound = abs(back - m * sample), _EPS * math.log2(2 * m) * scale
    if not residual <= bound:
        raise CharacterSumError(
            f"inverse sample of the packed {what} transform is off by "
            f"{residual:.3e}, past its float64 budget "
            f"eps*log2({2 * m})*m*||z||_2 = {bound:.3e}")
    return z


def parity_ratios(num: np.ndarray, den: np.ndarray, roots: UnitRoots,
                  odd: bool, scale: float, what: str) -> np.ndarray:
    """N[i] / (scale * D[i]) for the characters of one parity, N and D the
    transforms of the real tables whose packed spectra are num and den
    (packed_spectrum), roots UnitRoots(q-1), scale a power of two: odd,
    out[t] for i = 2t+1, t < m; even, out[t-1] for i = 2t, 1 <= t < m.
    With Z = num or den, F[i] = E[i] + w[i] O[i] and F[i+m] = E[i] - w[i]
    O[i], i < m, w[i] = e(-i/2m), where E = (Z + conj Z[-i])/2 and O = (Z -
    conj Z[-i])/2i transform f[0::2] and f[1::2]; both sides keep the
    factor 2 (_unpack), which cancels.  Block by block; CharacterSumError
    (what names the denominator) where some |scale * D[i]| is below
    BERNOULLI_FLOOR (or NaN), where the ratio would be inf or noise."""
    m = len(num)
    out = np.empty(m - 1 + odd, dtype=complex)

    def divide(part: np.ndarray, d: np.ndarray) -> None:
        d *= scale
        if not np.abs(d).min() >= 2 * BERNOULLI_FLOOR:
            raise CharacterSumError(f"{what} is numerically zero "
                                    f"(below {BERNOULLI_FLOOR:g})")
        part /= d

    # F[i] runs over i = 2-odd, 2-odd+2, ... and F[i+m] over i = j, j+2,
    # ..., the same i for even m, where one run gives both
    i, j = 2 - odd, (m + odd) % 2
    n = len(range(i, m, 2))
    lower, upper = out[:n], out[n:]
    if j == 0:  # F[m] = E[0] - O[0], Z[-0] being Z[0]
        out[n] = 2 * (num[0].real - num[0].imag)
        divide(out[n:n + 1],
               np.array([2 * (den[0].real - den[0].imag)], dtype=complex))
        upper, j = upper[1:], 2
    # (k, plus, minus): F[k], F[k+2], ... into plus, F[k+m], F[k+m+2], ...
    # into minus
    runs = ([(i, lower, upper)] if i == j
            else [(i, lower, None), (j, None, upper)])
    for k, plus, minus in runs:
        size = len(minus if plus is None else plus)
        for lo in range(0, size, _BLOCK):
            hi = min(lo + _BLOCK, size)
            w = roots.block(k + 2 * lo, k + 2 * hi, 2)
            parts = [v if v is None else v[lo:hi] for v in (plus, minus)]
            _unpack(num, w, k + 2 * lo, *parts)
            dens = [v if v is None else np.empty_like(v) for v in parts]
            _unpack(den, w, k + 2 * lo, *dens)
            for part, d in zip(parts, dens):
                if part is not None:
                    divide(part, d)
    return out


def _unpack(z: np.ndarray, w: np.ndarray, k: int,
            plus: np.ndarray | None, minus: np.ndarray | None) -> None:
    """2E[i] + 2w[i] O[i] into plus and 2E[i] - 2w[i] O[i] into minus, i =
    k, k+2, ..., either of them None, w their roots, with E, O and w as in
    parity_ratios, read from strided and reversed views of z."""
    m, n = len(z), len(w)
    a, b = z[k::2][:n], np.conjugate(z[m - k::-2][:n])
    e = minus if plus is None else plus
    np.add(a, b, out=e)                         # 2E
    np.subtract(a, b, out=b)
    b *= w
    b *= -1j                                    # 2wO
    if plus is not None and minus is not None:
        np.subtract(e, b, out=minus)
    (np.subtract if plus is None else np.add)(e, b, out=e)


def _half(q: int, terms: np.ndarray, shift: float, constant: float,
          what: str) -> tuple[float, float, tuple[float, float]]:
    """(value, max |L'/L(1,chi)|, (imag residue, bound)) of one half, from
    its per-character terms, with L'/L(1,chi) = shift + term; terms then
    holds those values.  The value constant + sum(terms) must be finite
    and real: each term comes from transforms of length at most q-1, with
    a relative float64 error of about eps*log2(q-1), so its imaginary
    residue is bounded by that error budget of the whole sum,
    eps*log2(q-1)*sum|terms|."""
    value = constant + complex(terms.sum())
    if not cmath.isfinite(value):
        raise CharacterSumError(f"{what} is not finite: {value}")
    total = mq = 0.0
    for lo in range(0, len(terms), _BLOCK):
        part = terms[lo:lo + _BLOCK]
        total += float(np.abs(part).sum())
        part += shift
        mq = max(mq, float(np.abs(part).max()))
    residue = abs(value.imag)
    bound = _EPS * math.log2(q - 1) * total
    if not residue <= bound:
        raise CharacterSumError(
            f"imaginary residue {residue:.3e} of {what} exceeds its float64 "
            f"budget eps*log2({q - 1})*sum|terms| = {bound:.3e}"
        )
    return value.real, mq, (residue, bound)


def compute_ek(ctx: PrimeContext, tables: Callable | None = None,
               method: str = METHOD_S) -> EKResult:
    """Full constant computation for one prime; see module docstring.

    Each table is fetched at its first use from the lookup tables(tag), a
    FunctionTag -> ValueTable or None, or evaluated here where that gives
    None: LOGGAMMA and then S_PAIR, packed with the Bernoulli input, for
    route "s", T and then PSI for route "t", each packed.  A table is
    dropped once packed, unless tables(tag) holds it; its spectrum lives
    while its halves run.
    With method "both" the S route provides the reported values and the T
    route the cross-check discrepancy.
    """
    if method not in METHOD_TAGS:
        raise ValueError(f"unknown method {method!r}")
    q, m = ctx.q, ctx.m
    roots = UnitRoots(q - 1)
    # per route, ((ek_diff, mq_odd, imag), (ek_plus, mq_even, imag)); each
    # half's arrays are gone once _half returns, before the next allocates
    routes = []
    if method in (METHOD_S, METHOD_BOTH):
        lg = packed_spectrum(
            pack(_table(ctx, tables, FunctionTag.LOGGAMMA).values, True),
            roots, FunctionTag.LOGGAMMA.value)
        sb = packed_spectrum(
            s_pair_bernoulli(ctx,
                             _table(ctx, tables, FunctionTag.S_PAIR).values),
            roots, "S_PAIR+Bernoulli")
        shift = EULER_GAMMA + LOG_2PI
        # odd chi = chi_1^{2t+1}, t < m: L'/L(1,chi) - shift is the ratio of
        # sum_a conj(chi)(a) log Gamma(a/q) to B_{1,conj chi}, which the odd
        # bins of sb hold 16 times
        odd = _half(q, parity_ratios(lg, sb, roots, True, 1 / 16,
                                     "a first chi-Bernoulli number"),
                    shift, m * shift, "odd character sum")
        # even chi = chi_1^{2t}, 1 <= t < m: L'/L(1,chi) - shift is -1/2
        # times the ratio of sum_a conj(chi)(a) S(a/q) to sum_a conj(chi)(a)
        # log Gamma(a/q), and the even bins of sb hold the S sums twice,
        # from S(x) + S(1-x)
        even = parity_ratios(sb, lg, roots, False, 1,
                             "an even-character log Gamma sum")
        even *= -0.25
        routes.append((odd, _half(q, even, shift, m * EULER_GAMMA
                                  + (m - 1) * LOG_2PI, "even character sum")))
        del lg, sb, even  # before the T route makes its own spectra
    if method in (METHOD_T, METHOD_BOTH):
        t, psi = (packed_spectrum(pack(_table(ctx, tables, tag).values),
                                  roots, tag.value)
                  for tag in METHOD_TAGS[METHOD_T])
        # L'/L(1,chi) = -log q - r, r the ratio of sum_a chi(a) T(a/q) to
        # sum_a chi(a) psi(a/q).  The bins give r for conj chi, which runs
        # over the same parity as chi does
        halves = []
        for odd, constant in ((True, 0.0), (False, EULER_GAMMA)):
            parity = "odd" if odd else "even"
            r = parity_ratios(t, psi, roots, odd, 1,
                              f"an {parity}-character psi sum")
            halves.append(_half(q, np.subtract(-math.log(q), r, out=r), 0.0,
                                constant, f"{parity} character sum"))
            del r
        routes.append(tuple(halves))
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

