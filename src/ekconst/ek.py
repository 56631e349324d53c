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

Every table is evaluated into, or copied into, its own transform buffer
of q-1 float64 (_table), packed there and transformed in place, so that
no stage of a route holds more than two arrays of m complex values, the
two spectra of the route: 16 bytes per unit of q.

Each of two independent routes runs both its parity halves in one pass
of character_blocks over its two spectra: block by block it reads their
bins once, through Spectrum.bins, and unpacks every character's pair of
values, which compute_ek divides (_ratio) and hands to the half of the
character's parity.  _Half reduces each block as it arrives to its sum,
its max |L'/L(1,chi)| and its share of the imaginary budget; no array of
m ratios is formed.  The odd half gives ek_diff, the even ek_plus:

  method "s":  odd characters through log Gamma and the first
               chi-Bernoulli numbers, even characters through S(x) and
               log Gamma: two transforms;
  method "t":  both halves through T(x) and psi(x): two.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from . import cache as cache_mod
from .cache import FunctionTag
from .fft import Spectrum, UnitRoots, dft
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
           tag: FunctionTag) -> np.ndarray:
    """A new array of q-1 float64, a transform buffer, whose first values
    hold the tagged table: all of them, or the lower half for S_PAIR.  The
    table is copied from tables(tag), which is never written, or evaluated
    straight into the buffer where that is None.  Either way it must hold
    the tag's values for ctx's q and g, and pass the closed-form gate,
    which refuses a table short of the full range."""
    buf = np.empty(ctx.q - 1)
    k1 = cache_mod.full_range(ctx.q, tag)[1]
    held = tables and tables(tag)
    table = held or cache_mod.precompute(ctx, tag, out=buf[:k1])
    if (table.function_tag, table.q, table.g) != (tag, ctx.q, ctx.g):
        raise ValueError(f"{tag.value} table for q={table.q}, g={table.g} "
                         f"does not match the context q={ctx.q}, g={ctx.g}"
                         f" (it holds {table.function_tag.value} values)")
    cache_mod.check_closed_form(table)
    if held:
        buf[:k1] = held.values
    return buf


def pack(f, centre: bool = False) -> np.ndarray:
    """z = (f-c)[0::2] + i (f-c)[1::2] for a real table f of even length,
    a complex view of the new array f - c.  c moves bin 0 only: mean(f)
    if centre, as for LOGGAMMA, which keeps its transform accurate, else
    0, as for T and psi, ruled by their values near x = 0."""
    return _pack(np.array(f, dtype=float), centre)


def _pack(f: np.ndarray, centre: bool = False) -> np.ndarray:
    """pack into f's own buffer, a contiguous float64 array of even length:
    f is centred in place and viewed as complex."""
    if len(f) % 2:
        raise ValueError(f"input length must be even, got {len(f)}")
    if centre:
        f -= f.sum() / len(f)
    return f.view(complex)


# points per block of roots and of their temporaries: at q = 305741, 2^15
# raised the peak of a compute by about 3 MB, and at q = 10^7 the ratio
# pass took about 20% longer at 2^12 and 70% longer at 2^11
_BLOCK = 1 << 13


def s_pair_bernoulli(ctx: PrimeContext, y: np.ndarray) -> np.ndarray:
    """The S pair values s, the lower half of the real array y of length
    q-1 = 2m, and the Bernoulli input made into one table in y, packed as
    pack packs: y[k] = s[k] - c + 8 u[k] and y[k+m] = s[k] - c - 8 u[k],
    k < m, u[k] = (2 a_k - q)/q, c = mean(s), u formed block by block.
    Its bin 2t is twice bin t of s (t >= 1), its bin 2t+1 is 16 times
    B_{1, conj(chi_1^{2t+1})} = (1/q) sum_a a conj(chi)(a), the odd branch
    of a/q with a_{k+m} = q - a_k folded in exactly.  The factor 8 gives
    the two parts about the same norm (||s - c||/||u|| is 7 to 10 for q
    from 101 to 10^7), and scales exactly."""
    m = ctx.m
    lo, hi = y[:m], y[m:]
    lo -= lo.sum() / m
    for k0 in range(0, m, _BLOCK):
        k1 = min(k0 + _BLOCK, m)
        u = 2.0 * residues(ctx, k0, k1)
        u -= ctx.q
        u /= ctx.q / 8
        np.subtract(lo[k0:k1], u, out=hi[k0:k1])
        lo[k0:k1] += u
    return y.view(complex)


def packed_spectrum(z: np.ndarray, roots: UnitRoots,
                    what: str) -> Spectrum:
    """dft(z), z the packed real table f of length q-1 = 2m, z =
    f[0::2] + i f[1::2] (pack, s_pair_bernoulli); z is consumed, roots is
    UnitRoots(q-1), and what names the table in an error.

    One inverse sample checks its bins Z: sum_j Z[j] e(jt/m) = m z[t], t =
    (m-1)//2, which a one-bin roll of Z moves by about 2m|z[t]|; t != -t
    (mod m) refuses a conjugate-direction Z.  e(jt/m) is (-1)^j e(-j/2m)
    for odd m, and (-1)^j e(-j/m) for even m, then minus that at j - m/2.
    Past eps*log2(q-1)*m*||z||_2, which bounds _Half's kind of budget
    eps*log2(q-1)*sum|Z| (Parseval) and comes from the input, so that a
    wrong Z cannot raise it: CharacterSumError.
    """
    m = len(z)
    sample = complex(z[(m - 1) // 2])
    scale = m * math.sqrt(np.vdot(z, z).real)
    spectrum = dft(z)
    # the roots of a block serve both halves, bins [0, h) and, for even m
    # only, [h, m); each block's alternating sums are pairwise, then over
    # blocks
    step = 2 - m % 2
    h = m // step
    sums = np.zeros((step, -(-h // _BLOCK)), dtype=complex)
    for block, i in enumerate(range(0, h, _BLOCK)):
        r = roots.block(step * i, step * min(i + _BLOCK, h), step)
        for total, start in zip(sums, (0, h)):
            part = spectrum.bins(start + i, start + min(i + _BLOCK, h))
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
    return spectrum


def character_blocks(a: Spectrum, b: Spectrum, roots: UnitRoots
                     ) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Every character i, 1 <= i < 2m, once, block by block: (i, A, B) with
    A[s] = 2 F_a[i + 2s] and B[s] = 2 F_b[i + 2s], i + 2s of i's parity,
    F_a and F_b the transforms of the real tables whose packed spectra are
    a and b (packed_spectrum), roots UnitRoots(q-1).
    With Z = a or b, F[k] = E[k] + w[k] O[k] and F[k+m] = E[k] - w[k] O[k],
    k < m, w[k] = e(-k/2m), where E = (Z + conj Z[-k])/2 and O = (Z -
    conj Z[-k])/2i transform f[0::2] and f[1::2].  Each block of _BLOCK k
    reads its bins of a and of b once and gives four runs of characters,
    k and k+m of each parity; F[0], the principal character's, is
    dropped.  A and B are views of new arrays, which the caller may
    overwrite; no array of m values is formed."""
    m = len(a)
    for k0 in range(0, m, _BLOCK):
        k1 = min(k0 + _BLOCK, m)
        w = roots.block(k0, k1)
        (plus_a, minus_a), (plus_b, minus_b) = (_unpack(z, w, k0, k1)
                                                for z in (a, b))
        skip = 2 * (k0 == 0)                    # past F[0]
        for k, s, fa, fb in ((k0, skip, plus_a, plus_b),
                             (k0, 1, plus_a, plus_b),
                             (k0 + m, 0, minus_a, minus_b),
                             (k0 + m, 1, minus_a, minus_b)):
            if s < len(fa):
                yield k + s, fa[s::2], fb[s::2]


def _unpack(z: Spectrum, w: np.ndarray, k0: int, k1: int
            ) -> tuple[np.ndarray, np.ndarray]:
    """(2E[k] + 2w[k] O[k], 2E[k] - 2w[k] O[k]), k0 <= k < k1, w their
    roots, with E, O and w as in character_blocks, read from runs of z's
    bins, forward and reversed, Z[-0] being Z[0]."""
    m = len(z)
    a = z.bins(k0, k1)
    lo = m - k1 + 1
    b = z.bins(lo, m - k0 + 1) if k0 else np.append(z.bins(lo, m),
                                                    z.bins(0, 1))
    b = np.conjugate(b[::-1])
    e = np.add(a, b)                            # 2E
    np.subtract(a, b, out=b)
    b *= w
    b *= -1j                                    # 2wO
    return np.add(e, b), np.subtract(e, b, out=e)


def _ratio(num: np.ndarray, den: np.ndarray, scale: float,
           what: str) -> np.ndarray:
    """num / (scale * den), into num, scale a power of two; den is scaled
    in place.  CharacterSumError (what names the denominator) where some
    |scale * den| is below BERNOULLI_FLOOR (or NaN), where the ratio would
    be inf or noise.  The factor 2 of character_blocks cancels."""
    den *= scale
    if not np.abs(den).min() >= 2 * BERNOULLI_FLOOR:
        raise CharacterSumError(f"{what} is numerically zero "
                                f"(below {BERNOULLI_FLOOR:g})")
    num /= den
    return num


class _Half:
    """One parity half's sum over its characters, reduced block by block
    as its terms arrive (add), with L'/L(1,chi) = shift + term."""

    def __init__(self, shift: float):
        self.shift = shift
        self.sums: list[complex] = []
        self.total = self.mq = 0.0

    def add(self, terms: np.ndarray) -> None:
        """Reduce one block of terms, which then holds L'/L(1,chi)."""
        self.sums.append(complex(terms.sum()))
        self.total += float(np.abs(terms).sum())
        terms += self.shift
        self.mq = max(self.mq, float(np.abs(terms).max()))

    def result(self, q: int, constant: float, what: str
               ) -> tuple[float, float, tuple[float, float]]:
        """(value, max |L'/L(1,chi)|, (imag residue, bound)).  The value
        constant + sum(terms), each block summed by np.sum and the block
        sums by math.fsum, must be finite and real: each term comes from
        transforms of length at most q-1, with a relative float64 error of
        about eps*log2(q-1), so its imaginary residue is bounded by that
        error budget of the whole sum, eps*log2(q-1)*sum|terms|."""
        bad = [s for s in self.sums if not cmath.isfinite(s)]
        if bad:
            raise CharacterSumError(f"{what} is not finite: a block of its "
                                    f"terms sums to {bad[0]}")
        value = constant + complex(math.fsum(s.real for s in self.sums),
                                   math.fsum(s.imag for s in self.sums))
        residue = abs(value.imag)
        bound = _EPS * math.log2(q - 1) * self.total
        if not residue <= bound:
            raise CharacterSumError(
                f"imaginary residue {residue:.3e} of {what} exceeds its "
                f"float64 budget eps*log2({q - 1})*sum|terms| = {bound:.3e}"
            )
        return value.real, self.mq, (residue, bound)


def compute_ek(ctx: PrimeContext, tables: Callable | None = None,
               method: str = METHOD_S) -> EKResult:
    """Full constant computation for one prime; see module docstring.

    Each table is fetched at its first use from the lookup tables(tag), a
    FunctionTag -> ValueTable or None, or evaluated here where that gives
    None: LOGGAMMA and then S_PAIR, packed with the Bernoulli input, for
    route "s", T and then PSI for route "t", each packed in its own
    transform buffer (_table), which then holds its spectrum while its
    halves run.
    With method "both" the S route provides the reported values and the T
    route the cross-check discrepancy.
    """
    if method not in METHOD_TAGS:
        raise ValueError(f"unknown method {method!r}")
    q, m, lq = ctx.q, ctx.m, math.log(ctx.q)
    roots = UnitRoots(q - 1)
    # per route, ((ek_diff, mq_odd, imag), (ek_plus, mq_even, imag)), both
    # halves from one pass of character_blocks over the route's spectra
    routes = []
    if method in (METHOD_S, METHOD_BOTH):
        lg = packed_spectrum(
            _pack(_table(ctx, tables, FunctionTag.LOGGAMMA), True), roots,
            FunctionTag.LOGGAMMA.value)
        sb = packed_spectrum(
            s_pair_bernoulli(ctx, _table(ctx, tables, FunctionTag.S_PAIR)),
            roots, "S_PAIR+Bernoulli")
        shift = EULER_GAMMA + LOG_2PI
        odd, even = _Half(shift), _Half(shift)
        for i, f_lg, f_sb in character_blocks(lg, sb, roots):
            if i % 2:
                # odd chi = chi_1^i: L'/L(1,chi) - shift is the ratio of
                # sum_a conj(chi)(a) log Gamma(a/q) to B_{1,conj chi}, which
                # the odd bins of sb hold 16 times
                odd.add(_ratio(f_lg, f_sb, 1 / 16,
                               "a first chi-Bernoulli number"))
            else:
                # even chi, i >= 2: L'/L(1,chi) - shift is -1/2 times the
                # ratio of sum_a conj(chi)(a) S(a/q) to sum_a conj(chi)(a)
                # log Gamma(a/q), and the even bins of sb hold the S sums
                # twice, from S(x) + S(1-x)
                even.add(np.multiply(_ratio(
                    f_sb, f_lg, 1, "an even-character log Gamma sum"),
                    -0.25, out=f_sb))
        routes.append((odd.result(q, m * shift, "odd character sum"),
                       even.result(q, m * EULER_GAMMA + (m - 1) * LOG_2PI,
                                   "even character sum")))
        del lg, sb  # before the T route makes its own spectra
    if method in (METHOD_T, METHOD_BOTH):
        t, psi = (packed_spectrum(_pack(_table(ctx, tables, tag)), roots,
                                  tag.value)
                  for tag in METHOD_TAGS[METHOD_T])
        # L'/L(1,chi) = -log q - r, r the ratio of sum_a chi(a) T(a/q) to
        # sum_a chi(a) psi(a/q).  The bins give r for conj chi, which runs
        # over the same parity as chi does
        halves = _Half(0.0), _Half(0.0)         # even, odd
        for i, f_t, f_psi in character_blocks(t, psi, roots):
            parity = ("even", "odd")[i % 2]
            halves[i % 2].add(np.subtract(-lq, _ratio(
                f_t, f_psi, 1, f"an {parity}-character psi sum"), out=f_t))
        routes.append((halves[1].result(q, 0.0, "odd character sum"),
                       halves[0].result(q, EULER_GAMMA,
                                        "even character sum")))
    ek, *cross = (odd[0] + even[0] for odd, even in routes)
    (diff, mq_odd, imag_odd), (ek_plus, mq_even, imag_even) = routes[0]
    mq = max(mq_odd, mq_even)
    imag = max(imag_odd, imag_even)
    return EKResult(
        q=q, ek=ek, ek_plus=ek_plus, ek_diff=diff,
        mq_odd=mq_odd, mq_even=mq_even, mq=mq,
        ek_norm=ek / lq, ek_plus_norm=ek_plus / lq, mq_norm=mq / math.log(lq),
        method=method,
        method_discrepancy=abs(ek - cross[0]) if cross else None,
        imag_residue=imag[0], imag_bound=imag[1],
    )

