"""Discrete Fourier transforms of arbitrary length, and the unit roots
e(-k/N), k < N/2, that unpack a packed transform (ek.parity_ratios) and
weight its inverse sample (ek.packed_spectrum), made per block from two
tables of about sqrt(N/2) roots (UnitRoots).

Convention: dft(x).values[j] = sum_k e(-j*k/N) x[k] with
e(t) = exp(2*pi*i*t), unnormalized (the usual engineering DFT).

numpy's pocketfft runs every length, but slowly where the length has a
large prime factor p.  A length n = p*r that dft selects is split instead
(Cooley-Tukey): pocketfft runs the length-r transforms in the input's
buffer, two tables of about r*sqrt(p) unit roots give the twiddle, applied
there too, and one batched pocketfft call runs the r length-p transforms
into the output, the one array of the input's length that dft allocates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .multgroup import factorize

_SPLIT_MIN = 3991       # 13*307; splitting a shorter 2p or 3p saved <= 35 us


@dataclass(frozen=True)
class Spectrum:
    """The output of dft: values[j] is bin j of the transform."""

    values: np.ndarray = field(repr=False)


def dft(x) -> Spectrum:
    """Unnormalized transform sum_k e(-j*k/N) x[k], O(N log N), computed
    in the buffer of np.ascontiguousarray(x, dtype=complex): a contiguous
    complex128 array x is overwritten.

    A length n from _SPLIT_MIN on whose largest prime factor p has
    300 < p < n goes through _split, which beat pocketfft there in timings
    of both; every other length goes straight to pocketfft.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    n = len(x)
    if n >= _SPLIT_MIN:     # shorter lengths are not factorised
        p = max(factorize(n))
        if 300 < p < n:
            return Spectrum(values=_split(x, p))
    return Spectrum(values=np.fft.fft(x, out=x))


def _roots(t: np.ndarray, n: int) -> np.ndarray:
    """e(-t/n) for integers 0 <= t < n, with the phase taken in (-1/2, 1/2]
    so that its rounding error stays below that of pi/n."""
    return np.exp(-2j * np.pi * np.where(2 * t > n, t - n, t) / n)


def _split(x: np.ndarray, p: int) -> np.ndarray:
    """The transform of the contiguous complex array x, of length n = p*r
    with p prime: with k = k1 + p*k2 and j = r*j1 + j2, the length-r
    transforms over k2, the twiddle e(-j2*k1/n), then the length-p
    transforms over k1, all by pocketfft.  The columns and the twiddle run
    in x's buffer, and the rows into the one output array."""
    n = len(x)
    r = n // p
    rows = x.reshape(r, p)                      # rows[j2, k1] once done
    np.fft.fft(rows, axis=0, out=rows)
    # e(-j2*k1/n) = e(-j2*c*u/n) * e(-j2*v/n) for k1 = c*u + v, v < c, from
    # two tables of about r*sqrt(p) roots, every phase below n (about 2 ulp):
    # a (r, g, c) view of the first g*c columns, then the last p - g*c < c
    c = math.isqrt(p) + 1
    g = p // c
    coarse = _roots(np.outer(np.arange(r), np.arange(0, p, c)), n)
    fine = _roots(np.outer(np.arange(r), np.arange(c)), n)
    body = rows[:, :g * c].reshape(r, g, c)
    body *= coarse[:, :g, None]
    body *= fine[:, None]
    tail = rows[:, g * c:]
    tail *= coarse[:, g:]
    tail *= fine[:, :p - g * c]
    out = np.empty((p, r), dtype=complex)       # out[j1, j2]
    np.fft.fft(rows, axis=1, out=out.T)
    return out.reshape(-1)


class UnitRoots:
    """e(-k/n), 0 <= k < n/2, formed where a block of them is used, as
    coarse[u] * fine[v] for k = c*u + v, v < c: two tables of about
    sqrt(n/2) roots, c even, so that the roots of one parity over a run of
    whole rows are one outer product.  Below _WHOLE roots, that product
    is formed once for every k, and a block is a view of it."""

    _WHOLE = 1 << 16

    def __init__(self, n: int):
        half = n // 2
        c = 2 * (math.isqrt(half) // 2 + 1)
        self.coarse = _roots(np.arange(0, half, c), n)
        self.fine = _roots(np.arange(c), n)
        self.whole = (np.multiply.outer(self.coarse, self.fine).reshape(-1)
                      if half <= self._WHOLE else None)

    def block(self, k0: int, k1: int, step: int = 1) -> np.ndarray:
        """e(-k/n) for k in range(k0, k1, step), k1 <= n/2, step 1 or 2:
        the rows from k0's to k1's, sliced."""
        if self.whole is not None:
            return self.whole[k0:k1:step]
        c = len(self.fine)
        u0 = k0 // c
        rows = np.multiply.outer(self.coarse[u0:-(-k1 // c)],
                                 self.fine[k0 % step::step])
        start = (k0 - u0 * c) // step
        return rows.reshape(-1)[start:start + len(range(k0, k1, step))]
