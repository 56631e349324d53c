"""Discrete Fourier transforms of arbitrary length, and the unit roots
e(-k/N), k < N/2, that unpack a packed transform (ek.character_blocks) and
weight its inverse sample (ek.packed_spectrum), made per block from two
tables of about sqrt(N/2) roots (UnitRoots).

Convention: bin j of dft(x) is sum_k e(-j*k/N) x[k] with
e(t) = exp(2*pi*i*t), unnormalized (the usual engineering DFT).

numpy's pocketfft runs every length, but slowly where the length has a
large prime factor p.  A length n = p*r that dft selects is split instead
(Cooley-Tukey, Bailey's four-step transform without its last transpose):
pocketfft runs the length-r transforms over the columns of x's buffer
seen as r rows of p, two tables of about r*sqrt(p) unit roots give the
twiddle, applied row by row, and one batched pocketfft call runs the r
length-p rows in place.  No array of x's length is allocated; the bins are
left in the rows' order, which Spectrum.bins reads in natural order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .multgroup import factorize

_SPLIT_MIN = 3991       # 13*307; splitting a shorter 2p or 3p saved <= 35 us


@dataclass(frozen=True)
class Spectrum:
    """The n bins of a dft, read in natural order by bins(lo, hi) and by
    values.  They stay in the buffer dft computed them in, bin r*j1 + j2
    at _buffer[j2*(n/r) + j1], r = rows, which is 1 unless dft split n into
    r rows, so that no array of n values is made to reorder them."""

    _buffer: np.ndarray = field(repr=False)
    rows: int = 1

    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def values(self):
        """Every bin in natural order: the buffer if there is one row, else
        an object of len n whose np.asarray copies them out."""
        return self._buffer if self.rows == 1 else _SplitBins(self)

    def bins(self, lo: int, hi: int) -> np.ndarray:
        """Bins lo, ..., hi-1 in natural order, 0 <= lo <= hi <= n, not to
        be written: a view of the buffer if there is one row, else a new
        array copied from the rows of the columns that hold them, the first
        and last in part, at a cost in hi - lo whatever the rows."""
        r = self.rows
        if r == 1:
            return self._buffer[lo:hi]
        grid = self._buffer.reshape(r, -1)      # bin r*j1 + j2 at [j2, j1]
        j0, a = divmod(lo, r)
        if hi - lo <= r - a:                    # within column j0
            return grid[a:a + hi - lo, j0:j0 + 1].flatten()
        j1, b = divmod(hi, r)
        out = np.empty(hi - lo, dtype=complex)
        out[:r - a] = grid[a:, j0]
        out[r - a:hi - lo - b].reshape(-1, r)[:] = grid[:, j0 + 1:j1].T
        if b:
            out[hi - lo - b:] = grid[:b, j1]
        return out


class _SplitBins:
    """The bins of a split Spectrum for len() and np.asarray, which copies
    them out in natural order; it has no index, so that no read can see
    them in the buffer's order."""

    def __init__(self, spectrum: Spectrum):
        self._spectrum = spectrum

    def __len__(self) -> int:
        return len(self._spectrum)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        return self._spectrum.bins(0, len(self)).astype(dtype or complex,
                                                        copy=False)


def dft(x) -> Spectrum:
    """Unnormalized transform sum_k e(-j*k/N) x[k], O(N log N), computed
    in the buffer of np.ascontiguousarray(x, dtype=complex): a contiguous
    complex128 array x is overwritten, and holds the Spectrum's bins.

    A length n from _SPLIT_MIN on whose largest prime factor p has
    300 < p < n goes through _split, which beat pocketfft there in timings
    of both; every other length goes straight to pocketfft.
    """
    x = np.ascontiguousarray(x, dtype=complex)
    n = len(x)
    if n >= _SPLIT_MIN:     # shorter lengths are not factorised
        p = max(factorize(n))
        if 300 < p < n:
            _split(x, p)
            return Spectrum(x, n // p)
    return Spectrum(np.fft.fft(x, out=x))


def _roots(t: np.ndarray, n: int) -> np.ndarray:
    """e(-t/n) for integers 0 <= t < n, with the phase taken in (-1/2, 1/2]
    so that its rounding error stays below that of pi/n."""
    return np.exp(-2j * np.pi * np.where(2 * t > n, t - n, t) / n)


def _split(x: np.ndarray, p: int) -> None:
    """The transform of the contiguous complex array x, of length n = p*r
    with p prime, in x's buffer: with k = k1 + p*k2 and j = r*j1 + j2, the
    length-r transforms over k2, the twiddle e(-j2*k1/n), then the length-p
    transforms over k1, all by pocketfft, leave bin j at rows[j2, j1]."""
    n = len(x)
    r = n // p
    rows = x.reshape(r, p)
    np.fft.fft(rows, axis=0, out=rows)
    # e(-j2*k1/n) = e(-j2*c*u/n) * e(-j2*v/n) for k1 = c*u + v, v < c, from
    # two tables of about r*sqrt(p) roots, every phase below n (about 2 ulp):
    # row by row over a (g, c) view of the first g*c columns, since numpy
    # would copy a view of more than one row whole, then over the last
    # p - g*c < c columns of all rows at once, two calls in place of 2r
    c = math.isqrt(p) + 1
    g = p // c
    coarse = _roots(np.outer(np.arange(r), np.arange(0, p, c)), n)
    fine = _roots(np.outer(np.arange(r), np.arange(c)), n)
    for row, co, fi in zip(rows, coarse, fine):
        body = row[:g * c].reshape(g, c)
        body *= co[:g, None]
        body *= fi
    tail = rows[:, g * c:]
    tail *= coarse[:, g:]
    tail *= fine[:, :p - g * c]
    np.fft.fft(rows, axis=1, out=rows)


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
