"""Discrete Fourier transforms of arbitrary length, and the twiddle factors
e(-k/N), k < N/2, that unpack a packed transform (ek.parity_bins) and
twist the odd branch of a decimation split (ek.bernoulli_twisted).

Convention: dft(x).values[j] = sum_k e(-j*k/N) x[k] with
e(t) = exp(2*pi*i*t), unnormalized (the usual engineering DFT).

numpy's pocketfft runs every length, but slowly where the length has a
large prime factor p.  A length n = p*r that dft selects is split instead
(Cooley-Tukey): pocketfft runs the length-r transforms, two tables of
about r*sqrt(p) unit roots give the twiddle, and one batched pocketfft
call runs the r length-p transforms.
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
    """Unnormalized transform sum_k e(-j*k/N) x[k], O(N log N).

    A length n from _SPLIT_MIN on whose largest prime factor p has
    300 < p < n goes through _split, which beat pocketfft there in timings
    of both; every other length goes straight to pocketfft.
    """
    n = len(x)
    if n >= _SPLIT_MIN:     # shorter lengths are not factorised
        p = max(factorize(n))
        if 300 < p < n:
            return Spectrum(values=_split(np.asarray(x), p))
    return Spectrum(values=np.fft.fft(x))


def _roots(t: np.ndarray, n: int) -> np.ndarray:
    """e(-t/n) for integers 0 <= t < n, with the phase taken in (-1/2, 1/2]
    so that its rounding error stays below that of pi/n."""
    return np.exp(-2j * np.pi * np.where(2 * t > n, t - n, t) / n)


def _split(x: np.ndarray, p: int) -> np.ndarray:
    """The transform of x, of length n = p*r with p prime: with k = k1 +
    p*k2 and j = r*j1 + j2, the length-r transforms over k2, the twiddle
    e(-j2*k1/n), then the length-p transforms over k1, all by pocketfft."""
    n = len(x)
    r = n // p
    # e(-j2*k1/n) = e(-j2*c*u/n) * e(-j2*v/n) for k1 = c*u + v, v < c, from
    # two tables of about r*sqrt(p) roots, every phase below n (about 2 ulp),
    # broadcast over rows padded to g*c >= p columns with zeros, not garbage
    c = math.isqrt(p) + 1
    g = -(-p // c)
    a = np.zeros((r, g, c), dtype=complex)      # a[j2, u, v]
    rows = a.reshape(r, g * c)[:, :p]           # rows[j2, k1]
    np.fft.fft(x.reshape(r, p), axis=0, out=rows)
    a *= _roots(np.outer(np.arange(r), np.arange(0, p, c)), n)[:, :, None]
    a *= _roots(np.outer(np.arange(r), np.arange(c)), n)[:, None]
    out = np.empty((p, r), dtype=complex)       # out[j1, j2]
    np.fft.fft(rows, axis=1, out=out.T)
    return out.reshape(-1)


def twiddle(n: int) -> np.ndarray:
    """The factors e(-k/n), k < n/2, of the odd branch of a length-n input,
    and of the unpacking of its packed transform."""
    return _roots(np.arange(n // 2), n)
