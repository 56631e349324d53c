"""Discrete Fourier transforms of arbitrary length, and the twiddle factors
e(-k/N), k < N/2, that unpack a packed transform (ek.parity_bins) and
twist the odd branch of a decimation split (ek.bernoulli_twisted).

Convention: dft(x).values[j] = sum_k e(-j*k/N) x[k] with
e(t) = exp(2*pi*i*t), unnormalized (the usual engineering DFT).

numpy's pocketfft runs every length, but slowly where the length has a
large prime factor p.  A length n = p*r that dft selects is split instead
(Cooley-Tukey): pocketfft runs the length-r transforms, and the r length-p
transforms run as Bluestein convolutions on a 2*3*5-smooth length, a block
of rows at a time, with only the length-p chirp formed, per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .multgroup import factorize

_SPLIT_MIN = 3991       # 13*307, the least length dft splits
_ROW_BLOCK = 1 << 20    # complex values per block of Bluestein rows


@dataclass(frozen=True)
class Spectrum:
    """The output of dft: values[j] is bin j of the transform."""

    values: np.ndarray = field(repr=False)


def dft(x) -> Spectrum:
    """Unnormalized transform sum_k e(-j*k/N) x[k], O(N log N).

    A length n = p*r, p its largest prime factor, goes through _split
    where that beat pocketfft in timings of both: never for p below 300,
    nor for r < 4 below n = 2^20, and for r >= 4 from n*r = 5*10^4 on.
    Every other length goes straight to pocketfft.
    """
    n = len(x)
    if n >= _SPLIT_MIN:     # shorter lengths are not factorised
        p = max(factorize(n))
        r = n // p
        if p > 300 and (r >= 4 and n * r >= 50_000 or r >= 2 and n >= 1 << 20):
            return Spectrum(values=_split(np.asarray(x), p))
    return Spectrum(values=np.fft.fft(x))


def _smooth_length(n: int) -> int:
    """The least 2^a 3^b 5^c >= n."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            f = f35
            while f < n:
                f *= 2
            best = min(best, f)
            f35 *= 3
        f5 *= 5
    return best


def _roots(t: np.ndarray, n: int) -> np.ndarray:
    """e(-t/n) for integers 0 <= t < n, with the phase taken in (-1/2, 1/2]
    so that its rounding error stays below that of pi/n."""
    return np.exp(-2j * np.pi * np.where(2 * t > n, t - n, t) / n)


def _split(x: np.ndarray, p: int) -> np.ndarray:
    """The transform of x, of length n = p*r with p prime: with k = k1 +
    p*k2 and j = r*j1 + j2, the length-r transforms over k2, the twiddle
    e(-j2*k1/n), then the length-p transforms over k1 by Bluestein."""
    n = len(x)
    r = n // p
    a = np.fft.fft(x.reshape(r, p), axis=0)     # a[j2, k1]
    # Bluestein: jk = (j^2 + k^2 - (j-k)^2)/2, with the phase k^2 mod 2p
    # taken in integers
    k = np.arange(p, dtype=np.int64)
    chirp = _roots(k * k % (2 * p), 2 * p)
    size = _smooth_length(2 * p - 1)
    kernel = np.zeros(size, dtype=complex)
    kernel[:p] = chirp.conj()
    kernel[size - p + 1:] = kernel[p - 1:0:-1]
    kernel = np.fft.fft(kernel)
    # e(-t/n) for the twiddle phase t = j2*k1 < n, as e(-(t // b)*b/n) *
    # e(-(t % b)/n) from two tables of about sqrt(n) roots (about 2 ulp)
    b = math.isqrt(n) + 1
    coarse = _roots(b * np.arange(-(-n // b)), n)
    fine = _roots(np.arange(b), n)
    out = np.empty((p, r), dtype=complex)
    rows = max(1, _ROW_BLOCK // size)
    for lo in range(0, r, rows):
        hi = min(lo + rows, r)
        t = np.arange(lo, hi, dtype=np.int64)[:, None] * k
        buf = np.zeros((hi - lo, size), dtype=complex)
        buf[:, :p] = a[lo:hi] * (coarse[t // b] * fine[t % b]) * chirp
        np.fft.fft(buf, axis=1, out=buf)
        buf *= kernel
        np.fft.ifft(buf, axis=1, out=buf)
        out[:, lo:hi] = (buf[:, :p] * chirp).T
    return out.reshape(-1)


def twiddle(n: int) -> np.ndarray:
    """The factors e(-k/n), k < n/2, of the odd branch of a length-n input,
    and of the unpacking of its packed transform."""
    return _roots(np.arange(n // 2), n)
