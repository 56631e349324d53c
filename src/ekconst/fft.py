"""Discrete Fourier transforms of arbitrary length, and the twiddle factors
of the decimation-in-frequency split (ek.parity_bins) that maps the odd
output bins of a length-(q-1) transform onto one of length (q-1)/2.

Convention: dft(x).values[j] = sum_k e(-j*k/N) x[k] with
e(t) = exp(2*pi*i*t), unnormalized (the usual engineering DFT).

numpy's pocketfft runs every length, but slowly where the length has a
large prime factor p: it then falls back to one Bluestein transform of the
whole length.  From _SPLIT_PRIME * _SPLIT_REST on, a length n = p*r with
p > _SPLIT_PRIME and r >= _SPLIT_REST is split instead (Cooley-Tukey):
pocketfft runs the length-r transforms, and the r length-p transforms run
as Bluestein convolutions on a 2*3*5-smooth length, a block of rows at a
time.  Only the length-p chirp is formed, per call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .multgroup import factorize

_SPLIT_PRIME = 1000
_SPLIT_REST = 3
_ROW_BLOCK = 1 << 20    # complex values per block of Bluestein rows


@dataclass(frozen=True)
class Spectrum:
    """The output of dft: values[j] is bin j of the transform."""

    values: np.ndarray = field(repr=False)


def dft(x) -> Spectrum:
    """Unnormalized transform sum_k e(-j*k/N) x[k], O(N log N).

    Lengths whose largest prime factor p exceeds _SPLIT_PRIME, with a
    cofactor of at least _SPLIT_REST, go through _split; every other
    length goes straight to pocketfft.
    """
    n = len(x)
    if n >= _SPLIT_PRIME * _SPLIT_REST:
        p = max(factorize(n))
        if p > _SPLIT_PRIME and n // p >= _SPLIT_REST:
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
    """The factors e(-k/n), k < n/2, that the odd-bin branch of a length-n
    input is multiplied by before its half-length transform."""
    return np.exp(-2j * np.pi * np.arange(n // 2) / n)
