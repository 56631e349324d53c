"""Discrete Fourier transforms of arbitrary length and the
decimation-in-frequency split that maps even/odd output bins of a
length-(q-1) transform onto two length-(q-1)/2 transforms.

Convention: dft(x).values[j] = sum_k e(-j*k/N) x[k] with
e(t) = exp(2*pi*i*t), unnormalized (the usual engineering DFT).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class Spectrum:
    """The output of dft: values[j] is bin j of the transform."""

    values: np.ndarray = field(repr=False)


def dft(x) -> Spectrum:
    """Unnormalized transform sum_k e(-j*k/N) x[k], O(N log N).

    Arbitrary N is handled by the pocketfft backend (mixed-radix kernels
    with a Bluestein chirp fallback for large prime factors).
    """
    return Spectrum(values=np.fft.fft(x))


def twiddle(n: int) -> np.ndarray:
    """The factors e(-k/n), k < n/2, that dif_split applies to the odd-bin
    branch of a length-n input."""
    return np.exp(-2j * np.pi * np.arange(n // 2) / n)


def dif_split(f_vals, tw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split f_vals (indexed by k, length q-1) for decimation in frequency;
    tw is twiddle(q-1), built once by the caller for all its splits.

    Returns (b, c).  b[k] = f[k] + f[k+m] feeds the even output bins:
    dft(b)[t] equals the full-spectrum bin 2t.
    c[k] = e(-k/(q-1))*(f[k] - f[k+m]) feeds the odd bins: dft(c)[t]
    equals bin 2t+1.
    """
    f = np.asarray(f_vals)
    n = len(f)
    if n % 2 != 0:
        raise ValueError(f"input length must be even, got {n}")
    m = n // 2
    b = f[:m] + f[m:]
    c = tw * (f[:m] - f[m:])
    return b, c
