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
    x = np.asarray(x)
    if len(x) < 1:
        raise ValueError("empty input")
    return Spectrum(values=np.fft.fft(x))


def dif_split(f_vals) -> tuple[np.ndarray, np.ndarray]:
    """Split f_vals (indexed by k, length q-1) for decimation in frequency.

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
    twiddle = np.exp(-2j * np.pi * np.arange(m) / n)
    c = twiddle * (f[:m] - f[m:])
    return b, c
