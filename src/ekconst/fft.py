"""Discrete Fourier transforms of arbitrary length, and the twiddle factors
of the decimation-in-frequency split (ek.parity_bins) that maps the odd
output bins of a length-(q-1) transform onto one of length (q-1)/2.

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
    """The factors e(-k/n), k < n/2, that the odd-bin branch of a length-n
    input is multiplied by before its half-length transform."""
    return np.exp(-2j * np.pi * np.arange(n // 2) / n)

