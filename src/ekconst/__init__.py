"""Euler-Kronecker constants of prime cyclotomic fields.

Computes the constants attached to the q-th cyclotomic field and its
maximal real subfield, the maximum modulus of the logarithmic derivative
of the Dirichlet L-functions at s = 1, and generalized Euler constants in
arithmetic progressions.  Character sums are evaluated through FFTs over
the cyclic group generated by a primitive root, both parities of each
real table from one transform of half the length.
"""

from .cache import (CacheFormatError, ChecksumMismatchError, FunctionTag,
                    MergeError, ValueTable, closed_form_sum, load,
                    precompute, save)
from .ek import (CharacterSumError, EKResult, character_blocks,
                 compute_ek, pack, packed_spectrum)
from .fft import Spectrum, UnitRoots, dft
from .multgroup import (DomainError, NotPrimeError, PrimeContext,
                        build_context, is_prime, primitive_root)
from .offsets import OffsetSequence, greedy_offsets, v_of_q
from .specfun import (EULER_GAMMA, GAMMA1, LOG_2PI, ZETA_DD_AT_0,
                      DisagreementError, NonConvergenceError, gamma_n)
from .stieltjes import StieltjesTable

__version__ = "0.1.0"

__all__ = [
    "CacheFormatError", "CharacterSumError", "ChecksumMismatchError",
    "DisagreementError", "DomainError", "EKResult", "EULER_GAMMA",
    "FunctionTag", "GAMMA1", "LOG_2PI", "MergeError", "NonConvergenceError",
    "NotPrimeError", "OffsetSequence", "PrimeContext", "Spectrum",
    "StieltjesTable", "UnitRoots", "ValueTable", "ZETA_DD_AT_0",
    "build_context", "character_blocks", "closed_form_sum", "compute_ek",
    "dft", "gamma_n", "greedy_offsets", "is_prime", "load", "pack",
    "packed_spectrum", "precompute", "primitive_root", "save", "v_of_q",
]
