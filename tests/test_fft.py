"""Transforms: definition spot checks, oracle equivalence, decimation."""

import numpy as np
import pytest

import oracles
from ekconst.ek import parity_bins
from ekconst.fft import dft, twiddle

RNG = np.random.default_rng(20240817)


class TestDefinition:
    def test_delta(self):
        spec = dft([1, 0, 0, 0])
        assert np.allclose(spec.values, np.ones(4), atol=1e-15)

    def test_constant(self):
        spec = dft([1, 1, 1, 1])
        assert np.allclose(spec.values, [4, 0, 0, 0], atol=1e-14)

    def test_naive_length_two(self):
        assert np.allclose(oracles.naive_dft([1, 0], 1), [1, 1], atol=1e-15)
        assert np.allclose(oracles.naive_dft([0, 1], 1), [1, -1], atol=1e-15)

    def test_naive_guard(self):
        with pytest.raises(ValueError):
            oracles.naive_dft(np.zeros(10_001))


class TestOracleEquivalence:
    def test_fifty_random_lengths(self):
        lengths = [2, 3, 5, 17, 101, 127, 251, 509, 512, 360]
        lengths += [int(n) for n in RNG.integers(2, 513, size=40)]
        for n in lengths[:50]:
            x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
            fast = dft(x).values
            slow = oracles.naive_dft(x, -1)
            scale = float(np.sum(np.abs(x)))
            assert float(np.max(np.abs(fast - slow))) <= 1e-10 * scale

    def test_real_length_360(self):
        x = RNG.standard_normal(360)
        err = np.max(np.abs(dft(x).values - oracles.naive_dft(x, -1)))
        assert err <= 1e-10 * float(np.sum(np.abs(x)))


class TestProperties:
    @pytest.mark.parametrize("n", [2, 12, 97, 360, 509])
    def test_round_trip(self, n):
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        back = oracles.naive_dft(dft(x).values, 1) / n
        assert float(np.max(np.abs(back - x))) <= 1e-12 * float(np.max(np.abs(x)))

    @pytest.mark.parametrize("n", [8, 101, 258])
    def test_conjugate_symmetry_real_input(self, n):
        x = RNG.standard_normal(n)
        v = dft(x).values
        sym = v[1:] - np.conj(v[1:][::-1])
        assert float(np.max(np.abs(sym))) <= 1e-12 * float(np.sum(np.abs(x)))

    @pytest.mark.parametrize("n", [4, 100, 509])
    def test_parseval(self, n):
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        lhs = float(np.sum(np.abs(dft(x).values) ** 2))
        rhs = n * float(np.sum(np.abs(x) ** 2))
        assert abs(lhs - rhs) <= 1e-10 * rhs


class TestDecimation:
    def test_arithmetic_example_q5(self):
        # the full transform of f is [6, -2+2i, -2, -2-2i]
        f = np.array([0.0, 1.0, 2.0, 3.0])
        assert np.allclose(parity_bins(f), [-2.0], atol=1e-15)
        assert np.allclose(parity_bins(f, twiddle(len(f))),
                           [-2.0 + 2.0j, -2.0 - 2.0j], atol=1e-15)

    def test_odd_length_rejected(self):
        for tw in (None, twiddle(5)):
            with pytest.raises(ValueError, match="length must be even"):
                parity_bins(np.zeros(5), tw)

    @pytest.mark.parametrize("q", oracles.odd_primes_up_to(101))
    def test_bin_equivalence_all_primes_to_101(self, q):
        f = RNG.standard_normal(q - 1)
        full = oracles.naive_dft(f, -1)
        even = parity_bins(f)
        odd = parity_bins(f, twiddle(len(f)))
        assert float(np.max(np.abs(even - full[2::2]),
                            initial=0.0)) <= 1e-12 * q
        assert float(np.max(np.abs(odd - full[1::2]))) <= 1e-12 * q
