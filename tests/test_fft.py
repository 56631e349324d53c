"""Transforms: definition spot checks, oracle equivalence, decimation."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from ekconst import fft, multgroup
from ekconst.ek import pack, packed_spectrum
from ekconst.fft import UnitRoots, dft

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
            fast = dft(x.copy()).values
            slow = oracles.naive_dft(x, -1)
            scale = float(np.sum(np.abs(x)))
            assert float(np.max(np.abs(fast - slow))) <= 1e-10 * scale

    def test_real_length_360(self):
        x = RNG.standard_normal(360)
        err = np.max(np.abs(dft(x).values - oracles.naive_dft(x, -1)))
        assert err <= 1e-10 * float(np.sum(np.abs(x)))


@pytest.fixture
def split_calls(monkeypatch):
    """The lengths dft sends through the prime-factor split, in call
    order."""
    calls, real = [], fft._split

    def recorded(x, p):
        calls.append(len(x))
        return real(x, p)

    monkeypatch.setattr(fft, "_split", recorded)
    return calls


def _max_rel_error(y, ref):
    return float(np.max(np.abs(y - ref)) / np.max(np.abs(ref)))


class TestPrimeFactorSplit:
    # 2^3*3*5^3 and 17*257: no prime factor above 300; 2*1511 and 3*1009:
    # below the least split length; the primes 3001 and 4001: one row;
    # 13*307, the least split length, 4*1009, 16*311 and 11*379: split;
    # with c = isqrt(p) + 1, 307 % 18 = 1 and 379 % 20 = 19 put one column
    # and all but one in the last group of c columns of the twiddle
    @pytest.mark.parametrize("n, split", [
        (3000, False), (3022, False), (3001, False), (3027, False),
        (4369, False), (4001, False), (4036, True), (3991, True),
        (4976, True), (4169, True)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_each_branch_equals_the_naive_sum(self, split_calls, n, split,
                                              kind):
        x = RNG.standard_normal(n)
        if kind == "complex":
            x = x + 1j * RNG.standard_normal(n)
        err = np.max(np.abs(dft(x.copy()).values - oracles.naive_dft(x, -1)))
        assert err <= 1e-12 * float(np.sum(np.abs(x)))
        assert split_calls == ([n] if split else [])

    # 3*7*2381 and 2*5*15287, the half lengths of q = 100003 and 305741;
    # 2*3*31*823, whose largest prime factor is below 1000; 7*67*1523;
    # 2^4*5*13*1009, 1040 rows; three and two rows: 3*50021, 3*349529 and
    # 2*100003; 7^2*67*1523, the half length of q = 10000019
    @pytest.mark.parametrize("n", [
        50001, 152870, 153078, 714287, 1049360, 150063, 1048587, 200006,
        pytest.param(5000009, marks=pytest.mark.extended)])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_error_within_twice_pocketfft_against_long_double(
            self, split_calls, n, kind):
        from scipy.fft import fft as any_precision_fft
        x = RNG.standard_normal(n)
        if kind == "complex":
            x = x + 1j * RNG.standard_normal(n)
        ref = any_precision_fft(x.astype(np.clongdouble))
        got = _max_rel_error(dft(x.copy()).values, ref)
        assert split_calls == [n]
        assert got <= 2 * _max_rel_error(np.fft.fft(x), ref)

    @pytest.mark.parametrize("n", [3991, 4169, 152870])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_no_floating_point_warning_on_a_split_length(self, split_calls,
                                                         n, kind):
        x = RNG.standard_normal(n)
        if kind == "complex":
            x = x + 1j * RNG.standard_normal(n)
        # freed infinities of sizes from n to 2n, which a buffer that dft
        # left uncleared would likely reuse; inf + inf*1j times a root warns
        infinities = [np.full(n + n * i // 4, complex(np.inf, np.inf))
                      for i in range(5)]
        del infinities
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            assert np.all(np.isfinite(dft(x).values))
        assert split_calls == [n]

    # 2*5*15287, 7*67*1523 and 2^4*5*13*1009: r = 10, 469 and 1040 rows
    @pytest.mark.parametrize("n", [152870, 714287, 1049360])
    def test_a_split_allocates_one_array_of_its_length(self, split_calls, n):
        # the columns and the twiddle run in the input's buffer, so beside
        # the output only the two root tables are allocated: r*(c + g)
        # roots, g = ceil(p/c), at most 8 times their own bytes with their
        # integer and real phases.  A padded copy of the rows adds n more
        p = max(multgroup.factorize(n))
        r, c = n // p, math.isqrt(p) + 1
        roots = 16 * r * (c + -(-p // c))
        dft(np.zeros(n, dtype=complex))     # per-process first-call costs
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        tracemalloc.start()
        try:
            dft(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert split_calls == [n, n]
        assert peak <= x.nbytes + 8 * roots, (peak, x.nbytes, roots)

    def test_no_length_below_the_least_split_is_factorised(
            self, split_calls, monkeypatch):
        factorised = []

        def recorded(n):
            factorised.append(n)
            return multgroup.factorize(n)

        monkeypatch.setattr(fft, "factorize", recorded)
        for n in range(1, fft._SPLIT_MIN + 1):
            dft(np.zeros(n))
        assert factorised == split_calls == [fft._SPLIT_MIN]


class TestProperties:
    @pytest.mark.parametrize("n", [2, 12, 97, 360, 509])
    def test_round_trip(self, n):
        x = RNG.standard_normal(n) + 1j * RNG.standard_normal(n)
        back = oracles.naive_dft(dft(x.copy()).values, 1) / n
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
        lhs = float(np.sum(np.abs(dft(x.copy()).values) ** 2))
        rhs = n * float(np.sum(np.abs(x) ** 2))
        assert abs(lhs - rhs) <= 1e-10 * rhs


def materialised_roots(roots, k):
    """coarse[k // c] * fine[k % c], each root formed by itself."""
    c = len(roots.fine)
    return roots.coarse[k // c] * roots.fine[k % c]


class TestUnitRoots:
    # n = 305740 and 1000002 are q - 1 for q = 305741 and 1000003, and
    # 10000018 for q = 10000019
    @pytest.mark.parametrize("n", [
        305740, 1000002, pytest.param(10000018, marks=pytest.mark.extended)])
    def test_every_root_within_1_2_times_np_exp_of_long_double(self, n):
        k = np.arange(n // 2)
        phase = 2 * np.arccos(np.longdouble(-1)) * k / np.longdouble(n)
        ref = np.cos(phase) - 1j * np.sin(phase)

        def max_error(roots):
            return float(np.max(np.abs(roots - ref)))

        exp_error = max_error(np.exp(-2j * np.pi * k / n))
        assert max_error(UnitRoots(n).block(0, n // 2)) <= 1.2 * exp_error

    # m = n/2 below c (n = 2), equal to it (4) and above it, odd (1, 3,
    # 101) and even, with c = 2, 2, 2, 4, 8, 12 and 24; blocks from and to
    # whole rows, and from and to partial ones, of both parities, each
    # formed where it is asked for or viewed from all the roots formed once
    @pytest.mark.parametrize("n", [2, 4, 6, 12, 100, 202, 1008])
    @pytest.mark.parametrize("whole", [False, True])
    def test_blocks_equal_the_materialised_product(self, n, whole,
                                                   monkeypatch):
        if not whole:
            monkeypatch.setattr(UnitRoots, "_WHOLE", 0)
        roots = UnitRoots(n)
        assert (roots.whole is not None) == whole
        m, c = n // 2, len(roots.fine)
        assert c % 2 == 0 and len(roots.coarse) * c >= m
        edges = sorted({0, 1, 2, c - 1, c, c + 1, 2 * c + 3, m - c - 1,
                        m - 2, m - 1, m} & set(range(m + 1)))
        for k0 in edges:
            for k1 in edges:
                for step in (1, 2):
                    want = materialised_roots(roots, np.arange(k0, k1, step))
                    got = roots.block(k0, k1, step)
                    assert got.dtype == want.dtype
                    assert np.array_equal(got, want), (k0, k1, step)

    def test_tables_are_about_the_square_root(self):
        for n in (2, 1000002, 10000018):
            roots = UnitRoots(n)
            assert len(roots.fine) <= math.isqrt(n // 2) + 2
            assert len(roots.coarse) <= math.isqrt(n // 2) + 1
            # every phase is at most 1/2, where the fold of fft._roots
            # leaves the roots to np.exp unchanged
            c = len(roots.fine)
            for table, k in ((roots.coarse, np.arange(0, n // 2, c)),
                             (roots.fine, np.arange(c))):
                want = np.exp(-2j * np.pi * k / n)
                assert table.tobytes() == want.tobytes()


class TestDecimation:
    def test_arithmetic_example_q5(self):
        # the full transform of f is [6, -2+2i, -2, -2-2i]
        f = np.array([0.0, 1.0, 2.0, 3.0])
        roots = UnitRoots(len(f))
        for centre in (False, True):
            z = packed_spectrum(pack(f, centre), roots, "test")
            even = oracles.unpacked_bins(z, roots, False)
            odd = oracles.unpacked_bins(z, roots, True)
            assert np.allclose(even, [-2.0], atol=1e-15)
            assert np.allclose(odd, [-2.0 + 2.0j, -2.0 - 2.0j], atol=1e-15)

    def test_odd_length_rejected(self):
        for centre in (False, True):
            with pytest.raises(ValueError, match="length must be even"):
                pack(np.zeros(5), centre)

    @pytest.mark.parametrize("q", oracles.odd_primes_up_to(101))
    def test_bin_equivalence_all_primes_to_101(self, q):
        # both parities of every q-1 <= 100, odd and even m, from the
        # packed spectrum with and without the mean taken out
        f = RNG.standard_normal(q - 1) + 3.0
        full = oracles.naive_dft(f, -1)
        roots = UnitRoots(len(f))
        for centre in (False, True):
            z = packed_spectrum(pack(f, centre), roots, "test")
            even = oracles.unpacked_bins(z, roots, False)
            odd = oracles.unpacked_bins(z, roots, True)
            assert float(np.max(np.abs(even - full[2::2]),
                                initial=0.0)) <= 1e-12 * q
            assert float(np.max(np.abs(odd - full[1::2]))) <= 1e-12 * q
