"""Group arithmetic: primality, primitive roots, index sequences."""

import time

import numpy as np
import pytest

import oracles
from ekconst.cache import FunctionTag, precompute
from ekconst.multgroup import (DomainError, NotPrimeError, build_context,
                               factorize, is_prime, primitive_root, residues)
from ekconst.offsets import greedy_offsets, v_of_q
from ekconst.specfun import gamma_n
from ekconst.stieltjes import build_table
from reference_values import VQ_TARGETS


class TestIsPrime:
    def test_small_exhaustive_vs_sieve(self):
        flags = oracles.sieve(100_000)
        for n in range(100_000 + 1):
            assert is_prime(n) == bool(flags[n]), n

    def test_random_sample_vs_trial_division(self):
        rng = np.random.default_rng(42)
        for n in rng.integers(2, 10**6, size=3000):
            n = int(n)
            assert is_prime(n) == oracles.trial_division_is_prime(n), n

    @pytest.mark.extended
    def test_full_million_vs_sieve(self):
        flags = oracles.sieve(10**6)
        for n in range(10**6 + 1):
            assert is_prime(n) == bool(flags[n]), n

    def test_known_values(self):
        assert is_prime(2)
        assert not is_prime(10**6)
        assert is_prime(9109334831)
        assert is_prime(9854964401)
        assert is_prime(2**61 - 1)
        # strong-pseudoprime trouble makers: the smallest strong
        # pseudoprimes to the first 4, 9, 7, 5 and 6 prime bases
        for n in (3215031751, 3825123056546413051, 341550071728321,
                  2152302898747, 3474749660383):
            assert not is_prime(n), n

    def test_domain_guard(self):
        assert not is_prime(0)
        assert not is_prime(1)
        with pytest.raises(DomainError):
            is_prime(2**64)


class TestFactorize:
    def test_roundtrip(self):
        for n in (2, 60, 1008, 2**20 - 1, 600851475143, 9854964400,
                  3037000426):
            fac = factorize(n)
            prod = 1
            for p, e in fac.items():
                assert is_prime(p)
                prod *= p**e
            assert prod == n

    def test_prime_factors_above_a_million(self):
        assert factorize(1000003 * 1000033) == {1000003: 1, 1000033: 1}
        assert factorize(1000003**2) == {1000003: 2}
        assert factorize(9109334830) == {2: 1, 5: 1, 910933483: 1}


class TestPrimitiveRoot:
    def test_known_roots(self):
        assert primitive_root(3) == 2
        assert primitive_root(5) == 2
        assert primitive_root(7) == 3

    def test_order_is_maximal(self):
        # 9109334831 and 9854964401 are the paper's record primes;
        # 3037000427 is the largest safe prime build_context accepts,
        # so q - 1 = 2 * 1518500213 is its longest trial-division loop
        roots = {q: primitive_root(q) for q in (1009, 104729, 9109334831,
                                                 9854964401, 3037000427)}
        assert roots[9109334831] == 7
        assert roots[9854964401] == 3
        for q, g in roots.items():
            assert pow(g, q - 1, q) == 1
            for p in factorize(q - 1):
                assert pow(g, (q - 1) // p, q) != 1

    def test_rejects_non_primes(self):
        for bad in (1, 4, 9, 91):
            with pytest.raises(NotPrimeError):
                primitive_root(bad)


@pytest.mark.parametrize("call", [
    lambda: is_prime(2**64), lambda: primitive_root(9),
    lambda: build_context(3037000507),
    lambda: build_table(101, 1), lambda: gamma_n(31),
    lambda: greedy_offsets(0), lambda: v_of_q(2), lambda: v_of_q(10**16),
    lambda: precompute(build_context(101), FunctionTag.T, (0, 500))])
def test_arguments_outside_the_domain_raise_one_class(call):
    # the command line maps this one class to its usage exit code
    with pytest.raises(DomainError) as info:
        call()
    assert isinstance(info.value, ValueError)


class TestBuildContext:
    def test_q5(self):
        ctx = build_context(5)
        assert (ctx.q, ctx.g, ctx.m) == (5, 2, 2)
        assert residues(ctx, 0, 4).tolist() == [1, 2, 4, 3]

    def test_half_shift_q5(self):
        ctx = build_context(5)
        a = residues(ctx, 0, ctx.q - 1)
        for k in range(ctx.m):
            assert a[k] + a[k + ctx.m] == 5

    @pytest.mark.parametrize("q", [3, 7, 11, 101, 1009])
    def test_invariants(self, q):
        ctx = build_context(q)
        a = residues(ctx, 0, q - 1)
        assert a[0] == 1
        assert sorted(a.tolist()) == list(range(1, q))
        assert np.all(a[: ctx.m] + a[ctx.m:] == q)

    def test_rejects_non_prime(self):
        with pytest.raises(NotPrimeError):
            build_context(4)

    @pytest.mark.parametrize("q", [3, 5, 7, 101, 10007, 305741])
    def test_a_seq_matches_loop(self, q):
        ctx = build_context(q)
        got = residues(ctx, 0, q - 1)
        want = oracles.a_seq_loop(q, ctx.g)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_context_costs_square_root_of_q(self):
        # no residue is formed: at this q an array of all of them would
        # take 7.7 GB
        q = min(VQ_TARGETS)
        t0 = time.perf_counter()
        ctx = build_context(q)
        assert time.perf_counter() - t0 < 0.25
        for k in (0, 1, ctx.m - 1, ctx.m, q - 2):
            assert residues(ctx, k, k + 1).tolist() == [pow(ctx.g, k, q)]
        assert residues(ctx, ctx.m - 1, ctx.m + 1).tolist() == [
            pow(ctx.g, ctx.m - 1, q), q - 1]

    def test_int64_limit(self):
        # 3037000499^2 < 2^63 <= 3037000500^2; the limit is checked
        # before any work on q
        with pytest.raises(ValueError, match="2\\^63"):
            build_context(3037000507)


class TestResidues:
    """residues(ctx, k0, k1) against the loop of one modular product at a
    time, on stretches that start and end anywhere in [0, q-1)."""

    @pytest.mark.parametrize("q", [3, 5, 101, 10007])
    def test_matches_loop(self, q):
        ctx = build_context(q)
        want = oracles.a_seq_loop(q, ctx.g)
        m = ctx.m
        ranges = [(0, 0), (m, m), (0, 1), (q - 2, q - 1), (m, m + 1),
                  (max(m - 2, 0), m + 1), (m, q - 1), (m + 1, q - 1),
                  (0, q - 1), (1, q - 1)]
        for k0, k1 in ranges:
            got = residues(ctx, k0, k1)
            assert got.dtype == np.int64
            assert np.array_equal(got, want[k0:k1]), (k0, k1)
