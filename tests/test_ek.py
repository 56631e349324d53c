"""Constant assembly: published values, per-character oracle, identities."""

import math

import numpy as np
import pytest

import oracles
from ekconst import specfun
from ekconst.cache import FunctionTag, ValueTable, precompute
from ekconst.ek import (CharacterSumError, CharacterSums, _assemble_s,
                        bernoulli_twisted, build_caches, character_sums,
                        checksum, compute_ek, compute_even_part, compute_mq,
                        compute_odd_sum)
from ekconst.fft import Spectrum, dft
from ekconst.multgroup import build_context
from ekconst.specfun import EULER_GAMMA
from reference_values import EK, EK_PLUS, MQ


@pytest.fixture(scope="module")
def small_contexts():
    return {q: build_context(q) for q in (3, 5, 7, 13, 163)}


def tables(ctx):
    return (precompute(ctx, FunctionTag.LOGGAMMA),
            precompute(ctx, FunctionTag.S_PAIR))


class TestPublishedValues:
    @pytest.mark.parametrize("q", [3, 5, 7, 13, 163])
    def test_method_s(self, q, small_contexts):
        res = compute_ek(small_contexts[q], method="s")
        assert res.ek == pytest.approx(EK[q], abs=1e-12)
        assert res.ek_plus == pytest.approx(EK_PLUS[q], abs=1e-12)
        assert res.mq == pytest.approx(MQ[q], abs=1e-12)

    @pytest.mark.parametrize("q", [3, 5, 7, 13, 163])
    def test_method_t(self, q, small_contexts):
        res = compute_ek(small_contexts[q], method="t")
        assert res.ek == pytest.approx(EK[q], abs=1e-11)
        assert res.ek_plus == pytest.approx(EK_PLUS[q], abs=1e-11)

    def test_method_both_discrepancy(self, small_contexts):
        res = compute_ek(small_contexts[163], method="both")
        assert res.method_discrepancy is not None
        assert res.method_discrepancy <= 1e-11

    def test_q3_even_part_is_gamma(self, small_contexts):
        ctx = small_contexts[3]
        lg, sp = tables(ctx)
        assert compute_even_part(ctx, sp, lg) == pytest.approx(
            EULER_GAMMA, abs=1e-14)

    def test_q3_odd_sum_is_difference(self, small_contexts):
        ctx = small_contexts[3]
        lg, _ = tables(ctx)
        want = EK[3] - EK_PLUS[3]
        assert compute_odd_sum(ctx, lg) == pytest.approx(want, abs=1e-12)

    def test_q5_odd_sum(self, small_contexts):
        ctx = small_contexts[5]
        lg, _ = tables(ctx)
        want = EK[5] - EK_PLUS[5]
        assert compute_odd_sum(ctx, lg) == pytest.approx(want, abs=1e-12)


class TestStructuralIdentities:
    def test_diff_identity_by_construction(self, small_contexts):
        for ctx in small_contexts.values():
            res = compute_ek(ctx, method="s")
            assert res.ek_diff == pytest.approx(res.ek - res.ek_plus,
                                                abs=1e-12)
            lg, _ = tables(ctx)
            assert res.ek_diff == pytest.approx(compute_odd_sum(ctx, lg),
                                                abs=1e-12)

    def test_even_part_matches_assembly(self, small_contexts):
        for ctx in small_contexts.values():
            res = compute_ek(ctx, method="s")
            lg, sp = tables(ctx)
            assert compute_even_part(ctx, sp, lg) == pytest.approx(
                res.ek_plus, abs=1e-12)

    def test_mq_consistency(self, small_contexts):
        ctx = small_contexts[163]
        lg, sp = tables(ctx)
        mq_odd, mq_even = compute_mq(ctx, lg, sp)
        res = compute_ek(ctx, method="s")
        assert (mq_odd, mq_even) == (res.mq_odd, res.mq_even)
        assert res.mq == max(mq_odd, mq_even)

    def test_norms(self, small_contexts):
        res = compute_ek(small_contexts[7], method="s")
        assert res.ek_norm == pytest.approx(res.ek / math.log(7), abs=1e-15)
        assert res.mq_norm == pytest.approx(
            res.mq / math.log(math.log(7)), abs=1e-15)

    def test_imag_residue_reported_small(self, small_contexts):
        for ctx in small_contexts.values():
            for method in ("s", "t"):
                res = compute_ek(ctx, method=method)
                assert res.imag_residue <= 1e-10
                # the float64 budget eps*log2(q-1)*sum|terms| it passed
                assert res.imag_residue <= res.imag_bound
                assert res.imag_bound <= 1e-10

    def test_mispaired_characters_are_refused(self):
        # pairing each odd character's log Gamma sum with the next
        # character's Bernoulli number leaves a large imaginary part
        ctx = build_context(10007)
        lg, sp = tables(ctx)
        sums = character_sums(ctx, lg, sp)
        _assemble_s(ctx, sums)  # correctly paired, it passes
        bern = sums.bern_odd_spec
        rolled = CharacterSums(
            logGamma_spec=sums.logGamma_spec, s_even_spec=sums.s_even_spec,
            bern_odd_spec=Spectrum(np.roll(bern.values, 1), bern.sign,
                                   bern.decimated))
        with pytest.raises(CharacterSumError, match="imaginary residue"):
            _assemble_s(ctx, rolled)

    def test_first_bernoulli_nonzero(self, small_contexts):
        for ctx in small_contexts.values():
            bern = bernoulli_twisted(ctx)
            assert float(np.min(np.abs(bern.values))) > 1e-12

    def test_grh_style_bound(self):
        for q in oracles.odd_primes_up_to(300):
            if q < 11:
                continue
            res = compute_ek(build_context(q), method="s")
            assert res.mq <= 4 * math.log(math.log(q))

    def test_cross_method_every_prime_to_2003(self):
        worst = 0.0
        for q in oracles.odd_primes_up_to(2003):
            res = compute_ek(build_context(q), method="both")
            assert res.method_discrepancy <= 1e-8, q
            worst = max(worst, res.method_discrepancy)
        assert worst <= 1e-8


class TestSigmaConvention:
    def test_q5_bins_match_explicit_characters(self):
        # permanent calibration: bin j of the sign=-1 transform of values
        # ordered by k must equal sum_a conj(chi_1^j)(a) f(a/q)
        ctx = build_context(5)
        lg, _ = tables(ctx)
        spec = dft(lg.values, sign=-1).values
        chars = oracles.character_table(ctx)
        for j in range(4):
            direct = np.sum(np.conj(chars[j]) * lg.values)
            assert spec[j] == pytest.approx(direct, abs=1e-13)

    def test_q5_bernoulli_matches_explicit(self):
        ctx = build_context(5)
        chars = oracles.character_table(ctx)
        bern = bernoulli_twisted(ctx).values
        for t in range(2):
            j = 2 * t + 1
            direct = np.sum(np.conj(chars[j]) * ctx.a_seq / 5)
            assert bern[t] == pytest.approx(direct, abs=1e-14)


class TestPerCharacterOracle:
    @pytest.mark.parametrize("q", [5, 13, 31, 101])
    def test_fft_equals_direct(self, q):
        ctx = build_context(q)
        lg, sp = tables(ctx)
        sums = character_sums(ctx, lg, sp)
        full = sums.logGamma_spec.values
        odd_vals = (specfun.EULER_GAMMA + specfun.LOG_2PI
                    + full[1::2] / sums.bern_odd_spec.values)
        even_vals = (specfun.EULER_GAMMA + specfun.LOG_2PI
                     - 0.5 * sums.s_even_spec.values[1:] / full[0::2][1:])
        s_by_a = specfun.s_values(np.arange(1, q) / q)
        direct = oracles.direct_l_values(ctx, lg.values, s_by_a)
        for t in range(ctx.m):
            assert odd_vals[t] == pytest.approx(direct[2 * t + 1], abs=1e-10)
        for t in range(1, ctx.m):
            assert even_vals[t - 1] == pytest.approx(direct[2 * t], abs=1e-10)

    def test_conjugate_pairing(self):
        ctx = build_context(31)
        lg, sp = tables(ctx)
        sums = character_sums(ctx, lg, sp)
        full = sums.logGamma_spec.values
        odd_vals = (specfun.EULER_GAMMA + specfun.LOG_2PI
                    + full[1::2] / sums.bern_odd_spec.values)
        m = ctx.m
        for t in range(m):
            assert odd_vals[t] == pytest.approx(
                np.conj(odd_vals[m - 1 - t]), abs=1e-12)


class TestChecksumOp:
    def test_small_residuals(self):
        ctx = build_context(101)
        assert checksum(ctx, precompute(ctx, FunctionTag.S_PAIR)) <= 1e-10
        assert checksum(ctx, precompute(ctx, FunctionTag.T)) <= 1e-9

    def test_detects_corruption(self):
        ctx = build_context(101)
        table = precompute(ctx, FunctionTag.S_PAIR)
        bad_values = table.values.copy()
        bad_values[7] += 1e-6
        bad = ValueTable(q=table.q, g=table.g,
                         function_tag=table.function_tag,
                         k_lo=table.k_lo, k_hi=table.k_hi, values=bad_values,
                         partial_sum=math.fsum(bad_values.tolist()))
        assert checksum(ctx, bad) >= 9e-7

    def test_requires_full_range(self):
        ctx = build_context(101)
        partial = precompute(ctx, FunctionTag.S_PAIR, (0, 10))
        with pytest.raises(ValueError):
            checksum(ctx, partial)


class TestCacheHandling:
    def test_build_caches_tags(self):
        ctx = build_context(7)
        assert set(build_caches(ctx, "s")) == {FunctionTag.LOGGAMMA,
                                               FunctionTag.S_PAIR}
        assert set(build_caches(ctx, "t")) == {FunctionTag.T, FunctionTag.PSI}
        assert len(build_caches(ctx, "both")) == 4

    def test_mismatched_cache_rejected(self):
        ctx7, ctx11 = build_context(7), build_context(11)
        caches = build_caches(ctx11, "s")
        with pytest.raises(ValueError):
            compute_ek(ctx7, caches, method="s")

    def test_missing_cache_rejected(self):
        ctx = build_context(7)
        caches = build_caches(ctx, "s")
        with pytest.raises(KeyError):
            compute_ek(ctx, caches, method="t")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            compute_ek(build_context(7), method="x")
        with pytest.raises(ValueError):
            build_caches(build_context(7), "x")
