"""Constant assembly: published values, per-character oracle, identities."""

import dataclasses
import math
import re
import weakref

import numpy as np
import pytest

import oracles
import ekconst
from ekconst import ek, fft, specfun
from ekconst.cache import (ChecksumMismatchError, FunctionTag, ValueTable,
                           precompute)
from ekconst.ek import (METHOD_TAGS, CharacterSumError, _Half, _ratio,
                        character_blocks, compute_ek, pack, packed_spectrum,
                        s_pair_bernoulli)
from ekconst.fft import UnitRoots, dft
from ekconst.multgroup import build_context, factorize, residues
from ekconst.specfun import EULER_GAMMA
from reference_values import EK, EK_PLUS, MQ


@pytest.fixture(scope="module")
def small_contexts():
    return {q: build_context(q) for q in (3, 5, 7, 13, 163)}


def tables(ctx):
    return (precompute(ctx, FunctionTag.LOGGAMMA),
            precompute(ctx, FunctionTag.S_PAIR))


def method_tables(ctx, method):
    """Every table the method consumes, evaluated here."""
    return {tag: precompute(ctx, tag) for tag in METHOD_TAGS[method]}


@pytest.fixture
def calls(monkeypatch):
    """What compute_ek does, in order: the tag of each table it evaluates
    through cache.precompute and "dft" for each transform."""
    seen = []
    real_precompute, real_dft = ek.cache_mod.precompute, ek.dft

    def precompute_(ctx, tag, *args, **kwargs):
        seen.append(tag.value)
        return real_precompute(ctx, tag, *args, **kwargs)

    def dft_(x):
        seen.append("dft")
        return real_dft(x)

    monkeypatch.setattr(ek.cache_mod, "precompute", precompute_)
    monkeypatch.setattr(ek, "dft", dft_)
    return seen


def spectra(ctx, *tables):
    """UnitRoots(q-1), then the packed spectrum of each table as
    compute_ek makes it: LOGGAMMA centred, S_PAIR packed with the
    Bernoulli input."""
    roots = UnitRoots(ctx.q - 1)

    def packed(table):
        tag = table.function_tag
        if tag is FunctionTag.S_PAIR:
            y = oracles.s_pair_buffer(table.values)
            return packed_spectrum(s_pair_bernoulli(ctx, y), roots,
                                   "S_PAIR+Bernoulli")
        return packed_spectrum(
            pack(table.values, tag is FunctionTag.LOGGAMMA), roots,
            tag.value)

    return (roots, *map(packed, tables))


def bernoulli(ctx):
    """The first chi-Bernoulli numbers B_{1, conj(chi_1^{2t+1})}, t < m,
    from the odd bins of the S pair and Bernoulli spectrum."""
    roots, s_bern = spectra(ctx, tables(ctx)[1])
    return oracles.unpacked_bins(s_bern, roots, True) / 16


def s_terms(z, s_bern, roots):
    """Route s's odd and even terms L'/L(1,chi) - (gamma + log 2 pi), as
    compute_ek forms them from the packed log Gamma spectrum z and the S
    pair and Bernoulli spectrum s_bern."""
    odd = oracles.parity_ratios(
        z, s_bern, roots, True, 1 / 16, "a first chi-Bernoulli number")
    even = oracles.parity_ratios(
        s_bern, z, roots, False, 1, "an even-character log Gamma sum")
    even *= -0.25
    return odd, even


def t_values(q, t, psi, roots, odd):
    """Route t's L'/L(1,chi) for the characters of one parity, indexed as
    oracles.parity_ratios indexes them: -log q - r, r the ratio of
    sum_a chi(a) T(a/q) to sum_a chi(a) psi(a/q), the conjugate of the
    ratio of the bins."""
    r = oracles.parity_ratios(t, psi, roots, odd, 1, "a psi sum")
    return -math.log(q) - np.conj(r)


def without_character(table, j):
    """The table with the component of characters j and -j taken out of
    its values, so that bins j and q-1-j of its transform vanish.  Every
    other bin, the sum and so the closed-form gate are unchanged."""
    f, n = table.values, len(table.values)
    phase = np.arange(n) * j % n
    bin_j = np.sum(f * np.exp(-2j * np.pi * phase / n))
    values = f - 2.0 / n * np.real(bin_j * np.exp(2j * np.pi * phase / n))
    return dataclasses.replace(table, values=values,
                               partial_sum=math.fsum(values.tolist()))


def oracle_parts(ctx):
    """(ek_diff, ek_plus, mq_odd, mq_even) from direct character sums."""
    lg, _ = tables(ctx)
    s_by_a = oracles.s_series(np.arange(1, ctx.q) / ctx.q)
    direct = oracles.direct_l_values(ctx, lg.values, s_by_a)
    odd = [v for j, v in direct.items() if j % 2 == 1]
    even = [v for j, v in direct.items() if j % 2 == 0]
    return (sum(odd).real, EULER_GAMMA + sum(even, 0j).real,
            max(map(abs, odd)), max(map(abs, even), default=0.0))


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
        # q = 3 has no nontrivial even character
        ctx = small_contexts[3]
        assert oracle_parts(ctx)[1] == EULER_GAMMA
        assert compute_ek(ctx, method="s").ek_plus == pytest.approx(
            EULER_GAMMA, abs=1e-14)

    def test_q3_odd_sum_is_difference(self, small_contexts):
        ctx = small_contexts[3]
        want = EK[3] - EK_PLUS[3]
        assert oracle_parts(ctx)[0] == pytest.approx(want, abs=1e-12)
        assert compute_ek(ctx, method="s").ek_diff == pytest.approx(
            want, abs=1e-12)

    def test_q5_odd_sum(self, small_contexts):
        ctx = small_contexts[5]
        want = EK[5] - EK_PLUS[5]
        assert oracle_parts(ctx)[0] == pytest.approx(want, abs=1e-12)
        assert compute_ek(ctx, method="s").ek_diff == pytest.approx(
            want, abs=1e-12)


class TestStructuralIdentities:
    def test_diff_identity_by_construction(self, small_contexts):
        for ctx in small_contexts.values():
            res = compute_ek(ctx, method="s")
            assert res.ek_diff == pytest.approx(res.ek - res.ek_plus,
                                                abs=1e-12)
            assert res.ek_diff == pytest.approx(oracle_parts(ctx)[0],
                                                abs=1e-12)

    def test_even_part_matches_assembly(self, small_contexts):
        for ctx in small_contexts.values():
            res = compute_ek(ctx, method="s")
            assert res.ek_plus == pytest.approx(oracle_parts(ctx)[1],
                                                abs=1e-12)

    def test_mq_consistency(self, small_contexts):
        ctx = small_contexts[163]
        _, _, mq_odd, mq_even = oracle_parts(ctx)
        res = compute_ek(ctx, method="s")
        assert res.mq_odd == pytest.approx(mq_odd, abs=1e-12)
        assert res.mq_even == pytest.approx(mq_even, abs=1e-12)
        assert res.mq == max(res.mq_odd, res.mq_even)

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

    def test_mispaired_characters_are_refused(self, monkeypatch):
        # pairing each odd character's log Gamma sum with the next
        # character's Bernoulli number, the odd bins of the S pair and
        # Bernoulli spectrum rolled by one, leaves a large imaginary part
        ctx = build_context(10007)
        caches = method_tables(ctx, "s")
        compute_ek(ctx, caches.get, method="s")  # correctly paired, it passes
        blocks = ek.character_blocks

        def mispaired(a, b, roots):
            odd = []
            for i, fa, fb in blocks(a, b, roots):
                if i % 2:
                    odd.append((i, fa, fb))
                else:
                    yield i, fa, fb
            odd.sort(key=lambda block: block[0])
            yield (1, np.concatenate([fa for _, fa, _ in odd]),
                   np.roll(np.concatenate([fb for _, _, fb in odd]), 1))

        monkeypatch.setattr(ek, "character_blocks", mispaired)
        with pytest.raises(CharacterSumError,
                           match="imaginary residue .* exceeds its float64 "
                                 "budget"):
            compute_ek(ctx, caches.get, method="s")

    @pytest.mark.parametrize("mutation", ["roll", "conjugate"])
    @pytest.mark.parametrize("method, tag, call", [
        ("s", "LOGGAMMA", 0), ("s", "S_PAIR+Bernoulli", 1), ("t", "T", 0),
        ("t", "PSI", 1)])
    def test_corrupted_packed_spectrum_is_refused(self, method, tag, call,
                                                  mutation, monkeypatch):
        # a packed spectrum rolled by one bin, or transformed in the
        # conjugate direction, keeps its conjugate pairs, so the imaginary
        # gate cannot see it; the inverse sample must.  call is the index
        # of the table's transform among the method's
        ctx = build_context(10007)
        caches = method_tables(ctx, method)
        compute_ek(ctx, caches.get, method=method)  # unmutated, it passes
        seen = []

        def mutated_dft(x):
            seen.append(len(seen))
            if len(seen) - 1 != call:
                return dft(x)
            if mutation == "roll":
                return fft.Spectrum(np.roll(np.asarray(dft(x).values), 1))
            return fft.Spectrum(np.conj(np.asarray(dft(np.conj(x)).values)))

        monkeypatch.setattr(ek, "dft", mutated_dft)
        with pytest.raises(CharacterSumError,
                           match=f"inverse sample of the packed "
                                 f"{re.escape(tag)} transform is off by .* "
                                 "past its float64 budget"):
            compute_ek(ctx, caches.get, method=method)
        assert len(seen) == call + 1  # refused before the next transform

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(np.inf, np.inf)])
    def test_non_finite_sum_is_refused(self, bad):
        # NaN compares false and inf/inf passes residue <= bound, so the
        # gate must ask for a finite sum first
        terms = np.array([1.0 + 0.5j, 1.0 - 0.5j, bad])
        with pytest.raises(CharacterSumError, match="not finite"):
            half = _Half(0.0)
            half.add(terms)
            half.result(101, 0.0, "test sum")

    def test_first_bernoulli_nonzero(self, small_contexts):
        for ctx in small_contexts.values():
            assert float(np.min(np.abs(bernoulli(ctx)))) > 1e-12

    @pytest.mark.parametrize("which", ["bernoulli", "even log Gamma"])
    def test_vanishing_denominators_are_refused(self, which, monkeypatch):
        # zeros where the S method divides must raise, not turn into inf
        # or nan: a Bernoulli input of zeros, every a_k = q/2, whose odd
        # bins in the S pair and Bernoulli spectrum are then rounding
        # noise, or a log Gamma table one of whose even characters sums to
        # zero, through its packed transform
        ctx = build_context(101)
        caches = method_tables(ctx, "s")
        if which == "bernoulli":
            monkeypatch.setattr(ek, "residues", lambda ctx, k0, k1: np.full(
                k1 - k0, ctx.q / 2))
        else:
            caches[FunctionTag.LOGGAMMA] = without_character(
                caches[FunctionTag.LOGGAMMA], 8)
        with pytest.raises(CharacterSumError, match="numerically zero"):
            compute_ek(ctx, caches.get, method="s")

    @pytest.mark.parametrize("branch", ["even", "odd"])
    @pytest.mark.parametrize("method", ["t", "both"])
    def test_vanishing_psi_sum_is_refused(self, method, branch):
        # a psi table one of whose characters sums to zero, bin 3 of the
        # branch, through its packed transform; unchecked, the T route
        # returned ek = -inf and mq = inf
        ctx = build_context(101)
        caches = method_tables(ctx, method)
        caches[FunctionTag.PSI] = without_character(
            caches[FunctionTag.PSI], 8 if branch == "even" else 7)
        with pytest.raises(CharacterSumError,
                           match=f"an {branch}-character psi sum is "
                                 "numerically zero"):
            compute_ek(ctx, caches.get, method=method)

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
        # permanent calibration: bin j of the transform of values
        # ordered by k must equal sum_a conj(chi_1^j)(a) f(a/q)
        ctx = build_context(5)
        lg, _ = tables(ctx)
        spec = dft(lg.values).values
        chars = oracles.character_table(ctx)
        for j in range(4):
            direct = np.sum(np.conj(chars[j]) * lg.values)
            assert spec[j] == pytest.approx(direct, abs=1e-13)
        # the packed spectrum unpacks to bins 1, 3 and bin 2 of that
        # transform
        roots, z = spectra(ctx, lg)
        odd = oracles.unpacked_bins(z, roots, True)
        assert odd == pytest.approx(spec[1::2], abs=1e-13)
        assert oracles.unpacked_bins(z, roots, False) == pytest.approx(
            spec[2:3], abs=1e-13)

    def test_q5_bernoulli_matches_explicit(self):
        # the odd bins of the S pair and Bernoulli spectrum are 16 times
        # the Bernoulli numbers, its even bin 2t twice bin t of S_PAIR
        ctx = build_context(5)
        chars = oracles.character_table(ctx)
        bern = bernoulli(ctx)
        for t in range(2):
            j = 2 * t + 1
            direct = np.sum(np.conj(chars[j]) * residues(ctx, 0, 4) / 5)
            assert bern[t] == pytest.approx(direct, abs=1e-14)
        sp = tables(ctx)[1]
        roots, s_bern = spectra(ctx, sp)
        assert oracles.unpacked_bins(s_bern, roots, False) == pytest.approx(
            2 * dft(sp.values).values[1:], abs=1e-14)


class TestPerCharacterOracle:
    @pytest.mark.parametrize("q", [5, 13, 31, 101])
    def test_fft_equals_direct(self, q):
        ctx = build_context(q)
        lg, sp = tables(ctx)
        shift = specfun.EULER_GAMMA + specfun.LOG_2PI
        roots, z, s_bern = spectra(ctx, lg, sp)
        odd_vals, even_vals = (shift + v for v in s_terms(z, s_bern, roots))
        s_by_a = oracles.s_series(np.arange(1, q) / q)
        direct = oracles.direct_l_values(ctx, lg.values, s_by_a)
        for t in range(ctx.m):
            assert odd_vals[t] == pytest.approx(direct[2 * t + 1], abs=1e-10)
        for t in range(1, ctx.m):
            assert even_vals[t - 1] == pytest.approx(direct[2 * t], abs=1e-10)

    @pytest.mark.parametrize("q", [5, 13, 31, 101])
    def test_t_route_equals_direct_and_s(self, q):
        ctx = build_context(q)
        lg, sp = tables(ctx)
        roots, z, s_bern, t, psi = spectra(
            ctx, lg, sp, precompute(ctx, FunctionTag.T),
            precompute(ctx, FunctionTag.PSI))
        odd, even = s_terms(z, s_bern, roots)
        t_odd = t_values(q, t, psi, roots, True)
        t_even = t_values(q, t, psi, roots, False)
        s_by_a = oracles.s_series(np.arange(1, q) / q)
        direct = oracles.direct_l_values(ctx, lg.values, s_by_a)
        shift = specfun.EULER_GAMMA + specfun.LOG_2PI
        for t in range(ctx.m):
            assert t_odd[t] == pytest.approx(direct[2 * t + 1], abs=1e-10)
            assert t_odd[t] == pytest.approx(shift + odd[t], abs=1e-10)
        for t in range(1, ctx.m):
            assert t_even[t - 1] == pytest.approx(direct[2 * t], abs=1e-10)
            assert t_even[t - 1] == pytest.approx(shift + even[t - 1],
                                                  abs=1e-10)

    def test_conjugate_pairing(self):
        ctx = build_context(31)
        roots, z, s_bern = spectra(ctx, *tables(ctx))
        odd_vals = (specfun.EULER_GAMMA + specfun.LOG_2PI
                    + s_terms(z, s_bern, roots)[0])
        m = ctx.m
        for t in range(m):
            assert odd_vals[t] == pytest.approx(
                np.conj(odd_vals[m - 1 - t]), abs=1e-12)


class TestChecksumOp:
    def test_small_residuals(self):
        ctx = build_context(101)
        s_pair = precompute(ctx, FunctionTag.S_PAIR)
        assert s_pair.checksum_residual() <= 1e-10
        assert precompute(ctx, FunctionTag.T).checksum_residual() <= 1e-9

    def test_detects_corruption(self):
        ctx = build_context(101)
        table = precompute(ctx, FunctionTag.S_PAIR)
        bad_values = table.values.copy()
        bad_values[7] += 1e-6
        bad = ValueTable(q=table.q, g=table.g,
                         function_tag=table.function_tag,
                         k_lo=table.k_lo, k_hi=table.k_hi, values=bad_values,
                         partial_sum=math.fsum(bad_values.tolist()))
        assert bad.checksum_residual() >= 9e-7


class TestCacheHandling:
    def test_each_method_evaluates_its_tables(self, calls):
        ctx = build_context(7)
        for method, tags in (("s", ["LOGGAMMA", "S_PAIR"]),
                             ("t", ["T", "PSI"]),
                             ("both", ["LOGGAMMA", "S_PAIR", "T", "PSI"])):
            calls.clear()
            compute_ek(ctx, method=method)
            assert [c for c in calls if c != "dft"] == tags

    def test_mismatched_cache_rejected(self):
        ctx7, ctx11 = build_context(7), build_context(11)
        caches = method_tables(ctx11, "s")
        with pytest.raises(ValueError,
                           match="LOGGAMMA table for q=11, g=2 does not "
                                 "match the context q=7, g=3"):
            compute_ek(ctx7, caches.get, method="s")

    def test_table_of_another_tag_rejected(self):
        # a PSI table given as the T table, though q and g agree
        ctx = build_context(101)
        caches = {FunctionTag.T: precompute(ctx, FunctionTag.PSI)}
        with pytest.raises(ValueError,
                           match=r"T table for q=101, g=2 does not match the "
                                 r"context q=101, g=2 \(it holds PSI "
                                 r"values\)"):
            compute_ek(ctx, caches.get, method="t")

    def test_missing_tables_are_evaluated(self, calls):
        # given the S tables only, "both" evaluates T and PSI itself, and
        # the result is the one made from all four tables given
        ctx = build_context(101)
        res = compute_ek(ctx, method_tables(ctx, "s").get, method="both")
        assert [c for c in calls if c != "dft"] == ["T", "PSI"]
        assert res == compute_ek(ctx, method_tables(ctx, "both").get,
                                 method="both")

    def test_partial_table_is_refused(self):
        ctx = build_context(101)
        caches = {FunctionTag.S_PAIR: precompute(ctx, FunctionTag.S_PAIR,
                                                 (0, 49))}
        with pytest.raises(ValueError, match="S_PAIR table for q=101 does "
                                             "not cover the full range"):
            compute_ek(ctx, caches.get, method="s")

    def test_table_failing_its_closed_form_is_refused(self):
        # the SUM is consistent with the values, so only the closed-form
        # gate can see that one value is off by 1e-6
        ctx = build_context(101)
        caches = method_tables(ctx, "s")
        table = caches[FunctionTag.S_PAIR]
        values = table.values.copy()
        values[7] += 1e-6
        caches[FunctionTag.S_PAIR] = dataclasses.replace(
            table, values=values, partial_sum=math.fsum(values.tolist()))
        with pytest.raises(ChecksumMismatchError,
                           match="S_PAIR table for q=101: full-range "
                                 "checksum residual 1.000e-06"):
            compute_ek(ctx, caches.get, method="s")

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown method 'x'"):
            compute_ek(build_context(7), method="x")


class TestTransformContract:
    @pytest.mark.parametrize("q", [13, 10007])
    @pytest.mark.parametrize("method", ["s", "t", "both"])
    def test_every_transform_goes_through_ek_dft(self, method, q,
                                                 monkeypatch):
        # wraps ek.dft the way benchmarks/tracing.py does and counts the
        # numpy transforms made outside the wrapper, each of length m:
        # route s packs log Gamma into one and S pair with the Bernoulli
        # input into another, route t packs T and psi into one each
        calls = {"s": 2, "t": 2, "both": 4}[method]
        counts = {"wrapped": 0, "numpy": 0, "ifft": 0, "points": 0}
        lengths = set()
        np_fft, np_ifft, ek_dft = np.fft.fft, np.fft.ifft, ek.dft

        def counting(fn, key):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def traced_dft(x, *args, **kwargs):
            spectrum = ek_dft(x, *args, **kwargs)
            counts["wrapped"] += 1
            counts["points"] += len(spectrum.values)
            lengths.add(len(x))
            return spectrum

        ctx = build_context(q)
        caches = method_tables(ctx, method)
        monkeypatch.setattr(np.fft, "fft", counting(np_fft, "numpy"))
        monkeypatch.setattr(np.fft, "ifft", counting(np_ifft, "ifft"))
        monkeypatch.setattr(ek, "dft", traced_dft)
        compute_ek(ctx, caches.get, method=method)
        assert counts["wrapped"] == counts["numpy"] == calls
        assert counts["ifft"] == 0
        assert lengths == {ctx.m}
        assert counts["points"] == calls * ctx.m

    def test_tables_are_evaluated_route_by_route(self, calls):
        # each table is evaluated where it is first used: S_PAIR once
        # the log Gamma table is packed and transformed, T and PSI once
        # route s is done, PSI once the T table is packed and transformed
        compute_ek(build_context(101), method="both")
        assert calls == ["LOGGAMMA", "dft", "S_PAIR", "dft",
                         "T", "dft", "PSI", "dft"]

    @pytest.mark.parametrize("method", ["s", "t", "both"])
    def test_each_table_lives_only_while_its_halves_run(self, method,
                                                        monkeypatch):
        # a lookup that holds no references: each fetch is logged by its
        # tag, and each transform by the tags whose values are still
        # alive as it starts.  A packed table, S_PAIR packed with the
        # Bernoulli input too, is gone before its transform starts
        ctx = build_context(101)
        fetched, events = [], []
        ek_dft = ek.dft

        def lookup(tag):
            table = precompute(ctx, tag)
            fetched.append((tag.value, weakref.ref(table.values)))
            events.append(tag.value)
            return table

        def tracking_dft(x):
            events.append(sorted(t for t, ref in fetched if ref() is not None))
            return ek_dft(x)

        monkeypatch.setattr(ek, "dft", tracking_dft)
        compute_ek(ctx, lookup, method=method)
        s_route = ["LOGGAMMA", [], "S_PAIR", []]
        t_route = ["T", [], "PSI", []]
        assert events == {"s": s_route, "t": t_route,
                          "both": s_route + t_route}[method]

    @pytest.mark.parametrize("method", ["s", "t", "both"])
    def test_each_half_is_released_before_the_next(self, method,
                                                   monkeypatch):
        # at the start of each transform, how many spectra of earlier
        # transforms are still alive: the packed log Gamma spectrum while
        # the S pair and Bernoulli transform runs, the packed T spectrum
        # while PSI's runs, and nothing of route s once route t starts
        ctx = build_context(101)
        caches = method_tables(ctx, method)
        spectra, alive = [], []
        ek_dft = ek.dft

        def tracking_dft(x):
            alive.append(sum(ref() is not None for ref in spectra))
            spectrum = ek_dft(x)
            spectra.append(weakref.ref(spectrum.values))
            return spectrum

        monkeypatch.setattr(ek, "dft", tracking_dft)
        compute_ek(ctx, caches.get, method=method)
        s_route, t_route = [0, 1], [0, 1]
        assert alive == {"s": s_route, "t": t_route,
                         "both": s_route + t_route}[method]

    @pytest.mark.parametrize("odd", [True, False])
    def test_a_half_holds_one_array_of_m_values(self, odd, monkeypatch,
                                                traced_peak):
        # at q = 100003, m = 50001 = 3*7*2381, whose spectra dft leaves in
        # its split order: a half holds at most one array of m values, and
        # in fact none, since route s's one pass over both halves
        # allocates temporaries of one block each, here of 2^10 bins,
        # about a dozen of them at once.  An array of the half's m/2
        # ratios (25 blocks), or of their moduli, would exceed the bound
        ctx = build_context(100003)
        roots, z, s_bern = spectra(ctx, *tables(ctx))
        assert z.rows == s_bern.rows == 21
        monkeypatch.setattr(ek, "_BLOCK", 1 << 10)
        half, sizes = _Half(0.0), []

        def ratio_pass():
            for i, f_lg, f_sb in character_blocks(z, s_bern, roots):
                if i % 2 == odd:
                    sizes.append(len(f_lg))
                    half.add(_ratio(f_lg, f_sb, 1 / 16, "test") if odd
                             else _ratio(f_sb, f_lg, 1, "test"))

        _, peak = traced_peak(ratio_pass)
        assert peak <= 16 * ek._BLOCK * 16, peak
        assert sum(sizes) == ctx.m - (not odd)  # every character's ratio

    @pytest.mark.parametrize("method", ["s", "t", "both"])
    def test_a_compute_holds_two_arrays_of_m_values(self, method,
                                                    traced_peak):
        # at q = 1000003, m = 3*166667, which dft splits: each table is
        # evaluated into its transform buffer and transformed there, so
        # at most the two spectra of a route, of m complex values each,
        # are alive at once, beside temporaries of a block each, the unit
        # roots and the split's root tables.  A table beside its packed
        # copy, the S pair values beside u and y, or a third array in the
        # split or in a ratio pass, would exceed the bound by an array of
        # at least m/2 complex values
        compute_ek(build_context(101), method=method)  # per-process costs
        ctx = build_context(1000003)
        assert 300 < max(factorize(ctx.m)) < ctx.m
        _, peak = traced_peak(compute_ek, ctx, method=method)
        assert peak <= 2 * 16 * ctx.m + 16 * ek._BLOCK * 16, peak

    @pytest.mark.parametrize("method", ["s", "t", "both"])
    def test_one_twiddle_per_route(self, method, monkeypatch):
        # the roots of the assembly come from two tables of about sqrt(m)
        # roots, the only np.exp calls it makes, formed once per compute
        # whatever the method: no m-length twiddle
        ctx = build_context(101)
        caches = method_tables(ctx, method)
        lengths = []
        np_exp = np.exp

        def counting_exp(x, *args, **kwargs):
            lengths.append(np.size(x))
            return np_exp(x, *args, **kwargs)

        roots = UnitRoots(ctx.q - 1)
        monkeypatch.setattr(np, "exp", counting_exp)
        compute_ek(ctx, caches.get, method=method)
        assert lengths == [len(roots.coarse), len(roots.fine)]
        assert max(lengths) <= math.isqrt(ctx.m) + 2

    def test_star_import_and_all(self):
        namespace = {}
        exec("from ekconst import *", namespace)
        for name in ekconst.__all__:
            assert name in namespace
            assert getattr(ekconst, name) is namespace[name]
