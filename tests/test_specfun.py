"""Special-function layer: spot values, invariants, and error contracts."""

import math
from functools import partial

import numpy as np
import pytest

import oracles
from ekconst import cache, specfun
from ekconst.cache import FunctionTag
from ekconst.multgroup import DomainError, build_context, residues
from ekconst.specfun import (EULER_GAMMA, GAMMA1, LOG_2PI, ZETA_DD_AT_0,
                             NonConvergenceError, gamma_n, psi_n_values)
from oracles import psi_n_at
from reference_values import GAMMA_N


def at(values, x: float) -> float:
    """values, a function of an array of points, at the single point x."""
    return float(values(np.array([x]))[0])


# spot values through the table functions and, for S alone, the oracle
digamma = partial(at, specfun.psi_values)
log_gamma = partial(at, specfun.log_gamma_values)
t_function = partial(at, specfun.t_values)
s_function = partial(at, oracles.s_series)
s_pair = partial(at, specfun.s_pair_values)


def s_sum_closed_form(q: int) -> float:
    lq = math.log(q)
    return -ZETA_DD_AT_0 * (q - 1) - lq * LOG_2PI - lq * lq / 2


def t_sum_closed_form(q: int) -> float:
    lq = math.log(q)
    return q / 2 * lq * lq + EULER_GAMMA * q * lq


class TestConstants:
    def test_ranges(self):
        assert 0.577215 < EULER_GAMMA < 0.577216
        assert -0.072816 < GAMMA1 < -0.072815
        assert -2.006357 < ZETA_DD_AT_0 < -2.006356


class TestDigamma:
    def test_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2 * math.log(2),
                                             abs=1e-14)

    def test_at_third_vs_bruteforce(self):
        assert digamma(1 / 3) == pytest.approx(-3.1320337800208065, abs=1e-13)
        assert digamma(1 / 3) == pytest.approx(
            oracles.digamma_bruteforce(1 / 3), abs=1e-12)

    def test_third_reproduces_l_value(self):
        # odd character mod 3: |L(1,chi)| = -(1/3)[psi(1/3) - psi(2/3)]
        val = -(digamma(1 / 3) - (digamma(1 / 3) + math.pi / math.tan(math.pi / 3))) / 3
        assert val == pytest.approx(math.pi / 3**1.5, abs=1e-14)


class TestLogGamma:
    def test_at_half(self):
        assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi),
                                               abs=1e-14)

    def test_reflection_quarter(self):
        got = log_gamma(0.25) + log_gamma(0.75)
        want = math.log(math.pi) - math.log(math.sin(math.pi / 4))
        assert got == pytest.approx(want, abs=1e-14)

    def test_at_third_vs_bruteforce(self):
        assert log_gamma(1 / 3) == pytest.approx(0.9854206469277671, abs=1e-13)
        assert log_gamma(1 / 3) == pytest.approx(
            oracles.log_gamma_bruteforce(1 / 3), abs=1e-12)

    def test_reflection_grid(self):
        xs = np.arange(1, 100) / 100.0
        resid = (specfun.log_gamma_values(xs) + specfun.log_gamma_values(1 - xs)
                 - math.log(math.pi) + np.log(np.sin(np.pi * xs)))
        assert float(np.max(np.abs(resid))) <= 1e-12


class TestT:
    def test_at_one(self):
        assert abs(t_function(1.0)) <= 1e-15

    def test_at_half(self):
        want = math.log(2) ** 2 + 2 * EULER_GAMMA * math.log(2)
        assert t_function(0.5) == pytest.approx(want, abs=1e-14)

    def test_sum_identity_q5(self):
        total = math.fsum(t_function(a / 5) for a in range(1, 5))
        assert total == pytest.approx(t_sum_closed_form(5), abs=5e-14)

    def test_vs_bruteforce(self):
        assert t_function(0.3) == pytest.approx(oracles.t_bruteforce(0.3),
                                                abs=1e-12)

    def test_sum_identity_various_q(self):
        for q in (7, 101):
            total = math.fsum(t_function(a / q) for a in range(1, q))
            assert abs(total - t_sum_closed_form(q)) <= \
                (q - 1) * specfun.TARGET_ABS_ERROR


class TestS:
    """S(x) alone is a test reference (oracles.s_series), checked here
    against its closed-form sums, the quadrature and the raw series."""

    def test_sum_identity_q3(self):
        got = s_function(1 / 3) + s_function(2 / 3)
        assert got == pytest.approx(s_sum_closed_form(3), abs=3e-14)
        assert got == pytest.approx(1.3901241011922762, abs=1e-13)

    def test_sum_identity_various_q(self):
        for q in (7, 101):
            total = math.fsum(s_function(a / q) for a in range(1, q))
            assert abs(total - s_sum_closed_form(q)) <= \
                (q - 1) * specfun.TARGET_ABS_ERROR

    def test_dual_path_at_0_3(self):
        assert s_function(0.3) == pytest.approx(oracles.s_integral(0.3),
                                                abs=1e-12)

    def test_dual_path_grid(self):
        xs = np.arange(1, 101) / 101.0
        series = oracles.s_series(xs)
        integral = np.array([oracles.s_integral(x) for x in xs])
        assert float(np.max(np.abs(series - integral))) <= 1e-11

    def test_vs_bruteforce(self):
        assert s_function(0.3) == pytest.approx(oracles.s_bruteforce(0.3),
                                                abs=5e-7)

    def test_asymptotic_magnitude(self):
        for x in (1e-3, 1e-4, 1e-5):
            assert 0.8 < s_function(x) / math.log(x) ** 2 < 1.2
            assert 0.8 < t_function(x) * x / math.log(1 / x) < 1.2

    def test_quadrature_failure(self):
        # the oracle's own level-doubling check refuses an unsettled value
        with pytest.raises(oracles.QuadratureError):
            oracles.s_integral(0.3, levels=1)


class TestSPair:
    def test_symmetry_fixed_point(self):
        assert s_pair(0.5) == pytest.approx(2 * s_function(0.5), abs=1e-12)

    def test_decimated_sum_q5(self):
        # a_k for q=5 and k < 2 are {1, 2}; the pairs cover every residue once
        total = s_pair(1 / 5) + s_pair(2 / 5)
        assert total == pytest.approx(s_sum_closed_form(5), abs=5e-14)
        assert total == pytest.approx(3.7723315975718565, abs=1e-13)

    def test_pair_equals_two_singles_grid(self):
        xs = np.arange(1, 50) / 50.0
        pair = specfun.s_pair_values(xs)
        singles = oracles.s_series(xs) + oracles.s_series(1 - xs)
        assert float(np.max(np.abs(pair - singles))) <= 1e-11

    def test_symmetric_integral_at_001(self):
        via_int = oracles.s_pair_integral(0.01)
        via_singles = s_function(0.01) + s_function(0.99)
        assert via_int == pytest.approx(via_singles, abs=1e-11)

    def test_dual_path_grid(self):
        xs = np.arange(1, 101) / 101.0
        series = specfun.s_pair_values(xs)
        integral = np.array([oracles.s_pair_integral(x) for x in xs])
        assert float(np.max(np.abs(series - integral))) <= 1e-11

    def test_reflection_consistency(self):
        assert s_pair(0.2) == pytest.approx(s_pair(0.8), abs=1e-13)


class TestSVsMpmath:
    """The series route against S(x) = zeta''(0, x) - zeta''(0) at 30
    digits, independent of both the series and the quadrature."""

    XS = np.concatenate([[1e-6, 1e-4, 1e-3, 1e-2],
                         np.linspace(0.05, 0.95, 91),
                         [0.99, 0.999, 1 - 1e-4, 1 - 1e-6]])

    @pytest.fixture(scope="class")
    def mp_s(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            zdd0 = mpmath.zeta(0, 1, 2)
            single = [mpmath.zeta(0, x, 2) - zdd0 for x in self.XS]
            mirror = [mpmath.zeta(0, 1 - mpmath.mpf(x), 2) - zdd0
                      for x in self.XS]
            return (np.array([float(v) for v in single]),
                    np.array([float(a + b) for a, b in zip(single, mirror)]))

    def test_s_values(self, mp_s):
        err = np.abs(oracles.s_series(self.XS) - mp_s[0])
        assert float(np.max(err)) <= 1e-13

    def test_s_pair_values(self, mp_s):
        err = np.abs(specfun.s_pair_values(self.XS) - mp_s[1])
        assert float(np.max(err)) <= 1e-13

    def test_t_values(self):
        # T(x) = gamma1 + psi_1(x) = gamma_1 - gamma_1(x), the generalized
        # Stieltjes constant of the Hurwitz zeta function
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            want = np.array([float(mpmath.stieltjes(1)
                                   - mpmath.stieltjes(1, x)) for x in self.XS])
        err = np.abs(specfun.t_values(self.XS) - want)
        assert float(np.max(err / np.maximum(1.0, np.abs(want)))) <= 1e-13


class TestPolynomialBulks:
    """T and S(x)+S(1-x) sum their series terms m >= 2 as one polynomial in
    x, whose coefficients take the terms from m = 64 by Euler-Maclaurin;
    each point's bound joins the coefficients' remainders and a bound on
    the polynomial's omitted terms."""

    X = np.arange(1, 20_000) / 20_000

    def test_t_series_equals_direct_bulk(self):
        poly = specfun._t_series_batch(self.X)[0]
        direct = specfun._psi_series_batch(1, self.X, 64)[0]
        assert float(np.max(np.abs(poly - direct))) <= 2e-15

    def test_s_pair_series_equals_direct_bulk(self):
        x = np.minimum(self.X, 1 - self.X)
        poly = specfun._s_pair_series_batch(x)[0]
        direct = oracles.s_pair_series_direct(x)[0]
        assert float(np.max(np.abs(poly - direct))) <= 2e-15

    @staticmethod
    def gate_at(monkeypatch, values, x, rem):
        # a target just over the bound passes, and one just under fails
        monkeypatch.setattr(specfun, "TARGET_ABS_ERROR", rem)
        values(x)
        monkeypatch.setattr(specfun, "TARGET_ABS_ERROR", math.nextafter(rem, 0))
        with pytest.raises(NonConvergenceError):
            values(x)

    def test_t_truncation_bound_is_gated(self, monkeypatch):
        # the bound is sum_j r[j] |t|^j, t = x - 1/2: the coefficients' own
        # remainders and, at j = K+1, the polynomial's omitted terms
        x = np.array([1e-6])
        c, r = specfun._t_bulk_poly()
        t = 0.5 - 1e-6
        rem = float(specfun._t_batch(x)[1][0])
        assert rem == pytest.approx(
            math.fsum(rj * t**j for j, rj in enumerate(r)), rel=1e-4, abs=0)
        # the truncation term alone, made large, fails the target
        big = r[:-1] + (2 * specfun.TARGET_ABS_ERROR / t ** len(c),)
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_t_bulk_poly", lambda: (c, big))
            with pytest.raises(NonConvergenceError):
                specfun.t_values(x)
        self.gate_at(monkeypatch, specfun.t_values, x, rem)

    def test_s_pair_truncation_bound_is_gated(self, monkeypatch):
        # the bound is sum_j b[j] x^(2j) on (0, 1/2], largest at x = 1/2
        x = np.array([0.5])
        C, b = specfun._s_pair_bulk_poly()
        rem = float(specfun._s_pair_batch(x)[1][0])
        assert rem == pytest.approx(
            math.fsum(bj * 0.25**j for j, bj in enumerate(b)), rel=1e-12,
            abs=0)
        big = b[:-1] + (2 * specfun.TARGET_ABS_ERROR * 4 ** len(b),)
        with monkeypatch.context() as patch:
            patch.setattr(specfun, "_s_pair_bulk_poly", lambda: (C, big))
            with pytest.raises(NonConvergenceError):
                specfun.s_pair_values(x)
        self.gate_at(monkeypatch, specfun.s_pair_values, x, rem)

    def test_coefficients_vs_mpmath(self):
        # Summed over every m >= 2 at 30 digits.  T's c[k], k >= 1, are
        # Hurwitz-zeta derivatives at s = k+1, a = 5/2, as f^(k)(u)/k! =
        # (-1)^k (log u - H_k)/u^(k+1), and c[0] = gamma_1(5/2) - gamma_1(2);
        # the pair's C[k-1] = (2/k)(H_{2k-1} (zeta(2k) - 1) + zeta'(2k))
        mpmath = pytest.importorskip("mpmath")
        c, r = specfun._t_bulk_poly()
        C, b = specfun._s_pair_bulk_poly()
        with mpmath.workdps(30):
            a = mpmath.mpf(5) / 2
            H = [mpmath.fsum(mpmath.mpf(1) / j for j in range(1, n + 1))
                 for n in range(len(c) + 2 * len(C))]
            want_c = [mpmath.stieltjes(1, a) - mpmath.stieltjes(1, 2)] + [
                (-1) ** k * (-mpmath.zeta(k + 1, a, 1)
                             - H[k] * mpmath.zeta(k + 1, a))
                for k in range(1, len(c))]
            want_C = [2 * (H[2 * k - 1] * (mpmath.zeta(2 * k) - 1)
                           + mpmath.zeta(2 * k, 1, 1)) / k
                      for k in range(1, len(C) + 1)]
        for got, want, rem in ((c, want_c, r), (C, want_C, b[1:])):
            want = np.array([float(w) for w in want])
            err = np.abs(np.array(got) - want)
            assert np.all(err <= np.array(rem[:len(got)])
                          + 4e-15 * np.abs(want))

    def test_coefficient_remainders_bound_their_tails(self):
        # Each coefficient's Euler-Maclaurin sum from m = 64, at 60 digits
        # (30 do not resolve the top orders), against the exact sum over
        # m >= 64 from Hurwitz zeta values: the error is within its bound.
        # f^(j)(u) = (-1)^j j! (log u - H_j)/u^(j+1) for f(u) = log(u)/u.
        mpmath = pytest.importorskip("mpmath")
        c, r = specfun._t_bulk_poly()
        C, b = specfun._s_pair_bulk_poly()
        with mpmath.workdps(60):
            A = mpmath.mpf(64)
            h = A + mpmath.mpf(1) / 2

            def f(j, u):
                return ((-1) ** j * mpmath.factorial(j)
                        * (mpmath.log(u) - mpmath.harmonic(j)) / u ** (j + 1))

            def em(g, integral):  # g(i) is the i-th derivative at the start
                return (integral + g(0) / 2 - g(1) / 12 + g(3) / 720
                        - g(5) / 30240)

            err = [em(lambda i: f(i, h) - f(i, A),
                      (mpmath.log(A) ** 2 - mpmath.log(h) ** 2) / 2)
                   - mpmath.stieltjes(1, h) + mpmath.stieltjes(1, A)]
            for k in range(1, len(c)):
                kf = mpmath.factorial(k)
                err.append(em(lambda i: f(k + i, h) / kf, -f(k - 1, h) / kf)
                           - (-1) ** k * (-mpmath.zeta(k + 1, h, 1)
                                          - mpmath.harmonic(k)
                                          * mpmath.zeta(k + 1, h)))
            assert all(abs(e) <= rk for e, rk in zip(err, r))
            for k in range(1, len(C) + 1):
                H, n = mpmath.harmonic(2 * k - 1), 2 * k

                def g(u):
                    return (H - mpmath.log(u)) / u**n
                integral = A ** (1 - n) * ((H - mpmath.log(A)) / (n - 1)
                                           - mpmath.mpf(1) / (n - 1) ** 2)
                e = em(lambda i: mpmath.diff(g, A, i), integral) - (
                    H * mpmath.zeta(n, A) + mpmath.zeta(n, A, 1))
                assert 2 * abs(e) / k <= b[k], k

    def test_fold_is_exact(self):
        # 1 - x is exact for x >= 1/2, and so is the fold of 1 - x back to x
        x = np.arange(500, 1000) / 1000
        assert np.array_equal(specfun.s_pair_values(x),
                              specfun.s_pair_values(1 - x))


class TestLogGammaPsi:
    """log Gamma(x) = P(x - 1/2) - log x and psi(x) = Q(x - 1/2) - 1/x,
    with P and Q the Taylor polynomials of log Gamma(1+x) and psi(1+x) at
    x = 1/2, whose coefficients are Hurwitz zeta values at 3/2."""

    KERNELS = [(specfun.log_gamma_values, specfun._log_gamma_poly,
                specfun._log_gamma_batch, "loggamma", "gammaln"),
               (specfun.psi_values, specfun._psi_poly, specfun._psi_batch,
                "digamma", "digamma")]
    IDS = ["log_gamma", "psi"]

    @staticmethod
    def point_sets():
        rng = np.random.default_rng(34)
        yield "random", np.concatenate([1 - rng.random(400), [0.5, 1.0]])
        for q in (10007, 305741, 10000019):
            a = np.concatenate([[1, (q - 1) // 2, (q + 1) // 2, q - 1],
                                rng.integers(1, q, 400)])
            yield q, np.concatenate([a / q, [0.5, 1.0]])

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_no_further_from_mpmath_than_scipy(self, kernel):
        # the largest error at 30 digits over each set of points, with 1/q,
        # 1/2, 1 and (q-1)/q among them, is at most scipy.special's
        mpmath = pytest.importorskip("mpmath")
        special = pytest.importorskip("scipy.special")
        values, _, _, mp_name, sp_name = kernel
        with mpmath.workdps(30):
            for name, x in self.point_sets():
                want = [getattr(mpmath, mp_name)(mpmath.mpf(v))
                        for v in x.tolist()]

                def worst(got):
                    return max(abs(mpmath.mpf(g) - w)
                               for g, w in zip(got.tolist(), want))
                own = worst(values(x))
                assert own <= worst(getattr(special, sp_name)(x)), name

    @staticmethod
    def exact_coefficients(mpmath, mp_name, n):
        # log Gamma's c[k] = (-1)^k zeta(k, 3/2)/k from k = 2, after
        # log Gamma(3/2) and psi(3/2); psi's c[k] = (-1)^(k+1) zeta(k+1, 3/2)
        # from k = 1, after psi(3/2)
        a = mpmath.mpf(3) / 2
        if mp_name == "loggamma":
            return [mpmath.loggamma(a), mpmath.digamma(a)] + [
                (-1) ** k * mpmath.zeta(k, a) / k for k in range(2, n)]
        return [mpmath.digamma(a)] + [(-1) ** (k + 1) * mpmath.zeta(k + 1, a)
                                      for k in range(1, n)]

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_coefficients_vs_mpmath(self, kernel):
        # each within its remainder; the constants correctly rounded
        mpmath = pytest.importorskip("mpmath")
        _, poly, _, mp_name, _ = kernel
        c, r = poly()
        with mpmath.workdps(30):
            want = self.exact_coefficients(mpmath, mp_name, len(c))
        head = 2 if mp_name == "loggamma" else 1
        assert list(c[:head]) == [float(w) for w in want[:head]]
        want = np.array([float(w) for w in want])
        err = np.abs(np.array(c) - want)
        assert np.all(err <= np.array(r[:len(c)]) + 4e-16 * np.abs(want))

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_omitted_terms_within_their_bound(self, kernel):
        # the function at 3/2 + t, t = +-1/2, less the polynomial with the
        # exact coefficients, at 30 digits, against r[K+1] |t|^(K+1)
        mpmath = pytest.importorskip("mpmath")
        _, poly, _, mp_name, _ = kernel
        c, r = poly()
        with mpmath.workdps(30):
            exact = self.exact_coefficients(mpmath, mp_name, len(c))
            for t in (mpmath.mpf(-1) / 2, mpmath.mpf(1) / 2):
                omitted = (getattr(mpmath, mp_name)(1.5 + t)
                           - mpmath.polyval(exact[::-1], t))
                assert 0 < abs(omitted) <= r[len(c)] * 0.5 ** len(c)

    @pytest.mark.parametrize("kernel", KERNELS, ids=IDS)
    def test_truncation_bound_is_gated(self, monkeypatch, kernel):
        # at x = 1, t = 1/2 exactly, the bound is sum_j r[j] (1/2)^j: the
        # coefficients' own remainders and, at j = K+1, the omitted terms
        values, poly, batch, _, _ = kernel
        x = np.array([1.0])
        c, r = poly()
        rem = float(batch(x)[1][0])
        assert rem == pytest.approx(
            math.fsum(rj * 0.5**j for j, rj in enumerate(r)), rel=1e-12,
            abs=0)
        big = r[:-1] + (2 * specfun.TARGET_ABS_ERROR * 2 ** len(c),)
        with monkeypatch.context() as patch:
            patch.setattr(specfun, poly.__name__, lambda: (c, big))
            with pytest.raises(NonConvergenceError):
                values(x)
        TestPolynomialBulks.gate_at(monkeypatch, values, x, rem)


class TestBlocks:
    """cache.precompute walks a table in blocks of cache._BLOCK k: the
    values must not depend on the blocking, every block is checked, and
    the working memory beside the values does not grow with the range.
    The specfun functions evaluate the points they are given."""

    B = cache._BLOCK
    ONE_CALL = {FunctionTag.LOGGAMMA: specfun.log_gamma_values,
                FunctionTag.S_PAIR: specfun.s_pair_values,
                FunctionTag.T: specfun.t_values,
                FunctionTag.PSI: specfun.psi_values}

    @staticmethod
    def psi1_one_batch(x, start=64):
        return specfun._psi_series_batch(1, x, start)[0]

    @staticmethod
    def near_and_far(n_far):
        # 2B points whose series tails are small, then n_far with larger ones
        return np.concatenate([np.full(2 * TestBlocks.B, 0.01),
                               np.full(n_far, 0.9)])

    @staticmethod
    def points(ctx, tag, k0, k1):
        a = residues(ctx, k0, k1)
        if tag is FunctionTag.S_PAIR:
            a = np.minimum(a, ctx.q - a)
        return a / ctx.q

    @pytest.mark.parametrize("tag", list(FunctionTag), ids=lambda t: t.value)
    def test_precompute_bitwise_equal_to_one_call(self, tag):
        # k0 is no multiple of B, and the range holds two block boundaries
        ctx = build_context(40009)
        k0 = self.B // 4 + 3
        k1 = k0 + 2 * self.B + 5
        got = cache.precompute(ctx, tag, (k0, k1)).values
        want = self.ONE_CALL[tag](self.points(ctx, tag, k0, k1))
        assert np.array_equal(got, want)
        assert np.array_equal(got, cache.precompute(ctx, tag).values[k0:k1])

    @pytest.mark.parametrize("tag, batch", [
        (FunctionTag.S_PAIR, specfun._s_pair_batch),
        (FunctionTag.T, specfun._t_batch),
    ], ids=["S_PAIR", "T"])
    def test_only_last_block_misses_target(self, tag, batch, monkeypatch):
        # With g = 2 the largest bound sits at the last point of the range
        # below: a = m at k = m-1 for S_PAIR, a = q-1 at k = m for T.  A
        # target just under it fails that point alone, in the third block.
        ctx = build_context(40013)
        assert ctx.g == 2
        k0 = self.B // 4 + 3
        k1 = ctx.m + (tag is FunctionTag.T)
        assert k1 - 1 - k0 > 2 * self.B
        rem = batch(self.points(ctx, tag, k0, k1))[1]
        assert rem[-1] > rem[:-1].max()
        monkeypatch.setattr(specfun, "TARGET_ABS_ERROR",
                            math.sqrt(rem[-1] * rem[:-1].max()))
        cache.precompute(ctx, tag, (k0, k1 - 1))
        with pytest.raises(NonConvergenceError):
            cache.precompute(ctx, tag, (k0, k1))

    def test_start_doubles_per_block(self, monkeypatch):
        rem_near = float(specfun._psi_series_batch(1, np.array([0.01]), 64)[1][0])
        rem_far = float(specfun._psi_series_batch(1, np.array([0.9]), 64)[1][0])
        monkeypatch.setattr(specfun, "TARGET_ABS_ERROR",
                            math.sqrt(rem_near * rem_far))
        monkeypatch.setattr(specfun, "MAX_TERMS", 128)
        x = self.near_and_far(3)
        got = specfun._psi_series_checked(1, x)
        assert np.array_equal(got[:2 * self.B],
                              self.psi1_one_batch(x[:2 * self.B]))
        assert np.array_equal(got[2 * self.B:],
                              self.psi1_one_batch(x[2 * self.B:], 128))

    def test_start_doubles_per_point(self, monkeypatch):
        # near and far points interleaved in one block: only the far ones
        # are evaluated again, at the doubled start
        rng = np.random.default_rng(7)
        near = rng.uniform(0.005, 0.015, 40)
        far = rng.uniform(0.85, 0.95, 20)
        rem_near = specfun._psi_series_batch(1, near, 64)[1]
        rem_far = specfun._psi_series_batch(1, far, 64)[1]
        assert rem_far.min() > 10 * rem_near.max()
        monkeypatch.setattr(specfun, "TARGET_ABS_ERROR",
                            math.sqrt(rem_near.max() * rem_far.min()))
        monkeypatch.setattr(specfun, "MAX_TERMS", 128)
        x = np.empty(60)
        is_far = np.arange(60) % 3 == 1
        x[~is_far], x[is_far] = near, far
        got = specfun._psi_series_checked(1, x)
        batch = specfun._psi_series_batch
        assert np.array_equal(got[~is_far], batch(1, near, 64)[0])
        assert np.array_equal(got[is_far], batch(1, far, 128)[0])
        assert not np.array_equal(got[~is_far], batch(1, near, 128)[0])
        monkeypatch.setattr(specfun, "MAX_TERMS", 64)
        with pytest.raises(NonConvergenceError):
            specfun._psi_series_checked(1, x)

    @pytest.mark.parametrize("tag", list(FunctionTag), ids=lambda t: t.value)
    def test_working_memory_does_not_grow_with_length(self, tag,
                                                      traced_peak):
        # 200004 and 400008 values.  The points of the whole range alone
        # would take as much as the values, and the series temporaries of
        # one call over them 24 and 37 MB
        ctx = build_context(400009)
        cache.precompute(ctx, tag, (0, 10))    # per-process coefficients
        table, peak = traced_peak(cache.precompute, ctx, tag)
        assert peak < table.values.nbytes + 2 * 2**20


class TestBinomialSum:
    """specfun._binomial_sum against the loop each series expansion wrote
    out before it: terms added from j = 0 up, so every value keeps its
    bits."""

    def test_equals_the_term_by_term_loop(self):
        rng = np.random.default_rng(19)
        u = rng.uniform(0.0, 12.0, 40)
        v = rng.uniform(-1.0, 1.0, (3, 40))
        for p in range(1, 22):
            for jmax in (p, p + 1):
                want = np.zeros_like(v)
                for j in range(jmax):
                    want += math.comb(p, j) * u**j * v ** (p - j)
                got = specfun._binomial_sum(p, u, v, jmax)
                assert got.tolist() == want.tolist(), (p, jmax)
                # scalars, as the gamma_n terms pass them
                want = 0.0
                for j in range(jmax):
                    want += math.comb(p, j) * 2.5**j * 0.3 ** (p - j)
                assert specfun._binomial_sum(p, 2.5, 0.3, jmax) == want


class TestPsiN:
    def test_order_zero_is_digamma(self):
        for x in (0.1, 0.35, 0.5, 0.99, 1.0):
            assert psi_n_at(0, x) == pytest.approx(digamma(x), abs=1e-13)

    def test_at_one(self):
        assert psi_n_at(0, 1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
        assert psi_n_at(2, 1.0) == pytest.approx(0.0096903631928723185,
                                                 abs=1e-12)

    def test_order_one_matches_t(self):
        for x in (0.25, 0.5, 0.9):
            assert psi_n_at(1, x) == pytest.approx(t_function(x) - GAMMA1,
                                                   abs=1e-13)


class TestPsiNValues:
    @pytest.mark.parametrize("q", [7, 97, 100])
    def test_bitwise_equal_to_one_point_path(self, q):
        x = np.array([a / q for a in range(1, q + 1)])  # x = 1 included
        for n in range(21):
            want = [psi_n_at(n, a / q) for a in range(1, q + 1)]
            assert psi_n_values(n, x).tolist() == want, n

    def test_exact_at_one(self):
        for n in (0, 3, 20):
            got = psi_n_values(n, np.array([0.5, 1.0, 1.0]))
            assert got[1] == got[2] == -gamma_n(n)

    def test_domain(self):
        with pytest.raises(ValueError):
            psi_n_values(-1, np.array([0.5]))
        for bad in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError):
                psi_n_values(2, np.array([0.5, bad]))


class TestDomains:
    """The polynomial kernels' remainder bounds hold for 0 < x <= 1 only
    (0 < x < 1 for S(x)+S(1-x)), so a point outside is refused before any
    value is formed, as psi_n_values refuses one."""

    CLOSED = [specfun.log_gamma_values, specfun.psi_values, specfun.t_values]
    IDS = ["log_gamma", "psi", "t"]

    @pytest.mark.parametrize("kernel", CLOSED, ids=IDS)
    @pytest.mark.parametrize("bad", [3.0, 1.5, 1.0 + 2**-52, 0.0, -0.5,
                                     math.nan, math.inf])
    def test_closed_kernels_refuse_points_outside_zero_one(self, kernel,
                                                           bad):
        with pytest.raises(DomainError, match=r"requires 0 < x <= 1"):
            kernel(np.array([0.5, bad, 0.25]))

    @pytest.mark.parametrize("bad", [1.0, 1.5, 0.0, -0.5, math.nan])
    def test_s_pair_refuses_points_outside_the_open_interval(self, bad):
        with pytest.raises(DomainError, match=r"requires 0 < x < 1"):
            specfun.s_pair_values(np.array([0.5, bad]))

    @pytest.mark.parametrize("kernel", CLOSED + [specfun.s_pair_values],
                             ids=IDS + ["s_pair"])
    def test_the_ends_and_no_points_are_accepted(self, kernel):
        top = 1.0 if kernel is not specfun.s_pair_values else 1 - 2**-53
        assert np.all(np.isfinite(kernel(np.array([1e-300, 0.5, top]))))
        assert kernel(np.array([])).size == 0

    def test_log_gamma_at_three_is_refused_not_wrong(self):
        # the polynomial at t = 5/2 gave 634466.34 for log Gamma(3) = 0.693
        # and passed its remainder gate
        with pytest.raises(DomainError):
            specfun.log_gamma_values(np.array([3.0]))


class TestGammaN:
    def test_published_values_to_1e12(self):
        for n in range(11):
            assert gamma_n(n) == pytest.approx(GAMMA_N[n], abs=1e-12), n

    def test_gamma0_is_euler_gamma(self):
        assert gamma_n(0) == pytest.approx(EULER_GAMMA, abs=1e-15)

    def test_higher_orders_complete(self):
        # degraded but finite accuracy up to the cap; dual routes must agree
        for n in range(11, 31):
            assert math.isfinite(gamma_n(n))

    def test_vs_bruteforce(self):
        assert gamma_n(1) == pytest.approx(oracles.gamma_n_bruteforce(1),
                                           abs=1e-5)

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_n(-1)
        with pytest.raises(ValueError):
            gamma_n(31)
