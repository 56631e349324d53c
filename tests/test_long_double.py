"""The library's transforms and route s against long-double references
(oracles.long_double_bins, oracles.route_s_long_double)."""

import math

import numpy as np
import pytest

import oracles
from ekconst import specfun
from ekconst.cache import FunctionTag, precompute
from ekconst.ek import pack, packed_spectrum, s_pair_bernoulli
from ekconst.fft import UnitRoots
from ekconst.multgroup import build_context
from reference_values import EK_MID, EK_PLUS_MID

EPS = float(np.finfo(np.float64).eps)


def value_error(values) -> float:
    """A bound on the absolute error of each float64 table value: the
    evaluation target plus half an ulp of the largest value."""
    return specfun.TARGET_ABS_ERROR + EPS / 2 * float(np.max(np.abs(values)))


@pytest.fixture(scope="module")
def s_tables():
    tables = {}

    def get(q):
        if q not in tables:
            ctx = build_context(q)
            tables[q] = (ctx, precompute(ctx, FunctionTag.LOGGAMMA),
                         precompute(ctx, FunctionTag.S_PAIR))
        return tables[q]

    return get


@pytest.mark.parametrize("q", [5, 31, 101])
def test_route_s_oracle_equals_the_direct_character_sums(q, s_tables):
    # pairs the characters as the library's routes do, so it is checked
    # once against sums over explicitly built characters
    ctx, lg, sp = s_tables(q)
    direct = oracles.direct_l_values(ctx, lg.values,
                                     oracles.s_series(np.arange(1, q) / q))
    ek_diff, ek_plus = oracles.route_s_long_double(ctx, lg.values,
                                                   sp.values)
    assert float(ek_diff) == pytest.approx(
        sum(v for j, v in direct.items() if j % 2).real, abs=1e-12)
    assert float(ek_plus) == pytest.approx(
        specfun.EULER_GAMMA
        + sum(v for j, v in direct.items() if j % 2 == 0).real, abs=1e-12)


@pytest.mark.parametrize("q", [10007, 20011, 30011])
def test_route_s_oracle_against_the_published_values(q, s_tables):
    # the distance is the tables' error carried through route s.  Each
    # value of a table is off by at most value_error, so by Parseval the
    # bin errors of a length-N table have a 2-norm of at most
    # N * value_error, and by Cauchy-Schwarz a sum of bin errors over
    # weights w is at most that times ||w||_2: w = 1/B for ek_diff, and
    # 1/(2 L) and S/(2 L^2) for the even sums S/L of ek_plus.  The bins
    # j <= m stand for their conjugates too, hence the sqrt(2)
    ctx, lg, sp = s_tables(q)
    n, m = q - 1, ctx.m
    ek_diff, ek_plus = oracles.route_s_long_double(ctx, lg.values,
                                                   sp.values)
    lg_bins = np.fft.rfft(lg.values)
    bern = np.fft.rfft(oracles.a_seq_loop(q, ctx.g) / q)[1::2]
    den, num = lg_bins[2::2], np.fft.rfft(sp.values)[1:]

    def norm(w):
        return math.sqrt(2 * float(np.sum(np.abs(w) ** 2)))

    odd_bound = n * value_error(lg.values) * norm(1 / bern)
    even_bound = (m * value_error(sp.values) * norm(0.5 / den)
                  + n * value_error(lg.values) * norm(0.5 * num / den ** 2))
    assert abs(float(ek_plus) - EK_PLUS_MID[q]) <= even_bound
    assert abs(float(ek_diff + ek_plus) - EK_MID[q]) <= odd_bound + even_bound


@pytest.mark.parametrize("q", [10007, 100003])
@pytest.mark.parametrize("tag", ["LOGGAMMA", "T", "PSI", "S_PAIR+Bernoulli"])
def test_packed_parities_against_long_double(q, tag):
    # the float64 error of a transform of length N is at most about
    # eps*log2(N) times the 2-norm of its spectrum, sqrt(N)*||f||_2, in
    # every bin.  The S pair and Bernoulli table f is the real table that
    # s_pair_bernoulli packs
    ctx = build_context(q)
    roots = UnitRoots(q - 1)
    if tag == "S_PAIR+Bernoulli":
        z = s_pair_bernoulli(ctx, oracles.s_pair_buffer(
            precompute(ctx, FunctionTag.S_PAIR).values))
        f = z.view(float).copy()
    else:
        f = precompute(ctx, FunctionTag(tag)).values
        z = pack(f, tag == "LOGGAMMA")
    z = packed_spectrum(z, roots, tag)
    ref = oracles.long_double_bins(f)
    bound = EPS * math.log2(q - 1) * math.sqrt(q - 1) * float(
        np.linalg.norm(f))
    for odd, bins in ((True, ref[1::2]), (False, ref[2::2])):
        unpacked = oracles.unpacked_bins(z, roots, odd)
        err = float(np.max(np.abs(unpacked - bins)))
        assert err <= bound, (odd, err, bound)
