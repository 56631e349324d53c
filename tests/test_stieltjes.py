"""Generalized Euler constants in arithmetic progressions."""

import math

import numpy as np
import pytest

import oracles
from ekconst.specfun import EULER_GAMMA, GAMMA1, gamma_n
from ekconst.stieltjes import build_table
from oracles import gamma0_closed, gamma1_closed


def cell(k: int, a: int, q: int) -> float:
    """gamma_k(a, q), read from the table of q up to k."""
    return build_table(q, k).values[k * q + a - 1]


class TestGamma0:
    """The closed form through psi that checks the table at k = 0."""

    def test_classical_euler_constant(self):
        assert gamma0_closed(1, 1) == pytest.approx(EULER_GAMMA, abs=1e-15)

    def test_a_equals_q(self):
        want = (EULER_GAMMA - math.log(3)) / 3
        assert gamma0_closed(3, 3) == pytest.approx(want, abs=1e-15)
        assert gamma0_closed(3, 3) == pytest.approx(-0.17379887458885898,
                                                    abs=1e-13)

    def test_full_modulus_sum_vs_bruteforce(self):
        total = math.fsum(gamma0_closed(a, 7) for a in range(1, 8))
        brute = math.fsum(oracles.gamma_k_aq_bruteforce(0, a, 7)
                          for a in range(1, 8))
        assert total == pytest.approx(brute, abs=1e-8)


class TestGamma1:
    """The closed form through psi and T that checks the table at k = 1."""

    def test_reduces_to_gamma1_at_q1(self):
        assert gamma1_closed(1, 1) == pytest.approx(GAMMA1, abs=1e-15)

    def test_a_equals_q(self):
        lq = math.log(7)
        want = (GAMMA1 + EULER_GAMMA * lq - lq * lq / 2) / 7
        assert gamma1_closed(7, 7) == pytest.approx(want, abs=1e-15)

    def test_vs_bruteforce(self):
        assert gamma1_closed(2, 5) == pytest.approx(
            oracles.gamma_k_aq_bruteforce(1, 2, 5), abs=1e-8)


class TestGammaK:
    def test_collapses_to_gamma0(self):
        for q in range(1, 10):
            for a in range(1, q + 1):
                assert cell(0, a, q) == pytest.approx(
                    gamma0_closed(a, q), abs=1e-12)

    def test_specializes_to_gamma1(self):
        for q in range(1, 10):
            for a in range(1, q + 1):
                assert cell(1, a, q) == pytest.approx(
                    gamma1_closed(a, q), abs=1e-12)

    def test_full_modulus_collapse(self):
        for k in range(11):
            assert cell(k, 1, 1) == pytest.approx(gamma_n(k), abs=1e-12)

    def test_vs_bruteforce_spot(self):
        assert cell(2, 1, 3) == pytest.approx(
            oracles.gamma_k_aq_bruteforce(2, 1, 3), abs=1e-8)

    def test_twenty_random_cells_vs_bruteforce(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            k = int(rng.integers(0, 4))
            q = int(rng.integers(1, 10))
            a = int(rng.integers(1, q + 1))
            got = cell(k, a, q)
            want = oracles.gamma_k_aq_bruteforce(k, a, q)
            assert got == pytest.approx(want, abs=1e-8), (k, a, q)


class TestTable:
    def test_build(self):
        table = build_table(5, 2)
        assert table.q == 5 and table.k_max == 2
        assert table.values.shape == (15,)
        assert table.values.dtype == np.float64
        # row k = 1, a = 2
        assert table.values[5 + 1] == pytest.approx(gamma1_closed(2, 5),
                                                    abs=1e-15)
        # every k <= 1 cell, through psi_n_values, against the closed forms
        for q in (5, 100):
            gamma0, gamma1 = build_table(q, 1).values.reshape(2, q)
            for a in range(1, q + 1):
                assert gamma0[a - 1] == pytest.approx(gamma0_closed(a, q),
                                                      abs=1e-12), (q, a)
                assert gamma1[a - 1] == pytest.approx(gamma1_closed(a, q),
                                                      abs=1e-12), (q, a)

    @pytest.mark.parametrize("q, k_max", [(1, 20), (2, 20), (7, 20), (100, 10)])
    def test_bitwise_equal_to_cells(self, q, k_max, gammak_cells):
        assert build_table(q, k_max).values.tolist() == gammak_cells(q, k_max)

    @pytest.mark.parametrize("q, k_max", [(0, 2), (101, 2), (5, -1), (5, 21)])
    def test_range_errors(self, q, k_max):
        with pytest.raises(ValueError):
            build_table(q, k_max)
