"""Greedy prime offsets and the candidate score v(q)."""

import math

import pytest

import oracles
from ekconst.offsets import greedy_offsets, v_of_q


class TestGreedy:
    def test_first_element(self):
        assert greedy_offsets(1).b == (0,)

    def test_first_three_vs_bruteforce(self):
        assert list(greedy_offsets(3).b) == oracles.greedy_offsets_bruteforce(3)
        assert greedy_offsets(3).b == (0, 2, 6)

    def test_prefix_vs_bruteforce(self):
        assert list(greedy_offsets(40).b) == \
            oracles.greedy_offsets_bruteforce(40)

    def test_every_prefix_admissible(self):
        seq = greedy_offsets(200).b
        for r in range(2, 201):
            if not oracles.trial_division_is_prime(r):
                continue
            for n in range(1, 201):
                residues = {b % r for b in seq[:n]}
                assert len(residues) <= r - 1, (r, n)

    def test_strictly_increasing(self):
        seq = greedy_offsets(500).b
        assert all(a < b for a, b in zip(seq, seq[1:]))

    def test_count_validation(self):
        with pytest.raises(ValueError):
            greedy_offsets(0)
        with pytest.raises(ValueError):
            greedy_offsets(2090)


class TestScore:
    def test_v3_term_by_term(self):
        seq = greedy_offsets(2089)
        want = math.fsum(
            1.0 / b for b in seq.b[1:]
            if oracles.trial_division_is_prime(b * 3 + 1))
        assert v_of_q(3, seq) == pytest.approx(want, abs=1e-15)

    def test_v_bounded_by_reciprocal_sum(self):
        seq = greedy_offsets(300)
        for q in (3, 5, 101, 9973):
            assert v_of_q(q, seq) <= oracles.reciprocal_sum(seq.b) + 1e-15

    def test_overflow_guard(self):
        seq = greedy_offsets(10)
        with pytest.raises(OverflowError):
            v_of_q(2**62, seq)

    def test_domain(self):
        with pytest.raises(ValueError):
            v_of_q(2)
