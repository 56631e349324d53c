"""Greedy prime offsets and the candidate score v(q)."""

import math

import pytest

import oracles
from ekconst import offsets
from ekconst.multgroup import DomainError, is_prime
from ekconst.offsets import (GREEDY_COUNT, OffsetSequence, greedy_offsets,
                             v_of_q)


def v_reference(q, seq=None):
    """v(q) with one Miller-Rabin test of each point b*q+1."""
    seq = seq or greedy_offsets(GREEDY_COUNT)
    return math.fsum(1.0 / b for b in seq.b[1:] if is_prime(b * q + 1))


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

    def test_full_sequence_keeps_no_set_per_prime(self, traced_peak):
        greedy_offsets.cache_clear()
        seq, peak = traced_peak(greedy_offsets, GREEDY_COUNT)
        # a Python set of residues per prime <= 2089 takes about 23 MB
        assert peak < 1_000_000
        assert len(seq.b) == GREEDY_COUNT and seq.b[-1] == 18932

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
        with pytest.raises(DomainError):
            v_of_q(2**62, seq)

    def test_domain(self):
        with pytest.raises(ValueError):
            v_of_q(2)


class TestSieve:
    def test_every_odd_prime_to_3000(self):
        qs = [q for q in range(3, 3001, 2) if is_prime(q)]
        assert [v_of_q(q) for q in qs] == [v_reference(q) for q in qs]

    def test_around_the_sieve_bound(self):
        # 65521 and 65537 are the primes either side of 2^16; the rest are
        # composite, with the small primes that divide q left out
        for q in (9, 15, 1001, 65521, 65535, 65537):
            assert v_of_q(q) == v_reference(q), q

    @pytest.mark.parametrize("q, tests_some", [
        (2003, False), (226843, False), (226871, True), (964477901, True)])
    def test_sieve_and_is_prime_share_one_q(self, monkeypatch, q,
                                            tests_some):
        # below SIEVE_BOUND^2 = 2^32 the sieve alone decides every point;
        # above it, is_prime decides the points the sieve leaves.
        # 18932*226843+1 < 2^32 < 18932*226871+1 for consecutive primes
        points = {b * q + 1 for b in greedy_offsets(GREEDY_COUNT).b[1:]}
        tested = []

        def counting_is_prime(n):
            tested.append(n)
            return is_prime(n)

        monkeypatch.setattr(offsets, "is_prime", counting_is_prime)
        got = v_of_q(q)
        monkeypatch.undo()
        assert got == v_reference(q)
        assert set(tested) <= points
        assert len(tested) < len(points)
        assert bool(tested) == tests_some

    def test_odd_offsets(self):
        # b*q+1 is even for odd b and odd q; 2 crosses those off
        seq = OffsetSequence((0, 1, 2, 3, 5, 8))
        for q in (3, 4, 5, 7, 9):
            assert v_of_q(q, seq) == v_reference(q, seq), q
        assert v_of_q(3, OffsetSequence((0, 1))) == 0.0

    def test_q_beyond_int64(self):
        # 2^63 + 29 is prime
        seq = OffsetSequence((0, 1))
        assert v_of_q(2**63 + 28, seq) == 1.0
        assert v_of_q(2**63 + 30, seq) == v_reference(2**63 + 30, seq)

    def test_overflow_message_names_the_largest_offset(self):
        with pytest.raises(DomainError,
                           match=r"^18932\*1000000000000000\+1 exceeds"):
            v_of_q(10**15)
