"""Value-table persistence: precompute, merge, save/load, checksums."""

import math

import numpy as np
import pytest

from ekconst import specfun
from ekconst.cache import (CacheFormatError, ChecksumMismatchError,
                           FunctionTag, MergeError, ValueTable,
                           checksum_tolerance, closed_form_sum, load, merge,
                           part_filename, precompute, save)
from ekconst.multgroup import build_context


@pytest.fixture(scope="module")
def ctx5():
    return build_context(5)


@pytest.fixture(scope="module")
def ctx101():
    return build_context(101)


class TestPrecompute:
    def test_loggamma_q5_ordering(self, ctx5):
        table = precompute(ctx5, FunctionTag.LOGGAMMA, (0, 4))
        want = [specfun.log_gamma(a / 5) for a in (1, 2, 4, 3)]
        assert np.allclose(table.values, want, atol=1e-15)

    def test_empty_range(self, ctx5):
        table = precompute(ctx5, FunctionTag.LOGGAMMA, (2, 2))
        assert len(table.values) == 0
        assert table.partial_sum == 0.0

    def test_s_pair_full_checksum(self, ctx101):
        table = precompute(ctx101, FunctionTag.S_PAIR)
        assert table.is_full_range
        assert table.checksum_residual() <= 1e-10

    def test_t_full_checksum(self, ctx101):
        table = precompute(ctx101, FunctionTag.T)
        assert table.checksum_residual() <= 1e-9

    def test_loggamma_closed_form_vs_bruteforce(self):
        # sum_a log Gamma(a/q) identity, checked against direct summation
        for q in (7, 31, 101):
            ctx = build_context(q)
            direct = math.fsum(specfun.log_gamma(a / q) for a in range(1, q))
            assert direct == pytest.approx(
                closed_form_sum(q, FunctionTag.LOGGAMMA), abs=1e-11)

    def test_psi_closed_form(self, ctx101):
        table = precompute(ctx101, FunctionTag.PSI)
        assert table.checksum_residual() <= 1e-9

    def test_determinism(self, ctx101):
        t1 = precompute(ctx101, FunctionTag.S_PAIR)
        t2 = precompute(ctx101, FunctionTag.S_PAIR)
        assert np.array_equal(t1.values, t2.values)
        assert t1.partial_sum == t2.partial_sum

    def test_range_validation(self, ctx5):
        with pytest.raises(ValueError):
            precompute(ctx5, FunctionTag.S_PAIR, (0, 3))  # beyond (q-1)/2


class TestMerge:
    def test_equals_whole(self, ctx5):
        whole = precompute(ctx5, FunctionTag.LOGGAMMA)
        parts = [precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2)),
                 precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4))]
        merged = merge(parts)
        assert np.array_equal(merged.values, whole.values)
        assert merged.is_full_range

    def test_gap(self, ctx5):
        parts = [precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2)),
                 precompute(ctx5, FunctionTag.LOGGAMMA, (3, 4))]
        with pytest.raises(MergeError, match="gap at k=2"):
            merge(parts)

    def test_overlap(self, ctx5):
        parts = [precompute(ctx5, FunctionTag.LOGGAMMA, (0, 3)),
                 precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4))]
        with pytest.raises(MergeError, match="overlap"):
            merge(parts)

    def test_mismatch(self, ctx5):
        a = precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2))
        b = precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4))
        bad = ValueTable(q=b.q, g=b.g + 1, function_tag=b.function_tag,
                         k_lo=b.k_lo, k_hi=b.k_hi, values=b.values,
                         digits=b.digits, partial_sum=b.partial_sum)
        with pytest.raises(MergeError, match="g mismatch"):
            merge([a, bad])


class TestSaveLoad:
    def test_round_trip(self, ctx101, tmp_path):
        table = precompute(ctx101, FunctionTag.S_PAIR)
        path = tmp_path / part_filename(FunctionTag.S_PAIR, 101, 0)
        assert save(table, path) == path
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left
        back = load(path)
        for attr in ("q", "g", "function_tag", "k_lo", "k_hi", "digits"):
            assert getattr(back, attr) == getattr(table, attr)
        rel = np.abs(back.values - table.values) / np.abs(table.values)
        assert float(np.max(rel)) <= 10.0 ** (1 - table.digits)

    def test_flipped_tag_is_format_error(self, ctx5, tmp_path):
        table = precompute(ctx5, FunctionTag.LOGGAMMA)
        path = tmp_path / "t.ekc"
        save(table, path)
        text = path.read_text().replace("tag=LOGGAMMA", "tag=LOGGAMMA2")
        path.write_text(text)
        with pytest.raises(CacheFormatError):
            load(path)

    def test_wrong_version_is_format_error(self, ctx5, tmp_path):
        table = precompute(ctx5, FunctionTag.LOGGAMMA)
        path = tmp_path / "t.ekc"
        save(table, path)
        text = path.read_text().replace("EKCACHE 1", "EKCACHE 2")
        path.write_text(text)
        with pytest.raises(CacheFormatError, match="version"):
            load(path)

    def test_not_a_cache_file(self, tmp_path):
        path = tmp_path / "t.ekc"
        path.write_text("not a cache\n")
        with pytest.raises(CacheFormatError):
            load(path)

    def test_perturbed_value_is_checksum_error(self, ctx101, tmp_path):
        table = precompute(ctx101, FunctionTag.S_PAIR)
        path = tmp_path / "t.ekc"
        save(table, path)
        lines = path.read_text().splitlines()
        k, v = lines[5].split()
        lines[5] = f"{k} {float(v) + 1e-6:.18e}"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ChecksumMismatchError):
            load(path)

    def test_load_enforces_checksum_tolerance(self, ctx101, tmp_path,
                                              monkeypatch):
        path = save(precompute(ctx101, FunctionTag.S_PAIR), tmp_path / "t.ekc")
        monkeypatch.setattr(ValueTable, "checksum_residual",
                            lambda self: checksum_tolerance(self))
        load(path)
        monkeypatch.setattr(
            ValueTable, "checksum_residual",
            lambda self: float(np.nextafter(checksum_tolerance(self), np.inf)))
        with pytest.raises(ChecksumMismatchError):
            load(path)

    def test_failed_save_keeps_old_file(self, ctx101, tmp_path):
        path = tmp_path / "t.ekc"
        save(precompute(ctx101, FunctionTag.S_PAIR), path)
        before = path.read_bytes()
        good = precompute(ctx101, FunctionTag.S_PAIR, (0, 40))
        values = good.values.astype(object)
        values[30] = "not a number"  # formatting fails on row 30
        bad = ValueTable(q=101, g=good.g, function_tag=FunctionTag.S_PAIR,
                         k_lo=0, k_hi=40, values=values)
        with pytest.raises(ValueError):
            save(bad, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["t.ekc"]

    def test_truncated_file(self, ctx5, tmp_path):
        table = precompute(ctx5, FunctionTag.LOGGAMMA)
        path = tmp_path / "t.ekc"
        save(table, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CacheFormatError):
            load(path)

    def test_chunked_round_trip_and_merge(self, ctx101, tmp_path):
        paths = []
        for k0, k1 in ((0, 20), (20, 50)):
            t = precompute(ctx101, FunctionTag.S_PAIR, (k0, k1))
            p = tmp_path / part_filename(FunctionTag.S_PAIR, 101, k0)
            save(t, p)
            paths.append(p)
        merged = merge([load(p) for p in paths])
        direct = precompute(ctx101, FunctionTag.S_PAIR, (0, 50))
        assert np.allclose(merged.values, direct.values, rtol=1e-15, atol=0)
