"""Value-table persistence: precompute, merge, save/load, checksums."""

import dataclasses
import math
import re
import struct
import types

import numpy as np
import pytest

from ekconst import cache, cli, specfun
from ekconst.ek import compute_ek
from ekconst.cache import (CacheFormatError, ChecksumMismatchError,
                           FunctionTag, MergeError, ValueTable, _FSUM_BELOW,
                           _SUM_SLICE, _exact_sum,
                           check_closed_form, checksum_tolerance,
                           closed_form_sum, find, load,
                           part_filename, precompute, save)
from ekconst.multgroup import build_context, residues


@pytest.fixture(scope="module")
def ctx5():
    return build_context(5)


@pytest.fixture(scope="module")
def ctx101():
    return build_context(101)


class TestPrecompute:
    def test_loggamma_q5_ordering(self, ctx5):
        table = precompute(ctx5, FunctionTag.LOGGAMMA, (0, 4))
        want = specfun.log_gamma_values(np.array([1, 2, 4, 3]) / 5)
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
            direct = math.fsum(specfun.log_gamma_values(np.arange(1, q) / q))
            assert direct == pytest.approx(
                closed_form_sum(q, FunctionTag.LOGGAMMA), abs=1e-11)

    def test_psi_closed_form(self, ctx101):
        table = precompute(ctx101, FunctionTag.PSI)
        assert table.checksum_residual() <= 1e-9

    def test_s_pair_points_are_folded_in_integers(self, ctx101):
        table = precompute(ctx101, FunctionTag.S_PAIR)
        a = residues(ctx101, 0, 50)
        want = specfun.s_pair_values(np.minimum(a, 101 - a) / 101)
        assert np.array_equal(table.values, want)

    def test_full_range_tables_pass_the_closed_form_gate(self, ctx101,
                                                         tmp_path,
                                                         monkeypatch):
        # precompute only evaluates; the gate runs where a full-range table
        # is written (save) and where it is used (compute_ek)
        real = specfun.s_pair_values

        def off_at_one_point(x):
            values = real(x)
            values[7] += 1e-9
            return values

        monkeypatch.setattr(specfun, "s_pair_values", off_at_one_point)
        save(precompute(ctx101, FunctionTag.S_PAIR, (0, 49)),  # not full
             tmp_path / "part.ekc")
        table = precompute(ctx101, FunctionTag.S_PAIR)
        match = (r"S_PAIR table for q=101: full-range checksum residual "
                 r"1\.0\d*e-09 exceeds 1\.000e-11")
        with pytest.raises(ChecksumMismatchError, match=match):
            save(table, tmp_path / "full.ekc")
        with pytest.raises(ChecksumMismatchError, match=match):
            compute_ek(ctx101, {FunctionTag.S_PAIR: table}.get)
        assert [p.name for p in tmp_path.iterdir()] == ["part.ekc"]

    def test_nan_partial_sum_fails_the_closed_form_gate(self, ctx101):
        # a NaN residual compares false against any tolerance
        table = dataclasses.replace(precompute(ctx101, FunctionTag.S_PAIR),
                                    partial_sum=math.nan)
        with pytest.raises(ChecksumMismatchError, match="nan exceeds"):
            check_closed_form(table)

    def test_determinism(self, ctx101):
        t1 = precompute(ctx101, FunctionTag.S_PAIR)
        t2 = precompute(ctx101, FunctionTag.S_PAIR)
        assert np.array_equal(t1.values, t2.values)
        assert t1.partial_sum == t2.partial_sum

    def test_records_the_target(self, ctx5, tmp_path, monkeypatch):
        # save writes the fixed target, and the checksum tolerance scales
        # with it
        table = precompute(ctx5, FunctionTag.T)
        assert checksum_tolerance(table) == 10 * 4 * 1e-14
        assert b" target=1e-14\n" in save(table, tmp_path / "a").read_bytes()
        monkeypatch.setattr(specfun, "TARGET_ABS_ERROR", 2.5e-13)
        assert checksum_tolerance(table) == 10 * 4 * 2.5e-13
        assert b" target=2.5e-13\n" in save(table,
                                             tmp_path / "b").read_bytes()

    def test_range_validation(self, ctx5):
        with pytest.raises(ValueError):
            precompute(ctx5, FunctionTag.S_PAIR, (0, 3))  # beyond (q-1)/2


def _find_saved(tmp_path, parts):
    """find over the parts, each saved under its part_filename."""
    for t in parts:
        save(t, tmp_path / part_filename(t.function_tag, t.q, t.k_lo))
    return find(tmp_path, parts[0].q, parts[0].function_tag)[0]


class TestMerge:
    def test_equals_whole(self, ctx5, tmp_path):
        whole = precompute(ctx5, FunctionTag.LOGGAMMA)
        parts = [precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2)),
                 precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4))]
        merged = _find_saved(tmp_path, parts)
        assert np.array_equal(merged.values, whole.values)
        assert merged.partial_sum == whole.partial_sum
        assert merged.is_full_range

    def test_gap(self, ctx5, tmp_path):
        parts = [precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2)),
                 precompute(ctx5, FunctionTag.LOGGAMMA, (3, 4))]
        with pytest.raises(MergeError, match="gap at k=2 between .*/"
                                             "LOGGAMMA_q5_part0.ekc and .*/"
                                             "LOGGAMMA_q5_part3.ekc$"):
            _find_saved(tmp_path, parts)

    def test_overlap(self, ctx5, tmp_path):
        parts = [precompute(ctx5, FunctionTag.LOGGAMMA, (0, 3)),
                 precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4))]
        with pytest.raises(MergeError, match="overlap at k=2 between .*/"
                                             "LOGGAMMA_q5_part0.ekc and .*/"
                                             "LOGGAMMA_q5_part2.ekc$"):
            _find_saved(tmp_path, parts)

    def test_mismatch(self, ctx5, tmp_path):
        a = precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2))
        b = precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4))
        bad = dataclasses.replace(b, g=b.g + 1)
        with pytest.raises(MergeError, match="g mismatch"):
            _find_saved(tmp_path, [a, bad])

    def test_parts_are_ordered_by_k0_not_by_name(self, ctx101, tmp_path):
        # part8 sorts after part30 as a string
        parts = [precompute(ctx101, FunctionTag.T, r)
                 for r in ((0, 8), (8, 30), (30, 100))]
        merged = _find_saved(tmp_path, parts)
        assert merged.values.tobytes() == precompute(
            ctx101, FunctionTag.T).values.tobytes()
        assert [p.name for p in find(tmp_path, 101, FunctionTag.T)[1]] == [
            "T_q101_part0.ekc", "T_q101_part8.ekc", "T_q101_part30.ekc"]

    @pytest.mark.parametrize("name", ["T_q101_part20.ekc", "T_q101_part00.ekc",
                                      "T_q101_part+0.ekc"])
    def test_a_part_whose_name_gives_another_k0_is_refused(
            self, ctx101, tmp_path, name):
        save(precompute(ctx101, FunctionTag.T, (0, 20)), tmp_path / name)
        with pytest.raises(MergeError, match=re.escape(
                f"{name}: holds the T table for q=101 over [0,20)")):
            find(tmp_path, 101, FunctionTag.T)

    def test_a_name_without_an_integer_k0_is_refused(self, tmp_path):
        (tmp_path / "T_q101_partX.ekc").touch()
        with pytest.raises(MergeError, match="no k0 in the name"):
            find(tmp_path, 101, FunctionTag.T)

    @pytest.mark.parametrize("parts, why", [
        ([(0, 0, 2, 0), (3, 3, 4, 0)], "gap at k=2"),
        ([(0, 0, 3, 0), (2, 2, 4, 0)], "overlap at k=2"),
        ([(0, 0, 2, 0), (2, 2, 4, 1)], "g mismatch"),
        ([(1, 0, 2, 0)], "holds the LOGGAMMA table for q=5 over [0,2)")],
        ids=["gap", "overlap", "g_mismatch", "misnamed"])
    def test_layout_faults_are_refused_before_any_body_is_read(
            self, ctx5, tmp_path, monkeypatch, parts, why):
        # each part is (k0 in its name, k_lo, k_hi, added to g)
        for name_k0, k_lo, k_hi, g_step in parts:
            table = precompute(ctx5, FunctionTag.LOGGAMMA, (k_lo, k_hi))
            save(dataclasses.replace(table, g=table.g + g_step),
                 tmp_path / part_filename(FunctionTag.LOGGAMMA, 5, name_k0))

        def no_body(path):
            raise AssertionError(f"{path}: body read")

        monkeypatch.setattr(cache, "load", no_body)
        with pytest.raises(MergeError, match=re.escape(why)):
            find(tmp_path, 5, FunctionTag.LOGGAMMA)

    def test_find_holds_one_table_and_one_part(self, tmp_path, traced_peak):
        # random values: a part that is not the full range is not gated
        n, q = 1_000_002, 1000003
        values = np.random.default_rng(3).standard_normal(n)
        for lo, hi in ((0, n // 2), (n // 2, n)):
            save(ValueTable(q=q, g=2, function_tag=FunctionTag.T, k_lo=lo,
                            k_hi=hi, values=values[lo:hi],
                            partial_sum=_exact_sum(values[lo:hi])),
                 tmp_path / part_filename(FunctionTag.T, q, lo))
        (table, _), peak = traced_peak(find, tmp_path, q, FunctionTag.T)
        assert table.values.tobytes() == values.tobytes()
        # the parts and their concatenation would take 2 table sizes
        assert peak < 1.75 * values.nbytes

    def test_mixed_targets_are_refused(self, ctx5, tmp_path, monkeypatch):
        # a chunk of another target cannot be loaded, so find never lays
        # it into a table
        a = save(precompute(ctx5, FunctionTag.LOGGAMMA, (0, 2)),
                 tmp_path / part_filename(FunctionTag.LOGGAMMA, 5, 0))
        with monkeypatch.context() as m:
            m.setattr(specfun, "TARGET_ABS_ERROR", 1e-12)
            b = save(precompute(ctx5, FunctionTag.LOGGAMMA, (2, 4)),
                     tmp_path / part_filename(FunctionTag.LOGGAMMA, 5, 2))
        assert sorted(tmp_path.iterdir()) == [a, b]
        with pytest.raises(CacheFormatError, match="target 1e-12"):
            find(tmp_path, 5, FunctionTag.LOGGAMMA)


class TestExactSum:
    @pytest.mark.parametrize("n", [
        0, 1, 4095, 4096, 4097, 200000, _FSUM_BELOW - 1, _FSUM_BELOW,
        _SUM_SLICE - 1, _SUM_SLICE, _SUM_SLICE + 1, 3 * _SUM_SLICE + 1])
    def test_equals_fsum_of_a_list(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
        assert _exact_sum(values) == math.fsum(values.tolist())

    @pytest.mark.parametrize("n, fsum_calls", [(_FSUM_BELOW - 1, 1),
                                               (_FSUM_BELOW, 0)])
    def test_fsum_adds_only_short_arrays(self, n, fsum_calls, monkeypatch):
        calls = []

        def fsum(values):
            calls.append(len(values))
            return math.fsum(values)

        # the cache module's view of math, with a counting fsum
        monkeypatch.setattr(cache, "math", types.SimpleNamespace(
            **{**vars(math), "fsum": fsum}))
        values = np.random.default_rng(n).standard_normal(n)
        total = _exact_sum(values)
        assert len(calls) == fsum_calls
        assert total == math.fsum(values.tolist())

    def test_builds_no_list_of_all_values(self, traced_peak):
        values = np.random.default_rng(1).standard_normal(200_000)
        _, peak = traced_peak(_exact_sum, values)
        # a list of 200000 floats alone takes 6.4 MB
        assert peak < 1_000_000


def _header_len(data: bytes) -> int:
    return data.index(b"\n") + 1


class TestSaveLoad:
    def test_save_copies_no_values(self, tmp_path, traced_peak):
        values = np.random.default_rng(2).standard_normal(200_000)
        table = ValueTable(q=400009, g=2, function_tag=FunctionTag.T,
                           k_lo=0, k_hi=len(values), values=values,
                           partial_sum=_exact_sum(values))
        _, peak = traced_peak(save, table, tmp_path / "t.ekc")
        # one copy of the values as bytes takes 1.6 MB
        assert peak < 1_000_000
        back = load(tmp_path / "t.ekc")
        assert back.values.tobytes() == values.tobytes()

    def test_round_trip(self, ctx101, tmp_path):
        table = precompute(ctx101, FunctionTag.S_PAIR)
        path = tmp_path / part_filename(FunctionTag.S_PAIR, 101, 0)
        assert save(table, path) == path
        assert list(tmp_path.iterdir()) == [path]  # no temporary file left
        back = load(path)
        for attr in ("q", "g", "function_tag", "k_lo", "k_hi",
                     "partial_sum"):
            assert getattr(back, attr) == getattr(table, attr)
        assert back.values.tobytes() == table.values.tobytes()
        data = path.read_bytes()
        assert data.startswith(
            b"EKCACHE 2 q=101 g=2 tag=S_PAIR k0=0 k1=50 target=1e-14\n")
        assert data.endswith(
            f"SUM {table.partial_sum:.18e} COUNT 50\n".encode())
        body = data[_header_len(data):_header_len(data) + 8 * 50]
        assert body == table.values.astype("<f8").tobytes()

    def test_merge_out_into_a_missing_directory_names_the_path_given(
            self, ctx101, tmp_path, capsys):
        # save writes a temporary sibling first; the error must still name
        # the path asked for
        part = tmp_path / part_filename(FunctionTag.T, 101, 0)
        save(precompute(ctx101, FunctionTag.T), part)
        out = tmp_path / "missing" / "T.ekc"
        assert cli.main(["merge", "101", "--tag", "T", "--cache",
                         str(tmp_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert list(tmp_path.iterdir()) == [part]

    def test_round_trip_refuses_a_foreign_target(self, ctx5, tmp_path,
                                                 monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(specfun, "TARGET_ABS_ERROR", 2.5e-13)
            path = save(precompute(ctx5, FunctionTag.T), tmp_path / "t.ekc")
            load(path)
        with pytest.raises(CacheFormatError,
                           match=r"target 2\.5e-13, not 1e-14; remove it and "
                                 r"re-run `ek precompute`"):
            load(path)

    def test_flipped_tag_is_format_error(self, ctx5, tmp_path):
        table = precompute(ctx5, FunctionTag.LOGGAMMA)
        path = tmp_path / "t.ekc"
        save(table, path)
        data = path.read_bytes().replace(b"tag=LOGGAMMA", b"tag=LOGGAMMA2")
        path.write_bytes(data)
        with pytest.raises(CacheFormatError):
            load(path)

    def test_wrong_version_is_format_error(self, tmp_path):
        # a version-1 (text body) file is refused
        path = tmp_path / "t.ekc"
        path.write_text(
            "EKCACHE 1 q=5 g=2 tag=LOGGAMMA k0=0 k1=2 digits=19\n"
            "0 1.000000000000000000e+00\n"
            "1 2.000000000000000000e+00\n"
            "SUM 3.000000000000000000e+00 COUNT 2\n")
        with pytest.raises(CacheFormatError,
                           match="version 1 .*remove it and re-run `ek precompute`"):
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
        data = bytearray(path.read_bytes())
        at = _header_len(data) + 8 * 5
        data[at:at + 8] = struct.pack("<d", table.values[5] + 1e-6)
        path.write_bytes(data)
        with pytest.raises(ChecksumMismatchError, match="SUM trailer"):
            load(path)

    def test_one_ulp_is_a_checksum_error(self, ctx101, tmp_path):
        # the values are stored exactly, so the trailer is matched exactly:
        # a change that moves the exactly rounded sum by one ulp is refused
        table = precompute(ctx101, FunctionTag.S_PAIR, (0, 10))
        values = table.values.copy()
        values[3] += np.spacing(table.partial_sum)
        bad = dataclasses.replace(table, values=values)
        with pytest.raises(ChecksumMismatchError, match="SUM trailer"):
            load(save(bad, tmp_path / "t.ekc"))

    def test_save_enforces_checksum_tolerance(self, ctx101, tmp_path,
                                              monkeypatch):
        table = precompute(ctx101, FunctionTag.S_PAIR)
        monkeypatch.setattr(ValueTable, "checksum_residual",
                            lambda self: checksum_tolerance(self))
        path = save(table, tmp_path / "t.ekc")
        monkeypatch.setattr(
            ValueTable, "checksum_residual",
            lambda self: float(np.nextafter(checksum_tolerance(self), np.inf)))
        with pytest.raises(ChecksumMismatchError):
            save(table, tmp_path / "u.ekc")
        assert list(tmp_path.iterdir()) == [path]  # nothing was opened
        # load checks the format, the target and the SUM only; the closed
        # form is left to whoever uses the table
        load(path)

    def test_failed_save_keeps_old_file(self, ctx101, tmp_path):
        path = tmp_path / "t.ekc"
        save(precompute(ctx101, FunctionTag.S_PAIR), path)
        before = path.read_bytes()
        good = precompute(ctx101, FunctionTag.S_PAIR, (0, 40))
        values = good.values.astype(object)
        values[30] = "not a number"  # fails after the header is written
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
        data = path.read_bytes()
        head = _header_len(data)
        for cut in (1, 10, len(data) - head - 1, len(data) - head + 3,
                    len(data) - head + 8, len(data) - 2):
            path.write_bytes(data[:len(data) - cut])
            with pytest.raises(CacheFormatError):
                load(path)

    @pytest.mark.parametrize("extra", [b"\n", b"\x00", b"SUM 0 COUNT 4\n"])
    def test_trailing_bytes(self, ctx5, tmp_path, extra):
        path = save(precompute(ctx5, FunctionTag.LOGGAMMA), tmp_path / "t.ekc")
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(CacheFormatError):
            load(path)

    @pytest.mark.parametrize("old,new", [
        (b"tag=LOGGAMMA", b"tag=LOG\xffGAMMA"),
        (b"EKCACHE", b"EK\xc3CACHE"),
        (b" 2 q=", b" \xff q="),
    ])
    def test_non_utf8_header_is_format_error(self, ctx5, tmp_path, old, new):
        path = save(precompute(ctx5, FunctionTag.LOGGAMMA), tmp_path / "t.ekc")
        path.write_bytes(path.read_bytes().replace(old, new, 1))
        with pytest.raises(CacheFormatError):
            load(path)

    @pytest.mark.parametrize("old,new", [
        (b"COUNT 4", b"COUNT 3"), (b"SUM ", b"SUN "), (b"SUM ", b"SUM x"),
        (b"SUM ", b"SUM \xff"),
    ])
    def test_bad_trailer_is_format_error(self, ctx5, tmp_path, old, new):
        path = save(precompute(ctx5, FunctionTag.LOGGAMMA), tmp_path / "t.ekc")
        data = path.read_bytes()
        trailer = data.rindex(b"SUM ")
        path.write_bytes(data[:trailer] + data[trailer:].replace(old, new))
        with pytest.raises(CacheFormatError):
            load(path)

    def test_header_range_outside_the_table_is_format_error(self, ctx5,
                                                            tmp_path):
        path = save(precompute(ctx5, FunctionTag.S_PAIR), tmp_path / "t.ekc")
        path.write_bytes(path.read_bytes().replace(b"k0=0 k1=2", b"k0=2 k1=4"))
        with pytest.raises(CacheFormatError, match="k-range"):
            load(path)

    @pytest.mark.parametrize("target", [b"nan", b"inf", b"0.0", b"-1e-14",
                                        b"1e-12"])
    def test_target_not_positive_and_finite_is_format_error(self, ctx5,
                                                              tmp_path, target):
        path = save(precompute(ctx5, FunctionTag.S_PAIR), tmp_path / "t.ekc")
        path.write_bytes(path.read_bytes().replace(b"target=1e-14",
                                                   b"target=" + target))
        with pytest.raises(CacheFormatError, match="target"):
            load(path)

    def test_huge_header_range_is_refused_before_allocating(self, ctx5,
                                                            tmp_path):
        path = save(precompute(ctx5, FunctionTag.S_PAIR), tmp_path / "t.ekc")
        path.write_bytes(path.read_bytes().replace(
            b"q=5 g=2 tag=S_PAIR k0=0 k1=2",
            b"q=1000000000039 g=2 tag=S_PAIR k0=0 k1=400000000000"))
        with pytest.raises(CacheFormatError, match="do not hold"):
            load(path)

    def test_chunked_round_trip_and_merge(self, ctx101, tmp_path):
        paths = []
        for k0, k1 in ((0, 20), (20, 50)):
            t = precompute(ctx101, FunctionTag.S_PAIR, (k0, k1))
            p = tmp_path / part_filename(FunctionTag.S_PAIR, 101, k0)
            save(t, p)
            paths.append(p)
        for other in (part_filename(FunctionTag.T, 101, 0),
                      part_filename(FunctionTag.S_PAIR, 1013, 0)):
            (tmp_path / other).touch()
        merged, found = find(tmp_path, 101, FunctionTag.S_PAIR)
        assert found == paths
        direct = precompute(ctx101, FunctionTag.S_PAIR, (0, 50))
        assert np.array_equal(merged.values, direct.values)
        assert merged.partial_sum == direct.partial_sum
