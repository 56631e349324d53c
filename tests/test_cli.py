"""Command-line surface: formats, exit codes, determinism."""

import concurrent.futures
import dataclasses
import math
import os
import subprocess
import sys
import weakref

import numpy as np
import pytest

import ekconst
from ekconst import cli, ek, specfun
from ekconst.cache import (FunctionTag, checksum_tolerance, full_range, load,
                           precompute, save)
from ekconst.fft import UnitRoots
from ekconst.multgroup import build_context, factorize
from ekconst.offsets import greedy_offsets, v_of_q
from ekconst.specfun import gamma_n
from reference_values import EK

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(script: str, timeout: float) -> subprocess.CompletedProcess:
    """script in a new interpreter that imports this ekconst."""
    src = os.path.dirname(os.path.dirname(ekconst.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=timeout)


def run_fresh_cli(argv, timeout: float) -> subprocess.CompletedProcess:
    """cli.main(argv) in a new interpreter, which then writes its own peak
    RSS (ru_maxrss, in KiB) as the last word of its stderr."""
    script = ("import resource, sys\n"
              "from ekconst import cli\n"
              f"code = cli.main({[str(a) for a in argv]!r})\n"
              "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,"
              " file=sys.stderr)\n"
              "sys.exit(code)\n")
    return run_fresh(script, timeout)


@pytest.fixture
def s_pair_off_at_one_point(monkeypatch):
    """S_PAIR evaluation with 1e-9 added to the 8th value of every call, so
    a full-range table fails its closed form by about 1e-9."""
    real = cli.cache_mod.specfun.s_pair_values

    def off_at_one_point(x):
        values = real(x)
        values[7] += 1e-9
        return values

    monkeypatch.setattr(cli.cache_mod.specfun, "s_pair_values",
                        off_at_one_point)


class TestCompute:
    def test_q3(self, capsys):
        code, out, _ = run(capsys, "compute", "3")
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("ek ="))
        assert float(line.split("=")[1]) == pytest.approx(EK[3], abs=1e-12)

    def test_rejects_composite(self, capsys):
        code, _, err = run(capsys, "compute", "9")
        assert code == 2
        assert "not an odd prime" in err

    def test_rejects_two(self, capsys):
        code, _, _ = run(capsys, "compute", "2")
        assert code == 2

    def test_in_memory_table_must_pass_its_checksum(self, capsys,
                                                     s_pair_off_at_one_point):
        code, out, err = run(capsys, "compute", "101")
        assert code == 1 and out == ""
        assert ("error: S_PAIR table for q=101: full-range checksum "
                "residual 1.000e-09 exceeds 1.000e-11") in err

    @pytest.mark.extended
    def test_ten_million_under_two_gb(self):
        # a fresh process, so the peak RSS it reports is this run's alone.
        # The bound is that peak as measured (193 MB on 2 cores, numpy
        # 2.4.6) plus 10%; with each table beside its packed copy, the S
        # pair values beside u and y, the split's output beside its input
        # and an m-length array of ratios per half it peaked at 269 MB,
        # with scipy.special imported for log Gamma and the split holding
        # its input, padded rows and output at once at 363 MB, with an
        # m-length denominator beside each half's ratios at 400 MB, with a
        # separate Bernoulli transform and an m-length twiddle held for
        # the run at 444 MB, with the
        # split's twiddle in row blocks at 475 MB, with two transforms per
        # table, one per parity, at 553 MB, with pocketfft's Bluestein over
        # each whole transform at 601 MB, and with an int64 array of all
        # q-1 residues held for the run at 683 MB
        proc = run_fresh_cli(["compute", 10000019], timeout=1800)
        assert proc.returncode == 0, proc.stderr
        assert "q = 10000019" in proc.stdout
        peak_kb = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB
        assert peak_kb < 212 * 2**10, peak_kb

    @pytest.mark.extended
    def test_ten_million_with_a_prime_half_length(self):
        # q = 10000223, whose m = 5000111 is prime, so pocketfft runs each
        # transform whole, by its own Bluestein, whose buffers set the
        # peak.  A fresh process; the bound is its peak as measured (795 MB
        # on 2 cores, numpy 2.4.6) plus 10%; with scipy.special imported
        # and each transform out of its input's buffer it peaked at 894 MB,
        # with a separate Bernoulli transform and an m-length twiddle at
        # 1009 MB
        proc = run_fresh_cli(["compute", 10000223], timeout=1800)
        assert proc.returncode == 0, proc.stderr
        assert "q = 10000223" in proc.stdout
        peak_kb = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB
        assert peak_kb < 874 * 2**10, peak_kb

    @pytest.mark.extended
    def test_hundred_million_in_sixteen_bytes_per_unit_of_q(self):
        # q = 100000007, m = 491*101833, method s.  A fresh process; the
        # bound is its peak as measured (1587 MB on 2 cores, numpy 2.4.6),
        # plus 10%: the route's two spectra of m complex values, 16 bytes
        # per unit of q, and the interpreter.  With each table beside its
        # packed copy, the S pair values beside u and y, the split's output
        # beside its input and an m-length array of ratios per half it
        # peaked at 2350 MB, 24 bytes per unit of q.  About 30 s
        proc = run_fresh_cli(["compute", 100000007], timeout=1800)
        assert proc.returncode == 0, proc.stderr
        assert "q = 100000007" in proc.stdout
        peak_kb = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB
        assert peak_kb < 1746 * 2**10, peak_kb

    def test_method_both_reports_discrepancy(self, capsys):
        code, out, _ = run(capsys, "compute", "101", "--method", "both")
        assert code == 0
        line = next(l for l in out.splitlines()
                    if l.startswith("method_discrepancy ="))
        assert float(line.split("=")[1]) <= 1e-10

    def test_mid_prime_both_methods(self, capsys):
        code, out, _ = run(capsys, "compute", "2003", "--method", "both")
        assert code == 0
        fields = dict(l.split(" = ") for l in out.splitlines() if " = " in l)
        assert float(fields["method_discrepancy"]) <= 1e-8
        assert float(fields["ek"]) == pytest.approx(5.7934213690793633,
                                                    abs=1e-9)

    def test_digit_count(self, capsys):
        _, out, _ = run(capsys, "compute", "3", "--digits", "8")
        line = next(l for l in out.splitlines() if l.startswith("ek ="))
        mantissa = line.split("=")[1].strip().split("e")[0]
        assert len(mantissa.replace("-", "").replace(".", "")) == 8

    @pytest.mark.parametrize("digits", ["0", "-3", "18"])
    def test_digits_outside_one_to_seventeen_are_usage_errors(self, capsys,
                                                              digits):
        code, out, err = run(capsys, "compute", "11", "--digits", digits)
        assert (code, out) == (2, "")
        assert "--digits" in err


class TestScan:
    def test_usage_error_on_bad_range(self, capsys):
        code, _, err = run(capsys, "scan", "5", "3")
        assert code == 2

    def test_header_and_content(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "scan", "3", "30", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == cli.CSV_HEADER
        qs = [int(row.split(",")[0]) for row in lines[1:]]
        assert qs == [3, 5, 7, 11, 13, 17, 19, 23, 29]
        ek3 = float(lines[1].split(",")[1])
        assert ek3 == pytest.approx(EK[3], abs=1e-12)
        assert lines[1].endswith(",")  # v_q column empty when not requested

    def test_thread_count_does_not_change_bytes(self, capsys, tmp_path):
        outs = []
        for threads in ([], ["--threads", "1"], ["--threads", "4"]):
            out = tmp_path / f"{len(outs)}.csv"
            assert run(capsys, "scan", "3", "60", "--out", str(out),
                       "--with-vq", *threads)[0] == 0
            outs.append(out.read_bytes())
        assert outs[1:] == outs[:1] * 2

    @pytest.mark.parametrize("threads", ["0", "-2"])
    def test_threads_below_one_are_usage_errors(self, capsys, threads):
        code, out, err = run(capsys, "scan", "3", "30", "--threads", threads)
        assert (code, out) == (2, "")
        assert "--threads must be at least 1" in err

    @pytest.mark.parametrize("cpus, workers", [(2, 2), (None, 1)])
    def test_threads_are_bounded_by_the_cpu_count(self, capsys, monkeypatch,
                                                  cpus, workers):
        # the pool starts a thread per submitted row while none is idle, so
        # an unbounded --threads would start one per prime
        seen = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers=None, *args, **kwargs):
                seen.append(max_workers)
                super().__init__(max_workers, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "scan", "3", "30", "--threads", "4096")
        assert code == 0 and seen == [workers]
        assert out == run(capsys, "scan", "3", "30")[1]

    def test_threads_is_a_scan_option_only(self, capsys):
        code, _, _ = run(capsys, "compute", "3", "--threads", "2")
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["precompute", "11", "--tag", "T"],
        ["merge", "11", "--tag", "T"],
        ["checksum", "11", "--tag", "T"],
        ["offsets", "5"],
    ])
    def test_digits_only_where_a_float_is_printed(self, capsys, tmp_path,
                                                  monkeypatch, argv):
        # each command would succeed without --digits
        monkeypatch.setenv("EK_CACHE_DIR", str(tmp_path))
        assert run(capsys, "precompute", "11", "--tag", "T")[0] == 0
        assert run(capsys, *argv)[0] == 0
        code, out, err = run(capsys, *argv, "--digits", "3")
        assert (code, out) == (2, "")
        assert "unrecognized arguments: --digits 3" in err

    def test_result_fields_name_the_compute_lines_and_csv_columns(
            self, capsys):
        _, out, _ = run(capsys, "compute", "11")
        names = [line.split(" = ")[0] for line in out.splitlines()]
        assert names == ["q", *cli.RESULT_FIELDS, "method"]
        assert cli.CSV_HEADER.split(",") == ["q", *cli.RESULT_FIELDS, "v_q"]
        assert cli.CSV_HEADER == ("q,ek,ek_plus,ek_diff,mq,mq_odd,mq_even,"
                                  "ek_norm,ek_plus_norm,mq_norm,v_q")

    def test_with_vq_column(self, capsys, tmp_path):
        out_path = tmp_path / "rows.csv"
        run(capsys, "scan", "3", "8", "--out", str(out_path), "--with-vq")
        rows = out_path.read_text().splitlines()[1:]
        seq = greedy_offsets(2089)
        for row in rows:
            cells = row.split(",")
            assert float(cells[-1]) == pytest.approx(
                v_of_q(int(cells[0]), seq), abs=1e-9)

    def test_each_v_q_cell_is_what_ek_vq_prints(self, capsys):
        code, out, _ = run(capsys, "scan", "1000", "1100", "--with-vq",
                           "--threads", "2")
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 16
        for row in rows:
            assert run(capsys, "vq", row[0]) == (0, row[-1] + "\n", "")

    @pytest.mark.parametrize("name, options", [
        ("both", ["--method", "both"]),
        ("t", ["--method", "t", "--digits", "17"]),
    ])
    def test_scan_to_300_keeps_its_bytes(self, capsys, name, options):
        # tests/data holds what `ek scan 3 300` printed with these options
        # once each table's two parities came from one packed transform,
        # T and S(x)+S(1-x) summed every m >= 2 as one polynomial, the S
        # pair values shared a packed table with the Bernoulli input, the
        # unit roots came from two sqrt-size tables, and each half summed
        # its ratios per block, the block sums by math.fsum; a change in
        # the order of any float64 operation of the assembly shows here
        code, out, _ = run(capsys, "scan", "3", "300", *options)
        assert code == 0
        with open(os.path.join(DATA, f"scan_3_300_{name}.csv"), "rb") as f:
            assert out.encode() == f.read()

    @pytest.mark.parametrize("method", ["both", "t"])
    @pytest.mark.parametrize("q", [300007, 305741])
    def test_compute_past_one_block_keeps_its_bytes(self, capsys, q, method):
        # tests/data holds what `ek compute q --method M --digits 17`
        # printed once each parity's ratios came from one blockwise pass,
        # summed as they came, block by block.
        # Unlike those of `ek scan 3 300`, these m = 3^2*7*2381 (odd) and
        # 2*5*15287 (even) are split by dft, their unit roots are formed
        # per block, and each parity spans more than one block of bins
        m = (q - 1) // 2
        assert 300 < max(factorize(m)) < m
        assert UnitRoots(q - 1).whole is None and m // 2 > ek._BLOCK
        code, out, _ = run(capsys, "compute", str(q), "--method", method,
                           "--digits", "17")
        assert code == 0
        with open(os.path.join(DATA, f"compute_{q}_{method}.txt"),
                  "rb") as f:
            assert out.encode() == f.read()

    def test_method_t_scan_matches_method_s(self, capsys, tmp_path):
        a, b = tmp_path / "s.csv", tmp_path / "t.csv"
        run(capsys, "scan", "3", "40", "--out", str(a))
        run(capsys, "scan", "3", "40", "--out", str(b), "--method", "t")
        for row_s, row_t in zip(a.read_text().splitlines()[1:],
                                b.read_text().splitlines()[1:]):
            ek_s, ek_t = float(row_s.split(",")[1]), float(row_t.split(",")[1])
            assert ek_t == pytest.approx(ek_s, abs=1e-10)


class TestCacheCommands:
    @pytest.mark.extended
    def test_ten_million_psi_parts_merge_and_checksum(self, tmp_path):
        # each step in a fresh process, so that ru_maxrss is its own peak.
        # The bounds are the measured peaks of these steps (69, 144 and
        # 106 MB on 2 cores, numpy 2.4.6) plus 10%; a precompute that
        # imported scipy.special for psi peaked at 92 MB; a transient of the
        # whole 80 MB table, in a sum or a write, would exceed them, and
        # so would a merge that held both halves beside the table, or a
        # precompute that formed the residues or points of its whole range
        # (225 MB)
        q, hi, cache = 10000019, 10000018, str(tmp_path)
        steps = [(["precompute", q, "--tag", "PSI", "--range", 0, hi // 2,
                   "--cache", cache], 76),
                 (["precompute", q, "--tag", "PSI", "--range", hi // 2, hi,
                   "--cache", cache], 76),
                 (["merge", q, "--tag", "PSI", "--cache", cache], 159),
                 (["checksum", q, "--tag", "PSI", "--cache", cache], 117)]
        for argv, peak_mb in steps:
            proc = run_fresh_cli(argv, timeout=600)
            assert proc.returncode == 0, (argv, proc.stderr)
            peak_kb = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB
            assert peak_kb < peak_mb * 2**10, (argv, peak_kb)
        assert [p.name for p in tmp_path.iterdir()] == [
            "PSI_q10000019_part0.ekc"]
        assert proc.stdout.startswith("residual = ")

    @pytest.mark.extended
    def test_ten_million_both_methods_from_a_full_cache(self, tmp_path):
        # the four tables on disk, then a fresh ek compute whose ru_maxrss
        # is its own peak.  The bound is that peak as measured (261 MB
        # on 2 cores, numpy 2.4.6) plus 10%: the T spectrum, then the PSI
        # table as loaded beside the transform buffer it is copied into.
        # With each table beside its packed copy, the split's output beside
        # its input and an m-length array of ratios per half it peaked at
        # 268 MB, the split holding its input,
        # padded rows and output at once peaked at 339 MB, an m-length
        # denominator beside each half's ratios at 376 MB, a separate Bernoulli
        # transform and an m-length twiddle at 457 MB, the split's twiddle in
        # row blocks at 489 MB, two transforms per table at 605 MB,
        # pocketfft's Bluestein over each whole transform at 654 MB,
        # loading every table up front at 856 MB, and holding all q-1
        # residues for the run at 742 MB
        q, cache = 10000019, str(tmp_path)
        for tag in FunctionTag:
            proc = run_fresh_cli(["precompute", q, "--tag", tag.value,
                                  "--cache", cache], timeout=600)
            assert proc.returncode == 0, (tag, proc.stderr)
        proc = run_fresh_cli(["compute", q, "--method", "both",
                              "--cache", cache], timeout=1800)
        assert proc.returncode == 0, proc.stderr
        assert "method_discrepancy = " in proc.stdout
        peak_kb = int(proc.stderr.split()[-1])  # ru_maxrss is in KiB
        assert peak_kb < 287 * 2**10, peak_kb

    def test_precompute_merge_checksum_flow(self, capsys, tmp_path):
        cache = str(tmp_path)
        code, out, _ = run(capsys, "precompute", "101", "--tag", "S_PAIR",
                           "--range", "0", "20", "--cache", cache)
        assert code == 0
        code, _, _ = run(capsys, "precompute", "101", "--tag", "S_PAIR",
                         "--range", "20", "50", "--cache", cache)
        assert code == 0
        code, out, _ = run(capsys, "merge", "101", "--tag", "S_PAIR",
                           "--cache", cache,
                           "--out", str(tmp_path / "merged.ekc"))
        assert code == 0
        header = (tmp_path / "merged.ekc").read_bytes().split(b"\n")[0]
        assert header.startswith(b"EKCACHE 2 q=101")
        assert b"k0=0 k1=50" in header

    @pytest.mark.parametrize("k0, k1", [("0", "0"), ("20", "20"),
                                        ("30", "20")])
    def test_empty_range_is_a_usage_error(self, capsys, tmp_path, k0, k1):
        # an empty part 0 would replace the full table part 0
        run(capsys, "precompute", "101", "--tag", "T", "--cache",
            str(tmp_path))
        part = tmp_path / "T_q101_part0.ekc"
        before = part.read_bytes()
        code, out, err = run(capsys, "precompute", "101", "--tag", "T",
                             "--range", k0, k1, "--cache", str(tmp_path))
        assert (code, out) == (2, "")
        assert f"--range {k0} {k1} is empty" in err
        assert sorted(tmp_path.iterdir()) == [part]
        assert part.read_bytes() == before

    @pytest.mark.parametrize("first, held, second", [
        ([], "[0,100)", ["0", "30"]),
        (["--range", "20", "50"], "[20,50)", ["20", "40"]),
        (["--range", "20", "50"], "[20,50)", ["20", "100"])])
    def test_precompute_refuses_to_replace_a_part_of_another_range(
            self, capsys, tmp_path, first, held, second):
        cache = str(tmp_path)
        assert run(capsys, "precompute", "101", "--tag", "T", *first,
                   "--cache", cache)[0] == 0
        (part,) = tmp_path.iterdir()
        before = part.read_bytes()
        code, out, err = run(capsys, "precompute", "101", "--tag", "T",
                             "--range", *second, "--cache", cache)
        assert (code, out) == (1, "")
        assert (f"{part} holds {held}, not [{second[0]},{second[1]}); "
                f"remove it to replace it") in err
        assert list(tmp_path.iterdir()) == [part]
        assert part.read_bytes() == before

    @pytest.mark.parametrize("first, second", [(["0", "30"], ["20", "100"]),
                                               (["20", "100"], ["0", "30"]),
                                               (["20", "50"], ["0", "100"])])
    def test_precompute_refuses_a_part_overlapping_another(
            self, capsys, tmp_path, first, second):
        # the two parts have different names, so only their headers show
        # the overlap; written, it would fail every later read of the table
        cache = str(tmp_path)
        assert run(capsys, "precompute", "101", "--tag", "T", "--range",
                   *first, "--cache", cache)[0] == 0
        (part,) = tmp_path.iterdir()
        before = part.read_bytes()
        code, out, err = run(capsys, "precompute", "101", "--tag", "T",
                             "--range", *second, "--cache", cache)
        assert (code, out) == (1, "")
        new = tmp_path / f"T_q101_part{second[0]}.ekc"
        assert (f"{new} over [{second[0]},{second[1]}) would overlap {part}, "
                f"which holds [{first[0]},{first[1]}); remove it to replace "
                f"it") in err
        assert list(tmp_path.iterdir()) == [part]
        assert part.read_bytes() == before

    @pytest.mark.parametrize("k_range", [[], ["--range", "20", "50"]])
    def test_precompute_rerun_of_the_same_range_writes_the_same_bytes(
            self, capsys, tmp_path, k_range):
        argv = ["precompute", "101", "--tag", "T", *k_range,
                "--cache", str(tmp_path)]
        first = run(capsys, *argv)
        (part,) = tmp_path.iterdir()
        before = part.read_bytes()
        assert first == (0, f"{part}\n", "")
        assert run(capsys, *argv) == first
        assert list(tmp_path.iterdir()) == [part]
        assert part.read_bytes() == before

    def test_precompute_refuses_to_replace_an_unreadable_part(self, capsys,
                                                              tmp_path):
        part = tmp_path / "T_q101_part0.ekc"
        part.write_bytes(b"not a table\n")
        code, out, err = run(capsys, "precompute", "101", "--tag", "T",
                             "--cache", str(tmp_path))
        assert (code, out) == (1, "")
        assert f"{part}: not an EKCACHE file" in err
        assert list(tmp_path.iterdir()) == [part]
        assert part.read_bytes() == b"not a table\n"

    @pytest.mark.parametrize("layout, why", [
        ("unreadable", "not an EKCACHE file"),
        ("overlap", "overlap at k=40")])
    def test_precompute_refuses_a_directory_that_find_refuses(
            self, capsys, tmp_path, layout, why):
        # parts of other names than the one to write: a header that does
        # not read, or two parts that already overlap
        if layout == "overlap":
            for k_range in ((20, 50), (40, 100)):
                save(precompute(build_context(101), FunctionTag.T, k_range),
                     tmp_path / f"T_q101_part{k_range[0]}.ekc")
        else:
            (tmp_path / "T_q101_part50.ekc").write_bytes(b"not a table\n")
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        code, out, err = run(capsys, "precompute", "101", "--tag", "T",
                             "--range", "0", "10", "--cache", str(tmp_path))
        assert (code, out) == (1, "")
        assert why in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_precompute_refuses_a_stale_part_and_names_the_remedy(
            self, capsys, monkeypatch, tmp_path):
        argv = ["precompute", "101", "--tag", "T", "--cache", str(tmp_path)]
        with monkeypatch.context() as m:
            m.setattr(specfun, "TARGET_ABS_ERROR", 2.5e-13)
            assert run(capsys, *argv)[0] == 0
        (part,) = tmp_path.iterdir()
        stale = part.read_bytes()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert (f"{part}: evaluated to target 2.5e-13, not 1e-14; remove it "
                f"and re-run `ek precompute`") in err
        assert list(tmp_path.iterdir()) == [part]
        assert part.read_bytes() == stale
        # the remedy the message names works
        part.unlink()
        assert run(capsys, *argv) == (0, f"{part}\n", "")
        assert load(part).values.size == 100

    @pytest.mark.parametrize("out_name", ["T_q101_part0.ekc",
                                          "T_q101_part10.ekc",
                                          "T_q101_part99.ekc"])
    def test_merge_out_refuses_a_part_name_in_the_cache(self, capsys,
                                                        tmp_path, out_name):
        cache = tmp_path / "c"
        for k0, k1 in (("0", "10"), ("10", "100")):
            run(capsys, "precompute", "101", "--tag", "T", "--range", k0, k1,
                "--cache", str(cache))
        before = {p.name: p.read_bytes() for p in cache.iterdir()}
        (tmp_path / "link").symlink_to(cache)
        for out_path in (cache / out_name, tmp_path / "link" / out_name,
                         cache / ".." / "c" / out_name):
            code, out, err = run(capsys, "merge", "101", "--tag", "T",
                                 "--cache", str(cache), "--out",
                                 str(out_path))
            assert (code, out) == (2, "")
            assert (f"--out {out_path} would be read as a T part for q=101"
                    in err)
            assert {p.name: p.read_bytes()
                    for p in cache.iterdir()} == before

    @pytest.mark.parametrize("name, why", [
        ("T_q101_part0.ekc", "holds the T table for q=101 over [20,50)"),
        ("T_q101_partX.ekc", "no k0 in the name")])
    def test_a_part_under_a_name_that_disagrees_is_refused(
            self, capsys, tmp_path, name, why):
        cache = tmp_path / "c"
        cache.mkdir()
        path = save(precompute(build_context(101), FunctionTag.T, (20, 50)),
                    cache / name)
        before = path.read_bytes()
        merged = tmp_path / "merged.ekc"
        for argv in (["compute", "101", "--method", "t"],
                     ["merge", "101", "--tag", "T"],
                     ["merge", "101", "--tag", "T", "--out", str(merged)]):
            code, out, err = run(capsys, *argv, "--cache", str(cache))
            assert (code, out) == (1, "")
            assert f"{path}: {why}" in err
        assert list(cache.iterdir()) == [path]
        assert path.read_bytes() == before
        assert not merged.exists()

    def test_checksum_prints_the_tolerance_load_enforces(self, capsys,
                                                         tmp_path):
        run(capsys, "precompute", "101", "--tag", "S_PAIR",
            "--cache", str(tmp_path))
        code, out, _ = run(capsys, "checksum", "101", "--tag", "S_PAIR",
                           "--cache", str(tmp_path))
        assert code == 0
        table = load(tmp_path / "S_PAIR_q101_part0.ekc")
        assert out.strip().endswith(
            f"(tolerance {checksum_tolerance(table):.6e})")

    def test_checksum_full_table(self, capsys, tmp_path):
        cache = str(tmp_path)
        code, _, _ = run(capsys, "precompute", "101", "--tag", "S_PAIR",
                         "--cache", cache)
        assert code == 0
        code, out, _ = run(capsys, "checksum", "101", "--tag", "S_PAIR",
                           "--cache", cache)
        assert code == 0
        assert out.startswith("residual =")

    def test_compute_holds_a_cached_table_only_while_its_halves_run(
            self, capsys, tmp_path, monkeypatch):
        # each load is logged by its tag, and each transform by the tags
        # of the loaded tables whose values are still alive as it starts:
        # a packed table, S_PAIR packed with the Bernoulli input too, is
        # gone before its transform starts
        cache = str(tmp_path)
        for tag in FunctionTag:
            run(capsys, "precompute", "101", "--tag", tag.value,
                "--cache", cache)
        loaded, events = [], []
        real_load, real_dft = cli.cache_mod.load, cli.ek_mod.dft

        def tracking_load(path):
            table = real_load(path)
            loaded.append((table.function_tag.value,
                           weakref.ref(table.values)))
            events.append(table.function_tag.value)
            return table

        def tracking_dft(x):
            events.append(sorted(t for t, ref in loaded if ref() is not None))
            return real_dft(x)

        monkeypatch.setattr(cli.cache_mod, "load", tracking_load)
        monkeypatch.setattr(cli.ek_mod, "dft", tracking_dft)
        code, out, _ = run(capsys, "compute", "101", "--method", "both",
                           "--cache", cache)
        assert code == 0
        assert events == ["LOGGAMMA", [], "S_PAIR", [], "T", [], "PSI", []]
        assert out == run(capsys, "compute", "101", "--method", "both")[1]

    def test_default_merge_replaces_parts(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "precompute", "11", "--tag", "S_PAIR", "--range", "0", "2",
            "--cache", cache)
        run(capsys, "precompute", "11", "--tag", "S_PAIR", "--range", "2", "5",
            "--cache", cache)
        code, _, _ = run(capsys, "merge", "11", "--tag", "S_PAIR",
                         "--cache", cache)
        assert code == 0
        files = sorted(tmp_path.glob("S_PAIR_q11_part*.ekc"))
        assert [f.name for f in files] == ["S_PAIR_q11_part0.ekc"]
        # the merged cache now feeds compute directly
        code, out, _ = run(capsys, "compute", "11", "--cache", cache)
        assert code == 0

    def test_default_merge_keeps_parts_until_the_merged_file_verifies(
            self, capsys, tmp_path, monkeypatch):
        cache = str(tmp_path)
        for k0, k1 in (("0", "2"), ("2", "5")):
            run(capsys, "precompute", "11", "--tag", "S_PAIR",
                "--range", k0, k1, "--cache", cache)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_load = cli.cache_mod.load

        def load(path):
            if path.name not in before:
                raise cli.cache_mod.CacheFormatError(f"{path}: unreadable")
            return real_load(path)

        monkeypatch.setattr(cli.cache_mod, "load", load)
        code, _, err = run(capsys, "merge", "11", "--tag", "S_PAIR",
                           "--cache", cache)
        assert code == 1
        assert "unreadable" in err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_compute_rejects_corrupted_cache(self, capsys, tmp_path):
        cache = str(tmp_path)
        run(capsys, "precompute", "11", "--tag", "S_PAIR", "--cache", cache)
        path = tmp_path / "S_PAIR_q11_part0.ekc"
        data = path.read_bytes()
        head = data.index(b"\n") + 1
        values = np.frombuffer(data[head:head + 8 * 5], "<f8").copy()
        values[1] += 1e-5
        # keep the SUM trailer consistent so only the closed form can object
        path.write_bytes(
            data[:head] + values.tobytes()
            + f"SUM {math.fsum(values):.18e} COUNT 5\n".encode())
        code, _, err = run(capsys, "compute", "11", "--cache", cache)
        assert code == 1
        assert "residual" in err
        code, out, err = run(capsys, "checksum", "11", "--tag", "S_PAIR",
                             "--cache", cache)
        assert code == 1
        assert out.startswith("residual =") and "residual" in err

    @pytest.mark.parametrize("fix_sum", [False, True])
    def test_corrupted_chunk_fails_the_merge_then_compute_flow(
            self, capsys, tmp_path, fix_sum):
        # chunked precompute, then merge --out and compute from the merged
        # tables; one chunk has 1 added to its first value
        chunks, merged = tmp_path / "chunks", tmp_path / "merged"
        merged.mkdir()
        tags = [t.value for t in FunctionTag]
        for tag in tags:
            hi = full_range(101, FunctionTag(tag))[1]
            for k0, k1 in ((0, 10), (10, 30), (30, hi)):
                assert run(capsys, "precompute", "101", "--tag", tag, "--range",
                           str(k0), str(k1), "--cache", str(chunks))[0] == 0
        path = chunks / "S_PAIR_q101_part10.ekc"
        table = load(path)
        values = table.values.copy()
        values[0] += 1.0
        # with fix_sum the SUM trailer agrees, so only the closed form of
        # the merged table can object
        save(dataclasses.replace(
            table, values=values,
            partial_sum=math.fsum(values) if fix_sum else table.partial_sum),
            path)
        merges = [run(capsys, "merge", "101", "--tag", tag,
                      "--cache", str(chunks),
                      "--out", str(merged / f"{tag}_q101_part0.ekc"))
                  for tag in tags]
        compute = run(capsys, "compute", "101", "--method", "both",
                      "--cache", str(merged))
        # with fix_sum the merged S_PAIR table fails its closed form, so
        # merge writes no file either way
        assert [m[0] for m in merges] == [0, 1, 0, 0]
        assert ("S_PAIR table for q=101: full-range checksum residual"
                if fix_sum else "SUM trailer") in merges[1][2]
        assert not (merged / "S_PAIR_q101_part0.ekc").exists()
        # so compute evaluates that table itself
        assert compute[0] == 0

    def test_compute_refuses_a_foreign_target_cache(self, capsys, tmp_path,
                                                    monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(specfun, "TARGET_ABS_ERROR", 1e-12)
            save(precompute(build_context(11), FunctionTag.S_PAIR),
                 tmp_path / "S_PAIR_q11_part0.ekc")
        for argv in (["compute", "11"], ["checksum", "11", "--tag", "S_PAIR"]):
            code, out, err = run(capsys, *argv, "--cache", str(tmp_path))
            assert (code, out) == (1, "")
            assert "target 1e-12, not 1e-14" in err

    @pytest.mark.parametrize("target, t_ranges, why", [
        (1e-12, [(0, 100)], "target 1e-12, not 1e-14"),
        (1e-14, [(0, 20), (30, 100)], "gap at k=20")],
        ids=["stale_target", "gap"])
    def test_compute_refuses_a_t_header_fault_before_route_s_runs(
            self, capsys, tmp_path, monkeypatch, target, t_ranges, why):
        for tag in ("LOGGAMMA", "S_PAIR"):
            run(capsys, "precompute", "101", "--tag", tag,
                "--cache", str(tmp_path))
        with monkeypatch.context() as m:
            m.setattr(specfun, "TARGET_ABS_ERROR", target)
            for k_range in t_ranges:
                save(precompute(build_context(101), FunctionTag.T, k_range),
                     tmp_path / f"T_q101_part{k_range[0]}.ekc")
        transforms = []
        real_dft = cli.ek_mod.dft

        def dft(*args, **kwargs):
            transforms.append(len(args[0]))
            return real_dft(*args, **kwargs)

        monkeypatch.setattr(cli.ek_mod, "dft", dft)
        code, out, err = run(capsys, "compute", "101", "--method", "both",
                             "--cache", str(tmp_path))
        assert (code, out) == (1, "")
        assert why in err
        assert transforms == []

    @pytest.mark.parametrize("to_out", [False, True])
    def test_merge_refuses_a_foreign_target_chunk(self, capsys, tmp_path,
                                                  monkeypatch, to_out):
        cache = tmp_path / "c"
        run(capsys, "precompute", "11", "--tag", "S_PAIR", "--range", "0",
            "2", "--cache", str(cache))
        # precompute refuses to write next to a part of another target, so
        # the foreign chunk is saved directly
        with monkeypatch.context() as m:
            m.setattr(specfun, "TARGET_ABS_ERROR", 1e-12)
            save(precompute(build_context(11), FunctionTag.S_PAIR, (2, 5)),
                 cache / "S_PAIR_q11_part2.ekc")
        before = {p.name: p.read_bytes() for p in cache.iterdir()}
        assert len(before) == 2
        out_arg = ["--out", str(tmp_path / "merged.ekc")] if to_out else []
        code, out, err = run(capsys, "merge", "11", "--tag", "S_PAIR",
                             "--cache", str(cache), *out_arg)
        assert (code, out) == (1, "")
        assert "target 1e-12, not 1e-14" in err
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == before
        assert not (tmp_path / "merged.ekc").exists()

    @pytest.mark.parametrize("to_out", [False, True])
    def test_merge_refuses_a_table_failing_its_closed_form(
            self, capsys, tmp_path, to_out):
        cache = tmp_path / "c"
        for k0, k1 in (("0", "20"), ("20", "50")):
            run(capsys, "precompute", "101", "--tag", "S_PAIR",
                "--range", k0, k1, "--cache", str(cache))
        # one value off by 1, with a SUM trailer that agrees with it
        path = cache / "S_PAIR_q101_part20.ekc"
        table = load(path)
        values = table.values.copy()
        values[0] += 1.0
        save(dataclasses.replace(table, values=values,
                                 partial_sum=math.fsum(values)), path)
        before = {p.name: p.read_bytes() for p in cache.iterdir()}
        out_arg = ["--out", str(tmp_path / "merged.ekc")] if to_out else []
        code, out, err = run(capsys, "merge", "101", "--tag", "S_PAIR",
                             "--cache", str(cache), *out_arg)
        assert (code, out) == (1, "")
        assert "S_PAIR table for q=101: full-range checksum residual" in err
        assert {p.name: p.read_bytes() for p in cache.iterdir()} == before
        assert not (tmp_path / "merged.ekc").exists()

    def test_partial_cache_fails_checksum_and_compute_alike(self, capsys,
                                                            tmp_path):
        # the fault is in the data, so both exit 1 with compute_ek's wording
        run(capsys, "precompute", "101", "--tag", "S_PAIR", "--range", "0",
            "20", "--cache", str(tmp_path))
        for argv in (["checksum", "101", "--tag", "S_PAIR"],
                     ["compute", "101"]):
            code, out, err = run(capsys, *argv, "--cache", str(tmp_path))
            assert (code, out) == (1, "")
            assert ("error: S_PAIR table for q=101 does not cover the full "
                    "range") in err

    def test_table_of_another_tag_under_a_t_name_is_refused(self, capsys,
                                                            tmp_path):
        path = save(precompute(build_context(101), FunctionTag.PSI),
                    tmp_path / "T_q101_part0.ekc")
        before = path.read_bytes()
        for argv in (["compute", "101", "--method", "t"],
                     ["checksum", "101", "--tag", "T"]):
            code, out, err = run(capsys, *argv, "--cache", str(tmp_path))
            assert (code, out) == (1, "")
            assert "holds the PSI table for q=101" in err
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before

    def test_table_of_another_q_under_a_q101_name_is_refused(self, capsys,
                                                             tmp_path):
        cache = tmp_path / "c"
        cache.mkdir()
        path = save(precompute(build_context(103), FunctionTag.T),
                    cache / "T_q101_part0.ekc")
        before = path.read_bytes()
        merged = tmp_path / "merged.ekc"
        for argv in (["checksum", "101", "--tag", "T"],
                     ["merge", "101", "--tag", "T"],
                     ["merge", "101", "--tag", "T", "--out", str(merged)]):
            code, out, err = run(capsys, *argv, "--cache", str(cache))
            assert (code, out) == (1, "")
            assert "holds the T table for q=103" in err
        assert list(cache.iterdir()) == [path]
        assert path.read_bytes() == before
        assert not merged.exists()

    def test_checksum_of_an_evaluated_table_prints_then_fails(
            self, capsys, monkeypatch, s_pair_off_at_one_point):
        # no cache: the table is evaluated, and its residual is printed
        # before the gate refuses it, as for a cached table
        monkeypatch.delenv("EK_CACHE_DIR", raising=False)
        code, out, err = run(capsys, "checksum", "101", "--tag", "S_PAIR")
        assert code == 1
        assert out.startswith("residual = ") and out.endswith(
            " (tolerance 1.000000e-11)\n")
        assert float(out.split()[2]) == pytest.approx(1e-9, rel=1e-3)
        assert "S_PAIR table for q=101: full-range checksum residual" in err

    def test_env_var_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("EK_CACHE_DIR", str(tmp_path))
        code, out, _ = run(capsys, "precompute", "7", "--tag", "T")
        assert code == 0
        assert (tmp_path / "T_q7_part0.ekc").exists()


class TestSmallCommands:
    def test_gamma_n(self, capsys):
        code, out, _ = run(capsys, "gamma-n", "10")
        assert code == 0
        # printed with 15 significant digits
        assert float(out) == pytest.approx(gamma_n(10), rel=1e-13)

    def test_offsets(self, capsys):
        code, out, _ = run(capsys, "offsets", "3")
        assert code == 0
        assert out == "0\n2\n6\n"

    def test_vq(self, capsys):
        code, out, _ = run(capsys, "vq", "3")
        assert code == 0
        assert float(out) == pytest.approx(v_of_q(3), abs=1e-12)

    def test_stieltjes_csv(self, capsys):
        code, out, _ = run(capsys, "stieltjes", "3", "--kmax", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,a,value"
        assert len(lines) == 1 + 2 * 3

    def test_stieltjes_equals_per_cell_values(self, capsys, gammak_cells):
        # 17 significant digits round-trip a float64
        for q, k_max in ((100, 10), (7, 20), (97, 20)):
            code, out, _ = run(capsys, "stieltjes", str(q),
                               "--kmax", str(k_max), "--digits", "17")
            assert code == 0
            cells = iter(gammak_cells(q, k_max))
            want = ["k,a,value"] + [f"{k},{a},{next(cells):.16e}"
                                    for k in range(k_max + 1)
                                    for a in range(1, q + 1)]
            assert out.splitlines() == want, (q, k_max)

    def test_unknown_command(self, capsys):
        assert cli.main(["frobnicate"]) == 2

    def test_domain_violations_are_usage_errors(self, capsys, tmp_path):
        # the library's refusals, each exit 2
        cache = tmp_path / "c"
        for argv in (["gamma-n", "31"], ["gamma-n", "-1"], ["offsets", "0"],
                     ["stieltjes", "101"], ["stieltjes", "7", "--kmax", "21"],
                     ["vq", "2"], ["vq", "10000000000000000"],
                     ["scan", "18446744073709551557", "18446744073709551636"],
                     ["compute", "9"], ["checksum", "9", "--tag", "T"],
                     ["precompute", "9", "--tag", "T", "--cache", str(cache)],
                     ["precompute", "101", "--tag", "T", "--range", "0", "500",
                      "--cache", str(cache)]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, ""), argv
            assert err.startswith("error: "), argv
        assert not cache.exists()


class TestNoScipy:
    def test_no_command_loads_scipy(self, tmp_path):
        # scipy is a test dependency only: the transforms are numpy's, and
        # log Gamma and psi are specfun's own, as every other function is
        cache = str(tmp_path)
        runs = [["compute", "101"], ["compute", "101", "--method", "both"],
                ["scan", "3", "50"],
                ["precompute", "101", "--tag", "LOGGAMMA", "--cache", cache],
                ["precompute", "101", "--tag", "PSI", "--cache", cache]]
        script = ("import contextlib, io, sys\n"
                  "from ekconst import cli\n"
                  f"for argv in {runs!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert cli.main(argv) == 0, argv\n"
                  "print([m for m in sys.modules"
                  " if m.partition('.')[0] == 'scipy'])\n")
        proc = run_fresh(script, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]
        assert len(list(tmp_path.iterdir())) == 2


class TestScanCacheInterplay:
    def test_scan_reuses_cache_without_changing_output(self, capsys, tmp_path):
        cache = str(tmp_path / "c")
        (tmp_path / "c").mkdir()
        for tag in ("LOGGAMMA", "S_PAIR"):
            run(capsys, "precompute", "13", "--tag", tag, "--cache", cache)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "scan", "11", "17", "--out", str(a))
        run(capsys, "scan", "11", "17", "--out", str(b), "--cache", cache)
        assert a.read_bytes() == b.read_bytes()
