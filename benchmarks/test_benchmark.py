"""Tests of the benchmark itself (not part of the library's test suite):

    python -m pytest benchmarks -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run.bootstrap()

import reference_values as rv  # noqa: E402  (on the path after bootstrap)
from ekconst import offsets  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN_PY = Path(run.__file__).resolve()


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace,
                                                     section):
    proc = subprocess.run(
        [sys.executable, str(RUN_PY), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (3 if trace else 1)
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        assert "failed_ratio" in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload == "scan_vq":
        primes = len(workloads.ScanVQ(3, True, run.WORK).primes)
        assert result["metrics"]["offsets.v_of_q.candidates"]["value"] == (
            primes * (offsets.GREEDY_COUNT - 1))
    elif workload == "cache_reuse":
        metrics = result["metrics"]
        seconds = {n: m["value"] for n, m in metrics.items()}
        assert 0 < seconds["cache.verify.s"] < seconds["cache.load.s"]
        assert seconds["cache.merge.s"] > seconds["cache.save.s"]


def _ops(wl):
    ops = run.run_ops(wl, tracing.Tracer(enabled=False), seconds=0,
                      trace=False)
    for op, errors in zip(ops, wl.final_check([op.calls for op in ops])):
        op.errors += errors
    return ops


def _corrupt_value(path: Path, fix_sum: bool) -> None:
    """Add 1 to the first stored value; with ``fix_sum`` also update the
    SUM trailer so that only the closed-form checksum can notice."""
    lines = path.read_text().splitlines()
    k, value = lines[1].split()
    lines[1] = f"{k} {float(value) + 1.0:.18e}"
    if fix_sum:
        tag, total, count_kw, count = lines[-1].split()
        lines[-1] = f"{tag} {float(total) + 1.0:.18e} {count_kw} {count}"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("fix_sum", [False, True])
def test_corrupted_chunk_is_a_failed_operation(tmp_path, fix_sum):
    wl = workloads.CacheReuse(seed=4, smoke=True, data_dir=tmp_path)
    wl.prepare()
    assert not any(op.errors for op in _ops(wl))
    _corrupt_value(sorted(wl.chunk_dir.glob("S_PAIR_*.ekc"))[1], fix_sum)
    ops = _ops(wl)
    assert ops and all(op.errors for op in ops)


@pytest.mark.parametrize("workload,table,key", [
    ("large_q", rv.EK_MID, 10007),
    ("scan_vq", rv.EK, 101),
    ("scan_vq", rv.MQ, 293),
    ("progressions", rv.GAMMA_N, 2),
])
def test_wrong_reference_value_is_a_failed_operation(tmp_path, monkeypatch,
                                                     workload, table, key):
    make = workloads.WORKLOADS[workload]
    wl = make(seed=0, smoke=True, data_dir=tmp_path)
    wl.warm(tracing.Tracer(enabled=False))
    assert not any(op.errors for op in _ops(wl))
    monkeypatch.setitem(table, key, table[key] + 1e-6)
    wl = make(seed=0, smoke=True, data_dir=tmp_path)   # re-reads references
    ops = _ops(wl)
    assert ops and all(op.errors for op in ops)


def test_wrong_v_q_is_a_failed_operation(tmp_path, monkeypatch):
    wl = workloads.ScanVQ(seed=1, smoke=True, data_dir=tmp_path)
    monkeypatch.setattr(workloads.ScanVQ, "v_of_q_oracle",
                        staticmethod(lambda q: 0.5))
    assert all(op.errors for op in _ops(wl))


def test_seed_fixes_the_inputs(tmp_path):
    for name, make in workloads.WORKLOADS.items():
        a = make(seed=7, smoke=False, data_dir=tmp_path)
        b = make(seed=7, smoke=False, data_dir=tmp_path)
        assert a.describe() == b.describe(), name
    assert workloads.LargeQ(0, False, tmp_path).q == 305741
    qs = {workloads.LargeQ(s, False, tmp_path).q for s in range(1, 20)}
    assert len(qs) > 1 and all(abs(q - 305741) <= 1019 for q in qs)
    chunks = {workloads.CacheReuse(s, False, tmp_path).describe()
              for s in range(3)}
    assert len(chunks) == 3


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer(enabled=True)
    tracer.run_id = "op0"
    with tracer.span("cli"):
        with tracer.span("ek.compute_ek"):
            with tracer.span("fft.dft"):
                pass
    totals = tracer.run_totals("op0")
    assert totals["cli.self_s"] == pytest.approx(
        totals["cli.s"] - totals["ek.compute_ek.s"])
    assert totals["ek.compute_ek.self_s"] == pytest.approx(
        totals["ek.compute_ek.s"] - totals["fft.dft.s"])


def test_without_source_tree_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in RUN_PY.parent.glob("*.py"):
        shutil.copy(path, bench)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "large_q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
