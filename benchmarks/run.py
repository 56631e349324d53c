#!/usr/bin/env python3
"""Benchmark of the ``ek`` command line.

    python3 benchmarks/run.py --workload large_q --seed 0 --seconds 15 --trace 0

Runs from the root of a source checkout and imports ``ekconst`` from its
``src/``; the output checks read ``tests/reference_values.py`` and
``tests/oracles.py``.  Workloads (see ``workloads.py``): ``large_q``,
``scan_vq``, ``cache_reuse``, ``progressions``.

With ``--trace 0`` the run reports, with tracing off:

* ``wall_s``: median wall time of one operation, excluding interpreter
  start, import and set-up;
* ``setup_s``: median, over several fresh processes, of the time from
  spawning the process to ready (import plus the workload's lazy set-up);
* ``peak_rss_mb``: ``ru_maxrss`` of this process after the timed loop.

Failed operations (nonzero exit, exception, or a failed output check) are
counted in ``failed``; ``failed_ratio`` is printed with the metrics.

With ``--trace 1`` a first untraced operation warms the process, then
operations alternate traced and untraced (three pairs when they fit, see
``run_ops``), and the run reports the per-layer metrics of
``tracing.layer_metrics``: the median over traced operations (plus set-up
work for the set-up layers) and ``trace.overhead_s``, the median over
pairs of a traced operation's wall time minus that of the untraced one
after it.  The spans are written to
``benchmarks/_work/trace-<workload>-<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every check passed, 1 when one failed, 2 when the source tree is
missing.  The file cache stays warm between runs; it is not dropped.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
CHILD_TIMEOUT_S = 170
TRACE_PAIRS = 3        # traced/untraced pairs wanted in a traced run
TRACE_BUDGET_S = 110   # ... unless the operations take longer than this


class MissingSource(RuntimeError):
    pass


def bootstrap() -> None:
    """Put the checkout's ``src/`` and ``tests/`` first on the import path,
    and refuse to run against any other copy of ``ekconst``."""
    needed = [ROOT / "src" / "ekconst" / "__init__.py",
              ROOT / "tests" / "reference_values.py",
              ROOT / "tests" / "oracles.py"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise MissingSource(f"source tree incomplete, missing {missing}")
    for path in (ROOT / "tests", ROOT / "src"):
        sys.path.insert(0, str(path))
    os.environ.pop("EK_CACHE_DIR", None)   # no cache the run did not write
    import ekconst
    if Path(ekconst.__file__).resolve().parent != ROOT / "src" / "ekconst":
        raise MissingSource(f"imported ekconst from {ekconst.__file__}")


def machine() -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or commit
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_gb": round(pages / 2**30, 2),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": commit,
        "file_cache": "warm; it is not dropped between runs",
    }


@dataclass
class Op:
    seconds: float
    traced: bool
    calls: list = field(repr=False)
    errors: list


def run_ops(wl, tracer, seconds: float, trace: bool) -> list[Op]:
    """Repeat the workload's operation until ``seconds`` have passed.

    With ``trace`` a first, untraced operation absorbs the first-call
    costs, then operations alternate traced and untraced, and the loop
    ends after an untraced one: once ``seconds`` and ``TRACE_PAIRS``
    pairs are done, or after one pair once ``TRACE_BUDGET_S`` has passed.
    """
    ops = []
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 1
        tracer.run_id = f"op{len(ops)}"
        gc.collect()    # garbage of earlier checks is not the op's cost
        t0 = time.perf_counter()
        try:
            with tracer.patched() if traced else contextlib.nullcontext():
                calls = wl.operate()
            errors = []
        except Exception:   # a failed operation is counted, not fatal
            calls, errors = [], [traceback.format_exc()]
        dt = time.perf_counter() - t0
        if not errors:
            errors = wl.check(calls)
        ops.append(Op(dt, traced, calls, errors))
        elapsed = time.perf_counter() - start
        if not trace:
            if elapsed >= seconds:
                return ops
        elif len(ops) % 2 == 1 and len(ops) >= 3 and (
                elapsed >= TRACE_BUDGET_S
                or (elapsed >= seconds and len(ops) >= 1 + 2 * TRACE_PAIRS)):
            return ops


def time_setups(args, data_dir: Path, repeats: int) -> list[float]:
    """Seconds from spawning a fresh process to its ``ready`` line."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-child", str(data_dir)] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.stdout.read()
            rc = child.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"set-up process failed (exit {rc})")
        times.append(elapsed)
    return times


def units(section: str) -> dict:
    """Metric name -> unit for one section of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def report(args, wl, ops, metrics: dict, section: str,
           extra: list[str]) -> dict:
    unit = units(section)
    if metrics.keys() != unit.keys():
        raise KeyError(f"metrics {sorted(metrics.keys() ^ unit.keys())} "
                       f"differ from BENCHMARK.json {section}")
    failed = sum(1 for op in ops if op.errors)
    for i, op in enumerate(ops):
        for err in op.errors[:5]:
            print(f"op{i} failed: {err}", file=sys.stderr)
    print(f"# machine {json.dumps(machine())}")
    print(f"# workload {wl.name} seed {args.seed}: {wl.describe()}")
    print(f"# {len(ops)} operations, seconds per operation: "
          + " ".join(f"{op.seconds:.4f}" for op in ops))
    for line in extra:
        print(f"# {line}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:.6g} {unit[name]}")
    print(f"{'failed_ratio':32s} {failed / len(ops):.6g} ratio "
          f"({failed}/{len(ops)})")
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": v, "unit": unit[n]}
                    for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small inputs, for testing the benchmark")
    parser.add_argument("--setup-child", metavar="DIR", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        bootstrap()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import tracing
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(workloads.WORKLOADS)}")
    make = workloads.WORKLOADS[args.workload]

    if args.setup_child:
        wl = make(args.seed, args.smoke, Path(args.setup_child))
        null = tracing.Tracer(enabled=False)
        wl.warm(null)
        wl.prepare()
        print("ready", flush=True)
        return 0

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        wl = make(args.seed, args.smoke, run_dir)
        tracer = tracing.Tracer(enabled=bool(args.trace))
        if args.trace:
            with tracer.patched():
                wl.warm(tracer)
                wl.prepare()
        else:
            setups = time_setups(args, run_dir, wl.setup_repeats)
            wl.warm(tracer)      # the files are already in run_dir
        ops = run_ops(wl, tracer, args.seconds, bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        for op, errors in zip(ops, wl.final_check([op.calls for op in ops])):
            op.errors += errors
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if not args.trace:
        metrics = {
            "wall_s": statistics.median(op.seconds for op in ops),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
        }
        extra = ["set-up seconds: " + " ".join(f"{s:.4f}" for s in setups)]
        result = report(args, wl, ops, metrics, "end_to_end", extra)
        return 0 if result["correct"] else 1

    # each traced operation against the untraced one that follows it
    overhead = statistics.median(traced.seconds - plain.seconds
                                 for traced, plain in zip(ops[1::2], ops[2::2]))
    op_ids = [f"op{i}" for i, op in enumerate(ops) if op.traced]
    totals = tracer.totals(op_ids)
    metrics = tracing.layer_metrics(totals, overhead)
    WORK.mkdir(exist_ok=True)
    trace_path = WORK / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(trace_path)
    extra = [f"spans written to {trace_path.relative_to(ROOT)}",
             "self seconds per span: set-up, median traced operation"]
    setup_self = tracer.run_totals("setup")
    op_self = tracer.totals(op_ids, with_setup=False)
    for key in sorted(k for k in set(op_self) | set(setup_self)
                      if k.endswith(".self_s")):
        extra.append(f"  {key[:-7]:28s} {setup_self.get(key, 0.0):10.4f} "
                     f"{op_self.get(key, 0.0):10.4f}")
    result = report(args, wl, ops, metrics, "per_layer", extra)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
