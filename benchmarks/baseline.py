#!/usr/bin/env python3
"""Run every workload of BENCHMARK.json with several seeds, each run a fresh
process, and record medians, quartiles and spreads with the machine block.

    python3 benchmarks/baseline.py --out benchmarks/BENCH_0.json \\
        [--compare benchmarks/BENCH_0.json]

Each workload runs untraced with seeds 0..9 and traced with seeds 0 and 1.

The spread of a metric is (Q3 - Q1) / median over the untraced runs, with
the quartiles of ``statistics.quantiles(values, n=4)``.  It should stay
below the metric's bound (and below a third of it for a steady benchmark).
``--compare`` reports how far each median moved from an earlier record,
in the direction that counts as worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 900
SEEDS = range(10)
TRACED_SEEDS = range(2)


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    record = {"seed": seed, "trace": trace, "exit": proc.returncode,
              "elapsed_s": time.perf_counter() - t0}
    lines = proc.stdout.strip().splitlines()
    try:
        record["result"] = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        record["result"] = None
        record["stderr"] = proc.stderr[-2000:]
    return record


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (median, median, median))
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def summarize_metrics(runs: list[dict], section: str) -> dict:
    out = {}
    for metric in SPEC[section]:
        values = [r["result"]["metrics"][metric["name"]]["value"]
                  for r in runs if r["result"]]
        if values:
            out[metric["name"]] = {"unit": metric["unit"], **summarize(values)}
            if "bound" in metric:
                out[metric["name"]]["bound"] = metric["bound"]
    return out


def worsening(new: float, old: float, better: str) -> float:
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    change = (new - old) / old if old else 0.0
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", default=None)
    args = parser.parse_args(argv)

    record = {"machine": run.machine(), "command": SPEC["command"],
              "run_seconds": SPEC["run_seconds"], "workloads": {}}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        plain = [one_run(workload, s, 0) for s in SEEDS]
        traced = [one_run(workload, s, 1) for s in TRACED_SEEDS]
        runs = plain + traced
        attempted = sum(r["result"]["attempted"] for r in runs if r["result"])
        failed = sum(r["result"]["failed"] for r in runs if r["result"])
        bad = [r for r in runs
               if r["exit"] != 0 or not r["result"]
               or not r["result"]["correct"]]
        ok &= not bad
        entry = {
            "attempted": attempted,
            "failed_ratio": failed / attempted if attempted else 1.0,
            "bad_runs": bad,
            "elapsed_s": summarize([r["elapsed_s"] for r in runs]),
            "end_to_end": summarize_metrics(plain, "end_to_end"),
            "per_layer": summarize_metrics(traced, "per_layer"),
        }
        record["workloads"][workload] = entry
        print(f"{workload}: {len(runs)} runs, {len(bad)} bad, failed_ratio "
              f"{entry['failed_ratio']:.3g}, run seconds median "
              f"{entry['elapsed_s']['median']:.1f} max "
              f"{max(entry['elapsed_s']['values']):.1f}", flush=True)
        for name, s in entry["end_to_end"].items():
            print(f"  {name:12s} median {s['median']:.6g} {s['unit']:3s} "
                  f"spread {s['spread']:.3f} (bound {s['bound']})", flush=True)
            ok &= s["spread"] <= s["bound"]

    if args.compare:
        old = json.load(open(args.compare))["workloads"]
        better = {m["name"]: (m["better"], m["bound"])
                  for m in SPEC["end_to_end"]}
        for workload, entry in record["workloads"].items():
            for name, s in entry["end_to_end"].items():
                if workload not in old or name not in old[workload]["end_to_end"]:
                    continue
                direction, bound = better[name]
                worse = worsening(
                    s["median"], old[workload]["end_to_end"][name]["median"],
                    direction)
                ok &= worse <= bound
                print(f"compare {workload} {name}: worse by {worse:+.3f} "
                      f"(bound {bound})")

    if args.out:
        with open(args.out, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    print("steady" if ok else "NOT steady or failing")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
