"""Spans recorded from the benchmark's own files, around the calls into each
``ekconst`` module.

A traced operation runs with the module attributes that the CLI looks up
replaced by timing wrappers; nothing inside ``src/`` changes.  Spans stay
in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import statistics
import threading
import time
import types
from collections import defaultdict
from dataclasses import asdict, dataclass

from ekconst import cache, cli, ek, offsets, stieltjes

TAGS = tuple(t.value for t in cache.FunctionTag)
# set-up work: the offset sequence, gamma_n, and the tables that
# cache_reuse writes before its timed part
SETUP_LAYERS = ("offsets.greedy_offsets", "specfun.")
PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None     # index of the enclosing span, None at the root
    run_id: str            # "setup", or "op<i>" for the i-th operation


def _rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * PAGE_MB


class RssSampler:
    """Largest resident set size seen between ``start`` and ``stop``.

    One background thread samples every ``INTERVAL_S`` while the wrappers
    are installed (the process-wide high-water mark cannot be reset).  It
    is not woken per call, so short calls cost no thread switch; a call
    shorter than the interval is measured by its end value only.
    """

    INTERVAL_S = 0.02

    def __init__(self):
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._base = self._peak = 0.0
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self):
        while not self._closed.wait(self.INTERVAL_S):
            with self._lock:     # a sample taken before ``start`` is stale
                self._peak = max(self._peak, _rss_mb())

    def start(self) -> None:
        rss = _rss_mb()
        with self._lock:
            self._base = self._peak = rss

    def stop(self) -> float:
        """Growth in MB of the sampled peak over the RSS at ``start``."""
        rss = _rss_mb()
        with self._lock:
            return max(self._peak, rss) - self._base

    def close(self) -> None:
        self._closed.set()
        self._thread.join()


class Tracer:
    """Records spans and counts; does nothing when ``enabled`` is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.run_id = "setup"
        self.spans: list[Span] = []
        self.counts: dict = defaultdict(float)   # (run_id, name) -> value
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), float("nan"), parent,
                    self.run_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float) -> None:
        self.counts[(self.run_id, name)] += amount

    def count_max(self, name: str, value: float) -> None:
        key = (self.run_id, name)
        self.counts[key] = max(self.counts[key], value)

    def _in_span(self, name: str) -> bool:
        return bool(self._stack) and self.spans[self._stack[-1]].name == name

    def _wrappers(self, rss: RssSampler):
        """(owner, attribute, replacement) for each instrumented call."""

        def timed(fn, name):
            def wrapper(*args, **kwargs):
                with self.span(name):
                    return fn(*args, **kwargs)
            return wrapper

        def precompute(ctx, tag, *args, **kwargs):
            rss.start()
            with self.span(f"specfun.{tag.value}"):
                table = orig["precompute"](ctx, tag, *args, **kwargs)
            self.count_max(f"specfun.{tag.value}.rss_growth_mb", rss.stop())
            self.count(f"specfun.{tag.value}.points", len(table.values))
            return table

        def dft(x, *args, **kwargs):
            with self.span("fft.dft"):
                spectrum = orig["dft"](x, *args, **kwargs)
            self.count("fft.points", len(spectrum.values))
            return spectrum

        def v_of_q(q, seq=None):
            with self.span("offsets.v_of_q"):
                score = orig["v_of_q"](q, seq)
            # v_of_q tests b*q+1 for every b of the sequence but the first;
            # counted here, outside the span, instead of by a wrapper
            # around each of its primality tests
            if seq is None:
                seq = offsets.greedy_offsets(offsets.GREEDY_COUNT)
            self.count("offsets.v_of_q.candidates", len(seq.b) - 1)
            return score

        def load(path, *args, **kwargs):
            self.count("cache.load.bytes", os.path.getsize(path))
            with self.span("cache.load"):
                return orig["load"](path, *args, **kwargs)

        def save(table, path):
            with self.span("cache.save"):
                out = orig["save"](table, path)
            self.count("cache.save.bytes", os.path.getsize(out))
            return out

        def fsum(values):
            # inside cache.load, fsum re-adds the stored values to check
            # them against the SUM trailer
            if not self._in_span("cache.load"):
                return math.fsum(values)
            with self.span("cache.verify"):
                return math.fsum(values)

        def build_table(q, k_max, *args, **kwargs):
            with self.span("stieltjes.build_table"):
                table = orig["build_table"](q, k_max, *args, **kwargs)
            self.count("stieltjes.entries", len(table.values))
            return table

        orig = {"precompute": cache.precompute, "dft": ek.dft,
                "v_of_q": offsets.v_of_q, "load": cache.load,
                "save": cache.save, "build_table": stieltjes.build_table}
        # the cache module's view of ``math``, with a timed fsum
        cache_math = types.SimpleNamespace(
            **{n: getattr(math, n) for n in dir(math)
               if not n.startswith("__")})
        cache_math.fsum = fsum
        return [
            (cli, "main", timed(cli.main, "cli")),
            (cli, "build_context",
             timed(cli.build_context, "multgroup.build_context")),
            (cache, "precompute", precompute),
            (ek, "dft", dft),
            (ek, "compute_ek", timed(ek.compute_ek, "ek.compute_ek")),
            (offsets, "v_of_q", v_of_q),
            (cache, "load", load),
            (cache, "save", save),
            (cli, "cmd_merge", timed(cli.cmd_merge, "cache.merge")),
            (cache, "math", cache_math),
            (cache.ValueTable, "checksum_residual",
             timed(cache.ValueTable.checksum_residual, "cache.verify")),
            (stieltjes, "build_table", build_table),
        ]

    @contextlib.contextmanager
    def patched(self):
        """Install the wrappers for the duration of the block."""
        if not self.enabled:
            yield
            return
        saved = []
        rss = RssSampler()
        try:
            for owner, attr, wrapper in self._wrappers(rss):
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)
            rss.close()

    # ------------------------------------------------------------------
    # aggregation

    def run_totals(self, run_id: str) -> dict:
        """Total and self time per span name, and counts, for one run id."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.run_id == run_id and span.parent is not None:
                child_time[span.parent] += span.end - span.start
        totals = defaultdict(float)
        for i, span in enumerate(self.spans):
            if span.run_id == run_id:
                dur = span.end - span.start
                totals[span.name + ".s"] += dur
                totals[span.name + ".self_s"] += dur - child_time[i]
        for (rid, name), value in self.counts.items():
            if rid == run_id:
                totals[name] += value
        return totals

    def totals(self, op_run_ids: list[str], with_setup: bool = True) -> dict:
        """The median over the given operations, plus (``with_setup``) the
        set-up phase's totals for the layers whose work belongs to set-up."""
        setup = {n: v for n, v in self.run_totals("setup").items()
                 if with_setup and n.startswith(SETUP_LAYERS)}
        ops = [self.run_totals(r) for r in op_run_ids]
        names = set(setup).union(*ops)
        return {n: setup.get(n, 0.0)
                + (statistics.median(o.get(n, 0.0) for o in ops) if ops else 0.0)
                for n in sorted(names)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": [asdict(s) for s in self.spans],
                       "counts": [{"run_id": r, "name": n, "value": v}
                                  for (r, n), v in self.counts.items()]},
                      fh)


def layer_metrics(totals: dict, overhead_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, from ``totals``."""
    t = defaultdict(float, totals)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    m = {
        "multgroup.build_context.s": t["multgroup.build_context.s"],
        "offsets.v_of_q.s": t["offsets.v_of_q.s"],
        "offsets.v_of_q.candidates": t["offsets.v_of_q.candidates"],
        "offsets.greedy_offsets.s": t["offsets.greedy_offsets.s"],
    }
    for tag in TAGS:
        s, points = t[f"specfun.{tag}.s"], t[f"specfun.{tag}.points"]
        m[f"specfun.{tag}.s"] = s
        m[f"specfun.{tag}.points"] = points
        m[f"specfun.{tag}.ns_per_point"] = ratio(s, points, 1e9)
        m[f"specfun.{tag}.rss_growth_mb"] = t[f"specfun.{tag}.rss_growth_mb"]
    m.update({
        "fft.dft.s": t["fft.dft.s"],
        "fft.points": t["fft.points"],
        "ek.compute_ek.s": t["ek.compute_ek.s"],
        "ek.assembly_self.s": t["ek.compute_ek.self_s"],
        "cache.load.s": t["cache.load.s"],
        "cache.load.mb_per_s": ratio(t["cache.load.bytes"],
                                     t["cache.load.s"], 1e-6),
        "cache.save.s": t["cache.save.s"],
        "cache.save.bytes": t["cache.save.bytes"],
        "cache.merge.s": t["cache.merge.s"],
        "cache.verify.s": t["cache.verify.s"],
        "stieltjes.build_table.s": t["stieltjes.build_table.s"],
        "stieltjes.us_per_entry": ratio(t["stieltjes.build_table.s"],
                                        t["stieltjes.entries"], 1e6),
        "specfun.gamma_n.s": t["specfun.gamma_n.s"],
        "cli.self.s": t["cli.self_s"],
        "trace.overhead_s": overhead_s,
    })
    return m
