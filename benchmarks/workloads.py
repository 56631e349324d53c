"""The four benchmark workloads: inputs made from a seed, set-up, the timed
operation and the checks on its output.

Every operation goes through the public CLI entry point
``ekconst.cli.main(argv)``; the program sees only the generated argv.

Why these four (each covers modules the others do not, at sizes that can be
repeated many times):

* ``large_q``: ``ek compute q --method both`` with q near 305741, the largest
  prime with a published reference.  Table evaluation dominates, and the
  FFTs and the peak memory are at their largest.
* ``scan_vq``: ``ek scan 3 2003 --with-vq --threads 1``.  Per-prime fixed
  costs and ``offsets.v_of_q`` set the time; method ``s`` never builds the
  ``T``/``PSI`` tables.
* ``cache_reuse``: set-up writes chunked tables for q = 100003; the timed
  part merges them and computes from the merged cache, so the text cache
  format, merging and checksum verification carry the time and no special
  function is evaluated.
* ``progressions``: ``ek stieltjes 100 --kmax 10``, the scalar
  ``psi_n``/``gamma_n`` path, which no other workload calls.
"""

from __future__ import annotations

import contextlib
import io
import math
import random
from dataclasses import dataclass
from pathlib import Path

from ekconst import cli, offsets, specfun
from ekconst.cache import FunctionTag, full_range, part_filename
from ekconst.multgroup import is_prime

import oracles
import reference_values as rv

TAGS = tuple(t.value for t in FunctionTag)


@dataclass
class Call:
    """One ``ek`` invocation: its argv, exit code and standard output."""

    argv: list
    rc: int
    out: str


def call(argv) -> Call:
    argv = [str(a) for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return Call(argv, rc, buf.getvalue())


def _exit_errors(calls) -> list[str]:
    return [f"`ek {' '.join(c.argv)}` exited {c.rc}" for c in calls if c.rc]


def _close(got: float, want: float, tol: float, what: str) -> list[str]:
    if abs(got - want) <= tol:
        return []
    return [f"{what}: got {got!r}, want {want!r} (tolerance {tol:.1e})"]


def _key_values(text: str) -> dict:
    """Parse the ``name = value`` lines that ``ek compute`` prints."""
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key] = val
    return out


class Workload:
    """Base: ``warm`` is in-process lazy set-up, ``prepare`` writes the files
    the operation reads, ``operate`` is the timed part."""

    name = ""
    setup_repeats = 7

    def __init__(self, seed: int, smoke: bool, data_dir: Path):
        self.data_dir = Path(data_dir)
        self.rng = random.Random(seed)

    def describe(self) -> str:
        return ""

    def warm(self, tracer) -> None:
        pass

    def prepare(self) -> None:
        pass

    def operate(self) -> list[Call]:
        raise NotImplementedError

    def check(self, calls: list[Call]) -> list[str]:
        """Errors found in one operation's output (empty when correct)."""
        raise NotImplementedError

    def final_check(self, calls_per_op: list[list[Call]]) -> list[list[str]]:
        """Checks run once after the timed loop, one error list per op."""
        return [[] for _ in calls_per_op]


class LargeQ(Workload):
    name = "large_q"
    CENTER, SMOKE_CENTER = 305741, 10007
    DISCREPANCY_MAX = 1e-8

    def __init__(self, seed, smoke, data_dir):
        super().__init__(seed, smoke, data_dir)
        center = self.SMOKE_CENTER if smoke else self.CENTER
        width = center // 300       # a narrow window keeps the cost equal
        window = [p for p in range(center - width, center + width + 1)
                  if is_prime(p)]
        self.q = center if seed == 0 else self.rng.choice(window)

    def describe(self):
        return f"ek compute {self.q} --method both"

    def operate(self):
        return [call(["compute", self.q, "--method", "both"])]

    def check(self, calls):
        errors = _exit_errors(calls)
        if errors:
            return errors
        vals = _key_values(calls[0].out)
        if int(vals.get("q", -1)) != self.q:
            return [f"output is for q={vals.get('q')}, not {self.q}"]
        errors += _close(float(vals["method_discrepancy"]), 0.0,
                         self.DISCREPANCY_MAX, "method_discrepancy")
        refs = None
        if self.q == 305741:      # published to 6 digits
            refs = rv.EK_305741, rv.EK_PLUS_305741, 1e-5
        elif self.q in rv.EK_MID:
            refs = rv.EK_MID[self.q], rv.EK_PLUS_MID[self.q], 1e-9
        if refs:
            ek, ek_plus, tol = refs
            errors += _close(float(vals["ek"]), ek, tol, f"ek({self.q})")
            errors += _close(float(vals["ek_plus"]), ek_plus, tol,
                             f"ek_plus({self.q})")
        return errors


class ScanVQ(Workload):
    name = "scan_vq"
    REF_TOL = 1e-9
    VQ_SAMPLES = 3
    VQ_REL_TOL = 1e-13     # the CSV prints 15 significant digits

    def __init__(self, seed, smoke, data_dir):
        super().__init__(seed, smoke, data_dir)
        self.q_max = 300 if smoke else 2003
        self.primes = oracles.odd_primes_up_to(self.q_max)

    def describe(self):
        return f"ek scan 3 {self.q_max} --with-vq --threads 1"

    def warm(self, tracer):
        with tracer.span("offsets.greedy_offsets"):
            offsets.greedy_offsets(offsets.GREEDY_COUNT)

    def operate(self):
        return [call(["scan", 3, self.q_max, "--with-vq", "--threads", 1])]

    def _references(self, q: int) -> dict:
        refs = {}
        if q in rv.EK:
            refs["ek"] = rv.EK[q]
            refs["ek_plus"] = (rv.EK_PLUS_293_CROSS_CHECKED if q == 293
                               else rv.EK_PLUS[q])
            refs["mq"] = rv.MQ[q]
        if q in rv.EK_MID:
            refs["ek"] = rv.EK_MID[q]
            refs["ek_plus"] = rv.EK_PLUS_MID[q]
        return refs

    @staticmethod
    def v_of_q_oracle(q: int) -> float:
        """v(q) with b*q+1 tested by trial division."""
        b_seq = offsets.greedy_offsets(offsets.GREEDY_COUNT).b
        return math.fsum(1.0 / b for b in reversed(b_seq[1:])
                         if oracles.trial_division_is_prime(b * q + 1))

    def check(self, calls):
        errors = _exit_errors(calls)
        if errors:
            return errors
        lines = calls[0].out.splitlines()
        if not lines or lines[0] != cli.CSV_HEADER:
            return ["scan CSV header differs"]
        columns = lines[0].split(",")
        rows = {}
        for line in lines[1:]:
            row = dict(zip(columns, line.split(",")))
            rows[int(row["q"])] = row
        if sorted(rows) != self.primes:
            return [f"scan rows are not the odd primes up to {self.q_max}"]
        for q, row in rows.items():
            for col, want in self._references(q).items():
                errors += _close(float(row[col]), want, self.REF_TOL,
                                 f"{col}({q})")
        for q in self.rng.sample(self.primes, self.VQ_SAMPLES):
            want = self.v_of_q_oracle(q)
            errors += _close(float(rows[q]["v_q"]), want,
                             self.VQ_REL_TOL * max(1.0, want), f"v_q({q})")
        return errors


class CacheReuse(Workload):
    name = "cache_reuse"
    setup_repeats = 3          # each set-up evaluates every table once
    CHUNKS = 3
    COMPARE_TOL = 1e-12

    def __init__(self, seed, smoke, data_dir):
        super().__init__(seed, smoke, data_dir)
        self.q = 10007 if smoke else 100003
        self.chunk_dir = self.data_dir / "chunks"
        self.merged_dir = self.data_dir / "merged"
        self.ranges = {}
        for tag in TAGS:
            hi = full_range(self.q, FunctionTag(tag))[1]
            cuts = sorted(self.rng.sample(range(hi // 10, 9 * hi // 10),
                                          self.CHUNKS - 1))
            bounds = [0] + cuts + [hi]
            self.ranges[tag] = list(zip(bounds, bounds[1:]))

    def describe(self):
        return (f"ek merge/compute --cache at q={self.q}, chunks "
                + "; ".join(f"{t} {r}" for t, r in self.ranges.items()))

    def prepare(self):
        self.chunk_dir.mkdir(parents=True, exist_ok=True)
        for tag, ranges in self.ranges.items():
            for k0, k1 in ranges:
                c = call(["precompute", self.q, "--tag", tag,
                          "--range", k0, k1, "--cache", self.chunk_dir])
                if c.rc:
                    raise RuntimeError(f"set-up failed: {_exit_errors([c])}")

    def operate(self):
        self.merged_dir.mkdir(parents=True, exist_ok=True)
        calls = [call(["merge", self.q, "--tag", tag,
                       "--cache", self.chunk_dir, "--out",
                       self.merged_dir / part_filename(FunctionTag(tag),
                                                       self.q, 0)])
                 for tag in TAGS]
        calls.append(call(["compute", self.q, "--cache", self.merged_dir,
                           "--method", "both"]))
        return calls

    def check(self, calls):
        errors = _exit_errors(calls)
        if errors:
            return errors
        for tag in TAGS:
            errors += _exit_errors([call(["checksum", self.q, "--tag", tag,
                                          "--cache", self.merged_dir])])
        return errors

    def final_check(self, calls_per_op):
        """Constants from the cache equal an in-memory ``ek compute``."""
        ref = call(["compute", self.q, "--method", "both"])
        if ref.rc:
            return [_exit_errors([ref])] * len(calls_per_op)
        want = _key_values(ref.out)
        out = []
        for calls in calls_per_op:
            if len(calls) != len(TAGS) + 1 or calls[-1].rc:
                out.append([])    # already failed in check
                continue
            got = _key_values(calls[-1].out)
            errors = []
            if got.keys() != want.keys() or got["method"] != want["method"]:
                errors.append("cached compute prints other fields")
            else:
                for key, val in want.items():
                    if key != "method":
                        errors += _close(float(got[key]), float(val),
                                         self.COMPARE_TOL, f"cached {key}")
            out.append(errors)
        return out


class Progressions(Workload):
    name = "progressions"
    ORACLE_SAMPLES = 3
    ORACLE_K_MAX = 3       # the brute-force limit loses digits as k grows
    ORACLE_TOL = 1e-8
    SUM_TOL = 1e-12        # scaled by log(q)^(k+1), the size of the terms

    def __init__(self, seed, smoke, data_dir):
        super().__init__(seed, smoke, data_dir)
        self.q, self.kmax = (10, 3) if smoke else (100, 10)

    def describe(self):
        return f"ek stieltjes {self.q} --kmax {self.kmax}"

    def warm(self, tracer):
        with tracer.span("specfun.gamma_n"):
            for k in range(self.kmax + 1):
                specfun.gamma_n(k)

    def operate(self):
        return [call(["stieltjes", self.q, "--kmax", self.kmax])]

    def check(self, calls):
        errors = _exit_errors(calls)
        if errors:
            return errors
        lines = calls[0].out.splitlines()
        if not lines or lines[0] != "k,a,value":
            return ["stieltjes CSV header differs"]
        table = {}
        for line in lines[1:]:
            k, a, value = line.split(",")
            table[(int(k), int(a))] = float(value)
        grid = {(k, a) for k in range(self.kmax + 1)
                for a in range(1, self.q + 1)}
        if table.keys() != grid:
            return ["stieltjes table does not cover k <= kmax, 1 <= a <= q"]
        scale = max(1.0, math.log(self.q))
        for k in range(self.kmax + 1):
            total = math.fsum(table[(k, a)] for a in range(1, self.q + 1))
            errors += _close(total, rv.GAMMA_N[k],
                             self.SUM_TOL * scale ** (k + 1),
                             f"sum_a gamma_{k}(a,{self.q})")
        for _ in range(self.ORACLE_SAMPLES):
            k = self.rng.randint(0, min(self.kmax, self.ORACLE_K_MAX))
            a = self.rng.randint(1, self.q)
            want = oracles.gamma_k_aq_bruteforce(k, a, self.q)
            errors += _close(table[(k, a)], want, self.ORACLE_TOL,
                             f"gamma_{k}({a},{self.q})")
        return errors


WORKLOADS = {w.name: w for w in (LargeQ, ScanVQ, CacheReuse, Progressions)}
