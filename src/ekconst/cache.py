"""Persistent, chunked, checksum-guarded tables of precomputed
special-function values, ordered by the generator-power index k.

On-disk format (line-oriented text, diffable and mergeable):

    EKCACHE 1 q=<q> g=<g> tag=<tag> k0=<k0> k1=<k1> digits=<d>
    <k> <value>
    ...
    SUM <partial_sum> COUNT <n>

Full-range tables are validated on load against the closed-form sums

    sum_a logGamma(a/q) = ((q-1)/2) log(2 pi) - (1/2) log q
    sum_a S(a/q)        = -zeta''(0)(q-1) - log q log(2 pi) - (log q)^2/2
    sum_a T(a/q)        = (q/2)(log q)^2 + gamma q log q
    sum_a psi(a/q)      = -(q-1) gamma - q log q
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import specfun
from .multgroup import PrimeContext
from .specfun import EvalConfig, DEFAULT_CONFIG

FORMAT_MAGIC = "EKCACHE"
FORMAT_VERSION = 1
DEFAULT_DIGITS = 19


class CacheFormatError(ValueError):
    """Malformed or wrong-version cache file."""


class ChecksumMismatchError(ValueError):
    """A full-range table violated its closed-form checksum on load."""


class MergeError(ValueError):
    """Chunks do not fit together (gap, overlap, or header mismatch)."""


class FunctionTag(enum.Enum):
    LOGGAMMA = "LOGGAMMA"
    S_PAIR = "S_PAIR"
    T = "T"
    PSI = "PSI"


def full_range(q: int, tag: FunctionTag) -> tuple[int, int]:
    """The complete k-range for a tag: S_PAIR stores only k < (q-1)/2."""
    return (0, (q - 1) // 2 if tag is FunctionTag.S_PAIR else q - 1)


def closed_form_sum(q: int, tag: FunctionTag) -> float:
    """Exact value of the full-range sum for the tagged function."""
    lq = math.log(q)
    if tag is FunctionTag.LOGGAMMA:
        return (q - 1) / 2 * specfun.LOG_2PI - lq / 2
    if tag is FunctionTag.S_PAIR:
        return -specfun.ZETA_DD_AT_0 * (q - 1) - lq * specfun.LOG_2PI - lq * lq / 2
    if tag is FunctionTag.T:
        return q / 2 * lq * lq + specfun.EULER_GAMMA * q * lq
    if tag is FunctionTag.PSI:
        return -(q - 1) * specfun.EULER_GAMMA - q * lq
    raise ValueError(f"unknown tag {tag}")


@dataclass(frozen=True)
class ValueTable:
    """One chunk of f(a_k/q) values for k in [k_lo, k_hi)."""

    q: int
    g: int
    function_tag: FunctionTag
    k_lo: int
    k_hi: int
    values: np.ndarray = field(repr=False)
    digits: int = DEFAULT_DIGITS
    partial_sum: float = 0.0

    def __post_init__(self):
        if self.k_hi - self.k_lo != len(self.values):
            raise ValueError("k-range does not match value count")
        hi_max = full_range(self.q, self.function_tag)[1]
        if not 0 <= self.k_lo <= self.k_hi <= hi_max:
            raise ValueError(
                f"k-range [{self.k_lo},{self.k_hi}) outside [0,{hi_max}) "
                f"for tag {self.function_tag.value}"
            )

    @property
    def is_full_range(self) -> bool:
        return (self.k_lo, self.k_hi) == full_range(self.q, self.function_tag)

    def checksum_residual(self) -> float:
        """|partial_sum - closed form|; meaningful for full-range tables."""
        return abs(self.partial_sum - closed_form_sum(self.q, self.function_tag))


def _rounding_budget(values: np.ndarray, digits: int) -> float:
    """Largest change of sum(values) from printing them to `digits`
    significant digits."""
    return 0.5 * 10.0 ** (1 - digits) * float(np.abs(values).sum())


def checksum_tolerance(table: ValueTable,
                       cfg: EvalConfig = DEFAULT_CONFIG) -> float:
    """Largest accepted closed-form residual of a full-range table:
    10(q-1) * target_abs_error plus the rounding budget of its digits."""
    return (10 * (table.q - 1) * cfg.target_abs_error
            + _rounding_budget(table.values, table.digits))


def _evaluate(tag: FunctionTag, x: np.ndarray, cfg: EvalConfig) -> np.ndarray:
    if tag is FunctionTag.LOGGAMMA:
        return specfun.log_gamma_values(x)
    if tag is FunctionTag.S_PAIR:
        return specfun.s_pair_values(x, cfg)
    if tag is FunctionTag.T:
        return specfun.t_values(x, cfg)
    if tag is FunctionTag.PSI:
        return specfun.psi_values(x)
    raise ValueError(f"unknown tag {tag}")


def precompute(ctx: PrimeContext, tag: FunctionTag,
               k_range: tuple[int, int] | None = None,
               cfg: EvalConfig = DEFAULT_CONFIG) -> ValueTable:
    """Evaluate the tagged function at a_k/q over a k-range (default: full).

    Deterministic given (q, g, tag, range, cfg); chunks may be computed
    independently and merged.
    """
    k_lo, k_hi = k_range if k_range is not None else full_range(ctx.q, tag)
    hi_max = full_range(ctx.q, tag)[1]
    if not 0 <= k_lo <= k_hi <= hi_max:
        raise ValueError(f"invalid k-range [{k_lo},{k_hi}) for {tag.value}")
    x = ctx.a_seq[k_lo:k_hi].astype(np.float64) / ctx.q
    values = _evaluate(tag, x, cfg) if k_hi > k_lo else np.empty(0)
    return ValueTable(
        q=ctx.q, g=ctx.g, function_tag=tag, k_lo=k_lo, k_hi=k_hi,
        values=values, digits=DEFAULT_DIGITS,
        partial_sum=math.fsum(values.tolist()),
    )


def merge(parts: list[ValueTable]) -> ValueTable:
    """Combine contiguous ascending chunks into one table."""
    if not parts:
        raise MergeError("nothing to merge")
    parts = sorted(parts, key=lambda t: t.k_lo)
    head = parts[0]
    for t in parts[1:]:
        for attr in ("q", "g", "function_tag", "digits"):
            if getattr(t, attr) != getattr(head, attr):
                raise MergeError(
                    f"{attr} mismatch: {getattr(head, attr)} vs {getattr(t, attr)}"
                )
    pos = head.k_lo
    for t in parts:
        if t.k_lo > pos:
            raise MergeError(f"gap at k={pos}")
        if t.k_lo < pos:
            raise MergeError(f"overlap at k={t.k_lo}")
        pos = t.k_hi
    return ValueTable(
        q=head.q, g=head.g, function_tag=head.function_tag,
        k_lo=head.k_lo, k_hi=pos,
        values=np.concatenate([t.values for t in parts]),
        digits=head.digits,
        partial_sum=math.fsum(t.partial_sum for t in parts),
    )


def part_filename(tag: FunctionTag, q: int, k_lo: int) -> str:
    return f"{tag.value}_q{q}_part{k_lo}.ekc"


def save(table: ValueTable, path) -> Path:
    """Write a table; values carry `digits` significant decimal digits.

    The text goes to a sibling temporary file that then replaces `path`,
    so a failure mid-write leaves any previous file at `path` intact.
    Returns `path`.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    d = table.digits
    try:
        with open(tmp, "w") as fh:
            fh.write(
                f"{FORMAT_MAGIC} {FORMAT_VERSION} q={table.q} g={table.g} "
                f"tag={table.function_tag.value} k0={table.k_lo} "
                f"k1={table.k_hi} digits={d}\n"
            )
            for k, v in zip(range(table.k_lo, table.k_hi), table.values):
                fh.write(f"{k} {v:.{d - 1}e}\n")
            fh.write(f"SUM {table.partial_sum:.18e} "
                     f"COUNT {len(table.values)}\n")
            # on disk before the rename, so a system crash cannot leave
            # `path` naming a file whose data never reached the disk
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def load(path, cfg: EvalConfig = DEFAULT_CONFIG,
         verify_checksum: bool = True) -> ValueTable:
    """Read a table back; full-range tables must pass their checksum
    within checksum_tolerance(table, cfg)."""
    path = Path(path)
    with open(path) as fh:
        header = fh.readline().split()
        body = fh.read().splitlines()
    if len(header) != 8 or header[0] != FORMAT_MAGIC:
        raise CacheFormatError(f"{path}: not an {FORMAT_MAGIC} file")
    if header[1] != str(FORMAT_VERSION):
        raise CacheFormatError(f"{path}: unsupported version {header[1]}")
    fields = {}
    for item in header[2:]:
        key, _, val = item.partition("=")
        fields[key] = val
    try:
        q = int(fields["q"])
        g = int(fields["g"])
        tag = FunctionTag(fields["tag"])
        k_lo = int(fields["k0"])
        k_hi = int(fields["k1"])
        digits = int(fields["digits"])
    except (KeyError, ValueError) as exc:
        raise CacheFormatError(f"{path}: bad header ({exc})") from exc
    if not body or not body[-1].startswith("SUM "):
        raise CacheFormatError(f"{path}: missing SUM trailer")
    trailer = body[-1].split()
    if len(trailer) != 4 or trailer[2] != "COUNT":
        raise CacheFormatError(f"{path}: malformed trailer")
    stored_sum = float(trailer[1])
    count = int(trailer[3])
    rows = body[:-1]
    if len(rows) != count or count != k_hi - k_lo:
        raise CacheFormatError(
            f"{path}: row count {len(rows)} != declared {count}"
        )
    values = np.empty(count)
    for i, row in enumerate(rows):
        kstr, _, vstr = row.partition(" ")
        if int(kstr) != k_lo + i:
            raise CacheFormatError(f"{path}: k out of order at row {i}")
        values[i] = float(vstr)
    psum = math.fsum(values.tolist())
    quant = _rounding_budget(values, digits)
    if abs(psum - stored_sum) > quant + 1e-9 * abs(stored_sum) + 1e-12:
        raise ChecksumMismatchError(
            f"{path}: values do not reproduce SUM trailer "
            f"({psum!r} vs {stored_sum!r})"
        )
    table = ValueTable(q=q, g=g, function_tag=tag, k_lo=k_lo, k_hi=k_hi,
                       values=values, digits=digits, partial_sum=psum)
    if verify_checksum and table.is_full_range:
        tol = checksum_tolerance(table, cfg)
        residual = table.checksum_residual()
        if residual > tol:
            raise ChecksumMismatchError(
                f"{path}: full-range checksum residual {residual:.3e} "
                f"exceeds {tol:.3e}"
            )
    return table
