"""Persistent, chunked, checksum-guarded tables of precomputed
special-function values, ordered by the generator-power index k.  A table
may be split into parts, files that parts() relates from their headers.

On-disk format, version 2 (version-1 text files are refused):

    EKCACHE 2 q=<q> g=<g> tag=<tag> k0=<k0> k1=<k1> target=<target>
    <8*(k1-k0) bytes: f(a_k/q) for k = k0..k1-1 as little-endian float64>
    SUM <partial_sum> COUNT <k1-k0>

The values round-trip exactly, so their exactly rounded sum must equal SUM.
That sum is computed exactly, by exponent buckets (Demmel and Hida, 2003).
frexp writes each finite value as (hi*2^26 + lo) * 2^(e-53) with integers
|hi| < 2^27 and |lo| < 2^26.  Per exponent e, the his and the los of a
slice of _SUM_SLICE = 8192 values add up in float64 to integers below
2^40, with no rounding, and int64 accumulators hold those slice sums
exactly for up to 2^36 values.  One Python int of all the buckets is then
divided by a power of two, which CPython rounds correctly: the result is
math.fsum's, bit for bit.

Every table is evaluated to specfun.TARGET_ABS_ERROR, which save writes as
<target>; load refuses a file with any other target, so no table of
another accuracy reaches a merge, a checksum or a constant.

Full-range tables are validated, when save writes them and when
ek.compute_ek uses them, against the closed-form sums

    sum_a logGamma(a/q) = ((q-1)/2) log(2 pi) - (1/2) log q
    sum_a S(a/q)        = -zeta''(0)(q-1) - log q log(2 pi) - (log q)^2/2
    sum_a T(a/q)        = (q/2)(log q)^2 + gamma q log q
    sum_a psi(a/q)      = -(q-1) gamma - q log q
"""

from __future__ import annotations

import enum
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import specfun
from .multgroup import DomainError, PrimeContext, residues

FORMAT_MAGIC = "EKCACHE"
FORMAT_VERSION = 2
_VALUE_DTYPE = np.dtype("<f8")
_HEADER = re.compile(
    rf"{FORMAT_MAGIC} {FORMAT_VERSION} q=(?P<q>\d+) g=(?P<g>\d+) "
    rf"tag=(?P<tag>\w+) k0=(?P<k0>\d+) k1=(?P<k1>\d+) "
    rf"target=(?P<target>\S+)\n".encode())
_TRAILER = re.compile(  # SUM as save writes it, so float() cannot fail
    rb"SUM (?P<sum>-?\d\.\d{18}e[-+]\d+) COUNT (?P<count>\d+)\n")
_HEADER_MAX = 256      # bytes; a header is about 80
_TRAILER_MAX = 128     # bytes; a trailer is about 50
_FSUM_BELOW = 1500     # values; shorter arrays go to math.fsum, see _exact_sum
_SUM_SLICE = 8192      # values per slice of the exponent-bucket sums
_EXP_BIAS = 1074       # frexp exponents of finite floats lie in [-1073, 1024]
_BUCKETS = 2099        # ... so e + _EXP_BIAS indexes one of these buckets


class CacheFormatError(ValueError):
    """Malformed or wrong-version cache file."""


class ChecksumMismatchError(ValueError):
    """A table violated its SUM trailer or its closed-form checksum."""


class MergeError(ValueError):
    """Tables do not fit together (gap, overlap, or header mismatch)."""


class FunctionTag(enum.Enum):
    LOGGAMMA = "LOGGAMMA"
    S_PAIR = "S_PAIR"
    T = "T"
    PSI = "PSI"


def full_range(q: int, tag: FunctionTag) -> tuple[int, int]:
    """The complete k-range for a tag: S_PAIR stores only k < (q-1)/2."""
    return (0, (q - 1) // 2 if tag is FunctionTag.S_PAIR else q - 1)


def check_range(q: int, tag: FunctionTag, k_lo: int, k_hi: int) -> None:
    """DomainError unless [k_lo, k_hi) lies within full_range(q, tag)."""
    hi_max = full_range(q, tag)[1]
    if not 0 <= k_lo <= k_hi <= hi_max:
        raise DomainError(f"k-range [{k_lo},{k_hi}) outside [0,{hi_max}) "
                          f"for tag {tag.value}")


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


def _exact_sum(values: np.ndarray) -> float:
    """The exactly rounded sum of the values, equal to
    math.fsum(values.tolist()), by exponent buckets (see the module
    docstring); no list of all the values is built.

    Below _FSUM_BELOW values it is math.fsum itself: the buckets have a
    fixed cost of 35-55 us, and fsum costs about 45 ns a value.  Min of 200
    calls on T-table values, three runs (2 shared cores, numpy 2.4.6),
    fsum against buckets: 40-45 against 56-62 us at 1000 values, 61-71
    against 44-64 us at 1500, 71-90 against 46-65 us at 2002, and 5.1-6.5
    against 0.7-1.0 ms at 100002.  A NaN or an infinity, or a sum of
    exactly zero, also goes to fsum, which then raises or returns as it
    always does.  An exactly rounded sum beyond the float range raises
    OverflowError; where only an intermediate sum of fsum's would
    overflow, this returns the exact sum instead.
    """
    if len(values) < _FSUM_BELOW:
        return math.fsum(values.tolist())
    his = np.zeros(_BUCKETS, dtype=np.int64)
    los = np.zeros(_BUCKETS, dtype=np.int64)
    with np.errstate(invalid="ignore"):         # inf - inf, if any
        for i in range(0, len(values), _SUM_SLICE):
            # 0.5 <= |m| < 1, or m = 0
            m, e = np.frexp(values[i:i + _SUM_SLICE])
            e += _EXP_BIAS
            m *= 2.0 ** 27
            hi = np.trunc(m)
            m -= hi
            m *= 2.0 ** 26              # now the lo of each value
            hi_sums = np.bincount(e, hi, _BUCKETS)
            lo_sums = np.bincount(e, m, _BUCKETS)
            if not math.isfinite(hi_sums.sum() + lo_sums.sum()):
                return math.fsum(values.tolist())   # a NaN or an infinity
            his += hi_sums.astype(np.int64)
            los += lo_sums.astype(np.int64)
    used = np.flatnonzero(his | los)
    total = sum(((hi << 26) + lo) << e for e, hi, lo in zip(
        used.tolist(), his[used].tolist(), los[used].tolist()))
    if not total:
        return math.fsum(values.tolist())   # fsum picks the sign of zero
    return total / (1 << (_EXP_BIAS + 53))


@dataclass(frozen=True)
class ValueTable:
    """One chunk of f(a_k/q) values for k in [k_lo, k_hi), evaluated to
    TARGET_ABS_ERROR."""

    q: int
    g: int
    function_tag: FunctionTag
    k_lo: int
    k_hi: int
    values: np.ndarray = field(repr=False)
    partial_sum: float = 0.0

    def __post_init__(self):
        if self.k_hi - self.k_lo != len(self.values):
            raise ValueError("k-range does not match value count")
        check_range(self.q, self.function_tag, self.k_lo, self.k_hi)

    @property
    def is_full_range(self) -> bool:
        return (self.k_lo, self.k_hi) == full_range(self.q, self.function_tag)

    def checksum_residual(self) -> float:
        """|partial_sum - closed form|; ValueError unless the table covers
        the full range, the one range the closed form sums over."""
        if not self.is_full_range:
            raise ValueError(f"{self.function_tag.value} table for q={self.q} "
                             f"does not cover the full range")
        return abs(self.partial_sum - closed_form_sum(self.q, self.function_tag))


def checksum_tolerance(table: ValueTable) -> float:
    """Largest accepted closed-form residual of a full-range table:
    10(q-1) * TARGET_ABS_ERROR."""
    return 10 * (table.q - 1) * specfun.TARGET_ABS_ERROR


def check_closed_form(table: ValueTable) -> None:
    """The full-range gate: ChecksumMismatchError if the closed-form
    residual exceeds checksum_tolerance(table)."""
    residual, tol = table.checksum_residual(), checksum_tolerance(table)
    if not residual <= tol:
        raise ChecksumMismatchError(
            f"{table.function_tag.value} table for q={table.q}: full-range "
            f"checksum residual {residual:.3e} exceeds {tol:.3e}")


def _evaluate(tag: FunctionTag, x: np.ndarray) -> np.ndarray:
    if tag is FunctionTag.LOGGAMMA:
        return specfun.log_gamma_values(x)
    if tag is FunctionTag.S_PAIR:
        return specfun.s_pair_values(x)
    if tag is FunctionTag.T:
        return specfun.t_values(x)
    if tag is FunctionTag.PSI:
        return specfun.psi_values(x)
    raise ValueError(f"unknown tag {tag}")


# k per block of precompute.  A block's residues, points and series
# temporaries take a few MB and stay in cache whatever the table length.
# Per table, against 4096: at q = 305741 (best of 15 runs) 8192 took 1-10%
# less time, and 16384 and 32768 up to 4% less again; at q = 10000019
# (best of 4 or 5) 8192 took 5-19% less, and 16384 from 4% less to 21%
# more.  Every function is evaluated point by point, so no value depends
# on the block it falls in.
_BLOCK = 8192


def precompute(ctx: PrimeContext, tag: FunctionTag,
               k_range: tuple[int, int] | None = None) -> ValueTable:
    """Evaluate the tagged function at a_k/q over a k-range (default: full),
    in blocks of _BLOCK k, each from its residues to its values, written
    into one preallocated array: no other array grows with the range.

    Deterministic given (q, g, tag, range); chunks may be computed
    independently, saved as parts and read back as one table by find.
    """
    q = ctx.q
    k_lo, k_hi = k_range if k_range is not None else full_range(q, tag)
    check_range(q, tag, k_lo, k_hi)
    powers = residues(ctx, 0, min(_BLOCK, k_hi - k_lo))
    values = np.empty(k_hi - k_lo, dtype=np.float64)
    for lo in range(0, k_hi - k_lo, _BLOCK):
        # both factors are below q, so the products stay below 2^63
        a = powers[:k_hi - k_lo - lo] * pow(ctx.g, k_lo + lo, q) % q
        if tag is FunctionTag.S_PAIR:
            # S(x) + S(1-x) is symmetric; fold in integers, because 1 - a/q
            # in float64 keeps few bits of a small q - a
            a = np.minimum(a, q - a)
        values[lo:lo + _BLOCK] = _evaluate(tag, a.astype(np.float64) / q)
    return ValueTable(
        q=q, g=ctx.g, function_tag=tag, k_lo=k_lo, k_hi=k_hi,
        values=values, partial_sum=_exact_sum(values),
    )


def part_filename(tag: FunctionTag, q: int, k_lo: int | str) -> str:
    """The name of the part starting at k_lo; k_lo="*" makes it a glob."""
    return f"{tag.value}_q{q}_part{k_lo}.ekc"


def parts(cache_dir, q: int, tag: FunctionTag, contiguous: bool = True
          ) -> list[tuple[Path, int, int, int]]:
    """(path, g, k0, k1) of every file named part_filename(tag, q, k0) in
    cache_dir, in the order of k0, from the headers alone: no body is read.
    CacheFormatError if a header does not read; MergeError if a name's k0
    is no integer or disagrees with its header, or if the parts differ in
    g, overlap, or, when contiguous, leave a gap."""
    def k0(path: Path) -> int:
        try:
            return int(path.stem.rpartition("part")[2])
        except ValueError:
            raise MergeError(f"{path}: no k0 in the name") from None

    found = []
    for path in sorted(Path(cache_dir).glob(part_filename(tag, q, "*")),
                       key=k0):
        with open(path, "rb") as fh:
            part_q, g, part_tag, lo, hi = _read_header(fh, path)
        if path.name != part_filename(part_tag, part_q, lo):
            raise MergeError(f"{path}: holds the {part_tag.value} table for "
                             f"q={part_q} over [{lo},{hi})")
        if found:
            prev, g0, _, pos = found[-1]
            if g != g0:
                raise MergeError(f"g mismatch: {g0} vs {g}")
            if contiguous and lo > pos:
                raise MergeError(f"gap at k={pos} between {prev} and {path}")
            if lo < pos:
                raise MergeError(f"overlap at k={lo} between {prev} and "
                                 f"{path}")
        found.append((path, g, lo, hi))
    return found


def find(cache_dir, q: int, tag: FunctionTag
         ) -> tuple[ValueTable | None, list[Path]]:
    """The tag's table for q in cache_dir, and the paths of its parts in
    the order of k0; (None, []) if there is none.  The parts pass parts()
    before any body is read, then each is loaded into its slice of one
    array; a single part is returned as load gives it."""
    found = parts(cache_dir, q, tag)
    paths = [path for path, *_ in found]
    if len(found) < 2:
        return (load(paths[0]) if paths else None), paths
    g, lo, hi = found[0][1], found[0][2], found[-1][3]
    values = np.empty(hi - lo, dtype=_VALUE_DTYPE)
    for path, _, k_lo, k_hi in found:
        # one part at a time: each is gone before the next is loaded
        values[k_lo - lo:k_hi - lo] = load(path).values
    # the exact sum, as precompute gives it, not a sum of rounded sums
    return ValueTable(q=q, g=g, function_tag=tag, k_lo=lo, k_hi=hi,
                      values=values, partial_sum=_exact_sum(values)), paths


def save(table: ValueTable, path) -> Path:
    """Write a table in format version 2; a full-range table must first
    pass check_closed_form.

    The bytes go to a sibling temporary file that then replaces `path`,
    so a failure mid-write leaves any previous file at `path` intact.
    Returns `path`.
    """
    if table.is_full_range:
        check_closed_form(table)
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(f"{FORMAT_MAGIC} {FORMAT_VERSION} q={table.q} "
                     f"g={table.g} tag={table.function_tag.value} "
                     f"k0={table.k_lo} k1={table.k_hi} "
                     f"target={specfun.TARGET_ABS_ERROR!r}\n".encode())
            # from the array's own buffer: no copy of the values
            fh.write(np.ascontiguousarray(table.values,
                                          dtype=_VALUE_DTYPE).data)
            fh.write(f"SUM {table.partial_sum:.18e} "
                     f"COUNT {len(table.values)}\n".encode("ascii"))
            # on disk before the rename, so a system crash cannot leave
            # `path` naming a file whose data never reached the disk
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename == str(tmp):
            # name the path asked for, not its temporary sibling
            raise type(exc)(exc.errno, exc.strerror, str(path)) from exc
        raise
    return path


def _read_header(fh, path: Path) -> tuple[int, int, FunctionTag, int, int]:
    """(q, g, tag, k0, k1) from the header line of the open file fh, which
    it reads past.  CacheFormatError unless the line is a version-2 header
    of a range within the tag's full range, evaluated to TARGET_ABS_ERROR.
    """
    header = fh.readline(_HEADER_MAX)
    words = header.split()
    if len(words) < 2 or words[0] != FORMAT_MAGIC.encode():
        raise CacheFormatError(f"{path}: not an {FORMAT_MAGIC} file")
    if words[1] != str(FORMAT_VERSION).encode():
        raise CacheFormatError(
            f"{path}: format version {words[1].decode('ascii', 'replace')}"
            f" is not {FORMAT_VERSION}; remove it and re-run "
            f"`ek precompute`")
    m = _HEADER.fullmatch(header)
    try:
        if m is None:
            raise ValueError(header)
        q, g, k_lo, k_hi = map(int, m.group("q", "g", "k0", "k1"))
        tag = FunctionTag(m["tag"].decode())
        target = float(m["target"])
        check_range(q, tag, k_lo, k_hi)
    except ValueError as exc:
        raise CacheFormatError(f"{path}: bad header ({exc})") from exc
    if target != specfun.TARGET_ABS_ERROR:  # nan and inf included
        raise CacheFormatError(
            f"{path}: evaluated to target {target!r}, not "
            f"{specfun.TARGET_ABS_ERROR!r}; remove it and re-run "
            f"`ek precompute`")
    return q, g, tag, k_lo, k_hi


def part_to_write(cache_dir, q: int, tag: FunctionTag, k_lo: int,
                  k_hi: int) -> Path:
    """The path of the tag's part for q over [k_lo, k_hi) in cache_dir,
    once the headers there allow writing it.  The parts already there must
    pass parts(), gaps allowed, so precompute refuses what find refuses;
    FileExistsError if that name holds another range, or a part of another
    name overlaps the range."""
    path = Path(cache_dir) / part_filename(tag, q, k_lo)
    for other, _, lo, hi in parts(cache_dir, q, tag, contiguous=False):
        if other == path and (lo, hi) != (k_lo, k_hi):
            raise FileExistsError(f"{path} holds [{lo},{hi}), not "
                                  f"[{k_lo},{k_hi}); remove it to replace it")
        if other != path and lo < k_hi and k_lo < hi:
            raise FileExistsError(f"{path} over [{k_lo},{k_hi}) would "
                                  f"overlap {other}, which holds "
                                  f"[{lo},{hi}); remove it to replace it")
    return path


def load(path) -> ValueTable:
    """Read a table back.  The header's target must be TARGET_ABS_ERROR
    and the values must reproduce the SUM trailer exactly."""
    path = Path(path)
    with open(path, "rb") as fh:
        q, g, tag, k_lo, k_hi = _read_header(fh, path)
        size = os.fstat(fh.fileno()).st_size
        if not 0 < size - fh.tell() - 8 * (k_hi - k_lo) <= _TRAILER_MAX:
            raise CacheFormatError(f"{path}: {size} bytes do not hold a "
                                   f"header, {k_hi - k_lo} values and a SUM")
        values = np.empty(k_hi - k_lo, dtype=_VALUE_DTYPE)
        fh.readinto(values)
        m = _TRAILER.fullmatch(fh.read())
    if m is None or int(m["count"]) != len(values):
        raise CacheFormatError(f"{path}: no SUM/COUNT {len(values)} trailer")
    stored_sum = float(m["sum"])
    total = _exact_sum(values)
    if total != stored_sum:
        raise ChecksumMismatchError(f"{path}: values do not reproduce SUM "
                                    f"trailer ({total!r} vs {stored_sum!r})")
    return ValueTable(q=q, g=g, function_tag=tag, k_lo=k_lo, k_hi=k_hi,
                      values=values, partial_sum=stored_sum)
