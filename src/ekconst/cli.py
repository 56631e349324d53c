"""Command-line surface.

    ek compute 101 --method both
    ek scan 3 300 --out rows.csv --with-vq
    ek precompute 101 --tag S_PAIR --cache DIR --range 0 50
    ek merge 101 --tag S_PAIR --cache DIR
    ek checksum 101 --tag S_PAIR --cache DIR
    ek stieltjes 7 --kmax 3
    ek gamma-n 10
    ek offsets 20
    ek vq 964477901

Exit codes: 0 success, 1 computation failure, 2 usage error: a bad option,
or an argument the library refuses as outside its domain (DomainError,
which NotPrimeError is).  The cache directory defaults to $EK_CACHE_DIR.
--digits is an option of the commands that print floats: compute, scan,
stieltjes, gamma-n and vq.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import os
import sys
from pathlib import Path

from . import cache as cache_mod
from . import ek as ek_mod
from . import offsets as offsets_mod
from . import stieltjes as stieltjes_mod
from .cache import FunctionTag
from .multgroup import DomainError, build_context, is_prime
from .specfun import gamma_n

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

# the EKResult fields that ek compute prints as "name = value" and ek scan
# writes as CSV cells, in this order
RESULT_FIELDS = ("ek", "ek_plus", "ek_diff", "mq", "mq_odd", "mq_even",
                 "ek_norm", "ek_plus_norm", "mq_norm")
CSV_HEADER = ",".join(("q",) + RESULT_FIELDS + ("v_q",))
MAX_DIGITS = 17  # significant digits that round-trip a float64


class UsageError(Exception):
    pass


def _fmt(x: float, digits: int) -> str:
    return f"{x:.{digits - 1}e}"


def _emit(text: str, out: str | None) -> None:
    """Write text to the file out, or to stdout if out is not given."""
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _cache_dir(args, required: bool = False) -> Path | None:
    """--cache, else $EK_CACHE_DIR; UsageError if neither is set and the
    command cannot do without a cache."""
    path = args.cache or os.environ.get("EK_CACHE_DIR")
    if not path and required:
        raise UsageError(f"{args.command} needs --cache DIR or EK_CACHE_DIR")
    return Path(path) if path else None


def _cached(args, q: int):
    """The lookup compute_ek and cmd_checksum fetch a table through: the
    tag's table that cache_mod.find finds in the cache directory, if there
    is one.  load refuses a file of another target than TARGET_ABS_ERROR;
    the closed-form gate is the consumer's: compute_ek applies it to every
    table it uses, and cmd_checksum prints the residual first."""
    cache_dir = _cache_dir(args)
    return lambda tag: cache_dir and cache_mod.find(cache_dir, q, tag)[0]


def _compute(args, q: int) -> ek_mod.EKResult:
    """compute_ek for q with args.method, on the tables the cache has;
    compute_ek evaluates the others.  The parts of every table the method
    uses pass cache_mod.parts first, so a header fault stops the run
    before any route starts."""
    ctx = build_context(q)
    cache_dir = _cache_dir(args)
    if cache_dir:
        for tag in ek_mod.METHOD_TAGS[args.method]:
            cache_mod.parts(cache_dir, q, tag)
    return ek_mod.compute_ek(ctx, _cached(args, q), method=args.method)


def cmd_compute(args) -> int:
    res = _compute(args, args.q)
    d = args.digits
    lines = [f"q = {res.q}"]
    lines += [f"{name} = {_fmt(getattr(res, name), d)}"
              for name in RESULT_FIELDS]
    lines.append(f"method = {res.method}")
    if res.method_discrepancy is not None:
        lines.append(f"method_discrepancy = {_fmt(res.method_discrepancy, d)}")
    print("\n".join(lines))
    return EXIT_OK


def _scan_row(q: int, args) -> str:
    res = _compute(args, q)
    cells = [str(q)] + [_fmt(getattr(res, name), args.digits)
                        for name in RESULT_FIELDS]
    cells.append(_fmt(offsets_mod.v_of_q(q), args.digits)
                 if args.with_vq else "")
    return ",".join(cells)


def cmd_scan(args) -> int:
    if args.q_min > args.q_max:
        raise UsageError(f"empty range [{args.q_min}, {args.q_max}]")
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, not {args.threads}")
    primes = [q for q in range(max(3, args.q_min) | 1, args.q_max + 1, 2)
              if is_prime(q)]
    # the pool starts a thread per submitted row while none is idle
    workers = min(args.threads, os.cpu_count() or 1)
    with concurrent.futures.ThreadPoolExecutor(workers) as pool:
        rows = list(pool.map(lambda q: _scan_row(q, args), primes))
    _emit("\n".join([CSV_HEADER] + rows) + "\n", args.out)
    return EXIT_OK


def cmd_precompute(args) -> int:
    q = args.q
    ctx = build_context(q)      # a composite q makes no cache directory
    if args.range and args.range[0] >= args.range[1]:
        raise UsageError(f"--range {args.range[0]} {args.range[1]} is "
                         f"empty; K0 must be below K1")
    tag = FunctionTag(args.tag)
    k_lo, k_hi = args.range or cache_mod.full_range(q, tag)
    cache_mod.check_range(q, tag, k_lo, k_hi)   # nor does a range past it
    cache_dir = _cache_dir(args, required=True)
    cache_dir.mkdir(parents=True, exist_ok=True)
    path = cache_mod.part_to_write(cache_dir, q, tag, k_lo, k_hi)
    cache_mod.save(cache_mod.precompute(ctx, tag, (k_lo, k_hi)), path)
    print(path)
    return EXIT_OK


def cmd_merge(args) -> int:
    q = args.q
    cache_dir = _cache_dir(args, required=True)
    tag = FunctionTag(args.tag)
    out = Path(args.out).resolve() if args.out else None
    if out and out.parent == cache_dir.resolve() and out.match(
            cache_mod.part_filename(tag, q, "*")):
        raise UsageError(f"--out {args.out} would be read as a "
                         f"{tag.value} part for q={q} in {cache_dir}")
    merged, paths = cache_mod.find(cache_dir, q, tag)
    if merged is None:
        raise UsageError(f"no {tag.value} parts for q={q} under {cache_dir}")
    if args.out:
        out = cache_mod.save(merged, args.out)
    else:
        # replace the chunks by one table, but unlink them only once the
        # merged file has been written, read back and verified
        out = cache_dir / cache_mod.part_filename(tag, q, merged.k_lo)
        staged = cache_mod.save(merged, out.with_name(f".{out.name}.merged"))
        del merged      # the read-back holds a table of its own
        try:
            cache_mod.load(staged)
            os.replace(staged, out)
        finally:
            staged.unlink(missing_ok=True)
        for p in paths:
            if p != out:
                p.unlink()
    print(out)
    return EXIT_OK


def cmd_checksum(args) -> int:
    q = args.q
    ctx = build_context(q)
    tag = FunctionTag(args.tag)
    table = _cached(args, q)(tag) or cache_mod.precompute(ctx, tag)
    # checksum_residual refuses a table short of the full range
    print(f"residual = {table.checksum_residual():.6e} "
          f"(tolerance {cache_mod.checksum_tolerance(table):.6e})")
    cache_mod.check_closed_form(table)
    return EXIT_OK


def cmd_stieltjes(args) -> int:
    table = stieltjes_mod.build_table(args.q, args.kmax)
    lines = ["k,a,value"]
    for k, row in enumerate(table.values.reshape(-1, table.q).tolist()):
        lines += [f"{k},{a},{_fmt(v, args.digits)}"
                  for a, v in enumerate(row, 1)]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_gamma_n(args) -> int:
    print(_fmt(gamma_n(args.n), args.digits))
    return EXIT_OK


def cmd_offsets(args) -> int:
    seq = offsets_mod.greedy_offsets(args.count)
    _emit("\n".join(str(b) for b in seq.b) + "\n", args.out)
    return EXIT_OK


def cmd_vq(args) -> int:
    print(_fmt(offsets_mod.v_of_q(args.q), args.digits))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ek",
        description="Euler-Kronecker constants of prime cyclotomic fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary, *ints, digits=False, cache=False,
                method=False, tag=False, out=False):
        """A subcommand with the integer positionals ints and the shared
        options it asks for."""
        p = sub.add_parser(name, help=summary)
        for arg in ints:
            p.add_argument(arg, type=int)
        if method:
            p.add_argument("--method", choices=ek_mod.METHOD_TAGS,
                           default=ek_mod.METHOD_S)
        if tag:
            p.add_argument("--tag", required=True,
                           choices=[t.value for t in FunctionTag])
        if out:
            p.add_argument("--out", default=None)
        if digits:
            p.add_argument("--digits", type=int, default=15,
                           choices=range(1, MAX_DIGITS + 1), metavar="N",
                           help="significant digits in printed values, "
                                f"1..{MAX_DIGITS}")
        if cache:
            p.add_argument("--cache", default=None,
                           help="cache directory (default $EK_CACHE_DIR)")
        p.set_defaults(func=func)
        return p

    command("compute", cmd_compute, "constants for one odd prime", "q",
            digits=True, cache=True, method=True)
    p = command("scan", cmd_scan, "CSV of constants over a prime range",
                "q_min", "q_max", digits=True, cache=True, method=True,
                out=True)
    p.add_argument("--with-vq", action="store_true", dest="with_vq")
    p.add_argument("--threads", type=int, default=1,
                   help="worker bound, at most the CPU count; results "
                        "do not depend on it")
    p = command("precompute", cmd_precompute, "write a value-table chunk",
                "q", cache=True, tag=True)
    p.add_argument("--range", type=int, nargs=2, metavar=("K0", "K1"))
    command("merge", cmd_merge, "merge cached chunks of one table", "q",
            cache=True, tag=True, out=True)
    command("checksum", cmd_checksum, "closed-form residual of a cache", "q",
            cache=True, tag=True)
    p = command("stieltjes", cmd_stieltjes, "gamma_k(a,q) table", "q",
                digits=True, out=True)
    p.add_argument("--kmax", type=int, default=1)
    command("gamma-n", cmd_gamma_n, "generalized Euler constant", "n",
            digits=True)
    command("offsets", cmd_offsets, "greedy prime-offset sequence", "count",
            out=True)
    command("vq", cmd_vq, "offset score v(q)", "q", digits=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (UsageError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, ArithmeticError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def app() -> None:
    raise SystemExit(main())
