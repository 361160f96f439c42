"""Command-line front end: emit the maximal-line table, the basis table,
the two partition grids, and run the end-to-end duality verification.

Output goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error; a process of its own also exits
74 when stdout cannot be written and 141 when its reader closed the pipe.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TextIO

import numpy as np

from .bases import (
    OVERLAP_ATOL,
    NotWeaklyUnbiased,
    PairCertificate,
    _check_tolerance,
    build_wmub,
    unitarity_bound,
)
from .geometry import (
    DetNotOne,
    MaximalLineCatalog,
    catalog_layout,
    catalog_rows,
    check_point_map,
    maximal_line_catalog,
    pair_census,
    partition_lines,
    redundancy,
    sweep_entries,
    sweep_value,
)
from .hilbert import MAX_DIM, DimTooLarge
from .zring import CrtContext, InvalidDims, ModulusTooLarge, crt_context, dedekind_psi

USAGE_ERROR = 2
VERIFY_ERROR = 1


class UsageError(ValueError):
    """A command-line value outside the range the command accepts."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing the usage block and exiting."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


# Values per block: a table is made, formatted and written one block at a
# time, never whole; a row wider than a block is a block of its own.
BLOCK = 1 << 17


def _formats(kind: str, d1: int, d2: int, fields: dict[str, str], columns=(), cells=(), table_head=""):
    """Head, row template, glue between rows and tail per format: "table" and
    "csv" join the cells, under a header line or none; "json" writes what
    `json.dumps(payload, indent=2)` writes, a row per object of fields."""
    body = ",\n".join(f'      "{key}": {value}' for key, value in fields.items())
    head = '{\n  "d": %d,\n  "d1": %d,\n  "d2": %d,\n  "kind": "%s",\n  "rows": [\n' % (d1 * d2, d1, d2, kind)
    return {
        "table": (table_head, " | ".join(cells), "\n", "\n"),
        "csv": (",".join(columns) + "\n", ",".join(cells), "\n", "\n"),
        "json": (head, "    {\n" + body + "\n    }", ",\n", "\n  ]\n}\n"),
    }


@dataclass
class Document:
    """A table with a stable JSON shape, made and written in blocks of rows:
    `formats` maps each format to its head, the `%` template of one row, the
    glue between rows and the tail, and `values(fmt, lo, hi)` makes the flat
    values that fill the rows lo..hi-1 of a format, fewer past the last row,
    or none.  No table is empty.
    """

    kind: str
    formats: dict[str, tuple[str, str, str, str]]
    values: Callable[[str, int, int], list]

    def render(self, fmt: str, out: TextIO) -> None:
        head, row, glue, tail = self.formats[fmt]
        width = row.count("%")
        rows = max(1, BLOCK // width)
        out.write(head)
        sep = ""
        for lo in itertools.count(0, rows):
            values = self.values(fmt, lo, lo + rows)
            if not values:
                break
            out.write(sep + glue.join([row] * (len(values) // width)) % tuple(values))
            sep = glue
            if len(values) < rows * width:  # the last row: ask for no empty block
                break
        # The tail is its own write: a write cut short by a closed pipe
        # raises nothing, so a later one must.
        out.write(tail)


def lines_document(d1: int, d2: int) -> Document:
    ctx = crt_context(d1, d2)
    check_point_map(ctx)
    components = catalog_layout(ctx)
    # The JSON sweep of each component index: null, or the sweep value itself.
    sweeps = [["null" if lam is None else lam for lam in map(sweep_value, range(p + 1))] for p in (d1, d2)]
    columns = ["index", "generator", "matrix", "component1", "component2"]
    cells = ["L(%d,%d)", "g(%d,%d|%d,%d)", "L1(%d,%d)", "L2(%d,%d)"]
    fields = dict(zip(columns, ["%d", *(f'"{t}"' for t in cells)]), sweep1="%s", sweep2="%s")

    def values(fmt: str, lo: int, hi: int) -> list:
        # Each block is checked as it is made: only the layout is held whole.
        cols = np.column_stack(catalog_rows(ctx, components[lo:hi], lo)).T.tolist()
        if fmt == "json":
            cols += [[s[i] for i in col] for s, col in zip(sweeps, components[lo:hi].T.tolist())]
        return list(itertools.chain.from_iterable(zip(range(lo + 1, hi + 1), *cols)))

    return Document("lines", _formats("lines", d1, d2, fields, columns, ["L_%d", *cells]), values)


def wmub_document(d1: int, d2: int) -> Document:
    # The labels and slots of `build_wmub`, from the layout and the sweep
    # table alone: no catalog and no prime-dimension factor family.
    ctx = crt_context(d1, d2)
    components = catalog_layout(ctx)
    # The swept factors keep the signed parameter notation of their labels.
    factors = [[f"X{n}" if lam is None else f"X{n}(0,1|-1,{-lam})" for lam in map(sweep_value, range(p + 1))]
               for n, p in ((1, d1), (2, d2))]
    columns = ["index", "label", "factor1", "factor2"]
    cells = ["X(%d,%d|%d,%d)", "%s", "%s"]
    fields = dict(zip(columns, ["%d", *(f'"{t}"' for t in cells)]))

    def values(fmt: str, lo: int, hi: int) -> list:
        labels = sweep_entries(ctx, components[lo:hi], lo)
        tokens = [[f[i] for i in col] for f, col in zip(factors, components[lo:hi].T.tolist())]
        return list(itertools.chain.from_iterable(zip(range(lo + 1, hi + 1), *labels.T.tolist(), *tokens)))

    return Document("wmub", _formats("wmub", d1, d2, fields, columns, ["B_%d", *cells]), values)


def partitions_document(d1: int, d2: int, side: str) -> Document:
    sets = partition_lines(crt_context(d1, d2))
    set_prefix, member_prefix = ("S", "L") if side == "lines" else ("T", "B")
    columns = [f"{set_prefix}_{n}" for n in range(len(sets))]
    members = ",\n".join([f'        "{member_prefix}_%d"'] * (d1 + 1))
    fields = {"set": f'"{set_prefix}_%d"', "members": f"[\n{members}\n      ]"}

    def values(fmt: str, lo: int, hi: int) -> list:
        # The table is the transpose of the JSON rows: one row per member
        # position, one JSON object per set.
        if fmt != "json":
            return sets.T[lo:hi].ravel().tolist()
        return list(itertools.chain.from_iterable(zip(range(lo, hi), *sets[lo:hi].T.tolist())))

    kind, cells = f"partitions-{side}", [f"{member_prefix}_%d"] * len(sets)
    return Document(kind, _formats(kind, d1, d2, fields, columns, cells, " | ".join(columns) + "\n"), values)


# ---------------------------------------------------------------------------
# verification pipeline
# ---------------------------------------------------------------------------

# The verify ladder, in the order its checks run.
CHECKS = (
    "catalog", "line-census", "unitarity", "conjugation",
    "overlap-census", "duality", "partitions", "redundancy",
)


@dataclass
class Verification:
    """The checks run so far; `run_verification` stops at the first failure,
    so a failing check is always the last."""

    checks: list[dict] = field(default_factory=list)
    overlap_counts: tuple[int, int, int] | None = None
    redundancy: Fraction | None = None

    @property
    def ok(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def summary(self) -> str:
        if not self.ok:
            failing = self.checks[-1]
            return f"FAIL {failing['check']}: {failing['detail']}"
        a, b, c = self.overlap_counts
        total = a + b + c
        return (
            f"pairs: {total} | d1^{{-1/2}}:{a} d2^{{-1/2}}:{b} d^{{-1/2}}:{c}"
            f" | duality: OK | redundancy: {self.redundancy}"
        )


@functools.cache
def verified_catalog(ctx: CrtContext) -> MaximalLineCatalog:
    """The `maximal_line_catalog` of a context, checked once per process, with
    its `pair_classes` kept on it: neither depends on the tolerance.  Only
    `verify` reads it, after `run_verification` has capped d at MAX_DIM, so
    it holds at most the 16 supported catalogs; a raise is not cached, so a
    broken context fails on every call."""
    return maximal_line_catalog(ctx)


_CacheInfo = namedtuple("CacheInfo", ["hits", "misses", "maxsize", "currsize"])


class _KeptPairs:
    """`verified_pairs(ctx)`: the `PairCertificate` of the verified catalog of
    a context and of the basis set `build_wmub` makes of it, kept once per
    process: none of its facts reads the tolerance.  Each fact is computed
    on first use and one that raises is not kept.  Like `verified_catalog`,
    only `verify`'s ladder reads it, after the cap, so it holds at most the
    16 supported contexts; it keeps no array per pair beyond the catalog's
    own `pair_classes`.

    A `functools.cache` of the context, with its `cache_info` and
    `cache_clear`, except that `keep` replaces the entry of a context: the
    ladder keeps the certificate of the set `build_wmub` now makes when the
    kept one no longer certifies it, as after `factor_family.cache_clear()`.
    """

    def __init__(self) -> None:
        self._kept: dict[CrtContext, PairCertificate] = {}
        self._hits = self._misses = 0

    def __call__(self, ctx: CrtContext) -> PairCertificate:
        certificate = self._kept.get(ctx)
        if certificate is None:
            self._misses += 1
            certificate = self._kept[ctx] = PairCertificate.of(verified_catalog(ctx))
        else:
            self._hits += 1
        return certificate

    def keep(self, ctx: CrtContext, certificate: PairCertificate) -> None:
        self._kept[ctx] = certificate

    def cache_info(self) -> _CacheInfo:
        return _CacheInfo(self._hits, self._misses, None, len(self._kept))

    def cache_clear(self) -> None:
        self._kept.clear()
        self._hits = self._misses = 0


verified_pairs = _KeptPairs()


def _ladder(ctx: CrtContext, tol: float, v: Verification):
    """Yield (ok, detail) for each check of CHECKS in turn."""
    psi = dedekind_psi(ctx.d)
    # Unordered pairs meeting in d2, d1 and 1 points; the overlap census
    # counts the same pairs by squared overlap 1/d1, 1/d2 and 1/d.
    expected = (ctx.d1 * psi // 2, ctx.d2 * psi // 2, ctx.d * psi // 2)

    # The catalog and the line classifier cross-check two routes each and
    # raise RuntimeError on disagreement; that fails the check by name.
    catalog = verified_catalog(ctx)
    yield len(catalog) == psi, f"{len(catalog)} maximal lines"

    counts = tuple(pair_census(catalog).values())  # keyed d2, d1, 1
    detail = f"{counts[0]}/{counts[1]}/{counts[2]} by intersection {ctx.d2}/{ctx.d1}/1"
    yield counts == expected, detail

    # Built from the certified catalog, whose component indices and sweep
    # matrices are the slots and labels.  Both gates read the
    # prime-dimension factor families; each reported value bounds the
    # residual of every d x d basis from above.
    s = build_wmub(catalog)
    defect = unitarity_bound(s)
    yield defect <= tol, f"max defect {defect:.3e} vs tolerance {tol:g}"

    # What reads no tolerance is certified once per context and kept, so a
    # warm call only compares.  The set `build_wmub` now makes of the
    # verified catalog is certified afresh and kept in place of one it no
    # longer is, as after its families were rebuilt; a set made any other
    # way, or paired with another catalog, is certified afresh and kept
    # nowhere.
    certificate = verified_pairs(ctx)
    if not certificate.certifies(catalog, s):
        certificate = PairCertificate(catalog, s)
        if PairCertificate.of(catalog).certifies(catalog, s):
            verified_pairs.keep(ctx, certificate)
    defect = certificate.conjugation
    yield defect <= tol, f"max residual {defect:.3e} vs tolerance {tol:g}"

    # The overlap census and the duality check come from one certificate:
    # inside its window every pair's class is its line's, and outside it
    # the basis pair pass runs; a mismatch is reported only if the counts
    # are right.
    report = certificate.duality(tol)
    v.overlap_counts = tuple(report.overlap_census.values())  # in OverlapCategory order
    yield v.overlap_counts == expected, f"{v.overlap_counts} expected {expected}"

    yield report.mismatch is None, report.mismatch or f"{sum(expected)} pairs matched"

    yield certificate.partitions_hold(tol), "line and basis grids compared"

    v.redundancy = r = redundancy(ctx.d)
    identity_holds = r * (ctx.d * ctx.d - 1) + (ctx.d * ctx.d - 1) == psi * (ctx.d - 1)
    yield identity_holds, f"value {r}"


def run_verification(d1: int, d2: int, tol: float) -> Verification:
    """Run the whole pipeline with every numeric gate at `tol`.

    Usage errors raise before any check runs: InvalidDims, UsageError for a
    tolerance that is not in [0, 1/(2d)], half the smallest gap between the
    admissible squared overlaps, and DimTooLarge for d above MAX_DIM.  A
    cross-check that raises fails the check being run with its message;
    the ladder stops at the first failing check.
    """
    ctx = crt_context(d1, d2)
    try:
        _check_tolerance(tol, ctx.d)
    except ValueError as err:
        raise UsageError(f"--{err}") from None
    tol = abs(tol)  # -0.0 passes the range check; the details print 0
    if ctx.d > MAX_DIM:
        raise DimTooLarge(f"d1*d2 = {ctx.d} exceeds the Hilbert-space cap {MAX_DIM}")
    v = Verification()
    ladder = _ladder(ctx, tol, v)
    for name in CHECKS:
        try:
            ok, detail = next(ladder)
        except (RuntimeError, DetNotOne, NotWeaklyUnbiased) as err:
            ok, detail = False, str(err)
        v.checks.append({"check": name, "ok": ok, "detail": detail})
        if not ok:
            break
    return v


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_dims(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d1", type=int, required=True, help="smaller odd prime factor")
    parser.add_argument("--d2", type=int, required=True, help="larger odd prime factor")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it costs about 15 times as much as parsing one argv.
    parser = _Parser(
        prog="wmub",
        description=(
            "Tables and checks for the phase-plane line geometry and the weak "
            "mutually unbiased bases of a two-odd-prime dimension d = d1*d2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each subcommand's own parser, by name, for `parse` to hand argv to.
    parser.commands = {}

    tables = {"lines": "the maximal-line table", "wmub": "the basis table", "partitions": "a partition grid"}
    for command, table in tables.items():
        p_table = parser.commands[command] = sub.add_parser(command, help=f"emit {table}")
        _add_dims(p_table)
        if command == "partitions":
            p_table.add_argument("--side", choices=("lines", "bases"), default="lines")
        p_table.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_verify = parser.commands["verify"] = sub.add_parser("verify", help="run the full duality verification")
    _add_dims(p_verify)
    p_verify.add_argument("--tolerance", type=float, default=OVERLAP_ATOL)
    p_verify.add_argument("--json", action="store_true")
    return parser


def parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)` in one argparse pass: an argv that
    starts with a subcommand goes straight to that subcommand's parser, and
    what it leaves over is refused through the top-level parser's `error`,
    in the top-level parse's words; any other argv goes to the top-level
    parser."""
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extras = command.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse(sys.argv[1:] if argv is None else list(argv))
        code = 0
        if args.command == "lines":
            doc = lines_document(args.d1, args.d2)
        elif args.command == "wmub":
            doc = wmub_document(args.d1, args.d2)
        elif args.command == "partitions":
            doc = partitions_document(args.d1, args.d2, args.side)
        else:
            v = run_verification(args.d1, args.d2, args.tolerance)
            code = 0 if v.ok else VERIFY_ERROR
            if not args.json:
                print(v.summary())
                return code
            # The one output with free text: each value is escaped as JSON.
            checks = [*v.checks, {"check": "summary", "ok": v.ok, "detail": v.summary()}]
            values = [json.dumps(value) for check in checks for value in check.values()]
            formats = _formats("verify", args.d1, args.d2, dict.fromkeys(checks[0], "%s"))
            doc = Document("verify", formats, lambda _, lo, hi: values[3 * lo:3 * hi])
        # Every usage error has run; `verify --json` writes JSON.
        doc.render(getattr(args, "format", "json"), sys.stdout)
    except (ModulusTooLarge, DimTooLarge, UsageError) as err:
        print(err, file=sys.stderr)
        return USAGE_ERROR
    except InvalidDims:
        print("d1 and d2 must be distinct odd primes with d1<d2", file=sys.stderr)
        return USAGE_ERROR
    except (RuntimeError, DetNotOne) as err:  # a table's cross-check, after its earlier blocks
        print(f"wmub {args.command}: {err}", file=sys.stderr)
        return VERIFY_ERROR
    return code


if __name__ == "__main__":
    sys.exit(main())
