"""Command-line front end: emit the maximal-line table, the basis table,
the two partition grids, and run the end-to-end duality verification.

Output goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .bases import (
    DualityViolation,
    NotWeaklyUnbiased,
    OverlapCategory,
    build_wmub,
    check_hilbert_cap,
    conjugation_bound,
    duality_report,
    partitions_hold,
    unitarity_bound,
)
from .geometry import (
    catalog_layout,
    maximal_line_catalog,
    pair_census,
    partition_lines,
    redundancy,
    sweep_entries,
    sweep_value,
)
from .hilbert import DimTooLarge
from .zring import InvalidDims, ModulusTooLarge, crt_context, dedekind_psi

USAGE_ERROR = 2
VERIFY_ERROR = 1


class UsageError(ValueError):
    """A command-line value outside the range the command accepts."""


class _Parser(argparse.ArgumentParser):
    """Raises UsageError instead of printing the usage block and exiting."""

    def error(self, message: str):
        raise UsageError(f"{self.prog}: {message}")


@dataclass
class Document:
    """A renderable table with a stable JSON shape."""

    kind: str
    d1: int
    d2: int
    d: int
    columns: list[str]
    cells: list[list[str]]
    json_rows: list[dict]
    table_header: bool = False

    def to_table(self) -> str:
        rows = [self.columns] if self.table_header else []
        rows.extend(self.cells)
        return "\n".join(" | ".join(row) for row in rows)

    def to_csv(self) -> str:
        rows = [self.columns, *self.cells]
        return "\n".join(",".join(row) for row in rows)

    def to_json(self) -> str:
        payload = {
            "d": self.d,
            "d1": self.d1,
            "d2": self.d2,
            "kind": self.kind,
            "rows": self.json_rows,
        }
        return json.dumps(payload, indent=2)

    def render(self, fmt: str) -> str:
        if fmt == "table":
            return self.to_table()
        if fmt == "csv":
            return self.to_csv()
        return self.to_json()


def _factor_token(slot: int, lam: int | None) -> str:
    # The swept factors keep the signed parameter notation of their labels.
    return f"X{slot}" if lam is None else f"X{slot}(0,1|-1,{-lam})"


def lines_document(d1: int, d2: int) -> Document:
    ctx = crt_context(d1, d2)
    catalog = maximal_line_catalog(ctx)
    table = np.concatenate(
        [catalog.generators, catalog.matrices, catalog.comps.reshape(-1, 4), catalog.components],
        axis=1,
    ).tolist()
    cells = []
    json_rows = []
    for index, (nu, mu, k, l, m, n, a1, b1, a2, b2, i1, i2) in enumerate(table, start=1):
        row = [f"L_{index}", f"L({nu},{mu})", f"g({k},{l}|{m},{n})", f"L1({a1},{b1})", f"L2({a2},{b2})"]
        cells.append(row)
        json_rows.append(
            {
                "index": index,
                "generator": row[1],
                "matrix": row[2],
                "component1": row[3],
                "component2": row[4],
                "sweep1": sweep_value(i1),
                "sweep2": sweep_value(i2),
            }
        )
    columns = ["index", "generator", "matrix", "component1", "component2"]
    return Document("lines", d1, d2, ctx.d, columns, cells, json_rows)


def wmub_document(d1: int, d2: int) -> Document:
    # The labels of `build_wmub`, without its prime-dimension factor families.
    ctx = crt_context(d1, d2)
    check_hilbert_cap(ctx)
    components = catalog_layout(ctx).components
    labels = zip(components.tolist(), sweep_entries(ctx, components).tolist())
    cells = []
    json_rows = []
    for j, ((i1, i2), (k, l, m, n)) in enumerate(labels, start=1):
        row = [
            f"B_{j}",
            f"X({k},{l}|{m},{n})",
            _factor_token(1, sweep_value(i1)),
            _factor_token(2, sweep_value(i2)),
        ]
        cells.append(row)
        json_rows.append(
            {"index": j, "label": row[1], "factor1": row[2], "factor2": row[3]}
        )
    columns = ["index", "label", "factor1", "factor2"]
    return Document("wmub", d1, d2, ctx.d, columns, cells, json_rows)


def partitions_document(d1: int, d2: int, side: str) -> Document:
    ctx = crt_context(d1, d2)
    if side == "lines":
        sets = partition_lines(ctx)
        set_prefix, member_prefix = "S", "L"
    else:
        # The sets `partition_bases` returns; no factor family is built.
        check_hilbert_cap(ctx)
        sets = catalog_layout(ctx).sets
        set_prefix, member_prefix = "T", "B"
    columns = [f"{set_prefix}_{n}" for n in range(len(sets))]
    cells = [
        [f"{member_prefix}_{sets[n][i]}" for n in range(len(sets))]
        for i in range(d1 + 1)
    ]
    json_rows = [
        {"set": columns[n], "members": [f"{member_prefix}_{k}" for k in sets[n]]}
        for n in range(len(sets))
    ]
    return Document(
        f"partitions-{side}", d1, d2, ctx.d, columns, cells, json_rows, table_header=True
    )


# ---------------------------------------------------------------------------
# verification pipeline
# ---------------------------------------------------------------------------

@dataclass
class Verification:
    d1: int
    d2: int
    d: int
    checks: list[dict] = field(default_factory=list)
    overlap_counts: tuple[int, int, int] | None = None
    redundancy: Fraction | None = None
    failed: str | None = None

    def record(self, name: str, ok: bool, detail: str) -> bool:
        self.checks.append({"check": name, "ok": ok, "detail": detail})
        if not ok and self.failed is None:
            self.failed = name
        return ok

    @property
    def ok(self) -> bool:
        return self.failed is None

    def summary(self) -> str:
        if not self.ok:
            failing = next(c for c in self.checks if not c["ok"])
            return f"FAIL {failing['check']}: {failing['detail']}"
        a, b, c = self.overlap_counts
        total = a + b + c
        return (
            f"pairs: {total} | d1^{{-1/2}}:{a} d2^{{-1/2}}:{b} d^{{-1/2}}:{c}"
            f" | duality: OK | redundancy: {self.redundancy}"
        )


def run_verification(d1: int, d2: int, tol: float) -> Verification:
    """Run the whole pipeline with every numeric gate at `tol`.

    Usage errors raise before any check runs: InvalidDims, DimTooLarge, and
    UsageError for a tolerance that is not in [0, 1/(2d)], half the
    smallest gap between the admissible squared overlaps.
    """
    ctx = crt_context(d1, d2)
    ceiling = 0.5 / ctx.d
    if not 0 <= tol <= ceiling:  # also rejects nan
        raise UsageError(
            f"--tolerance must lie in [0, 1/(2d)] = [0, {ceiling:.4g}] at d={ctx.d}, got {tol:g}"
        )
    check_hilbert_cap(ctx)
    v = Verification(d1, d2, ctx.d)
    psi = dedekind_psi(ctx.d)

    # The catalog and the line classifier cross-check two routes each and
    # raise RuntimeError on disagreement; that fails the check by name.
    try:
        catalog = maximal_line_catalog(ctx)
    except RuntimeError as err:
        v.record("catalog", False, str(err))
        return v
    if not v.record("catalog", len(catalog) == psi, f"{len(catalog)} maximal lines"):
        return v

    try:
        counts = pair_census(ctx, catalog)
    except RuntimeError as err:
        v.record("line-census", False, str(err))
        return v
    want = {ctx.d2: ctx.d1 * psi // 2, ctx.d1: ctx.d2 * psi // 2, 1: ctx.d * psi // 2}
    detail = f"{counts[ctx.d2]}/{counts[ctx.d1]}/{counts[1]} by intersection {ctx.d2}/{ctx.d1}/1"
    if not v.record("line-census", counts == want, detail):
        return v

    # Built only after the catalog check has certified the context, whose
    # sweep matrices the labels are.  Both gates read the prime-dimension
    # factor families; each reported value bounds the residual of every
    # d x d basis from above.
    s = build_wmub(ctx)
    defect = unitarity_bound(s)
    if not v.record(
        "unitarity", defect <= tol, f"max defect {defect:.3e} vs tolerance {tol:g}"
    ):
        return v

    try:
        defect = conjugation_bound(s)
    except RuntimeError as err:
        v.record("conjugation", False, str(err))
        return v
    if not v.record(
        "conjugation", defect <= tol, f"max residual {defect:.3e} vs tolerance {tol:g}"
    ):
        return v

    # One pass over the basis pairs gives both the overlap census and the
    # duality check; a mismatch is reported only if the counts are right.
    try:
        report = duality_report(catalog, s, tol)
    except NotWeaklyUnbiased as err:
        v.record("overlap-census", False, str(err))
        return v
    except DualityViolation as err:
        census, violation = err.overlap_census, str(err)
    else:
        census, violation = report.overlap_census, None
    counts3 = (
        census[OverlapCategory.SUB_D1],
        census[OverlapCategory.SUB_D2],
        census[OverlapCategory.FULL],
    )
    expected3 = (ctx.d1 * psi // 2, ctx.d2 * psi // 2, ctx.d * psi // 2)
    if not v.record(
        "overlap-census", counts3 == expected3, f"{counts3} expected {expected3}"
    ):
        return v
    v.overlap_counts = counts3

    detail = violation or f"{sum(counts3)} pairs matched"
    if not v.record("duality", violation is None, detail):
        return v

    holds = partitions_hold(catalog, s, report)
    if not v.record("partitions", holds, "line and basis grids compared"):
        return v

    r = redundancy(ctx.d)
    identity_holds = r * (ctx.d * ctx.d - 1) + (ctx.d * ctx.d - 1) == psi * (ctx.d - 1)
    v.record("redundancy", identity_holds, f"value {r}")
    v.redundancy = r
    return v


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def _add_dims(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--d1", type=int, required=True, help="smaller odd prime factor")
    parser.add_argument("--d2", type=int, required=True, help="larger odd prime factor")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="wmub",
        description=(
            "Tables and checks for the phase-plane line geometry and the weak "
            "mutually unbiased bases of a two-odd-prime dimension d = d1*d2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lines = sub.add_parser("lines", help="emit the maximal-line table")
    _add_dims(p_lines)
    p_lines.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_wmub = sub.add_parser("wmub", help="emit the basis table")
    _add_dims(p_wmub)
    p_wmub.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_part = sub.add_parser("partitions", help="emit a partition grid")
    _add_dims(p_part)
    p_part.add_argument("--side", choices=("lines", "bases"), default="lines")
    p_part.add_argument("--format", choices=("table", "csv", "json"), default="table")

    p_verify = sub.add_parser("verify", help="run the full duality verification")
    _add_dims(p_verify)
    p_verify.add_argument("--tolerance", type=float, default=1e-9)
    p_verify.add_argument("--json", action="store_true")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args leaves the parser unchanged, and
    # building it costs about 15 times as much as parsing one argv.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "lines":
            print(lines_document(args.d1, args.d2).render(args.format))
        elif args.command == "wmub":
            print(wmub_document(args.d1, args.d2).render(args.format))
        elif args.command == "partitions":
            print(partitions_document(args.d1, args.d2, args.side).render(args.format))
        else:
            v = run_verification(args.d1, args.d2, args.tolerance)
            if args.json:
                rows = [*v.checks, {"check": "summary", "ok": v.ok, "detail": v.summary()}]
                doc = Document("verify", args.d1, args.d2, args.d1 * args.d2, [], [], rows)
                print(doc.to_json())
            else:
                print(v.summary())
            return 0 if v.ok else VERIFY_ERROR
    except (ModulusTooLarge, DimTooLarge, UsageError) as err:
        print(err, file=sys.stderr)
        return USAGE_ERROR
    except InvalidDims:
        print("d1 and d2 must be distinct odd primes with d1<d2", file=sys.stderr)
        return USAGE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
