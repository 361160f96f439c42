"""Record the frozen outputs of the wmub commands in tests/golden/digests.json.

    PYTHONPATH=src python tests/record_digests.py

One entry per call: its argv, exit code, the sha256 of its stdout and its
stderr.  The calls are the four tables in three formats at the 16 supported
d and at d = 3*10007, `verify` and `verify --json` at the 16 d, and the
usage errors.  `test_cli` replays every entry in process.  The outputs are
meant to stay byte-identical, so re-record only for a deliberate output
change, and say why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

MANIFEST = Path(__file__).parent / "golden" / "digests.json"

# The 16 d = d1*d2 up to the Hilbert cap of 105 that `verify` serves.
SUPPORTED_DIMS = [
    (3, 5), (3, 7), (3, 11), (3, 13), (3, 17), (3, 19), (3, 23), (3, 29), (3, 31),
    (5, 7), (5, 11), (5, 13), (5, 17), (5, 19), (7, 11), (7, 13),
]

TABLES = [["lines"], ["wmub"], ["partitions", "--side", "lines"], ["partitions", "--side", "bases"]]

USAGE_ERRORS = [
    ["verify", "--d1", "3", "--d2", "37"],  # d = 111, above the Hilbert cap
    ["lines", "--d1", "5", "--d2", "5"],
    ["wmub", "--d1", "5", "--d2", "3"],
    ["partitions", "--d1", "2", "--d2", "3"],
    ["verify", "--d1", "4", "--d2", "5"],
    ["lines", "--d1", "3", "--d2", "349529"],  # d above the 2**20 modulus cap
    ["verify", "--d1", "3", "--d2", "5", "--tolerance", "0.04"],  # above 1/(2d) = 1/30
    ["verify", "--d1", "3", "--d2", "5", "--tolerance", "nan"],
    ["verify", "--d1", "3", "--d2", "5", "--tolerance=-1e-9"],
]

# `verify --json` prints measured residuals, whose last digits depend on the
# BLAS kernel the CPU selects; they are masked before hashing, by the rule
# of perfbench/run.py.  No other output matches it.
MEASURED = re.compile(r"max (defect|residual) \S+ vs")


def calls() -> list[list[str]]:
    out = []
    for d1, d2 in [*SUPPORTED_DIMS, (3, 10007)]:
        dims = ["--d1", str(d1), "--d2", str(d2)]
        out += [[*table, *dims, "--format", fmt] for table in TABLES for fmt in ("table", "csv", "json")]
    for d1, d2 in SUPPORTED_DIMS:
        dims = ["verify", "--d1", str(d1), "--d2", str(d2)]
        out += [dims, [*dims, "--json"]]
    return out + USAGE_ERRORS


def run(argv: list[str]) -> dict:
    """One call in process, as a manifest entry."""
    from wmub.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    stdout = MEASURED.sub(r"max \1 * vs", out.getvalue())
    return {"argv": argv, "code": code, "stdout_sha256": hashlib.sha256(stdout.encode()).hexdigest(),
            "stderr": err.getvalue()}


def main() -> None:
    entries = [run(argv) for argv in calls()]
    MANIFEST.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"{len(entries)} entries written to {MANIFEST}")


if __name__ == "__main__":
    main()
