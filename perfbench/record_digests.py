"""Record the sha256 digest of every benchmark call's stdout in expected.json.

    python3 perfbench/record_digests.py

The digests in the repository were recorded from the commit that added the
benchmark, whose outputs match the goldens.  The wmub outputs are meant to
stay byte-identical, so re-recording is only for a deliberate output change.
"""

import json
import os
import sys

import run


def main() -> None:
    os.environ["OPENBLAS_NUM_THREADS"] = str(run.BLAS_THREADS)
    sys.path.insert(0, str(run.SRC))
    from wmub.cli import main as cli_main

    digests = {}
    for calls in run.WORKLOADS.values():
        for argv in calls:
            key = " ".join(argv)
            if key in run.GOLDENS or key in digests:
                continue
            _, code, out = run.call(cli_main, argv)
            if code != 0:
                raise SystemExit(f"{key}: exit code {code}")
            digests[key] = run.digest(out)
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")
    print(f"{len(digests)} digests written to {path}")


if __name__ == "__main__":
    main()
