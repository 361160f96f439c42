"""The wmub benchmark: closed-loop CLI workloads with every output checked.

    python3 perfbench/run.py --workload verify-ladder --seed 1 --seconds 50 --trace 0

Run it from the root of a wmub checkout; it imports the package from
``src/`` and reads the goldens under ``tests/golden``.

One client drives the public entry point ``wmub.cli.main(argv)`` in this
process, in a closed loop: each call starts only after the previous one
returned.  A pass is the workload's call list in an order shuffled by the
seed; the seed changes nothing else, and the package receives nothing but
the argv lists.  One untimed pass warms up caches and the BLAS pool, then
passes are timed until ``--seconds`` is used up.

Every call is checked: its exit code must be 0, the d=15 tables must match
the goldens byte for byte, every other stdout must match the sha256 digest
recorded in ``expected.json`` (measured residuals masked), and each ``verify`` summary must match the
counts recomputed from closed forms.

With ``--trace 0`` the metrics are the end-to-end ones:

- ``setup_s``: median over fresh processes of the time from interpreter
  start to the end of the workload's first call, cold.  The probes run
  between the timed calls, spread evenly over the run.
- ``run_s``: mean time of one warm pass, summed over its calls.  A mean,
  not a median: the shared host's speed drifts in phases of 10-60 s, and a
  median of the few 8 s passes of verify-ladder jumps from one phase to
  the next, while the mean averages over all of them.
- ``call_s.p99``: latency over all calls of the timed passes.  The median
  and the 90th percentile are not reported: each falls on the edge between
  two call sizes in one workload (the median in verify-ladder, between d=35
  and d=91; the 90th percentile in cli-small-mix, between the d=21 and d=15
  ``verify`` calls) and jumps between them.
- ``peak_rss_mb``: peak resident memory of this process.

With ``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones from ``tracing.py``, averaged per traced pass, plus the
tracing overhead.  Spans and a run record (environment, per-pass times,
failures) are written to ``.bench_build/perfbench/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from tracing import COUNTERS, TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".bench_build" / "perfbench"

# One BLAS thread, fixed for every run: the matrices are at most 95 x 95,
# and `verify` at d=95 measured no faster with two threads on two cores.
BLAS_THREADS = 1
SETUP_PROBES = 9

GOLDENS = {
    "lines --d1 3 --d2 5": "lines_3_5.txt",
    "wmub --d1 3 --d2 5": "bases_3_5.txt",
    "partitions --d1 3 --d2 5 --side lines": "partitions_lines_3_5.txt",
    "partitions --d1 3 --d2 5 --side bases": "partitions_bases_3_5.txt",
}


def dims(d1: int, d2: int) -> list[str]:
    return ["--d1", str(d1), "--d2", str(d2)]


def small_mix() -> list[list[str]]:
    calls = []
    for d1, d2 in ((3, 5), (3, 7), (3, 11), (5, 7)):
        for command in (["lines"], ["wmub"], ["partitions", "--side", "lines"],
                        ["partitions", "--side", "bases"]):
            for fmt in ([], ["--format", "csv"], ["--format", "json"]):
                calls.append([command[0], *dims(d1, d2), *command[1:], *fmt])
        calls += [["verify", *dims(d1, d2)], ["verify", *dims(d1, d2), "--json"]]
    return calls


# The first call of each list is the one the set-up probes run cold.
WORKLOADS = {
    "verify-ladder": [["verify", *dims(d1, d2)] for d1, d2 in ((3, 5), (5, 7), (7, 13), (5, 19))],
    "cli-small-mix": small_mix(),
}


def factors(argv: list[str]) -> tuple[int, int]:
    return int(argv[argv.index("--d1") + 1]), int(argv[argv.index("--d2") + 1])


def psi(d1: int, d2: int) -> int:
    return (d1 + 1) * (d2 + 1)


def verify_summary(d1: int, d2: int) -> str:
    """The `verify` summary line, from closed forms alone."""
    d, n = d1 * d2, psi(d1, d2)
    r = Fraction(n, d + 1) - 1
    return (
        f"pairs: {n * (n - 1) // 2} | d1^{{-1/2}}:{d1 * n // 2} d2^{{-1/2}}:{d2 * n // 2}"
        f" d^{{-1/2}}:{d * n // 2} | duality: OK | redundancy: {r}"
    )


# `verify --json` prints measured residuals, whose last digits depend on which
# OpenBLAS kernel the CPU selects; they are masked before hashing.  Their
# size is still checked, through each row's `ok` flag.
MEASURED = re.compile(r"max (defect|residual) \S+ vs")


def digest(out: str) -> str:
    return hashlib.sha256(MEASURED.sub(r"max \1 * vs", out).encode()).hexdigest()


class Gate:
    """Decides whether one call's exit code and stdout are correct."""

    def __init__(self, goldens: dict[str, str], digests: dict[str, str]) -> None:
        self.goldens = goldens
        self.digests = digests

    @classmethod
    def load(cls) -> Gate:
        goldens = {key: (GOLDEN_DIR / name).read_text() for key, name in GOLDENS.items()}
        digests = json.loads((BENCH / "expected.json").read_text())
        return cls(goldens, digests)

    def check(self, argv: list[str], code, out: str) -> str | None:
        """None when the call is correct, else the reason it is not."""
        key = " ".join(argv)
        if code != 0:
            return f"exit code {code}"
        if key in self.goldens:
            return None if out == self.goldens[key] else "stdout differs from the golden file"
        if digest(out) != self.digests.get(key):
            return "stdout digest differs from expected.json"
        if argv[0] == "verify":
            want = verify_summary(*factors(argv))
            if "--json" in argv:
                rows = json.loads(out)["rows"]
                if not all(row["ok"] for row in rows) or rows[-1]["detail"] != want:
                    return "verify --json differs from the closed forms"
            elif out != want + "\n":
                return "verify summary differs from the closed forms"
        return None


def call(main, argv: list[str]) -> tuple[float, object, str]:
    """One CLI call: (seconds, exit code or error, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed call, not a failed benchmark
        traceback.print_exc()
        code = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, code, out.getvalue()


class Client:
    """The single closed-loop client: runs passes and tallies their outcome."""

    def __init__(self, cli, workload: str, seed: int, gate: Gate) -> None:
        self.cli = cli  # the module, so that a traced `main` is looked up per call
        self.workload = workload
        self.seed = seed
        self.calls = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.gate = gate
        self.attempted = 0
        self.failures: list[tuple[str, str]] = []

    def record(self, argv: list[str], code, out: str) -> None:
        self.attempted += 1
        reason = self.gate.check(argv, code, out)
        if reason is not None:
            self.failures.append((" ".join(argv), reason))
            print(f"FAILED {' '.join(argv)}: {reason}", file=sys.stderr)

    def run_pass(self, tracer: Tracer | None = None, before_call=None) -> list[float]:
        """One pass in a fresh shuffled order; returns the per-call seconds."""
        times = []
        for argv in self.rng.sample(self.calls, len(self.calls)):
            if before_call is not None:
                before_call()
            if tracer is not None:
                tracer.request += 1
            seconds, code, out = call(self.cli.main, argv)
            times.append(seconds)
            self.record(argv, code, out)
        return times


def until(seconds: float, round_) -> None:
    """Repeat `round_` while another round of median length still fits."""
    start = time.perf_counter()
    lengths: list[float] = []
    while True:
        begin = time.perf_counter()
        round_()
        lengths.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(lengths) > seconds:
            return


def setup_probe(argv: list[str]) -> tuple[float, object, str]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "probe.py"), json.dumps(argv)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        return 0.0, f"probe exited {proc.returncode}: {proc.stderr.strip()[-400:]}", ""
    report = json.loads(proc.stdout.splitlines()[-1])
    return report["done"] - start, report["code"], report["stdout"]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "none (not a git checkout)"
    return "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
    }


def end_to_end(client: Client, seconds: float) -> tuple[dict, dict]:
    client.run_pass()
    setup: list[float] = []
    probes = 0
    start = time.perf_counter()

    def probe(due: bool = True) -> None:
        # The probes are spread evenly over the timed window, between calls, so
        # that they meet the same phases of the shared host's speed as the passes.
        nonlocal probes
        while probes < SETUP_PROBES and (
                not due or time.perf_counter() - start >= probes * seconds / SETUP_PROBES):
            probes += 1
            elapsed, code, out = setup_probe(client.calls[0])
            if code == 0:
                setup.append(elapsed)
            client.record(client.calls[0], code, out)

    passes: list[list[float]] = []
    until(seconds, lambda: passes.append(client.run_pass(before_call=probe)))
    probe(due=False)
    run = [sum(p) for p in passes]
    calls = [t for p in passes for t in p]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh processes"),
        "run_s": (statistics.mean(run), "s", f"mean of {len(run)} passes"),
        "call_s.p99": (statistics.quantiles(calls, n=100, method="inclusive")[98], "s",
                       f"{len(calls)} calls"),
        "peak_rss_mb": (rss_mb, "MB", "this process"),
    }
    return metrics, {"setup_s": setup, "passes": passes}


def per_layer(client: Client, seconds: float) -> tuple[dict, dict]:
    tracer = Tracer()
    client.run_pass()
    plain: list[float] = []
    traced: list[float] = []

    def round_() -> None:
        plain.append(sum(client.run_pass()))
        tracer.install()
        try:
            traced.append(sum(client.run_pass(tracer)))
        finally:
            tracer.uninstall()

    until(seconds, round_)
    n = len(traced)
    pairs = sum(psi(*factors(a)) * (psi(*factors(a)) - 1) // 2
                for a in client.calls if a[0] == "verify")
    summary = tracer.summary()
    metrics = {}
    for module_name, qualname in TRACED:
        name = f"{module_name}.{qualname}"
        row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        metrics[f"{name}.calls"] = (row["calls"] / n, "count", "per pass")
        metrics[f"{name}.s"] = (row["s"] / n, "s", "inclusive, per pass")
        metrics[f"{name}.self_s"] = (row["self_s"] / n, "s", "minus child spans, per pass")
    for name in ("bases.classify_pair", "geometry.classify_line_pair"):
        calls = summary.get(name, {"calls": 0})["calls"] / n
        metrics[f"{name}.per_pair"] = (calls / pairs if pairs else 0.0, "calls/pair",
                                       f"over {pairs} unordered pairs per pass")
    for counter, unit, _ in COUNTERS.values():
        metrics[counter] = (tracer.counts[counter] / n, unit, "per pass, computed")
    overhead = statistics.mean(traced) - statistics.mean(plain)
    metrics["trace.overhead_s"] = (overhead, "s", f"traced minus untraced run_s, {n} passes each")
    metrics["trace.absent"] = (len(tracer.absent), "count", ", ".join(tracer.absent) or "none")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{client.workload}-seed{client.seed}.csv")
    return metrics, {"untraced_s": plain, "traced_s": traced}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in (SRC / "wmub" / "cli.py", GOLDEN_DIR) if not p.exists()]
    if missing:
        print(f"perfbench: not a wmub checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import wmub.cli

    env = environment()
    client = Client(wmub.cli, args.workload, args.seed, Gate.load())
    measure = per_layer if args.trace else end_to_end
    metrics, samples = measure(client, args.seconds)

    failed = len(client.failures)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    print("env " + json.dumps(env))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit:<10} {note}")
    print(f"{'failed_ratio':<42} {failed / client.attempted:>14.6g} {'ratio':<10} "
          f"{failed} of {client.attempted} calls")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"args": vars(args), "env": env, "samples": samples, "failures": client.failures,
              "metrics": {k: v[0] for k, v in metrics.items()}}
    (OUT_DIR / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
