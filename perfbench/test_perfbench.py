"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing

sys.path.insert(0, str(run.SRC))

import wmub.cli  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_with_its_unit(trace, section):
    proc = bench("--workload", "cli-small-mix", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) > 2}
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert {name: printed.get(name) for name in want} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("table", ["digests", "goldens"])
def test_corrupted_expectation_makes_failed_ratio_nonzero(table):
    gate = run.Gate.load()
    key = "lines --d1 3 --d2 7 --format csv" if table == "digests" else "wmub --d1 3 --d2 5"
    corrupted = dict(getattr(gate, table))
    corrupted[key] = corrupted[key][:-1] + ("0" if corrupted[key][-1] != "0" else "1")
    setattr(gate, table, corrupted)
    client = run.Client(wmub.cli, "cli-small-mix", 0, gate)
    client.run_pass()
    assert [k for k, _ in client.failures] == [key]
    assert len(client.failures) / client.attempted > 0


def test_verify_summary_is_checked_against_closed_forms():
    wrong = "pairs: 276 | d1^{-1/2}:36 d2^{-1/2}:60 d^{-1/2}:181 | duality: OK | redundancy: 1/2\n"
    argv = ["verify", "--d1", "3", "--d2", "5"]
    gate = run.Gate({}, {" ".join(argv): hashlib.sha256(wrong.encode()).hexdigest()})
    assert gate.check(argv, 0, wrong) == "verify summary differs from the closed forms"
    right = run.verify_summary(3, 5) + "\n"
    assert gate.check(argv, 0, right) == "stdout digest differs from expected.json"
    assert gate.check(argv, 1, right) == "exit code 1"


def test_tracer_reports_a_missing_name_as_absent(monkeypatch):
    monkeypatch.setattr(tracing, "TRACED", (*tracing.TRACED, ("bases", "no_such_function")))
    original = wmub.cli.maximal_line_catalog
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert wmub.cli.maximal_line_catalog is not original
        wmub.cli.main(["partitions", "--d1", "3", "--d2", "5", "--format", "json"])
    finally:
        tracer.uninstall()
    assert wmub.cli.maximal_line_catalog is original
    assert tracer.absent == ["bases.no_such_function"]
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["geometry.partition_lines"]["calls"] == 1
    assert summary["cli.main"]["self_s"] < summary["cli.main"]["s"]


def test_exits_nonzero_without_result_outside_a_checkout(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "verify-ladder", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
