"""Self-test of the benchmark on small configurations.

    python3 -m pytest -q perfbench/tests

The hidden workload `tiny` (A2, B2) runs in a few seconds; `sampled` (I2:9,
|W| = 18) is the smallest system whose ring and bimodule checks are sampled.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(workload: str, trace: int, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def assert_reports(result, text_lines, wanted):
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    printed = {line.split()[0]: line.split()[2] for line in text_lines if line.startswith("  ")}
    assert printed == wanted


def test_end_to_end_metrics_are_printed_with_units():
    result, lines = bench_run("tiny", 0)
    assert_reports(result, lines, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_per_layer_metrics_are_printed_with_units_and_counts_repeat():
    first, lines = bench_run("tiny", 1)
    assert_reports(first, lines, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    second, _ = bench_run("tiny", 1)
    counts = [name for name, m in first["metrics"].items() if m["unit"] == "count"]
    assert counts
    for name in counts:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["coxeter.elements"]["value"] == 6 + 8 + 8 + 6 + 6 + 6


def test_seed_changes_only_the_sampled_cases():
    a, _ = bench_run("sampled", 1, seed=1)
    b, _ = bench_run("sampled", 1, seed=2)
    # Both runs pass the gate: their artifacts, header seed excluded, match
    # the same pinned digests.
    assert a["correct"] and b["correct"]
    for name in ("asymptotic.assoc_cases", "asymptotic.assoc_cases_sampled",
                 "cellular.bimodule_cases", "cellular.bimodule_cases_sampled"):
        assert a["metrics"][name]["value"] == b["metrics"][name]["value"] > 0, name


def gated_tiny_job(name: str, reference: dict) -> dict:
    bench = run.Bench(1, reference, "selftest-gate")
    try:
        return run.measure(bench, {name: workloads.jobs_of("tiny")[name]}, 0, False)
    finally:
        bench.close()


def test_pinned_reference_passes_and_a_tampered_digest_fails_the_job():
    reference = json.loads(run.REFERENCE.read_text())
    assert gated_tiny_job("A2-kl", reference)["failed"] == 0
    reference["A2-kl"]["artifacts"]["kl-table.json"] = "0" * 64
    result = gated_tiny_job("A2-kl", reference)
    assert result["attempted"] == 1 and result["failed"] == 1
    assert not result["correct"]


def test_nonzero_exit_fails_the_job():
    bench = run.Bench(1, json.loads(run.REFERENCE.read_text()), "selftest-exit")
    try:
        record = bench.run_job("A2-bad", ["run", "--system", "A2", "--weights", "nonsense"])
    finally:
        bench.close()
    assert record["exit"] == 3
    assert record["problem"] == "exit status 3, expected 0"
