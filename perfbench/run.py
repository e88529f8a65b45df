"""heckecell benchmark: run a workload's jobs, gate their artifacts, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--trace 0|1]
    python3 perfbench/run.py --pin

A job is one `heckecell` invocation: `heckecell.cli.main(argv)` in a fresh
interpreter (worker.py), with the workload seed passed as `--seed`. Jobs run
one after another, one worker at a time (closed loop, one client). A pass
runs each of the workload's jobs once. A run makes at least one pass, and
another one while it should end within `--seconds`. Every job's artifacts are gated against reference.json.

With `--trace 0` the last line reports the end-to-end metrics; with
`--trace 1` one untraced and one traced pass run, and it reports the
per-layer metrics (tracer.py). `--workload all` runs every workload once
plus the known-failing jobs and prints a table. `--pin` rewrites
reference.json from the program as it is.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
TRACE_EXTRA = {"trace.run_s": "s", "trace.overhead_s": "s", "trace.outside_share": "ratio"}
MAX_METRICS = {"reps.max_den_terms"}   # per-layer metrics combined by max, not sum
SETUP_SAMPLES = 21       # spawn-and-import samples per run, probes fill up the rest
RUN_BUDGET_S = 165.0     # no job may still run after this; a run must end within 180 s


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Bench:
    """Runs jobs for one benchmark invocation inside WORK/<tag>."""

    def __init__(self, seed: int, reference: dict, tag: str):
        self.seed = seed
        self.reference = reference
        self.dir = WORK / tag
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.count = 0
        self.start = now()
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def spawn(self, argv: list, trace: bool = False, probe: bool = False) -> dict:
        """Run one worker; return its record plus setup time, or a failure."""
        self.count += 1
        rec_path = self.dir / f"{self.count}.record.json"
        err_path = self.dir / f"{self.count}.stderr"
        cmd = [sys.executable, str(HERE / "worker.py"), "--record", str(rec_path)]
        cmd += ["--trace"] * trace + ["--probe"] * probe + ["--"] + argv
        with open(err_path, "wb") as err:
            spawned = now()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            try:
                code = proc.wait(timeout=max(1.0, RUN_BUDGET_S - (now() - self.start)))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return {"problem": "timed out"}
        if code != 0 or not rec_path.exists():
            tail = err_path.read_text(errors="replace")[-500:]
            return {"problem": f"worker exited {code}: {tail}"}
        record = json.loads(rec_path.read_text())
        record["setup_s"] = record["ready"] - spawned
        return record

    def run_job(self, name: str, argv: list, trace: bool = False) -> dict:
        out = self.dir / f"{self.count + 1}.{name.replace(':', '_')}"
        record = self.spawn(argv + ["--seed", str(self.seed), "--out", str(out)], trace)
        record["name"] = name
        if "problem" not in record:
            record["run_s"] = record["end"] - record["start"]
            record["digests"] = {p.name: digest(p) for p in sorted(out.glob("*.json"))}
            record["raw"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                             for p in sorted(out.glob("*.json"))}
            record["problem"] = gate(name, argv, out, record, self.reference)
        return record

    def run_pass(self, jobs: dict, trace: bool = False) -> list:
        return [self.run_job(name, argv, trace) for name, argv in jobs.items()]

    def elapsed(self) -> float:
        return now() - self.start


def digest(path: Path) -> str:
    """sha256 of an artifact's canonical JSON with the header `seed` removed."""
    data = json.loads(path.read_text(encoding="utf-8"))
    if isinstance(data, dict):
        data.pop("seed", None)
    text = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def gate(name: str, argv: list, out: Path, record: dict, reference: dict):
    """None if the job passed, else why it failed."""
    if record["exit"] != 0:
        return f"exit status {record['exit']}, expected 0"
    if argv[0] == "run":
        ver = out / "verification.json"
        if not ver.exists():
            return "verification.json missing"
        if json.loads(ver.read_text(encoding="utf-8")).get("ok") is not True:
            return "verification.json not ok"
    ref = reference.get(name)
    if ref is None or ref["argv"] != argv:
        return "no pinned reference for this command line"
    if record["digests"] != ref["artifacts"]:
        diff = sorted(set(record["digests"].items()) ^ set(ref["artifacts"].items()))
        return f"artifacts differ from reference: {sorted({k for k, _ in diff})}"
    return None


def measure(bench: Bench, jobs: dict, seconds: float, trace: bool) -> dict:
    """Run passes over `jobs` and return the run's result."""
    passes = []
    if trace:
        passes = [bench.run_pass(jobs), bench.run_pass(jobs, trace=True)]
    else:
        # At least one pass; another only if it should end within `seconds`.
        while True:
            started = bench.elapsed()
            passes.append(bench.run_pass(jobs))
            took = bench.elapsed() - started
            if any(r["problem"] for r in passes[-1]):
                break
            if bench.elapsed() + took > min(seconds, RUN_BUDGET_S):
                break
    records = [r for p in passes for r in p]
    failed = [r for r in records if r["problem"]]
    for r in failed:
        print(f"FAILED {r['name']}: {r['problem']}")
    correct = not failed
    if trace and correct:
        untraced, traced = ({r["name"]: r["raw"] for r in p} for p in passes)
        if untraced != traced:
            print("FAILED traced artifacts differ from untraced ones")
            correct = False

    setups = [r["setup_s"] for r in records if "setup_s" in r]
    while not trace and len(setups) < SETUP_SAMPLES and bench.elapsed() < RUN_BUDGET_S:
        probe = bench.spawn([], probe=True)
        if "problem" in probe:
            print(f"FAILED set-up probe: {probe['problem']}")
            correct = False
            break
        setups.append(probe["setup_s"])

    result = {"correct": correct, "attempted": len(records), "failed": len(failed),
              "passes": len(passes), "setup_samples": len(setups)}
    if any("run_s" not in r for r in records):
        result["metrics"] = {}
    elif trace:
        result["metrics"] = layer_metrics(passes[0], passes[1])
        result["spans"] = {r["name"]: r["trace"]["spans"] for r in passes[1]}
    else:
        pass_run_s = [sum(r["run_s"] for r in p) for p in passes]
        result["pass_run_s"], result["setup_samples_s"] = pass_run_s, setups
        result["metrics"] = {
            "run_s": statistics.median(pass_run_s),
            "setup_s": len(jobs) * statistics.median(setups),
            "peak_rss_mb": max(r["maxrss_kb"] for r in records) / 1024,
        }
    return result


def layer_metrics(untraced: list, traced: list) -> dict:
    out = dict.fromkeys(tracer.metric_names(), 0)
    for r in traced:
        for name, value in r["trace"]["metrics"].items():
            out[name] = max(out[name], value) if name in MAX_METRICS else out[name] + value
    run_traced = sum(r["run_s"] for r in traced)
    covered = sum(r["trace"]["covered_s"] for r in traced)
    out["trace.run_s"] = run_traced
    out["trace.overhead_s"] = run_traced - sum(r["run_s"] for r in untraced)
    out["trace.outside_share"] = 1 - covered / run_traced
    return out


def unit_of(name: str) -> str:
    return END_TO_END.get(name) or TRACE_EXTRA.get(name) or tracer.metric_unit(name)


def machine_info() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": model, "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def save_record(tag: str, record: dict):
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{stamp}-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")


def result_line(result: dict) -> str:
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    reference = json.loads(REFERENCE.read_text())
    tag = f"{name}-s{seed}-t{int(trace)}"
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              **machine_info(), "loadavg_start": os.getloadavg()}
    bench = Bench(seed, reference, tag)
    try:
        result = measure(bench, workloads.jobs_of(name), seconds, trace)
    finally:
        bench.close()
    record.update(result, loadavg_end=os.getloadavg())
    save_record(tag, record)
    return result


def run_all(seed: int, trace: bool) -> int:
    """Every workload once, plus the known-failing jobs, as a table."""
    reference = json.loads(REFERENCE.read_text())
    rows = [*workloads.WORKLOADS.items(), ("known-failing", workloads.KNOWN_FAILING)]
    all_correct = True
    for name, jobs in rows:
        bench = Bench(seed, reference, f"all-{name}")
        try:
            result = measure(bench, jobs, 0, trace)
        finally:
            bench.close()
        all_correct &= result["correct"]
        print_summary(name, result)
    return 0 if all_correct else 1


def print_summary(name: str, result: dict):
    share = result["failed"] / result["attempted"]
    print(f"{name}: fail_share {share:.4g} ratio ({result['failed']}/{result['attempted']} "
          f"jobs), {result['passes']} pass(es), {result['setup_samples']} set-up samples")
    for metric, value in result["metrics"].items():
        print(f"  {metric} {value:.6g} {unit_of(metric)}")


def pin(seed: int) -> int:
    """Rewrite reference.json with the current program's artifact digests."""
    jobs = workloads.all_jobs()
    bench = Bench(seed, {}, "pin")
    reference = {}
    try:
        for name, argv in jobs.items():
            record = bench.run_job(name, argv)
            if "digests" not in record:
                print(f"cannot pin {name}: {record['problem']}")
                return 1
            reference[name] = {"argv": argv, "artifacts": record["digests"]}
            print(f"pinned {name}: exit {record['exit']}, {len(record['digests'])} artifacts")
    finally:
        bench.close()
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)

    if not (SRC / "heckecell" / "cli.py").exists():
        print(f"no heckecell sources under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        return pin(args.seed)
    if not REFERENCE.exists():
        print(f"missing {REFERENCE.name}; run with --pin first", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, bool(args.trace))
    try:
        workloads.jobs_of(args.workload)
    except KeyError:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(args.workload, result)
    print(result_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
