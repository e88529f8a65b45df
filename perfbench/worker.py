"""One heckecell job in a fresh interpreter, as the console script runs it.

    python3 perfbench/worker.py --record REC.json [--trace] [--probe] -- ARGV...

The worker imports `heckecell.cli` (the set-up a user pays on every
invocation), optionally installs the tracer, calls `heckecell.cli.main(ARGV)`
and writes a JSON record with CLOCK_MONOTONIC timestamps, which the parent
compares with its own spawn time. With `--probe` it stops after the import.
The job's exit status goes into the record; the worker itself exits 0 once
the record is written.
"""

import json
import resource
import sys
import time
import traceback


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def peak_rss_kb() -> int:
    """This process's resident-set high-water mark.

    VmHWM belongs to the address space made by exec. ru_maxrss does not: on
    Linux it keeps the high-water mark of the process that spawned us.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv) -> int:
    sep = argv.index("--")
    opts, job_argv = argv[:sep], argv[sep + 1:]
    record_path = opts[opts.index("--record") + 1]

    from heckecell import cli
    record = {"ready": now()}
    if "--probe" not in opts:
        tracer = None
        if "--trace" in opts:
            import tracer as tracing
            tracer = tracing.install()
        record["start"] = now()
        try:
            record["exit"] = cli.main(job_argv)
        except Exception:
            traceback.print_exc()
            record["exit"] = 1
        record["end"] = now()
        if tracer is not None:
            record["trace"] = tracer.dump()
    record["maxrss_kb"] = peak_rss_kb()
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
