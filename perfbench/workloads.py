"""The benchmark's jobs: each is one `heckecell` command line.

The workload seed is appended to every job as `--seed`; it only selects the
sampled verification cases. Why each workload exists is in README.md.
"""

UNIVERSAL = ["--weights", "universal", "--order", "b-first"]
TARGET_21 = '{"0":[2],"1":[1]}'

WORKLOADS = {
    "seminormal": {
        "B3-universal": ["run", "--system", "B3", *UNIVERSAL],
        "A3-equal": ["run", "--system", "A3"],
    },
    "dihedral": {
        "I2:9-equal": ["run", "--system", "I2:9"],
        "I2:10-equal": ["run", "--system", "I2:10"],
        "I2:11-equal": ["run", "--system", "I2:11"],
        "I2:12-equal": ["run", "--system", "I2:12"],
        "I2:12-universal": ["run", "--system", "I2:12", *UNIVERSAL],
    },
    "specialize": {
        "I2:6-to-21": ["cell", "specialize", "--system", "I2:6", *UNIVERSAL,
                       "--target", TARGET_21],
        "I2:6-to-equal": ["cell", "specialize", "--system", "I2:6", *UNIVERSAL,
                          "--target", "equal"],
        "B2-to-21": ["cell", "specialize", "--system", "B2", *UNIVERSAL,
                     "--target", TARGET_21],
    },
    "kl-tables": {
        "H3-kl": ["kl-table", "--system", "H3"],
        "H3-cells": ["cells", "--system", "H3"],
        "A4-kl": ["kl-table", "--system", "A4"],
        "A4-cells": ["cells", "--system", "A4"],
        "B3-universal-h": ["h-table", "--system", "B3", *UNIVERSAL],
    },
}

# Jobs that fail today, kept out of the timed workloads because a timed
# workload must have no failing job. `run.py --workload all` still runs them
# under the same gate (exit 0 expected), so they show as failed jobs.
KNOWN_FAILING = {
    # Cell stage: "integrality violation in cellular element of
    # B:((1, 1), (1,))" (ROADMAP item 4).
    "B3-equal": ["run", "--system", "B3"],
}

# Small configurations for the self-test, not part of BENCHMARK.json.
HIDDEN = {
    "tiny": {
        "A2-equal": ["run", "--system", "A2"],
        "B2-universal": ["run", "--system", "B2", *UNIVERSAL],
        "B2-to-equal": ["cell", "specialize", "--system", "B2", *UNIVERSAL,
                        "--target", "equal"],
        "A2-kl": ["kl-table", "--system", "A2"],
        "A2-h": ["h-table", "--system", "A2"],
        "A2-cells": ["cells", "--system", "A2"],
    },
    # |W| = 18 > 16, so the ring and bimodule checks are sampled.
    "sampled": {
        "I2:9-equal": ["run", "--system", "I2:9"],
    },
}


def jobs_of(name: str) -> dict:
    if name in WORKLOADS:
        return WORKLOADS[name]
    return HIDDEN[name]


def all_jobs() -> dict:
    """Every job by name, for pinning the reference."""
    out = {}
    for group in [*WORKLOADS.values(), KNOWN_FAILING, *HIDDEN.values()]:
        for name, argv in group.items():
            if out.get(name, argv) != argv:
                raise ValueError(f"job name {name!r} used for two command lines")
            out[name] = argv
    return out
