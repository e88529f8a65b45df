"""Command-line front end: configuration, pipelines, JSON artifacts.

A job fixes a Coxeter system, a weight function, a monomial order and a
source of representations, then runs the requested stages in dependency
order (kl -> reps -> jring -> cell), writing one self-describing JSON
artifact per file stem. Four tables drive it, each declared once:

- STAGES: what each `run` stage needs and which artifacts it writes;
- ARTIFACTS: which `Session` method builds each artifact;
- SUITES: what each `--verify` name needs and its ordered checks, which
  `run`, `jring verify`, `jring compare-kl` and `cell verify` all run;
- ACTIONS: what each `rep`, `jring` and `cell` action does.

The tables name methods and module functions rather than hold them, so
`perfbench/tracer.py`, which rebinds them after import, sees every call.

Exit status: 0 on success, 2 when a verification suite reports violations,
3 on bad input (an unknown stage or `--verify` name included).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cached_property
from pathlib import Path
from typing import NamedTuple

from . import asymptotic, cellular, reps
from .asymptotic import Report
from .coxeter import CoxeterSystem, ElementTable, WeightFunction, equal_weights, universal_weights
from .errors import HeckecellError, InputError, VerificationError
from .hecke import HeckeAlgebra
from .scalars import LaurentPoly, MonomialOrder, natural_order

SCHEMA_PREFIX = "heckecell"


def parse_weights(spec, system: CoxeterSystem) -> WeightFunction:
    if spec in (None, "equal"):
        return equal_weights(system)
    if spec == "universal":
        return universal_weights(system)
    try:
        data = json.loads(spec) if isinstance(spec, str) else spec
    except (TypeError, ValueError) as exc:
        raise InputError(f"cannot parse weight specification {spec!r}: {exc}") from exc
    names = [str(s) for s in range(system.ngens)]
    if not isinstance(data, dict):
        raise InputError(f"weight specification {spec!r} must be a JSON object mapping "
                         f"generators 0..{system.ngens - 1} to weight vectors")
    for key in data:
        if key not in names:
            raise InputError(f"weight specification {spec!r} names {key!r}, which is not "
                             f"a generator 0..{system.ngens - 1}")
    for key in names:
        if key not in data:
            raise InputError(f"weight specification {spec!r} has no weight for generator {key}")
        if not isinstance(data[key], list):
            raise InputError(f"weight specification {spec!r}: the weight of generator {key} "
                             "must be a list of integers")
    values = [tuple(data[key]) for key in names]
    if any(type(g) is not int for v in values for g in v):  # not bool
        raise InputError(f"weight vectors must hold integers, not {spec!r}")
    ranks = {len(v) for v in values}
    if len(ranks) != 1:
        raise InputError("weight vectors must share one rank")
    return WeightFunction(ranks.pop(), tuple(values))


def parse_order(spec, rank: int) -> MonomialOrder:
    if spec in (None, "natural"):
        return natural_order(rank)
    if spec == "b-first":
        return MonomialOrder(rank, tuple(range(rank - 1, -1, -1)))
    try:
        priority = tuple(int(x) for x in str(spec).split(","))
    except ValueError as exc:
        raise InputError(f"cannot parse order specification {spec!r}") from exc
    return MonomialOrder(rank, priority)


def parse_system(spec) -> CoxeterSystem:
    if isinstance(spec, str) and not spec.lstrip().startswith("["):
        return CoxeterSystem.named(spec)
    try:
        matrix = json.loads(spec) if isinstance(spec, str) else spec
        rows = tuple(tuple(row) for row in matrix)
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse system specification {spec!r}") from exc
    if any(type(x) is not int for row in rows for x in row):  # not bool
        raise InputError(f"Coxeter matrix entries must be integers, not {spec!r}")
    return CoxeterSystem(rows)


def _config_int(config: dict, key: str, default: int) -> int:
    """An integer setting: an int, or a string of one, as in a --config file."""
    val = config.get(key, default)
    if type(val) is int:  # not bool
        return val
    if isinstance(val, str):
        try:
            return int(val)
        except ValueError:
            pass
    raise InputError(f"{key} must be an integer, not {val!r}")


class Session:
    """Lazily computed pipeline state for one job; `balanced` is its one representation stage."""

    def __init__(self, config: dict):
        self.system = parse_system(config.get("system", "A1"))
        self.weights = parse_weights(config.get("weights"), self.system)
        self.order = parse_order(config.get("order"), self.weights.rank)
        self.seed = _config_int(config, "seed", 0)
        self.jobs = _config_int(config, "jobs", 1)
        self.sources = config.get("reps", "builtin")
        if self.sources != "builtin" and not (
                isinstance(self.sources, list) and all(isinstance(p, str) for p in self.sources)):
            raise InputError(f"reps must be 'builtin' or a list of paths, not {self.sources!r}")
        self.findings: list = []

    # -- lazy stages ------------------------------------------------------------

    @cached_property
    def table(self) -> ElementTable:
        return ElementTable(self.system)

    @cached_property
    def algebra(self) -> HeckeAlgebra:
        return HeckeAlgebra(self.table, self.weights, self.order)

    @cached_property
    def family(self) -> list:
        if self.sources == "builtin":
            return reps.builtin_family(self.algebra)
        loaded = [reps.load_rep(self.algebra, path) for path in self.sources]
        if self.system.name.startswith("H"):
            loaded = [reps.index_rep(self.algebra), reps.sign_rep(self.algebra)] + loaded
        labels = [r.label for r in loaded]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise InputError(f"two representations share the label {label!r}; "
                                 "give each representation file its own 'label'")
        return loaded

    @cached_property
    def balanced(self) -> dict:
        """label -> reps.BalancedModel; raises unless every representation ends balanced."""
        return {r.label: reps.balanced_tensor(r) for r in self.family}

    @property
    def tensors(self) -> list:
        return [self.balanced[r.label].tensor for r in self.family]

    @cached_property
    def ring(self) -> asymptotic.AsymptoticRing:
        return asymptotic.AsymptoticRing(self.algebra, self.tensors)

    @cached_property
    def datum(self) -> cellular.CellDatum:
        grams = {label: b.gram for label, b in self.balanced.items()}
        return cellular.build_cell_datum(self.algebra, self.ring, grams)

    # -- serialization helpers ---------------------------------------------------

    def poly_str(self, p: LaurentPoly) -> str:
        return p.to_str(self.table.field, self.order)

    def scalar_str(self, c) -> str:
        return self.table.field.format(c)

    def matrix_strs(self, rows) -> list:
        return [[self.scalar_str(x) for x in row] for row in rows]

    def header(self, kind: str) -> dict:
        return {
            "schema": f"{SCHEMA_PREFIX}/{kind}@1",
            "system": self.system.name or [list(r) for r in self.system.matrix],
            "conductor": self.system.conductor,
            "weights": {str(s): list(self.weights.of_gen(s))
                        for s in range(self.system.ngens)},
            "order_priority": list(self.order.priority),
            "seed": self.seed,
            "jobs": self.jobs,
        }

    # -- artifacts (see ARTIFACTS) ---------------------------------------------------

    def artifact_kl(self) -> dict:
        alg = self.algebra
        out = self.header("kl-table")
        table = {}
        for w in range(self.table.size):
            for y, p in alg.cprime(w).items():
                if y != w:
                    table[f"{y},{w}"] = self.poly_str(p)
        out["kl_polynomials"] = dict(sorted(table.items()))
        return out

    def artifact_h(self) -> dict:
        alg = self.algebra
        out = self.header("h-table")
        rows = alg.h_rows()
        table = {}
        # few polynomials repeat across the table (A4: 51 in 43623 entries)
        texts: dict = {}
        for x in range(self.table.size):
            for y in range(self.table.size):
                for z, h in rows[x][y].items():
                    text = texts.get(h)
                    if text is None:
                        text = texts[h] = self.poly_str(h)
                    table[f"{x},{y},{z}"] = text
        out["h_constants"] = dict(sorted(table.items()))
        out["a_values"] = [list(self.order.user(alg.a_value(z))) for z in range(self.table.size)]
        return out

    def artifact_cells(self) -> dict:
        alg = self.algebra
        out = self.header("cells")
        _, cells, cell_of = alg.lr_cells()
        out["cells"] = [list(c) for c in cells]
        out["cell_of"] = list(cell_of)
        return out

    def artifact_reps(self) -> dict:
        out = self.header("reps")
        items = []
        for r in self.family:
            sd = self.balanced[r.label].schur
            items.append({
                "label": r.label,
                "dim": r.dim,
                "a": list(self.order.user(sd.a)),
                "f": self.scalar_str(sd.f),
                "schur_element": self.poly_str(sd.c),
                "balanced": True,
            })
        out["representations"] = items
        out["dimension_check"] = sum(r.dim * r.dim for r in self.family) == self.table.size
        return out

    def artifact_balanced(self) -> dict:
        out = self.header("balanced-reps")
        out["balanced"] = {}
        for label, b in self.balanced.items():
            # the Gram test read this residue, so it exists
            out["balanced"][label] = {"gram_constant_matrix": self.matrix_strs(b.gram.residue())}
        return out

    def artifact_leading(self) -> dict:
        out = self.header("leading-tensors")
        out["tensors"] = {
            t.label: {
                "a": list(self.order.user(t.a)),
                "f": self.scalar_str(t.f),
                "matrices": {str(w): self.matrix_strs(t.matrix(w)) for w in t.entries},
            }
            for t in self.tensors
        }
        return out

    def artifact_jring(self) -> dict:
        out = self.header("jring")
        ring = self.ring
        out["gamma"] = {
            f"{x},{y},{z}": self.scalar_str(g)
            for (x, y, z), g in sorted(ring.gamma.items())
        }
        out["n"] = [self.scalar_str(c) for c in ring.n_vec]
        out["distinguished"] = list(ring.d_set)
        out["blocks"] = [list(b) for b in ring.blocks]
        return out

    def artifact_blocks(self) -> dict:
        out = self.header("blocks")
        out["blocks"] = [list(b) for b in self.ring.blocks]
        out["block_of_representation"] = dict(sorted(self.ring.block_of_label.items()))
        return out

    def artifact_cell(self) -> dict:
        out = self.header("cell-datum")
        datum = self.datum
        out["labels"] = list(datum.labels)
        out["m_sizes"] = {lab: datum.msize[lab] for lab in datum.labels}
        out["b_matrices"] = {lab: self.matrix_strs(datum.bmatrices[lab])
                             for lab in datum.labels}
        out["elements"] = {
            f"{lab}|{s}|{t}": {str(w): self.scalar_str(c) for w, c in sorted(coeffs.items())}
            for (lab, s, t), coeffs in sorted(datum.elements.items(), key=lambda kv: str(kv[0]))
        }
        out["order_hasse"] = _hasse_edges(datum)
        out["invertible_primes"] = sorted(datum.invertible_primes)
        return out

    def artifact_phi(self) -> dict:
        out = self.header("phi")
        alg, ring = self.algebra, self.ring
        out["images"] = {
            str(w): {str(z): self.poly_str(p)
                     for z, p in sorted(cellular.hecke_to_asym(alg, ring, w).items())}
            for w in range(self.table.size)
        }
        return out

    # -- verification (see SUITES) ------------------------------------------------------

    def run_verifications(self, names) -> dict:
        """Run the named suites in turn; each failing check becomes a finding."""
        results = {}
        for name in names:
            for key, check in SUITES[name].checks:
                report = check(self)
                results[key] = {k: list(v) for k, v in report.checks.items()}
                self.findings += [{"suite": key, "check": k, "violations": v[:20]}
                                  for k, v in report.checks.items() if v]
        return results


def _hasse_edges(datum) -> list:
    edges = []
    for mu in datum.labels:
        for la in datum.labels:
            if mu == la or not datum.leq[(mu, la)]:
                continue
            if any(nu not in (mu, la) and datum.leq[(mu, nu)] and datum.leq[(nu, la)]
                   for nu in datum.labels):
                continue
            edges.append([mu, la])
    return edges


# -- the tables ------------------------------------------------------------------------


class Stage(NamedTuple):
    needs: tuple   # stages run before this one, with their own needs in turn
    writes: tuple  # artifact file stems, in order


class Suite(NamedTuple):
    needs: tuple   # stages `--verify all` requires before it runs this suite
    checks: tuple  # (result key, Session -> Report), in order


STAGES = {
    "kl": Stage((), ("kl-table", "h-table", "cells")),
    "reps": Stage((), ("reps",)),
    "jring": Stage(("reps",), ("jring",)),
    "cell": Stage(("jring", "kl"), ("cell-datum", "phi")),
}

# artifact file stem -> name of the Session method that builds it
ARTIFACTS = {
    "kl-table": "artifact_kl", "h-table": "artifact_h", "cells": "artifact_cells",
    "reps": "artifact_reps", "balanced": "artifact_balanced",
    "leading": "artifact_leading", "jring": "artifact_jring",
    "blocks": "artifact_blocks", "cell-datum": "artifact_cell", "phi": "artifact_phi",
}

# --verify name -> Suite; suites run in this order, which `--verify all` and
# named lists share, and every check's failures become findings
SUITES = {
    "reps": Suite(("reps",), (
        ("schur_relations", lambda s: Report(
            {"both families": reps.verify_schur_relations(s.algebra, s.tensors)})),
    )),
    "jring": Suite(("jring",), (("jring", lambda s: s.ring.verify()),)),
    "compare-kl": Suite(("jring", "kl"), (("compare_kl", lambda s: s.ring.compare_with_kl()),)),
    "cell": Suite(("cell",), (
        ("cell_datum", lambda s: cellular.verify_cell_datum(s.datum)),
        ("phi", lambda s: cellular.verify_phi(s.algebra, s.ring)),
        ("bimodule", lambda s: cellular.verify_bimodule_identity(s.algebra, s.ring)),
    )),
}


# -- command implementations ---------------------------------------------------------


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _json_text(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True)


def _emit(data, out, name: str):
    """Print or write one artifact, given as a dict or as its JSON text."""
    text = data if isinstance(data, str) else _json_text(data)
    if out is None:
        print(text)
    else:
        path = Path(out)
        path.mkdir(parents=True, exist_ok=True)
        (path / name).write_text(text + "\n", encoding="utf-8")
        print(f"wrote {path / name}")


def _session_from_args(args) -> Session:
    config = {}
    if getattr(args, "config", None):
        loaded = _read_json(Path(args.config), "config file")
        if not isinstance(loaded, dict):
            raise InputError(f"config file {args.config} does not hold a JSON object")
        config.update(loaded)
    for key in ("system", "weights", "order", "seed", "jobs", "out"):
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    if getattr(args, "reps", None):
        config["reps"] = args.reps
    return Session(config)


def _suite_names(verify: str, stages: list) -> list | None:
    """The suites a `--verify` value selects, in table order; None for 'none'."""
    names = [name.strip() for name in verify.split(",")]
    if names == ["none"]:
        return None
    if names == ["all"]:
        return [n for n, suite in SUITES.items() if all(st in stages for st in suite.needs)]
    for name in names:
        if name not in SUITES:
            raise InputError(f"unknown verification suite {name!r}; "
                             f"choose 'all', 'none' or from {', '.join(SUITES)}")
    return [n for n in SUITES if n in names]


def _stage_closure(requested: str) -> list:
    """The requested stages with everything they need, transitively, each
    after its needs and in the order first reached."""
    stages: list = []

    def add(st):
        if st not in stages:
            for dep in STAGES[st].needs:
                add(dep)
            stages.append(st)

    for st in requested.split(","):
        st = st.strip()
        if st not in STAGES:
            raise InputError(f"unknown stage {st!r}")
        add(st)
    return stages


def cmd_run(args) -> int:
    session = _session_from_args(args)
    stages = _stage_closure(",".join(STAGES) if args.stages is None else args.stages)
    suites = _suite_names("all" if args.verify is None else args.verify, stages)
    # written only once every stage and suite has run; held as JSON text,
    # which takes a fraction of the memory of the dicts of strings
    emitted = {}
    try:
        for st in stages:
            for stem in STAGES[st].writes:
                emitted[f"{stem}.json"] = _json_text(getattr(session, ARTIFACTS[stem])())
        if suites is not None:
            summary = session.header("verification")
            summary["results"] = session.run_verifications(suites)
            summary["ok"] = not session.findings
            emitted["verification.json"] = summary
    except VerificationError as exc:
        session.findings.append({"suite": "construction", "check": "invariants",
                                 "violations": [str(exc)]})
    for name, data in emitted.items():
        _emit(data, args.out, name)
    if session.findings:
        findings = session.header("findings")
        findings["findings"] = session.findings
        _emit(findings, args.out, "findings.json")
        return 2
    return 0


def _write(stem: str):
    """An action that writes the artifact `stem`."""
    def action(session: Session, args) -> int:
        _emit(getattr(session, ARTIFACTS[stem])(), args.out, f"{stem}.json")
        return 0
    return action


def _check(name: str):
    """An action that prints the reports of the suite `name`."""
    def action(session: Session, args) -> int:
        reports = [check(session) for _, check in SUITES[name].checks]
        for report in reports:
            print(report.summary())
        return 0 if all(report.ok for report in reports) else 2
    return action


def _rep_validate(session: Session, args) -> int:
    if not args.file:
        raise InputError("rep validate needs a file")
    rep = reps.load_rep(session.algebra, args.file)
    print(f"ok: {rep.label} (dim {rep.dim}) satisfies the defining relations")
    return 0


def _cell_specialize(session: Session, args) -> int:
    if not args.target:
        raise InputError("cell specialize needs --target weights")
    target_w = parse_weights(args.target, session.system)
    target_order = parse_order(args.target_order, target_w.rank)
    target_alg = HeckeAlgebra(session.table, target_w, target_order, require_positive=False)
    spec = cellular.specialize_datum(session.datum, target_alg)
    report = cellular.verify_specialized(spec)
    data = session.header("specialized-cell-datum")
    data["target_weights"] = {str(s): list(target_w.of_gen(s))
                              for s in range(session.system.ngens)}
    data["elements"] = {
        f"{lab}|{s}|{t}": {str(w): p.to_str(session.table.field, target_order)
                           for w, p in sorted(coeffs.items())}
        for (lab, s, t), coeffs in sorted(spec.elements.items(), key=lambda kv: str(kv[0]))
    }
    data["verification"] = {k: list(v) for k, v in report.checks.items()}
    _emit(data, args.out, "cell-specialized.json")
    return 0 if report.ok else 2


# subcommand -> action -> what it does with a Session and the parsed arguments
ACTIONS = {
    "rep": {"validate": _rep_validate, "schur": _write("reps"),
            "balance": _write("balanced"), "leading": _write("leading")},
    "jring": {"build": _write("jring"), "verify": _check("jring"),
              "compare-kl": _check("compare-kl"), "blocks": _write("blocks")},
    "cell": {"build": _write("cell-datum"), "verify": _check("cell"),
             "phi": _write("phi"), "specialize": _cell_specialize},
}


def cmd_action(args) -> int:
    return ACTIONS[args.command][args.action](_session_from_args(args), args)


def cmd_report(args) -> int:
    path = Path(args.artifacts)
    if not path.exists():
        raise InputError(f"artifact directory {path} does not exist")
    print(f"artifact report for {path}")
    for name in ("reps.json", "jring.json", "cell-datum.json", "verification.json"):
        file = path / name
        if file.exists():
            data = _read_json(file, "artifact")
            try:
                _summarize(name, data)
            except (AttributeError, KeyError, TypeError, ValueError) as exc:
                raise InputError(
                    f"artifact {file} lacks a field or has the wrong shape: {exc!r}") from exc
        elif name == "verification.json":
            print("no verification artifact present")
    return 0


def _summarize(name: str, data) -> None:
    """Print the report lines of one artifact; a missing field raises."""
    if name == "reps.json":
        print(f"system {data['system']}, conductor {data['conductor']}")
        avals = sorted({tuple(r["a"]) for r in data["representations"]})
        fvals = sorted(r["f"] for r in data["representations"])
        print(f"a-invariants: {avals}")
        print(f"f-values: {fvals}")
    elif name == "jring.json":
        print(f"|D| = {len(data['distinguished'])}, "
              f"blocks: {[len(b) for b in data['blocks']]}")
    elif name == "cell-datum.json":
        print(f"invertible primes required: {data['invertible_primes']}")
    else:
        print("verification suites:")
        for suite, checks in sorted(data["results"].items()):
            for check, violations in sorted(checks.items()):
                status = "pass" if not violations else f"FAIL ({len(violations)})"
                print(f"  {suite}/{check}: {status}")
        print(f"overall: {'ok' if data['ok'] else 'FAILED'}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as bad input (exit 3): argparse's own exit
    status 2 is the verification-failure code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="heckecell",
        description="Exact canonical bases, leading coefficients, the asymptotic "
                    "ring and cellular structures of finite Coxeter Hecke algebras.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--system", help="named type (A1..A4, B2, B3, I2:m, H3) or matrix JSON")
        p.add_argument("--weights", help="'equal', 'universal', or JSON {gen: vector}")
        p.add_argument("--order", help="'natural', 'b-first', or priority list '1,0'")
        p.add_argument("--reps", nargs="*", help="representation files (default: builtin)")
        p.add_argument("--seed", type=int,
                       help="recorded in the artifact headers and otherwise unused: every "
                            "check is exhaustive (kept until the benchmark is re-pinned)")
        p.add_argument("--jobs", type=int, help="worker count (recorded; runs sequentially)")
        p.add_argument("--out", help="artifact directory (default: print to stdout)")
        p.add_argument("--config", help="JSON config file mirroring the flags")

    p_run = sub.add_parser("run", help="run pipeline stages and verifications")
    add_common(p_run)
    p_run.add_argument("--stages", help="comma list from kl,reps,jring,cell")
    p_run.add_argument("--verify", help="'all', 'none', or comma list")
    p_run.set_defaults(func=cmd_run)

    for stem in ("kl-table", "h-table", "cells"):
        p = sub.add_parser(stem, help=f"emit the {stem} artifact")
        add_common(p)
        p.set_defaults(func=lambda a, stem=stem: _write(stem)(_session_from_args(a), a))

    p_rep = sub.add_parser("rep", help="representation operations")
    p_rep.add_argument("action", choices=list(ACTIONS["rep"]))
    p_rep.add_argument("--file", help="representation file for 'validate'")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_action)

    p_jring = sub.add_parser("jring", help="asymptotic ring operations")
    p_jring.add_argument("action", choices=list(ACTIONS["jring"]))
    add_common(p_jring)
    p_jring.set_defaults(func=cmd_action)

    p_cell = sub.add_parser("cell", help="cellular basis operations")
    p_cell.add_argument("action", choices=list(ACTIONS["cell"]))
    p_cell.add_argument("--target", help="target weights for 'specialize'")
    p_cell.add_argument("--target-order", dest="target_order",
                        help="monomial order for the target weights")
    add_common(p_cell)
    p_cell.set_defaults(func=cmd_action)

    p_report = sub.add_parser("report", help="summarize an artifact directory")
    p_report.add_argument("artifacts")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 3
    except VerificationError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except HeckecellError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
