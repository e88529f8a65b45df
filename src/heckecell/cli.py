"""Command-line front end: configuration, pipelines, JSON artifacts.

A job fixes a Coxeter system, a weight function, a monomial order and a
source of representations, then runs the requested stages in dependency
order (kl -> reps -> jring -> cell), writing one self-describing JSON
artifact per stage. Exit status: 0 on success, 2 when a verification suite
reports violations, 3 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import asymptotic, cellular, reps
from .coxeter import (CoxeterSystem, ElementTable, WeightFunction, equal_weights,
                      universal_weights, validate_weights)
from .errors import ComputationError, HeckecellError, InputError, VerificationError
from .hecke import HeckeAlgebra
from .scalars import LaurentPoly, MonomialOrder, natural_order

SCHEMA_PREFIX = "heckecell"
STAGE_DEPS = {"kl": [], "reps": [], "jring": ["reps"], "cell": ["jring", "kl"]}


def parse_weights(spec, system: CoxeterSystem) -> WeightFunction:
    if spec in (None, "equal"):
        return equal_weights(system)
    if spec == "universal":
        return universal_weights(system)
    try:
        data = json.loads(spec) if isinstance(spec, str) else spec
        values = [tuple(data[str(s)]) for s in range(system.ngens)]
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse weight specification {spec!r}: {exc}") from exc
    if any(type(g) is not int for v in values for g in v):  # not bool
        raise InputError(f"weight vectors must hold integers, not {spec!r}")
    ranks = {len(v) for v in values}
    if len(ranks) != 1:
        raise InputError("weight vectors must share one rank")
    return WeightFunction(ranks.pop(), tuple(values))


def parse_order(spec, rank: int) -> MonomialOrder:
    if spec in (None, "natural", "a-first"):
        return natural_order(rank)
    if spec in ("b-first", "asymptotic"):
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
        return CoxeterSystem(tuple(tuple(int(x) for x in row) for row in matrix))
    except (TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot parse system specification {spec!r}") from exc


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
    """Lazily computed pipeline state for one job configuration."""

    def __init__(self, config: dict):
        self.config = dict(config)
        self.system = parse_system(config.get("system", "A1"))
        self.weights = parse_weights(config.get("weights"), self.system)
        self.order = parse_order(config.get("order"), self.weights.rank)
        self.seed = _config_int(config, "seed", 0)
        self.jobs = _config_int(config, "jobs", 1)
        self.bound = _config_int(config, "bound", 20000)
        problems = validate_weights(self.system, self.weights, self.order)
        if problems:
            raise InputError("; ".join(problems))
        self._table = None
        self._alg = None
        self._family = None
        self._schurs = None
        self._balanced = None
        self._ring = None
        self._grams = None
        self._datum = None
        self.findings: list = []

    # -- lazy stages ------------------------------------------------------------

    @property
    def table(self) -> ElementTable:
        if self._table is None:
            self._table = ElementTable(self.system, bound=self.bound)
        return self._table

    @property
    def algebra(self) -> HeckeAlgebra:
        if self._alg is None:
            self._alg = HeckeAlgebra(self.table, self.weights, self.order)
        return self._alg

    @property
    def family(self) -> list:
        if self._family is None:
            sources = self.config.get("reps", "builtin")
            if sources == "builtin":
                self._family = reps.builtin_family(self.algebra)
            else:
                loaded = [reps.load_rep(self.algebra, path) for path in sources]
                name = self.system.name
                if name.startswith("H"):
                    base = [reps.index_rep(self.algebra), reps.sign_rep(self.algebra)]
                else:
                    base = []
                self._family = base + loaded
        return self._family

    @property
    def schurs(self) -> dict:
        if self._schurs is None:
            self._schurs = {r.label: reps.schur_data(r) for r in self.family}
        return self._schurs

    @property
    def balanced(self) -> dict:
        """label -> balanced representation with its normalized Gram attached.

        Raises unless every representation ends balanced."""
        if self._balanced is None:
            out = {}
            for r in self.family:
                sd = self.schurs[r.label]
                omega = reps.invariant_gram(r)
                if reps.is_balanced(r, omega, sd):
                    rb = r
                    rb.gram = omega
                else:
                    rb = reps.balance(r)
                    # the balance test filled r's word cache; rb replaces r
                    r.clear_cache()
                    if not reps.is_balanced(rb, rb.gram, sd):
                        raise VerificationError(
                            f"balancing failed for {r.label}")
                out[r.label] = rb
            self._balanced = out
        return self._balanced

    @property
    def tensors(self) -> list:
        if self._ring is None:
            self.ring  # noqa: B018 - building the ring builds the tensors
        return self._ring.tensors

    @property
    def ring(self) -> asymptotic.AsymptoticRing:
        if self._ring is None:
            tens = []
            for r in self.family:
                rb = self.balanced[r.label]
                tens.append(reps.leading_tensor(rb, self.schurs[r.label]))
                # nothing reads a word matrix once its tensor is built; a
                # model that `balance` replaced was cleared in `balanced`
                rb.clear_cache()
            self._ring = asymptotic.AsymptoticRing(self.algebra, tens)
        return self._ring

    @property
    def grams(self) -> dict:
        if self._grams is None:
            self._grams = {label: rb.gram for label, rb in self.balanced.items()}
        return self._grams

    @property
    def datum(self) -> cellular.CellDatum:
        if self._datum is None:
            self._datum = cellular.build_cell_datum(self.algebra, self.ring, self.grams)
        return self._datum

    # -- serialization helpers ---------------------------------------------------

    def poly_str(self, p: LaurentPoly) -> str:
        return p.to_str(self.table.field)

    def scalar_str(self, c) -> str:
        field = self.table.field
        if isinstance(c, (int, Fraction)):
            return str(Fraction(c))
        return field.format(c)

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

    # -- stage artifacts ------------------------------------------------------------

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
        for x in range(self.table.size):
            for y in range(self.table.size):
                for z, h in rows[x][y].items():
                    table[f"{x},{y},{z}"] = self.poly_str(h)
        out["h_constants"] = dict(sorted(table.items()))
        out["a_values"] = [list(alg.a_value(z)) for z in range(self.table.size)]
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
        self.balanced  # noqa: B018 - raises unless every representation is balanced
        for r in self.family:
            sd = self.schurs[r.label]
            items.append({
                "label": r.label,
                "dim": r.dim,
                "a": list(sd.a),
                "f": self.scalar_str(sd.f),
                "schur_element": self.poly_str(sd.c),
                "balanced": True,
            })
        out["representations"] = items
        out["dimension_check"] = sum(r.dim * r.dim for r in self.family) == self.table.size
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

    def artifact_cell(self) -> dict:
        out = self.header("cell-datum")
        datum = self.datum
        out["labels"] = list(datum.labels)
        out["m_sizes"] = {lab: datum.msize[lab] for lab in datum.labels}
        out["b_matrices"] = {
            lab: [[self.scalar_str(x) for x in row] for row in datum.bmatrices[lab]]
            for lab in datum.labels
        }
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

    # -- verification ------------------------------------------------------------------

    def run_verifications(self, which) -> dict:
        results = {}

        def record(name, report):
            results[name] = {k: list(v) for k, v in report.checks.items()}
            for k, v in report.checks.items():
                if v:
                    self.findings.append({"suite": name, "check": k, "violations": v[:20]})

        if "reps" in which:
            violations = reps.verify_schur_relations(self.algebra, self.tensors)
            results["schur_relations"] = {"both families": violations}
            if violations:
                self.findings.append({"suite": "schur_relations", "check": "both families",
                                      "violations": violations[:20]})
        if "jring" in which:
            record("jring", self.ring.verify(seed=self.seed))
        if "compare-kl" in which:
            record("compare_kl", self.ring.compare_with_kl())
        if "cell" in which:
            record("cell_datum", cellular.verify_cell_datum(self.datum))
            record("phi", cellular.verify_phi(self.algebra, self.ring, seed=self.seed))
            record("bimodule", cellular.verify_bimodule_identity(
                self.algebra, self.ring, seed=self.seed))
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


# -- command implementations ---------------------------------------------------------


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _emit(data: dict, out, name: str):
    text = json.dumps(data, indent=1, sort_keys=True)
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


def cmd_run(args) -> int:
    session = _session_from_args(args)
    stages = (args.stages or "kl,reps,jring,cell").split(",")
    closed: list = []
    for st in stages:
        st = st.strip()
        if st not in STAGE_DEPS:
            raise InputError(f"unknown stage {st!r}")
        for dep in STAGE_DEPS[st] + [st]:
            if dep not in closed:
                closed.append(dep)
    out = args.out
    emitted = {}
    try:
        for st in closed:
            if st == "kl":
                emitted["kl-table.json"] = session.artifact_kl()
                emitted["h-table.json"] = session.artifact_h()
                emitted["cells.json"] = session.artifact_cells()
            elif st == "reps":
                emitted["reps.json"] = session.artifact_reps()
            elif st == "jring":
                emitted["jring.json"] = session.artifact_jring()
            elif st == "cell":
                emitted["cell-datum.json"] = session.artifact_cell()
                emitted["phi.json"] = session.artifact_phi()
        verify = args.verify or "all"
        if verify != "none":
            if verify == "all":
                which = [w for w in ("reps", "jring", "cell") if w in closed]
                if "jring" in closed and "kl" in closed:
                    which.append("compare-kl")
            else:
                which = verify.split(",")
            results = session.run_verifications(which)
            summary = session.header("verification")
            summary["results"] = results
            summary["ok"] = not session.findings
            emitted["verification.json"] = summary
    except VerificationError as exc:
        session.findings.append({"suite": "construction", "check": "invariants",
                                 "violations": [str(exc)]})
    for name, data in emitted.items():
        _emit(data, out, name)
    if session.findings:
        findings = session.header("findings")
        findings["findings"] = session.findings
        _emit(findings, out, "findings.json")
        return 2
    return 0


def cmd_table_dump(args, kind: str) -> int:
    session = _session_from_args(args)
    data = {"kl-table": session.artifact_kl,
            "h-table": session.artifact_h,
            "cells": session.artifact_cells}[kind]()
    _emit(data, args.out, f"{kind}.json")
    return 0


def cmd_rep(args) -> int:
    session = _session_from_args(args)
    if args.action == "validate":
        if not args.file:
            raise InputError("rep validate needs a file")
        rep = reps.load_rep(session.algebra, args.file)
        print(f"ok: {rep.label} (dim {rep.dim}) satisfies the defining relations")
        return 0
    if args.action == "schur":
        _emit(session.artifact_reps(), args.out, "reps.json")
        return 0
    if args.action == "balance":
        data = session.header("balanced-reps")
        data["balanced"] = {}
        for label, rb in session.balanced.items():
            beta = rb.gram.residue()
            if beta is None:
                raise ComputationError("not in valuation ring")
            data["balanced"][label] = {
                "gram_constant_matrix": [[session.scalar_str(x) for x in row] for row in beta],
            }
        _emit(data, args.out, "balanced.json")
        return 0
    if args.action == "leading":
        data = session.header("leading-tensors")
        data["tensors"] = {}
        for t in session.tensors:
            data["tensors"][t.label] = {
                "a": list(t.a),
                "f": session.scalar_str(t.f),
                "matrices": {
                    str(w): [[session.scalar_str(x) for x in row] for row in t.mats[w]]
                    for w in sorted(t.support)
                },
            }
        _emit(data, args.out, "leading.json")
        return 0
    raise InputError(f"unknown rep action {args.action!r}")


def cmd_jring(args) -> int:
    session = _session_from_args(args)
    if args.action == "build":
        _emit(session.artifact_jring(), args.out, "jring.json")
        return 0
    if args.action == "blocks":
        data = session.header("blocks")
        data["blocks"] = [list(b) for b in session.ring.blocks]
        data["block_of_representation"] = dict(sorted(session.ring.block_of_label.items()))
        _emit(data, args.out, "blocks.json")
        return 0
    if args.action == "verify":
        report = session.ring.verify(seed=session.seed)
        print(report.summary())
        return 0 if report.ok else 2
    if args.action == "compare-kl":
        report = session.ring.compare_with_kl()
        print(report.summary())
        return 0 if report.ok else 2
    raise InputError(f"unknown jring action {args.action!r}")


def cmd_cell(args) -> int:
    session = _session_from_args(args)
    if args.action == "build":
        _emit(session.artifact_cell(), args.out, "cell-datum.json")
        return 0
    if args.action == "verify":
        rep1 = cellular.verify_cell_datum(session.datum)
        rep2 = cellular.verify_phi(session.algebra, session.ring, seed=session.seed)
        rep3 = cellular.verify_bimodule_identity(session.algebra, session.ring,
                                                 seed=session.seed)
        print(rep1.summary())
        print(rep2.summary())
        print(rep3.summary())
        return 0 if rep1.ok and rep2.ok and rep3.ok else 2
    if args.action == "phi":
        _emit(session.artifact_phi(), args.out, "phi.json")
        return 0
    if args.action == "specialize":
        if not args.target:
            raise InputError("cell specialize needs --target weights")
        target_w = parse_weights(args.target, session.system)
        target_order = parse_order(args.target_order, target_w.rank)
        target_alg = HeckeAlgebra(session.table, target_w, target_order,
                                  require_positive=False)
        spec = cellular.specialize_datum(session.datum, target_alg)
        report = cellular.verify_specialized(spec)
        data = session.header("specialized-cell-datum")
        data["target_weights"] = {str(s): list(target_w.of_gen(s))
                                  for s in range(session.system.ngens)}
        data["elements"] = {
            f"{lab}|{s}|{t}": {str(w): p.to_str(session.table.field)
                               for w, p in sorted(coeffs.items())}
            for (lab, s, t), coeffs in sorted(spec.elements.items(), key=lambda kv: str(kv[0]))
        }
        data["verification"] = {k: list(v) for k, v in report.checks.items()}
        _emit(data, args.out, "cell-specialized.json")
        return 0 if report.ok else 2
    raise InputError(f"unknown cell action {args.action!r}")


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
        p.add_argument("--seed", type=int, help="seed for randomized spot checks")
        p.add_argument("--jobs", type=int, help="worker count (recorded; runs sequentially)")
        p.add_argument("--out", help="artifact directory (default: print to stdout)")
        p.add_argument("--config", help="JSON config file mirroring the flags")

    p_run = sub.add_parser("run", help="run pipeline stages and verifications")
    add_common(p_run)
    p_run.add_argument("--stages", help="comma list from kl,reps,jring,cell")
    p_run.add_argument("--verify", help="'all', 'none', or comma list")
    p_run.set_defaults(func=cmd_run)

    for kind in ("kl-table", "h-table", "cells"):
        p = sub.add_parser(kind, help=f"emit the {kind} artifact")
        add_common(p)
        p.set_defaults(func=lambda a, k=kind: cmd_table_dump(a, k))

    p_rep = sub.add_parser("rep", help="representation operations")
    p_rep.add_argument("action", choices=["validate", "schur", "balance", "leading"])
    p_rep.add_argument("--file", help="representation file for 'validate'")
    add_common(p_rep)
    p_rep.set_defaults(func=cmd_rep)

    p_jring = sub.add_parser("jring", help="asymptotic ring operations")
    p_jring.add_argument("action", choices=["build", "verify", "compare-kl", "blocks"])
    add_common(p_jring)
    p_jring.set_defaults(func=cmd_jring)

    p_cell = sub.add_parser("cell", help="cellular basis operations")
    p_cell.add_argument("action", choices=["build", "verify", "phi", "specialize"])
    p_cell.add_argument("--target", help="target weights for 'specialize'")
    p_cell.add_argument("--target-order", dest="target_order",
                        help="monomial order for the target weights")
    add_common(p_cell)
    p_cell.set_defaults(func=cmd_cell)

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
