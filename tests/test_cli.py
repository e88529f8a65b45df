"""Command-line interface: artifacts, determinism, round-trips, exit codes."""

import json
import tracemalloc
from pathlib import Path

import pytest

from conftest import B4_MATRIX, get_session
from heckecell import cellular, cli, reps
from heckecell.cli import Session, main
from heckecell.fields import RealCyclotomicField
from heckecell.scalars import LaurentPoly, MonomialOrder


def read(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def test_run_a1_full_pipeline(tmp_path):
    out = tmp_path / "a1"
    code = main(["run", "--system", "A1", "--stages", "kl,reps,jring,cell",
                 "--verify", "all", "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert {"kl-table.json", "h-table.json", "cells.json", "reps.json",
            "jring.json", "cell-datum.json", "phi.json",
            "verification.json"} <= names
    ver = read(out / "verification.json")
    assert ver["ok"] is True
    assert all(not v for suite in ver["results"].values() for v in suite.values())


def test_run_stage_needs_are_transitive(tmp_path, capsys):
    # cell needs jring and kl, and jring needs reps
    out = tmp_path / "a1"
    assert main(["run", "--system", "A1", "--stages", "cell", "--out", str(out)]) == 0
    written = [line.rsplit("/", 1)[-1] for line in capsys.readouterr().out.splitlines()]
    assert written == ["reps.json", "jring.json", "kl-table.json", "h-table.json",
                       "cells.json", "cell-datum.json", "phi.json", "verification.json"]
    ver = read(out / "verification.json")
    assert sorted(ver["results"]) == ["bimodule", "cell_datum", "compare_kl", "jring",
                                      "phi", "schur_relations"]
    assert ver["ok"] is True


def test_run_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    for out in (out1, out2):
        assert main(["run", "--system", "I2:5", "--stages", "jring",
                     "--verify", "none", "--seed", "7", "--jobs", "4",
                     "--out", str(out)]) == 0
    for name in ("reps.json", "jring.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_artifact_polynomials_roundtrip(tmp_path):
    out = tmp_path / "b2"
    assert main(["run", "--system", "B2", "--weights", "universal", "--order", "b-first",
                 "--stages", "kl", "--verify", "none", "--out", str(out)]) == 0
    data = read(out / "kl-table.json")
    field = RealCyclotomicField(data["conductor"])
    priority = data["order_priority"]
    order = MonomialOrder(len(priority), tuple(priority))
    for text in data["kl_polynomials"].values():
        p = LaurentPoly.from_str(text, field, order)
        assert p.to_str(field, order) == text


def test_h_table_artifact(tmp_path):
    out = tmp_path / "h"
    assert main(["h-table", "--system", "A2", "--out", str(out)]) == 0
    data = read(out / "h-table.json")
    assert data["a_values"][0] == [0]
    assert "h_constants" in data


def test_corrupt_rep_file_gives_verification_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "label": "bad",
        "dim": 1,
        "generators": {"0": [["1*eps[1]"]], "1": [["2*eps[1]"]]},
    }), encoding="utf-8")
    out = tmp_path / "out"
    code = main(["run", "--system", "A2", "--reps", str(bad),
                 "--stages", "reps", "--out", str(out)])
    assert code == 2
    findings = read(out / "findings.json")
    assert any("braid violation" in v for f in findings["findings"]
               for v in f["violations"])


def test_construction_failure_writes_every_artifact_built_before_it(tmp_path, capsys):
    # the braid violation above, after the kl stage has written its three tables
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"label": "bad", "dim": 1, "generators": {
        "0": [["1*eps[1]"]], "1": [["2*eps[1]"]]}}), encoding="utf-8")
    clean, out = tmp_path / "clean", tmp_path / "out"
    assert main(["run", "--system", "A2", "--stages", "kl", "--out", str(clean)]) == 0
    capsys.readouterr()
    assert main(["run", "--system", "A2", "--stages", "kl,reps", "--reps", str(bad),
                 "--out", str(out)]) == 2
    tables = ["kl-table.json", "h-table.json", "cells.json"]
    assert capsys.readouterr().out.splitlines() == [
        f"wrote {out / name}" for name in [*tables, "findings.json"]]
    for name in tables:
        assert (out / name).read_bytes() == (clean / name).read_bytes()
    assert read(out / "findings.json")["findings"][0]["suite"] == "construction"


def test_unparsable_rep_file_gives_input_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code = main(["run", "--system", "A2", "--reps", str(bad), "--stages", "reps"])
    assert code == 3


@pytest.mark.parametrize("data", [
    [1, 2],
    {"generators": {"0": [[1]], "1": [["1*eps[1]"]]}},
    {"wgraph": {"edges": []}},
    {"wgraph": {"vertices": [[0]], "edges": [{"u": 0, "v": 5}]}},
    {"generators": {"0": [["-1*eps[-1]"]],
                    "1": [["-1*eps[-1]", "0"], ["0", "-1*eps[-1]"]]}},
    {"generators": {"0": [["x*eps[1]"]], "1": [["1*eps[1]"]]}},
    {"generators": {"0": [["1*eps[a]"]], "1": [["1*eps[1]"]]}},
], ids=["array", "number-entry", "no-vertices", "edge-out-of-range", "unequal-sizes",
        "bad-coefficient", "bad-exponent"])
def test_malformed_rep_file_gives_input_exit(tmp_path, capsys, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    assert_input_error(["rep", "validate", "--system", "I2:4", "--file", str(bad)], capsys)


def test_bad_system_gives_input_exit():
    assert main(["run", "--system", "Z9"]) == 3


@pytest.mark.parametrize("spec", ["I2:x", "I2:", "I2:3.5"])
def test_malformed_dihedral_name_gives_input_exit(tmp_path, capsys, spec):
    assert_input_error(["cells", "--system", spec, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("spec,name", [(" A2", "A2"), ("I2:05", "I2:5"), (" I2:5 ", "I2:5")])
def test_named_system_is_stored_in_its_canonical_spelling(tmp_path, spec, name):
    # the built-in family is looked up by the stored name, and headers carry it
    out = tmp_path / "out"
    assert main(["run", "--system", spec, "--stages", "reps", "--verify", "none",
                 "--out", str(out)]) == 0
    assert read(out / "reps.json")["system"] == name


@pytest.mark.parametrize("spec", ["[[1,2.5],[2.5,1]]", "[[1,true],[true,1]]",
                                  '[[1,"3"],["3",1]]', "[[1,3,2],[3,1,3],[2]]"],
                         ids=["float", "bool", "string", "ragged"])
def test_non_integer_or_ragged_coxeter_matrix_gives_input_exit(tmp_path, capsys, spec):
    assert_input_error(["cells", "--system", spec, "--out", str(tmp_path)], capsys)


def test_run_writes_the_h_table_above_48_elements(tmp_path):
    out = tmp_path / "a4"
    assert main(["run", "--system", "A4", "--stages", "kl", "--verify", "none",
                 "--out", str(out)]) == 0
    data = read(out / "h-table.json")
    assert len(data["a_values"]) == 120


def test_h_table_past_the_size_limit_gives_input_exit(tmp_path, capsys):
    assert_input_error(["h-table", "--system", B4_MATRIX, "--out", str(tmp_path)], capsys)
    assert not list(tmp_path.iterdir())


def test_jring_and_cells_commands(tmp_path):
    out = tmp_path / "x"
    assert main(["jring", "build", "--system", "I2:4", "--out", str(out)]) == 0
    data = read(out / "jring.json")
    assert data["blocks"][0] == [0]
    assert main(["cells", "--system", "I2:4", "--out", str(out)]) == 0
    cells = read(out / "cells.json")
    assert cells["cells"][0] == [0]
    assert main(["jring", "verify", "--system", "I2:4"]) == 0
    assert main(["jring", "compare-kl", "--system", "I2:4"]) == 0


def test_jring_blocks_names_the_ring_blocks_and_each_label_block(tmp_path):
    """`blocks.json` repeats the ring's blocks, and each block is the union of
    the leading-matrix supports of the representations it is named for."""
    out = tmp_path / "x"
    for command in (["jring", "build"], ["jring", "blocks"], ["rep", "leading"]):
        assert main(command + ["--system", "I2:6", "--out", str(out)]) == 0
    blocks = read(out / "blocks.json")
    assert blocks["blocks"] == read(out / "jring.json")["blocks"]
    lead = read(out / "leading.json")["tensors"]
    assert sorted(blocks["block_of_representation"]) == sorted(lead)
    union: dict = {}
    for label, bi in blocks["block_of_representation"].items():
        union.setdefault(bi, set()).update(map(int, lead[label]["matrices"]))
    assert [sorted(union[bi]) for bi in sorted(union)] == blocks["blocks"]
    assert len(blocks["blocks"]) > 2


def test_artifact_printed_without_out_is_the_file_written_with_it(tmp_path, capsys):
    assert main(["kl-table", "--system", "A1"]) == 0
    printed = capsys.readouterr().out
    assert main(["kl-table", "--system", "A1", "--out", str(tmp_path)]) == 0
    assert printed == (tmp_path / "kl-table.json").read_text(encoding="utf-8")
    assert json.loads(printed)["kl_polynomials"] == {"0,1": "1*eps[-1]"}


def test_rep_commands(tmp_path):
    out = tmp_path / "reps"
    assert main(["rep", "schur", "--system", "I2:4", "--out", str(out)]) == 0
    data = read(out / "reps.json")
    fvals = sorted(r["f"] for r in data["representations"])
    assert fvals == ["1", "1", "2", "2", "2"]
    assert main(["rep", "balance", "--system", "B2", "--out", str(out)]) == 0
    assert main(["rep", "leading", "--system", "A1", "--out", str(out)]) == 0
    lead = read(out / "leading.json")
    assert lead["tensors"]["A:(2,)"]["matrices"]["0"] == [["1"]]


def test_rep_validate_roundtrip(tmp_path):
    good = tmp_path / "rho.json"
    good.write_text(json.dumps({
        "label": "wg",
        "wgraph": {"vertices": [[0], [1]], "edges": [{"u": 0, "v": 1, "weight": 1}]},
    }), encoding="utf-8")
    assert main(["rep", "validate", "--file", str(good), "--system", "A2"]) == 0


def test_cell_commands(tmp_path):
    out = tmp_path / "cell"
    assert main(["cell", "build", "--system", "A2", "--out", str(out)]) == 0
    data = read(out / "cell-datum.json")
    assert data["invertible_primes"] == []
    assert len(data["elements"]) == 6
    assert main(["cell", "verify", "--system", "A2"]) == 0
    assert main(["cell", "phi", "--system", "A1", "--out", str(out)]) == 0
    code = main(["cell", "specialize", "--system", "B2", "--weights", "universal",
                 "--order", "b-first", "--target", "equal", "--out", str(out)])
    assert code == 0
    spec = read(out / "cell-specialized.json")
    assert all(not v for v in spec["verification"].values())


A1_CUBED = "[[1,2,2],[2,1,2],[2,2,1]]"
ORDER_201 = ["--weights", "universal", "--order", "2,0,1"]  # a priority that is not its own inverse


def test_non_involutive_priority_reads_and_writes_user_coordinates(tmp_path):
    """Under the priority (2, 0, 1), stored and user coordinates differ by a
    permutation that is not its own inverse: a-values and h-table text, and
    the exponents of a representation file, are in user coordinates."""
    out = tmp_path / "a13"
    assert main(["h-table", "--system", A1_CUBED, *ORDER_201, "--out", str(out)]) == 0
    data = read(out / "h-table.json")
    table = Session({"system": A1_CUBED}).table
    assert data["weights"]["0"] == [0, 0, 1]
    for s in range(3):
        g, w = table.gen(s), data["weights"][str(s)]
        assert data["a_values"][g] == w
        pos, neg = ",".join(map(str, w)), ",".join(str(-x) for x in w)
        assert data["h_constants"][f"{g},{g},{g}"] == f"1*eps[{neg}] + 1*eps[{pos}]"
    g0 = table.gen(0)
    assert data["h_constants"][f"{g0},{g0},{g0}"] == "1*eps[0,0,-1] + 1*eps[0,0,1]"
    # T_s -> v_s, written in user coordinates; swapping two generators breaks it
    gens = {str(s): [[f"1*eps[{','.join(map(str, w))}]"]] for s, w in data["weights"].items()}
    for swap, code in ((False, 0), (True, 2)):
        if swap:
            gens["0"], gens["1"] = gens["1"], gens["0"]
        path = tmp_path / f"index-{swap}.json"
        path.write_text(json.dumps({"label": "index", "generators": gens}), encoding="utf-8")
        assert main(["rep", "validate", "--file", str(path), "--system", A1_CUBED,
                     *ORDER_201]) == code


def _swapped(text: str) -> str:
    """A rank-2 polynomial text with the two entries of every exponent swapped."""
    terms = []
    for part in text.split(" + "):
        coeff, _, exp = part.rpartition("*eps[")
        a, b = map(int, exp[:-1].split(","))
        terms.append(((b, a), coeff))
    return " + ".join(f"{c}*eps[{a},{b}]" for (a, b), c in sorted(terms))


def test_target_order_converts_the_specialized_polynomials(tmp_path):
    """Swapping the target coordinates and the target priority together
    describes the same specialization, so the texts differ by the swap only;
    printing with the source order (b-first) would break this."""
    elements = {}
    for target, order in (('{"0":[1,0],"1":[0,1]}', "0,1"), ('{"0":[0,1],"1":[1,0]}', "1,0")):
        out = tmp_path / order.replace(",", "")
        assert main(["cell", "specialize", "--system", "B2", "--weights", "universal",
                     "--order", "b-first", "--target", target, "--target-order", order,
                     "--out", str(out)]) == 0
        data = read(out / "cell-specialized.json")
        assert all(not v for v in data["verification"].values())
        elements[order] = data["elements"]
    assert len(elements["0,1"]) == 8
    assert elements["1,0"] == {key: {w: _swapped(text) for w, text in coeffs.items()}
                               for key, coeffs in elements["0,1"].items()}


def materialized(session: Session, stem: str) -> dict:
    """The artifact `stem` with its table built as a dict of strings, the
    way the artifact's text is defined, independently of the streaming
    writer."""
    alg, n = session.algebra, session.table.size

    def text(p):
        return p.to_str(session.table.field, session.order)

    data = getattr(session, cli.ARTIFACTS[stem])()
    if stem == "kl-table":
        data["kl_polynomials"] = {f"{y},{w}": text(p) for w in range(n)
                                  for y, p in alg.cprime(w).items() if y != w}
    elif stem == "h-table":
        rows = alg.h_rows()
        data["h_constants"] = {f"{x},{y},{z}": text(h) for x in range(n) for y in range(n)
                               for z, h in rows[x][y].items()}
    elif stem == "jring":
        data["gamma"] = {f"{x},{y},{z}": session.scalar_str(g)
                         for (x, y, z), g in session.ring.gamma.items()}
    else:
        data["images"] = {str(w): {str(z): text(p) for z, p in
                                   cellular.hecke_to_asym(alg, session.ring, w).items()}
                          for w in range(n)}
    return data


@pytest.mark.parametrize("stem", ["h-table", "kl-table", "jring", "phi"])
@pytest.mark.parametrize("system,weights,order", [
    ("A1", "equal", None),
    ("B3", "universal", "b-first"),
    ("I2:12", "universal", "b-first"),  # 24 elements: "1,20,3" sorts before "10,2,3"
], ids=["A1", "B3-universal", "I2:12-universal"])
def test_a_streamed_table_writes_the_bytes_of_its_dict(tmp_path, capsys, stem, system,
                                                       weights, order):
    session = get_session(system, weights, order)
    want = json.dumps(materialized(session, stem), indent=1, sort_keys=True) + "\n"
    data = getattr(session, cli.ARTIFACTS[stem])()
    capsys.readouterr()
    cli._emit(data, None, f"{stem}.json")
    assert capsys.readouterr().out == want
    cli._emit(data, str(tmp_path), f"{stem}.json")
    assert (tmp_path / f"{stem}.json").read_text(encoding="utf-8") == want


@pytest.mark.parametrize("rows", [[], ['"1,20,3": "a"', '"10,2,3": "b"']],
                         ids=["empty", "two-rows"])
def test_a_table_given_as_rows_sits_at_its_key(tmp_path, capsys, rows):
    data = {"b": [1, {"c": 2}], "table": lambda: iter(rows), "z": "last"}
    cli._emit(data, None, "t.json")
    table = json.loads("{" + ",".join(rows) + "}")
    assert capsys.readouterr().out == json.dumps({**data, "table": table}, indent=1,
                                                 sort_keys=True) + "\n"


def test_an_artifact_is_encoded_as_it_is_written(tmp_path):
    # json.dumps holds every part of the text until the join, about four
    # times the text; rows formatted as they are written peak far below it
    session = get_session("B3", "universal", "b-first")
    text = json.dumps(materialized(session, "h-table"), indent=1, sort_keys=True)
    session.artifact_h()  # the table, the a-values and the text of each value
    tracemalloc.start()
    try:
        cli._emit(session.artifact_h(), str(tmp_path), "h-table.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "h-table.json").read_text(encoding="utf-8") == text + "\n"
    assert peak < len(text) / 4


def test_config_file(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", "weights": "equal"}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--stages", "reps",
                 "--verify", "none", "--out", str(out)]) == 0
    data = read(out / "reps.json")
    assert data["system"] == "A1"


def test_config_out_is_honoured_unless_the_flag_overrides_it(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", "out": str(tmp_path / "d")}), encoding="utf-8")
    argv = ["run", "--config", str(cfg), "--stages", "reps", "--verify", "none"]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == f"wrote {tmp_path / 'd' / 'reps.json'}\n"
    assert read(tmp_path / "d" / "reps.json")["system"] == "A1"
    assert main([*argv, "--out", str(tmp_path / "flag")]) == 0
    assert (tmp_path / "flag" / "reps.json").exists()
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["reps.json"]


@pytest.mark.parametrize("config,key", [({"sytem": "B2"}, "sytem"),
                                        ({"system": "A1", "stages": "reps"}, "stages")],
                         ids=["misspelt", "flag-only"])
def test_unknown_config_key_gives_input_exit(tmp_path, capsys, config, key):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: unknown config key {key!r}; the keys are system, ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("where", ["file", "under-file"])
def test_out_that_cannot_be_a_directory_gives_input_exit(tmp_path, capsys, where):
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    out = blocker if where == "file" else blocker / "sub"
    capsys.readouterr()
    assert main(["kl-table", "--system", "A1", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"input error: cannot write {out}: {blocker} is not a directory\n"


@pytest.mark.parametrize("where", ["file", "under-file"])
@pytest.mark.parametrize("command", [
    ["run"], ["kl-table"], ["h-table"], ["cells"], ["rep", "schur"], ["rep", "balance"],
    ["rep", "leading"], ["jring", "build"], ["jring", "blocks"], ["cell", "build"],
    ["cell", "phi"], ["cell", "specialize", "--target", '{"0":[2],"1":[1],"2":[1]}'],
], ids=lambda command: "-".join(command[:2]))
def test_run_with_an_out_that_cannot_be_a_directory_exits_before_any_stage(
        tmp_path, capsys, monkeypatch, command, where):
    def no_stage(session):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(Session, "table", property(no_stage))
    blocker = tmp_path / "taken"
    blocker.write_text("", encoding="utf-8")
    out = blocker if where == "file" else blocker / "sub" / "dir"
    capsys.readouterr()
    assert main([*command, "--system", "B3", "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == f"input error: cannot write {out}: {blocker} is not a directory\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_report_command(tmp_path, capsys):
    out = tmp_path / "a1"
    main(["run", "--system", "A1", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "overall: ok" in text
    assert main(["report", str(tmp_path / "missing")]) == 3


def test_report_a2_invariants(tmp_path, capsys):
    out = tmp_path / "a2"
    main(["run", "--system", "A2", "--stages", "reps", "--verify", "none",
          "--out", str(out)])
    capsys.readouterr()
    assert main(["report", str(out)]) == 0
    text = capsys.readouterr().out
    assert "a-invariants: [(0,), (1,), (3,)]" in text
    assert "f-values: ['1', '1', '1']" in text


def assert_input_error(argv, capsys):
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "input error:" in err and "Traceback" not in err


def test_missing_config_file_gives_input_exit(tmp_path, capsys):
    assert_input_error(["run", "--config", str(tmp_path / "missing.json")], capsys)


def test_invalid_json_config_gives_input_exit(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text("{", encoding="utf-8")
    assert_input_error(["run", "--config", str(cfg)], capsys)


@pytest.mark.parametrize("argv", [["rep", "validate", "--file"], ["run", "--reps"]],
                         ids=["rep-validate", "run"])
def test_representation_file_that_is_not_utf8_gives_input_exit(tmp_path, capsys, argv):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00bad")
    capsys.readouterr()
    assert main([*argv, str(bad), "--system", "A2"]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"input error: cannot read representation file {bad}: ")
    assert "Traceback" not in err


def test_non_object_config_gives_input_exit(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text("[1, 2]", encoding="utf-8")
    assert_input_error(["run", "--config", str(cfg)], capsys)


def test_report_on_unparsable_artifact_gives_input_exit(tmp_path, capsys):
    (tmp_path / "reps.json").write_text("not json", encoding="utf-8")
    assert_input_error(["report", str(tmp_path)], capsys)


def test_usage_error_gives_input_exit(capsys):
    assert_input_error(["run", "--seed", "abc"], capsys)


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "-h"])
    assert exc.value.code == 0
    assert "--stages" in capsys.readouterr().out


@pytest.mark.parametrize("name,data", [
    ("reps.json", {}),
    ("reps.json", {"system": "A1", "conductor": 1, "representations": [3]}),
    ("jring.json", {"distinguished": 4, "blocks": []}),
    ("cell-datum.json", []),
    ("verification.json", {"results": [], "ok": True}),
], ids=["reps-empty", "reps-shape", "jring-shape", "cell-list", "verification-shape"])
def test_report_on_artifact_without_its_fields_gives_input_exit(tmp_path, capsys, name, data):
    (tmp_path / name).write_text(json.dumps(data), encoding="utf-8")
    assert_input_error(["report", str(tmp_path)], capsys)


@pytest.mark.parametrize("key,value", [("seed", "abc"), ("jobs", "two"),
                                       ("seed", None), ("jobs", True)])
def test_non_integer_config_value_gives_input_exit(tmp_path, capsys, key, value):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", key: value}), encoding="utf-8")
    assert_input_error(["run", "--config", str(cfg), "--stages", "kl", "--verify", "none",
                        "--out", str(tmp_path / "out")], capsys)


@pytest.mark.parametrize("spec", ['{"0":["a"],"1":["b"]}', '{"0":[1.5],"1":[1]}',
                                  '{"0":[true],"1":[1]}'], ids=["string", "float", "bool"])
@pytest.mark.parametrize("flag", ["--weights", "--target"])
def test_non_integer_weights_give_input_exit(tmp_path, capsys, spec, flag):
    command = ["kl-table"] if flag == "--weights" else ["cell", "specialize"]
    assert_input_error([*command, "--system", "I2:4", flag, spec,
                        "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("system", ["B2", "I2:6"])
def test_specialization_that_splits_a_source_coordinate_gives_input_exit(tmp_path, capsys,
                                                                         system):
    # under equal source weights both generators share coordinate 0, which
    # has no one image for the target (2, 1); equal to equal is a homomorphism
    capsys.readouterr()
    assert main(["cell", "specialize", "--system", system, "--target", '{"0":[2],"1":[1]}',
                 "--out", str(tmp_path / "split")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: generators sharing source coordinate 0 have "
                          "different target weights")
    assert not (tmp_path / "split").exists()
    assert main(["cell", "specialize", "--system", system, "--target", "equal",
                 "--out", str(tmp_path / "equal")]) == 0


@pytest.mark.parametrize("spec", ["a-first", "asymptotic", "1;0"])
def test_order_other_than_natural_b_first_or_priority_gives_input_exit(tmp_path, capsys, spec):
    assert_input_error(["kl-table", "--system", "B2", "--weights", "universal",
                        "--order", spec, "--out", str(tmp_path)], capsys)


@pytest.mark.parametrize("value", ["x.json", [1], [0], {"0": "x.json"}],
                         ids=["string", "int", "zero", "object"])
def test_reps_config_value_other_than_builtin_or_paths_gives_input_exit(tmp_path, capsys,
                                                                          value):
    # iterating a string would read one file per character, and [1] would open fd 1
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", "reps": value}), encoding="utf-8")
    capsys.readouterr()
    assert main(["run", "--config", str(cfg), "--stages", "reps", "--verify", "none",
                 "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: reps must be 'builtin' or a list of paths")
    assert not (tmp_path / "out").exists()


def test_integer_string_config_value_is_accepted(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", "seed": "7"}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--stages", "reps", "--verify", "none",
                 "--out", str(out)]) == 0
    assert read(out / "reps.json")["seed"] == 7


def test_representations_that_share_a_label_give_input_exit(tmp_path, capsys):
    # unlabelled files are all named "loaded"; keyed by label, they used to
    # collapse into one and fail the Schur relations with exit 2
    files = {"a": {"generators": {"0": [["1*eps[1]"]], "1": [["1*eps[1]"]]}},
             "b": {"generators": {"0": [["-1*eps[-1]"]], "1": [["-1*eps[-1]"]]}},
             "c": {"wgraph": {"vertices": [[0], [1]], "edges": [{"u": 0, "v": 1}]}}}
    paths = []
    for name, data in files.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(data), encoding="utf-8")
    out = tmp_path / "out"
    argv = ["run", "--system", "A2", "--reps", *map(str, paths), "--out", str(out)]
    capsys.readouterr()
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: two representations share the label 'loaded'")
    assert not out.exists()
    for name, path in zip(files, paths):
        path.write_text(json.dumps({"label": name, **files[name]}), encoding="utf-8")
    assert main(argv) == 0


@pytest.mark.parametrize("system,spec,message", [
    ("I2:12", '{"0":[1]}', "has no weight for generator 1"),
    ("A2", '{"0":[1],"1":[1],"2":[1]}', "names '2', which is not a generator 0..1"),
    ("I2:12", "[1,2]", "must be a JSON object mapping generators 0..1"),
    ("A2", '{"0":1,"1":[1]}', "the weight of generator 0 must be a list of integers"),
], ids=["missing-key", "extra-key", "array", "non-list-weight"])
def test_weight_specification_must_name_exactly_the_generators(tmp_path, capsys, system,
                                                               spec, message):
    capsys.readouterr()
    assert main(["kl-table", "--system", system, "--weights", spec,
                 "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("input error: weight specification") and message in err


def test_balanced_checks_each_form_and_model_once_and_clears_every_word_cache(monkeypatch):
    # B3 equal: two of the ten seminormal models are replaced by balanced ones
    forms, passes = [], []
    check, tensor = reps.check_intertwining, reps.leading_tensor

    def counted_check(rep, omega):
        forms.append(omega)
        return check(rep, omega)

    def counted_tensor(rep, schur, words):
        passes.append(rep)
        return tensor(rep, schur, words)

    monkeypatch.setattr(reps, "check_intertwining", counted_check)
    monkeypatch.setattr(reps, "leading_tensor", counted_tensor)
    session = Session({"system": "B3"})
    balanced = session.balanced
    replaced = [r for r in session.family if balanced[r.label].rep is not r]
    assert [r.label for r in replaced] == ["B:((1, 1), (1,))", "B:((1,), (2,))"]
    models = [*session.family, *(balanced[r.label].rep for r in replaced)]
    # one intertwining check per form, the forms kept among them
    assert len({id(f) for f in forms}) == len(forms) == len(models)
    assert {id(b.gram) for b in balanced.values()} <= {id(f) for f in forms}
    # one residue pass per model
    assert sorted(map(id, passes)) == sorted(map(id, models))
    session.ring  # noqa: B018 - builds the ring from the tensors already made
    assert len(passes) == len(models)


def test_pooled_polynomials_are_unchanged_by_a_full_run(tmp_path, monkeypatch):
    # every entry that shares a pooled value would see an in-place edit
    sessions = []
    make = cli._session_from_args

    def kept(args):
        sessions.append(make(args))
        return sessions[-1]

    monkeypatch.setattr(cli, "_session_from_args", kept)
    assert main(["run", "--system", "A3", "--out", str(tmp_path)]) == 0
    pool = sessions[0].algebra._pool
    assert pool and all(key is p for key, p in pool.items())
    assert all(p._hash == hash((p.rank, frozenset(p.terms.items()))) for p in pool)


@pytest.mark.parametrize("verify", ["bogus", "compare_kl", "reps,bogus", "all,reps", ""])
def test_unknown_verify_name_gives_input_exit_and_writes_nothing(tmp_path, capsys, verify):
    out = tmp_path / "out"
    assert_input_error(["run", "--system", "A1", "--verify", verify, "--out", str(out)], capsys)
    assert not out.exists()


@pytest.mark.parametrize("stages", ["bogus", "kl,bogus", ""])
def test_unknown_stage_name_gives_input_exit_and_writes_nothing(tmp_path, capsys, stages):
    out = tmp_path / "out"
    assert_input_error(["run", "--system", "A1", "--stages", stages, "--out", str(out)], capsys)
    assert not out.exists()


SUITE_KEYS = {"reps": ["schur_relations"], "jring": ["jring"], "compare-kl": ["compare_kl"],
              "cell": ["bimodule", "cell_datum", "phi"]}


@pytest.mark.parametrize("verify,keys", [
    *SUITE_KEYS.items(),
    ("reps, jring", ["jring", "schur_relations"]),
    (" cell ,compare-kl", ["bimodule", "cell_datum", "compare_kl", "phi"]),
], ids=[*SUITE_KEYS, "reps-and-jring", "cell-and-compare-kl"])
def test_run_writes_exactly_the_results_of_the_named_suites(tmp_path, verify, keys):
    out = tmp_path / "a2"
    assert main(["run", "--system", "A2", "--verify", verify, "--out", str(out)]) == 0
    assert sorted(read(out / "verification.json")["results"]) == keys


@pytest.fixture(scope="module")
def a2_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("a2")
    assert main(["run", "--system", "A2", "--out", str(out)]) == 0
    return read(out / "verification.json")["results"]


@pytest.mark.parametrize("command,suite", [(["jring", "verify"], "jring"),
                                           (["jring", "compare-kl"], "compare-kl"),
                                           (["cell", "verify"], "cell")])
def test_suite_actions_print_the_checks_that_run_records(capsys, a2_results, command, suite):
    capsys.readouterr()
    assert main([*command, "--system", "A2"]) == 0
    printed = [line.split(": ")[0] for line in capsys.readouterr().out.splitlines()
               if not line.startswith("  ")]
    recorded = [check for key in SUITE_KEYS[suite] for check in a2_results[key]]
    assert sorted(printed) == sorted(recorded)
    assert len(printed) == len(set(printed))
