"""Command-line interface: artifacts, determinism, round-trips, exit codes."""

import json
from pathlib import Path

import pytest

from conftest import B4_MATRIX
from heckecell.cli import Session, main
from heckecell.fields import RealCyclotomicField
from heckecell.scalars import LaurentPoly


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
    rank = len(data["order_priority"])
    for text in data["kl_polynomials"].values():
        p = LaurentPoly.from_str(text, rank, field)
        assert p.to_str(field) == text


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


def test_unparsable_rep_file_gives_input_exit(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code = main(["run", "--system", "A2", "--reps", str(bad), "--stages", "reps"])
    assert code == 3


def test_bad_system_gives_input_exit():
    assert main(["run", "--system", "Z9"]) == 3


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


def test_config_file(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", "weights": "equal"}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--stages", "reps",
                 "--verify", "none", "--out", str(out)]) == 0
    data = read(out / "reps.json")
    assert data["system"] == "A1"


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


@pytest.mark.parametrize("key,value", [("seed", "abc"), ("jobs", "two"), ("bound", 2.5),
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


def test_integer_string_config_value_is_accepted(tmp_path):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"system": "A1", "seed": "7", "bound": "100"}), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--stages", "reps", "--verify", "none",
                 "--out", str(out)]) == 0
    assert read(out / "reps.json")["seed"] == 7


def test_balanced_clears_the_word_cache_of_a_replaced_model():
    # B3 equal: the balance test fills the word cache of every model, and two
    # models are replaced by balanced ones
    session = Session({"system": "B3"})
    balanced = session.balanced
    replaced = [r for r in session.family if balanced[r.label] is not r]
    assert [r.label for r in replaced] == ["B:((1, 1), (1,))", "B:((1,), (2,))"]
    assert all(list(r._words) == [0] for r in replaced)
    assert all(len(balanced[r.label]._words) == 48 for r in replaced)


def test_ring_clears_every_word_cache():
    # B3 equal: two of the models are replaced by balanced ones
    session = Session({"system": "B3"})
    session.ring  # noqa: B018 - builds the tensors
    models = [*session.family, *session.balanced.values()]
    assert len({id(r) for r in models}) == len(session.family) + 2
    assert all(list(r._words) == [0] for r in models)


@pytest.mark.parametrize("verify", ["bogus", "compare_kl", "reps,bogus", "all,reps"])
def test_unknown_verify_name_gives_input_exit_and_writes_nothing(tmp_path, capsys, verify):
    out = tmp_path / "out"
    assert_input_error(["run", "--system", "A1", "--verify", verify, "--out", str(out)], capsys)
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
