"""CLI: spec parsing, report shape, exit codes, byte-level determinism."""

import dataclasses
import json
import os

import pytest

from gaugekit.cellulation import Cellulation, tetrahedron_sphere, theta_sphere, to_json as cell_to_json
from gaugekit import cli
from gaugekit.cli import RunConfig, main
from gaugekit.groups import catalog_factor_system


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_groups_derived_series_s4(tmp_path):
    out = tmp_path / "s4.json"
    assert main(["groups", "--derived-series", "S4", "-o", str(out)]) == 0
    doc = read(out)
    assert doc["schema"] == 1
    assert doc["derived_series"]["orders"] == [24, 12, 4, 1]
    assert doc["derived_series"]["derived_length"] == 3
    assert doc["derived_series"]["solvable"] is True


def test_groups_derived_series_abelian(tmp_path):
    out = tmp_path / "z6.json"
    assert main(["groups", "--derived-series", "Z6", "-o", str(out)]) == 0
    assert read(out)["derived_series"]["derived_length"] == 1


def test_groups_nonsolvable_query_reports_core(tmp_path):
    out = tmp_path / "a5.json"
    assert main(["groups", "--derived-series", "A5", "-o", str(out)]) == 0
    doc = read(out)["derived_series"]
    assert doc["solvable"] is False
    assert doc["derived_length"] is None
    assert doc["perfect_core_order"] == 60


def test_groups_center_and_factor_system(tmp_path):
    out = tmp_path / "d4.json"
    assert main(["groups", "--center", "D4", "--factor-system", "D4", "-o", str(out)]) == 0
    doc = read(out)
    assert doc["center"]["order"] == 2
    assert doc["factor_system"]["n"] == "Z2"
    assert len(doc["factor_system"]["omega"]) == 4


def test_groups_without_query_is_a_precondition_error(capsys):
    assert main(["groups"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert err["error"]["type"] == "precondition"


def test_prepare_toric_baseline(tmp_path):
    out = tmp_path / "toric.json"
    code = main(
        ["prepare", "--group", "Z2", "--cell", "square:2x2", "--protocol", "abelian",
         "--mode", "postselect", "-o", str(out)]
    )
    assert code == 0
    doc = read(out)
    assert doc["summary"]["shots"] == 1
    assert doc["summary"]["min_stabilizer_expectation"] >= 1 - 1e-9
    assert doc["summary"]["min_fidelity_vs_oracle"] >= 1 - 1e-9
    assert len(doc["runs"][0]["verification"]["vertex_expectations"]) == 4
    assert len(doc["runs"][0]["verification"]["plaquette_expectations"]) == 4


def test_prepare_nil2_reports_flat_sector_fidelity(tmp_path):
    out = tmp_path / "nil2.json"
    code = main(
        ["prepare", "--group", "D4", "--cell", "hexagon", "--protocol", "nil2",
         "--mode", "sample:42", "-o", str(out)]
    )
    assert code == 0
    doc = read(out)
    assert doc["summary"]["shots"] == 1
    assert doc["summary"]["min_stabilizer_expectation"] >= 1 - 1e-9
    assert doc["summary"]["min_fidelity_vs_oracle"] == pytest.approx(0.25, abs=1e-9)


def test_prepare_rejects_nonsolvable_naming_core(capsys):
    assert main(["prepare", "--group", "A5", "--protocol", "solvable"]) == 1
    err = json.loads(capsys.readouterr().out)
    assert "perfect core" in err["error"]["message"]
    assert "60" in err["error"]["message"]


def test_prepare_rejects_register_over_amplitude_budget(capsys):
    # Z6 on the 2x2 torus needs 6^12 amplitudes once the edge ancillas join
    argv = ["prepare", "--group", "Z6", "--cell", "square:2x2", "--protocol", "abelian",
            "--no-oracle-fidelity", "--no-stabilizers"]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "precondition"
    assert "dense register budget 20000000" in err["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["prepare", "--group", "Z2", "--cell", "pentagon"],
        ["prepare", "--group", "Z2", "--mode", "guess"],
        ["prepare", "--group", "Z2", "--mode", "postselect", "--seeds", "3"],
        ["prepare", "--group", "Z4", "--protocol", "nil2", "--cell", "theta"],
    ],
)
def test_prepare_precondition_failures(argv, capsys):
    assert main(argv) == 1
    assert json.loads(capsys.readouterr().out)["error"]["type"] == "precondition"


@pytest.mark.parametrize(
    "group,cell,protocol",
    [
        pytest.param("Z2", "square:2x2", "abelian", id="Z2-abelian"),
        # threads branching from one read-only prefix of a multi-round run
        pytest.param("S4", "hexagon", "solvable", id="S4-solvable"),
        pytest.param("D4", "hexagon", "nil2", id="D4-nil2"),
    ],
)
def test_prepare_byte_identical_across_workers(tmp_path, group, cell, protocol):
    base = ["prepare", "--group", group, "--cell", cell, "--protocol", protocol,
            "--mode", "sample:0", "--seeds", "6"]
    a, b = tmp_path / "w1.json", tmp_path / "w4.json"
    assert main(base + ["--workers", "1", "-o", str(a)]) == 0
    assert main(base + ["--workers", "4", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    seeds = [run["seed"] for run in read(a)["runs"]]
    assert seeds == list(range(6))


def test_prepare_forced_mode_reads_outcome_file(tmp_path):
    # outcomes on a connected graph multiply to the identity, so both
    # vertices flip together
    forced = tmp_path / "forced.json"
    forced.write_text(json.dumps({"0": 1, "1": 1}))
    out = tmp_path / "forced_run.json"
    code = main(
        ["prepare", "--group", "Z2", "--cell", "theta", "--protocol", "abelian",
         "--mode", f"forced:{forced}", "-o", str(out)]
    )
    assert code == 0
    outcomes = read(out)["runs"][0]["transcript"]["rounds"][0]["outcomes"]["charge"]
    assert outcomes == {"0": 1, "1": 1}


def test_prepare_forced_mode_rejects_a_key_naming_no_measured_site(tmp_path, capsys):
    forced = tmp_path / "forced.json"
    forced.write_text(json.dumps({"0": 1, "1": 2, "17": 1}))
    argv = ["prepare", "--group", "Z3", "--cell", "square:2x2", "--protocol", "abelian", "--mode", f"forced:{forced}"]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "precondition" and "[17]" in err["message"]


@pytest.mark.parametrize(
    "argv,names",
    [
        pytest.param(["--group", "Z2", "--mode", "forced:{doc}"], "forced-outcome document {doc!r}", id="forced-file"),
        pytest.param(["--group", "{doc}", "--protocol", "nil2"], "extension document {doc!r}", id="nil2-group"),
        pytest.param(["--group", "{doc}", "--protocol", "metabelian"], "extension document {doc!r}", id="metabelian-group"),
        pytest.param(["--group", "Z2", "--cell", "{doc}"], "cellulation document {doc!r}", id="cell"),
        # a group document may be a list, but only of group objects
        pytest.param(["--group", "{doc}", "--protocol", "abelian"], "list of group objects", id="group-catalog"),
    ],
)
def test_prepare_rejects_a_document_that_is_not_an_object(tmp_path, capsys, argv, names):
    doc = tmp_path / "list.json"
    doc.write_text("[1, 2]")
    assert main(["prepare"] + [arg.format(doc=str(doc)) for arg in argv]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "precondition"
    assert names.format(doc=str(doc)) in err["message"]


NAMELESS_GROUP = json.dumps([{"order": 2, "mult_table": [[0, 1], [1, 0]]}])
EXTENSION_WITHOUT_N = json.dumps({"extension": {"q": "Z2", "sigma": [[0, 1], [0, 1]], "omega": [[0, 0], [0, 0]]}})


@pytest.mark.parametrize(
    "argv,text,env,names",
    [
        pytest.param(["--group", "{doc}"], NAMELESS_GROUP, False, ["group document", "'name'"], id="nameless-group"),
        pytest.param(["--group", "{doc}"], "[1, 2]", False, ["group document", "list of group objects"], id="group-list"),
        pytest.param(["--group", "{doc}", "--protocol", "nil2"], EXTENSION_WITHOUT_N, False, ["'n'"], id="extension-without-n"),
        pytest.param(["--group", "Z2"], NAMELESS_GROUP, True, ["GAUGEKIT_CATALOG", "'name'"], id="catalog-env-nameless"),
        pytest.param(["--group", "Z2"], "{not json", True, ["GAUGEKIT_CATALOG"], id="catalog-env-not-json"),
    ],
)
def test_prepare_document_errors_name_the_document(tmp_path, monkeypatch, capsys, argv, text, env, names):
    doc = tmp_path / "bad.json"
    doc.write_text(text)
    if env:
        monkeypatch.setenv("GAUGEKIT_CATALOG", str(doc))
    assert main(["prepare", "--protocol", "abelian"] + [arg.format(doc=str(doc)) for arg in argv]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err["type"] == "precondition"
    for name in [repr(str(doc))] + names:
        assert name in err["message"]


def test_prepare_gsd_flag(tmp_path):
    out = tmp_path / "gsd.json"
    code = main(
        ["prepare", "--group", "Z2", "--cell", "square:2x2", "--protocol", "abelian",
         "--mode", "postselect", "--gsd", "-o", str(out)]
    )
    assert code == 0
    assert read(out)["gsd"] == 4


def test_prepare_gsd_budget_checked_before_any_protocol_run(monkeypatch, capsys):
    def no_protocol(*args, **kwargs):
        raise AssertionError("a protocol ran before the degeneracy budget was checked")

    monkeypatch.setattr(cli, "_run_protocol", no_protocol)
    argv = ["prepare", "--group", "S4", "--cell", "square:2x2", "--protocol", "solvable", "--mode", "sample:0",
            "--seeds", "20", "--gsd"]
    assert main(argv) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "precondition", "message": "edge space 24^8 exceeds the degeneracy label budget 262144"}


def test_prepare_cell_document(tmp_path):
    cell_doc = tmp_path / "theta.json"
    cell_doc.write_text(cell_to_json(theta_sphere()))
    out = tmp_path / "run.json"
    code = main(
        ["prepare", "--group", "Z3", "--cell", str(cell_doc), "--protocol", "abelian",
         "--mode", "sample:1", "-o", str(out)]
    )
    assert code == 0
    assert read(out)["cell"] == "theta_sphere"


def test_prepare_extension_document(tmp_path):
    fs = catalog_factor_system("D4")
    doc = tmp_path / "ext.json"
    doc.write_text(
        json.dumps(
            {
                "name": "D4doc",
                "extension": {"n": "Z2", "q": "Z2xZ2", "sigma": fs.sigma.tolist(), "omega": fs.omega.tolist()},
            }
        )
    )
    out = tmp_path / "run.json"
    code = main(
        ["prepare", "--group", str(doc), "--protocol", "nil2", "--cell", "theta",
         "--mode", "sample:2", "-o", str(out)]
    )
    assert code == 0
    rep = read(out)
    assert rep["group"] == "D4doc"
    assert rep["summary"]["min_fidelity_vs_oracle"] >= 1 - 1e-9


def test_catalog_env_var_extends_names(tmp_path, monkeypatch):
    catalog_doc = tmp_path / "extra.json"
    catalog_doc.write_text(
        json.dumps({"groups": [{"name": "K4", "extension": {
            "n": "Z2", "q": "Z2",
            "sigma": [[0, 1], [0, 1]], "omega": [[0, 0], [0, 0]],
        }}]})
    )
    monkeypatch.setenv("GAUGEKIT_CATALOG", str(catalog_doc))
    out = tmp_path / "k4.json"
    assert main(["groups", "--derived-series", "K4", "-o", str(out)]) == 0
    assert read(out)["derived_series"]["orders"] == [4, 1]


def test_verify_identities_suite(tmp_path):
    out = tmp_path / "ids.json"
    assert main(["verify", "--suite", "identities", "--group", "S3", "--cell", "theta", "-o", str(out)]) == 0
    doc = read(out)
    assert doc["max_deviation"] <= 1e-10
    assert any("deviation" in row for row in doc["rows"])
    assert all(("deviation" in row) != ("skipped" in row) for row in doc["rows"])


def test_verify_gsd_suite(tmp_path):
    out = tmp_path / "gsd.json"
    assert main(["verify", "--suite", "gsd", "--group", "Z3", "--cell", "hexagon", "-o", str(out)]) == 0
    doc = read(out)
    assert doc["gsd"] == {"projector_rank": 9, "commuting_pair_classes": 9}


@pytest.mark.parametrize("group,classes", [("Z3", 9), ("S3", 8), ("D4", 22)])
@pytest.mark.parametrize("cell", ["theta", "tetrahedron"])
def test_verify_gsd_suite_expects_one_ground_state_on_a_sphere(tmp_path, cell, group, classes):
    spec = "theta"
    if cell == "tetrahedron":
        spec = tmp_path / "tetrahedron.json"
        spec.write_text(cell_to_json(tetrahedron_sphere()), encoding="utf-8")
    out = tmp_path / "gsd.json"
    assert main(["verify", "--suite", "gsd", "--group", group, "--cell", str(spec), "-o", str(out)]) == 0
    assert read(out)["gsd"] == {"projector_rank": 1, "commuting_pair_classes": classes}


def test_verify_gsd_suite_rejects_other_surfaces_naming_the_euler_characteristic(tmp_path, capsys):
    """Two disjoint theta spheres: a closed cellulation of Euler characteristic 4."""
    one = theta_sphere()
    two = Cellulation(
        n_vertices=4,
        edges=one.edges + tuple((i + 2, f + 2) for i, f in one.edges),
        plaquettes=one.plaquettes + tuple(tuple((e + 3, o) for e, o in walk) for walk in one.plaquettes),
        dual_edges=one.dual_edges + tuple((a + 3, b + 3) for a, b in one.dual_edges),
        name="two_spheres",
    )
    spec = tmp_path / "two.json"
    spec.write_text(cell_to_json(two), encoding="utf-8")
    assert main(["verify", "--suite", "gsd", "--group", "Z2", "--cell", str(spec)]) == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "precondition", "message": "gsd suite needs a sphere or a torus, got Euler characteristic 4"}


def test_prepare_rejects_a_negative_sample_seed(capsys):
    code = main(["prepare", "--group", "Z2", "--cell", "theta", "--protocol", "abelian", "--mode", "sample:-1"])
    assert code == 1
    err = json.loads(capsys.readouterr().out)["error"]
    assert err == {"type": "precondition", "message": "sample mode needs a non-negative seed, got -1"}


def test_pretty_prints_summary_without_touching_file(tmp_path, capsys):
    out = tmp_path / "run.json"
    code = main(
        ["prepare", "--group", "Z2", "--cell", "theta", "--protocol", "abelian",
         "--mode", "postselect", "--pretty", "-o", str(out)]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.startswith("command: prepare")
    assert read(out)["schema"] == 1
    assert "{" not in printed.splitlines()[0]


def test_stdout_report_when_no_output_path(capsys):
    code = main(["prepare", "--group", "Z2", "--cell", "theta", "--protocol", "abelian", "--mode", "postselect"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "prepare"


def test_report_written_atomically(tmp_path):
    out = tmp_path / "run.json"
    assert main(["groups", "--derived-series", "Z2", "-o", str(out)]) == 0
    leftovers = [name for name in os.listdir(tmp_path) if name.startswith(".report-")]
    assert leftovers == []


def test_report_excludes_volatile_fields(tmp_path):
    out = tmp_path / "run.json"
    main(["prepare", "--group", "Z2", "--cell", "theta", "--protocol", "abelian",
          "--mode", "postselect", "--workers", "1", "-o", str(out)])
    config = read(out)["config"]
    assert "workers" not in config and "output" not in config and "pretty" not in config


@pytest.mark.parametrize(
    "config",
    [
        RunConfig(command="prepare"),
        RunConfig(command="prepare", group="S4", cell="square:3x2", protocol="abelian", mode="sample:7", seeds=4,
                  workers=3, stabilizers=False, gsd=True, output="out.json", pretty=True),
        RunConfig(command="verify", group="D4", suite="gsd", factor_system="ext.json", oracle_fidelity=False),
        RunConfig(command="groups", derived_series="S4", center="Q8"),
    ],
    ids=["defaults", "prepare", "verify", "groups"],
)
def test_config_record_is_asdict_without_the_volatile_fields(config):
    """The report's config record reads the frozen fields directly: it is
    dataclasses.asdict of the config, in its key order, less the volatile
    fields."""
    want = dataclasses.asdict(config)
    for key in cli._VOLATILE_FIELDS:
        del want[key]
    record = cli._config_record(config)
    assert record == want and list(record) == list(want)
    assert json.dumps(record) == json.dumps(want)


def test_built_in_cells_are_built_once_and_documents_on_every_call(tmp_path):
    """The torus and sphere the specs name are one shared, frozen object per
    spec; a cell document is read again on every call."""
    for spec in ("hexagon", "theta", "square:3x2"):
        assert cli.parse_cell_spec(spec) is cli.parse_cell_spec(spec)
    assert cli.parse_cell_spec("square:3x2") is not cli.parse_cell_spec("square:2x3")
    with pytest.raises(dataclasses.FrozenInstanceError):
        cli.parse_cell_spec("hexagon").name = "renamed"
    doc = tmp_path / "cell.json"
    doc.write_text(cell_to_json(theta_sphere()))
    first = cli.parse_cell_spec(str(doc))
    doc.write_text(cell_to_json(tetrahedron_sphere()))
    second = cli.parse_cell_spec(str(doc))
    assert (first.name, second.name) == ("theta_sphere", "tetrahedron_sphere")


def test_runconfig_rejects_unknown_fields():
    with pytest.raises(ValueError, match="unknown config fields"):
        RunConfig.from_dict({"command": "prepare", "chunk_size": 4})
