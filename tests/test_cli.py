import json

import pytest

from posetgeo.cli import main


def run(argv, capsys):
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_generate_lattice_counts(tmp_path, capsys):
    path = tmp_path / "lat.json"
    code, _, _ = run(
        ["generate", "lattice1p1", "--width", "5", "--ticks", "40",
         "--out", str(path)], capsys,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["events"]) == 246
    assert len(doc["chains"]) == 6


def test_generate_simplex_counts(tmp_path, capsys):
    path = tmp_path / "simp.json"
    code, _, _ = run(
        ["generate", "simplex", "--chains", "4", "--ticks", "10",
         "--out", str(path)], capsys,
    )
    assert code == 0
    doc = json.loads(path.read_text())
    assert len(doc["chains"]) == 4
    assert len(doc["events"]) == 44


def test_generate_randomdag_bad_probability(capsys):
    code, _, err = run(["generate", "randomdag", "--n", "50", "--p", "2"], capsys)
    assert code == 2
    assert "probability" in err


def test_classify_lattice(tmp_path, capsys):
    path = tmp_path / "lat.json"
    run(["generate", "lattice1p1", "--width", "5", "--ticks", "40",
         "--out", str(path)], capsys)
    code, out, _ = run(["classify", str(path), "0", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["legal_codes_only"]
    defined = {k for k in doc["histogram"] if "u" not in k}
    assert defined == {"1010"}  # every off-chain event lies between 0 and 5


def test_classify_identical_chains(tmp_path, capsys):
    path = tmp_path / "lat.json"
    run(["generate", "lattice1p1", "--width", "2", "--ticks", "6",
         "--out", str(path)], capsys)
    code, _, err = run(["classify", str(path), "1", "1"], capsys)
    assert code == 2
    assert "distinct" in err


def test_classify_missing_file(capsys):
    code, _, _ = run(["classify", "/nonexistent.json", "0", "1"], capsys)
    assert code == 2


@pytest.mark.parametrize("command", [["classify", "0", "1"], ["export"]],
                         ids=["classify", "export"])
@pytest.mark.parametrize("doc", [
    {},
    [1, 2],
    {"events": [0, 1, 2], "covers": [[0, 1], [1, 2]],
     "chains": [{"id": "0", "events": [0, 1, 2], "valuations": ["0", "1"]}]},
    {"events": [0, 1], "covers": [],
     "chains": [{"id": "0", "events": [0], "valuations": ["1e100000"]},
                {"id": "1", "events": [1], "valuations": ["0"]}]},
    {"events": [0, 1], "covers": [],
     "chains": [{"id": "0", "events": [0], "valuations": ["9" * 3400 + "e1000"]},
                {"id": "1", "events": [1], "valuations": ["0"]}]},
], ids=["empty-object", "list", "short-valuations", "huge-exponent", "too-many-digits"])
def test_malformed_document_exits_2(tmp_path, capsys, command, doc):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run([command[0], str(path), *command[1:]], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


def test_export_round_trip(tmp_path, capsys):
    src = tmp_path / "a.json"
    dst = tmp_path / "b.json"
    run(["generate", "lattice1p1", "--width", "2", "--ticks", "6",
         "--out", str(src)], capsys)
    code, _, _ = run(["export", str(src), "--format", "json",
                      "--out", str(dst)], capsys)
    assert code == 0
    assert json.loads(src.read_text()) == json.loads(dst.read_text())


def test_export_dot(tmp_path, capsys):
    src = tmp_path / "a.json"
    run(["generate", "collinear", "--chains", "3", "--ticks", "6",
         "--out", str(src)], capsys)
    code, out, _ = run(["export", str(src), "--format", "dot"], capsys)
    assert code == 0
    assert out.startswith("digraph")


def test_export_unknown_format(tmp_path, capsys):
    src = tmp_path / "a.json"
    run(["generate", "collinear", "--chains", "3", "--ticks", "6",
         "--out", str(src)], capsys)
    code, _, err = run(["export", str(src), "--format", "xml"], capsys)
    assert code == 2
    assert "format" in err


def test_verify_unknown_suite(capsys):
    code, _, err = run(["verify", "nosuchsuite"], capsys)
    assert code == 2
    assert "unknown suite" in err


def test_verify_simplex_passes(capsys):
    code, out, _ = run(["verify", "simplex"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"]
    assert all(r["pass"] for r in doc["results"])


def test_verify_report_deterministic(capsys):
    _, out1, _ = run(["verify", "pythagoras", "--max-leg", "8"], capsys)
    _, out2, _ = run(["verify", "pythagoras", "--max-leg", "8"], capsys)
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time_ms")
    d2.pop("wall_time_ms")
    assert d1 == d2
