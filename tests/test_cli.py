import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import posetgeo
from posetgeo.cli import main

from .conftest import ReachedBuild, wide_denominator_doc


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


_METRIC_KINDS = ["lattice1p1", "collinear", "simplex", "grid", "pythagoras", "dotprod"]


@pytest.mark.parametrize("kind", _METRIC_KINDS)
def test_generate_honours_ticks(tmp_path, capsys, kind):
    path = tmp_path / "doc.json"
    assert run(["generate", kind, "--ticks", "7", "--out", str(path)], capsys)[0] == 0
    lengths = {c["id"]: len(c["events"]) for c in json.loads(path.read_text())["chains"]}
    if kind == "dotprod":
        assert lengths.pop("X") == 1  # the probe worldline has one tick
    assert set(lengths.values()) == {8}


@pytest.mark.parametrize("kind", _METRIC_KINDS)
def test_generate_negative_ticks_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "doc.json"
    code, _, err = run(["generate", kind, "--ticks", "-1", "--out", str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.exists()


# Each request passes its bound; were the bound gone, each would stop
# at once in the stop_at_build fixture instead of building anything large.
@pytest.mark.parametrize("argv", [
    ["lattice1p1", "--width", "64"],
    ["lattice1p1", "--ticks", "1000000000"],
    ["grid", "--rows", "9", "--cols", "8"],
    ["grid", "--row-spacing", "1000000000"],
    ["pythagoras", "--leg-a", "1000000000"],
    ["dotprod", "--scale", "1000000000"],
    ["randomdag", "--n", "1000000000"],
], ids=["lattice-width", "lattice-ticks", "grid-shape", "grid-spacing",
        "pythagoras-leg", "dotprod-scale", "randomdag-n"])
def test_oversized_generate_exits_2_before_building(stop_at_build, capsys, argv):
    try:
        code, _, err = run(["generate", *argv], capsys)
    except ReachedBuild:
        pytest.fail("an oversized request got past the size bound")
    assert code == 2
    assert err.startswith("error: ") and "bound" in err and err.count("\n") == 1


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("argv", [["lattice1p1", "--width", "1000000000"],
                                  ["randomdag", "--n", "1000000000"]],
                         ids=["lattice-width", "randomdag-n"])
def test_billion_sized_generate_exits_2_at_once(argv):
    """The command itself, in a child process held to 512 MB and 30 s."""
    proc = subprocess.run(
        [sys.executable, "-m", "posetgeo.cli", "generate", *argv],
        capture_output=True, text=True, timeout=30, preexec_fn=_limit_memory,
        env={**os.environ, "PYTHONPATH": str(Path(posetgeo.__file__).parents[1])},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [["collinear", "--spacing", "1/0"],
                                  ["grid", "--col-spacing", "x"]],
                         ids=["zero-denominator", "not-a-number"])
def test_generate_bad_spacing_exits_2(capsys, argv):
    code, _, err = run(["generate", *argv], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


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
    wide_denominator_doc(50),
], ids=["empty-object", "list", "short-valuations", "huge-exponent", "too-many-digits",
        "wide-common-denominator"])
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


# sha256 of what the CLI writes: each generated document at its default
# parameters, and the projection-code census of the 8x60 lattice.  A
# change to any of these bytes is a change of output, to be made on
# purpose and with the digest.
_GENERATED_SHA256 = {
    "collinear": "4f10fc9043b444e109c80302a34a22a8cb8f1bb79c4740420779eb19481ef415",
    "dotprod": "416fd8d233cfe2b7e5b87d7871c65fe9e872e1801e9bc02206699f069e0d4e85",
    "grid": "d3804f9c6d4d172793faa53bc4852b9dfd5138e0669cedbc7477325c53d7060d",
    "lattice1p1": "0c8ffda1abb631a2b168b79c7d406b34b62885ab46763f27cd2fe6c7b9a0aefd",
    "pythagoras": "5cfcf57a6f3db043bac7acfdf688239a077be55598499e04b1c6bcdf84cd9a9f",
    "randomdag": "5eacfc7a5e9281a0455c0b0769d1b37f851fa43725c2af22850ee33af4f5c7de",
    "simplex": "c38c321a98842a790d4daf58bf2cc85153432dd94a562d0839bb40f8ac58f7b5",
}
_CENSUS_8X60_SHA256 = "4b9873f9d3141505cac59522d7628ce125181b170a99816fe481590fea7b4b98"


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("kind", sorted(_GENERATED_SHA256))
def test_generated_document_bytes_are_pinned(tmp_path, capsys, kind):
    path = tmp_path / "doc.json"
    assert run(["generate", kind, "--out", str(path)], capsys)[0] == 0
    assert _sha256(path) == _GENERATED_SHA256[kind]


def test_lattice_census_csv_bytes_are_pinned(tmp_path, capsys):
    doc, csv = tmp_path / "lattice.json", tmp_path / "census.csv"
    run(["generate", "lattice1p1", "--width", "8", "--ticks", "60",
         "--out", str(doc)], capsys)
    code, _, _ = run(["classify", str(doc), "all", "all", "--format", "csv",
                      "--out", str(csv)], capsys)
    assert code == 0
    assert _sha256(csv) == _CENSUS_8X60_SHA256
