"""Command-line interface: outputs, determinism, exit codes."""

import json
import subprocess
import sys

from qpm.cli import main


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def test_info(capsys):
    code, out = run_cli(["--p-plus", "2", "--p-minus", "3", "info"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["algebra_dimension"] == 432
    assert doc["center_dimension"] == 20
    assert doc["irreducible_count"] == 12


def test_non_coprime_rejected(capsys):
    code = main(["--p-plus", "2", "--p-minus", "4", "info"])
    assert code == 2


def test_bad_precision(capsys):
    code = main(["--p-plus", "1", "--p-minus", "2", "--precision", "10", "info"])
    assert code == 2


def test_fusion_table(capsys):
    code, out = run_cli(["--p-plus", "2", "--p-minus", "3", "fusion"], capsys)
    assert code == 0
    doc = json.loads(out)
    products = {(e["left"], e["right"]): e["product"] for e in doc["products"]}
    assert len(products) == 144
    assert products[("+2,1", "+2,1")] == {"+1,1": 2, "-1,1": 2}


def test_fusion_csv(capsys):
    code, out = run_cli(["--p-plus", "1", "--p-minus", "2", "--format", "csv",
                         "fusion"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "left,right,product"
    assert len(lines) == 1 + 16


def test_determinism(capsys):
    _, out1 = run_cli(["--p-plus", "1", "--p-minus", "2", "fusion"], capsys)
    _, out2 = run_cli(["--p-plus", "1", "--p-minus", "2", "fusion"], capsys)
    assert out1 == out2


def test_center_export(capsys):
    code, out = run_cli(["--p-plus", "1", "--p-minus", "2", "center"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["dimension"] == 5
    families = [e["family"] for e in doc["basis"]]
    assert families.count("e") == 3 and families.count("vb") == 2


def test_smatrix_schema(capsys):
    code, out = run_cli(["--p-plus", "1", "--p-minus", "2", "smatrix"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["basis"]) == 5
    assert len(doc["entries"]) == 5 and len(doc["entries"][0]) == 5
    cell = doc["entries"][0][0]
    assert "order" in cell and "coeffs" in cell and "float" in cell
    assert len(doc["float"]) == 5


def test_tmatrix_phase(capsys):
    code, out = run_cli(["--p-plus", "2", "--p-minus", "3", "tmatrix"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["central_charge"] == [0, 1]


def test_ribbon_table(capsys):
    code, out = run_cli(["--p-plus", "1", "--p-minus", "2", "ribbon"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert len(doc["eigenvalues"]) == 4
    trivial = [e for e in doc["eigenvalues"] if e["module"] == "+1,1"][0]
    assert trivial["eigenvalue"]["float"] == [1.0, 0.0]


def test_verify_small(capsys):
    code, _ = run_cli(["--p-plus", "1", "--p-minus", "2", "verify",
                       "--checks", "hopf-axioms", "integral-suite"], capsys)
    assert code == 0


def test_verify_deep_guard(capsys):
    code = main(["--p-plus", "3", "--p-minus", "4", "verify"])
    assert code == 2


def test_verify_unknown_suite(capsys):
    code = main(["--p-plus", "1", "--p-minus", "2", "verify", "--checks", "nope"])
    assert code == 2


def test_verify_checks_without_suite(capsys):
    code = main(["--p-plus", "1", "--p-minus", "2", "verify", "--checks"])
    captured = capsys.readouterr()
    assert code == 2
    assert "no suite" in captured.err and "hopf-axioms" in captured.err
    assert captured.out == ""


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "qpm.cli", "--p-plus", "1",
                           "--p-minus", "2", "info"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["algebra_dimension"] == 16


def test_nonpositive_p_rejected(capsys):
    for flags in (["--p-plus", "0", "--p-minus", "2"],
                  ["--p-plus", "1", "--p-minus", "0"]):
        code = main(flags + ["info"])
        err = capsys.readouterr().err
        assert code == 2
        assert "must be positive" in err


def test_output_into_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "info.json"
    code = main(["--p-plus", "1", "--p-minus", "2", "--output", str(target), "info"])
    err = capsys.readouterr().err
    assert code == 2
    assert "cannot write" in err and str(target) in err
    assert not target.exists()


def test_output_to_file(tmp_path, capsys):
    target = tmp_path / "info.json"
    code = main(["--p-plus", "1", "--p-minus", "2", "--output", str(target), "info"])
    assert code == 0
    assert json.loads(target.read_text())["algebra_dimension"] == 16
