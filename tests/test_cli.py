"""Command-line interface: outputs, determinism, exit codes."""

import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from qpm import cli
from qpm.cli import _json_chunks, main

# SHA-256 of each JSON table as written by --output; perfbench/expected.json
# pins (1,2) and (2,3), these pin three one-sector pairs ((3,1) is the one
# whose minus sector is trivial, so its ribbon table has v- = 1), the
# Lee-Yang pair (2,5) and the sector swap of (2,3)
TABLE_DIGESTS = {
    (1, 3): {
        "center": "9de0ed61c5686d53b63770f250d37fea7afe6040cc208227502005df7a6932bf",
        "fusion": "6fe2d0741f273de5665f787c61460eeaaf39ffb7f23cea78c78a762f77a35b2f",
        "info": "d6aa4ad7b0bffcf23937064e0493076c6c7739438414460ec4b871a18b53da4f",
        "ribbon": "083c2a85158846f2da18120ea3a14c0f2d21db75ac4a72c5a1cd4b49504200ed",
        "smatrix": "c5a325b39787258f8e97d73588cdc1b2c346c065795534bafcd3642def5b757b",
        "tmatrix": "f127d1c934ea67e09623997c77e3a8e358678eec130889b27a4bc7967f458d70",
    },
    (1, 4): {
        "center": "5fb8c2ff17e097116b09fabcd645d2de2119a4af3b5bc466510698f073844aca",
        "fusion": "c9d2043c76ccaf3853cdcc4f392bdcab5901f762ed88a4b48001eb5c04cdfb15",
        "info": "1773545c11060e25fd86432c872036f1c36e75219e8ac88fed1ba371126ba59d",
        "ribbon": "b7d201df87373e596b550a0a4504cdefa8cdca6c3c7fc8de4c8ae217244a0c43",
        "smatrix": "73a9b8c8755b0332d3c4cd55b20eecef05d8d26143ed9524da7c840331f15f8e",
        "tmatrix": "8c1b3d69b869481b39a6cb2ca842d85e384090dc73d248e35210120bb54922ab",
    },
    (2, 5): {
        "center": "72305a6179be86426d5cd8b966f5895e9415818db77d67b24bfa4779445d3aa7",
        "fusion": "2d1d3e1897a2b657cf488db3922d3c859a263ff8d4fe36abe3349c05962fffeb",
        "info": "395b251817d1d20feca04627bc07c8cb0e9114a94d9f590cbe47478bca3625bd",
        "ribbon": "ed0f6a41abb2bd174f07dcf9488372e9a4a512742ee1559f6637dc7946c53dbd",
        "smatrix": "d973e6b63681c27f4e4650d1a41999591de12e3474d4579e53521c7d5a5699ac",
        "tmatrix": "69cf0db075bb7bc923313188a99368e6d314f7ace62a429de1fb04e251d3296b",
    },
    (3, 2): {
        "center": "8405c78e6e1807cacf86949e99d997bab1f670e1c3f4185ad0e78955ba1502b5",
        "fusion": "cbd6733bd5536a1dc59045e667359953007d8b68ff809afb6de441c36397c551",
        "info": "a8226a3c39881d5ec454f393a38ec6eac5bc1b627a9696d0b76cf82e0a2e276a",
        "ribbon": "49645b3398f0ca8d123e7d7077b37ca3d0c761121d9be95c719c09986a12b60e",
        "smatrix": "9a13919fe8453bb65240bb166401eabec0570902781af51d395fd2b9bef923c4",
        "tmatrix": "f1f0ab487dbd43f614c1cee8172c30cad569a39b77b2e24a100f594323d74fd1",
    },
    (3, 1): {
        "center": "9f0642d0393aca1593e43ebcae0c747f3914fe37f35087ceb1b06cecfdbd3816",
        "fusion": "41da5eb7b63082030694cff60efad922ac4b182074ab1350bf65cd846578e250",
        "info": "1113eff1fd514d346b8e6726c059a27be2366c530f915c9ea6e59a680bf7f73e",
        "ribbon": "39f634176cb6ac39f4726a3239a4a6a4229aa23ef43334c4d8534d12db861d31",
        "smatrix": "dc1d86ef1e9bbc53892c2670f02580f180524e97f18c9b2be6c8210829f794ab",
        "tmatrix": "809af00d8a855c0de457176ce4fae300f33ca51742eafcde18f83325cbf0a73d",
    },
}

# SHA-256 of the other output forms at (1,3), as written by --output
OPTION_DIGESTS = {
    ("--format", "csv", "info"): "6cfee3d10670de36fa7d8eff5b6499ace5eaf8613ced9b721670858db3e2ece1",
    ("--format", "csv", "fusion"): "0710eada34f4f22d385bda28548bf6417b078dd5a2709c4812d712c242513509",
    ("--format", "csv", "center"): "ea71e96d6cdd10bb9eded2d6f2e8bb76417181d4ba1d98375eec38dd83e81411",
    ("--format", "csv", "smatrix"): "1119746d2a7598051164e01a36cf7b18cacb346f455c032618ec9026903ffc02",
    ("--format", "csv", "tmatrix"): "3f0b80b161e2b52cb245078d46431c91c4902f1413c4202001ca7fb0018125ee",
    ("--format", "csv", "ribbon"): "4f25356ba7289323794572df37e3d50a4614d4c8256bd8da935b329744920d0d",
    ("center", "--full"): "6436edafc4319b356e6dee015e969529c7e3b145e2ae73e73b2004345afa5ea2",
    ("ribbon", "--full"): "e323fcf566e8a6232e8ac030f937c34bbc5054e6d9ca2fe9b67f0a80a892f6f6",
    ("--precision", "80", "smatrix"): "75177bddcf612ef3408578a12bdcf71a05e2bae28d7bb1c7c97ec37d379671dd",
    ("--precision", "80", "tmatrix"): "0a0118f8e5d688c09aa09bcccfd2219f6bdf177f63f43f2074bb3feca64d9663",
    ("--precision", "80", "ribbon"): "fbb24ea8092291e588efae3b6ba9018cb0248bb456f6412170e0266818f0e228",
}


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
    assert "coprime" in capsys.readouterr().err


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


def test_verify_rejects_output(tmp_path, capsys):
    target = tmp_path / "ledger.txt"
    code = main(["--p-plus", "1", "--p-minus", "2", "--output", str(target),
                 "verify", "--checks", "hopf-axioms"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--output" in captured.err and captured.out == ""
    assert not target.exists()


def test_verify_rejects_csv(capsys):
    code = main(["--p-plus", "1", "--p-minus", "2", "--format", "csv",
                 "verify", "--checks", "hopf-axioms"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--format csv" in captured.err and captured.out == ""


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


@pytest.mark.parametrize("pair", sorted(TABLE_DIGESTS), ids=lambda pair: "%d-%d" % pair)
def test_tables_match_recorded_digests(pair, tmp_path):
    for cmd, want in TABLE_DIGESTS[pair].items():
        path = tmp_path / f"{cmd}.json"
        assert main(["--p-plus", str(pair[0]), "--p-minus", str(pair[1]),
                     "--output", str(path), cmd]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, cmd


def test_tables_at_3_4_match_the_sweep_digests(tmp_path):
    # the S and ribbon tables of a pair with p+ >= 3, pinned with the rest
    # of CI's sweep in tests/sweep_table_digests.json
    with open(Path(__file__).with_name("sweep_table_digests.json")) as fh:
        want = json.load(fh)["3,4"]
    for cmd in ("smatrix", "ribbon"):
        path = tmp_path / f"{cmd}.json"
        assert main(["--p-plus", "3", "--p-minus", "4", "--output", str(path), cmd]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want[cmd], cmd


def test_other_output_forms_match_recorded_digests(tmp_path):
    for flags, want in OPTION_DIGESTS.items():
        path = tmp_path / "out"
        assert main(["--p-plus", "1", "--p-minus", "3", "--output", str(path),
                     *flags]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want, flags


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_stdout_equals_output_file(fmt, tmp_path, capsys):
    # a table on stdout has the bytes of the same table written by --output
    for cmd in ("info", "fusion", "center", "smatrix", "tmatrix", "ribbon"):
        args = ["--p-plus", "1", "--p-minus", "2", "--format", fmt]
        code, out = run_cli(args + [cmd], capsys)
        assert code == 0
        path = tmp_path / f"{cmd}.{fmt}"
        assert main(args + ["--output", str(path), cmd]) == 0
        assert out.encode() == path.read_bytes(), cmd


def test_table_command_frees_its_pair_on_return(tmp_path):
    # With the cyclic collector off, a finished (2,3) T table must leave
    # little allocated: its Params graph (about 2.3 MB when left to the
    # collector) is freed on return.
    args = ["--p-plus", "2", "--p-minus", "3", "--output", str(tmp_path / "t.json"), "tmatrix"]
    assert main(args) == 0  # first-use imports and module state
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert main(args) == 0
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert retained < 1_000_000, retained


def test_stdout_table_matches_recorded_digest(capsys):
    code, out = run_cli(["--p-plus", "1", "--p-minus", "3", "smatrix"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_DIGESTS[1, 3]["smatrix"]


# -- the JSON writer against json.dumps, its reference ----------------------

def _reference(doc):
    return json.dumps(doc, indent=2, sort_keys=True, default=str)


_scalars = (st.text() | st.integers() | st.booleans() | st.none() | st.floats()
            | st.sampled_from([-0.0, 1e-20, 1e300]) | st.fractions())
_docs = st.recursive(
    _scalars,
    lambda kids: (st.lists(kids, max_size=4) | st.tuples(kids, kids)
                  | st.dictionaries(st.text(), kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_docs)
def test_json_writer_matches_json_dumps(doc):
    assert "".join(_json_chunks(doc)) == _reference(doc)


_pairs = st.lists(st.integers(-3, 3), min_size=2, max_size=2)
_pair_list_items = (_pairs | _pairs | st.just([True, 1]) | st.just([0, False])
                    | st.tuples(st.integers(0, 2), st.integers(1, 2))
                    | st.lists(_pairs, max_size=3) | st.just([]) | st.integers())


@settings(max_examples=300, deadline=None)
@given(st.lists(_pair_list_items, max_size=12), st.integers(0, 2))
def test_json_writer_matches_json_dumps_on_pair_lists(items, depth):
    """Lists of [num, den] pairs, most of them repeated, mixed with bools,
    nested pair lists, tuples, empty lists and ints, at several indents."""
    doc = items
    for _ in range(depth):
        doc = {"coeffs": doc, "float": [0.5, -1.0]}
    assert "".join(_json_chunks(doc)) == _reference(doc)


def test_json_writer_formats_pair_lists_like_json_dumps():
    for doc in ([[0, 1], [0, 1], [-2, 3], [0, 1]],
                [[0, 1], [True, 1], [0, 1]],
                [[0, 1], [[0, 1], [2, 3]], [0, 1]],
                [[0, 1], [], [0, 1]],
                {"entries": [[{"coeffs": [[0, 1]] * 5 + [[7, 12]]}]]}):
        assert "".join(_json_chunks(doc)) == _reference(doc)


def test_json_writer_rejects_non_str_keys():
    # json.dumps would print the key 1 as "1"; the writer takes str keys only
    with pytest.raises(TypeError):
        "".join(_json_chunks({"a": [{1: 2}]}))


@pytest.mark.parametrize("command", [["info"], ["fusion"], ["center", "--full"],
                                     ["smatrix"], ["tmatrix"], ["ribbon", "--full"]],
                         ids=lambda command: command[0])
def test_json_writer_matches_json_dumps_on_tables(command, monkeypatch):
    docs = []
    monkeypatch.setattr(cli, "_emit", lambda args, doc, rows: docs.append(doc))
    assert main(["--p-plus", "1", "--p-minus", "2", *command]) == 0
    assert "".join(_json_chunks(docs[0])) == _reference(docs[0])
