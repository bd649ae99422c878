"""Command-line interface: outputs, determinism, exit codes."""

import gc
import hashlib
import json
import subprocess
import sys
import tracemalloc

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qpm import cli
from qpm.cli import _json_chunks, main
from qpm.cyclotomic import CycloContext
from conftest import cyclo_from_pairs
from record_digests import load as load_digests, table_digest

# SHA-256 of each table as written by --output, recorded by
# tests/record_digests.py; perfbench/expected.json pins (1,2) and (2,3), the
# "tier1" section pins three one-sector pairs ((3,1) is the one whose minus
# sector is trivial, so its ribbon table has v- = 1), the Lee-Yang pair (2,5),
# (2,3) and its sector swap, the other output forms at (1,3), and the
# element records of `center --full` at (2,3) and (3,2), which have interior
# blocks
DIGESTS = load_digests()
TABLE_DIGESTS = {tuple(map(int, pair.split(","))): tables
                 for pair, tables in DIGESTS["tier1"].items()}


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
    key = "%d,%d" % pair
    for cmd in ("info", "fusion", "center", "smatrix", "tmatrix", "ribbon"):
        assert table_digest(key, cmd, tmp_path) == TABLE_DIGESTS[pair][cmd], cmd


@pytest.mark.parametrize("pair", ["2,3", "3,2"])
def test_full_center_tables_match_recorded_digests(pair, tmp_path):
    # every canonical element's PBW records, in the basis order, with the
    # interior v and w that (1,3) does not have
    want = DIGESTS["tier1"][pair]["center --full"]
    assert table_digest(pair, "center --full", tmp_path) == want


def test_tables_at_3_4_match_the_sweep_digests(tmp_path):
    # the S and ribbon tables of a pair with p+ >= 3, pinned with the rest
    # of CI's sweep
    want = DIGESTS["sweep"]["3,4"]
    for cmd in ("smatrix", "ribbon"):
        assert table_digest("3,4", cmd, tmp_path) == want[cmd], cmd


def test_other_output_forms_match_recorded_digests(tmp_path):
    forms = {cmd: want for cmd, want in TABLE_DIGESTS[1, 3].items() if " " in cmd}
    assert len(forms) == 11
    for cmd, want in forms.items():
        assert table_digest("1,3", cmd, tmp_path) == want, cmd


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


# -- the printed floats against a reference that sums in no kernel's order ------

REFERENCE_BITS = 300


def _printed_values(doc, precision):
    """(value, [re, im], bits) for each float pair of a table: every
    Cyclo.to_json value with its own float at `precision` bits, and every
    cell of a matrix's float grid, which is at 53 bits, with its entry."""
    if isinstance(doc, list):
        for x in doc:
            yield from _printed_values(x, precision)
    elif isinstance(doc, dict):
        if "coeffs" in doc:
            yield doc, doc["float"], precision
            return
        if "entries" in doc:
            for entries, floats in zip(doc["entries"], doc["float"]):
                for entry, pair in zip(entries, floats):
                    yield entry, pair, 53
        for key, x in doc.items():
            if not (key == "float" and "entries" in doc):
                yield from _printed_values(x, precision)


@pytest.mark.parametrize("pair,precision", [
    pytest.param(pair, precision, id=f"{pair[0]}-{pair[1]}@{precision}")
    for pair, precision in [((1, 2), 53), ((2, 3), 53), ((3, 2), 53), ((1, 3), 53),
                            ((1, 4), 53), ((3, 1), 53), ((1, 5), 53), ((1, 3), 80)]])
def test_printed_floats_are_the_rounded_reference(pair, precision, tmp_path):
    # A component whose exact value is nonzero prints as its REFERENCE_BITS
    # value rounded to the float's precision, then to a double; an exact
    # zero (decided in the field: Re x = 0 iff x + conj(x) = 0) prints as a
    # residue below 2^-60.  The center table prints exact values only, and
    # is walked in case that changes.
    p, q = map(str, pair)
    ctx = CycloContext(24 * pair[0] * pair[1])
    with mpmath.workprec(REFERENCE_BITS):
        trig = [(mpmath.cos(2 * mpmath.pi * e / ctx.order),
                 mpmath.sin(2 * mpmath.pi * e / ctx.order)) for e in range(ctx.phi)]
    counts = {"zero": 0, "nonzero": 0}
    for cmd in ("center", "smatrix", "tmatrix", "ribbon"):
        path = tmp_path / f"{cmd}.json"
        assert main(["--p-plus", p, "--p-minus", q, "--precision", str(precision),
                     "--output", str(path), cmd]) == 0
        for value, floats, bits in _printed_values(json.loads(path.read_text()), precision):
            assert value["order"] == ctx.order
            x = cyclo_from_pairs(ctx, value["coeffs"])
            with mpmath.workprec(REFERENCE_BITS):
                ref = [mpmath.fsum(mpmath.mpf(n) / d * t[comp]
                                   for (n, d), t in zip(value["coeffs"], trig) if n)
                       for comp in (0, 1)]
            for comp, zero_test in enumerate((x + x.conj(), x - x.conj())):
                if zero_test.is_zero():
                    counts["zero"] += 1
                    assert abs(floats[comp]) < 2.0 ** -60, (cmd, value)
                else:
                    counts["nonzero"] += 1
                    with mpmath.workprec(bits):
                        assert floats[comp] == float(+ref[comp]), (cmd, comp, value)
    assert counts["zero"] and counts["nonzero"], counts


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
