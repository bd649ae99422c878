"""Command-line front end.

Subcommands construct everything for a given coprime pair and emit
deterministic tables:

    info      basic dimensions and counts
    fusion    the full product table of irreducible classes
    center    the canonical central basis with labels
    smatrix   the modular S-matrix in the Radford basis
    tmatrix   the modular T-matrix
    ribbon    the ribbon element's eigenvalue table and factor data
    verify    run the named verification suites and print a ledger

Every exact value is emitted as cyclotomic coefficient pairs together with
a float embedding at the requested precision.  Exit codes: 0 success,
1 failed verification, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys
from json.encoder import encode_basestring_ascii

from .algebra import Params
from .center import center_dimension
from .duality import Theory, conformal_weight_exponent
from .grothendieck import gr_class, gr_multiply
from .modular import ModularAction, block_layout
from .reps import irreducible_labels
from .verify import SuiteSelectionError, available_suites, run_suites


def _context(args) -> Params:
    try:
        return Params(args.p_plus, args.p_minus)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _table(cmd):
    """The table command cmd(args, P) on the pair's fresh Params P, which
    never leaves the call and is released on return (Params.release), so a
    process that prints many tables holds one pair's structures at a time."""
    @functools.wraps(cmd)
    def run(args):
        P = _context(args)
        try:
            return cmd(args, P)
        finally:
            P.release()
    return run


def _label(alpha, r, s):
    return f"{'+' if alpha > 0 else '-'}{r},{s}"


@_table
def cmd_info(args, P):
    doc = {
        "p_plus": P.p_plus,
        "p_minus": P.p_minus,
        "field_order": P.N,
        "field_degree": P.ctx.phi,
        "algebra_dimension": P.dim,
        "irreducible_count": 2 * P.pp,
        "center_dimension": center_dimension(P),
        "kac_sets": {
            "interior": sorted(P.set_I1()),
            "blocks": sorted(P.set_I()),
        },
    }
    _emit(args, doc, rows=[["quantity", "value"]] + [
        [k, str(v)] for k, v in doc.items() if not isinstance(v, dict)])
    return 0


@_table
def cmd_fusion(args, P):
    labels = irreducible_labels(P)
    table = []
    for la in labels:
        for lb in labels:
            prod = gr_multiply(gr_class(P, *la), gr_class(P, *lb))
            table.append({
                "left": _label(*la),
                "right": _label(*lb),
                "product": {_label(*k): v for k, v in sorted(prod.mult.items())},
            })
    doc = {"p_plus": P.p_plus, "p_minus": P.p_minus, "products": table}
    rows = [["left", "right", "product"]]
    for entry in table:
        rows.append([entry["left"], entry["right"],
                     " + ".join(f"{v}*X[{k}]" for k, v in entry["product"].items())])
    _emit(args, doc, rows)
    return 0


@_table
def cmd_center(args, P):
    cb = Theory(P).center
    entries = []
    for (family, key), el in cb.elements.items():
        entries.append({
            "family": family,
            "label": repr(key),
            "terms": len(el.coeffs),
            "element": el.to_records() if args.full else None,
        })
    doc = {"dimension": len(entries), "basis": entries}
    rows = [["family", "label", "terms"]] + [
        [e["family"], e["label"], str(e["terms"])] for e in entries]
    _emit(args, doc, rows)
    return 0


def _matrix_doc(mat, labels, precision):
    """The basis, each entry at `precision` and the 53-bit float matrix.

    An entry is embedded once: at precision 53 the float matrix reuses the
    entry's own float."""
    entries = [[v.to_json(precision) for v in row] for row in mat]
    if precision == 53:
        floats = [[e["float"] for e in row] for row in entries]
    else:
        floats = [[list(map(float, v.embed(53))) for v in row] for row in mat]
    return {
        "basis": [f"{kind}{lab}" for kind, lab in labels],
        "entries": entries,
        "float": floats,
    }


def _matrix_rows(doc):
    """CSV rows (i, j, re, im) of the float matrix, produced lazily."""
    yield ["i", "j", "re", "im"]
    for i, row in enumerate(doc["float"]):
        for j, (re, im) in enumerate(row):
            yield [str(i), str(j), repr(re), repr(im)]


@_table
def cmd_smatrix(args, P):
    th = Theory(P)
    ma = ModularAction(th)
    doc = _matrix_doc(ma.S, th.characters.labels(), args.precision)
    doc["blocks"] = {name: {"labels": [repr(l) for l in labels], "dim": dim}
                     for name, labels, dim in block_layout(P)}
    _emit(args, doc, _matrix_rows(doc))
    return 0


@_table
def cmd_tmatrix(args, P):
    th = Theory(P)
    ma = ModularAction(th)
    doc = _matrix_doc(ma.T, th.characters.labels(), args.precision)
    doc["t_phase"] = ma.data.t_phase.to_json(args.precision)
    doc["central_charge"] = [ma.data.central_charge.numerator,
                             ma.data.central_charge.denominator]
    _emit(args, doc, _matrix_rows(doc))
    return 0


@_table
def cmd_ribbon(args, P):
    th = Theory(P)
    rib = th.ribbon
    zeta = P.ctx.root_of_unity
    table = []
    for lab in irreducible_labels(P):
        ev = zeta(conformal_weight_exponent(P, *P.block_of(*lab)))
        table.append({"module": _label(*lab),
                      "eigenvalue": ev.to_json(args.precision)})
    data = th.integral
    doc = {
        "eigenvalues": table,
        "ribbon_terms": len(rib.v.coeffs),
        "unipotent_factor_plus_terms": len(rib.v_factor_plus.coeffs),
        "unipotent_factor_minus_terms": len(rib.v_factor_minus.coeffs),
        "element": rib.v.to_records() if args.full else None,
        "cointegral": data.cointegral.to_records() if args.full else None,
        "integral": [{"mono": list(m), "value": v.to_json(args.precision)}
                     for m, v in sorted(data.integral.values.items())],
    }
    rows = [["module", "re", "im"]]
    for entry in table:
        f = entry["eigenvalue"]["float"]
        rows.append([entry["module"], repr(f[0]), repr(f[1])])
    _emit(args, doc, rows)
    return 0


def cmd_verify(args):
    # the ledger is text on stdout; the table options have no meaning here
    if args.output or args.format == "csv":
        print("error: verify prints its ledger on stdout and takes neither"
              " --output nor --format csv", file=sys.stderr)
        return 2
    P = _context(args)
    if P.pp > 8 and not args.deep:
        print(f"error: p_plus*p_minus = {P.pp} > 8 requires --deep",
              file=sys.stderr)
        return 2
    try:
        ok, results = run_suites(P.p_plus, P.p_minus, selection=args.checks)
    except SuiteSelectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{'ALL CHECKS PASSED' if ok else 'FAILURES PRESENT'} "
          f"({sum(1 for r in results if r[2])}/{len(results)})")
    return 0 if ok else 1


_INT_ONLY = frozenset([int])
# a scalar's text does not depend on indent or sort_keys
_scalar_text = json.JSONEncoder(default=str).encode


def _pair_texts(items, nl):
    """The texts of items, each a list of two plain ints on a line with
    newline and indent nl, or None if one is not.  Each distinct pair is
    formatted once: a Cyclo.to_json coefficient list is phi such [num, den]
    pairs, most of them [0, 1]."""
    inner = nl + "  "
    done = {}
    texts = []
    for x in items:
        if type(x) is not list or len(x) != 2:
            return None
        a, b = x
        if type(a) is not int or type(b) is not int:
            return None
        text = done.get((a, b))
        if text is None:
            text = done[a, b] = f"[{inner}{a!r},{inner}{b!r}{nl}]"
        texts.append(text)
    return texts


def _json_text(o, nl):
    """The JSON text of o, or None if o holds a nonempty dict; nl is the
    newline and indent of o's own line.  A list of plain ints (not bools)
    is one join, a list of exactly two is one f-string, and a list of such
    pairs one join of _pair_texts."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        if len(o) == 2 and type(o[0]) is int and type(o[1]) is int:
            # a [num, den] pair of Cyclo.to_json, the commonest list
            a, b = o
            return f"[{inner}{a!r},{inner}{b!r}{nl}]"
        texts = (map(int.__repr__, o) if _INT_ONLY.issuperset(map(type, o))
                 else _pair_texts(o, inner))
        if texts is None:
            texts = []
            for x in o:
                text = _json_text(x, inner)
                if text is None:
                    return None
                texts.append(text)
        return "[" + inner + ("," + inner).join(texts) + nl + "]"
    if isinstance(o, dict):
        return None if o else "{}"
    return _scalar_text(o)


def _json_chunks(o, nl="\n"):
    """The text of json.dumps(o, indent=2, sort_keys=True, default=str) for
    a document whose keys are all str, in chunks: a value that holds no dict
    is one chunk, and dicts and the lists that hold them are streamed item
    by item, so the whole text is never joined.  (With an indent set,
    json.dumps runs the standard library's pure-Python encoder, one
    generator step per value.)  A key of another type raises TypeError."""
    text = _json_text(o, nl)
    if text is not None:
        yield text
        return
    inner = nl + "  "
    if isinstance(o, dict):
        head, close = "{" + inner, "}"
        items = ((encode_basestring_ascii(k) + ": ", v) for k, v in sorted(o.items()))
    else:
        head, close = "[" + inner, "]"
        items = (("", v) for v in o)
    for key, value in items:
        text = _json_text(value, inner)
        if text is None:
            yield head + key
            yield from _json_chunks(value, inner)
        else:
            yield head + key + text
        head = "," + inner
    yield nl + close


def _emit(args, doc, rows):
    """Write doc as JSON, or rows (an iterable, read only for CSV) as CSV,
    to --output or stdout."""
    def write(fh):
        if args.format == "json":
            fh.writelines(_json_chunks(doc))
            fh.write("\n")
        else:
            csv.writer(fh, lineterminator="\n").writerows(rows)

    if args.output:
        try:
            with open(args.output, "w") as fh:
                write(fh)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}",
                  file=sys.stderr)
            raise SystemExit(2)
    else:
        write(sys.stdout)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qpm",
        description="Exact computations for the restricted two-parameter "
                    "quantum group at even roots of unity")
    ap.add_argument("--p-plus", type=int, required=True)
    ap.add_argument("--p-minus", type=int, required=True)
    ap.add_argument("--format", choices=("json", "csv"), default="json")
    ap.add_argument("--precision", type=int, default=53,
                    help="float embedding precision in bits (>= 53)")
    ap.add_argument("--output", help="write to a file instead of stdout")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("info")
    sub.add_parser("fusion")
    p = sub.add_parser("center")
    p.add_argument("--full", action="store_true",
                   help="include full element coefficients")
    sub.add_parser("smatrix")
    sub.add_parser("tmatrix")
    p = sub.add_parser("ribbon")
    p.add_argument("--full", action="store_true")
    p = sub.add_parser("verify")
    p.add_argument("--checks", nargs="*", metavar="SUITE",
                   help=f"subset of: {' '.join(available_suites())}")
    p.add_argument("--deep", action="store_true",
                   help="allow p_plus*p_minus > 8")
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    if args.precision < 53:
        print("error: precision must be at least 53 bits", file=sys.stderr)
        return 2
    handler = {
        "info": cmd_info,
        "fusion": cmd_fusion,
        "center": cmd_center,
        "smatrix": cmd_smatrix,
        "tmatrix": cmd_tmatrix,
        "ribbon": cmd_ribbon,
        "verify": cmd_verify,
    }[args.command]
    try:
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
