"""Acceptance gate: the numbered criteria at their stated tolerances.

Tolerance is exact equality in Q(zeta_N) throughout; the only numeric
assertions are float embeddings of exact quantities.  Each criterion prints
one pass/fail line (run pytest with -s to stream them).
"""

import ast
import cProfile
import functools
import gc
import multiprocessing
import multiprocessing.pool
import os
import re
import signal
import sys
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from operator import attrgetter

import pytest

from qpm import duality, reps, verify
from qpm.algebra import Params
from qpm.center import center_brute_force, center_dimension
from qpm.characters import CharacterSpace
from qpm.duality import Theory
from qpm.grothendieck import GrElement, gr_class, gr_multiply
from qpm.linalg import SpanSolver
from qpm.reps import irreducible_labels
from qpm.verify import (SuiteSelectionError, run_suites, suite_drinfeld,
                        suite_fusion, suite_integral, suite_modular,
                        suite_modules, suite_presentation,
                        suite_radford_images, suite_ribbon)


def _report(num, name, ok):
    print(f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {name}")
    assert ok, f"criterion {num} failed: {name}"


@pytest.fixture(scope="module")
def T13():
    return Theory(Params(1, 3))


def _suite_ok(checks):
    return all(passed for _, passed, _ in checks)


def test_criterion_1_center_dimension(T12, T23, T13):
    ok = True
    for th, want in ((T12, 5), (T13, 8), (T23, 20)):
        P = th.params
        assert center_dimension(P) == want
        bf = center_brute_force(P)
        ok = ok and len(bf) == want
        cb = th.center
        ok = ok and len(cb.elements) == want
        span_bf = SpanSolver([z.coeffs for z in bf], P.ctx)
        span_cb = SpanSolver([el.coeffs for el in cb.elements.values()], P.ctx)
        ok = ok and span_cb.independent
        ok = ok and all(span_bf.contains(el.coeffs) for el in cb.elements.values())
        ok = ok and all(span_cb.contains(z.coeffs) for z in bf)
    _report(1, "center dimension (1,2)->5 (1,3)->8 (2,3)->20, both routes agree", ok)


def test_criterion_2_modules(T12, T13, T23):
    ok = True
    for th in (T12, T13, T23):
        checks = suite_modules(th)
        ok = ok and _suite_ok(checks)
        P = th.params
        ok = ok and len(irreducible_labels(P)) == 2 * P.pp
    _report(2, "irreducible dims r*r', exact relations, projective dims", ok)


def test_criterion_3_fusion(T12, T23):
    ok = _suite_ok(suite_fusion(T12)) and _suite_ok(suite_fusion(T23))
    spot = gr_multiply(gr_class(T23.params, 1, 2, 1), gr_class(T23.params, 1, 2, 1))
    ok = ok and spot.mult == {(1, 1, 1): 2, (-1, 1, 1): 2}
    _report(3, "three-way fusion agreement at (1,2) and (2,3)", ok)


def test_a_wrong_product_formula_fails_both_all_pairs_checks(T23, monkeypatch):
    # X+_{2,1} X+_{1,2} = X+_{2,2}; answering X-_{2,2}, of the same
    # dimension, for that one pair must fail against the tensor products
    # and against the Drinfeld-image products alike
    P = T23.params

    def wrong(A, B):
        out = gr_multiply(A, B)
        if (A.mult, B.mult) == ({(1, 2, 1): 1}, {(1, 1, 2): 1}):
            assert out.mult == {(1, 2, 2): 1}
            return GrElement(P, {(-1, 2, 2): 1})
        return out

    monkeypatch.setattr(verify, "gr_multiply", wrong)
    failed = [check for check, ok, _ in suite_fusion(T23) if not ok]
    assert failed == ["product formula == tensor-character oracle (all pairs)",
                      "Drinfeld-image products follow the same formula (all pairs)"]


def test_criterion_4_presentation(T12, T13, T23):
    ok = all(_suite_ok(suite_presentation(th)) for th in (T12, T13, T23))
    _report(4, "polynomial presentation and the two-sided Casimir identity", ok)


def test_criterion_5_integral(T12, T13, T23):
    ok = all(_suite_ok(suite_integral(th)) for th in (T12, T13, T23))
    _report(5, "integral suite: lambda(Lambda)=1, invariances, balancing", ok)


def test_criterion_6_radford_images(T12, T13, T23):
    ok = all(_suite_ok(suite_radford_images(th)) for th in (T12, T13, T23))
    _report(6, "Radford-image decompositions coefficient-for-coefficient", ok)


def test_criterion_7_drinfeld_decompositions(T12, T23):
    ok = all(_suite_ok(suite_drinfeld(th)) for th in (T12, T23))
    _report(7, "Drinfeld-image decompositions for all labels", ok)


def test_criterion_8_ribbon(T12, T23):
    ok = all(_suite_ok(suite_ribbon(th)) for th in (T12, T23))
    _report(8, "ribbon eigenvalue table, Jordan split, tensor identity", ok)


def test_criterion_9_modular(T23):
    checks = suite_modular(T23)
    ok = _suite_ok(checks)
    ma = T23.modular_action
    rep = ma.verify_subrepresentations()
    dims = [b["dim"] for b in rep["blocks"].values()]
    ok = ok and dims == [1, 3, 4, 6, 6] and sum(dims) == 20
    rel = ma.sl2z_relations()
    ok = ok and rel["ST3_S-2_scalar"] == T23.params.ctx.one
    _report(9, "modular suite: S^2=id, blocks 1+3+4+6+6, factorization,"
               " (ST)^3 S^-2 = 1", ok)


@pytest.mark.xfail(strict=True, reason="the Drinfeld image of the fusion "
                   "ring is not literally S-stable: its S-image is the span "
                   "of the balanced-trace Radford images, which omits the "
                   "unit; the verified facts are span equality, T-stability "
                   "and the iterated S,T-closure rank")
def test_criterion_9_literal_gr_closure(T23):
    ma = T23.modular_action
    assert ma.verify_grothendieck_subrep()["literal_st_closed"]


def test_criterion_10_transformations(T23):
    ma = T23.modular_action
    rep = ma.verify_transformations()
    ok = rep["ok"]
    ok = ok and ma.data.central_charge == 0
    ok = ok and ma.data.t_phase == T23.params.ctx.one
    _report(10, "transformation identities at (2,3); c = 0 and T-phase = 1", ok)


def test_criterion_11_runtime():
    t0 = time.time()
    ok12, _ = run_suites(1, 2, report=None)
    dt12 = time.time() - t0
    t0 = time.time()
    ok23, _ = run_suites(2, 3, report=None)
    dt23 = time.time() - t0
    ok = ok12 and ok23 and dt12 < 30 and dt23 < 900
    print(f"criterion 11 timing: (1,2) {dt12:.1f}s (<30s), "
          f"(2,3) {dt23:.1f}s (<900s)")
    _report(11, "full verification within the stated budgets", ok)


@pytest.mark.parametrize("pair", [(1, 1), (2, 1), (3, 1), (1, 4), (4, 1), (3, 2)],
                         ids=lambda pair: "%d-%d" % pair)
def test_ledger_beyond_pinned_pairs(pair):
    # (1,1) has no nilpotent center and no pseudotraces, so many of its
    # families are empty and their sums run over empty iterables
    ok, results = run_suites(*pair, report=None)
    assert len(results) == 84
    assert ok, [(suite, check) for suite, check, passed, *_ in results if not passed]


def test_ledger_builds_each_projective_cover_once(monkeypatch):
    # the center, the character space and the module suite share one
    # cover per label through cached_projective, and one irreducible per
    # label through cached_irreducible: the Steinberg-type covers are their
    # irreducibles
    calls = {"projective": Counter(), "irreducible": Counter()}
    for kind, counter in calls.items():
        build = getattr(reps, kind)

        def counted(P, *label, build=build, counter=counter):
            counter[label] += 1
            return build(P, *label)

        for name, module in list(sys.modules.items()):
            if name.startswith("qpm") and getattr(module, kind, None) is build:
                monkeypatch.setattr(module, kind, counted)
    ok, _ = run_suites(2, 3, report=None)
    assert ok
    for counter in calls.values():
        assert sorted(counter) == sorted(irreducible_labels(Params(2, 3)))
        assert set(counter.values()) == {1}


def test_ledger_builds_each_weight_class_of_m_once(monkeypatch):
    # the Drinfeld images read the class (0, 0) of M, the tensor-square
    # checks every class; each is built once
    built = Counter()
    build = duality.MMatrix._build_class

    def counted(self, sw):
        built[sw] += 1
        return build(self, sw)

    monkeypatch.setattr(duality.MMatrix, "_build_class", counted)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    ok, _ = run_suites(2, 3, report=None)
    assert ok
    grid = {(m - n, np - mp) for m in range(2) for n in range(2)
            for mp in range(3) for np in range(3)}
    assert set(built) == grid and set(built.values()) == {1}


def _doubled(method, kind):
    """method with the members of one gamma-basis kind doubled."""
    def patched(self, k, label):
        f = method(self, k, label)
        return f * 2 if k == kind else f
    return patched


@pytest.mark.parametrize("kind, family, slash", [("nesw", "column", "slash"),
                                                 ("nwse", "row", "bslash")],
                         ids=["nesw", "nwse"])
@pytest.mark.parametrize("pair", [(2, 3), (3, 2)], ids=["T23", "T32"])
def test_each_sector_pass_of_a_merged_family_is_checked(pair, kind, family, slash,
                                                        monkeypatch):
    # The column and row (slash and bslash) families are one loop over the
    # two sectors.  Doubling the q-characters of one sector's pseudotraces
    # doubles their Radford and Drinfeld images, and with them the Radford
    # basis and the columns of C that the checks read; that must fail the
    # sector's checks, so neither pass of the loop is idle.
    monkeypatch.setattr(CharacterSpace, "functional", _doubled(CharacterSpace.functional, kind))
    th = Theory(Params(*pair))
    other = {"column": "row", "row": "column"}[family]
    passed = {check: ok for check, ok, _ in suite_radford_images(th) + suite_drinfeld(th)}
    assert not passed[f"{family} pseudotrace images decompose as stated"]
    assert passed[f"{other} pseudotrace images decompose as stated"]
    assert not passed["pseudotrace Drinfeld images match closed forms"]
    assert not passed["pseudotrace Drinfeld images decompose as stated"]
    failed = {name for name, _ in th.modular_action.verify_transformations()["failures"]}
    assert f"T phi_{slash}" in failed


def test_double_pseudotrace_check_sees_the_sign_of_its_minus_term(monkeypatch):
    # the minus-sector varphi_diag term has the sign (-1)^(r+s); at p+ = 2
    # the term vanishes (its factor plus.qsum(1) is 0) and at (3,2) the one
    # I1 label is (1,1), but (3,4) has I1 labels with r + s odd, so there
    # dropping the sign fails this check and no other
    th = Theory(Params(3, 4))
    assert _suite_ok(suite_radford_images(th))
    P = th.params
    plain = verify.varphi_diag

    def unsigned(P, sec, r, s):
        family = plain(P, sec, r, s)
        return {key: n * (-1) ** (r + s) for key, n in family.items()} if sec is P.minus else family

    monkeypatch.setattr(verify, "varphi_diag", unsigned)
    failed = [check for check, ok, _ in suite_radford_images(th) if not ok]
    assert failed == ["double pseudotrace images decompose as stated"]
    assert any((r + s) % 2 for r, s in P.set_I1())


class _FmWeightFlipped(Params):
    """Params whose conjugation weight gives f- the sign of e-, so that
    K f- = q-^2 f- K instead of q-^-2 f- K."""

    def weight(self, mono):
        a, b, c, d, _ = mono
        return (2 * self.p_minus * (b - a) + 2 * self.p_plus * (d + c)) % self.korder


def test_presentation_relations_check_each_sector_relation():
    # the check once tested K e = q^2 e K for e+ only, so a wrong K f-
    # relation read True
    passed = {check: ok for check, ok, _ in verify.suite_hopf(Theory(_FmWeightFlipped(2, 3)))}
    assert passed["presentation relations"] is False
    passed = {check: ok for check, ok, _ in verify.suite_hopf(Theory(Params(2, 3)))}
    assert passed["presentation relations"] is True


def test_dependent_radford_basis_fails_its_check():
    # a dependent Radford basis is reported as a failed check, not raised
    th = Theory(Params(1, 2))
    basis = list(th.radford_basis)
    basis[1] = basis[0] * 1
    th.params.cache["radford_basis"] = basis
    passed = {check: ok for check, ok, _ in suite_radford_images(th)}
    assert passed["Radford basis is a basis of the center"] is False


def test_an_untwisted_minus_image_fails_the_twist_check():
    # the twist is decided on the M-matrix images; the closed forms are
    # twisted by construction
    th = Theory(Params(1, 2))
    th.params.cache["drinfeld_image", "qtr", (-1, 1, 1)] = th.drinfeld_image("qtr", (1, 1, 1))
    passed = {check: ok for check, ok, _ in suite_drinfeld(th)}
    assert passed["minus images are K^{p+p-}-twists of plus images"] is False


@pytest.mark.parametrize("column", ["repeated", "outside"])
def test_drinfeld_injectivity_reads_the_stored_coordinates(column):
    # a repeated column of C, or an image outside the center span
    th = Theory(Params(1, 2))
    cols = list(th.drinfeld_coordinates)
    cols[1] = cols[0] if column == "repeated" else None
    th.params.cache["drinfeld_coordinates"] = cols
    passed = {check: ok for check, ok, _ in suite_drinfeld(th)}
    assert passed["Drinfeld map is injective on Ch (basis of Z)"] is False


def _ledger_lines_with_center(monkeypatch, change, suite, pair=(1, 2)):
    """The report lines of `suite` at `pair` when the canonical basis is
    change() of a copy of the true one."""
    build = duality.canonical_basis
    monkeypatch.setattr(duality, "canonical_basis", lambda P: change(build(P)))
    lines = []
    run_suites(*pair, selection={suite}, report=lines.append)
    return lines


def test_doubled_nilpotent_fails_the_ribbon_decomposition(monkeypatch):
    def change(cb):
        lab = ("v", ("ne", (1, 1)))
        return replace(cb, elements={**cb.elements, lab: cb.elements[lab] * 2})

    lines = _ledger_lines_with_center(monkeypatch, change, "ribbon-element", (2, 3))
    assert "[FAIL] ribbon-element: ribbon decomposition in canonical elements" in lines


@pytest.mark.parametrize("pair, new", [
    ((1, 2), lambda el: el["e", (1, 1)] * 2),
    ((2, 3), lambda el: el["e", (1, 1)] + el["v", ("ne", (1, 1))]),
], ids=["idempotent-doubled", "idempotent-plus-nilpotent"])
def test_bad_idempotent_fails_the_decomposition_of_one(monkeypatch, pair, new):
    def change(cb):
        return replace(cb, elements={**cb.elements, ("e", (1, 1)): new(cb.elements)})

    lines = _ledger_lines_with_center(monkeypatch, change, "center-structure", pair)
    assert "[FAIL] center-structure: decompose(1) = sum of idempotents" in lines


@pytest.mark.parametrize("selection", [set(), [], {"nope"}, {"hopf-axioms", "nope"}],
                         ids=["empty-set", "empty-list", "unknown", "known-and-unknown"])
def test_run_suites_rejects_bad_selections(selection, monkeypatch):
    # an empty selection once ran every suite; now it is refused before any
    # work: no Params is built and nothing is reported
    def no_params(*args):
        raise AssertionError("Params built for a bad selection")

    monkeypatch.setattr(verify, "Params", no_params)
    lines = []
    with pytest.raises(SuiteSelectionError, match="available: .*hopf-axioms"):
        run_suites(1, 2, selection=selection, report=lines.append)
    assert lines == []
    assert issubclass(SuiteSelectionError, ValueError)


@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 3)], ids=lambda pair: "%d-%d" % pair)
def test_pseudotrace_closed_forms_report_their_case_count(pair):
    # one case per pseudotrace Drinfeld image: the nesw family
    # (1 <= r < p+, 1 <= s <= p-), the nwse family (1 <= r <= p+,
    # 1 <= s < p-) and the upup family over I1, half the interior cells
    p, q = pair
    expected = (p - 1) * q + p * (q - 1) + (p - 1) * (q - 1) // 2
    assert expected == {(1, 1): 0, (1, 2): 1, (2, 3): 8}[pair]
    _, results = run_suites(p, q, selection={"drinfeld-images"}, report=None)
    [(passed, detail)] = [(passed, detail) for _, check, passed, detail, _ in results
                          if check == "pseudotrace Drinfeld images match closed forms"]
    assert passed and detail == f"cases={expected}"


def test_suite_times_ignore_wall_clock_jumps(monkeypatch):
    # a wall clock stepped backwards mid-suite must not yield negative times
    ticks = iter(range(10 ** 6, 0, -1))
    monkeypatch.setattr(time, "time", lambda: float(next(ticks)))
    _, results = run_suites(1, 2, selection={"hopf-axioms"}, report=None)
    assert results and all(seconds >= 0 for *_, seconds in results)


def test_finished_ledger_frees_its_caches():
    # With the cyclic collector off, a finished (1,3) ledger must leave
    # almost nothing allocated: its Params caches (about 2.7 MB) are freed
    # on return.
    run_suites(1, 2, report=None)  # first-use imports and module state
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        ok, _ = run_suites(1, 3, report=None)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
    assert ok
    assert retained < 1_000_000, retained


def _pool_of(monkeypatch, cpus):
    """Make run_suites see `cpus` usable CPUs; returns the list that
    collects the pid of every process forked from now on.  Every pool made
    is also kept alive until the test ends, so that no worker is ended by
    the pool's finalizer when run_suites drops it."""
    monkeypatch.setattr(verify, "_usable_cpus", lambda: cpus)
    pids = []
    fork = os.fork

    def recorded_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    pools = []

    class RecordedPool(multiprocessing.pool.Pool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pools.append(self)

    monkeypatch.setattr(os, "fork", recorded_fork)
    monkeypatch.setattr(multiprocessing.pool, "Pool", RecordedPool)
    return pids


def _reaped(pid):
    """pid is a child of this process that has been waited for."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def _no_child_left(pids):
    return (pids and all(map(_reaped, pids))
            and multiprocessing.active_children() == [])


_TIMING = re.compile(r"^ +\([\w-]+: [0-9.]+s\)$")


@pytest.mark.parametrize("pair", [(1, 2), (2, 3)], ids=lambda pair: "%d-%d" % pair)
def test_pooled_ledger_equals_the_inline_one(pair, monkeypatch):
    # the suites finish out of declaration order in the pool (the heaviest
    # is submitted first), yet results and report lines keep that order
    pids = _pool_of(monkeypatch, 2)
    pooled_lines = []
    ok, pooled = run_suites(*pair, report=pooled_lines.append)
    assert ok and len(pids) == 2 and _no_child_left(pids)
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    inline_lines = []
    _, inline = run_suites(*pair, report=inline_lines.append)
    assert len(pids) == 2
    assert [r[:4] for r in pooled] == [r[:4] for r in inline]
    assert ([line for line in pooled_lines if not _TIMING.match(line)]
            == [line for line in inline_lines if not _TIMING.match(line)])
    assert len(pooled_lines) == len(inline_lines)


def test_a_raising_suite_ends_the_pooled_ledger(monkeypatch):
    # chebyshev-presentation is declared fourth and submitted last: its
    # error is raised only after the three suites declared before it are
    # reported, and no line of a later suite, all of which finish first,
    # goes out
    def boom(theory):
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "SUITE_ORDER", [
        (name, boom if name == "chebyshev-presentation" else fn)
        for name, fn in verify.SUITE_ORDER])
    pids = _pool_of(monkeypatch, 2)
    lines = []
    with pytest.raises(RuntimeError, match="^boom$"):
        run_suites(2, 3, report=lines.append)
    assert _no_child_left(pids)
    suites = [re.match(r"^(?:\[\w+\] | +\()([\w-]+):", line)[1] for line in lines]
    assert list(dict.fromkeys(suites)) == ["hopf-axioms", "module-relations",
                                           "fusion-three-way"]
    assert _TIMING.match(lines[-1])


def test_a_killed_worker_ends_the_pooled_ledger(monkeypatch):
    # a worker killed by a signal (the out-of-memory killer, say) loses its
    # suite; the pool would wait for it forever
    caller = os.getpid()

    def killed(theory):
        if os.getpid() == caller:
            raise AssertionError("the suite ran in the calling process")
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(verify, "SUITE_ORDER", [
        (name, killed if name == "hopf-axioms" else fn)
        for name, fn in verify.SUITE_ORDER])
    pids = _pool_of(monkeypatch, 2)
    lines = []
    with pytest.raises(ChildProcessError, match="worker ended"):
        run_suites(1, 2, report=lines.append)
    assert lines == [] and _no_child_left(pids)


def test_one_suite_or_one_cpu_starts_no_process(monkeypatch):
    pids = _pool_of(monkeypatch, 2)
    ok, _ = run_suites(1, 2, selection={"integral-suite"}, report=None)
    assert ok and pids == []
    monkeypatch.setattr(verify, "_usable_cpus", lambda: 1)
    ok, _ = run_suites(1, 2, report=None)
    assert ok and pids == []


def test_an_instrumented_ledger_starts_no_process(monkeypatch):
    # a tracer that wraps the suites, or a profiler, counts in this process;
    # what it counted in a worker would be lost when the worker ended
    ran = []

    def traced(fn):
        @functools.wraps(fn)
        def wrapper(theory):
            ran.append(fn.__name__)
            return fn(theory)
        return wrapper

    plain = verify.SUITE_ORDER
    monkeypatch.setattr(verify, "SUITE_ORDER",
                        [(name, traced(fn)) for name, fn in plain])
    pids = _pool_of(monkeypatch, 2)
    ok, _ = run_suites(1, 2, report=None)
    assert ok and pids == [] and len(ran) == len(plain)
    monkeypatch.setattr(verify, "SUITE_ORDER", plain)
    profile = cProfile.Profile()
    profile.enable()
    try:
        ok, _ = run_suites(1, 2, report=None)
    finally:
        profile.disable()
    assert ok and pids == []


def test_every_suite_declares_its_reads_and_its_pool_turn():
    names = verify.available_suites()
    assert list(verify.SUITE_READS) == names
    assert sorted(verify.HEAVIEST_FIRST) == sorted(names)
    theory = Theory(Params(1, 2))
    for reads in verify.SUITE_READS.values():
        for path in reads:
            attrgetter(path)(theory)


def _qpm_nodes():
    """(file name, node) for every AST node of every module of qpm."""
    src = os.path.dirname(duality.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            yield name, node


def test_no_module_imports_another_modules_private_name():
    """A qpm module uses another's helpers through their public names, so
    a private copy of a shared kernel has nowhere to be imported from."""
    private = []
    for name, node in _qpm_nodes():
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "qpm"):
            private += [(name, node.lineno, alias.name) for alias in node.names
                        if alias.name.startswith("_")]
    assert private == []


def test_no_module_reads_another_modules_private_attribute():
    """An attribute read obj._name, on anything but self or cls, names a
    private attribute of its own module: one defined (a def, a class or an
    assignment) in that module, or in no qpm module at all (mpmath's
    _mpf_, say)."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    defined, reads = {}, []
    for name, node in _qpm_nodes():
        own = defined.setdefault(name, set())
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            own.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            own.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            own.add(node.attr)
        elif (isinstance(node, ast.Attribute) and private(node.attr)
              and not (isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"))):
            reads.append((name, node.lineno, node.attr))
    foreign = [(name, line, attr) for name, line, attr in reads
               if attr not in defined[name]
               and any(attr in own for other, own in defined.items() if other != name)]
    assert foreign == []


def test_no_builtin_sum_of_products_with_a_start():
    """A sum of products of field elements is one cyclotomic.sum_products
    batch: a builtin sum(..., start=...) over a * product is a chain of
    Cyclo + beside it.  A sum of integers needs no start and is left."""
    chains = [(name, node.lineno) for name, node in _qpm_nodes()
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "sum" and any(k.arg == "start" for k in node.keywords)
              and node.args and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp))
              and isinstance(node.args[0].elt, ast.BinOp)
              and isinstance(node.args[0].elt.op, ast.Mult)]
    assert chains == []
