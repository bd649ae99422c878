"""The benchmark's workloads: set-up, measured work and the correctness gate.

Every workload drives qpm from one single-threaded process.  Each set-up
imports the package afresh and builds fresh ``Params``, so no state carries
over from an earlier set-up or run.  Answers are checked outside the timed
intervals; every mismatch or exception counts as a failed operation.

A workload's measured work is a list of operations that it repeats in
passes.  Shared machines alternate between fast and slow phases, from a
fraction of a second to some 20 seconds long, so a latency measured over
passes spread across ``seconds`` reads the program's cost far more
steadily than one pass: for a ledger or a CLI call, which lasts seconds,
its fastest pass; for a query, its mean (see ``Queries``).  Passes repeat
until ``seconds`` have passed and at least ``min_passes`` are done; a
traced run makes exactly one pass, so its call counts repeat.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import math
import os
import sys
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from types import SimpleNamespace

clock = time.perf_counter

TABLE_COMMANDS = ("info", "fusion", "center", "smatrix", "tmatrix", "ribbon")
QUERY_KINDS = ("product", "central", "fusion")
MAX_TERMS = 6        # terms of a random element in a product query


def fresh_qpm():
    """Import qpm with no module of an earlier import left in the process."""
    for name in [n for n in sys.modules if n == "qpm" or n.startswith("qpm.")]:
        del sys.modules[name]
    return SimpleNamespace(**{
        name: importlib.import_module(f"qpm.{name}")
        for name in ("algebra", "cli", "duality", "grothendieck", "reps", "verify")})


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p * len(ordered)) - 1, 0)]


def pair_key(pair):
    return f"{pair[0]},{pair[1]}"


@dataclass
class Outcome:
    """The measured work of one run."""
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    work_s: float = 0.0
    op_s: list = field(default_factory=list)      # latency of each operation
    layer: dict = field(default_factory=dict)     # extra per-layer values


def repeat(one_pass, seconds, min_passes):
    """Call ``one_pass`` until ``seconds`` have passed and it ran at least
    ``min_passes`` times; returns the number of passes."""
    start = clock()
    passes = 0
    while passes < min_passes or clock() - start < seconds:
        one_pass()
        passes += 1
    return passes


def _report_exception(what):
    print(f"perfbench: {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# ----------------------------------------------------------------------
# ledgers
# ----------------------------------------------------------------------

def check_names(results):
    return [f"{suite}: {check}" for suite, check, *_ in results]


def ledger_failures(results, expected):
    """Failed checks, plus every check name missing from or added to the
    recorded list (one more if only the order differs)."""
    failed = sum(1 for r in results if not r[2])
    names = check_names(results)
    want, got = Counter(expected), Counter(names)
    renamed = sum((want - got).values()) + sum((got - want).values())
    if not renamed and names != list(expected):
        renamed = 1
    return failed + renamed


class Ledger:
    """The full ``qpm.verify.run_suites`` ledger of each pair in turn; an
    operation is a ledger check, and a pair's ledger is timed as a whole.
    Every ledger starts cold, so passes repeat the same work."""

    min_passes = 1

    def __init__(self, pairs, expected):
        self.pairs = tuple(pairs)
        self.expected = expected        # pair key -> recorded check names

    def setup(self, q):
        return [q.algebra.Params(*pair) for pair in self.pairs]

    def work(self, q, state, rng, seconds, min_passes, tracer=None):
        out = Outcome()
        best = {pair: math.inf for pair in self.pairs}

        def one_pass():
            for pair in self.pairs:
                expected = self.expected[pair_key(pair)]
                out.attempted += len(expected)
                t0 = clock()
                try:
                    results = q.verify.run_suites(*pair, report=None)[1]
                except Exception:
                    _report_exception(f"ledger {pair}")
                    out.failed += len(expected)
                    continue
                best[pair] = min(best[pair], clock() - t0)
                out.failed += ledger_failures(results, expected)

        out.passes = repeat(one_pass, seconds, min_passes)
        out.op_s = [t for t in best.values() if t < math.inf]
        out.work_s = sum(out.op_s)
        return out


# ----------------------------------------------------------------------
# CLI tables
# ----------------------------------------------------------------------

def run_table(q, pair, cmd, path):
    """One CLI call writing the JSON table ``cmd`` to ``path``."""
    return q.cli.main(["--p-plus", str(pair[0]), "--p-minus", str(pair[1]),
                       "--format", "json", "--output", path, cmd])


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Tables:
    """The six CLI tables, each one ``qpm.cli.main`` call writing JSON to a
    file; the SHA-256 of each file must equal the recorded digest.  Each
    call builds its own ``Params``, so passes repeat the same work."""

    min_passes = 3

    def __init__(self, pair, expected, workdir):
        self.pair = pair
        self.expected = expected        # command -> hex digest
        self.workdir = workdir

    def setup(self, q):
        return q.algebra.Params(*self.pair)

    def work(self, q, state, rng, seconds, min_passes, tracer=None):
        out = Outcome()
        best = {cmd: math.inf for cmd in TABLE_COMMANDS}

        def one_pass():
            with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-",
                                             dir=self.workdir) as tmp:
                codes = {}
                for cmd in TABLE_COMMANDS:
                    t0 = clock()
                    try:
                        codes[cmd] = run_table(q, self.pair, cmd,
                                               os.path.join(tmp, cmd + ".json"))
                    except Exception:
                        _report_exception(f"qpm {cmd}")
                        codes[cmd] = None
                    best[cmd] = min(best[cmd], clock() - t0)
                for cmd in TABLE_COMMANDS:
                    out.attempted += 1
                    path = os.path.join(tmp, cmd + ".json")
                    if codes[cmd] != 0 or not os.path.exists(path):
                        out.failed += 1
                    elif file_digest(path) != self.expected[cmd]:
                        print(f"perfbench: {cmd} output digest differs", file=sys.stderr)
                        out.failed += 1

        out.passes = repeat(one_pass, seconds, min_passes)
        out.op_s = list(best.values())
        out.work_s = sum(out.op_s)
        return out


def table_digests(q, pair, workdir):
    """Digest of each table, as recorded in expected.json."""
    with tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=workdir) as tmp:
        digests = {}
        for cmd in TABLE_COMMANDS:
            path = os.path.join(tmp, cmd + ".json")
            run_table(q, pair, cmd, path)
            digests[cmd] = file_digest(path)
    return digests


# ----------------------------------------------------------------------
# interactive queries
# ----------------------------------------------------------------------

@dataclass
class QueryState:
    params: object
    theory: object
    index: object            # GrothendieckIndex
    monomials: list
    labels: list


class Queries:
    """A closed loop with one client on one warm ``Theory``: the next query
    is sent when the previous answer is back.  The seed fixes a sequence
    with as many queries of each kind as there are ordered pairs of
    irreducibles, in random order: products of random elements, central
    coordinates of random combinations, and fusion of every ordered pair of
    irreducibles once (the kind mix and the fusion pairs are fixed, so that
    seeds differ in inputs, not in the amount of work).  The
    sequence is sent once to warm the caches, each answer checked against
    an identity the query does not compute; then it is replayed, each
    replayed answer compared with the checked one.  A query's latency is its
    mean over the replays, not its fastest: a query lasts milliseconds, so
    its fastest replay catches single fast moments of the machine and jumps
    between the machine's fast and slow regimes from run to run."""

    min_passes = 3

    def __init__(self, pair):
        self.pair = pair

    def setup(self, q):
        P = q.algebra.Params(*self.pair)
        theory = q.duality.Theory(P)
        theory.radford_solver
        index = q.reps.GrothendieckIndex(P)
        return QueryState(P, theory, index, list(P.monomials()),
                          q.reps.irreducible_labels(P))

    def _element(self, q, st, rng):
        P = st.params
        terms = rng.randint(1, MAX_TERMS)
        return q.algebra.AlgebraElement(P, {
            m: P.ctx.root_of_unity(rng.randrange(P.N)) * rng.choice((-3, -2, -1, 1, 2, 3))
            for m in rng.sample(st.monomials, terms)})

    def _batch(self, q, st, rng):
        pairs = [(a, b) for a in st.labels for b in st.labels]
        kinds = [kind for kind in QUERY_KINDS for _ in pairs]
        rng.shuffle(kinds)
        rng.shuffle(pairs)
        pairs = iter(pairs)
        basis = st.theory.radford_basis
        batch = []
        for kind in kinds:
            if kind == "product":
                x, y = self._element(q, st, rng), self._element(q, st, rng)
                inputs = (x, y, rng.choice(st.labels))
            elif kind == "central":
                coeffs = [rng.randint(-3, 3) for _ in basis]
                if not any(coeffs):
                    coeffs[rng.randrange(len(coeffs))] = 1
                z = st.params.zero
                for c, b in zip(coeffs, basis):
                    if c:
                        z = z + b * c
                inputs = (z, coeffs)
            else:
                inputs = next(pairs)
            batch.append((kind, inputs))
        return batch

    @staticmethod
    def _run(q, st, kind, inputs):
        if kind == "product":
            return inputs[0] * inputs[1]
        if kind == "central":
            return st.theory.central_coordinates(inputs[0])
        a, b = inputs
        return st.index.decompose_dict(q.reps.tensor_product(
            st.index.irreducibles[a], st.index.irreducibles[b]))

    @staticmethod
    def _check(q, st, kind, inputs, answer):
        if kind == "product":
            # the module action is an algebra homomorphism
            x, y, label = inputs
            module = st.index.irreducibles[label]
            return module.act(answer) == module.act(x) * module.act(y)
        if kind == "central":
            ctx = st.params.ctx
            return answer == [ctx.integer(c) for c in inputs[1]]
        a, b = inputs
        gr = q.grothendieck
        return answer == gr.gr_multiply(gr.gr_class(st.params, *a),
                                        gr.gr_class(st.params, *b)).mult

    def work(self, q, st, rng, seconds, min_passes, tracer=None):
        bookkeeping = tracer.paused if tracer else contextlib.nullcontext
        with bookkeeping():
            batch = self._batch(q, st, rng)
        answers = [None] * len(batch)
        spent = [0.0] * len(batch)      # summed latency over the replays
        failed = set()

        def send(warm_up):
            for i, (kind, inputs) in enumerate(batch):
                if i in failed:
                    continue
                t0 = clock()
                try:
                    answer = self._run(q, st, kind, inputs)
                except Exception:
                    _report_exception(f"{kind} query")
                    failed.add(i)
                    continue
                dt = clock() - t0
                with bookkeeping():
                    if warm_up:
                        ok = self._check(q, st, kind, inputs, answer)
                        answers[i] = answer
                    else:
                        ok = answer == answers[i]
                if not ok:
                    print(f"perfbench: wrong {kind} answer", file=sys.stderr)
                    failed.add(i)
                elif not warm_up:
                    spent[i] += dt

        send(warm_up=True)
        out = Outcome(attempted=len(batch))
        out.passes = repeat(lambda: send(warm_up=False), seconds, min_passes)
        out.failed = len(failed)
        latency = [t / out.passes for i, t in enumerate(spent) if i not in failed]
        out.op_s = latency
        out.work_s = 1000 * sum(latency) / max(len(latency), 1)
        for kind in QUERY_KINDS:
            times = [t / out.passes for i, ((k, _), t) in enumerate(zip(batch, spent))
                     if k == kind and i not in failed]
            out.layer[f"queries.{kind}.p50_ms"] = 1e3 * percentile(times, 0.5) if times else 0.0
        return out
