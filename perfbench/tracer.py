"""Per-layer tracing of qpm from outside the package.

While a ``Tracer`` is active, selected public functions and methods of the
qpm modules are replaced by wrappers that count calls and time them, at
every place a caller looks them up: the class attribute for a method or
property, and every qpm module global that holds a module-level function.
The originals are put back when the tracer exits.  No file of the package
is edited.

A timed wrapper keeps a stack of the time spent in nested timed calls, so
``self_s`` is the time inside a call minus the time inside the timed calls
it made; ``total_s`` includes them.  ``CycloContext.reduce`` is only
counted, because it runs millions of times inside ``Cyclo`` products and a
clock read around each call would dominate the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import weakref

# stat name -> targets, each "module:attribute path"
TIMED = {
    "cyclotomic.mul": ["qpm.cyclotomic:Cyclo.__mul__", "qpm.cyclotomic:Cyclo.__rmul__"],
    "cyclotomic.add": ["qpm.cyclotomic:Cyclo.__add__", "qpm.cyclotomic:Cyclo.__radd__"],
    "cyclotomic.inv": ["qpm.cyclotomic:Cyclo.inv"],
    "cyclotomic.pow": ["qpm.cyclotomic:Cyclo.__pow__"],
    "cyclotomic.embed": ["qpm.cyclotomic:Cyclo.embed"],
    "cyclotomic.context": ["qpm.cyclotomic:CycloContext.__init__"],
    "algebra.params": ["qpm.algebra:Params.__init__"],
    "algebra.element_mul": ["qpm.algebra:AlgebraElement.__mul__",
                            "qpm.algebra:AlgebraElement.__rmul__"],
    "algebra.tensor_mul": ["qpm.algebra:TensorElement.__mul__",
                           "qpm.algebra:TensorElement.__rmul__"],
    "algebra.coproduct": ["qpm.algebra:AlgebraElement.coproduct"],
    "linalg.span_solver.build": ["qpm.linalg:SpanSolver.__init__"],
    "linalg.coordinates": ["qpm.linalg:SpanSolver.coordinates"],
    "linalg.nullspace": ["qpm.linalg:nullspace"],
    "linalg.invert_dense": ["qpm.linalg:invert_dense"],
    "linalg.mat_mul_dense": ["qpm.linalg:mat_mul_dense"],
    "reps.module_build": ["qpm.reps:irreducible", "qpm.reps:verma",
                          "qpm.reps:projective_deck", "qpm.reps:projective"],
    "reps.tensor_product": ["qpm.reps:tensor_product"],
    "reps.decompose": ["qpm.reps:GrothendieckIndex.decompose"],
    "characters.space": ["qpm.characters:CharacterSpace.__init__"],
    "center.canonical_basis": ["qpm.center:canonical_basis"],
    "center.brute_force": ["qpm.center:center_brute_force"],
    "duality.integral": ["qpm.duality:build_integral_data"],
    "duality.m_matrix": ["qpm.duality:MMatrix.__init__"],
    "duality.radford_basis": ["qpm.duality:Theory.radford_basis"],
    "duality.drinfeld_basis": ["qpm.duality:Theory.drinfeld_basis"],
    "duality.ribbon": ["qpm.duality:Theory.ribbon"],
    "duality.contract_functional": ["qpm.duality:MMatrix.contract_functional"],
    "duality.radford_inverse": ["qpm.duality:radford_inverse"],
    "duality.intertwining_failures": ["qpm.duality:MMatrix.intertwining_failures"],
    "duality.ribbon_identity_failures": ["qpm.duality:MMatrix.ribbon_identity_failures"],
    "modular.action": ["qpm.modular:ModularAction.__init__"],
}
COUNTED = {"cyclotomic.reduce": ["qpm.cyclotomic:CycloContext.reduce"]}
MONO_MUL = "qpm.algebra:Params.mono_mul"
CLI_COMMANDS = ("info", "fusion", "center", "smatrix", "tmatrix", "ribbon")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "items")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.items = 0  # checks returned (suites), repeated keys (mono_mul)


def _resolve(target):
    modname, path = target.split(":")
    owner = sys.modules[modname]
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Context manager that installs the wrappers and collects ``Stat``s."""

    def __init__(self):
        self.stats = {}
        self._on = [True]
        self._stack = [0.0]
        self.paused_s = 0.0
        self._undo = []
        self.overhead_per_call = {}

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn, stat, count_result=False):
        stack = self._stack
        on = self._on
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not on[0]:
                return fn(*args, **kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stat.calls += 1
                stat.total_s += dt
                stat.self_s += dt - child
                stack[-1] += dt
            if count_result:
                stat.items += len(out)
            return out
        return wrapper

    def _counted(self, fn, stat):
        on = self._on

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on[0]:
                stat.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def _mono_mul(self, fn, stat):
        """Timed, and counts calls whose (self, m1, m2) key was seen before:
        the repeat share is the hit ratio of an unbounded memo."""
        seen = weakref.WeakKeyDictionary()
        timed = self._timed(fn, stat)
        on = self._on

        @functools.wraps(fn)
        def wrapper(params, m1, m2):
            if not on[0]:
                return fn(params, m1, m2)
            keys = seen.get(params)
            if keys is None:
                keys = seen[params] = set()
            key = (m1, m2)
            if key in keys:
                stat.items += 1
            else:
                keys.add(key)
            return timed(params, m1, m2)
        return wrapper

    # -- patching ---------------------------------------------------------------

    def _patch(self, target, make):
        owner, attr = _resolve(target)
        original = owner.__dict__[attr]
        if isinstance(original, property):
            self._set(owner, attr, property(make(original.fget)))
            return
        if isinstance(owner, type):
            self._set(owner, attr, make(original))
            return
        wrapper = make(original)
        for mod in self._modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, name, wrapper)

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    @staticmethod
    def _modules():
        return [m for name, m in sys.modules.items()
                if m is not None and (name == "qpm" or name.startswith("qpm."))]

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark bookkeeping (input generation, answer checks)
        without counting it."""
        self._on[0] = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.paused_s += time.perf_counter() - t0
            self._on[0] = True

    def stat(self, name):
        return self.stats.setdefault(name, Stat())

    def __enter__(self):
        self._calibrate()
        for name, targets in TIMED.items():
            stat = self.stat(name)
            for t in targets:
                self._patch(t, lambda fn, s=stat: self._timed(fn, s))
        for name, targets in COUNTED.items():
            stat = self.stat(name)
            for t in targets:
                self._patch(t, lambda fn, s=stat: self._counted(fn, s))
        mono = self.stat("algebra.mono_mul")
        self._patch(MONO_MUL, lambda fn: self._mono_mul(fn, mono))
        for cmd in CLI_COMMANDS:
            stat = self.stat(f"cli.{cmd}")
            self._patch(f"qpm.cli:cmd_{cmd}", lambda fn, s=stat: self._timed(fn, s))
        verify = sys.modules["qpm.verify"]
        order = verify.SUITE_ORDER
        original_order = list(order)
        for i, (suite, fn) in enumerate(original_order):
            stat = self.stat(f"verify.{suite}")
            order[i] = (suite, self._timed(fn, stat, count_result=True))
        self._undo.append((order, slice(None), original_order))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        return False

    # -- overhead ---------------------------------------------------------------

    def _calibrate(self, n=100_000):
        """Cost per call of each wrapper kind, from wrapping a trivial
        function; used to estimate how much of the traced wall time the
        wrappers themselves added."""
        class Probe:
            pass

        probe = Probe()

        def noop(a, b, c):
            return a

        def run(fn):
            t0 = time.perf_counter()
            for _ in range(n):
                fn(probe, 1, 2)
            return time.perf_counter() - t0

        scratch = Stat()
        bare = min(run(noop) for _ in range(3))
        for kind, wrapped in (("timed", self._timed(noop, scratch)),
                              ("counted", self._counted(noop, scratch)),
                              ("mono_mul", self._mono_mul(noop, scratch))):
            cost = min(run(wrapped) for _ in range(3))
            self.overhead_per_call[kind] = max(cost - bare, 0.0) / n
        self._stack[:] = [0.0]

    def overhead_s(self):
        cost = self.overhead_per_call
        total = 0.0
        for name, st in self.stats.items():
            if name in COUNTED:
                total += st.calls * cost["counted"]
            elif name == "algebra.mono_mul":
                total += st.calls * cost["mono_mul"]
            else:
                total += st.calls * cost["timed"]
        return total

    def attributed_s(self):
        return sum(st.self_s for name, st in self.stats.items() if name not in COUNTED)

    def metrics(self):
        """Flat {metric name: value} over every stat."""
        out = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.build_s"] = st.total_s
            out[f"{name}.s"] = st.total_s
            out[f"{name}.checks"] = st.items
        mono = self.stats["algebra.mono_mul"]
        out["algebra.mono_mul.hit_ratio"] = mono.items / mono.calls if mono.calls else 0.0
        return out
