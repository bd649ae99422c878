"""SpanSolver against an oracle that does not eliminate.

Every spanning set here is built so that its facts are known beforehand:

* each vector v_i owns an anchor key, and v_i is w_i plus a random
  combination of the earlier w_j, where w_i is the only w with anchor i,
  so the anchor block is unit triangular and the set is independent;
* every vector is balanced by one shared key so that a fixed functional f,
  nonzero at every key, vanishes on it; f then vanishes on the span, and
  a target with f(t) != 0 lies outside it.

An in-span target is built as sparse_sum of c_i v_i, so its coordinates
are the c it was built from.
"""

import functools
import random
from fractions import Fraction

import pytest

from qpm.cyclotomic import CycloContext, sparse_sum
from qpm.linalg import (SpanSolver, columns, invert_dense, mat_mul_dense, mat_vec, scalar_of,
                        sparse_vector)
from conftest import chain_mat_mul, chain_mat_vec

CONTEXTS = {order: CycloContext(order) for order in (48, 144)}
NVEC = 6
SHARED = 5       # keys that belong to no single vector
BALANCE = ("balance",)


def _scalar(ctx, rng, nonzero=False):
    """Zero (unless `nonzero`), a rational, a one-term c*zeta^k/d or a
    multi-term element, with denominators up to 12."""
    den = rng.randint(1, 12)
    kind = rng.randrange(1 if nonzero else 0, 4)
    if kind == 0:
        return ctx.zero
    if kind == 1:
        return ctx.integer(Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), den))
    if kind == 2:
        return ctx.reduce({rng.randrange(ctx.order): rng.choice([-3, -1, 1, 2])}, den)
    while True:
        x = ctx.reduce({rng.randrange(ctx.order): rng.randint(-9, 9)
                        for _ in range(rng.randint(2, 5))}, den)
        if x or not nonzero:
            return x


def _f_value(f, vec):
    return sum((f[k] * c for k, c in vec.items()), start=f[BALANCE].ctx.zero)


def _spanning_set(ctx, rng):
    """(vectors, f): NVEC independent sparse vectors with f(v_i) = 0."""
    anchors = [("anchor", i) for i in range(NVEC)]
    shared = [("shared", rng.randrange(1000), j) for j in range(SHARED)]
    f = {k: _scalar(ctx, rng, nonzero=True) for k in anchors + shared}
    f[BALANCE] = ctx.integer(Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 7)))
    ws = []
    for a in anchors:
        w = {a: _scalar(ctx, rng, nonzero=True)}
        for k in rng.sample(shared, rng.randint(1, SHARED)):
            w[k] = _scalar(ctx, rng, nonzero=True)
        ws.append(w)
    vectors = []
    for i, w in enumerate(ws):
        terms = list(w.items())
        for j in range(i):
            if rng.random() < 0.5:
                c = _scalar(ctx, rng)
                terms += [(k, c * x) for k, x in ws[j].items()]
        v = sparse_sum(terms)
        # balance: f(v) = 0 through the shared BALANCE key
        v[BALANCE] = _f_value(f, v) * -f[BALANCE].inv()
        vectors.append({k: x for k, x in v.items() if x})
    assert all(not _f_value(f, v) for v in vectors)
    return vectors, f


def _combination(coeffs, vectors):
    return sparse_sum((k, c * x) for c, v in zip(coeffs, vectors) for k, x in v.items())


@functools.lru_cache(maxsize=None)
def _sets(order):
    """Four seeded (vectors, f, solver) triples, built once per field."""
    ctx = CONTEXTS[order]
    rng = random.Random(order)
    return [(vectors, f, SpanSolver(vectors, ctx))
            for vectors, f in (_spanning_set(ctx, rng) for _ in range(4))]


def _cases(order, salt, count=4):
    """(ctx, rng, vectors, f, solver) for the first `count` sets, with a
    generator seeded per test."""
    rng = random.Random(1000 * order + salt)
    for vectors, f, solver in _sets(order)[:count]:
        yield CONTEXTS[order], rng, vectors, f, solver


@pytest.mark.parametrize("order", sorted(CONTEXTS))
def test_in_span_target_gives_its_coefficients(order):
    for ctx, rng, vectors, f, solver in _cases(order, 1):
        assert solver.independent and solver.rank == NVEC
        for _ in range(4):
            coeffs = [_scalar(ctx, rng) for _ in vectors]
            target = _combination(coeffs, vectors)
            assert solver.coordinates(target) == coeffs
            assert solver.contains(target)


@pytest.mark.parametrize("order", sorted(CONTEXTS))
def test_changed_or_extended_target_is_outside(order):
    for ctx, rng, vectors, f, solver in _cases(order, 2):
        coeffs = [_scalar(ctx, rng, nonzero=True) for _ in vectors]
        target = _combination(coeffs, vectors)
        for key in target:
            changed = dict(target)
            changed[key] = target[key] + _scalar(ctx, rng, nonzero=True)
            assert _f_value(f, changed)  # the oracle: outside ker f
            assert solver.coordinates(changed) is None
            assert not solver.contains(changed)
        extended = dict(target)
        extended[("outside",)] = _scalar(ctx, rng, nonzero=True)
        assert solver.coordinates(extended) is None
        assert not solver.contains(extended)
        # a zero coefficient at an unknown key is no coefficient at all
        extended[("outside",)] = ctx.zero
        assert solver.coordinates(extended) == coeffs


@pytest.mark.parametrize("order", sorted(CONTEXTS))
def test_zero_target_has_zero_coordinates(order):
    for ctx, rng, vectors, f, solver in _cases(order, 3, count=2):
        zeros = [ctx.zero] * NVEC
        assert solver.coordinates({}) == zeros
        assert solver.coordinates({k: ctx.zero for k in vectors[0]}) == zeros
        assert solver.contains({})


@pytest.mark.parametrize("order", sorted(CONTEXTS))
def test_dependent_set_refuses_coordinates(order):
    for ctx, rng, vectors, f, _ in _cases(order, 4, count=2):
        coeffs = [_scalar(ctx, rng, nonzero=True) for _ in vectors]
        extra = _combination(coeffs, vectors)
        dependent = vectors[:3] + [extra] + vectors[3:]
        solver = SpanSolver(dependent, ctx)
        assert not solver.independent and solver.rank == NVEC
        with pytest.raises(ValueError, match="independent"):
            solver.coordinates(extra)
        # membership needs no independence
        assert solver.contains(extra)
        changed = dict(extra)
        key = next(iter(changed))
        changed[key] = changed[key] + ctx.one
        assert not solver.contains(changed)


def test_dependent_pair_from_the_docstring():
    ctx = CONTEXTS[48]
    one, two = ctx.one, ctx.integer(2)
    solver = SpanSolver([{"a": one, "b": one}, {"a": two, "b": two}], ctx)
    with pytest.raises(ValueError):
        solver.coordinates({"a": one, "b": one})
    assert solver.contains({"a": one, "b": one})
    assert not solver.contains({"a": one})


@pytest.mark.parametrize("order", sorted(CONTEXTS))
def test_contains_agrees_with_coordinates(order):
    seen = {True: 0, False: 0}
    for ctx, rng, vectors, f, solver in _cases(order, 5):
        for _ in range(8):
            coeffs = [_scalar(ctx, rng) for _ in vectors]
            target = _combination(coeffs, vectors)
            if rng.random() < 0.5:
                key = rng.choice(sorted({k for v in vectors for k in v}))
                target[key] = target.get(key, ctx.zero) + _scalar(ctx, rng)
            inside = solver.contains(target)
            assert inside == (solver.coordinates(target) is not None)
            assert inside == (not _f_value(f, target))
            seen[inside] += 1
    assert seen[True] >= 5 and seen[False] >= 5, seen


# -- the center's coordinate products -------------------------------------------

@pytest.mark.parametrize("theory", ["T13", "T23"])
def test_compared_products_equal_the_chain_order_ones(request, theory):
    """mat_mul_dense and mat_vec (one sum_products batch) give the values of
    the chain-of-+ products on the modular matrices."""
    ma = request.getfixturevalue(theory).modular_action
    ctx = ma.params.ctx
    for a, b in ((ma.S, ma.C), (ma.S, ma.S)):
        assert mat_mul_dense(a, b, ctx) == chain_mat_mul(a, b, ctx)
    vectors = ma.theory.drinfeld_coordinates
    assert len(vectors) == ma.dim and any(len(sparse_vector(co)) > 1 for co in vectors)
    for co in vectors:
        assert mat_vec(ma.T, sparse_vector(co)) == sparse_vector(chain_mat_vec(ma.T, co, ctx))


def test_scalar_of_reads_only_scalar_matrices():
    ctx = CONTEXTS[48]
    n = 4

    def scalar(c):
        return [[c if i == j else ctx.zero for j in range(n)] for i in range(n)]

    two = ctx.integer(2)
    assert scalar_of(scalar(ctx.one)) == ctx.one
    assert scalar_of(scalar(two)) == two
    perturbed = scalar(two)
    perturbed[1][2] = ctx.root_of_unity(1)
    assert scalar_of(perturbed) is None


# -- the one inverse -------------------------------------------------------------

def _identity(n, ctx):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def _assert_two_sided_inverse(mat, ctx):
    inv = invert_dense(mat, ctx)
    one = _identity(len(mat), ctx)
    assert mat_mul_dense(mat, inv, ctx) == one
    assert mat_mul_dense(inv, mat, ctx) == one


@pytest.mark.parametrize("theory", ["T23", "T32", "T13", "T14"])
def test_inverse_of_the_drinfeld_coordinates(request, theory):
    """invert_dense(C), the S-matrix, is a two-sided inverse of C."""
    th = request.getfixturevalue(theory)
    _assert_two_sided_inverse(columns(th.drinfeld_coordinates), th.params.ctx)


def test_inverse_needs_a_row_exchange():
    ctx = CONTEXTS[48]
    z = ctx.root_of_unity
    mat = [[ctx.zero, ctx.one, ctx.integer(2)],
           [ctx.one, z(1), ctx.zero],
           [ctx.integer(3), ctx.zero, z(5) + z(7) * 2]]
    _assert_two_sided_inverse(mat, ctx)


def test_inverse_refuses_a_singular_matrix():
    ctx = CONTEXTS[48]
    z = ctx.root_of_unity
    row = [z(1), ctx.integer(3), z(2) + z(9)]
    with pytest.raises(ValueError):
        invert_dense([row, [ctx.one, ctx.zero, z(4)], list(row)], ctx)


def test_central_inverse_refuses_a_nilpotent_element(T23):
    """v* - 1, v* the unipotent factor of the ribbon element, is a nonzero
    central element whose cube vanishes."""
    P = T23.params
    x = T23.ribbon.v_unipotent - P.one
    assert not x.is_zero()
    assert (x * x * x).is_zero()
    with pytest.raises(ArithmeticError):
        T23.central_inverse(x)
