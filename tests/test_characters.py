"""q-characters: predicate, brute-force space, pseudotrace construction."""

import random
from itertools import product

import pytest

from qpm import characters
from qpm.algebra import Params
from qpm.characters import (CharacterSpace, Functional, PseudotraceSpec,
                            counit_functional, is_qcharacter, qcharacter_space,
                            qtrace, sigma_endomorphism, trace_functional)
from qpm.cyclotomic import sparse_sum
from qpm.linalg import SpanSolver


@pytest.fixture(scope="module")
def cs23(T23):
    return T23.characters


@pytest.fixture(scope="module")
def cs12(T12):
    return T12.characters


def test_counts(cs12, cs23):
    assert cs12.dimension == 5
    assert cs23.dimension == 20


def test_counit_is_qcharacter(P23, cs23):
    eps = counit_functional(P23)
    assert is_qcharacter(eps)
    assert qtrace(P23, 1, 1, 1) == eps


def test_coordinate_functional_not_qcharacter(P23):
    bad = Functional(P23, {(1, 0, 0, 0, 0): P23.ctx.one})
    assert not is_qcharacter(bad)


def test_gamma_members_are_qcharacters(cs23):
    rng = random.Random(17)
    for kind, lab, f in cs23.entries:
        assert is_qcharacter(f, spot_checks=2, rng=rng), (kind, lab)


def test_trace_additivity(P23, cs23):
    from qpm.reps import direct_sum, cached_irreducible
    a = cached_irreducible(P23, 1, 2, 1)
    b = cached_irreducible(P23, -1, 1, 3)
    lhs = trace_functional(direct_sum(a, b))
    rhs = trace_functional(a) + trace_functional(b)
    assert lhs == rhs


def test_brute_force_space(P12, cs12):
    basis = qcharacter_space(P12)
    assert len(basis) == 5
    from qpm.linalg import SpanSolver
    bs = SpanSolver([b.values for b in basis], P12.ctx)
    for _, _, f in cs12.entries:
        assert bs.contains(f.values)
    for b in basis:
        assert cs12.solver.contains(b.values)


def test_pseudotrace_constraints(P23):
    c = P23.ctx.one
    bad = PseudotraceSpec((1, 1), {("alpha", "up", "u"): c})  # missing partner
    with pytest.raises(ValueError):
        sigma_endomorphism(P23, bad)
    good = PseudotraceSpec((1, 1), {("alpha", "up", "u"): c, ("alpha", "up", "r"): c})
    module, sigma = sigma_endomorphism(P23, good)
    assert module.dim == 4 * 4 * P23.pp


def test_zero_sigma_gives_zero_functional(P23):
    spec = PseudotraceSpec((1, 1), {})
    module, sigma = sigma_endomorphism(P23, spec)
    assert sigma.is_zero()
    gamma = trace_functional(module, sigma)
    assert gamma.is_zero()


def test_alpha_down_gives_trace_combination(P23, cs23):
    # only the diagonal-coefficient sigma: the functional is a combination
    # of irreducible balanced traces
    from qpm.linalg import SpanSolver
    P = P23
    c = P.ctx.one
    spec = PseudotraceSpec((1, 1), {("alpha", "down", b): c for b in "urld"})
    module, sigma = sigma_endomorphism(P, spec)
    gamma = trace_functional(module, sigma)
    traces = [qtrace(P, 1, 1, 1), qtrace(P, -1, 1, 1),
              qtrace(P, -1, 1, 2), qtrace(P, 1, 1, 2)]
    ss = SpanSolver([t.values for t in traces], P.ctx)
    assert ss.contains(gamma.values)
    assert is_qcharacter(gamma)


def test_kac_sets(P23):
    assert P23.set_I1() == [(1, 1)]
    assert set(P23.set_I()) == {(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (0, 3)}
    assert len(P23.set_I_diag(P23.plus)) == 2 and len(P23.set_I_diag(P23.minus)) == 3


@pytest.mark.parametrize("pair", [(1, 1), (1, 4), (2, 3), (3, 2), (2, 5), (3, 4), (4, 7)])
def test_kac_set_sizes(pair):
    p, q = pair
    P = Params(p, q)
    assert 2 * len(P.set_I1()) == (p - 1) * (q - 1)
    assert 2 * len(P.set_I()) == (p + 1) * (q + 1)
    assert len(set(P.set_I())) == len(P.set_I())


def test_convolution_closure(P23, cs23):
    f1 = cs23.entries[2][2]
    f2 = cs23.entries[7][2]
    prod = f1.convolve(f2)
    assert cs23.solver.contains(prod.values)
    assert prod == f2.convolve(f1)


def test_boundary_block_resolution(P12, cs12):
    # at (1,2) only the row-boundary pseudotrace family is present
    kinds = [k for k, _ in cs12.labels()]
    assert kinds.count("nwse") == 1
    assert kinds.count("nesw") == 0
    assert kinds.count("upup") == 0


def test_functional_cancellation_stores_no_zero(P12, cs12):
    f = cs12.entries[1][2]
    g = cs12.entries[2][2]
    fg = f.convolve(g)
    assert (f - f).values == {}
    assert (fg - f.convolve(g)).values == {}
    rest = (fg + f) - fg
    assert rest == f
    assert all(not v.is_zero() for v in rest.values.values())
    assert all(not v.is_zero() for v in fg.values.values())


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2)])
def test_functional_per_label_equals_basis_entry(pair, request):
    # on a fresh pair, q-characters built one by one in reverse reading
    # order equal the entries of the fully built basis, in value and key
    # order
    full = request.getfixturevalue("T%d%d" % pair).characters.entries
    cs = CharacterSpace(Params(*pair))
    assert cs.labels() == [(kind, lab) for kind, lab, _ in full]
    for kind, lab, f in reversed(full):
        assert list(cs.functional(kind, lab).values.items()) == list(f.values.items()), (kind, lab)


def test_solver_is_built_on_first_read_and_guards_independence(monkeypatch):
    built = []

    def counting_solver(*args):
        built.append(args)
        return SpanSolver(*args)

    monkeypatch.setattr(characters, "SpanSolver", counting_solver)
    cs = CharacterSpace(Params(1, 2))
    cs.entries, cs.functionals(), cs.labels()
    assert not built
    assert cs.solver.independent and cs.solver.rank == cs.dimension
    assert len(built) == 1

    # one functional replaced by a copy of another: the first read raises
    cs = CharacterSpace(Params(1, 2))
    first, second = cs.labels()[:2]
    build = cs.functional
    monkeypatch.setattr(cs, "functional", lambda kind, lab: (
        Functional(cs.params, dict(build(*first).values)) if (kind, lab) == second
        else build(kind, lab)))
    with pytest.raises(RuntimeError, match="linearly dependent"):
        cs.solver


def _trace_over_all_words(module, sigma=None):
    """trace_functional with every K-free word multiplied out, the weight
    shifting ones included."""
    P = module.params
    zeta = P.ctx.root_of_unity
    gw = P.p_minus - P.p_plus
    sigma_by_col = {}
    if sigma is not None:
        for (k, i), v in sigma.data.items():
            sigma_by_col.setdefault(i, []).append((k, v))
    values = {}
    for a, b, c, d in product(range(P.p_plus), range(P.p_plus),
                              range(P.p_minus), range(P.p_minus)):
        word = module.act_mono((a, b, c, d, 0))
        if sigma is None:
            pairs = [(zeta(12 * module.kweights[i] * gw) * v, module.kweights[i])
                     for (i, k), v in word.data.items() if i == k]
        else:
            pairs = [(zeta(12 * module.kweights[i] * gw) * v * sv, module.kweights[k])
                     for (i, k), v in word.data.items()
                     for tgt, sv in sigma_by_col.get(i, ()) if tgt == k]
        values.update(sparse_sum(((a, b, c, d, j), coeff * zeta(12 * w * j))
                                 for j in range(P.korder) for coeff, w in pairs))
    return Functional(P, values)


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2), (1, 4)])
def test_trace_functional_equals_the_trace_over_all_words(pair, monkeypatch):
    # every gamma functional, pseudotraces included, in value and key order
    built = []

    def compared(module, sigma=None):
        got = trace_functional(module, sigma)
        want = _trace_over_all_words(module, sigma)
        assert list(got.values.items()) == list(want.values.items())
        built.append(sigma is not None)
        return got

    monkeypatch.setattr(characters, "trace_functional", compared)
    cs = CharacterSpace(Params(*pair))
    cs.functionals()
    assert len(built) == cs.dimension and any(built)


@pytest.mark.parametrize("pair", [(2, 3), (3, 2)])
def test_is_qcharacter_sees_a_value_off_or_on_the_support(pair):
    # a value added at a weight-shifting monomial, outside the support, or
    # one value doubled: each breaks the q-character condition
    P = Params(*pair)
    shifting = (0, 1, 0, 0, 0)
    assert P.weight(shifting)
    for kind, lab, f in CharacterSpace(P).entries:
        assert shifting not in f.values
        assert is_qcharacter(f), (kind, lab)
        off = Functional(P, {**f.values, shifting: P.ctx.one})
        assert not is_qcharacter(off), (kind, lab)
        m, v = next(iter(f.values.items()))
        doubled = Functional(P, {**f.values, m: v * 2})
        assert not is_qcharacter(doubled), (kind, lab)
