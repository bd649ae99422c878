"""Module constructions: irreducible, Verma, projective, tensor classes."""

import random
from collections import Counter
from itertools import chain

import pytest

from qpm.algebra import AlgebraElement, Params
from qpm.cyclotomic import sparse_sum
from qpm.linalg import SparseMat
from qpm.characters import block_module
from qpm.reps import (GrothendieckIndex, ModuleRep, cached_irreducible, cached_projective,
                      direct_sum, glue, irreducible, irreducible_labels, projective,
                      projective_deck, tensor_product, verma)
from conftest import mat_trace


@pytest.fixture(scope="module")
def gi23(T23):
    return T23.gr_index


def test_irreducible_dimensions_and_relations(P23, gi23):
    for lab in irreducible_labels(P23):
        m = gi23.irreducibles[lab]
        assert m.dim == lab[1] * lab[2]
        assert not m.check_relations()


def test_modules_are_shared(P23, gi23):
    for lab in irreducible_labels(P23):
        assert gi23.irreducibles[lab] is cached_irreducible(P23, *lab)
    for alpha in (1, -1):
        # the Steinberg-type cover is its irreducible, label included
        steinberg = cached_projective(P23, alpha, 2, 3)
        assert steinberg is cached_irreducible(P23, alpha, 2, 3)
        assert steinberg.label.startswith("Irr(")
    _, ranges = block_module(P23, 1, 1)
    covers = {"u": (1, 1, 1), "r": (-1, 1, 1), "l": (-1, 1, 2), "d": (1, 1, 2)}
    assert all(ranges[bullet][2] is cached_projective(P23, *lab)
               for bullet, lab in covers.items())


def test_trivial_module(P23, gi23):
    triv = gi23.irreducibles[(1, 1, 1)]
    assert triv.dim == 1
    assert all(m.is_zero() for m in triv.mats.values())
    assert triv.kweights == [0]


def test_highest_weight_eigenvalue(P23):
    P = P23
    m = irreducible(P, -1, 2, 3)
    # K eigenvalue on the highest-weight vector is -q_+^{r-1} q_-^{s-1}
    top = m.index[(0, 0)]
    val = m.kmat(1).get(top, top, P.ctx.zero)
    assert val == P.plus.q * (P.minus.q ** 2) * (-1)
    assert m.dim == 6


def test_out_of_range_labels(P23):
    with pytest.raises(ValueError):
        irreducible(P23, 1, 3, 1)
    with pytest.raises(ValueError):
        verma(P23, 1, 1, 4)
    with pytest.raises(ValueError):
        projective(P23, 0, 1, 1)


def test_verma_structure(P23, gi23):
    P = P23
    for alpha in (1, -1):
        st = verma(P, alpha, P.p_plus, P.p_minus)
        assert gi23.decompose_dict(st) == {(alpha, P.p_plus, P.p_minus): 1}
        for r in range(1, P.p_plus):
            v = verma(P, alpha, r, P.p_minus)
            assert gi23.decompose_dict(v) == {
                (alpha, r, P.p_minus): 1, (-alpha, P.p_plus - r, P.p_minus): 1}
        v = verma(P, alpha, 1, 1)
        assert not v.check_relations()
        assert v.dim == P.pp


def test_projective_dims(P23):
    P = P23
    assert projective(P, 1, P.p_plus, P.p_minus).dim == P.pp
    assert projective(P, 1, 1, P.p_minus).dim == 2 * P.pp
    assert projective(P, -1, P.p_plus, 1).dim == 2 * P.pp
    assert projective(P, 1, 1, 1).dim == 4 * P.pp


def _expected_cover_class(P, alpha, r, s):
    """Composition multiplicities of the projective cover of X^alpha_{r,s}:
    the irreducible at (p+, p-), two of each of the two factors on the
    boundary, four of each of the four factors on the interior."""
    if (r, s) == (P.p_plus, P.p_minus):
        return {(alpha, r, s): 1}
    if s == P.p_minus:
        return {(alpha, r, s): 2, (-alpha, P.p_plus - r, s): 2}
    if r == P.p_plus:
        return {(alpha, r, s): 2, (-alpha, r, P.p_minus - s): 2}
    return {(alpha, r, s): 4, (-alpha, r, P.p_minus - s): 4,
            (-alpha, P.p_plus - r, s): 4, (alpha, P.p_plus - r, P.p_minus - s): 4}


@pytest.mark.parametrize("pair", [(3, 4), (5, 3)], ids=lambda pair: "%d-%d" % pair)
def test_every_cover_is_a_module_with_its_composition_factors(pair):
    # at odd p+ with p- >= 3 the interior covers once signed e- inside their
    # side decks with the wrong alpha and broke [e-, f-]
    P = Params(*pair)
    gi = GrothendieckIndex(P)
    for lab in irreducible_labels(P):
        m = projective(P, *lab)
        assert not m.check_relations(), (lab, m.check_relations())
        assert gi.decompose_dict(m) == _expected_cover_class(P, *lab), lab


_SECTOR_SWAP = {"ep": "em", "fp": "fm", "em": "ep", "fm": "fp"}


def _swap_label(lab):
    """A cover basis label with the sectors exchanged: the string indices
    (n, n') swap, and so do the (outer, inner) suits of an interior label."""
    return lab[:-2][::-1] + lab[-2:][::-1]


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 4), (3, 5)],
                         ids=lambda pair: "%d-%d" % pair)
def test_covers_commute_with_the_sector_swap(pair):
    """Exchanging the sectors maps the cover of X^alpha_{r,s} at (p, q)
    exactly onto the cover of X^alpha_{s,r} at (q, p): e+ <-> e-,
    f+ <-> f- and the label swap; `projective` glues the interior in the
    minus sector only, so this is not the same code path twice."""
    p, q = pair
    P, Q = Params(p, q), Params(q, p)
    for alpha, r, s in irreducible_labels(P):
        a, b = projective(P, alpha, r, s), projective(Q, alpha, s, r)
        assert a.dim == b.dim
        perm = [b.index[_swap_label(lab)] for lab in a.basis]
        assert sorted(perm) == list(range(b.dim))
        assert [b.kweights[j] for j in perm] == a.kweights
        for name, swapped in _SECTOR_SWAP.items():
            moved = {(perm[i], perm[j]): v for (i, j), v in a.mats[name].data.items()}
            assert moved == b.mats[swapped].data, (alpha, r, s, name)


def test_glue_lays_out_four_suits_with_unit_arrows(P23):
    """The plus deck over X^+_{1,3} at (2,3): copies u, l, r, d of X^+_{1,3},
    X^-_{1,3}, X^-_{1,3}, X^+_{1,3}, each acted on by its own matrices, and
    e+, f+ arrows of coefficient 1 between copies only."""
    P = P23
    top, side = irreducible(P, 1, 1, 3), irreducible(P, -1, 1, 3)
    suits = (("u", top), ("l", side), ("r", side), ("d", top))
    m = glue(P.plus, top, side, "deck")
    assert m.basis == [(suit,) + lab for suit, mod in suits for lab in mod.basis]
    assert m.kweights == top.kweights + side.kweights * 2 + top.kweights

    def arrows(name):
        return {(m.basis[i], m.basis[j]): v for (i, j), v in m.mats[name].data.items()}

    # one-vector plus strings: every vector is both index 0 and the top
    one = P.ctx.one
    assert arrows("fp") == {**{(("r", 0, n), ("u", 0, n)): one for n in range(3)},
                            **{(("d", 0, n), ("l", 0, n)): one for n in range(3)}}
    assert arrows("ep") == {**{(("l", 0, n), ("u", 0, n)): one for n in range(3)},
                            **{(("d", 0, n), ("r", 0, n)): one for n in range(3)}}
    for name in ("em", "fm"):
        assert arrows(name) == {((suit,) + mod.basis[i], (suit,) + mod.basis[j]): v
                                for suit, mod in suits
                                for (i, j), v in mod.mats[name].data.items()}
    assert not m.check_relations()
    assert m.mats == projective_deck(P, 1, P.plus, 1, 3).mats


def test_projective_filtration_class(P23, gi23):
    d = gi23.decompose_dict(cached_projective(P23, 1, 1, 1))
    assert d == {(1, 1, 1): 4, (-1, 1, 2): 4, (-1, 1, 1): 4, (1, 1, 2): 4}


def test_act_is_homomorphism(P23):
    P = P23
    rng = random.Random(4)
    monos = sorted(P.monomials())
    m = cached_projective(P, 1, 1, 2)
    for _ in range(20):
        x = AlgebraElement(P, {rng.choice(monos): P.q})
        y = AlgebraElement(P, {rng.choice(monos): P.ctx.one})
        assert (m.act(x * y) - m.act(x) * m.act(y)).is_zero()
    assert (m.act(P.one) - SparseMat.identity(m.dim, P.ctx)).is_zero()


def test_casimir_scalars(P23, gi23):
    P = P23
    cp, cm = P.casimirs()
    m = gi23.irreducibles[(-1, 2, 2)]
    acp = m.act(cp)
    want = SparseMat.identity(m.dim, P.ctx).scale(P.plus.casimir_eigenvalue(-1, 2, 2))
    assert (acp - want).is_zero()


def test_tensor_products(P23, gi23):
    P = P23
    x21 = gi23.irreducibles[(1, 2, 1)]
    t = tensor_product(x21, x21)
    assert t.dim == 4
    assert not t.check_relations()
    assert gi23.decompose_dict(t) == {(1, 1, 1): 2, (-1, 1, 1): 2}
    x12 = gi23.irreducibles[(1, 1, 2)]
    assert gi23.decompose_dict(tensor_product(x12, x12)) == {
        (1, 1, 1): 1, (1, 1, 3): 1}
    triv = gi23.irreducibles[(1, 1, 1)]
    assert gi23.decompose_dict(tensor_product(triv, x21)) == {(1, 2, 1): 1}


def test_k_character_properties(P23, gi23):
    """The weight-graded fingerprint is additive over direct sums, and on
    irreducibles the closed-form path agrees with the matrix path."""
    P = P23
    fp = gi23._fingerprint_sparse
    triv = gi23.irreducibles[(1, 1, 1)]
    cp = P.plus.casimir_eigenvalue(1, 1, 1)
    cm = P.minus.casimir_eigenvalue(1, 1, 1)
    assert fp(triv) == sparse_sum(((u, v, 0), cp ** u * cm ** v)
                                  for u in range(P.p_plus + 1)
                                  for v in range(P.p_minus + 1))
    a = gi23.irreducibles[(1, 2, 1)]
    b = gi23.irreducibles[(-1, 1, 2)]
    fa, fb = fp(a), fp(b)
    assert fp(direct_sum(a, b)) == sparse_sum(chain(fa.items(), fb.items()))
    for lab in irreducible_labels(P):
        m = gi23.irreducibles[lab]
        assert fp(m) == fp(m, lab)
    assert gi23.solver.independent


def test_bare_k_characters_dependent_at_1_2(P12):
    """Weight multisets alone do not separate irreducibles: the two
    Steinberg-type modules share one at (1,2); the Casimir twists do."""
    a = irreducible(P12, 1, 1, 2)
    b = irreducible(P12, -1, 1, 2)
    assert Counter(a.kweights) == Counter(b.kweights)
    gi = GrothendieckIndex(P12)
    fa, fb = gi._fingerprint_sparse(a), gi._fingerprint_sparse(b)
    assert {k: v for k, v in fa.items() if k[:2] == (0, 0)} == \
        {k: v for k, v in fb.items() if k[:2] == (0, 0)}
    assert fa != fb


def _fourier_oracle_modules(P):
    x = irreducible(P, 1, P.p_plus, P.p_minus)
    y = irreducible(P, -1, 1, P.p_minus)
    return [tensor_product(x, y), verma(P, 1, 1, 1), projective(P, 1, 1, 1)]


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2), (1, 4)])
def test_fingerprint_is_fourier_dual_of_k_twisted_traces(pair):
    """Tr(C+^u C-^v K^j), from the full matrix products, equals
    sum_w G(u, v, w) zeta^(12 w j) for the weight-graded fingerprint G."""
    P = Params(*pair)
    gi = GrothendieckIndex(P)
    cas = P.casimirs()
    zeta = P.ctx.root_of_unity
    for m in _fourier_oracle_modules(P):
        assert not m.check_relations()
        g = gi._fingerprint_sparse(m)
        cp, cm = m.act(cas[0]), m.act(cas[1])
        ident = SparseMat.identity(m.dim, P.ctx)
        cp_u = ident
        for u in range(P.p_plus + 1):
            cpm = cp_u
            for v in range(P.p_minus + 1):
                for j in range(P.korder):
                    lhs = mat_trace(cpm * m.act(P.gen("K", j)), P.ctx)
                    rhs = P.ctx.zero
                    for (gu, gv, w), val in g.items():
                        if (gu, gv) == (u, v):
                            rhs = rhs + val * zeta(12 * w * j)
                    assert lhs == rhs, (m.label, u, v, j)
                cpm = cpm * cm
            cp_u = cp_u * cp


@pytest.mark.parametrize("pair", [(1, 2), (2, 3)])
def test_shifted_k_weight_leaves_the_irreducible_span(pair):
    P = Params(*pair)
    gi = GrothendieckIndex(P)
    labels = irreducible_labels(P)
    t = tensor_product(gi.irreducibles[labels[-1]], gi.irreducibles[labels[1]])
    assert sum(gi.decompose(t)) > 0
    for i in range(t.dim):
        kw = list(t.kweights)
        kw[i] = (kw[i] + 1) % P.korder
        with pytest.raises(ValueError):
            gi.decompose(ModuleRep(P, "shifted", t.basis, t.mats, kw))


def test_irreducibility_witness(P23, gi23):
    m = gi23.irreducibles[(1, 2, 2)]
    for i in range(m.dim):
        assert m.submodule_generated([{i: P23.ctx.one}]) == m.dim


def test_degenerate_products(T12):
    P = T12.params
    gi = T12.gr_index
    for lab in irreducible_labels(P):
        assert not gi.irreducibles[lab].check_relations()
    p = projective(P, 1, 1, 1)
    assert p.dim == 4 and not p.check_relations()
    assert gi.decompose_dict(p) == {(1, 1, 1): 2, (-1, 1, 1): 2}


def test_sparse_matrix_cancellation_stores_no_zero(P23, gi23):
    a = gi23.irreducibles[(1, 2, 3)].mats["fm"]
    b = gi23.irreducibles[(1, 2, 3)].mats["em"]
    ab = a * b
    assert (a - a).data == {}
    assert (ab - a * b).data == {}
    rest = (ab + a) - ab
    assert rest == a
    for m in (ab, rest, ab + b):
        assert all(not v.is_zero() for v in m.data.values())
    vec = {i: P23.ctx.one for i in range(ab.ncols)}
    assert all(not v.is_zero() for v in ab.apply(vec).values())
