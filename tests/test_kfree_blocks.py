"""Products by K-free blocks, and the K-free memos, against per-monomial
oracles.

The oracles here straighten only K-free pairs, through Params.mono_mul on
monomials with K exponent 0, and move every K power with the defining
relations K e_pm K^-1 = q_pm^2 e_pm and K f_pm K^-1 = q_pm^-2 f_pm, written
out below.  The coproduct and antipode oracles multiply the generators'
coproducts and antipodes, also written out.  So a wrong phase or shift in
the blocked kernels, the shifted mono_mul, coproduct_mono or antipode_mono
shows as a mismatch.
"""

import random

import pytest

from qpm.algebra import AlgebraElement, Params, TensorElement
from qpm.cyclotomic import sparse_sum
from qpm.duality import Theory
from qpm.verify import radical_table_holds

from conftest import pbw_slices

PAIRS = [(1, 1), (1, 2), (2, 3), (3, 2), (1, 4)]


@pytest.fixture(scope="module", params=PAIRS, ids=lambda pq: "%d%d" % pq)
def th(request):
    if request.param in ((1, 2), (2, 3)):
        return request.getfixturevalue("T%d%d" % request.param)
    return Theory(Params(*request.param))


# -- oracles --------------------------------------------------------------

def _mono(P, m1, m2):
    """(B1 K^j1)(B2 K^j2) = B1 (K^j1 B2 K^-j1) K^(j1 + j2), with the
    conjugation read off the defining relations."""
    a2, b2, c2, d2, _ = m2
    j1, j2 = m1[4], m2[4]
    phase = (P.plus.q ** (2 * (b2 - a2)) * P.minus.q ** (2 * (d2 - c2))) ** j1
    free = P.mono_mul(m1[:4] + (0,), m2[:4] + (0,))
    return {(a, b, c, d, (j + j1 + j2) % P.korder): v * phase
            for (a, b, c, d, j), v in free.items()}


def _element_product(x, y):
    P = x.params
    return sparse_sum((m, c1 * c2 * c)
                      for m1, c1 in x.coeffs.items()
                      for m2, c2 in y.coeffs.items()
                      for m, c in _mono(P, m1, m2).items())


def _tensor_product(x, y):
    P = x.params
    return sparse_sum(((mL, mR), c1 * c2 * cL * cR)
                      for (a1, a2), c1 in x.coeffs.items()
                      for (b1, b2), c2 in y.coeffs.items()
                      for mL, cL in _mono(P, a1, b1).items()
                      for mR, cR in _mono(P, a2, b2).items())


def _k(P, j):
    return (0, 0, 0, 0, j % P.korder)


def _generator_coproducts(P):
    """Delta of f_+, e_+, f_-, e_-, K in the algebra's convention."""
    one, p, q = P.ctx.one, P.p_plus, P.p_minus
    unit = _k(P, 0)
    return {
        "fp": {((1, 0, 0, 0, 0), _k(P, -q)): one, (unit, (1, 0, 0, 0, 0)): one},
        "ep": {((0, 1, 0, 0, 0), unit): one, (_k(P, q), (0, 1, 0, 0, 0)): one},
        "fm": {((0, 0, 1, 0, 0), unit): one, (_k(P, -p), (0, 0, 1, 0, 0)): one},
        "em": {((0, 0, 0, 1, 0), _k(P, p)): one, (unit, (0, 0, 0, 1, 0)): one},
        "K": {(_k(P, 1), _k(P, 1)): one},
    }


def _generator_antipodes(P):
    """S of K and of the live generators among f_+, e_+, f_-, e_-:
    K^-1, -f_+ K^p-, -K^-p- e_+, -K^p+ f_- and -e_- K^-p+."""
    one, p, q = P.ctx.one, P.p_plus, P.p_minus

    def minus_k_times(j, gen):
        return AlgebraElement(P, _element_product(AlgebraElement(P, {_k(P, j): -one}),
                                                  AlgebraElement(P, {gen: one})))

    out = {"K": AlgebraElement(P, {_k(P, -1): one})}
    if p > 1:
        out["fp"] = AlgebraElement(P, {(1, 0, 0, 0, q % P.korder): -one})
        out["ep"] = minus_k_times(-q, (0, 1, 0, 0, 0))
    if q > 1:
        out["fm"] = minus_k_times(p, (0, 0, 1, 0, 0))
        out["em"] = AlgebraElement(P, {(0, 0, 0, 1, -p % P.korder): -one})
    return out


# -- operands -------------------------------------------------------------

def _random_element(P, rng, n_free, n_k):
    """n_free random K-free parts, each with n_k random K exponents."""
    free = [m for m in P.monomials() if not m[4]]
    coeffs = {}
    for m in rng.sample(free, min(n_free, len(free))):
        for j in rng.sample(range(P.korder), max(1, min(n_k, P.korder))):
            coeffs[m[:4] + (j,)] = P.zeta(rng.randrange(P.N)) * rng.choice((-2, 1, 3))
    return AlgebraElement(P, coeffs)


def _random_tensor(P, rng, n_blocks, n_k):
    """n_blocks random pairs of K-free parts, each with n_k random pairs of
    K exponents."""
    free = [m for m in P.monomials() if not m[4]]
    coeffs = {}
    for _ in range(n_blocks):
        b1, b2 = rng.choice(free), rng.choice(free)
        for _ in range(n_k):
            j1, j2 = rng.randrange(P.korder), rng.randrange(P.korder)
            coeffs[b1[:4] + (j1,), b2[:4] + (j2,)] = P.zeta(rng.randrange(P.N))
    return TensorElement(P, coeffs)


def _central_operands(th):
    """v, v^-1, v* and the first and last idempotents."""
    rib = th.ribbon
    blocks = th.params.set_I()
    return [rib.v, th.central_inverse(rib.v), rib.v_unipotent,
            *(th.center.elements["e", blk] for blk in (blocks[0], blocks[-1]))]


# -- element and tensor products -------------------------------------------

def test_mono_mul_with_k_exponents(th):
    """Every K-free pair, at random K exponents on both factors."""
    P = th.params
    rng = random.Random(8 * P.pp)
    free = [m for m in P.monomials() if not m[4]]
    for b1 in free:
        for b2 in free:
            m1 = b1[:4] + (rng.randrange(P.korder),)
            m2 = b2[:4] + (rng.randrange(P.korder),)
            assert P.mono_mul(m1, m2) == _mono(P, m1, m2), (m1, m2)


def test_random_element_products(th):
    P = th.params
    rng = random.Random(8 * P.pp + 1)
    for n_free, n_k in ((1, 1), (3, 2), (6, 1), (2, P.korder), (4, 5)):
        for _ in range(4):
            x = _random_element(P, rng, n_free, n_k)
            y = _random_element(P, rng, 5 - n_free % 4, P.korder - n_k + 1)
            assert (x * y).coeffs == _element_product(x, y)
            assert (y * x).coeffs == _element_product(y, x)


def test_central_element_products(th):
    P = th.params
    rng = random.Random(8 * P.pp + 2)
    central = _central_operands(th)
    dense = _random_element(P, rng, 3, P.korder)
    for z in central:
        for w in (central[1], dense):
            assert (z * w).coeffs == _element_product(z, w)
            assert (w * z).coeffs == _element_product(w, z)


def test_random_tensor_products(th):
    P = th.params
    rng = random.Random(8 * P.pp + 3)
    for n_blocks, n_k in ((1, 1), (2, 5), (4, 2), (3, P.korder)):
        x, y = _random_tensor(P, rng, n_blocks, n_k), _random_tensor(P, rng, 3, 3)
        assert (x * y).coeffs == _tensor_product(x, y)
        assert (y * x).coeffs == _tensor_product(y, x)


def test_m_matrix_against_generator_coproducts(th):
    """M against Delta(e_+), with K on the first leg, and Delta(e_-), with
    K on the second."""
    P = th.params
    M = TensorElement(P, {(m1, m2): c
                          for m1, row in pbw_slices(P, th.m_matrix.weight_slices).items()
                          for m2, c in row.items()})
    deltas = _generator_coproducts(P)
    for name in ("ep", "em"):
        if P.gen(name).is_zero():
            continue
        dg = TensorElement(P, deltas[name])
        assert (M * dg).coeffs == _tensor_product(M, dg), name
        assert (dg * M).coeffs == _tensor_product(dg, M), name


# -- coproduct and antipode of every monomial ------------------------------

def test_coproduct_of_every_monomial(th):
    P = th.params
    deltas = {n: TensorElement(P, d) for n, d in _generator_coproducts(P).items()}
    unit = TensorElement(P, {(_k(P, 0), _k(P, 0)): P.ctx.one})
    for m in P.monomials():
        if m[4]:
            continue
        t = unit
        for name, power in zip(("fp", "ep", "fm", "em"), m[:4]):
            for _ in range(power):
                t = TensorElement(P, _tensor_product(t, deltas[name]))
        for j in range(P.korder):
            assert P.coproduct_mono(m[:4] + (j,)).coeffs == t.coeffs, (m, j)
            t = TensorElement(P, _tensor_product(t, deltas["K"]))


def test_antipode_of_every_monomial(th):
    P = th.params
    s = _generator_antipodes(P)
    for m in P.monomials():
        if m[4]:
            continue
        # S(fp^a ep^b fm^c em^d) = S(em)^d S(fm)^c S(ep)^b S(fp)^a
        out = P.one
        for name, power in zip(("em", "fm", "ep", "fp"), reversed(m[:4])):
            for _ in range(power):
                out = AlgebraElement(P, _element_product(out, s[name]))
        for j in range(P.korder):
            assert P.antipode_mono(m[:4] + (j,)).coeffs == out.coeffs, (m, j)
            out = AlgebraElement(P, _element_product(s["K"], out))


# -- memo bounds ------------------------------------------------------------

def test_memos_hold_only_k_free_keys(T23):
    """After the ribbon, intertwining and radical-table checks the memos
    hold K-free keys only: at most (p+ p-)^4 products and p+^2 p-^2
    coproducts and antipodes."""
    P = T23.params
    rib = T23.ribbon
    mm = T23.m_matrix
    assert not mm.ribbon_identity_failures(rib.v, T23.central_inverse(rib.v))
    assert not mm.intertwining_failures()
    assert radical_table_holds(T23.center)
    assert 0 < len(P._mono_mul_cache) <= P.pp ** 4
    assert all(not m1[4] and not m2[4] for m1, m2 in P._mono_mul_cache)
    for memo in (P._coproduct_cache, P._antipode_cache):
        assert 0 < len(memo) <= P.pp ** 2
        assert all(not m[4] for m in memo)
