"""Hopf structure: straightening, coproduct, antipode, counit, adjoint."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from qpm.algebra import AlgebraElement, Params, TensorElement
from conftest import cyclo_from_pairs


@pytest.fixture(scope="module")
def gens(P23):
    P = P23
    return {n: P.gen(n) for n in ("ep", "fp", "em", "fm", "K")}


def test_context_validation():
    with pytest.raises(ValueError):
        Params(2, 4)
    with pytest.raises(ValueError):
        Params(0, 1)


def test_k_commutation(P23, gens):
    P = P23
    K = gens["K"]
    assert K * gens["ep"] == gens["ep"] * K * P.plus.q ** 2
    assert K * gens["fp"] == gens["fp"] * K * P.plus.q ** (-2)
    assert K * gens["em"] == gens["em"] * K * P.minus.q ** 2
    assert K * gens["fm"] == gens["fm"] * K * P.minus.q ** (-2)


def test_sector_commutators(P23, gens):
    P = P23
    Qp = P.plus.q ** P.p_minus
    lhs = gens["ep"] * gens["fp"] - gens["fp"] * gens["ep"]
    rhs = (P.gen("K", P.p_minus) - P.gen("K", -P.p_minus)) * (Qp - Qp.inv()).inv()
    assert lhs == rhs
    Qm = P.minus.q ** P.p_plus
    lhs = gens["em"] * gens["fm"] - gens["fm"] * gens["em"]
    rhs = (P.gen("K", P.p_plus) - P.gen("K", -P.p_plus)) * (Qm - Qm.inv()).inv()
    assert lhs == rhs
    for a in ("ep", "fp"):
        for b in ("em", "fm"):
            assert (gens[a] * gens[b] - gens[b] * gens[a]).is_zero()


def test_nilpotency_and_k_order(P23, gens):
    P = P23
    assert (gens["ep"] ** P.p_plus).is_zero()
    assert (gens["fp"] ** P.p_plus).is_zero()
    assert (gens["em"] ** P.p_minus).is_zero()
    assert (gens["fm"] ** P.p_minus).is_zero()
    assert P.gen("K", P.korder) == P.one


def test_pbw_count(P23):
    assert len(list(P23.monomials())) == P23.dim == 2 * 2 ** 3 * 3 ** 3


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
                 st.integers(0, 2), st.integers(0, 11)),
       st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
                 st.integers(0, 2), st.integers(0, 11)),
       st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 2),
                 st.integers(0, 2), st.integers(0, 11)))
def test_associativity(m1, m2, m3):
    P = _P23()
    x = AlgebraElement(P, {m1: P.q})
    y = AlgebraElement(P, {m2: P.ctx.one})
    z = AlgebraElement(P, {m3: P.minus.q})
    assert (x * y) * z == x * (y * z)


_P23_CACHE = {}


def _P23():
    if "P" not in _P23_CACHE:
        _P23_CACHE["P"] = Params(2, 3)
    return _P23_CACHE["P"]


def test_coproduct_generators(P23, gens):
    P = P23
    one = P.ctx.one
    assert gens["K"].coproduct() == TensorElement(
        P, {((0, 0, 0, 0, 1), (0, 0, 0, 0, 1)): one})
    assert gens["ep"].coproduct() == TensorElement(P, {
        ((0, 1, 0, 0, 0), (0, 0, 0, 0, 0)): one,
        ((0, 0, 0, 0, P.p_minus), (0, 1, 0, 0, 0)): one})
    assert gens["fm"].coproduct() == TensorElement(P, {
        ((0, 0, 1, 0, 0), (0, 0, 0, 0, 0)): one,
        ((0, 0, 0, 0, (-P.p_plus) % P.korder), (0, 0, 1, 0, 0)): one})
    assert gens["fp"].coproduct() == TensorElement(P, {
        ((1, 0, 0, 0, 0), (0, 0, 0, 0, (-P.p_minus) % P.korder)): one,
        ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0)): one})
    assert gens["em"].coproduct() == TensorElement(P, {
        ((0, 0, 0, 1, 0), (0, 0, 0, 0, P.p_plus)): one,
        ((0, 0, 0, 0, 0), (0, 0, 0, 1, 0)): one})


def test_antipode_generators(P23, gens):
    P = P23
    assert gens["ep"].antipode() == P.gen("K", -P.p_minus) * gens["ep"] * (-1)
    assert gens["fp"].antipode() == gens["fp"] * P.gen("K", P.p_minus) * (-1)
    assert gens["fm"].antipode() == P.gen("K", P.p_plus) * gens["fm"] * (-1)
    assert gens["em"].antipode() == gens["em"] * P.gen("K", -P.p_plus) * (-1)
    assert P.one.antipode() == P.one
    assert gens["K"].counit() == P.ctx.one
    assert gens["ep"].counit().is_zero()


def test_hopf_axioms_random(P23):
    P = P23
    rng = random.Random(11)
    monos = sorted(P.monomials())
    for _ in range(12):
        x = (AlgebraElement(P, {rng.choice(monos): P.ctx.one})
             + AlgebraElement(P, {rng.choice(monos): P.q}))
        t = x.coproduct()
        eps1 = P.scalar(x.counit())
        lhs = t.apply_maps(lambda m: P.antipode_mono(m),
                           lambda m: AlgebraElement(P, {m: P.ctx.one})).multiply_legs()
        rhs = t.apply_maps(lambda m: AlgebraElement(P, {m: P.ctx.one}),
                           lambda m: P.antipode_mono(m)).multiply_legs()
        assert lhs == eps1 == rhs
        # counit axiom (eps (x) id) Delta = id
        acc = P.zero
        for (m1, m2), c in t.coeffs.items():
            e = AlgebraElement(P, {m1: P.ctx.one}).counit()
            if not e.is_zero():
                acc = acc + AlgebraElement(P, {m2: c * e})
        assert acc == x


def test_square_antipode_balancing(P23, gens):
    P = P23
    g = P.gen("K", P.p_plus - P.p_minus)
    ginv = P.gen("K", P.p_minus - P.p_plus)
    for x in gens.values():
        assert x.antipode().antipode() == g * x * ginv


def test_coproduct_algebra_map(P23):
    P = P23
    rng = random.Random(2)
    monos = sorted(P.monomials())
    for _ in range(6):
        x = AlgebraElement(P, {rng.choice(monos): P.q})
        y = AlgebraElement(P, {rng.choice(monos): P.ctx.one + P.plus.q})
        assert (x * y).coproduct() == x.coproduct() * y.coproduct()


def test_tensor_multiply(P23, gens):
    P = P23
    one_one = P.one.coproduct()
    X = gens["ep"].coproduct()
    assert one_one * X == X
    KK = gens["K"].coproduct()
    Kinv = P.gen("K", -1).coproduct()
    assert KK * Kinv == one_one


def test_adjoint(P23, gens):
    P = P23

    def Ad(a, x):
        """Ad_a(x) = sum a' x S(a'')."""
        return P.linear_combination(
            (AlgebraElement(P, {m1: c}) * x * P.antipode_mono(m2), P.ctx.one)
            for (m1, m2), c in a.coproduct().coeffs.items())

    rng = random.Random(3)
    monos = sorted(P.monomials())
    x = AlgebraElement(P, {rng.choice(monos): P.ctx.one})
    K = gens["K"]
    assert Ad(K, x) == K * x * P.gen("K", -1)
    a = gens["ep"] * gens["fm"] + K * P.q
    assert Ad(a, P.one) == P.scalar(a.counit())
    # Ad_{e+}(f+) is consistent with the commutation relation:
    # e+ f+ 1 + K^{p-} f+ S(e+) with S(e+) = -K^{-p-} e+
    lhs = Ad(gens["ep"], gens["fp"])
    expect = (gens["ep"] * gens["fp"]
              - P.gen("K", P.p_minus) * gens["fp"] * P.gen("K", -P.p_minus) * gens["ep"])
    assert lhs == expect


def test_degenerate_sector(P12):
    P = P12
    assert P.gen("ep").is_zero()
    assert P.gen("fp").is_zero()
    assert not P.gen("em").is_zero()
    assert len(list(P.monomials())) == P.dim == 16


def test_element_serialization(P23):
    P = P23
    rng = random.Random(8)
    monos = sorted(P.monomials())
    x = (AlgebraElement(P, {rng.choice(monos): P.q})
         + AlgebraElement(P, {rng.choice(monos): P.ctx.integer(3)}))
    recs = x.to_records()
    assert P.element({tuple(rec["mono"]): cyclo_from_pairs(P.ctx, rec["coeff"]["coeffs"])
                      for rec in recs}) == x


def _stores_no_zero(coeffs):
    return all(not c.is_zero() for c in coeffs.values())


def test_exact_cancellation_stores_no_zero(P23, gens):
    P = P23
    x = gens["ep"] * gens["fp"] + gens["K"] * P.q + gens["fm"]
    y = gens["em"] * gens["fm"] - gens["K"] * P.plus.q + P.one
    xy = x * y
    assert (x - x).coeffs == {}
    assert (xy - x * y).coeffs == {}
    # partial cancellation keeps only the surviving monomials
    rest = (xy + x) - xy
    assert rest == x and _stores_no_zero(rest.coeffs)
    assert _stores_no_zero(xy.coeffs)
    dx, dy = x.coproduct(), y.coproduct()
    dxy = dx * dy
    assert (dx - dx).coeffs == {}
    assert (dxy - dx * dy).coeffs == {}
    assert dxy == xy.coproduct()
    for t in (dx, dxy, (dxy + dx) - dxy):
        assert _stores_no_zero(t.coeffs)
    assert _stores_no_zero(dxy.multiply_legs().coeffs)
    assert (x * 0).coeffs == {} and (dx * 0).coeffs == {}


@pytest.mark.parametrize("pair, n_pairs", [((1, 2), None), ((2, 3), 300), ((3, 2), 300)],
                         ids=["1-2", "2-3", "3-2"])
def test_mono_mul_against_projective_modules(pair, n_pairs):
    # The module matrices are built from generator matrices alone, without
    # mono_mul, so act(m1 m2) = act(m1) act(m2) on every projective module
    # is an independent oracle for PBW straightening.
    from qpm.reps import projective

    P = Params(*pair)
    monos = list(P.monomials())
    if n_pairs is None:
        pairs = [(m1, m2) for m1 in monos for m2 in monos]
    else:
        rng = random.Random(20060506)
        pairs = [(rng.choice(monos), rng.choice(monos)) for _ in range(n_pairs)]
    modules = [projective(P, alpha, r, s) for alpha in (1, -1)
               for r in range(1, P.p_plus + 1) for s in range(1, P.p_minus + 1)]
    for module in modules:
        for m1, m2 in pairs:
            lhs = module.act(AlgebraElement(P, P.mono_mul(m1, m2)))
            rhs = module.act_mono(m1) * module.act_mono(m2)
            assert (lhs - rhs).is_zero(), (module.label, m1, m2)


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (2, 5)], ids=["1-2", "2-3", "2-5"])
def test_sector_swaps_with_the_pair(pair):
    # Exchanging p+ and p- exchanges the sectors: the plus sector of (p, q)
    # is the minus sector of (q, p), constants and brackets alike.  The
    # brackets are checked against the Laurent polynomials evaluated at
    # zeta^zQ, not through the sector's own cache.
    from qpm.cyclotomic import q_binomial_poly, q_factorial_poly, q_int_poly

    p, q = pair
    P, Pswap = Params(p, q), Params(q, p)
    for sec, twin in ((P.plus, Pswap.minus), (P.minus, Pswap.plus)):
        assert (sec.p, sec.p_other, sec.zQ, sec.zq) == (twin.p, twin.p_other, twin.zQ, twin.zq)
        Q = P.zeta(sec.zQ)
        for n in range(2 * sec.p + 1):
            assert sec.qint(n) == twin.qint(n) == q_int_poly(n).eval_cyclo(Q)
            assert sec.qfact(n) == twin.qfact(n) == q_factorial_poly(n).eval_cyclo(Q)
            for m in range(n + 1):
                assert sec.qbin(n, m) == twin.qbin(n, m) == q_binomial_poly(n, m).eval_cyclo(Q)
        for label in [(r, s) for r in range(P.p_plus + 1) for s in range(P.p_minus + 1)]:
            a, b = sec.lab(*label)
            assert sec.lab(a, b) == label
            assert twin.lab(a, b) == label[::-1]
    assert P.plus.lab(1, 2) == (1, 2) and P.minus.lab(1, 2) == (2, 1)
    assert [sec.pseudo for sec in P.sectors] == ["nesw", "nwse"]
