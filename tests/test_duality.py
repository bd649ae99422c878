"""Integral data, Radford map, M-matrix, Drinfeld images, ribbon element."""

import copy
import dataclasses
import random
from fractions import Fraction
from itertools import product

import pytest

from qpm.algebra import AlgebraElement, Params, TensorElement
from qpm.center import is_central
from qpm.cyclotomic import sparse_sum
from qpm.duality import (MMatrix, Theory, canonical_element, cc_poly_coeffs,
                         chi_sector, conformal_weight_exponent,
                         delta_cointegral_closed_form,
                         drinfeld_irreducible_closed_form, radford,
                         radford_inverse, ribbon_factor_closed_form,
                         theta_bracket, verify_integral_data)
from qpm.characters import Functional, qtrace
from qpm.cli import main
from qpm.linalg import SparseMat, SpanSolver
from qpm.reps import cached_irreducible, irreducible_labels

from conftest import pbw_slices


def test_integral_invariants(T12, T23):
    for th in (T12, T23):
        data = th.integral  # construction verifies all invariants
        P = th.params
        assert data.integral(data.cointegral) == P.ctx.one
        ep = P.gen("ep")
        if not ep.is_zero():
            assert (ep * data.cointegral).is_zero()
        assert data.balancing * data.balancing == data.comodulus


def _integral_check_per_monomial(data):
    """The integral check with one coproduct per PBW monomial B K^j, each
    contracted on both legs in full."""
    P = data.params
    errs = []
    lam, Lam = data.integral, data.cointegral
    if lam(Lam) != P.ctx.one:
        errs.append("lambda(Lambda) != 1")
    for name in ("ep", "fp", "em", "fm", "K"):
        g = P.gen(name)
        if g.is_zero():
            continue
        eps = g.counit()
        if not (g * Lam - Lam * eps).is_zero() or not (Lam * g - Lam * eps).is_zero():
            errs.append(f"cointegral invariance fails for {name}")
    for mono in P.monomials():
        t = P.coproduct_mono(mono)
        left = t.apply_left(lambda m: lam.values.get(m, P.ctx.zero))
        lx = lam.values.get(mono, P.ctx.zero)
        if left != P.scalar(lx):
            errs.append(f"right-integral identity fails at {mono}")
            break
        swapped = TensorElement(P, {(m2, m1): c for (m1, m2), c in t.coeffs.items()})
        right = swapped.apply_left(lambda m: lam.values.get(m, P.ctx.zero))
        if right != data.comodulus * lx:
            errs.append(f"comodulus identity fails at {mono}")
            break
    g = data.balancing
    if g * g != data.comodulus:
        errs.append("g^2 != comodulus")
    ginv = P.gen("K", P.p_minus - P.p_plus)
    for name in ("ep", "fp", "em", "fm", "K"):
        x = P.gen(name)
        if x.is_zero():
            continue
        if x.antipode().antipode() != g * x * ginv:
            errs.append(f"S^2 != Ad_g on {name}")
    return errs


@pytest.mark.parametrize("pair", [(1, 1), (1, 2), (2, 3), (3, 2)])
def test_integral_check_passes_and_matches_the_per_monomial_loop(pair):
    data = Theory(Params(*pair)).integral
    assert verify_integral_data(data) == []
    assert _integral_check_per_monomial(data) == []


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2)])
def test_integral_check_fails_on_broken_data(pair):
    """lambda moved to the next K exponent, the comodulus replaced by K^0
    and one cointegral term doubled each fail the check, with the failures
    of the per-monomial loop."""
    data = Theory(Params(*pair)).integral
    P = data.params
    (top, value), = data.integral.values.items()
    moved = top[:4] + ((top[4] + 1) % P.korder,)
    first = next(iter(data.cointegral.coeffs))
    broken = [
        dataclasses.replace(data, integral=Functional(P, {moved: value})),
        dataclasses.replace(data, comodulus=P.one),
        dataclasses.replace(data, cointegral=AlgebraElement(P, {
            m: c * 2 if m == first else c for m, c in data.cointegral.coeffs.items()})),
    ]
    for bad in broken:
        errs = verify_integral_data(bad)
        assert errs and errs == _integral_check_per_monomial(bad)
    assert any("right-integral" in e for e in verify_integral_data(broken[0]))
    assert any("comodulus identity" in e for e in verify_integral_data(broken[1]))


def test_zeta_normalization(T23):
    P = T23.params
    data = T23.integral
    fact = (P.plus.qfact(P.p_plus - 1) * P.minus.qfact(P.p_minus - 1)) ** 2
    assert data.zeta_norm * fact == P.sqrt_half_pp()


def test_delta_cointegral_cross_check(T12, T23):
    for th in (T12, T23):
        d1 = th.integral.cointegral.coproduct()
        d2 = delta_cointegral_closed_form(th.integral)
        assert (d1 - d2).is_zero()


def test_radford_of_trivial_char_is_cointegral(T23):
    assert radford(T23.integral, qtrace(T23.params, 1, 1, 1)) == T23.integral.cointegral


def test_radford_inverse_pair(T23):
    data = T23.integral
    for kind, lab, f in T23.characters.entries[:6]:
        x = radford(data, f)
        assert radford_inverse(data, x) == f, (kind, lab)


def _radford_inverse_unfiltered(data, x):
    """lambda(S(x) m) for every monomial m, with no pair skipped."""
    P = data.params
    lam = data.integral.values
    return sparse_sum(
        (mono, c1 * c * v)
        for mono in P.monomials()
        for m1, c1 in x.antipode().coeffs.items()
        for m, c in P.mono_mul(m1, mono).items()
        for v in (lam.get(m),) if v is not None)


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2)])
def test_radford_inverse_weight_filter_matches_full_sum(pair, request):
    """The weight filter skips only pairs whose product misses the support
    of lambda: values and key order equal the unfiltered sum's."""
    th = request.getfixturevalue("T%d%d" % pair)
    P, data = th.params, th.integral
    rng = random.Random(11)
    monos = list(P.monomials())
    mixed = AlgebraElement(P, {m: P.zeta(rng.randrange(P.N)) * rng.choice((-2, 1, 3))
                               for m in rng.sample(monos, 12)})
    for x in [radford(data, f) for _, _, f in th.characters.entries[:2]] + [mixed]:
        got = radford_inverse(data, x).values
        want = _radford_inverse_unfiltered(data, x)
        assert got == want and list(got) == list(want)


def test_m_matrix_counit_and_unit(T12, T23):
    for th in (T12, T23):
        assert th.m_matrix.counit_left() == th.params.one
        assert th.drinfeld_image("qtr", (1, 1, 1)) == th.params.one


def test_m_matrix_term_count(T12, T23, T32):
    # the weight form (B1 1_w) (x) m2 and its PBW expansion have fixed
    # sizes: (K-free first legs, weight-form terms, PBW slices, PBW
    # coefficients)
    for th, legs, terms, slices, coefficients in ((T12, 4, 18, 16, 72),
                                                  (T23, 36, 864, 432, 7776),
                                                  (T32, 36, 1080, 432, 7776)):
        M = th.m_matrix
        assert len(M.weight_slices) == legs
        assert sum(len(row) for row in M.weight_slices.values()) == terms
        pbw = pbw_slices(th.params, M.weight_slices)
        assert len(pbw) == slices
        assert sum(len(row) for row in pbw.values()) == coefficients
    # the weight form at (2,5), against 81,000 PBW coefficients
    M = MMatrix(Params(2, 5))
    assert len(M.weight_slices) == 100
    assert sum(len(row) for row in M.weight_slices.values()) == 5400


def _sector_weight(mono):
    return mono[1] - mono[0], mono[3] - mono[2]


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2), (1, 4)])
def test_m_matrix_is_the_union_of_its_weight_classes(pair):
    # each class holds the first legs of one sector weight, is built once,
    # and the whole weight form is every class of the six-fold sum's grid
    P = Params(*pair)
    mm = MMatrix(P)
    assert mm.classes == {}
    grid = {(m - n, np - mp) for m, n, mp, np in product(
        range(P.p_plus), range(P.p_plus), range(P.p_minus), range(P.p_minus))}
    union = {}
    for sw in grid:
        cls = mm.weight_class(sw)
        assert mm.weight_class(sw) is cls
        assert all(_sector_weight(b1) == sw for b1 in cls)
        union.update(cls)
    assert mm.weight_slices == union
    assert set(mm.classes) == grid


def _contract_over(weight_slices, beta):
    """(beta (x) id)(M), read over every first leg of a whole weight form."""
    P = beta.params
    ko = P.korder
    by_free = {}
    for m, v in beta.values.items():
        by_free.setdefault(m[:4] + (0,), []).append((m[4], v))
    return AlgebraElement(P, sparse_sum(
        (m2, sum((v.shift(-12 * (w * j % ko)) for j, v in by_free[b1]), start=P.ctx.zero)
         * Fraction(1, ko) * c)
        for b1, row in weight_slices.items() if b1 in by_free
        for (w, m2), c in row.items()))


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2), (1, 4)])
def test_contraction_builds_only_the_classes_it_reads(pair, request):
    # on a fresh M the Drinfeld image of every gamma functional equals the
    # contraction over the whole M in value and key order, and builds the
    # class (0, 0) alone; a functional on several sector weights builds
    # theirs and equals it in value
    th = request.getfixturevalue("T%d%d" % pair)
    P = th.params
    full = th.m_matrix.weight_slices
    fresh = MMatrix(P)
    for kind, lab, f in th.characters.entries:
        got = fresh.contract_functional(f)
        assert list(got.coeffs.items()) == list(_contract_over(full, f).coeffs.items()), lab
    assert list(fresh.classes) == [(0, 0)]
    # one monomial of every weight-shifting sector weight
    picks = {}
    for m in P.monomials():
        if P.weight(m):
            picks.setdefault(_sector_weight(m), m)
    mixed = th.characters.entries[-1][2] + Functional(
        P, {m: P.zeta(12 * i) * (i + 1) for i, m in enumerate(picks.values())})
    assert fresh.contract_functional(mixed) == _contract_over(full, mixed)
    assert fresh.contract_functional(mixed) != fresh.contract_functional(
        th.characters.entries[-1][2])
    assert set(fresh.classes) == {(0, 0)} | {_sector_weight(m) for m in mixed.values}


@pytest.mark.parametrize("command", ["smatrix", "tmatrix", "ribbon"])
def test_table_builds_only_the_weight_zero_class_of_m(command, tmp_path, monkeypatch):
    built = []
    build = MMatrix._build_class

    def counted(self, sw):
        built.append(sw)
        return build(self, sw)

    monkeypatch.setattr(MMatrix, "_build_class", counted)
    assert main(["--p-plus", "2", "--p-minus", "3", "--output", str(tmp_path / "t.json"),
                 command]) == 0
    assert built == [(0, 0)]


def _pbw_m_matrix(P):
    """The M-matrix's first-leg slices {m1: {m2: c}} expanded straight from
    the six-fold sum in the PBW basis: every pair of K-free leg terms meets
    every pair of K powers K^j (x) K^jp, with the phase
    zeta^(12 (alpha (j - jp) + j jp)) / ko."""
    ko = P.korder
    dQp, dQm = -P.plus.qdiff(1), -P.minus.qdiff(1)

    def terms():
        for m, n, mp, np in product(range(P.p_plus), range(P.p_plus),
                                    range(P.p_minus), range(P.p_minus)):
            c = (dQp ** (m + n) * dQm ** (mp + np)
                 * (P.plus.qfact(m) * P.minus.qfact(mp)
                    * P.plus.qfact(n) * P.minus.qfact(np)).inv())
            c = c.shift(6 * P.p_minus ** 2 * (m * (m + 1) - n * (n - 1))
                        + 6 * P.p_plus ** 2 * (mp * (mp + 1) - np * (np - 1)))
            c = c * Fraction(1, ko)
            leg1 = P.gen("fp", n) * P.gen("ep", m) * P.gen("em", np) * P.gen("fm", mp)
            leg2 = P.gen("ep", n) * P.gen("fp", m) * (P.gen("fm", np) * P.gen("em", mp))
            alpha = P.p_minus * m - P.p_plus * mp
            for (mono1, c1), (mono2, c2) in product(leg1.coeffs.items(),
                                                    leg2.coeffs.items()):
                base = c * c1 * c2
                for j, jp in product(range(ko), repeat=2):
                    yield ((mono1[:4] + ((j + mono1[4]) % ko,),
                            mono2[:4] + ((jp + mono2[4]) % ko,)),
                           base.shift(12 * ((alpha * (j - jp) + j * jp) % ko)))

    slices = {}
    for (m1, m2), c in sparse_sum(terms()).items():
        slices.setdefault(m1, {})[m2] = c
    return slices


def _tensor(P, slices):
    """The TensorElement with first-leg slices {m1: {m2: c}}."""
    return TensorElement(P, {(m1, m2): c for m1, row in slices.items() for m2, c in row.items()})


def _pbw_tensor(mm):
    """M as one TensorElement, expanded from its weight form."""
    return _tensor(mm.params, pbw_slices(mm.params, mm.weight_slices))


@pytest.mark.parametrize("pair", [(1, 2), (1, 3), (2, 3), (3, 2)])
def test_m_matrix_against_pbw_expansion(pair, request):
    """The weight form expanded into PBW slices equals the PBW six-fold
    expansion, and the Drinfeld basis contracted from the weight form equals
    the expansion's contractions in value and in key order."""
    th = request.getfixturevalue("T%d%d" % pair)
    P = th.params
    want = _pbw_m_matrix(P)
    assert pbw_slices(P, th.m_matrix.weight_slices) == want
    for f, chi in zip(th.characters.functionals(), th.drinfeld_basis):
        expect = sparse_sum((m2, v * c) for m, v in f.values.items()
                            for m2, c in want.get(m, {}).items())
        assert list(chi.coeffs.items()) == list(expect.items())


def test_m_matrix_intertwining(T12):
    assert not T12.m_matrix.intertwining_failures()


def _pair_action(terms, m1, m2):
    """Action of sum c a (x) b on m1 (x) m2, built from the modules'
    generator matrices (act_mono), not from the algebra's product."""
    acts1, acts2 = {}, {}

    def act(acts, module, mono):
        if mono not in acts:
            acts[mono] = module.act_mono(mono)
        return acts[mono]

    dim = m1.dim * m2.dim
    return SparseMat(dim, dim, sparse_sum(
        kv for (a, b), c in terms.items()
        for kv in act(acts1, m1, a).kron(act(acts2, m2, b)).scale(c).data.items()))


def test_m_matrix_acts_on_module_pairs(T12, T23):
    # M Delta(x) = Delta(x) M, read on module pairs through an independent
    # route: M's action is a sum of Kronecker products of module matrices
    from qpm.reps import cached_projective
    P12, P23 = T12.params, T23.params
    cases = [(T12, cached_projective(P12, 1, 1, 1), cached_irreducible(P12, -1, 1, 2)),
             (T23, cached_irreducible(P23, 1, 2, 2), cached_irreducible(P23, -1, 1, 3)),
             (T23, cached_irreducible(P23, 1, 2, 3), cached_irreducible(P23, 1, 1, 2))]
    for th, m1, m2 in cases:
        P = th.params
        act_m = _pair_action(_pbw_tensor(th.m_matrix).coeffs, m1, m2)
        # M does not act as a scalar, so commuting with it is not automatic
        assert any(i != j for i, j in act_m.data)
        for name in ("ep", "fp", "em", "fm", "K"):
            g = P.gen(name)
            if g.is_zero():
                continue
            act_g = _pair_action(g.coproduct().coeffs, m1, m2)
            assert (act_m * act_g - act_g * act_m).is_zero(), (m1.label, m2.label, name)


def test_drinfeld_closed_forms(T23):
    P = T23.params
    for lab in irreducible_labels(P):
        viaM = T23.drinfeld_image("qtr", lab)
        assert (viaM - drinfeld_irreducible_closed_form(P, *lab)).is_zero()
        assert is_central(P, viaM)


def test_drinfeld_pseudotrace_closed_forms(T23):
    P = T23.params
    for r in range(1, P.p_plus):
        for s in range(1, P.p_minus + 1):
            closed = theta_bracket(P, P.plus, r) * chi_sector(P, P.minus, s) * ((-1) ** s)
            assert (T23.drinfeld_image("nesw", (r, s)) - closed).is_zero()
    for (r, s) in P.set_I1():
        closed = (theta_bracket(P, P.plus, r) * theta_bracket(P, P.minus, s)
                  * ((-1) ** (r + s)))
        assert (T23.drinfeld_image("upup", (r, s)) - closed).is_zero()


def test_drinfeld_algebra_map(T23):
    import random
    rng = random.Random(5)
    fs = T23.characters.functionals()
    mm = T23.m_matrix
    for _ in range(3):
        b1, b2 = rng.choice(fs), rng.choice(fs)
        lhs = mm.contract_functional(b1.convolve(b2))
        rhs = mm.contract_functional(b1) * mm.contract_functional(b2)
        assert (lhs - rhs).is_zero()


def test_drinfeld_injective_on_ch(T23):
    ds = SpanSolver([el.coeffs for el in T23.drinfeld_basis], T23.params.ctx)
    assert ds.independent and ds.rank == 20


def test_cc_polynomials(P23):
    P = P23
    # m = 0: empty product has [x^0] = 1, [x^1] = 0
    x0, x1 = cc_poly_coeffs(P.plus, 2, 1, 0)
    assert x0 == P.ctx.one and x1.is_zero()
    # [x^0] = ([m]!)^2 qbin(a, m) qbin(r - a + m - 1, m)
    for r in range(1, P.p_plus + 1):
        for a in range(r):
            for m in range(P.p_plus):
                x0, _ = cc_poly_coeffs(P.plus, r, a, m)
                want = (P.plus.qfact(m) ** 2 * P.plus.qbin(a, m)
                        * P.plus.qbin(r - a + m - 1, m))
                assert x0 == want
    # [x^1] of C^m_{1,0} is (-1)^(m+1) [m]! [m-1]! for m >= 1
    for m in range(1, P.p_plus):
        _, x1 = cc_poly_coeffs(P.plus, 1, 0, m)
        want = P.plus.qfact(m) * P.plus.qfact(m - 1) * ((-1) ** (m + 1))
        assert x1 == want


def test_ribbon_axioms(T23):
    P = T23.params
    rib = T23.ribbon
    assert is_central(P, rib.v)
    assert rib.v.counit() == P.ctx.one
    assert (rib.v.antipode() - rib.v).is_zero()


def test_ribbon_eigenvalues(T23):
    P = T23.params
    rib = T23.ribbon
    zeta = P.ctx.root_of_unity
    # trivial module: Delta_{1,1} = 0 gives eigenvalue 1
    triv = cached_irreducible(P, 1, 1, 1)
    assert triv.act(rib.v).get(0, 0, P.ctx.zero) == P.ctx.one
    for lab in irreducible_labels(P):
        alpha, r, s = lab
        m = cached_irreducible(P, *lab)
        if alpha > 0:
            ev = zeta(conformal_weight_exponent(P, r, s))
            # cross-check against the product closed form
            ev2 = zeta(6 * P.p_minus ** 2 * (r * r - 1)
                       + 6 * P.p_plus ** 2 * (s * s - 1))
            if (r * s + 1) % 2:
                ev2 = -ev2
            assert ev == ev2
            assert (m.act(rib.v)
                    - SparseMat.identity(m.dim, P.ctx).scale(ev)).is_zero()
    st_minus = cached_irreducible(P, -1, P.p_plus, P.p_minus)
    ev = zeta(conformal_weight_exponent(P, 0, P.p_minus))
    assert (st_minus.act(rib.v)
            - SparseMat.identity(st_minus.dim, P.ctx).scale(ev)).is_zero()


def test_ribbon_jordan_factorization(T23):
    P = T23.params
    rib = T23.ribbon
    assert (rib.v - rib.v_semisimple * rib.v_unipotent).is_zero()
    x = rib.v_unipotent - P.one
    assert (x * x * x).is_zero()
    assert (rib.v_unipotent - rib.v_factor_plus * rib.v_factor_minus).is_zero()
    assert (ribbon_factor_closed_form(P, P.plus) - rib.v_factor_plus).is_zero()
    assert (ribbon_factor_closed_form(P, P.minus) - rib.v_factor_minus).is_zero()


def test_ribbon_tensor_identity_small(T12):
    th = T12
    rib = th.ribbon
    vinv = th.central_inverse(rib.v)
    assert (rib.v * vinv - th.params.one).is_zero()
    assert not th.m_matrix.ribbon_identity_failures(rib.v, vinv)


def test_canonical_element_belongs_to_algebra(T12):
    # u assembles inside the PBW basis (all K powers even in the half-order
    # generator), with the right ribbon relation v = u g^-1
    th = T12
    P = th.params
    u = canonical_element(P)
    assert (u * P.gen("K", P.p_minus - P.p_plus) - th.ribbon.v).is_zero()


def _perturbed(mm, factor):
    """A copy of the M-matrix whose one stored form, the weight form, has
    the last coefficient of its last first leg times factor."""
    broken = copy.copy(mm)
    broken.weight_slices = {b1: dict(row) for b1, row in mm.weight_slices.items()}
    row = broken.weight_slices[next(reversed(broken.weight_slices))]
    key = next(reversed(row))
    row[key] = row[key] * factor
    return broken


@pytest.mark.parametrize("theory", ["T12", "T23", "T32", "T14"])
def test_tensor_square_checks_can_fail(request, theory):
    th = request.getfixturevalue(theory)
    P = th.params
    mm = th.m_matrix
    rib = th.ribbon
    vinv = th.central_inverse(rib.v)
    assert mm.ribbon_identity_failures(rib.v * 2, vinv)
    # v v^-1 = 1 is checked before Delta(v^-1) = (v^-1 (x) v^-1) M, so
    # this case fails there
    assert mm.ribbon_identity_failures(rib.v, vinv * 2)
    # one coefficient of M's weight form doubled, turned by zeta^12 (its
    # phase alone) or halved (its denominator alone); with v v^-1 = 1 the
    # tensor-square identity itself fails
    for factor in (2, P.zeta(12), Fraction(1, 2)):
        broken = _perturbed(mm, factor)
        assert broken.intertwining_failures(), factor
        failures = broken.ribbon_identity_failures(rib.v, vinv)
        assert failures and failures[0] != "v v_inv != 1", factor
    w = rib.v_unipotent
    failures = mm.ribbon_identity_failures(w, th.central_inverse(w))
    assert failures and failures[0] != "v v_inv != 1"


def _batch(b, w):
    """The ribbon check's batch of a first leg B 1_w: w and the sector
    weight (ep - fp, em - fm) of B."""
    return w, (b[1] - b[0], b[3] - b[2])


@pytest.mark.parametrize("theory", ["T12", "T13", "T32"])
def test_ribbon_identity_against_tensor_products(request, theory):
    """Delta(v^-1) - (v^-1 (x) v^-1) M from plain TensorElement products,
    with M the PBW six-fold expansion: no weight form, no weight_mul and no
    batching.  It is zero for the ribbon element, nonzero for zeta^12 v and
    for M with one weight-form coefficient doubled in each of two of the
    check's batches, and the check's failures are empty exactly when it is
    zero; the check reports both perturbed batches."""
    th = request.getfixturevalue(theory)
    P = th.params
    mm = th.m_matrix
    rib = th.ribbon
    v_inv = th.central_inverse(rib.v)
    unit = (0, 0, 0, 0, 0)
    left = TensorElement(P, {(m, unit): c for m, c in v_inv.coeffs.items()})
    right = TensorElement(P, {(unit, m): c for m, c in v_inv.coeffs.items()})
    delta = v_inv.coproduct()
    vvm = left * (right * _tensor(P, _pbw_m_matrix(P)))
    assert (delta - vvm).is_zero()
    assert not mm.ribbon_identity_failures(rib.v, v_inv)

    # z v has the inverse z^-1 v^-1, so the two sides scale by z^-1 and
    # z^-2
    z = P.zeta(12)
    z_inv = z.inv()
    assert not (delta * z_inv - vvm * (z_inv * z_inv)).is_zero()
    assert mm.ribbon_identity_failures(rib.v * z, v_inv * z_inv)

    # doubling c adds c (B1 1_w) (x) m2 to M
    terms = [(b1, w, m2) for b1, row in mm.weight_slices.items() for w, m2 in row]
    first = terms[0]
    second = next(t for t in reversed(terms) if _batch(t[0], t[1]) != _batch(first[0], first[1]))
    added, broken = {}, copy.copy(mm)
    broken.weight_slices = {b1: dict(row) for b1, row in mm.weight_slices.items()}
    for b1, w, m2 in (first, second):
        c = mm.weight_slices[b1][w, m2]
        added.setdefault(b1, {})[w, m2] = c
        broken.weight_slices[b1][w, m2] = c * 2
    assert not (delta - vvm - left * (right * _tensor(P, pbw_slices(P, added)))).is_zero()
    failures = broken.ribbon_identity_failures(rib.v, v_inv)
    assert failures and failures[0] != "v v_inv != 1"
    reported = {_batch(c, w) for c, w in failures}
    assert _batch(first[0], first[1]) in reported and _batch(second[0], second[1]) in reported


def test_balanced_trace_needs_no_character_space():
    # qtrace reads the cached balanced trace of one irreducible; it
    # builds no pseudotrace and no CharacterSpace
    from qpm.characters import trace_functional

    P = Params(2, 3)
    assert qtrace(P, 1, 1, 1) == trace_functional(cached_irreducible(P, 1, 1, 1))
    assert qtrace(P, -1, 2, 3) == trace_functional(cached_irreducible(P, -1, 2, 3))
    assert "character_space" not in P.cache


def _drinfeld_image_keys(P):
    return [key for key in P.cache if isinstance(key, tuple) and key[0] == "drinfeld_image"]


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2)])
def test_ribbon_builds_neither_center_nor_drinfeld_basis(pair):
    # the ribbon data contracts only the two pseudotrace images at (1,1);
    # its semisimple part, the one reader of the canonical center, waits
    # for its first read
    P = Params(*pair)
    Theory(P).ribbon
    assert "canonical_center" not in P.cache
    assert "drinfeld_basis" not in P.cache
    assert len(_drinfeld_image_keys(P)) <= 2
    Theory(P).ribbon.v_semisimple
    assert "canonical_center" in P.cache


def _terms(el):
    return list(el.coeffs.items())


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2)])
def test_lazy_ribbon_split_matches_one_built_after_the_bases(pair):
    # a theory whose center and bases were built first gives the ribbon
    # factors the same values with the same key order
    eager = Theory(Params(*pair))
    eager.center, eager.radford_basis, eager.drinfeld_basis
    lazy = Theory(Params(*pair))
    lazy_rib, eager_rib = lazy.ribbon, eager.ribbon
    for name in ("v", "v_factor_plus", "v_factor_minus", "v_semisimple", "v_unipotent"):
        assert _terms(getattr(lazy_rib, name)) == _terms(getattr(eager_rib, name)), name
    assert (lazy_rib.v - lazy_rib.v_semisimple * lazy_rib.v_unipotent).is_zero()


@pytest.mark.parametrize("pair", [(1, 2), (2, 3), (3, 2)])
def test_drinfeld_image_per_label_equals_basis_entry(pair, request):
    # on a fresh pair, images contracted one by one in reverse reading order
    # equal the entries of the fully built basis, in value and key order
    full = request.getfixturevalue("T%d%d" % pair)
    basis = full.drinfeld_basis
    th = Theory(Params(*pair))
    labels = th.characters.labels()
    for i in reversed(range(len(labels))):
        assert _terms(th.drinfeld_image(*labels[i])) == _terms(basis[i]), labels[i]
    assert "drinfeld_basis" not in th.params.cache
    with pytest.raises(KeyError):
        th.drinfeld_image("upup", (0, 0))
