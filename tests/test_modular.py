"""Modular action: S/T matrices, subrepresentation blocks, factorization."""

import copy
import random
from fractions import Fraction

import pytest

from qpm import verify
from qpm.algebra import AlgebraElement, Params
from qpm.cyclotomic import sparse_sum
from qpm.duality import Theory, conformal_weight_exponent, kappa
from qpm.linalg import _eliminate, invert_dense, mat_mul_dense, mat_vec
from qpm.modular import ModularAction, ModularData
from qpm.reps import irreducible_labels
from conftest import chain_mat_vec


@pytest.fixture(scope="module")
def ma12(T12):
    return T12.modular_action


@pytest.fixture(scope="module")
def ma23(T23):
    return T23.modular_action


def test_modular_data(P23, P12):
    d = ModularData.build(P23)
    assert d.central_charge == 0
    assert d.t_phase == P23.ctx.one
    d12 = ModularData.build(P12)
    assert d12.central_charge == Fraction(-2)
    # Delta_{1,1} = 0
    assert conformal_weight_exponent(P12, 1, 1) % P12.N == 0
    # Delta_{r,0} = Delta_{p+-r, p-}
    P = P23
    for r in range(1, P.p_plus):
        assert conformal_weight_exponent(P, r, 0) == \
            conformal_weight_exponent(P, P.p_plus - r, P.p_minus)


def test_s_builds_no_ribbon_element():
    # T is built on first use; S alone needs no ribbon element
    P = Params(2, 3)
    ma = ModularAction(Theory(P))
    assert len(ma.S) == 20
    assert "ribbon" not in P.cache
    assert ma.T is ma.T
    assert "ribbon" in P.cache


def test_sl2z_relations(ma12, ma23):
    for ma in (ma12, ma23):
        rel = ma.sl2z_relations()
        assert rel["S2_identity"]
        assert rel["S4_identity"]
        assert rel["S_inv_of_unit_is_cointegral"]
        assert rel["ST3_S-2_is_scalar"]
        assert rel["ST3_S-2_scalar_is_one"]


def test_s_exchanges_bases(ma12, ma23):
    assert ma12.verify_s_exchanges_bases()
    assert ma23.verify_s_exchanges_bases()


def test_block_structure(ma23):
    rep = ma23.verify_subrepresentations()
    assert rep["ok"], rep["failures"]
    dims = {k: v["dim"] for k, v in rep["blocks"].items()}
    assert dims == {"minimal": 1, "triplet": 3, "slash": 4, "bslash": 6,
                    "projective": 6}
    assert rep["direct_sum_rank"] == 20


def test_block_structure_degenerate(ma12):
    rep = ma12.verify_subrepresentations()
    assert rep["ok"], rep["failures"]
    dims = {k: v["dim"] for k, v in rep["blocks"].items()}
    assert dims == {"minimal": 0, "triplet": 0, "slash": 0, "bslash": 2,
                    "projective": 3}


def test_transformation_identities(ma23):
    rep = ma23.verify_transformations()
    assert rep["ok"], rep["failures"]


def test_t_on_s_image_of_kappa(T23, ma23):
    P = T23.params
    zeta = P.ctx.root_of_unity
    ph = ma23.data.t_phase
    for (r, s) in P.set_I():
        x = mat_vec(ma23.S, T23.radford_vector([(kappa(P, r, s), 1)]))
        ev = ph * zeta(conformal_weight_exponent(P, r, s))
        assert x and mat_vec(ma23.T, x) == {i: c * ev for i, c in x.items()}


def test_grothendieck_image(ma23):
    rep = ma23.verify_grothendieck_subrep()
    assert rep["ok"]
    assert rep["same_span"]
    assert rep["t_diagonal"]
    assert rep["rank"] == 12


def test_grothendieck_closure_rank_against_rounds(ma23):
    """closure_rank (one echelon form grown a vector at a time) against a
    round-based closure that re-eliminates V + S V + T V from scratch until
    the rank stops growing; the image plus its S-image is not yet closed."""
    P, ctx = ma23.params, ma23.params.ctx
    d = ma23.dim
    th = ma23.theory
    chi = [th.central_coordinates(th.drinfeld_image("qtr", lab))
           for lab in irreducible_labels(P)]
    assert all(co is not None for co in chi)

    def sparse(co):
        return {i: c for i, c in enumerate(co) if c}

    def echelon(vectors):
        return [[row.get(i, ctx.zero) for i in range(d)]
                for _, row in _eliminate([sparse(co) for co in vectors])]

    def images(vectors):
        return [chain_mat_vec(m, co, ctx) for m in (ma23.S, ma23.T) for co in vectors]

    basis = echelon(chi)
    with_s = len(echelon(chi + [chain_mat_vec(ma23.S, co, ctx) for co in chi]))
    while True:
        grown = echelon(basis + images(basis))
        if len(grown) == len(basis):
            break
        basis = grown
    rep = ma23.verify_grothendieck_subrep()
    assert rep["rank"] < with_s < len(basis) <= d
    assert rep["closure_rank"] == len(basis)


def test_factorization(ma12, ma23):
    for ma in (ma12, ma23):
        rep = ma.verify_factorization()
        assert rep["ok"], rep["failures"]


def test_factorization_reports_a_wrong_xi(T23, ma23, monkeypatch):
    """S* Sbar = S and the three-factor product hold for every invertible
    Xi once S^2 = id, so a Xi without its first-leg matrix must be
    reported through the commutators."""
    ctx = T23.params.ctx
    xi_matrix = ModularAction._xi_matrix

    def first_leg_dropped(self, vstar):
        v = invert_dense(T23.central_mult_matrix(vstar), ctx)
        return mat_mul_dense(v, xi_matrix(self, vstar), ctx)

    monkeypatch.setattr(ModularAction, "_xi_matrix", first_leg_dropped)
    failures = ma23.verify_factorization()["failures"]
    assert failures
    assert any(f.startswith("[") for f in failures)


def test_a_wrong_semisimple_part_fails_the_jordan_split(T23, monkeypatch):
    """The factorization check does not compare T- T+ T0 with T: with
    T_x = S V_x C that is v- v+ vbar = v, which ribbon-element decides.  A
    vbar with one idempotent too many fails there."""
    rib = T23.ribbon
    e = T23.center.elements["e", (1, 1)]
    monkeypatch.setattr(rib, "v_semisimple", rib.v_semisimple + e)
    failed = [check for check, ok, _ in verify.suite_ribbon(T23) if not ok]
    assert failed == ["multiplicative Jordan split v = vbar v*"]


def test_a_wrong_ribbon_inverse_fails_only_the_s_of_v_check(T23, monkeypatch):
    # S(v) = v^-1 / lambda(v^-1) has a check of its own; a wrong v^-1 must
    # not fail the factorization check too
    central_inverse = Theory.central_inverse
    w = T23.center.elements["w", ("up", (1, 1))]
    monkeypatch.setattr(Theory, "central_inverse",
                        lambda self, z: central_inverse(self, z) + w)
    failed = [check for check, ok, _ in verify.suite_modular(T23) if not ok]
    assert failed == ["S(v) = v^-1 up to the anomaly scalar lambda(v^-1)"]


def _perturbed_entry(mat, i, j, delta):
    out = [list(row) for row in mat]
    out[i][j] = out[i][j] + delta
    return out


def test_coordinate_checks_can_fail(T23, ma23):
    """The S and T checks decide on coordinate vectors; a single wrong
    matrix entry must show.  T is perturbed on the diagonal at the Radford
    image of the trivial module's trace, a coordinate that the
    transformation families, the Grothendieck chi images (T-diagonal) and
    the projective block's T-closure reach."""
    one = ma23.params.ctx.one
    k = T23.characters.index["qtr", (1, 1, 1)]
    broken = copy.copy(ma23)
    broken.T = _perturbed_entry(ma23.T, k, k, one)
    assert not broken.verify_transformations()["ok"]
    assert not broken.verify_subrepresentations()["ok"]
    assert not broken.verify_grothendieck_subrep()["ok"]
    broken = copy.copy(ma23)
    broken.S = _perturbed_entry(ma23.S, 0, 0, one)
    rel = broken.sl2z_relations()
    assert not rel["S2_identity"]
    assert not rel["S4_identity"]
    assert not broken.verify_s_exchanges_bases()


def test_anomaly_scalar(ma12, ma23, T12, T23):
    # S(v) = v^-1 holds up to lambda(v^-1); the scalar is 1 exactly when the
    # central charge phase is trivial
    rep = ma23.verify_factorization()
    assert rep["anomaly_scalar"] == T23.params.ctx.one
    assert rep["s_of_ribbon_literal"]
    rep = ma12.verify_factorization()
    z = T12.params.ctx.root_of_unity
    assert rep["anomaly_scalar"] == z(12)  # the quarter phase at (1,2)
    assert not rep["s_of_ribbon_literal"]


def test_s_map_rejects_non_central(T23, ma23):
    with pytest.raises(ValueError):
        ma23.s_map(T23.params.gen("ep"))


# -- the dense-product route, as an oracle for the canonical-coordinate one ----

def _columns(cols):
    assert all(co is not None for co in cols)
    return [list(row) for row in zip(*cols)]


def _dense_mult_matrix(th, z):
    """Multiplication by z in the Radford basis from d dense products."""
    return _columns([th.central_coordinates(z * b) for b in th.radford_basis])


def _dense_xi_matrix(th, vstar):
    """Xi with both factors vstar multiplied out as algebra elements."""
    P = th.params
    dsv = th.modular_action.s_map(vstar).coproduct()
    first = {n1: vstar * AlgebraElement(P, {n1: P.ctx.one}) for n1, _ in dsv.coeffs}
    return _columns([
        th.central_coordinates(AlgebraElement(P, sparse_sum(
            (n2, f(first[n1]) * c) for (n1, n2), c in dsv.coeffs.items())) * vstar)
        for _, _, f in th.characters.entries])


@pytest.mark.parametrize("theory", ["T12", "T23", "T32", "T14"])
def test_central_arithmetic_against_dense_products(request, theory):
    th = request.getfixturevalue(theory)
    P = th.params
    ctx = P.ctx
    rib = th.ribbon
    rng = random.Random(20060606)
    z = P.linear_combination(
        (el, rng.randint(1, 5) if lab[0] == "e" else rng.randint(-3, 3))
        for lab, el in th.center.elements.items())
    dense = {}
    for name, el in (("v", rib.v), ("vbar", rib.v_semisimple),
                     ("v+", rib.v_factor_plus), ("v-", rib.v_factor_minus),
                     ("random", z)):
        dense[name] = _dense_mult_matrix(th, el)
        assert th.central_mult_matrix(el) == dense[name], name
    for vstar in (rib.v_unipotent, rib.v_factor_plus, rib.v_factor_minus):
        assert th.modular_action._xi_matrix(vstar) == _dense_xi_matrix(th, vstar)
    unit = th.central_coordinates(P.one)
    for name, el in (("v", rib.v), ("random", z)):
        inv = th.central_inverse(el)
        assert inv * el == P.one
        assert th.central_coordinates(inv) == chain_mat_vec(
            invert_dense(dense[name], ctx), unit, ctx)
    for lab, el in th.center.elements.items():
        if lab[0] != "e":
            with pytest.raises(ArithmeticError):
                th.central_inverse(el)
