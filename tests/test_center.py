"""Center: Casimirs, weight projectors, canonical basis, commutant."""

from dataclasses import replace
from fractions import Fraction

import pytest

from qpm.algebra import Params
from qpm.center import center_brute_force, center_dimension, is_central, weight_projectors
from qpm.duality import Theory
from qpm.linalg import SpanSolver, SparseMat
from qpm.reps import cached_irreducible, irreducible_labels
import qpm.verify
from qpm.algebra import AlgebraElement
from qpm.verify import (idempotents_hold, radical_cube_vanishes, radical_table_holds,
                        weight_projectors_hold)


@pytest.fixture(scope="module")
def cb23(T23):
    return T23.center


def test_casimir_centrality(P23):
    cp, cm = P23.casimirs()
    assert is_central(P23, cp)
    assert is_central(P23, cm)
    # sector separation: [C+, e-] = 0 is part of centrality
    em = P23.gen("em")
    assert (cp * em - em * cp).is_zero()


def test_casimir_eigenvalue_example(P23):
    # eigenvalue on X^alpha_{r,s} is alpha^{p-} (-1)^s (Q+^r + Q+^{-r})
    from qpm.reps import cached_irreducible
    from qpm.linalg import SparseMat
    P = P23
    cp, _ = P.casimirs()
    m = cached_irreducible(P, 1, 2, 3)
    val = P.plus.casimir_eigenvalue(1, 2, 3)
    assert (m.act(cp) - SparseMat.identity(m.dim, P.ctx).scale(val)).is_zero()


def test_weight_projector_identities(P23):
    P = P23
    for (r, s) in [(1, 1), (1, 2), (2, 2)]:
        proj = weight_projectors(P, r, s)
        for k1 in proj:
            assert proj[k1] * proj[k1] == proj[k1]
            for k2 in proj:
                if k1 < k2:
                    assert (proj[k1] * proj[k2]).is_zero()
        sgn = (-1) ** (P.p_minus * (r - 1) + P.p_plus * (s - 1))
        total = proj["up"] + proj["left"] + proj["right"] + proj["down"]
        assert total == (P.one + P.gen("K", P.pp) * sgn) * Fraction(1, 2)
    prj = weight_projectors(P, 1, P.p_minus)
    assert prj["left"].is_zero() and prj["down"].is_zero()
    prj = weight_projectors(P, P.p_plus, 1)
    assert prj["right"].is_zero() and prj["down"].is_zero()


def _weight_shifted(x):
    """The projector x = sum c_j K^j onto its weights shifted by one:
    1_w goes to 1_(w+1), still an idempotent."""
    P = x.params
    return AlgebraElement(P, {m: c * P.zeta(-12 * m[4]) for m, c in x.coeffs.items()})


@pytest.mark.parametrize("pair", [(2, 3), (3, 2), (2, 5)])
def test_weight_projector_check_can_fail(pair, monkeypatch):
    """The ledger's weight-projector check holds, fails when one projector
    is moved to shifted weights, and fails through its boundary clause
    alone when, at (1, p-), 'right' is renamed 'left': every projector is
    still idempotent and orthogonal to the others, and the four still sum
    to (1 + sgn K^(p+ p-))/2."""
    P = Params(*pair)
    assert weight_projectors_hold(P)
    build = qpm.verify.weight_projectors

    def shifted(P, r, s):
        proj = build(P, r, s)
        return dict(proj, right=_weight_shifted(proj["right"]))

    def renamed(P, r, s):
        proj = build(P, r, s)
        if (r, s) == (1, P.p_minus):
            proj = dict(proj, left=proj["right"], right=proj["left"])
        return proj

    for broken in (shifted, renamed):
        monkeypatch.setattr(qpm.verify, "weight_projectors", broken)
        assert not weight_projectors_hold(P), broken.__name__


def test_canonical_basis_size_and_centrality(P23, cb23):
    assert len(cb23.elements) == center_dimension(P23) == 20
    for lab, el in cb23.elements.items():
        assert is_central(P23, el), lab


def _commutes_with_generators(P, z):
    """Centrality from the full products z g - g z."""
    return all((z * g - g * z).is_zero()
               for g in map(P.gen, ("ep", "fp", "em", "fm", "K")) if not g.is_zero())


@pytest.mark.parametrize("theory", ["T12", "T23", "T32"])
def test_is_central_agrees_with_the_products(theory, request):
    # on the canonical basis, with a weight-shifting monomial added, and
    # with fp ep added, which has weight 0 but is not central
    th = request.getfixturevalue(theory)
    P = th.params
    shift = P.gen("ep") if P.p_plus > 1 else P.gen("em")
    f, e = ("fp", "ep") if P.p_plus > 1 else ("fm", "em")
    weight_zero = P.gen(f) * P.gen(e)
    assert P.weight(next(iter(weight_zero.coeffs))) == 0
    for lab, z in th.center.elements.items():
        for x in (z, z + shift, z + weight_zero):
            assert is_central(P, x) == _commutes_with_generators(P, x), lab
        assert is_central(P, z)
        assert not is_central(P, z + shift) and not is_central(P, z + weight_zero)


def test_idempotent_relations(P23, cb23):
    tot = P23.zero
    idempotents = {key: e for (family, key), e in cb23.elements.items() if family == "e"}
    for lab1, e1 in idempotents.items():
        assert e1 * e1 == e1
        tot = tot + e1
        for lab2, e2 in idempotents.items():
            if lab1 < lab2:
                assert (e1 * e2).is_zero()
    assert tot == P23.one


def test_radical_products(P23, cb23):
    S = cb23.RADICAL_PRODUCT_SCALE
    el = cb23.elements
    for (r, s) in P23.set_I1():
        vne, vnw, vsw, vse = (el["v", (arrow, (r, s))] for arrow in ("ne", "nw", "sw", "se"))
        assert vne * vnw == el["w", ("up", (r, s))] * S
        assert vne * vse == el["w", ("right", (r, s))] * S
        assert vsw * vnw == el["w", ("left", (r, s))] * S
        assert vsw * vse == el["w", ("down", (r, s))] * S
        assert (vne * vsw).is_zero()
        assert (vnw * vse).is_zero()
        e = el["e", (r, s)]
        for v in (vne, vnw, vsw, vse):
            assert e * v == v
    for (family, (key, lab)), v in el.items():
        if family == "vb":
            assert el["e", lab] * v == v
            assert (v * v).is_zero()


def test_radical_table_check_can_fail(cb23):
    assert radical_table_holds(cb23)
    el = cb23.elements
    ne, up, right = ("v", ("ne", (1, 1))), ("w", ("up", (1, 1))), ("w", ("right", (1, 1)))
    col, row = ("vb", ("up", (1, 3))), ("vb", ("up", (2, 1)))   # boundary v of two blocks
    broken = {
        "interior v scaled by 2": replace(cb23, elements={**el, ne: el[ne] * 2}),
        "two interior w swapped": replace(
            cb23, elements={**el, up: el[right], right: el[up]}),
        "boundary v of two blocks swapped": replace(
            cb23, elements={**el, col: el[row], row: el[col]}),
        "boundary v plus its idempotent": replace(
            cb23, elements={**el, col: el[col] + el["e", (1, 3)]}),
    }
    for what, cb in broken.items():
        assert not radical_table_holds(cb), what


def test_idempotent_and_cube_checks_can_fail(cb23):
    assert idempotents_hold(cb23) and radical_cube_vanishes(cb23)
    el = cb23.elements
    e11, e13 = ("e", (1, 1)), ("e", (1, 3))
    doubled = replace(cb23, elements={**el, e11: el[e11] * 2})
    assert not idempotents_hold(doubled)
    # the orthogonal-complete check is symmetric in the labels, so two
    # swapped idempotents pass it; e(blk) n = n in the radical table
    # catches the swap of an interior block's idempotent
    swapped = replace(cb23, elements={**el, e11: el[e13], e13: el[e11]})
    assert idempotents_hold(swapped) and not radical_table_holds(swapped)
    # a v plus its block's idempotent is no longer nilpotent
    ne = ("v", ("ne", (1, 1)))
    assert not radical_cube_vanishes(replace(cb23, elements={**el, ne: el[ne] + el[e11]}))
    # an interior v added to a w stays in the radical, whose cube is 0, so
    # no cube check can see it; the radical table does
    up = ("w", ("up", (1, 1)))
    shifted = replace(cb23, elements={**el, up: el[up] + el[ne]})
    assert radical_cube_vanishes(shifted) and not radical_table_holds(shifted)


@pytest.mark.parametrize("pq", [(2, 3), (3, 4)])
def test_cube_sample_holds_a_product_inside_one_block(pq):
    # v_sw plus its idempotent breaks only triples that hold v_sw and a
    # nonzero pair of its block, here v_ne v_nw = 8 w_up: a sample of the
    # v_ne of several blocks, or one without v_sw, passes it
    cb = Theory(Params(*pq)).center
    el = cb.elements
    sw = ("v", ("sw", (1, 1)))
    assert radical_cube_vanishes(cb)
    assert not radical_cube_vanishes(replace(cb, elements={**el, sw: el[sw] + el["e", (1, 1)]}))


def test_rescaled_boundary_v_changes_no_table_entry():
    # A boundary v has no nonzero product with a nilpotent, and e n = n is
    # linear in n, so twice a boundary v satisfies the same table; the
    # multiplication matrices built on the table do not change either.
    th = Theory(Params(1, 2))
    P = th.params
    want = th.central_mult_matrix(th.ribbon.v)
    to_radford = th.center_basis_change[1]
    cb = th.center
    key = next(lab for lab in cb.elements if lab[0] == "vb")
    scaled = replace(cb, elements={**cb.elements, key: cb.elements[key] * 2})
    assert radical_table_holds(scaled)
    P.cache["canonical_center"] = scaled
    del P.cache["center_basis_change"]
    assert th.center_basis_change[1] != to_radford   # the rescale took effect
    assert th.central_mult_matrix(th.ribbon.v) == want


def test_radical_cube(P23, cb23):
    rad = [cb23.elements["v", (arrow, (1, 1))] for arrow in ("ne", "sw", "nw", "se")]
    for x in rad:
        for y in rad:
            for z in rad:
                assert (x * y * z).is_zero()


def test_steinberg_idempotent_action(P23, cb23):
    # e(p+,p-) is the identity on the Steinberg module and kills the rest
    from qpm.reps import cached_irreducible, irreducible_labels
    from qpm.linalg import SparseMat
    P = P23
    e = cb23.elements["e", (P.p_plus, P.p_minus)]
    for lab in irreducible_labels(P):
        m = cached_irreducible(P, *lab)
        mat = m.act(e)
        if lab == (1, P.p_plus, P.p_minus):
            assert (mat - SparseMat.identity(m.dim, P.ctx)).is_zero()
        else:
            assert mat.is_zero()


@pytest.fixture(scope="module")
def T34():
    return Theory(Params(3, 4))


@pytest.mark.parametrize("theory", ["T12", "T23", "T32", "T14", "T34"])
def test_block_of_names_the_idempotent_fixing_each_irreducible(theory, request):
    # the idempotents come from the Casimir projections, apart from the
    # linkage table; (3,4) is the first pair with several interior blocks
    th = request.getfixturevalue(theory)
    P, cb = th.params, th.center
    fibres = {}
    for lab in irreducible_labels(P):
        blk = P.block_of(*lab)
        fibres.setdefault(blk, set()).add(lab)
        m = cached_irreducible(P, *lab)
        assert (m.act(cb.elements["e", blk]) - SparseMat.identity(m.dim, P.ctx)).is_zero(), lab
    # every irreducible's block is the set of its linked labels
    for lab in irreducible_labels(P):
        assert fibres[P.block_of(*lab)] == set(P.linked(*lab).values()), lab
    # four irreducibles per interior block, two per boundary block, one per
    # Steinberg-type block
    assert {blk: len(f) for blk, f in fibres.items()} == {
        blk: 4 if blk in P.set_I1() else
        1 if blk in ((P.p_plus, P.p_minus), (0, P.p_minus)) else 2
        for blk in P.set_I()}


def test_brute_force_dimensions(P12, P13, P23):
    assert len(center_brute_force(P12)) == 5
    assert len(center_brute_force(P13)) == 8
    assert len(center_brute_force(P23)) == 20


def test_spans_agree(P23, cb23):
    bf = center_brute_force(P23)
    span_bf = SpanSolver([z.coeffs for z in bf], P23.ctx)
    span_cb = SpanSolver([el.coeffs for el in cb23.elements.values()], P23.ctx)
    assert span_cb.independent
    for el in cb23.elements.values():
        assert span_bf.contains(el.coeffs)
    for z in bf:
        assert span_cb.contains(z.coeffs)


def test_psi_normalization_constants(P23):
    # displayed closed forms for the projected minimal polynomial values
    from qpm.center import _poly_div_linear
    from qpm.cyclotomic import horner, psi_poly
    P = P23
    ctx = P.ctx
    psi = [ctx.integer(c) for c in psi_poly(P.p_plus).coefficients()]
    for (r, s) in P.set_I1():
        beta = P.plus.casimir_eigenvalue(1, r, s)
        red = _poly_div_linear(_poly_div_linear(psi, beta, ctx), beta, ctx)
        val = horner(red, beta, ctx.zero)
        assert val == ctx.integer(4 * P.p_plus ** 2) * (
            (P.plus.Q ** r - P.plus.Q ** (-r)) ** 2).inv()
    two = ctx.integer(2)
    beta = P.plus.casimir_eigenvalue(1, P.p_plus, P.p_minus)
    assert beta == two or beta == -two
    red = _poly_div_linear(psi, beta, ctx)
    sign = 1 if beta == two else -1
    assert horner(red, beta, ctx.zero) == ctx.integer(sign * 4 * P.p_plus ** 2)
