"""The named verification suites, keyed to the structural claims.

Every suite returns a list of (check_name, passed, detail) triples; the
runner wraps them with timing and stable ordering so the ledger output is
deterministic.  All assertions are exact identities in Q(zeta_N).
"""

from __future__ import annotations

import os
import random
import sys
import time
from fractions import Fraction
from itertools import chain, combinations
from operator import attrgetter

from .algebra import AlgebraElement, Params
from .center import (FAMILIES, CanonicalCenterBasis, center_brute_force,
                     center_dimension, is_central, weight_projectors)
from .characters import counit_functional, is_qcharacter, qcharacter_space, qtrace
from .cyclotomic import Cyclo, sparse_sum, sum_products
from .duality import (Theory, chi_sector, conformal_weight_exponent,
                      delta_cointegral_closed_form,
                      drinfeld_irreducible_closed_form, kappa, radford_inverse,
                      rho_diag, ribbon_factor_closed_form, theta_bracket,
                      varphi_arrow, varphi_diag, varphi_hat, verify_integral_data)
from .grothendieck import (gr_class, gr_multiply, verify_casimir_identities,
                           verify_presentation)
from .linalg import SpanSolver, SparseMat, closure_rank, combine, mat_vec, sparse_vector
from .reps import cached_irreducible, irreducible_labels, tensor_product, verma

__all__ = ["run_suites", "SUITE_ORDER", "SuiteSelectionError", "available_suites",
           "idempotents_hold", "radical_table_holds", "radical_cube_vanishes",
           "weight_projectors_hold"]


def _sqrt2pp32(P: Params) -> Cyclo:
    return P.sqrt2() * P.sqrt_pp() ** 3


def suite_hopf(theory: Theory):
    P = theory.params
    rng = random.Random(20060506)
    checks = []
    live = {n: P.gen(n) for n in (*P.live_generators, "K")}
    K = live["K"]
    ok = P.gen("K", P.korder) == P.one
    for sec in P.sectors:
        e, f = P.gen(sec.e), P.gen(sec.f)
        # for p = 1 the sector is trivial (e = f = 0) and the commutator
        # relation degenerates to 0 = 0 since K^p' = K^-p'
        rhs = P.zero
        if sec.p > 1:
            rhs = (P.gen("K", sec.p_other) - P.gen("K", -sec.p_other)) * sec.qdiff(1).inv()
        ok = (ok and K * e == e * K * sec.q ** 2 and K * f == f * K * sec.q ** -2
              and (e ** sec.p).is_zero() and (f ** sec.p).is_zero()
              and e * f - f * e == rhs)
    cross_ok = all((live[a] * live[b] - live[b] * live[a]).is_zero()
                   for a in ("ep", "fp") if a in live
                   for b in ("em", "fm") if b in live)
    checks.append(("presentation relations", ok and cross_ok, ""))

    monos = sorted(P.monomials())
    count_ok = len(monos) == P.dim
    checks.append(("PBW dimension 2p+^3p-^3", count_ok, f"dim={len(monos)}"))

    assoc_ok = True
    for _ in range(100):
        x = AlgebraElement(P, {rng.choice(monos): P.q})
        y = AlgebraElement(P, {rng.choice(monos): P.ctx.one})
        z = AlgebraElement(P, {rng.choice(monos): P.plus.q})
        if (x * y) * z != x * (y * z):
            assoc_ok = False
            break
    checks.append(("associativity (100 random triples)", assoc_ok, ""))

    # coassociativity on the generators
    coassoc_ok = True
    for name, g in live.items():
        d = g.coproduct().coeffs.items()
        # (Delta (x) id) Delta(g) against (id (x) Delta) Delta(g)
        left = sparse_sum(((a, b, m2), c * cc) for (m1, m2), c in d
                          for (a, b), cc in P.coproduct_mono(m1).coeffs.items())
        right = sparse_sum(((m1, a, b), c * cc) for (m1, m2), c in d
                           for (a, b), cc in P.coproduct_mono(m2).coeffs.items())
        if left != right:
            coassoc_ok = False
    checks.append(("coassociativity on generators", coassoc_ok, ""))

    anti_ok = True
    counit_ok = True
    samples = [g for g in live.values()]
    for _ in range(20):
        samples.append(AlgebraElement(P, {rng.choice(monos): P.ctx.one})
                       + AlgebraElement(P, {rng.choice(monos): P.minus.q}))
    for x in samples:
        t = x.coproduct()
        lhs = t.apply_maps(lambda m: P.antipode_mono(m),
                           lambda m: AlgebraElement(P, {m: P.ctx.one})).multiply_legs()
        rhs = t.apply_maps(lambda m: AlgebraElement(P, {m: P.ctx.one}),
                           lambda m: P.antipode_mono(m)).multiply_legs()
        target = P.scalar(x.counit())
        if lhs != target or rhs != target:
            anti_ok = False
        # counit axiom
        eps_id = P.linear_combination(
            (AlgebraElement(P, {m2: c}), AlgebraElement(P, {m1: P.ctx.one}).counit())
            for (m1, m2), c in t.coeffs.items())
        if eps_id != x:
            counit_ok = False
    checks.append(("antipode axiom (generators + 20 random)", anti_ok, ""))
    checks.append(("counit axiom", counit_ok, ""))

    g = P.gen("K", P.p_plus - P.p_minus)
    ginv = P.gen("K", P.p_minus - P.p_plus)
    bal_ok = all(x.antipode().antipode() == g * x * ginv for x in live.values())
    checks.append(("S^2 = conjugation by the balancing element", bal_ok, ""))

    delta_map_ok = True
    for _ in range(10):
        x = AlgebraElement(P, {rng.choice(monos): P.q})
        y = AlgebraElement(P, {rng.choice(monos): P.ctx.one + P.q})
        if (x * y).coproduct() != x.coproduct() * y.coproduct():
            delta_map_ok = False
    checks.append(("coproduct is an algebra map (10 random pairs)", delta_map_ok, ""))
    return checks


def suite_modules(theory: Theory):
    P = theory.params
    checks = []
    gi = theory.gr_index
    rel_ok = True
    dims_ok = True
    cas_ok = True
    irr_wit_ok = True
    for lab in irreducible_labels(P):
        m = gi.irreducibles[lab]
        if m.check_relations():
            rel_ok = False
        if m.dim != lab[1] * lab[2]:
            dims_ok = False
        ident = SparseMat.identity(m.dim, P.ctx)
        if not all((m.act(cas) - ident.scale(sec.casimir_eigenvalue(*lab))).is_zero()
                   for sec, cas in zip(P.sectors, gi.casimirs)):
            cas_ok = False
        for i in range(m.dim):
            if m.submodule_generated([{i: P.ctx.one}]) != m.dim:
                irr_wit_ok = False
                break
    checks.append(("irreducible relations + dims r*r'", rel_ok and dims_ok, ""))
    checks.append(("Casimir eigenvalues on irreducibles", cas_ok, ""))
    checks.append(("irreducibility witness (cyclic from every vector)", irr_wit_ok, ""))

    verma_ok = True
    verma_cls_ok = True
    for alpha in (1, -1):
        for r in range(1, P.p_plus + 1):
            for s in range(1, P.p_minus + 1):
                v = verma(P, alpha, r, s)
                if v.dim != P.pp or v.check_relations():
                    verma_ok = False
                # one composition factor per linked irreducible
                expect = dict.fromkeys(P.linked(alpha, r, s).values(), 1)
                if gi.decompose_dict(v) != expect:
                    verma_cls_ok = False
    checks.append(("Verma relations + dimension p+p-", verma_ok, ""))
    checks.append(("Verma composition factors", verma_cls_ok, ""))

    covers = theory.projective_covers
    proj_ok = True
    proj_cls_ok = True
    filt_ok = True
    for alpha in (1, -1):
        for r in range(1, P.p_plus + 1):
            for s in range(1, P.p_minus + 1):
                p = covers[alpha, r, s]
                # each linked irreducible as often as the block has members
                linked = P.linked(alpha, r, s)
                if p.dim != len(linked) * P.pp or p.check_relations():
                    proj_ok = False
                if gi.decompose_dict(p) != dict.fromkeys(linked.values(), len(linked)):
                    proj_cls_ok = False
                if len(linked) == 4 and not _check_filtration(p, linked):
                    filt_ok = False
    checks.append(("projective relations + dims (4p+p-/2p+p-/p+p-)", proj_ok, ""))
    checks.append(("projective total composition multiplicities", proj_cls_ok, ""))
    checks.append(("interior projective five-layer filtration", filt_ok, ""))

    # action is multiplicative (straightening oracle)
    rng = random.Random(271828)
    monos = sorted(P.monomials())
    m = covers[1, 1, min(2, P.p_minus)]
    act_ok = True
    for _ in range(50):
        x = AlgebraElement(P, {rng.choice(monos): P.q})
        y = AlgebraElement(P, {rng.choice(monos): P.ctx.one})
        if not (m.act(x * y) - m.act(x) * m.act(y)).is_zero():
            act_ok = False
    checks.append(("act(x y) = act(x) act(y) on 50 random pairs", act_ok, ""))
    return checks


_DEPTH = {"u": 0, "l": 1, "r": 1, "d": 2}


def _check_filtration(module, linked):
    """Socle-style five-layer filtration of an interior projective cover
    whose block members are `linked` (Params.linked): span(depth >= k) must
    be a submodule and the layer classes must follow the
    1 / 2+2 / 4+2 / 2+2 / 1 pattern."""
    P = module.params
    by_depth = {}
    for lab, i in module.index.items():
        by_depth.setdefault(_DEPTH[lab[0]] + _DEPTH[lab[1]], []).append(i)
    gens = [module.mats[n] for n in ("ep", "fp", "em", "fm")]
    layer_class = {}
    for k in range(4, -1, -1):
        idxs = [i for d, ii in by_depth.items() if d >= k for i in ii]
        idx_set = set(idxs)
        for g in gens:
            for (i, j), _v in g.data.items():
                if j in idx_set and i not in idx_set:
                    return False
        weights = [module.kweights[i] for i in idxs]
        layer_class[k] = sorted(weights)
    # layer multiplicities via K-weight multisets of the quotients
    X = {arrow: cached_irreducible(P, *lab).kweights for arrow, lab in linked.items()}
    side = (X["left"] + X["right"]) * 2
    expected = {4: X["up"], 3: side, 2: X["down"] * 4 + X["up"] * 2, 1: side, 0: X["up"]}
    acc = []
    for k in range(4, -1, -1):
        acc = sorted(acc + expected[k])
        if layer_class[k] != acc:
            return False
    return True


def suite_fusion(theory: Theory):
    """The closed product formula against the tensor-product oracle and
    against the products of the Drinfeld images.  The images are multiplied
    in canonical coordinates (their Radford coordinates, the columns of C,
    carried over by Theory.center_basis_change) through
    CanonicalCenterBasis.product_table(), which center-structure proves."""
    P = theory.params
    ctx = P.ctx
    checks = []
    gi = theory.gr_index
    labels = irreducible_labels(P)
    formulas = {}
    formula_ok = True
    dim_ok = True
    for la in labels:
        for lb in labels:
            t = tensor_product(gi.irreducibles[la], gi.irreducibles[lb])
            oracle = gi.decompose_dict(t)
            formula = formulas[la, lb] = gr_multiply(gr_class(P, *la), gr_class(P, *lb))
            if formula.mult != oracle:
                formula_ok = False
            if formula.total_dimension() != la[1] * la[2] * lb[1] * lb[2]:
                dim_ok = False
    checks.append(("product formula == tensor-character oracle (all pairs)",
                   formula_ok, f"{len(labels) ** 2} pairs"))
    checks.append(("dimension homomorphism", dim_ok, ""))

    to_canonical = theory.center_basis_change[0]
    table = theory.center.product_table()
    chi = {lab: mat_vec(to_canonical, vec) for lab in labels
           if (vec := theory.drinfeld_vector("qtr", lab)) is not None}

    def product(x, y):
        return sum_products((k, x[i], y[j] * c) for (i, j), (k, c) in table.items()
                            if i in x and j in y)

    drinfeld_ok = len(chi) == len(labels) and all(
        product(chi[la], chi[lb]) == combine(
            ((chi[lc], mult) for lc, mult in formula.mult.items()), ctx)
        for (la, lb), formula in formulas.items())
    checks.append(("Drinfeld-image products follow the same formula (all pairs)",
                   drinfeld_ok, ""))

    # X+_{2,1} squared: at p+ = 2 the plus string folds back into the
    # projective class; from p+ = 3 on it is the Clebsch-Gordan 1 + 3
    if P.p_plus >= 2 and P.p_minus >= 3:
        spot = gr_multiply(gr_class(P, 1, 2, 1), gr_class(P, 1, 2, 1))
        if P.p_plus == 2:
            checks.append(("X+_{2,1} X+_{2,1} = 2X+_{1,1} + 2X-_{1,1}",
                           spot.mult == {(1, 1, 1): 2, (-1, 1, 1): 2}, str(spot.mult)))
        else:
            checks.append(("X+_{2,1} X+_{2,1} = X+_{1,1} + X+_{3,1}",
                           spot.mult == {(1, 1, 1): 1, (1, 3, 1): 1}, str(spot.mult)))
    return checks


def suite_presentation(theory: Theory):
    P = theory.params
    rep = verify_presentation(P)
    checks = [("three ideal generators vanish",
               all(g["vanishes"] for g in rep["generators"]), ""),
              ("P+-polynomials hit the irreducible classes",
               rep["ok"], str(rep["failures"][:4])),
              ("evaluation is onto the class basis", rep["surjective"], "")]
    rep2 = verify_casimir_identities(P)
    checks.append(("U-identity equals (-1)^(p+q) 2 K^(pq) and psi(C) = 0",
                   rep2["ok"], str(rep2["failures"][:4])))
    return checks


def suite_integral(theory: Theory):
    P = theory.params
    data = theory.integral
    errs = verify_integral_data(data)
    checks = [("integral/cointegral/comodulus/balancing invariants",
               not errs, str(errs[:3]))]
    d1 = data.cointegral.coproduct()
    d2 = delta_cointegral_closed_form(data)
    checks.append(("Delta(Lambda) matches the independent closed form",
                   (d1 - d2).is_zero(), ""))
    norm = data.zeta_norm * (P.plus.qfact(P.p_plus - 1) * P.minus.qfact(P.p_minus - 1)) ** 2
    checks.append(("normalization zeta ([p+-1]!+[p--1]!-)^2 = sqrt(p+p-/2)",
                   norm == P.sqrt_half_pp(), ""))
    inv_ok = all(radford_inverse(data, x) == f
                 for x, f in zip(theory.radford_basis, theory.characters.functionals()))
    checks.append(("Radford map and inverse are mutually inverse on the basis",
                   inv_ok, ""))
    return checks


def suite_qcharacters(theory: Theory):
    P = theory.params
    cs = theory.characters
    checks = []
    expected = center_dimension(P)
    checks.append((f"gamma basis count = (3p+-1)(3p--1)/2 = {expected}",
                   cs.dimension == expected, f"got {cs.dimension}"))
    rng = random.Random(31415)
    all_qch = all(is_qcharacter(f, spot_checks=2, rng=rng)
                  for _, _, f in cs.entries)
    checks.append(("every basis member satisfies the q-character condition",
                   all_qch, ""))
    # the generator-only reduction is additionally spot-checked on fifty
    # random full pairs of basis elements
    full_ok = (is_qcharacter(cs.entries[0][2], spot_checks=25, rng=rng)
               and is_qcharacter(cs.entries[-1][2], spot_checks=25, rng=rng))
    checks.append(("full two-sided condition on 50 random pairs", full_ok, ""))
    brute = qcharacter_space(P)
    checks.append((f"brute-force q-character space has dimension {expected}",
                   len(brute) == expected, f"got {len(brute)}"))
    bs = SpanSolver([b.values for b in brute], P.ctx)
    mutual = (all(bs.contains(f.values) for _, _, f in cs.entries)
              and all(cs.solver.contains(b.values) for b in brute))
    checks.append(("gamma span equals the brute-force span", mutual, ""))
    f1 = cs.entries[0][2]
    f2 = cs.entries[-1][2]
    prod = f1.convolve(f2)
    conv_ok = cs.solver.contains(prod.values) and prod == f2.convolve(f1)
    checks.append(("dual product closes on Ch and is commutative (sample)",
                   conv_ok, ""))
    eps = counit_functional(P)
    checks.append(("counit equals the trivial-module balanced trace",
                   qtrace(P, 1, 1, 1) == eps, ""))

    # per-block member counts: interior 9, boundary 3, Steinberg-type 1; a
    # pseudotrace's block is that of X^+ at its label
    counts = {}
    for kind, lab, _f in cs.entries:
        blk = P.block_of(*lab) if kind == "qtr" else P.block_of(1, *lab)
        counts[blk] = counts.get(blk, 0) + 1
    per_block_ok = True
    for (r, s) in P.set_I():
        want = 1 if (r, s) in ((P.p_plus, P.p_minus), (0, P.p_minus)) \
            else (3 if r == P.p_plus or s == P.p_minus else 9)
        if counts.get((r, s), 0) != want:
            per_block_ok = False
    checks.append(("per-block member counts (interior 9 / boundary 3 /"
                   " Steinberg 1)", per_block_ok, str(sorted(counts.items()))))
    return checks


def radical_table_holds(cb: CanonicalCenterBasis) -> bool:
    """Prove the entries of cb.product_table() that involve a nilpotent:
    e(blk) n = n for every nilpotent n, and every product of two nilpotents
    of one block, squares included, equals its table entry (0 where there
    is none), one product each.  With the orthogonal idempotents this
    proves the whole table: a product across blocks is
    n m = n e(a) e(b) m = 0.  The products are taken on the weight forms
    (Params.weight_mul), each basis element transformed once."""
    P = cb.params
    labels = list(cb.elements)
    forms = [P.weight_form(x) for x in cb.elements.values()]
    table = cb.product_table()
    for i, lab_i in enumerate(labels):
        for j, lab_j in enumerate(labels[i:], start=i):
            if cb.block(lab_i) != cb.block(lab_j) or lab_i[0] == lab_j[0] == "e":
                continue
            hit = table.get((i, j))
            want = {key: c * hit[1] for key, c in forms[hit[0]].items()} if hit else {}
            if P.weight_mul(forms[i], forms[j]) != want:
                return False
    return True


def idempotents_hold(cb: CanonicalCenterBasis) -> bool:
    """The idempotents are orthogonal and complete: e e = e, e e' = 0 for
    e != e', and they sum to 1.  The products are taken on the weight
    forms, each idempotent transformed once."""
    P = cb.params
    mul = P.weight_mul
    idempotents = [e for (family, _), e in cb.elements.items() if family == "e"]
    forms = [P.weight_form(e) for e in idempotents]
    for i, e1 in enumerate(forms):
        if mul(e1, e1) != e1:
            return False
        if any(mul(e1, e2) for e2 in forms[i + 1:]):
            return False
    return P.linear_combination((e, P.ctx.one) for e in idempotents) == P.one


# the arrows of a block in the order canonical_basis builds its nilpotents:
# v_ne, v_sw, v_nw, v_se, then the w or boundary v in the order of
# Params.linked
_BUILD_ARROWS = ("ne", "sw", "nw", "se", "up", "right", "left", "down")


def radical_cube_vanishes(cb: CanonicalCenterBasis) -> bool:
    """A sample of products of three nilpotents vanishes: x y z for x, y, z
    among the first three nilpotents in build order, and n m n for the first
    n and the last m.  Build order is family, then block, then arrow as
    _BUILD_ARROWS lists them, so the sample is v_ne, v_sw, v_nw of the first
    interior block when there is one, where v_ne v_nw = 8 w_up.  The products
    are taken on the weight forms."""
    P = cb.params
    mul = P.weight_mul
    rad = sorted((lab for lab in cb.elements if lab[0] != "e"),
                 key=lambda lab: (FAMILIES.index(lab[0]), cb.block(lab),
                                  _BUILD_ARROWS.index(lab[1][0])))
    sample = [P.weight_form(cb.elements[lab]) for lab in rad[:3]]
    if any(mul(mul(x, y), z) for x in sample for y in sample for z in sample):
        return False
    return len(rad) < 2 or not mul(
        mul(sample[0], P.weight_form(cb.elements[rad[-1]])), sample[0])


def weight_projectors_hold(P: Params) -> bool:
    """The four K-weight projectors of the first two interior labels and of
    the boundary label (1, p_-) (when p_+ > 1) are idempotent and pairwise
    orthogonal, and sum to (1 + sgn K^(p_+ p_-)) / 2; at (1, p_-), where
    'left' and 'down' have no weights, 'up' + 'right' alone is that sum."""
    boundary = [(1, P.p_minus)] * (P.p_plus > 1)
    projectors = {lab: weight_projectors(P, *lab)
                  for lab in list(P.set_I1())[:2] + boundary}

    def half_sum(r, s):
        sgn = (-1) ** (P.p_minus * (r - 1) + P.p_plus * (s - 1))
        return (P.one + P.gen("K", P.pp) * sgn) * Fraction(1, 2)

    for lab, proj in projectors.items():
        if any(x * x != x for x in proj.values()):
            return False
        if any(not (proj[a] * proj[b]).is_zero() for a, b in combinations(proj, 2)):
            return False
        total = proj["up"] + proj["left"] + proj["right"] + proj["down"]
        if total != half_sum(*lab):
            return False
    for lab in boundary:
        proj = projectors[lab]
        if proj["up"] + proj["right"] != half_sum(*lab):
            return False
    return True


def suite_center(theory: Theory):
    P = theory.params
    checks = []
    cb = theory.center
    expected = center_dimension(P)
    checks.append((f"canonical basis size = {expected}",
                   len(cb.elements) == expected, ""))
    central_ok = all(is_central(P, el) for el in cb.elements.values())
    checks.append(("every canonical element is central", central_ok, ""))
    checks.append(("idempotents: orthogonal, complete (sum = 1)", idempotents_hold(cb), ""))
    checks.append((f"radical product table (with the documented scale"
                   f" {cb.RADICAL_PRODUCT_SCALE})", radical_table_holds(cb), ""))
    checks.append(("radical cube vanishes (sampled)", radical_cube_vanishes(cb), ""))

    bf = center_brute_force(P)
    checks.append((f"brute-force commutant dimension = {expected}",
                   len(bf) == expected, f"got {len(bf)}"))
    span_bf = SpanSolver([z.coeffs for z in bf], P.ctx)
    span_cb = SpanSolver([el.coeffs for el in cb.elements.values()], P.ctx)
    agree = (span_cb.independent
             and all(span_bf.contains(el.coeffs) for el in cb.elements.values())
             and all(span_cb.contains(z.coeffs) for z in bf))
    checks.append(("commutant span equals canonical span", agree, ""))

    checks.append(("weight projectors: idempotent, orthogonal, sum rule,"
                   " boundary vanishing", weight_projectors_hold(P), ""))

    one = span_cb.coordinates(P.one.coeffs) if span_cb.independent else None
    one_ok = one is not None and all(c == P.ctx.one if family == "e" else c.is_zero()
                                     for (family, _), c in zip(cb.elements, one))
    checks.append(("decompose(1) = sum of idempotents", one_ok, ""))
    checks.append(("dim Ch = dim Z", theory.characters.dimension == expected, ""))
    return checks


def suite_radford_images(theory: Theory):
    """Radford images of the distinguished q-characters decompose into
    canonical central elements with the stated coefficients."""
    P = theory.params
    th = theory
    cb = th.center
    checks = []
    sqrt2pp = P.sqrt2() * P.sqrt_pp()
    inv_sqrt2pp = sqrt2pp.inv()
    shpp = P.sqrt_half_pp()
    pref = _sqrt2pp32(P)
    plus, minus = P.sectors

    # the trace of each block member goes to the element of its arrow
    ok = all(th.radford_image("qtr", member) == cb.elements["w", (arrow, blk)] * inv_sqrt2pp
             for blk in P.set_I1()
             for arrow, member in P.linked(1, *blk).items())
    checks.append(("interior traces -> w-elements / sqrt(2p+p-)", ok, ""))

    # a is the sector's own index, b the other sector's
    ok = True
    for sec in P.sectors:
        p, b = sec.p, sec.p_other
        for a in range(1, p):
            lab = sec.lab(a, b)
            c = shpp * Fraction(b, 2 * p) * ((-1) ** (p + a))
            ok = ok and all(th.radford_image("qtr", member) == cb.elements["vb", (arrow, lab)] * c
                            for arrow, member in P.linked(1, *lab).items())
    checks.append(("boundary traces -> v-elements, prefactor (p/2p')sqrt(pp/2)",
                   ok, ""))

    ok = (th.radford_image("qtr", (1, P.p_plus, P.p_minus))
          == cb.elements["e", (P.p_plus, P.p_minus)] * pref
          and th.radford_image("qtr", (-1, P.p_plus, P.p_minus))
          == cb.elements["e", (0, P.p_minus)] * pref * ((-1) ** (P.p_plus + P.p_minus)))
    checks.append(("Steinberg traces -> sqrt2 (p+p-)^{3/2} idempotents", ok, ""))

    # the column (nesw) and row (nwse) pseudotrace images; the v arrows of a
    # family are the two halves of its name
    for sec, family in zip(P.sectors, ("column", "row")):
        p, po = sec.p, sec.p_other
        ok = True
        for a in range(1, p):
            for b in range(1, po + 1):
                r, s = lab = sec.lab(a, b)
                lhs = th.radford_image(sec.pseudo, lab)
                qsum = sec.qsum(a)
                inv = sec.qdiff(a).inv()
                if b == po:
                    rhs = chain([(cb.elements["e", lab], pref * inv * ((-1) ** (a + p + 1)))],
                                th.radford_terms(kappa(P, r, s), qsum * inv * ((-1) ** po)))
                else:
                    # the v arrow of the I1 label among (r, s) and its reflection
                    nil = (cb.elements["v", (sec.pseudo[:2], lab)] if lab in P.set_I1() else
                           cb.elements["v", (sec.pseudo[2:], (P.p_plus - r, P.p_minus - s))])
                    traces = {("qtr", (1, r, s)): 1, ("qtr", (-1, *sec.lab(p - a, b))): 1}
                    rhs = chain([(nil, -(inv * shpp * Fraction(p, 2 * po)))],
                                th.radford_terms(traces, qsum * inv * ((-1) ** b)))
                ok = ok and (lhs - P.linear_combination(rhs)).is_zero()
        checks.append((f"{family} pseudotrace images decompose as stated", ok, ""))

    ok = True
    for (r, s) in P.set_I1():
        lhs = th.radford_image("upup", (r, s))
        dp, dm = plus.qdiff(r).inv(), minus.qdiff(s).inv()
        sp, sm = plus.qsum(r), minus.qsum(s)
        sgn = (-1) ** (r + s)
        rhs = chain([(cb.elements["e", (r, s)], pref * dp * dm)],
                    th.radford_terms(varphi_diag(P, minus, r, s), sp * dp * sgn),
                    th.radford_terms(varphi_diag(P, plus, r, s), sm * dm * sgn),
                    th.radford_terms(kappa(P, r, s), -(sp * sm * dp * dm * sgn)))
        ok = ok and (lhs - P.linear_combination(rhs)).is_zero()
    checks.append(("double pseudotrace images decompose as stated", ok, ""))

    # Theory.radford_solver raises on a dependent set
    try:
        basis_ok = th.radford_solver.rank == center_dimension(P)
    except RuntimeError:
        basis_ok = False
    checks.append(("Radford basis is a basis of the center", basis_ok, ""))
    return checks


def suite_drinfeld(theory: Theory):
    P = theory.params
    th = theory
    checks = []
    mm = th.m_matrix

    checks.append(("(epsilon (x) id) of the M-matrix = 1",
                   mm.counit_left() == P.one, ""))
    checks.append(("chi+(1,1) = 1", th.drinfeld_image("qtr", (1, 1, 1)) == P.one, ""))

    images = {lab: th.drinfeld_image("qtr", lab) for lab in irreducible_labels(P)}
    closed_ok = all((viaM - drinfeld_irreducible_closed_form(P, *lab)).is_zero()
                    for lab, viaM in images.items())
    checks.append(("irreducible Drinfeld images match closed forms", closed_ok, ""))

    # on the M-matrix images: the closed forms are twisted by construction
    twist = P.gen("K", P.pp) * ((-1) ** (P.p_plus + P.p_minus))
    factor_ok = all(images[-1, r, s] == images[1, r, s] * twist
                    for alpha, r, s in images if alpha < 0)
    checks.append(("minus images are K^{p+p-}-twists of plus images",
                   factor_ok, ""))
    checks.append(("all Drinfeld images are central",
                   all(is_central(P, viaM) for viaM in images.values()), ""))

    # pseudotrace closed forms: a is the sector's own index, b the other's
    pt_ok = True
    pt_cases = 0
    for sec, other in zip(P.sectors, P.sectors[::-1]):
        for a in range(1, sec.p):
            for b in range(1, sec.p_other + 1):
                closed = theta_bracket(P, sec, a) * chi_sector(P, other, b) * ((-1) ** b)
                pt_cases += 1
                if not (th.drinfeld_image(sec.pseudo, sec.lab(a, b)) - closed).is_zero():
                    pt_ok = False
    for (r, s) in P.set_I1():
        closed = (theta_bracket(P, P.plus, r) * theta_bracket(P, P.minus, s)
                  * ((-1) ** (r + s)))
        pt_cases += 1
        if not (th.drinfeld_image("upup", (r, s)) - closed).is_zero():
            pt_ok = False
    checks.append(("pseudotrace Drinfeld images match closed forms", pt_ok,
                   f"cases={pt_cases}"))

    # injectivity of chi on Ch: the Radford coordinates of the images, the
    # columns of ModularAction.C, have full rank
    cols = th.drinfeld_coordinates
    checks.append(("Drinfeld map is injective on Ch (basis of Z)",
                   all(co is not None for co in cols)
                   and closure_rank(map(sparse_vector, cols), ()) == len(cols)
                   == center_dimension(P), ""))

    checks.append(("M-matrix intertwines the coproduct (tensor-square identity)",
                   not mm.intertwining_failures(), ""))

    # Prop 4.1 decomposition of every irreducible Drinfeld image
    checks.append(("irreducible Drinfeld images decompose per the master formula",
                   _check_chi_decompose(th), ""))
    checks.append(("pseudotrace Drinfeld images decompose as stated",
                   _check_pseudo_decompose(th), ""))
    return checks



def _msign(n: int) -> int:
    return -1 if n % 2 else 1


def _check_chi_decompose(th: Theory) -> bool:
    """Prop 4.1: each irreducible Drinfeld image, as one vector identity
    over the named families."""
    P = th.params
    plus, minus = P.sectors
    pref = _sqrt2pp32(P).inv()

    def terms(beta, r, sP):
        yield kappa(P, P.p_plus, P.p_minus), pref * r * sP
        sgn = _msign(r * P.p_minus + sP * P.p_plus + beta * P.pp)
        yield kappa(P, 0, P.p_minus), pref * r * sP * sgn
        # each sector's boundary: a, b index (r, sP) in the sector and the
        # other one, c runs over the sector's boundary
        for sec in P.sectors:
            p, po = sec.p, sec.p_other
            a, b = sec.lab(r, sP)
            for c in range(1, p):
                bdry = sec.lab(c, po)
                sgn = _msign((a - 1) * po + (beta * po + b) * (c + p))
                yield {(sec.pseudo, bdry): 1}, -(pref * b * sgn * sec.qdiff(a * c))
                sgn = _msign(a * po + (beta * po - b) * (p - c))
                yield kappa(P, *bdry), pref * r * sP * sgn * sec.qsum(a * c)
        for (s, sp) in P.set_I1():
            dQp, sQp = plus.qdiff(r * s), plus.qsum(r * s)
            dQm, sQm = minus.qdiff(sP * sp), minus.qsum(sP * sp)
            sgn = _msign((beta * P.p_plus + r - 1) * sp + (beta * P.p_minus + sP - 1) * s)
            yield {("upup", (s, sp)): 1}, pref * sgn * dQp * dQm
            sgn = _msign((beta * P.p_plus - r) * sp + (beta * P.p_minus - sP) * s)
            yield varphi_diag(P, plus, s, sp), -(pref * sgn * sP * sQm * dQp)
            yield varphi_diag(P, minus, s, sp), -(pref * sgn * r * sQp * dQm)
            yield kappa(P, s, sp), pref * sgn * r * sP * sQp * sQm

    return all(th.radford_vector(terms(beta, r, sP))
               == th.drinfeld_vector("qtr", (1 - 2 * beta, r, sP))
               for beta in (0, 1) for r in range(1, P.p_plus + 1)
               for sP in range(1, P.p_minus + 1))


def _check_pseudo_decompose(th: Theory) -> bool:
    """Each pseudotrace Drinfeld image, as one vector identity over the
    named families."""
    P = th.params
    sq = (P.sqrt2() * P.sqrt_pp()).inv()
    I1 = P.set_I1()

    def column_row(sec, other, a, b):
        """The column (plus) or row (minus) image: a, b are the sector's
        own and the other sector's index of its label, c, d those of each
        summand's label."""
        p, po = sec.p, sec.p_other
        if b == po:
            k = sq * sec.qdiff(1) * ((-1) ** po)
            for c in range(1, p):
                sgn = _msign(po * (c + p + a))
                yield rho_diag(P, sec, *sec.lab(c, po)), k * sgn * sec.qint(a * c)
            for lab in I1:
                c, d = sec.lab(*lab)
                sgn = _msign((a + p) * d + po * c)
                yield rho_diag(P, sec, *lab), k * sgn * 2 * sec.qint(a * c)
            return
        k = sq * Fraction(1, po) * ((-1) ** b)
        for c in range(1, p):
            sgn = _msign(b * (c + p) + po * a)
            yield rho_diag(P, sec, *sec.lab(c, po)), k * b * sgn * sec.qdiff(a * c)
        for lab in I1:
            c, d = sec.lab(*lab)
            kd = k * _msign(a * d + b * c) * sec.qdiff(a * c)
            yield rho_diag(P, sec, *lab), kd * b * other.qsum(b * d)
            yield varphi_arrow(P, other, *lab), -(kd * other.qdiff(b * d))

    def double(r, sP):
        for (s, sp) in I1:
            yield varphi_hat(P, s, sp), (sq * _msign(r * sp + sP * s + r + sP)
                                         * P.plus.qdiff(r * s) * P.minus.qdiff(sP * sp))

    return (all(th.radford_vector(column_row(sec, other, a, b))
                == th.drinfeld_vector(sec.pseudo, sec.lab(a, b))
                for sec, other in zip(P.sectors, P.sectors[::-1])
                for a in range(1, sec.p) for b in range(1, sec.p_other + 1))
            and all(th.radford_vector(double(*lab)) == th.drinfeld_vector("upup", lab)
                    for lab in I1))


def suite_ribbon(theory: Theory):
    P = theory.params
    th = theory
    ctx = P.ctx
    checks = []
    rib = th.ribbon
    mm = th.m_matrix
    zeta = ctx.root_of_unity

    checks.append(("ribbon element is central", is_central(P, rib.v), ""))
    checks.append(("epsilon(v) = 1", rib.v.counit() == ctx.one, ""))
    checks.append(("S(v) = v (antipode invariance)",
                   (rib.v.antipode() - rib.v).is_zero(), ""))

    eig_ok = True
    for lab, m in theory.irreducibles.items():
        actv = m.act(rib.v)
        ev = zeta(conformal_weight_exponent(P, *P.block_of(*lab)))
        if not (actv - SparseMat.identity(m.dim, ctx).scale(ev)).is_zero():
            eig_ok = False
    checks.append(("eigenvalue exp(2 i pi Delta) on every irreducible",
                   eig_ok, ""))
    d11 = conformal_weight_exponent(P, 1, 1)
    checks.append(("Delta_{1,1} = 0 exactly", d11 % P.N == 0, ""))

    # the central products of the Jordan split, on the weight forms
    mul = P.weight_mul
    v, vbar, vstar, vplus, vminus = map(P.weight_form, (
        rib.v, rib.v_semisimple, rib.v_unipotent, rib.v_factor_plus, rib.v_factor_minus))
    checks.append(("multiplicative Jordan split v = vbar v*", mul(vbar, vstar) == v, ""))
    x = P.weight_form(rib.v_unipotent - P.one)
    checks.append(("(v* - 1) is nilpotent (cube vanishes)", not mul(mul(x, x), x), ""))
    checks.append(("v* = (1 + chi_col(1,1)/p+)(1 + chi_row(1,1)/p-)",
                   mul(vplus, vminus) == vstar, ""))
    cf_ok = all((ribbon_factor_closed_form(P, sec) - factor).is_zero()
                for sec, factor in zip(P.sectors, (rib.v_factor_plus, rib.v_factor_minus)))
    checks.append(("unipotent factors match the explicit double sums", cf_ok, ""))

    vinv = th.central_inverse(rib.v)
    checks.append(("M Delta(v) = v (x) v (tensor-square identity)",
                   not mm.ribbon_identity_failures(rib.v, vinv), ""))

    checks.append(("ribbon decomposition in canonical elements",
                   _check_ribbon_decompose(th), ""))
    return checks


def _check_ribbon_decompose(th: Theory) -> bool:
    P = th.params
    zeta = P.ctx.root_of_unity
    cb = th.center
    rib = th.ribbon
    plus, minus = P.sectors
    pref = _sqrt2pp32(P).inv()

    def terms():
        for (r, s) in P.set_I():
            yield cb.elements["e", (r, s)], zeta(conformal_weight_exponent(P, r, s))
        for (r, s) in P.set_I1():
            ph = zeta(conformal_weight_exponent(P, r, s))
            # a, b: the sector's own and the other sector's index of (r, s)
            for sec, (near, far) in zip(P.sectors, (("se", "nw"), ("sw", "ne"))):
                a, b = sec.lab(r, s)
                c = ph * sec.qdiff(a) * Fraction(1, 4 * sec.p ** 2) * ((-1) ** b)
                yield cb.elements["v", (near, (r, s))], c * a
                yield cb.elements["v", (far, (r, s))], -(c * (sec.p - a))
            c = ph * plus.qdiff(r) * minus.qdiff(s) * pref * ((-1) ** (r + s))
            yield from th.radford_terms(varphi_hat(P, r, s), c)
        for sec in P.sectors:
            for a in range(1, sec.p):
                lab = sec.lab(a, sec.p_other)
                ph = zeta(conformal_weight_exponent(P, *lab))
                c = ph * sec.qdiff(a) * pref * ((-1) ** (P.p_plus + P.p_minus + a))
                yield from th.radford_terms(rho_diag(P, sec, *lab), -c)

    return (rib.v - P.linear_combination(terms())).is_zero()


def suite_modular(theory: Theory):
    P = theory.params
    checks = []
    ma = theory.modular_action
    rel = ma.sl2z_relations()
    checks.append(("S^2 = id on the center", rel["S2_identity"], ""))
    checks.append(("S^4 = id", rel["S4_identity"], ""))
    checks.append(("S^-1(1) = Lambda", rel["S_inv_of_unit_is_cointegral"], ""))
    scal = rel["ST3_S-2_scalar"]
    checks.append(("(ST)^3 S^-2 is the scalar 1",
                   rel["ST3_S-2_is_scalar"] and rel["ST3_S-2_scalar_is_one"],
                   f"scalar={scal!r}"))
    checks.append(("S exchanges the Radford and Drinfeld bases",
                   ma.verify_s_exchanges_bases(), ""))

    rep = ma.verify_subrepresentations()
    blocks = rep["blocks"]
    detail = "+".join(str(b["dim"]) for b in blocks.values())
    checks.append((f"five stable blocks with dims {detail}", rep["ok"],
                   str(rep["failures"][:4])))

    rep = ma.verify_transformations()
    checks.append(("T-transformation formulas on the adapted families",
                   rep["ok"], str(rep["failures"][:4])))

    rep = ma.verify_grothendieck_subrep()
    checks.append(("Grothendieck image: span equality + T-diagonal action",
                   rep["ok"],
                   f"literal S-closure={rep['literal_st_closed']},"
                   f" closure rank={rep['closure_rank']}"))

    rep = ma.verify_factorization()
    checks.append(("S = S* Sbar and three pairwise-commuting factors",
                   rep["ok"], str(rep["failures"][:4])))
    checks.append(("S(v) = v^-1 up to the anomaly scalar lambda(v^-1)",
                   rep["s_of_ribbon"],
                   f"scalar={rep['anomaly_scalar']!r},"
                   f" literal={rep['s_of_ribbon_literal']}"))
    if P.p_plus == 2 and P.p_minus == 3:
        checks.append(("central charge c = 0 and T-phase = 1 at (2,3)",
                       ma.data.central_charge == 0 and ma.data.t_phase == P.ctx.one,
                       ""))
    return checks


SUITE_ORDER = [
    ("hopf-axioms", suite_hopf),
    ("module-relations", suite_modules),
    ("fusion-three-way", suite_fusion),
    ("chebyshev-presentation", suite_presentation),
    ("integral-suite", suite_integral),
    ("qcharacter-space", suite_qcharacters),
    ("center-structure", suite_center),
    ("radford-images", suite_radford_images),
    ("drinfeld-images", suite_drinfeld),
    ("ribbon-element", suite_ribbon),
    ("modular-action", suite_modular),
]

# The lazily built Theory structures each suite reads, by attribute path
# (operator.attrgetter: "ribbon.v_semisimple" reads that attribute of
# Theory.ribbon, which builds it).  A pooled run builds the listed structures
# of every selected suite in the caller before it forks, so each is built
# once and the workers share it.  A structure that is not listed is built
# lazily in each worker that reads it; nothing checks this table, and a
# stale one costs only speed.
SUITE_READS = {
    "hopf-axioms": (),
    "module-relations": ("gr_index", "irreducibles", "projective_covers"),
    "fusion-three-way": ("gr_index", "drinfeld_coordinates", "center_basis_change"),
    "chebyshev-presentation": (),
    "integral-suite": ("integral", "radford_basis"),
    "qcharacter-space": ("characters.solver",),
    "center-structure": ("center", "characters"),
    "radford-images": ("center", "radford_basis"),
    "drinfeld-images": ("m_matrix.weight_slices", "drinfeld_basis", "drinfeld_coordinates"),
    "ribbon-element": ("ribbon.v_semisimple", "ribbon.v_unipotent", "m_matrix.weight_slices",
                       "center_basis_change", "radford_basis", "irreducibles"),
    "modular-action": ("modular_action", "ribbon.v_semisimple", "ribbon.v_unipotent",
                       "integral", "center_basis_change"),
}

# The order in which a pool takes the suites: longest check stage first, as
# measured in forked workers at (2,5), where ribbon-element alone outlasts
# the other ten together.
HEAVIEST_FIRST = ("ribbon-element", "fusion-three-way", "modular-action",
                  "drinfeld-images", "qcharacter-space", "integral-suite",
                  "center-structure", "module-relations", "hopf-axioms",
                  "radford-images", "chebyshev-presentation")


def available_suites():
    return [name for name, _ in SUITE_ORDER]


class SuiteSelectionError(ValueError):
    """A suite selection that is empty or names an unknown suite."""


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def _instrumented(suites) -> bool:
    """A profiler or tracer counts in this process: a profile or trace hook
    is set, or a suite is a wrapper (functools.wraps leaves __wrapped__).
    What it counted in a forked worker would be lost when the worker ends,
    so such a ledger runs in-process."""
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or any(hasattr(fn, "__wrapped__") for fn in suites.values()))


def _timed(fn, theory):
    """(fn(theory), its wall time in seconds)."""
    t0 = time.perf_counter()
    checks = fn(theory)
    return checks, time.perf_counter() - t0


# Set only in a pool worker, by _enter_worker: the theory and the suites by
# name, inherited from the caller at the fork.
_WORKER = {}


def _enter_worker(theory, suites):
    _WORKER.update(theory=theory, suites=suites)


def _run_in_worker(name):
    return _timed(_WORKER["suites"][name], _WORKER["theory"])


def _suite_pool(theory, suites):
    """(pool, its worker processes): min(CPUs, suites) forked workers that
    read the caller's structures copy-on-write, every structure the suites
    read built first.  None, with nothing built, for fewer than two suites
    or usable CPUs, where fork is not available, when the process runs
    other threads (a fork copies only the calling one), or when it is
    instrumented (_instrumented)."""
    workers = min(_usable_cpus(), len(suites))
    if workers < 2 or _instrumented(suites):
        return None
    import multiprocessing
    import threading
    if ("fork" not in multiprocessing.get_all_start_methods()
            or threading.active_count() > 1):
        return None
    for name in suites:
        for path in SUITE_READS[name]:
            attrgetter(path)(theory)
    others = multiprocessing.active_children()
    pool = multiprocessing.get_context("fork").Pool(
        workers, initializer=_enter_worker, initargs=(theory, suites))
    return pool, [p for p in multiprocessing.active_children() if p not in others]


def _worker_result(pending, workers):
    """The value of the pool result `pending`.  A worker that ends before
    the pool is terminated (killed by a signal, say) takes its suite with it
    and the pool would wait for that suite forever, so this raises
    ChildProcessError instead."""
    while not pending.ready():
        pending.wait(1.0)
        if any(p.exitcode is not None for p in workers):
            raise ChildProcessError("a ledger worker ended before its suite finished")
    return pending.get()


def run_suites(p_plus: int, p_minus: int, selection=None, report=print):
    """Run the selected verification suites; returns (all_passed, results).

    results is a list of (suite, check, passed, detail, seconds), in
    declaration order regardless of execution details.  selection is None
    for every suite, else a nonempty collection of suite names; anything
    else raises SuiteSelectionError, a ValueError, before any work.

    With two or more suites and usable CPUs the suites run in a fork pool
    (_suite_pool), heaviest first, unless a profiler or tracer counts in
    this process; otherwise they run here, one after the other.  Either way results and report lines go out in declaration
    order, each suite's as soon as every earlier one is done, seconds is the
    suite's own wall time, and an exception a suite raises reaches the
    caller after every worker has ended.
    """
    if selection is not None:
        selection = set(selection)
        bad = selection - set(available_suites())
        if bad or not selection:
            what = f"unknown checks {sorted(bad)}" if bad else "the selection names no suite"
            raise SuiteSelectionError(f"{what}; available: {available_suites()}")
    P = Params(p_plus, p_minus)
    theory = Theory(P)
    suites = {name: fn for name, fn in SUITE_ORDER
              if selection is None or name in selection}
    pooled = _suite_pool(theory, suites)
    try:
        if pooled:
            pool, workers = pooled
            pending = {name: pool.apply_async(_run_in_worker, (name,))
                       for name in sorted(suites, key=HEAVIEST_FIRST.index)}
        results = []
        all_ok = True
        for name, fn in suites.items():
            checks, dt = (_worker_result(pending[name], workers) if pooled
                          else _timed(fn, theory))
            for check, passed, detail in checks:
                results.append((name, check, passed, detail, dt))
                all_ok = all_ok and passed
                if report:
                    status = "PASS" if passed else "FAIL"
                    extra = f"  [{detail}]" if detail else ""
                    report(f"[{status}] {name}: {check}{extra}")
            if report:
                report(f"       ({name}: {dt:.1f}s)")
    finally:
        if pooled:
            pool.terminate()
            pool.join()
    # P never leaves this call
    P.release()
    return all_ok, results
