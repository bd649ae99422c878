"""The center, two ways: brute-force commutant and the canonical basis.

The canonical basis consists of one primitive idempotent e(r,s) per linkage
block plus nilpotent elements built from the Casimir projections and the
K-weight projectors:

* interior blocks (r,s) carry four 'v' elements (one-step shifts) with the
  momentum-conserving products v_ne * v_nw = 8 w_up etc., and four 'w'
  elements killing everything but the deepest subquotient;
* boundary blocks carry two 'v' elements each;
* Steinberg-type blocks are semisimple.

A block's members, and the arrows that key its 'w' and boundary 'v'
elements and its read probes, are those of the linkage table,
Params.linked / Params.block_members.

Construction: the minimal polynomial psi_p of each Casimir factors with
double roots away from +-2.  psi_p is defined once, as the LaurentZ
`cyclotomic.psi_poly`, which the Chebyshev presentation of the Grothendieck
ring reads too.  Dividing it by the root factor yields, after the usual
Jordan-block correction, a sector idempotent e_pm and nilpotent w_pm per
root.  Products of sector elements with the K-weight projectors then carve
out the canonical elements.  Each nilpotent is normalized so that it acts
as the unit shift on the distinguished basis entries of the projective
covers; the decomposition of an arbitrary central element reads its
coefficients directly off those same entries, and those of the
idempotents off the irreducibles, where each acts as 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraElement, Params, Sector
from .cyclotomic import Cyclo, horner, psi_poly, sparse_sum, sum_products
from .linalg import nullspace
from .reps import cached_irreducible, cached_projective

__all__ = [
    "weight_projectors",
    "canonical_basis",
    "CanonicalCenterBasis",
    "center_brute_force",
    "decompose_central",
    "center_dimension",
]

# w arrow -> the two v arrows of its block whose product is
# RADICAL_PRODUCT_SCALE * w
_W_FACTORS = {"up": ("ne", "nw"), "right": ("ne", "se"),
              "left": ("nw", "sw"), "down": ("se", "sw")}


def center_dimension(params: Params) -> int:
    return ((3 * params.p_plus - 1) * (3 * params.p_minus - 1)) // 2


def weight_projectors(params: Params, r: int, s: int):
    """Orthogonal idempotents in the group algebra of K projecting on the
    K-weights of the four corners of the (r, s) cell; returns a dict with
    keys 'up', 'left', 'right', 'down'."""
    P = params
    zeta = P.ctx.root_of_unity
    scale = Fraction(1, P.korder)

    def build(arange, brange, alternating):
        sums = sparse_sum(
            (j, zeta(-12 * (P.p_minus * a + P.p_plus * b) * j))
            for j in range(P.korder) for a in arange for b in brange)
        return AlgebraElement(P, {
            (0, 0, 0, 0, j): c * (-scale if alternating and j % 2 else scale)
            for j, c in sums.items()})

    up_a = range(-r + 1, r, 2)
    up_b = range(-s + 1, s, 2)
    rf_a = range(-(P.p_plus - r) + 1, P.p_plus - r, 2)
    rf_b = range(-(P.p_minus - s) + 1, P.p_minus - s, 2)
    return {
        "up": build(up_a, up_b, False),
        "left": build(up_a, rf_b, True),
        "right": build(rf_a, up_b, True),
        "down": build(rf_a, rf_b, False),
    }


# ----------------------------------------------------------------------
# Casimir minimal polynomials and sector projections
# ----------------------------------------------------------------------

def _poly_div_linear(poly, root, ctx):
    """Exact division of poly by (x - root); remainder must vanish."""
    n = len(poly) - 1
    out = [ctx.zero] * n
    carry = ctx.zero
    for i in range(n, 0, -1):
        out[i - 1] = poly[i] + carry
        carry = out[i - 1] * root
    rem = poly[0] + carry
    if not rem.is_zero():
        raise ArithmeticError("nonzero remainder in linear division")
    return out


def _sector_projection(params: Params, sec: Sector, beta: Cyclo, powers):
    """(e_sector, w_sector) for the Casimir root beta; powers are those of
    the sector's Casimir."""
    P = params
    ctx = P.ctx
    psi = [ctx.integer(c) for c in psi_poly(sec.p).coefficients()]
    two = ctx.integer(2)
    simple = beta == two or beta == -two
    red = _poly_div_linear(psi, beta, ctx)
    if not simple:
        red = _poly_div_linear(red, beta, ctx)
    val = horner(red, beta, ctx.zero)
    red_at_c = P.linear_combination(zip(powers, red))
    if simple:
        w = P.zero
        e = red_at_c * val.inv()
    else:
        # w = (C - beta) * red(C);  e = (red(C) - (red'(beta)/val) w) / val
        cas = powers[1]
        w = (cas - P.scalar(beta)) * red_at_c
        dval = horner([c * i for i, c in enumerate(red)][1:], beta, ctx.zero)
        e = (red_at_c - w * (dval * val.inv())) * val.inv()
    return e, w


@dataclass
class CanonicalCenterBasis:
    """Idempotents and canonical nilpotents, with their product table.

    elements maps each label (family, key) to its element, in the one order
    every coordinate over the center uses (the center table,
    Theory.center_basis_change, product_table()): the families in turn,
    each sorted by key,

    * 'e', key (r,s) in I: the primitive idempotents;
    * 'v', key (arrow, (r,s)), arrows 'ne','nw','sw','se', (r,s) in I1;
    * 'w', key (arrow, (r,s)), arrows 'up','right','left','down', (r,s) in I1;
    * 'vb', key ('up'|'right', (r, p_-)) or ('up'|'left', (p_+, s)): the
      boundary nilpotents.

    probes maps the same labels to (module, tgt, src, read): the matrix
    entry (tgt, src) of the module off which decompose_central reads the
    label's coefficient, and read, the element's own value there.  A
    nilpotent's probe is the entry of a projective cover on which it acts
    as the unit shift; an idempotent's is the (0, 0) entry of its block's
    'up' irreducible, where it acts as 1, so its read is 1.

    Every element belongs to one block (r,s) in I: e(r,s) to its own, each
    nilpotent to the (r,s) in its key.  In this basis the product of the
    center is the fixed table of product_table():

    * the idempotents are orthogonal, e(a) e(b) = delta_ab e(a);
    * e(blk) n = n for every nilpotent n of block blk;
    * in each interior block v_ne v_nw = 8 w_up, v_ne v_se = 8 w_right,
      v_nw v_sw = 8 w_left and v_se v_sw = 8 w_down;
    * every other product is 0: v_ne v_sw, v_nw v_se, the squares of the
      v, every product with a w or a boundary v and a second nilpotent,
      and every product across blocks.

    The ledger proves it in center-structure: the idempotents check proves
    the first line, and the radical product table check
    (verify.radical_table_holds) proves e(blk) n = n and every product of
    two nilpotents of one block, squares included, with one algebra
    product each.  Products across blocks vanish because n = e(blk) n.

    The nilpotents follow the explicit Casimir-projector construction; the
    'w' family carries an extra factor 1/8 relative to the raw products
    w_+ w_- pi, the scale on which all the Radford-image decompositions
    hold with their stated prefactors.  The raw product convention would
    instead make the radical multiplication table hold on the nose; the
    two normalizations genuinely differ by the constant 8 (independent of
    the parameters and of the block), hence RADICAL_PRODUCT_SCALE.
    """

    params: Params
    elements: dict     # (family, key) -> AlgebraElement, in the canonical order
    probes: dict       # (family, key) -> (module, tgt, src, read)

    RADICAL_PRODUCT_SCALE = 8

    @staticmethod
    def block(label):
        """The block (r,s) in I of a label."""
        family, key = label
        return key if family == "e" else key[1]

    def product_table(self):
        """The nonzero products of basis elements as {(i, j): (k, c)}: the
        i-th element times the j-th is c times the k-th, with an integer c."""
        index = {lab: i for i, lab in enumerate(self.elements)}
        table = {}
        for lab, i in index.items():
            e = index["e", self.block(lab)]
            table[(i, e)] = table[(e, i)] = (i, 1)
        for (family, key), k in index.items():
            if family == "w":
                arrow, blk = key
                a, b = _W_FACTORS[arrow]
                i, j = index["v", (a, blk)], index["v", (b, blk)]
                table[(i, j)] = table[(j, i)] = (k, self.RADICAL_PRODUCT_SCALE)
        return table


# the families of the canonical basis, in the order of its elements
FAMILIES = ("e", "v", "w", "vb")


def _probe_entries(params: Params) -> dict:
    """(family, key) -> (module, tgt, src) for each canonical element: the
    matrix entry that CanonicalCenterBasis.probes reads."""
    P = params
    entries = {("e", blk): (cached_irreducible(P, *P.block_members(*blk)["up"]), 0, 0)
              for blk in P.set_I()}

    def entry(module, src, tgt):
        return module, module.index[tgt], module.index[src]

    uu, ud, du, dd = ("u", "u", 0, 0), ("u", "d", 0, 0), ("d", "u", 0, 0), ("d", "d", 0, 0)
    for (r, s) in P.set_I1():
        cover = {arrow: cached_projective(P, *lab)
                 for arrow, lab in P.linked(1, r, s).items()}
        entries.update({
            ("v", ("ne", (r, s))): entry(cover["up"], uu, du),
            ("v", ("nw", (r, s))): entry(cover["left"], uu, ud),
            ("v", ("sw", (r, s))): entry(cover["down"], uu, du),
            ("v", ("se", (r, s))): entry(cover["right"], uu, ud),
        })
        entries.update({("w", (arrow, (r, s))): entry(m, uu, dd) for arrow, m in cover.items()})
    u, d = ("u", 0, 0), ("d", 0, 0)
    for sec in P.sectors:
        for a in range(1, sec.p):
            lab = sec.lab(a, sec.p_other)
            for arrow, member in P.linked(1, *lab).items():
                entries["vb", (arrow, lab)] = entry(cached_projective(P, *member), u, d)
    return entries


def canonical_basis(params: Params) -> CanonicalCenterBasis:
    P = params
    plus, minus = P.sectors
    powers = {}
    for sec, cas in zip(P.sectors, P.casimirs()):
        powers[sec] = [P.one]
        for _ in range(2 * sec.p):
            powers[sec].append(powers[sec][-1] * cas)

    # (e, w) for each Casimir root: every block used below is in I, and
    # blocks sharing a root share its projection
    roots = dict.fromkeys(
        (sec, sec.casimir_eigenvalue(1, r, s))
        for (r, s) in P.set_I() for sec in P.sectors)
    sector = {(sec, beta): _sector_projection(P, sec, beta, powers[sec])
              for sec, beta in roots}

    def projection(sec, r, s):
        return sector[sec, sec.casimir_eigenvalue(1, r, s)]

    elements = {("e", (r, s)): projection(plus, r, s)[0] * projection(minus, r, s)[0]
                for (r, s) in P.set_I()}

    eighth = Fraction(1, CanonicalCenterBasis.RADICAL_PRODUCT_SCALE)
    for (r, s) in P.set_I1():
        proj = weight_projectors(P, r, s)
        ep, wp = projection(plus, r, s)
        em, wm = projection(minus, r, s)
        elements["v", ("ne", (r, s))] = ep * wm * (proj["up"] + proj["right"])
        elements["v", ("sw", (r, s))] = ep * wm * (proj["left"] + proj["down"])
        elements["v", ("nw", (r, s))] = wp * em * (proj["up"] + proj["left"])
        elements["v", ("se", (r, s))] = wp * em * (proj["right"] + proj["down"])
        wpm = wp * wm
        for arrow in _W_FACTORS:
            elements["w", (arrow, (r, s))] = wpm * proj[arrow] * eighth

    # on the boundary of a sector, its nilpotent times the other sector's
    # idempotent
    for sec, other in zip(P.sectors, P.sectors[::-1]):
        for a in range(1, sec.p):
            lab = sec.lab(a, sec.p_other)
            proj = weight_projectors(P, *lab)
            nil = projection(sec, *lab)[1] * projection(other, *lab)[0]
            for arrow in P.linked(1, *lab):
                elements["vb", (arrow, lab)] = nil * proj[arrow]

    elements = {lab: elements[lab] for lab in sorted(
        elements, key=lambda lab: (FAMILIES.index(lab[0]), lab[1]))}
    entries = _probe_entries(P)
    probes = {}
    for lab, el in elements.items():
        module, tgt, src = entries[lab]
        read = module.act_entry(el, tgt, src)
        if read.is_zero():
            raise ArithmeticError(f"degenerate read entry for {lab}")
        probes[lab] = (module, tgt, src, read)
    return CanonicalCenterBasis(P, elements, probes)


# ----------------------------------------------------------------------
# brute-force commutant
# ----------------------------------------------------------------------

def center_brute_force(params: Params):
    """Nullspace of the commutator map restricted to K-weight-zero
    monomials; returns a list of central AlgebraElements."""
    P = params
    unknowns = [m for m in P.monomials() if P.weight(m) == 0]
    index = {m: i for i, m in enumerate(unknowns)}
    # one row per (generator, target monomial) of [m, gm] = m gm - gm m
    terms_by_target = {}
    for gm in P.live_generators.values():
        for m in unknowns:
            i = index[m]
            for mm, c in P.mono_mul(m, gm).items():
                terms_by_target.setdefault((gm, mm), []).append((i, c))
            for mm, c in P.mono_mul(gm, m).items():
                terms_by_target.setdefault((gm, mm), []).append((i, -c))
    rows = [row for row in map(sparse_sum, terms_by_target.values()) if row]
    basis = nullspace(rows, len(unknowns), P.ctx)
    out = []
    for vec in basis:
        out.append(AlgebraElement(P, {unknowns[i]: v for i, v in enumerate(vec)
                                      if not v.is_zero()}))
    return out


def is_central(params: Params, z: AlgebraElement) -> bool:
    """z commutes with the five generators.

    K m K^-1 = zeta^(12 weight(m)) m, so z commutes with K exactly when
    every monomial of z has weight 0.  For g = e_pm, f_pm,
    (B K^j) g = zeta^(kphase(g, j)) (B g) K^j and g (B K^j) = (g B) K^j, so
    the terms of z g and -g z come from the straightened K-free products
    B g and g B; they go to one sum_products batch keyed by (g, monomial),
    and z commutes with every g exactly when no sum is nonzero."""
    P = params
    if any(P.weight(m) for m in z.coeffs):
        return False
    ko, mono_mul = P.korder, P.mono_mul
    terms = [(m[:4] + (0,), m[4], c, -c) for m, c in z.coeffs.items()]

    def triples():
        for name, gm in P.live_generators.items():
            for b, j, c, neg in terms:
                x = c.shift(P.kphase(gm, j))
                for m, s in mono_mul(b, gm).items():
                    yield (name, m[:4] + ((m[4] + j) % ko,)), x, s
                for m, s in mono_mul(gm, b).items():
                    yield (name, m[:4] + ((m[4] + j) % ko,)), neg, s

    return not sum_products(triples())


# ----------------------------------------------------------------------
# decomposition in the canonical basis
# ----------------------------------------------------------------------

def decompose_central(params: Params, z: AlgebraElement,
                      basis: CanonicalCenterBasis) -> dict:
    """The coefficients of the central element z over the canonical basis,
    {label: coefficient} in the order of basis.elements, each read off the
    label's probe.  Raises ValueError when z is not central and
    ArithmeticError when the coefficients do not reconstruct z."""
    P = params
    if not is_central(P, z):
        raise ValueError("element is not central")
    coeffs = {lab: module.act_entry(z, tgt, src) * read.inv()
              for lab, (module, tgt, src, read) in basis.probes.items()}
    if not (P.linear_combination((basis.elements[lab], c) for lab, c in coeffs.items())
            - z).is_zero():
        raise ArithmeticError("decomposition does not reconstruct the element")
    return coeffs
