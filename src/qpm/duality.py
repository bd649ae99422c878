"""Integral data, Radford map, M-matrix, Drinfeld map, ribbon element.

The distinguished functional lambda (right integral) and element Lambda
(two-sided cointegral) are normalized so that lambda(Lambda) = 1 with the
overall scale zeta fixed by

    zeta * ([p_+ - 1]_+! [p_- - 1]_-!)^2 = sqrt(p_+ p_- / 2),

the choice that makes the square of the modular S-map the identity on the
center.  The Radford map phi(beta) = sum beta(Lambda') Lambda'' and its
inverse phi^-1(x) = lambda(S(x) . ) exchange q-characters and central
elements.

The M-matrix is the paper's six-fold indexed sum, kept with its first leg
on the weight idempotents of K,

    1_w = (1/ko) sum_j zeta_ko^(-w j) K^j,   zeta_ko = zeta^12,  ko = 2 p_+ p_-,

so that K^j 1_w = zeta_ko^(w j) 1_w and 1_w B = B 1_(w - weight(B)) for a
K-free monomial B (weight as in Params.weight).  Its Cartan factor, a
Gaussian kernel in the two K-power indices, is diagonal there: each pair of
leg terms and each second-leg K power gives one term (B1 1_w) (x) m2.  The
Drinfeld map (beta (x) id)(M) reads beta(B 1_w) off beta's values on the
B K^j.  M is built one first-leg sector weight at a time, on request: the
Drinfeld map of a q-character reads the weight (0, 0) alone.  Both
tensor-square identities are checked exactly in the tensor square itself,
with the first leg in the weight form and the second in PBW.
M Delta(x) = Delta(x) M is checked for x = K through the weights of M's
terms, for x = e_pm, f_pm from the terms of both products, where a product
with B 1_w is one straightening and a phase.  M Delta(v) = v (x) v is
checked as Delta(v^-1) = (v^-1 (x) v^-1) M: Delta(v^-1)'s first leg B K^j
is sum_w zeta_ko^(w j) B 1_w, and v^-1 (B1 1_w) is one weight_mul.  Each
side's terms are scalar products whose difference is tested for zero by
the keys of one sum_products batch, so neither side is summed; the ribbon
check sums one batch per w and first-leg sector weight, which bounds its
memory and, since a misplaced term only splits a sum, cannot hide a
failure.

The canonical element u (whence the ribbon element v = u g^-1) is taken in
closed form; its defining properties -- centrality, S(v) = v,
epsilon(v) = 1, M Delta(v) = v (x) v, and the conformal-weight eigenvalue
table -- are verified exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain, product

from .algebra import AlgebraElement, Params, Sector, TensorElement
from .center import canonical_basis
from .characters import CharacterSpace, Functional, counit_functional, qtrace
from .cyclotomic import Cyclo, sparse_sum, sum_products
from .linalg import (SpanSolver, columns, invert_dense, mat_mul_dense, mat_vec,
                     sparse_vector)
from .reps import (GrothendieckIndex, cached_irreducible, cached_projective,
                   irreducible_labels)

__all__ = [
    "IntegralData",
    "build_integral_data",
    "delta_cointegral_closed_form",
    "MMatrix",
    "cc_poly_coeffs",
    "chi_sector",
    "theta_sector",
    "theta_bracket",
    "drinfeld_irreducible_closed_form",
    "canonical_element",
    "conformal_weight_exponent",
    "ribbon_factor_closed_form",
    "RibbonData",
    "Theory",
]


# ----------------------------------------------------------------------
# integral and cointegral
# ----------------------------------------------------------------------

@dataclass
class IntegralData:
    params: Params
    zeta_norm: Cyclo          # the scale zeta
    cointegral: AlgebraElement
    integral: Functional
    comodulus: AlgebraElement   # K^{2(p_+ - p_-)}
    balancing: AlgebraElement   # g = K^{p_+ - p_-}


def build_integral_data(params: Params) -> IntegralData:
    P = params
    fact = (P.plus.qfact(P.p_plus - 1) * P.minus.qfact(P.p_minus - 1)) ** 2
    zeta_norm = P.sqrt_half_pp() * fact.inv()
    top = (P.p_plus - 1, P.p_plus - 1, P.p_minus - 1, P.p_minus - 1)
    coeffs = {top + (n,): zeta_norm for n in range(P.korder)}
    cointegral = AlgebraElement(P, coeffs)

    # The right integral vanishes on every reordered-basis word
    # em^{m'} fp^{n} K^{j} ep^{m} fm^{n'} except the top one; in the PBW
    # basis this makes it a single-monomial functional supported on the top
    # monomial, whose coefficient in the top word's normal form fixes the
    # value (the lower straightening terms are unreachable from any other
    # word, which the identity check below confirms).
    word = (P.gen("em", P.p_minus - 1) * P.gen("fp", P.p_plus - 1)
            * P.gen("K", P.p_plus - P.p_minus) * P.gen("ep", P.p_plus - 1)
            * P.gen("fm", P.p_minus - 1))
    top = (P.p_plus - 1, P.p_plus - 1, P.p_minus - 1, P.p_minus - 1,
           (P.p_plus - P.p_minus) % P.korder)
    c = word.coeffs.get(top)
    if c is None:
        raise RuntimeError("top monomial missing from the integral word")
    value = (P.plus.q ** (2 * P.p_minus)) * (P.minus.q ** (2 * P.p_plus)) * zeta_norm.inv()
    integral = Functional(P, {top: value * c.inv()})

    data = IntegralData(
        params=P,
        zeta_norm=zeta_norm,
        cointegral=cointegral,
        integral=integral,
        comodulus=P.gen("K", 2 * (P.p_plus - P.p_minus)),
        balancing=P.gen("K", P.p_plus - P.p_minus),
    )
    errs = verify_integral_data(data)
    if errs:
        raise ArithmeticError(f"integral data invariants failed: {errs}")
    return data


def verify_integral_data(data: IntegralData):
    P = data.params
    errs = []
    lam, Lam = data.integral, data.cointegral
    if lam(Lam) != P.ctx.one:
        errs.append("lambda(Lambda) != 1")
    for name in (*P.live_generators, "K"):
        g = P.gen(name)
        eps = g.counit()
        if not (g * Lam - Lam * eps).is_zero() or not (Lam * g - Lam * eps).is_zero():
            errs.append(f"cointegral invariance fails for {name}")
    errs += _integral_identity_failures(data)
    g = data.balancing
    if g * g != data.comodulus:
        errs.append("g^2 != comodulus")
    ginv = P.gen("K", P.p_minus - P.p_plus)
    for name in (*P.live_generators, "K"):
        x = P.gen(name)
        if x.antipode().antipode() != g * x * ginv:
            errs.append(f"S^2 != Ad_g on {name}")
    return errs


def _integral_identity_failures(data: IntegralData) -> list:
    """(lambda (x) id) Delta(x) = lambda(x) 1 and (id (x) lambda) Delta(x)
    = lambda(x) a, the comodulus, for every PBW monomial x = B K^j; at most
    one failure, the first in monomial order.

    Delta(B K^j) is Delta(B) with the K exponents of both legs raised by
    j, so each contraction reads Delta(B) once per K-free B: a term
    c m1 (x) m2 with m1 = B1 K^i meets lambda's value v at B1 K^e only for
    j = e - i, where it adds c v m2 K^j to the contraction at B K^j."""
    P = data.params
    ko, zero = P.korder, P.ctx.zero
    lam = data.integral.values
    by_free = {}
    for m, v in lam.items():
        by_free.setdefault(m[:4], []).append((m[4], v))

    def contractions(terms):
        """{j: {monomial: coefficient}} over (read leg, kept leg) terms."""
        sums = sum_products(
            ((j, kept[:4] + ((kept[4] + j) % ko,)), c, v)
            for (read, kept), c in terms
            for e, v in by_free.get(read[:4], ())
            for j in ((e - read[4]) % ko,))
        out = {}
        for (j, m), s in sums.items():
            out.setdefault(j, {})[m] = s
        return out

    for b in P.monomials():
        if b[4]:
            continue
        coeffs = P.coproduct_mono(b).coeffs
        left = contractions(coeffs.items())
        right = contractions(((m2, m1), c) for (m1, m2), c in coeffs.items())
        for j in range(ko):
            mono = b[:4] + (j,)
            lx = lam.get(mono, zero)
            if left.get(j, {}) != P.scalar(lx).coeffs:
                return [f"right-integral identity fails at {mono}"]
            if right.get(j, {}) != (data.comodulus * lx).coeffs:
                return [f"comodulus identity fails at {mono}"]
    return []


def delta_cointegral_closed_form(data: IntegralData) -> TensorElement:
    """Independent closed form of Delta(Lambda): a five-fold sum whose
    K-powers appear as squares of the half-order generator, read as
    K^(x) here."""
    P = data.params
    ctx = P.ctx
    zeta = ctx.root_of_unity
    ko = P.korder
    p, q = P.p_plus, P.p_minus

    def terms():
        for r in range(p):
            for m in range(p):
                for n in range(q):
                    for s in range(q):
                        coeff = (zeta(-12 * q * q * (m + r + 1) * (m + r + 2))
                                 * zeta(-12 * p * p * (n + s + 1) * (n + s + 2))
                                 * data.zeta_norm)
                        if (r + m + n + s) % 2:
                            coeff = -coeff
                        for ell in range(ko):
                            m1 = (p - r - 1, m, n, q - 1 - s,
                                  (ell - q * (m + 1) + p * (n + 1)) % ko)
                            m2 = (r, p - 1 - m, q - 1 - n, s,
                                  (ell + q * (r + 1) - p * (s + 1)) % ko)
                            yield (m1, m2), coeff

    return TensorElement(P, sparse_sum(terms()))


def radford(data: IntegralData, beta: Functional) -> AlgebraElement:
    """phi(beta) = sum beta(Lambda') Lambda''."""
    P = data.params
    return P.cached("delta_cointegral", data.cointegral.coproduct).apply_left(
        lambda m: beta.values.get(m, P.ctx.zero))


def _sector_weight(mono):
    """The weight (ep - fp, em - fm) of a PBW monomial; straightening a
    product keeps the sum of its factors' weights."""
    a, b, c, d, _ = mono
    return (b - a, d - c)


def radford_inverse(data: IntegralData, x: AlgebraElement) -> Functional:
    """phi^-1(x) = lambda(S(x) . ).

    lambda(S(x) B K^j) reads the product S(x) B with its K exponents
    shifted by j, so S(x) is multiplied only by the K-free monomials B, and
    only its terms whose weight plus that of B is a weight of the support
    of lambda take part.  Values are listed in monomial order."""
    P = data.params
    ko, one = P.korder, P.ctx.one
    by_weight = {}
    for m, c in x.antipode().coeffs.items():
        by_weight.setdefault(_sector_weight(m), {})[m] = c
    lam = {}
    for m, v in data.integral.values.items():
        lam.setdefault(m[:4] + (0,), []).append((m[4], v))
    lam_weights = {_sector_weight(m) for m in lam}
    values = sparse_sum(
        (b[:4] + ((jl - i) % ko,), c * v)
        for b in P.monomials() if not b[4]
        for wa, wc in (_sector_weight(b),)
        for la, lc in lam_weights
        for part in (by_weight.get((la - wa, lc - wc)),) if part
        for (ma, mb, mc, md, i), c in (AlgebraElement(P, part)
                                       * AlgebraElement(P, {b: one})).coeffs.items()
        for jl, v in lam.get((ma, mb, mc, md, 0), ()))
    return Functional(P, dict(sorted(values.items())))


# ----------------------------------------------------------------------
# the M-matrix
# ----------------------------------------------------------------------

class MMatrix:
    """The M-matrix, the element of the tensor square that commutes with
    the coproduct, kept with its first leg on the weight idempotents 1_w of
    K and split by the sector weight (ep - fp, em - fm) of that first leg:

        weight_class(sw)[B1] = {(w, m2): c, ...}  with  M = sum c (B1 1_w) (x) m2,

    B1 a K-free monomial (K exponent 0) of sector weight sw and m2 a PBW
    monomial.  The six-fold sum's term (m, n, m', n') has the first leg
    fp^n ep^m em^n' fm^m', and straightening keeps a product's sector
    weight, so the term lands in the class (m - n, n' - m') alone.  Each
    class is built on its first request, once; weight_slices is their
    union, the whole M.  This is the one form of M: the contractions read
    the classes they need, both tensor-square checks read weight_slices,
    and none expands it back into PBW first-leg slices."""

    def __init__(self, params: Params):
        self.params = params
        self.classes = {}

    def weight_class(self, sw) -> dict:
        """{B1: {(w, m2): c}} over the first legs B1 of sector weight sw,
        with its keys in the order in which the six-fold sum meets them."""
        cls = self.classes.get(sw)
        if cls is None:
            cls = self.classes[sw] = self._build_class(sw)
        return cls

    @cached_property
    def weight_slices(self) -> dict:
        """{B1: {(w, m2): c}} over every first leg: each class in turn."""
        P = self.params
        return {b1: row
                for sw in dict.fromkeys((m - n, np - mp) for m, n, mp, np in product(
                    range(P.p_plus), range(P.p_plus), range(P.p_minus), range(P.p_minus)))
                for b1, row in self.weight_class(sw).items()}

    def _build_class(self, sw) -> dict:
        """The terms (m, n, m', n') of the six-fold sum with
        (m - n, n' - m') = sw, summed in the weight form."""
        P = self.params
        ko = P.korder
        dQp = -P.plus.qdiff(1)   # q_+^{-p_-} - q_+^{p_-}
        dQm = -P.minus.qdiff(1)

        def terms():
            for m, n, mp, np in product(range(P.p_plus), range(P.p_plus),
                                        range(P.p_minus), range(P.p_minus)):
                if (m - n, np - mp) != sw:
                    continue
                c = (dQp ** (m + n) * dQm ** (mp + np)
                     * (P.plus.qfact(m) * P.minus.qfact(mp)
                        * P.plus.qfact(n) * P.minus.qfact(np)).inv())
                e0 = (6 * P.p_minus * P.p_minus * (m * (m + 1) - n * (n - 1))
                      + 6 * P.p_plus * P.p_plus * (mp * (mp + 1) - np * (np - 1)))
                c = c.shift(e0)
                # first leg: fp^n ep^m em^np fm^mp
                leg1 = P.gen("fp", n) * P.gen("ep", m) * P.gen("em", np) * P.gen("fm", mp)
                # second leg: ep^n fp^m fm^np em^mp
                leg2 = P.gen("ep", n) * P.gen("fp", m) * (P.gen("fm", np) * P.gen("em", mp))
                alpha = P.p_minus * m - P.p_plus * mp  # phase slope
                for (mono1, c1), (mono2, c2) in product(leg1.coeffs.items(),
                                                        leg2.coeffs.items()):
                    # (1/ko) sum_{j, jp} zeta_ko^(alpha (j - jp) + j jp)
                    # B1 K^(k1 + j) (x) B2 K^(k2 + jp): the sum over j is
                    # ko zeta_ko^(w k1) B1 1_w with w = -(alpha + jp)
                    base = c * c1 * c2
                    b1, k1 = mono1[:4] + (0,), mono1[4]
                    for jp in range(ko):
                        w = -(alpha + jp) % ko
                        yield ((b1, w, mono2[:4] + ((mono2[4] + jp) % ko,)),
                               base.shift(12 * ((w * k1 - alpha * jp) % ko)))

        cls = {}
        for (b1, w, m2), c in sparse_sum(terms()).items():
            cls.setdefault(b1, {})[w, m2] = c
        return cls

    # -- contractions ------------------------------------------------------

    def contract_functional(self, beta: Functional) -> AlgebraElement:
        """(beta (x) id)(M), the Drinfeld image of beta: the sum of
        beta(B1 1_w) c m2, with

            beta(B 1_w) = (1/ko) sum_j zeta_ko^(-w j) beta(B K^j).

        Only the first legs B1 in beta's K-free support take part, so only
        their classes are built.  A q-character vanishes off the words of
        sector weight (0, 0) (trace_functional), so its contraction builds
        class (0, 0) alone.

        Both sums are sum_products batches: per first leg, the Fourier sums
        ko beta(B1 1_w) for every w its row meets, keyed by w; then the
        products of the nonzero ones with the row coefficients, keyed by
        m2, over every first leg at once.  The factor 1/ko is applied once
        per output coefficient."""
        P = self.params
        ko = P.korder
        roots = [P.ctx.root_of_unity(-12 * k) for k in range(ko)]
        by_free = {}
        for m, v in beta.values.items():
            by_free.setdefault(m[:4] + (0,), []).append((m[4], v))

        def terms():
            for sw in dict.fromkeys(map(_sector_weight, by_free)):
                for b1, row in self.weight_class(sw).items():
                    values = by_free.get(b1)
                    if values is None:
                        continue
                    hat = sum_products((w, v, roots[w * j % ko])
                                       for w in dict.fromkeys(w for w, _ in row)
                                       for j, v in values)
                    for (w, m2), c in row.items():
                        h = hat.get(w)
                        if h is not None:
                            yield m2, h, c

        inv_ko = Fraction(1, ko)
        return AlgebraElement(P, {m2: s * inv_ko for m2, s in sum_products(terms()).items()})

    def counit_left(self) -> AlgebraElement:
        """(epsilon (x) id) of the matrix."""
        return self.contract_functional(counit_functional(self.params))

    # -- exact tensor-square identity checks --------------------------------

    def intertwining_failures(self):
        """First-leg keys (B, w), standing for B 1_w, where M fails to
        commute with the coproduct; empty means M Delta(x) = Delta(x) M in
        the tensor square for every generator x.

        Delta(K) = K (x) K conjugates a term (B1 1_w) (x) m2 of M by the
        phase zeta^(12 (weight(B1) + weight(m2))), so M commutes with it
        exactly when the two weights of every term add up to 0 mod ko: the
        first legs of the other terms are reported.  For e_pm and f_pm the
        terms of M Delta(g) and of -Delta(g) M are formed in the weight
        form, keyed by ((C, w), D) for (C 1_w) (x) D, with

            (B1 1_w)(B K^a) = zeta_ko^(a w') [B1 B] 1_w',  w' = w - weight(B),
            (B K^a)(B1 1_w) = zeta_ko^(a (weight(B1) + w)) [B B1] 1_w,

        where each term C K^i of the straightened [..] is zeta_ko^(i w) C 1_w
        (w the idempotent's index); the first legs of the keys where they do
        not cancel (the keys of sum_products) are reported."""
        P = self.params
        ko, weight, mono_mul = P.korder, P.weight, P.mono_mul
        failures = [(b1, w) for b1, row in self.weight_slices.items()
                    for w in dict.fromkeys(w for w, m2 in row
                                           if (weight(b1) + weight(m2)) % ko)]
        for gm in P.live_generators.values():
            dg = [(g1[:4] + (0,), g1[4], weight(g1), g2, cg)
                  for (g1, g2), cg in P.coproduct_mono(gm).coeffs.items()]

            def terms():
                for b1, row in self.weight_slices.items():
                    wb1 = weight(b1)
                    # per term of Delta(g): the straightened first legs of
                    # both products, [B1 B] and [B B1], each term with the
                    # coefficient of Delta(g) folded in (negated for -Delta(g) M)
                    lefts = [(a, wb, g2,
                              [(c1[:4] + (0,), c1[4], s * cg)
                               for c1, s in mono_mul(b1, b).items()],
                              [(c1[:4] + (0,), c1[4], -(s * cg))
                               for c1, s in mono_mul(b, b1).items()])
                             for b, a, wb, g2, cg in dg]
                    for (w, m2), c in row.items():
                        for a, wb, g2, right_of, left_of in lefts:
                            w1 = (w - wb) % ko
                            second = mono_mul(m2, g2).items()
                            for cf, i, s in right_of:
                                x = c.shift(12 * ((a + i) * w1 % ko))
                                for d2, t in second:
                                    yield ((cf, w1), d2), x, s * t
                            second = mono_mul(g2, m2).items()
                            for cf, i, s in left_of:
                                x = c.shift(12 * ((a * (wb1 + w) + i * w) % ko))
                                for d2, t in second:
                                    yield ((cf, w), d2), x, s * t

            failures.extend(dict.fromkeys(k[0] for k in sum_products(terms())))
        return failures

    def ribbon_identity_failures(self, v: AlgebraElement, v_inv: AlgebraElement):
        """Failures of M Delta(v) = v (x) v: ["v v_inv != 1"] if v_inv is
        not the inverse of v, else the first-leg keys (C, w), standing for
        C 1_w, where Delta(v^-1) - (v^-1 (x) v^-1) M is nonzero; empty means
        the identity holds exactly.

        Given v v^-1 = 1, checked first on the weight forms, the identity is
        equivalent to Delta(v^-1) = (v^-1 (x) v^-1) M, decided with the
        first legs on the idempotents 1_w and the second legs in PBW:
        Delta(v^-1)'s first leg B K^j is sum_w zeta_ko^(w j) B 1_w, and a
        term c (B1 1_w) (x) m2 of M becomes c v^-1 (B1 1_w) (x) v^-1 m2,
        the first factor one weight_mul, the second v^-1 B with every K
        exponent shifted by j for m2 = B K^j.  The terms of both sides go
        to sum_products keyed by ((C, w), m), one batch per w and sector
        weight (ep - fp, em - fm) of the first leg: the monomials of a
        central v^-1 have sector weight (0, 0), so C keeps B1's.  A term
        batched apart from the rest of its key only splits that key's sum,
        which can report a false failure but never hide a real one."""
        P = self.params
        v_inv_w = P.weight_form(v_inv)
        if P.weight_mul(P.weight_form(v), v_inv_w) != P.weight_form(P.one):
            return ["v v_inv != 1"]
        one, ko, weight_mul = P.ctx.one, P.korder, P.weight_mul
        roots = [P.ctx.root_of_unity(12 * t) for t in range(ko)]

        # v^-1 B for the K-free part B of each second leg of M
        v_inv_b = {b: [(k[:4], k[4], y)
                       for k, y in (v_inv * AlgebraElement(P, {b: one})).coeffs.items()]
                   for b in {m2[:4] + (0,) for row in self.weight_slices.values()
                             for _, m2 in row}}

        # per sector weight: Delta(v^-1)'s terms negated, and M's terms by w
        lhs, rhs = {}, {}
        for (n1, n2), c in v_inv.coproduct().coeffs.items():
            lhs.setdefault(_sector_weight(n1), []).append((n1[:4] + (0,), n1[4], n2, -c))
        for b1, row in self.weight_slices.items():
            by_w = rhs.setdefault(_sector_weight(b1), {})
            for (w, m2), c in row.items():
                by_w.setdefault(w, {}).setdefault(b1, []).append((m2, c))

        def terms(sw, w):
            for b, j, n2, c in lhs.get(sw, ()):
                yield ((b, w), n2), c, roots[w * j % ko]
            for b1, row in rhs.get(sw, {}).get(w, {}).items():
                left = weight_mul(v_inv_w, {(b1, w): one}).items()
                for m2, c in row:
                    j, right = m2[4], v_inv_b[m2[:4] + (0,)]
                    for first, s in left:
                        x = c * s
                        for k, i, y in right:
                            yield (first, k + ((i + j) % ko,)), x, y

        return list(dict.fromkeys(k[0] for sw in dict.fromkeys(chain(lhs, rhs))
                                  for w in range(ko) for k in sum_products(terms(sw, w))))


# ----------------------------------------------------------------------
# closed-form Drinfeld images
# ----------------------------------------------------------------------

def cc_poly_coeffs(sec: Sector, r: int, a: int, m: int):
    """([x^0], [x^1]) of the degree-m product polynomial
    prod_{t<m} (x + [t - a + r][a - t]) at the sector's bracket."""
    ctx = sec.ctx
    consts = [sec.qint(t - a + r) * sec.qint(a - t) for t in range(m)]
    x0 = math.prod(consts, start=ctx.one)
    x1 = sum((math.prod(consts[:t] + consts[t + 1:], start=ctx.one) for t in range(m)),
             start=ctx.zero)
    return x0, x1


def chi_sector(params: Params, sec: Sector, r: int) -> AlgebraElement:
    """One-sector Drinfeld image of the irreducible trace."""
    P = params
    zQ = sec.zQ
    dQ2 = sec.qdiff(1) ** 2

    def terms():
        for a in range(r):
            for m in range(a + 1):
                c = (dQ2 ** m).shift(zQ * (m * (m + r - 2 * a) + (r - 1 - 2 * a)))
                c = c * sec.qbin(r - a + m - 1, m) * sec.qbin(a, m)
                word = (P.gen(sec.e, m) * P.gen(sec.f, m)
                        * P.gen("K", -sec.p_other * (m + r - 1 - 2 * a)))
                yield word, c

    out = P.linear_combination(terms())
    if (r - 1) % 2:
        out = -out
    return out


def theta_sector(params: Params, sec: Sector, r: int) -> AlgebraElement:
    """One-sector nilpotent part entering the pseudotrace Drinfeld images."""
    P = params
    zQ = sec.zQ
    dQ = sec.qdiff(1)

    def terms():
        for a in range(r):
            for m in range(sec.p):
                _, x1 = cc_poly_coeffs(sec, r, a, m)
                if x1.is_zero():
                    continue
                c = (dQ ** (2 * m - 1)) * (sec.qfact(m) ** 2).inv()
                c = c.shift(zQ * (m * (m + r - 2 * a) + (r - 1 - 2 * a))) * x1
                word = (P.gen(sec.e, m) * P.gen(sec.f, m)
                        * P.gen("K", -sec.p_other * (m + r - 1 - 2 * a)))
                yield word, c

    out = P.linear_combination(terms()) * sec.qint(r)
    if r % 2:
        out = -out
    return out


def drinfeld_irreducible_closed_form(params: Params, alpha: int, r: int, s: int) -> AlgebraElement:
    P = params
    out = chi_sector(P, P.plus, r) * chi_sector(P, P.minus, s)
    if alpha < 0:
        out = out * P.gen("K", P.pp) * ((-1) ** (P.p_plus + P.p_minus))
    return out


def theta_bracket(params: Params, sec: Sector, r: int) -> AlgebraElement:
    """theta(r) - (-1)^(p_+ + p_-) theta(p_sector - r) K^{p_+ p_-}."""
    P = params
    out = theta_sector(P, sec, r)
    refl = theta_sector(P, sec, sec.p - r)
    return out - refl * P.gen("K", P.pp) * ((-1) ** (P.p_plus + P.p_minus))


# ----------------------------------------------------------------------
# ribbon element
# ----------------------------------------------------------------------

def canonical_element(params: Params) -> AlgebraElement:
    """The closed form of the canonical element u."""
    P = params
    ctx = P.ctx
    zeta = ctx.root_of_unity
    i_unit = zeta(P.N // 4)
    pref = (ctx.one + i_unit) * (P.sqrt_pp() * 2).inv()
    dQp = P.plus.qdiff(1)
    dQm = P.minus.qdiff(1)
    minus_i_pp = zeta((18 * P.pp * P.pp) % P.N)  # (-i)^{p_+ p_-}

    def terms():
        for m in range(P.p_plus):
            for r in range(P.p_plus):
                for n in range(P.p_minus):
                    for s in range(P.p_minus):
                        c = (dQp ** m) * (dQm ** n) * (P.plus.qfact(m) * P.minus.qfact(n)).inv()
                        c = c.shift(6 * P.p_minus * P.p_minus * (m * (m + 3) - r * r)
                                    + 6 * P.p_plus * P.p_plus * (n * (n + 3) - s * s))
                        if (r * s) % 2:
                            c = -c
                        left = (P.gen("fp", m) * P.gen("K", P.p_minus * (r - m))
                                * P.gen("ep", m))
                        mid = P.one + P.gen("K", P.pp) * (
                            minus_i_pp * ((-1) ** (P.p_plus * s + P.p_minus * r)))
                        right = (P.gen("em", n) * P.gen("K", P.p_plus * (s + n))
                                 * P.gen("fm", n))
                        yield left * mid * right, pref * c

    return P.linear_combination(terms())


def conformal_weight_exponent(params: Params, r: int, s: int) -> int:
    """zeta-exponent of exp(2 i pi Delta_{r,s})."""
    P = params
    num = (P.p_plus * s - P.p_minus * r) ** 2 - (P.p_plus - P.p_minus) ** 2
    return (6 * num) % P.N


def ribbon_factor_closed_form(params: Params, sec: Sector) -> AlgebraElement:
    """The unipotent ribbon factor of one sector as an explicit double sum."""
    P = params
    zQ, p = sec.zQ, sec.p
    dQ = sec.qdiff(1)

    def terms():
        yield P.one, P.ctx.one
        for m in range(1, p):
            for a in range(m - 1, p):
                c = (dQ ** (2 * m - 1)) * (sec.qint(m) * p).inv()
                c = c.shift(zQ * (m * (m - 1 - 2 * a) - 2 - 2 * a))
                c = c * sec.qbin(a, m - 1) ** 2
                if m % 2 == 0:
                    c = -c  # overall sign -(-1)^m
                word = (P.gen(sec.e, m) * P.gen(sec.f, m)
                        * P.gen("K", -sec.p_other * (m - 2 - 2 * a)))
                yield word, c

    return P.linear_combination(terms())


class RibbonData:
    """The ribbon element v = u g^-1 and its Jordan split v = vbar v+ v-.

    u, v and the unipotent factors v+ (v_factor_plus) and v- (v_factor_minus),
    1 + chi(gamma)/p over the sector's pseudotrace at (1, 1), or 1 when
    p = 1, are built with the data.  The semisimple part
    v_semisimple = sum exp(2 pi i Delta_{r,s}) e(r,s) over the canonical
    idempotents and v_unipotent = v+ v- are built on first read, so data
    whose split is never read builds no canonical center."""

    def __init__(self, theory: Theory, u, v, v_factor_plus, v_factor_minus):
        self.theory = theory
        self.params = theory.params
        self.u = u
        self.v = v
        self.v_factor_plus = v_factor_plus
        self.v_factor_minus = v_factor_minus

    @cached_property
    def v_semisimple(self) -> AlgebraElement:
        P = self.params
        elements = self.theory.center.elements
        return P.linear_combination(
            (elements["e", (r, s)], P.ctx.root_of_unity(conformal_weight_exponent(P, r, s)))
            for (r, s) in P.set_I())

    @cached_property
    def v_unipotent(self) -> AlgebraElement:
        return self.v_factor_plus * self.v_factor_minus


# ----------------------------------------------------------------------
# the named central families
# ----------------------------------------------------------------------
#
# The families of Feigin-Gainutdinov-Semikhatov-Tipunin (hep-th/0606196),
# each stated once as an integer map {(kind, label): int} over
# CharacterSpace.index: its Radford coordinates (Theory.radford_vector).
# Its PBW element sums Theory.radford_terms; its Drinfeld-side coordinates
# are C times the map (ModularAction.C).  With a, b = sec.lab(r, s):
# rho_diag and varphi_diag are rho^/ and varphi^/ for the plus sector (labels
# I_slash), rho^\ and varphi^\ for the minus one (I_bslash); varphi_arrow
# is varphi^nesw or varphi^nwse.

def kappa(P: Params, r, s) -> dict:
    """The trace of each member of the block (r, s) in I, once."""
    return {("qtr", lab): 1 for lab in P.block_members(r, s).values()}


def varphi_hat(P: Params, r, s) -> dict:
    """alpha' (p_+ - r') (p_- - s') on the trace of each of the four
    members (alpha', r', s') of the interior block (r, s)."""
    return {("qtr", (alpha, rr, ss)): alpha * (P.p_plus - rr) * (P.p_minus - ss)
            for alpha, rr, ss in P.linked(1, r, s).values()}


def rho_diag(P: Params, sec: Sector, r, s) -> dict:
    """p - a on the traces of the block members that keep sec's index a,
    -a on those that reflect it (the arrows sec.reflected and 'down')."""
    a, _ = sec.lab(r, s)
    return {("qtr", lab): -a if arrow in (sec.reflected, "down") else sec.p - a
            for arrow, lab in P.linked(1, r, s).items()}


def varphi_diag(P: Params, sec: Sector, r, s) -> dict:
    _, b = sec.lab(r, s)
    family = {(sec.pseudo, (r, s)): (-1) ** b}
    if b < sec.p_other:
        family[sec.pseudo, (P.p_plus - r, P.p_minus - s)] = -(-1) ** (sec.p_other + b)
    return family


def varphi_arrow(P: Params, sec: Sector, r, s) -> dict:
    _, b = sec.lab(r, s)
    return {(sec.pseudo, (r, s)): (-1) ** b * (sec.p_other - b),
            (sec.pseudo, (P.p_plus - r, P.p_minus - s)): (-1) ** (sec.p_other + b) * b}


def psi_hat(P: Params, r, s) -> dict:
    return {**varphi_arrow(P, P.plus, r, s), **varphi_arrow(P, P.minus, r, s)}


def varphi_cross(P: Params, r, s) -> dict:
    return {**varphi_arrow(P, P.plus, r, s),
            **{key: -n for key, n in varphi_arrow(P, P.minus, r, s).items()}}


# ----------------------------------------------------------------------
# the assembled theory for one parameter pair
# ----------------------------------------------------------------------

class Theory:
    """Lazy container wiring the character space, center, integral data,
    M-matrix, the two distinguished central bases, the ribbon data and the
    modular action for a fixed parameter pair.

    Central products are taken in the canonical basis of the center, where
    the product is CanonicalCenterBasis.product_table(); one cached d x d
    change of basis carries coordinates between it and the Radford basis."""

    def __init__(self, params: Params):
        self.params = params

    # cached building blocks ------------------------------------------------

    @property
    def characters(self) -> CharacterSpace:
        return self.params.cached("character_space", lambda: CharacterSpace(self.params))

    @property
    def center(self):
        return self.params.cached("canonical_center", lambda: canonical_basis(self.params))

    @property
    def integral(self) -> IntegralData:
        return self.params.cached("integral_data", lambda: build_integral_data(self.params))

    @property
    def m_matrix(self) -> MMatrix:
        return self.params.cached("m_matrix", lambda: MMatrix(self.params))

    @property
    def gr_index(self) -> GrothendieckIndex:
        return self.params.cached("gr_index", lambda: GrothendieckIndex(self.params))

    @property
    def irreducibles(self):
        """{label: irreducible module} over irreducible_labels."""
        P = self.params
        return {lab: cached_irreducible(P, *lab) for lab in irreducible_labels(P)}

    @property
    def projective_covers(self):
        """{label: projective cover of the irreducible} over irreducible_labels."""
        P = self.params
        return {lab: cached_projective(P, *lab) for lab in irreducible_labels(P)}

    # Radford and Drinfeld bases --------------------------------------------

    @property
    def radford_basis(self):
        """phi(gamma_i) for the ordered gamma basis."""
        return self.params.cached("radford_basis", lambda: [
            radford(self.integral, f) for f in self.characters.functionals()])

    @property
    def drinfeld_basis(self):
        """chi(gamma_i) for the ordered gamma basis."""
        return self.params.cached("drinfeld_basis", lambda: [
            self.drinfeld_image(*key) for key in self.characters.labels()])

    @property
    def radford_solver(self) -> SpanSolver:
        return self.params.cached("radford_solver", self._build_radford_solver)

    def _build_radford_solver(self) -> SpanSolver:
        solver = SpanSolver([el.coeffs for el in self.radford_basis], self.params.ctx)
        if not solver.independent:
            raise RuntimeError("Radford images of the gamma basis are linearly dependent")
        return solver

    @property
    def drinfeld_coordinates(self):
        """The Radford coordinates of each Drinfeld-basis element, in the
        gamma basis order: the columns of ModularAction.C, with None for an
        image outside the center span."""
        return self.params.cached("drinfeld_coordinates", lambda: [
            self.radford_solver.coordinates(el.coeffs) for el in self.drinfeld_basis])

    def drinfeld_vector(self, kind: str, label):
        """The Drinfeld image named (kind, label) in sparse Radford
        coordinates {index: Cyclo}, its column of ModularAction.C; None
        outside the center span, so that no coordinate vector equals it."""
        co = self.drinfeld_coordinates[self.characters.index[kind, label]]
        return None if co is None else sparse_vector(co)

    def radford_image(self, kind: str, label) -> AlgebraElement:
        """Radford basis element by (kind, label) name."""
        return self.radford_basis[self.characters.index[kind, label]]

    def radford_terms(self, family: dict, c=1):
        """(Radford basis element, c n) for each entry n of a family map,
        whose linear_combination is c times the family's PBW element."""
        return ((self.radford_image(*key), c * n) for key, n in family.items())

    def radford_vector(self, terms) -> dict:
        """sum c * family over (family map, scalar c) pairs, in Radford
        coordinates {index: Cyclo}, as one sum_products batch."""
        index, integer = self.characters.index, self.params.ctx.integer
        return sum_products(
            (index[key], c if isinstance(c, Cyclo) else integer(c), integer(n))
            for family, c in terms for key, n in family.items())

    def drinfeld_image(self, kind: str, label) -> AlgebraElement:
        """chi of the basis member named (kind, label), contracted once per
        pair from that member alone."""
        return self.params.cached(("drinfeld_image", kind, label), lambda: (
            self.m_matrix.contract_functional(self.characters.functional(kind, label))))

    def qtrace(self, alpha, r, s) -> Functional:
        return qtrace(self.params, alpha, r, s)

    # central arithmetic -------------------------------------------------------

    def central_coordinates(self, z: AlgebraElement):
        """Coordinates of a central element in the Radford basis, or None
        if z lies outside the center span."""
        return self.radford_solver.coordinates(z.coeffs)

    def radford_coordinates(self, z: AlgebraElement):
        """Coordinates of a central element in the Radford basis; raises
        ValueError if z lies outside the center span."""
        co = self.central_coordinates(z)
        if co is None:
            raise ValueError("element is not in the computed center span")
        return co

    @property
    def center_basis_change(self):
        """(to_canonical, to_radford): the d x d matrices taking Radford
        coordinates to coordinates over center.elements and back; column j
        of to_radford holds the Radford coordinates of the j-th canonical
        element."""
        return self.params.cached("center_basis_change", self._build_center_basis_change)

    def _build_center_basis_change(self):
        to_radford = columns([self.radford_coordinates(el)
                              for el in self.center.elements.values()])
        return invert_dense(to_radford, self.params.ctx), to_radford

    def _canonical_mult(self, z: AlgebraElement):
        """Matrix of multiplication by the central element z over
        center.elements, read off the product table as one sum_products
        batch."""
        ctx = self.params.ctx
        to_canonical = self.center_basis_change[0]
        x = mat_vec(to_canonical, sparse_vector(self.radford_coordinates(z)))
        sums = sum_products(((k, j), x[i], ctx.integer(c))
                            for (i, j), (k, c) in self.center.product_table().items()
                            if i in x)
        d = len(to_canonical)
        return [[sums.get((k, j), ctx.zero) for j in range(d)] for k in range(d)]

    def central_mult_matrix(self, z: AlgebraElement):
        """Matrix of multiplication by the central element z in the Radford
        basis: the canonical one conjugated by the change of basis."""
        to_canonical, to_radford = self.center_basis_change
        ctx = self.params.ctx
        return mat_mul_dense(
            to_radford, mat_mul_dense(self._canonical_mult(z), to_canonical, ctx), ctx)

    def central_inverse(self, z: AlgebraElement) -> AlgebraElement:
        """Inverse of an invertible central element: the inverse of its
        canonical multiplication matrix applied to the unit, the sum of the
        idempotents.  Raises ArithmeticError when z is not invertible, and
        ValueError when z lies outside the center span."""
        cb = self.center
        mult = self._canonical_mult(z)
        try:
            inv = invert_dense(mult, self.params.ctx)
        except ValueError:
            raise ArithmeticError("central element is not invertible") from None
        unit = [k for k, (family, _) in enumerate(cb.elements) if family == "e"]
        return self.params.linear_combination(
            (el, sum((row[k] for k in unit), start=self.params.ctx.zero))
            for el, row in zip(cb.elements.values(), inv))

    # ribbon -------------------------------------------------------------------

    @property
    def ribbon(self) -> RibbonData:
        return self.params.cached("ribbon", self._build_ribbon)

    @property
    def modular_action(self):
        from .modular import ModularAction
        return self.params.cached("modular_action", lambda: ModularAction(self))

    def _build_ribbon(self) -> RibbonData:
        P = self.params
        u = canonical_element(P)
        v = u * P.gen("K", P.p_minus - P.p_plus)
        # unipotent factors from the Drinfeld pseudotrace images at (1,1)
        vplus, vminus = (
            P.one + self.drinfeld_image(sec.pseudo, (1, 1)) * Fraction(1, sec.p)
            if sec.p > 1 else P.one
            for sec in P.sectors)
        return RibbonData(self, u, v, vplus, vminus)
