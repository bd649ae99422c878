"""Finite-dimensional modules: irreducible, Verma, projective, tensor.

Irreducible modules X^alpha_{r,r'} (1 <= r <= p_+, 1 <= r' <= p_-,
alpha = +-1) carry the explicit weight-vector action; Verma modules are
induced from the Borel-type subalgebra generated by e_+, e_-, K; projective
covers are built from their explicit bases (single "deck" modules for
boundary labels, a four-deck assembly for interior labels).  Every
constructed module is validated against the full defining relation set as
exact matrix identities.

All bases are K-diagonal; the integer K-weight w of a basis vector (with
K-eigenvalue zeta^(12 w)) is stored alongside the matrices because several
downstream computations (characters, M-matrix contractions) exploit it.
"""

from __future__ import annotations

from collections import Counter

from .algebra import AlgebraElement, Params
from .cyclotomic import sparse_sum
from .linalg import SparseMat, SpanSolver, closure_rank

__all__ = [
    "ModuleRep",
    "irreducible",
    "verma",
    "projective",
    "projective_deck",
    "tensor_product",
    "direct_sum",
    "act",
    "GrothendieckIndex",
    "irreducible_labels",
]


def _sign_pow(alpha: int, n: int) -> int:
    return -1 if alpha < 0 and n % 2 else 1


def irreducible_labels(params: Params):
    out = []
    for alpha in (1, -1):
        for r in range(1, params.p_plus + 1):
            for s in range(1, params.p_minus + 1):
                out.append((alpha, r, s))
    return out


class ModuleRep:
    """A module given by its five generator matrices over Q(zeta_N)."""

    def __init__(self, params: Params, label: str, basis, mats, kweights):
        self.params = params
        self.label = label
        self.basis = list(basis)
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.dim = len(self.basis)
        self.mats = mats  # {'ep','fp','em','fm'} -> SparseMat
        self.kweights = list(kweights)
        self._gen_powers = {}
        self._kmat_cache = {}

    # -- matrices -----------------------------------------------------------

    def kmat(self, j: int = 1) -> SparseMat:
        j %= self.params.korder
        hit = self._kmat_cache.get(j)
        if hit is None:
            zeta = self.params.ctx.root_of_unity
            hit = SparseMat(self.dim, self.dim,
                            {(i, i): zeta(12 * w * j) for i, w in enumerate(self.kweights)})
            self._kmat_cache[j] = hit
        return hit

    def gen_power(self, name: str, n: int) -> SparseMat:
        if name == "K":
            return self.kmat(n)
        powers = self._gen_powers.get(name)
        if powers is None:
            powers = self._gen_powers[name] = [
                SparseMat.identity(self.dim, self.params.ctx), self.mats[name]]
        while len(powers) <= n:
            powers.append(powers[-1] * self.mats[name])
        return powers[n]

    def act_mono(self, mono) -> SparseMat:
        a, b, c, d, j = mono
        out = None
        for name, n in (("fp", a), ("ep", b), ("fm", c), ("em", d)):
            if n:
                m = self.gen_power(name, n)
                out = m if out is None else out * m
        if j:
            m = self.kmat(j)
            out = m if out is None else out * m
        return out if out is not None else SparseMat.identity(self.dim, self.params.ctx)

    def act(self, x: AlgebraElement) -> SparseMat:
        out = SparseMat(self.dim, self.dim, {})
        for mono, coeff in x.coeffs.items():
            out = out + self.act_mono(mono).scale(coeff)
        return out

    # -- structure checks ------------------------------------------------------

    def check_relations(self):
        """All defining relations as matrix identities; returns failures."""
        P = self.params
        ctx = P.ctx
        I = SparseMat.identity(self.dim, ctx)
        E_p, F_p = self.mats["ep"], self.mats["fp"]
        E_m, F_m = self.mats["em"], self.mats["fm"]
        K = self.kmat(1)
        fails = []

        def req(name, lhs, rhs):
            if not (lhs - rhs).is_zero():
                fails.append(name)

        req("ep^p+", self.gen_power("ep", P.p_plus), SparseMat(self.dim, self.dim, {}))
        req("fp^p+", self.gen_power("fp", P.p_plus), SparseMat(self.dim, self.dim, {}))
        req("em^p-", self.gen_power("em", P.p_minus), SparseMat(self.dim, self.dim, {}))
        req("fm^p-", self.gen_power("fm", P.p_minus), SparseMat(self.dim, self.dim, {}))
        req("K order", self.kmat(P.korder), I)
        req("K ep", K * E_p, (E_p * K).scale(P.zeta(2 * P.zqp)))
        req("K fp", K * F_p, (F_p * K).scale(P.zeta(-2 * P.zqp)))
        req("K em", K * E_m, (E_m * K).scale(P.zeta(2 * P.zqm)))
        req("K fm", K * F_m, (F_m * K).scale(P.zeta(-2 * P.zqm)))
        for n1, m1 in (("ep", E_p), ("fp", F_p)):
            for n2, m2 in (("em", E_m), ("fm", F_m)):
                req(f"[{n1},{n2}]", m1 * m2, m2 * m1)
        # for p_pm = 1 the sector is trivial (e = f = 0) and the commutator
        # relation degenerates to 0 = 0 since K^{p_mp} = K^{-p_mp}
        if P.p_plus > 1:
            dQp = P.zeta(P.zQp) - P.zeta(-P.zQp)
            req("[ep,fp]", E_p * F_p - F_p * E_p,
                (self.kmat(P.p_minus) - self.kmat(-P.p_minus)).scale(dQp.inv()))
        else:
            req("[ep,fp]", E_p * F_p, F_p * E_p)
        if P.p_minus > 1:
            dQm = P.zeta(P.zQm) - P.zeta(-P.zQm)
            req("[em,fm]", E_m * F_m - F_m * E_m,
                (self.kmat(P.p_plus) - self.kmat(-P.p_plus)).scale(dQm.inv()))
        else:
            req("[em,fm]", E_m * F_m, F_m * E_m)
        # K matrix consistency with the stored weights
        zeta = ctx.root_of_unity
        for i, w in enumerate(self.kweights):
            if K.get(i, i, ctx.zero) != zeta(12 * w):
                fails.append("kweights")
                break
        return fails

    def dump(self):
        """Serializable form: basis labels plus the five generator matrices
        in the cyclotomic pair encoding."""
        def mat_doc(m: SparseMat):
            return [[i, j, v.to_json()] for (i, j), v in sorted(m.data.items())]
        return {
            "label": self.label,
            "dim": self.dim,
            "basis": [repr(b) for b in self.basis],
            "kweights": list(self.kweights),
            "matrices": {name: mat_doc(self.mats[name])
                         for name in ("ep", "fp", "em", "fm")},
            "K": mat_doc(self.kmat(1)),
        }

    def submodule_generated(self, seed_vectors):
        """Dimension of the submodule generated by the given sparse vectors."""
        gens = [self.mats[n] for n in ("ep", "fp", "em", "fm")] + [self.kmat(1)]
        return closure_rank(seed_vectors, [g.apply for g in gens])


# ----------------------------------------------------------------------
# irreducible modules
# ----------------------------------------------------------------------

def irreducible(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    P = params
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    if not (1 <= r <= P.p_plus and 1 <= s <= P.p_minus):
        raise ValueError(f"irreducible label out of range: ({alpha}, {r}, {s})")
    basis = [(n, np) for n in range(r) for np in range(s)]
    idx = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    ep = {}
    em = {}
    fp = {}
    fm = {}
    sp = _sign_pow(alpha, P.p_minus) * (-1) ** (s - 1)
    sm = _sign_pow(alpha, P.p_plus) * (-1) ** (r - 1)
    for (n, np) in basis:
        i = idx[(n, np)]
        if n >= 1:
            ep[(idx[(n - 1, np)], i)] = P.qint_p(n) * P.qint_p(r - n) * sp
        if np >= 1:
            em[(idx[(n, np - 1)], i)] = P.qint_m(np) * P.qint_m(s - np) * sm
        if n + 1 < r:
            fp[(idx[(n + 1, np)], i)] = P.ctx.one
        if np + 1 < s:
            fm[(idx[(n, np + 1)], i)] = P.ctx.one
    kweights = []
    off = P.pp if alpha < 0 else 0
    for (n, np) in basis:
        kweights.append((P.p_minus * (r - 1 - 2 * n) + P.p_plus * (s - 1 - 2 * np) + off) % P.korder)
    mats = {name: SparseMat(dim, dim, sparse_sum(data.items()))
            for name, data in (("ep", ep), ("fp", fp), ("em", em), ("fm", fm))}
    sign = "+" if alpha > 0 else "-"
    return ModuleRep(P, f"Irr({sign},{r},{s})", basis, mats, kweights)


# ----------------------------------------------------------------------
# Verma modules, induced from the Borel-type subalgebra
# ----------------------------------------------------------------------

def verma(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    P = params
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    if not (1 <= r <= P.p_plus and 1 <= s <= P.p_minus):
        raise ValueError(f"Verma label out of range: ({alpha}, {r}, {s})")
    basis = [(n, np) for n in range(P.p_plus) for np in range(P.p_minus)]
    idx = {b: i for i, b in enumerate(basis)}
    dim = len(basis)
    # K-eigenvalue zeta-exponent of the highest-weight vector, in units of 12
    hw = (P.p_minus * (r - 1) + P.p_plus * (s - 1) + (P.pp if alpha < 0 else 0)) % P.korder
    zeta = P.ctx.root_of_unity
    mats = {}
    for name in ("ep", "fp", "em", "fm"):
        g = P.gen(name)
        images = [g * (P.gen("fp", n) * P.gen("fm", np)) for (n, np) in basis]
        # e_pm through f-powers annihilate the highest-weight vector
        mats[name] = SparseMat(dim, dim, sparse_sum(
            ((idx[(a, c)], i), zeta(12 * hw * j) * coeff)
            for i, prod in enumerate(images)
            for (a, b, c, d, j), coeff in prod.coeffs.items()
            if not (b or d)))
    kweights = [(hw - 2 * P.p_minus * n - 2 * P.p_plus * np) % P.korder for (n, np) in basis]
    sign = "+" if alpha > 0 else "-"
    return ModuleRep(P, f"Verma({sign},{r},{s})", basis, mats, kweights)


# ----------------------------------------------------------------------
# projective modules
# ----------------------------------------------------------------------

def _deck_plus_action(P: Params, alpha: int, r: int, s: int):
    """Generator action inside one plus-type deck with parameters
    (alpha, r, s): inner positions 'u','d' span the two X^alpha_{r,s}
    copies, 'l','r' the two X^{-alpha}_{p_+ - r, s} copies.  Returns
    (labels, transitions) where transitions map (gen, label) to a list of
    (target_label, coeff); labels are (inner, n, n')."""
    rr = P.p_plus - r
    one = P.ctx.one
    labels = ([("u", n, np) for n in range(r) for np in range(s)]
              + [("l", k, kp) for k in range(rr) for kp in range(s)]
              + [("r", k, kp) for k in range(rr) for kp in range(s)]
              + [("d", n, np) for n in range(r) for np in range(s)])
    sp_in = _sign_pow(alpha, P.p_minus) * (-1) ** (s - 1)           # on u, d
    sp_out = _sign_pow(-alpha, P.p_minus) * (-1) ** (s - 1)         # on l, r
    sm_in = _sign_pow(alpha, P.p_plus) * (-1) ** (r - 1)
    sm_out = _sign_pow(-alpha, P.p_plus) * (-1) ** (rr - 1)

    def ep(lab):
        pos, n, np = lab
        out = []
        if pos == "u":
            if n >= 1:
                out.append((("u", n - 1, np), P.qint_p(n) * P.qint_p(r - n) * sp_in))
                out.append((("d", n - 1, np), one))
            elif rr:
                out.append((("l", rr - 1, np), one))
        elif pos == "r":
            if n >= 1:
                out.append((("r", n - 1, np), P.qint_p(n) * P.qint_p(rr - n) * sp_out))
            else:
                out.append((("d", r - 1, np), one))
        elif pos == "l":
            if n >= 1:
                out.append((("l", n - 1, np), P.qint_p(n) * P.qint_p(rr - n) * sp_out))
        else:  # d
            if n >= 1:
                out.append((("d", n - 1, np), P.qint_p(n) * P.qint_p(r - n) * sp_in))
        return out

    def fp(lab):
        pos, n, np = lab
        if pos == "u":
            return [(("u", n + 1, np), one)] if n + 1 < r else [(("r", 0, np), one)]
        if pos == "l":
            if n + 1 < rr:
                return [(("l", n + 1, np), one)]
            return [(("d", 0, np), one)]
        if pos == "r":
            return [(("r", n + 1, np), one)] if n + 1 < rr else []
        return [(("d", n + 1, np), one)] if n + 1 < r else []

    def em(lab):
        pos, n, np = lab
        if np < 1:
            return []
        c = (P.qint_m(np) * P.qint_m(s - np)
             * (sm_in if pos in ("u", "d") else sm_out))
        return [((pos, n, np - 1), c)]

    def fm(lab):
        pos, n, np = lab
        return [((pos, n, np + 1), one)] if np + 1 < s else []

    def kweight(lab):
        pos, n, np = lab
        if pos in ("u", "d"):
            w = P.p_minus * (r - 1 - 2 * n) + P.p_plus * (s - 1 - 2 * np)
            off = P.pp if alpha < 0 else 0
        else:
            w = P.p_minus * (rr - 1 - 2 * n) + P.p_plus * (s - 1 - 2 * np)
            off = P.pp if -alpha < 0 else 0
        return (w + off) % P.korder

    return labels, {"ep": ep, "fp": fp, "em": em, "fm": fm}, kweight


def _deck_minus_action(P: Params, alpha: int, r: int, s: int):
    """Mirror deck with the minus sector providing the four-suit structure:
    'u','d' span two X^alpha_{r,s}, 'l','r' two X^{-alpha}_{r, p_- - s}."""
    ss = P.p_minus - s
    one = P.ctx.one
    labels = ([("u", n, np) for n in range(r) for np in range(s)]
              + [("l", k, kp) for k in range(r) for kp in range(ss)]
              + [("r", k, kp) for k in range(r) for kp in range(ss)]
              + [("d", n, np) for n in range(r) for np in range(s)])
    sm_in = _sign_pow(alpha, P.p_plus) * (-1) ** (r - 1)
    sm_out = _sign_pow(-alpha, P.p_plus) * (-1) ** (r - 1)
    sp_in = _sign_pow(alpha, P.p_minus) * (-1) ** (s - 1)
    sp_out = _sign_pow(-alpha, P.p_minus) * (-1) ** (ss - 1)

    def em(lab):
        pos, n, np = lab
        out = []
        if pos == "u":
            if np >= 1:
                out.append((("u", n, np - 1), P.qint_m(np) * P.qint_m(s - np) * sm_in))
                out.append((("d", n, np - 1), one))
            elif ss:
                out.append((("l", n, ss - 1), one))
        elif pos == "r":
            if np >= 1:
                out.append((("r", n, np - 1), P.qint_m(np) * P.qint_m(ss - np) * sm_out))
            else:
                out.append((("d", n, s - 1), one))
        elif pos == "l":
            if np >= 1:
                out.append((("l", n, np - 1), P.qint_m(np) * P.qint_m(ss - np) * sm_out))
        else:
            if np >= 1:
                out.append((("d", n, np - 1), P.qint_m(np) * P.qint_m(s - np) * sm_in))
        return out

    def fm(lab):
        pos, n, np = lab
        if pos == "u":
            return [(("u", n, np + 1), one)] if np + 1 < s else [(("r", n, 0), one)]
        if pos == "l":
            if np + 1 < ss:
                return [(("l", n, np + 1), one)]
            return [(("d", n, 0), one)]
        if pos == "r":
            return [(("r", n, np + 1), one)] if np + 1 < ss else []
        return [(("d", n, np + 1), one)] if np + 1 < s else []

    def ep(lab):
        pos, n, np = lab
        if n < 1:
            return []
        c = (P.qint_p(n) * P.qint_p(r - n)
             * (sp_in if pos in ("u", "d") else sp_out))
        return [((pos, n - 1, np), c)]

    def fp(lab):
        pos, n, np = lab
        return [((pos, n + 1, np), one)] if n + 1 < r else []

    def kweight(lab):
        pos, n, np = lab
        if pos in ("u", "d"):
            w = P.p_minus * (r - 1 - 2 * n) + P.p_plus * (s - 1 - 2 * np)
            off = P.pp if alpha < 0 else 0
        else:
            w = P.p_minus * (r - 1 - 2 * n) + P.p_plus * (ss - 1 - 2 * np)
            off = P.pp if -alpha < 0 else 0
        return (w + off) % P.korder

    return labels, {"ep": ep, "fp": fp, "em": em, "fm": fm}, kweight


def _module_from_transitions(P, label, labels, trans, kweight):
    idx = {b: i for i, b in enumerate(labels)}
    dim = len(labels)
    mats = {}
    for name in ("ep", "fp", "em", "fm"):
        mats[name] = SparseMat(dim, dim, sparse_sum(
            ((idx[tgt], idx[lab]), coeff)
            for lab in labels
            for tgt, coeff in trans[name](lab) if coeff))
    return ModuleRep(P, label, labels, mats, [kweight(b) for b in labels])


def projective_deck(params: Params, alpha: int, kind: str, r: int, s: int) -> ModuleRep:
    """The indecomposable two-story module with a plus-type ('+') or
    minus-type ('-') four-suit structure; these are the boundary projective
    covers when s = p_- (plus type) or r = p_+ (minus type)."""
    P = params
    sign = "+" if alpha > 0 else "-"
    if kind == "+":
        if not (1 <= r <= P.p_plus - 1 and 1 <= s <= P.p_minus):
            raise ValueError("plus-type deck needs 1 <= r < p_+")
        labels, trans, kw = _deck_plus_action(P, alpha, r, s)
    elif kind == "-":
        if not (1 <= r <= P.p_plus and 1 <= s <= P.p_minus - 1):
            raise ValueError("minus-type deck needs 1 <= s < p_-")
        labels, trans, kw = _deck_minus_action(P, alpha, r, s)
    else:
        raise ValueError("kind must be '+' or '-'")
    labels = [("s", pos, n, np) for (pos, n, np) in labels]
    trans4 = {name: (lambda lab, f=trans[name]: [(("s",) + t, c) for t, c in f(lab[1:])])
              for name in trans}
    return _module_from_transitions(P, f"Deck{kind}({sign},{r},{s})", labels, trans4,
                                    lambda lab: kw(lab[1:]))


def projective(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    """Projective cover of X^alpha_{r,s}."""
    P = params
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    sign = "+" if alpha > 0 else "-"
    if not (1 <= r <= P.p_plus and 1 <= s <= P.p_minus):
        raise ValueError(f"projective label out of range: ({alpha}, {r}, {s})")
    if r == P.p_plus and s == P.p_minus:
        m = irreducible(P, alpha, r, s)
        m.label = f"Proj({sign},{r},{s})"
        return m
    if s == P.p_minus:
        m = projective_deck(P, alpha, "+", r, s)
        m.label = f"Proj({sign},{r},{s})"
        return m
    if r == P.p_plus:
        m = projective_deck(P, alpha, "-", r, s)
        m.label = f"Proj({sign},{r},{s})"
        return m

    # interior label: four decks tied together by the minus-sector structure
    ss = P.p_minus - s
    deck_in = _deck_plus_action(P, alpha, r, s)        # decks 't' and 'b'
    deck_out = _deck_plus_action(P, -alpha, r, ss)     # decks 'L' and 'R'
    labels = ([("t",) + lab for lab in deck_in[0]]
              + [("L",) + lab for lab in deck_out[0]]
              + [("R",) + lab for lab in deck_out[0]]
              + [("b",) + lab for lab in deck_in[0]])
    one = P.ctx.one
    sm_in = _sign_pow(alpha, P.p_plus) * (-1) ** (r - 1)
    sm_out = _sign_pow(-alpha, P.p_plus) * (-1) ** (P.p_plus - r - 1)

    def inner(deck):
        return deck_in if deck in ("t", "b") else deck_out

    def ep(lab):
        deck = lab[0]
        return [((deck,) + t, c) for t, c in inner(deck)[1]["ep"](lab[1:])]

    def fp(lab):
        deck = lab[0]
        return [((deck,) + t, c) for t, c in inner(deck)[1]["fp"](lab[1:])]

    def em(lab):
        deck, pos, n, np = lab
        smc = sm_in if pos in ("u", "d") else sm_out
        if deck == "t":
            if np >= 1:
                return [(("t", pos, n, np - 1), P.qint_m(np) * P.qint_m(s - np) * smc),
                        (("b", pos, n, np - 1), one)]
            return [(("L", pos, n, ss - 1), one)] if ss else []
        if deck == "R":
            if np >= 1:
                return [(("R", pos, n, np - 1), P.qint_m(np) * P.qint_m(ss - np) * smc)]
            return [(("b", pos, n, s - 1), one)]
        if deck == "L":
            if np >= 1:
                return [(("L", pos, n, np - 1), P.qint_m(np) * P.qint_m(ss - np) * smc)]
            return []
        # deck 'b'
        if np >= 1:
            return [(("b", pos, n, np - 1), P.qint_m(np) * P.qint_m(s - np) * smc)]
        return []

    def fm(lab):
        deck, pos, n, np = lab
        if deck == "t":
            if np + 1 < s:
                return [(("t", pos, n, np + 1), one)]
            return [(("R", pos, n, 0), one)]
        if deck == "L":
            if np + 1 < ss:
                return [(("L", pos, n, np + 1), one)]
            return [(("b", pos, n, 0), one)]
        if deck == "R":
            return [(("R", pos, n, np + 1), one)] if np + 1 < ss else []
        return [(("b", pos, n, np + 1), one)] if np + 1 < s else []

    def kweight(lab):
        deck = lab[0]
        return inner(deck)[2](lab[1:])

    return _module_from_transitions(P, f"Proj({sign},{r},{s})", labels,
                                    {"ep": ep, "fp": fp, "em": em, "fm": fm}, kweight)


# ----------------------------------------------------------------------
# functorial constructions
# ----------------------------------------------------------------------

def tensor_product(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    """Module structure on the tensor product via the coproduct; the left
    tensor factor matches the left coproduct leg."""
    P = m1.params
    d1, d2 = m1.dim, m2.dim
    I1 = SparseMat.identity(d1, P.ctx)
    I2 = SparseMat.identity(d2, P.ctx)
    mats = {
        "ep": m1.mats["ep"].kron(I2) + m1.kmat(P.p_minus).kron(m2.mats["ep"]),
        "fp": m1.mats["fp"].kron(m2.kmat(-P.p_minus)) + I1.kron(m2.mats["fp"]),
        "fm": m1.mats["fm"].kron(I2) + m1.kmat(-P.p_plus).kron(m2.mats["fm"]),
        "em": m1.mats["em"].kron(m2.kmat(P.p_plus)) + I1.kron(m2.mats["em"]),
    }
    basis = [(b1, b2) for b1 in m1.basis for b2 in m2.basis]
    kweights = [(w1 + w2) % P.korder for w1 in m1.kweights for w2 in m2.kweights]
    return ModuleRep(P, f"{m1.label}(x){m2.label}", basis, mats, kweights)


def direct_sum(m1: ModuleRep, m2: ModuleRep) -> ModuleRep:
    P = m1.params
    d1 = m1.dim
    mats = {}
    for name in ("ep", "fp", "em", "fm"):
        data = dict(m1.mats[name].data)
        for (i, j), v in m2.mats[name].data.items():
            data[(i + d1, j + d1)] = v
        mats[name] = SparseMat(d1 + m2.dim, d1 + m2.dim, data)
    basis = [(0, b) for b in m1.basis] + [(1, b) for b in m2.basis]
    return ModuleRep(P, f"{m1.label}(+){m2.label}", basis, mats,
                     m1.kweights + m2.kweights)


def act(x: AlgebraElement, module: ModuleRep) -> SparseMat:
    return module.act(x)


def _powers(mat: SparseMat, n: int, ctx) -> list:
    """[mat^0, mat^1, ..., mat^n] for n >= 1."""
    out = [SparseMat.identity(mat.nrows, ctx), mat]
    for _ in range(n - 1):
        out.append(out[-1] * mat)
    return out


def cached_irreducible(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    key = ("irr", alpha, r, s)
    if key not in params.cache:
        params.cache[key] = irreducible(params, alpha, r, s)
    return params.cache[key]


def cached_projective(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    key = ("proj", alpha, r, s)
    if key not in params.cache:
        params.cache[key] = projective(params, alpha, r, s)
    return params.cache[key]


class GrothendieckIndex:
    """Decomposition of modules into irreducible classes.

    The class fingerprint of a module M is the family of weight-graded
    Casimir traces

        G(u, v, w) = Tr(C_+^u C_-^v restricted to the K-weight-w space)

    for 0 <= u <= p_+, 0 <= v <= p_-, 0 <= w < 2 p_+ p_-: the diagonal of
    C_+^u C_-^v summed by K-weight, one sparse sum per (u, v) and no root
    of unity anywhere.  On an irreducible the Casimirs act by their
    closed-form eigenvalues, so G is those eigenvalue powers times the
    weight counts.  Both are additive on short exact sequences, so G is a
    function of the Grothendieck class.

    The traces Tr(C_+^u C_-^v K^j) = sum_w G(u, v, w) zeta^(12 w j) are
    the discrete Fourier transform of G over Z/(2 p_+ p_-); zeta^12 is a
    primitive root of that order, so the transform is invertible and both
    fingerprints span the same relations: decompositions are the same
    either way.  Weight counts alone (u = v = 0) do not separate
    irreducibles (the two Steinberg-type modules share a weight multiset
    at (1,2)); the Casimir twists separate the central blocks, and the
    irreducible fingerprints are verified independent on construction.
    """

    def __init__(self, params: Params):
        self.params = params
        self.labels = irreducible_labels(params)
        self.irreducibles = {lab: irreducible(params, *lab) for lab in self.labels}
        self._cas = params.casimirs()
        vectors = [self._fingerprint_sparse(self.irreducibles[lab], lab)
                   for lab in self.labels]
        self.solver = SpanSolver(vectors, params.ctx)
        if not self.solver.independent:
            raise RuntimeError("irreducible class fingerprints are linearly dependent")

    def _fingerprint_sparse(self, module: ModuleRep, label=None):
        """{(u, v, w): G(u, v, w)}, nonzero entries only; `label` marks an
        irreducible, whose Casimirs act by their closed-form eigenvalues."""
        P = self.params
        ko = P.korder
        weights = [w % ko for w in module.kweights]
        if label is not None:
            cp = P.casimir_eigenvalue_plus(*label)
            cm = P.casimir_eigenvalue_minus(*label)
            counts = Counter(weights)
            return sparse_sum(((u, v, w), cp ** u * cm ** v * n)
                              for u in range(P.p_plus + 1)
                              for v in range(P.p_minus + 1)
                              for w, n in counts.items())
        cp_pows = _powers(module.act(self._cas[0]), P.p_plus, P.ctx)
        cm_pows = _powers(module.act(self._cas[1]), P.p_minus, P.ctx)
        # the diagonal of a b only: (a b)_ii = sum_k a_ik b_ki
        return sparse_sum(((u, v, weights[i]), x * y)
                          for u, a in enumerate(cp_pows)
                          for v, b in enumerate(cm_pows)
                          for (i, k), x in a.data.items()
                          for y in (b.data.get((k, i)),) if y is not None)

    def decompose(self, module: ModuleRep):
        """Multiplicity vector over irreducible labels; raises if the class
        is not a nonnegative integer combination."""
        coords = self.solver.coordinates(self._fingerprint_sparse(module))
        if coords is None:
            raise ValueError("class fingerprint outside the irreducible span")
        out = []
        for c in coords:
            f = c.rational_value()
            if f.denominator != 1 or f < 0:
                raise ValueError(f"non-integer multiplicity {f}")
            out.append(int(f))
        return out

    def decompose_dict(self, module: ModuleRep):
        return {lab: m for lab, m in zip(self.labels, self.decompose(module)) if m}
