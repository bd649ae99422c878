"""Finite-dimensional modules: irreducible, Verma, projective, tensor.

Irreducible modules X^alpha_{r,r'} (1 <= r <= p_+, 1 <= r' <= p_-,
alpha = +-1) carry the explicit weight-vector action on the basis (n, n'),
0 <= n < r, 0 <= n' < r': e_+ and f_+ step n down and up, e_- and f_- step
n'.  Verma modules are induced from the Borel-type subalgebra generated by
e_+, e_-, K.  Every constructed module is validated against the full
defining relation set as exact matrix identities.

Projective covers come from one gluing rule.  glue(sec, top, side) lays
out four copies, the suits u, l, r, d: u and d are copies of `top`, l and r
copies of `side`, and inside each copy the generators act by that module's
own matrices.  The sector's e and f (e_+, f_+ for P.plus; e_-, f_- for
P.minus) add arrows between copies, all with coefficient 1, along the
sector's string index (n for P.plus, n' for P.minus):

    f:  u -> r and l -> d, from the last index of the string to index 0;
    e:  u -> d, from index i to i - 1;
        u -> l and r -> d, from index 0 to the last index of the string.

Which irreducibles meet in a cover is read from the linkage table,
Params.linked.  A deck of the sector sec glues X^alpha_{r,s} to its member
with sec's index reflected, linked(alpha, r, s)[sec.reflected]; the
boundary covers are decks, with basis labels (suit, n, n').  The interior
cover glues in the minus sector the plus decks over the label and over its
'left' member, with labels (outer suit, inner suit, n, n').  Basis order is
u, l, r, d at each level.

All bases are K-diagonal; the integer K-weight w of a basis vector (with
K-eigenvalue zeta^(12 w)) is stored alongside the matrices because several
downstream computations (characters, M-matrix contractions) exploit it.
"""

from __future__ import annotations

from collections import Counter

from .algebra import AlgebraElement, Params, Sector
from .cyclotomic import sparse_sum, sum_products
from .linalg import SparseMat, SpanSolver, closure_rank

__all__ = [
    "ModuleRep",
    "irreducible",
    "verma",
    "projective",
    "projective_deck",
    "glue",
    "tensor_product",
    "direct_sum",
    "GrothendieckIndex",
    "irreducible_labels",
]


_SUITS = ("u", "l", "r", "d")
# the generators of a PBW monomial (a, b, c, d, j) = fp^a ep^b fm^c em^d K^j
_PBW_ORDER = ("fp", "ep", "fm", "em")


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
        for name, n in zip(_PBW_ORDER, (a, b, c, d)):
            if n:
                m = self.gen_power(name, n)
                out = m if out is None else out * m
        if j:
            m = self.kmat(j)
            out = m if out is None else out * m
        return out if out is not None else SparseMat.identity(self.dim, self.params.ctx)

    def act(self, x: AlgebraElement) -> SparseMat:
        return SparseMat(self.dim, self.dim, sparse_sum(
            (key, v * coeff)
            for mono, coeff in x.coeffs.items()
            for key, v in self.act_mono(mono).data.items()))

    # -- structure checks ------------------------------------------------------

    def check_relations(self):
        """All defining relations as matrix identities; returns failures."""
        P = self.params
        ctx = P.ctx
        I = SparseMat.identity(self.dim, ctx)
        K = self.kmat(1)
        fails = []

        def req(name, lhs, rhs):
            if not (lhs - rhs).is_zero():
                fails.append(name)

        zero = SparseMat(self.dim, self.dim, {})
        for sec in P.sectors:
            E, F = self.mats[sec.e], self.mats[sec.f]
            req(f"{sec.e}^p{sec.sign}", self.gen_power(sec.e, sec.p), zero)
            req(f"{sec.f}^p{sec.sign}", self.gen_power(sec.f, sec.p), zero)
            req(f"K {sec.e}", K * E, (E * K).scale(P.zeta(2 * sec.zq)))
            req(f"K {sec.f}", K * F, (F * K).scale(P.zeta(-2 * sec.zq)))
            # for p = 1 the sector is trivial (e = f = 0) and the commutator
            # relation degenerates to 0 = 0 since K^p' = K^-p'
            rhs = zero
            if sec.p > 1:
                rhs = (self.kmat(sec.p_other) - self.kmat(-sec.p_other)).scale(
                    sec.qdiff(1).inv())
            req(f"[{sec.e},{sec.f}]", E * F - F * E, rhs)
        req("K order", self.kmat(P.korder), I)
        for n1 in ("ep", "fp"):
            for n2 in ("em", "fm"):
                m1, m2 = self.mats[n1], self.mats[n2]
                req(f"[{n1},{n2}]", m1 * m2, m2 * m1)
        # K matrix consistency with the stored weights
        zeta = ctx.root_of_unity
        for i, w in enumerate(self.kweights):
            if K.get(i, i, ctx.zero) != zeta(12 * w):
                fails.append("kweights")
                break
        return fails

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
    plus, minus = P.sectors
    sp = plus.alpha_sign(alpha) * (-1) ** (s - 1)
    sm = minus.alpha_sign(alpha) * (-1) ** (r - 1)
    for (n, np) in basis:
        i = idx[(n, np)]
        if n >= 1:
            ep[(idx[(n - 1, np)], i)] = plus.qint(n) * plus.qint(r - n) * sp
        if np >= 1:
            em[(idx[(n, np - 1)], i)] = minus.qint(np) * minus.qint(s - np) * sm
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

def glue(sec: Sector, top: ModuleRep, side: ModuleRep, label: str) -> ModuleRep:
    """The four-suit module of the sector sec over `top` and `side` (the
    gluing rule of the module docstring).  Basis labels are (suit,) + the
    copy's own label, whose last two entries are (n, n')."""
    e, f = sec.e, sec.f

    def index(lab):
        """The sector's string index in a copy's label."""
        return sec.lab(*lab[-2:])[0]

    def moved(lab, n):
        return lab[:-2] + sec.lab(n, sec.lab(*lab[-2:])[1])

    copies = {"u": top, "l": side, "r": side, "d": top}
    offset = {}
    dim = 0
    for suit in _SUITS:
        offset[suit] = dim
        dim += copies[suit].dim
    top_end = max(index(lab) for lab in top.basis)
    side_end = max(index(lab) for lab in side.basis)
    arrows = {e: [], f: []}  # generator -> [(source suit, label, target suit, label)]
    for lab in top.basis:
        n = index(lab)
        arrows[e].append(("u", lab, "d", moved(lab, n - 1)) if n
                         else ("u", lab, "l", moved(lab, side_end)))
        if n == top_end:
            arrows[f].append(("u", lab, "r", moved(lab, 0)))
    for lab in side.basis:
        if index(lab) == 0:
            arrows[e].append(("r", lab, "d", moved(lab, top_end)))
        if index(lab) == side_end:
            arrows[f].append(("l", lab, "d", moved(lab, 0)))

    def entries(name):
        for suit in _SUITS:
            o = offset[suit]
            for (i, j), v in copies[suit].mats[name].data.items():
                yield (o + i, o + j), v
        one = top.params.ctx.one
        for src, slab, tgt, tlab in arrows.get(name, ()):
            yield ((offset[tgt] + copies[tgt].index[tlab],
                    offset[src] + copies[src].index[slab]), one)

    mats = {name: SparseMat(dim, dim, dict(entries(name)))
            for name in ("ep", "fp", "em", "fm")}
    basis = [(suit,) + lab for suit in _SUITS for lab in copies[suit].basis]
    kweights = [w for suit in _SUITS for w in copies[suit].kweights]
    return ModuleRep(top.params, label, basis, mats, kweights)


def projective_deck(params: Params, alpha: int, sec: Sector, r: int, s: int) -> ModuleRep:
    """The two-story four-suit module of the sector sec over X^alpha_{r,s},
    glued to its linked irreducible with sec's index reflected, a -> p - a,
    the arrow sec.reflected of Params.linked.  These are the boundary
    projective covers when the other sector's index is at its top, s = p_-
    for plus, r = p_+ for minus."""
    P = params
    sign = "+" if alpha > 0 else "-"
    a, b = sec.lab(r, s)
    if not (1 <= a <= sec.p - 1 and 1 <= b <= sec.p_other):
        raise ValueError(f"a deck of the {sec.sign} sector needs an index 1 <= a < {sec.p}")
    side = cached_irreducible(P, *P.linked(alpha, r, s)[sec.reflected])
    return glue(sec, cached_irreducible(P, alpha, r, s), side,
                f"Deck{sec.sign}({sign},{r},{s})")


def projective(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    """Projective cover of X^alpha_{r,s}: the irreducible itself at
    (p_+, p_-), shared with cached_irreducible, a single deck on the
    boundary, and on the interior the minus-sector gluing of the plus decks
    over the label and over its member linked(alpha, r, s)['left']."""
    P = params
    if alpha not in (1, -1):
        raise ValueError("alpha must be +1 or -1")
    sign = "+" if alpha > 0 else "-"
    if not (1 <= r <= P.p_plus and 1 <= s <= P.p_minus):
        raise ValueError(f"projective label out of range: ({alpha}, {r}, {s})")
    if r == P.p_plus and s == P.p_minus:
        return cached_irreducible(P, alpha, r, s)
    label = f"Proj({sign},{r},{s})"
    if s == P.p_minus:
        m = projective_deck(P, alpha, P.plus, r, s)
    elif r == P.p_plus:
        m = projective_deck(P, alpha, P.minus, r, s)
    else:
        side_alpha, side_r, side_s = P.linked(alpha, r, s)[P.minus.reflected]
        return glue(P.minus, projective_deck(P, alpha, P.plus, r, s),
                    projective_deck(P, side_alpha, P.plus, side_r, side_s), label)
    m.label = label
    return m


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


def _powers(mat: SparseMat, n: int, ctx) -> list:
    """[mat^0, mat^1, ..., mat^n] for n >= 1."""
    out = [SparseMat.identity(mat.nrows, ctx), mat]
    for _ in range(n - 1):
        out.append(out[-1] * mat)
    return out


def cached_irreducible(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    return params.cached(("irr", alpha, r, s), lambda: irreducible(params, alpha, r, s))


def cached_projective(params: Params, alpha: int, r: int, s: int) -> ModuleRep:
    return params.cached(("proj", alpha, r, s), lambda: projective(params, alpha, r, s))


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
        self.irreducibles = {lab: cached_irreducible(params, *lab) for lab in self.labels}
        self.casimirs = params.casimirs()
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
            cp, cm = (sec.casimir_eigenvalue(*label) for sec in P.sectors)
            counts = Counter(weights)
            return sparse_sum(((u, v, w), cp ** u * cm ** v * n)
                              for u in range(P.p_plus + 1)
                              for v in range(P.p_minus + 1)
                              for w, n in counts.items())
        cp_pows = _powers(module.act(self.casimirs[0]), P.p_plus, P.ctx)
        cm_pows = _powers(module.act(self.casimirs[1]), P.p_minus, P.ctx)
        # the diagonal of a b only: (a b)_ii = sum_k a_ik b_ki
        return sum_products(((u, v, weights[i]), x, y)
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
