"""q-characters: trace functionals, pseudotraces and the gamma basis.

A functional beta on the algebra is a q-character when
beta(x y) = beta(S^2(y) x) for all x, y; these form the center of the dual
algebra.  The space is spanned by the balanced traces over the 2 p_+ p_-
irreducible modules together with pseudotraces
x -> Tr(g^-1 x sigma) taken over direct sums of projective covers in a
single linkage block, where sigma is a suitable non-module map.

The block module of a label (r, r') sums the projective covers of the
irreducibles linked to X^+_{r,r'} (Params.linked), in the table's order,
each under the initial of its arrow: 'u', 'r', 'l', 'd' on the interior.
On an interior block sigma kills every basis vector except the deepest ones
(outer suit 'd', inner suit 'd'), which it sends to a four-term combination with
one free coefficient per (greek letter, arrow, component).  The constraint
set that makes the trace a q-character couples the sixteen coefficients
across components.

Boundary blocks have two projective covers, each a single deck; sigma there
maps the bottom irreducible's basis vectors to the corresponding top ones.
The defining references only pin the interior construction, so the boundary
variant is validated behaviorally (q-character predicate plus the known
central decompositions of the resulting Radford images).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import chain

from .algebra import AlgebraElement, Params, Sector
from .center import center_dimension
from .cyclotomic import Cyclo, sparse_sum, sum_products
from .linalg import SparseMat, SpanSolver, nullspace
from .reps import ModuleRep, cached_irreducible, cached_projective, direct_sum

__all__ = [
    "Functional",
    "PseudotraceSpec",
    "CharacterSpace",
    "counit_functional",
    "qtrace",
    "trace_functional",
    "is_qcharacter",
    "qcharacter_space",
    "sigma_endomorphism",
    "block_module",
]

_BULLETS = ("u", "r", "l", "d")  # component arrows: up, right, left, down


class Functional:
    """Linear functional stored by its values on the PBW basis."""

    __slots__ = ("params", "values")

    def __init__(self, params: Params, values: dict):
        self.params = params
        self.values = {m: v for m, v in values.items() if not v.is_zero()}

    def __call__(self, x):
        zero, get = self.params.ctx.zero, self.values.get
        if isinstance(x, tuple):
            return get(x, zero)
        return sum_products((0, c, v) for m, c in x.coeffs.items()
                            for v in (get(m),) if v is not None).get(0, zero)

    def __add__(self, other):
        return Functional(self.params, sparse_sum(
            chain(self.values.items(), other.values.items())))

    def __sub__(self, other):
        return self + other * (-1)

    def __mul__(self, scalar):
        return Functional(self.params, {m: v * scalar for m, v in self.values.items()})

    __rmul__ = __mul__

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return isinstance(other, Functional) and self.values == other.values

    def convolve(self, other: "Functional") -> "Functional":
        """Product in the dual algebra: (b * b')(x) = sum b(x') b'(x'')."""
        P = self.params
        get1, get2 = self.values.get, other.values.get
        return Functional(P, sparse_sum(
            (mono, c * v1 * v2)
            for mono in P.monomials()
            for (m1, m2), c in P.coproduct_mono(mono).coeffs.items()
            for v1 in (get1(m1),) if v1 is not None
            for v2 in (get2(m2),) if v2 is not None))


def counit_functional(params: Params) -> Functional:
    return Functional(params, {(0, 0, 0, 0, j): params.ctx.one
                               for j in range(params.korder)})


def trace_functional(module: ModuleRep, sigma: SparseMat | None = None) -> Functional:
    """x -> Tr(g^-1 x sigma) over the given module, g = K^(p_+ - p_-).

    The K-power part of each PBW monomial contributes a known phase per
    basis vector, so the trace over all 2 p_+ p_- K-powers of a fixed
    sector word costs one sparse product plus a Fourier sum.

    Only the p_+ p_- K-free words of conjugation weight 0 (sector weight
    (0, 0)) are multiplied out.  A word B of nonzero weight maps each
    K-eigenspace of the module into another one, and K^j, g^-1 and sigma
    (which commutes with K) keep every eigenspace, so each diagonal entry
    of g^-1 B K^j sigma is zero and the trace vanishes on every B K^j.
    Skipped words would add no key, so the values are those of the loop
    over all words.
    """
    P = module.params
    zeta = P.ctx.root_of_unity
    gw = P.p_minus - P.p_plus  # g^-1 = K^{p_- - p_+}
    values = {}
    sigma_by_col = None
    if sigma is not None:
        sigma_by_col = {}
        for (k, i), v in sigma.data.items():
            sigma_by_col.setdefault(i, []).append((k, v))
    for a in range(P.p_plus):
        for b in range(P.p_plus):
            for c in range(P.p_minus):
                for d in range(P.p_minus):
                    if P.weight((a, b, c, d, 0)):
                        continue
                    word = module.act_mono((a, b, c, d, 0))
                    # pairs (coeff, weight) entering Tr(g^-1 word K^j sigma)
                    pairs = []
                    if sigma is None:
                        for (i, k), v in word.data.items():
                            if i == k:
                                pairs.append((zeta(12 * module.kweights[i] * gw) * v,
                                              module.kweights[i]))
                    else:
                        for (i, k), v in word.data.items():
                            for (tgt, sv) in sigma_by_col.get(i, ()):
                                if tgt == k:
                                    pairs.append(
                                        (zeta(12 * module.kweights[i] * gw) * v * sv,
                                         module.kweights[k]))
                    values.update(sparse_sum(
                        ((a, b, c, d, j), coeff * zeta(12 * w * j))
                        for j in range(P.korder) for coeff, w in pairs))
    return Functional(P, values)


def qtrace(params: Params, alpha: int, r: int, s: int) -> Functional:
    """The balanced trace x -> Tr(g^-1 x) of the irreducible X^alpha_{r,s},
    built once per pair."""
    return params.cached(("qtrace", alpha, r, s), lambda: trace_functional(
        cached_irreducible(params, alpha, r, s)))


def _square_antipode_scalars(params: Params):
    """S^2(gen) = scalar * gen for each generator (conjugation by the
    balancing element)."""
    d = params.p_plus - params.p_minus
    zeta = params.zeta
    out = {"K": params.ctx.one}
    for sec in params.sectors:
        out[sec.e] = zeta(2 * d * sec.zq)
        out[sec.f] = zeta(-2 * d * sec.zq)
    return out


def is_qcharacter(beta: Functional, spot_checks: int = 0, rng=None) -> bool:
    """beta(x y) = beta(S^2(y) x) checked for y over the five generators and
    x over the whole PBW basis; by multiplicativity of the condition in y
    this implies the full two-sided condition.  Optional random full-pair
    spot checks guard the reduction itself.

    For x = B K^j both sides read beta on the terms of B g and g B, with
    their K exponents shifted by j.  A pair (g, B) for which no such term
    has its K-free part in beta's support gives 0 = 0 at every j and is
    skipped; for a q-character, supported on the words of sector weight
    (0, 0), that leaves the B of the sector weight opposite to g's."""
    P = beta.params
    ko, values = P.korder, beta.values
    support = {m[:4] for m in values}
    scal = _square_antipode_scalars(P)

    def at(terms, j, e):
        """(zeta^e c, v) for each term c m of the product `terms` whose
        monomial, its K exponent shifted by j, has the value v under beta."""
        for (a, b, cc, d, i), c in terms:
            v = values.get((a, b, cc, d, (i + j) % ko))
            if v is not None:
                yield c.shift(e), v

    for name, gm in (*P.live_generators.items(), ("K", (0, 0, 0, 0, 1))):
        s = scal[name]
        for mono in P.monomials():
            if mono[4]:
                continue
            # (B K^j) g = zeta^e (B g) K^j and g (B K^j) = (g B) K^j
            right = P.mono_mul(mono, gm).items()
            left = P.mono_mul(gm, mono).items()
            if not any(m[:4] in support for m, _ in chain(right, left)):
                continue
            # zeta^e beta((B g) K^j) - s beta((g B) K^j) for every j, one
            # batch keyed by j whose nonzero keys are the failures
            left = [(m, -(c * s)) for m, c in left]
            if sum_products((j, c, v) for j in range(ko)
                            for terms, e in ((right, P.kphase(gm, j)), (left, 0))
                            for c, v in at(terms, j, e)):
                return False
    if spot_checks and rng is not None:
        monos = list(P.monomials())
        for _ in range(spot_checks):
            x = AlgebraElement(P, {rng.choice(monos): P.ctx.one})
            y = AlgebraElement(P, {rng.choice(monos): P.q})
            y2 = y.antipode().antipode()
            if beta(x * y) != beta(y2 * x):
                return False
    return True


def qcharacter_space(params: Params):
    """Basis of the full space of q-characters by direct linear solve.

    The K-generator condition forces q-characters to vanish off the
    K-conjugation-weight-zero part of the basis, so the solve runs over
    those monomials only; the remaining four generator conditions become a
    sparse homogeneous system.
    """
    P = params
    unknowns = [m for m in P.monomials() if P.weight(m) == 0]
    index = {m: i for i, m in enumerate(unknowns)}
    scal = _square_antipode_scalars(P)
    rows = []
    for name, gm in P.live_generators.items():
        gw = P.weight(gm)
        s = scal[name]
        for mono in P.monomials():
            if (P.weight(mono) + gw) % P.korder:
                continue
            row = sparse_sum(chain(
                ((index[m], c) for m, c in P.mono_mul(mono, gm).items() if m in index),
                ((index[m], -(s * c)) for m, c in P.mono_mul(gm, mono).items()
                 if m in index)))
            if row:
                rows.append(row)
    basis = nullspace(rows, len(unknowns), P.ctx)
    out = []
    for vec in basis:
        out.append(Functional(P, {unknowns[i]: v for i, v in enumerate(vec)
                                  if not v.is_zero()}))
    return out


# ----------------------------------------------------------------------
# pseudotraces
# ----------------------------------------------------------------------

@dataclass
class PseudotraceSpec:
    """Coefficients of the sigma map on one linkage block.

    coeffs maps (letter, arrow, bullet) -> Cyclo with letter in
    {'alpha', 'beta'}, arrow in {'up', 'down'}, bullet one of 'u', 'r',
    'l', 'd' naming the component module.  Missing entries are zero.
    """

    block: tuple
    coeffs: dict = field(default_factory=dict)

    def get(self, letter, arrow, bullet, ctx):
        return self.coeffs.get((letter, arrow, bullet), ctx.zero)

    def check_constraints(self, ctx) -> bool:
        g = self.get
        return (g("alpha", "up", "u", ctx) == g("alpha", "up", "r", ctx)
                and g("alpha", "up", "d", ctx) == g("alpha", "up", "l", ctx)
                and g("beta", "down", "u", ctx) == g("beta", "down", "l", ctx)
                and g("beta", "down", "d", ctx) == g("beta", "down", "r", ctx)
                and g("beta", "up", "u", ctx) == g("beta", "up", "l", ctx)
                == g("beta", "up", "r", ctx) == g("beta", "up", "d", ctx))


def block_module(params: Params, r: int, s: int) -> tuple:
    """Direct sum of the projective covers of the irreducibles linked to
    X^+_{r,s}, in the order of Params.linked: four on the interior, two on
    a boundary.  Returns (module, ranges), where ranges maps a bullet, the
    initial of the cover's arrow, to (lo, hi, cover), its basis-offset
    window."""
    P = params

    def build():
        covers = [(arrow[0], cached_projective(P, *lab))
                  for arrow, lab in P.linked(1, r, s).items()]
        ranges = {}
        offset = 0
        for bullet, m in covers:
            ranges[bullet] = (offset, offset + m.dim, m)
            offset += m.dim
        module = reduce(direct_sum, (m for _, m in covers))
        module.label = f"Block({r},{s})"
        return module, ranges

    return P.cached(("block", r, s), build)


def sigma_endomorphism(params: Params, spec: PseudotraceSpec) -> tuple:
    """The sigma map of the given spec as a sparse matrix on the block
    module.  Returns (module, sigma)."""
    P = params
    ctx = P.ctx
    if not spec.check_constraints(ctx):
        raise ValueError("pseudotrace coefficients violate the constraint relations")
    module, ranges = block_module(P, *spec.block)
    targets = {
        ("alpha", "up"): ("d", "u"),
        ("alpha", "down"): ("d", "d"),
        ("beta", "up"): ("u", "u"),
        ("beta", "down"): ("u", "d"),
    }

    def terms():
        for bullet, (lo, _hi, comp) in ranges.items():
            for (letter, arrow), (outer, inner) in targets.items():
                c = spec.get(letter, arrow, bullet, ctx)
                if c.is_zero():
                    continue
                for lab, i in comp.index.items():
                    if lab[:2] == ("d", "d"):
                        tgt = (outer, inner) + lab[2:]
                        j = comp.index.get(tgt)
                        if j is None:
                            raise RuntimeError(f"missing sigma target {tgt}")
                        yield (lo + j, lo + i), c

    return module, SparseMat(module.dim, module.dim, sparse_sum(terms()))


def boundary_sigma(params: Params, r: int, s: int, coeff: Cyclo) -> tuple:
    """Bottom-to-top sigma on a boundary block, same coefficient on both
    components."""
    module, ranges = block_module(params, r, s)
    data = {}
    for bullet, (lo, _hi, comp) in ranges.items():
        for lab, i in comp.index.items():
            if lab[0] == "d":  # single-deck module: (suit, n, n')
                j = comp.index[("u",) + lab[1:]]
                data[(lo + j, lo + i)] = coeff
    return module, SparseMat(module.dim, module.dim, data)


# ----------------------------------------------------------------------
# the gamma basis
# ----------------------------------------------------------------------

# the sigma coefficients of a sector's pseudotrace: (letter, arrow), and
# the bullets carrying the coefficient on an interior block's own label and
# on its reflection (p_+ - r, p_- - s)
_ARROW_SIGMA = {"+": ("alpha", "up", "ur", "dl"), "-": ("beta", "down", "ul", "dr")}


class CharacterSpace:
    """The distinguished q-character basis, in its reading order.

    The (kind, label) names and their order are fixed when the space is
    made; each q-character is built on its first request (functional) and
    cached on Params, so a caller that reads a few of them pays for those
    alone.  entries and functionals() are lists over that one builder.  The
    independence guard, solver, is built and checked on its first read."""

    def __init__(self, params: Params):
        P = self.params = params
        I1 = P.set_I1()
        plus, minus = P.sectors

        keys = []  # (kind, label)

        def traces(*blocks):
            """The balanced traces of the members of each block, in the
            order of Params.block_members."""
            for blk in blocks:
                keys.extend(("qtr", lab) for lab in P.block_members(*blk).values())

        # reading order of the distinguished basis
        traces((P.p_plus, P.p_minus))
        keys.extend((plus.pseudo, (r, P.p_minus)) for r in range(1, P.p_plus))
        keys.extend(("upup", lab) for lab in I1)
        keys.extend((minus.pseudo, (P.p_plus, s)) for s in range(1, P.p_minus))
        traces((0, P.p_minus), *((r, P.p_minus) for r in range(1, P.p_plus)))
        for r in range(1, P.p_plus):
            for s in range(1, P.p_minus):
                keys.extend(((plus.pseudo, (r, s)), (minus.pseudo, (r, s))))
        traces(*((P.p_plus, s) for s in range(1, P.p_minus)), *I1)
        expected = center_dimension(P)
        if len(keys) != expected:
            raise RuntimeError(f"gamma basis has {len(keys)} entries, expected {expected}")
        self.index = {key: i for i, key in enumerate(keys)}

    def functional(self, kind: str, label) -> Functional:
        """The basis member named (kind, label), built once per pair; a name
        outside the basis raises KeyError."""
        P = self.params
        if (kind, label) not in self.index:
            raise KeyError((kind, label))
        if kind == "qtr":
            return qtrace(P, *label)

        def build():
            if kind == "upup":
                return self.gamma_upup(*label)
            sec = next(sec for sec in P.sectors if sec.pseudo == kind)
            return self.gamma_arrow(sec, *label)

        return P.cached(("qcharacter", kind, label), build)

    @property
    def entries(self):
        """[(kind, label, functional)] in the reading order."""
        return [(kind, lab, self.functional(kind, lab)) for kind, lab in self.index]

    @property
    def solver(self) -> SpanSolver:
        """A SpanSolver over the basis; raises RuntimeError if the members
        are linearly dependent."""
        return self.params.cached("character_solver", self._build_solver)

    def _build_solver(self) -> SpanSolver:
        solver = SpanSolver([f.values for f in self.functionals()], self.params.ctx)
        if not solver.independent:
            raise RuntimeError("gamma basis is linearly dependent")
        return solver

    def gamma_arrow(self, sec: Sector, r: int, s: int) -> Functional:
        """The one-sector pseudotrace of kind sec.pseudo at (r, s): the
        alpha-up type on I_slash for the plus sector, the beta-down type on
        I_bslash for the minus sector."""
        P = self.params
        a, b = sec.lab(r, s)
        c = sec.qint(a) * sec.qdiff(1).inv()
        if b == sec.p_other:
            module, sigma = boundary_sigma(P, r, s, c)
        else:
            letter, arrow, own, reflected = _ARROW_SIGMA[sec.sign]
            block = P.block_of(1, r, s)
            bullets = own if block == (r, s) else reflected
            module, sigma = sigma_endomorphism(P, PseudotraceSpec(
                block, {(letter, arrow, bullet): c for bullet in bullets}))
        return trace_functional(module, sigma)

    def gamma_upup(self, r: int, s: int) -> Functional:
        """The two-sector (beta-up) pseudotrace of the interior label (r, s)."""
        P = self.params
        c = (P.plus.qint(r) * P.minus.qint(s)
             * (P.plus.qdiff(1) * P.minus.qdiff(1)).inv())
        spec = PseudotraceSpec((r, s), {("beta", "up", b): c for b in _BULLETS})
        return trace_functional(*sigma_endomorphism(P, spec))

    @property
    def dimension(self):
        return len(self.index)

    def functionals(self):
        return [self.functional(kind, lab) for kind, lab in self.index]

    def labels(self):
        return list(self.index)
