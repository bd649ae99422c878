"""The Grothendieck ring: closed-form product, Chebyshev presentation.

Classes of the 2 p_+ p_- irreducibles X^alpha_{r,r'} multiply by the
sl(2)-type fusion rule in each index, with out-of-range labels folded back
by the reflection

    Xt^a_{r} = X^a_{2p - r} + 2 X^{-a}_{r - p}     (p < r <= 2p - 1)

applied per sector.  The ring is commutative with unit [X^+_{1,1}],
generated by [X^+_{2,1}] and [X^+_{1,2}], and is presented as a quotient of
C[x, y] by three explicit Chebyshev-polynomial relations.  The Chebyshev
polynomials and psi_p are the LaurentZ of `cyclotomic`, where psi_p is
defined once for this presentation and for the Casimir projections of the
center, and every evaluation goes through `cyclotomic.horner`.
"""

from __future__ import annotations

from .algebra import Params
from .cyclotomic import chebyshev_diff, chebyshev_U, horner, psi_poly

__all__ = [
    "GrElement",
    "gr_class",
    "gr_multiply",
    "verify_presentation",
    "verify_casimir_identities",
]


class GrElement:
    """Integer combination of irreducible classes."""

    __slots__ = ("params", "mult")

    def __init__(self, params: Params, mult: dict | None = None):
        self.params = params
        self.mult = {k: v for k, v in (mult or {}).items() if v}

    def __add__(self, other):
        """Sum of classes; an int n stands for n times the unit class."""
        if isinstance(other, int):
            other = GrElement(self.params, {(1, 1, 1): other})
        out = dict(self.mult)
        for k, v in other.mult.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        return GrElement(self.params, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __mul__(self, other):
        return gr_multiply(self, other)

    def scale(self, n: int):
        return GrElement(self.params, {k: v * n for k, v in self.mult.items()})

    def __eq__(self, other):
        return isinstance(other, GrElement) and self.mult == other.mult

    def __repr__(self):
        return f"GrElement({self.mult})"

    def total_dimension(self) -> int:
        return sum(v * r * s for (_a, r, s), v in self.mult.items())

    def __hash__(self):
        return hash(tuple(sorted(self.mult.items())))


def gr_class(params: Params, alpha: int, r: int, s: int) -> GrElement:
    return GrElement(params, {(alpha, r, s): 1})


def _fold(p: int, alpha: int, r: int):
    """Resolve an index r of a sector with parameter p, out of range up to
    2p, into honest classes as (alpha, r, multiplicity) triples; the
    reflection to index zero drops out (U_0 = 0)."""
    if 1 <= r <= p:
        return [(alpha, r, 1)]
    if not (p < r <= 2 * p):
        raise ValueError(f"index {r} outside the fold range of p = {p}")
    out = [(-alpha, r - p, 2)]
    if 2 * p - r:
        out.append((alpha, 2 * p - r, 1))
    return out


def gr_multiply(A: GrElement, B: GrElement) -> GrElement:
    """Bilinear extension of the irreducible product rule."""
    P = A.params
    out = {}
    for (a1, r1, s1), m1 in A.mult.items():
        for (a2, r2, s2), m2 in B.mult.items():
            m = m1 * m2
            ab = a1 * a2
            for u in range(abs(r1 - r2) + 1, r1 + r2, 2):
                for v in range(abs(s1 - s2) + 1, s1 + s2, 2):
                    # (Xt)^{ab}_{u,v}: fold both indices independently;
                    # a sign flip in either factor flips the class sign
                    for (af, uf, cu) in _fold(P.p_plus, ab, u):
                        for (aff, vf, cv) in _fold(P.p_minus, af, v):
                            key = (aff, uf, vf)
                            out[key] = out.get(key, 0) + m * cu * cv
    return GrElement(P, {k: v for k, v in out.items() if v})


def verify_presentation(params: Params):
    """Check the polynomial-quotient presentation of the ring.

    (i) the three ideal generators vanish under x -> [X^+_{2,1}],
    y -> [X^+_{1,2}]; (ii) the P^pm_{r,r'} polynomials evaluate to the
    irreducible classes, P^+ = U_r(x) U_s(y) and
    2 P^- = (U_{p+r} - U_{p-r})(x) U_s(y); (iii) evaluation is onto (all
    classes hit).  Returns a report dict with a boolean 'ok'."""
    P = params
    p, q = P.p_plus, P.p_minus
    # x and y evaluate to the classes of the fold of X_{2,1} and X_{1,2};
    # for p_pm >= 2 these are the honest irreducible classes
    X = GrElement(P, {(a, r, 1): c for (a, r, c) in _fold(p, 1, 2)})
    Y = GrElement(P, {(a, 1, s): c for (a, s, c) in _fold(q, 1, 2)})
    zero = GrElement(P)

    def at(poly, v):
        return horner(poly.coefficients(), v, zero)

    failures = []
    report = {"generators": [], "ok": True}
    gens = {
        "psi_plus": at(psi_poly(p), X),
        "psi_minus": at(psi_poly(q), Y),
        "mixed": at(chebyshev_diff(p), X) - at(chebyshev_diff(q), Y),
    }
    for name, val in gens.items():
        ok = val == zero
        report["generators"].append({"name": name, "vanishes": ok})
        if not ok:
            failures.append(name)
    hit = set()
    for r in range(1, p + 1):
        for s in range(1, q + 1):
            u_s = at(chebyshev_U(s), Y)
            if at(chebyshev_U(r), X) * u_s == gr_class(P, 1, r, s):
                hit.add((1, r, s))
            else:
                failures.append(f"P+({r},{s})")
            minus = at(chebyshev_U(p + r) - chebyshev_U(p - r), X) * u_s
            if minus == gr_class(P, -1, r, s).scale(2):
                hit.add((-1, r, s))
            else:
                failures.append(f"P-({r},{s})")
    report["surjective"] = len(hit) == 2 * p * q
    report["ok"] = not failures and report["surjective"]
    report["failures"] = failures
    return report


def verify_casimir_identities(params: Params):
    """In the algebra, for each sector with parameter p and Casimir C:
    U_{p+1}(C) - U_{p-1}(C) = (-1)^(p_+ + p_-) 2 K^{p_+ p_-} and
    psi_p(C) = 0."""
    P = params
    report = {"ok": True, "failures": []}
    target = P.gen("K", P.pp) * (2 * (-1) ** (P.p_plus + P.p_minus))
    for sec, cas in zip(P.sectors, P.casimirs()):
        if horner(chebyshev_diff(sec.p).coefficients(), cas, P.zero) != target:
            report["failures"].append(f"U-identity ({sec.sign} sector)")
        if not horner(psi_poly(sec.p).coefficients(), cas, P.zero).is_zero():
            report["failures"].append(f"psi_{sec.sign}(C_{sec.sign}) != 0")
    report["ok"] = not report["failures"]
    return report
