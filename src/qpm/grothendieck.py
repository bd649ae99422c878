"""The Grothendieck ring: closed-form product, Chebyshev presentation.

Classes of the 2 p_+ p_- irreducibles X^alpha_{r,r'} multiply by the
sl(2)-type fusion rule in each index, with out-of-range labels folded back
by the reflection

    Xt^a_{r} = X^a_{2p - r} + 2 X^{-a}_{r - p}     (p < r <= 2p - 1)

applied per sector.  The ring is commutative with unit [X^+_{1,1}],
generated by [X^+_{2,1}] and [X^+_{1,2}], and is presented as a quotient of
C[x, y] by three explicit Chebyshev-polynomial relations.
"""

from __future__ import annotations

from fractions import Fraction

from .algebra import AlgebraElement, Params

__all__ = [
    "GrElement",
    "gr_class",
    "gr_multiply",
    "chebyshev_U",
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


# ----------------------------------------------------------------------
# Chebyshev polynomials of the second kind (integer coefficients,
# U_1 = 1, U_2 = x, x U_s = U_{s-1} + U_{s+1})
# ----------------------------------------------------------------------

def chebyshev_U(s: int):
    """Coefficient list (ascending) of U_s; U_0 = 0 by the recursion."""
    if s < 0:
        raise ValueError("index must be nonnegative")
    if s == 0:
        return [0]
    prev, cur = [0], [1]  # U_0, U_1
    for _ in range(s - 1):
        # next = x*cur - prev
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return cur


def _poly_eval_ring(coeffs, x, ring_zero, ring_one, mul, add, scale):
    acc = ring_zero
    for c in reversed(coeffs):
        acc = mul(acc, x)
        if c:
            acc = add(acc, scale(ring_one, c))
    return acc


def _eval_gr(coeffs, x: GrElement) -> GrElement:
    P = x.params
    return _poly_eval_ring(coeffs, x, GrElement(P), gr_class(P, 1, 1, 1),
                           gr_multiply, GrElement.__add__, GrElement.scale)


def _eval_alg(coeffs, x: AlgebraElement) -> AlgebraElement:
    P = x.params
    return _poly_eval_ring(coeffs, x, P.zero, P.one,
                           lambda a, b: a * b, lambda a, b: a + b,
                           lambda a, n: a * n)


def _sub(a, b):
    """The coefficient list a - b."""
    n = max(len(a), len(b))
    return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
            for i in range(n)]


def _eval_2var(px, py, x: GrElement, y: GrElement) -> GrElement:
    return gr_multiply(_eval_gr(px, x), _eval_gr(py, y))


def verify_presentation(params: Params):
    """Check the polynomial-quotient presentation of the ring.

    (i) the three ideal generators vanish under x -> [X^+_{2,1}],
    y -> [X^+_{1,2}]; (ii) the P^pm_{r,r'} polynomials evaluate to the
    irreducible classes; (iii) evaluation is onto (all classes hit).
    Returns a report dict with a boolean 'ok'."""
    P = params
    p, q = P.p_plus, P.p_minus
    # x and y evaluate to the classes of the fold of X_{2,1} and X_{1,2};
    # for p_pm >= 2 these are the honest irreducible classes
    X = GrElement(P, {(a, r, 1): c for (a, r, c) in _fold(p, 1, 2)})
    Y = GrElement(P, {(a, 1, s): c for (a, s, c) in _fold(q, 1, 2)})
    failures = []
    report = {"generators": [], "ok": True}
    up = chebyshev_U
    gens = {
        "psi_plus": (_sub(up(2 * p + 1), up(2 * p - 1)), None, -2),
        "psi_minus": (None, _sub(up(2 * q + 1), up(2 * q - 1)), -2),
        "mixed": (_sub(up(p + 1), up(p - 1)), _sub(up(q + 1), up(q - 1)), 0),
    }
    one = gr_class(P, 1, 1, 1)
    for name, (px, py, const) in gens.items():
        if name == "mixed":
            val = _eval_gr(px, X) - _eval_gr(py, Y)
        elif px is not None:
            val = _eval_gr(px, X) + one.scale(const)
        else:
            val = _eval_gr(py, Y) + one.scale(const)
        ok = val == GrElement(P)
        report["generators"].append({"name": name, "vanishes": ok})
        if not ok:
            failures.append(name)
    hit = set()
    for r in range(1, p + 1):
        for s in range(1, q + 1):
            plus = _eval_2var(up(r), up(s), X, Y)
            ok = plus == gr_class(P, 1, r, s)
            if not ok:
                failures.append(f"P+({r},{s})")
            else:
                hit.add((1, r, s))
            half = Fraction(1, 2)
            coeffs = [half * (a - b) for a, b in
                      zip(_pad(up(p + r), 2 * p + r), _pad(up(p - r) if p > r else [0], 2 * p + r))]
            # evaluate (U_{p+r} - U_{p-r})/2 * U_s with rational halves
            minus = _eval_2var_frac(coeffs, up(s), X, Y)
            ok = minus == gr_class(P, -1, r, s)
            if not ok:
                failures.append(f"P-({r},{s})")
            else:
                hit.add((-1, r, s))
    report["surjective"] = len(hit) == 2 * p * q
    report["ok"] = not failures and report["surjective"]
    report["failures"] = failures
    return report


def _pad(coeffs, n):
    return list(coeffs) + [0] * (n + 1 - len(coeffs))


def _eval_2var_frac(px, py, x: GrElement, y: GrElement) -> GrElement:
    """Evaluate with Fraction coefficients in the first variable; the
    result must have integer multiplicities."""
    P = x.params
    acc = {}
    xpow = gr_class(P, 1, 1, 1)
    ypart = _eval_gr(py, y)
    for i, c in enumerate(px):
        if i:
            xpow = gr_multiply(xpow, x)
        if c:
            term = gr_multiply(xpow, ypart)
            for k, v in term.mult.items():
                acc[k] = acc.get(k, Fraction(0)) + c * v
    out = {}
    for k, v in acc.items():
        if v:
            assert v.denominator == 1, "non-integer class multiplicity"
            out[k] = int(v)
    return GrElement(P, out)


def verify_casimir_identities(params: Params):
    """In the algebra, for each sector with parameter p and Casimir C:
    U_{p+1}(C) - U_{p-1}(C) = (-1)^(p_+ + p_-) 2 K^{p_+ p_-} and
    psi(C) = 0."""
    P = params
    report = {"ok": True, "failures": []}
    target = P.gen("K", P.pp) * (2 * (-1) ** (P.p_plus + P.p_minus))
    for sec, cas in zip(P.sectors, P.casimirs()):
        p = sec.p
        if _eval_alg(_sub(chebyshev_U(p + 1), chebyshev_U(p - 1)), cas) != target:
            report["failures"].append(f"U-identity ({sec.sign} sector)")
        psi = _sub(chebyshev_U(2 * p + 1), chebyshev_U(2 * p - 1))
        psi[0] -= 2
        if not _eval_alg(psi, cas).is_zero():
            report["failures"].append(f"psi_{sec.sign}(C_{sec.sign}) != 0")
    report["ok"] = not report["failures"]
    return report
