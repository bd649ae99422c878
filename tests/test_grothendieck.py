"""Fusion ring: product formula, Chebyshev presentation, Casimir identities."""

from qpm.grothendieck import (chebyshev_U, gr_class, gr_multiply,
                              verify_casimir_identities, verify_presentation)
from qpm.reps import irreducible_labels, tensor_product


def test_chebyshev_initial_and_recursion():
    assert chebyshev_U(1) == [1]
    assert chebyshev_U(2) == [0, 1]
    assert chebyshev_U(3) == [-1, 0, 1]
    for s in range(2, 10):
        a = [0] + chebyshev_U(s)
        b, c = chebyshev_U(s - 1), chebyshev_U(s + 1)
        n = max(len(a), len(b), len(c))
        pad = lambda v: v + [0] * (n - len(v))
        assert [x - y - z for x, y, z in zip(pad(a), pad(b), pad(c))] == [0] * n


def test_chebyshev_eigenfunction_identity():
    # (x^2 - 4) U'' + 3 x U' + U = s^2 U
    for s in range(1, 10):
        U = chebyshev_U(s)
        d1 = [c * i for i, c in enumerate(U)][1:] or [0]
        d2 = [c * i for i, c in enumerate(d1)][1:] or [0]
        n = len(U) + 2
        pad = lambda v: v + [0] * (n - len(v))
        lhs = [0] * n
        for i, c in enumerate(pad(d2)):
            if i + 2 < n:
                lhs[i + 2] += c
            lhs[i] -= 4 * c
        for i, c in enumerate(pad(d1)):
            if i + 1 < n:
                lhs[i + 1] += 3 * c
        for i, c in enumerate(pad(U)):
            lhs[i] += c
        assert lhs == [s * s * c for c in pad(U)]


def test_unit_class(P23):
    one = gr_class(P23, 1, 1, 1)
    for lab in irreducible_labels(P23):
        A = gr_class(P23, *lab)
        assert gr_multiply(one, A) == A


def test_specific_products(P23):
    prod = gr_multiply(gr_class(P23, 1, 2, 1), gr_class(P23, 1, 2, 1))
    assert prod.mult == {(1, 1, 1): 2, (-1, 1, 1): 2}
    prod = gr_multiply(gr_class(P23, 1, 1, 2), gr_class(P23, 1, 1, 2))
    assert prod.mult == {(1, 1, 1): 1, (1, 1, 3): 1}


def test_full_agreement_with_tensor_oracle(P23, T23):
    gi = T23.gr_index
    labels = irreducible_labels(P23)
    for la in labels:
        for lb in labels:
            t = tensor_product(gi.irreducibles[la], gi.irreducibles[lb])
            assert gr_multiply(gr_class(P23, *la), gr_class(P23, *lb)).mult \
                == gi.decompose_dict(t), (la, lb)


def test_dimension_homomorphism(P23):
    labels = irreducible_labels(P23)
    for la in labels[:4]:
        for lb in labels[:4]:
            prod = gr_multiply(gr_class(P23, *la), gr_class(P23, *lb))
            assert prod.total_dimension() == la[1] * la[2] * lb[1] * lb[2]


def test_commutativity_associativity(P23):
    labels = irreducible_labels(P23)
    a, b, c = (gr_class(P23, *labels[i]) for i in (3, 7, 10))
    assert gr_multiply(a, b) == gr_multiply(b, a)
    assert gr_multiply(gr_multiply(a, b), c) == gr_multiply(a, gr_multiply(b, c))


def test_presentation(P12, P23):
    for P in (P12, P23):
        rep = verify_presentation(P)
        assert rep["ok"], rep["failures"]
        assert rep["surjective"]


def test_casimir_identities(P12, P23):
    for P in (P12, P23):
        rep = verify_casimir_identities(P)
        assert rep["ok"], rep["failures"]


def test_u_identity_value_at_1_2(P12):
    # both sides equal (-1)^(p+ + p-) 2 K^(p+ p-) = -2 K^2 at (1,2)
    from qpm.grothendieck import _eval_alg, chebyshev_U
    P = P12
    cp, cm = P.casimirs()
    def sub(a, b):
        n = max(len(a), len(b))
        return [(a[i] if i < len(a) else 0) - (b[i] if i < len(b) else 0)
                for i in range(n)]
    lhs = _eval_alg(sub(chebyshev_U(P.p_plus + 1), chebyshev_U(P.p_plus - 1)), cp)
    assert lhs == P.gen("K", P.pp) * (-2)


def test_generation_by_two_classes(P23):
    from qpm.linalg import SpanSolver
    P = P23
    x = gr_class(P, 1, 2, 1)
    y = gr_class(P, 1, 1, 2)
    span = [gr_class(P, 1, 1, 1)]
    frontier = list(span)
    seen = {frozenset(span[0].mult.items())}
    for _ in range(8):
        new = []
        for el in frontier:
            for g in (x, y):
                h = gr_multiply(el, g)
                key = frozenset(h.mult.items())
                if key not in seen:
                    seen.add(key)
                    new.append(h)
        span.extend(new)
        frontier = new
    vecs = [{k: P.ctx.integer(v) for k, v in el.mult.items()} for el in span]
    assert SpanSolver(vecs, P.ctx).rank == 12


def test_one_sector_fusion_rule(T23):
    # chi_(pm)(r) chi_(pm)(r') follows the single-sector folded rule
    from qpm.duality import chi_sector
    P = T23.params
    for r in range(1, P.p_plus + 1):
        for s in range(1, P.p_plus + 1):
            prod = chi_sector(P, P.plus, r) * chi_sector(P, P.plus, s)
            expect = P.zero
            for u in range(abs(r - s) + 1, r + s, 2):
                if u <= P.p_plus:
                    expect = expect + chi_sector(P, P.plus, u)
                else:
                    expect = expect + chi_sector(P, P.plus, 2 * P.p_plus - u)
                    expect = expect + (chi_sector(P, P.plus, u - P.p_plus)
                                       * P.gen("K", P.pp)
                                       * (2 * (-1) ** (P.p_plus + P.p_minus)))
            assert (prod - expect).is_zero(), (r, s)
