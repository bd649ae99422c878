"""Fusion ring: product formula, Chebyshev presentation, Casimir identities."""

from qpm.cyclotomic import LaurentZ, chebyshev_diff, chebyshev_U, horner
from qpm.grothendieck import (GrElement, gr_class, gr_multiply,
                              verify_casimir_identities, verify_presentation)
from qpm.reps import irreducible_labels, tensor_product

X = LaurentZ({1: 1})


def _derivative(poly: LaurentZ) -> LaurentZ:
    return LaurentZ({e - 1: v * e for e, v in poly.c.items()})


def test_chebyshev_initial_and_recursion():
    assert chebyshev_U(0) == LaurentZ()
    assert chebyshev_U(1).coefficients() == [1]
    assert chebyshev_U(2).coefficients() == [0, 1]
    assert chebyshev_U(3).coefficients() == [-1, 0, 1]
    for s in range(2, 10):
        assert X * chebyshev_U(s) - chebyshev_U(s - 1) - chebyshev_U(s + 1) == LaurentZ()


def test_chebyshev_eigenfunction_identity():
    # (x^2 - 4) U'' + 3 x U' + U = s^2 U
    for s in range(1, 10):
        U = chebyshev_U(s)
        d1 = _derivative(U)
        d2 = _derivative(d1)
        lhs = (X * X - LaurentZ({0: 4})) * d2 + X * d1 * 3 + U
        assert lhs == U * (s * s)


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
    P = P12
    cp, cm = P.casimirs()
    diff = chebyshev_U(P.p_plus + 1) - chebyshev_U(P.p_plus - 1)
    assert diff == chebyshev_diff(P.p_plus)
    lhs = horner(diff.coefficients(), cp, P.zero)
    assert lhs == P.gen("K", P.pp) * (-2)


def test_horner_on_algebra_and_grothendieck_elements(P23):
    # Horner against sum_i c_i x^i with the powers taken one by one
    coeffs = [3, 0, -2, 1, 0, 5]
    cp, _ = P23.casimirs()
    power, want = P23.one, P23.zero
    for c in coeffs:
        want, power = want + power * c, power * cp
    assert horner(coeffs, cp, P23.zero) == want
    x = gr_class(P23, 1, 2, 1) + gr_class(P23, -1, 1, 2)
    power, want = gr_class(P23, 1, 1, 1), GrElement(P23)
    for c in coeffs:
        want, power = want + power.scale(c), gr_multiply(power, x)
    assert horner(coeffs, x, GrElement(P23)) == want
    assert x * x == gr_multiply(x, x)
    assert x + 4 == x + gr_class(P23, 1, 1, 1).scale(4)


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
