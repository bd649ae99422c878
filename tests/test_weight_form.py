"""The weight form of Params.weight_form / Params.weight_mul against the PBW
product.

The oracle for the product is AlgebraElement.__mul__, which never leaves the
PBW basis.  The oracle for the transform is its inverse written out from
the definition of the idempotents, 1_w = (1/ko) sum_j zeta_ko^(-w j) K^j:
reading an element back from its weight form shows that the transform
loses nothing, so it is zero only on zero and an identity between weight
forms is one between elements.
"""

import random
from fractions import Fraction

import pytest

from qpm.algebra import AlgebraElement, Params
from qpm.cyclotomic import sparse_sum

PAIRS = [(1, 2), (1, 3), (2, 3), (3, 2)]


@pytest.fixture(scope="module", params=PAIRS, ids=lambda pq: "%d%d" % pq)
def P(request):
    if request.param in ((1, 2), (1, 3), (2, 3)):
        return request.getfixturevalue("P%d%d" % request.param)
    return Params(*request.param)


def _of_weight(P, rng, w, n_terms):
    """A random element whose K-free parts all have conjugation weight w
    (zero if no K-free monomial has it)."""
    free = [m for m in P.monomials() if not m[4] and P.weight(m) == w]
    return P.element({rng.choice(free)[:4] + (rng.randrange(P.korder),):
                      P.zeta(rng.randrange(P.N)) * rng.choice((-2, 1, 3))
                      for _ in range(n_terms if free else 0)})


def _from_weight_form(P, form):
    """sum c B 1_w, with each idempotent expanded over the powers of K."""
    ko = P.korder
    return AlgebraElement(P, sparse_sum(
        (b[:4] + (j,), c.shift(-12 * (w * j % ko)) * Fraction(1, ko))
        for (b, w), c in form.items() for j in range(ko)))


def test_weight_product_matches_pbw_product(P):
    rng = random.Random(P.N)
    weights = sorted({P.weight(m) for m in P.monomials()})
    elements = [_of_weight(P, rng, w, rng.randint(1, 4)) for w in weights]
    # and elements of mixed weight
    elements += [x + y for x, y in zip(elements, elements[1:] + elements[:1])]
    nonzero = 0
    for x in elements:
        for y in rng.sample(elements, min(8, len(elements))):
            got = P.weight_mul(P.weight_form(x), P.weight_form(y))
            assert got == P.weight_form(x * y)
            nonzero += bool(got)
    assert nonzero >= len(elements)


def test_transform_is_invertible(P):
    rng = random.Random(P.N + 1)
    assert P.weight_form(P.zero) == {}
    assert P.weight_form(P.one) == {((0, 0, 0, 0, 0), w): P.ctx.one
                                    for w in range(P.korder)}
    for w in sorted({P.weight(m) for m in P.monomials()}):
        x = _of_weight(P, rng, w, 3)
        form = P.weight_form(x)
        assert bool(form) == (not x.is_zero())
        assert _from_weight_form(P, form) == x


def _k_parts(x):
    """The number of K exponents under each K-free part of x."""
    counts = {}
    for m in x.coeffs:
        counts[m[:4]] = counts.get(m[:4], 0) + 1
    return counts


@pytest.mark.parametrize("theory", ["T23", "T13"])
def test_central_products_with_multi_term_k_parts(request, theory):
    """Products of central elements whose K-free blocks carry several K
    exponents (the K convolution of AlgebraElement.__mul__) equal the
    product read back from weight_mul of their weight forms."""
    th = request.getfixturevalue(theory)
    P = th.params
    v = th.ribbon.v
    idem = [el for lab, el in th.center.elements.items() if lab[0] == "e"]
    pairs = [(v, th.central_inverse(v)), (idem[0], idem[1]), (idem[1], idem[1]),
             (v, idem[0])]
    products = []
    for x, y in pairs:
        assert max(_k_parts(x).values()) > 1 and max(_k_parts(y).values()) > 1
        products.append(x * y)
        assert products[-1] == _from_weight_form(
            P, P.weight_mul(P.weight_form(x), P.weight_form(y)))
    assert products[0] == P.one
