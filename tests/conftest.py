from fractions import Fraction

import pytest
from hypothesis import settings

from qpm.algebra import Params
from qpm.cyclotomic import sparse_sum
from qpm.duality import Theory

# CI passes --hypothesis-profile=ci, so every run there draws the same
# examples; local runs keep hypothesis' random default.
settings.register_profile("ci", derandomize=True)


@pytest.fixture(scope="session")
def P12():
    return Params(1, 2)


@pytest.fixture(scope="session")
def P13():
    return Params(1, 3)


@pytest.fixture(scope="session")
def P23():
    return Params(2, 3)


@pytest.fixture(scope="session")
def T12(P12):
    return Theory(P12)


@pytest.fixture(scope="session")
def T13(P13):
    return Theory(P13)


@pytest.fixture(scope="session")
def T23(P23):
    return Theory(P23)


@pytest.fixture(scope="session")
def T32():
    return Theory(Params(3, 2))


@pytest.fixture(scope="session")
def T14():
    return Theory(Params(1, 4))


def cyclo_from_pairs(ctx, pairs):
    """The element whose dense list of (num, den) pairs over the power basis
    is `pairs`, as Cyclo.to_pairs writes it."""
    return sum((ctx.root_of_unity(e) * Fraction(n, d) for e, (n, d) in enumerate(pairs) if n),
               start=ctx.zero)


def pbw_slices(P, weight_slices):
    """The first-leg slices {m1: {m2: c}} of the tensor whose weight form is
    weight_slices, {B1: {(w, m2): c}} as MMatrix keeps M, expanded into the
    PBW basis with m1 = B1 K^l:

        M(B1 K^l, m2) = (1/ko) sum_w zeta_ko^(-w l) M(B1 1_w, m2)."""
    ko = P.korder
    inv_ko = Fraction(1, ko)
    slices = {}
    for (m1, m2), c in sparse_sum(((b1[:4] + (l,), m2), c.shift(-12 * (w * l % ko)) * inv_ko)
                                  for b1, row in weight_slices.items()
                                  for (w, m2), c in row.items() for l in range(ko)).items():
        slices.setdefault(m1, {})[m2] = c
    return slices


def chain_mat_mul(a, b, ctx):
    """The dense product a b as chains of Cyclo `+`, one entry at a time: an
    oracle for linalg.mat_mul_dense that shares none of its kernel."""
    n, k, m = len(a), len(b), len(b[0])
    out = [[ctx.zero] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            c = a[i][t]
            if c:
                for j in range(m):
                    if b[t][j]:
                        out[i][j] = out[i][j] + c * b[t][j]
    return out


def chain_mat_vec(mat, vec, ctx):
    """Dense matrix times dense column vector (lists of Cyclo) as chains of
    Cyclo `+`: an oracle for linalg.mat_vec."""
    live = [(j, x) for j, x in enumerate(vec) if x]
    return [sum((row[j] * x for j, x in live), start=ctx.zero) for row in mat]
