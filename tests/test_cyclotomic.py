"""Field arithmetic, q-integers, Gauss-sum square roots, serialization."""

import json
import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from qpm.algebra import Sector
from qpm.cyclotomic import (Cyclo, CycloContext, LaurentZ, chebyshev_U,
                            cyclotomic_polynomial, euler_phi, gauss_sqrt, horner,
                            psi_poly, q_binomial_poly,
                            q_factorial_poly, q_int_poly, sparse_sum, sqrt2,
                            sqrt_half_pp, sum_products)
from conftest import cyclo_from_pairs

CTX = CycloContext(144)


def rand_elements(ctx, seed, count):
    import random
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        num = {rng.randrange(ctx.phi): rng.randint(-9, 9) for _ in range(3)}
        out.append(ctx.reduce(num, rng.randint(1, 7)))
    return out


# -- independent oracle: every Galois embedding at high precision -------------

ORACLE_BITS = 100


def _oracle(order):
    """(ctx, roots, units): roots[j] = exp(2 pi i j/N) at ORACLE_BITS, and
    the a with gcd(a, N) = 1 that index the embeddings zeta -> roots[a]."""
    with mpmath.workprec(ORACLE_BITS):
        roots = [mpmath.expjpi(mpmath.mpf(2 * j) / order) for j in range(order)]
    units = [a for a in range(order) if math.gcd(a, order) == 1]
    return CycloContext(order), roots, units


ORACLES = {order: _oracle(order) for order in (48, 144, 120)}


def _values(x, roots, units):
    """x under every embedding, from its stored coordinates only."""
    n = len(roots)
    return [sum((c * roots[a * e % n] for e, c in x.num.items()), mpmath.mpc(0))
            / x.den for a in units]


def _assert_canonical(x, ctx):
    assert x.den > 0 and all(0 <= e < ctx.phi and c for e, c in x.num.items())
    assert math.gcd(x.den, *x.num.values()) == 1


def _elements(ctx):
    """Operands for every shape an operation treats apart: zero, +-1,
    rationals, c*zeta^k/d (one term unless k folds) and sums of terms."""
    coeff = st.integers(-9, 9).filter(bool)
    den = st.integers(1, 12)
    return st.one_of(
        st.sampled_from([ctx.zero, ctx.one, ctx.integer(-1)]),
        st.builds(lambda c, d: ctx.integer(Fraction(c, d)), coeff, den),
        st.builds(lambda k, c, d: ctx.reduce({k: c}, d),
                  st.integers(0, ctx.order - 1), coeff, den),
        st.builds(ctx.reduce, st.dictionaries(st.integers(0, ctx.order - 1),
                                              coeff, min_size=2, max_size=5),
                  den))


@pytest.mark.parametrize("order", sorted(ORACLES))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_arithmetic_against_galois_embeddings(order, data):
    ctx, roots, units = ORACLES[order]
    x = data.draw(_elements(ctx), label="x")
    y = data.draw(_elements(ctx), label="y")
    k = data.draw(st.integers(-2 * order, 2 * order), label="k")
    n = data.draw(st.integers(-4, 5), label="n")
    r = data.draw(st.one_of(st.integers(-4, 4),
                            st.fractions(-4, 4, max_denominator=6)), label="r")
    with mpmath.workprec(ORACLE_BITS):
        vx, vy = _values(x, roots, units), _values(y, roots, units)
        cases = [
            (x * y, [u * v for u, v in zip(vx, vy)]),
            (y * x, [u * v for u, v in zip(vx, vy)]),
            (x + y, [u + v for u, v in zip(vx, vy)]),
            (x - y, [u - v for u, v in zip(vx, vy)]),
            (-x, [-u for u in vx]),
            (x * r, [u * mpmath.mpf(r.numerator) / r.denominator
                     if isinstance(r, Fraction) else u * r for u in vx]),
            (x.shift(k), [u * roots[a * k % order] for u, a in zip(vx, units)]),
            (x.conj(), [mpmath.conj(u) for u in vx]),
        ]
        if x:
            cases.append((x.inv(), [1 / u for u in vx]))
            cases.append((x ** n, [u ** n for u in vx]))
        else:
            with pytest.raises(ZeroDivisionError):
                x.inv()
            assert x ** abs(n) == (ctx.one if n == 0 else ctx.zero)
        for got, want in cases:
            _assert_canonical(got, ctx)
            for u, v in zip(_values(got, roots, units), want):
                assert abs(u - v) <= mpmath.mpf(2) ** -70 * (1 + abs(v))


def test_phi_and_polynomial():
    assert euler_phi(144) == 48
    assert cyclotomic_polynomial(144) == LaurentZ({48: 1, 24: -1, 0: 1})


def _mobius(n):
    mu, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if n > 1 else mu


def test_cyclotomic_polynomial_against_mobius_and_divisor_recursion():
    # Phi_n = prod_{d | n} (x^d - 1)^mu(n/d), and
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d; the implementation
    # substitutes x -> x^p prime by prime instead
    by_recursion = {}
    for n in range(1, 401):
        phi = cyclotomic_polynomial(n)
        coeffs = phi.coefficients()
        assert len(coeffs) == euler_phi(n) + 1 and coeffs[-1] == 1
        below = LaurentZ.one()
        for d in range(1, n):
            if n % d == 0:
                below = below * by_recursion[d]
        by_recursion[n] = LaurentZ({n: 1, 0: -1}).divexact(below)
        assert phi == by_recursion[n], n
        num = den = LaurentZ.one()
        for d in range(1, n + 1):
            if n % d == 0 and _mobius(n // d):
                f = LaurentZ({d: 1, 0: -1})
                if _mobius(n // d) > 0:
                    num = num * f
                else:
                    den = den * f
        assert phi == num.divexact(den), n


def test_psi_is_the_product_over_the_casimir_roots():
    # psi_p = prod_{r < p} (x - beta_r)(x + beta_r), beta_r = Q^r + Q^-r,
    # expanded over Q(zeta_N) for a sector with either order of Q (2p for
    # p_other = 1; p for odd p with p_other = 2, else 2p)
    x = LaurentZ({1: 1})
    for p in range(1, 9):
        U = chebyshev_U(p)
        assert psi_poly(p) == (x * x - LaurentZ({0: 4})) * U * U
        coprime = next(k for k in range(2, p + 2) if math.gcd(k, p) == 1)
        for p_other in (1, coprime):
            ctx = CycloContext(24 * p * p_other)
            sec = Sector(ctx, "+", p, p_other)
            poly = [ctx.one]
            for r in range(p):
                beta = sec.qsum(r)
                for root in (beta, -beta):
                    new = [ctx.zero] * (len(poly) + 1)
                    for i, c in enumerate(poly):
                        new[i + 1] = new[i + 1] + c
                        new[i] = new[i] - c * root
                    poly = new
            want = psi_poly(p).coefficients()
            assert poly == [ctx.integer(c) for c in want], (p, p_other)
            for got, c in zip(poly, want):
                assert got.num == ({0: c} if c else {}) and got.den == 1


def test_horner_on_cyclo():
    x = CTX.root_of_unity(5) + CTX.integer(Fraction(1, 3))
    coeffs = [CTX.root_of_unity(7), 0, -3, CTX.integer(Fraction(2, 5)), 1]
    want = sum((c * x ** i for i, c in enumerate(coeffs)), start=CTX.zero)
    assert horner(coeffs, x, CTX.zero) == want
    assert horner([], x, CTX.zero) == CTX.zero
    assert horner(chebyshev_U(4).coefficients(), x, CTX.zero) == \
        x ** 3 - x * 2


def test_roots_of_unity():
    assert CTX.root_of_unity(0) == CTX.one
    assert CTX.root_of_unity(72) == CTX.integer(-1)
    z = CTX.root_of_unity(1)
    assert z ** 144 == CTX.one
    # Phi_N(zeta) = 0 in canonical form: zeta^48 - zeta^24 + 1 = 0
    assert (CTX.root_of_unity(48) - CTX.root_of_unity(24) + CTX.one).is_zero()


def test_q_power_identities():
    # q = zeta^6 with q^{4 p+ p-} = 1 and q^{2 p+ p-} = -1, by repeated squaring
    q = CTX.root_of_unity(6)
    acc = CTX.one
    for _ in range(24):
        acc = acc * q
    assert acc == CTX.one
    acc = CTX.one
    for _ in range(12):
        acc = acc * q
    assert acc == CTX.integer(-1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 143), st.integers(0, 143), st.integers(0, 143),
       st.integers(-5, 5), st.integers(-5, 5), st.integers(-5, 5))
def test_field_axioms(e1, e2, e3, c1, c2, c3):
    x = CTX.root_of_unity(e1) * c1
    y = CTX.root_of_unity(e2) * c2 + CTX.one
    z = CTX.root_of_unity(e3) * c3 - CTX.root_of_unity(7)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    if not y.is_zero():
        assert y * y.inv() == CTX.one


def test_conjugation_positivity():
    for x in rand_elements(CTX, 99, 100):
        y = x.conj() * x
        re, im = y.embed()
        assert abs(im) < 1e-9
        assert re > -1e-9


def test_sqrt_constants():
    s2 = sqrt2(CTX)
    assert s2 * s2 == CTX.integer(2)
    assert s2.embed()[0] > 0
    g = gauss_sqrt(CTX, 6)
    assert g * g == CTX.integer(6)
    assert g.embed()[0] > 0
    s = sqrt_half_pp(CTX, 6)
    assert s * s == CTX.integer(3)
    assert abs(s.embed()[0] - math.sqrt(3)) < 1e-12


def test_gauss_sum_value():
    # sum_{j<2pp} q^{j^2} = (1 + i) sqrt(pp)
    q = CTX.root_of_unity(6)
    acc = CTX.zero
    for j in range(12):
        acc = acc + CTX.root_of_unity(6 * j * j)
    i_unit = CTX.root_of_unity(36)
    assert acc == (CTX.one + i_unit) * gauss_sqrt(CTX, 6)


def test_sqrt_branch_at_1_2():
    ctx = CycloContext(48)
    s = sqrt_half_pp(ctx, 2)
    assert s * s == ctx.one
    assert s.embed() == (1.0, 0.0)


def test_q_integers():
    x = CTX.root_of_unity(5)
    assert q_int_poly(2).eval_cyclo(x) == x + x.inv()
    assert q_binomial_poly(5, 0).eval_cyclo(x) == CTX.one
    # [p+]_+ vanishes at Q+ (2p+-th or p+-th root of unity)
    Qp = CTX.root_of_unity(108)
    assert q_int_poly(2).eval_cyclo(Qp).is_zero()


def test_q_binomial_pascal_oracle():
    # the product-form binomials satisfy the Pascal-type recursion
    # [m choose n] = q^n [m-1 choose n] + q^{n-m} [m-1 choose n-1]
    for m in range(1, 6):
        for n in range(0, m + 1):
            lhs = q_binomial_poly(m, n)
            a = q_binomial_poly(m - 1, n) * LaurentZ({n: 1})
            b = q_binomial_poly(m - 1, n - 1) * LaurentZ({n - m: 1})
            assert lhs == a + b
    # specialization at a root where naive division would hit 0/0
    Qp = CTX.root_of_unity(108)  # order 4
    for m in range(5):
        for n in range(m + 1):
            val = q_binomial_poly(m, n).eval_cyclo(Qp)
            # independent oracle: evaluate the Pascal recursion numerically
            import cmath
            qf = cmath.exp(2j * cmath.pi * 108 / 144)
            def brute(mm, nn):
                if nn in (0, mm):
                    return 1
                if nn < 0 or nn > mm:
                    return 0
                return (qf ** nn) * brute(mm - 1, nn) + (qf ** (nn - mm)) * brute(mm - 1, nn - 1)
            want = brute(m, n)
            got = complex(*val.embed())
            assert abs(got - want) < 1e-9, (m, n)


def test_generic_specialization_agreement(P23):
    # product-form value at Q_pm equals the symbolic rational form
    # specialized after cancellation over the polynomial ring
    P = P23
    for m in range(max(P.p_plus, P.p_minus)):
        for n in range(m + 1):
            sym = q_binomial_poly(m, n)
            num = q_factorial_poly(m)
            den = q_factorial_poly(n) * q_factorial_poly(m - n)
            assert num == sym * den  # exact cancellation certificate
            assert sym.eval_cyclo(P.plus.Q) == P.plus.qbin(m, n)
            assert sym.eval_cyclo(P.minus.Q) == P.minus.qbin(m, n)


def test_embedding():
    assert CTX.one.embed() == (1.0, 0.0)
    re, im = CTX.root_of_unity(36).embed()
    assert abs(re) < 1e-12 and abs(im - 1.0) < 1e-12
    hi = CTX.root_of_unity(1).embed(120)
    assert float(hi[0] ** 2 + hi[1] ** 2) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        CTX.one.embed(10)


def _embed_reference(x, precision):
    """x.embed(precision) by its contract: a component whose exact value is
    nonzero is a 300-bit sum rounded to `precision` bits; an exact zero is
    the residue of the ascending-order sum with 10 guard bits, cos and sin
    computed where each term is summed."""
    def rounded(v):
        with mpmath.workprec(precision):
            v = +v
        return float(v) if precision <= 53 else v

    c = x.conj()
    out = []
    for comp, twice in enumerate((x + c, (x - c) * x.ctx.root_of_unity(-x.order // 4))):
        bits = precision + 10 if twice.is_zero() else 300
        with mpmath.workprec(bits):
            two_pi = 2 * mpmath.pi
            acc = mpmath.mpf(0)
            for e, k in sorted(x.num.items()):
                ang = two_pi * e / x.order
                acc += k * (mpmath.cos(ang), mpmath.sin(ang))[comp]
            acc /= x.den
        out.append(rounded(acc) if bits == 300 else float(acc) if precision <= 53 else acc)
    return tuple(out)


def test_embed_table_keeps_every_value():
    # the first embed of a context at a precision fills its cos/sin table
    # (cold), later ones read it (warm); both give the reference values
    # exactly, and the 53-bit table does not serve 80 bits.  The elements
    # have generic, exactly zero (x - conj(x), x + conj(x)) and rational
    # components, and rationals that are rounding midpoints at 53 or 80
    # bits, on which a loop that only refines the sum would not end.
    ctx = CycloContext(144)
    i = ctx.root_of_unity(36)
    elements = []
    for x in rand_elements(ctx, 17, 40):
        elements += [x, x - x.conj(), x + x.conj()]
    elements += [i * Fraction(k, 3) + Fraction(1, 7) for k in (1, -2)]
    elements += [ctx.integer(2 ** 53 + 1), i * (2 ** 53 + 3), ctx.integer(2 ** 81 + 1)]
    for precision in (53, 80):
        cold = [CycloContext(144).reduce(x.num, x.den).embed(precision) for x in elements]
        warm = [x.embed(precision) for x in elements]
        assert warm == cold == [_embed_reference(x, precision) for x in elements]
        assert all(type(v) is (float if precision == 53 else mpmath.mpf)
                   for pair in warm for v in pair)


def test_embed_depends_only_on_the_value():
    # one value stored with its exponents in two dict orders embeds to the
    # same floats; the pure-imaginary x - conj(x) has an exact zero real
    # part, whose printed residue an order-dependent sum would move
    import random
    ctx = CycloContext(144)
    rng = random.Random(144)
    elements = []
    for x in rand_elements(ctx, 31, 20):
        y = ctx.reduce({rng.randrange(ctx.phi): rng.randint(-9, 9) for _ in range(12)}, 3)
        elements += [x + y, y - y.conj()]
    for x in elements:
        items = list(x.num.items())
        rng.shuffle(items)
        for order in (items, items[::-1]):
            y = Cyclo(ctx, dict(order), x.den)
            assert y == x
            for precision in (53, 80):
                assert y.embed(precision) == x.embed(precision)


def test_serialization_round_trip():
    for x in rand_elements(CTX, 5, 20):
        doc = x.to_json(precision=60)
        assert cyclo_from_pairs(CTX, doc["coeffs"]) == x
        assert doc["order"] == 144
        assert len(doc["coeffs"]) == 48
        for num, den in doc["coeffs"]:
            assert den > 0 and math.gcd(num, den) == 1


def test_sparse_sum_drops_cancelled_keys():
    x, y, z = rand_elements(CTX, 11, 3)
    terms = [("a", x), ("b", y), ("c", z), ("a", -x), ("c", z), ("b", -y)]
    assert sparse_sum(terms) == {"c": z + z}
    assert sparse_sum([("a", x), ("a", -x)]) == {}
    assert sparse_sum([("a", CTX.zero)]) == {}
    # first-seen key order, whatever order later terms arrive in
    assert list(sparse_sum([("b", y), ("a", x), ("b", y)])) == ["b", "a"]


# -- the exact zero test of sums of products ---------------------------------

KERNEL_CONTEXTS = {order: CycloContext(order) for order in (48, 120, 144, 240)}


def _sums_oracle(triples):
    """The nonzero sums {key: Cyclo}, from canonical products and
    sparse_sum; raw operands are brought to canonical form first."""
    def canonical(x):
        return x.ctx.reduce(x.num, x.den)

    return sparse_sum((key, canonical(a) * canonical(b)) for key, a, b in triples)


def _operand(ctx, rng):
    """Zero, +-1, a rational, c*zeta^k/d, a sum of terms, or raw terms
    (not canonical) with exponents anywhere in [-2N, 3N)."""
    n, den = ctx.order, rng.randint(1, 12)
    kind = rng.randrange(6)
    if kind == 0:
        return rng.choice([ctx.zero, ctx.one, ctx.integer(-1)])
    if kind == 1:
        return ctx.integer(Fraction(rng.choice([-5, -3, -1, 1, 2, 7]), den))
    if kind == 2:
        return ctx.reduce({rng.randrange(n): rng.choice([-3, -1, 1, 2])}, den)
    if kind == 3:
        return ctx.reduce({rng.randrange(n): rng.randint(-9, 9)
                           for _ in range(rng.randint(2, 5))}, den)
    return Cyclo(ctx, {rng.randrange(-2 * n, 3 * n): rng.choice([-4, -1, 1, 3])
                       for _ in range(rng.randint(1, 3))}, den)


@pytest.mark.parametrize("order", sorted(KERNEL_CONTEXTS))
def test_nonzero_sums_against_canonical_sums(order):
    import random
    ctx = KERNEL_CONTEXTS[order]
    rng = random.Random(order)
    seen = {"zero": 0, "nonzero": 0}
    dens = set()
    for _ in range(40):
        triples = []
        for _ in range(rng.randint(1, 24)):
            key, a, b = rng.choice("abcdef"), _operand(ctx, rng), _operand(ctx, rng)
            triples.append((key, a, b))
            # cancel some products in another form: folded and with the
            # denominator reduced, or with the factors swapped
            r = rng.random()
            if r < 0.3:
                triples.append((key, a * b, ctx.integer(-1)))
            elif r < 0.5:
                triples.append((key, -b, a))
        rng.shuffle(triples)
        want = _sums_oracle(triples)
        sums = sum_products(triples)
        got = list(sums)
        assert got == list(want)
        # the values too, in the same key order
        assert sums == want
        dens.update(v.den for v in sums.values())
        keys = {key for key, _, _ in triples}
        seen["nonzero"] += len(got)
        seen["zero"] += len(keys) - len(got)
    assert seen["zero"] >= 10 and seen["nonzero"] >= 10, seen
    assert len(dens) >= 5, dens


def _sum_products_per_group(triples):
    """sum_products with one canonical pass per denominator group of a key
    and one more for the common denominator."""
    acc = {}
    ctx = None
    for key, a, b in triples:
        groups = acc.setdefault(key, {})
        if not a.num or not b.num:
            continue
        ctx = a.ctx
        raw = groups.setdefault(a.den * b.den, {})
        x, y = a.num, b.num
        if len(x) == 1:
            x, y = y, x
        for e1, c1 in x.items():
            for e2, c2 in y.items():
                raw[e1 + e2] = raw.get(e1 + e2, 0) + c1 * c2
    out = {}
    for key, groups in acc.items():
        lcm = math.lcm(*groups)
        folded = {}
        total = None
        for d, raw in groups.items():
            total = ctx._canonical(raw, 1, s=lcm // d, acc=folded)
        if total and lcm != 1:
            total = ctx._canonical({}, lcm, acc=folded)
        if total:
            out[key] = total
    return out


@pytest.mark.parametrize("order", [48, 144])
def test_sum_products_folds_like_one_pass_per_group(order):
    """Folding every denominator group of a key into one map and fixing
    the sign and gcd once gives the values, the key order and the exponent
    order of each sum that one canonical pass per group gives."""
    import random
    ctx = KERNEL_CONTEXTS[order]
    rng = random.Random(order + 1)
    groups = 0
    for _ in range(60):
        triples = []
        for _ in range(rng.randint(1, 30)):
            key, a, b = rng.choice("abcd"), _operand(ctx, rng), _operand(ctx, rng)
            triples.append((key, a, b))
            r = rng.random()
            if r < 0.3:
                triples.append((key, a * b, ctx.integer(Fraction(-1, rng.randint(1, 4)))))
            elif r < 0.5:
                triples.append((key, -b, a))
        rng.shuffle(triples)
        want = _sum_products_per_group(triples)
        got = sum_products(triples)
        assert got == want and list(got) == list(want)
        assert all(list(got[k].num) == list(want[k].num) for k in got)
        groups += sum(len({a.den * b.den for k, a, b in triples if k == key and a and b}) > 1
                      for key in got)
    assert groups >= 20, groups


@pytest.mark.parametrize("order", sorted(KERNEL_CONTEXTS))
def test_nonzero_sums_decides_after_fold_and_common_denominator(order):
    ctx = KERNEL_CONTEXTS[order]
    z, one, phi = ctx.root_of_unity, ctx.one, ctx.phi

    def frac(n, d):
        return ctx.integer(Fraction(n, d))

    triples = [
        # zeta^(phi-1) zeta = zeta^phi cancels its reduction row only
        # once the raw exponent phi is folded
        ("row", z(phi - 1), z(1)), ("row", -z(phi), one),
        # 1/2 + 1/3 - 5/6, over three denominators
        ("dens", frac(1, 2), one), ("dens", frac(1, 3), one),
        ("dens", frac(-5, 6), one),
        # raw exponents of N or more and below 0: 2 zeta^(3N) / 3 = 2/3
        ("shift", Cyclo(ctx, {order + 3: 2}, 1), Cyclo(ctx, {2 * order - 3: 1}, 3)),
        ("shift", Cyclo(ctx, {-order: -2}, 1), frac(1, 3)),
        ("zero", ctx.zero, z(3)),
        # zeta^phi - zeta^phi / 2 survives, but only through its denominators
        ("half", z(phi - 1), z(1)), ("half", -z(phi), frac(1, 2)),
    ]
    assert list(sum_products(triples)) == list(_sums_oracle(triples)) == ["half"]
    assert sum_products(triples) == {"half": ctx.root_of_unity(phi) * Fraction(1, 2)}
    assert sum_products([]) == {}


def test_reduction_table_ignores_outside_files(tmp_path, monkeypatch):
    # A well-formed reduction-table file with one wrong row (zeta^16 -> 1)
    # must not change the field: the table is always rebuilt in-process.
    monkeypatch.delenv("QPM_CACHE_DIR", raising=False)
    rows = [{str(e): c for e, c in row.items()} for row in CycloContext(48)._rows]
    rows[0] = {"0": 1}
    (tmp_path / "cyclo_reduction_48.json").write_text(
        json.dumps({"order": 48, "rows": rows}))
    monkeypatch.setenv("QPM_CACHE_DIR", str(tmp_path))
    ctx = CycloContext(48)
    assert ctx.root_of_unity(16) != ctx.one
    assert ctx.root_of_unity(24) == ctx.integer(-1)


@pytest.mark.parametrize("order", (48, 72, 144, 240, 288))
def test_two_term_inverse_matches_norm(order):
    # A two-term x = (c1 zeta^i + c2 zeta^j)/d has a closed-form inverse
    # whose shape is the order o of zeta^(j-i) and the class of t = c2/c1:
    # t = -1, t = 1 (o even and odd), or any other t.  Every exponent gap
    # j - i and every class is inverted; for one gap per (o, class) the
    # result must equal the Galois-norm path's in value.
    import random
    ctx = CycloContext(order)
    rng = random.Random(order)
    compared = set()
    for step in range(1, ctx.phi):
        o = order // math.gcd(order, step)
        for cls in ("t=-1", "t=1", "other"):
            c1 = rng.choice([1, -1, 2, -3, 5])
            c2 = {"t=-1": -c1, "t=1": c1}.get(cls) or c1 * rng.choice([-2, 3]) + 1
            i = rng.randrange(ctx.phi - step)
            num = {i: c1, i + step: c2}
            if rng.random() < 0.5:
                num = dict(reversed(num.items()))
            x = ctx.reduce(num, rng.choice([1, 2, 35]))
            assert len(x.num) == 2
            inv = x.inv()
            assert x * inv == ctx.one and inv * x == ctx.one
            shape = (o, cls, o % 2)
            if shape not in compared:
                compared.add(shape)
                assert inv == x._inv_norm()
    # both special cases were met, and t = 1 with odd o wherever a gap of
    # odd order fits below phi (not at N = 48)
    classes = {(cls, parity) for _, cls, parity in compared}
    assert {("t=-1", 0), ("t=1", 0), ("other", 0)} <= classes
    assert (("t=1", 1) in classes) == (order != 48)


@pytest.mark.parametrize("order", (240, 288, 360))
def test_multi_term_inverse_by_norm(order):
    # Elements of three or more terms are inverted by the Galois norm: a
    # dense element (phi(N) terms) and 3- to 6-term ones, each a two-sided
    # inverse; every embedding of the dense element's inverse is 1/x at
    # ORACLE_BITS.
    import random
    ctx, roots, units = _oracle(order)
    rng = random.Random(order)
    dense = ctx.reduce({e: rng.choice([-3, -1, 1, 2, 5]) for e in range(ctx.phi)}, 7)
    assert len(dense.num) == ctx.phi
    xs = [dense]
    for terms in (3, 4, 5, 6):
        exps = rng.sample(range(ctx.phi), terms)
        xs.append(ctx.reduce({e: rng.choice([-4, -1, 1, 3]) for e in exps},
                             rng.choice([1, 6])))
        assert len(xs[-1].num) == terms
    for x in xs:
        inv = x.inv()
        _assert_canonical(inv, ctx)
        assert x * inv == ctx.one and inv * x == ctx.one
    with mpmath.workprec(ORACLE_BITS):
        for u, v in zip(_values(dense.inv(), roots, units), _values(dense, roots, units)):
            assert abs(u - 1 / v) <= mpmath.mpf(2) ** -70 * abs(1 / v)
