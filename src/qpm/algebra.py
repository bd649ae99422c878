"""The restricted two-parameter quantum group as a Hopf algebra.

For coprime positive integers (p_plus, p_minus) the algebra has generators
e_plus, f_plus, e_minus, f_minus, K subject to

    e_pm^{p_pm} = f_pm^{p_pm} = 0,            K^{2 p_plus p_minus} = 1,
    K e_pm K^-1 = q_pm^2 e_pm,                K f_pm K^-1 = q_pm^-2 f_pm,
    [e_+, f_+] = (K^{p_-} - K^{-p_-})/(q_+^{p_-} - q_+^{-p_-}),
    [e_-, f_-] = (K^{p_+} - K^{-p_+})/(q_-^{p_+} - q_-^{-p_+}),

with the two sectors commuting, where q = exp(i*pi/(2 p_+ p_-)) and
q_pm = q^{2 p_mp}.  Elements are kept in the PBW normal form

    f_+^a e_+^b f_-^c e_-^d K^j,
    0 <= a, b < p_+,  0 <= c, d < p_-,  0 <= j < 2 p_+ p_-,

so the monomial basis has 2 p_+^3 p_-^3 elements.  Multiplication
straightens one generator crossing at a time through precomputed
single-sector tables; the choice of normal order is immaterial because the
plus and minus sectors commute.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain

from .cyclotomic import (
    Cyclo,
    CycloContext,
    gauss_sqrt,
    q_binomial_poly,
    q_factorial_poly,
    q_int_poly,
    sparse_sum,
    sqrt2,
    sqrt_half_pp,
)

__all__ = ["Params", "AlgebraElement", "TensorElement", "Monomial"]

# A PBW monomial is the tuple (a, b, c, d, j) for f_+^a e_+^b f_-^c e_-^d K^j.
Monomial = tuple


def _intsign(alpha: int, n: int) -> int:
    return -1 if alpha < 0 and n % 2 else 1


class Params:
    """Parameter context: the cyclotomic field, straightening tables and
    q-integer caches for a fixed coprime pair."""

    def __init__(self, p_plus: int, p_minus: int):
        if p_plus < 1 or p_minus < 1:
            raise ValueError("p_plus and p_minus must be positive")
        if math.gcd(p_plus, p_minus) != 1:
            raise ValueError("p_plus and p_minus must be coprime")
        self.p_plus = p_plus
        self.p_minus = p_minus
        self.pp = p_plus * p_minus
        self.korder = 2 * self.pp
        self.N = 24 * self.pp
        self.ctx = CycloContext(self.N)
        self.dim = 2 * p_plus ** 3 * p_minus ** 3

        # zeta-exponents of the basic constants: q = zeta^6, q_pm = zeta^zqp/zqm
        self.zq = 6
        self.zqp = 12 * p_minus
        self.zqm = 12 * p_plus
        self.q = self.ctx.root_of_unity(self.zq)
        self.q_plus = self.ctx.root_of_unity(self.zqp)
        self.q_minus = self.ctx.root_of_unity(self.zqm)

        # specializations Q_pm = q_pm^{p_mp} = zeta^zQp/zQm used by all
        # q-integer brackets
        self.zQp = 12 * p_minus * p_minus
        self.zQm = 12 * p_plus * p_plus
        self.Q_plus = self.ctx.root_of_unity(self.zQp)
        self.Q_minus = self.ctx.root_of_unity(self.zQm)

        self._brackets = {}
        self._sp = self._sector_table(p_plus, self.zQp)
        self._sm = self._sector_table(p_minus, self.zQm)

        self._coproduct_cache = {}
        self._antipode_cache = {}
        self._mono_mul_cache = {}
        # shared read-mostly cache for constructed modules and functionals
        self.cache = {}

        self.zero = AlgebraElement(self, {})
        self.one = AlgebraElement(self, {(0, 0, 0, 0, 0): self.ctx.one})

    # -- q-integers at the two specializations ---------------------------

    def _bracket(self, poly, sector: str, *args) -> Cyclo:
        """poly(*args) at Q_plus (sector "+") or Q_minus, evaluated once."""
        key = (poly, sector, args)
        hit = self._brackets.get(key)
        if hit is None:
            Q = self.Q_plus if sector == "+" else self.Q_minus
            hit = self._brackets[key] = poly(*args).eval_cyclo(Q)
        return hit

    def qint_p(self, n: int) -> Cyclo:
        return self._bracket(q_int_poly, "+", n)

    def qint_m(self, n: int) -> Cyclo:
        return self._bracket(q_int_poly, "-", n)

    def qfact_p(self, n: int) -> Cyclo:
        return self._bracket(q_factorial_poly, "+", n)

    def qfact_m(self, n: int) -> Cyclo:
        return self._bracket(q_factorial_poly, "-", n)

    def qbin_p(self, m: int, n: int) -> Cyclo:
        return self._bracket(q_binomial_poly, "+", m, n)

    def qbin_m(self, m: int, n: int) -> Cyclo:
        return self._bracket(q_binomial_poly, "-", m, n)

    # -- distinguished constants ------------------------------------------

    def sqrt2(self) -> Cyclo:
        return sqrt2(self.ctx)

    def sqrt_pp(self) -> Cyclo:
        return gauss_sqrt(self.ctx, self.pp)

    def sqrt_half_pp(self) -> Cyclo:
        return sqrt_half_pp(self.ctx, self.pp)

    def zeta(self, k: int) -> Cyclo:
        return self.ctx.root_of_unity(k)

    # -- Kac-table label sets ----------------------------------------------

    def set_I1(self):
        p, q = self.p_plus, self.p_minus
        return [(r, s) for r in range(1, p) for s in range(1, q)
                if q * r + p * s <= p * q]

    def set_I_slash(self):
        # I1 plus the column (r, p_minus)
        return self.set_I1() + [(r, self.p_minus) for r in range(1, self.p_plus)]

    def set_I_bslash(self):
        # I1 plus the row (p_plus, r')
        return self.set_I1() + [(self.p_plus, s) for s in range(1, self.p_minus)]

    def set_I(self):
        return (self.set_I1()
                + [(r, self.p_minus) for r in range(1, self.p_plus)]
                + [(self.p_plus, s) for s in range(1, self.p_minus)]
                + [(self.p_plus, self.p_minus), (0, self.p_minus)])

    # -- monomials ----------------------------------------------------------

    def monomials(self):
        p, q, ko = self.p_plus, self.p_minus, self.korder
        for a in range(p):
            for b in range(p):
                for c in range(q):
                    for d in range(q):
                        for j in range(ko):
                            yield (a, b, c, d, j)

    def weight(self, mono) -> int:
        """Conjugation weight: K m K^-1 = zeta^(12*weight) m, mod korder."""
        a, b, c, d, _ = mono
        return (2 * self.p_minus * (b - a) + 2 * self.p_plus * (d - c)) % self.korder

    # -- single-sector straightening -----------------------------------------

    def _sector_table(self, p: int, zQ: int):
        """table[b][a] expands e^b f^a as {(x, y, z): coeff} meaning
        f^x e^y Ksec^z, where Ksec is K^{p_mp} for that sector and
        Q = zeta^zQ its bracket parameter.  Powers of Q are zeta-shifts."""
        ctx = self.ctx
        one = ctx.one
        if p == 1:
            return [[{(0, 0, 0): one}]]
        dq_inv = (ctx.root_of_unity(zQ) - ctx.root_of_unity(-zQ)).inv()
        # ef[x] = e * f^x
        ef = [{(0, 1, 0): one}]
        for x in range(1, p):
            # e f^x = f (e f^{x-1})
            #   + f^{x-1} (Q^{-2(x-1)} Ksec - Q^{2(x-1)} Ksec^-1) / (Q - Q^-1)
            c_hi = dq_inv.shift(-2 * (x - 1) * zQ)
            c_lo = -dq_inv.shift(2 * (x - 1) * zQ)
            ef.append(sparse_sum(chain(
                (((xx + 1, yy, zz), c) for (xx, yy, zz), c in ef[x - 1].items()),
                (((x - 1, 0, 1), c_hi), ((x - 1, 0, -1), c_lo)))))
        table = [[{(a, 0, 0): one} for a in range(p)]]
        for b in range(1, p):
            # multiply e from the left: e f^x e^y K^z = f^{x2} e^{y2} K^{z2} e^y K^z
            # summed over ef[x], with K^{z2} e^y = Q^{2 z2 y} e^y K^{z2}
            table.append([sparse_sum(
                ((x2, y2 + y, z2 + z), (c * c2).shift(2 * zQ * z2 * y))
                for (x, y, z), c in table[b - 1][a].items()
                for (x2, y2, z2), c2 in ef[x].items()
                if y2 + y < p) for a in range(p)])
        return table

    # -- monomial product ------------------------------------------------------

    def mono_mul(self, m1, m2):
        """Product of two PBW monomials as a {monomial: Cyclo} dict."""
        key = (m1, m2)
        hit = self._mono_mul_cache.get(key)
        if hit is not None:
            return hit
        a1, b1, c1, d1, j1 = m1
        a2, b2, c2, d2, j2 = m2
        p, q, N = self.p_plus, self.p_minus, self.N
        # K^{j1} through the second monomial's sector part
        base = 24 * j1 * (q * (b2 - a2) + p * (d2 - c2))
        # Ksec^z e^y = Q^{2 z y} e^y Ksec^z in each sector, as zeta-exponents
        slope_p = 2 * self.zQp * b2
        slope_m = 2 * self.zQm * d2

        def terms():
            for (xp, yp, zp), cp in self._sp[b1][a2].items():
                if a1 + xp >= p or yp + b2 >= p:
                    continue
                ep = base + slope_p * zp
                for (xm, ym, zm), cm in self._sm[d1][c2].items():
                    if c1 + xm >= q or ym + d2 >= q:
                        continue
                    j = (j1 + j2 + q * zp + p * zm) % self.korder
                    e = (ep + slope_m * zm) % N
                    coeff = cp * cm
                    yield ((a1 + xp, yp + b2, c1 + xm, ym + d2, j),
                           coeff.shift(e) if e else coeff)

        out = sparse_sum(terms())
        self._mono_mul_cache[key] = out
        return out

    # -- generators ---------------------------------------------------------------

    def gen(self, name: str, power: int = 1) -> "AlgebraElement":
        if power < 0:
            if name != "K":
                raise ValueError("only K admits negative powers")
            power %= self.korder
        if name == "K":
            return AlgebraElement(self, {(0, 0, 0, 0, power % self.korder): self.ctx.one})
        a = b = c = d = 0
        if name == "fp":
            a = power
        elif name == "ep":
            b = power
        elif name == "fm":
            c = power
        elif name == "em":
            d = power
        else:
            raise ValueError(f"unknown generator {name!r}")
        if (name in ("fp", "ep") and power >= self.p_plus) or \
           (name in ("fm", "em") and power >= self.p_minus):
            return self.zero
        return AlgebraElement(self, {(a, b, c, d, 0): self.ctx.one})

    def element(self, coeffs: dict) -> "AlgebraElement":
        return AlgebraElement(self, {m: c for m, c in coeffs.items() if not c.is_zero()})

    def scalar(self, value) -> "AlgebraElement":
        c = value if isinstance(value, Cyclo) else self.ctx.integer(value)
        return AlgebraElement(self, {(0, 0, 0, 0, 0): c} if not c.is_zero() else {})

    def linear_combination(self, terms) -> "AlgebraElement":
        """The sum of c * x over (x, c) pairs, as one sparse_sum; pairs with
        a zero scalar are skipped."""
        return AlgebraElement(self, sparse_sum(
            (m, v * c) for x, c in terms if c for m, v in x.coeffs.items()))

    # -- Hopf structure caches -----------------------------------------------------

    def coproduct_mono(self, mono) -> "TensorElement":
        hit = self._coproduct_cache.get(mono)
        if hit is not None:
            return hit
        a, b, c, d, j = mono
        p, q, ko = self.p_plus, self.p_minus, self.korder
        one = self.ctx.one
        t = TensorElement(self, {((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)): one})
        d_fp = TensorElement(self, {
            ((1, 0, 0, 0, 0), (0, 0, 0, 0, (-q) % ko)): one,
            ((0, 0, 0, 0, 0), (1, 0, 0, 0, 0)): one})
        d_ep = TensorElement(self, {
            ((0, 1, 0, 0, 0), (0, 0, 0, 0, 0)): one,
            ((0, 0, 0, 0, q % ko), (0, 1, 0, 0, 0)): one})
        d_fm = TensorElement(self, {
            ((0, 0, 1, 0, 0), (0, 0, 0, 0, 0)): one,
            ((0, 0, 0, 0, (-p) % ko), (0, 0, 1, 0, 0)): one})
        d_em = TensorElement(self, {
            ((0, 0, 0, 1, 0), (0, 0, 0, 0, p % ko)): one,
            ((0, 0, 0, 0, 0), (0, 0, 0, 1, 0)): one})
        for factor, power in ((d_fp, a), (d_ep, b), (d_fm, c), (d_em, d)):
            for _ in range(power):
                t = t * factor
        if j:
            t = t * TensorElement(self, {((0, 0, 0, 0, j), (0, 0, 0, 0, j)): one})
        self._coproduct_cache[mono] = t
        return t

    def casimirs(self):
        """The two central Casimir elements, one per sector."""
        Qp, Qp_inv = self.Q_plus, self.zeta(-self.zQp)
        Qm, Qm_inv = self.Q_minus, self.zeta(-self.zQm)
        cp = (self.gen("K", -self.p_minus) * (-Qp)
              + self.gen("K", self.p_minus) * (-Qp_inv)
              + self.gen("ep") * self.gen("fp") * (-((Qp - Qp_inv) ** 2)))
        cm = (self.gen("K", -self.p_plus) * (-Qm)
              + self.gen("K", self.p_plus) * (-Qm_inv)
              + self.gen("em") * self.gen("fm") * (-((Qm - Qm_inv) ** 2)))
        return cp, cm

    def casimir_eigenvalue_plus(self, alpha: int, r: int, s: int) -> Cyclo:
        sign = _intsign(alpha, self.p_minus) * (-1) ** s
        return (self.zeta(r * self.zQp) + self.zeta(-r * self.zQp)) * sign

    def casimir_eigenvalue_minus(self, alpha: int, r: int, s: int) -> Cyclo:
        sign = _intsign(alpha, self.p_plus) * (-1) ** r
        return (self.zeta(s * self.zQm) + self.zeta(-s * self.zQm)) * sign

    def antipode_mono(self, mono) -> "AlgebraElement":
        hit = self._antipode_cache.get(mono)
        if hit is not None:
            return hit
        a, b, c, d, j = mono
        p, q, ko = self.p_plus, self.p_minus, self.korder
        one = self.ctx.one
        # S reverses the order: S(K^j) S(em)^d S(fm)^c S(ep)^b S(fp)^a
        s_fp = AlgebraElement(self, {(1, 0, 0, 0, q % ko): -one})    # -fp K^{p_-}
        s_ep = self.gen("K", -q) * self.gen("ep") * (-1)             # -K^{-p_-} ep
        s_fm = self.gen("K", self.p_plus) * self.gen("fm") * (-1)    # -K^{p_+} fm
        s_em = AlgebraElement(self, {(0, 0, 0, 1, (-p) % ko): -one}) # -em K^{-p_+}
        out = AlgebraElement(self, {(0, 0, 0, 0, (-j) % ko): one})
        for factor, power in ((s_em, d), (s_fm, c), (s_ep, b), (s_fp, a)):
            for _ in range(power):
                out = out * factor
        self._antipode_cache[mono] = out
        return out


class AlgebraElement:
    """Sparse element over the PBW basis; immutable by convention."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: Params, coeffs: dict):
        self.params = params
        self.coeffs = coeffs

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.params.scalar(other)
        if self.params is not other.params:
            raise ValueError("parameter context mismatch")
        return AlgebraElement(self.params, sparse_sum(
            chain(self.coeffs.items(), other.coeffs.items())))

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.params, {m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.params.scalar(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.params.scalar(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            if not other:
                return self.params.zero
            return AlgebraElement(self.params, {m: c * other for m, c in self.coeffs.items()})
        if isinstance(other, TensorElement):
            return NotImplemented
        if self.params is not other.params:
            raise ValueError("parameter context mismatch")
        mono_mul = self.params.mono_mul
        return AlgebraElement(self.params, sparse_sum(
            (m, c12 * c)
            for m1, c1 in self.coeffs.items()
            for m2, c2 in other.coeffs.items()
            for c12 in (c1 * c2,)
            for m, c in mono_mul(m1, m2).items()))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined")
        result = self.params.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            other = self.params.scalar(other)
        return isinstance(other, AlgebraElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items(), key=lambda kv: kv[0])))

    def is_zero(self) -> bool:
        return not self.coeffs

    def commutator(self, other) -> "AlgebraElement":
        return self * other - other * self

    # -- Hopf operations ------------------------------------------------------

    def coproduct(self) -> "TensorElement":
        coproduct_mono = self.params.coproduct_mono
        return TensorElement(self.params, sparse_sum(
            (mm, c * cc)
            for m, c in self.coeffs.items()
            for mm, cc in coproduct_mono(m).coeffs.items()))

    def antipode(self) -> "AlgebraElement":
        antipode_mono = self.params.antipode_mono
        return AlgebraElement(self.params, sparse_sum(
            (mm, cc * c)
            for m, c in self.coeffs.items()
            for mm, cc in antipode_mono(m).coeffs.items()))

    def counit(self) -> Cyclo:
        out = self.params.ctx.zero
        for (a, b, c, d, _j), coeff in self.coeffs.items():
            if a == 0 and b == 0 and c == 0 and d == 0:
                out = out + coeff
        return out

    def adjoint(self, x: "AlgebraElement") -> "AlgebraElement":
        """Ad_self(x) = sum self' x S(self'')."""
        P = self.params
        return AlgebraElement(P, sparse_sum(
            kv
            for (m1, m2), c in self.coproduct().coeffs.items()
            for kv in (AlgebraElement(P, {m1: c}) * x * P.antipode_mono(m2)).coeffs.items()))

    # -- serialization ---------------------------------------------------------

    def to_records(self):
        recs = []
        for m in sorted(self.coeffs):
            recs.append({"mono": list(m), "coeff": self.coeffs[m].to_json()})
        return recs

    @staticmethod
    def from_records(params: Params, recs) -> "AlgebraElement":
        coeffs = {}
        for rec in recs:
            coeffs[tuple(rec["mono"])] = Cyclo.from_json(params.ctx, rec["coeff"])
        return params.element(coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "AlgebraElement(0)"
        terms = []
        for m in sorted(self.coeffs)[:8]:
            a, b, c, d, j = m
            word = "".join(s for s, n in (
                (f"fp^{a}", a), (f"ep^{b}", b), (f"fm^{c}", c),
                (f"em^{d}", d), (f"K^{j}", j)) if n) or "1"
            terms.append(f"({self.coeffs[m]!r})*{word}")
        more = "" if len(self.coeffs) <= 8 else f" ... ({len(self.coeffs)} terms)"
        return " + ".join(terms) + more


class TensorElement:
    """Sparse element of the tensor square, with componentwise product."""

    __slots__ = ("params", "coeffs")

    def __init__(self, params: Params, coeffs: dict):
        self.params = params
        self.coeffs = coeffs

    def __add__(self, other):
        return TensorElement(self.params, sparse_sum(
            chain(self.coeffs.items(), other.coeffs.items())))

    def __sub__(self, other):
        return self + TensorElement(self.params, {m: -c for m, c in other.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Cyclo)):
            if not other:
                return TensorElement(self.params, {})
            return TensorElement(self.params, {m: c * other for m, c in self.coeffs.items()})
        mono_mul = self.params.mono_mul

        def terms():
            for (a1, a2), c1 in self.coeffs.items():
                for (b1, b2), c2 in other.coeffs.items():
                    left = mono_mul(a1, b1)
                    right = left and mono_mul(a2, b2)
                    if not right:
                        continue
                    c12 = c1 * c2
                    for mL, cL in left.items():
                        cl = c12 * cL
                        for mR, cR in right.items():
                            yield (mL, mR), cl * cR

        return TensorElement(self.params, sparse_sum(terms()))

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, TensorElement) and self.coeffs == other.coeffs

    def is_zero(self) -> bool:
        return not self.coeffs

    def multiply_legs(self) -> AlgebraElement:
        """Apply the multiplication map m: A (x) A -> A."""
        mono_mul = self.params.mono_mul
        return AlgebraElement(self.params, sparse_sum(
            (m, c * cc)
            for (m1, m2), c in self.coeffs.items()
            for m, cc in mono_mul(m1, m2).items()))

    def apply_left(self, func) -> AlgebraElement:
        """Contract the first leg with a linear functional mono -> Cyclo."""
        return AlgebraElement(self.params, sparse_sum(
            (m2, c * v)
            for (m1, m2), c in self.coeffs.items()
            for v in (func(m1),) if v))

    def apply_maps(self, left_map, right_map) -> "TensorElement":
        """Apply algebra maps (given on monomials, returning AlgebraElement)
        to both legs; used for (S (x) id) and friends."""
        def terms():
            for (m1, m2), c in self.coeffs.items():
                lhs = left_map(m1).coeffs
                rhs = right_map(m2).coeffs
                for mL, cL in lhs.items():
                    cl = c * cL
                    for mR, cR in rhs.items():
                        yield (mL, mR), cl * cR

        return TensorElement(self.params, sparse_sum(terms()))

    def swap(self) -> "TensorElement":
        return TensorElement(self.params, {(m2, m1): c for (m1, m2), c in self.coeffs.items()})
