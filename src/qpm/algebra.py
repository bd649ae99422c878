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

K stands on the right of every monomial, so a K exponent never needs
straightening.  Writing a monomial as B K^j with B its K-free part,

    (B1 K^j1)(B2 K^j2) = zeta^(12 j1 weight(B2)) [B1 B2] K^(j1 + j2),

where weight is the conjugation weight of Params.weight, and

    Delta(B K^j) = Delta(B) (K^j (x) K^j),    S(B K^j) = K^-j S(B).

Params.mono_mul therefore straightens and memoises only K-free pairs (at
most (p_+ p_-)^4 of them) and derives every other product by a phase and
a shift of the K exponents; coproduct_mono and antipode_mono do the same
with K-free monomials.  The element products group both operands by
K-free part: each pair of parts is straightened once, and its two
K-exponent vectors meet in one twisted cyclic convolution.  The checks
that multiply central elements skip that convolution: Params.weight_form
puts an element on the weight idempotents of K, where
Params.weight_mul multiplies pointwise in the weight.
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
    sum_products,
)

__all__ = ["Params", "Sector", "AlgebraElement", "TensorElement", "Monomial", "kfree_blocks"]

# A PBW monomial is the tuple (a, b, c, d, j) for f_+^a e_+^b f_-^c e_-^d K^j.
Monomial = tuple


def kfree_blocks(coeffs: dict) -> dict:
    """Group a coefficient map by K-free part: {(a, b, c, d, 0): {j: c}}."""
    blocks = {}
    for m, c in coeffs.items():
        u = blocks.get(m[:4] + (0,))
        if u is None:
            u = blocks[m[:4] + (0,)] = {}
        u[m[4]] = c
    return blocks


def _kfree_pair_blocks(coeffs: dict) -> dict:
    """Group a tensor coefficient map by the K-free parts of its two legs:
    {((a, b, c, d, 0), (a', b', c', d', 0)): {(j, j'): c}}."""
    blocks = {}
    for (m1, m2), c in coeffs.items():
        key = (m1[:4] + (0,), m2[:4] + (0,))
        u = blocks.get(key)
        if u is None:
            u = blocks[key] = {}
        u[m1[4], m2[4]] = c
    return blocks


class Sector:
    """One of the two commuting sl(2)-type sectors: generators e, f (e_+,
    f_+ for the plus sector, e_-, f_- for the minus one), tied to the other
    sector by K, with q_sector = q^{2 p_other} = zeta^zq and bracket
    parameter Q = q_sector^{p_other} = zeta^zQ.

    A label (r, s) indexes the plus sector by r and the minus sector by s.
    lab(a, b) is the label whose index is a in this sector and b in the
    other; it is an involution, so `a, b = sec.lab(*label)` splits a label.
    A formula that comes in a plus/minus pair is written once, as a loop
    over Params.sectors.  pseudo names the sector's pseudotrace family in
    the gamma basis: "nesw" (columns) for plus, "nwse" (rows) for minus.
    reflected is the arrow of Params.linked that reflects the sector's own
    index, a -> p - a: "right" for plus, "left" for minus."""

    def __init__(self, ctx: CycloContext, sign: str, p: int, p_other: int):
        self.ctx = ctx
        self.sign = sign
        self.p = p
        self.p_other = p_other
        self.zq = 12 * p_other
        self.q = ctx.root_of_unity(self.zq)
        self.zQ = 12 * p_other * p_other
        self.Q = ctx.root_of_unity(self.zQ)
        self.e, self.f = ("ep", "fp") if sign == "+" else ("em", "fm")
        self.pseudo = "nesw" if sign == "+" else "nwse"
        self.reflected = "right" if sign == "+" else "left"
        self._values = {}

    def lab(self, a: int, b: int) -> tuple:
        return (a, b) if self.sign == "+" else (b, a)

    # -- q-integers at Q, each evaluated once --------------------------------

    def _at_Q(self, poly, *args) -> Cyclo:
        key = (poly, args)
        hit = self._values.get(key)
        if hit is None:
            hit = self._values[key] = poly(*args).eval_cyclo(self.Q)
        return hit

    def qint(self, n: int) -> Cyclo:
        return self._at_Q(q_int_poly, n)

    def qfact(self, n: int) -> Cyclo:
        return self._at_Q(q_factorial_poly, n)

    def qbin(self, m: int, n: int) -> Cyclo:
        return self._at_Q(q_binomial_poly, m, n)

    def qdiff(self, k: int) -> Cyclo:
        """Q^k - Q^-k."""
        return self.ctx.root_of_unity(k * self.zQ) - self.ctx.root_of_unity(-k * self.zQ)

    def qsum(self, k: int) -> Cyclo:
        """Q^k + Q^-k."""
        return self.ctx.root_of_unity(k * self.zQ) + self.ctx.root_of_unity(-k * self.zQ)

    def alpha_sign(self, alpha: int) -> int:
        """The alpha-dependent sign of this sector's e action and Casimir
        eigenvalue on X^alpha: -1 when alpha = -1 and p_other is odd, else 1."""
        return -1 if alpha < 0 and self.p_other % 2 else 1

    def casimir_eigenvalue(self, alpha: int, r: int, s: int) -> Cyclo:
        """The eigenvalue of this sector's Casimir on X^alpha_{r,s}."""
        a, b = self.lab(r, s)
        return self.qsum(a) * (self.alpha_sign(alpha) * (-1) ** b)


class Params:
    """Parameter context: the cyclotomic field, the two sectors and the
    straightening tables for a fixed coprime pair."""

    def __init__(self, p_plus: int, p_minus: int):
        if p_plus < 1 or p_minus < 1:
            raise ValueError(f"p_plus={p_plus} and p_minus={p_minus} "
                             "must be positive")
        if math.gcd(p_plus, p_minus) != 1:
            raise ValueError(f"p_plus={p_plus} and p_minus={p_minus} "
                             "must be coprime")
        self.p_plus = p_plus
        self.p_minus = p_minus
        self.pp = p_plus * p_minus
        self.korder = 2 * self.pp
        self.N = 24 * self.pp
        self.ctx = CycloContext(self.N)
        self.dim = 2 * p_plus ** 3 * p_minus ** 3

        # q = zeta^zq; each sector holds its own q_sector and Q
        self.zq = 6
        self.q = self.ctx.root_of_unity(self.zq)
        self.plus = Sector(self.ctx, "+", p_plus, p_minus)
        self.minus = Sector(self.ctx, "-", p_minus, p_plus)
        self.sectors = (self.plus, self.minus)
        # e and f of each sector with p > 1 (for p = 1 both are 0), by name
        # with their PBW monomials, in the order ep, fp, em, fm
        self.live_generators = {}
        if p_plus > 1:
            self.live_generators.update(ep=(0, 1, 0, 0, 0), fp=(1, 0, 0, 0, 0))
        if p_minus > 1:
            self.live_generators.update(em=(0, 0, 0, 1, 0), fm=(0, 0, 1, 0, 0))
        self._sp = self._sector_table(self.plus)
        self._sm = self._sector_table(self.minus)

        self._coproduct_cache = {}
        self._antipode_cache = {}
        self._mono_mul_cache = {}
        # every lazily built structure of the pair (modules, functionals,
        # the center, the integral data, ...), reached through cached()
        self.cache = {}

        self.zero = AlgebraElement(self, {})
        self.one = AlgebraElement(self, {(0, 0, 0, 0, 0): self.ctx.one})

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

    def set_I_diag(self, sec: Sector):
        """I1 plus the sector's boundary: I_slash, with the column
        (r, p_minus), for the plus sector; I_bslash, with the row
        (p_plus, s), for the minus sector."""
        return self.set_I1() + [sec.lab(a, sec.p_other) for a in range(1, sec.p)]

    def set_I(self):
        return (self.set_I1()
                + [sec.lab(a, sec.p_other) for sec in self.sectors for a in range(1, sec.p)]
                + [(self.p_plus, self.p_minus), (0, self.p_minus)])

    # -- the linkage table ----------------------------------------------------

    def linked(self, alpha: int, r: int, s: int) -> dict:
        """The irreducibles linked to X^alpha_{r,s}, itself included, as
        {arrow: (alpha', r', s')} in the order up, right, left, down:

            up     (alpha, r, s)
            right  (-alpha, p_+ - r, s)          when r < p_+
            left   (-alpha, r, p_- - s)          when s < p_-
            down   (alpha, p_+ - r, p_- - s)     when both hold

        This is the one statement of the linkage rule: four members on the
        interior, two on a boundary, one at (p_+, p_-)."""
        p, q = self.p_plus, self.p_minus
        out = {"up": (alpha, r, s)}
        if r < p:
            out["right"] = (-alpha, p - r, s)
        if s < q:
            out["left"] = (-alpha, r, q - s)
        if r < p and s < q:
            out["down"] = (alpha, p - r, q - s)
        return out

    def block_members(self, r: int, s: int) -> dict:
        """The members of the linkage block (r, s) in set_I, keyed by arrow:
        linked(1, r, s), and for the block (0, p_-) its single member
        (-1, p_+, p_-)."""
        if (r, s) == (0, self.p_minus):
            return self.linked(-1, self.p_plus, self.p_minus)
        return self.linked(1, r, s)

    def block_of(self, alpha: int, r: int, s: int):
        """The linkage block, a label in set_I, of the irreducible
        X^alpha_{r,s}: the inverse of block_members."""
        return self.cached("block_of", lambda: {
            lab: blk for blk in self.set_I()
            for lab in self.block_members(*blk).values()})[alpha, r, s]

    # -- lazily built structures --------------------------------------------

    def cached(self, key, build):
        """The structure stored under key in self.cache; build() makes it
        the first time."""
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]

    def release(self):
        """Drop every structure of the pair and the field's tables, for an
        owner that is done with this Params and keeps none of its values.
        The graph is cyclic (P.one.params is P, the parts in P.cache point
        back to P, ctx.one.ctx is ctx), so reference counting frees it now,
        not the cyclic collector at its next pass."""
        ctx = self.ctx
        vars(self).clear()
        vars(ctx).clear()

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

    def _sector_table(self, sec: Sector):
        """table[b][a] expands e^b f^a as {(x, y, z): coeff} meaning
        f^x e^y Ksec^z, where Ksec is K^{p_other} for the sector and
        Q = zeta^zQ its bracket parameter.  Powers of Q are zeta-shifts."""
        ctx, p, zQ = self.ctx, sec.p, sec.zQ
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

    def kphase(self, mono, j: int) -> int:
        """zeta-exponent of the phase K^j mono K^-j = zeta^e mono."""
        return 12 * (j * self.weight(mono) % self.korder)

    def mono_mul(self, m1, m2):
        """Product of two PBW monomials as a {monomial: Cyclo} dict.

        Only the product of the K-free parts is straightened and memoised;
        K^j1 crosses the second K-free part as a phase and both K
        exponents shift the result."""
        j1, j2 = m1[4], m2[4]
        if j1 or j2:
            m1, m2 = m1[:4] + (0,), m2[:4] + (0,)
        key = (m1, m2)
        free = self._mono_mul_cache.get(key)
        if free is None:
            free = self._mono_mul_cache[key] = self._straighten(m1, m2)
        if not (j1 or j2):
            return free
        e = self.kphase(m2, j1)
        ko = self.korder
        return {(a, b, c, d, (j + j1 + j2) % ko): v.shift(e)
                for (a, b, c, d, j), v in free.items()}

    def _straighten(self, m1, m2):
        """PBW normal form of the product of two K-free monomials."""
        a1, b1, c1, d1, _ = m1
        a2, b2, c2, d2, _ = m2
        p, q, N = self.p_plus, self.p_minus, self.N
        # Ksec^z e^y = Q^{2 z y} e^y Ksec^z in each sector, as zeta-exponents
        slope_p = 2 * self.plus.zQ * b2
        slope_m = 2 * self.minus.zQ * d2

        def terms():
            for (xp, yp, zp), cp in self._sp[b1][a2].items():
                if a1 + xp >= p or yp + b2 >= p:
                    continue
                for (xm, ym, zm), cm in self._sm[d1][c2].items():
                    if c1 + xm >= q or ym + d2 >= q:
                        continue
                    j = (q * zp + p * zm) % self.korder
                    e = (slope_p * zp + slope_m * zm) % N
                    yield (a1 + xp, yp + b2, c1 + xm, ym + d2, j), (cp * cm).shift(e)

        return sparse_sum(terms())

    # -- the weight form ------------------------------------------------------------

    def weight_form(self, x: "AlgebraElement") -> dict:
        """x on the weight idempotents of K, as {(B, w): c} with
        x = sum c B 1_w, B K-free and

            1_w = (1/ko) sum_j zeta_ko^(-w j) K^j,   zeta_ko = zeta^12,

        so that B K^j = sum_w zeta_ko^(w j) B 1_w.  A linear bijection, so
        an identity between elements holds iff it holds between their
        weight forms."""
        ko, root = self.korder, self.ctx.root_of_unity
        return sum_products(((m[:4] + (0,), w), c, root(12 * (w * m[4] % ko)))
                            for m, c in x.coeffs.items() for w in range(ko))

    def weight_mul(self, x: dict, y: dict) -> dict:
        """The product of two weight forms.  Since 1_w B = B 1_(w - weight(B))
        and K^j 1_w = zeta_ko^(w j) 1_w,

            (B1 1_w1)(B2 1_w2) = [w2 = w1 - weight(B2)] sum s zeta_ko^(j w2) C 1_w2

        over the straightened B1 B2 = sum s C K^j: one straightening per
        pair of terms that meet, no K convolution.  Summed in sum_products."""
        ko, weight, mono_mul = self.korder, self.weight, self.mono_mul
        # y's terms by the left index w1 = w2 + weight(B2) they meet
        meets = {}
        for (b2, w2), c2 in y.items():
            meets.setdefault((w2 + weight(b2)) % ko, []).append((b2, w2, c2))

        def triples():
            for (b1, w1), c1 in x.items():
                for b2, w2, c2 in meets.get(w1, ()):
                    c = c1 * c2
                    for m, s in mono_mul(b1, b2).items():
                        e = 12 * (m[4] * w2 % ko)
                        yield (m[:4] + (0,), w2), c, s.shift(e)

        return sum_products(triples())

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
        """Delta(B K^j) = Delta(B) (K^j (x) K^j): Delta(B) is built and
        memoised once per K-free part B, and K^j shifts both legs."""
        j = mono[4]
        free = mono[:4] + (0,)
        t = self._coproduct_cache.get(free)
        if t is None:
            t = self._coproduct_cache[free] = self._coproduct_kfree(free)
        if not j:
            return t
        ko = self.korder
        return TensorElement(self, {
            ((a, b, c, d, (i + j) % ko), (ar, br, cr, dr, (k + j) % ko)): v
            for ((a, b, c, d, i), (ar, br, cr, dr, k)), v in t.coeffs.items()})

    def _coproduct_kfree(self, mono) -> "TensorElement":
        """Delta(fp^a ep^b fm^c em^d) as Delta(B') Delta(x), for x the last
        generator of the word and B' the word without it, with Delta(B')
        from the memo: one product per word, and every word's coproduct the
        same left-to-right product of generator coproducts."""
        if not any(mono):
            return TensorElement(self, {((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)): self.ctx.one})
        last = max(i for i in range(4) if mono[i])
        prefix = list(mono)
        prefix[last] -= 1
        return self.coproduct_mono(tuple(prefix)) * self.cached(
            "generator_coproducts", self._generator_coproducts)[last]

    def _generator_coproducts(self):
        """Delta(fp), Delta(ep), Delta(fm), Delta(em)."""
        p, q, ko = self.p_plus, self.p_minus, self.korder
        one = self.ctx.one
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
        return d_fp, d_ep, d_fm, d_em

    def casimirs(self):
        """The two central Casimir elements, one per sector:
        -Q K^-p' - Q^-1 K^p' - (Q - Q^-1)^2 e f, with p' = p_other."""
        return tuple(self.gen("K", -sec.p_other) * (-sec.Q)
                     + self.gen("K", sec.p_other) * (-self.zeta(-sec.zQ))
                     + self.gen(sec.e) * self.gen(sec.f) * (-(sec.qdiff(1) ** 2))
                     for sec in self.sectors)

    def antipode_mono(self, mono) -> "AlgebraElement":
        """S(B K^j) = K^-j S(B): S(B) is built and memoised once per K-free
        part B, and K^-j crosses it as one phase, since every term of S(B)
        has the weight of B, then shifts its K exponents."""
        j = mono[4]
        free = mono[:4] + (0,)
        out = self._antipode_cache.get(free)
        if out is None:
            out = self._antipode_cache[free] = self._antipode_kfree(free)
        if not j:
            return out
        e, ko = self.kphase(free, -j), self.korder
        return AlgebraElement(self, {
            (a, b, c, d, (i - j) % ko): v.shift(e)
            for (a, b, c, d, i), v in out.coeffs.items()})

    def _antipode_kfree(self, mono) -> "AlgebraElement":
        a, b, c, d, _ = mono
        p, q, ko = self.p_plus, self.p_minus, self.korder
        one = self.ctx.one
        # S reverses the order: S(em)^d S(fm)^c S(ep)^b S(fp)^a
        s_fp = AlgebraElement(self, {(1, 0, 0, 0, q % ko): -one})    # -fp K^{p_-}
        s_ep = self.gen("K", -q) * self.gen("ep") * (-1)             # -K^{-p_-} ep
        s_fm = self.gen("K", self.p_plus) * self.gen("fm") * (-1)    # -K^{p_+} fm
        s_em = AlgebraElement(self, {(0, 0, 0, 1, (-p) % ko): -one}) # -em K^{-p_+}
        out = self.one
        for factor, power in ((s_em, d), (s_fm, c), (s_ep, b), (s_fp, a)):
            for _ in range(power):
                out = out * factor
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
        P = self.params
        mono_mul, kphase, ko = P.mono_mul, P.kphase, P.korder
        right = kfree_blocks(other.coeffs)

        def terms():
            for b1, u1 in kfree_blocks(self.coeffs).items():
                for b2, u2 in right.items():
                    free = mono_mul(b1, b2)
                    if not free:
                        continue
                    # (B1 u1)(B2 u2) = B1 B2 times the twisted cyclic
                    # convolution of the K-exponent vectors u1 and u2;
                    # its terms can only collide if both have two or more,
                    # and then it is one sum_products batch
                    if len(u1) > 1 and len(u2) > 1:
                        ks = sum_products(((j1 + j2) % ko, c1, c2)
                                          for j1, c in u1.items()
                                          for c1 in (c.shift(kphase(b2, j1)),)
                                          for j2, c2 in u2.items()).items()
                    else:
                        ks = [((j1 + j2) % ko, c1 * c2)
                              for j1, c in u1.items()
                              for c1 in (c.shift(kphase(b2, j1)),)
                              for j2, c2 in u2.items()]
                    for (a, b, c, d, j), s in free.items():
                        for k, ck in ks:
                            yield (a, b, c, d, (j + k) % ko), s * ck

        return AlgebraElement(P, sparse_sum(terms()))

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
        return sum((c for m, c in self.coeffs.items() if not any(m[:4])),
                   start=self.params.ctx.zero)

    # -- serialization ---------------------------------------------------------

    def to_records(self):
        recs = []
        for m in sorted(self.coeffs):
            recs.append({"mono": list(m), "coeff": self.coeffs[m].to_json()})
        return recs

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
        P = self.params
        mono_mul, kphase, ko = P.mono_mul, P.kphase, P.korder
        right = _kfree_pair_blocks(other.coeffs)

        def terms():
            for (b1, b1r), u1 in _kfree_pair_blocks(self.coeffs).items():
                for (b2, b2r), u2 in right.items():
                    first = mono_mul(b1, b2)
                    second = first and mono_mul(b1r, b2r)
                    if not second:
                        continue
                    # the two-leg twisted cyclic convolution of the K-exponent
                    # pairs, as in AlgebraElement.__mul__
                    if len(u1) > 1 and len(u2) > 1:
                        ks = sum_products((((i1 + i2) % ko, (j1 + j2) % ko), c1, c2)
                                          for (i1, j1), c in u1.items()
                                          for c1 in (c.shift(kphase(b2, i1) + kphase(b2r, j1)),)
                                          for (i2, j2), c2 in u2.items()).items()
                    else:
                        ks = [(((i1 + i2) % ko, (j1 + j2) % ko), c1 * c2)
                              for (i1, j1), c in u1.items()
                              for c1 in (c.shift(kphase(b2, i1) + kphase(b2r, j1)),)
                              for (i2, j2), c2 in u2.items()]
                    for (a, b, c, d, i), sl in first.items():
                        for (ar, br, cr, dr, j), sr in second.items():
                            s = sl * sr
                            for (ki, kj), ck in ks:
                                yield ((a, b, c, d, (i + ki) % ko),
                                       (ar, br, cr, dr, (j + kj) % ko)), s * ck

        return TensorElement(P, sparse_sum(terms()))

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
