"""Exact arithmetic in the cyclotomic field Q(zeta_N).

All quantum-group computations for a parameter pair (p_plus, p_minus) run
inside a single field Q(zeta_N) with N = 24*p_plus*p_minus.  This order is
the least uniform choice that contains

* the deformation parameter q = zeta_N**6 (a primitive 4*p_plus*p_minus-th
  root of -1),
* sqrt(2) = zeta_8 + zeta_8**-1 with zeta_8 = zeta_N**(3*p_plus*p_minus),
* sqrt(p_plus*p_minus) through the quadratic Gauss sum in q,
* the modular phase exp(-i*pi*c/12) for the central charge c.

Elements are stored in canonical form: a sparse integer map `num` over the
power basis {zeta^k : 0 <= k < phi(N)} reduced modulo the N-th cyclotomic
polynomial, with no zero coefficients, together with a single positive
denominator `den` that shares no factor with all of them.  Two elements are
equal iff their canonical data agree, so hashing and exact zero tests are
cheap.

Every operation ends in one pass, `CycloContext._canonical`, which folds
exponents through the reduction rows, drops zeros and divides out the gcd
(skipped when den == 1).  `embed` rounds each component whose exact value
is nonzero correctly, so a printed float depends only on the exact value;
an exact zero prints as the residue of the terms summed in ascending
exponent order.  It reads cos and sin of each 2*pi*e/N from a table that
its context fills once per precision, inside the same working precision,
so a value read from the table equals the one computed in place.

Fast paths, chosen from the operands' shape:

* a zero operand of `+` returns the other operand, of `*` returns zero;
* a factor +-1 returns the other factor or its negation;
* a one-term factor c*zeta^k/d makes the product a scaled shift of the
  other factor, with no raw product map;
* `inv` and `**` of a one-term element are (c/d)^n * zeta^(nk) for either
  sign of n, with no repeated squaring (`inv` reads it from `**`);
* `inv` of a two-term element is a closed form summed in one fold
  (`Cyclo._inv_binomial`); only three or more terms take the Galois norm
  (`Cyclo._inv_norm`), a product of phi(N) - 1 conjugates in integer
  arithmetic.

`sum_products` is the one kernel for a family of sums of products
sum_i a_i * b_i, one sum per key, that builds no Cyclo per product: each
product goes into a raw integer map per key and denominator, and each key
is brought to a common denominator and folded through the reduction rows
once, at the end (the delayed reduction of Dumas, Giorgi and Pernet, ACM
TOMS 2008).  Its keys are an exact zero test: a key is present exactly
when its sum is nonzero.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
from mpmath.libmp import from_man_exp, mpf_add, mpf_sub

__all__ = [
    "CycloContext",
    "Cyclo",
    "sparse_sum",
    "sum_products",
    "LaurentZ",
    "euler_phi",
    "cyclotomic_polynomial",
    "q_int_poly",
    "q_factorial_poly",
    "q_binomial_poly",
    "chebyshev_U",
    "chebyshev_diff",
    "psi_poly",
    "horner",
    "sqrt2",
    "gauss_sqrt",
    "sqrt_half_pp",
]


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending."""
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return primes


def euler_phi(n: int) -> int:
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


class CycloContext:
    """Fixed-order cyclotomic field with precomputed reduction data.

    The reduction table maps zeta^k for phi(N) <= k < N + phi(N) to its
    canonical sparse form; once built it is read-only, so a context can be
    shared freely across threads.  The cos/sin table of `Cyclo.embed` is
    added on first use of each precision; a concurrent first use builds an
    equal table.
    """

    def __init__(self, order: int):
        if order < 1:
            raise ValueError("order must be positive")
        self.order = order
        self.phi = euler_phi(order)
        poly = cyclotomic_polynomial(order).coefficients()
        assert len(poly) == self.phi + 1 and poly[-1] == 1
        # rows[k - phi] = canonical sparse dict of zeta^k, for k in
        # [phi, order + phi): enough headroom for products of canonical
        # elements shifted by any zeta-power.
        rows = []
        cur = {i: -c for i, c in enumerate(poly[:-1]) if c}  # zeta^phi
        rows.append(dict(cur))
        for _ in range(self.order - 1):
            nxt = {}
            for e, c in cur.items():
                e1 = e + 1
                if e1 < self.phi:
                    nxt[e1] = nxt.get(e1, 0) + c
                else:
                    for e2, c2 in rows[e1 - self.phi].items():
                        nxt[e2] = nxt.get(e2, 0) + c * c2
            cur = {e: c for e, c in nxt.items() if c}
            rows.append(dict(cur))
        self._rows = rows
        self.zero = Cyclo(self, {}, 1)
        self.one = Cyclo(self, {0: 1}, 1)
        self._root_cache = {}
        # precision -> [(cos, sin) of 2*pi*e/N for e in [0, phi)], for embed
        self._trig = {}

    def reduce(self, raw: dict, den: int) -> "Cyclo":
        """Canonicalize a sparse {exponent: integer} map (exponents may be
        any integers) with the given denominator."""
        return self._canonical(raw, den)

    def _fold(self, num: dict, k: int = 0, s: int = 1,
              acc: dict | None = None) -> dict:
        """acc + s*zeta^k*num as a sparse map over [0, phi), acc updated in
        place: each exponent e + k of `num` (any integer) is folded into
        [0, phi) through the reduction rows and accumulated in first-touch
        order.  Zero sums stay in the map, at their first touch."""
        phi = self.phi
        rows = self._rows
        if acc is None:
            acc = {}
        get = acc.get
        for e, c in num.items():
            if not c:
                continue
            e += k
            c *= s
            if e >= phi or e < 0:
                e %= self.order
                if e >= phi:
                    for e2, c2 in rows[e - phi].items():
                        acc[e2] = get(e2, 0) + c * c2
                    continue
            acc[e] = get(e, 0) + c
        return acc

    def _canonical(self, num: dict, den: int, k: int = 0, s: int = 1,
                   acc: dict | None = None) -> "Cyclo":
        """The one canonicalisation pass: (acc + s*zeta^k*num) / den.

        `num` maps integer exponents (any integers) to integers, and `acc`,
        if given, is a sparse map over [0, phi) that is updated in place.
        The sum is folded by _fold; then zero sums are dropped, the sign of
        `den` moved into the numerator and the gcd with `den` divided out
        (not computed when den == 1).
        """
        acc = self._fold(num, k, s, acc)
        if 0 in acc.values():
            acc = {e: c for e, c in acc.items() if c}
        if not acc:
            return self.zero
        if den != 1:
            if den < 0:
                den = -den
                acc = {e: -c for e, c in acc.items()}
            g = den
            for c in acc.values():
                g = math.gcd(g, c)
                if g == 1:
                    break
            else:  # no coefficient brought g down to 1
                den //= g
                acc = {e: c // g for e, c in acc.items()}
        return Cyclo(self, acc, den)

    def root_of_unity(self, k: int) -> "Cyclo":
        """zeta_N^k in canonical form (k arbitrary, reduced mod N)."""
        k %= self.order
        hit = self._root_cache.get(k)
        if hit is None:
            hit = self._root_cache[k] = self._canonical({k: 1}, 1)
        return hit

    def integer(self, n) -> "Cyclo":
        if isinstance(n, Fraction):
            return self._canonical({0: n.numerator}, n.denominator)
        return Cyclo(self, {0: n} if n else {}, 1)


class Cyclo:
    """Immutable element of Q(zeta_N) in canonical form."""

    __slots__ = ("ctx", "num", "den", "_hash")

    def __init__(self, ctx: CycloContext, num: dict, den: int):
        self.ctx = ctx
        self.num = num
        self.den = den
        self._hash = None

    # -- ring structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Cyclo):
            other = self.ctx.integer(other)
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da == db:
            return self.ctx._canonical(b, da, acc=a.copy())
        g = math.gcd(da, db)
        la = db // g
        return self.ctx._canonical(b, da * la, s=da // g,
                                   acc={e: c * la for e, c in a.items()})

    __radd__ = __add__

    def __neg__(self):
        return Cyclo(self.ctx, {e: -c for e, c in self.num.items()}, self.den)

    def __sub__(self, other):
        if not isinstance(other, Cyclo):
            other = self.ctx.integer(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.ctx.integer(other) + (-self)

    def __mul__(self, other):
        ctx = self.ctx
        if not isinstance(other, Cyclo):
            if isinstance(other, Fraction):
                s, den = other.numerator, self.den * other.denominator
            else:
                s, den = other, self.den
            return ctx._canonical(self.num, den, s=s)
        a, b = self.num, other.num
        if not a or not b:
            return ctx.zero
        # A one-term factor c*zeta^k/d makes the product a scaled shift of
        # the other factor x; for +-1 it is x itself or -x.
        if len(b) == 1:
            x, y = self, other
        elif len(a) == 1:
            x, y = other, self
        else:
            raw = {}
            get = raw.get
            for e1, c1 in a.items():
                for e2, c2 in b.items():
                    e = e1 + e2
                    raw[e] = get(e, 0) + c1 * c2
            return ctx._canonical(raw, self.den * other.den)
        (k, s), = y.num.items()
        if not k and y.den == 1:
            if s == 1:
                return x
            if s == -1:
                return -x
        return ctx._canonical(x.num, self.den * other.den, k, s)

    __rmul__ = __mul__

    def shift(self, k: int) -> "Cyclo":
        """Multiplication by zeta^k (fast path); self itself when zeta^k = 1."""
        if not k % self.ctx.order:
            return self
        return self.ctx._canonical(self.num, self.den, k)

    def __pow__(self, n: int):
        num = self.num
        if len(num) == 1:
            # (c/d * zeta^k)^n = c^n/d^n * zeta^(nk), for either sign of n
            (k, c), = num.items()
            d = self.den
            if n < 0:
                n, k, c, d = -n, -k, d, c
            return self.ctx._canonical({n * k: c ** n}, d ** n)
        if n < 0:
            return self.inv() ** (-n)
        result = self.ctx.one
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- field structure -------------------------------------------------

    def inv(self) -> "Cyclo":
        """Multiplicative inverse, in one of three shapes: `__pow__`'s
        closed form (d/c)*zeta^-k for a one-term element (c/d)*zeta^k, the
        closed form of _inv_binomial for a two-term one, else the Galois
        norm (_inv_norm)."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero in Q(zeta_N)")
        if len(self.num) == 1:
            return self ** -1
        if len(self.num) == 2:
            return self._inv_binomial()
        return self._inv_norm()

    def _inv_binomial(self) -> "Cyclo":
        """The inverse of x = (c1 zeta^i + c2 zeta^j)/d in one _canonical
        fold.  With t = c2/c1 and z = zeta^(j - i), of order o,
        x = (c1/d) zeta^i (1 + t z), and z^o = 1 gives

            (1 + t z)^-1 = sum_{k<o} (-t z)^k / (1 - (-t)^o)   if (-t)^o != 1,
            (1 - z)^-1 = -(1/o) sum_{k<o} k z^k,
            (1 + z)^-1 = (1 - z) (1 - z^2)^-1                   for even o,

        the last two for t = -1 and for t = 1 with o even, the only
        rational t with (-t)^o = 1."""
        ctx = self.ctx
        (i, c1), (j, c2) = self.num.items()
        d, step = self.den, j - i
        o = ctx.order // math.gcd(ctx.order, step)
        if c2 == -c1:
            raw = {k * step - i: -d * k for k in range(o)}
            den = c1 * o
        elif c2 == c1 and o % 2 == 0:
            # -(2/o) sum_{k<o/2} k (z^2k - z^(2k+1))
            raw = {}
            for k in range(o // 2):
                raw[2 * k * step - i] = -2 * d * k
                raw[(2 * k + 1) * step - i] = 2 * d * k
            den = c1 * o
        else:
            raw = {k * step - i: d * (-c2) ** k * c1 ** (o - 1 - k) for k in range(o)}
            den = c1 ** o - (-c2) ** o
        return ctx._canonical(raw, den)

    def _inv_norm(self) -> "Cyclo":
        """The inverse of x = num/d through its Galois conjugates.  The
        automorphisms of Q(zeta_N) are sigma_a: zeta -> zeta^a for a prime
        to N, so r = prod_{a != 1} sigma_a(num) makes num * r the norm of
        num, a nonzero integer n, and x^-1 = d * r / n."""
        ctx = self.ctx
        num, order = self.num, ctx.order
        r = ctx.one
        for a in range(2, order):
            if math.gcd(a, order) == 1:
                r = r * ctx._canonical({a * e: c for e, c in num.items()}, 1)
        return r * (self.den / (r * Cyclo(ctx, num, 1)).rational_value())

    def __truediv__(self, other):
        if not isinstance(other, Cyclo):
            if isinstance(other, Fraction):
                return self * Fraction(other.denominator, other.numerator)
            return self * Fraction(1, other)
        return self * other.inv()

    # -- involutions and predicates ---------------------------------------

    def conj(self) -> "Cyclo":
        """Complex conjugation, i.e. the Galois map zeta -> zeta^(N-1)."""
        return self.ctx._canonical({-e: c for e, c in self.num.items()},
                                   self.den)

    def is_zero(self) -> bool:
        return not self.num

    def is_rational(self) -> bool:
        return all(e == 0 for e in self.num)

    def rational_value(self) -> Fraction:
        if not self.num:
            return Fraction(0)
        if not self.is_rational():
            raise ValueError("element is not rational")
        return Fraction(self.num[0], self.den)

    def __eq__(self, other):
        if isinstance(other, Cyclo):
            return self.den == other.den and self.num == other.num
        if isinstance(other, (int, Fraction)):
            return self == self.ctx.integer(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.den, tuple(sorted(self.num.items()))))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    def __repr__(self):
        if not self.num:
            return "Cyclo(0)"
        parts = []
        for e in sorted(self.num):
            c = self.num[e]
            parts.append(f"{c}*z^{e}" if e else f"{c}")
        s = " + ".join(parts).replace("+ -", "- ")
        if self.den != 1:
            return f"Cyclo(({s})/{self.den})"
        return f"Cyclo({s})"

    # -- numerics ---------------------------------------------------------

    def embed(self, precision: int = 53):
        """Numerical value under zeta_N -> exp(2*pi*i/N) as an (re, im) pair.

        A component whose exact value is nonzero is that value correctly
        rounded to `precision` bits: the terms are summed in ascending
        exponent order with 10 guard bits, and again with twice the bits
        (Ziv's loop) while the sum's error bound straddles a rounding
        boundary.  A rational component, which could be a midpoint, is
        rounded from its Fraction.  An exactly zero component is the
        residue of the first sum.  For precision <= 53 the pair is returned
        as Python floats, otherwise as mpmath floats.
        """
        if precision < 53:
            raise ValueError("precision must be at least 53 bits")
        out = []
        for comp, x in enumerate(self._embed_sums(precision)):
            value = self._rounded(x, precision, precision)
            if value is None:
                value = self._settle(comp, x, precision)
            out.append(float(value) if precision <= 53 else value)
        return tuple(out)

    def _settle(self, comp, x, precision):
        """Component `comp` (0 real, 1 imaginary) of `embed` when its first
        sum x cannot be rounded: x itself if the component is exactly zero,
        the rounded Fraction if it is rational, else Ziv's loop."""
        c = self.conj()
        if c == (-self if comp == 0 else self):
            return x
        # 2 Re x = x + conj(x) and 2 Im x = (x - conj(x)) / i
        twice = self + c if comp == 0 else (self - c) * self.ctx.root_of_unity(-self.order // 4)
        if twice.is_rational():
            r = twice.rational_value()
            return mpmath.fdiv(r.numerator, 2 * r.denominator, prec=precision)
        bits, value = precision, None
        while value is None:
            bits *= 2
            value = self._rounded(self._embed_sums(bits)[comp], bits, precision)
        return value

    def _embed_sums(self, bits):
        """(re, im) summed in ascending exponent order with bits + 10
        working bits, reading cos and sin of each 2*pi*e/N from the table
        that the context fills once per `bits`."""
        with mpmath.workprec(bits + 10):
            trig = self.ctx._trig.get(bits)
            if trig is None:
                two_pi = 2 * mpmath.pi
                trig = self.ctx._trig[bits] = [
                    (mpmath.cos(ang), mpmath.sin(ang))
                    for ang in (two_pi * e / self.order for e in range(self.ctx.phi))]
            re = mpmath.mpf(0)
            im = mpmath.mpf(0)
            for e, c in sorted(self.num.items()):
                cos, sin = trig[e]
                re += c * cos
                im += c * sin
            return re / self.den, im / self.den

    def _rounded(self, x, bits, precision):
        """x, a sum of `_embed_sums(bits)`, rounded to `precision` bits, or
        None if the sum's error bound allows two roundings.  With n terms
        of absolute sum A over den at w = bits + 10 working bits, each
        table entry is off by at most 32 * 2^-w (the angle's three
        roundings and the cos), each product and partial sum by one
        rounding, so x is off by at most (n + 40) * A * 2^-w / den, here
        rounded up to a whole multiple of 2^-w."""
        weight = (len(self.num) + 40) * sum(map(abs, self.num.values()))
        bound = from_man_exp(-(-weight // self.den), -bits - 10)
        lo = mpf_sub(x._mpf_, bound, precision, "n")
        return mpmath.mp.make_mpf(lo) if lo == mpf_add(x._mpf_, bound, precision, "n") else None

    @property
    def order(self):
        return self.ctx.order

    # -- serialization ------------------------------------------------------

    def to_pairs(self):
        """Dense list of reduced (num, den) pairs over the power basis.  The
        zero coefficients, most of the list, share one [0, 1] list, which
        a reader must not change."""
        zero = [0, 1]
        out = []
        for e in range(self.ctx.phi):
            c = self.num.get(e, 0)
            if c:
                g = math.gcd(c, self.den)
                out.append([c // g, self.den // g])
            else:
                out.append(zero)
        return out

    def to_json(self, precision: int | None = None):
        doc = {"order": self.order, "coeffs": self.to_pairs()}
        if precision is not None:
            re, im = self.embed(max(precision, 53))
            doc["float"] = [float(re), float(im)]
        return doc


def sparse_sum(terms) -> dict:
    """Sum an iterable of (key, Cyclo) pairs into a sparse {key: Cyclo} map.

    Keys keep their first-seen order and zero sums are dropped, so every
    coefficient map built here stores only nonzero values.
    """
    acc = {}
    get = acc.get
    for key, c in terms:
        prev = get(key)
        acc[key] = c if prev is None else prev + c
    return {k: v for k, v in acc.items() if v}


def sum_products(triples) -> dict:
    """Sum a*b per key over an iterable of (key, a, b) triples of Cyclos,
    building no Cyclo per product: {key: sum} for the nonzero sums, keys in
    first-seen order.

    Each product is accumulated as raw integers, exponent e1 + e2 to
    c1 * c2, in a map per key and denominator a.den * b.den.  At the end
    the maps of each key are brought to the lcm of its denominators and
    folded, one after the other, into one map through the reduction rows
    (so, as for _canonical, an operand's exponents may be any integers);
    then zeros are dropped, and the sign and gcd fixed, once per key."""
    acc = {}
    ctx = None
    for key, a, b in triples:
        groups = acc.get(key)
        if groups is None:
            groups = acc[key] = {}
        x, y = a.num, b.num
        if not x or not y:
            continue
        ctx = a.ctx
        d = a.den * b.den
        raw = groups.get(d)
        if raw is None:
            raw = groups[d] = {}
        get = raw.get
        if len(x) == 1:
            x, y = y, x
        if len(y) == 1:
            (k, s), = y.items()
            for e, c in x.items():
                e += k
                raw[e] = get(e, 0) + c * s
        else:
            for e1, c1 in x.items():
                for e2, c2 in y.items():
                    e = e1 + e2
                    raw[e] = get(e, 0) + c1 * c2
    out = {}
    for key, groups in acc.items():
        if not groups:
            continue
        lcm = math.lcm(*groups)
        folded = {}
        for d, raw in groups.items():
            ctx._fold(raw, s=lcm // d, acc=folded)
        total = ctx._canonical({}, lcm, acc=folded)
        if total:
            out[key] = total
    return out


# ----------------------------------------------------------------------
# Laurent polynomials over Z: the one type of every integer polynomial,
# Phi_N, the q-integers (evaluated at roots of unity without ever dividing
# specialized values), the Chebyshev polynomials and psi_p.
# ----------------------------------------------------------------------

class LaurentZ:
    """Sparse Laurent polynomial in Z[x, x^-1]."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {e: v for e, v in (c or {}).items() if v}

    @staticmethod
    def one():
        return LaurentZ({0: 1})

    def __add__(self, other):
        c = dict(self.c)
        for e, v in other.c.items():
            w = c.get(e, 0) + v
            if w:
                c[e] = w
            else:
                c.pop(e, None)
        return LaurentZ(c)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentZ({e: v * other for e, v in self.c.items()})
        c = {}
        for e1, v1 in self.c.items():
            for e2, v2 in other.c.items():
                e = e1 + e2
                c[e] = c.get(e, 0) + v1 * v2
        return LaurentZ(c)

    def divexact(self, other: "LaurentZ") -> "LaurentZ":
        """Exact division; raises if the quotient is not in Z[x, x^-1]."""
        if not other.c:
            raise ZeroDivisionError
        if not self.c:
            return LaurentZ()
        lo_s, hi_s = min(self.c), max(self.c)
        lo_o, hi_o = min(other.c), max(other.c)
        # shift both to ordinary polynomials
        a = [0] * (hi_s - lo_s + 1)
        for e, v in self.c.items():
            a[e - lo_s] = v
        b = [0] * (hi_o - lo_o + 1)
        for e, v in other.c.items():
            b[e - lo_o] = v
        db = len(b) - 1
        lead = b[-1]
        if len(a) - 1 < db:
            raise ValueError("not divisible")
        q = [0] * (len(a) - db)
        for i in range(len(a) - 1, db - 1, -1):
            c = a[i]
            if c == 0:
                continue
            if c % lead:
                raise ValueError("not divisible")
            f = c // lead
            q[i - db] = f
            for j, bj in enumerate(b):
                a[i - db + j] -= f * bj
        if any(a):
            raise ValueError("not divisible")
        shift = lo_s - lo_o
        return LaurentZ({e + shift: v for e, v in enumerate(q) if v})

    def at_power(self, k: int) -> "LaurentZ":
        """The substitution x -> x^k."""
        return LaurentZ({e * k: v for e, v in self.c.items()})

    def coefficients(self) -> list:
        """Ascending coefficient list of a polynomial (no negative
        exponents), the input of `horner`; [] for zero."""
        if min(self.c, default=0) < 0:
            raise ValueError("not a polynomial")
        return [self.c.get(e, 0) for e in range(max(self.c, default=-1) + 1)]

    def eval_cyclo(self, q: Cyclo) -> Cyclo:
        """Specialize x -> q for an invertible q: q^lo times `horner` of the
        coefficients from the least exponent lo up."""
        lo, hi = min(self.c, default=0), max(self.c, default=-1)
        return horner([self.c.get(e, 0) for e in range(lo, hi + 1)], q, q.ctx.zero) * q ** lo

    def __eq__(self, other):
        return isinstance(other, LaurentZ) and self.c == other.c

    def __repr__(self):
        return f"LaurentZ({self.c})"


def q_int_poly(n: int) -> LaurentZ:
    """[n]_x = (x^n - x^-n)/(x - x^-1) as a Laurent polynomial."""
    if n < 0:
        return LaurentZ({}) - q_int_poly(-n)
    return LaurentZ({n - 1 - 2 * k: 1 for k in range(n)})


def q_factorial_poly(n: int) -> LaurentZ:
    out = LaurentZ.one()
    for k in range(1, n + 1):
        out = out * q_int_poly(k)
    return out


def q_binomial_poly(m: int, n: int) -> LaurentZ:
    """Gaussian binomial [m choose n]_x; cancellation is symbolic, so the
    result specializes safely at any root of unity."""
    if n < 0 or n > m:
        return LaurentZ()
    num = q_factorial_poly(m)
    den = q_factorial_poly(n) * q_factorial_poly(m - n)
    return num.divexact(den)


def cyclotomic_polynomial(n: int) -> LaurentZ:
    """Phi_n over the integers: from Phi_1 = x - 1, Phi_mp(x) =
    Phi_m(x^p) / Phi_m(x) for each prime p of n (p not dividing m), then
    Phi_n(x) = Phi_r(x^(n/r)) for the product r of the primes of n."""
    phi, rad = LaurentZ({0: -1, 1: 1}), 1
    for p in _prime_factors(n):
        phi, rad = phi.at_power(p).divexact(phi), rad * p
    return phi.at_power(n // rad)


def chebyshev_U(s: int) -> LaurentZ:
    """U_s of the second kind, normalized U_0 = 0, U_1 = 1, U_2 = x and
    x U_s = U_{s-1} + U_{s+1}, so U_s(Q + Q^-1) = [s]_Q."""
    if s < 0:
        raise ValueError("index must be nonnegative")
    x = LaurentZ({1: 1})
    prev, cur = LaurentZ(), LaurentZ.one()
    for _ in range(s):
        prev, cur = cur, x * cur - prev
    return prev


def chebyshev_diff(n: int) -> LaurentZ:
    """U_{n+1} - U_{n-1}, which takes Q + Q^-1 to Q^n + Q^-n."""
    return chebyshev_U(n + 1) - chebyshev_U(n - 1)


def psi_poly(p: int) -> LaurentZ:
    """psi_p = U_{2p+1} - U_{2p-1} - 2, the minimal polynomial of the
    Casimir of a sector with parameter p (roots +-2 simple, the other
    Q^r + Q^-r double), and a relation of the Chebyshev presentation."""
    return chebyshev_diff(2 * p) - LaurentZ({0: 2})


def horner(coeffs, x, zero):
    """sum_i coeffs[i] x^i for an ascending coefficient list, by Horner's
    rule acc = acc * x + c starting from zero, in any ring whose elements
    take `* x` and `+ c`: Cyclo, AlgebraElement, GrElement, with c in the
    ring or an int."""
    acc = zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# ----------------------------------------------------------------------
# Square roots needed for the canonical normalizations.  The positive real
# branch is pinned by explicit root-of-unity expressions, never by a
# floating-point sign choice.
# ----------------------------------------------------------------------

def sqrt2(ctx: CycloContext) -> Cyclo:
    """sqrt(2) = zeta_8 + zeta_8^-1 (requires 8 | N)."""
    if ctx.order % 8:
        raise ValueError("field order must be divisible by 8")
    z8 = ctx.order // 8
    return ctx.root_of_unity(z8) + ctx.root_of_unity(-z8)


def gauss_sqrt(ctx: CycloContext, pp: int) -> Cyclo:
    """sqrt(pp) for pp = p_plus*p_minus with N = 24*pp, from the quadratic
    Gauss sum  sum_{j=0}^{2*pp-1} q^(j^2) = (1+i) sqrt(pp),  q = zeta_N^6."""
    if ctx.order != 24 * pp:
        raise ValueError("field order must equal 24*pp")
    s = sum((ctx.root_of_unity(6 * j * j) for j in range(2 * pp)), start=ctx.zero)
    i_unit = ctx.root_of_unity(ctx.order // 4)
    return s * (ctx.one + i_unit).inv()


def sqrt_half_pp(ctx: CycloContext, pp: int) -> Cyclo:
    """sqrt(pp/2) = (1/2) * sqrt(2) * sqrt(pp), exactly."""
    return sqrt2(ctx) * gauss_sqrt(ctx, pp) * Fraction(1, 2)
