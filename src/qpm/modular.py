"""The modular group action on the center.

S sends a central element z to the Radford image of its Drinfeld preimage;
in the Radford-basis coordinates this is the inverse of the matrix whose
columns express the Drinfeld images of the distinguished q-characters.
T is S-conjugated multiplication by the ribbon element times the phase
exp(-i pi c / 12) built from the central charge

    c = 13 - 6 p_+/p_- - 6 p_-/p_+.

The center splits into five S,T-stable blocks (the minimal-model block,
its tripled copy, the two mixed two-dimensional-times-boundary blocks and
the projective-character block); the verification routines check the block
closures, the stated T-transformation formulas on the distinguished
elements, the factorization S = S* Sbar through the unipotent ribbon
factor, and the further split into three pairwise-commuting
representations.

No matrix here multiplies two dense central elements.  A multiplication
matrix (by v, its semisimple part or a unipotent factor) is
Theory.central_mult_matrix: one Radford-coordinate solve for the element,
the product table of the canonical basis, and the cached d x d change of
basis between canonical and Radford coordinates.  The Xi matrices of the
factorization are products of such matrices with the Radford coordinates of
the contracted coproduct (see _xi_matrix).

The checks decide in Radford coordinates: a named family (duality.kappa
and the rest) is its integer map, any other element is solved for once
(Theory.radford_coordinates)."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .algebra import AlgebraElement, Params
from .cyclotomic import Cyclo
from .duality import (Theory, conformal_weight_exponent, kappa, psi_hat, rho_diag,
                       varphi_cross, varphi_diag, varphi_hat)
from .linalg import (SpanSolver, closure_rank, columns, combine, invert_dense,
                     mat_mul_dense, mat_vec, scalar_of, sparse_vector)
from .reps import irreducible_labels

__all__ = ["ModularData", "ModularAction", "block_layout"]


@dataclass
class ModularData:
    params: Params
    central_charge: Fraction
    t_phase: Cyclo          # exp(-i pi c / 12)

    @staticmethod
    def build(params: Params) -> "ModularData":
        P = params
        c = Fraction(13) - Fraction(6 * P.p_plus, P.p_minus) - Fraction(6 * P.p_minus, P.p_plus)
        phase_exp = -(13 * P.pp - 6 * P.p_plus ** 2 - 6 * P.p_minus ** 2)
        return ModularData(P, c, P.ctx.root_of_unity(phase_exp))


def block_layout(params: Params):
    """The five S,T-stable blocks as (name, labels, expected_dim), where
    labels are the Kac labels that index the block's elements: minimal and
    triplet over I_1, slash and bslash over each sector's I_diag, projective
    over I."""
    P = params
    I1 = P.set_I1()
    interior = (P.p_plus - 1) * (P.p_minus - 1)
    return [("minimal", I1, interior // 2),
            ("triplet", I1, 3 * interior // 2),
            *((name, P.set_I_diag(sec), (sec.p - 1) * (sec.p_other + 1))
              for sec, name in zip(P.sectors, ("slash", "bslash"))),
            ("projective", P.set_I(), ((P.p_plus + 1) * (P.p_minus + 1)) // 2)]


class ModularAction:
    """S and T as exact matrices in the Radford basis.

    S is the inverse of C, whose columns are the Radford coordinates of the
    Drinfeld images (Theory.drinfeld_coordinates); both are built with the
    action.  T is S V S^-1 times the phase, where V, the matrix of
    multiplication by the ribbon element, is built in canonical coordinates
    (Theory.central_mult_matrix).  T is built on first use, so an action
    that only reads S builds no ribbon element."""

    def __init__(self, theory: Theory):
        self.theory = theory
        P = self.params = theory.params
        ctx = P.ctx
        self.data = ModularData.build(P)
        self.dim = len(theory.radford_basis)
        cols = theory.drinfeld_coordinates
        if any(co is None for co in cols):
            raise ArithmeticError("Drinfeld image outside the center span")
        self.C = columns(cols)
        self.S = invert_dense(self.C, ctx)

    @cached_property
    def T(self):
        th = self.theory
        ctx = self.params.ctx
        V = th.central_mult_matrix(th.ribbon.v)
        # S V S^-1, since S^-1 = C
        T0 = mat_mul_dense(mat_mul_dense(self.S, V, ctx), self.C, ctx)
        ph = self.data.t_phase
        return [[v * ph for v in row] for row in T0]

    def s_map(self, z: AlgebraElement) -> AlgebraElement:
        co = mat_vec(self.S, sparse_vector(self.theory.radford_coordinates(z)))
        basis = self.theory.radford_basis
        return self.params.linear_combination((basis[i], c) for i, c in co.items())

    # -- the relation suite -------------------------------------------------------

    def sl2z_relations(self):
        ctx = self.params.ctx
        mm = lambda a, b: mat_mul_dense(a, b, ctx)
        S2 = mm(self.S, self.S)
        report = {"S2_identity": scalar_of(S2) == ctx.one}
        report["S4_identity"] = scalar_of(mm(S2, S2)) == ctx.one
        ST = mm(self.S, self.T)
        ST3 = mm(mm(ST, ST), ST)
        # (ST)^3 S^-2 is (ST)^3 itself when S^2 = 1
        ST3_Sm2 = ST3 if report["S2_identity"] else mm(ST3, invert_dense(S2, ctx))
        scal = scalar_of(ST3_Sm2)
        report["ST3_S-2_scalar"] = scal
        report["ST3_S-2_is_scalar"] = scal is not None
        report["ST3_S-2_scalar_is_one"] = scal == ctx.one
        # S^-1(1) = Lambda
        th = self.theory
        unit, lam = (sparse_vector(th.radford_coordinates(z))
                     for z in (self.params.one, th.integral.cointegral))
        report["S_inv_of_unit_is_cointegral"] = mat_vec(self.C, unit) == lam
        return report

    # -- distinguished blocks ---------------------------------------------------

    def blocks(self):
        """The five S,T-stable blocks as (name, [family maps],
        expected_dim), in the order and with the dimensions of
        block_layout; each Kac label of the block contributes its families
        in turn."""
        P = self.params
        plus, minus = P.sectors
        per_label = {
            "minimal": lambda r, s: (varphi_cross(P, r, s),),
            "triplet": lambda r, s: ({("upup", (r, s)): 1},
                                     psi_hat(P, r, s), varphi_hat(P, r, s)),
            "slash": lambda r, s: (rho_diag(P, plus, r, s), varphi_diag(P, plus, r, s)),
            "bslash": lambda r, s: (rho_diag(P, minus, r, s), varphi_diag(P, minus, r, s)),
            "projective": lambda r, s: (kappa(P, r, s),),
        }
        return [(name, [fam for lab in labels for fam in per_label[name](*lab)], dim)
                for name, labels, dim in block_layout(P)]

    def verify_subrepresentations(self):
        """Block suite: each block is S- and T-stable with the stated
        dimension, and the blocks sum directly to the center.  T acts on
        the S-images of the cross and kappa families by the stated scalars,
        but that is not checked here: S^2 = id makes those images C times
        the family, the "T chi" formula of verify_transformations and the
        T-diagonal action of verify_grothendieck_subrep summed over a
        block's members."""
        ctx = self.params.ctx
        report = {"blocks": {}, "failures": []}
        vecs = {}
        total = 0
        for name, families, expected in self.blocks():
            vecs[name] = [self.theory.radford_vector([(fam, 1)]) for fam in families]
            solver = SpanSolver(vecs[name], ctx)
            dim = solver.rank
            ok_dim = dim == expected
            closed_S = all(solver.contains(mat_vec(self.S, co)) for co in vecs[name])
            closed_T = all(solver.contains(mat_vec(self.T, co)) for co in vecs[name])
            report["blocks"][name] = {"dim": dim, "expected": expected,
                                      "S_closed": closed_S, "T_closed": closed_T}
            if not (ok_dim and closed_S and closed_T):
                report["failures"].append(name)
            total += expected
        joint = SpanSolver([co for block in vecs.values() for co in block], ctx)
        report["direct_sum_rank"] = joint.rank
        report["exhausts_center"] = joint.rank == self.dim == total
        if not report["exhausts_center"]:
            report["failures"].append("direct sum")
        report["ok"] = not report["failures"]
        return report

    def verify_s_exchanges_bases(self):
        """S sends each Drinfeld-basis element to its Radford partner: in
        Radford coordinates, S C is the identity, since column i of C holds
        the coordinates of the i-th Drinfeld image.  S is built as the
        inverse of C, so this holds by construction and fails only with a
        wrong invert_dense."""
        ctx = self.params.ctx
        return scalar_of(mat_mul_dense(self.S, self.C, ctx)) == ctx.one

    def verify_transformations(self):
        """The displayed T-action formulas on the S-adapted families.  The
        Drinfeld-side vectors are +-C times a family map, the others S
        times one.  C c = S c (chi = S(cross), rho = -+S rho_hat) is not
        checked: C = S^-1, so S^2 = id (sl2z_relations) implies it."""
        P = self.params
        zeta = P.ctx.root_of_unity
        ph = self.data.t_phase
        lin = lambda *pairs: combine(pairs, P.ctx)
        radford = self.theory.radford_vector
        failures = []

        def tphase(r, s):
            return ph * zeta(conformal_weight_exponent(P, r, s))

        def drinfeld(family, c=1):
            return mat_vec(self.C, radford([(family, c)]))

        def s_of(family):
            return mat_vec(self.S, radford([(family, 1)]))

        def t_of(x):
            return mat_vec(self.T, x)

        for (r, s) in P.set_I1():
            # chi_{r,s} = C varphi_cross: the minimal-model T-eigenvector
            tp = tphase(r, s)
            chi = drinfeld(varphi_cross(P, r, s))
            if t_of(chi) != lin((chi, tp)):
                failures.append(("T chi", (r, s)))
            rho = s_of(varphi_hat(P, r, s))
            psi = s_of(psi_hat(P, r, s))
            phi = drinfeld({("upup", (r, s)): 1}, (-1) ** (r + s))
            if t_of(rho) != lin((rho, tp)):
                failures.append(("T rho", (r, s)))
            if t_of(psi) != lin((psi, tp), (rho, tp * 2)):
                failures.append(("T psi", (r, s)))
            if t_of(phi) != lin((phi, tp), (psi, tp), (rho, tp)):
                failures.append(("T phi", (r, s)))

        # the slash (column, plus) and bslash (row, minus) families, at the
        # interior labels and at the boundary labelled sec.lab(a, 0), where
        # Delta_{lab(a,0)} = Delta_{lab(p-a,po)}
        for sec, name in zip(P.sectors, ("slash", "bslash")):
            p, po = sec.p, sec.p_other
            for (r, s) in P.set_I1():
                tp = tphase(r, s)
                phi = drinfeld(varphi_diag(P, sec, r, s), -1)
                rho = drinfeld(rho_diag(P, sec, r, s), -1)
                if t_of(phi) != lin((phi, tp), (rho, tp)):
                    failures.append((f"T phi_{name}", (r, s)))
                if t_of(rho) != lin((rho, tp)):
                    failures.append((f"T rho_{name}", (r, s)))
            for a in range(1, p):
                top = sec.lab(p - a, po)
                tp = tphase(*top)
                phi = drinfeld(varphi_diag(P, sec, *top))
                rho = drinfeld(rho_diag(P, sec, *top))
                if t_of(phi) != lin((phi, tp), (rho, tp)):
                    failures.append((f"T phi_{name} bdry", sec.lab(a, 0)))
                if t_of(rho) != lin((rho, tp)):
                    failures.append((f"T rho_{name} bdry", sec.lab(a, 0)))
        return {"ok": not failures, "failures": failures}

    def verify_grothendieck_subrep(self):
        """The Drinfeld image of the Grothendieck ring: span equality with
        the four named central families, T-stability with the
        conformal-weight eigenvalues, and the S-closure behavior.

        The image itself is not literally S-stable (its S-image is the span
        of the Radford images of the irreducible traces, which contains no
        unit), and the two spans together are not yet T-stable: at (2,3)
        they span 18 dimensions, while the smallest S,T-stable subspace
        containing the image, reported as 'closure_rank', has 19.  The
        literal closure statement is reported in 'literal_st_closed' for
        the record.
        """
        P = self.params
        th = self.theory
        ctx = P.ctx
        zeta = ctx.root_of_unity
        labels = irreducible_labels(P)
        chi_coords = [th.drinfeld_vector("qtr", lab) for lab in labels]
        chi_solver = SpanSolver(chi_coords, ctx)
        named = ([{("upup", lab): 1} for lab in P.set_I1()]
                 + [kappa(P, r, s) for (r, s) in P.set_I()]
                 + [varphi_diag(P, sec, r, s) for sec in P.sectors
                    for (r, s) in P.set_I_diag(sec)])
        named_coords = [th.radford_vector([(fam, 1)]) for fam in named]
        named_solver = SpanSolver(named_coords, ctx)
        same_span = (chi_solver.rank == named_solver.rank == 2 * P.pp
                     and all(chi_solver.contains(co) for co in named_coords))
        # T acts diagonally on the chi images with the ribbon eigenvalues
        ph = self.data.t_phase
        t_diag = True
        for lab, co in zip(labels, chi_coords):
            ev = ph * zeta(conformal_weight_exponent(P, *P.block_of(*lab)))
            if mat_vec(self.T, co) != combine([(co, ev)], ctx):
                t_diag = False
        literal = all(chi_solver.contains(mat_vec(self.S, co)) for co in chi_coords)
        # the S,T-generated closure of the image
        maps = [lambda co, mat=mat: mat_vec(mat, co) for mat in (self.S, self.T)]
        closure = closure_rank(chi_coords, maps)
        return {"ok": same_span and t_diag,
                "same_span": same_span, "t_diagonal": t_diag,
                "literal_st_closed": literal,
                "closure_rank": closure,
                "rank": chi_solver.rank}

    # -- factorization -------------------------------------------------------------

    def _xi_matrix(self, vstar: AlgebraElement):
        """Matrix (in the Radford basis) of beta -> (beta (x) id) of
        (vstar (x) vstar) Delta(S(vstar)), on the gamma basis, where S is
        the modular map.

        Neither factor vstar is multiplied out.  On the second leg it is
        the multiplication matrix of vstar.  On the first it turns gamma
        into the q-character gamma(vstar .), whose Radford image is
        a(vstar) phi(gamma) for the antipode a: for the cointegral L,
        sum z L' (x) L'' = sum L' (x) a^-1(z) L'', and a^-1(z) = a(z) for
        central z since a^2 is conjugation by g.  So Xi = V X0 V', with V
        and V' the multiplication matrices of vstar and a(vstar) and X0's
        columns the Radford coordinates of (gamma (x) id) Delta(S(vstar))."""
        th = self.theory
        ctx = self.params.ctx
        dsv = self.s_map(vstar).coproduct()
        cols = [th.radford_coordinates(dsv.apply_left(lambda m: f.values.get(m, ctx.zero)))
                for _, _, f in th.characters.entries]
        x0 = mat_mul_dense(columns(cols), th.central_mult_matrix(vstar.antipode()), ctx)
        return mat_mul_dense(th.central_mult_matrix(vstar), x0, ctx)

    def verify_factorization(self):
        """The stated Radford combination for S(v*), S(v) = v^-1, and the
        three-factor split into pairwise-commuting representations.  S(v)
        = v^-1 is reported apart, as 's_of_ribbon'; 'failures' and 'ok'
        cover the rest.

        S* = Xi^-1 and Sbar = Xi C with C = S^-1, so S* Sbar = C, and the
        three factors S- S+ S0 telescope to C the same way: given S^2 = id
        (checked by sl2z_relations) both products equal S for any
        invertible Xi, so they are not compared here.  Each T factor is
        S V_x C (T0 times the phase) for the multiplication matrix V_x of a
        central element, and C S = 1, so T- T+ T0 = T is v- v+ vbar = v,
        which ribbon-element proves (v = vbar v*, v* = v+ v-), and
        [T_a, T_b] = S [V_a, V_b] C vanishes on the commutative product
        table that center-structure proves; neither is compared here.  A
        wrong Xi shows in the S-S and S-T commutators."""
        P = self.params
        th = self.theory
        ctx = P.ctx
        rib = th.ribbon
        report = {}
        failures = []
        mm = lambda a, b: mat_mul_dense(a, b, ctx)
        vec = lambda z: sparse_vector(th.radford_coordinates(z))

        # S(v) = v^-1 up to the anomaly scalar lambda(v^-1): contracting the
        # identity M = (v (x) v) Delta(v^-1) with lambda(v^-1 . ) gives
        # S(v) * lambda(v^-1) = v^-1 exactly.  The scalar is reported; it
        # reduces to 1 when the central charge vanishes.
        vinv = th.central_inverse(rib.v)
        lam_vinv = th.integral.integral(vinv)
        report["anomaly_scalar"] = lam_vinv
        sv = mat_vec(self.S, vec(rib.v))
        vinv_co = vec(vinv)
        report["s_of_ribbon"] = combine([(sv, lam_vinv)], ctx) == vinv_co
        report["s_of_ribbon_literal"] = sv == vinv_co

        # S(v*) = Lambda + (1/p+p-) phi_upup(1,1) + (1/p+) phi_nesw(1,1)
        #         + (1/p-) phi_nwse(1,1), each term where its label exists
        sv = mat_vec(self.S, vec(rib.v_unipotent))
        unipotent = [({(sec.pseudo, (1, 1)): 1}, Fraction(1, sec.p))
                     for sec in P.sectors if sec.p > 1]
        if P.p_plus > 1 and P.p_minus > 1:
            unipotent.append(({("upup", (1, 1)): 1}, Fraction(1, P.pp)))
        expect = combine([(vec(th.integral.cointegral), 1),
                          (th.radford_vector(unipotent), 1)], ctx)
        if sv != expect:
            failures.append("S(v*) decomposition")

        # S = S* Sbar with S* = Xi^-1 and Sbar = Xi S^-1, and S* split
        # further through the minus-sector unipotent factor
        Xi = self._xi_matrix(rib.v_unipotent)
        Xi2 = self._xi_matrix(rib.v_factor_minus)
        S0 = mm(Xi, self.C)
        S_plus = mm(Xi2, invert_dense(Xi, ctx))
        S_minus = invert_dense(Xi2, ctx)

        V_bar = th.central_mult_matrix(rib.v_semisimple)
        V_plus = th.central_mult_matrix(rib.v_factor_plus)
        V_minus = th.central_mult_matrix(rib.v_factor_minus)
        ph = self.data.t_phase
        conj = lambda M: mm(self.S, mm(M, self.C))
        T0 = [[v * ph for v in row] for row in conj(V_bar)]
        T_plus = conj(V_plus)
        T_minus = conj(V_minus)
        factors = {"0": (S0, T0), "+": (S_plus, T_plus), "-": (S_minus, T_minus)}
        for n1, n2 in combinations(sorted(factors), 2):
            (Sa, Ta), (Sb, Tb) = factors[n1], factors[n2]
            for name, A, B in ((f"[S{n1}, S{n2}]", Sa, Sb), (f"[S{n1}, T{n2}]", Sa, Tb),
                               (f"[T{n1}, S{n2}]", Ta, Sb)):
                if mm(A, B) != mm(B, A):
                    failures.append(f"{name} != 0")
        report.update(failures=failures, ok=not failures)
        return report
