"""The named central families as integer maps over the gamma basis.

Each family is stated once, in qpm.duality, as {(kind, label): int}.  The
oracles here are the element-by-element builders that the maps replaced:
sums of Radford images, and Drinfeld-side lists of solved Drinfeld images
with their coefficients written out again."""

import pytest

from qpm.duality import (kappa, psi_hat, rho_diag, varphi_arrow, varphi_cross,
                         varphi_diag, varphi_hat)
from qpm.linalg import combine, mat_vec, sparse_vector

PAIRS = ["T12", "T23", "T32", "T14"]


# -- the chained builders, one PBW sum per family -------------------------------

def _chained_kappa(th, r, s):
    members = th.params.block_members(r, s).values()
    first, *rest = (th.radford_image("qtr", lab) for lab in members)
    return sum(rest, first)


def _chained_varphi_hat(th, r, s):
    P = th.params
    out = P.zero
    for alpha, rr, ss in P.linked(1, r, s).values():
        term = (th.radford_image("qtr", (alpha, rr, ss))
                * ((P.p_plus - rr) * (P.p_minus - ss)))
        out = out + term if alpha > 0 else out - term
    return out


def _chained_rho_diag(th, sec, r, s):
    a, _ = sec.lab(r, s)
    keep, reflect = [], []
    for arrow, lab in th.params.linked(1, r, s).items():
        side = reflect if arrow in (sec.reflected, "down") else keep
        side.append(th.radford_image("qtr", lab))
    return sum(keep[1:], keep[0]) * (sec.p - a) - sum(reflect[1:], reflect[0]) * a


def _chained_varphi_diag(th, sec, r, s):
    P = th.params
    _, b = sec.lab(r, s)
    if b == sec.p_other:
        return th.radford_image(sec.pseudo, (r, s)) * ((-1) ** b)
    return (th.radford_image(sec.pseudo, (r, s)) * ((-1) ** b)
            - th.radford_image(sec.pseudo, (P.p_plus - r, P.p_minus - s))
            * ((-1) ** (sec.p_other + b)))


def _chained_varphi_arrow(th, sec, r, s):
    P = th.params
    _, b = sec.lab(r, s)
    return (th.radford_image(sec.pseudo, (r, s)) * ((-1) ** b * (sec.p_other - b))
            + th.radford_image(sec.pseudo, (P.p_plus - r, P.p_minus - s))
            * ((-1) ** (sec.p_other + b) * b))


def _families(P):
    """(name, family map, chained builder) for every family and label."""
    for lab in P.set_I():
        yield "kappa", kappa(P, *lab), lambda th, lab=lab: _chained_kappa(th, *lab)
    for lab in P.set_I1():
        yield "varphi_hat", varphi_hat(P, *lab), lambda th, lab=lab: _chained_varphi_hat(th, *lab)
        yield "psi_hat", psi_hat(P, *lab), lambda th, lab=lab: (
            _chained_varphi_arrow(th, P.plus, *lab) + _chained_varphi_arrow(th, P.minus, *lab))
        yield "varphi_cross", varphi_cross(P, *lab), lambda th, lab=lab: (
            _chained_varphi_arrow(th, P.plus, *lab) - _chained_varphi_arrow(th, P.minus, *lab))
        for sec in P.sectors:
            yield "varphi_arrow", varphi_arrow(P, sec, *lab), (
                lambda th, sec=sec, lab=lab: _chained_varphi_arrow(th, sec, *lab))
    for sec in P.sectors:
        for lab in P.set_I_diag(sec):
            yield "rho_diag", rho_diag(P, sec, *lab), (
                lambda th, sec=sec, lab=lab: _chained_rho_diag(th, sec, *lab))
            yield "varphi_diag", varphi_diag(P, sec, *lab), (
                lambda th, sec=sec, lab=lab: _chained_varphi_diag(th, sec, *lab))


@pytest.mark.parametrize("theory", PAIRS)
def test_family_elements_equal_the_chained_builders(request, theory):
    th = request.getfixturevalue(theory)
    P = th.params
    index = th.characters.index
    seen = set()
    for name, family, chained in _families(P):
        seen.add(name)
        assert all(key in index and isinstance(n, int) and n for key, n in family.items())
        element = P.linear_combination(th.radford_terms(family))
        assert element == chained(th), (name, family)
        # the map is the family's Radford coordinates
        assert th.radford_vector([(family, 1)]) == {
            i: c for i, c in enumerate(th.central_coordinates(element)) if c}
    assert "kappa" in seen and "rho_diag" in seen


# -- the Drinfeld-side lists of the T-transformation check ------------------------

def _restated_lists(th, ma):
    """The Drinfeld-side vectors of the T-transformation check, each
    Drinfeld image solved for and every coefficient written out again:
    {(name, label): vector}."""
    P = th.params

    def lin(*pairs):
        return combine(pairs, P.ctx)

    def d(kind, label):
        return sparse_vector(th.radford_coordinates(th.drinfeld_image(kind, label)))

    out = {}
    for (r, s) in P.set_I1():
        rr, ss = P.p_plus - r, P.p_minus - s
        out["chi", (r, s)] = lin((d("nesw", (r, s)), (-1) ** s * (P.p_minus - s)),
                                 (d("nesw", (rr, ss)), (-1) ** (P.p_minus + s) * s),
                                 (d("nwse", (r, s)), -((-1) ** r * (P.p_plus - r))),
                                 (d("nwse", (rr, ss)), -((-1) ** (P.p_plus + r) * r)))
        out["phi", (r, s)] = lin((d("upup", (r, s)), (-1) ** (r + s)))
    for sec in P.sectors:
        p, po = sec.p, sec.p_other
        for (r, s) in P.set_I1():
            a, b = sec.lab(r, s)
            out["phi", sec.sign, (r, s)] = lin(
                (d(sec.pseudo, (r, s)), -((-1) ** b)),
                (d(sec.pseudo, (P.p_plus - r, P.p_minus - s)), (-1) ** (po + b)))
            out["rho", sec.sign, (r, s)] = lin(*(
                (d("qtr", lab), a if arrow in (sec.reflected, "down") else a - p)
                for arrow, lab in P.linked(1, r, s).items()))
        for a in range(1, p):
            top = sec.lab(p - a, po)
            out["phi bdry", sec.sign, top] = lin((d(sec.pseudo, top), (-1) ** po))
            out["rho bdry", sec.sign, top] = lin(
                (d("qtr", (1, *top)), a),
                (d("qtr", P.linked(1, *top)[sec.reflected]), a - p))
    return out


def _c_times_families(th, ma):
    """The same vectors as plus or minus C times a family map."""
    P = th.params

    def drinfeld(family, c=1):
        return mat_vec(ma.C, th.radford_vector([(family, c)]))

    out = {}
    for (r, s) in P.set_I1():
        out["chi", (r, s)] = drinfeld(varphi_cross(P, r, s))
        out["phi", (r, s)] = drinfeld({("upup", (r, s)): 1}, (-1) ** (r + s))
    for sec in P.sectors:
        for (r, s) in P.set_I1():
            out["phi", sec.sign, (r, s)] = drinfeld(varphi_diag(P, sec, r, s), -1)
            out["rho", sec.sign, (r, s)] = drinfeld(rho_diag(P, sec, r, s), -1)
        for a in range(1, sec.p):
            top = sec.lab(sec.p - a, sec.p_other)
            out["phi bdry", sec.sign, top] = drinfeld(varphi_diag(P, sec, *top))
            out["rho bdry", sec.sign, top] = drinfeld(rho_diag(P, sec, *top))
    return out


@pytest.mark.parametrize("theory", ["T23", "T32", "T14"])
def test_drinfeld_side_vectors_are_c_times_the_families(request, theory):
    th = request.getfixturevalue(theory)
    ma = th.modular_action
    restated = _restated_lists(th, ma)
    assert restated and all(restated.values())
    assert _c_times_families(th, ma) == restated
