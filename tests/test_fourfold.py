"""Cubic fourfolds containing a plane: the plane discriminant against the
slices, and the line census against the fibration map."""

import random

import pytest

from cubicfano import fano, fourfold, threefold
from cubicfano.fourfold import (
    Indeterminate,
    lines_on_fourfold,
    pi_of_line,
    plane_discriminant,
    random_general_fourfold,
    slice_threefold,
)
from cubicfano.gf import field
from cubicfano.pencil import discriminant
from cubicfano.projective import projective_reps
from cubicfano.threefold import compute_Z


def seeded_fourfold(seed):
    return random_general_fourfold(field(3), random.Random(seed))


@pytest.mark.parametrize("seed", [0, 1])
def test_plane_discriminant_restricts_to_every_slice_discriminant(seed):
    nx = seeded_fourfold(seed)
    disc = plane_discriminant(nx)
    duals = list(projective_reps(nx.K, 2))
    assert len(duals) == 13
    for lam in duals:
        sliced = discriminant(slice_threefold(nx, lam).threefold).form
        assert disc.restricted_to_dual(lam).coeffs == sliced.coeffs


@pytest.mark.parametrize("seed, n_lines", [(0, 181), (1, 150)])
def test_lines_on_fourfold_and_the_indeterminacy_of_the_fibration(seed, n_lines):
    nx = seeded_fourfold(seed)
    lines = lines_on_fourfold(nx)
    assert len(lines) == n_lines
    images = [pi_of_line(nx, line) for line in lines]
    # exactly the 13 lines of P are points of indeterminacy
    indeterminate = [im for im in images if isinstance(im, Indeterminate)]
    assert len(indeterminate) == 13
    assert all(nx.plane.contains_line(line) == isinstance(im, Indeterminate) for line, im in zip(lines, images))
    duals = set(projective_reps(nx.K, 2))
    assert all(im in duals for im in images if not isinstance(im, Indeterminate))


# (dual point, N1, N2, h) of every fiber that fiber_scan reports; each is a
# transverse general fiber with #T(F_3) = h
FIBER_SCANS = {
    0: [((0, 0, 1), 4, 18, 14), ((0, 1, 0), 4, 14, 12), ((0, 1, 1), 6, 10, 20), ((1, 0, 2), 2, 12, 5),
        ((1, 1, 0), 6, 18, 24), ((1, 1, 2), 3, 11, 7), ((1, 2, 0), 6, 12, 21), ((1, 2, 1), 5, 13, 16)],
    1: [((0, 0, 1), 3, 9, 6), ((0, 1, 1), 3, 7, 5), ((1, 0, 0), 2, 18, 8), ((1, 1, 0), 1, 13, 4),
        ((1, 1, 1), 5, 19, 19), ((1, 1, 2), 2, 16, 7), ((1, 2, 0), 4, 20, 15), ((1, 2, 1), 3, 11, 7),
        ((1, 2, 2), 7, 15, 29)],
}


@pytest.mark.parametrize("seed", sorted(FIBER_SCANS))
def test_fiber_scan_reports_and_computes_each_slice_node_scheme_once(monkeypatch, seed):
    nx = seeded_fourfold(seed)
    calls = []

    def counted(nf):
        calls.append(nf)
        return compute_Z(nf)

    for module in (threefold, fourfold, fano):
        monkeypatch.setattr(module, "compute_Z", counted)
    n_duals = len(list(projective_reps(nx.K, 2)))
    assert fourfold.certify_fourfold(nx).is_general
    assert len(calls) <= n_duals
    calls.clear()
    reports = fourfold.fiber_scan(nx)
    assert len(calls) <= len(reports)
    expected = [
        {"dual": list(dual), "transverse": True, "general": True, "N1": n1, "N2": n2, "h": h,
         "torsor_points": h, "equal": True, "note": ""}
        for dual, n1, n2, h in FIBER_SCANS[seed]
    ]
    assert [r.to_report() for r in reports] == expected
    assert all(r.equal is True for r in reports if r.transverse and r.general)
