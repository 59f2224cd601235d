"""Cubic fourfolds containing a plane: the plane discriminant against the
slices, and the line census against the fibration map."""

import dataclasses
import hashlib
import random

import numpy as np
import pytest

from cubicfano import fourfold, threefold
from cubicfano.errors import NotGeneral
from cubicfano.forms import HomogeneousForm
from cubicfano.fourfold import (
    Indeterminate,
    certify_fourfold,
    dual_line_rows,
    normalize_fourfold,
    pi_of_line,
    plane_discriminant,
    random_fourfold_through_plane,
    random_general_fourfold,
    slice_threefold,
    tangency_map,
)
from cubicfano.gf import field
from cubicfano.pencil import discriminant, symbolic_fiber_entries
from cubicfano.projective import LinearSubspace, common_zeros, projective_reps, span
from cubicfano.threefold import certify_generality, compute_Z, plane_basis

from reference_impl import (
    det_form_matrix,
    fourfold_points_by_double_plane,
    lines_by_galkin_shinder,
    lines_on_fourfold,
    substitute_by_dicts,
)


def seeded_fourfold(seed):
    return random_general_fourfold(field(3), random.Random(seed))


@pytest.mark.parametrize("seed, n_lines", [(0, 181), (1, 150), (2, 208), (3, 127)])
def test_line_count_matches_the_galkin_shinder_closed_form(seed, n_lines):
    # the sieved lines against the count read off #X over F_3 and F_9, which
    # come from the double plane of the plane discriminant; the relation of
    # a threefold (P^2 and P^3 in place of P^3 and P^4) misses
    nx = seeded_fourfold(seed)
    assert fourfold_points_by_double_plane(nx, 1) == sum(1 for _ in common_zeros([nx.f]))
    assert len(lines_on_fourfold(nx)) == n_lines
    assert lines_by_galkin_shinder(nx) == n_lines
    assert lines_by_galkin_shinder(nx, 3) != n_lines


@pytest.mark.parametrize("seed", [0, 1])
def test_plane_discriminant_restricts_to_every_slice_discriminant(seed):
    nx = seeded_fourfold(seed)
    disc = plane_discriminant(nx)
    duals = list(projective_reps(nx.K, 2))
    assert len(duals) == 13
    for lam in duals:
        sliced = discriminant(slice_threefold(nx, lam)).form
        assert disc.restricted_to_dual(lam) == sliced


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_plane_discriminant_matches_the_cofactor_oracle(p, k):
    # over F_3 and F_5 the sextic is interpolated over F_9 and F_25, and so is
    # its restriction to a dual line
    K = field(p, k)
    rng = random.Random(p * k)
    for seed in range(2):
        nx = random_fourfold_through_plane(K, random.Random(seed))
        expected = det_form_matrix(K, 3, symbolic_fiber_entries((nx.Q0, nx.Q1, nx.Q2)))
        disc = plane_discriminant(nx)
        assert disc.form == expected
        for lam in rng.sample(list(projective_reps(K, 2)), 4):
            sliced = substitute_by_dicts(expected, np.array(dual_line_rows(K, lam)).T)
            assert disc.restricted_to_dual(lam) == sliced


@pytest.mark.parametrize("seed, n_lines", [(0, 181), (1, 150)])
def test_lines_on_fourfold_and_the_indeterminacy_of_the_fibration(seed, n_lines):
    nx = seeded_fourfold(seed)
    lines = lines_on_fourfold(nx)
    assert len(lines) == n_lines
    images = [pi_of_line(nx, line) for line in lines]
    # exactly the 13 lines of P are points of indeterminacy
    indeterminate = [im for im in images if isinstance(im, Indeterminate)]
    assert len(indeterminate) == 13
    plane = nx.plane
    in_plane = [span(nx.K, plane, line).rows == plane.rows for line in lines]
    assert in_plane == [isinstance(im, Indeterminate) for im in images]
    duals = set(projective_reps(nx.K, 2))
    assert all(im in duals for im in images if not isinstance(im, Indeterminate))


def test_tangency_map_refuses_a_singular_point_of_the_plane():
    # Q0, Q1 and Q2 all vanish at e3, so X is singular there and no hyperplane is tangent
    K = field(3)
    cubic = HomogeneousForm(K, 6, 3, {(1, 0, 0, 0, 2, 0): 1, (0, 1, 0, 0, 0, 2): 1, (0, 0, 1, 1, 1, 0): 1})
    nx = normalize_fourfold(cubic, LinearSubspace(K, plane_basis(6)))
    assert tangency_map(nx, (0, 0, 0, 0, 1, 0)) == (1, 0, 0)
    with pytest.raises(NotGeneral, match="the fourfold is singular at"):
        tangency_map(nx, (0, 0, 0, 1, 0, 0))


# the sampled cubic's terms at the census seeds 0-3 and its warm-up seed 4,
# recorded before the sampler certified slices; these seeds were accepted then
# and still are, so the benchmark's fourfolds are unchanged
SAMPLED_CUBICS = {0: "91e6af9b4bd81649", 1: "ee209a56dc4d3b28", 2: "5e1ebd1834171ad8",
                  3: "81a021b1c7a3a3f4", 4: "b8fbafc11fbe6dcf"}


@pytest.mark.parametrize("seed", range(30))
def test_sampled_fourfolds_pass_the_certificate(seed):
    # the sampler once scanned the plane discriminant to depth 1 only, and at
    # seeds 14, 16, 18 and 21 returned a fourfold whose discriminant is
    # singular over F_9; the certificate runs on a copy that keeps no slices
    nx = seeded_fourfold(seed)
    assert certify_fourfold(dataclasses.replace(nx)).is_general
    if seed in SAMPLED_CUBICS:
        digest = hashlib.sha256(repr(sorted(nx.f.terms.items())).encode()).hexdigest()[:16]
        assert digest == SAMPLED_CUBICS[seed]


def test_a_degenerate_slice_fails_the_certificate_and_the_scan_goes_on():
    # the node scheme of the slice over a tangent dual is not zero-dimensional;
    # the certificate stops there, and the scan still reports every transverse dual
    nx = random_fourfold_through_plane(field(3), random.Random(99))
    cert = certify_fourfold(nx)
    assert (cert.smooth_off_scan, cert.disc_smooth, cert.slices_general) == (True, True, False)
    assert cert.witness == ("degenerate slice", (1, 1, 0), "the restricted conics share a component")
    assert not nx.slice_over((1, 1, 0)).transverse
    reports = fourfold.fiber_scan(nx)
    assert len(reports) == 9 and all(r.general and r.equal for r in reports)


# (dual point, N1, N2, h) of every fiber that fiber_scan reports; each is a
# transverse general fiber with #T(F_3) = h.  Seed 3 has eleven transverse
# duals; (0, 0, 1) is the one a cap of ten used to leave out.
FIBER_SCANS = {
    0: [((0, 0, 1), 4, 18, 14), ((0, 1, 0), 4, 14, 12), ((0, 1, 1), 6, 10, 20), ((1, 0, 2), 2, 12, 5),
        ((1, 1, 0), 6, 18, 24), ((1, 1, 2), 3, 11, 7), ((1, 2, 0), 6, 12, 21), ((1, 2, 1), 5, 13, 16)],
    1: [((0, 0, 1), 3, 9, 6), ((0, 1, 1), 3, 7, 5), ((1, 0, 0), 2, 18, 8), ((1, 1, 0), 1, 13, 4),
        ((1, 1, 1), 5, 19, 19), ((1, 1, 2), 2, 16, 7), ((1, 2, 0), 4, 20, 15), ((1, 2, 1), 3, 11, 7),
        ((1, 2, 2), 7, 15, 29)],
    2: [((0, 0, 1), 5, 11, 15), ((0, 1, 2), 4, 10, 10), ((1, 0, 0), 6, 12, 21), ((1, 0, 1), 6, 14, 22),
        ((1, 0, 2), 4, 16, 13), ((1, 1, 1), 6, 18, 24), ((1, 1, 2), 1, 11, 3), ((1, 2, 0), 7, 15, 29),
        ((1, 2, 1), 4, 16, 13), ((1, 2, 2), 5, 7, 13)],
    3: [((0, 0, 1), 5, 13, 16), ((0, 1, 0), 3, 7, 5), ((0, 1, 1), 0, 10, 2), ((0, 1, 2), 2, 12, 5),
        ((1, 0, 0), 2, 14, 6), ((1, 0, 1), 6, 12, 21), ((1, 1, 0), 4, 16, 13), ((1, 1, 1), 4, 20, 15),
        ((1, 1, 2), 3, 15, 9), ((1, 2, 0), 1, 11, 3), ((1, 2, 2), 4, 6, 8)],
}


@pytest.mark.parametrize("seed", sorted(FIBER_SCANS))
def test_fiber_scan_reports_and_computes_each_slice_node_scheme_once(monkeypatch, seed):
    node_schemes = []

    def counted_Z(nf):
        node_schemes.append(nf)
        return compute_Z(nf)

    monkeypatch.setattr(threefold, "compute_Z", counted_Z)
    # sample, certify and scan share one walk over the dual plane
    nx = seeded_fourfold(seed)
    assert fourfold.certify_fourfold(nx).is_general
    reports = fourfold.fiber_scan(nx)
    assert len(node_schemes) <= len(list(projective_reps(nx.K, 2)))
    expected = [
        {"dual": list(dual), "transverse": True, "general": True, "N1": n1, "N2": n2, "h": h,
         "torsor_points": h, "equal": True, "note": ""}
        for dual, n1, n2, h in FIBER_SCANS[seed]
    ]
    assert [r.to_report() for r in reports] == expected
    # a transverse slice without a failure is a general threefold, with no
    # certificate made by the walk
    slices = [nx.slice_over(lam) for lam in projective_reps(nx.K, 2)]
    clean = [sl for sl in slices if sl.transverse and sl.failure is None]
    assert len(clean) == len(reports)
    assert all(certify_generality(sl.threefold).is_general for sl in clean)
