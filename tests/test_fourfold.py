"""Cubic fourfolds containing a plane: the plane discriminant against the
slices, and the line census against the fibration map."""

import dataclasses
import hashlib
import random
import sys

import numpy as np
import pytest

from cubicfano import fano, fourfold, threefold
from cubicfano.errors import NotGeneral
from cubicfano.fano import FanoSurface
from cubicfano.forms import HomogeneousForm, random_form
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
from cubicfano.linalg import rref
from cubicfano.pencil import discriminant, family_at, family_matrix, family_upper
from cubicfano.projective import LinearSubspace, common_zeros, projective_reps, span
from cubicfano.threefold import (
    certify_generality,
    compute_Z,
    cubic_through_plane,
    marked_plane,
    plane_basis,
    random_general_threefold,
)

from reference_impl import (
    det_form_matrix,
    fiber_entry_forms,
    fourfold_points_by_double_plane,
    lines_by_galkin_shinder,
    lines_on_fourfold,
    pencil_quadric,
    singular_point_scan,
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
    for lam, sextic in zip(duals, disc.on_dual_lines(duals)):
        sliced = discriminant(slice_threefold(nx.f, lam)).form
        assert sextic == sliced


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2)])
def test_the_family_at_every_point_of_the_plane_is_the_residual_quadric(p, k):
    # the n = 3 family read off the table at every (s:t:u) of P^2, against
    # the quadric built term by term from (Q0, Q1, Q2)
    K = field(p, k)
    points = list(projective_reps(K, 2))
    for seed in range(2):
        nx = random_fourfold_through_plane(K, random.Random(seed))
        matrices = family_at(K, family_matrix(K, family_upper(nx.f.coeffs, 3)), points)
        assert len(matrices) == len(points)
        for point, M in zip(points, matrices):
            assert M.tolist() == pencil_quadric(nx, *point).symmetric_matrix().tolist(), (seed, point)


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_plane_discriminant_matches_the_cofactor_oracle(p, k):
    # over F_3 and F_5 the sextic is interpolated over F_9 and F_25, and so is
    # its restriction to a dual line
    K = field(p, k)
    rng = random.Random(p * k)
    for seed in range(2):
        nx = random_fourfold_through_plane(K, random.Random(seed))
        expected = det_form_matrix(K, 3, fiber_entry_forms((nx.Q0, nx.Q1, nx.Q2)))
        disc = plane_discriminant(nx)
        assert disc.form == expected
        duals = rng.sample(list(projective_reps(K, 2)), 4)
        for lam, sextic in zip(duals, disc.on_dual_lines(duals)):
            assert sextic == substitute_by_dicts(expected, np.array(dual_line_rows(K, lam)).T)


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
    # the tangency map has a base point of degree 2, so X is singular there and
    # the node scheme of the slice over the tangent dual (1, 1, 0) is not
    # zero-dimensional; the scan still reports every transverse dual
    nx = random_fourfold_through_plane(field(3), random.Random(99))
    cert = certify_fourfold(nx)
    assert (cert.disc_smooth, cert.smooth_along_P) == (True, False)
    assert cert.witness == ("singular along P", (1, 0, 5), 2)
    reports = fourfold.fiber_scan(nx)
    assert len(reports) == 9 and all(r.general and r.equal for r in reports)
    # neither computed the node scheme over the tangent dual
    tangent = nx.slice_over((1, 1, 0))
    assert not tangent.transverse and "Z" not in vars(tangent.threefold)
    with pytest.raises(NotGeneral, match="the restricted conics share a component"):
        tangent.threefold.Z


def planted_fourfold(seed, dropped):
    """A random x0*Q0 + x1*Q1 + x2*Q2 over F_3 without the monomials e of Q_i where dropped(i, e)."""
    K, rng = field(3), random.Random(seed)
    quadrics = []
    for i in range(3):
        terms = random_form(K, 6, 2, rng).terms
        quadrics.append(HomogeneousForm(K, 6, 2, {e: c for e, c in terms.items() if not dropped(i, e)}))
    return normalize_fourfold(cubic_through_plane(K, quadrics), marked_plane(K, 6))


def test_a_singular_point_on_the_plane_is_a_base_point_of_the_tangency_map():
    # Q0, Q1 and Q2 lose their x3^2 terms: X is singular at e3, a point of P,
    # while the plane discriminant passes its scan
    nx = planted_fourfold(0, lambda i, e: e == (0, 0, 0, 2, 0, 0))
    assert (0, 0, 0, 1, 0, 0) in set(singular_point_scan(nx, 1))
    cert = certify_fourfold(nx)
    assert (cert.disc_smooth, cert.smooth_along_P, cert.is_general) == (True, False, False)
    assert cert.witness == ("singular along P", (1, 0, 0), 1)


def test_a_curve_in_a_fiber_of_the_tangency_map_is_refused():
    # Q1|_P and Q2|_P both vanish on the line {x3 = 0} of P, which then lies in
    # the fiber of g over the first dual (1, 0, 0); Q0|_P meets that line in
    # base points over F_9, so X is singular along P
    nx = planted_fourfold(0, lambda i, e: i > 0 and not any(e[:4]))
    L = field(3, 2)
    assert next(common_zeros([Q.restrict(plane_basis(6)).embedded(L) for Q in (nx.Q0, nx.Q1, nx.Q2)]), None)
    cert = certify_fourfold(nx)
    assert (cert.disc_smooth, cert.smooth_along_P) == (True, False)
    assert cert.witness == ("positive-dimensional fiber of g", (1, 0, 0), "the restricted conics share a component")


def test_a_singular_point_of_degree_three_on_the_plane_is_refused():
    # the sampler once returned this eleventh draw: every slice's Z is a
    # rational point plus the orbit of a base point of degree 3, so the
    # slicing law held and X has no singular F_3-point
    rng = random.Random(23)
    for _ in range(11):
        nx = random_fourfold_through_plane(field(3), rng)
    assert next(singular_point_scan(nx, 1), None) is None
    cert = certify_fourfold(nx)
    assert (cert.disc_smooth, cert.smooth_along_P) == (True, False)
    kind, coords, degree = cert.witness
    assert (kind, degree) == ("singular along P", 3)
    L = field(3, 3)
    point = np.array([(0, 0, 0) + coords])
    assert not any(Q.embedded(L).evaluate_batch(point)[0] for Q in (nx.Q0, nx.Q1, nx.Q2))
    assert random_general_fourfold(field(3), random.Random(23)).f != nx.f


def test_a_singular_point_off_the_plane_is_refused_by_the_discriminant_scan():
    # no monomial x0^3 or x0^2*x_j: X is singular at e0, which lies over the
    # point (1 : 0 : 0) of the plane discriminant
    nx = planted_fourfold(0, lambda i, e: (i == 0 and e[0] > 0) or e == (2, 0, 0, 0, 0, 0))
    assert (1, 0, 0, 0, 0, 0) in set(singular_point_scan(nx, 1))
    cert = certify_fourfold(nx)
    assert (cert.disc_smooth, cert.smooth_along_P) == (False, None)
    assert cert.witness == ("singular discriminant point", (1, 0, 0))


@pytest.mark.parametrize("p, draws", [(3, 60), (5, 20), (7, 8)])
def test_singular_points_lie_on_the_plane_or_over_a_singular_point_of_the_discriminant(p, draws):
    # the two cases of the certificate's proof, against the scan of P^5 that it
    # does not make
    rng = random.Random(11)
    off_plane = 0
    for _ in range(draws):
        nx = random_fourfold_through_plane(field(p), rng)
        D = nx.discriminant.form
        singular_D = [D] + [D.derivative(i) for i in range(3)]
        for x in singular_point_scan(nx, 1):
            if any(x[:3]):
                off_plane += 1
                assert not any(F.evaluate(x[:3]) for F in singular_D)
    assert off_plane


@pytest.mark.parametrize("seed", range(4))
def test_the_certificate_reads_one_node_scheme_and_scans_no_p5(monkeypatch, seed):
    # a fresh copy keeps no slice, so the certificate computes what it reads
    nx = dataclasses.replace(seeded_fourfold(seed))
    node_schemes, scanned = [], []

    def counted_Z(nf):
        node_schemes.append(nf)
        return compute_Z(nf)

    def counted_zeros(forms):
        scanned.extend(f.nvars for f in forms)
        return common_zeros(forms)

    monkeypatch.setattr(threefold, "compute_Z", counted_Z)
    monkeypatch.setattr(fourfold, "common_zeros", counted_zeros)
    assert certify_fourfold(nx).is_general
    assert len(node_schemes) == 1
    assert scanned and set(scanned) == {3}


def test_a_warm_sample_certificate_and_scan_reduce_no_matrix(monkeypatch):
    # the marked plane is a flat built once per field, and nothing else on
    # this path row-reduces
    def run():
        random_general_threefold(field(3), random.Random(0))
        nx = seeded_fourfold(0)
        certify_fourfold(dataclasses.replace(nx))
        fourfold.fiber_scan(nx)

    run()
    reductions = []

    def counted_rref(K, mat):
        reductions.append(np.shape(mat))
        return rref(K, mat)

    for module in list(sys.modules.values()):
        if module.__name__.startswith("cubicfano") and getattr(module, "rref", None) is rref:
            monkeypatch.setattr(module, "rref", counted_rref)
    run()
    assert reductions == []


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
    # a transverse slice of a certified fourfold is a general threefold, with
    # no certificate made by the walk
    slices = [nx.slice_over(lam) for lam in projective_reps(nx.K, 2)]
    transverse = [sl for sl in slices if sl.transverse]
    assert len(transverse) == len(reports)
    assert all(certify_generality(sl.threefold).is_general for sl in transverse)


@pytest.mark.parametrize("p, seed", [(3, 0), (3, 1), (3, 2), (3, 3), (5, 0), (5, 1)])
def test_surfaces_ruled_together_equal_surfaces_built_alone(p, seed):
    # fiber_scan builds the surfaces of all general slices with one ruling
    # pass; each equals the surface of its slice threefold cut and built by
    # itself, which rules its own pencil
    nx = random_general_fourfold(field(p), random.Random(seed))
    reports = fourfold.fiber_scan(nx)
    general = [nx.slice_over(r.dual) for r in reports if r.general]
    assert general and len(general) == len(reports)
    for sl in general:
        together, alone = sl.threefold.surfaces[1], FanoSurface(slice_threefold(nx.f, sl.dual), 1)
        assert together.rulings is not alone.rulings
        assert [(cl.line.rows, cl.tag, cl.meets_at, cl.fiber, cl.ruling_index) for cl in together.lines] == [
            (cl.line.rows, cl.tag, cl.meets_at, cl.fiber, cl.ruling_index) for cl in alone.lines
        ]
        assert together.rulings.keys() == alone.rulings.keys()
        for key, classes in together.rulings.items():
            assert [(c.key, c.is_cone, [ln.rows for ln in c.lines]) for c in classes] == [
                (c.key, c.is_cone, [ln.rows for ln in c.lines]) for c in alone.rulings[key]
            ]
        assert together.torsor_set == alone.torsor_set


@pytest.mark.parametrize("seed", range(4))
def test_fiber_scan_rules_the_fibers_of_every_slice_in_one_pass(monkeypatch, seed):
    nx = seeded_fourfold(seed)
    passes, evaluations = [], []
    rule, evaluate = fano.rulings_of_fibers, fano.stacked_pencil_fibers

    def counted_rulings(fibers):
        fibers = list(fibers)
        passes.append(len(fibers))
        return rule(fibers)

    def counted_fibers(nfs, L, params):
        nfs = list(nfs)
        evaluations.append(len(nfs))
        return evaluate(nfs, L, params)

    monkeypatch.setattr(fano, "rulings_of_fibers", counted_rulings)
    monkeypatch.setattr(fano, "stacked_pencil_fibers", counted_fibers)
    reports = fourfold.fiber_scan(nx)
    assert evaluations == [len(reports)]
    assert passes == [4 * len(reports)]
    # the surfaces are kept: a second scan builds none
    assert [r.to_report() for r in fourfold.fiber_scan(nx)] == [r.to_report() for r in reports]
    assert len(passes) == 1


def test_a_fourfold_with_no_general_slice_scans_to_nothing(monkeypatch):
    # a plane discriminant that vanishes identically leaves no transverse dual
    nx = planted_fourfold(0, lambda i, e: any(e[:3]))
    with pytest.raises(NotGeneral, match="vanishes identically"):
        nx.discriminant
    assert all(sl.sextic is None and not sl.transverse for sl in nx.slices.values())
    assert fourfold.fiber_scan(nx) == []


@pytest.mark.parametrize("p, draws", [(3, 40), (5, 8)])
def test_the_certificate_builds_at_most_one_slice_threefold(monkeypatch, p, draws):
    built = []

    def counted_slice(f, lam):
        built.append(lam)
        return slice_threefold(f, lam)

    monkeypatch.setattr(fourfold, "slice_threefold", counted_slice)
    rng = random.Random(5)
    for _ in range(draws):
        nx = random_fourfold_through_plane(field(p), rng)
        built.clear()
        certify_fourfold(nx)
        assert len(built) <= 1
        assert built == [lam for lam, sl in nx.slices.items() if "threefold" in vars(sl)]
    nx = dataclasses.replace(seeded_fourfold(0))
    built.clear()
    assert certify_fourfold(nx).is_general
    assert built == [next(projective_reps(nx.K, 2))]


@pytest.mark.parametrize("p, seeds", [(3, range(4)), (5, range(2)), (7, range(1)), (9, range(1))])
def test_the_slice_sextics_are_the_discriminant_restricted_to_each_dual_line(p, seeds):
    # the stacked restriction of D to every dual line, against one
    # restriction per line; a slice keeps the fourfold's cubic, not the fourfold
    K = field(3, 2) if p == 9 else field(p)
    for seed in seeds:
        nx = random_fourfold_through_plane(K, random.Random(seed))
        D = nx.discriminant.form
        assert list(nx.slices) == list(projective_reps(K, 2))
        for lam, sl in nx.slices.items():
            expected = D.restrict(dual_line_rows(K, lam))
            assert sl.sextic == (None if expected.is_zero else expected)
            assert sl.transverse == (not expected.is_zero and expected.is_squarefree())
            assert sl.cubic is nx.f
        assert not any(isinstance(v, fourfold.NormalizedFourfold) for sl in nx.slices.values() for v in vars(sl).values())
