"""Normal form, the length-4 scheme Z, and the generality certificate."""

import dataclasses
import functools
import hashlib
import importlib
import json
import os
import pkgutil
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cubicfano
from cubicfano import gf, pencil, threefold
from cubicfano.errors import InternalInconsistency, NotContained, NotGeneral, NotSupportedError
from cubicfano.fano import FanoSurface
from cubicfano.forms import HomogeneousForm, random_form
from cubicfano.gf import field
from cubicfano.linalg import inverse_matrix, kernel_basis, mat_vec, rank
from cubicfano.projective import (
    LinearSubspace,
    all_points_array,
    common_zeros,
    enumerate_lines,
    normalize_point,
    span,
)
from cubicfano.rationality import decide_over_finite_field
from cubicfano.threefold import (
    ZPoint,
    certify_generality,
    compute_Z,
    cubic_through_plane,
    marked_plane,
    normalize,
    plane_basis,
    random_cubic_through_plane,
    random_general_threefold,
    random_threefold_through_plane,
    split_off_plane,
)
from cubicfano.torsor import torsor_group, verify_group_axioms
import reference_impl
from reference_impl import (
    Z_multiplicities_by_jacobian,
    binary_roots_by_scan,
    extra_plane_candidates,
    jacobian_has_rank_two,
    singular_points_off_plane,
    times,
)


def standard_plane(K):
    rows = np.zeros((3, 5), dtype=np.int64)
    rows[0, 2] = rows[1, 3] = rows[2, 4] = 1
    return LinearSubspace(K, rows)


def make_nf(K, q0_terms, q1_terms):
    """Threefold x0*Q0 + x1*Q1 from plane-coordinate conic term dicts.

    Exponent keys are 3-tuples in (x2, x3, x4); the quadrics contain no
    x0/x1 monomials, so the restricted conics are exactly these dicts.
    """
    terms = {}
    for (a, b, c), v in q0_terms.items():
        terms[(1, 0, a, b, c)] = v % K.q
    for (a, b, c), v in q1_terms.items():
        key = (0, 1, a, b, c)
        acc = K.add_(terms.get(key, 0), v % K.q)
        if acc:
            terms[key] = acc
        else:
            terms.pop(key, None)
    cubic = HomogeneousForm(K, 5, 3, {e: v for e, v in terms.items() if v})
    return normalize(cubic, standard_plane(K))


# ---------------------------------------------------------------------------
# normalize
# ---------------------------------------------------------------------------


def test_normalize_split_monomials():
    # f = x0*x2^2 + x1*x3^2 with the plane already standard
    K = field(5)
    f = HomogeneousForm(K, 5, 3, {(1, 0, 2, 0, 0): 1, (0, 1, 0, 2, 0): 1})
    nf = normalize(f, standard_plane(K))
    assert nf.Q0 == HomogeneousForm(K, 5, 2, {(0, 0, 2, 0, 0): 1})
    assert nf.Q1 == HomogeneousForm(K, 5, 2, {(0, 0, 0, 2, 0): 1})
    assert nf.f == f


def test_normalize_puts_pure_x0_terms_in_Q0():
    # f = x0^2 x1 -> Q0 = x0 x1, Q1 = 0
    K = field(3)
    f = HomogeneousForm(K, 5, 3, {(2, 1, 0, 0, 0): 1})
    nf = normalize(f, standard_plane(K))
    assert nf.Q0 == HomogeneousForm(K, 5, 2, {(1, 1, 0, 0, 0): 1})
    assert nf.Q1.is_zero


def test_normalize_rejects_noncontaining_plane():
    K = field(7)
    f = HomogeneousForm(K, 5, 3, {(0, 0, 3, 0, 0): 1})
    with pytest.raises(NotContained):
        normalize(f, standard_plane(K))


def test_a_cubic_off_the_marked_plane_is_refused_without_a_restriction(monkeypatch):
    # on the plane of the last three coordinates the cubic's monomials in
    # those alone decide containment; a moved plane still restricts the cubic
    K = field(7)
    f = HomogeneousForm(K, 5, 3, {(0, 0, 3, 0, 0): 1, (1, 0, 2, 0, 0): 1})
    substituted = []
    original = HomogeneousForm.substitute

    def counted(form, M):
        substituted.append(np.shape(M))
        return original(form, M)

    monkeypatch.setattr(HomogeneousForm, "substitute", counted)
    for plane in (marked_plane(K, 5), standard_plane(K)):
        with pytest.raises(NotContained, match="^the cubic does not vanish on the plane$"):
            normalize(f, plane)
    nf = random_threefold_through_plane(K, random.Random(3))
    assert substituted == []
    rows = np.zeros((3, 5), dtype=np.int64)
    rows[0, 1] = rows[1, 2] = rows[2, 4] = 1
    with pytest.raises(NotContained, match="^the cubic does not vanish on the plane$"):
        normalize(nf.f, LinearSubspace(K, rows))
    assert substituted == [(5, 3)]


@pytest.mark.parametrize("p, k", [(3, 1), (3, 2), (11, 1)])
def test_restricted_conics_are_the_last_six_coefficients(p, k):
    # read off the layout, against the interpolated restriction to the plane
    K = field(p, k)
    rng = random.Random(p * k)
    for _ in range(6):
        quadrics = [random_form(K, 5, 2, rng) for _ in range(2)]
        nf = normalize(cubic_through_plane(K, quadrics), marked_plane(K, 5))
        assert nf.restricted_conics == tuple(Q.restrict(plane_basis(5)) for Q in (nf.Q0, nf.Q1))
        for Q in quadrics:
            assert HomogeneousForm.from_coeffs(K, 3, 2, Q.coeffs[-6:]) == Q.restrict(plane_basis(5))


def test_normalize_moves_general_plane():
    # plane {x0 = x3 = 0}: basis e1, e2, e4
    K = field(5)
    rows = np.zeros((3, 5), dtype=np.int64)
    rows[0, 1] = rows[1, 2] = rows[2, 4] = 1
    plane = LinearSubspace(K, rows)
    rng = random.Random(11)
    g0, g1 = random_form(K, 5, 2, rng), random_form(K, 5, 2, rng)
    x0 = HomogeneousForm.monomial(K, 5, (1, 0, 0, 0, 0))
    x3 = HomogeneousForm.monomial(K, 5, (0, 0, 0, 1, 0))
    cubic = times(x0, g0).plus(times(x3, g1))
    nf = normalize(cubic, plane)
    # the transform carries the normalized cubic back to the original one
    M = np.array(nf.transform, dtype=np.int64)
    for _ in range(30):
        y = [K.random_element(rng) for _ in range(5)]
        x = mat_vec(K, M, np.array(y, dtype=np.int64))
        assert cubic.evaluate(x) == nf.f.evaluate(y)
    # the standard plane of the normalized model maps onto the input plane
    for ypt in ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 2, 3)):
        x = mat_vec(K, M, np.array(ypt, dtype=np.int64))
        assert span(K, plane, x).rows == plane.rows


def test_normalize_reconstruction_random():
    K = field(7)
    rng = random.Random(23)
    for _ in range(10):
        nf = random_threefold_through_plane(K, rng)
        x0Q0 = times(HomogeneousForm.monomial(K, 5, (1, 0, 0, 0, 0)), nf.Q0)
        x1Q1 = times(HomogeneousForm.monomial(K, 5, (0, 1, 0, 0, 0)), nf.Q1)
        assert x0Q0.plus(x1Q1) == nf.f


@pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (3, 2)])
@pytest.mark.parametrize("nvars", [4, 5, 6])
def test_cubic_through_plane_places_what_the_products_give(p, k, nvars):
    # x0*Q0 + ... + x_{n-1}*Q_{n-1} by placed coefficients against the
    # interpolated products, on random quadrics and on the ones a split returns
    K = field(p, k)
    rng = random.Random(nvars)
    for _ in range(4):
        quadrics = [random_form(K, nvars, 2, rng) for _ in range(nvars - 3)]
        expected = HomogeneousForm.zero(K, nvars, 3)
        for i, Q in enumerate(quadrics):
            expected = expected.plus(times(HomogeneousForm.monomial(K, nvars, np.eye(nvars, dtype=int)[i]), Q))
        assert cubic_through_plane(K, quadrics) == expected
        _, split, _ = split_off_plane(expected, marked_plane(K, nvars), nvars)
        assert cubic_through_plane(K, split) == expected


def test_a_split_that_does_not_reconstruct_the_cubic_is_inconsistent():
    nf = random_threefold_through_plane(field(5), random.Random(0))
    with pytest.raises(InternalInconsistency, match=r"x0\*Q0 \+ x1\*Q1 does not reconstruct f"):
        dataclasses.replace(nf, Q1=nf.Q0)


# ---------------------------------------------------------------------------
# compute_Z: frozen examples
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_Z_of_split_difference_conics(p):
    # Q0|_P = x2^2 - x3^2, Q1|_P = x3^2 - x4^2 -> the four points (+-1 : +-1 : 1)
    K = field(p)
    m1 = K.neg_(1)
    nf = make_nf(K, {(2, 0, 0): 1, (0, 2, 0): m1}, {(0, 2, 0): 1, (0, 0, 2): m1})
    Z = compute_Z(nf)
    got = {z.plane_coords for z in Z.points}
    want = {
        normalize_point(K, (s, t, 1))
        for s in (1, m1)
        for t in (1, m1)
    }
    assert got == want
    assert all(z.multiplicity == 1 and z.degree == 1 for z in Z.points)
    assert Z.reduced and Z.total_multiplicity == 4
    assert len(Z.orbits) == 4


@pytest.mark.parametrize("p", [3, 5, 7])
def test_Z_of_two_double_lines(p):
    # Q0|_P = x2^2, Q1|_P = x3^2 -> the single point (0:0:1) with multiplicity 4
    K = field(p)
    nf = make_nf(K, {(2, 0, 0): 1}, {(0, 2, 0): 1})
    Z = compute_Z(nf)
    assert Z.points == (ZPoint(1, (0, 0, 1), 4),)
    assert not Z.reduced


def test_Z_tangent_conics_multiplicity_two_pair():
    # x2*x4 - x3^2 and x2*x4 + x3^2 are tangent at (1:0:0) and at (0:0:1)
    K = field(7)
    nf = make_nf(K, {(1, 0, 1): 1, (0, 2, 0): K.neg_(1)}, {(1, 0, 1): 1, (0, 2, 0): 1})
    Z = compute_Z(nf)
    assert {(z.plane_coords, z.multiplicity) for z in Z.points} == {
        ((1, 0, 0), 2),
        ((0, 0, 1), 2),
    }


def test_Z_conjugate_quadratic_points():
    # x2^2 - 2*x3^2 and x4^2 - 3*x3^2 over F5: 2 and 3 are non-squares,
    # so Z is four points over F25 in two Frobenius orbits
    K = field(5)
    nf = make_nf(K, {(2, 0, 0): 1, (0, 2, 0): 3}, {(0, 0, 2): 1, (0, 2, 0): 2})
    Z = compute_Z(nf)
    assert all(z.degree == 2 and z.multiplicity == 1 for z in Z.points)
    assert len(Z.points) == 4
    assert sorted(len(o) for o in Z.orbits) == [2, 2]
    assert Z.points_over(1) == ()


def test_Z_no_projection_center_fallback():
    # over F3 with q0 = x2*x3 and q1 = x2^2 - x3^2 the four lines through
    # (0:0:1) cover the whole plane; over every field each conic of the pencil
    # is a line pair through (0:0:1), which Z is with multiplicity 4
    for K in (field(3), field(5), field(7), field(3, 2)):
        nf = make_nf(K, {(1, 1, 0): 1}, {(2, 0, 0): 1, (0, 2, 0): K.neg_(1)})
        assert compute_Z(nf).points == (ZPoint(1, (0, 0, 1), 4),)


@pytest.mark.parametrize("seed", range(4))
def test_Z_scan_fallback_follows_a_change_of_plane_coordinates(monkeypatch, seed):
    # the same four concurrent lines, with their common point moved to A^-1 (0:0:1):
    # the pencil has no smooth member, and Z comes from the common vertex
    K = field(3)
    rng = random.Random(seed)
    while True:
        A = np.array([[rng.randrange(3) for _ in range(3)] for _ in range(3)], dtype=np.int64)
        if rank(K, A) == 3:
            break
    q0 = HomogeneousForm(K, 3, 2, {(1, 1, 0): 1}).substitute(A)
    q1 = HomogeneousForm(K, 3, 2, {(2, 0, 0): 1, (0, 2, 0): K.neg_(1)}).substitute(A)
    calls = []
    at_vertex = threefold._Z_at_common_vertex
    monkeypatch.setattr(threefold, "_Z_at_common_vertex", lambda *args: calls.append(args) or at_vertex(*args))
    Z = compute_Z(make_nf(K, q0.terms, q1.terms))
    assert len(calls) == 1
    center = normalize_point(K, inverse_matrix(K, A)[:, 2])
    assert Z.points == (ZPoint(1, center, 4),)


Q13_NODE_DEGREES = {0: [4] * 4, 1: [1, 3, 3, 3], 2: [4] * 4, 3: [4] * 4, 4: [1, 1, 2, 2]}


@pytest.mark.parametrize("seed", Q13_NODE_DEGREES)
def test_q13_certifies_with_its_nodes_of_degree_four(seed):
    # F_{13^4}, whose q x q tables would take 3 GiB, computes on O(q) tables;
    # Z over it is the image of the pulled-back quartic's roots, found by
    # trying every one of the 28561 elements
    K = field(13)
    nf = random_general_threefold(K, random.Random(seed))
    assert certify_generality(nf).is_general
    Z = nf.Z
    assert [z.degree for z in Z.points] == Q13_NODE_DEGREES[seed] and Z.reduced
    L = K.extension(4)
    quartic, M = threefold._pullback_quartic(K, *threefold._smooth_member(nf))
    roots = binary_roots_by_scan(L, K.lift(quartic.coeffs, L).tolist(), 4)
    assert quartic.roots(extension=4) == roots
    ML = K.lift(M, L)
    images = {normalize_point(L, mat_vec(L, ML, [L.mul_(u, u), L.mul_(u, v), L.mul_(v, v)])) for (u, v), _ in roots}
    assert {Z.coords_in(z, L) for z in Z.points_over(4)} == images


def _oracle_draws(K, rng):
    """50 threefolds, as (kind, nf): 40 random, 5 whose conics are
    proportional and 5 whose conics are binary quadratics in the same two
    linear forms, so that every member of the pencil is singular."""
    draws = [("random", random_threefold_through_plane(K, rng)) for _ in range(40)]
    for _ in range(5):
        q0 = random_form(K, 3, 2, rng)
        draws.append(("proportional", make_nf(K, q0.terms, q0.scaled(1 + rng.randrange(K.q - 1)).terms)))
    for _ in range(5):
        A = np.zeros((3, 3), dtype=np.int64)
        while rank(K, A) < 3:
            A = np.array([[K.random_element(rng) for _ in range(3)] for _ in range(3)])
        q0, q1 = (HomogeneousForm.from_coeffs(K, 3, 2, [rng.randrange(K.q) for _ in range(3)] + [0] * 3) for _ in "01")
        draws.append(("cone", make_nf(K, q0.substitute(A).terms, q1.substitute(A).terms)))
    return draws


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)], ids=lambda v: str(v))
def test_the_scalar_pencil_helpers_match_the_stacked_det_and_interpolation_oracles(p, k):
    # the quadrics in x2, x3 alone make every member of the pencil singular
    # (a cone over the point (0:0:1)); proportional conics make the quartic
    # zero wherever a member is smooth
    K = field(p, k)
    seen = set()
    for kind, nf in _oracle_draws(K, random.Random(K.q)):
        members = threefold._smooth_member(nf)
        want_members = reference_impl.smooth_member_by_stacked_det(nf)
        assert (members is None) == (want_members is None)
        if members is None:
            seen.add((kind, "all singular"))
            continue
        # the helpers pass the members as their symmetric matrices
        assert [np.array(B).tolist() for B in members] == [q.symmetric_matrix().tolist() for q in want_members]
        quartic, M = threefold._pullback_quartic(K, *members)
        want, want_M = reference_impl.pullback_quartic_by_interpolation(K, *want_members)
        assert quartic == want and M.tolist() == want_M.tolist()
        if quartic.is_zero:
            seen.add((kind, "zero quartic"))
            with pytest.raises(NotGeneral, match="share a component"):
                compute_Z(nf)
        else:
            seen.add((kind, "quartic"))
    assert {("random", "quartic"), ("proportional", "zero quartic"), ("cone", "all singular")} <= seen


def test_the_pulled_back_quartic_reaches_no_extension_field(monkeypatch):
    # an interpolation over F_3 takes the quartic's values over F_9; the
    # congruence stays in F_3, and only the root scan climbs the tower
    K = field(3)
    members = threefold._smooth_member(random_threefold_through_plane(K, random.Random(0)))
    reached = []
    for name in ("extension", "lift", "points_field"):
        monkeypatch.setattr(gf.GF, name, lambda self, *args, name=name: reached.append(name))
    quartic, M = threefold._pullback_quartic(K, *members)
    assert reached == [] and quartic.K is K


def test_q17_node_of_degree_four_is_a_typed_refusal():
    # seed 0 has a node of degree 4, and F_{17^4} has more elements than uint16 codes
    with pytest.raises(NotSupportedError, match="uint16"):
        random_general_threefold(field(17), random.Random(0))


def test_Z_rejects_vanishing_conic():
    # f = x0^2 x1 has Q0|_P = 0
    K = field(5)
    f = HomogeneousForm(K, 5, 3, {(2, 1, 0, 0, 0): 1})
    with pytest.raises(NotGeneral):
        compute_Z(normalize(f, standard_plane(K)))


def test_Z_rejects_common_component():
    # q0 = x2*x3 shares the line x2 = 0 with q1 = x2*x4, and with
    # q1 = x2*(x2 + x3), where every conic is a line pair through (0:0:1)
    K = field(5)
    for q1_terms in ({(1, 0, 1): 1}, {(2, 0, 0): 1, (1, 1, 0): 1}):
        nf = make_nf(K, {(1, 1, 0): 1}, q1_terms)
        with pytest.raises(NotGeneral):
            compute_Z(nf)


# ---------------------------------------------------------------------------
# compute_Z: scan oracle on random inputs
# ---------------------------------------------------------------------------


def support_by_scan(nf, d):
    """Common zeros of the restricted conics over F_{q^d}, by brute force."""
    L = field(nf.K.p, nf.K.k * d) if d > 1 else nf.K
    q0, q1 = nf.restricted_conics
    q0L, q1L = q0.embedded(L), q1.embedded(L)
    pts = all_points_array(L, 2)
    hit = (q0L.evaluate_batch(pts) == 0) & (q1L.evaluate_batch(pts) == 0)
    return {tuple(int(x) for x in row) for row in pts[hit]}


@pytest.mark.parametrize("p", [3, 5])
def test_Z_support_matches_exhaustive_scan(p):
    K = field(p)
    rng = random.Random(p)
    checked = 0
    while checked < 12:
        nf = random_threefold_through_plane(K, rng)
        try:
            Z = compute_Z(nf)
        except NotGeneral:
            continue
        checked += 1
        assert Z.total_multiplicity == 4
        for d in (1, 2, 3, 4):
            L = field(K.p, K.k * d) if d > 1 else K
            predicted = {Z.coords_in(z, L) for z in Z.points_over(d)}
            assert predicted == support_by_scan(nf, d), f"support mismatch at degree {d}"


def _oracle_multiplicities(nf, L):
    """{coords over L: multiplicity} for the points of Z over L, by the support scan
    and the Jacobian oracle; None when the conics share a component."""
    support = sorted(support_by_scan(nf, L.k // nf.K.k))
    if len(support) > 4:
        return None
    q0, q1 = (c.embedded(L) for c in nf.restricted_conics)
    return Z_multiplicities_by_jacobian(support, [jacobian_has_rank_two(L, q0, q1, pt) for pt in support])


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11])
def test_Z_multiplicities_match_the_jacobian_oracle(q):
    # A point of multiplicity >= 2 shares it with its conjugates, so its degree
    # is at most 2: the scan over F_{q^2} sees every such point, and the points
    # of degree 3 or 4 are what the scanned ones leave of the length 4.
    K = field(3, 2) if q == 9 else field(q)
    L = K.extension(2)
    seen = set()
    for seed in range(40):
        nf = random_threefold_through_plane(K, random.Random(seed))
        want = _oracle_multiplicities(nf, L)
        if want is None:
            with pytest.raises(NotGeneral):
                compute_Z(nf)
            continue
        rest = 4 - sum(want.values())  # 3 or 4: one orbit of nodes of that degree
        if rest and not K.reaches(rest):
            with pytest.raises(NotSupportedError):
                compute_Z(nf)
            continue
        Z = compute_Z(nf)
        assert {Z.coords_in(z, L): z.multiplicity for z in Z.points_over(2)} == want
        assert [(z.degree, z.multiplicity) for z in Z.points if z.degree > 2] == [(rest, 1)] * rest
        if rest == 3 and q == 7:  # at q = 3 and 5 the exhaustive scan test covers degree 3
            L3 = K.extension(3)
            assert {Z.coords_in(z, L3) for z in Z.points_over(3)} == support_by_scan(nf, 3)
        seen.add(Z.reduced)
    assert seen == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7])
@pytest.mark.parametrize(
    "q1_terms, want",
    [
        # x4*(x4 - x3): the tangent at (1:0:0) and a line through it
        ({(0, 0, 2): 1, (0, 1, 1): -1}, {((1, 0, 0), 3), ((1, 1, 1), 1)}),
        # x4*(x4 - x2): the tangent at (1:0:0) and a secant
        ({(0, 0, 2): 1, (1, 0, 1): -1}, {((1, 0, 0), 2), ((1, 1, 1), 1), ((1, -1, 1), 1)}),
    ],
    ids=["tangent-and-line", "tangent-and-secant"],
)
def test_Z_of_a_conic_and_a_line_pair_through_a_tangency(p, q1_terms, want):
    # q0 = x2*x4 - x3^2 is smooth; each q1 is a pair of lines through (1:0:0)
    K = field(p)
    nf = make_nf(K, {(1, 0, 1): 1, (0, 2, 0): K.neg_(1)}, {e: c % p for e, c in q1_terms.items()})
    Z = compute_Z(nf)
    assert {(z.plane_coords, z.multiplicity) for z in Z.points} == {(tuple(x % p for x in pt), m) for pt, m in want}
    assert all(z.degree == 1 for z in Z.points)
    assert _oracle_multiplicities(nf, K) == {z.plane_coords: z.multiplicity for z in Z.points}


def test_Z_points_satisfy_both_conics():
    # the re-verification the spec example asks for over F7
    K = field(7)
    rng = random.Random(77)
    q0, q1 = None, None
    for _ in range(50):
        nf = random_threefold_through_plane(K, rng)
        try:
            Z = compute_Z(nf)
        except NotGeneral:
            continue
        q0, q1 = nf.restricted_conics
        for z in Z.points:
            L = Z.field_of(z)
            assert q0.embedded(L).evaluate(z.plane_coords) == 0
            assert q1.embedded(L).evaluate(z.plane_coords) == 0
    assert q0 is not None


def test_Z_coordinate_independence():
    # conjugating the cubic by a plane-preserving change of coordinates
    # permutes Z through the same change
    K = field(5)
    rng = random.Random(101)
    nf = make_nf(K, {(2, 0, 0): 1, (0, 2, 0): 4}, {(0, 2, 0): 1, (0, 0, 2): 4})
    Z = compute_Z(nf)
    for _ in range(5):
        while True:
            G = np.array([[K.random_element(rng) for _ in range(5)] for _ in range(5)], dtype=np.int64)
            G[0, 2:] = G[1, 2:] = 0  # keep x0', x1' in the span of x0, x1
            if rank(K, G) == 5:
                break
        moved = nf.f.substitute(G)
        nf2 = normalize(moved, standard_plane(K))
        Z2 = compute_Z(nf2)
        got = set()
        for z in Z2.points:
            L = Z2.field_of(z)
            GL = K.lift(G, L)
            image = mat_vec(L, GL, np.array((0, 0) + z.plane_coords, dtype=np.int64))
            assert image[0] == image[1] == 0
            got.add((z.degree, normalize_point(L, image[2:]), z.multiplicity))
        want = {(z.degree, z.plane_coords, z.multiplicity) for z in Z.points}
        assert got == want


# Samples five general threefolds over F_11 with GF.__init__ wrapped to record
# every field built, and prints the fields and the degrees of the Z points.
_FIELDS_BUILT_AT_Q11 = """
import json, random
from cubicfano import gf
from cubicfano.threefold import compute_Z, random_general_threefold
built, init = set(), gf.GF.__init__
def recording(self, p, k=1):
    built.add((p, k))
    init(self, p, k)
gf.GF.__init__ = recording
degrees = [
    [z.degree for z in compute_Z(random_general_threefold(gf.field(11), random.Random(s))).points]
    for s in range(5)
]
print(json.dumps({"built": sorted(built), "degrees": degrees}))
"""


def test_Z_at_q11_builds_only_the_fields_of_its_points():
    # a fresh interpreter starts with an empty field cache, so every build shows
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", _FIELDS_BUILT_AT_Q11], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["degrees"] == [[2, 2, 2, 2], [1, 3, 3, 3], [2, 2], [1, 1, 2, 2], [2, 2, 2, 2]]
    assert result["built"] == [[11, 1], [11, 2], [11, 3]]


def test_Z_node_beyond_the_tower_is_a_typed_refusal():
    # over F_9 a node of degree 3 or 4 needs F_{3^6} or F_{3^8}
    K = field(3, 2)
    refusals = 0
    for seed in range(20):
        try:
            nf = random_general_threefold(K, random.Random(seed))
        except NotSupportedError as exc:
            assert "over F_9 needs F_3^" in str(exc)
            refusals += 1
            continue
        assert compute_Z(nf).total_multiplicity == 4
    assert 0 < refusals < 20


@pytest.mark.parametrize("seed", [2, 4, 5, 28])
def test_a_sampled_threefold_computes_Z_and_its_discriminant_once(monkeypatch, seed):
    # the sampler's certificate computes both and the threefold keeps them, so
    # the line surface, the verdict and the group law compute neither again
    calls = []

    def counting(fn):
        def counted(nf):
            calls.append(fn.__name__)
            return fn(nf)

        return counted

    for info in pkgutil.iter_modules(cubicfano.__path__):
        module = importlib.import_module(f"cubicfano.{info.name}")
        for fn in (threefold.compute_Z, pencil.discriminant):
            if getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counting(fn))
    nf = random_general_threefold(field(3), random.Random(seed))
    assert {"compute_Z", "discriminant"} <= set(calls)
    calls.clear()
    FanoSurface(nf, 1)
    decide_over_finite_field(nf)
    torsor_group(nf).letters
    assert verify_group_axioms(nf, random.Random(seed)).all_passed
    assert calls == []


def test_certificate_reads_Z_and_the_discriminant_and_scans_nothing(monkeypatch):
    # generality follows from the kept Z and discriminant alone: neither is
    # computed again, and there is no point scan and no fiber lines
    def refuse(*args, **kwargs):
        raise RuntimeError("the certificate scans")

    nf = random_general_threefold(field(3), random.Random(2))
    monkeypatch.setattr(threefold, "compute_Z", refuse)
    monkeypatch.setattr(pencil, "discriminant", refuse)
    monkeypatch.setattr(threefold, "projective_reps", refuse)
    monkeypatch.setattr(threefold, "rulings_of_fiber", refuse, raising=False)
    monkeypatch.setattr(pencil, "rulings_of_fiber", refuse)
    cert = certify_generality(nf)
    assert (cert.Z_zero_dimensional, cert.discriminant_reduced, cert.is_general) == (True, True, True)


@pytest.mark.parametrize("depth", [1, 2])
def test_certificate_finds_the_fiber_lines_once_per_depth(monkeypatch, depth):
    # the plane-search oracle that stands in for the old certificate scan finds
    # the lines of the fibers over (1:0) and (0:1) once per depth, not per
    # point of Z, and finds no second plane on a general threefold
    calls = []

    def counted(fiber):
        calls.append(fiber.K)
        return pencil.rulings_of_fiber(fiber)

    nf = random_general_threefold(field(3), random.Random(2))
    assert len(nf.Z.points_over(1)) >= 2
    monkeypatch.setattr(reference_impl, "rulings_of_fiber", counted)
    for d in range(1, depth + 1):
        assert list(extra_plane_candidates(nf, d)) == []
    assert len(calls) <= 2 * depth
    assert {L.q for L in calls} == {3**d for d in range(1, depth + 1)}


# (q, seed) -> digest of the cubic that random_general_threefold(field(q), Random(seed))
# returns, or the refusal it raises: the census fields at seeds 0-4 and the
# group-law seeds at q = 3, recorded when the certificate still scanned for
# singular points and extra planes
SAMPLED_THREEFOLDS = {
    (3, 0): "3c9e98ee8bdb84df", (3, 1): "293e399409cf92f7", (3, 2): "9c123f172097f599",
    (3, 3): "7c2353b1b6dbe3f0", (3, 4): "db6e64e4224a7982", (3, 5): "ebc00a7b070877ec",
    (3, 6): "05a0e42b73d86aea", (3, 28): "15e19731fa9f93c0", (3, 29): "80ef7c1530cdb109",
    (5, 0): "8d9057b9b406d69b", (5, 1): "5ed7ae8e20128f7a", (5, 2): "a5ee3179b556b47b",
    (5, 3): "12985a6d7df90cbe", (5, 4): "2c0270dadbf890a1",
    (7, 0): "88af880a17ab6a57", (7, 1): "91fad6a50047a576", (7, 2): "dd2604b728bcd5aa",
    (7, 3): "110b014a690e70ce", (7, 4): "14a9b83199717486",
    (9, 0): ("NotSupportedError", "a node of degree 4 over F_9 needs F_3^8"),
    (9, 1): "ff89f5747ebcbe31", (9, 2): "dca1612f03e826d9",
    (9, 3): ("NotSupportedError", "a node of degree 3 over F_9 needs F_3^6"),
    (9, 4): "51b18312571657e9",
    (11, 0): "6e2ec8c85d9b2fe8", (11, 1): "ff136132f82fff53", (11, 2): "441fdfc41206ee32",
    (11, 3): "d13ea01469c3f100", (11, 4): "1edf38e04f657dc7",
}


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)], ids=["q3", "q5", "q7", "q9", "q11"])
def test_the_sampler_accepts_the_cubics_it_accepted_with_the_scans(p, k):
    for (q, seed), want in SAMPLED_THREEFOLDS.items():
        if q != p**k:
            continue
        try:
            nf = random_general_threefold(field(p, k), random.Random(seed))
        except NotSupportedError as exc:
            got = (type(exc).__name__, str(exc))
        else:
            got = hashlib.sha256(repr(sorted(nf.f.terms.items())).encode()).hexdigest()[:16]
        assert got == want, seed


# ---------------------------------------------------------------------------
# generality certificate
# ---------------------------------------------------------------------------


def test_certificate_all_true_random():
    K = field(7)
    rng = random.Random(2024)
    nf = random_general_threefold(K, rng)
    cert = certify_generality(nf)
    assert cert.is_general
    assert cert.Z_zero_dimensional and cert.discriminant_reduced


def test_certificate_detects_second_plane():
    # Q0 = x2*x4 + x3^2, Q1 = x3*x4 + x2^2: the cubic also contains
    # {x2 = x3 = 0}, which meets P at the Z-point (0:0:1); its discriminant
    # vanishes identically
    K = field(7)
    nf = make_nf(K, {(1, 0, 1): 1, (0, 2, 0): 1}, {(0, 1, 1): 1, (2, 0, 0): 1})
    Z = compute_Z(nf)
    assert (0, 0, 1) in {z.plane_coords for z in Z.points}
    assert [kind for kind, _ in extra_plane_candidates(nf, 1)] == ["rank<=2 fiber"]
    with pytest.raises(NotGeneral, match="discriminant vanishes identically"):
        nf.discriminant
    cert = certify_generality(nf)
    assert cert.Z_zero_dimensional
    assert not cert.discriminant_reduced
    assert not cert.is_general


def test_certificate_detects_nonreduced_discriminant():
    # f = x0*(x0^2 + x2*x4 - x3^2) + x1*(x2*x4 + x3^2) has disc with a square factor
    K = field(5)
    f = HomogeneousForm(
        K,
        5,
        3,
        {
            (3, 0, 0, 0, 0): 1,
            (1, 0, 1, 0, 1): 1,
            (1, 0, 0, 2, 0): K.neg_(1),
            (0, 1, 1, 0, 1): 1,
            (0, 1, 0, 2, 0): 1,
        },
    )
    cert = certify_generality(normalize(f, standard_plane(K)))
    assert not cert.discriminant_reduced
    assert not cert.is_general


@functools.lru_cache(maxsize=None)
def planes_of_P4_over_F3():
    """All 1210 planes of P^4(F_3), the kernels of the lines of the dual P^4,
    each as its reduced row echelon basis and the set of its 13 rational points."""
    K = field(3)
    planes = []
    for dual in enumerate_lines(K, 4):
        plane = LinearSubspace(K, kernel_basis(K, np.array(dual.rows, dtype=np.int64)))
        planes.append((plane.rows, frozenset(pt.coords for pt in plane.points())))
    return tuple(planes)


def brute_extra_planes(nf):
    """Every plane of P^4(F_3) other than P that lies on the threefold.

    No nonzero ternary cubic over F_3 vanishes at all 13 points of P^2(F_3)
    (the forms that do are generated in degree 4), so a plane lies on Y
    exactly when its rational points do; the restriction confirms each hit.
    """
    on_Y = set(common_zeros([nf.f]))
    out = []
    for basis, points in planes_of_P4_over_F3():
        if points <= on_Y and not all(row[0] == 0 and row[1] == 0 for row in basis):
            assert nf.f.restrict(np.array(basis, dtype=np.int64)).is_zero
            out.append(basis)
    return out


def planted_second_plane(K, rng):
    """A random cubic through P that also contains {x2 = x3 = 0}, a plane
    meeting P in the one point (0:0:0:0:1)."""
    f = random_cubic_through_plane(K, 5, rng)
    terms = {e: c for e, c in f.terms.items() if e[2] or e[3]}
    return normalize(HomogeneousForm(K, 5, 3, terms), standard_plane(K))


def test_certificate_unique_plane_matches_full_enumeration_at_q3():
    # brute force over all 1210 planes of P^4(F_3): a threefold with a second
    # plane never has a reduced discriminant, and the oracle plane search
    # finds a plane whenever brute force does and finds only planes on Y.
    # The planted planes meet P in a point, so the oracle finds them through Z
    K = field(3)
    rng = random.Random(31)
    assert len(planes_of_P4_over_F3()) == 1210
    samples = [random_threefold_through_plane(K, rng) for _ in range(40)]
    samples += [planted_second_plane(K, rng) for _ in range(10)]
    seen_nonunique = seen_through_Z = 0
    for nf in samples:
        try:
            nf.Z
        except NotGeneral:
            continue
        cert = certify_generality(nf)
        brute = brute_extra_planes(nf)
        found = list(extra_plane_candidates(nf, 1))
        if brute:
            seen_nonunique += 1
            assert not cert.discriminant_reduced and not cert.is_general
            assert found, "brute force found a plane the oracle search missed"
        for kind, witness in found:
            if kind == "plane through Z":
                seen_through_Z += 1
                assert witness in brute, "the oracle search found a plane brute force missed"
    assert seen_nonunique > 0 and seen_through_Z > 0


def test_certificate_second_plane_found_by_brute_force_too():
    K = field(3)
    nf = make_nf(K, {(1, 0, 1): 1, (0, 2, 0): 1}, {(0, 1, 1): 1, (2, 0, 0): 1})
    # {x2 = x3 = 0} and three more planes lie on Y; the oracle search stops
    # at a rank <= 2 fiber
    brute = brute_extra_planes(nf)
    assert len(brute) == 4 and ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)) in brute
    assert [kind for kind, _ in extra_plane_candidates(nf, 1)] == ["rank<=2 fiber"]
    with pytest.raises(NotGeneral, match="discriminant vanishes identically"):
        nf.discriminant
    cert = certify_generality(nf)
    assert not cert.discriminant_reduced
    assert not cert.is_general


# (q, k, seeds, scan degrees): where Z is zero-dimensional and the
# discriminant is reduced, neither oracle finds anything.  At q = 11, seed 7
# has a node of degree 4 over F_{11^4}, which builds on O(q) tables.
IMPLICATION_CASES = [
    (3, 1, range(120), (1, 2)),
    (5, 1, range(40), (1,)),
    (7, 1, range(20), (1,)),
    (3, 2, range(20), (1,)),
    (11, 1, range(12), (1,)),
]


@pytest.mark.parametrize("p, k, seeds, degrees", IMPLICATION_CASES, ids=[f"q{p**k}" for p, k, *_ in IMPLICATION_CASES])
def test_a_general_threefold_has_no_second_plane_and_no_singular_point_off_P(p, k, seeds, degrees):
    general = 0
    for seed in seeds:
        nf = random_threefold_through_plane(field(p, k), random.Random(seed))
        try:
            cert = certify_generality(nf)
        except NotSupportedError:
            continue
        if not cert.is_general:
            continue
        general += 1
        for d in degrees:
            assert next(singular_points_off_plane(nf, d), None) is None, (seed, d)
            assert next(extra_plane_candidates(nf, d), None) is None, (seed, d)
    assert general > 0
