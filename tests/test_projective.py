"""Projective layer: enumeration counts, spans, restriction, residual lines."""

import functools
import itertools
import random
from itertools import islice

import numpy as np
import pytest

from cubicfano import projective
from cubicfano.forms import HomogeneousForm, interpolate, interpolation_points, monomial_exponents, random_form
from cubicfano.fourfold import normalize_fourfold
from cubicfano.gf import field
from cubicfano.linalg import (
    det,
    hyperplane_rows,
    inverse_matrix,
    kernel_basis,
    mat_mul,
    rank,
    rref,
    rref_stack,
    unit_complement,
)
from cubicfano.errors import NotOnCubic, PlaneContained
from cubicfano.projective import (
    RESIDUAL_ERRORS,
    LinearSubspace,
    ProjectiveLine,
    ProjectivePoint,
    all_points_array,
    common_zeros,
    count_points,
    enumerate_lines,
    line_meets,
    normalize_point,
    plane_section_values,
    projective_reps,
    residual_from_values,
    residual_line,
    span,
)
from cubicfano.threefold import normalize, plane_basis

from reference_impl import (
    complete_to_basis,
    line_in_plane_from_linear_form,
    pluecker_coordinates,
    proportionality,
    residual_line_symbolic,
    singular_point_scan,
    singular_points_off_plane,
    times,
    zeros_by_scan,
)

# ---------------------------------------------------------------------------
# points and canonical forms
# ---------------------------------------------------------------------------


def test_point_normalization():
    K = field(5)
    assert ProjectivePoint(K, (2, 4, 0)).coords == (1, 2, 0)
    assert ProjectivePoint(K, (0, 3, 3)).coords == (0, 1, 1)
    with pytest.raises(ValueError):
        ProjectivePoint(K, (0, 0, 0))


def test_degenerate_arguments_raise():
    K = field(5)
    pt = ProjectivePoint(K, (1, 2, 0))
    with pytest.raises(ValueError):
        ProjectiveLine(K, [pt.coords, pt.coords])
    with pytest.raises(ValueError):
        next(enumerate_lines(K, 1))


def test_point_counts():
    assert len(list(projective_reps(field(3), 2))) == 13 == count_points(field(3), 2)
    assert len(list(projective_reps(field(5), 3))) == count_points(field(5), 3) == 156
    pts = [ProjectivePoint(field(7), rep) for rep in projective_reps(field(7), 2)]
    assert len(set(pts)) == len(pts) == 57


def test_line_rref_canonical():
    K = field(5)
    L1 = ProjectiveLine(K, ((1, 2, 3), (0, 1, 4)))
    L2 = ProjectiveLine(K, ((2, 4, 6 % 5), (0, 2, 8 % 5)))
    L3 = ProjectiveLine(K, ((1, 3, 2 % 5), (1, 4, 1)))  # same row space, mixed rows
    assert L1 == L2
    stacked = np.vstack([L1.matrix, L3.matrix])
    from cubicfano.linalg import rank

    if rank(K, stacked) == 2:
        assert L1 == L3


@pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (3, 2)])
def test_stacked_rref_matches_rref_on_every_matrix(p, k):
    K = field(p, k)
    rng = random.Random(10 * p + k)
    for rows, cols in ((4, 5), (3, 4), (2, 3)):
        mats = []
        for r in range(rows + 1):
            for _ in range(8):
                # a random matrix of rank at most r, with its rows in random order
                left = [[K.random_element(rng) for _ in range(r)] for _ in range(rows)]
                right = [[K.random_element(rng) for _ in range(cols)] for _ in range(r)]
                mats.append(mat_mul(K, left, right) if r else np.zeros((rows, cols), dtype=np.int64))
        reduced, ranks = rref_stack(K, np.array(mats))
        assert set(ranks.tolist()) == set(range(rows + 1))
        for mat, R, r in zip(mats, reduced, ranks):
            expected, _ = rref(K, mat)
            assert r == len(expected)
            assert np.array_equal(R[:r], expected) and not R[r:].any()
    assert rref_stack(K, np.zeros((0, 4, 5), dtype=np.int64))[0].shape == (0, 4, 5)


@pytest.mark.parametrize("p, k", [(3, 1), (7, 1), (3, 2), (5, 2)])
def test_stacked_det_matches_the_leibniz_expansion(p, k):
    K = field(p, k)
    rng = random.Random(10 * p + k)

    def leibniz(M):
        total = 0
        for perm in itertools.permutations(range(len(M))):
            term = 1 if sum(a > b for a, b in itertools.combinations(perm, 2)) % 2 == 0 else K.neg_(1)
            for i, j in enumerate(perm):
                term = K.mul_(term, int(M[i][j]))
            total = K.add_(total, term)
        return total

    for n in (1, 2, 3, 4):
        mats = []
        for r in range(n + 1):
            for _ in range(6):
                # a random matrix of rank at most r, its rows in random order
                left = [[K.random_element(rng) for _ in range(r)] for _ in range(n)]
                right = [[K.random_element(rng) for _ in range(n)] for _ in range(r)]
                mats.append(mat_mul(K, left, right) if r else np.zeros((n, n), dtype=np.int64))
        # invertible matrices whose first pivot needs a row swap
        for _ in range(6 if n > 1 else 0):
            M = np.zeros((n, n), dtype=np.int64)
            while leibniz(M) == 0:
                M = np.array([[K.random_element(rng) for _ in range(n)] for _ in range(n)])
                M[0, 0] = 0
            mats.append(M)
        dets = det(K, np.array(mats).reshape(2, -1, n, n))
        assert dets.shape == (2, len(mats) // 2)
        expected = [leibniz(M) for M in mats]
        assert dets.ravel().tolist() == expected
        assert 0 in expected and (n == 1 or len(set(expected)) > 1)
        assert int(det(K, mats[-1])) == expected[-1]  # one matrix
    assert det(K, np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_hyperplane_rows_are_the_kernel_basis_of_each_form(p, k, n):
    # every nonzero vector of F_q^n, or 500 of them where there are more than 3000
    K = field(p, k)
    codes = range(1, K.q**n)
    if len(codes) > 3000:
        codes = random.Random(K.q * n).sample(codes, 500)
    ells = np.array([[c // K.q**i % K.q for i in range(n)] for c in codes], dtype=np.int64)
    expected = np.stack([kernel_basis(K, ell[None]) for ell in ells])
    for ell, rows in zip(ells, expected):
        got = hyperplane_rows(K, ell)
        assert got.dtype == np.int64 and np.array_equal(got, rows)
    assert np.array_equal(hyperplane_rows(K, ells), expected)
    m = len(ells) // 2 * 2
    assert np.array_equal(hyperplane_rows(K, ells[:m].reshape(2, -1, n)), expected[:m].reshape(2, -1, n - 1, n))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_unit_complement_is_the_first_unit_pair_completing_each_point(p, k):
    K = field(p, k)
    points = all_points_array(K, 2)
    units = np.eye(3, dtype=np.int64)
    got = units[unit_complement(points)].tolist()
    assert got == [list(complete_to_basis(K, y, units)) for y in points.tolist()]


def test_line_points_and_containment():
    K = field(3)
    L = ProjectiveLine(K, ((1, 0, 1), (0, 1, 2)))
    pts = L.points()
    assert len(pts) == 4 == len(set(pts))
    for pt in pts:
        assert L.contains(pt)
    assert ProjectiveLine(K, [pts[0].coords, pts[1].coords]) == L


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2)])
def test_line_points_array_walks_the_parameter(p, k):
    # a + t*b for t = 0, ..., q-1, then b, each already normalized
    K = field(p, k)
    rng = random.Random(p * k)
    for _ in range(50):
        try:
            line = ProjectiveLine(K, [[rng.randrange(K.q) for _ in range(5)] for _ in range(2)])
        except ValueError:  # rank below 2
            continue
        a, b = line.rows
        expected = [tuple(K.add_(x, K.mul_(t, y)) for x, y in zip(a, b)) for t in range(K.q)] + [b]
        assert [tuple(row) for row in line.points_array().tolist()] == expected
        assert [pt.coords for pt in line.points()] == expected


@pytest.mark.parametrize("p, k, n", [(3, 1, 4), (5, 1, 3), (3, 2, 2)])
def test_all_points_array_is_in_rep_order(p, k, n):
    K = field(p, k)
    assert all_points_array(K, n).tolist() == [list(rep) for rep in projective_reps(K, n)]


# ---------------------------------------------------------------------------
# line enumeration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,n,expected",
    [
        (3, 2, 13),
        (5, 2, 31),
        (7, 2, 57),
        (3, 3, 130),
        (5, 3, 806),
        (7, 3, 2850),
        (3, 4, 1210),
        (5, 4, 20306),
        (7, 4, 140050),
        (3, 5, 11011),
    ],
)
def test_enumerate_lines_counts(p, n, expected):
    K = field(p)
    seen = set()
    total = 0
    for line in enumerate_lines(K, n):
        total += 1
        if total <= 500:
            seen.add(line.rows)
            # canonical: re-normalizing is a no-op
            assert ProjectiveLine(K, line.rows) == line
    assert total == expected
    assert len(seen) == min(500, expected)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_cell_dimension_identity_p5(p):
    # the walk over the Schubert cells of the (large) P^5 Grassmannian repeats no line
    K = field(p)
    first = list(islice(enumerate_lines(K, 5), 200))
    assert len(set(first)) == 200


def test_lines_in_p2_selfdual_count():
    # every pair of distinct points of P^2 spans one of the 13 lines over F_3
    K = field(3)
    pts = list(projective_reps(K, 2))
    lines = {span(K, a, b).rows for a in pts for b in pts if a != b}
    assert len(lines) == 13
    assert lines == {line.rows for line in enumerate_lines(K, 2)}


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def test_span_examples():
    K = field(5)
    L = ProjectiveLine(K, ((1, 0, 2, 0, 1), (0, 1, 3, 0, 0)))
    on_line = L.points()[2]
    assert span(K, L, on_line).dim == 1
    pts = list(projective_reps(K, 4))
    a, b = ProjectivePoint(K, pts[3]), ProjectivePoint(K, pts[77])
    assert span(K, a, b).rows == ProjectiveLine(K, [a.coords, b.coords]).rows
    skew = ProjectiveLine(K, ((0, 0, 1, 0, 4), (0, 0, 0, 1, 3)))
    got = span(K, L, skew)
    assert got.dim == 3


def test_span_point_membership():
    K = field(3)
    rng = random.Random(4)
    pts = random.Random(9).sample(list(projective_reps(K, 4)), 3)
    S = span(K, *pts)
    for pt in pts:
        assert span(K, S, pt).rows == S.rows
    # spans are idempotent
    assert span(K, S).rows == S.rows


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def test_restrict_split_cubic_to_its_plane_is_zero():
    K = field(7)
    rng = random.Random(2)
    x0 = HomogeneousForm.linear(K, (1, 0, 0, 0, 0))
    x1 = HomogeneousForm.linear(K, (0, 1, 0, 0, 0))
    f = times(x0, random_form(K, 5, 2, rng)).plus(times(x1, random_form(K, 5, 2, rng)))
    P = LinearSubspace(K, ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)))
    assert f.restrict(P.matrix).is_zero


def test_restrict_monomial_to_coordinate_plane():
    K = field(5)
    f = HomogeneousForm.monomial(K, 5, (1, 1, 1, 0, 0))
    P = LinearSubspace(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    got = f.restrict(P.matrix)
    assert got == HomogeneousForm.monomial(K, 3, (1, 1, 1))


def test_restrict_agrees_with_ambient_evaluation():
    K = field(5)
    rng = random.Random(12)
    f = random_form(K, 5, 3, rng)
    S = span(K, *random.Random(13).sample(list(projective_reps(K, 4)), 3))
    assert S.dim == 2
    restricted = f.restrict(S.matrix)
    for coords in [(1, 0, 0), (0, 1, 0), (1, 2, 3), (4, 4, 1), (1, 1, 1), (2, 0, 3)]:
        ambient = S.embed_point(coords)
        # embed_point normalizes; compare via homogeneity-safe route
        lam_point = [0] * 5
        for c, row in zip(coords, S.rows):
            for j, rj in enumerate(row):
                lam_point[j] = K.add_(lam_point[j], K.mul_(c, rj))
        assert restricted.evaluate(coords) == f.evaluate(lam_point)
        assert (restricted.evaluate(coords) == 0) == (f.evaluate(ambient.coords) == 0)


# ---------------------------------------------------------------------------
# residual lines
# ---------------------------------------------------------------------------


def _plane_line(K, plane, ell):
    return line_in_plane_from_linear_form(plane, ell)


def test_residual_line_split_product():
    K = field(7)
    # ambient P^4; plane x3 = x4 = 0; cubic = u*v*w on it (plus junk off the plane)
    plane = LinearSubspace(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    cubic = HomogeneousForm.monomial(K, 5, (1, 1, 1, 0, 0)).plus(HomogeneousForm.monomial(K, 5, (0, 0, 0, 3, 0)))
    L = _plane_line(K, plane, (1, 0, 0))
    M = _plane_line(K, plane, (0, 1, 0))
    res = residual_line(cubic, plane, L, M)
    assert res.line == _plane_line(K, plane, (0, 0, 1))
    assert res.multiplicity == 1


def test_residual_line_sum_case():
    K = field(5)
    plane = LinearSubspace(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    u = HomogeneousForm.linear(K, (1, 0, 0, 0, 0))
    v = HomogeneousForm.linear(K, (0, 1, 0, 0, 0))
    w = HomogeneousForm.linear(K, (1, 1, 1, 0, 0))
    cubic = times(times(u, v), w)
    L = _plane_line(K, plane, (1, 0, 0))
    M = _plane_line(K, plane, (0, 1, 0))
    res = residual_line(cubic, plane, L, M)
    assert res.line == _plane_line(K, plane, (1, 1, 1))
    assert res.multiplicity == 1


def test_residual_line_symmetric_and_multiplicity():
    K = field(7)
    plane = LinearSubspace(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    u = HomogeneousForm.linear(K, (1, 0, 0, 0, 0))
    v = HomogeneousForm.linear(K, (0, 1, 0, 0, 0))
    L = _plane_line(K, plane, (1, 0, 0))
    M = _plane_line(K, plane, (0, 1, 0))
    # double line: u * u * v -> dividing by u and v leaves u again
    cubic = times(times(u, u), v)
    res = residual_line(cubic, plane, L, M)
    assert res.line == L and res.multiplicity == 2
    swapped = residual_line(cubic, plane, M, L)
    assert swapped.line == res.line and swapped.multiplicity == 2
    # triple line: u^3 with L = M = {u = 0} (tangent-style double input)
    cubic3 = times(times(u, u), u)
    res3 = residual_line(cubic3, plane, L, L)
    assert res3.line == L and res3.multiplicity == 3


def test_residual_line_random_vanishing_oracle():
    K = field(7)
    rng = random.Random(99)
    plane = LinearSubspace(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    for _ in range(10):
        # build a cubic through two chosen coplanar lines: u*v*(random linear)
        ell = [K.random_element(rng) for _ in range(3)]
        if not any(ell):
            ell[2] = 1
        w = HomogeneousForm.linear(K, tuple(ell) + (0, 0))
        u = HomogeneousForm.linear(K, (1, 0, 0, 0, 0))
        v = HomogeneousForm.linear(K, (0, 1, 0, 0, 0))
        cubic = times(times(u, v), w)
        L = _plane_line(K, plane, (1, 0, 0))
        M = _plane_line(K, plane, (0, 1, 0))
        res = residual_line(cubic, plane, L, M)
        for pt in res.line.points():
            assert cubic.evaluate(pt.coords) == 0
        # symmetry
        assert residual_line(cubic, plane, M, L).line == res.line
        # product of the three linear forms equals the section up to scalar
        from cubicfano.projective import linear_form_cutting_line_in_plane

        ln = linear_form_cutting_line_in_plane(plane, res.line)
        recovered = times(
            times(HomogeneousForm.linear(K, (1, 0, 0)), HomogeneousForm.linear(K, (0, 1, 0))),
            HomogeneousForm.linear(K, ln),
        )
        section = cubic.restrict(plane.matrix)
        assert proportionality(recovered, section) is not None


def test_residual_line_errors():
    K = field(5)
    plane = LinearSubspace(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)))
    L = _plane_line(K, plane, (1, 0, 0))
    M = _plane_line(K, plane, (0, 1, 0))
    # cubic vanishing identically on the plane
    g = HomogeneousForm.monomial(K, 5, (0, 0, 0, 2, 1))
    with pytest.raises(PlaneContained):
        residual_line(g, plane, L, M)
    # cubic not through L
    w = HomogeneousForm.linear(K, (1, 1, 1, 0, 0))
    cubic = times(times(w, w), w)
    with pytest.raises(NotOnCubic):
        residual_line(cubic, plane, L, M)


def _form_on(K, rng, rows, plane=None):
    """A random nonzero ambient linear form vanishing on the span of rows,
    and not on the whole plane when one is given."""
    ker = kernel_basis(K, np.array(rows, dtype=np.int64))
    while True:
        weights = [K.random_element(rng) for _ in range(len(ker))]
        coeffs = [0] * 5
        for w, row in zip(weights, ker):
            coeffs = [K.add_(c, K.mul_(w, int(x))) for c, x in zip(coeffs, row)]
        form = HomogeneousForm.linear(K, coeffs)
        if any(coeffs) and (plane is None or any(form.evaluate(row) for row in plane.rows)):
            return form


def _random_section_case(K, rng, kind):
    """(cubic, plane, L, M) of the given kind on a random plane of P^4."""
    while True:
        plane = LinearSubspace(K, [[K.random_element(rng) for _ in range(5)] for _ in range(3)])
        if plane.dim == 2:
            break

    def line_of_plane():
        ell = [K.random_element(rng) for _ in range(3)]
        return line_in_plane_from_linear_form(plane, ell if any(ell) else [0, 0, 1])

    L, M = line_of_plane(), line_of_plane()
    if kind in ("double", "triple"):
        M = L
    # junk off the plane: the forms vanishing on the plane times random quadrics
    junk = HomogeneousForm.zero(K, 5, 3)
    for _ in range(2):
        junk = junk.plus(times(_form_on(K, rng, plane.rows), random_form(K, 5, 2, rng)))
    lam_L, lam_M = _form_on(K, rng, L.rows, plane), _form_on(K, rng, M.rows, plane)
    third = {
        "generic": lambda: _form_on(K, rng, line_of_plane().rows, plane),
        "double": lambda: _form_on(K, rng, line_of_plane().rows, plane),
        "triple": lambda: _form_on(K, rng, L.rows, plane),
        "third_is_first": lambda: _form_on(K, rng, L.rows, plane),
    }
    if kind == "contained":
        cubic = junk
    elif kind == "off_first":
        cubic = random_form(K, 5, 3, rng)
    elif kind == "off_second":
        cubic = times(lam_L, random_form(K, 5, 2, rng)).plus(junk)
    else:
        cubic = times(times(lam_L, lam_M), third[kind]()).plus(junk)
    return cubic, plane, L, M


def _outcome(res):
    if isinstance(res, Exception):
        return type(res).__name__, str(res)
    return res.line.rows, res.multiplicity


def _residual_outcome(fn, *args):
    try:
        res = fn(*args)
    except (PlaneContained, NotOnCubic) as exc:
        res = exc
    return _outcome(res)


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_residual_line_matches_the_symbolic_oracle(p, k):
    K = field(p, k)
    rng = random.Random(100 * p + k)
    kinds = ("generic", "double", "triple", "third_is_first", "contained", "off_first", "off_second")
    seen = set()
    cases, expected = [], []
    for kind in kinds:
        for _ in range(5):
            case = _random_section_case(K, rng, kind)
            got = _residual_outcome(residual_line, *case)
            assert got == _residual_outcome(residual_line_symbolic, *case), kind
            seen.add(got[1] if isinstance(got[1], int) else got)
            cases.append(case)
            expected.append((kind, got))
    # every case of the field through one stacked call, each row's values
    # taken from its own cubic
    planes = np.array([plane.rows for _, plane, _, _ in cases])
    values = np.vstack([plane_section_values(cubic, planes[i : i + 1]) for i, (cubic, *_) in enumerate(cases)])
    rows, multiplicity, outcome = residual_from_values(
        K, planes, [L.rows for *_, L, _ in cases], [M.rows for *_, M in cases], values
    )
    assert rows.shape == (len(cases), 2, 5) and multiplicity.shape == outcome.shape == (len(cases),)
    stacked = [
        (RESIDUAL_ERRORS[code][0].__name__, RESIDUAL_ERRORS[code][1]) if code else (tuple(map(tuple, r)), m)
        for r, m, code in zip(rows.tolist(), multiplicity.tolist(), outcome.tolist())
    ]
    assert [(kind, got) for (kind, _), got in zip(expected, stacked)] == expected
    # an empty batch gives empty arrays of the same shapes
    empty = residual_from_values(K, planes[:0], planes[:0, :2], planes[:0, :2], values[:0])
    assert [a.shape for a in empty] == [(0, 2, 5), (0,), (0,)]
    assert {1, 2, 3} <= seen
    assert ("PlaneContained", "plane lies entirely on the cubic") in seen
    assert ("NotOnCubic", "first line is not on the cubic section") in seen
    assert ("NotOnCubic", "second line is not on the cubic section") in seen


def _cubic_monomials_at(K, pt):
    return [HomogeneousForm(K, 3, 3, {e: 1}).evaluate(pt) for e in monomial_exponents(3, 3)]


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3), (3, 4)])
def test_the_ten_section_points_pin_every_cubic(p, k):
    # the points the plane sections are read at are points over K, and no
    # nonzero ternary cubic vanishes on the ten: their monomial matrix is
    # invertible, and interpolation gives back each monomial from its values
    K = field(p, k)
    L, pts = interpolation_points(K, 3, 3)
    assert L is K
    assert len({tuple(pt) for pt in pts.tolist()}) == 10
    assert all(tuple(pt) == normalize_point(K, pt) for pt in pts.tolist())
    V = np.array([_cubic_monomials_at(K, pt) for pt in pts.tolist()], dtype=np.int64)
    assert rank(K, V) == 10
    for e, column in zip(monomial_exponents(3, 3), V.T):
        assert interpolate(K, 3, 3, column) == HomogeneousForm.monomial(K, 3, e)


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_a_cubic_off_the_factored_section_at_one_point_is_caught(p, k):
    # c * ell_L * ell_M * ell_N plus a cubic vanishing on nine of the ten
    # section points differs from the factored section at the tenth alone;
    # the residual solve must see it there, as the symbolic division does
    K = field(p, k)
    rng = random.Random(10 * p + k)
    pts = interpolation_points(K, 3, 3)[1].tolist()
    outcomes = set()
    for j in range(10):
        _, plane, L, M = _random_section_case(K, rng, "generic")
        others = np.array([_cubic_monomials_at(K, pt) for i, pt in enumerate(pts) if i != j], dtype=np.int64)
        (lagrange,) = kernel_basis(K, others)
        # the plane's reduced rows make x at its pivot columns the plane coordinates
        pivots = [next(i for i, x in enumerate(row) if x) for row in plane.rows]
        terms = {}
        for e, c in zip(monomial_exponents(3, 3), lagrange.tolist()):
            if c:
                ambient = [0] * 5
                for pivot, power in zip(pivots, e):
                    ambient[pivot] = power
                terms[tuple(ambient)] = c
        lam_L, lam_M, lam_N = (
            _form_on(K, rng, line.rows, plane)
            for line in (L, M, line_in_plane_from_linear_form(plane, [K.random_element(rng), 1, 1]))
        )
        cubic = times(times(lam_L, lam_M), lam_N).plus(HomogeneousForm(K, 5, 3, terms))
        got = _residual_outcome(residual_line, cubic, plane, L, M)
        assert got == _residual_outcome(residual_line_symbolic, cubic, plane, L, M)
        outcomes.add(got[0])
    assert outcomes == {"NotOnCubic"}


# ---------------------------------------------------------------------------
# incidence
# ---------------------------------------------------------------------------


def test_line_meets_trivial_cases():
    K = field(5)
    L = ProjectiveLine(K, ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)))
    M = ProjectiveLine(K, ((1, 0, 0, 0, 0), (0, 0, 1, 0, 0)))  # shares (1:0:0:0:0)
    assert line_meets(L, L)
    assert line_meets(L, M)


def test_line_meets_against_point_set_oracle():
    K = field(5)
    rng = random.Random(7)
    lines = list(enumerate_lines(K, 3))
    for _ in range(1000):
        L, M = rng.choice(lines), rng.choice(lines)
        predicted = line_meets(L, M)
        actual = bool(set(L.points()) & set(M.points()))
        assert predicted == actual


def test_pluecker_export():
    K = field(5)
    L = ProjectiveLine(K, ((1, 0, 2, 0, 1), (0, 1, 3, 0, 0)))
    pl = pluecker_coordinates(L)
    assert len(pl) == 10
    assert pl[0] == 1  # normalized
    # quadratic Pluecker relation p01 p23 - p02 p13 + p03 p12 = 0 on the first four indices
    p01, p02, p03, p12, p13, p23 = pl[0], pl[1], pl[2], pl[4], pl[5], pl[7]
    lhs = K.sub_(K.mul_(p01, p23), K.mul_(p02, p13))
    lhs = K.add_(lhs, K.mul_(p03, p12))
    assert lhs == 0


# ---------------------------------------------------------------------------
# the common-zero scan against the scalar oracle
# ---------------------------------------------------------------------------


def _planted(K, rng, case):
    """A sparse random form singular at a random point, its scan forms and that point.

    No monomial has x0-degree >= degree - 1, so the form is singular at
    (1:0:...:0); two shears and a permutation of the variables, none of which
    moves the marked plane {x0 = ... = x_{n-1} = 0} of a cubic, move that point.
    """
    nvars, degree, block = {"threefold": (5, 3, 2), "fourfold": (6, 3, 3), "sextic": (3, 6, 0)}[case]
    monomials = [
        e for e in monomial_exponents(nvars, degree) if e[0] < degree - 1 and (block == 0 or any(e[:block]))
    ]
    form = HomogeneousForm(K, nvars, degree, {e: rng.randrange(1, K.q) for e in rng.sample(monomials, 8)})
    # x = M y, with M block lower triangular: x_0..x_{n-1} depend on y_0..y_{n-1} only
    M = np.eye(nvars, dtype=np.int64)
    for _ in range(2):
        j = rng.randrange(nvars)
        i = rng.choice([i for i in range(nvars) if i != j and (j >= block or i < block)])
        shear = np.eye(nvars, dtype=np.int64)
        shear[j, i] = rng.randrange(1, K.q)
        M = mat_mul(K, M, shear)
    order = rng.sample(range(block), block) + rng.sample(range(block, nvars), nvars - block)
    M = M[:, order]
    singular = normalize_point(K, inverse_matrix(K, M)[:, 0])
    form = form.substitute(M)
    return form, [form] + [form.derivative(i) for i in range(nvars)], singular


_SCAN_SPACES = {"threefold": 4, "fourfold": 5, "sextic": 2}

# every case over F_3, F_5 and F_9 with chunks of 1, 7 and 4096 points, so
# chunks end inside pivot blocks and across them; a chunking that cuts the
# scan into more than 2000 chunks is left out (P^5(F_9) in chunks of 7 is 9490
# kernel calls per form, about 12 s)
_SCAN_CASES = [
    (case, p, k, chunk)
    for case, n in _SCAN_SPACES.items()
    for p, k in [(3, 1), (5, 1), (3, 2)]
    for chunk in (1, 7, 4096)
    if count_points(field(p, k), n) <= 2000 * chunk
]


@functools.lru_cache(maxsize=None)
def _planted_case(case, p, k):
    K = field(p, k)
    form, forms, singular = _planted(K, random.Random(100 * p + k), case)
    return K, form, forms, singular, zeros_by_scan(forms)


@pytest.mark.parametrize("case, p, k, chunk", _SCAN_CASES)
def test_common_zeros_match_the_scalar_oracle(monkeypatch, case, p, k, chunk):
    K, form, forms, singular, expected = _planted_case(case, p, k)
    assert singular in expected
    monkeypatch.setattr(projective, "SCAN_CHUNK", chunk)
    assert list(common_zeros(forms)) == expected
    if case == "threefold":
        nf = normalize(form, LinearSubspace(K, plane_basis(5)))
        assert list(singular_points_off_plane(nf, 1)) == [pt for pt in expected if pt[0] or pt[1]]
    elif case == "fourfold":
        nx = normalize_fourfold(form, LinearSubspace(K, plane_basis(6)))
        assert list(singular_point_scan(nx, 1)) == expected


def test_common_zeros_stop_at_the_first_chunk_with_a_zero(monkeypatch):
    K = field(5)
    calls = []
    evaluate_batch = HomogeneousForm.evaluate_batch

    def counted(self, points):
        calls.append(len(points))
        return evaluate_batch(self, points)

    monkeypatch.setattr(HomogeneousForm, "evaluate_batch", counted)
    monkeypatch.setattr(projective, "SCAN_CHUNK", 4)
    assert next(common_zeros([HomogeneousForm.linear(K, (1, 1, 0))])) == (1, 4, 0)
    assert calls == [4] * 6  # (1:4:0) is point 20 of 31
    calls.clear()
    # x1 is evaluated only where x0 vanishes: points 25 to 30, in the last two chunks
    assert list(common_zeros([HomogeneousForm.linear(K, (1, 0, 0)), HomogeneousForm.linear(K, (0, 1, 0))])) == [(0, 0, 1)]
    assert calls == [4] * 7 + [3, 3, 3]


def test_common_zeros_refuse_mixed_forms():
    with pytest.raises(ValueError):
        list(common_zeros([HomogeneousForm.linear(field(3), (1, 0, 0)), HomogeneousForm.linear(field(5), (1, 0, 0))]))
