"""Fiber quadrics, the sextic discriminant, rulings, and curve point counts."""

import random

import numpy as np
import pytest

from cubicfano import fano, pencil, projective
from cubicfano.errors import InternalInconsistency, NotGeneral
from cubicfano.forms import HomogeneousForm
from cubicfano.gf import field
from cubicfano.linalg import det, rank, rref
from cubicfano.pencil import (
    HyperellipticModel,
    PencilFiber,
    _check_pairings,
    class_number_over_extension,
    count_points_C,
    discriminant,
    match_models,
    operational_curve_points,
    pencil_fibers,
    rulings_of_fiber,
    rulings_of_fibers,
    zeta,
)
from cubicfano.projective import ProjectiveLine, _canonical_rows, enumerate_lines, projective_reps
from cubicfano.threefold import random_threefold_through_plane

from reference_impl import det_form_matrix, pencil_quadric, quadric_of_matrix, rulings_by_tangent_conics, solve
from test_threefold import make_nf


def general_example(p):
    """A fixed threefold over F_p that passes the generality checks."""
    K = field(p)
    rng = random.Random(1000 + p)
    from cubicfano.threefold import random_general_threefold

    return random_general_threefold(K, rng)


# ---------------------------------------------------------------------------
# fiber matrices
# ---------------------------------------------------------------------------


def one_fiber(nf, s, t):
    """The pencil member over (s:t) in P^1 of the threefold's own field."""
    return pencil_fibers(nf, nf.K, [(s, t)])[0]


@pytest.mark.parametrize("p,k_base,k", [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (11, 1, 1), (3, 1, 2), (5, 1, 2)])
def test_stacked_fiber_matrices_match_the_term_loop(p, k_base, k):
    # every member of the pencil, read off the kept symbolic matrix in one
    # stacked evaluation, against the term loop over Q0 and Q1; its block on
    # u = 0 against the restricted conic s*q0 + t*q1
    for seed in range(10):
        nf = random_threefold_through_plane(field(p, k_base), random.Random(seed))
        L = nf.K.extension(k)
        nfd = nf.embedded(L)
        q0, q1 = nfd.restricted_conics
        params = list(projective_reps(L, 1))
        fibers = pencil_fibers(nf, L, params)
        assert [(f.K, f.s, f.t) for f in fibers] == [(L, s, t) for s, t in params]
        for f in fibers:
            assert np.array_equal(f.matrix, pencil_quadric(nfd, f.s, f.t).symmetric_matrix())
            conic = q0.scaled(f.s).plus(q1.scaled(f.t))
            assert np.array_equal(f.matrix[1:, 1:], conic.symmetric_matrix())
        with pytest.raises(ValueError):
            pencil_fibers(nf, L, [(1, 0), (0, 0)])


def test_fiber_quadric_divides_the_cubic():
    # f(su, tu, x2, x3, x4) = u * R_{s,t}(u, x2, x3, x4)
    K = field(7)
    rng = random.Random(3)
    nf = random_threefold_through_plane(K, rng)
    for _ in range(25):
        s, t = K.random_element(rng), K.random_element(rng)
        if s == 0 and t == 0:
            continue
        fib = one_fiber(nf, s, t)
        u, x2, x3, x4 = (K.random_element(rng) for _ in range(4))
        lhs = nf.f.evaluate((K.mul_(s, u), K.mul_(t, u), x2, x3, x4))
        rhs = K.mul_(u, quadric_of_matrix(K, fib.matrix).evaluate((u, x2, x3, x4)))
        assert lhs == rhs


def test_fiber_matrix_represents_quadric():
    K = field(5)
    rng = random.Random(4)
    nf = random_threefold_through_plane(K, rng)
    M = one_fiber(nf, 2, 3).matrix
    assert np.array_equal(M, M.T)
    for _ in range(20):
        v = [K.random_element(rng) for _ in range(4)]
        acc = 0
        for i in range(4):
            for j in range(4):
                acc = K.add_(acc, K.mul_(K.mul_(int(M[i, j]), v[i]), v[j]))
        assert acc == pencil_quadric(nf, 2, 3).evaluate(v)


def test_fiber_scaling_keeps_projective_data():
    K = field(7)
    rng = random.Random(5)
    nf = random_threefold_through_plane(K, rng)
    disc = discriminant(nf)
    for lam in range(2, 7):
        a = one_fiber(nf, 1, 4)
        b = one_fiber(nf, lam, K.mul_(lam, 4))
        assert rank(K, a.matrix) == rank(K, b.matrix)
        # disc scales by lambda^6
        v1 = disc.form.evaluate((1, 4))
        v2 = disc.form.evaluate((lam, K.mul_(lam, 4)))
        assert v2 == K.mul_(K.pow_(lam, 6), v1)


def test_fiber_rejects_origin():
    nf = random_threefold_through_plane(field(3), random.Random(0))
    with pytest.raises(ValueError):
        pencil_fibers(nf, nf.K, [(0, 0)])


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7])
def test_discriminant_matches_pointwise_determinants(p):
    # the symbolic sextic against the numeric determinant at every (s:t)
    K = field(p)
    nf = general_example(p)
    disc = discriminant(nf)
    assert disc.form.degree == 6
    for s, t in projective_reps(K, 1):
        assert disc.form.evaluate((s, t)) == det(K, one_fiber(nf, s, t).matrix)


def test_discriminant_interpolation_oracle():
    # reconstruct the 7 coefficients from evaluations (Lagrange / Vandermonde)
    K = field(7)
    nf = general_example(7)
    disc = discriminant(nf)
    pts = [(1, t) for t in range(7)] + [(0, 1)]
    rows, rhs = [], []
    for s, t in pts:
        rows.append([K.mul_(K.pow_(s, 6 - i), K.pow_(t, i)) for i in range(7)])
        rhs.append(det(K, one_fiber(nf, s, t).matrix))
    sol = solve(K, np.array(rows, dtype=np.int64), np.array(rhs, dtype=np.int64))
    assert sol is not None
    assert [int(c) for c in sol] == disc.form.coeffs.tolist()


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_discriminant_matches_the_cofactor_oracle(p, k):
    # over F_3 and F_5 the sextic is interpolated over F_9 and F_25
    K = field(p, k)
    for seed in range(6):
        nf = random_threefold_through_plane(K, random.Random(seed))
        expected = det_form_matrix(K, 2, nf.pencil_matrix)
        if expected.is_zero:
            with pytest.raises(NotGeneral):
                discriminant(nf)
        else:
            assert discriminant(nf).form == expected


def test_discriminant_rejects_identically_zero():
    # f = x0*x2^2 + x1*x3^2: every fiber matrix is singular
    K = field(5)
    nf = make_nf(K, {(2, 0, 0): 1}, {(0, 2, 0): 1})
    with pytest.raises(NotGeneral):
        discriminant(nf)


def test_discriminant_nonreduced_detected():
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
    from cubicfano.projective import LinearSubspace
    from cubicfano.threefold import normalize

    rows = np.zeros((3, 5), dtype=np.int64)
    rows[0, 2] = rows[1, 3] = rows[2, 4] = 1
    nf = normalize(f, LinearSubspace(K, rows))
    disc = discriminant(nf)
    assert not disc.reduced


# ---------------------------------------------------------------------------
# lines on quadric surfaces
# ---------------------------------------------------------------------------


_LINES_OF_P3: dict = {}


def brute_lines(K, quadric):
    """Every line of P^3 on which the quadric vanishes at all q+1 points, as RREF rows."""
    if K not in _LINES_OF_P3:
        lines = list(enumerate_lines(K, 3))
        _LINES_OF_P3[K] = (lines, np.concatenate([line.points_array() for line in lines]))
    lines, points = _LINES_OF_P3[K]
    on = ~quadric.evaluate_batch(points).reshape(len(lines), K.q + 1).any(axis=1)
    return sorted(line.rows for line, keep in zip(lines, on) if keep)


def hand_quadric(K, terms):
    return HomogeneousForm(K, 4, 2, terms)


def sym_matrix(K, quadric):
    half = K.inverse(2 % K.p)
    M = np.zeros((4, 4), dtype=np.int64)
    for e, c in quadric.terms.items():
        idx = [i for i, v in enumerate(e) for _ in range(v)]
        i, j = idx
        if i == j:
            M[i, i] = c
        else:
            M[i, j] = M[j, i] = K.mul_(c, half)
    return M


def fiber_lines(c):
    """The lines of a ruling class of a fiber over (1:0), in fiber coordinates.

    Over (1:0) an ambient row is (u, 0, x2, x3, x4), so dropping the zero
    column leaves the fiber row, still in RREF.
    """
    return [ProjectiveLine(c.K, tuple(row[:1] + row[2:] for row in line.rows)) for line in c.lines]


def ruling_rows(K, quadric):
    """Rows, in fiber coordinates, of every line in the rulings of the quadric."""
    classes = rulings_of_fiber(PencilFiber(K, 1, 0, quadric.symmetric_matrix()))
    return sorted(line.rows for c in classes for line in fiber_lines(c))


@pytest.mark.parametrize("p", [3, 5])
def test_lines_on_split_quadric_match_brute_force(p):
    # v0 v3 - v1 v2: the standard split quadric, 2(q+1) lines
    K = field(p)
    q = hand_quadric(K, {(1, 0, 0, 1): 1, (0, 1, 1, 0): K.neg_(1)})
    got = ruling_rows(K, q)
    assert len(got) == 2 * (K.q + 1)
    assert got == brute_lines(K, q)


@pytest.mark.parametrize("p", [3, 5])
def test_lines_on_cone_match_brute_force(p):
    # v0 v1 - v2^2: a rank-3 cone with vertex (0:0:0:1)
    K = field(p)
    q = hand_quadric(K, {(1, 1, 0, 0): 1, (0, 0, 2, 0): K.neg_(1)})
    got = ruling_rows(K, q)
    assert len(got) == K.q + 1
    assert got == brute_lines(K, q)


def test_lines_on_elliptic_quadric_empty():
    # v0^2 + v1^2 + v2^2 + 2 v3^2 over F3 has nonsquare determinant
    K = field(3)
    q = hand_quadric(K, {(2, 0, 0, 0): 1, (0, 2, 0, 0): 1, (0, 0, 2, 0): 1, (0, 0, 0, 2): 2})
    assert int(det(K, sym_matrix(K, q))) == 2  # nonsquare mod 3
    got = ruling_rows(K, q)
    assert got == []
    assert brute_lines(K, q) == []


def test_lines_rejects_low_rank():
    K = field(5)
    q = hand_quadric(K, {(1, 1, 0, 0): 1})
    with pytest.raises(NotGeneral):
        rulings_of_fiber(PencilFiber(K, 1, 0, q.symmetric_matrix()))


def _skew(K, a, b):
    return rank(K, np.array(a + b, dtype=np.int64)) == 4


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_rulings_match_brute_force_on_every_fiber(p, k):
    # the union of the rulings is every line of the fiber, and on a smooth
    # fiber the classes are the partition by disjointness: two lines of a
    # smooth quadric lie in one ruling iff they are equal or skew
    K = field(p, k)
    kinds = set()
    for seed in range(4):
        nf = random_threefold_through_plane(K, random.Random(seed))
        for s, t in projective_reps(K, 1):
            fiber = one_fiber(nf, s, t)
            r = rank(K, fiber.matrix)
            if r <= 2:
                continue
            classes = rulings_of_fiber(fiber)
            brute = brute_lines(K, pencil_quadric(nf, s, t))
            got = [frozenset(line.rows for line in c.lines) for c in classes]
            if r == 3:
                kinds.add("cone")
                expect = [brute]
            elif brute:
                kinds.add("split")
                first = brute[0]
                same = [rows for rows in brute if rows == first or _skew(K, first, rows)]
                expect = [same, [rows for rows in brute if rows not in same]]
            else:
                kinds.add("nonsplit")
                expect = []
            assert set(got) == {frozenset(fiber.ambient_lines([rows])[0].rows for rows in group) for group in expect}
            assert len(got) == len(expect)
    assert kinds == {"cone", "split", "nonsplit"}


@pytest.mark.parametrize("p", [3, 5])
def test_ambient_line_is_canonical_without_rref_over_a_normalized_base_point(p, monkeypatch):
    K = field(p)
    quadric = hand_quadric(K, {(1, 0, 0, 1): 1, (0, 1, 1, 0): K.neg_(1)})
    lines = [line.rows for line in enumerate_lines(K, 3)]
    for s, t in projective_reps(K, 1):
        for scale in (1, 2):
            fiber = PencilFiber(K, K.mul_(scale, s), K.mul_(scale, t), quadric.symmetric_matrix())
            want = [_canonical_rows(K, fiber.ambient_rows(rows), expect_rank=2) for rows in lines]
            calls = []
            monkeypatch.setattr(projective, "rref", lambda K, mat: calls.append(mat) or rref(K, mat))
            got = [fiber.ambient_lines([rows])[0].rows for rows in lines]
            monkeypatch.undo()
            assert got == want
            assert len(calls) == (0 if scale == 1 else len(lines))


def test_ruling_check_catches_a_line_in_the_wrong_ruling():
    # the stacked pairing check, on the same fiber twice: the rulings as built,
    # one line moved to the other ruling, and one line of each swapped
    K = field(5)
    q = hand_quadric(K, {(1, 0, 0, 1): 1, (0, 1, 1, 0): K.neg_(1)})
    rulings = [fiber_lines(c) for c in rulings_of_fiber(PencilFiber(K, 1, 0, q.symmetric_matrix()))]
    rows = np.array([[line.rows for ruling in rulings for line in ruling]] * 2)
    labels = np.repeat([0, 1], K.q + 1)
    _check_pairings(K, rows, labels)
    moved = labels.copy()
    moved[0] = 1
    with pytest.raises(InternalInconsistency, match="meet"):
        _check_pairings(K, rows, moved)
    swapped = labels.copy()
    swapped[[0, K.q + 1]] = [1, 0]
    with pytest.raises(InternalInconsistency, match="meet"):
        _check_pairings(K, rows, swapped)


@pytest.mark.parametrize("p,k_base,k", [(3, 1, 1), (5, 1, 1), (7, 1, 1), (3, 2, 1), (11, 1, 1), (3, 1, 2), (5, 1, 2)])
def test_stacked_rulings_match_the_one_fiber_oracle(p, k_base, k):
    # all fibers of a field at once give the classes the tangent-conic
    # construction gives one fiber at a time, in the same order, and refuse a
    # rank <= 2 fiber with the oracle's message
    kinds = set()
    for seed in range(20):
        nf = random_threefold_through_plane(field(p, k_base), random.Random(seed))
        L = nf.K.extension(k)
        fibers = pencil_fibers(nf, L, projective_reps(L, 1))
        try:
            expected = [rulings_by_tangent_conics(fiber) for fiber in fibers]
        except NotGeneral as exc:
            with pytest.raises(NotGeneral) as raised:
                rulings_of_fibers(fibers)
            assert str(raised.value) == str(exc)
            continue
        got = rulings_of_fibers(fibers)
        assert len(got) == len(expected)
        for fiber, mine, theirs in zip(fibers, got, expected):
            assert [(c.s, c.t, c.index, c.is_cone, c.lines) for c in mine] == [
                (c.s, c.t, c.index, c.is_cone, c.lines) for c in theirs
            ]
            assert all(c.K is fiber.K for c in mine)
            kinds.add("cone" if rank(L, fiber.matrix) == 3 else ("split" if theirs else "nonsplit"))
    assert kinds == {"cone", "split", "nonsplit"}


def test_a_surface_builds_its_rulings_in_one_stacked_call(monkeypatch):
    calls = []

    def stacked(fibers):
        fibers = list(fibers)
        calls.append(len(fibers))
        return rulings_of_fibers(fibers)

    def one_fiber(fiber):
        raise AssertionError("a surface built the rulings of one fiber")

    monkeypatch.setattr(fano, "rulings_of_fibers", stacked)
    monkeypatch.setattr(fano, "rulings_of_fiber", one_fiber)
    monkeypatch.setattr(pencil, "rulings_of_fiber", one_fiber)
    nf = general_example(5)
    surface = fano.FanoSurface(nf, 1)
    assert calls == [6]
    assert len(surface.curve_points) == sum(len(classes) for classes in surface.rulings.values())


# ---------------------------------------------------------------------------
# rulings and the curve C
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5])
def test_ruling_count_tracks_character_of_discriminant(p):
    K = field(p)
    nf = general_example(p)
    disc = discriminant(nf)
    for s, t in projective_reps(K, 1):
        classes = rulings_of_fiber(one_fiber(nf, s, t))
        assert len(classes) == 1 + K.chi_(disc.form.evaluate((s, t)))
        for c in classes:
            if c.is_cone:
                assert disc.form.evaluate((s, t)) == 0
                assert len(c.lines) == K.q + 1
            else:
                assert len(c.lines) == K.q + 1


def test_ruling_lines_lie_on_the_cubic():
    K = field(5)
    nf = general_example(5)
    for s, t in projective_reps(K, 1):
        for c in rulings_of_fiber(one_fiber(nf, s, t)):
            for line in c.lines:
                for pt in line.points():
                    assert nf.f.evaluate(pt.coords) == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_match_models_on_general_examples(p):
    nf = general_example(p)
    model = HyperellipticModel(discriminant(nf))
    assert match_models(nf, model)


def test_count_points_naive_double_loop():
    # spec oracle: count pairs (s:t, y) with y^2 = disc(s,t) directly
    for p in (3, 5, 7):
        K = field(p)
        nf = general_example(p)
        model = HyperellipticModel(discriminant(nf))
        for k in (1, 2):
            L = field(K.p, k)
            sextic = model.disc.form.embedded(L)
            naive = 0
            for s, t in projective_reps(L, 1):
                v = sextic.evaluate((s, t))
                naive += sum(1 for y in range(L.q) if L.mul_(y, y) == v)
            assert naive == count_points_C(model, k)


def test_match_models_negative_control():
    # twisting the sextic by a nonsquare changes the counts (unless N1 = q+1)
    K = field(5)
    nf = general_example(5)
    model = HyperellipticModel(discriminant(nf))
    z = zeta(model)
    nonsquare = next(a for a in range(2, K.q) if K.chi_(a) == -1)
    from cubicfano.pencil import DiscriminantSextic

    twisted = HyperellipticModel(DiscriminantSextic(model.disc.form.scaled(nonsquare)))
    if z.N1 != K.q + 1 or z.N2 != K.q**2 + 1:
        assert not match_models(nf, twisted)
    else:  # pragma: no cover - would need a different sample
        pytest.skip("twist-invariant point counts; pick another example")


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zeta_identities(p):
    nf = general_example(p)
    model = HyperellipticModel(discriminant(nf))
    z = zeta(model)
    q = p
    # h = (N1^2 + N2)/2 - q, the classical genus-2 identity
    assert (z.N1**2 + z.N2) % 2 == 0
    assert z.h == (z.N1**2 + z.N2) // 2 - q
    # Newton bookkeeping agrees with direct evaluations of the numerator
    assert class_number_over_extension(z, q, 1) == z.h
    pminus = 1 - z.c1 + z.c2 - q * z.c1 + q * q
    assert class_number_over_extension(z, q, 2) == z.h * pminus
    assert z.c1 * z.c1 <= 16 * q


def test_zeta_requires_reduced_discriminant():
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
    from cubicfano.projective import LinearSubspace
    from cubicfano.threefold import normalize

    rows = np.zeros((3, 5), dtype=np.int64)
    rows[0, 2] = rows[1, 3] = rows[2, 4] = 1
    nf = normalize(f, LinearSubspace(K, rows))
    with pytest.raises(NotGeneral):
        zeta(HyperellipticModel(discriminant(nf)))


def test_operational_points_are_distinct():
    nf = general_example(5)
    pts = operational_curve_points(nf, 1)
    assert len(set(pts)) == len(pts)
