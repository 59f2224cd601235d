"""Line classification against the plane, ruling operators, and involutions."""

import dataclasses
import hashlib
import itertools
import random

import numpy as np
import pytest

from cubicfano import fano, linalg, projective
from cubicfano.errors import (
    InternalInconsistency,
    InvalidInput,
    NotGeneral,
    NotSupportedError,
    PlaneContained,
    ResampleRequired,
)
from cubicfano.fano import (
    DISJOINT,
    IN_PLANE,
    MEETS_PLANE,
    FanoSurface,
    TorsorPoint,
    _CHART_FRAMES,
    _chart_rows,
    _count_degenerate_conic_lines,
    _hyperplane_frames,
    _node_pairs,
    _quadric_zeros,
    _sigma_sigma_counts,
    decompose,
    lines_on_cubic_surface_section,
    surface_of,
    verify_intersection_numbers,
)
from cubicfano.forms import HomogeneousForm, random_form
from cubicfano.fourfold import dual_line_rows
from cubicfano.gf import field
from cubicfano.linalg import det, inverse_matrix, kernel_basis, mat_mul, rank
from cubicfano.pencil import pencil_fibers, rulings_of_fiber
from cubicfano.projective import (
    LinearSubspace,
    ProjectiveLine,
    ProjectivePoint,
    enumerate_lines,
    line_meets,
    normalize_point,
    projective_reps,
    span,
)
from cubicfano.threefold import compute_Z, normalize, random_general_threefold, random_threefold_through_plane
from cubicfano.torsor import TorsorGroup, torsor_group

from reference_impl import (
    cone_tangent_plane_by_kernel,
    conic_component_lines_by_scan,
    disjoint_rows_by_diagonal_sieve,
    involution_by_step,
    involution_tables_by_steps,
    line_count_by_point_counts,
    plane_line_fiber_by_minors,
    quadric_of_matrix,
    split_conic_at_by_scan,
    transversal_counts_by_pair_scan,
)
from test_pencil import general_example


def seeded_example(p, seed):
    """A certified-general threefold over F_p from a fixed seed."""
    return random_general_threefold(field(p), random.Random(seed))


# node degree profiles of the fixed seeds, found by scanning compute_Z:
#   (3, 2) and (5, 44) and (7, 29): four rational nodes
#   (5, 2): two rational nodes and a conjugate quadratic pair
#   (5, 9): a single quartic orbit
# general_example(3): two quadratic pairs; general_example(5): nonreduced Z.


def brute_rows_and_tags(nf, k=1):
    """Oracle: restrict the cubic to every line of P^4 and classify directly."""
    nfk = nf.embedded(nf.K.extension(k))
    L = nfk.K
    tags = {IN_PLANE: 0, MEETS_PLANE: 0, DISJOINT: 0}
    rows = {}
    for line in enumerate_lines(L, 4):
        if nfk.f.restrict(line.matrix).is_zero:
            m = np.array([[r[0] for r in line.rows], [r[1] for r in line.rows]], dtype=np.int64)
            tag = {2: IN_PLANE, 1: MEETS_PLANE, 0: DISJOINT}[2 - rank(L, m)]
            rows[line.rows] = tag
            tags[tag] += 1
    return rows, tags


# ---------------------------------------------------------------------------
# enumeration against the brute-force oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "make",
    [lambda: seeded_example(3, 2), lambda: general_example(3), lambda: seeded_example(5, 44)],
    ids=["rational-nodes-q3", "conjugate-nodes-q3", "rational-nodes-q5"],
)
def test_enumeration_matches_brute_force(make):
    nf = make()
    oracle, _ = brute_rows_and_tags(nf)
    lines = FanoSurface(nf, 1).lines
    assert {cl.line.rows for cl in lines} == set(oracle)
    for cl in lines:
        assert cl.tag == oracle[cl.line.rows]


# fields (p, k) and surface degrees of the chart checks, each on seeds 1 and 2
CHART_CASES = [(p, k, 1) for p, k in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1))] + [(3, 1, 2), (5, 1, 2)]


@pytest.mark.parametrize("p, k, d", CHART_CASES)
def test_chart_matches_the_diagonal_sieve(p, k, d):
    for seed in (1, 2):
        surf = FanoSurface(random_general_threefold(field(p, k), random.Random(seed)), d)
        got = {cl.line.rows for cl in surf.lines if cl.tag == DISJOINT}
        assert got == set(disjoint_rows_by_diagonal_sieve(surf.nf))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2)])
def test_chart_inside_a_hyperplane_matches_the_diagonal_sieve(p, k):
    nf = random_general_threefold(field(p, k), random.Random(1))
    L, rng = nf.K, random.Random(p + k)
    gradient = [nf.f.derivative(i) for i in range(5)]
    for _ in range(6):
        lam = [L.random_element(rng) for _ in range(5)]
        lam[2 + rng.randrange(3)] = rng.randrange(1, L.q)
        got = _chart_rows(L, nf.f, gradient, _hyperplane_frames(L, lam))
        assert sorted(got) == sorted(disjoint_rows_by_diagonal_sieve(nf, np.array(lam)))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2)])
def test_quadric_zeros_match_the_grid_scan(p, k):
    # random quadrics, and ones that vanish on whole lines of the grids
    K = field(p, k)
    rng = random.Random(p * k)
    forms = [random_form(K, 5, 2, rng) for _ in range(3)] + [
        HomogeneousForm.monomial(K, 5, (0, 0, 1, 1, 0)),
        HomogeneousForm.monomial(K, 5, (0, 0, 0, 0, 2)),
        HomogeneousForm.zero(K, 5, 2),
    ]
    lam = [K.random_element(rng) for _ in range(2)] + [1, K.random_element(rng), K.random_element(rng)]
    for frames in (_CHART_FRAMES, _hyperplane_frames(K, lam)):
        r = frames.shape[1] - 2
        coords = np.array(list(itertools.product(range(K.q), repeat=r + 1)), dtype=np.int64)
        for f in forms:
            for frame, got in zip(frames, _quadric_zeros(K, f, frames)):
                points = np.broadcast_to(frame[0], (len(coords), 5))
                for i in range(r + 1):
                    points = K.add(points, K.mul(coords[:, i, None], frame[1 + i]))
                expected = points[f.evaluate_batch(points) == 0]
                assert sorted(map(tuple, got.tolist())) == sorted(map(tuple, expected.tolist()))


FROZEN_COUNTS = {
    # (p, seed or None for general_example): in_plane, meets, disjoint, rational nodes
    (3, 2): (13, 14, 4, 4),
    (3, None): (13, 14, 13, 0),
    (5, 44): (31, 30, 8, 4),
    (5, 2): (31, 46, 30, 2),
    (5, 9): (31, 24, 17, 0),
    (5, None): (31, 50, 31, 3),
    (7, 29): (57, 58, 31, 4),
}


@pytest.mark.parametrize("key", sorted(FROZEN_COUNTS, key=str))
def test_tag_counts_frozen(key):
    p, seed = key
    nf = general_example(p) if seed is None else seeded_example(p, seed)
    surf = FanoSurface(nf, 1)
    got = {IN_PLANE: 0, MEETS_PLANE: 0, DISJOINT: 0}
    for cl in surf.lines:
        got[cl.tag] += 1
    n_in, n_meets, n_dis, n_nodes = FROZEN_COUNTS[key]
    assert (got[IN_PLANE], got[MEETS_PLANE], got[DISJOINT]) == (n_in, n_meets, n_dis)
    assert len(surf.nodes) == n_nodes
    assert got[IN_PLANE] == nf.K.q**2 + nf.K.q + 1


def test_enumeration_over_extension_contains_embedded_lines():
    nf = seeded_example(3, 2)
    surf1 = FanoSurface(nf, 1)
    surf2 = FanoSurface(nf, 2)
    assert len(surf2.lines) == 299
    for cl in surf1.lines:
        rows = surf1.L.lift(cl.line.rows, surf2.L)
        assert surf2.by_rows[rows].tag == cl.tag


def test_meets_lines_lie_in_exactly_one_fiber():
    # fiber membership is quadric AND hyperplane: a line on the base locus of
    # the quadric pencil satisfies the first condition for every (s : t)
    nf = seeded_example(5, 44)
    K = nf.K
    surf = FanoSurface(nf, 1)
    for cl in surf.lines:
        containing = []
        for s, t in sorted(surf.fibers):
            G = nf.Q0.scaled(s).plus(nf.Q1.scaled(t))
            in_hyperplane = all(
                K.add_(K.mul_(t, row[0]), K.neg_(K.mul_(s, row[1]))) == 0 for row in cl.line.rows
            )
            if in_hyperplane and G.restrict(cl.line.matrix).is_zero:
                containing.append((s, t))
        if cl.tag == MEETS_PLANE:
            assert containing == [cl.fiber]
            assert cl.meets_at[:2] == (0, 0) and cl.line.contains(ProjectivePoint(surf.L, cl.meets_at))
        elif cl.tag == IN_PLANE:
            assert containing == ([cl.fiber] if cl.fiber is not None else [])
        else:
            assert containing == []


# (p, k of the base field, working degree): seeds, among them seeds whose
# surface build raises (q = 3 seed 12 and q = 5 seed 16 on a fiber of rank 2,
# F_9 seed 0 on a node of degree 3)
PLANE_FIBER_SEEDS = {
    (3, 1, 1): range(13),
    (5, 1, 1): (0, 1, 2, 16),
    (7, 1, 1): range(3),
    (3, 2, 1): range(3),
    (11, 1, 1): range(2),
    (3, 1, 2): (1, 2, 12),
    (5, 1, 2): range(2),
}


@pytest.mark.parametrize("key", sorted(PLANE_FIBER_SEEDS), ids=lambda key: "q%d^%d-k%d" % key)
def test_plane_lines_take_their_fiber_from_the_rulings(key):
    # the fiber and ruling index of every line of P match the minors of its
    # restricted conics; a build that raises raises what Z or a fiber raises
    p, k_base, k = key
    for seed in PLANE_FIBER_SEEDS[key]:
        nf = random_threefold_through_plane(field(p, k_base), random.Random(seed))
        nf_L = nf.embedded(nf.K.extension(k))
        try:
            compute_Z(nf)
            fibers = pencil_fibers(nf, nf_L.K, projective_reps(nf_L.K, 1))
            rulings = {(f.s, f.t): rulings_of_fiber(f) for f in fibers}
        except (NotGeneral, NotSupportedError) as exc:
            with pytest.raises(type(exc)) as raised:
                FanoSurface(nf, k)
            assert str(raised.value) == str(exc)
            continue
        surf = FanoSurface(nf, k)
        q0, q1 = nf_L.restricted_conics
        plane_lines = [cl for cl in surf.lines if cl.tag == IN_PLANE]
        assert len(plane_lines) == surf.L.q**2 + surf.L.q + 1
        for cl in plane_lines:
            inner = tuple(row[2:] for row in cl.line.rows)
            assert (cl.fiber, cl.ruling_index) == plane_line_fiber_by_minors(surf.L, q0, q1, inner, rulings)


def test_nodes_are_singular_points_on_every_fiber_quadric():
    for nf in (seeded_example(3, 2), seeded_example(5, 44)):
        surf = FanoSurface(nf, 1)
        assert surf.nodes
        for _z, amb in surf.nodes:
            for i in range(5):
                assert nf.f.derivative(i).evaluate(amb) == 0
            for s, t in surf.fibers:
                G = nf.Q0.scaled(s).plus(nf.Q1.scaled(t))
                assert G.evaluate(amb) == 0


# ---------------------------------------------------------------------------
# ruling operators
# ---------------------------------------------------------------------------


def test_tau_lines_pass_through_the_node_and_are_distinct():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    for z, amb in surf.nodes:
        pt = ProjectivePoint(surf.L, amb)
        lines = []
        for c in surf.curve_points:
            t = surf.tau(z, c)
            assert t in c.lines and t.contains(pt)
            lines.append(t)
        assert len(set(lines)) == len(lines)


def test_sigma_meets_both_the_line_and_the_ruling():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    disjoint = [cl.line for cl in surf.lines if cl.tag == DISJOINT]
    for line in disjoint[:4]:
        for c in surf.curve_points:
            m = surf.sigma(line, c)
            assert m in c.lines and line_meets(line, m)
            assert sum(1 for other in c.lines if line_meets(line, other)) == 1


def test_sigma_rejects_lines_touching_the_plane():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    in_plane = next(cl.line for cl in surf.lines if cl.tag == IN_PLANE)
    with pytest.raises(ValueError):
        surf.sigma(in_plane, surf.curve_points[0])


@pytest.mark.parametrize("seed, k", [(2, 1), (7, 1), (8, 1), (2, 2)])
def test_sigma_and_tau_match_the_incidence_scan(seed, k):
    # every (line, class) pair against the rank-based scan over the ruling:
    # one hit is the answer, several are a cone vertex, none is inconsistent
    surf = FanoSurface(seeded_example(3, seed), k)

    def outcome(op, *args):
        try:
            return op(*args).rows
        except (ResampleRequired, NotGeneral, InternalInconsistency) as exc:
            return type(exc).__name__

    def scan(hits, several):
        if len(hits) == 1:
            return hits[0].rows
        return several if hits else "InternalInconsistency"

    seen = []
    for cl in surf.lines:
        if cl.tag == DISJOINT:
            for c in surf.curve_points:
                hits = [m for m in c.lines if line_meets(cl.line, m)]
                seen.append(outcome(surf.sigma, cl.line, c))
                assert seen[-1] == scan(hits, "ResampleRequired")
    for z, amb in surf.nodes:
        pt = ProjectivePoint(surf.L, amb)
        for c in surf.curve_points:
            hits = [ln for ln in c.lines if ln.contains(pt)]
            seen.append(outcome(surf.tau, z, c))
            assert seen[-1] == scan(hits, "NotGeneral")
    assert len(seen) >= 20


def run_roundtrips(surf, cap):
    """psi after phi must reproduce the line (embedded when conjugate)."""
    disjoint = [cl.line for cl in surf.lines if cl.tag == DISJOINT]
    stats = {"same": 0, "conjugate": 0, "double": 0}
    for z, _amb in surf.nodes:
        for line in disjoint[:cap]:
            pair = surf.phi(z, line)
            assert sum(m for _, m in pair) == 2
            if len(pair) == 1:
                c = d = pair[0][0]
                stats["double"] += 1
            else:
                (c, m1), (d, m2) = pair
                assert m1 == m2 == 1
            res = surf.psi(z, c, d)
            if c.K is surf.L:
                stats["same"] += 1
                expect = line.rows
            else:
                stats["conjugate"] += 1
                expect = surf.L.lift(line.rows, c.K)
            assert res.line.rows == expect
    return stats


def test_phi_psi_roundtrip_rational_and_conjugate_pairs():
    stats3 = run_roundtrips(FanoSurface(seeded_example(3, 2), 1), cap=4)
    stats5 = run_roundtrips(FanoSurface(seeded_example(5, 2), 1), cap=6)
    assert stats3["double"] >= 1  # branch points force the first-order limit
    assert stats3["conjugate"] >= 1 and stats5["conjugate"] >= 1
    assert stats5["same"] >= 1


def test_psi_of_opposite_rulings_degenerates_into_the_plane():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    checked = 0
    for z, _amb in surf.nodes:
        for key in surf.fibers:
            classes = surf.rulings[key]
            if len(classes) != 2:
                continue
            try:
                res = surf.psi(z, classes[0], classes[1])
            except (ResampleRequired, PlaneContained):
                continue
            assert surf.classified(res.line).tag == IN_PLANE
            checked += 1
    assert checked >= 4


# ---------------------------------------------------------------------------
# involutions
# ---------------------------------------------------------------------------


def test_involution_tables_are_involutive_permutations():
    cases = [
        (FanoSurface(seeded_example(3, 2), 1), [(1, 0, 0)], 16),
        (FanoSurface(seeded_example(5, 2), 1), [(0, 1, 0), (1, 1, 0), (1, 1, 1)], 46),
    ]
    for surf, keys, size in cases:
        assert len(surf.torsor_set) == size
        by_key = {(c.s, c.t, c.index): c for c in surf.curve_points}
        for key in keys:
            table = surf.j_table(by_key[key])
            assert len(table) == size
            assert set(table.values()) == set(table)
            for x, y in table.items():
                assert table[y] == x


def test_every_letter_without_excluded_output_gives_a_table():
    # with no node on the curve side, involutions rarely hit the plane
    surf = FanoSurface(general_example(3), 1)
    assert len(surf.torsor_set) == 13
    usable = 0
    for c in surf.curve_points:
        try:
            table = surf.j_table(c)
        except ResampleRequired:
            continue
        usable += 1
        assert len(table) == 13 and set(table.values()) == set(table)
    assert usable >= 4


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1)])
def test_node_scheme_surface_and_dual_lines_take_no_row_reduction(monkeypatch, p, k):
    # the flats they build (the unit vectors completing a conic point, the
    # rows of each dual line) are closed forms; a first call builds the
    # cached interpolation bases, which are row reductions
    K = field(p, k)
    duals = list(projective_reps(K, 2))
    original = linalg.rref
    reduced = []
    built = 0
    for seed in range(4):
        try:
            nf = random_general_threefold(K, random.Random(seed))
        except NotSupportedError:
            continue  # F_9 seeds 0 and 3: a node of degree 3 or 4
        for counted in (False, True):
            with monkeypatch.context() as patch:
                if counted:
                    for module in (linalg, projective):
                        patch.setattr(module, "rref", lambda K, mat: reduced.append(mat) or original(K, mat))
                compute_Z(nf)
                FanoSurface(nf, 1)
                for lam in duals:
                    dual_line_rows(K, lam)
        built += 1
    assert built >= 2
    assert len(reduced) == 0


def test_the_cone_tangent_plane_is_the_kernel_of_the_tangent_row():
    # every (rational node, cone class) pair at q = 3, 5, 7, seeds 0-9; the
    # involution tables never reach this plane, since a cone class is its
    # own opposite and j_c sends its boundary lines to their nodes
    pairs = 0
    for p in (3, 5, 7):
        for seed in range(10):
            surf = FanoSurface(seeded_example(p, seed), 1)
            for z, _amb in surf.nodes:
                for c in (c for c in surf.curve_points if c.is_cone):
                    plane = surf._cone_tangent_plane(z, c)
                    assert plane == cone_tangent_plane_by_kernel(surf, z, c)
                    assert rank(surf.L, np.vstack([plane.matrix, surf.tau(z, c).matrix])) == 3
                    pairs += 1
    assert pairs == 49


def test_involution_of_a_node_is_the_opposite_ruling_line():
    surf = FanoSurface(seeded_example(5, 2), 1)
    c = surf.curve_points[0]
    node_pt = surf.torsor_set.nodes[0]
    out = surf.involution(c, node_pt)
    assert out.kind == "line"
    cl = surf.by_rows[out.rows]
    assert cl.meets_at == node_pt.node
    assert surf.ruling_of(cl).key == surf.other_ruling(c).key


def test_involutions_commute_through_the_node_pairing():
    # on a boundary line tau_z(d), applying j_c matches applying j_d to tau_z(c)
    surf = FanoSurface(seeded_example(5, 2), 1)
    by_key = {(c.s, c.t, c.index): c for c in surf.curve_points}
    c = by_key[(0, 1, 0)]
    d = by_key[(1, 1, 0)]
    checked = 0
    for z, _amb in surf.nodes:
        x_d = TorsorPoint("line", rows=surf.tau(z, d).rows)
        x_c = TorsorPoint("line", rows=surf.tau(z, c).rows)
        assert surf.involution(c, x_d) == surf.involution(d, x_c)
        checked += 1
    assert checked == 2


# a digest of every j_table of a surface (raised errors included), recorded
# from the one-plane-at-a-time residual solve
PINNED_J_TABLES = {
    (3, 1, 1): "ea7ebddd2366c9b8",
    (3, 1, 2): "f6dd66ae5c88393c",
    (3, 2, 1): "7d0d250d952b0a24",
    (3, 2, 2): "5cb9e832e536bbe7",
    (3, 4, 1): "00795453f7c307d4",
    (3, 4, 2): "80dfda5f353b8f17",
    (3, 5, 1): "c24b265e6ce364c8",
    (3, 5, 2): "489032754b6f3755",
    (3, 6, 1): "08e468004e478769",
    (3, 6, 2): "8e00a19a3d30876c",
    (3, 28, 1): "69a0fa2c9fa4affa",
    (3, 28, 2): "35c9d1cb67b4864b",
    (3, 29, 1): "708a2cce2a9290dc",
    (3, 29, 2): "77528e38795bd8e8",
    (5, 0, 1): "6d10990ba4b927e9",
    (5, 1, 1): "44cb156f2212b185",
    (5, 2, 1): "9eb19ddd58bc1d53",
    (7, 0, 1): "264f13a6669b112a",
    (7, 1, 1): "5be323f2e4bb8a82",
    (7, 2, 1): "2175584c43d964a3",
}


def _j_table_digest(surf):
    digest = hashlib.sha256()
    for c in surf.curve_points:
        try:
            got = ("ok", sorted((repr(x), repr(y)) for x, y in surf.j_table(c).items()))
        except Exception as exc:
            got = (type(exc).__name__, str(exc))
        digest.update(repr((c.key, got)).encode())
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("p, seed, k", sorted(PINNED_J_TABLES))
def test_j_tables_are_pinned(p, seed, k):
    surf = FanoSurface(seeded_example(p, seed), k)
    assert _j_table_digest(surf) == PINNED_J_TABLES[(p, seed, k)]


# the group-law seeds over F_3 (refusals, escalations and none) at k = 1 and 2,
# and three seeds over F_5 and F_7
ORACLE_CASES = [(3, seed, k) for seed in (1, 2, 4, 5, 6, 28, 29) for k in (1, 2)] + [
    (p, seed, 1) for p in (5, 7) for seed in range(3)
]


def _outcome(call, *args):
    try:
        return call(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)


def _scan_by_outcomes(surf, outcomes):
    """The excluded letters the letter scan finds from the given table outcomes, or its error."""
    excluded = []
    for c in surf.curve_points:
        for d in (c, surf.other_ruling(c)):
            out = outcomes[d.key]
            if isinstance(out, tuple):
                if out[0] != "ResampleRequired":
                    return out
                excluded.append(c.key)
                break
    if len(excluded) == len(surf.curve_points):
        return "ResampleRequired", "every ruling class hits the excluded locus"
    return excluded


@pytest.mark.parametrize("p, seed, k", ORACLE_CASES)
def test_stacked_tables_match_the_per_point_oracle(p, seed, k):
    # the tables of all classes in one pass (through the letter scan), and
    # one class at a time on a second surface, against the per-point steps
    nf = seeded_example(p, seed)
    surf = FanoSurface(nf, k)
    expected = involution_tables_by_steps(surf)
    if nf.Z.reduced:
        group = TorsorGroup(surf)
        scanned = _outcome(lambda: [c.key for c in group.excluded_letters])
        assert scanned == _scan_by_outcomes(surf, expected)
    else:
        surf.j_tables()
    single = FanoSurface(nf, k)
    for c in surf.curve_points:
        assert _outcome(surf.j_table, c) == expected[c.key]
        assert _outcome(single.j_table, c) == expected[c.key]
    # the one-point call, at every point of the first class
    c = surf.curve_points[0]
    for x in surf.torsor_set.points:
        assert _outcome(surf.involution, c, x) == _outcome(involution_by_step, surf, c, x)


def test_the_extension_letter_scan_solves_every_section_at_once(monkeypatch):
    # seed 2 escalates to F_9; its letter scan sends the sections of every
    # class through one section evaluation and one residual solve, and the
    # surface over F_9 builds the five gradient forms once, for its chart
    # and its scan alike, not per point
    base = torsor_group(seeded_example(3, 2))
    calls = {"plane_section_values": 0, "residual_from_values": 0, "derivative": 0}

    def spy(name, inner):
        def counted(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return counted

    for name in ("plane_section_values", "residual_from_values"):
        monkeypatch.setattr(fano, name, spy(name, getattr(fano, name)))
    monkeypatch.setattr(HomogeneousForm, "derivative", spy("derivative", HomogeneousForm.derivative))
    assert len(base.extension_group().letters) > 1
    assert calls == {"plane_section_values": 1, "residual_from_values": 1, "derivative": 5}


# Frobenius over F_3 on the torsor-ready set over F_9 fixes exactly the
# points over F_3, #T(F_3) of them
FIXED_BY_FROBENIUS = {2: 16, 4: 5, 5: 8, 28: 10, 29: 4}


@pytest.mark.parametrize("seed", sorted(FIXED_BY_FROBENIUS))
def test_frobenius_permutes_the_torsor_points_and_classes(seed):
    nf = seeded_example(3, seed)
    small, surf = FanoSurface(nf, 1), FanoSurface(nf, 2)
    ts, L = surf.torsor_set, surf.L
    arrays = surf._arrays
    frob_points, frob_classes = arrays.frob_points[1], arrays.frob_classes[1]
    # the moved coordinates of a node, and the moved rows of a line
    for x, y in zip(ts.points, frob_points.tolist()):
        moved = ts.points[y]
        assert moved.kind == x.kind
        if x.kind == "node":
            assert moved.node == tuple(L.frobenius(v) for v in x.node)
        else:
            assert moved.rows == tuple(tuple(L.frobenius(v) for v in row) for row in x.rows)
    assert (frob_points[:ts.n_nodes] < ts.n_nodes).all()
    fixed = {ts.points[i] for i in np.flatnonzero(frob_points == np.arange(len(ts)))}
    lifted = {
        fano.TorsorPoint(x.kind, None if x.rows is None else small.L.lift(x.rows, L), x.node and small.L.lift(x.node, L))
        for x in small.torsor_set.points
    }
    assert fixed == lifted and len(fixed) == FIXED_BY_FROBENIUS[seed]
    # the class of the moved lines, and the opposite class commutes with it
    classes = surf.curve_points
    for c, image in zip(classes, frob_classes.tolist()):
        moved = {tuple(tuple(L.frobenius(v) for v in row) for row in ln.rows) for ln in c.lines}
        assert moved == {ln.rows for ln in classes[image].lines}
        assert surf.other_ruling(classes[image]) == classes[frob_classes[classes.index(surf.other_ruling(c))]]


def test_a_residual_line_missing_from_the_line_search_is_an_internal_inconsistency(monkeypatch):
    # a disjoint line's image is the residual line of a plane section; when
    # the row-key search over the surface's lines does not find it, the
    # class fails there with the missing-line error, not with a wrong image
    surf = FanoSurface(seeded_example(3, 4), 1)
    ts, arrays = surf.torsor_set, surf._arrays
    c = surf.curve_points[0]
    perm = FanoSurface(seeded_example(3, 4), 1).j_perm(c)
    source = ts.n_nodes + ts.n_boundary
    target = arrays.point_line[perm[source] - ts.n_nodes]
    assert ts.points[source].kind == ts.points[perm[source]].kind == "line"
    find = arrays.lines.find

    def without_target(rows):
        found = find(rows)
        return np.where(found == target, -1, found)

    monkeypatch.setattr(arrays.lines, "find", without_target)
    with pytest.raises(InternalInconsistency, match="a line claimed to be on Y is missing from the enumeration"):
        surf.j_perm(c)


def test_a_frobenius_image_off_the_surface_is_an_internal_inconsistency():
    # drop from the surface over F_9 a line of P that lies in no fiber and is
    # not defined over F_3: Frobenius moves its conjugate onto it, off the
    # remaining lines
    surf = FanoSurface(seeded_example(3, 2), 2)
    L = surf.L
    moved = next(
        i
        for i, cl in enumerate(surf.lines)
        if cl.tag == IN_PLANE
        and cl.fiber is None
        and cl.line.rows != tuple(tuple(L.frobenius(v) for v in row) for row in cl.line.rows)
    )
    del surf.lines[moved]
    with pytest.raises(InternalInconsistency, match="Frobenius moves a node or a line off the surface"):
        surf.j_tables()


@pytest.mark.parametrize("p, seed", [(5, 2), (7, 0)])
def test_the_orbit_pass_matches_the_one_class_path(p, seed):
    # every class at once, read off by Frobenius orbit, against each class
    # worked in a pass of its own on a fresh surface, errors included
    nf = seeded_example(p, seed)
    tables = FanoSurface(nf, 2).j_tables()
    single = FanoSurface(nf, 2)
    assert any(isinstance(out, Exception) for out in tables.values())
    for c in single.curve_points:
        expected = _outcome(single.j_perm, c)
        got = tables[c.key]
        if isinstance(got, Exception):
            assert (type(got).__name__, str(got)) == expected
        else:
            assert np.array_equal(got, expected)


def test_tables_after_some_classes_were_built_alone():
    # classes built first by j_perm leave the later pass a batch that is not
    # closed under Frobenius; its pairs whose orbit starts outside it are
    # worked directly
    nf = seeded_example(3, 2)
    expected = FanoSurface(nf, 2).j_tables()
    surf = FanoSurface(nf, 2)
    for c in surf.curve_points[1::3]:
        _outcome(surf.j_perm, c)
    got = surf.j_tables()
    assert got.keys() == expected.keys()
    for key, out in expected.items():
        if isinstance(out, Exception):
            assert (type(got[key]), str(got[key])) == (type(out), str(out))
        else:
            assert np.array_equal(got[key], out)


def test_the_extension_tables_work_one_pair_per_frobenius_orbit(monkeypatch):
    # seed 2 over F_9 has 13 classes and 128 torsor points; Frobenius orbits
    # of its 1664 (class, point) pairs number 872, and only their least
    # pairs are worked
    worked = []
    to_work = fano._PairOutcomes.to_work

    def counted(self, mask):
        rows, cols = to_work(self, mask)
        worked.append(len(rows))
        return rows, cols

    monkeypatch.setattr(fano._PairOutcomes, "to_work", counted)
    surf = FanoSurface(seeded_example(3, 2), 2)
    assert (len(surf.curve_points), len(surf.torsor_set)) == (13, 128)
    surf.j_tables()
    assert 0 < sum(worked) <= 872
    assert _j_table_digest(surf) == PINNED_J_TABLES[(3, 2, 2)]


def test_frobenius_maps_that_are_no_permutations_raise():
    with pytest.raises(InternalInconsistency, match="must permute the torsor-ready set"):
        fano._powers(np.array([0, 0, 2]), 2, "torsor-ready set")
    with pytest.raises(InternalInconsistency, match="must fix the ruling classes"):
        fano._powers(np.array([1, 2, 0]), 2, "ruling classes")
    assert fano._powers(np.array([1, 0, 2]), 2, "ruling classes").tolist() == [[0, 1, 2], [1, 0, 2]]


def test_excluded_letters_raise_resample():
    surf = FanoSurface(seeded_example(5, 44), 1)
    by_key = {(c.s, c.t, c.index): c for c in surf.curve_points}
    with pytest.raises(ResampleRequired):
        surf.j_table(by_key[(0, 1, 0)])


def test_membership_errors():
    surf = FanoSurface(seeded_example(5, 44), 1)
    c = surf.curve_points[0]
    stranger = next(
        (0, 0) + pt for pt in projective_reps(surf.L, 2) if (0, 0) + pt not in surf.node_index
    )
    with pytest.raises(InvalidInput):
        surf.involution(c, TorsorPoint("node", node=stranger))
    off_surface = next(line for line in enumerate_lines(surf.L, 4) if line.rows not in surf.by_rows)
    with pytest.raises(InvalidInput):
        surf.involution(c, TorsorPoint("line", rows=off_surface.rows))
    gen = FanoSurface(general_example(3), 1)
    with pytest.raises(InvalidInput):
        gen.node_coords(gen.Z.points[0])  # quadratic node, not rational here


def test_nonreduced_node_scheme_is_enumerated_but_flagged():
    nf = general_example(5)
    Z = compute_Z(nf)
    assert not Z.reduced
    surf = FanoSurface(nf, 1)
    assert len(surf.lines) == 112
    assert sorted(z.multiplicity for z, _ in surf.nodes) == [1, 1, 2]


# ---------------------------------------------------------------------------
# boundary decomposition
# ---------------------------------------------------------------------------


FROZEN_DECOMPOSE = {
    (3, 2): dict(zstar=[4, 4, 4, 4], c_z=[5, 5, 5, 5], special=(6, 6)),
    (5, 44): dict(zstar=[6, 6, 6, 6], c_z=[6, 6, 6, 6], special=(6, 6)),
    (5, 2): dict(zstar=[6, 6], c_z=[8, 8], special=(2, 6)),
    (3, None): dict(zstar=[], c_z=[], special=(2, 6)),
}


@pytest.mark.parametrize("key", sorted(FROZEN_DECOMPOSE, key=str))
def test_decomposition_identities_and_frozen_shape(key):
    p, seed = key
    nf = general_example(p) if seed is None else seeded_example(p, seed)
    dec = decompose(nf, 1)
    assert dec.all_identities_hold
    want = FROZEN_DECOMPOSE[key]
    assert list(dec.zstar_sizes) == want["zstar"]
    assert list(dec.c_z_sizes) == want["c_z"]
    assert (dec.special_in_plane, dec.special_geometric) == want["special"]
    assert dec.special_geometric <= 6
    report = dec.to_report()
    assert report["identities"] and all(report["identities"].values())


def test_decomposition_over_quadratic_extension():
    dec = decompose(seeded_example(3, 2), 2)
    assert dec.all_identities_hold
    assert dec.n_plane == 9**2 + 9 + 1
    assert all(size == 9 + 1 for size in dec.zstar_sizes)


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


def test_intersection_numbers_match_expected_values():
    rep = verify_intersection_numbers(seeded_example(5, 44), random.Random(7))
    assert rep.all_expected
    assert rep.sigma_tau == (2, 2, 2, 2)
    assert rep.sigma_sigma == ((5, 3),) * 4
    assert rep.tau_tau == (1, 1, 1, 1)


def test_intersection_numbers_with_a_count_short_of_samples_are_not_all_expected():
    # at q = 3 seed 0 no sigma.sigma sample survives the resamples: the
    # report keeps what it found, and an empty count is not a pass
    rep = verify_intersection_numbers(seeded_example(3, 0), random.Random(7))
    assert rep.sigma_sigma == ()
    assert not rep.all_expected


def test_intersection_numbers_with_three_node_pairs_need_three_tau_tau_samples():
    # at q = 3 seed 1 Z has three pairs of distinct nodes within the tower,
    # so tau.tau has three samples, all it can have, and every count is right
    rep = verify_intersection_numbers(seeded_example(3, 1), random.Random(7))
    assert rep.node_pairs == 3 and rep.tau_tau == (1, 1, 1)
    assert len(rep.sigma_tau) == len(rep.sigma_sigma) == 4
    assert rep.all_expected
    # a tau.tau sample off 1, or no sample at all, still fails
    assert not dataclasses.replace(rep, tau_tau=(1, 1, 2)).all_expected
    assert not dataclasses.replace(rep, tau_tau=(), node_pairs=0).all_expected


def test_intersection_numbers_refuse_a_surface_with_one_disjoint_line():
    # one disjoint line gives no pair to sample sigma.sigma on
    nf = seeded_example(3, 40)
    assert [cl.tag for cl in FanoSurface(nf, 1).lines].count(DISJOINT) == 1
    with pytest.raises(NotGeneral, match="fewer than two disjoint lines"):
        verify_intersection_numbers(nf, random.Random(7))


# surfaces whose skew pairs the transversal counts are checked on, by field (p, k)
TRANSVERSAL_SEEDS = {(3, 1): range(1, 12), (3, 2): (1, 2), (5, 1): (0, 1)}


@pytest.mark.parametrize("key", sorted(TRANSVERSAL_SEEDS), ids=lambda key: "q%d^%d" % key)
def test_transversal_counts_match_the_pair_scan(key):
    p, k = key
    outcomes = set()
    for seed in TRANSVERSAL_SEEDS[key]:
        nf = random_general_threefold(field(p, k), random.Random(seed))
        for l1, l2 in skew_disjoint_pairs(FanoSurface(nf, 1), random.Random(seed), 3):
            counts = _sigma_sigma_counts(nf, l1, l2)
            assert counts == transversal_counts_by_pair_scan(nf, l1, l2)
            outcomes.add(counts)
    # pairs with all five transversals in the scan and pairs resampled alike
    assert outcomes == {(5, 3), None}


def test_tau_tau_pairs_conjugate_nodes_once():
    # Z is two conjugate quadratic pairs: four geometric nodes, listed once each
    nf = seeded_example(3, 5)
    Z = compute_Z(nf)
    assert sorted(z.degree for z in Z.points) == [2, 2, 2, 2]
    assert len(_node_pairs(Z)) == 6
    rep = verify_intersection_numbers(nf, random.Random(7))
    assert rep.tau_tau == (1, 1, 1, 1)


def test_tower_climbs_stop_where_the_tower_ends():
    # over F_9 the tower ends at F_81, so neither scan asks for F_{3^6}
    nf = random_general_threefold(field(3, 2), random.Random(1))
    surf = FanoSurface(nf, 1)
    counts, complete = [], []
    for l1, l2 in skew_disjoint_pairs(surf, random.Random(0), 5):
        counts.append(_sigma_sigma_counts(nf, l1, l2))
        census = lines_on_cubic_surface_section(nf, l1, l2)
        assert {d for d, _ in census.exact} <= {1, 2}
        complete.append(census.is_complete)
    # a pair whose transversals all lie over F_81 gives the expected counts
    assert (5, 3) in counts
    assert any(complete)


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_singular_conic_lines_match_the_scanning_oracles(p, k):
    # random conics A^T diag(a, b, c) A of rank 1, 2 and 3; the two lines of
    # a rank-2 one are rational when -ab is a square and conjugate otherwise
    K, L2 = field(p, k), field(p, 2 * k)
    rng = random.Random(10 * p + k)
    conics, ranks = [], [1, 2, 2, 2, 3] * 8
    for r in ranks:
        A = np.zeros((3, 3), dtype=np.int64)
        while rank(K, A) < 3:
            A = np.array([[K.random_element(rng) for _ in range(3)] for _ in range(3)])
        D = np.diag([rng.randrange(1, K.q) if i < r else 0 for i in range(3)])
        conics.append(mat_mul(K, mat_mul(K, A.T, D), A))
    conics = np.array(conics)
    # the census splits the conics with determinant zero
    singular = np.flatnonzero(det(K, conics) == 0)
    assert singular.tolist() == [i for i, r in enumerate(ranks) if r < 3]
    found = fano._singular_conic_lines(K, conics[singular])
    over_L2 = fano._singular_conic_lines(L2, K.lift(conics[singular], L2))
    kinds = set()
    for i, C, rows, mult, split, rows2, mult2 in zip(singular, conics[singular], *found, *over_L2[:2]):
        conic = quadric_of_matrix(K, C)
        got = {ProjectiveLine(K, line).rows for line in rows[mult > 0]} if split else set()
        assert got == set(conic_component_lines_by_scan(K, conic))
        # phi: the lines through a point of the kernel, in the oracle's order,
        # over F_{q^2} for a conjugate pair
        z3 = normalize_point(K, kernel_basis(K, C)[0])
        M, directions = split_conic_at_by_scan(K, conic, z3)
        assert (M is K) == split
        if not split:
            rows, mult = rows2, mult2
        assert [(ProjectiveLine(M, line).rows, m) for line, m in zip(rows, mult.tolist()) if m] == [
            (ProjectiveLine(M, np.array([K.lift(z3, M), d])).rows, m) for d, m in directions
        ]
        kinds.add((ranks[i], bool(split)))
    assert kinds == {(1, True), (2, True), (2, False)}


def test_degenerate_conic_scan_stops_where_the_tower_ends():
    # decompose(nf, 2) over F_9 asks for depth 4; the scan stops at F_81, not F_{3^8}
    nf = random_general_threefold(field(3, 2), random.Random(1))
    assert _count_degenerate_conic_lines(nf, 4) == _count_degenerate_conic_lines(nf, 2) == 6


def test_intersection_numbers_propagate_internal_inconsistency(monkeypatch):
    # only PlaneContained is a resample; an internal error must surface
    import cubicfano.fano as fano_mod

    def broken(*args):
        raise InternalInconsistency("planted")

    monkeypatch.setattr(fano_mod, "_sigma_tau_count", broken)
    with pytest.raises(InternalInconsistency, match="planted"):
        verify_intersection_numbers(seeded_example(5, 44), random.Random(7))


# ---------------------------------------------------------------------------
# the line census of cubic-surface sections
# ---------------------------------------------------------------------------


# skew_disjoint_pairs gives up after this many draws
MAX_PAIR_DRAWS = 500


def skew_disjoint_pairs(surf, rng, n):
    """n pairs of skew disjoint lines of the surface, drawn at random (repeats allowed)."""
    disjoint = [cl.line for cl in surf.lines if cl.tag == DISJOINT]
    out = []
    for _ in range(MAX_PAIR_DRAWS):
        if len(out) == n or len(disjoint) < 2:
            break
        l1, l2 = rng.sample(disjoint, 2)
        if not line_meets(l1, l2):
            out.append((l1, l2))
    if len(out) < n:
        pytest.fail(f"{len(out)} of {n} skew pairs among {len(disjoint)} disjoint lines in {MAX_PAIR_DRAWS} draws")
    return out


def test_surface_census_reaches_27_and_flags_unsplit_sections():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    totals = []
    for l1, l2 in skew_disjoint_pairs(surf, random.Random(11), 8):
        census = lines_on_cubic_surface_section(nf, l1, l2)
        totals.append(census.total)
        assert census.is_complete == (census.total == 27)
        assert all(n >= 0 for _, n in census.exact)
        assert sum(n for d, n in census.exact if d == 1) == len(census.rational_rows)
    assert totals.count(27) >= 4
    assert all(t <= 27 for t in totals)


def test_surface_census_agrees_with_full_enumeration_at_q3():
    nf = general_example(3)
    surf = FanoSurface(nf, 1)
    pair = skew_disjoint_pairs(surf, random.Random(11), 1)[0]
    census = lines_on_cubic_surface_section(nf, *pair)
    counts = dict(census.exact)
    for d in (1, 2, 3):
        sd = FanoSurface(nf, d)
        stack0 = nf.K.lift(np.array([line.rows for line in pair]).reshape(-1, 5), sd.L)
        direct = sum(
            1
            for cl in sd.lines
            if rank(sd.L, np.vstack([stack0, np.array(cl.line.rows, dtype=np.int64)])) <= 4
        )
        assert direct == sum(n for e, n in counts.items() if d % e == 0)


def test_surface_census_rational_lines_lie_on_the_section():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    for l1, l2 in skew_disjoint_pairs(surf, random.Random(3), 3):
        census = lines_on_cubic_surface_section(nf, l1, l2)
        S3 = span(nf.K, l1, l2)
        for rows in census.rational_rows:
            assert nf.f.restrict(np.array(rows, dtype=np.int64)).is_zero
            assert rank(nf.K, np.vstack([S3.matrix, np.array(rows, dtype=np.int64)])) == 4
            assert rows in surf.by_rows


def test_surface_census_requires_skew_lines():
    nf = seeded_example(5, 44)
    surf = FanoSurface(nf, 1)
    disjoint = [cl.line for cl in surf.lines if cl.tag == DISJOINT]
    meeting = next(
        (a, b)
        for i, a in enumerate(disjoint)
        for b in disjoint[i + 1 :]
        if line_meets(a, b)
    )
    with pytest.raises(ValueError):
        lines_on_cubic_surface_section(nf, *meeting)


# ---------------------------------------------------------------------------
# coordinate independence
# ---------------------------------------------------------------------------


def test_tag_profile_is_invariant_under_linear_changes():
    nf = seeded_example(3, 2)
    K = nf.K
    rng = random.Random(5)
    for _ in range(3):
        while True:
            g = np.array([[rng.randrange(K.q) for _ in range(5)] for _ in range(5)], dtype=np.int64)
            if rank(K, g) == 5:
                break
        moved = normalize(
            nf.f.substitute(g), LinearSubspace(K, mat_mul(K, nf.plane.matrix, inverse_matrix(K, g).T))
        )
        surf = FanoSurface(moved, 1)
        got = {IN_PLANE: 0, MEETS_PLANE: 0, DISJOINT: 0}
        for cl in surf.lines:
            got[cl.tag] += 1
        assert (got[IN_PLANE], got[MEETS_PLANE], got[DISJOINT]) == (13, 14, 4)
        assert sorted(z.degree for z in compute_Z(moved).points) == [1, 1, 1, 1]


# general threefolds on which the closed-form line count is checked, by field (p, k)
LINE_COUNT_SEEDS = {(3, 1): range(8), (5, 1): range(5), (7, 1): range(3), (3, 2): (1, 2), (11, 1): range(2)}


@pytest.mark.parametrize("key", sorted(LINE_COUNT_SEEDS), ids=lambda key: "q%d^%d" % key)
def test_line_count_follows_from_point_counts(key):
    # Galkin-Shinder: #F(Y)(F_q) is read off the point counts of Y over F_q
    # and F_{q^2}, which come from C and Z; reduced and nonreduced Z alike
    p, k = key
    for seed in LINE_COUNT_SEEDS[key]:
        nf = random_general_threefold(field(p, k), random.Random(seed))
        assert len(FanoSurface(nf, 1).lines) == line_count_by_point_counts(nf)


# general threefolds on which the closed-form line count is checked over F_{q^2}, by q;
# q = 3 seed 0 and q = 7 seed 1 have nodes that need F_{p^6}
LINE_COUNT_SEEDS_OVER_F_Q2 = {3: (1, 2, 3), 5: (0, 1, 2), 7: (0,)}


@pytest.mark.parametrize("p", sorted(LINE_COUNT_SEEDS_OVER_F_Q2))
def test_line_count_over_the_quadratic_extension_follows_from_point_counts(p):
    for seed in LINE_COUNT_SEEDS_OVER_F_Q2[p]:
        nf = random_general_threefold(field(p), random.Random(seed))
        assert len(FanoSurface(nf, 2).lines) == line_count_by_point_counts(nf.embedded(nf.K.extension(2)))


def test_a_threefold_keeps_the_first_surface_built_over_each_degree():
    nf = seeded_example(3, 2)
    first = FanoSurface(nf, 1)
    assert surface_of(nf, 1) is first
    assert FanoSurface(nf, 1) is not first
    assert surface_of(nf, 1) is first
    second = surface_of(nf, 2)
    assert second.k == 2 and nf.surfaces == {1: first, 2: second}


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2)])
def test_surfaces_built_together_reuse_the_kept_ones_and_rule_the_rest_in_one_pass(monkeypatch, p, k):
    # kept surfaces come back as they are; the others, a repeated threefold
    # once, share one stacked fiber evaluation and one ruling pass, and each
    # equals the surface of its threefold built alone, ruled by itself
    nfs = [random_general_threefold(field(p), random.Random(seed)) for seed in range(4)]
    kept = surface_of(nfs[1], k)
    passes = []
    rule = fano.rulings_of_fibers

    def counted(fibers):
        fibers = list(fibers)
        passes.append(len(fibers))
        return rule(fibers)

    monkeypatch.setattr(fano, "rulings_of_fibers", counted)
    surfaces = fano.surfaces_of([nfs[0], nfs[1], nfs[2], nfs[0], nfs[3]], k)
    assert passes == [3 * (field(p).extension(k).q + 1)]
    assert surfaces[1] is kept and surfaces[0] is surfaces[3]
    assert [s.base for s in surfaces] == [nfs[0], nfs[1], nfs[2], nfs[0], nfs[3]]
    assert all(nf.surfaces[k] is s for nf, s in zip(nfs, [surfaces[0], kept, surfaces[2], surfaces[4]]))
    for nf, together in zip(nfs, [surfaces[0], kept, surfaces[2], surfaces[4]]):
        alone = FanoSurface(dataclasses.replace(nf), k)  # a copy keeps no pencil
        assert [cl.line.rows for cl in together.lines] == [cl.line.rows for cl in alone.lines]
        assert together.curve_points == alone.curve_points
        assert together.torsor_set == alone.torsor_set
    assert fano.surfaces_of([], k) == []
    with pytest.raises(ValueError, match="share their field"):
        fano.surfaces_of([random_general_threefold(field(3), random.Random(0)),
                          random_general_threefold(field(5), random.Random(0))], k)
