"""Line classification against the plane, ruling operators, and involutions."""

import random

import numpy as np
import pytest

from cubicfano.fano import (
    DISJOINT,
    IN_PLANE,
    MEETS_PLANE,
    FanoSurface,
    InvalidInput,
    ResampleRequired,
    TorsorPoint,
    Undefined,
    _node_pairs,
    _transversal_counts,
    decompose,
    lines_on_cubic_surface_section,
    verify_intersection_numbers,
)
from cubicfano.gf import NotSupportedError, field
from cubicfano.linalg import inverse_matrix, mat_mul, rank
from cubicfano.pencil import NotGeneral, fiber_matrix, rulings_of_fiber
from cubicfano.projective import (
    InternalInconsistency,
    LinearSubspace,
    PlaneContained,
    ProjectivePoint,
    enumerate_lines,
    line_meets,
    projective_reps,
    span,
)
from cubicfano.threefold import compute_Z, normalize, random_general_threefold, random_threefold_through_plane

from reference_impl import plane_line_fiber_by_minors
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
    emb = surf1.L.embedding_into(surf2.L)
    for cl in surf1.lines:
        rows = tuple(tuple(int(emb[v]) for v in row) for row in cl.line.rows)
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
            rulings = {(s, t): rulings_of_fiber(fiber_matrix(nf_L, s, t)) for s, t in projective_reps(nf_L.K, 1)}
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
                emb = surf.L.embedding_into(c.K)
                expect = tuple(tuple(int(emb[v]) for v in row) for row in line.rows)
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
            except (Undefined, PlaneContained):
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
        x_d = surf.to_torsor_point(surf.tau(z, d))
        x_c = surf.to_torsor_point(surf.tau(z, c))
        assert surf.involution(c, x_d) == surf.involution(d, x_c)
        checked += 1
    assert checked == 2


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
    rep = verify_intersection_numbers(seeded_example(5, 44), random.Random(7), samples=4)
    assert rep.all_expected
    assert rep.sigma_tau == (2, 2, 2, 2)
    assert rep.sigma_sigma == ((5, 3),) * 4
    assert rep.tau_tau == (1, 1, 1, 1)


def test_tau_tau_pairs_conjugate_nodes_once():
    # Z is two conjugate quadratic pairs: four geometric nodes, listed once each
    nf = seeded_example(3, 5)
    Z = compute_Z(nf)
    assert sorted(z.degree for z in Z.points) == [2, 2, 2, 2]
    assert len(_node_pairs(Z)) == 6
    rep = verify_intersection_numbers(nf, random.Random(7), samples=4)
    assert rep.tau_tau == (1, 1, 1, 1)


def test_tower_climbs_stop_where_the_tower_ends():
    # over F_9 the tower ends at F_81, so neither scan asks for F_{3^6}
    nf = random_general_threefold(field(3, 2), random.Random(1))
    surf = FanoSurface(nf, 1)
    counts, complete = [], []
    for l1, l2 in skew_disjoint_pairs(surf, random.Random(0), 5):
        counts.append(_transversal_counts(nf, l1, l2))
        census = lines_on_cubic_surface_section(nf, l1, l2)
        assert {d for d, _ in census.exact} <= {1, 2}
        complete.append(census.is_complete)
    # a pair whose transversals all lie over F_81 gives the expected counts
    assert (5, 3) in counts
    assert any(complete)


def test_intersection_numbers_propagate_internal_inconsistency(monkeypatch):
    # only PlaneContained is a resample; an internal error must surface
    import cubicfano.fano as fano_mod

    def broken(*args):
        raise InternalInconsistency("planted")

    monkeypatch.setattr(fano_mod, "_sigma_tau_count", broken)
    with pytest.raises(InternalInconsistency, match="planted"):
        verify_intersection_numbers(seeded_example(5, 44), random.Random(7), samples=4)


# ---------------------------------------------------------------------------
# the line census of cubic-surface sections
# ---------------------------------------------------------------------------


def skew_disjoint_pairs(surf, rng, n):
    disjoint = [cl.line for cl in surf.lines if cl.tag == DISJOINT]
    out = []
    while len(out) < n:
        l1, l2 = rng.sample(disjoint, 2)
        if not line_meets(l1, l2):
            out.append((l1, l2))
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
        emb = nf.K.embedding_into(sd.L)
        stack0 = np.array(
            [[int(emb[v]) for v in row] for line in pair for row in line.rows], dtype=np.int64
        )
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
