"""The word action on the signed line-surface set and its group axioms."""

import json
import math
import random

import pytest

from cubicfano.errors import InvalidInput, NeedsExtension, NotGeneral
from cubicfano.fano import FanoSurface
from cubicfano.gf import field
from cubicfano.pencil import HyperellipticModel, count_points_C, discriminant, zeta
from cubicfano.threefold import random_general_threefold
from cubicfano.torsor import (
    DivisorWord,
    SignedTorsorPoint,
    TorsorGroup,
    point_count_checks,
    torsor_group,
    verify_group_axioms,
    word_of,
)

from reference_impl import act_by_dicts, class_by_dicts, sum_by_dicts
from test_pencil import general_example


def seeded_example(p, seed):
    return random_general_threefold(field(p), random.Random(seed))


# frozen universe shapes: (signed universe, usable letters, excluded letters)
FROZEN_SHAPE = {
    (3, 2): (32, 1, 4),
    (3, None): (26, 4, 0),
    (5, 44): (48, 2, 4),
    (5, 2): (92, 6, 2),
    (5, 9): (34, 4, 0),
}


@pytest.mark.parametrize("key", sorted(FROZEN_SHAPE, key=str))
def test_universe_and_letter_shapes(key):
    p, seed = key
    nf = general_example(p) if seed is None else seeded_example(p, seed)
    G = torsor_group(nf)
    size, usable, excluded = FROZEN_SHAPE[key]
    assert len(G) == size
    assert len(G.points) == 2 * len(G.surface.torsor_set)
    assert (len(G.letters), len(G.excluded_letters)) == (usable, excluded)
    # acting on the + copy needs the conjugate's table, so usability is
    # closed under conjugation
    keys = {c.key for c in G.letters}
    assert all(G.surface.other_ruling(c).key in keys for c in G.letters)


def test_action_rules_match_the_involution_tables():
    G = torsor_group(seeded_example(5, 2))
    c = G.letters[0]
    cbar = G.surface.other_ruling(c)
    for pt in G.surface.torsor_set.points[:6]:
        plus, minus = SignedTorsorPoint(pt, +1), SignedTorsorPoint(pt, -1)
        assert G.act(word_of(c), plus) == SignedTorsorPoint(G.surface.j_table(cbar)[pt], -1)
        assert G.act(word_of(c), minus) == SignedTorsorPoint(G.surface.j_table(c)[pt], +1)
        # the inverse letter acts like the conjugate letter
        assert G.act(word_of((c, -1)), plus) == G.act(word_of(cbar), plus)
        # a letter followed by its inverse is the identity
        assert G.act(word_of(c, (c, -1)), plus) == plus


def test_word_bookkeeping():
    G = torsor_group(general_example(3))
    c, d = G.letters[0], G.letters[1]
    w = word_of(c, (d, -1), c)
    assert w.degree == 1 and w.tag == 2
    assert w.inverse().degree == -1
    assert (w + w.inverse()).degree == 0
    assert word_of(c, d).degree == 2 and word_of(c, d).tag == 0
    with pytest.raises(InvalidInput):
        word_of((c, 2))


def test_empty_word_is_the_identity():
    G = torsor_group(general_example(3))
    empty = DivisorWord(())
    for x in G.points:
        assert G.act(empty, x) == x
    assert G.class_of(empty).perm == tuple(range(len(G.points)))


def test_canonical_class_acts_trivially():
    for nf in (seeded_example(3, 2), general_example(3)):
        G = torsor_group(nf)
        for c in G.letters:
            assert G.class_of(word_of(c, G.surface.other_ruling(c))).perm == tuple(range(len(G.points)))


def test_letter_order_commutes():
    G = torsor_group(general_example(3))
    rng = random.Random(5)
    for _ in range(200):
        c, d = rng.choice(G.letters), rng.choice(G.letters)
        x = G.points[rng.randrange(len(G.points))]
        assert G.act(word_of(c, d), x) == G.act(word_of(d, c), x)


def test_difference_classes_have_two_equal_representations():
    G = torsor_group(general_example(3))
    other = G.surface.other_ruling
    for c in G.letters:
        for d in G.letters:
            if c.key == d.key:
                continue
            assert G.class_of(word_of(c, (d, -1))) == G.class_of(word_of(other(d), (other(c), -1)))


def test_pair_words_fix_nodes_only_when_canonical():
    G = torsor_group(seeded_example(5, 44))
    nodes = [x for x in G.points if x.point.kind == "node" and x.sign > 0]
    assert len(nodes) == 4
    other = G.surface.other_ruling
    for z in nodes:
        for c in G.letters:
            for d in G.letters:
                fixes = G.act(word_of(c, d), z) == z
                assert fixes == (d.key == other(c).key)


def test_sum_points_simple_transitivity():
    G = torsor_group(general_example(3))
    rng = random.Random(13)
    done = 0
    for _ in range(25):
        s = G.points[rng.randrange(len(G.points))]
        t = G.points[rng.randrange(len(G.points))]
        try:
            cls = G.sum_points(s, t)
        except NeedsExtension:
            continue
        done += 1
        assert G.points[cls.perm[G.index[s.negated()]]] == t
        assert cls.perm == G.sum_points(t, s).perm
        assert cls.tag == (s.component + t.component) % 4
    assert done >= 20


def test_sum_of_a_point_and_its_negative_is_zero():
    G = torsor_group(general_example(3))
    for x in (G.points[0], G.points[-1]):
        cls = G.sum_points(x, x.negated())
        assert cls.tag == 0 and cls.perm == tuple(range(len(G.points)))


def test_component_tags_compose_in_z4():
    G = torsor_group(general_example(3))
    rng = random.Random(3)
    plus = [x for x in G.points if x.sign > 0]
    a = G.sum_points(rng.choice(plus), rng.choice(plus))
    b = G.sum_points(rng.choice(plus), rng.choice(plus))
    assert a.tag == b.tag == 2
    assert all(G.points[a.perm[i]].sign != x.sign for i, x in enumerate(G.points))
    ab = G.compose(a, b)
    assert ab.tag == 0
    assert all(G.points[ab.perm[i]].sign == x.sign for i, x in enumerate(G.points))
    assert G.compose(ab, ab).tag == 0


def test_escalated_sum_agrees_with_the_rational_search():
    # the extension search and the rational search must name the same class
    # whenever both succeed, and the extension must add genuinely new sums
    G = torsor_group(general_example(3))
    rng = random.Random(21)
    agreed = extended = 0
    for _ in range(12):
        s = G.points[rng.randrange(len(G.points))]
        t = G.points[rng.randrange(len(G.points))]
        try:
            rational = G.sum_points(s, t, escalate=False)
        except NeedsExtension:
            rational = None
        try:
            escalated = G._escalated_sum(s, t)
        except NeedsExtension:
            continue
        if rational is None:
            extended += 1
            assert G.points[escalated.perm[G.index[s.negated()]]] == t
        else:
            assert escalated.perm == rational.perm and escalated.tag == rational.tag
            agreed += 1
    assert agreed >= 3 and extended >= 1


@pytest.mark.parametrize("seed", [2, 4])
def test_sums_match_the_word_by_word_oracle(seed):
    # (tag, perm, word) against the search that acts every word letter by
    # letter through the j-table dicts; seed 2 escalates most sums to F_9
    G = torsor_group(seeded_example(3, seed))
    rng = random.Random(seed)
    escalated = 0
    for _ in range(12):
        s, t = rng.choice(G.points), rng.choice(G.points)
        try:
            expect = sum_by_dicts(G, s, t)
        except NeedsExtension:
            with pytest.raises(NeedsExtension):
                G.sum_points(s, t)
            continue
        cls = G.sum_points(s, t)
        assert (cls.tag, cls.perm, cls.word) == expect
        try:
            G.sum_points(s, t, escalate=False)
        except NeedsExtension:
            escalated += 1
    assert escalated >= (1 if seed == 2 else 0)


def test_word_action_matches_the_dict_oracle():
    G = torsor_group(general_example(3))
    rng = random.Random(11)
    for _ in range(30):
        word = word_of(*((rng.choice(G.letters), rng.choice((1, -1))) for _ in range(rng.randrange(5))))
        assert G.class_of(word).perm == class_by_dicts(G, word)
        x = rng.choice(G.points)
        assert G.act(word, x) == act_by_dicts(G, word, x)


def test_axiom_check_builds_one_surface_per_degree(monkeypatch):
    # #T over F_q and F_{q^2} comes from the group's own surfaces
    built = []
    build = FanoSurface.__init__

    def counting(self, nf, k=1):
        built.append(k)
        build(self, nf, k)

    monkeypatch.setattr(FanoSurface, "__init__", counting)
    rep = verify_group_axioms(seeded_example(3, 2), random.Random(2))
    assert [c.k for c in rep.point_counts] == [1, 2]
    assert sorted(built) == [1, 2]


def test_a_group_law_instance_builds_one_surface_and_scans_its_letters_once(monkeypatch):
    # the group and its surfaces are kept on the threefold, so the axiom check
    # and the point counts read the group the caller built, with its letters
    built, scanned = [], []
    build, scan = FanoSurface.__init__, TorsorGroup._scan_letters

    def counting_build(self, nf, k=1):
        built.append(k)
        build(self, nf, k)

    def counting_scan(self):
        scanned.append(self.surface.k)
        scan(self)

    monkeypatch.setattr(FanoSurface, "__init__", counting_build)
    monkeypatch.setattr(TorsorGroup, "_scan_letters", counting_scan)
    nf = seeded_example(3, 2)
    group = torsor_group(nf)
    group.letters
    rep = verify_group_axioms(nf, random.Random(2))
    assert rep.all_passed
    assert torsor_group(nf) is group and group.extension_group() is nf.groups[2]
    point_count_checks(nf)
    assert (built.count(1), scanned.count(1)) == (1, 1)
    assert sorted(built) == [1, 2]


def test_a_refused_group_is_not_kept():
    nf = general_example(5)
    for _ in range(2):
        with pytest.raises(NotGeneral):
            torsor_group(nf)
    assert nf.groups == {}


def test_nonreduced_node_scheme_is_refused():
    with pytest.raises(NotGeneral):
        torsor_group(general_example(5))


@pytest.mark.parametrize("seed", [1, 6])
def test_a_nonreduced_node_scheme_is_refused_before_any_surface_is_built(seed):
    # the group-law seeds whose Z is nonreduced: the refusal reads Z alone,
    # and the message is the one the group law itself gives
    nf = random_general_threefold(field(3), random.Random(seed))
    assert not nf.Z.reduced
    with pytest.raises(NotGeneral, match="^the group law requires a reduced node scheme$"):
        torsor_group(nf)
    assert nf.surfaces == {} and nf.groups == {}
    with pytest.raises(NotGeneral, match="^the group law requires a reduced node scheme$"):
        TorsorGroup(FanoSurface(nf, 1))


def test_foreign_points_are_rejected():
    G = torsor_group(general_example(3))
    H = torsor_group(seeded_example(3, 2))
    foreign = H.points[0]
    with pytest.raises(InvalidInput):
        G.act(word_of(G.letters[0]), foreign)
    with pytest.raises(InvalidInput):
        SignedTorsorPoint(foreign.point, 0)


def test_verification_report_round_trips_to_json():
    rep = verify_group_axioms(general_example(3), random.Random(7))
    assert rep.all_passed
    commute = next(a for a in rep.axioms if a.name == "letters_commute")
    assert commute.trials == rep.n_letters**2
    assert [c.k for c in rep.point_counts] == [1, 2]
    assert all(c.equal for c in rep.point_counts)
    blob = json.dumps(rep.to_report(), sort_keys=True)
    assert json.loads(blob)["all_passed"] is True


def test_a_letter_that_breaks_the_relations_fails_the_report(monkeypatch):
    # one letter swaps the images of two points of the rational universe
    nf = general_example(3)
    planted = torsor_group(nf).letters[0]
    perm_of = TorsorGroup._perm_of

    def swapped(self, c):
        perm = perm_of(self, c)
        if self.surface.k == 1 and c.key == planted.key:
            perm = perm.copy()
            perm[[0, 1]] = perm[[1, 0]]
        return perm

    monkeypatch.setattr(TorsorGroup, "_perm_of", swapped)
    rep = verify_group_axioms(nf, random.Random(7))
    assert not rep.all_passed
    commute = next(a for a in rep.axioms if a.name == "letters_commute")
    assert not commute.passed and repr(planted) in commute.witness


FROZEN_COUNTS = {
    (3, 2): (16, 128),
    (3, None): (13, 169),
}


@pytest.mark.parametrize("key", sorted(FROZEN_COUNTS, key=str))
def test_torsor_point_counts_match_class_numbers(key):
    p, seed = key
    nf = general_example(p) if seed is None else seeded_example(p, seed)
    checks = point_count_checks(nf)
    assert [c.torsor_points for c in checks] == list(FROZEN_COUNTS[key])
    assert all(c.equal for c in checks)


def test_class_number_against_effective_divisor_count():
    # h from the zeta numerator must equal the count of effective divisor
    # classes of degree 3 divided by the size of a degree-3 linear system:
    # closed points of degrees 1, 2, 3 assemble all effective divisors
    nf = seeded_example(5, 44)
    model = HyperellipticModel(discriminant(nf))
    zdata = zeta(model)
    n1 = count_points_C(model, 1)
    n2 = count_points_C(model, 2)
    n3 = count_points_C(model, 3)
    a1 = n1
    a2 = (n2 - n1) // 2
    a3 = (n3 - n1) // 3
    assert (n2 - n1) % 2 == 0 and (n3 - n1) % 3 == 0
    effective_deg3 = a3 + a1 * a2 + math.comb(a1 + 2, 3)
    q = nf.K.q
    assert effective_deg3 % (q + 1) == 0
    assert effective_deg3 // (q + 1) == zdata.h
    assert len(FanoSurface(nf, 1).torsor_set) == zdata.h
