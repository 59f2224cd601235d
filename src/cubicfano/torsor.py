"""Group law on the line-surface point set, verified through permutations.

The disjoint lines, the boundary lines through the nodes, and the nodes form
a finite set acted on by the involutions j_c attached to ruling classes.  Two
copies of that set (signs + and -) carry an action of formal words in the
ruling classes:

    x + (c) = -j_{cbar}(x)        -x + (c) = j_c(x)

Divisor classes are represented by the permutations their words induce --
never by divisor arithmetic -- and two classes are equal exactly when their
permutations agree, which is faithful because the action is simply
transitive.  Component tags live in Z/4: a word of degree d has tag 2d mod 4
(0 for differences, 2 for odd-degree words, which exchange the two signed
copies), the two copies themselves sit at tags 1 and 3, and tags add under
composition.

Each letter acts through an integer array over the signed universe, read
once from the involution tables: a word acts by indexing, and the search
for the words moving one point to another gathers the images of all words
of one length at once.  The escalation to the quadratic extension maps
points between the two universes by index arrays built once.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import (
    InternalInconsistency,
    InvalidInput,
    NeedsExtension,
    NotGeneral,
    ResampleRequired,
)
from .fano import FanoSurface, TorsorPoint, surface_of
from .pencil import (
    HyperellipticModel,
    RulingClass,
    class_number_over_extension,
    zeta,
)
from .threefold import NormalizedThreefold


@dataclass(frozen=True)
class SignedTorsorPoint:
    """A point of one of the two signed copies of the torsor-ready set."""

    point: TorsorPoint
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise InvalidInput("sign must be +1 or -1")

    @property
    def component(self) -> int:
        """Tag in Z/4 of the component containing the point (1 or 3)."""
        return 1 if self.sign > 0 else 3

    def negated(self) -> "SignedTorsorPoint":
        return SignedTorsorPoint(self.point, -self.sign)


@dataclass(frozen=True)
class DivisorWord:
    """A formal sum of ruling classes with signs; acts letter by letter."""

    letters: tuple[tuple[RulingClass, int], ...]

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.letters)

    @property
    def tag(self) -> int:
        """Component tag of the class the word represents: 2 * degree mod 4."""
        return (2 * self.degree) % 4

    def __add__(self, other: "DivisorWord") -> "DivisorWord":
        return DivisorWord(self.letters + other.letters)

    def inverse(self) -> "DivisorWord":
        return DivisorWord(tuple((c, -e) for c, e in reversed(self.letters)))


def word_of(*letters) -> DivisorWord:
    """Build a word from (class, sign) pairs; bare classes count positively."""
    out = []
    for letter in letters:
        if isinstance(letter, RulingClass):
            out.append((letter, +1))
        else:
            c, e = letter
            if e not in (+1, -1):
                raise InvalidInput("letter signs must be +1 or -1")
            out.append((c, e))
    return DivisorWord(tuple(out))


@dataclass(frozen=True)
class ClassAction:
    """A divisor class as its permutation of the signed universe.

    ``perm[i]`` is the image index of the i-th universe point; equality and
    hashing use the permutation and the tag only, so any two words inducing
    the same permutation are the same class.
    """

    tag: int
    perm: tuple[int, ...]
    word: DivisorWord = dc_field(compare=False)

    def __call__(self, i: int) -> int:
        return self.perm[i]


# the group law's refusal of a nonreduced node scheme
_NONREDUCED = "the group law requires a reduced node scheme"


class TorsorGroup:
    """The signed universe T(F_{q^k}) in two copies with its word action.

    Point i < n of the universe is the i-th torsor point on the + copy and
    point n + i the same point on the - copy.  Each letter acts through an
    integer array over these 2n indices, built once from the involution
    tables.

    Refuses a nonreduced node scheme: the boundary bookkeeping of the action
    assumes every node is an honest quadric cone point.
    """

    def __init__(self, surface: FanoSurface):
        if not surface.Z.reduced:
            raise NotGeneral(_NONREDUCED)
        self.surface = surface
        self.points: tuple[SignedTorsorPoint, ...] = tuple(
            SignedTorsorPoint(pt, sign)
            for sign in (+1, -1)
            for pt in surface.torsor_set.points
        )
        self.index: dict[SignedTorsorPoint, int] = {x: i for i, x in enumerate(self.points)}
        self._letters: list[RulingClass] | None = None
        self._excluded: list[RulingClass] | None = None
        self._letter_perms: dict = {}
        self._letter_matrix: np.ndarray | None = None
        self._up: np.ndarray | None = None
        self._down: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.points)

    # -- letters ---------------------------------------------------------------

    def _scan_letters(self) -> None:
        # a usable letter needs tables for the class and its conjugate: acting
        # on the + copy looks up j of the conjugate, on the - copy j itself;
        # the tables of every class come from one stacked pass
        self.surface.j_tables()
        usable, excluded = [], []
        for c in self.surface.curve_points:
            try:
                self.surface.j_perm(c)
                self.surface.j_perm(self.surface.other_ruling(c))
            except ResampleRequired:
                excluded.append(c)
                continue
            usable.append(c)
        if not usable:
            raise ResampleRequired("every ruling class hits the excluded locus")
        self._letters, self._excluded = usable, excluded

    @property
    def letters(self) -> list[RulingClass]:
        if self._letters is None:
            self._scan_letters()
        return list(self._letters)

    @property
    def excluded_letters(self) -> list[RulingClass]:
        if self._excluded is None:
            self._scan_letters()
        return list(self._excluded)

    def _perm_of(self, c: RulingClass) -> np.ndarray:
        """The permutation the letter (c, +1) induces, as an index array.

        On the + copy it is -j_{cbar}, on the - copy j_c; both are read off
        the surface's index arrays, whose point i is universe point i.
        """
        perm = self._letter_perms.get(c.key)
        if perm is None:
            n = len(self.points) // 2
            perm = np.concatenate([self.surface.j_perm(self.surface.other_ruling(c)) + n, self.surface.j_perm(c)])
            self._letter_perms[c.key] = perm
        return perm

    def _letter_perm(self, letter: tuple[RulingClass, int]) -> np.ndarray:
        c, e = letter
        return self._perm_of(self.surface.other_ruling(c) if e < 0 else c)

    # -- the action --------------------------------------------------------------

    def act(self, word: DivisorWord, x: SignedTorsorPoint) -> SignedTorsorPoint:
        i = self.index.get(x)
        if i is None:
            raise InvalidInput("the point does not belong to the universe")
        for letter in word.letters:
            i = self._letter_perm(letter)[i]
        return self.points[i]

    def _word_perm(self, word: DivisorWord) -> np.ndarray:
        perm = np.arange(len(self.points))
        for letter in word.letters:
            perm = self._letter_perm(letter)[perm]
        return perm

    def class_of(self, word: DivisorWord) -> ClassAction:
        return ClassAction(word.tag, tuple(self._word_perm(word).tolist()), word)

    def compose(self, a: ClassAction, b: ClassAction) -> ClassAction:
        """The class of a-then-b (the order is immaterial: the letters
        commute, which verify_group_axioms checks on every pair)."""
        perm = np.array(b.perm)[np.array(a.perm)]
        return ClassAction((a.tag + b.tag) % 4, tuple(perm.tolist()), a.word + b.word)

    # -- sums of torsor points -----------------------------------------------------

    def _matching_words(self, start: SignedTorsorPoint, target: SignedTorsorPoint) -> list[DivisorWord]:
        """The first eight positive words of length <= 3 and the right parity
        moving start to target, in ``itertools.product`` order by length.

        Inverse letters are redundant for the search: (c, -1) induces the
        same permutation as (cbar, +1) and the same tag, since the degree
        only matters mod 2.  The images of start under all words of one
        length n are n gathers through the stacked letter arrays, indexed
        [c_n, ..., c_1]; reversing the axes puts ``np.argwhere``'s matches in
        product order.
        """
        flip = start.sign != target.sign
        found = [] if flip or start != target else [DivisorWord(())]
        lengths = (1, 3) if flip else (2,)
        letters = self.letters
        if self._letter_matrix is None:
            self._letter_matrix = np.stack([self._perm_of(c) for c in letters])
        images = self.index[start]
        for n in range(1, lengths[-1] + 1):
            images = self._letter_matrix[:, images]
            if n in lengths:
                for combo in np.argwhere(images.transpose() == self.index[target])[: 8 - len(found)]:
                    found.append(DivisorWord(tuple((letters[i], +1) for i in combo)))
                if len(found) == 8:
                    break
        return found

    def sum_points(
        self, s: SignedTorsorPoint, t: SignedTorsorPoint, escalate: bool = True
    ) -> ClassAction:
        """The unique divisor class [D] with -s + [D] = t.

        Searches words in the rational ruling classes up to length three (the
        transitivity bound); every matching word must induce one and the same
        permutation, which is the simple-transitivity uniqueness statement.
        When no rational word works the search escalates once to letters over
        the quadratic extension (whose classes still permute the rational
        universe) before giving up.  The component tag of the result is the
        sum of the component tags of the operands.
        """
        found = self._matching_words(s.negated(), t)
        if not found:
            if escalate:
                return self._escalated_sum(s, t)
            raise NeedsExtension("no defining word over the working field within degree 3")
        first = self._word_perm(found[0])
        for other in found[1:]:
            if not np.array_equal(self._word_perm(other), first):
                raise InternalInconsistency(
                    "two words sending -s to t disagree elsewhere: the action is not simply transitive"
                )
        if found[0].tag != (s.component + t.component) % 4:
            raise InternalInconsistency("component arithmetic disagrees with the word parity")
        return ClassAction(found[0].tag, tuple(first.tolist()), found[0])

    # -- quadratic-extension escalation --------------------------------------------

    def extension_group(self) -> "TorsorGroup":
        """The group law over the quadratic extension of the working field, kept on the threefold."""
        return _group_over(self.surface.base, 2 * self.surface.k)

    def embed_point(self, big: "TorsorGroup", x: SignedTorsorPoint) -> SignedTorsorPoint:
        L, M = self.surface.L, big.surface.L
        if x.point.kind == "node":
            pt = TorsorPoint("node", node=L.lift(x.point.node, M))
        else:
            pt = TorsorPoint("line", rows=L.lift(x.point.rows, M))
        out = SignedTorsorPoint(pt, x.sign)
        if out not in big.index:
            raise InternalInconsistency("a universe point fails to embed into the extension universe")
        return out

    def _escalated_sum(self, s: SignedTorsorPoint, t: SignedTorsorPoint) -> ClassAction:
        big = self.extension_group()
        if self._up is None:
            # index maps between the universes; -1 marks a point off the rational locus
            self._up = np.array([big.index[self.embed_point(big, x)] for x in self.points], dtype=np.intp)
            self._down = np.full(len(big.points), -1, dtype=np.intp)
            self._down[self._up] = np.arange(len(self.points))
        big_cls = big.sum_points(big.points[self._up[self.index[s]]], big.points[self._up[self.index[t]]], False)
        perm = self._down[np.array(big_cls.perm)[self._up]]
        if (perm < 0).any():
            raise InternalInconsistency("an escalated class moved a rational point off the rational locus")
        return ClassAction(big_cls.tag, tuple(perm.tolist()), big_cls.word)


def torsor_group(nf: NormalizedThreefold) -> TorsorGroup:
    """The group law on the lines over the threefold's own field.

    Built on the threefold's kept surface on first call and kept as
    ``nf.groups[1]``, so every later reader shares its letter scan and
    tables; a refusal is not kept.
    """
    return _group_over(nf, 1)


def _group_over(nf: NormalizedThreefold, k: int) -> TorsorGroup:
    """The kept group law over F_{q^k}; a nonreduced Z is refused before any surface is built."""
    group = nf.groups.get(k)
    if group is None:
        if not nf.Z.reduced:
            raise NotGeneral(_NONREDUCED)
        group = nf.groups[k] = TorsorGroup(surface_of(nf, k))
    return group


# ---------------------------------------------------------------------------
# axiom verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    trials: int
    passed: bool
    witness: str | None = None


@dataclass(frozen=True)
class PointCountCheck:
    k: int
    torsor_points: int
    class_number: int

    @property
    def equal(self) -> bool:
        return self.torsor_points == self.class_number


@dataclass(frozen=True)
class GroupLawReport:
    universe_size: int
    n_letters: int
    n_excluded: int
    axioms: tuple[AxiomCheck, ...]
    point_counts: tuple[PointCountCheck, ...]

    @property
    def total_trials(self) -> int:
        return sum(a.trials for a in self.axioms)

    @property
    def all_passed(self) -> bool:
        return all(a.passed for a in self.axioms) and all(c.equal for c in self.point_counts)

    def to_report(self) -> dict:
        return {
            "universe_size": self.universe_size,
            "letters": self.n_letters,
            "excluded_letters": self.n_excluded,
            "axioms": [
                {"name": a.name, "trials": a.trials, "passed": a.passed, "witness": a.witness}
                for a in self.axioms
            ],
            "point_counts": [
                {
                    "k": c.k,
                    "torsor_points": c.torsor_points,
                    "class_number": c.class_number,
                    "equal": c.equal,
                }
                for c in self.point_counts
            ],
            "total_trials": self.total_trials,
            "all_passed": self.all_passed,
        }


# point_count_checks compares the counts over F_{q^k} for k up to this
_POINT_COUNT_DEPTH = 2


def point_count_checks(nf: NormalizedThreefold) -> tuple[PointCountCheck, ...]:
    """#T(F_{q^k}) against the class number of the branch curve, k <= ``_POINT_COUNT_DEPTH``.

    The left side is the size of the torsor-ready set of the line surface
    over F_{q^k}; the right side is the zeta-function class number.
    Equality is the finite-field triviality of the torsor, checked without
    ever constructing a group isomorphism.
    """
    return _point_count_checks(nf, [len(surface_of(nf, k).torsor_set) for k in range(1, _POINT_COUNT_DEPTH + 1)])


def _point_count_checks(nf: NormalizedThreefold, sizes) -> tuple[PointCountCheck, ...]:
    """Pair the torsor sizes over F_{q^1}, F_{q^2}, ... with the class numbers."""
    zdata = zeta(HyperellipticModel(nf.discriminant))
    return tuple(
        PointCountCheck(k, n_t, zdata.h if k == 1 else class_number_over_extension(zdata, nf.K.q, k))
        for k, n_t in enumerate(sizes, start=1)
    )


# the sampled checks: pairs for simple transitivity, triples for associativity
_TRANSITIVITY_TRIALS = 40
_ASSOCIATIVITY_INSTANCES = 10


def verify_group_axioms(nf: NormalizedThreefold, rng) -> GroupLawReport:
    """Verification of the group structure on the signed universe.

    The letter relations are checked on every pair of letters at once, from
    the table ``then[d, c]`` of the permutations of the words (c) + (d): the
    letters commute, (c) + (cbar) acts as the identity, and a pair word fixes
    a node exactly when it is that canonical class.  Sampled: simple
    transitivity with uniqueness, associativity instances, and the component
    arithmetic in Z/4.  These read sums off words, which presupposes the
    letter relations, so they run only when the relations hold.  Then the
    universe sizes over F_q and F_{q^2} are compared against the class
    numbers of the branch curve.
    """
    G = torsor_group(nf)
    letters = G.letters
    n = len(letters)
    position = {c.key: i for i, c in enumerate(letters)}
    bar = np.array([position[G.surface.other_ruling(c).key] for c in letters])
    perms = np.stack([G._perm_of(c) for c in letters])
    then = perms[:, perms]  # then[d, c] = perm_d[perm_c], the word (c) + (d)
    axioms: list[AxiomCheck] = []

    # letters in either order induce one permutation
    bad = np.argwhere((then != then.transpose(1, 0, 2)).any(axis=2))
    witness = f"({letters[bad[0][0]]!r})({letters[bad[0][1]]!r})" if len(bad) else None
    axioms.append(AxiomCheck("letters_commute", n * n, witness is None, witness))

    # (c) + (cbar) acts as the identity for every usable letter
    bad = [c for c, perm in zip(letters, then[bar, np.arange(n)]) if (perm != np.arange(len(G.points))).any()]
    witness = repr(bad[0]) if bad else None
    axioms.append(AxiomCheck("canonical_class_trivial", n, witness is None, witness))

    # a pair word fixes a node exactly when it is the canonical class
    nodes = np.array([i for i, x in enumerate(G.points) if x.point.kind == "node" and x.sign > 0], dtype=np.intp)
    fixes = then[:, :, nodes] == nodes  # [d, c, node]
    conjugate = bar[None, :] == np.arange(n)[:, None]  # [d, c]
    bad = np.argwhere(fixes != conjugate[:, :, None])
    witness = None
    if len(bad):
        d, c, z = bad[0]
        witness = f"({letters[c]!r})+({letters[d]!r}) at {G.points[nodes[z]]}"
    axioms.append(AxiomCheck("free_at_nodes", len(nodes) * n * n, witness is None, witness))

    if all(a.passed for a in axioms):
        axioms.extend(_sampled_sum_checks(G, rng))

    # the surfaces over F_q and F_{q^2} are the group's own and its extension's
    counts = _point_count_checks(nf, [len(G.surface.torsor_set), len(G.extension_group().surface.torsor_set)])

    return GroupLawReport(
        universe_size=len(G.points),
        n_letters=len(letters),
        n_excluded=len(G.excluded_letters),
        axioms=tuple(axioms),
        point_counts=tuple(counts),
    )


def _sampled_sum_checks(G: TorsorGroup, rng) -> list[AxiomCheck]:
    """Simple transitivity, associativity instances and the component tags, on sampled points."""
    axioms: list[AxiomCheck] = []

    def sample_point():
        return G.points[rng.randrange(len(G.points))]

    # simple transitivity: the sum class exists, is unique, moves -s to t,
    # and is commutative in its arguments
    bad = None
    done = 0
    for _ in range(_TRANSITIVITY_TRIALS):
        s, t = sample_point(), sample_point()
        try:
            cls = G.sum_points(s, t)
            cls_rev = G.sum_points(t, s)
        except NeedsExtension:
            continue
        done += 1
        if G.points[cls.perm[G.index[s.negated()]]] != t:
            bad = f"sum({s}, {t}) misses its target"
            break
        if cls.perm != cls_rev.perm:
            bad = f"sum({s}, {t}) is not commutative"
            break
    axioms.append(AxiomCheck("simply_transitive", done, bad is None, bad))

    # associativity shadows: (s + t) + u = s + (t + u) as points
    bad = None
    done = 0
    attempts = 0
    while done < _ASSOCIATIVITY_INSTANCES and attempts < 8 * _ASSOCIATIVITY_INSTANCES:
        attempts += 1
        s, t, u = sample_point(), sample_point(), sample_point()
        try:
            left = G.points[G.sum_points(s, t).perm[G.index[u]]]
            right = G.points[G.sum_points(t, u).perm[G.index[s]]]
        except NeedsExtension:
            continue
        done += 1
        if left != right:
            bad = f"assoc({s}, {t}, {u})"
            break
    axioms.append(AxiomCheck("associativity_instances", done, bad is None, bad))

    # component tags: a sum of two T-points has tag 2 and exchanges the signed
    # copies; two such compose to tag 0 and preserve them; four compose to 0
    bad = None
    comp_trials = 0
    plus = [x for x in G.points if x.sign > 0]
    for _ in range(10):
        s, t = rng.choice(plus), rng.choice(plus)
        u, v = rng.choice(plus), rng.choice(plus)
        try:
            a = G.sum_points(s, t)
            b = G.sum_points(u, v)
        except NeedsExtension:
            continue
        comp_trials += 1
        ab = G.compose(a, b)
        four = G.compose(ab, ab)
        if a.tag != 2 or b.tag != 2 or ab.tag != 0 or four.tag != 0:
            bad = f"tags {a.tag}, {b.tag} -> {ab.tag} -> {four.tag}"
            break
        if any(G.points[a.perm[i]].sign == x.sign for i, x in enumerate(G.points)):
            bad = "a tag-2 class preserved a signed copy"
            break
        if any(G.points[ab.perm[i]].sign != x.sign for i, x in enumerate(G.points)):
            bad = "a tag-0 class exchanged the signed copies"
            break
    axioms.append(AxiomCheck("component_arithmetic", comp_trials, bad is None, bad))
    return axioms
