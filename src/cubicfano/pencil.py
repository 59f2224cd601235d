"""The quadric surface pencil of a cubic threefold containing a plane.

A normalized threefold f = x0*Q0 + x1*Q1 is sliced by the hyperplanes through
the plane P = {x0 = x1 = 0}.  The slice at (s:t) is parametrized by
(u, x2, x3, x4) via x0 = s*u, x1 = t*u, and carries the residual quadric

    R_{s,t}(u, x2, x3, x4) = s*Q0(su, tu, x2, x3, x4) + t*Q1(su, tu, x2, x3, x4)

with f(su, tu, x) = u * R_{s,t}.  This module computes fiber matrices, the
sextic discriminant, rulings of fibers, and point counts / zeta data of the
genus-2 double cover that parametrizes the rulings.

The symmetric matrix of R_{s,t} has entries that are binary forms in (s, t)
(:func:`symbolic_fiber_entries`); a threefold keeps it as
``nf.pencil_matrix``.  Every fiber matrix, over any field of the tower, is
its value at (s:t): one stacked evaluation for a whole list of parameters
(:func:`pencil_fibers`).  Its block on u = 0 is the matrix of the restricted
conic s*q0 + t*q1.  The discriminant is its determinant, a sextic: the
determinants of the fiber matrices at the seven points
``forms.interpolation_points`` fixes for binary sextics, interpolated.

The rulings of a smooth fiber are built, not searched for (Harris, *Algebraic
Geometry: A First Course*, Lecture 22): with beta the fiber's bilinear form,
the line of the quadric through x meeting a line span(b1, b2) of the other
ruling meets it at beta(x, b2) b1 - beta(x, b1) b2.  The rulings of all the
fibers of a field are built at once (:func:`rulings_of_fibers`), as table
gathers on stacked arrays: the fiber matrices and their ranks from one
stacked row reduction, a point y of each fiber from stacked evaluations over
a plane, the two lines through y as the roots of the tangent conic
(:func:`forms.quadratic_roots`), the lines of both rulings through all
points at once, and one stacked row reduction for their canonical rows.
One stack of Plucker pairings checks them: distinct lines of one ruling
pair to nonzero (skew), lines of opposite rulings to zero (they meet).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import InternalInconsistency, NotGeneral
from .forms import HomogeneousForm, interpolate, interpolation_points, monomial_exponents, quadratic_roots
from .gf import GF
from .linalg import det, dot, rref_stack
from .projective import ProjectiveLine, all_points_array, projective_reps


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PencilFiber:
    """One member of the pencil: the quadric surface over (s:t).

    ``matrix`` is its symmetric 4x4 matrix in the fiber coordinates
    (u, x2, x3, x4), R_{s,t}(v) = v^T M v, as :func:`pencil_fibers` reads it
    off the threefold's symbolic pencil matrix.
    """

    K: GF
    s: int
    t: int
    matrix: np.ndarray

    def ambient_rows(self, rows) -> np.ndarray:
        """Rows (..., 4) (u, x2, x3, x4) in fiber coordinates as ambient rows (s*u, t*u, x2, x3, x4)."""
        K = self.K
        rows = np.asarray(rows, dtype=np.int64)
        u = rows[..., :1]
        return np.concatenate([K.mul[self.s, u], K.mul[self.t, u], rows[..., 1:]], axis=-1)

    def ambient_lines(self, rows) -> list[ProjectiveLine]:
        """The lines with canonical fiber rows ``rows`` (n, 2, 4), in ambient coordinates.

        Over a normalized (s:t), (1:t) or (0:1), the x0 column is u or zero
        and the x1 column t*u, so the ambient rows are canonical already.
        """
        normalized = self.s == 1 or (self.s == 0 and self.t == 1)
        return [
            ProjectiveLine(self.K, (tuple(r1), tuple(r2)), _trusted=normalized)
            for r1, r2 in self.ambient_rows(rows).tolist()
        ]


def pencil_fibers(nf, L: GF, params) -> list[PencilFiber]:
    """The pencil members over the points ``params`` (s:t) != (0:0) of P^1(L).

    L is any field of the tower over ``nf.K``.  The entries of the
    threefold's kept symbolic matrix ``nf.pencil_matrix`` are binary forms of
    degree at most 3 in (s, t); their coefficients, lifted into L, are
    evaluated at every (s:t) at once, as table gathers on one stack.
    """
    params = np.array(list(params), dtype=np.int64).reshape(-1, 2)
    if not params.any(axis=1).all():
        raise ValueError("(0:0) is not a point of the pencil base")
    coeffs = np.zeros((4, 4, 4, 4), dtype=np.int64)  # [i, j, a, b]: the coefficient of s^a t^b in entry (i, j)
    for i, row in enumerate(nf.pencil_matrix):
        for j, entry in enumerate(row):
            b = np.arange(entry.degree + 1)
            coeffs[i, j, entry.degree - b, b] = entry.coeffs
    coeffs = nf.K.lift(coeffs, L)
    powers = np.ones((len(params), 4, 2), dtype=np.int64)  # [n, e]: (s^e, t^e)
    for e in range(1, 4):
        powers[:, e] = L.mul[powers[:, e - 1], params]
    monomials = L.mul[powers[:, :, None, 0], powers[:, None, :, 1]]  # [n, a, b]: s^a t^b
    matrices = dot(L, coeffs.reshape(4, 4, 16), monomials.reshape(-1, 1, 1, 16)).astype(np.int64)
    return [PencilFiber(L, s, t, M) for (s, t), M in zip(params.tolist(), matrices)]


# ---------------------------------------------------------------------------
# the discriminant sextic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscriminantSextic:
    """disc(s,t) = det of the symbolic fiber matrix; a binary sextic."""

    form: HomogeneousForm

    @property
    def K(self) -> GF:
        return self.form.K

    @cached_property
    def reduced(self) -> bool:
        return self.form.is_squarefree()


@lru_cache(maxsize=None)
def _entry_positions(n: int):
    """Where the quadrics' coefficients land in the upper triangle of :func:`symbolic_fiber_entries`.

    The entries (i, j), i <= j, lie end to end, each a form in the n
    parameters in its ``monomial_exponents`` layout.  Returns ({(i, j):
    (start, degree, size)}, total size, positions): positions[w, m] is
    where the m-th monomial of the quadric Q_w lands, one to one for each w.
    """
    slots, total = {}, 0
    for i in range(4):
        for j in range(i, 4):
            degree = 3 if j == 0 else (2 if i == 0 else 1)
            slots[i, j] = (total, degree, len(monomial_exponents(n, degree)))
            total += slots[i, j][2]
    quadric = monomial_exponents(n + 3, 2)
    positions = np.zeros((n, len(quadric)), dtype=np.int64)
    for w in range(n):
        for m, e in enumerate(quadric):
            params = list(e[:n])
            params[w] += 1
            i, j = [i for i, v in enumerate((sum(e[:n]),) + e[n:]) for _ in range(v)]
            start, degree, _ = slots[i, j]
            positions[w, m] = start + monomial_exponents(n, degree).index(tuple(params))
    positions.flags.writeable = False
    return slots, total, positions


def symbolic_fiber_entries(quadrics) -> list[list[HomogeneousForm]]:
    """Symmetric 4x4 matrix entries of the residual quadric family, as forms in its parameters.

    ``quadrics`` are the n quadrics of f = x0*Q0 + ... + x_{n-1}*Q_{n-1}: (Q0, Q1)
    of a threefold, whose parameters are (s, t), or (Q0, Q1, Q2) of a fourfold,
    with parameters (s, t, u).  Substituting x_i = p_i*v for i < n in
    p0*Q0 + ... + p_{n-1}*Q_{n-1} gives the member in the fiber coordinates
    (v, x_n, x_{n+1}, x_{n+2}); entry (0, 0) is cubic, the rest of row and
    column 0 quadratic, and the remaining entries linear in the parameters.
    Each quadric's coefficients are placed by one index assignment and added
    by one table gather; the off-diagonal entries are halved.
    """
    n, K = len(quadrics), quadrics[0].K
    slots, total, positions = _entry_positions(n)
    flat = np.zeros(total, dtype=np.int64)
    for w, Q in enumerate(quadrics):
        term = np.zeros(total, dtype=np.int64)
        term[positions[w]] = Q.coeffs
        flat = K.add[flat, term]
    half = K.inverse(2 % K.p)
    out = [[None] * 4 for _ in range(4)]
    for (i, j), (start, degree, size) in slots.items():
        codes = flat[start : start + size]
        out[i][j] = out[j][i] = HomogeneousForm.from_coeffs(K, n, degree, codes if i == j else K.mul[codes, half])
    return out


def discriminant(nf) -> DiscriminantSextic:
    """The determinant of the threefold's kept pencil matrix, interpolated from fiber determinants."""
    L, params = interpolation_points(nf.K, 2, 6)
    D = interpolate(nf.K, 2, 6, det(L, np.stack([fiber.matrix for fiber in pencil_fibers(nf, L, params)])))
    if D.is_zero:
        raise NotGeneral("discriminant vanishes identically")
    return DiscriminantSextic(D)


# ---------------------------------------------------------------------------
# rulings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RulingClass:
    """One ruling of one fiber: a point of the curve C over the working field.

    ``index`` is 0 or 1 after canonical sorting of the (one or two) classes of
    the fiber; cone fibers have the single index 0.
    """

    K: GF  # the working field of the fiber parameter and the lines
    s: int
    t: int
    index: int
    is_cone: bool
    lines: tuple[ProjectiveLine, ...]  # ambient lines, canonically sorted

    def __repr__(self) -> str:
        kind = "cone" if self.is_cone else f"class {self.index}"
        return f"Ruling(({self.s}:{self.t}) {kind}, {len(self.lines)} lines over {self.K!r})"

    @property
    def key(self):
        return ((self.K.p, self.K.k), self.s, self.t, self.index)

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, RulingClass) and self.key == other.key


def _apply(K: GF, M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M v for stacks of matrices (..., n, n) and vectors (..., n), broadcasting."""
    return dot(K, M, v[..., None, :])


def _combine(K: GF, c1: np.ndarray, u: np.ndarray, c2: np.ndarray, v: np.ndarray) -> np.ndarray:
    """c1 u + c2 v for scalars (...) and vectors (..., n), broadcasting."""
    return K.add[K.mul[c1[..., None], u], K.mul[c2[..., None], v]]


def _line_points(K: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The q + 1 points a + t b (t in F_q) and b of each line span(a, b): (..., q + 1, n)."""
    t = np.arange(K.q)[:, None]
    return np.concatenate([K.add[a[..., None, :], K.mul[t, b[..., None, :]]], b[..., None, :]], axis=-2)


def _meeting_lines(K: GF, M: np.ndarray, points: np.ndarray, b1: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Rows (x, m) of the line of the quadric through each point x meeting the line span(b1, b2).

    span(b1, b2) misses x, and the line through x lies in the tangent plane
    at x, so it meets span(b1, b2) at m = beta(x, b2) b1 - beta(x, b1) b2.  M is
    (S, 4, 4), points (S, P, 4) and b1, b2 (S, 4); the rows come back as
    (S, P, 2, 4).
    """
    Mb1, Mb2 = (_apply(K, M, b)[:, None, :] for b in (b1, b2))
    meet = _combine(K, dot(K, points, Mb2), b1[:, None, :], K.neg[dot(K, points, Mb1)], b2[:, None, :])
    return np.stack([points, meet], axis=-2)


# the three coordinates other than j, ascending, for j = 0, ..., 3
_OTHER_THREE = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
# points of a plane per step of the scan for a point of each smooth fiber
_PLANE_CHUNK = 1024


def _quadric_values(K: GF, M: np.ndarray, points: np.ndarray) -> np.ndarray:
    """x^T M_i x for quadrics M (F, 4, 4) at points (F, P, 4) or (P, 4): an (F, P) array."""
    return dot(K, points, _apply(K, M[:, None], points))


def _pluecker(K: GF, rows: np.ndarray) -> np.ndarray:
    """Plucker coordinates p01, p02, p03, p12, p13, p23 of lines with rows (..., 2, 4)."""
    a, b = rows[..., 0, :], rows[..., 1, :]
    minors = [
        K.add[K.mul[a[..., i], b[..., j]], K.neg[K.mul[a[..., j], b[..., i]]]]
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    return np.stack(minors, axis=-1)


def _check_pairings(K: GF, rows: np.ndarray, labels: np.ndarray) -> None:
    """Distinct lines of one ruling are skew and lines of different rulings meet, in every fiber.

    ``rows`` holds the fiber rows (F, N, 2, 4) of the N lines of each of F
    fibers, and ``labels`` the ruling of each of the N lines.  One stack of
    Plucker pairings decides it: two lines meet exactly when they pair to zero.
    """
    pl = _pluecker(K, rows)
    # <p, p'> = p01 p'23 - p02 p'13 + p03 p'12 + p12 p'03 - p13 p'02 + p23 p'01
    dual = pl[..., ::-1].copy()
    dual[..., [1, 4]] = K.neg[dual[..., [1, 4]]]
    pairing = np.zeros(pl.shape[:2] + pl.shape[1:2], dtype=np.uint16)
    for k in range(6):
        pairing = K.add[pairing, K.mul[pl[:, :, None, k], dual[:, None, :, k]]]
    same = labels[:, None] == labels[None, :]
    meets = pairing == 0
    if (meets & (same & ~np.eye(len(labels), dtype=bool))).any():
        raise InternalInconsistency("two lines of one ruling meet")
    if (~meets & ~same).any():
        raise InternalInconsistency("lines in different rulings must meet")


def _smooth_rulings(K: GF, M: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lines of both rulings of each smooth quadric M through its point y, where the quadric splits.

    Returns the indices of the split quadrics and their line rows
    (S, 2, q + 1, 2, 4), ruling by ruling, in no canonical form.
    """
    at = np.arange(len(M))
    # the tangent plane at y is the kernel of r = M y; with r_p its first
    # nonzero entry it has the basis e_j - (r_j / r_p) e_p (j != p), in which
    # y has the coordinates y_j, so y and the two vectors of that basis other
    # than the first j with y_j != 0 span it
    r = _apply(K, M, y)
    p = (r != 0).argmax(axis=1)
    ratio = K.mul[r, K.inv[r[at, p]][:, None]]
    j = np.arange(4)
    star = ((j != p[:, None]) & (y != 0)).argmax(axis=1)
    rest = np.argsort(j + 4 * ((j == p[:, None]) | (j == star[:, None])), axis=1, kind="stable")[:, :2]
    c1, c2 = np.zeros((2, len(M), 4), dtype=np.int64)
    for c, col in ((c1, rest[:, 0]), (c2, rest[:, 1])):
        c[at, col] = 1
        c[at, p] = K.neg[ratio[at, col]]

    # the cross terms with y vanish on the tangent plane, so there the quadric
    # is the binary quadratic q11 b^2 + q12 b g + q22 g^2 in b c1 + g c2,
    # whose roots are the two lines of the quadric through y
    Mc2 = _apply(K, M, c2)
    q11, q22 = dot(K, c1, _apply(K, M, c1)), dot(K, c2, Mc2)
    beta12 = dot(K, c1, Mc2)
    roots, mult, split = quadratic_roots(K, q11, K.add[beta12, beta12], q22)
    if (mult == 2).any():
        raise InternalInconsistency("the tangent conic of a smooth quadric is two distinct lines")
    split = np.flatnonzero(split)
    M, y, p, r, c1, c2, roots = M[split], y[split], p[split], r[split], c1[split], c2[split], roots[split]
    at = np.arange(len(split))
    a, b = (_combine(K, roots[:, i, 0], c1, roots[:, i, 1], c2) for i in range(2))

    # x = -M_pp y + 2 r_p e_p is the second point of the quadric on the line
    # through y and e_p, off the tangent plane at y: beta(y, x) = 2 r_p^2.
    # The line of B's ruling through x meets A at mA, and the line of A's
    # ruling through x meets B at mB
    x = K.mul[K.neg[M[at, p, p]][:, None], y]
    x[at, p] = K.add[x[at, p], K.mul[2 % K.p, r[at, p]]]
    Mx = _apply(K, M, x)
    xy = dot(K, y, Mx)
    mA = _combine(K, dot(K, a, Mx), y, K.neg[xy], a)
    mB = _combine(K, dot(K, b, Mx), y, K.neg[xy], b)

    # A's ruling: the line through each point of B meeting span(x, mA), which
    # is of B's ruling and skew to B; B's ruling likewise through A
    ruling_a = _meeting_lines(K, M, _line_points(K, y, b), x, mA)
    ruling_b = _meeting_lines(K, M, _line_points(K, y, a), x, mB)
    return split, np.stack([ruling_a, ruling_b], axis=1)


def rulings_of_fibers(fibers) -> list[list[RulingClass]]:
    """Ruling classes of each fiber over their common field, built for all fibers at once:
    2 (split smooth), 0 (smooth with no rational lines), or 1 (cone) per fiber.

    Every step runs on the stack of all fibers, as table gathers:

    * one :func:`rref_stack` of the (F, 4, 4) fiber matrices gives their
      ranks, and each cone's vertex;
    * stacked evaluations of the quadrics over a plane of P^3 give a cone's
      conic section, on a plane missing its vertex, and a point y of each
      smooth fiber (every conic over F_q has a rational point), the plane
      scanned a chunk at a time until every fiber has one;
    * at y the tangent plane meets a smooth quadric in its two lines through
      y, the roots of a binary quadratic (:func:`forms.quadratic_roots`): a
      nonsquare discriminant is a nonsplit fiber;
    * off the tangent plane, a second point x of the quadric gives a line of
      each ruling through x, and each ruling is the line through each point
      of one line through y meeting the line through x of the other ruling
      (Harris, *Algebraic Geometry*, Lecture 22), for all points of all
      fibers at once;
    * one :func:`rref_stack` puts the rows of every line in canonical form,
      and one stack of Plucker pairings checks the rulings of every split
      fiber.

    A cone's lines join its vertex to the points of its conic section.  The
    classes of a fiber are numbered by sorting them by their first line.
    """
    fibers = list(fibers)
    if not fibers:
        return []
    K = fibers[0].K
    M = np.stack([f.matrix for f in fibers]) % K.q
    R, ranks = rref_stack(K, M)
    low = np.flatnonzero(ranks <= 2)
    if len(low):
        raise NotGeneral(f"fiber matrix has rank {ranks[low[0]]} <= 2")
    cones = np.flatnonzero(ranks == 3)
    smooth = np.flatnonzero(ranks == 4)

    # a cone's vertex: 1 in the free column of the reduced matrix, minus that
    # column's entries at the pivots; the plane x_free = 0 misses it
    pivots = (R[cones, :3] != 0).argmax(axis=2)
    free = 6 - pivots.sum(axis=1)
    vertex = np.zeros((len(cones), 4), dtype=np.int64)
    vertex[np.arange(len(cones)), free] = 1
    vertex[np.arange(len(cones))[:, None], pivots] = K.neg[R[cones[:, None], np.arange(3), free[:, None]]]

    # a cone's conic section on that plane: its q + 1 zeros there (each cone
    # lies over a rational root of the sextic discriminant: six at most)
    reps = all_points_array(K, 2)
    pts = np.zeros((len(cones), len(reps), 4), dtype=np.int64)
    pts[np.arange(len(cones))[:, None, None], np.arange(len(reps))[None, :, None], _OTHER_THREE[free][:, None, :]] = reps
    on_cone = _quadric_values(K, M[cones], pts) == 0
    if (on_cone.sum(axis=1) != K.q + 1).any():
        raise InternalInconsistency("a plane missing the vertex of a cone cuts it in a smooth conic")
    which, where = np.nonzero(on_cone)
    cone_rows = np.stack([vertex[which], pts[which, where]], axis=1)

    # a point y of each smooth fiber, on the plane u = 0 (every conic over F_q
    # has a rational point), scanned a chunk of the plane at a time
    y = np.zeros((len(smooth), 4), dtype=np.int64)
    missing = np.arange(len(smooth))
    for start in range(0, len(reps), _PLANE_CHUNK):
        if not len(missing):
            break
        chunk = reps[start : start + _PLANE_CHUNK]
        pts = np.hstack([np.zeros((len(chunk), 1), dtype=chunk.dtype), chunk])
        zero = _quadric_values(K, M[smooth[missing]], pts) == 0
        hit = zero.any(axis=1)
        y[missing[hit]] = pts[zero[hit].argmax(axis=1)]
        missing = missing[~hit]
    if len(missing):
        raise InternalInconsistency("a conic over a finite field has a rational point")
    split, split_rows = _smooth_rulings(K, M[smooth], y)
    split = smooth[split]

    # canonical rows of every line, and the pairing check of every split fiber
    canon, line_ranks = rref_stack(K, np.concatenate([cone_rows, split_rows.reshape(-1, 2, 4)]))
    if (line_ranks != 2).any():
        raise InternalInconsistency("a ruling point and its meeting point span a line")
    n_cone, per_fiber = len(cone_rows), 2 * (K.q + 1)
    split_canon = canon[n_cone:].reshape(len(split), per_fiber, 2, 4)
    _check_pairings(K, split_canon, np.repeat([0, 1], K.q + 1))

    out: list[list[RulingClass]] = [[] for _ in fibers]
    for i, rows in zip(cones, canon[:n_cone].reshape(len(cones), K.q + 1, 2, 4)):
        out[i] = [RulingClass(K, fibers[i].s, fibers[i].t, 0, True, _ambient_pack(fibers[i], rows))]
    for i, rows in zip(split, split_canon):
        halves = (rows[: K.q + 1], rows[K.q + 1 :])
        packs = sorted((_ambient_pack(fibers[i], half) for half in halves), key=lambda pack: pack[0].rows)
        out[i] = [RulingClass(K, fibers[i].s, fibers[i].t, j, False, pack) for j, pack in enumerate(packs)]
    return out


def _ambient_pack(fiber: PencilFiber, rows: np.ndarray) -> tuple[ProjectiveLine, ...]:
    """The lines with canonical fiber rows (n, 2, 4), in ambient coordinates and sorted."""
    return tuple(sorted(fiber.ambient_lines(rows), key=lambda L: L.rows))


def rulings_of_fiber(fiber: PencilFiber) -> list[RulingClass]:
    """Ruling classes of one fiber over its own field: :func:`rulings_of_fibers` of the one fiber."""
    return rulings_of_fibers([fiber])[0]


def hyperelliptic_involution(c: RulingClass, classes_of_fiber: list[RulingClass]) -> RulingClass:
    """The other ruling of the same fiber (itself over a branch point)."""
    if c.is_cone:
        return c
    return next(d for d in classes_of_fiber if d.index != c.index)


# ---------------------------------------------------------------------------
# the curve C: operational points, hyperelliptic counts, zeta
# ---------------------------------------------------------------------------


def operational_curve_points(nf, d: int = 1) -> list[RulingClass]:
    """All ruling classes over F_{q^d}: the operational model of C(F_{q^d})."""
    L = nf.K.extension(d)
    fibers = pencil_fibers(nf, L, projective_reps(L, 1))
    return [c for classes in rulings_of_fibers(fibers) for c in classes]


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = disc(s,t) in weighted coordinates (1,1,3)."""

    disc: DiscriminantSextic

    @property
    def K(self) -> GF:
        return self.disc.K


def _fiber_characters(model: HyperellipticModel, L: GF) -> tuple[np.ndarray, np.ndarray]:
    """The points (s:t) of P^1(L) in ``projective_reps`` order and chi(disc(s, t)) at each.

    One batch evaluation of the sextic over the whole line, then a gather
    from L's quadratic character table.
    """
    params = all_points_array(L, 1)
    return params, L.chi[model.disc.form.embedded(L).evaluate_batch(params)]


def count_points_C(model: HyperellipticModel, k: int) -> int:
    """#C(F_{q^k}) = sum over P^1(F_{q^k}) of 1 + chi(disc(s,t)), from one batch evaluation of the sextic."""
    params, chi = _fiber_characters(model, model.K.extension(k))
    return len(params) + int(chi.sum())


@dataclass(frozen=True)
class ZetaData:
    N1: int
    N2: int
    c1: int
    c2: int
    h: int


def zeta(model: HyperellipticModel) -> ZetaData:
    """Zeta numerator coefficients and the class number h = #Pic^0(F_q)."""
    if not model.disc.reduced:
        raise NotGeneral("zeta requires a reduced discriminant (smooth C)")
    q = model.K.q
    N1 = count_points_C(model, 1)
    N2 = count_points_C(model, 2)
    p1 = q + 1 - N1
    p2 = q * q + 1 - N2
    c1 = -p1
    if (p1 * p1 - p2) % 2:
        raise InternalInconsistency("power sums of a genus-2 curve have even p1^2 - p2")
    c2 = (p1 * p1 - p2) // 2
    h = 1 + c1 + c2 + q * c1 + q * q
    if c1 * c1 > 16 * q:
        raise InternalInconsistency(f"Weil bound violated: |c1| = {abs(c1)} > 4*sqrt({q})")
    if h <= 0:
        raise InternalInconsistency(f"class number must be positive, got {h}")
    return ZetaData(N1, N2, c1, c2, h)


def class_number_over_extension(z: ZetaData, q: int, k: int) -> int:
    """#Pic^0(F_{q^k}) = prod over inverse roots a_i of (1 - a_i^k), via resultant-free
    power-sum bookkeeping on the quartic numerator."""
    # Newton's identities on P(t) = 1 + c1 t + c2 t^2 + q c1 t^3 + q^2 t^4
    e = [1, -z.c1, z.c2, -q * z.c1, q * q]  # elementary symmetric in the inverse roots
    p = [0] * (4 * k + 1)  # power sums of the inverse roots
    for n in range(1, 4 * k + 1):
        acc = 0
        for i in range(1, min(n, 4) + 1):
            acc += (-1) ** (i - 1) * e[i] * (p[n - i] if n > i else 0)
        acc += (-1) ** (n - 1) * n * e[n] if n <= 4 else 0
        p[n] = acc
    # #Pic^0(F_{q^k}) = P_k(1) where P_k has inverse roots a_i^k; compute its
    # coefficients from the power sums p[k], p[2k], p[3k], p[4k]
    pk = [0, p[k], p[2 * k], p[3 * k], p[4 * k]]
    ek = [1]
    for n in range(1, 5):
        acc = 0
        for i in range(1, n + 1):
            acc += (-1) ** (i - 1) * ek[n - i] * pk[i]
        if acc % n:
            raise InternalInconsistency("Newton's identities give a non-integral coefficient")
        ek.append(acc // n)
    return ek[0] - ek[1] + ek[2] - ek[3] + ek[4]


# match_models compares the two models of C over F_{q^k} for k up to this
_MODEL_DEPTH = 2


def match_models(nf, model: HyperellipticModel) -> bool:
    """Operational ruling counts agree with the hyperelliptic counts for
    k <= ``_MODEL_DEPTH``, and fiberwise degrees agree (2 off the branch locus,
    1 on it)."""
    for k in range(1, _MODEL_DEPTH + 1):
        params, chi = _fiber_characters(model, nf.K.extension(k))
        expect = Counter(dict(zip(map(tuple, params.tolist()), (1 + chi).tolist())))
        if Counter((c.s, c.t) for c in operational_curve_points(nf, k)) != expect:
            return False
    return True
