"""Lines on a cubic threefold through a plane, and the incidence operators.

Over a working field F = F_{q^k} the lines on Y = {x0*Q0 + x1*Q1 = 0} split
three ways against the plane P = {x0 = x1 = 0}:

  * lines inside P (P itself lies on Y, so all of them count),
  * lines meeting P in one point -- each of these lies in exactly one fiber
    of the quadric pencil and therefore belongs to a ruling class,
  * lines disjoint from P, the open chart of the line surface.

A disjoint line has RREF pivots in columns 0 and 1, so its rows are
A = (1,0,a) and B = (0,1,b) with affine tails a, b.  Since f(1,0,a) =
Q0(1,0,a) and f(0,1,b) = Q1(0,1,b), each side of the chart is the set of
affine zeros of a quadric, solved one line of a grid at a time by the
quadratic formula (:func:`_quadric_zeros`).  As f(A + lam B) = f(A) +
lam grad f(A).B + lam^2 grad f(B).A + lam^3 f(B) in every characteristic, the
line AB lies on Y iff both gradient pairings vanish (:func:`_chart_rows`).
The lines of a cubic-surface section that miss P come from the same two
helpers, the sides cut down to the section's hyperplane, and the
transversals of two skew lines are read off that section's lines.

On the torsor-ready point set (disjoint lines, boundary lines through the
nodes, and the nodes themselves) :class:`FanoSurface` provides the ruling
operators as methods: ``tau`` (the line of a ruling through a node),
``sigma`` (the line of a ruling meeting a disjoint line), ``phi`` / ``psi``
(the node projection to unordered ruling pairs and its inverse), and
``involution`` / ``j_table``, the involutions j_c that generate the group law
on the next layer up.  ``tau`` and ``sigma`` look the point up in sorted keys
of the points of the rulings' lines.

The tables of every class are built in one stacked pass over all (class,
point) pairs (:meth:`FanoSurface.j_tables`; ``j_table`` is its one-class
call and ``involution`` its one-point call).  The crossing points of
``sigma`` and the nodes of ``tau`` are looked up as arrays, the deformation
planes of diagonal pairs come from one batch of gradient evaluations and one
stacked elimination, and the plane sections of every pair go through one
residual solve, which reads the cubic at ten points of each plane
(:func:`projective.residual_from_values`) and returns arrays: the rows of
each residual line, and an outcome code naming its plane's error.  A residual
line, a ruling line or a Frobenius image is found among the surface's lines
by one search on sorted byte keys of their rows.  Each pair keeps its error
in place, so a class raises the error of its first failing point.

Over F_{q^k} the pass works one pair per Frobenius orbit.  The threefold, P
and everything built from them are defined over F_q, so Frobenius phi over
F_q permutes the classes and the torsor-ready points, and every step of the
pass commutes with it: j_{phi c}(phi x) = phi(j_c(x)), and the pair (phi c,
phi x) fails with the error of (c, x).  So only the least pair of each orbit
is worked, and the others are read off it by conjugation.  Over F_q itself
(k = 1) every orbit is a single pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .errors import (
    InternalInconsistency,
    InvalidInput,
    NotGeneral,
    PlaneContained,
    ResampleRequired,
)
from .forms import HomogeneousForm, divide_by_linear, quadratic_roots
from .gf import GF
from .linalg import det, dot, hyperplane_rows, kernel_basis, mat_mul, mat_vec, rank, rref_stack, unit_complement
from .pencil import (
    RulingClass,
    family_at,
    hyperelliptic_involution,
    pencil_fibers,
    rulings_of_fiber,
    rulings_of_fibers,
    stacked_pencil_fibers,
)
from .projective import (
    RESIDUAL_ERRORS,
    LinearSubspace,
    ProjectiveLine,
    ProjectivePoint,
    Residual,
    all_points_array,
    binary_quadratic,
    count_points,
    enumerate_lines,
    line_meets,
    line_points,
    linear_form_cutting_line_in_plane,
    normalize_point,
    plane_section_values,
    point_positions,
    projective_reps,
    residual_from_values,
    residual_line,
    span,
)
from .threefold import NormalizedThreefold, SingularLocusZ, ZPoint

IN_PLANE = "in_plane"
MEETS_PLANE = "meets_plane_once"
DISJOINT = "disjoint"

_TAG_ORDER = {IN_PLANE: 0, MEETS_PLANE: 1, DISJOINT: 2}


# ---------------------------------------------------------------------------
# classified lines
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassifiedLine:
    """A line on Y together with its position against the plane P.

    ``meets_at`` is the normalized ambient intersection point (only for
    lines meeting P once); ``fiber``/``ruling_index`` locate the ruling class
    for lines that lie in a pencil fiber.  Lines inside P normally belong to
    no fiber; the finitely many that do keep their fiber data too.
    """

    line: ProjectiveLine
    tag: str
    meets_at: tuple | None = None
    fiber: tuple[int, int] | None = None
    ruling_index: int | None = None

    def __repr__(self) -> str:
        extra = f" at {self.meets_at}" if self.meets_at else ""
        return f"ClassifiedLine({self.tag}{extra}, {self.line!r})"


@dataclass(frozen=True)
class TorsorPoint:
    """A point of the torsor-ready set: a line (by RREF rows) or a node."""

    kind: str  # "line" | "node"
    rows: tuple | None = None
    node: tuple | None = None  # normalized ambient coordinates (0,0,*)

    def __repr__(self) -> str:
        if self.kind == "node":
            return f"TorsorPoint(node {self.node})"
        return f"TorsorPoint(line {self.rows})"


@dataclass(frozen=True)
class TorsorPointSet:
    """Disjoint lines, boundary lines through the nodes, and the nodes.

    The three constituents are pairwise disjoint by construction and the
    order is deterministic (nodes, then boundary lines, then disjoint lines,
    each sorted by coordinates).
    """

    points: tuple[TorsorPoint, ...]
    n_nodes: int
    n_boundary: int
    n_disjoint: int

    def __len__(self) -> int:
        return len(self.points)

    @property
    def nodes(self) -> tuple[TorsorPoint, ...]:
        return self.points[: self.n_nodes]

    @property
    def boundary_lines(self) -> tuple[TorsorPoint, ...]:
        return self.points[self.n_nodes : self.n_nodes + self.n_boundary]

    @property
    def disjoint_lines(self) -> tuple[TorsorPoint, ...]:
        return self.points[self.n_nodes + self.n_boundary :]


def _meet_with_plane(K: GF, rows) -> tuple[str, tuple | None]:
    """Position of a line against P = {x0 = x1 = 0}: tag and meeting point.

    The line meets P at a*r1 + b*r2 for (a, b) in the kernel of the 2 x 2
    matrix of the rows' first two coordinates.
    """
    r1, r2 = rows
    if K.sub_(K.mul_(r1[0], r2[1]), K.mul_(r1[1], r2[0])):
        return DISJOINT, None
    if not (r1[0] or r1[1] or r2[0] or r2[1]):
        return IN_PLANE, None
    # rank one: a nonzero row of the matrix gives the kernel
    a, b = (r2[0], K.neg_(r1[0])) if r1[0] or r2[0] else (r2[1], K.neg_(r1[1]))
    pt = tuple(K.add_(K.mul_(a, x), K.mul_(b, y)) for x, y in zip(r1, r2))
    return MEETS_PLANE, normalize_point(K, pt)


def _plane_lines(L: GF):
    """Each line of P = {x0 = x1 = 0} once, as (line of P^2, line of P^4).

    The ambient rows are the plane rows behind two zero columns, which keeps
    them in RREF.
    """
    for inner in enumerate_lines(L, 2):
        yield inner, ProjectiveLine(L, tuple((0, 0) + row for row in inner.rows), _trusted=True)


def _fiber_of_point(K: GF, pt) -> tuple[int, int]:
    """The pencil parameter (s:t) of the unique fiber hyperplane through pt."""
    if (pt[0], pt[1]) == (0, 0):
        raise InternalInconsistency("points of P lie in every fiber hyperplane")
    return normalize_point(K, (pt[0], pt[1]))


# ---------------------------------------------------------------------------
# the surface of lines over a fixed working field
# ---------------------------------------------------------------------------


class FanoSurface:
    """Every F_{q^k}-rational line on a normalized threefold, indexed.

    The working field is fixed at construction; all operators act on objects
    over that field.  Construction enumerates the fibers, their rulings (all
    fibers at once, :func:`pencil.rulings_of_fibers`), the full classified
    line list, and the torsor-ready point set.  The fibers and their rulings
    are the threefold's kept ``nf.pencils[k]``: ``FanoSurface(nf, k)`` rules
    them as a batch of one, and :func:`surfaces_of` those of several
    threefolds in one pass.  The node scheme ``Z`` is the base threefold's
    kept ``nf.Z``, so the surfaces over every degree share it.  The threefold
    keeps the first surface built over each degree as ``nf.surfaces[k]``,
    which :func:`surface_of` reads.
    """

    def __init__(self, nf: NormalizedThreefold, k: int = 1):
        self.base = nf
        self.k = k
        self.nf = nf.embedded(nf.K.extension(k))
        self.L: GF = self.nf.K
        self.Z = nf.Z

        _rule_pencils([nf], k)
        self.fibers, self.rulings = nf.pencils[k]
        self.curve_points: list[RulingClass] = [
            c for key in sorted(self.fibers) for c in self.rulings[key]
        ]

        self.nodes: list[tuple[ZPoint, tuple]] = []
        for z in self.Z.points_over(self.k):
            amb = normalize_point(self.L, (0, 0) + self.Z.coords_in(z, self.L))
            self.nodes.append((z, amb))
        self.nodes.sort(key=lambda pair: pair[1])
        self.node_index = {amb: z for z, amb in self.nodes}

        self._gradients: dict = {}
        self.lines: list[ClassifiedLine] = self._enumerate()
        self.by_rows = {cl.line.rows: cl for cl in self.lines}
        if len(self.by_rows) != len(self.lines):
            raise InternalInconsistency("line enumeration produced a duplicate")
        self.torsor_set = self._build_torsor_set()
        self._extension_rulings: dict = {}
        self._j_perms: dict = {}
        self._j_dicts: dict = {}
        nf.surfaces.setdefault(k, self)

    # -- enumeration --------------------------------------------------------

    def _enumerate(self) -> list[ClassifiedLine]:
        L = self.L
        out: dict[tuple, ClassifiedLine] = {}

        # every line of the plane P lies on Y
        for _, amb in _plane_lines(L):
            out[amb.rows] = ClassifiedLine(amb, IN_PLANE)
        if len(out) != L.q**2 + L.q + 1:
            raise InternalInconsistency("P must carry q^2 + q + 1 lines")

        # lines of the pencil fibers.  A line of P lies on the fiber quadric
        # Q_{s,t} exactly when it is a component of the conic s*q0 + t*q1, so
        # it is one of the ruling lines, and a second fiber would put it in Z.
        # The rows of a ruling line are in reduced echelon form: it lies in P
        # when its first row is zero on x0 and x1, and otherwise it meets P at
        # its second row, which then must be zero there.
        for key in sorted(self.fibers):
            for c in self.rulings[key]:
                for ln in c.lines:
                    first, second = ln.rows
                    prev = out.get(ln.rows)
                    if not (first[0] or first[1]):
                        if prev.fiber is not None:
                            raise InternalInconsistency("a line of P lies in two fibers, hence in Z")
                        out[ln.rows] = ClassifiedLine(prev.line, IN_PLANE, None, key, c.index)
                        continue
                    if second[0] or second[1]:
                        raise InternalInconsistency("a fiber line must meet the plane")
                    if prev is not None:
                        raise InternalInconsistency("a line off P lies in two fibers")
                    out[ln.rows] = ClassifiedLine(ln, MEETS_PLANE, second, key, c.index)

        # the open chart: lines disjoint from P
        for rows in self._disjoint_rows():
            if rows in out:
                raise InternalInconsistency("disjoint-chart line collides with a fiber line")
            out[rows] = ClassifiedLine(ProjectiveLine(L, rows, _trusted=True), DISJOINT)

        return sorted(out.values(), key=lambda cl: (_TAG_ORDER[cl.tag], cl.line.rows))

    def _disjoint_rows(self) -> list[tuple]:
        """RREF row pairs ((1,0,a),(0,1,b)) of the lines on Y avoiding P."""
        return _chart_rows(self.L, self.nf.f, self._gradient(self.L), _CHART_FRAMES)

    def _carries_torsor_point(self, cl: ClassifiedLine) -> bool:
        """A line is a torsor point when it misses P or meets P at a node."""
        return cl.tag == DISJOINT or (cl.tag == MEETS_PLANE and cl.meets_at in self.node_index)

    def _build_torsor_set(self) -> TorsorPointSet:
        node_pts = [TorsorPoint("node", node=amb) for _, amb in self.nodes]
        # self.lines lists the boundary lines (meeting P) before the disjoint ones
        lines = [cl for cl in self.lines if self._carries_torsor_point(cl)]
        n_boundary = sum(cl.tag == MEETS_PLANE for cl in lines)
        points = tuple(node_pts) + tuple(TorsorPoint("line", rows=cl.line.rows) for cl in lines)
        if len(set(points)) != len(points):
            raise InternalInconsistency("torsor constituents must be pairwise disjoint")
        return TorsorPointSet(points, len(node_pts), n_boundary, len(lines) - n_boundary)

    # -- lookups -------------------------------------------------------------

    def classified(self, line: ProjectiveLine) -> ClassifiedLine:
        try:
            return self.by_rows[line.rows]
        except KeyError:
            raise _error(_MISSING_LINE) from None

    def ruling_of(self, cl: ClassifiedLine) -> RulingClass:
        if cl.fiber is None:
            raise ValueError("the line lies in no fiber")
        return self.rulings[cl.fiber][cl.ruling_index]

    def other_ruling(self, c: RulingClass) -> RulingClass:
        return hyperelliptic_involution(c, self.rulings[(c.s, c.t)])

    def node_coords(self, z: ZPoint) -> tuple:
        if self.L.k % (self.Z.K.k * z.degree):
            raise InvalidInput("the node is not rational over the working field")
        amb = normalize_point(self.L, (0, 0) + self.Z.coords_in(z, self.L))
        if amb not in self.node_index:
            raise InvalidInput("the node is not rational over the working field")
        return amb

    def _check_member(self, x: TorsorPoint) -> None:
        if x.kind == "node":
            if x.node not in self.node_index:
                raise InvalidInput("unknown node")
            return
        cl = self.by_rows.get(x.rows)
        if cl is None:
            raise InvalidInput("unknown line")
        if not self._carries_torsor_point(cl):
            raise InvalidInput("the line is not a torsor point")

    # -- ruling operators ------------------------------------------------------

    @cached_property
    def _rulings_over_L(self) -> "_RulingPoints":
        return _RulingPoints(self.L, self.curve_points)

    def _ruling_points(self, c: RulingClass) -> "_RulingPoints":
        """The point lookup holding c: the one of every class over the working
        field, or one kept per class over an extension."""
        if c.K is self.L:
            return self._rulings_over_L
        found = self._extension_rulings.get(c.key)
        if found is None:
            found = self._extension_rulings[c.key] = _RulingPoints(c.K, [c])
        return found

    def _one_line_through(self, c: RulingClass, pt, several, none) -> ProjectiveLine:
        """The line of c through a point, or the error for several or none."""
        look = self._ruling_points(c)
        hit = look.find(np.array([look.position[c.key]]), np.array([pt]))[0]
        if hit == SEVERAL:
            raise _error(several)
        if hit == NONE:
            raise _error(none)
        return look.lines[hit]

    def tau(self, z: ZPoint, c: RulingClass) -> ProjectiveLine:
        """The unique line of the ruling c through the node z."""
        return self._one_line_through(c, self._node_in(z, c.K), *_TAU)

    def _node_in(self, z: ZPoint, M: GF) -> tuple:
        if M is self.L:
            return self.node_coords(z)
        return normalize_point(M, (0, 0) + self.Z.coords_in(z, M))

    def sigma(self, line: ProjectiveLine, c: RulingClass) -> ProjectiveLine:
        """The unique line of the ruling c meeting a given P-disjoint line.

        The line crosses the fiber hyperplane of c in a single point of the
        fiber quadric (:func:`_crossings`), and the ruling lines meeting the
        line are those through that point.  One passes through it -- unless
        the point is a cone vertex, where every generator does (excluded
        locus).
        """
        if self.classified(line).tag != DISJOINT:
            raise ValueError("sigma acts on lines disjoint from the plane")
        crossing = _crossings(self.L, np.array([(c.s, c.t)]), np.array([line.rows]))[0]
        return self._one_line_through(c, crossing, *_SIGMA)

    def phi(self, z: ZPoint, line: ProjectiveLine) -> list[tuple[RulingClass, int]]:
        """Ruling classes of the (two, with multiplicity) lines through z meeting the line.

        The span of the line and the node cuts Y in the line plus a conic that
        is singular at the node, hence splits into two lines through it; their
        classes form the unordered pair.  A conjugate pair is returned over
        the quadratic extension of the working field.
        """
        L = self.L
        if self.classified(line).tag != DISJOINT:
            raise ValueError("phi acts on lines disjoint from the plane")
        zamb = ProjectivePoint(L, self.node_coords(z))
        S = span(L, line, zamb)
        if S.dim != 2:
            raise InternalInconsistency("a point off a line spans a plane with it")
        section = self.nf.f.restrict(S.matrix)
        if section.is_zero:
            raise PlaneContained("the span of the line and the node lies on Y")
        ell = linear_form_cutting_line_in_plane(S, line)
        conic = divide_by_linear(section, ell)
        if conic.is_zero:
            raise InternalInconsistency("the residual conic cannot contain the whole plane")
        if any(conic.gradient(S.point_coords(zamb))):
            raise InternalInconsistency("the residual conic must be singular at the node")
        M, C = L, conic.symmetric_matrix()[None]
        rows, mult, split = _singular_conic_lines(M, C)
        if not split[0]:
            M = L.extension(2)
            rows, mult, split = _singular_conic_lines(M, L.lift(C, M))
        S_big = L.lift(S.matrix, M)
        return [
            (self._class_of_node_line(z, ProjectiveLine(M, mat_mul(M, line_rows, S_big)), M), m)
            for line_rows, m in zip(rows[0], mult[0].tolist())
            if m
        ]

    def _class_of_node_line(self, z: ZPoint, branch: ProjectiveLine, M: GF) -> RulingClass:
        """The ruling class (over M) of a fiber line through the node z."""
        tag, pt = _meet_with_plane(M, branch.rows)
        if tag != MEETS_PLANE or pt != self._node_in(z, M):
            raise InternalInconsistency("a branch through the node must meet P exactly at the node")
        key = _fiber_of_point(M, next(row for row in branch.rows if (row[0], row[1]) != (0, 0)))
        if M is self.L:
            classes = self.rulings[key]
        else:
            classes = rulings_of_fiber(pencil_fibers(self.base, M, [key])[0])
        for c in classes:
            if branch in c.lines:
                return c
        raise InternalInconsistency("a fiber line through the node is missing from its ruling")

    def psi(self, z: ZPoint, c: RulingClass, d: RulingClass) -> Residual:
        """The residual line of the span of tau_z(c) and tau_z(d).

        For c = d the span degenerates and the first-order deformation of the
        ruling along its fiber pencil supplies the limiting plane.  The pair
        is in the excluded locus (ResampleRequired) when both ruling lines
        lie in P.
        """
        if c.K is not d.K:
            raise ValueError("the two ruling classes must live over one field")
        M = c.K
        t1 = self.tau(z, c)
        t2 = self.tau(z, d)
        if _meet_with_plane(M, t1.rows)[0] == IN_PLANE and _meet_with_plane(M, t2.rows)[0] == IN_PLANE:
            raise _error(_BOTH_IN_P)
        if c.key != d.key:
            rows, message = t1.rows + t2.rows, _SPAN_OF_NODE_LINES
        elif c.is_cone:
            rows, message = self._cone_tangent_plane(z, c).rows, _DIAGONAL_PLANE
        else:
            planes, solvable = self._deformation_planes(
                M, np.array([(c.s, c.t)]), np.array([self._node_in(z, M)]), np.array([t1.rows[0]])
            )
            if not solvable[0]:
                raise _error(_NO_DEFORMATION)
            rows, message = planes[0], _DEFORMATION_LEAVES_LINE
        plane = LinearSubspace(M, rows)
        if plane.dim != 2:
            raise _error(message)
        return residual_line(self.nf.embedded(M).f, plane, t1, t2)

    def _cone_tangent_plane(self, z: ZPoint, c: RulingClass) -> LinearSubspace:
        """The fiber tangent plane along the cone generator through z."""
        M = c.K
        (fib,) = pencil_fibers(self.base, M, [(c.s, c.t)])
        zf = (0,) + tuple(self._node_in(z, M)[2:])
        row = mat_vec(M, fib.matrix, zf)
        if not row.any():
            raise NotGeneral("the node sits at the cone vertex; the node scheme is not reduced")
        return LinearSubspace(M, fib.ambient_rows(hyperplane_rows(M, row)))

    def _gradient(self, M: GF) -> list[HomogeneousForm]:
        """The five partial derivatives of the cubic over M, built once per field."""
        found = self._gradients.get(M)
        if found is None:
            f = self.nf.embedded(M).f
            found = self._gradients[M] = [f.derivative(i) for i in range(5)]
        return found

    def _deformation_planes(self, M: GF, st: np.ndarray, nodes: np.ndarray, ys: np.ndarray):
        """Limits of span(tau_z(c), tau_z(c')) as c' -> c along the fiber pencil, n at once.

        Row i holds the fiber parameter (s, t) of a smooth class c, a node z
        and the first row y of tau_z(c), a point off P.  The ruling line is
        deformed to first order inside the moving fiber: the
        epsilon-coefficients of the four binary-cubic conditions plus the
        moving-hyperplane condition are linear in the deformation vector u.
        One batch of gradient evaluations sets up every system and one
        stacked elimination solves them all; u has its free unknowns zero,
        and (z, y, u) spans the limiting plane.  Returns the (n, 3, 5) rows
        and which systems are solvable.
        """
        n = len(ys)
        pts = np.concatenate([ys, M.add(nodes, ys), M.sub(nodes, ys)])
        grads = np.stack([g.evaluate_batch(pts) for g in self._gradient(M)], axis=1).astype(np.int64)
        g_y, g_p, g_m = grads[:n], grads[n : 2 * n], grads[2 * n :]
        system = np.zeros((n, 4, 6), dtype=np.int64)
        system[:, 0, 0] = st[:, 1]
        system[:, 0, 1] = M.neg[st[:, 0]]
        # the hyperplane moves toward (s1:t1) = (1:0), or (0:1) when t = 0
        system[:, 0, 5] = np.where(st[:, 1] == 0, M.neg[ys[:, 0]], ys[:, 1])
        system[:, 1, :5] = g_y
        system[:, 2, :5] = M.sub(g_p, g_m)
        system[:, 3, :5] = M.sub(M.add(g_p, g_m), M.mul(2 % M.p, g_y))
        reduced, ranks = rref_stack(M, system)
        used = np.arange(4) < ranks[:, None]
        # each used row sets the unknown at its pivot; unused rows write the right-hand slot
        pivots = np.where(used, (reduced != 0).argmax(axis=2), 5)
        u = np.zeros((n, 6), dtype=np.int64)
        u[np.arange(n)[:, None], pivots] = np.where(used, reduced[:, :, 5], 0)
        solvable = ~((pivots == 5) & used).any(axis=1)
        return np.stack([nodes, ys, u[:, :5]], axis=1), solvable

    # -- the involutions j_c ----------------------------------------------------

    def involution(self, c: RulingClass, x: TorsorPoint) -> TorsorPoint:
        """The involution attached to a ruling class, on the torsor-ready set.

        Case analysis on x: a node maps to the opposite ruling line through
        it; a boundary line maps through the residual of its span with the
        matching ruling line (back to the node when the classes are
        conjugate, via the first-order limit on the diagonal); a disjoint
        line maps through the residual of its span with sigma.  This is the
        one-point call of :meth:`_involution_images`.
        """
        self._check_member(x)
        (out,) = self._involution_images([c], np.array([self._arrays.torsor_index[x]]))
        if isinstance(out, Exception):
            raise out
        return self.torsor_set.points[out[0]]

    def j_tables(self) -> dict:
        """Every class's involution as an index array over the torsor-ready set.

        Maps each class key to its array (point i goes to point perm[i]) or
        to the error :meth:`j_perm` raises for the class.  The classes not
        yet built are built in one stacked pass, which over F_{q^k} works one
        (class, point) pair per Frobenius orbit over F_q and reads the others
        off by conjugation (:meth:`_involution_images`): everything is built
        over F_q, so the pass commutes with Frobenius.
        """
        todo = [c for c in self.curve_points if c.key not in self._j_perms]
        for c, out in zip(todo, self._involution_images(todo, np.arange(len(self.torsor_set)))):
            self._j_perms[c.key] = out if isinstance(out, Exception) else _checked_involution(out)
        return self._j_perms

    def j_perm(self, c: RulingClass) -> np.ndarray:
        """One class's involution as an index array: the one-class call of :meth:`j_tables`."""
        out = self._j_perms.get(c.key)
        if out is None:
            (out,) = self._involution_images([c], np.arange(len(self.torsor_set)))
            out = self._j_perms[c.key] = out if isinstance(out, Exception) else _checked_involution(out)
        if isinstance(out, Exception):
            raise out.with_traceback(None)
        return out

    def j_table(self, c: RulingClass) -> dict[TorsorPoint, TorsorPoint]:
        """The involution as a permutation table of the torsor-ready set."""
        table = self._j_dicts.get(c.key)
        if table is None:
            points = self.torsor_set.points
            table = self._j_dicts[c.key] = {x: points[i] for x, i in zip(points, self.j_perm(c).tolist())}
        return table

    @cached_property
    def _arrays(self) -> "_TorsorArrays":
        return _TorsorArrays(self)

    def _involution_images(self, classes, idx: np.ndarray) -> list:
        """The images of the torsor points ``idx`` (ascending) under each class's involution.

        Per class: the torsor indices of the images, or the error
        :meth:`involution` raises at the first point of ``idx`` that fails.
        Every (class, point) pair is worked at once, by kind of point:

        * a node goes to the line of the opposite ruling through it;
        * a disjoint line meets the one line of c through the point where it
          crosses c's fiber hyperplane (:func:`_crossings`), and the two
          span a section;
        * a boundary line through a node z, of class d, goes to z when d is
          c's opposite; otherwise tau_z(c) and tau_z(d) span a section, or
          for d = c the deformation plane (:meth:`_deformation_planes`) is
          the section.  A cone class is its own opposite, so d = c is
          never a cone class there.

        Ruling lines are read off the point lookup of all classes.  The
        sections of every pair are solved at once (:meth:`_land_sections`):
        each residual line comes back as rows with an outcome code, is found
        among the surface's lines by one row-key search, and lands in the
        torsor-ready set.  A pair's first error is kept in place of its
        image; a class that fails at a node is worked no further, since
        nodes come first.

        Only one pair per Frobenius orbit is worked.  The threefold and P are
        defined over F_q, so Frobenius phi over F_q commutes with every step
        above: j_{phi c}(phi x) = phi(j_c(x)), with the same error.  Of each
        orbit the least (class, point) pair is worked, and every other pair
        (phi^m c, phi^m x) takes its error and phi^m of its image
        (:class:`_PairOutcomes`).  A pair whose least pair lies outside the
        batch (one class, one point, or classes built before) is worked
        itself, and over F_q every pair is its own orbit.
        """
        arrays = self._arrays
        look = self._rulings_over_L
        try:
            cls = np.array([look.position[c.key] for c in classes], dtype=np.int64)
        except KeyError:
            raise ValueError("the ruling class must live over the working field") from None
        n_nodes = self.torsor_set.n_nodes
        out = _PairOutcomes(arrays, look, cls, idx)
        node = np.broadcast_to(idx < n_nodes, out.image.shape)

        # nodes: the opposite ruling line through the node
        rows, cols = out.to_work(node)
        pts = arrays.node_coords[idx[cols]]
        out.land(rows, cols, out.line_through(rows, cols, arrays.bar[cls[rows]], pts, *_TAU), _NODE_LINE_IN_P)
        out.read_off(node)

        alive = (out.error < 0).all(axis=1)
        out.keep_alive(alive)
        rows, cols = out.to_work(~node & alive[:, None])
        c = cls[rows]
        line = arrays.point_line[idx[cols] - n_nodes]
        d, z = arrays.ruling[line], arrays.node_of[line]
        to_node = (z >= 0) & (d == arrays.bar[c])
        out.image[rows[to_node], cols[to_node]] = z[to_node]

        # disjoint lines and the ruling line through their crossing point
        on = z < 0
        r, k, cd = rows[on], cols[on], c[on]
        m = out.line_through(r, k, cd, _crossings(self.L, arrays.st[cd], arrays.line_rows[line[on]]), *_SIGMA)
        sections = [_Sections(r, k, line[on], m, _SPAN_OF_DISJOINT_LINE, _DISJOINT_RESIDUAL_IN_P)]

        # boundary lines: the two ruling lines through their node
        on = (z >= 0) & ~to_node
        r, k, cd, dd, zd = rows[on], cols[on], c[on], d[on], z[on]
        t1 = out.line_through(r, k, cd, arrays.node_coords[zd], *_TAU)
        t2 = out.line_through(r, k, dd, arrays.node_coords[zd], *_TAU)
        out.fail(r, k, arrays.in_plane[t1] & arrays.in_plane[t2], _BOTH_IN_P)
        off = cd != dd
        sections.append(_Sections(r[off], k[off], t1[off], t2[off], _SPAN_OF_NODE_LINES, _OFF_TORSOR))
        smooth = (cd == dd) & out.ok(r, k)
        if smooth.any():
            r1, k1, t = r[smooth], k[smooth], t1[smooth]
            planes, solvable = self._deformation_planes(
                self.L, arrays.st[cd[smooth]], arrays.node_coords[zd[smooth]], arrays.line_rows[t, 0]
            )
            out.fail(r1, k1, ~solvable, _NO_DEFORMATION)
            sections.append(_Sections(r1, k1, t, t, _DEFORMATION_LEAVES_LINE, _OFF_TORSOR, planes))

        self._land_sections(out, [s.kept(out.ok(s.rows, s.cols)) for s in sections])
        out.read_off(~node)
        return out.result()

    def _land_sections(self, out: "_PairOutcomes", sections: list["_Sections"]) -> None:
        """Solve every section at once and land each residual line: one stacked
        elimination, one batch evaluation of the cubic on the planes, one
        :func:`residual_from_values` call and one row-key search."""
        arrays = self._arrays
        cuts = np.cumsum([len(s.rows) for s in sections])
        blocks = np.zeros((cuts[-1], 4, 5), dtype=np.int64)
        # each section's rows, four to a section with zero rows padding
        for s, block in zip(sections, np.split(blocks, cuts[:-1])):
            if s.spanning is None:
                block[:, :2], block[:, 2:] = arrays.line_rows[s.first], arrays.line_rows[s.second]
            else:
                block[:, :3] = s.spanning
        reduced, ranks = rref_stack(self.L, blocks)
        spans = ranks == 3
        planes = reduced[spans, :3]
        first = arrays.line_rows[np.concatenate([s.first for s in sections])[spans]]
        second = arrays.line_rows[np.concatenate([s.second for s in sections])[spans]]
        rows, _, outcome = residual_from_values(self.L, planes, first, second, plane_section_values(self.nf.f, planes))
        # the outcome and the line of each section, -1 where its rows span no plane
        code, line = np.full((2, len(blocks)), -1)
        code[spans], line[spans] = outcome, arrays.lines.find(rows)
        for s, sc, sl in zip(sections, np.split(code, cuts[:-1]), np.split(line, cuts[:-1])):
            r, k = s.rows, s.cols
            out.fail(r, k, sc < 0, s.message)
            for c, spec in enumerate(RESIDUAL_ERRORS[1:], start=1):
                out.fail(r, k, sc == c, spec)
            out.fail(r, k, (sc == 0) & (sl < 0), _MISSING_LINE)
            landed = out.ok(r, k)
            out.land(r[landed], k[landed], sl[landed], s.in_p)


def surface_of(nf: NormalizedThreefold, k: int = 1) -> FanoSurface:
    """The threefold's line surface over F_{q^k}: the kept one, built on first need."""
    surface = nf.surfaces.get(k)
    return surface if surface is not None else FanoSurface(nf, k)


def surfaces_of(nfs, k: int = 1) -> list[FanoSurface]:
    """The line surfaces over F_{q^k} of threefolds over one field: the kept ones,
    and the others built on first need, their pencils ruled together in one
    pass (:func:`_rule_pencils`)."""
    nfs = list(nfs)
    _rule_pencils([nf for nf in nfs if k not in nf.surfaces], k)
    return [surface_of(nf, k) for nf in nfs]


def _rule_pencils(nfs: list, k: int) -> None:
    """Keep on each threefold its pencil over F_{q^k}, ruled, where it is not kept yet.

    ``nf.pencils[k]`` is (fibers, rulings), each keyed by (s:t).  The fibers
    of all the threefolds come from one stacked evaluation
    (:func:`pencil.stacked_pencil_fibers`), and their rulings from one
    :func:`pencil.rulings_of_fibers` call, whose rank, cone and pairing
    checks run over the whole stack.
    """
    fresh = list({id(nf): nf for nf in nfs if k not in nf.pencils}.values())
    if not fresh:
        return
    L = fresh[0].K.extension(k)
    params = list(projective_reps(L, 1))
    fibers = stacked_pencil_fibers(fresh, L, params)
    rulings = iter(rulings_of_fibers([fiber for pencil in fibers for fiber in pencil]))
    for nf, pencil in zip(fresh, fibers):
        nf.pencils[k] = (dict(zip(params, pencil)), {key: next(rulings) for key in params})


# the errors of the involution steps, as (type, message); _error makes the instance
# (several lines through the point, none) of tau and sigma
_TAU = (
    (NotGeneral, "the node sits at a cone vertex; the node scheme is not reduced"),
    (InternalInconsistency, "a node lies on every fiber quadric, so some ruling line passes through it"),
)
_SIGMA = (
    (ResampleRequired, "the line passes through the vertex of a cone fiber"),
    (InternalInconsistency, "a disjoint line crosses every fiber quadric in a ruled point"),
)
_NODE_LINE_IN_P = (ResampleRequired, "the opposite ruling line through the node lies in P")
_MEETS_AWAY = (InternalInconsistency, "an involution output meets P away from every node")
_MISSING_LINE = (InternalInconsistency, "a line claimed to be on Y is missing from the enumeration")
_DISJOINT_RESIDUAL_IN_P = (InternalInconsistency, "the residual of a disjoint-line span cannot lie in P")
_BOTH_IN_P = (ResampleRequired, "both ruling lines lie in P: the pair is in the excluded locus")
_OFF_TORSOR = (ResampleRequired, "the residual through the node lands on an excluded in-plane line")
_NO_DEFORMATION = (InternalInconsistency, "the ruling deforms with its fiber away from the branch points")

# the errors of sections whose rows span no plane
_SPAN_OF_DISJOINT_LINE = (InternalInconsistency, "a disjoint line and the ruling line meeting it span a plane")
_SPAN_OF_NODE_LINES = (InternalInconsistency, "distinct lines through one node span a plane")
_DIAGONAL_PLANE = (InternalInconsistency, "the limiting plane of a diagonal pair is a plane")
_DEFORMATION_LEAVES_LINE = (InternalInconsistency, "the first-order deformation must leave the line")


def _error(spec) -> Exception:
    """A kept error, (type, message), as an instance to raise."""
    return spec[0](spec[1])


def _checked_involution(perm: np.ndarray):
    """perm, read-only, when it is an involutive permutation; else the error j_table raises."""
    if len(np.unique(perm)) != len(perm):
        return InternalInconsistency("an involution must permute the torsor-ready set")
    if (perm[perm] != np.arange(len(perm))).any():
        return InternalInconsistency("j_c composed with itself must be the identity")
    perm.flags.writeable = False
    return perm


def _crossings(K: GF, st: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Where each line span(a, b) crosses the fiber hyperplane t*x0 = s*x1, n at once.

    ``st`` holds the n parameters (s, t) and ``rows`` the (n, 2, N) rows
    (a, b); the point is g(b)*a - g(a)*b with g(v) = t*v0 - s*v1, nonzero for
    a line off the hyperplane, and left unnormalized.
    """
    s, t = st[:, 0, None], st[:, 1, None]
    a, b = rows[:, 0], rows[:, 1]
    ga = K.sub(K.mul(t, a[:, :1]), K.mul(s, a[:, 1:2]))
    gb = K.sub(K.mul(t, b[:, :1]), K.mul(s, b[:, 1:2]))
    return K.sub(K.mul(gb, a), K.mul(ga, b))


# what a point lookup returns for a point on no line of the class, and on several
NONE, SEVERAL = -1, -2


class _RulingPoints:
    """The points of the lines of some ruling classes over one field M, each
    mapped to the line of its class through it.

    A point at position p (``projective_reps`` order) on a line of class i
    has the key i * #P^4(M) + p.  The keys are kept sorted, so a batch of
    (class, point) pairs is one ``searchsorted``; the memory is the points
    of the lines, not of P^4.
    """

    def __init__(self, M: GF, classes):
        self.M = M
        self.classes = list(classes)
        self.position = {c.key: i for i, c in enumerate(self.classes)}
        self.lines = [ln for c in self.classes for ln in c.lines]
        self.size = count_points(M, 4)
        self.rows = np.array([ln.rows for ln in self.lines], dtype=np.int64).reshape(len(self.lines), 2, 5)
        pts = line_points(M, self.rows[:, 0], self.rows[:, 1])
        owner = np.repeat(np.arange(len(self.classes)), [len(c.lines) for c in self.classes])
        keys = owner[:, None] * self.size + point_positions(M, pts.reshape(-1, 5)).reshape(pts.shape[:2])
        self.keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
        # NONE at the end, where a point on no line reads
        self.line = np.append(np.where(counts == 1, first // (M.q + 1), SEVERAL), NONE)

    def find(self, which: np.ndarray, pts: np.ndarray) -> np.ndarray:
        """For class positions and nonzero points: the index into ``lines`` of the
        one line of the class through the point, or NONE, or SEVERAL."""
        return self.line[_position(self.keys, which * self.size + point_positions(self.M, pts))]


class _Sections(NamedTuple):
    """Plane sections of some (class, point) pairs of a stacked pass, one per pair.

    A section holds two lines (indices into ``surface.lines``) and is
    spanned by their rows, or by the given (n, 3, 5) ``spanning`` rows;
    ``message`` is the error of rows that span no plane and ``in_p`` the
    error when the residual line lies in P.
    """

    rows: np.ndarray
    cols: np.ndarray
    first: np.ndarray
    second: np.ndarray
    message: tuple
    in_p: tuple
    spanning: np.ndarray | None = None

    def kept(self, mask: np.ndarray) -> "_Sections":
        """The sections of the masked pairs."""
        spanning = None if self.spanning is None else self.spanning[mask]
        return self._replace(
            rows=self.rows[mask], cols=self.cols[mask], first=self.first[mask], second=self.second[mask],
            spanning=spanning,
        )


class _PairOutcomes:
    """The image or the first error of each (class, point) pair of a stacked pass.

    ``error[i, j]`` indexes ``errors`` (-1 for none yet); an error is kept as
    its (type, message), made an instance by :func:`_error`.
    Pair (i, j) is class ``cls[i]`` at torsor point ``idx[j]``.  Each pair has
    a source pair of the batch (``source``, with the power of Frobenius that
    carries the source to it): the least pair of its Frobenius orbit, by
    class position and then torsor index, when that pair is in the batch,
    and otherwise the pair itself.  Only the pairs that are their own source
    are worked; the others are read off their sources.
    """

    def __init__(self, arrays: "_TorsorArrays", look: "_RulingPoints", cls: np.ndarray, idx: np.ndarray):
        self.arrays, self.look = arrays, look
        self.errors: list = []
        self.error = np.full((len(cls), len(idx)), -1, dtype=np.int64)
        self.image = np.zeros((len(cls), len(idx)), dtype=np.int64)
        self.pairs = np.indices(self.image.shape)
        self.source, self.power = _orbit_sources(arrays, cls, idx)

    def to_work(self, mask) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, cols) of the masked pairs that are their own source."""
        return np.nonzero(mask & (self.source == self.pairs).all(axis=0))

    def keep_alive(self, alive) -> None:
        """Make each live pair whose source's class failed its own source: that
        source was worked no further, so the pair is worked itself."""
        dead = alive[self.pairs[0]] & ~alive[self.source[0]]
        self.source[:, dead] = self.pairs[:, dead]
        self.power[dead] = 0

    def read_off(self, mask) -> None:
        """Each masked pair that is not its own source takes its source's
        error, and its source's image moved by Frobenius: j_{phi c}(Phi x) =
        Phi(j_c(x))."""
        rows, cols = np.nonzero(mask & (self.source != self.pairs).any(axis=0))
        src = tuple(self.source[:, rows, cols])
        self.error[rows, cols] = self.error[src]
        # a failed source's image is unread, and may be a negative land code
        self.image[rows, cols] = self.arrays.frob_points[self.power[rows, cols], np.maximum(self.image[src], 0)]

    def fail(self, rows, cols, mask, exc) -> None:
        """Keep exc as the error of the masked pairs that have none yet."""
        rows, cols = rows[mask], cols[mask]
        kept = self.error[rows, cols]
        self.error[rows, cols] = np.where(kept < 0, len(self.errors), kept)
        self.errors.append(exc)

    def ok(self, rows, cols) -> np.ndarray:
        return self.error[rows, cols] < 0

    def line_through(self, rows, cols, which, pts, several, none) -> np.ndarray:
        """The line (index into ``surface.lines``) of class ``which`` through each point."""
        hit = self.look.find(which, pts)
        self.fail(rows, cols, hit == SEVERAL, several)
        self.fail(rows, cols, hit == NONE, none)
        return self.arrays.ruling_line[np.maximum(hit, 0)]

    def land(self, rows, cols, lines, in_p) -> None:
        """Each line as the pair's image, or in_p when it lies in P."""
        code = self.arrays.land[lines]
        self.fail(rows, cols, code == IN_P, in_p)
        self.fail(rows, cols, code == AWAY, _MEETS_AWAY)
        self.image[rows, cols] = code

    def result(self) -> list:
        """Per class: its images, or the error of its first failing point."""
        out = []
        for error, image in zip(self.error, self.image):
            bad = np.flatnonzero(error >= 0)
            out.append(_error(self.errors[error[bad[0]]]) if len(bad) else image)
        return out


def _orbit_sources(arrays: "_TorsorArrays", cls: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The source of each pair of a stacked pass over classes ``cls`` and points ``idx``.

    Returns ``source``, the (2, classes, points) rows and columns of each
    pair's source, and ``power``, the power of Frobenius that carries the
    source to the pair (see :class:`_PairOutcomes`).
    """
    k, n_points = arrays.frob_points.shape
    orbit_cls, orbit_pts = arrays.frob_classes[:, cls], arrays.frob_points[:, idx]
    # phi^least of a pair is its orbit's least pair, and phi^(k - least) carries that back
    least = (orbit_cls[:, :, None] * n_points + orbit_pts[:, None, :]).argmin(axis=0)
    row_of = np.full(arrays.frob_classes.shape[1], -1)
    row_of[cls] = np.arange(len(cls))
    col_of = np.full(n_points, -1)
    col_of[idx] = np.arange(len(idx))
    source = np.stack(
        [row_of[orbit_cls[least, np.arange(len(cls))[:, None]]], col_of[orbit_pts[least, np.arange(len(idx))]]]
    )
    outside = (source < 0).any(axis=0)
    source[:, outside] = np.indices(least.shape)[:, outside]
    return source, np.where(outside, 0, (k - least) % k)


# the land code of a line that is no torsor point: inside P, or meeting P off the nodes
IN_P, AWAY = -1, -2


class _TorsorArrays:
    """A surface's lines and torsor-ready set as arrays, for the stacked involution pass.

    Lines are indexed as in ``surface.lines`` and classes as in
    ``surface.curve_points``.  Per line: its rows, whether it lies in P, its
    land code (its torsor index, IN_P or AWAY) and, for a boundary line, its
    node's torsor index and its class.  Per class: the opposite class, the
    fiber parameter (s, t) and whether the fiber is a cone.  And Frobenius
    over the base field, on the torsor-ready set and on the classes
    (:meth:`_frobenius`).  Lines and nodes are found by their rows or
    coordinates in the row-key searches ``lines`` and ``nodes``.
    """

    def __init__(self, surface: FanoSurface):
        lines = surface.lines
        ts = surface.torsor_set
        look = surface._rulings_over_L
        self.line_rows = np.array([cl.line.rows for cl in lines], dtype=np.int64).reshape(len(lines), 2, 5)
        self.lines = _RowSearch(self.line_rows)
        self.in_plane = np.array([cl.tag == IN_PLANE for cl in lines], dtype=bool)
        self.torsor_index = {x: i for i, x in enumerate(ts.points)}
        self.node_coords = np.array([x.node for x in ts.nodes], dtype=np.int64).reshape(ts.n_nodes, 5)
        self.nodes = _RowSearch(self.node_coords)
        # a line that does not meet P once stands at the zero row, which is no node
        meets_at = np.array([cl.meets_at or (0,) * 5 for cl in lines], dtype=np.int64).reshape(-1, 5)
        self.node_of = self.nodes.find(meets_at)
        # the torsor-ready set lists the lines that miss P or meet it at a
        # node, in the order of surface.lines
        carries = (self.node_of >= 0) | np.array([cl.tag == DISJOINT for cl in lines], dtype=bool)
        self.land = np.where(carries, ts.n_nodes + np.cumsum(carries) - 1, np.where(self.in_plane, IN_P, AWAY))
        boundary = np.flatnonzero(self.node_of >= 0)
        self.ruling = np.full(len(lines), -1, dtype=np.int64)
        self.ruling[boundary] = [look.position[surface.ruling_of(lines[i]).key] for i in boundary]
        self.point_line = np.flatnonzero(carries)
        self.ruling_line = self.lines.find(look.rows)
        if (self.ruling_line < 0).any():
            raise _error(_MISSING_LINE)
        self.bar = np.array([look.position[surface.other_ruling(c).key] for c in look.classes], dtype=np.int64)
        self.st = np.array([(c.s, c.t) for c in look.classes], dtype=np.int64).reshape(-1, 2)
        self.frob_points, self.frob_classes = self._frobenius(surface, look)

    def _frobenius(self, surface: FanoSurface, look: "_RulingPoints") -> tuple[np.ndarray, np.ndarray]:
        """Frobenius over the base field on the torsor-ready set (Phi) and on the classes (phi).

        Each comes as its k powers, row i the i-th, for k the degree of the
        working field over the base field F_q.  Frobenius x -> x^q is
        ``L.frob`` composed once per degree of F_q over F_p.  It fixes 0 and
        1, so it keeps normalized points and reduced echelon rows canonical:
        a node or line moves to the one found by its moved coordinates or
        rows, and phi takes a class to the class of its first line's image.
        """
        L = surface.L
        frob = np.arange(L.q)
        for _ in range(surface.base.K.k):
            frob = L.frob[frob]
        nodes, lines = self.nodes.find(frob[self.node_coords]), self.lines.find(frob[self.line_rows])
        if (nodes < 0).any() or (lines < 0).any():
            raise InternalInconsistency("Frobenius moves a node or a line off the surface")
        points = np.concatenate([nodes, self.land[lines[self.point_line]]])
        sizes = np.array([len(c.lines) for c in look.classes], dtype=np.int64)
        owner = np.full(len(lines), -1)
        owner[self.ruling_line] = np.repeat(np.arange(len(sizes)), sizes)
        classes = owner[lines[self.ruling_line[np.cumsum(sizes) - sizes]]]
        return _powers(points, surface.k, "torsor-ready set"), _powers(classes, surface.k, "ruling classes")


class _RowSearch:
    """The rows of a code array, found by value.

    A row's key is its codes as big-endian uint16 bytes in one void scalar,
    so the keys sort in the order of the codes and have no size bound.
    """

    def __init__(self, rows: np.ndarray):
        keys = _row_keys(rows)
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        # -1 at the end, where a missing row's position -1 reads
        self.index = np.append(order, -1)

    def find(self, rows: np.ndarray) -> np.ndarray:
        """The index of each row among the kept rows, or -1 where it is not kept."""
        return self.index[_position(self.keys, _row_keys(rows))]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte key per row of an (n, ...) code array."""
    rows = np.ascontiguousarray(rows, dtype=">u2")
    width = math.prod(rows.shape[1:])
    return rows.reshape(len(rows), width).view(f"V{2 * width}").ravel()


def _position(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The position of each wanted key in the sorted keys, or -1 where it is missing."""
    if not len(keys):
        return np.full(len(wanted), -1)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def _powers(perm: np.ndarray, k: int, what: str) -> np.ndarray:
    """The k powers of a permutation of order dividing k, row i the i-th; raise for anything else."""
    ident = np.arange(len(perm))
    if not np.array_equal(np.sort(perm), ident):
        raise InternalInconsistency(f"Frobenius must permute the {what}")
    out = [ident]
    for _ in range(k - 1):
        out.append(perm[out[-1]])
    if not np.array_equal(perm[out[-1]], ident):
        raise InternalInconsistency(f"Frobenius to the degree of the working field must fix the {what}")
    return np.stack(out)


def _singular_conic_lines(K: GF, conics: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two lines of each conic of an (n, 3, 3) stack of symmetric matrices of rank 1 or 2.

    Each line joins a point v of the conic's kernel to a root (b : g) of the
    conic on span(c1, c2), for c1, c2 the unit vectors that complete v to a
    basis (:func:`linalg.unit_complement`).  Returns (rows, mult, split):
    ``rows`` (n, 2, 2, 3) holds (v, b c1 + g c2) in the order of
    :func:`forms.quadratic_roots`, whose mult and split come along; a conic
    that is not split has a conjugate pair of lines, which the conic lifted
    into ``K.extension(2)`` gives.
    """
    at = np.arange(len(conics))
    # v is 1 in the first free column of the reduced matrix and minus that
    # column at the pivots; pivot[n, j, i] says that row i has its pivot in column j
    R, _ = rref_stack(K, conics)
    pivot = ((R != 0).argmax(axis=2)[:, None, :] == np.arange(3)[:, None]) & R.any(axis=2)[:, None, :]
    free = (~pivot.any(axis=2)).argmax(axis=1)
    v = K.sub(np.eye(3, dtype=np.int64)[free], dot(K, pivot.astype(np.int64), R[at, :, free][:, None, :]))
    c = unit_complement(v)
    Q = conics[at[:, None, None], c[:, :, None], c[:, None, :]]  # the conic on span(c1, c2)
    roots, mult, split = quadratic_roots(K, Q[:, 0, 0], K.add(Q[:, 0, 1], Q[:, 0, 1]), Q[:, 1, 1])
    # c1 and c2 are distinct unit vectors, so the integer product places b and g
    directions = roots @ np.eye(3, dtype=np.int64)[c]
    return np.stack([np.broadcast_to(v[:, None], directions.shape), directions], axis=2), mult, split


# ---------------------------------------------------------------------------
# boundary decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FanoDecomposition:
    """Counts and set identities of the line decomposition over F_{q^k}."""

    k: int
    n_plane: int
    n_fiber: int
    n_disjoint: int
    node_count: int
    zstar_sizes: tuple[int, ...]
    c_z_sizes: tuple[int, ...]
    special_in_plane: int  # rational lines of P lying in some fiber
    special_geometric: int  # the same count over the closure scan
    identities: tuple[tuple[str, bool], ...]
    witness: tuple | None

    @property
    def all_identities_hold(self) -> bool:
        return all(ok for _, ok in self.identities)

    def to_report(self) -> dict:
        return {
            "k": self.k,
            "lines_in_plane": self.n_plane,
            "lines_meeting_plane": self.n_fiber,
            "lines_disjoint": self.n_disjoint,
            "nodes": self.node_count,
            "zstar_sizes": list(self.zstar_sizes),
            "c_z_sizes": list(self.c_z_sizes),
            "special_lines_rational": self.special_in_plane,
            "special_lines_geometric": self.special_geometric,
            "identities": {name: ok for name, ok in self.identities},
        }


# decompose counts the lines of P lying in fibers over F_{q^(k * this)}
_CLOSURE_SCAN_DEPTH = 2


def decompose(nf: NormalizedThreefold, k: int = 1) -> FanoDecomposition:
    """The boundary decomposition of the line set over F_{q^k}.

    Verifies, as exact identities between independent computations on the
    enumerated lines: the count of lines in P; that each rational node lies
    on q + 1 of them; that the lines of P through some geometric node (a
    rational line of P can pass through a conjugate pair), found by a
    resultant test, contain the stars of the rational nodes and are the lines
    each spanned with a node over an extension; that the lines of P lying in
    a fiber are among them; and that at most six lines of P lie in fibers
    over the closure scan.  The union of the node stars is where the closure
    of the open chart meets the plane dual; the closure itself is not
    computed.
    """
    surface = surface_of(nf, k)
    L = surface.L
    plane_lines = {cl.line.rows for cl in surface.lines if cl.tag == IN_PLANE}
    fiber_lines = {cl.line.rows for cl in surface.lines if cl.tag == MEETS_PLANE}
    open_chart = {cl.line.rows for cl in surface.lines if cl.tag == DISJOINT}

    zstar: list[set] = []
    c_z: list[set] = []
    for z, amb in surface.nodes:
        pt = ProjectivePoint(L, amb)
        zstar.append({cl.line.rows for cl in surface.lines if cl.tag == IN_PLANE and cl.line.contains(pt)})
        c_z.append(
            {
                cl.line.rows
                for cl in surface.lines
                if cl.fiber is not None
                and (cl.meets_at == amb if cl.tag == MEETS_PLANE else cl.line.contains(pt))
            }
        )

    # A line of P passes through a geometric node iff the two restricted
    # conics share a zero on it: both binary quadratic restrictions vanish
    # somewhere over the closure, i.e. their resultant is zero.
    node_star_union = _node_star_union(surface)

    special = {cl.line.rows for cl in surface.lines if cl.tag == IN_PLANE and cl.fiber is not None}
    geometric = _count_degenerate_conic_lines(nf, k * _CLOSURE_SCAN_DEPTH)

    identities = []
    witness = None

    ok = len(plane_lines) == L.q**2 + L.q + 1
    identities.append(("plane_carries_q2_q_1_lines", ok))

    ok = all(len(s) == L.q + 1 for s in zstar)
    identities.append(("node_stars_have_q_plus_1_lines", ok))

    rational_union = set().union(*zstar) if zstar else set()
    ok = rational_union <= node_star_union
    if not ok and witness is None:
        witness = next(iter(rational_union - node_star_union))
    identities.append(("rational_node_stars_in_closure", ok))

    orbit_union, orbit_total = _orbit_span_union(surface)
    ok = orbit_union <= node_star_union and (not orbit_total or orbit_union == node_star_union)
    if not ok and witness is None:
        witness = next(iter(orbit_union.symmetric_difference(node_star_union)))
    identities.append(("node_stars_match_orbit_spans", ok))

    ok = special <= node_star_union
    if not ok and witness is None:
        witness = next(iter(special - node_star_union))
    identities.append(("special_lines_lie_in_node_stars", ok))

    ok = geometric <= 6
    identities.append(("at_most_six_special_lines", ok))

    dec = FanoDecomposition(
        k=k,
        n_plane=len(plane_lines),
        n_fiber=len(fiber_lines),
        n_disjoint=len(open_chart),
        node_count=len(surface.nodes),
        zstar_sizes=tuple(len(s) for s in zstar),
        c_z_sizes=tuple(len(s) for s in c_z),
        special_in_plane=len(special),
        special_geometric=geometric,
        identities=tuple(identities),
        witness=witness,
    )
    if not dec.all_identities_hold:
        raise InternalInconsistency(f"line decomposition identities fail, witness {witness}")
    return dec


def _node_star_union(surface: FanoSurface) -> set:
    """Rational lines of P through some geometric node, by a resultant test.

    On each line of P the two plane conics restrict to binary quadratics;
    the line hits the node scheme (over the closure) iff those share a zero,
    i.e. their resultant vanishes -- or one restriction is identically zero,
    in which case the other still has zeros over the closure.
    """
    q0, q1 = surface.nf.restricted_conics
    out = set()
    for inner, amb in _plane_lines(surface.L):
        b0, b1 = binary_quadratic(q0, *inner.rows), binary_quadratic(q1, *inner.rows)
        if b0.is_zero and b1.is_zero:
            raise NotGeneral("a line of P lies inside the node scheme")
        if b0.is_zero or b1.is_zero or b0.resultant(b1) == 0:
            out.add(amb.rows)
    return out


def _orbit_span_union(surface: FanoSurface) -> tuple[set, bool]:
    """Node stars computed the direct way: lines of P whose span over an
    extension contains a realized geometric node.  Returns the union and
    whether every Frobenius orbit fit inside the supported tower (when the
    working field is already an extension, a large orbit may not)."""
    K = surface.base.K
    L = surface.L
    out: set = set()
    total = True
    for z in surface.Z.points:
        d = math.lcm(z.degree, surface.k)
        if not K.reaches(d):
            total = False
            continue
        M = K.extension(d)
        coords = surface.Z.coords_in(z, M)
        for inner, amb in _plane_lines(L):
            m = np.array(L.lift(inner.rows, M) + (coords,), dtype=np.int64)
            if rank(M, m) == 2:
                out.add(amb.rows)
    return out, total


def _count_degenerate_conic_lines(nf: NormalizedThreefold, depth: int) -> int:
    """Geometric count of lines of P lying in fibers, scanned over F_{q^d} for
    the largest d <= depth that the tower reaches.

    Each degenerate member of the restricted conic pencil contributes its
    component lines: two for a rank-2 conic (rational or conjugate), one for
    a double line.  The member over (s:t) is s*q0 + t*q1, whose matrix is the
    block of the fiber matrix on u = 0: one :func:`pencil.family_at` of that
    block of ``nf.pencil_coeffs`` reads them all, and one stacked row
    reduction ranks them.  Fibers over parameter fields beyond the
    scan are not seen; the caller treats the result as a lower bound checked
    <= 6.
    """
    d = max(e for e in range(1, depth + 1) if nf.K.reaches(e))
    Ld = nf.K.extension(d)
    conics = family_at(Ld, nf.K.lift(nf.pencil_coeffs[1:, 1:], Ld), all_points_array(Ld, 1))
    _, ranks = rref_stack(Ld, conics)
    if (ranks == 0).any():
        raise NotGeneral("a member of the restricted conic pencil vanishes")
    return 2 * int((ranks == 2).sum()) + int((ranks == 1).sum())


# ---------------------------------------------------------------------------
# intersection numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntersectionReport:
    """Sampled intersection counts of the three section/fiber curve types."""

    sigma_tau: tuple[int, ...]  # expected all 2
    sigma_sigma: tuple[tuple[int, int], ...]  # expected all (5, 3)
    tau_tau: tuple[int, ...]  # expected all 1
    resamples: int
    node_pairs: int  # informational: the pairs of distinct nodes within the tower, tau.tau's pool

    @property
    def all_expected(self) -> bool:
        """Every count has its samples, each the expected value.

        sigma.tau and sigma.sigma need ``_INTERSECTION_SAMPLES`` each.  tau.tau
        is sampled on the first ``_INTERSECTION_SAMPLES`` node pairs, so it has
        min(``_INTERSECTION_SAMPLES``, ``node_pairs``) samples, and needs one.
        """
        expected = (
            (self.sigma_tau, 2, _INTERSECTION_SAMPLES),
            (self.sigma_sigma, (5, 3), _INTERSECTION_SAMPLES),
            (self.tau_tau, 1, 1),
        )
        return all(len(v) >= n and all(x == want for x in v) for v, want, n in expected)


# verify_intersection_numbers: samples of each count, and the resamples allowed in all
_INTERSECTION_SAMPLES = 4
_MAX_RESAMPLES = 200


def verify_intersection_numbers(nf: NormalizedThreefold, rng) -> IntersectionReport:
    """Sample the three intersection counts on random generic configurations,
    ``_INTERSECTION_SAMPLES`` of each.

    sigma.tau: the lines through a node meeting a random disjoint line,
    counted over F_{q^2} with the residual multiplicity -- always 2.
    sigma.sigma: the transversals of two random skew disjoint lines on the
    cubic-surface section they span -- 5 in all, 3 of them meeting P.
    tau.tau: the fibers whose quadric contains the line joining two distinct
    nodes -- exactly 1, sampled on the first ``_INTERSECTION_SAMPLES`` node
    pairs, so fewer when Z has fewer pairs within the tower (the report's
    ``node_pairs``).  Degenerate samples are resampled and counted.
    """
    surface = surface_of(nf, 1)
    disjoint = [cl.line for cl in surface.lines if cl.tag == DISJOINT]
    if len(disjoint) < 2:
        raise NotGeneral("fewer than two disjoint lines over the base field; enlarge the field")
    resamples = 0

    sigma_tau: list[int] = []
    rational_nodes = [z for z, _ in surface.nodes]
    if rational_nodes:
        surface2 = surface_of(nf, 2)
        while len(sigma_tau) < _INTERSECTION_SAMPLES and resamples < _MAX_RESAMPLES:
            z = rng.choice(rational_nodes)
            line = rng.choice(disjoint)
            try:
                count = _sigma_tau_count(surface, surface2, z, line)
            except PlaneContained:
                resamples += 1
                continue
            sigma_tau.append(count)

    sigma_sigma: list[tuple[int, int]] = []
    while len(sigma_sigma) < _INTERSECTION_SAMPLES and resamples < _MAX_RESAMPLES:
        line1, line2 = rng.sample(disjoint, 2)
        if line_meets(line1, line2):
            resamples += 1
            continue
        counts = _sigma_sigma_counts(nf, line1, line2)
        if counts is None:
            resamples += 1
            continue
        sigma_sigma.append(counts)

    pairs = _node_pairs(surface.Z)
    tau_tau = [_common_fiber_count(nf, za, zb, d) for za, zb, d in pairs[:_INTERSECTION_SAMPLES]]

    return IntersectionReport(tuple(sigma_tau), tuple(sigma_sigma), tuple(tau_tau), resamples, len(pairs))


def _sigma_tau_count(surface: FanoSurface, surface2: FanoSurface, z: ZPoint, line: ProjectiveLine) -> int:
    """Lines through the node meeting the given disjoint line, over F_{q^2}."""
    L2 = surface2.L
    line2 = ProjectiveLine(L2, surface.L.lift(line.rows, L2))
    amb2 = ProjectivePoint(L2, surface2.node_coords(z))
    hits = [
        cl
        for cl in surface2.lines
        if cl.tag == MEETS_PLANE and cl.meets_at == amb2.coords and line_meets(cl.line, line2)
    ]
    pair = surface.phi(z, line)
    phi_total = sum(m for _, m in pair)
    if phi_total != 2:
        raise InternalInconsistency("the node pair must have total multiplicity 2")
    distinct = len({c.key for c, _ in pair})
    if len(hits) != distinct:
        raise InternalInconsistency("enumerated node lines disagree with the conic factorization")
    # weight the enumerated lines with the factorization multiplicities
    return sum(m for _, m in pair)


def _sigma_sigma_counts(nf: NormalizedThreefold, line1: ProjectiveLine, line2: ProjectiveLine):
    """(all transversals, those meeting P) of two skew disjoint lines, or None.

    The transversals over F_{q^d} are the lines of the section census
    (:func:`_section_lines`) that meet both lines, for each d the tower
    reaches with q^d <= 3000.  The counts are geometric as long as every
    transversal is defined over that degree, the generic situation; fewer
    than five (one of higher degree, or a tangency) give None: resample.
    """
    K = nf.K
    every: dict[int, int] = {}
    meeting: dict[int, int] = {}
    d = 1
    while K.reaches(d) and K.q**d <= 3000:
        Ld = K.extension(d)
        lifted = [ProjectiveLine(Ld, K.lift(line.rows, Ld), _trusted=True) for line in (line1, line2)]
        found = [
            rows
            for rows in _section_lines(nf, line1, line2, d)
            if all(line_meets(ProjectiveLine(Ld, rows, _trusted=True), line) for line in lifted)
        ]
        every[d] = len(found)
        meeting[d] = sum(_meet_with_plane(Ld, rows)[0] != DISJOINT for rows in found)
        d += 1
    total = sum(_exact_degree_counts(every).values())
    return (total, sum(_exact_degree_counts(meeting).values())) if total == 5 else None


def _exact_degree_counts(counts: dict[int, int]) -> dict[int, int]:
    """Lines of exact degree d from the counts over F_{q^d}, d = 1, 2, ...: those over
    F_{q^d} are the lines of exact degree e for each e dividing d."""
    exact: dict[int, int] = {}
    for d in sorted(counts):
        exact[d] = counts[d] - sum(n for e, n in exact.items() if d % e == 0)
        if exact[d] < 0:
            raise InternalInconsistency("line counts must grow monotonically up the field tower")
    return exact


def _node_pairs(Z: SingularLocusZ) -> list[tuple[ZPoint, ZPoint, int]]:
    """Pairs of distinct geometric nodes with their common field degree (within the tower).

    ``Z.points`` already lists every Frobenius conjugate of a node.
    """
    pairs = [(za, zb, math.lcm(za.degree, zb.degree)) for za, zb in combinations(Z.points, 2)]
    return [pair for pair in pairs if Z.K.reaches(pair[2])]


def _common_fiber_count(nf: NormalizedThreefold, za: ZPoint, zb: ZPoint, d: int) -> int:
    """Fibers whose quadric contains the line joining two distinct nodes."""
    nfd = nf.embedded(nf.K.extension(d))
    Ld = nfd.K
    pa = nf.Z.coords_in(za, Ld)
    pb = nf.Z.coords_in(zb, Ld)
    if pa == pb:
        raise ValueError("the two nodes must be distinct")
    m = np.array([binary_quadratic(q, pa, pb).coeffs for q in nfd.restricted_conics], dtype=np.int64).T
    ker = kernel_basis(Ld, m)
    if ker.shape[0] == 0:
        return 0
    if ker.shape[0] > 1:
        raise NotGeneral("the node line lies on every conic of the pencil")
    (fib,) = pencil_fibers(nf, Ld, [ker[0]])
    on_line = np.array([(0,) + pa, (0,) + pb], dtype=np.int64)
    if dot(Ld, on_line, dot(Ld, fib.matrix, on_line[:, None, :])).any():
        raise InternalInconsistency("the common fiber must contain the node line")
    return 1


# ---------------------------------------------------------------------------
# the twenty-seven lines of a cubic-surface section
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceLineCensus:
    """Exact-degree line counts on a cubic-surface section of the threefold."""

    exact: tuple[tuple[int, int], ...]  # (degree, count of lines of exactly that degree)
    total: int
    rational_rows: tuple[tuple, ...]  # RREF rows of the F_q-rational lines

    @property
    def is_complete(self) -> bool:
        """All twenty-seven lines were accounted for within the scan depth."""
        return self.total == 27


def lines_on_cubic_surface_section(
    nf: NormalizedThreefold, line1: ProjectiveLine, line2: ProjectiveLine
) -> SurfaceLineCensus:
    """Census of the lines on the cubic surface cut by the span of two skew lines.

    The span of two skew P-disjoint lines is a hyperplane S; its section
    X = S cap Y carries exactly one line inside P (the line S cap P), the
    components of the degenerate conics Q_{s,t} cap S, and finitely many
    further P-disjoint lines.  All three kinds are enumerated rationally over
    F_{q^d} for each d that the tower reaches, and the counts are
    combined into exact-degree counts; a smooth section whose lines all have
    degree within the scan totals 27.  Callers resample when the census is
    incomplete.
    """
    K = nf.K
    S3 = span(K, line1, line2)
    if S3.dim != 3:
        raise ValueError("the two lines must be skew")
    counts: dict[int, int] = {}
    rational: tuple = ()
    d = 1
    while K.reaches(d):
        rows = _section_lines(nf, line1, line2, d)
        counts[d] = len(rows)
        if d == 1:
            rational = rows
        d += 1
    exact = _exact_degree_counts(counts)
    return SurfaceLineCensus(tuple(sorted(exact.items())), sum(exact.values()), rational)


def _section_lines(nf: NormalizedThreefold, line1: ProjectiveLine, line2: ProjectiveLine, d: int) -> tuple:
    """The canonical rows, sorted, of the F_{q^d}-rational lines on span(L1,L2) cap Y."""
    nfd = nf.embedded(nf.K.extension(d))
    Ld = nfd.K
    S3 = span(Ld, *(ProjectiveLine(Ld, nf.K.lift(line.rows, Ld)) for line in (line1, line2)))
    dual = kernel_basis(Ld, S3.matrix)
    if dual.shape[0] != 1:
        raise InternalInconsistency("the span of two skew lines is a hyperplane")
    lam = [int(x) for x in dual[0]]
    if not any(lam[2:]):
        raise InternalInconsistency("a hyperplane with P-disjoint lines cannot contain P")

    found: set[tuple] = set()

    # the unique line of P inside the hyperplane: the last two of its
    # reduced echelon rows, as the last nonzero of lam is one of x2, x3, x4
    found.add(tuple(map(tuple, hyperplane_rows(Ld, lam)[2:].tolist())))

    # components of the singular fiber conics Q_{s,t} cap S.  In the fiber
    # coordinates (u, x2, x3, x4) the hyperplane is mu . v = 0 with
    # mu = (lam0 s + lam1 t, lam2, lam3, lam4); B holds the reduced echelon
    # basis of that plane, and the conic has the matrix B M B^T
    params = np.array(list(projective_reps(Ld, 1)))
    fibers = pencil_fibers(nf, Ld, params)
    mu = np.hstack([dot(Ld, params, np.array(lam[:2]))[:, None], np.tile(lam[2:], (len(params), 1))])
    B = hyperplane_rows(Ld, mu)
    MB = dot(Ld, np.stack([fiber.matrix for fiber in fibers])[:, None], B[:, :, None, :])
    conics = dot(Ld, B[:, :, None, :], MB[:, None]).astype(np.int64)
    if not conics.any(axis=(1, 2)).all():
        raise NotGeneral("the section contains a plane component of a fiber")
    singular = np.flatnonzero(det(Ld, conics) == 0)
    rows, mult, split = _singular_conic_lines(Ld, conics[singular])
    for i, line_rows, m in zip(singular[split], rows[split], mult[split]):
        for plane_rows in line_rows[m > 0]:
            found.add(ProjectiveLine(Ld, fibers[i].ambient_rows(mat_mul(Ld, plane_rows, B[i]))).rows)

    # P-disjoint lines of the section: the chart, its sides cut down to the hyperplane
    gradient = [nfd.f.derivative(i) for i in range(5)]
    found.update(_chart_rows(Ld, nfd.f, gradient, _hyperplane_frames(Ld, lam)))

    return tuple(sorted(found))


# the frames of the two sides of the whole chart: from the head e0 (a side)
# or e1 (b side), a grid over x2 and x3, with x4 solved
_CHART_FRAMES = np.eye(5, dtype=np.int64)[[[0, 2, 3, 4], [1, 2, 3, 4]]]


def _hyperplane_frames(L: GF, lam) -> np.ndarray:
    """The frames of the two chart sides inside the hyperplane lam . x = 0.

    The last nonzero of lam is one of x2, x3, x4, so the reduced echelon
    rows of the hyperplane are the images of e0, e1 and of the other two of
    x2, x3, x4 under the projection along it.  The head of a side (e0 or e1)
    gives the side's origin, and the other two rows give one grid direction
    and the solved one.
    """
    return hyperplane_rows(L, lam)[[[0, 2, 3], [1, 2, 3]]]


def _quadric_zeros(L: GF, f: HomogeneousForm, frames: np.ndarray) -> list[np.ndarray]:
    """The zeros of f on affine grids of lines, one grid per frame, where f has degree at most 2.

    A frame holds an origin, r grid directions and a solved direction: the
    points origin + g . grid + t solved, g in L^r and t in L.  Along each line
    of a grid f is a quadratic h(t); one batch evaluation at t = 0, 1, -1 on
    every frame gives the coefficients and one :func:`forms.quadratic_roots`
    call the zeros.  A line on which h vanishes keeps all its points.
    """
    r = frames.shape[1] - 2
    grid = np.indices((L.q,) * r).reshape(r, -1).T
    base = np.broadcast_to(frames[:, None, 0], (len(frames), len(grid), 5))
    for i in range(r):
        base = L.add(base, L.mul(grid[:, i, None], frames[:, None, 1 + i]))
    base = base.reshape(-1, 5)
    solved = np.repeat(frames[:, -1], len(grid), axis=0)
    steps = L.mul(np.array([0, 1, L.neg_(1)])[:, None, None], solved)
    h0, h1, hm = f.evaluate_batch(L.add(base, steps).reshape(-1, 5)).reshape(3, -1)
    half = L.inv[2 % L.p]
    c1 = L.mul(half, L.sub(h1, hm))
    c2 = L.sub(L.mul(half, L.add(h1, hm)), h0)
    flat = (h0 == 0) & (c1 == 0) & (c2 == 0)
    # a root (1 : t) of h0 b^2 + c1 b g + c2 g^2 is a zero t of h; (0 : 1) is none
    roots, mult, _ = quadratic_roots(L, np.where(flat, 1, h0), c1, c2)
    hit, slot = np.nonzero((mult > 0) & (roots[..., 0] == 1))
    whole = np.flatnonzero(flat)
    line = np.concatenate([hit, np.repeat(whole, L.q)])
    t = np.concatenate([roots[hit, slot, 1], np.tile(np.arange(L.q), len(whole))])
    points = L.add(base[line], L.mul(t[:, None], solved[line]))
    frame = line // len(grid)
    return [points[frame == i] for i in range(len(frames))]


def _chart_rows(L: GF, f: HomogeneousForm, gradient: list[HomogeneousForm], frames: np.ndarray) -> list[tuple]:
    """RREF row pairs ((1,0,a),(0,1,b)) of the lines on f = 0 joining the two chart sides.

    :func:`_quadric_zeros` solves the two ``frames`` for the a side (points
    A = (1,0,a)) and the b side (points B = (0,1,b)); ``gradient`` holds the
    partial derivatives of f.  With f(A) = f(B) = 0, the line AB lies on
    f = 0 exactly when grad f(A).B = grad f(B).A = 0.  The first pairing is
    tested on every pair, in chunks of rows of the a side, and the second
    on the pairs that pass it.
    """
    a_side, b_side = _quadric_zeros(L, f, frames)
    if not len(a_side) or not len(b_side):
        return []
    grads = np.stack([g.evaluate_batch(np.concatenate([a_side, b_side])) for g in gradient], axis=1)
    grad_a, grad_b = grads[: len(a_side)], grads[len(a_side) :]
    rows: list[tuple] = []
    step = max(1, (1 << 19) // len(b_side))  # about half a million pairs at a time
    for start in range(0, len(a_side), step):
        # B is zero at x0, so the pairing reads the last four coordinates
        i, j = np.nonzero(dot(L, grad_a[start : start + step, None, 1:], b_side[None, :, 1:]) == 0)
        i += start
        keep = dot(L, grad_b[j], a_side[i]) == 0
        rows += zip(map(tuple, a_side[i[keep]].tolist()), map(tuple, b_side[j[keep]].tolist()))
    return rows
