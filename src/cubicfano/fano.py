"""Lines on a cubic threefold through a plane, and the incidence operators.

Over a working field F = F_{q^k} the lines on Y = {x0*Q0 + x1*Q1 = 0} split
three ways against the plane P = {x0 = x1 = 0}:

  * lines inside P (P itself lies on Y, so all of them count),
  * lines meeting P in one point -- each of these lies in exactly one fiber
    of the quadric pencil and therefore belongs to a ruling class,
  * lines disjoint from P, the open chart of the line surface.

A disjoint line has RREF pivots in columns 0 and 1, so its rows are
(1,0,a) and (0,1,b) with affine tails a, b.  It lies on Y iff a is a zero of
Q0(1,0,-), b is a zero of Q1(0,1,-), and f kills the two diagonal points
(1,1,a+b) and (1,-1,a-b); that check is two batch cubic evaluations over the
product of two affine quadric slices, which is how the chart is enumerated.

On the torsor-ready point set (disjoint lines, boundary lines through the
nodes, and the nodes themselves) :class:`FanoSurface` provides the ruling
operators as methods: ``tau`` (the line of a ruling through a node),
``sigma`` (the line of a ruling meeting a disjoint line), ``phi`` / ``psi``
(the node projection to unordered ruling pairs and its inverse), and
``involution`` / ``j_table``, the involutions j_c that generate the group law
on the next layer up.  ``tau`` and ``sigma`` look the point up in a table
from the points of a ruling's lines to the lines through them; ``j_table``
evaluates the cubic on all the plane sections of a table in one batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .forms import BinaryForm, HomogeneousForm, divide_by_linear
from .gf import GF
from .linalg import kernel_basis, mat_mul, mat_vec, rank, rref, solve
from .pencil import (
    NotGeneral,
    PencilFiber,
    RulingClass,
    fiber_matrix,
    hyperelliptic_involution,
    rulings_of_fiber,
)
from .projective import (
    InternalInconsistency,
    LinearSubspace,
    PlaneContained,
    ProjectiveLine,
    ProjectivePoint,
    Residual,
    binary_quadratic,
    complete_to_basis,
    enumerate_lines,
    line_meets,
    linear_form_cutting_line_in_plane,
    normalize_point,
    plane_section_values,
    projective_reps,
    residual_from_values,
    residual_line,
    root_directions,
    span,
)
from .threefold import NormalizedThreefold, SingularLocusZ, ZPoint, compute_Z

IN_PLANE = "in_plane"
MEETS_PLANE = "meets_plane_once"
DISJOINT = "disjoint"

_TAG_ORDER = {IN_PLANE: 0, MEETS_PLANE: 1, DISJOINT: 2}


class NeedsExtension(ValueError):
    """The requested object only exists over a larger field."""


class ResampleRequired(ValueError):
    """The computation ran into one of the finitely many excluded points."""


class InvalidInput(ValueError):
    """The argument is not a point of the torsor-ready set."""


class Undefined(ValueError):
    """The operator has no value at this argument (excluded locus)."""


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
    over that field.  Construction enumerates the fibers, their rulings, the
    full classified line list, and the torsor-ready point set.
    """

    def __init__(self, nf: NormalizedThreefold, k: int = 1, Z: SingularLocusZ | None = None):
        self.base = nf
        self.k = k
        self.nf = nf.embedded(nf.K.extension(k))
        self.L: GF = self.nf.K
        self.Z = Z if Z is not None else compute_Z(nf)
        self.plane = self.nf.plane

        self.fibers: dict[tuple[int, int], PencilFiber] = {}
        self.rulings: dict[tuple[int, int], list[RulingClass]] = {}
        for s, t in projective_reps(self.L, 1):
            fib = fiber_matrix(self.nf, s, t)
            self.fibers[(s, t)] = fib
            self.rulings[(s, t)] = rulings_of_fiber(fib)
        self.curve_points: list[RulingClass] = [
            c for key in sorted(self.fibers) for c in self.rulings[key]
        ]

        self.nodes: list[tuple[ZPoint, tuple]] = []
        for z in self.Z.points_over(self.k):
            amb = normalize_point(self.L, (0, 0) + self.Z.coords_in(z, self.L))
            self.nodes.append((z, amb))
        self.nodes.sort(key=lambda pair: pair[1])
        self.node_index = {amb: z for z, amb in self.nodes}

        self.lines: list[ClassifiedLine] = self._enumerate()
        self.by_rows = {cl.line.rows: cl for cl in self.lines}
        if len(self.by_rows) != len(self.lines):
            raise InternalInconsistency("line enumeration produced a duplicate")
        self.torsor_set = self._build_torsor_set()
        self._j_tables: dict = {}
        self._ruling_points: dict = {}

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
        for key in sorted(self.fibers):
            for c in self.rulings[key]:
                for ln in c.lines:
                    tag, pt = _meet_with_plane(L, ln.rows)
                    prev = out.get(ln.rows)
                    if tag == IN_PLANE:
                        if prev.fiber is not None:
                            raise InternalInconsistency("a line of P lies in two fibers, hence in Z")
                        out[ln.rows] = ClassifiedLine(prev.line, IN_PLANE, None, key, c.index)
                        continue
                    if tag != MEETS_PLANE:
                        raise InternalInconsistency("a fiber line must meet the plane")
                    if prev is not None:
                        raise InternalInconsistency("a line off P lies in two fibers")
                    out[ln.rows] = ClassifiedLine(ln, MEETS_PLANE, pt, key, c.index)

        # the open chart: lines disjoint from P
        for rows in self._disjoint_rows():
            if rows in out:
                raise InternalInconsistency("disjoint-chart line collides with a fiber line")
            out[rows] = ClassifiedLine(ProjectiveLine(L, rows, _trusted=True), DISJOINT)

        return sorted(out.values(), key=lambda cl: (_TAG_ORDER[cl.tag], cl.line.rows))

    def _disjoint_rows(self) -> list[tuple]:
        """RREF row pairs ((1,0,a),(0,1,b)) of the lines on Y avoiding P."""
        L = self.L
        f = self.nf.f
        cube = np.array(list(product(range(L.q), repeat=3)), dtype=np.uint16)
        ones = np.ones((len(cube), 1), dtype=np.uint16)
        zeros = np.zeros((len(cube), 1), dtype=np.uint16)
        a_side = cube[f.evaluate_batch(np.hstack([ones, zeros, cube])) == 0]
        b_side = cube[f.evaluate_batch(np.hstack([zeros, ones, cube])) == 0]
        return _chart_rows(L, f, a_side, b_side)

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
            raise InternalInconsistency("a line claimed to be on Y is missing from the enumeration") from None

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

    def to_torsor_point(self, line: ProjectiveLine) -> TorsorPoint:
        """The torsor point carried by a line, or InvalidInput if none."""
        cl = self.classified(line)
        if self._carries_torsor_point(cl):
            return TorsorPoint("line", rows=cl.line.rows)
        raise InvalidInput("the line does not represent a torsor point")

    def line_of(self, x: TorsorPoint) -> ProjectiveLine:
        if x.kind != "line":
            raise ValueError("not a line point")
        return ProjectiveLine(self.L, x.rows, _trusted=True)

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

    def _lines_through(self, c: RulingClass) -> dict[tuple, list[ProjectiveLine]]:
        """Each point of the lines of a ruling class, mapped to the lines through it."""
        found = self._ruling_points.get(c.key)
        if found is None:
            found = {}
            for ln in c.lines:
                for pt in ln.points_array().tolist():
                    found.setdefault(tuple(pt), []).append(ln)
            self._ruling_points[c.key] = found
        return found

    def tau(self, z: ZPoint, c: RulingClass) -> ProjectiveLine:
        """The unique line of the ruling c through the node z."""
        hits = self._lines_through(c).get(self._node_in(z, c.K), [])
        if len(hits) == 1:
            return hits[0]
        if len(hits) > 1:
            raise NotGeneral("the node sits at a cone vertex; the node scheme is not reduced")
        raise InternalInconsistency("a node lies on every fiber quadric, so some ruling line passes through it")

    def _node_in(self, z: ZPoint, M: GF) -> tuple:
        if M is self.L:
            return self.node_coords(z)
        return normalize_point(M, (0, 0) + self.Z.coords_in(z, M))

    def sigma(self, line: ProjectiveLine, c: RulingClass) -> ProjectiveLine:
        """The unique line of the ruling c meeting a given P-disjoint line.

        The line crosses the fiber hyperplane t*x0 = s*x1 in a single point of
        the fiber quadric, g(b)*a - g(a)*b for rows a, b and
        g(v) = t*v0 - s*v1, and the ruling lines meeting the line are those
        through that point.  One passes through it -- unless the point is a
        cone vertex, where every generator does (excluded locus).
        """
        if self.classified(line).tag != DISJOINT:
            raise ValueError("sigma acts on lines disjoint from the plane")
        K = self.L
        a, b = line.rows
        ga = K.sub_(K.mul_(c.t, a[0]), K.mul_(c.s, a[1]))
        gb = K.sub_(K.mul_(c.t, b[0]), K.mul_(c.s, b[1]))
        crossing = normalize_point(K, [K.sub_(K.mul_(gb, x), K.mul_(ga, y)) for x, y in zip(a, b)])
        hits = self._lines_through(c).get(crossing, [])
        if len(hits) > 1:
            raise ResampleRequired("the line passes through the vertex of a cone fiber")
        if not hits:
            raise InternalInconsistency("a disjoint line crosses every fiber quadric in a ruled point")
        return hits[0]

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
        z3 = S.point_coords(zamb)
        Mfield, splits = _split_conic_at(L, conic, z3)
        z_big = L.lift(z3, Mfield)
        S_big = L.lift(S.matrix, Mfield)
        out = []
        for direction, mult in splits:
            rows_inner = np.array([z_big, direction], dtype=np.int64)
            amb_rows = mat_mul(Mfield, rows_inner, S_big)
            branch = ProjectiveLine(Mfield, amb_rows)
            out.append((self._class_of_node_line(z, branch, Mfield), mult))
        return out

    def _class_of_node_line(self, z: ZPoint, branch: ProjectiveLine, M: GF) -> RulingClass:
        """The ruling class (over M) of a fiber line through the node z."""
        tag, pt = _meet_with_plane(M, branch.rows)
        if tag != MEETS_PLANE or pt != self._node_in(z, M):
            raise InternalInconsistency("a branch through the node must meet P exactly at the node")
        key = _fiber_of_point(M, next(row for row in branch.rows if (row[0], row[1]) != (0, 0)))
        if M is self.L:
            classes = self.rulings[key]
        else:
            classes = rulings_of_fiber(fiber_matrix(self.nf.embedded(M), key[0], key[1]))
        for c in classes:
            if branch in c.lines:
                return c
        raise InternalInconsistency("a fiber line through the node is missing from its ruling")

    def psi(self, z: ZPoint, c: RulingClass, d: RulingClass) -> Residual:
        """The residual line of the span of tau_z(c) and tau_z(d).

        For c = d the span degenerates and the first-order deformation of the
        ruling along its fiber pencil supplies the limiting plane.  The pair
        is undefined (excluded locus) when both ruling lines lie in P.
        """
        if c.K is not d.K:
            raise ValueError("the two ruling classes must live over one field")
        return residual_line(self.nf.embedded(c.K).f, *self._psi_section(z, c, d))

    def _psi_section(self, z: ZPoint, c: RulingClass, d: RulingClass):
        """The plane of :meth:`psi` and the two lines its residual is taken of."""
        M = c.K
        nf_M = self.nf.embedded(M)
        t1 = self.tau(z, c)
        t2 = self.tau(z, d)
        if _meet_with_plane(M, t1.rows)[0] == IN_PLANE and _meet_with_plane(M, t2.rows)[0] == IN_PLANE:
            raise Undefined("both ruling lines lie in P: the pair is in the excluded locus")
        if c.key == d.key:
            if c.is_cone:
                S = self._cone_tangent_plane(z, c, nf_M)
            else:
                S = self._deformation_plane(z, c, t1, nf_M)
            return S, t1, t1
        S = span(M, t1, t2)
        if S.dim != 2:
            raise InternalInconsistency("distinct lines through one node span a plane")
        return S, t1, t2

    def _cone_tangent_plane(self, z: ZPoint, c: RulingClass, nf_M) -> LinearSubspace:
        """The fiber tangent plane along the cone generator through z."""
        M = c.K
        fib = fiber_matrix(nf_M, c.s, c.t)
        zf = (0,) + tuple(self._node_in(z, M)[2:])
        row = np.array([mat_vec(M, fib.matrix, zf)], dtype=np.int64)
        if not row.any():
            raise NotGeneral("the node sits at the cone vertex; the node scheme is not reduced")
        ker = kernel_basis(M, row)
        if ker.shape[0] != 3:
            raise InternalInconsistency("a nonzero linear form on P^3 cuts a plane")
        return LinearSubspace(M, fib.ambient_rows(ker))

    def _deformation_plane(self, z: ZPoint, c: RulingClass, tau_line: ProjectiveLine, nf_M) -> LinearSubspace:
        """Limit of span(tau_z(c), tau_z(c')) as c' -> c along the fiber pencil.

        The ruling line is deformed to first order inside the moving fiber:
        the epsilon-coefficients of the four binary-cubic conditions plus the
        moving-hyperplane condition are linear in the deformation vector, and
        any solution spans the limiting plane with the line.
        """
        M = c.K
        znode = self._node_in(z, M)
        y = next(
            (pt.coords for pt in tau_line.points() if (pt.coords[0], pt.coords[1]) != (0, 0)),
            None,
        )
        if y is None:
            raise Undefined("the ruling line lies in P; the diagonal pair is excluded there")
        s0, t0 = c.s, c.t
        s1, t1 = ((0, 1) if t0 == 0 else (1, 0))
        grads = _gradients_of(nf_M)
        g_y = _grad_at(grads, y)
        g_p = _grad_at(grads, tuple(M.add_(a, b) for a, b in zip(znode, y)))
        g_m = _grad_at(grads, tuple(M.sub_(a, b) for a, b in zip(znode, y)))
        two = 2 % M.p
        eq_rows = [
            [M.mul_(t0, 1) if i == 0 else (M.neg_(s0) if i == 1 else 0) for i in range(5)],
            list(g_y),
            [M.sub_(a, b) for a, b in zip(g_p, g_m)],
            [M.sub_(M.add_(a, b), M.mul_(two, gy)) for a, b, gy in zip(g_p, g_m, g_y)],
        ]
        rhs = [
            M.neg_(M.sub_(M.mul_(t1, y[0]), M.mul_(s1, y[1]))),
            0,
            0,
            0,
        ]
        u = solve(M, np.array(eq_rows, dtype=np.int64), np.array(rhs, dtype=np.int64))
        if u is None:
            raise InternalInconsistency("the ruling deforms with its fiber away from the branch points")
        S = span(M, znode, y, tuple(int(x) for x in u))
        if S.dim != 2:
            raise InternalInconsistency("the first-order deformation must leave the line")
        return S

    # -- the involutions j_c ----------------------------------------------------

    def involution(self, c: RulingClass, x: TorsorPoint) -> TorsorPoint:
        """The involution attached to a ruling class, on the torsor-ready set.

        Case analysis on x: a node maps to the opposite ruling line through
        it; a boundary line maps through the residual of its span with the
        matching ruling line (back to the node when the classes are
        conjugate, via the first-order limit on the diagonal); a disjoint
        line maps through the residual of its span with sigma.
        """
        return self._involutions(c, [x])[0]

    def _involutions(self, c: RulingClass, points) -> list[TorsorPoint]:
        """:meth:`involution` at each point, in order.

        The plane sections of all points are evaluated in one batch.  An
        error is raised for the first point at which :meth:`involution` would
        raise one.
        """
        if c.K is not self.L:
            raise ValueError("the ruling class must live over the working field")
        steps = []
        failure = None
        try:
            for x in points:
                steps.append(self._involution_step(c, x))
        except Exception as exc:  # raised after the points before x are done
            failure = exc
        sections = [step for step in steps if not isinstance(step, TorsorPoint)]
        values = plane_section_values(self.nf.f, [plane for plane, _, _, _ in sections])
        rows = iter(values)
        out = []
        for step in steps:
            if not isinstance(step, TorsorPoint):
                plane, first, second, off_torsor = step
                step = self._land(residual_from_values(plane, first, second, next(rows)).line)
                if step is None:
                    raise off_torsor
            out.append(step)
        if failure is not None:
            raise failure
        return out

    def _involution_step(self, c: RulingClass, x: TorsorPoint):
        """The image of x, or the plane section whose residual line it is.

        A section comes as (plane, first line, second line, the error to
        raise when the residual lies in P).
        """
        self._check_member(x)
        if x.kind == "node":
            z = self.node_index[x.node]
            out = self.tau(z, self.other_ruling(c))
            tp = self._land(out)
            if tp is None:
                raise ResampleRequired("the opposite ruling line through the node lies in P")
            return tp
        cl = self.by_rows[x.rows]
        if cl.tag == DISJOINT:
            line = self.line_of(x)
            m = self.sigma(line, c)
            S = span(self.L, line, m)
            if S.dim != 2:
                raise InternalInconsistency("a disjoint line and the ruling line meeting it span a plane")
            return S, line, m, InternalInconsistency("the residual of a disjoint-line span cannot lie in P")
        # boundary line through a node
        z_amb = cl.meets_at
        z = self.node_index[z_amb]
        d = self.ruling_of(cl)
        if d.key == self.other_ruling(c).key:
            return TorsorPoint("node", node=z_amb)
        S, t1, t2 = self._psi_section(z, c, d)
        return S, t1, t2, ResampleRequired("the residual through the node lands on an excluded in-plane line")

    def _land(self, line: ProjectiveLine) -> TorsorPoint | None:
        """Classify an operator output into the torsor-ready set.

        Returns None when the value lies inside P (the contracted locus);
        the caller decides whether that is excluded or inconsistent.
        """
        cl = self.classified(line)
        if self._carries_torsor_point(cl):
            return TorsorPoint("line", rows=cl.line.rows)
        if cl.tag == MEETS_PLANE:
            raise InternalInconsistency("an involution output meets P away from every node")
        return None

    def j_table(self, c: RulingClass) -> dict[TorsorPoint, TorsorPoint]:
        """The involution as a permutation table of the torsor-ready set."""
        key = c.key
        cached = self._j_tables.get(key)
        if cached is not None:
            return cached
        points = self.torsor_set.points
        table = dict(zip(points, self._involutions(c, points)))
        image = set(table.values())
        if len(image) != len(table):
            raise InternalInconsistency("an involution must permute the torsor-ready set")
        for x, y in table.items():
            if table[y] != x:
                raise InternalInconsistency("j_c composed with itself must be the identity")
        self._j_tables[key] = table
        return table


def _gradients_of(nf: NormalizedThreefold) -> list[HomogeneousForm]:
    return [nf.f.derivative(i) for i in range(5)]


def _grad_at(grads: list[HomogeneousForm], pt) -> tuple:
    return tuple(g.evaluate(pt) for g in grads)


# candidates completing a point of a plane to a basis
_UNIT_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _split_conic_at(K: GF, conic: HomogeneousForm, z3) -> tuple[GF, list[tuple[tuple, int]]]:
    """Directions (with multiplicity) of the two lines of a conic singular at z3.

    Returns the field the directions live over (K, or its quadratic extension
    for a conjugate pair) and the direction triples; multiplicity 2 marks a
    double line.
    """
    grad = conic.gradient(z3)
    if any(grad):
        raise InternalInconsistency("the residual conic must be singular at the node")
    c1, c2 = complete_to_basis(K, z3, _UNIT_VECTORS)
    form = binary_quadratic(conic, c1, c2)
    if form.is_zero:
        raise InternalInconsistency("the residual conic cannot contain the whole plane")
    roots = form.roots()
    if sum(m for _, m in roots) < 2:
        roots = form.roots(extension=2)
        L2 = K.extension(2)
        c1, c2 = K.lift((c1, c2), L2)
        K = L2
    return K, root_directions(K, roots, c1, c2)


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


def decompose(nf: NormalizedThreefold, k: int = 1, scan_depth: int = 2) -> FanoDecomposition:
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
    surface = FanoSurface(nf, k)
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
    geometric = _count_degenerate_conic_lines(nf, k * scan_depth)

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
    L = surface.L
    q0, q1 = surface.nf.restricted_conics
    exps = [(2, 0), (1, 1), (0, 2)]
    out = set()
    for inner, amb in _plane_lines(L):
        r0 = q0.restrict(inner.matrix)
        r1 = q1.restrict(inner.matrix)
        b0 = BinaryForm(L, 2, tuple(r0.coefficient(e) for e in exps))
        b1 = BinaryForm(L, 2, tuple(r1.coefficient(e) for e in exps))
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
    """Geometric count of lines of P lying in fibers, scanned over F_{q^depth}.

    Each degenerate member of the restricted conic pencil contributes its
    component lines: two for a rank-2 conic (rational or conjugate), one for
    a double line.  Fibers over parameter fields beyond the scan depth are
    not seen; the caller treats the result as a lower bound checked <= 6.
    """
    nfd = nf.embedded(nf.K.extension(depth))
    Ld = nfd.K
    q0, q1 = nfd.restricted_conics
    total = 0
    for s, t in projective_reps(Ld, 1):
        conic = q0.scaled(s).plus(q1.scaled(t))
        if conic.is_zero:
            raise NotGeneral("a member of the restricted conic pencil vanishes")
        r = rank(Ld, conic.symmetric_matrix())
        if r == 2:
            total += 2
        elif r == 1:
            total += 1
        elif r == 0:
            raise NotGeneral("a member of the restricted conic pencil vanishes")
    return total


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

    @property
    def all_expected(self) -> bool:
        return (
            all(v == 2 for v in self.sigma_tau)
            and all(v == (5, 3) for v in self.sigma_sigma)
            and all(v == 1 for v in self.tau_tau)
        )


def verify_intersection_numbers(
    nf: NormalizedThreefold,
    rng,
    samples: int = 20,
    max_resamples: int = 200,
) -> IntersectionReport:
    """Sample the three intersection counts on random generic configurations.

    sigma.tau: the lines through a node meeting a random disjoint line,
    counted over F_{q^2} with the residual multiplicity -- always 2.
    sigma.sigma: the transversals of two random skew disjoint lines on the
    cubic-surface section they span -- 5 in all, 3 of them meeting P.
    tau.tau: the fibers whose quadric contains the line joining two distinct
    nodes -- exactly 1.  Degenerate samples are resampled and counted.
    """
    surface = FanoSurface(nf, 1)
    disjoint = [cl.line for cl in surface.lines if cl.tag == DISJOINT]
    if not disjoint:
        raise NotGeneral("no disjoint lines over the base field; enlarge the field")
    resamples = 0

    sigma_tau: list[int] = []
    rational_nodes = [z for z, _ in surface.nodes]
    if rational_nodes:
        surface2 = FanoSurface(nf, 2, Z=surface.Z)
        while len(sigma_tau) < samples and resamples < max_resamples:
            z = rng.choice(rational_nodes)
            line = rng.choice(disjoint)
            try:
                count = _sigma_tau_count(surface, surface2, z, line)
            except PlaneContained:
                resamples += 1
                continue
            sigma_tau.append(count)

    sigma_sigma: list[tuple[int, int]] = []
    while len(sigma_sigma) < samples and resamples < max_resamples:
        line1, line2 = rng.sample(disjoint, 2)
        if line_meets(line1, line2):
            resamples += 1
            continue
        counts = _transversal_counts(nf, line1, line2)
        if counts is None:
            resamples += 1
            continue
        sigma_sigma.append(counts)

    tau_tau: list[int] = []
    pairs = _node_pairs(surface.Z)
    while pairs and len(tau_tau) < samples:
        za, zb, d = pairs.pop(0)
        tau_tau.append(_common_fiber_count(nf, surface.Z, za, zb, d))

    return IntersectionReport(tuple(sigma_tau), tuple(sigma_sigma), tuple(tau_tau), resamples)


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


def _transversal_counts(nf: NormalizedThreefold, line1: ProjectiveLine, line2: ProjectiveLine):
    """(all transversals, those meeting P) of two skew disjoint lines, or None.

    Scans L1(F_{q^d}) x L2(F_{q^d}) for d <= 4, while the tower reaches
    F_{q^d} and q^d <= 3000; a pair spans a line on Y iff the cubic kills
    both diagonal points.  The counts are geometric as long as every
    transversal is defined over that degree, which is the generic (resampled
    otherwise) situation.
    """
    K = nf.K
    exact: dict[int, int] = {}
    meets_p: dict[int, int] = {}
    cumulative: dict[int, tuple[int, int]] = {}
    for d in (1, 2, 3, 4):
        if K.q**d > 3000 or not K.reaches(d):
            break
        nfd = nf.embedded(K.extension(d))
        Ld = nfd.K
        # the embedding fixes 0 and 1, so the embedded rows are still canonical
        pts1, pts2 = (
            ProjectiveLine(Ld, K.lift(line.rows, Ld), _trusted=True).points_array() for line in (line1, line2)
        )
        n1, n2 = len(pts1), len(pts2)
        a = np.repeat(pts1, n2, axis=0)
        b = np.tile(pts2, (n1, 1))
        plus = nfd.f.evaluate_batch(Ld.add[a, b])
        minus = nfd.f.evaluate_batch(Ld.add[a, Ld.neg[b]])
        hits = np.flatnonzero((plus == 0) & (minus == 0))
        n_d = len(hits)
        n_meet = 0
        for idx in hits:
            stacked = np.vstack([a[idx], b[idx], np.eye(5, dtype=np.int64)[2:]])
            if rank(Ld, stacked) <= 4:
                n_meet += 1
        cumulative[d] = (n_d, n_meet)
    for d, (n_d, n_meet) in cumulative.items():
        lower = sum(exact.get(e, 0) for e in range(1, d) if d % e == 0)
        lower_m = sum(meets_p.get(e, 0) for e in range(1, d) if d % e == 0)
        exact[d] = n_d - lower
        meets_p[d] = n_meet - lower_m
        if exact[d] < 0 or meets_p[d] < 0:
            return None
    total = sum(exact.values())
    total_meet = sum(meets_p.values())
    if total > 5 or total_meet > total:
        return None
    if total < 5:
        return None  # a transversal of degree 5, or a tangency: resample
    return (total, total_meet)


def _node_pairs(Z: SingularLocusZ) -> list[tuple[ZPoint, ZPoint, int]]:
    """Pairs of distinct geometric nodes with their common field degree (within the tower).

    ``Z.points`` already lists every Frobenius conjugate of a node.
    """
    pairs = [(za, zb, math.lcm(za.degree, zb.degree)) for za, zb in combinations(Z.points, 2)]
    return [pair for pair in pairs if Z.K.reaches(pair[2])]


def _common_fiber_count(nf: NormalizedThreefold, Z: SingularLocusZ, za: ZPoint, zb: ZPoint, d: int) -> int:
    """Fibers whose quadric contains the line joining two distinct nodes."""
    nfd = nf.embedded(nf.K.extension(d))
    Ld = nfd.K
    pa = Z.coords_in(za, Ld)
    pb = Z.coords_in(zb, Ld)
    if pa == pb:
        raise ValueError("the two nodes must be distinct")
    rows = np.array([(0, 0) + pa, (0, 0) + pb], dtype=np.int64)
    q0, q1 = nfd.restricted_conics
    r0 = q0.restrict(rows[:, 2:])
    r1 = q1.restrict(rows[:, 2:])
    exps = [(2, 0), (1, 1), (0, 2)]
    m = np.array([[r0.coefficient(e), r1.coefficient(e)] for e in exps], dtype=np.int64)
    ker = kernel_basis(Ld, m)
    if ker.shape[0] == 0:
        return 0
    if ker.shape[0] > 1:
        raise NotGeneral("the node line lies on every conic of the pencil")
    s, t = (int(x) for x in ker[0])
    fib = fiber_matrix(nfd, s, t)
    lifted = np.hstack([np.zeros((2, 1), dtype=np.int64), rows[:, 2:]])
    if any(fib.quadric.evaluate(row) != 0 for row in lifted):
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
    nf: NormalizedThreefold,
    line1: ProjectiveLine,
    line2: ProjectiveLine,
    max_degree: int = 4,
) -> SurfaceLineCensus:
    """Census of the lines on the cubic surface cut by the span of two skew lines.

    The span of two skew P-disjoint lines is a hyperplane S; its section
    X = S cap Y carries exactly one line inside P (the line S cap P), the
    components of the degenerate conics Q_{s,t} cap S, and finitely many
    further P-disjoint lines.  All three kinds are enumerated rationally over
    F_{q^d} for each d <= max_degree that the tower reaches, and the counts are
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
    for d in range(1, max_degree + 1):
        if not K.reaches(d):
            break
        n_d, rows = _surface_lines_over(nf, line1, line2, d)
        counts[d] = n_d
        if d == 1:
            rational = rows
    exact: dict[int, int] = {}
    for d in sorted(counts):
        exact[d] = counts[d] - sum(n for e, n in exact.items() if d % e == 0)
        if exact[d] < 0:
            raise InternalInconsistency("line counts must grow monotonically up the field tower")
    total = sum(exact.values())
    return SurfaceLineCensus(tuple(sorted(exact.items())), total, rational)


def _surface_lines_over(nf: NormalizedThreefold, line1: ProjectiveLine, line2: ProjectiveLine, d: int):
    """(count, canonical rows) of the F_{q^d}-rational lines on span(L1,L2) cap Y."""
    nfd = nf.embedded(nf.K.extension(d))
    Ld = nfd.K
    S3 = span(Ld, *(ProjectiveLine(Ld, nf.K.lift(line.rows, Ld)) for line in (line1, line2)))
    dual = kernel_basis(Ld, S3.matrix)
    if dual.shape[0] != 1:
        raise InternalInconsistency("the span of two skew lines is a hyperplane")
    lam = [int(x) for x in dual[0]]

    found: set[tuple] = set()

    # the unique line of P inside the hyperplane
    cut = np.vstack([np.eye(5, dtype=np.int64)[:2], [lam]])
    ker = kernel_basis(Ld, cut)
    if ker.shape[0] != 2:
        raise InternalInconsistency("a hyperplane spanned by P-disjoint lines meets P in a line")
    found.add(ProjectiveLine(Ld, ker).rows)

    # components of the degenerate fiber conics Q_{s,t} cap S
    for s, t in projective_reps(Ld, 1):
        G = nfd.Q0.scaled(s).plus(nfd.Q1.scaled(t))
        pi = kernel_basis(Ld, np.array([lam, [t, Ld.neg_(s), 0, 0, 0]], dtype=np.int64))
        if pi.shape[0] != 3:
            raise InternalInconsistency("a hyperplane spanned by P-disjoint lines is never a fiber")
        conic = G.restrict(pi)
        if conic.is_zero:
            raise NotGeneral("the section contains a plane component of a fiber")
        for comp in _conic_component_lines(Ld, conic):
            amb = mat_mul(Ld, np.array(comp, dtype=np.int64), pi)
            found.add(ProjectiveLine(Ld, amb).rows)

    # P-disjoint lines of the section, by the constrained chart sieve
    for rows in _disjoint_rows_in_hyperplane(nfd, lam):
        found.add(rows)

    return len(found), tuple(sorted(found))


def _affine_slice_points(K: GF, f: HomogeneousForm, head: tuple, lam) -> np.ndarray:
    """Points (head, a) with f = 0 and lam . (head, a) = 0, as tail arrays.

    The hyperplane equation eliminates one tail variable; the remaining two
    run over the full affine grid and the cubic is evaluated in one batch.
    """
    tail = lam[2:]
    j = next(i for i, v in enumerate(tail) if v)
    free = [i for i in range(3) if i != j]
    grid = np.array(list(product(range(K.q), repeat=2)), dtype=np.uint16)
    const = K.add_(K.mul_(lam[0], head[0]), K.mul_(lam[1], head[1]))
    coef = [K.neg_(int(K.div_(v, tail[j]))) for v in (const, tail[free[0]], tail[free[1]])]
    a = np.zeros((len(grid), 3), dtype=np.uint16)
    a[:, free[0]] = grid[:, 0]
    a[:, free[1]] = grid[:, 1]
    a[:, j] = K.add[
        np.uint16(coef[0]),
        K.add[K.mul[np.uint16(coef[1]), grid[:, 0]], K.mul[np.uint16(coef[2]), grid[:, 1]]],
    ]
    heads = np.tile(np.array(head, dtype=np.uint16), (len(a), 1))
    pts = np.hstack([heads, a])
    return a[f.evaluate_batch(pts) == 0]


def _disjoint_rows_in_hyperplane(nfd: NormalizedThreefold, lam) -> list[tuple]:
    """RREF row pairs of the lines on Y inside {lam . x = 0} avoiding P."""
    L = nfd.K
    f = nfd.f
    if lam[2] == 0 and lam[3] == 0 and lam[4] == 0:
        raise InternalInconsistency("a hyperplane with P-disjoint lines cannot contain P")
    a_side = _affine_slice_points(L, f, (1, 0), lam)
    b_side = _affine_slice_points(L, f, (0, 1), lam)
    return _chart_rows(L, f, a_side, b_side)


def _chart_rows(L: GF, f: HomogeneousForm, a_side: np.ndarray, b_side: np.ndarray) -> list[tuple]:
    """RREF row pairs ((1,0,a),(0,1,b)), a in a_side and b in b_side, of the lines on f = 0.

    Both sides are affine tails of points on the cubic, so the line through
    (1,0,a) and (0,1,b) lies on it iff the cubic also kills the diagonal
    points (1,1,a+b) and (1,-1,a-b).  The pairs are tested in chunks of rows
    of a_side, which keeps the row order of the full product a_side x b_side.
    """
    if not len(a_side) or not len(b_side):
        return []
    neg = L.neg
    minus_one = np.uint16(L.neg_(1))
    rows: list[tuple] = []
    nb = len(b_side)
    chunk_size = max(1, 200_000 // nb)
    for start in range(0, len(a_side), chunk_size):
        chunk = a_side[start : start + chunk_size]
        na = len(chunk)
        a_rep = np.repeat(chunk, nb, axis=0)
        b_til = np.tile(b_side, (na, 1))
        head = np.ones((na * nb, 2), dtype=np.uint16)
        plus = f.evaluate_batch(np.hstack([head, L.add[a_rep, b_til]]))
        head[:, 1] = minus_one
        minus = f.evaluate_batch(np.hstack([head, L.add[a_rep, neg[b_til]]]))
        for idx in np.flatnonzero((plus == 0) & (minus == 0)):
            a = chunk[idx // nb]
            b = b_side[idx % nb]
            rows.append(
                (
                    (1, 0, int(a[0]), int(a[1]), int(a[2])),
                    (0, 1, int(b[0]), int(b[1]), int(b[2])),
                )
            )
    return rows


def _conic_component_lines(K: GF, conic: HomogeneousForm) -> list[tuple]:
    """Row pairs of the K-rational component lines of a ternary conic."""
    m = conic.symmetric_matrix()
    r = rank(K, m)
    if r == 3:
        return []
    if r == 1:
        row = next(tuple(int(x) for x in m[i]) for i in range(3) if m[i].any())
        ker = kernel_basis(K, np.array([row], dtype=np.int64))
        return [tuple(tuple(int(x) for x in kr) for kr in ker)]
    # rank 2: two lines through the kernel point, when the binary form splits
    ker = kernel_basis(K, m)
    if ker.shape[0] != 1:
        raise InternalInconsistency("a rank-2 conic is singular at a single point")
    v = [int(x) for x in ker[0]]
    c1, c2 = complete_to_basis(K, v, _UNIT_VECTORS)
    out = []
    for direction, _mult in root_directions(K, binary_quadratic(conic, c1, c2).roots(), c1, c2):
        rows, _ = rref(K, np.array([v, list(direction)], dtype=np.int64))
        out.append(tuple(tuple(int(x) for x in row) for row in rows))
    return out
