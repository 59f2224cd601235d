"""Points, lines, and linear subspaces of P^n over a finite field.

Lines and subspaces are canonicalized to reduced row echelon form, so equality
is plain tuple comparison and enumeration can walk Schubert cells in a fixed
order.  Points are normalized so the first nonzero coordinate is 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, NamedTuple

import numpy as np

from .forms import BinaryForm, HomogeneousForm
from .gf import GF, InternalInconsistency
from .linalg import kernel_basis, mat_mul, rank, rref


class PlaneContained(ValueError):
    """The whole plane lies on the cubic; there is no residual line."""


class NotOnCubic(ValueError):
    """A claimed line does not lie on the cubic section."""


def normalize_point(K: GF, vec) -> tuple[int, ...]:
    vec = [int(x) for x in vec]
    pivot = next((i for i, x in enumerate(vec) if x), None)
    if pivot is None:
        raise ValueError("zero vector does not define a projective point")
    inv = K.inverse(vec[pivot])
    return tuple(K.mul_(x, inv) for x in vec)


class ProjectivePoint:
    __slots__ = ("K", "coords")

    def __init__(self, K: GF, coords):
        self.K = K
        self.coords = normalize_point(K, coords)

    @property
    def n(self) -> int:
        return len(self.coords) - 1

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectivePoint) and self.K is other.K and self.coords == other.coords

    def __hash__(self):
        return hash(((self.K.p, self.K.k), self.coords))

    def __repr__(self) -> str:
        return "Pt(" + ":".join(str(c) for c in self.coords) + ")"


def _canonical_rows(K: GF, rows, expect_rank: int | None = None) -> tuple[tuple[int, ...], ...]:
    R, _ = rref(K, rows)
    if expect_rank is not None and R.shape[0] != expect_rank:
        raise ValueError(f"expected rank {expect_rank}, got {R.shape[0]}")
    return tuple(tuple(int(x) for x in row) for row in R)


class ProjectiveLine:
    """A line in P^n: the row space of a canonical 2 x (n+1) RREF matrix."""

    __slots__ = ("K", "rows")

    def __init__(self, K: GF, rows, _trusted: bool = False):
        self.K = K
        if _trusted:
            self.rows = rows
        else:
            self.rows = _canonical_rows(K, rows, expect_rank=2)

    @property
    def n(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return isinstance(other, ProjectiveLine) and self.K is other.K and self.rows == other.rows

    def __hash__(self):
        return hash(((self.K.p, self.K.k), self.rows))

    def __repr__(self) -> str:
        return f"Line{self.rows}"

    def points_array(self) -> np.ndarray:
        """All q+1 rational points as a (q+1, n+1) code array, in parameter
        order (1:t) then (0:1): a + t*b for t = 0, ..., q-1, then b.

        The canonical rows (a, b) are in RREF, so every point is already
        normalized.
        """
        K = self.K
        a, b = np.array(self.rows, dtype=np.uint16)
        params = np.arange(K.q, dtype=np.uint16)[:, None]
        return np.vstack([K.add[a, K.mul[params, b]], b])

    def points(self) -> list[ProjectivePoint]:
        """All q+1 rational points, in the order of :meth:`points_array`."""
        return [ProjectivePoint(self.K, row) for row in self.points_array().tolist()]

    def contains(self, pt: ProjectivePoint) -> bool:
        stacked = np.vstack([self.matrix, np.array(pt.coords, dtype=np.int64)])
        return rank(self.K, stacked) == 2


class LinearSubspace:
    """An r-plane in P^n as a canonical (r+1) x (n+1) RREF matrix (rank r+1)."""

    __slots__ = ("K", "rows")

    def __init__(self, K: GF, rows):
        self.K = K
        self.rows = _canonical_rows(K, rows)
        if not self.rows:
            raise ValueError("empty span")

    @property
    def n(self) -> int:
        return len(self.rows[0]) - 1

    @property
    def dim(self) -> int:
        """Projective dimension."""
        return len(self.rows) - 1

    @property
    def matrix(self) -> np.ndarray:
        return np.array(self.rows, dtype=np.int64)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinearSubspace) and self.K is other.K and self.rows == other.rows

    def __hash__(self):
        return hash(((self.K.p, self.K.k), self.rows))

    def __repr__(self) -> str:
        return f"Flat(dim {self.dim}){self.rows}"

    def contains_point(self, pt: ProjectivePoint) -> bool:
        stacked = np.vstack([self.matrix, np.array(pt.coords, dtype=np.int64)])
        return rank(self.K, stacked) == len(self.rows)

    def contains_line(self, line: ProjectiveLine) -> bool:
        stacked = np.vstack([self.matrix, line.matrix])
        return rank(self.K, stacked) == len(self.rows)

    def pivots(self) -> list[int]:
        return [next(i for i, x in enumerate(row) if x) for row in self.rows]

    def point_coords(self, pt: ProjectivePoint) -> tuple[int, ...]:
        """Coordinates of a point of S in the RREF basis (just the pivot slots)."""
        coords = tuple(pt.coords[p] for p in self.pivots())
        K = self.K
        recon = [0] * (self.n + 1)
        for c, row in zip(coords, self.rows):
            for j, rj in enumerate(row):
                recon[j] = K.add_(recon[j], K.mul_(c, rj))
        if tuple(recon) != pt.coords:
            raise ValueError("point does not lie in the subspace")
        return coords

    def embed_point(self, coords) -> ProjectivePoint:
        """The ambient point with the given subspace coordinates."""
        K = self.K
        out = [0] * (self.n + 1)
        for c, row in zip(coords, self.rows):
            if c:
                for j, rj in enumerate(row):
                    out[j] = K.add_(out[j], K.mul_(int(c), rj))
        return ProjectivePoint(K, out)

    def points(self) -> Iterator[ProjectivePoint]:
        for coords in projective_reps(self.K, self.dim):
            yield self.embed_point(coords)


def span(K: GF, *objects) -> LinearSubspace:
    """Smallest linear subspace containing all the given points/lines/flats."""
    rows = []
    for obj in objects:
        if isinstance(obj, ProjectivePoint):
            rows.append(obj.coords)
        elif isinstance(obj, (ProjectiveLine, LinearSubspace)):
            rows.extend(obj.rows)
        else:
            rows.append(tuple(int(x) for x in obj))
    if not rows:
        raise ValueError("span of nothing")
    return LinearSubspace(K, np.array(rows, dtype=np.int64))


def line_through(p: ProjectivePoint, q: ProjectivePoint) -> ProjectiveLine:
    if p == q:
        raise ValueError("need two distinct points")
    return ProjectiveLine(p.K, np.array([p.coords, q.coords], dtype=np.int64))


def projective_reps(K: GF, n: int) -> Iterator[tuple[int, ...]]:
    """Normalized representatives of P^n(F_q): pivot ascending, tail lexicographic."""
    for pivot in range(n + 1):
        for tail in product(range(K.q), repeat=n - pivot):
            yield (0,) * pivot + (1,) + tail


def all_points(K: GF, n: int) -> list[ProjectivePoint]:
    return [ProjectivePoint(K, rep) for rep in projective_reps(K, n)]


def _points_at(q: int, n: int, idx: np.ndarray) -> np.ndarray:
    """The points at the given positions of ``projective_reps`` order, as uint16 rows.

    The points with pivot p fill a block of q^(n-p) positions, in which the
    tail after the pivot counts up in base q.
    """
    sizes = np.array([q ** (n - j) for j in range(n + 1)], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    pivot = np.searchsorted(starts, idx, side="right") - 1
    local = idx - starts[pivot]
    pts = np.empty((len(idx), n + 1), dtype=np.uint16)
    for j in range(n + 1):
        # zeros before the pivot, a one at it, base-q digits after it
        pts[:, j] = np.where(j > pivot, (local // sizes[j]) % q, j == pivot)
    return pts


def all_points_array(K: GF, n: int) -> np.ndarray:
    """All normalized representatives as a ((q^{n+1}-1)/(q-1), n+1) uint16 array."""
    return _points_at(K.q, n, np.arange(count_points(K, n)))


# points made per chunk of a scan; bounds the scan's working arrays
SCAN_CHUNK = 1 << 17


def common_zeros(forms) -> Iterator[tuple[int, ...]]:
    """The points of P^n(K) where every given form vanishes, in ``projective_reps`` order.

    Points are made ``SCAN_CHUNK`` at a time from their positions, and each
    form is evaluated only where the forms before it vanish, so a caller that
    stops at the first zero never scans past its chunk.
    """
    K, nvars = forms[0].K, forms[0].nvars
    if any(f.K is not K or f.nvars != nvars for f in forms):
        raise ValueError("the forms must share their field and their variables")
    total = count_points(K, nvars - 1)
    for start in range(0, total, SCAN_CHUNK):
        pts = _points_at(K.q, nvars - 1, np.arange(start, min(start + SCAN_CHUNK, total)))
        for f in forms:
            if not len(pts):
                break
            pts = pts[f.evaluate_batch(pts) == 0]
        yield from map(tuple, pts.tolist())


def count_points(K: GF, n: int) -> int:
    return (K.q ** (n + 1) - 1) // (K.q - 1)


def count_lines(K: GF, n: int) -> int:
    q = K.q
    return (q ** (n + 1) - 1) * (q**n - 1) // ((q**2 - 1) * (q - 1))


def enumerate_lines(K: GF, n: int) -> Iterator[ProjectiveLine]:
    """Every line of P^n exactly once, walking Schubert cells in RREF order."""
    if n < 2:
        raise ValueError("lines need at least a plane")
    for j0 in range(n):
        for j1 in range(j0 + 1, n + 1):
            free0 = [j for j in range(j0 + 1, n + 1) if j != j1]
            free1 = list(range(j1 + 1, n + 1))
            for values in product(range(K.q), repeat=len(free0) + len(free1)):
                row0 = [0] * (n + 1)
                row1 = [0] * (n + 1)
                row0[j0] = 1
                row1[j1] = 1
                for col, v in zip(free0, values):
                    row0[col] = v
                for col, v in zip(free1, values[len(free0) :]):
                    row1[col] = v
                yield ProjectiveLine(K, (tuple(row0), tuple(row1)), _trusted=True)


def schubert_cell_dimensions(n: int) -> list[int]:
    """Free-entry counts of the line cells of P^n (their q-powers sum to the line count)."""
    dims = []
    for j0 in range(n):
        for j1 in range(j0 + 1, n + 1):
            dims.append((n - j0 - 1) + (n - j1))
    return dims


def line_meets(L: ProjectiveLine, M: ProjectiveLine) -> bool:
    """Whether two lines intersect (always true when equal or in a plane)."""
    stacked = np.vstack([L.matrix, M.matrix])
    return rank(L.K, stacked) <= 3


def linear_form_cutting_line_in_plane(plane: LinearSubspace, L: ProjectiveLine) -> tuple[int, ...]:
    """Coefficients (in plane coordinates) of the linear form vanishing on L."""
    K = plane.K
    inner = np.array([plane.point_coords(ProjectivePoint(K, row)) for row in L.rows], dtype=np.int64)
    ker = kernel_basis(K, inner)
    if ker.shape[0] != 1:
        raise InternalInconsistency("line inside plane must be cut by exactly one linear form")
    return tuple(int(x) for x in ker[0])


def line_in_plane_from_linear_form(plane: LinearSubspace, ell) -> ProjectiveLine:
    """The line of the plane cut out by a linear form in plane coordinates."""
    K = plane.K
    ker = kernel_basis(K, np.array([ell], dtype=np.int64))
    if ker.shape[0] != 2:
        raise InternalInconsistency("a nonzero ternary linear form cuts a line")
    ambient = mat_mul(K, ker, plane.matrix)
    return ProjectiveLine(K, ambient)


class Residual(NamedTuple):
    """Third line of a plane section, with its multiplicity in {L, M, N}."""

    line: ProjectiveLine
    multiplicity: int


@lru_cache(maxsize=None)
def _plane_reps(K: GF) -> np.ndarray:
    reps = all_points_array(K, 2)
    reps.flags.writeable = False
    return reps


def _combine(K: GF, coeffs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] * rows[j] over the field, for three rows (broadcasting)."""
    add, mul = K.add, K.mul
    return add[
        add[mul[coeffs[..., 0, None], rows[0]], mul[coeffs[..., 1, None], rows[1]]],
        mul[coeffs[..., 2, None], rows[2]],
    ]


def plane_section_values(cubic: HomogeneousForm, planes) -> np.ndarray:
    """The cubic at every point of each plane, in one batch evaluation.

    Row i holds the values at the points y B_i, y running over
    ``projective_reps(K, 2)``, where B_i is the canonical basis of the i-th
    plane.
    """
    K = cubic.K
    reps = _plane_reps(K)
    if not planes:
        return np.zeros((0, len(reps)), dtype=np.uint16)
    # basis row j of every plane, shaped to broadcast against the points
    bases = np.array([plane.rows for plane in planes], dtype=np.uint16).transpose(1, 0, 2)[:, :, None, :]
    pts = _combine(K, reps, bases)
    return cubic.evaluate_batch(pts.reshape(-1, cubic.nvars)).reshape(len(planes), len(reps))


def residual_line(cubic: HomogeneousForm, plane: LinearSubspace, L: ProjectiveLine, M: ProjectiveLine) -> Residual:
    """The third line of the plane section of a cubic through two known lines.

    The section factors as ell_L * ell_M * ell_N; returns N and the count of
    the three factors proportional to ell_N (1 = honest third line, 2 or 3 =
    degenerate configurations).  L = M is legal and divides by the square.

    The section is found from evaluations, not symbolic algebra.  The
    cubic is evaluated at every point of the plane.  In plane coordinates
    ell_L and ell_M are the cross products of the lines' pivot-slot
    coordinates.  Off L and M, c * ell_N equals f / (ell_L * ell_M), so three
    independent points there give it by one 3 x 3 solve.  The identity
    f = c * ell_L * ell_M * ell_N is then verified at every point of
    P^2(F_q); for q >= 3 no nonzero ternary cubic vanishes on all of them,
    so this pins the section exactly.  A section vanishing everywhere is
    ``PlaneContained``.  When the identity fails, the section misses L
    (``NotOnCubic`` for the first line: a binary cubic with q + 1 >= 4 zeros
    on L is zero) or else is not divisible by ell_M after ell_L
    (``NotOnCubic`` for the second line).
    """
    if plane.dim != 2:
        raise ValueError("residual lines live in plane sections")
    return residual_from_values(plane, L, M, plane_section_values(cubic, [plane])[0])


def _cross(K: GF, u, v) -> tuple[int, int, int]:
    """The cross product of two 3-vectors: the linear form vanishing on both."""
    mul, sub = K.mul_, K.sub_
    return (
        sub(mul(u[1], v[2]), mul(u[2], v[1])),
        sub(mul(u[2], v[0]), mul(u[0], v[2])),
        sub(mul(u[0], v[1]), mul(u[1], v[0])),
    )


def _dot(K: GF, u, v) -> int:
    return K.add_(K.add_(K.mul_(u[0], v[0]), K.mul_(u[1], v[1])), K.mul_(u[2], v[2]))


def _linear_values(K: GF, forms, pts: np.ndarray) -> np.ndarray:
    """Ternary linear forms (rows of forms) at each row of pts: shape (forms, points)."""
    return _combine(K, np.array(forms, dtype=np.uint16), pts.T)


def _forms_in_plane(plane: LinearSubspace, lines) -> list[tuple[int, int, int]]:
    """The linear forms, in plane coordinates, cutting lines of the plane.

    The plane coordinates of a point of the plane are its pivot-slot entries,
    so each form is the cross product of the two rows' pivot slots.
    """
    K = plane.K
    rows = np.array([row for line in lines for row in line.rows], dtype=np.uint16)
    coords = rows[:, plane.pivots()]
    if not np.array_equal(_combine(K, coords, np.array(plane.rows, dtype=np.uint16)), rows):
        raise ValueError("point does not lie in the subspace")
    coords = coords.tolist()
    return [_cross(K, coords[i], coords[i + 1]) for i in range(0, len(coords), 2)]


def residual_from_values(plane: LinearSubspace, L: ProjectiveLine, M: ProjectiveLine, values) -> Residual:
    """:func:`residual_line` from the cubic's values at every point of the plane.

    ``values`` is one row of :func:`plane_section_values`, so a caller with
    many sections evaluates them all in one batch.
    """
    K = plane.K
    values = np.asarray(values)
    if not values.any():
        raise PlaneContained("plane lies entirely on the cubic")
    ell_L, ell_M = _forms_in_plane(plane, (L, M))
    reps = _plane_reps(K)
    on_L, on_M = _linear_values(K, (ell_L, ell_M), reps)
    both = K.mul[on_L, on_M]
    off = np.flatnonzero(both)
    # three independent points off L and M: two distinct points and the first
    # point off the line joining them (q^2 - q > q + 1 points are off L and M)
    p1, p2 = reps[off[0]].tolist(), reps[off[1]].tolist()
    joining = _cross(K, p1, p2)
    i3 = off[np.flatnonzero(_linear_values(K, (joining,), reps[off])[0])[0]]
    p3 = reps[i3].tolist()
    r1, r2, r3 = (K.div_(int(values[i]), int(both[i])) for i in (off[0], off[1], i3))
    # Cramer's rule: ell_N . p_i = r_i
    inv_det = K.inverse(_dot(K, joining, p3))
    terms = (
        [K.mul_(r1, x) for x in _cross(K, p2, p3)],
        [K.mul_(r2, x) for x in _cross(K, p3, p1)],
        [K.mul_(r3, x) for x in joining],
    )
    ell_N = tuple(K.mul_(K.add_(K.add_(a, b), c), inv_det) for a, b, c in zip(*terms))
    if not np.array_equal(values, K.mul[both, _linear_values(K, (ell_N,), reps)[0]]):
        if values[on_L == 0].any():
            raise NotOnCubic("first line is not on the cubic section")
        raise NotOnCubic("second line is not on the cubic section")
    if not any(ell_N):
        raise InternalInconsistency("cubic divided by two linear forms must leave a linear form")
    n_norm = normalize_point(K, ell_N)
    multiplicity = sum(1 for ell in (ell_L, ell_M, ell_N) if normalize_point(K, ell) == n_norm)
    return Residual(ProjectiveLine(K, _kernel_rows(plane, ell_N), _trusted=True), multiplicity)


def _kernel_rows(plane: LinearSubspace, ell) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Canonical rows of the line {ell = 0} of the plane.

    With j the last index where ell is nonzero, the rows e_p - (ell_p / ell_j) e_j
    (p != j, ascending) are the reduced echelon basis of the kernel; times
    the plane's reduced echelon basis they stay reduced echelon.
    """
    K = plane.K
    j = max(i for i in range(3) if ell[i])
    scale = K.neg_(K.inverse(ell[j]))
    basis = plane.rows
    out = []
    for p in range(3):
        if p != j:
            c = K.mul_(ell[p], scale)
            out.append(tuple(K.add_(x, K.mul_(c, y)) for x, y in zip(basis[p], basis[j])))
    return tuple(out)


# ---------------------------------------------------------------------------
# the lines of a quadric through a point
# ---------------------------------------------------------------------------
#
# A line of a quadric Q through a point y of Q lies in a 3-space containing y
# on which Q is singular at y.  Complete y to a basis (y, c1, c2) of that
# space: then Q(a*y + b*c1 + g*c2) is a binary quadratic in (b, g), and each
# root (b, g) gives the second point b*c1 + g*c2 of a line through y.


def complete_to_basis(K: GF, y, candidates) -> tuple[list[int], list[int]]:
    """The first two candidates that extend y to a basis of a 3-space."""
    basis = [list(y)]
    for cand in candidates:
        cand = [int(x) for x in cand]
        if rank(K, np.array(basis + [cand], dtype=np.int64)) == len(basis) + 1:
            basis.append(cand)
            if len(basis) == 3:
                return basis[1], basis[2]
    raise InternalInconsistency("the candidates do not extend the point to a basis of a 3-space")


def binary_quadratic(quadric: HomogeneousForm, c1, c2) -> BinaryForm:
    """Q(b*c1 + g*c2) as a binary quadratic in (b, g), from three evaluations."""
    K = quadric.K
    q11 = quadric.evaluate(c1)
    q22 = quadric.evaluate(c2)
    both = quadric.evaluate([K.add_(a, b) for a, b in zip(c1, c2)])
    q12 = K.sub_(K.sub_(both, q11), q22)  # 2*B(c1, c2)
    return BinaryForm(K, 2, (q11, q12, q22))


def root_directions(K: GF, roots, c1, c2) -> list[tuple[tuple[int, ...], int]]:
    """Each root ((b, g), multiplicity) as the direction b*c1 + g*c2, with its multiplicity."""
    return [
        (tuple(K.add_(K.mul_(b, u), K.mul_(g, v)) for u, v in zip(c1, c2)), mult)
        for (b, g), mult in roots
    ]


def pluecker_coordinates(line: ProjectiveLine) -> tuple[int, ...]:
    """Normalized Plucker coordinates (2x2 minors, i < j), for reports."""
    K = line.K
    a, b = line.rows
    minors = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            minors.append(K.sub_(K.mul_(a[i], b[j]), K.mul_(a[j], b[i])))
    return normalize_point(K, minors)
