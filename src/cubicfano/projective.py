"""Points, lines, and linear subspaces of P^n over a finite field.

Lines and subspaces are canonicalized to reduced row echelon form, so equality
is plain tuple comparison and enumeration can walk Schubert cells in a fixed
order.  Points are normalized so the first nonzero coordinate is 1.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

import numpy as np

from .errors import InternalInconsistency, NotOnCubic, PlaneContained
from .forms import HomogeneousForm, divide_by_linear, interpolate, interpolation_points
from .gf import GF
from .linalg import dot, hyperplane_rows, minors, rank, rref


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
        a, b = np.array(self.rows, dtype=np.uint16)
        return line_points(self.K, a, b)

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


def projective_reps(K: GF, n: int) -> Iterator[tuple[int, ...]]:
    """Normalized representatives of P^n(F_q): pivot ascending, tail lexicographic."""
    for pivot in range(n + 1):
        for tail in product(range(K.q), repeat=n - pivot):
            yield (0,) * pivot + (1,) + tail


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


def line_points(K: GF, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The q + 1 points a + t b (t in F_q) and b of each line span(a, b): (..., q + 1, n)."""
    t = np.arange(K.q)[:, None]
    return np.concatenate([K.add(a[..., None, :], K.mul(t, b[..., None, :])), b[..., None, :]], axis=-2)


def point_positions(K: GF, pts) -> np.ndarray:
    """The position in ``projective_reps`` order of each nonzero row of an (m, n+1) code array.

    The inverse of ``_points_at``: a row is scaled so that its pivot entry
    is 1, and its position is the start of its pivot block plus its tail
    read in base q.
    """
    pts = np.asarray(pts, dtype=np.int64)
    n = pts.shape[1] - 1
    sizes = np.array([K.q ** (n - j) for j in range(n + 1)], dtype=np.int64)
    pivot = (pts != 0).argmax(axis=1)
    lead = pts[np.arange(len(pts)), pivot]
    normed = K.mul(K.inv[lead][:, None], pts).astype(np.int64)
    # the pivot entry adds sizes[pivot]; the block of pivot p starts at sum(sizes[:p])
    return np.cumsum(sizes)[pivot] - 2 * sizes[pivot] + normed @ sizes


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


def line_meets(L: ProjectiveLine, M: ProjectiveLine) -> bool:
    """Whether two lines intersect (always true when equal or in a plane)."""
    stacked = np.vstack([L.matrix, M.matrix])
    return rank(L.K, stacked) <= 3


def linear_form_cutting_line_in_plane(plane: LinearSubspace, L: ProjectiveLine) -> tuple[int, ...]:
    """Coefficients (in plane coordinates) of the linear form vanishing on L."""
    K = plane.K
    inner = np.array([plane.point_coords(ProjectivePoint(K, row)) for row in L.rows], dtype=np.int64)
    ell = minors(K, inner[0], inner[1], _CROSS)
    if not ell.any():
        raise InternalInconsistency("line inside plane must be cut by exactly one linear form")
    return normalize_point(K, ell)


class Residual(NamedTuple):
    """Third line of a plane section, with its multiplicity in {L, M, N}."""

    line: ProjectiveLine
    multiplicity: int


def plane_section_values(cubic: HomogeneousForm, planes) -> np.ndarray:
    """The cubic at the ten section points of each plane, in one batch evaluation.

    ``planes`` is an (n, 3, N) array of canonical plane bases B_i.  Row i
    holds the values at the points y B_i, y running over the ten points
    ``forms.interpolation_points(K, 3, 3)`` on which a ternary cubic is
    interpolated.  They are points of P^2(F_p), so they are points over K.
    """
    K = cubic.K
    reps = interpolation_points(K, 3, 3)[1]
    planes = np.asarray(planes, dtype=np.uint16)
    if not len(planes):
        return np.zeros((0, len(reps)), dtype=np.uint16)
    # y B_i as y . (column c of B_i), for every plane, point and column
    pts = dot(K, reps[:, None, :], planes.transpose(0, 2, 1)[:, None])
    return cubic.evaluate_batch(pts.reshape(-1, cubic.nvars)).reshape(len(planes), len(reps))


def residual_line(cubic: HomogeneousForm, plane: LinearSubspace, L: ProjectiveLine, M: ProjectiveLine) -> Residual:
    """The third line of the plane section of a cubic through two known lines.

    The section factors as ell_L * ell_M * ell_N; returns N and the count of
    the three factors proportional to ell_N (1 = honest third line, 2 or 3 =
    degenerate configurations).  L = M is legal and divides by the square.

    This is the one-plane call of :func:`residual_from_values`, which says
    how the section is solved; the error it reports for the plane is raised:
    ``PlaneContained`` when the whole plane lies on the cubic, ``NotOnCubic``
    when the first or the second line is not on the section.
    """
    if plane.dim != 2:
        raise ValueError("residual lines live in plane sections")
    basis = np.array([plane.rows], dtype=np.uint16)
    rows, mult, code = residual_from_values(plane.K, basis, [L.rows], [M.rows], plane_section_values(cubic, basis))
    if code[0]:
        kind, message = RESIDUAL_ERRORS[code[0]]
        raise kind(message)
    return Residual(ProjectiveLine(plane.K, tuple(map(tuple, rows[0].tolist())), _trusted=True), int(mult[0]))


def _normalized(K: GF, vecs: np.ndarray) -> np.ndarray:
    """Each nonzero row of an (n, 3) array scaled so its first nonzero entry is 1."""
    lead = vecs[np.arange(len(vecs)), (vecs != 0).argmax(axis=1)]
    return K.mul(K.inv[lead][:, None], vecs)


# the index pairs of the cross product of 3-vectors: the linear form vanishing on both
_CROSS = ((1, 2), (2, 0), (0, 1))


# the error of each outcome code of residual_from_values, as (type, message);
# code 0 is a residual line
RESIDUAL_ERRORS = (
    None,
    (PlaneContained, "plane lies entirely on the cubic"),
    (ValueError, "point does not lie in the subspace"),
    (NotOnCubic, "first line is not on the cubic section"),
    (NotOnCubic, "second line is not on the cubic section"),
    (InternalInconsistency, "cubic divided by two linear forms must leave a linear form"),
)


def residual_from_values(K: GF, planes, firsts, seconds, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`residual_line` for n plane sections at once, as array operations.

    ``planes`` is an (n, 3, N) array of canonical plane bases, ``firsts`` and
    ``seconds`` hold the (n, 2, N) rows of the two lines in each plane, and
    ``values`` is the (n, 10) block :func:`plane_section_values` returns for
    the planes, the cubic at the ten section points.  No nonzero ternary
    cubic vanishes on those points, so neither does one vanishing on L, M and
    a third line; hence at least three non-collinear section points lie off
    L and M.  Every step below runs on all n rows at once:

    * In plane coordinates (the pivot-slot entries) ell_L and ell_M are the
      cross products of the lines' rows.
    * Off L and M, c * ell_N equals f / (ell_L * ell_M), so three
      independent points there give it by Cramer's rule: the first two
      section points off L and M and the first one off the line joining them.
    * The identity f = c * ell_L * ell_M * ell_N is verified at the ten
      points, which pins the section exactly.  A row where it fails is
      interpolated from its ten values and divided by ell_L: the section
      misses L when that division fails, and is not divisible by ell_M
      after ell_L otherwise.
    * The multiplicity counts the factors proportional to ell_N, and N's
      canonical rows are read off ell_N.

    Returns the (n, 2, N) canonical rows of each residual line N, the
    multiplicities and an outcome code per row.  Code 0 is a residual line;
    any other code indexes the error :func:`residual_line` raises for that
    plane in ``RESIDUAL_ERRORS``: ``PlaneContained``, a ``ValueError`` for a
    line outside its plane, ``NotOnCubic`` for the first or the second line,
    or ``InternalInconsistency``.  The rows and multiplicity of a row with a
    nonzero code mean nothing.
    """
    planes = np.asarray(planes, dtype=np.uint16)
    values = np.asarray(values)
    lines = np.concatenate([np.asarray(firsts, dtype=np.uint16), np.asarray(seconds, dtype=np.uint16)], axis=1)
    at = np.arange(len(planes))
    reps = interpolation_points(K, 3, 3)[1]

    # plane coordinates of the four line rows, checked to embed back
    coords = np.take_along_axis(lines, (planes != 0).argmax(axis=2)[:, None, :], axis=2)
    in_plane = (dot(K, coords[:, :, None, :], planes.transpose(0, 2, 1)[:, None]) == lines).all(axis=(1, 2))
    ell_L = minors(K, coords[:, 0], coords[:, 1], _CROSS)
    ell_M = minors(K, coords[:, 2], coords[:, 3], _CROSS)
    both = K.mul(dot(K, ell_L[:, None, :], reps), dot(K, ell_M[:, None, :], reps))

    # three independent points off L and M
    off = both != 0
    i1 = off.argmax(axis=1)
    i2 = (off & (np.arange(len(reps)) > i1[:, None])).argmax(axis=1)
    joining = minors(K, reps[i1], reps[i2], _CROSS)
    i3 = (off & (dot(K, joining[:, None, :], reps) != 0)).argmax(axis=1)
    p1, p2, p3 = reps[i1], reps[i2], reps[i3]
    picked = np.stack([i1, i2, i3], axis=1)
    ratios = K.mul(values[at[:, None], picked], K.inv[both[at[:, None], picked]])

    # Cramer's rule: ell_N . p_k = ratios[k]
    adjugate = np.stack([minors(K, p2, p3, _CROSS), minors(K, p3, p1, _CROSS), joining], axis=-1)
    ell_N = K.mul(K.inv[dot(K, joining, p3)][:, None], dot(K, ratios[:, None, :], adjugate))
    holds = (values == K.mul(both, dot(K, ell_N[:, None, :], reps))).all(axis=1)

    n_norm = _normalized(K, ell_N)
    multiplicity = 1 + (_normalized(K, ell_L) == n_norm).all(axis=1) + (_normalized(K, ell_M) == n_norm).all(axis=1)

    # canonical rows of N: the reduced echelon basis of {ell_N = 0} times the
    # plane's reduced echelon basis stays reduced echelon
    rows = dot(K, hyperplane_rows(K, ell_N)[:, :, None, :], planes.transpose(0, 2, 1)[:, None])

    # the first error that applies, in the order of RESIDUAL_ERRORS; a section
    # off the factored one misses the second line when ell_L divides it
    outcome = np.select([~values.any(axis=1), ~in_plane, ~holds, ~ell_N.any(axis=1)], [1, 2, 3, 5], 0)
    for i in np.flatnonzero(outcome == 3):
        if _divides(K, values[i], ell_L[i]):
            outcome[i] = 4
    return rows, multiplicity, outcome


def _divides(K: GF, values: np.ndarray, ell: np.ndarray) -> bool:
    """Whether a linear form divides the ternary cubic taking these values at the section points."""
    try:
        divide_by_linear(interpolate(K, 3, 3, values), ell)
    except ValueError:
        return False
    return True


# ---------------------------------------------------------------------------
# the lines of a quadric through a point
# ---------------------------------------------------------------------------
#
# A line of a quadric Q through a point y of Q lies in a 3-space containing y
# on which Q is singular at y.  Complete y to a basis (y, c1, c2) of that
# space, in a plane by the unit vectors at ``linalg.unit_complement(y)``:
# then Q(a*y + b*c1 + g*c2) is a binary quadratic in (b, g), and each root
# (b, g) gives the second point b*c1 + g*c2 of a line through y.


def binary_quadratic(quadric: HomogeneousForm, c1, c2) -> HomogeneousForm:
    """Q(b*c1 + g*c2) as a binary quadratic in (b, g), from its values at c1, c2 and c1 + c2."""
    K = quadric.K
    c1, c2 = np.asarray(c1, dtype=np.int64), np.asarray(c2, dtype=np.int64)
    q11, q22, both = quadric.evaluate_batch(np.stack([c1, c2, K.add(c1, c2)])).tolist()
    q12 = K.sub_(K.sub_(both, q11), q22)  # 2*B(c1, c2)
    return HomogeneousForm.from_coeffs(K, 2, 2, (q11, q12, q22))
