"""A cubic fourfold containing a plane, sliced into cubic threefolds.

A cubic X in P^5 vanishing on the plane P = {x0 = x1 = x2 = 0} splits as

    f = x0*Q0 + x1*Q1 + x2*Q2

and projection from P turns X into a family of quadric surfaces over the
complementary plane with coordinates (s : t : u): the member over (s:t:u)
is the residual quadric

    R_{s,t,u}(v, x3, x4, x5) = s*Q0(sv,tv,uv,x) + t*Q1(sv,tv,uv,x) + u*Q2(sv,tv,uv,x)

whose 4x4 determinant is a ternary sextic, the plane discriminant.  Each
hyperplane H through P slices X in a cubic threefold containing P whose
quadric pencil is the restriction of this family to the line H cuts in the
(s:t:u)-plane; the fibration map on lines sends a line of X off P to the
hyperplane it spans with P, and the fiber over a transverse dual line is the
torsor of the sliced threefold.  Everything downstream of a slice reuses the
threefold pipeline verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InternalInconsistency, InvalidInput, NotGeneral
from .fano import surface_of
from .forms import HomogeneousForm, interpolate, interpolation_points
from .gf import GF
from .linalg import det, kernel_basis
from .pencil import (
    DiscriminantSextic,
    HyperellipticModel,
    ZetaData,
    symbolic_fiber_entries,
    zeta,
)
from .projective import (
    LinearSubspace,
    ProjectiveLine,
    common_zeros,
    normalize_point,
    projective_reps,
)
from .threefold import (
    NormalizedThreefold,
    normalize,
    plane_basis,
    random_cubic_through_plane,
    split_off_plane,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedFourfold:
    """A cubic fourfold in coordinates where the marked plane is {x0=x1=x2=0}.

    ``transform`` sends normalized coordinates to the original ambient ones:
    x_original = transform @ x_normalized.

    The plane discriminant and the slice over each dual point are computed
    on first read and kept, so every walk over the dual plane shares them.
    """

    K: GF
    f: HomogeneousForm  # the cubic in six variables, normalized coordinates
    Q0: HomogeneousForm
    Q1: HomogeneousForm
    Q2: HomogeneousForm
    transform: tuple[tuple[int, ...], ...]
    _slices: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        acc = HomogeneousForm.zero(self.K, 6, 3)
        for i, Q in enumerate((self.Q0, self.Q1, self.Q2)):
            xi = tuple(1 if j == i else 0 for j in range(6))
            acc = acc.plus(Q.times(HomogeneousForm.monomial(self.K, 6, xi)))
        if acc != self.f:
            raise InternalInconsistency("x0*Q0 + x1*Q1 + x2*Q2 does not reconstruct f")

    @property
    def plane(self) -> LinearSubspace:
        return LinearSubspace(self.K, plane_basis(6))

    @cached_property
    def discriminant(self) -> PlaneDiscriminant:
        """:func:`plane_discriminant` of this fourfold."""
        return plane_discriminant(self)

    def slice_over(self, lam) -> Slice:
        """The :class:`Slice` over a dual point, built on its first request."""
        lam = normalize_point(self.K, lam)
        if lam not in self._slices:
            self._slices[lam] = _build_slice(self, lam)
        return self._slices[lam]

    def embedded(self, L: GF) -> "NormalizedFourfold":
        """The same normalized fourfold over an extension field; self over its own."""
        if L is self.K:
            return self
        eye = tuple(tuple(1 if i == j else 0 for j in range(6)) for i in range(6))
        return NormalizedFourfold(
            L,
            self.f.embedded(L),
            self.Q0.embedded(L),
            self.Q1.embedded(L),
            self.Q2.embedded(L),
            eye,
        )


def normalize_fourfold(cubic: HomogeneousForm, plane: LinearSubspace) -> NormalizedFourfold:
    """Move ``plane`` to {x0 = x1 = x2 = 0} and split off the quadrics.

    The split is the deterministic monomial partition: Q0 collects every
    monomial divisible by x0 (divided by x0), Q1 the remaining ones divisible
    by x1, and Q2 the rest (all divisible by x2).
    """
    f_new, quadrics, transform = split_off_plane(cubic, plane, 6)
    return NormalizedFourfold(cubic.K, f_new, *quadrics, transform)


def random_fourfold_through_plane(K: GF, rng) -> NormalizedFourfold:
    """A uniformly random cubic of the shape x0*Q0 + x1*Q1 + x2*Q2."""
    return normalize_fourfold(random_cubic_through_plane(K, 6, rng), LinearSubspace(K, plane_basis(6)))


SAMPLE_TRIES = 400  # draws before the sampler gives up


def random_general_fourfold(K: GF, rng) -> NormalizedFourfold:
    """Rejection-sample a fourfold that passes :func:`certify_fourfold`.

    The accepted fourfold keeps the slices its certificate read, so
    certifying or scanning it again recomputes none of them.
    """
    for _ in range(SAMPLE_TRIES):
        nx = random_fourfold_through_plane(K, rng)
        if certify_fourfold(nx).is_general:
            return nx
    raise RuntimeError(f"no general fourfold found in {SAMPLE_TRIES} tries")


# ---------------------------------------------------------------------------
# the quadric family over the (s:t:u)-plane and its discriminant
# ---------------------------------------------------------------------------

# the plane discriminant is certified smooth over F_{q^d} for d up to this
DISC_SCAN_DEPTH = 2


@dataclass(frozen=True)
class PlaneDiscriminant:
    """The determinant of the family matrix: a ternary sextic in (s, t, u),
    interpolated from its values at 28 points (:func:`plane_discriminant`).

    ``smooth_to_depth`` certifies that the sextic and its three partials have
    no common zero over F_{q^d} for d <= smooth_scan_depth; the certificate is
    only as deep as the scan.
    """

    form: HomogeneousForm
    smooth_scan_depth: int
    smooth_to_depth: bool
    singular_witness: tuple | None

    @property
    def K(self) -> GF:
        return self.form.K

    def restricted_to_dual(self, lam) -> HomogeneousForm:
        """The binary sextic cut on the dual line {lam . (s,t,u) = 0}.

        The line is parametrized by the canonical kernel rows of lam, which
        is also how slices are parametrized, so the restriction agrees with
        the sliced threefold's discriminant on the nose.
        """
        rows = dual_line_rows(self.K, lam)
        sliced = self.form.restrict(np.array(rows, dtype=np.int64))
        if sliced.is_zero:
            raise NotGeneral("the plane discriminant contains a whole dual line")
        return sliced


def plane_discriminant(nx: NormalizedFourfold) -> PlaneDiscriminant:
    """The determinant of the family matrix, interpolated from its values at
    28 points, and scanned for singular points over F_{q^d} for d up to
    ``DISC_SCAN_DEPTH`` (fewer where the field tower stops).  A fourfold
    keeps its own as ``nx.discriminant``."""
    L, pts = interpolation_points(nx.K, 3, 6)
    entries = symbolic_fiber_entries((nx.Q0, nx.Q1, nx.Q2))
    values = np.array([[entry.embedded(L).evaluate_batch(pts) for entry in row] for row in entries])
    D = interpolate(nx.K, 3, 6, det(L, values.transpose(2, 0, 1)))
    if D.is_zero:
        raise NotGeneral("the plane discriminant vanishes identically")
    depth_used = 0
    witness = None
    for d in range(1, DISC_SCAN_DEPTH + 1):
        if not nx.K.reaches(d):
            break
        DL = D.embedded(nx.K.extension(d))
        witness = next(common_zeros([DL] + [DL.derivative(i) for i in range(3)]), None)
        depth_used = d
        if witness is not None:
            break
    return PlaneDiscriminant(D, depth_used, witness is None, witness)


def dual_line_rows(K: GF, lam) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Canonical spanning rows of the line {lam . (s,t,u) = 0} in the projection plane."""
    lam = normalize_point(K, lam)
    rows = kernel_basis(K, np.array([list(lam)], dtype=np.int64))
    if rows.shape[0] != 2:
        raise InvalidInput("the dual point must be a nonzero coefficient triple")
    return tuple(tuple(int(v) for v in row) for row in rows)


# ---------------------------------------------------------------------------
# the tangency map g : P -> dual plane
# ---------------------------------------------------------------------------


def tangency_map(nx: NormalizedFourfold, x) -> tuple[int, int, int]:
    """The dual point of the unique hyperplane H containing P with X cap H
    singular at x, namely H = T_x X = {Q0(x)*x0 + Q1(x)*x1 + Q2(x)*x2 = 0}."""
    K = nx.K
    x = tuple(int(v) for v in x)
    if len(x) != 6 or not any(x):
        raise InvalidInput("expected ambient coordinates of a point of P^5")
    if (x[0], x[1], x[2]) != (0, 0, 0):
        raise InvalidInput("the tangency map is defined on the plane {x0=x1=x2=0}")
    g = (nx.Q0.evaluate(x), nx.Q1.evaluate(x), nx.Q2.evaluate(x))
    if not any(g):
        raise NotGeneral(f"the fourfold is singular at {x}")
    return normalize_point(K, g)


# ---------------------------------------------------------------------------
# hyperplane slices
# ---------------------------------------------------------------------------


def slice_threefold(nx: NormalizedFourfold, lam) -> NormalizedThreefold:
    """The hyperplane section over a dual point, as a normalized threefold.

    With (m, n) the two kernel rows of the dual triple, the slice coordinate
    y = (y0, y1, y2, y3, y4) embeds as x = y0*(m,0,0,0) + y1*(n,0,0,0) +
    y2*e3 + y3*e4 + y4*e5, so the slice's pencil parameter (s':t') sits over
    the point s'*m + t'*n of the dual line, and the plane of the slice is the
    plane of the fourfold.
    """
    K = nx.K
    heads = dual_line_rows(K, lam)
    B = np.zeros((5, 6), dtype=np.int64)
    B[0, :3] = heads[0]
    B[1, :3] = heads[1]
    B[2, 3] = B[3, 4] = B[4, 5] = 1
    f5 = nx.f.restrict(B)
    return normalize(f5, LinearSubspace(K, plane_basis(5)))


@dataclass(frozen=True)
class Slice:
    """The cubic threefold X cap H over a dual point, with what is read off it.

    ``sextic`` is the plane discriminant on the dual line, None when the
    discriminant contains the line; the dual is ``transverse`` when it is
    squarefree.  ``failure`` is the message of the first NotGeneral, from the
    slice's node scheme ``threefold.Z`` and then from the restriction; on a
    transverse dual the slice's Z is kept exactly when ``failure`` is None.

    A transverse slice without a failure is a general threefold: its Z is
    zero-dimensional, and its own discriminant is the squarefree ``sextic``
    coefficient for coefficient, so :func:`threefold.certify_generality`
    passes it by the proof in :class:`threefold.GeneralityCertificate`.
    """

    dual: tuple[int, int, int]
    threefold: NormalizedThreefold
    sextic: HomogeneousForm | None
    transverse: bool
    failure: str | None

    @property
    def witness(self) -> tuple | None:
        """Why the slice breaks the slicing law of :func:`certify_fourfold`, or None."""
        if self.failure is not None:
            return ("degenerate slice", self.dual, self.failure)
        return None


def _build_slice(nx: NormalizedFourfold, lam: tuple[int, int, int]) -> Slice:
    nf = slice_threefold(nx, lam)
    sextic = failure = None
    try:
        nf.Z  # length four, or NotGeneral
    except NotGeneral as exc:
        failure = str(exc)
    try:
        sextic = nx.discriminant.restricted_to_dual(lam)
    except NotGeneral as exc:
        failure = failure or str(exc)
    transverse = sextic is not None and sextic.is_squarefree()
    return Slice(lam, nf, sextic, transverse, failure)


# ---------------------------------------------------------------------------
# lines on the fourfold and the fibration map
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Indeterminate:
    """The fibration map does not extend to a line inside P.

    ``pencil`` lists (x, g(x)) for the rational points x of the line: the
    one-parameter family of fiber closures through the line, which is what
    the blowup separates.
    """

    rows: tuple
    pencil: tuple[tuple[tuple[int, ...], tuple[int, int, int]], ...]


def pi_of_line(nx: NormalizedFourfold, rows):
    """The fibration map on a line of X: a dual point, or Indeterminate.

    A line disjoint from P maps to the hyperplane it spans with P; a line
    meeting P in one point x maps to the tangency value g(x); a line inside
    P is a point of indeterminacy and carries the pencil of fiber closures
    through it.
    """
    K = nx.K
    line = rows if isinstance(rows, ProjectiveLine) else ProjectiveLine(K, rows)
    if not nx.f.restrict(line.matrix).is_zero:
        raise InvalidInput("the line does not lie on the fourfold")
    r1, r2 = line.rows
    heads = np.array([r1[:3], r2[:3]], dtype=np.int64)
    ker = kernel_basis(K, heads.T)  # coefficient pairs landing in P
    if ker.shape[0] == 0:
        lam = kernel_basis(K, heads)
        if lam.shape[0] != 1:
            raise InternalInconsistency("a P-disjoint line spans a hyperplane with P")
        return normalize_point(K, tuple(int(v) for v in lam[0]))
    if ker.shape[0] == 1:
        a, b = int(ker[0][0]), int(ker[0][1])
        x = normalize_point(
            K, tuple(K.add_(K.mul_(a, v1), K.mul_(b, v2)) for v1, v2 in zip(r1, r2))
        )
        return tangency_map(nx, x)
    pencil = tuple((pt.coords, tangency_map(nx, pt.coords)) for pt in line.points())
    return Indeterminate(line.rows, pencil)


# ---------------------------------------------------------------------------
# generality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourfoldCertificate:
    """``slices_general`` is None when the discriminant or the smoothness
    check failed, and no slice was read."""

    smooth_off_scan: bool
    disc_smooth: bool
    slices_general: bool | None
    witness: tuple | None = None

    @property
    def is_general(self) -> bool:
        return self.smooth_off_scan and self.disc_smooth and self.slices_general is True


def _singular_point_scan(nx: NormalizedFourfold, d: int):
    """First singular point of X over F_{q^d}, or None."""
    f = nx.f.embedded(nx.K.extension(d))
    return next(common_zeros([f] + [f.derivative(i) for i in range(6)]), None)


def certify_fourfold(nx: NormalizedFourfold) -> FourfoldCertificate:
    """Scan-certified generality: the plane discriminant a smooth sextic up to
    ``DISC_SCAN_DEPTH``, X smooth at its F_q-points, and the slicing law over
    every F_q-rational dual point.

    Every slice must have a zero-dimensional node scheme of length four
    (the fibers of the tangency map).  The slice over a *transverse* dual,
    where the restricted sextic stays reduced, is then a general threefold
    with no further check: that sextic is the slice's own discriminant
    (see :class:`Slice`).  Duals tangent to the discriminant carry honestly
    degenerate slices and are exempt.  The slices are read only when the
    first two checks pass, in enumeration order, up to the first failure;
    they are the fourfold's kept slices, shared with :func:`fiber_scan`.
    """
    witness = None
    try:
        disc = nx.discriminant
        disc_ok = disc.smooth_to_depth
        if not disc_ok:
            witness = ("singular discriminant point", disc.singular_witness)
    except NotGeneral as exc:
        disc_ok = False
        witness = ("degenerate discriminant", str(exc))
    hit = _singular_point_scan(nx, 1)
    if hit is not None:
        witness = witness or ("singular point", hit)
    slices_ok = None
    if disc_ok and hit is None:
        for lam in projective_reps(nx.K, 2):
            witness = nx.slice_over(lam).witness
            if witness is not None:
                break
        slices_ok = witness is None
    return FourfoldCertificate(hit is None, disc_ok, slices_ok, witness)


# ---------------------------------------------------------------------------
# the fiber scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberReport:
    """One fiber of the fibration map over a transverse dual, verified
    through its slice.

    When the slice is a general threefold the fiber is its torsor: the
    report records #T(F_q) against the class number h of the genus-2 curve.
    A slice that is not general is recorded with the reason and makes no
    torsor claim.
    """

    dual: tuple[int, int, int]
    transverse: bool
    general: bool
    zeta: ZetaData | None
    torsor_points: int | None
    equal: bool | None
    note: str

    def to_report(self) -> dict:
        return {
            "dual": list(self.dual),
            "transverse": self.transverse,
            "general": self.general,
            "N1": self.zeta.N1 if self.zeta else None,
            "N2": self.zeta.N2 if self.zeta else None,
            "h": self.zeta.h if self.zeta else None,
            "torsor_points": self.torsor_points,
            "equal": self.equal,
            "note": self.note,
        }


def fiber_scan(nx: NormalizedFourfold) -> list[FiberReport]:
    """Verify the fibration fiberwise over every transverse dual point.

    Reports come back sorted by dual point.  A failed slice is recorded,
    never fatal.  The slices are the fourfold's kept ones, so after
    :func:`certify_fourfold` no node scheme is computed again.
    """
    reports = []
    for lam in sorted(projective_reps(nx.K, 2)):
        sl = nx.slice_over(lam)
        if not sl.transverse:
            continue
        if sl.witness is not None:
            kind, _, why = sl.witness
            reports.append(FiberReport(sl.dual, True, False, None, None, None, f"{kind}: {why}"))
            continue
        zdata = zeta(HyperellipticModel(DiscriminantSextic(sl.sextic)))
        n_torsor = len(surface_of(sl.threefold).torsor_set)
        reports.append(FiberReport(sl.dual, True, True, zdata, n_torsor, n_torsor == zdata.h, ""))
    return reports
