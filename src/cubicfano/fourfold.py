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
threefold pipeline verbatim, in stacked passes across the slices: the
discriminant is restricted to every dual line at once, a slice cuts its
threefold only when read, and the surfaces of the general slices are ruled
together (:func:`fiber_scan`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InternalInconsistency, InvalidInput, NotGeneral
from .fano import surfaces_of
from .forms import HomogeneousForm, interpolate, interpolation_points
from .gf import GF
from .linalg import det, hyperplane_rows, kernel_basis, minors
from .pencil import (
    DiscriminantSextic,
    HyperellipticModel,
    ZetaData,
    family_at,
    family_matrix,
    family_upper,
    zeta,
)
from .projective import (
    _CROSS,
    LinearSubspace,
    ProjectiveLine,
    common_zeros,
    normalize_point,
    projective_reps,
)
from .threefold import (
    NormalizedThreefold,
    cubic_through_plane,
    marked_plane,
    normalize,
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

    The plane discriminant and the slices over all the dual points are
    computed on first read and kept, so every walk over the dual plane
    shares them.  The slices come in one pass (:func:`_slices`), each slice
    threefold only when first read.
    """

    K: GF
    f: HomogeneousForm  # the cubic in six variables, normalized coordinates
    Q0: HomogeneousForm
    Q1: HomogeneousForm
    Q2: HomogeneousForm
    transform: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if cubic_through_plane(self.K, (self.Q0, self.Q1, self.Q2)) != self.f:
            raise InternalInconsistency("x0*Q0 + x1*Q1 + x2*Q2 does not reconstruct f")

    @property
    def plane(self) -> LinearSubspace:
        return marked_plane(self.K, 6)

    @cached_property
    def discriminant(self) -> PlaneDiscriminant:
        """:func:`plane_discriminant` of this fourfold."""
        return plane_discriminant(self)

    @cached_property
    def slices(self) -> dict[tuple[int, int, int], Slice]:
        """The :class:`Slice` over every dual point, keyed in ``projective_reps`` order."""
        return _slices(self)

    def slice_over(self, lam) -> Slice:
        """The kept :class:`Slice` over a dual point."""
        return self.slices[normalize_point(self.K, lam)]


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
    return normalize_fourfold(random_cubic_through_plane(K, 6, rng), marked_plane(K, 6))


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

    def on_dual_lines(self, duals) -> list[HomogeneousForm]:
        """The binary sextics cut on the dual lines {lam . (s,t,u) = 0} of a list
        of dual points, from one evaluation of the sextic and one interpolation.

        Each line is parametrized by the canonical kernel rows of lam
        (:func:`dual_line_rows`), which is also how slices are parametrized,
        so each restriction agrees with the sliced threefold's discriminant
        on the nose.  A line inside the discriminant gets the zero form.
        """
        rows = hyperplane_rows(self.K, [normalize_point(self.K, lam) for lam in duals])
        return self.form.substitute_each(rows.transpose(0, 2, 1))


def plane_discriminant(nx: NormalizedFourfold) -> PlaneDiscriminant:
    """The determinant of the family matrix, interpolated from its values at
    28 points read off the family's table (:func:`pencil.family_upper`), and
    scanned for singular points over F_{q^d} for d up to ``DISC_SCAN_DEPTH``
    (fewer where the field tower stops).  A fourfold keeps its own as
    ``nx.discriminant``."""
    L, pts = interpolation_points(nx.K, 3, 6)
    family = family_matrix(nx.K, family_upper(nx.f.coeffs, 3))
    D = interpolate(nx.K, 3, 6, det(L, family_at(L, nx.K.lift(family, L), pts)))
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
    return tuple(map(tuple, hyperplane_rows(K, normalize_point(K, lam)).tolist()))


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


def slice_threefold(f: HomogeneousForm, lam) -> NormalizedThreefold:
    """The hyperplane section over a dual point of a fourfold's cubic f in
    normalized coordinates, as a normalized threefold.

    With (m, n) the two kernel rows of the dual triple, the slice coordinate
    y = (y0, y1, y2, y3, y4) embeds as x = y0*(m,0,0,0) + y1*(n,0,0,0) +
    y2*e3 + y3*e4 + y4*e5, so the slice's pencil parameter (s':t') sits over
    the point s'*m + t'*n of the dual line, and the plane of the slice is the
    plane of the fourfold.
    """
    K = f.K
    heads = dual_line_rows(K, lam)
    B = np.zeros((5, 6), dtype=np.int64)
    B[0, :3] = heads[0]
    B[1, :3] = heads[1]
    B[2, 3] = B[3, 4] = B[4, 5] = 1
    return normalize(f.restrict(B), marked_plane(K, 5))


@dataclass(frozen=True)
class Slice:
    """The cubic threefold X cap H over a dual point, with what is read off it.

    ``sextic`` is the plane discriminant on the dual line, None when the
    discriminant contains the line; the dual is ``transverse`` when it is
    squarefree.  The slice keeps the fourfold's ``cubic``, not the fourfold,
    and builds its ``threefold`` when first read; the threefold's node scheme
    is computed when first read.

    On a fourfold that passes :func:`certify_fourfold`, a transverse slice is
    a general threefold: its Z is zero-dimensional (:class:`FourfoldCertificate`),
    and its own discriminant is the squarefree ``sextic`` coefficient for
    coefficient, so :func:`threefold.certify_generality` passes it by the
    proof in :class:`threefold.GeneralityCertificate`.
    """

    dual: tuple[int, int, int]
    sextic: HomogeneousForm | None
    transverse: bool
    cubic: HomogeneousForm = field(repr=False, compare=False)

    @cached_property
    def threefold(self) -> NormalizedThreefold:
        """:func:`slice_threefold` of the fourfold's cubic over this dual point."""
        return slice_threefold(self.cubic, self.dual)


def _slices(nx: NormalizedFourfold) -> dict[tuple[int, int, int], Slice]:
    """The slice over every dual point in one pass: the plane discriminant on
    all the dual lines at once (on none when it vanishes identically), and
    each sextic's squarefree test."""
    duals = list(projective_reps(nx.K, 2))
    try:
        sextics = nx.discriminant.on_dual_lines(duals)
    except NotGeneral:
        sextics = [None] * len(duals)
    out = {}
    for lam, sextic in zip(duals, sextics):
        if sextic is not None and sextic.is_zero:
            sextic = None
        out[lam] = Slice(lam, sextic, sextic is not None and sextic.is_squarefree(), nx.f)
    return out


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
        lam = minors(K, heads[0], heads[1], _CROSS)
        if not lam.any():
            raise InternalInconsistency("a P-disjoint line spans a hyperplane with P")
        return normalize_point(K, lam)
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
    """Smoothness of X along and off P, and of its plane discriminant D.

    ``disc_smooth``: D is a sextic with no singular point over F_{q^d} for
    d <= ``DISC_SCAN_DEPTH``, and contains no F_q-rational dual line (the
    scan alone misses a line whose five crossings with the residual quintic
    are one point of degree 5).  ``smooth_along_P`` is exact, and None when
    D failed and it was not read.  The ``witness`` names what failed:
    ``("singular along P", (x3, x4, x5), degree)`` for a singular point of X
    on P over F_{q^degree}, in the plane coordinates of the slices.

    - **Along P.**  On P, grad f = (Q0, Q1, Q2, 0, 0, 0), so X is singular at
      x in P exactly when x is a base point of the tangency map
      g = (Q0 : Q1 : Q2)|_P.  The node scheme of the slice over lam is
      g^-1(lam) together with the base points.  With no base point, g is a
      morphism by conics and O(2) is ample, so g is finite of degree 4 and
      every slice's Z is zero-dimensional of length 4.  So one slice
      decides: when its Z is not zero-dimensional, g has a curve as a fiber
      and a base point exists; otherwise the base points are among the
      points of Z, where the three quadrics are evaluated.
    - **Off P.**  A point of X off P lies on one fiber quadric, the one over
      (x0 : x1 : x2), and X can be singular there only at a singular point
      of that fiber.  A fiber of rank <= 2 lies over a singular point of D.
      At the vertex w of a fiber of rank 3 with matrix A, f = v * R_{s,t,u}
      has derivatives across the fibers v * w^T (dA) w with v != 0, and
      adj A = c*w*w^T with c != 0, so d(det A) = c * w^T (dA) w in odd
      characteristic: X is singular at w exactly when D is singular below
      it (cf. Hassett, Compositio Math. 120, 2000).  So the depth-2 scan of
      D rules out singular points of X off P of degree <= 2.
    """

    disc_smooth: bool
    smooth_along_P: bool | None
    witness: tuple | None = None

    @property
    def is_general(self) -> bool:
        return self.disc_smooth and self.smooth_along_P is True


def certify_fourfold(nx: NormalizedFourfold) -> FourfoldCertificate:
    """The :class:`FourfoldCertificate` of a fourfold, up to the first failure.

    It reads the fourfold's kept slices, shared with :func:`fiber_scan`:
    every sextic, for the dual lines in D, and the node scheme of the first
    slice, for the base points of g.
    """
    try:
        disc = nx.discriminant
    except NotGeneral as exc:
        return FourfoldCertificate(False, None, ("degenerate discriminant", str(exc)))
    if not disc.smooth_to_depth:
        return FourfoldCertificate(False, None, ("singular discriminant point", disc.singular_witness))
    duals = list(projective_reps(nx.K, 2))
    lam = next((lam for lam in duals if nx.slice_over(lam).sextic is None), None)
    if lam is not None:
        return FourfoldCertificate(False, None, ("dual line in the discriminant", lam))
    try:
        Z = nx.slice_over(duals[0]).threefold.Z
    except NotGeneral as exc:
        return FourfoldCertificate(True, False, ("positive-dimensional fiber of g", duals[0], str(exc)))
    for z in Z.points:
        L, x = Z.field_of(z), np.array([(0, 0, 0) + z.plane_coords])
        if not any(Q.embedded(L).evaluate_batch(x)[0] for Q in (nx.Q0, nx.Q1, nx.Q2)):
            return FourfoldCertificate(True, False, ("singular along P", z.plane_coords, z.degree))
    return FourfoldCertificate(True, True)


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

    Reports come back sorted by dual point.  A slice whose node scheme is
    not zero-dimensional is recorded, never fatal.  Only transverse slices
    compute their node schemes, on the fourfold's kept slices; the surfaces
    of the general ones are built together, their fibers ruled in one pass
    (:func:`fano.surfaces_of`).
    """
    reports, general = [], []
    for lam in sorted(nx.slices):
        sl = nx.slices[lam]
        if not sl.transverse:
            continue
        try:
            sl.threefold.Z
        except NotGeneral as exc:
            reports.append(FiberReport(sl.dual, True, False, None, None, None, f"degenerate slice: {exc}"))
            continue
        general.append(sl)
    for sl, surface in zip(general, surfaces_of([sl.threefold for sl in general])):
        zdata = zeta(HyperellipticModel(DiscriminantSextic(sl.sextic)))
        n_torsor = len(surface.torsor_set)
        reports.append(FiberReport(sl.dual, True, True, zdata, n_torsor, n_torsor == zdata.h, ""))
    return sorted(reports, key=lambda report: report.dual)
