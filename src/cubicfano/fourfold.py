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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fano import FanoSurface, InvalidInput
from .forms import BinaryForm, HomogeneousForm, det_form_matrix
from .gf import GF
from .linalg import kernel_basis
from .pencil import (
    DiscriminantSextic,
    HyperellipticModel,
    NotGeneral,
    ZetaData,
    symbolic_fiber_entries,
    zeta,
)
from .projective import (
    InternalInconsistency,
    LinearSubspace,
    ProjectiveLine,
    ProjectivePoint,
    common_zeros,
    enumerate_lines,
    normalize_point,
    projective_reps,
)
from .threefold import (
    NormalizedThreefold,
    certify_generality,
    compute_Z,
    normalize,
    plane_basis,
    random_cubic_through_plane,
    split_off_plane,
)


class SingularFourfold(ValueError):
    """The fourfold has a singular point where a smooth one was required."""


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedFourfold:
    """A cubic fourfold in coordinates where the marked plane is {x0=x1=x2=0}.

    ``transform`` sends normalized coordinates to the original ambient ones:
    x_original = transform @ x_normalized.
    """

    K: GF
    f: HomogeneousForm  # the cubic in six variables, normalized coordinates
    Q0: HomogeneousForm
    Q1: HomogeneousForm
    Q2: HomogeneousForm
    transform: tuple[tuple[int, ...], ...]

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


def random_general_fourfold(K: GF, rng, depth: int = 1, max_tries: int = 400) -> NormalizedFourfold:
    """Rejection-sample a fourfold whose generality certificate passes."""
    for _ in range(max_tries):
        nx = random_fourfold_through_plane(K, rng)
        cert = certify_fourfold(nx, smooth_depth=depth, disc_depth=depth, full_slices=False)
        if cert.is_general:
            return nx
    raise RuntimeError(f"no general fourfold found in {max_tries} tries")


# ---------------------------------------------------------------------------
# the quadric family over the (s:t:u)-plane and its discriminant
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlaneDiscriminant:
    """det of the symbolic family matrix: a ternary sextic in (s, t, u).

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

    def restricted_to_dual(self, lam) -> BinaryForm:
        """The binary sextic cut on the dual line {lam . (s,t,u) = 0}.

        The line is parametrized by the canonical kernel rows of lam, which
        is also how slices are parametrized, so the restriction agrees with
        the sliced threefold's discriminant on the nose.
        """
        rows = dual_line_rows(self.K, lam)
        sliced = self.form.restrict(np.array(rows, dtype=np.int64))
        if sliced.is_zero:
            raise NotGeneral("the plane discriminant contains a whole dual line")
        return BinaryForm.from_form(sliced)


def plane_discriminant(nx: NormalizedFourfold, scan_depth: int = 3) -> PlaneDiscriminant:
    """Exact symbolic determinant of the family matrix, with a smoothness scan."""
    D = det_form_matrix(nx.K, 3, symbolic_fiber_entries((nx.Q0, nx.Q1, nx.Q2)))
    if D.is_zero:
        raise NotGeneral("the plane discriminant vanishes identically")
    if D.degree != 6:
        raise InternalInconsistency(f"the plane discriminant has degree {D.degree}, expected 6")
    depth_used = 0
    ok = True
    witness = None
    for d in range(1, min(scan_depth, 3) + 1):
        if not nx.K.reaches(d):
            break
        DL = D.embedded(nx.K.extension(d))
        witness = next(common_zeros([DL] + [DL.derivative(i) for i in range(3)]), None)
        depth_used = d
        if witness is not None:
            ok = False
            break
    return PlaneDiscriminant(D, depth_used, ok, witness)


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
        raise SingularFourfold(f"the fourfold is singular at {x}")
    return normalize_point(K, g)


# ---------------------------------------------------------------------------
# hyperplane slices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Slice:
    """The cubic threefold X cap H over the dual point of H, in slice coordinates.

    ``heads`` are the two kernel rows of the dual triple: the slice coordinate
    y = (y0, y1, y2, y3, y4) embeds as x = y0*(m,0,0,0) + y1*(n,0,0,0) +
    y2*e3 + y3*e4 + y4*e5, so the slice's pencil parameter (s':t') sits over
    the point s'*m + t'*n of the dual line, and the plane of the slice is the
    plane of the fourfold.
    """

    dual: tuple[int, int, int]
    heads: tuple[tuple[int, int, int], tuple[int, int, int]]
    threefold: NormalizedThreefold

    @cached_property
    def subspace(self) -> LinearSubspace:
        K = self.threefold.K
        rows = np.zeros((5, 6), dtype=np.int64)
        rows[0, :3] = self.heads[0]
        rows[1, :3] = self.heads[1]
        rows[2, 3] = rows[3, 4] = rows[4, 5] = 1
        S = LinearSubspace(K, rows)
        if S.rows != tuple(tuple(int(v) for v in row) for row in rows):
            raise InternalInconsistency("the slice basis must already be canonical")
        return S

    def point_in_slice(self, x) -> tuple[int, ...]:
        return self.subspace.point_coords(ProjectivePoint(self.threefold.K, x))

    def line_in_slice(self, line: ProjectiveLine) -> ProjectiveLine:
        inner = [self.point_in_slice(row) for row in line.rows]
        return ProjectiveLine(self.threefold.K, np.array(inner, dtype=np.int64))


def slice_threefold(nx: NormalizedFourfold, lam) -> Slice:
    """The hyperplane section over a dual point, as a normalized threefold."""
    K = nx.K
    lam = normalize_point(K, lam)
    heads = dual_line_rows(K, lam)
    B = np.zeros((5, 6), dtype=np.int64)
    B[0, :3] = heads[0]
    B[1, :3] = heads[1]
    B[2, 3] = B[3, 4] = B[4, 5] = 1
    f5 = nx.f.restrict(B)
    nf = normalize(f5, LinearSubspace(K, plane_basis(5)))
    return Slice(lam, heads, nf)


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


def lines_on_fourfold(nx: NormalizedFourfold) -> list[ProjectiveLine]:
    """All F_q-rational lines on X, by sieving the Grassmannian of P^5.

    A binary cubic with q+1 >= 4 zeros vanishes identically, so a line lies
    on X exactly when all its rational points do.  Practical at q = 3.
    """
    zeros = set(common_zeros([nx.f]))
    return [
        line
        for line in enumerate_lines(nx.K, 5)
        if all(pt in zeros for pt in map(tuple, line.points_array().tolist()))
    ]


# ---------------------------------------------------------------------------
# generality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FourfoldCertificate:
    smooth_off_scan: bool
    disc_degree_six: bool
    disc_smooth: bool
    slices_general: bool
    smooth_depth: int
    disc_depth: int
    transverse_count: int = 0
    witness: tuple | None = None

    @property
    def is_general(self) -> bool:
        return (
            self.smooth_off_scan
            and self.disc_degree_six
            and self.disc_smooth
            and self.slices_general
        )


def _singular_point_scan(nx: NormalizedFourfold, d: int):
    """First singular point of X over F_{q^d}, or None."""
    f = nx.f.embedded(nx.K.extension(d))
    return next(common_zeros([f] + [f.derivative(i) for i in range(6)]), None)


def certify_fourfold(
    nx: NormalizedFourfold,
    smooth_depth: int = 1,
    disc_depth: int = 2,
    full_slices: bool = True,
) -> FourfoldCertificate:
    """Scan-certified generality: X smooth up to the scan depth, the plane
    discriminant a smooth sextic up to its scan depth, and the slicing law
    over every F_q-rational dual point.

    Every slice must have a zero-dimensional node scheme of length four
    (the fibers of the tangency map).  Slices over *transverse* duals —
    those where the restricted sextic stays reduced — must additionally
    certify as general threefolds when ``full_slices`` is on; duals tangent
    to the discriminant carry honestly degenerate slices and are exempt.
    """
    witness = None
    disc = None
    try:
        disc = plane_discriminant(nx, scan_depth=disc_depth)
        degree_ok = True
        disc_ok = disc.smooth_to_depth
        if not disc_ok:
            witness = ("singular discriminant point", disc.singular_witness)
    except NotGeneral:
        degree_ok = False
        disc_ok = False
    smooth_ok = True
    for d in range(1, min(smooth_depth, 2) + 1):
        if not nx.K.reaches(d):
            break
        hit = _singular_point_scan(nx, d)
        if hit is not None:
            smooth_ok = False
            witness = witness or ("singular point", hit)
            break
    slices_ok = True
    transverse = 0
    for lam in projective_reps(nx.K, 2):
        try:
            sl = slice_threefold(nx, lam)
            compute_Z(sl.threefold)  # length four, or NotGeneral
            is_transverse = disc is not None and disc.restricted_to_dual(lam).is_squarefree()
            if is_transverse:
                transverse += 1
                if full_slices:
                    cert = certify_generality(sl.threefold, scan_depth=1)
                    if not cert.is_general:
                        slices_ok = False
                        witness = witness or ("non-general transverse slice", lam, cert.witness)
                        break
        except NotGeneral as exc:
            slices_ok = False
            witness = witness or ("degenerate slice", lam, str(exc))
            break
    return FourfoldCertificate(
        smooth_ok, degree_ok, disc_ok, slices_ok, smooth_depth, disc_depth, transverse, witness
    )


# ---------------------------------------------------------------------------
# the fiber scan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FiberReport:
    """One fiber of the fibration map, verified through its slice.

    For a transverse dual line the slice is a general threefold and the
    fiber is its torsor: the report records #T(F_q) against the class number
    h of the genus-2 curve.  Non-transverse or non-general slices are
    recorded with the degeneration and make no torsor claim.
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


def transverse_duals(nx: NormalizedFourfold, count: int, disc: PlaneDiscriminant | None = None):
    """The first ``count`` dual points whose line meets the discriminant
    transversally (a squarefree binary sextic), in enumeration order."""
    if disc is None:
        disc = plane_discriminant(nx, scan_depth=0)
    out = []
    for lam in projective_reps(nx.K, 2):
        if disc.restricted_to_dual(lam).is_squarefree():
            out.append(normalize_point(nx.K, lam))
            if len(out) == count:
                break
    return out


def fiber_scan(
    nx: NormalizedFourfold,
    duals=None,
    budget: int = 10,
    slice_scan_depth: int = 1,
) -> list[FiberReport]:
    """Verify the fibration fiberwise over a selection of dual points.

    Every requested dual gets a report; when ``duals`` is None the first
    ``budget`` transverse ones are chosen.  Reports come back sorted by dual
    point.  A failed slice is recorded, never fatal.
    """
    disc = plane_discriminant(nx, scan_depth=0)
    if duals is None:
        duals = transverse_duals(nx, budget, disc)
    reports = []
    for lam in duals:
        lam = normalize_point(nx.K, lam)
        sextic = disc.restricted_to_dual(lam)
        transverse = sextic.is_squarefree()
        sl = slice_threefold(nx, lam)
        if not transverse:
            reports.append(
                FiberReport(
                    lam, False, False, None, None, None,
                    "dual line tangent to the discriminant: nonreduced slice "
                    "discriminant, singular double cover, no torsor claim",
                )
            )
            continue
        cert = certify_generality(sl.threefold, scan_depth=slice_scan_depth)
        if not cert.is_general:
            reports.append(
                FiberReport(
                    lam, True, False, None, None, None,
                    f"slice fails the threefold generality certificate: {cert.witness}",
                )
            )
            continue
        zdata = zeta(HyperellipticModel(DiscriminantSextic(sextic)))
        n_torsor = len(FanoSurface(sl.threefold, 1).torsor_set)
        reports.append(
            FiberReport(
                lam, True, True, zdata, n_torsor, n_torsor == zdata.h, "",
            )
        )
    reports.sort(key=lambda r: r.dual)
    return reports
