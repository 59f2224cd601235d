"""Normal form of a cubic threefold containing a plane, and its scheme Z.

A cubic f vanishing on a plane P in P^4 can be written, after a linear change
of coordinates moving P to {x0 = x1 = 0}, as

    f = x0*Q0 + x1*Q1

with Q0, Q1 quadrics.  The scheme Z = {x0 = x1 = Q0 = Q1 = 0} inside P is the
base locus of the restricted conic pencil; when zero-dimensional it has length
4, and its structure controls everything downstream (rulings, the group law on
lines, rationality).

Z is found on a smooth conic G of the pencil.  The lines through a rational
point y of G parametrize it, phi(u:v) = -G(w)*y + 2*beta(y, w)*w with
w = u*c1 + v*c2, so Z is phi of the roots of one binary quartic: a second
conic H of the pencil pulled back along phi, read off the congruence
M^T B_H M of H's symmetric matrix by phi's.  A root's degree and
multiplicity are its point's.  When every conic of the pencil is singular,
the conics either share a line, and Z is not zero-dimensional, or are line
pairs through one common vertex, which is then Z with multiplicity 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import pencil as pencil_mod
from .errors import InternalInconsistency, NotContained, NotGeneral, NotSupportedError
from .forms import HomogeneousForm, monomial_exponents, random_form
from .gf import GF
from .linalg import kernel_basis, unit_complement
from .projective import (
    LinearSubspace,
    binary_quadratic,
    normalize_point,
    projective_reps,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalizedThreefold:
    """A cubic threefold in coordinates where the marked plane is {x0 = x1 = 0}.

    ``transform`` sends normalized coordinates to the original ambient ones:
    x_original = transform @ x_normalized.

    The node scheme ``Z``, the coefficients ``pencil_coeffs`` of the
    symmetric matrix of the quadric surface fibration and its
    ``discriminant`` are computed on first read and kept, so every reader
    shares them: every pencil member, over any field of the tower, is read
    off the one table (:func:`pencil.pencil_fibers`), and so are the
    restricted conics' ``conic_matrices``.  So are the pencil's fibers over
    F_{q^k} with their rulings (``pencils[k]``, kept by ``fano._rule_pencils``),
    the line surface over each degree k (``surfaces[k]``, the first
    ``fano.FanoSurface(nf, k)`` built, read through ``fano.surface_of``) and
    the group law (``groups[k]``, kept by ``torsor.torsor_group``).  A
    refusal (NotGeneral, NotSupportedError) is not kept: reading again
    raises again.
    """

    K: GF
    f: HomogeneousForm  # the cubic in normalized coordinates
    Q0: HomogeneousForm
    Q1: HomogeneousForm
    transform: tuple[tuple[int, ...], ...]
    pencils: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    surfaces: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    groups: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if cubic_through_plane(self.K, (self.Q0, self.Q1)) != self.f:
            raise InternalInconsistency("x0*Q0 + x1*Q1 does not reconstruct f")

    @property
    def plane(self) -> LinearSubspace:
        return marked_plane(self.K, 5)

    @cached_property
    def restricted_conics(self) -> tuple[HomogeneousForm, HomogeneousForm]:
        """(Q0|_P, Q1|_P) as ternary quadrics in the plane coordinates.

        On P = {x0 = x1 = 0} a quadric keeps its monomials in x2, x3, x4
        alone: the last six of the ``monomial_exponents`` layout, which lie
        there in the ternary layout's order.
        """
        return tuple(HomogeneousForm.from_coeffs(self.K, 3, 2, Q.coeffs[-6:]) for Q in (self.Q0, self.Q1))

    @cached_property
    def conic_matrices(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """(A0, A1): the symmetric matrices of the restricted conics, as nested tuples of codes:
        the coefficients of s and of t in the block s*A0 + t*A1 of ``pencil_coeffs`` on u = 0."""
        block = self.pencil_coeffs[1:, 1:]
        return tuple(tuple(map(tuple, block[:, :, a, b].tolist())) for a, b in ((1, 0), (0, 1)))

    @cached_property
    def Z(self) -> SingularLocusZ:
        """:func:`compute_Z` of this threefold."""
        return compute_Z(self)

    @cached_property
    def pencil_coeffs(self) -> np.ndarray:
        """The symmetric 4x4 matrix of R_{s,t} in the fiber coordinates as one read-only array:
        [i, j, a, b] is the coefficient of s^a t^b in entry (i, j), read off f
        by :func:`pencil.family_upper`.  :func:`pencil.pencil_fibers` lifts it
        into its field and evaluates it."""
        return pencil_mod.family_matrix(self.K, pencil_mod.family_upper(self.f.coeffs, 2))

    @cached_property
    def discriminant(self) -> pencil_mod.DiscriminantSextic:
        """:func:`pencil.discriminant` of this threefold."""
        return pencil_mod.discriminant(self)

    def embedded(self, L: GF) -> "NormalizedThreefold":
        """The same normalized threefold over an extension field; self over its own.

        The transform resets to the identity: extension-field work always
        happens in normalized coordinates.
        """
        if L is self.K:
            return self
        eye = tuple(tuple(1 if i == j else 0 for j in range(5)) for i in range(5))
        return NormalizedThreefold(
            L, self.f.embedded(L), self.Q0.embedded(L), self.Q1.embedded(L), eye
        )


def plane_basis(nvars: int) -> np.ndarray:
    """The last three unit vectors of nvars coordinates: the marked plane in normal form."""
    rows = np.zeros((3, nvars), dtype=np.int64)
    rows[0, nvars - 3] = rows[1, nvars - 2] = rows[2, nvars - 1] = 1
    return rows


@lru_cache(maxsize=None)
def marked_plane(K: GF, nvars: int) -> LinearSubspace:
    """The flat of :func:`plane_basis`, reduced once per field and number of variables."""
    return LinearSubspace(K, plane_basis(nvars))


def split_off_plane(cubic: HomogeneousForm, plane: LinearSubspace, nvars: int):
    """Move ``plane`` to {x0 = ... = x_{n-1} = 0} and split off the quadrics.

    For a cubic in nvars = n + 3 variables, returns (f, [Q0, ..., Q_{n-1}],
    transform) with f = x0*Q0 + ... + x_{n-1}*Q_{n-1} the transformed cubic
    and x_original = transform @ x_normalized (the identity, with the cubic
    kept as it is, when the plane is already the last three coordinates).
    The split is the deterministic monomial partition: Q_i collects the
    monomials of f that are divisible by x_i but by none of x0, ...,
    x_{i-1}, divided by x_i.  On the plane of the last three coordinates,
    the restriction of the cubic is its monomials in those alone, so their
    coefficients decide containment; any other plane is tested by restricting
    the cubic to it.
    """
    K = cubic.K
    if cubic.nvars != nvars or cubic.degree != 3:
        raise ValueError(f"expected a cubic form in {nvars} variables")
    if plane.dim != 2 or plane.n != nvars - 1:
        raise ValueError(f"expected a plane (projective dimension 2) in P^{nvars - 1}")
    pivots = set(int(j) for j in plane.pivots())
    complement = [j for j in range(nvars) if j not in pivots]
    cols = [np.eye(nvars, dtype=np.int64)[:, j] for j in complement]
    M = np.column_stack(cols + [plane.matrix[i] for i in range(3)])
    marked = (M == np.eye(nvars, dtype=np.int64)).all()
    if not marked and not cubic.restrict(plane.matrix).is_zero:
        raise NotContained("the cubic does not vanish on the plane")
    f_new = cubic if marked else cubic.substitute(M)
    raised, first, free = _split_positions(nvars)
    if f_new.coeffs[free].any():
        if marked:
            raise NotContained("the cubic does not vanish on the plane")
        raise InternalInconsistency("restriction to the plane should have killed this term")
    quadrics = [
        HomogeneousForm.from_coeffs(K, nvars, 2, np.where(first >= i, f_new.coeffs[raised[i]], 0))
        for i in range(nvars - 3)
    ]
    transform = tuple(tuple(int(x) for x in row) for row in M)
    return f_new, quadrics, transform


def normalize(cubic: HomogeneousForm, plane: LinearSubspace) -> NormalizedThreefold:
    """Move ``plane`` to {x0 = x1 = 0} and split off the quadrics Q0, Q1.

    The split is the deterministic monomial partition: Q0 collects every
    monomial of the transformed cubic divisible by x0 (divided by x0), and Q1
    the remaining ones (all divisible by x1) divided by x1.
    """
    f_new, (Q0, Q1), transform = split_off_plane(cubic, plane, 5)
    return NormalizedThreefold(cubic.K, f_new, Q0, Q1, transform)


def cubic_through_plane(K: GF, quadrics) -> HomogeneousForm:
    """x0*Q0 + ... + x_{n-1}*Q_{n-1} for n quadrics in n + 3 variables: each
    Q_i's coefficients placed at ``raised[i]`` of :func:`_split_positions`."""
    raised, _, free = _split_positions(len(quadrics) + 3)
    codes = np.zeros(len(free), dtype=np.int64)
    for positions, Q in zip(raised, quadrics):
        term = np.zeros_like(codes)
        term[positions] = Q.coeffs
        codes = K.add(codes, term)
    return HomogeneousForm.from_coeffs(K, len(quadrics) + 3, 3, codes)


def random_cubic_through_plane(K: GF, nvars: int, rng) -> HomogeneousForm:
    """x0*Q0 + ... + x_{n-1}*Q_{n-1} in nvars = n + 3 variables, with Q0, ..., Q_{n-1}
    uniformly random quadrics drawn from rng in that order."""
    return cubic_through_plane(K, [random_form(K, nvars, 2, rng) for _ in range(nvars - 3)])


@lru_cache(maxsize=None)
def _split_positions(nvars: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(raised, first, free) for the cubics x0*Q0 + ... + x_{n-1}*Q_{n-1} in nvars = n + 3 variables.

    raised[i, m] is the position among the cubic monomials of x_i times the
    m-th quadric monomial; first[m] is the first i < n with x_i in that
    quadric monomial, n when there is none; free marks the cubic monomials
    in none of x0, ..., x_{n-1}.  Positions follow ``monomial_exponents``.
    """
    n = nvars - 3
    cubic = {e: j for j, e in enumerate(monomial_exponents(nvars, 3))}
    quadric = monomial_exponents(nvars, 2)
    raised = np.array([[cubic[e[:i] + (e[i] + 1,) + e[i + 1 :]] for e in quadric] for i in range(n)])
    first = np.array([next((i for i in range(n) if e[i]), n) for e in quadric])
    free = np.array([not any(e[:n]) for e in cubic])
    for positions in (raised, first, free):
        positions.flags.writeable = False
    return raised, first, free


def random_threefold_through_plane(K: GF, rng) -> NormalizedThreefold:
    """A uniformly random cubic of the shape x0*Q0 + x1*Q1 (may be degenerate)."""
    return normalize(random_cubic_through_plane(K, 5, rng), marked_plane(K, 5))


SAMPLE_TRIES = 200  # draws before the sampler gives up


def random_general_threefold(K: GF, rng) -> NormalizedThreefold:
    """Rejection-sample a threefold whose certificate passes; it keeps the Z
    and discriminant that the certificate read."""
    for _ in range(SAMPLE_TRIES):
        nf = random_threefold_through_plane(K, rng)
        if certify_generality(nf).is_general:
            return nf
    raise RuntimeError(f"no general threefold found in {SAMPLE_TRIES} tries")


# ---------------------------------------------------------------------------
# the scheme Z
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZPoint:
    """A closed point of Z: coordinates in the plane over F_{q^degree}."""

    degree: int
    plane_coords: tuple[int, int, int]
    multiplicity: int


@dataclass(frozen=True)
class SingularLocusZ:
    """Z = {Q0|_P = Q1|_P = 0} as a finite list of points with multiplicity."""

    K: GF
    points: tuple[ZPoint, ...]

    @property
    def total_multiplicity(self) -> int:
        return sum(z.multiplicity for z in self.points)

    @property
    def reduced(self) -> bool:
        return all(z.multiplicity == 1 for z in self.points)

    def field_of(self, z: ZPoint) -> GF:
        return self.K.extension(z.degree)

    def points_over(self, d: int) -> tuple[ZPoint, ...]:
        """Points defined over F_{q^d} (degree dividing d)."""
        return tuple(z for z in self.points if d % z.degree == 0)

    def coords_in(self, z: ZPoint, L: GF) -> tuple[int, int, int]:
        """The plane coordinates of z pushed into a field L containing its own."""
        return self.field_of(z).lift(z.plane_coords, L)

    @cached_property
    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Frobenius orbits as index tuples into ``points``."""
        seen = [False] * len(self.points)
        index = {(z.degree, z.plane_coords): i for i, z in enumerate(self.points)}
        out = []
        for i, z in enumerate(self.points):
            if seen[i]:
                continue
            L = self.field_of(z)
            orbit = []
            coords = z.plane_coords
            for _ in range(z.degree):
                j = index[(z.degree, coords)]
                if seen[j]:
                    raise InternalInconsistency("a Frobenius orbit revisits a point")
                seen[j] = True
                orbit.append(j)
                coords = normalize_point(L, [L.frobenius(c, self.K.k) for c in coords])
            if coords != z.plane_coords:
                raise InternalInconsistency("Frobenius orbit must close up")
            out.append(tuple(sorted(orbit)))
        return tuple(out)


def _smooth_member(nf: NormalizedThreefold):
    """The symmetric matrices (B_G, B_H) of the first smooth member G of the pencil and a second member H, or None.

    G = s*q0 + t*q1, and B_G = s*A0 + t*A1, for (A0, A1) = ``nf.conic_matrices``, at the first
    (s:t) in ``projective_reps`` order whose determinant, expanded by
    cofactors along the first row in scalar field arithmetic, is nonzero;
    B_H is A1 when s != 0 and A0 otherwise.  The determinant of the pencil
    is a binary cubic in (s:t), so when all q + 1 >= 4 vanish, every member
    is singular.
    """
    K = nf.K
    A0, A1 = nf.conic_matrices
    for s, t in projective_reps(K, 1):
        B = [[K.add_(K.mul_(s, x), K.mul_(t, y)) for x, y in zip(r0, r1)] for r0, r1 in zip(A0, A1)]
        (a, b, c), (d, e, f), (g, h, i) = B
        cofactors = (
            K.sub_(K.mul_(e, i), K.mul_(f, h)), K.sub_(K.mul_(f, g), K.mul_(d, i)), K.sub_(K.mul_(d, h), K.mul_(e, g))
        )
        if _dot(K, (a, b, c), cofactors):
            return B, (A1 if s else A0)
    return None


def _pullback_quartic(K: GF, BG, BH):
    """H along a parametrization phi of the smooth conic G: (H o phi, phi's matrix M).

    G and H are given by their symmetric matrices B_G and B_H.  y is the
    first rational point of G in ``projective_reps`` order, and c1, c2 the
    unit vectors at the indices other than y's last nonzero one, so that
    y, c1, c2 are a basis.  The line through y and w = u*c1 + v*c2 meets G
    again at phi(u:v) = -G(w)*y + 2*beta(y, w)*w, for beta the bilinear
    form of G, and phi = M @ (u^2, u*v, v^2).  So H o phi is the quadratic
    form of the congruence N = M^T B_H M on (u^2, u*v, v^2): the binary
    quartic with coefficients (N00, 2*N01, 2*N02 + N11, 2*N12, N22).  All
    of it is scalar field arithmetic over K; no extension field is built.
    """
    y = next(x for x in projective_reps(K, 2) if not _quadratic(K, BG, x))
    last = max(j for j in range(3) if y[j])
    i, j = (k for k in range(3) if k != last)
    c1, c2 = ([int(k == e) for k in range(3)] for e in (i, j))
    two = 2 % K.p
    g11, g12, g22 = BG[i][i], K.mul_(two, BG[i][j]), BG[j][j]  # G(w)
    l1, l2 = (K.mul_(two, _dot(K, BG[e], y)) for e in (i, j))  # 2*beta(y, c)
    M = [
        [
            K.sub_(K.mul_(l1, a), K.mul_(g11, yi)),
            K.sub_(K.add_(K.mul_(l1, b), K.mul_(l2, a)), K.mul_(g12, yi)),
            K.sub_(K.mul_(l2, b), K.mul_(g22, yi)),
        ]
        for yi, a, b in zip(y, c1, c2)
    ]
    cols = list(zip(*M))
    BHM = list(zip(*([_dot(K, row, m) for m in cols] for row in BH)))  # the columns of B_H M
    pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    n00, n01, n02, n11, n12, n22 = (_dot(K, cols[a], BHM[b]) for a, b in pairs)  # N = M^T B_H M
    coeffs = (n00, K.mul_(two, n01), K.add_(K.mul_(two, n02), n11), K.mul_(two, n12), n22)
    return HomogeneousForm.from_coeffs(K, 2, 4, coeffs), np.array(M, dtype=np.int64)


def _dot(K: GF, x, y) -> int:
    """The dot product of two vectors of K's codes, in scalar field arithmetic."""
    total = 0
    for a, b in zip(x, y):
        total = K.add_(total, K.mul_(a, b))
    return total


def _quadratic(K: GF, A, x) -> int:
    """x^T A x: the value at x of the quadratic form with symmetric matrix A, all in K's codes."""
    return _dot(K, x, [_dot(K, row, x) for row in A])


def _Z_at_common_vertex(K: GF, q0: HomogeneousForm, q1: HomogeneousForm) -> SingularLocusZ:
    """Z when every conic of the pencil is singular.

    Such a pencil either has a fixed line or consists of line pairs through
    one common vertex v.  Then Z is v with multiplicity 2 * 2 = 4, unless the
    two conics share a line through v: a common root of their binary
    quadratics on the lines through v.
    """
    vertex = kernel_basis(K, np.vstack([q0.symmetric_matrix(), q1.symmetric_matrix()]))
    if vertex.shape[0] == 1:
        v = normalize_point(K, vertex[0])
        c1, c2 = np.eye(3, dtype=np.int64)[unit_complement(v)]
        if binary_quadratic(q0, c1, c2).resultant(binary_quadratic(q1, c1, c2)):
            return SingularLocusZ(K, (ZPoint(1, v, 4),))
    raise NotGeneral("the restricted conics share a component")


def _degree_of(K: GF, L: GF, x: int) -> int:
    """The degree over K of the code x of its extension L: the length of x's Frobenius orbit."""
    degree, y = 1, L.frobenius(x, K.k)
    while y != x:
        degree, y = degree + 1, L.frobenius(y, K.k)
    return degree


def compute_Z(nf: NormalizedThreefold) -> SingularLocusZ:
    """The base locus of the restricted conic pencil, with multiplicities.

    Some conic G of the pencil is smooth unless all of them are singular
    (:func:`_Z_at_common_vertex`).  A rational point of G gives an
    isomorphism phi: P^1 -> G defined over F_q, and Z is G cut by a second
    member H, so its points are phi of the roots of the binary quartic H o phi:
    each of the same degree over F_q as its root and, since phi is a local
    parameter at every point of the smooth G, of the root's multiplicity as
    intersection multiplicity (Fulton, *Algebraic Curves*, 3.3).  With
    phi = M @ (u^2, u*v, v^2), H o phi is read off the congruence
    N = M^T B_H M (:func:`_pullback_quartic`), in scalar field arithmetic
    over F_q, so no extension field is built before the root scan.  The roots
    are scanned field by field, F_q first: a root of degree d over F_q, read
    off the Frobenius map, is new in F_{q^d}, and F_{q^d} is scanned only
    while d divides the length left, so F_{q^3} and F_{q^4} are built only
    for a point of that degree.  Each root's point M @ (u^2, u*v, v^2) is
    checked on both conics, x^T A x = 0 for their symmetric matrices A
    (``nf.conic_matrices``, which the pencil's members are summed from)
    lifted to F_{q^d}.  Raises NotGeneral when Z is not
    zero-dimensional, and NotSupportedError when a point of Z needs a field
    beyond degree 4 over F_p (over F_{p^3} and F_{p^4}, a length 4 with no
    rational point names degree 2 or 4).  A threefold keeps its own as ``nf.Z``.
    """
    K = nf.K
    q0, q1 = nf.restricted_conics
    if q0.is_zero or q1.is_zero:
        raise NotGeneral("a restricted conic vanishes identically")
    members = _smooth_member(nf)
    if members is None:
        return _Z_at_common_vertex(K, q0, q1)
    quartic, M = _pullback_quartic(K, *members)
    if quartic.is_zero:
        raise NotGeneral("the restricted conics share a component")
    A = np.array(nf.conic_matrices, dtype=np.int64)
    found: list[tuple[int, tuple[int, ...], int]] = []
    left = 4  # the length of Z not yet found, all on points of degree >= d
    for d in range(1, 5):
        if not left or left % d:  # a point of degree d takes d times its multiplicity
            continue
        if not K.reaches(d):
            degrees = sorted({d, left})  # left 4 at d = 2: a point of degree 2 or of degree 4
            raise NotSupportedError(
                f"a node of degree {' or '.join(map(str, degrees))} over F_{K.q} needs "
                + " or ".join(f"F_{K.p}^{K.k * e}" for e in degrees)
            )
        L = K.extension(d)
        ML, AL = K.lift(M, L).tolist(), K.lift(A, L).tolist()
        for (u, v), mult in quartic.roots(extension=d):
            if (_degree_of(K, L, v) if u else 1) < d:
                continue  # found in a smaller field
            square = (L.mul_(u, u), L.mul_(u, v), L.mul_(v, v))
            point = normalize_point(L, [_dot(L, row, square) for row in ML])
            if any(_quadratic(L, B, point) for B in AL):
                raise InternalInconsistency("a point of Z misses the conics")
            found.append((d, point, mult))
            left -= mult
    points = tuple(ZPoint(d, coords, m) for d, coords, m in sorted(found, key=lambda z: (z[0], z[1])))
    Z = SingularLocusZ(K, points)
    if Z.total_multiplicity != 4:
        raise InternalInconsistency(f"Z has length {Z.total_multiplicity}, expected 4")
    Z.orbits  # closure check
    return Z


# ---------------------------------------------------------------------------
# generality certificate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeneralityCertificate:
    """Generality of Y ⊃ P, read off its node scheme Z and its discriminant D.

    The paper calls Y general when P is its only plane, Y is smooth off P and
    the quadric-surface fibration has a reduced sextic discriminant D.  Over
    the algebraic closure the first two follow from the third:

    - A second plane Π meets P.  If it meets P in one point, each
      hyperplane H_λ ⊃ P cuts Π in a line of the fiber quadric Q_λ,
      and the ruling of that line is a section of the double cover
      C: w² = D(s, t) → P¹, which cannot exist when D is reduced, since C
      is then irreducible.  If Π meets P in a line, Π lies in one Q_λ, which
      then has rank ≤ 2 and gives D a double root.
    - A point of Y off P lies in exactly one H_λ.  A singular point of Y
      there is a singular point of Q_λ, so λ is a root of D, and at a
      simple root the total space is smooth at the vertex of Q_λ.  So it
      lies over a multiple root of D (Beauville, Ann. Sci. ÉNS 10, 1977;
      Hassett, Compositio 120, 2000).

    So ``is_general`` holds over the closure, and no field is searched.
    """

    Z_zero_dimensional: bool
    discriminant_reduced: bool

    @property
    def is_general(self) -> bool:
        return self.Z_zero_dimensional and self.discriminant_reduced


def certify_generality(nf: NormalizedThreefold) -> GeneralityCertificate:
    """The :class:`GeneralityCertificate` of a threefold.

    Z and the discriminant are the threefold's kept ``nf.Z`` and
    ``nf.discriminant``, so a later reader computes neither again.

    Only NotGeneral turns into a false flag; NotSupportedError, a limit of
    this implementation and not a property of the threefold, propagates.
    A general threefold may still have a nonreduced Z, which the group law
    refuses (``torsor.TorsorGroup``).
    """
    try:
        nf.Z
        z_ok = True
    except NotGeneral:
        z_ok = False
    try:
        disc_ok = nf.discriminant.reduced
    except NotGeneral:
        disc_ok = False
    return GeneralityCertificate(z_ok, disc_ok)
