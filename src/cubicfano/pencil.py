"""The quadric surface pencil of a cubic threefold containing a plane.

A normalized threefold f = x0*Q0 + x1*Q1 is sliced by the hyperplanes through
the plane P = {x0 = x1 = 0}.  The slice at (s:t) is parametrized by
(u, x2, x3, x4) via x0 = s*u, x1 = t*u, and carries the residual quadric

    R_{s,t}(u, x2, x3, x4) = s*Q0(su, tu, x2, x3, x4) + t*Q1(su, tu, x2, x3, x4)

with f(su, tu, x) = u * R_{s,t}.  This module computes fiber matrices, the
sextic discriminant, rulings of fibers, and point counts / zeta data of the
genus-2 double cover that parametrizes the rulings.

The rulings of a smooth fiber are built, not searched for (Harris, *Algebraic
Geometry: A First Course*, Lecture 22): with beta the fiber's bilinear form,
the line of the quadric through x meeting a line span(b1, b2) of the other
ruling meets it at beta(x, b2) b1 - beta(x, b1) b2.  One matrix of Plucker
pairings checks them: distinct lines of one ruling pair to nonzero (skew),
lines of opposite rulings to zero (they meet).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InternalInconsistency, NotGeneral
from .forms import BinaryForm, HomogeneousForm, det_form_matrix
from .gf import GF
from .linalg import kernel_basis, mat_mul, mat_vec, rank
from .projective import (
    ProjectiveLine,
    binary_quadratic,
    common_zeros,
    complete_to_basis,
    pluecker_coordinates,
    projective_reps,
    root_directions,
)


# ---------------------------------------------------------------------------
# fibers
# ---------------------------------------------------------------------------


def _pencil_quadric_terms(nf, s: int, t: int) -> dict:
    """Terms of R_{s,t} in the fiber coordinates (u, x2, x3, x4)."""
    K = nf.K
    out: dict = {}
    for outer, Q in ((s, nf.Q0), (t, nf.Q1)):
        if outer == 0:
            continue
        for (e0, e1, e2, e3, e4), c in Q.terms.items():
            # x0 -> s*u, x1 -> t*u
            val = K.mul_(outer, c)
            if e0:
                val = K.mul_(val, K.pow_(s, e0))
            if e1:
                val = K.mul_(val, K.pow_(t, e1))
            if not val:
                continue
            key = (e0 + e1, e2, e3, e4)
            acc = K.add_(out.get(key, 0), val)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


@dataclass(frozen=True)
class PencilFiber:
    """One member of the pencil: the quadric surface over (s:t)."""

    K: GF
    s: int
    t: int
    quadric: HomogeneousForm  # R_{s,t} in (u, x2, x3, x4)

    @cached_property
    def matrix(self) -> np.ndarray:
        """Symmetric 4x4 matrix of the quadric (char != 2)."""
        return self.quadric.symmetric_matrix()

    @cached_property
    def rank(self) -> int:
        return rank(self.K, self.matrix)

    def ambient_rows(self, rows) -> list[tuple[int, ...]]:
        """Rows (u, x2, x3, x4) in fiber coordinates as ambient rows (s*u, t*u, x2, x3, x4)."""
        K = self.K
        return [(K.mul_(self.s, int(u)), K.mul_(self.t, int(u)), *(int(x) for x in rest)) for u, *rest in rows]

    def ambient_line(self, rows) -> ProjectiveLine:
        """The line with canonical fiber rows ``rows``, in ambient coordinates.

        Over a normalized (s:t), (1:t) or (0:1), the x0 column is u or zero
        and the x1 column t*u, so the ambient rows are canonical already.
        """
        normalized = self.s == 1 or (self.s == 0 and self.t == 1)
        return ProjectiveLine(self.K, tuple(self.ambient_rows(rows)), _trusted=normalized)


def fiber_matrix(nf, s: int, t: int) -> PencilFiber:
    """The pencil member over (s:t) != (0:0)."""
    if s == 0 and t == 0:
        raise ValueError("(0:0) is not a point of the pencil base")
    quad = HomogeneousForm(nf.K, 4, 2, _pencil_quadric_terms(nf, s, t))
    return PencilFiber(nf.K, s, t, quad)


# ---------------------------------------------------------------------------
# the discriminant sextic
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DiscriminantSextic:
    """disc(s,t) = det of the symbolic fiber matrix; degree 6."""

    form: BinaryForm

    @property
    def K(self) -> GF:
        return self.form.K

    @cached_property
    def reduced(self) -> bool:
        return self.form.is_squarefree()

    def embedded(self, L: GF) -> BinaryForm:
        """The sextic with coefficients pushed into L; its own form when L is its field."""
        if L is self.K:
            return self.form
        return BinaryForm(L, 6, self.K.lift(self.form.coeffs, L))


def symbolic_fiber_entries(quadrics) -> list[list[HomogeneousForm]]:
    """Symmetric 4x4 matrix entries of the residual quadric family, as forms in its parameters.

    ``quadrics`` are the n quadrics of f = x0*Q0 + ... + x_{n-1}*Q_{n-1}: (Q0, Q1)
    of a threefold, whose parameters are (s, t), or (Q0, Q1, Q2) of a fourfold,
    with parameters (s, t, u).  Substituting x_i = p_i*v for i < n in
    p0*Q0 + ... + p_{n-1}*Q_{n-1} gives the member in the fiber coordinates
    (v, x_n, x_{n+1}, x_{n+2}); entry (0, 0) is cubic, the rest of row and
    column 0 quadratic, and the remaining entries linear in the parameters.
    """
    n = len(quadrics)
    K = quadrics[0].K
    half = K.inverse(2 % K.p)
    entries = [[dict() for _ in range(4)] for _ in range(4)]
    for which, Q in enumerate(quadrics):
        for e, c in Q.terms.items():
            outer = list(e[:n])
            outer[which] += 1
            params = tuple(outer)
            i, j = [i for i, v in enumerate((sum(e[:n]),) + e[n:]) for _ in range(v)]
            val = c if i == j else K.mul_(c, half)
            for a, b in ((i, j), (j, i)) if i != j else ((i, i),):
                acc = K.add_(entries[a][b].get(params, 0), val)
                if acc:
                    entries[a][b][params] = acc
                else:
                    entries[a][b].pop(params, None)
    out = []
    for i in range(4):
        row = []
        for j in range(4):
            deg = 3 if i == 0 and j == 0 else (2 if 0 in (i, j) else 1)
            row.append(HomogeneousForm(K, n, deg, entries[i][j]))
        out.append(row)
    return out


def discriminant(nf) -> DiscriminantSextic:
    """Exact symbolic determinant of the fiber matrix, as a binary sextic."""
    D = det_form_matrix(nf.K, 2, symbolic_fiber_entries((nf.Q0, nf.Q1)))
    if D.is_zero:
        raise NotGeneral("discriminant vanishes identically")
    if D.degree != 6:
        raise InternalInconsistency(f"the discriminant has degree {D.degree}, expected 6")
    return DiscriminantSextic(BinaryForm.from_form(D))


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


def _tangent_directions(K: GF, matrix: np.ndarray, quadric: HomogeneousForm, y) -> list[tuple[tuple[int, ...], int]]:
    """Second points spanning the (up to two) lines of the quadric through y, with multiplicity."""
    tangent = kernel_basis(K, np.array([mat_vec(K, matrix, y)], dtype=np.int64))
    if tangent.shape[0] != 3:
        raise InternalInconsistency("a smooth point of a quadric in P^3 has a tangent plane")
    # rebase so y is the first basis vector of the tangent hyperplane
    c1, c2 = complete_to_basis(K, y, tangent)
    # the cross terms with y vanish on the tangent hyperplane
    conic = binary_quadratic(quadric, c1, c2)
    if conic.is_zero:
        # the whole tangent plane lies on the quadric: rank <= 2, excluded upstream
        raise NotGeneral("tangent plane contained in the quadric")
    return root_directions(K, conic.roots(), c1, c2)


def _beta(K: GF, matrix: np.ndarray, x, v) -> int:
    return int(mat_vec(K, [x], mat_vec(K, matrix, v))[0])


def _ruling_through(K: GF, matrix: np.ndarray, points, line) -> list[ProjectiveLine]:
    """For each point x, the line of the quadric through x meeting ``line`` = (b1, b2),
    which misses x: it lies in the tangent plane at x, so it meets ``line`` at
    beta(x, b2) b1 - beta(x, b1) b2."""
    b1, b2 = line
    # beta(x, b2) and beta(x, b1) for every x, with M b2 and M b1 formed once
    betas = mat_mul(K, points, mat_mul(K, matrix, np.array([b2, b1], dtype=np.int64).T))
    out = []
    for x, (beta2, beta1) in zip(points, betas):
        c1, c2 = int(beta2), K.neg_(int(beta1))
        meet = [K.add_(K.mul_(c1, int(u)), K.mul_(c2, int(v))) for u, v in zip(b1, b2)]
        out.append(ProjectiveLine(K, np.array([x, meet], dtype=np.int64)))
    return out


def check_rulings(K: GF, rulings) -> None:
    """Distinct lines of one ruling are skew, lines of different rulings meet, and
    each ruling holds q+1 lines: one matrix of Plucker pairings, zero where lines meet."""
    pl = np.array([pluecker_coordinates(line) for ruling in rulings for line in ruling], dtype=np.uint16)
    # <p, p'> = p01 p'23 - p02 p'13 + p03 p'12 + p12 p'03 - p13 p'02 + p23 p'01
    dual = pl[:, ::-1].copy()
    dual[:, [1, 4]] = K.neg[dual[:, [1, 4]]]
    pairing = np.zeros((len(pl), len(pl)), dtype=np.uint16)
    for k in range(6):
        pairing = K.add[pairing, K.mul[pl[:, None, k], dual[None, :, k]]]
    labels = np.repeat(np.arange(len(rulings)), [len(ruling) for ruling in rulings])
    same, meets = labels[:, None] == labels[None, :], pairing == 0
    if (meets & same & ~np.eye(len(pl), dtype=bool)).any():
        raise InternalInconsistency("two lines of one ruling meet")
    if (~meets & ~same).any():
        raise InternalInconsistency("lines in different rulings must meet")
    if any(len(ruling) != K.q + 1 for ruling in rulings):
        raise InternalInconsistency("split smooth fiber carries q+1 lines per ruling")


def _ambient_pack(fiber: PencilFiber, lines) -> tuple[ProjectiveLine, ...]:
    return tuple(sorted((fiber.ambient_line(line.rows) for line in lines), key=lambda L: L.rows))


def rulings_of_fiber(fiber: PencilFiber) -> list[RulingClass]:
    """Ruling classes of the fiber over its own field: 2 (split smooth),
    0 (smooth with no rational lines), or 1 (cone).

    A cone's lines join its vertex to a plane section missing it.  At a point
    y of a smooth fiber the tangent conic is two lines A = span(y, a) and
    B = span(y, b), or none (nonsplit).  At a it is A and B' = span(a, b') of
    B's ruling.  A's ruling is the line through each point of B meeting B', and
    B's the line through each point of A meeting A', the line of A's ruling
    through b; :func:`check_rulings` checks them, with no rank between lines.
    """
    K, M, quadric = fiber.K, fiber.matrix, fiber.quadric
    if fiber.rank <= 2:
        raise NotGeneral(f"fiber matrix has rank {fiber.rank} <= 2")
    if fiber.rank == 3:
        ker = kernel_basis(K, M)
        if ker.shape[0] != 1:
            raise InternalInconsistency("a rank-3 quadric in P^3 has a single vertex")
        vertex = [int(x) for x in ker[0]]
        # the plane x_i = 0 at the vertex's leading 1 misses it and meets each line once
        section = HomogeneousForm.linear(K, tuple(int(i == vertex.index(1)) for i in range(4)))
        lines = [ProjectiveLine(K, np.array([vertex, pt])) for pt in common_zeros([section, quadric])]
        return [RulingClass(K, fiber.s, fiber.t, 0, True, _ambient_pack(fiber, lines))]
    y = next(common_zeros([quadric]))
    through_y = _tangent_directions(K, M, quadric, y)
    if not through_y:
        return []
    if len(through_y) != 2:
        raise InternalInconsistency("the tangent conic of a smooth quadric is two distinct lines")
    (a, _), (b, _) = through_y
    # b' is the branch at a off the tangent plane at y
    branches = [d for d, _ in _tangent_directions(K, M, quadric, a) if _beta(K, M, y, d)]
    if len(branches) != 1:
        raise InternalInconsistency("a point of a split quadric lies on one line of each ruling")
    ruling_a = _ruling_through(K, M, ProjectiveLine(K, np.array([y, b])).points_array(), (a, branches[0]))
    a_prime = _ruling_through(K, M, [b], (a, branches[0]))[0].rows
    ruling_b = _ruling_through(K, M, ProjectiveLine(K, np.array([y, a])).points_array(), a_prime)
    check_rulings(K, (ruling_a, ruling_b))
    packs = sorted((_ambient_pack(fiber, ruling) for ruling in (ruling_a, ruling_b)), key=lambda pack: pack[0].rows)
    return [RulingClass(K, fiber.s, fiber.t, i, False, pack) for i, pack in enumerate(packs)]


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
    nfd = nf.embedded(nf.K.extension(d))
    out = []
    for s, t in projective_reps(nfd.K, 1):
        out.extend(rulings_of_fiber(fiber_matrix(nfd, s, t)))
    return out


@dataclass(frozen=True)
class HyperellipticModel:
    """y^2 = disc(s,t) in weighted coordinates (1,1,3)."""

    disc: DiscriminantSextic

    @property
    def K(self) -> GF:
        return self.disc.K


def count_points_C(model: HyperellipticModel, k: int) -> int:
    """#C(F_{q^k}) = sum over P^1(F_{q^k}) of 1 + chi(disc(s,t))."""
    L = model.K.extension(k)
    sextic = model.disc.embedded(L)
    total = 0
    for s, t in projective_reps(L, 1):
        total += 1 + L.chi_(sextic.evaluate(s, t))
    return total


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
        ops = operational_curve_points(nf, k)
        if len(ops) != count_points_C(model, k):
            return False
        L = nf.K.extension(k)
        sextic = model.disc.embedded(L)
        per_fiber: dict = {}
        for c in ops:
            per_fiber[(c.s, c.t)] = per_fiber.get((c.s, c.t), 0) + 1
        for s, t in projective_reps(L, 1):
            expect = 1 + L.chi_(sextic.evaluate(s, t))
            if per_fiber.get((s, t), 0) != expect:
                return False
    return True
