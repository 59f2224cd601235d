"""Rationality verdicts for cubic threefolds containing a plane.

Over a finite field every general such threefold is rational, and the module
produces the witness the theory promises: a rational node, a rational line
disjoint from the plane, or a boundary line of the line surface; finding no
witness at all would contradict Lang's theorem and raises an error, a strong
internal self-test.

Over the rationals no decision procedure is known, so the module runs an
honest semidecision with three outcomes.  It searches for the same witnesses
with bounded height (nodes through a resultant of the two restricted conics,
lines through pairs of low-height integer points whose gradient pairings
vanish, the pair test of the chart over F_q), and in the other direction
scans the quadric surface pencil for a member with no local points: a quadric
surface inside Y with no rational points blocks every section of the
fibration, which certifies irrationality.  Local solvability of a rank-4
quadratic form is decided exactly by the Hasse-Minkowski criterion through
Hilbert symbols at the real place, at 2, and at the odd primes of the
determinant.  The semidecision runs only on a general threefold, one whose
discriminant sextic D(s, t) = det 4 R_{s,t} of the pencil is reduced; this
is decided over Q from D alone, as disc(D) != 0, and ``good_prime`` is the
least odd prime that does not divide disc(D), the least odd prime modulo
which D stays reduced.

This is the one module that computes in characteristic zero; all rational
arithmetic is exact.  An integer form is a coefficient vector on the
``forms.monomial_exponents`` layout, Python integers in an ``object``
array: the input cubic is read once, moved to the standard plane by one
product with a substitution matrix, and made primitive, and its conics on
the plane, its parts at each power of x4 and the binary forms of the
resultant are index slices of that vector, and the pencil's Gram matrices
are one table in (s, t), built once per cubic by ``pencil.family_upper``,
which places the same family over F_q.  A form at a grid of points is
its monomial matrix times its coefficient vector, in int64 where a bound
proves no overflow and in Python integers otherwise.  A quadratic form is
an integer Gram matrix, diagonalized fraction-free; ``fractions.Fraction``
reads the plane's columns, maps a node back and holds the node search's
roots.  Primality and factoring come from :mod:`cubicfano.integers`.  A
resultant is a Sylvester determinant (von zur Gathen-Gerhard, *Modern
Computer Algebra*, ch. 6): of binary forms by cofactors, the same
expansion that gives D, and of integers by fraction-free elimination.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import InternalInconsistency, InvalidInput, NotGeneral
from .fano import DISJOINT, MEETS_PLANE, _meet_with_plane, surface_of
from .forms import _layout, _monomial_steps, _raised
from .integers import _factor, _is_prime
from .pencil import family_upper
from .threefold import NormalizedThreefold


@dataclass(frozen=True)
class RationalityVerdict:
    """Outcome of a rationality search: Rational, Irrational, or Unknown.

    A Rational verdict carries a witness (a node or a line), an Irrational
    verdict carries a certificate (a pencil member with a local obstruction),
    and every verdict records in ``bounds`` how far its searches went.  Over
    Q the keys are ``height_bound`` and ``good_prime``, then, once the node
    search found nothing, ``points_found`` and ``points_capped`` (True when
    more than ``_POINT_CAP`` points were found and only the first were kept),
    then, once the line search found nothing, ``pencil_members_scanned``.
    ``good_prime`` is the least odd prime that does not divide disc(D), for
    D = det 4 R_{s,t} the discriminant sextic of the pencil, not made
    primitive: modulo that prime D stays reduced.
    Over F_q the keys are ``field`` and, past a rational node,
    ``torsor_points``.
    """

    kind: str  # "Rational" | "Irrational" | "Unknown"
    witness: dict | None = None
    certificate: dict | None = None
    bounds: dict | None = None

    def __post_init__(self):
        if self.kind not in ("Rational", "Irrational", "Unknown"):
            raise InvalidInput("verdict kind must be Rational, Irrational, or Unknown")

    def to_report(self) -> dict:
        return {
            "kind": self.kind,
            "witness": self.witness,
            "certificate": self.certificate,
            "bounds": self.bounds,
        }


# ---------------------------------------------------------------------------
# finite fields: Lang's theorem with an explicit witness
# ---------------------------------------------------------------------------


def decide_over_finite_field(nf: NormalizedThreefold) -> RationalityVerdict:
    """A verified rationality witness for a general threefold over F_q.

    The witness priority is fixed: a rational node first, then a rational
    line disjoint from the plane, then a boundary line of the line surface.
    Each witness is re-verified by direct evaluation before it is returned.
    An empty torsor set would contradict the finite-field rationality
    theorem, so it raises InternalInconsistency rather than returning
    Irrational or Unknown: this function never returns those verdicts.
    """
    K = nf.K
    if not nf.discriminant.reduced:
        raise NotGeneral("the rationality theorem requires Y \\ P smooth (reduced discriminant)")
    bounds = {"field": {"p": K.p, "k": K.k}}

    rational_nodes = nf.Z.points_over(1)
    if rational_nodes:
        amb = (0, 0) + nf.Z.coords_in(rational_nodes[0], K)
        _verify_node_on_cubic(nf, amb)
        witness = {"type": "node", "point": [int(v) for v in amb]}
        return RationalityVerdict("Rational", witness=witness, bounds=bounds)

    surface = surface_of(nf, 1)
    ts = surface.torsor_set
    bounds["torsor_points"] = len(ts)
    for tp, kind in ((ts.disjoint_lines, "line_disjoint_from_plane"),
                     (ts.boundary_lines, "boundary_line")):
        if tp:
            rows = tp[0].rows
            _verify_line_on_cubic(nf, rows, disjoint=(kind == "line_disjoint_from_plane"))
            witness = {"type": kind, "rows": [[int(v) for v in row] for row in rows]}
            return RationalityVerdict("Rational", witness=witness, bounds=bounds)

    raise InternalInconsistency(
        "no rational node, disjoint line, or boundary line over a finite field: "
        "this contradicts the rationality theorem"
    )


def _verify_node_on_cubic(nf: NormalizedThreefold, amb) -> None:
    if nf.f.evaluate(amb) != 0 or any(nf.f.gradient(amb)):
        raise InternalInconsistency("a claimed node is not a singular point of the cubic")


def _verify_line_on_cubic(nf: NormalizedThreefold, rows, disjoint: bool) -> None:
    basis = np.array(rows, dtype=np.int64)
    if not nf.f.restrict(basis).is_zero:
        raise InternalInconsistency("a claimed witness line does not lie on the cubic")
    if _meet_with_plane(nf.K, rows)[0] != (DISJOINT if disjoint else MEETS_PLANE):
        raise InternalInconsistency("a claimed witness line meets the plane incorrectly")


# ---------------------------------------------------------------------------
# rational quadratic forms and local solvability
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalQuadricForm:
    """A quadratic form over Q in four variables, as an integer symmetric Gram matrix.

    ``gram`` is G = k^2 A for the rational matrix A of the form and the
    nonzero integer ``scale`` k: a square multiple, with the isotropic
    vectors and the squarefree diagonal classes of A.
    """

    gram: tuple[tuple[int, ...], ...]
    scale: int

    def __post_init__(self):
        G = self.gram
        if len(G) != 4 or any(len(row) != 4 for row in G) or not self.scale:
            raise InvalidInput("the quadratic form needs a 4x4 matrix and a nonzero scale")
        if any(G[i][j] != G[j][i] for i in range(4) for j in range(4)):
            raise InvalidInput("the matrix is not symmetric")

    @classmethod
    def from_entries(cls, rows) -> "RationalQuadricForm":
        """The form of a matrix of rationals: integers, numpy integers or fractions.

        The denominators are cleared by k^2, k their lcm, and each numerator and
        denominator is read by ``int``: G holds Python integers for any input.
        """
        pairs = [[(int(v.numerator), int(v.denominator)) for v in row] for row in rows]
        k = math.lcm(*(den for row in pairs for _, den in row))
        return cls(tuple(tuple(num * (k * k // den) for num, den in row) for row in pairs), k)

    @cached_property
    def diagonalization(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(diagonal, scales), with diagonal[i] / scales[i]^2 a diagonalization of A by congruence.

        One fraction-free elimination of G on the pivot path of the rational
        one (Bareiss, Math. Comp. 22, 1968): a zero pivot is swapped with a
        later nonzero diagonal entry or, if there is none, gets a column that
        meets it added; then each later column j is cleared by the step
        col_j <- p col_j - g_ij col_i, the rational step times the pivot p.
        So column j carries a scale, k times its pivots, and an added column
        is weighted by the scales (s_j col_i + s_i col_j).  The form is
        singular exactly when the diagonal has a zero.
        """
        G = [list(row) for row in self.gram]
        scales = [self.scale] * 4

        def combine(dst, a, src, b):  # col_dst <- a col_dst + b col_src, then the same on the rows
            for r in range(4):
                G[r][dst] = a * G[r][dst] + b * G[r][src]
            for r in range(4):
                G[dst][r] = a * G[dst][r] + b * G[src][r]

        for i in range(4):
            if G[i][i] == 0:
                j = next((j for j in range(i + 1, 4) if G[j][j] != 0), None)
                if j is not None:
                    G[i], G[j] = G[j], G[i]
                    for row in G:
                        row[i], row[j] = row[j], row[i]
                    scales[i], scales[j] = scales[j], scales[i]
                else:
                    j = next((j for j in range(i + 1, 4) if G[i][j] != 0), None)
                    if j is None:
                        continue
                    combine(i, scales[j], j, scales[i])
                    scales[i] *= scales[j]
            for j in range(i + 1, 4):
                if G[i][j] != 0:
                    combine(j, G[i][i], i, -G[i][j])
                    scales[j] *= G[i][i]
        return tuple(G[i][i] for i in range(4)), tuple(scales)

    @cached_property
    def _squarefree(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(``squarefree_diagonal``, ``odd_primes``), from one factorization of each diagonal entry."""
        parts = [_squarefree_part(d, scale * scale) for d, scale in zip(*self.diagonalization)]
        return tuple(v for v, _ in parts), tuple(sorted({p for _, primes in parts for p in primes if p != 2}))

    @property
    def squarefree_diagonal(self) -> tuple[int, ...]:
        """The diagonalization scaled entrywise to squarefree integers."""
        return self._squarefree[0]

    @property
    def odd_primes(self) -> tuple[int, ...]:
        """The odd primes dividing an entry of ``squarefree_diagonal``, in increasing order."""
        return self._squarefree[1]


def _squarefree_part(num: int, den: int) -> tuple[int, tuple[int, ...]]:
    """The squarefree integer representing num/den (den > 0) modulo nonzero rational squares, and its primes."""
    if num == 0:
        return 0, ()
    g = math.gcd(num, den)
    primes = tuple(p for p, e in _factor(abs(num * den) // (g * g)).items() if e % 2)
    return math.prod(primes) * (1 if num > 0 else -1), primes


def _legendre(u: int, p: int) -> int:
    r = pow(u % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _split_valuation(a: int, p: int) -> tuple[int, int]:
    alpha = 0
    while a % p == 0:
        a //= p
        alpha += 1
    return alpha, a


def hilbert_symbol(a: int, b: int, p) -> int:
    """The Hilbert symbol (a, b) at the prime p or at the real place "real"."""
    if a == 0 or b == 0:
        raise InvalidInput("Hilbert symbols need nonzero arguments")
    if p == "real":
        return -1 if a < 0 and b < 0 else 1
    alpha, u = _split_valuation(a, p)
    beta, v = _split_valuation(b, p)
    if p == 2:
        eps = ((u - 1) // 2) * ((v - 1) // 2)
        omega = alpha * ((v * v - 1) // 8) + beta * ((u * u - 1) // 8)
        return -1 if (eps + omega) % 2 else 1
    out = 1
    if beta % 2:
        out *= _legendre(u, p)
    if alpha % 2:
        out *= _legendre(v, p)
    if alpha % 2 and beta % 2:
        out *= _legendre(-1, p)
    return out


def _is_padic_square(d: int, p: int) -> bool:
    alpha, u = _split_valuation(d, p)
    if alpha % 2:
        return False
    if p == 2:
        return u % 8 == 1
    return _legendre(u, p) == 1


@dataclass(frozen=True)
class LocalSolvability:
    """Hasse-Minkowski outcome for a rank-4 form: solvable or one bad place."""

    solvable: bool
    obstruction: object  # None, "real", or a prime int
    diagonal: tuple[int, ...]
    quadric: RationalQuadricForm

    @cached_property
    def witness(self) -> tuple[int, ...] | None:
        """An isotropic vector of height at most 10 of a solvable form, or None."""
        return _isotropic_vector(self.quadric, 10) if self.solvable else None

    def to_report(self) -> dict:
        return {
            "solvable": self.solvable,
            "obstruction": self.obstruction,
            "diagonal": list(self.diagonal),
            "witness": list(self.witness) if self.witness else None,
        }


def local_solvability(quadric: RationalQuadricForm) -> LocalSolvability:
    """Exact isotropy of a nondegenerate rank-4 quadratic form over Q.

    Diagonalizes by congruence, reduces the diagonal to squarefree integers
    (neither step changes isotropy), and applies the rank-4 criterion place
    by place: the real place first, then 2, then the odd primes of the
    diagonal entries.  At a finite place the form is anisotropic exactly when
    its discriminant is a square and the Hasse invariant disagrees with
    (-1,-1)_p.  When every place passes, the form is isotropic over Q.  An
    explicit witness vector is searched, with bounded height, only when
    ``witness`` is first read.
    """
    diag = quadric.squarefree_diagonal
    if any(d == 0 for d in diag):
        raise InvalidInput("the quadratic form is singular")
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return LocalSolvability(False, "real", diag, quadric)
    disc = diag[0] * diag[1] * diag[2] * diag[3]
    for p in (2,) + quadric.odd_primes:
        if not _is_padic_square(disc, p):
            continue
        hasse = 1
        for i in range(4):
            for j in range(i + 1, 4):
                hasse *= hilbert_symbol(diag[i], diag[j], p)
        if hasse != hilbert_symbol(-1, -1, p):
            return LocalSolvability(False, p, diag, quadric)
    return LocalSolvability(True, None, diag, quadric)


def _height_layer(h: int) -> np.ndarray:
    """The primitive vectors of Z^4 of height h: fewest nonzero entries first, then lexicographic."""
    r = np.arange(-h, h + 1, dtype=np.int64)
    v = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
    v = v[(np.abs(v).max(axis=1) == h) & (np.gcd.reduce(v, axis=1) == 1)]
    return v[np.argsort(np.count_nonzero(v, axis=1), kind="stable")]


def _isotropic_vector(quadric: RationalQuadricForm, height: int) -> tuple[int, ...] | None:
    """Bounded deterministic search for q(v) = 0, sparse low-height vectors first.

    Each height layer is tested against the integer Gram matrix with one
    product, in int64 when |v^T G v| <= 16 h^2 max|G| cannot overflow it and
    in Python integers otherwise.  The first zero is returned with its first
    nonzero entry made positive.
    """
    gram = quadric.gram
    dtype = np.int64 if 16 * height**2 * max(abs(x) for row in gram for x in row) < 2**63 else object
    G = np.array(gram, dtype=dtype)
    for h in range(1, height + 1):
        layer = _height_layer(h).astype(dtype)
        zeros = np.flatnonzero(((layer @ G) * layer).sum(axis=1) == 0)
        if zeros.size:
            v = tuple(int(x) for x in layer[zeros[0]])
            k = next(i for i in range(4) if v[i])
            return tuple(-x for x in v) if v[k] < 0 else v
    return None


def _residue_solution_count(diagonal, mod: int) -> int:
    """#{v in (Z/mod)^4 : sum d_i v_i^2 = 0 mod mod}, by exhaustive counting.

    Each coordinate contributes a histogram of the residues of d*v^2 over all
    v mod `mod`; the cyclic convolution of the four histograms counts every
    residue vector exactly, evaluated at residue 0.
    """
    vals = np.arange(mod, dtype=np.int64)
    acc = np.zeros(mod, dtype=np.int64)
    acc[0] = 1
    for d in diagonal:
        hist = np.bincount((int(d) % mod) * vals % mod * vals % mod, minlength=mod)
        full = np.convolve(acc, hist)
        folded = full[:mod].copy()
        folded[: full.size - mod] += full[mod:]
        acc = folded
    return int(acc[0])


def obstruction_confirmed_by_residues(diagonal, place) -> bool:
    """Independent recheck of a local obstruction, free of Hilbert symbols.

    For the real place this is definiteness of the signs.  For a finite p the
    squarefree diagonal form is anisotropic over Q_p exactly when no
    primitive vector solves q = 0 modulo p^3 (odd p) or 2^6: those exponents
    are the Hensel thresholds for a squarefree diagonal.  The count of
    primitive residue solutions is the count of all solutions minus the count
    of vectors divisible by p, which solve the congruence two p-powers down.
    """
    if place == "real":
        return all(d > 0 for d in diagonal) or all(d < 0 for d in diagonal)
    p = int(place)
    e = 6 if p == 2 else 3
    total = _residue_solution_count(diagonal, p**e)
    imprimitive = p**4 * _residue_solution_count(diagonal, p ** (e - 2))
    return total - imprimitive == 0


# ---------------------------------------------------------------------------
# the semidecision over Q
# ---------------------------------------------------------------------------

_STANDARD_PLANE_ROWS = ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))


def _normalize_rational_cubic(terms: dict, plane_rows) -> tuple[np.ndarray, list[list[Fraction]]]:
    """Rational cubic + plane -> integer cubic with the plane at {x0 = x1 = 0}.

    Returns the primitive integer coefficient vector of the transformed
    cubic on the ``monomial_exponents(5, 3)`` layout, Python integers in an
    ``object`` array, and the column matrix M of the coordinate change
    x = M*y (original coordinates from new ones).  The substitution runs on
    integers: the input is scaled by the lcm of its denominators and M by
    that of its entries, positive factors that the primitive cubic forgets.
    """
    index = _layout(5, 3)[0]
    given = np.zeros(len(index), dtype=object)
    for e, c in terms.items():
        if tuple(e) not in index:
            raise InvalidInput("the cubic needs exponent 5-tuples of total degree 3")
        given[index[tuple(e)]] = c
    rows = [[Fraction(v) for v in row] for row in plane_rows]
    if len(rows) != 3 or any(len(r) != 5 for r in rows):
        raise InvalidInput("the plane needs three spanning rows of length 5")
    if _fraction_rref(rows)[1] != 3:
        raise InvalidInput("the plane rows are not independent")

    # complete the plane rows to a basis with standard vectors, plane last
    basis: list[list[Fraction]] = []
    for candidate in [[Fraction(1 if j == i else 0) for j in range(5)] for i in range(5)]:
        if len(basis) == 2:
            break
        trial = rows + basis + [candidate]
        if _fraction_rref(trial)[1] == len(trial):
            basis.append(candidate)
    columns = [[basis[0][i], basis[1][i], rows[0][i], rows[1][i], rows[2][i]] for i in range(5)]

    given = [Fraction(c) for c in given]
    den = math.lcm(*(c.denominator for c in given))
    coeffs = np.array([int(c * den) for c in given], dtype=object)
    scale = math.lcm(*(v.denominator for row in columns for v in row))
    M = np.array([[int(v * scale) for v in row] for row in columns], dtype=object)
    coeffs = coeffs @ _substitution_matrix(M)
    if not np.count_nonzero(coeffs):
        raise InvalidInput("the cubic is identically zero")
    coeffs //= np.gcd.reduce(coeffs)
    exps = _layout(5, 3)[1]
    if np.count_nonzero(coeffs[exps[:, 0] + exps[:, 1] == 0]):
        raise InvalidInput("the cubic does not vanish on the plane")
    return coeffs, columns


def _substitution_matrix(M: np.ndarray) -> np.ndarray:
    """The matrix S with f(M y) = c @ S for every cubic f in five variables with coefficient vector c.

    Row m of S is the coefficient vector of the monomial m at x = M y, where
    row i of the 5 x 5 ``object`` array M is x_i as a linear form in y.  S is
    built one degree at a time, as ``_integer_monomials`` is: the monomial
    x_i m' is the form of m' times that linear form, whose y_j part lands at
    the positions ``_raised`` of y_j.
    """
    S = np.ones((1, 1), dtype=object)
    for d in (1, 2, 3):
        var, src = _monomial_steps(5, d)
        lower, S = S[src], np.zeros((len(var), len(var)), dtype=object)
        for j in range(5):
            S[:, _raised(5, d - 1, j)] += lower * M[var, j][:, None]
    return S


def _fraction_rref(rows) -> tuple[list[list[Fraction]], int]:
    """The reduced row echelon form of Fraction rows, and their rank."""
    M = [list(r) for r in rows]
    rk = 0
    for col in range(len(M[0])):
        piv = next((r for r in range(rk, len(M)) if M[r][col] != 0), None)
        if piv is None:
            continue
        M[rk], M[piv] = M[piv], M[rk]
        M[rk] = [a / M[rk][col] for a in M[rk]]
        for r in range(len(M)):
            if r != rk and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[rk])]
        rk += 1
    return M, rk


def _sorted_candidates(points) -> list:
    def keyfun(v):
        return (max(abs(x) for x in v), sum(1 for x in v if x < 0), v)

    return sorted(points, key=keyfun)


def _divisors(n: int) -> list[int]:
    """The positive divisors of the positive integer n."""
    out = [1]
    for p, e in _factor(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return out


def _vanishes_at(coeffs, num: int, den: int) -> bool:
    """Whether sum_i coeffs[i] t^i is zero at t = num/den, with den != 0.

    Integer Horner on den^deg times the value: no fraction is formed.
    """
    acc, scale = 0, 1
    for c in reversed(coeffs):
        acc = acc * num + c * scale
        scale *= den
    return acc == 0


def _rational_roots(coeffs) -> list[Fraction]:
    """The rational roots, sorted, of a nonzero integer polynomial sum_i coeffs[i] t^i.

    The root 0 is split off with the lowest power present; the rest is made
    primitive, and by the rational root theorem a root d/e in lowest terms
    has d dividing its constant term and e its leading coefficient.  Each
    such +-d/e is tested exactly.
    """
    powers = [k for k, c in enumerate(coeffs) if c]
    if not powers:
        raise InvalidInput("cannot list roots of the zero polynomial")
    low = min(powers)
    poly = [int(c) for c in coeffs[low : max(powers) + 1]]
    content = math.gcd(*poly)
    poly = [c // content for c in poly]
    out = {Fraction(0)} if low else set()
    for e in _divisors(abs(poly[-1])):
        for d in _divisors(abs(poly[0])):
            if math.gcd(d, e) == 1:
                out.update(Fraction(num, e) for num in (d, -d) if _vanishes_at(poly, num, e))
    return sorted(out)


def _quadratic_rational_roots(c0: int, c1: int, c2: int) -> set[Fraction]:
    """The rational roots of c2 w^2 + c1 w + c0, integers not all zero."""
    if c2 == 0:
        return {Fraction(-c0, c1)} if c1 else set()
    disc = c1 * c1 - 4 * c2 * c0
    root = math.isqrt(disc) if disc >= 0 else -1
    if root * root != disc:
        return set()
    return {Fraction(-c1 + root, 2 * c2), Fraction(-c1 - root, 2 * c2)}


def _resultant(f: np.ndarray, g: np.ndarray, elim: int) -> np.ndarray:
    """Res_w(f, g) of two ternary quadrics, w the coordinate ``elim``, as a binary form.

    A quadric's part at w^k is a binary form of degree 2 - k in the other
    two coordinates (in their order): a slice of its coefficient vector on
    the binary layout.  Each form is read as a polynomial in w to its actual
    degree: read to the formal degree 2, two conics through the unit point
    of w would have R = 0.  R is the ``_form_determinant`` of the Sylvester
    matrix, whose entries outside the band are None; it comes back on the
    binary layout of its degree, and a zero form gives R = 0.
    """
    powers = _layout(3, 2)[1][:, elim]

    def in_w(form):
        parts = [form[powers == k] for k in (2, 1, 0)]
        while parts and not np.count_nonzero(parts[0]):
            parts.pop(0)
        return parts

    a, b = in_w(f), in_w(g)
    if not a or not b:
        return np.zeros(1, dtype=object)
    return _form_determinant(_sylvester(a, b, None))


def _sylvester(a: list, b: list, zero) -> list[list]:
    """The Sylvester matrix of two polynomials with coefficient lists a and b, highest power first.

    a's rows come first; ``zero`` fills the entries outside the band.
    """
    m, n = len(a) - 1, len(b) - 1
    rows = [[zero] * i + a + [zero] * (n - 1 - i) for i in range(n)]
    return rows + [[zero] * i + b + [zero] * (m - 1 - i) for i in range(m)]


def _form_determinant(rows: list) -> np.ndarray:
    """The determinant of a square matrix of integer binary forms, as a binary form.

    An entry is a coefficient vector on the binary layout of its degree, or
    None for a zero with no degree; every term of the expansion must have
    one degree, as in a Sylvester matrix or the Gram matrix of the pencil.
    The expansion is by cofactors along the first row, with the product of
    two forms taken by ``np.convolve``.
    """
    if not rows:
        return np.ones(1, dtype=object)
    out = None
    for j, entry in enumerate(rows[0]):
        minor = None if entry is None else _form_determinant([row[:j] + row[j + 1 :] for row in rows[1:]])
        if minor is not None:
            term = np.convolve(entry, minor) * (-1) ** j
            out = term if out is None else out + term
    return out


def _integer_determinant(rows) -> int:
    """The determinant of a square integer matrix, by one fraction-free elimination.

    Bareiss's step (Math. Comp. 22, 1968) replaces each row r below the
    pivot row k by (p row_r - a_rk row_k) / p', p the pivot and p' the one
    before it: the division is exact, so every entry stays an integer.
    """
    M = [list(row) for row in rows]
    sign, prev = 1, 1
    for k in range(len(M) - 1):
        piv = next((r for r in range(k, len(M)) if M[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        p = M[k][k]
        for r in range(k + 1, len(M)):
            M[r] = [(p * x - M[r][k] * y) // prev for x, y in zip(M[r], M[k])]
        prev = p
    return sign * M[-1][-1]


def _nodes_by_resultant(coeffs: np.ndarray) -> list[tuple[int, int, int]]:
    """Rational points of {q0 = q1 = 0} in the plane, by elimination.

    q0 and q1 are the two restricted conics (the coefficients of x0 and x1 on
    the plane), slices of the cubic's vector on the ternary quadric layout.
    The resultant with respect to one plane coordinate w is a binary form R
    in the other two, (u, v); the eliminations run over z, y, x, and the
    first with R != 0 is used.  The rational roots (u : v) of R are those of
    R(u, 1), and (1 : 0) when R has no u^deg term.  At each, the conics
    become integer polynomials of degree at most 2 in w, and their shared
    rational roots are the roots of a nonzero one at which the other
    vanishes (a zero one shares every root; both zero is a line of singular
    points, nonreduced input, and gives nothing).  Together with the
    projection centre (the unit point of w), this is every candidate node;
    each is verified on both conics exactly.
    """
    exps = _layout(5, 3)[1]
    conics = [coeffs[(exps[:, 0] == i) & (exps[:, 1] == 1 - i)] for i in (1, 0)]
    for elim in (2, 1, 0):
        R = _resultant(*conics, elim)
        if not np.count_nonzero(R):
            continue
        keep = [i for i in range(3) if i != elim]
        roots = [(r.numerator, r.denominator) for r in _rational_roots(R[::-1])]
        if R[0] == 0:
            roots.append((1, 0))
        powers = _layout(3, 2)[1][:, elim]
        candidates = [[int(i == elim) for i in range(3)]]
        for u, v in roots:
            p0, p1 = ([int(_form_values(conic[powers == k], [[u, v]], 2 - k)[0]) for k in range(3)] for conic in conics)
            if not any(p0) and not any(p1):
                continue
            lead, other = (p0, p1) if any(p0) else (p1, p0)
            for w in _quadratic_rational_roots(*lead):
                if _vanishes_at(other, w.numerator, w.denominator):
                    coords = [0, 0, 0]
                    coords[keep[0]], coords[keep[1]], coords[elim] = u * w.denominator, v * w.denominator, w.numerator
                    candidates.append(coords)
        candidates = _primitive_rows(np.array(candidates, dtype=object))
        nodes = (_form_values(conics[0], candidates, 2) == 0) & (_form_values(conics[1], candidates, 2) == 0)
        return _sorted_candidates({tuple(v) for v in candidates[nodes].tolist()})
    raise InternalInconsistency(
        "every elimination resultant vanishes although disc(D) != 0 certified reduced nodes"
    )


def _integer_monomials(pts: np.ndarray, degree: int) -> np.ndarray:
    """The monomial matrix of an integer point array: one row per point, one column per monomial of the layout.

    Built one degree at a time in the dtype of the points; the entries are
    at most max|pts|^degree.  An integer form of this degree at the points
    is this matrix times its coefficient vector.
    """
    out = np.ones((len(pts), 1), dtype=pts.dtype)
    for d in range(1, degree + 1):
        var, src = _monomial_steps(pts.shape[1], d)
        out = out[:, src] * pts[:, var]
    return out


def _exact_dtype(bound: int):
    """int64 when every value is at most ``bound`` in absolute value, Python integers otherwise."""
    return np.int64 if bound < 2**63 else object


def _form_values(coeffs: np.ndarray, pts, degree: int) -> np.ndarray:
    """The integer form(s) with coefficient vector (or columns) ``coeffs`` at the integer rows of ``pts``, exactly.

    One product with the monomial matrix, in int64 when sum|c| max|x|^degree
    stays below 2^63 and in Python integers otherwise.
    """
    pts = np.array(pts, dtype=object)
    dtype = _exact_dtype(int(np.abs(coeffs).sum()) * int(np.abs(pts).max()) ** degree)
    return _integer_monomials(pts.astype(dtype), degree) @ coeffs.astype(dtype)


def _gradient_columns(coeffs: np.ndarray) -> np.ndarray:
    """The five partial derivatives of a cubic in five variables, as columns on the quadric layout.

    Column i holds (e_i + 1) c_(e + x_i) at each quadric monomial e.
    """
    exps = _layout(5, 2)[1].astype(np.int64)
    return np.column_stack([coeffs[_raised(5, 2, i)] * (exps[:, i] + 1) for i in range(5)])


def _primitive_rows(vecs: np.ndarray) -> np.ndarray:
    """Each nonzero integer row divided by its content, its first nonzero entry made positive."""
    vecs = vecs // np.gcd.reduce(vecs, axis=1)[:, None]
    lead = vecs[np.arange(len(vecs)), np.argmax(vecs != 0, axis=1)]
    vecs[lead < 0] *= -1
    return vecs


_POINT_CAP = 2500


def _points_on_cubic(coeffs: np.ndarray, bound: int):
    """Primitive integer points of the cubic off the plane, coordinates <= bound.

    The normalized cubic has degree at most 2 in x4 (every monomial carries
    x0 or x1), so the search sweeps (x0..x3), one x0 slice at a time, and
    solves the residual quadratic A x4^2 + B x4 + C in x4 exactly.  The
    cubic's part at x4^k is a slice of its vector, on the layout of degree
    3 - k in (x0..x3).  A, B and C of a slice are one product each: the
    monomial matrix of the points (1, x1, x2, x3), built once, times that
    part with the slice's powers of x0 folded in, which is the slice's own
    monomial matrix times the part.  The values run in int64 while
    |B^2 - 4AC| <= (sum|c|)^2 * 5 bound^4 stays below 2^63 and in Python
    integers past it; a discriminant is tested for a square by the float
    square root below 2^53 and by ``math.isqrt`` above.  A base point whose
    whole x4-line lies on the cubic (A = B = C = 0) gives no point: that
    line meets the plane at (0:0:0:0:1), so it is no witness, and its
    points stay out of the sweep.  Only the first ``_POINT_CAP`` points in
    height order are kept; the returned flag says whether any were dropped.
    """
    e4 = _layout(5, 3)[1][:, 4]
    worst = int(np.abs(coeffs).sum()) ** 2 * 5 * bound**4
    dtype = _exact_dtype(worst)

    side = np.arange(-bound, bound + 1, dtype=np.int64)
    rest = np.stack(np.meshgrid(side, side, side, indexing="ij"), axis=-1).reshape(-1, 3)
    pts = np.column_stack([np.ones(len(rest), dtype=np.int64), rest])
    # the column of the monomial x0^k m at x0 = s is s^k times that at x0 = 1
    parts = []
    for d in (1, 2, 3):
        x0_powers = _layout(4, d)[1][:, 0].astype(np.int64)
        parts.append((_integer_monomials(pts, d), coeffs[e4 == 3 - d].astype(dtype), x0_powers))
    found = []
    for x0 in range(-bound, bound + 1):
        pts[:, 0] = x0
        A, B, C = (monomials @ (part * x0**powers) for monomials, part, powers in parts)
        off_plane = (pts[:, 0] != 0) | (pts[:, 1] != 0)

        disc = B * B - 4 * A * C
        quad = np.flatnonzero(off_plane & (A != 0) & (disc >= 0))
        if worst < 2**53:
            root = np.round(np.sqrt(disc[quad].astype(np.float64))).astype(np.int64)
        else:
            root = np.array([math.isqrt(int(v)) for v in disc[quad]], dtype=dtype)
        square = root * root == disc[quad]
        quad, root = quad[square], root[square]
        scaled = 2 * A[quad, None] * pts[quad]
        found += [np.column_stack([scaled, -B[quad] + sgn * root]) for sgn in (1, -1)]
        lin = np.flatnonzero(off_plane & (A == 0) & (B != 0))
        found.append(np.column_stack([B[lin, None] * pts[lin], -C[lin]]))

    points = _primitive_rows(np.concatenate(found).astype(dtype))
    points = points[np.abs(points).max(axis=1) <= bound].astype(np.int64)
    # the key of _sorted_candidates: height, count of negative entries, the
    # vector itself; equal points end up adjacent, and the repeats are dropped
    # (np.unique(axis=0) would import numpy.ma, about 1.5 MB)
    keys = tuple(points.T[::-1]) + ((points < 0).sum(axis=1), np.abs(points).max(axis=1))
    points = points[np.lexsort(keys)]
    fresh = np.ones(len(points), dtype=bool)
    fresh[1:] = (points[1:] != points[:-1]).any(axis=1)
    ordered = points[fresh]
    return [tuple(v) for v in ordered[:_POINT_CAP].tolist()], len(ordered) > _POINT_CAP


# entries of one block of the pair test: 128 KiB of int64, under malloc's
# default mmap threshold.  A freed block above it raises the threshold, and
# blocks of 500k entries left about 1 MB more heap resident after a pass of
# the rational benchmark list; the pairs of 2500 points take as long.
_PAIR_BLOCK = 16_384


def _line_rows_rational(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The reduced primitive integer row pairs spanning the lines through the rows of a and b, which miss the plane.

    With a0 b1 - a1 b0 != 0 the echelon rows pivot in x0 and x1: b1 a - a1 b
    and a0 b - b0 a, each made primitive.  Returns an (n, 2, 5) array.
    """
    first = _primitive_rows(b[:, 1:2] * a - a[:, 1:2] * b)
    second = _primitive_rows(a[:, 0:1] * b - b[:, 0:1] * a)
    return np.stack([first, second], axis=1)


def _disjoint_lines_from_pairs(coeffs: np.ndarray, pts):
    """Lines on the cubic through point pairs, disjoint from the plane.

    For a and b on the cubic, f(a + t b) = t grad f(a).b + t^2 grad f(b).a,
    so the line through them lies on the cubic iff both gradient pairings
    vanish: the pair test of the chart over F_q.  The gradient is evaluated
    once at the points, and a block of rows is two integer products with the
    points from its first row on (pairs i < j are kept), in int64 while
    |grad f(a).b| <= 15 sum|c| max|a|^3 stays below 2^63.  The line misses
    the plane iff the 2x2 minor of the first two coordinates is invertible.
    """
    if not pts:
        return []
    arr = np.array(pts, dtype=np.int64)
    n = len(arr)
    dtype = _exact_dtype(15 * int(np.abs(coeffs).sum()) * int(np.abs(arr).max()) ** 3)
    grad = _integer_monomials(arr, 2) @ _gradient_columns(coeffs).astype(dtype)
    chunk = max(1, _PAIR_BLOCK // n)
    pairs = []
    for lo in range(0, n, chunk):
        on_cubic = grad[lo : lo + chunk] @ arr[lo:].T == 0
        on_cubic &= arr[lo : lo + chunk] @ grad[lo:].T == 0
        i, j = np.nonzero(on_cubic)
        pairs.append(np.column_stack([lo + i, lo + j]))
    i, j = np.concatenate(pairs).T
    a, b = arr[i], arr[j]
    keep = (i < j) & (a[:, 0] * b[:, 1] != a[:, 1] * b[:, 0])
    rows = _line_rows_rational(a[keep], b[keep]).tolist()
    return list(dict.fromkeys(tuple(tuple(row) for row in pair) for pair in rows))


def _pencil_gram(coeffs: np.ndarray) -> np.ndarray:
    """The Gram matrices 4 R_{s,t} = 2(U + U^T) of the pencil as one table of Python integers:
    [i, j, a, b] is the coefficient of s^a t^b in entry (i, j), for U the
    upper triangle ``pencil.family_upper`` places the cubic's terms in."""
    upper = family_upper(coeffs, 2)
    return 2 * (upper + upper.swapaxes(0, 1))


def _pencil_member_form(gram: np.ndarray, s: int, t: int) -> RationalQuadricForm:
    """The residual quadric R_{s,t} in (u, x2, x3, x4), with Gram matrix 4 R (scale 2):
    the pencil's table ``gram`` (:func:`_pencil_gram`) at (s, t)."""
    powers = np.array([[s**e, t**e] for e in range(4)], dtype=object)
    matrix = gram.dot(powers[:, 1]).dot(powers[:, 0])
    return RationalQuadricForm(tuple(map(tuple, matrix.tolist())), 2)


def _pencil_discriminant(gram: np.ndarray) -> np.ndarray:
    """The discriminant sextic D(s, t) = det 4 R_{s,t} of the pencil, on the binary layout of degree 6.

    The pencil's table ``gram`` (:func:`_pencil_gram`) as a matrix of binary
    forms: entry (0, 0) has degree 3, the rest of row and column 0 degree 2,
    and the other entries degree 1, and the coefficient of s^(d - b) t^b of
    an entry of degree d is at position b of its layout.  D is their
    ``_form_determinant``, not made primitive.
    """

    def entry(r: int, k: int) -> np.ndarray:
        b = np.arange(4 - (r > 0) - (k > 0))
        return gram[r, k, b[-1] - b, b]

    return _form_determinant([[entry(r, k) for k in range(4)] for r in range(4)])


def _sextic_discriminant(D: np.ndarray) -> int:
    """disc(D) = -Res(D_s, D_t) / 6^4 of an integer binary sextic on the binary layout.

    Zero exactly when D has a repeated root in P^1 over the algebraic
    closure, or is zero.  The partials are read at the formal degree 5, so a
    double root at (1 : 0), where both lose their s^5 term, gives zero too.
    The resultant is the ``_integer_determinant`` of their 10 x 10 Sylvester
    matrix, and Res(F_s, F_t) = (-1)^(n(n-1)/2) n^(n-2) disc(F) for a binary
    form of degree n, disc the universal polynomial in the coefficients.  The
    division is needed: in characteristic 2 and 3, Euler's identity
    s D_s + t D_t = 6 D makes the partials share a root, so 6^4 divides every
    resultant, and only the quotient reduces to the discriminant modulo 3.
    """
    ds = [(6 - k) * D[k] for k in range(6)]
    dt = [k * D[k] for k in range(1, 7)]
    disc, rest = divmod(-_integer_determinant(_sylvester(ds, dt, 0)), 6**4)
    if rest:
        raise InternalInconsistency("the resultant of the partials of D is not divisible by 6^4")
    return disc


def _good_prime(gram: np.ndarray) -> int:
    """The least odd prime p that does not divide disc(D): the generality certificate over Q.

    D is ``_pencil_discriminant`` of the pencil's table ``gram``, and the threefold
    is general when D is reduced, that is when disc(D) != 0; otherwise this
    raises NotGeneral.  Modulo p the discriminant of D is disc(D) mod p, so
    p is the least odd prime modulo which D stays reduced.
    """
    disc = _sextic_discriminant(_pencil_discriminant(gram))
    if disc == 0:
        raise NotGeneral("the rationality criterion requires a reduced discriminant sextic: disc(D) = 0")
    return next(p for p in itertools.count(3, 2) if disc % p and _is_prime(p))


def _pencil_members(bound: int):
    for h in range(1, bound + 1):
        layer = [
            (s, t)
            for s, t in itertools.product(range(-h, h + 1), repeat=2)
            if max(abs(s), abs(t)) == h and math.gcd(s, t) == 1
        ]
        for s, t in sorted(layer):
            lead = s if s else t
            if lead > 0:
                yield s, t


def decide_over_rationals(cubic_terms, plane_rows=_STANDARD_PLANE_ROWS, height_bound: int = 20) -> RationalityVerdict:
    """Height-bounded semidecision of rationality over Q.

    The searches run in a fixed priority order (so the outcome is
    deterministic even though they are logically independent): rational
    nodes by conic elimination, rational lines disjoint from the plane
    through low-height point pairs, then the pencil scan for a member that
    fails local solvability, which certifies irrationality.  Every witness is
    re-verified by direct evaluation and every obstruction is recomputed by
    exhaustive residue search before the verdict is emitted.  When all
    searches exhaust their bounds the honest answer is Unknown.

    ``height_bound`` must be an int >= 0 (a bool is not one); anything else
    raises InvalidInput before any search.
    """
    if isinstance(height_bound, bool) or not isinstance(height_bound, int) or height_bound < 0:
        raise InvalidInput(f"the height bound must be an integer >= 0, not {height_bound!r}")
    coeffs, columns = _normalize_rational_cubic(dict(cubic_terms), plane_rows)
    gram = _pencil_gram(coeffs)
    bounds = {"height_bound": height_bound, "good_prime": _good_prime(gram)}

    # (a) rational nodes
    for node in _nodes_by_resultant(coeffs):
        amb = (0, 0) + node
        if _form_values(coeffs, [amb], 3)[0] != 0 or np.count_nonzero(_form_values(_gradient_columns(coeffs), [amb], 2)):
            raise InternalInconsistency("a node candidate is not a singular point of the cubic")
        mapped = [sum(columns[i][j] * amb[j] for j in range(5)) for i in range(5)]
        den = math.lcm(*(Fraction(v).denominator for v in mapped))
        original = _primitive_rows(np.array([[int(Fraction(v) * den) for v in mapped]], dtype=object))[0]
        witness = {
            "type": "node",
            "point": original.tolist(),
            "normalized_point": [int(v) for v in amb],
        }
        return RationalityVerdict("Rational", witness=witness, bounds=bounds)

    # (b) rational lines disjoint from the plane
    pts, capped = _points_on_cubic(coeffs, height_bound)
    bounds["points_found"] = len(pts)
    bounds["points_capped"] = capped
    for rows in _disjoint_lines_from_pairs(coeffs, pts):
        a, b = np.array(rows, dtype=object)
        if np.count_nonzero(_form_values(coeffs, [a, b, a + b, a - b], 3)):
            raise InternalInconsistency("a line candidate does not lie on the cubic")
        witness = {
            "type": "line_disjoint_from_plane",
            "rows": [[int(v) for v in row] for row in rows],
        }
        return RationalityVerdict("Rational", witness=witness, bounds=bounds)

    # (c) pencil members without local points
    scanned = 0
    for s, t in _pencil_members(height_bound):
        scanned += 1
        form = _pencil_member_form(gram, s, t)
        if 0 in form.diagonalization[0]:
            continue
        verdict = local_solvability(form)
        if verdict.solvable:
            continue
        if not obstruction_confirmed_by_residues(verdict.diagonal, verdict.obstruction):
            raise InternalInconsistency(
                "the Hilbert-symbol obstruction failed the independent residue recheck"
            )
        certificate = {
            "pencil_member": [s, t],
            "place": verdict.obstruction,
            "diagonal": list(verdict.diagonal),
        }
        bounds["pencil_members_scanned"] = scanned
        return RationalityVerdict("Irrational", certificate=certificate, bounds=bounds)

    bounds["pencil_members_scanned"] = scanned
    return RationalityVerdict("Unknown", bounds=bounds)
