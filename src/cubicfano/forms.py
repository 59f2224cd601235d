"""Multivariate homogeneous forms and binary forms with exact table arithmetic.

A :class:`HomogeneousForm` is a sparse dict mapping exponent tuples to nonzero
coefficient codes; a :class:`BinaryForm` of degree d stores the d+1
coefficients of s^(d-i) t^i.  Both are immutable in practice: every operation
returns a fresh object.

A form that comes out of a product, a substitution or a determinant is built
one way: :func:`interpolate` from its values at :func:`interpolation_points`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from . import kernels
from .errors import InternalInconsistency, InvalidInput
from .gf import GF
from .linalg import det, inverse_matrix, mat_mul, mat_vec, rref

# ---------------------------------------------------------------------------
# sparse exponent-dict addition
# ---------------------------------------------------------------------------


def _dict_add(K: GF, A: dict, B: dict) -> dict:
    out = dict(A)
    for e, c in B.items():
        s = K.add_(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


class HomogeneousForm:
    """Homogeneous polynomial of fixed degree in ``nvars`` variables."""

    __slots__ = ("K", "nvars", "degree", "terms", "_packed")

    def __init__(self, K: GF, nvars: int, degree: int, terms: dict):
        clean: dict = {}
        for e, c in terms.items():
            e = tuple(map(int, e))
            if len(e) != nvars:
                raise InvalidInput(f"exponent {e} has arity {len(e)}, expected {nvars}")
            if min(e, default=0) < 0 or sum(e) != degree:
                raise ValueError(f"exponent {e} is not of total degree {degree}")
            c = int(c)
            if not 0 <= c < K.q:
                raise ValueError(f"coefficient code {c} outside field of order {K.q}")
            if c:
                clean[e] = c
        self.K = K
        self.nvars = nvars
        self.degree = degree
        self.terms = clean
        self._packed = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, K: GF, nvars: int, degree: int) -> "HomogeneousForm":
        return cls(K, nvars, degree, {})

    @classmethod
    def monomial(cls, K: GF, nvars: int, exps, coeff: int = 1) -> "HomogeneousForm":
        exps = tuple(exps)
        return cls(K, nvars, sum(exps), {exps: coeff})

    @classmethod
    def linear(cls, K: GF, coeffs) -> "HomogeneousForm":
        coeffs = list(coeffs)
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            if c:
                terms[tuple(1 if j == i else 0 for j in range(n))] = int(c)
        return cls(K, n, 1, terms)

    # -- basics ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousForm)
            and self.K is other.K
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash(((self.K.p, self.K.k), self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"HomogeneousForm(deg {self.degree} in {self.nvars} vars, {len(self.terms)} terms over {self.K!r})"

    def coefficient(self, exps) -> int:
        return self.terms.get(tuple(exps), 0)

    def embedded(self, L) -> "HomogeneousForm":
        """The same form with coefficients pushed into the extension field L."""
        if L is self.K:
            return self
        lifted = self.K.lift(tuple(self.terms.values()), L)
        return HomogeneousForm(L, self.nvars, self.degree, dict(zip(self.terms, lifted)))

    # -- ring operations ------------------------------------------------------

    def plus(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if (self.degree, self.nvars) != (other.degree, other.nvars):
            raise ValueError(
                f"cannot add a degree {other.degree} form in {other.nvars} variables"
                f" to a degree {self.degree} form in {self.nvars}"
            )
        return HomogeneousForm(self.K, self.nvars, self.degree, _dict_add(self.K, self.terms, other.terms))

    def scaled(self, c: int) -> "HomogeneousForm":
        if c == 0:
            return HomogeneousForm.zero(self.K, self.nvars, self.degree)
        return HomogeneousForm(self.K, self.nvars, self.degree, {e: self.K.mul_(v, c) for e, v in self.terms.items()})

    def times(self, other: "HomogeneousForm") -> "HomogeneousForm":
        """The product, interpolated from the products of the two forms' values."""
        if self.nvars != other.nvars:
            raise InvalidInput(f"cannot multiply forms in {self.nvars} and {other.nvars} variables")
        degree = self.degree + other.degree
        L, pts = interpolation_points(self.K, self.nvars, degree)
        values = L.mul[self.embedded(L).evaluate_batch(pts), other.embedded(L).evaluate_batch(pts)]
        return interpolate(self.K, self.nvars, degree, values)

    def derivative(self, i: int) -> "HomogeneousForm":
        out = {}
        K = self.K
        for e, c in self.terms.items():
            if e[i]:
                scaled = K.mul_(c, e[i] % K.p)
                if scaled:
                    out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = scaled
        return HomogeneousForm(K, self.nvars, self.degree - 1, out)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point) -> int:
        point = tuple(int(x) for x in point)
        if len(point) != self.nvars:
            raise InvalidInput(f"point has {len(point)} coordinates, form has {self.nvars} variables")
        K = self.K
        total = 0
        for e, c in self.terms.items():
            term = c
            for x, exp in zip(point, e):
                if exp:
                    term = K.mul_(term, K.pow_(x, exp))
            total = K.add_(total, term)
        return total

    def _pack(self):
        if self._packed is None:
            items = sorted(self.terms.items())
            exps = np.array([e for e, _ in items], dtype=np.uint8).reshape(len(items), self.nvars)
            coeffs = np.array([c for _, c in items], dtype=np.uint16)
            self._packed = (exps, coeffs, kernels.digit_width(len(items), self.K.p, self.K.k))
        return self._packed

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Values at many points; points is (N, nvars) of codes.

        One call of ``kernels.eval_form_batch``, the package's only batch
        evaluator, on the packed terms and the field's log and digit tables.
        """
        points = np.ascontiguousarray(points, dtype=np.uint16)
        if points.shape[1] != self.nvars:
            raise InvalidInput(f"points have {points.shape[1]} coordinates, form has {self.nvars} variables")
        if self.is_zero:
            return np.zeros(points.shape[0], dtype=np.uint16)
        exps, coeffs, width = self._pack()
        return kernels.eval_form_batch(self.K, self.degree, width, exps, coeffs, points)

    def symmetric_matrix(self) -> np.ndarray:
        """The symmetric matrix M of a quadratic form, f(x) = x^T M x (char != 2)."""
        if self.degree != 2:
            raise ValueError("only a quadratic form has a symmetric matrix")
        K = self.K
        M = np.zeros((self.nvars, self.nvars), dtype=np.int64)
        half = K.inverse(2 % K.p)
        for e, c in self.terms.items():
            i, j = [i for i, v in enumerate(e) for _ in range(v)]
            if i == j:
                M[i, i] = c
            else:
                M[i, j] = M[j, i] = K.mul_(c, half)
        return M

    def gradient(self, point) -> list[int]:
        return [self.derivative(i).evaluate(point) for i in range(self.nvars)]

    # -- substitution ---------------------------------------------------------

    def substitute(self, M) -> "HomogeneousForm":
        """The form f(M y) in the y variables; M has shape (nvars, m).

        Interpolated from the values of f at the images M y of the points
        ``interpolation_points(K, m, degree)``.
        """
        M = np.array(M, dtype=np.int64)
        if M.shape[0] != self.nvars:
            raise InvalidInput(f"substitution matrix has {M.shape[0]} rows, form has {self.nvars} variables")
        m = M.shape[1]
        L, pts = interpolation_points(self.K, m, self.degree)
        images = mat_mul(L, pts, self.K.lift(M, L).T)
        return interpolate(self.K, m, self.degree, self.embedded(L).evaluate_batch(images))

    def restrict(self, basis_rows) -> "HomogeneousForm":
        """Restriction to the subspace spanned by basis rows (r x nvars)."""
        B = np.array(basis_rows, dtype=np.int64)
        return self.substitute(B.T)


def monomial_exponents(nvars: int, degree: int):
    """All exponent tuples of the given total degree, lexicographic."""
    out = []
    for combo in combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return sorted(out, reverse=True)


def random_form(K: GF, nvars: int, degree: int, rng) -> HomogeneousForm:
    terms = {}
    for e in monomial_exponents(nvars, degree):
        c = K.random_element(rng)
        if c:
            terms[e] = c
    return HomogeneousForm(K, nvars, degree, terms)


def divide_by_linear(f: HomogeneousForm, ell) -> HomogeneousForm:
    """The exact quotient g with f = ell * g; ValueError when ell does not divide f.

    Works by an invertible change of coordinates that turns ell into a
    coordinate, where divisibility is visible monomial by monomial.
    """
    K = f.K
    ell = [int(x) for x in ell]
    if len(ell) != f.nvars:
        raise InvalidInput("linear form arity mismatch")
    try:
        i = next(j for j, c in enumerate(ell) if c)
    except StopIteration:
        raise ValueError("cannot divide by the zero form") from None
    C = np.eye(f.nvars, dtype=np.int64)
    C[i] = ell
    Cinv = inverse_matrix(K, C)
    in_y = f.substitute(Cinv)
    quot = {}
    for e, c in in_y.terms.items():
        if e[i] == 0:
            raise ValueError("form is not divisible by the given linear form")
        quot[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c
    g_y = HomogeneousForm(K, f.nvars, f.degree - 1, quot)
    return g_y.substitute(C)


# ---------------------------------------------------------------------------
# forms from their values
# ---------------------------------------------------------------------------


def _monomial_matrix(F: GF, exps, pts: np.ndarray) -> np.ndarray:
    """The monomials ``exps`` at each point of an (n, nvars) code array, as (n, len(exps)) codes."""
    return np.stack([HomogeneousForm(F, len(e), sum(e), {e: 1}).evaluate_batch(pts) for e in exps], axis=1)


@lru_cache(maxsize=None)
def _interpolation_basis(K: GF, nvars: int, degree: int):
    """(L, points, inverse, exponents) for the forms over K of this degree in nvars variables.

    :func:`_points_field_basis` over F = ``K.points_field(degree)``, shared
    by every K with that F, lifted into L, the larger of K and F.
    """
    F = K.points_field(degree)
    pts, inverse, exps = _points_field_basis(F, nvars, degree)
    L = F if F.q > K.q else K
    pts, inverse = F.lift(pts, L), F.lift(inverse, L)
    pts.flags.writeable = inverse.flags.writeable = False
    return L, pts, inverse, exps


@lru_cache(maxsize=None)
def _points_field_basis(F: GF, nvars: int, degree: int):
    """(points, inverse, exponents) over F, the points field of forms of this degree in nvars variables.

    The points are the first candidates, in ``projective_reps`` order, that
    raise the rank of the monomial matrix; the candidates are the points of
    P^(nvars-1)(F) with coordinates among F's first min(|F|, degree + 1)
    codes.  When |F| = degree, all of P^(nvars-1)(F), row reduction picks
    them.  When |F| > degree they are the points (1, y) whose codes add up
    to at most ``degree``: a form of the degree vanishing on the candidates
    (1, s_i, ...) for i < j is (x1 - s_0) ... (x1 - s_(j-1)) times one of
    degree ``degree - j``, so by induction on nvars the slice x1 = s_j adds
    the points whose later codes add up to at most ``degree - j``.  As many
    points as monomials, they pin the forms.  The inverse maps the values
    to the coefficients of the exponents (``monomial_exponents`` order).
    """
    exps = monomial_exponents(nvars, degree)
    if F.q > degree:
        tails = (t for t in product(range(degree + 1), repeat=nvars - 1) if sum(t) <= degree)
        pts = np.array([(1,) + t for t in tails], dtype=np.int64)
    else:
        reps = np.array(
            [(0,) * j + (1,) + t for j in range(nvars) for t in product(range(F.q), repeat=nvars - 1 - j)],
            dtype=np.int64,
        )
        _, chosen = rref(F, _monomial_matrix(F, exps, reps).T)
        if len(chosen) != len(exps):
            raise InternalInconsistency(f"the points of P^{nvars - 1}({F!r}) must pin the forms of degree {degree}")
        pts = reps[chosen]
    return pts, inverse_matrix(F, _monomial_matrix(F, exps, pts)), exps


def interpolation_points(K: GF, nvars: int, degree: int) -> tuple[GF, np.ndarray]:
    """(L, points): the (N, nvars) codes of L at which :func:`interpolate` takes the values of a form over K.

    L is K, or ``K.points_field(degree)`` when K is too small (F_3 from degree 4, F_5 from degree 6).
    """
    L, pts, _, _ = _interpolation_basis(K, nvars, degree)
    return L, pts


def interpolate(K: GF, nvars: int, degree: int, values) -> HomogeneousForm:
    """The form over K of this degree in nvars variables taking ``values`` (in L) at :func:`interpolation_points`.

    A coefficient outside K raises InternalInconsistency.
    """
    L, _, inverse, exps = _interpolation_basis(K, nvars, degree)
    coeffs = K.descend(mat_vec(L, inverse, values), L)
    return HomogeneousForm(K, nvars, degree, {e: c for e, c in zip(exps, coeffs.tolist()) if c})


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------


def _poly_trim(u: list[int]) -> list[int]:
    while u and u[-1] == 0:
        u.pop()
    return u


def _poly_divmod(K: GF, a: list[int], b: list[int]):
    a = list(a)
    b = _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = K.inverse(b[-1])
    quot = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = K.mul_(a[i + len(b) - 1], inv_lead)
        if c:
            quot[i] = c
            for j, bj in enumerate(b):
                a[i + j] = K.sub_(a[i + j], K.mul_(c, bj))
    return quot, _poly_trim(a)


def _poly_gcd_monic(K: GF, a: list[int], b: list[int]) -> list[int]:
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while b:
        _, r = _poly_divmod(K, a, b)
        a, b = b, r
    if a:
        inv = K.inverse(a[-1])
        a = [K.mul_(c, inv) for c in a]
    return a


def quadratic_roots(K: GF, q11, q12, q22) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The roots (b : g) of the binary quadratics q11 b^2 + q12 b g + q22 g^2, for stacks of codes.

    The quadratic formula, the square root of q12^2 - 4 q11 q22 read from
    ``K.sqrt_table``.  Returns (roots, mult, split): ``roots`` (..., 2, 2)
    as (1 : x) or (0 : 1), ordered as :meth:`BinaryForm.roots` orders them;
    ``mult`` (..., 2), a double root taking 2 in the first slot and 0 in the
    second; ``split`` whether the roots lie in K.  Where they do not, roots
    and mult are zero, and the coefficients lifted into ``K.extension(2)``
    give the conjugate pair.
    """
    q11, q12, q22 = np.broadcast_arrays(*(np.asarray(c, dtype=np.int64) for c in (q11, q12, q22)))
    if not ((q11 != 0) | (q12 != 0) | (q22 != 0)).all():
        raise ValueError("every point is a root of the zero form")
    d = K.sqrt_table[K.add[K.mul[q12, q12], K.neg[K.mul[4 % K.p, K.mul[q11, q22]]]]]
    split, d = d >= 0, np.maximum(d, 0)
    # a root (1 : x) as x and (0 : 1) as q: (-q12 +- d) / (2 q22), or
    # -q11 / q12 and (0 : 1) when q22 = 0, or (0 : 1) twice when q12 = 0 too
    quad, line = q22 != 0, (q22 == 0) & (q12 == 0)
    inv = K.inv[np.where(quad, K.mul[2 % K.p, q22], q12)]
    first = np.where(line, K.q, K.mul[np.where(quad, K.add[K.neg[q12], d], K.neg[q11]), inv])
    x = np.sort(np.stack([first, np.where(quad, K.mul[K.add[K.neg[q12], K.neg[d]], inv], K.q)], axis=-1))
    roots = np.stack([x < K.q, np.where(x < K.q, x, 1)], axis=-1) * split[..., None, None]
    double = x[..., 0] == x[..., 1]
    return roots, np.stack([1 + double, ~double], axis=-1) * split[..., None], split


class BinaryForm:
    """Homogeneous binary form; coeffs[i] is the coefficient of s^(d-i) t^i."""

    __slots__ = ("K", "degree", "coeffs")

    def __init__(self, K: GF, degree: int, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError(f"need {degree + 1} coefficients, got {len(coeffs)}")
        if any(not 0 <= c < K.q for c in coeffs):
            raise ValueError("coefficient code outside the field")
        self.K = K
        self.degree = degree
        self.coeffs = coeffs

    @classmethod
    def from_form(cls, f: HomogeneousForm) -> "BinaryForm":
        if f.nvars != 2:
            raise InvalidInput(f"a binary form has 2 variables, not {f.nvars}")
        coeffs = [0] * (f.degree + 1)
        for (e0, e1), c in f.terms.items():
            coeffs[e1] = c
        return cls(f.K, f.degree, coeffs)

    def to_form(self) -> HomogeneousForm:
        return HomogeneousForm(
            self.K, 2, self.degree, {(self.degree - i, i): c for i, c in enumerate(self.coeffs) if c}
        )

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BinaryForm)
            and self.K is other.K
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(((self.K.p, self.K.k), self.degree, self.coeffs))

    def __repr__(self) -> str:
        return f"BinaryForm(deg {self.degree}, coeffs {list(self.coeffs)} over {self.K!r})"

    def scaled(self, c: int) -> "BinaryForm":
        K = self.K
        return BinaryForm(K, self.degree, tuple(K.mul_(v, c) for v in self.coeffs))

    def times(self, other: "BinaryForm") -> "BinaryForm":
        K = self.K
        out = [0] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = K.add_(out[i + j], K.mul_(a, b))
        return BinaryForm(K, self.degree + other.degree, out)

    def derivative_s(self) -> "BinaryForm":
        K = self.K
        d = self.degree
        return BinaryForm(K, d - 1, [K.mul_(self.coeffs[i], (d - i) % K.p) for i in range(d)])

    def derivative_t(self) -> "BinaryForm":
        K = self.K
        d = self.degree
        return BinaryForm(K, d - 1, [K.mul_(self.coeffs[i + 1], (i + 1) % K.p) for i in range(d)])

    def gcd(self, other: "BinaryForm") -> "BinaryForm":
        """Monic gcd as a binary form (degree 0 form when coprime)."""
        K = self.K
        if self.is_zero:
            return other._monic()
        if other.is_zero:
            return self._monic()
        a_t, a_u = self._tmult_and_unit()
        b_t, b_u = other._tmult_and_unit()
        a_s = self.degree - a_t - (len(a_u) - 1)
        b_s = other.degree - b_t - (len(b_u) - 1)
        g = _poly_gcd_monic(K, a_u, b_u)
        ms, mt = min(a_s, b_s), min(a_t, b_t)
        deg = ms + mt + len(g) - 1
        coeffs = [0] * (deg + 1)
        for j, c in enumerate(g):
            coeffs[mt + j] = c
        return BinaryForm(K, deg, coeffs)

    def _tmult_and_unit(self):
        """(multiplicity of t, ascending unit cofactor with nonzero ends)."""
        lo = next(i for i, c in enumerate(self.coeffs) if c)
        hi = max(i for i, c in enumerate(self.coeffs) if c)
        return lo, list(self.coeffs[lo : hi + 1])

    def _monic(self) -> "BinaryForm":
        if self.is_zero:
            return self
        lead = next(c for c in reversed(self.coeffs) if c)
        return self.scaled(self.K.inverse(lead))

    def is_squarefree(self) -> bool:
        """No repeated roots over the algebraic closure (constant forms count)."""
        if self.is_zero:
            return False
        if self.degree == 0:
            return True
        g = self.gcd(self.derivative_s()).gcd(self.derivative_t())
        return g.degree == 0

    def roots(self, extension: int = 1):
        """Roots in P^1(F_{q^extension}) as ((s, t) big-field codes, multiplicity).

        Finite points come first ordered by t code, the point (0, 1) last.
        u = f(1, t) is evaluated at every code x of L = F_{q^extension} at
        once, by one Horner pass of gathers from L's addition and
        multiplication tables; a root's multiplicity is the number of times
        t - x divides u, by synthetic division.
        """
        if self.is_zero:
            raise ValueError("every point is a root of the zero form")
        K = self.K
        L = K.extension(extension)
        u = _poly_trim(list(K.lift(self.coeffs, L)))
        xs = np.arange(L.q)
        values = np.zeros(L.q, dtype=np.uint16)
        for c in reversed(u):
            values = L.add[L.mul[values, xs], c]
        out = []
        for x in np.flatnonzero(values == 0).tolist():
            mult, poly = 0, u
            while True:
                quot, rem = _poly_divmod(L, poly, [L.neg_(x), 1])
                if rem:
                    break
                mult, poly = mult + 1, quot
            out.append(((1, x), mult))
        inf_mult = self.degree - (len(u) - 1)
        if inf_mult:
            out.append(((0, 1), inf_mult))
        return out

    def resultant(self, other: "BinaryForm") -> int:
        """Sylvester resultant of the two binary forms, as an element code."""
        m, n = self.degree, other.degree
        size = m + n
        M = np.zeros((size, size), dtype=np.int64)
        for r in range(n):
            M[r, r : r + m + 1] = self.coeffs
        for r in range(m):
            M[n + r, r : r + n + 1] = other.coeffs
        return int(det(self.K, M))
