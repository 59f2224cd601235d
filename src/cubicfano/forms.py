"""Homogeneous forms over a finite field, in one coefficient layout.

A :class:`HomogeneousForm` of degree d in n variables stores one read-only
vector of coefficient codes, ``coeffs``, indexed by
``monomial_exponents(n, d)``.  In two variables position i holds the
coefficient of s^(d-i) t^i, so a binary form is a two-variable form, and
:meth:`~HomogeneousForm.roots`, :meth:`~HomogeneousForm.resultant` and
:meth:`~HomogeneousForm.is_squarefree` take only those.  Every operation
returns a fresh form.

Input from outside comes as a dict of exponent tuples, checked term by term.
The forms the package builds come from their coefficient vector
(:meth:`HomogeneousForm.from_coeffs`), checked by one range test.  A form
that comes out of a product, a substitution or a determinant is built one
way: :func:`interpolate` from its values at :func:`interpolation_points`.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement, product

import numpy as np

from . import kernels
from .errors import InternalInconsistency, InvalidInput
from .gf import GF
from .linalg import det, inverse_matrix, mat_mul, mat_vec, rref


@lru_cache(maxsize=None)
def monomial_exponents(nvars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """All exponent tuples of the given total degree, descending lexicographic: the coefficient layout.

    There are none of a negative degree, the degree of a constant's derivative.
    """
    out = []
    for combo in combinations_with_replacement(range(nvars), degree) if degree >= 0 else ():
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    return tuple(sorted(out, reverse=True))


@lru_cache(maxsize=None)
def _layout(nvars: int, degree: int) -> tuple[dict, np.ndarray]:
    """({exponent tuple: position}, the (T, nvars) uint8 exponent rows) of ``monomial_exponents``."""
    exps = monomial_exponents(nvars, degree)
    rows = np.array(exps, dtype=np.uint8).reshape(len(exps), nvars)
    rows.flags.writeable = False
    return {e: i for i, e in enumerate(exps)}, rows


@lru_cache(maxsize=None)
def _raised(nvars: int, degree: int, i: int) -> np.ndarray:
    """The positions in the layout of degree + 1 of x_i times each monomial of this degree."""
    index = _layout(nvars, degree + 1)[0]
    raised = [index[e[:i] + (e[i] + 1,) + e[i + 1 :]] for e in monomial_exponents(nvars, degree)]
    positions = np.array(raised, dtype=np.intp)
    positions.flags.writeable = False
    return positions


class HomogeneousForm:
    """Homogeneous polynomial of fixed degree in ``nvars`` variables."""

    __slots__ = ("K", "nvars", "degree", "coeffs", "_packed")

    def __init__(self, K: GF, nvars: int, degree: int, terms: dict):
        """The form with the {exponent tuple: code} ``terms``, each checked; absent terms are zero."""
        index = _layout(nvars, degree)[0]
        coeffs = np.zeros(len(index), dtype=np.int64)
        for e, c in terms.items():
            e = tuple(map(int, e))
            if len(e) != nvars:
                raise InvalidInput(f"exponent {e} has arity {len(e)}, expected {nvars}")
            if e not in index:
                raise InvalidInput(f"exponent {e} is not of total degree {degree}")
            c = int(c)
            if not 0 <= c < K.q:
                raise InvalidInput(f"coefficient code {c} outside field of order {K.q}")
            coeffs[index[e]] = c
        coeffs.flags.writeable = False
        self.K, self.nvars, self.degree, self.coeffs, self._packed = K, nvars, degree, coeffs, None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_coeffs(cls, K: GF, nvars: int, degree: int, coeffs) -> "HomogeneousForm":
        """The form whose coefficient of the i-th monomial of ``monomial_exponents(nvars, degree)`` is coeffs[i]."""
        coeffs = np.array(coeffs, dtype=np.int64)
        if coeffs.shape != (len(monomial_exponents(nvars, degree)),):
            raise InvalidInput(f"{coeffs.shape} coefficients for a degree {degree} form in {nvars} variables")
        if np.count_nonzero((coeffs < 0) | (coeffs >= K.q)):
            raise InvalidInput(f"a coefficient code outside field of order {K.q}")
        coeffs.flags.writeable = False
        form = cls.__new__(cls)
        form.K, form.nvars, form.degree, form.coeffs, form._packed = K, nvars, degree, coeffs, None
        return form

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
        return cls.from_coeffs(K, len(coeffs), 1, coeffs)

    # -- basics ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not np.count_nonzero(self.coeffs)

    @property
    def terms(self) -> dict:
        """The nonzero coefficients as {exponent tuple: code}, the dict the constructor takes."""
        return {e: c for e, c in zip(monomial_exponents(self.nvars, self.degree), self.coeffs.tolist()) if c}

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HomogeneousForm)
            and self.K is other.K
            and self.nvars == other.nvars
            and self.degree == other.degree
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash(((self.K.p, self.K.k), self.nvars, self.degree, self.coeffs.tobytes()))

    def __repr__(self) -> str:
        terms = np.count_nonzero(self.coeffs)
        return f"HomogeneousForm(deg {self.degree} in {self.nvars} vars, {terms} terms over {self.K!r})"

    def embedded(self, L) -> "HomogeneousForm":
        """The same form with coefficients pushed into the extension field L."""
        if L is self.K:
            return self
        return HomogeneousForm.from_coeffs(L, self.nvars, self.degree, self.K.lift(self.coeffs, L))

    # -- ring operations ------------------------------------------------------

    def plus(self, other: "HomogeneousForm") -> "HomogeneousForm":
        if (self.degree, self.nvars) != (other.degree, other.nvars):
            raise ValueError(
                f"cannot add a degree {other.degree} form in {other.nvars} variables"
                f" to a degree {self.degree} form in {self.nvars}"
            )
        return HomogeneousForm.from_coeffs(self.K, self.nvars, self.degree, self.K.add[self.coeffs, other.coeffs])

    def scaled(self, c: int) -> "HomogeneousForm":
        return HomogeneousForm.from_coeffs(self.K, self.nvars, self.degree, self.K.mul[self.coeffs, c])

    def times(self, other: "HomogeneousForm") -> "HomogeneousForm":
        """The product, interpolated from the products of the two forms' values."""
        if self.nvars != other.nvars:
            raise InvalidInput(f"cannot multiply forms in {self.nvars} and {other.nvars} variables")
        degree = self.degree + other.degree
        L, pts = interpolation_points(self.K, self.nvars, degree)
        values = L.mul[self.embedded(L).evaluate_batch(pts), other.embedded(L).evaluate_batch(pts)]
        return interpolate(self.K, self.nvars, degree, values)

    def derivative(self, i: int) -> "HomogeneousForm":
        """The partial derivative in x_i: each monomial e of degree - 1 takes (e_i + 1) c_(e + x_i)."""
        K, degree = self.K, self.degree - 1
        factors = (_layout(self.nvars, degree)[1][:, i].astype(np.int64) + 1) % K.p
        coeffs = K.mul[self.coeffs[_raised(self.nvars, degree, i)], factors]
        return HomogeneousForm.from_coeffs(K, self.nvars, degree, coeffs)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, point) -> int:
        """The value at one point: :meth:`evaluate_batch` on one row."""
        return int(self.evaluate_batch(np.asarray(point)[None])[0])

    def _pack(self):
        """(exponent rows, codes, digit width) of the nonzero terms, for the kernel."""
        if self._packed is None:
            nonzero = np.flatnonzero(self.coeffs)
            exps = _layout(self.nvars, self.degree)[1][nonzero]
            width = kernels.digit_width(len(nonzero), self.K.p, self.K.k)
            self._packed = (exps, self.coeffs[nonzero].astype(np.uint16), width)
        return self._packed

    def evaluate_batch(self, points) -> np.ndarray:
        """Values at many points; points is (N, nvars) of codes 0..q-1, anything else raises InvalidInput.

        One call of ``kernels.eval_form_batch``, the package's only
        evaluator, on the packed terms and the field's log and digit tables.
        """
        points = np.asarray(points)
        if points.ndim != 2 or points.shape[1] != self.nvars:
            raise InvalidInput(f"a point has {points.shape[-1]} coordinates, form has {self.nvars} variables")
        # a negative code wraps around to at least 65536 - q in the cast
        points = np.ascontiguousarray(points, dtype=np.uint16)
        if np.count_nonzero(points >= self.K.q):
            raise InvalidInput(f"a coordinate is not a code of {self.K!r}: codes run from 0 to {self.K.q - 1}")
        if self.is_zero:
            return np.zeros(points.shape[0], dtype=np.uint16)
        exps, coeffs, width = self._pack()
        return kernels.eval_form_batch(self.K, self.degree, width, exps, coeffs, points)

    def symmetric_matrix(self) -> np.ndarray:
        """The symmetric matrix M of a quadratic form, f(x) = x^T M x (char != 2)."""
        if self.degree != 2:
            raise ValueError("only a quadratic form has a symmetric matrix")
        K, rows = self.K, _layout(self.nvars, 2)[1]
        # the first and the last variable of each monomial x_i x_j
        i, j = rows.argmax(axis=1), self.nvars - 1 - rows[:, ::-1].argmax(axis=1)
        values = np.where(i == j, self.coeffs, K.mul[self.coeffs, K.inverse(2 % K.p)])
        M = np.zeros((self.nvars, self.nvars), dtype=np.int64)
        M[i, j] = M[j, i] = values
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

    # -- binary forms -----------------------------------------------------------

    def _require_binary(self) -> None:
        if self.nvars != 2:
            raise InvalidInput(f"a binary form has 2 variables, not {self.nvars}")

    def gcd(self, other: "HomogeneousForm") -> "HomogeneousForm":
        """Monic gcd of two binary forms (degree 0 form when coprime)."""
        self._require_binary()
        other._require_binary()
        if self.is_zero:
            return other._monic()
        if other.is_zero:
            return self._monic()
        a_t, a_u = self._tmult_and_unit()
        b_t, b_u = other._tmult_and_unit()
        a_s = self.degree - a_t - (len(a_u) - 1)
        b_s = other.degree - b_t - (len(b_u) - 1)
        g = _poly_gcd_monic(self.K, a_u, b_u)
        ms, mt = min(a_s, b_s), min(a_t, b_t)
        deg = ms + mt + len(g) - 1
        coeffs = np.zeros(deg + 1, dtype=np.int64)
        coeffs[mt : mt + len(g)] = g
        return HomogeneousForm.from_coeffs(self.K, 2, deg, coeffs)

    def _tmult_and_unit(self):
        """(multiplicity of t, ascending unit cofactor with nonzero ends)."""
        nonzero = np.flatnonzero(self.coeffs)
        return int(nonzero[0]), self.coeffs[nonzero[0] : nonzero[-1] + 1].tolist()

    def _monic(self) -> "HomogeneousForm":
        if self.is_zero:
            return self
        return self.scaled(self.K.inverse(int(self.coeffs[np.flatnonzero(self.coeffs)[-1]])))

    def is_squarefree(self) -> bool:
        """No repeated roots over the algebraic closure (constant forms count)."""
        self._require_binary()
        if self.is_zero:
            return False
        if self.degree == 0:
            return True
        return self.gcd(self.derivative(0)).gcd(self.derivative(1)).degree == 0

    def roots(self, extension: int = 1):
        """Roots of a binary form in P^1(F_{q^extension}) as ((s, t) big-field codes, multiplicity).

        Finite points come first ordered by t code, the point (0, 1) last.
        u = f(1, t) is evaluated at every code x of L = F_{q^extension} at
        once, by one Horner pass of gathers from L's addition and
        multiplication tables; a root's multiplicity is the number of times
        t - x divides u, by synthetic division.
        """
        self._require_binary()
        if self.is_zero:
            raise ValueError("every point is a root of the zero form")
        K = self.K
        L = K.extension(extension)
        u = _poly_trim(K.lift(self.coeffs, L).tolist())
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

    def resultant(self, other: "HomogeneousForm") -> int:
        """Sylvester resultant of two binary forms, as an element code."""
        self._require_binary()
        other._require_binary()
        m, n = self.degree, other.degree
        size = m + n
        M = np.zeros((size, size), dtype=np.int64)
        for r in range(n):
            M[r, r : r + m + 1] = self.coeffs
        for r in range(m):
            M[n + r, r : r + n + 1] = other.coeffs
        return int(det(self.K, M))


# perfbench/tracing.py times the root scan as ``forms.BinaryForm.roots``; the
# name goes when the benchmark's tracer names ``HomogeneousForm.roots``
BinaryForm = HomogeneousForm


def random_form(K: GF, nvars: int, degree: int, rng) -> HomogeneousForm:
    """A form with every coefficient drawn from rng, in ``monomial_exponents`` order."""
    coeffs = [K.random_element(rng) for _ in monomial_exponents(nvars, degree)]
    return HomogeneousForm.from_coeffs(K, nvars, degree, coeffs)


def divide_by_linear(f: HomogeneousForm, ell) -> HomogeneousForm:
    """The exact quotient g with f = ell * g; ValueError when ell does not divide f.

    Works by an invertible change of coordinates that turns ell into a
    coordinate y_i, where divisibility is visible monomial by monomial.
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
    in_y = f.substitute(inverse_matrix(K, C))
    if in_y.coeffs[_layout(f.nvars, f.degree)[1][:, i] == 0].any():
        raise ValueError("form is not divisible by the given linear form")
    quotient = in_y.coeffs[_raised(f.nvars, f.degree - 1, i)]
    return HomogeneousForm.from_coeffs(K, f.nvars, f.degree - 1, quotient).substitute(C)


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
    L, _, inverse, _ = _interpolation_basis(K, nvars, degree)
    return HomogeneousForm.from_coeffs(K, nvars, degree, K.descend(mat_vec(L, inverse, values), L))


# ---------------------------------------------------------------------------
# polynomial helpers of the binary forms
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
    as (1 : x) or (0 : 1), ordered as :meth:`HomogeneousForm.roots` orders
    them; ``mult`` (..., 2), a double root taking 2 in the first slot and 0
    in the second; ``split`` whether the roots lie in K.  Where they do not,
    roots and mult are zero, and the coefficients lifted into
    ``K.extension(2)`` give the conjugate pair.
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
