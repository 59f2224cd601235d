"""Slow reference implementations used as oracles by the test suite.

Everything here is deliberately naive: polynomial arithmetic on tuples and
on exponent dicts, a field's dense q x q addition and multiplication tables,
cofactor determinants, Fermat inverses, brute-force searches, symbolic
division, the group law acted out letter by letter
through dicts or searched word by word for every sum, the node search over Q through sympy's resultant, gcd
and factoring, the line search over Q by per-term grid loops and the
four values f(a), f(b), f(a + b), f(a - b), the diagonalization of a
quadratic form over Q on Fractions, generality over Q by the F_p pipeline
modulo 3, 5 and 7, the discriminant sextic over Q as sympy's
determinant of the symbolic Gram matrix, products of forms by
interpolation, the singular points of a fourfold by a scan of P^5, the
smooth conic of Z's pencil by one stacked determinant of the fiber blocks,
the quartic pulled back to that conic by interpolation, squarefreeness
of a binary form by the gcd with both partials, and the residual quadric
family of a threefold or a fourfold, member by member or as a matrix of
forms, one term of its quadrics at a time.
Tests compare the fast package code against these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import numpy as np
import sympy

from cubicfano.errors import (
    InternalInconsistency,
    InvalidInput,
    NeedsExtension,
    NotContained,
    NotGeneral,
    NotOnCubic,
    PlaneContained,
    ResampleRequired,
)
from cubicfano.fano import DISJOINT, MEETS_PLANE, TorsorPoint
from cubicfano.forms import HomogeneousForm, interpolate, interpolation_points
from cubicfano.gf import canonical_modulus, field
from cubicfano.linalg import det, inverse_matrix, kernel_basis, mat_mul, mat_vec, rank, rref, unit_complement
from cubicfano.pencil import (
    HyperellipticModel,
    RulingClass,
    count_points_C,
    pencil_fibers,
    rulings_of_fiber,
)
from cubicfano.projective import (
    LinearSubspace,
    ProjectiveLine,
    ProjectivePoint,
    Residual,
    all_points_array,
    binary_quadratic,
    common_zeros,
    enumerate_lines,
    linear_form_cutting_line_in_plane,
    normalize_point,
    projective_reps,
    span,
)
from cubicfano.rationality import _STANDARD_PLANE_ROWS, _fraction_rref, _sorted_candidates
from cubicfano.threefold import normalize
from cubicfano.torsor import DivisorWord, SignedTorsorPoint


def poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def poly_rem(num, den, p):
    num = list(num)
    d = len(den) - 1
    for i in range(len(num) - 1, d - 1, -1):
        c = num[i] % p
        if c:
            for j in range(d + 1):
                num[i - d + j] = (num[i - d + j] - c * den[j]) % p
    out = tuple(c % p for c in num[:d])
    return out


class RefField:
    """F_p[X]/(modulus) with dead-simple tuple arithmetic."""

    def __init__(self, p, modulus):
        self.p = p
        self.modulus = modulus
        self.k = len(modulus) - 1
        self.q = p**self.k

    def decode(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def encode(self, coeffs):
        code = 0
        for c in reversed(coeffs):
            code = code * self.p + c % self.p
        return code

    def add(self, a, b):
        u, v = self.decode(a), self.decode(b)
        return self.encode(tuple((x + y) % self.p for x, y in zip(u, v)))

    def mul(self, a, b):
        prod = poly_mul(self.decode(a), self.decode(b), self.p)
        return self.encode(poly_rem(prod, self.modulus, self.p))

    def pow(self, a, e):
        r = self.encode((1,) + (0,) * (self.k - 1))
        for _ in range(e):
            r = self.mul(r, a)
        return r

    def inverse(self, a):
        return self.pow(a, self.q - 2)

    def square_roots(self, a):
        return sorted(x for x in range(self.q) if self.mul(x, x) == a)


def dense_tables(p, k):
    """The dense q x q uint16 addition and multiplication tables of F_{p^k} on its canonical modulus.

    Independent of the field layer's own tables: addition digitwise mod p,
    multiplication through the discrete log of the smallest primitive code,
    whose powers are walked by polynomial arithmetic; both filled in row
    blocks.
    """
    R = RefField(p, canonical_modulus(p, k))
    q = R.q

    def powers(c):
        out = [1]
        while (nxt := R.mul(out[-1], c)) != 1:
            out.append(nxt)
        return out

    exp = np.array(next(pw for c in range(2, q) if len(pw := powers(c)) == q - 1), dtype=np.int64)
    log = np.zeros(q, dtype=np.int64)
    log[exp] = np.arange(q - 1)
    vecs = np.array([R.decode(c) for c in range(q)], dtype=np.int64)
    place = p ** np.arange(k)
    add = np.empty((q, q), dtype=np.uint16)
    mul = np.zeros((q, q), dtype=np.uint16)
    step = max(1, (1 << 18) // (q * k))
    for lo in range(0, q, step):
        add[lo : lo + step] = ((vecs[lo : lo + step, None, :] + vecs[None, :, :]) % p) @ place
        rows = np.arange(max(lo, 1), min(lo + step, q))
        mul[rows, 1:] = exp[(log[rows, None] + log[None, 1:]) % (q - 1)]
    return add, mul


def ref_irreducible(coeffs, p):
    """Monic polynomial irreducibility by trial division over all factors."""
    deg = len(coeffs) - 1
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = tuple(tail) + (1,)
            if not any(poly_rem(coeffs, den, p)):
                return False
    return True


def evaluate_form_naive(field, terms, point):
    """Sum of coeff * prod(x_i^e_i) using only scalar field ops."""
    total = 0
    for exponents, coeff in terms.items():
        term = coeff
        for x, e in zip(point, exponents):
            for _ in range(e):
                term = field.mul_(term, x)
        total = field.add_(total, term)
    return total


def eval_form_batch_by_tables(K, exps, coeffs, points):
    """A sparse form at many points, term by term through the field's arithmetic.

    Each factor is one ``K.mul`` and each term one ``K.add``: the evaluator
    the package used before its log and digit tables.
    """
    pows = np.stack([K.pow_vector(e) for e in range(int(exps.sum(axis=1).max(initial=0)) + 1)])
    n_points = points.shape[0]
    acc = np.zeros(n_points, dtype=np.uint16)
    for t in range(exps.shape[0]):
        term = np.full(n_points, coeffs[t], dtype=np.uint16)
        for i in range(exps.shape[1]):
            e = int(exps[t, i])
            if e:
                term = K.mul(term, pows[e, points[:, i]])
        acc = K.add(acc, term)
    return acc


def _dict_add(K, A, B):
    out = dict(A)
    for e, c in B.items():
        s = K.add_(out.get(e, 0), c)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _dict_mul(K, A, B):
    out = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = K.add_(out.get(e, 0), K.mul_(ca, cb))
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def times(f, g):
    """f * g, interpolated from the products of the two forms' values.

    The oracle of ``threefold.cubic_through_plane``, which places the
    quadrics' coefficients instead of multiplying.
    """
    if f.nvars != g.nvars:
        raise InvalidInput(f"cannot multiply forms in {f.nvars} and {g.nvars} variables")
    degree = f.degree + g.degree
    L, pts = interpolation_points(f.K, f.nvars, degree)
    values = L.mul(f.embedded(L).evaluate_batch(pts), g.embedded(L).evaluate_batch(pts))
    return interpolate(f.K, f.nvars, degree, values)


def times_by_dicts(f, g):
    """f * g, term by term."""
    return HomogeneousForm(f.K, f.nvars, f.degree + g.degree, _dict_mul(f.K, f.terms, g.terms))


def substitute_by_dicts(f, M):
    """f(M y), every term multiplied out as a product of linear forms in y."""
    K = f.K
    M = np.array(M, dtype=np.int64)
    m = M.shape[1]
    rows = [{tuple(int(t == j) for t in range(m)): int(M[i, j]) for j in range(m) if M[i, j]} for i in range(f.nvars)]
    out = {}
    for e, c in f.terms.items():
        term = {(0,) * m: c}
        for i, ei in enumerate(e):
            for _ in range(ei):
                term = _dict_mul(K, term, rows[i])
        out = _dict_add(K, out, term)
    return HomogeneousForm(K, m, f.degree, out)


def squarefree_by_partials(f):
    """Whether a binary form has no repeated root over the closure: gcd(f, f_s, f_t) is a constant.

    A constant form counts as squarefree, the zero form does not.
    """
    if f.is_zero:
        return False
    if f.degree == 0:
        return True
    return f.gcd(f.derivative(0)).gcd(f.derivative(1)).degree == 0


def divide_by_linear_by_dicts(f, ell):
    """The exact quotient by a linear form, ValueError when there is none.

    In coordinates where ell is the variable x_i, divisibility is visible
    monomial by monomial; both changes of coordinates are multiplied out.
    """
    K = f.K
    i = next(j for j, c in enumerate(ell) if c)
    C = np.eye(f.nvars, dtype=np.int64)
    C[i] = ell
    in_y = substitute_by_dicts(f, inverse_matrix(K, C))
    if any(e[i] == 0 for e in in_y.terms):
        raise ValueError("form is not divisible by the given linear form")
    quot = {e[:i] + (e[i] - 1,) + e[i + 1 :]: c for e, c in in_y.terms.items()}
    return substitute_by_dicts(HomogeneousForm(K, f.nvars, f.degree - 1, quot), C)


def det_form_matrix(K, nvars, rows):
    """The determinant of a square matrix of forms in nvars variables, by cofactor expansion.

    The matrix must be graded so that the determinant is homogeneous (checked).
    """

    def expand(rows):
        if len(rows) == 1:
            return rows[0][0].terms
        acc = {}
        for r, row in enumerate(rows):
            if row[0].terms:
                minor = expand([other[1:] for i, other in enumerate(rows) if i != r])
                prod = _dict_mul(K, row[0].terms, minor)
                if r % 2:
                    prod = {e: K.neg_(c) for e, c in prod.items()}
                acc = _dict_add(K, acc, prod)
        return acc

    terms = expand(rows)
    degrees = {sum(e) for e in terms}
    if len(degrees) > 1:
        raise InternalInconsistency("matrix grading did not produce a homogeneous determinant")
    degree = degrees.pop() if degrees else sum(rows[i][i].degree for i in range(len(rows)))
    return HomogeneousForm(K, nvars, degree, terms)


def zeros_by_scan(forms):
    """Common zeros of forms on P^n, by evaluating every point term by term.

    Every coordinate vector whose first nonzero entry is 1 is one point; the
    points come by pivot position, then lexicographically, the order of
    ``projective_reps``.
    """
    K, nvars = forms[0].K, forms[0].nvars
    points = [v for v in product(range(K.q), repeat=nvars) if any(v) and v[next(i for i, x in enumerate(v) if x)] == 1]
    points.sort(key=lambda v: next(i for i, x in enumerate(v) if x))
    return [v for v in points if all(evaluate_form_naive(K, f.terms, v) == 0 for f in forms)]


def binary_roots_by_scan(L, coeffs, degree):
    """Roots of the binary form sum coeffs[i] s^(degree-i) t^i over the field L.

    Tries every t in L at s = 1, with the multiplicity counted by repeated
    synthetic division by (t - x); the point (0, 1) comes last with the
    number of vanishing top coefficients.  Same output shape as
    ``HomogeneousForm.roots``.
    """
    u = list(coeffs)
    while u and u[-1] == 0:
        u.pop()
    out = []
    for x in range(L.q):
        poly, mult = u, 0
        while len(poly) > 1:
            # synthetic division of poly by (t - x), highest coefficient first
            quot = [poly[-1]]
            for c in reversed(poly[1:-1]):
                quot.append(L.add_(c, L.mul_(quot[-1], x)))
            if L.add_(poly[0], L.mul_(quot[-1], x)) != 0:
                break
            poly, mult = quot[::-1], mult + 1
        if mult:
            out.append(((1, x), mult))
    if degree > len(u) - 1:
        out.append(((0, 1), degree - (len(u) - 1)))
    return out


def jacobian_has_rank_two(L, q0, q1, point):
    """Whether the gradients of the forms q0, q1 (over L) are independent at point.

    The partial derivatives are taken term by term and evaluated with scalar
    field operations; rank 2 means some 2x2 minor of the 2 x n Jacobian is
    nonzero.
    """

    def gradient(form):
        out = []
        for i in range(len(point)):
            partial = {}
            for e, c in form.terms.items():
                if e[i] % L.p:
                    key = e[:i] + (e[i] - 1,) + e[i + 1 :]
                    partial[key] = L.add_(partial.get(key, 0), L.mul_(c, e[i] % L.p))
            out.append(evaluate_form_naive(L, partial, point))
        return out

    g0, g1 = gradient(q0), gradient(q1)
    n = len(point)
    return any(L.sub_(L.mul_(g0[i], g1[j]), L.mul_(g0[j], g1[i])) for i in range(n) for j in range(i + 1, n))


def Z_multiplicities_by_jacobian(points, transverse):
    """Multiplicities of points of a length-4 intersection of two conics, from the Jacobian.

    ``transverse[i]`` says whether the Jacobian has rank 2 at ``points[i]``;
    such a point has multiplicity 1.  The other points share the rest of the
    length 4: one point takes all of it, two take 2 each.  When some point is
    not transverse, the list must hold every geometric point.  Returns
    {point: multiplicity}.
    """
    others = [pt for pt, t in zip(points, transverse) if not t]
    rest = 4 - (len(points) - len(others))
    if others and not (len(others) == 1 and rest >= 2 or len(others) == 2 and rest == 4):
        raise InternalInconsistency("non-transverse points cannot share the rest of the length")
    return {pt: 1 if t else rest // len(others) for pt, t in zip(points, transverse)}


def smooth_member_by_stacked_det(nf):
    """(G, H), the members whose symmetric matrices ``threefold._smooth_member`` returns, or None.

    One stacked determinant of the blocks on u = 0 of the fiber matrices
    over every (s:t) of P^1(F_q), in ``projective_reps`` order; G is the
    member at the first nonzero one.
    """
    params = list(projective_reps(nf.K, 1))
    fibers = pencil_fibers(nf, nf.K, params)
    smooth = np.flatnonzero(det(nf.K, np.stack([fiber.matrix[1:, 1:] for fiber in fibers])))
    if not len(smooth):
        return None
    s, t = params[smooth[0]]
    q0, q1 = nf.restricted_conics
    return q0.scaled(s).plus(q1.scaled(t)), (q1 if s else q0)


def pullback_quartic_by_interpolation(K, G, H):
    """(H o phi, M) as ``threefold._pullback_quartic`` returns them, from the forms G and H, by interpolation.

    phi = M @ (u^2, u*v, v^2) from the first rational point y of G, and the
    quartic H o phi is interpolated from H's values at the images of five
    points of P^1 (over F_9 when q = 3).
    """
    y = next(common_zeros([G]))
    c1, c2 = np.eye(3, dtype=np.int64)[unit_complement(y)].tolist()
    g11, g12, g22 = binary_quadratic(G, c1, c2).coeffs.tolist()  # G(w)
    # 2*beta(y, c) = G(y + c) - G(c), as G(y) = 0
    shifted = [[K.add_(a, b) for a, b in zip(y, c)] for c in (c1, c2)]
    g = G.evaluate_batch(np.array([shifted[0], c1, shifted[1], c2])).tolist()
    l1, l2 = K.sub_(g[0], g[1]), K.sub_(g[2], g[3])
    M = np.array(
        [
            [
                K.sub_(K.mul_(l1, a), K.mul_(g11, yi)),
                K.sub_(K.add_(K.mul_(l1, b), K.mul_(l2, a)), K.mul_(g12, yi)),
                K.sub_(K.mul_(l2, b), K.mul_(g22, yi)),
            ]
            for yi, a, b in zip(y, c1, c2)
        ],
        dtype=np.int64,
    )
    L, uv = interpolation_points(K, 2, 4)
    u, v = uv.T
    squares = np.stack([L.mul(u, u), L.mul(u, v), L.mul(v, v)], axis=1)
    values = H.embedded(L).evaluate_batch(mat_mul(L, squares, K.lift(M, L).T))
    return interpolate(K, 2, 4, values), M


def plane_line_fiber_by_minors(L, q0, q1, rows, rulings):
    """(fiber, ruling index) of a line of P^2, from the minors of its two restricted conics.

    ``rows`` spans the line inside P (plane coordinates); ``rulings`` maps
    each pencil parameter (s:t) to its ruling classes over L.  The conics
    restrict to binary quadratics with coefficient vectors u and v, read off
    the values at a, b and a + b.  The line lies on the fiber quadric
    Q_{s,t} iff s*u + t*v = 0, so it lies in a fiber iff every 2 x 2 minor of
    (u, v) vanishes; the ruling index is that of the class listing the line.
    Returns (None, None) for a line in no fiber.
    """
    a, b = rows
    both = tuple(L.add_(x, y) for x, y in zip(a, b))

    def restricted(q):
        qa, qb = evaluate_form_naive(L, q.terms, a), evaluate_form_naive(L, q.terms, b)
        return qa, L.sub_(L.sub_(evaluate_form_naive(L, q.terms, both), qa), qb), qb

    u, v = restricted(q0), restricted(q1)
    if not any(u) and not any(v):
        raise InternalInconsistency("a line of P cannot lie in every fiber unless Z has a line")
    if any(L.sub_(L.mul_(u[i], v[j]), L.mul_(u[j], v[i])) for i, j in ((0, 1), (0, 2), (1, 2))):
        return None, None
    i = next(i for i in range(3) if u[i] or v[i])
    key = normalize_point(L, (v[i], L.neg_(u[i])))
    amb = tuple((0, 0) + tuple(row) for row in rows)
    for c in rulings[key]:
        if any(line.rows == amb for line in c.lines):
            return key, c.index
    raise InternalInconsistency("fiber containing a line of P does not list it among its rulings")


def proportionality(f, g):
    """Scalar c with f = c * g for two homogeneous forms, or None (zero forms give 1)."""
    if f.is_zero and g.is_zero:
        return 1
    if f.is_zero or g.is_zero or set(f.terms) != set(g.terms):
        return None
    K = f.K
    e0 = next(iter(f.terms))
    c = K.mul_(f.terms[e0], K.inverse(g.terms[e0]))
    if any(K.mul_(g.terms[e], c) != v for e, v in f.terms.items()):
        return None
    return c


def line_in_plane_from_linear_form(plane, ell):
    """The line of the plane cut out by a linear form in plane coordinates."""
    K = plane.K
    ker = kernel_basis(K, np.array([ell], dtype=np.int64))
    if ker.shape[0] != 2:
        raise InternalInconsistency("a nonzero ternary linear form cuts a line")
    return ProjectiveLine(K, mat_mul(K, ker, plane.matrix))


def residual_line_symbolic(cubic, plane, L, M):
    """The residual line of a plane section by symbolic algebra.

    Restricts the cubic to the plane and divides exactly by the linear forms
    of L and then M; same result and errors as ``residual_line``.
    """
    K = cubic.K
    if plane.dim != 2:
        raise ValueError("residual lines live in plane sections")
    section = substitute_by_dicts(cubic, plane.matrix.T)
    if section.is_zero:
        raise PlaneContained("plane lies entirely on the cubic")
    ell_L = linear_form_cutting_line_in_plane(plane, L)
    ell_M = linear_form_cutting_line_in_plane(plane, M)
    try:
        partial = divide_by_linear_by_dicts(section, ell_L)
    except ValueError as exc:
        raise NotOnCubic("first line is not on the cubic section") from exc
    try:
        residue = divide_by_linear_by_dicts(partial, ell_M)
    except ValueError as exc:
        raise NotOnCubic("second line is not on the cubic section") from exc
    ell_N = tuple(residue.terms.get(tuple(1 if j == i else 0 for j in range(3)), 0) for i in range(3))
    n_norm = normalize_point(K, ell_N)
    multiplicity = sum(1 for ell in (ell_L, ell_M, ell_N) if normalize_point(K, ell) == n_norm)
    return Residual(line_in_plane_from_linear_form(plane, ell_N), multiplicity)


def lines_on_fourfold(nx):
    """All F_q-rational lines on a normalized fourfold X, by sieving the
    Grassmannian of P^5.

    A binary cubic with q+1 >= 4 zeros vanishes identically, so a line lies
    on X exactly when all its rational points do.  Practical at q = 3.
    """
    zeros = set(common_zeros([nx.f]))
    return [
        line
        for line in enumerate_lines(nx.K, 5)
        if all(pt in zeros for pt in map(tuple, line.points_array().tolist()))
    ]



def disjoint_rows_by_diagonal_sieve(nf, lam=None):
    """The RREF row pairs ((1,0,a),(0,1,b)) of the lines on Y missing P, by a sieve.

    The sides are the tails a with f(1,0,a) = 0 and b with f(0,1,b) = 0 out
    of the whole cube L^3, kept inside the hyperplane lam . x = 0 when lam
    is given.  The line through (1,0,a) and (0,1,b) lies on Y iff the cubic
    also kills the diagonal points (1,1,a+b) and (1,-1,a-b), which every
    pair is tested on.
    """
    L, f = nf.K, nf.f
    cube = np.array(list(product(range(L.q), repeat=3)), dtype=np.int64)
    sides = []
    for head in ((1, 0), (0, 1)):
        pts = np.hstack([np.tile(head, (len(cube), 1)), cube])
        on = f.evaluate_batch(pts) == 0
        if lam is not None:
            on &= mat_vec(L, pts, lam) == 0
        sides.append(cube[on])
    a_side, b_side = sides
    if not len(a_side) or not len(b_side):
        return []
    a = np.repeat(a_side, len(b_side), axis=0)
    b = np.tile(b_side, (len(a_side), 1))
    ones = np.ones((len(a), 1), dtype=np.int64)
    plus = f.evaluate_batch(np.hstack([ones, ones, L.add(a, b)]))
    minus = f.evaluate_batch(np.hstack([ones, L.neg[ones], L.sub(a, b)]))
    return [
        ((1, 0) + tuple(a[i].tolist()), (0, 1) + tuple(b[i].tolist()))
        for i in np.flatnonzero((plus == 0) & (minus == 0))
    ]


def transversal_counts_by_pair_scan(nf, line1, line2):
    """(all transversals, those meeting P) of two skew lines on Y, or None, by a pair scan.

    For each d <= 4 with q^d <= 3000 in the tower, every pair of points
    (a, b) of L1(F_{q^d}) x L2(F_{q^d}) spans a line on Y iff the cubic kills
    a + b and a - b; the line meets P iff a, b, e2, e3, e4 have rank at most
    4.  The counts over each F_{q^d} are turned into exact-degree counts;
    None when some count drops, or when the total is not 5.
    """
    K = nf.K
    cumulative = {}
    for d in (1, 2, 3, 4):
        if K.q**d > 3000 or not K.reaches(d):
            break
        nfd = nf.embedded(K.extension(d))
        Ld = nfd.K
        pts1, pts2 = (ProjectiveLine(Ld, K.lift(line.rows, Ld)).points_array() for line in (line1, line2))
        a = np.repeat(pts1, len(pts2), axis=0)
        b = np.tile(pts2, (len(pts1), 1))
        plus = nfd.f.evaluate_batch(Ld.add(a, b))
        minus = nfd.f.evaluate_batch(Ld.sub(a, b))
        hits = np.flatnonzero((plus == 0) & (minus == 0))
        n_meet = sum(rank(Ld, np.vstack([a[i], b[i], np.eye(5, dtype=np.int64)[2:]])) <= 4 for i in hits)
        cumulative[d] = (len(hits), n_meet)
    exact, meets_p = {}, {}
    for d, (n_d, n_meet) in cumulative.items():
        exact[d] = n_d - sum(exact[e] for e in range(1, d) if d % e == 0)
        meets_p[d] = n_meet - sum(meets_p[e] for e in range(1, d) if d % e == 0)
        if exact[d] < 0 or meets_p[d] < 0:
            return None
    total, total_meet = sum(exact.values()), sum(meets_p.values())
    if total != 5 or total_meet > total:
        return None
    return (total, total_meet)


def singular_points_off_plane(nf, d):
    """Points over F_{q^d} where f and all five partials vanish, off the plane, lazily.

    The generality certificate's implication says this is empty whenever Z is
    zero-dimensional and the discriminant is reduced.
    """
    f = nf.f.embedded(nf.K.extension(d))
    return (pt for pt in common_zeros([f] + [f.derivative(i) for i in range(5)]) if pt[0] or pt[1])


def singular_point_scan(nx, d):
    """Points of P^5 over F_{q^d} where the fourfold's cubic and all six partials vanish, lazily.

    ``fourfold.certify_fourfold`` reads no such scan: a singular point lies
    on P, where it is a base point of the tangency map, or over a singular
    point (x0 : x1 : x2) of the plane discriminant.
    """
    f = nx.f.embedded(nx.K.extension(d))
    return common_zeros([f] + [f.derivative(i) for i in range(6)])


def extra_plane_candidates(nf, d):
    """Planes other than P that could lie on Y over F_{q^d}, lazily.

    By the structure theory such a plane is either a component of a rank <= 2
    fiber, or the span of two fiber lines through a point of Z (the
    threefold's node scheme) in the fibers over (1:0) and (0:1).  Yields
    ("rank<=2 fiber", (s, t)) for the first such fiber and stops, or
    ("plane through Z", basis rows) for each spanned plane on Y.
    """
    Z = nf.Z
    nfd = nf.embedded(nf.K.extension(d))
    L = nfd.K
    for fiber in pencil_fibers(nf, L, projective_reps(L, 1)):
        if rank(L, fiber.matrix) <= 2:
            yield ("rank<=2 fiber", (fiber.s, fiber.t))
            return
    fiber_lines = None  # the lines of the fibers over (1:0) and (0:1), found at the first point of Z
    for z in Z.points_over(d):
        if fiber_lines is None:
            fiber_lines = []
            for s, t in ((1, 0), (0, 1)):
                # both rulings in one row order, which fixes the order of the witnesses
                lines = [line for c in rulings_of_fiber(pencil_fibers(nf, L, [(s, t)])[0]) for line in c.lines]
                fiber_lines.append(sorted(lines, key=lambda line: line.rows))
        zpt = ProjectivePoint(L, (0, 0) + Z.coords_in(z, L))
        per_fiber = [[line for line in lines if line.contains(zpt)] for lines in fiber_lines]
        for l1, l2 in product(per_fiber[0], per_fiber[1]):
            basis, _ = rref(L, np.array(list(l1.rows) + list(l2.rows), dtype=np.int64))
            if basis.shape[0] != 3 or not nfd.f.restrict(basis).is_zero:
                continue
            if all(b[0] == 0 and b[1] == 0 for b in basis):
                continue  # that is P itself
            yield ("plane through Z", tuple(tuple(int(x) for x in row) for row in basis))

def line_count_by_point_counts(nf):
    """#F(Y)(F_q), the number of lines on the threefold over F_q, from point counts alone.

    With Q = q^k, the threefold has N_k = (Q+1)(Q^2+1) + Q (#C(F_Q) - #Z(F_Q))
    points over F_Q, where #Z(F_Q) counts the points of Z whose degree
    divides k.  Galkin-Shinder, [X^[2]] = [P^4][X] + L^2 [F(X)] for a cubic
    threefold X with S = #Z(F_q) nodes, gives
    #F(Y)(F_q) = ((N1^2 + N2)/2 - N1 + (N1 - S) #P^2 + S #P^3 - #P^3 N1) / q^2.
    """
    q = nf.K.q
    model = HyperellipticModel(nf.discriminant)

    def points(k):
        Q = q**k
        return (Q + 1) * (Q * Q + 1) + Q * (count_points_C(model, k) - len(nf.Z.points_over(k)))

    N1, N2 = points(1), points(2)
    S = len(nf.Z.points_over(1))
    P2, P3 = q * q + q + 1, q**3 + q * q + q + 1
    if (N1 * N1 + N2) % 2:
        raise InternalInconsistency("N1^2 + N2 is the count of a symmetric square, even")
    total = (N1 * N1 + N2) // 2 - N1 + (N1 - S) * P2 + S * P3 - P3 * N1
    if total % (q * q):
        raise InternalInconsistency("the line count must be an integer")
    return total // (q * q)


def pluecker_coordinates(line):
    """Normalized Plucker coordinates (2x2 minors, i < j)."""
    K = line.K
    a, b = line.rows
    minors = []
    for i in range(len(a)):
        for j in range(i + 1, len(a)):
            minors.append(K.sub_(K.mul_(a[i], b[j]), K.mul_(a[j], b[i])))
    return normalize_point(K, minors)


def check_rulings(K, rulings):
    """Distinct lines of one ruling are skew, lines of different rulings meet, and
    each ruling holds q+1 lines: one matrix of Plucker pairings, zero where lines meet."""
    pl = np.array([pluecker_coordinates(line) for ruling in rulings for line in ruling], dtype=np.uint16)
    # <p, p'> = p01 p'23 - p02 p'13 + p03 p'12 + p12 p'03 - p13 p'02 + p23 p'01
    dual = pl[:, ::-1].copy()
    dual[:, [1, 4]] = K.neg[dual[:, [1, 4]]]
    pairing = np.zeros((len(pl), len(pl)), dtype=np.uint16)
    for k in range(6):
        pairing = K.add(pairing, K.mul(pl[:, None, k], dual[None, :, k]))
    labels = np.repeat(np.arange(len(rulings)), [len(ruling) for ruling in rulings])
    same, meets = labels[:, None] == labels[None, :], pairing == 0
    if (meets & same & ~np.eye(len(pl), dtype=bool)).any():
        raise InternalInconsistency("two lines of one ruling meet")
    if (~meets & ~same).any():
        raise InternalInconsistency("lines in different rulings must meet")
    if any(len(ruling) != K.q + 1 for ruling in rulings):
        raise InternalInconsistency("split smooth fiber carries q+1 lines per ruling")


def root_directions(K, roots, c1, c2):
    """Each root ((b, g), multiplicity) as the direction b*c1 + g*c2, with its multiplicity."""
    return [
        (tuple(K.add_(K.mul_(b, u), K.mul_(g, v)) for u, v in zip(c1, c2)), mult)
        for (b, g), mult in roots
    ]


# candidates completing a point of a plane to a basis
_UNIT_VECTORS = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def complete_to_basis(K, y, candidates):
    """The first two candidates that extend y to a basis of a 3-space, by a rank test per candidate."""
    basis = [list(y)]
    for cand in candidates:
        cand = [int(x) for x in cand]
        if rank(K, np.array(basis + [cand], dtype=np.int64)) == len(basis) + 1:
            basis.append(cand)
            if len(basis) == 3:
                return basis[1], basis[2]
    raise InternalInconsistency("the candidates do not extend the point to a basis of a 3-space")


def split_conic_at_by_scan(K, conic, z3):
    """Directions (with multiplicity) of the two lines of a conic singular at z3, and their field.

    The lines through z3 are the roots of the conic on the line through two
    unit vectors completing z3 to a basis, found by scanning the field, and
    over the quadratic extension for a conjugate pair.
    """
    if any(conic.gradient(z3)):
        raise InternalInconsistency("the residual conic must be singular at the node")
    c1, c2 = complete_to_basis(K, z3, _UNIT_VECTORS)
    form = binary_quadratic(conic, c1, c2)
    if form.is_zero:
        raise InternalInconsistency("the residual conic cannot contain the whole plane")
    roots = form.roots()
    if sum(m for _, m in roots) < 2:
        roots = form.roots(extension=2)
        L2 = K.extension(2)
        c1, c2 = K.lift((c1, c2), L2)
        K = L2
    return K, root_directions(K, roots, c1, c2)


def conic_component_lines_by_scan(K, conic):
    """Canonical row pairs of the K-rational component lines of a ternary conic, by rank and a field scan."""
    m = conic.symmetric_matrix()
    r = rank(K, m)
    if r == 3:
        return []
    if r == 1:
        row = next(tuple(int(x) for x in m[i]) for i in range(3) if m[i].any())
        ker = kernel_basis(K, np.array([row], dtype=np.int64))
        return [tuple(tuple(int(x) for x in kr) for kr in ker)]
    # rank 2: two lines through the kernel point, when the binary form splits
    ker = kernel_basis(K, m)
    if ker.shape[0] != 1:
        raise InternalInconsistency("a rank-2 conic is singular at a single point")
    v = [int(x) for x in ker[0]]
    c1, c2 = complete_to_basis(K, v, _UNIT_VECTORS)
    out = []
    for direction, _mult in root_directions(K, binary_quadratic(conic, c1, c2).roots(), c1, c2):
        rows, _ = rref(K, np.array([v, list(direction)], dtype=np.int64))
        out.append(tuple(tuple(int(x) for x in row) for row in rows))
    return out


def _tangent_directions(K, matrix, quadric, y):
    """Second points spanning the (up to two) lines of the quadric through y, with multiplicity."""
    tangent = kernel_basis(K, np.array([mat_vec(K, matrix, y)], dtype=np.int64))
    if tangent.shape[0] != 3:
        raise InternalInconsistency("a smooth point of a quadric in P^3 has a tangent plane")
    # rebase so y is the first basis vector of the tangent hyperplane
    c1, c2 = complete_to_basis(K, y, tangent)
    # the cross terms with y vanish on the tangent hyperplane
    conic = binary_quadratic(quadric, c1, c2)
    if conic.is_zero:
        raise NotGeneral("tangent plane contained in the quadric")
    return root_directions(K, conic.roots(), c1, c2)


def _beta(K, matrix, x, v):
    return int(mat_vec(K, [x], mat_vec(K, matrix, v))[0])


def _ruling_through(K, matrix, points, line):
    """For each point x, the line of the quadric through x meeting ``line`` = (b1, b2),
    which misses x: it meets ``line`` at beta(x, b2) b1 - beta(x, b1) b2."""
    b1, b2 = line
    betas = mat_mul(K, points, mat_mul(K, matrix, np.array([b2, b1], dtype=np.int64).T))
    out = []
    for x, (beta2, beta1) in zip(points, betas):
        c1, c2 = int(beta2), K.neg_(int(beta1))
        meet = [K.add_(K.mul_(c1, int(u)), K.mul_(c2, int(v))) for u, v in zip(b1, b2)]
        out.append(ProjectiveLine(K, np.array([x, meet], dtype=np.int64)))
    return out


def pencil_quadric_terms(nf, *params) -> dict:
    """Terms of the residual quadric over ``params`` in the fiber coordinates, one term of the quadrics at a time.

    The quadrics are (Q0, Q1) of a threefold over (s, t), or (Q0, Q1, Q2) of a
    fourfold over (s, t, u): x_w -> p_w*v for w < n in p_0*Q0 + ... +
    p_{n-1}*Q_{n-1}, in the coordinates (v, x_n, x_{n+1}, x_{n+2}).
    """
    K, n = nf.K, len(params)
    out: dict = {}
    for w, outer in enumerate(params):
        if outer == 0:
            continue
        for e, c in getattr(nf, f"Q{w}").terms.items():
            val = K.mul_(outer, c)
            for p, k in zip(params, e[:n]):
                if k:
                    val = K.mul_(val, K.pow_vector(k)[p])
            if not val:
                continue
            key = (sum(e[:n]),) + e[n:]
            acc = K.add_(out.get(key, 0), val)
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
    return out


def pencil_quadric(nf, *params):
    """The residual quadric over ``params`` as a quadratic form in four variables, from :func:`pencil_quadric_terms`."""
    return HomogeneousForm(nf.K, 4, 2, pencil_quadric_terms(nf, *params))


def fiber_entry_forms(quadrics) -> list[list[HomogeneousForm]]:
    """The symmetric 4x4 matrix of the residual quadric family of x0*Q0 + ... + x_{n-1}*Q_{n-1},
    entries forms in the n parameters, one term of the quadrics at a time.

    A term c*x^e of Q_w times p_w, with x_k -> p_k*v for k < n, is c*p^e*p_w
    times a power of v times the other variables; with one v divided off it
    is a quadratic monomial v_i v_j, which adds c*p^e*p_w at (i, i), or half
    of it at (i, j) and at (j, i).  Entry (0, 0) is cubic in the parameters,
    the rest of row and column 0 quadratic, and the other entries linear.
    """
    n, K = len(quadrics), quadrics[0].K
    half = (K.p + 1) // 2  # the inverse of 2 in the prime field
    terms = [[{} for _ in range(4)] for _ in range(4)]
    for w, Q in enumerate(quadrics):
        for e, c in Q.terms.items():
            monomial = tuple(k + (v == w) for v, k in enumerate(e[:n]))
            i, j = [0] * (sum(monomial) - 1) + [v for v, k in enumerate(e[n:], 1) for _ in range(k)]
            value = c if i == j else K.mul_(c, half)
            for a, b in {(i, j), (j, i)}:
                terms[a][b][monomial] = K.add_(terms[a][b].get(monomial, 0), value)
    return [[HomogeneousForm(K, n, 3 - (i > 0) - (j > 0), terms[i][j]) for j in range(4)] for i in range(4)]


def quadric_of_matrix(K, M):
    """The quadratic form x^T M x of a symmetric matrix: M_ii x_i^2 and 2 M_ij x_i x_j."""
    n = len(M)
    terms = {}
    for i in range(n):
        for j in range(i, n):
            e = [0] * n
            e[i] += 1
            e[j] += 1
            terms[tuple(e)] = int(M[i][j]) if i == j else K.add_(int(M[i][j]), int(M[j][i]))
    return HomogeneousForm(K, n, 2, terms)


def _ambient_sorted(fiber, lines):
    return tuple(sorted((fiber.ambient_lines([line.rows])[0] for line in lines), key=lambda L: L.rows))


def rulings_by_tangent_conics(fiber):
    """The ruling classes of one fiber, built one fiber at a time.

    A cone's lines join its vertex to a plane section missing it.  At the
    first point y of a smooth fiber the tangent conic, factored by
    ``HomogeneousForm.roots``, is two lines A = span(y, a) and B = span(y, b), or
    none (nonsplit).  At a it is A and B' = span(a, b') of B's ruling.  A's
    ruling is the line through each point of B meeting B', and B's the line
    through each point of A meeting A', the line of A's ruling through b;
    ``check_rulings`` checks them.
    """
    K, M = fiber.K, fiber.matrix
    quadric = quadric_of_matrix(K, M)
    r = rank(K, M)
    if r <= 2:
        raise NotGeneral(f"fiber matrix has rank {r} <= 2")
    if r == 3:
        ker = kernel_basis(K, M)
        if ker.shape[0] != 1:
            raise InternalInconsistency("a rank-3 quadric in P^3 has a single vertex")
        vertex = [int(x) for x in ker[0]]
        # the plane x_i = 0 at the vertex's leading 1 misses it and meets each line once
        section = HomogeneousForm.monomial(K, 4, tuple(int(i == vertex.index(1)) for i in range(4)))
        lines = [ProjectiveLine(K, np.array([vertex, pt])) for pt in common_zeros([section, quadric])]
        return [RulingClass(K, fiber.s, fiber.t, 0, True, _ambient_sorted(fiber, lines))]
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
    packs = sorted((_ambient_sorted(fiber, ruling) for ruling in (ruling_a, ruling_b)), key=lambda pack: pack[0].rows)
    return [RulingClass(K, fiber.s, fiber.t, i, False, pack) for i, pack in enumerate(packs)]


def act_by_dicts(G, word, x):
    """A word acting on a signed point one letter at a time through the j tables."""
    surf = G.surface
    for c, e in word.letters:
        if e < 0:
            c = surf.other_ruling(c)
        if x.sign > 0:
            x = SignedTorsorPoint(surf.j_table(surf.other_ruling(c))[x.point], -1)
        else:
            x = SignedTorsorPoint(surf.j_table(c)[x.point], +1)
    return x


def class_by_dicts(G, word):
    return tuple(G.index[act_by_dicts(G, word, x)] for x in G.points)


def _map_point(x, table):
    """A signed torsor point with every coordinate code sent through table."""
    p = x.point
    if p.kind == "node":
        pt = TorsorPoint("node", node=tuple(table[v] for v in p.node))
    else:
        pt = TorsorPoint("line", rows=tuple(tuple(table[v] for v in row) for row in p.rows))
    return SignedTorsorPoint(pt, x.sign)


def sum_by_dicts(G, s, t, escalate=True):
    """(tag, perm, word) of the class D with -s + D = t, by trying every word.

    All positive words of length 1 and 3 (or 2, or the empty word) are acted
    out in ``itertools.product`` order; the first eight matches must induce
    one permutation.  Without a match the search runs once over the
    quadratic extension and pulls the class back through the code maps.
    """
    start = s.negated()
    flip = start.sign != t.sign
    found = [] if flip or start != t else [DivisorWord(())]
    for n in (1, 3) if flip else (2,):
        for combo in product(G.letters, repeat=n):
            word = DivisorWord(tuple((c, +1) for c in combo))
            if act_by_dicts(G, word, start) == t:
                found.append(word)
    found = found[:8]
    if found:
        if len({class_by_dicts(G, w) for w in found}) != 1:
            raise InternalInconsistency("two words sending -s to t disagree elsewhere")
        return found[0].tag, class_by_dicts(G, found[0]), found[0]
    if not escalate:
        raise NeedsExtension("no defining word over the working field within degree 3")
    big = G.extension_group()
    emb = G.surface.L.lift(np.arange(G.surface.L.q), big.surface.L)
    up = {v: int(code) for v, code in enumerate(emb)}
    down = {code: v for v, code in up.items()}
    tag, big_perm, word = sum_by_dicts(big, _map_point(s, up), _map_point(t, up), False)
    perm = tuple(
        G.index[_map_point(big.points[big_perm[big.index[_map_point(x, up)]]], down)] for x in G.points
    )
    return tag, perm, word


def sum_by_search(G, s, t, escalate=True):
    """(tag, perm, word) of the class D with -s + D = t, by a word search per sum.

    The images of -s under every positive word of length 1 and 3 (or 2, or
    the empty word) are gathered through the stacked letter arrays, one
    length at a time, and the first eight matches in ``itertools.product``
    order must induce one permutation.  Without a match the search runs
    once over the quadratic extension and pulls the class back through
    index maps between the two universes.
    """
    start, target = G.index[s.negated()], G.index[t]
    flip = s.negated().sign != t.sign
    found = [] if flip or start != target else [DivisorWord(())]
    lengths = (1, 3) if flip else (2,)
    letters = G.letters
    matrix = np.stack([G._perm_of(c) for c in letters])
    images = start
    for n in range(1, lengths[-1] + 1):
        images = matrix[:, images]
        if n in lengths:
            for combo in np.argwhere(images.transpose() == target)[: 8 - len(found)]:
                found.append(DivisorWord(tuple((letters[i], +1) for i in combo)))
            if len(found) == 8:
                break
    if found:
        first = G._word_perm(found[0])
        if any(not np.array_equal(G._word_perm(w), first) for w in found[1:]):
            raise InternalInconsistency("two words sending -s to t disagree elsewhere")
        if found[0].tag != (s.component + t.component) % 4:
            raise InternalInconsistency("component arithmetic disagrees with the word parity")
        return found[0].tag, tuple(first.tolist()), found[0]
    if not escalate:
        raise NeedsExtension("no defining word over the working field within degree 3")
    big = G.extension_group()
    up = np.array([big.index[G.embed_point(big, x)] for x in G.points])
    down = np.full(len(big.points), -1)
    down[up] = np.arange(len(G.points))
    tag, big_perm, word = sum_by_search(big, big.points[up[G.index[s]]], big.points[up[G.index[t]]], False)
    perm = down[np.array(big_perm)[up]]
    if (perm < 0).any():
        raise InternalInconsistency("an escalated class moved a rational point off the rational locus")
    return tag, tuple(perm.tolist()), word


# ---------------------------------------------------------------------------
# the involution tables one point at a time
# ---------------------------------------------------------------------------


def solve(K, mat, rhs):
    """One solution of mat @ x = rhs with its free unknowns zero, or None when inconsistent."""
    A = np.array(mat, dtype=np.int64)
    b = np.array(rhs, dtype=np.int64).reshape(-1, 1)
    R, pivots = rref(K, np.hstack([A, b]))
    cols = A.shape[1]
    if cols in pivots:
        return None
    x = np.zeros(cols, dtype=np.int64)
    for r, c in enumerate(pivots):
        x[c] = R[r, cols]
    return x


def _lines_through(c):
    """Each point of the lines of a ruling class, mapped to the lines through it."""
    found = {}
    for ln in c.lines:
        for pt in ln.points_array().tolist():
            found.setdefault(tuple(pt), []).append(ln)
    return found


def _tau(surf, through, z_amb, c):
    hits = through[c.key].get(z_amb, [])
    if len(hits) == 1:
        return hits[0]
    if len(hits) > 1:
        raise NotGeneral("the node sits at a cone vertex; the node scheme is not reduced")
    raise InternalInconsistency("a node lies on every fiber quadric, so some ruling line passes through it")


def _sigma(surf, through, line, c):
    K = surf.L
    a, b = line.rows
    ga = K.sub_(K.mul_(c.t, a[0]), K.mul_(c.s, a[1]))
    gb = K.sub_(K.mul_(c.t, b[0]), K.mul_(c.s, b[1]))
    crossing = normalize_point(K, [K.sub_(K.mul_(gb, x), K.mul_(ga, y)) for x, y in zip(a, b)])
    hits = through[c.key].get(crossing, [])
    if len(hits) > 1:
        raise ResampleRequired("the line passes through the vertex of a cone fiber")
    if not hits:
        raise InternalInconsistency("a disjoint line crosses every fiber quadric in a ruled point")
    return hits[0]


def _deformation_plane_by_solve(surf, z_amb, c, tau_line):
    """The limiting plane of a diagonal pair, from one scalar linear solve."""
    M = surf.L
    y = next((pt.coords for pt in tau_line.points() if (pt.coords[0], pt.coords[1]) != (0, 0)), None)
    if y is None:
        raise ResampleRequired("the ruling line lies in P; the diagonal pair is excluded there")
    s0, t0 = c.s, c.t
    s1, t1 = (0, 1) if t0 == 0 else (1, 0)
    grads = [surf.nf.f.derivative(i) for i in range(5)]

    def grad_at(pt):
        return tuple(g.evaluate(pt) for g in grads)

    g_y = grad_at(y)
    g_p = grad_at(tuple(M.add_(a, b) for a, b in zip(z_amb, y)))
    g_m = grad_at(tuple(M.sub_(a, b) for a, b in zip(z_amb, y)))
    two = 2 % M.p
    eq_rows = [
        [t0 if i == 0 else (M.neg_(s0) if i == 1 else 0) for i in range(5)],
        list(g_y),
        [M.sub_(a, b) for a, b in zip(g_p, g_m)],
        [M.sub_(M.add_(a, b), M.mul_(two, gy)) for a, b, gy in zip(g_p, g_m, g_y)],
    ]
    rhs = [M.neg_(M.sub_(M.mul_(t1, y[0]), M.mul_(s1, y[1]))), 0, 0, 0]
    u = solve(M, np.array(eq_rows, dtype=np.int64), np.array(rhs, dtype=np.int64))
    if u is None:
        raise InternalInconsistency("the ruling deforms with its fiber away from the branch points")
    S = span(M, z_amb, y, tuple(int(x) for x in u))
    if S.dim != 2:
        raise InternalInconsistency("the first-order deformation must leave the line")
    return S


def cone_tangent_plane_by_kernel(surf, z, c):
    """The tangent plane at the node z to the fiber of the class c, as the kernel of its tangent row."""
    M = c.K
    (fib,) = pencil_fibers(surf.base, M, [(c.s, c.t)])
    row = mat_vec(M, fib.matrix, (0,) + tuple(surf.Z.coords_in(z, M)))
    if not row.any():
        raise NotGeneral("the node sits at the cone vertex; the node scheme is not reduced")
    ker = kernel_basis(M, np.array([row], dtype=np.int64))
    if ker.shape[0] != 3:
        raise InternalInconsistency("a nonzero linear form on P^3 cuts a plane")
    return LinearSubspace(M, fib.ambient_rows(ker))


def _residual_by_division(surf, rows, first, second, message):
    """The residual line of a section by symbolic division, InternalInconsistency when the rows span no plane."""
    plane = LinearSubspace(surf.L, np.array(rows, dtype=np.int64))
    if plane.dim != 2:
        raise InternalInconsistency(message)
    return residual_line_symbolic(surf.nf.f, plane, first, second)


def _land(surf, line):
    cl = surf.classified(line)
    if cl.tag == DISJOINT or (cl.tag == MEETS_PLANE and cl.meets_at in surf.node_index):
        return TorsorPoint("line", rows=cl.line.rows)
    if cl.tag == MEETS_PLANE:
        raise InternalInconsistency("an involution output meets P away from every node")
    return None


def involution_by_step(surf, c, x, through=None):
    """j_c(x) for one point: node, disjoint line, or boundary line.

    ``through`` maps each class key to :func:`_lines_through` of the class;
    it is built when not given.
    """
    if through is None:
        through = {d.key: _lines_through(d) for d in surf.curve_points}
    bar = surf.other_ruling(c)
    if x.kind == "node":
        tp = _land(surf, _tau(surf, through, x.node, bar))
        if tp is None:
            raise ResampleRequired("the opposite ruling line through the node lies in P")
        return tp
    cl = surf.by_rows[x.rows]
    if cl.tag == DISJOINT:
        m = _sigma(surf, through, cl.line, c)
        res = _residual_by_division(
            surf, cl.line.rows + m.rows, cl.line, m, "a disjoint line and the ruling line meeting it span a plane"
        )
        landed = _land(surf, res.line)
        if landed is None:
            raise InternalInconsistency("the residual of a disjoint-line span cannot lie in P")
        return landed
    d = surf.ruling_of(cl)
    if d.key == bar.key:
        return TorsorPoint("node", node=cl.meets_at)
    z = surf.node_index[cl.meets_at]
    t1 = _tau(surf, through, cl.meets_at, c)
    t2 = _tau(surf, through, cl.meets_at, d)
    in_p = [not any(row[i] for row in t.rows for i in (0, 1)) for t in (t1, t2)]
    if all(in_p):
        raise ResampleRequired("both ruling lines lie in P: the pair is in the excluded locus")
    if c.key == d.key:
        if c.is_cone:
            S = cone_tangent_plane_by_kernel(surf, z, c)
        else:
            S = _deformation_plane_by_solve(surf, cl.meets_at, c, t1)
        res = _residual_by_division(surf, S.rows, t1, t1, "the limiting plane of a diagonal pair is a plane")
    else:
        res = _residual_by_division(surf, t1.rows + t2.rows, t1, t2, "distinct lines through one node span a plane")
    landed = _land(surf, res.line)
    if landed is None:
        raise ResampleRequired("the residual through the node lands on an excluded in-plane line")
    return landed


def involution_tables_by_steps(surf):
    """Every class's j table point by point, each section divided symbolically.

    Maps each class key to its table (a dict) or, when a point fails, to the
    (type name, message) of the error at the first failing point in torsor
    order; a table that is not an involutive permutation maps to the
    ``InternalInconsistency`` the package raises.
    """
    through = {c.key: _lines_through(c) for c in surf.curve_points}
    out = {}
    for c in surf.curve_points:
        try:
            table = {x: involution_by_step(surf, c, x, through) for x in surf.torsor_set.points}
        except Exception as exc:
            out[c.key] = (type(exc).__name__, str(exc))
            continue
        if len(set(table.values())) != len(table):
            out[c.key] = ("InternalInconsistency", "an involution must permute the torsor-ready set")
        elif any(table[y] != x for x, y in table.items()):
            out[c.key] = ("InternalInconsistency", "j_c composed with itself must be the identity")
        else:
            out[c.key] = table
    return out


# ---------------------------------------------------------------------------
# the lines of a fourfold in closed form
# ---------------------------------------------------------------------------


def fourfold_points_by_double_plane(nx, d):
    """#X(F_Q), Q = q^d, from the double plane w^2 = D(s, t, u) of the plane discriminant.

    Projecting from the plane P fibers the blow-up of X along P in quadric
    surfaces over P^2: the one over u has Q^2 + 1 + Q(1 + chi(D(u))) points
    (split, nonsplit, or a cone over the sextic; a smooth sextic leaves no
    lower rank), and each point of P lies on the fibers over one line of P^2.
    So #X = sum_u #Q_u - Q #P^2 = Q^4 + Q^2 + 1 + Q #{w^2 = D}.
    """
    L = nx.K.extension(d)
    values = nx.discriminant.form.embedded(L).evaluate_batch(all_points_array(L, 2))
    chi = np.where(values == 0, 0, np.where(L.sqrt_table[values] >= 0, 1, -1))
    double_plane = int((1 + chi).sum())
    Q = L.q
    return Q**4 + Q**2 + 1 + Q * double_plane


def lines_by_galkin_shinder(nx, n=4):
    """#F(X)(F_q) from [X^[2]] = [P^n][X] + L^2 [F(X)] with n = dim X = 4, as a Fraction.

    Counting points: the Hilbert square X^[2] is the symmetric square,
    (N1^2 + N2) / 2 points, with its diagonal of N1 points replaced by the
    projectivized tangent bundle, N1 #P^(n-1) points; N1 and N2 are the
    points of X over F_q and F_{q^2}.  Another n gives the wrong count.
    """
    q = nx.K.q
    n1, n2 = fourfold_points_by_double_plane(nx, 1), fourfold_points_by_double_plane(nx, 2)

    def projective_space(m):
        return sum(q**i for i in range(m + 1))

    hilbert_square = (n1 * n1 + n2) // 2 + n1 * (projective_space(n - 1) - 1)
    return Fraction(hilbert_square - projective_space(n) * n1, q * q)


def _q_trim(terms: dict) -> dict:
    return {e: c for e, c in terms.items() if c != 0}


def _q_add(A: dict, B: dict) -> dict:
    out = dict(A)
    for e, c in B.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _q_trim(out)


def _q_mul(A: dict, B: dict) -> dict:
    out: dict = {}
    for ea, ca in A.items():
        for eb, cb in B.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, Fraction(0)) + ca * cb
    return _q_trim(out)


def q_evaluate(terms: dict, point) -> Fraction:
    """A polynomial {exponent tuple: coefficient} at a point, term by term."""
    total = Fraction(0)
    for e, c in terms.items():
        v = c
        for x, k in zip(point, e):
            for _ in range(k):
                v *= x
        total += v
    return total


def q_derivative(terms: dict, i: int) -> dict:
    """The partial derivative in x_i of a polynomial {exponent tuple: coefficient}."""
    out: dict = {}
    for e, c in terms.items():
        if e[i]:
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = out.get(tuple(d), Fraction(0)) + c * e[i]
    return _q_trim(out)


def q_substitute(terms: dict, columns) -> dict:
    """Substitute x_i = sum_j columns[i][j] * y_j (one linear form per variable), by products of term dicts."""
    out: dict = {}
    nvars = len(columns[0])
    for e, c in terms.items():
        prod = {tuple([0] * nvars): c}
        for i, k in enumerate(e):
            lin = {
                tuple(1 if j == m else 0 for j in range(nvars)): columns[i][m]
                for m in range(nvars)
                if columns[i][m] != 0
            }
            for _ in range(k):
                prod = _q_mul(prod, lin)
        out = _q_add(out, prod)
    return out


def q_clear_denominators(terms: dict) -> dict:
    """Scale a nonzero rational polynomial to a primitive integer one by a positive rational."""
    terms = {e: Fraction(c) for e, c in terms.items() if Fraction(c) != 0}
    lcm = math.lcm(*(c.denominator for c in terms.values()))
    ints = {e: int(c * lcm) for e, c in terms.items()}
    content = math.gcd(*ints.values())
    return {e: v // content for e, v in ints.items()}


def _primitive(vec) -> tuple[int, ...]:
    """An integer vector divided by its content, its first nonzero entry made positive; zero stays zero."""
    g = math.gcd(*vec)
    if g == 0:
        return tuple(vec)
    out = tuple(x // g for x in vec)
    k = next(i for i, x in enumerate(out) if x)
    return tuple(-x for x in out) if out[k] < 0 else out


def rational_roots_by_factor_list(poly: sympy.Poly) -> list[Fraction]:
    """The rational roots of a nonzero univariate sympy polynomial, from its linear factors."""
    if poly.is_zero:
        raise ValueError("cannot list roots of the zero polynomial")
    out = []
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            out.append(Fraction(-int(b), int(a)))  # root of a*t + b
    return sorted(set(out))


def nodes_by_sympy_resultant(int_terms: dict) -> list[tuple[int, int, int]]:
    """Rational points of {q0 = q1 = 0} in the plane, by sympy's elimination.

    The same search as ``rationality._nodes_by_resultant``: the resultant in
    z, then y, then x, the first that does not vanish; its rational roots in
    the kept pair, a (1:0) root when the kept pair's second variable divides
    it, the shared roots of the two specialized conics through sympy's gcd,
    and the projection centre when both conics pass through it.
    """
    conics = [{e[2:]: c for e, c in int_terms.items() if e[:2] == pick} for pick in ((1, 0), (0, 1))]
    x, y, z = sympy.symbols("x y z")
    syms = (x, y, z)
    q0, q1 = (
        sympy.expand(sum((int(c) * x**a * y**b * z**d for (a, b, d), c in conic.items()), sympy.Integer(0)))
        for conic in conics
    )

    for elim in (2, 1, 0):
        keep = [i for i in range(3) if i != elim]
        R = sympy.resultant(q0, q1, syms[elim])
        if R == 0:
            continue
        u, v = syms[keep[0]], syms[keep[1]]
        Ru = sympy.Poly(R.subs(v, 1), u)
        total = sympy.Poly(R, u, v).total_degree()
        roots = [(Fraction(r), Fraction(1)) for r in rational_roots_by_factor_list(Ru)]
        if Ru.degree() < total:
            roots.append((Fraction(1), Fraction(0)))
        candidates = []
        for ru, rv in roots:
            sub = {
                u: sympy.Rational(ru.numerator, ru.denominator),
                v: sympy.Rational(rv.numerator, rv.denominator),
            }
            p0 = q0.subs(sub)
            p1 = q1.subs(sub)
            w = syms[elim]
            if p0 == 0 and p1 == 0:
                continue  # a whole line of singular points: nonreduced input
            g = sympy.gcd(sympy.Poly(p0, w), sympy.Poly(p1, w))
            if g.degree() < 1:
                continue
            for rw in rational_roots_by_factor_list(sympy.Poly(g, w)):
                coords = [Fraction(0)] * 3
                coords[keep[0]], coords[keep[1]], coords[elim] = ru, rv, rw
                den = coords[0].denominator * coords[1].denominator * coords[2].denominator
                cand = _primitive(tuple(int(c * den) for c in coords))
                if any(cand) and all(q_evaluate(conic, cand) == 0 for conic in conics):
                    candidates.append(cand)
        centre = tuple(int(i == elim) for i in range(3))
        if all(q_evaluate(conic, centre) == 0 for conic in conics):
            candidates.append(centre)
        return _sorted_candidates(set(candidates))
    raise InternalInconsistency(
        "every elimination resultant vanishes although disc(D) != 0 certified reduced nodes"
    )


def _term_arrays(int_terms: dict, grids, dtype) -> np.ndarray:
    """An integer polynomial at every entry of the coordinate grids, one term at a time."""
    total = np.zeros(grids[0].shape, dtype=dtype)
    for e, c in int_terms.items():
        term = np.full(grids[0].shape, int(c), dtype=dtype)
        for i, k in enumerate(e):
            for _ in range(k):
                term = term * grids[i]
        total = total + term
    return total


def _grid_dtype(int_terms: dict, largest: int):
    """int64 when no product of the sweeps can pass 2^62, Python integers otherwise."""
    return np.int64 if 8 * sum(abs(c) for c in int_terms.values()) ** 2 * largest**6 < 2**62 else object


def points_on_cubic_by_term_loops(int_terms: dict, bound: int, cap: int):
    """The point sweep of ``rationality._points_on_cubic``, term by term and point by point.

    Each x0 slice of the grid gets A, B and C (the x4^2, x4 and constant
    parts) by a loop over the terms, in Python integers whenever int64 could
    overflow; every discriminant is tested by ``math.isqrt`` and every root
    is a Fraction.  Base points whose whole x4-line lies on the cubic give
    no point.  Returns the first ``cap`` points in height order and whether
    more were found.
    """
    by_e4: dict[int, dict] = {0: {}, 1: {}, 2: {}}
    for e, c in int_terms.items():
        by_e4[e[4]][e[:4]] = c
    dtype = _grid_dtype(int_terms, bound)
    side = np.arange(-bound, bound + 1, dtype=np.int64).astype(dtype)
    g1, g2, g3 = np.meshgrid(side, side, side, indexing="ij")
    points: set = set()
    for x0 in range(-bound, bound + 1):
        g0 = np.full(g1.shape, x0, dtype=dtype)
        grids = (g0, g1, g2, g3)
        A, B, C = (_term_arrays(by_e4[k], grids, dtype) for k in (2, 1, 0))
        off_plane = (g0 != 0) | (g1 != 0)
        disc = B * B - 4 * A * C
        for idx in np.argwhere(off_plane & (A != 0) & (disc >= 0)):
            idx = tuple(idx)
            d = math.isqrt(int(disc[idx]))
            if d * d != disc[idx]:
                continue
            base = (x0, int(g1[idx]), int(g2[idx]), int(g3[idx]))
            for sgn in (1, -1):
                x4 = Fraction(-int(B[idx]) + sgn * d, 2 * int(A[idx]))
                pt = _primitive(tuple(v * x4.denominator for v in base) + (x4.numerator,))
                if max(abs(v) for v in pt) <= bound:
                    points.add(pt)
        for idx in np.argwhere(off_plane & (A == 0) & (B != 0)):
            idx = tuple(idx)
            base = (x0, int(g1[idx]), int(g2[idx]), int(g3[idx]))
            x4 = Fraction(-int(C[idx]), int(B[idx]))
            pt = _primitive(tuple(v * x4.denominator for v in base) + (x4.numerator,))
            if max(abs(v) for v in pt) <= bound:
                points.add(pt)
    ordered = _sorted_candidates(points)
    return ordered[:cap], len(ordered) > cap


def _line_rows_by_rref(a, b):
    rows, _ = _fraction_rref([[Fraction(v) for v in a], [Fraction(v) for v in b]])
    return tuple(_primitive(tuple(int(f * math.lcm(*(g.denominator for g in row))) for f in row)) for row in rows)


def lines_by_four_values(int_terms: dict, pts):
    """The lines of ``rationality._disjoint_lines_from_pairs``, by the four-value test.

    A line through a and b lies on a cubic iff f vanishes at a, b, a + b and
    a - b (the four coefficients of the binary cubic f(s a + t b) in
    characteristic zero), so each pair of points is tested at a + b and
    a - b over the whole grid of pairs.  The rows are the reduced row
    echelon form over Q, each scaled to a primitive integer row.
    """
    found = []
    if pts:
        arr = np.array(pts, dtype=np.int64)
        dtype = _grid_dtype(int_terms, 2 * int(np.abs(arr).max()))
        arr = arr.astype(dtype)
        n = len(arr)
        chunk = max(1, 500_000 // n)
        for lo in range(0, n, chunk):
            block = arr[lo : lo + chunk]
            S = block[:, None, :] + arr[None, :, :]
            D = block[:, None, :] - arr[None, :, :]
            fS = _term_arrays(int_terms, tuple(S[..., i] for i in range(5)), dtype)
            fD = _term_arrays(int_terms, tuple(D[..., i] for i in range(5)), dtype)
            for i_local, j in np.argwhere((fS == 0) & (fD == 0)):
                i, j = lo + int(i_local), int(j)
                a, b = pts[i], pts[j]
                if i < j and a[0] * b[1] - a[1] * b[0] != 0:
                    found.append(_line_rows_by_rref(a, b))
    seen = []
    for rows in found:
        if rows not in seen:
            seen.append(rows)
    return seen


def diagonalize_by_fractions(matrix):
    """(diagonal, C) with C^T A C = diag(diagonal), for a symmetric 4x4 matrix A of rationals.

    The congruence elimination of ``RationalQuadricForm.diagonalization`` on
    Fractions, with its transform C kept: a zero pivot is swapped with a
    later nonzero diagonal entry or, if there is none, gets a column that
    meets it added; then every later column is cleared by a multiple of the
    pivot's.  C is a product of swaps and elementary operations, so
    det C = +-1 and the product of the diagonal is det A.
    """
    A = [[Fraction(v) for v in row] for row in matrix]
    C = [[Fraction(1 if i == j else 0) for j in range(4)] for i in range(4)]

    def col_op(dst, src, factor):
        for r in range(4):
            A[r][dst] += factor * A[r][src]
        for r in range(4):
            A[dst][r] += factor * A[src][r]
        for r in range(4):
            C[r][dst] += factor * C[r][src]

    def col_swap(i, j):
        for r in range(4):
            A[r][i], A[r][j] = A[r][j], A[r][i]
        A[i], A[j] = A[j], A[i]
        for r in range(4):
            C[r][i], C[r][j] = C[r][j], C[r][i]

    for i in range(4):
        if A[i][i] == 0:
            j = next((j for j in range(i + 1, 4) if A[j][j] != 0), None)
            if j is not None:
                col_swap(i, j)
            else:
                j = next((j for j in range(i + 1, 4) if A[i][j] != 0), None)
                if j is None:
                    continue
                col_op(i, j, Fraction(1))
        for j in range(i + 1, 4):
            if A[i][j] != 0:
                col_op(j, i, -A[i][j] / A[i][i])
    return tuple(A[i][i] for i in range(4)), tuple(tuple(row) for row in C)


def pencil_member_matrix(int_terms: dict, s: int, t: int) -> list[list[Fraction]]:
    """The symmetric matrix of the residual quadric R_{s,t} in (u, x2, x3, x4), term by term.

    x0 = s*u, x1 = t*u turns a term c x0^e0 x1^e1 x2^e2 x3^e3 x4^e4 of a
    normalized cubic into u times c s^e0 t^e1 u^(e0 + e1 - 1) x2^e2 x3^e3
    x4^e4, a quadratic monomial v_i v_j: c s^e0 t^e1 on the diagonal when
    i = j, half of it at (i, j) and at (j, i) otherwise.
    """
    R = [[Fraction(0)] * 4 for _ in range(4)]
    for (e0, e1, *rest), c in int_terms.items():
        if e0 + e1 == 0:
            continue
        i, j = [0] * (e0 + e1 - 1) + [v for v, k in enumerate(rest, 1) for _ in range(k)]
        value = Fraction(c * s**e0 * t**e1)
        if i == j:
            R[i][i] += value
        else:
            R[i][j] += value / 2
            R[j][i] += value / 2
    return R


def squarefree_class(d: Fraction) -> int:
    """The squarefree integer representing the rational d modulo nonzero squares, by sympy's factorint."""
    if d == 0:
        return 0
    odd = [p for p, e in sympy.factorint(abs(d.numerator * d.denominator)).items() if e % 2]
    return math.prod(odd) * (1 if d > 0 else -1)


def discriminant_sextic_by_sympy(int_terms: dict) -> list[int]:
    """D = det 4 R_{s,t} of a normalized integer cubic, by sympy's determinant of the symbolic Gram matrix.

    The entries are read term by term as in ``pencil_member_matrix``, with s
    and t symbols and the matrix scaled by 4.  Returns the coefficients of
    s^(6 - k) t^k for k = 0..6, the binary layout of degree 6.
    """
    s, t = sympy.symbols("s t")
    G = sympy.zeros(4, 4)
    for (e0, e1, *rest), c in int_terms.items():
        if e0 + e1 == 0:
            continue
        i, j = [0] * (e0 + e1 - 1) + [v for v, k in enumerate(rest, 1) for _ in range(k)]
        value = c * s**e0 * t**e1
        if i == j:
            G[i, i] += 4 * value
        else:
            G[i, j] += 2 * value
            G[j, i] += 2 * value
    D = sympy.Poly(G.det(), s, t)
    return [int(D.coeff_monomial(s ** (6 - k) * t**k)) for k in range(7)]


# the primes tried, in order, for a reduction with a reduced discriminant
REDUCTION_PRIMES = (3, 5, 7)


def good_reduction_prime(coeffs: np.ndarray) -> int:
    """The first p of 3, 5, 7 modulo which the normalized integer cubic has a reduced discriminant.

    The F_p pipeline at each p: the reduced cubic as a form over field(p),
    normalized against the standard plane, and the discriminant sextic of
    the normalized threefold tested for squarefreeness.  Raises ValueError
    when no p certifies the cubic (NotGeneral when D vanishes modulo p).
    """
    for p in REDUCTION_PRIMES:
        reduced = coeffs % p
        if not np.count_nonzero(reduced):
            continue
        K = field(p)
        cubic = HomogeneousForm.from_coeffs(K, 5, 3, reduced)
        rows = np.array(_STANDARD_PLANE_ROWS, dtype=np.int64)
        try:
            nf = normalize(cubic, LinearSubspace(K, rows))
        except NotContained:
            continue
        if nf.discriminant.reduced:
            return p
    raise ValueError(
        "the discriminant is nonreduced modulo every scanned prime: "
        f"no generality certificate from {REDUCTION_PRIMES}"
    )
