"""Slow reference implementations used as oracles by the test suite.

Everything here is deliberately naive: polynomial arithmetic on tuples,
Fermat inverses, brute-force searches, symbolic division, and the group law
acted out letter by letter through dicts.  Tests compare the fast package
code against these.
"""

from __future__ import annotations

from itertools import product

from cubicfano.fano import NeedsExtension, TorsorPoint
from cubicfano.forms import divide_by_linear
from cubicfano.gf import InternalInconsistency
from cubicfano.projective import (
    NotOnCubic,
    PlaneContained,
    Residual,
    line_in_plane_from_linear_form,
    linear_form_cutting_line_in_plane,
    normalize_point,
)
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
    ``BinaryForm.roots``.
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


def residual_line_symbolic(cubic, plane, L, M):
    """The residual line of a plane section by symbolic algebra.

    Restricts the cubic to the plane and divides exactly by the linear forms
    of L and then M; same result and errors as ``residual_line``.
    """
    K = cubic.K
    if plane.dim != 2:
        raise ValueError("residual lines live in plane sections")
    section = cubic.restrict(plane.matrix)
    if section.is_zero:
        raise PlaneContained("plane lies entirely on the cubic")
    ell_L = linear_form_cutting_line_in_plane(plane, L)
    ell_M = linear_form_cutting_line_in_plane(plane, M)
    try:
        partial = divide_by_linear(section, ell_L)
    except ValueError as exc:
        raise NotOnCubic("first line is not on the cubic section") from exc
    try:
        residue = divide_by_linear(partial, ell_M)
    except ValueError as exc:
        raise NotOnCubic("second line is not on the cubic section") from exc
    ell_N = tuple(residue.coefficient(tuple(1 if j == i else 0 for j in range(3))) for i in range(3))
    n_norm = normalize_point(K, ell_N)
    multiplicity = sum(1 for ell in (ell_L, ell_M, ell_N) if normalize_point(K, ell) == n_norm)
    return Residual(line_in_plane_from_linear_form(plane, ell_N), multiplicity)


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
    emb = G.surface.L.embedding_into(big.surface.L)
    up = {v: int(code) for v, code in enumerate(emb)}
    down = {code: v for v, code in up.items()}
    tag, big_perm, word = sum_by_dicts(big, _map_point(s, up), _map_point(t, up), False)
    perm = tuple(
        G.index[_map_point(big.points[big_perm[big.index[_map_point(x, up)]]], down)] for x in G.points
    )
    return tag, perm, word
