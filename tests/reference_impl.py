"""Slow reference implementations used as oracles by the test suite.

Everything here is deliberately naive and independent of the package's table
machinery: polynomial arithmetic on tuples, Fermat inverses, brute-force
searches.  Tests compare the fast package code against these.
"""

from __future__ import annotations

from itertools import product


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
