"""Exact integer arithmetic: primality and factoring.

The textbook algorithms (Cohen, GTM 138, 8.2 and 8.5): trial division by
the small primes, Miller-Rabin to fixed bases where they are proven
deterministic, a strong Lucas test above that range (together Baillie-PSW),
and Pollard-Brent rho for what trial division leaves.  The field layer
factors q - 1 here to find a primitive element; the rational layer factors
the determinants of its quadratic forms.
"""

from __future__ import annotations

import itertools
import math

from .errors import InvalidInput

# Trial division runs over these primes only: the integers factored here
# reach about 10^12, and a bound near their square root would cost
# milliseconds a call.  What is left is split by Pollard-Brent rho.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97)
# Miller-Rabin to the first 13 prime bases is proven deterministic below the
# least strong pseudoprime to all of them (OEIS A014233); above it the
# primality test is Baillie-PSW, base 2 and a strong Lucas test.
_MR_BASES = _SMALL_PRIMES[:13]
_MR_BOUND = 3317044064679887385961981


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for an odd positive n."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_probable_prime(n: int, a: int) -> bool:
    """The Miller-Rabin test of the odd n > a to the base a."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(a, (n - 1) >> s, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test of the odd n, with Selfridge's parameters.

    D is the first of 5, -7, 9, -11, ... with Jacobi symbol (D/n) = -1,
    P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, d odd, n passes when
    U_d = 0 or V_(d 2^r) = 0 mod n for some r < s.  A square n has no such
    D, and a D sharing a factor with n shows n composite.
    """
    if math.isqrt(n) ** 2 == n:
        return False
    D = 5
    while (symbol := _jacobi(D, n)) != -1:
        if symbol == 0 and abs(D) != n:
            return False
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    U, V, Qk = 1, 1, Q  # U_1, V_1, Q^1
    for bit in bin((n + 1) >> s)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # index doubled
        if bit == "1":  # index plus one; n is odd, so adding n makes a sum even
            U, V = U + V, D * U + V
            U, V = (U + n * (U % 2)) // 2 % n, (V + n * (V % 2)) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _is_prime(n: int) -> bool:
    """Exact primality below _MR_BOUND (about 3.3e24), Baillie-PSW above it."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    if n < _SMALL_PRIMES[-1] ** 2:
        return True
    if n < _MR_BOUND:
        return all(_strong_probable_prime(n, a) for a in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas_probable_prime(n)


def _pollard_brent(n: int) -> int:
    """A proper factor of the composite n free of small primes.

    Brent's cycle search on x -> x^2 + c, c = 1, 2, ... in turn, with the
    differences multiplied in batches of 128 between gcds; a batch whose gcd
    is n is replayed one step at a time, and a cycle that still gives n moves
    on to the next c.
    """
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(n: int) -> dict[int, int]:
    """The factorization {prime: exponent} of the positive integer n ({} for 1)."""
    if n < 1:
        raise InvalidInput("only positive integers are factored")
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out[p] = e
    left = [n] if n > 1 else []
    while left:
        m = left.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            d = _pollard_brent(m)
            left += [d, m // d]
    return out
