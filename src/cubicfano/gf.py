"""Finite fields F_{p^k} with table-backed exact arithmetic.

Elements are plain ints in ``range(q)``: the code ``c0 + c1*p + ... +
c_{k-1}*p^{k-1}`` stands for the residue ``c0 + c1*X + ...`` modulo the field's
modulus polynomial.  A :class:`GF` object owns the precomputed numpy tables
(addition, multiplication, inverses, quadratic character, canonical square
roots, Frobenius) so that scalar code stays readable and batch code can run as
pure table gathers.

Conventions, fixed once so serialized data is portable.  Coefficient words are
ordered by their value as base-p integers with the constant digit least
significant -- exactly the element code.  Under that order:

* the modulus is the smallest irreducible monic polynomial of degree k over
  F_p (x^2+1 for F_9 and F_49, x^2+2 for F_25);
* the canonical square root of a is the smaller of the two roots;
* embeddings into larger fields send the generator to the smallest root of
  the small modulus.

Characteristic 2 is rejected outright.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


class CharacteristicTwoError(ValueError):
    """Raised when a field of characteristic 2 is requested."""


class NotSupportedError(ValueError):
    """Raised for parameters outside the supported desk scale."""


class InternalInconsistency(AssertionError):
    """Exact division produced something structurally impossible."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient tuples, low degree first)
# ---------------------------------------------------------------------------


def _poly_mod(num: tuple[int, ...], den: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of num modulo den (den monic), coefficients mod p."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return tuple(c % p for c in num[:dd])


def _poly_mul(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def _poly_divides(den: tuple[int, ...], num: tuple[int, ...], p: int) -> bool:
    return not any(_poly_mod(num, den, p))


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Irreducibility of a monic polynomial of degree <= 4 over F_p."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    # root check kills any linear factor (sufficient for degrees 2 and 3)
    for r in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * r + c) % p
        if acc == 0:
            return False
    if deg <= 3:
        return True
    if deg == 4:
        for c0 in range(p):
            for c1 in range(p):
                if _poly_divides((c0, c1, 1), coeffs, p):
                    return False
        return True
    raise NotSupportedError(f"irreducibility test limited to degree 4, got {deg}")


def canonical_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest irreducible monic modulus for F_{p^k} in code order.

    Returned low-degree-first including the leading 1, e.g. ``(1, 0, 1)`` for
    x^2 + 1 over F_3.
    """
    if k == 1:
        return (0, 1)
    for code in range(p**k):
        tail, rem = [], code
        for _ in range(k):
            tail.append(rem % p)
            rem //= p
        coeffs = tuple(tail) + (1,)
        if _is_irreducible(coeffs, p):
            return coeffs
    raise InternalInconsistency(f"no irreducible polynomial of degree {k} over F_{p}")


# ---------------------------------------------------------------------------
# the field object
# ---------------------------------------------------------------------------

# the top of the extension tower, in degree over F_p: the irreducibility test
# that picks the modulus stops at degree 4
_MAX_DEGREE = 4
# element codes and table entries are uint16
_MAX_ORDER = 65535
# the dense q x q addition and multiplication tables, 4 q^2 bytes together
_MAX_TABLE_BYTES = 1 << 30


class GF:
    """Finite field F_{p^k} (p odd prime, k <= 4, p^k <= 16384) with precomputed tables.

    The tower above a field is reached through :meth:`extension`,
    :meth:`reaches` (whether a degree is within the tower) and :meth:`lift`
    (codes into an extension).

    A larger field raises NotSupportedError before any search or allocation:
    past 65535 elements the uint16 codes overflow, and past 16384 the two
    q x q tables would take more than 1 GiB.  The tables are built in row
    blocks, so that bound holds for the build's peak as well, up to a few
    tens of MiB.

    Use :func:`field` to obtain the cached instance for given (p, k).
    """

    def __init__(self, p: int, k: int = 1):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if p == 2:
            raise CharacteristicTwoError("characteristic 2 is not supported")
        if not 1 <= k <= _MAX_DEGREE:
            raise NotSupportedError(f"extension degree {k} outside 1..{_MAX_DEGREE}")
        if p**k > _MAX_ORDER:
            raise NotSupportedError(f"F_{p}^{k} has {p**k} elements; uint16 codes stop at {_MAX_ORDER}")
        if 4 * p ** (2 * k) > _MAX_TABLE_BYTES:
            raise NotSupportedError(
                f"F_{p}^{k} needs {4 * p ** (2 * k) / 2**30:.2f} GiB of addition and multiplication tables;"
                " the limit is 1 GiB"
            )
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = canonical_modulus(p, k)
        self._build_tables()

    # -- construction -------------------------------------------------------

    def _code_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(self.decode(a), self.decode(b), self.p)
        return self.encode(_poly_mod(prod, self.modulus, self.p))

    def _build_tables(self) -> None:
        p, k, q = self.p, self.k, self.q
        # coefficient matrix: vecs[code] = (c0, ..., c_{k-1})
        vecs = np.zeros((q, k), dtype=np.int16)
        rem = np.arange(q)
        for i in range(k):
            vecs[:, i] = rem % p
            rem = rem // p
        self._vecs = vecs
        pw = p ** np.arange(k)

        # addition is digitwise mod p; both tables are built in row blocks,
        # so the build peaks near the tables it keeps
        add = np.empty((q, q), dtype=np.uint16)
        step = max(1, (1 << 22) // (q * k))
        for lo in range(0, q, step):
            blk = (vecs[lo : lo + step, None, :] + vecs[None, :, :]) % p
            add[lo : lo + step] = blk.astype(np.int64) @ pw
        self.add = add
        self.neg = (((-vecs) % p).astype(np.int64) @ pw).astype(np.uint16)

        # discrete log on the smallest primitive code
        order_factors = _prime_factors(q - 1)
        g = None
        for cand in range(2, q):
            if all(self._code_pow(cand, (q - 1) // f) != 1 for f in order_factors):
                g = cand
                break
        if g is None:
            raise InternalInconsistency("the multiplicative group has no generator")
        self.generator = g
        exp = np.empty(q - 1, dtype=np.uint16)
        acc = 1
        for i in range(q - 1):
            exp[i] = acc
            acc = self._code_mul(acc, g)
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self._exp, self._log = exp, log

        mul = np.zeros((q, q), dtype=np.uint16)
        nz = exp  # nonzero codes in generator order
        for lo in range(0, q - 1, step):
            sums = log[nz[lo : lo + step], None] + log[None, nz]
            mul[np.ix_(nz[lo : lo + step], nz)] = exp[sums % (q - 1)]
        self.mul = mul

        inv = np.zeros(q, dtype=np.uint16)
        inv[nz] = exp[(-(self._log[nz])) % (q - 1)]
        self.inv = inv

        chi = np.zeros(q, dtype=np.int8)
        chi[nz] = np.where(self._log[nz] % 2 == 0, 1, -1)
        self.chi = chi

        sqrt_table = np.full(q, -1, dtype=np.int32)
        sqrt_table[0] = 0
        even = nz[self._log[nz] % 2 == 0]
        roots = exp[(self._log[even] // 2) % (q - 1)]
        sqrt_table[even] = np.minimum(roots, self.neg[roots])
        self.sqrt_table = sqrt_table

        self.frob = self.pow_vector(p)
        self._pow_cache: dict[int, np.ndarray] = {0: np.ones(q, dtype=np.uint16), 1: np.arange(q, dtype=np.uint16)}
        self._pow_cache[0][0] = 1  # 0^0 = 1 by convention (never used on forms)

    def _code_pow(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self._code_mul(result, base)
            base = self._code_mul(base, base)
            e >>= 1
        return result

    # -- scalar arithmetic ---------------------------------------------------

    def encode(self, coeffs) -> int:
        code = 0
        for c in reversed(tuple(coeffs)):
            code = code * self.p + int(c) % self.p
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def add_(self, a: int, b: int) -> int:
        return int(self.add[a, b])

    def sub_(self, a: int, b: int) -> int:
        return int(self.add[a, self.neg[b]])

    def mul_(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def neg_(self, a: int) -> int:
        return int(self.neg[a])

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return int(self.inv[a])

    def div_(self, a: int, b: int) -> int:
        return self.mul_(a, self.inverse(b))

    def pow_(self, a: int, e: int) -> int:
        if a == 0:
            return 0 if e else 1
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    def pow_vector(self, e: int) -> np.ndarray:
        """Table of x -> x^e over all codes (e >= 0)."""
        out = np.zeros(self.q, dtype=np.uint16)
        nz = self._exp
        out[nz] = self._exp[(self._log[nz] * e) % (self.q - 1)]
        if e == 0:
            out[0] = 1
        return out

    def powers(self, maxdeg: int) -> np.ndarray:
        """Stacked pow tables, shape (maxdeg+1, q); row e maps x -> x^e."""
        for e in range(maxdeg + 1):
            if e not in self._pow_cache:
                self._pow_cache[e] = self.pow_vector(e)
        return np.stack([self._pow_cache[e] for e in range(maxdeg + 1)])

    def sqrt(self, a: int) -> int | None:
        """Canonical square root, or None when a is not a square."""
        r = int(self.sqrt_table[a])
        return None if r < 0 else r

    def chi_(self, a: int) -> int:
        return int(self.chi[a])

    def frobenius(self, a: int, i: int = 1) -> int:
        for _ in range(i % self.k if self.k > 1 else 0):
            a = int(self.frob[a])
        return a

    def elements(self) -> range:
        return range(self.q)

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)

    def random_nonzero(self, rng) -> int:
        return rng.randrange(1, self.q)

    # -- the extension tower ---------------------------------------------------

    def reaches(self, d: int) -> bool:
        """Whether the tower builds F_{q^d}: its degree over F_p is at most 4."""
        return 1 <= self.k * d <= _MAX_DEGREE

    def extension(self, d: int) -> "GF":
        """The cached field F_{q^d}; self when d = 1."""
        return self if d == 1 else field(self.p, self.k * d)

    def lift(self, x, L: "GF"):
        """Codes of self pushed into the extension L by the canonical embedding.

        x is a code (an int comes back), nested tuples or lists of codes
        (nested tuples of ints come back) or a numpy array of codes (an int64
        array comes back).  L = self is the identity.
        """
        emb = None if L is self else _embedding(self.p, self.k, L.k)
        if isinstance(x, np.ndarray):
            return np.array(x if emb is None else emb[x], dtype=np.int64)

        def push(v):
            if isinstance(v, (tuple, list)):
                return tuple(push(w) for w in v)
            return int(v) if emb is None else int(emb[v])

        return push(x)

    def embedding_into(self, big: "GF") -> np.ndarray:
        """Code map of the canonical embedding self -> big (needs self.k | big.k)."""
        return _embedding(self.p, self.k, big.k)

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def __reduce__(self):
        return (field, (self.p, self.k))


def _prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


_FIELDS: dict[tuple[int, int], GF] = {}


def field(p: int, k: int = 1) -> GF:
    """The field F_{p^k} with canonical modulus, built once per (p, k)."""
    if (p, k) not in _FIELDS:
        _FIELDS[(p, k)] = GF(p, k)
    return _FIELDS[(p, k)]


@lru_cache(maxsize=None)
def _embedding(p: int, small_k: int, big_k: int) -> np.ndarray:
    if big_k % small_k:
        raise NotSupportedError(f"no embedding F_{p}^{small_k} -> F_{p}^{big_k}")
    small, big = field(p, small_k), field(p, big_k)
    if small_k == 1:
        return np.arange(p, dtype=np.uint16)
    # canonical root of the small modulus in the big field: smallest code
    codes = np.arange(big.q)
    vals = np.full(big.q, small.modulus[-1], dtype=np.uint16)
    for c in reversed(small.modulus[:-1]):
        vals = big.add[big.mul[vals, codes], c]
    roots = codes[vals == 0]
    if len(roots) != small_k:
        raise InternalInconsistency(f"the modulus of F_{p}^{small_k} has {len(roots)} roots in F_{p}^{big_k}")
    rho = int(roots[0])
    # x = sum c_i alpha^i  ->  sum c_i rho^i
    images = np.zeros(small.q, dtype=np.uint16)
    rho_pow = [1]
    for _ in range(small_k - 1):
        rho_pow.append(big.mul_(rho_pow[-1], rho))
    for code in range(small.q):
        acc = 0
        for c, rp in zip(small.decode(code), rho_pow):
            acc = big.add_(acc, big.mul_(c, rp))
        images[code] = acc
    return images


@lru_cache(maxsize=None)
def section_onto(p: int, big_k: int, small_k: int) -> dict[int, int]:
    """Partial inverse of the canonical embedding, as a dict big-code -> small-code."""
    emb = _embedding(p, small_k, big_k)
    return {int(v): i for i, v in enumerate(emb)}
