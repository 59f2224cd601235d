"""Finite fields F_{p^k} with table-backed exact arithmetic.

Elements are plain ints in ``range(q)``: the code ``c0 + c1*p + ... +
c_{k-1}*p^{k-1}`` stands for the residue ``c0 + c1*X + ...`` modulo the field's
modulus polynomial.  A :class:`GF` object owns the precomputed numpy tables.
Addition and multiplication are its methods: ``add``, ``sub`` and ``mul`` on
codes and broadcasting arrays of codes, ``add_``, ``sub_`` and ``mul_`` on two
codes.  How they are stored is private to this module: O(q) log and digit
tables for every field, and the dense q x q tables built from them for a field
of at most 512 elements.  The length-q vectors ``neg``, ``inv``, ``chi`` (the
quadratic character), ``sqrt_table`` (canonical square roots) and ``frob``
(Frobenius) are public arrays for gathers; the log and digit tables of the
batch form evaluator come from :meth:`GF.term_tables`.

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

from .errors import InternalInconsistency, InvalidInput, NotSupportedError
from .integers import _factor, _is_prime


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
# a field keeps dense q x q addition and multiplication tables, 4 q^2 bytes
# together, while they fit here (q <= 512): a broadcast then reads one gather
_DENSE_TABLE_BYTES = 1 << 20


class GF:
    """Finite field F_{p^k} (p odd prime, k <= 4, p^k <= 65535) with precomputed tables.

    The tower above a field is reached through :meth:`extension`,
    :meth:`reaches` (whether a degree is within the tower), :meth:`lift`
    (codes into an extension), :meth:`descend` (codes back down) and
    :meth:`points_field` (the field a form of a given degree is interpolated
    over).

    Sums and products are read off O(q) tables.  A product is
    ``exp[log a + log b]``: ``log 0`` is 2(q - 1) and ``exp`` is 0 from
    2(q - 1) to 4(q - 1), so a product with a zero factor reads 0.  A sum
    spreads the base-p digits of each code into base 2p - 1, where adding two
    spread codes never carries, and one table of (2p - 1)^k entries reduces
    each digit sum mod p.  A field of at most 512 elements also keeps both
    q x q tables, which a broadcast reads in one gather; the scalar methods
    read the O(q) tables as Python lists.  F_{7^4} keeps under 1 MiB of
    tables, F_{13^4} 11 MiB.

    A larger field raises NotSupportedError before any search or allocation:
    past 65535 elements the uint16 codes overflow, and past degree 4 over
    F_p the modulus search stops.

    Use :func:`field` to obtain the cached instance for given (p, k).
    """

    def __init__(self, p: int, k: int = 1):
        if not _is_prime(p):
            raise InvalidInput(f"characteristic {p} is not prime")
        if p == 2:
            raise InvalidInput("characteristic 2 is not supported")
        if not 1 <= k <= _MAX_DEGREE:
            raise NotSupportedError(f"extension degree {k} outside 1..{_MAX_DEGREE}")
        if p**k > _MAX_ORDER:
            raise NotSupportedError(f"F_{p}^{k} has {p**k} elements; uint16 codes stop at {_MAX_ORDER}")
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
        vecs = np.zeros((q, k), dtype=np.int64)
        rem = np.arange(q)
        for i in range(k):
            vecs[:, i] = rem % p
            rem = rem // p
        self._vecs = vecs
        pw = p ** np.arange(k)
        self.neg = (((-vecs) % p) @ pw).astype(np.uint16)

        # addition: spread[x] holds the base-p digits of x in base 2p - 1, so
        # two spread codes add digit by digit without a carry, and reduce
        # takes each digit of such a sum mod p
        base = 2 * p - 1
        sums = np.arange(base**k)
        reduce = np.zeros(base**k, dtype=np.uint16)
        for i in range(k):
            reduce += (sums % base % p * p**i).astype(np.uint16)
            sums //= base
        self._spread = vecs @ base ** np.arange(k)
        self._spread_neg = self._spread[self.neg]
        self._reduce = reduce

        # discrete log on the smallest primitive code
        order_factors = sorted(_factor(q - 1))
        g = None
        for cand in range(2, q):
            if all(self._code_pow(cand, (q - 1) // f) != 1 for f in order_factors):
                g = cand
                break
        if g is None:
            raise InternalInconsistency("the multiplicative group has no generator")
        self.generator = g
        # x -> g*x on every code at once, from the digits of g*X^i; the powers
        # of g are the orbit of 1
        times_g = (((vecs @ vecs[[self._code_mul(g, p**i) for i in range(k)]]) % p) @ pw).tolist()
        powers = [1]
        for _ in range(q - 2):
            powers.append(times_g[powers[-1]])
        # log 0 = 2(q - 1), and exp reads 0 from there on: a product with a
        # zero factor is 0
        exp = np.zeros(4 * (q - 1) + 1, dtype=np.uint16)
        exp[: 2 * (q - 1)] = powers * 2
        log = np.empty(q, dtype=np.int64)
        log[powers] = np.arange(q - 1)
        log[0] = 2 * (q - 1)
        self._exp, self._log = exp, log

        self._dense_add = self._dense_mul = None
        if 4 * q * q <= _DENSE_TABLE_BYTES:
            self._dense_add = self._reduce[self._spread[:, None] + self._spread[None, :]]
            self._dense_mul = exp[log[:, None] + log[None, :]]
        # the scalar methods read the O(q) tables as lists, which give back a
        # Python int faster than an array does; the lists of codes share q ints
        codes = list(range(q))
        self._exp_list = list(map(codes.__getitem__, exp))
        self._reduce_list = list(map(codes.__getitem__, reduce))
        self._log_list = log.tolist()
        self._spread_list, self._spread_neg_list = self._spread.tolist(), self._spread_neg.tolist()

        nz = exp[: q - 1]  # nonzero codes in generator order
        inv = np.zeros(q, dtype=np.uint16)
        inv[nz] = exp[(-log[nz]) % (q - 1)]
        self.inv = inv

        chi = np.zeros(q, dtype=np.int8)
        chi[nz] = np.where(log[nz] % 2 == 0, 1, -1)
        self.chi = chi

        sqrt_table = np.full(q, -1, dtype=np.int32)
        sqrt_table[0] = 0
        even = nz[log[nz] % 2 == 0]
        roots = exp[log[even] // 2]
        sqrt_table[even] = np.minimum(roots, self.neg[roots])
        self.sqrt_table = sqrt_table

        self.frob = self.pow_vector(p)
        self._term_logs: dict[int, np.ndarray] = {}
        self._term_digits: dict[tuple[int, int], np.ndarray] = {}

    def _code_pow(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = self._code_mul(result, base)
            base = self._code_mul(base, base)
            e >>= 1
        return result

    # -- arithmetic ------------------------------------------------------------
    #
    # add, sub and mul take codes or integer arrays of codes, broadcast them
    # against each other, and return uint16 codes (a numpy scalar for two
    # scalars); add_, sub_ and mul_ take two codes and return a Python int

    def add(self, a, b):
        if self._dense_add is None:
            return self._reduce[self._spread[a] + self._spread[b]]
        return self._dense_add[a, b]

    def sub(self, a, b):
        if self._dense_add is None:
            return self._reduce[self._spread[a] + self._spread_neg[b]]
        return self._dense_add[a, self.neg[b]]

    def mul(self, a, b):
        if self._dense_mul is None:
            return self._exp[self._log[a] + self._log[b]]
        return self._dense_mul[a, b]

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
        return self._reduce_list[self._spread_list[a] + self._spread_list[b]]

    def sub_(self, a: int, b: int) -> int:
        return self._reduce_list[self._spread_list[a] + self._spread_neg_list[b]]

    def mul_(self, a: int, b: int) -> int:
        return self._exp_list[self._log_list[a] + self._log_list[b]]

    def neg_(self, a: int) -> int:
        return int(self.neg[a])

    def inverse(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return int(self.inv[a])

    def pow_vector(self, e: int) -> np.ndarray:
        """Table of x -> x^e over all codes (e >= 0)."""
        out = np.zeros(self.q, dtype=np.uint16)
        nz = self._exp[: self.q - 1]
        out[nz] = self._exp[(self._log[nz] * e) % (self.q - 1)]
        if e == 0:
            out[0] = 1
        return out

    def term_tables(self, degree: int, width: int) -> tuple[np.ndarray, np.ndarray]:
        """(log, digits): the tables ``kernels.eval_form_batch`` evaluates terms with.

        ``log[x]`` is the discrete log of a nonzero code x, as a float64 for
        the kernel's matrix product (exact: every log is far below 2^53).  The
        log of a term c*x^e of the given degree with no zero factor is below
        period = (degree + 1)*(q - 2) + 1, and ``log[0]`` is period itself, so
        a term with a zero factor has a log of at least period.  ``digits[t]``
        holds the base-p digits of g^t, digit j in bits [j*width, (j+1)*width),
        for t < period, and 0 from period up to the largest term log.  The log
        table is built once per degree, the digit table once per (degree, width).
        """
        q = self.q
        period = (degree + 1) * (q - 2) + 1
        if degree not in self._term_logs:
            log = self._log.astype(np.float64)
            log[0] = period
            self._term_logs[degree] = log
        if (degree, width) not in self._term_digits:
            packed = (self._vecs << (width * np.arange(self.k))).sum(axis=1)
            digits = np.zeros(q - 2 + degree * period + 1, dtype=np.int64)
            digits[:period] = packed[self._exp[np.arange(period) % (q - 1)]]
            self._term_digits[(degree, width)] = digits
        return self._term_logs[degree], self._term_digits[(degree, width)]

    def sqrt(self, a: int) -> int | None:
        """Canonical square root, or None when a is not a square."""
        r = int(self.sqrt_table[a])
        return None if r < 0 else r

    def frobenius(self, a: int, i: int = 1) -> int:
        for _ in range(i % self.k if self.k > 1 else 0):
            a = int(self.frob[a])
        return a

    def elements(self) -> range:
        return range(self.q)

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)

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

    def descend(self, x, L: "GF") -> np.ndarray:
        """An array of L's codes that lie in self as self's codes (int64): the inverse of :meth:`lift`.

        A code outside self raises InternalInconsistency.
        """
        x = np.asarray(x, dtype=np.int64)
        if L is self:
            return x
        found = x[..., None] == self.lift(np.arange(self.q), L)
        if not found.any(axis=-1).all():
            raise InternalInconsistency(f"a code of {L!r} outside {self!r} cannot come down to it")
        return found.argmax(axis=-1)

    def points_field(self, degree: int) -> "GF":
        """The field whose points pin the forms of a degree: the smallest F_{p^j} with p^j >= degree
        that is a subfield of self or, when no subfield is, an extension (F_9 over F_3 from degree 4)."""
        for j in range(1, self.k + 1):
            if self.k % j == 0 and self.p**j >= degree:
                return field(self.p, j) if j < self.k else self
        return self.extension(next(e for e in range(2, degree) if self.q**e >= degree))

    def __repr__(self) -> str:
        if self.k == 1:
            return f"GF({self.p})"
        return f"GF({self.p}^{self.k})"

    def __reduce__(self):
        return (field, (self.p, self.k))


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
        vals = big.add(big.mul(vals, codes), c)
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
