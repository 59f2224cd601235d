"""Small dense linear algebra over a finite field.

Matrices are numpy arrays of element codes (any integer dtype); all routines
return fresh int64 arrays and never mutate their inputs.  Sizes here are
small: in the package's own calls the largest product is with the 56 x 56
inverse that interpolates a cubic in six variables, and the largest row
reduction picks that cubic's interpolation points among the 364 points of
P^5(F_3), once.  Everything is Gaussian elimination on the field's
vectorized ``add``, ``sub`` and ``mul``, except two flats that have a closed
form: the reduced echelon basis of a hyperplane {ell = 0}
(:func:`hyperplane_rows`) and the unit vectors completing a vector to a
basis (:func:`unit_complement`).  Every module takes those two from here.
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def rref(K: GF, mat) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns.

    Zero rows are dropped, so the result has exactly ``rank`` rows.  The RREF
    is the canonical representative of the row space.
    """
    A = np.array(mat, dtype=np.int64) % K.q
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if A[i, c]), None)
        if pivot is None:
            continue
        A[[r, pivot]] = A[[pivot, r]]
        A[r] = K.mul(A[r], K.inverse(int(A[r, c])))
        # every other row loses its entry in column c times the pivot row
        factors = A[:, c].copy()
        factors[r] = 0
        A[:] = K.sub(A, K.mul(factors[:, None], A[r]))
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A[:r], pivots


def rref_stack(K: GF, mats) -> tuple[np.ndarray, np.ndarray]:
    """The reduced row echelon form of every matrix of an (n, rows, cols) stack, and their ranks.

    One Gaussian elimination sweeps the columns of the whole stack; in each
    matrix the pivot of a column is its first nonzero entry in a row not yet
    used as a pivot.  R[i, :rank[i]] equals ``rref(K, mats[i])[0]`` and the
    rows below are zero.  On a single small matrix the sweep's fixed cost per
    column outweighs the work of :func:`rref`'s column step (a 2 x 5 matrix
    over F_3 takes about three times as long), so :func:`rref` stays for the
    one-matrix calls.
    """
    A = np.array(mats, dtype=np.int64) % K.q
    n, rows, cols = A.shape
    free = np.ones((n, rows), dtype=bool)
    pivot_col = np.full((n, rows), cols)
    every = np.arange(n)
    for c in range(cols):
        candidates = (A[:, :, c] != 0) & free
        first = candidates.argmax(axis=1)
        s = np.flatnonzero(candidates[every, first])
        if not len(s):
            continue
        p = first[s]
        B = A[s]
        at = np.arange(len(s))
        pivot_row = K.mul(K.inv[B[at, p, c]][:, None], B[at, p])
        B = K.sub(B, K.mul(B[:, :, c, None], pivot_row[:, None, :]))
        B[at, p] = pivot_row
        A[s] = B
        free[s, p] = False
        pivot_col[s, p] = c
    order = np.argsort(pivot_col, axis=1, kind="stable")
    return np.take_along_axis(A, order[:, :, None], axis=1), (~free).sum(axis=1)


def rank(K: GF, mat) -> int:
    return rref(K, mat)[0].shape[0]


def kernel_basis(K: GF, mat) -> np.ndarray:
    """RREF basis of the right null space of mat (rows are basis vectors)."""
    A, pivots = rref(K, mat)
    cols = np.array(mat, dtype=np.int64).shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for idx, c in enumerate(free):
        basis[idx, c] = 1
        for r, pc in enumerate(pivots):
            basis[idx, pc] = K.neg[A[r, c]]
    if len(basis):
        basis, _ = rref(K, basis)
    return basis


def _last_nonzero(vecs: np.ndarray) -> np.ndarray:
    """The index of the last nonzero entry of each vector of a (..., n) stack; n - 1 for a zero vector."""
    return vecs.shape[-1] - 1 - (vecs[..., ::-1] != 0).argmax(axis=-1)


def unit_complement(vecs) -> np.ndarray:
    """The n - 1 indices other than the last nonzero one of each vector of a (..., n) stack, ascending.

    The vector and the unit vectors at these indices are a basis; a zero
    vector gives the indices other than n - 1.
    """
    vecs = np.asarray(vecs)
    p = np.arange(vecs.shape[-1] - 1)
    return p + (p >= _last_nonzero(vecs)[..., None])


def hyperplane_rows(K: GF, ells) -> np.ndarray:
    """The reduced echelon basis of {ell . x = 0} for each linear form of a (..., n) stack, as (..., n - 1, n).

    With j the last index where ell is nonzero, the rows are
    e_p - (ell_p / ell_j) e_j for p != j, ascending: row p has its pivot at p,
    and j is the one free column.  So this is ``kernel_basis(K, [ell])``
    without an elimination.  A zero form gives the unit rows e_p, p < n - 1.
    """
    ells = np.asarray(ells, dtype=np.int64)
    j = _last_nonzero(ells)[..., None]
    others = unit_complement(ells)
    coef = K.neg[K.mul(np.take_along_axis(ells, others, axis=-1), K.inv[np.take_along_axis(ells, j, axis=-1)])]
    cols = np.arange(ells.shape[-1])
    return np.where(cols == j[..., None], coef[..., None], cols == others[..., None]).astype(np.int64)


def inverse_matrix(K: GF, mat) -> np.ndarray:
    A = np.array(mat, dtype=np.int64)
    n = A.shape[0]
    aug = np.hstack([A, np.eye(n, dtype=np.int64)])
    R, pivots = rref(K, aug)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return R[:, n:]


def det(K: GF, mats) -> np.ndarray:
    """The determinant of every matrix of a (..., n, n) stack, as codes of shape (...).

    One forward elimination sweeps the columns of the whole stack; the pivot
    of column c, its first nonzero entry in rows c and below, is swapped into
    row c, negating the product of the pivots.  A column without one has the
    pivot 0, which zeroes the product, and K.inv[0] = 0 eliminates nothing.
    """
    A = np.array(mats, dtype=np.int64) % K.q
    *lead, n, _ = A.shape
    A = A.reshape(int(np.prod(lead)), n, n)
    every = np.arange(len(A))
    result = np.ones(len(A), dtype=np.int64)
    for c in range(n):
        p = c + (A[:, c:, c] != 0).argmax(axis=1)
        swapped = p != c
        result[swapped] = K.neg[result[swapped]]
        A[every, c], A[every, p] = A[every, p], A[every, c]
        pivot = A[:, c, c]
        result = K.mul(result, pivot).astype(np.int64)
        factors = K.mul(A[:, c + 1 :, c], K.inv[pivot][:, None])
        A[:, c + 1 :, c:] = K.sub(A[:, c + 1 :, c:], K.mul(factors[:, :, None], A[:, None, c, c:]))
    return result.reshape(lead)


# the longest summed axis that dot adds up one field addition per entry
_SHORT_AXIS = 8


def dot(K: GF, u, v) -> np.ndarray:
    """Dot products u . v along the last axis (broadcasting), as codes.

    A short axis, as in the stacked fiber and plane-section products, is
    added up one field addition per entry.  A longer one, as in an
    interpolation, is added up in one pass: addition is digitwise mod p, so
    the base-p digits of the products are summed and reduced once.
    """
    if u.shape[-1] <= _SHORT_AXIS:
        acc = K.mul(u[..., 0], v[..., 0])
        for i in range(1, u.shape[-1]):
            acc = K.add(acc, K.mul(u[..., i], v[..., i]))
        return acc
    prods = K.mul(u, v)
    out = 0
    for j in range(K.k):
        out = out + (prods // K.p**j % K.p).sum(axis=-1) % K.p * K.p**j
    return out


def mat_mul(K: GF, A, B) -> np.ndarray:
    A = np.asarray(A, dtype=np.int64)
    B = np.asarray(B, dtype=np.int64)
    return dot(K, A[:, None, :], B.T[None, :, :]).astype(np.int64)


def mat_vec(K: GF, A, v) -> np.ndarray:
    """A v for stacks of matrices (..., m, n) and vectors (..., n), broadcasting."""
    v = np.asarray(v, dtype=np.int64)
    return dot(K, np.asarray(A, dtype=np.int64), v[..., None, :]).astype(np.int64)


def minors(K: GF, u, v, pairs) -> np.ndarray:
    """The 2x2 minors u_i v_j - u_j v_i of vectors u and v (..., n), broadcasting.

    One minor per index pair (i, j), along the last axis: the pairs (1, 2),
    (2, 0), (0, 1) give the cross product of 3-vectors, the six pairs i < j
    of 4-vectors the Plucker coordinates of the line they span.
    """
    i, j = np.array(pairs).T
    return K.sub(K.mul(u[..., i], v[..., j]), K.mul(u[..., j], v[..., i]))
