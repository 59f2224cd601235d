"""The batch evaluator behind ``HomogeneousForm.evaluate_batch``.

One numpy implementation, the same for F_p and F_{p^k}: a sparse form is
evaluated at many points from the field's log and digit tables
(``GF.term_tables``), with no per-term loop and no call of the field's
addition or multiplication.  A term c*x^e is nonzero exactly
when no variable it uses is zero, and then it is g^t for the term log
t = log c + sum_i e_i*log x_i.  One small product gives every term log at
every point; one gather turns each into the base-p digits of its value,
packed in bit fields of an int64; the sum over the terms adds the digit
vectors field by field, and each field reduced mod p is a digit of the
value.  ``BACKEND`` names it, for reports that record which evaluator ran.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSupportedError

BACKEND = "numpy"

# points per pass: a pass holds a few (CHUNK, T) arrays of 8-byte entries,
# 0.45 MiB each for the 56 terms of a cubic in six variables.  Of chunks of
# 256 to 4096 points, 1024 ran fastest on forms of 26 to 56 terms; 4096 ran
# up to twice as slow.
CHUNK = 1024


def digit_width(n_terms: int, p: int, k: int) -> int:
    """Bits per digit field, so that summing n_terms digit vectors never carries.

    Each of the k fields of a sum holds at most n_terms*(p - 1).  All k fields
    must fit in the 63 value bits of an int64; a form with too many terms for
    that is refused rather than evaluated wrongly.
    """
    width = (n_terms * (p - 1)).bit_length()
    if k * width > 63:
        raise NotSupportedError(
            f"{n_terms} terms over F_{p}^{k} need {k} digit fields of {width} bits; an int64 holds 63"
        )
    return width


def eval_form_batch(K, degree, width, exps, coeffs, points):
    """Evaluate one sparse form at many points.

    K       : the field; its ``term_tables(degree, width)`` are read
    degree  : the form's degree
    width   : ``digit_width(T, K.p, K.k)``, the bits of one digit field
    exps    : (T, n) uint8 exponent rows
    coeffs  : (T,) uint16 nonzero term coefficients
    points  : (N, n) uint16 element codes
    returns : (N,) uint16 values
    """
    log, digits = K.term_tables(degree, width)
    term_exps = exps.T.astype(np.float64, order="C")
    coeff_logs = log[coeffs]
    mask = (1 << width) - 1
    out = np.empty(points.shape[0], dtype=np.uint16)
    for lo in range(0, points.shape[0], CHUNK):
        # a float64 product is exact here: every term log is below 2^53
        term_logs = log[points[lo : lo + CHUNK]] @ term_exps
        term_logs += coeff_logs
        sums = np.take(digits, term_logs.astype(np.intp)).sum(axis=1)
        value = (sums & mask) % K.p
        for j in range(1, K.k):
            value += ((sums >> (j * width)) & mask) % K.p * K.p**j
        out[lo : lo + CHUNK] = value
    return out
