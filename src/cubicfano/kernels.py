"""The batch evaluator behind ``HomogeneousForm.evaluate_batch``.

One numpy implementation: a sparse form is evaluated at many points by
gathers from the field's addition, multiplication and power tables.
``BACKEND`` names it, for reports that record which evaluator ran.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def eval_form_batch(add, mul, pows, exps, coeffs, points):
    """Evaluate one sparse form at many points.

    add, mul : (q, q) uint16 field tables
    pows     : (maxdeg+1, q) uint16, pows[e, x] = x**e
    exps     : (T, n) uint8 exponent rows
    coeffs   : (T,) uint16 nonzero term coefficients
    points   : (N, n) uint16 element codes
    returns  : (N,) uint16 values
    """
    n_points = points.shape[0]
    acc = np.zeros(n_points, dtype=np.uint16)
    for t in range(exps.shape[0]):
        term = np.full(n_points, coeffs[t], dtype=np.uint16)
        for i in range(exps.shape[1]):
            e = int(exps[t, i])
            if e:
                term = mul[term, pows[e, points[:, i]]]
        acc = add[acc, term]
    return acc
