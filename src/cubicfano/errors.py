"""Every exception the package raises, each defined once.

A refusal names what it refuses: an argument of the wrong shape, an input
outside the paper's hypotheses, a field beyond the tower, or one of the
finitely many excluded points of an operator.  InternalInconsistency is the
one exception that is not a refusal: an identity the mathematics guarantees
has failed, so the program is wrong.
"""


class InternalInconsistency(AssertionError):
    """An invariant that the mathematics guarantees fails: a bug, never a
    property of the input.  Raised explicitly, so it survives ``python -O``."""


class NotSupportedError(ValueError):
    """The computation needs a field outside the tower: an extension degree
    over F_p past 4, more than 65535 elements, or more than 1 GiB of tables.
    A limit of this implementation, not a property of the input."""


class InvalidInput(ValueError):
    """An argument of the wrong shape or range: an arity mismatch, a
    coordinate or coefficient that is not a code of the field, a field of
    characteristic 2 or of a characteristic that is not prime, a singular
    quadratic form for ``local_solvability``, or a point that is not in the
    torsor-ready set."""


class NotGeneral(ValueError):
    """The input breaks a generality hypothesis of the paper: Z not
    zero-dimensional or not reduced where that is required, a degenerate
    fiber, a singular point where smoothness is required."""


class ResampleRequired(ValueError):
    """The computation ran into one of the finitely many excluded points of
    an operator; a caller draws another argument."""


class NeedsExtension(ValueError):
    """The requested object exists only over a larger field than the one
    worked in."""


class NeedsDifferentPrime(ValueError):
    """No scanned prime gives a reduction with a reduced discriminant."""


class NotContained(ValueError):
    """The cubic does not vanish on the given plane."""


class PlaneContained(ValueError):
    """The whole plane lies on the cubic, so there is no residual line."""


class NotOnCubic(ValueError):
    """A claimed line does not lie on the cubic section."""
