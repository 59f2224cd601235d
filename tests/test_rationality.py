"""Rationality witnesses over finite fields and the semidecision over Q."""

import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_impl import (
    diagonalize_by_fractions,
    discriminant_sextic_by_sympy,
    good_reduction_prime,
    lines_by_four_values,
    nodes_by_sympy_resultant,
    pencil_member_matrix,
    points_on_cubic_by_term_loops,
    q_clear_denominators,
    q_derivative,
    q_evaluate,
    q_substitute,
    rational_roots_by_factor_list,
    squarefree_class,
    times,
)

from cubicfano import integers, rationality
from cubicfano.errors import InternalInconsistency, InvalidInput, NotGeneral
from cubicfano.gf import field
from cubicfano.projective import LinearSubspace
from cubicfano.rationality import (
    RationalQuadricForm,
    _residue_solution_count,
    decide_over_finite_field,
    decide_over_rationals,
    hilbert_symbol,
    local_solvability,
    obstruction_confirmed_by_residues,
)
from cubicfano.forms import HomogeneousForm, monomial_exponents
from cubicfano.threefold import normalize, random_general_threefold


CUBIC_MONOMIALS = monomial_exponents(5, 3)


def coefficient_vector(terms, nvars=5, degree=3):
    """An integer form {exponent tuple: c} as its coefficient vector, Python integers on the layout."""
    return np.array([terms.get(e, 0) for e in monomial_exponents(nvars, degree)], dtype=object)


def terms_of(coeffs):
    """The {exponent tuple: c} dict of a cubic's coefficient vector, for the term-loop oracles."""
    return {e: c for e, c in zip(CUBIC_MONOMIALS, coeffs.tolist()) if c}


def normalized(terms, rows=rationality._STANDARD_PLANE_ROWS):
    return rationality._normalize_rational_cubic(terms, rows)[0]


def seeded_example(p, seed):
    return random_general_threefold(field(p), random.Random(seed))


def diagonal_form(*entries):
    return RationalQuadricForm.from_entries(
        [[entries[i] if i == j else 0 for j in range(4)] for i in range(4)]
    )


# ---------------------------------------------------------------------------
# local solvability of rank-4 quadratic forms
# ---------------------------------------------------------------------------


def test_definite_form_is_obstructed_at_the_real_place():
    out = local_solvability(diagonal_form(1, 1, 1, 1))
    assert not out.solvable and out.obstruction == "real"
    assert obstruction_confirmed_by_residues(out.diagonal, out.obstruction)
    assert local_solvability(diagonal_form(-1, -2, -3, -1)).obstruction == "real"


def test_split_form_is_solvable_with_a_sparse_witness():
    out = local_solvability(diagonal_form(1, 1, -1, -1))
    assert out.solvable and out.obstruction is None
    assert out.witness == (1, 0, 1, 0)


def test_three_squares_minus_seven_is_obstructed_at_two():
    # integers congruent to 7 mod 8 are not sums of three squares, and the
    # obstruction is 2-adic
    assert all((a * a + b * b + c * c) % 8 != 7 for a in range(8) for b in range(8) for c in range(8))
    out = local_solvability(diagonal_form(1, 1, 1, -7))
    assert not out.solvable and out.obstruction == 2
    assert obstruction_confirmed_by_residues(out.diagonal, out.obstruction)


def test_solvable_witnesses_satisfy_the_form():
    hyperbolic = RationalQuadricForm.from_entries(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]]
    )
    for q in (hyperbolic, diagonal_form(1, 2, -3, 5), diagonal_form(2, -1, 7, -14)):
        out = local_solvability(q)
        assert out.solvable
        v = out.witness
        assert v is not None and any(v)
        assert sum(q.gram[i][j] * v[i] * v[j] for i in range(4) for j in range(4)) == 0


def test_singular_form_raises_degenerate():
    with pytest.raises(InvalidInput, match="the quadratic form is singular"):
        local_solvability(diagonal_form(1, 2, 3, 0))


def is_nonzero_square(n) -> bool:
    return n > 0 and math.isqrt(n) ** 2 == n


def test_diagonalization_is_a_congruence():
    # the transform C lives in the Fraction oracle: C^T A C = diag and
    # prod(diag) = det A are checked there, and the package's integer diagonal
    # is a congruence diagonal of G when disc(G) times its product is a square
    rng = random.Random(11)
    for _ in range(25):
        M = [[Fraction(0)] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                M[i][j] = M[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        diag, C = diagonalize_by_fractions(M)
        for i in range(4):
            for j in range(4):
                got = sum(C[a][i] * M[a][b] * C[b][j] for a in range(4) for b in range(4))
                assert got == (diag[i] if i == j else 0)
        assert math.prod(diag) == sympy.Matrix(M).det() != 0
        q = RationalQuadricForm.from_entries(M)
        assert is_nonzero_square(int(sympy.Matrix(q.gram).det()) * math.prod(q.diagonalization[0]))


def _random_unimodular(rng):
    U = np.eye(4, dtype=np.int64)
    for _ in range(6):
        i, j = rng.sample(range(4), 2)
        E = np.eye(4, dtype=np.int64)
        E[i, j] = rng.choice([-2, -1, 1, 2])
        U = U @ E
    return U


def test_solvability_is_invariant_under_unimodular_congruence():
    rng = random.Random(4)
    samples = [diagonal_form(1, 1, 1, 1), diagonal_form(1, 1, 1, -7),
               diagonal_form(1, 2, -3, 5), diagonal_form(3, -1, 1, 1)]
    for q in samples:
        expected = local_solvability(q)
        for _ in range(4):
            U = _random_unimodular(rng)
            moved = [[sum(Fraction(U[a][i]) * q.gram[a][b] * U[b][j] for a in range(4) for b in range(4))
                      for j in range(4)] for i in range(4)]
            got = local_solvability(RationalQuadricForm.from_entries(moved))
            assert got.solvable == expected.solvable
            assert got.obstruction == expected.obstruction


def test_numpy_entries_diagonalize_in_python_integers():
    # a Fraction keeps the numpy integers it is built from, and int64
    # arithmetic would wrap past 2^63 (numpy warns, which fails the run)
    big = 2**40 + 15
    M = np.array([[big, 3, 0, 1], [3, -big, 2, 0], [0, 2, big, 5], [1, 0, 5, -7]], dtype=np.int64)
    det = int(sympy.Matrix(M.tolist()).det())
    for rows in (M, [[Fraction(v) for v in row] for row in M]):
        q = RationalQuadricForm.from_entries(rows)
        diag, scales = q.diagonalization
        entries = [x for row in q.gram for x in row] + list(diag) + list(scales) + [q.scale]
        assert all(type(x) is int for x in entries)
        assert is_nonzero_square(det * math.prod(diag))
    assert math.prod(diagonalize_by_fractions(M.tolist())[0]) == det
    # the squarefree parts go to three-argument pow, which refuses np.int64
    small = np.diag(np.array([1, 1, 1, -7], dtype=np.int64))
    assert local_solvability(RationalQuadricForm.from_entries(small)).obstruction == 2


def test_scaling_the_form_preserves_solvability():
    for q, scale in ((diagonal_form(1, 1, 1, -7), 3), (diagonal_form(1, 2, -3, 5), -2)):
        scaled = RationalQuadricForm.from_entries(
            [[scale * v for v in row] for row in q.gram]
        )
        assert local_solvability(scaled).solvable == local_solvability(q).solvable


# ---------------------------------------------------------------------------
# Hilbert symbols and residue counting
# ---------------------------------------------------------------------------


def test_hilbert_symbol_frozen_values():
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, -1, "real") == -1
    assert hilbert_symbol(2, 5, 5) == -1  # 2 is not a square mod 5
    assert hilbert_symbol(2, 7, 7) == 1  # 2 is a square mod 7
    assert hilbert_symbol(3, 3, 3) == -1  # x^2 = 3(1 - y^2) needs -1 a square
    assert hilbert_symbol(5, 7, 11) == 1  # units at an odd prime not dividing them
    with pytest.raises(InvalidInput):
        hilbert_symbol(0, 3, 5)


@given(st.sampled_from([2, 3, 5, 7, 11]),
       st.integers(-30, 30).filter(lambda v: v != 0),
       st.integers(-30, 30).filter(lambda v: v != 0),
       st.integers(-30, 30).filter(lambda v: v != 0))
@settings(max_examples=150, deadline=None)
def test_hilbert_symbol_is_bimultiplicative(p, a, b, c):
    assert hilbert_symbol(a, b * c, p) == hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
    assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)


def test_hilbert_symbol_product_formula():
    # over all places the symbols multiply to 1
    rng = random.Random(9)
    for _ in range(40):
        a = rng.choice([v for v in range(-20, 21) if v])
        b = rng.choice([v for v in range(-20, 21) if v])
        places = {2, "real"}
        places.update(sympy.factorint(a * b).keys())
        places.discard(-1)
        prod = 1
        for p in places:
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


def test_residue_count_matches_brute_force():
    rng = random.Random(0)
    for _ in range(5):
        diag = [rng.choice([-7, -5, -3, -2, -1, 1, 2, 3, 5, 7]) for _ in range(4)]
        for mod in (8, 9, 25):
            brute = sum(
                1
                for v in itertools.product(range(mod), repeat=4)
                if sum(d * x * x for d, x in zip(diag, v)) % mod == 0
            )
            assert _residue_solution_count(diag, mod) == brute


def test_residue_recheck_rejects_isotropic_forms():
    assert not obstruction_confirmed_by_residues((1, 1, -1, -1), 2)
    assert not obstruction_confirmed_by_residues((1, 1, -1, -1), "real")
    assert not obstruction_confirmed_by_residues((1, 2, -3, 5), 3)


# ---------------------------------------------------------------------------
# finite fields: a witness always exists
# ---------------------------------------------------------------------------


def test_node_witness_over_f5():
    verdict = decide_over_finite_field(seeded_example(5, 44))
    assert verdict.kind == "Rational"
    assert verdict.witness == {"type": "node", "point": [0, 0, 1, 0, 1]}


def test_line_witness_when_the_node_scheme_has_no_rational_point():
    # the node scheme is a single closed point of degree 4, so the witness
    # must fall through to a rational line disjoint from the plane
    verdict = decide_over_finite_field(seeded_example(5, 9))
    assert verdict.kind == "Rational"
    assert verdict.witness == {
        "type": "line_disjoint_from_plane",
        "rows": [[1, 0, 0, 2, 0], [0, 1, 2, 1, 0]],
    }
    assert verdict.bounds["torsor_points"] == 17

    verdict = decide_over_finite_field(seeded_example(5, 10))
    assert verdict.witness["type"] == "line_disjoint_from_plane"


def test_finite_field_sweep_never_fails():
    rng = random.Random(99)
    kinds = set()
    for _ in range(20):
        verdict = decide_over_finite_field(random_general_threefold(field(5), rng))
        assert verdict.kind == "Rational"
        kinds.add(verdict.witness["type"])
    assert "node" in kinds and "line_disjoint_from_plane" in kinds
    for _ in range(10):
        verdict = decide_over_finite_field(random_general_threefold(field(3), rng))
        assert verdict.kind == "Rational"


def test_nonreduced_discriminant_is_refused():
    K = field(5)
    Q = HomogeneousForm(K, 5, 2, {(0, 0, 2, 0, 0): 1, (0, 0, 0, 1, 1): 1, (1, 1, 0, 0, 0): 1})
    x0 = HomogeneousForm.monomial(K, 5, (1, 0, 0, 0, 0))
    x1 = HomogeneousForm.monomial(K, 5, (0, 1, 0, 0, 0))
    cubic = times(x0, Q).plus(times(x1, Q))
    rows = np.zeros((3, 5), dtype=np.int64)
    rows[0, 2] = rows[1, 3] = rows[2, 4] = 1
    nf = normalize(cubic, LinearSubspace(K, rows))
    with pytest.raises(NotGeneral):
        decide_over_finite_field(nf)


# ---------------------------------------------------------------------------
# the semidecision over Q
# ---------------------------------------------------------------------------

NODE_EXAMPLE = {
    (1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): -1,   # x0*(x2^2 - x3^2)
    (0, 1, 0, 2, 0): 1, (0, 1, 0, 0, 2): -1,   # x1*(x3^2 - x4^2)
    (2, 0, 0, 0, 1): 1, (2, 0, 1, 0, 0): -2, (0, 2, 0, 1, 0): -2,
}

LINE_EXAMPLE = {
    (0, 1, 0, 0, 2): 3, (0, 1, 0, 2, 0): 2, (0, 1, 1, 1, 0): 1, (0, 1, 2, 0, 0): 1,
    (0, 2, 0, 0, 1): 2, (0, 2, 0, 1, 0): -1, (0, 2, 1, 0, 0): 1, (0, 3, 0, 0, 0): -1,
    (1, 0, 0, 0, 2): 1, (1, 0, 0, 2, 0): 1, (1, 0, 2, 0, 0): 1,
    (1, 2, 0, 0, 0): -3, (2, 0, 0, 0, 1): -1, (2, 1, 0, 0, 0): -1, (3, 0, 0, 0, 0): -1,
}

DEFINITE_PENCIL_EXAMPLE = {
    (3, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): 1, (1, 0, 0, 0, 2): 1,
    (0, 3, 0, 0, 0): 1, (0, 1, 1, 1, 0): 1, (0, 1, 0, 0, 2): -1,
}

UNKNOWN_EXAMPLE = {
    (0, 1, 0, 0, 2): 2, (0, 1, 0, 2, 0): -2, (0, 1, 1, 1, 0): 2, (0, 1, 2, 0, 0): 2,
    (0, 2, 0, 1, 0): 2, (1, 0, 0, 0, 2): -1, (1, 0, 0, 1, 1): 1, (1, 0, 0, 2, 0): 1,
    (1, 0, 1, 0, 1): 2, (1, 0, 1, 1, 0): 2, (1, 1, 0, 0, 1): 1, (1, 1, 0, 1, 0): -1,
    (1, 1, 1, 0, 0): -1, (1, 2, 0, 0, 0): 2, (2, 0, 0, 0, 1): 1, (2, 0, 0, 1, 0): 2,
    (2, 0, 1, 0, 0): 1, (2, 1, 0, 0, 0): -1, (3, 0, 0, 0, 0): -1,
}


def test_visible_node_wins_with_the_expected_point():
    verdict = decide_over_rationals(NODE_EXAMPLE, height_bound=6)
    assert verdict.kind == "Rational"
    assert verdict.witness["type"] == "node"
    assert verdict.witness["point"] == [0, 0, 1, 1, 1]
    amb = tuple(verdict.witness["point"])
    terms = {e: Fraction(c) for e, c in NODE_EXAMPLE.items()}
    assert q_evaluate(terms, amb) == 0
    assert all(q_evaluate(q_derivative(terms, i), amb) == 0 for i in range(5))


# Q0|_P = x2^2 + 2 x3^2 + x2 x4 and Q1|_P = x2^2 + x2 x3 + x3 x4 both vanish
# at (0:0:1), the centre of the first elimination's projection
CENTRE_NODE_EXAMPLE = {
    (3, 0, 0, 0, 0): 1, (1, 0, 2, 0, 0): 1, (1, 0, 0, 2, 0): 2, (1, 0, 1, 0, 1): 1, (0, 3, 0, 0, 0): -1,
    (0, 1, 1, 1, 0): 1, (0, 1, 0, 1, 1): 1, (0, 1, 2, 0, 0): 1, (1, 1, 0, 0, 1): 1,
}


@pytest.mark.parametrize("height", [2, 4])
def test_a_node_at_the_projection_centre_is_found(height):
    verdict = decide_over_rationals(CENTRE_NODE_EXAMPLE, height_bound=height)
    assert verdict.kind == "Rational"
    assert verdict.witness == {"type": "node", "point": [0, 0, 0, 0, 1], "normalized_point": [0, 0, 0, 0, 1]}
    terms = {e: Fraction(c) for e, c in CENTRE_NODE_EXAMPLE.items()}
    assert all(q_evaluate(q_derivative(terms, i), (0, 0, 0, 0, 1)) == 0 for i in range(5))


def test_planted_line_is_found_and_reported_in_reduced_form():
    verdict = decide_over_rationals(LINE_EXAMPLE, height_bound=4)
    assert verdict.kind == "Rational"
    assert verdict.witness == {
        "type": "line_disjoint_from_plane",
        "rows": [[1, 0, 1, 0, 0], [0, 1, 0, 1, 0]],
    }
    terms = {e: Fraction(c) for e, c in LINE_EXAMPLE.items()}
    a, b = (1, 0, 1, 0, 0), (0, 1, 0, 1, 0)
    for pt in (a, b, tuple(x + y for x, y in zip(a, b)), tuple(x - y for x, y in zip(a, b))):
        assert q_evaluate(terms, pt) == 0


def test_definite_pencil_member_certifies_irrationality():
    verdict = decide_over_rationals(DEFINITE_PENCIL_EXAMPLE, height_bound=6)
    assert verdict.kind == "Irrational"
    assert verdict.certificate["pencil_member"] == [1, 0]
    assert verdict.certificate["place"] == "real"
    assert verdict.certificate["diagonal"] == [1, 1, 1, 1]
    assert obstruction_confirmed_by_residues(
        tuple(verdict.certificate["diagonal"]), verdict.certificate["place"]
    )


def test_generic_instance_is_honestly_unknown():
    verdict = decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=4)
    assert verdict.kind == "Unknown"
    assert verdict.witness is None and verdict.certificate is None
    assert verdict.bounds["pencil_members_scanned"] == 24
    assert verdict.bounds["good_prime"] == 5


def test_bad_reduction_at_every_scanned_prime():
    shared = {}
    for e, c in {(0, 0, 2, 0, 0): 1, (0, 0, 0, 1, 1): 1, (1, 1, 0, 0, 0): 1}.items():
        for i in (0, 1):
            key = tuple(v + (1 if j == i else 0) for j, v in enumerate(e))
            shared[key] = shared.get(key, 0) + c
    # D = c s t (s + t)^4 over Q: no reduction certifies it, and over Q it is not general
    with pytest.raises(NotGeneral, match=r"disc\(D\) = 0"):
        decide_over_rationals(shared, height_bound=3)


def test_cubic_not_containing_the_plane_is_rejected():
    with pytest.raises(InvalidInput):
        decide_over_rationals({(0, 0, 3, 0, 0): 1, (1, 0, 2, 0, 0): 1}, height_bound=3)


@pytest.mark.parametrize("exponent", [(1, 0, 2, 0), (-1, 0, 2, 0, 2), (1, 0, 2, 0, 1), (1.5, 0, 1.5, 0, 0)])
def test_exponents_off_the_cubic_layout_are_rejected(exponent):
    with pytest.raises(InvalidInput, match="exponent 5-tuples of total degree 3"):
        decide_over_rationals(NODE_EXAMPLE | {exponent: 1}, height_bound=3)


@pytest.mark.parametrize("value", ["1", "1/3", 0.1, 1.0, True, np.True_, None, 1j])
@pytest.mark.parametrize("where", ["coefficient", "plane-row entry"])
def test_an_inexact_coefficient_or_plane_entry_is_refused_before_any_search(value, where, monkeypatch):
    # Fraction("1/3") and Fraction(0.1) would read a string or a float as
    # some rational, and the verdict would be on another cubic
    for name in ("_nodes_by_resultant", "_points_on_cubic", "_pencil_members", "_pencil_gram"):
        monkeypatch.setattr(rationality, name, lambda *args: pytest.fail("a search ran"))
    terms, rows = dict(NODE_EXAMPLE), [list(row) for row in rationality._STANDARD_PLANE_ROWS]
    if where == "coefficient":
        terms[(1, 2, 0, 0, 0)] = value
    else:
        rows[0][2] = value
    with pytest.raises(InvalidInput, match=f"^a {where} must be an int or a Fraction, not "):
        decide_over_rationals(terms, plane_rows=rows, height_bound=3)


def test_numpy_integers_and_fractions_give_the_int_verdict():
    expect = decide_over_rationals(NODE_EXAMPLE, height_bound=6).to_report()
    for kind in (np.int64, Fraction):
        terms = {e: kind(c) for e, c in NODE_EXAMPLE.items()}
        rows = [[kind(v) for v in row] for row in rationality._STANDARD_PLANE_ROWS]
        assert decide_over_rationals(terms, plane_rows=rows, height_bound=6).to_report() == expect


@pytest.mark.parametrize("bound", [-1, 2.5, True, "3", None])
def test_a_height_bound_that_is_no_int_at_least_zero_is_refused_before_any_search(bound, monkeypatch):
    def refuse(*args):
        raise AssertionError("a search ran")

    for name in ("_normalize_rational_cubic", "_nodes_by_resultant", "_points_on_cubic", "_pencil_members"):
        monkeypatch.setattr(rationality, name, refuse)
    with pytest.raises(InvalidInput, match="the height bound must be an integer >= 0"):
        decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=bound)


def test_a_height_bound_of_zero_searches_nothing_and_ends_unknown():
    verdict = decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=0)
    assert verdict.kind == "Unknown"
    assert verdict.bounds == {
        "height_bound": 0, "good_prime": 5, "points_found": 0, "points_capped": False, "pencil_members_scanned": 0,
    }


@pytest.mark.parametrize(
    "rows",
    [
        ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 1, 1, 0)),
        ((0, 0, 1, 0, 0), (0, 0, 1, 0, 0), (0, 0, 0, 0, 1)),
        ((0, 0, 1, 0, 0), (0, 0, 0, 0, 0), (0, 0, 0, 0, 1)),
    ],
    ids=["dependent", "repeated", "zero"],
)
def test_plane_rows_that_span_no_plane_are_rejected(rows):
    terms = {(1, 0, 2, 0, 0): 1, (0, 1, 0, 2, 0): 1, (1, 0, 0, 0, 2): 1, (0, 1, 0, 0, 2): -1}
    with pytest.raises(InvalidInput, match="not independent"):
        decide_over_rationals(terms, plane_rows=rows, height_bound=3)


TRANSFORMED_PLANE_ROWS = [(-1, 0, -1, 2, 0), (0, 0, -1, 1, 0), (0, 1, 0, 0, 0)]

TRANSFORMED_NODE_EXAMPLE = None  # computed lazily from NODE_EXAMPLE


def _transformed_example():
    global TRANSFORMED_NODE_EXAMPLE
    if TRANSFORMED_NODE_EXAMPLE is None:
        V = [
            [1, 0, 1, 1, 0],
            [0, 0, 0, 0, -1],
            [0, 0, 1, 1, 0],
            [2, 0, 0, 1, 0],
            [0, 1, 0, 0, 1],
        ]
        moved = q_substitute({e: Fraction(c) for e, c in NODE_EXAMPLE.items()}, V)
        TRANSFORMED_NODE_EXAMPLE = {e: int(c) for e, c in moved.items()}
    return TRANSFORMED_NODE_EXAMPLE


def test_arbitrary_plane_coordinates_are_normalized():
    # the same threefold with its plane moved off the standard position:
    # the witness comes back in the input coordinate system
    terms = _transformed_example()
    verdict = decide_over_rationals(terms, plane_rows=TRANSFORMED_PLANE_ROWS, height_bound=6)
    assert verdict.kind == "Rational"
    assert verdict.witness["point"] == [1, -1, 2, -3, 0]
    assert verdict.witness["normalized_point"] == [0, 0, 1, 1, 1]
    amb = tuple(verdict.witness["point"])
    q_terms = {e: Fraction(c) for e, c in terms.items()}
    assert q_evaluate(q_terms, amb) == 0
    assert all(q_evaluate(q_derivative(q_terms, i), amb) == 0 for i in range(5))


def test_verdict_reports_serialize_to_json():
    for verdict in (
        decide_over_rationals(NODE_EXAMPLE, height_bound=4),
        decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=3),
        decide_over_finite_field(seeded_example(3, 2)),
    ):
        blob = json.dumps(verdict.to_report(), sort_keys=True)
        assert json.loads(blob)["kind"] == verdict.kind


def test_pencil_scan_never_searches_for_witnesses(monkeypatch):
    def refuse(*args):
        raise RuntimeError("the witness search ran")

    monkeypatch.setattr(rationality, "_isotropic_vector", refuse)
    verdict = decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=4)
    assert verdict.kind == "Unknown"
    assert verdict.bounds["pencil_members_scanned"] == 24
    out = local_solvability(diagonal_form(1, 1, -1, -1))
    assert out.solvable
    with pytest.raises(RuntimeError, match="the witness search ran"):
        out.witness


# the first isotropic vector of each of the 24 pencil members the height-4 scan
# of UNKNOWN_EXAMPLE passes, all solvable; recorded from the Fraction search
# that the layered integer products replaced
UNKNOWN_MEMBER_WITNESSES = {
    (0, 1): (1, 0, 0, 0), (1, -1): (1, 0, -1, 0), (1, 0): (0, 1, 0, 0),
    (1, 1): (1, 0, 0, 0), (1, -2): (1, -1, 0, -1), (1, 2): (1, 3, -2, 2),
    (2, -1): (1, 0, 0, 0), (2, 1): (0, 0, 1, 0), (1, -3): (1, 0, -1, -1),
    (1, 3): (1, 0, -1, 1), (2, -3): (0, 1, 1, 0), (2, 3): (0, 2, -1, 0),
    (3, -2): (1, 2, -1, 0), (3, -1): (1, -1, 2, -2), (3, 1): (1, -3, -3, 0),
    (3, 2): (0, 1, 2, -2), (1, -4): (0, 3, -2, 0), (1, 4): (0, 1, 2, 0),
    (3, -4): (1, -1, -1, 1), (3, 4): (0, 3, -2, -4), (4, -3): (0, 2, 1, 1),
    (4, -1): (0, 1, 0, 1), (4, 1): (0, 1, 1, -1), (4, 3): (0, 1, 0, -1),
}


def test_witnesses_of_the_unknown_examples_pencil_members_are_pinned():
    gram = rationality._pencil_gram(normalized(UNKNOWN_EXAMPLE))
    got = {}
    for s, t in rationality._pencil_members(4):
        out = local_solvability(rationality._pencil_member_form(gram, s, t))
        assert out.solvable
        got[(s, t)] = out.witness
    assert got == UNKNOWN_MEMBER_WITNESSES


def test_a_pencil_member_is_four_times_the_fraction_matrix_built_term_by_term():
    # every member of height <= 3 of integer cubics 0-19, read off the table
    # built once per cubic
    compared = 0
    for seed in range(20):
        coeffs = normalized(random_integer_cubic(seed))
        gram = rationality._pencil_gram(coeffs)
        for s, t in rationality._pencil_members(3):
            form = rationality._pencil_member_form(gram, s, t)
            expected = [[4 * x for x in row] for row in pencil_member_matrix(terms_of(coeffs), s, t)]
            assert form.scale == 2 and [list(row) for row in form.gram] == expected, (seed, s, t)
            compared += 1
    assert compared == 20 * 16


def test_witness_search_pins_and_exhausts_its_height():
    assert local_solvability(diagonal_form(1, 2, 3, -5)).witness == (0, 1, 1, 1)
    # solvable, with no isotropic vector of height <= 10: every layer is searched
    out = local_solvability(diagonal_form(3, 5, 7, -1009))
    assert out.solvable and out.witness is None
    # |v^T G v| can pass 2^63 here, so the products run in Python integers
    big = 3**40
    assert rationality._isotropic_vector(diagonal_form(big, big, -big, -big), 10) == (1, 0, 1, 0)


def test_a_form_is_singular_iff_its_diagonalization_has_a_zero():
    forms = []
    for terms in (NODE_EXAMPLE, LINE_EXAMPLE, DEFINITE_PENCIL_EXAMPLE, UNKNOWN_EXAMPLE):
        gram = rationality._pencil_gram(normalized(terms))
        forms += [rationality._pencil_member_form(gram, s, t) for s, t in rationality._pencil_members(3)]
    rng = random.Random(3)
    for _ in range(25):
        M = [[0] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                M[i][j] = M[j][i] = rng.randint(-1, 1)
        forms.append(RationalQuadricForm.from_entries(M))
    singular = [sympy.Matrix(q.gram).rank() < 4 for q in forms]
    assert any(singular) and not all(singular)
    assert [0 in q.diagonalization[0] for q in forms] == singular


def test_unknown_verdict_reports_a_capped_point_search(monkeypatch):
    bounds = decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=4).bounds
    assert bounds["points_found"] == 189 and bounds["points_capped"] is False
    monkeypatch.setattr(rationality, "_POINT_CAP", 100)
    bounds = decide_over_rationals(UNKNOWN_EXAMPLE, height_bound=4).bounds
    assert bounds["points_found"] == 100 and bounds["points_capped"] is True


# ---------------------------------------------------------------------------
# exact integer arithmetic against sympy
# ---------------------------------------------------------------------------

QUADRIC_MONOMIALS = [e for e in itertools.product(range(3), repeat=5) if sum(e) == 2]
CONIC_MONOMIALS = [e for e in itertools.product(range(3), repeat=3) if sum(e) == 2]


def random_integer_cubic(seed):
    """x0*Q0 + x1*Q1 with every quadric coefficient uniform in [-2, 2] (the benchmark's integer cubics)."""
    rng = random.Random(seed)
    terms = {}
    for i in (0, 1):
        for e in QUADRIC_MONOMIALS:
            c = rng.randint(-2, 2)
            if c:
                key = tuple(v + (j == i) for j, v in enumerate(e))
                terms[key] = terms.get(key, 0) + c
    return {e: c for e, c in terms.items() if c}


def cubic_of_conics(q0, q1):
    """x0*q0 + x1*q1, with q0 and q1 ternary quadrics {(a, b, c): coefficient} on the plane."""
    return {(1, 0) + e: c for e, c in q0.items()} | {(0, 1) + e: c for e, c in q1.items()}


def nodes_both_ways(coeffs):
    """The node lists of the package and of the sympy oracle, or the refusal each raises."""
    out = []
    for finder, cubic in ((rationality._nodes_by_resultant, coeffs), (nodes_by_sympy_resultant, terms_of(coeffs))):
        try:
            out.append(finder(cubic))
        except InternalInconsistency as exc:
            out.append(str(exc))
    return out


def test_node_finder_matches_the_sympy_resultant_on_integer_cubics():
    examples = [NODE_EXAMPLE, LINE_EXAMPLE, DEFINITE_PENCIL_EXAMPLE, UNKNOWN_EXAMPLE, CENTRE_NODE_EXAMPLE]
    found = 0
    for terms in [random_integer_cubic(seed) for seed in range(100)] + examples:
        new, old = nodes_both_ways(normalized(terms))
        assert new == old
        found += len(new)
    assert found  # some inputs have rational nodes


# the eliminations run over z, then y, then x; each pair is (q0, q1, nodes)
DEGENERATE_CONIC_PAIRS = {
    # q0 = xz - y^2 has degree 1 in z and meets q1 = z^2 - x^2 at t = +-1 of (1 : t : t^2)
    "degree 1 in w": ({(1, 0, 1): 1, (0, 2, 0): -1}, {(0, 0, 2): 1, (2, 0, 0): -1}, [(1, 1, 1), (1, -1, 1)]),
    # q0 = x^2 - y^2 is free of z
    "degree 0 in w": ({(2, 0, 0): 1, (0, 2, 0): -1}, {(0, 0, 2): 1, (1, 1, 0): -1}, [(1, 1, 1), (1, 1, -1)]),
    # both free of z: R is the constant 1, and the centre (0:0:1) is the only node
    "both of degree 0 in w": ({(2, 0, 0): 1, (0, 2, 0): -1}, {(1, 1, 0): 1}, [(0, 0, 1)]),
    # neither has a z^2 term: read to the formal degree 2, R would vanish
    "both through the centre": ({(1, 0, 1): 1, (0, 2, 0): -1}, {(0, 1, 1): 1, (2, 0, 0): -1}, [(0, 0, 1), (1, 1, 1)]),
    # the shared component z makes R = 0 in z; in y, R = 3xz^2, whose root
    # (x : z) = (1 : 0) is a whole line of common zeros and gives nothing
    "shared linear component": ({(1, 0, 1): 1, (0, 1, 1): 1}, {(1, 0, 1): 1, (0, 1, 1): -2}, [(0, 0, 1), (0, 1, 0)]),
    # the component x + y + z, shared in every elimination, and a zero conic leave no resultant
    "shared in every elimination": (
        {(1, 0, 1): 1, (0, 1, 1): 1, (0, 0, 2): 1},
        {(2, 0, 0): 1, (0, 2, 0): -1, (1, 0, 1): 1, (0, 1, 1): -1},
        "every elimination resultant vanishes although disc(D) != 0 certified reduced nodes",
    ),
    "zero conic": (
        {},
        {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1},
        "every elimination resultant vanishes although disc(D) != 0 certified reduced nodes",
    ),
}


@pytest.mark.parametrize("name", DEGENERATE_CONIC_PAIRS)
def test_node_finder_matches_the_sympy_resultant_on_degenerate_conic_pairs(name):
    q0, q1, nodes = DEGENERATE_CONIC_PAIRS[name]
    new, old = nodes_both_ways(coefficient_vector(cubic_of_conics(q0, q1)))
    assert new == old == nodes


def test_only_the_elimination_in_y_survives_a_shared_component_in_z():
    q0, q1, _ = DEGENERATE_CONIC_PAIRS["shared linear component"]
    q0, q1 = coefficient_vector(q0, 3, 2), coefficient_vector(q1, 3, 2)
    assert not np.count_nonzero(rationality._resultant(q0, q1, 2))
    # 3 x z^2 on the layout of the binary cubics in (x, z)
    assert rationality._resultant(q0, q1, 1).tolist() == [0, 0, 3, 0]


SEMIPRIMES = st.tuples(st.integers(10**9, 2 * 10**9), st.integers(10**9, 2 * 10**9)).map(
    lambda ab: sympy.nextprime(ab[0]) * sympy.nextprime(ab[1])
)
PRIME_POWERS = st.tuples(st.integers(2, 10**6), st.integers(1, 8)).map(lambda pe: sympy.nextprime(pe[0]) ** pe[1])


@given(st.one_of(st.integers(1, 10**24), SEMIPRIMES, PRIME_POWERS, st.just(1)))
@settings(max_examples=60, deadline=None)
def test_factoring_matches_sympy(n):
    factors = rationality._factor(n)
    assert math.prod(p**e for p, e in factors.items()) == n
    assert all(sympy.isprime(p) for p in factors)
    assert factors == sympy.factorint(n)


@given(st.integers(2, 10**40))
@settings(max_examples=100, deadline=None)
def test_primality_matches_sympy_on_both_sides_of_the_proven_range(n):
    p = sympy.nextprime(n)
    assert integers._is_prime(n) == sympy.isprime(n)
    assert integers._is_prime(p)
    assert not integers._is_prime(p * sympy.nextprime(p))


def test_strong_pseudoprimes_are_found_composite():
    # the least strong pseudoprimes to the first 1, 2, 4, 9, 12 and 13 prime
    # bases, the last at the end of the proven Miller-Rabin range; two
    # Carmichael numbers; three strong Lucas pseudoprimes
    pseudoprimes = (2047, 1373653, 3215031751, 3825123056546413051, 318665857834031151167461,
                    3317044064679887385961981, 561, 41041, 5459, 5777, 10877)
    assert [integers._is_prime(n) for n in pseudoprimes] == [False] * len(pseudoprimes)
    assert not any(sympy.isprime(n) for n in pseudoprimes)


@given(st.lists(st.integers(-3, 3), min_size=12, max_size=12), st.integers(0, 2))
@settings(max_examples=150, deadline=None)
def test_resultant_matches_sympy(coeffs, elim):
    f, g = ({e: c for e, c in zip(CONIC_MONOMIALS, half) if c} for half in (coeffs[:6], coeffs[6:]))
    syms = sympy.symbols("x y z")

    def expr(form):
        return sum((c * math.prod(s**k for s, k in zip(syms, e)) for e, c in form.items()), sympy.Integer(0))

    R = sympy.resultant(expr(f), expr(g), syms[elim])
    got = rationality._resultant(coefficient_vector(f, 3, 2), coefficient_vector(g, 3, 2), elim)
    if R == 0:
        assert not np.count_nonzero(got)
    else:
        # position i of the binary layout of degree d holds the coefficient of u^(d - i) v^i
        R = sympy.Poly(R, *(s for i, s in enumerate(syms) if i != elim))
        d = R.total_degree()
        assert got.tolist() == [int(R.as_dict().get((d - i, i), 0)) for i in range(d + 1)]


@given(st.lists(st.tuples(st.integers(1, 12), st.integers(-12, 12)), max_size=4),
       st.lists(st.integers(-9, 9), min_size=1, max_size=5))
@settings(max_examples=150, deadline=None)
def test_rational_roots_match_the_linear_factors(linear, cofactor):
    t = sympy.Symbol("t")
    poly = sympy.Poly(cofactor, t)
    for a, b in linear:
        poly *= sympy.Poly(a * t + b, t)
    assume(not poly.is_zero)
    coeffs = [int(c) for c in reversed(poly.all_coeffs())]
    assert rationality._rational_roots(coeffs) == rational_roots_by_factor_list(poly)


# ---------------------------------------------------------------------------
# generality over Q: the discriminant sextic D and disc(D)
# ---------------------------------------------------------------------------

FROZEN_EXAMPLES = (NODE_EXAMPLE, LINE_EXAMPLE, DEFINITE_PENCIL_EXAMPLE, UNKNOWN_EXAMPLE)


def generality_inputs():
    """The normalized integer cubics 0-99, the frozen examples and the transformed-plane example."""
    cubics = [random_integer_cubic(seed) for seed in range(100)] + list(FROZEN_EXAMPLES)
    return [normalized(terms) for terms in cubics] + [normalized(_transformed_example(), TRANSFORMED_PLANE_ROWS)]


def test_good_prime_is_the_reduction_prime_wherever_a_reduction_certifies():
    compared = 0
    for coeffs in generality_inputs():
        try:
            expected = good_reduction_prime(coeffs)
        except ValueError:
            continue
        assert rationality._good_prime(rationality._pencil_gram(coeffs)) == expected
        compared += 1
    assert compared == 104  # of 105: cubic 41 has no reduction certificate from 3, 5 and 7


def test_a_cubic_no_scanned_reduction_certifies_gets_a_verdict():
    # 3, 5 and 7 divide disc(D), which is not zero: the cubic is general over Q
    coeffs = normalized(random_integer_cubic(41))
    disc = rationality._sextic_discriminant(rationality._pencil_discriminant(rationality._pencil_gram(coeffs)))
    assert disc != 0 and disc % (3 * 5 * 7) == 0
    with pytest.raises(ValueError, match="no generality certificate"):
        good_reduction_prime(coeffs)
    verdict = decide_over_rationals(random_integer_cubic(41), height_bound=4)
    assert verdict.kind == "Rational" and verdict.witness["type"] == "node"
    assert verdict.bounds["good_prime"] == 11


@pytest.mark.parametrize("seed", [0, 2, 3, 13])
def test_scaling_x4_by_three_keeps_the_verdict_kind(seed):
    # x4 -> 3 x4 fixes the plane and is an isomorphism over Q, but it makes D
    # vanish modulo 3; a point of height h maps to one of height at most 3h
    terms = random_integer_cubic(seed)
    moved = {e: c * 3 ** e[4] for e, c in terms.items()}
    assert not np.count_nonzero(rationality._pencil_discriminant(rationality._pencil_gram(normalized(moved))) % 3)
    before = decide_over_rationals(terms, height_bound=4)
    after = decide_over_rationals(moved, height_bound=12)
    assert after.kind == before.kind
    assert after.certificate == before.certificate  # diag(1, 1, 1, 9) keeps each member's square classes


def cubic_with_a_shared_line(seed):
    """An integer cubic whose restricted conics are l*m0 and l*m1, l a linear form on the plane."""
    rng = random.Random(seed)
    terms = {e: c for e, c in random_integer_cubic(seed).items() if e[0] + e[1] != 1}
    line = [rng.choice([-2, -1, 1, 2]) for _ in range(3)]
    for i in (0, 1):
        other = [rng.randint(-2, 2) for _ in range(3)]
        for a, b in itertools.product(range(3), repeat=2):
            key = [int(i == 0), int(i == 1), 0, 0, 0]
            key[2 + a] += 1
            key[2 + b] += 1
            terms[tuple(key)] = terms.get(tuple(key), 0) + line[a] * other[b]
    return {e: c for e, c in terms.items() if c}


@pytest.mark.parametrize("seed", range(8))
def test_conics_sharing_a_line_are_not_general(seed):
    # the threefold is singular along a line of P, and D is not reduced
    with pytest.raises(NotGeneral, match=r"disc\(D\) = 0"):
        decide_over_rationals(cubic_with_a_shared_line(seed), height_bound=2)


def test_the_discriminant_sextic_is_the_determinant_of_the_symbolic_gram_matrix():
    inputs = generality_inputs()
    for coeffs in inputs[::7] + inputs[100:]:
        gram = rationality._pencil_gram(coeffs)
        assert rationality._pencil_discriminant(gram).tolist() == discriminant_sextic_by_sympy(terms_of(coeffs))


def binary_form(coeffs):
    """The sympy binary form with coefficient coeffs[k] at s^(d - k) t^k."""
    s, t = sympy.symbols("s t")
    return sympy.Poly(sum(int(c) * s ** (len(coeffs) - 1 - k) * t**k for k, c in enumerate(coeffs)), s, t)


def linear_product(factors):
    """The coefficients of the product of the binary linear forms a s + b t, on the binary layout."""
    out = np.ones(1, dtype=object)
    for a, b in factors:
        out = np.convolve(out, np.array([a, b], dtype=object))
    return out.tolist()


SEXTICS = st.one_of(
    st.lists(st.integers(-5, 5), min_size=7, max_size=7),
    # six linear factors a s + b t: repeats are common, and a = 0 is a root at (1 : 0)
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any), min_size=6, max_size=6).map(linear_product),
    # the square of a binary cubic: never reduced
    st.lists(st.integers(-3, 3), min_size=4, max_size=4).map(lambda f: np.convolve(f, f).tolist()),
)


@given(SEXTICS)
@settings(max_examples=200, deadline=None)
def test_disc_is_nonzero_exactly_when_the_sextic_is_squarefree(coeffs):
    disc = rationality._sextic_discriminant(np.array(coeffs, dtype=object))
    if not any(coeffs):
        assert disc == 0
        return
    _, factors = binary_form(coeffs).sqf_list()
    assert (disc != 0) == all(mult == 1 for _, mult in factors)
    if coeffs[0]:
        s = sympy.Symbol("s")
        assert disc == sympy.discriminant(sum(c * s ** (6 - k) for k, c in enumerate(coeffs)), s)


@pytest.mark.parametrize(
    "factors, multiplicity",
    [
        # t (s - t)(s + t)(s - 2t)(s + 2t)(2s + t): a simple root at (1 : 0)
        ([(0, 1), (1, -1), (1, 1), (1, -2), (1, 2), (2, 1)], 1),
        # t^2 (s - t)(s + t)(s - 2t)(s + 2t): a double root at (1 : 0), where
        # both partials lose their s^5 term and only the formal degree sees it
        ([(0, 1), (0, 1), (1, -1), (1, 1), (1, -2), (1, 2)], 2),
    ],
    ids=["simple", "double"],
)
def test_a_root_at_infinity_counts_with_its_multiplicity(factors, multiplicity):
    coeffs = linear_product(factors)
    assert coeffs[:multiplicity] == [0] * multiplicity and coeffs[multiplicity] != 0
    assert (rationality._sextic_discriminant(np.array(coeffs, dtype=object)) != 0) == (multiplicity == 1)


SQUARE_MATRICES = st.integers(1, 7).flatmap(
    lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(SQUARE_MATRICES)
@settings(max_examples=150, deadline=None)
def test_the_fraction_free_determinant_matches_sympy(rows):
    assert rationality._integer_determinant(rows) == sympy.Matrix(rows).det()


# ---------------------------------------------------------------------------
# the line search over Q against its oracles
# ---------------------------------------------------------------------------

# at height 8, |B^2 - 4AC| of the point sweep passes 2^63 and its square
# test passes 2^53: an int64 sweep wrapped silently and kept 193 points
LARGE_COEFFICIENT_EXAMPLE = LINE_EXAMPLE | {(1, 0, 0, 1, 1): 10**9 + 7}
# here the bound on |B^2 - 4AC| lies between 2^53 and 2^63: int64 values, squares tested by isqrt
MEDIUM_COEFFICIENT_EXAMPLE = LINE_EXAMPLE | {(1, 0, 0, 1, 1): 10**6 + 3}

LINE_SEARCH_CASES = {
    "integer cubics 0-19 at height 4": [(random_integer_cubic(seed), 4) for seed in range(20)],
    "frozen examples at height 8": [
        (terms, 8) for terms in (NODE_EXAMPLE, LINE_EXAMPLE, DEFINITE_PENCIL_EXAMPLE, UNKNOWN_EXAMPLE)
    ],
    "large coefficients at height 8": [(MEDIUM_COEFFICIENT_EXAMPLE, 8), (LARGE_COEFFICIENT_EXAMPLE, 8)],
}


@pytest.mark.parametrize("name", LINE_SEARCH_CASES)
def test_line_search_matches_the_term_loop_and_four_value_oracles(name):
    for terms, height in LINE_SEARCH_CASES[name]:
        coeffs = normalized(terms)
        found = rationality._points_on_cubic(coeffs, height)
        assert found == points_on_cubic_by_term_loops(terms_of(coeffs), height, rationality._POINT_CAP)
        pts, _ = found
        assert rationality._disjoint_lines_from_pairs(coeffs, pts) == lines_by_four_values(terms_of(coeffs), pts)


def test_a_large_coefficient_gives_the_exact_point_count():
    coeffs = normalized(LARGE_COEFFICIENT_EXAMPLE)
    pts, capped = rationality._points_on_cubic(coeffs, 8)
    assert len(pts) == 322 and not capped
    verdict = decide_over_rationals(LARGE_COEFFICIENT_EXAMPLE, height_bound=8)
    assert verdict.bounds["points_found"] == 322
    first = lines_by_four_values(terms_of(coeffs), pts)[0]
    assert verdict.witness == {"type": "line_disjoint_from_plane", "rows": [list(row) for row in first]}


@given(
    st.lists(st.integers(-10**12, 10**12), min_size=len(CUBIC_MONOMIALS), max_size=len(CUBIC_MONOMIALS)),
    st.lists(st.integers(-20, 20), min_size=10, max_size=10),
    st.integers(-6, 6),
)
@settings(max_examples=100, deadline=None)
def test_a_cubic_along_a_line_is_read_off_the_gradient_pairings(coeffs, coords, t):
    # f(a + t b) = f(a) + t grad f(a).b + t^2 grad f(b).a + t^3 f(b): on the
    # cubic, f(a + b) = f(a - b) = 0 exactly when both pairings vanish
    f = {e: c for e, c in zip(CUBIC_MONOMIALS, coeffs) if c}
    a, b = coords[:5], coords[5:]
    bound = 15 * sum(map(abs, coeffs)) * max(map(abs, coords)) ** 3
    pts = np.array([a, b], dtype=np.int64)
    columns = rationality._gradient_columns(np.array(coeffs, dtype=object))
    grad = rationality._integer_monomials(pts, 2) @ columns.astype(rationality._exact_dtype(bound))
    (_, grad_a_b), (grad_b_a, _) = (grad @ pts.T).tolist()
    line = tuple(x + t * y for x, y in zip(a, b))
    assert q_evaluate(f, line) == q_evaluate(f, a) + t * grad_a_b + t**2 * grad_b_a + t**3 * q_evaluate(f, b)


# ---------------------------------------------------------------------------
# one coefficient layout over Q against the term-dict oracles
# ---------------------------------------------------------------------------


def test_each_diagonal_entry_is_factored_once(monkeypatch):
    # the squarefree diagonal keeps the odd primes it found, so the places
    # of the Hasse-Minkowski scan need no second factorization
    seen = []

    def spy(n):
        seen.append(n)
        return factor(n)

    factor = rationality._factor
    monkeypatch.setattr(rationality, "_factor", spy)
    quadric = diagonal_form(12, -45, 7, 1)
    out = local_solvability(quadric)
    assert sorted(seen) == [1, 7, 12, 45]
    assert out.diagonal == (3, -5, 7, 1) and quadric.odd_primes == (3, 5, 7)


def random_symmetric(rng, kind):
    """A symmetric 4x4 matrix of Fractions, entries in [-6, 6] over denominators up to 4.

    ``kind`` "random" draws every entry; "zero-diagonal" leaves the diagonal
    zero, so the first pivot gets a column added; "first-zero" zeroes only
    the first diagonal entry, so the first pivot is swapped; "sparse" draws
    entries in {-1, 0, 1}, which often leave a whole pivot row zero.
    """
    M = [[Fraction(0)] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            if kind == "sparse":
                M[i][j] = M[j][i] = Fraction(rng.choice([-1, 0, 0, 1]))
            elif i != j or kind == "random" or (kind == "first-zero" and i):
                M[i][j] = M[j][i] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return M


def oracle_cases():
    """(name, Fraction matrix, package form) pairs for the fraction-free diagonalization."""
    rng = random.Random(28)
    cases = []
    for kind in ("random", "zero-diagonal", "first-zero", "sparse"):
        for n in range(40):
            M = random_symmetric(rng, kind)
            cases.append((f"{kind} {n}", M, RationalQuadricForm.from_entries(M)))
    # every pencil member of height <= 4 of integer cubics 0-99
    for seed in range(100):
        coeffs = normalized(random_integer_cubic(seed))
        gram = rationality._pencil_gram(coeffs)
        for s, t in rationality._pencil_members(4):
            M = pencil_member_matrix(terms_of(coeffs), s, t)
            cases.append((f"cubic {seed} ({s}:{t})", M, rationality._pencil_member_form(gram, s, t)))
    return cases


def test_the_fraction_free_diagonal_is_the_fraction_diagonal_times_squares():
    cases = oracle_cases()
    # an added column not weighted by the scales diagonalizes these two wrongly
    assert {"cubic 15 (0:1)", "cubic 78 (0:1)"} <= {name for name, _, _ in cases}
    reached = set()
    for name, M, q in cases:
        expected, _ = diagonalize_by_fractions(M)
        diag, scales = q.diagonalization
        assert [d == 0 for d in diag] == [d == 0 for d in expected], name
        assert q.squarefree_diagonal == tuple(squarefree_class(d) for d in expected), name
        # each integer entry is the rational one times the square of its nonzero scale
        assert all(scale and d == scale**2 * e for d, scale, e in zip(diag, scales, expected)), name
        if name.startswith("cubic"):
            assert [[4 * v for v in row] for row in M] == [list(row) for row in q.gram] and q.scale == 2
        reached.add(name.split(" ")[0] + ("" if all(diag) else " singular"))
    assert reached >= {"random", "zero-diagonal", "first-zero", "sparse singular", "cubic", "cubic singular"}


def test_the_factored_integers_are_the_fraction_diagonals_numerators_times_denominators(monkeypatch):
    seen = []

    def spy(n):
        seen.append(n)
        return factor(n)

    factor = rationality._factor
    monkeypatch.setattr(rationality, "_factor", spy)
    for name, M, q in oracle_cases():
        expected, _ = diagonalize_by_fractions(M)
        del seen[:]
        q.squarefree_diagonal
        assert seen == [abs(d.numerator * d.denominator) for d in expected if d], name


FRACTION_ENTRIES = st.fractions(min_value=-4, max_value=4, max_denominator=6)


@given(
    st.lists(st.integers(-5, 5), min_size=len(CUBIC_MONOMIALS), max_size=len(CUBIC_MONOMIALS)),
    st.lists(st.integers(-4, 4), min_size=25, max_size=25),
    st.lists(FRACTION_ENTRIES, min_size=25, max_size=25),
)
@settings(max_examples=50, deadline=None)
def test_the_substitution_matrix_matches_the_term_dict_substitution(coeffs, integers, fractions):
    c = np.array(coeffs, dtype=object)
    for entries in (integers, fractions):
        columns = [entries[5 * i : 5 * i + 5] for i in range(5)]
        moved = c @ rationality._substitution_matrix(np.array(columns, dtype=object))
        expected = q_substitute({e: Fraction(v) for e, v in terms_of(c).items()}, columns)
        assert moved.tolist() == [expected.get(e, 0) for e in CUBIC_MONOMIALS]


@given(
    st.sampled_from(["integer cubic", "transformed plane"]),
    st.integers(0, 99),
    st.integers(1, 12),
    st.lists(FRACTION_ENTRIES.filter(bool), min_size=3, max_size=3),
)
@settings(max_examples=40, deadline=None)
def test_normalization_matches_the_term_dict_substitution(case, seed, den, scales):
    # rational coefficients and plane rows: the input and M are scaled to
    # integers before the substitution, which the primitive cubic forgets
    terms, rows = {
        "integer cubic": (random_integer_cubic(seed), rationality._STANDARD_PLANE_ROWS),
        "transformed plane": (_transformed_example(), TRANSFORMED_PLANE_ROWS),
    }[case]
    terms = {e: Fraction(c, den) for e, c in terms.items()}
    rows = [[scale * v for v in row] for scale, row in zip(scales, rows)]
    coeffs, columns = rationality._normalize_rational_cubic(terms, rows)
    expected = q_clear_denominators(q_substitute(terms, columns))
    assert coeffs.tolist() == [expected.get(e, 0) for e in CUBIC_MONOMIALS]
    assert all(type(c) is int for c in coeffs)


@given(
    st.lists(st.integers(-10**12, 10**12), min_size=len(CUBIC_MONOMIALS), max_size=len(CUBIC_MONOMIALS)),
    st.lists(st.lists(st.integers(-10**8, 10**8), min_size=5, max_size=5), min_size=1, max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_exact_values_match_the_term_loop_past_int64(coeffs, pts):
    c = np.array(coeffs, dtype=object)
    f = terms_of(c)
    assert rationality._form_values(c, pts, 3).tolist() == [q_evaluate(f, p) for p in pts]
    grad = rationality._form_values(rationality._gradient_columns(c), pts, 2)
    assert grad.tolist() == [[q_evaluate(q_derivative(f, i), p) for i in range(5)] for p in pts]


def test_exact_values_switch_to_python_integers_past_int64():
    c = coefficient_vector(LINE_EXAMPLE)
    small, large = [[1, 2, 3, 4, 5]], [[2**21, 1, 0, 0, 3]]
    assert rationality._form_values(c, small, 3).dtype == np.int64
    values = rationality._form_values(c, large, 3)
    assert values.dtype == object and values.tolist() == [q_evaluate(LINE_EXAMPLE, large[0])]
    assert abs(values[0]) > 2**63


# (layout, the monomials kept, what is kept of each, the layout they form)
SLICE_FACTS = {
    "the x4^k part of the cubic": [
        (monomial_exponents(5, 3), lambda e, k=k: e[4] == k, lambda e: e[:4], monomial_exponents(4, 3 - k))
        for k in range(4)
    ],
    "the x0 and x1 conics on the plane": [
        (monomial_exponents(5, 3), lambda e, pick=pick: e[:2] == pick, lambda e: e[2:], monomial_exponents(3, 2))
        for pick in ((1, 0), (0, 1))
    ],
    "a conic at a fixed power of w": [
        (
            monomial_exponents(3, 2),
            lambda e, w=w, k=k: e[w] == k,
            lambda e, w=w: e[:w] + e[w + 1 :],
            monomial_exponents(2, 2 - k),
        )
        for w in range(3)
        for k in range(3)
    ],
}


@pytest.mark.parametrize("name", SLICE_FACTS)
def test_slices_of_the_layout_are_layouts(name):
    # the Q code reads these parts of a coefficient vector as index slices
    for layout, keep, project, sublayout in SLICE_FACTS[name]:
        assert tuple(project(e) for e in layout if keep(e)) == sublayout
