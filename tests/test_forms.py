"""Forms layer: evaluation vs naive oracle, substitution, division, binary forms as two-variable forms."""

import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicfano import forms, kernels
from cubicfano.errors import InternalInconsistency, InvalidInput, NotSupportedError
from cubicfano.forms import (
    HomogeneousForm,
    divide_by_linear,
    interpolate,
    interpolation_points,
    monomial_exponents,
    quadratic_roots,
    random_form,
)
from cubicfano.gf import field
from cubicfano.linalg import inverse_matrix, mat_vec, rank, rref
from cubicfano.projective import normalize_point
from reference_impl import (
    _dict_add,
    binary_roots_by_scan,
    divide_by_linear_by_dicts,
    eval_form_batch_by_tables,
    evaluate_form_naive,
    proportionality,
    squarefree_by_partials,
    substitute_by_dicts,
    times,
    times_by_dicts,
)


def test_evaluate_frozen_trivial():
    K = field(5)
    f = HomogeneousForm.monomial(K, 3, (1, 1, 1))
    assert f.evaluate((1, 1, 1)) == 1
    assert f.evaluate((0, 2, 3)) == 0


def test_arity_error():
    K = field(5)
    f = HomogeneousForm.monomial(K, 3, (1, 1, 1))
    with pytest.raises(InvalidInput, match="point has 2 coordinates, form has 3 variables"):
        f.evaluate((1, 1))


def test_plane_inside_split_cubic():
    # f = x0*Q0 + x1*Q1 vanishes wherever x0 = x1 = 0
    K = field(7)
    rng = random.Random(11)
    Q0 = random_form(K, 5, 2, rng)
    Q1 = random_form(K, 5, 2, rng)
    x0 = HomogeneousForm.linear(K, (1, 0, 0, 0, 0))
    x1 = HomogeneousForm.linear(K, (0, 1, 0, 0, 0))
    f = times(x0, Q0).plus(times(x1, Q1))
    for _ in range(20):
        pt = (0, 0, rng.randrange(7), rng.randrange(7), rng.randrange(7))
        assert f.evaluate(pt) == 0


@pytest.mark.parametrize("p,k", [(7, 1), (3, 2), (5, 1)])
def test_evaluate_matches_naive_oracle(p, k):
    K = field(p, k)
    rng = random.Random(101)
    for _ in range(25):
        nvars = rng.choice([2, 3, 4, 5])
        degree = rng.choice([1, 2, 3])
        f = random_form(K, nvars, degree, rng)
        pt = tuple(K.random_element(rng) for _ in range(nvars))
        assert f.evaluate(pt) == evaluate_form_naive(K, f.terms, pt)


def test_evaluate_batch_matches_scalar():
    # the scalar side is the term-by-term oracle, not the one-point batch call
    K = field(5, 2)
    rng = random.Random(7)
    f = random_form(K, 4, 3, rng)
    pts = np.array([[K.random_element(rng) for _ in range(4)] for _ in range(200)], dtype=np.uint16)
    batch = f.evaluate_batch(pts)
    for row, val in zip(pts.tolist(), batch.tolist()):
        assert evaluate_form_naive(K, f.terms, row) == val


def test_out_of_range_coordinates_are_refused():
    # -1 is no code of F_3, and neither is 5; a negative code must not wrap
    # around to the last entry of a table
    f = random_form(field(3), 3, 2, random.Random(4))
    for point in ((1, -1, 0), (1, 2, 5)):
        with pytest.raises(InvalidInput, match="is not a code of GF\\(3\\)"):
            f.evaluate(point)
        with pytest.raises(InvalidInput, match="is not a code of GF\\(3\\)"):
            f.evaluate_batch(np.array([point]))


# (p, k): the fields the census and the group law climb through, and one past
# q = 10^4, far past the size of the dense tables
@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3), (3, 4), (11, 2), (101, 2)])
def test_evaluate_batch_matches_the_table_oracle(p, k):
    K = field(p, k)
    rng = random.Random(p**k)
    gen = np.random.default_rng(p**k)
    sizes = (0, 1, kernels.CHUNK - 1, kernels.CHUNK, kernels.CHUNK + 1)
    for degree in range(1, 7):
        for nvars in range(1, 7):
            full = random_form(K, nvars, degree, rng)
            monomials = monomial_exponents(nvars, degree)
            one_term = HomogeneousForm.monomial(K, nvars, monomials[len(monomials) // 2], K.q - 1)
            zero = HomogeneousForm.zero(K, nvars, degree)
            # about one coordinate in four is zero
            pts = gen.integers(0, K.q, size=(sizes[-1], nvars)).astype(np.uint16)
            pts[gen.random(pts.shape) < 0.25] = 0
            for f in (full, one_term, zero):
                exps, coeffs, _ = f._pack()
                for n_points in sizes if f is full else (sizes[-1],):
                    got = f.evaluate_batch(pts[:n_points])
                    assert got.dtype == np.uint16 and got.shape == (n_points,)
                    assert np.array_equal(got, eval_form_batch_by_tables(K, exps, coeffs, pts[:n_points]))


def test_digit_fields_that_cannot_fit_an_int64_are_refused():
    # 3276 terms over F_{11^4} sum to at most 32760 per digit: four 15-bit
    # fields, 60 bits; one more term needs 16-bit fields, 64 bits
    assert kernels.digit_width(3276, 11, 4) == 15
    with pytest.raises(NotSupportedError, match="an int64 holds 63"):
        kernels.digit_width(3277, 11, 4)
    assert kernels.digit_width(10**6, 65521, 1) == 36
    # every octic in ten variables has 24310 > 2^15 / 2 terms over F_81
    K = field(3, 4)
    f = HomogeneousForm(K, 10, 8, {e: 1 for e in monomial_exponents(10, 8)})
    with pytest.raises(NotSupportedError, match="24310 terms over F_3\\^4"):
        f.evaluate_batch(np.ones((1, 10), dtype=np.uint16))


@given(st.integers(0, 7**2 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_homogeneity_under_scaling(lam, data):
    K = field(7, 2)
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    f = random_form(K, 3, 3, rng)
    pt = tuple(K.random_element(rng) for _ in range(3))
    scaled = tuple(K.mul_(lam, x) for x in pt)
    assert f.evaluate(scaled) == K.mul_(K.pow_vector(3)[lam], f.evaluate(pt))


def test_substitution_is_functorial():
    K = field(5)
    rng = random.Random(3)
    f = random_form(K, 4, 3, rng)
    M = np.array([[K.random_element(rng) for _ in range(4)] for _ in range(4)], dtype=np.int64)
    g = f.substitute(M)
    for _ in range(30):
        y = [K.random_element(rng) for _ in range(4)]
        assert g.evaluate(y) == f.evaluate(mat_vec(K, M, y))


def test_substitution_composes_with_inverse():
    K = field(7)
    rng = random.Random(5)
    f = random_form(K, 3, 2, rng)
    while True:
        M = np.array([[K.random_element(rng) for _ in range(3)] for _ in range(3)], dtype=np.int64)
        try:
            Minv = inverse_matrix(K, M)
            break
        except ZeroDivisionError:
            continue
    assert f.substitute(M).substitute(Minv) == f


def test_derivative_product_rule_on_samples():
    K = field(5)
    rng = random.Random(17)
    f = random_form(K, 3, 2, rng)
    g = random_form(K, 3, 1, rng)
    lhs = times(f, g).derivative(1)
    rhs = times(f.derivative(1), g).plus(times(f, g.derivative(1)))
    assert lhs == rhs


def test_divide_by_linear_roundtrip():
    K = field(7)
    rng = random.Random(23)
    for _ in range(15):
        ell_coeffs = [K.random_element(rng) for _ in range(4)]
        if not any(ell_coeffs):
            ell_coeffs[0] = 1
        ell = HomogeneousForm.linear(K, ell_coeffs)
        g = random_form(K, 4, 2, rng)
        f = times(ell, g)
        assert divide_by_linear(f, ell_coeffs) == g
    # a form that is definitely not divisible
    f = HomogeneousForm.monomial(K, 3, (2, 0, 0))
    with pytest.raises(ValueError):
        divide_by_linear(f, (0, 1, 0))


def test_monomial_exponents_count():
    assert len(monomial_exponents(5, 3)) == 35
    assert len(monomial_exponents(2, 6)) == 7
    assert len(monomial_exponents(3, 2)) == 6


# ---------------------------------------------------------------------------
# binary forms
# ---------------------------------------------------------------------------


def binary(K, coeffs):
    """The two-variable form sum coeffs[i] s^(d-i) t^i, d = len(coeffs) - 1."""
    return HomogeneousForm.from_coeffs(K, 2, len(coeffs) - 1, coeffs)


def product_checked(f, g):
    """f * g by interpolation, checked against the term-by-term product."""
    fg = times(f, g)
    assert fg == times_by_dicts(f, g)
    return fg


def test_binary_roots_with_multiplicity():
    K = field(7)
    # f = s * t^2 * (s - t): the root (1 : 0) of t twice, (1 : 1) and (0 : 1) once
    s = binary(K, (1, 0))
    t = binary(K, (0, 1))
    s_minus_t = binary(K, (1, K.neg_(1)))
    f = product_checked(product_checked(product_checked(s, t), t), s_minus_t)
    roots = dict(f.roots())
    assert roots == {(1, 0): 2, (1, 1): 1, (0, 1): 1}


def test_binary_roots_over_extension():
    K = field(5)
    # s^2 + t^2 splits over F_5, where -1 = 2^2
    f = binary(K, (1, 0, 1))
    assert {r for r, _ in f.roots()} == {(1, 2), (1, 3)}
    # s^2 - 2 t^2: 2 is not a square mod 5, so roots only appear over F25
    g = binary(K, (1, 0, K.neg_(2)))
    assert g.roots() == []
    ext_roots = g.roots(extension=2)
    assert len(ext_roots) == 2 and all(m == 1 for _, m in ext_roots)
    L = field(5, 2)
    for (s_val, t_val), _ in ext_roots:
        assert L.sub_(L.mul_(s_val, s_val), L.mul_(2, L.mul_(t_val, t_val))) == 0


def test_binary_gcd_and_squarefree():
    K = field(5)
    s = binary(K, (1, 0))
    u = binary(K, (1, 1))  # s + t
    v = binary(K, (1, 2))
    f = product_checked(product_checked(s, u), u)
    g = product_checked(u, v)
    gc = f.gcd(g)
    assert gc.degree == 1
    # gcd is proportional to u
    assert not gc.is_zero
    prop = proportionality(gc, u)
    assert prop is not None
    assert not f.is_squarefree()
    assert g.is_squarefree()
    assert product_checked(product_checked(s, u), v).is_squarefree()


def test_binary_squarefree_char3_frobenius_trap():
    # all partials vanish identically, yet the form is a perfect cube
    K = field(3)
    f = binary(K, (1, 0, 0, 1, 0, 0, 0))  # s^6 + s^3 t^3 = s^3 (s+t)^3
    assert not f.is_squarefree()


@pytest.mark.parametrize("p", [3, 5])
def test_squarefree_matches_the_gcd_of_the_partials_on_every_binary_form(p):
    # every binary form of degree at most 4 over F_3 and F_5, the zero and
    # the constant forms among them
    K = field(p)
    for degree in range(5):
        for coeffs in product(range(p), repeat=degree + 1):
            f = HomogeneousForm.from_coeffs(K, 2, degree, coeffs)
            assert f.is_squarefree() == squarefree_by_partials(f), coeffs


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (13, 1)])
def test_squarefree_matches_the_gcd_of_the_partials_on_random_sextics(p, k):
    K = field(p, k)
    rng = random.Random(K.q)
    seen = set()
    for _ in range(300):
        # zero ends and squared factors come often enough to be seen
        coeffs = [0 if rng.random() < 0.2 else K.random_element(rng) for _ in range(7)]
        f = HomogeneousForm.from_coeffs(K, 2, 6, coeffs)
        if rng.random() < 0.3:
            g = HomogeneousForm.from_coeffs(K, 2, 2, [K.random_element(rng) for _ in range(3)])
            f = times(times(g, g), HomogeneousForm.from_coeffs(K, 2, 2, coeffs[:3]))
        seen.add(f.is_squarefree())
        assert f.is_squarefree() == squarefree_by_partials(f), f.coeffs.tolist()
    assert seen == {True, False}


def test_binary_resultant_detects_common_root():
    K = field(7)
    rng = random.Random(41)
    for _ in range(20):
        a = binary(K, [K.random_element(rng) for _ in range(3)])
        b = binary(K, [K.random_element(rng) for _ in range(4)])
        if a.is_zero or b.is_zero:
            continue
        res = a.resultant(b)
        common = a.gcd(b).degree > 0
        assert (res == 0) == common


def test_binary_form_roundtrip_with_form():
    # position i of a two-variable form holds the coefficient of s^(d-i) t^i
    K = field(5)
    f = binary(K, (1, 2, 0, 4))
    assert f.terms == {(3, 0): 1, (2, 1): 2, (0, 3): 4}
    assert HomogeneousForm(K, 2, 3, f.terms) == f
    assert f.derivative(0) == binary(K, (3, 4, 0)) and f.derivative(1) == binary(K, (2, 0, 2))
    # a constant's derivative is the zero form of degree -1, with no coefficients at all
    assert binary(K, (3,)).derivative(1).coeffs.shape == (0,)


def _random_binary_with_repeats(K, rng):
    """A nonzero binary form of degree 1-6, often with repeated factors and the root (0:1)."""
    n = rng.randint(1, 6)
    if rng.random() < 0.3:
        coeffs = [K.random_element(rng) for _ in range(n + 1)]
        coeffs[rng.randrange(n + 1)] = rng.randrange(1, K.q)
        return binary(K, coeffs)
    f = binary(K, (rng.randrange(1, K.q),))
    while f.degree < n:
        if rng.random() < 0.2:
            g = binary(K, (1, 0))  # s, which vanishes at (0:1)
        else:
            dg = rng.randint(1, min(3, n - f.degree))
            g = binary(K, [K.random_element(rng) for _ in range(dg)] + [rng.randrange(1, K.q)])
        for _ in range(rng.randint(1, (n - f.degree) // g.degree)):
            f = product_checked(f, g)
    return f


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_binary_roots_match_scan_oracle(p, k):
    K = field(p, k)
    rng = random.Random(10 * p + k)
    repeated = at_infinity = 0
    for _ in range(40):
        f = _random_binary_with_repeats(K, rng)
        for e in range(1, 4 // k + 1):
            L = field(p, k * e)
            expected = binary_roots_by_scan(L, K.lift(f.coeffs, L).tolist(), f.degree)
            assert f.roots(extension=e) == expected, (f, e)
            repeated += any(m > 1 for _, m in expected)
            at_infinity += any(r == (0, 1) for r, _ in expected)
    assert repeated and at_infinity


def test_binary_roots_of_zero_form_refused():
    with pytest.raises(ValueError):
        binary(field(5), (0, 0, 0)).roots()
    with pytest.raises(ValueError):
        quadratic_roots(field(5), [1, 0], [0, 0], [2, 0])


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_quadratic_roots_match_binary_roots_on_every_quadratic(p, k):
    # every nonzero (q11, q12, q22) at once; a nonsplit one solved over F_{q^2}
    K, L = field(p, k), field(p, 2 * k)
    coeffs = np.array([c for c in product(range(K.q), repeat=3) if any(c)])
    roots, mult, split = quadratic_roots(K, *coeffs.T)
    roots2, mult2, split2 = quadratic_roots(L, *K.lift(coeffs, L).T)
    assert split2.all()
    kinds = set()
    for c, r, m, ok, r2, m2 in zip(coeffs.tolist(), roots, mult, split, roots2, mult2):
        f = binary(K, c)
        expected = f.roots()
        assert ok == (sum(n for _, n in expected) == 2), c
        assert [(tuple(x), n) for x, n in zip(r.tolist(), m.tolist()) if n] == expected, c
        if not ok:
            assert not m.any() and not r.any()
            assert [(tuple(x), n) for x, n in zip(r2.tolist(), m2.tolist()) if n] == f.roots(extension=2), c
        kinds.add((bool(ok), tuple(m.tolist()), c[2] == 0))
    # split and nonsplit, simple and double, with and without a root at (0 : 1)
    assert kinds >= {(True, (1, 1), False), (True, (2, 0), False), (True, (1, 1), True), (True, (2, 0), True),
                     (False, (0, 0), False)}


def test_interpolation_bases_over_one_points_field_share_its_row_reduction(monkeypatch):
    # F_3, F_9, F_27 and F_81 all take the interpolation points of cubics from F_3
    reduced = []
    monkeypatch.setattr(forms, "rref", lambda K, mat: reduced.append(K) or rref(K, mat))
    forms._interpolation_basis.cache_clear()
    forms._points_field_basis.cache_clear()
    F = field(3)
    for k in (1, 2, 3, 4):
        K = field(3, k)
        L, pts = interpolation_points(K, 5, 3)
        assert L is K and np.array_equal(pts, F.lift(forms._points_field_basis(F, 5, 3)[0], K))
        f = random_form(K, 5, 3, random.Random(k))
        assert interpolate(K, 5, 3, f.evaluate_batch(pts)) == f
    assert reduced == [F]


def test_shape_mismatches_raise():
    K = field(5)
    f = HomogeneousForm.monomial(K, 3, (1, 1, 0))
    with pytest.raises(ValueError):
        f.plus(HomogeneousForm.monomial(K, 3, (1, 0, 0)))
    with pytest.raises(InvalidInput, match="cannot multiply forms in 3 and 2 variables"):
        times(f, HomogeneousForm.monomial(K, 2, (1, 0)))
    with pytest.raises(InvalidInput, match="substitution matrix has 2 rows, form has 3 variables"):
        f.substitute(np.eye(2, dtype=np.int64))
    for binary_only in (f.roots, f.is_squarefree, lambda: f.resultant(f), lambda: f.gcd(f)):
        with pytest.raises(InvalidInput, match="a binary form has 2 variables, not 3"):
            binary_only()
    with pytest.raises(InvalidInput, match="coefficients for a degree 2 form in 3 variables"):
        HomogeneousForm.from_coeffs(K, 3, 2, (1, 0, 0))
    with pytest.raises(InvalidInput, match="a coefficient code outside field of order 5"):
        HomogeneousForm.from_coeffs(K, 3, 1, (1, 5, 0))


# ---------------------------------------------------------------------------
# forms from their values
# ---------------------------------------------------------------------------

INTERPOLATION_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (5, 2), (3, 3), (3, 4)]


@pytest.mark.parametrize(
    "nvars, degree", [(2, 4), (2, 6), (3, 2), (3, 3), (3, 6), (5, 3), (6, 3), (3, 0), (1, 3), (2, 5)]
)
def test_the_interpolation_points_pin_every_form(nvars, degree):
    # every shape the package builds, a constant, a form in one variable, and
    # the quintics over F_5 whose points are all of P^1(F_5)
    exps = monomial_exponents(nvars, degree)
    for p, k in INTERPOLATION_FIELDS:
        K = field(p, k)
        F = K.points_field(degree)
        L, pts = interpolation_points(K, nvars, degree)
        assert L is (F if F.q > K.q else K)
        assert pts.shape == (len(exps), nvars)
        # points of P^(nvars-1)(F), normalized and distinct
        assert F.descend(pts, L).max(initial=0) < F.q
        assert len({tuple(pt) for pt in pts.tolist()}) == len(exps)
        assert all(tuple(pt) == normalize_point(L, pt) for pt in pts.tolist())
        # the first candidates that raise the rank of the monomial matrix
        codes = range(min(F.q, degree + 1))
        candidates = np.array(
            [(0,) * j + (1,) + t for j in range(nvars) for t in product(codes, repeat=nvars - 1 - j)], dtype=np.int64
        )
        V = np.stack([HomogeneousForm(F, nvars, degree, {e: 1}).evaluate_batch(candidates) for e in exps], axis=1)
        assert F.descend(pts, L).tolist() == candidates[rref(F, V.T)[1]].tolist()
        V = np.array([[HomogeneousForm(L, nvars, degree, {e: 1}).evaluate(pt) for e in exps] for pt in pts.tolist()])
        assert rank(L, V) == len(exps)
        # interpolation inverts evaluation at the points
        f = random_form(K, nvars, degree, random.Random(degree))
        assert interpolate(K, nvars, degree, f.embedded(L).evaluate_batch(pts)) == f
        if L is not K:
            # a primitive element of L at every point: x0^degree times it, not a form over K
            with pytest.raises(InternalInconsistency):
                interpolate(K, nvars, degree, np.full(len(exps), L.generator))


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2)])
def test_forms_built_from_values_match_the_dict_oracle(p, k):
    # products, substitutions and divisions of degree 1-6 in 2-6 variables;
    # over F_3 they go through F_9 from degree 4, over F_5 through F_25 at degree 6
    K = field(p, k)
    rng = random.Random(100 * p + k)
    for degree in [1, 2, 3, 4, 5, 6] * 2:
        m = rng.randint(2, 6 if degree < 5 else 4)
        f = random_form(K, m, degree, rng)
        width = rng.randint(2, 5)
        M = np.array([[K.random_element(rng) for _ in range(width)] for _ in range(m)], dtype=np.int64)
        assert f.substitute(M) == substitute_by_dicts(f, M)
        d1 = rng.randint(0, degree)
        g, h = random_form(K, m, d1, rng), random_form(K, m, degree - d1, rng)
        assert times(g, h) == times_by_dicts(g, h)
        ell = [K.random_element(rng) for _ in range(m)]
        ell[rng.randrange(m)] = rng.randrange(1, K.q)
        product_form = times_by_dicts(HomogeneousForm.linear(K, ell), g)
        assert divide_by_linear(product_form, ell) == divide_by_linear_by_dicts(product_form, ell) == g
        assert _quotient(divide_by_linear, f, ell) == _quotient(divide_by_linear_by_dicts, f, ell)


def _quotient(divide, f, ell):
    try:
        return divide(f, ell)
    except ValueError:
        return "not divisible"


@pytest.mark.parametrize("p, k", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_every_vector_operation_matches_the_dict_oracles(p, k):
    # random forms in 2-6 variables of degree 1-4, each operation against its
    # term-by-term counterpart; the extension takes F_9 to F_81 and F_25 to F_625
    K, L = field(p, k), field(p, 2 * k)
    rng = random.Random(1000 * p + k)
    for nvars in range(2, 7):
        for degree in range(1, 5):
            f, g = random_form(K, nvars, degree, rng), random_form(K, nvars, degree, rng)
            c = K.random_element(rng)
            assert f.plus(g) == HomogeneousForm(K, nvars, degree, _dict_add(K, f.terms, g.terms))
            assert f.scaled(c) == HomogeneousForm(K, nvars, degree, {e: K.mul_(v, c) for e, v in f.terms.items()})
            for i in range(nvars):
                lowered = {e[:i] + (e[i] - 1,) + e[i + 1 :]: K.mul_(v, e[i] % p) for e, v in f.terms.items() if e[i]}
                assert f.derivative(i) == HomogeneousForm(K, nvars, degree - 1, lowered)
            assert f.embedded(L) == HomogeneousForm(L, nvars, degree, {e: K.lift(v, L) for e, v in f.terms.items()})
            h = random_form(K, nvars, rng.randint(0, 4 - degree), rng)
            assert times(f, h) == times_by_dicts(f, h)
            width = rng.randint(2, 3)
            M = np.array([[K.random_element(rng) for _ in range(width)] for _ in range(nvars)])
            assert f.substitute(M) == substitute_by_dicts(f, M)
            ell = [K.random_element(rng) for _ in range(nvars)]
            ell[rng.randrange(nvars)] = rng.randrange(1, K.q)
            product_form = times_by_dicts(HomogeneousForm.linear(K, ell), g)
            assert divide_by_linear(product_form, ell) == divide_by_linear_by_dicts(product_form, ell) == g
            assert _quotient(divide_by_linear, f, ell) == _quotient(divide_by_linear_by_dicts, f, ell)
            pts = [[K.random_element(rng) for _ in range(nvars)] for _ in range(5)]
            assert [f.evaluate(pt) for pt in pts] == [evaluate_form_naive(K, f.terms, pt) for pt in pts]
