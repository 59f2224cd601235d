"""Field layer: table arithmetic against naive and dense-table oracles, frozen small cases."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicfano import gf
from cubicfano.errors import InternalInconsistency, InvalidInput, NotSupportedError
from cubicfano.gf import GF, canonical_modulus, field
from reference_impl import RefField, dense_tables, ref_irreducible

SMALL_FIELDS = [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (7, 2)]


def ref_of(K):
    return RefField(K.p, K.modulus)


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------


def test_inverse_frozen_f5():
    assert field(5).inverse(2) == 3


def test_inverse_frozen_f9():
    F9 = field(3, 2)
    assert F9.modulus == (1, 0, 1)  # x^2 + 1
    x = F9.encode((0, 1))
    two_x = F9.encode((0, 2))
    assert F9.inverse(x) == two_x


def test_character_frozen():
    assert field(5).chi[2] == -1
    assert field(7).chi[3] == -1
    assert field(7).chi[2] == 1
    assert field(7).chi[0] == 0


def test_sqrt_frozen():
    assert field(7).sqrt(4) == 2  # canonical pick from {2, 5}
    assert field(5).sqrt(3) is None
    assert field(5).sqrt(0) == 0


def test_canonical_moduli_frozen():
    assert canonical_modulus(3, 2) == (1, 0, 1)  # x^2 + 1
    assert canonical_modulus(5, 2) == (2, 0, 1)  # x^2 + 2
    assert canonical_modulus(7, 2) == (1, 0, 1)  # x^2 + 1


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        field(5).inverse(0)


def test_bad_parameters_rejected():
    with pytest.raises(InvalidInput, match="characteristic 2 is not supported"):
        GF(2)
    with pytest.raises(InvalidInput, match="characteristic 9 is not prime"):
        GF(9)
    with pytest.raises(NotSupportedError):
        GF(3, 5)


@pytest.mark.parametrize("p,k", [(257, 2), (17, 4)])
def test_fields_beyond_uint16_codes_refused(monkeypatch, p, k):
    # refused before the modulus search and before any table is allocated
    monkeypatch.setattr(gf, "canonical_modulus", lambda p, k: pytest.fail("modulus searched"))
    monkeypatch.setattr(GF, "_build_tables", lambda self: pytest.fail("tables built"))
    with pytest.raises(NotSupportedError, match="uint16"):
        GF(p, k)


@pytest.mark.parametrize("p,k", [(13, 4), (131, 2)])
def test_fields_past_the_old_table_budget_build(p, k):
    # their q x q tables would have taken 3.0 and 1.1 GiB; sums and products
    # come from O(q) tables, checked on sampled triples and against the
    # polynomial arithmetic of the modulus
    K = field(p, k)
    R = ref_of(K)
    a, b, c = np.random.default_rng(p).integers(0, K.q, (3, 4000))
    add, mul = K.add, K.mul
    assert np.array_equal(add(a, b), add(b, a)) and np.array_equal(mul(a, b), mul(b, a))
    assert np.array_equal(add(add(a, b), c), add(a, add(b, c)))
    assert np.array_equal(mul(mul(a, b), c), mul(a, mul(b, c)))
    assert np.array_equal(mul(a, add(b, c)), add(mul(a, b), mul(a, c)))
    assert np.array_equal(add(a, 0), a) and np.array_equal(mul(a, 1), a) and not mul(a, 0).any()
    assert not add(a, K.neg[a]).any() and np.array_equal(K.sub(add(a, b), b), a)
    nz = a[a != 0]
    assert np.all(mul(nz, K.inv[nz]) == 1)
    for x, y in zip(a[:200].tolist(), b[:200].tolist()):
        assert K.add_(x, y) == R.add(x, y) and K.mul_(x, y) == R.mul(x, y)


def test_table_build_peaks_near_its_tables():
    # F_{7^4} is past the dense size: with its two q x q tables the build
    # peaked at 59 MiB of traced allocations, on O(q) tables it stays under 2 MiB
    tracemalloc.start()
    try:
        GF(7, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


# ---------------------------------------------------------------------------
# moduli and table arithmetic against the reference implementation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (7, 3)])
def test_modulus_is_smallest_irreducible(p, k):
    mod = canonical_modulus(p, k)
    assert mod[-1] == 1 and len(mod) == k + 1
    assert ref_irreducible(mod, p)
    R = RefField(p, mod)  # just for encode/decode helpers
    for code in range(R.encode(mod[:-1])):
        cand = R.decode(code) + (1,)
        assert not ref_irreducible(cand, p)


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_tables_match_reference(p, k):
    K = field(p, k)
    R = ref_of(K)
    for a in range(K.q):
        for b in range(K.q):
            assert K.add_(a, b) == R.add(a, b)
            assert K.mul_(a, b) == R.mul(a, b)
    for a in range(1, K.q):
        assert K.inverse(a) == R.inverse(a)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_vectorized_arithmetic_is_the_scalar_arithmetic_broadcast(monkeypatch, p, k):
    # every pair, as (n, 1) x (1, m) grids of int64 and of uint16 codes, and a
    # scalar against an array on either side; the codes come back as uint16,
    # from the dense tables and from the O(q) ones alike
    built = field(p, k)
    monkeypatch.setattr(gf, "_DENSE_TABLE_BYTES", 0)
    for K in (built, GF(p, k)):
        codes = np.arange(K.q)
        for vec, scalar in ((K.add, K.add_), (K.sub, K.sub_), (K.mul, K.mul_)):
            table = [[scalar(a, b) for b in codes.tolist()] for a in codes.tolist()]
            for dtype in (np.int64, np.uint16):
                grid = vec(codes.astype(dtype)[:, None], codes.astype(dtype)[None, :])
                assert grid.dtype == np.uint16 and grid.tolist() == table
            odd = codes[1::2]
            assert vec(codes[::2, None], odd[None, :]).tolist() == [row[1::2] for row in table[::2]]
            for a in codes.tolist():
                row, column = vec(a, codes), vec(codes, a)
                assert row.dtype == column.dtype == np.uint16
                assert row.tolist() == table[a] and column.tolist() == [r[a] for r in table]
                pair = vec(a, K.q - 1)
                assert type(pair) is np.uint16 and pair == table[a][K.q - 1]
                assert type(scalar(a, np.uint16(K.q - 1))) is int


# every extension field up to q = 2401, the prime fields below 50, and the
# primes on either side of the dense size (509, 521) and at q = 2399
DENSE_ORACLE_FIELDS = [
    (p, k) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47) for k in range(1, 5) if p**k <= 2401
] + [(509, 1), (521, 1), (2399, 1)]


@pytest.mark.parametrize("p,k", DENSE_ORACLE_FIELDS)
def test_arithmetic_matches_the_dense_tables(monkeypatch, p, k):
    # the field as built, and below the dense size also built on its O(q)
    # tables: every pair through the broadcasting ops, sampled pairs through
    # the scalar ones
    add, mul = dense_tables(p, k)
    neg = np.argmin(add, axis=1)  # add[a, neg[a]] = 0, the only zero of the row
    builds = [GF(p, k)]
    if 4 * builds[0].q ** 2 <= gf._DENSE_TABLE_BYTES:
        monkeypatch.setattr(gf, "_DENSE_TABLE_BYTES", 0)
        builds.append(GF(p, k))
    pairs = np.random.default_rng(p**k).integers(0, p**k, (2, 500)).tolist()
    for K in builds:
        codes = np.arange(K.q)
        assert np.array_equal(K.neg, neg)
        assert np.array_equal(K.add(codes[:, None], codes[None, :]), add)
        assert np.array_equal(K.sub(codes[:, None], codes[None, :]), add[:, neg])
        assert np.array_equal(K.mul(codes[:, None], codes[None, :]), mul)
        for a, b in zip(*pairs):
            assert (K.add_(a, b), K.sub_(a, b), K.mul_(a, b)) == (add[a, b], add[a, neg[b]], mul[a, b])


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_sqrt_and_character_match_bruteforce(p, k):
    K = field(p, k)
    R = ref_of(K)
    for a in range(K.q):
        roots = R.square_roots(a)
        if not roots:
            assert K.sqrt(a) is None
            assert K.chi[a] == -1
        else:
            r = K.sqrt(a)
            assert r in roots
            assert K.chi[a] == (0 if a == 0 else 1)
            assert r == min(roots)  # canonical choice: smallest code


# ---------------------------------------------------------------------------
# field axioms, exhaustive for q <= 49 via the broadcasting ops
# ---------------------------------------------------------------------------


def grids(K):
    """The addition and multiplication tables of K through its broadcasting ops, as int64."""
    c = np.arange(K.q)
    return K.add(c[:, None], c[None, :]).astype(np.int64), K.mul(c[:, None], c[None, :]).astype(np.int64)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_field_axioms_exhaustive(p, k):
    K = field(p, k)
    q = K.q
    add, mul = grids(K)
    assert np.array_equal(add, add.T)
    assert np.array_equal(mul, mul.T)
    assert np.array_equal(add[0], np.arange(q))
    assert np.array_equal(mul[1], np.arange(q))
    assert np.all(mul[0] == 0)
    # associativity and distributivity over all triples
    a = np.arange(q)[:, None, None]
    b = np.arange(q)[None, :, None]
    c = np.arange(q)[None, None, :]
    assert np.array_equal(add[add[a, b], c], add[a, add[b, c]])
    assert np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]])
    assert np.array_equal(mul[a, add[b, c]], add[mul[a, b], mul[a, c]])
    # additive and multiplicative inverses
    assert np.all(add[np.arange(q), K.neg] == 0)
    nz = np.arange(1, q)
    assert np.all(mul[nz, K.inv[nz]] == 1)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)])
def test_character_is_multiplicative_with_half_squares(p, k):
    K = field(p, k)
    chi = K.chi.astype(np.int64)
    outer = chi[:, None] * chi[None, :]
    assert np.array_equal(chi[grids(K)[1]], outer)
    assert int((chi == 1).sum()) == (K.q - 1) // 2
    assert int((chi == -1).sum()) == (K.q - 1) // 2


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_frobenius_is_field_automorphism(p, k):
    K = field(p, k)
    fr = K.frob.astype(np.int64)
    for table in grids(K):
        assert np.array_equal(fr[table], table[np.ix_(fr, fr)])
    for c in range(p):
        assert K.frobenius(c) == c
    # order k: applying k times is the identity, fewer times is not
    codes = np.arange(K.q)
    acc = codes.copy()
    for i in range(1, k + 1):
        acc = fr[acc]
        if i < k:
            assert not np.array_equal(acc, codes)
    assert np.array_equal(acc, codes)


def test_pow_agrees_with_repeated_multiplication():
    K = field(5, 2)
    R = ref_of(K)
    for a in range(K.q):
        for e in range(9):
            assert K.pow_vector(e)[a] == R.pow(a, e)


# ---------------------------------------------------------------------------
# subfields and embeddings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,a,b", [(3, 1, 2), (3, 2, 4), (3, 1, 3), (5, 1, 2), (7, 1, 2), (3, 1, 4)])
def test_embedding_is_injective_ring_map(p, a, b):
    small, big = field(p, a), field(p, b)
    emb = small.lift(np.arange(small.q), big)
    assert len(set(int(v) for v in emb)) == small.q
    assert int(emb[0]) == 0 and int(emb[1]) == 1
    for x in range(small.q):
        for y in range(small.q):
            assert int(emb[small.add_(x, y)]) == big.add_(int(emb[x]), int(emb[y]))
            assert int(emb[small.mul_(x, y)]) == big.mul_(int(emb[x]), int(emb[y]))
    # the image is exactly the Frobenius-fixed subfield
    image = {int(v) for v in emb}
    fixed = {x for x in big.elements() if big.frobenius(x, a) == x}
    assert image == fixed


def test_prime_subfield_embeds_as_identity_codes():
    emb = field(5).lift(np.arange(5), field(5, 2))
    assert list(emb) == [0, 1, 2, 3, 4]


def test_embeddings_compose():
    F3, F9, F81 = field(3), field(3, 2), field(3, 4)
    via9 = F9.lift(F3.lift(np.arange(3), F9), F81)
    direct = F3.lift(np.arange(3), F81)
    assert np.array_equal(via9, direct)


@pytest.mark.parametrize("small,big", [((3, 1), (3, 2)), ((3, 1), (3, 4)), ((3, 2), (3, 4)), ((5, 1), (5, 2))])
def test_lift_is_the_canonical_embedding(small, big):
    K, L = field(*small), field(*big)
    emb = gf._embedding(K.p, K.k, L.k)
    for x in K.elements():
        assert K.lift(x, L) == int(emb[x])
    codes = np.arange(K.q).reshape(-1, 1)
    lifted = K.lift(codes, L)
    assert lifted.dtype == np.int64 and lifted.shape == codes.shape
    assert lifted[:, 0].tolist() == emb.tolist()
    rows = [[x, (x + 1) % K.q] for x in K.elements()]
    assert K.lift(rows, L) == tuple((int(emb[a]), int(emb[b])) for a, b in rows)
    assert K.extension(big[1] // small[1]) is L


@pytest.mark.parametrize("small,big", [((3, 1), (3, 2)), ((3, 1), (3, 4)), ((3, 2), (3, 4)), ((5, 1), (5, 2))])
def test_descend_inverts_lift_and_refuses_a_code_outside(small, big):
    K, L = field(*small), field(*big)
    codes = np.arange(K.q).reshape(-1, 1)
    down = K.descend(K.lift(codes, L), L)
    assert down.dtype == np.int64 and down.tolist() == codes.tolist()
    assert K.descend(codes, K).tolist() == codes.tolist()
    outside = sorted(set(range(L.q)) - set(K.lift(tuple(K.elements()), L)))
    assert len(outside) == L.q - K.q
    for x in outside:
        with pytest.raises(InternalInconsistency, match="cannot come down"):
            K.descend([0, x], L)


@pytest.mark.parametrize(
    "p, k, degree, points_field",
    [(3, 1, 3, (3, 1)), (3, 1, 4, (3, 2)), (3, 1, 6, (3, 2)), (5, 1, 5, (5, 1)), (5, 1, 6, (5, 2)),
     (7, 1, 6, (7, 1)), (3, 2, 6, (3, 2)), (3, 4, 3, (3, 1)), (3, 4, 6, (3, 2)), (3, 3, 6, (3, 3)),
     (3, 1, 10, (3, 3)), (5, 2, 0, (5, 1))],
)
def test_points_field_is_the_smallest_large_enough_subfield_or_extension(p, k, degree, points_field):
    assert field(p, k).points_field(degree) is field(*points_field)


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (3, 4)])
def test_extension_and_lift_within_one_field(p, k):
    K = field(p, k)
    assert K.extension(1) is K
    assert K.lift(((1, 2), (0, K.q - 1)), K) == ((1, 2), (0, K.q - 1))
    assert K.lift(K.q - 1, K) == K.q - 1


@pytest.mark.parametrize("p,k", [(3, 1), (3, 2), (5, 1), (7, 1), (3, 4)])
def test_reaches_is_the_degree_check_of_the_field(p, k):
    K = field(p, k)
    for d in range(6):
        try:
            field(p, k * d)
            passes = True
        except NotSupportedError as exc:
            assert "extension degree" in str(exc)
            passes = False
        assert K.reaches(d) == passes, d
        if passes:
            assert K.extension(d) is field(p, k * d)


# ---------------------------------------------------------------------------
# property tests on the bigger tables
# ---------------------------------------------------------------------------


@given(st.integers(0, 625 - 1), st.integers(0, 625 - 1), st.integers(0, 625 - 1))
@settings(max_examples=200, deadline=None)
def test_f625_axioms_sampled(a, b, c):
    K = field(5, 4)
    assert K.add_(a, K.neg_(a)) == 0
    assert K.mul_(K.add_(a, b), c) == K.add_(K.mul_(a, c), K.mul_(b, c))
    assert K.mul_(a, K.mul_(b, c)) == K.mul_(K.mul_(a, b), c)
    if a != 0:
        assert K.mul_(a, K.inverse(a)) == 1


@given(st.integers(0, 2400), st.integers(0, 2400))
@settings(max_examples=120, deadline=None)
def test_f2401_character_and_sqrt_sampled(a, b):
    K = field(7, 4)
    assert K.chi[K.mul_(a, b)] == K.chi[a] * K.chi[b]
    sq = K.mul_(a, a)
    r = K.sqrt(sq)
    assert r is not None and K.mul_(r, r) == sq


def test_field_objects_are_cached():
    assert field(3, 2) is field(3, 2)


def test_one_field_object_per_field():
    assert field(3) is field(3, 1) is field(p=3, k=1)


def test_lifting_into_an_extension_builds_each_field_once(monkeypatch):
    built = []
    init = GF.__init__

    def counted(self, p, k=1):
        built.append((p, k))
        init(self, p, k)

    monkeypatch.setattr(GF, "__init__", counted)
    monkeypatch.setattr(gf, "_FIELDS", {})
    gf._embedding.cache_clear()
    K = field(3)
    L = K.extension(2)
    assert K.lift((0, 1, 2), L) == (0, 1, 2)
    assert L.lift(K.lift(2, L), L) == 2
    gf._embedding(3, 1, 2)
    assert sorted(built) == [(3, 1), (3, 2)]
