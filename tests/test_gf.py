"""Field layer: table arithmetic against naive oracles, frozen small cases."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubicfano import gf
from cubicfano.gf import (
    GF,
    CharacteristicTwoError,
    NotSupportedError,
    canonical_modulus,
    field,
    section_onto,
)
from reference_impl import RefField, ref_irreducible

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
    assert field(5).chi_(2) == -1
    assert field(7).chi_(3) == -1
    assert field(7).chi_(2) == 1
    assert field(7).chi_(0) == 0


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
    with pytest.raises(CharacteristicTwoError):
        GF(2)
    with pytest.raises(ValueError):
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
def test_fields_beyond_the_table_budget_refused(monkeypatch, p, k):
    # the two q x q uint16 tables would pass 1 GiB (q > 16384): refused before
    # the modulus search and before any table is allocated, not a MemoryError
    monkeypatch.setattr(gf, "canonical_modulus", lambda p, k: pytest.fail("modulus searched"))
    monkeypatch.setattr(GF, "_build_tables", lambda self: pytest.fail("tables built"))
    with pytest.raises(NotSupportedError, match="the limit is 1 GiB"):
        GF(p, k)


def test_table_build_peaks_near_its_tables():
    # both q x q tables are built in row blocks: F_{7^4} keeps 22 MiB of
    # tables, and building them may take at most 64 MiB more
    tracemalloc.start()
    try:
        K = GF(7, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= K.add.nbytes + K.mul.nbytes + (64 << 20)


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


@pytest.mark.parametrize("p,k", SMALL_FIELDS)
def test_sqrt_and_character_match_bruteforce(p, k):
    K = field(p, k)
    R = ref_of(K)
    for a in range(K.q):
        roots = R.square_roots(a)
        if not roots:
            assert K.sqrt(a) is None
            assert K.chi_(a) == -1
        else:
            r = K.sqrt(a)
            assert r in roots
            assert K.chi_(a) == (0 if a == 0 else 1)
            assert r == min(roots)  # canonical choice: smallest code


# ---------------------------------------------------------------------------
# field axioms, exhaustive for q <= 49 via vectorized tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_field_axioms_exhaustive(p, k):
    K = field(p, k)
    q = K.q
    add, mul = K.add.astype(np.int64), K.mul.astype(np.int64)
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
    assert np.array_equal(chi[K.mul], outer)
    assert int((chi == 1).sum()) == (K.q - 1) // 2
    assert int((chi == -1).sum()) == (K.q - 1) // 2


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (3, 4), (5, 2), (7, 2)])
def test_frobenius_is_field_automorphism(p, k):
    K = field(p, k)
    fr = K.frob.astype(np.int64)
    assert np.array_equal(fr[K.add], K.add[np.ix_(fr, fr)].astype(np.int64))
    assert np.array_equal(fr[K.mul], K.mul[np.ix_(fr, fr)].astype(np.int64))
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
            assert K.pow_(a, e) == R.pow(a, e)
    tables = K.powers(6)
    for e in range(7):
        for a in range(K.q):
            assert int(tables[e, a]) == R.pow(a, e)


# ---------------------------------------------------------------------------
# subfields and embeddings
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p,a,b", [(3, 1, 2), (3, 2, 4), (3, 1, 3), (5, 1, 2), (7, 1, 2), (3, 1, 4)])
def test_embedding_is_injective_ring_map(p, a, b):
    small, big = field(p, a), field(p, b)
    emb = small.embedding_into(big)
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
    back = section_onto(p, b, a)
    assert all(back[int(emb[x])] == x for x in range(small.q))


def test_prime_subfield_embeds_as_identity_codes():
    emb = field(5).embedding_into(field(5, 2))
    assert list(emb) == [0, 1, 2, 3, 4]


def test_embeddings_compose():
    F3, F9, F81 = field(3), field(3, 2), field(3, 4)
    via9 = field(3, 2).embedding_into(F81)[F3.embedding_into(F9)]
    direct = F3.embedding_into(F81)
    assert np.array_equal(via9, direct)


@pytest.mark.parametrize("small,big", [((3, 1), (3, 2)), ((3, 1), (3, 4)), ((3, 2), (3, 4)), ((5, 1), (5, 2))])
def test_lift_is_the_canonical_embedding(small, big):
    K, L = field(*small), field(*big)
    emb = K.embedding_into(L)
    for x in K.elements():
        assert K.lift(x, L) == int(emb[x])
    codes = np.arange(K.q).reshape(-1, 1)
    lifted = K.lift(codes, L)
    assert lifted.dtype == np.int64 and lifted.shape == codes.shape
    assert lifted[:, 0].tolist() == emb.tolist()
    rows = [[x, (x + 1) % K.q] for x in K.elements()]
    assert K.lift(rows, L) == tuple((int(emb[a]), int(emb[b])) for a, b in rows)
    assert K.extension(big[1] // small[1]) is L


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
    assert K.chi_(K.mul_(a, b)) == K.chi_(a) * K.chi_(b)
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
