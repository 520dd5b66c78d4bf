import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import named_ring
from loop_reference import loop_spin, naive_algebra_closure
from filtra import algrep
from filtra.algrep import (
    FactorData,
    MatAlgebra,
    RadicalData,
    algebra_closure,
    check_certificate,
    composition_factors,
    embed_adjoint_pairs,
    embed_centroid_triples,
    jacobson_radical,
    module_image,
    quotient_regular_rep,
    radical_chain,
    spin,
    try_split,
    verify_radical,
)
from filtra.bimap import (adjoint_ring, centroid_ring, heisenberg_tensor, kronecker_pair_tensor,
                          solve_ring)
from filtra.errors import ClosureViolation, MeataxeExhausted
from filtra.modlinalg import Subspace
from filtra.oracles import traceform_radical_dim
from filtra.ring import make_poly_quotient


def unit(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


def test_closure_examples():
    assert algebra_closure([], 2, 2, unital=True).dim == 1
    full = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 5, 2)
    assert full.dim == 4
    assert full.is_unital()
    upper = algebra_closure([unit(3, 0, 1), unit(3, 1, 2)], 2, 3)
    assert upper.dim == 3
    assert upper.contains_mat(unit(3, 0, 2))
    assert not upper.is_unital()


def test_matalgebra_rejects_open_span():
    vecs = [unit(2, 0, 1).reshape(-1), unit(2, 1, 0).reshape(-1)]
    with pytest.raises(ClosureViolation):
        MatAlgebra(2, 2, Subspace(2, 4, vecs))


def test_coords_roundtrip():
    alg = algebra_closure([unit(2, 0, 1)], 3, 2, unital=True)
    m = (2 * np.eye(2, dtype=np.int64) + unit(2, 0, 1)) % 3
    c = alg.coords_of(m)
    recon = sum(int(ci) * bi for ci, bi in zip(c, alg.mats)) % 3
    assert np.array_equal(recon, m)
    with pytest.raises(ValueError):
        alg.coords_of(unit(2, 1, 0))
    stacked = alg.coords_of(np.stack([m, unit(2, 0, 1)]))
    assert np.array_equal(stacked, np.stack([c, alg.coords_of(unit(2, 0, 1))]))


def test_spin():
    mats = [unit(2, 0, 1), np.eye(2, dtype=np.int64)]
    assert spin(np.array([1, 0]), mats, 2).shape[0] == 2
    assert spin(np.array([0, 1]), mats, 2).shape[0] == 1


@st.composite
def _modules(draw):
    """A vector and 0-3 generator matrices over Z_p; strictly upper
    triangular generators give proper submodules and long spins."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(1, 8))
    triangular = draw(st.booleans())
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(arrays(np.int64, (n, n), elements=st.integers(0, p - 1)))
        mats.append(np.triu(m, 1) if triangular else m)
    v = draw(arrays(np.int64, n, elements=st.integers(0, p - 1)))
    return v, mats, p


@given(_modules())
@settings(max_examples=150, deadline=None)
def test_spin_matches_row_loop(case):
    v, mats, p = case
    got, want = spin(v, mats, p), loop_spin(v, mats, p)
    assert got.shape == want.shape and np.array_equal(got, want)


def test_radical_of_full_matrix_algebra(rng):
    alg = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 5, 2)
    rad = jacobson_radical(alg, rng)
    assert rad.dim == 0
    assert rad.chain_dims() == []
    assert len(rad.factors) == 1 and rad.factors[0].dim == 2
    assert verify_radical(alg, rad) == []


def test_radical_of_triangular_algebra(rng):
    alg = algebra_closure([unit(2, 0, 1)], 2, 2, unital=True)
    rad = jacobson_radical(alg, rng)
    assert rad.dim == 1
    assert rad.chain_dims() == [1]
    assert rad.nilpotency_index == 2
    assert [f.dim for f in rad.factors] == [1, 1]
    assert verify_radical(alg, rad) == []
    q = quotient_regular_rep(alg, rad)
    assert q is not None and q.dim == 1 and q.is_unital()


@pytest.mark.parametrize("p", [2, 3, 7])
def test_kronecker_adjoint_radical(p, rng):
    adj = adjoint_ring(kronecker_pair_tensor(1, p), p)
    alg = algebra_closure(embed_adjoint_pairs(adj.members, p), p, 6, unital=True)
    assert alg.dim == 4
    rad = jacobson_radical(alg, rng)
    assert rad.dim == 2
    assert rad.chain_dims() == [2]  # J^2 = 0
    assert verify_radical(alg, rad) == []


def test_radical_matches_traceform_oracle(rng):
    # trace form radical equals the Jacobson radical when p exceeds the
    # degree of the representation
    cases = []
    full5 = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 5, 2)
    cases.append((full5, 0))
    tri5 = algebra_closure([unit(2, 0, 1)], 5, 2, unital=True)
    cases.append((tri5, 1))
    adj7 = adjoint_ring(kronecker_pair_tensor(1, 7), 7)
    emb7 = algebra_closure(embed_adjoint_pairs(adj7.members, 7), 7, 6, unital=True)
    cases.append((emb7, 2))
    for alg, want in cases:
        assert traceform_radical_dim(alg.mats, alg.p, alg.n) == want
        assert jacobson_radical(alg, rng).dim == want


def test_radical_of_commutative_regular_rep(rng):
    # regular representation of F_2[x]/(x^3): radical is (x), dim 2
    r = named_ring("F2[x]/x3")
    mats = [r.mult_matrix(v) for v in np.eye(r.dim, dtype=np.int64)]
    alg = algebra_closure(mats, 2, r.dim, unital=True)
    assert alg.dim == 3
    rad = jacobson_radical(alg, rng)
    assert rad.dim == r.radical().dim == 2
    assert rad.chain_dims() == [2, 1]
    assert verify_radical(alg, rad) == []


def test_composition_factors_and_certificates(rng):
    tri = algebra_closure([unit(2, 0, 1)], 2, 2, unital=True)
    factors = composition_factors(tri.mats, 2, 2, rng)
    assert sorted(f.dim for f in factors) == [1, 1]
    assert all(check_certificate(f, 2) for f in factors)

    full = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 3, 2)
    factors = composition_factors(full.mats, 3, 2, rng)
    assert [f.dim for f in factors] == [2]
    assert check_certificate(factors[0], 3)


def test_bogus_certificate_rejected():
    tri = algebra_closure([unit(2, 0, 1)], 2, 2, unital=True)
    fake = FactorData(2, [m.copy() for m in tri.mats], ("allvec",))
    assert not check_certificate(fake, 2)


def test_norton_replay_checks_each_condition():
    eye, e01 = np.eye(2, dtype=np.int64), unit(2, 0, 1)
    # span((0, 1)) is a submodule; a bare matrix is not a coefficient row
    forged = FactorData(2, [eye, e01], ("norton", np.array([[0, 0], [1, 1]])))
    assert not check_certificate(forged, 2)
    # no coefficient row and irreducible f of degree <= 2 certifies it either
    for c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for f in ([0, 1], [1, 1], [1, 1, 1]):
            cert = ("norton", np.array(c), np.array(f))
            assert not check_certificate(FactorData(2, [eye, e01], cert), 2), (c, f)
    # M_2(F_2) is irreducible: b = I + e01 with f = x + 1 is a good element,
    # and each forgery below fails exactly one condition
    full = algebra_closure([e01, unit(2, 1, 0)], 2, 2)
    action = [m.copy() for m in full.mats]
    unipotent = full.coords_of(eye + e01)
    assert check_certificate(FactorData(2, action, ("norton", unipotent, np.array([1, 1]))), 2)
    # (x + 1)^2 kills b, so its nullity is its degree and both spins are full
    reducible_f = ("norton", unipotent, np.array([1, 0, 1]))
    assert not check_certificate(FactorData(2, action, reducible_f), 2)
    # b = I has nullity 2 under x + 1 of degree 1
    wrong_nullity = ("norton", full.coords_of(eye), np.array([1, 1]))
    assert not check_certificate(FactorData(2, action, wrong_nullity), 2)
    short_row = ("norton", unipotent[:-1], np.array([1, 1]))
    assert not check_certificate(FactorData(2, action, short_row), 2)


def test_split_through_the_transpose():
    # upper triangular 2 x 2 matrices over F_2 in the basis (1, 0), (1, 1):
    # the only submodule is span((1, 1)), which holds no standard basis
    # vector, so the pre-pass spins full; a draw whose good factor lives on
    # the quotient has a null vector outside it, and only the spin of the
    # transpose finds the submodule
    t = np.array([[1, 0], [1, 1]])
    tri = [unit(2, 0, 0), unit(2, 0, 1), unit(2, 1, 1)]
    mats = [(t @ m @ t) % 2 for m in tri]   # t is its own inverse mod 2
    assert all(spin(e, mats, 2).shape[0] == 2 for e in np.eye(2, dtype=np.int64))
    for seed in range(20):
        verdict, rows = try_split(mats, 2, 2, np.random.default_rng(seed))
        assert verdict == "sub" and np.array_equal(rows, [[1, 1]]), seed


def test_draw_cap_raises_named_error(monkeypatch):
    full = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 3, 2)
    monkeypatch.setattr(algrep, "MAX_DRAWS", 0)
    with pytest.raises(MeataxeExhausted) as err:
        try_split(full.mats, 3, 2, np.random.default_rng(0))
    assert (err.value.n, err.value.p, err.value.draws) == (2, 3, 0)
    assert "dimension 2 module over Z_3" in str(err.value)


def _field_heisenberg_algebras(p, coeffs):
    """Centroid and adjoint algebras of the Heisenberg tensor of the field
    Z_p[x]/(f), with the ring dimensions they must have."""
    tensor = heisenberg_tensor(make_poly_quotient(p, coeffs))
    a, k = tensor.shape[0], len(coeffs) - 1
    cent = solve_ring(tensor, p, "centroid")
    adj = solve_ring(tensor, p, "adjoint")
    return [(algebra_closure(embed_centroid_triples(cent.members, p), p,
                             2 * a + tensor.shape[2], unital=True), k),
            (algebra_closure(embed_adjoint_pairs(adj.members, p), p, 2 * a, unital=True), 4 * k)]


@pytest.mark.parametrize("p,coeffs", [
    (2, [1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1]),   # x^13 + x^4 + x^3 + x + 1
    (3, [1, 2, 0, 1]),                                   # x^3 + 2x + 1
    (5, [1, 1, 0, 1]),                                   # x^3 + x + 1
])
def test_heisenberg_field_radicals_are_zero(p, coeffs, rng):
    # every nonzero element of the centroid F_q is invertible
    for alg, dim in _field_heisenberg_algebras(p, coeffs):
        assert alg.dim == dim
        rad = jacobson_radical(alg, rng)
        assert rad.dim == 0
        assert all(check_certificate(f, p) for f in rad.factors)
        assert sum(f.dim for f in rad.factors) == alg.n


@st.composite
def _small_algebras(draw):
    """Generators of a unital algebra of n x n matrices over Z_p, p > n;
    triangular ones give nonzero radicals."""
    p = draw(st.sampled_from([5, 7]))
    n = draw(st.integers(1, 4))
    triangular = draw(st.booleans())
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(arrays(np.int64, (n, n), elements=st.integers(0, p - 1)))
        mats.append(np.triu(m) if triangular else m)
    return mats, p, n


@given(_small_algebras())
@settings(max_examples=60, deadline=None)
def test_radical_matches_traceform_oracle_on_random_algebras(case):
    mats, p, n = case
    alg = algebra_closure(mats, p, n, unital=True)
    rad = jacobson_radical(alg, np.random.default_rng(0))
    assert rad.dim == traceform_radical_dim(alg.mats, p, n)
    assert verify_radical(alg, rad) == []


def test_radical_does_not_depend_on_seed():
    algebras = [algebra_closure(embed_adjoint_pairs(adjoint_ring(kronecker_pair_tensor(2, 3), 3)
                                                    .members, 3), 3, 10, unital=True)]
    r = named_ring("F2[x]/x2")
    adj = adjoint_ring(heisenberg_tensor(r), 2)
    algebras.append(algebra_closure(embed_adjoint_pairs(adj.members, 2), 2, 8, unital=True))
    algebras += [alg for alg, _ in _field_heisenberg_algebras(5, [1, 1, 0, 1])]
    for alg in algebras:
        seen = set()
        for seed in range(20):
            rad = jacobson_radical(alg, np.random.default_rng(seed))
            seen.add((rad.dim, tuple(rad.chain_dims()), tuple(sorted(f.dim for f in rad.factors))))
        assert len(seen) == 1, seen


@st.composite
def _generator_lists(draw):
    """Dense generators close in a round or two; sparse and strictly upper
    triangular ones grow their algebra over many rounds."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["dense", "sparse", "nilpotent"]))
    mats = []
    for _ in range(draw(st.integers(0, 3))):
        m = draw(arrays(np.int64, (n, n), elements=st.integers(0, p - 1)))
        if kind == "sparse":
            m = m * draw(arrays(np.bool_, (n, n), elements=st.sampled_from([False, False, True])))
        mats.append(np.triu(m, 1) if kind == "nilpotent" else m)
    return mats, p, n, draw(st.booleans())


@given(_generator_lists())
@settings(max_examples=100, deadline=None)
def test_semi_naive_closure_matches_naive(case):
    mats, p, n, unital = case
    got = algebra_closure(mats, p, n, unital=unital)
    assert got.space == naive_algebra_closure(mats, p, n, unital=unital)
    assert got._closed()


def test_product_blocks_do_not_change_results(monkeypatch):
    mats = [unit(3, 0, 1), unit(3, 1, 2), unit(3, 2, 2)]
    want = algebra_closure(mats, 3, 3, unital=True)
    want_rad = jacobson_radical(want)
    want_q = quotient_regular_rep(want, want_rad)
    # one left factor per block of products
    monkeypatch.setattr(algrep, "PRODUCT_BLOCK", 1)
    got = algebra_closure(mats, 3, 3, unital=True)
    assert got.space == want.space and got._closed()
    rad = jacobson_radical(got)
    assert rad.coeff_space == want_rad.coeff_space and rad.chain == want_rad.chain
    assert quotient_regular_rep(got, rad).space == want_q.space
    assert verify_radical(got, rad) == []
    assert want.dim == 5 and rad.chain_dims() == [3, 1] and want_q.dim == 2


def test_verify_radical_counts_each_failing_product():
    alg = algebra_closure([unit(3, 0, 1), unit(3, 1, 2), unit(3, 2, 2)], 3, 3, unital=True)
    e22 = unit(3, 2, 2)
    # span(e22) is not nilpotent and not an ideal: e02 @ e22 and e12 @ e22 leave it
    fake = RadicalData(Subspace(3, alg.dim, [alg.coords_of(e22)]), [e22],
                       [Subspace(3, 9, [e22.reshape(-1)])], [])
    assert verify_radical(alg, fake) == [("not_ideal",), ("not_ideal",), ("not_nilpotent",),
                                         ("quotient_not_semisimple", 3)]


def test_radical_chain_detects_non_nilpotent():
    from filtra.errors import FiltraError

    with pytest.raises(FiltraError):
        radical_chain([np.eye(2, dtype=np.int64)], 2, 2)


def test_embed_adjoint_pairs_is_multiplicative():
    p = 3
    adj = adjoint_ring(heisenberg_tensor(named_ring("F3")), p)
    embeds = embed_adjoint_pairs(adj.members, p)
    for (x1, y1), m1 in zip(adj.members, embeds):
        for (x2, y2), m2 in zip(adj.members, embeds):
            prod = embed_adjoint_pairs([((x1 @ x2) % p, (y2 @ y1) % p)], p)[0]
            assert np.array_equal((m1 @ m2) % p, prod)


def test_heisenberg_field_adjoint_is_semisimple(rng):
    # Adj of the symplectic form is a full 2x2 matrix algebra
    for p in (2, 3):
        adj = adjoint_ring(heisenberg_tensor(named_ring(f"F{p}")), p)
        alg = algebra_closure(embed_adjoint_pairs(adj.members, p), p, 4, unital=True)
        assert jacobson_radical(alg, rng).dim == 0


def test_embed_centroid_triples_block_shape():
    cent = centroid_ring(heisenberg_tensor(named_ring("F4")), 2)
    embeds = embed_centroid_triples(cent.members, 2)
    for (x, y, z), m in zip(cent.members, embeds):
        assert m.shape == (10, 10)
        assert np.array_equal(m[:4, :4], x % 2)
        assert np.array_equal(m[4:8, 4:8], y % 2)
        assert np.array_equal(m[8:, 8:], z % 2)


def test_module_image(rng):
    eye3 = np.eye(3, dtype=np.int64)
    assert module_image(eye3, [eye3], 2, 3).dim == 3
    assert module_image(eye3, [np.zeros((3, 3), dtype=np.int64)], 2, 3).dim == 0
    adj = adjoint_ring(kronecker_pair_tensor(1, 2), 2)
    alg = algebra_closure(embed_adjoint_pairs(adj.members, 2), 2, 6, unital=True)
    rad = jacobson_radical(alg, rng)
    xparts = [m[:3, :3] for m in rad.mats]
    assert module_image(eye3, xparts, 2, 3).dim == 2
