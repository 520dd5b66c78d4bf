import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import named_ring
from loop_reference import (basis_algebra_closure, base_change_split, frobenius_radical,
                            loop_spin, naive_algebra_closure, spin_check_certificate)
from oracles import traceform_radical_dim
from filtra import algrep
from filtra.algrep import (
    FactorData,
    MatAlgebra,
    RadicalData,
    _split_action,
    algebra_closure,
    check_certificate,
    composition_factors,
    embed_adjoint_pairs,
    embed_centroid_triples,
    jacobson_radical,
    quotient_regular_rep,
    radical_chain,
    spin,
    try_split,
    verify_radical,
)
from filtra.bimap import (adjoint_ring, centroid_ring, heisenberg_tensor, kronecker_pair_tensor,
                          solve_ring)
from filtra.errors import ClosureViolation, MeataxeExhausted
from filtra.modlinalg import Subspace, nullspace
from filtra.ring import make_poly_quotient


def unit(n, i, j):
    m = np.zeros((n, n), dtype=np.int64)
    m[i, j] = 1
    return m


def replays(factor: FactorData, p: int) -> bool:
    """check_certificate, asserted to agree with the spin replay it replaces."""
    got = check_certificate(factor, p)
    assert got == spin_check_certificate(factor, p), factor.certificate
    return got


def test_closure_examples():
    assert algebra_closure([], 2, 2, unital=True).dim == 1
    full = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 5, 2)
    assert full.dim == 4
    assert full.is_unital()
    upper = algebra_closure([unit(3, 0, 1), unit(3, 1, 2)], 2, 3)
    assert upper.dim == 3
    assert upper.space.contains(unit(3, 0, 2).reshape(-1))
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
    # one product over the closed algebra reaches what the row loop reaches
    # by words in the generators
    v, mats, p = case
    got = spin(v, algebra_closure(mats, p, len(v)).mats, p)
    want = loop_spin(v, mats, p)
    assert got.shape == want.shape and np.array_equal(got, want)


@given(_modules())
@settings(max_examples=150, deadline=None)
def test_spin_of_an_open_span_lies_inside_row_loop(case):
    # generators whose span does not close spin too small, never too large,
    # so a certificate replay on a forged action can fail but not pass
    v, mats, p = case
    inside = Subspace(p, len(v), loop_spin(v, mats, p))
    assert not inside.residues(spin(v, mats, p)).any()


@st.composite
def _split_cases(draw):
    """A closed algebra's basis and an rref basis w: the spin of a vector or
    the annihilator of a spin under the transposes (both invariant), or the
    span of random rows (seldom invariant)."""
    v, mats, p = draw(_modules())
    n = len(v)
    alg = algebra_closure(mats, p, n, unital=True)
    kind = draw(st.sampled_from(["spin", "dual", "random"]))
    if kind == "spin":
        w = spin(v, alg.mats, p)
    elif kind == "dual":
        w = nullspace(spin(v, np.transpose(alg.mats, (0, 2, 1)), p), p)
    else:
        rows = draw(arrays(np.int64, (draw(st.integers(0, n)), n), elements=st.integers(0, p - 1)))
        w = Subspace(p, n, rows).basis
    return alg.mats, w, p, kind


@given(_split_cases())
@settings(max_examples=200, deadline=None)
def test_split_action_matches_base_change(case):
    # the read-off actions are the diagonal blocks of t M t^-1, and a span
    # that is not invariant raises as the base change did
    mats, w, p, kind = case
    try:
        want = base_change_split(mats, w, p)
    except ClosureViolation:
        assert kind == "random"
        with pytest.raises(ClosureViolation):
            _split_action(mats, w, p)
        return
    for got, block in zip(_split_action(mats, w, p), want):
        assert got.shape == block.shape and np.array_equal(got, block)


def test_split_action_rejects_a_span_that_is_not_invariant():
    # upper triangular matrices move e_0 into span(e_1), so span(e_0) is not
    # a submodule, while span(e_1) is
    tri = algebra_closure([unit(2, 0, 1)], 3, 2, unital=True)
    with pytest.raises(ClosureViolation):
        _split_action(tri.mats, np.array([[1, 0]]), 3)
    sub, quo = _split_action(tri.mats, np.array([[0, 1]]), 3)
    assert sub.shape == quo.shape == (2, 1, 1)


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
    assert rad.dim == frobenius_radical(r).dim == 2
    assert rad.chain_dims() == [2, 1]
    assert verify_radical(alg, rad) == []


def test_composition_factors_and_certificates(rng):
    tri = algebra_closure([unit(2, 0, 1)], 2, 2, unital=True)
    factors = composition_factors(tri.mats, 2, 2, rng)
    assert sorted(f.dim for f in factors) == [1, 1]
    assert all(replays(f, 2) for f in factors)

    full = algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 3, 2)
    factors = composition_factors(full.mats, 3, 2, rng)
    assert [f.dim for f in factors] == [2]
    assert replays(factors[0], 3)


def test_bogus_certificate_rejected():
    tri = algebra_closure([unit(2, 0, 1)], 2, 2, unital=True)
    fake = FactorData(2, [m.copy() for m in tri.mats], ("allvec",))
    assert not replays(fake, 2)


def test_norton_replay_checks_each_condition():
    eye, e01 = np.eye(2, dtype=np.int64), unit(2, 0, 1)
    # span((0, 1)) is a submodule; a bare matrix is not a coefficient row
    forged = FactorData(2, [eye, e01], ("norton", np.array([[0, 0], [1, 1]])))
    assert not replays(forged, 2)
    # no coefficient row and irreducible f of degree <= 2 certifies it either
    for c in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        for f in ([0, 1], [1, 1], [1, 1, 1]):
            cert = ("norton", np.array(c), np.array(f))
            assert not replays(FactorData(2, [eye, e01], cert), 2), (c, f)
    # M_2(F_2) is irreducible: b = I + e01 with f = x + 1 is a good element,
    # and each forgery below fails exactly one condition
    full = algebra_closure([e01, unit(2, 1, 0)], 2, 2)
    action = [m.copy() for m in full.mats]
    unipotent = full.coords_of(eye + e01)
    assert replays(FactorData(2, action, ("norton", unipotent, np.array([1, 1]))), 2)
    # (x + 1)^2 kills b, so its nullity is its degree and both spins are full
    reducible_f = ("norton", unipotent, np.array([1, 0, 1]))
    assert not replays(FactorData(2, action, reducible_f), 2)
    # b = I has nullity 2 under x + 1 of degree 1
    wrong_nullity = ("norton", full.coords_of(eye), np.array([1, 1]))
    assert not replays(FactorData(2, action, wrong_nullity), 2)
    short_row = ("norton", unipotent[:-1], np.array([1, 1]))
    assert not replays(FactorData(2, action, short_row), 2)


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


class _FixedDraws:
    """A stand-in rng whose `integers` returns the given rows, one per call."""

    def __init__(self, *rows):
        self.rows = list(rows)

    def integers(self, low, high, size=None):
        return np.asarray(self.rows.pop(0), dtype=np.int64)


def test_irreducible_characteristic_polynomial_certifies_at_once(monkeypatch):
    # F_8 = F_2[C] for the companion C of x^3 + x + 1.  A draw of C has an
    # irreducible characteristic polynomial of degree n = 3, so no subspace
    # is invariant under C, and `try_split` certifies from it with no null
    # space and no spin
    companion = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    field = algebra_closure([companion], 2, 3, unital=True)
    c = field.coords_of(companion)
    calls = []
    for name in ("nullspace", "spin"):
        real = getattr(algrep, name)
        monkeypatch.setattr(algrep, name,
                            lambda *a, real=real, name=name: calls.append(name) or real(*a))
    verdict, cert = try_split(field.mats, 2, 3, _FixedDraws(c))
    assert calls == []
    assert verdict == "irr" and cert[0] == "norton" and len(cert) == 3
    assert np.array_equal(cert[1], c) and np.array_equal(cert[2], [1, 1, 0, 1])
    monkeypatch.undo()
    assert replays(FactorData(3, field.mats, cert), 2)
    # the same (c, f) on the upper-triangular parts: b = triu(C) is
    # nilpotent, so f(b) is invertible and its null space is not deg f
    upper = [np.triu(m) for m in field.mats]
    assert not replays(FactorData(3, upper, cert), 2)


def test_replay_agrees_on_every_radical_certificate():
    # the radicals of this file, over five seeds each: both replays agree on
    # every certificate, and both kinds of Norton certificate turn up (f of
    # degree n, replayed as a characteristic polynomial, and f of lower
    # degree, replayed by null spaces and spins)
    algebras = [algebra_closure([unit(2, 0, 1), unit(2, 1, 0)], 5, 2),
                algebra_closure([unit(2, 0, 1)], 2, 2, unital=True),
                algebra_closure([unit(2, 0, 1)], 5, 2, unital=True),
                algebra_closure([unit(3, 0, 1), unit(3, 1, 2), unit(3, 2, 2)], 3, 3, unital=True)]
    for p in (2, 3, 7):
        adj = adjoint_ring(kronecker_pair_tensor(1, p), p)
        algebras.append(algebra_closure(embed_adjoint_pairs(adj.members, p), p, 6, unital=True))
    for name in ("F2", "F3", "F2[x]/x2", "F2[x]/x3"):
        r = named_ring(name)
        adj = adjoint_ring(heisenberg_tensor(r), r.p)
        algebras.append(algebra_closure(embed_adjoint_pairs(adj.members, r.p), r.p, 4 * r.dim,
                                        unital=True))
    algebras += [alg for p, coeffs in [(3, [1, 2, 0, 1]), (5, [1, 1, 0, 1])]
                 for alg, _ in _field_heisenberg_algebras(p, coeffs)]
    kinds = set()
    for alg in algebras:
        for seed in range(5):
            for f in jacobson_radical(alg, np.random.default_rng(seed)).factors:
                assert replays(f, alg.p)
                cert = f.certificate
                kinds.add(cert[0] if cert[0] == "allvec" else len(cert[2]) - 1 == f.dim)
    assert kinds == {"allvec", True, False}


def test_degree_n_forgeries_replay_alike():
    # F_9 = F_3[C] for the companion C of x^2 + 1: b = C has the irreducible
    # characteristic polynomial x^2 + 1
    companion = np.array([[0, 1], [2, 0]])
    field = algebra_closure([companion], 3, 2, unital=True)
    c = field.coords_of(companion)
    for f, want in [([1, 0, 1], True),      # the characteristic polynomial
                    ([2, 0, 2], True),      # 2(x^2 + 1): not monic, but a multiple
                    ([1, 0, 1, 0], True),   # a zero leading term
                    ([1, 2, 2], False),     # 2(x^2 + x + 2), irreducible, not a multiple
                    ([2, 2, 1], False),     # x^2 + 2x + 2, irreducible, not a multiple
                    ([1, 0, 2], False)]:    # x^2 - 1 = (x - 1)(x + 1), reducible
        cert = ("norton", c, np.array(f))
        assert replays(FactorData(2, field.mats, cert), 3) == want, f
    # F_8 = F_2[C] for the companion C of x^3 + x + 1, under the other
    # irreducible cubic x^3 + x^2 + 1, with b = C and b = I
    companion = np.array([[0, 1, 0], [0, 0, 1], [1, 1, 0]])
    field = algebra_closure([companion], 2, 3, unital=True)
    for b in (companion, np.eye(3, dtype=np.int64)):
        cert = ("norton", field.coords_of(b), np.array([1, 0, 1, 1]))
        assert not replays(FactorData(3, field.mats, cert), 2)
    # a coefficient row one short, and one too long
    good = ("norton", field.coords_of(companion), np.array([1, 1, 0, 1]))
    assert replays(FactorData(3, field.mats, good), 2)
    for row in (good[1][:-1], np.append(good[1], 1)):
        assert not replays(FactorData(3, field.mats, ("norton", row, good[2])), 2)


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
        assert all(replays(f, p) for f in rad.factors)
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


# p = 251: a strictly upper triangular generator and a diagonal one with a
# repeated entry close over several rounds to a 9-dimensional algebra
P251 = ([np.triu(np.arange(1, 17).reshape(4, 4) * 37 % 251, 1), np.diag([3, 250, 7, 7])],
        251, 4, False)


@given(_generator_lists())
@example(P251)
@settings(max_examples=100, deadline=None)
def test_semi_naive_closure_matches_naive(case):
    # the kept-generator closure against the whole-basis semi-naive closure
    # it replaces and the naive all-products closure, bit for bit
    mats, p, n, unital = case
    got = algebra_closure(mats, p, n, unital=unital)
    for want in (basis_algebra_closure(mats, p, n, unital=unital),
                 naive_algebra_closure(mats, p, n, unital=unital)):
        assert got.space == want and got.space.pivots == want.pivots
    assert got._closed()


def _all_products_closed(space: Subspace, n: int) -> bool:
    b = space.basis.reshape(-1, n, n)
    return not space.residues((b[:, None] @ b[None]).reshape(-1, n * n) % space.p).any()


@given(_generator_lists(), st.booleans())
@example(P251, True)
@example(P251, False)
@settings(max_examples=100, deadline=None)
def test_closed_matches_all_products(case, close):
    # the span of the generators (often not closed) and their closure
    mats, p, n, unital = case
    if close:
        space = algebra_closure(mats, p, n, unital=unital).space
    else:
        eye = [np.eye(n, dtype=np.int64).reshape(-1)] if unital else []
        space = Subspace(p, n * n, [np.reshape(m, -1) for m in mats] + eye)
    closed = _all_products_closed(space, n)
    assert MatAlgebra(p, n, space, check=False)._closed() == closed
    assert closed or not close
    if not closed:
        with pytest.raises(ClosureViolation):
            MatAlgebra(p, n, space)


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
