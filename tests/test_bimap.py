from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import exterior_square_tensor, named_ring, tensor_from_json, tensor_to_json
from filtra import bimap
from filtra.algrep import algebra_closure, embed_adjoint_pairs, embed_centroid_triples
from filtra.bimap import (
    _adjoint_space,
    _centralizer,
    _invertible_slice,
    _system,
    adjoint_ring,
    as_tensor,
    centroid_ring,
    derivation_ring,
    heisenberg_tensor,
    kronecker_pair_tensor,
    solve_ring,
)
from filtra.filters import gamma_filter
from filtra.liering import GradedLieRing
from filtra.modlinalg import _entry_dtype, inv_matrix, nullspace
from filtra.ring import make_poly_quotient
from loop_reference import (_rows_x, _rows_y_right, _rows_z, full_adjoint_ring,
                            full_centroid_ring, kron_commuting_rows)
from oracles import dense_adjoint_dim, dense_centroid_dim, dense_derivation_dim


def closed(ring) -> bool:
    """Adjoint and centroid: the unital closure of the embedded basis is no
    larger than the ring.  Derivations: the commutator of two basis members
    is a member."""
    a, b, c = ring.tensor.shape
    p = ring.p
    if ring.kind == "adjoint":
        return algebra_closure(embed_adjoint_pairs(ring.members, p), p, a + b,
                               unital=True).dim == ring.dim
    if ring.kind == "centroid":
        return algebra_closure(embed_centroid_triples(ring.members, p), p, a + b + c,
                               unital=True).dim == ring.dim
    return all(ring.contains(*((x @ y - y @ x) % p for x, y in zip(ms, ns)))
               for ms in ring.members for ns in ring.members)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_heisenberg_field_scalar_rings(p):
    t = heisenberg_tensor(named_ring(f"F{p}"))
    adj = adjoint_ring(t, p)
    assert adj.dim == 4
    assert adj.has_identity() and closed(adj) and adj.satisfies_identity()
    cent = centroid_ring(t, p)
    assert cent.dim == 1
    assert cent.has_identity() and closed(cent) and cent.satisfies_identity()
    der = derivation_ring(t, p)
    assert der.dim == 5
    assert der.has_identity() and closed(der) and der.satisfies_identity()


@pytest.mark.parametrize("solver", [adjoint_ring, centroid_ring, derivation_ring])
def test_perturbed_member_breaks_identity(solver):
    # one entry of one member moved by 1: each side of every identity is
    # nonzero in the first row, column and slice of this tensor
    p = 3
    ring = solver(heisenberg_tensor(named_ring("F3")), p)
    assert ring.satisfies_identity()
    for n, ms in enumerate(ring.members):
        for m in range(len(ms)):
            moved = [x.copy() for x in ms]
            moved[m][0, 0] = (moved[m][0, 0] + 1) % p
            members = ring.members[:n] + (tuple(moved),) + ring.members[n + 1:]
            assert not replace(ring, members=members).satisfies_identity(), (n, m)


@pytest.mark.parametrize("name,deg,defect", [("F4", 2, 0), ("F2[x]/x2", 2, 1)])
def test_heisenberg_quadratic_rings(name, deg, defect):
    r = named_ring(name)
    t = heisenberg_tensor(r)
    assert adjoint_ring(t, 2).dim == 4 * deg
    assert centroid_ring(t, 2).dim == deg


def test_group_tensor_matches_ring_tensor_dims():
    # commutation bimap computed from the group gives the same scalar
    # ring dimensions as the one written down from the ring table
    from conftest import hei

    r = named_ring("F4")
    g = hei(2, (1, 1, 1))
    lie = GradedLieRing(gamma_filter(g))
    group_t = lie.product_tensor((1,), (1,))
    ring_t = heisenberg_tensor(r)
    for solver in (adjoint_ring, centroid_ring, derivation_ring):
        assert solver(group_t, 2).dim == solver(ring_t, 2).dim


@pytest.mark.parametrize("p", [2, 3])
def test_kronecker_m1(p):
    t = kronecker_pair_tensor(1, p)
    assert t.shape == (3, 3, 2)
    assert np.array_equal(t, (-t.transpose(1, 0, 2)) % p)
    adj = adjoint_ring(t, p)
    assert adj.dim == 4
    assert adj.has_identity() and closed(adj) and adj.satisfies_identity()


@pytest.mark.parametrize("p", [2, 3])
def test_exterior_square_rank3(p):
    t = exterior_square_tensor(3, p)
    assert t.shape == (3, 3, 3)
    assert adjoint_ring(t, p).dim == 1


def test_zero_target_tensor_rings():
    z = np.zeros((2, 3, 0), dtype=np.int64)
    assert adjoint_ring(z, 2).dim == 13
    assert centroid_ring(z, 2).dim == 13
    assert derivation_ring(z, 2).dim == 13


@pytest.mark.parametrize("name,p", [("F4", 2), ("F3[x]/x2", 3)])
def test_centroid_members_embed_in_derivations(name, p):
    t = heisenberg_tensor(named_ring(name))
    cent = centroid_ring(t, p)
    der = derivation_ring(t, p)
    for x, y, z in cent.members:
        assert der.contains(x, y, (2 * z) % p)
        assert der.contains(x, (-y) % p, np.zeros_like(z))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_solver_matches_dense_oracle(p, rng):
    for _ in range(4):
        t = rng.integers(0, p, (2, 3, 2))
        assert adjoint_ring(t, p).dim == dense_adjoint_dim(t, p)
        assert centroid_ring(t, p).dim == dense_centroid_dim(t, p)
        assert derivation_ring(t, p).dim == dense_derivation_dim(t, p)


def test_solve_ring_dispatch():
    t = heisenberg_tensor(named_ring("F2"))
    assert solve_ring(t, 2, "adjoint").kind == "adjoint"
    assert solve_ring(t, 2, "centroid").kind == "centroid"
    assert solve_ring(t, 2, "derivation").kind == "derivation"
    with pytest.raises(ValueError):
        solve_ring(t, 2, "nope")


def test_as_tensor_validation():
    with pytest.raises(ValueError):
        as_tensor([[1, 2], [3, 4]], 2)
    t = as_tensor([[[5]]], 3)
    assert t[0, 0, 0] == 2


def test_tensor_json_roundtrip(rng):
    t = rng.integers(0, 3, (3, 2, 4))
    doc = tensor_to_json(t)
    assert doc["dims"] == [3, 2, 4]
    back = tensor_from_json(doc, 3)
    assert np.array_equal(back, t % 3)
    assert all(v for *_ijk, v in doc["entries"])


@settings(max_examples=30, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_adjoint_always_unital_closed(p, data):
    shape = (2, 2, data.draw(st.integers(1, 2)))
    flat = data.draw(
        st.lists(st.integers(0, p - 1),
                 min_size=shape[0] * shape[1] * shape[2],
                 max_size=shape[0] * shape[1] * shape[2]))
    t = np.array(flat, dtype=np.int64).reshape(shape)
    adj = adjoint_ring(t, p)
    assert adj.has_identity()
    assert closed(adj)
    assert adj.satisfies_identity()


# ---------------------------------------------------------------- slice routes
# adjoint_ring solves a centralizer when some combination of slices is
# invertible and the full system otherwise; centroid_ring always solves
# inside the adjoint.  Each route must give the full system's rref basis.

PRIMES = st.sampled_from([2, 3, 5, 7])


def assert_matches_full_systems(t, p):
    for new, full in ((adjoint_ring, full_adjoint_ring), (centroid_ring, full_centroid_ring)):
        got, want = new(t, p), full(t, p)
        assert np.array_equal(got.space.basis, want.space.basis), new.__name__
        assert got.space.pivots == want.space.pivots
        for ms, ns in zip(got.members, want.members, strict=True):
            assert all(np.array_equal(x, y) for x, y in zip(ms, ns, strict=True))


def invertible(rng, a, p):
    """L @ U with L unit lower and U upper triangular with a nonzero diagonal."""
    lower = np.tril(rng.integers(0, p, (a, a)), -1) + np.eye(a, dtype=np.int64)
    upper = np.triu(rng.integers(0, p, (a, a)), 1) + np.diag(rng.integers(1, p, a))
    return (lower @ upper) % p


@settings(max_examples=40, deadline=None)
@given(p=PRIMES, a=st.integers(1, 6), c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_invertible_first_slice_route(p, a, c, seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, p, (a, a, c))
    t[:, :, 0] = invertible(rng, a, p)
    cm, _ = _invertible_slice(t, p)
    assert np.array_equal(cm, t[:, :, 0])
    assert_matches_full_systems(t, p)


@settings(max_examples=40, deadline=None)
@given(p=PRIMES, a=st.integers(2, 6), c=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_invertible_combination_route(p, a, c, seed, data):
    # In the frame g, h: B_0 = E, B_1 = I - E and B_k = E N_k with E a
    # proper coordinate projection and N_k strictly upper triangular.  Every
    # slice is singular; sum lambda_k B_k is invertible iff lambda_0 lambda_1 != 0.
    rng = np.random.default_rng(seed)
    r = data.draw(st.integers(1, a - 1))
    e = np.diag([1] * r + [0] * (a - r))
    frame = [e, np.eye(a, dtype=np.int64) - e]
    frame += [e @ np.triu(rng.integers(0, p, (a, a)), 1) for _ in range(c - 2)]
    g, h = invertible(rng, a, p), invertible(rng, a, p)
    t = np.stack([(g @ s @ h) % p for s in frame], axis=2)
    assert _invertible_slice(t, p) is not None
    assert_matches_full_systems(t, p)


@settings(max_examples=40, deadline=None)
@given(p=PRIMES, a=st.integers(2, 6), c=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
# The first centralizer has dimension (a - 1)^2 + 1, so at these sizes the
# stacked products X_n M_k take over _BLAS_MIN_WORK multiply-adds and run
# in float64 (modlinalg._dot).
@example(p=2, a=12, c=4, seed=0)
@example(p=5, a=10, c=3, seed=0)
def test_every_slice_cuts_the_centralizer(p, a, c, seed):
    # B_0 = C and B_k = G E_kk G^-1 C: then M_k = G E_kk G^-1, and leaving any
    # one M_k out of the centralizer merges e_k with e_0 and grows the adjoint.
    rng = np.random.default_rng(seed)
    c = min(c, a)
    g = invertible(rng, a, p)
    g_inv = inv_matrix(g, p)
    t = np.zeros((a, a, c), dtype=np.int64)
    t[:, :, 0] = invertible(rng, a, p)
    for k in range(1, c):
        t[:, :, k] = g[:, [k]] @ g_inv[[k]] @ t[:, :, 0] % p
    assert np.array_equal(_invertible_slice(t, p)[0], t[:, :, 0])
    assert adjoint_ring(t, p).dim == (a - c + 1) ** 2 + c - 1
    assert_matches_full_systems(t, p)


@settings(max_examples=30, deadline=None)
@given(p=PRIMES, a=st.integers(1, 6), c=st.integers(0, 4), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_no_invertible_combination_falls_back(p, a, c, seed, data):
    # Slices that share a nonzero right radical: every combination is singular.
    rng = np.random.default_rng(seed)
    rank = data.draw(st.integers(0, a - 1))
    right = np.diag([1] * rank + [0] * (a - rank)) @ invertible(rng, a, p)
    t = np.zeros((a, a, c), dtype=np.int64)
    for k in range(c):
        t[:, :, k] = rng.integers(0, p, (a, a)) @ right % p
    assert _invertible_slice(t, p) is None
    assert_matches_full_systems(t, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("m", [1, 2])
def test_odd_kronecker_falls_back(p, m):
    t = kronecker_pair_tensor(m, p)
    assert _invertible_slice(t, p) is None
    assert_matches_full_systems(t, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("shape", [(3, 3, 2), (4, 4, 4), (5, 5, 1), (2, 2, 0)])
def test_zero_tensor_falls_back(p, shape):
    t = np.zeros(shape, dtype=np.int64)
    assert _invertible_slice(t, p) is None
    assert_matches_full_systems(t, p)


@settings(max_examples=30, deadline=None)
@given(p=PRIMES, a=st.integers(1, 6), b=st.integers(1, 6), c=st.integers(0, 4),
       seed=st.integers(0, 2**32 - 1))
def test_rectangular_tensor_falls_back(p, a, b, c, seed):
    if a == b:
        b = a % 6 + 1
    t = np.random.default_rng(seed).integers(0, p, (a, b, c))
    assert _invertible_slice(t, p) is None
    assert_matches_full_systems(t, p)


@pytest.mark.parametrize("name", ["F2", "F4", "F5", "F2[x]/x3", "F3[x]/x2", "F3[x]/x3"])
def test_heisenberg_tensors_match_full_systems(name):
    r = named_ring(name)
    t = heisenberg_tensor(r)
    assert _invertible_slice(t, r.p) is not None
    assert_matches_full_systems(t, r.p)


SYSTEM_PRIMES = [2, 3, 5, 251, 65521]


@st.composite
def _system_tensors(draw):
    """A tensor over Z_p, p in SYSTEM_PRIMES, of any shape up to 5 x 5 x 4:
    a = b or not, c = 0, and sides of 0 that leave no rows or no unknowns;
    dense, sparse or zero."""
    p = draw(st.sampled_from(SYSTEM_PRIMES))
    shape = draw(st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fill = draw(st.sampled_from([0.0, 0.3, 1.0]))
    return np.where(rng.random(shape) < fill, rng.integers(0, p, shape), 0), p


def _handed_to_nullspace(fn, *args):
    """The result of fn(*args) and a copy of every array that `filtra.bimap`
    handed `nullspace` on the way."""
    seen = []

    def spy(a, p):
        seen.append(np.array(a))
        return nullspace(a, p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimap, "nullspace", spy)
        return fn(*args), seen


@given(_system_tensors())
# no rows, no unknowns, or neither
@example((np.zeros((0, 0, 0), dtype=np.int64), 2))
@example((np.zeros((0, 3, 2), dtype=np.int64), 3))
@example((np.zeros((3, 0, 1), dtype=np.int64), 2))
@example((np.zeros((0, 0, 2), dtype=np.int64), 5))
@example((np.zeros((2, 3, 0), dtype=np.int64), 251))
@example((np.zeros((4, 4, 0), dtype=np.int64), 65521))
@settings(max_examples=200, deadline=None)
def test_ring_systems_match_int64_blocks(case):
    # the derivation, adjoint fallback and centroid systems, built in place
    # in _entry_dtype(p), against the int64 blocks they replace, stacked
    # side by side and reduced; the solvers hand them to `nullspace` so
    t, p = case
    a, b, c = t.shape
    width = _entry_dtype(p)
    x, y, z = _rows_x(t), _rows_y_right(t), _rows_z(t)
    _, seen = _handed_to_nullspace(derivation_ring, t, p)
    assert [s.dtype for s in seen] == [width]
    assert np.array_equal(seen[0], np.concatenate([x, y, -z], axis=1) % p)
    fallback = np.concatenate([x, -y], axis=1) % p
    got = _system(t, p, [(0, 1), (1, -1)])
    assert got.dtype == width and got.shape == fallback.shape and np.array_equal(got, fallback)
    if _invertible_slice(t, p) is None:
        _, seen = _handed_to_nullspace(adjoint_ring, t, p)
        assert [s.dtype for s in seen] == [width] and np.array_equal(seen[0], fallback)
    adj = _adjoint_space(t, p).basis
    xb = np.einsum("nil,ljk->ijkn", adj[:, : a * a].reshape(len(adj), a, a), t)
    _, seen = _handed_to_nullspace(centroid_ring, t, p)
    assert seen[-1].dtype == width
    assert np.array_equal(seen[-1], np.concatenate([z, -xb.reshape(t.size, len(adj))],
                                                   axis=1) % p)


@given(st.sampled_from(SYSTEM_PRIMES), st.integers(1, 6), st.integers(1, 3),
       st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_centralizer_system_matches_kron(p, a, k, seed):
    # the commuting system X M = M X of the first non-scalar M against the
    # two np.kron of the int64 reference; a scalar M first is dropped
    rng = np.random.default_rng(seed)
    ms = rng.integers(0, p, (k, a, a))
    ms[0] = rng.integers(0, p) * np.eye(a, dtype=np.int64)
    _, seen = _handed_to_nullspace(_centralizer, ms, p)
    live = [m for m in ms if (m - m[0, 0] * np.eye(a, dtype=np.int64)).any()]
    if not live:
        assert seen == []
        return
    assert seen[0].dtype == _entry_dtype(p)
    assert np.array_equal(seen[0], kron_commuting_rows(live[0]) % p)


@pytest.mark.parametrize("p, width", [(2, np.uint8), (3, np.uint8), (251, np.uint8),
                                      (257, np.uint16), (65521, np.uint16)])
def test_derivation_system_is_handed_over_narrow(p, width):
    # the Heisenberg tensor of Z_p[x]/(x^2 + x + 1): its 32 x 36 derivation
    # system reaches nullspace as uint8 at p <= 251 and as uint16 above, and
    # gives the null space of the int64 system
    t = heisenberg_tensor(make_poly_quotient(p, [1, 1, 1]))
    ring, seen = _handed_to_nullspace(derivation_ring, t, p)
    assert [(s.dtype, s.shape) for s in seen] == [(width, (32, 36))]
    rows = np.concatenate([_rows_x(t), _rows_y_right(t), -_rows_z(t) % p], axis=1)
    assert np.array_equal(ring.space.basis, nullspace(rows, p))
