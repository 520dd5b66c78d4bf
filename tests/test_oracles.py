import numpy as np
import pytest

from conftest import keys_of, named_ring, ut
from oracles import (
    conjugation_orbit_closure,
    dense_adjoint_dim,
    dense_centroid_dim,
    dense_derivation_dim,
    exhaustive_commutator_subgroup,
    nilpotent_element_radical,
    path_product_values,
    traceform_radical_dim,
)
from filtra.bimap import (
    adjoint_ring,
    centroid_ring,
    derivation_ring,
    heisenberg_tensor,
    kronecker_pair_tensor,
)
from filtra.group import commutator_subgroup, lower_central_series, make_ut
from filtra.ring import make_r_circ


def test_exhaustive_commutator_known_values():
    g = ut(3, 2)
    full = g.full_subgroup()
    got = exhaustive_commutator_subgroup(full, full)
    assert got.order() == 2
    assert got == commutator_subgroup(full, full)


def test_exhaustive_commutator_pair_limit():
    full = ut(3, 2).full_subgroup()
    with pytest.raises(ValueError):
        exhaustive_commutator_subgroup(full, full, pair_limit=3)


@pytest.mark.parametrize("d,p", [(4, 2), (3, 3)])
def test_path_products_reproduce_gamma(d, p):
    g = ut(d, p)
    values = path_product_values(g, {(1,): g.full_subgroup()})
    terms = lower_central_series(g)
    assert sorted(values) == [(i + 1,) for i in range(len(terms))]
    for i, t in enumerate(terms):
        assert values[(i + 1,)] == t


def test_dense_dims_on_known_tensors():
    for p in (2, 3):
        assert dense_adjoint_dim(kronecker_pair_tensor(1, p), p) == 4
        t = heisenberg_tensor(named_ring(f"F{p}"))
        assert dense_adjoint_dim(t, p) == 4
        assert dense_centroid_dim(t, p) == 1
        assert dense_derivation_dim(t, p) == 5
    z = np.zeros((2, 3, 0), dtype=np.int64)
    assert dense_adjoint_dim(z, 2) == 13
    assert dense_centroid_dim(z, 2) == 13
    assert dense_derivation_dim(z, 2) == 13


def test_dense_dims_invariant_under_base_change(rng):
    p = 3
    t = rng.integers(0, p, (3, 2, 2))
    base = (
        dense_adjoint_dim(t, p),
        dense_centroid_dim(t, p),
        dense_derivation_dim(t, p),
    )
    for _ in range(3):
        # unipotent transforms are always invertible
        pu = (np.triu(rng.integers(0, p, (3, 3)), 1) + np.eye(3, dtype=np.int64)) % p
        pv = (np.triu(rng.integers(0, p, (2, 2)), 1) + np.eye(2, dtype=np.int64)) % p
        pw = (np.triu(rng.integers(0, p, (2, 2)), 1) + np.eye(2, dtype=np.int64)) % p
        moved = np.einsum("ia,jb,abk,kc->ijc", pu, pv, t, pw) % p
        assert (
            dense_adjoint_dim(moved, p),
            dense_centroid_dim(moved, p),
            dense_derivation_dim(moved, p),
        ) == base


def test_dense_dims_match_solvers(rng):
    for p in (2, 5):
        t = rng.integers(0, p, (2, 2, 3))
        assert dense_adjoint_dim(t, p) == adjoint_ring(t, p).dim
        assert dense_centroid_dim(t, p) == centroid_ring(t, p).dim
        assert dense_derivation_dim(t, p) == derivation_ring(t, p).dim


def test_traceform_examples():
    def unit(i, j):
        m = np.zeros((2, 2), dtype=np.int64)
        m[i, j] = 1
        return m

    full = [unit(0, 0), unit(0, 1), unit(1, 0), unit(1, 1)]
    assert traceform_radical_dim(full, 5, 2) == 0
    tri = [np.eye(2, dtype=np.int64), unit(0, 1)]
    assert traceform_radical_dim(tri, 5, 2) == 1
    with pytest.raises(ValueError):
        traceform_radical_dim(full, 2, 2)


def test_nilpotent_element_radical_examples():
    assert nilpotent_element_radical(named_ring("F4")).dim == 0
    rad = nilpotent_element_radical(named_ring("F2[x]/x2"))
    assert rad.dim == 1
    assert rad.contains(np.array([0, 1]))
    rc = make_r_circ(2, 2, 1, [[[1], [0]], [[0], [1]]])
    assert nilpotent_element_radical(rc).dim == 3
    with pytest.raises(ValueError):
        nilpotent_element_radical(named_ring("F5"), limit=3)


def test_conjugation_orbit_closure():
    g = ut(3, 2)
    e12 = np.eye(3, dtype=np.int64)
    e12[0, 1] = 1
    closed = conjugation_orbit_closure(g, [e12])
    assert closed.order() == 4
    e13 = np.eye(3, dtype=np.int64)
    e13[0, 2] = 1
    assert e13.astype(np.uint8).tobytes() in keys_of(closed)

    g4 = make_ut(4, 2)
    full = g4.full_subgroup()
    seeds = []
    from filtra.group import commutator

    for x in g4.generators:
        for y in g4.generators:
            seeds.append(commutator(x, y, 2))
    orbit = conjugation_orbit_closure(g4, seeds)
    assert orbit == commutator_subgroup(full, full)
