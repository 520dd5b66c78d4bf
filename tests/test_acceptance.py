"""End-to-end checks, one per shipped guarantee, with their time budgets."""

import json
import time

import numpy as np
import pytest

from conftest import (
    hei, hei_block_keys, keys_of, named_ring, pattern_keys, poly_ring, subgroup, ut,
)
from loop_reference import frobenius_radical
from oracles import path_product_values
from filtra.algrep import algebra_closure, embed_adjoint_pairs, jacobson_radical
from filtra.bimap import adjoint_ring, centroid_ring, kronecker_pair_tensor
from filtra.filters import eta_filter, gamma_filter, generate, verify_axioms
from filtra import group as group_module
from filtra.group import (
    exponent_p_central_series, jennings_series, lower_central_series, make_heisenberg, make_ut,
)
from filtra.liering import GradedLieRing
from filtra.refine import fingerprint, refine_stable, ring_at
from filtra.ring import make_r_circ
from test_cli import distinct_chain_exps, run_cli

UT4_LEVELS = [
    [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
    [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)],
    [(0, 2), (0, 3), (1, 3)],
    [(0, 3)],
]


@pytest.mark.parametrize("p", [2, 3])
def test_criterion_1_ut4_refined_chain(p):
    t0 = time.monotonic()
    code, out, _ = run_cli("refine", "--ut", "4", str(p), "--method", "adjoint")
    elapsed = time.monotonic() - t0
    assert code == 0
    doc = json.loads(out)
    assert distinct_chain_exps(doc) == [6, 5, 3, 1, 0]
    exps = [6, 5, 3, 1, 0]
    assert [exps[i] - exps[i + 1] for i in range(4)] == [1, 2, 2, 1]
    # rebuild each term from the emitted generators and compare element sets
    g = ut(4, p)
    seen = {}
    for term in doc["filter"]["terms"]:
        e = term["order_exp"]
        if e not in seen:
            gens = [np.array(flat, dtype=np.int64).reshape(4, 4)
                    for flat in term["generators"]]
            seen[e] = subgroup(g, gens)
    for e, free in zip([6, 5, 3, 1], UT4_LEVELS):
        assert keys_of(seen[e]) == pattern_keys(g, free)
    assert elapsed < 10.0


def test_criterion_2_heisenberg_lengths():
    t0 = time.monotonic()
    for p, c in [(2, 1), (2, 2), (3, 1), (3, 2)]:
        coeffs = (0,) * (c + 1) + (1,)
        r = poly_ring(p, coeffs)
        g = hei(p, coeffs)
        st = refine_stable(gamma_filter(g), "adjoint")
        assert st.converged
        assert st.filter.length() == 2 * c + 2, (p, c)
        chain = st.filter.chain()
        blocks = [(i, i, 0) for i in range(c + 1)]
        blocks += [(None, None, i) for i in range(c + 1)]
        assert len(chain) == len(blocks) + 1
        for sub, (ia, ib, ic) in zip(chain, blocks):
            assert keys_of(sub) == hei_block_keys(g, r, ia, ib, ic), (p, c, ia, ib, ic)
        assert chain[-1].is_trivial()
    assert time.monotonic() - t0 < 60.0


def test_criterion_3_kronecker_adjoint_radical():
    t0 = time.monotonic()
    for m in (1, 2, 3):
        for p in (2, 3, 5):
            tensor = kronecker_pair_tensor(m, p)
            adj = adjoint_ring(tensor, p)
            assert adj.dim == 2 * m + 2, (m, p)
            alg = algebra_closure(embed_adjoint_pairs(adj.members, p), p,
                                  2 * (2 * m + 1), unital=True)
            rad = jacobson_radical(alg)
            assert rad.dim == 2 * m, (m, p)
            assert rad.chain_dims() == [2 * m], (m, p)  # J^2 = 0
    assert time.monotonic() - t0 < 5.0


RING_GRID = ["F2", "F4", "F2[x]/x2", "F3[x]/x2"]


def heisenberg_leading_tensor(name):
    r = named_ring(name)
    g = make_heisenberg(r)
    lie = GradedLieRing(gamma_filter(g))
    return r, lie.product_tensor((1,), (1,))


@pytest.mark.parametrize("name", RING_GRID)
def test_criterion_4_adjoint_recovers_matrix_ring(name):
    r, tensor = heisenberg_leading_tensor(name)
    deg = r.dim
    defect = frobenius_radical(r).dim
    adj = adjoint_ring(tensor, r.p)
    assert adj.dim == 4 * deg
    alg = algebra_closure(embed_adjoint_pairs(adj.members, r.p), r.p,
                          2 * tensor.shape[0], unital=True)
    assert jacobson_radical(alg).dim == 4 * defect


@pytest.mark.parametrize("name", RING_GRID)
def test_criterion_5_centroid_recovers_ring(name):
    r, tensor = heisenberg_leading_tensor(name)
    assert centroid_ring(tensor, r.p).dim == r.dim


def test_criterion_6_unitriangular_factors_at_most_two():
    t0 = time.monotonic()
    for d in (4, 5, 6):
        st = refine_stable(gamma_filter(ut(d, 2)), "adjoint")
        assert st.converged
        chain = st.filter.chain()
        factors = [chain[i].order_exp() - chain[i + 1].order_exp()
                   for i in range(len(chain) - 1)]
        assert all(f <= 2 for f in factors), d
        assert st.filter.length() > d - 1, d
    assert time.monotonic() - t0 < 600.0


GRID_GROUPS = [
    lambda: ut(3, 2),
    lambda: ut(4, 2),
    lambda: ut(3, 3),
    lambda: ut(4, 3),
    lambda: hei(2, (0, 1)),
    lambda: hei(2, (1, 1, 1)),
    lambda: hei(2, (0, 0, 1)),
    lambda: hei(3, (0, 0, 1)),
]


def test_criterion_7_axiom_suites_zero_violations(rng):
    violations = []
    for makes in GRID_GROUPS:
        g = makes()
        for series in (gamma_filter, eta_filter):
            f = series(g)
            rep = verify_axioms(f)
            violations += rep.violations
            lie = GradedLieRing(f)
            comps = lie.component_indices()
            for s in comps:
                for t in comps:
                    violations += lie.check_antisymmetry(s, t)
                    violations += lie.check_bilinear(s, t, 3, rng)
                    violations += lie.check_well_defined(s, t, 2, rng)
                    for u in comps:
                        violations += lie.check_jacobi(s, t, u)
            lead = lie.leading_index()
            for method in ("adjoint", "centroid", "derivation"):
                try:
                    ring_at(lie, lead, method, check=True, rng=rng)
                except Exception as exc:  # noqa: BLE001
                    violations.append((g.name, series.__name__, method, str(exc)))
            try:
                refine_stable(f, "adjoint", check=True, rng=rng)
            except Exception as exc:  # noqa: BLE001
                violations.append((g.name, series.__name__, "refine", str(exc)))
        # shared-prefix generation agrees with literal path products
        dom = {(1,): g.full_subgroup()}
        oracle = path_product_values(g, dom)
        f = generate(g, 1, dom)
        for s, sub in oracle.items():
            if not sub.is_trivial() and f.at(s) != sub:
                violations.append((g.name, "path_products", s))
    # one two-coordinate domain per ambient kind
    for makes in (lambda: ut(4, 2), lambda: hei(2, (0, 0, 1))):
        g = makes()
        gamma2 = gamma_filter(g).at((2,))
        dom = {(1, 0): g.full_subgroup(), (0, 1): gamma2}
        oracle = path_product_values(g, dom)
        f = generate(g, 2, dom)
        for s, sub in oracle.items():
            if not sub.is_trivial() and f.at(s) != sub:
                violations.append((g.name, "path_products_2d", s))
    assert violations == []


def test_truncated_polynomial_heisenberg_fingerprints_grow():
    # H(F_2[x]/x^k) has order 2^(3k) and a lower central series of length 2,
    # but its fingerprint has length 2k: the refinement is as long as the
    # group allows.  The cap is the group's order, so it holds at every k.
    for k in range(2, 9):
        g = make_heisenberg(poly_ring(2, (0,) * k + (1,)), cap=2 ** (3 * k))
        assert g.order() == 2 ** (3 * k)
        assert fingerprint(g)["length"] == 2 * k, k


@pytest.mark.parametrize("d, p", [(6, 3), (7, 3), (6, 5)])
def test_unitriangular_kappa_and_eta_equal_gamma(monkeypatch, d, p):
    # For x = 1 + N in UT(d, p), x^p - 1 = N^p has height at least
    # p * height(N), so gamma_j^p <= gamma_(pj) and kappa = eta = gamma.
    # Every C H^p step is decided from generators (Hall's criterion for the
    # kappa steps), so no element of these groups is formed: |UT(7,3)| = 3^21
    # and |UT(6,5)| = 5^15.  The cap is the group's order.
    def refuse(a, k):
        raise AssertionError(f"power_subgroup called on a subgroup of order {a.order()}")

    monkeypatch.setattr(group_module, "power_subgroup", refuse)
    t0 = time.monotonic()
    g = make_ut(d, p, cap=p ** (d * (d - 1) // 2))
    want = [t.order_exp() for t in lower_central_series(g)]
    assert want == [(d - i) * (d - i + 1) // 2 for i in range(1, d)]
    assert [t.order_exp() for t in jennings_series(g)] == want
    assert [t.order_exp() for t in exponent_p_central_series(g)] == want
    assert time.monotonic() - t0 < 30.0


def test_criterion_8_fingerprint_separation():
    for method in ("adjoint", "centroid"):
        code, out, _ = run_cli(
            "fingerprint", "--heisenberg", "2,1,1,1", "--heisenberg", "2,0,0,1",
            "--method", method)
        assert code == 3, method
        assert json.loads(out)["equal"] is False
    rerun = [run_cli("fingerprint", "--heisenberg", "2,1,1,1",
                     "--heisenberg", "2,0,0,1") for _ in range(2)]
    assert rerun[0][1] == rerun[1][1]
    assert rerun[0][0] == rerun[1][0] == 3


def test_criterion_9_random_circle_rings_refine():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260825)
    sizes = [(1, 1)] * 4 + [(2, 1)] * 4 + [(1, 2)] * 4 + [(2, 2)] * 4 + [(3, 1)] * 4
    assert len(sizes) == 20
    for idx, (v, w) in enumerate(sizes):
        circ = rng.integers(0, 2, (v, v, w))
        circ = np.triu(circ.transpose(2, 0, 1)).transpose(1, 2, 0)
        circ = circ | circ.transpose(1, 0, 2)
        if not circ.any():
            circ[0, 0, 0] = 1
        r = make_r_circ(2, v, w, circ)
        chain = r.radical_chain()
        dims = [s.dim for s in chain]
        assert len(dims) == 2 and dims[0] == v + w and dims[1] > 0, (idx, v, w)
        g = make_heisenberg(r)
        st = refine_stable(gamma_filter(g), "adjoint")
        assert st.converged, (idx, v, w)
        assert st.filter.length() >= 6, (idx, v, w, st.filter.length())
    assert time.monotonic() - t0 < 300.0
