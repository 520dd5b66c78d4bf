"""A subgroup's canonical sequence depends on the subgroup, not on how it
was reached: its rows are normalized at the depths of the sequence, its
printed form regenerates the same subgroup, and subgroups reached along
different paths compare and hash alike."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_group import disguised_generators, unipotent_generators
from filtra.group import UnipotentGroup, commutator_subgroup, join, reduced_generators


@settings(max_examples=100, deadline=None)
@given(st.one_of(unipotent_generators(), disguised_generators()), st.randoms(use_true_random=False))
def test_canonical_sequence_depends_on_the_subgroup_alone(case, rnd):
    p, d, gens = case
    g = UnipotentGroup(p, d, gens, cap=p ** (d * (d - 1) // 2))
    full = g.full_subgroup()
    a = reduced_generators(g, gens[:len(gens) // 2])
    b = reduced_generators(g, gens[len(gens) // 2:])
    ab, ba = join(a, b), join(b, a)
    for h in (full, g.trivial_subgroup(), a, b, ab, commutator_subgroup(full, full)):
        # entry 1 at its own depth, 0 at the sequence's other depths
        canon = h._canonical()
        at_depths = canon[:, g._rows[h._depths], g._cols[h._depths]]
        assert np.array_equal(at_depths, np.eye(h.order_exp(), dtype=np.int64))
        # the printed rows regenerate the subgroup and its canonical bytes
        again = reduced_generators(g, list(h.canonical()))
        assert again == h
        assert again._canonical().tobytes() == canon.tobytes()
    # other histories: the generators shuffled, or each times the next
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    chained = gens[:1] + [x @ y % p for x, y in zip(gens, gens[1:])]
    for other in (reduced_generators(g, shuffled), reduced_generators(g, chained)):
        assert other == full and hash(other) == hash(full)
    assert ab == ba and hash(ab) == hash(ba)
