import random

import pytest

from ftrails.multigraph import Multigraph, validate_matching
from helpers import random_instance, random_valid_matching
from oracle import (
    OracleLimit,
    brute_alternating_trail,
    brute_max,
    has_augmenting_trail,
)

WIDE = OracleLimit(max_edges=13, max_trail_len=13)


def test_brute_max_triangle():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    size, witness = brute_max(g, [1, 1, 1])
    assert size == 1
    assert validate_matching(g, [1, 1, 1], witness) == []


def test_brute_max_parallel_pair():
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert brute_max(g, [2, 2])[0] == 2


def test_brute_max_empty():
    g = Multigraph(0, [])
    assert brute_max(g, [])[0] == 0


def test_brute_max_refuses_large():
    g = Multigraph(2, [(0, 1)] * 17)
    with pytest.raises(ValueError):
        brute_max(g, [2, 2])


def test_has_augmenting_trail_basics():
    g = Multigraph(2, [(0, 1)])
    assert has_augmenting_trail(g, [1, 1], set())
    assert not has_augmenting_trail(g, [1, 1], {0})


def test_has_augmenting_trail_closed_needs_two():
    g = Multigraph(1, [(0, 0)])
    assert has_augmenting_trail(g, [2], set())
    assert not has_augmenting_trail(g, [1], set())


def test_augmenting_trail_iff_not_maximum():
    rng = random.Random(11)
    for _ in range(300):
        g, f = random_instance(rng, 6, 10, 3)
        m = random_valid_matching(rng, g, f)
        best, _ = brute_max(g, f, WIDE)
        assert has_augmenting_trail(g, f, m, WIDE) == (best > len(m))


def test_brute_alternating_trail_triangle_blossom():
    # matched 1-2 inside the triangle; both parities exist from vertex 2 to 0
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    matching = {1}
    t_u = brute_alternating_trail(g, {0, 1, 2}, 2, 0, False, matching, allow_empty=False)
    t_m = brute_alternating_trail(g, {0, 1, 2}, 2, 0, True, matching, allow_empty=False)
    assert t_u == [2]
    assert t_m == [1, 0]


def test_brute_alternating_trail_disconnected():
    g = Multigraph(4, [(0, 1), (2, 3)])
    assert brute_alternating_trail(g, {0, 1}, 0, 3, False, set()) is None


def test_brute_alternating_trail_single_matched_edge():
    g = Multigraph(2, [(0, 1)])
    assert brute_alternating_trail(g, {0}, 0, 1, True, {0}, allow_empty=False) == [0]


def test_brute_max_monotone():
    rng = random.Random(13)
    for _ in range(60):
        g, f = random_instance(rng, 5, 8, 2)
        base, _ = brute_max(g, f)
        g2 = Multigraph(g.n, g.edges + [(rng.randrange(g.n), rng.randrange(g.n))])
        assert brute_max(g2, f)[0] >= base
        f2 = list(f)
        f2[rng.randrange(g.n)] += 1
        assert brute_max(g, f2)[0] >= base
