import random

import pytest

from ftrails.certificate import bound_value
from ftrails.driver import max_f_matching
from ftrails.engine import find_trails
from ftrails.expand import rematch
from ftrails.multigraph import Multigraph, check_inputs, match_state, validate_matching
from ftrails.substitute import build_substitute
from helpers import random_instance, random_valid_matching


def setup_deficiency(g, f, matching):
    """The deficiencies find_trails's set-up builds, with no search run."""
    return find_trails(g, f, matching, order=()).def_final.tolist()


def test_deficiency_single_edge_empty_matching():
    g = Multigraph(2, [(0, 1)])
    assert setup_deficiency(g, [1, 1], set()) == [1, 1]


def test_deficiency_loop_counts_twice():
    g = Multigraph(1, [(0, 0)])
    assert setup_deficiency(g, [2], {0}) == [0]


def test_deficiency_star_center_saturated():
    # center 0 with three leaves; two star edges matched; counted by hand:
    # deg(0) = 2 so def(0) = f(0) - 2 = 0
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    assert setup_deficiency(g, [2, 1, 1, 1], {0, 1}) == [0, 0, 0, 1]


def test_validate_matching_parallel_copies():
    g = Multigraph(2, [(0, 1), (0, 1)])
    assert validate_matching(g, [1, 1], {0, 1}) == [0, 1]
    assert validate_matching(g, [1, 1], set()) == []


def test_validate_matching_loop_degree():
    g = Multigraph(1, [(0, 0)])
    assert validate_matching(g, [1], {0}) == [0]


def test_validate_matching_unknown_edge():
    g = Multigraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        validate_matching(g, [1, 1], {5})


def test_bad_endpoints_rejected():
    with pytest.raises(ValueError):
        Multigraph(2, [(0, 2)])


def test_negative_vertex_count_rejected():
    with pytest.raises(ValueError, match="^vertex count must be non-negative$"):
        Multigraph(-1, [])


def test_incidence_lists_loop_once():
    g = Multigraph(2, [(0, 0), (0, 1)])
    assert list(g.inc_off) == [0, 2, 3]
    assert list(g.inc_flat[g.inc_off[0] : g.inc_off[1]]) == [0, 1]
    assert list(g.inc_flat[g.inc_off[1] : g.inc_off[2]]) == [1]
    assert g.edges == [(0, 0), (0, 1)]
    assert 0 ^ g.exor[0] == 0 and 0 ^ g.exor[1] == 1


def test_handshake_identity_random():
    # sum of (f - def) over the vertices counts matched edge ends
    rng = random.Random(7)
    for _ in range(200):
        g, f = random_instance(rng, 7, 12, 3)
        m = random_valid_matching(rng, g, f)
        assert validate_matching(g, f, m) == []
        deficiency = setup_deficiency(g, f, m)
        assert sum(f) - sum(deficiency) == 2 * len(m)
        assert min(deficiency) >= 0


def test_exor_gives_the_far_end():
    # loops (0, 2), parallel pairs (1, 3) and (4, 5), one reversed (5)
    edges = [(0, 0), (0, 1), (2, 2), (0, 1), (1, 3), (3, 1), (2, 3)]
    g = Multigraph(4, edges)
    assert len(g.exor) == g.m and g.edges == edges
    for e, (u, v) in enumerate(g.edges):
        assert u ^ g.exor[e] == v and v ^ g.exor[e] == u
    assert g.exor[0] == g.exor[2] == 0


def test_degree_bound_beyond_the_deficiency_array_is_a_value_error():
    # a deficiency array holds bounds up to 2^31 - 1; a larger one is
    # named, never an OverflowError
    g = Multigraph(2, [(0, 1)])
    message = r"^degree bound f\(0\) = 99999999999 exceeds 2147483647$"
    with pytest.raises(ValueError, match=message):
        check_inputs(g, [99999999999, 1], set())
    for call in (validate_matching, match_state):
        with pytest.raises(ValueError, match=message):
            call(g, [99999999999, 1], set())
    with pytest.raises(ValueError, match=message):
        max_f_matching(g, [99999999999, 1])
    with pytest.raises(ValueError, match=message):
        find_trails(g, [99999999999, 1], set())
    assert max_f_matching(g, [2**31 - 1, 1]).matching == {0}


EDGE = Multigraph(2, [(0, 1)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: find_trails(EDGE, [1.0, 1], set()),
         r"degree bound f\(0\) = 1.0 is not an integer"),
        (lambda: max_f_matching(EDGE, [1, 1.5]), r"degree bound f\(1\) = 1.5 is not an integer"),
        (lambda: rematch(EDGE, ["1", 1], set(), []),
         r"degree bound f\(0\) = '1' is not an integer"),
        (lambda: bound_value(EDGE, [1.5, 1], set(), set()),
         r"degree bound f\(0\) = 1.5 is not an integer"),
        # a bound too large for the array and a later one that is no integer
        (lambda: build_substitute(EDGE, [2**40, None], set(), []),
         r"degree bound f\(1\) = None is not an integer"),
        (lambda: Multigraph(2, [(0, 1.0)]), r"edge 0 is not a pair of integers: \(0, 1.0\)"),
        (lambda: Multigraph(2, [(0, 1), ("0", 1)]),
         r"edge 1 is not a pair of integers: \('0', 1\)"),
        (lambda: Multigraph(2, [(0, 1), 7]), "edge 1 is not a pair of integers: 7"),
        (lambda: Multigraph(2.0, [(0, 1)]), "vertex count 2.0 is not an integer"),
    ],
    ids=["find_trails", "max_f_matching", "rematch", "bound_value", "build_substitute",
         "Multigraph-endpoint", "Multigraph-str-endpoint", "Multigraph-edge", "Multigraph-n"],
)
def test_non_integer_input_is_a_value_error(call, message):
    # a one-line ValueError at the boundary, never a TypeError from inside
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
