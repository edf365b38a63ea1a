import hashlib
import random
from array import array
from itertools import compress

import pytest

from ftrails.engine import ARTIFICIAL, StructuralError, find_trails, preorder
from ftrails.expand import GTrail, _Router, check_gtrail, expand_all, pi_trail, rematch
from ftrails.multigraph import MatchState, Multigraph, match_state
from helpers import (
    all_records,
    deep_nesting_phases,
    random_instance,
    random_valid_matching,
    run_phases,
    validate_blossoms,
)


def triangle_blossom_result():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    rec = next(iter(result.blossoms.root_record.values()))
    assert rec.complete
    return g, result, rec


def test_pi_trail_base_empty_for_opposite_type():
    _g, result, rec = triangle_blossom_result()
    eta_matched = bool(result.forest.matched[rec.base_node])
    assert pi_trail(result, rec.base_node, rec, eta_matched) == []


def test_pi_trail_base_full_closed_trail():
    g, result, rec = triangle_blossom_result()
    eta_matched = bool(result.forest.matched[rec.base_node])
    steps = pi_trail(result, rec.base_node, rec, not eta_matched)
    assert sorted(e for e, _u, _v in steps) == [0, 1, 2]
    assert steps[0][1] == steps[-1][2] == 0  # closed at the base vertex


def test_pi_trail_opposite_vertex_both_parities():
    # from the occurrence opposite the base, each parity takes one side of
    # the cycle; checked against the brute-force oracle too
    g, result, rec = triangle_blossom_result()
    forest = result.forest
    occ = [nd for nd in preorder([rec])[0] if forest.vertex[nd] == 2]
    steps_u = pi_trail(result, occ[0], rec, False)
    steps_m = pi_trail(result, occ[0], rec, True)
    assert [e for e, _u, _v in steps_u] == [2]
    assert [e for e, _u, _v in steps_m] == [1, 0]
    assert validate_blossoms(result) == []


def test_pi_trail_corrupted_store_raises():
    # truncating the closed trail leaves an occurrence whose requested
    # M-type no longer has a route to the base
    _g, result, rec = triangle_blossom_result()
    forest = result.forest
    seg = rec.segments[0]
    seg.arcs.pop()
    seg.children.pop()
    stranded = seg.arcs[-1]
    missing_parity = not forest.matched[stranded]
    with pytest.raises(StructuralError):
        pi_trail(result, stranded, rec, missing_parity)


def test_pi_trail_raises_when_the_hop_target_needs_a_second_hop():
    # after the truncation both remaining arcs carry vertex 2 and are
    # matched: an unmatched start at the second has no alternative, nor
    # has the first, the other occurrence it hops to
    _g, result, rec = triangle_blossom_result()
    forest = result.forest
    seg = rec.segments[0]
    seg.arcs.pop()
    seg.children.pop()
    first, stranded = seg.arcs
    forest.vertex[first] = forest.vertex[stranded]
    forest.matched[first] = forest.matched[stranded]
    with pytest.raises(StructuralError, match="no alternating trail"):
        pi_trail(result, stranded, rec, not forest.matched[stranded])


def test_pi_trail_raises_when_a_skew_closure_misses_the_base_vertex():
    # the closed trail ends inside a frozen sub-blossom (a skew closure);
    # relabelling that child's occurrences of the base vertex leaves the
    # closure nowhere to stop
    g = Multigraph(5, [(0, 3), (4, 4), (3, 4), (4, 1), (4, 0), (0, 4)])
    result = find_trails(g, [1, 1, 1, 2, 2], {2, 5}, check=True)
    forest = result.forest
    rec = next(r for r in all_records(result) if r.segments[0].children[-1] is not None)
    base_vertex = forest.vertex[rec.base_node]
    for node in preorder([rec.segments[0].children[-1]])[0]:
        if forest.vertex[node] == base_vertex:
            forest.vertex[node] = (base_vertex + 1) % g.n
    with pytest.raises(StructuralError, match="skew closure"):
        pi_trail(result, rec.base_node, rec, not forest.matched[rec.base_node])


def pi_trail_digest(seed: int, count: int) -> str:
    """sha256 of pi_trail at both parities for every node of every record,
    in every phase of count seeded small random instances."""
    rng = random.Random(seed)
    digest = hashlib.sha256()
    for _ in range(count):
        g, f = random_instance(rng, 10, 20, 3)
        m = random_valid_matching(rng, g, f)
        while True:
            result = find_trails(g, f, m)
            router = _Router(result)
            for rec in all_records(result):
                for node in sorted(set(preorder([rec])[0])):
                    for start_matched in (False, True):
                        steps = pi_trail(result, node, rec, start_matched, router)
                        digest.update(repr(steps).encode())
            if not result.trails:
                break
            m = rematch(g, f, m, expand_all(result))
    return digest.hexdigest()


def test_pi_trail_pinned_on_randoms():
    # recorded while route still recursed and backtracked; some of these
    # requests are served through another occurrence of the same vertex
    assert pi_trail_digest(8, 400) == "51c9dbdcd81d7d1eeb96f669323a1a240798ef39f61b8948e4293b435c8f46f4"


def test_expand_identity_without_blossoms():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    result = find_trails(g, [1, 1, 1, 1], {1}, check=True)
    (trail,) = expand_all(result)
    assert trail.edges == (0, 1, 2)
    assert check_gtrail(g, {1}, trail) == []


def test_expand_through_blossom_matches_drawn_trail():
    g = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (3, 5)])
    m = {1, 3}
    result = find_trails(g, [1] * 6, m, check=True)
    (trail,) = expand_all(result)
    assert check_gtrail(g, m, trail) == []
    assert sorted(trail.edges) == [0, 1, 3, 4, 5]
    assert (trail.root_vertex, trail.terminal_vertex) == (0, 5)


def test_expanded_trails_validate_on_randoms():
    rng = random.Random(21)
    for _ in range(250):
        g, f = random_instance(rng, 8, 13, 3)
        m = random_valid_matching(rng, g, f)
        result = find_trails(g, f, m, check=True)
        for trail in expand_all(result):
            assert check_gtrail(g, m, trail) == []
        assert validate_blossoms(result) == []


def path_trail_result():
    # one contracted trail 0-1-2-3 of three atomic arcs, edge 1 matched
    result = find_trails(Multigraph(4, [(0, 1), (1, 2), (2, 3)]), [1] * 4, {1}, check=True)
    (trail,) = result.trails
    assert len(trail.arcs) == 3 and trail.root_vertex == 0
    return result, trail


def test_expand_rejects_a_trail_off_the_search_root():
    result, trail = path_trail_result()
    result.trails[0] = trail._replace(root_vertex=3)
    with pytest.raises(StructuralError, match="does not start at the search root"):
        expand_all(result)


def test_expand_rejects_a_matched_final_arc():
    result, trail = path_trail_result()
    forest = result.forest
    matched_arc = next(
        a for a in range(len(forest.edge)) if forest.matched[a] and forest.edge[a] != ARTIFICIAL
    )
    result.trails[0] = trail._replace(final_arc=matched_arc)
    with pytest.raises(StructuralError, match="terminates on a matched arc"):
        expand_all(result)


def test_expand_rejects_an_atomic_terminal_off_the_last_arc():
    result, trail = path_trail_result()
    result.trails[0] = trail._replace(final_node=trail.arcs[0])
    with pytest.raises(StructuralError, match="atomic trail terminal is not the last trail arc"):
        expand_all(result)


def test_steps_are_derived_from_the_root_and_the_edges():
    # a seeded solve whose graph has loops and parallel edges and whose
    # trails cross blossoms and traverse loops
    rng = random.Random(1)
    n, m = 40, 160
    g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
    f = [rng.randint(1, 3) for _ in range(n)]
    assert len(set(map(frozenset, g.edges))) < m and any(u == v for u, v in g.edges)
    _m, results = run_phases(g, f, set())
    assert sum(len(r.blossoms.base_record) for r in results) > 0
    loops = 0
    for result in results:
        for t in expand_all(result):
            steps = t.steps
            assert tuple(e for e, _u, _v in steps) == t.edges
            assert steps[0][1] == t.root_vertex and steps[-1][2] == t.terminal_vertex
            for (_e, _u, v), (_e2, u2, _v2) in zip(steps, steps[1:]):
                assert v == u2
            for e, u, v in steps:
                assert g.edges[e] in ((u, v), (v, u))
                loops += u == v
    assert loops > 0


# a path 0-1-2-3 plus edge 3 parallel to edge 0 and loop 4 at vertex 1
PATH3 = Multigraph(4, [(0, 1), (1, 2), (2, 3), (0, 1), (1, 1)])


@pytest.mark.parametrize(
    "edges, terminal, matching, expected",
    [
        ((), 3, set(), ["empty trail"]),
        ((0, 2, 1), 1, {2}, ["edge 2 does not continue the trail at 1"]),
        ((0, 3, 0), 1, {3}, ["edge 0 repeats"]),
        ((0, 1), 2, set(), ["no alternation entering edge 1"]),
        ((0, 1, 2), 2, {1}, ["trail does not end at its terminal vertex"]),
        ((0, 1), 2, {1}, ["extreme edge is matched"]),
        ((0, 4, 1), 2, {4}, []),
    ],
    ids=["empty", "continuation", "repeat", "alternation", "terminal", "extreme", "loop"],
)
def test_check_gtrail_problem_messages(edges, terminal, matching, expected):
    trail = GTrail(root_vertex=0, terminal_vertex=terminal, edges=edges, g=PATH3)
    assert check_gtrail(PATH3, matching, trail) == expected


def test_rematch_single_edge():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [1, 1], set())
    m2 = rematch(g, [1, 1], set(), expand_all(result))
    assert m2 == {0}


def test_rematch_closed_trail_drops_deficiency_by_two():
    # only vertex 0 is deficient (by 2); the unique augmentation is the
    # closed alternating trail around the triangle
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    f = [2, 1, 1]
    m = {1}
    result = find_trails(g, f, m, check=True)
    (trail,) = expand_all(result)
    assert trail.root_vertex == trail.terminal_vertex == 0
    state = match_state(g, f, m)
    after = rematch(g, f, state, [trail])
    assert after.deficiency[0] == 0
    m2 = rematch(g, f, m, [trail])
    assert m2 == set(compress(range(g.m), after.flags))
    assert len(m2) == len(m) + 1


def test_rematch_two_disjoint_trails_additive():
    g = Multigraph(4, [(0, 1), (2, 3)])
    f = [1] * 4
    result = find_trails(g, f, set())
    m2 = rematch(g, f, set(), expand_all(result))
    assert len(m2) == 2


def test_rematch_conservation_of_deficiency():
    # the state path agrees with the set path, and its deficiencies with
    # the ones a set-up recomputes from the rematched set
    rng = random.Random(33)
    for _ in range(150):
        g, f = random_instance(rng, 7, 11, 3)
        m = random_valid_matching(rng, g, f)
        result = find_trails(g, f, m)
        trails = expand_all(result)
        state = match_state(g, f, m)
        after = rematch(g, f, state, trails)
        assert sum(state.deficiency) - sum(after.deficiency) == 2 * len(trails)
        m2 = rematch(g, f, m, trails)
        assert len(m2) == len(m) + len(trails)
        assert m2 == set(compress(range(g.m), after.flags))
        assert after.deficiency == match_state(g, f, m2).deficiency == result.def_final
        # trails are pairwise edge-disjoint
        used = [e for t in trails for e in t.edges]
        assert len(used) == len(set(used))


def set_and_state(g, f, matching):
    """The matching as a set and as a carried state: rematch treats both alike."""
    return [set(matching), match_state(g, f, matching)]


def test_rematch_rejects_overlapping_trails():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [1, 1], set())
    (trail,) = expand_all(result)
    for matching in set_and_state(g, [1, 1], set()):
        with pytest.raises(ValueError, match="trails are not edge-disjoint: edge 0"):
            rematch(g, [1, 1], matching, [trail, trail])


def test_rematch_rejects_non_alternating():
    g = Multigraph(3, [(0, 1), (1, 2)])
    bogus = GTrail(root_vertex=0, terminal_vertex=2, edges=(0, 1), g=g)
    message = "^invalid augmenting trail: no alternation entering edge 1$"
    for matching in set_and_state(g, [1, 1, 1], set()):
        with pytest.raises(ValueError, match=message):
            rematch(g, [1, 1, 1], matching, [bogus])


def test_rematch_rejects_trail_ending_at_saturated_vertex():
    # vertex 1 is saturated by edge 1; a one-edge "trail" onto it
    # alternates, but flipping it pushes vertex 1 over its bound
    g = Multigraph(3, [(0, 1), (1, 2)])
    bogus = GTrail(root_vertex=0, terminal_vertex=1, edges=(0,), g=g)
    for matching in set_and_state(g, [1, 1, 1], {1}):
        with pytest.raises(ValueError, match=r"rematching violates degree bounds at \[1\]"):
            rematch(g, [1, 1, 1], matching, [bogus])


@pytest.mark.parametrize("e", [-1, 2])
def test_rematch_rejects_unknown_edge_id(e):
    g = Multigraph(2, [(0, 1), (0, 1)])
    bogus = GTrail(root_vertex=0, terminal_vertex=1, edges=(e,), g=g)
    for matching in set_and_state(g, [2, 2], set()):
        with pytest.raises(ValueError, match=f"unknown edge id {e}"):
            rematch(g, [2, 2], matching, [bogus])


@pytest.mark.parametrize(
    "state, message",
    [
        (MatchState(b"", array("i")), "matching state needs 1 flags, each 0 or 1"),
        (MatchState(b"\x02", array("i", [1, 1])), "matching state needs 1 flags, each 0 or 1"),
        (MatchState(b"\x00", array("i", [1])), "matching state needs 2 deficiencies, none negative"),
        (
            MatchState(b"\x00", array("i", [1, -4])),
            "matching state needs 2 deficiencies, none negative",
        ),
    ],
    ids=["no-flags", "flag-2", "short-deficiency", "negative-deficiency"],
)
def test_rematch_checks_a_carried_state_as_find_trails_does(state, message):
    g = Multigraph(2, [(0, 1)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        find_trails(g, [1, 1], state)
    with pytest.raises(ValueError, match=f"^{message}$"):
        rematch(g, [1, 1], state, [])


def test_rematch_leaves_its_input_state_unchanged():
    rng = random.Random(34)
    for _ in range(50):
        g, f = random_instance(rng, 7, 11, 3)
        state = match_state(g, f, random_valid_matching(rng, g, f))
        flags, deficiency = bytes(state.flags), state.deficiency.tolist()
        after = rematch(g, f, state, expand_all(find_trails(g, f, state)))
        assert state.flags == flags and state.deficiency.tolist() == deficiency
        assert after.deficiency is not state.deficiency


def test_expansion_pinned_on_deep_nesting():
    # sha256 of every phase's expanded steps, recorded before expansion
    # moved to one pre-order numbering per phase
    digest = hashlib.sha256()
    for result in deep_nesting_phases():
        if result.trails:
            digest.update(repr([t.steps for t in expand_all(result)]).encode())
    assert digest.hexdigest() == "3e7d22a3874bc2fe9b388f4d84341be144ec6198f4c73a70e0180d8e539e5b9b"


def test_router_numbers_each_node_once():
    # expansion is linear because the numbering holds every node inside a
    # root record once, and each record is one interval of it: its base
    # node, then, for each of its arcs in segment order, the arc itself or,
    # for an arc entering a frozen child, that child's interval
    checked = 0
    for result in deep_nesting_phases():
        roots = list(result.blossoms.root_record.values())
        if not roots:
            continue
        router = _Router(result)
        router.locator(roots[0])
        records = list(all_records(result))
        inside = sum(len(seg.arcs) for rec in records for seg in rec.segments)
        assert len(router.order) == len(set(router.order)) == len(roots) + inside
        assert len(router.span) == len(records)
        order, span = router.order, router.span
        for rec in records:
            expected = [rec.base_node]
            for seg in rec.segments:
                for arc, child in zip(seg.arcs, seg.children):
                    if child is None:
                        expected.append(arc)
                    else:
                        lo, hi = span[child]
                        assert order[lo] == child.base_node == arc
                        expected += order[lo:hi]
            lo, hi = span[rec]
            assert order[lo:hi] == expected
        checked += 1
    assert checked


def _path3_trail(root, terminal, edges):
    return GTrail(root_vertex=root, terminal_vertex=terminal, edges=edges, g=PATH3)


def _snapshot(matching):
    """A copy of a matching as a set, or of a state's flags and deficiencies."""
    if isinstance(matching, set):
        return set(matching)
    return bytes(matching.flags), matching.deficiency.tolist()


# (trails as (root, terminal, edges), matching, expected message); f = PATH3_F
# keeps every matching valid, so each call reaches the trail checks
PATH3_F = [2, 3, 2, 2]
INVALID = "invalid augmenting trail: "
REMATCH_FAULTS = [
    ([(0, 1, (0, 7))], set(), INVALID + "unknown edge id 7"),
    ([(0, 1, (0, 2, 1))], {2}, INVALID + "edge 2 does not continue the trail at 1"),
    ([(0, 1, (0, 3, 0))], {3}, INVALID + "edge 0 repeats"),
    ([(0, 2, (0, 1))], set(), INVALID + "no alternation entering edge 1"),
    ([(0, 2, (0, 1))], {1}, INVALID + "extreme edge is matched"),
    ([(0, 2, (0, 1, 2))], {1}, INVALID + "trail does not end at its terminal vertex"),
    ([(0, 3, ())], set(), INVALID + "empty trail"),
    ([(0, 1, (0,)), (1, 0, (0,))], set(), "trails are not edge-disjoint: edge 0"),
    # a trail's own fault comes before the edge it shares with an earlier one
    ([(1, 2, (1,)), (1, 3, (1, 2))], set(), INVALID + "no alternation entering edge 2"),
]


@pytest.mark.parametrize(
    "specs, matching, message",
    REMATCH_FAULTS,
    ids=["unknown", "continuation", "repeat", "alternation", "extreme", "terminal", "empty",
         "shared", "own-fault-first"],
)
def test_rematch_rejects_each_fault_as_check_gtrail_words_it(specs, matching, message):
    trails = [_path3_trail(*spec) for spec in specs]
    # the first faulty trail's first check_gtrail problem, word for word
    problems = [p for t in trails for p in check_gtrail(PATH3, matching, t)]
    if message.startswith(INVALID):
        assert problems[0] == message.removeprefix(INVALID)
    else:
        assert problems == []
    for given in set_and_state(PATH3, PATH3_F, matching):
        kept = _snapshot(given)
        with pytest.raises(ValueError) as caught:
            rematch(PATH3, PATH3_F, given, trails)
        assert str(caught.value) == message
        assert _snapshot(given) == kept  # a rejected call changes nothing
