import gc
import hashlib
import random
from array import array
from collections import Counter

import pytest

from ftrails.driver import max_f_matching
from ftrails import engine
from ftrails.engine import ARTIFICIAL, CheckFailure, StructuralError, find_trails
from ftrails.expand import expand_all, rematch
from ftrails.multigraph import Multigraph, match_state
from helpers import (
    deep_nesting_phases,
    random_instance,
    random_valid_matching,
    run_phases,
    triangle_chain,
)


def traced(g, f, matching, **kw):
    lines = []
    result = find_trails(g, f, matching, trace=lines.append, check=True, **kw)
    return result, lines


def test_single_edge_immediate_augment():
    g = Multigraph(2, [(0, 1)])
    result, lines = traced(g, [1, 1], set())
    assert len(result.trails) == 1
    t = result.trails[0]
    assert (t.root_vertex, t.terminal_vertex) == (0, 1)
    assert [a for a in t.arcs] == [t.final_arc]
    assert any(line.startswith("augment at 1") for line in lines)


def test_isolated_free_vertex_returns_immediately():
    g = Multigraph(1, [])
    result, lines = traced(g, [1], set())
    assert result.trails == []
    assert lines == ["search 0 root 0 node 0", "return node 0 arc 0"]
    assert result.e1_arc[0] == 0  # the artificial root arc


def test_loop_grown_as_arc():
    g = Multigraph(1, [(0, 0)])
    result, lines = traced(g, [2], set())
    assert "grow 0->0 edge 0 arc 1" in lines
    t = result.trails[0]
    assert t.root_vertex == t.terminal_vertex == 0
    assert result.def_final[0] == 0


def test_closed_trail_needs_deficiency_two():
    g = Multigraph(1, [(0, 0)])
    result, _ = traced(g, [1], set())
    assert result.trails == []


def test_pendant_non_e1_scan_is_noop():
    # search 0 makes e1(2) return; search 1 reaches vertex 2 again on a
    # matched arc, which must return without growing or popping anything
    g = Multigraph(5, [(0, 1), (1, 2), (3, 4), (4, 2)])
    f = [1, 1, 2, 1, 1]
    result, lines = traced(g, f, {1, 3})
    assert result.trails == []
    i = lines.index("grow 4->2 edge 3 arc 5")
    assert lines[i + 1] == "return node 5 arc 5"


def test_first_pop_returns_first_entry():
    # triangle with one matched edge: the root's pop must take the first
    # entry ever added to BL(0)
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    result, lines = traced(g, [1, 1, 1], {1})
    first_return = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "return":
            node = int(parts[2])
            v = result.forest.vertex[node]
            first_return.setdefault(v, int(parts[4]))
        elif parts[0] == "pop":
            v = int(parts[2])
            assert int(parts[7]) == first_return[v]
            break
    else:
        pytest.fail("no pop happened")


def test_blossom_noop_traced():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    _result, lines = traced(g, [1, 1, 1], {1})
    assert "blossom noop" in lines


def test_blossom_step_enables_augment():
    # odd cycle 2-3-4 triggers a blossom; the rescan of vertex 3 in the
    # opposite parity reaches the free vertex 5
    g = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (3, 5)])
    f = [1] * 6
    result, lines = traced(g, f, {1, 3})
    assert len(result.trails) == 1
    assert result.trails[0].terminal_vertex == 5
    assert any(line.startswith("blossom base") for line in lines)
    m2 = rematch(g, f, {1, 3}, expand_all(result))
    assert len(m2) == 3


def test_pending_invocation_augments():
    # only an invocation left pending by a blossom step can augment with
    # node != arc: the step at node 2 contracts arcs 3, 4, 5 and leaves
    # node 3 pending, entered through the unmatched arc 4 to vertex 2
    g = Multigraph(5, [(3, 1), (2, 3), (2, 4), (3, 4)])
    f = [1, 1, 2, 2, 1]
    result, lines = traced(g, f, {1, 3})
    assert lines == [
        "search 0 root 0 node 0",
        "return node 0 arc 0",
        "search 1 root 1 node 1",
        "grow 1->3 edge 0 arc 2",
        "grow 3->2 edge 1 arc 3",
        "grow 2->4 edge 2 arc 4",
        "grow 4->3 edge 3 arc 5",
        "return node 5 arc 5",
        "return node 4 arc 4",
        "return node 3 arc 3",
        "pop at 3 entry node 5 arc 5",
        "blossom base 2 path [3, 4, 5]",
        "augment at 2 node 3 arc 4",
    ]
    assert [tuple(t) for t in result.trails] == [(1, 2, (2,), 3, 4)]
    assert len(rematch(g, f, {1, 3}, expand_all(result))) == 3


SKEW_EDGES = [(0, 1), (1, 5), (5, 2), (2, 5), (5, 3), (3, 5), (5, 4), (4, 6), (6, 5)]
SKEW_F = [1, 1, 1, 1, 1, 3, 1]
SKEW_M = {1, 3, 5, 7}


def test_skew_cascade_unsuccessful():
    g = Multigraph(7, SKEW_EDGES)
    result, lines = traced(g, SKEW_F, SKEW_M)
    assert result.trails == []
    # three nested blossoms, the outermost a skew one based at the first
    # occurrence of vertex 5; all complete at halt
    assert len(result.blossoms.root_record) == 1
    rec = next(iter(result.blossoms.root_record.values()))
    assert rec.complete
    assert result.forest.vertex[rec.base_node] == 5
    assert rec.segments[0].children[-1] is not None  # skew: ends in a sub-blossom
    assert sum(1 for line in lines if line.startswith("blossom base")) == 3


def test_skew_cascade_with_exit_augments():
    g = Multigraph(8, SKEW_EDGES + [(3, 7)])
    f = SKEW_F + [1]
    result, _ = traced(g, f, SKEW_M)
    assert len(result.trails) == 1
    assert result.trails[0].terminal_vertex == 7
    trails = expand_all(result)
    assert sorted(trails[0].edges) == [0, 1, 2, 3, 5, 6, 7, 8, 9]
    # the incomplete blossom cut by the augment holds a frozen complete one
    rec = next(iter(result.blossoms.root_record.values()))
    assert not rec.complete
    assert any(c is not None and c.complete for seg in rec.segments for c in seg.children)


# Check mode catches a corrupted run.  Each test below corrupts one step of
# a live run (from a trace line, through the run captured at set-up) and
# expects the invariant that the corruption breaks to fire.


def corrupted_run(monkeypatch, g, f, matching, at_line, corrupt):
    """find_trails in check mode, calling corrupt(run) once the trace line
    at_line has been emitted."""
    runs = []
    init = engine._Run.__init__

    def capture(self, *args):
        init(self, *args)
        runs.append(self)

    def sink(line):
        if line == at_line:
            corrupt(runs[0])

    monkeypatch.setattr(engine._Run, "__init__", capture)
    return find_trails(g, f, matching, check=True, trace=sink)


def test_check_catches_a_vertex_in_two_blossoms(monkeypatch):
    # search 0 makes a blossom of loops at vertex 1; search 1 forms one
    # based at node 4 (vertex 2), whose atom 5 is moved to vertex 1
    g = Multigraph(3, [(2, 0), (1, 1), (1, 1), (1, 1), (0, 2), (2, 0), (2, 2)])

    def corrupt(run):
        run.forest.vertex[5] = 1

    with pytest.raises(CheckFailure, match="vertex 1 occurs in two blossoms"):
        corrupted_run(monkeypatch, g, [1, 1, 2], {0}, "blossom base 4 path [5, 6]", corrupt)


def test_check_catches_a_blossom_node_off_the_subtree(monkeypatch):
    # test_pending_invocation_augments's blossom, with arc 5 hung from the
    # search root instead of from node 4
    g = Multigraph(5, [(3, 1), (2, 3), (2, 4), (3, 4)])

    def corrupt(run):
        run.forest.tail[5] = 1

    with pytest.raises(CheckFailure, match="blossom node 5 detaches from the base subtree"):
        corrupted_run(
            monkeypatch, g, [1, 1, 2, 2, 1], {1, 3}, "blossom base 2 path [3, 4, 5]", corrupt
        )


def test_check_catches_a_skew_blossom_missing_its_base_vertex(monkeypatch):
    # test_skew_cascade_unsuccessful's middle blossom, based at node 4,
    # closes through the blossom based at node 6; node 4 is moved to
    # vertex 0, which that blossom does not hold
    g = Multigraph(7, SKEW_EDGES)

    def corrupt(run):
        run.forest.vertex[4] = 0

    with pytest.raises(
        CheckFailure, match="skew blossom's final sub-blossom misses the base vertex"
    ):
        corrupted_run(monkeypatch, g, SKEW_F, SKEW_M, "pop at 5 entry node 6 arc 6", corrupt)


# Search 0 returns e1(2) = arc 1, an unmatched arc; search 1 then grows the
# unmatched edge 0 from vertex 1 to vertex 2 as arc 4, a late arrival.
LATE_G = Multigraph(3, [(1, 2), (2, 0), (0, 2)])
LATE_F = [2, 1, 1]
LATE_M = {2}


def test_check_catches_a_late_arrival_of_the_wrong_m_type(monkeypatch):
    def corrupt(run):
        run.e1_arc[2] = 2  # a matched arc

    with pytest.raises(
        CheckFailure, match="arc 4 at vertex 2 arrived after e1 returned with the wrong M-type"
    ):
        corrupted_run(monkeypatch, LATE_G, LATE_F, LATE_M, "return node 1 arc 1", corrupt)


def test_check_catches_a_late_arrival_that_grows(monkeypatch):
    # reopening the matched edge 2 at vertex 2 lets arc 4 grow it again
    def corrupt(run):
        run.closed_m[2] = 0
        run.cur_matched[2] = LATE_G.inc_off[2]

    with pytest.raises(CheckFailure, match="arc 4 grown after e1 returned is not pendant"):
        corrupted_run(monkeypatch, LATE_G, LATE_F, LATE_M, "grow 1->2 edge 0 arc 4", corrupt)


def test_check_catches_an_enlarge_test_without_a_blossom(monkeypatch):
    # vertex 0 is flagged as in a blossom of search 0, its occurrence being
    # the atom at node 1 (vertex 1): the enlarge test fires at the root with
    # no blossom below it
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])

    def corrupt(run):
        run.vertex_occurrence[0] = 1

    with pytest.raises(
        CheckFailure, match="enlarge test fired at node 0 with no descendant of 0 in a blossom"
    ):
        corrupted_run(monkeypatch, g, [1, 1, 1], {1}, "search 0 root 0 node 0", corrupt)


def test_check_catches_a_pop_of_an_entry_from_an_earlier_search(monkeypatch):
    # e1(2) = arc 1 returned unmatched in search 0; turned matched, it is
    # of the other M-type than the late arrival 4 at vertex 2 in search 1,
    # whose base test then pops it
    def corrupt(run):
        run.forest.matched[1] = 1

    with pytest.raises(CheckFailure, match="popped BL entry 1 from an earlier search"):
        corrupted_run(monkeypatch, LATE_G, LATE_F, LATE_M, "search 1 root 1 node 3", corrupt)


def corrupted_step(monkeypatch, g, f, matching, step, corrupt):
    """find_trails in check mode, calling corrupt(run) right before blossom
    step number step (counted from 0)."""
    blossom_step = engine._Run._blossom_step
    steps = []

    def wrapped(self, node, rn, rm):
        if len(steps) == step:
            corrupt(self)
        steps.append(node)
        return blossom_step(self, node, rn, rm)

    monkeypatch.setattr(engine._Run, "_blossom_step", wrapped)
    return find_trails(g, f, matching, check=True)


# step 0: blossom base 0 path [1, 2, 3], the arcs unmatched, matched, unmatched
TRIANGLE = (Multigraph(3, [(0, 1), (1, 2), (2, 0)]), [1, 1, 1], {1})
# step 0: blossom base 0 path [1], a loop; step 1 enlarges it by path [2]
LOOPS = (Multigraph(2, [(0, 0), (1, 1), (0, 0)]), [1, 1], set())


def _set(seq, i, value):
    seq[i] = value


# (instance, step, corruption, the message check mode gives)
BLOSSOM_CORRUPTIONS = {
    # step 1 of the skew cascade absorbs the blossom based at node 6
    "incomplete-child": (
        (Multigraph(7, SKEW_EDGES), SKEW_F, SKEW_M),
        1,
        lambda run: setattr(run.store.base_record[6], "complete", False),
        "incomplete blossom absorbed as a frozen child",
    ),
    # step 4 is blossom base 0 path [1, 4], arc 1 entering the complete
    # blossom based at node 1; node 1 is not its union-find root, and
    # pointing it at the root of the complete blossom based at node 5, off
    # the path, makes that blossom the child entered by arc 1
    "off-base": (
        (
            Multigraph(3, [(0, 1), (0, 0), (2, 2), (2, 1), (0, 0), (0, 1), (2, 2)]),
            [2, 2, 1],
            {3, 4},
        ),
        4,
        lambda run: _set(run.store.parent, 1, 5),
        "path enters a contracted blossom off its base edge",
    ),
    "alternation": (
        TRIANGLE,
        0,
        lambda run: _set(run.forest.matched, 2, 0),
        "blossom path does not alternate at an atomic node",
    ),
    "base-m-type": (
        TRIANGLE,
        0,
        lambda run: _set(run.forest.matched, 0, 0),
        "blossom path starts with the base edge's M-type",
    ),
    "return-to-base": (
        LOOPS,
        0,
        lambda run: _set(run.forest.vertex, 1, 1),
        "closed trail does not return to the base vertex",
    ),
    # step 1 is blossom base 0 path [1, 3]: arc 1 enters a blossom, so no
    # alternation is asked between arcs 1 and 3
    "extreme-edges": (
        (Multigraph(2, [(1, 0), (1, 0), (1, 1)]), [1, 2], {2}),
        1,
        lambda run: _set(run.forest.matched, 3, 1),
        "extreme edges of a base-case blossom differ in M-type",
    ),
    # the complete blossom based at node 3 holds the loop at vertex 0; BL
    # entry 1 (node 2, a loop at vertex 1) is popped by step 2, which
    # enlarges the blossom based at node 0, and moving the entry to node 3
    # ends that step's path in the complete blossom
    "enlargement-end": (
        (Multigraph(2, [(1, 1), (1, 1), (0, 0), (0, 1)]), [2, 1], {2}),
        1,
        lambda run: _set(run.bl_entry_node, 1, 3),
        "enlargement path ends in a contracted blossom",
    ),
    "enlargement-closure": (
        LOOPS,
        1,
        lambda run: _set(run.forest.vertex, 2, 1),
        "enlargement does not close at the popping node's vertex",
    ),
}


@pytest.mark.parametrize("case", BLOSSOM_CORRUPTIONS)
def test_check_catches_a_corrupted_blossom_step(monkeypatch, case):
    (g, f, matching), step, corrupt, message = BLOSSOM_CORRUPTIONS[case]
    find_trails(g, f, matching, check=True)  # clean without the corruption
    with pytest.raises(CheckFailure, match=f"^{message}\n"):
        corrupted_step(monkeypatch, g, f, matching, step, corrupt)


def test_path_down_rejects_a_component_off_the_top(monkeypatch):
    # the closing arc 3 of the triangle hangs from no node, so the walk up
    # from it never meets the base
    def corrupt(run):
        run.forest.tail[3] = -1

    g, f, matching = TRIANGLE
    with pytest.raises(StructuralError, match="^component 3 does not descend from component 0\n"):
        corrupted_step(monkeypatch, g, f, matching, 0, corrupt)


def test_bl_list_of_a_vertex_in_no_blossom_has_one_m_type(monkeypatch):
    # the base test reads only the first entry of BL(x): at halt, every
    # vertex in no blossom must hold entries of one M-type.  Each pop is
    # told apart as a base test (x in no blossom) or an enlarge test, so
    # both are known to fire.
    runs = []
    init = engine._Run.__init__

    def capture(self, *args):
        init(self, *args)
        runs.append(self)

    pops = {"base": 0, "enlarge": 0}

    def sink(line):
        if line.startswith("pop at "):
            x = int(line.split()[2])
            pops["base" if runs[-1].vertex_occurrence[x] < 0 else "enlarge"] += 1

    monkeypatch.setattr(engine._Run, "__init__", capture)
    rng = random.Random(15)
    matched = loops = parallel = several = 0
    for _ in range(300):
        g, f = random_instance(rng, 8, 14, 3)
        m = random_valid_matching(rng, g, f)
        matched += bool(m)
        loops += any(u == v for u, v in g.edges)
        parallel += len(set(map(frozenset, g.edges))) < g.m
        result = find_trails(g, f, m, check=True, trace=sink)
        run = runs[-1]
        for v in range(g.n):
            if run.vertex_occurrence[v] >= 0:
                continue
            types = []
            h = run.bl_first[v]
            while h >= 0:
                types.append(result.forest.matched[run.bl_entry_arc[h]])
                h = run.bl_entry_next[h]
            assert len(set(types)) <= 1, (g.edges, f, m, v, types)
            several += len(types) > 1
    assert matched and loops and parallel and several
    assert pops["base"] and pops["enlarge"], pops


def test_union_find_sizes_live_in_the_parent_array():
    # a root's parent is minus its component's size, and the components of
    # more than one node are exactly the blossoms, each under its root
    def check(result):
        store = result.blossoms
        par = store.parent
        roots = Counter(store.find(a) for a in range(len(result.forest.edge)))
        for r, size in roots.items():
            assert par[r] < 0 and -par[r] == size, (r, par[r], size)
        assert set(store.root_record) == {r for r, size in roots.items() if size > 1}
        return max(roots.values(), default=0)

    rng = random.Random(16)
    largest = {}
    for check_mode in (False, True):
        for _ in range(150):
            g, f = random_instance(rng, 8, 14, 3)
            for result in run_phases(g, f, random_valid_matching(rng, g, f), check_mode)[1]:
                largest[check_mode] = max(largest.get(check_mode, 0), check(result))
        for k in (1, 2, 5, 64, 1025):
            g = triangle_chain(k)
            results = run_phases(g, [1] * g.n, set(), check_mode)[1]
            # the last phase nests k blossoms in one search, and the
            # outermost holds its whole forest: 3k arcs and the root
            assert max(map(check, results)) == 3 * k + 1
            assert len(results[-1].blossoms.base_record) == k
    assert min(largest.values()) > 2, largest


def test_find_trails_restores_the_cycle_collector(monkeypatch):
    # paused during the run, restored after it, also when check mode raises;
    # a collector the caller disabled stays disabled
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    seen = []
    find_trails(g, [1, 1, 1], {1}, trace=lambda line: seen.append(gc.isenabled()))
    assert seen and not any(seen) and gc.isenabled()

    def corrupt(run):
        run.vertex_occurrence[0] = 1

    with pytest.raises(CheckFailure):
        corrupted_run(monkeypatch, g, [1, 1, 1], {1}, "search 0 root 0 node 0", corrupt)
    assert gc.isenabled()
    gc.disable()
    try:
        find_trails(g, [1, 1, 1], {1})
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_vertex_roots_multiple_searches():
    g = Multigraph(3, [(0, 1), (0, 2)])
    result, _ = traced(g, [2, 1, 1], set())
    assert result.searches == 2
    assert len(result.trails) == 2
    assert list(result.def_final) == [0, 0, 0]


def test_invalid_matching_rejected():
    g = Multigraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError):
        find_trails(g, [1, 1], {0, 1})


@pytest.mark.parametrize(
    "f, matching, message, order",
    [
        ([1, 1, 2], {0, 1}, "matching violates degree bounds at vertices [0, 1]", None),
        ([1, 1, 2], {-1}, "matching contains unknown edge id -1", None),
        ([1, 1, 2], {3}, "matching contains unknown edge id 3", None),
        ([1, 1], set(), "degree bound vector has length 2, expected 3", None),
        ([1, -1, 2], set(), "degree bound f(1) = -1 is negative", None),
        # the checks run in this order: bounds, edge ids, degrees
        ([1, 1], {0, 1, 3}, "degree bound vector has length 2, expected 3", None),
        ([1, 1, 2], {0, 1, 3}, "matching contains unknown edge id 3", None),
        # checked before the first search, where -1 would pass for vertex 2
        ([1, 1, 2], set(), "order contains unknown vertex id -1", [0, -1]),
        ([1, 1, 2], set(), "order contains unknown vertex id 3", [3]),
        # entries go through operator.index: no float or string passes
        ([1, 1, 2], set(), "order contains unknown vertex id 1.0", [1.0]),
        ([1, 1, 2], set(), "order contains unknown vertex id 1", ["1"]),
    ],
)
def test_find_trails_rejection_messages(f, matching, message, order):
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    with pytest.raises(ValueError) as info:
        find_trails(g, f, matching, order=order)
    assert str(info.value) == message


def test_carried_state_checks():
    # vertex 1 is saturated by edge 1; the tampered state calls it deficient
    g = Multigraph(3, [(0, 1), (1, 2)])
    f = [1, 1, 1]
    state = match_state(g, f, {1})
    tampered = state._replace(deficiency=array("i", [1, 1, 0]))
    find_trails(g, f, state, check=True)
    with pytest.raises(CheckFailure, match="carried deficiencies disagree with the matched flags"):
        find_trails(g, f, tampered, check=True)
    # without check mode only the shape is checked
    find_trails(g, f, tampered)
    flags_message = "matching state needs 2 flags, each 0 or 1"
    deficiency_message = "matching state needs 3 deficiencies, none negative"
    for bad, message in [
        (state._replace(flags=b"\x00"), flags_message),
        (state._replace(flags=b"\x00\x02"), flags_message),
        (state._replace(deficiency=array("i", [1, 0])), deficiency_message),
        (state._replace(deficiency=array("i", [1, -1, 0])), deficiency_message),
    ]:
        with pytest.raises(ValueError) as info:
            find_trails(g, f, bad)
        assert str(info.value) == message


def test_find_trails_leaves_a_carried_state_unchanged():
    # two runs on one state are the same run, and the state is unchanged
    rng = random.Random(6)
    for _ in range(100):
        g, f = random_instance(rng, 7, 12, 3)
        m = random_valid_matching(rng, g, f)
        state = match_state(g, f, m)
        flags, deficiency = bytes(state.flags), state.deficiency.tolist()
        digests = []
        for _run in range(2):
            h = hashlib.sha256()
            result = find_trails(g, f, state, check=True)
            assert result.matched == flags
            _phase_digest(h, result)
            digests.append(h.hexdigest())
        assert state.flags == flags and state.deficiency.tolist() == deficiency
        h = hashlib.sha256()
        _phase_digest(h, find_trails(g, f, m, check=True))
        assert digests == [h.hexdigest()] * 2


def test_find_trails_runs_on_int_order_entries():
    g = Multigraph(3, [(0, 1), (0, 1), (1, 2)])
    (trail,) = find_trails(g, [1, 1, 2], set(), order=[True]).trails
    assert trail.root_vertex == 1 and type(trail.root_vertex) is int


def test_each_edge_grown_at_most_once():
    rng = random.Random(5)
    for _ in range(100):
        g, f = random_instance(rng, 7, 12, 3)
        m = random_valid_matching(rng, g, f)
        result = find_trails(g, f, m, check=True)
        grown = [e for e in result.forest.edge if e != ARTIFICIAL]
        assert len(grown) == len(set(grown))


def test_deterministic_traces():
    g = Multigraph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 2), (3, 5)])
    runs = []
    for _ in range(2):
        lines = []
        find_trails(g, [1] * 6, {1, 3}, trace=lines.append)
        runs.append(lines)
    assert runs[0] == runs[1]


def test_grow_order_at_interleaved_vertex():
    # vertex 0's incidence list alternates M-types and holds a loop (2) and
    # parallel pairs (1, 6), (3, 4), (7, 8); each scan at 0 takes the open
    # edges of its type in edge-id order, and edges 1, 3, 7 are grown from
    # their other ends first
    edges = [(0, 1), (0, 2), (0, 0), (0, 3), (0, 3), (4, 0), (0, 2), (0, 5), (5, 0), (6, 2)]
    matching = {1, 4, 6, 8}
    g = Multigraph(7, edges)
    _, lines = traced(g, [4, 0, 2, 1, 0, 1, 1], matching)
    grows = [line for line in lines if line.startswith("grow")]
    assert grows == [
        "grow 6->2 edge 9 arc 1",
        "grow 2->0 edge 1 arc 2",
        "grow 0->1 edge 0 arc 3",
        "grow 0->0 edge 2 arc 4",
        "grow 0->3 edge 4 arc 5",
        "grow 3->0 edge 3 arc 6",
        "grow 0->2 edge 6 arc 7",
        "grow 0->5 edge 8 arc 8",
        "grow 5->0 edge 7 arc 9",
        "grow 0->4 edge 5 arc 10",
    ]
    at_hub = [int(line.split()[3]) for line in grows if line.startswith("grow 0->")]
    assert [e for e in at_hub if e not in matching] == [0, 2, 5]
    assert [e for e in at_hub if e in matching] == [4, 6, 8]


def test_seeded_solve_phase_counts():
    rng = random.Random(2024)
    n, m = 600, 1500
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    f = [rng.randint(1, 3) for _ in range(n)]
    rep = max_f_matching(Multigraph(n, edges), f)
    assert rep.phases == 18
    assert rep.trail_counts == [486, 42, 12, 6, 3, 3] + [1] * 11 + [0]
    assert len(rep.matching) == 563


def test_order_parameter_controls_roots():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [1, 1], set(), order=[1, 0])
    assert result.trails[0].root_vertex == 1


def test_def_maintained_across_searches():
    # the second search sees the deficiency left by the first augment
    g = Multigraph(3, [(0, 1), (1, 2)])
    result = find_trails(g, [1, 2, 1], set(), check=True)
    assert len(result.trails) == 2
    assert list(result.def_final) == [0, 0, 0]


def test_check_mode_clean_on_randoms():
    rng = random.Random(99)
    for _ in range(150):
        g, f = random_instance(rng, 8, 13, 3)
        m = random_valid_matching(rng, g, f)
        run_phases(g, f, m, check=True)


def test_no_incident_edge_grown_after_e1_pop():
    # once e1(x) is popped, no edge at x enters the forest again
    rng = random.Random(271828)
    for _ in range(120):
        g, f = random_instance(rng, 7, 12, 3)
        m = random_valid_matching(rng, g, f)
        lines = []
        result = find_trails(g, f, m, check=True, trace=lines.append)
        pop_of: dict[int, int] = {}
        for i, line in enumerate(lines):
            parts = line.split()
            if parts[0] == "pop":
                x = int(parts[2])
                if result.e1_arc[x] == int(parts[7]):
                    pop_of.setdefault(x, i)
        for x, at in pop_of.items():
            for line in lines[at + 1 :]:
                parts = line.split()
                if parts[0] == "grow":
                    u, y = parts[1].split("->")
                    assert x != int(u) and x != int(y), (x, line)


def _phase_digest(h, result, lines=()):
    fo = result.forest
    h.update(
        repr(
            (
                list(fo.edge),
                list(fo.tail),
                list(fo.matched),
                list(fo.vertex),
                list(result.e1_arc),
                list(result.def_final),
                result.searches,
                [tuple(t) for t in result.trails],
                list(lines),
            )
        ).encode()
    )


def _solve_digest(h, g, f, matching, check=False):
    while True:
        lines = []
        result = find_trails(g, f, matching, check=check, trace=lines.append if check else None)
        _phase_digest(h, result, lines)
        if not result.trails:
            return
        matching = rematch(g, f, matching, expand_all(result))


def test_search_pinned():
    # Every search decision, pinned: a change to the engine that should
    # only make it faster must leave these digests as they are.
    h = hashlib.sha256()
    rng = random.Random(2024)
    n, m = 600, 1500
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    f = [rng.randint(1, 3) for _ in range(n)]
    _solve_digest(h, Multigraph(n, edges), f, set())
    assert h.hexdigest() == "3f9f42e456af8bfa55f7c3a5f74cce51f7d5d7dbbaae60b2591eb53564de80ec"

    h = hashlib.sha256()
    for _, result in zip(range(3), deep_nesting_phases()):
        _phase_digest(h, result)
    assert h.hexdigest() == "53c7807d4c864ff7911743023480db31eb0dd997992f775d2fcdeed97a46ce79"

    h = hashlib.sha256()
    rng = random.Random(8)
    for _ in range(300):
        g, f = random_instance(rng, 8, 13, 3)
        _solve_digest(h, g, f, random_valid_matching(rng, g, f), check=True)
    assert h.hexdigest() == "355e735bc1d08b5c0f39081956a788b068eff84e623c92d700201efc9ab5dad0"

    # the full trace stream of solves whose searches nest blossoms and make
    # noops: two instances of dense-solve's shape (a solve of the first
    # makes 1,040 noops and 694 blossom steps) and a triangle chain
    h = hashlib.sha256()
    for seed in ("dense-solve/0", "dense-solve/1"):
        rng = random.Random(seed)
        n, m = 1000, 4000
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        f = [rng.randint(1, 3) for _ in range(n)]
        _solve_digest(h, Multigraph(n, edges), f, set(), check=True)
    g = triangle_chain(64)
    _solve_digest(h, g, [1] * g.n, set(), check=True)
    assert h.hexdigest() == "69a7fc32868164a83a44d497f36587da0fc5f2eca824007c51b87c4e65dc71d6"
