import hashlib
import random
from itertools import compress

import pytest

from ftrails.certificate import (
    IN_COMPLETE_BLOSSOM,
    ORPHAN,
    bound_value,
    compute_labels,
    format_certificate,
    parse_certificate,
    residual_graph,
    verify,
)
from ftrails.engine import find_trails
from ftrails.expand import expand_all, rematch
from ftrails.multigraph import Multigraph
from helpers import (
    all_records,
    deep_nesting_phases,
    matched_set,
    random_instance,
    random_valid_matching,
    subgraph,
)
from oracle import OracleLimit, brute_max

WIDE = OracleLimit(max_edges=13, max_trail_len=13)


def test_bound_triangle_single_component():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    assert bound_value(g, [1, 1, 1], set(), set()) == 1
    assert brute_max(g, [1, 1, 1])[0] == 1


def test_bound_star_inner_center():
    g = Multigraph(4, [(0, 1), (0, 2), (0, 3)])
    assert bound_value(g, [1, 1, 1, 1], {0}, set()) == 1
    assert brute_max(g, [1, 1, 1, 1])[0] == 1


def test_bound_empty_graph():
    g = Multigraph(0, [])
    assert bound_value(g, [], set(), set()) == 0


def test_bound_rejects_overlap():
    g = Multigraph(2, [(0, 1)])
    with pytest.raises(ValueError):
        bound_value(g, [1, 1], {0}, {0})


@pytest.mark.parametrize(
    "f, inner, outer, message",
    [
        ([1], set(), set(), "degree bound vector has length 1, expected 2"),
        ([-3, 1], {0}, set(), r"degree bound f\(0\) = -3 is negative"),
        ([1, 1], {0.0}, set(), "vertex 0.0 is not a vertex id"),
        ([1, 1], set(), {"1"}, "vertex '1' is not a vertex id"),
        ([1, 1], {2}, set(), "vertex 2 out of range"),
        ([1, 1], set(), {-1}, "vertex -1 out of range"),
    ],
    ids=["short-f", "negative-f", "float-vertex", "str-vertex", "vertex-beyond-n",
         "negative-vertex"],
)
def test_bound_rejects_inputs_outside_the_graph(f, inner, outer, message):
    g = Multigraph(2, [(0, 1)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        bound_value(g, f, inner, outer)


def test_residual_graph_no_trails_is_whole_graph():
    g = Multigraph(3, [(0, 1), (1, 2)])
    rep = verify(find_trails(g, [1, 1, 1], {0}))
    assert rep.residual_edges == b"\x01\x01"
    assert rep.residual_matching == b"\x01\x00"
    assert rep.f_prime == [1, 1, 1]


def test_residual_graph_single_edge_emptied():
    g = Multigraph(2, [(0, 1)])
    rep = verify(find_trails(g, [1, 1], set()))
    assert rep.residual_edges == b"\x00"
    assert rep.f_prime == [0, 0]


def test_residual_keeps_complete_blossom_edges():
    # triangle blossom at maximum: all three edges stay residual
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    rep = verify(find_trails(g, [1, 1, 1], {1}, check=True))
    assert rep.residual_edges == b"\x01\x01\x01"


def test_labels_unsuccessful_free_root_is_outer():
    g = Multigraph(1, [])
    result = find_trails(g, [1], set())
    labels = verify(result).labeling
    assert labels.label[0] == "O"


def test_labels_free_vertex_with_deficiency_two_is_outer():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [3, 1], set())
    labels = verify(result).labeling
    assert result.def_final[0] == 2
    assert labels.label[0] == "O"


def test_labels_unreached_vertex_is_orphan():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [1, 1], set())
    labels = verify(result).labeling
    assert labels.label == [None, None]
    assert labels.unlabeled_kind == [ORPHAN, ORPHAN]


def test_labels_complete_blossom_members_unlabeled():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    labels = verify(result).labeling
    assert labels.unlabeled_kind == [IN_COMPLETE_BLOSSOM] * 3


def test_verify_single_edge_augmented():
    g = Multigraph(2, [(0, 1)])
    report = verify(find_trails(g, [1, 1], set()))
    assert report.ok and report.bound == 0 == report.residual_size


def test_verify_path_labels():
    # path 0-1-2 with the middle matched towards 2: labels O, I, O
    g = Multigraph(3, [(0, 1), (1, 2)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    report = verify(result)
    assert report.labeling.label == ["O", "I", "O"]
    assert report.ok and report.bound == 1


def test_verify_catches_mislabeling():
    # tampering e1 so vertex 1 looks outer creates an unmatched outer-outer
    # residual edge, which the checker must reject
    g = Multigraph(3, [(0, 1), (1, 2)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    result.e1_arc[1] = result.e1_arc[2]
    report = verify(result)
    assert not report.ok
    assert any("outer" in msg for msg in report.failures)


def path_result():
    # path 0-1-2 with the middle edge matched: labels O, I, O
    g = Multigraph(3, [(0, 1), (1, 2)])
    return find_trails(g, [1, 1, 1], {1}, check=True)


def pendant_triangle_result():
    # the triangle is a complete blossom at maximum; vertex 3 (f = 0)
    # hangs off vertex 1 through edge 3 and is labelled inner
    g = Multigraph(4, [(0, 1), (1, 2), (2, 0), (1, 3)])
    return find_trails(g, [1, 1, 1, 0], {1}, check=True)


def _set(seq, i, value):
    seq[i] = value


def _match_edge(result, e):
    flags = bytearray(result.matched)
    flags[e] = 1
    result.matched = bytes(flags)


def _uncomplete(result):
    result.blossoms.maximal_complete()[0].complete = False


VERIFY_TAMPERS = {
    "deficient-inner": (
        path_result,
        lambda r: _set(r.def_final, 1, 1),
        [
            "inner vertex 1 is deficient",
            "inner vertices carry 1 matched residual edges, expected 2",
            "bound 2 != residual matching size 1",
        ],
    ),
    "two-inner": (
        path_result,
        lambda r: _set(r.e1_arc, 2, r.e1_arc[1]),
        [
            "matched residual edge 1 joins two inner vertices",
            "inner vertices carry 1 matched residual edges, expected 2",
            "bound 2 != residual matching size 1",
        ],
    ),
    "blossom-record": (
        pendant_triangle_result,
        _uncomplete,
        [
            "inner vertex 0 is deficient",
            "inner vertices carry 1 matched residual edges, expected 2",
            "bound 2 != residual matching size 1",
        ],
    ),
    "component-matching": (
        pendant_triangle_result,
        lambda r: _match_edge(r, 3),
        [
            "component [0, 1, 2] has 1 matched edges against bound term 2",
            "bound 3 != residual matching size 2",
        ],
    ),
    "component-deficiency": (
        lambda: find_trails(Multigraph(2, [(0, 1)]), [1, 1], {0}),
        lambda r: _set(r.def_final, 0, 2),
        [
            "component [0, 1] has 1 matched edges against bound term 2",
            "bound 2 != residual matching size 1",
        ],
    ),
    "orphan-e1-type": (
        path_result,
        lambda r: _set(r.e1_arc, 2, -1),
        ["orphan edge 1 disagrees with e1's M-type at vertex 1"],
    ),
    # an orphan next to an outer vertex is tested in the outer end's branch:
    # vertex 1 is the second end of edge 0 here, and its first end below
    "orphan-outer-e1-type": (
        path_result,
        lambda r: _set(r.e1_arc, 1, -1),
        ["orphan edge 0 disagrees with e1's M-type at vertex 0"],
    ),
    "orphan-first-outer-e1-type": (
        lambda: find_trails(Multigraph(3, [(1, 0), (1, 2)]), [1, 1, 1], {1}, check=True),
        lambda r: _set(r.e1_arc, 1, -1),
        ["orphan edge 0 disagrees with e1's M-type at vertex 0"],
    ),
    "orphan-off-base": (
        pendant_triangle_result,
        lambda r: _set(r.e1_arc, 3, -1),
        ["orphan edge 3 enters a complete blossom off its base edge"],
    ),
}


@pytest.mark.parametrize("case", VERIFY_TAMPERS)
def test_verify_failure_branches(case):
    make, tamper, expected = VERIFY_TAMPERS[case]
    result = make()
    assert verify(result).ok
    tamper(result)
    report = verify(result)
    assert not report.ok
    assert report.failures == expected


def random_phase_results(seed: int, count: int):
    """Every phase's blocking result over count seeded small random instances."""
    rng = random.Random(seed)
    for _ in range(count):
        g, f = random_instance(rng, 10, 20, 3)
        m = random_valid_matching(rng, g, f)
        while True:
            result = find_trails(g, f, m)
            yield result
            if not result.trails:
                break
            m = rematch(g, f, m, expand_all(result))


def certificate_digest(results) -> str:
    """sha256 of each result's verify report, residual graph included."""
    digest = hashlib.sha256()
    for result in results:
        rep = verify(result)
        ids = range(result.g.m)
        digest.update(repr((
            rep.ok, rep.bound, rep.residual_size, rep.labeling.label,
            rep.labeling.unlabeled_kind, rep.components,
            list(compress(ids, rep.residual_edges)), list(compress(ids, rep.residual_matching)),
            rep.f_prime,
        )).encode())
    return digest.hexdigest()


def test_certificate_pinned_on_randoms():
    digest = certificate_digest(random_phase_results(77, 300))
    assert digest == "1e75dfbe6d37b961c10b2721ced09aa8701a4e192f3042c8a70aee8b7898b7a9"


def test_certificate_pinned_on_deep_nesting():
    # every phase of gen 1000 4000 3 1: the last two hold one maximal
    # complete blossom each, nested 502 and 678 deep
    digest = certificate_digest(deep_nesting_phases())
    assert digest == "6245b179b2b950b0ad51a86b1b6acf80b662b6e9d652426a7f47e62b8a2877d0"


@pytest.mark.parametrize(
    "phases", [lambda: random_phase_results(77, 300), deep_nesting_phases],
    ids=["randoms", "deep-nesting"],
)
def test_report_residual_matches_its_definition(phases):
    # residual edges: every edge off the trails plus every edge inside a
    # complete blossom (the records nested in a complete one are complete);
    # residual matching: the post-rematch matching (the matching before
    # with every trail edge flipped) on those edges; f': the final
    # deficiency plus the residual matched degree, a loop counting twice
    for result in phases():
        g = result.g
        on_trail = {e for t in expand_all(result) for e in t.edges}
        inside = {
            result.forest.edge[a]
            for rec in all_records(result) if rec.complete
            for seg in rec.segments for a in seg.arcs
        }
        residual = {e for e in range(g.m) if e not in on_trail} | inside
        matching = (matched_set(result) ^ on_trail) & residual
        f_prime = list(result.def_final)
        for e in matching:
            for x in g.edges[e]:
                f_prime[x] += 1
        rep = verify(result)
        assert set(compress(range(g.m), rep.residual_edges)) == residual
        assert set(compress(range(g.m), rep.residual_matching)) == matching
        assert rep.f_prime == f_prime


def test_verify_oracle_equivalence_randoms():
    rng = random.Random(4242)
    for _ in range(200):
        g, f = random_instance(rng, 7, 12, 3)
        m = random_valid_matching(rng, g, f)
        result = find_trails(g, f, m, check=True)
        report = verify(result)
        assert report.ok, report.failures
        sub, _ = subgraph(g, compress(range(g.m), report.residual_edges))
        best, _ = brute_max(sub, report.f_prime, WIDE)
        assert report.bound == best == report.residual_matching.count(1)


def test_weak_duality_randoms():
    rng = random.Random(515)
    for _ in range(120):
        g, f = random_instance(rng, 6, 10, 2)
        best, _ = brute_max(g, f)
        for _ in range(5):
            inner, outer = set(), set()
            for v in range(g.n):
                roll = rng.random()
                if roll < 0.3:
                    inner.add(v)
                elif roll < 0.6:
                    outer.add(v)
            assert bound_value(g, f, inner, outer) >= best


def test_certificate_round_trip():
    g = Multigraph(3, [(0, 1), (1, 2)])
    report = verify(find_trails(g, [1, 1, 1], {1}))
    text = format_certificate(report)
    inner, outer, bound = parse_certificate(text)
    assert inner == report.labeling.inner
    assert outer == report.labeling.outer
    assert bound == report.bound


def test_labeling_views_agree():
    # a complete triangle blossom with an inner pendant (vertices 0-3), a
    # free isolated vertex (4, outer) and a free edge the phase augments
    # (5-6, orphans)
    g = Multigraph(7, [(0, 1), (1, 2), (2, 0), (1, 3), (5, 6)])
    result = find_trails(g, [1, 1, 1, 0, 1, 1, 1], {1}, check=True)
    report = verify(result)
    assert report.ok
    lab = report.labeling
    assert lab.label == [None, None, None, "I", "O", None, None]
    assert lab.unlabeled_kind == [IN_COMPLETE_BLOSSOM] * 3 + [None, None, ORPHAN, ORPHAN]
    assert lab == compute_labels(result)
    assert residual_graph(result) == report
    assert lab.inner == {v for v, l in enumerate(lab.label) if l == "I"}
    assert lab.outer == {v for v, l in enumerate(lab.label) if l == "O"}
    assert all((l is None) != (k is None) for l, k in zip(lab.label, lab.unlabeled_kind))
    text = format_certificate(report)
    # the trail edge 5-6 leaves the residual graph, so 5 and 6 part
    assert text.splitlines() == [
        "I 4", "O 5", "C 1: 1 2 3", "C 2: 6", "C 3: 7", "bound 1", "residual 1"
    ]
    assert parse_certificate(text) == (lab.inner, lab.outer, report.bound)


def test_parse_certificate_rejects_garbage():
    with pytest.raises(ValueError):
        parse_certificate("I 1\nQ nonsense\n")
