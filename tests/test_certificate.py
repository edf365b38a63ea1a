import random

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
from ftrails.multigraph import Multigraph
from helpers import random_instance, random_valid_matching, subgraph
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


def test_residual_graph_no_trails_is_whole_graph():
    g = Multigraph(3, [(0, 1), (1, 2)])
    m = {0}
    result = find_trails(g, [1, 1, 1], m)
    rg = residual_graph(result)
    assert set(rg.edges) == {0, 1}
    assert set(rg.matching) == m
    assert rg.f_prime == [1, 1, 1]


def test_residual_graph_single_edge_emptied():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [1, 1], set())
    rg = residual_graph(result)
    assert set(rg.edges) == set()
    assert rg.f_prime == [0, 0]


def test_residual_keeps_complete_blossom_edges():
    # triangle blossom at maximum: all three edges stay residual
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    rg = residual_graph(result)
    assert set(rg.edges) == {0, 1, 2}


def test_labels_unsuccessful_free_root_is_outer():
    g = Multigraph(1, [])
    result = find_trails(g, [1], set())
    labels = compute_labels(result)
    assert labels.label[0] == "O"


def test_labels_free_vertex_with_deficiency_two_is_outer():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [3, 1], set())
    labels = compute_labels(result)
    assert result.def_final[0] == 2
    assert labels.label[0] == "O"


def test_labels_unreached_vertex_is_orphan():
    g = Multigraph(2, [(0, 1)])
    result = find_trails(g, [1, 1], set())
    labels = compute_labels(result)
    assert labels.label == [None, None]
    assert labels.unlabeled_kind == [ORPHAN, ORPHAN]


def test_labels_complete_blossom_members_unlabeled():
    g = Multigraph(3, [(0, 1), (1, 2), (2, 0)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    labels = compute_labels(result)
    assert labels.unlabeled_kind == [IN_COMPLETE_BLOSSOM] * 3


def test_verify_single_edge_augmented():
    g = Multigraph(2, [(0, 1)])
    report = verify(find_trails(g, [1, 1], set()))
    assert report.ok and report.bound == 0 == report.residual_size


def test_verify_path_labels():
    # path 0-1-2 with the middle matched towards 2: labels O, I, O
    g = Multigraph(3, [(0, 1), (1, 2)])
    result = find_trails(g, [1, 1, 1], {1}, check=True)
    labels = compute_labels(result)
    assert labels.label == ["O", "I", "O"]
    report = verify(result)
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


def test_verify_oracle_equivalence_randoms():
    rng = random.Random(4242)
    for _ in range(200):
        g, f = random_instance(rng, 7, 12, 3)
        m = random_valid_matching(rng, g, f)
        result = find_trails(g, f, m, check=True)
        report = verify(result)
        assert report.ok, report.failures
        rg = residual_graph(result)
        sub, remap = subgraph(g, rg.edges)
        best, _ = brute_max(sub, rg.f_prime, WIDE)
        assert report.bound == best == len(rg.matching)


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
    text = format_certificate(report.certificate)
    inner, outer, bound = parse_certificate(text)
    assert inner == report.certificate.labeling.inner
    assert outer == report.certificate.labeling.outer
    assert bound == report.bound


def test_parse_certificate_rejects_garbage():
    with pytest.raises(ValueError):
        parse_certificate("I 1\nQ nonsense\n")
