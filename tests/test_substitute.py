import hashlib
import re

import pytest

from ftrails.expand import GTrail
from ftrails.multigraph import Multigraph, validate_matching
from ftrails.substitute import (
    HEAVY,
    LIGHT,
    BlossomSpec,
    build_substitute,
    pull_back_trail,
)
from helpers import blossom_gadget_config, crossing_pattern_sets


def light_instance():
    # light triangle {0,1,2} base 0, eta 3-0 matched, Bm 1-4, Bu 2-4
    g = Multigraph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (1, 4), (2, 4)])
    f = [1, 2, 1, 1, 1]
    m = {1, 3, 4}
    spec = BlossomSpec(vertices={0, 1, 2}, base=0, kind=LIGHT, base_edge=3)
    return g, f, m, spec


def test_light_substitute_wiring():
    g, f, m, spec = light_instance()
    g2, f2, m2, smap = build_substitute(g, f, m, [spec])
    b = smap.shadow[0]
    assert g2.edges[smap.edge_map[3]] == (3, 0)  # eta kept at the base
    assert g2.edges[smap.edge_map[4]] == (b, 4)  # Bm lands on the shadow
    assert g2.edges[smap.edge_map[5]] == (0, 4)  # Bu stays at the base
    assert g2.edges[smap.new_edges[0]] == (0, b)
    assert smap.new_edges[0] not in m2  # light: beta-b unmatched
    assert {smap.edge_map[3], smap.edge_map[4]} == m2
    assert f2[0] == 1 and f2[b] == 1
    assert f2[1] == f2[2] == 0  # discarded body
    assert validate_matching(g2, f2, m2) == []


def test_heavy_substitute_wiring():
    g = Multigraph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (2, 4)])
    f = [2, 1, 2, 1, 1]
    m = {0, 2}
    spec = BlossomSpec(vertices={0, 1, 2}, base=0, kind=HEAVY, base_edge=3)
    g2, f2, m2, smap = build_substitute(g, f, m, [spec])
    b = smap.shadow[0]
    assert g2.edges[smap.new_edges[0]] == (0, b)
    assert smap.new_edges[0] in m2  # heavy: beta-b matched
    assert g2.edges[smap.edge_map[4]] == (b, 4)  # Bu moves to the shadow
    assert smap.edge_map[3] not in m2  # heavy eta unmatched
    assert validate_matching(g2, f2, m2) == []


def test_empty_blossom_list_is_identity():
    g, f, m, _spec = light_instance()
    g2, f2, m2, smap = build_substitute(g, f, m, [])
    assert g2.edges == g.edges and f2 == f and m2 == m
    assert smap.edge_map == {e: e for e in range(g.m)}


def test_two_matched_incidents_rejected_light():
    g = Multigraph(6, [(0, 1), (1, 2), (2, 0), (3, 0), (1, 4), (2, 5)])
    f = [1, 2, 2, 1, 1, 1]
    m = {1, 3, 4, 5}
    spec = BlossomSpec(vertices={0, 1, 2}, base=0, kind=LIGHT, base_edge=3)
    with pytest.raises(ValueError):
        build_substitute(g, f, m, [spec])


def test_matched_incident_rejected_heavy():
    g = Multigraph(5, [(0, 1), (1, 2), (2, 0), (3, 0), (1, 4)])
    f = [2, 2, 1, 1, 1]
    m = {0, 2, 4}
    spec = BlossomSpec(vertices={0, 1, 2}, base=0, kind=HEAVY, base_edge=3)
    with pytest.raises(ValueError):
        build_substitute(g, f, m, [spec])


def test_overlapping_blossoms_rejected():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    specs = [
        BlossomSpec(vertices={0, 1}, base=0, kind=LIGHT),
        BlossomSpec(vertices={1, 2}, base=2, kind=LIGHT),
    ]
    with pytest.raises(ValueError):
        build_substitute(g, [1] * 4, set(), specs)


@pytest.mark.parametrize(
    "f, matching, vertices, base_edge, message",
    [
        (None, {1, 3, 4, 99}, None, 3, "matching contains unknown edge id 99"),
        (None, {1, 3, 4, -1}, None, 3, "matching contains unknown edge id -1"),
        ([1, 2, 1, 1], None, None, 3, "degree bound vector has length 4, expected 5"),
        (None, None, {0, 1, 2, 5}, 3, "blossom 0 contains unknown vertex 5"),
        (None, None, {0, 1, 2, -1}, 3, "blossom 0 contains unknown vertex -1"),
        (None, None, None, 6, "blossom 0 has unknown base edge id 6"),
        (None, None, None, -1, "blossom 0 has unknown base edge id -1"),
    ],
    ids=["matching-id-beyond-m", "negative-matching-id", "short-bound-vector",
         "vertex-beyond-n", "negative-vertex", "base-edge-beyond-m", "negative-base-edge"],
)
def test_build_rejects_input_outside_the_graph(f, matching, vertices, base_edge, message):
    g, f0, m0, spec = light_instance()
    spec = BlossomSpec(vertices=vertices or spec.vertices, base=0, kind=LIGHT, base_edge=base_edge)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_substitute(g, f or f0, m0 if matching is None else matching, [spec])


@pytest.mark.parametrize(
    "kind, base, message",
    [
        ("medium", 0, "unknown blossom kind 'medium'"),
        (LIGHT, 3, "blossom 0 base 3 outside its vertex set"),
    ],
    ids=["unknown-kind", "base-outside"],
)
def test_build_rejects_a_malformed_blossom(kind, base, message):
    g, f, m, spec = light_instance()
    spec = BlossomSpec(vertices=spec.vertices, base=base, kind=kind, base_edge=3)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_substitute(g, f, m, [spec])


def test_pull_back_identity_away_from_gadget():
    g, f, m, spec = light_instance()
    g2, _f2, _m2, smap = build_substitute(g, f, m, [spec])
    # 3-4 exists in neither instance; use an outside-only trail on a
    # variant graph instead: edge 3-4 appended
    g = Multigraph(5, g.edges + [(3, 4)])
    g2, _f2, _m2, smap = build_substitute(g, f, m, [spec])
    ne = smap.edge_map[6]
    pulled = pull_back_trail(GTrail(3, 4, (ne,), g2), smap)
    assert pulled.edges == [6] and pulled.crossings == []


def test_pull_back_reports_crossing():
    g, f, m, spec = light_instance()
    g2, _f2, _m2, smap = build_substitute(g, f, m, [spec])
    em = smap.edge_map
    trail = GTrail(3, 4, (em[3], smap.new_edges[0], em[4]), g2)
    pulled = pull_back_trail(trail, smap)
    assert pulled.edges == [None]
    (crossing,) = pulled.crossings
    assert crossing.entry_edge == 3 and crossing.exit_edge == 4


def test_pull_back_rejects_double_visit():
    g, f, m, spec = light_instance()
    g2, _f2, _m2, smap = build_substitute(g, f, m, [spec])
    em = smap.edge_map
    edges = (em[5], smap.new_edges[0], em[4], em[5])
    with pytest.raises(ValueError):
        pull_back_trail(GTrail(4, 0, edges, g2), smap)


@pytest.mark.parametrize("kind", [LIGHT, HEAVY])
@pytest.mark.parametrize("with_eta", [True, False])
def test_crossing_patterns_smoke(kind, with_eta):
    sides = [(1, 4, kind == LIGHT), (2, 4, False)]
    try:
        g, f, m, spec, contracted = blossom_gadget_config(kind, with_eta, sides)
    except AssertionError:
        pytest.skip("config invalid")
    lhs, rhs = crossing_pattern_sets(g, f, m, spec, contracted)
    assert lhs == rhs


# the incident side edges criterion 8 draws its gadget configurations from
SIDE_POOL = [(1, 4, True), (2, 4, True), (1, 4, False), (2, 4, False), (0, 4, False), (1, 3, False)]


def walks(g, start, limit):
    """(end, edges) of every walk of 1..limit distinct edges from start,
    in edge-id order."""
    path = []

    def go(v):
        if path:
            yield v, tuple(path)
        if len(path) == limit:
            return
        for e, (a, b) in enumerate(g.edges):
            if e not in path and v in (a, b):
                path.append(e)
                yield from go(a ^ b ^ v)
                path.pop()

    yield from go(start)


def test_substitute_outcomes_pinned():
    # sha256 of build_substitute's output or error text on every gadget
    # configuration criterion 8 builds, and of pull_back_trail's edges and
    # crossings or error text on every walk of up to 6 distinct edges from
    # every vertex of each substituted graph, valid trail or not (31,516
    # walks), recorded before pull_back_trail became one flat loop
    digest = hashlib.sha256()
    n_walks = 0
    for kind in (LIGHT, HEAVY):
        for with_eta in (True, False):
            for bits in range(1 << len(SIDE_POOL)):
                sides = [s for i, s in enumerate(SIDE_POOL) if bits >> i & 1]
                try:
                    g, f, m, spec, _contracted = blossom_gadget_config(kind, with_eta, sides)
                except AssertionError:
                    digest.update(b"config rejected\n")
                    continue
                try:
                    g2, f2, m2, smap = build_substitute(g, f, m, [spec])
                except ValueError as ex:
                    digest.update(f"build: {ex}\n".encode())
                    continue
                built = (g2.n, g2.edges, f2, sorted(m2), smap.shadow,
                         sorted(smap.edge_map.items()), smap.new_edges)
                digest.update(f"{built}\n".encode())
                for v in range(g2.n):
                    for end, edges in walks(g2, v, 6):
                        n_walks += 1
                        try:
                            pulled = pull_back_trail(GTrail(v, end, edges, g2), smap)
                            out = (pulled.edges, [(c.blossom, c.entry_edge, c.exit_edge)
                                                  for c in pulled.crossings])
                        except ValueError as ex:
                            out = str(ex)
                        digest.update(f"{out}\n".encode())
    assert n_walks == 31516
    assert digest.hexdigest() == "b406be469b582c0bcb295d1b7e2316513697ef53b1f632fe5dfdb08cd632dc35"
