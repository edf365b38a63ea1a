"""Shared test machinery: random instances and blossom/trail validation."""

from __future__ import annotations

import contextlib
import io
import random
from itertools import compress

from ftrails.cli import main, parse_instance
from ftrails.engine import BlockingResult, StructuralError, find_trails, preorder
from ftrails.expand import _Router, check_gtrail, expand_all, pi_trail, rematch
from ftrails.multigraph import Multigraph, validate_matching

from oracle import brute_alternating_trail


def random_instance(rng: random.Random, n_max: int, m_max: int, f_max: int):
    n = rng.randint(1, n_max)
    m = rng.randint(0, m_max)
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    g = Multigraph(n, edges)
    f = [rng.randint(1, f_max) for _ in range(n)]
    return g, f


def triangle_chain(k: int) -> Multigraph:
    """k triangles, consecutive ones sharing a vertex; n = 2k + 1."""
    edges = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (b, c), (c, a)]
    return Multigraph(2 * k + 1, edges)


def random_valid_matching(rng: random.Random, g: Multigraph, f: list[int]) -> set[int]:
    matching: set[int] = set()
    for e in rng.sample(range(g.m), g.m):
        matching.add(e)
        if validate_matching(g, f, matching):
            matching.discard(e)
    return matching


def subgraph(g: Multigraph, edge_ids) -> tuple[Multigraph, dict[int, int]]:
    ids = sorted(edge_ids)
    remap = {e: i for i, e in enumerate(ids)}
    return Multigraph(g.n, [g.edges[e] for e in ids]), remap


def run_phases(g, f, matching, check=True):
    """Iterate find_trails/rematch to the fixed point; returns (M, results)."""
    results = []
    current = set(matching)
    while True:
        result = find_trails(g, f, current, check=check)
        results.append(result)
        if not result.trails:
            return current, results
        trails = expand_all(result)
        for t in trails:
            problems = check_gtrail(g, current, t)
            assert not problems, problems
        current = rematch(g, f, current, trails)


def deep_nesting_phases():
    """The blocking results of every phase of gen 1000 4000 3 1; the last
    trail found crosses blossoms nested about 500 deep."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["gen", "1000", "4000", "3", "1"]) == 0
    inst = parse_instance(buf.getvalue())
    matching = set()
    while True:
        result = find_trails(inst.g, inst.f, matching)
        yield result
        if not result.trails:
            return
        matching = rematch(inst.g, inst.f, matching, expand_all(result))


def matched_set(result: BlockingResult) -> set[int]:
    """The edge ids of the matching a run started from."""
    return set(compress(range(result.g.m), result.matched))


def all_records(result: BlockingResult):
    stack = list(result.blossoms.root_record.values())
    while stack:
        rec = stack.pop()
        yield rec
        for seg in rec.segments:
            for child in seg.children:
                if child is not None:
                    stack.append(child)


def _check_pi_steps(result, rec, node, steps, start_matched, edge_set):
    """Violations of one pi_trail output against its contract."""
    g = result.g
    forest = result.forest
    matched = result.matched
    beta_vertex = forest.vertex[rec.base_node]
    eta_matched = bool(forest.matched[rec.base_node])
    problems = []
    if not steps:
        if forest.vertex[node] != beta_vertex or start_matched != eta_matched:
            problems.append("empty trail in the wrong situation")
        return problems
    at = forest.vertex[node]
    prev = None
    for e, u, v in steps:
        if u != at:
            problems.append("trail disconnected")
        uu, vv = g.edges[e]
        if {uu, vv} != {u, v}:
            problems.append("step does not match its edge")
        if e not in edge_set:
            problems.append(f"edge {e} escapes the blossom subgraph")
        em = bool(matched[e])
        if prev is None:
            if em != start_matched:
                problems.append("wrong first M-type")
        elif em == prev:
            problems.append("no alternation")
        prev = em
        at = v
    if at != beta_vertex:
        problems.append("trail does not end at the base vertex")
    if len(set(e for e, _u, _v in steps)) != len(steps):
        problems.append("edge repeats")
    if prev == eta_matched:
        problems.append("base edge cannot extend the trail")
    return problems


def validate_blossoms(result: BlockingResult, complete_only: bool = True) -> list[str]:
    """Cross-check pi_trail against the brute-force alternating-trail oracle.

    For every (complete) blossom and every occurrence and M-type where
    pi_trail succeeds, the trail must satisfy its contract and the oracle
    must confirm such a trail exists; the base must support both M-types
    and every occurrence at least one.
    """
    g = result.g
    forest = result.forest
    router = _Router(result)
    matching = matched_set(result)
    failures: list[str] = []
    for rec in all_records(result):
        if complete_only and not rec.complete:
            continue
        nodes = preorder([rec])[0]
        edge_set = {forest.edge[a] for a in nodes[1:]}
        beta_vertex = forest.vertex[rec.base_node]
        eta_matched = bool(forest.matched[rec.base_node])
        for node in set(nodes):
            ok_parities = 0
            for start_matched in (False, True):
                try:
                    steps = pi_trail(result, node, rec, start_matched, router)
                except StructuralError:
                    continue
                ok_parities += 1
                problems = _check_pi_steps(result, rec, node, steps, start_matched, edge_set)
                if problems:
                    failures.append(
                        f"pi_trail(node {node}, {start_matched}): {problems[0]}"
                    )
                    continue
                witness = brute_alternating_trail(
                    g,
                    edge_set,
                    forest.vertex[node],
                    beta_vertex,
                    start_matched,
                    matching,
                    end_matched=(not eta_matched) if steps else None,
                    allow_empty=not steps,
                )
                if witness is None:
                    failures.append(
                        f"oracle finds no trail matching pi_trail(node {node}, {start_matched})"
                    )
            if ok_parities == 0:
                failures.append(f"node {node} supports no pi_trail parity")
            if node == rec.base_node and ok_parities != 2:
                failures.append("base does not support both parities")
    return failures


def enumerate_augmenting_trails(g, f, matching, max_len=12, contracted=None, eta_edge=None):
    """All augmenting trails: alternating, unmatched extremes, deficient ends.

    With contracted=c, vertex c models a contracted blossom: consecutive
    edges at c need not alternate (the blossom interior supplies the
    connection), but a trail may pass through c at most once and the
    passage must use the base edge eta_edge.  Trails never start or end at
    c (interior endpoints are the blossom owner's business).  Yields
    (edge tuple, start vertex, end vertex), one orientation per trail.
    """
    deg = [0] * g.n
    for e in matching:
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    deficiency = [f[v] - deg[v] for v in range(g.n)]

    seen = set()
    out = []
    used = [False] * g.m
    path: list[int] = []

    def ends_ok(alpha, v):
        if contracted is not None and (alpha == contracted or v == contracted):
            return False
        if alpha == v:
            return deficiency[v] >= 2
        return deficiency[alpha] >= 1 and deficiency[v] >= 1

    def emit(alpha, v):
        key = min(tuple(path), tuple(reversed(path)))
        if key not in seen:
            seen.add(key)
            out.append((tuple(path), alpha, v))

    def extend(alpha, v, last_matched):
        if len(path) >= max_len:
            return
        at_c = contracted is not None and v == contracted
        for e in g.inc_flat[g.inc_off[v] : g.inc_off[v + 1]]:
            if used[e]:
                continue
            em = e in matching
            if at_c:
                # leaving the contracted blossom: one passage, through eta
                if path[-1] != eta_edge and e != eta_edge:
                    continue
            elif em == last_matched:
                continue
            w = v ^ g.exor[e]
            if contracted is not None and w == contracted:
                if v == contracted or any(contracted in g.edges[p] for p in path):
                    continue  # a second visit of the blossom
            used[e] = True
            path.append(e)
            if not em and ends_ok(alpha, w):
                emit(alpha, w)
            extend(alpha, w, em)
            path.pop()
            used[e] = False

    for alpha in range(g.n):
        if deficiency[alpha] <= 0 or (contracted is not None and alpha == contracted):
            continue
        for e in g.inc_flat[g.inc_off[alpha] : g.inc_off[alpha + 1]]:
            if e in matching:
                continue
            used[e] = True
            path.append(e)
            w = alpha ^ g.exor[e]
            if ends_ok(alpha, w):
                emit(alpha, w)
            extend(alpha, w, e in matching)
            path.pop()
            used[e] = False
    return out


def blossom_gadget_config(kind, with_eta, sides):
    """Build a 5-vertex single-blossom instance plus its contracted view.

    The blossom is a triangle {0,1,2} based at 0; sides is an iterable of
    (blossom vertex, outside vertex, matched) incident edges.  Returns
    (g, f, matching, spec, contracted) where contracted holds the
    vertex-contracted graph (blossom -> vertex 0) with matching, bounds
    and the contracted ids of eta and of each side edge.
    """
    from ftrails.substitute import BlossomSpec, LIGHT

    light = kind == LIGHT
    edges = [(0, 1), (1, 2), (2, 0)]
    matching = {1} if light else {0, 2}
    eta_id = None
    if with_eta:
        eta_id = len(edges)
        edges.append((3, 0))
        if light:
            matching.add(eta_id)
    side_ids = []
    for bv, ov, em in sides:
        side_ids.append(len(edges))
        edges.append((bv, ov))
        if em:
            matching.add(len(edges) - 1)
    outside_id = len(edges)
    edges.append((3, 4))

    g = Multigraph(5, edges)
    f = [0] * 5
    for e in matching:
        u, v = g.edges[e]
        f[u] += 1
        f[v] += 1
    if not with_eta:
        f[0] += 1  # free base
    f[3] += 1
    f[4] += 1
    assert validate_matching(g, f, matching) == []
    spec = BlossomSpec(vertices={0, 1, 2}, base=0, kind=kind, base_edge=eta_id)

    # vertex-contracted view: blossom vertices collapse into vertex 0,
    # interior edges vanish
    c_edges = []
    c_matching = set()
    c_ids = {}
    for e, (u, v) in enumerate(g.edges):
        if u in (0, 1, 2) and v in (0, 1, 2):
            continue
        cu = 0 if u in (0, 1, 2) else u
        cv = 0 if v in (0, 1, 2) else v
        c_ids[e] = len(c_edges)
        c_edges.append((cu, cv))
        if e in matching:
            c_matching.add(c_ids[e])
    gc = Multigraph(5, c_edges)
    fc = [0] * 5
    fc[3], fc[4] = f[3], f[4]
    contracted = {
        "g": gc,
        "f": fc,
        "matching": c_matching,
        "eta": c_ids.get(eta_id),
        "back": {ne: e for e, ne in c_ids.items()},
    }
    return g, f, matching, spec, contracted


def crossing_pattern_sets(g, f, matching, spec, contracted):
    """Pass-through crossing patterns on both sides of the substitution.

    Returns (lhs, rhs): the sets of incident side edges (original ids)
    through which some augmenting trail crosses the blossom, computed in
    the contracted view and in the substituted graph via pull_back.
    """
    from ftrails.expand import GTrail
    from ftrails.substitute import build_substitute, pull_back_trail

    gc = contracted["g"]
    lhs = set()
    for edges_seq, _a, _b in enumerate_augmenting_trails(
        gc, contracted["f"], contracted["matching"], contracted=0, eta_edge=contracted["eta"]
    ):
        touching = [e for e in edges_seq if 0 in gc.edges[e]]
        if not touching:
            continue
        assert len(touching) == 2 and contracted["eta"] in touching
        side = next(e for e in touching if e != contracted["eta"])
        lhs.add(contracted["back"][side])

    g2, f2, m2, smap = build_substitute(g, f, matching, [spec])
    rhs = set()
    for edges_seq, a, b in enumerate_augmenting_trails(g2, f2, m2):
        pulled = pull_back_trail(GTrail(a, b, tuple(edges_seq), g2), smap)
        for crossing in pulled.crossings:
            if crossing.entry_edge is not None and crossing.exit_edge is not None:
                rhs.add(crossing.exit_edge)
    return lhs, rhs
