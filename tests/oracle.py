"""
Brute-force ground truth for testing.

Everything here enumerates exhaustively and is meant for small instances
only; the limits below are enforced before any enumeration starts.
"""

from __future__ import annotations

from dataclasses import dataclass

from ftrails.multigraph import Multigraph, validate_matching


@dataclass(frozen=True)
class OracleLimit:
    max_edges: int = 16
    max_trail_len: int = 12


DEFAULT_LIMIT = OracleLimit()


def brute_max(
    g: Multigraph, f: list[int], limit: OracleLimit = DEFAULT_LIMIT
) -> tuple[int, set[int]]:
    """Exact maximum f-matching size by search over edge subsets.

    Returns (size, witness matching).  Refuses graphs with more than
    limit.max_edges edges.
    """
    m = g.m
    if m > limit.max_edges:
        raise ValueError(f"instance has {m} edges, oracle limit is {limit.max_edges}")
    if validate_matching(g, f, set()) != []:
        raise ValueError("degree bounds invalid")

    # Depth-first include/exclude over edges.  A branch is cut unless it
    # can beat the best so far: every further edge uses one of the edges
    # still available and two units of residual degree.
    edges = g.edges
    residual = list(f)
    spare = sum(f)
    chosen: list[int] = []
    best: list[int] = []

    def walk(e: int) -> None:
        nonlocal best, spare
        if len(chosen) + min(m - e, spare // 2) <= len(best):
            return
        if e == m:
            best = list(chosen)
            return
        u, v = edges[e]
        if u == v:
            ok = residual[u] >= 2
        else:
            ok = residual[u] >= 1 and residual[v] >= 1
        if ok:
            residual[u] -= 1
            residual[v] -= 1
            spare -= 2
            chosen.append(e)
            walk(e + 1)
            chosen.pop()
            residual[u] += 1
            residual[v] += 1
            spare += 2
        walk(e + 1)

    walk(0)
    return len(best), set(best)


def has_augmenting_trail(
    g: Multigraph,
    f: list[int],
    matching: set[int],
    limit: OracleLimit = DEFAULT_LIMIT,
) -> bool:
    """Whether an augmenting trail exists for the given matching.

    An augmenting trail is an alternating trail whose first and last edges
    are unmatched, joining vertices of positive deficiency (a closed trail
    needs deficiency at least 2 at its single endpoint).  The search tries
    trails up to limit.max_trail_len edges; callers that need completeness
    must set the cap to at least the edge count.
    """
    m = g.m
    if m > limit.max_edges:
        raise ValueError(f"instance has {m} edges, oracle limit is {limit.max_edges}")
    if validate_matching(g, f, matching) != []:
        raise ValueError("matching invalid for the given bounds")

    deg = [0] * g.n
    for e in matching:
        u, v = g.edges[e]
        deg[u] += 1
        deg[v] += 1
    deficient = [v for v in range(g.n) if f[v] - deg[v] > 0]
    if not deficient:
        return False
    def_of = [f[v] - deg[v] for v in range(g.n)]
    cap = min(m, limit.max_trail_len)

    used = [False] * m

    def extend(alpha: int, v: int, last_matched: bool, length: int) -> bool:
        # A trail currently ending at v with an unmatched last edge is
        # augmenting as soon as v can absorb one more matched edge.
        if not last_matched and def_of[v] > 0 and (v != alpha or def_of[alpha] >= 2):
            return True
        if length == cap:
            return False
        for e in g.inc_flat[g.inc_off[v] : g.inc_off[v + 1]]:
            if used[e] or (e in matching) == last_matched:
                continue
            used[e] = True
            if extend(alpha, v ^ g.exor[e], e in matching, length + 1):
                used[e] = False
                return True
            used[e] = False
        return False

    for alpha in deficient:
        for e in g.inc_flat[g.inc_off[alpha] : g.inc_off[alpha + 1]]:
            if e in matching:
                continue
            used[e] = True
            ok = extend(alpha, alpha ^ g.exor[e], False, 1)
            used[e] = False
            if ok:
                return True
    return False


def brute_alternating_trail(
    g: Multigraph,
    edge_subset: set[int] | frozenset[int],
    src: int,
    dst: int,
    start_matched: bool,
    matching: set[int],
    end_matched: bool | None = None,
    allow_empty: bool = True,
) -> list[int] | None:
    """Exhaustive search for an alternating trail inside an edge subset.

    The trail runs from src to dst, its first edge has the requested
    M-type, and if end_matched is given the last edge must match it too.
    Returns the trail as a list of edge ids, or None.
    """
    edges = sorted(edge_subset)
    if allow_empty and src == dst and end_matched is None:
        return []
    used: set[int] = set()
    path: list[int] = []

    def extend(v: int, last_matched: bool | None) -> bool:
        if path and v == dst and (end_matched is None or last_matched == end_matched):
            return True
        for e in edges:
            if e in used:
                continue
            a, b = g.edges[e]
            if v not in (a, b):
                continue
            em = e in matching
            if path:
                if em == last_matched:
                    continue
            elif em != start_matched:
                continue
            used.add(e)
            path.append(e)
            if extend(v ^ g.exor[e], em):
                return True
            path.pop()
            used.remove(e)
        return False

    if extend(src, None):
        return list(path)
    return None
