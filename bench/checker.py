"""Independent optimality checker for f-matchings; it does not import ftrails.

A result passes when the matching is a valid f-matching (loops count twice)
and the generalized odd-set bound

    f(I) + |gamma(O)| + sum_C floor((f(C) + |E[C, O]|) / 2),

evaluated on the whole graph for the certificate's vertex sets I and O,
equals the matching size.  By weak duality the bound caps every f-matching,
so equality proves the matching maximum.  Where the optimum is known some
other way (brute force, a closed form) it is compared as well.

Run this file to self-test the checker: it must accept a maximum matching
and reject the same matching with one edge removed, and a matching that
exceeds a degree bound.
"""

from __future__ import annotations

import sys
from typing import Iterable, Optional


def degree_problems(n: int, edges, f, matching: Iterable[int]) -> list[str]:
    """Violations of the f-matching conditions; a loop counts twice."""
    problems = []
    deg = [0] * n
    seen = set()
    for e in matching:
        if not 0 <= e < len(edges):
            problems.append(f"unknown edge id {e}")
            continue
        if e in seen:
            problems.append(f"edge {e} taken twice")
        seen.add(e)
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    problems += [f"vertex {v} has degree {deg[v]} > f = {f[v]}" for v in range(n) if deg[v] > f[v]]
    return problems


def odd_set_bound(n: int, edges, f, inner: set[int], outer: set[int]) -> int:
    """The odd-set bound for disjoint vertex sets I and O on the whole graph.

    The components C are those of the graph induced on the vertices in
    neither set; |E[C, O]| counts edges with one end in C and one in O.
    """
    if inner & outer:
        raise ValueError("I and O overlap")
    comp = [-1] * n
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u != v and u not in inner and u not in outer and v not in inner and v not in outer:
            adj[u].append(v)
            adj[v].append(u)
    comp_f: list[int] = []
    for s in range(n):
        if comp[s] >= 0 or s in inner or s in outer:
            continue
        cid = len(comp_f)
        comp[s] = cid
        total = 0
        stack = [s]
        while stack:
            u = stack.pop()
            total += f[u]
            for w in adj[u]:
                if comp[w] < 0:
                    comp[w] = cid
                    stack.append(w)
        comp_f.append(total)
    gamma_o = 0
    cross = [0] * len(comp_f)
    for u, v in edges:
        if u in inner or v in inner:
            continue
        u_out, v_out = u in outer, v in outer
        if u_out and v_out:
            gamma_o += 1
        elif u_out != v_out:
            cross[comp[v if u_out else u]] += 1
    bound = sum(f[v] for v in inner) + gamma_o
    return bound + sum((fc + c) // 2 for fc, c in zip(comp_f, cross))


def brute_max(n: int, edges, f) -> int:
    """Maximum f-matching size by include/exclude search over edge subsets."""
    cap = list(f)
    m = len(edges)
    best = 0

    def walk(e: int, size: int) -> None:
        nonlocal best
        if size + (m - e) <= best:
            return
        if e == m:
            best = size
            return
        u, v = edges[e]
        if (cap[u] >= 2) if u == v else (cap[u] >= 1 and cap[v] >= 1):
            cap[u] -= 1
            cap[v] -= 1
            walk(e + 1, size + 1)
            cap[u] += 1
            cap[v] += 1
        walk(e + 1, size)

    walk(0, 0)
    return best


def check_maximum(
    n: int,
    edges,
    f,
    matching,
    inner: set[int],
    outer: set[int],
    optimum: Optional[int] = None,
) -> list[str]:
    """Everything wrong with the claim that matching is a maximum f-matching."""
    problems = degree_problems(n, edges, f, matching)
    size = len(matching)
    bound = odd_set_bound(n, edges, f, inner, outer)
    if bound != size:
        problems.append(f"odd-set bound {bound} != matching size {size}")
    if optimum is not None and optimum != size:
        problems.append(f"known optimum {optimum} != matching size {size}")
    return problems


def check_phase(n, edges, f, before: set[int], trails, after: set[int], def_final) -> list[str]:
    """Everything wrong with one blocking phase's trails and rematch.

    trails are sequences of (edge, from-vertex, to-vertex) steps.  Each must
    be an alternating trail with unmatched end edges between deficient ends;
    the trails must be edge-disjoint; the rematched matching must be valid,
    one edge larger per trail, and leave exactly the deficiencies def_final.
    """
    problems = []
    deg = [0] * n
    for e in before:
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    ends = [0] * n
    used: set[int] = set()
    for k, steps in enumerate(trails):
        if not steps:
            problems.append(f"trail {k} is empty")
            continue
        if steps[0][0] in before or steps[-1][0] in before:
            problems.append(f"trail {k} has a matched end edge")
        prev = None
        at = steps[0][1]
        for e, x, y in steps:
            u, v = edges[e]
            if x != at or {u, v} != {x, y}:
                problems.append(f"trail {k} breaks at edge {e}")
            if e in used:
                problems.append(f"edge {e} is used twice")
            used.add(e)
            matched = e in before
            if prev is not None and matched == prev:
                problems.append(f"trail {k} does not alternate at edge {e}")
            prev = matched
            at = y
        ends[steps[0][1]] += 1
        ends[at] += 1
    for v in range(n):
        if ends[v] > f[v] - deg[v]:
            problems.append(f"vertex {v} ends {ends[v]} trails with deficiency {f[v] - deg[v]}")
    if len(after) != len(before) + len(trails):
        problems.append(f"rematched size {len(after)} != {len(before)} + {len(trails)} trails")
    problems += degree_problems(n, edges, f, after)
    deg = [0] * n
    for e in after:
        u, v = edges[e]
        deg[u] += 1
        deg[v] += 1
    wrong = [v for v in range(n) if f[v] - deg[v] != def_final[v]]
    if wrong:
        problems.append(f"deficiency differs from def_final at {len(wrong)} vertices, first {wrong[0]}")
    return problems


def self_test() -> list[str]:
    """Cases the checker must accept or reject; returns what went wrong."""
    out = []
    # Triangle chain of depth 3 with f = 1: no vertex is in I or O, the one
    # component has f(C) = 7, so the bound is 3, met by the three spokes.
    n, f = 7, [1] * 7
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2), (4, 5), (5, 6), (6, 4)]
    best = [0, 3, 6]
    if check_maximum(n, edges, f, best, set(), set(), 3):
        out.append("rejected a maximum matching")
    if brute_max(n, edges, f) != 3:
        out.append("brute force misses the chain's optimum")
    if not check_maximum(n, edges, f, best[:-1], set(), set()):
        out.append("accepted a maximum matching with one edge removed")
    if not check_maximum(n, edges, f, best + [1], set(), set()):
        out.append("accepted a matching that exceeds a degree bound")
    # A loop takes two units of its vertex's bound.
    if not degree_problems(1, [(0, 0)], [1], [0]) or degree_problems(1, [(0, 0)], [2], [0]):
        out.append("counts a loop other than twice")
    # A star with centre in I: the bound is f(centre) = 2.
    star = [(0, 1), (0, 2), (0, 3)]
    if odd_set_bound(4, star, [2, 1, 1, 1], {0}, {1, 2, 3}) != 2 or brute_max(4, star, [2, 1, 1, 1]) != 2:
        out.append("wrong bound or optimum on a star")
    return out


if __name__ == "__main__":
    failures = self_test()
    for line in failures:
        print("FAIL", line)
    print("checker self-test:", "FAIL" if failures else "ok")
    sys.exit(1 if failures else 0)
