"""
Core multigraph, degree-bound and matching types.

Vertices are dense integer ids 0..n-1.  Edges are indexed 0..m-1; parallel
copies are distinct edge ids and a loop is an edge whose two endpoints are
equal.  A loop contributes 2 to the degree of its vertex.
"""

from __future__ import annotations

from array import array
from itertools import accumulate, starmap
from operator import xor
from typing import NamedTuple


class Multigraph:
    """An undirected multigraph with loops and parallel edges.

    Immutable after construction; safe to share read-only across threads.
    """

    __slots__ = ("n", "m", "edges", "exor", "inc_flat", "inc_off")

    def __init__(self, n: int, edges: list[tuple[int, int]]) -> None:
        if n < 0:
            raise ValueError("vertex count must be non-negative")

        self.n = n
        self.edges: list[tuple[int, int]] = list(edges)
        self.m = len(self.edges)

        # inc_flat[inc_off[v]:inc_off[v + 1]] lists the edge ids incident to
        # v, in edge-id order; a loop appears once in its vertex's segment.
        # One pass counts each vertex's edges, a second places them: no
        # per-vertex list is ever built.
        count = [0] * n
        for e, (u, v) in enumerate(self.edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {e} endpoint out of range: ({u}, {v})")
            count[u] += 1
            if v != u:
                count[v] += 1
        # exor[e] is u ^ v for edge e = (u, v): the far end from either end
        # is one array read and one xor (a loop's entry is 0)
        self.exor = array("i", starmap(xor, self.edges))
        self.inc_off = array("i", accumulate(count, initial=0))
        slot = self.inc_off.tolist()  # where each vertex's next edge id goes
        flat = array("i", bytes(4 * slot[n]))
        for e, (u, v) in enumerate(self.edges):
            flat[slot[u]] = e
            slot[u] += 1
            if v != u:
                flat[slot[v]] = e
                slot[v] += 1
        self.inc_flat = flat

    def __repr__(self) -> str:
        return f"Multigraph(n={self.n}, m={self.m})"


class MatchState(NamedTuple):
    """A matching as flags[e] (1 when edge e is matched) and deficiency[v]
    (f(v) minus the matched degree of v, a loop counting twice).

    Never mutated once made: find_trails and rematch copy what they change.
    """

    flags: bytes
    deficiency: array


# the largest degree bound a deficiency array (typecode "i") holds
F_MAX = 2**31 - 1


def check_inputs(g: Multigraph, f: list[int], matching) -> None:
    """Validate a per-vertex degree bound vector (each bound in 0..F_MAX)
    and a matching's edge ids against g, raising ValueError."""
    if len(f) != g.n:
        raise ValueError(f"degree bound vector has length {len(f)}, expected {g.n}")
    if f and min(f) < 0:
        v = next(v for v, b in enumerate(f) if b < 0)
        raise ValueError(f"degree bound f({v}) = {f[v]} is negative")
    if f and max(f) > F_MAX:
        v = next(v for v, b in enumerate(f) if b > F_MAX)
        raise ValueError(f"degree bound f({v}) = {f[v]} exceeds {F_MAX}")
    m = g.m
    if matching and (min(matching) < 0 or max(matching) >= m):
        e = next(e for e in matching if not 0 <= e < m)
        raise ValueError(f"matching contains unknown edge id {e}")


def count_matched(g: Multigraph, f: list[int], matching) -> tuple[bytearray, list[int]]:
    """The matched flags and the deficiencies (f minus each vertex's degree
    in the matching, a loop counting twice) of valid edge ids, in one loop
    that counts on a list."""
    flags = bytearray(g.m)
    deficiency = list(f)
    ends = g.edges
    for e in matching:
        flags[e] = 1
        u, v = ends[e]
        deficiency[u] -= 1
        deficiency[v] -= 1
    return flags, deficiency


def match_state(g: Multigraph, f: list[int], matching: set[int]) -> MatchState:
    """The state of a set of edge ids: one loop over the set makes the
    flags and the deficiencies, which become one array at the end.

    Makes validate_matching's checks, in its order and with its messages,
    and raises ValueError where it would report a fault.
    """
    check_inputs(g, f, matching)
    flags, deficiency = count_matched(g, f, matching)
    if g.n and min(deficiency) < 0:
        bad = [v for v in range(g.n) if deficiency[v] < 0]
        raise ValueError(f"matching violates degree bounds at vertices {bad}")
    return MatchState(bytes(flags), array("i", deficiency))


def validate_matching(g: Multigraph, f: list[int], matching: set[int]) -> list[int]:
    """Return the vertices whose degree bound the matching exceeds.

    Empty result means the matching is a valid f-matching.  A bound vector
    that does not fit g and edge ids out of range raise ValueError.
    """
    check_inputs(g, f, matching)
    return [v for v, d in enumerate(count_matched(g, f, matching)[1]) if d < 0]
