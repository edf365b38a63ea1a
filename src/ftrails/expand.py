"""
Expansion of contracted trails into graph trails, and rematching.

A trail coming out of the engine is a path of forest arcs; wherever it
crosses a contracted blossom, an alternating connection through the
blossom's own edges has to be spliced in.  Those connections are the
classic P-trails: for an occurrence v inside a blossom and a required
M-type at v, an alternating trail from v to the base whose final edge
stays compatible with the base edge.  They are read off the recorded
closed-trail segments; no search over the subgraph is involved.  A
contracted trail enters each blossom it crosses by the base edge, so
expansion splices each P-trail in from the base to v, the one direction
the router produces.

A graph trail (GTrail) is a named tuple of its root, its terminal, its
edge ids and its graph; its (edge, from, to) steps are derived from the
root (walk).  expand_all builds a phase's graph trails in one loop.

The nodes inside blossoms are numbered once per phase by engine.preorder,
so each record, nested or not, is one interval: placing a node is an
interval test and a bisect, not a walk over every record that encloses it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from collections import defaultdict
from itertools import compress
from typing import Iterable, Iterator, NamedTuple, Optional

from .engine import BlockingResult, BlossomRecord, StructuralError, _check_carried, preorder
from .multigraph import MatchState, Multigraph, match_state

# Part of a route, and whether it is traversed backwards: an edge id or a
# sub-request (record, node, start_matched, seg_bound).
Piece = tuple[bool, int | tuple]


def walk(g: Multigraph, start: int, edges: Iterable[int]) -> Iterator[tuple[int, int, int]]:
    """The (edge, from-vertex, to-vertex) steps of edges walked from start."""
    exor = g.exor
    for e in edges:
        nxt = start ^ exor[e]
        yield e, start, nxt
        start = nxt


class GTrail(NamedTuple):
    """An alternating trail in g: its root, terminal and edge ids in order."""

    root_vertex: int
    terminal_vertex: int
    edges: tuple[int, ...]
    g: Multigraph

    @property
    def steps(self) -> tuple[tuple[int, int, int], ...]:
        """The trail as (edge, from-vertex, to-vertex) steps from the root."""
        return tuple(walk(self.g, self.root_vertex, self.edges))


class _Locator:
    """Where nodes sit within one blossom record's segment structure.

    The record is the interval [lo, hi) of the router's numbering, lo its
    base node.  Slot (j, i), arc i of segment j with the child it enters,
    starts at that arc's position, so a bisect finds a node's slot.
    """

    def __init__(self, rec: BlossomRecord, router: _Router) -> None:
        self.lo, self.hi = router.span[rec]
        # the router's tables, not the router: a cycle would keep each
        # phase's numbering alive until the cyclic collector ran
        self.pos, self.order, self.vertex_pos = router.pos, router.order, router.vertex_pos
        tail = router.forest.tail
        self.atom_pos: dict[int, tuple[int, int]] = {}
        self.tail_roles: dict[int, list[int]] = {}
        self.seg_lo: list[int] = []  # position of each segment's first arc
        self.starts: list[int] = []
        self.slots: list[Optional[tuple[int, int]]] = []  # None for an atom
        for j, seg in enumerate(rec.segments):
            self.tail_roles.setdefault(tail[seg.arcs[0]], []).append(j)
            self.seg_lo.append(self.pos[seg.arcs[0]])
            for i, (arc, child) in enumerate(zip(seg.arcs, seg.children)):
                self.starts.append(self.pos[arc])
                self.slots.append(None if child is None else (j, i))
                if child is None:
                    self.atom_pos[arc] = (j, i)

    def child_pos(self, node: int) -> Optional[tuple[int, int]]:
        """The slot of the frozen child holding node, or None."""
        p = self.pos.get(node)
        if p is None or not self.lo < p < self.hi:
            return None
        return self.slots[bisect_right(self.starts, p) - 1]

    def occurrences(self, vertex: int, seg_bound: Optional[int] = None) -> list[int]:
        """The nodes of vertex in the record (before segment seg_bound), in pre-order."""
        ps = self.vertex_pos.get(vertex, ())
        hi = self.hi if seg_bound is None else self.seg_lo[seg_bound]
        order = self.order
        return [order[p] for p in ps[bisect_left(ps, self.lo) : bisect_left(ps, hi)]]


class _Router:
    """Computes alternating trails to blossom bases from the stored segments.

    At its first use it numbers the nodes inside the root records by
    engine.preorder: order, with pos its inverse, and span, the interval of
    every record, nested ones too.  vertex_pos holds each vertex's ascending
    positions in order.
    """

    def __init__(self, result: BlockingResult) -> None:
        self.forest = result.forest
        self.store = result.blossoms
        self._locators: dict[BlossomRecord, _Locator] = {}

    def _number(self) -> None:
        self.order, self.span = preorder(self.store.root_record.values())
        order = self.order
        self.pos = dict(zip(order, range(len(order))))
        self.vertex_pos: dict[int, list[int]] = {}
        for p, v in enumerate(map(self.forest.vertex.__getitem__, order)):
            self.vertex_pos.setdefault(v, []).append(p)

    def locator(self, rec: BlossomRecord) -> _Locator:
        loc = self._locators.get(rec)
        if loc is None:
            if not self._locators:  # first use
                self._number()
            loc = self._locators[rec] = _Locator(rec, self)
        return loc

    def route(self, rec: BlossomRecord, node: int, start_matched: bool) -> list[int]:
        """Edge ids of an alternating trail from rec's base vertex to node's vertex.

        The edge at node has the requested M-type and the edge at the base
        the M-type opposite the base edge's, so the trail alternates when
        spliced in after the base edge, which is how expansion uses it.
        Empty exactly when node is the base and the request equals the base
        edge's M-type.

        One loop over a stack of (reversed, piece) pairs, where a piece is
        an edge id or a sub-request (record, node, start_matched,
        seg_bound); each edge is appended once.  Raises StructuralError
        when the structure does not support the request.
        """
        out: list[int] = []
        stack: list[Piece] = [(True, (rec, node, start_matched, None))]
        while stack:
            rev, piece = stack.pop()
            if type(piece) is int:
                out.append(piece)
            elif rev:
                stack.extend((not r, p) for r, p in self._pieces(*piece))
            else:
                stack.extend(reversed(self._pieces(*piece)))
        return out

    def _pieces(
        self, rec: BlossomRecord, node: int, start_matched: bool, seg_bound: Optional[int]
    ) -> list[Piece]:
        """The pieces of node's first alternative whose M-type test applies:
        base, atom up-walk, atom down-walk, tail roles, frozen child then
        up-walk.  When none applies, those of the first other occurrence of
        node's vertex, an equally valid start, which may not hop again."""
        pieces = self._alternative(rec, node, start_matched, seg_bound)
        if pieces is None:
            vertex = self.forest.vertex[node]
            others = [o for o in self.locator(rec).occurrences(vertex, seg_bound) if o != node]
            if others:
                pieces = self._alternative(rec, others[0], start_matched, seg_bound)
            if pieces is None:
                raise StructuralError(
                    f"no alternating trail of start M-type {'M' if start_matched else 'U'} "
                    f"from node {node} to base {rec.base_node}"
                )
        return pieces

    def _alternative(
        self, rec: BlossomRecord, node: int, start_matched: bool, seg_bound: Optional[int]
    ) -> Optional[list[Piece]]:
        matched = self.forest.matched
        if node == rec.base_node:
            return [] if start_matched == matched[node] else self._down_walk(rec, 0, 0)
        loc = self.locator(rec)
        pos = loc.atom_pos.get(node)
        if pos is not None and (seg_bound is None or pos[0] < seg_bound):
            j, i = pos
            arcs = rec.segments[j].arcs
            if start_matched == matched[arcs[i]]:
                return self._up_walk(rec, j, i)
            if i + 1 < len(arcs) and start_matched == matched[arcs[i + 1]]:
                return self._down_walk(rec, j, i + 1)
        for j in loc.tail_roles.get(node, ()):
            first = rec.segments[j].arcs[0]
            if (seg_bound is None or j < seg_bound) and start_matched == matched[first]:
                return self._down_walk(rec, j, 0)
        pos = loc.child_pos(node)
        if pos is not None and (seg_bound is None or pos[0] < seg_bound):
            j, i = pos
            child = rec.segments[j].children[i]
            return [(False, (child, node, start_matched, None))] + self._up_walk(rec, j, i)
        return None

    def _up_walk(self, rec: BlossomRecord, j: int, i: int) -> list[Piece]:
        forest = self.forest
        seg = rec.segments[j]
        arcs, children = seg.arcs, seg.children
        pieces: list[Piece] = [(False, forest.edge[arcs[i]])]
        for k in range(i, 0, -1):
            below, a = children[k - 1], arcs[k]
            if below is not None:
                pieces.append((False, (below, forest.tail[a], not forest.matched[a], None)))
            pieces.append((False, forest.edge[arcs[k - 1]]))
        if j:
            pieces.append((False, (rec, forest.tail[arcs[0]], not forest.matched[arcs[0]], j)))
        return pieces

    def _down_walk(self, rec: BlossomRecord, j: int, i: int) -> list[Piece]:
        forest = self.forest
        seg = rec.segments[j]
        arcs, children = seg.arcs, seg.children
        last = len(arcs) - 1
        pieces: list[Piece] = []
        for k in range(i, last + 1):
            pieces.append((False, forest.edge[arcs[k]]))
            if k < last and children[k] is not None:
                a = arcs[k + 1]
                pieces.append((True, (children[k], forest.tail[a], not forest.matched[a], None)))
        final = children[last]
        if j:
            pieces.append((False, (rec, seg.closure_node, not forest.matched[arcs[last]], j)))
        elif final is not None:
            # skew closure: dive into the final sub-blossom and stop at an
            # occurrence of the base vertex
            occ = self.locator(final).occurrences(forest.vertex[rec.base_node])
            if not occ:
                raise StructuralError(f"skew closure at base {rec.base_node} lacks its vertex")
            pieces.append((True, (final, occ[0], not forest.matched[rec.base_node], None)))
        return pieces


def pi_trail(
    result: BlockingResult,
    node: int,
    rec: BlossomRecord,
    start_matched: bool,
    router: Optional[_Router] = None,
) -> list[tuple[int, int, int]]:
    """walk's steps of an alternating trail in a blossom from an occurrence to the base.

    The first edge has M-type start_matched; appending the base edge keeps
    the trail alternating.  Raises StructuralError when the blossom's
    recorded structure cannot supply the requested M-type at node.
    """
    edges = (router or _Router(result)).route(rec, node, start_matched)
    edges.reverse()
    return list(walk(result.g, result.forest.vertex[node], edges))


def expand_all(result: BlockingResult) -> list[GTrail]:
    """Expand every contracted trail of a run into an alternating trail of
    graph edges, kept in result.expanded for reuse.

    One loop over the trails, with the run's arrays and the router's route
    bound once.  Each arc adds its edge, after the route from the base of
    the blossom holding its tail (if any) to the tail; the trail ends with
    the route to its final node when that node is in a blossom.  A node is
    in a blossom when its union-find parent is not -1 (another node, or
    minus the size of a component of more than one node), so an arc whose
    tail is in none only adds its edge.

    Raises StructuralError when a trail ends on a matched arc, ends off its
    last arc at an atom, or does not start at its search root.
    """
    if result.expanded is not None:
        return result.expanded
    g = result.g
    ends = g.edges
    forest = result.forest
    tail, edge, matched = forest.tail, forest.edge, forest.matched
    store = result.blossoms
    par, find, root_record = store.parent, store.find, store.root_record
    route = _Router(result).route
    out: list[GTrail] = []
    for root_vertex, terminal_vertex, arcs, final, final_arc in result.trails:
        edges: list[int] = []
        for a in arcs:
            t = tail[a]
            if par[t] != -1:
                rec = root_record.get(find(t))
                if rec is not None:
                    edges += route(rec, t, not matched[a])
            edges.append(edge[a])
        if matched[final_arc]:
            raise StructuralError("trail terminates on a matched arc")
        rec = root_record.get(final if par[final] < 0 else find(final))
        if rec is not None:
            edges += route(rec, final, False)
        elif final != (arcs[-1] if arcs else -1):
            raise StructuralError("atomic trail terminal is not the last trail arc")
        # the first arc's tail lookup handled the root's own blossom
        if edges and root_vertex not in ends[edges[0]]:
            raise StructuralError("expanded trail does not start at the search root")
        out.append(GTrail(root_vertex, terminal_vertex, tuple(edges), g))
    result.expanded = out
    return out


def _faults(g: Multigraph, matched, flipped, trails: list[GTrail]) -> tuple[int, list[str]]:
    """The one pass that checks trails: the index of the first trail with
    a fault and check_gtrail's words for its faults, in the order found,
    or len(trails) and none.

    Walks each trail's edges from its root and sets flipped[e] for each;
    an edge already set is a repeat, so trails that share an edge meet it
    as a repeat too.  matched[e] is the M-type of e.  An unknown edge id or
    a break in continuity ends the walk.
    """
    ends = g.edges
    m = len(ends)
    faults: list[str] = []
    for i, trail in enumerate(trails):
        edges = trail.edges
        if not edges:
            return i, ["empty trail"]
        prev = None  # the M-type of the previous edge
        at = trail.root_vertex
        for e in edges:
            if not 0 <= e < m:
                faults.append(f"unknown edge id {e}")
                return i, faults
            u, v = ends[e]
            if at == u:
                at = v
            elif at == v:
                at = u
            else:
                faults.append(f"edge {e} does not continue the trail at {at}")
                return i, faults
            if flipped[e]:
                faults.append(f"edge {e} repeats")
            flipped[e] = 1
            em = matched[e]
            if em == prev:
                faults.append(f"no alternation entering edge {e}")
            prev = em
        if at != trail.terminal_vertex:
            faults.append("trail does not end at its terminal vertex")
        if matched[edges[0]] or prev:
            faults.append("extreme edge is matched")
        if faults:
            return i, faults
    return len(trails), faults


def check_gtrail(g: Multigraph, matching: set[int], trail: GTrail) -> list[str]:
    """Violations of trail validity: alternation, connectivity, distinctness."""
    return _faults(g, {e: e in matching for e in trail.edges}, defaultdict(int), [trail])[1]


def rematch(
    g: Multigraph,
    f: list[int],
    matching: set[int] | MatchState,
    trails: list[GTrail],
) -> set[int] | MatchState:
    """Symmetric difference of the matching with a set of augmenting trails.

    matching must be a valid f-matching, as a set of edge ids or as a
    MatchState, and the result is of the same kind.  A state gets
    find_trails's shape checks and is left as it was; applying the trails
    to it costs their length plus copies in C.
    The trails must be pairwise edge-disjoint alternating trails with
    deficient endpoints; any violation signals an engine bug and raises.
    The result is a valid matching exactly one edge larger per trail.

    Each trail edge is checked and marked flipped in one pass (_faults):
    range, continuity, no repeated or already flipped edge, alternation
    from an unmatched first edge to an unmatched last edge, and the
    terminal.  A fault is reported as check_gtrail's first problem for
    that trail, or, when the trail is valid on its own, as the first edge
    it shares with an earlier trail.  The deficiency of each trail end
    drops by one, and the flipped edges must grow the matching by one per
    trail.
    """
    if isinstance(matching, MatchState):
        _check_carried(g, f, matching, False)
        state = matching
    else:
        state = match_state(g, f, matching)
    before = state.flags
    flipped = bytearray(g.m)
    deficiency = array("i", state.deficiency)
    i, faults = _faults(g, before, flipped, trails)
    if faults:
        # the trail's own first fault, else the first edge it shares with
        # an earlier trail
        problems = _faults(g, before, defaultdict(int), trails[i : i + 1])[1]
        if problems:
            raise ValueError(f"invalid augmenting trail: {problems[0]}")
        earlier = {e for t in trails[:i] for e in t.edges}
        shared = next(e for e in trails[i].edges if e in earlier)
        raise ValueError(f"trails are not edge-disjoint: edge {shared}")
    ends: list[int] = []  # trail ends that went below zero
    for t in trails:
        # alternation keeps every interior degree; only the trail ends gain
        r, s = t.root_vertex, t.terminal_vertex
        deficiency[r] -= 1
        deficiency[s] -= 1
        if deficiency[r] < 0 or deficiency[s] < 0:
            ends += (r, s)
    if ends:
        bad = sorted({v for v in ends if deficiency[v] < 0})
        raise ValueError(f"rematching violates degree bounds at {bad}")
    flags = (int.from_bytes(before, "big") ^ int.from_bytes(flipped, "big")).to_bytes(g.m, "big")
    # each flipped edge adds 1 - 2 * its M-type before
    if flags.count(1) - before.count(1) != len(trails):
        raise ValueError("rematching did not grow the matching by one per trail")
    if state is matching:
        return MatchState(flags, deficiency)
    return set(compress(range(g.m), flags))
