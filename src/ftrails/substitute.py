"""
Blossom substitutes for weighted-algorithm consumers.

A contracted blossom with base vertex beta is replaced by beta plus a new
shadow vertex b joined by an edge, both with degree bound 1.  Incident
matched/unmatched edges are rewired to beta or b depending on whether the
blossom is light or heavy, so that alternating trails cross the gadget
exactly the way they cross the contracted blossom: through the base edge
and at most one other incident edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .expand import GTrail
from .multigraph import Multigraph, check_inputs, validate_matching

LIGHT = "light"
HEAVY = "heavy"


@dataclass
class BlossomSpec:
    """Caller-supplied description of one weighted blossom to substitute."""

    vertices: set[int]
    base: int
    kind: str  # LIGHT or HEAVY
    base_edge: Optional[int] = None  # edge id of eta, absent for a free base


@dataclass
class SubstituteMap:
    """How the substituted instance relates back to the original."""

    specs: list[BlossomSpec]
    shadow: list[int]  # per blossom: the new vertex b
    edge_map: dict[int, int]  # original edge id -> substituted edge id
    new_edges: list[int]  # per blossom: the beta-b edge id in the new graph


@dataclass
class Crossing:
    """One gadget traversal of a pulled-back trail.

    entry_edge is the base edge when it carries the trail into the
    blossom; exit_edge is the single other incident edge used.  Either may
    be None when the trail ends inside the gadget (free-base blossoms).
    The corresponding original trail passes through the base vertex.
    """

    blossom: int
    entry_edge: Optional[int]
    exit_edge: Optional[int]


@dataclass
class PulledBackTrail:
    edges: list[Optional[int]]  # original edge ids in order; None marks a crossing
    crossings: list[Crossing] = field(default_factory=list)


def build_substitute(
    g: Multigraph,
    f: list[int],
    matching: set[int],
    blossoms: list[BlossomSpec],
) -> tuple[Multigraph, list[int], set[int], SubstituteMap]:
    """Replace each listed blossom by its two-vertex substitute.

    Returns the new graph, bounds, matching and the back-map.  Raises
    ValueError when f or the matching does not fit g (as check_inputs
    does), a blossom names a vertex or base edge g does not have, the
    blossoms overlap, a base edge is inconsistent, or the rewired matching
    violates the substitute's unit bounds (the incident edge pattern does
    not fit the blossom's kind).
    """
    check_inputs(g, f, matching)
    owner: dict[int, int] = {}  # blossom vertex -> blossom index
    for bi, spec in enumerate(blossoms):
        if spec.kind not in (LIGHT, HEAVY):
            raise ValueError(f"unknown blossom kind {spec.kind!r}")
        if spec.base not in spec.vertices:
            raise ValueError(f"blossom {bi} base {spec.base} outside its vertex set")
        for v in spec.vertices:
            if not 0 <= v < g.n:
                raise ValueError(f"blossom {bi} contains unknown vertex {v}")
            if v in owner:
                raise ValueError(f"blossoms {owner[v]} and {bi} share vertex {v}")
            owner[v] = bi
    for bi, spec in enumerate(blossoms):
        if spec.base_edge is not None:
            if not 0 <= spec.base_edge < g.m:
                raise ValueError(f"blossom {bi} has unknown base edge id {spec.base_edge}")
            u, v = g.edges[spec.base_edge]
            inside = (u in spec.vertices) + (v in spec.vertices)
            if inside != 1 or spec.base not in (u, v):
                raise ValueError(
                    f"blossom {bi} base edge {spec.base_edge} is not a single edge at its base"
                )

    shadow = [g.n + bi for bi in range(len(blossoms))]

    def map_end(v: int, e: int, e_matched: bool) -> int:
        # a non-base edge at a blossom vertex lands on the shadow exactly
        # when it is matched at a light blossom or unmatched at a heavy one
        bi = owner.get(v)
        if bi is None:
            return v
        spec = blossoms[bi]
        if e != spec.base_edge and e_matched == (spec.kind == LIGHT):
            return shadow[bi]
        return spec.base

    new_edges_list: list[tuple[int, int]] = []
    new_matching: set[int] = set()
    edge_map: dict[int, int] = {}
    for e, (u, v) in enumerate(g.edges):
        ou, ov = owner.get(u), owner.get(v)
        if ou is not None and ou == ov:
            continue  # interior edge, discarded with the blossom body
        em = e in matching
        ne = len(new_edges_list)
        new_edges_list.append((map_end(u, e, em), map_end(v, e, em)))
        edge_map[e] = ne
        if em:
            new_matching.add(ne)

    beta_b: list[int] = []
    for bi, spec in enumerate(blossoms):
        ne = len(new_edges_list)
        new_edges_list.append((spec.base, shadow[bi]))
        beta_b.append(ne)
        if spec.kind == HEAVY:
            new_matching.add(ne)

    g_new = Multigraph(g.n + len(blossoms), new_edges_list)
    f_new = list(f)
    for spec in blossoms:
        for v in spec.vertices:
            f_new[v] = 0  # discarded with the blossom body
        f_new[spec.base] = 1
    f_new.extend([1] * len(blossoms))

    bad = validate_matching(g_new, f_new, new_matching)
    if bad:
        raise ValueError(
            "incident edge pattern inconsistent with blossom kinds: "
            f"substituted matching overloads vertices {bad}"
        )
    smap = SubstituteMap(specs=list(blossoms), shadow=shadow, edge_map=edge_map, new_edges=beta_b)
    return g_new, f_new, new_matching, smap


def _crossing(
    bi: int,
    run: list[tuple[int, int, int]],
    smap: SubstituteMap,
    original_of: dict[int, int],
    beta_b: set[int],
) -> Crossing:
    """The Crossing of a run, the consecutive steps of a trail through
    blossom bi's gadget: its base edge, if used, and the one other incident
    edge.  Raises ValueError for a second non-base edge, and for a run
    that passes the base twice off the base edge of a blossom with one."""
    spec = smap.specs[bi]
    eta: Optional[int] = None
    side: Optional[int] = None
    base_uses = 0
    for ne, u, v in run:
        base_uses += spec.base in (u, v)
        if ne in beta_b:
            continue
        e = original_of.get(ne)
        if e == spec.base_edge:
            eta = e
        elif side is None:
            side = e
        else:
            raise ValueError(f"trail uses two non-base edges {side} and {e} of blossom {bi}")
    if base_uses >= 2 and eta is None and spec.base_edge is not None:
        raise ValueError(f"trail passes the base of blossom {bi} off its base edge")
    return Crossing(blossom=bi, entry_edge=eta, exit_edge=side)


def pull_back_trail(trail: GTrail, smap: SubstituteMap) -> PulledBackTrail:
    """Map a substituted-graph alternating trail back to original edge ids.

    Edges away from every gadget come back as themselves; each maximal run
    of steps through one gadget becomes a Crossing carrying the base edge
    (if used) and the single other incident edge.  The interior of a
    crossed blossom is not rematerialized here: its rematching belongs to
    the owner of the blossom bodies.

    One pass over the steps: a step that no longer touches the open run's
    gadget closes the run, and a step that touches a gadget opens a run
    there or extends the open one.  A step from one gadget straight into
    another extends the first run, closes it and opens the second.

    Raises ValueError when the trail violates the crossing discipline
    (visiting a gadget twice, using two non-base incident edges, or
    passing the base vertex off the base edge); a valid alternating trail
    in the substituted graph cannot do that.
    """
    gadget_at: dict[int, int] = {}
    for bi, spec in enumerate(smap.specs):
        gadget_at[spec.base] = bi
        gadget_at[smap.shadow[bi]] = bi
    original_of = {ne: e for e, ne in smap.edge_map.items()}
    beta_b = set(smap.new_edges)

    out = PulledBackTrail(edges=[])
    seen: set[int] = set()
    run: list[tuple[int, int, int]] = []  # the open run: steps through gadget open_bi
    open_bi = -1
    for step in trail.steps:
        ne, u, v = step
        ends = dict.fromkeys((gadget_at.get(u), gadget_at.get(v)))
        # the gadgets the step touches, u's first, or None for a step away from all of them
        for bi in [b for b in ends if b is not None] or [None]:
            if run and bi != open_bi:
                out.crossings.append(_crossing(open_bi, run, smap, original_of, beta_b))
                out.edges.append(None)
                run = []
            if bi is None:
                e = original_of.get(ne)
                if e is None:
                    raise ValueError(f"substituted edge {ne} has no original counterpart")
                out.edges.append(e)
                continue
            if not run:
                if bi in seen:
                    raise ValueError(f"trail visits blossom {bi} twice")
                seen.add(bi)
                open_bi = bi
            run.append(step)
    if run:
        out.crossings.append(_crossing(open_bi, run, smap, original_of, beta_b))
        out.edges.append(None)
    return out
