"""
Depth-first search for a blocking set of augmenting trails.

One call to find_trails runs a sequence of searches, one per eligible
deficient vertex, against a fixed matching.  Each search builds part of a
forest whose nodes are *occurrences* of graph vertices; blossoms are formed
by contracting edge sets of the forest with a union-find structure.  The
trails found are returned contracted (as forest arcs); expansion to graph
trails and the actual rematching live in the expand module.

Node/arc representation: every node except an artificial search root has
exactly one parent arc, and every arc has exactly one head node, so nodes
and arcs share ids.  Arc a's head node is a; its tail node is another arc
id (or -1 for a root).

The union-find over nodes keeps each component's size in its parent array:
a root's parent is minus the size of its component, any other node's
parent is a node id.  The array starts as all -1, so a new arc is a
singleton root without a write; a node is a root exactly when its parent
is negative, and a root with parent -1 is a node in no blossom.

A phase is one loop (_Run.run): it binds the hot arrays to locals once and
runs every search of the phase over one explicit stack of invocations
(recursion depth can reach the edge count).  An invocation started by a
grow and one left pending by a blossom step are the same kind of frame, so
the augment test is made in one place; blossom paths and trails come from
one walk down the contracted forest (_Run._path_down), which reads the
union-find parents and the records directly.  The hot path stays free of
attribute lookups and string formatting unless tracing is on.

A frame on that stack holds four values, (node, arc, x, amu): the
invocation's node, the arc it entered by (node itself, or an arc inside
node's blossom for an invocation a blossom step left pending), x the vertex
of node and amu the M-type of arc.  The running invocation's frame is held
in locals.  A grow and a blossom step both push it: a grow then runs the
child, and a blossom step runs the first invocation it left pending.  Any
popped invocation restarts at the augment test, whatever it was doing when
it was pushed, and two invariants make that safe.  Deficiencies change only
at the augment, which ends the search, so an invocation that failed the
test fails it again.  Scan cursors and closed flags only advance, so its
scan goes on where it stopped, and a scan that had run out finds nothing
and goes straight on to the blossom tests.

A grow step scans its vertex's segment of the graph's g.inc_flat, skipping
edges of the other M-type, and reads the far end of the edge it grows as
x ^ g.exor[e] from one array.

The blossom tests at a vertex x read its BL list and its occurrence, and
share one pop.  An x in no blossom (occurrence -1) only gains BL entries
through a base test that found none of the other M-type, so its entries
share one M-type and the base test reads the first entry's.  Nodes are
numbered in creation order and an occurrence is written only by a blossom
step of the current search, so x is flagged in this search, and the
enlarge test applies, exactly when its occurrence is at or after the
search's root arc.

A matching reaches a run as a set of edge ids or as a MatchState: per-edge
matched flags plus per-vertex deficiencies.  From a set, the set-up builds
the state (match_state), which makes validate_matching's checks with its
messages; a carried state, which a solve's phases take from rematch, is
copied in C after shape checks.  Without an explicit order only the
vertices deficient at set-up root searches, in ascending order: a
deficiency never rises during a run.

Check mode (check=True) adds nothing per arc.  It recomputes a carried
state's deficiencies once per phase.  Each blossom step checks its new
segment only, in time linear in the segment plus its finds: a per-vertex
owner node answers "one blossom per vertex", and the enlarge test is
confirmed by node-id order, as the search itself reads it.  Late arrivals
at a vertex (arcs grown after its e1 returned) are checked in one pass at
the end of the run, from the arc count at which each e1 returned, so such
a failure is raised when the run halts rather than at the arc.
"""

from __future__ import annotations

import gc
from array import array
from dataclasses import dataclass
from itertools import compress
from operator import index
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .multigraph import MatchState, Multigraph, check_inputs, count_matched, match_state

ARTIFICIAL = -1


class CheckFailure(AssertionError):
    """An internal invariant was violated while running in check mode."""


class StructuralError(RuntimeError):
    """The search structure is corrupt (blossom store inconsistent)."""


@dataclass(eq=False)
class BlossomSegment:
    """One closed-trail addition made by a single non-noop blossom step.

    arcs are the forest arcs of the contracted path P, ordered from the
    base side downward; the segment starts at the tail node of arcs[0].
    children[i] is the frozen sub-blossom entered through arcs[i], or None
    when the head of arcs[i] is an atom.  closure_node is the node whose
    invocation popped the triggering entry (it shares its vertex with the
    far end of the path).
    """

    arcs: list[int]
    children: list[Optional["BlossomRecord"]]
    closure_node: int


@dataclass(eq=False)
class BlossomRecord:
    """A blossom: its base node plus the segments merged into it.

    The base node's parent arc is the base edge.  A record grows only
    while its base invocation is still executing; it is marked complete
    when that invocation returns, and afterwards can only be absorbed
    whole into a later record as a frozen child.
    """

    base_node: int
    segments: list[BlossomSegment]
    complete: bool = False


def _arc_child_pairs(rec: BlossomRecord):
    return ((arc, child) for seg in rec.segments for arc, child in zip(seg.arcs, seg.children))


def preorder(
    records: Iterable[BlossomRecord],
) -> tuple[list[int], dict[BlossomRecord, tuple[int, int]]]:
    """The nodes of the given records in pre-order, and each record's interval.

    Each record contributes its base node, then the nodes inside it: every
    arc comes right before the nodes inside the frozen child it enters (a
    frozen child's base node is the arc that enters it).  span maps every
    record, nested ones too, to its interval [lo, hi) of order; order[lo] is
    its base node.  The walk keeps its own stack: nesting can be as deep as
    the forest, far beyond the interpreter's recursion limit.
    """
    order: list[int] = []
    span: dict[BlossomRecord, tuple[int, int]] = {}
    for top in records:
        order.append(top.base_node)
        stack = [(top, len(order) - 1, _arc_child_pairs(top))]
        while stack:
            rec, lo, pairs = stack[-1]
            for arc, child in pairs:
                order.append(arc)
                if child is not None:
                    stack.append((child, len(order) - 1, _arc_child_pairs(child)))
                    break
            else:
                stack.pop()
                span[rec] = (lo, len(order))
    return order, span


class Forest:
    """Arena of forest arcs/nodes; index a is both an arc and its head node.

    Arrays are preallocated to capacity while a run is live and trimmed to
    the arc count when it finishes.
    """

    __slots__ = ("edge", "matched", "tail", "vertex")

    def __init__(self, cap: int = 0) -> None:
        self.edge = array("i", bytes(4 * cap))
        self.matched = bytearray(cap)
        self.tail = self.edge[:]
        self.vertex = self.edge[:]

    def trim(self, count: int) -> None:
        del self.edge[count:]
        del self.matched[count:]
        del self.tail[count:]
        del self.vertex[count:]


class BlossomStore:
    """Union-find over forest nodes plus the per-blossom records.

    parent[x] is x's parent node, or minus the size of x's component when
    x is a root: every node starts as a singleton root (-1), and union by
    size merges the smaller component under the larger one's root.  A
    component of more than one node is a blossom, and root_record holds
    its record under its union-find root.
    """

    def __init__(self, cap: int = 0) -> None:
        self.parent = array("i", b"\xff" * (4 * cap))
        self.root_record: dict[int, BlossomRecord] = {}
        self.base_record: dict[int, BlossomRecord] = {}

    def trim(self, count: int) -> None:
        del self.parent[count:]

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] >= 0:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def maximal_complete(self) -> list[BlossomRecord]:
        """The maximal complete blossoms at halt.

        A complete root record is maximal itself; an incomplete root
        record was cut by an augment, and its frozen children (always
        complete) are the maximal complete blossoms inside it.
        """
        out: list[BlossomRecord] = []
        for rec in self.root_record.values():
            if rec.complete:
                out.append(rec)
            else:
                for seg in rec.segments:
                    for child in seg.children:
                        if child is not None:
                            out.append(child)
        return out


class Trail(NamedTuple):
    """A contracted augmenting trail: root, terminal, and its forest arcs.

    arcs runs from just below the root down to the arc entering the
    terminal contracted component.  final_node/final_arc pin down where
    in the last component the trail ends.
    """

    root_vertex: int
    terminal_vertex: int
    arcs: tuple[int, ...]
    final_node: int
    final_arc: int


def _check_carried(g: Multigraph, f: list[int], state: MatchState, check: bool) -> None:
    """Shape checks on a carried state, at C speed; check mode also
    recomputes the deficiencies from the flags."""
    flags, deficiency = state
    if len(flags) != g.m or flags.translate(None, b"\x00\x01"):
        raise ValueError(f"matching state needs {g.m} flags, each 0 or 1")
    if len(deficiency) != g.n or (g.n and min(deficiency) < 0):
        raise ValueError(f"matching state needs {g.n} deficiencies, none negative")
    if check:
        check_inputs(g, f, ())
        if count_matched(g, f, compress(range(g.m), flags))[1] != list(deficiency):
            raise CheckFailure("carried deficiencies disagree with the matched flags")


@dataclass(slots=True)
class BlockingResult:
    """Everything a find_trails run produced, kept contracted."""

    g: Multigraph
    matched: bytes  # the flags of the matching the run started from
    trails: list[Trail]
    forest: Forest
    blossoms: BlossomStore
    e1_arc: list[int]
    def_final: list[int]
    searches: int
    expanded: Optional[list] = None  # the expanded trails, once expand_all ran


_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


class _Run:
    def __init__(
        self,
        g: Multigraph,
        state: MatchState,
        check: bool,
        trace: Optional[Callable[[str], None]],
    ) -> None:
        self.g = g
        self.check = check
        self.trace = trace
        n = g.n
        self.deficiency = array("i", state.deficiency)

        # Grow scans walk the graph's flat incidence lists (the segment of
        # x ends at inc_end[x]) with a forward cursor per vertex and M-type,
        # skipping closed edges: closed_u starts as the matched flags,
        # closed_m as their complement, and a grown edge is closed where it
        # was found.  Lists are in edge-id order, so a scan meets the edges
        # of its type in edge-id order.  With nothing matched, the matched
        # cursors start at the segment ends.
        self.closed_u = bytearray(state.flags)
        self.closed_m = self.closed_u.translate(_FLIP)
        self.inc_end = g.inc_off[1:]
        self.cur_unmatched = g.inc_off[:n]
        self.cur_matched = g.inc_off[:n] if 1 in state.flags else g.inc_off[1:]

        # arcs: each edge grows at most once, plus one artificial root per
        # search; searches are bounded by one unsuccessful per vertex plus
        # one successful per (edge-disjoint) trail.  Every array below is a
        # copy of the forest's zeros or of one array of -1s.
        cap = 2 * g.m + n + 1
        self.forest = Forest(cap)
        zeros = self.forest.edge
        minus1 = array("i", b"\xff" * (4 * cap))

        # per-vertex FIFO lists of returned invocations awaiting blossom
        # steps (the first pop must return the first entry), flattened into
        # one entry arena with per-vertex first/last links.  While a vertex
        # is in no blossom its entries share one M-type, so the base test
        # reads the first entry's.
        self.bl_first = minus1[:n]
        self.bl_last = minus1[:n]
        self.bl_entry_node = zeros[:]
        self.bl_entry_arc = zeros[:]
        self.bl_entry_next = minus1  # -1 ends a list
        self.e1_arc = minus1[:n]
        # one occurrence of each vertex inside its unique blossom, -1 while
        # it is in none; stays valid across enlargements since merged nodes
        # keep their set.  Nodes are numbered in creation order, so the
        # occurrence is at or after the search's root arc exactly when the
        # vertex was flagged in the current search.
        self.vertex_occurrence = minus1[:n]
        self.store = BlossomStore(cap)
        self.n_arcs = 0
        self.trails: list[Trail] = []
        self.search_id = -1

        # check-mode bookkeeping, none of it on the per-arc path: the arc
        # count when each vertex's e1 returned, cap until it does (for
        # check_final), and one node of each vertex's blossom (for
        # _check_blossom)
        if check:
            self.e1_at = array("i", [cap]) * n
            self.owner = minus1[:n]

    # -- diagnostics -------------------------------------------------------

    def _fail(self, msg: str) -> None:
        raise CheckFailure(msg + "\n" + self._dump())

    def _dump(self) -> str:
        fo = self.forest
        lines = ["forest dump:"]
        for a in range(self.n_arcs):
            lines.append(
                f"  arc {a}: edge={fo.edge[a]} matched={fo.matched[a]} "
                f"tail={fo.tail[a]} vertex={fo.vertex[a]} "
                f"root={self.store.find(a)}"
            )
        for root, rec in self.store.root_record.items():
            segs = [(seg.arcs, fo.tail[seg.arcs[0]], seg.closure_node) for seg in rec.segments]
            lines.append(
                f"  blossom root={root} base={rec.base_node} complete={rec.complete} "
                f"segments={segs}"
            )
        return "\n".join(lines)

    # -- the search ------------------------------------------------------

    def run(self, order: Iterable[int]) -> None:
        """Every search of the phase: alpha roots searches while it stays
        deficient and none of its invocations has returned.

        The hot arrays are bound to locals once per phase.
        """
        forest = self.forest
        store = self.store
        fedge = forest.edge
        fmatched = forest.matched
        ftail = forest.tail
        fvertex = forest.vertex
        par = store.parent
        find = store.find
        root_record = store.root_record
        base_record = store.base_record
        deficiency = self.deficiency
        exor = self.g.exor
        inc = self.g.inc_flat
        inc_end = self.inc_end
        closed_u = self.closed_u
        closed_m = self.closed_m
        curm = self.cur_matched
        curu = self.cur_unmatched
        bl_entry_node = self.bl_entry_node
        bl_entry_arc = self.bl_entry_arc
        bl_entry_next = self.bl_entry_next
        bl_first = self.bl_first
        bl_last = self.bl_last
        vertex_occurrence = self.vertex_occurrence
        e1_arc = self.e1_arc
        trails = self.trails
        trace = self.trace
        tracing = trace is not None
        check = self.check
        e1_at = self.e1_at if check else None
        n_arcs = n_bl = 0
        sid = -1
        # One stack of invocations (frames as in the module docstring).  A
        # grow pushes the running invocation and runs its child; a blossom
        # step pushes it under the invocations that the step leaves pending,
        # the first of them on top.  Every popped invocation restarts at
        # the augment test, which fails again for one that ran before.
        frames: list = []
        push = frames.append
        pop = frames.pop

        for alpha in order:
            # an unsuccessful search ends with the root's return, which sets
            # e1(alpha) if nothing had
            while deficiency[alpha] > 0 and e1_arc[alpha] < 0:
                sid += 1
                root = n_arcs
                n_arcs += 1
                fedge[root] = ARTIFICIAL
                fmatched[root] = 1
                ftail[root] = -1
                fvertex[root] = alpha
                if tracing:
                    trace(f"search {sid} root {alpha} node {root}")
                node = arc = root
                x = alpha
                amu = 1

                while True:
                    # the augment test: an unmatched arc to a deficient
                    # vertex, deficient twice over if it closes a trail at the
                    # root
                    if not amu and deficiency[x] > (x == alpha):
                        deficiency[alpha] -= 1
                        deficiency[x] -= 1
                        self.n_arcs = n_arcs
                        trails.append(self._make_trail(alpha, root, x, node, arc))
                        if tracing:
                            trace(f"augment at {x} node {node} arc {arc}")
                        frames.clear()
                        break
                    if amu:
                        closed = closed_u
                        cur = curu
                    else:
                        closed = closed_m
                        cur = curm
                    i = cur[x]
                    hi = inc_end[x]
                    while i < hi:
                        e = inc[i]
                        i += 1
                        if not closed[e]:
                            # grow e: the child's invocation replaces this
                            # one, which is pushed
                            cur[x] = i
                            closed[e] = 1
                            push((node, arc, x, amu))
                            ftail[n_arcs] = node
                            node = arc = n_arcs
                            n_arcs += 1
                            x ^= exor[e]
                            amu ^= 1
                            fedge[node] = e
                            fmatched[node] = amu
                            fvertex[node] = x
                            if tracing:
                                trace(f"grow {x ^ exor[e]}->{x} edge {e} arc {node}")
                            break
                    else:
                        # the scan is exhausted: the blossom tests
                        cur[x] = i
                        o = vertex_occurrence[x]
                        h = bl_first[x]
                        if o < 0:
                            # blossom base test: x occurs in no blossom, so
                            # its entries share one M-type; pop one of the
                            # other type
                            if h >= 0 and fmatched[bl_entry_arc[h]] == amu:
                                h = -1
                        elif o >= root:
                            # blossom enlarge test: x is flagged in this
                            # search, and the node itself, or a descendant
                            # occurrence of x, is in a blossom.  While a scan
                            # is active every node with a larger id sits
                            # inside its call subtree, so an occurrence
                            # outside the blossom is an ancestor of the
                            # blossom's base exactly when its id is smaller.
                            if par[node] == -1:  # node is in no blossom
                                r = o if par[o] < 0 else find(o)
                                rec = root_record.get(r)
                                if node >= (r if rec is None else rec.base_node):
                                    h = -1
                            if check and h >= 0:
                                self.n_arcs = n_arcs
                                self._check_enlarge_applies(node, x)
                        else:
                            # x is in a blossom of an earlier search: this
                            # scan pops nothing
                            h = -1

                        if h >= 0:
                            nxt = bl_entry_next[h]
                            bl_first[x] = nxt
                            if nxt < 0:
                                bl_last[x] = -1
                            popped_node = bl_entry_node[h]
                            popped_arc = bl_entry_arc[h]
                            if tracing:
                                trace(f"pop at {x} entry node {popped_node} arc {popped_arc}")
                            if check and popped_arc < root:  # arcs are numbered in creation order
                                self.n_arcs = n_arcs
                                self._fail(f"popped BL entry {popped_arc} from an earlier search")
                            rn = node if par[node] < 0 else find(node)
                            rm = popped_node if par[popped_node] < 0 else find(popped_node)
                            if rn != rm:
                                self.n_arcs = n_arcs
                                push((node, arc, x, amu))
                                frames += self._blossom_step(node, rn, rm)
                                node, arc, x, amu = pop()
                            elif tracing:
                                trace("blossom noop")
                            continue

                        # nothing to pop: the invocation returns
                        bl_entry_node[n_bl] = node
                        bl_entry_arc[n_bl] = arc
                        t = bl_last[x]
                        if t >= 0:
                            bl_entry_next[t] = n_bl
                        else:
                            bl_first[x] = n_bl
                        bl_last[x] = n_bl
                        n_bl += 1
                        if e1_arc[x] < 0:
                            e1_arc[x] = arc
                            if check:
                                e1_at[x] = n_arcs
                        if o >= root and arc == node:
                            # head-flavor return: may complete a blossom
                            # based here; the blossom step that made it
                            # flagged x in this search
                            rec = base_record.get(node)
                            if rec is not None:
                                rec.complete = True
                                if tracing:
                                    trace(f"complete blossom base {node}")
                        if tracing:
                            trace(f"return node {node} arc {arc}")
                        if not frames:
                            break
                        node, arc, x, amu = pop()

        self.n_arcs = n_arcs
        self.search_id = sid

    # -- steps -------------------------------------------------------------

    def _path_down(self, top: int, bottom: int) -> list[int]:
        """The base arcs of the components below top down to bottom, top
        first.

        Walks contracted parents upward from bottom, which must descend
        from top, and reverses once; find runs only where a tail is not a
        root itself.
        """
        tail = self.forest.tail
        store = self.store
        par = store.parent
        root_record = store.root_record
        arcs: list[int] = []
        cur = bottom
        while cur != top:
            b = root_record[cur].base_node if cur in root_record else cur
            arcs.append(b)
            t = tail[b]
            if t < 0:
                raise StructuralError(
                    f"component {bottom} does not descend from component {top}"
                    + (("\n" + self._dump()) if self.check else "")
                )
            cur = t if par[t] < 0 else store.find(t)
        arcs.reverse()
        return arcs

    def _blossom_step(self, node: int, rn: int, rm: int) -> list[tuple[int, int, int, int]]:
        """Contract the path from component rn down to the popped component rm.

        Returns the frames of the invocations the step leaves pending, the
        first one last (on top of the stack).
        """
        forest = self.forest
        store = self.store
        root_record = store.root_record
        par, find = store.parent, store.find
        path = self._path_down(rn, rm)  # property (*): rm descends from rn
        # a base arc is its own root unless its component is a blossom
        roots = [a if par[a] < 0 else find(a) for a in path]

        rec = root_record.pop(rn, None)
        children = [root_record.pop(r, None) for r in roots]
        if rec is None:
            rec = BlossomRecord(node, [])
            store.base_record[node] = rec
        tail, vertex = forest.tail, forest.vertex
        seg = BlossomSegment(path, children, node)
        rec.segments.append(seg)

        # flag the base and the new atoms by their occurrences, and union
        # the path's components (distinct roots, each merged once) into
        # rn's by size; a root's parent is minus its size, so the root with
        # the larger parent holds the smaller component
        vertex_occurrence = self.vertex_occurrence
        base = rec.base_node
        bv = vertex[base]
        vertex_occurrence[bv] = base
        if self.check:
            # before the unions merge it away: whether the final child holds
            # the base vertex's owner, for the skew check
            o = self.owner[bv]
            owner_in_last = o >= 0 and find(o) == roots[-1]
        root = rn
        for a, child, r in zip(path, children, roots):
            if child is None:
                vertex_occurrence[vertex[a]] = a
            if par[root] > par[r]:
                par[r] += par[root]
                par[root] = r
                root = r
            else:
                par[root] += par[r]
                par[r] = root
        root_record[root] = rec

        if self.trace is not None:
            self.trace(f"blossom base {base} path {path}")
        if self.check:
            self._check_blossom(rec, seg, root, owner_in_last)

        matched = forest.matched
        return [(tail[a], a, vertex[tail[a]], matched[a]) for a in reversed(path[1:])]

    def _make_trail(self, alpha: int, root: int, x: int, node: int, arc: int) -> Trail:
        par, find = self.store.parent, self.store.find
        top = root if par[root] < 0 else find(root)
        bottom = node if par[node] < 0 else find(node)
        return Trail(alpha, x, tuple(self._path_down(top, bottom)), node, arc)

    # -- check-mode invariants -------------------------------------------

    def _check_enlarge_applies(self, node: int, x: int) -> None:
        """The enlarge test fired at node: node is in a blossom, or x has an
        occurrence in a blossom below node.  Such a blossom's base has a
        larger id than node, as the search itself reads it."""
        store = self.store
        find = store.find
        if find(node) in store.root_record:
            return
        o = self.vertex_occurrence[x]
        rec = store.root_record.get(find(o)) if o >= 0 else None
        if rec is not None and self.forest.vertex[o] == x and node < rec.base_node < self.n_arcs:
            return
        self._fail(f"enlarge test fired at node {node} with no descendant of {x} in a blossom")

    def _check_blossom(
        self, rec: BlossomRecord, seg: BlossomSegment, root: int, owner_in_last: bool
    ) -> None:
        """The new segment's invariants, in time linear in its length plus
        the finds: the blossom invariants held before it was added.

        root is the blossom's union-find root; owner_in_last tells whether
        the last child held the base vertex's owner before the unions, so
        it holds an occurrence of the base vertex."""
        forest = self.forest
        matched, vertex = forest.matched, forest.vertex
        base_vertex = vertex[rec.base_node]
        arcs, children = seg.arcs, seg.children

        for i, child in enumerate(children):
            if child is not None:
                if not child.complete:
                    self._fail("incomplete blossom absorbed as a frozen child")
                if child.base_node != arcs[i]:
                    self._fail("path enters a contracted blossom off its base edge")
        for i in range(len(arcs) - 1):
            if children[i] is None and matched[arcs[i]] == matched[arcs[i + 1]]:
                self._fail("blossom path does not alternate at an atomic node")

        if len(rec.segments) == 1:
            eta_matched = matched[rec.base_node]
            if matched[arcs[0]] == eta_matched:
                self._fail("blossom path starts with the base edge's M-type")
            last = children[-1]
            if last is None:
                if vertex[arcs[-1]] != base_vertex:
                    self._fail("closed trail does not return to the base vertex")
                if matched[arcs[-1]] != matched[arcs[0]]:
                    self._fail("extreme edges of a base-case blossom differ in M-type")
            elif not owner_in_last:
                self._fail("skew blossom's final sub-blossom misses the base vertex")
        else:
            if children[-1] is not None:
                self._fail("enlargement path ends in a contracted blossom")
            if vertex[arcs[-1]] != vertex[seg.closure_node]:
                self._fail("enlargement does not close at the popping node's vertex")

        # one blossom per vertex: each vertex's owner is a node of the one
        # blossom holding it; the base and the new atoms must find no owner
        # outside this blossom
        par, find = self.store.parent, self.store.find
        owner = self.owner
        new_nodes = [rec.base_node]
        new_nodes += [a for a, child in zip(arcs, children) if child is None]
        for nd in new_nodes:
            v = vertex[nd]
            o = owner[v]
            if o >= 0 and par[o] != root and find(o) != root:
                self._fail(f"vertex {v} occurs in two blossoms")
            owner[v] = nd
        # subtree: each new arc hangs from a node of this blossom
        tail = forest.tail
        for a in arcs:
            t = tail[a]
            if t < 0 or par[t] != root and find(t) != root:
                self._fail(f"blossom node {a} detaches from the base subtree")

    def check_final(self) -> None:
        """Invariants that are only meaningful once the run has halted: an
        arc that arrived at a vertex after its e1 returned (at an arc count
        of e1_at or more) has e1's M-type and is pendant.  No search root
        is such an arc: a vertex roots searches only until its e1 returns."""
        fo = self.forest
        matched, vertex = fo.matched, fo.vertex
        e1_arc, e1_at = self.e1_arc, self.e1_at
        n_arcs = self.n_arcs
        # arcs made before the first return are never late
        late = [a for a in range(min(e1_at, default=n_arcs), n_arcs) if e1_at[vertex[a]] <= a]
        for a in late:
            v = vertex[a]
            if matched[e1_arc[v]] != matched[a]:
                self._fail(
                    f"arc {a} at vertex {v} arrived after e1 returned "
                    f"with the wrong M-type"
                )
        if late:
            tails = set(fo.tail[:n_arcs])
            for a in late:
                if a in tails:
                    self._fail(f"arc {a} grown after e1 returned is not pendant")


def find_trails(
    g: Multigraph,
    f: list[int],
    matching: set[int] | MatchState,
    order: Optional[Sequence[int]] = None,
    check: bool = False,
    trace: Optional[Callable[[str], None]] = None,
) -> BlockingResult:
    """Find a blocking set of augmenting trails for a valid f-matching.

    Runs the depth-first search once over all eligible deficient vertices
    (ascending ids unless an explicit order is given; a vertex roots
    several searches while it stays deficient and none of its invocations
    has returned).  The matching itself is not modified: trails come back
    contracted in the result, and per-vertex deficiencies are maintained
    as if the trails had been rematched.  The cycle collector is paused
    while the search runs and restored when it ends.

    Parameters:
        g: the multigraph.
        f: per-vertex degree bounds.
        matching: a valid f-matching, as a set of edge ids or as the
            MatchState that rematch returned for the previous phase; a
            state is copied, never mutated.
        order: optional iteration order over the vertices.
        check: enable internal invariant assertions (slow); a carried
            state's deficiencies are then recomputed from its flags.
        trace: optional sink receiving one line per search step.

    Returns:
        A BlockingResult holding the starting flags, the trails, the
        search forest, the blossom store, per-vertex first-returned arcs
        and the final deficiencies.

    Raises:
        ValueError: if f does not fit g, the matching holds an unknown
            edge id or violates a degree bound (validate_matching's checks),
            a carried state has the wrong shape, or order holds an entry
            that is not a vertex id.
        CheckFailure: if check mode catches an invariant violation.
    """
    if isinstance(matching, MatchState):
        _check_carried(g, f, matching, check)
    else:
        matching = match_state(g, f, matching)
    run = _Run(g, matching, check, trace)
    if order is None:
        order = compress(range(g.n), run.deficiency)
    else:
        ids = []
        for v in order:
            try:
                ids.append(index(v))
            except TypeError:
                ids.append(-1)
            if not 0 <= ids[-1] < g.n:
                raise ValueError(f"order contains unknown vertex id {v}")
        order = ids
    # The run makes no reference cycles, so the cycle collector finds
    # nothing in it.  Left on, it walks the growing list of trails in full
    # collections: a sixth of a phase at m = 1e6 and none at 1e5, so the
    # cost per arc grew with m.  A caller's disabled collector stays so.
    collecting = gc.isenabled()
    gc.disable()
    try:
        run.run(order)
    finally:
        if collecting:
            gc.enable()
    if check:
        run.check_final()
    n_arcs = run.n_arcs
    forest = run.forest
    forest.trim(n_arcs)
    store = run.store
    store.trim(n_arcs)
    return BlockingResult(
        g, matching.flags, run.trails, forest, store, run.e1_arc, run.deficiency, run.search_id + 1
    )
