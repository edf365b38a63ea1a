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

The search itself is one loop over one explicit stack of invocations
(_Run._search): recursion depth can reach the edge count.  An invocation
started by a grow and one left pending by a blossom step are the same kind
of frame, so the augment test is made in one place; blossom paths and
trails come from one walk down the contracted forest (_Run._path_down).
The hot path stays free of attribute lookups and string formatting unless
tracing is on.

A grow step scans its vertex's segment of the graph's g.inc_flat, skipping
edges of the other M-type, and reads the far end of the edge it grows as
x ^ g.exor[e] from one array.

A matching reaches a run as a set of edge ids or as a MatchState: per-edge
matched flags plus per-vertex deficiencies.  From a set, the set-up builds
the state (match_state), which makes validate_matching's checks with its
messages; a carried state, which a solve's phases take from rematch, is
copied in C after shape checks.  Without an explicit order only the
vertices deficient at set-up root searches, in ascending order: a
deficiency never rises during a run.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import compress
from operator import index, sub
from typing import Callable, NamedTuple, Optional, Sequence

from .multigraph import MatchState, Multigraph, checked_degrees, match_state

ARTIFICIAL = -1


class CheckFailure(AssertionError):
    """An internal invariant was violated while running in check mode."""


class StructuralError(RuntimeError):
    """The search structure is corrupt (blossom store inconsistent)."""


@dataclass(eq=False)
class BlossomSegment:
    """One closed-trail addition made by a single non-noop blossom step.

    arcs are the forest arcs of the contracted path P, ordered from the
    base side downward.  children[i] is the frozen sub-blossom entered
    through arcs[i], or None when the head of arcs[i] is an atom.
    start_node is the tail node of arcs[0]; closure_node is the node whose
    invocation popped the triggering entry (it shares its vertex with the
    far end of the path).
    """

    arcs: list[int]
    children: list[Optional["BlossomRecord"]]
    start_node: int
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

    def iter_nodes(self):
        """The base node, then every node inside the blossom.

        A frozen child's base node is the arc that enters it, so the nodes
        inside are exactly the arcs inside.
        """
        yield self.base_node
        yield from self.iter_arcs()

    def iter_arcs(self):
        """All forest arcs inside the blossom (the base edge excluded).

        Each arc comes right before the arcs inside the frozen child it
        enters.  The walk keeps its own stack: nesting can be as deep as
        the forest, far beyond the interpreter's recursion limit.
        """
        stack = [_arc_child_pairs(self)]
        while stack:
            for arc, child in stack[-1]:
                yield arc
                if child is not None:
                    stack.append(_arc_child_pairs(child))
                    break
            else:
                stack.pop()


def _arc_child_pairs(rec: BlossomRecord):
    return ((arc, child) for seg in rec.segments for arc, child in zip(seg.arcs, seg.children))


class Forest:
    """Arena of forest arcs/nodes; index a is both an arc and its head node.

    Arrays are preallocated to capacity while a run is live and trimmed to
    the arc count when it finishes.
    """

    __slots__ = ("edge", "matched", "tail", "vertex")

    def __init__(self, cap: int = 0) -> None:
        zeros = bytes(4 * cap)
        self.edge = array("i", zeros)
        self.matched = bytearray(cap)
        self.tail = array("i", zeros)
        self.vertex = array("i", zeros)

    def trim(self, count: int) -> None:
        del self.edge[count:]
        del self.matched[count:]
        del self.tail[count:]
        del self.vertex[count:]


class BlossomStore:
    """Union-find over forest nodes plus the per-blossom records."""

    def __init__(self, cap: int = 0) -> None:
        self.parent = array("i", bytes(4 * cap))  # set when each arc is made
        self.size = array("i", [1]) * cap
        self.root_record: dict[int, BlossomRecord] = {}
        self.base_record: dict[int, BlossomRecord] = {}

    def trim(self, count: int) -> None:
        del self.parent[count:]
        del self.size[count:]

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> int:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return ra

    def record_of_node(self, node: int) -> Optional[BlossomRecord]:
        return self.root_record.get(self.find(node))

    def base_of_component(self, root: int) -> int:
        rec = self.root_record.get(root)
        return rec.base_node if rec is not None else root

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
        deg = checked_degrees(g, f, list(compress(range(g.m), flags)))
        if list(map(sub, f, deg)) != list(deficiency):
            raise CheckFailure("carried deficiencies disagree with the matched flags")


@dataclass
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


GROW, BLOSSOM, START = 0, 1, 2

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

        # per-vertex FIFO lists of returned invocations awaiting blossom
        # steps (the first pop must return the first entry), flattened into
        # one entry arena with per-vertex first/last links
        minus1 = b"\xff" * (4 * n)
        zeros_n = bytes(4 * n)
        self.bl_first = array("i", minus1)
        self.bl_last = array("i", minus1)
        self.bl_cnt_m = array("i", zeros_n)
        self.bl_cnt_u = array("i", zeros_n)
        self.e1_arc = array("i", minus1)
        self.vertex_blossom = array("i", minus1)
        # one occurrence of each flagged vertex inside its unique blossom;
        # stays valid across enlargements since merged nodes keep their set
        self.vertex_occurrence = array("i", minus1)

        # arcs: each edge grows at most once, plus one artificial root per
        # search; searches are bounded by one unsuccessful per vertex plus
        # one successful per (edge-disjoint) trail
        cap = 2 * g.m + n + 1
        zeros_cap = bytes(4 * cap)
        self.bl_entry_node = array("i", zeros_cap)
        self.bl_entry_arc = array("i", zeros_cap)
        self.bl_entry_next = array("i", b"\xff" * (4 * cap))  # -1 ends a list
        self.n_bl = 0
        self.forest = Forest(cap)
        self.store = BlossomStore(cap)
        self.n_arcs = 0
        self.trails: list[Trail] = []
        self.search_id = -1

        # check-mode bookkeeping
        if check:
            self.child_count = [0] * cap
            self.after_e1_arcs: list[int] = []

    # -- helpers ---------------------------------------------------------

    def _on_new_arc(self, aid: int) -> None:
        self.n_arcs = aid + 1
        forest = self.forest
        tail = forest.tail[aid]
        if tail >= 0:
            self.child_count[tail] += 1
        vertex = forest.vertex[aid]
        if forest.edge[aid] != ARTIFICIAL and self.e1_arc[vertex] >= 0:
            e1 = self.e1_arc[vertex]
            if forest.matched[e1] != forest.matched[aid]:
                self._fail(
                    f"arc {aid} at vertex {vertex} arrived after e1 returned "
                    f"with the wrong M-type"
                )
            self.after_e1_arcs.append(aid)

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
            segs = [(seg.arcs, seg.start_node, seg.closure_node) for seg in rec.segments]
            lines.append(
                f"  blossom root={root} base={rec.base_node} complete={rec.complete} "
                f"segments={segs}"
            )
        return "\n".join(lines)

    # -- the search ------------------------------------------------------

    def run(self, order: Sequence[int]) -> None:
        for alpha in order:
            while self.deficiency[alpha] > 0 and self.e1_arc[alpha] < 0:
                self.search_id += 1
                if not self._search(alpha):
                    break

    def _search(self, alpha: int) -> bool:
        """Run one search from alpha; True iff an augmenting trail was found."""
        forest = self.forest
        store = self.store
        fedge = forest.edge
        fmatched = forest.matched
        ftail = forest.tail
        fvertex = forest.vertex
        par = store.parent
        sz = store.size
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
        bl_cnt_m = self.bl_cnt_m
        bl_cnt_u = self.bl_cnt_u
        n_bl = self.n_bl
        vertex_blossom = self.vertex_blossom
        e1_arc = self.e1_arc
        sid = self.search_id
        trace = self.trace
        check = self.check

        root = self.n_arcs
        self.n_arcs = root + 1
        fedge[root] = ARTIFICIAL
        fmatched[root] = 1
        ftail[root] = -1
        fvertex[root] = alpha
        par[root] = root
        if check:
            self._on_new_arc(root)
        n_arcs = self.n_arcs
        if trace is not None:
            trace(f"search {sid} root {alpha} node {root}")

        # One stack of invocations.  A frame is (node, arc, x, amu, state),
        # with x the vertex of node and amu the M-type of arc.  Every
        # invocation starts in START, which holds the augment test, and then
        # grows; a grow pushes the current invocation as GROW, and a blossom
        # step pushes it as BLOSSOM under the invocations that the step
        # leaves pending, the first of them on top.
        frames: list = []
        node = root
        arc = root
        x = alpha
        amu = 1
        state = START

        while True:
            if state != BLOSSOM:
                # the augment test: an unmatched arc to a deficient vertex,
                # deficient twice over if it closes a trail at the root
                if state == START and not amu and deficiency[x] > (x == alpha):
                    deficiency[alpha] -= 1
                    deficiency[x] -= 1
                    self.n_arcs = n_arcs
                    self.n_bl = n_bl
                    self.trails.append(self._make_trail(alpha, root, x, node, arc))
                    if trace is not None:
                        trace(f"augment at {x} node {node} arc {arc}")
                    return True
                if amu:
                    closed = closed_u
                    cur = curu
                else:
                    closed = closed_m
                    cur = curm
                i = cur[x]
                hi = inc_end[x]
                e = -1
                while i < hi:
                    c = inc[i]
                    i += 1
                    if not closed[c]:
                        e = c
                        break
                cur[x] = i
                if e >= 0:
                    closed[e] = 1
                    want = 1 - amu
                    y = x ^ exor[e]
                    child = n_arcs
                    n_arcs += 1
                    fedge[child] = e
                    fmatched[child] = want
                    ftail[child] = node
                    fvertex[child] = y
                    par[child] = child
                    if check:
                        self._on_new_arc(child)
                    if trace is not None:
                        trace(f"grow {x}->{y} edge {e} arc {child}")
                    frames.append((node, arc, x, amu, GROW))
                    node = child
                    arc = child
                    x = y
                    amu = want
                    state = START
                    continue
                state = BLOSSOM

            # state == BLOSSOM
            flag = vertex_blossom[x]
            popped_node = -1
            if flag < 0:
                # blossom base test: x occurs in no blossom
                if (bl_cnt_u[x] if amu else bl_cnt_m[x]) > 0:
                    h = bl_first[x]
                    bl_first[x] = bl_entry_next[h]
                    if bl_entry_next[h] < 0:
                        bl_last[x] = -1
                    popped_node = bl_entry_node[h]
                    popped_arc = bl_entry_arc[h]
                    if fmatched[popped_arc]:
                        bl_cnt_m[x] -= 1
                    else:
                        bl_cnt_u[x] -= 1
                    if fmatched[popped_arc] == amu:
                        raise StructuralError(
                            "first BL entry has the wrong M-type in a base test"
                        )
            elif flag == sid and (
                par[node] != node
                or sz[node] > 1
                or node < store.base_of_component(store.find(self.vertex_occurrence[x]))
            ):
                # blossom enlarge test: the node itself, or a descendant
                # occurrence of x, is in a blossom of this search.  While a
                # scan is active every node with a larger id sits inside its
                # call subtree, so an occurrence outside the blossom is an
                # ancestor of the blossom's base exactly when its id is
                # smaller.
                h = bl_first[x]
                if h >= 0:
                    bl_first[x] = bl_entry_next[h]
                    if bl_entry_next[h] < 0:
                        bl_last[x] = -1
                    popped_node = bl_entry_node[h]
                    popped_arc = bl_entry_arc[h]
                    if fmatched[popped_arc]:
                        bl_cnt_m[x] -= 1
                    else:
                        bl_cnt_u[x] -= 1
                    if check:
                        self._check_enlarge_applies(node, x)
            # else: x has blossom occurrences that do not descend from here
            # (or only in an earlier search); this scan pops nothing.

            if popped_node >= 0:
                if trace is not None:
                    trace(f"pop at {x} entry node {popped_node} arc {popped_arc}")
                if check and popped_arc < root:  # arcs are numbered in creation order
                    self._fail(f"popped BL entry {popped_arc} from an earlier search")
                rn = store.find(node)
                rm = store.find(popped_node)
                if rn == rm:
                    if trace is not None:
                        trace("blossom noop")
                    continue
                frames.append((node, arc, x, amu, BLOSSOM))
                frames += self._blossom_step(node, rn, rm)
                node, arc, x, amu, state = frames.pop()
                continue

            # nothing to pop: the invocation returns
            idx = n_bl
            n_bl += 1
            bl_entry_node[idx] = node
            bl_entry_arc[idx] = arc
            t = bl_last[x]
            if t >= 0:
                bl_entry_next[t] = idx
            else:
                bl_first[x] = idx
            bl_last[x] = idx
            if amu:  # amu is the M-type of arc
                bl_cnt_m[x] += 1
            else:
                bl_cnt_u[x] += 1
            if e1_arc[x] < 0:
                e1_arc[x] = arc
            if arc == node and flag == sid:
                # head-flavor return: may complete a blossom based here;
                # the blossom step that made it flagged x with this search
                rec = base_record.get(node)
                if rec is not None:
                    rec.complete = True
                    if trace is not None:
                        trace(f"complete blossom base {node}")
            if trace is not None:
                trace(f"return node {node} arc {arc}")
            if not frames:
                self.n_arcs = n_arcs
                self.n_bl = n_bl
                return False
            node, arc, x, amu, state = frames.pop()

    # -- steps -------------------------------------------------------------

    def _path_down(self, top: int, bottom: int) -> list[int]:
        """The base arcs of the components below top down to bottom, top first.

        Walks contracted parents upward from bottom, which must descend
        from top.
        """
        tail = self.forest.tail
        store = self.store
        arcs: list[int] = []
        cur = bottom
        while cur != top:
            b = store.base_of_component(cur)
            arcs.append(b)
            t = tail[b]
            if t < 0:
                raise StructuralError(
                    f"component {bottom} does not descend from component {top}"
                    + (("\n" + self._dump()) if self.check else "")
                )
            cur = store.find(t)
        arcs.reverse()
        return arcs

    def _blossom_step(self, node: int, rn: int, rm: int) -> list[tuple[int, int, int, int, int]]:
        """Contract the path from component rn down to the popped component rm.

        Returns the START frames of the invocations the step leaves
        pending, the first one last (on top of the stack).
        """
        forest = self.forest
        store = self.store
        path = self._path_down(rn, rm)  # property (*): rm descends from rn

        rec = store.root_record.pop(rn, None)
        children: list[Optional[BlossomRecord]] = []
        for a in path:
            child = store.root_record.pop(store.find(a), None)
            children.append(child)
        if rec is None:
            rec = BlossomRecord(base_node=node, segments=[])
            store.base_record[node] = rec
        seg = BlossomSegment(
            arcs=path,
            children=children,
            start_node=forest.tail[path[0]],
            closure_node=node,
        )
        rec.segments.append(seg)

        root = rn
        vertex_blossom = self.vertex_blossom
        vertex_occurrence = self.vertex_occurrence
        bv = forest.vertex[rec.base_node]
        vertex_blossom[bv] = self.search_id
        vertex_occurrence[bv] = rec.base_node
        for a, child in zip(path, children):
            if child is None:
                v = forest.vertex[a]
                vertex_blossom[v] = self.search_id
                vertex_occurrence[v] = a
            root = store.union(root, a)
        store.root_record[root] = rec

        if self.trace is not None:
            self.trace(f"blossom base {rec.base_node} path {path}")
        if self.check:
            self._check_blossom(rec, seg)

        tail, vertex, matched = forest.tail, forest.vertex, forest.matched
        return [(tail[a], a, vertex[tail[a]], matched[a], START) for a in reversed(path[1:])]

    def _make_trail(self, alpha: int, root: int, x: int, node: int, arc: int) -> Trail:
        find = self.store.find
        return Trail(alpha, x, tuple(self._path_down(find(root), find(node))), node, arc)

    # -- check-mode invariants -------------------------------------------

    def _check_enlarge_applies(self, node: int, x: int) -> None:
        if self.store.record_of_node(node) is not None:
            return
        # the skew case: some occurrence of x in a blossom must descend
        # from the current node
        forest = self.forest
        store = self.store
        for a in range(self.n_arcs):
            if forest.vertex[a] != x or store.record_of_node(a) is None:
                continue
            t = a
            while t >= 0:
                if t == node:
                    return
                t = forest.tail[t]
        self._fail(f"enlarge test fired at node {node} with no descendant of {x} in a blossom")

    def _check_blossom(self, rec: BlossomRecord, seg: BlossomSegment) -> None:
        forest = self.forest
        base_vertex = forest.vertex[rec.base_node]
        arcs, children = seg.arcs, seg.children

        for i, child in enumerate(children):
            if child is not None:
                if not child.complete:
                    self._fail("incomplete blossom absorbed as a frozen child")
                if child.base_node != arcs[i]:
                    self._fail("path enters a contracted blossom off its base edge")
        for i in range(len(arcs) - 1):
            if children[i] is None and forest.matched[arcs[i]] == forest.matched[arcs[i + 1]]:
                self._fail("blossom path does not alternate at an atomic node")

        if len(rec.segments) == 1:
            eta_matched = forest.matched[rec.base_node]
            if forest.matched[arcs[0]] == eta_matched:
                self._fail("blossom path starts with the base edge's M-type")
            last = children[-1]
            if last is None:
                if forest.vertex[arcs[-1]] != base_vertex:
                    self._fail("closed trail does not return to the base vertex")
                if forest.matched[arcs[-1]] != forest.matched[arcs[0]]:
                    self._fail("extreme edges of a base-case blossom differ in M-type")
            else:
                if all(forest.vertex[a] != base_vertex for a in last.iter_nodes()):
                    self._fail("skew blossom's final sub-blossom misses the base vertex")
        else:
            if children[-1] is not None:
                self._fail("enlargement path ends in a contracted blossom")
            if forest.vertex[arcs[-1]] != forest.vertex[seg.closure_node]:
                self._fail("enlargement does not close at the popping node's vertex")

        self._check_one_blossom_per_vertex()
        self._check_subtree(rec)

    def _check_one_blossom_per_vertex(self) -> None:
        seen: dict[int, int] = {}
        for root, rec in self.store.root_record.items():
            for nd in rec.iter_nodes():
                v = self.forest.vertex[nd]
                if seen.setdefault(v, root) != root:
                    self._fail(f"vertex {v} occurs in two blossoms")

    def _check_subtree(self, rec: BlossomRecord) -> None:
        nodes = set(rec.iter_nodes())
        for nd in nodes:
            if nd == rec.base_node:
                continue
            t = self.forest.tail[nd]
            if t < 0 or t not in nodes:
                self._fail(f"blossom node {nd} detaches from the base subtree")

    def check_final(self) -> None:
        """Invariants that are only meaningful once the run has halted."""
        if not self.check:
            return
        for a in self.after_e1_arcs:
            if self.child_count[a] != 0:
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
    as if the trails had been rematched.

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
        state = matching
    else:
        state = match_state(g, f, matching)
    run = _Run(g, state, check, trace)
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
    run.run(order)
    run.check_final()
    run.forest.trim(run.n_arcs)
    run.store.trim(run.n_arcs)
    return BlockingResult(
        g=g,
        matched=state.flags,
        trails=run.trails,
        forest=run.forest,
        blossoms=run.store,
        e1_arc=run.e1_arc,
        def_final=run.deficiency,
        searches=run.search_id + 1,
    )
