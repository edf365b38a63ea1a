"""
Optimality certificates for blocking-trail runs.

After a run halts, vertices are labelled I or O from the M-type of the
first invocation that returned at them; vertices inside complete blossoms
and vertices whose invocations never returned stay unlabelled.  On the
residual graph, the labelled sets realize the generalized odd-set bound

    f(I) + |gamma(O)| + sum_C floor((f(C) + |E[C,O]|) / 2)

with C running over the connected components of the unlabelled vertices,
and the bound is tight for the residual matching.  verify() recomputes
everything and checks tightness piece by piece.
"""

from __future__ import annotations

from collections.abc import Container
from dataclasses import dataclass
from itertools import compress
from operator import add, index, mul, ne
from typing import NamedTuple, Optional

from .engine import _FLIP, BlockingResult, preorder
from .expand import expand_all
from .multigraph import Multigraph, check_inputs

IN_COMPLETE_BLOSSOM = "IN_COMPLETE_BLOSSOM"
ORPHAN = "ORPHAN"

# Vertex codes of a labelling, one byte per vertex.  bound_value gives
# every vertex outside I and O the code of a complete-blossom member, so
# only verify meets orphans.
_IN_COMPLETE, _INNER, _OUTER, _ORPHAN = 0, 1, 2, 3
_LABEL: tuple[Optional[str], ...] = (None, "I", "O", None)
_KIND: tuple[Optional[str], ...] = (IN_COMPLETE_BLOSSOM, None, None, ORPHAN)
_IS_INNER = bytes.maketrans(b"\x00\x01\x02\x03", b"\x00\x01\x00\x00")
_IS_OUTER = bytes.maketrans(b"\x00\x01\x02\x03", b"\x00\x00\x01\x00")
_IS_UNLABELED = bytes.maketrans(b"\x00\x01\x02\x03", b"\x01\x00\x00\x01")
_E1_CODE = bytes.maketrans(b"\x00\x01", bytes((_INNER, _OUTER)))  # by e1's M-type
_HALF = (2).__rfloordiv__  # x // 2


@dataclass
class Labeling:
    code: bytearray  # the vertex codes

    @property
    def label(self) -> list[Optional[str]]:
        """'I', 'O', or None per vertex."""
        return list(map(_LABEL.__getitem__, self.code))

    @property
    def unlabeled_kind(self) -> list[Optional[str]]:
        """IN_COMPLETE_BLOSSOM, ORPHAN, or None (labelled) per vertex."""
        return list(map(_KIND.__getitem__, self.code))

    @property
    def inner(self) -> set[int]:
        return set(compress(range(len(self.code)), self.code.translate(_IS_INNER)))

    @property
    def outer(self) -> set[int]:
        return set(compress(range(len(self.code)), self.code.translate(_IS_OUTER)))


@dataclass
class ResidualGraph:
    edges: frozenset[int]
    matching: frozenset[int]
    f_prime: list[int]


@dataclass
class CertificateReport:
    ok: bool
    bound: int
    residual_size: int
    labeling: Labeling
    components: list[list[int]]  # of the unlabelled vertices, sorted
    failures: list[str]


def _walk_complete(result: BlockingResult) -> tuple[bytearray, bytearray, set[tuple[int, int]]]:
    """One walk over the maximal complete blossoms (engine.preorder): flags
    of the vertices they hold and of the edges inside them, and their (base
    vertex, base edge) pairs."""
    forest = result.forest
    vertex, edge = forest.vertex, forest.edge
    in_complete = bytearray(result.g.n)
    inside = bytearray(result.g.m)
    bases: set[tuple[int, int]] = set()
    records = result.blossoms.maximal_complete()
    order, span = preorder(records)
    for rec in records:
        lo, hi = span[rec]
        base = order[lo]
        bases.add((vertex[base], edge[base]))
        in_complete[vertex[base]] = 1
        for a in order[lo + 1 : hi]:
            in_complete[vertex[a]] = 1
            inside[edge[a]] = 1
    return in_complete, inside, bases


def _codes(result: BlockingResult, in_complete: bytearray) -> bytearray:
    """The vertex codes: inner or outer by the M-type of the first returned
    invocation, unless the vertex is in a complete blossom or never returned.

    One C-level map reads each vertex's code off its e1 arc; an e1 of -1
    (nothing returned) reads the orphan code placed after the last arc."""
    code_of_arc = result.forest.matched.translate(_E1_CODE) + bytes((_ORPHAN,))
    code = bytearray(map(code_of_arc.__getitem__, result.e1_arc))
    for v in compress(range(len(code)), in_complete):
        code[v] = _IN_COMPLETE
    return code


def _residual(result: BlockingResult, inside: bytearray) -> tuple[bytes, bytes, bytes]:
    """Flags of the residual edges, of the residual matching and of the
    matching the run started from.

    The flag arrays are combined bytewise as big integers, each converted
    once."""
    m = result.g.m
    trail = bytearray(m)
    for t in expand_all(result):
        for e in t.edges:
            trail[e] = 1
    before = result.matched
    as_int = int.from_bytes
    residual_i = as_int(trail.translate(_FLIP), "big") | as_int(inside, "big")
    matched_i = (as_int(before, "big") ^ as_int(trail, "big")) & residual_i
    return residual_i.to_bytes(m, "big"), matched_i.to_bytes(m, "big"), before


class _OddSet(NamedTuple):
    """The odd-set expression's pieces over a set of edges, per labelling."""

    bound: int  # the odd-set expression's value
    f_inner: int  # the degree bound summed over I
    gamma_o: int  # edges with both ends in O
    components: list[list[int]]  # of the unlabelled vertices, sorted
    # each component's rounded term: f summed over it plus its edges to O, halved
    comp_term: list[int]
    comp_matched: list[int]  # matched edges inside or leaving each component, I excluded
    matched_inner: int  # matched edges with an end in I
    inner_pairs: list[int]  # matched edges with both ends in I
    open_outer: list[int]  # unmatched edges with both ends in O
    # edges with exactly one orphan end whose other end is labelled with
    # the wrong first-return M-type, or lies in a complete blossom the edge
    # does not enter by its base edge
    orphan_mistyped: list[int]
    orphan_off_base: list[int]


def _odd_set(
    g: Multigraph,
    base: list[int],
    code: bytearray,
    edges,
    matched: bytes,
    before: bytes = b"",
    bases: Container[tuple[int, int]] = frozenset(),
) -> _OddSet:
    """One pass over the given edge ids, then one over the unlabelled
    vertices, under the vertex codes and the matched-edge flags.

    The degree bound is base plus each vertex's matched degree over the
    given edges (a loop counting twice), added up in the same pass where
    the expression reads it, at inner and unlabelled vertices: f' when
    base is the final deficiency and the edges are the residual ones, f
    itself when nothing is matched.

    Only verify's codes have orphans; their edges are checked against the
    flags of the matching before the run and the complete blossoms'
    (base vertex, base edge) pairs.  The components come from a
    union-find over the edges between unlabelled vertices; the pass
    allocates no object per edge.
    """
    n = g.n
    ends = g.edges
    f = list(base)
    cross = [0] * n  # per unlabelled vertex
    hits = [0] * n
    root = list(range(n))
    gamma_o = matched_inner = 0
    inner_pairs: list[int] = []
    open_outer: list[int] = []
    orphan_mistyped: list[int] = []
    orphan_off_base: list[int] = []
    for e in edges:
        u, v = ends[e]
        cu = code[u]
        cv = code[v]
        me = matched[e]
        # an orphan end is tested in the branch of its other end's code
        if cu == _INNER or cv == _INNER:
            if me:
                matched_inner += 1
                f[u] += 1
                f[v] += 1
                if cu == cv:
                    inner_pairs.append(e)
            if cu + cv == _INNER + _ORPHAN and before[e]:
                orphan_mistyped.append(e)
        elif cu == _OUTER:
            if cv == _OUTER:
                gamma_o += 1
                if not me:
                    open_outer.append(e)
            else:
                cross[v] += 1
                if me:
                    hits[v] += 1
                    f[v] += 1
                if cv == _ORPHAN and not before[e]:
                    orphan_mistyped.append(e)
        elif cv == _OUTER:
            cross[u] += 1
            if me:
                hits[u] += 1
                f[u] += 1
            if cu == _ORPHAN and not before[e]:
                orphan_mistyped.append(e)
        else:
            if cu != cv and ((u if cu == _IN_COMPLETE else v), e) not in bases:
                orphan_off_base.append(e)
            if me:
                hits[u] += 1
                f[u] += 1
                f[v] += 1
            while root[u] != u:
                root[u] = u = root[root[u]]
            while root[v] != v:
                root[v] = v = root[root[v]]
            root[u] = v

    components: list[list[int]] = []
    comp_f: list[int] = []
    comp_cross: list[int] = []
    comp_matched: list[int] = []
    comp_of = [-1] * n  # per union-find root
    for s in compress(range(n), code.translate(_IS_UNLABELED)):
        r = s
        while root[r] != r:
            root[r] = r = root[root[r]]
        cid = comp_of[r]
        if cid < 0:
            comp_of[r] = len(components)
            components.append([s])
            comp_f.append(f[s])
            comp_cross.append(cross[s])
            comp_matched.append(hits[s])
        else:
            components[cid].append(s)
            comp_f[cid] += f[s]
            comp_cross[cid] += cross[s]
            comp_matched[cid] += hits[s]
    f_inner = sum(compress(f, code.translate(_IS_INNER)))
    comp_term = list(map(_HALF, map(add, comp_f, comp_cross)))
    return _OddSet(
        f_inner + gamma_o + sum(comp_term), f_inner, gamma_o, components, comp_term,
        comp_matched, matched_inner, inner_pairs, open_outer, orphan_mistyped, orphan_off_base,
    )


def residual_graph(result: BlockingResult) -> ResidualGraph:
    """The graph left over after removing the trails, blossoms retained.

    Residual edges are all edges off the augmenting trails plus every edge
    inside a maximal complete blossom (trail edges included there).  The
    residual matching is the post-rematch matching restricted to the
    residual edges, and the residual degree bound at x is its residual
    matched degree plus its final deficiency.
    """
    g = result.g
    residual, matched, _before = _residual(result, _walk_complete(result)[1])
    ids = range(g.m)
    f_prime = list(result.def_final)
    for u, v in map(g.edges.__getitem__, compress(ids, matched)):
        f_prime[u] += 1
        f_prime[v] += 1
    return ResidualGraph(
        frozenset(compress(ids, residual)), frozenset(compress(ids, matched)), f_prime
    )


def compute_labels(result: BlockingResult) -> Labeling:
    """Label vertices by the M-type of their first returned invocation.

    A vertex is labelled only if some invocation at it returned and it
    does not occur in any complete blossom; otherwise it is unlabelled,
    classified as a complete-blossom member or an orphan.
    """
    return Labeling(_codes(result, _walk_complete(result)[0]))


def bound_value(
    g: Multigraph,
    f: list[int],
    inner: set[int],
    outer: set[int],
) -> int:
    """Evaluate the odd-set expression for disjoint vertex sets I and O.

    This upper-bounds the size of every f-matching of the (sub)graph for
    any choice of disjoint I and O.  Raises ValueError when f does not fit
    g (check_inputs), when I and O overlap, or when a member of either is
    not a vertex id.
    """
    check_inputs(g, f, ())
    if inner & outer:
        raise ValueError("I and O overlap")
    code = bytearray(g.n)
    for c, vertices in ((_INNER, inner), (_OUTER, outer)):
        for v in vertices:
            try:
                i = index(v)
            except TypeError:
                raise ValueError(f"vertex {v!r} is not a vertex id") from None
            if not 0 <= i < g.n:
                raise ValueError(f"vertex {v} out of range")
            code[i] = c
    return _odd_set(g, f, code, range(g.m), bytes(g.m)).bound


def verify(result: BlockingResult) -> CertificateReport:
    """Recompute the certificate pieces and check tightness.

    Checks that inner vertices are saturated and never share a matched
    residual edge, that outer-outer residual edges are matched, that each
    unlabelled component meets its rounded term exactly, and that the
    bound equals the residual matching size.

    Everything comes from the result alone: one walk over the maximal
    complete blossoms, one C-level map for the vertex codes, flag arrays
    for the trail, matching and residual edges, and one pass over the
    residual edges, which also adds up f' from the final deficiencies.
    """
    g = result.g
    in_complete, inside, complete_bases = _walk_complete(result)
    code = _codes(result, in_complete)
    residual, matched, before = _residual(result, inside)
    odd = _odd_set(
        g, result.def_final, code, compress(range(g.m), residual), matched, before,
        complete_bases,
    )

    failures = []
    for v in compress(range(g.n), map(mul, code.translate(_IS_INNER), result.def_final)):
        failures.append(f"inner vertex {v} is deficient")
    for e in odd.inner_pairs:
        failures.append(f"matched residual edge {e} joins two inner vertices")
    for e in odd.open_outer:
        failures.append(f"unmatched residual edge {e} joins two outer vertices")
    if odd.matched_inner != odd.f_inner:
        failures.append(
            f"inner vertices carry {odd.matched_inner} matched residual edges, "
            f"expected {odd.f_inner}"
        )
    # a component's matched edges equal its term exactly when its f plus
    # its edges to O leave 0 or 1 over twice its matched edges
    terms, hits = odd.comp_term, odd.comp_matched
    for c in compress(range(len(terms)), map(ne, hits, terms)):
        failures.append(
            f"component {odd.components[c]} has {hits[c]} matched edges "
            f"against bound term {terms[c]}"
        )

    bound = odd.bound
    residual_size = matched.count(1)
    if bound != residual_size:
        failures.append(f"bound {bound} != residual matching size {residual_size}")

    # structure around orphans: a residual edge leaving an orphan either
    # agrees with the labelled end's first-return M-type or is the base
    # edge of a complete blossom based at the unlabelled end
    ends = g.edges
    for e in odd.orphan_mistyped:
        u, v = ends[e]
        y = u if code[v] == _ORPHAN else v
        failures.append(f"orphan edge {e} disagrees with e1's M-type at vertex {y}")
    for e in odd.orphan_off_base:
        failures.append(f"orphan edge {e} enters a complete blossom off its base edge")

    return CertificateReport(
        not failures, bound, residual_size, Labeling(code), odd.components, failures
    )


def format_certificate(report: CertificateReport) -> str:
    """Serialize a certificate as text, vertices 1-based as in files."""
    lines = []
    lines.append("I " + " ".join(str(v + 1) for v in sorted(report.labeling.inner)))
    lines.append("O " + " ".join(str(v + 1) for v in sorted(report.labeling.outer)))
    for k, members in enumerate(report.components, start=1):
        lines.append(f"C {k}: " + " ".join(str(v + 1) for v in members))
    lines.append(f"bound {report.bound}")
    lines.append(f"residual {report.residual_size}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str) -> tuple[set[int], set[int], Optional[int]]:
    """Read the I and O sets (0-based) and the bound from certificate text."""
    inner: set[int] = set()
    outer: set[int] = set()
    bound: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "I":
                inner.update(int(p) - 1 for p in parts[1:])
            elif parts[0] == "O":
                outer.update(int(p) - 1 for p in parts[1:])
            elif parts[0] == "bound":
                bound = int(parts[1])
            elif parts[0] in ("C", "residual"):
                pass
            else:
                raise ValueError(f"unknown line type {parts[0]!r}")
        except (ValueError, IndexError) as ex:
            raise ValueError(f"certificate line {lineno}: {ex}") from None
    return inner, outer, bound
