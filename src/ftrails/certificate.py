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

from dataclasses import dataclass, field
from typing import Optional

from .engine import BlockingResult
from .expand import expand_all
from .multigraph import Multigraph

IN_COMPLETE_BLOSSOM = "IN_COMPLETE_BLOSSOM"
ORPHAN = "ORPHAN"


@dataclass
class Labeling:
    label: list[Optional[str]]  # 'I', 'O', or None per vertex
    unlabeled_kind: list[Optional[str]]

    @property
    def inner(self) -> set[int]:
        return {v for v, l in enumerate(self.label) if l == "I"}

    @property
    def outer(self) -> set[int]:
        return {v for v, l in enumerate(self.label) if l == "O"}


@dataclass
class ResidualGraph:
    edges: frozenset[int]
    matching: frozenset[int]
    f_prime: list[int]


@dataclass
class Certificate:
    labeling: Labeling
    components: list[list[int]]
    bound: int
    residual_size: int


@dataclass
class CertificateReport:
    ok: bool
    bound: int
    residual_size: int
    failures: list[str] = field(default_factory=list)
    certificate: Optional[Certificate] = None


def residual_graph(result: BlockingResult) -> ResidualGraph:
    """The graph left over after removing the trails, blossoms retained.

    Residual edges are all edges off the augmenting trails plus every edge
    inside a maximal complete blossom (trail edges included there).  The
    residual matching is the post-rematch matching restricted to the
    residual edges, and the residual degree bound at x is its residual
    matched degree plus its final deficiency.
    """
    g = result.g
    trail_edges: set[int] = set()
    for t in expand_all(result):
        trail_edges.update(t.edges)

    blossom_edges: set[int] = set()
    forest = result.forest
    for rec in result.blossoms.maximal_complete():
        for a in rec.iter_arcs():
            blossom_edges.add(forest.edge[a])

    residual = (set(range(g.m)) - trail_edges) | blossom_edges
    post = set(result.matching) ^ trail_edges
    m_rg = post & residual
    f_prime = list(result.def_final)
    for e in m_rg:
        u, v = g.edges[e]
        f_prime[u] += 1
        f_prime[v] += 1
    return ResidualGraph(frozenset(residual), frozenset(m_rg), f_prime)


def compute_labels(result: BlockingResult) -> Labeling:
    """Label vertices by the M-type of their first returned invocation.

    A vertex is labelled only if some invocation at it returned and it
    does not occur in any complete blossom; otherwise it is unlabelled,
    classified as a complete-blossom member or an orphan.
    """
    g = result.g
    forest = result.forest
    in_complete = [False] * g.n
    for rec in result.blossoms.maximal_complete():
        for nd in rec.iter_nodes():
            in_complete[forest.vertex[nd]] = True

    label: list[Optional[str]] = [None] * g.n
    kind: list[Optional[str]] = [None] * g.n
    for v in range(g.n):
        if result.e1_arc[v] >= 0 and not in_complete[v]:
            label[v] = "O" if forest.matched[result.e1_arc[v]] else "I"
        elif in_complete[v]:
            kind[v] = IN_COMPLETE_BLOSSOM
        else:
            kind[v] = ORPHAN
    return Labeling(label, kind)


def _components(g: Multigraph, edges, unlabeled: list[bool]) -> tuple[list[list[int]], list[int]]:
    """Connected components of the unlabelled vertices over the given edges."""
    comp = [-1] * g.n
    comps: list[list[int]] = []
    adj: dict[int, list[int]] = {}
    for e in edges:
        u, v = g.edges[e]
        if unlabeled[u] and unlabeled[v] and u != v:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    for s in range(g.n):
        if not unlabeled[s] or comp[s] >= 0:
            continue
        cid = len(comps)
        stack = [s]
        comp[s] = cid
        members = [s]
        while stack:
            u = stack.pop()
            for w in adj.get(u, ()):
                if comp[w] < 0:
                    comp[w] = cid
                    stack.append(w)
                    members.append(w)
        comps.append(sorted(members))
    return comps, comp


def bound_value(
    g: Multigraph,
    f: list[int],
    inner: set[int],
    outer: set[int],
    edges=None,
) -> int:
    """Evaluate the odd-set expression for disjoint vertex sets I and O.

    This upper-bounds the size of every f-matching of the (sub)graph for
    any choice of disjoint I and O.
    """
    if inner & outer:
        raise ValueError("I and O overlap")
    if edges is None:
        edges = range(g.m)
    unlabeled = [v not in inner and v not in outer for v in range(g.n)]
    comps, comp = _components(g, edges, unlabeled)

    gamma_o = 0
    cross = [0] * len(comps)
    for e in edges:
        u, v = g.edges[e]
        if u in inner or v in inner:
            continue
        u_out = u in outer
        v_out = v in outer
        if u_out and v_out:
            gamma_o += 1
        elif u_out != v_out:
            cv = comp[v if u_out else u]
            cross[cv] += 1

    total = sum(f[v] for v in inner) + gamma_o
    for cid, members in enumerate(comps):
        fc = sum(f[v] for v in members)
        total += (fc + cross[cid]) // 2
    return total


def verify(result: BlockingResult) -> CertificateReport:
    """Recompute the certificate pieces and check tightness.

    Checks that inner vertices are saturated and never share a matched
    residual edge, that outer-outer residual edges are matched, that each
    unlabelled component meets its rounded term exactly, and that the
    bound equals the residual matching size.
    """
    g = result.g
    forest = result.forest
    rg = residual_graph(result)
    labeling = compute_labels(result)
    inner, outer = labeling.inner, labeling.outer
    unlabeled = [labeling.label[v] is None for v in range(g.n)]
    comps, comp = _components(g, rg.edges, unlabeled)

    failures: list[str] = []

    for v in inner:
        if result.def_final[v] != 0:
            failures.append(f"inner vertex {v} is deficient")

    gamma_o = 0
    cross = [0] * len(comps)
    matched_inner = 0
    matched_cross = [0] * len(comps)
    for e in rg.edges:
        u, v = g.edges[e]
        in_m = e in rg.matching
        if u in inner or v in inner:
            if in_m:
                matched_inner += 1
                if u in inner and v in inner:
                    failures.append(f"matched residual edge {e} joins two inner vertices")
            continue
        u_out, v_out = u in outer, v in outer
        if u_out and v_out:
            gamma_o += 1
            if not in_m:
                failures.append(f"unmatched residual edge {e} joins two outer vertices")
        elif u_out != v_out:
            cid = comp[v if u_out else u]
            cross[cid] += 1
            if in_m:
                matched_cross[cid] += 1
        elif in_m:
            cid = comp[u]
            matched_cross[cid] += 1

    f_inner = sum(rg.f_prime[v] for v in inner)
    if matched_inner != f_inner:
        failures.append(
            f"inner vertices carry {matched_inner} matched residual edges, expected {f_inner}"
        )

    bound = f_inner + gamma_o
    for cid, members in enumerate(comps):
        fc = sum(rg.f_prime[v] for v in members)
        term = (fc + cross[cid]) // 2
        bound += term
        ends = 2 * matched_cross[cid]
        eps = fc + cross[cid] - ends
        if eps not in (0, 1) or matched_cross[cid] != term:
            failures.append(
                f"component {members} has {matched_cross[cid]} matched edges "
                f"against bound term {term}"
            )

    residual_size = len(rg.matching)
    if bound != residual_size:
        failures.append(f"bound {bound} != residual matching size {residual_size}")

    # structure around orphans: a residual edge leaving an orphan either
    # agrees with the labelled end's first-return M-type or is the base
    # edge of a complete blossom based at the unlabelled end
    orphan = [labeling.unlabeled_kind[v] == ORPHAN for v in range(g.n)]
    complete_bases = {
        (forest.vertex[rec.base_node], forest.edge[rec.base_node])
        for rec in result.blossoms.maximal_complete()
    }
    for e in rg.edges:
        u, v = g.edges[e]
        for x, y in ((u, v), (v, u)):
            if not orphan[x] or orphan[y]:
                continue
            if labeling.label[y] is not None:
                e1 = result.e1_arc[y]
                if (e in result.matching) != forest.matched[e1]:
                    failures.append(
                        f"orphan edge {e} disagrees with e1's M-type at vertex {y}"
                    )
            elif (y, e) not in complete_bases:
                failures.append(
                    f"orphan edge {e} enters a complete blossom off its base edge"
                )

    cert = Certificate(
        labeling=labeling,
        components=comps,
        bound=bound,
        residual_size=residual_size,
    )
    return CertificateReport(
        ok=not failures,
        bound=bound,
        residual_size=residual_size,
        failures=failures,
        certificate=cert,
    )


def format_certificate(cert: Certificate) -> str:
    """Serialize a certificate as text, vertices 1-based as in files."""
    lines = []
    lines.append("I " + " ".join(str(v + 1) for v in sorted(cert.labeling.inner)))
    lines.append("O " + " ".join(str(v + 1) for v in sorted(cert.labeling.outer)))
    for k, members in enumerate(cert.components, start=1):
        lines.append(f"C {k}: " + " ".join(str(v + 1) for v in members))
    lines.append(f"bound {cert.bound}")
    lines.append(f"residual {cert.residual_size}")
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
