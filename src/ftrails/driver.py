"""
Phase iteration to a maximum-cardinality f-matching.

Each phase finds a blocking set of augmenting trails and rematches them;
the matching grows by the number of trails found.  When a phase comes up
empty the residual graph is the whole graph, so that phase's certificate
bounds every f-matching of the input and proves global maximality.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Optional

from .certificate import CertificateReport, verify
from .engine import BlockingResult, StructuralError, find_trails
from .expand import GTrail, expand_all, rematch
from .multigraph import MatchState, Multigraph, match_state


@dataclass
class SolveReport:
    matching: set[int]
    trail_counts: list[int]  # per phase, the last (empty) phase's 0 included
    certificate: CertificateReport  # the final phase's, verified

    @property
    def phases(self) -> int:
        return len(self.trail_counts)


def run_phase(
    g: Multigraph,
    f: list[int],
    state: MatchState,
    check: bool = False,
    trace: Optional[Callable[[str], None]] = None,
) -> tuple[BlockingResult, list[GTrail], MatchState]:
    """One blocking phase: find the trails, expand them and rematch.

    Returns the contracted run (for verify), the expanded trails and the
    rematched state, which is state itself when no trail was found; state
    is left as it was.
    """
    result = find_trails(g, f, state, check=check, trace=trace)
    trails = expand_all(result)
    return result, trails, rematch(g, f, state, trails) if trails else state


def max_f_matching(
    g: Multigraph,
    f: list[int],
    init: Optional[set[int]] = None,
    check: bool = False,
    trace: Optional[Callable[[str], None]] = None,
) -> SolveReport:
    """Compute a maximum-cardinality f-matching with a verified certificate.

    The solve holds one MatchState: it is built from init once, with
    validate_matching's checks, and each phase's rematch makes the next
    one in time linear in its trails.  The matching set is built once,
    from the final state.

    Parameters:
        g: the multigraph.
        f: per-vertex degree bounds.
        init: optional starting matching (defaults to empty).
        check: enable engine invariant assertions on every phase, the
            carried state's deficiencies included.
        trace: optional per-step trace sink.

    Returns:
        A SolveReport with the matching, the per-phase trail counts and
        the final (verified) optimality certificate.

    Raises:
        ValueError: if f does not fit g or the initial matching is invalid.
        StructuralError: if the final certificate fails verification.
    """
    state = match_state(g, f, set(init) if init is not None else set())
    phi = sum(f)
    trail_counts: list[int] = []
    while True:
        result, trails, rematched = run_phase(g, f, state, check, trace)
        if not trails:
            report = verify(result)
            if not report.ok:
                raise StructuralError(
                    "certificate verification failed: " + "; ".join(report.failures)
                )
            return SolveReport(
                matching=set(compress(range(g.m), state.flags)),
                trail_counts=trail_counts + [0],
                certificate=report,
            )
        state = rematched
        trail_counts.append(len(trails))
        if len(trail_counts) > phi // 2 + 1:
            raise StructuralError("phase count exceeded the termination bound")
