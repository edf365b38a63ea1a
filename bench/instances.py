"""Generated inputs for the benchmark workloads.

Every instance is kept twice: as raw data (vertex count, edge list, degree
bounds, initial matching) for the independent checker, and as text in the
ftrails instance format, which is all the program receives.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional


@dataclass
class Case:
    """One generated instance plus what the checker knows about it."""

    name: str
    n: int
    edges: list[tuple[int, int]]
    f: list[int]
    matching: list[int]
    text: str
    optimum: Optional[int] = None  # known maximum size, when one is known
    # Known to raise RecursionError (a fault of the program): such a failure
    # is counted as failed; any other failure makes the run incorrect.
    may_fail: bool = False


def instance_text(n: int, edges, f, matching=()) -> str:
    """The instance as ftrails instance-file text (1-based ids)."""
    lines = [f"p ftrails {n} {len(edges)}"]
    lines += [f"f {v + 1} {b}" for v, b in enumerate(f)]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    lines += [f"m {e + 1}" for e in matching]
    return "\n".join(lines) + "\n"


def make_case(name, n, edges, f, matching=(), optimum=None, may_fail=False) -> Case:
    matching = list(matching)
    return Case(name, n, edges, f, matching, instance_text(n, edges, f, matching), optimum, may_fail)


def random_multigraph(rng: random.Random, n: int, m: int, fmax: int = 3):
    """Uniform random endpoints (loops and parallel edges allowed), f in 1..fmax."""
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    f = [rng.randint(1, fmax) for _ in range(n)]
    return edges, f


def greedy_matching(n: int, edges, f) -> list[int]:
    """A maximal f-matching taken greedily in edge order; a loop needs 2."""
    cap = list(f)
    out = []
    for e, (u, v) in enumerate(edges):
        if u == v:
            if cap[u] >= 2:
                cap[u] -= 2
                out.append(e)
        elif cap[u] and cap[v]:
            cap[u] -= 1
            cap[v] -= 1
            out.append(e)
    return out


def triangle_chain(k: int):
    """k triangles, consecutive ones sharing a vertex; its maximum with f = 1 is k."""
    edges = []
    for i in range(k):
        a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
        edges += [(a, b), (b, c), (c, a)]
    n = 2 * k + 1
    return n, edges, [1] * n


def tiny_graphs():
    """Every multigraph with n <= 4 and m <= 5, with every f in {1, 2}^n."""
    for n in range(5):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(6):
            for combo in itertools.combinations_with_replacement(slots, m):
                for f in itertools.product((1, 2), repeat=n):
                    yield n, list(combo), list(f)
