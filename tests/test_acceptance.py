"""Acceptance suite: one test and one printed pass/fail line per criterion.

Criteria 3, 5 and 6 are defined over the runs of criteria 1 and 2, so those
runs happen once in session-scoped fixtures and the dependent criteria read
the collected tallies.  FTRAILS_ACCEPT_SCALE (0 < s <= 1) thins the
exhaustive criterion-1 stream deterministically for faster development
runs; the default is the full sweep.  The criterion-1 sweep is split
across worker processes and their tallies are summed.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import compress, islice

import pytest

from ftrails.certificate import bound_value, verify
from ftrails.engine import CheckFailure, find_trails
from ftrails.expand import check_gtrail, expand_all, rematch
from ftrails.multigraph import Multigraph
from ftrails.substitute import HEAVY, LIGHT
from helpers import (
    blossom_gadget_config,
    crossing_pattern_sets,
    random_valid_matching,
    subgraph,
    validate_blossoms,
)
from oracle import OracleLimit, brute_max, has_augmenting_trail

SCALE = float(os.environ.get("FTRAILS_ACCEPT_SCALE", "1"))
ORACLE14 = OracleLimit(max_edges=14, max_trail_len=14)
ORACLE16 = OracleLimit(max_edges=16, max_trail_len=16)


def report(criterion: int, name: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    assert ok, line


class Tally:
    def __init__(self) -> None:
        self.instances = 0
        self.phases = 0
        self.size_mismatches: list = []
        self.verify_failures: list = []
        self.bound_mismatches: list = []
        self.check_failures: list = []
        self.pi_failures: list = []
        self.blossoms = 0
        self.residual_pairs: list = []  # (sub-multigraph, f', best) for criterion 4


def exhaustive_instances():
    """Every multigraph with n <= 5, m <= 6, bounds in {1, 2}."""
    for n in range(6):
        slots = [(u, v) for u in range(n) for v in range(u, n)]
        for m in range(0, 7):
            for combo in itertools.combinations_with_replacement(slots, m):
                for f in itertools.product((1, 2), repeat=n):
                    yield n, list(combo), list(f)


def run_to_blocking(g, f, matching, tally: Tally):
    """Iterate phases under --check, verifying each phase's certificate,
    its residual-graph brute bound and every complete blossom's trails.

    Returns the final matching and the final phase's brute bound when its
    residual graph is g itself under f (every edge residual, f' == f), so
    that bound is brute_max(g, f); None after a CheckFailure or otherwise."""
    current = set(matching)
    while True:
        try:
            result = find_trails(g, f, current, check=True)
        except CheckFailure as ex:
            tally.check_failures.append(str(ex).splitlines()[0])
            return current, None
        tally.phases += 1
        rep = verify(result)
        if not rep.ok:
            tally.verify_failures.append(rep.failures[0])
        sub, _ = subgraph(g, compress(range(g.m), rep.residual_edges))
        best, _ = brute_max(sub, rep.f_prime, ORACLE14)
        if rep.bound != best or best != rep.residual_size:
            tally.bound_mismatches.append((rep.bound, best, rep.residual_size))
        tally.pi_failures.extend(validate_blossoms(result))
        tally.blossoms += len(result.blossoms.root_record)
        if not result.trails:
            whole = rep.residual_edges.count(1) == g.m and rep.f_prime == f
            return current, best if whole else None
        trails = expand_all(result)
        for t in trails:
            problems = check_gtrail(g, current, t)
            if problems:
                tally.verify_failures.append(f"bad trail: {problems[0]}")
        current = rematch(g, f, current, trails)


def c1_share(stride: int, shares: int, share: int) -> Tally:
    """Criterion 1 over every shares-th instance of the (thinned) stream,
    starting at the share-th one."""
    tally = Tally()
    thinned = islice(exhaustive_instances(), 0, None, stride)
    for n, edges, f in islice(thinned, share, None, shares):
        g = Multigraph(n, edges)
        final, best = run_to_blocking(g, f, set(), tally)
        if best is None:
            best, _ = brute_max(g, f, ORACLE14)
        if len(final) != best:
            tally.size_mismatches.append((n, edges, f, len(final), best))
        tally.instances += 1
        if tally.instances % 250000 == 0:
            print(f"  ... criterion 1 sweep, share {share}: {tally.instances} instances", flush=True)
    return tally


@pytest.fixture(scope="session")
def c1_tally():
    """The criterion-1 sweep, split over one worker process per CPU (at
    most four); each worker checks an interleaved share of the same stream.
    The executor raises, rather than waits, if a worker dies."""
    stride = max(1, round(1 / SCALE)) if SCALE < 1 else 1
    shares = min(4, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1)
    pool = None
    if shares > 1:
        try:
            pool = ProcessPoolExecutor(shares, mp_context=multiprocessing.get_context("spawn"))
        except OSError:  # no process-shared semaphores here: run in-process
            pass
    started = time.perf_counter()
    if pool is None:
        parts = [c1_share(stride, 1, 0)]
    else:
        with pool:
            parts = list(pool.map(c1_share, [stride] * shares, [shares] * shares, range(shares)))
    tally = Tally()
    for part in parts:
        for name, value in vars(part).items():
            if isinstance(value, list):
                getattr(tally, name).extend(value)
            else:
                setattr(tally, name, getattr(tally, name) + value)
    tally.elapsed = time.perf_counter() - started
    return tally


@pytest.fixture(scope="session")
def c2_tally():
    tally = Tally()
    tally.blocking_failures = []
    rng = random.Random(0xF17A115)
    for _ in range(1000):
        n = rng.randint(1, 8)
        m = rng.randint(0, 14)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
        g = Multigraph(n, edges)
        f = [rng.randint(1, 3) for _ in range(n)]
        matching = random_valid_matching(rng, g, f)
        try:
            result = find_trails(g, f, matching, check=True)
        except CheckFailure as ex:
            tally.check_failures.append(str(ex).splitlines()[0])
            continue
        tally.instances += 1
        tally.phases += 1
        rep = verify(result)
        if not rep.ok:
            tally.verify_failures.append(rep.failures[0])
        sub, remap = subgraph(g, compress(range(g.m), rep.residual_edges))
        m_sub = {remap[e] for e in compress(range(g.m), rep.residual_matching)}
        best, _ = brute_max(sub, rep.f_prime, ORACLE14)
        if best != len(m_sub) or has_augmenting_trail(sub, rep.f_prime, m_sub, ORACLE14):
            tally.blocking_failures.append((n, edges, f, sorted(matching)))
        if rep.bound != best:
            tally.bound_mismatches.append((rep.bound, best))
        tally.pi_failures.extend(validate_blossoms(result))
        tally.residual_pairs.append((sub, rep.f_prime, best))
    return tally


def test_criterion_1_oracle_equivalence(c1_tally):
    detail = (
        f"{c1_tally.instances} instances, {c1_tally.phases} phases, "
        f"{c1_tally.elapsed:.0f}s, scale={SCALE}"
    )
    report(1, "oracle equivalence", not c1_tally.size_mismatches, detail)


def test_criterion_2_blocking_property(c2_tally):
    ok = not c2_tally.blocking_failures and not c2_tally.check_failures
    report(2, "blocking property", ok, f"{c2_tally.instances} seeded instances, one phase each")


def test_criterion_3_certificate_tightness(c1_tally, c2_tally):
    bad = (
        c1_tally.verify_failures
        + c2_tally.verify_failures
        + c1_tally.bound_mismatches
        + c2_tally.bound_mismatches
    )
    detail = f"{c1_tally.phases + c2_tally.phases} verified phases"
    report(3, "certificate tightness", not bad, detail if not bad else f"{detail}; first: {bad[0]}")


def test_criterion_4_weak_duality(c2_tally):
    rng = random.Random(0xD0A1)
    violations = 0
    partitions = 0
    pairs = c2_tally.residual_pairs
    assert pairs
    while partitions < 10000:
        sub, f_prime, best = pairs[partitions % len(pairs)]
        inner, outer = set(), set()
        for v in range(sub.n):
            roll = rng.random()
            if roll < 0.3:
                inner.add(v)
            elif roll < 0.6:
                outer.add(v)
        if bound_value(sub, f_prime, inner, outer) < best:
            violations += 1
        partitions += 1
    report(4, "weak duality", violations == 0, f"{partitions} random (I,O) partitions")


def test_criterion_5_structural_invariants(c1_tally, c2_tally):
    bad = c1_tally.check_failures + c2_tally.check_failures
    detail = f"--check on across {c1_tally.instances + c2_tally.instances} instances"
    report(5, "structural invariants", not bad, detail if not bad else f"first: {bad[0]}")


def test_criterion_6_pi_trail_correctness(c1_tally, c2_tally):
    bad = c1_tally.pi_failures + c2_tally.pi_failures
    blossoms = c1_tally.blossoms + c2_tally.blossoms
    detail = f"{blossoms} blossoms cross-checked against the trail oracle"
    report(6, "pi_trail correctness", not bad, detail if not bad else f"first: {bad[0]}")


# A fixed slice of pure-Python work, the one bench/reference.py samples:
# it allocates nothing and reads 768 bytes, so its time follows the host's
# speed and not the program's.
_SLICE_TABLE = bytes((i * 167 + 13) % 256 for i in range(256))
_SLICE_DATA = bytes((i * 73 + 5) % 256 for i in range(512))


def _slice_s() -> float:
    """The median time of five slices."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        x = 0
        for _ in range(16):
            for b in _SLICE_DATA:
                x = _SLICE_TABLE[x ^ b]
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def _timed_phase(m: int, seed: int = 99) -> tuple[float, float]:
    """The best time of one phase at size m, in seconds and in slices.

    Slices are timed right before and right after each run, so a ratio of
    slice counts between sizes compares work even when the host's speed
    drifts between the runs.
    """
    rng = random.Random(seed)
    n = max(2, m // 2)
    g = Multigraph(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(m)])
    f = [rng.randint(1, 3) for _ in range(n)]
    best_s = best_slices = float("inf")
    # one warm-up plus two timed runs; a fresh process pays allocator
    # warm-up on the first pass, which is not the algorithm's time
    for _ in range(3):
        gc.collect()
        before = _slice_s()
        t0 = time.perf_counter()
        result = find_trails(g, f, set())
        dt = time.perf_counter() - t0
        slice_s = (before + _slice_s()) / 2
        best_s = min(best_s, dt)
        best_slices = min(best_slices, dt / slice_s)
        del result
    return best_s, best_slices


def test_criterion_7_near_linear_phase_time():
    times, work = {}, {}
    for m in (10**4, 10**5, 10**6):
        times[m], work[m] = _timed_phase(m)
    r1 = work[10**5] / work[10**4]
    r2 = work[10**6] / work[10**5]
    ok = r1 <= 15 and r2 <= 15 and times[10**6] < 10
    detail = (
        f"{times[10**4]:.3f}s / {times[10**5]:.3f}s / {times[10**6]:.2f}s; "
        f"ratios in slices {r1:.1f}x, {r2:.1f}x"
    )
    report(7, "near-linear phase time", ok, detail)


def test_criterion_8_substitute_bijection():
    side_pool = [
        (1, 4, True),
        (2, 4, True),
        (1, 4, False),
        (2, 4, False),
        (0, 4, False),
        (1, 3, False),
    ]
    tested = 0
    rejected = 0
    mismatches = []
    for kind in (LIGHT, HEAVY):
        for with_eta in (True, False):
            for bits in range(1 << len(side_pool)):
                sides = [side_pool[i] for i in range(len(side_pool)) if bits >> i & 1]
                matched_sides = sum(1 for s in sides if s[2])
                try:
                    cfg = blossom_gadget_config(kind, with_eta, sides)
                except AssertionError:
                    rejected += 1
                    continue
                try:
                    lhs, rhs = crossing_pattern_sets(*cfg)
                except ValueError:
                    # inconsistent incident pattern for this kind
                    assert (kind == LIGHT and matched_sides > 1) or (
                        kind == HEAVY and matched_sides > 0
                    )
                    rejected += 1
                    continue
                tested += 1
                if lhs != rhs:
                    mismatches.append((kind, with_eta, sides, sorted(lhs), sorted(rhs)))
    detail = f"{tested} configurations ({rejected} inconsistent ones rejected)"
    report(8, "substitute bijection", not mismatches, detail if not mismatches else f"{mismatches[0]}")


def test_criterion_9_one_matching_regression():
    nx = pytest.importorskip("networkx")
    rng = random.Random(0x1A7C)
    failures = 0
    for _ in range(500):
        n = rng.randint(2, 11)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m = rng.randint(0, min(len(pairs), 18))
        edges = rng.sample(pairs, m)
        g = Multigraph(n, edges)
        f = [1] * n
        final: set = set()
        while True:
            result = find_trails(g, f, final, check=True)
            if not result.trails:
                break
            final = rematch(g, f, final, expand_all(result))
        gn = nx.Graph()
        gn.add_nodes_from(range(n))
        gn.add_edges_from(edges)
        reference = len(nx.max_weight_matching(gn, maxcardinality=True))
        if len(final) != reference:
            failures += 1
        elif m <= 16 and brute_max(g, f, ORACLE16)[0] != len(final):
            failures += 1
    report(9, "1-matching regression", failures == 0, "500 random simple graphs vs networkx")
