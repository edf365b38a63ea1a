"""Benchmark of the ftrails solve, phase and blossom paths.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from src/.  One
process and one thread run one workload: set-up parses every generated
instance text, then whole rounds of operations run until another round
would overrun S seconds (at least one round).  Every operation's result
is checked by checker.py, which does not use ftrails.  Times are scaled
to a reference host speed, sampled while they run (reference.py).  The
last line of standard output is a JSON object with correct, attempted,
failed and the metrics: end-to-end ones with --trace 0, per-layer ones
with --trace 1.
See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

clock = time.perf_counter


def import_ftrails():
    """Import the package under test from src/ of this checkout."""
    if not (SRC / "ftrails" / "__init__.py").is_file():
        sys.exit(f"error: no ftrails package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import ftrails
    from ftrails import certificate, cli, driver, engine, expand, multigraph

    if Path(ftrails.__file__).resolve().parent != SRC / "ftrails":
        sys.exit(f"error: imported ftrails from {ftrails.__file__}, not from {SRC}")
    return certificate, cli, driver, engine, expand, multigraph


import checker
import instances
from reference import HostSpeed
from spans import Tracer

# Workload sizes.  The instance pools of the solve workloads are generated
# from fixed seeds, so every run repeats the same operations and the exact
# counts (phases_per_op) are the same in every run; --seed orders them.
SPARSE_M, SPARSE_POOL = 10_000, 4
DENSE_M, DENSE_POOL = 4_000, 6
# From a shallow call stack, verify raises RecursionError (in
# BlossomRecord.iter_arcs) from depth 996 on; the depths keep clear of the
# few frames that the benchmark and its tracing add.  Only the chains from
# CHAIN_FAILS on may fail, and only with RecursionError.
CHAIN_DEPTHS = (950, 975, 1000, 1025)
CHAIN_FAILS = 996
LARGE_M = 200_000

WORKLOADS = ("sparse-solve", "dense-solve", "large-phase", "tiny-exhaustive")


def make_cases(workload: str, seed: int) -> list[instances.Case]:
    cases = []
    if workload in ("sparse-solve", "dense-solve"):
        m, pool, ratio = (SPARSE_M, SPARSE_POOL, 2) if workload == "sparse-solve" else (DENSE_M, DENSE_POOL, 4)
        n = m // ratio
        for i in range(pool):
            edges, f = instances.random_multigraph(random.Random(f"{workload}/{i}"), n, m)
            cases.append(instances.make_case(f"random-{i}", n, edges, f))
        if workload == "dense-solve":
            for k in CHAIN_DEPTHS:
                n, edges, f = instances.triangle_chain(k)
                cases.append(instances.make_case(
                    f"chain-{k}", n, edges, f, optimum=k, may_fail=k >= CHAIN_FAILS))
    elif workload == "large-phase":
        n = LARGE_M // 2
        edges, f = instances.random_multigraph(random.Random(f"{workload}/{seed}"), n, LARGE_M)
        greedy = instances.greedy_matching(n, edges, f)
        cases.append(instances.make_case("greedy", n, edges, f, greedy))
    else:
        for n, edges, f in instances.tiny_graphs():
            cases.append(instances.make_case("tiny", n, edges, f, optimum=checker.brute_max(n, edges, f)))
    return cases


class Bench:
    def __init__(self, workload: str, seed: int, mods, tracer: Tracer | None) -> None:
        self.certificate, _, self.driver, self.engine, self.expand, _ = mods
        self.workload = workload
        self.rng = random.Random(seed)
        self.check_mode = workload == "tiny-exhaustive"
        self.tracer = tracer
        if tracer is not None:
            *self.layers, self.replay = layer_targets(mods, tracer)
        else:
            self.layers = None
        self.plain_s = self.traced_s = 0.0  # paired blocks of a traced run
        self.traced_ops = 0
        self.problems: list[str] = []  # the first few, for the log
        self.wrong = 0
        self.errors: dict[str, int] = {}
        self.attempted = self.failed = self.phases = self.edges = 0
        self.op_s = self.ok_s = 0.0
        self.host = HostSpeed()

    # -- operations --------------------------------------------------------

    def run_round(self, work) -> None:
        """Every operation once, in an order drawn from the seed.

        In a traced run the round goes in blocks (about 50 per round), each
        run once untraced and once traced, in random order; paired blocks
        see the same host speed, so their time difference is the tracing
        overhead.
        """
        order = list(range(len(work)))
        self.rng.shuffle(order)
        op = self.phase if self.workload == "large-phase" else self.solve
        if self.layers is None:
            for i in order:
                op(*work[i])
            return
        size = max(1, len(order) // 50)
        for k in range(0, len(order), size):
            block = order[k:k + size]
            modes = (False, True) if self.rng.random() < 0.5 else (True, False)
            for traced in modes:
                if traced:
                    self.tracer.install(*self.layers)
                op_s, attempted = self.op_s, self.attempted
                for i in block:
                    op(*work[i])
                    if traced:
                        self.replay()
                if traced:
                    self.tracer.uninstall()
                    self.traced_ops += self.attempted - attempted
                    self.traced_s += self.op_s - op_s
                else:
                    self.plain_s += self.op_s - op_s

    def solve(self, case, inst) -> None:
        traced = self.tracer is not None and self.tracer.installed
        trails_before = self.tracer.counts["engine.trails"] if traced else 0
        t = self.host.mark()
        try:
            rep = self.driver.max_f_matching(inst.g, inst.f, inst.matching, check=self.check_mode)
        except Exception as ex:  # a failed operation is counted, not fatal
            self._failed(case, ex, t)
            return
        self._done(case, t, rep.phases)
        lab = rep.certificate.labeling
        problems = checker.check_maximum(
            case.n, case.edges, case.f, rep.matching, lab.inner, lab.outer, case.optimum
        )
        if traced:
            grown = self.tracer.counts["engine.trails"] - trails_before
            if grown != len(rep.matching) - len(case.matching):
                problems.append(f"phases found {grown} trails, matching grew by "
                                f"{len(rep.matching) - len(case.matching)}")
        self._record(case, problems)

    def phase(self, case, inst) -> None:
        g, f, before = inst.g, inst.f, inst.matching
        t = self.host.mark()
        try:
            res = self.engine.find_trails(g, f, before)
            trails = self.expand.expand_all(res)
            after = self.expand.rematch(g, f, before, trails)
            rep = self.certificate.verify(res)
        except Exception as ex:  # a failed operation is counted, not fatal
            self._failed(case, ex, t)
            return
        self._done(case, t, 1)
        problems = checker.check_phase(
            case.n, case.edges, case.f, set(case.matching), [t.steps for t in trails], after,
            res.def_final,
        )
        if not rep.ok:
            problems.append("residual certificate rejected: " + rep.failures[0])
        self._record(case, problems)

    def _done(self, case, start, phases: int) -> None:
        dt = self.host.since(start)
        self.attempted += 1
        self.op_s += dt
        self.ok_s += dt
        self.edges += len(case.edges)
        self.phases += phases

    def _failed(self, case, ex: Exception, start) -> None:
        """Count a failed operation; only a known fault leaves the run correct."""
        dt = self.host.since(start)
        self.attempted += 1
        self.failed += 1
        self.op_s += dt
        key = f"{case.name}: {type(ex).__name__}"
        self.errors[key] = self.errors.get(key, 0) + 1
        if not (case.may_fail and isinstance(ex, RecursionError)):
            self._record(case, [f"unexpected {type(ex).__name__}: {ex}"])

    def _record(self, case, problems: list[str]) -> None:
        if problems:
            self.wrong += 1
            if len(self.problems) < 20:
                self.problems.append(f"{case.name}: {problems[0]}")


def run_rounds(bench: Bench, work, seconds: float) -> None:
    """Whole rounds until another one would end after the window; at least one."""
    start = clock()
    while True:
        t = clock()
        with bench.host:
            bench.run_round(work)
        now = clock()
        if now - start + (now - t) > seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    host = HostSpeed()
    with host:
        t = host.mark()
        mods = import_ftrails()
        import_s = host.since(t)
        cli = mods[1]

        selftest = checker.self_test()
        cases = make_cases(args.workload, args.seed)

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            targets, hooks, _ = layer_targets(mods, tracer)
            tracer.install(targets[:2], hooks)  # parse_instance and Multigraph only
        t = host.mark()
        work = [(case, cli.parse_instance(case.text)) for case in cases]
        setup_raw = import_s + host.since(t)
    setup_s = setup_raw / host.slowdown
    setup_spans = len(tracer.name) if tracer else 0
    if tracer is not None:
        tracer.uninstall()
        tracer.counts.clear()

    bench = Bench(args.workload, args.seed, mods, tracer)
    run_rounds(bench, work, args.seconds)
    succeeded = bench.attempted - bench.failed
    if succeeded == 0:  # nothing to measure; the run is reported as incorrect
        bench.wrong += 1
        bench.problems.append("every operation failed")
    if tracer is None:
        edges_per_s = bench.edges / bench.ok_s if bench.ok_s else 0.0
        metrics = {
            "setup_s": (setup_s, "s"),
            "edges_per_s": (edges_per_s * bench.host.slowdown, "edges/s"),
            "phases_per_op": (bench.phases / max(1, succeeded), "phases"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        print(f"unscaled: set-up {setup_raw:.4f} s at slowdown {host.slowdown:.4f}, "
              f"{edges_per_s:.1f} edges/s at slowdown {bench.host.slowdown:.4f}",
              file=sys.stderr)
    else:
        metrics = layer_metrics(tracer, setup_spans, bench.traced_ops)
        metrics["trace.overhead"] = (100 * (bench.traced_s / bench.plain_s - 1), "%")
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{args.workload}.spans.csv.gz")

    for key, count in sorted(bench.errors.items()):
        print(f"failed {count}x {key}", file=sys.stderr)
    for line in selftest + bench.problems:
        print(f"incorrect: {line}", file=sys.stderr)
    result = {
        "correct": not selftest and bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    (OUT / f"{args.workload}.trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


# -- traced runs -----------------------------------------------------------


def layer_targets(mods, tracer: Tracer):
    """The functions the layers call each other through, count hooks, and
    the replay of the phases seen since the last replay."""
    certificate, cli, driver, engine, expand, multigraph = mods
    counts = tracer.counts
    find_trails = engine.find_trails
    last_expanded = [None]
    phases = []  # the arguments of each phase, replayed after the operation

    def replay():
        """Time each recorded phase again with an empty order: its set-up alone."""
        tracer.paused = True
        try:
            for g, f, matching, check in phases:
                t = clock()
                find_trails(g, f, matching, order=(), check=check)
                counts["engine.phase_setup_s"] += clock() - t
        finally:
            tracer.paused = False
            phases.clear()

    def after_find(result, args, kwargs, error):
        if error is not None:
            return
        counts["engine.searches"] += result.searches
        counts["engine.arcs"] += len(result.forest.edge)
        counts["engine.trails"] += len(result.trails)
        counts["engine.blossoms"] += len(result.blossoms.base_record)
        counts["engine.max_nesting"] = max(counts["engine.max_nesting"], max_nesting(result))
        phases.append((args[0], args[1], args[2], kwargs.get("check", False)))

    def after_expand(result, args, kwargs, error):
        if error is not None:
            counts["expand.expand_all.failed"] += 1
        elif args[0] is not last_expanded[0]:  # a repeat call returns the cached list
            last_expanded[0] = args[0]
            counts["expand.steps"] += sum(len(t.steps) for t in result)
            counts["expand.contracted_arcs"] += sum(len(t.arcs) for t in args[0].trails)

    def after_verify(result, args, kwargs, error):
        if error is not None or not result.ok:
            counts["certificate.verify.failed"] += 1
        counts["certificate.blossom_arcs"] += blossom_arcs(args[0])

    def after_solve(result, args, kwargs, error):
        if error is None:
            counts["driver.phases"] += result.phases

    targets = [
        (cli, "parse_instance", "cli.parse_instance"),
        (multigraph.Multigraph, "__init__", "multigraph.Multigraph"),
        (multigraph, "validate_matching", "multigraph.validate_matching"),
        (driver, "max_f_matching", "driver.max_f_matching"),
        (engine, "find_trails", "engine.find_trails"),
        (expand, "expand_all", "expand.expand_all"),
        (expand, "rematch", "expand.rematch"),
        (certificate, "verify", "certificate.verify"),
        (certificate, "residual_graph", "certificate.residual_graph"),
        (certificate, "compute_labels", "certificate.compute_labels"),
    ]
    hooks = {
        "engine.find_trails": after_find,
        "expand.expand_all": after_expand,
        "certificate.verify": after_verify,
        "driver.max_f_matching": after_solve,
    }
    return targets, hooks, replay


def max_nesting(result) -> int:
    """Deepest chain of blossoms nested as frozen children, walked iteratively."""
    depth: dict[int, int] = {}
    best = 0
    for rec in result.blossoms.base_record.values():
        stack = [(rec, False)]
        while stack:
            r, done = stack.pop()
            if id(r) in depth:
                continue
            kids = [c for seg in r.segments for c in seg.children if c is not None]
            if done:
                depth[id(r)] = 1 + max((depth[id(c)] for c in kids), default=0)
            else:
                stack.append((r, True))
                stack.extend((c, False) for c in kids)
        best = max(best, depth[id(rec)])
    return best


def blossom_arcs(result) -> int:
    """Forest arcs inside the maximal complete blossoms, walked iteratively."""
    total = 0
    stack = list(result.blossoms.maximal_complete())
    while stack:
        rec = stack.pop()
        for seg in rec.segments:
            total += len(seg.arcs)
            stack.extend(c for c in seg.children if c is not None)
    return total


def layer_metrics(tracer: Tracer, setup_spans: int, ops: int):
    """Per-layer metrics: set-up totals, everything else per traced operation."""
    setup_self, _ = tracer.self_times(0, setup_spans)
    own, calls = tracer.self_times(setup_spans)
    counts = tracer.counts

    def per_op(x):
        return x / ops

    return {
        "cli.parse_instance.s": (setup_self["cli.parse_instance"], "s"),
        "multigraph.Multigraph.s": (setup_self["multigraph.Multigraph"], "s"),
        "multigraph.validate_matching.calls": (per_op(calls["multigraph.validate_matching"]), "count"),
        "multigraph.validate_matching.s": (per_op(own["multigraph.validate_matching"]), "s"),
        "driver.max_f_matching.s": (per_op(own["driver.max_f_matching"]), "s"),
        "driver.phases": (per_op(counts["driver.phases"]), "count"),
        "engine.find_trails.s": (per_op(own["engine.find_trails"]), "s"),
        "engine.phase_setup_s": (per_op(counts["engine.phase_setup_s"]), "s"),
        "engine.searches": (per_op(counts["engine.searches"]), "count"),
        "engine.arcs": (per_op(counts["engine.arcs"]), "count"),
        "engine.trails": (per_op(counts["engine.trails"]), "count"),
        "engine.arcs_per_trail": (counts["engine.arcs"] / max(1.0, counts["engine.trails"]), "ratio"),
        "engine.blossoms": (per_op(counts["engine.blossoms"]), "count"),
        "engine.max_nesting": (counts["engine.max_nesting"], "count"),
        "expand.expand_all.s": (per_op(own["expand.expand_all"]), "s"),
        "expand.steps": (per_op(counts["expand.steps"]), "count"),
        "expand.steps_per_arc": (
            counts["expand.steps"] / max(1.0, counts["expand.contracted_arcs"]), "ratio"),
        "expand.expand_all.failed": (per_op(counts["expand.expand_all.failed"]), "count"),
        "expand.rematch.s": (per_op(own["expand.rematch"]), "s"),
        "certificate.verify.s": (per_op(own["certificate.verify"]), "s"),
        "certificate.residual_graph.s": (per_op(own["certificate.residual_graph"]), "s"),
        "certificate.compute_labels.s": (per_op(own["certificate.compute_labels"]), "s"),
        "certificate.blossom_arcs": (per_op(counts["certificate.blossom_arcs"]), "count"),
        "certificate.verify.failed": (per_op(counts["certificate.verify.failed"]), "count"),
        "runtime.gc_s": (per_op(counts["runtime.gc_s"]), "s"),
        "runtime.gc_collections": (per_op(counts["runtime.gc_collections"]), "count"),
    }


if __name__ == "__main__":
    sys.exit(main())
