"""
Command-line interface and instance file handling.

Instance files are DIMACS-flavoured text, 1-based vertex ids:

    p ftrails <n> <m>
    f <v> <bound>          optional; bounds default to 1
    e <u> <v>              one line per parallel copy; u == v is a loop
    m <edge-index>         optional initial-matching edges, 1-based

Commands: solve (iterate phases to a maximum f-matching), block (one
blocking-trail phase from the file's matching), certify (check a stored
certificate against the file's matching), gen (emit a random instance).
Exit codes: 0 success/verified, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from typing import Optional, TextIO

from .certificate import (
    bound_value,
    format_certificate,
    parse_certificate,
    verify,
)
from .engine import CheckFailure, StructuralError
from .driver import max_f_matching, run_phase
from .multigraph import F_MAX, Multigraph, match_state, validate_matching


@dataclass
class Instance:
    g: Multigraph
    f: list[int]
    matching: set[int]


def parse_instance(text: str) -> Instance:
    """Parse an instance file; raises ValueError with a line number."""
    n = m = -1
    bounds: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    matching: set[int] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        try:
            if parts[0] == "p":
                if n >= 0:
                    raise ValueError("duplicate problem line")
                if len(parts) != 4 or parts[1] != "ftrails":
                    raise ValueError("expected 'p ftrails <n> <m>'")
                n, m = int(parts[2]), int(parts[3])
                if n < 0 or m < 0:
                    raise ValueError("negative size")
            elif parts[0] == "f":
                v, b = int(parts[1]), int(parts[2])
                if not (1 <= v <= n):
                    raise ValueError(f"vertex {v} out of range")
                if b < 0:
                    raise ValueError(f"degree bound {b} of vertex {v} is negative")
                if b > F_MAX:
                    raise ValueError(f"degree bound {b} of vertex {v} exceeds {F_MAX}")
                bounds[v - 1] = b
            elif parts[0] == "e":
                u, v = int(parts[1]), int(parts[2])
                if not (1 <= u <= n and 1 <= v <= n):
                    raise ValueError(f"edge endpoint out of range: {u} {v}")
                edges.append((u - 1, v - 1))
            elif parts[0] == "m":
                e = int(parts[1])
                if not (1 <= e <= m):
                    raise ValueError(f"matching edge index {e} out of range")
                matching.add(e - 1)
            else:
                raise ValueError(f"unknown line type {parts[0]!r}")
        except (ValueError, IndexError) as ex:
            raise ValueError(f"line {lineno}: {ex}") from None
    if n < 0:
        raise ValueError("missing problem line")
    if len(edges) != m:
        raise ValueError(f"expected {m} edge lines, found {len(edges)}")
    g = Multigraph(n, edges)
    f = [bounds.get(v, 1) for v in range(n)]
    bad = validate_matching(g, f, matching)
    if bad:
        raise ValueError(f"initial matching violates bounds at vertices {[v+1 for v in bad]}")
    return Instance(g, f, matching)


def emit_instance(inst: Instance) -> str:
    lines = [f"p ftrails {inst.g.n} {inst.g.m}"]
    lines += [f"f {v + 1} {b}" for v, b in enumerate(inst.f)]
    lines += [f"e {u + 1} {v + 1}" for u, v in inst.g.edges]
    lines += [f"m {e + 1}" for e in sorted(inst.matching)]
    return "\n".join(lines) + "\n"


def _load(path: str) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def cmd_solve(args: argparse.Namespace, out: TextIO) -> int:
    inst = _load(args.instance)
    trace = (lambda s: print(s, file=sys.stderr)) if args.trace else None
    report = max_f_matching(inst.g, inst.f, inst.matching, check=args.check, trace=trace)
    print(f"size {len(report.matching)}", file=out)
    print("matched " + " ".join(str(e + 1) for e in sorted(report.matching)), file=out)
    print(f"phases {report.phases}", file=out)
    cert_text = format_certificate(report.certificate)
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(cert_text)
    return 0


def cmd_block(args: argparse.Namespace, out: TextIO) -> int:
    inst = _load(args.instance)
    trace = (lambda s: print(s, file=sys.stderr)) if args.trace else None
    state = match_state(inst.g, inst.f, inst.matching)
    result, trails, rematched = run_phase(inst.g, inst.f, state, args.check, trace)
    print(f"trails {len(trails)}", file=out)
    for t in trails:
        print(" ".join(str(e + 1) for e in t.edges), file=out)
    print(f"size {rematched.flags.count(1)}", file=out)
    report = verify(result)
    print(f"bound {report.bound}", file=out)
    print(f"residual {report.residual_size}", file=out)
    if args.cert_out:
        with open(args.cert_out, "w", encoding="utf-8") as fh:
            fh.write(format_certificate(report))
    return 0 if report.ok else 2


def cmd_certify(args: argparse.Namespace, out: TextIO) -> int:
    inst = _load(args.instance)
    with open(args.certificate, "r", encoding="utf-8") as fh:
        inner, outer, _bound = parse_certificate(fh.read())
    for v in inner | outer:
        if not (0 <= v < inst.g.n):
            raise ValueError(f"certificate vertex {v + 1} out of range")
    value = bound_value(inst.g, inst.f, inner, outer)
    size = len(inst.matching)
    print(f"bound {value}", file=out)
    print(f"size {size}", file=out)
    if value == size:
        print("optimal", file=out)
        return 0
    print("not tight", file=out)
    return 2


def cmd_gen(args: argparse.Namespace, out: TextIO) -> int:
    rng = random.Random(args.seed)
    n, m = args.n, args.m
    if m < 0:
        raise ValueError("edge count must be non-negative")
    if n <= 0 and m > 0:
        raise ValueError("edges need at least one vertex")
    if not 1 <= args.fmax <= F_MAX:
        raise ValueError(f"largest degree bound must be in 1..{F_MAX}")
    edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(m)]
    f = [rng.randint(1, args.fmax) for _ in range(n)]
    inst = Instance(Multigraph(n, edges), f, set())
    out.write(emit_instance(inst))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftrails",
        description="Blocking augmenting trails and maximum-cardinality f-matchings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("instance", help="instance file")
        p.add_argument("--check", action="store_true", help="enable engine assertions")
        p.add_argument("--trace", action="store_true", help="log search steps to stderr")
        p.add_argument("--cert-out", metavar="PATH", help="write the certificate here")

    p_solve = sub.add_parser("solve", help="maximum-cardinality f-matching")
    common(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_block = sub.add_parser("block", help="one blocking-trail phase")
    common(p_block)
    p_block.set_defaults(func=cmd_block)

    p_cert = sub.add_parser("certify", help="check a certificate against a matching")
    p_cert.add_argument("instance")
    p_cert.add_argument("certificate")
    p_cert.set_defaults(func=cmd_certify)

    p_gen = sub.add_parser("gen", help="emit a random instance")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("m", type=int)
    p_gen.add_argument("fmax", type=int)
    p_gen.add_argument("seed", type=int)
    p_gen.set_defaults(func=cmd_gen)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, sys.stdout)
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: input nests deeper than the interpreter's recursion limit", file=sys.stderr)
        return 1
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except (CheckFailure, StructuralError) as ex:
        print(f"verification failure: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
