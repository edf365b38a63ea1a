import hashlib
import io
import random
import subprocess
import sys

import pytest

from ftrails import cli
from ftrails.certificate import parse_certificate
from ftrails.cli import Instance, emit_instance, main, parse_instance
from ftrails.engine import CheckFailure, StructuralError
from ftrails.multigraph import Multigraph
from helpers import random_valid_matching

SINGLE_EDGE = "p ftrails 2 1\ne 1 2\n"
TRIANGLE = "p ftrails 3 3\ne 1 2\ne 2 3\ne 3 1\n"


def run_cli(args, tmp_path=None):
    out = io.StringIO()
    old = sys.stdout
    sys.stdout = out
    try:
        code = main(args)
    finally:
        sys.stdout = old
    return code, out.getvalue()


def test_parse_emit_round_trip():
    inst = Instance(Multigraph(3, [(0, 1), (1, 1), (2, 2)]), [1, 3, 2], {1})
    text = emit_instance(inst)
    again = emit_instance(parse_instance(text))
    assert text == again


def test_parse_rejects_malformed_header():
    with pytest.raises(ValueError):
        parse_instance("p wrong 2 1\ne 1 2\n")


def test_parse_rejects_wrong_edge_count():
    with pytest.raises(ValueError):
        parse_instance("p ftrails 2 2\ne 1 2\n")


def test_parse_rejects_invalid_matching():
    text = "p ftrails 2 2\ne 1 2\ne 1 2\nm 1\nm 2\n"
    with pytest.raises(ValueError):
        parse_instance(text)


def test_parse_rejects_negative_bound():
    with pytest.raises(ValueError, match=r"^line 2: degree bound -1 of vertex 2 is negative$"):
        parse_instance("p ftrails 2 1\nf 2 -1\ne 1 2\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("p ftrails -1 0\n", "line 1: negative size"),
        ("p ftrails 2 -1\n", "line 1: negative size"),
        ("c no problem line\n", "missing problem line"),
        ("", "missing problem line"),
    ],
    ids=["negative-n", "negative-m", "comment-only", "empty"],
)
def test_parse_rejects_sizes_and_a_missing_problem_line(text, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        parse_instance(text)


def test_default_bounds_are_one():
    inst = parse_instance(SINGLE_EDGE)
    assert inst.f == [1, 1]


def test_solve_single_edge(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(SINGLE_EDGE)
    code, out = run_cli(["solve", str(path), "--check"])
    assert code == 0
    assert out.splitlines()[0] == "size 1"


def test_solve_writes_verifiable_certificate(tmp_path):
    inst = tmp_path / "inst.txt"
    cert = tmp_path / "cert.txt"
    inst.write_text(TRIANGLE)
    code, out = run_cli(["solve", str(inst), "--cert-out", str(cert)])
    assert code == 0
    assert "size 1" in out
    # feed the solved matching back: the certificate must prove optimality
    solved = tmp_path / "solved.txt"
    matched = next(l for l in out.splitlines() if l.startswith("matched"))
    solved.write_text(TRIANGLE + "".join(f"m {e}\n" for e in matched.split()[1:]))
    code, out = run_cli(["certify", str(solved), str(cert)])
    assert code == 0
    assert "optimal" in out


def test_certify_not_tight_exits_two(tmp_path):
    inst = tmp_path / "inst.txt"
    cert = tmp_path / "cert.txt"
    inst.write_text(TRIANGLE)  # no matching lines: size 0
    cert.write_text("I\nO\nbound 1\n")
    code, out = run_cli(["certify", str(inst), str(cert)])
    assert code == 2
    assert "not tight" in out


def test_certify_overlapping_sets_is_input_error(tmp_path):
    inst = tmp_path / "inst.txt"
    cert = tmp_path / "cert.txt"
    inst.write_text(TRIANGLE)
    cert.write_text("I 1\nO 1\n")
    code, _ = run_cli(["certify", str(inst), str(cert)])
    assert code == 1


def test_certify_vertex_out_of_range_exits_one_with_one_line(tmp_path, capsys):
    inst = tmp_path / "inst.txt"
    cert = tmp_path / "cert.txt"
    inst.write_text(TRIANGLE)
    cert.write_text("I 4\nO 1\n")
    code, out = run_cli(["certify", str(inst), str(cert)])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: certificate vertex 4 out of range\n"


def test_block_single_edge(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(SINGLE_EDGE)
    code, out = run_cli(["block", str(path)])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "trails 1"
    assert lines[1] == "1"  # the trail's single edge, 1-based
    assert "size 1" in lines


def test_block_at_maximum(tmp_path):
    path = tmp_path / "inst.txt"
    path.write_text(SINGLE_EDGE + "m 1\n")
    code, out = run_cli(["block", str(path)])
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "trails 0"
    bound = next(l for l in lines if l.startswith("bound"))
    residual = next(l for l in lines if l.startswith("residual"))
    assert bound.split()[1] == residual.split()[1]


def test_block_writes_its_certificate(tmp_path):
    inst = tmp_path / "inst.txt"
    cert = tmp_path / "cert.txt"
    inst.write_text("p ftrails 4 5\ne 1 2\ne 2 3\ne 3 1\ne 3 4\ne 4 4\nm 2\n")
    code, out = run_cli(["block", str(inst), "--cert-out", str(cert)])
    assert code == 0
    text = cert.read_text()
    inner, outer, bound = parse_certificate(text)
    assert not inner & outer
    printed = [l for l in out.splitlines() if l.split()[0] in ("bound", "residual")]
    written = [l for l in text.splitlines() if l.split()[0] in ("bound", "residual")]
    assert printed == written and printed[0] == f"bound {bound}" and len(printed) == 2


def test_malformed_file_exits_one(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p nonsense\n")
    code, _ = run_cli(["solve", str(path)])
    assert code == 1


def test_degree_bound_beyond_the_deficiency_array_exits_one_with_one_line(tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text("p ftrails 2 1\nf 1 99999999999\ne 1 2\n")
    for command in ("solve", "block"):
        code, out = run_cli([command, str(path)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            "error: line 2: degree bound 99999999999 of vertex 1 exceeds 2147483647\n"
        )


def test_gen_deterministic(tmp_path):
    code1, out1 = run_cli(["gen", "6", "10", "3", "7"])
    code2, out2 = run_cli(["gen", "6", "10", "3", "7"])
    assert code1 == code2 == 0
    assert out1 == out2


def test_gen_edgeless():
    code, out = run_cli(["gen", "4", "0", "1", "5"])
    assert code == 0
    inst = parse_instance(out)
    assert inst.g.n == 4 and inst.g.m == 0


def test_gen_negative_edge_count_exits_one_with_one_line(capsys):
    code, out = run_cli(["gen", "5", "-3", "2", "1"])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == "error: edge count must be non-negative\n"


FMAX_RANGE = "largest degree bound must be in 1..2147483647"


@pytest.mark.parametrize(
    "args, message",
    [
        (["3", "2", "0", "1"], FMAX_RANGE),
        (["3", "2", "-5", "1"], FMAX_RANGE),
        (["3", "2", "2147483648", "1"], FMAX_RANGE),
        (["2", "1", "1000000000000", "1"], FMAX_RANGE),
        (["0", "3", "1", "1"], "edges need at least one vertex"),
    ],
    ids=["fmax-zero", "fmax-negative", "fmax-above-limit", "fmax-far-above-limit", "no-vertices"],
)
def test_gen_arguments_out_of_range_exit_one_with_one_line(args, message, capsys):
    code, out = run_cli(["gen", *args])
    assert code == 1 and out == ""
    assert capsys.readouterr().err == f"error: {message}\n"


def test_gen_largest_degree_bound_solves(tmp_path):
    code, out = run_cli(["gen", "3", "2", "2147483647", "1"])
    assert code == 0
    path = tmp_path / "inst.txt"
    path.write_text(out)
    assert run_cli(["solve", str(path)])[0] == 0


def test_gen_round_trips_and_solves(tmp_path):
    code, out = run_cli(["gen", "6", "10", "3", "11"])
    inst = parse_instance(out)
    assert inst.g.m == 10
    path = tmp_path / "inst.txt"
    path.write_text(out)
    code, out2 = run_cli(["solve", str(path), "--check"])
    assert code == 0
    assert out2.startswith("size ")


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ftrails.cli", "gen", "3", "2", "1", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("p ftrails 3 2")


def test_main_turns_recursion_and_memory_errors_into_exit_one(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(TRIANGLE)
    for exc in (RecursionError, MemoryError):

        def fail(*_args, **_kwargs):
            raise exc()

        monkeypatch.setattr(cli, "max_f_matching", fail)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


def test_main_turns_engine_faults_into_exit_two(tmp_path, monkeypatch, capsys):
    path = tmp_path / "inst.txt"
    path.write_text(TRIANGLE)
    for exc in (StructuralError, CheckFailure):

        def fail(*_args, **_kwargs):
            raise exc("corrupt forest")

        monkeypatch.setattr(cli, "max_f_matching", fail)
        code, out = run_cli(["solve", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "verification failure: corrupt forest\n"


# Replacement tokens for the fuzz test: numbers stay <= 1000, so no declared
# vertex or edge count exceeds 1000.
FUZZ_TOKENS = ["0", "1", "2", "3", "-1", "7", "1000", "x", "3.5", "", "p", "e", "f", "m",
               "ftrails", "I", "O", "C", "bound", "residual", "1:"]


def mutate(rng: random.Random, text: str) -> str:
    """Drop, duplicate or corrupt one to three lines or tokens."""
    lines = text.splitlines()
    for _ in range(rng.randint(1, 3)):
        if not lines:
            lines.append(rng.choice(FUZZ_TOKENS))
            continue
        i = rng.randrange(len(lines))
        op = rng.randrange(5)
        if op == 0:
            del lines[i]
        elif op == 1:
            lines.insert(i, lines[i])
        else:
            tokens = lines[i].split()
            j = rng.randrange(len(tokens)) if tokens else 0
            if op == 2 and tokens:
                del tokens[j]
            elif op == 3 and tokens:
                tokens.insert(j, tokens[j])
            elif tokens:
                tokens[j] = rng.choice(FUZZ_TOKENS)
            else:
                tokens.append(rng.choice(FUZZ_TOKENS))
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


def test_mutated_instances_and_certificates_never_crash(tmp_path, capsys):
    rng = random.Random(2718)
    code, generated = run_cli(["gen", "8", "12", "2", "3"])
    assert code == 0
    bases = [TRIANGLE, SINGLE_EDGE + "m 1\n", generated + "m 2\nm 5\n",
             "p ftrails 3 4\nf 1 2\ne 1 1\ne 1 2\ne 2 3\ne 3 3\nm 2\n"]
    inst, cert, bad = tmp_path / "inst.txt", tmp_path / "cert.txt", tmp_path / "bad.txt"
    certs = []
    for text in bases:
        inst.write_text(text)
        code, _ = run_cli(["solve", str(inst), "--cert-out", str(cert)])
        assert code == 0
        certs.append(cert.read_text())
    capsys.readouterr()
    for k in range(150):
        b = k % len(bases)
        bad.write_text(mutate(rng, bases[b]))
        inst.write_text(bases[b])
        cert.write_text(mutate(rng, certs[b]))
        runs = (
            ["solve", str(bad), "--check"],
            ["block", str(bad)],
            ["certify", str(bad), str(cert)],
            ["certify", str(inst), str(cert)],
        )
        for args in runs:
            code, _ = run_cli(args)
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (args, bad.read_text(), cert.read_text())
            assert "Traceback" not in err


def test_block_output_pinned(tmp_path):
    # sha256 of block's output and exit codes on generated instances, with
    # and without an initial matching, recorded before block shared the
    # phase function of the solver
    digest = hashlib.sha256()
    path = tmp_path / "inst.txt"
    for seed in range(12):
        code, text = run_cli(["gen", "40", "90", "3", str(seed)])
        assert code == 0
        inst = parse_instance(text)
        matching = random_valid_matching(random.Random(seed), inst.g, inst.f)
        for extra in ("", "".join(f"m {e + 1}\n" for e in sorted(matching)[::2])):
            path.write_text(text + extra)
            code, out = run_cli(["block", str(path)])
            digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == "13193dd7429d930d0cab91856f24c45034800adb9fe47e4d920b4dff9c9e3baf"
