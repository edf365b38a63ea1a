import io
import subprocess
import sys

import pytest

from ftrails.cli import Instance, emit_instance, main, parse_instance
from ftrails.multigraph import Multigraph

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


def test_malformed_file_exits_one(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("p nonsense\n")
    code, _ = run_cli(["solve", str(path)])
    assert code == 1


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
