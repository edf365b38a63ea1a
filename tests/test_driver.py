import random

import pytest

from ftrails import driver
from ftrails.cli import main, parse_instance
from ftrails.driver import max_f_matching
from ftrails.engine import StructuralError, find_trails
from ftrails.expand import expand_all, rematch
from ftrails.multigraph import Multigraph
from helpers import random_instance, random_valid_matching, run_phases, triangle_chain
from oracle import brute_max

PETERSEN = [
    (0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
    (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
    (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
]


def test_path_of_three():
    g = Multigraph(3, [(0, 1), (1, 2)])
    report = max_f_matching(g, [1, 1, 1])
    assert len(report.matching) == 1
    assert report.certificate.ok


def test_parallel_pair_capacity_two():
    g = Multigraph(2, [(0, 1), (0, 1)])
    report = max_f_matching(g, [2, 2])
    assert report.matching == {0, 1}


def test_petersen_perfect_matching():
    g = Multigraph(10, PETERSEN)
    assert brute_max(g, [1] * 10)[0] == 5
    report = max_f_matching(g, [1] * 10, check=True)
    assert len(report.matching) == 5
    assert report.certificate.ok


def test_initial_matching_respected():
    g = Multigraph(4, [(0, 1), (1, 2), (2, 3)])
    report = max_f_matching(g, [1, 1, 1, 1], init={1})
    assert len(report.matching) == 2


def test_invalid_init_rejected():
    # the solve's set-up rejects it, before any search
    g = Multigraph(2, [(0, 1), (0, 1)])
    with pytest.raises(ValueError, match=r"^matching violates degree bounds at vertices \[0, 1\]$"):
        max_f_matching(g, [1, 1], init={0, 1})


def test_solve_raises_when_the_final_certificate_fails(monkeypatch):
    real = driver.verify

    def failing(result):
        report = real(result)
        report.ok = False
        report.failures = ["tampered", "twice"]
        return report

    monkeypatch.setattr(driver, "verify", failing)
    with pytest.raises(
        StructuralError, match="^certificate verification failed: tampered; twice$"
    ):
        max_f_matching(Multigraph(2, [(0, 1)]), [1, 1])


def test_solve_raises_past_the_termination_bound(monkeypatch):
    # phases that find a trail but never rematch it: the bound, sum(f) // 2
    # + 1 = 2 phases with trails, stops the third
    real = driver.run_phase
    phases = []

    def stuck(g, f, state, check, trace):
        result, trails, _rematched = real(g, f, state, check, trace)
        phases.append(len(trails))
        return result, trails, state

    monkeypatch.setattr(driver, "run_phase", stuck)
    with pytest.raises(StructuralError, match="^phase count exceeded the termination bound$"):
        max_f_matching(Multigraph(2, [(0, 1)]), [1, 1])
    assert phases == [1, 1, 1]


def test_monotone_phases_and_termination():
    rng = random.Random(64)
    for _ in range(120):
        g, f = random_instance(rng, 8, 13, 3)
        init = random_valid_matching(rng, g, f)
        report = max_f_matching(g, f, init=init, check=True)
        assert all(c > 0 for c in report.trail_counts[:-1])
        assert report.trail_counts[-1] == 0
        assert report.phases == len(report.trail_counts) <= sum(f) // 2 + 1
        assert report.certificate.ok
        if g.m <= 13:
            assert len(report.matching) == brute_max(g, f)[0]


def test_solve_matches_set_path_phases():
    # the carried state gives the matching and trail counts that phases
    # rebuilt from sets give, loops, parallel edges and an initial
    # matching included
    rng = random.Random(65)
    for _ in range(150):
        g, f = random_instance(rng, 9, 16, 3)
        init = random_valid_matching(rng, g, f)
        matching, results = run_phases(g, f, init, check=False)
        report = max_f_matching(g, f, init=init)
        assert report.matching == matching
        assert report.trail_counts == [len(r.trails) for r in results]


# Blossoms nested thousands of levels deep: every blossom-tree walk must
# keep its own stack rather than recurse once per level.


def test_deep_triangle_chain():
    g = triangle_chain(5000)
    report = max_f_matching(g, [1] * g.n)
    assert len(report.matching) == 5000
    assert report.certificate.ok and report.certificate.bound == 5000


def test_check_mode_on_deep_triangle_chain():
    # check mode stays linear in the forest: the final phase nests 5000
    # blossoms in one search, and each blossom step is checked on its new
    # segment alone
    g = triangle_chain(5000)
    f = [1] * g.n
    first = find_trails(g, f, set(), check=True)
    final = find_trails(g, f, rematch(g, f, set(), expand_all(first)), check=True)
    assert len(first.trails) == 5000 and final.trails == []
    assert len(final.blossoms.base_record) == 5000


def test_deep_triangle_strip():
    n = 10001
    g = Multigraph(n, [(i, i + 1) for i in range(n - 1)] + [(i, i + 2) for i in range(n - 2)])
    report = max_f_matching(g, [1] * n)
    assert len(report.matching) == 5000
    assert report.certificate.ok and report.certificate.bound == 5000


def test_generated_instance_with_deep_nesting(capsys):
    assert main(["gen", "2500", "10000", "3", "1"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    report = max_f_matching(inst.g, inst.f)
    assert report.certificate.ok
    assert len(report.matching) == report.certificate.bound


def test_cli_solve_deep_chain(tmp_path, capsys):
    g = triangle_chain(2000)
    path = tmp_path / "chain.txt"
    path.write_text(
        f"p ftrails {g.n} {g.m}\n" + "".join(f"e {u + 1} {v + 1}\n" for u, v in g.edges)
    )
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("size 2000\n")


def test_generated_instance_nested_past_recursion_limit(tmp_path, capsys):
    # blossoms nest about 3300 deep here, past the default recursion limit
    assert main(["gen", "5000", "20000", "3", "2"]) == 0
    path = tmp_path / "gen.txt"
    path.write_text(capsys.readouterr().out)
    assert main(["solve", str(path)]) == 0
    assert capsys.readouterr().out.startswith("size 4971\n")
