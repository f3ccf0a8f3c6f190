"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import subprocess
import sys
import time

from horsmc import (Arrow, GROUND, StateType, accepted_states, build_game,
                    check_adam_strategy, check_eve_strategy, colored_set,
                    enumerate_colored_sets, enumerate_types, extract_scheme,
                    subtype, subtype_set, unfold, verify_runtree, zielonka,
                    EveNode)
from horsmc.cli import main as cli_main
from horsmc.oracles import Deriver, denotation, run_search, solve_brute
from conftest import (cli_env, const_scheme, fixture_terms, loop_apt,
                      loop_scheme, order2_unary, random_game, solve_cached)
from test_formats import EX1_APT, EX1_HORS

OO = Arrow(GROUND, GROUND)


def verdict(n: int, text: str) -> None:
    print(f"\n[criterion {n}] PASS - {text}")


def test_criterion_1_running_example(tmp_path, capsys, ex1, ex1_apt):
    scheme = tmp_path / "ex1.hors"
    scheme.write_text(EX1_HORS)
    apt = tmp_path / "ex1.apt"
    apt.write_text(EX1_APT)
    start = time.perf_counter()
    code = cli_main(["check", str(scheme), str(apt), "-q", "q0"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert out == "ACCEPT\n" and code == 0
    # all colors are even, so the finite-prefix search is a sound per-depth
    # oracle; it must agree at every depth
    for depth in range(1, 9):
        assert run_search(ex1_apt, unfold(ex1, depth), "q0"), depth
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    with capsys.disabled():
        verdict(1, f"running example accepted from q0 in {elapsed * 1000:.0f}ms, "
                   "run search agrees at depths 1..8")


def test_criterion_2_parity_sensitivity(capsys):
    h = loop_scheme()
    results = {}
    for color in (1, 2):
        m = loop_apt(color)
        g = build_game(h, m)
        sz, sb = zielonka(g), solve_brute(g)
        assert sz.win_eve == sb.win_eve
        accepted = EveNode("S", StateType("q")) in sz.win_eve
        results[color] = accepted
        assert accepted_states(h, m) == ({"q"} if accepted else set())
    assert results == {1: False, 2: True}
    with capsys.disabled():
        verdict(2, "constant-color branch rejected at color 1, accepted at "
                   "color 2; both verdicts match the brute-force solver")


def test_criterion_3_solver_cross_validation(capsys):
    rng = random.Random(20260808)
    start = time.perf_counter()
    games = 0
    while games < 200:
        g = random_game(rng, max_nodes=8, max_priority=5)
        sz = zielonka(g)
        sb = solve_brute(g)
        assert sz.win_eve == sb.win_eve, g
        assert sz.win_adam == sb.win_adam, g
        assert check_eve_strategy(g, sz), g
        assert check_eve_strategy(g, sb), g
        assert check_adam_strategy(g, sz), g
        assert check_adam_strategy(g, sb), g
        games += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    with capsys.disabled():
        verdict(3, f"{games} random games: identical regions, all Eve and "
                   f"Adam strategies pass their cycle checks ({elapsed:.1f}s)")


def test_criterion_4_prop2_equivalence(capsys, ex1_apt):
    sorts = {"x": GROUND}
    env_space = enumerate_colored_sets(GROUND, ex1_apt)
    corpus = fixture_terms(6)
    deriver_by_sort = {s: Deriver(ex1_apt, sorts) for s in corpus}
    points = 0
    terms = 0
    start = time.perf_counter()
    for sort, term_list in corpus.items():
        targets = enumerate_types(sort, ex1_apt)
        for t in term_list:
            rel = denotation(t, sorts, ex1_apt)
            dv = deriver_by_sort[sort]
            for u in env_space:
                env = {"x": u}
                for target in targets:
                    got = dv.derive(env, t, target) is not None
                    assert got == (((u,), target) in rel), (t, u, target)
                    points += 1
            terms += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        verdict(4, f"denotation and derive coincide on {terms} terms of "
                   f"size <= 6 at {points} points ({elapsed:.1f}s), "
                   "zero discrepancies")


def test_criterion_5_subtyping_laws(capsys, ex1_apt):
    checked = []
    families = [(ex1_apt, [GROUND, OO, Arrow(GROUND, OO)]),
                (loop_apt(0), [GROUND, OO, Arrow(OO, GROUND)])]
    for m, sorts in families:
        for sort in sorts:
            types = enumerate_types(sort, m)
            rows = []
            for a in types:
                bits = 0
                for j, b in enumerate(types):
                    if subtype(a, b):
                        bits |= 1 << j
                rows.append(bits)
            for i, row in enumerate(rows):
                assert row >> i & 1, "reflexivity"
                for j in range(len(types)):
                    if row >> j & 1:
                        assert rows[j] & ~row == 0, "transitivity"
            checked.append((len(m.states), len(types)))
    # subtype_set is a preorder on the ground colored sets, exhaustively
    sets = enumerate_colored_sets(GROUND, ex1_apt)
    rel = [[subtype_set(u, v) for v in sets] for u in sets]
    for i in range(len(sets)):
        assert rel[i][i]
        for j in range(len(sets)):
            if rel[i][j]:
                for k in range(len(sets)):
                    if rel[j][k]:
                        assert rel[i][k]
    sizes = ", ".join(f"|Q|={q}: {n} types" for q, n in checked)
    assert (2, 32) in checked  # the 32-element arrow space is included
    with capsys.disabled():
        verdict(5, f"reflexivity + transitivity exhaustive ({sizes}); "
                   f"subtype_set preorder on {len(sets)} ground sets")


def test_criterion_6_downward_closure(capsys, ex1_apt):
    rng = random.Random(424242)
    corpus = fixture_terms(6)
    env_space = enumerate_colored_sets(GROUND, ex1_apt)
    deriver = Deriver(ex1_apt, {"x": GROUND})
    instances = 0
    attempts = 0
    start = time.perf_counter()
    while instances < 1000:
        attempts += 1
        assert attempts < 50000, "could not sample enough derivable instances"
        sort = rng.choice([GROUND, OO])
        t = rng.choice(corpus[sort])
        env = {"x": rng.choice(env_space)}
        target = rng.choice(enumerate_types(sort, ex1_apt))
        if deriver.derive(env, t, target) is None:
            continue
        bigger = colored_set(env["x"].pairs + rng.choice(env_space).pairs)
        smaller = rng.choice([s for s in enumerate_types(sort, ex1_apt)
                              if subtype(s, target)])
        assert subtype_set(env["x"], bigger)
        assert deriver.derive({"x": bigger}, t, smaller) is not None, \
            (t, env, target, bigger, smaller)
        instances += 1
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        verdict(6, f"{instances} randomized weakenings preserve "
                   f"derivability ({elapsed:.1f}s), zero violations")


def test_criterion_7_selection_soundness(capsys, ex1, ex1_apt):
    fixtures = [(*const_scheme(), "q"),
                (loop_scheme(), loop_apt(2), "q"),
                (ex1, ex1_apt, "q0"),
                (ex1, ex1_apt, "q1"),
                (*order2_unary(), "q")]
    count = 0
    for h, m, q in fixtures:
        assert q in accepted_states(h, m)
        _, sol = solve_cached(h, m, q)
        w = extract_scheme(h, m, sol, q)
        report = verify_runtree(w, h, m, q, 10)
        assert report.projection_mismatches == [], (q, report)
        assert report.transition_violations == [], (q, report)
        count += 1
    with capsys.disabled():
        verdict(7, f"{count} accepted fixtures: witness run-trees verify at "
                   "depth 10 with empty mismatch and violation lists")


def test_criterion_8_determinism(tmp_path, capsys):
    scheme = tmp_path / "ex1.hors"
    scheme.write_text(EX1_HORS)
    apt = tmp_path / "ex1.apt"
    apt.write_text(EX1_APT)

    def once(argv):
        code = cli_main(argv)
        return code, capsys.readouterr().out

    pairs = [once(["check", str(scheme), str(apt), "-q", "q0"])
             for _ in range(2)]
    assert pairs[0] == pairs[1]
    selects = [once(["select", str(scheme), str(apt), "-q", "q0"])
               for _ in range(2)]
    assert selects[0] == selects[1]

    outs = set()
    for seed in (0, 7):
        r = subprocess.run(
            [sys.executable, "-m", "horsmc.cli", "select",
             str(scheme), str(apt), "-q", "q0"],
            capture_output=True, text=True, env=cli_env(seed))
        assert r.returncode == 0, r.stderr
        outs.add(r.stdout)
    assert outs == {selects[0][1]}
    with capsys.disabled():
        verdict(8, "check and select outputs byte-identical across repeated "
                   "runs and across interpreter hash seeds")
