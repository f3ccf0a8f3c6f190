"""The same-program check covers every fixture pair: every command on
each pair whose automaton reads over the scheme's alphabet, and `check` on
the others; and it unfolds every fixture scheme."""

from same_program import (COMMANDS, DEEP_VERIFY, FIXTURES, UNFOLDS, cases,
                          matched)


def test_cases_cover_every_fixture_pair_and_command():
    got = cases()
    assert len(got) == len(set(got)) == 13 * 6 + 29 + 6 * 3 == 125
    assert set(COMMANDS) == {"check", "states", "select", "verify",
                             "dump-game"}
    assert {c[0] for c in got} == set(COMMANDS) | {"unfold"}
    pairs = {c[1:3] for c in got if c[0] != "unfold"}
    assert len(pairs) == 42
    assert all((FIXTURES / s).is_file() and (FIXTURES / a).is_file()
               for s, a in pairs)
    good = {p for p in pairs if matched(*p)}
    assert len(good) == 13
    assert ("ex1.hors", "ex1.apt") in good
    assert ("grow.hors", "ex1.apt") not in good
    for s, a in pairs:
        lines = sorted((c[0], *c[3:]) for c in got if c[1:3] == (s, a))
        if (s, a) in good:
            assert lines == sorted([*((c,) for c in COMMANDS),
                                    ("verify", *DEEP_VERIFY)])
        else:
            assert lines == [("check",)]
    assert DEEP_VERIFY == ("-d", "16")
    unfolds = [c for c in got if c[0] == "unfold"]
    assert {c[2:] for c in unfolds} == set(UNFOLDS) == {
        (), ("-d", "40"), ("--dot", "-d", "3")}
    assert {c[1] for c in unfolds} == {s for s, _ in pairs}
    assert all(c[1].endswith(".hors") for c in unfolds)
