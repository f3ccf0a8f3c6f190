"""The same-program check covers every fixture pair with every command,
and unfolds every fixture scheme."""

from same_program import COMMANDS, FIXTURES, UNFOLDS, cases


def test_cases_cover_every_fixture_pair_and_command():
    got = cases()
    assert len(got) == len(set(got)) == 42 * 5 + 6 * 3 == 228
    assert set(COMMANDS) == {"check", "states", "select", "verify",
                             "dump-game"}
    assert {c[0] for c in got} == set(COMMANDS) | {"unfold"}
    pairs = {(s, a) for c, s, a in (c for c in got if c[0] != "unfold")}
    assert len(pairs) == 42
    assert all((FIXTURES / s).is_file() and (FIXTURES / a).is_file()
               for s, a in pairs)
    unfolds = [c for c in got if c[0] == "unfold"]
    assert {c[2:] for c in unfolds} == set(UNFOLDS) == {
        (), ("-d", "40"), ("--dot", "-d", "3")}
    assert {c[1] for c in unfolds} == {s for s, _ in pairs}
    assert all(c[1].endswith(".hors") for c in unfolds)
