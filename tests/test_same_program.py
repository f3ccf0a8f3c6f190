"""The same-program check covers every fixture pair with every command."""

from same_program import COMMANDS, FIXTURES, cases


def test_cases_cover_every_fixture_pair_and_command():
    got = cases()
    assert len(got) == len(set(got)) == 42 * 5
    assert set(COMMANDS) == {"check", "states", "select", "verify",
                             "dump-game"}
    assert {c for c, _, _ in got} == set(COMMANDS)
    pairs = {(s, a) for _, s, a in got}
    assert len(pairs) == 42
    assert all((FIXTURES / s).is_file() and (FIXTURES / a).is_file()
               for s, a in pairs)
