import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env
from horsmc import cli, game
from horsmc.cli import main
from horsmc.formats import parse_annotated
from test_formats import EX1_APT, EX1_HORS

FIXTURES = Path(__file__).resolve().parent.parent / "horsbench" / "fixtures"

LOOP_HORS = """\
terminals:
  a : 1
nonterminals:
  S : o
  F : o
start: S
rules:
  S = F
  F = a F
"""


def loop_apt_text(color: int) -> str:
    return (f"states: q\ninitial: q\ncolors:\n  q -> {color}\n"
            "delta:\n  q a -> (1,q)\n")


@pytest.fixture
def files(tmp_path):
    scheme = tmp_path / "ex1.hors"
    scheme.write_text(EX1_HORS)
    apt = tmp_path / "ex1.apt"
    apt.write_text(EX1_APT)
    return tmp_path, str(scheme), str(apt)


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_accept(self, files, capsys):
        _, scheme, apt = files
        code, out, _ = run(["check", scheme, apt, "-q", "q0"], capsys)
        assert (code, out) == (0, "ACCEPT\n")

    def test_default_state_is_initial(self, files, capsys):
        _, scheme, apt = files
        code, out, _ = run(["check", scheme, apt], capsys)
        assert (code, out) == (0, "ACCEPT\n")

    def test_reject_exit_one(self, tmp_path, capsys):
        scheme = tmp_path / "l.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "l.apt"
        apt.write_text(loop_apt_text(1))
        code, out, _ = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (1, "REJECT\n")

    def test_parse_error_exit_two(self, files, tmp_path, capsys):
        _, scheme, _ = files
        bad = tmp_path / "bad.apt"
        bad.write_text("states q0\ninitial: q0\n")
        code, out, err = run(["check", scheme, str(bad)], capsys)
        assert code == 2 and out == ""
        assert "1:1" in err

    def test_usage_error_exit_two(self, capsys):
        assert main(["check"]) == 2

    @pytest.mark.parametrize("command, depth", [("unfold", "-3"),
                                                ("verify", "-1")])
    def test_negative_depth_exit_two(self, files, capsys, command, depth):
        _, scheme, apt = files
        argv = [command, scheme] + ([apt] if command == "verify" else [])
        code, out, err = run(argv + ["-d", depth], capsys)
        assert (code, out) == (2, "")
        assert err.endswith(f"argument -d/--depth: negative depth {depth}\n")

    def test_unknown_state_exit_two(self, files, capsys):
        _, scheme, apt = files
        code, _, err = run(["check", scheme, apt, "-q", "zz"], capsys)
        assert code == 2 and "zz" in err

    def test_quiet_suppresses_stdout(self, files, capsys):
        _, scheme, apt = files
        code, out, _ = run(["--quiet", "check", scheme, apt], capsys)
        assert (code, out) == (0, "")


class TestStates:
    def test_lists_accepted_states(self, files, capsys):
        _, scheme, apt = files
        code, out, _ = run(["states", scheme, apt], capsys)
        assert code == 0
        assert out.splitlines() == ["q0", "q1"]

    def test_repeated_state_is_a_parse_error(self, tmp_path, capsys):
        scheme = tmp_path / "loop.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "dup.apt"
        apt.write_text(loop_apt_text(2).replace("states: q", "states: q q"))
        code, out, err = run(["states", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{apt}:1:11: state 'q' listed twice\n"

    def test_repeated_transition_is_a_parse_error(self, tmp_path, capsys):
        scheme = tmp_path / "loop.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "dup.apt"
        apt.write_text(loop_apt_text(2) + "  q a -> false\n")
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == (f"{apt}:7:3: second transition for state 'q' and "
                       "symbol 'a'\n")

    def test_unknown_transition_symbol_is_a_parse_error(self, files,
                                                         tmp_path, capsys):
        # With `Nil` misspelt, state q1 would have no transition for `Nil`
        # and ex1 would be rejected.
        _, scheme, _ = files
        apt = tmp_path / "typo.apt"
        apt.write_text(EX1_APT.replace("q1 Nil", "q1 Nill"))
        code, out, err = run(["check", scheme, str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{apt}:10:6: transition for unknown symbol 'Nill'\n"

    def test_second_rule_is_a_parse_error(self, tmp_path, capsys):
        # With the first rule kept the loop is rejected, with the second
        # accepted; neither is silently dropped.
        scheme = tmp_path / "dup.hors"
        scheme.write_text(LOOP_HORS.replace("  a : 1\n", "  a : 1\n  c : 0\n")
                          + "  F = c\n")
        apt = tmp_path / "loop.apt"
        apt.write_text(loop_apt_text(1))
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{scheme}:11:3: second rule for nonterminal 'F'\n"

    def test_second_color_is_a_parse_error(self, tmp_path, capsys):
        scheme = tmp_path / "loop.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "dup.apt"
        apt.write_text(loop_apt_text(1).replace("q -> 1", "q -> 1, q -> 2"))
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{apt}:4:11: second color for state 'q'\n"

    def test_color_for_unlisted_state_is_a_parse_error(self, tmp_path,
                                                       capsys):
        scheme = tmp_path / "loop.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "typo.apt"
        apt.write_text(loop_apt_text(1).replace("q -> 1", "q -> 1, r -> 2"))
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{apt}:4:11: color for unlisted state 'r'\n"

    def test_bad_sort_is_positioned(self, tmp_path, capsys):
        scheme = tmp_path / "badsort.hors"
        scheme.write_text(LOOP_HORS.replace("  F : o\n", "  F : o ->\n"))
        code, out, err = run(["check", str(scheme), str(tmp_path / "x.apt")],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"{scheme}:5:11: sort expected\n"

    def test_terminal_and_nonterminal_name_is_a_parse_error(self, tmp_path,
                                                            capsys):
        scheme = tmp_path / "dup.hors"
        scheme.write_text(LOOP_HORS.replace("  F : o\n", "  F : o\n  a : o\n")
                          + "  a = a\n")
        code, out, err = run(["check", str(scheme), str(tmp_path / "x.apt")],
                             capsys)
        assert (code, out) == (2, "")
        assert err == (f"{scheme}:6:3: nonterminal 'a' already declared as "
                       "a terminal\n")

    def test_body_name_is_positioned_past_the_head(self, tmp_path, capsys):
        scheme = tmp_path / "body.hors"
        scheme.write_text(LOOP_HORS.replace("  F : o\n", "  F : o -> o\n")
                          .replace("  F = a F\n", "  F ff = f\n"))
        code, out, err = run(["check", str(scheme), str(tmp_path / "x.apt")],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"{scheme}:9:10: unknown name 'f'\n"

    def test_too_many_binders_is_positioned(self, tmp_path, capsys):
        scheme = tmp_path / "binder.hors"
        scheme.write_text(LOOP_HORS.replace("  S = F\n", "  S x = F\n"))
        code, out, err = run(["check", str(scheme), str(tmp_path / "x.apt")],
                             capsys)
        assert (code, out) == (2, "")
        assert err == f"{scheme}:8:5: too many binders for 'S'\n"

    def test_formula_token_is_positioned_past_the_head(self, tmp_path,
                                                       capsys):
        scheme = tmp_path / "loop.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "formula.apt"
        apt.write_text(loop_apt_text(0).replace("(1,q)", "q"))
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{apt}:6:10: unexpected formula token 'q'\n"

    def test_bad_color_entry_is_positioned(self, tmp_path, capsys):
        scheme = tmp_path / "loop.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "badcol.apt"
        apt.write_text(loop_apt_text(1).replace("q -> 1", "q -> 1, r 1"))
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{apt}:4:11: expected 'state -> color'\n"


    @pytest.mark.parametrize("old, new, message", [
        ("initial: q", "initial: r", "initial state 'r' not among states"),
        ("  q a -> (1,q)", "  q a -> (1,q)\n  r a -> (1,q)",
         "transition for unknown state 'r'"),
        ("(1,q)", "(1,r)", "unknown state 'r' in delta(q,a)"),
    ], ids=["unlisted-initial-state", "transition-for-unknown-state",
            "unknown-state-in-a-formula"])
    def test_invalid_automaton_names_its_file(self, tmp_path, capsys, old,
                                              new, message):
        # Parsing lets these through; `Apt.validate` refuses them.
        apt = tmp_path / "bad.apt"
        apt.write_text(loop_apt_text(2).replace(old, new))
        code, out, err = run(["check", str(FIXTURES / "loop.hors"),
                              str(apt)], capsys)
        assert (code, out, err) == (2, "", f"{apt}: {message}\n")


class TestUnfold:
    def test_prefix_s_expression(self, files, capsys):
        _, scheme, _ = files
        code, out, _ = run(["unfold", scheme, "-d", "2"], capsys)
        assert code == 0
        assert out == "(if (Nil) (if _|_ _|_))\n"

    def test_dot_output(self, files, capsys):
        _, scheme, _ = files
        code, out, _ = run(["unfold", scheme, "-d", "2", "--dot"], capsys)
        assert code == 0 and out.startswith("digraph tree {")

    def test_dot_numbers_children_left_to_right(self, files, capsys):
        # preorder numbers, first child first; each edge after its subtree
        _, scheme, _ = files
        code, out, _ = run(["unfold", scheme, "-d", "2", "--dot"], capsys)
        assert code == 0
        assert out.splitlines()[2:] == [
            '  n0 [label="if", shape=box];', '  n1 [label="Nil", shape=box];',
            "  n0 -> n1;", '  n2 [label="if", shape=box];',
            '  n3 [label="_|_", shape=plaintext];', "  n2 -> n3;",
            '  n4 [label="_|_", shape=plaintext];', "  n2 -> n4;",
            "  n0 -> n2;", "}"]

    def test_budget_exhaustion_exit_three(self, tmp_path, capsys):
        scheme = tmp_path / "spin.hors"
        scheme.write_text("terminals:\n  c : 0\nnonterminals:\n  S : o\n"
                          "start: S\nrules:\n  S = S\n")
        code, _, err = run(["unfold", str(scheme), "-d", "1"], capsys)
        assert code == 3 and "budget" in err

    def test_deep_prefix_is_its_closed_form(self, tmp_path, capsys):
        # unfolding and printing keep their own stacks: no recursion limit
        scheme = tmp_path / "l.hors"
        scheme.write_text(LOOP_HORS)
        d = 10000
        code, out, err = run(["unfold", str(scheme), "-d", str(d)], capsys)
        assert (code, out, err) == (0, "(a " * d + "_|_" + ")" * d + "\n", "")
        code, out, err = run(["unfold", str(scheme), "-d", str(d), "--dot"],
                             capsys)
        assert (code, err) == (0, "")
        # node lines in preorder, then each edge once its subtree is out
        lines = out.splitlines()
        assert len(lines) == 3 + d + 1 + d
        assert lines[d + 2:d + 4] == [
            f"  n{d} [label=\"_|_\", shape=plaintext];", f"  n{d - 1} -> n{d};"]
        assert lines[-2:] == ["  n0 -> n1;", "}"]

    def test_recursion_limit_exit_three(self, files, capsys, monkeypatch):
        # a limit stopped the computation: not a negative verdict (exit 1)
        def fail(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        _, scheme, _ = files
        monkeypatch.setattr(cli, "unfold", fail)
        code, out, err = run(["unfold", scheme], capsys)
        assert (code, out) == (3, "")
        assert err == "recursion limit: maximum recursion depth exceeded\n"


class TestUnwritableOutput:
    @pytest.mark.parametrize("command", ["select", "unfold"])
    def test_exit_two(self, files, capsys, command):
        tmp, scheme, apt = files
        target = tmp / "missing" / "out.txt"
        argv = [command, scheme] + ([apt] if command == "select" else [])
        code, out, err = run(argv + ["-o", str(target)], capsys)
        assert (code, out) == (2, "")
        assert err == f"{target}: No such file or directory\n"


DEEP_BODY_HORS = """\
terminals:
  a : 1
  c : 0
nonterminals:
  S : o
start: S
rules:
  S = """ + "a (" * 600 + "c" + ")" * 600 + "\n"

WIDE_BODY_HORS = """\
terminals:
  a : 2000
  c : 0
nonterminals:
  S : o
start: S
rules:
  S = a""" + " c" * 2000 + "\n"

DEEP_SORT_HORS = """\
terminals:
  a : 1
  c : 0
nonterminals:
  S : o
  F : """ + "(" * 600 + "o -> o" + ")" * 600 + """
start: S
rules:
  S = F c
  F x = a x
"""


def flat_formula(n: int) -> str:
    return " /\\ ".join(["(1,q)"] * n)


def alternating_formula(n: int) -> str:
    """`((((1,q) \\/ (1,q)) /\\ (1,q)) \\/ ...)`: n groups, each of the other
    connective than the group inside it."""
    f, connectives = "(1,q)", ("\\/", "/\\")
    for i in range(n):
        f = f"({f} {connectives[i % 2]} (1,q))"
    return f


class TestNoRecursionLimit:
    """Inputs that once reached Python's recursion limit end normally."""

    @pytest.mark.parametrize("argv, hors, text, want", [
        (["check"], LOOP_HORS, flat_formula(3000), "ACCEPT\n"),
        (["check"], LOOP_HORS, "(" * 600 + flat_formula(2) + ")" * 600,
         "ACCEPT\n"),
        (["check"], LOOP_HORS, alternating_formula(600), "ACCEPT\n"),
        (["unfold", "-d", "3"], DEEP_BODY_HORS, None, "(a (a (a _|_)))\n"),
        (["unfold", "-d", "2"], WIDE_BODY_HORS, None,
         "(a" + " (c)" * 2000 + ")\n"),
        (["unfold", "-d", "3"], DEEP_SORT_HORS, None, "(a (c))\n"),
    ], ids=["flat-conjunction-3000", "formula-in-600-parentheses",
            "formula-of-600-alternating-groups", "body-600-parentheses-deep",
            "body-of-arity-2000", "sort-in-600-parentheses"])
    def test_ends_normally(self, tmp_path, capsys, argv, hors, text, want):
        scheme = tmp_path / "s.hors"
        scheme.write_text(hors)
        paths = [str(scheme)]
        if text:
            apt = tmp_path / "s.apt"
            apt.write_text(loop_apt_text(0).replace("(1,q)", text))
            paths.append(str(apt))
        code, out, err = run([argv[0], *paths, *argv[1:]], capsys)
        assert (code, out, err) == (0, want, "")


    def test_deep_ill_sorted_body_is_reported(self, tmp_path, capsys):
        # The sort error prints the 10,000-deep term it names.
        body = "c (" + "a (" * 10000 + "c" + ")" * 10000 + ")"
        scheme = tmp_path / "s.hors"
        scheme.write_text(DEEP_BODY_HORS.replace(
            "S = " + "a (" * 600 + "c" + ")" * 600, "S = " + body))
        code, out, err = run(["unfold", str(scheme), "-d", "2"], capsys)
        assert (code, out) == (2, "")
        printed = "c (" + "a (" * 9999 + "a c" + ")" * 9999 + ")"
        assert err == (f"{scheme}: rule 'S': applied term of ground sort: "
                       f"{printed}\n")

    def test_deep_argument_sort_ends_in_the_size_guard(self, tmp_path,
                                                       capsys):
        # G's sort nests its domains 1,200 deep, (((o -> o) -> o) …) -> o;
        # its type space is past the limit from the third nesting on.
        sort = "o -> o"
        for _ in range(1199):
            sort = f"({sort}) -> o"
        scheme = tmp_path / "s.hors"
        scheme.write_text(
            f"terminals:\n  c : 0\nnonterminals:\n  S : o\n"
            f"  F : ({sort}) -> o\n  G : {sort}\nstart: S\nrules:\n"
            f"  S = F G\n  F h = c\n  G g = c\n")
        apt = tmp_path / "s.apt"
        apt.write_text("states: q\ninitial: q\ncolors:\n  q -> 0\n"
                       "delta:\n  q c -> true\n")
        code, out, err = run(["check", str(scheme), str(apt)], capsys)
        assert (code, out) == (3, "")
        assert err == (f"size guard: type space at sort {sort} (argument "
                       f"of `F G` in the rule of S): more candidates than "
                       f"the limit 1048576\n")

    def test_deep_witness_type_is_read(self, tmp_path, capsys):
        # A witness nonterminal whose type nests 10,000 sets.
        ty = "{e." * 10000 + "q" + "}->q" * 10000
        scheme = tmp_path / "s.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "s.apt"
        apt.write_text(loop_apt_text(0))
        witness = tmp_path / "w.hors"
        witness.write_text(
            "terminals:\n  a@{1:0.q}->q : 1\nnonterminals:\n  S@q : o\n"
            f"  F@q : o\n  X@{ty} : o\nstart: S@q\nrules:\n  S@q = F@q\n"
            f"  F@q = a@{{1:0.q}}->q F@q\n  X@{ty} = F@q\n")
        code, out, err = run(["verify", str(scheme), str(apt), "-d", "3",
                              "--witness", str(witness)], capsys)
        assert (code, err) == (0, "")
        assert out.endswith("verdict: consistent\n")


class TestSelectVerify:
    def test_select_writes_parseable_witness(self, files, capsys):
        tmp, scheme, apt = files
        out_path = tmp / "wit.hors"
        code, _, _ = run(["select", scheme, apt, "-q", "q0",
                          "-o", str(out_path)], capsys)
        assert code == 0
        w = parse_annotated(out_path.read_text())
        assert w.hors.start == "S@q0"

    def test_select_rejected_state(self, tmp_path, capsys):
        scheme = tmp_path / "l.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "l.apt"
        apt.write_text(loop_apt_text(1))
        code, out, err = run(["select", str(scheme), str(apt)], capsys)
        assert code == 1 and "rejected" in err

    def test_verify_internal_witness(self, files, capsys):
        _, scheme, apt = files
        code, out, _ = run(["verify", scheme, apt, "-q", "q0", "-d", "6"],
                           capsys)
        assert code == 0
        assert "verdict: consistent" in out
        assert "projection mismatches: 0" in out

    def test_verify_witness_file(self, files, capsys):
        tmp, scheme, apt = files
        out_path = tmp / "wit.hors"
        assert run(["select", scheme, apt, "-q", "q0", "-o", str(out_path)],
                   capsys)[0] == 0
        code, out, _ = run(["verify", scheme, apt, "-q", "q0", "-d", "6",
                            "--witness", str(out_path)], capsys)
        assert code == 0 and "verdict: consistent" in out

    def test_bad_witness_declaration_is_positioned(self, files, capsys):
        tmp, scheme, apt = files
        bad = tmp / "w.hors"
        bad.write_text("terminals:\n  a@{1:e.q0}->q0 : 2\nnonterminals:\n"
                       "  S@q0 : o\nstart: S@q0\nrules:\n"
                       "  S@q0 = a@{1:e.q0}->q0\n")
        code, out, err = run(["verify", scheme, apt, "--witness", str(bad)],
                             capsys)
        assert (code, out) == (2, "")
        assert err == (f"{bad}:2:3: profile arity mismatch for "
                       "'a@{1:e.q0}->q0'\n")

    def test_deep_verify(self, tmp_path, capsys):
        scheme = tmp_path / "l.hors"
        scheme.write_text(LOOP_HORS)
        apt = tmp_path / "l.apt"
        apt.write_text(loop_apt_text(2))
        code, out, err = run(["verify", str(scheme), str(apt), "-d", "3000"],
                             capsys)
        assert (code, err) == (0, "")
        assert out.startswith("depth checked: 3000\n")
        assert out.endswith("verdict: consistent\n")

    def test_divergence_off_the_run_is_not_checked(self, tmp_path, capsys):
        # the run reads direction 1 only; every direction-2 child diverges
        scheme = tmp_path / "off.hors"
        scheme.write_text("terminals:\n  a : 2\nnonterminals:\n  S : o\n"
                          "  D : o\nstart: S\nrules:\n  S = a S D\n"
                          "  D = D\n")
        apt = tmp_path / "l.apt"
        apt.write_text(loop_apt_text(2))
        code, out, err = run(["verify", str(scheme), str(apt), "-d", "5"],
                             capsys)
        assert (code, err) == (0, "")
        assert out == ("depth checked: 5\nprojection mismatches: 0\n"
                       "transition violations: 0\n"
                       "max colors seen on branches: [2]\n"
                       "verdict: consistent\n")

    def test_verify_detects_corruption(self, files, capsys):
        tmp, scheme, apt = files
        out_path = tmp / "wit.hors"
        run(["select", scheme, apt, "-q", "q0", "-o", str(out_path)], capsys)
        text = out_path.read_text().replace("data@{1:0.q1}->q1",
                                            "data@{1:0.q0}->q1")
        bad = tmp / "bad.hors"
        bad.write_text(text)
        code, out, _ = run(["verify", scheme, apt, "-q", "q0", "-d", "6",
                            "--witness", str(bad)], capsys)
        assert code == 1 and "VIOLATIONS" in out


def loop_witness(symbol: str, arity: int = 1) -> str:
    """A witness over `loop.hors` whose one terminal is `symbol`."""
    body = symbol + " F@q" * arity
    return (f"terminals:\n  {symbol} : {arity}\nnonterminals:\n  S@q : o\n"
            f"  F@q : o\nstart: S@q\nrules:\n  S@q = F@q\n  F@q = {body}\n")


def violations(mismatches: list[str], transitions: list[str],
               colors: str, depth: int = 2) -> str:
    """`verify`'s report at `depth` with these findings."""
    return "\n".join([f"depth checked: {depth}",
                      f"projection mismatches: {len(mismatches)}",
                      f"transition violations: {len(transitions)}",
                      *[f"  projection at {m}" for m in mismatches],
                      *[f"  transition at {t}" for t in transitions],
                      f"max colors seen on branches: {colors}",
                      "verdict: VIOLATIONS"]) + "\n"


# (scheme, automaton, state, witness or None, exit code, stdout, stderr);
# "{w}" in stderr stands for the witness's path.
BROKEN_WITNESSES = [
    ("symbol-outside-the-alphabet", "loop", "loop_c2", "q",
     loop_witness("b@{1:2.q}->q"), 1,
     violations([], ["[]: symbol 'b' not in the automaton's alphabet"],
                "[]"), ""),
    ("states-unknown-to-the-automaton", "loop", "loop_c2", "q",
     loop_witness("a@{1:2.r}->q"), 1,
     violations([], ["[]: 'a@{1:2.r}->q' mentions states unknown to the "
                     "automaton"], "[]"), ""),
    ("node-with-the-wrong-state", "ex1", "ex1", "q0",
     "terminals:\n  Nil@{}->q1 : 0\n  if@{1:0.q1,2:0.q0}->q1 : 2\n"
     "nonterminals:\n  S@q0 : o\nstart: S@q0\nrules:\n"
     "  S@q0 = if@{1:0.q1,2:0.q0}->q1 Nil@{}->q1 S@q0\n", 1,
     violations([], ["[]: node carries state q1, expected q0",
                     "[2]: node carries state q1, expected q0"], "[0]"), ""),
    ("profile-that-does-not-satisfy", "loop", "loop_c2", "q",
     loop_witness("a@{}->q", 0), 1,
     violations([], ["[]: profile of 'a@{}->q' does not satisfy the "
                     "transition at q"], "[2]"), ""),
    ("projection-mismatch", "ex1", "ex1", "q0",
     "terminals:\n  Nil@{}->q0 : 0\nnonterminals:\n  S@q0 : o\n"
     "start: S@q0\nrules:\n  S@q0 = Nil@{}->q0\n", 1,
     violations(["[]: expected 'if', generated 'Nil'"], [], "[]"), ""),
    # `a` has arity 1, so its original has no direction 2 to descend into.
    ("direction-past-the-arity", "loop", "loop_c2", "q",
     loop_witness("a@{2:2.q}->q"), 1,
     violations([], ["[]: profile of 'a@{2:2.q}->q' does not satisfy the "
                     "transition at q",
                     "[]: profile of 'a@{2:2.q}->q' names direction 2, past "
                     "the arity 1 of 'a'"], "[]"), ""),
    ("ill-sorted-witness", "loop", "loop_c2", "q",
     loop_witness("a@{1:2.q}->q").replace("S@q = F@q", "S@q = F@q F@q"), 2,
     "", "{w}: rule 'S@q': applied term of ground sort: F@q F@q\n"),
    ("rejected-state", "loop", "loop_c1", "q", None, 1, "",
     "state 'q' rejected; nothing to verify\n"),
]


def mutual_witness(body: str) -> str:
    """A witness over `mutual.hors` whose start rule is `S@p = body`,
    declaring each annotated symbol the body names."""
    symbols = dict.fromkeys(w for w in body.replace("(", " ").replace(
        ")", " ").split() if "->" in w)
    return ("terminals:\n" + "".join(f"  {w} : 1\n" for w in symbols)
            + "nonterminals:\n  S@p : o\nstart: S@p\n"
            f"rules:\n  S@p = {body}\n")


# Witnesses whose symbols recur in the run, so that a check of a symbol
# made once must still be reported at every position it fails:
# (scheme, automaton, state, depth, witness, stdout); each exits 1.
RECURRING_BROKEN_WITNESSES = [
    # `b@{1:2.p}->r` sits at r below `a@{1:1.r}->p` and at p below
    # `a@{1:2.p}->p`, whose profile also misses the transition at p.
    ("state-right-at-one-node-wrong-at-another", "mutual", "mutual", "p", 8,
     mutual_witness("a@{1:1.r}->p (b@{1:2.p}->r (a@{1:2.p}->p "
                    "(b@{1:2.p}->r S@p)))"),
     violations([], ["[1, 1]: profile of 'a@{1:2.p}->p' does not satisfy "
                     "the transition at p",
                     "[1, 1, 1]: node carries state r, expected p",
                     "[1, 1, 1, 1, 1, 1]: profile of 'a@{1:2.p}->p' does "
                     "not satisfy the transition at p",
                     "[1, 1, 1, 1, 1, 1, 1]: node carries state r, "
                     "expected p"], "[2]", 8)),
    # `a@{1:1.r}->p` sits over `S`, over `F` and, last, over `G`, a `b`.
    ("symbol-over-two-terms-one-mismatched", "mutual", "mutual", "p", 6,
     mutual_witness("a@{1:1.r}->p (b@{1:2.p}->r (a@{1:1.r}->p "
                    "(a@{1:1.r}->p S@p)))"),
     violations(["[1, 1, 1]: expected 'b', generated 'a'"],
                ["[1, 1, 1]: node carries state p, expected r"], "[]", 6)),
    # The profile reads direction 2 at q0 but misses (2, q1).
    ("transition-failing-at-every-position", "ex1", "ex1", "q0", 4,
     "terminals:\n  if@{2:0.q0}->q0 : 1\nnonterminals:\n  S@q0 : o\n"
     "start: S@q0\nrules:\n  S@q0 = if@{2:0.q0}->q0 S@q0\n",
     violations([], [f"{path}: profile of 'if@{{2:0.q0}}->q0' does not "
                     "satisfy the transition at q0"
                     for path in ("[]", "[1]", "[1, 1]", "[1, 1, 1]")],
                "[0]", 4)),
]


def divergent_witness(start: str, body: str) -> str:
    """A witness whose start rule is `start = body`, declaring each
    annotated symbol the body names and a nonterminal `D = D`."""
    symbols = dict.fromkeys(w for w in body.replace("(", " ").replace(
        ")", " ").split() if "->" in w)
    return ("terminals:\n" + "".join(
        f"  {w} : {w.count('.')}\n" for w in symbols)
        + f"nonterminals:\n  {start} : o\n  D : o\nstart: {start}\n"
        f"rules:\n  {start} = {body}\n  D = D\n")


def unresolved(path: str) -> str:
    return f"rewriting budget: head at path {path} unresolved within 10001 " \
           "rewrite steps\n"


# Witnesses with a divergent subtree, which is an error only where the walk
# reads it, at its path in the run: (scheme, automaton, state, depth,
# witness, exit code, stdout, stderr).
DIVERGENT_WITNESSES = [
    # The walk stops at `b`, outside the alphabet, above the divergence.
    ("divergence-off-the-walk", "loop", "loop_c2", "q", 5,
     divergent_witness("S@q", "a@{1:2.q}->q (b@{1:2.q}->q D)"), 1,
     violations([], ["[1]: symbol 'b' not in the automaton's alphabet"],
                "[]", 5), ""),
    ("divergence-on-the-walk", "loop", "loop_c2", "q", 5,
     divergent_witness("S@q", "a@{1:2.q}->q D"), 3, "", unresolved("(1,)")),
    # Both run children sit over direction 2 of the original.
    ("divergence-named-at-the-run-path", "ex1", "ex1", "q0", 4,
     divergent_witness("S@q0", "if@{2:0.q0,2:0.q1}->q0 D D"), 3, "",
     unresolved("(1,)")),
]


class TestBrokenWitness:
    """`verify`'s exit code and report on witnesses that do not fit the
    scheme or the automaton: none of them is a fault of the program."""

    @pytest.mark.parametrize("scheme, apt, state, witness, code, out, err",
                             [row[1:] for row in BROKEN_WITNESSES],
                             ids=[row[0] for row in BROKEN_WITNESSES])
    def test_report(self, tmp_path, capsys, scheme, apt, state, witness,
                    code, out, err):
        argv = ["verify", str(FIXTURES / f"{scheme}.hors"),
                str(FIXTURES / f"{apt}.apt"), "-q", state, "-d", "2"]
        path = tmp_path / "w.hors"
        if witness is not None:
            path.write_text(witness)
            argv += ["--witness", str(path)]
        assert run(argv, capsys) == (code, out, err.format(w=path))

    @pytest.mark.parametrize("scheme, apt, state, depth, witness, out",
                             [row[1:] for row in RECURRING_BROKEN_WITNESSES],
                             ids=[row[0] for row in RECURRING_BROKEN_WITNESSES])
    def test_report_on_recurring_symbols(self, tmp_path, capsys, scheme, apt,
                                         state, depth, witness, out):
        path = tmp_path / "w.hors"
        path.write_text(witness)
        argv = ["verify", str(FIXTURES / f"{scheme}.hors"),
                str(FIXTURES / f"{apt}.apt"), "-q", state, "-d", str(depth),
                "--witness", str(path)]
        assert run(argv, capsys) == (1, out, "")

    @pytest.mark.parametrize("scheme, apt, state, depth, witness, code, out, "
                             "err", [row[1:] for row in DIVERGENT_WITNESSES],
                             ids=[row[0] for row in DIVERGENT_WITNESSES])
    def test_report_on_divergent_witnesses(self, tmp_path, capsys, scheme,
                                           apt, state, depth, witness, code,
                                           out, err):
        path = tmp_path / "w.hors"
        path.write_text(witness)
        argv = ["verify", str(FIXTURES / f"{scheme}.hors"),
                str(FIXTURES / f"{apt}.apt"), "-q", state, "-d", str(depth),
                "--witness", str(path)]
        assert run(argv, capsys) == (code, out, err)


class TestDumpGame:
    def test_dot_emission(self, files, capsys):
        _, scheme, apt = files
        code, out, _ = run(["dump-game", scheme, apt, "-q", "q0"], capsys)
        assert code == 0
        assert out.startswith("digraph game {") and "p=1" in out


class TestSizeGuard:
    def test_exit_three_on_blowup(self, tmp_path, capsys):
        # an order-2 parameter instantiated by a nonterminal over two states
        scheme = tmp_path / "o2.hors"
        scheme.write_text(
            "terminals:\n  if : 2\n  data : 1\n  Nil : 0\n"
            "nonterminals:\n  S : o\n  A : (o -> o) -> o\n  I : o -> o\n"
            "start: S\nrules:\n"
            "  S = A I\n"
            "  A f = if (f Nil) (A f)\n"
            "  I x = data x\n")
        apt = tmp_path / "two.apt"
        apt.write_text(EX1_APT)
        code, _, err = run(["check", str(scheme), str(apt)], capsys)
        assert code == 3 and "size guard" in err
        # the message names the rule, the application and the argument sort
        assert "rule of S" in err and "`A I`" in err and "sort o -> o" in err

    def test_type_space_guard_names_rule_and_subterm(self, tmp_path, capsys):
        # an order-3 head takes an argument of sort (o -> o) -> o, whose
        # type space over two states has 2**65 members
        scheme = tmp_path / "o3.hors"
        scheme.write_text(
            "terminals:\n  if : 2\n  data : 1\n  Nil : 0\n"
            "nonterminals:\n  S : o\n  B : ((o -> o) -> o) -> o\n"
            "  A : (o -> o) -> o\n  I : o -> o\n"
            "start: S\nrules:\n"
            "  S = B A\n"
            "  B g = g I\n"
            "  A f = f Nil\n"
            "  I x = data x\n")
        apt = tmp_path / "two.apt"
        apt.write_text(EX1_APT)
        code, _, err = run(["check", str(scheme), str(apt)], capsys)
        assert code == 3
        assert err.startswith("size guard: type space at sort (o -> o) -> o "
                              "(argument of `B A` in the rule of S): ")

    def test_nested_application_trips_the_pick_guard(self, tmp_path):
        # Over two states of distinct colors, `F c` has 64 minimal maps at
        # each target, and the outer `F` picks one of them for each pair of
        # its argument set.  Unguarded, that product is never finished, so
        # the CLI runs in a subprocess that the timeout stops.
        scheme = tmp_path / "nested.hors"
        scheme.write_text("terminals:\n  c : 0\nnonterminals:\n  S : o\n"
                          "  F : o -> o\nstart: S\nrules:\n"
                          "  S = F (F c)\n  F x = c\n")
        apt = tmp_path / "two.apt"
        apt.write_text("states: q0 q1\ninitial: q0\n"
                       "colors:\n  q0 -> 1, q1 -> 3\n"
                       "delta:\n  q0 c -> true\n  q1 c -> true\n")
        r = subprocess.run([sys.executable, "-m", "horsmc.cli", "check",
                            str(scheme), str(apt)], capture_output=True,
                           text=True, env=cli_env(0), timeout=60)
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == ("size guard: argument derivations at `F (F c)` "
                            "in the rule of S: 262144 candidates exceed the "
                            "limit 4096\n")

    def test_deep_argument_sort_trips_the_type_guard(self, tmp_path):
        # |(o -> o) -> o| has 385 bits over two states of distinct colors,
        # so an exact count at F's argument sort would need about 2 ** 387
        # bits.  The child runs under an address-space limit and a timeout,
        # so that a count that is built anyway cannot exhaust the machine.
        scheme = tmp_path / "deep.hors"
        scheme.write_text("terminals:\n  a : 1\n  c : 0\nnonterminals:\n"
                          "  S : o\n  F : (((o -> o) -> o) -> o) -> o\n"
                          "  G : ((o -> o) -> o) -> o\n  I : o -> o\n"
                          "start: S\nrules:\n  S = F G\n  F h = a c\n"
                          "  G g = g I\n  I x = a x\n")
        apt = tmp_path / "two.apt"
        apt.write_text("states: q0 q1\ninitial: q0\n"
                       "colors:\n  q0 -> 0, q1 -> 1\n"
                       "delta:\n  q0 a -> (1,q0)\n  q1 a -> (1,q1)\n"
                       "  q0 c -> true\n  q1 c -> true\n")

        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 * 10 ** 9,) * 2)

        r = subprocess.run([sys.executable, "-m", "horsmc.cli", "check",
                            str(scheme), str(apt)], capture_output=True,
                           text=True, env=cli_env(0), timeout=60,
                           preexec_fn=limit_memory)
        assert (r.returncode, r.stdout) == (3, "")
        assert r.stderr == ("size guard: type space at sort ((o -> o) -> o) "
                            "-> o (argument of `F G` in the rule of S): more "
                            "candidates than the limit 1048576\n")

    def test_node_guard_names_the_refused_node(self, files, capsys,
                                               monkeypatch):
        _, scheme, apt = files
        monkeypatch.setattr(game, "DEFAULT_NODE_LIMIT", 3)
        code, _, err = run(["check", scheme, apt, "-q", "q0"], capsys)
        assert code == 3
        assert err == ("size guard: game nodes (refused AdamNode S : q0): "
                       "4 candidates exceed the limit 3\n")


    def test_push_guard_names_the_refused_seed(self, files, capsys,
                                               monkeypatch):
        # `states` seeds one Eve node per state; the second is refused.
        _, scheme, apt = files
        monkeypatch.setattr(game, "DEFAULT_NODE_LIMIT", 1)
        code, out, err = run(["states", scheme, apt], capsys)
        assert (code, out) == (3, "")
        assert err == ("size guard: game nodes (refused EveNode S : q1): "
                       "2 candidates exceed the limit 1\n")


class TestInternalError:
    def test_unexpected_exception_exits_four(self, files, capsys,
                                             monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("boom")

        _, scheme, apt = files
        monkeypatch.setattr(cli, "build_game", fail)
        code, out, err = run(["check", scheme, apt], capsys)
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: boom\n"


def run_subprocess(argv, seed):
    return subprocess.run([sys.executable, "-m", "horsmc.cli", *argv],
                          capture_output=True, text=True, env=cli_env(seed))


class TestImportPath:
    def test_cli_children_write_no_bytecode(self, tmp_path):
        # Bytecode left in `src/` by a test run makes later imports of the
        # checkout faster than a fresh copy's, which skews timed imports.
        shutil.copytree(Path(cli.__file__).parent, tmp_path / "horsmc",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run(
            [sys.executable, "-m", "horsmc.cli", "unfold",
             str(FIXTURES / "loop.hors"), "-d", "2"], capture_output=True,
            text=True, env={**cli_env(0), "PYTHONPATH": str(tmp_path)})
        assert (r.returncode, r.stdout) == (0, "(a (a _|_))\n"), r.stderr
        assert not list(tmp_path.rglob("*.pyc"))

    def test_cli_does_not_load_the_oracles(self):
        r = subprocess.run(
            [sys.executable, "-c", "import sys, horsmc.cli; "
             "print('horsmc.oracles' in sys.modules)"],
            capture_output=True, text=True, env=cli_env(0))
        assert (r.returncode, r.stdout) == (0, "False\n"), r.stderr

    def test_cli_does_not_load_dataclasses(self):
        # Records are NamedTuples: `dataclasses` would bring `inspect` and
        # an `exec` per record into every command's start-up.
        def loaded(code: str) -> str:
            r = subprocess.run(
                [sys.executable, "-c",
                 f"{code}; print('dataclasses' in sys.modules)"],
                capture_output=True, text=True, env=cli_env(0))
            assert r.returncode == 0, r.stderr
            return r.stdout
        assert loaded("import sys, horsmc.cli") == loaded("import sys")

    def test_no_module_imports_dataclasses(self):
        # `oracles` included, which the CLI does not load.
        import ast
        for path in Path(cli.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                names = ([a.name for a in node.names]
                         if isinstance(node, ast.Import) else
                         [node.module] if isinstance(node, ast.ImportFrom)
                         else [])
                assert "dataclasses" not in names, path.name

    def test_no_cache_decorators_on_the_production_path(self):
        # Memo tables belong to an analysis; `dnf` is a pure function of an
        # immutable formula and keeps its cache.
        r = subprocess.run(
            [sys.executable, "-c", "import functools, sys, horsmc.cli\n"
             "print(sorted({f'{f.__module__}.{f.__qualname__}'\n"
             "  for n, mod in list(sys.modules.items())\n"
             "  if n.split('.')[0] == 'horsmc' for f in vars(mod).values()\n"
             "  if isinstance(f, functools._lru_cache_wrapper)}))"],
            capture_output=True, text=True, env=cli_env(0))
        assert (r.returncode, r.stdout) == (0, "['horsmc.automata.dnf']\n"), \
            r.stderr

    def test_the_term_language_is_closed(self):
        import typing
        import horsmc
        from horsmc import App, NonTerminal, Terminal, Var, syntax
        assert typing.get_args(syntax.Term) == (Var, Terminal, NonTerminal,
                                                App)
        for module in (horsmc, syntax):
            assert not hasattr(module, "Lam") and not hasattr(module, "Fix")

    def test_oracles_are_not_reexported(self):
        import horsmc
        from horsmc import oracles
        assert all(hasattr(oracles, name) for name in oracles.__all__)
        assert set(oracles.__all__).isdisjoint(dir(horsmc))

    def test_formats_imports_no_pipeline_module(self):
        # The witness format is written and read in `formats` alone, so it
        # needs the data modules only, not the search, game or extraction.
        import ast
        from horsmc import formats
        tree = ast.parse(open(formats.__file__).read())
        assert {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1} \
            == {"automata", "itypes", "syntax"}

    def test_tracer_targets_resolve(self):
        # The benchmark's tracer replaces each (module, attribute) it lists
        # and fails on one that is missing.  Its list is read as text, so
        # the benchmark's code does not run here.
        import ast
        import importlib
        tracing = FIXTURES.parent / "tracing.py"
        targets = next(ast.literal_eval(node.value)
                       for node in ast.parse(tracing.read_text()).body
                       if isinstance(node, ast.Assign)
                       and [t.id for t in node.targets] == ["TARGETS"])
        assert targets
        for module, attribute, _ in targets:
            assert hasattr(importlib.import_module(module), attribute), \
                (module, attribute)


class TestDeterminism:
    def test_byte_identical_across_hash_seeds(self, files):
        _, scheme, apt = files
        for argv in (["check", scheme, apt, "-q", "q0"],
                     ["states", scheme, apt],
                     ["select", scheme, apt, "-q", "q0"],
                     ["dump-game", scheme, apt, "-q", "q0"]):
            runs = {seed: run_subprocess(argv, seed) for seed in (0, 1, 42)}
            for seed, r in runs.items():
                assert r.returncode == 0, (argv, seed, r.stderr)
            outs = {r.stdout for r in runs.values()}
            assert len(outs) == 1, (argv, outs)

    def test_invalid_automaton_message_across_hash_seeds(self, tmp_path):
        # Both atoms of delta(q, b) are out of range for the nullary `b`;
        # the first one in (direction, state) order is reported.  Hash
        # seeds 0 and 3 iterate the atom set in opposite orders.
        scheme = tmp_path / "b.hors"
        scheme.write_text("terminals:\n  b : 0\nnonterminals:\n  S : o\n"
                          "start: S\nrules:\n  S = b\n")
        apt = tmp_path / "b.apt"
        apt.write_text("states: q\ninitial: q\ndelta:\n"
                       "  q b -> (1,q) /\\ (2,q)\n")
        runs = [run_subprocess(["check", str(scheme), str(apt)], seed)
                for seed in (0, 3)]
        for r in runs:
            assert (r.returncode, r.stdout) == (2, "")
            assert r.stderr == (f"{apt}: direction 1 out of range for 'b' "
                                "(arity 0) in delta(q,b)\n")
