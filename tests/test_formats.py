import pytest

import random

from horsmc import (Arrow, Atom, FALSE, FAnd, FOr, GROUND, TRUE, Terminal,
                    check_wellformed, conj, disj, extract_scheme,
                    format_tree, unfold)
from horsmc.formats import (ParseError, parse_annotated, parse_apt,
                            parse_hors, parse_itype, parse_sort,
                            print_annotated, print_hors, print_tree)
from horsmc.itypes import format_itype
from horsmc.oracles import format_formula, print_apt
from conftest import loop_scheme, order2_unary, solve_cached

EX1_HORS = """\
# listening loop over a growing stack
terminals:
  if : 2
  data : 1
  Nil : 0
nonterminals:
  S : o
  L : o -> o
start: S
rules:
  S = L Nil
  L x = if x (L (data x))
"""

EX1_APT = """\
states: q0 q1
initial: q0
colors:
  q0 -> 0, q1 -> 0
delta:
  q0 if -> (2,q0) /\\ (2,q1)
  q1 if -> (1,q1) /\\ (2,q0)
  q1 data -> (1,q1)
  q0 Nil -> true
  q1 Nil -> true
"""


class TestHorsFormat:
    def test_parse_example(self, ex1):
        h = parse_hors(EX1_HORS)
        assert h == ex1
        assert check_wellformed(h) == []

    def test_round_trip(self, ex1):
        for h in (ex1, loop_scheme(), order2_unary()[0]):
            assert parse_hors(print_hors(h)) == h

    def test_deep_body(self):
        text = EX1_HORS.replace("S = L Nil",
                                "S = L " + "(data " * 600 + "Nil" + ")" * 600)
        body = parse_hors(text).rules["S"].body.argument
        for _ in range(600):
            assert body.function == Terminal("data")
            body = body.argument
        assert body == Terminal("Nil")
        assert parse_hors(EX1_HORS.replace("S = L Nil", "S = ((L) (Nil))")) \
            == parse_hors(EX1_HORS)

    def test_sort_parsing(self):
        assert parse_sort("o") == GROUND
        assert format_itype is not None
        from horsmc import Arrow
        assert parse_sort("o -> o -> o") == Arrow(GROUND, Arrow(GROUND, GROUND))
        assert parse_sort("(o -> o) -> o") == Arrow(Arrow(GROUND, GROUND), GROUND)

    def test_deep_and_long_sorts(self):
        # Parentheses nest, and arrows chain, past Python's recursion limit.
        oo = Arrow(GROUND, GROUND)
        assert parse_sort("(" * 600 + "o -> o" + ")" * 600) == oo
        assert parse_sort("(" * 600 + "o" + ")" * 600 + " -> o") == oo
        long = parse_sort(" -> ".join(["o"] * 3000))
        for _ in range(2999):
            assert long.domain == GROUND
            long = long.codomain
        assert long == GROUND
        nested = parse_sort("(o -> " * 3000 + "o" + ")" * 3000)
        for _ in range(3000):
            assert nested.domain == GROUND
            nested = nested.codomain
        assert nested == GROUND

    def test_unknown_name_is_positioned(self):
        bad = EX1_HORS.replace("L (data x)", "L (bogus x)")
        with pytest.raises(ParseError) as e:
            parse_hors(bad)
        assert e.value.line == 12 and "bogus" in e.value.msg

    def test_comments_and_blank_lines_ignored(self):
        text = "# top\n\nterminals:\n  c : 0  # trailing\nnonterminals:\n" \
               "  S : o\nstart: S\nrules:\n  S = c\n"
        h = parse_hors(text)
        assert h.terminals == {"c": 0}

    def test_missing_start_rejected(self):
        with pytest.raises(ParseError):
            parse_hors("terminals:\n  c : 0\nnonterminals:\n  S : o\n"
                       "rules:\n  S = c\n")

    def test_second_rule_positioned(self):
        # Keeping either rule would change the verdict: `F = a F` is an
        # infinite a-branch, `F = c` a leaf.
        with pytest.raises(ParseError) as e:
            parse_hors("terminals:\n  a : 1\n  c : 0\nnonterminals:\n"
                       "  S : o\n  F : o\nstart: S\nrules:\n  S = F\n"
                       "  F = a F\n  F = c\n")
        assert (e.value.line, e.value.col) == (11, 3)
        assert e.value.msg == "second rule for nonterminal 'F'"

    def test_repeated_terminal_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_hors("terminals:\n  a : 1\n  c : 0\n  a : 2\n"
                       "nonterminals:\n  S : o\nstart: S\nrules:\n"
                       "  S = a c\n")
        assert (e.value.line, e.value.col) == (4, 3)
        assert e.value.msg == "terminal 'a' declared twice"

    def test_repeated_nonterminal_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_hors("terminals:\n  c : 0\nnonterminals:\n  S : o\n"
                       "  F : o\n  F : o -> o\nstart: S\nrules:\n"
                       "  S = F\n  F = c\n")
        assert (e.value.line, e.value.col) == (6, 3)
        assert e.value.msg == "nonterminal 'F' declared twice"

    @pytest.mark.parametrize("sort, col, msg", [
        ("o ->", 11, "sort expected"), ("o -> x", 12, "bad sort token 'x'"),
        ("(o -> o", 14, "')' expected in sort"),
        ("o o", 9, "trailing sort token 'o'")])
    def test_bad_sort_positioned(self, sort, col, msg):
        with pytest.raises(ParseError) as e:
            parse_hors("terminals:\n  a : 0\nnonterminals:\n"
                       f"  S : {sort}\nstart: S\nrules:\n  S = a\n")
        assert (e.value.line, e.value.col, e.value.msg) == (4, col, msg)

    @pytest.mark.parametrize("sections, line, msg", [
        ("terminals:\n  a : 0\nnonterminals:\n  S : o\n  a : o\n", 5,
         "nonterminal 'a' already declared as a terminal"),
        ("nonterminals:\n  S : o\n  a : o\nterminals:\n  a : 0\n", 5,
         "terminal 'a' already declared as a nonterminal")],
        ids=["nonterminal-second", "terminal-second"])
    def test_terminal_and_nonterminal_name_rejected(self, sections, line,
                                                    msg):
        # Either reading of the body's `a` is possible, and they differ.
        with pytest.raises(ParseError) as e:
            parse_hors(sections + "start: S\nrules:\n  S = a\n  a = a\n")
        assert (e.value.line, e.value.col, e.value.msg) == (line, 3, msg)

    def test_body_name_positioned_past_the_head(self):
        # The body ` z` also occurs inside the head `F zz`.
        with pytest.raises(ParseError) as e:
            parse_hors("terminals:\n  a : 0\nnonterminals:\n  S : o\n"
                       "  F : o -> o\nstart: S\nrules:\n  S = F a\n"
                       "  F zz = z\n")
        assert (e.value.line, e.value.col) == (9, 10)
        assert e.value.msg == "unknown name 'z'"

    @pytest.mark.parametrize("text", [
        "terminals: a : 1\n  c : 0\nnonterminals: S : o\nstart: S\n"
        "rules: S = a c\n",
        "terminals:\n  a : 1\n  c : 0\nnonterminals:\n  S : o\nstart:\n"
        "  S\nrules:\n  S = a c\n"], ids=["on-header", "below-header"])
    def test_header_line_carries_first_entry(self, text):
        assert parse_hors(text) == parse_hors(SCHEME)

    def test_header_line_entry_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_hors("terminals: a : 1\nnonterminals: S : o\nstart: S\n"
                       "rules: S = a b\n")
        assert (e.value.line, e.value.col) == (4, 14)
        assert e.value.msg == "unknown name 'b'"

    @pytest.mark.parametrize("rule, col, msg", [
        ("  S x = a", 5, "too many binders for 'S'"),
        ("  S (x) = a", 5, "malformed rule head"),
        ("  = a", 3, "malformed rule head"),
        ("  S! = a", 4, "unexpected character '!'")])
    def test_rule_head_error_positioned(self, rule, col, msg):
        with pytest.raises(ParseError) as e:
            parse_hors("terminals:\n  a : 0\nnonterminals:\n  S : o\n"
                       f"start: S\nrules:\n{rule}\n")
        assert (e.value.line, e.value.col, e.value.msg) == (7, col, msg)


def parse_formula(text: str, states: str = "q"):
    return parse_apt(f"states: {states}\ninitial: q\ndelta:\n  q a -> {text}\n",
                     terminals={"a": 3}).delta[("q", "a")]


class TestAptFormat:
    def test_parse_example(self, ex1, ex1_apt):
        m = parse_apt(EX1_APT, terminals=ex1.terminals)
        assert m.states == ex1_apt.states
        assert m.delta == ex1_apt.delta
        assert m.omega == ex1_apt.omega
        assert m.initial == ex1_apt.initial

    def test_round_trip(self, ex1, ex1_apt):
        text = print_apt(ex1_apt)
        again = parse_apt(text, terminals=ex1.terminals)
        assert again.states == ex1_apt.states
        assert again.delta == ex1_apt.delta
        assert again.omega == ex1_apt.omega

    def test_formula_precedence(self):
        m = parse_apt("states: q\ninitial: q\ndelta:\n"
                      "  q a -> (1,q) /\\ (2,q) \\/ (3,q)\n",
                      terminals={"a": 3})
        f = m.delta[("q", "a")]
        # /\ binds tighter than \/
        assert format_formula(f) == "(1,q) /\\ (2,q) \\/ (3,q)"
        from horsmc import FOr
        assert isinstance(f, FOr)

    def test_parenthesized_group_vs_atom(self):
        m = parse_apt("states: q\ninitial: q\ndelta:\n"
                      "  q a -> ((1,q) \\/ (2,q)) /\\ (1,q)\n",
                      terminals={"a": 2})
        from horsmc import FAnd
        assert isinstance(m.delta[("q", "a")], FAnd)

    def test_groups_of_one_connective_read_flat(self):
        a, b, c = Atom(1, "q"), Atom(2, "q"), Atom(3, "q")
        assert parse_formula("((1,q) /\\ (2,q)) /\\ (3,q)") == FAnd((a, b, c))
        assert parse_formula("(1,q) \\/ ((2,q) \\/ (3,q))") == FOr((a, b, c))
        assert parse_formula("true /\\ (1,q) /\\ true") == a
        assert parse_formula("(" * 600 + "(1,q) \\/ (2,q)" + ")" * 600) \
            == FOr((a, b))

    def test_printed_formulas_read_back(self):
        atoms = [Atom(d, q) for d in (1, 2, 3) for q in ("q", "r")]

        def draw(rng, depth):
            if depth == 0 or rng.random() < 0.3:
                return rng.choice(atoms + [TRUE, FALSE])
            build = conj if rng.random() < 0.5 else disj
            return build(*(draw(rng, depth - 1)
                           for _ in range(rng.randrange(4))))

        rng = random.Random(11)
        for _ in range(300):
            f = draw(rng, 4)
            assert parse_formula(format_formula(f), "q r") == f, f
        assert format_formula(conj(disj(atoms[0], atoms[1]), atoms[2])) \
            == "((1,q) \\/ (1,r)) /\\ (2,q)"
        assert format_formula(disj(TRUE, conj(FALSE, atoms[0]))) \
            == "true \\/ false /\\ (1,q)"

    def test_true_false_and_missing_default(self):
        m = parse_apt("states: q\ninitial: q\ndelta:\n  q a -> false\n",
                      terminals={"a": 0})
        assert m.delta_of("q", "a") == FALSE
        assert m.delta_of("q", "unheard_of") == FALSE

    def test_bad_formula_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_apt("states: q\ninitial: q\ndelta:\n  q a -> (1,q) /\\\n",
                      terminals={"a": 1})
        assert e.value.line == 4

    def test_formula_token_positioned_past_the_head(self):
        # The formula `t` also occurs as the state of the transition.
        with pytest.raises(ParseError) as e:
            parse_apt("states: t\ninitial: t\ncolors:\n  t -> 0\ndelta:\n"
                      "  t a -> t\n", terminals={"a": 0})
        assert (e.value.line, e.value.col) == (6, 10)
        assert e.value.msg == "unexpected formula token 't'"

    @pytest.mark.parametrize("colors, line, col", [
        ("colors:\n  q -> 0, r 1\n", 4, 11), ("colors: q -> 0, r 1\n", 3, 17)])
    def test_bad_color_entry_positioned(self, colors, line, col):
        with pytest.raises(ParseError) as e:
            parse_apt("states: q r\ninitial: q\n" + colors, terminals={})
        assert (e.value.line, e.value.col) == (line, col)
        assert e.value.msg == "expected 'state -> color'"

    def test_repeated_state_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_apt("states: q r\n  p q\ninitial: q\n", terminals={})
        assert (e.value.line, e.value.col) == (2, 5)
        assert e.value.msg == "state 'q' listed twice"

    def test_repeated_transition_positioned(self):
        with pytest.raises(ParseError) as e:
            parse_apt("states: q\ninitial: q\ndelta:\n  q a -> (1,q)\n"
                      "  q b -> true\n  q a -> false\n",
                      terminals={"a": 1, "b": 0})
        assert (e.value.line, e.value.col) == (6, 3)
        assert e.value.msg == "second transition for state 'q' and symbol 'a'"

    @pytest.mark.parametrize("colors, line, col", [
        ("  q -> 1, q -> 2\n", 4, 11), ("  q -> 1\n  q -> 2\n", 5, 3)])
    def test_second_color_positioned(self, colors, line, col):
        # Keeping the later color 2 would accept the one-state a-loop that
        # color 1 rejects.
        with pytest.raises(ParseError) as e:
            parse_apt("states: q\ninitial: q\ncolors:\n" + colors
                      + "delta:\n  q a -> (1,q)\n", terminals={"a": 1})
        assert (e.value.line, e.value.col) == (line, col)
        assert e.value.msg == "second color for state 'q'"

    @pytest.mark.parametrize("text, line", [
        ("states: q\ninitial: q\ncolors: q -> 0, r -> 1\n", 3),
        ("colors: q -> 0, r -> 1\nstates: q\ninitial: q\n", 1)],
        ids=["states-first", "colors-first"])
    def test_color_for_unlisted_state_positioned(self, text, line):
        # A misspelt state in `colors:` would leave the real one at color 0.
        with pytest.raises(ParseError) as e:
            parse_apt(text + "delta:\n  q a -> (1,q)\n", terminals={"a": 1})
        assert (e.value.line, e.value.col) == (line, 17)
        assert e.value.msg == "color for unlisted state 'r'"

    def test_colors_comma_or_newline(self):
        m = parse_apt("states: a b c\ninitial: a\ncolors:\n"
                      "  a -> 1, b -> 2\n  c -> 3\n", terminals={})
        assert m.omega == {"a": 1, "b": 2, "c": 3}


class TestAnnotatedFormat:
    def test_round_trip_through_text(self, ex1, ex1_apt):
        _, sol = solve_cached(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        text = print_annotated(w)
        again = parse_annotated(text)
        assert again.hors == w.hors
        assert again.nonterminal_info == w.nonterminal_info
        for sym, (a, profile, q) in again.terminal_info.items():
            a0, profile0, q0 = w.terminal_info[sym]
            assert (a, q) == (a0, q0)
            # trailing erased directions may be trimmed in the token
            assert profile == profile0[:len(profile)]
            assert all(not comp for comp in profile0[len(profile):])

    def test_parse_itype(self):
        t = parse_itype("{0.q1,e.q0}->q0")
        assert format_itype(t) == "{e.q0,0.q1}->q0"
        nested = parse_itype("{0.{e.q0}->q0}->q1")
        assert format_itype(nested) == "{0.{e.q0}->q0}->q1"

    @pytest.mark.parametrize("terminal, nonterminal, line, col, msg", [
        ("  a@{1:e.q}->q : 2\n", "", 3, 3,
         "profile arity mismatch for 'a@{1:e.q}->q'"),
        ("  a@{1:q}->q : 1\n", "", 3, 3, "bad profile entry '1:q'"),
        ("  a@{0:e.q}->q : 0\n", "", 3, 3,
         "profile direction 0 below 1 in 'a@{0:e.q}->q'"),
        ("  a@{2:e.q,1:e.r}->q : 2\n", "", 3, 3,
         "profile direction 1 below 2 in 'a@{2:e.q,1:e.r}->q'"),
        ("", "  F@{e.q}-> : o -> o\n", 5, 12, "state expected in type"),
        ("", "  F@{q}->q : o -> o\n", 5, 6, "'color.type' expected")],
        ids=["profile-arity", "profile-entry", "profile-direction-zero",
             "profile-directions-descending", "type-state", "type-color"])
    def test_bad_declaration_positioned(self, terminal, nonterminal, line,
                                        col, msg):
        text = ("terminals:\n  c@{}->q : 0\n" + terminal
                + "nonterminals:\n  S@q : o\n" + nonterminal
                + "start: S@q\nrules:\n  S@q = c@{}->q\n")
        with pytest.raises(ParseError) as e:
            parse_annotated(text)
        assert (e.value.line, e.value.col, e.value.msg) == (line, col, msg)

    def test_witness_unfolds_after_parsing(self, ex1, ex1_apt):
        _, sol = solve_cached(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        again = parse_annotated(print_annotated(w))
        assert format_tree(unfold(again.hors, 4)) == \
            format_tree(unfold(w.hors, 4))


def test_tree_printing(ex1):
    assert print_tree(unfold(ex1, 2)) == "(if (Nil) (if _|_ _|_))"
    assert print_tree(unfold(ex1, 0)) == "_|_"


# One row per `ParseError` message of `horsmc.formats`, each with the line,
# column and message it reports.  Schemes edit `SCHEME`, automata `AUTOMATON`
# (read over the terminals of `SCHEME`) and witnesses `WITNESS`.
SCHEME = ("terminals:\n  a : 1\n  c : 0\nnonterminals:\n  S : o\nstart: S\n"
          "rules:\n  S = a c\n")
AUTOMATON = ("states: q\ninitial: q\ncolors:\n  q -> 0\ndelta:\n"
             "  q a -> (1,q)\n  q c -> true\n")
WITNESS = ("terminals:\n  c@{}->q : 0\nnonterminals:\n  S@q : o\n"
           "start: S@q\nrules:\n  S@q = c@{}->q\n")


def _edit(base, old, new):
    assert old in base
    return base.replace(old, new, 1)


PARSERS = {
    "scheme": parse_hors,
    "automaton": lambda t: parse_apt(t, terminals={"a": 1, "c": 0}),
    "witness": parse_annotated,
    "itype": parse_itype,
}

ERROR_TABLE = [
    # Scheme declarations and sections.
    ("scheme", "foo\n" + SCHEME, 1, 1, "text outside any section: 'foo'"),
    ("scheme", _edit(SCHEME, "start: S\n", ""), 1, 1,
     "missing start symbol"),
    ("scheme", _edit(SCHEME, "a : 1", "a : x"), 2, 3,
     "expected 'name : arity'"),
    ("scheme", _edit(SCHEME, "  c : 0\n", "  c : 0\n  a : 0\n"), 4, 3,
     "terminal 'a' declared twice"),
    ("scheme", "nonterminals:\n  S : o\nterminals:\n  S : 0\n"
     "start: S\nrules:\n  S = S\n", 4, 3,
     "terminal 'S' already declared as a nonterminal"),
    ("scheme", _edit(SCHEME, "S : o", "S :"), 5, 3,
     "expected 'name : sort'"),
    ("scheme", _edit(SCHEME, "  S : o\n", "  S : o\n  S : o\n"), 6, 3,
     "nonterminal 'S' declared twice"),
    ("scheme", _edit(SCHEME, "  S : o\n", "  S : o\n  c : o\n"), 6, 3,
     "nonterminal 'c' already declared as a terminal"),
    # Sorts.
    ("scheme", _edit(SCHEME, "S : o", "S : o ->"), 5, 11, "sort expected"),
    ("scheme", _edit(SCHEME, "S : o", "S : (o -> o"), 5, 14,
     "')' expected in sort"),
    ("scheme", _edit(SCHEME, "S : o", "S : x"), 5, 7, "bad sort token 'x'"),
    ("scheme", _edit(SCHEME, "S : o", "S : o o"), 5, 9,
     "trailing sort token 'o'"),
    # Rules.
    ("scheme", _edit(SCHEME, "S = a c", "S a c"), 8, 3,
     "expected 'F x1 ... xn = body'"),
    ("scheme", _edit(SCHEME, "S = a c", "S (x) = a c"), 8, 5,
     "malformed rule head"),
    ("scheme", _edit(SCHEME, "S = a c", "S! = a c"), 8, 4,
     "unexpected character '!'"),
    ("scheme", SCHEME + "  F = c\n", 9, 3,
     "rule for undeclared nonterminal 'F'"),
    ("scheme", SCHEME + "  S = c\n", 9, 3,
     "second rule for nonterminal 'S'"),
    ("scheme", _edit(SCHEME, "S = a c", "S x = a c"), 8, 5,
     "too many binders for 'S'"),
    ("scheme", _edit(SCHEME, "S = a c", "S = a ("), 8, 10,
     "expression expected"),
    ("scheme", _edit(SCHEME, "S = a c", "S = a (c"), 8, 11, "')' expected"),
    ("scheme", _edit(SCHEME, "S = a c", "S = )"), 8, 7, "unexpected ')'"),
    ("scheme", _edit(SCHEME, "S = a c", "S = a b"), 8, 9,
     "unknown name 'b'"),
    ("scheme", _edit(SCHEME, "S = a c", "S = a c)"), 8, 10,
     "trailing token ')'"),
    # Automaton sections and entries.
    ("automaton", "foo\n" + AUTOMATON, 1, 1,
     "text outside any section: 'foo'"),
    ("automaton", _edit(AUTOMATON, "states: q\n", ""), 1, 1,
     "missing states"),
    ("automaton", _edit(AUTOMATON, "initial: q\n", ""), 1, 1,
     "missing initial state"),
    ("automaton", _edit(AUTOMATON, "states: q", "states: q q"), 1, 11,
     "state 'q' listed twice"),
    ("automaton", _edit(AUTOMATON, "q -> 0", "q -> 0, r 1"), 4, 11,
     "expected 'state -> color'"),
    ("automaton", _edit(AUTOMATON, "q -> 0", "q -> 0, q -> 1"), 4, 11,
     "second color for state 'q'"),
    ("automaton", _edit(AUTOMATON, "q -> 0", "q -> 0, r -> 1"), 4, 11,
     "color for unlisted state 'r'"),
    ("automaton", _edit(AUTOMATON, "q a -> (1,q)", "q a (1,q)"), 6, 3,
     "expected 'state symbol -> formula'"),
    ("automaton", AUTOMATON + "  q a -> false\n", 8, 3,
     "second transition for state 'q' and symbol 'a'"),
    ("automaton", _edit(AUTOMATON, "q c", "q cc"), 7, 5,
     "transition for unknown symbol 'cc'"),
    # Formulas.
    ("automaton", _edit(AUTOMATON, "(1,q)", "!"), 6, 10,
     "bad formula character '!'"),
    ("automaton", _edit(AUTOMATON, "(1,q)", "(1,q) /\\"), 6, 18,
     "formula ends unexpectedly"),
    ("automaton", _edit(AUTOMATON, "(1,q)", "((1,q)"), 6, 16,
     "')' expected"),
    ("automaton", _edit(AUTOMATON, "(1,q)", "(1 q)"), 6, 13,
     "expected ',', found 'q'"),
    ("automaton", _edit(AUTOMATON, "(1,q)", "q"), 6, 10,
     "unexpected formula token 'q'"),
    ("automaton", _edit(AUTOMATON, "(1,q)", "true (1,q)"), 6, 15,
     "trailing formula token '('"),
    # Witness declarations and their types.
    ("witness", _edit(WITNESS, "nonterminals:", "  b : 0\nnonterminals:"),
     3, 3, "bad annotated terminal 'b'"),
    ("witness", _edit(WITNESS, "nonterminals:",
                      "  a@{1:q}->q : 1\nnonterminals:"), 3, 3,
     "bad profile entry '1:q'"),
    ("witness", _edit(WITNESS, "nonterminals:",
                      "  a@{1:e.q}->q : 2\nnonterminals:"), 3, 3,
     "profile arity mismatch for 'a@{1:e.q}->q'"),
    ("witness", _edit(WITNESS, "nonterminals:",
                      "  a@{0:e.q}->q : 1\nnonterminals:"), 3, 3,
     "profile direction 0 below 1 in 'a@{0:e.q}->q'"),
    ("witness", _edit(WITNESS, "nonterminals:",
                      "  a@{1:e.q,3:e.q,2:e.r}->q : 3\nnonterminals:"), 3, 3,
     "profile direction 2 below 3 in 'a@{1:e.q,3:e.q,2:e.r}->q'"),
    ("witness", _edit(WITNESS, "start:", "  F@{e.q}q : o -> o\nstart:"),
     5, 10, "'->' expected in type"),
    ("witness", _edit(WITNESS, "start:", "  F@{e.q}-> : o -> o\nstart:"),
     5, 12, "state expected in type"),
    ("witness", _edit(WITNESS, "start:", "  F@{q}->q : o -> o\nstart:"),
     5, 6, "'color.type' expected"),
    ("witness", _edit(WITNESS, "start:", "  F@{e.q : o -> o\nstart:"),
     5, 9, "'}' expected in type"),
    ("witness", _edit(WITNESS, "start:", "  F@q} : o\nstart:"),
     5, 6, "trailing type text '}'"),
    ("itype", "{e.q", 0, 5, "'}' expected in type"),
    ("itype", "{e.q, 0.q}->q", 0, 6, "'color.type' expected"),
]


@pytest.mark.parametrize("parser, text, line, col, msg", ERROR_TABLE,
                         ids=[f"{row[0]}-{row[4]}" for row in ERROR_TABLE])
def test_parse_error_table(parser, text, line, col, msg):
    with pytest.raises(ParseError) as e:
        PARSERS[parser](text)
    assert (e.value.line, e.value.col, e.value.msg) == (line, col, msg)
