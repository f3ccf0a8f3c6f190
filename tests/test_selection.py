import hashlib
from unittest import mock

import pytest
from hypothesis import given, reject, settings

from horsmc import (ADAM, AdamNode, AnnotatedHors, Apt, ArrowType, Atom, EVE,
                    EveNode, GROUND, Hors, NonTerminal, ParityGame, Rule,
                    StateType, TRUE, Terminal, UnresolvedWithinBudget,
                    accepted_states, apply, build_game, check_wellformed,
                    colored_set, conj, extract_scheme, format_report,
                    format_tree, unfold, verify_runtree, zielonka)
from horsmc import SizeGuardExceeded, game, selection
from horsmc.formats import parse_annotated, print_annotated, terminal_symbol
from horsmc.selection import (LosingStart, ReconstructionError,
                              RunReport, annotated_sort)
from horsmc.syntax import Arrow, arrow
from horsmc.typecheck import DDelta
from conftest import (const_scheme, grow_apt, grow_scheme, loop_apt,
                      loop_scheme, order0_apt, order0_instances,
                      order0_scheme, order1_instances, order1_scheme,
                      order2_unary, solve_cached)

Q0, Q1 = StateType("q0"), StateType("q1")


def solve(h, m, q):
    return solve_cached(h, m, q)[1]


class TestExtractScheme:
    def test_nullary_witness(self):
        h, m = const_scheme()
        w = extract_scheme(h, m, solve(h, m, "q"), "q")
        assert list(w.hors.rules) == ["S@q"]
        rule = w.hors.rules["S@q"]
        assert rule.binders == () and rule.body == Terminal("c@{}->q")
        assert w.terminal_info["c@{}->q"] == ("c", (), "q")

    def test_constant_color_loop(self):
        h, m = loop_scheme(), loop_apt(2)
        w = extract_scheme(h, m, solve(h, m, "q"), "q")
        bodies = {n: r.body for n, r in w.hors.rules.items()}
        assert w.hors.start == "S@q"
        # the witness unfolds to the annotated branch (a, q) repeated
        t = unfold(w.hors, 4)
        assert format_tree(t) == \
            "(a@{1:2.q}->q (a@{1:2.q}->q (a@{1:2.q}->q (a@{1:2.q}->q _|_))))"
        report = verify_runtree(w, h, m, "q", 10)
        assert report.passed
        assert report.branch_max_colors[0][1] == 2

    def test_losing_state_rejected(self):
        h, m = loop_scheme(), loop_apt(1)
        with pytest.raises(LosingStart):
            extract_scheme(h, m, solve(h, m, "q"), "q")

    def test_move_without_derivation_is_named(self):
        # A game built from nodes alone, as the benchmark's synthetic games
        # are, gives Eve a move that carries no derivation.
        h, m = const_scheme()
        eve = EveNode("S", StateType("q"))
        adam = AdamNode("S", StateType("q"), ())
        g = ParityGame((eve, adam), {eve: EVE, adam: ADAM},
                       {eve: 1, adam: 1}, {eve: (adam,)}, eve)
        sol = zielonka(g)
        assert sol.strategy_eve == {eve: adam}
        with pytest.raises(ReconstructionError) as e:
            extract_scheme(h, m, sol, "q")
        assert str(e.value) == (f"strategy move {adam} at {eve} carries no "
                                "derivation")

    def test_non_ground_terminal_type_is_named(self):
        # A derivation that types a terminal at a non-ground argument set
        # has no colored profile, so no annotated terminal is made for it.
        h, m = const_scheme()
        q = StateType("q")
        bad = ArrowType(colored_set([(0, ArrowType(colored_set([]), q))]), q)
        eve = EveNode("S", q)
        adam = AdamNode("S", q, (), DDelta(Terminal("c"), bad))
        g = ParityGame((eve, adam), {eve: EVE, adam: ADAM},
                       {eve: 1, adam: 1}, {eve: (adam,)}, eve)
        with pytest.raises(ReconstructionError) as e:
            extract_scheme(h, m, zielonka(g), "q")
        assert str(e.value) == ("terminal 'c' typed with a non-ground "
                                "argument set")

    def test_example_witness_verifies_deeply(self, ex1, ex1_apt):
        sol = solve(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        assert check_wellformed(w.hors) == []
        for depth in (1, 4, 6, 10):
            report = verify_runtree(w, ex1, ex1_apt, "q0", depth)
            assert report.passed, (depth, report.projection_mismatches,
                                   report.transition_violations)

    def test_witness_is_deterministic(self, ex1, ex1_apt):
        w1 = extract_scheme(ex1, ex1_apt, solve(ex1, ex1_apt, "q0"), "q0")
        w2 = extract_scheme(ex1, ex1_apt, solve(ex1, ex1_apt, "q0"), "q0")
        assert w1.hors == w2.hors
        assert w1.terminal_info == w2.terminal_info

    def test_nonterminal_count_bound(self, ex1, ex1_apt):
        g, sol = solve_cached(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        eve_won = [v for v in sol.win_eve if isinstance(v, EveNode)]
        plain = [n for n in w.hors.nonterminals
                 if n in w.nonterminal_info]
        assert len(plain) <= len(eve_won)

    def test_order2_witness(self):
        h, m = order2_unary()
        sol = solve(h, m, "q")
        w = extract_scheme(h, m, sol, "q")
        assert check_wellformed(w.hors) == []
        report = verify_runtree(w, h, m, "q", 10)
        assert report.passed, (report.projection_mismatches[:2],
                               report.transition_violations[:2])


class TestVerifyRuntree:
    def test_clean_report_on_all_accepted_fixtures(self, ex1, ex1_apt):
        fixtures = [(*const_scheme(), "q"), (loop_scheme(), loop_apt(2), "q"),
                    (ex1, ex1_apt, "q0"), (ex1, ex1_apt, "q1"),
                    (*order2_unary(), "q")]
        for h, m, q in fixtures:
            assert q in accepted_states(h, m)
            w = extract_scheme(h, m, solve(h, m, q), q)
            report = verify_runtree(w, h, m, q, 10)
            assert report.passed

    def test_unknown_annotated_symbol(self):
        # Parsing decodes every terminal it declares, so only a witness
        # built in Python can name a symbol it does not annotate.
        h, m = loop_scheme(), loop_apt(2)
        w = extract_scheme(h, m, solve(h, m, "q"), "q")
        bare = AnnotatedHors(w.hors, {}, w.nonterminal_info)
        assert format_report(verify_runtree(bare, h, m, "q", 2)) == (
            "depth checked: 2\nprojection mismatches: 0\n"
            "transition violations: 1\n"
            "  transition at []: unknown annotated symbol 'a@{1:2.q}->q'\n"
            "max colors seen on branches: []\nverdict: VIOLATIONS")

    def test_fault_injection_state_swap(self, ex1, ex1_apt):
        # swap the announced child state of the single data node visible at
        # depth 3 (its subtree is cut off, so exactly one check can fire)
        sol = solve(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        victim = "data@{1:0.q1}->q1"
        assert victim in w.terminal_info
        w.terminal_info[victim] = ("data", (((0, "q0"),),), "q1")
        report = verify_runtree(w, ex1, ex1_apt, "q0", 3)
        assert not report.passed
        assert report.transition_violations == [
            ((2, 1), "profile of 'data@{1:0.q1}->q1' does not satisfy the "
                     "transition at q1")]
        assert report.projection_mismatches == []
        assert report.branch_max_colors == [
            ((1, 1, 1), 0), ((1, 1, 2), 0), ((1, 2, 1), 0), ((1, 2, 2), 0),
            ((2, 1, 1), 0), ((2, 2, 1), 0), ((2, 2, 2), 0)]

    def test_fault_injection_color(self, ex1, ex1_apt):
        # a child's announced color is checked as the walk enters the child,
        # after its parent's own checks
        sol = solve(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        victim = "data@{1:0.q1}->q1"
        w.terminal_info[victim] = ("data", (((2, "q1"),),), "q1")
        report = verify_runtree(w, ex1, ex1_apt, "q0", 3)
        assert report.transition_violations == [
            ((2, 1), "profile of 'data@{1:0.q1}->q1' does not satisfy the "
                     "transition at q1"),
            ((2, 1, 1), "profile color 2 differs from the color of q1")]
        assert report.projection_mismatches == []

    def test_corrupted_projection_detected(self, ex1, ex1_apt):
        sol = solve(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        victim = "data@{1:0.q1}->q1"
        orig, profile, state = w.terminal_info[victim]
        w.terminal_info[victim] = ("Nil", profile, state)
        report = verify_runtree(w, ex1, ex1_apt, "q0", 4)
        assert report.projection_mismatches == [((1, 2, 1), "data", "Nil"),
                                                ((2, 1), "data", "Nil")]
        assert report.transition_violations == []
        assert report.branch_max_colors == [
            ((1, 1, 1, 1), 0), ((1, 1, 1, 2), 0), ((1, 1, 2, 1), 0),
            ((1, 1, 2, 2), 0), ((1, 2, 2, 1), 0), ((1, 2, 2, 2), 0),
            ((2, 2, 1, 1), 0), ((2, 2, 1, 2), 0), ((2, 2, 2, 1), 0),
            ((2, 2, 2, 2), 0)]

    def test_divergence_on_the_run_is_reported(self):
        # The witness of `S = a D S; D = c` reads both directions of every
        # a; against `D = D`, the first D it reads diverges.  The path is
        # the node's position in the original tree.
        h = Hors({"a": 2, "c": 0}, {"S": GROUND, "D": GROUND},
                 {"S": Rule((), apply(Terminal("a"), NonTerminal("D"),
                                      NonTerminal("S"))),
                  "D": Rule((), Terminal("c"))}, "S")
        m = Apt(states=("q",), initial="q", omega={"q": 2},
                terminals={"a": 2, "c": 0},
                delta={("q", "a"): conj(Atom(1, "q"), Atom(2, "q")),
                       ("q", "c"): TRUE})
        w = extract_scheme(h, m, zielonka(build_game(h, m, states=["q"])),
                           "q")
        diverging = Hors(h.terminals, h.nonterminals,
                         {**h.rules, "D": Rule((), NonTerminal("D"))}, "S")
        with pytest.raises(UnresolvedWithinBudget) as e:
            verify_runtree(w, diverging, m, "q", 5)
        assert (e.value.path, e.value.steps) == ((1,), 10_001)
        assert verify_runtree(w, diverging, m, "q", 1).passed

    def test_divergence_path_is_in_the_original_tree(self):
        # The run reads direction 2 of the root and direction 1 below it:
        # its node (1, 1) sits at (2, 1) in the original tree.
        h = Hors({"a": 2, "b": 1, "c": 0},
                 {"S": GROUND, "D": GROUND},
                 {"S": Rule((), apply(Terminal("a"), NonTerminal("D"),
                                      apply(Terminal("b"),
                                            NonTerminal("D")))),
                  "D": Rule((), Terminal("c"))}, "S")
        m = Apt(states=("q",), initial="q", omega={"q": 0},
                terminals={"a": 2, "b": 1, "c": 0},
                delta={("q", "a"): Atom(2, "q"), ("q", "b"): Atom(1, "q"),
                       ("q", "c"): TRUE})
        w = extract_scheme(h, m, zielonka(build_game(h, m, states=["q"])),
                           "q")
        diverging = Hors(h.terminals, h.nonterminals,
                         {**h.rules, "D": Rule((), NonTerminal("D"))}, "S")
        with pytest.raises(UnresolvedWithinBudget) as e:
            verify_runtree(w, diverging, m, "q", 5)
        assert e.value.path == (2, 1)

    def test_empty_direction_past_the_arity_is_named(self):
        # A profile with a second, empty direction over `a : 1`: the first
        # direction the original lacks is named, and the child of
        # direction 1 is still checked.
        h, m = loop_scheme(), loop_apt(2)
        w = extract_scheme(h, m, solve(h, m, "q"), "q")
        w.terminal_info["a@{1:2.q}->q"] = ("a", (((2, "q"),), ()), "q")
        unsatisfied = ("profile of 'a@{1:2.q}->q' does not satisfy the "
                       "transition at q")
        past = ("profile of 'a@{1:2.q}->q' names direction 2, past the "
                "arity 1 of 'a'")
        assert verify_runtree(w, h, m, "q", 2) == RunReport(
            2, [], [((), unsatisfied), ((), past), ((1,), unsatisfied),
                    ((1,), past)], [((1, 1), 2)])

    def test_depth_zero_report_is_empty(self, ex1, ex1_apt):
        sol = solve(ex1, ex1_apt, "q0")
        w = extract_scheme(ex1, ex1_apt, sol, "q0")
        report = verify_runtree(w, ex1, ex1_apt, "q0", 0)
        assert report.passed and report.depth == 0


def verify_case(name, request):
    """(scheme, automaton, state) of a fixture named in a parameter list."""
    if name == "ex1":
        return (request.getfixturevalue("ex1"),
                request.getfixturevalue("ex1_apt"), "q0")
    return {"loop": (loop_scheme(), loop_apt(2), "q"),
            "order2_unary": (*order2_unary(), "q"),
            "grow": (grow_scheme(), grow_apt(), "q")}[name]


class TestVerifyWork:
    """One `verify_runtree` call rewrites each distinct term of either
    scheme once and checks each distinct annotated symbol once, however
    often they recur in the run, and builds no prefix of the witness; its
    report is the one pinned below."""

    # (fixture, depth, most head rewrites of the original and of the
    # witness, most transition checks); per position they would be 300,
    # 300, 300 / 6,654, 6,654, 6,654 / 300, 300, 300.
    WORK = [("loop", 300, 2, 2, 1), ("ex1", 16, 31, 46, 5),
            ("grow", 300, 300, 2, 1)]

    @pytest.mark.parametrize("name, depth, normals, run_normals, checks",
                             WORK, ids=[row[0] for row in WORK])
    def test_work_per_distinct_term_and_symbol(self, request, monkeypatch,
                                               name, depth, normals,
                                               run_normals, checks):
        h, m, q = verify_case(name, request)
        w = extract_scheme(h, m, solve(h, m, q), q)
        calls = {"original": 0, "witness": 0, "satisfies": 0}
        head_normal, satisfies = selection.head_normal, selection.satisfies

        def counted_head_normal(scheme, *args):
            calls["original" if scheme is h else "witness"] += 1
            return head_normal(scheme, *args)

        def counted_satisfies(*args):
            calls["satisfies"] += 1
            return satisfies(*args)

        monkeypatch.setattr(selection, "head_normal", counted_head_normal)
        monkeypatch.setattr(selection, "satisfies", counted_satisfies)
        assert verify_runtree(w, h, m, q, depth).passed
        assert calls["original"] <= normals
        assert calls["witness"] <= run_normals
        assert calls["satisfies"] <= checks

    @pytest.mark.parametrize("name, depth", [("loop", 300), ("ex1", 10),
                                             ("grow", 300),
                                             ("order2_unary", 40)])
    def test_no_prefix_of_the_witness_is_built(self, request, monkeypatch,
                                               name, depth):
        h, m, q = verify_case(name, request)
        w = extract_scheme(h, m, solve(h, m, q), q)

        def refused(*args):
            raise AssertionError("verify_runtree unfolded a scheme")

        monkeypatch.setattr(selection, "unfold", refused)
        assert verify_runtree(w, h, m, q, depth).passed

    # (fixture, depth, leaves, sha256 of the report's repr)
    REPORTS = [
        ("ex1", 16, 4180, "200d954da02df36d3f1ca2c5b3ec1d8c"
                          "c5730ea5f836d613a74e7bef7b67d6c6"),
        ("order2_unary", 40, 41, "b20ac28503cc0b0411f0344be58b6f29"
                                 "ce3b53e2c828dc4e1bb2aebe32837a02"),
        ("grow", 60, 1, "cf5058dc876cd3f340ab2f2e87f605fe"
                        "46f867b24ef0d301b4f2df914912dc2a"),
    ]

    @pytest.mark.parametrize("name, depth, leaves, digest", REPORTS,
                             ids=[row[0] for row in REPORTS])
    def test_report_is_pinned(self, request, name, depth, leaves, digest):
        # Golden reports: every leaf, path and color, in the walk's order.
        h, m, q = verify_case(name, request)
        w = extract_scheme(h, m, solve(h, m, q), q)
        report = verify_runtree(w, h, m, q, depth)
        assert len(report.branch_max_colors) == leaves
        assert hashlib.sha256(repr(report).encode()).hexdigest() == digest

    def test_symbol_facts_do_not_outlive_a_call(self):
        # One witness against two automata that differ in the color of q,
        # so also in whether its profile satisfies the transition: each
        # report is the one that automaton gives, in either order.
        h = loop_scheme()
        w = extract_scheme(h, loop_apt(2), solve(h, loop_apt(2), "q"), "q")
        unsatisfied = ("profile of 'a@{1:2.q}->q' does not satisfy the "
                       "transition at q")
        recolored = "profile color 2 differs from the color of q"
        at_two = RunReport(3, [], [], [((1, 1, 1), 2)])
        at_one = RunReport(3, [], [((), unsatisfied), ((1,), recolored),
                                   ((1,), unsatisfied), ((1, 1), recolored),
                                   ((1, 1), unsatisfied),
                                   ((1, 1, 1), recolored)],
                           [((1, 1, 1), 1)])
        for color, report in ((2, at_two), (1, at_one), (2, at_two)):
            assert verify_runtree(w, h, loop_apt(color), "q", 3) == report

class TestSortTransform:
    def test_ground(self):
        assert annotated_sort(Q0) == GROUND

    def test_one_child_per_entry(self):
        u = colored_set([(0, Q0), (0, Q1)])
        assert annotated_sort(ArrowType(u, Q0)) == \
            arrow(GROUND, GROUND, GROUND)

    def test_nested(self):
        inner = ArrowType(colored_set([(0, Q0)]), Q0)
        outer = ArrowType(colored_set([(1, inner)]), Q1)
        assert annotated_sort(outer) == \
            Arrow(Arrow(GROUND, GROUND), GROUND)

    def test_terminal_symbol_format(self):
        sym = terminal_symbol("if", ((), ((0, "q0"), (0, "q1"))), "q0")
        assert sym == "if@{2:0.q0,2:0.q1}->q0"


class TestCoercion:
    def test_adapter_rule_is_wellformed(self):
        from horsmc import (GROUND, Hors, NonTerminal, Rule, apply,
                            check_wellformed)
        from horsmc.selection import CoercionBuilder, annotated_sort
        from horsmc.syntax import Var
        # want <= have: the wanted type consumes a larger colored set
        have = ArrowType(colored_set([(0, Q0)]), Q0)
        want = ArrowType(colored_set([(0, Q0), (1, Q1)]), Q0)
        from horsmc import subtype
        assert subtype(want, have)
        builder = CoercionBuilder(set())
        out = builder.coerce(Var("g0"), have, want)
        (name, rule), = builder.rules.items()
        # adapter takes the larger generator plus one child per wanted entry
        assert [b for b, _ in rule.binders] == ["g", "y1_0", "y1_1"]
        # wrap into a closed scheme to sort-check the adapter rule
        h = Hors(terminals={"leaf": 0},
                 nonterminals={"S": GROUND, "G": annotated_sort(have),
                               name: builder.nonterminals[name]},
                 rules={"S": Rule((), apply(NonTerminal(name),
                                            NonTerminal("G"),
                                            Terminal("leaf"),
                                            Terminal("leaf"))),
                        "G": Rule((("z", GROUND),), Terminal("leaf")),
                        name: rule},
                 start="S")
        assert check_wellformed(h) == []
        assert format_tree(unfold(h, 2)) == "(leaf)"

    def test_identity_needs_no_adapter(self):
        from horsmc.selection import CoercionBuilder
        from horsmc.syntax import Var
        builder = CoercionBuilder(set())
        t = ArrowType(colored_set([(0, Q0)]), Q0)
        assert builder.coerce(Var("g"), t, t) == Var("g")
        assert builder.rules == {}

    def test_nested_coercion_recurses(self):
        from horsmc.selection import CoercionBuilder
        from horsmc.syntax import Var
        inner_have = ArrowType(colored_set([(0, Q0)]), Q0)
        inner_want = ArrowType(colored_set([(0, Q0), (0, Q1)]), Q0)
        have = ArrowType(colored_set([(0, inner_want)]), Q1)
        want = ArrowType(colored_set([(0, inner_have)]), Q1)
        from horsmc import subtype
        assert subtype(want, have)
        builder = CoercionBuilder(set())
        builder.coerce(Var("g"), have, want)
        assert len(builder.rules) == 2  # outer adapter plus inner adapter


# Drawn instances whose game passes this many nodes are drawn again.
ROUND_TRIP_NODE_CAP = 3000


def assert_witnesses_round_trip(h: Hors, m: Apt) -> None:
    """For every accepted state, the witness that `select` would write,
    printed and read back, verifies at depth 8.  A witness whose run reaches
    a head that does not rewrite within the step budget is drawn again."""
    with mock.patch.object(game, "DEFAULT_NODE_LIMIT", ROUND_TRIP_NODE_CAP):
        try:
            g = build_game(h, m)
        except SizeGuardExceeded:
            reject()
    sol = zielonka(g)
    for q in m.states:
        if EveNode(h.start, StateType(q)) in sol.win_eve:
            text = print_annotated(extract_scheme(h, m, sol, q))
            try:
                report = verify_runtree(parse_annotated(text), h, m, q, 8)
            except UnresolvedWithinBudget:
                reject()
            assert report.passed, (q, text, format_report(report))


@settings(max_examples=100, deadline=None)
@given(order0_instances())
def test_printed_witnesses_verify_on_order0_schemes(instance):
    rules, omega, delta = instance
    assert_witnesses_round_trip(order0_scheme(rules), order0_apt(omega, delta))


@settings(max_examples=100, deadline=None)
@given(order1_instances())
def test_printed_witnesses_verify_on_order1_schemes(instance):
    rules, omega, delta = instance
    assert_witnesses_round_trip(order1_scheme(rules), order0_apt(omega, delta))
