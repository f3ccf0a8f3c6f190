import pickle
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings

from horsmc import syntax
from horsmc.formats import parse_hors
from horsmc import (App, Apt, Arrow, ArrowType, Atom, BOTTOM, ColoredSet,
                    GROUND, Hors, IllFormedScheme, NonTerminal, Rule,
                    StateType, Terminal, TreePrefix, UnresolvedWithinBudget,
                    Var, apply, build_game, check_wellformed, colored_set,
                    format_tree, unfold)
from horsmc.oracles import (Fix, Lam, bohm_tree, from_lambda_y, is_prefix_of,
                            subst_var, to_lambda_y)
from conftest import (const_scheme, grow_scheme, loop_scheme, mutual_scheme,
                      order0_instances, order0_scheme, order1_instances,
                      order1_scheme, order2_scheme)

FIXTURES = sorted((Path(__file__).resolve().parent.parent / "horsbench"
                   / "fixtures").glob("*.hors"))


class TestInterned:
    def test_reprs_are_pinned(self):
        q, p = StateType("q"), StateType("p")
        one = colored_set([(0, q)])
        pinned = [
            (q, "StateType('q')"),
            (ColoredSet(()), "ColoredSet(())"),
            (one, "ColoredSet(((0, StateType('q')),))"),
            (colored_set([(0, q), (-1, p)]),
             "ColoredSet(((-1, StateType('p')), (0, StateType('q'))))"),
            (ArrowType(one, q),
             "ArrowType(ColoredSet(((0, StateType('q')),)), StateType('q'))"),
            (Arrow(GROUND, Arrow(Arrow(GROUND, GROUND), GROUND)),
             "(o -> ((o -> o) -> o))"),
            (Atom(1, "q"), "(1,q)"),
            (App(Terminal("a"), Var("x")), "App(Terminal('a'), Var('x'))"),
        ]
        for value, text in pinned:
            assert repr(value) == text
            assert pickle.loads(pickle.dumps(value)) is value

    def test_deep_values_hash_and_compare_without_recursion(self):
        def deep_term():
            t = Terminal("c")
            for _ in range(5000):
                t = App(Terminal("a"), t)
            return t

        def deep_sort():
            s = GROUND
            for _ in range(5000):
                s = Arrow(s, GROUND)
            return s

        def long_spine():
            return apply(Terminal("a"), *[Terminal("c")] * 5000)

        for build in (deep_term, deep_sort, long_spine):
            one, two = build(), build()
            assert hash(one) == hash(two) and one == two
        f, a = Terminal("a"), Var("x")
        assert App(f, a) is App(f, a)
        assert long_spine().head is Terminal("a")

    def test_terms_carry_their_free_variables_in_name_order(self):
        t = apply(Var("y"), Terminal("c"), apply(Var("x"), Var("y")))
        assert t.free == ("x", "y") and t.head is Var("y")
        assert apply(Terminal("a"), NonTerminal("S")).free == ()
        assert Lam("y", GROUND, t).free == ("x",)
        assert Fix(GROUND, Lam("x", GROUND, t)).free == ("y",)


class TestCheckWellformed:
    def test_example_scheme_accepted(self, ex1):
        assert check_wellformed(ex1) == []

    def test_start_not_ground(self):
        h = Hors(terminals={"a": 1},
                 nonterminals={"S": Arrow(GROUND, GROUND)},
                 rules={"S": Rule((("x", GROUND),), Var("x"))},
                 start="S")
        diags = check_wellformed(h)
        assert len(diags) == 1 and "not ground" in diags[0]

    def test_body_with_abstraction(self):
        # an abstraction, or any other object that is not a term, is
        # reported as a diagnostic, not raised
        for body in (apply(Lam("x", GROUND, Var("x")), Terminal("a")),
                     apply(Terminal("a"), object())):
            h = Hors(terminals={"a": 1},
                     nonterminals={"S": GROUND},
                     rules={"S": Rule((), body)},
                     start="S")
            diags = check_wellformed(h)
            assert any("abstraction-free" in d for d in diags)

    def test_terminal_and_nonterminal_name_rejected(self):
        h = Hors(terminals={"a": 0},
                 nonterminals={"S": GROUND, "a": GROUND},
                 rules={"S": Rule((), Terminal("a")),
                        "a": Rule((), NonTerminal("a"))},
                 start="S")
        assert check_wellformed(h) == [
            "'a' declared both as terminal and as nonterminal"]

    def test_missing_rule_and_sort_error(self):
        h = Hors(terminals={"a": 1},
                 nonterminals={"S": GROUND, "F": GROUND},
                 rules={"S": Rule((), apply(Terminal("a"), Terminal("a")))},
                 start="S")
        diags = check_wellformed(h)
        assert any("no rule" in d for d in diags)
        assert any("S" in d and "sort" in d for d in diags)

    def test_first_sort_error_left_to_right(self):
        # The function part is checked before the argument: its error is the
        # one reported, though the argument has one too.
        body = apply(Terminal("a"), apply(Terminal("c"), Terminal("c")),
                     Var("y"))
        h = Hors(terminals={"a": 2, "c": 0}, nonterminals={"S": GROUND},
                 rules={"S": Rule((), body)}, start="S")
        assert check_wellformed(h) == [
            "rule 'S': applied term of ground sort: c c"]
        h.rules["S"] = Rule((), apply(Terminal("a"), Terminal("c"),
                                      Terminal("a")))
        assert check_wellformed(h) == [
            "rule 'S': argument sort mismatch in a c a: expected o, "
            "got o -> o -> o"]

    def test_deep_and_wide_bodies(self):
        # Sorts are inferred past Python's recursion limit.
        deep = Terminal("c")
        for _ in range(5000):
            deep = apply(Terminal("a"), deep)
        wide = apply(Terminal("w"), *[Terminal("c")] * 5000)
        for body in (deep, wide):
            h = Hors(terminals={"a": 1, "c": 0, "w": 5000},
                     nonterminals={"S": GROUND},
                     rules={"S": Rule((), body)}, start="S")
            assert check_wellformed(h) == []


OO = Arrow(GROUND, GROUND)


def wellformed_base(**changes) -> Hors:
    """S = F c; F x = a x, with the fields in `changes` replaced and
    `rules` merged into the base's."""
    fields = dict(terminals={"a": 1, "c": 0},
                  nonterminals={"S": GROUND, "F": OO},
                  rules={"S": Rule((), apply(NonTerminal("F"), Terminal("c"))),
                         "F": Rule((("x", GROUND),),
                                   apply(Terminal("a"), Var("x")))},
                  start="S")
    fields["rules"] = {**fields["rules"], **changes.pop("rules", {})}
    return Hors(**{**fields, **changes})


# Checks that parsing lets through: a scheme built in Python reaches them.
WELLFORMED_DIAGNOSTICS = [
    ("negative-arity", dict(terminals={"a": 1, "c": 0, "b": -2}),
     ["terminal 'b': negative arity -2"]),
    ("undeclared-start", dict(start="T"),
     ["start symbol 'T' is not a declared nonterminal"]),
    ("rule-for-undeclared-nonterminal",
     dict(rules={"G": Rule((), Terminal("c"))}),
     ["rule for undeclared nonterminal 'G'"]),
    ("duplicate-binders",
     dict(nonterminals={"S": GROUND, "F": Arrow(GROUND, OO)},
          rules={"S": Rule((), apply(NonTerminal("F"), Terminal("c"),
                                     Terminal("c"))),
                 "F": Rule((("x", GROUND), ("x", GROUND)),
                           apply(Terminal("a"), Var("x")))}),
     ["rule 'F': duplicate binder names"]),
    ("binder-sort-mismatch",
     dict(rules={"F": Rule((("x", OO),), apply(Var("x"), Terminal("c")))}),
     ["rule 'F': binder 'x' of sort o -> o does not match nonterminal sort "
      "o -> o"]),
    ("body-leaves-a-sort", dict(rules={"F": Rule((), Terminal("a"))}),
     ["rule 'F': body leaves sort o -> o, rules must abstract down to o"]),
    ("body-of-non-ground-sort",
     dict(rules={"F": Rule((("x", GROUND),), Terminal("a"))}),
     ["rule 'F': body has sort o -> o, expected o"]),
    ("unbound-variable",
     dict(rules={"F": Rule((("x", GROUND),), apply(Terminal("a"),
                                                   Var("y")))}),
     ["rule 'F': unbound variable 'y'"]),
    ("unknown-terminal",
     dict(rules={"F": Rule((("x", GROUND),), apply(Terminal("b"),
                                                   Var("x")))}),
     ["rule 'F': unknown terminal 'b'"]),
    ("unknown-nonterminal",
     dict(rules={"S": Rule((), apply(NonTerminal("G"), Terminal("c")))}),
     ["rule 'S': unknown nonterminal 'G'"]),
]


@pytest.mark.parametrize("changes, diagnostics",
                         [row[1:] for row in WELLFORMED_DIAGNOSTICS],
                         ids=[row[0] for row in WELLFORMED_DIAGNOSTICS])
def test_wellformed_diagnostics_table(changes, diagnostics):
    assert check_wellformed(wellformed_base()) == []
    h = wellformed_base(**changes)
    assert check_wellformed(h) == diagnostics
    m = Apt(states=("q",), terminals=dict(h.terminals), delta={},
            omega={"q": 0}, initial="q")
    with pytest.raises(IllFormedScheme) as e:
        build_game(h, m)
    assert e.value.diagnostics == diagnostics


def scheme(terminals: str, nonterminals: str, rules: str) -> Hors:
    """A scheme from `a:2 c:0`, `S:o G:o->o` and `S = G c; G x = a x c`."""
    lines = ["terminals:",
             *(f"  {t.replace(':', ' : ')}" for t in terminals.split()),
             "nonterminals:",
             *(f"  {x.replace(':', ' : ', 1)}" for x in nonterminals.split()),
             "start: S", "rules:",
             *(f"  {r.strip()}" for r in rules.split(";"))]
    return parse_hors("\n".join(lines) + "\n")


# Terms met again with fewer levels left than at their first expansion, or
# with more than a cut tree of them holds: (name, terminals, nonterminals,
# rules, depth, the prefix's text or the divergent head's (path, steps)).
UNFOLD_ROWS = [
    # (a x c)'s leaf c sits on the last level of a truncation one level up
    ("leaf-on-the-last-level", "a:2 b:1 c:0", "S:o G:o->o",
     "S = G c; G x = a (b x) (G (a x c))", 6,
     "(a (b (c)) (a (b (a (c) (c))) (a (b (a (a _|_ _|_) (c))) "
     "(a (b (a _|_ _|_)) (a (b _|_) (a _|_ _|_))))))"),
    # B is whole at level 2 and truncated at level 4; D then diverges
    ("divergent-after-a-truncated-reuse", "a:2 b:1 c:0", "S:o B:o D:o",
     "S = a B (b (a B D)); B = b (b (b c)); D = D", 6,
     ((2, 1, 2), syntax.DEFAULT_STEP_BUDGET + 1)),
    # B is cut at one level under the first child, then needs two
    ("cut-tree-needed-at-more-levels", "a:2 b:1 c:0", "S:o B:o",
     "S = a (b B) B; B = b (b c)", 3, "(a (b (b _|_)) (b (b _|_)))"),
    # B's whole tree is truncated to two levels, then to one
    ("one-tree-truncated-at-two-levels", "a:2 b:1 c:0 d:1", "S:o B:o",
     "S = a B (a (b B) (b (d B))); B = b (b (b c))", 5,
     "(a (b (b (b (c)))) (a (b (b (b _|_))) (b (d (b _|_)))))"),
]


@pytest.fixture
def heads(monkeypatch):
    """The terms that `unfold` gives `head_normal`, in order."""
    terms = []
    head_normal = syntax.head_normal

    def recorded(h, t, budget):
        terms.append(t)
        return head_normal(h, t, budget)

    monkeypatch.setattr(syntax, "head_normal", recorded)
    return terms


class TestUnfold:
    def test_depth_two_prefix(self, ex1):
        assert format_tree(unfold(ex1, 2)) == "(if (Nil) (if _|_ _|_))"

    def test_depth_zero_is_unresolved_leaf(self, ex1):
        assert unfold(ex1, 0) is BOTTOM

    def test_depth_four_prefix(self, ex1):
        # hand rewriting: S -> L Nil -> if Nil (L (data Nil)) -> ...
        want = "(if (Nil) (if (data (Nil)) (if (data _|_) (if _|_ _|_))))"
        assert format_tree(unfold(ex1, 4)) == want

    def test_prefix_chain(self, ex1):
        schemes = [ex1, loop_scheme(), mutual_scheme(), order2_scheme(),
                   const_scheme()[0]]
        for h in schemes:
            for d in range(8):
                assert is_prefix_of(unfold(h, d), unfold(h, d + 1))

    def test_budget_exhaustion_is_not_a_cutoff(self):
        h = Hors(terminals={"c": 0}, nonterminals={"S": GROUND},
                 rules={"S": Rule((), NonTerminal("S"))}, start="S")
        assert unfold(h, 0) is BOTTOM  # depth cutoff works
        with pytest.raises(UnresolvedWithinBudget):
            unfold(h, 1, budget=100)

    def test_first_unresolved_head_is_depth_first(self):
        # every direction-2 child diverges; the first one met depth first,
        # left to right, sits under the leftmost branch
        h = Hors(terminals={"a": 2}, nonterminals={"S": GROUND, "D": GROUND},
                 rules={"S": Rule((), apply(Terminal("a"), NonTerminal("S"),
                                            NonTerminal("D"))),
                        "D": Rule((), NonTerminal("D"))}, start="S")
        with pytest.raises(UnresolvedWithinBudget) as e:
            unfold(h, 5)
        assert (e.value.path, e.value.steps) == ((1, 1, 1, 2), 10_001)
        with pytest.raises(UnresolvedWithinBudget) as e:
            unfold(h, 5, budget=1)
        assert (e.value.path, e.value.steps) == ((1, 1, 1, 2), 2)

    def test_equal_subtrees_are_one_object(self):
        # 22,951 positions at depth 300, but below the spine the left
        # children form one chain of b's ending in c and one ending in the
        # cutoff; at 3,000, past the recursion limit, the cut lower half is
        # truncations of the chains above it
        for depth in (300, 3000):
            seen, work = set(), [unfold(grow_scheme(), depth)]
            while work:
                node = work.pop()
                if id(node) not in seen:
                    seen.add(id(node))
                    work.extend(node.children)
            assert len(seen) <= 2 * depth

    def test_fixture_unfoldings_are_the_oracle_trees(self):
        assert len(FIXTURES) == 6
        for path in FIXTURES:
            h = parse_hors(path.read_text())
            t = to_lambda_y(h)
            for d in range(61):
                assert format_tree(unfold(h, d)) == \
                    format_tree(bohm_tree(t, d, h.terminals)), (path, d)

    def test_whole_subtree_is_cut_where_too_few_levels_remain(self):
        # B's tree (b (b (c))) is whole at level 2 and takes three levels;
        # at level 4 only two remain below a depth of 5
        h = Hors(terminals={"a": 2, "b": 1, "c": 0},
                 nonterminals={"S": GROUND, "B": GROUND},
                 rules={"S": Rule((), apply(Terminal("a"), NonTerminal("B"),
                                            apply(Terminal("b"),
                                                  apply(Terminal("b"),
                                                        NonTerminal("B"))))),
                        "B": Rule((), apply(Terminal("b"),
                                            apply(Terminal("b"),
                                                  Terminal("c"))))},
                 start="S")
        assert format_tree(unfold(h, 5)) == \
            "(a (b (b (c))) (b (b (b (b _|_)))))"
        assert format_tree(unfold(h, 6)) == \
            "(a (b (b (c))) (b (b (b (b (c))))))"
        t = to_lambda_y(h)
        for d in range(9):
            assert format_tree(unfold(h, d)) == \
                format_tree(bohm_tree(t, d, h.terminals))

    def test_reused_subtree_before_the_divergent_head(self, heads):
        # S = a B (a B D): the second B takes the first one's tree, then D
        # diverges at path (2, 2)
        h = Hors(terminals={"a": 2, "b": 1, "c": 0},
                 nonterminals={"S": GROUND, "B": GROUND, "D": GROUND},
                 rules={"S": Rule((), apply(Terminal("a"), NonTerminal("B"),
                                            apply(Terminal("a"),
                                                  NonTerminal("B"),
                                                  NonTerminal("D")))),
                        "B": Rule((), apply(Terminal("b"), Terminal("c"))),
                        "D": Rule((), NonTerminal("D"))},
                 start="S")
        with pytest.raises(UnresolvedWithinBudget) as e:
            unfold(h, 5)
        assert (e.value.path, e.value.steps) == ((2, 2), 10_001)
        assert heads.count(NonTerminal("B")) == 1
        with pytest.raises(UnresolvedWithinBudget) as e:
            unfold(h, 5, budget=1)
        assert (e.value.path, e.value.steps) == ((2, 2), 2)

    def test_heads_are_rewritten_per_distinct_subtree(self, heads):
        # 22,800 head_normal calls when every position is expanded; the
        # whole left children of the upper half are built once each
        unfold(grow_scheme(), 300)
        assert len(heads) <= 12_000

    @pytest.mark.parametrize("depth", (300, 520))
    def test_each_term_is_rewritten_once(self, heads, ex1, depth):
        for h in (grow_scheme(), ex1, loop_scheme(), mutual_scheme()):
            heads.clear()
            unfold(h, depth)
            assert len(heads) == len(set(heads)), (h.start, depth)
        heads.clear()
        unfold(grow_scheme(), depth)
        # one rewrite per distinct term: 599 at depth 300, 1,039 at 520
        assert len(heads) <= 2 * depth - 1

    @pytest.mark.parametrize("row", UNFOLD_ROWS, ids=lambda row: row[0])
    def test_terms_recurring_with_fewer_levels(self, row):
        _, terminals, nonterminals, rules, depth, want = row
        h = scheme(terminals, nonterminals, rules)
        if isinstance(want, str):
            assert format_tree(unfold(h, depth)) == want
            t = to_lambda_y(h)
            for d in range(depth + 3):
                assert format_tree(unfold(h, d)) == \
                    format_tree(bohm_tree(t, d, h.terminals)), d
        else:
            path, steps = want
            for budget, raised in ((syntax.DEFAULT_STEP_BUDGET, steps),
                                   (1, 2)):
                with pytest.raises(UnresolvedWithinBudget) as e:
                    unfold(h, depth, budget=budget)
                assert (e.value.path, e.value.steps) == (path, raised)

    def test_deep_trees_compare_by_text_without_recursion(self):
        def chain(leaf, n):
            for _ in range(n):
                leaf = TreePrefix("a", (leaf,))
            return leaf

        one, two = unfold(loop_scheme(), 5000), unfold(loop_scheme(), 5000)
        assert one is not two
        text = format_tree(one)
        assert text == format_tree(two)
        assert text == format_tree(chain(BOTTOM, 5000))
        assert text != format_tree(chain(TreePrefix("c"), 5000))
        assert text.endswith("_|_" + ")" * 5000)


def naive_format(t: TreePrefix) -> str:
    """One walk per position."""
    if t.is_bottom:
        return "_|_"
    if not t.children:
        return f"({t.label})"
    return f"({t.label} {' '.join(map(naive_format, t.children))})"


class TestFormatTree:
    def test_fixture_unfoldings_print_as_the_naive_printer(self):
        for path in FIXTURES:
            h = parse_hors(path.read_text())
            for d in (0, 1, 2, 5, 13, 40, 60):
                tree = unfold(h, d)
                assert format_tree(tree) == naive_format(tree), (path, d)

    def test_shared_subtree_at_two_depths_under_two_labels(self):
        s = TreePrefix("b", (TreePrefix("c"),))
        pair = TreePrefix("e", (s, s))
        trees = [
            TreePrefix("a", (s, TreePrefix("d", (BOTTOM, s)))),
            TreePrefix("a", (TreePrefix("d", (s, BOTTOM)), s)),
            TreePrefix("a", (pair, TreePrefix("b", (pair,)))),
            TreePrefix("d", (TreePrefix("b", (pair,)), pair)),
        ]
        for tree in trees:
            assert format_tree(tree) == naive_format(tree)
        assert format_tree(trees[2]) == \
            "(a (e (b (c)) (b (c))) (b (e (b (c)) (b (c)))))"


class TestToLambdaY:
    def test_single_nonterminal_becomes_fixpoint(self):
        h = Hors(terminals={"a": 1}, nonterminals={"S": GROUND},
                 rules={"S": Rule((), apply(Terminal("a"),
                                            NonTerminal("S")))},
                 start="S")
        t = to_lambda_y(h)
        assert isinstance(t, Fix) and t.sort == GROUND
        assert isinstance(t.body, Lam)
        body = t.body.body
        assert body == apply(Terminal("a"), Var(t.body.binder))

    def test_boehm_tree_agrees_with_unfold(self, ex1):
        t = to_lambda_y(ex1)
        assert format_tree(bohm_tree(t, 5, ex1.terminals)) == \
            format_tree(unfold(ex1, 5))

    def test_mutual_recursion(self):
        h = mutual_scheme()
        t = to_lambda_y(h)
        assert format_tree(bohm_tree(t, 5, h.terminals)) == \
            format_tree(unfold(h, 5))


class TestFromLambdaY:
    def test_inverse_of_single_fixpoint(self):
        t = Fix(GROUND, Lam("s", GROUND, apply(Terminal("a"), Var("s"))))
        h = from_lambda_y(t)
        assert check_wellformed(h) == []
        assert sorted(h.terminals.items()) == [("a", 1)]
        # up to renaming: two rules S = F and F = a F
        loop = loop_scheme()
        assert format_tree(unfold(h, 6)) == format_tree(unfold(loop, 6))
        bodies = sorted(type(r.body).__name__ for r in h.rules.values())
        assert bodies == ["App", "NonTerminal"]

    def test_ground_constant(self):
        h = from_lambda_y(Terminal("c"))
        assert h.terminals == {"c": 0}
        assert h.rules[h.start] == Rule((), Terminal("c"))

    def test_round_trip_example(self, ex1):
        h2 = from_lambda_y(to_lambda_y(ex1))
        assert check_wellformed(h2) == []
        assert format_tree(unfold(h2, 6)) == format_tree(unfold(ex1, 6))

    def test_round_trip_corpus(self):
        for h in [loop_scheme(), mutual_scheme(), order2_scheme(),
                  const_scheme()[0]]:
            h2 = from_lambda_y(to_lambda_y(h))
            assert check_wellformed(h2) == []
            assert format_tree(unfold(h2, 6)) == format_tree(unfold(h, 6))

    def test_beta_redex_is_lifted(self):
        t = apply(Lam("x", GROUND, apply(Terminal("a"), Var("x"))),
                  Terminal("c"))
        h = from_lambda_y(t)
        assert check_wellformed(h) == []
        assert format_tree(unfold(h, 3)) == "(a (c))"

    def test_lifted_abstraction_takes_its_free_variables_in_order(self):
        # λz. a x y z sits under λx. λy. and becomes a rule over x, y, z,
        # applied to x and y in that order at the call site
        inner = Lam("z", GROUND, apply(Terminal("a"), Var("x"), Var("y"),
                                       Var("z")))
        t = apply(Lam("x", GROUND, Lam("y", GROUND,
                                       App(inner, Terminal("c")))),
                  Terminal("d"), Terminal("e"))
        h = from_lambda_y(t)
        assert check_wellformed(h) == []
        assert format_tree(unfold(h, 3)) == "(a (d) (e) (c))"
        assert format_tree(unfold(h, 3)) == format_tree(bohm_tree(t, 3))


def test_substitution_under_a_binder_renames_it():
    # y is free in the value, so the binder y is renamed apart
    t = Lam("y", GROUND, apply(Terminal("a"), Var("x"), Var("y")))
    assert subst_var(t, "x", Var("y")) == Lam(
        "y_0", GROUND, apply(Terminal("a"), Var("y"), Var("y_0")))


# Drawn schemes go through both translations to this depth; one whose
# unfolding leaves a head unresolved within LY_BUDGET steps is drawn again.
LY_DEPTH, LY_BUDGET = 4, 200


def assert_lambda_y_agrees(h: Hors) -> None:
    try:
        want = format_tree(unfold(h, LY_DEPTH, budget=LY_BUDGET))
    except UnresolvedWithinBudget:
        assume(False)
    t = to_lambda_y(h)
    assert format_tree(bohm_tree(t, LY_DEPTH, h.terminals)) == want
    assert format_tree(unfold(from_lambda_y(t), LY_DEPTH)) == want


@settings(max_examples=60, deadline=None)
@given(order0_instances())
# S's definition reaches F2, two nonterminals after it.
@example(({"S": ("t", "b", (("n", "F2"),)), "F1": ("t", "c", ()),
           "F2": ("t", "b", (("n", "S"),))}, {}, {}))
def test_lambda_y_translations_on_order0_schemes(instance):
    assert_lambda_y_agrees(order0_scheme(instance[0]))


@settings(max_examples=60, deadline=None)
@given(order1_instances())
def test_lambda_y_translations_on_order1_schemes(instance):
    assert_lambda_y_agrees(order1_scheme(instance[0]))


# Drawn schemes are unfolded at every depth up to this one, and compared
# with the Boehm tree of their translation.
ORACLE_DEPTH = 12


def assert_unfold_is_the_oracle_tree(h: Hors) -> None:
    try:
        trees = [unfold(h, d, budget=LY_BUDGET)
                 for d in range(ORACLE_DEPTH + 1)]
    except UnresolvedWithinBudget:
        assume(False)
    t = to_lambda_y(h)
    for d, tree in enumerate(trees):
        assert format_tree(tree) == \
            format_tree(bohm_tree(t, d, h.terminals)), d


@settings(max_examples=60, deadline=None)
@given(order0_instances(max_arity=2))
def test_unfold_is_the_oracle_tree_on_order0_schemes(instance):
    assert_unfold_is_the_oracle_tree(order0_scheme(instance[0]))


@settings(max_examples=60, deadline=None)
@given(order1_instances())
def test_unfold_is_the_oracle_tree_on_order1_schemes(instance):
    assert_unfold_is_the_oracle_tree(order1_scheme(instance[0]))


def test_tree_prefix_child_counts(ex1):
    def check(node: TreePrefix):
        if node.is_bottom:
            assert node.children == ()
            return
        assert len(node.children) == ex1.terminals[node.label]
        for c in node.children:
            check(c)

    check(unfold(ex1, 6))
