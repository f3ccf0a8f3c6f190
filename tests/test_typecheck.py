import copy
import gc
import itertools
import operator
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, reject, settings, strategies as st

from horsmc import (Analysis, App, Apt, Arrow, ArrowType, Atom, EPSILON,
                    EveNode, GROUND, Hors, NonTerminal, Rule,
                    SizeGuardExceeded, StateType, TRUE, Terminal, Var,
                    apply, build_game, color_set, colored_set, conj,
                    enumerate_colored_sets, enumerate_types, extract_scheme,
                    format_itype, format_sort, format_term, game,
                    is_terminal_type, rule_typings, subtype, subtype_set,
                    typecheck, zielonka)
from horsmc.automata import Antichain
from horsmc.itypes import EMPTY_SET, split_chain
from horsmc.oracles import (Deriver, box_color, check_derivation, denotation,
                            derive, residual_env)
from horsmc.syntax import ground_sort
from horsmc.typecheck import (DApp, PAIR_CAP, _FootprintSearch, _unions,
                              assumptions_from, requirement_key,
                              requirement_order)
from conftest import (fixture_terms, grow_apt, grow_scheme,
                      grow_two_color_apt, loop_apt, loop_scheme, mutual_apt,
                      mutual_scheme, order0_apt, order0_instances,
                      order0_scheme, order1_instances, order1_scheme,
                      order2_unary, order2_unary_apt, order2_unary_scheme,
                      solve_cached)

Q0, Q1 = StateType("q0"), StateType("q1")
OO = Arrow(GROUND, GROUND)


# ---------------------------------------------------------------------------
# A literal implementation of the typing rules: contexts are built only by
# the rules themselves (axioms populate just their subject name, terminal
# leaves have empty contexts, applications take colored unions).  Membership
# with weakening over this exact relation is the reference semantics the
# residual-propagating search must agree with.

def literal_relation(t, names, scope, m):
    cols = color_set(m)
    empty_env = tuple(EMPTY_SET for _ in names)

    def union_env(a, b):
        return tuple(colored_set(x.pairs + y.pairs) for x, y in zip(a, b))

    def box_env(c, env):
        return tuple(box_color(c, u) for u in env)

    def rec(term):
        if isinstance(term, (Var, NonTerminal)):
            x = term.name
            i = names.index(x)
            out = set()
            for u in enumerate_colored_sets(scope[x], m):
                for alpha in enumerate_types(scope[x], m):
                    if any(c == EPSILON and subtype(alpha, a2)
                           for c, a2 in u):
                        env = tuple(u if j == i else EMPTY_SET
                                    for j in range(len(names)))
                        out.add((env, alpha))
            return out
        if isinstance(term, Terminal):
            chain = ground_sort(m.terminals[term.symbol])
            return {(empty_env, theta)
                    for theta in enumerate_types(chain, m)
                    if is_terminal_type(term.symbol, theta, m)}
        assert isinstance(term, App)
        fn_rel, arg_rel = rec(term.function), rec(term.argument)
        arg_by_type: dict = {}
        for env, beta in arg_rel:
            arg_by_type.setdefault(beta, []).append(env)
        out = set()
        for env_f, theta in fn_rel:
            if not isinstance(theta, ArrowType):
                continue
            pools = [arg_by_type.get(beta, []) for _, beta in theta.argument]
            if any(not p for p in pools):
                continue
            for combo in itertools.product(*pools):
                env = env_f
                for (c, _), env_a in zip(theta.argument.pairs, combo):
                    env = union_env(env, box_env(c, env_a))
                out.add((env, theta.result))
        return out

    return rec(t)


def literal_derivable(rel, names, env, target):
    env_tuple = tuple(env[x] for x in names)
    for env_e, alpha_e in rel:
        if subtype(target, alpha_e) and \
                all(subtype_set(e, g) for e, g in zip(env_e, env_tuple)):
            return True
    return False


@pytest.fixture
def deriver(ex1_apt):
    return Deriver(ex1_apt, {"x": GROUND, "S": GROUND, "L": OO})


class TestDerive:
    def test_axiom_consumes_neutral_entry(self, ex1_apt):
        env = {"x": colored_set([(EPSILON, Q0)])}
        d = derive(env, Var("x"), Q0, ex1_apt, {"x": GROUND})
        assert d is not None and check_derivation(d, ex1_apt, env)

    def test_colored_entry_is_not_an_axiom(self, ex1_apt):
        env = {"x": colored_set([(0, Q0)])}
        assert derive(env, Var("x"), Q0, ex1_apt, {"x": GROUND}) is None

    def test_rule_body_against_denotation(self, ex1, ex1_apt):
        # the colored-set space of an arrow-sorted variable is astronomic,
        # so the brute-force relation is taken over a candidate subspace
        body = ex1.rules["L"].body
        sorts = {"x": GROUND, "L": OO}
        u_q1 = colored_set([(0, Q1)])
        pool = [(c, t) for c in (EPSILON, 0)
                for t in (ArrowType(u_q1, Q0), ArrowType(u_q1, Q1),
                          ArrowType(EMPTY_SET, Q0))]
        l_space = [colored_set(s) for n in range(3)
                   for s in itertools.combinations(pool, n)]
        rel = denotation(body, sorts, ex1_apt, spaces={"L": l_space})
        dv = Deriver(ex1_apt, sorts)
        env_space = enumerate_colored_sets(GROUND, ex1_apt)
        checked = 0
        for ux in env_space:
            for ul in l_space:
                for q in (Q0, Q1):
                    got = dv.derive({"x": ux, "L": ul}, body, q) is not None
                    assert got == (((ux, ul), q) in rel)
                    checked += 1
        assert checked == len(env_space) * len(l_space) * 2

    def test_missing_name_raises(self, ex1_apt):
        with pytest.raises(KeyError):
            derive({}, Var("x"), Q0, ex1_apt, {"x": GROUND})

    def test_derivations_are_locally_correct(self, ex1, ex1_apt):
        body = ex1.rules["L"].body
        sorts = {"x": GROUND, "L": OO}
        dv = Deriver(ex1_apt, sorts)
        u_q1 = colored_set([(0, Q1)])
        env = {"x": u_q1,
               "L": colored_set([(0, ArrowType(u_q1, Q0)),
                                 (0, ArrowType(u_q1, Q1))])}
        for target in (Q0, Q1):
            d = dv.derive(env, body, target)
            assert d is not None
            assert check_derivation(d, ex1_apt, env)

    def test_checker_rejects_tampering(self, ex1_apt):
        env = {"x": colored_set([(EPSILON, Q0)])}
        d = derive(env, Var("x"), Q0, ex1_apt, {"x": GROUND})
        assert check_derivation(d, ex1_apt, env)
        assert not check_derivation(d._replace(used=Q1), ex1_apt, env)
        # the consumed entry is not in this environment
        bad_env = {"x": colored_set([(0, Q0)])}
        assert not check_derivation(d, ex1_apt, bad_env)

    def test_lambda_body_sits_in_the_extended_environment(self, ex1_apt):
        from horsmc.oracles import Lam
        lam = Lam("x", GROUND, Var("x"))
        d = derive({}, lam, ArrowType(colored_set([(EPSILON, Q0)]), Q0),
                   ex1_apt, {})
        assert d is not None and check_derivation(d, ex1_apt, {})
        # the binder's set no longer holds the entry the body's axiom used
        bad = d._replace(target=ArrowType(colored_set([(0, Q0)]), Q0))
        assert not check_derivation(bad, ex1_apt, {})


class TestDenotation:
    def test_nullary_terminal(self, ex1_apt):
        rel = denotation(Terminal("Nil"), {}, ex1_apt)
        assert rel == {((), Q0), ((), Q1)}

    def test_variable_closure(self, ex1_apt):
        rel = denotation(Var("x"), {"x": GROUND}, ex1_apt)
        expected = set()
        for u in enumerate_colored_sets(GROUND, ex1_apt):
            for q in (Q0, Q1):
                if any(c == EPSILON and t == q for c, t in u):
                    expected.add(((u,), q))
        assert rel == expected

    def test_lambda_body_matches_derive(self, ex1, ex1_apt):
        from horsmc.oracles import Lam
        body = ex1.rules["L"].body
        lam = Lam("x", GROUND, body)
        sorts = {"L": OO}
        u_q1 = colored_set([(0, Q1)])
        pool = [(c, t) for c in (EPSILON, 0)
                for t in (ArrowType(u_q1, Q0), ArrowType(u_q1, Q1))]
        l_space = [colored_set(s) for n in range(3)
                   for s in itertools.combinations(pool, n)]
        rel = denotation(lam, sorts, ex1_apt, spaces={"L": l_space})
        dv = Deriver(ex1_apt, {"L": OO})
        l_types = enumerate_types(OO, ex1_apt)
        for ul in l_space:
            for theta in l_types:
                got = dv.derive({"L": ul}, lam, theta) is not None
                assert got == (((ul,), theta) in rel)

    def test_fixpoint_rejected(self, ex1_apt):
        from horsmc.oracles import Fix, Lam
        t = Fix(GROUND, Lam("s", GROUND, Var("s")))
        with pytest.raises(ValueError):
            denotation(t, {}, ex1_apt)


class TestResidualAgainstLiteralRules:
    def test_all_terms_up_to_size_four(self, ex1_apt):
        names = ["x"]
        scope = {"x": GROUND}
        env_space = enumerate_colored_sets(GROUND, ex1_apt)
        corpus = fixture_terms(4)
        for sort, terms in corpus.items():
            targets = enumerate_types(sort, ex1_apt)
            for t in terms:
                rel = literal_relation(t, names, scope, ex1_apt)
                dv = Deriver(ex1_apt, scope)
                for u in env_space:
                    env = {"x": u}
                    for target in targets:
                        got = dv.derive(env, t, target) is not None
                        want = literal_derivable(rel, names, env, target)
                        assert got == want, (t, format_itype(target), u)


class TestDownwardClosure:
    def test_weakening_preserves_derivability(self, ex1_apt):
        rng = random.Random(23)
        corpus = fixture_terms(6)
        env_space = enumerate_colored_sets(GROUND, ex1_apt)
        hits = 0
        attempts = 0
        while hits < 120 and attempts < 4000:
            attempts += 1
            sort = rng.choice([GROUND, OO])
            t = rng.choice(corpus[sort])
            env = {"x": rng.choice(env_space)}
            target = rng.choice(enumerate_types(sort, ex1_apt))
            dv = Deriver(ex1_apt, {"x": GROUND})
            if dv.derive(env, t, target) is None:
                continue
            hits += 1
            bigger = colored_set(env["x"].pairs +
                                 rng.choice(env_space).pairs)
            smaller_candidates = [s for s in enumerate_types(sort, ex1_apt)
                                  if subtype(s, target)]
            smaller = rng.choice(smaller_candidates)
            assert subtype_set(env["x"], bigger)
            assert dv.derive({"x": bigger}, t, smaller) is not None
        assert hits == 120


class TestRuleTypings:
    def test_returned_maps_are_derivable(self, ex1, ex1_apt):
        u_q1 = colored_set([(0, Q1)])
        theta = ArrowType(u_q1, Q0)
        for delta, deriv in rule_typings(Analysis(ex1, ex1_apt), "L", theta):
            env = {"x": u_q1}
            env.update({n: u for n, u in delta})
            for nt in ex1.nonterminals:
                env.setdefault(nt, EMPTY_SET)
            assert check_derivation(deriv, ex1_apt, env)
            d = derive(env, ex1.rules["L"].body, Q0, ex1_apt,
                       {"x": GROUND, "S": GROUND, "L": OO})
            assert d is not None

    def test_maps_are_inclusion_minimal(self, ex1, ex1_apt):
        theta = ArrowType(colored_set([(0, Q1)]), Q0)
        maps = [dict(delta) for delta, _ in
                rule_typings(Analysis(ex1, ex1_apt), "L", theta)]
        as_sets = []
        for m_ in maps:
            flat = frozenset((n, c, ty) for n, u in m_.items()
                             for c, ty in u)
            as_sets.append(flat)
        for i, a in enumerate(as_sets):
            for j, b in enumerate(as_sets):
                if i != j:
                    assert not a < b, "non-minimal assumption map kept"

    def test_empty_assumptions_for_closed_body(self, ex1_apt):
        from conftest import const_scheme
        h, m = const_scheme()
        maps = rule_typings(Analysis(h, m), "S", StateType("q"))
        assert maps and maps[0][0] == ()

    def test_arity_mismatch_rejected(self, ex1, ex1_apt):
        with pytest.raises(ValueError):
            rule_typings(Analysis(ex1, ex1_apt), "L", Q0)

    def test_every_game_derivation_checks(self, ex1, ex1_apt):
        # The root environment is rebuilt here, not taken from the search:
        # the binders' sets from the node's type, the map itself, and empty
        # sets for every other nonterminal.
        games = [(ex1, ex1_apt, "q0"), (ex1, ex1_apt, "q1"),
                 (loop_scheme(), loop_apt(1), "q"),
                 (loop_scheme(), loop_apt(2), "q"),
                 (mutual_scheme(), mutual_apt(), "p"),
                 (mutual_scheme(), mutual_apt(), "r"),
                 (*order2_unary(), "q")]
        for h, m, q in games:
            g, _ = solve_cached(h, m, q)
            checked = 0
            for node in g.nodes:
                if not isinstance(node, EveNode):
                    continue
                arg_sets, _ = split_chain(node.ty)
                binders = h.rules[node.nonterminal].binders
                for delta, deriv in rule_typings(Analysis(h, m),
                                                 node.nonterminal, node.ty):
                    env = {nt: EMPTY_SET for nt in h.nonterminals}
                    env.update(delta)
                    env.update({x: u for (x, _), u in zip(binders, arg_sets)})
                    assert check_derivation(deriv, m, env), (node, delta)
                    checked += 1
            assert checked > 0


def test_residual_env_composition(ex1_apt):
    cols = color_set(ex1_apt)
    env = {"x": colored_set([(EPSILON, Q0), (0, Q1)]),
           "y": colored_set([(0, Q0)])}
    for c1 in cols:
        for c2 in cols:
            twice = residual_env(residual_env(env, c1, cols), c2, cols)
            once = residual_env(env, max(c1, c2), cols)
            assert twice == once


# ---------------------------------------------------------------------------
# The antichain and the pruned union search, against the quadratic filter
# they replaced.

def reference_minimal(results):
    """Keep one representative per inclusion-minimal requirement set."""
    first: dict = {}
    for req, skel in results:
        if req not in first:
            first[req] = skel
    decorated = sorted(
        ((len(req), tuple(sorted(map(requirement_key, req))), req)
         for req in first),
        key=lambda d: d[:2])
    kept = []
    for _, _, req in decorated:
        if not any(k <= req for k, _ in kept):
            kept.append((req, first[req]))
    return kept


REQUIREMENTS = [(name, c, ty) for name in ("F", "G") for c in (EPSILON, 0, 1)
                for ty in (Q0, Q1)]
requirement_sets = st.frozensets(st.sampled_from(REQUIREMENTS), max_size=6)
R = [frozenset({r}) for r in REQUIREMENTS]
PAIRS = [R[0] | R[1], R[2] | R[3], R[4] | R[5], R[6] | R[7]]


@given(st.lists(requirement_sets, max_size=40))
# Many small kept sets: a hit (three singletons inside) and a miss (two
# halves of different kept pairs).
@example(R + [R[0] | R[1] | R[2], R[0] | R[1] | R[2]])
@example(PAIRS + [R[0] | R[2], R[1] | R[3] | R[5]])
@example([R[0], frozenset(), R[0], frozenset()])
# A repeat of a kept set, and a set that drops two.
@example([R[0] | R[1] | R[2], R[0] | R[1] | R[2]])
@example([R[0] | R[1], R[0] | R[2], R[0]])
def test_minimal_matches_quadratic_reference(sets):
    # The tag is the position, so the representative kept for a set shows
    # which of its occurrences won.
    results = [(req, i) for i, req in enumerate(sets)]
    found = Antichain()
    for req, i in results:
        if not found.has_subset_of(req):
            found.add(req, i)
    assert (sorted(found.sets.items(), key=requirement_order)
            == reference_minimal(results))


products = st.lists(st.tuples(
    requirement_sets,
    st.lists(st.lists(requirement_sets, min_size=1, max_size=4),
             max_size=3)), min_size=1, max_size=4)


@given(products)
def test_pruned_unions_keep_every_minimal_union(prods):
    # Several products share one antichain, as the fn options and
    # argument subsets of one application do.
    full = []
    found = Antichain()
    for p, (base, lists) in enumerate(prods):
        tagged = [[(req, (p, i, j)) for j, req in enumerate(options)]
                  for i, options in enumerate(lists)]
        for picks in itertools.product(*tagged):
            req = base.union(*(r for r, _ in picks))
            full.append((req, (p, tuple(s for _, s in picks))))
        for req, skels in _unions(base, tagged, found):
            assert not found.has_subset_of(req)
            found.add(req, (p, skels))
    assert (sorted(found.sets.items(), key=requirement_order)
            == reference_minimal(full))


# ---------------------------------------------------------------------------
# Head-directed argument sets, against the powerset search they replaced.

class PowersetSearch(_FootprintSearch):
    """The footprint search that tries every subset of an argument's
    options under every head, terminals included."""

    def _search(self, t, target, c):
        if not isinstance(t, App):
            return super()._search(t, target, c)
        options = self._argument_options(t, c)
        if len(options) > PAIR_CAP:
            raise SizeGuardExceeded(
                f"candidate argument typings at `{format_term(t)}` in the "
                f"rule of {self.rule}, argument sort "
                f"{format_sort(self.sort_of(t.argument))}",
                2 ** len(options), 2 ** PAIR_CAP)
        found = Antichain()
        for k in range(len(options) + 1):
            for subset in itertools.combinations(options, k):
                chosen = colored_set((c2, beta) for c2, beta, _ in subset)
                fn_opts = self.search(t.function, ArrowType(chosen, target), c)
                if not fn_opts:
                    continue
                by_pair = {(c2, beta): sub for c2, beta, sub in subset}
                arg_option_lists = [by_pair[p] for p in chosen.pairs]
                for fn_req, fn_d in fn_opts:
                    for req, arg_ds in _unions(fn_req, arg_option_lists,
                                               found):
                        found.add(req, DApp(t, target, chosen, fn_d, arg_ds))
        return sorted(found.sets.items(), key=requirement_order)


def reference_rule_typings(h, m, name, theta):
    """`rule_typings` through the powerset search, uncached."""
    rule = h.rules[name]
    arg_sets, result = split_chain(theta)
    var_env = {b: u for (b, _), u in zip(rule.binders, arg_sets)}
    search = PowersetSearch(Analysis(h, m), name, var_env)
    out = [(assumptions_from(req), d)
           for req, d in search.search(rule.body, result, EPSILON)]
    out.sort(key=lambda du: tuple((n, u.key) for n, u in du[0]))
    return out


def assert_matches_powerset(h, m, g) -> int:
    """Same maps, order and derivations at every Eve node of `g`."""
    checked = 0
    for node in g.nodes:
        if isinstance(node, EveNode):
            assert (rule_typings(Analysis(h, m), node.nonterminal, node.ty)
                    == reference_rule_typings(h, m, node.nonterminal,
                                              node.ty)), node
            checked += 1
    return checked


def test_head_directed_sets_match_powerset_on_fixture_games(fixture_games):
    for h, m, q in fixture_games:
        g, _ = solve_cached(h, m, q)
        assert assert_matches_powerset(h, m, g) > 0


# Ternary terminals are left out: the powerset is too slow under them.
@settings(max_examples=60, deadline=None)
@given(order0_instances(max_arity=2))
# S = a c S where either clause of delta(q0, a) types `c` with no
# requirement: the representative is the clause the powerset reaches first.
@example(({"S": ("t", "a", (("t", "c", ()), ("n", "S")))}, {"q0": 0, "q1": 1},
          {("q0", "a"): [((1, "q1"),), ((1, "q0"),)],
           ("q0", "c"): [()], ("q1", "c"): [()]}))
def test_head_directed_sets_match_powerset_on_order0_schemes(instance):
    rules, omega, delta = instance
    h, m = order0_scheme(rules), order0_apt(omega, delta)
    assert assert_matches_powerset(h, m, build_game(h, m)) > 0


@pytest.mark.parametrize("color", [0, 1])
def test_head_directed_sets_match_powerset_under_partial_application(color):
    # S = F (a c); F g = g (F g): the argument `a c` is typed at o -> o,
    # so its outer argument set comes from the type, not from the spine.
    h = Hors(terminals={"a": 2, "c": 0},
             nonterminals={"S": GROUND, "F": Arrow(OO, GROUND)},
             rules={"S": Rule((), apply(NonTerminal("F"),
                                        apply(Terminal("a"), Terminal("c")))),
                    "F": Rule((("g", OO),),
                              apply(Var("g"),
                                    apply(NonTerminal("F"), Var("g"))))},
             start="S")
    m = Apt(states=("q",), terminals={"a": 2, "c": 0},
            delta={("q", "a"): conj(Atom(1, "q"), Atom(2, "q")),
                   ("q", "c"): TRUE},
            omega={"q": color}, initial="q")
    g = build_game(h, m)
    assert any(isinstance(v, EveNode) and v.nonterminal == "F"
               and any(isinstance(ty, ArrowType) for _, ty in v.ty.argument)
               for v in g.nodes)
    assert assert_matches_powerset(h, m, g) > 1


# ---------------------------------------------------------------------------
# One footprint memo per game, keyed by the residuals a subterm reads.

def assert_shared_memo_matches_fresh(h, m, g, seed=0) -> int:
    """At every Eve node of `g`, `rule_typings` through one memo shared by
    all nodes equals `rule_typings` through a fresh memo, and so do the
    moves `build_game` made there.  The nodes are visited in reverse and in
    a seeded shuffle, so no entry depends on which node filled it."""
    eves = [v for v in g.nodes if isinstance(v, EveNode)]
    fresh = {v: rule_typings(Analysis(h, m), v.nonterminal, v.ty)
             for v in eves}
    for v in eves:
        assert [(a.assumption, a.derivation)
                for a in g.successors(v)] == fresh[v], v
    shuffled = list(eves)
    random.Random(seed).shuffle(shuffled)
    for order in (eves[::-1], shuffled):
        analysis = Analysis(h, m)
        for v in order:
            assert (rule_typings(analysis, v.nonterminal, v.ty)
                    == fresh[v]), v
    return len(eves)


def test_shared_memo_matches_fresh_on_fixture_games(fixture_games):
    for seed, (h, m, q) in enumerate(fixture_games):
        g, _ = solve_cached(h, m, q)
        assert assert_shared_memo_matches_fresh(h, m, g, seed) > 0


@settings(max_examples=60, deadline=None)
@given(order0_instances(), st.integers(0, 2 ** 16))
def test_shared_memo_matches_fresh_on_order0_schemes(instance, seed):
    rules, omega, delta = instance
    h, m = order0_scheme(rules), order0_apt(omega, delta)
    assert assert_shared_memo_matches_fresh(h, m, build_game(h, m), seed) > 0


def test_shared_memo_matches_fresh_over_two_state_colors(ex1, ex1_apt):
    # The other fixture games of order 1 or more have one state color, at
    # which a terminal-headed subterm reads its binders.  Here it reads them
    # at two, and a view holding only one of them shares wrong footprints.
    cases = [(ex1, ex1_apt._replace(omega={"q0": 2, "q1": 1}), 130),
             (grow_scheme(), grow_two_color_apt(), 18)]
    for seed, (h, m, eves) in enumerate(cases):
        assert assert_shared_memo_matches_fresh(h, m, build_game(h, m),
                                                seed) == eves


ORDER1_NODE_CAP = 3000


@settings(max_examples=60, deadline=None)
@given(order1_instances(), st.integers(0, 2 ** 16))
# S = F1 c; F1 x = b x, where `b x` reads x at color 1 only: two sets of x
# that differ only at color 1 have one residual at color 2.
@example(({"S": ((), ("n", "F1", (("t", "c", ()),))),
           "F1": (("x",), ("t", "b", (("x",),)))},
          {"q0": 1, "q1": 2},
          {("q0", "b"): [((1, "q0"),)], ("q0", "c"): [()],
           ("q1", "c"): [()]}), 0)
def test_shared_memo_matches_fresh_on_order1_schemes(instance, seed):
    rules, omega, delta = instance
    h, m = order1_scheme(rules), order0_apt(omega, delta)
    # A clause that reads one argument in both states multiplies the maps
    # of an application inside it; games past the cap are drawn again.
    with mock.patch.object(game, "DEFAULT_NODE_LIMIT", ORDER1_NODE_CAP):
        try:
            g = build_game(h, m)
        except SizeGuardExceeded:
            reject()
    assert assert_shared_memo_matches_fresh(h, m, g, seed) > 0


def test_shared_memo_searches_each_residual_once(monkeypatch):
    # In `A f = b (f c) (A f)` the body and its subterm `A f` read f's set
    # only through its 0-residual, the body since `b` reads both arguments
    # under the color 0 of q.  The 256 Eve nodes A : U -> q hold 256 sets U
    # but only 16 distinct residuals, so one memo per game searches each of
    # them 16 times, where a fresh memo per node searches them 256 times.
    h, m = order2_unary_scheme(), order2_unary_apt(0)
    body = h.rules["A"].body
    calls: dict = {}
    search = _FootprintSearch._search

    def counting(self, t, target, c):
        calls[t] = calls.get(t, 0) + 1
        return search(self, t, target, c)

    monkeypatch.setattr(_FootprintSearch, "_search", counting)
    g = build_game(h, m)
    a_f = apply(NonTerminal("A"), Var("f"))
    assert (calls[body], calls[a_f]) == (16, 16)
    calls.clear()
    for v in g.nodes:
        if isinstance(v, EveNode):
            rule_typings(Analysis(h, m), v.nonterminal, v.ty)
    assert (calls[body], calls[a_f]) == (256, 256)


def test_eve_nodes_with_one_body_view_share_their_moves():
    # The 256 Eve nodes A : U -> q read U through 16 residuals (above).
    # Through one analysis, the nodes of one residual get equal moves, the
    # very pairs made once for it; each call returns a list of its own, so
    # a caller that empties one changes no later result.
    h, m = order2_unary_scheme(), order2_unary_apt(0)
    g, _ = solve_cached(h, m, "q")
    analysis = Analysis(h, m)
    groups: list[list] = []
    for v in g.nodes:
        if isinstance(v, EveNode) and v.nonterminal == "A":
            got = rule_typings(analysis, "A", v.ty)
            group = next((gr for gr in groups if gr[0][1] == got), None)
            if group is None:
                groups.append([(v, got)])
            else:
                assert all(map(operator.is_, group[0][1], got)), v
                group.append((v, got))
    assert sorted(map(len, groups)) == [16] * 16
    (v, first), (w, second) = groups[0][:2]
    assert first is not second
    kept = list(first)
    first.clear()
    second.append(None)
    assert rule_typings(analysis, "A", v.ty) == kept
    assert rule_typings(analysis, "A", w.ty) == kept


def test_equal_maps_are_one_object(fixture_games):
    # Through one analysis, every call returns the one object of each map:
    # a map found at an earlier Eve node, or found again at the same node.
    for h, m, q in fixture_games:
        g, _ = solve_cached(h, m, q)
        analysis = Analysis(h, m)
        maps: dict = {}
        calls = 0
        for v in g.nodes * 2:
            if isinstance(v, EveNode):
                for delta, _ in rule_typings(analysis, v.nonterminal, v.ty):
                    assert maps.setdefault(delta, delta) is delta, (v, delta)
                    calls += 1
        assert calls == 2 * sum(len(g.successors(v)) for v in g.nodes
                                if isinstance(v, EveNode))
        if m is order2_unary_apt(0):
            assert (calls, len(maps)) == (2 * 10242, 513)


def test_build_game_adds_no_attribute(ex1, ex1_apt):
    for h, m in [(ex1, ex1_apt), (order2_unary_scheme(), order2_unary_apt(0)),
                 (grow_scheme(), grow_apt())]:
        before = (h._asdict(), m._asdict())
        build_game(h, m)
        assert (h._asdict(), m._asdict()) == before
        # A scheme or an automaton has no room for a hidden attribute.
        for record in (h, m):
            with pytest.raises(AttributeError):
                record.memo = {}


# ---------------------------------------------------------------------------
# One analysis per game: what the search memoises lives and dies with it.

def test_build_and_extract_leave_the_automaton_unchanged(ex1, ex1_apt):
    for h, m, q in [(ex1, ex1_apt, "q0"), (*order2_unary(), "q")]:
        before = copy.deepcopy(m._asdict())
        sol = zielonka(build_game(h, m))
        extract_scheme(h, m, sol, q)
        assert m._asdict() == before


def test_each_type_space_is_enumerated_once_per_game(monkeypatch, ex1,
                                                     ex1_apt):
    calls: Counter = Counter()
    enumerate_types = typecheck.enumerate_types

    def counting(sigma, m):
        calls[sigma] += 1
        return enumerate_types(sigma, m)

    monkeypatch.setattr(typecheck, "enumerate_types", counting)
    for h, m in [(ex1, ex1_apt), order2_unary(), (grow_scheme(), grow_apt())]:
        calls.clear()
        build_game(h, m)
        assert calls and set(calls.values()) == {1}, calls


def test_a_warm_build_leaves_no_garbage():
    # The game's own objects are freed by reference counting alone; a cycle
    # would wait for the collector, and the collector is off here.
    h, m = order2_unary()
    build_game(h, m)
    gc.collect()
    gc.disable()
    try:
        build_game(h, m)
        assert gc.collect() == 0
    finally:
        gc.enable()
