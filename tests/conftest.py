import functools
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

import horsmc
from horsmc import (ADAM, Apt, Arrow, Atom, EVE, GROUND, Hors, NonTerminal,
                    ParityGame, Rule, TRUE, Terminal, Var, apply, conj, disj)


def cli_env(seed) -> dict:
    """Environment for a `python -m horsmc.cli` child: a fixed hash seed and
    the import path of the `horsmc` under test, so the child runs the same
    code as the suite whether the package is installed or run from `src/`.
    The child writes no bytecode next to that code."""
    return {"PYTHONHASHSEED": str(seed), "PATH": "/usr/bin:/bin",
            "PYTHONDONTWRITEBYTECODE": "1",
            "PYTHONPATH": str(Path(horsmc.__file__).resolve().parent.parent)}


@pytest.fixture(scope="session")
def ex1():
    """The listening-loop scheme: S = L Nil; L x = if x (L (data x))."""
    return Hors(
        terminals={"if": 2, "data": 1, "Nil": 0},
        nonterminals={"S": GROUND, "L": Arrow(GROUND, GROUND)},
        rules={
            "S": Rule((), apply(NonTerminal("L"), Terminal("Nil"))),
            "L": Rule((("x", GROUND),),
                      apply(Terminal("if"), Var("x"),
                            apply(NonTerminal("L"),
                                  apply(Terminal("data"), Var("x"))))),
        },
        start="S",
    )


@pytest.fixture(scope="session")
def ex1_apt():
    """The branching automaton over if/data/Nil, all colors 0."""
    return Apt(
        states=("q0", "q1"),
        terminals={"if": 2, "data": 1, "Nil": 0},
        delta={
            ("q0", "if"): conj(Atom(2, "q0"), Atom(2, "q1")),
            ("q1", "if"): conj(Atom(1, "q1"), Atom(2, "q0")),
            ("q1", "data"): Atom(1, "q1"),
            ("q0", "Nil"): TRUE,
            ("q1", "Nil"): TRUE,
        },
        omega={"q0": 0, "q1": 0},
        initial="q0",
    )


@functools.cache
def loop_scheme():
    """S = F; F = a F."""
    return Hors(terminals={"a": 1},
                nonterminals={"S": GROUND, "F": GROUND},
                rules={"S": Rule((), NonTerminal("F")),
                       "F": Rule((), apply(Terminal("a"), NonTerminal("F")))},
                start="S")


@functools.cache
def loop_apt(color: int) -> Apt:
    return Apt(states=("q",), terminals={"a": 1},
               delta={("q", "a"): Atom(1, "q")},
               omega={"q": color}, initial="q")


@functools.cache
def const_scheme():
    """S = c with delta(q, c) = true."""
    h = Hors(terminals={"c": 0}, nonterminals={"S": GROUND},
             rules={"S": Rule((), Terminal("c"))}, start="S")
    m = Apt(states=("q",), terminals={"c": 0}, delta={("q", "c"): TRUE},
            omega={"q": 0}, initial="q")
    return h, m


@functools.cache
def order2_scheme():
    """S = A I; A f = if (f Nil) (A f); I x = data x  (order 2)."""
    oo = Arrow(GROUND, GROUND)
    return Hors(
        terminals={"if": 2, "data": 1, "Nil": 0},
        nonterminals={"S": GROUND, "A": Arrow(oo, GROUND), "I": oo},
        rules={
            "S": Rule((), apply(NonTerminal("A"), NonTerminal("I"))),
            "A": Rule((("f", oo),),
                      apply(Terminal("if"),
                            apply(Var("f"), Terminal("Nil")),
                            apply(NonTerminal("A"), Var("f")))),
            "I": Rule((("x", GROUND),),
                      apply(Terminal("data"), Var("x"))),
        },
        start="S",
    )


@functools.cache
def order2_unary():
    """S = A I; A f = b (f c) (A f); I x = d x, with a one-state automaton
    accepting everything: a feasible order-2 end-to-end fixture."""
    return order2_unary_scheme(), order2_unary_apt(0)


@functools.cache
def order2_unary_scheme():
    oo = Arrow(GROUND, GROUND)
    h = Hors(
        terminals={"b": 2, "c": 0, "d": 1},
        nonterminals={"S": GROUND, "A": Arrow(oo, GROUND), "I": oo},
        rules={
            "S": Rule((), apply(NonTerminal("A"), NonTerminal("I"))),
            "A": Rule((("f", oo),),
                      apply(Terminal("b"),
                            apply(Var("f"), Terminal("c")),
                            apply(NonTerminal("A"), Var("f")))),
            "I": Rule((("x", GROUND),),
                      apply(Terminal("d"), Var("x"))),
        },
        start="S",
    )
    return h


@functools.cache
def order2_unary_apt(color: int) -> Apt:
    """Color 0 accepts the scheme's tree; color 1 is its REJECT twin."""
    return Apt(states=("q",), terminals={"b": 2, "c": 0, "d": 1},
               delta={("q", "b"): conj(Atom(1, "q"), Atom(2, "q")),
                      ("q", "c"): TRUE,
                      ("q", "d"): Atom(1, "q")},
               omega={"q": color}, initial="q")


@functools.cache
def grow_scheme():
    """S = G c; G x = a x (G (b x)): a spine of a's whose k-th left child
    is the chain b^k c."""
    return Hors(
        terminals={"a": 2, "b": 1, "c": 0},
        nonterminals={"S": GROUND, "G": Arrow(GROUND, GROUND)},
        rules={"S": Rule((), apply(NonTerminal("G"), Terminal("c"))),
               "G": Rule((("x", GROUND),),
                         apply(Terminal("a"), Var("x"),
                               apply(NonTerminal("G"),
                                     apply(Terminal("b"), Var("x")))))},
        start="S",
    )


@functools.cache
def grow_apt() -> Apt:
    """Follow the spine's right children only, at color 2."""
    return Apt(states=("q",), terminals={"a": 2, "b": 1, "c": 0},
               delta={("q", "a"): Atom(2, "q")},
               omega={"q": 2}, initial="q")


@functools.cache
def grow_two_color_apt() -> Apt:
    """q follows the spine's right children at color 2 and hands each left
    child to p, which follows the b-chain down to c at color 1."""
    return Apt(states=("q", "p"), terminals={"a": 2, "b": 1, "c": 0},
               delta={("q", "a"): conj(Atom(1, "p"), Atom(2, "q")),
                      ("p", "b"): Atom(1, "p"),
                      ("p", "c"): TRUE},
               omega={"q": 2, "p": 1}, initial="q")


@functools.cache
def mutual_scheme():
    """S = F; F = a G; G = b F."""
    return Hors(
        terminals={"a": 1, "b": 1},
        nonterminals={"S": GROUND, "F": GROUND, "G": GROUND},
        rules={"S": Rule((), NonTerminal("F")),
               "F": Rule((), apply(Terminal("a"), NonTerminal("G"))),
               "G": Rule((), apply(Terminal("b"), NonTerminal("F")))},
        start="S",
    )


@functools.cache
def mutual_apt() -> Apt:
    """p reads a and moves to r, r reads b and moves to p; colors 2 and 1."""
    return Apt(states=("p", "r"), terminals={"a": 1, "b": 1},
               delta={("p", "a"): Atom(1, "r"), ("r", "b"): Atom(1, "p")},
               omega={"p": 2, "r": 1}, initial="p")


def fixture_terms(max_size: int):
    """All applicative terms over {if, data, Nil, x} with at most `max_size`
    nodes, grouped by sort.  Applications take ground arguments only, which
    covers every well-sorted combination of this vocabulary."""
    from horsmc import App
    oo = Arrow(GROUND, GROUND)
    ooo = Arrow(GROUND, oo)
    by_sort_size: dict = {}

    def put(sort, size, term):
        by_sort_size.setdefault((sort, size), []).append(term)

    put(GROUND, 1, Var("x"))
    put(GROUND, 1, Terminal("Nil"))
    put(oo, 1, Terminal("data"))
    put(ooo, 1, Terminal("if"))
    for size in range(2, max_size + 1):
        for result in (GROUND, oo):
            fn_sort = Arrow(GROUND, result)
            for fn_size in range(1, size - 1):
                for fn in by_sort_size.get((fn_sort, fn_size), []):
                    for arg in by_sort_size.get((GROUND, size - 1 - fn_size),
                                                []):
                        put(result, size, App(fn, arg))
    out: dict = {}
    for (sort, _), terms in sorted(by_sort_size.items(),
                                   key=lambda kv: (repr(kv[0][0]), kv[0][1])):
        out.setdefault(sort, []).extend(terms)
    return out


_solutions: dict = {}


def solve_cached(h, m, q):
    """Build and solve the game seeded at state q, or at every state when q
    is None, once per (scheme, automaton, q) triple; fixtures are shared,
    so identity keys are stable."""
    from horsmc import build_game, zielonka
    key = (id(h), id(m), q)
    if key not in _solutions:
        g = build_game(h, m, states=None if q is None else [q])
        _solutions[key] = (g, zielonka(g))
    return _solutions[key]


@pytest.fixture(scope="session")
def fixture_games(ex1, ex1_apt):
    """(scheme, automaton, state) of each single-seed fixture game."""
    return [(ex1, ex1_apt, "q0"), (ex1, ex1_apt, "q1"),
            (loop_scheme(), loop_apt(1), "q"),
            (loop_scheme(), loop_apt(2), "q"),
            (mutual_scheme(), mutual_apt(), "p"),
            (mutual_scheme(), mutual_apt(), "r"),
            (grow_scheme(), grow_apt(), "q"),
            (order2_unary_scheme(), order2_unary_apt(0), "q"),
            (order2_unary_scheme(), order2_unary_apt(1), "q")]


def random_game(rng: random.Random, max_nodes: int = 8,
                max_priority: int = 5, min_nodes: int = 1) -> ParityGame:
    n = rng.randint(min_nodes, max_nodes)
    nodes = tuple(range(n))
    owner = {v: (EVE if rng.random() < 0.5 else ADAM) for v in nodes}
    priority = {v: rng.randint(0, max_priority) for v in nodes}
    edges = {v: tuple(sorted(rng.sample(nodes, rng.randint(0, min(3, n)))))
             for v in nodes}
    return ParityGame(nodes, owner, priority, edges)


def random_game_few_dead_ends(rng: random.Random, min_nodes: int,
                              max_nodes: int, max_priority: int,
                              dead_share: float = 0.1) -> ParityGame:
    """Like `random_game`, but a node is a dead end with probability
    `dead_share` and otherwise has one to three successors, listed in the
    order they were drawn."""
    n = rng.randint(min_nodes, max_nodes)
    nodes = tuple(range(n))
    owner = {v: (EVE if rng.random() < 0.5 else ADAM) for v in nodes}
    priority = {v: rng.randint(0, max_priority) for v in nodes}
    edges = {v: () if rng.random() < dead_share
             else tuple(rng.sample(nodes, rng.randint(1, min(3, n))))
             for v in nodes}
    return ParityGame(nodes, owner, priority, edges)


# ---------------------------------------------------------------------------
# Random order-0 schemes and two-state automata, drawn as plain data so that
# a test-side oracle can read them without the program's own types.

ORDER0_ALPHABET = (("c", 0), ("b", 1), ("a", 2), ("d", 3))
ORDER0_STATES = ("q0", "q1")


@st.composite
def order0_instances(draw, max_arity: int = 3):
    """(rules, omega, delta): each rule body is ("t", symbol, args) with
    arguments that are bodies or ("n", name); delta maps (state, symbol) to
    a list of clauses, each a tuple of (direction, state) atoms, where []
    is false and [()] is true.  The start symbol is S.  Only terminals of
    arity up to `max_arity` occur."""
    names = ["S"] + [f"F{i}" for i in range(1, draw(st.integers(1, 4)))]
    alphabet = [(a, n) for a, n in ORDER0_ALPHABET if n <= max_arity]

    def term(depth):
        sym, arity = draw(st.sampled_from(alphabet if depth > 1
                                          else alphabet[:1]))
        args = []
        for _ in range(arity):
            kind = draw(st.sampled_from(("n", "n", "c", "t")))
            if kind == "n":
                args.append(("n", draw(st.sampled_from(names))))
            else:
                args.append(term(depth - 1 if kind == "t" else 1))
        return ("t", sym, tuple(args))

    rules = {x: term(3) for x in names}
    omega = {q: draw(st.integers(0, 2)) for q in ORDER0_STATES}
    return rules, omega, draw_delta(draw, alphabet)


def draw_delta(draw, alphabet) -> dict:
    """A transition table over `ORDER0_STATES`, in `order0_instances`'s
    form: at most two clauses of at most two atoms each."""
    delta = {}
    for q in ORDER0_STATES:
        for sym, arity in alphabet:
            atoms = st.tuples(st.integers(1, arity),
                              st.sampled_from(ORDER0_STATES))
            clause = (st.lists(atoms, max_size=2, unique=True).map(
                lambda c: tuple(sorted(c))) if arity else st.just(()))
            delta[q, sym] = draw(st.lists(clause, max_size=2, unique=True))
    return delta


def order0_scheme(rules) -> Hors:
    def build(t):
        if t[0] == "n":
            return NonTerminal(t[1])
        return apply(Terminal(t[1]), *map(build, t[2]))

    return Hors(terminals=dict(ORDER0_ALPHABET),
                nonterminals={x: GROUND for x in rules},
                rules={x: Rule((), build(body)) for x, body in rules.items()},
                start="S")


@st.composite
def order1_instances(draw):
    """(rules, omega, delta) of an order-1 scheme over terminals of arity up
    to 2.  S takes no argument, and its body applies F1, which takes one, a
    binder x of sort o; F2, if any, takes none or one.  `rules` maps a name
    to (binders, body), binders being () or ("x",); a body is ("t", symbol,
    args), ("n", name, args) or ("x",), args being bodies.  The two states
    have distinct colors, and delta is as in `order0_instances`.  Every
    argument has sort o, so a nonterminal head offers at most 6 argument
    options, under `PAIR_CAP`.

    A body applies a nonterminal at most once, and not inside another
    application of one.  Each application at a target can have up to 64
    minimal maps, one per argument set, and two of them in one body, or
    one inside another, multiply: `S = F (F S)` alone has more maps than a
    test can enumerate."""
    names = ["S", "F1", "F2"][:draw(st.integers(2, 3))]
    arity = {"S": 0, "F1": 1, "F2": draw(st.integers(0, 1))}
    alphabet = [(a, n) for a, n in ORDER0_ALPHABET if n <= 2]
    leaves = ([("t", "c", ()), ("n", "S", ())]
              + [("n", x, ()) for x in names[1:] if not arity[x]])
    applied = [x for x in names if arity[x]]

    def term(depth, bound, unapplied):
        kinds = ["leaf"]
        if depth > 1:
            kinds += ["t"] + ["n"] * unapplied[0]
        kind = draw(st.sampled_from(kinds))
        if kind == "leaf":
            return draw(st.sampled_from(leaves + [("x",)] * bound))
        if kind == "t":
            sym, n = draw(st.sampled_from(alphabet))
            return ("t", sym, tuple(term(depth - 1, bound, unapplied)
                                    for _ in range(n)))
        unapplied[0] = False
        return ("n", draw(st.sampled_from(applied)),
                (term(depth - 1, bound, unapplied),))

    rules = {"S": ((), ("n", "F1", (term(2, 0, [False]),)))}
    rules.update((x, (("x",) * arity[x], term(3, arity[x], [True])))
                 for x in names[1:])
    colors = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2,
                           unique=True))
    return rules, dict(zip(ORDER0_STATES, colors)), draw_delta(draw, alphabet)


def order1_scheme(rules) -> Hors:
    def build(t):
        if t[0] == "x":
            return Var("x")
        head = Terminal(t[1]) if t[0] == "t" else NonTerminal(t[1])
        return apply(head, *map(build, t[2]))

    return Hors(terminals=dict(ORDER0_ALPHABET),
                nonterminals={x: Arrow(GROUND, GROUND) if binders else GROUND
                              for x, (binders, _) in rules.items()},
                rules={x: Rule(tuple((b, GROUND) for b in binders),
                               build(body))
                       for x, (binders, body) in rules.items()},
                start="S")


def order0_apt(omega, delta) -> Apt:
    return Apt(states=ORDER0_STATES, terminals=dict(ORDER0_ALPHABET),
               delta={key: disj(*(conj(*(Atom(d, q) for d, q in clause))
                                  for clause in clauses))
                      for key, clauses in delta.items()},
               omega=dict(omega), initial="q0")
