"""The sequent game's verdicts against exact oracles.

An order-0 scheme denotes a regular tree, so acceptance is decided by the
finite product game of the scheme's terms and the automaton's states.  The
oracle below builds and solves that game itself from the plain data that
`conftest.order0_instances` draws; it shares no code with `typecheck`,
`game` or the benchmark.

At every order, `oracles.winning_sequents` computes the paper's nested
fixpoint over sequents with `oracles.Deriver`, without the footprint
search, the game or `zielonka`; the game's Eve region must equal it at
every Eve node.  On the same draws, each accepted state's witness goes
through `select`'s text and back, and passes `verify` to depth 8.
"""

from unittest import mock

from hypothesis import example, given, reject, settings

from horsmc import (EveNode, SizeGuardExceeded, StateType, build_game,
                    check_adam_strategy, check_eve_strategy, extract_scheme,
                    game, verify_runtree, zielonka)
from horsmc.formats import parse_annotated, print_annotated
from horsmc.oracles import winning_sequents
from conftest import (ORDER0_STATES, grow_apt, grow_scheme, loop_apt,
                      loop_scheme, mutual_apt, mutual_scheme, order0_apt,
                      order0_instances, order0_scheme, order1_instances,
                      order1_scheme, order2_unary_apt, order2_unary_scheme)

# Order-1 draws whose game passes this many nodes are drawn again: a
# clause that reads one argument in both states multiplies the maps.
ORDER1_NODE_CAP = 3000


def product_game(rules, omega, delta, state):
    """Max-parity product game from (start body, `state`) as (root, owner,
    priority, successors) over nodes 0..n-1; owner True is the prover.

    At a position (terminal-headed body, q) the prover picks a clause of
    delta(q, a); at a clause node the refuter picks one of its atoms (k,
    q'), and play moves on to the k-th argument in state q' (through the
    body of a nonterminal argument).  Positions carry omega(q), clause
    nodes 0, which never decides a play: every cycle passes a position.  A
    player who cannot move loses: a position without clauses moves to the
    sink LOST, the empty clause to the sink WON.
    """
    WON, LOST = 0, 1
    owner, priority, succ = [True, True], [0, 1], [[WON], [LOST]]
    number: dict = {}
    todo: list = []

    def body(t):
        while t[0] == "n":
            t = rules[t[1]]
        return t

    def node(key, prover, p):
        if key not in number:
            number[key] = len(owner)
            owner.append(prover)
            priority.append(p)
            succ.append([])
            todo.append(key)
        return number[key]

    root = node((body(("n", "S")), state), True, omega[state])
    while todo:
        term, q = key = todo.pop()
        _, symbol, args = term
        for clause in delta.get((q, symbol), []):
            c = len(owner)
            owner.append(False)
            priority.append(0)
            succ.append([])
            succ[c] = [node((body(args[k - 1]), q2), True, omega[q2])
                       for k, q2 in clause] or [WON]
            succ[number[key]].append(c)
        succ[number[key]] = succ[number[key]] or [LOST]
    return root, owner, priority, succ


def prover_region(owner, priority, succ) -> set:
    """The prover's winning region of a game where every node can move, by
    the recursive algorithm over node sets."""

    def attract(nodes, target, prover):
        region = set(target)
        changed = True
        while changed:
            changed = False
            for v in nodes - region:
                moves = [w for w in succ[v] if w in nodes]
                if (any(w in region for w in moves) if owner[v] == prover
                        else all(w in region for w in moves)):
                    region.add(v)
                    changed = True
        return region

    def solve(nodes):
        """(prover's region, refuter's region) of the subgame on `nodes`."""
        if not nodes:
            return set(), set()
        top = max(priority[v] for v in nodes)
        prover = top % 2 == 0
        top_attr = attract(nodes, {v for v in nodes if priority[v] == top},
                           prover)
        sub = solve(nodes - top_attr)
        other = sub[1] if prover else sub[0]
        if not other:
            return (set(nodes), set()) if prover else (set(), set(nodes))
        lost = attract(nodes, other, not prover)
        rest = solve(nodes - lost)
        if prover:
            return rest[0], rest[1] | lost
        return rest[0] | lost, rest[1]

    return solve(set(range(len(owner))))[0]


def oracle_accepts(rules, omega, delta, state) -> bool:
    root, owner, priority, succ = product_game(rules, omega, delta, state)
    return root in prover_region(owner, priority, succ)


@settings(max_examples=150, deadline=None)
@given(order0_instances())
# S = d c c c under d -> (1,q0) & (2,q1) at q0: the clause's atom at
# position 2 is covered by the second argument's set, not by the third's.
@example(({"S": ("t", "d", (("t", "c", ()),) * 3)}, {"q0": 0, "q1": 0},
          {("q0", "d"): [((1, "q0"), (2, "q1"))], ("q0", "c"): [()],
           ("q1", "c"): [()]}))
# S = b F1; F1 = c under b -> (1,q0) | (1,q1): only the second clause's set
# for F1 can be won.
@example(({"S": ("t", "b", (("n", "F1"),)), "F1": ("t", "c", ())},
          {"q0": 0, "q1": 0},
          {("q0", "b"): [((1, "q0"),), ((1, "q1"),)], ("q1", "c"): [()]}))
def test_sequent_game_matches_product_game(instance):
    rules, omega, delta = instance
    h, m = order0_scheme(rules), order0_apt(omega, delta)
    g = build_game(h, m)
    sol = zielonka(g)
    assert check_eve_strategy(g, sol) and check_adam_strategy(g, sol)
    for q in ORDER0_STATES:
        assert ((EveNode("S", StateType(q)) in sol.win_eve)
                == oracle_accepts(rules, omega, delta, q)), q


# ---------------------------------------------------------------------------
# The nested fixpoint over sequents, at every order

def game_of(h, m, states=None):
    """`build_game` + `zielonka`, or a new draw past `ORDER1_NODE_CAP`."""
    with mock.patch.object(game, "DEFAULT_NODE_LIMIT", ORDER1_NODE_CAP):
        try:
            g = build_game(h, m, states)
        except SizeGuardExceeded:
            reject()
    return g, zielonka(g)


def fixpoint_disagreements(h, m, g, sol) -> tuple[int, list]:
    """The Eve nodes of `g`, and those at which `zielonka`'s Eve region and
    `winning_sequents` disagree."""
    won = winning_sequents(h, m)
    eves = [v for v in g.nodes if isinstance(v, EveNode)]
    return len(eves), [v for v in eves if (v in sol.win_eve)
                       != ((v.nonterminal, v.ty) in won)]


def test_fixpoint_matches_zielonka_on_fixture_pairs(ex1, ex1_apt):
    # (scheme, automaton, Eve nodes of the game seeded at every state)
    pairs = [(ex1, ex1_apt, 34), (loop_scheme(), loop_apt(1), 2),
             (loop_scheme(), loop_apt(2), 2),
             (mutual_scheme(), mutual_apt(), 5), (grow_scheme(), grow_apt(), 2),
             (order2_unary_scheme(), order2_unary_apt(0), 261),
             (order2_unary_scheme(), order2_unary_apt(1), 261)]
    for h, m, eves in pairs:
        g = build_game(h, m)
        assert fixpoint_disagreements(h, m, g, zielonka(g)) == (eves, [])


@settings(max_examples=100, deadline=None)
@given(order0_instances())
def test_fixpoint_matches_zielonka_on_order0_schemes(instance):
    rules, omega, delta = instance
    h, m = order0_scheme(rules), order0_apt(omega, delta)
    g = build_game(h, m)
    assert fixpoint_disagreements(h, m, g, zielonka(g))[1] == []


@settings(max_examples=100, deadline=None)
@given(order1_instances())
# F1 recurs forever in whichever state it starts, under colors 0 and 1:
# q0 accepts and q1 rejects, so the verdict turns on each color's parity.
@example(({"S": ((), ("n", "F1", (("t", "c", ()),))),
           "F1": (("x",), ("t", "a", (("n", "F1", (("x",),)), ("x",))))},
          {"q0": 0, "q1": 1},
          {("q0", "a"): [((1, "q0"),)], ("q1", "a"): [((1, "q1"),)],
           ("q0", "b"): [], ("q1", "b"): [], ("q0", "c"): [()],
           ("q1", "c"): [()]}))
def test_fixpoint_matches_zielonka_on_order1_schemes(instance):
    rules, omega, delta = instance
    h, m = order1_scheme(rules), order0_apt(omega, delta)
    g, sol = game_of(h, m)
    assert fixpoint_disagreements(h, m, g, sol)[1] == []


def assert_witnesses_round_trip(h, m) -> None:
    """As `select` then `verify --witness -d 8` do: for each state, decide
    on the game seeded there; an accepted state's witness, printed and
    parsed again, passes."""
    for q in m.states:
        _, sol = game_of(h, m, [q])
        if EveNode(h.start, StateType(q)) in sol.win_eve:
            text = print_annotated(extract_scheme(h, m, sol, q))
            report = verify_runtree(parse_annotated(text), h, m, q, 8)
            assert report.passed, (q, text, report)


@settings(max_examples=60, deadline=None)
@given(order0_instances())
def test_witnesses_round_trip_on_order0_schemes(instance):
    rules, omega, delta = instance
    assert_witnesses_round_trip(order0_scheme(rules),
                                order0_apt(omega, delta))


@settings(max_examples=60, deadline=None)
@given(order1_instances())
def test_witnesses_round_trip_on_order1_schemes(instance):
    rules, omega, delta = instance
    assert_witnesses_round_trip(order1_scheme(rules),
                                order0_apt(omega, delta))
