"""The sequent game's verdicts against an exact order-0 oracle.

An order-0 scheme denotes a regular tree, so acceptance is decided by the
finite product game of the scheme's terms and the automaton's states.  The
oracle below builds and solves that game itself from the plain data that
`conftest.order0_instances` draws; it shares no code with `typecheck`,
`game` or the benchmark.
"""

from hypothesis import given, settings

from horsmc import (EveNode, StateType, build_game, check_adam_strategy,
                    check_eve_strategy, zielonka)
from conftest import (ORDER0_STATES, order0_apt, order0_instances,
                      order0_scheme)


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
def test_sequent_game_matches_product_game(instance):
    rules, omega, delta = instance
    h, m = order0_scheme(rules), order0_apt(omega, delta)
    g = build_game(h, m)
    sol = zielonka(g)
    assert check_eve_strategy(g, sol) and check_adam_strategy(g, sol)
    for q in ORDER0_STATES:
        assert ((EveNode("S", StateType(q)) in sol.win_eve)
                == oracle_accepts(rules, omega, delta, q)), q
