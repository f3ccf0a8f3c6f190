"""Independent order-0 oracle: the product parity game of scheme graph and
automaton states, solved by its own Zielonka.

An order-0 scheme denotes a regular tree: every rule body is a
terminal-headed term over nullary nonterminals.  At a position (terminal
subterm, state q) Eve picks a DNF clause of delta(q, a) and Adam picks one
of its atoms (k, q'); play moves to the k-th argument in state q', through
the body of a nonterminal argument.  Positions carry the color of q, the
clause nodes the color 0, which no cycle sees alone because every cycle
passes a position.  Dead ends lose for their owner: no clause (false) for
Eve, the empty clause (true) for Adam.

Nothing here imports the program under test.
"""

from __future__ import annotations

EVE, ADAM = 0, 1


def decide_order0(rules, start, omega, delta, state) -> bool:
    """Does the automaton accept the scheme's tree from `state`?

    `rules` maps a nonterminal to its body ("t", symbol, args) whose
    arguments are bodies or ("n", name); `delta` maps (state, symbol) to a
    list of clauses, each a tuple of (direction, state) atoms.
    """
    owner, prio, succ = [], [], []
    index: dict = {}

    def resolve(t):
        return rules[t[1]] if t[0] == "n" else t

    def node(key, who, p) -> tuple[int, bool]:
        if key in index:
            return index[key], False
        index[key] = len(owner)
        owner.append(who)
        prio.append(p)
        succ.append([])
        return index[key], True

    root, _ = node((id(resolve(("n", start))), state), EVE, omega[state])
    work = [(root, resolve(("n", start)), state)]
    while work:
        v, term, q = work.pop()
        _, sym, args = term
        for i, clause in enumerate(delta.get((q, sym), [])):
            c, _ = node((id(term), q, i), ADAM, 0)
            succ[v].append(c)
            for k, q2 in clause:
                target = resolve(args[k - 1])
                w, new = node((id(target), q2), EVE, omega[q2])
                succ[c].append(w)
                if new:
                    work.append((w, target, q2))
    return root in solve(owner, prio, succ)


def solve(owner, prio, succ) -> set[int]:
    """Eve's winning region of a max-parity game on nodes 0..n-1."""
    n = len(owner)
    # Make the game total: a dead end moves to a sink its owner loses.
    eve_sink, adam_sink = n, n + 1
    owner = list(owner) + [EVE, ADAM]
    prio = list(prio) + [0, 1]
    succ = [list(s) or [adam_sink if owner[v] == EVE else eve_sink]
            for v, s in enumerate(succ)] + [[eve_sink], [adam_sink]]
    pred = [[] for _ in owner]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)

    def attractor(nodes: set, target: set, player: int) -> set:
        attr = set(target)
        count = {v: sum(w in nodes for w in succ[v])
                 for v in nodes if owner[v] != player}
        work = list(target)
        while work:
            w = work.pop()
            for v in pred[w]:
                if v not in nodes or v in attr:
                    continue
                if owner[v] != player:
                    count[v] -= 1
                    if count[v]:
                        continue
                attr.add(v)
                work.append(v)
        return attr

    def zielonka(nodes: set) -> tuple[set, set]:
        won = (set(), set())
        while nodes:
            p = max(prio[v] for v in nodes)
            i = p % 2
            top = attractor(nodes, {v for v in nodes if prio[v] == p}, i)
            sub = zielonka(nodes - top)
            if not sub[1 - i]:
                won[i].update(nodes)
                return won
            lost = attractor(nodes, sub[1 - i], 1 - i)
            won[1 - i].update(lost)
            nodes = nodes - lost
        return won

    return zielonka(set(range(n + 2)))[EVE] - {eve_sink}
