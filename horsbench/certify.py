"""Strategy certificates for solved parity games.

`check_adam_strategy` mirrors the program's `check_eve_strategy` for the
refuter: inside Adam's region, Eve cannot leave, Adam's strategy stays, and
every cycle the strategy allows has an odd maximal priority.  Together with
Eve's check and a partition check this proves a solution correct without
trusting the solver.  The check works on integer indices and shares no code
with the program.
"""

from __future__ import annotations

from horsmc import game


class CertificateError(Exception):
    pass


def _sccs(n: int, succ) -> list[list[int]]:
    """Tarjan's strongly connected components over 0..n-1, iteratively."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    out = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def strategy_wins(g, region, strategy, player: str) -> None:
    """Raise CertificateError unless `strategy` wins every play from
    `region` for `player` (Eve wins even maximal priorities)."""
    nodes = [v for v in g.nodes if v in region]
    ix = {v: i for i, v in enumerate(nodes)}
    prio = [g.priority[v] for v in nodes]
    succ: list[list[int]] = []
    for v in nodes:
        moves = g.successors(v)
        if g.owner[v] == player:
            w = strategy.get(v)
            if w is None or w not in moves or w not in ix:
                raise CertificateError(f"{player}: no move inside the "
                                       f"region at {v!r}")
            succ.append([ix[w]])
        else:
            if any(w not in ix for w in moves):
                raise CertificateError(f"{player}: the opponent escapes "
                                       f"the region at {v!r}")
            succ.append([ix[w] for w in moves])
    losing = 1 if player == game.EVE else 0
    for p in sorted({q for q in prio if q % 2 == losing}):
        keep = [q <= p for q in prio]
        sub = [[w for w in ws if keep[w]] if keep[v] else []
               for v, ws in enumerate(succ)]
        for comp in _sccs(len(nodes), sub):
            cyclic = len(comp) > 1 or comp[0] in sub[comp[0]]
            if cyclic and keep[comp[0]] and any(prio[v] == p for v in comp):
                raise CertificateError(f"{player}: a cycle with maximal "
                                       f"priority {p} is allowed")


def check_adam_strategy(g, sol) -> None:
    strategy_wins(g, sol.win_adam, sol.strategy_adam, game.ADAM)


def certify(g, sol) -> None:
    """Both strategies and the partition into regions; raises on failure."""
    if sol.win_eve & sol.win_adam or \
            len(sol.win_eve) + len(sol.win_adam) != len(g.nodes):
        raise CertificateError("the regions do not partition the game")
    if not game.check_eve_strategy(g, sol):
        raise CertificateError("check_eve_strategy rejects Eve's strategy")
    strategy_wins(g, sol.win_eve, sol.strategy_eve, game.EVE)
    check_adam_strategy(g, sol)
