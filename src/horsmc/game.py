"""Finite parity game built from typing sequents, and two solvers.

The game has three node layers: at an Eve node the prover picks an
assumption map under which the nonterminal's rule body is derivable; at an
Adam node the refuter challenges one assumption; a color node carries the
challenged assumption's color as a priority and hands control back to the
corresponding Eve node.  Infinite plays thus follow infinite branches of a
derivation tree with fixpoint unfoldings, and the parity condition encodes
the winning condition on colors.

`zielonka` is the production solver (attractor recursion, memoryless
strategies for both players); `solve_brute` enumerates strategy pairs and
is kept as a testing oracle for small games.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import Apt, Color, color_key, format_color
from .itypes import (IType, SizeGuardExceeded, StateType, format_cset,
                     format_itype, DEFAULT_ENUM_LIMIT)
from .syntax import Hors, require_wellformed
from .typecheck import AssumptionMap, rule_typings

EVE = "eve"
ADAM = "adam"


@dataclass(frozen=True)
class EveNode:
    nonterminal: str
    ty: IType


@dataclass(frozen=True)
class AdamNode:
    nonterminal: str
    ty: IType
    assumption: AssumptionMap


@dataclass(frozen=True)
class ColorNode:
    color: Color
    nonterminal: str
    ty: IType


GameNode = EveNode | AdamNode | ColorNode


@dataclass
class ParityGame:
    """Max-parity game; dead ends lose for their owner."""

    nodes: tuple
    owner: dict
    priority: dict
    edges: dict
    initial: object | None = None

    def successors(self, v):
        return self.edges.get(v, ())


@dataclass
class Solution:
    win_eve: frozenset
    win_adam: frozenset
    strategy_eve: dict
    strategy_adam: dict


DEFAULT_NODE_LIMIT = 200_000


def node_priority(v: GameNode) -> int:
    """Color nodes carry the shifted color; everything else is 1.

    The shift c -> c + 2 (neutral -> 1) preserves parity and strict order,
    so a branch whose maximal recurring color is even becomes a play whose
    maximal recurring priority is even; cycles seeing only neutral colors
    get odd maximum 1 and lose.
    """
    if isinstance(v, ColorNode):
        return 1 if color_key(v.color) < 0 else v.color + 2
    return 1


def build_game(h: Hors, m: Apt, states=None,
               limit: int = DEFAULT_ENUM_LIMIT,
               node_limit: int = DEFAULT_NODE_LIMIT) -> ParityGame:
    """Reachable sequent game seeded at the start symbol in the given states
    (all automaton states by default)."""
    require_wellformed(h)
    m.validate()
    if states is None:
        states = sorted(m.states)
    seeds = [EveNode(h.start, StateType(q)) for q in states]

    nodes: list[GameNode] = []
    owner: dict = {}
    priority: dict = {}
    edges: dict = {}
    seen: set = set()
    queue: deque[GameNode] = deque()

    def push(v: GameNode) -> None:
        if v in seen:
            return
        if len(seen) >= node_limit:
            raise SizeGuardExceeded("game nodes", len(seen) + 1, node_limit)
        seen.add(v)
        nodes.append(v)
        owner[v] = ADAM if isinstance(v, AdamNode) else EVE
        priority[v] = node_priority(v)
        queue.append(v)

    for s in seeds:
        push(s)
    while queue:
        v = queue.popleft()
        if isinstance(v, EveNode):
            succs = [AdamNode(v.nonterminal, v.ty, delta)
                     for delta, _ in rule_typings(h, m, v.nonterminal, v.ty,
                                                  limit)]
        elif isinstance(v, AdamNode):
            succs = [ColorNode(c, name, ty)
                     for name, u in v.assumption
                     for c, ty in u.pairs]
        else:
            succs = [EveNode(v.nonterminal, v.ty)]
        edges[v] = tuple(succs)
        for w in succs:
            push(w)

    initial = seeds[0] if seeds else None
    return ParityGame(tuple(nodes), owner, priority, edges, initial)


# ---------------------------------------------------------------------------
# Zielonka's algorithm with strategy extraction

def zielonka(g: ParityGame) -> Solution:
    index = {v: i for i, v in enumerate(g.nodes)}
    succ = {v: tuple(dict.fromkeys(g.successors(v))) for v in g.nodes}
    pred: dict = {v: [] for v in g.nodes}
    for v in g.nodes:
        for w in succ[v]:
            pred[w].append(v)
    for v in g.nodes:
        pred[v].sort(key=index.get)

    def attract(active: set, player: str, seeds) -> tuple[set, dict]:
        attracted = set(seeds)
        strat: dict = {}
        cnt = {}
        queue = deque(sorted(seeds, key=index.get))
        for v in sorted(active, key=index.get):
            if g.owner[v] != player and v not in attracted:
                cnt[v] = sum(1 for w in succ[v] if w in active)
                if cnt[v] == 0:  # opponent dead end: vacuously attracted
                    attracted.add(v)
                    queue.append(v)
        while queue:
            u = queue.popleft()
            for v in pred[u]:
                if v not in active or v in attracted:
                    continue
                if g.owner[v] == player:
                    attracted.add(v)
                    strat[v] = u
                    queue.append(v)
                else:
                    cnt[v] -= 1
                    if cnt[v] == 0:
                        attracted.add(v)
                        queue.append(v)
        return attracted, strat

    def least_successor(v, active: set):
        for w in sorted(succ[v], key=index.get):
            if w in active:
                return w
        return None

    def solve(active: set):
        win = {EVE: set(), ADAM: set()}
        strat = {EVE: {}, ADAM: {}}
        if not active:
            return win, strat
        p = max(g.priority[v] for v in active)
        player = EVE if p % 2 == 0 else ADAM
        opponent = ADAM if player == EVE else EVE
        seeds = [v for v in sorted(active, key=index.get) if g.priority[v] == p]
        region, region_strat = attract(active, player, seeds)
        sub_win, sub_strat = solve(active - region)
        if not sub_win[opponent]:
            win[player] = set(active)
            strat[player] = dict(sub_strat[player])
            strat[player].update(region_strat)
            for v in seeds:
                if g.owner[v] == player and v not in strat[player]:
                    w = least_successor(v, active)
                    if w is not None:
                        strat[player][v] = w
            return win, strat
        escape, escape_strat = attract(active, opponent, sub_win[opponent])
        final_win, final_strat = solve(active - escape)
        win[player] = final_win[player]
        strat[player] = final_strat[player]
        win[opponent] = final_win[opponent] | escape
        strat[opponent] = dict(final_strat[opponent])
        strat[opponent].update(escape_strat)
        strat[opponent].update({v: w for v, w in sub_strat[opponent].items()
                                if v in sub_win[opponent]})
        return win, strat

    # Dead ends lose for their owner: resolve them before the recursion so
    # the remaining game is total.
    active = set(g.nodes)
    win = {EVE: set(), ADAM: set()}
    strat = {EVE: {}, ADAM: {}}
    changed = True
    while changed:
        changed = False
        for player, opponent in ((EVE, ADAM), (ADAM, EVE)):
            dead = [v for v in sorted(active, key=index.get)
                    if g.owner[v] == opponent
                    and not any(w in active for w in succ[v])]
            if dead:
                region, region_strat = attract(active, player, dead)
                win[player] |= region
                strat[player].update(region_strat)
                active -= region
                changed = True
    main_win, main_strat = solve(active)
    win[EVE] |= main_win[EVE]
    win[ADAM] |= main_win[ADAM]
    strat[EVE].update(main_strat[EVE])
    strat[ADAM].update(main_strat[ADAM])
    strategy_eve = {v: w for v, w in strat[EVE].items()
                    if g.owner[v] == EVE and v in win[EVE]}
    strategy_adam = {v: w for v, w in strat[ADAM].items()
                     if g.owner[v] == ADAM and v in win[ADAM]}
    return Solution(frozenset(win[EVE]), frozenset(win[ADAM]),
                    strategy_eve, strategy_adam)


# ---------------------------------------------------------------------------
# Brute-force solver (testing oracle)

BRUTE_NODE_LIMIT = 12


def _play_winner(g: ParityGame, start, choice: dict) -> str:
    seen_at: dict = {}
    path = []
    v = start
    while True:
        if v in seen_at:
            cycle = path[seen_at[v]:]
            top = max(g.priority[u] for u in cycle)
            return EVE if top % 2 == 0 else ADAM
        seen_at[v] = len(path)
        path.append(v)
        nxt = choice.get(v)
        if nxt is None:
            return ADAM if g.owner[v] == EVE else EVE  # stuck owner loses
        v = nxt


def solve_brute(g: ParityGame) -> Solution:
    """Exhaustive enumeration of memoryless strategy pairs."""
    if len(g.nodes) > BRUTE_NODE_LIMIT:
        raise SizeGuardExceeded("brute-force game nodes", len(g.nodes),
                                BRUTE_NODE_LIMIT)
    import itertools

    def strategies(player: str):
        owned = [v for v in g.nodes
                 if g.owner[v] == player and g.successors(v)]
        pools = [tuple(dict.fromkeys(g.successors(v))) for v in owned]
        for pick in itertools.product(*pools):
            yield dict(zip(owned, pick))

    eve_strats = list(strategies(EVE))
    adam_strats = list(strategies(ADAM))

    def eve_wins_with(e: dict) -> set:
        result = set(g.nodes)
        for a in adam_strats:
            choice = {**e, **a}
            result = {v for v in result if _play_winner(g, v, choice) == EVE}
            if not result:
                break
        return result

    win_sets = [eve_wins_with(e) for e in eve_strats]
    win_eve = set().union(*win_sets) if win_sets else set()
    win_adam = set(g.nodes) - win_eve
    strategy_eve = {}
    for e, ws in zip(eve_strats, win_sets):
        if ws == win_eve:
            strategy_eve = {v: w for v, w in e.items() if v in win_eve}
            break

    def adam_wins_with(a: dict) -> set:
        result = set(g.nodes)
        for e in eve_strats:
            choice = {**e, **a}
            result = {v for v in result if _play_winner(g, v, choice) == ADAM}
            if not result:
                break
        return result

    strategy_adam = {}
    for a in adam_strats:
        if adam_wins_with(a) == win_adam:
            strategy_adam = {v: w for v, w in a.items() if v in win_adam}
            break
    return Solution(frozenset(win_eve), frozenset(win_adam),
                    strategy_eve, strategy_adam)


# ---------------------------------------------------------------------------
# Strategy self-check and acceptance

def _sccs(vertices: list, succs) -> list[list]:
    """Tarjan's strongly connected components, iteratively."""
    indexof: dict = {}
    low: dict = {}
    onstack: set = set()
    stack: list = []
    out: list[list] = []
    counter = [0]
    for root in vertices:
        if root in indexof:
            continue
        work = [(root, iter(succs(root)))]
        indexof[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        onstack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for w in it:
                if w not in indexof:
                    indexof[w] = low[w] = counter[0]
                    counter[0] += 1
                    stack.append(w)
                    onstack.add(w)
                    work.append((w, iter(succs(w))))
                    advanced = True
                    break
                if w in onstack:
                    low[v] = min(low[v], indexof[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == indexof[v]:
                comp = []
                while True:
                    w = stack.pop()
                    onstack.discard(w)
                    comp.append(w)
                    if w == v:
                        break
                out.append(comp)
    return out


def check_eve_strategy(g: ParityGame, sol: Solution) -> bool:
    """Every cycle reachable under Eve's strategy inside her region has an
    even maximal priority.  Pure graph traversal, no game semantics."""
    region = sol.win_eve

    def restricted(v):
        if g.owner[v] == EVE:
            w = sol.strategy_eve.get(v)
            return (w,) if w is not None else ()
        return tuple(w for w in g.successors(v) if w in region)

    for v in region:
        if g.owner[v] == ADAM and any(w not in region for w in g.successors(v)):
            return False  # Adam could escape the region
    odd = sorted({g.priority[v] for v in region if g.priority[v] % 2 == 1})
    for p in odd:
        allowed = {v for v in region if g.priority[v] <= p}

        def sub_succ(v):
            return tuple(w for w in restricted(v) if w in allowed)

        for comp in _sccs(sorted(allowed, key=repr), sub_succ):
            comp_set = set(comp)
            cyclic = len(comp) > 1 or any(w in comp_set for v in comp
                                          for w in sub_succ(v))
            if cyclic and any(g.priority[v] == p for v in comp):
                return False
    return True


def accepted_states(h: Hors, m: Apt, limit: int = DEFAULT_ENUM_LIMIT,
                    node_limit: int = DEFAULT_NODE_LIMIT) -> set[str]:
    """States from which the automaton accepts the scheme's value tree."""
    g = build_game(h, m, limit=limit, node_limit=node_limit)
    sol = zielonka(g)
    return {q for q in m.states
            if EveNode(h.start, StateType(q)) in sol.win_eve}


# ---------------------------------------------------------------------------
# DOT emission

def node_label(v: GameNode) -> str:
    if isinstance(v, EveNode):
        return f"{v.nonterminal} : {format_itype(v.ty)}"
    if isinstance(v, AdamNode):
        ass = "; ".join(f"{n}:{format_cset(u)}" for n, u in v.assumption)
        return f"{v.nonterminal} : {format_itype(v.ty)} |- [{ass}]"
    return (f"{format_color(v.color)} * {v.nonterminal} : "
            f"{format_itype(v.ty)}")


def to_dot(g: ParityGame, label=node_label) -> str:
    """Graphviz rendering: Eve nodes are ellipses, Adam nodes boxes; every
    label carries the node's priority."""
    ids = {v: f"n{i}" for i, v in enumerate(g.nodes)}
    lines = ["digraph game {", "  node [fontname=\"monospace\"];"]
    for v in g.nodes:
        shape = "box" if g.owner[v] == ADAM else "ellipse"
        text = f"{label(v)}\\np={g.priority[v]}"
        extra = " penwidth=2" if v == g.initial else ""
        lines.append(f"  {ids[v]} [label=\"{text}\", shape={shape}{extra}];")
    for v in g.nodes:
        for w in g.successors(v):
            lines.append(f"  {ids[v]} -> {ids[w]};")
    lines.append("}")
    return "\n".join(lines) + "\n"
