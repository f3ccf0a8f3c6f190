"""Finite parity game built from typing sequents, and its solver.

The game has three node layers: at an Eve node the prover picks an
assumption map under which the nonterminal's rule body is derivable; at an
Adam node the refuter challenges one assumption; a color node carries the
challenged assumption's color as a priority and hands control back to the
corresponding Eve node.  Infinite plays thus follow infinite branches of a
derivation tree with fixpoint unfoldings, and the parity condition encodes
the winning condition on colors.

A node is one tuple that holds its hash, computed once when the node is
made, and its fields (`_Node`): making it is one allocation, and hashing
it reads the stored value.  `build_game` records the game once, in
positions (`Numbering`): it numbers the nodes as it reaches them and
records each node's successors, owner and priority as it appends it.  A
`ParityGame` derives its node-keyed mappings from the numbering when they
are first read.  An Eve node's moves come from `rule_typings`, which
turns each distinct result of the footprint search into moves once per
analysis.  Each Eve node is expanded once and its maps are distinct, so its
Adam nodes are new: they are appended in one step, without a lookup.  An
Adam node's moves depend on its assumption map alone, and the maps are one
object per distinct map (`typecheck.Analysis`), so the Adam nodes of one
map share one tuple of moves.  Every edge leads to the node object held in
`nodes`, so the game holds one object per node.  Every algorithm
here walks the numbering: `zielonka` solves the game (attractor recursion
under a priority ceiling, escape attractors begun from the smaller side,
memoryless strategies for both players) on an explicit stack, so Python's
recursion limit bounds no game, and records its `Solution` in positions,
from which the node-keyed regions and strategies are derived when first
read; `check_eve_strategy` and `check_adam_strategy` check either player's
strategy by graph traversal alone, sharing nothing with `zielonka`;
`to_dot` prints from positions.
"""

from __future__ import annotations

from functools import cached_property
from itertools import compress, islice
from operator import itemgetter, not_
from typing import NamedTuple

from .automata import Apt, Color, format_color
from .itypes import (IType, SizeGuardExceeded, StateType, format_cset,
                     format_itype)
from .syntax import Hors, require_wellformed
from .typecheck import Analysis, AssumptionMap, Derivation, rule_typings

# The players are numbered as `Numbering.owner` stores them.
EVE, ADAM = 0, 1


class _Node(tuple):
    """A game node is one tuple: its hash, computed once when the node is
    made, then its fields in constructor order.  A field is read through a
    property and cannot be assigned.  Equal nodes are of one class and have
    equal fields; the repr is `Class(field=value, ...)`."""

    __slots__ = ()
    fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        for i, name in enumerate(cls.fields, 1):
            setattr(cls, name, property(itemgetter(i)))
        cls._compared = len(cls.fields) + 1

    def __hash__(self):
        return self[0]

    def __eq__(self, other):
        n = self._compared
        return type(other) is type(self) and self[:n] == other[:n]

    def __ne__(self, other):
        # Not tuple's, which would compare with any tuple.
        return not self == other

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.fields, self[1:]))
        return f"{type(self).__name__}({values})"

    def __getnewargs__(self):
        return self[1:]


class EveNode(_Node):
    __slots__ = ()
    fields = ("nonterminal", "ty")

    def __new__(cls, nonterminal: str, ty: IType):
        return tuple.__new__(cls, (hash((nonterminal, ty)), nonterminal, ty))


class AdamNode(_Node):
    """Eve's move at `nonterminal : ty`: the assumption map, and the rule
    body's derivation under it, which witness extraction reads.  The
    derivation, held after the fields, takes no part in equality, hashing
    or printing."""

    __slots__ = ()
    fields = ("nonterminal", "ty", "assumption")
    derivation = property(itemgetter(4))

    def __new__(cls, nonterminal: str, ty: IType, assumption: AssumptionMap,
                derivation: Derivation | None = None):
        return tuple.__new__(cls, (hash((nonterminal, ty, assumption)),
                                   nonterminal, ty, assumption, derivation))


class ColorNode(_Node):
    __slots__ = ()
    fields = ("color", "nonterminal", "ty")

    def __new__(cls, color: Color, nonterminal: str, ty: IType):
        return tuple.__new__(cls, (hash((color, nonterminal, ty)), color,
                                   nonterminal, ty))


GameNode = EveNode | AdamNode | ColorNode


class Numbering(NamedTuple):
    """A game over the positions of its nodes in `ParityGame.nodes`: each
    node's successor positions, owner (0 Eve, 1 Adam) and priority."""

    succ: list[tuple[int, ...]]
    owner: list[int]
    prio: list[int]


class ParityGame:
    """Max-parity game; dead ends lose for their owner.  `build_game`
    records it once, in positions (`numbering`), and the node-keyed `owner`,
    `priority` and `edges` are derived from those when first read.  A game
    built from its mappings alone records its numbering when first asked
    (`numbered`).  A game is not changed after it is built."""

    def __init__(self, nodes: tuple, owner: dict | None = None,
                 priority: dict | None = None, edges: dict | None = None,
                 initial=None, numbering: Numbering | None = None):
        self.nodes, self.initial, self.numbering = nodes, initial, numbering
        # A mapping given here is kept, in place of its derivation below.
        for name, value in (("owner", owner), ("priority", priority),
                            ("edges", edges)):
            if value is not None:
                setattr(self, name, value)

    @cached_property
    def owner(self) -> dict:
        return dict(zip(self.nodes, self.numbering.owner))

    @cached_property
    def priority(self) -> dict:
        return dict(zip(self.nodes, self.numbering.prio))

    @cached_property
    def edges(self) -> dict:
        """Each node's successor nodes, one tuple per tuple of positions in
        the numbering, so the Adam nodes of one map share their moves."""
        nodes, succ = self.nodes, self.numbering.succ
        moves = {id(ws): tuple(map(nodes.__getitem__, ws)) for ws in succ}
        return {v: moves[id(ws)] for v, ws in zip(nodes, succ)}

    def successors(self, v):
        return self.edges.get(v, ())

    def numbered(self) -> Numbering:
        """The recorded numbering.  A game built from its mappings alone
        records one on the first call, each node's successors in edge order
        without repeats."""
        if self.numbering is None:
            nodes, edges = self.nodes, self.edges.get
            position = dict(zip(nodes, range(len(nodes))))
            succ = [tuple(map(position.__getitem__, edges(v, ())))
                    for v in nodes]
            self.numbering = Numbering(
                [ws if len(ws) < 2 or len(set(ws)) == len(ws)
                 else tuple(dict.fromkeys(ws)) for ws in succ],
                list(map(self.owner.__getitem__, nodes)),
                list(map(self.priority.__getitem__, nodes)))
        return self.numbering


class Solution:
    """Both players' winning regions and memoryless winning strategies.
    `zielonka` records a solution in the game's positions (`recorded`), and
    each node-keyed field is derived from them when first read; a verdict
    reads one region.  `Solution(win_eve, win_adam, strategy_eve,
    strategy_adam)` builds one from the fields."""

    def __init__(self, win_eve, win_adam, strategy_eve, strategy_adam):
        self.win_eve, self.win_adam = win_eve, win_adam
        self.strategy_eve, self.strategy_adam = strategy_eve, strategy_adam

    @classmethod
    def recorded(cls, nodes: tuple, owner: list[int],
                 regions: list[list[int]], strategy: list[int]) -> Solution:
        """Each player's region, indexed by player, and each node's move, as
        positions in `nodes`."""
        sol = cls.__new__(cls)
        sol._positions = nodes, owner, regions, strategy
        return sol

    def __getattr__(self, name):
        # Only a field not yet set comes here; once derived, it is set.
        if name in ("win_eve", "win_adam"):
            nodes, _, regions, _ = self._positions
            value = frozenset(map(nodes.__getitem__,
                                  regions[name == "win_adam"]))
        elif name in ("strategy_eve", "strategy_adam"):
            nodes, owner, regions, strategy = self._positions
            x = int(name == "strategy_adam")
            value = {nodes[v]: nodes[strategy[v]] for v in regions[x]
                     if owner[v] == x}
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value


DEFAULT_NODE_LIMIT = 200_000


def node_priority(v: GameNode) -> int:
    """Color nodes carry the shifted color; everything else is 1.

    The shift c -> c + 2, which takes the neutral color -1 to 1, preserves
    parity and strict order, so a branch whose maximal recurring color is
    even becomes a play whose maximal recurring priority is even; cycles
    seeing only neutral colors get odd maximum 1 and lose.
    """
    if isinstance(v, ColorNode):
        return v.color + 2
    return 1


def build_game(h: Hors, m: Apt, states=None) -> ParityGame:
    """Reachable sequent game seeded at the start symbol in the given states
    (all automaton states by default), of at most `DEFAULT_NODE_LIMIT`
    nodes."""
    require_wellformed(h)
    m.validate()
    if states is None:
        states = sorted(m.states)
    seeds = [EveNode(h.start, StateType(q)) for q in states]

    nodes: list[GameNode] = []
    index: dict = {}  # node -> its position in `nodes`
    succ, owner, prio = numbering = Numbering([], [], [])
    analysis = Analysis(h, m)  # shared by all Eve nodes, dropped on return
    # An Adam node's moves depend on its map alone, so each map's color
    # nodes are pushed, and their tuple of positions made, once.
    moves: dict[AssumptionMap, tuple[int, ...]] = {}

    def refuse(v: GameNode, i: int):
        raise SizeGuardExceeded(
            f"game nodes (refused {type(v).__name__} {v.nonterminal} : "
            f"{format_itype(v.ty)})", i + 1, DEFAULT_NODE_LIMIT)

    def push(v: EveNode | ColorNode) -> int:
        i = index.get(v)
        if i is not None:
            return i
        i = len(nodes)
        if i >= DEFAULT_NODE_LIMIT:
            refuse(v, i)
        index[v] = i
        nodes.append(v)
        owner.append(EVE)
        prio.append(node_priority(v))
        return i

    for s in seeds:
        push(s)
    # `push` appends to `nodes` as the loop walks it, so nodes are expanded
    # in the order they are numbered, and succ[k] belongs to nodes[k].
    for v in nodes:
        if isinstance(v, AdamNode):
            ws = moves.get(v.assumption)
            if ws is None:
                ws = moves[v.assumption] = tuple([
                    push(ColorNode(c, name, ty)) for name, u in v.assumption
                    for c, ty in u.pairs])
        elif isinstance(v, EveNode):
            # Each Eve node is expanded once and its maps are distinct, so
            # its Adam nodes are new: they are appended without a lookup.
            succs = [AdamNode(v.nonterminal, v.ty, delta, d)
                     for delta, d in rule_typings(analysis, v.nonterminal,
                                                  v.ty)]
            i = len(nodes)
            if i + len(succs) > DEFAULT_NODE_LIMIT:
                refuse(succs[DEFAULT_NODE_LIMIT - i], DEFAULT_NODE_LIMIT)
            nodes.extend(succs)
            owner.extend([ADAM] * len(succs))
            prio.extend([1] * len(succs))  # node_priority of an Adam node
            ws = tuple(range(i, len(nodes)))
        else:
            ws = (push(EveNode(v.nonterminal, v.ty)),)
        succ.append(ws)

    return ParityGame(tuple(nodes), initial=seeds[0] if seeds else None,
                      numbering=numbering)


# ---------------------------------------------------------------------------
# Zielonka's algorithm with strategy extraction

def zielonka(g: ParityGame) -> Solution:
    """Winning regions and memoryless winning strategies of both players.

    It reads the game's `numbered()` form, which numbers each node by its
    position in `g.nodes`: `build_game` recorded it, and a game built from
    its mappings alone records it on its first call.  A subgame is a
    `bytearray` mask over those numbers, solved below a ceiling: the index,
    among the distinct priorities sorted once from the highest down, of the
    highest priority it can hold.  Each tie is broken by the least number:
    attractors start from their seeds in that order and search predecessors
    in that order, and a top-priority node of the player with no move yet
    takes its least successor in the subgame.  An escape attractor whose
    seeds outnumber the rest of the subgame reads that rest's successors
    for its first round instead, and orders the nodes that join there as
    the search from the seeds does (`attract`).  The second recursive call
    of the algorithm is a loop and the first one runs on an explicit stack,
    so no game is too deep for Python's recursion limit.
    """
    nodes = g.nodes
    n = len(nodes)
    # Players are 0 (Eve) and 1 (Adam), so priority p favours player p & 1.
    succ, owner, prio = g.numbered()
    pred: list[list[int]] = [[] for _ in nodes]
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    by_prio: dict[int, list[int]] = {}
    for v, p in enumerate(prio):
        by_prio.setdefault(p, []).append(v)
    levels = [by_prio[p] for p in sorted(by_prio, reverse=True)]
    strategy = [-1] * n

    def attract(active: bytearray, player: int, seeds: list[int],
                keep: list[int] | None = None, mask: bytearray | None = None):
        """The player's attractor to `seeds` inside `active`, in the order
        nodes join it, and `active` without it; writes the player's moves.
        Callers pass every opponent dead end of `active` as a seed, so the
        search from the seeds reaches the whole attractor, and it counts a
        node's successors when it first reaches the node.  Given `keep`,
        the rest of `active`, and a spare `mask` marking the seeds and
        maybe some of `keep` (it clears them), it reads the first round
        from `keep` if the seeds are more: a player node joins at its
        least seed, its move, and an opponent node with only seeds left at
        its greatest, in the order (seed, node) that the search gives."""
        count: dict[int, int] = {}
        if keep is None or len(keep) >= len(seeds):
            keep = None
            rest = bytearray(active)
            for v in seeds:
                rest[v] = 0
            region = list(seeds)
        else:
            for v in keep:
                mask[v] = 0
            rest = bytearray(n)
            joined = []
            for v in keep:
                ws = succ[v]
                hits = list(compress(ws, map(mask.__getitem__, ws)))
                c = sum(map(active.__getitem__, ws)) - len(hits)
                if hits and owner[v] == player:
                    strategy[v] = u = min(hits)
                elif hits and not c:
                    u = max(hits)
                else:
                    count[v] = c
                    rest[v] = 1
                    continue
                joined.append((u, v))
            joined.sort()
            region = seeds + [v for _, v in joined]
        for u in islice(region, 0 if keep is None else len(seeds), None):
            for v in pred[u]:
                if not rest[v]:
                    continue
                if owner[v] == player:
                    strategy[v] = u
                else:
                    c = count.get(v)
                    if c is None:
                        c = sum(map(active.__getitem__, succ[v]))
                    c -= 1
                    if c:
                        count[v] = c
                        continue
                rest[v] = 0
                region.append(v)
        return region, rest

    def solve(active: bytearray, top: int):
        """The regions of both players in the total subgame `active`, none
        of whose priorities lies above `levels[top]`.  A generator: it
        yields each subgame it needs decided, with its ceiling, and is sent
        back that subgame's regions."""
        won: tuple[list[int], list[int]] = ([], [])
        while 1 in active:
            level = levels[top]
            seeds = list(compress(level, map(active.__getitem__, level)))
            if not seeds:
                top += 1
                continue
            player = prio[seeds[0]] & 1
            region, rest = attract(active, player, seeds)
            # Every active node of the top priority is a seed.
            sub = yield rest, top + 1
            lost = sub[1 - player]
            if not lost:
                won[player].extend(region)
                won[player].extend(sub[player])
                for v in seeds:
                    if owner[v] == player:
                        strategy[v] = min(w for w in succ[v] if active[w])
                return won
            # The child left its subgame `rest` as it was: a spare mask.
            escape, active = attract(active, 1 - player, sorted(lost),
                                     region + sub[player], rest)
            won[1 - player].extend(escape)
        return won

    # Dead ends lose for their owner.  Outside a player's attractor, the
    # player's nodes keep every successor and the opponent's keep one, so
    # after Eve's attractor to Adam's dead ends the Eve dead ends left are
    # the game's own, and after Adam's attractor to those no dead end is
    # left: every subgame `solve` sees is total.
    dead = list(compress(range(n), map(not_, succ)))
    active = bytearray(b"\x01") * n
    dead_won = []
    for player in (0, 1):
        region, active = attract(
            active, player, [v for v in dead if owner[v] != player])
        dead_won.append(region)
    stack = [solve(active, 0)]
    won = None
    while stack:
        try:
            sub = stack[-1].send(won)
        except StopIteration as finished:
            stack.pop()
            won = finished.value
        else:
            stack.append(solve(*sub))
            won = None

    return Solution.recorded(nodes, owner, [dead_won[0] + won[0],
                                            dead_won[1] + won[1]], strategy)


# ---------------------------------------------------------------------------
# Strategy self-check and acceptance

def _region_won(g: ParityGame, region, strategy: dict, player: int) -> bool:
    """`strategy` wins every play from `region` for `player`: each of the
    player's nodes there moves along one of its edges and stays inside, the
    opponent cannot leave, and every cycle the strategy allows has a maximal
    priority of the player's parity.  Pure graph traversal over the game's
    numbering, no game semantics.  Priority p favours player p & 1."""
    succ, owner, prio = g.numbered()
    n = len(succ)
    position = dict(zip(g.nodes, range(n)))
    inside = bytearray(n)
    for v in region:
        inside[position[v]] = 1
    moves: dict[int, tuple[int, ...]] = {}
    for v in region:
        i = position[v]
        ws = succ[i]
        if owner[i] == player:
            ws = (position.get(strategy.get(v)),)
            if ws[0] not in succ[i] or not inside[ws[0]]:
                return False
        elif not all(map(inside.__getitem__, ws)):
            return False
        moves[i] = ws
    # Every cycle lies in one strongly connected component (Tarjan's, on an
    # explicit stack).  When a component's top priority favours the player,
    # a losing cycle avoids the top nodes, so the rest of the component is
    # searched again as a part of its own; otherwise a cycle through a top
    # node loses.  A node's index is -1 while its part is searched and
    # unvisited, its place on `stack` while there, and n otherwise.
    index = [n] * n
    low = [0] * n
    parts = [list(moves)]
    while parts:
        part = parts.pop()
        for v in part:
            index[v] = -1
        stack: list[int] = []
        for root in part:
            work = [(root, None)] if index[root] < 0 else []
            while work:
                v, it = work.pop()
                if it is None:
                    index[v] = low[v] = len(stack)
                    stack.append(v)
                    it = iter(moves[v])
                for w in it:
                    if index[w] < 0:
                        work += [(v, it), (w, None)]
                        break
                    if index[w] < low[v]:
                        low[v] = index[w]
                else:
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] < index[v]:
                        continue
                    comp = stack[index[v]:]
                    del stack[index[v]:]
                    for w in comp:
                        index[w] = n
                    top = max(map(prio.__getitem__, comp))
                    if top % 2 != player and (len(comp) > 1 or v in moves[v]):
                        return False
                    parts.append([w for w in comp if prio[w] != top])
    return True


def check_eve_strategy(g: ParityGame, sol: Solution) -> bool:
    """Eve's strategy wins every play from her region."""
    return _region_won(g, sol.win_eve, sol.strategy_eve, EVE)


def check_adam_strategy(g: ParityGame, sol: Solution) -> bool:
    """Adam's strategy wins every play from his region."""
    return _region_won(g, sol.win_adam, sol.strategy_adam, ADAM)


def accepted_states(h: Hors, m: Apt) -> set[str]:
    """States from which the automaton accepts the scheme's value tree."""
    sol = zielonka(build_game(h, m))
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


def to_dot(g: ParityGame) -> str:
    """Graphviz rendering: Eve nodes are ellipses, Adam nodes boxes; every
    label carries the node's priority."""
    succ, owner, prio = g.numbered()
    lines = ["digraph game {", "  node [fontname=\"monospace\"];"]
    for i, v in enumerate(g.nodes):
        shape = "box" if owner[i] == ADAM else "ellipse"
        text = f"{node_label(v)}\\np={prio[i]}"
        extra = " penwidth=2" if v == g.initial else ""
        lines.append(f"  n{i} [label=\"{text}\", shape={shape}{extra}];")
    for i, ws in enumerate(succ):
        lines.extend(f"  n{i} -> n{j};" for j in ws)
    lines.append("}")
    return "\n".join(lines) + "\n"
