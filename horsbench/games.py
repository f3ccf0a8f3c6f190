"""Synthetic parity games for the `solver` workload, built from the
program's own node classes.

A shaped game resamples the sequent game of `order2_unary`, the largest
game the program decides today: 11,023 nodes (261 Eve, 10,242 Adam, 520
color) and 22,026 edges.  Its scheme is `S = A I; A f = b (f c) (A f);
I x = d x`, and its Eve nodes play three roles:

- the root (S) offers one map per core node; each challenges that core
  node's neutral color node and zero to eight leaf color nodes;
- core nodes (A, 256) offer 0 to 256 maps; each map challenges one
  colored core node, some far more often than others, with no locality;
- leaves (I, 4) are dead ends or offer one empty map.

Every Eve node but the root is the target of two color nodes, a neutral one
and one with the automaton color.  The histograms below were measured on
that game; `python3 horsbench/calibrate.py` measures them again and
compares a shaped game of the same size.  The corpus games are too small to
shape anything (at most 27 nodes).
"""

from __future__ import annotations

import itertools
import random

from horsmc import game
from horsmc.automata import EPSILON
from horsmc.itypes import StateType

# Core Eve nodes by the number of maps they offer; 0 is a dead end.
CORE_DEGREE = {0: 16, 4: 64, 16: 96, 64: 64, 256: 16}
# Colored core nodes by the number of core maps that challenge them.
CORE_POPULARITY = {16: 81, 32: 108, 64: 54, 128: 12, 240: 1}
# Root maps by the number of leaf color nodes they challenge.
ROOT_LEAF_CHALLENGES = {0: 1, 1: 8, 2: 28, 3: 56, 4: 70, 5: 56, 6: 28,
                        7: 8, 8: 1}
# Leaves by the number of maps they offer; a leaf's one map is empty.
LEAF_DEGREE = {0: 2, 1: 2}
LEAVES = 4
# The colored nodes' color.  The real game uses one color throughout (0 in
# order2_unary, 1 in its twin, both from one-state automata); a shaped game
# mixes both, as automata with more states do, so that both players win a
# share of the nodes.
COLORS = {0: 1, 1: 1}


def quota(rng: random.Random, hist: dict, n: int) -> list:
    """n values in the proportions of `hist` (largest remainders), in
    seeded order, so that games of one size differ in layout, not in
    their degree counts."""
    total = sum(hist.values())
    exact = {k: n * c / total for k, c in hist.items()}
    counts = {k: int(x) for k, x in exact.items()}
    for k in sorted(exact, key=lambda k: counts[k] - exact[k])[
            :n - sum(counts.values())]:
        counts[k] += 1
    out = [k for k, c in counts.items() for _ in range(c)]
    rng.shuffle(out)
    return out


def shaped_game(seed: int, n_core: int) -> game.ParityGame:
    """Root, `n_core` core nodes and the leaves, in the proportions of the
    `order2_unary` sequent game (which has 256 core nodes)."""
    rng = random.Random(seed)
    ty = StateType("q")
    nodes: list = []
    owner: dict = {}
    priority: dict = {}
    edges: dict = {}

    def add(v, who):
        nodes.append(v)
        owner[v] = who
        priority[v] = game.node_priority(v)
        return v

    def eve_node(name):
        v = add(game.EveNode(name, ty), game.EVE)
        colors = []
        for c in (EPSILON, next(color)):
            colors.append(add(game.ColorNode(c, name, ty), game.EVE))
            edges[colors[-1]] = (v,)
        return v, colors

    def offer(v, challenges):
        maps = []
        for j, cs in enumerate(challenges):
            maps.append(add(game.AdamNode(v.nonterminal, ty, (j,)),
                            game.ADAM))
            edges[maps[-1]] = tuple(cs)
        edges[v] = tuple(maps)

    color = iter(quota(rng, COLORS, n_core + LEAVES))
    root = add(game.EveNode("S", ty), game.EVE)
    core = [eve_node(f"A{i}") for i in range(n_core)]
    leaves = [eve_node(f"I{i}") for i in range(LEAVES)]
    leaf_colors = [c for _, cs in leaves for c in cs]
    offer(root, [[neutral, *rng.sample(leaf_colors, k)]
                 for (_, (neutral, _)), k in zip(
                     core, quota(rng, ROOT_LEAF_CHALLENGES, n_core))])
    colored = [cs[1] for _, cs in core]
    cum = list(itertools.accumulate(quota(rng, CORE_POPULARITY, n_core)))
    for (v, _), k in zip(core, quota(rng, CORE_DEGREE, n_core)):
        offer(v, [[c] for c in rng.choices(colored, cum_weights=cum, k=k)])
    for (v, _), k in zip(leaves, quota(rng, LEAF_DEGREE, LEAVES)):
        offer(v, [[]] * k)
    return game.ParityGame(tuple(nodes), owner, priority, edges, root)


def ladder(n: int) -> game.ParityGame:
    """Node i has priority i, a self-loop and an edge to i - 1, and belongs
    to the player priority i hurts.  Eve wins everywhere; Zielonka recurses
    once per node."""
    nodes = tuple(range(n))
    owner = {i: game.EVE if i % 2 else game.ADAM for i in nodes}
    priority = {i: i for i in nodes}
    edges = {i: (i, i - 1) if i else (i,) for i in nodes}
    return game.ParityGame(nodes, owner, priority, edges, n - 1)
