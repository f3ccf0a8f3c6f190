#!/usr/bin/env python3
"""Deciding acceptance by solving a finite parity game over typing sequents.

Whether the automaton accepts the scheme's tree from a state reduces to a
finite max-parity game: the prover picks, at each nonterminal-and-type
sequent, an assumption map under which the rule body types; the refuter
challenges one assumption; the challenged assumption's color becomes a
priority on the way back to the next sequent.  The prover wins an infinite
play exactly when the maximal recurring priority is even.
"""

from horsmc import (EveNode, StateType, accepted_states, build_game,
                    check_eve_strategy, to_dot, zielonka)
from horsmc.formats import parse_apt, parse_hors
from horsmc.oracles import solve_brute

SCHEME = """\
terminals:
  if : 2
  data : 1
  Nil : 0
nonterminals:
  S : o
  L : o -> o
start: S
rules:
  S = L Nil
  L x = if x (L (data x))
"""

APT = """\
states: q0 q1
initial: q0
colors:
  q0 -> 0, q1 -> 0
delta:
  q0 if -> (2,q0) /\\ (2,q1)
  q1 if -> (1,q1) /\\ (2,q0)
  q1 data -> (1,q1)
  q0 Nil -> true
  q1 Nil -> true
"""

h = parse_hors(SCHEME)
m = parse_apt(APT, terminals=h.terminals)

game = build_game(h, m)
solution = zielonka(game)
print(f"game over typing sequents: {len(game.nodes)} nodes")
print("accepted states:", sorted(accepted_states(h, m)))
assert EveNode("S", StateType("q0")) in solution.win_eve
assert check_eve_strategy(game, solution)
print("the prover's strategy passes the even-cycle self-check")

# Parity sensitivity on the simplest possible loop: S = F, F = a F.  The
# unique branch repeats one color forever, so acceptance flips with the
# parity of that color.
LOOP = """\
terminals:
  a : 1
nonterminals:
  S : o
  F : o
start: S
rules:
  S = F
  F = a F
"""

for color in (1, 2):
    loop = parse_hors(LOOP)
    loop_apt = parse_apt(
        f"states: q\ninitial: q\ncolors:\n  q -> {color}\n"
        "delta:\n  q a -> (1,q)\n", terminals=loop.terminals)
    g = build_game(loop, loop_apt)
    verdict = "ACCEPT" if accepted_states(loop, loop_apt) else "REJECT"
    brute = solve_brute(g)
    agreed = zielonka(g).win_eve == brute.win_eve
    print(f"color {color}: {verdict}  (priorities "
          f"{sorted(set(g.priority.values()))}; brute force agrees: {agreed})")

# The arena can be rendered with graphviz: Eve's nodes are ellipses,
# Adam's are boxes, and every label shows its priority.
dot = to_dot(build_game(h, m, states=["q0"]))
print("\nfirst lines of the DOT rendering:")
print("\n".join(dot.splitlines()[:6]))
print(f"... ({len(dot.splitlines())} lines total; try `horsmc dump-game`)")
