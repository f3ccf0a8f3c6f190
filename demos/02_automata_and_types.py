#!/usr/bin/env python3
"""Alternating parity automata and the colored type space they induce.

An alternating parity tree automaton walks a ranked tree top-down; its
transition formulas can send several states into one subtree (duplication)
or none (erasure), and each state carries a color.  The finite model behind
the checker interprets every simple sort as a finite preorder built from
states and colored sets; this script pokes at both layers.
"""

from horsmc import (EPSILON, color_set, colored_set, dnf, enumerate_types,
                    format_itype, is_terminal_type, satisfies, subtype,
                    unfold, ArrowType, StateType, GROUND, Arrow)
from horsmc.formats import parse_apt, parse_hors
from horsmc.oracles import box_color, run_search

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

h = parse_hors(SCHEME)
m = parse_apt(APT, terminals=h.terminals)
m.validate()

# Transition formulas are positive boolean formulas over (direction, state)
# atoms; acceptance picks one clause of the disjunctive normal form.
for q, a in (("q0", "if"), ("q1", "if")):
    print(f"clauses of delta({q}, {a}):",
          sorted(sorted(c) for c in dnf(m.delta_of(q, a))))
print("missing transitions read as false:",
      sorted(dnf(m.delta_of("q0", "data"))))

# A colored profile assigns each child a set of (color, state) pairs.  It
# satisfies delta(q, a) when some clause is covered with the right colors.
alpha = (frozenset(), frozenset({(0, "q0"), (0, "q1")}))
print("\nprofile ( {}, {(0,q0),(0,q1)} ) satisfies delta(q0, if)?",
      satisfies(alpha, "q0", "if", m))
print("the empty profile satisfies it?",
      satisfies((frozenset(), frozenset()), "q0", "if", m))

# The finite-prefix run search is a cheap acceptance oracle: with all
# colors even every infinite run is accepting, so per-depth answers are
# definitive for this automaton.
for depth in (2, 4, 8):
    print(f"run search over the depth-{depth} prefix from q0:",
          run_search(m, unfold(h, depth), "q0"))

# The type side: ground types are the automaton's states, and an arrow
# consumes a finite set of (color, type) pairs.  The space at each sort is
# finite; colors are the automaton's colors plus a neutral one.
print("\ncolors:", color_set(m))
print("types at sort o:", [format_itype(t) for t in enumerate_types(GROUND, m)])
oo_types = enumerate_types(Arrow(GROUND, GROUND), m)
print(f"types at sort o -> o: {len(oo_types)} of them, e.g.",
      ", ".join(format_itype(t) for t in oo_types[:4]), "...")

# Subtyping is contravariant in the argument set: a function typed with a
# larger input set is usable where a smaller one is expected.
q0, q1 = StateType("q0"), StateType("q1")
small = colored_set([(0, q1)])
large = colored_set([(0, q1), (EPSILON, q0)])
print("\n{large}->q0 <= {small}->q0:",
      subtype(ArrowType(large, q0), ArrowType(small, q0)))
print("{small}->q0 <= {large}->q0:",
      subtype(ArrowType(small, q0), ArrowType(large, q0)))

# The context coloring raises colors pointwise; the neutral color is the
# unit, and composing two colorings keeps only the maximum.
u = colored_set([(EPSILON, q0), (0, q1)])
print("\nbox_0 of", format_itype(ArrowType(u, q0)).split("->")[0],
      "=", format_itype(ArrowType(box_color(0, u), q0)).split("->")[0])

# Terminal symbols inhabit exactly the arrow chains whose profile satisfies
# their transition: the denotation is never materialized, membership is
# checked on demand.
t_if = ArrowType(colored_set([]), ArrowType(colored_set([(0, q0), (0, q1)]), q0))
print("\nif inhabits", format_itype(t_if), ":", is_terminal_type("if", t_if, m))
