#!/usr/bin/env python3
"""Recursion schemes and their value trees.

A higher-order recursion scheme is a finite set of simply-typed rewrite
rules, one per nonterminal.  Rewriting the start symbol forever produces a
(usually infinite) ranked tree.  This script builds the classic
listening-loop scheme, looks at finite prefixes of its tree, and round-trips
the scheme through the lambda-calculus-with-fixpoints presentation.
"""

from horsmc import check_wellformed, format_tree, unfold
from horsmc.formats import parse_hors, print_hors
from horsmc.oracles import bohm_tree, format_ly, from_lambda_y, to_lambda_y

SCHEME = """\
# Main calls Listen on an empty stack; Listen either stops reading
# (left branch) or pushes one more element and loops.
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
print("The scheme, re-printed from its parsed form:\n")
print(print_hors(h))
print("well-formedness diagnostics:", check_wellformed(h) or "none")

# The value tree is infinite and not regular: each `if` carries one more
# `data` than the one above it.  unfold() gives a finite prefix, with _|_
# marking the cut.
for depth in (1, 2, 3, 4):
    print(f"\nprefix at depth {depth}:")
    print(" ", format_tree(unfold(h, depth)))

# Every scheme is a closed lambda-term with fixpoints, and vice versa.
term = to_lambda_y(h)
print("\nas a lambda-Y term:")
print(" ", format_ly(term))

# Head reduction of that term grows the same tree...
assert format_tree(bohm_tree(term, 5, h.terminals)) == \
    format_tree(unfold(h, 5))
print("\nBoehm tree of the term agrees with the scheme's tree to depth 5.")

# ...and lambda-lifting turns the term back into a scheme with the same
# tree (nonterminal names are fresh, so compare behavior, not syntax).
h2 = from_lambda_y(term)
assert format_tree(unfold(h2, 6)) == format_tree(unfold(h, 6))
print("lambda-lifting the term back gives a scheme with the same tree:")
print()
print(print_hors(h2))
