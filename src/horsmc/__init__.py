"""Model checking of higher-order recursion schemes against alternating
parity tree automata, through a finite game over colored intersection-type
sequents, with extraction of schemes generating accepting run-trees."""

from .automata import (Apt, Atom, Clause, EPSILON, FALSE, Formula, Profile,
                       TRUE, FAnd, FOr, atoms_of, color_set, conj, disj, dnf,
                       format_color, satisfies)
from .formats import AnnotatedHors
from .game import (ADAM, AdamNode, ColorNode, EVE, EveNode, GameNode,
                   ParityGame, Solution, accepted_states, build_game,
                   check_adam_strategy, check_eve_strategy, to_dot, zielonka)
from .itypes import (ArrowType, ColoredSet, IType, SizeGuardExceeded,
                     StateType, colored_set, count_types,
                     enumerate_colored_sets, enumerate_types, format_itype,
                     is_terminal_type, subtype, subtype_set)
from .selection import (RunReport, extract_scheme, format_report,
                        verify_runtree)
from .syntax import (App, Arrow, BOTTOM, GROUND, Ground, Hors,
                     IllFormedScheme, NonTerminal, Rule, SimpleType, Term,
                     Terminal, TreePrefix, UnresolvedWithinBudget, Var, apply,
                     arrow, check_wellformed, format_sort, format_term,
                     format_tree, unfold)
from .typecheck import Analysis, Derivation, TypeEnv, rule_typings
