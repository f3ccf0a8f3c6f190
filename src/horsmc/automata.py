"""Alternating parity tree automata over ranked alphabets.

Transitions are positive boolean formulas over (direction, state) atoms;
states carry a priority (color).  Alongside the automaton structure this
module provides disjunctive normal forms and the satisfaction relation
between colored profiles and transition formulas.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .syntax import Interned


# ---------------------------------------------------------------------------
# Colors

# Colors are ints.  The neutral color sits below every natural, so `max`
# joins colors and `sorted` orders them.
EPSILON = -1

Color = int


def format_color(c: Color) -> str:
    return "e" if c == EPSILON else str(c)


# ---------------------------------------------------------------------------
# Transition formulas

class Atom(Interned):
    __slots__ = fields = ("direction", "state")

    def __repr__(self):
        return f"({self.direction},{self.state})"


# A run of one connective is one node; `true` and `false` are the empty
# conjunction and disjunction.
class FAnd(Interned):
    __slots__ = fields = ("parts",)


class FOr(Interned):
    __slots__ = fields = ("parts",)


Formula = Atom | FAnd | FOr

TRUE = FAnd(())
FALSE = FOr(())


def _flat(kind, fs: tuple[Formula, ...]) -> Formula:
    """`kind` over `fs`, whose parts of the same connective are spliced in;
    a single part stands for itself."""
    parts = []
    for f in fs:
        parts.extend(f.parts if isinstance(f, kind) else (f,))
    return parts[0] if len(parts) == 1 else kind(tuple(parts))


def conj(*fs: Formula) -> Formula:
    return _flat(FAnd, fs)


def disj(*fs: Formula) -> Formula:
    return _flat(FOr, fs)


def atoms_of(f: Formula) -> frozenset[tuple[int, str]]:
    atoms, work = set(), [f]
    while work:
        f = work.pop()
        if isinstance(f, Atom):
            atoms.add((f.direction, f.state))
        else:
            work.extend(f.parts)
    return frozenset(atoms)


class Antichain:
    """Sets none of which contains another, each with the value it came with.

    Sets offered in turn, each added unless `has_subset_of` it, leave their
    inclusion-minimal ones, each with the value of its first offer.  A set
    contains an offered set exactly when it contains a stored one, since a
    dropped set contains the set that dropped it.  Each stored non-empty set
    is filed under its element with the shortest bucket, and a query reads
    only the buckets of its own elements: any stored subset is in one.
    """

    def __init__(self):
        self.sets: dict[frozenset, object] = {}
        self.sizes: set[int] = set()  # the sizes of the stored sets
        self.filed: dict[object, list[frozenset]] = {}  # element -> bucket

    def has_subset_of(self, s: frozenset) -> bool:
        """Whether some stored set is a subset of (or equals) `s`."""
        for x in s:
            for k in self.filed.get(x, ()):
                if k <= s:
                    return True
        return 0 in self.sizes  # the empty set, filed nowhere

    def add(self, s: frozenset, value=None) -> None:
        """Store `s`, which contains no stored set, with `value`, and drop
        the stored sets that strictly contain it."""
        if any(r > len(s) for r in self.sizes):
            for k in [k for k in self.sets if s < k]:
                del self.sets[k]
            for bucket in self.filed.values():
                bucket[:] = [k for k in bucket if k in self.sets]
            self.sizes = {len(k) for k in self.sets}
        self.sets[s] = value
        self.sizes.add(len(s))
        for x in s:
            if x not in self.filed:
                self.filed[x] = [s]
                return
        if s:
            min(map(self.filed.__getitem__, s), key=len).append(s)


Clause = frozenset[tuple[int, str]]


def _reduce(clauses) -> frozenset[Clause]:
    """The inclusion-minimal ones among `clauses`."""
    kept = Antichain()
    for c in clauses:
        if not kept.has_subset_of(c):
            kept.add(c)
    return frozenset(kept.sets)


@functools.lru_cache(maxsize=None)
def dnf(f: Formula) -> frozenset[Clause]:
    """Clauses of the disjunctive normal form, antichain-reduced.

    true yields the singleton empty clause, false yields no clause at all.
    A conjunction multiplies in one part at a time and reduces each product.
    One pass on an explicit stack reduces each distinct part once.
    """
    done: dict[Formula, frozenset[Clause]] = {}
    work = [f]
    while work:
        g = work[-1]
        if g in done:
            work.pop()
            continue
        todo = [] if isinstance(g, Atom) else [
            p for p in g.parts if p not in done]
        if todo:
            work.extend(todo)
            continue
        work.pop()
        if isinstance(g, Atom):
            done[g] = frozenset({frozenset({(g.direction, g.state)})})
        elif isinstance(g, FOr):
            done[g] = _reduce(c for part in g.parts for c in done[part])
        else:
            clauses = frozenset({frozenset()})
            for part in g.parts:
                clauses = _reduce(a | b for a in clauses for b in done[part])
            done[g] = clauses
    return done[f]


# ---------------------------------------------------------------------------
# The automaton

class Apt(NamedTuple):
    """Alternating parity tree automaton over the scheme's ranked alphabet.

    `delta` may be sparse: missing entries are read as false.  Immutable by
    construction, so nothing can be cached on an automaton.
    """

    states: tuple[str, ...]
    terminals: dict[str, int]
    delta: dict[tuple[str, str], Formula]
    omega: dict[str, int]
    initial: str

    def delta_of(self, q: str, a: str) -> Formula:
        return self.delta.get((q, a), FALSE)

    def validate(self) -> None:
        if not self.states:
            raise ValueError("automaton has no states")
        if self.initial not in self.states:
            raise ValueError(f"initial state '{self.initial}' not among states")
        for i, q in enumerate(self.states):
            if q in self.states[:i]:
                raise ValueError(f"state '{q}' is listed twice")
            if q not in self.omega:
                raise ValueError(f"state '{q}' has no color")
            if self.omega[q] < 0:
                raise ValueError(f"state '{q}' has the negative color "
                                 f"{self.omega[q]}")
        for q in self.omega:
            if q not in self.states:
                raise ValueError(f"color for unlisted state '{q}'")
        for (q, a), f in self.delta.items():
            if q not in self.states:
                raise ValueError(f"transition for unknown state '{q}'")
            if a not in self.terminals:
                raise ValueError(f"transition for unknown symbol '{a}'")
            for d, q2 in sorted(atoms_of(f)):
                if not 1 <= d <= self.terminals[a]:
                    raise ValueError(
                        f"direction {d} out of range for '{a}' "
                        f"(arity {self.terminals[a]}) in delta({q},{a})")
                if q2 not in self.states:
                    raise ValueError(f"unknown state '{q2}' in delta({q},{a})")


def color_set(m: Apt) -> tuple[Color, ...]:
    """The image of the coloring plus the neutral color, in color order."""
    cols: set[Color] = {EPSILON}
    cols.update(m.omega[q] for q in m.states)
    return tuple(sorted(cols))


# A colored profile for an arity-n symbol: per direction, the (color, state)
# pairs it offers.
Profile = tuple[tuple[tuple[Color, str], ...], ...]


def satisfies(alpha: Profile, q: str, a: str, m: Apt) -> bool:
    """Does the profile satisfy the transition formula for (q, a)?

    True when some clause of the DNF is covered: for each atom (k, q') of
    the clause, the pair (omega(q'), q') occurs in component k.  Components
    may contain extra pairs.
    """
    arity = m.terminals[a]
    if len(alpha) != arity:
        raise ValueError(f"profile has {len(alpha)} components, "
                         f"'{a}' has arity {arity}")
    for clause in dnf(m.delta_of(q, a)):
        if all((m.omega[q2], q2) in alpha[k - 1] for k, q2 in clause):
            return True
    return False
