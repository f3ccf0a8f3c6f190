"""Colored intersection types: the finite interpretation of simple types.

Ground types are automaton states; an arrow type consumes a finite set of
(color, type) pairs.  Everything is kept in a canonical sorted form so that
enumeration order, hashing and printed output are deterministic.

Types and colored sets are interned, as sorts, terms and formulas are, so
identity is equality.  This is how types are represented, not a memo of an
analysis (`typecheck.Analysis`), and types cross analyses: a parsed
witness's, and the `EveNode(h.start, StateType(q))` a caller looks up in a
game, are the objects the game's construction made.
"""

from __future__ import annotations

from .automata import Apt, Color, Profile, color_set, format_color, satisfies
from .syntax import Arrow, Ground, Interned, SimpleType, format_sort


# ---------------------------------------------------------------------------
# Types and colored sets.  Instances are interned (`syntax.Interned`), and
# each computes its order key, `key`, once, when it is made.

class StateType(Interned):
    """Ground intersection type: one automaton state."""

    fields = ("state",)
    __slots__ = fields + ("key",)

    def _facts(self):
        self.key = (0, self.state)


class ArrowType(Interned):
    fields = ("argument", "result")
    __slots__ = fields + ("key",)

    def _facts(self):
        self.key = (1, self.argument.key, self.result.key)


IType = StateType | ArrowType


class ColoredSet(Interned):
    """Canonical finite set of (color, type) pairs of one common sort."""

    fields = ("pairs",)
    __slots__ = fields + ("key",)

    def _facts(self):
        self.key = tuple(map(pair_key, self.pairs))

    def __iter__(self):
        return iter(self.pairs)

    def __contains__(self, pair):
        return pair in self.pairs


def pair_key(pair: tuple[Color, IType]):
    return (pair[0], pair[1].key)


def colored_set(pairs) -> ColoredSet:
    """Canonicalize: sort by (color, structure) and drop duplicates."""
    uniq = sorted(set(pairs), key=pair_key)
    return ColoredSet(tuple(uniq))


EMPTY_SET = ColoredSet(())


def split_chain(t: IType) -> tuple[list[ColoredSet], StateType]:
    """Unroll an arrow chain down to its ground result."""
    sets = []
    while isinstance(t, ArrowType):
        sets.append(t.argument)
        t = t.result
    assert isinstance(t, StateType)
    return sets, t


def format_itype(t: IType) -> str:
    if isinstance(t, StateType):
        return t.state
    return f"{format_cset(t.argument)}->{format_itype(t.result)}"


def format_cset(u: ColoredSet) -> str:
    inner = ",".join(f"{format_color(c)}.{format_itype(t)}" for c, t in u.pairs)
    return "{" + inner + "}"


# ---------------------------------------------------------------------------
# Enumeration with a size guard

class SizeGuardExceeded(Exception):
    """`count` is None when the candidates were not counted past `bound`."""

    def __init__(self, what: str, count: int | None, bound: int):
        counted = ("more candidates than" if count is None
                   else f"{count} candidates exceed")
        super().__init__(f"{what}: {counted} the limit {bound}")
        self.what = what
        self.count = count
        self.bound = bound


DEFAULT_ENUM_LIMIT = 2 ** 20


def count_types(sigma: SimpleType, m: Apt) -> int | None:
    """Cardinality of the type space at a sort, without materializing it.

    Each argument sort contributes 2 ** (colors * its own count) colored
    sets.  The count stops, returning None, at an argument once the count
    so far or the argument sort's count is past `DEFAULT_ENUM_LIMIT`, so no
    count past the limit is raised to a power or multiplied again; a count
    at or below the limit is exact.  Argument sorts are counted from the
    inside out on an explicit stack, so no nesting depth meets Python's
    recursion limit."""
    ncol, n = len(color_set(m)), 1
    # The counts that wait on an argument sort's: the rest of their sort
    # and their count so far, innermost last.
    waiting: list[tuple[SimpleType, int]] = []
    while True:
        while isinstance(sigma, Arrow):
            if n > DEFAULT_ENUM_LIMIT:
                return None
            waiting.append((sigma.codomain, n))
            sigma, n = sigma.domain, 1
        d = n * len(m.states)
        if not waiting:
            return d
        if d > DEFAULT_ENUM_LIMIT:
            return None
        sigma, n = waiting.pop()
        n *= 2 ** (ncol * d)


def enumerate_types(sigma: SimpleType, m: Apt) -> list[IType]:
    """All canonical types of a sort, in a deterministic order.

    Refuses when the space is larger than `DEFAULT_ENUM_LIMIT`, with its
    cardinality when `count_types` computed it.
    """
    n = count_types(sigma, m)
    if n is None or n > DEFAULT_ENUM_LIMIT:
        raise SizeGuardExceeded(f"type space at sort {format_sort(sigma)}",
                                n, DEFAULT_ENUM_LIMIT)
    if isinstance(sigma, Ground):
        return [StateType(q) for q in sorted(m.states)]
    args = enumerate_colored_sets(sigma.domain, m)
    results = enumerate_types(sigma.codomain, m)
    return [ArrowType(u, r) for u in args for r in results]


def enumerate_colored_sets(sigma: SimpleType, m: Apt) -> list[ColoredSet]:
    """All colored sets over the type space at a sort, deterministically."""
    base = enumerate_types(sigma, m)
    cols = color_set(m)
    pairs = sorted(((c, t) for c in cols for t in base), key=pair_key)
    if 2 ** len(pairs) > DEFAULT_ENUM_LIMIT:
        raise SizeGuardExceeded(f"colored sets at sort {format_sort(sigma)}",
                                2 ** len(pairs), DEFAULT_ENUM_LIMIT)
    return [colored_set([p for i, p in enumerate(pairs) if mask >> i & 1])
            for mask in range(2 ** len(pairs))]


# ---------------------------------------------------------------------------
# Subtyping (covariant results, contravariant colored argument sets)

def subtype(a: IType, b: IType) -> bool:
    """a <= b in the preorder: states by equality, arrows contravariantly
    in the argument set and covariantly in the result."""
    if isinstance(a, StateType) and isinstance(b, StateType):
        return a.state == b.state
    if isinstance(a, ArrowType) and isinstance(b, ArrowType):
        return subtype_set(b.argument, a.argument) and subtype(a.result, b.result)
    raise ValueError(f"sort mismatch: {format_itype(a)} vs {format_itype(b)}")


def subtype_set(u: ColoredSet, v: ColoredSet) -> bool:
    """Every (c, a) of u is dominated by some (c, b) of v with the same color."""
    return all(any(c2 == c and subtype(a, b) for c2, b in v) for c, a in u)


# ---------------------------------------------------------------------------
# Terminal types

def profile_of(sets: list[ColoredSet]) -> Profile | None:
    """Per direction, the (color, state) pairs of a terminal's argument
    sets; None when an entry is not ground."""
    profile = []
    for u in sets:
        profile.append(tuple([(c, ty.state) for c, ty in u.pairs
                              if isinstance(ty, StateType)]))
        if len(profile[-1]) < len(u.pairs):
            return None
    return tuple(profile)


def is_terminal_type(a: str, t: IType, m: Apt) -> bool:
    """Membership of an arrow chain in the denotation of a terminal: the
    chain's argument sets form a profile (all entries ground) that satisfies
    the transition formula at the chain's result state."""
    arity = m.terminals[a]
    sets, result = split_chain(t)
    if len(sets) != arity:
        raise ValueError(f"type of {len(sets)} arguments for terminal '{a}' "
                         f"of arity {arity}")
    profile = profile_of(sets)
    return profile is not None and satisfies(profile, result.state, a, m)
