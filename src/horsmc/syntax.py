"""Simple types, applicative terms, recursion schemes and finite tree unfolding.

A scheme is a finite family of simply-typed rewrite rules, one per
nonterminal, generating a possibly infinite ranked tree by repeated
outermost rewriting from the start symbol.  Terms are applicative; the
lambda-Y terms, with abstractions and fixpoints, are built in `oracles`.
"""

from __future__ import annotations

from typing import NamedTuple


# ---------------------------------------------------------------------------
# Interned values

class Interned:
    """A value made once: a subclass called with the fields of an existing
    instance returns that instance, so equality is identity and hashing
    takes constant time at any depth.  A subclass names its fields, in
    constructor order, in `fields`, and lists them in `__slots__` with the
    values that `_facts` derives once when a value is made.  Each subclass
    has its own table; values are not changed once made."""

    __slots__ = ()
    fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._table = {}

    def __new__(cls, *values):
        v = cls._table.get(values)
        if v is None:
            v = object.__new__(cls)
            for name, x in zip(cls.fields, values):
                setattr(v, name, x)
            v._facts()
            # setdefault, so that threads racing on one value keep one.
            v = cls._table.setdefault(values, v)
        return v

    def _facts(self) -> None:
        pass

    def __repr__(self):
        values = ", ".join(map(repr, self.__reduce__()[1]))
        return f"{type(self).__name__}({values})"

    def __reduce__(self):
        return (type(self), tuple(getattr(self, n) for n in self.fields))


# ---------------------------------------------------------------------------
# Simple types (sorts)

class Ground(Interned):
    __slots__ = ()

    def __repr__(self):
        return "o"


class Arrow(Interned):
    __slots__ = fields = ("domain", "codomain")

    def __repr__(self):
        return f"({self.domain!r} -> {self.codomain!r})"


SimpleType = Ground | Arrow

GROUND = Ground()


def arrow(*sorts: SimpleType) -> SimpleType:
    """Right-associated arrow over the given sorts."""
    result = sorts[-1]
    for s in reversed(sorts[:-1]):
        result = Arrow(s, result)
    return result


def ground_sort(arity: int) -> SimpleType:
    """o -> ... -> o with `arity` arrows: the sort of an arity-n terminal."""
    s: SimpleType = GROUND
    for _ in range(arity):
        s = Arrow(GROUND, s)
    return s


def format_sort(sort: SimpleType) -> str:
    """Arrow domains are parenthesised.  The walk keeps its own stack of
    sorts and text, so no depth meets the recursion limit."""
    out: list[str] = []
    work: list[SimpleType | str] = [sort]
    while work:
        sort = work.pop()
        if isinstance(sort, str):
            out.append(sort)
        elif isinstance(sort, Arrow):
            work += [sort.codomain, " -> "]
            if isinstance(sort.domain, Arrow):
                work += [")", sort.domain, "("]
            else:
                work.append(sort.domain)
        else:
            out.append("o")
    return "".join(out)


# ---------------------------------------------------------------------------
# Terms

class Var(Interned):
    fields = ("name",)
    __slots__ = fields + ("free",)

    def _facts(self):
        self.free = (self.name,)


class Terminal(Interned):
    __slots__ = fields = ("symbol",)
    free = ()


class NonTerminal(Interned):
    __slots__ = fields = ("name",)
    free = ()


class App(Interned):
    """`free`: the free variables in name order; `head`: the spine's head.
    A non-term argument counts as closed, so `check_wellformed` reports it."""

    fields = ("function", "argument")
    __slots__ = fields + ("free", "head")

    def _facts(self):
        fn = self.function
        self.head = fn.head if isinstance(fn, App) else fn
        f, a = getattr(fn, "free", ()), getattr(self.argument, "free", ())
        self.free = f if a == f or not a else tuple(sorted({*f, *a}))


Term = Var | Terminal | NonTerminal | App


def apply(fn: Term, *args: Term) -> Term:
    for a in args:
        fn = App(fn, a)
    return fn


def spine(t: Term) -> tuple[Term, list[Term]]:
    """Split into head and argument list: h t1 ... tn."""
    args: list[Term] = []
    while isinstance(t, App):
        args.append(t.argument)
        t = t.function
    args.reverse()
    return t, args


def fresh_name(base: str, taken: set[str]) -> str:
    if base not in taken:
        taken.add(base)
        return base
    i = 0
    while f"{base}_{i}" in taken:
        i += 1
    name = f"{base}_{i}"
    taken.add(name)
    return name


def format_term(t: Term) -> str:
    """Arguments that are applications are parenthesised.  The walk keeps
    its own stack of terms and text, so no depth meets the recursion limit."""
    out: list[str] = []
    work: list[Term | str] = [t]
    while work:
        t = work.pop()
        if isinstance(t, str):
            out.append(t)
        elif isinstance(t, App):
            head, args = spine(t)
            for a in reversed(args):
                work += [")", a, " ("] if isinstance(a, App) else [a, " "]
            work.append(head)
        else:
            out.append(t.symbol if isinstance(t, Terminal) else t.name)
    return "".join(out)


# ---------------------------------------------------------------------------
# Sort checking

class SortError(Exception):
    pass


def infer_sort(t: Term, var_sorts: dict[str, SimpleType],
               nonterminal_sorts: dict[str, SimpleType],
               terminal_arities: dict[str, int]) -> SimpleType:
    """Sort of a term whose terminal sorts are fixed by their arities.

    The walk keeps its own stack of open spines, so neither depth nor width
    meets Python's recursion limit.  A spine's head is sorted first, then
    each argument in turn, before the application it completes is checked,
    so the first error met is the one a left-to-right recursion meets."""
    # Each open spine: its applications still to check, the innermost last,
    # and the sort of its part checked so far.
    spines: list[tuple[list[App], SimpleType]] = []
    while True:
        apps = []
        while isinstance(t, App):
            apps.append(t)
            t = t.function
        if isinstance(t, Var):
            sort = var_sorts.get(t.name)
            if sort is None:
                raise SortError(f"unbound variable '{t.name}'")
        elif isinstance(t, Terminal):
            if t.symbol not in terminal_arities:
                raise SortError(f"unknown terminal '{t.symbol}'")
            sort = ground_sort(terminal_arities[t.symbol])
        elif isinstance(t, NonTerminal):
            sort = nonterminal_sorts.get(t.name)
            if sort is None:
                raise SortError(f"unknown nonterminal '{t.name}'")
        else:
            raise SortError(f"body not abstraction-free: {t!r} is not an "
                            "applicative term")
        while not apps:
            # `sort` is the sort of an argument: check the application it
            # completes, and go on along that application's spine.
            if not spines:
                return sort
            apps, fn = spines.pop()
            t = apps.pop()
            if not isinstance(fn, Arrow):
                raise SortError(
                    f"applied term of ground sort: {format_term(t)}")
            if fn.domain != sort:
                raise SortError(
                    f"argument sort mismatch in {format_term(t)}: expected "
                    f"{format_sort(fn.domain)}, got {format_sort(sort)}")
            sort = fn.codomain
        spines.append((apps, sort))
        t = apps[-1].argument


# ---------------------------------------------------------------------------
# Recursion schemes

class Rule(NamedTuple):
    binders: tuple[tuple[str, SimpleType], ...]
    body: Term


class Hors(NamedTuple):
    """A higher-order recursion scheme: one rule per nonterminal.

    Immutable by construction, so nothing can be cached on a scheme.
    """

    terminals: dict[str, int]
    nonterminals: dict[str, SimpleType]
    rules: dict[str, Rule]
    start: str


def check_wellformed(h: Hors) -> list[str]:
    """All violated scheme invariants, as human-readable diagnostics.

    An empty list means the scheme is well-formed.
    """
    diags: list[str] = []
    for a, n in h.terminals.items():
        if n < 0:
            diags.append(f"terminal '{a}': negative arity {n}")
        if a in h.nonterminals:
            diags.append(f"'{a}' declared both as terminal and as nonterminal")
    if h.start not in h.nonterminals:
        diags.append(f"start symbol '{h.start}' is not a declared nonterminal")
    elif h.nonterminals[h.start] != GROUND:
        diags.append(f"start symbol '{h.start}' not ground: has sort "
                     f"{format_sort(h.nonterminals[h.start])}")
    for name in h.nonterminals:
        if name not in h.rules:
            diags.append(f"nonterminal '{name}' has no rule")
    for name in h.rules:
        if name not in h.nonterminals:
            diags.append(f"rule for undeclared nonterminal '{name}'")

    for name, rule in h.rules.items():
        if name not in h.nonterminals:
            continue
        sort = h.nonterminals[name]
        binder_names = [b for b, _ in rule.binders]
        if len(set(binder_names)) != len(binder_names):
            diags.append(f"rule '{name}': duplicate binder names")
            continue
        expected = sort
        ok = True
        for b, bsort in rule.binders:
            if not isinstance(expected, Arrow) or expected.domain != bsort:
                diags.append(f"rule '{name}': binder '{b}' of sort "
                             f"{format_sort(bsort)} does not match nonterminal sort "
                             f"{format_sort(sort)}")
                ok = False
                break
            expected = expected.codomain
        if not ok:
            continue
        if expected != GROUND:
            diags.append(f"rule '{name}': body leaves sort "
                         f"{format_sort(expected)}, rules must abstract down to o")
            continue
        try:
            body_sort = infer_sort(rule.body, dict(rule.binders),
                                   h.nonterminals, h.terminals)
        except SortError as e:
            diags.append(f"rule '{name}': {e}")
            continue
        if body_sort != GROUND:
            diags.append(f"rule '{name}': body has sort {format_sort(body_sort)}, "
                         "expected o")
    return diags


class IllFormedScheme(Exception):
    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def require_wellformed(h: Hors) -> None:
    diags = check_wellformed(h)
    if diags:
        raise IllFormedScheme(diags)


# ---------------------------------------------------------------------------
# Finite tree prefixes

class TreePrefix:
    """Finite ordered tree over the ranked alphabet, with unresolved leaves.

    `label` is a terminal symbol, or None for the unresolved marker.  A tree
    is not changed once built.  Trees compare by identity; `format_tree`
    gives their text.
    """

    __slots__ = ("label", "children")

    def __init__(self, label: str | None,
                 children: tuple[TreePrefix, ...] = ()):
        self.label = label
        self.children = children

    @property
    def is_bottom(self) -> bool:
        return self.label is None


BOTTOM = TreePrefix(None)


def format_tree(t: TreePrefix) -> str:
    """`(a t1 ... tn)`, `(c)` for a leaf and `_|_` for the unresolved marker.

    One pass over an explicit stack of trees and pieces of text; the pieces
    are joined once, so no subtree's text is copied into its parent's.  A
    label's pieces are made once and shared by all of its positions.

    The work is per distinct subtree, not per position: where a subtree
    object is printed, the start and end of its slice of the pieces are
    recorded, and a later position of the same object extends the pieces
    with that slice instead of walking the subtree again.  A subtree cannot
    hold itself, so its first position is closed before any other is met.
    """
    out: list[str] = []
    leaf: dict[str, str] = {}
    opening: dict[str, str] = {}
    # id of a subtree -> where its pieces start, and end once its `)` is out
    starts: dict[int, int] = {}
    ends: dict[int, int] = {}
    # Trees, pieces of text, and the ids of subtrees whose `)` comes next.
    work: list[TreePrefix | str | int] = [t]
    while work:
        item = work.pop()
        if type(item) is int:
            out.append(")")
            ends[item] = len(out)
            continue
        if type(item) is str:
            out.append(item)
            continue
        # Print down the first children; the others wait on the stack.
        while True:
            children = item.children
            if not children:
                if item.label is None:
                    out.append("_|_")
                else:
                    piece = leaf.get(item.label)
                    if piece is None:
                        piece = leaf[item.label] = f"({item.label})"
                    out.append(piece)
                break
            key = id(item)
            here = len(out)
            start = starts.setdefault(key, here)
            if start != here:
                out += out[start:ends[key]]
                break
            piece = opening.get(item.label)
            if piece is None:
                piece = opening[item.label] = f"({item.label} "
            out.append(piece)
            work.append(key)
            if len(children) > 1:
                for c in reversed(children[1:]):
                    work.append(c)
                    work.append(" ")
            item = children[0]
    return "".join(out)


class UnresolvedWithinBudget(Exception):
    """A head failed to rewrite to a terminal within the step budget.

    Reported distinctly from a genuine depth cutoff, which is rendered as an
    unresolved leaf in the returned prefix.
    """

    def __init__(self, path: tuple[int, ...], steps: int):
        super().__init__(
            f"head at path {path} unresolved within {steps} rewrite steps")
        self.path = path
        self.steps = steps


DEFAULT_STEP_BUDGET = 10_000


def head_normal(h: Hors, t: Term,
                budget: int) -> tuple[str, list[Term]] | None:
    """Rewrite the head of `t` until it is a terminal: its symbol and
    arguments, or None when that takes more than `budget` steps."""
    steps = 0
    while True:
        t, args = spine(t)
        if isinstance(t, Terminal):
            return t.symbol, args
        assert isinstance(t, NonTerminal), f"stuck head {t!r}"
        if steps == budget:
            return None
        rule = h.rules[t.name]
        assert len(args) == len(rule.binders)
        t = _subst_many(rule.body,
                        {b: a for (b, _), a in zip(rule.binders, args)})
        steps += 1


def unfold(h: Hors, depth: int, budget: int = DEFAULT_STEP_BUDGET) -> TreePrefix:
    """Depth-bounded prefix of the scheme's value tree.

    Outermost (head) rewriting per node; nodes at the depth bound become
    unresolved leaves.  Heads that do not produce a terminal within `budget`
    steps raise UnresolvedWithinBudget, naming the first such node in
    depth-first, left-to-right order.

    Nodes are expanded on an explicit stack, so no recursion limit applies.
    Equal subtrees are one object, so the prefix takes memory in the number
    of distinct subtrees, not of positions.

    The work is per distinct term and distinct subtree, not per position.
    Terms are interned, and within a call each term's head is rewritten
    once and its deepest tree is kept.  That tree is exact at any number of
    levels if it is whole, with no node cut by the bound, and otherwise at
    the levels it was built with or fewer.  A later position of the term
    with no more levels than that takes the tree, truncated to the levels
    left where it is taller (`_truncate`); only a position with more levels
    than a cut tree's expands the term again.  A reused tree holds no
    divergent head, so the first one stays where it was.
    """
    require_wellformed(h)
    if depth <= 0:
        return BOTTOM
    # One node per level of the current path: its term, label, argument
    # terms, the subtrees built so far, the height of the tallest of them,
    # and whether one is cut.  The node being expanded is argument
    # `len(built)` of the one below.
    stack: list[list] = []
    shared: dict[tuple, TreePrefix] = {}
    # id of a tree, kept alive by `shared` -> its levels down to its
    # deepest label
    heights: dict[int, int] = {id(BOTTOM): 0}
    truncated: dict[tuple[int, int], TreePrefix] = {}
    normals: dict[Term, tuple[str, list[Term]]] = {}
    # term -> its deepest tree, and whether that tree is cut
    expanded: dict[Term, tuple[TreePrefix, bool]] = {}
    t: Term = NonTerminal(h.start)
    while True:
        normal = normals.get(t)
        if normal is None:
            normal = normals[t] = head_normal(h, t, budget)
            if normal is None:
                path = tuple(len(node[3]) + 1 for node in stack)
                raise UnresolvedWithinBudget(path, budget + 1)
        label, args = normal
        if len(stack) + 1 < depth or not args:
            node = [t, label, args, [], 0, False]
        else:
            node = [t, label, args, [BOTTOM] * len(args), 0, True]
        stack.append(node)
        # Take every next child whose term has a tree exact at the levels
        # left, and close every node whose children are all built, so that
        # its parent takes its tree next; then descend into the next child.
        while True:
            term, label, args, built, _, _ = node
            left = depth - len(stack)
            while len(built) < len(args):
                t = args[len(built)]
                known = expanded.get(t)
                if known is None:
                    break
                tree, cut = known
                height = heights[id(tree)]
                if height > left:
                    tree = _truncate(tree, left, heights, truncated, shared)
                    height, cut = left, True
                elif cut and height < left:
                    break
                built.append(tree)
                if height > node[4]:
                    node[4] = height
                node[5] = node[5] or cut
            if len(built) < len(args):
                break
            stack.pop()
            key = (label, *map(id, built))
            tree = shared.get(key)
            if tree is None:
                tree = shared[key] = TreePrefix(label, tuple(built))
                heights[id(tree)] = node[4] + 1
            if not stack:
                return tree
            # A term is expanded only where the tree it has is not exact,
            # so this one is deeper.
            expanded[term] = (tree, node[5])
            node = stack[-1]


def _truncate(tree: TreePrefix, levels: int, heights: dict[int, int],
              truncated: dict[tuple[int, int], TreePrefix],
              shared: dict[tuple, TreePrefix]) -> TreePrefix:
    """`tree`, taller than `levels`, cut to its first `levels` levels, where
    a node on the last one takes unresolved leaves.  Subtrees that fit are
    kept; the others are built through `shared`, once per (tree, levels)."""
    # Open cuts: a tree, its levels, its key in `truncated` and its children
    # so far; the one on top is child `len(built)` of the one below.
    stack: list[tuple[TreePrefix, int, tuple[int, int], list]] = []
    while True:
        key = (id(tree), levels)
        cut = truncated.get(key)
        if cut is None:
            stack.append((tree, levels, key, []))
        while True:
            if cut is not None:
                if not stack:
                    return cut
                stack[-1][3].append(cut)
            tree, levels, key, built = stack[-1]
            children = tree.children
            while len(built) < len(children):
                child = children[len(built)]
                if heights[id(child)] < levels:
                    built.append(child)
                elif levels == 1:
                    built.append(BOTTOM)
                else:
                    break
            if len(built) < len(children):
                break
            stack.pop()
            node = (tree.label, *map(id, built))
            cut = shared.get(node)
            if cut is None:
                cut = shared[node] = TreePrefix(tree.label, tuple(built))
                heights[id(cut)] = levels
            truncated[key] = cut
        tree, levels = child, levels - 1


def _subst_many(t: Term, mapping: dict[str, Term]) -> Term:
    # Rule bodies are abstraction-free, so no capture is possible.
    if not t.free:
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    return App(_subst_many(t.function, mapping),
               _subst_many(t.argument, mapping))
