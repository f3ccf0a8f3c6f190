"""Simple types, applicative terms, recursion schemes and finite tree unfolding.

A scheme is a finite family of simply-typed rewrite rules, one per
nonterminal, generating a possibly infinite ranked tree by repeated
outermost rewriting from the start symbol.  This module also provides the
two translations between schemes and closed lambda-terms with an explicit
fixpoint constructor, plus a Boehm-tree unfolder for the latter (kept as an
independent code path so the two unfoldings can be cross-checked).
"""

from __future__ import annotations

from dataclasses import dataclass


# ---------------------------------------------------------------------------
# Simple types (sorts)

@dataclass(frozen=True)
class Ground:
    def __repr__(self):
        return "o"


@dataclass(frozen=True)
class Arrow:
    domain: "SimpleType"
    codomain: "SimpleType"

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


def order(sort: SimpleType) -> int:
    if isinstance(sort, Ground):
        return 0
    return max(order(sort.domain) + 1, order(sort.codomain))


def ground_sort(arity: int) -> SimpleType:
    """o -> ... -> o with `arity` arrows: the sort of an arity-n terminal."""
    s: SimpleType = GROUND
    for _ in range(arity):
        s = Arrow(GROUND, s)
    return s


def format_sort(sort: SimpleType) -> str:
    if isinstance(sort, Ground):
        return "o"
    dom = format_sort(sort.domain)
    if isinstance(sort.domain, Arrow):
        dom = f"({dom})"
    return f"{dom} -> {format_sort(sort.codomain)}"


# ---------------------------------------------------------------------------
# Terms

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Terminal:
    symbol: str


@dataclass(frozen=True)
class NonTerminal:
    name: str


@dataclass(frozen=True)
class App:
    function: "Term"
    argument: "Term"


@dataclass(frozen=True)
class Lam:
    binder: str
    binder_sort: SimpleType
    body: "Term"


@dataclass(frozen=True)
class Fix:
    """Fixpoint at a sort: Fix(s, M) stands for Y_s M and requires M : s -> s."""

    sort: SimpleType
    body: "Term"


Term = Var | Terminal | NonTerminal | App | Lam | Fix


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


def free_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset({t.name})
    if isinstance(t, (Terminal, NonTerminal)):
        return frozenset()
    if isinstance(t, App):
        return free_vars(t.function) | free_vars(t.argument)
    if isinstance(t, Lam):
        return free_vars(t.body) - {t.binder}
    return free_vars(t.body)


def nonterminals_of(t: Term) -> frozenset[str]:
    if isinstance(t, NonTerminal):
        return frozenset({t.name})
    if isinstance(t, App):
        return nonterminals_of(t.function) | nonterminals_of(t.argument)
    if isinstance(t, (Lam, Fix)):
        return nonterminals_of(t.body)
    return frozenset()


def _all_names(t: Term) -> set[str]:
    if isinstance(t, Var):
        return {t.name}
    if isinstance(t, Terminal):
        return {t.symbol}
    if isinstance(t, NonTerminal):
        return {t.name}
    if isinstance(t, App):
        return _all_names(t.function) | _all_names(t.argument)
    if isinstance(t, Lam):
        return _all_names(t.body) | {t.binder}
    return _all_names(t.body)


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


def subst_var(t: Term, name: str, value: Term) -> Term:
    """Capture-avoiding substitution of `value` for the free variable `name`."""
    if isinstance(t, Var):
        return value if t.name == name else t
    if isinstance(t, (Terminal, NonTerminal)):
        return t
    if isinstance(t, App):
        return App(subst_var(t.function, name, value),
                   subst_var(t.argument, name, value))
    if isinstance(t, Fix):
        return Fix(t.sort, subst_var(t.body, name, value))
    # Lam
    if t.binder == name:
        return t
    if t.binder in free_vars(value) and name in free_vars(t.body):
        taken = _all_names(t.body) | free_vars(value) | {name}
        renamed = fresh_name(t.binder, taken)
        body = subst_var(t.body, t.binder, Var(renamed))
        return Lam(renamed, t.binder_sort, subst_var(body, name, value))
    return Lam(t.binder, t.binder_sort, subst_var(t.body, name, value))


def subst_nonterminal(t: Term, name: str, value: Term) -> Term:
    """Replace references to a nonterminal; `value` must have no free Vars
    captured here, which holds because rule right-hand sides are closed."""
    if isinstance(t, NonTerminal):
        return value if t.name == name else t
    if isinstance(t, (Var, Terminal)):
        return t
    if isinstance(t, App):
        return App(subst_nonterminal(t.function, name, value),
                   subst_nonterminal(t.argument, name, value))
    if isinstance(t, Lam):
        return Lam(t.binder, t.binder_sort, subst_nonterminal(t.body, name, value))
    return Fix(t.sort, subst_nonterminal(t.body, name, value))


def format_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Terminal):
        return t.symbol
    if isinstance(t, NonTerminal):
        return t.name
    if isinstance(t, App):
        head, args = spine(t)
        parts = [format_term(head)]
        for a in args:
            s = format_term(a)
            parts.append(f"({s})" if isinstance(a, (App, Lam, Fix)) else s)
        return " ".join(parts)
    if isinstance(t, Lam):
        return f"\\{t.binder}:{format_sort(t.binder_sort)}. {format_term(t.body)}"
    return f"Y[{format_sort(t.sort)}] ({format_term(t.body)})"


# ---------------------------------------------------------------------------
# Sort checking

class SortError(Exception):
    pass


def infer_sort(t: Term, var_sorts: dict[str, SimpleType],
               nonterminal_sorts: dict[str, SimpleType],
               terminal_arities: dict[str, int]) -> SimpleType:
    """Sort of a term whose terminal sorts are fixed by their arities."""
    if isinstance(t, Var):
        if t.name not in var_sorts:
            raise SortError(f"unbound variable '{t.name}'")
        return var_sorts[t.name]
    if isinstance(t, Terminal):
        if t.symbol not in terminal_arities:
            raise SortError(f"unknown terminal '{t.symbol}'")
        return ground_sort(terminal_arities[t.symbol])
    if isinstance(t, NonTerminal):
        if t.name not in nonterminal_sorts:
            raise SortError(f"unknown nonterminal '{t.name}'")
        return nonterminal_sorts[t.name]
    if isinstance(t, App):
        fn = infer_sort(t.function, var_sorts, nonterminal_sorts, terminal_arities)
        arg = infer_sort(t.argument, var_sorts, nonterminal_sorts, terminal_arities)
        if not isinstance(fn, Arrow):
            raise SortError(f"applied term of ground sort: {format_term(t)}")
        if fn.domain != arg:
            raise SortError(
                f"argument sort mismatch in {format_term(t)}: expected "
                f"{format_sort(fn.domain)}, got {format_sort(arg)}")
        return fn.codomain
    if isinstance(t, Lam):
        inner = dict(var_sorts)
        inner[t.binder] = t.binder_sort
        body = infer_sort(t.body, inner, nonterminal_sorts, terminal_arities)
        return Arrow(t.binder_sort, body)
    # Fix
    body = infer_sort(t.body, var_sorts, nonterminal_sorts, terminal_arities)
    if body != Arrow(t.sort, t.sort):
        raise SortError(
            f"fixpoint body has sort {format_sort(body)}, expected "
            f"{format_sort(Arrow(t.sort, t.sort))}")
    return t.sort


# ---------------------------------------------------------------------------
# Recursion schemes

@dataclass(frozen=True)
class Rule:
    binders: tuple[tuple[str, SimpleType], ...]
    body: Term


@dataclass
class Hors:
    """A higher-order recursion scheme: one rule per nonterminal.

    Values are treated as immutable after construction.
    """

    terminals: dict[str, int]
    nonterminals: dict[str, SimpleType]
    rules: dict[str, Rule]
    start: str


def _contains_binding(t: Term) -> bool:
    if isinstance(t, (Lam, Fix)):
        return True
    if isinstance(t, App):
        return _contains_binding(t.function) or _contains_binding(t.argument)
    return False


def check_wellformed(h: Hors) -> list[str]:
    """All violated scheme invariants, as human-readable diagnostics.

    An empty list means the scheme is well-formed.
    """
    diags: list[str] = []
    for a, n in h.terminals.items():
        if n < 0:
            diags.append(f"terminal '{a}': negative arity {n}")
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
        if _contains_binding(rule.body):
            diags.append(f"rule '{name}': body not abstraction-free")
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

@dataclass(frozen=True)
class TreePrefix:
    """Finite ordered tree over the ranked alphabet, with unresolved leaves.

    `label` is a terminal symbol, or None for the unresolved marker.
    """

    label: str | None
    children: tuple["TreePrefix", ...] = ()

    @property
    def is_bottom(self) -> bool:
        return self.label is None


BOTTOM = TreePrefix(None)


def format_tree(t: TreePrefix) -> str:
    if t.is_bottom:
        return "_|_"
    if not t.children:
        return f"({t.label})"
    inner = " ".join(format_tree(c) for c in t.children)
    return f"({t.label} {inner})"


def is_prefix_of(smaller: TreePrefix, larger: TreePrefix) -> bool:
    """True when `larger` refines `smaller` by expanding unresolved leaves."""
    if smaller.is_bottom:
        return True
    if smaller.label != larger.label:
        return False
    return all(is_prefix_of(s, l) for s, l in zip(smaller.children, larger.children))


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


def unfold(h: Hors, depth: int, budget: int = DEFAULT_STEP_BUDGET) -> TreePrefix:
    """Depth-bounded prefix of the scheme's value tree.

    Outermost (head) rewriting per node; nodes at the depth bound become
    unresolved leaves.  Heads that do not produce a terminal within `budget`
    steps raise UnresolvedWithinBudget.
    """
    require_wellformed(h)

    def expand(t: Term, d: int, path: tuple[int, ...]) -> TreePrefix:
        if d >= depth:
            return BOTTOM
        steps = 0
        while True:
            head, args = spine(t)
            if isinstance(head, Terminal):
                break
            assert isinstance(head, NonTerminal), f"stuck head {head!r}"
            rule = h.rules[head.name]
            assert len(args) == len(rule.binders)
            body = rule.body
            mapping = {b: a for (b, _), a in zip(rule.binders, args)}
            t = _subst_many(body, mapping)
            steps += 1
            if steps > budget:
                raise UnresolvedWithinBudget(path, steps)
        arity = h.terminals[head.symbol]
        assert len(args) == arity
        return TreePrefix(head.symbol,
                          tuple(expand(a, d + 1, path + (i + 1,))
                                for i, a in enumerate(args)))

    return expand(NonTerminal(h.start), 0, ())


def _subst_many(t: Term, mapping: dict[str, Term]) -> Term:
    # Rule bodies are abstraction-free, so no capture is possible.
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, (Terminal, NonTerminal)):
        return t
    if isinstance(t, App):
        return App(_subst_many(t.function, mapping),
                   _subst_many(t.argument, mapping))
    raise AssertionError("rule bodies are abstraction-free")


# ---------------------------------------------------------------------------
# Scheme -> lambda-term with fixpoints

def to_lambda_y(h: Hors) -> Term:
    """Closed ground term with the same Boehm tree as the scheme's value tree.

    Mutual recursion is resolved one nonterminal at a time, in declaration
    order: the nonterminal's own recursion is tied with a fixpoint, then the
    result is substituted into the remaining definitions.
    """
    require_wellformed(h)
    taken = set(h.terminals) | set(h.nonterminals)
    for rule in h.rules.values():
        taken |= {b for b, _ in rule.binders}
        taken |= _all_names(rule.body)

    names = list(h.nonterminals)
    defs: dict[str, Term] = {}
    for name in names:
        rule = h.rules[name]
        t: Term = rule.body
        for b, bsort in reversed(rule.binders):
            t = Lam(b, bsort, t)
        defs[name] = t

    for i, name in enumerate(names):
        t = defs[name]
        if name in nonterminals_of(t):
            sort = h.nonterminals[name]
            self_var = fresh_name(name.lower() or "f", taken)
            t = Fix(sort, Lam(self_var, sort,
                              subst_nonterminal(t, name, Var(self_var))))
        defs[name] = t
        for later in names[i + 1:]:
            defs[later] = subst_nonterminal(defs[later], name, t)

    for i in range(len(names) - 2, -1, -1):
        for j in range(len(names) - 1, i, -1):
            defs[names[i]] = subst_nonterminal(defs[names[i]], names[j],
                                               defs[names[j]])
    return defs[h.start]


# ---------------------------------------------------------------------------
# Lambda-term with fixpoints -> scheme (lambda lifting)

class _SortVar:
    """Mutable unification variable over sorts (union-find by path halving)."""

    __slots__ = ("ref",)

    def __init__(self):
        self.ref: object | None = None  # SimpleType | _SortVar | _Meta


def _resolve(s):
    while isinstance(s, _SortVar) and s.ref is not None:
        s = s.ref
    return s


def _unify(a, b) -> None:
    a, b = _resolve(a), _resolve(b)
    if a is b:
        return
    if isinstance(a, _SortVar):
        a.ref = b
        return
    if isinstance(b, _SortVar):
        b.ref = a
        return
    if isinstance(a, Ground) and isinstance(b, Ground):
        return
    if isinstance(a, _MetaArrow) or isinstance(b, _MetaArrow) \
            or isinstance(a, Arrow) or isinstance(b, Arrow):
        da, ca = _split_arrow(a)
        db, cb = _split_arrow(b)
        _unify(da, db)
        _unify(ca, cb)
        return
    raise SortError(f"cannot unify sorts {a!r} and {b!r}")


class _MetaArrow:
    __slots__ = ("domain", "codomain")

    def __init__(self, domain, codomain):
        self.domain = domain
        self.codomain = codomain


def _split_arrow(s):
    if isinstance(s, Arrow):
        return s.domain, s.codomain
    if isinstance(s, _MetaArrow):
        return s.domain, s.codomain
    raise SortError("expected an arrow sort")


def _freeze(s) -> SimpleType:
    s = _resolve(s)
    if isinstance(s, _SortVar):
        return GROUND  # unconstrained: only ground instantiations occur here
    if isinstance(s, Ground):
        return GROUND
    d, c = _split_arrow(s)
    return Arrow(_freeze(d), _freeze(c))


def _infer_meta(t: Term, env: dict[str, object], term_sorts: dict[str, object],
                nt_sorts: dict[str, SimpleType] | None = None):
    if isinstance(t, Var):
        if t.name not in env:
            raise SortError(f"unbound variable '{t.name}'")
        return env[t.name]
    if isinstance(t, Terminal):
        return term_sorts.setdefault(t.symbol, _SortVar())
    if isinstance(t, NonTerminal):
        if nt_sorts is None or t.name not in nt_sorts:
            raise SortError("nonterminal reference in a bare lambda-term")
        return nt_sorts[t.name]
    if isinstance(t, App):
        fn = _infer_meta(t.function, env, term_sorts, nt_sorts)
        arg = _infer_meta(t.argument, env, term_sorts, nt_sorts)
        res = _SortVar()
        _unify(fn, _MetaArrow(arg, res))
        return res
    if isinstance(t, Lam):
        inner = dict(env)
        inner[t.binder] = t.binder_sort
        body = _infer_meta(t.body, inner, term_sorts, nt_sorts)
        return _MetaArrow(t.binder_sort, body)
    body = _infer_meta(t.body, env, term_sorts, nt_sorts)
    _unify(body, _MetaArrow(t.sort, t.sort))
    return t.sort


def _terminal_arity(sort: SimpleType, symbol: str) -> int:
    n = 0
    while isinstance(sort, Arrow):
        if sort.domain != GROUND:
            raise SortError(f"terminal '{symbol}' used at non-tree sort")
        n += 1
        sort = sort.codomain
    return n


def from_lambda_y(t: Term) -> Hors:
    """Lambda-lift a closed ground term into an equivalent recursion scheme.

    Each abstraction and each fixpoint body becomes a fresh nonterminal
    abstracted over its free variables; terminal arities are recovered from
    the term's sorting.
    """
    if free_vars(t):
        raise SortError(f"term is not closed: free {sorted(free_vars(t))}")
    term_sorts: dict[str, object] = {}
    top = _infer_meta(t, {}, term_sorts)
    _unify(top, GROUND)
    terminals = {a: _terminal_arity(_freeze(s), a) for a, s in term_sorts.items()}

    taken = set(terminals)
    rules: dict[str, Rule] = {}
    nonterminal_sorts: dict[str, SimpleType] = {}

    def sort_of(term: Term, scope: dict[str, SimpleType]) -> SimpleType:
        return _freeze(_infer_meta(term, dict(scope), term_sorts,
                                   nonterminal_sorts))

    def lift(term: Term, env: dict[str, SimpleType]) -> Term:
        """Applicative translation; hoists Lam and Fix into new rules."""
        if isinstance(term, (Var, Terminal, NonTerminal)):
            return term
        if isinstance(term, App):
            return App(lift(term.function, env), lift(term.argument, env))
        if isinstance(term, Lam):
            binders: list[tuple[str, SimpleType]] = []
            body: Term = term
            seen = set(env) | {b for b, _ in binders}
            while isinstance(body, Lam):
                bname = body.binder
                inner_body = body.body
                if bname in seen:
                    bname = fresh_name(bname, set(seen) | _all_names(inner_body))
                    inner_body = subst_var(inner_body, body.binder, Var(bname))
                seen.add(bname)
                binders.append((bname, body.binder_sort))
                body = inner_body
            fvs = sorted(free_vars(term))
            fv_binders = [(v, env[v]) for v in fvs]
            scope = dict(env)
            scope.update(dict(binders))
            name = make_rule("F", fv_binders + binders, body, scope)
            return apply(NonTerminal(name), *[Var(v) for v in fvs])
        # Fix(s, M): a nonterminal with rule G fv = M (G fv), eta-expanded.
        sort = term.sort
        body = term.body
        if not isinstance(body, Lam):
            f = fresh_name("rec", _all_names(body) | set(taken))
            body = Lam(f, sort, App(body, Var(f)))
        fvs = sorted(free_vars(term))
        fv_binders = [(v, env[v]) for v in fvs]
        name = fresh_name("G", taken)
        nonterminal_sorts[name] = arrow(*[s for _, s in fv_binders], sort)
        self_ref = apply(NonTerminal(name), *[Var(v) for v in fvs])
        unrolled = subst_var(body.body, body.binder, self_ref)
        fill_rule(name, fv_binders, unrolled, env)
        return self_ref

    def make_rule(base: str, binders: list[tuple[str, SimpleType]],
                  body: Term, scope: dict[str, SimpleType]) -> str:
        name = fresh_name(base, taken)
        body_sort = sort_of(body, scope)
        nonterminal_sorts[name] = arrow(*[s for _, s in binders], body_sort)
        fill_rule(name, binders, body, scope)
        return name

    def fill_rule(name: str, binders: list[tuple[str, SimpleType]],
                  body: Term, env: dict[str, SimpleType]) -> None:
        """Eta-expand the body down to ground sort, lift it, record the rule."""
        scope = dict(env)
        scope.update(dict(binders))
        body_sort = sort_of(body, scope)
        extra: list[tuple[str, SimpleType]] = []
        taken_local = _all_names(body) | set(taken) | set(scope)
        while isinstance(body_sort, Arrow):
            v = fresh_name("y", taken_local)
            extra.append((v, body_sort.domain))
            body_sort = body_sort.codomain
        full = apply(body, *[Var(v) for v, _ in extra])
        scope.update(dict(extra))
        lifted = lift(full, scope)
        rules[name] = Rule(tuple(binders) + tuple(extra), lifted)

    start = fresh_name("S", taken)
    nonterminal_sorts[start] = GROUND
    fill_rule(start, [], t, {})

    h = Hors(terminals=terminals, nonterminals=nonterminal_sorts,
             rules=rules, start=start)
    require_wellformed(h)
    return h


# ---------------------------------------------------------------------------
# Boehm-tree unfolding of lambda-terms (independent of `unfold`)

def bohm_tree(t: Term, depth: int, terminal_arities: dict[str, int] | None = None,
              budget: int = DEFAULT_STEP_BUDGET) -> TreePrefix:
    """Depth-bounded Boehm tree of a closed ground term, by head reduction.

    Beta-reduces head redexes and unrolls fixpoints; terminal arities are
    taken from the argument counts when not supplied.
    """

    def expand(term: Term, d: int, path: tuple[int, ...]) -> TreePrefix:
        if d >= depth:
            return BOTTOM
        steps = 0
        while True:
            head, args = spine(term)
            if isinstance(head, Terminal):
                break
            steps += 1
            if steps > budget:
                raise UnresolvedWithinBudget(path, steps)
            if isinstance(head, Lam):
                assert args, "ground closed term cannot be a bare abstraction"
                reduced = subst_var(head.body, head.binder, args[0])
                term = apply(reduced, *args[1:])
            elif isinstance(head, Fix):
                term = apply(App(head.body, head), *args)
            else:
                raise SortError(f"stuck head in Boehm unfolding: {head!r}")
        if terminal_arities is not None:
            assert len(args) == terminal_arities[head.symbol]
        return TreePrefix(head.symbol,
                          tuple(expand(a, d + 1, path + (i + 1,))
                                for i, a in enumerate(args)))

    return expand(t, 0, ())
