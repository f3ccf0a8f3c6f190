"""Reference implementations that the tests and demos check production
against; no module on the command-line path imports this one.

- `derive` (`Deriver`): backward proof search that propagates the
  color-residual of a fixed environment instead of splitting contexts
  (sound by weakening, and tested against a literal context-splitting
  implementation in the test suite); it checks `rule_typings`.
- `check_derivation` (`residual_env`, `DLam`): replays every rule instance
  of a derivation from the root environment.
- `winning_sequents`: the nested fixpoint over sequents that the paper's
  finitary semantics gives, over `Deriver`; it checks `build_game` +
  `zielonka` at every order.
- `denotation`: the full finite typing relation computed bottom-up, the
  brute-force counterpart of `derive`.
- `solve_brute`: enumerates memoryless strategy pairs; checks `zielonka`.
- `eval_formula` checks `dnf`; `run_search`, a finite run over a tree
  prefix, checks verdicts depth by depth.
- `format_formula` and `print_apt`: automaton text that `formats` reads
  back, for round-trip tests of its parser.
- `Lam`, `Fix` and `LambdaY`: the lambda-Y terms, which no rule body holds;
  `ly_sort` and `format_ly` walk them.
- `to_lambda_y`, `from_lambda_y` and `bohm_tree`: the lambda-Y presentation
  of schemes, whose head-reduction unfolding checks `unfold`;
  `is_prefix_of` compares tree prefixes.
- `box_color`: the context coloring, checked against subtyping.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

from .automata import (Apt, Atom, Color, EPSILON, FAnd, Formula, color_set,
                       dnf)
from .game import ADAM, EVE, ParityGame, Solution
from .itypes import (ArrowType, ColoredSet, IType, SizeGuardExceeded,
                     colored_set, enumerate_colored_sets, enumerate_types,
                     is_terminal_type, split_chain, subtype)
from .syntax import (App, Arrow, DEFAULT_STEP_BUDGET, GROUND, Ground, Hors,
                     Interned, NonTerminal, Rule, SimpleType, SortError, Term,
                     Terminal, TreePrefix, UnresolvedWithinBudget, Var, BOTTOM,
                     apply, arrow, format_sort, format_term, fresh_name,
                     ground_sort, require_wellformed, spine)
from .typecheck import (DApp, DAx, DDelta, Derivation, TypeEnv,
                        residual_set)

__all__ = ["Lam", "Fix", "LambdaY", "ly_sort", "format_ly",
           "DLam", "Deriver", "derive", "check_derivation", "residual_env",
           "winning_sequents",
           "denotation", "BRUTE_NODE_LIMIT", "solve_brute", "eval_formula",
           "format_formula", "print_apt",
           "run_search", "nonterminals_of", "subst_var", "subst_nonterminal",
           "is_prefix_of", "to_lambda_y", "from_lambda_y", "bohm_tree",
           "box_color"]


# ---------------------------------------------------------------------------
# Lambda-Y terms: applicative terms with abstractions and fixpoints

class Lam(Interned):
    """`\\binder:binder_sort. body`; `free` holds its free variables in
    name order."""

    fields = ("binder", "binder_sort", "body")
    __slots__ = fields + ("free",)

    def _facts(self):
        self.free = tuple(x for x in self.body.free if x != self.binder)


class Fix(Interned):
    """Fixpoint at a sort: Fix(s, M) stands for Y_s M and requires M : s -> s."""

    fields = ("sort", "body")
    __slots__ = fields + ("free",)

    def _facts(self):
        self.free = self.body.free


LambdaY = Var | Terminal | NonTerminal | App | Lam | Fix


def ly_sort(t: LambdaY, scope: dict[str, SimpleType],
            terminals: dict[str, int]) -> SimpleType:
    """Sort of `t` with terminal sorts fixed by their arities; `scope`
    sorts its free variables and nonterminals."""
    term_sorts = {a: ground_sort(n) for a, n in terminals.items()}
    return _freeze(_infer_meta(t, scope, term_sorts, scope))


def format_ly(t: LambdaY) -> str:
    if isinstance(t, Lam):
        return f"\\{t.binder}:{format_sort(t.binder_sort)}. {format_ly(t.body)}"
    if isinstance(t, Fix):
        return f"Y[{format_sort(t.sort)}] ({format_ly(t.body)})"
    if not isinstance(t, App):
        return format_term(t)
    head, args = spine(t)
    return " ".join([format_ly(head)] + [
        f"({format_ly(a)})" if isinstance(a, (App, Lam, Fix)) else format_ly(a)
        for a in args])


# ---------------------------------------------------------------------------
# Derivations and the backward search (references for `typecheck`)

def residual_env(env: TypeEnv, c: Color, cols) -> TypeEnv:
    return {x: residual_set(u, c, cols) for x, u in env.items()}


class DLam(NamedTuple):
    term: Lam
    target: IType
    body: "Derivation"


def check_derivation(d: Derivation, m: Apt, env: TypeEnv) -> bool:
    """Independent local-correctness check of every rule instance, with the
    root sequent in `env`.  An argument under a box of color c sits in the
    c-residual of its application's environment; a lambda body sits in its
    abstraction's environment extended with the binder."""
    cols = color_set(m)

    def check(node: Derivation, env: TypeEnv) -> bool:
        if isinstance(node, DAx):
            name = (node.term.name if isinstance(node.term, (Var, NonTerminal))
                    else None)
            if name is None or name not in env:
                return False
            return ((EPSILON, node.used) in env[name]
                    and subtype(node.target, node.used))
        if isinstance(node, DDelta):
            if not isinstance(node.term, Terminal):
                return False
            return is_terminal_type(node.term.symbol, node.target, m)
        if isinstance(node, DApp):
            if not isinstance(node.term, App):
                return False
            fn = node.function
            if fn.term != node.term.function:
                return False
            if fn.target != ArrowType(node.chosen, node.target):
                return False
            if len(node.arguments) != len(node.chosen.pairs):
                return False
            for (c, beta), arg in zip(node.chosen.pairs, node.arguments):
                if arg.term != node.term.argument or arg.target != beta:
                    return False
                if not check(arg, residual_env(env, c, cols)):
                    return False
            return check(fn, env)
        if isinstance(node, DLam):
            if not isinstance(node.term, Lam):
                return False
            if not isinstance(node.target, ArrowType):
                return False
            if node.body.target != node.target.result:
                return False
            return check(node.body,
                         {**env, node.term.binder: node.target.argument})
        return False

    return check(d, env)


class Deriver:
    """Reusable backward-search context (shared memo tables)."""

    def __init__(self, m: Apt, sort_env: dict[str, SimpleType]):
        self.m = m
        self.sort_env = dict(sort_env)
        self.cols = color_set(m)
        self._memo: dict = {}
        self._sorts: dict = {}
        self._residuals: dict = {}  # (colored set, color) -> its residual

    def residual_env(self, env: TypeEnv, c: Color) -> TypeEnv:
        """`residual_env(env, c, cols)`, each (set, color) residuated once."""
        out = {}
        for x, u in env.items():
            r = self._residuals.get((u, c))
            if r is None:
                r = self._residuals[u, c] = residual_set(u, c, self.cols)
            out[x] = r
        return out

    def sort_of(self, t: LambdaY) -> SimpleType:
        s = self._sorts.get(t)
        if s is None:
            s = ly_sort(t, self.sort_env, self.m.terminals)
            self._sorts[t] = s
        return s

    def derive(self, env: TypeEnv, t: LambdaY,
               target: IType) -> Derivation | None:
        if isinstance(t, Lam):
            if not isinstance(target, ArrowType):
                return None
            inner_env = dict(env)
            inner_env[t.binder] = target.argument
            sub = Deriver(self.m, {**self.sort_env, t.binder: t.binder_sort})
            body = sub.derive(inner_env, t.body, target.result)
            if body is None:
                return None
            return DLam(t, target, body)
        if isinstance(t, Fix):
            raise ValueError("fixpoints are handled by the game, not derive")
        return self._derive(env, t, target)

    def _derive(self, env: TypeEnv, t: Term, target: IType) -> Derivation | None:
        needed = sorted(nonterminals_of(t).union(t.free))
        for x in needed:
            if x not in env:
                raise KeyError(f"free name '{x}' not covered by the environment")
        key = (t, tuple((x, env[x]) for x in needed), target)
        if key in self._memo:
            return self._memo[key]
        result = self._derive_uncached(env, t, target)
        self._memo[key] = result
        return result

    def _derive_uncached(self, env: TypeEnv, t: Term,
                         target: IType) -> Derivation | None:
        if isinstance(t, (Var, NonTerminal)):
            u = env[t.name]
            for c, alpha in u.pairs:
                if c == EPSILON and subtype(target, alpha):
                    return DAx(t, target, alpha)
            return None
        if isinstance(t, Terminal):
            if is_terminal_type(t.symbol, target, self.m):
                return DDelta(t, target)
            return None
        assert isinstance(t, App)
        sigma = self.sort_of(t.argument)
        pairs: list[tuple[Color, IType, Derivation]] = []
        for c in self.cols:
            env_c = self.residual_env(env, c)
            for beta in enumerate_types(sigma, self.m):
                sub = self._derive(env_c, t.argument, beta)
                if sub is not None:
                    pairs.append((c, beta, sub))
        chosen = colored_set((c, beta) for c, beta, _ in pairs)
        by_pair = {(c, beta): d for c, beta, d in pairs}
        fn = self._derive(env, t.function, ArrowType(chosen, target))
        if fn is None:
            return None
        args = tuple(by_pair[p] for p in chosen.pairs)
        return DApp(t, target, chosen, fn, args)


def derive(env: TypeEnv, t: LambdaY, target: IType, m: Apt,
           sort_env: dict[str, SimpleType]) -> Derivation | None:
    """Backward proof search; None when the sequent is not provable."""
    return Deriver(m, sort_env).derive(env, t, target)


# ---------------------------------------------------------------------------
# The scheme's interpretation as a nested fixpoint over sequents

def winning_sequents(h: Hors, m: Apt) -> set[tuple[str, IType]]:
    """The sequents (N, theta), theta a type of N's sort, that Eve wins:
    W = sigma_d X_d ... sigma_1 X_1 . F, with no footprint search, game or
    solver.

    F(X_1 ... X_d) holds (N, theta) when `Deriver` derives N's body at
    theta's result state, the binders taking theta's argument sets and
    each nonterminal N' the set {(c, theta') : (N', theta') in X_{c+2}}.
    Eve may take that largest environment, because derivability is
    monotone under weakening.  A color c has the priority c + 2 of
    `game.node_priority`, so the neutral color has 1; sigma_p is nu for
    even p and mu for odd p.  F reads only the priorities of the colors,
    so only those are bound; the fixpoints are iterated naively, from the
    whole set for nu and from the empty set for mu."""
    require_wellformed(h)
    cols = color_set(m)
    priority = {c: c + 2 for c in cols}
    levels = sorted(set(priority.values()))
    sequents = {(n, theta) for n, sort in h.nonterminals.items()
                for theta in enumerate_types(sort, m)}
    derivers = {n: Deriver(m, {**h.nonterminals, **dict(rule.binders)})
                for n, rule in h.rules.items()}

    def step(x: dict[int, set]) -> set:
        pairs: dict[str, list] = {n: [] for n in h.nonterminals}
        for c in cols:
            for n, theta in x[priority[c]]:
                pairs[n].append((c, theta))
        env = {n: colored_set(ps) for n, ps in pairs.items()}
        won = set()
        for n, theta in sequents:
            rule = h.rules[n]
            sets, result = split_chain(theta)
            binders = {b: u for (b, _), u in zip(rule.binders, sets)}
            if derivers[n].derive({**env, **binders}, rule.body,
                                  result) is not None:
                won.add((n, theta))
        return won

    def solve(i: int, x: dict[int, set]) -> set:
        """The fixpoint sigma X_p at levels[i], the outer ones fixed in x."""
        if i < 0:
            return step(x)
        p = levels[i]
        current = set(sequents) if p % 2 == 0 else set()
        while True:
            x[p] = current
            inner = solve(i - 1, x)
            if inner == current:
                return current
            current = inner

    return solve(len(levels) - 1, {})


# ---------------------------------------------------------------------------
# Bottom-up denotation (brute-force counterpart of `derive`)

def denotation(t: LambdaY, sorts: dict[str, SimpleType], m: Apt,
               spaces: dict[str, list[ColoredSet]] | None = None
               ) -> set[tuple[tuple[ColoredSet, ...], IType]]:
    """The full finite relation between environments and result types.

    The environment tuples follow the iteration order of `sorts`.  Fixpoint
    constructors are not admitted here.  When a variable's colored-set space
    is too large to enumerate, `spaces` may restrict it to a candidate list;
    the relation is then computed over that subspace (internally closed
    under color residuals, which the application rule consumes).
    """
    names = list(sorts)
    cols = color_set(m)
    spaces = spaces or {}

    def var_space(x: str, sort: SimpleType) -> list[ColoredSet]:
        base = spaces.get(x)
        if base is None:
            return enumerate_colored_sets(sort, m)
        closed = list(dict.fromkeys(
            list(base) + [residual_set(u, c, cols) for u in base
                          for c in cols]))
        return closed

    def compute(term: LambdaY, scope: dict[str, SimpleType]):
        """Returns (support names tuple, set of (support env tuple, type))."""
        if isinstance(term, Fix):
            raise ValueError("fixpoints are not admitted in denotation")
        if isinstance(term, (Var, NonTerminal)):
            x = term.name
            if x not in scope:
                raise KeyError(f"free name '{x}' has no declared sort")
            entries = set()
            for u in var_space(x, scope[x]):
                for alpha in enumerate_types(scope[x], m):
                    if any(c == EPSILON and subtype(alpha, a2)
                           for c, a2 in u):
                        entries.add(((u,), alpha))
            return (x,), entries
        if isinstance(term, Terminal):
            chain = ground_sort(m.terminals[term.symbol])
            entries = {((), theta)
                       for theta in enumerate_types(chain, m)
                       if is_terminal_type(term.symbol, theta, m)}
            return (), entries
        if isinstance(term, Lam):
            inner_scope = dict(scope)
            inner_scope[term.binder] = term.binder_sort
            sup_m, d_m = compute(term.body, inner_scope)
            sup = tuple(x for x in sup_m if x != term.binder)
            entries = set()
            if term.binder in sup_m:
                i = sup_m.index(term.binder)
                for envt, r in d_m:
                    rest = envt[:i] + envt[i + 1:]
                    entries.add((rest, ArrowType(envt[i], r)))
            else:
                for u in enumerate_colored_sets(term.binder_sort, m):
                    for envt, r in d_m:
                        entries.add((envt, ArrowType(u, r)))
            return sup, entries
        assert isinstance(term, App)
        sup_f, d_f = compute(term.function, scope)
        sup_a, d_a = compute(term.argument, scope)
        sup = tuple(sorted(set(sup_f) | set(sup_a)))
        # Index the function relation by (env, result) -> argument sets.
        by_result: dict = {}
        for envt, theta in d_f:
            if isinstance(theta, ArrowType):
                by_result.setdefault((envt, theta.result), []).append(theta.argument)
        env_spaces = [var_space(x, scope[x]) for x in sup]
        result_sort = ly_sort(term, scope, m.terminals)
        targets = enumerate_types(result_sort, m)
        entries = set()
        for envt in itertools.product(*env_spaces):
            env = dict(zip(sup, envt))
            env_f = tuple(env[x] for x in sup_f)
            env_a = {x: env[x] for x in sup_a}
            residuals = {c: tuple(residual_set(env_a[x], c, cols) for x in sup_a)
                         for c in cols}
            for alpha in targets:
                for u in by_result.get((env_f, alpha), ()):
                    if all((residuals[c], beta) in d_a for c, beta in u.pairs):
                        entries.add((envt, alpha))
                        break
        return sup, entries

    support, dset = compute(t, dict(sorts))
    final_spaces = [spaces.get(x) or enumerate_colored_sets(sorts[x], m)
                    for x in names]
    out = set()
    index = [names.index(x) for x in support]
    by_key: dict = {}
    for sup_env, alpha in dset:
        by_key.setdefault(sup_env, []).append(alpha)
    for envt in itertools.product(*final_spaces):
        key = tuple(envt[i] for i in index)
        for alpha in by_key.get(key, ()):
            out.add((envt, alpha))
    return out


# ---------------------------------------------------------------------------
# Brute-force solver (testing oracle)

BRUTE_NODE_LIMIT = 12


def _play_winner(g: ParityGame, start, choice: dict) -> str:
    seen_at: dict = {}
    path = []
    v = start
    while True:
        if v in seen_at:
            cycle = path[seen_at[v]:]
            top = max(g.priority[u] for u in cycle)
            return EVE if top % 2 == 0 else ADAM
        seen_at[v] = len(path)
        path.append(v)
        nxt = choice.get(v)
        if nxt is None:
            return ADAM if g.owner[v] == EVE else EVE  # stuck owner loses
        v = nxt


def solve_brute(g: ParityGame) -> Solution:
    """Exhaustive enumeration of memoryless strategy pairs."""
    if len(g.nodes) > BRUTE_NODE_LIMIT:
        raise SizeGuardExceeded("brute-force game nodes", len(g.nodes),
                                BRUTE_NODE_LIMIT)

    def strategies(player: str):
        owned = [v for v in g.nodes
                 if g.owner[v] == player and g.successors(v)]
        pools = [tuple(dict.fromkeys(g.successors(v))) for v in owned]
        for pick in itertools.product(*pools):
            yield dict(zip(owned, pick))

    eve_strats = list(strategies(EVE))
    adam_strats = list(strategies(ADAM))

    def eve_wins_with(e: dict) -> set:
        result = set(g.nodes)
        for a in adam_strats:
            choice = {**e, **a}
            result = {v for v in result if _play_winner(g, v, choice) == EVE}
            if not result:
                break
        return result

    win_sets = [eve_wins_with(e) for e in eve_strats]
    win_eve = set().union(*win_sets) if win_sets else set()
    win_adam = set(g.nodes) - win_eve
    strategy_eve = {}
    for e, ws in zip(eve_strats, win_sets):
        if ws == win_eve:
            strategy_eve = {v: w for v, w in e.items() if v in win_eve}
            break

    def adam_wins_with(a: dict) -> set:
        result = set(g.nodes)
        for e in eve_strats:
            choice = {**e, **a}
            result = {v for v in result if _play_winner(g, v, choice) == ADAM}
            if not result:
                break
        return result

    strategy_adam = {}
    for a in adam_strats:
        if adam_wins_with(a) == win_adam:
            strategy_adam = {v: w for v, w in a.items() if v in win_adam}
            break
    return Solution(frozenset(win_eve), frozenset(win_adam),
                    strategy_eve, strategy_adam)


# ---------------------------------------------------------------------------
# Formula text and evaluation, and finite-prefix run search (references
# for `formats` and `automata`)

def format_formula(f: Formula, _in_and: bool = False) -> str:
    """`/\\` binds tighter than `\\/`; a disjunction inside a conjunction is
    parenthesised.  `formats._parse_formula` reads the text back."""
    if isinstance(f, Atom):
        return f"({f.direction},{f.state})"
    if not f.parts:
        return "true" if isinstance(f, FAnd) else "false"
    if isinstance(f, FAnd):
        return " /\\ ".join(format_formula(p, True) for p in f.parts)
    s = " \\/ ".join(format_formula(p) for p in f.parts)
    return f"({s})" if _in_and else s


def print_apt(m: Apt) -> str:
    """An automaton file that `formats.parse_apt` reads back as `m`."""
    lines = ["states: " + " ".join(m.states),
             f"initial: {m.initial}",
             "colors:"]
    for q in m.states:
        lines.append(f"  {q} -> {m.omega[q]}")
    lines.append("delta:")
    for (q, a), f in m.delta.items():
        lines.append(f"  {q} {a} -> {format_formula(f)}")
    return "\n".join(lines) + "\n"


def eval_formula(f: Formula, truth: frozenset[tuple[int, str]]) -> bool:
    """Evaluate under a set of atoms taken to be true."""
    if isinstance(f, Atom):
        return (f.direction, f.state) in truth
    holds = all if isinstance(f, FAnd) else any
    return holds(eval_formula(p, truth) for p in f.parts)


def run_search(m: Apt, t: TreePrefix, q: str) -> bool:
    """Is there a finite run over the prefix from state q?

    Unresolved leaves accept unconditionally; the parity condition is
    ignored, so this is only a per-depth oracle (exact for automata whose
    colors make every infinite run accepting).
    """
    memo: dict[tuple[int, str], bool] = {}

    def visit(node: TreePrefix, p: str) -> bool:
        if node.is_bottom:
            return True
        key = (id(node), p)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycles impossible on a finite tree; guard anyway
        ok = False
        for clause in dnf(m.delta_of(p, node.label)):
            if all(visit(node.children[k - 1], q2) for k, q2 in clause):
                ok = True
                break
        memo[key] = ok
        return ok

    return visit(t, q)


# ---------------------------------------------------------------------------
# Substitution and tree prefixes (references for `syntax`)

def nonterminals_of(t: LambdaY) -> frozenset[str]:
    if isinstance(t, NonTerminal):
        return frozenset({t.name})
    if isinstance(t, App):
        return nonterminals_of(t.function) | nonterminals_of(t.argument)
    if isinstance(t, (Lam, Fix)):
        return nonterminals_of(t.body)
    return frozenset()


def _all_names(t: LambdaY) -> set[str]:
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


def subst_var(t: LambdaY, name: str, value: LambdaY) -> LambdaY:
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
    if t.binder in value.free and name in t.body.free:
        taken = _all_names(t.body) | {*value.free, name}
        renamed = fresh_name(t.binder, taken)
        body = subst_var(t.body, t.binder, Var(renamed))
        return Lam(renamed, t.binder_sort, subst_var(body, name, value))
    return Lam(t.binder, t.binder_sort, subst_var(t.body, name, value))


def subst_nonterminal(t: LambdaY, name: str, value: LambdaY) -> LambdaY:
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


def is_prefix_of(smaller: TreePrefix, larger: TreePrefix) -> bool:
    """True when `larger` refines `smaller` by expanding unresolved leaves."""
    if smaller.is_bottom:
        return True
    if smaller.label != larger.label:
        return False
    return all(is_prefix_of(s, l) for s, l in zip(smaller.children, larger.children))


# ---------------------------------------------------------------------------
# Scheme -> lambda-term with fixpoints

def to_lambda_y(h: Hors) -> LambdaY:
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
    defs: dict[str, LambdaY] = {}
    for name in names:
        rule = h.rules[name]
        t: LambdaY = rule.body
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


def _infer_meta(t: LambdaY, env: dict[str, object],
                term_sorts: dict[str, object],
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


def from_lambda_y(t: LambdaY) -> Hors:
    """Lambda-lift a closed ground term into an equivalent recursion scheme.

    Each abstraction and each fixpoint body becomes a fresh nonterminal
    abstracted over its free variables; terminal arities are recovered from
    the term's sorting.
    """
    if t.free:
        raise SortError(f"term is not closed: free {list(t.free)}")
    term_sorts: dict[str, object] = {}
    top = _infer_meta(t, {}, term_sorts)
    _unify(top, GROUND)
    terminals = {a: _terminal_arity(_freeze(s), a) for a, s in term_sorts.items()}

    taken = set(terminals)
    rules: dict[str, Rule] = {}
    nonterminal_sorts: dict[str, SimpleType] = {}

    def sort_of(term: LambdaY, scope: dict[str, SimpleType]) -> SimpleType:
        return _freeze(_infer_meta(term, dict(scope), term_sorts,
                                   nonterminal_sorts))

    def lift(term: LambdaY, env: dict[str, SimpleType]) -> Term:
        """Applicative translation; hoists Lam and Fix into new rules."""
        if isinstance(term, (Var, Terminal, NonTerminal)):
            return term
        if isinstance(term, App):
            return App(lift(term.function, env), lift(term.argument, env))
        if isinstance(term, Lam):
            binders: list[tuple[str, SimpleType]] = []
            body: LambdaY = term
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
            fvs = term.free
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
        fvs = term.free
        fv_binders = [(v, env[v]) for v in fvs]
        name = fresh_name("G", taken)
        nonterminal_sorts[name] = arrow(*[s for _, s in fv_binders], sort)
        self_ref = apply(NonTerminal(name), *[Var(v) for v in fvs])
        unrolled = subst_var(body.body, body.binder, self_ref)
        fill_rule(name, fv_binders, unrolled, env)
        return self_ref

    def make_rule(base: str, binders: list[tuple[str, SimpleType]],
                  body: LambdaY, scope: dict[str, SimpleType]) -> str:
        name = fresh_name(base, taken)
        body_sort = sort_of(body, scope)
        nonterminal_sorts[name] = arrow(*[s for _, s in binders], body_sort)
        fill_rule(name, binders, body, scope)
        return name

    def fill_rule(name: str, binders: list[tuple[str, SimpleType]],
                  body: LambdaY, env: dict[str, SimpleType]) -> None:
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

def bohm_tree(t: LambdaY, depth: int,
              terminal_arities: dict[str, int] | None = None,
              budget: int = DEFAULT_STEP_BUDGET) -> TreePrefix:
    """Depth-bounded Boehm tree of a closed ground term, by head reduction.

    Beta-reduces head redexes and unrolls fixpoints; terminal arities are
    taken from the argument counts when not supplied.
    """

    def expand(term: LambdaY, d: int, path: tuple[int, ...]) -> TreePrefix:
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


# ---------------------------------------------------------------------------
# Context coloring (reference for `itypes`)

def box_color(c: Color, u: ColoredSet) -> ColoredSet:
    """Raise every pair's color to at least c (the context coloring)."""
    return colored_set((max(c, ci), t) for ci, t in u)
