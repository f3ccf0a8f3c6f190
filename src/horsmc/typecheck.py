"""Decision procedure for the colored intersection type system.

A derivation node records its subject, its type and the rule's choices,
not its environment: the environment of every node follows from the root
sequent's, since an argument under a box of color c sits in the c-residual
of its application's.  The reference search and derivation checker are in
`oracles`.

`rule_typings` enumerates, for a nonterminal typed against a rule body, the
minimal assumption maps on nonterminals under which the body is derivable,
together with witnessing derivations, which the footprint search builds
as it goes.  The parity-game construction takes its moves from it, and
each move carries its derivation on to witness extraction.  Under a
terminal head the search takes each argument's sets from the clauses of
the transition formula, one per clause, as a terminal's denotation is the
profiles covering a clause; under a variable or nonterminal head it tries
every subset of the argument's options.  `PAIR_CAP` guards both searches.

An `Analysis` owns what the search memoises: the type space of each sort
and one search per rule, memoised on (subterm, type, color, view), the view
being the color-residuals of the subterm's free variables' sets at the
colors it reads: all the search reads of its environment.  An application
headed by a terminal reads them only at the state colors, since the
terminal's arguments sit under boxes of those colors; at the root its view
is the sets' residuals there, not the sets.  Residuals are few, so
`build_game` makes one analysis for all the Eve nodes of a game, and an Eve
node whose sets differ only where a subterm does not look reuses that
subterm's footprints (`_FootprintSearch` gives the argument).  The analysis
also keeps the assumption map of each requirement set the search has
found, with its order key, so `rule_typings` builds each distinct map once
and returns it as one object to every Eve node that has it.  Each rule's
search turns each distinct result for its body into moves, sorted by map,
once (`_FootprintSearch.moves`), and `rule_typings` returns a copy.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

from .automata import Antichain, Apt, Color, EPSILON, color_set, dnf
from .itypes import (ArrowType, ColoredSet, IType, SizeGuardExceeded,
                     StateType, colored_set, enumerate_types,
                     is_terminal_type, split_chain, subtype)
from .syntax import (App, Hors, NonTerminal, SimpleType, Term, Terminal, Var,
                     format_sort, format_term, infer_sort, spine)

TypeEnv = dict[str, ColoredSet]


def residual_set(u: ColoredSet, c: Color, cols) -> ColoredSet:
    """Pairs that survive peeling a box of color c off the context:
    (c', t) such that (max(c, c'), t) is present."""
    if c < 0:
        return u
    return colored_set((c2, t) for d, t in u for c2 in cols if max(c, c2) == d)


# ---------------------------------------------------------------------------
# Derivations

class DAx(NamedTuple):
    term: Term
    target: IType
    used: IType  # the neutral-colored entry the axiom consumed


class DDelta(NamedTuple):
    term: Term
    target: IType


class DApp(NamedTuple):
    term: Term
    target: IType
    chosen: ColoredSet
    function: "Derivation"
    arguments: tuple["Derivation", ...]  # aligned with chosen.pairs


Derivation = DAx | DDelta | DApp


# ---------------------------------------------------------------------------
# Minimal assumption maps for rule bodies (Eve's move generator)

# A requirement is one nonterminal assumption: (name, color, type).
Requirement = tuple[str, Color, IType]
AssumptionMap = tuple[tuple[str, ColoredSet], ...]


def requirement_key(r: Requirement):
    return (r[0], r[1], r[2].key)


def assumptions_from(reqs: frozenset[Requirement]) -> AssumptionMap:
    grouped: dict[str, list] = {}
    for name, c, ty in reqs:
        grouped.setdefault(name, []).append((c, ty))
    return tuple((name, colored_set(grouped[name])) for name in sorted(grouped))


def _unions(base: frozenset[Requirement], option_lists, found: Antichain):
    """(union, derivations) for each pick of one (requirements, derivation)
    pair per list, added to `base`, in `itertools.product` order.

    A branch stops as soon as its partial union contains a set in `found`:
    each of its picks would repeat that set or strictly contain it, and
    neither is ever kept.  The caller adds what it takes to `found`, so the
    first occurrence of every minimal union is still produced.
    """
    if found.has_subset_of(base):
        return ()
    # The common case: every argument has one option, so there is one pick.
    if all(len(options) == 1 for options in option_lists):
        acc = base.union(*(options[0][0] for options in option_lists))
        if found.has_subset_of(acc):
            return ()
        return ((acc, tuple(options[0][1] for options in option_lists)),)

    # A set that contains one in `found` always will, so an option dead next
    # to `base` now stays dead.
    live = [[(req, d) for req, d in options
             if not found.has_subset_of(base | req)]
            for options in option_lists]
    return _extend(live, found, 0, base, ())


def _extend(live, found: Antichain, i: int, acc: frozenset[Requirement],
            derivs: tuple):
    """The picks of `_unions` from the i-th list of `live` on."""
    if found.has_subset_of(acc):
        return
    if i == len(live):
        yield acc, derivs
        return
    for req, d in live[i]:
        yield from _extend(live, found, i + 1, acc | req, derivs + (d,))


# The most argument options whose subsets are all tried, under a variable or
# nonterminal head; 2 ** PAIR_CAP bounds the picks for one argument set.
PAIR_CAP = 12


class _FootprintSearch:
    """Enumerates minimal nonterminal-assumption sets for one sequent.

    At an application the argument's candidate sets depend on the head of
    its spine.  Under a terminal they come from the clauses of the
    transition formula (`_clause_subsets`).  Under a variable or a
    nonterminal every subset of the argument's options is tried, and
    `PAIR_CAP` bounds the number of options.

    One search serves every binder environment of its rule (`rebind`), and
    its memo, with the cache of sorts, carries over.  The memo keys
    `search(t, target, c)` on `_memo_key(t, target, c)`: `(t, target, c)`
    followed by the view of t at c, which holds, for the variables x free in
    t (`t.free`), in name order, `residual(var_env[x], r)` for each color r
    that t reads at c: c itself, or, when t is an application whose spine
    head is a terminal, each `max(c, d)` with d a state color, in color
    order.  A closed term's view is `()`.  The key is sound because the
    search reads a binder only through `residual(var_env[x], c)`, the
    residual at the color of the read (a sub-search at `max(c, c2)` reads
    `residual(u, max(c, c2))`, which is `residual(residual(u, c), c2)`),
    and because a terminal head reads its arguments only at the state
    colors: `_clause_subsets` asks `_argument_options` only for the pairs
    (Ω(q'), q') that clauses name, and the function part is terminal-headed
    down to the terminal, which reads nothing.

    Colored sets keep their pairs canonically sorted, so the options, and
    with them every derivation, come in the same order under equal views.
    """

    def __init__(self, analysis: Analysis, rule: str, var_env: TypeEnv):
        # Not the analysis itself: it holds this search, and the cycle
        # would outlive `build_game`.
        self.m = analysis.m
        self.cols = analysis.cols
        self.types = analysis.types
        self.rule = rule
        self.body = analysis.h.rules[rule].body
        self.maps = analysis.maps
        self.residuals = analysis.residuals
        self.sort_env: dict[str, SimpleType] = dict(analysis.h.nonterminals)
        self.sort_env.update(analysis.h.rules[rule].binders)
        self.var_env = var_env
        self._memo: dict = {}
        self._moves: dict = {}  # memo key of the body -> `moves`' result
        self._views = False  # whether the memo keys carry views
        self._sorts: dict = {}
        self._reads: dict = {}  # color -> the colors terminal heads read

    def rebind(self, var_env: TypeEnv) -> None:
        """Search on under another environment of the rule's binders.
        Under one environment the views add nothing to the key, so they, and
        the colors that terminal heads read, are computed only once a second
        one arrives; the entries made so far, and the moves, are then keyed
        again under the environment they were made in."""
        if var_env != self.var_env and not self._views:
            self._views = True
            state_colors = {self.m.omega[q] for q in self.m.states}
            self._reads = {c: tuple(sorted({max(c, d) for d in state_colors}))
                           for c in self.cols}
            self._memo = {self._memo_key(*key): out
                          for key, out in self._memo.items()}
            self._moves = {self._memo_key(*key): out
                           for key, out in self._moves.items()}
        self.var_env = var_env

    def sort_of(self, t: Term) -> SimpleType:
        s = self._sorts.get(t)
        if s is None:
            s = infer_sort(t, self.sort_env, self.sort_env, self.m.terminals)
            self._sorts[t] = s
        return s

    def search(self, t: Term, target: IType, c: Color):
        """List of (requirements frozenset, derivation), minimal under
        requirement-set inclusion, deterministically ordered.  Each
        derivation types `t` in the `c`-residual of the rule environment:
        the binders' sets, the requirements, and empty sets for the other
        nonterminals."""
        key = self._memo_key(t, target, c)
        out = self._memo.get(key)
        if out is None:
            self._memo[key] = out = self._search(t, target, c)
        return out

    def moves(self, target: IType) -> tuple:
        """The rule body's footprints for `target` at the root, as
        (assumption map, derivation) pairs in map order.  They are made
        once per memo entry of the body, under the same key, since the
        footprints depend on nothing else; each requirement set's map is
        made once per analysis (`maps`)."""
        key = self._memo_key(self.body, target, EPSILON)
        out = self._moves.get(key)
        if out is None:
            keyed = []
            for req, d in self.search(self.body, target, EPSILON):
                km = self.maps.get(req)
                if km is None:
                    delta = assumptions_from(req)
                    km = self.maps[req] = (
                        tuple((n, u.key) for n, u in delta), delta)
                keyed.append((km, d))
            keyed.sort(key=lambda kd: kd[0][0])
            out = self._moves[key] = tuple([(delta, d)
                                            for (_, delta), d in keyed])
        return out

    def _memo_key(self, t: Term, target: IType, c: Color) -> tuple:
        """`(t, target, c)`, followed by the view of `t` at `c` once the
        rule has had a second environment."""
        if not self._views:
            return (t, target, c)
        terminal_headed = isinstance(t, App) and isinstance(t.head, Terminal)
        reads = self._reads[c] if terminal_headed else (c,)
        return (t, target, c, *[self.residual(self.var_env[x], r)
                                for x in t.free for r in reads])

    def residual(self, u: ColoredSet, c: Color) -> ColoredSet:
        """`residual_set(u, c)`, cached by the interned set and the color
        for the whole analysis."""
        r = self.residuals.get((u, c))
        if r is None:
            r = self.residuals[u, c] = residual_set(u, c, self.cols)
        return r

    def _argument_options(self, t: App, c: Color, named=None):
        """Candidate (color, type, derivations) triples for the argument of
        the application `t`, in color order, then type order; with `named`,
        only at the (color, type) pairs it holds.

        A bare variable offers the pairs of its set's c-residual themselves.
        A pair below one never helps, since every axiom the smaller type
        serves is served by the pair too, and the pair only enlarges the
        sequent the refuter may challenge.
        """
        arg = t.argument
        if isinstance(arg, Var):
            return [(c2, alpha, [(frozenset(), DAx(arg, alpha, alpha))])
                    for c2, alpha in self.residual(self.var_env[arg.name],
                                                   c).pairs
                    if named is None or (c2, alpha) in named]
        sigma = self.sort_of(arg)
        types = self.types.get(sigma)
        if types is None:
            try:
                types = self.types[sigma] = enumerate_types(sigma, self.m)
            except SizeGuardExceeded as e:
                raise SizeGuardExceeded(
                    f"{e.what} (argument of `{format_term(t)}` in the rule "
                    f"of {self.rule})", e.count, e.bound) from None
        options = []
        for c2 in self.cols:
            for beta in types:
                if named is not None and (c2, beta) not in named:
                    continue
                sub = self.search(arg, beta, max(c, c2))
                if sub:
                    options.append((c2, beta, sub))
        return options

    def _clause_subsets(self, t: App, a: str, k: int, target: IType,
                        c: Color):
        """Argument subsets for `t`, the k-th argument of terminal `a`: the
        position-k projections {(omega(q'), q') : (k, q') in D} of the
        clauses D of delta(q, a), q the result state of `target`, whose
        later positions `target`'s argument sets already cover.  A
        projection naming a pair the argument cannot take is dropped.

        A terminal's profile is typed exactly when it covers a clause.  Any
        other subset of the options either covers no projection, and then
        the head is untypable, or strictly contains one that comes earlier,
        and then each union it yields contains one already found.  The
        subsets come in the order `itertools.combinations` reaches them,
        size first, then option indices, so the first occurrence of every
        minimal set, and its derivation, is unchanged.
        """
        later, result = split_chain(target)
        projections = set()
        for clause in dnf(self.m.delta_of(result.state, a)):
            if all((self.m.omega[q2], StateType(q2)) in later[j - k - 1]
                   for j, q2 in clause if j > k):
                projections.add(frozenset(
                    (self.m.omega[q2], StateType(q2))
                    for j, q2 in clause if j == k))
        options = self._argument_options(t, c, set().union(*projections))
        index = {(c2, beta): i for i, (c2, beta, _) in enumerate(options)}
        picks = sorted((tuple(sorted(index[p] for p in proj))
                        for proj in projections if proj <= index.keys()),
                       key=lambda pick: (len(pick), pick))
        return [tuple(options[i] for i in pick) for pick in picks]

    def _search(self, t: Term, target: IType, c: Color):
        if isinstance(t, Var):
            for c2, alpha in self.residual(self.var_env[t.name], c).pairs:
                if c2 == EPSILON and subtype(target, alpha):
                    return [(frozenset(), DAx(t, target, alpha))]
            return []
        if isinstance(t, NonTerminal):
            req = (t.name, c, target)
            return [(frozenset({req}), DAx(t, target, target))]
        if isinstance(t, Terminal):
            if is_terminal_type(t.symbol, target, self.m):
                return [(frozenset(), DDelta(t, target))]
            return []
        assert isinstance(t, App), f"unexpected term in rule body: {t!r}"
        head, args = spine(t)
        if isinstance(head, Terminal):
            subsets = self._clause_subsets(t, head.symbol, len(args), target,
                                           c)
        else:
            options = self._argument_options(t, c)
            if len(options) > PAIR_CAP:
                raise SizeGuardExceeded(
                    f"candidate argument typings at `{format_term(t)}` in "
                    f"the rule of {self.rule}, argument sort "
                    f"{format_sort(self.sort_of(t.argument))}",
                    2 ** len(options), 2 ** PAIR_CAP)
            subsets = (subset for n in range(len(options) + 1)
                       for subset in itertools.combinations(options, n))
        found = Antichain()
        for subset in subsets:
            chosen = colored_set((c2, beta) for c2, beta, _ in subset)
            fn_opts = self.search(t.function, ArrowType(chosen, target), c)
            if not fn_opts:
                continue
            by_pair = {(c2, beta): sub for c2, beta, sub in subset}
            arg_option_lists = [by_pair[p] for p in chosen.pairs]
            picks = math.prod(map(len, arg_option_lists))
            if picks > 2 ** PAIR_CAP:
                raise SizeGuardExceeded(
                    f"argument derivations at `{format_term(t)}` in the "
                    f"rule of {self.rule}", picks, 2 ** PAIR_CAP)
            for fn_req, fn_d in fn_opts:
                for req, arg_ds in _unions(fn_req, arg_option_lists, found):
                    found.add(req, DApp(t, target, chosen, fn_d, arg_ds))
        return sorted(found.sets.items(), key=requirement_order)


def requirement_order(item) -> tuple:
    """A (requirements, derivation) pair by size, then requirement keys."""
    return (len(item[0]), tuple(sorted(map(requirement_key, item[0]))))


class Analysis:
    """What the footprint search derives from one scheme and automaton,
    shared by the `rule_typings` calls on it: the colors, the type space of
    each argument sort (`types`), each rule's search (`searches`), the
    residual of each colored set at each color (`residuals`) and the
    assumption map of each requirement set found, with its order key
    (`maps`), so that equal maps are one object."""

    def __init__(self, h: Hors, m: Apt):
        self.h = h
        self.m = m
        self.cols = color_set(m)
        self.types: dict[SimpleType, list[IType]] = {}
        self.searches: dict[str, _FootprintSearch] = {}
        self.residuals: dict[tuple[ColoredSet, Color], ColoredSet] = {}
        self.maps: dict[frozenset[Requirement],
                        tuple[tuple, AssumptionMap]] = {}


def rule_typings(analysis: Analysis, name: str, theta: IType
                 ) -> list[tuple[AssumptionMap, Derivation]]:
    """Minimal nonterminal assumption maps under which the rule body of
    `name` derives the result state of `theta`, with derivations.

    `theta`'s argument sets type the rule binders positionally.  The rule's
    footprint search and the maps are the analysis's, so calls on one
    analysis share them, and return equal maps as one object; a fresh
    `Analysis` searches from scratch.  Each call returns a new list, so a
    caller that changes it changes no later result.
    """
    rule = analysis.h.rules[name]
    arg_sets, result = split_chain(theta)
    if len(arg_sets) != len(rule.binders):
        raise ValueError(f"type {theta!r} does not match the arity of '{name}'")
    var_env: TypeEnv = {b: u for (b, _), u in zip(rule.binders, arg_sets)}
    search = analysis.searches.get(name)
    if search is None:
        search = analysis.searches[name] = _FootprintSearch(analysis, name,
                                                            var_env)
    search.rebind(var_env)
    return list(search.moves(result))
