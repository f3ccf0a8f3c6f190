"""Witness extraction: an annotated scheme generating one accepting run-tree.

From a winning strategy of the prover, each reachable winning sequent
becomes a nonterminal of a new scheme over an annotated alphabet; its rule
is read off the derivation the strategy chose at that sequent.  An
annotated terminal carries the colored profile and state it was used at,
and takes one child per profile entry (so subtrees are duplicated or erased
exactly as the automaton's run does).  `verify_runtree` reads the witness's
run tree to a finite depth against the original tree and the automaton.
"""

from __future__ import annotations

from typing import NamedTuple

from .automata import Apt, Color, EPSILON, Profile, format_color, satisfies
from .formats import AnnotatedHors, nonterminal_symbol, terminal_symbol
from .game import AdamNode, EveNode, Solution
from .itypes import IType, StateType, profile_of, split_chain, subtype
# `unfold` stays bound, uncalled: horsbench/tracing.py wraps it here.
from .syntax import (App, DEFAULT_STEP_BUDGET, GROUND, Hors, NonTerminal,
                     Rule, SimpleType, Term, Terminal, UnresolvedWithinBudget,
                     Var, apply, arrow, check_wellformed, fresh_name,
                     head_normal, require_wellformed, unfold)
from .typecheck import DAx, DApp, DDelta, Derivation


class RunReport(NamedTuple):
    depth: int
    projection_mismatches: list
    transition_violations: list
    branch_max_colors: list

    @property
    def passed(self) -> bool:
        return not self.projection_mismatches and not self.transition_violations


class LosingStart(Exception):
    pass


class ReconstructionError(Exception):
    """The chosen strategy has no matching derivation: an internal bug."""


def annotated_sort(t: IType) -> SimpleType:
    """Sort transform: one ground child per colored-set entry."""
    if isinstance(t, StateType):
        return GROUND
    parts = [annotated_sort(ty) for _, ty in t.argument.pairs]
    return arrow(*parts, annotated_sort(t.result))


class CoercionBuilder:
    """Adapters between annotated generators at comparable types.

    When an axiom consumed an entry strictly above its target, the rebuilt
    rule needs a generator of the smaller type.  The adapter is a helper
    nonterminal that eta-expands the larger generator, dropping or rewiring
    children; it recurses through nested arrows.
    """

    def __init__(self, taken_names: set[str]):
        self.taken = taken_names
        self.nonterminals: dict[str, SimpleType] = {}
        self.rules: dict[str, Rule] = {}
        self._memo: dict[tuple[IType, IType], str] = {}

    def coerce(self, term: Term, have: IType, want: IType) -> Term:
        if have == want:
            return term
        assert subtype(want, have), "coercion against the subtyping order"
        key = (want, have)
        if key not in self._memo:
            name = fresh_name(f"Coerce{len(self._memo) + 1}", self.taken)
            self._memo[key] = name
            self.nonterminals[name] = arrow(annotated_sort(have),
                                            annotated_sort(want))
            want_sets, _ = split_chain(want)
            have_sets, _ = split_chain(have)
            binders: list[tuple[str, SimpleType]] = [("g", annotated_sort(have))]
            by_pair: list[dict[tuple[Color, IType], str]] = []
            for i, vset in enumerate(want_sets):
                names: dict[tuple[Color, IType], str] = {}
                for j, (c, tv) in enumerate(vset.pairs):
                    b = f"y{i + 1}_{j}"
                    binders.append((b, annotated_sort(tv)))
                    names[(c, tv)] = b
                by_pair.append(names)
            args: list[Term] = []
            for i, uset in enumerate(have_sets):
                for c, tu in uset.pairs:
                    c2, tv = next((c2, tv2) for c2, tv2 in want_sets[i].pairs
                                  if c2 == c and subtype(tu, tv2))
                    args.append(self.coerce(Var(by_pair[i][(c2, tv)]), tv, tu))
            self.rules[name] = Rule(tuple(binders), apply(Var("g"), *args))
        return App(NonTerminal(self._memo[key]), term)


def extract_scheme(h: Hors, m: Apt, s: Solution, q: str) -> AnnotatedHors:
    """The witness scheme for an accepted state, following Eve's strategy.

    One nonterminal per strategy-reachable winning sequent; rule bodies are
    rebuilt from the derivations that the chosen Adam nodes carry.  `m` is
    not read: the derivations already hold what the automaton decided.
    """
    require_wellformed(h)
    start_node = EveNode(h.start, StateType(q))
    if start_node not in s.win_eve:
        raise LosingStart(f"state '{q}' is not accepted from '{h.start}'")

    terminals: dict[str, int] = {}
    terminal_info: dict[str, tuple[str, Profile, str]] = {}
    nonterminals: dict[str, SimpleType] = {}
    nonterminal_info: dict[str, tuple[str, IType]] = {}
    rules: dict[str, Rule] = {}
    taken_names: set[str] = set()
    coercer = CoercionBuilder(taken_names)

    def register_terminal(a: str, target: IType) -> str:
        sets, result = split_chain(target)
        profile = profile_of(sets)
        if profile is None:
            raise ReconstructionError(
                f"terminal '{a}' typed with a non-ground argument set")
        sym = terminal_symbol(a, profile, result.state)
        if sym not in terminals:
            terminals[sym] = sum(len(c) for c in profile)
            terminal_info[sym] = (a, profile, result.state)
        return sym

    def register_eve(node: EveNode) -> str:
        sym = nonterminal_symbol(node.nonterminal, node.ty)
        if sym in nonterminals:
            return sym
        nonterminals[sym] = annotated_sort(node.ty)
        nonterminal_info[sym] = (node.nonterminal, node.ty)
        taken_names.add(sym)
        pending.append(node)
        return sym

    pending: list[EveNode] = []
    register_eve(start_node)
    while pending:
        node = pending.pop(0)
        chosen = s.strategy_eve.get(node)
        if not isinstance(chosen, AdamNode):
            raise ReconstructionError(f"no strategy move at {node}")
        deriv = chosen.derivation
        if deriv is None:
            raise ReconstructionError(
                f"strategy move {chosen} at {node} carries no derivation")

        rule = h.rules[node.nonterminal]
        arg_sets, _ = split_chain(node.ty)
        binder_names: dict[tuple[str, Color, IType], str] = {}
        binders: list[tuple[str, SimpleType]] = []
        rule_taken = set(taken_names)
        for (x, _), u in zip(rule.binders, arg_sets):
            for j, (c, ty) in enumerate(u.pairs):
                b = fresh_name(f"{x}_{j}", rule_taken)
                binder_names[(x, c, ty)] = b
                binders.append((b, annotated_sort(ty)))

        def term_of(d: Derivation, c: Color) -> Term:
            if isinstance(d, DAx):
                name = d.term.name
                if isinstance(d.term, NonTerminal):
                    sub = register_eve(EveNode(name, d.target))
                    return NonTerminal(sub)
                key = (name, c, d.used)
                if key not in binder_names:
                    raise ReconstructionError(
                        f"axiom leaf for '{name}' at color "
                        f"{format_color(c)} not among the binders")
                got = Var(binder_names[key])
                return coercer.coerce(got, d.used, d.target)
            if isinstance(d, DDelta):
                return Terminal(register_terminal(d.term.symbol, d.target))
            if isinstance(d, DApp):
                fn = term_of(d.function, c)
                args = [term_of(arg, max(c, ci))
                        for (ci, _), arg in zip(d.chosen.pairs, d.arguments)]
                return apply(fn, *args)
            raise ReconstructionError(f"unexpected derivation node {d!r}")

        body = term_of(deriv, EPSILON)
        rule_key = nonterminal_symbol(node.nonterminal, node.ty)
        rules[rule_key] = Rule(tuple(binders), body)

    nonterminals.update(coercer.nonterminals)
    rules.update(coercer.rules)
    out = Hors(terminals=terminals, nonterminals=nonterminals, rules=rules,
               start=nonterminal_symbol(h.start, StateType(q)))
    diags = check_wellformed(out)
    if diags:
        raise ReconstructionError("extracted scheme ill-formed: "
                                  + "; ".join(diags))
    return AnnotatedHors(out, terminal_info, nonterminal_info)


# ---------------------------------------------------------------------------
# Verification of the generated run-tree

def _label_facts(g: AnnotatedHors, m: Apt, label: str) -> tuple | str:
    """The checks of an annotated symbol that do not read its node: a
    violation message, or its terminal, annotated state, unsatisfied
    transition's message (or None), state's color, number of directions
    padded to the arity, and (direction, color, state) per announced child."""
    info = g.terminal_info.get(label)
    if info is None:
        return f"unknown annotated symbol '{label}'"
    a, profile, annotated_state = info
    if a not in m.terminals:
        return f"symbol '{a}' not in the automaton's alphabet"
    plan = tuple((k, c, q2) for k, component in enumerate(profile, start=1)
                 for c, q2 in component)
    if annotated_state not in m.omega or \
            any(q2 not in m.omega for _, _, q2 in plan):
        return f"'{label}' mentions states unknown to the automaton"
    if len(profile) < m.terminals[a]:
        # trailing erased directions are not spelled out in the symbol
        profile = profile + ((),) * (m.terminals[a] - len(profile))
    try:
        ok = satisfies(profile, annotated_state, a, m)
    except ValueError:
        ok = False
    unsatisfied = None if ok else (f"profile of '{label}' does not satisfy "
                                   f"the transition at {annotated_state}")
    return (a, annotated_state, unsatisfied, m.omega[annotated_state],
            len(profile), plan)


def verify_runtree(g: AnnotatedHors, h: Hors, m: Apt, q: str,
                   depth: int) -> RunReport:
    """Check the witness's run tree to `depth` against the original tree.

    Projection: every annotated node must sit over the same symbol in the
    original value tree.  Transitions: every annotated node's profile must
    satisfy the automaton's formula at its state, and children must carry
    the states and colors the profile announces.  Parity itself is not
    decidable at finite depth; the maximal color per branch is reported.

    Both schemes are read term by term, only where the walk goes: a node at
    level `depth` is an unresolved leaf; above it, the witness's head and
    then the original's are rewritten, each distinct term's once per call.
    A head the walk reaches that does not rewrite to a terminal within the
    step budget raises UnresolvedWithinBudget, at its path in the run tree
    for the witness and in the original tree for the original; a divergent
    subtree that the walk never reads is not an error.  Paths in the report
    are positions in the run tree.  The walk keeps its own stack, so no
    recursion limit applies.  Each distinct annotated symbol is checked
    once (`_label_facts`); what reads the node is checked per position.
    """
    require_wellformed(g.hors)
    report = RunReport(depth, [], [], [])

    # A node's link is (parent's link, position in the run, direction in the
    # original), or None at the root; paths are rebuilt only when reported.
    def path_of(link, part: int) -> tuple[int, ...]:
        steps = []
        while link is not None:
            steps.append(link[part])
            link = link[0]
        return tuple(reversed(steps))

    # Per link part (1 the run, 2 the original): each term's head normal form.
    normals: dict[int, dict[Term, tuple[str, list[Term]]]] = {1: {}, 2: {}}

    def read(scheme: Hors, part: int, term: Term, link):
        normal = normals[part].get(term)
        if normal is None:
            normal = normals[part][term] = head_normal(scheme, term,
                                                       DEFAULT_STEP_BUDGET)
            if normal is None:
                raise UnresolvedWithinBudget(path_of(link, part),
                                             DEFAULT_STEP_BUDGET + 1)
        return normal

    labels: dict[str, tuple | str] = {}
    # (witness term and its level, original term, state, max color above
    # the node, link, profile color announced for it or None at the root)
    work: list[tuple] = [(NonTerminal(g.hors.start), 0, NonTerminal(h.start),
                          q, None, None, None)]
    while work:
        run, level, term, state, max_color, link, color = work.pop()
        if color is not None and color != m.omega[state]:
            report.transition_violations.append(
                (path_of(link, 1),
                 f"profile color {format_color(color)} differs from the "
                 f"color of {state}"))
        if level >= depth:
            report.branch_max_colors.append((path_of(link, 1), max_color))
            continue
        label, run_args = read(g.hors, 1, run, link)
        facts = labels.get(label)
        if facts is None:
            facts = labels[label] = _label_facts(g, m, label)
        if isinstance(facts, str):
            report.transition_violations.append((path_of(link, 1), facts))
            continue
        a, annotated_state, unsatisfied, here, width, plan = facts
        if annotated_state != state:
            report.transition_violations.append(
                (path_of(link, 1), f"node carries state {annotated_state}, "
                                   f"expected {state}"))
        original, args = read(h, 2, term, link)
        if original != a:
            report.projection_mismatches.append(
                (path_of(link, 1), original, a))
            continue
        if unsatisfied is not None:
            report.transition_violations.append((path_of(link, 1),
                                                 unsatisfied))
        max_here = here if max_color is None else max(max_color, here)
        if not plan:
            report.branch_max_colors.append((path_of(link, 1), max_here))
            continue
        children = []
        for pos, (k, c, q2) in enumerate(plan):
            if k > len(args):
                break
            children.append((run_args[pos], level + 1, args[k - 1], q2,
                             max_here, (link, pos + 1, k), c))
        if width > len(args):
            # The original has no direction len(args) + 1 to check the
            # profile's against, whether or not that one announces a child.
            report.transition_violations.append(
                (path_of(link, 1), f"profile of '{label}' names "
                                   f"direction {len(args) + 1}, past the "
                                   f"arity {len(args)} of '{a}'"))
        work.extend(reversed(children))
    return report


def format_report(r: RunReport) -> str:
    lines = [f"depth checked: {r.depth}",
             f"projection mismatches: {len(r.projection_mismatches)}",
             f"transition violations: {len(r.transition_violations)}"]
    for path, expected, got in r.projection_mismatches:
        lines.append(f"  projection at {list(path)}: expected '{expected}', "
                     f"generated '{got}'")
    for path, msg in r.transition_violations:
        lines.append(f"  transition at {list(path)}: {msg}")
    colors = sorted({c for _, c in r.branch_max_colors if c is not None})
    lines.append(f"max colors seen on branches: {colors}")
    lines.append("verdict: " + ("consistent" if r.passed else "VIOLATIONS"))
    return "\n".join(lines)
