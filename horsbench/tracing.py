"""Spans and work counters recorded around the program's public entry points.

The tracer replaces module attributes through which one layer calls the
next (for example `game.rule_typings`, which `build_game` looks up at call
time) with wrappers that record a span: id, parent id, name, operation,
start and end.  Spans stay in memory; the caller writes them out once.  A
layer's self time is its spans' durations minus the time of their child
spans.  Counters are computed after a span ends, inside a `bench.count`
span that no layer is charged for.

The two leaves the footprint search calls in its inner loop,
`enumerate_types` and `satisfies`, run hundreds of thousands of times per
corpus pass.  They get no span each: their time is summed per enclosing
span, which loses it from its self time, and per leaf.
"""

from __future__ import annotations

import importlib
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Both `syntax.unfold` (the benchmark's own
# unfolding) and `selection.unfold` (inside `verify_runtree`) are wrapped.
TARGETS = [
    ("horsmc.formats", "parse_hors", "formats.parse_hors"),
    ("horsmc.formats", "parse_apt", "formats.parse_apt"),
    ("horsmc.formats", "print_annotated", "formats.print_annotated"),
    ("horsmc.formats", "parse_annotated", "formats.parse_annotated"),
    ("horsmc.formats", "print_tree", "formats.print_tree"),
    ("horsmc.syntax", "check_wellformed", "syntax.check_wellformed"),
    ("horsmc.syntax", "unfold", "syntax.unfold"),
    ("horsmc.selection", "unfold", "syntax.unfold"),
    ("horsmc.typecheck", "enumerate_types", "itypes.enumerate_types"),
    ("horsmc.itypes", "satisfies", "automata.satisfies"),
    ("horsmc.game", "rule_typings", "typecheck.rule_typings"),
    ("horsmc.game", "build_game", "game.build_game"),
    ("horsmc.game", "zielonka", "game.zielonka"),
    ("horsmc.selection", "extract_scheme", "selection.extract_scheme"),
    ("horsmc.selection", "verify_runtree", "selection.verify_runtree"),
]

# Span name -> per-layer metric charged with the span's self time.
SELF_TIME = {
    "formats.parse_hors": "formats.parse_s",
    "formats.parse_apt": "formats.parse_s",
    "formats.print_annotated": "formats.witness_io_s",
    "formats.parse_annotated": "formats.witness_io_s",
    "formats.print_tree": "formats.print_tree_s",
    "syntax.check_wellformed": "syntax.wellformed_s",
    "syntax.unfold": "syntax.unfold_s",
    "itypes.enumerate_types": "itypes.enumerate_s",
    "automata.satisfies": "automata.satisfies_s",
    "typecheck.rule_typings": "typecheck.rule_typings_s",
    "game.build_game": "game.build_s",
    "game.zielonka": "game.solve_s",
    "selection.extract_scheme": "selection.extract_s",
    "selection.verify_runtree": "selection.verify_s",
}

LEAVES = {"itypes.enumerate_types", "automata.satisfies"}

COUNTERS = ["syntax.unfold_nodes", "itypes.type_space",
            "typecheck.rule_typings_calls", "typecheck.assumption_maps",
            "game.nodes.eve", "game.nodes.adam", "game.nodes.color",
            "game.edges", "game.priorities", "selection.witness_nonterminals",
            "selection.witness_terminals", "selection.run_leaves",
            "automata.satisfies_calls"]


def _tree_nodes(tree) -> int:
    count, work = 0, [tree]
    while work:
        node = work.pop()
        count += 1
        work.extend(node.children)
    return count


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [id, parent, name, op, start, end]
        self.stack = [0]
        self.counters: Counter = Counter()
        self.op = None
        self.leaf_time: Counter = Counter()  # enclosing span id -> seconds
        self.leaf_total: Counter = Counter()  # leaf name -> seconds
        self._sorts_seen: set = set()
        self._saved: list = []

    def begin_op(self, op_name: str) -> None:
        self.op = op_name
        self._sorts_seen = set()

    # -- counters, evaluated after the span closes --------------------------

    def _count(self, name, args, result) -> None:
        c = self.counters
        if name == "typecheck.rule_typings":
            c["typecheck.rule_typings_calls"] += 1
            c["typecheck.assumption_maps"] += len(result)
        elif name == "automata.satisfies":
            c["automata.satisfies_calls"] += 1
        elif name == "itypes.enumerate_types":
            sigma, m = args[0], args[1]
            if sigma not in self._sorts_seen:
                self._sorts_seen.add(sigma)
                itypes = importlib.import_module("horsmc.itypes")
                c["itypes.type_space"] += itypes.count_types(sigma, m)
        elif name == "game.build_game":
            for v in result.nodes:
                kind = type(v).__name__
                c["game.nodes." + kind[:-4].lower()] += 1
            c["game.edges"] += sum(len(ws) for ws in result.edges.values())
        elif name == "game.zielonka":
            c["game.priorities"] += len(set(args[0].priority.values()))
        elif name == "selection.extract_scheme":
            witness = result.hors
            c["selection.witness_nonterminals"] += len(witness.nonterminals)
            c["selection.witness_terminals"] += len(witness.terminals)
        elif name == "selection.verify_runtree":
            c["selection.run_leaves"] += len(result.branch_max_colors)
        elif name == "syntax.unfold":
            c["syntax.unfold_nodes"] += _tree_nodes(result)

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = [len(spans) + 1, parent, name, self.op, perf_counter(), 0.0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            count = [len(spans) + 1, parent, "bench.count", self.op,
                     perf_counter(), 0.0]
            spans.append(count)
            self._count(name, args, result)
            count[5] = perf_counter()
            return result

        return traced

    def _wrap_leaf(self, name: str, fn):
        stack, leaf_time, leaf_total = self.stack, self.leaf_time, \
            self.leaf_total

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            end = perf_counter()
            self._count(name, args, result)
            leaf_time[stack[-1]] += perf_counter() - start
            leaf_total[name] += end - start
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            wrap = self._wrap_leaf if name in LEAVES else self._wrap
            setattr(module, attr, wrap(name, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Self time per layer metric plus the work counters."""
        child_time: Counter = Counter()
        for sid, parent, name, op, start, end in self.spans:
            if parent:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in SELF_TIME.values()}
        for sid, parent, name, op, start, end in self.spans:
            metric = SELF_TIME.get(name)
            if metric is None:
                continue
            if name == "formats.parse_hors" and parent and \
                    self.spans[parent - 1][2] == "formats.parse_annotated":
                metric = "formats.witness_io_s"
            out[metric] += end - start - child_time[sid] - self.leaf_time[sid]
        for name, seconds in self.leaf_total.items():
            out[SELF_TIME[name]] += seconds
        for name in COUNTERS:
            out[name] = self.counters[name]
        return out
