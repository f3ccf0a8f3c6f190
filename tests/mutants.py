"""Committed mutants of `src/horsmc` and the tests that must kill them.

Each mutant replaces one exact snippet of one source file.  The runner
copies `src/` to a temporary directory, first runs every listed test id on
the unmodified copy (an id that fails there is reported, since a mutant it
"kills" proves nothing), then applies one mutant at a time and runs only
that mutant's ids against the copy.  A mutant that all of its ids pass
survives; a mutant whose run is stopped for taking far longer than its
ids took unmutated (a search that no longer ends) is killed.  Run from the
root of a checkout:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

It exits 1 when a mutant survives or a listed id fails unmutated.  pytest
does not collect this file; `test_mutants.py` checks, in tier-1, that every
snippet occurs exactly once in the current source and every id exists.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A mutant's run is stopped, and the mutant counted as killed, once it takes
# this many times as long as its ids took unmutated, plus the slack.
TIMEOUT_FACTOR = 3
TIMEOUT_SLACK_S = 10


class Mutant(NamedTuple):
    name: str
    file: str  # relative to src/horsmc
    snippet: str
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = [
    Mutant("antichain-add-keeps-supersets", "automata.py",
           "for k in [k for k in self.sets if s < k]:",
           "for k in []:",
           ("tests/test_automata.py::TestAntichain::"
            "test_add_drops_strict_supersets_only",
            "tests/test_typecheck.py::"
            "test_minimal_matches_quadratic_reference")),
    Mutant("antichain-scan-strict-subset", "automata.py",
           "if k <= s:",
           "if k < s:",
           ("tests/test_automata.py::TestAntichain::"
            "test_subset_query_by_scan_and_by_hashing",
            "tests/test_typecheck.py::"
            "test_minimal_matches_quadratic_reference")),
    # Leaving dropped sets in their buckets is no mutant: a dropped set
    # contains a stored one, so every query still gets the same answer.
    Mutant("antichain-ignores-stored-empty-set", "automata.py",
           "return 0 in self.sizes",
           "return False",
           ("tests/test_automata.py::TestAntichain::"
            "test_queries_match_a_brute_force_model",
            "tests/test_automata.py::TestDnf::"
            "test_soundness_completeness_over_assignments")),
    Mutant("antichain-reads-one-bucket", "automata.py",
           "for x in s:\n            for k in self.filed.get(x, ()):",
           "for x in list(s)[:1]:\n"
           "            for k in self.filed.get(x, ()):",
           ("tests/test_automata.py::TestAntichain::"
            "test_queries_match_a_brute_force_model",
            "tests/test_typecheck.py::"
            "test_minimal_matches_quadratic_reference")),
    Mutant("neutral-color-at-priority-2", "game.py",
           "return v.color + 2",
           "return max(v.color, 0) + 2",
           ("tests/test_game.py::TestPriorityEncoding::"
            "test_shift_preserves_parity_and_order",
            "tests/test_game.py::TestBuildGame::"
            "test_order2_unary_game_is_pinned")),
    Mutant("players-swapped", "game.py",
           "EVE, ADAM = 0, 1",
           "EVE, ADAM = 1, 0",
           ("tests/test_game.py::TestBuildGame::test_solutions_are_pinned",
            "tests/test_game.py::TestZielonka::test_even_self_loop_eve_wins")),
    Mutant("negative-color-accepted", "automata.py",
           "if self.omega[q] < 0:",
           "if self.omega[q] < -1:",
           ("tests/test_automata.py::TestValidate::"
            "test_negative_color_rejected",)),
    Mutant("fresh-color-tuples-per-adam-node", "game.py",
           "ws = moves.get(v.assumption)",
           "ws = None",
           ("tests/test_game.py::TestNumbering::"
            "test_adam_nodes_of_one_map_share_their_moves",
            "tests/test_game.py::TestNumbering::"
            "test_order2_unary_moves_are_made_once_per_map")),
    Mutant("color-node-recorded-unshifted", "game.py",
           "prio.append(node_priority(v))",
           "prio.append(v.color if isinstance(v, ColorNode) else 1)",
           ("tests/test_game.py::TestNumbering::"
            "test_owner_and_priority_are_recorded_per_node",
            "tests/test_game.py::TestBuildGame::"
            "test_order2_unary_game_is_pinned")),
    Mutant("derived-edges-one-tuple-per-node", "game.py",
           "return {v: moves[id(ws)] for v, ws in zip(nodes, succ)}",
           "return {v: tuple(map(nodes.__getitem__, ws))\n"
           "                for v, ws in zip(nodes, succ)}",
           ("tests/test_game.py::TestNumbering::"
            "test_adam_nodes_of_one_map_share_their_moves",
            "tests/test_game.py::TestNumbering::"
            "test_order2_unary_moves_are_made_once_per_map")),
    Mutant("zielonka-predecessors-reversed", "game.py",
           "for v in pred[u]:",
           "for v in reversed(pred[u]):",
           ("tests/test_game.py::TestBuildGame::test_solutions_are_pinned",)),
    # Reading every first round from the smaller side is no mutant: it
    # gives the same attractor in the same order, only slower.
    Mutant("first-round-joiners-unsorted", "game.py",
           "joined.sort()",
           "pass",
           ("tests/test_game.py::TestZielonka::"
            "test_first_round_joiners_enter_by_seed",)),
    Mutant("opponent-joins-at-least-seed", "game.py",
           "u = max(hits)",
           "u = min(hits)",
           ("tests/test_game.py::TestZielonka::"
            "test_opponent_joins_at_its_greatest_seed",)),
    Mutant("player-joiner-moves-to-largest-seed", "game.py",
           "strategy[v] = u = min(hits)",
           "strategy[v] = u = max(hits)",
           ("tests/test_game.py::TestBuildGame::test_solutions_are_pinned",)),
    Mutant("ceiling-skips-a-priority", "game.py",
           "yield rest, top + 1",
           "yield rest, top + 2",
           ("tests/test_game.py::TestBuildGame::test_solutions_are_pinned",
            "tests/test_game.py::TestZielonka::test_ladders_are_pinned",
            "tests/test_game.py::TestZielonka::"
            "test_larger_games_with_many_priorities")),
    Mutant("escape-seeds-unsorted", "game.py",
           "escape, active = attract(active, 1 - player, sorted(lost),",
           "escape, active = attract(active, 1 - player, list(lost),",
           ("tests/test_game.py::TestZielonka::"
            "test_escape_seeds_are_scanned_in_node_order",)),
    Mutant("escape-seeds-reversed", "game.py",
           "escape, active = attract(active, 1 - player, sorted(lost),",
           "escape, active = attract(active, 1 - player, "
           "sorted(lost, reverse=True),",
           ("tests/test_game.py::TestZielonka::"
            "test_escape_seeds_are_scanned_in_node_order",)),
    Mutant("solution-eve-strategy-by-adam-owner", "game.py",
           "if owner[v] == x}",
           "if owner[v] == ADAM}",
           ("tests/test_game.py::TestBuildGame::test_solutions_are_pinned",)),
    Mutant("numbering-keeps-repeated-successors", "game.py",
           "else tuple(dict.fromkeys(ws)) for ws in succ]",
           "else ws for ws in succ]",
           ("tests/test_game.py::TestNumbering::"
            "test_repeated_successors_are_numbered_once",)),
    Mutant("lift-free-variables-reversed", "oracles.py",
           "return apply(NonTerminal(name), *[Var(v) for v in fvs])",
           "return apply(NonTerminal(name), "
           "*[Var(v) for v in reversed(fvs)])",
           ("tests/test_syntax.py::TestFromLambdaY::"
            "test_lifted_abstraction_takes_its_free_variables_in_order",)),
    Mutant("unfold-raise-path-off-by-one", "syntax.py",
           "path = tuple(len(node[3]) + 1 for node in stack)",
           "path = tuple(len(node[3]) for node in stack)",
           ("tests/test_syntax.py::TestUnfold::"
            "test_first_unresolved_head_is_depth_first",)),
    Mutant("unfold-without-sharing", "syntax.py",
           "tree = shared.get(key)",
           "tree = None",
           ("tests/test_syntax.py::TestUnfold::"
            "test_equal_subtrees_are_one_object",)),
    Mutant("whole-subtree-reused-below-its-height", "syntax.py",
           "if height > left:",
           "if cut and height > left:",
           ("tests/test_syntax.py::TestUnfold::"
            "test_whole_subtree_is_cut_where_too_few_levels_remain",
            "tests/test_syntax.py::TestUnfold::"
            "test_fixture_unfoldings_are_the_oracle_trees")),
    Mutant("truncation-keeps-leaves-on-the-last-level", "syntax.py",
           "elif levels == 1:\n                    built.append(BOTTOM)",
           "elif levels == 1:\n                    built.append("
           "BOTTOM if child.children else child)",
           ("tests/test_syntax.py::TestUnfold::"
            "test_terms_recurring_with_fewer_levels",)),
    Mutant("cut-tree-reused-at-more-levels", "syntax.py",
           "elif cut and height < left:",
           "elif cut and height < left - 1:",
           ("tests/test_syntax.py::TestUnfold::"
            "test_terms_recurring_with_fewer_levels",)),
    Mutant("truncation-memo-keyed-without-levels", "syntax.py",
           "key = (id(tree), levels)",
           "key = id(tree)",
           ("tests/test_syntax.py::TestUnfold::"
            "test_terms_recurring_with_fewer_levels",)),
    Mutant("printed-slice-ends-before-its-paren", "syntax.py",
           'out.append(")")\n            ends[item] = len(out)',
           'ends[item] = len(out)\n            out.append(")")',
           ("tests/test_syntax.py::TestFormatTree::"
            "test_shared_subtree_at_two_depths_under_two_labels",
            "tests/test_syntax.py::TestFormatTree::"
            "test_fixture_unfoldings_print_as_the_naive_printer")),
    Mutant("conjunction-dnf-starts-empty", "automata.py",
           "clauses = frozenset({frozenset()})",
           "clauses = frozenset()",
           ("tests/test_automata.py::TestDnf::"
            "test_true_is_the_empty_clause",
            "tests/test_automata.py::TestDnf::"
            "test_soundness_completeness_over_assignments")),
    Mutant("atoms-of-skips-groups", "automata.py",
           "work.extend(f.parts)",
           "work.extend(p for p in f.parts if isinstance(p, Atom))",
           ("tests/test_automata.py::TestValidate::"
            "test_direction_inside_a_group_is_checked",)),
    Mutant("builders-without-splicing", "automata.py",
           "parts.extend(f.parts if isinstance(f, kind) else (f,))",
           "parts.append(f)",
           ("tests/test_automata.py::TestDnf::test_builders_are_flat",
            "tests/test_formats.py::TestAptFormat::"
            "test_groups_of_one_connective_read_flat")),
    Mutant("memo-key-reads-one-color", "typecheck.py",
           "reads = self._reads[c] if terminal_headed else (c,)",
           "reads = self._reads[c][-1:] if terminal_headed else (c,)",
           ("tests/test_typecheck.py::"
            "test_shared_memo_matches_fresh_over_two_state_colors",
            "tests/test_typecheck.py::"
            "test_shared_memo_matches_fresh_on_order1_schemes")),
    Mutant("epsilon-colored-clause-pairs", "typecheck.py",
           "projections.add(frozenset(\n"
           "                    (self.m.omega[q2], StateType(q2))",
           "projections.add(frozenset(\n"
           "                    (EPSILON, StateType(q2))",
           ("tests/test_typecheck.py::"
            "test_head_directed_sets_match_powerset_on_order0_schemes",
            "tests/test_game.py::TestBuildGame::"
            "test_select_output_is_pinned")),
    # Each tied definition substituted into the next nonterminal only.
    Mutant("to-lambda-y-next-only", "oracles.py",
           "for later in names[i + 1:]:",
           "for later in names[i + 1:i + 2]:",
           ("tests/test_syntax.py::"
            "test_lambda_y_translations_on_order0_schemes",)),
    # The definitions are tied, but none is substituted back into the
    # nonterminals declared before it, the start symbol among them.
    Mutant("to-lambda-y-no-back-substitution", "oracles.py",
           "for i in range(len(names) - 2, -1, -1):",
           "for i in range(0):",
           ("tests/test_syntax.py::TestToLambdaY::"
            "test_boehm_tree_agrees_with_unfold",
            "tests/test_syntax.py::"
            "test_lambda_y_translations_on_order0_schemes")),
    Mutant("nonterminal-substitution-stops-at-lam", "oracles.py",
           "return Lam(t.binder, t.binder_sort, "
           "subst_nonterminal(t.body, name, value))",
           "return t",
           ("tests/test_syntax.py::TestToLambdaY::"
            "test_boehm_tree_agrees_with_unfold",
            "tests/test_syntax.py::"
            "test_lambda_y_translations_on_order0_schemes")),
    Mutant("beta-reduces-the-last-argument", "oracles.py",
           "reduced = subst_var(head.body, head.binder, args[0])\n"
           "                term = apply(reduced, *args[1:])",
           "reduced = subst_var(head.body, head.binder, args[-1])\n"
           "                term = apply(reduced, *args[:-1])",
           ("tests/test_syntax.py::TestToLambdaY::"
            "test_boehm_tree_agrees_with_unfold",
            "tests/test_syntax.py::"
            "test_lambda_y_translations_on_order1_schemes")),
    Mutant("substitution-without-rename", "oracles.py",
           "if t.binder in value.free and name in t.body.free:",
           "if False:",
           ("tests/test_syntax.py::"
            "test_substitution_under_a_binder_renames_it",)),
    Mutant("moves-cache-keyed-without-view", "typecheck.py",
           "key = self._memo_key(self.body, target, EPSILON)",
           "key = (self.body, target, EPSILON)",
           ("tests/test_typecheck.py::"
            "test_shared_memo_matches_fresh_on_fixture_games",
            "tests/test_typecheck.py::"
            "test_eve_nodes_with_one_body_view_share_their_moves",
            "tests/test_game.py::TestBuildGame::"
            "test_order2_unary_game_is_pinned")),
    Mutant("variable-options-read-the-raw-set", "typecheck.py",
           "for c2, alpha in self.residual(self.var_env[arg.name],\n"
           "                                                   c).pairs",
           "for c2, alpha in self.var_env[arg.name].pairs",
           ("tests/test_typecheck.py::TestRuleTypings::"
            "test_every_game_derivation_checks",
            "tests/test_game.py::TestBuildGame::"
            "test_order2_unary_game_is_pinned")),
    Mutant("opponent-escape-unchecked", "game.py",
           "elif not all(map(inside.__getitem__, ws)):",
           "elif False:",
           ("tests/test_game.py::TestStrategyChecks::"
            "test_the_opponent_cannot_leave",)),
    # The search then finds the same component again without end, so the
    # killing test runs out of its time.
    Mutant("component-re-searched-with-its-top-nodes", "game.py",
           "parts.append([w for w in comp if prio[w] != top])",
           "parts.append(comp)",
           ("tests/test_game.py::TestStrategyChecks::"
            "test_losing_cycle_inside_a_winning_component",)),
    Mutant("profile-drops-non-ground-entries", "itypes.py",
           "if len(profile[-1]) < len(u.pairs):",
           "if False:",
           ("tests/test_itypes.py::TestIsTerminalType::"
            "test_non_ground_entry_is_false",)),
    Mutant("type-count-stops-at-the-limit", "itypes.py",
           "if d > DEFAULT_ENUM_LIMIT:",
           "if d >= DEFAULT_ENUM_LIMIT:",
           ("tests/test_itypes.py::TestEnumerate::"
            "test_counts_at_the_limit_are_exact",)),
    Mutant("memo-key-without-view", "typecheck.py",
           "return (t, target, c, *[self.residual(self.var_env[x], r)",
           "return (t, target, c)\n"
           "        (t, target, c, *[self.residual(self.var_env[x], r)",
           ("tests/test_typecheck.py::"
            "test_shared_memo_matches_fresh_on_fixture_games",)),
    Mutant("push-without-node-limit", "game.py",
           "if i >= DEFAULT_NODE_LIMIT:",
           "if False:",
           ("tests/test_cli.py::TestSizeGuard::"
            "test_push_guard_names_the_refused_seed",)),
    Mutant("bulk-append-without-node-limit", "game.py",
           "if i + len(succs) > DEFAULT_NODE_LIMIT:",
           "if False:",
           ("tests/test_cli.py::TestSizeGuard::"
            "test_node_guard_names_the_refused_node",)),
    Mutant("interned-values-never-stored", "syntax.py",
           "v = cls._table.setdefault(values, v)",
           "pass",
           ("tests/test_syntax.py::TestInterned::"
            "test_deep_values_hash_and_compare_without_recursion",
            "tests/test_syntax.py::TestInterned::test_reprs_are_pinned")),
    Mutant("application-free-from-function-only", "syntax.py",
           "self.free = f if a == f or not a else",
           "self.free = f if True else",
           ("tests/test_syntax.py::TestInterned::"
            "test_terms_carry_their_free_variables_in_name_order",
            "tests/test_syntax.py::TestUnfold::test_depth_four_prefix")),
    Mutant("substitution-skips-open-subterms", "syntax.py",
           "if not t.free:\n        return t",
           "if t.free:\n        return t",
           ("tests/test_syntax.py::TestUnfold::test_depth_four_prefix",
            "tests/test_syntax.py::TestToLambdaY::"
            "test_boehm_tree_agrees_with_unfold")),
    # The first node of a symbol decides its state check for every other.
    Mutant("node-state-checked-once-per-symbol", "selection.py",
           "if annotated_state != state:",
           "if labels.setdefault((label, 'state'),\n"
           "                              annotated_state != state):",
           ("tests/test_cli.py::TestBrokenWitness::"
            "test_report_on_recurring_symbols"
            "[state-right-at-one-node-wrong-at-another]",)),
    Mutant("head-normal-memo-keyed-by-spine-head", "selection.py",
           "normal = normals[part].get(term)\n"
           "        if normal is None:\n"
           "            normal = normals[part][term] =",
           "key = term\n"
           "        while isinstance(key, App):\n"
           "            key = key.function\n"
           "        normal = normals[part].get(key)\n"
           "        if normal is None:\n"
           "            normal = normals[part][key] =",
           ("tests/test_selection.py::TestVerifyWork::"
            "test_report_is_pinned[ex1]",)),
    Mutant("symbol-facts-outlive-the-call", "selection.py",
           "labels: dict[str, tuple | str] = {}",
           "labels = globals().setdefault('_LABELS', {})",
           ("tests/test_selection.py::TestVerifyWork::"
            "test_symbol_facts_do_not_outlive_a_call",)),
    Mutant("witness-read-one-level-deeper", "selection.py",
           "if level >= depth:",
           "if level > depth:",
           ("tests/test_selection.py::TestVerifyWork::"
            "test_report_is_pinned[ex1]",
            "tests/test_selection.py::TestVerifyWork::"
            "test_report_is_pinned[order2_unary]",
            "tests/test_selection.py::TestVerifyWork::"
            "test_report_is_pinned[grow]")),
    # One list in all three fields, as a shared default would give.
    Mutant("run-report-lists-shared", "selection.py",
           "report = RunReport(depth, [], [], [])",
           "report = RunReport(depth, *[[]] * 3)",
           ("tests/test_selection.py::TestVerifyWork::"
            "test_report_is_pinned[ex1]",)),
    Mutant("top-seed-moves-to-greatest-successor", "game.py",
           "strategy[v] = min(w for w in succ[v] if active[w])",
           "strategy[v] = max(w for w in succ[v] if active[w])",
           ("tests/test_game.py::TestBuildGame::test_solutions_are_pinned",)),
    Mutant("strategy-check-without-region-test", "game.py",
           "if ws[0] not in succ[i] or not inside[ws[0]]:",
           "if ws[0] not in succ[i]:",
           ("tests/test_game.py::TestStrategyChecks::"
            "test_claims_are_checked",)),
    Mutant("strategy-check-without-edge-test", "game.py",
           "if ws[0] not in succ[i] or not inside[ws[0]]:",
           "if ws[0] is None or not inside[ws[0]]:",
           ("tests/test_game.py::TestStrategyChecks::"
            "test_claims_are_checked",)),
    Mutant("strategy-check-skips-search-below-even-top", "game.py",
           "parts.append([w for w in comp if prio[w] != top])",
           "pass",
           ("tests/test_game.py::TestStrategyChecks::"
            "test_losing_cycle_inside_a_winning_component",)),
    Mutant("clause-sets-reversed", "typecheck.py",
           "key=lambda pick: (len(pick), pick))",
           "key=lambda pick: (len(pick), pick), reverse=True)",
           ("tests/test_typecheck.py::"
            "test_head_directed_sets_match_powerset_on_order0_schemes",)),
    # Reads position n + k + 1 - j for j; the two agree below arity 3.
    Mutant("clause-cover-reads-the-wrong-later-position", "typecheck.py",
           "in later[j - k - 1]",
           "in later[k - j]",
           ("tests/test_oracle.py::test_sequent_game_matches_product_game",)),
    Mutant("first-clause-set-only", "typecheck.py",
           "return [tuple(options[i] for i in pick) for pick in picks]",
           "return [tuple(options[i] for i in pick) for pick in picks[:1]]",
           ("tests/test_oracle.py::test_sequent_game_matches_product_game",
            "tests/test_oracle.py::"
            "test_fixpoint_matches_zielonka_on_order0_schemes")),
    Mutant("dot-children-walked-right-to-left", "formats.py",
           "work.extend((child, me) for child in reversed(node.children))",
           "work.extend((child, me) for child in node.children)",
           ("tests/test_cli.py::TestUnfold::"
            "test_dot_numbers_children_left_to_right",)),
    Mutant("dot-edge-line-before-its-subtree", "formats.py",
           'work.append(f"  {parent} -> {me};")',
           'lines.append(f"  {parent} -> {me};")',
           ("tests/test_cli.py::TestUnfold::"
            "test_deep_prefix_is_its_closed_form",
            "tests/test_cli.py::TestUnfold::"
            "test_dot_numbers_children_left_to_right")),
    Mutant("fixpoint-nu-mu-flipped", "oracles.py",
           "current = set(sequents) if p % 2 == 0 else set()",
           "current = set(sequents) if p % 2 else set()",
           ("tests/test_oracle.py::"
            "test_fixpoint_matches_zielonka_on_fixture_pairs",
            "tests/test_oracle.py::"
            "test_fixpoint_matches_zielonka_on_order0_schemes")),
    # The neutral color and color 0 both read as priority 1.
    Mutant("fixpoint-color-shift-dropped", "oracles.py",
           "priority = {c: c + 2 for c in cols}",
           "priority = {c: max(c, 0) + 1 for c in cols}",
           ("tests/test_oracle.py::"
            "test_fixpoint_matches_zielonka_on_fixture_pairs",
            "tests/test_oracle.py::"
            "test_fixpoint_matches_zielonka_on_order0_schemes",
            "tests/test_oracle.py::"
            "test_fixpoint_matches_zielonka_on_order1_schemes")),
    Mutant("witness-divergence-at-the-original-path", "selection.py",
           "raise UnresolvedWithinBudget(path_of(link, part),",
           "raise UnresolvedWithinBudget(path_of(link, 2),",
           ("tests/test_cli.py::TestBrokenWitness::"
            "test_report_on_divergent_witnesses"
            "[divergence-named-at-the-run-path]",)),
    # Each code in a type's key must be prefix-free.
    Mutant("state-code-unterminated", "itypes.py",
           'name.replace(b"\\x00", b"\\x00\\x01") + b"\\x00\\x00"',
           'name.replace(b"\\x00", b"\\x00\\x01")',
           ("tests/test_itypes.py::TestOrderKey::"
            "test_bytes_order_is_the_nested_tuple_order",)),
    Mutant("color-code-without-length", "itypes.py",
           'return head + n.to_bytes(size, "big")',
           'return n.to_bytes(size, "big")',
           ("tests/test_itypes.py::TestOrderKey::"
            "test_bytes_order_is_the_nested_tuple_order",)),
]


def run_tests(src: Path, ids, timeout: float | None = None
              ) -> tuple[int | None, str]:
    """pytest's exit code and last line on `ids`, with `src` as the import
    path of `horsmc` and no stored hypothesis examples; None and a note
    when the run is stopped after `timeout` seconds."""
    # Each run starts from an empty example database of its own, so a drawn
    # test finds a mutant by drawing, never by replaying what an earlier run
    # (of this runner, or of pytest in the checkout) stored.
    with tempfile.TemporaryDirectory(dir=src.parent) as examples:
        try:
            r = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p",
                 "no:cacheprovider", "-o", f"pythonpath={src}", *ids],
                cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src),
                               # A mutant of the same size as its snippet
                               # must not reuse bytecode cached for the
                               # other text.
                               "PYTHONDONTWRITEBYTECODE": "1",
                               "HYPOTHESIS_STORAGE_DIRECTORY": examples},
                capture_output=True, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None, f"stopped after {timeout:.0f} s"
    lines = (r.stdout + r.stderr).strip().splitlines()
    return r.returncode, lines[-1] if lines else ""


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        ids = sorted({t for m in chosen for t in m.tests})
        took: dict[str, float] = {}
        for t in ids:
            start = time.perf_counter()
            code, last = run_tests(src, [t])
            took[t] = time.perf_counter() - start
            if code != 0:
                bad += 1
                print(f"FAILS UNMUTATED {t}: {last}")
        for m in chosen:
            path = src / "horsmc" / m.file
            text = path.read_text()
            if text.count(m.snippet) != 1:
                bad += 1
                print(f"STALE {m.name}: snippet occurs "
                      f"{text.count(m.snippet)} times in {m.file}")
                continue
            path.write_text(text.replace(m.snippet, m.replacement))
            try:
                code, last = run_tests(src, m.tests, TIMEOUT_FACTOR * sum(
                    took[t] for t in m.tests) + TIMEOUT_SLACK_S)
            finally:
                path.write_text(text)
            if code == 0:
                bad += 1
                print(f"SURVIVED {m.name}")
            elif code is None:
                print(f"killed {m.name} ({last})")
            else:
                print(f"killed {m.name} (pytest exit {code}: {last})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
