"""Command-line frontend.

Exit codes: 0 for a positive verdict (or plain success), 1 for a negative
verdict, 2 for usage or input errors: a parse error, an invalid
automaton, an ill-formed scheme or witness, 3 when a limit stops the
computation: a size guard, the rewriting budget or Python's recursion
limit, 4 for an internal error, an unexpected exception, reported on one
`internal error:` line.  Verdict text goes to standard output, diagnostics
to standard error; `--quiet` suppresses standard output so scripts can rely
on the exit code alone.
"""

from __future__ import annotations

import argparse
import sys

from .automata import Apt
from .formats import (ParseError, parse_annotated, parse_apt, parse_hors,
                      print_annotated, print_tree, tree_to_dot)
from .game import (EveNode, Solution, accepted_states, build_game, to_dot,
                   zielonka)
from .itypes import SizeGuardExceeded, StateType
from .selection import extract_scheme, format_report, verify_runtree
from .syntax import Hors, UnresolvedWithinBudget, check_wellformed, unfold


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}", 2)


def _parse(path: str, parse, *args):
    try:
        return parse(_read(path), *args)
    except ParseError as e:
        raise CliError(f"{path}:{e.line}:{e.col}: {e.msg}", 2)


def _require_wellformed(path: str, h: Hors) -> None:
    diags = check_wellformed(h)
    if diags:
        raise CliError("\n".join(f"{path}: {d}" for d in diags), 2)


def _load_hors(path: str) -> Hors:
    h = _parse(path, parse_hors)
    _require_wellformed(path, h)
    return h


def _load_apt(path: str, h: Hors) -> Apt:
    m = _parse(path, parse_apt, h.terminals)
    try:
        m.validate()
    except ValueError as e:
        raise CliError(f"{path}: {e}", 2)
    return m


def _pick_state(args, m: Apt) -> str:
    q = args.state or m.initial
    if q not in m.states:
        raise CliError(f"unknown state '{q}'", 2)
    return q


def _emit(args, text: str) -> None:
    if not args.quiet:
        sys.stdout.write(text)


def _write_out(args, text: str) -> None:
    if args.output and args.output != "-":
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise CliError(f"{args.output}: {e.strerror or e}", 2)
    else:
        _emit(args, text)


def _decide(h: Hors, m: Apt, q: str) -> tuple[Solution, bool]:
    """The solved game seeded at state `q`, and whether `q` is accepted."""
    sol = zielonka(build_game(h, m, states=[q]))
    return sol, EveNode(h.start, StateType(q)) in sol.win_eve


def cmd_check(args) -> int:
    h = _load_hors(args.scheme)
    m = _load_apt(args.automaton, h)
    _, accepted = _decide(h, m, _pick_state(args, m))
    _emit(args, ("ACCEPT" if accepted else "REJECT") + "\n")
    return 0 if accepted else 1


def cmd_states(args) -> int:
    h = _load_hors(args.scheme)
    m = _load_apt(args.automaton, h)
    accepted = accepted_states(h, m)
    for q in m.states:
        if q in accepted:
            _emit(args, q + "\n")
    return 0


def cmd_select(args) -> int:
    h = _load_hors(args.scheme)
    m = _load_apt(args.automaton, h)
    q = _pick_state(args, m)
    sol, accepted = _decide(h, m, q)
    if not accepted:
        sys.stderr.write(f"state '{q}' rejected; no witness exists\n")
        return 1
    witness = extract_scheme(h, m, sol, q)
    _write_out(args, print_annotated(witness))
    return 0


def cmd_unfold(args) -> int:
    h = _load_hors(args.scheme)
    tree = unfold(h, args.depth)
    if args.dot:
        _write_out(args, tree_to_dot(tree))
    else:
        _write_out(args, print_tree(tree) + "\n")
    return 0


def cmd_verify(args) -> int:
    h = _load_hors(args.scheme)
    m = _load_apt(args.automaton, h)
    q = _pick_state(args, m)
    if args.witness:
        witness = _parse(args.witness, parse_annotated)
        _require_wellformed(args.witness, witness.hors)
    else:
        sol, accepted = _decide(h, m, q)
        if not accepted:
            sys.stderr.write(f"state '{q}' rejected; nothing to verify\n")
            return 1
        witness = extract_scheme(h, m, sol, q)
    report = verify_runtree(witness, h, m, q, args.depth)
    _emit(args, format_report(report) + "\n")
    return 0 if report.passed else 1


def cmd_dump_game(args) -> int:
    h = _load_hors(args.scheme)
    m = _load_apt(args.automaton, h)
    states = [_pick_state(args, m)] if args.state else None
    g = build_game(h, m, states=states)
    _write_out(args, to_dot(g))
    return 0


def _depth(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"negative depth {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="horsmc",
        description="Model-check a recursion scheme against an alternating "
                    "parity tree automaton; extract and verify run-tree "
                    "witness schemes.")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress stdout; rely on exit codes")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, scheme=True, automaton=True, state=False,
            depth=None, output=False):
        p = sub.add_parser(name, help=help_)
        if scheme:
            p.add_argument("scheme", help="scheme file")
        if automaton:
            p.add_argument("automaton", help="automaton file")
        if state:
            p.add_argument("-q", "--state", default=None,
                           help="state to test (default: the initial state)")
        if depth is not None:
            p.add_argument("-d", "--depth", type=_depth, default=depth,
                           help=f"unfolding depth (default {depth})")
        if output:
            p.add_argument("-o", "--output", default=None,
                           help="output file ('-' or omitted: stdout)")
        p.set_defaults(func=fn)
        return p

    add("check", cmd_check, "decide acceptance from one state", state=True)
    add("states", cmd_states, "list all accepted states")
    add("select", cmd_select, "write the witness scheme for a state",
        state=True, output=True)
    p_unfold = add("unfold", cmd_unfold, "print a finite value-tree prefix",
                   automaton=False, depth=5, output=True)
    p_unfold.add_argument("--dot", action="store_true",
                          help="emit the prefix as a DOT graph")
    p_verify = add("verify", cmd_verify,
                   "verify a witness run-tree at finite depth",
                   state=True, depth=10)
    p_verify.add_argument("--witness", default=None,
                          help="annotated scheme file (default: extract one)")
    add("dump-game", cmd_dump_game, "emit the parity game as a DOT graph",
        state=True, output=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except CliError as e:
        sys.stderr.write(str(e) + "\n")
        return e.code
    except SizeGuardExceeded as e:
        sys.stderr.write(f"size guard: {e}\n")
        return 3
    except UnresolvedWithinBudget as e:
        sys.stderr.write(f"rewriting budget: {e}\n")
        return 3
    except RecursionError as e:
        sys.stderr.write(f"recursion limit: {e}\n")
        return 3
    except Exception as e:
        # A fault of the program, not a verdict: exit 1 would read as REJECT.
        sys.stderr.write(f"internal error: {type(e).__name__}: {e}\n")
        return 4


if __name__ == "__main__":
    sys.exit(main())
