"""Census of the production path: the functions that no command enters.

It loads `horsmc.cli`, then runs `horsmc.cli.main` in this process under a
`sys.settrace` call tracer over every case of `same_program.cases()` and a
few more command lines (`EXTRA`): a witness written by `select -o` and read
back by `verify --witness`, a scheme that does not parse, an unknown state
and a rewriting-budget failure.  It then lists each function defined in the
modules that `import horsmc.cli` loads that no case entered, with its
non-blank lines, and each name a module imports from another `horsmc`
module and never reads.  Both lists are checked against `ALLOWED`, the
names that stay for a reason no command shows.  Run from anywhere:

    python tests/census.py

It exits 1 when an unlisted function or import is never used, or when a
listed one now is.  pytest does not collect this file; `test_census.py`
checks, in tier-1, that every `ALLOWED` entry names a function or import
that exists.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

# Qualified name (module, then class or enclosing function, then name) ->
# why it stays although no command enters or reads it.
ALLOWED = {
    "automata.Atom.__repr__":
        "prints a formula's atoms as the automaton file writes them, in "
        "assertion messages (test_printed_formulas_read_back); pinned by "
        "test_reprs_are_pinned",
    "game.ParityGame.edges":
        "derived from the numbering when first read; successors reads "
        "through it, horsbench/tracing.py counts game.edges by it and the "
        "tests compare games by it",
    "game.ParityGame.owner":
        "derived from the numbering when first read; horsbench/certify.py "
        "and oracles.solve_brute read owners by it",
    "game.ParityGame.priority":
        "derived from the numbering when first read; horsbench/certify.py, "
        "calibrate.py and tracing.py (game.priorities), oracles.solve_brute "
        "and demo 03 read priorities by it",
    "game.ParityGame.successors":
        "horsbench/calibrate.py and certify.py read a node's moves by it",
    "game._Node.__getnewargs__":
        "pickling a game node; without it unpickling raises AttributeError",
    "game._Node.__init_subclass__":
        "runs at import, before tracing starts",
    "game._Node.__ne__":
        "without it tuple.__ne__ would compare a node with any tuple",
    "game._Node.__repr__":
        "names a game node's fields in assertion messages, where a tuple "
        "would lead with its hash; pinned by test_reprs_are_pinned",
    "game._region_won":
        "the body of check_eve_strategy and check_adam_strategy",
    "game.build_game.refuse":
        "the node guard at 200,000 nodes, past every fixture's game; "
        "TestSizeGuard reaches it with a lowered limit",
    "game.check_adam_strategy":
        "self-checks Adam's strategy in tier-1; ROADMAP item 2 puts both "
        "strategy checks on check",
    "game.check_eve_strategy":
        "horsbench/certify.py certifies Eve's strategy with it; ROADMAP "
        "item 2 puts both strategy checks on check",
    "selection.unfold":
        "horsbench/tracing.py TARGETS wraps this binding; ROADMAP item 1 "
        "drops both",
    "syntax.Arrow.__repr__":
        "prints a sort inside the reprs that error messages print: a "
        "lambda-Y body that infer_sort rejects, sorts oracles cannot unify",
    "syntax.Ground.__repr__":
        "prints a sort inside the reprs that error messages print, as "
        "Arrow.__repr__ does",
    "syntax.IllFormedScheme.__init__":
        "require_wellformed raises it for library callers of unfold, "
        "build_game and extract_scheme; the CLI checks schemes first and "
        "prints each diagnostic on its own line",
    "syntax.Interned.__init_subclass__":
        "runs at import, before tracing starts",
    "syntax.Interned.__reduce__":
        "pickling an interned value gives the table's instance; without it "
        "unpickling raises AttributeError; __repr__ reads the fields by it",
    "syntax.Interned.__repr__":
        "error messages print terms and types by it: infer_sort's non-term "
        "body, rule_typings' type of the wrong arity, ReconstructionError",
}

# Scheme texts the extra command lines read, written to a temporary
# directory beside the fixtures' copies.
BAD_SCHEME = ("terminals:\n  a : 1\nnonterminals:\n  S : o\nstart: S\n"
              "rules:\n  S = a (\n")
STUCK_SCHEME = ("terminals:\n  a : 1\nnonterminals:\n  S : o\nstart: S\n"
                "rules:\n  S = S\n")
# Command lines beyond `same_program.cases()`, run from the fixtures
# directory; `{tmp}` is the temporary directory.  The `select -o` line
# writes the witness that the next line reads back.  The size guard needs
# no line here: `order2_two.hors` over `ex1.apt` is one of the cases.
EXTRA = [
    ("select", "ex1.hors", "ex1.apt", "-o", "{tmp}/witness.hors"),
    ("verify", "ex1.hors", "ex1.apt", "--witness", "{tmp}/witness.hors"),
    ("check", "{tmp}/bad.hors", "ex1.apt"),
    ("check", "ex1.hors", "ex1.apt", "-q", "nowhere"),
    ("unfold", "{tmp}/stuck.hors"),
]


def functions(path: Path) -> dict[tuple[str, int], tuple[str, int]]:
    """(file, first line of the code object) -> (qualified name, non-blank
    lines) for each `def` in a module, methods and nested functions
    included.  A decorated function's code starts at its first decorator."""
    lines = path.read_text().splitlines()
    found = {}

    def visit(node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                name = f"{prefix}.{child.name}"
                first = min([child.lineno]
                            + [d.lineno for d in child.decorator_list])
                size = sum(1 for line in
                           lines[first - 1:child.end_lineno] if line.strip())
                found[str(path), first] = name, size
                visit(child, name)
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text()), path.stem)
    return found


def imports(path: Path) -> list[str]:
    """`module.name` for each name a module imports from within the
    package."""
    return [f"{path.stem}.{a.asname or a.name}"
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ImportFrom) and node.level
            for a in node.names]


def unread_imports(path: Path) -> list[str]:
    """The `imports` of a module that it never reads.  The package's
    `__init__` only re-exports, so it reads none of its imports and is left
    out."""
    if path.name == "__init__.py":
        return []
    read = {n.id for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.Name)}
    return [name for name in imports(path)
            if name.split(".", 1)[1] not in read]


def census() -> tuple[dict[str, int], list[str], int]:
    """The functions no case enters (qualified name -> non-blank lines),
    the imports no module reads, and the number of cases run."""
    from horsmc.cli import main  # loads the production path
    from same_program import FIXTURES, cases

    paths = sorted(Path(m.__file__) for n, m in sys.modules.items()
                   if n.split(".")[0] == "horsmc")
    defined: dict[tuple[str, int], tuple[str, int]] = {}
    for path in paths:
        defined.update(functions(path))
    entered: set[tuple[str, int]] = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        entered.add((code.co_filename, code.co_firstlineno))

    todo = [list(c) for c in cases()]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "bad.hors").write_text(BAD_SCHEME)
        (Path(tmp) / "stuck.hors").write_text(STUCK_SCHEME)
        todo += [[a.format(tmp=tmp) for a in c] for c in EXTRA]
        os.chdir(FIXTURES)
        sys.settrace(tracer)
        try:
            for argv in todo:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    main(argv)
        finally:
            sys.settrace(None)
            os.chdir(here)
    unentered = {name: size for key, (name, size) in defined.items()
                 if key not in entered}
    unread = [name for path in paths for name in unread_imports(path)]
    return unentered, unread, len(todo)


def main() -> int:
    start = time.perf_counter()
    unentered, unread, n = census()
    print(f"{n} cases in {time.perf_counter() - start:.1f} s; "
          f"{len(unentered)} functions ({sum(unentered.values())} non-blank "
          f"lines) never entered, {len(unread)} imports never read")
    unused = {name: f"{size} lines" for name, size in unentered.items()}
    unused.update((name, "import") for name in unread)
    bad = 0
    for name, what in sorted(unused.items()):
        bad += name not in ALLOWED
        mark = "allowed" if name in ALLOWED else "UNLISTED"
        print(f"  {mark:8} {name} ({what})")
    for name in sorted(set(ALLOWED) - set(unused)):
        bad += 1
        print(f"  USED     {name}: listed, but a case now enters or reads it")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
