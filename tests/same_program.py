"""Same-program check: two checkouts give byte-identical CLI output.

For every pair of a scheme and an automaton in `horsbench/fixtures` (42
pairs) whose automaton reads over the scheme's alphabet (13 pairs), it runs
`check`, `states`, `select`, `verify` and `dump-game` with their default
options, and `verify -d 16`.  On each of the other 29 pairs every command
stops with the same error while it loads the automaton, so only `check`
runs there.  On each of the 6 schemes it runs `unfold`, `unfold -d 40` and
`unfold --dot -d 3`: 125 cases.  Each runs at `PYTHONHASHSEED=0`, once
with this checkout's `src/` and once with the other checkout's, and the
two are compared by exit code, stdout and stderr.  Both sides read the
fixtures of this checkout, from inside their directory, so the file names
in messages agree.  Run from anywhere:

    python tests/same_program.py OTHER_CHECKOUT

It prints each case that differs and exits 1 on any difference, 0 when
every case agrees.  pytest does not collect this file; `test_same_program.py`
checks, in tier-1, that the case list covers every pair and command.
"""

from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
from horsmc.formats import ParseError, parse_apt, parse_hors  # noqa: E402

FIXTURES = ROOT / "horsbench" / "fixtures"
COMMANDS = ("check", "states", "select", "verify", "dump-game")
# Options of the further `verify` on each matched pair: deep enough that
# the run's symbols and terms recur.
DEEP_VERIFY = ("-d", "16")
# `unfold` reads a scheme alone: its options, after the scheme.
# Depth 40 takes `ex1` and `grow` well into the half cut by the depth bound.
UNFOLDS = ((), ("-d", "40"), ("--dot", "-d", "3"))
WORKERS = 2  # child processes at a time
TIMEOUT_S = 600


def matched(scheme: str, apt: str) -> bool:
    """Whether this checkout's readers take the automaton over the scheme's
    ranked alphabet, so that a command on the pair gets past loading it."""
    h = parse_hors((FIXTURES / scheme).read_text())
    try:
        parse_apt((FIXTURES / apt).read_text(), h.terminals).validate()
    except (ParseError, ValueError):
        return False
    return True


def cases() -> list[tuple[str, ...]]:
    """The command lines: (command, scheme, automaton) for each command on
    each matched fixture pair, then ("verify", scheme, automaton,
    *DEEP_VERIFY) on it; ("check", scheme, automaton) on each other pair;
    then ("unfold", scheme, *options) for each scheme, the files named
    inside `FIXTURES`."""
    schemes = sorted(p.name for p in FIXTURES.glob("*.hors"))
    automata = sorted(p.name for p in FIXTURES.glob("*.apt"))
    out: list[tuple[str, ...]] = []
    for scheme in schemes:
        for apt in automata:
            if matched(scheme, apt):
                out += [(command, scheme, apt) for command in COMMANDS]
                out.append(("verify", scheme, apt, *DEEP_VERIFY))
            else:
                out.append(("check", scheme, apt))
    return out + [("unfold", scheme, *options) for scheme in schemes
                  for options in UNFOLDS]


def run(checkout: Path, case: tuple[str, ...]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one case under `checkout`'s code."""
    r = subprocess.run(
        [sys.executable, "-m", "horsmc.cli", *case], cwd=FIXTURES,
        env={**os.environ, "PYTHONHASHSEED": "0",
             "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, timeout=TIMEOUT_S)
    return r.returncode, r.stdout, r.stderr


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "horsmc").is_dir():
        print(__doc__.strip().splitlines()[0])
        print("usage: python tests/same_program.py OTHER_CHECKOUT")
        return 2
    other = Path(argv[0]).resolve()
    todo = cases()
    with ThreadPoolExecutor(WORKERS) as pool:
        mine = list(pool.map(lambda case: run(ROOT, case), todo))
        theirs = list(pool.map(lambda case: run(other, case), todo))
    differ = 0
    for case, a, b in zip(todo, mine, theirs):
        if a != b:
            differ += 1
            print(f"DIFFERS {' '.join(case)}: exit {a[0]} here, {b[0]} "
                  f"there; stdout {'same' if a[1] == b[1] else 'differs'}, "
                  f"stderr {'same' if a[2] == b[2] else 'differs'}")
    codes: dict[int, int] = {}
    for code, _, _ in mine:
        codes[code] = codes.get(code, 0) + 1
    print(f"{len(todo)} cases, {differ} differ; exit codes here: "
          + ", ".join(f"{n} exit {c}" for c, n in sorted(codes.items())))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
