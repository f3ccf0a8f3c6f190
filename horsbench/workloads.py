"""The four workloads: fixed fixtures, seeded generators and known answers.

Every operation is a plain dict that survives a JSON round trip, so the
parent process can hand it to a fresh worker.  Scheme and automaton texts
are generated here, never printed by the program under test, and the
known answer of every generated order-0 instance comes from `oracle`.

Operation kinds:
  check  parse the texts, decide `state`, compare with `expect`; when
         accepted, extract the witness, print and re-parse it and verify it
         at `depth`; with `unfold`, also unfold the scheme to `depth` and
         print the tree.
  solve  solve a parity game with `zielonka`; the game is a synthetic
         family member or the sequent game of fixture texts, built before
         the timed region.
"""

from __future__ import annotations

import random
from pathlib import Path

from oracle import decide_order0

FIXTURES = Path(__file__).resolve().parent / "fixtures"

ACCEPT, REJECT = "ACCEPT", "REJECT"


def fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def check_op(name, hors, apt, state, expect, depth=None, unfold=False,
             reason="", repeat=1):
    """`repeat` > 1 times the witness path that often and keeps the median:
    for cheap witnesses of which a pass has too few to outweigh noise."""
    return {"kind": "check", "name": name, "hors": hors, "apt": apt,
            "state": state, "expect": expect, "depth": depth,
            "unfold": unfold, "reason": reason, "repeat": repeat}


# ---------------------------------------------------------------------------
# Fixed fixtures with hand-derived answers

def ex1_ops():
    reason = ("all colors are 0 and every transition on the value tree "
              "if Nil (if (data Nil) ...) is satisfiable, so every run is "
              "accepting")
    return [check_op(f"ex1.{q}", fixture("ex1.hors"), fixture("ex1.apt"), q,
                     ACCEPT, depth=8, reason=reason)
            for q in ("q0", "q1")]


def order2_ops():
    """`order2_unary` runs last, so that its witness repeats do not keep its
    game alive while the twin builds and inflate the peak RSS."""
    unary = fixture("order2_unary.hors")
    return [
        check_op("order2_unary_c1", unary, fixture("order2_unary_c1.apt"),
                 "q", REJECT,
                 reason="the rightmost b branch is infinite and sees only "
                        "color 1"),
        check_op("order2_two", fixture("order2_two.hors"),
                 fixture("ex1.apt"), "q0", ACCEPT, depth=8,
                 reason="the tree is if (data Nil) (if (data Nil) ...); "
                        "every transition is satisfiable and all colors "
                        "are 0; today the size guard aborts it"),
        check_op("order2_unary", unary, fixture("order2_unary_c0.apt"), "q",
                 ACCEPT, depth=200, repeat=40,
                 reason="one state of color 0 with every transition "
                        "satisfiable: every branch is accepting"),
    ]


# (name, scheme, automaton, state, reason for the known answer) of the
# replay schemes.  All are accepted, check in milliseconds and have unary
# run trees, so selection and unfolding do the work.
REPLAY_FIXTURES = [
    ("loop", "loop.hors", "loop_c2.apt", "q",
     "the only branch is infinite and sees only color 2"),
    ("mutual", "mutual.hors", "mutual.apt", "p",
     "the only branch alternates colors 2 and 1, maximum 2"),
    ("grow", "grow.hors", "grow.apt", "q",
     "the run follows the a spine, color 2; left children are never read"),
]

# Depths past this raise RecursionError today (known failure, kept).
REPLAY_FAIL_DEPTH = 520


def expected_tree(name: str, depth: int) -> str:
    """Closed form of `print_tree(unfold(h, depth))` for a replay scheme."""
    if name == "loop":
        return "(a " * depth + "_|_" + ")" * depth
    if name == "mutual":
        labels = ["a" if i % 2 == 0 else "b" for i in range(depth)]
        return "".join(f"({s} " for s in labels) + "_|_" + ")" * depth
    return _grow_tree(depth)


def _grow_tree(depth: int) -> str:
    """Level k of the spine is a (b^k c) (...), each part cut at the
    depth bound; built without recursion."""
    parts = []
    for level in range(depth):
        room = depth - level - 1  # levels left for the left child
        if room <= 0:
            left = "_|_"
        elif level < room:
            left = "(b " * level + "(c)" + ")" * level
        else:
            left = "(b " * room + "_|_" + ")" * room
        parts.append(f"(a {left} ")
    return "".join(parts) + "_|_" + ")" * depth


def replay_ops(rng: random.Random):
    """Twenty depths per scheme, one drawn from each twentieth of [25, 300],
    and one known-failure depth per scheme.  With twenty operations per
    scheme the eleventh largest verdict time falls inside one scheme's block,
    not on the boundary between two."""
    ops = []
    for name, hors, apt, q, reason in REPLAY_FIXTURES:
        h_text, a_text = fixture(hors), fixture(apt)
        for k in range(20):
            d = rng.randint(25 + k * 275 // 20, 25 + (k + 1) * 275 // 20 - 1)
            ops.append(check_op(f"{name}.d{d}", h_text, a_text, q, ACCEPT,
                                depth=d, unfold=True, reason=reason))
        ops.append(check_op(f"{name}.d{REPLAY_FAIL_DEPTH}", h_text, a_text,
                            q, ACCEPT, depth=REPLAY_FAIL_DEPTH, unfold=True,
                            reason=reason))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Generated order-0 corpus

ALPHABET = (("a", 2), ("b", 1), ("c", 0))
STATES = ("q0", "q1")


def _formula(rng: random.Random, arity: int):
    """A transition as a list of clauses (each a sorted tuple of atoms);
    [] is false, [()] is true."""
    if arity == 0:
        return [()] if rng.random() < 0.85 else []
    if rng.random() < 0.08:
        return []
    atoms = [(d, q) for d in range(1, arity + 1) for q in STATES]
    clauses = set()
    for _ in range(rng.choice((1, 1, 2))):
        k = rng.choice((1, 1, 2)) if arity > 0 else 0
        clauses.add(tuple(sorted(rng.sample(atoms, k))))
    return sorted(clauses)


def _term(rng: random.Random, names, depth: int):
    """A terminal-headed term of at most `depth` levels.  Arguments are
    nonterminals, the leaf c, or (room permitting) nested terms."""
    sym, arity = rng.choice(ALPHABET[:2]) if depth > 1 else ("c", 0)
    args = []
    for _ in range(arity):
        r = rng.random()
        if r < 0.55:
            args.append(("n", rng.choice(names)))
        elif r < 0.75 or depth <= 2:
            args.append(("t", "c", ()))
        else:
            args.append(_term(rng, names, depth - 1))
    return ("t", sym, tuple(args))


def _render_term(t, top=True) -> str:
    if t[0] == "n":
        return t[1]
    _, sym, args = t
    if not args:
        return sym
    text = " ".join([sym] + [_render_term(a, False) for a in args])
    return text if top else f"({text})"


def _render_formula(clauses) -> str:
    if () in clauses:
        return "true"
    return " \\/ ".join(" /\\ ".join(f"({d},{q})" for d, q in clause)
                        for clause in clauses)


def generate_order0(rng: random.Random, index: int):
    """One order-0 instance: scheme rules, automaton and texts."""
    n = 2 + index % 4  # 2..5 nonterminals, evenly spread
    names = ["S"] + [f"F{i}" for i in range(1, n)]
    rules = {x: _term(rng, names, 3) for x in names}
    omega = {q: rng.randint(0, 1) for q in STATES}
    delta = {(q, a): _formula(rng, ar) for q in STATES for a, ar in ALPHABET}
    hors = ["terminals:"] + [f"  {a} : {ar}" for a, ar in ALPHABET]
    hors += ["nonterminals:"] + [f"  {x} : o" for x in names]
    hors += ["start: S", "rules:"]
    hors += [f"  {x} = {_render_term(rules[x])}" for x in names]
    apt = [f"states: {' '.join(STATES)}", "initial: q0", "colors:"]
    apt += [f"  {q} -> {omega[q]}" for q in STATES]
    apt += ["delta:"]
    apt += [f"  {q} {a} -> {_render_formula(f)}"
            for (q, a), f in sorted(delta.items()) if f]
    return rules, omega, delta, "\n".join(hors) + "\n", "\n".join(apt) + "\n"


CORPUS_SIZE = 150
# The corpus is one fixed draw.  Verdict times of generated instances span
# three orders of magnitude, so the median of a fresh draw of 150 moves by
# 20-40 % from draw to draw (measured over 2,000 instances), more than any
# bound a comparison could use.  The run's seed orders the instances.
CORPUS_SEED = 0


def corpus_ops(rng: random.Random):
    gen = random.Random(CORPUS_SEED)
    ops = ex1_ops()
    for i in range(CORPUS_SIZE):
        rules, omega, delta, h_text, a_text = generate_order0(gen, i)
        accepted = decide_order0(rules, "S", omega, delta, "q0")
        ops.append(check_op(f"gen{i}", h_text, a_text, "q0",
                            ACCEPT if accepted else REJECT, depth=6,
                            reason="order-0 product-game oracle"))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Solver games

# Core nodes per shaped game (about 43 nodes each; 256 is the size of the
# order2_unary game).  Solve times of equal sizes still vary with layout and
# machine speed, so the median and the eleventh largest sample sit in the
# middle of a block of equal sizes: the fixture games and 14 small games lie
# below the 40 games around the median; above them 18 games hold the tail
# sample, then the largest game and the 900-node ladder.
SHAPED_SIZES = [16] * 14 + [48] * 40 + [96] * 18 + [256]
# The shaped games are one fixed draw, for the reason the corpus is: solve
# times of equal sizes vary with layout, and a fresh draw moved the median
# by up to 10 %.  The run's seed orders the games.
SHAPED_SEED = 0
LADDER_SIZES = (900,)
# Zielonka recurses once per ladder node: RecursionError today (kept).
LADDER_FAIL_SIZE = 2000


def solve_op(name, family, **spec):
    return {"kind": "solve", "name": name, "family": family, **spec}


def solver_ops(rng: random.Random):
    """The fixture games first, so that their witness repeats spread over
    the pass, then the synthetic games in seeded order."""
    draw = random.Random(SHAPED_SEED)
    games = [solve_op(f"shaped{i}.{n}", "shaped", size=n,
                      seed=draw.randrange(2 ** 31))
             for i, n in enumerate(SHAPED_SIZES)]
    games += [solve_op(f"ladder{n}", "ladder", size=n)
              for n in LADDER_SIZES + (LADDER_FAIL_SIZE,)]
    rng.shuffle(games)
    ops = []
    for op in ex1_ops() + [
            check_op("loop_c1", fixture("loop.hors"), fixture("loop_c1.apt"),
                     "q", REJECT, reason="the only branch sees only color 1")
    ] + [check_op(name, fixture(h), fixture(a), q, ACCEPT, depth=100,
                  reason=reason)
         for name, h, a, q, reason in REPLAY_FIXTURES]:
        ops.append(solve_op(op["name"], "sequent", **{
            k: op[k] for k in ("hors", "apt", "state", "expect", "depth")},
            repeat=50))
    return ops + games


# ---------------------------------------------------------------------------
# Workloads: operations and the time limit per operation

def build_ops(workload: str, seed: int):
    rng = random.Random(seed)
    if workload == "order2":
        return order2_ops(), 40.0
    if workload == "corpus":
        return corpus_ops(rng), 10.0
    if workload == "solver":
        return solver_ops(rng), 10.0
    if workload == "replay":
        return replay_ops(rng), 10.0
    raise ValueError(f"unknown workload {workload!r}")


# Fixed inputs of `cli_s.p50`: (scheme, automaton, state, expected stdout).
CLI_SUBSET = [("ex1.hors", "ex1.apt", "q0", "ACCEPT"),
              ("ex1.hors", "ex1.apt", "q1", "ACCEPT"),
              ("loop.hors", "loop_c1.apt", "q", "REJECT")]
