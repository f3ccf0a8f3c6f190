"""Measure the shape of the `order2_unary` sequent game and of a shaped game
of the same size, side by side.

    python3 horsbench/calibrate.py [--seed N]

Prints node counts by kind, edges, the degree and popularity histograms
that `games.py` resamples, the distinct priorities, Eve's share of the
nodes, and Zielonka's time and call counts.  Building the real game takes
about 15 s.  Not part of a benchmark run.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from horsmc import formats, game  # noqa: E402

import games  # noqa: E402
from workloads import fixture  # noqa: E402


def profile(g: game.ParityGame) -> dict:
    kinds = Counter(type(v).__name__ for v in g.nodes)
    degree = {"EveNode": Counter(), "AdamNode": Counter()}
    popularity = Counter()
    for v in g.nodes:
        if type(v).__name__ in degree:
            degree[type(v).__name__][len(g.successors(v))] += 1
        if isinstance(v, game.AdamNode):
            popularity.update(g.successors(v))
    neutral, colored = Counter(), Counter()
    for cn, k in popularity.items():
        (neutral if g.priority[cn] == 1 else colored)[k] += 1
    calls = Counter()

    def count(frame, event, arg):
        if event == "call" and frame.f_code.co_name in ("solve", "attract"):
            calls[frame.f_code.co_name] += 1

    start = perf_counter()
    sol = game.zielonka(g)
    solve_s = perf_counter() - start
    sys.setprofile(count)
    game.zielonka(g)
    sys.setprofile(None)
    return {
        "nodes": dict(kinds),
        "edges": sum(len(g.successors(v)) for v in g.nodes),
        "eve degree": dict(sorted(degree["EveNode"].items())),
        "adam degree": dict(sorted(degree["AdamNode"].items())),
        "neutral popularity": dict(sorted(neutral.items())),
        "colored popularity": dict(sorted(colored.items())),
        "priorities": sorted(set(g.priority.values())),
        "eve share": round(len(sol.win_eve) / len(g.nodes), 3),
        "solve s": round(solve_s, 3),
        "zielonka calls": dict(calls),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    h = formats.parse_hors(fixture("order2_unary.hors"))
    m = formats.parse_apt(fixture("order2_unary_c0.apt"),
                          terminals=h.terminals)
    real = game.build_game(h, m, states=["q"])
    n_eve = sum(isinstance(v, game.EveNode) for v in real.nodes)
    n_core = n_eve - 1 - games.LEAVES
    shaped = games.shaped_game(args.seed, n_core)
    for name, g in (("order2_unary", real), (f"shaped {n_core}", shaped)):
        print(f"== {name}")
        for key, value in profile(g).items():
            print(f"  {key:20s} {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
