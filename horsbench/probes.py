"""Samples of `setup_s` and `cli_s.p50`: fresh interpreters that import
horsmc.cli, or run `python -m horsmc.cli check` on fixed inputs.

The parent process takes them at the start of a run, before any worker
exists, so one process at a time does work.  Each sample is a wall-time
span with a speed sample on either side, and is scaled to nominal speed
(see speed.py).  The reference here is the start of a bare interpreter
(`python -S -c pass`): process start-up time drifts with the machine's
memory and file system as well as its CPU, and a CPU-bound reference
tracks only the last.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from pathlib import Path

import workloads
from speed import Speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

ROUNDS = 3  # per run; a round is SETUP_PER_ROUND setup samples, then
SETUP_PER_ROUND = 2  # CLI_PER_ROUND passes over workloads.CLI_SUBSET
CLI_PER_ROUND = 2
NOMINAL_SPAWN_S = 0.013  # a bare interpreter's start at nominal speed


class ProbeError(Exception):
    """The CLI printed a wrong verdict or exit code."""


def env() -> dict:
    out = dict(os.environ)
    out["PYTHONPATH"] = str(SRC)
    out["PYTHONHASHSEED"] = "0"
    return out


def setup_sample() -> None:
    """A fresh interpreter imports horsmc.cli."""
    subprocess.run([sys.executable, "-c", "import horsmc.cli"], env=env(),
                   cwd=ROOT, check=True)


def cli_sample(hors: str, apt: str, state: str, expect: str) -> None:
    """`python -m horsmc.cli check` on one fixed input."""
    argv = [sys.executable, "-m", "horsmc.cli", "check",
            str(workloads.FIXTURES / hors), str(workloads.FIXTURES / apt),
            "-q", state]
    r = subprocess.run(argv, env=env(), cwd=ROOT, text=True,
                       capture_output=True)
    if r.stdout != expect + "\n" or \
            r.returncode != (0 if expect == "ACCEPT" else 1):
        raise ProbeError(f"cli check {hors} {apt} -q {state}: exit "
                         f"{r.returncode}, stdout {r.stdout!r}")


def spawn() -> None:
    """The speed reference: a bare interpreter starts and exits."""
    subprocess.run([sys.executable, "-S", "-c", "pass"], env=env(), cwd=ROOT,
                   check=True)


def take() -> tuple[list[float], list[float], float]:
    """(setup, cli) samples of one run, scaled to nominal speed, and the
    median reference time."""
    speed = Speed(spawn, NOMINAL_SPAWN_S)

    def timed(fn, *args) -> tuple:
        speed.sample()
        _, span = speed.timed(fn, *args)
        speed.sample()
        return span

    setup, cli = [], []
    for _ in range(ROUNDS):
        setup += [timed(setup_sample) for _ in range(SETUP_PER_ROUND)]
        cli += [timed(cli_sample, *item) for _ in range(CLI_PER_ROUND)
                for item in workloads.CLI_SUBSET]
    return ([speed.scale(s) for s in setup], [speed.scale(s) for s in cli],
            statistics.median(speed.durations))
