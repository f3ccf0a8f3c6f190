"""One workload pass in a fresh interpreter.

Reads {"ops", "limit_s", "trace"} as JSON on stdin and writes one JSON
result on stdout.  A fresh process per pass keeps the class-level intern
tables of `horsmc.itypes`, which persist inside a process, from leaking
between passes; within a pass they are shared as in any long-lived
caller.

Timed regions cover only calls into the program.  Certificates, known
answers and output checks run between them, untimed and outside the
per-operation time limit.  An output that differs from its known answer
raises WrongOutput, which aborts the run.  A pass reports its times
scaled to nominal speed (see speed.py), along with the measured
`verdict_raw_s`.  An untraced pass samples the machine's speed
throughout; a traced pass samples it only between operations, so that no
span of the tracer contains a sample.
"""

from __future__ import annotations

import gc
import json
import resource
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from horsmc import formats, game, selection, syntax  # noqa: E402
from horsmc.itypes import StateType  # noqa: E402

import certify  # noqa: E402
import games  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import expected_tree  # noqa: E402


class WrongOutput(Exception):
    pass


class OpTimeout(Exception):
    pass


class OpFailed(Exception):
    def __init__(self, cause: BaseException):
        super().__init__(f"{type(cause).__name__}: {cause}"[:300])


def _alarm(signum, frame):
    raise OpTimeout("time limit per operation exceeded")


class Clock:
    """Timed stages of one operation under a shared time limit.  Each stage
    leaves a span (tag, start, end, seconds); the seconds exclude speed
    samples taken during it."""

    def __init__(self, limit_s: float, speed: Speed):
        self.limit_s = limit_s
        self.speed = speed
        self.total = 0.0
        self.spans: list[tuple] = []

    def stage(self, fn, *args, tag: str = "other"):
        """Run one program call; its time counts, a raise fails the op."""
        left = self.limit_s - self.total
        if left <= 0:
            raise OpFailed(OpTimeout("time limit per operation exceeded"))
        signal.setitimer(signal.ITIMER_REAL, left)
        stolen = self.speed.stolen
        start = perf_counter()
        try:
            return fn(*args)
        except Exception as e:  # any program failure fails the operation
            raise OpFailed(e) from e
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            end = perf_counter()
            seconds = end - start - (self.speed.stolen - stolen)
            self.total += seconds
            self.spans.append((tag, start, end, seconds))


def _expect(cond: bool, op: dict, what: str) -> None:
    if not cond:
        raise WrongOutput(f"{op['name']}: {what}")


def _certify(g, sol, op) -> None:
    try:
        certify.certify(g, sol)
    except certify.CertificateError as e:
        raise WrongOutput(f"{op['name']}: certificate: {e}") from e


def _decide(h, m, q):
    g = game.build_game(h, m, states=[q])
    sol = game.zielonka(g)
    return g, sol, game.EveNode(h.start, StateType(q)) in sol.win_eve


def _witness(h, m, sol, q, depth):
    w = selection.extract_scheme(h, m, sol, q)
    text = formats.print_annotated(w)
    return selection.verify_runtree(formats.parse_annotated(text), h, m, q,
                                    depth)


def _witness_stage(op, clock: Clock, h, m, sol, out: dict) -> None:
    """Time the witness path once; an op with `repeat` > 1 keeps its
    arguments so that the pass can run it again later (see Repeats)."""
    report = clock.stage(_witness, h, m, sol, op["state"], op["depth"],
                         tag="witness")
    _expect(report.passed, op, "the witness run-tree fails verification")
    if op.get("repeat", 1) > 1:
        out["_repeat"] = (h, m, sol, op["state"], op["depth"])


REPEAT_SAMPLE = 5


class Repeats:
    """Further runs of one cheap witness path, spread evenly over the rest
    of the pass so that they do not all see the same moment of a noisy
    machine.  They redo the same work as the first run, since
    `rule_typings` results are cached on the scheme, and they count neither
    toward the op's total nor its time limit.  The op reports the median."""

    def __init__(self, op: dict, res: dict, args: tuple, speed: Speed):
        self.wanted = op["repeat"]
        self.spans = res["witness_spans"]
        self.args = args
        self.speed = speed

    def step(self, calls_left: int) -> bool:
        """Run a share of the missing repeats; True when complete.  A speed
        sample follows every REPEAT_SAMPLE-th repeat, so that a burst of
        repeats shorter than the sampling interval has samples of its own."""
        missing = self.wanted - len(self.spans)
        for _ in range(-(-missing // calls_left)):
            self.spans.append(self.speed.timed(_witness, *self.args)[1])
            if len(self.spans) % REPEAT_SAMPLE == 0:
                self.speed.sample()
        return len(self.spans) >= self.wanted


def _load(hors: str, apt: str):
    h = formats.parse_hors(hors)
    diags = syntax.check_wellformed(h)
    m = formats.parse_apt(apt, terminals=h.terminals)
    m.validate()
    return h, m, diags


def run_check(op: dict, clock: Clock) -> dict:
    """Parse, decide, and for accepted states replay the witness."""
    out = {}
    h, m, diags = clock.stage(_load, op["hors"], op["apt"])
    _expect(not diags, op, f"ill-formed input: {diags}")
    g, sol, accepted = clock.stage(_decide, h, m, op["state"], tag="verdict")
    _certify(g, sol, op)
    verdict = "ACCEPT" if accepted else "REJECT"
    _expect(verdict == op["expect"], op,
            f"verdict {verdict}, known answer {op['expect']}")
    if accepted and op["depth"] is not None:
        _witness_stage(op, clock, h, m, sol, out)
    if op["unfold"]:
        tree = clock.stage(syntax.unfold, h, op["depth"])
        text = clock.stage(formats.print_tree, tree)
        _expect(text == expected_tree(op["name"].split(".")[0], op["depth"]),
                op, "unfolded tree differs from its closed form")
    return out


def prepare_solve(op: dict):
    """The game of a solve operation, built before any timing."""
    if op["family"] == "shaped":
        return games.shaped_game(op["seed"], op["size"]), None
    if op["family"] == "ladder":
        return games.ladder(op["size"]), None
    h, m, _ = _load(op["hors"], op["apt"])
    return game.build_game(h, m, states=[op["state"]]), (h, m)


def run_solve(op: dict, clock: Clock, prepared) -> dict:
    g, hm = prepared
    sol = clock.stage(game.zielonka, g, tag="verdict")
    out = {"eve_share": len(sol.win_eve) / len(g.nodes)}
    _certify(g, sol, op)
    if op["family"] == "ladder":
        _expect(len(sol.win_eve) == len(g.nodes), op, "Eve must win a ladder")
    if hm is not None:
        h, m = hm
        accepted = game.EveNode(h.start, StateType(op["state"])) in sol.win_eve
        _expect(("ACCEPT" if accepted else "REJECT") == op["expect"], op,
                "verdict differs from the known answer")
        if accepted:
            _witness_stage(op, clock, h, m, sol, out)
    return out


def _times(res: dict, spans: list, speed: Speed) -> None:
    """The op's scaled times from its spans: `verdict_s`, `witness_s`
    (median over repeats) and `total_s` (all stages of the op, repeats
    excluded), and the measured `verdict_raw_s`."""
    value = speed.scale
    verdict = [s[1:] for s in spans if s[0] == "verdict"]
    if res["error"] is None:
        if verdict:
            res["verdict_s"] = sum(value(s) for s in verdict)
            res["verdict_raw_s"] = sum(s[2] for s in verdict)
        if res["witness_spans"]:
            res["witness_s"] = statistics.median(
                value(s) for s in res["witness_spans"])
    del res["witness_spans"]
    res["total_s"] = sum(value(s[1:]) for s in spans)


def run_pass(ops: list, limit_s: float, trace: bool) -> dict:
    signal.signal(signal.SIGALRM, _alarm)
    prepared = {i: prepare_solve(op) for i, op in enumerate(ops)
                if op["kind"] == "solve" and op["family"] == "sequent"}
    tracer = Tracer() if trace else None
    speed = Speed()
    if tracer:
        tracer.install()
    else:
        speed.start()
    results = []
    spans = []
    pending: list[Repeats] = []
    for i, op in enumerate(ops):
        # Each op starts with empty young generations, so it pays for the
        # collections its own allocations trigger, not for those of the ops
        # before it, whatever their seeded order.
        gc.collect()
        if tracer:
            speed.sample()
            tracer.begin_op(op["name"])
        clock = Clock(limit_s, speed)
        try:
            if op["kind"] == "check":
                res = run_check(op, clock)
            else:
                res = run_solve(op, clock, prepared.pop(i, None)
                                or prepare_solve(op))
            res["error"] = None
        except (OpFailed, OpTimeout) as e:  # a late alarm raises OpTimeout
            res = {"error": str(e)}
        res["name"] = op["name"]
        res["witness_spans"] = [s[1:] for s in clock.spans
                                if s[0] == "witness"]
        results.append(res)
        spans.append(clock.spans)
        pending = [job for job in pending if not job.step(len(ops) - i)]
        args = res.pop("_repeat", None)
        if args and not tracer:  # a traced pass counts each witness once
            pending.append(Repeats(op, res, args, speed))
    for job in pending:
        job.step(1)
    if tracer:
        tracer.uninstall()
    speed.stop()
    speed.sample()  # the pass's last spans need samples after them
    for res, op_spans in zip(results, spans):
        _times(res, op_spans, speed)
    out = {"results": results,
           "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "speed_samples": len(speed.durations),
           "reference_s": statistics.median(speed.durations)}
    if tracer:
        out["layers"] = tracer.layer_metrics()
        out["spans"] = tracer.spans
    return out


def main() -> int:
    job = json.load(sys.stdin)
    try:
        out = run_pass(job["ops"], job["limit_s"], job["trace"])
    except WrongOutput as e:
        out = {"wrong": str(e)}
    json.dump(out, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
