"""horsmc benchmark: time to verdict on four workloads, plus a traced run.

    python3 horsbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
With `--trace 0` the run reports the end-to-end metrics, with `--trace 1`
the per-layer metrics (self time and work counts per module) and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object.  See horsbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import workloads
from probes import ROOT, SRC
from speed import NOMINAL_S
from tracing import COUNTERS

HERE = Path(__file__).resolve().parent

WORKER_TIMEOUT_S = 170


class Abort(Exception):
    """A wrong output: the run stops and reports correct = false."""


def run_worker(ops, limit_s: float, trace: bool) -> dict:
    """One pass in a fresh worker."""
    job = json.dumps({"ops": ops, "limit_s": limit_s, "trace": trace})
    r = subprocess.run([sys.executable, str(HERE / "worker.py")], input=job,
                       env=probes.env(), cwd=ROOT, text=True,
                       capture_output=True, timeout=WORKER_TIMEOUT_S)
    if r.returncode != 0:
        raise RuntimeError(f"worker exited {r.returncode}: {r.stderr[-2000:]}")
    out = json.loads(r.stdout)
    if "wrong" in out:
        raise Abort(out["wrong"])
    return out


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with ten samples beyond it (nearest rank: the
    eleventh largest sample); the maximum when there are ten or fewer."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], "max"
    return xs[-11], f"p{100 * (len(xs) - 10) / len(xs):.1f}"


def per_op_medians(passes: list[dict], key: str) -> list[float]:
    """One sample per operation: its median over the passes it succeeded."""
    by_op: dict[str, list[float]] = {}
    for p in passes:
        for res in p["results"]:
            if res["error"] is None and key in res:
                by_op.setdefault(res["name"], []).append(res[key])
    return [statistics.median(v) for v in by_op.values()]


def end_to_end(passes, setup_s, cli_s, spawn_s, notes) -> dict:
    verdict = per_op_medians(passes, "verdict_s")
    witness = per_op_medians(passes, "witness_s")
    tail_value, tail_name = tail(verdict)
    results = [res for p in passes for res in p["results"]]
    decided = sum(res["error"] is None for res in results)
    notes.append(f"verdict samples {len(verdict)}, tail is {tail_name}; "
                 f"witness samples {len(witness)}; passes {len(passes)}")
    reference = statistics.median(p["reference_s"] for p in passes)
    raw = statistics.median(per_op_medians(passes, "verdict_raw_s"))
    notes.append(f"times are scaled to nominal speed: the reference took "
                 f"{reference:.6f} s against {NOMINAL_S} s nominal; "
                 f"measured verdict_s.p50 {raw:.6g} s")
    notes.append(f"a bare interpreter started in {spawn_s:.6f} s against "
                 f"{probes.NOMINAL_SPAWN_S} s nominal")
    rates = [sum(r["error"] is None for r in p["results"])
             / sum(r["total_s"] for r in p["results"]) for p in passes]
    return {
        "setup_s": (setup_s, "s"),
        "verdict_s.p50": (statistics.median(verdict), "s"),
        "verdict_s.tail": (tail_value, "s"),
        "witness_s.p50": (statistics.median(witness), "s"),
        "instances_per_s": (statistics.median(rates), "1/s"),
        "decided_share": (decided / len(results), "share"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes),
                        "MB"),
        "cli_s.p50": (cli_s, "s"),
    }


def per_layer(traced, untraced) -> dict:
    layers = [p["layers"] for p in traced]
    out = {}
    for name in layers[0]:
        unit = "count" if name in COUNTERS else "s"
        out[name] = (statistics.median(l[name] for l in layers), unit)
    overhead = (statistics.median(per_op_medians(traced, "verdict_s"))
                - statistics.median(per_op_medians(untraced, "verdict_s")))
    out["trace.overhead_s"] = (overhead, "s")
    return out


def write_spans(traced, workload: str, seed: int) -> Path:
    """All spans of the run, written once: [pass, id, parent, name, op,
    start, end] per span."""
    out_dir = ROOT / ".horsbench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[k, *s] for k, p in enumerate(traced) for s in p["spans"]],
                  fh)
    return path


def run(args) -> tuple[dict, bool, int, int]:
    start = time.perf_counter()
    ops, limit_s = workloads.build_ops(args.workload, args.seed)
    untraced: list[dict] = []
    traced: list[dict] = []
    notes: list[str] = []
    # An untraced run first takes the setup and CLI samples, then passes
    # until the time is spent: at least one.  A traced run reports no
    # end-to-end metric and takes no samples; it makes one untraced pass for
    # the overhead, then at least two traced passes, whose counters must be
    # identical.
    if not args.trace:
        setup, cli, spawn_s = probes.take()
    last = 0.0
    while True:
        want_traced = args.trace and untraced and (
            len(traced) < 2 or len(traced) < len(untraced))
        if untraced and (not args.trace or len(traced) >= 2) and \
                time.perf_counter() - start + last > args.seconds:
            break
        t0 = time.perf_counter()
        if want_traced:
            traced.append(run_worker(ops, limit_s, True))
        else:
            untraced.append(run_worker(ops, limit_s, False))
        last = time.perf_counter() - t0
    consistent = True
    if args.trace:
        counters = [{k: p["layers"][k] for k in COUNTERS} for p in traced]
        consistent = all(c == counters[0] for c in counters)
        notes.append(f"traced passes {len(traced)}, counters identical "
                     f"across them: {consistent}")
        path = write_spans(traced, args.workload, args.seed)
        notes.append(f"spans written to {path.relative_to(ROOT)}")
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced, statistics.median(setup),
                             statistics.median(cli), spawn_s, notes)
    shares = [r["eve_share"] for p in untraced for r in p["results"]
              if "eve_share" in r]
    if shares:
        notes.append(f"Eve wins {statistics.mean(shares):.3f} of the nodes "
                     "of a solved game on average")
    results = [r for p in untraced + traced for r in p["results"]]
    failed = [r for r in results if r["error"] is not None]
    for name in sorted({f"{r['name']}: {r['error']}" for r in failed}):
        notes.append(f"failed {name}")
    for line in notes:
        print("# " + line)
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6g} {unit}")
    return metrics, consistent, len(results), len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("order2", "corpus", "solver", "replay"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "horsmc" / "__init__.py").is_file():
        sys.stderr.write(f"{SRC / 'horsmc'} not found: run from the root of "
                         "a horsmc checkout\n")
        return 2
    try:
        metrics, consistent, attempted, failed = run(args)
    except (Abort, probes.ProbeError) as e:
        sys.stderr.write(f"wrong output: {e}\n")
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1
    print(json.dumps({
        "correct": consistent, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if consistent else 1


if __name__ == "__main__":
    sys.exit(main())
