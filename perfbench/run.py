"""relnet benchmark: one workload per run, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload karate-wide --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

Prints a table with every metric, its unit and the correctness verdict, then
as the last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics of a separate traced run. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from layers import Tracer, parse_trace_rows
from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("karate-wide", "strip-deep", "plain-sampler")
SETUP_REPEATS = 9
CLI_IMPORT_REPEATS = 3
TOL = 1e-12  # slack on bound comparisons, far below any bound gap here
Z_LIMIT = 5.0  # standard errors a run's mean estimate may sit from the reference

END_TO_END_UNITS = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "cpu_p50_s": "s",
    "estimates_per_s": "1/s",
    "bounds_gap": "prob",
    "var_x_s": "s",
    "success_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "reduction.preprocess_s": "s",
    "reduction.edges_kept_frac": "frac",
    "reduction.parts": "count",
    "diagram.order_s": "s",
    "diagram.max_frontier": "count",
    "diagram.expand_s": "s",
    "diagram.layers": "count",
    "diagram.nodes_expanded": "count",
    "diagram.expand_us_per_node": "us",
    "diagram.max_kept_width": "count",
    "diagram.split_s": "s",
    "diagram.nodes_ranked": "count",
    "diagram.nodes_evicted": "count",
    "diagram.deleted_mass": "prob",
    "diagram.sample_s": "s",
    "diagram.quotient_s": "s",
    "diagram.quotients_built": "count",
    "diagram.draws_per_quotient": "count",
    "diagram.samples_used": "count",
    "diagram.sample_yield": "frac",
    "diagram.unsampled_mass": "prob",
    "graph.draw_s": "s",
    "graph.connect_s": "s",
    "graph.assign_prob_s": "s",
    "graph.draws": "count",
    "graph.edge_flips": "count",
    "graph.ns_per_flip": "ns",
    "estimators.reduce_s": "s",
    "estimators.reduce_calls": "count",
    "estimators.other_s": "s",
    "pipeline.other_s": "s",
    "cli.import_s": "s",
    "trace.hooks_s": "s",
    "trace.accounted_frac": "frac",
    "trace.overhead_frac": "frac",
    "host.speed_factor": "ratio",
    "host.raw_latency_p50_s": "s",
    "host.raw_cpu_p50_s": "s",
}


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def build_plan(name: str, seed: int, seconds: float, traced: bool):
    """Import the library, load the workload's instances and warm up."""
    import workloads  # imports relnet, so only once src/ is on sys.path

    plan = workloads.make_plan(name, seed, seconds, traced)
    workloads.warm_up(name)
    return plan


def _child_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), *extra]


def setup_child(args) -> int:
    """Body of a ``--setup-only`` process: set up, then report host speed."""
    with SpeedProbe() as probe:
        a = time.perf_counter()
        build_plan(args.workload, args.seed, args.seconds, args.trace == 1)
        b = time.perf_counter()
    factor, spent = probe.window(a, b)
    print(f"ready {factor!r} {spent!r}", flush=True)
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from spawning a fresh interpreter until its plan is ready.

    Each child probes the host speed during its set-up (see probe.py) and
    the time is scaled to reference speed like every call's.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(_child_cmd(args, "--setup-only"),
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            wall = time.perf_counter() - t0
            proc.stdout.read()
        fields = line.split()
        if proc.returncode != 0 or len(fields) != 3 or fields[0] != "ready":
            raise RuntimeError("set-up child failed")
        factor, spent = float(fields[1]), float(fields[2])
        times.append(max(0.0, wall - spent) / factor)
    return times


def measure_cli_import() -> float:
    env = {"PYTHONPATH": str(SRC), "PATH": ""}
    times = []
    for _ in range(CLI_IMPORT_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import relnet.cli"], env=env, check=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check_call(res, reference) -> list[str]:
    """Problems with one call's output; an empty list means it is correct."""
    problems = []
    lo, hi = res.p_c, 1.0 - res.p_d
    values = (res.estimate, res.p_c, res.p_d, res.variance)
    if not all(math.isfinite(x) for x in values):
        return [f"non-finite output {values}"]
    if res.p_c < 0 or res.p_d < 0 or lo > hi + TOL:
        problems.append(f"bad bounds p_c={res.p_c} p_d={res.p_d}")
    if not (lo - TOL <= res.estimate <= hi + TOL):
        problems.append(f"estimate {res.estimate} outside its bounds [{lo}, {hi}]")
    if reference is not None and not (lo - TOL <= reference <= hi + TOL):
        problems.append(f"exact value {reference} outside bounds [{lo}, {hi}]")
    if res.variance < 0:
        problems.append(f"negative variance {res.variance}")
    return problems


def check_mean(pairs) -> tuple[list[str], float]:
    """The run's mean estimate against the exact values, in standard errors.

    ``pairs`` holds (result, exact value) for each call whose input has one.
    Each call reports its own variance and the calls are independent, so
    sum(est_i - ref_i) has variance sum(var_i): z = that sum / sqrt(sum var_i).
    """
    if not pairs:
        return [], 0.0
    diff = sum(res.estimate - ref for res, ref in pairs)
    var = sum(res.variance for res, _ in pairs)
    if var <= 0:
        z = 0.0 if abs(diff) <= TOL else math.inf
    else:
        z = diff / math.sqrt(var)
    if abs(z) > Z_LIMIT:
        return [f"mean estimate {z:+.2f} standard errors from the exact values"], z
    return [], z


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Record:
    """One attempted call.

    ``raw_wall`` and ``raw_cpu`` are as measured; ``wall`` and ``cpu`` are
    the same, less probe time, divided by the host-speed ``factor`` measured
    during the call (probe.py). The metrics use the scaled times.
    """

    __slots__ = ("call", "start", "raw_wall", "raw_cpu", "wall", "cpu", "factor",
                 "result", "error", "rows")

    def __init__(self, call, start, raw_wall, raw_cpu, result, error, rows=None):
        self.call, self.start = call, start
        self.raw_wall, self.raw_cpu = raw_wall, raw_cpu
        self.wall, self.cpu, self.factor = raw_wall, raw_cpu, 1.0
        self.result, self.error, self.rows = result, error, rows

    def rescale(self, probe: SpeedProbe) -> None:
        self.factor, spent = probe.window(self.start, self.start + self.raw_wall)
        self.wall = max(0.0, self.raw_wall - spent) / self.factor
        self.cpu = max(0.0, self.raw_cpu - spent) / self.factor


def timed(call, rows=None) -> Record:
    gc.collect()  # start every call from the same heap, whatever the last one left
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        res = call.run(rows)
        err = None
    except Exception as exc:  # a failed call is counted, never fatal
        # drop the traceback: its frames would keep the call's data alive
        res, err = None, exc.with_traceback(None)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - c0
    if err is not None:
        first = "".join(traceback.format_exception_only(type(err), err)).strip()
        print(f"call failed: {first}", file=sys.stderr)
    return Record(call, t0, wall, cpu, res, err, rows)


def run_loop(plan, seconds: float, tracer=None):
    """Untraced records, and with a tracer the paired traced records."""
    plain, traced = [], []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for i, call in enumerate(plan.calls):
            if (plan.time_bounded and i % plan.cycle == 0
                    and time.perf_counter() - start >= seconds):
                break
            if tracer is None:
                plain.append(timed(call))
                continue
            # alternate which side of a pair runs first, so order effects cancel
            for side in ((0, 1) if i % 2 == 0 else (1, 0)):
                if side == 0:
                    plain.append(timed(call))
                else:
                    with tracer:
                        traced.append(timed(call, [] if call.entry == "estimate_pipeline" else None))
    for rec in plain + traced:
        rec.rescale(probe)
    return plain, traced


def verify(records, distinct) -> tuple[list[str], dict]:
    """Check every record; the mean check uses ``distinct``, one per input."""
    problems: list[str] = []
    for rec in records:
        if rec.result is not None:
            for p in check_call(rec.result, rec.call.reference):
                problems.append(f"{rec.call.label} seed {rec.call.kwargs['seed']}: {p}")
            if rec.rows is not None:
                parts = parse_trace_rows(rec.rows)
                got = [p["layers"] for p in parts]
                want = [p.layers for p in rec.result.parts]
                if got != want:
                    problems.append(f"trace rows give part layers {got}, report {want}")
    pairs = [(r.result, r.call.reference) for r in distinct
             if r.result is not None and r.call.reference is not None]
    more, z = check_mean(pairs)
    problems += more
    return problems, {"mean_z": z, "mean_n": len(pairs)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten calls beyond it.

    Returns (value, percentile). With ten calls or fewer no percentile has
    ten beyond it, and the slowest call (percentile 100) is reported.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def interquartile_mean(xs: list[float]) -> float:
    """Mean of the middle half of the values (all of them below four)."""
    xs = sorted(xs)
    k = len(xs) // 4
    return statistics.fmean(xs[k:len(xs) - k])


def end_to_end(records, setup_times) -> tuple[dict, list[str]]:
    walls = [r.wall for r in records]
    window = sum(walls)
    # a failed call misses any latency limit: +inf, shown as the whole window
    lat = [r.wall if r.result is not None else math.inf for r in records]
    cpu = [r.cpu if r.result is not None else math.inf for r in records]
    ok = [r.result for r in records if r.result is not None]
    n, n_ok = len(records), len(ok)
    p50 = statistics.median(lat)
    # The tail is taken over the calls that returned. With a fixed share of
    # failures (+inf), the percentile with ten calls beyond it would land on
    # a failed call or not depending only on how many calls fit in the run.
    t_val, t_pct = tail([x for x in lat if math.isfinite(x)] or [math.inf])
    c50 = statistics.median(cpu)
    finite = lambda x: x if math.isfinite(x) else window  # noqa: E731
    mean_wall = window / n
    # a karate-wide call has only 14 draws, so its own variance estimate is
    # lumpy; over a run's calls the mean spread 8.5% and the median 12% run
    # to run, the interquartile mean less
    mid_var = interquartile_mean([r.variance for r in ok]) if ok else math.inf
    metrics = {
        "latency_p50_s": finite(p50),
        "latency_tail_s": finite(t_val),
        "cpu_p50_s": finite(c50),
        "estimates_per_s": n_ok / window,
        "bounds_gap": statistics.fmean(1.0 - r.p_c - r.p_d for r in ok) if ok else 1.0,
        "var_x_s": finite(mid_var * mean_wall),
        "success_frac": n_ok / n,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    errors = dict(Counter(type(r.error).__name__ for r in records if r.error is not None))
    notes = [
        f"latency_tail_s is percentile {t_pct:.1f} of the {n_ok} calls that returned",
        f"failed_frac {(n - n_ok) / n:.4f} ({n - n_ok} of {n} calls) by type {errors}",
        f"raw latency_p50_s {statistics.median(r.raw_wall for r in records):.4f} s "
        "(as measured, before scaling to reference host speed); median host-speed "
        f"factor {statistics.median(r.factor for r in records):.4f}",
        "call walls: " + " ".join(f"{w:.3f}" for w in walls),
        f"setup_s over {len(setup_times)} fresh processes: "
        + ", ".join(f"{x:.4f}" for x in setup_times),
    ]
    return metrics, notes


def per_layer(plain, traced, tracer, cli_import_s) -> dict:
    n = len(traced)
    s, c = tracer.self_s, tracer.counts
    pipe = [r.result for r in traced if r.result is not None and r.rows is not None]
    parts = [p for r in traced if r.rows is not None for p in parse_trace_rows(r.rows)]
    nodes = sum(p["nodes_expanded"] for p in parts)
    draws = c["diagram.stratum_draws"]
    wall_traced = sum(r.wall for r in traced)
    raw_traced = sum(r.raw_wall for r in traced)

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    # self times per call, scaled to reference host speed like the call walls
    k = ratio(wall_traced, raw_traced) / n
    t = defaultdict(float, {layer: x * k for layer, x in s.items()})

    return {
        "reduction.preprocess_s": t["reduction.preprocess"],
        "reduction.edges_kept_frac": ratio(c["reduction.edges_kept"], c["reduction.edges_in"]),
        "reduction.parts": c["reduction.parts"] / n,
        "diagram.order_s": t["diagram.order"],
        "diagram.max_frontier": c["diagram.max_frontier"],
        "diagram.expand_s": t["diagram.expand"],
        "diagram.layers": sum(p["layers"] for p in parts) / n,
        "diagram.nodes_expanded": nodes / n,
        "diagram.expand_us_per_node": ratio(t["diagram.expand"] * n, nodes, 1e6),
        "diagram.max_kept_width": max((p["max_kept_width"] for p in parts), default=0),
        "diagram.split_s": t["diagram.split"],
        "diagram.nodes_ranked": c["diagram.nodes_ranked"] / n,
        "diagram.nodes_evicted": c["diagram.nodes_evicted"] / n,
        "diagram.deleted_mass": c["diagram.deleted_mass"] / n,
        "diagram.sample_s": t["diagram.sample"],
        "diagram.quotient_s": t["diagram.quotient"],
        "diagram.quotients_built": c["diagram.quotients_built"] / n,
        "diagram.draws_per_quotient": ratio(draws, c["diagram.quotients_built"]),
        "diagram.samples_used": draws / n,
        "diagram.sample_yield": ratio(draws, sum(r.s_reduced for r in pipe)),
        "diagram.unsampled_mass": sum(p.unsampled_mass for r in pipe for p in r.parts) / n,
        "graph.draw_s": t["graph.draw"],
        "graph.connect_s": t["graph.connect"],
        "graph.assign_prob_s": t["graph.assign_prob"],
        "graph.draws": c["graph.draws"] / n,
        "graph.edge_flips": c["graph.edge_flips"] / n,
        "graph.ns_per_flip": ratio(t["graph.draw"] * n, c["graph.edge_flips"], 1e9),
        "estimators.reduce_s": t["estimators.reduce"],
        "estimators.reduce_calls": tracer.calls["estimators.reduce"] / n,
        "estimators.other_s": t["estimators.other"],
        "pipeline.other_s": t["pipeline.other"],
        "cli.import_s": cli_import_s,
        "trace.hooks_s": t["trace.hooks"],
        "trace.accounted_frac": ratio(sum(s.values()), raw_traced),
        "trace.overhead_frac": ratio(wall_traced, sum(r.wall for r in plain)) - 1.0,
        # the untraced calls as measured, and the factor they were scaled by
        "host.speed_factor": statistics.median(r.factor for r in plain),
        "host.raw_latency_p50_s": statistics.median(r.raw_wall for r in plain),
        "host.raw_cpu_p50_s": statistics.median(r.raw_cpu for r in plain),
    }


# ---------------------------------------------------------------------------
# Entry
# ---------------------------------------------------------------------------

def run_one(args) -> int:
    traced = args.trace == 1
    plan = build_plan(args.workload, args.seed, args.seconds, traced)
    setup_times = [] if traced else measure_setup(args)
    cli_import_s = measure_cli_import() if traced else 0.0
    tracer = Tracer() if traced else None
    wall0 = time.perf_counter()
    plain, traced_recs = run_loop(plan, args.seconds, tracer)
    elapsed = time.perf_counter() - wall0

    records = traced_recs if traced else plain
    problems, info = verify(plain + traced_recs, plain)
    attempted = len(records)
    failed = sum(1 for r in records if r.error is not None)
    if traced:
        metrics = per_layer(plain, traced_recs, tracer, cli_import_s)
        units = PER_LAYER_UNITS
        notes = [f"{attempted} calls, each made untraced and traced with the same inputs, "
                 "alternating which goes first"]
    else:
        metrics, notes = end_to_end(records, setup_times)
        units = END_TO_END_UNITS
    kind = "fixed list" if not plan.time_bounded else f"{args.seconds:g} s"
    print(f"workload {plan.name} seed {args.seed} trace {args.trace}: {attempted} calls "
          f"({kind}, closed loop, 1 caller) in {elapsed:.2f} s")
    for name, unit in units.items():
        print(f"  {name:28s} {metrics[name]:14.6g} {unit}")
    for note in notes:
        print(f"  {note}")
    if info["mean_n"]:
        print(f"  mean estimate over {info['mean_n']} calls {info['mean_z']:+.2f} "
              f"standard errors from the exact values (limit {Z_LIMIT:g})")
    for p in problems:
        print(f"  INCORRECT: {p}")
    print(f"  correctness: {'ok' if not problems else 'FAILED'}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = _child_cmd(argparse.Namespace(**dict(vars(args), workload=name)))
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
        lines = out.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            merged["metrics"][f"{name}.{k}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "relnet").is_dir():
        print(f"error: no relnet sources at {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        return setup_child(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
