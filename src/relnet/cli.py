"""Command-line interface.

Subcommands: ``estimate`` (full pipeline), ``exact`` (enumeration or
unbounded construction), ``preprocess`` (emit decomposed parts), ``gen``
(synthetic graphs), ``bench`` (accuracy harness with exact references).

Exit codes: 0 success, 2 usage error, 3 bad input data, 4 resource cap hit.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path
from typing import Optional

from . import rng as rngmod
from .diagram import WidthCapExceeded, exact_reliability
from .exact import DEFAULT_EDGE_CAP, EdgeCapExceeded, brute_force_reliability
from .estimators import EstimatorError
from .generate import (
    grid_graph,
    preferential_graph,
    random_connected_graph,
    random_terminals,
    tree_rich_graph,
)
from .graph import (
    GraphFormatError,
    GraphInvariantError,
    TerminalSet,
    UncertainGraph,
    load_graph,
    parse_terminals,
    write_graph,
)
from .numerics import round_sig
from .pipeline import (
    estimate_pipeline,
    exact_pipeline,
    plain_sample_estimate,
)
from .reduction import preprocess

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_RESOURCE = 4


class UsageError(ValueError):
    pass


def _int_at_least(low: int):
    """argparse type: an int, where a value below ``low`` is a usage error."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relnet",
        description="k-terminal network reliability on uncertain graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser, need_terminals: bool = True) -> None:
        p.add_argument("--graph", required=True, help="edge-list file (u v p per line)")
        if need_terminals:
            p.add_argument(
                "--terminals",
                required=True,
                help="comma list '0,5,9' or '@file' with one id per line",
            )
        p.add_argument("--format", choices=("json", "csv", "text"), default="json")
        p.add_argument("--output", help="write the report here instead of stdout")

    est = sub.add_parser("estimate", help="bounded construction plus sampling")
    add_io(est)
    est.add_argument("--s", type=int, default=10000, help="sample budget")
    est.add_argument("--w", type=int, default=10000, help="max nodes per layer")
    est.add_argument("--estimator", choices=("mc", "ht"), default="mc")
    est.add_argument("--seed", type=int, default=0)
    est.add_argument("--precision", choices=("double", "exact"), default="double")
    est.add_argument("--no-bdd", action="store_true", help="plain sampling baseline")
    est.add_argument("--no-preprocess", action="store_true")
    est.add_argument("--trace", help="write per-layer CSV trace here")
    est.add_argument("--timings", action="store_true", help="include timings in report")
    est.add_argument("--width-cap", type=_int_at_least(1), default=1_000_000)

    exa = sub.add_parser("exact", help="exact reliability")
    add_io(exa)
    exa.add_argument("--brute-cap", type=_int_at_least(0), default=DEFAULT_EDGE_CAP)
    exa.add_argument("--width-cap", type=_int_at_least(1), default=1_000_000)
    exa.add_argument("--precision", choices=("double", "exact"), default="double")
    exa.add_argument("--method", choices=("auto", "brute", "diagram"), default="auto")
    exa.add_argument("--timings", action="store_true")

    pre = sub.add_parser("preprocess", help="prune, decompose, transform")
    add_io(pre)
    pre.add_argument("--out-dir", required=True, help="directory for part files")

    gen = sub.add_parser("gen", help="generate a synthetic uncertain graph")
    gen.add_argument("--kind", choices=("grid", "scale-free", "random", "tree-rich"),
                     required=True)
    gen.add_argument("--rows", type=int, default=5)
    gen.add_argument("--cols", type=int, default=5)
    gen.add_argument("--n", type=int, default=50)
    gen.add_argument("--m", type=int, default=100)
    gen.add_argument("--attach", type=int, default=2)
    gen.add_argument("--cycles", type=int, default=8)
    gen.add_argument("--probs", choices=("uniform", "log-degree"), default="uniform")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)

    ben = sub.add_parser("bench", help="accuracy harness against exact references")
    add_io(ben, need_terminals=False)
    ben.add_argument("--k", type=int, default=5, help="terminals per search")
    ben.add_argument("--q1", type=int, default=10, help="searches")
    ben.add_argument("--q2", type=int, default=10, help="repetitions per search")
    ben.add_argument("--s", type=int, default=1000)
    ben.add_argument("--w", type=int, default=1000)
    ben.add_argument("--seed", type=int, default=0)
    ben.add_argument("--width-cap", type=_int_at_least(1), default=1_000_000)
    ben.add_argument("--no-exact", action="store_true",
                     help="skip exact references (error rates omitted)")
    ben.add_argument("--timings", action="store_true")
    return parser


def _emit(args, payload: dict, csv_rows: Optional[list[dict]] = None) -> None:
    fmt = getattr(args, "format", "json")
    if fmt == "json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        rows = csv_rows if csv_rows is not None else _flatten_rows(payload)
        buf = []
        if rows:
            writer_keys = list(rows[0].keys())
            buf.append(",".join(writer_keys))
            for row in rows:
                buf.append(",".join(str(row[k]) for k in writer_keys))
        text = "\n".join(buf) + "\n"
    else:
        text = _text_report(payload) + "\n"
    out = getattr(args, "output", None)
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _flatten_rows(payload: dict, prefix: str = "") -> list[dict]:
    flat: dict[str, object] = {}

    def walk(obj, pfx):
        if isinstance(obj, dict):
            for key in sorted(obj):
                walk(obj[key], f"{pfx}{key}." if not pfx else f"{pfx}{key}.")
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                walk(item, f"{pfx}{i}.")
        else:
            flat[pfx[:-1]] = obj

    walk(payload, "")
    return [{"key": k, "value": v} for k, v in flat.items()]


def _text_report(payload: dict, indent: int = 0) -> str:
    lines = []
    pad = "  " * indent
    for key in payload:
        val = payload[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_text_report(val, indent + 1))
        elif isinstance(val, list):
            lines.append(f"{pad}{key}: [{len(val)} entries]")
            for item in val:
                if isinstance(item, dict):
                    lines.append(_text_report(item, indent + 1))
                    lines.append("")
                else:
                    lines.append(f"{pad}  {item}")
        else:
            lines.append(f"{pad}{key}: {val}")
    return "\n".join(x for x in lines if x != "")


def _load_inputs(args) -> tuple[UncertainGraph, TerminalSet]:
    g = load_graph(args.graph)
    terminals = parse_terminals(args.terminals, g)
    return g, terminals


def cmd_estimate(args) -> int:
    if args.no_bdd and args.trace:
        raise UsageError("--trace needs the diagram's layers; --no-bdd has none")
    g, terminals = _load_inputs(args)
    if args.s < 1 or args.w < 1:
        raise UsageError("--s and --w must be >= 1")
    trace_rows: Optional[list] = [] if args.trace else None
    if args.no_bdd:
        result = plain_sample_estimate(
            g, terminals, s=args.s, estimator=args.estimator, seed=args.seed
        )
    else:
        result = estimate_pipeline(
            g,
            terminals,
            s=args.s,
            w=args.w,
            estimator=args.estimator,
            seed=args.seed,
            precision=args.precision,
            use_preprocess=not args.no_preprocess,
            width_cap=args.width_cap,
            trace=trace_rows,
        )
    if trace_rows is not None:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=["layer", "width", "p_c", "p_d", "deleted_mass", "samples_drawn"],
                extrasaction="ignore",
            )
            writer.writeheader()
            for row in trace_rows:
                writer.writerow(row)
    payload = {"command": "estimate", "config": _config_dict(args)}
    payload.update(result.to_dict(include_timings=args.timings))
    _emit(args, payload)
    return EXIT_OK


def _config_dict(args) -> dict:
    keys = ("graph", "terminals", "s", "w", "estimator", "seed", "precision",
            "no_bdd", "no_preprocess", "k", "q1", "q2")
    out = {}
    for key in keys:
        if hasattr(args, key):
            out[key] = getattr(args, key)
    return out


def cmd_exact(args) -> int:
    g, terminals = _load_inputs(args)
    t0 = time.perf_counter()
    method = args.method
    if method == "auto":
        method = "brute" if g.m <= args.brute_cap else "diagram"
    if method == "brute":
        res = brute_force_reliability(
            g, terminals, cap=args.brute_cap, exact=args.precision == "exact"
        )
        value = res.reliability
        extra = {"enumerated": res.enumerated_count}
    else:
        value = exact_reliability(
            g, terminals, width_cap=args.width_cap, precision=args.precision
        )
        extra = {}
    payload = {
        "command": "exact",
        "method": method,
        "reliability": round_sig(float(value)),
        "config": _config_dict(args),
        **extra,
    }
    if args.precision == "exact":
        payload["raw"] = {"reliability": str(value)}
    if args.timings:
        payload["timings"] = {"total": round(time.perf_counter() - t0, 6)}
    _emit(args, payload)
    return EXIT_OK


def cmd_preprocess(args) -> int:
    g, terminals = _load_inputs(args)
    deco = preprocess(g, terminals)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    parts_meta = []
    for i, (pg, pt) in enumerate(deco.parts):
        path = out_dir / f"part_{i:03d}.edges"
        write_graph(pg, path)
        parts_meta.append(
            {
                "path": path.name,
                "n": pg.n,
                "m": pg.m,
                "terminals": sorted(pt.vertices),
            }
        )
    manifest = {
        "command": "preprocess",
        "bridge_factor": round_sig(deco.bridge_factor),
        "source": args.graph,
        "parts": parts_meta,
    }
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    _emit(args, manifest)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "grid":
        g = grid_graph(args.rows, args.cols, seed=args.seed, probs=args.probs)
    elif args.kind == "scale-free":
        g = preferential_graph(args.n, args.attach, seed=args.seed, probs=args.probs)
    elif args.kind == "random":
        g = random_connected_graph(args.n, args.m, seed=args.seed, probs=args.probs)
    else:
        g = tree_rich_graph(args.n, cycle_count=args.cycles, seed=args.seed,
                            probs=args.probs)
    write_graph(
        g,
        args.out,
        header=f"relnet gen kind={args.kind} seed={args.seed} probs={args.probs}",
    )
    sys.stdout.write(
        json.dumps(
            {"command": "gen", "out": args.out, "n": g.n, "m": g.m},
            sort_keys=True,
        )
        + "\n"
    )
    return EXIT_OK


def cmd_bench(args) -> int:
    g = load_graph(args.graph)
    if args.k < 2 or args.k > g.n:
        raise UsageError("--k must be in [2, |V|]")
    if args.q1 < 1 or args.q2 < 1:
        raise UsageError("--q1 and --q2 must be >= 1")
    if args.s < 1 or args.w < 1:
        raise UsageError("--s and --w must be >= 1")
    t0 = time.perf_counter()
    methods = ("ours-mc", "ours-ht", "sampling-mc", "sampling-ht")
    rows: list[dict] = []
    sums: dict[str, dict[str, float]] = {
        m: {"sq": 0.0, "abs_rel": 0.0, "count": 0.0} for m in methods
    }
    for i in range(args.q1):
        terminals = random_terminals(g, args.k, seed=args.seed, tag=f"search-{i}")
        if args.no_exact:
            exact_value = None
        else:
            exact_value = float(
                exact_pipeline(g, terminals, width_cap=args.width_cap)
            )
        for j in range(args.q2):
            run_seed = rngmod.derive_seed(args.seed, "bench", i, j)
            for method in methods:
                kind = "mc" if method.endswith("mc") else "ht"
                if method.startswith("ours"):
                    res = estimate_pipeline(
                        g,
                        terminals,
                        s=args.s,
                        w=args.w,
                        estimator=kind,
                        seed=run_seed,
                        width_cap=args.width_cap,
                    )
                else:
                    res = plain_sample_estimate(
                        g, terminals, s=args.s, estimator=kind, seed=run_seed
                    )
                row = {
                    "method": method,
                    "search": i,
                    "rep": j,
                    "estimate": round_sig(res.estimate),
                    "exact": "" if exact_value is None else round_sig(exact_value),
                    "samples_used": res.samples_used,
                }
                rows.append(row)
                if exact_value is not None:
                    err = exact_value - res.estimate
                    agg = sums[method]
                    agg["sq"] += err * err
                    if exact_value > 0:
                        agg["abs_rel"] += abs(err) / exact_value
                    agg["count"] += 1.0

    aggregates = {}
    for method in methods:
        agg = sums[method]
        if agg["count"] > 0:
            aggregates[method] = {
                "variance": round_sig(agg["sq"] / agg["count"]),
                "error_rate": round_sig(agg["abs_rel"] / agg["count"]),
            }
    payload = {
        "command": "bench",
        "config": _config_dict(args),
        "methods": aggregates,
        "runs": rows,
    }
    if args.timings:
        payload["timings"] = {"total": round(time.perf_counter() - t0, 6)}
    _emit(args, payload, csv_rows=rows)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "estimate":
            return cmd_estimate(args)
        if args.command == "exact":
            return cmd_exact(args)
        if args.command == "preprocess":
            return cmd_preprocess(args)
        if args.command == "gen":
            return cmd_gen(args)
        if args.command == "bench":
            return cmd_bench(args)
        raise UsageError(f"unknown command {args.command}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (EdgeCapExceeded, WidthCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (GraphFormatError, GraphInvariantError, EstimatorError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
