"""The benchmark's own tests, on tiny instances.

    python3 -m pytest perfbench -q

The karate reference check recomputes the stored exact value (about 12 s);
the host-speed probe check times its kernel for about 6 s.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import statistics
import sys
import zlib
from pathlib import Path
from time import perf_counter

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from layers import Tracer, parse_trace_rows  # noqa: E402
from relnet.generate import grid_graph  # noqa: E402
from relnet.graph import TerminalSet, UncertainGraph  # noqa: E402
from relnet.pipeline import estimate_pipeline  # noqa: E402

TINY = grid_graph(3, 4, seed=3)
TINY_T = TerminalSet.of((0, 11))


def tiny_call(entry="estimate_pipeline", seed=0, **kw):
    kwargs = dict(s=200, seed=seed, **kw)
    if entry == "estimate_pipeline":
        kwargs.setdefault("w", 3)
    return workloads.Call(entry, TINY, TINY_T, kwargs, None, "tiny")


def bridged_graph() -> tuple[UncertainGraph, TerminalSet]:
    """Two 4-cycles with chords joined by a bridge; one terminal pair each side."""
    left = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    right = [(4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]
    edges = tuple(left + [(2, 4)] + right)
    probs = tuple(0.3 + 0.05 * i for i in range(len(edges)))
    return UncertainGraph(n=8, edges=edges, probs=probs), TerminalSet.of((1, 3, 5, 7))


class FailingCall(workloads.Call):
    def run(self, trace_rows=None):
        raise ZeroDivisionError("float division by zero")


def test_benchmark_json_names_match_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END_UNITS
    assert layer == run.PER_LAYER_UNITS


def test_every_metric_is_emitted_with_a_unit():
    plain = [run.timed(tiny_call(seed=i)) for i in range(3)]
    plain.append(run.timed(tiny_call("plain_sample_estimate", seed=4)))
    metrics, _ = run.end_to_end(plain, [0.1, 0.2, 0.3])
    assert set(metrics) == set(run.END_TO_END_UNITS)
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())

    tracer = Tracer()
    traced = []
    for call in (tiny_call(seed=5), tiny_call("plain_sample_estimate", seed=6)):
        with tracer:
            traced.append(run.timed(call, [] if call.entry == "estimate_pipeline" else None))
    layer = run.per_layer(plain[:2], traced, tracer, 0.1)
    assert set(layer) == set(run.PER_LAYER_UNITS)
    assert all(math.isfinite(v) for v in layer.values())
    # the self times of all spans cover the traced calls' wall time
    assert 0.9 < layer["trace.accounted_frac"] <= 1.0


def test_tracer_restores_the_library():
    import relnet.diagram
    import relnet.pipeline

    before = (relnet.pipeline.construct, relnet.diagram.sample_possible_graph)
    with Tracer():
        assert relnet.pipeline.construct is not before[0]
        assert relnet.diagram.sample_possible_graph is not before[1]
    assert (relnet.pipeline.construct, relnet.diagram.sample_possible_graph) == before


def test_check_fails_on_estimate_outside_its_bounds():
    res = tiny_call().run()
    assert run.check_call(res, None) == []
    assert run.check_call(res, (res.p_c + 1 - res.p_d) / 2) == []
    below = dataclasses.replace(res, estimate=res.p_c - 0.01)
    above = dataclasses.replace(res, estimate=1.0 - res.p_d + 0.01)
    assert any("outside its bounds" in p for p in run.check_call(below, None))
    assert any("outside its bounds" in p for p in run.check_call(above, None))
    assert any("exact value" in p for p in run.check_call(res, res.p_c - 0.01))


def test_check_mean_flags_a_shifted_mean():
    results = [tiny_call(seed=i).run() for i in range(4)]
    mean = sum(r.estimate for r in results) / len(results)
    assert run.check_mean([(r, mean) for r in results])[0] == []
    sd = math.sqrt(sum(r.variance for r in results)) / len(results)
    assert run.check_mean([(r, mean + 6 * sd) for r in results])[0]
    # one reference per call: matching each estimate gives z = 0 ...
    assert run.check_mean([(r, r.estimate) for r in results]) == ([], 0.0)
    # ... and moving one call's reference by 6 standard errors of the sum is caught
    shift = 6 * math.sqrt(sum(r.variance for r in results))
    pairs = [(r, r.estimate - (shift if i == 0 else 0.0)) for i, r in enumerate(results)]
    assert run.check_mean(pairs)[0]


def test_strip_deep_calls_carry_their_own_references():
    plan = workloads.make_plan("strip-deep", 0, 30, False)
    calls = list(plan.calls)
    refs = workloads.load_references()["strip"]
    assert len(refs) == workloads.STRIP_REFERENCES >= len(calls)
    assert [c.reference for c in calls] == refs[:len(calls)]


def test_failed_call_is_counted_and_misses_any_latency_limit():
    ok = [run.timed(tiny_call(seed=i)) for i in range(2)]
    bad = [run.timed(FailingCall("estimate_pipeline", TINY, TINY_T, {}, None, "x"))
           for _ in range(3)]
    assert all(isinstance(r.error, ZeroDivisionError) for r in bad)
    metrics, notes = run.end_to_end(ok + bad, [0.1])
    assert metrics["success_frac"] == pytest.approx(0.4)
    window = sum(r.wall for r in ok + bad)
    assert metrics["latency_p50_s"] == pytest.approx(window)
    # the tail is over the calls that returned
    assert metrics["latency_tail_s"] == pytest.approx(max(r.wall for r in ok))
    assert any("ZeroDivisionError" in n for n in notes)


def test_tail_is_highest_percentile_with_ten_beyond():
    xs = [float(i) for i in range(1, 31)]
    assert run.tail(xs) == (20.0, pytest.approx(100 * 20 / 30))
    assert run.tail(xs[:10]) == (10.0, 100.0)


def test_interquartile_mean_drops_the_outer_quarters():
    assert run.interquartile_mean([100.0, 1, 2, 3, 4, 5, 6, 7]) == 4.5
    assert run.interquartile_mean([3.0, 1.0]) == 2.0


def test_parser_assigns_parts_on_a_bridged_graph():
    g, t = bridged_graph()
    rows: list = []
    res = estimate_pipeline(g, t, s=500, w=2, seed=1, trace=rows)
    assert len(res.parts) == 2
    parts = parse_trace_rows(rows)
    assert [p["layers"] for p in parts] == [rep.layers for rep in res.parts]
    for p, rep in zip(parts, res.parts):
        assert p["max_kept_width"] <= 2 < rep.max_width


def test_parser_handles_batch_rows_and_single_layer_parts():
    def row(layer, width):
        return {"layer": layer, "width": width}

    rows = [row(1, 2), row(2, 3), row(2, 0),  # part 0 ends in a resident batch
            row(1, 0),                          # part 1: one layer
            row(1, 1), row(2, 0)]               # part 2
    parts = parse_trace_rows(rows)
    assert [p["layers"] for p in parts] == [2, 1, 2]
    assert [p["batch_row"] is not None for p in parts] == [True, False, False]
    assert [p["nodes_expanded"] for p in parts] == [3, 1, 2]
    assert [p["max_kept_width"] for p in parts] == [3, 0, 1]


def test_stored_karate_reference_is_exact():
    from make_references import karate_reference

    refs = workloads.load_references()
    assert karate_reference() == pytest.approx(refs["karate"], rel=1e-12)
    assert refs["karate"] == pytest.approx(0.6340727820, abs=1e-10)


def tracked_collections(fn) -> int:
    """Collections started while ``fn`` runs with the gen-0 threshold at 1."""
    started = []

    def on_gc(phase, info):
        if phase == "start":
            started.append(info)

    old = gc.get_threshold()
    gc.callbacks.append(on_gc)
    try:
        gc.collect()
        started.clear()
        gc.set_threshold(1)
        keep = []  # one tracked object: the next one starts a collection  # noqa: F841
        fn()
    finally:
        gc.set_threshold(*old)
        gc.callbacks.remove(on_gc)
    return len(started)


def test_probe_kernel_allocates_no_tracked_objects():
    def nothing():
        pass

    def a_tuple():
        return [(i, [i]) for i in range(3)]

    baseline = tracked_collections(nothing)
    assert tracked_collections(a_tuple) > baseline
    assert tracked_collections(probe._kernel) == baseline


def test_probe_tick_leaves_the_collector_as_it_found_it():
    sp = probe.SpeedProbe()
    assert gc.isenabled()
    sp._tick(None, None)
    assert gc.isenabled()
    gc.disable()
    try:
        sp._tick(None, None)
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert len(sp.durations) == len(sp.costs) == 2


def _frontier_like(seconds: float) -> None:
    """Tracked allocations with survivors, like layers of diagram nodes."""
    end = perf_counter() + seconds
    layer = {}
    while perf_counter() < end:
        new = {}
        for k in range(5000):
            new[(k, k + 1)] = [k]
        layer = new  # noqa: F841


def test_probe_factor_follows_the_host_not_the_program():
    """The factor is the same with a large live heap held and with a cold cache.

    The three conditions alternate in short slices, so a change of host speed
    during the test reaches all of them alike. On a shared host the factors
    of the conditions differ by up to about 5% from noise alone, so this
    guards against a gross dependence only; the exact test of the kernel's
    allocations holds it to its design.
    """
    big = bytearray(16 << 20)  # four times the L2 cache of the reference box

    def plain():
        _frontier_like(0.25)

    def heap():
        held = [[i] for i in range(200_000)]  # noqa: F841
        _frontier_like(0.25)

    def cold():  # streams 16 MB through the caches before each probe
        end = perf_counter() + 0.25
        while perf_counter() < end:
            zlib.crc32(big)
            _frontier_like(0.002)

    durations = {f: [] for f in (plain, heap, cold)}
    with probe.SpeedProbe() as sp:
        for _ in range(8):
            for fn, out in durations.items():
                n = len(sp.durations)
                fn()
                out += sp.durations[n:]
    factors = {fn.__name__: probe.speed_factor(d) for fn, d in durations.items()}
    assert all(len(d) >= 100 for d in durations.values())
    for name in ("heap", "cold"):
        assert factors[name] == pytest.approx(factors["plain"], rel=0.10), factors
