"""The benchmark's workloads, built only from the library's public API.

Each workload is a closed loop with one caller: the next call starts when the
previous one returns. A workload yields ``Call`` objects; the runner invokes
them through the ``relnet.pipeline`` module attribute at call time, so that
the tracer in ``layers.py`` sees the call.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Optional

from relnet import pipeline
from relnet.generate import grid_graph, random_terminals
from relnet.graph import TerminalSet, UncertainGraph, load_graph

HERE = Path(__file__).resolve().parent
KARATE_EDGES = HERE.parent / "tests" / "data" / "karate.edges"
REFERENCES = HERE / "references.json"
EXACT_WIDTH_CAP = 2_000_000

S = 10_000
KARATE_W = 10_000
STRIP_W = 100
STRIP_ROWS, STRIP_COLS = 6, 100
STRIP_TERMINALS = (0, 350, 599)
# Seconds one strip-deep call takes on average over grid seeds 0-7 on the
# reference box (2-core x86-64, Python 3.11). Sizes the fixed instance list.
STRIP_NOMINAL_S = 3.5
# Strip instances with an exact value in references.json: every instance of
# a run up to 42 s long. An instance past them is checked on bounds only.
STRIP_REFERENCES = 12
# Call i of a run uses seed SEED_STRIDE * workload_seed + i, so workload seed
# 0 reproduces "call i uses seed=i".
SEED_STRIDE = 1_000_000


@dataclass
class Call:
    entry: str  # "estimate_pipeline" or "plain_sample_estimate"
    graph: UncertainGraph
    terminals: TerminalSet
    kwargs: dict
    reference: Optional[float] = None
    label: str = ""

    def run(self, trace_rows: Optional[list] = None):
        kwargs = self.kwargs
        if trace_rows is not None:
            kwargs = dict(kwargs, trace=trace_rows)
        return getattr(pipeline, self.entry)(self.graph, self.terminals, **kwargs)


@dataclass
class Plan:
    name: str
    calls: Iterator[Call]
    time_bounded: bool  # False: a fixed list, run to the end
    cycle: int = 1  # a time-bounded run stops only between whole cycles


def karate_instance():
    g = load_graph(KARATE_EDGES)
    return g, random_terminals(g, 5, seed=7)


def strip_instance(i: int):
    return grid_graph(STRIP_ROWS, STRIP_COLS, seed=i), TerminalSet.of(STRIP_TERMINALS)


def strip_count(seconds: float, traced: bool) -> int:
    """Instances in one strip-deep run; a traced run times each call twice."""
    k = max(2, int(seconds / STRIP_NOMINAL_S))
    return max(1, k // 2) if traced else k


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def make_plan(name: str, seed: int, seconds: float, traced: bool) -> Plan:
    base = SEED_STRIDE * seed
    refs = load_references()
    if name == "karate-wide":
        g, t = karate_instance()
        ref = refs["karate"]
        calls = (
            Call("estimate_pipeline", g, t,
                 dict(s=S, w=KARATE_W, estimator="mc", seed=base + i), ref, "karate")
            for i in itertools.count()
        )
        return Plan(name, calls, True)
    if name == "strip-deep":
        # The instance list is the same in every run, so runs time the same
        # work; the workload seed moves only the sampling streams.
        k = strip_count(seconds, traced)
        calls = []
        for i in range(k):
            g, t = strip_instance(i)
            ref = refs["strip"][i] if i < len(refs["strip"]) else None
            calls.append(Call("estimate_pipeline", g, t,
                              dict(s=S, w=STRIP_W, estimator="mc", seed=base + i),
                              ref, f"grid6x100-seed{i}"))
        return Plan(name, iter(calls), False)
    if name == "plain-sampler":
        g, t = karate_instance()
        ref = refs["karate"]
        calls = (
            Call("plain_sample_estimate", g, t,
                 dict(s=S, estimator="ht" if i % 4 == 3 else "mc", seed=base + i),
                 ref, "karate")
            for i in itertools.count()
        )
        # whole cycles of three mc calls and one ht call keep the mix fixed
        return Plan(name, calls, True, cycle=4)
    raise ValueError(f"unknown workload {name!r}")


def warm_up(name: str) -> None:
    """One tiny call down the workload's own code path."""
    g = grid_graph(2, 3, seed=0)
    t = TerminalSet.of((0, 5))
    if name == "plain-sampler":
        pipeline.plain_sample_estimate(g, t, s=100, seed=0)
    else:
        pipeline.estimate_pipeline(g, t, s=100, w=2, seed=0)
