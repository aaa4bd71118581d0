"""Per-layer tracing from outside the library, and the ``--trace`` row parser.

The tracer wraps public functions of the ``relnet`` modules for the duration
of a ``with`` block. Every module attribute bound to a wrapped function is
rebound, so calls through ``from .graph import sample_possible_graph`` style
imports are caught too. Each wrapped call is a span; a layer's self time is
the duration of its spans minus the part covered by nested spans. Counts are
taken from the arguments and return values in hooks, whose own time is kept
apart under ``trace.hooks`` so that the self times still add up to the call.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter


def _on_preprocess(counts, args, out):
    counts["reduction.edges_in"] += args[0].m
    counts["reduction.edges_kept"] += sum(pg.m for pg, _ in out.parts)
    counts["reduction.parts"] += len(out.parts)


def _on_order(counts, args, out):
    counts["diagram.max_frontier"] = max(counts["diagram.max_frontier"], out.max_frontier)


def _on_split(counts, args, out):
    _kept, deleted = out
    if deleted:
        counts["diagram.nodes_ranked"] += len(args[0])
        counts["diagram.nodes_evicted"] += len(deleted)
        counts["diagram.deleted_mass"] += sum(float(nd.p) for nd in deleted)


def _on_sample(counts, args, out):
    counts["diagram.strata"] += 1
    counts["diagram.stratum_draws"] += out.draws


def _on_quotient(counts, args, out):
    counts["diagram.quotients_built"] += 1


def _on_draw(counts, args, out):
    counts["graph.draws"] += 1
    counts["graph.edge_flips"] += args[0].m


# (layer, module, function, hook). The layer names are the benchmark's
# per-layer metric prefixes; "pipeline" is the outermost span of every call.
WRAPPED = (
    ("pipeline.other", "relnet.pipeline", "estimate_pipeline", None),
    ("pipeline.other", "relnet.pipeline", "plain_sample_estimate", None),
    ("reduction.preprocess", "relnet.reduction", "preprocess", _on_preprocess),
    ("diagram.expand", "relnet.diagram", "construct", None),
    ("diagram.order", "relnet.diagram", "order_edges", _on_order),
    ("diagram.split", "relnet.diagram", "split_layer", _on_split),
    ("diagram.sample", "relnet.diagram", "sample_group_stratum", _on_sample),
    ("diagram.quotient", "relnet.diagram", "stratum_quotient", _on_quotient),
    ("graph.draw", "relnet.graph", "sample_possible_graph", _on_draw),
    ("graph.connect", "relnet.graph", "terminals_connected", None),
    ("graph.assign_prob", "relnet.graph", "assignment_probability", None),
    ("estimators.reduce", "relnet.estimators", "reduced_sample_count", None),
    ("estimators.other", "relnet.estimators", "combine_strata", None),
    ("estimators.other", "relnet.estimators", "mc_variance", None),
    ("estimators.other", "relnet.estimators", "stratified_mc_variance", None),
    ("estimators.other", "relnet.estimators", "ht_variance", None),
)

HOOKS = "trace.hooks"


class Tracer:
    """Span self times and counts per layer, accumulated across calls."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []  # child time per open span
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, layer, fn, hook):
        stack = self._stack
        self_s, calls, counts = self.self_s, self.calls, self.counts

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self_s[layer] += t1 - t0 - stack.pop()
                calls[layer] += 1
                if stack:
                    stack[-1] += t1 - t0
            if hook is not None:
                hook(counts, args, out)
                t2 = perf_counter()
                self_s[HOOKS] += t2 - t1
                if stack:
                    stack[-1] += t2 - t1
            return out

        span.__wrapped__ = fn
        return span

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in sys.modules.items()
                   if name == "relnet" or name.startswith("relnet.")]
        for layer, modname, fname, hook in WRAPPED:
            orig = getattr(sys.modules[modname], fname)
            wrapper = self._wrap(layer, orig, hook)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, orig in reversed(self._restore):
            setattr(mod, attr, orig)
        self._restore.clear()


# ---------------------------------------------------------------------------
# --trace rows
# ---------------------------------------------------------------------------

def parse_trace_rows(rows: list[dict]) -> list[dict]:
    """Split the rows of one ``estimate_pipeline`` call into parts.

    The rows of all parts are concatenated with no part id, so a part starts
    wherever the layer number does not advance. The one exception is the
    final resident batch: a ``width=0`` row repeating the layer number of a
    row with kept nodes. It samples those nodes instead of expanding them, so
    it is not a layer. A row's ``width`` is the width kept after deletion;
    the report's ``max_width`` is the width before deletion.

    Returns per part: ``layers`` (layer rows), ``max_kept_width``,
    ``nodes_expanded`` (nodes entering each layer, the root included) and
    ``batch_row`` (the resident-batch row, or None).
    """
    parts: list[dict] = []
    prev = None
    for row in rows:
        is_batch = (
            prev is not None
            and row["width"] == 0
            and row["layer"] == prev["layer"]
            and prev["width"] > 0
        )
        if is_batch:
            parts[-1]["batch_row"] = row
        elif prev is None or row["layer"] <= prev["layer"]:
            parts.append({"layers": 0, "max_kept_width": 0, "widths": [], "batch_row": None})
        if not is_batch:
            part = parts[-1]
            part["layers"] += 1
            part["widths"].append(row["width"])
            part["max_kept_width"] = max(part["max_kept_width"], row["width"])
        prev = row
    for part in parts:
        # the root enters layer 1; the last layer's kept nodes are never expanded
        part["nodes_expanded"] = 1 + sum(part.pop("widths")[:-1])
    return parts
