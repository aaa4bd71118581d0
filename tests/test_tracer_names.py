"""The benchmark's tracer wraps library functions by name.

``perfbench/layers.py`` lists them in ``WRAPPED``; a rename in the library
breaks the traced benchmark run, so these tests read that list, without
changing it, and look each name up.
"""

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.WRAPPED


def test_every_traced_function_resolves():
    wrapped = _wrapped()
    assert len(wrapped) > 10
    for _layer, module, name, _hook in wrapped:
        assert callable(getattr(importlib.import_module(module), name, None)), (
            module, name,
        )


def test_the_rebinding_the_harness_checks_resolves():
    # perfbench/test_perfbench.py checks that the tracer rebinds this import
    import relnet.diagram
    import relnet.graph

    assert relnet.diagram.sample_possible_graph is relnet.graph.sample_possible_graph
