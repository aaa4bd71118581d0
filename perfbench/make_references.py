"""Recompute the exact references the benchmark checks its estimates against.

Run from the repository root:

    python3 perfbench/make_references.py

It writes ``perfbench/references.json``: the karate value and the first
``workloads.STRIP_REFERENCES`` strip instances. The karate value takes about
12 s and each strip instance about 20 s on a 2-core x86-64 box with Python 3.11,
which is why the benchmark reads them from disk instead of paying for them
in every run's set-up.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from relnet.diagram import exact_reliability  # noqa: E402

import workloads  # noqa: E402

REFERENCES = HERE / "references.json"


def karate_reference() -> float:
    g, t = workloads.karate_instance()
    return float(exact_reliability(g, t, width_cap=workloads.EXACT_WIDTH_CAP))


def strip_reference(i: int) -> float:
    g, t = workloads.strip_instance(i)
    return float(exact_reliability(g, t, width_cap=workloads.EXACT_WIDTH_CAP))


def main() -> int:
    t0 = time.perf_counter()
    out = {"karate": karate_reference(), "strip": []}
    print(f"karate {out['karate']!r} ({time.perf_counter() - t0:.1f} s)", flush=True)
    for i in range(workloads.STRIP_REFERENCES):
        t0 = time.perf_counter()
        out["strip"].append(strip_reference(i))
        print(f"strip {i} {out['strip'][-1]!r} ({time.perf_counter() - t0:.1f} s)", flush=True)
    REFERENCES.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
