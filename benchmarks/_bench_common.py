"""Shared helpers for the benchmark harness.

Every bench writes its reproduction artifact (the regenerated table or
figure) into ``benchmarks/results/`` so every measured figure can be
refreshed from a single run.
"""

from __future__ import annotations

import pathlib

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def write_result(name: str, text: str) -> pathlib.Path:
    """Persist one bench's artifact and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    print(f"\n===== {name} =====")
    print(text)
    return path
