"""Propagation throughput: the wave executor vs its references.

The executor runs a mega-plan — one graph is a one-member plan — and
batches every independent chronological run of edges into one gather →
update → scatter kernel (see :mod:`repro.graph.plan`).  Two comparisons:

* on one wide synthetic CTDN (many concurrent sessions of activity, the
  shape of the paper's datasets) the executor must be at least 3x the
  per-edge reference fold (``TemporalPropagationBase.fold``);
* on ~12-node session graphs, one mega-plan of ``B`` graphs must be at
  least 3x ``B`` calls at batch 1 when ``B = 8``.

Numbers go to ``BENCH_propagation.json`` at the repo root, next to the
commit, ``nproc`` and numpy version they were measured with.
"""

from __future__ import annotations

import json
import os
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from benchmarks.conftest import print_block
from repro.core.propagation import (
    TemporalPropagationGRU,
    TemporalPropagationSum,
)
from repro.graph import CTDN
from repro.graph.megaplan import MegaPlan

# The benchmark suite is minutes-scale; `pytest -m "not slow"` skips it.
pytestmark = pytest.mark.slow

NUM_NODES = 300
NUM_EDGES = 2400
HIDDEN_SIZE = 16
TIME_DIM = 4
REQUIRED_SPEEDUP = 3.0
#: Session-profile batching: avg ~12-node graphs, mega vs per-graph wave.
SESSION_NODES = 12
SESSION_EDGES = 24
BATCH_SIZES = (1, 8, 32)
REQUIRED_BATCHED_SPEEDUP = 3.0  # enforced at batch 8
RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_propagation.json"


def host() -> dict:
    """Where the numbers came from: commit, core count, numpy version."""
    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=RESULT_PATH.parent, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(), "numpy": np.__version__}


def merge_results(**sections) -> None:
    """Merge benchmark sections into the shared JSON (tests co-own it)."""
    existing = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text())
        except (ValueError, OSError):
            existing = {}
    existing.update(sections)
    existing["host"] = host()
    RESULT_PATH.write_text(json.dumps(existing, indent=2) + "\n")


def wide_graph(seed: int = 0) -> CTDN:
    """A wide CTDN: many nodes interacting concurrently, tied timestamps.

    Random endpoints over a large node set give long independent runs
    (big waves); four edges share each timestamp so tie groups exist.
    """
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(NUM_EDGES):
        u, v = rng.choice(NUM_NODES, size=2, replace=False)
        edges.append((int(u), int(v), float(i // 4)))
    return CTDN(NUM_NODES, rng.normal(size=(NUM_NODES, 8)), edges, label=1)


def build(updater: str):
    rng = np.random.default_rng(3)
    if updater == "sum":
        return TemporalPropagationSum(8, HIDDEN_SIZE, time_dim=TIME_DIM, rng=rng)
    return TemporalPropagationGRU(8, HIDDEN_SIZE, time_dim=TIME_DIM, rng=rng)


def best_of(callable_, repeats: int) -> float:
    elapsed = []
    for _ in range(repeats):
        start = time.perf_counter()
        callable_()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def measure(updater: str, graph: CTDN) -> dict:
    prop = build(updater)
    plan = graph.propagation_plan()
    # Warm both paths once (fills plan/edge caches, touches BLAS).
    prop(graph)
    prop.fold(graph)
    wave_seconds = best_of(lambda: prop(graph), repeats=3)
    fold_seconds = best_of(lambda: prop.fold(graph), repeats=1)
    return {
        "updater": updater,
        "edges": graph.num_edges,
        "waves": plan.num_waves,
        "wave_edges_per_sec": graph.num_edges / wave_seconds,
        "per_edge_edges_per_sec": graph.num_edges / fold_seconds,
        "speedup": fold_seconds / wave_seconds,
    }


class TestPropagationThroughput:
    def test_executor_beats_per_edge_fold(self):
        graph = wide_graph()
        results = [measure(updater, graph) for updater in ("sum", "gru")]
        lines = [
            f"wave executor vs per-edge fold, {NUM_EDGES} edges over {NUM_NODES} nodes "
            f"({results[0]['waves']} waves)"
        ]
        for row in results:
            lines.append(
                f"  {row['updater'].upper():4s} per-edge {row['per_edge_edges_per_sec']:9.0f} edges/s"
                f"   wave {row['wave_edges_per_sec']:9.0f} edges/s"
                f"   speedup {row['speedup']:6.1f}x (required >= {REQUIRED_SPEEDUP}x)"
            )
        print_block("\n".join(lines))
        merge_results(results=results)
        for row in results:
            assert row["speedup"] >= REQUIRED_SPEEDUP, row


def session_graph(seed: int) -> CTDN:
    """One session-profile CTDN: ~12 nodes, two dozen timestamped edges."""
    rng = np.random.default_rng(seed)
    n = SESSION_NODES + int(rng.integers(-3, 4))
    edges = []
    for i in range(SESSION_EDGES):
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        edges.append((u, v, float(i // 2)))
    return CTDN(n, rng.normal(size=(n, 8)), edges, label=seed % 2)


def measure_batched(updater: str, batch_size: int) -> dict:
    prop = build(updater)
    graphs = [session_graph(seed) for seed in range(batch_size)]
    mega = MegaPlan.from_graphs(graphs)

    def batch_of_one():
        for graph in graphs:
            prop(graph)  # the graph's cached one-member plan

    # Warm both paths (plan caches, BLAS).
    prop(mega)
    batch_of_one()
    mega_seconds = best_of(lambda: prop(mega), repeats=3)
    single_seconds = best_of(batch_of_one, repeats=3)
    total_edges = mega.num_edges
    return {
        "updater": updater,
        "batch_size": batch_size,
        "edges": total_edges,
        "mega_waves": mega.num_waves,
        "mega_edges_per_sec": total_edges / mega_seconds,
        "batch_of_one_edges_per_sec": total_edges / single_seconds,
        "speedup": single_seconds / mega_seconds,
    }


class TestMegaBatchThroughput:
    def test_one_batch_beats_calls_at_batch_one(self):
        results = [
            measure_batched(updater, batch)
            for updater in ("sum", "gru")
            for batch in BATCH_SIZES
        ]
        lines = [
            f"one mega-plan of B vs B calls at batch 1, ~{SESSION_NODES}-node sessions of "
            f"{SESSION_EDGES} edges"
        ]
        for row in results:
            lines.append(
                f"  {row['updater'].upper():4s} batch {row['batch_size']:3d}"
                f"   batch-of-one {row['batch_of_one_edges_per_sec']:9.0f} edges/s"
                f"   mega {row['mega_edges_per_sec']:9.0f} edges/s"
                f"   speedup {row['speedup']:6.1f}x"
            )
        lines.append(
            f"  gate: >= {REQUIRED_BATCHED_SPEEDUP}x over B calls at batch 1, at batch 8"
        )
        print_block("\n".join(lines))
        merge_results(batched=results)
        for row in results:
            if row["batch_size"] >= 8:
                assert row["speedup"] >= REQUIRED_BATCHED_SPEEDUP, row
