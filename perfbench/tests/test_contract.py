"""BENCHMARK.json names exactly what the benchmark measures and prints."""

import json
from pathlib import Path

from perfbench import pipeline

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(pipeline.WORKLOADS)


def test_layer_tables_cover_per_layer_metrics():
    traced = set(pipeline.EPOCH_LAYERS.values()) | set(pipeline.CALL_LAYERS.values())
    assert traced <= {m["name"] for m in SPEC["per_layer"]}


def test_setup_bound_is_the_largest():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_every_learner_window_holds_the_same_number_of_updates():
    for workload in pipeline.WORKLOADS.values():
        assert workload.learn_window % pipeline.LEARN_EVERY == 0, workload.name
