"""Kernel oracle: the raw-array apply kernel == ``IncrementalClassifier.observe``.

Every :class:`StreamingEngine` (lone engines, cluster shards, journal
replay, recovery) applies events through
:class:`~repro.serve.fastpath.FastObserver`.  The Tensor-path
``observe`` is the reference it must reproduce bit for bit, so this
suite folds both over the same random streams and compares with ``==``
on floats: every updater/stabilizer the kernel claims, with and without
time encoding, node ids with gaps, endpoints that arrive without
features, and a snapshot/restore round trip mid-stream.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import LoadtestConfig, generate_feed
from repro.core import TPGNN
from repro.resilience import perturb_feed
from repro.serve import FastObserver, IncrementalClassifier, StreamingEngine
from tests.serve.conftest import make_model

#: (updater, SUM stabilizer, time_dim) — every configuration the kernel
#: claims in ``FastObserver.supports``.
CONFIGS = [
    ("sum", "bounded", 4),
    ("sum", "average", 4),
    ("sum", "none", 4),
    ("sum", "bounded", 0),
    ("gru", "bounded", 4),
    ("gru", "bounded", 0),
]


def build_model(updater: str, stabilizer: str, time_dim: int, seed: int) -> TPGNN:
    model = TPGNN(
        in_features=3,
        updater=updater,
        hidden_size=6,
        gru_hidden_size=5,
        time_dim=time_dim,
        sum_stabilizer=stabilizer,
        seed=seed,
    )
    model.eval()
    return model


@st.composite
def streams(draw):
    """Events over a gappy node-id set; first sightings may lack features."""
    nodes = sorted(draw(st.sets(st.integers(0, 14), min_size=2, max_size=7)))
    n_events = draw(st.integers(1, 24))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    seen: set[int] = set()
    events = []
    time = float(draw(st.floats(-50.0, 50.0)))
    for _ in range(n_events):
        src, dst = rng.choice(nodes, size=2, replace=False)
        # Ties are legal: a session's clock only has to be monotone.
        time += float(rng.choice([0.0, rng.exponential(1.0)]))
        features = {}
        for node in (int(src), int(dst)):
            if node not in seen and rng.random() < 0.8:
                features[node] = rng.normal(size=3)
            seen.add(node)
        events.append((int(src), int(dst), time, features or None))
    snapshot_at = draw(st.integers(0, n_events))
    return events, snapshot_at


def assert_states_equal(a, b) -> None:
    assert set(a) == set(b)
    for key in a:
        assert a[key].shape == b[key].shape, key
        assert np.array_equal(a[key], b[key]), key


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    config=st.sampled_from(CONFIGS),
    stream=streams(),
    seed=st.integers(0, 20),
)
def test_kernel_matches_tensor_observe(config, stream, seed):
    events, snapshot_at = stream
    classifier = IncrementalClassifier(build_model(*config, seed=seed), missing_features="zeros")
    kernel = FastObserver.build(classifier)
    assert kernel is not None
    oracle = classifier.new_session("s")
    fast = classifier.new_session("s")
    for index, (src, dst, time, features) in enumerate(events):
        if index == snapshot_at:
            # The kernel resumes from a restored copy exactly as the
            # Tensor path continues from its live state.
            fast = classifier.restore("s", classifier.snapshot(fast))
        classifier.observe(oracle, (src, dst, time), features)
        kernel.observe(fast, (src, dst, time), features)
        assert classifier.logit(fast, "online") == classifier.logit(oracle, "online")
    assert_states_equal(classifier.snapshot(fast), classifier.snapshot(oracle))
    assert fast.edges == oracle.edges
    assert classifier.logit(fast, "exact") == classifier.logit(oracle, "exact")


@pytest.mark.parametrize("updater", ["sum", "gru"])
@pytest.mark.parametrize(
    "policy, features, message",
    [
        ("raise", {0: np.ones(3)}, "node 1 is new"),
        ("zeros", {0: np.ones(3), 1: np.ones(4)}, "expected features of width 3, got 4"),
    ],
)
def test_bad_input_raises_the_same_error(updater, policy, features, message):
    classifier = IncrementalClassifier(make_model(updater), missing_features=policy)
    kernel = FastObserver.build(classifier)
    for observe in (kernel.observe, classifier.observe):
        with pytest.raises(ValueError, match=message):
            observe(classifier.new_session("s"), (0, 1, 0.0), features)


def small_feed():
    return perturb_feed(
        generate_feed(LoadtestConfig(sessions=4, events=240, seed=5, feature_dim=3)),
        rng=11,
        duplicate=0.1,
        swap=0.4,
    )


def oracle_scores(model, feed):
    """Fold ``IncrementalClassifier.observe`` over the feed, dropping
    out-of-order events as the engine's default policy does."""
    classifier = IncrementalClassifier(model, missing_features="zeros")
    sessions = {}
    for event in feed:
        state = sessions.get(event.session_id)
        if state is None:
            state = sessions[event.session_id] = classifier.new_session(event.session_id)
        elif event.time < state.last_time:
            continue
        classifier.observe(state, (event.src, event.dst, event.time), event.node_features)
    return {sid: classifier.predict_proba(state) for sid, state in sessions.items()}


def test_engine_runs_the_kernel_and_matches_the_oracle():
    model = make_model("gru")
    feed = small_feed()
    engine = StreamingEngine(model)
    assert isinstance(engine._kernel, FastObserver)
    engine.ingest_many(feed)
    expected = oracle_scores(model, feed)
    assert {sid: engine.predict(sid) for sid in engine.live_sessions()} == expected


def test_unsupported_configuration_falls_back_to_tensor_observe():
    # A non-"average" edge aggregator is outside the kernel's envelope.
    model = TPGNN(in_features=3, hidden_size=8, gru_hidden_size=8, time_dim=4,
                  edge_aggregator="hadamard", seed=3)
    model.eval()
    assert not FastObserver.supports(IncrementalClassifier(model))
    feed = small_feed()
    engine = StreamingEngine(model)
    assert engine._kernel is engine.classifier
    engine.ingest_many(feed)
    expected = oracle_scores(model, feed)
    assert {sid: engine.predict(sid) for sid in engine.live_sessions()} == expected


@pytest.mark.parametrize(
    "config, expected",
    [
        # (ingested, applied, dropped, late_dropped, overflow_dropped),
        # recorded from the engine before the kernel swap.
        (dict(out_of_order="drop"), (271, 251, 20, 0, 0)),
        (dict(out_of_order="buffer", watermark_delay=2.0, max_buffered=3), (271, 230, 0, 3, 38)),
    ],
)
def test_engine_counters_unchanged_on_a_disordered_feed(config, expected):
    engine = StreamingEngine(make_model("sum"), **config)
    feed = small_feed()
    for event in feed:
        engine.ingest(event)
    engine.flush()
    counters = engine.metrics.counters()
    names = ("events_ingested", "events_applied", "events_dropped",
             "events_late_dropped", "events_overflow_dropped")
    assert tuple(counters[name] for name in names) == expected
    stats = engine.router.stats
    assert counters["events_dropped"] == stats.dropped
    assert counters["events_late_dropped"] == stats.late_dropped
    assert counters["events_overflow_dropped"] == stats.buffer_overflow_dropped
