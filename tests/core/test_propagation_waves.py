"""Property suite: the wave engine must reproduce the per-edge recurrence.

The wave scheduler's whole claim is that batching edges into waves is a
pure execution-order optimisation — Algorithm 1's recurrence semantics
are untouched.  These tests drive random graphs with heavy timestamp
ties, self-loops and repeated destinations through both engines and
require agreement to 1e-9, for every updater, every SUM stabilizer,
with and without time encoding, and through the backward pass.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.propagation import (
    TemporalPropagationGRU,
    TemporalPropagationSum,
)
from repro.graph import CTDN

TOLERANCE = 1e-9


@st.composite
def random_graphs(draw):
    """Small CTDNs biased toward ties, self-loops and repeated targets."""
    n = draw(st.integers(min_value=2, max_value=6))
    m = draw(st.integers(min_value=1, max_value=24))
    edges = [
        (
            draw(st.integers(0, n - 1)),
            draw(st.integers(0, n - 1)),
            float(draw(st.integers(0, 3))),  # few distinct times => big tie groups
        )
        for _ in range(m)
    ]
    seed = draw(st.integers(0, 2**16))
    features = np.random.default_rng(seed).normal(size=(n, 3))
    return CTDN(n, features, edges)


def build_sum(graph, stabilizer, time_dim):
    return TemporalPropagationSum(
        graph.feature_dim,
        hidden_size=7,
        time_dim=time_dim,
        stabilizer=stabilizer,
        rng=np.random.default_rng(99),
    )


def build_gru(graph, time_dim):
    return TemporalPropagationGRU(
        graph.feature_dim,
        hidden_size=7,
        time_dim=time_dim,
        rng=np.random.default_rng(99),
    )


def assert_engines_agree(prop, graph):
    wave = prop(graph)
    fold = prop.fold(graph)
    assert wave.shape == fold.shape
    assert np.max(np.abs(wave.data - fold.data), initial=0.0) <= TOLERANCE


@settings(max_examples=20, deadline=None)
@given(random_graphs(), st.sampled_from(("bounded", "average", "none")))
def test_sum_wave_matches_fold(graph, stabilizer):
    assert_engines_agree(build_sum(graph, stabilizer, time_dim=5), graph)


@settings(max_examples=15, deadline=None)
@given(random_graphs(), st.sampled_from(("bounded", "none")))
def test_sum_wave_matches_fold_without_time(graph, stabilizer):
    assert_engines_agree(build_sum(graph, stabilizer, time_dim=0), graph)


@settings(max_examples=20, deadline=None)
@given(random_graphs())
def test_gru_wave_matches_fold(graph):
    assert_engines_agree(build_gru(graph, time_dim=4), graph)


@settings(max_examples=15, deadline=None)
@given(random_graphs())
def test_gru_wave_matches_fold_without_time(graph):
    assert_engines_agree(build_gru(graph, time_dim=0), graph)


@settings(max_examples=10, deadline=None)
@given(random_graphs(), st.integers(0, 1000))
def test_engines_agree_on_shared_tie_shuffled_plan(graph, seed):
    # Both engines must consume the SAME tie-shuffled order: build the
    # plan once and hand it to each.
    mega = graph.as_mega_plan(rng=np.random.default_rng(seed))
    assert_engines_agree(build_sum(graph, "bounded", time_dim=3), mega)
    assert_engines_agree(build_gru(graph, time_dim=3), mega)


class TestDeterministicEdgeCases:
    def stress_graph(self):
        # Self-loop, repeated destination within a tie, chain, and a
        # node that is both read and written at the same timestamp.
        edges = [
            (0, 0, 1.0),
            (1, 2, 1.0),
            (3, 2, 1.0),
            (2, 4, 1.0),
            (4, 0, 2.0),
            (0, 1, 2.0),
            (1, 1, 2.0),
        ]
        return CTDN(5, np.random.default_rng(0).normal(size=(5, 3)), edges)

    @pytest.mark.parametrize("stabilizer", ("bounded", "average", "none"))
    def test_sum_stress(self, stabilizer):
        graph = self.stress_graph()
        assert_engines_agree(build_sum(graph, stabilizer, time_dim=6), graph)

    def test_gru_stress(self):
        graph = self.stress_graph()
        assert_engines_agree(build_gru(graph, time_dim=6), graph)

    def test_update_counts_match(self):
        graph = self.stress_graph()
        prop = build_sum(graph, "bounded", time_dim=4)
        prop(graph)
        wave_count = prop.last_update_count
        prop.fold(graph)
        assert wave_count == prop.last_update_count == graph.num_edges

    @pytest.mark.parametrize("builder", (
        lambda g: build_sum(g, "bounded", time_dim=4),
        lambda g: build_gru(g, time_dim=4),
    ))
    def test_backward_gradients_match(self, builder):
        # The engines must agree through the tape as well: parameter
        # gradients from the wave kernels match the per-edge fold.
        graph = self.stress_graph()
        prop = builder(graph)
        params = list(prop.parameters())

        def grads(run):
            for p in params:
                p.zero_grad()
            (run(graph) ** 2.0).sum().backward()
            return [p.grad.copy() for p in params]

        for wave, fold in zip(grads(prop), grads(prop.fold)):
            assert np.max(np.abs(wave - fold), initial=0.0) <= 1e-8
