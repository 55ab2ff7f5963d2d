"""Tests for block-diagonal mega-plans (repro.graph.megaplan)."""

import numpy as np
import pytest

from repro import telemetry
from repro.graph import CTDN
from repro.graph.megaplan import BatchLayout, MegaPlan, MegaPlanCache


def make_graph(seed, num_nodes=5, num_edges=8, width=4):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_nodes, width))
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    times = np.sort(rng.uniform(0.0, 10.0, size=num_edges))
    edges = list(zip(src.tolist(), dst.tolist(), times.tolist()))
    return CTDN(num_nodes, features, edges, label=seed % 2)


def edgeless(num_nodes=1, width=4):
    return CTDN(num_nodes, np.ones((num_nodes, width)), [])


def assert_valid_merged_waves(mega):
    """Merged waves must satisfy the same read/write contract per wave."""
    covered = []
    for start, end in mega.waves():
        written: set[int] = set()
        for i in range(start, end):
            s, d = int(mega.src[i]), int(mega.dst[i])
            assert s not in written
            assert d not in written
            written.add(d)
        covered.extend(range(start, end))
    assert sorted(covered) == list(range(mega.num_edges))


class TestBatchLayout:
    def test_offsets_partition_the_packed_arrays(self):
        graphs = [make_graph(s, num_nodes=3 + s, num_edges=2 + 2 * s) for s in range(4)]
        layout = BatchLayout(graphs)
        assert layout.num_members == 4
        assert layout.num_nodes == sum(g.num_nodes for g in graphs)
        assert layout.num_edges == sum(g.num_edges for g in graphs)
        assert layout.features.shape == (layout.num_nodes, 4)
        for b, g in enumerate(graphs):
            lo, hi = int(layout.node_offsets[b]), int(layout.node_offsets[b + 1])
            assert hi - lo == g.num_nodes
            np.testing.assert_array_equal(layout.features[lo:hi], g.features)
            np.testing.assert_array_equal(layout.member_node_ids[lo:hi], b)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one member"):
            BatchLayout([])

    def test_feature_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="feature width"):
            BatchLayout([make_graph(0, width=4), make_graph(1, width=5)])


class TestMegaPlan:
    def test_merged_wave_k_is_union_of_member_waves_k(self):
        graphs = [make_graph(s, num_nodes=4 + s, num_edges=5 + 3 * s) for s in range(3)]
        mega = MegaPlan.from_graphs(graphs)
        assert mega.num_waves == max(p.num_waves for p in mega.member_plans)
        for k, (start, end) in enumerate(mega.waves()):
            got = set(zip(mega.src[start:end].tolist(), mega.dst[start:end].tolist()))
            expected = set()
            for b, plan in enumerate(mega.member_plans):
                if k >= plan.num_waves:
                    continue
                lo, hi = plan.wave_bounds[k], plan.wave_bounds[k + 1]
                offset = int(mega.node_offsets[b])
                expected.update(
                    (int(s) + offset, int(d) + offset)
                    for s, d in zip(plan.src[lo:hi], plan.dst[lo:hi])
                )
            assert got == expected
        assert_valid_merged_waves(mega)

    def test_times_are_session_relative_per_member(self):
        graphs = [make_graph(s, num_edges=6) for s in range(3)]
        mega = MegaPlan.from_graphs(graphs)
        for b, plan in enumerate(mega.member_plans):
            lo, hi = int(mega.edge_offsets[b]), int(mega.edge_offsets[b + 1])
            np.testing.assert_allclose(
                mega.chrono_times[lo:hi], plan.times - plan.times[0]
            )
        assert mega.chrono_times.min() == 0.0

    def test_wave_order_permutes_chrono_arrays(self):
        graphs = [make_graph(s, num_edges=7) for s in range(3)]
        mega = MegaPlan.from_graphs(graphs)
        np.testing.assert_array_equal(mega.src, mega.chrono_src[mega.wave_order])
        np.testing.assert_array_equal(mega.dst, mega.chrono_dst[mega.wave_order])
        assert sorted(mega.wave_order.tolist()) == list(range(mega.num_edges))

    def test_edgeless_member_is_a_valid_empty_block(self):
        graphs = [make_graph(0, num_edges=5), edgeless(num_nodes=2), make_graph(1, num_edges=3)]
        mega = MegaPlan.from_graphs(graphs)
        assert mega.num_edges == 8
        assert mega.member_edge_counts.tolist() == [5, 0, 3]
        # No edge touches the edgeless member's node rows.
        lo, hi = int(mega.node_offsets[1]), int(mega.node_offsets[2])
        assert not np.any((mega.src >= lo) & (mega.src < hi))
        assert not np.any((mega.dst >= lo) & (mega.dst < hi))
        assert_valid_merged_waves(mega)

    def test_all_edgeless_batch_has_empty_schedule(self):
        mega = MegaPlan.from_graphs([edgeless(), edgeless(num_nodes=3)])
        assert mega.num_edges == 0
        assert mega.num_waves == 0
        assert list(mega.waves()) == []
        assert mega.num_nodes == 4

    def test_single_member_matches_its_own_plan(self):
        graph = make_graph(3, num_edges=10)
        mega = MegaPlan.from_graphs([graph])
        plan = graph.propagation_plan()
        np.testing.assert_array_equal(mega.src, plan.src)
        np.testing.assert_array_equal(mega.dst, plan.dst)
        np.testing.assert_allclose(mega.times, plan.times - plan.times[0])
        assert mega.num_waves == plan.num_waves

    def test_rng_stream_matches_per_graph_loop(self):
        # from_graphs(rng) must consume the generator exactly as the
        # sequential per-graph calls do — bit-compatibility depends on it.
        edges = [(i, (i + 1) % 5, 1.0) for i in range(5)] + [(i, (i + 2) % 5, 2.0) for i in range(5)]
        graphs = [CTDN(5, np.eye(5), edges) for _ in range(3)]
        mega = MegaPlan.from_graphs(graphs, rng=np.random.default_rng(11))
        rng = np.random.default_rng(11)
        for b, g in enumerate(graphs):
            expected = g.propagation_plan(rng=rng)
            member = mega.member_plans[b]
            np.testing.assert_array_equal(member.src, expected.src)
            np.testing.assert_array_equal(member.dst, expected.dst)

    def test_padded_sequence_index_places_edges_step_major(self):
        graphs = [make_graph(0, num_edges=4), make_graph(1, num_edges=7)]
        mega = MegaPlan.from_graphs(graphs)
        index, lengths = mega.padded_sequence_index()
        assert lengths.tolist() == [4, 7]
        grid = index.reshape(7, 2)
        np.testing.assert_array_equal(grid[:4, 0], np.arange(4))
        np.testing.assert_array_equal(grid[:, 1], np.arange(4, 11))
        np.testing.assert_array_equal(grid[4:, 0], 0)  # pad slots

    def test_member_plan_count_must_match_layout(self):
        graphs = [make_graph(0), make_graph(1)]
        layout = BatchLayout(graphs)
        with pytest.raises(ValueError, match="member plans"):
            MegaPlan([graphs[0].propagation_plan()], layout)


class TestMegaPlanCache:
    def counters(self):
        registry = telemetry.get_registry()
        return (
            registry.counter("propagation/megaplan_cache_hits").value,
            registry.counter("propagation/megaplan_cache_misses").value,
        )

    def test_hit_reuses_deterministic_plan_and_counts(self):
        cache = MegaPlanCache()
        graphs = [make_graph(s) for s in range(3)]
        hits0, misses0 = self.counters()
        first = cache.batch(graphs)
        second = cache.batch(graphs)
        hits1, misses1 = self.counters()
        assert second is first
        assert (hits1 - hits0, misses1 - misses0) == (1, 1)

    def test_tie_shuffled_request_reuses_layout_only(self):
        cache = MegaPlanCache()
        graphs = [make_graph(s) for s in range(3)]
        deterministic = cache.batch(graphs)
        shuffled = cache.batch(graphs, rng=np.random.default_rng(0))
        assert shuffled is not deterministic
        assert shuffled.layout is deterministic.layout

    def test_different_composition_misses(self):
        cache = MegaPlanCache()
        graphs = [make_graph(s) for s in range(4)]
        cache.batch(graphs[:2])
        hits0, _ = self.counters()
        cache.batch(graphs[2:])
        cache.batch(graphs[:2][::-1])  # order matters
        hits1, _ = self.counters()
        assert hits1 == hits0
        assert len(cache) == 3

    def test_lru_evicts_oldest_composition(self):
        cache = MegaPlanCache(capacity=2)
        a, b, c = [make_graph(s) for s in range(3)]
        cache.batch([a])
        cache.batch([b])
        cache.batch([c])  # evicts [a]
        assert len(cache) == 2
        _, misses0 = self.counters()
        cache.batch([a])  # rebuilt
        _, misses1 = self.counters()
        assert misses1 == misses0 + 1

    def test_batch_if_repeated_admits_on_second_request(self):
        cache = MegaPlanCache()
        graphs = [make_graph(s) for s in range(3)]
        hits0, misses0 = self.counters()
        first = cache.batch_if_repeated(graphs)
        assert len(cache) == 0  # a one-off composition is not kept
        second = cache.batch_if_repeated(graphs)
        assert len(cache) == 1 and second is not first
        assert cache.batch_if_repeated(graphs) is second
        hits1, misses1 = self.counters()
        assert (hits1 - hits0, misses1 - misses0) == (1, 2)

    def test_clear_empties_the_cache(self):
        cache = MegaPlanCache()
        cache.batch([make_graph(0)])
        cache.clear()
        assert len(cache) == 0
