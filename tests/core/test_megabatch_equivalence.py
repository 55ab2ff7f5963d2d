"""Mega-batching equivalence suite (pytest -m mega).

The contract of the block-diagonal mega-plan is *bit-compatibility up to
BLAS summation order*: every forward embedding, backward gradient, and
optimizer step produced through :meth:`embed_batch` must match the
per-graph path to 1e-9 — across both updaters, all SUM stabilizers,
tie storms, and ragged batches (including 1-node and single-edge
members).  Anything looser would silently change training results when
the trainer switched to mega-batching.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ablation import make_ablation_variant
from repro.core.model import TPGNN
from repro.core.propagation import TemporalPropagationGRU, TemporalPropagationSum
from repro.core.transformer_extractor import make_tpgnn_with_extractor
from repro.core.unsupervised import UnsupervisedTPGNN
from repro.graph import CTDN
from repro.graph.megaplan import MegaPlan, mega_plan
from repro.nn.loss import bce_with_logits
from repro.optim import Adam

pytestmark = pytest.mark.mega

TOL = 1e-9
WIDTH = 4


def make_graph(seed, num_nodes=5, num_edges=8, tie_storm=False):
    rng = np.random.default_rng(seed)
    features = rng.normal(size=(num_nodes, WIDTH))
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    if tie_storm:
        # Few distinct timestamps -> large tie groups -> shuffling matters.
        times = np.sort(rng.integers(0, 3, size=num_edges).astype(np.float64))
    else:
        times = np.sort(rng.uniform(0.0, 10.0, size=num_edges))
    edges = list(zip(src.tolist(), dst.tolist(), times.tolist()))
    return CTDN(num_nodes, features, edges, label=int(seed % 2))


def ragged_batch():
    """Wildly uneven members, including a 1-node single-edge graph."""
    return [
        make_graph(0, num_nodes=1, num_edges=1),  # self-loop only
        make_graph(1, num_nodes=9, num_edges=21, tie_storm=True),
        make_graph(2, num_nodes=3, num_edges=2),
        make_graph(3, num_nodes=6, num_edges=13),
    ]


def assert_close(a, b, tol=TOL):
    np.testing.assert_allclose(a, b, rtol=0.0, atol=tol)


# ----------------------------------------------------------------------
# Propagation-level equivalence
# ----------------------------------------------------------------------
class TestPropagationEquivalence:
    @pytest.mark.parametrize("stabilizer", ["bounded", "average", "none"])
    @pytest.mark.parametrize("engine", ["wave", "per-edge"])
    def test_sum_all_stabilizers_and_engines(self, stabilizer, engine):
        prop = TemporalPropagationSum(
            WIDTH, 8, time_dim=4, stabilizer=stabilizer, rng=np.random.default_rng(1)
        )
        graphs = ragged_batch()
        mega = MegaPlan.from_graphs(graphs)
        run = prop.fold if engine == "per-edge" else prop
        packed = run(mega).data
        singles = np.concatenate([run(g).data for g in graphs])
        assert_close(packed, singles)
        assert not prop.fallback

    @pytest.mark.parametrize("engine", ["wave", "per-edge"])
    def test_gru_updater(self, engine):
        prop = TemporalPropagationGRU(WIDTH, 8, time_dim=4, rng=np.random.default_rng(1))
        graphs = ragged_batch()
        mega = MegaPlan.from_graphs(graphs)
        run = prop.fold if engine == "per-edge" else prop
        packed = run(mega).data
        singles = np.concatenate([run(g).data for g in graphs])
        assert_close(packed, singles)

    def test_edgeless_member_keeps_encoded_features(self):
        prop = TemporalPropagationSum(WIDTH, 8, time_dim=4, rng=np.random.default_rng(1))
        lone = CTDN(2, np.ones((2, WIDTH)), [])
        graphs = [make_graph(0), lone]
        mega = MegaPlan.from_graphs(graphs)
        packed = prop(mega).data
        singles = np.concatenate([prop(g).data for g in graphs])
        assert_close(packed, singles)


# ----------------------------------------------------------------------
# Model-level equivalence: forward, backward, optimizer step
# ----------------------------------------------------------------------
class TestModelEquivalence:
    @pytest.mark.parametrize("updater", ["sum", "gru"])
    def test_forward_embeddings(self, updater):
        model = TPGNN(WIDTH, updater=updater, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        graphs = ragged_batch()
        packed = model.embed_batch(graphs).data
        singles = np.stack([model.embed(g).data for g in graphs])
        assert_close(packed, singles)

    @pytest.mark.parametrize("updater", ["sum", "gru"])
    def test_tie_shuffle_rng_streams_match(self, updater):
        model = TPGNN(WIDTH, updater=updater, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        graphs = [make_graph(s, num_edges=15, tie_storm=True) for s in range(4)]
        packed = model.embed_batch(graphs, rng=np.random.default_rng(7)).data
        rng = np.random.default_rng(7)
        singles = np.stack([model.embed(g, rng=rng).data for g in graphs])
        assert_close(packed, singles)

    @pytest.mark.parametrize("updater", ["sum", "gru"])
    def test_backward_gradients(self, updater):
        graphs = ragged_batch()
        targets = np.array([float(g.label) for g in graphs])
        batched = TPGNN(WIDTH, updater=updater, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        looped = TPGNN(WIDTH, updater=updater, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        bce_with_logits(batched.forward_batch(graphs), targets).backward()
        for graph in graphs:
            logit = looped.forward(graph).reshape(1)
            bce_with_logits(logit, np.array([float(graph.label)])).backward()
        for pb, pl in zip(batched.parameters(), looped.parameters()):
            assert_close(pb.grad, pl.grad / len(graphs))

    @pytest.mark.parametrize("updater", ["sum", "gru"])
    def test_one_optimizer_step(self, updater):
        graphs = ragged_batch()
        targets = np.array([float(g.label) for g in graphs])
        batched = TPGNN(WIDTH, updater=updater, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        looped = TPGNN(WIDTH, updater=updater, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        opt_b = Adam(batched.parameters(), lr=1e-2)
        opt_l = Adam(looped.parameters(), lr=1e-2)
        bce_with_logits(batched.forward_batch(graphs), targets).backward()
        opt_b.step()
        for graph in graphs:
            logit = looped.forward(graph).reshape(1)
            bce_with_logits(logit, np.array([float(graph.label)])).backward()
        for p in looped.parameters():
            p.grad = p.grad / len(graphs)
        opt_l.step()
        for pb, pl in zip(batched.parameters(), looped.parameters()):
            assert_close(pb.data, pl.data)

    def test_edgeless_member_rejected(self):
        model = TPGNN(WIDTH, hidden_size=8, gru_hidden_size=8, time_dim=4, seed=3)
        with pytest.raises(ValueError, match="at least one temporal edge"):
            model.embed_batch([make_graph(0), CTDN(2, np.ones((2, WIDTH)), [])])


# ----------------------------------------------------------------------
# Variant models
# ----------------------------------------------------------------------
class TestVariantEquivalence:
    @pytest.mark.parametrize("variant", ["w/o tem", "temp", "time2Vec"])
    def test_ablation_variants(self, variant):
        model = make_ablation_variant(variant, WIDTH, seed=1)
        graphs = ragged_batch()
        packed = model.embed_batch(graphs).data
        singles = np.stack([model.embed(g).data for g in graphs])
        assert_close(packed, singles)

    @pytest.mark.parametrize("variant", ["temp", "time2Vec"])
    def test_mean_readout_variants_allow_edgeless_members(self, variant):
        # Per-graph embed() accepts edgeless graphs for these variants,
        # so the batched path must too.
        model = make_ablation_variant(variant, WIDTH, seed=1)
        graphs = [make_graph(0), CTDN(3, np.ones((3, WIDTH)), [])]
        packed = model.embed_batch(graphs).data
        singles = np.stack([model.embed(g).data for g in graphs])
        assert_close(packed, singles)

    def test_transformer_extractor(self):
        model = make_tpgnn_with_extractor(WIDTH, extractor="transformer", seed=2)
        graphs = ragged_batch()
        packed = model.embed_batch(graphs).data
        singles = np.stack([model.embed(g).data for g in graphs])
        assert_close(packed, singles)

    def test_unsupervised_prediction_loss_batch(self):
        model = UnsupervisedTPGNN(WIDTH, seed=4)
        graphs = ragged_batch()  # includes a single-edge member (scores 0)
        packed = model.prediction_loss_batch(graphs)
        singles = np.array([model.prediction_loss(g).item() for g in graphs])
        assert_close(np.asarray(packed.data), singles)
        packed.sum().backward()  # gradient flows through the padded grid
        assert any(p.grad is not None and np.any(p.grad != 0) for p in model.parameters())


# ----------------------------------------------------------------------
# Property-based sweep
# ----------------------------------------------------------------------
@st.composite
def graph_batches(draw):
    batch = draw(st.integers(min_value=1, max_value=4))
    graphs = []
    for b in range(batch):
        n = draw(st.integers(min_value=1, max_value=6))
        m = draw(st.integers(min_value=1, max_value=12))
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        features = rng.normal(size=(n, WIDTH))
        src = rng.integers(0, n, size=m)
        dst = rng.integers(0, n, size=m)
        # Coarse integer times to provoke ties regularly.
        times = np.sort(rng.integers(0, 4, size=m).astype(np.float64))
        graphs.append(
            CTDN(n, features, list(zip(src.tolist(), dst.tolist(), times.tolist())), label=b % 2)
        )
    return graphs


class TestPropertyBased:
    @settings(max_examples=25, deadline=None)
    @given(graphs=graph_batches(), updater=st.sampled_from(["sum", "gru"]))
    def test_random_ragged_batches_match(self, graphs, updater):
        model = TPGNN(WIDTH, updater=updater, hidden_size=6, gru_hidden_size=6, time_dim=3, seed=5)
        packed = model.embed_batch(graphs, rng=np.random.default_rng(13)).data
        rng = np.random.default_rng(13)
        singles = np.stack([model.embed(g, rng=rng).data for g in graphs])
        assert_close(packed, singles)

    @settings(max_examples=15, deadline=None)
    @given(graphs=graph_batches())
    def test_random_batches_wave_matches_per_edge(self, graphs):
        prop = TemporalPropagationSum(WIDTH, 6, time_dim=3, rng=np.random.default_rng(2))
        mega = mega_plan(graphs)
        wave = prop(mega).data
        per_edge = prop.fold(mega).data
        assert_close(wave, per_edge)
