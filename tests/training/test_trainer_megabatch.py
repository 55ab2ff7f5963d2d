"""Batched training loop tests (pytest -m mega).

``train_model`` takes one ``forward_batch`` step per minibatch for every
model.  Its headline guarantee: the same final weights and losses, to
1e-9, as the reference semantics kept here as the oracle — a per-graph
forward/backward per example, gradients accumulated and then averaged
over the actual batch, clipped, and stepped only on a finite norm.  The
fused batch is an execution strategy, not a modelling change.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.baselines import ALL_MODELS, PLUS_G_MODELS, make_model as make_registry_model
from repro.core import TPGNN
from repro.core.ablation import ABLATION_VARIANTS, TPGNNRandVariant, make_ablation_variant
from repro.graph import CTDN, GraphDataset
from repro.nn import bce_with_logits
from repro.optim import Adam, clip_grad_norm
from repro.training import TrainConfig, train_model

pytestmark = pytest.mark.mega


def make_model(seed=0, updater="sum"):
    return TPGNN(3, updater=updater, hidden_size=6, gru_hidden_size=6, time_dim=2, seed=seed)


def tied_dataset():
    """Twelve graphs whose coarse integer timestamps form tie groups."""
    rng = np.random.default_rng(11)
    graphs = []
    for index in range(12):
        n = int(rng.integers(4, 8))
        src = rng.integers(0, n, size=10)
        dst = (src + rng.integers(1, n, size=10)) % n
        times = np.sort(rng.integers(0, 3, size=10).astype(np.float64))
        edges = list(zip(src.tolist(), dst.tolist(), times.tolist()))
        graphs.append(CTDN(n, rng.normal(size=(n, 3)), edges, label=index % 2))
    return GraphDataset(graphs, name="tied")


def oracle_train(model, data, config):
    """Per-graph accumulate-then-average: what ``train_model`` must reproduce.

    Consumes the rng as the trainer does (graph permutation, then each
    graph's tie shuffle in batch order).  Returns the per-epoch losses.
    """
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    model.train()
    losses = []
    for _ in range(config.epochs):
        indices = (
            rng.permutation(len(data)) if config.shuffle_graphs else np.arange(len(data))
        )
        tie_rng = rng if config.shuffle_ties else None
        epoch_loss = 0.0
        for start in range(0, len(indices), config.batch_size):
            chunk = indices[start : start + config.batch_size]
            optimizer.zero_grad()
            for index in chunk:
                graph = data[int(index)]
                loss = bce_with_logits(
                    model(graph, rng=tie_rng), np.array([float(graph.label)])
                )
                loss.backward()
                epoch_loss += loss.item()
            for param in model.parameters():
                if param.grad is not None:
                    param.grad /= len(chunk)
            if np.isfinite(clip_grad_norm(model.parameters(), config.grad_clip)):
                optimizer.step()
        losses.append(epoch_loss / len(indices))
    return losses


def assert_matches_oracle(factory, data, config):
    trained, oracle = factory(), factory()
    result = train_model(trained, data, config)
    oracle_losses = oracle_train(oracle, data, config)
    for key, value in trained.state_dict().items():
        np.testing.assert_allclose(
            value, oracle.state_dict()[key], rtol=0.0, atol=1e-9, err_msg=key
        )
    np.testing.assert_allclose(result.losses, oracle_losses, rtol=0.0, atol=1e-9)


def registry_factory(name):
    if name in ABLATION_VARIANTS:
        return lambda: make_ablation_variant(
            name, 3, hidden_size=6, gru_hidden_size=6, time_dim=2, seed=1
        )
    return lambda: make_registry_model(name, 3, seed=1, hidden_size=6, time_dim=2)


class TestMegabatchTraining:
    @pytest.mark.parametrize("updater", ["sum", "gru"])
    def test_final_weights_match_pergraph_loop(self, tiny_dataset, updater):
        config = TrainConfig(epochs=3, learning_rate=1e-2, batch_size=8, seed=0)
        assert_matches_oracle(lambda: make_model(1, updater), tiny_dataset, config)

    def test_tie_shuffling_streams_match(self):
        # shuffle_ties consumes the epoch rng inside the batch loop; the
        # batched path must draw the identical stream.
        config = TrainConfig(epochs=2, batch_size=4, seed=3, shuffle_ties=True)
        assert_matches_oracle(lambda: make_model(2), tied_dataset(), config)

    @pytest.mark.parametrize("name", ALL_MODELS + PLUS_G_MODELS + ABLATION_VARIANTS)
    def test_one_epoch_matches_oracle_for_every_model(self, tiny_dataset, name):
        # Baselines embed graph by graph and stack; TP-GNN and its
        # variants run one mega-plan.  Either way one batched backward
        # per minibatch equals the accumulate-then-average loop.
        config = TrainConfig(epochs=1, learning_rate=1e-2, batch_size=5, seed=4)
        assert_matches_oracle(registry_factory(name), tiny_dataset, config)

    def test_rand_variant_trains_on_stacked_embeddings(self, tiny_dataset):
        # The rand variant aggregates with its own sampler per graph; its
        # minibatch embedding is the base class's stack of embed calls.
        model = TPGNNRandVariant(3, hidden_size=6, seed=0)
        result = train_model(model, tiny_dataset, TrainConfig(epochs=1, seed=0))
        assert result.epochs_run == 1

    def test_megabatch_spans_and_cache_counters_emitted(self, tiny_dataset):
        from repro.graph.megaplan import _default_cache

        _default_cache.clear()
        with telemetry.capture() as cap:
            # Without graph shuffling, every epoch rebuilds the same
            # batch compositions: epoch 2 admits them to the layout
            # cache (a composition is cached on its second request) and
            # epoch 3 hits it.
            train_model(
                make_model(),
                tiny_dataset,
                TrainConfig(epochs=3, batch_size=4, seed=0, shuffle_graphs=False),
            )
        paths = {row["span"] for row in cap.tracer.to_rows()}
        assert "train/epoch/megabatch/forward" in paths
        assert "train/epoch/megabatch/backward" in paths
        assert "train/epoch/megabatch/optimizer_step" in paths
        metrics = {row["metric"]: row for row in cap.registry.snapshot()}
        assert metrics["propagation/megaplan_cache_misses"]["value"] > 0
        # Epoch 3 reuses the batch layouts admitted in epoch 2.
        assert metrics["propagation/megaplan_cache_hits"]["value"] > 0

    def test_baselines_emit_megabatch_spans(self, tiny_dataset):
        model = make_registry_model("GCN", 3, seed=0, hidden_size=6)
        with telemetry.capture() as cap:
            train_model(model, tiny_dataset, TrainConfig(epochs=1, batch_size=4, seed=0))
        paths = {row["span"] for row in cap.tracer.to_rows()}
        assert "train/epoch/megabatch/forward" in paths
        assert not any(path.startswith("train/epoch/batch") for path in paths)

    def test_nonfinite_megabatch_skipped_and_counted(self, tiny_dataset):
        model = make_model()
        # Poison a parameter so every forward yields non-finite logits.
        params = list(model.parameters())
        params[0].data[...] = np.nan
        result = train_model(
            model, tiny_dataset, TrainConfig(epochs=1, batch_size=4, seed=0)
        )
        assert result.nonfinite_batches > 0
