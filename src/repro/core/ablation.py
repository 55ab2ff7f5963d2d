"""Ablation variants of TP-GNN (paper Sec. V-F, Figs. 3-4).

Four variants isolate the contribution of each component:

* ``rand`` — random neighbour aggregation instead of temporal
  propagation, mean pooling instead of the global extractor.
* ``w/o tem`` — no temporal propagation: initial encoded features go
  straight into the global extractor.
* ``temp`` — temporal propagation **without** the time embedding
  ``f(t)``, mean pooling readout.
* ``time2Vec`` — full temporal propagation (with ``f(t)``), mean
  pooling readout (i.e. only the global extractor is removed).

All variants share :class:`~repro.core.base.GraphClassifierBase`, so
the experiment harness trains them identically to the full model.
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GraphClassifierBase, MeanReadout
from repro.core.extractor import GlobalTemporalExtractor
from repro.core.propagation import (
    RandomAggregation,
    TemporalPropagationGRU,
    TemporalPropagationSum,
)
from repro.graph.ctdn import CTDN
from repro.graph.megaplan import mega_plan
from repro.nn import FeatureEncoder
from repro.tensor import Tensor

ABLATION_VARIANTS = ("rand", "w/o tem", "temp", "time2Vec", "full")


class TPGNNRandVariant(GraphClassifierBase):
    """``rand``: random aggregation + mean pooling (no time at all)."""

    def __init__(self, in_features: int, hidden_size: int = 32, seed: int = 0):
        rng = np.random.default_rng(seed)
        propagation = RandomAggregation(in_features, hidden_size, rng=rng)
        super().__init__(embedding_dim=propagation.output_dim, rng=rng)
        self.propagation = propagation
        self.readout = MeanReadout()
        self._sampler = np.random.default_rng(seed + 1)

    def embed(self, graph: CTDN, rng: np.random.Generator | None = None) -> Tensor:
        """Mean-pool randomly aggregated node embeddings."""
        sampler = rng if rng is not None else self._sampler
        return self.readout(self.propagation(graph, rng=sampler))


class TPGNNWithoutTemporalPropagation(GraphClassifierBase):
    """``w/o tem``: encoded initial features -> global extractor only."""

    def __init__(
        self,
        in_features: int,
        hidden_size: int = 32,
        gru_hidden_size: int = 32,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        super().__init__(embedding_dim=gru_hidden_size, rng=rng)
        self.encoder = FeatureEncoder(in_features, hidden_size, rng=rng)
        self.extractor = GlobalTemporalExtractor(
            node_dim=hidden_size, hidden_size=gru_hidden_size, rng=rng
        )

    def embed_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Encoded node features through the edge-sequence GRU, one fused scan."""
        mega = mega_plan(graphs, rng=rng)
        if np.any(mega.member_edge_counts == 0):
            raise ValueError("variant requires at least one temporal edge per graph")
        encoded = self.encoder(Tensor(mega.features)).tanh()
        return self.extractor.forward_mega(encoded, mega)


class TPGNNTempVariant(GraphClassifierBase):
    """``temp``: propagation without ``f(t)``, mean pooling readout."""

    def __init__(self, in_features: int, updater: str = "sum", hidden_size: int = 32, seed: int = 0):
        rng = np.random.default_rng(seed)
        cls = TemporalPropagationSum if updater == "sum" else TemporalPropagationGRU
        propagation = cls(in_features, hidden_size, time_dim=0, rng=rng)
        super().__init__(embedding_dim=propagation.output_dim, rng=rng)
        self.propagation = propagation
        self.readout = MeanReadout()

    def embed_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Mean-pool time-blind propagation: merged waves + segment means."""
        mega = mega_plan(graphs, rng=rng)
        return self.readout.forward_mega(self.propagation(mega), mega)


class TPGNNTime2VecVariant(GraphClassifierBase):
    """``time2Vec``: full propagation with ``f(t)``, mean pooling readout."""

    def __init__(
        self,
        in_features: int,
        updater: str = "sum",
        hidden_size: int = 32,
        time_dim: int = 6,
        seed: int = 0,
    ):
        rng = np.random.default_rng(seed)
        cls = TemporalPropagationSum if updater == "sum" else TemporalPropagationGRU
        propagation = cls(in_features, hidden_size, time_dim=time_dim, rng=rng)
        super().__init__(embedding_dim=propagation.output_dim, rng=rng)
        self.propagation = propagation
        self.readout = MeanReadout()

    def embed_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Mean-pool full propagation (with ``f(t)``): merged waves + segment means."""
        mega = mega_plan(graphs, rng=rng)
        return self.readout.forward_mega(self.propagation(mega), mega)


def make_ablation_variant(
    variant: str,
    in_features: int,
    updater: str = "sum",
    hidden_size: int = 32,
    gru_hidden_size: int = 32,
    time_dim: int = 6,
    seed: int = 0,
) -> GraphClassifierBase:
    """Factory for the Fig. 3/4 model variants (including ``full``)."""
    if variant == "rand":
        return TPGNNRandVariant(in_features, hidden_size=hidden_size, seed=seed)
    if variant == "w/o tem":
        return TPGNNWithoutTemporalPropagation(
            in_features, hidden_size=hidden_size, gru_hidden_size=gru_hidden_size, seed=seed
        )
    if variant == "temp":
        return TPGNNTempVariant(in_features, updater=updater, hidden_size=hidden_size, seed=seed)
    if variant == "time2Vec":
        return TPGNNTime2VecVariant(
            in_features, updater=updater, hidden_size=hidden_size, time_dim=time_dim, seed=seed
        )
    if variant == "full":
        from repro.core.model import TPGNN

        return TPGNN(
            in_features,
            updater=updater,
            hidden_size=hidden_size,
            gru_hidden_size=gru_hidden_size,
            time_dim=time_dim,
            seed=seed,
        )
    raise KeyError(f"unknown ablation variant {variant!r}; choose from {ABLATION_VARIANTS}")
