"""Unsupervised TP-GNN (the paper's stated future-work direction).

The conclusion of the paper lists "a suitable unsupervised model for
the graph classification task" as future work.  This module implements
the natural construction on top of the TP-GNN machinery:

1. run temporal propagation to obtain order-aware node embeddings,
2. roll the extractor GRU along the chronological edge-embedding
   sequence and train a head to **predict the next edge embedding**
   (a self-supervised pretext task that only needs positive graphs),
3. score a graph by its mean next-edge prediction error — anomalous
   evolution (wrong order, rewired movements, fault cascades) is
   exactly what the one-step predictor fails to anticipate,
4. calibrate a decision threshold as a quantile of the training
   scores.

The detector never sees labels; it trains on (presumed-normal) graphs
only, the standard unsupervised-anomaly-detection protocol.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.core.extractor import GlobalTemporalExtractor
from repro.core.propagation import TemporalPropagationGRU, TemporalPropagationSum
from repro.graph.ctdn import CTDN
from repro.graph.megaplan import mega_plan
from repro.nn import Linear, Module
from repro.optim import Adam, clip_grad_norm
from repro.tensor import Tensor, no_grad, ops


class UnsupervisedTPGNN(Module):
    """Self-supervised next-edge predictor over temporal propagation.

    Parameters
    ----------
    in_features:
        Raw node feature dimensionality.
    updater:
        Temporal propagation updater, ``"sum"`` or ``"gru"``.
    hidden_size:
        Node-embedding and GRU hidden width.
    time_dim:
        Time2Vec dimensionality.
    quantile:
        Training-score quantile used as the anomaly threshold; scores
        above it are flagged anomalous (predicted label 0).
    seed:
        Parameter initialisation seed.
    """

    def __init__(
        self,
        in_features: int,
        updater: str = "gru",
        hidden_size: int = 16,
        time_dim: int = 4,
        quantile: float = 0.95,
        seed: int = 0,
    ):
        super().__init__()
        if not 0.5 < quantile <= 1.0:
            raise ValueError(f"quantile must be in (0.5, 1], got {quantile}")
        rng = np.random.default_rng(seed)
        if updater == "sum":
            self.propagation = TemporalPropagationSum(in_features, hidden_size, time_dim=time_dim, rng=rng)
        elif updater == "gru":
            self.propagation = TemporalPropagationGRU(in_features, hidden_size, time_dim=time_dim, rng=rng)
        else:
            raise KeyError(f"unknown updater {updater!r}; choose 'sum' or 'gru'")
        edge_width = self.propagation.output_dim
        self.extractor = GlobalTemporalExtractor(edge_width, hidden_size=hidden_size, rng=rng)
        self.predictor = Linear(hidden_size, edge_width, rng=rng)
        self.quantile = quantile
        self.threshold: float | None = None

    # ------------------------------------------------------------------
    # Pretext objective
    # ------------------------------------------------------------------
    def prediction_loss(self, graph: CTDN, rng: np.random.Generator | None = None) -> Tensor:
        """Mean squared next-edge prediction error (differentiable).

        The GRU state after edge ``i`` predicts the embedding of edge
        ``i+1``; graphs with a single edge have no transition and score
        0.  Row 0 of :meth:`prediction_loss_batch` over a batch of one.
        """
        return self.prediction_loss_batch([graph], rng=rng)[0]

    def prediction_loss_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Per-graph pretext losses for a minibatch — shape ``(B,)``.

        One mega-batched propagation pass and one fused GRU scan over
        the end-padded edge grid; single-edge members score 0.
        """
        mega = mega_plan(graphs, rng=rng)
        if np.any(mega.member_edge_counts == 0):
            raise ValueError("cannot score a graph with no edges")
        node_embeddings = self.propagation(mega)
        sequence = self.extractor._edge_matrix(
            node_embeddings, mega.chrono_src, mega.chrono_dst
        )
        index, lengths = mega.padded_sequence_index()
        steps = int(lengths.max())
        grid = ops.index_rows(sequence, index).reshape(
            steps, mega.num_members, sequence.shape[1]
        )
        states, _ = self.extractor.gru(grid)
        losses = []
        for b in range(mega.num_members):
            m = int(lengths[b])
            if m < 2:
                losses.append(Tensor(np.zeros(1), requires_grad=False).sum())
                continue
            predicted = self.predictor(states[(slice(0, m - 1), b)])
            start = int(mega.edge_offsets[b])
            target = sequence[start + 1 : start + m].detach()
            difference = predicted - target
            losses.append((difference * difference).mean())
        return ops.stack(losses, axis=0)

    # ------------------------------------------------------------------
    # Fit / score / predict
    # ------------------------------------------------------------------
    def fit(
        self,
        graphs: Iterable[CTDN],
        epochs: int = 10,
        learning_rate: float = 1e-2,
        grad_clip: float = 5.0,
        seed: int = 0,
    ) -> list[float]:
        """Train the pretext task on (presumed-normal) graphs.

        Returns the per-epoch mean losses and calibrates
        :attr:`threshold` from the final training scores.
        """
        graphs = [g for g in graphs if g.num_edges >= 2]
        if not graphs:
            raise ValueError("fit needs at least one graph with >= 2 edges")
        optimizer = Adam(self.parameters(), lr=learning_rate)
        rng = np.random.default_rng(seed)
        losses = []
        for _ in range(epochs):
            epoch_loss = 0.0
            for index in rng.permutation(len(graphs)):
                optimizer.zero_grad()
                loss = self.prediction_loss(graphs[int(index)], rng=rng)
                loss.backward()
                clip_grad_norm(self.parameters(), grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
            losses.append(epoch_loss / len(graphs))
        scores = [self.score(graph) for graph in graphs]
        self.threshold = float(np.quantile(scores, self.quantile))
        return losses

    def score(self, graph: CTDN) -> float:
        """Anomaly score: mean next-edge prediction error (higher = worse)."""
        with no_grad():
            return float(self.prediction_loss(graph).item())

    def predict(self, graph: CTDN) -> int:
        """Label prediction: 1 (normal) if the score is under the threshold."""
        if self.threshold is None:
            raise RuntimeError("call fit() before predict(); the threshold is uncalibrated")
        return int(self.score(graph) <= self.threshold)
