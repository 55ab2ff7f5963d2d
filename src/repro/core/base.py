"""Shared interface for all graph classifiers in the reproduction.

Every model — TP-GNN, its ablation variants, and all twelve baselines —
implements :class:`GraphClassifierBase`, whose one forward is the
batched :meth:`~GraphClassifierBase.forward_batch`: ``(B,)`` raw logits
for a minibatch.  A single graph is a batch of one.  Models override
either ``embed_batch`` (the TP-GNN family: one block-diagonal pass over
a mega-plan) or ``embed`` (the baselines, whose minibatch embedding
stacks per-graph calls).  Training, evaluation and online updates in
:mod:`repro.training` / :mod:`repro.online` work against this interface
only.
"""

from __future__ import annotations

import numpy as np

from repro.graph.ctdn import CTDN
from repro.nn import Linear, Module
from repro.tensor import Tensor, ops


class MeanReadout(Module):
    """Mean graph pooling (Wu et al., 2021).

    The paper equips every node/edge-level baseline with this readout to
    obtain graph representations, and uses it in the ablation variants
    that drop the global temporal embedding extractor.
    """

    def forward(self, node_embeddings: Tensor) -> Tensor:
        """Average node embeddings into a single graph vector."""
        return node_embeddings.mean(axis=0)

    def forward_mega(self, node_embeddings: Tensor, mega) -> Tensor:
        """Per-member mean pooling of a packed ``(Σn, k)`` matrix → ``(B, k)``.

        One :func:`~repro.tensor.ops.segment_mean` over the mega-plan's
        per-node member ids replaces ``B`` per-graph means.
        """
        return ops.segment_mean(
            node_embeddings, mega.member_node_ids, mega.num_members
        )


class GraphClassifierBase(Module):
    """A binary dynamic-graph classifier.

    Subclasses implement :meth:`embed` or :meth:`embed_batch` producing
    graph embeddings; the shared classifier head (paper Eq. 11:
    ``sigmoid(W g + b)``, returned here as the raw logit) lives in this
    base class.

    Parameters
    ----------
    embedding_dim:
        Width of the graph embedding produced by :meth:`embed`.
    rng:
        Generator for the classifier head initialisation.
    """

    def __init__(self, embedding_dim: int, rng: np.random.Generator | None = None):
        super().__init__()
        self.embedding_dim = embedding_dim
        self.classifier = Linear(embedding_dim, 1, rng=rng)

    def embed(self, graph: CTDN, rng: np.random.Generator | None = None) -> Tensor:
        """Graph embedding ``g`` (shape ``(embedding_dim,)``): row 0 of a batch of one.

        Subclasses override this *or* :meth:`embed_batch`.
        """
        return self.embed_batch([graph], rng=rng)[0]

    def embed_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Graph embeddings of a minibatch — shape ``(B, embedding_dim)``.

        By default the stacked :meth:`embed` of each graph in order (so
        ``rng`` is consumed exactly as ``B`` single-graph calls would);
        the TP-GNN family overrides it with one block-diagonal pass.
        """
        if type(self).embed is GraphClassifierBase.embed:
            raise NotImplementedError(
                f"{type(self).__name__} must override embed or embed_batch"
            )
        return ops.stack([self.embed(graph, rng=rng) for graph in graphs], axis=0)

    def forward_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Raw logits for a minibatch of graphs — shape ``(B,)``."""
        return self.logits(self.embed_batch(graphs, rng=rng))

    def logit(self, embedding: Tensor) -> Tensor:
        """Classifier head on one graph embedding ``g`` — shape ``(1,)``.

        The streaming engine's head: the same weights as :meth:`logits`.
        """
        return self.classifier(embedding.reshape(1, self.embedding_dim)).reshape(1)

    def logits(self, embeddings: Tensor) -> Tensor:
        """Micro-batched head: ``(b, d)`` embeddings → ``(b,)`` logits.

        One matmul pass over many graph embeddings — the serving
        engine's grouped read path.
        """
        return self.classifier(embeddings.reshape(-1, self.embedding_dim)).reshape(
            embeddings.shape[0] if embeddings.ndim == 2 else 1
        )

    def forward(self, graph: CTDN, rng: np.random.Generator | None = None) -> Tensor:
        """Raw classification logit for ``graph`` — shape ``(1,)``, a batch of one."""
        return self.forward_batch([graph], rng=rng)

    def predict_proba(self, graph: CTDN) -> float:
        """Probability that ``graph`` is positive (label 1)."""
        from repro.tensor import no_grad

        with no_grad():
            logit = self.forward(graph)
        return float(1.0 / (1.0 + np.exp(-logit.item())))

    def predict(self, graph: CTDN, threshold: float = 0.5) -> int:
        """Hard label prediction at the given probability threshold."""
        return int(self.predict_proba(graph) >= threshold)
