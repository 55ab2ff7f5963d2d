"""TP-GNN: the end-to-end model (paper Sec. IV).

Wires the two components together:

1. **Temporal propagation** (Sec. IV-B) produces the local node
   embedding matrix ``H`` with either the SUM or GRU updater.
2. The **global temporal embedding extractor** (Sec. IV-C) converts
   ``H`` into a chronological edge-embedding sequence and GRU-encodes it
   into the graph embedding ``g``.
3. A fully-connected head classifies ``g`` (Eqs. 11-12).
"""

from __future__ import annotations

import numpy as np

from repro.core.base import GraphClassifierBase
from repro.core.extractor import GlobalTemporalExtractor
from repro.core.propagation import TemporalPropagationGRU, TemporalPropagationSum
from repro.graph.ctdn import CTDN
from repro.graph.megaplan import mega_plan
from repro.tensor import Tensor

UPDATERS = {"sum": TemporalPropagationSum, "gru": TemporalPropagationGRU}


class TPGNN(GraphClassifierBase):
    """Temporal Propagation - Graph Neural Network.

    Parameters
    ----------
    in_features:
        Raw node feature dimensionality of the dataset.
    updater:
        ``"sum"`` (TP-GNN-SUM) or ``"gru"`` (TP-GNN-GRU).
    hidden_size:
        Width of the encoded node features (paper's node hidden size).
    gru_hidden_size:
        Hidden width ``d`` of the global extractor's GRU — the graph
        embedding dimensionality (paper default 32).
    time_dim:
        Time2Vec dimensionality ``d_t`` (paper default 6).
    edge_aggregator:
        EdgeAgg method converting node to edge embeddings (paper default
        ``"average"``).
    seed:
        Seed for all parameter initialisation.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.core import TPGNN
    >>> from repro.graph import CTDN
    >>> graph = CTDN(3, np.eye(3), [(0, 1, 1.0), (1, 2, 2.0)], label=1)
    >>> model = TPGNN(in_features=3, updater="sum", seed=0)
    >>> 0.0 <= model.predict_proba(graph) <= 1.0
    True
    """

    def __init__(
        self,
        in_features: int,
        updater: str = "sum",
        hidden_size: int = 32,
        gru_hidden_size: int = 32,
        time_dim: int = 6,
        edge_aggregator: str = "average",
        sum_stabilizer: str = "bounded",
        seed: int = 0,
    ):
        if updater not in UPDATERS:
            raise KeyError(f"unknown updater {updater!r}; choose from {sorted(UPDATERS)}")
        rng = np.random.default_rng(seed)
        if updater == "sum":
            propagation = TemporalPropagationSum(
                in_features, hidden_size, time_dim=time_dim, stabilizer=sum_stabilizer, rng=rng
            )
        else:
            propagation = TemporalPropagationGRU(
                in_features, hidden_size, time_dim=time_dim, rng=rng
            )
        super().__init__(embedding_dim=gru_hidden_size, rng=rng)
        self.updater_name = updater
        self.propagation = propagation
        self.extractor = GlobalTemporalExtractor(
            node_dim=propagation.output_dim,
            hidden_size=gru_hidden_size,
            aggregator=edge_aggregator,
            rng=rng,
        )

    def embed_batch(
        self, graphs: list[CTDN], rng: np.random.Generator | None = None
    ) -> Tensor:
        """Graph embeddings of a minibatch — shape ``(B, embedding_dim)``.

        Packs the graphs into one block-diagonal mega-plan (cached per
        batch composition; a single graph is its own cached one-member
        plan — see :mod:`repro.graph.megaplan`), runs propagation over
        the shared ``(Σn, q)`` state in merged waves, and extracts all
        ``B`` graph embeddings in one fused batched GRU scan.  One plan
        drives both components, so they see the same evolution
        sequence.  ``rng`` (training only) shuffles same-timestamp
        edges member by member, as the paper does before each epoch to
        remove tie-order artifacts; the stream is consumed exactly as
        ``B`` single-graph calls would.
        """
        mega = mega_plan(graphs, rng=rng)
        if np.any(mega.member_edge_counts == 0):
            raise ValueError("TPGNN requires at least one temporal edge per graph")
        local = self.propagation(mega)
        return self.extractor.forward_mega(local, mega)
