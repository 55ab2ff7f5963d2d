"""Continuous-Time Dynamic Network (CTDN) — paper Definition 1.

A CTDN is a directed graph ``G = (V, E^T, X, T)`` whose edges carry
timestamps.  This module provides the central data structure shared by
the TP-GNN core, every baseline, the dataset generators, and the
negative samplers.

Since the columnar refactor, every CTDN is a thin shell around an
:class:`~repro.graph.store.EventStore`: the edges live as contiguous
``src``/``dst``/``t`` numpy columns, and the historical object API —
:attr:`edges`, :meth:`edges_sorted`, :meth:`propagation_plan` — is a
set of views over those columns.  :attr:`edges` is **read-only**:
graphs are immutable after construction (derived graphs are fresh
instances), and the columnar backend enforces what the old list-backed
attribute could only document — in-place mutation used to silently
serve stale ``_sorted_cache``/``_plan_cache`` entries; now it raises.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.graph.edge import TemporalEdge
from repro.graph.store import EdgeView, EventStore


class CTDN:
    """A continuous-time dynamic network with node features and a label.

    Parameters
    ----------
    num_nodes:
        Size of the node set ``V``; nodes are the integers ``0..n-1``.
    features:
        ``(num_nodes, q)`` float array: the raw feature matrix ``X``.
    edges:
        Iterable of ``(src, dst, time)`` triples or :class:`TemporalEdge`,
        or an :class:`EventStore` whose columns are adopted zero-copy.
        Stored exactly as given; use :meth:`edges_sorted` for the
        chronological view the models consume.
    label:
        Graph class in ``{0, 1}`` (1 = positive/normal in the paper's
        datasets), or ``None`` for unlabelled graphs.
    graph_id:
        Optional identifier (session/trace/user id) for traceability.
    """

    __slots__ = (
        "num_nodes",
        "features",
        "store",
        "label",
        "graph_id",
        "_edge_view",
        "_sorted_cache",
        "_plan_cache",
        "_mega_cache",
    )

    def __init__(
        self,
        num_nodes: int,
        features: np.ndarray,
        edges: Iterable[tuple[int, int, float] | TemporalEdge] | EventStore,
        label: int | None = None,
        graph_id: str | None = None,
    ):
        if num_nodes <= 0:
            raise ValueError(f"CTDN needs at least one node, got {num_nodes}")
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != num_nodes:
            raise ValueError(
                f"features must have shape ({num_nodes}, q), got {features.shape}"
            )
        self.num_nodes = num_nodes
        self.features = features
        self.store = _coerce_store(edges, num_nodes)
        self.label = label
        self.graph_id = graph_id
        # Memoized chronological views; graphs are immutable after
        # construction (derived graphs are fresh CTDN instances), so
        # the caches stay valid for the object's lifetime.
        self._edge_view: EdgeView | None = None
        self._sorted_cache: list[TemporalEdge] | None = None
        self._plan_cache = None
        self._mega_cache = None

    @classmethod
    def from_store(
        cls,
        num_nodes: int,
        features: np.ndarray,
        store: EventStore,
        label: int | None = None,
        graph_id: str | None = None,
    ) -> "CTDN":
        """Wrap already-validated columns without copying the features.

        The zero-copy fast path used by :meth:`prefix`,
        :meth:`with_appended`, the dataset generators, and the bundle
        loader: the feature matrix and the store buffers are shared
        with the caller, so deriving a graph allocates only the shell.
        """
        graph = cls.__new__(cls)
        if store.num_nodes != num_nodes:
            store = EventStore(store.src, store.dst, store.t, num_nodes)
        graph.num_nodes = num_nodes
        graph.features = features
        graph.store = store
        graph.label = label
        graph.graph_id = graph_id
        graph._edge_view = None
        graph._sorted_cache = None
        graph._plan_cache = None
        graph._mega_cache = None
        return graph

    # ------------------------------------------------------------------
    # Basic views
    # ------------------------------------------------------------------
    @property
    def edges(self) -> EdgeView:
        """The edge multiset in storage order, as a read-only sequence.

        Iterates/indexes/slices like the list it replaced, but exposes
        no mutators: ``graph.edges.append(...)`` and item assignment
        raise, which is what keeps the memoized sorted/plan caches
        trustworthy.
        """
        if self._edge_view is None:
            self._edge_view = EdgeView(self.store)
        return self._edge_view

    @property
    def num_edges(self) -> int:
        """Number of temporal edges ``m``."""
        return self.store.num_events

    @property
    def feature_dim(self) -> int:
        """Raw node feature dimensionality ``q``."""
        return self.features.shape[1]

    @property
    def duration(self) -> float:
        """Time span between the first and last edge (0 when empty)."""
        if self.store.num_events == 0:
            return 0.0
        return float(self.store.t.max() - self.store.t.min())

    def edges_sorted(self, rng: np.random.Generator | None = None) -> list[TemporalEdge]:
        """Edges in ascending timestamp order.

        When ``rng`` is given, edges sharing a timestamp are shuffled
        among themselves before the (stable) sort — the paper shuffles
        ties before each training epoch to remove order artifacts within
        a timestamp.

        The deterministic (no-rng) order is memoized: propagation,
        snapshots and reachability all request it repeatedly, and the
        edge columns never change after construction.  A fresh list is
        returned each call so callers may reorder it freely.
        """
        if rng is not None:
            edges = list(self.edges)
            order = rng.permutation(len(edges))
            edges = [edges[i] for i in order]
            return sorted(edges, key=lambda e: e.time)
        if self._sorted_cache is None:
            self._sorted_cache = self.store.chronological().edges()
        return list(self._sorted_cache)

    def propagation_plan(self, rng: np.random.Generator | None = None):
        """The wave-scheduled execution plan for this graph's edges.

        The deterministic plan (sorted order, wave boundaries, endpoint
        index arrays, timestamps) is computed once and cached — it is
        what the vectorized propagation engine replays every epoch.
        Construction is zero-copy: the plan's endpoint/timestamp arrays
        are the store's chronological columns, not a materialized edge
        list.  With an ``rng``, a fresh plan is derived from the cached
        one by re-permuting only the timestamp tie groups (the paper's
        per-epoch tie shuffle) and recomputing wave boundaries; the
        expensive sort is never repeated.
        """
        from repro.graph.plan import PropagationPlan

        if self._plan_cache is None:
            self._plan_cache = PropagationPlan.from_store(self.store)
        if rng is None:
            return self._plan_cache
        return self._plan_cache.tie_shuffled(rng)

    def as_mega_plan(self, rng: np.random.Generator | None = None):
        """This graph as a one-member :class:`~repro.graph.megaplan.MegaPlan`.

        Every single-graph forward runs this plan through the batched
        executor.  The deterministic one is cached here, beside
        :meth:`propagation_plan`, rather than in the process-wide
        composition LRU, so scoring any number of graphs one at a time
        never evicts a training batch's cached composition; it shares
        the feature matrix and the plan's arrays instead of copying
        them.  With an ``rng`` (tie shuffle), a fresh one-member plan is
        built over the cached layout.
        """
        from repro.graph.megaplan import MegaPlan

        if self._mega_cache is None:
            self._mega_cache = MegaPlan.from_graphs((self,))
        if rng is None:
            return self._mega_cache
        return MegaPlan.from_graphs((self,), rng=rng, layout=self._mega_cache.layout)

    def timestamps(self) -> np.ndarray:
        """All edge timestamps in storage order (a fresh, writable array)."""
        return self.store.t.copy()

    def in_neighbors(self) -> list[list[tuple[int, float]]]:
        """Per-node list of ``(source, time)`` pairs of incoming edges."""
        indptr, event_ids = self.store.in_csr()
        src = self.store.src
        t = self.store.t
        table: list[list[tuple[int, float]]] = []
        for node in range(self.num_nodes):
            bucket = event_ids[indptr[node]:indptr[node + 1]]
            table.append([(int(src[i]), float(t[i])) for i in bucket])
        return table

    def out_degree(self) -> np.ndarray:
        """Out-degree per node, counting multi-edges."""
        return self.store.out_degree()

    def in_degree(self) -> np.ndarray:
        """In-degree per node, counting multi-edges."""
        return self.store.in_degree()

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def with_edges(
        self,
        edges: Sequence[TemporalEdge] | EventStore | EdgeView,
        label: int | None = None,
    ) -> "CTDN":
        """Return a copy of this graph with a different edge set."""
        return CTDN(
            self.num_nodes,
            self.features.copy(),
            edges,
            label=self.label if label is None else label,
            graph_id=self.graph_id,
        )

    def with_appended(self, *edges: tuple[int, int, float] | TemporalEdge) -> "CTDN":
        """Return a copy with ``edges`` appended after the existing ones.

        The streaming tests and benchmarks use this to model a live
        session growing one event at a time.  The existing columns and
        the feature matrix are shared with the parent, not copied.
        """
        count = len(edges)
        store = self.store.with_appended(
            np.fromiter((e[0] for e in edges), dtype=np.int64, count=count),
            np.fromiter((e[1] for e in edges), dtype=np.int64, count=count),
            np.fromiter((e[2] for e in edges), dtype=np.float64, count=count),
        )
        return CTDN.from_store(
            self.num_nodes, self.features, store,
            label=self.label, graph_id=self.graph_id,
        )

    def prefix(self, count: int) -> "CTDN":
        """Return a copy containing the first ``count`` chronological edges.

        The ``count``-edge prefix of :meth:`edges_sorted` — the
        "session so far" view that online serving scores incrementally.
        The prefix store is a buffer-sharing slice of this graph's
        chronological columns, and the feature matrix is shared too:
        deriving every prefix of a session costs O(1) memory per step.
        """
        if count < 0:
            raise ValueError(f"prefix length must be >= 0, got {count}")
        return CTDN.from_store(
            self.num_nodes, self.features, self.store.prefix(count),
            label=self.label, graph_id=self.graph_id,
        )

    def copy(self) -> "CTDN":
        """Copy with fresh features and caches (the edge columns are
        immutable and therefore shared)."""
        return self.with_edges(self.store)

    def to_networkx(self):
        """Export as a ``networkx.MultiDiGraph`` with ``time`` edge attrs."""
        import networkx as nx

        graph = nx.MultiDiGraph()
        for node in range(self.num_nodes):
            graph.add_node(node, features=self.features[node])
        for edge in self.edges:
            graph.add_edge(edge.src, edge.dst, time=edge.time)
        return graph

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        label = f", label={self.label}" if self.label is not None else ""
        return f"CTDN(nodes={self.num_nodes}, edges={self.num_edges}{label})"


def _coerce_store(
    edges: Iterable[tuple[int, int, float] | TemporalEdge] | EventStore | EdgeView,
    num_nodes: int,
) -> EventStore:
    """Adopt columns zero-copy when possible, else convert edge objects."""
    if isinstance(edges, EdgeView):
        edges = edges.store
    if isinstance(edges, EventStore):
        if edges.num_nodes == num_nodes:
            return edges
        # Rewrap (and revalidate) the shared columns for a different
        # node-set size without copying the buffers.
        return EventStore(edges.src, edges.dst, edges.t, num_nodes)
    return EventStore.from_edges(edges, num_nodes)
