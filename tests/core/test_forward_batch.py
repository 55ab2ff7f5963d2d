"""``forward_batch`` is every model's one forward (pytest -m mega).

A single graph is a batch of one, so for every registry model and every
ablation variant, row ``b`` of ``forward_batch(graphs)`` must equal
``model(graphs[b])``.  Scoring graphs one at a time must also leave the
composition cache alone: a lone graph's one-member plan lives on the
graph, not in the LRU.
"""

import numpy as np
import pytest

from repro.baselines import ALL_MODELS, PLUS_G_MODELS, make_model
from repro.core.ablation import ABLATION_VARIANTS, make_ablation_variant
from repro.graph import CTDN
from repro.graph.megaplan import _default_cache, mega_plan
from repro.tensor import no_grad

pytestmark = pytest.mark.mega

WIDTH = 3


def make_graph(seed, num_nodes=6, num_edges=9):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = (src + rng.integers(1, num_nodes, size=num_edges)) % num_nodes
    times = np.sort(rng.integers(0, 5, size=num_edges).astype(np.float64))
    edges = list(zip(src.tolist(), dst.tolist(), times.tolist()))
    return CTDN(num_nodes, rng.normal(size=(num_nodes, WIDTH)), edges, label=seed % 2)


def ragged_graphs():
    return [
        make_graph(0, num_nodes=2, num_edges=1),
        make_graph(1, num_nodes=7, num_edges=15),
        make_graph(2, num_nodes=4, num_edges=4),
    ]


def build(name):
    if name in ABLATION_VARIANTS:
        return make_ablation_variant(name, WIDTH, hidden_size=6, gru_hidden_size=6,
                                     time_dim=2, seed=1)
    return make_model(name, WIDTH, seed=1, hidden_size=6, time_dim=2)


@pytest.mark.parametrize("name", ALL_MODELS + PLUS_G_MODELS + ABLATION_VARIANTS)
def test_batch_rows_equal_single_graph_forward(name):
    model = build(name)
    graphs = ragged_graphs()
    # Without an rng, ``rand`` samples neighbours from the model's own
    # generator: the single calls replay that stream from the same state.
    sampler = getattr(model, "_sampler", None)
    state = sampler.bit_generator.state if sampler is not None else None
    batched = np.asarray(model.forward_batch(graphs).data)
    assert batched.shape == (len(graphs),)
    if sampler is not None:
        sampler.bit_generator.state = state
    for b, graph in enumerate(graphs):
        single = model(graph)
        assert single.shape == (1,)
        assert abs(batched[b] - single.item()) <= 1e-12, (name, b)


@pytest.mark.parametrize("name", ["TP-GNN-SUM", "TP-GNN-GRU", "GCN", "TGAT+G", "rand"])
def test_tie_shuffled_batch_consumes_rng_like_single_calls(name):
    model = build(name)
    graphs = ragged_graphs()
    batched = np.asarray(model.forward_batch(graphs, rng=np.random.default_rng(9)).data)
    rng = np.random.default_rng(9)
    singles = [model(graph, rng=rng).item() for graph in graphs]
    np.testing.assert_allclose(batched, singles, rtol=0.0, atol=1e-12)


def test_single_graph_scoring_leaves_cached_batch_in_place():
    model = build("TP-GNN-SUM")
    batch = ragged_graphs()
    _default_cache.clear()
    mega_plan(batch)  # a first request is built uncached ...
    cached = mega_plan(batch)  # ... a repeat enters the LRU
    assert len(_default_cache) == 1
    scored = [make_graph(100 + i) for i in range(_default_cache.capacity + 2)]
    with no_grad():
        for graph in scored:
            model(graph)
    assert len(_default_cache) == 1
    assert mega_plan(batch) is cached
    # Each graph keeps its own deterministic one-member plan, sharing
    # its feature matrix instead of copying it.
    assert mega_plan([scored[0]]) is scored[0].as_mega_plan()
    assert scored[0].as_mega_plan().features is scored[0].features


def test_compositions_that_never_repeat_stay_out_of_the_cache():
    # Shuffled batches and online-learner samples are one-off
    # compositions: they must not occupy (or evict from) the LRU.
    _default_cache.clear()
    batch = ragged_graphs()
    mega_plan(batch)
    cached = mega_plan(batch)
    pool = [make_graph(200 + i) for i in range(40)]
    rng = np.random.default_rng(0)
    for _ in range(_default_cache.capacity + 2):
        mega_plan([pool[i] for i in rng.choice(len(pool), size=8, replace=False)])
    assert len(_default_cache) == 1
    assert mega_plan(batch) is cached


def test_model_without_embed_raises_not_implemented():
    from repro.core.base import GraphClassifierBase

    class Bare(GraphClassifierBase):
        pass

    with pytest.raises(NotImplementedError, match="embed or embed_batch"):
        Bare(WIDTH, rng=np.random.default_rng(0))(make_graph(0))
