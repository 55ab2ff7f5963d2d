"""Training loop for dynamic graph classifiers (paper Sec. IV-D / V-D).

Every model in the reproduction — TP-GNN, its ablation variants and all
twelve baselines — implements
:class:`~repro.core.base.GraphClassifierBase`; this module trains any of
them end to end with Adam + binary cross-entropy, exactly the recipe of
the paper's experimental setup (Adam, lr 1e-3, chronological 30/70
split, tie-shuffling per epoch, metrics averaged over several seeded
runs).

Training is resumable: ``train_model`` can write an epoch-boundary
checkpoint (model weights, Adam moments, RNG state, loss history) and
pick up from it bit-for-bit, which the parallel experiment runner in
:mod:`repro.experiments.parallel` relies on for fault tolerance.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry
from repro.core.base import GraphClassifierBase
from repro.graph.dataset import GraphDataset
from repro.nn import bce_with_logits
from repro.nn.serialization import (
    pack_namespaced,
    read_archive,
    unpack_namespaced,
    write_archive,
)
from repro.optim import Adam, clip_grad_norm
from repro.resilience.faults import inject
from repro.tensor import no_grad
from repro.training.metrics import Metrics, MetricSummary, compute_metrics

#: Metadata tag distinguishing training-state archives from plain
#: model checkpoints (bumped if the resume format changes).
_TRAIN_STATE_FORMAT = 1


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run.

    Defaults follow the paper: Adam with learning rate 1e-3, 10 epochs,
    edge-tie shuffling each epoch.  ``batch_size`` controls gradient
    accumulation (the paper does not specify; 8 balances stability and
    wall-clock on CPU).

    The ``replay_buffer`` / ``online_update_every`` fields configure the
    continual-learning path (:class:`repro.online.OnlineLearner`): the
    bounded replay-buffer capacity and how many prequential examples
    arrive between micro-batch update rounds (0 disables updates — the
    online path then equals offline inference exactly).  They are unused
    by offline :func:`train_model` but participate in the trial-cache
    key like every other hyperparameter.
    """

    epochs: int = 10
    learning_rate: float = 1e-3
    batch_size: int = 8
    grad_clip: float = 5.0
    shuffle_ties: bool = True
    shuffle_graphs: bool = True
    seed: int = 0
    replay_buffer: int = 256
    online_update_every: int = 0


@dataclass
class TrainResult:
    """Artifacts of one training run."""

    losses: list[float] = field(default_factory=list)
    train_seconds: float = 0.0
    epochs_run: int = 0
    #: Batches whose gradient norm came out NaN/inf; their updates were
    #: skipped (gradients zeroed) rather than poisoning the optimiser.
    nonfinite_batches: int = 0
    #: Epochs restored from a checkpoint rather than run in-process.
    resumed_from_epoch: int = 0


def save_train_state(
    path: str | Path,
    model: GraphClassifierBase,
    optimizer: Adam,
    config: TrainConfig,
    result: TrainResult,
    rng: np.random.Generator,
) -> Path:
    """Write a resumable mid-training checkpoint to ``path``.

    One archive holds the model weights and optimiser moments (packed
    under ``model/`` and ``optim/`` namespaces) plus everything else a
    bit-exact resume needs: RNG state, loss history, epoch counter and
    the config the run was started with.
    """
    meta = {
        "train_state_format": _TRAIN_STATE_FORMAT,
        "config": asdict(config),
        "epochs_run": result.epochs_run,
        "losses": result.losses,
        "nonfinite_batches": result.nonfinite_batches,
        "train_seconds": result.train_seconds,
        "rng_state": rng.bit_generator.state,
    }
    arrays = pack_namespaced(
        {"model": model.state_dict(), "optim": optimizer.state_dict()}
    )
    return write_archive(path, arrays, meta)


def load_train_state(
    path: str | Path,
    model: GraphClassifierBase,
    optimizer: Adam,
    config: TrainConfig,
    rng: np.random.Generator,
) -> TrainResult:
    """Restore a checkpoint written by :func:`save_train_state`.

    The stored config must match ``config`` exactly — resuming a run
    under different hyperparameters would silently produce a hybrid
    trajectory, so it raises instead.
    """
    arrays, meta = read_archive(path)
    if meta.get("train_state_format") != _TRAIN_STATE_FORMAT:
        raise ValueError(
            f"unsupported training-state format {meta.get('train_state_format')!r}"
        )
    if meta["config"] != asdict(config):
        raise ValueError(
            f"checkpoint at {path} was written under a different TrainConfig "
            f"({meta['config']} vs {asdict(config)}); refusing to resume"
        )
    groups = unpack_namespaced(arrays)
    model.load_state_dict(groups.get("model", {}))
    optimizer.load_state_dict(groups.get("optim", {}))
    rng.bit_generator.state = meta["rng_state"]
    return TrainResult(
        losses=[float(loss) for loss in meta["losses"]],
        train_seconds=float(meta["train_seconds"]),
        epochs_run=int(meta["epochs_run"]),
        nonfinite_batches=int(meta["nonfinite_batches"]),
        resumed_from_epoch=int(meta["epochs_run"]),
    )


def train_model(
    model: GraphClassifierBase,
    train_data: GraphDataset,
    config: TrainConfig,
    *,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
) -> TrainResult:
    """Train ``model`` in place on ``train_data``.

    Each minibatch of up to ``batch_size`` graphs takes ONE batched
    forward/backward through :meth:`~repro.core.base.GraphClassifierBase.forward_batch`
    (one block-diagonal mega-plan for the TP-GNN family, stacked
    per-graph embeddings for the baselines).  ``bce_with_logits`` over
    the ``(B,)`` logits is the batch mean — the scale of accumulating
    per-graph gradients and averaging over the actual batch, so the
    trailing partial batch steps at the same effective scale — and tie
    shuffling consumes the rng member by member in batch order.  Each
    batch then takes one :func:`guarded_step`: a batch whose gradient
    norm is NaN/inf is skipped instead of being stepped into the Adam
    moments, and counted in ``TrainResult.nonfinite_batches``.

    When ``checkpoint_path`` is given, a resumable training-state
    archive is written every ``checkpoint_every`` epochs; if the file
    already exists the run restores it and continues from the recorded
    epoch, reproducing the uninterrupted trajectory bit-for-bit.

    When telemetry is enabled (see :func:`repro.telemetry.capture`),
    the loop emits ``train/epoch/megabatch/forward|backward|optimizer_step``
    spans and records per-graph loss and per-step gradient-norm
    histograms; when disabled (the default) the instrumentation is a
    near-free no-op.
    """
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    result = TrainResult()
    if checkpoint_path is not None and Path(checkpoint_path).exists():
        result = load_train_state(checkpoint_path, model, optimizer, config, rng)
    model.train()
    instrumented = telemetry.enabled()
    loss_hist = grad_hist = None
    if instrumented:
        registry = telemetry.get_registry()
        loss_hist = registry.histogram("train/batch_loss")
        grad_hist = registry.histogram("train/grad_norm")
        epoch_hist = registry.histogram("train/epoch_loss")
    start = time.perf_counter()
    with telemetry.span("train"):
        for epoch in range(result.epochs_run, config.epochs):
            # Chaos hook: the call index equals the epoch number, so a
            # fault plan can kill a run deterministically after epoch N
            # (the resume test exercises exactly this).
            inject("train.epoch", context=epoch)
            with telemetry.span("epoch"):
                indices = (
                    rng.permutation(len(train_data))
                    if config.shuffle_graphs
                    else np.arange(len(train_data))
                )
                tie_rng = rng if config.shuffle_ties else None
                epoch_loss = 0.0
                optimizer.zero_grad()
                for chunk_start in range(0, len(indices), config.batch_size):
                    chunk = indices[chunk_start : chunk_start + config.batch_size]
                    batch = [train_data[int(index)] for index in chunk]
                    with telemetry.span("megabatch"):
                        with telemetry.span("forward"):
                            logits = model.forward_batch(batch, rng=tie_rng)
                            targets = np.array([float(graph.label) for graph in batch])
                            loss = bce_with_logits(logits, targets)
                        with telemetry.span("backward"):
                            loss.backward()
                        # Chaos hook: "nan"/"inf" plans poison gradients
                        # here; the non-finite-norm guard must then skip
                        # the batch instead of stepping the poison into
                        # the Adam moments.
                        inject(
                            "train.gradients",
                            context=lambda: [
                                param.grad
                                for param in model.parameters()
                                if param.grad is not None
                            ],
                        )
                        graph_losses = _per_example_bce(np.asarray(logits.data), targets)
                        epoch_loss += float(graph_losses.sum())
                        if loss_hist is not None:
                            for value in graph_losses:
                                loss_hist.record(float(value))
                        with telemetry.span("optimizer_step"):
                            norm = guarded_step(model, optimizer, config.grad_clip)
                        if not np.isfinite(norm):
                            result.nonfinite_batches += 1
                        elif grad_hist is not None:
                            grad_hist.record(float(norm))
                result.losses.append(epoch_loss / max(1, len(indices)))
                result.epochs_run += 1
                if instrumented:
                    epoch_hist.record(result.losses[-1])
            if (
                checkpoint_path is not None
                and (result.epochs_run % checkpoint_every == 0
                     or result.epochs_run == config.epochs)
            ):
                result.train_seconds += time.perf_counter() - start
                start = time.perf_counter()
                with telemetry.span("checkpoint"):
                    save_train_state(
                        checkpoint_path, model, optimizer, config, result, rng
                    )
    result.train_seconds += time.perf_counter() - start
    return result


def guarded_step(model: GraphClassifierBase, optimizer: Adam, grad_clip: float) -> float:
    """The one optimizer step of :func:`train_model` and the online learner.

    Clips the global gradient norm to ``grad_clip``, steps only if that
    norm is finite (a NaN/inf batch is skipped rather than poisoning the
    Adam moments), then zeroes the gradients either way.  Returns the
    pre-clip norm; a non-finite value tells the caller the step was
    skipped.
    """
    norm = clip_grad_norm(model.parameters(), grad_clip)
    if np.isfinite(norm):
        optimizer.step()
    optimizer.zero_grad()
    return norm


def _per_example_bce(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-graph BCE values — raw-array mirror of :func:`bce_with_logits`.

    The batched loss is the batch mean; epoch-loss accounting and the
    loss histogram still need the per-graph terms, so they are
    recomputed off-tape with the same stable formula.
    """
    return (
        np.maximum(logits, 0.0)
        - logits * targets
        + np.log(1.0 + np.exp(-np.abs(logits)))
    )


#: Graphs per batched forward in :func:`evaluate`.
EVAL_CHUNK = 32


def evaluate(model: GraphClassifierBase, data: GraphDataset, threshold: float = 0.5) -> Metrics:
    """Evaluate ``model`` on ``data``; returns precision/recall/F1.

    Scores :data:`EVAL_CHUNK` graphs per :meth:`forward_batch` call.
    The model's train/eval mode is restored on exit, so evaluating a
    model that is already serving in eval mode does not flip it back to
    training.
    """
    was_training = model.training
    model.eval()
    predictions: list[int] = []
    try:
        with no_grad():
            for start in range(0, len(data), EVAL_CHUNK):
                logits = model.forward_batch(data.graphs[start : start + EVAL_CHUNK])
                probabilities = 1.0 / (1.0 + np.exp(-np.asarray(logits.data).reshape(-1)))
                predictions.extend(int(p >= threshold) for p in probabilities)
    finally:
        if was_training:
            model.train()
    return compute_metrics(data.labels, predictions)


def inference_time_per_graph(model: GraphClassifierBase, data: GraphDataset) -> float:
    """Average wall-clock seconds to embed and classify one graph.

    Used by the Fig. 6 running-time comparison (the paper reports
    microseconds per graph), so it scores one graph per call rather
    than in chunks.  Restores the model's prior train/eval mode on exit.
    """
    was_training = model.training
    model.eval()
    start = time.perf_counter()
    try:
        with no_grad():
            for graph in data:
                model(graph)
    finally:
        if was_training:
            model.train()
    return (time.perf_counter() - start) / len(data)


def run_trials(
    model_factory: Callable[[int], GraphClassifierBase],
    dataset: GraphDataset,
    config: TrainConfig,
    runs: int = 3,
    train_fraction: float = 0.3,
) -> MetricSummary:
    """The paper's evaluation protocol for one (model, dataset) pair.

    Splits chronologically (first ``train_fraction`` of graphs train),
    then trains ``runs`` independently seeded model instances and
    averages their test metrics.

    Parameters
    ----------
    model_factory:
        Callable mapping a seed to a fresh model instance.
    dataset:
        The full labelled dataset (ordered; the split is positional).
    config:
        Training hyperparameters (the run seed is derived per trial).
    runs:
        Number of independent repetitions (paper: 5).
    """
    train_data, test_data = dataset.split(train_fraction)
    results = []
    for run in range(runs):
        run_seed = trial_seed(config.seed, run)
        model = model_factory(run_seed)
        run_config = replace(config, seed=run_seed)
        train_model(model, train_data, run_config)
        results.append(evaluate(model, test_data))
    return MetricSummary.from_runs(results)


def trial_seed(base_seed: int, run: int) -> int:
    """The derived seed of repetition ``run`` (paper protocol: 1000 apart)."""
    return base_seed + 1000 * run
