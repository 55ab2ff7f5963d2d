"""One pipeline, three workloads: train, evaluate and serve TP-GNN.

Every workload runs the same stages on its own inputs, so every
end-to-end metric exists on every workload and a change to one layer
shows both where it should matter and where it should not:

* **set-up** (repeated, median): generate the dataset, round-trip it
  through an on-disk bundle (memory-mapped load), build the event feed
  and the model;
* **rounds**, each one window of every phase, in this order:

  1. a segment of events offered to a journaled two-shard
     ``ShardedCluster`` (thread backend) at a fixed rate, with a predict
     every ``PREDICT_EVERY`` events (open loop);
  2. one mega-batched ``train_model`` epoch;
  3. one ``evaluate`` pass over a slice of the test split;
  4. a fixed chunk of other events into a journaled lone ``StreamingEngine``;
  5. the same chunk into a second such cluster, closed loop, until
     applied; then ``IDLE_PREDICTS`` predicts, one at a time, on it;
  6. ``recover_engine`` from a mid-feed checkpoint plus a journal tail
     of ``RECOVER_TAIL`` events: the same crash every round, made in the
     warm-up, so every recovery window does the same work;
  7. a few labelled sessions into an ``OnlineLearner`` through
     ``observe_example``.

Round 0 is an untimed warm-up: it fills plan caches and lazy set-up and
runs the checks that need a fresh state.  Because every phase has one
window per round, a slow episode on the shared machine lands on a few
windows of every phase instead of on all windows of one phase, and
each phase reports the median of its window rates.  A host-speed kernel
sample (``perfbench.hostspeed``) separates every two timed windows of
phases 2-7; each window's time is divided by the slowness of the samples
on either side of it, so a shift of the host's speed that covers most of
a run does not move the run's numbers either.

Serving uses a frozen copy of the model taken after the warm-up, so
training and serving windows can alternate without changing what the
serving paths compute; the learner updates a copy of its own.

The work is fixed by the workload and ``--seconds`` (the round count
scales with it), never by the clock: both sides of a comparison run the
same epochs, chunks and events.
"""

from __future__ import annotations

import gc
import math
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.cluster import LoadtestConfig, ShardedCluster, generate_feed
from repro.core import TPGNN
from repro.data import make_dataset
from repro.graph import GraphDataset, load_dataset, mega_plan, save_dataset
from repro.nn import bce_with_logits
from repro.online import OnlineLearner
from repro.optim import Adam, clip_grad_norm
from repro.resilience import (
    CircuitOpenError,
    DeadlineExceededError,
    Journal,
    scan_journal,
)
from repro.serve import StreamingEngine, dataset_to_feed, recover_engine
from repro.tensor import no_grad
from repro.training import TrainConfig, compute_metrics, evaluate, roc_auc, train_model

from perfbench.hostspeed import HostSpeed
from perfbench.spans import Tracer, descendants
from perfbench.stats import Windows, open_loop, percentile

#: Run length ``ROUNDS`` is sized for; the round count scales with ``--seconds``.
REFERENCE_SECONDS = 30
ROUNDS = 12
CHUNK = 1000  # closed-loop events per round
SEGMENT = 500  # open-loop events per round
#: The crash every recovery window repairs: a checkpoint after the first
#: ``RECOVER_AT`` closed-loop events, then a journal of the next ``RECOVER_TAIL``.
RECOVER_AT = 250
RECOVER_TAIL = 500
SETUP_REPEATS = 5
BATCH_SIZE = 8
SCORE_BATCH = 32
SHARDS = 2
PREDICT_EVERY = 50
IDLE_PREDICTS = 50  # predicts per round on the drained cluster
#: The learner updates after every ``LEARN_EVERY`` examples; every learner
#: window holds the same number of updates.
LEARN_EVERY = 4
FSYNC = "interval"
PREDICT_ERRORS = (KeyError, CircuitOpenError, DeadlineExceededError, TimeoutError)


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    graphs: int  # sessions generated; all of them feed the serving phases
    train_graphs: int  # the first ones train
    test_graphs: int  # the next ones are scored for ROC-AUC and feed the learner
    eval_window: int  # test graphs per evaluate window
    updater: str
    hidden_size: int  # node features and the extractor GRU alike
    time_dim: int
    feed_sessions: int  # > 0: synthetic feed of this many sessions, else the dataset's
    open_rate: float  # fixed offered rate, events/s
    learn_window: int  # labelled sessions per learner window, a multiple of LEARN_EVERY


#: Why each workload exists: perfbench/README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="hdfs-gru",
            dataset="HDFS",
            graphs=1400,
            train_graphs=160,
            test_graphs=400,
            eval_window=50,
            updater="gru",
            hidden_size=32,
            time_dim=6,
            feed_sessions=0,
            open_rate=2000.0,
            learn_window=8,
        ),
        Workload(
            name="brightkite-sum",
            dataset="Brightkite",
            graphs=340,
            train_graphs=40,
            test_graphs=300,
            eval_window=20,
            updater="sum",
            hidden_size=32,
            time_dim=6,
            feed_sessions=0,
            open_rate=3000.0,
            learn_window=4,
        ),
        Workload(
            name="serve-stream",
            dataset="HDFS",
            graphs=500,
            train_graphs=192,
            test_graphs=300,
            eval_window=150,
            updater="sum",
            hidden_size=16,
            time_dim=4,
            feed_sessions=1000,
            open_rate=2500.0,
            learn_window=16,
        ),
    )
}


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    metrics: dict = field(default_factory=dict)  # name -> value
    windows: dict = field(default_factory=dict)  # name -> Windows summary
    checks: dict = field(default_factory=dict)  # name -> bool
    attempted: int = 0
    failed: int = 0
    failures: dict = field(default_factory=dict)  # kind -> count
    notes: dict = field(default_factory=dict)

    def put(self, name: str, value: float, windows: Windows | None = None,
            raw: Windows | None = None) -> None:
        """Record a metric; ``raw`` holds its windows before host-speed scaling."""
        self.metrics[name] = float(value)
        if windows is not None:
            self.windows[name] = windows.summary()
        if raw is not None:
            self.windows[name]["raw_median"] = raw.median

    def check(self, name: str, passed: bool) -> None:
        """Record a check; a check made several times passes only if all did."""
        self.checks[name] = self.checks.get(name, True) and bool(passed)

    def fail(self, kind: str, count: int) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + int(count)
        self.failed += int(count)


def settle() -> None:
    """Collect garbage, then freeze what survives, before timed windows.

    The inputs, the feed and the models stay alive for the whole run;
    frozen, they are no longer traversed by the collections the timed
    windows trigger, which would otherwise charge harness-held objects
    to whichever window a full collection happens to land in.
    """
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Inputs:
    train: GraphDataset
    test: GraphDataset
    feed: list
    feature_dim: int


def set_up(w: Workload, seed: int, bundle: Path, feed_events: int, tracer: Tracer) -> Inputs:
    """Generate, bundle and reload the dataset; build the event feed."""
    with tracer.span("data.generate"):
        generated = make_dataset(w.dataset, w.graphs, seed=seed)
    with tracer.span("graph.io.bundle"):
        save_dataset(generated, bundle)
        dataset = load_dataset(bundle, mmap=True)
    graphs = dataset.graphs
    train = GraphDataset(graphs[: w.train_graphs], name=f"{dataset.name}/train")
    test = GraphDataset(
        graphs[w.train_graphs : w.train_graphs + w.test_graphs], name=f"{dataset.name}/test"
    )
    with tracer.span("serve.feed"):
        if w.feed_sessions:
            feed = generate_feed(
                LoadtestConfig(
                    sessions=w.feed_sessions,
                    events=feed_events,
                    seed=seed,
                    nodes_per_session=12,
                    feature_dim=dataset.feature_dim,
                    baseline=False,
                )
            )
        else:
            spans = [float(g.store.t[-1] - g.store.t[0]) for g in graphs]
            # Start sessions over a window wide enough that ~50 are live at once.
            spread = float(np.median(spans)) * len(graphs) / 50.0
            feed = dataset_to_feed(graphs, rng=np.random.default_rng(seed), spread=spread)
    if len(feed) < feed_events:
        raise ValueError(f"workload {w.name}: feed has {len(feed)} events, {feed_events} needed")
    return Inputs(train, test, feed[:feed_events], dataset.feature_dim)


def build_model(w: Workload, feature_dim: int, seed: int) -> TPGNN:
    return TPGNN(
        in_features=feature_dim,
        updater=w.updater,
        hidden_size=w.hidden_size,
        gru_hidden_size=w.hidden_size,
        time_dim=w.time_dim,
        seed=seed,
    )


def clone_model(w: Workload, model: TPGNN, feature_dim: int) -> TPGNN:
    """An eval-mode copy of ``model`` with its own parameters."""
    twin = build_model(w, feature_dim, seed=0)
    twin.load_state_dict(model.state_dict())
    return twin.eval()


# ----------------------------------------------------------------------
# Training, driven from public calls for the traced run
# ----------------------------------------------------------------------
def per_example_bce(logits: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Per-graph stable BCE, the form ``train_model`` sums into epoch losses."""
    return np.maximum(logits, 0.0) - logits * targets + np.log(1.0 + np.exp(-np.abs(logits)))


@dataclass
class EpochProbe:
    """Counts taken at the mega-plan boundary of the traced loop."""

    batches: int = 0
    waves: int = 0
    real_edges: int = 0
    padded_slots: int = 0
    nonfinite: int = 0

    def observe(self, mega) -> None:
        index, _ = mega.padded_sequence_index()
        self.batches += 1
        self.waves += mega.num_waves
        self.real_edges += mega.num_edges
        self.padded_slots += int(index.shape[0])


def traced_train(
    model: TPGNN, data: GraphDataset, config: TrainConfig, tracer: Tracer, probe: EpochProbe
) -> list[float]:
    """The mega-batched ``train_model`` loop, one span per layer call.

    Consumes the rng exactly as ``train_model`` does (graph permutation,
    then per-member tie shuffles in batch order) and uses the same
    optimizer, clipping and loss accounting, so its per-epoch losses
    and final weights are bit-identical to ``train_model``'s.
    """
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    model.train()
    losses = []
    for _ in range(config.epochs):
        with tracer.span("training.epoch"):
            indices = rng.permutation(len(data))
            epoch_loss = 0.0
            optimizer.zero_grad()
            for start in range(0, len(indices), config.batch_size):
                batch = [data[int(i)] for i in indices[start : start + config.batch_size]]
                with tracer.span("graph.megaplan.build"):
                    mega = mega_plan(batch, rng=rng)
                with tracer.span("core.propagation.forward"):
                    local = model.propagation(mega)
                with tracer.span("core.extractor.forward"):
                    logits = model.logits(model.extractor.forward_mega(local, mega))
                targets = np.array([float(graph.label) for graph in batch])
                with tracer.span("nn.loss"):
                    loss = bce_with_logits(logits, targets)
                with tracer.span("tensor.backward"):
                    loss.backward()
                with tracer.span("harness.probe"):
                    probe.observe(mega)
                epoch_loss += float(per_example_bce(np.asarray(logits.data), targets).sum())
                with tracer.span("optim.step"):
                    norm = clip_grad_norm(model.parameters(), config.grad_clip)
                    if np.isfinite(norm):
                        optimizer.step()
                    else:
                        probe.nonfinite += 1
                    optimizer.zero_grad()
            losses.append(epoch_loss / max(1, len(indices)))
    return losses


def snapshot(model: TPGNN) -> dict:
    return {key: value.copy() for key, value in model.state_dict().items()}


def weights_equal(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(np.array_equal(a[k], b[k]) for k in a)


def traced_loop_matches(model: TPGNN, data: GraphDataset, config: TrainConfig) -> bool:
    """Run ``train_model`` and the traced loop from the same weights; compare bitwise.

    Leaves ``model`` as ``train_model`` left it.
    """
    start = snapshot(model)
    reference = train_model(model, data, config)
    after = snapshot(model)
    model.load_state_dict(start)
    losses = traced_train(model, data, config, Tracer(enabled=False), EpochProbe())
    same = losses == reference.losses and weights_equal(after, snapshot(model))
    model.load_state_dict(after)
    return same


def megaplan_counters() -> tuple[int, int]:
    registry = telemetry.get_registry()
    return (
        registry.counter("propagation/megaplan_cache_hits").value,
        registry.counter("propagation/megaplan_cache_misses").value,
    )


def batched_scores(model: TPGNN, data: GraphDataset) -> np.ndarray:
    """P(positive) for every graph, scored ``SCORE_BATCH`` graphs at a time."""
    was_training = model.training
    model.eval()
    out = []
    try:
        with no_grad():
            for start in range(0, len(data), SCORE_BATCH):
                logits = model.forward_batch(data.graphs[start : start + SCORE_BATCH])
                out.append(np.asarray(logits.data, dtype=np.float64).reshape(-1))
    finally:
        if was_training:
            model.train()
    return 1.0 / (1.0 + np.exp(-np.concatenate(out)))


# ----------------------------------------------------------------------
# Serving helpers
# ----------------------------------------------------------------------
class TracedJournal:
    """A :class:`Journal` stand-in passed as ``journal=`` that times appends."""

    def __init__(self, journal: Journal, tracer: Tracer):
        self._journal = journal
        self._tracer = tracer

    def append_event(self, event) -> int:
        with self._tracer.span("resilience.journal.append"):
            return self._journal.append_event(event)

    def __getattr__(self, name):
        return getattr(self._journal, name)


def predictions(predict, session_ids) -> dict:
    return {sid: predict(sid) for sid in session_ids}


def journaled_cluster(model: TPGNN, capacity: int, directory: Path) -> ShardedCluster:
    return ShardedCluster(
        model,
        n_shards=SHARDS,
        backend="thread",
        max_sessions=capacity,
        journal_dir=directory,
        journal_fsync=FSYNC,
    )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
class Run:
    """State of one benchmark run: models, serving stack and windows."""

    def __init__(self, w: Workload, seed: int, inputs: Inputs, model: TPGNN, rounds: int,
                 workdir: Path, tracer: Tracer, host: HostSpeed, out: Outcome):
        self.w, self.seed, self.inputs, self.model = w, seed, inputs, model
        self.workdir, self.tracer, self.host, self.out = workdir, tracer, host, out
        split = (rounds + 1) * CHUNK
        self.closed, self.open = inputs.feed[:split], inputs.feed[split:]
        self.capacity = len({event.session_id for event in inputs.feed}) + 16  # no LRU eviction
        self.checkpoint = workdir / "crash-checkpoint.npz"
        self.crash_journal = workdir / "crash-journal"
        # Timed windows of each throughput phase as (work, started, ended),
        # scaled to the reference host once the kernel sample after the
        # last of them exists.
        self.timed = {
            name: [] for name in ("train", "eval", "engine", "cluster", "recover", "learn")
        }
        # Raw epoch and chunk seconds, for the tracing overhead.
        self.windows = {
            name: Windows()
            for name in ("epoch_plain", "epoch_traced", "chunk_plain", "chunk_traced")
        }
        self.latencies: list[float] = []  # open loop, from due time
        self.lateness: list[float] = []
        self.predicts: list[tuple[list[float], float, float]] = []  # per idle-predict window
        self.probe = EpochProbe()
        self.cache_hits = self.cache_misses = 0
        self.learn_cursor = 0
        self.batches = math.ceil(len(inputs.train) / BATCH_SIZE)
        self.engine = self.journal = self.cluster = self.open_cluster = None

    # -- lifecycle -----------------------------------------------------
    def start_serving(self) -> None:
        """Freeze a serving copy of the model and build the serving stack."""
        w, feature_dim = self.w, self.inputs.feature_dim
        self.served = clone_model(w, self.model, feature_dim)
        self.journal = Journal(self.workdir / "engine", fsync=FSYNC)
        journal = TracedJournal(self.journal, self.tracer) if self.tracer.enabled else self.journal
        self.engine = StreamingEngine(self.served, max_sessions=self.capacity, journal=journal)
        self.cluster = journaled_cluster(self.served, self.capacity, self.workdir / "cluster")
        self.open_cluster = journaled_cluster(
            self.served, self.capacity, self.workdir / "open-cluster"
        )
        learn_model = clone_model(w, self.model, feature_dim)
        self.learn_engine = StreamingEngine(learn_model, max_sessions=self.capacity)
        self.learn_engine.attach_learner(
            OnlineLearner(
                learn_model,
                TrainConfig(batch_size=BATCH_SIZE, online_update_every=LEARN_EVERY,
                            seed=self.seed),
            )
        )

    def close(self) -> None:
        for cluster in (self.cluster, self.open_cluster):
            if cluster is not None:
                cluster.close()
        if self.journal is not None:
            self.journal.close()

    # -- one window of each phase --------------------------------------
    def train_window(self, r: int, timed: bool) -> None:
        train, out, tracer = self.inputs.train, self.out, self.tracer
        config = TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=self.seed * 1000 + r)
        started = time.perf_counter()
        result = train_model(self.model, train, config)
        ended = time.perf_counter()
        if timed:
            self.timed["train"].append((len(train), started, ended))
            self.windows["epoch_plain"].add(ended - started)
        out.attempted += self.batches
        out.fail("nonfinite_train_batches", result.nonfinite_batches)
        if tracer.enabled and r % 2 == 0:
            # Traced run: an epoch of the span-instrumented loop after the
            # plain epoch of every other round; their ratio is the tracing
            # overhead.
            hits, misses = megaplan_counters()
            nonfinite = self.probe.nonfinite
            started = time.perf_counter()
            config = TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=self.seed * 1000 + 500 + r)
            traced_train(self.model, train, config, tracer, self.probe)
            self.windows["epoch_traced"].add(time.perf_counter() - started)
            after_hits, after_misses = megaplan_counters()
            self.cache_hits += after_hits - hits
            self.cache_misses += after_misses - misses
            out.attempted += self.batches
            out.fail("nonfinite_train_batches", self.probe.nonfinite - nonfinite)

    def eval_window(self, r: int, timed: bool) -> None:
        test, size = self.inputs.test.graphs, self.w.eval_window
        start = (r * size) % len(test)
        part = GraphDataset((test + test)[start : start + size])
        started = time.perf_counter()
        with self.tracer.span("training.evaluate"):
            metrics = evaluate(self.model, part)
        if timed:
            self.timed["eval"].append((len(part), started, time.perf_counter()))
        self.last_eval = (part, metrics)
        self.out.attempted += len(part)

    def engine_window(self, r: int, timed: bool) -> None:
        chunk = self.closed[r * CHUNK : (r + 1) * CHUNK]
        tracer = self.tracer
        # Traced run: spans on every other chunk, to measure their cost.
        traced, tracer.enabled = tracer.enabled, tracer.enabled and r % 2 == 1
        started = time.perf_counter()
        for event in chunk:
            with tracer.span("serve.engine.ingest"):
                self.engine.ingest(event)
        ended = time.perf_counter()
        spanned, tracer.enabled = tracer.enabled, traced
        if timed:
            self.timed["engine"].append((len(chunk), started, ended))
            self.windows["chunk_traced" if spanned else "chunk_plain"].add(ended - started)
        self.out.attempted += len(chunk)

    def cluster_window(self, r: int, timed: bool) -> None:
        chunk = self.closed[r * CHUNK : (r + 1) * CHUNK]
        tracer, cluster = self.tracer, self.cluster
        started = time.perf_counter()
        for event in chunk:
            with tracer.span("cluster.submit"):
                cluster.submit(event)
        with tracer.span("cluster.flush"):
            cluster.flush()
        if timed:
            self.timed["cluster"].append((len(chunk), started, time.perf_counter()))
        self.out.attempted += len(chunk)
        self.predict_window(r, timed)  # while the cluster is drained

    def open_window(self, r: int, timed: bool) -> None:
        part = self.open[r * SEGMENT : (r + 1) * SEGMENT]
        tracer, cluster = self.tracer, self.open_cluster

        def submit(event):
            with tracer.span("cluster.submit"):
                return cluster.submit(event)

        def predict(event):
            with tracer.span("cluster.predict"):
                return cluster.predict(event.session_id)

        result = open_loop(part, self.w.open_rate, submit, predict, PREDICT_EVERY, PREDICT_ERRORS)
        cluster.flush()
        if timed:
            self.latencies += result.latencies
            self.lateness += result.lateness
        self.out.attempted += result.submitted + len(result.latencies) + result.predict_errors
        self.out.fail("predict_errors", result.predict_errors)

    def predict_window(self, r: int, timed: bool) -> None:
        """Score sessions of this round's chunk on the drained cluster, one call each.

        Every shard has applied everything, so each call's latency is the
        read path alone: routing, the (empty) barrier and the model.
        """
        ids = sorted({event.session_id for event in self.closed[r * CHUNK : (r + 1) * CHUNK]})
        ids = ids[:IDLE_PREDICTS]
        latencies, errors = [], 0
        started = time.perf_counter()
        for sid in ids:
            begun = time.perf_counter()
            try:
                self.cluster.predict(sid)
            except PREDICT_ERRORS:
                errors += 1
                continue
            latencies.append(time.perf_counter() - begun)
        if timed:
            self.predicts.append((latencies, started, time.perf_counter()))
        self.out.attempted += len(ids)
        self.out.fail("predict_errors", errors)

    def make_crash(self) -> None:
        """Checkpoint an engine mid-feed, journal a tail after it, then "crash".

        The journal starts at the checkpoint, so recovery scans exactly
        the records it replays.  The engine's predictions are kept as
        what every recovered engine must reproduce.
        """
        engine = StreamingEngine(
            clone_model(self.w, self.served, self.inputs.feature_dim),
            max_sessions=self.capacity,
        )
        for event in self.closed[:RECOVER_AT]:
            engine.ingest(event)
        journal = Journal(self.crash_journal, fsync=FSYNC)
        engine.attach_journal(journal)
        engine.checkpoint(self.checkpoint)
        for event in self.closed[RECOVER_AT : RECOVER_AT + RECOVER_TAIL]:
            engine.ingest(event)
        journal.close()
        self.crashed = predictions(engine.predict, engine.live_sessions())

    def recover_window(self, r: int, timed: bool) -> None:
        """Recover the crashed engine from its checkpoint and journal; compare."""
        w, tracer, out = self.w, self.tracer, self.out
        fresh = clone_model(w, self.served, self.inputs.feature_dim)
        started = time.perf_counter()
        with tracer.span("serve.recovery.recover"):
            recovered, report = recover_engine(self.crash_journal, fresh,
                                               checkpoint=self.checkpoint)
        if timed:
            self.timed["recover"].append((report.records_replayed, started, time.perf_counter()))
        if tracer.enabled:
            with tracer.span("serve.engine.restore"):
                StreamingEngine.restore(
                    self.checkpoint, clone_model(w, self.served, self.inputs.feature_dim)
                )
            with tracer.span("resilience.journal.scan"):
                scan_journal(self.crash_journal)
        out.check(
            "recovered_predictions_equal_engine",
            predictions(recovered.predict, recovered.live_sessions()) == self.crashed,
        )
        out.check("recovered_journal_has_no_gaps", not report.gaps)
        out.check("recovery_replayed_the_tail", report.records_replayed == RECOVER_TAIL)
        out.fail("journal_gaps", len(report.gaps))
        out.attempted += report.records_replayed

    def learn_window(self, r: int, timed: bool) -> None:
        engine, tracer = self.learn_engine, self.tracer
        examples = self.inputs.test.graphs
        started = time.perf_counter()
        for _ in range(self.w.learn_window):
            graph = examples[self.learn_cursor % len(examples)]
            self.learn_cursor += 1
            before = engine.learner.updates_applied
            with tracer.span("online.learner.observe") as handle:
                engine.observe_example(graph)
            if tracer.enabled:
                moved = engine.learner.updates_applied != before
                tracer.spans[handle.index].name = (
                    "online.learner.update" if moved else "online.learner.score"
                )
        if timed:
            self.timed["learn"].append((self.w.learn_window, started, time.perf_counter()))
        self.out.attempted += self.w.learn_window

    # -- rounds --------------------------------------------------------
    def warm_up(self) -> None:
        """Round 0, untimed: fill caches and run the fresh-state checks."""
        config = TrainConfig(epochs=2, batch_size=BATCH_SIZE, seed=self.seed * 1000 + 999)
        self.out.check(
            "traced_loop_equals_train_model",
            traced_loop_matches(self.model, self.inputs.train, config),
        )
        self.out.attempted += 4 * self.batches
        self.eval_window(0, timed=False)
        self.start_serving()
        self.make_crash()
        self.engine_window(0, timed=False)
        self.cluster_window(0, timed=False)
        self.open_window(0, timed=False)
        self.recover_window(0, timed=False)
        self.learn_window(0, timed=False)

    @contextmanager
    def phase(self, name: str):
        """Add the wall time of the block to the run's per-phase totals."""
        started = time.perf_counter()
        yield
        spent = self.out.notes.setdefault("phase_seconds", {})
        spent[name] = spent.get(name, 0.0) + time.perf_counter() - started

    def round(self, r: int) -> None:
        """One window of every phase, with a host-speed sample between phases."""
        settle()
        # The open loop reports latency as measured, not scaled, so it
        # goes before the round's first sample and needs none of its own.
        with self.phase("open_loop"):
            self.open_window(r, timed=True)
        self.host.sample()
        for name, window in (
            ("train", self.train_window),
            ("eval", self.eval_window),
            ("engine", self.engine_window),
            ("cluster", self.cluster_window),
            ("recover", self.recover_window),
            ("learn", self.learn_window),
        ):
            with self.phase(name):
                window(r, timed=True)
            self.host.sample()

    def finish(self) -> None:
        """Final checks and the end-to-end metrics."""
        out, test = self.out, self.inputs.test
        # The model has not changed since the last evaluate window.  The
        # counts must agree, and so must every graph's own prediction,
        # read from ``evaluate`` on that graph alone.
        part, reference = self.last_eval
        thresholded = (batched_scores(self.model, part) >= 0.5).astype(np.int64)
        alone = [evaluate(self.model, GraphDataset([graph])) for graph in part.graphs]
        out.check(
            "batched_scores_match_evaluate",
            compute_metrics(part.labels, thresholded) == reference
            and thresholded.tolist() == [m.true_positives + m.false_positives for m in alone],
        )
        scores = batched_scores(self.model, test)
        out.attempted += len(part) + len(test)
        out.put("test_auc", roc_auc(test.labels, scores))

        engine_counters = self.engine.metrics.counters()
        lost = sum(
            engine_counters[key]
            for key in ("events_dropped", "events_late_dropped", "events_overflow_dropped",
                        "events_quarantined", "breaker_rejections")
        )
        out.fail("engine_events_lost", lost)
        out.check(
            "engine_applied_equals_accepted",
            engine_counters["events_applied"] == len(self.closed) - lost,
        )

        def engine_predict(sid):
            with self.tracer.span("serve.engine.predict"):
                return self.engine.predict(sid)

        def cluster_predict(sid):
            with self.tracer.span("cluster.predict"):
                return self.cluster.predict(sid)

        ids = self.engine.live_sessions()
        out.check(
            "cluster_predictions_equal_engine",
            predictions(cluster_predict, ids) == predictions(engine_predict, ids),
        )
        out.attempted += 2 * len(ids)

        applied_per_shard, shed_total = [], 0
        for name, cluster in (("cluster", self.cluster), ("open_cluster", self.open_cluster)):
            stats = cluster.stats()
            applied = [shard["applied"] for shard in stats["shards"].values()]
            routed, shed = stats["cluster"]["events_routed"], stats["cluster"]["events_shed"]
            out.check(f"{name}_applied_equals_accepted", sum(applied) == routed - shed)
            out.fail("cluster_events_shed", shed)
            out.fail("shard_errors", sum(s["errors"] for s in stats["shards"].values()))
            applied_per_shard += applied
            shed_total += shed
        self.close()
        engine_scan = scan_journal(self.workdir / "engine")
        out.check("engine_journal_has_no_gaps", not engine_scan.gaps)
        out.fail("journal_gaps", len(engine_scan.gaps))
        gaps = sum(
            len(scan_journal(path).gaps) for path in sorted(self.workdir.glob("*cluster/shard-*"))
        )
        out.check("cluster_journals_have_no_gaps", gaps == 0)
        out.fail("journal_gaps", gaps)

        host, windows = self.host, self.windows
        for metric, phase in (
            ("train_graphs_per_s", "train"),
            ("eval_graphs_per_s", "eval"),
            ("engine_events_per_s", "engine"),
            ("cluster_events_per_s", "cluster"),
            ("recover_records_per_s", "recover"),
            ("learn_examples_per_s", "learn"),
        ):
            scaled, raw = Windows(), Windows()
            for work, started, ended in self.timed[phase]:
                scaled.add_rate(work, host.scaled(ended - started, started, ended))
                raw.add_rate(work, ended - started)
            out.put(metric, scaled.median, scaled, raw)
        predicts = [
            latency / host.slowness(started, ended)
            for samples, started, ended in self.predicts
            for latency in samples
        ]
        out.put("predict_p50_ms", percentile(predicts, 50) * 1e3)
        out.notes["predict_samples"] = len(predicts)
        out.notes["unscaled_predict_p50_ms"] = percentile(
            [latency for samples, _, _ in self.predicts for latency in samples], 50
        ) * 1e3
        # Open-loop latencies stay as measured: they are set mostly by
        # thread wake-ups, which the host-speed kernel does not track.
        out.put("score_p50_ms", percentile(self.latencies, 50) * 1e3)
        out.put("score_p99_ms", percentile(self.latencies, 99) * 1e3)
        out.notes["score_samples"] = len(self.latencies)
        out.put("loadgen.late_p99_ms", percentile(self.lateness, 99) * 1e3)
        out.put("cluster.shard_skew",
                max(applied_per_shard) * len(applied_per_shard) / sum(applied_per_shard))
        out.put("cluster.shed_ratio", shed_total / (len(self.closed) + len(self.open)))
        if self.tracer.enabled:
            out.put("core.forward_batch_graphs_per_s", self._forward_batch_rate())
            total = self.cache_hits + self.cache_misses
            out.put("graph.megaplan.cache_hit_ratio", self.cache_hits / max(1, total))
            out.put("graph.megaplan.waves_per_batch", self.probe.waves / max(1, self.probe.batches))
            out.put("graph.megaplan.pad_ratio",
                    self.probe.real_edges / max(1, self.probe.padded_slots))
            out.put("trace.overhead_ratio", max(
                windows["epoch_traced"].median / windows["epoch_plain"].median,
                windows["chunk_traced"].median / windows["chunk_plain"].median,
            ))
            size = sum(path.stat().st_size for path in (self.workdir / "engine").glob("*"))
            out.put("resilience.journal.bytes_per_record",
                    size / max(1, len(engine_scan.records)))

    def _forward_batch_rate(self) -> float:
        rates = Windows()
        for _ in range(3):
            started = time.perf_counter()
            batched_scores(self.model, self.inputs.test)
            rates.add_rate(len(self.inputs.test), time.perf_counter() - started)
        return rates.median


# ----------------------------------------------------------------------
# Per-layer aggregation of the traced run
# ----------------------------------------------------------------------
#: Layer spans inside a training epoch: self seconds per epoch.
EPOCH_LAYERS = {
    "graph.megaplan.build": "graph.megaplan.build_s",
    "core.propagation.forward": "core.propagation.forward_s",
    "core.extractor.forward": "core.extractor.forward_s",
    "nn.loss": "nn.loss_s",
    "tensor.backward": "tensor.backward_s",
    "optim.step": "optim.step_s",
}
#: Spans timed per call: median self seconds per call.
CALL_LAYERS = {
    "data.generate": "data.generate_s",
    "graph.io.bundle": "graph.io.bundle_s",
    "training.evaluate": "training.evaluate_s",
    "serve.engine.ingest": "serve.engine.ingest_s",
    "serve.engine.predict": "serve.engine.predict_s",
    "serve.engine.restore": "serve.engine.restore_s",
    "serve.recovery.recover": "serve.recovery.recover_s",
    "resilience.journal.append": "resilience.journal.append_s",
    "resilience.journal.scan": "resilience.journal.scan_s",
    "cluster.submit": "cluster.submit_s",
    "cluster.predict": "cluster.predict_s",
    "cluster.flush": "cluster.flush_s",
    "online.learner.score": "online.learner.score_s",
    "online.learner.update": "online.learner.update_s",
}


def layer_metrics(tracer: Tracer, out: Outcome) -> None:
    """Per-layer self times of the traced run, and the epoch accounting."""
    spans = tracer.spans
    own = tracer.self_times()
    per_call: dict[str, list[float]] = {}
    for span, seconds in zip(spans, own):
        per_call.setdefault(span.name, []).append(seconds)
    for span_name, metric in CALL_LAYERS.items():
        values = per_call.get(span_name)
        if not values:
            raise RuntimeError(f"traced run recorded no {span_name!r} span")
        out.put(metric, float(np.median(values)))

    per_epoch = {metric: Windows() for metric in EPOCH_LAYERS.values()}
    walls, unattributed, probes = Windows(), Windows(), Windows()
    for root, span in enumerate(spans):
        if span.name != "training.epoch":
            continue
        totals = dict.fromkeys(EPOCH_LAYERS.values(), 0.0)
        probe = 0.0
        for index in descendants(spans, root):
            metric = EPOCH_LAYERS.get(spans[index].name)
            if metric is not None:
                totals[metric] += own[index]
            elif spans[index].name == "harness.probe":
                probe += own[index]
        for metric, seconds in totals.items():
            per_epoch[metric].add(seconds)
        wall = span.end - span.start
        walls.add(wall)
        unattributed.add(own[root] / wall)
        probes.add(probe / wall)
    for metric, windows in per_epoch.items():
        out.put(metric, windows.median, windows)
    out.put("training.epoch_s", walls.median, walls)
    out.put("trace.unattributed_ratio", unattributed.median, unattributed)
    out.notes["harness_probe_share"] = probes.median


def run(
    w: Workload, seed: int, seconds: float, trace: bool, workdir: Path
) -> tuple[Outcome, Tracer]:
    """Run every phase of ``w``; the caller owns (and removes) ``workdir``."""
    tracer = Tracer(enabled=trace)
    host = HostSpeed()
    out = Outcome()
    rounds = max(4, int(round(ROUNDS * seconds / REFERENCE_SECONDS)))
    feed_events = (rounds + 1) * (CHUNK + SEGMENT)

    setups, raw_setups = Windows(), Windows()
    for rep in range(SETUP_REPEATS):
        inputs = None  # the previous repetition's inputs are garbage now
        gc.collect()
        host.sample()
        started = time.perf_counter()
        inputs = set_up(w, seed, workdir / f"bundle-{rep}", feed_events, tracer)
        model = build_model(w, inputs.feature_dim, seed)
        ended = time.perf_counter()
        host.sample()
        setups.add(host.scaled(ended - started, started, ended))
        raw_setups.add(ended - started)
    out.put("setup_s", setups.median, setups, raw_setups)

    bench = Run(w, seed, inputs, model, rounds, workdir, tracer, host, out)
    try:
        with bench.phase("warm_up"):
            bench.warm_up()
        for r in range(1, rounds + 1):
            bench.round(r)
        bench.finish()
    finally:
        bench.close()
    out.put("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    out.notes["host_slowness"] = host.median_slowness()
    if trace:
        layer_metrics(tracer, out)
    return out, tracer
