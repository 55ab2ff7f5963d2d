"""The chaos scenario suite behind ``repro chaos``.

Each scenario stages one documented failure mode (RELIABILITY.md),
injects it deterministically — via a seeded
:class:`~repro.resilience.faults.FaultPlan` or the file/feed corruption
helpers — and asserts that the stack *detects* the fault and *recovers*
along the documented path.  A scenario survives only if the failure was
caught by a typed guard (never an unhandled exception) and the system
ended in a usable state with no silent corruption.

Scenarios are registered with the :func:`scenario` decorator and run by
:func:`run_scenarios`; :func:`render_report` prints the survival table
the CLI shows.  Everything is seeded, so a failing scenario replays
identically under ``repro chaos --seed N --scenarios <name>``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from repro.core.model import TPGNN
from repro.graph.ctdn import CTDN
from repro.graph.dataset import GraphDataset
from repro.graph.edge import TemporalEdge
from repro.nn.serialization import load_checkpoint, save_checkpoint
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.errors import (
    DeadlineExceededError,
    EventValidationError,
    FaultInjected,
    IntegrityError,
)
from repro.resilience.faults import (
    FaultPlan,
    activate,
    corrupt_file,
    perturb_feed,
    truncate_file,
)
from repro.serve.engine import StreamingEngine
from repro.serve.events import StreamEvent, dataset_to_feed
from repro.training.trainer import TrainConfig, train_model

# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
@dataclass
class ScenarioResult:
    """Outcome of one chaos scenario."""

    name: str
    survived: bool
    detection: str
    recovery: str
    faults_injected: int = 0
    seconds: float = 0.0
    error: str | None = None


@dataclass
class ChaosContext:
    """Seeded workbench handed to every scenario."""

    seed: int
    workdir: Path

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)

    def model(self) -> TPGNN:
        return TPGNN(
            in_features=3, hidden_size=8, gru_hidden_size=8, time_dim=4,
            seed=self.seed,
        )

    def dataset(self, num_graphs: int = 6) -> GraphDataset:
        """Small random labelled temporal graphs (feature width 3)."""
        rng = self.rng(salt=101)
        graphs = []
        for index in range(num_graphs):
            n = int(rng.integers(4, 8))
            edges, t = [], 0.0
            for _ in range(int(rng.integers(5, 10))):
                t += float(rng.exponential(1.0)) + 0.05
                u, v = rng.choice(n, size=2, replace=False)
                edges.append(TemporalEdge(int(u), int(v), t))
            graphs.append(
                CTDN(n, rng.normal(size=(n, 3)), edges, label=int(index % 2),
                     graph_id=f"chaos-{index}")
            )
        return GraphDataset(graphs, name="chaos")

    def feed(self, num_graphs: int = 6) -> list[StreamEvent]:
        return dataset_to_feed(self.dataset(num_graphs), rng=self.rng(salt=7), spread=2.0)


#: name -> (function, description, included in --quick)
_SCENARIOS: dict[str, tuple[Callable[[ChaosContext], tuple[str, str]], str, bool]] = {}


def scenario(name: str, description: str, quick: bool = True):
    """Register a chaos scenario (returns ``(detection, recovery)``)."""

    def wrap(fn):
        _SCENARIOS[name] = (fn, description, quick)
        return fn

    return wrap


def scenario_names(quick: bool = False) -> list[str]:
    """Registered scenario names, registration order."""
    return [
        name for name, (_, _, is_quick) in _SCENARIOS.items() if is_quick or not quick
    ]


def scenario_description(name: str) -> str:
    return _SCENARIOS[name][1]


def run_scenarios(
    names: list[str] | None = None,
    quick: bool = False,
    seed: int = 0,
    workdir: str | Path | None = None,
) -> list[ScenarioResult]:
    """Execute scenarios (all by default); never raises.

    A scenario that lets any exception escape is reported as not
    survived with the traceback head attached — the suite itself is the
    last line of defence against unhandled failures.
    """
    import tempfile

    chosen = names if names is not None else scenario_names(quick=quick)
    results = []
    for name in chosen:
        if name not in _SCENARIOS:
            raise KeyError(
                f"unknown chaos scenario {name!r}; choose from {scenario_names()}"
            )
        fn, _, _ = _SCENARIOS[name]
        with tempfile.TemporaryDirectory(prefix=f"chaos-{name}-") as tmp:
            context = ChaosContext(seed=seed, workdir=Path(workdir or tmp))
            started = time.perf_counter()
            before = _faults_fired_total()
            try:
                detection, recovery = fn(context)
                results.append(ScenarioResult(
                    name=name, survived=True, detection=detection,
                    recovery=recovery,
                    faults_injected=_faults_fired_total() - before,
                    seconds=time.perf_counter() - started,
                ))
            except Exception as error:  # noqa: BLE001 - survival report
                results.append(ScenarioResult(
                    name=name, survived=False, detection="", recovery="",
                    faults_injected=_faults_fired_total() - before,
                    seconds=time.perf_counter() - started,
                    error=f"{type(error).__name__}: {error}",
                ))
    return results


def _faults_fired_total() -> int:
    """Total ``resilience/faults_injected`` count on the live registry.

    In-process injections (fault plans activated inside the scenario's
    own process) are counted; faults fired inside worker subprocesses
    land on the workers' registries and are not visible here.
    """
    from repro import telemetry

    return sum(
        instrument.value
        for name, _labels, kind, instrument in telemetry.get_registry()
        if name == "resilience/faults_injected" and kind == "counter"
    )


def render_report(results: list[ScenarioResult]) -> str:
    """The survival table printed by ``repro chaos``."""
    lines = ["chaos survival report", ""]
    width = max((len(result.name) for result in results), default=8)
    for result in results:
        status = "SURVIVED" if result.survived else "FAILED"
        lines.append(
            f"  {status:<8} {result.name:<{width}}  "
            f"faults={result.faults_injected:<3d} {result.seconds*1e3:7.1f} ms"
        )
        if result.survived:
            lines.append(f"{'':11}detected by: {result.detection}")
            lines.append(f"{'':11}recovered:   {result.recovery}")
        else:
            lines.append(f"{'':11}UNHANDLED: {result.error}")
    survived = sum(result.survived for result in results)
    lines.append("")
    lines.append(f"  {survived}/{len(results)} scenarios survived")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Persistence scenarios
# ----------------------------------------------------------------------
@scenario(
    "corrupt-checkpoint",
    "random byte corruption of a model checkpoint is detected on load",
)
def _corrupt_checkpoint(ctx: ChaosContext) -> tuple[str, str]:
    model = ctx.model()
    path = save_checkpoint(model, ctx.workdir / "model.npz", metadata={"run": 1})
    corrupt_file(path, rng=ctx.rng(salt=1), nbytes=8)
    try:
        load_checkpoint(ctx.model(), path)
    except IntegrityError:
        pass
    else:
        raise AssertionError("corrupt checkpoint loaded without IntegrityError")
    # Recovery: re-materialise the checkpoint from the live model.
    path = save_checkpoint(model, path)
    load_checkpoint(ctx.model(), path)
    return "IntegrityError (zip CRC / SHA-256 verification)", "checkpoint rewritten from live weights and reloaded"


@scenario(
    "truncated-checkpoint",
    "a checkpoint cut short mid-write is rejected, not half-loaded",
)
def _truncated_checkpoint(ctx: ChaosContext) -> tuple[str, str]:
    model = ctx.model()
    path = save_checkpoint(model, ctx.workdir / "model.npz")
    truncate_file(path, keep_fraction=0.5)
    try:
        load_checkpoint(ctx.model(), path)
    except IntegrityError:
        pass
    else:
        raise AssertionError("truncated checkpoint loaded without IntegrityError")
    path = save_checkpoint(model, path)
    load_checkpoint(ctx.model(), path)
    return "IntegrityError (torn npz archive)", "checkpoint rewritten; atomic write + fsync prevents torn publishes"


def _fake_trial(ctx: ChaosContext):
    from repro.experiments.parallel import TrialOutcome, TrialSpec, trial_cache_key
    from repro.training.metrics import Metrics

    spec = TrialSpec(
        model_name="TP-GNN-SUM", dataset_name="HDFS", num_graphs=4, graph_scale=0.1,
        dataset_seed=ctx.seed, hidden_size=4, time_dim=2, snapshot_size=8,
        train_fraction=0.5, run_index=0, train=TrainConfig(epochs=1, seed=ctx.seed),
    )
    outcome = TrialOutcome(
        metrics=Metrics(precision=0.75, recall=0.5, f1=0.6),
        losses=(0.7, 0.6), train_seconds=0.1, epochs_run=1, nonfinite_batches=0,
    )
    return spec, trial_cache_key(spec), outcome


@scenario(
    "corrupt-cache-entry",
    "byte corruption of a trial-cache entry quarantines it and recomputes",
)
def _corrupt_cache_entry(ctx: ChaosContext) -> tuple[str, str]:
    from repro.experiments.parallel import TrialCache

    cache = TrialCache(ctx.workdir / "cache")
    spec, key, outcome = _fake_trial(ctx)
    path = cache.put(key, spec, outcome)
    corrupt_file(path, rng=ctx.rng(salt=2), nbytes=6)
    if cache.get(key) is not None:
        raise AssertionError("corrupt cache entry was served")
    if not cache.quarantine_path(key).exists():
        raise AssertionError("corrupt entry was not quarantined")
    # Recovery: the recomputed outcome republishes cleanly.
    cache.put(key, spec, outcome)
    if cache.get(key) != outcome:
        raise AssertionError("recomputed entry did not round-trip")
    return "cache entry failed JSON/SHA-256 verification", "entry moved to quarantine/, cell recomputed and republished"


@scenario(
    "cache-tamper",
    "a semantically edited (valid-JSON) cache entry fails its digest",
)
def _cache_tamper(ctx: ChaosContext) -> tuple[str, str]:
    import json

    from repro.experiments.parallel import TrialCache

    cache = TrialCache(ctx.workdir / "cache")
    spec, key, outcome = _fake_trial(ctx)
    path = cache.put(key, spec, outcome)
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload["outcome"]["metrics"]["precision"] = 0.99  # inflate the result
    path.write_text(json.dumps(payload), encoding="utf-8")
    if cache.get(key) is not None:
        raise AssertionError("tampered cache entry was served")
    cache.put(key, spec, outcome)
    if cache.get(key) != outcome:
        raise AssertionError("honest entry did not round-trip after tamper")
    return "SHA-256 digest mismatch on an otherwise valid entry", "entry quarantined; honest recompute republished"


# ----------------------------------------------------------------------
# Serving scenarios
# ----------------------------------------------------------------------
@scenario(
    "event-disorder",
    "a dropped/duplicated/reordered feed streams through without error",
)
def _event_disorder(ctx: ChaosContext) -> tuple[str, str]:
    feed = ctx.feed()
    noisy = perturb_feed(feed, rng=ctx.rng(salt=3), drop=0.1, duplicate=0.1, swap=0.3)
    engine = StreamingEngine(
        ctx.model(), out_of_order="buffer", watermark_delay=1.0, max_buffered=64,
    )
    engine.ingest_many(noisy)
    engine.flush()
    scores = engine.predict_many()
    if not all(np.isfinite(list(scores.values()))):
        raise AssertionError("disorder produced non-finite predictions")
    handled = (
        engine.metrics.events_dropped
        + engine.metrics.events_late_dropped
        + engine.router.stats.buffered_peak
    )
    if handled == 0 and len(noisy) == len(feed):
        raise AssertionError("perturbation had no observable effect")
    return "router out-of-order admission (buffer policy + watermark)", "late events re-ordered or counted dropped; predictions stayed finite"


@scenario(
    "malformed-events",
    "non-event records and NaN features are quarantined, never applied",
)
def _malformed_events(ctx: ChaosContext) -> tuple[str, str]:
    feed = ctx.feed(num_graphs=3)
    bad_features = {0: np.array([np.nan, 1.0, 2.0])}
    garbage = [
        {"session_id": "x", "src": 0, "dst": 1},  # not an event at all
        StreamEvent("s-bad", 0, 1, 1.0, node_features=bad_features),
        StreamEvent("s-range", 0, 99, 2.0),  # node id outside max_node
    ]
    engine = StreamingEngine(ctx.model(), validate="skip", max_node=32)
    for record in feed + garbage:
        engine.ingest(record)
    if engine.metrics.events_quarantined < len(garbage):
        raise AssertionError(
            f"only {engine.metrics.events_quarantined} of {len(garbage)} "
            "malformed records quarantined"
        )
    # Strict policy turns the same records into typed errors.
    strict = StreamingEngine(ctx.model(), validate="strict", max_node=32)
    raised = 0
    for record in garbage:
        try:
            strict.ingest(record)
        except EventValidationError:
            raised += 1
    if raised != len(garbage):
        raise AssertionError("strict policy missed a malformed record")
    return "EventValidator schema / node-range / finiteness checks", "skip policy quarantined and counted; strict raised EventValidationError"


@scenario(
    "serve-exception-burst",
    "repeated apply failures open the circuit breaker and shed load",
)
def _serve_exception_burst(ctx: ChaosContext) -> tuple[str, str]:
    feed = ctx.feed()
    breaker = CircuitBreaker(failure_threshold=3, cooldown=60.0)
    engine = StreamingEngine(ctx.model(), breaker=breaker)
    plan = FaultPlan(seed=ctx.seed).add("serve.apply", kind="raise")
    caught = 0
    with activate(plan):
        for event in feed:
            try:
                engine.ingest(event)
            except FaultInjected:
                caught += 1
    if breaker.state != "open":
        raise AssertionError(f"breaker ended {breaker.state!r}, expected open")
    if caught != breaker.failure_threshold:
        raise AssertionError(
            f"{caught} exceptions escaped before the circuit opened "
            f"(threshold {breaker.failure_threshold})"
        )
    if engine.metrics.breaker_rejections == 0:
        raise AssertionError("open breaker shed no load")
    return "circuit breaker consecutive-failure threshold", (
        "circuit opened after "
        f"{breaker.failure_threshold} failures; remaining updates shed and counted"
    )


@scenario(
    "deadline-breach",
    "slow apply/predict calls are counted and surfaced as deadline breaches",
)
def _deadline_breach(ctx: ChaosContext) -> tuple[str, str]:
    feed = ctx.feed(num_graphs=2)
    engine = StreamingEngine(ctx.model(), deadline_seconds=1e-9)
    engine.ingest_many(feed)
    if engine.metrics.deadline_breaches == 0:
        raise AssertionError("no apply deadline breach was recorded")
    session = engine.live_sessions()[0]
    try:
        engine.predict(session)
    except DeadlineExceededError:
        pass
    else:
        raise AssertionError("slow predict returned instead of raising")
    # Recovery: with a sane deadline the same engine keeps serving.
    engine.deadline_seconds = 60.0
    if not np.isfinite(engine.predict(session)):
        raise AssertionError("post-breach prediction non-finite")
    return "cooperative post-call deadline check", "breaches counted (writes) / raised (reads); serving resumed under a sane budget"


@scenario(
    "buffer-flood",
    "a stalled-watermark flood cannot grow the reorder buffer unboundedly",
)
def _buffer_flood(ctx: ChaosContext) -> tuple[str, str]:
    engine = StreamingEngine(
        ctx.model(), out_of_order="buffer", watermark_delay=1e9, max_buffered=16,
    )
    for i in range(200):
        engine.ingest(StreamEvent("flood", src=0, dst=1, time=float(i),
                                  node_features={0: np.zeros(3), 1: np.zeros(3)}))
    entry = engine.router._sessions["flood"]
    if len(entry.pending) > 16:
        raise AssertionError(f"buffer grew to {len(entry.pending)} > cap 16")
    if engine.metrics.events_overflow_dropped != 200 - 16:
        raise AssertionError(
            f"expected {200 - 16} overflow drops, "
            f"counted {engine.metrics.events_overflow_dropped}"
        )
    engine.flush()
    return "bounded per-session reorder buffer (max_buffered)", "oldest events dropped and counted; memory stayed O(cap)"


# ----------------------------------------------------------------------
# Cluster scenarios
# ----------------------------------------------------------------------
@scenario(
    "shard-kill",
    "a faulting shard's breaker opens and isolates it; survivors keep serving",
)
def _shard_kill(ctx: ChaosContext) -> tuple[str, str]:
    from repro.cluster import ShardedCluster
    from repro.resilience.errors import CircuitOpenError

    feed = ctx.feed(num_graphs=9)
    with ShardedCluster(
        ctx.model(), n_shards=3, backend="serial",
        breaker_threshold=3, breaker_cooldown=1e9, max_sessions=64,
    ) as cluster:
        cluster.ingest_many(feed)
        sessions = cluster.sessions()
        victim = next(sid for sid, ids in sessions.items() if ids)
        plan = FaultPlan(seed=ctx.seed).add(
            f"cluster.shard{victim}.apply", kind="raise"
        )
        with activate(plan):
            cluster.ingest_many(feed)
            cluster.barrier()
        breaker = cluster._shards[victim].engine.breaker
        if breaker.state != "open":
            raise AssertionError(
                f"victim breaker ended {breaker.state!r}, expected open"
            )
        try:
            cluster.predict(sessions[victim][0])
        except CircuitOpenError:
            pass
        else:
            raise AssertionError("open shard answered a read")
        served = 0
        for shard_id, ids in sessions.items():
            if shard_id == victim:
                continue
            survivor = cluster._shards[shard_id].engine.breaker
            if survivor.state != "closed":
                raise AssertionError(
                    f"survivor shard {shard_id} breaker went {survivor.state!r}"
                )
            for session_id in ids:
                if not np.isfinite(cluster.predict(session_id)):
                    raise AssertionError("survivor produced non-finite score")
                served += 1
        if served == 0:
            raise AssertionError("no surviving shard held any session")
    return "per-shard circuit breaker consecutive-failure threshold", (
        f"victim shard isolated (writes shed, reads rejected); "
        f"{served} sessions on surviving shards kept serving"
    )


@scenario(
    "migration-corrupt-snapshot",
    "a snapshot corrupted mid-migration quarantines the session, not the shard",
)
def _migration_corrupt_snapshot(ctx: ChaosContext) -> tuple[str, str]:
    from repro.cluster import ShardedCluster

    feed = ctx.feed(num_graphs=12)
    with ShardedCluster(
        ctx.model(), n_shards=2, backend="serial", max_sessions=64,
    ) as cluster:
        cluster.ingest_many(feed)
        cluster.add_shard()
        plan = FaultPlan(seed=ctx.seed).add(
            "cluster.migrate.snapshot", kind="nan", times=1
        )
        with activate(plan):
            report = cluster.rebalance()
        if report.quarantined != 1:
            raise AssertionError(
                f"expected exactly 1 quarantined session, got {report.quarantined}"
            )
        if report.moved == 0:
            raise AssertionError("no healthy session completed its migration")
        victim = next(iter(cluster.quarantined))
        if victim in cluster.live_sessions():
            raise AssertionError("quarantined session still serving")
        try:
            cluster.predict(victim)
        except KeyError:
            pass
        else:
            raise AssertionError("quarantined session answered a read")
        for shard_id, worker in cluster._shards.items():
            breaker = worker.engine.breaker
            if breaker is not None and breaker.state != "closed":
                raise AssertionError(
                    f"shard {shard_id} breaker went {breaker.state!r}; "
                    "corruption must quarantine the session, not the shard"
                )
        for session_id, _, target_id in report.moves:
            score = cluster.predict(session_id)
            if not np.isfinite(score):
                raise AssertionError(
                    f"migrated session {session_id!r} on shard {target_id} "
                    "produced a non-finite score"
                )
    return "snapshot finiteness validation inside the migration", (
        f"1 session quarantined; {report.moved} healthy migrations and "
        "every shard kept serving"
    )


# ----------------------------------------------------------------------
# Compute scenarios
# ----------------------------------------------------------------------
@scenario(
    "nan-gradient-storm",
    "NaN-poisoned gradients are skipped, never stepped into Adam",
)
def _nan_gradient_storm(ctx: ChaosContext) -> tuple[str, str]:
    model = ctx.model()
    data = ctx.dataset(num_graphs=6)
    plan = FaultPlan(seed=ctx.seed).add("train.gradients", kind="nan")
    with activate(plan):
        result = train_model(model, data, TrainConfig(epochs=2, batch_size=3, seed=ctx.seed))
    if result.nonfinite_batches == 0:
        raise AssertionError("no poisoned batch was detected")
    for param in model.parameters():
        if not np.all(np.isfinite(param.data)):
            raise AssertionError("NaN reached the model parameters")
    if any(not np.isfinite(loss) for loss in result.losses):
        raise AssertionError("loss history went non-finite")
    return "non-finite gradient-norm guard in the optimiser step", (
        f"{result.nonfinite_batches} poisoned batches skipped; "
        "parameters stayed finite"
    )


@scenario(
    "plan-failure",
    "plan-construction failure falls back to the per-edge fold, same output",
)
def _plan_failure(ctx: ChaosContext) -> tuple[str, str]:
    model = ctx.model()
    graph = ctx.dataset(num_graphs=1)[0]
    healthy = model.propagation(graph).data.copy()
    fresh = CTDN(graph.num_nodes, graph.features, graph.store, label=graph.label)
    plan = FaultPlan(seed=ctx.seed).add("plan.build", kind="raise")
    with activate(plan):
        degraded = model.propagation(fresh).data.copy()
    if not model.propagation.fallback:
        raise AssertionError("fallback flag not set")
    drift = float(np.max(np.abs(healthy - degraded)))
    if drift > 1e-9:
        raise AssertionError(f"fallback drifted {drift:.2e} > 1e-9 from wave path")
    return "plan construction raised; caught at the engine boundary", f"per-edge fold over sorted edges, max drift {drift:.1e}"


@scenario(
    "wave-kernel-failure",
    "a mid-run wave-kernel failure replays the plan per edge, same output",
)
def _wave_kernel_failure(ctx: ChaosContext) -> tuple[str, str]:
    model = ctx.model()
    graph = ctx.dataset(num_graphs=1)[0]
    healthy = model.propagation(graph).data.copy()
    plan = FaultPlan(seed=ctx.seed).add("propagation.wave", kind="raise")
    with activate(plan):
        degraded = model.propagation(graph).data.copy()
    if not model.propagation.fallback:
        raise AssertionError("fallback flag not set")
    drift = float(np.max(np.abs(healthy - degraded)))
    if drift > 1e-9:
        raise AssertionError(f"fallback drifted {drift:.2e} > 1e-9 from wave path")
    return "wave kernel raised; state discarded and rebuilt", f"plan edge order replayed per edge, max drift {drift:.1e}"


# ----------------------------------------------------------------------
# Scheduler scenarios (process-spawning: excluded from --quick)
# ----------------------------------------------------------------------
def _hung_worker(spec, checkpoint_path, checkpoint_every, conn) -> None:
    """A worker that never answers (stands in for a wedged trial)."""
    time.sleep(300)


@scenario(
    "worker-timeout",
    "a hung trial worker is terminated at its deadline without sinking the sweep",
    quick=False,
)
def _worker_timeout(ctx: ChaosContext) -> tuple[str, str]:
    from repro.experiments.parallel import ParallelRunner

    spec, _, _ = _fake_trial(ctx)
    runner = ParallelRunner(
        cache=None, jobs=1, retries=0, trial_timeout=0.5, worker=_hung_worker,
    )
    results = runner.run([spec])
    if len(results) != 1 or results[0].status != "failed":
        raise AssertionError(f"expected a failed cell, got {results!r}")
    if "timed out" not in (results[0].error or ""):
        raise AssertionError(f"unexpected error: {results[0].error!r}")
    return "per-attempt trial_timeout in the parallel scheduler", "worker terminated and joined; sweep completed with the cell marked failed"


@scenario(
    "trial-retry-resume",
    "a trial killed mid-run resumes from its checkpoint on retry",
    quick=False,
)
def _trial_retry_resume(ctx: ChaosContext) -> tuple[str, str]:
    from repro.experiments.parallel import ParallelRunner, TrialCache
    from repro.resilience.retry import RetryPolicy

    cache = TrialCache(ctx.workdir / "cache")
    spec, _, _ = _fake_trial(ctx)
    spec = replace(spec, train=replace(spec.train, epochs=2))
    runner = ParallelRunner(
        cache=cache, jobs=1, retry=RetryPolicy(attempts=2, backoff=0.0),
        worker=_dying_then_ok_worker,
    )
    results = runner.run([spec])
    if len(results) != 1 or results[0].status != "completed":
        raise AssertionError(f"expected completion after retry, got {results!r}")
    if results[0].attempts != 2:
        raise AssertionError(f"expected 2 attempts, got {results[0].attempts}")
    outcome = results[0].outcome
    if outcome is None or outcome.epochs_run != 2:
        raise AssertionError(f"resumed run incomplete: {outcome!r}")
    return "worker death detected via pipe EOF + exit code", "RetryPolicy relaunched the cell; epoch checkpoint resumed the run"


def _dying_then_ok_worker(spec, checkpoint_path, checkpoint_every, conn) -> None:
    """Dies (hard) after epoch 1 on the first attempt, succeeds after.

    The sentinel file marking "already died once" lives next to the
    checkpoint, so the retry takes the healthy path and must resume
    from the epoch-boundary checkpoint the first attempt left behind.
    """
    import os

    from repro.experiments.parallel import _trial_worker

    sentinel = Path(str(checkpoint_path) + ".died")
    if checkpoint_path is not None and not sentinel.exists():
        sentinel.touch()
        plan = FaultPlan().add(
            "train.epoch", kind="call", at=(1,),
            action=lambda _context: os._exit(17),
        )
        with activate(plan):
            _trial_worker(spec, checkpoint_path, checkpoint_every, conn)
        return
    _trial_worker(spec, checkpoint_path, checkpoint_every, conn)


# ----------------------------------------------------------------------
# Continual-learning / drift scenarios
# ----------------------------------------------------------------------
@scenario(
    "drift-detector-never-fires",
    "a crashed drift detector degrades to watchdog alarms, not silence",
)
def _drift_detector_never_fires(ctx: ChaosContext) -> tuple[str, str]:
    from repro.online.drift import DriftMonitor, PageHinkley

    monitor = DriftMonitor(detector=PageHinkley(), policy=None)
    rng = ctx.rng(salt=31)
    # Every detector update raises: the monitor must count the errors
    # and keep detecting through the watchdog fallback.
    plan = FaultPlan(seed=ctx.seed).add("drift.detect", kind="raise")
    with activate(plan):
        for _ in range(40):  # in-control regime
            monitor.step(0.2 + 0.02 * float(rng.random()))
        for _ in range(60):  # drifted regime: loss jumps ~7x
            monitor.step(1.5 + 0.05 * float(rng.random()))
    if monitor.detector_errors == 0:
        raise AssertionError("injected detector crashes were not counted")
    if not monitor.alarms:
        raise AssertionError("no alarm raised: the watchdog failed to back "
                             "up the dead detector")
    if any(alarm.source != "watchdog" for alarm in monitor.alarms):
        raise AssertionError(f"unexpected alarm sources: {monitor.alarms!r}")
    return (
        f"primary detector dead (fault at drift.detect, "
        f"{monitor.detector_errors} errors counted)",
        f"watchdog fallback alarmed at example {monitor.alarms[0].index}",
    )


@scenario(
    "drift-adaptation-mid-migration",
    "a poisoned online update during a live rebalance is skipped; "
    "migrated sessions and learner state stay healthy",
)
def _drift_adaptation_mid_migration(ctx: ChaosContext) -> tuple[str, str]:
    import numpy as np

    from repro.cluster import ShardedCluster
    from repro.online import FineTune, OnlineLearner

    model = ctx.model()
    config = TrainConfig(
        learning_rate=1e-2, batch_size=4, seed=ctx.seed,
        replay_buffer=8, online_update_every=0,
    )
    with ShardedCluster(model, n_shards=2, backend="serial") as cluster:
        learner = OnlineLearner(model, config)
        cluster.attach_learner(learner)
        cluster.ingest_many(ctx.feed(6))
        cluster.flush()
        for graph in ctx.dataset(6):
            cluster.observe_example(graph)
        before = set(cluster.live_sessions())

        # Topology change in flight: a shard joins, and the adaptation
        # fires while its sessions are still awaiting migration.  The
        # first update round's gradients are poisoned with NaN.
        cluster.add_shard()
        plan = FaultPlan(seed=ctx.seed).add("online.update", kind="nan", at=(0,))
        with activate(plan):
            FineTune(rounds=3).on_drift(learner, None)
            report = cluster.rebalance()

        if learner.nonfinite_updates != 1:
            raise AssertionError(
                f"poisoned round not skipped: {learner.nonfinite_updates} nonfinite"
            )
        if learner.updates_applied < 1:
            raise AssertionError("no healthy update round stepped")
        for key, value in model.state_dict().items():
            if not np.isfinite(value).all():
                raise AssertionError(f"non-finite weights after adaptation: {key}")
        if report.quarantined or cluster.quarantined:
            raise AssertionError(f"migration quarantined sessions: {report!r}")
        if set(cluster.live_sessions()) != before:
            raise AssertionError("sessions lost across the rebalance")
        for session_id, probability in cluster.predict_many().items():
            if not np.isfinite(probability):
                raise AssertionError(f"non-finite prediction for {session_id!r}")

        # The updated learner state round-trips bit-exactly into a
        # fresh replica (what a restarted destination shard would load).
        snapshot = learner.snapshot()
        replica = OnlineLearner(ctx.model(), config)
        replica.restore(snapshot)
        for key, value in model.state_dict().items():
            if not np.array_equal(value, replica.model.state_dict()[key]):
                raise AssertionError(f"restored weights differ at {key}")
    return (
        "NaN gradients caught by the finite-norm guard mid-migration "
        "(1 update round skipped)",
        f"{report.moved} sessions migrated clean; adapted weights finite and "
        "bit-exact through snapshot/restore",
    )


# ----------------------------------------------------------------------
# Durability / crash-recovery scenarios
# ----------------------------------------------------------------------
def _engines_bitwise_equal(recovered, reference) -> None:
    """Assert two engines hold identical sessions, bit for bit."""
    got, want = set(recovered.live_sessions()), set(reference.live_sessions())
    if got != want:
        raise AssertionError(
            f"session sets differ: missing={sorted(want - got)} "
            f"extra={sorted(got - want)}"
        )
    for session_id in want:
        ours = recovered.snapshot_session(session_id)
        theirs = reference.snapshot_session(session_id)
        for key in theirs:
            if not np.array_equal(ours[key], theirs[key]):
                raise AssertionError(
                    f"session {session_id!r} drifted at array {key!r}"
                )


def _reference_engine(ctx: ChaosContext, events) -> StreamingEngine:
    """A never-crashed engine that applied exactly ``events``."""
    engine = StreamingEngine(ctx.model())
    for event in events:
        engine.ingest(event)
    engine.flush()
    return engine


@scenario(
    "journal-torn-tail",
    "a crash mid-append tears the journal tail; recovery drops exactly "
    "the unfinished record and replays the rest bit-exact",
)
def _journal_torn_tail(ctx: ChaosContext) -> tuple[str, str]:
    from repro.resilience.journal import Journal, list_segments, scan_journal
    from repro.serve.recovery import recover_engine

    feed = ctx.feed(6)
    wal = ctx.workdir / "torn-wal"
    engine = StreamingEngine(ctx.model(), journal=Journal(wal, fsync="off"))
    for event in feed:
        engine.ingest(event)
    engine.flush()
    # The process dies here: no close(), so no fsync ever raised the
    # high-water mark over these records.  Tear the tail: the last
    # record loses its final 5 bytes, exactly what a crash mid-write
    # leaves behind.
    del engine
    tail = list_segments(wal)[-1]
    with open(tail, "r+b") as stream:
        stream.truncate(tail.stat().st_size - 5)
    scan = scan_journal(wal)
    if not scan.torn_tail:
        raise AssertionError("torn tail not classified as torn-tail")
    if scan.last_seq != len(feed) - 1:
        raise AssertionError(
            f"expected last intact seq {len(feed) - 1}, got {scan.last_seq}"
        )
    recovered, report = recover_engine(wal, ctx.model())
    if not report.torn_tail:
        raise AssertionError("recovery report did not flag the torn tail")
    if report.events_replayed != len(feed) - 1:
        raise AssertionError(
            f"replayed {report.events_replayed}, wanted {len(feed) - 1}"
        )
    _engines_bitwise_equal(recovered, _reference_engine(ctx, feed[:-1]))
    return (
        f"CRC scan found the torn tail ({scan.gaps[-1].describe()})",
        f"{report.events_replayed}/{len(feed)} events replayed bit-exact; "
        "only the unfinished record dropped",
    )


@scenario(
    "journal-corrupt-record",
    "a flipped byte mid-segment is quarantined with exact offsets; "
    "replay resynchronises past it instead of misparsing",
)
def _journal_corrupt_record(ctx: ChaosContext) -> tuple[str, str]:
    from repro.resilience.journal import Journal, list_segments, scan_journal
    from repro.serve.recovery import recover_engine

    feed = ctx.feed(6)
    wal = ctx.workdir / "corrupt-wal"
    with Journal(wal, fsync="off") as journal:
        engine = StreamingEngine(ctx.model(), journal=journal)
        for event in feed:
            engine.ingest(event)
        engine.flush()
    # Flip one byte in the middle of the segment — bit rot, not a torn
    # write, so it must be reported as corruption, never as a tail.
    segment = list_segments(wal)[0]
    flip_at = segment.stat().st_size // 2
    with open(segment, "r+b") as stream:
        stream.seek(flip_at)
        byte = stream.read(1)
        stream.seek(flip_at)
        stream.write(bytes([byte[0] ^ 0xFF]))
    scan = scan_journal(wal)
    corrupt = scan.corrupt_gaps()
    if len(corrupt) != 1:
        raise AssertionError(f"expected 1 corrupt gap, got {scan.gaps!r}")
    gap = corrupt[0]
    if not gap.start_offset <= flip_at < gap.end_offset:
        raise AssertionError(
            f"gap [{gap.start_offset}, {gap.end_offset}) misses the "
            f"flipped byte at {flip_at}"
        )
    survivors = [record.seq for record in scan.records]
    if len(survivors) >= len(feed):
        raise AssertionError("corruption cost no records; flip was a no-op")
    recovered, report = recover_engine(wal, ctx.model())
    if not report.gaps or report.torn_tail:
        raise AssertionError(f"misclassified damage: {report.render()}")
    # seq k holds feed[k - 1]: replay exactly the surviving records.
    _engines_bitwise_equal(
        recovered, _reference_engine(ctx, [feed[seq - 1] for seq in survivors])
    )
    return (
        f"CRC quarantined bytes {gap.start_offset}-{gap.end_offset} "
        f"(flip at {flip_at})",
        f"resynchronised on the next magic: {len(survivors)}/{len(feed)} "
        "records replayed bit-exact",
    )


def _journal_kill_worker(wal_dir: str, seed: int, apply_upto: int) -> None:
    """Ingest ``apply_upto`` events, journal one more, die before applying.

    Stands in for a crash in the write-ahead window: the extra record
    reached stable storage (fsync="always") but the engine never saw
    it.  Recovery must surface it — durable means journaled, not
    applied.
    """
    import os

    from repro.resilience.journal import Journal

    ctx = ChaosContext(seed=seed, workdir=Path(wal_dir))
    feed = ctx.feed(6)
    journal = Journal(Path(wal_dir), fsync="always")
    engine = StreamingEngine(ctx.model(), journal=journal)
    for event in feed[:apply_upto]:
        engine.ingest(event)
    journal.append_event(feed[apply_upto])
    os._exit(1)


def _journal_kill_rotation_worker(wal_dir: str, seed: int, apply_upto: int) -> None:
    """Ingest across several tiny segments, then die without closing."""
    import os

    from repro.resilience.journal import Journal

    ctx = ChaosContext(seed=seed, workdir=Path(wal_dir))
    feed = ctx.feed(6)
    journal = Journal(Path(wal_dir), fsync="always", segment_bytes=512)
    engine = StreamingEngine(ctx.model(), journal=journal)
    for event in feed[:apply_upto]:
        engine.ingest(event)
    os._exit(1)


@scenario(
    "journal-kill-recover",
    "a process killed between journal append and apply loses nothing: "
    "recovery replays the journaled-but-unapplied event too",
    quick=False,
)
def _journal_kill_recover(ctx: ChaosContext) -> tuple[str, str]:
    import multiprocessing

    from repro.serve.recovery import recover_engine

    wal = ctx.workdir / "kill-wal"
    apply_upto = 10
    process = multiprocessing.Process(
        target=_journal_kill_worker, args=(str(wal), ctx.seed, apply_upto)
    )
    process.start()
    process.join(timeout=60)
    if process.exitcode != 1:
        raise AssertionError(f"worker exitcode {process.exitcode}, wanted 1")
    feed = ctx.feed(6)
    recovered, report = recover_engine(wal, ctx.model())
    if report.events_replayed != apply_upto + 1:
        raise AssertionError(
            f"replayed {report.events_replayed}, wanted {apply_upto + 1} "
            "(the journaled-but-unapplied event must come back)"
        )
    _engines_bitwise_equal(
        recovered, _reference_engine(ctx, feed[: apply_upto + 1])
    )
    return (
        "SIGKILL-grade death (os._exit) between append and apply",
        f"{apply_upto + 1} events recovered bit-exact, including the one "
        "the engine never applied",
    )


@scenario(
    "journal-kill-mid-rotation",
    "a kill while the journal spans several segments recovers the whole "
    "multi-segment stream bit-exact",
    quick=False,
)
def _journal_kill_mid_rotation(ctx: ChaosContext) -> tuple[str, str]:
    import multiprocessing

    from repro.resilience.journal import list_segments
    from repro.serve.recovery import recover_engine

    wal = ctx.workdir / "rotate-wal"
    apply_upto = 24
    process = multiprocessing.Process(
        target=_journal_kill_rotation_worker, args=(str(wal), ctx.seed, apply_upto)
    )
    process.start()
    process.join(timeout=60)
    if process.exitcode != 1:
        raise AssertionError(f"worker exitcode {process.exitcode}, wanted 1")
    segments = list_segments(wal)
    if len(segments) < 2:
        raise AssertionError(
            f"only {len(segments)} segment(s); rotation never happened"
        )
    feed = ctx.feed(6)
    recovered, report = recover_engine(wal, ctx.model())
    if report.events_replayed != apply_upto:
        raise AssertionError(
            f"replayed {report.events_replayed}, wanted {apply_upto}"
        )
    _engines_bitwise_equal(recovered, _reference_engine(ctx, feed[:apply_upto]))
    return (
        f"kill with {len(segments)} open segments (512-byte rotation)",
        f"{apply_upto} events replayed across segment boundaries bit-exact",
    )
