"""Parallel, fault-tolerant experiment runner with on-disk trial caching.

The paper's evaluation (Tables II/III, Figs. 3-7) is a grid of
``(model, dataset, run-seed)`` trials.  This module runs that grid as a
first-class parallel subsystem instead of one serial in-process loop:

* **Trial cells.**  The unit of work is one :class:`TrialSpec` — one
  seeded repetition of one (model, dataset) pair.  A Table II smoke run
  is ``5 datasets x 14 models x runs`` independent cells.
* **Content-keyed cache.**  Each cell is keyed by a SHA-256 over the
  model name, the dataset spec, the full
  :class:`~repro.training.trainer.TrainConfig` and a code-version tag
  (:data:`CODE_VERSION`, bumped whenever training semantics change).
  Completed cells are stored as JSON under ``results/cache/`` so
  re-running a table only executes the missing cells and a warm re-run
  reproduces the cold run's metrics exactly.
* **Fault isolation.**  Every cell runs in its own worker process; a
  crash, timeout or non-finite training loss marks that cell failed
  with a captured traceback, is retried up to ``retries`` times, and
  never aborts the rest of the sweep.
* **Checkpointed resume.**  Workers write epoch-boundary training
  checkpoints (model + optimiser + RNG state) next to the cache, so an
  interrupted or killed trial resumes at its last completed epoch with
  a bit-for-bit identical trajectory.
* **Per-trial telemetry.**  Each worker trains inside a
  :func:`repro.telemetry.capture` and ships its span tree, loss and
  gradient-norm histograms (and per-op timings under ``--profile``)
  back with the result; the rows are persisted as
  ``<key>.telemetry.jsonl`` next to the cache entry.

``repro bench`` drives this runner from the CLI with live progress
reporting; the pytest benchmarks opt in through
:func:`repro.experiments.runner.set_default_trial_cache`.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import os
import time
import traceback
from collections import deque
from dataclasses import asdict, dataclass, replace
from multiprocessing.connection import wait as connection_wait
from pathlib import Path
from typing import Callable

import numpy as np

from repro import telemetry
from repro.baselines.registry import make_model
from repro.experiments.config import ExperimentConfig, snapshot_size_for
from repro.experiments.runner import dataset_for
from repro.resilience.retry import RetryPolicy
from repro.training.metrics import Metrics, MetricSummary
from repro.training.trainer import (
    TrainConfig,
    evaluate,
    train_model,
    trial_seed,
)

#: Cache-key version tag.  Bump whenever a code change alters what a
#: trial computes (training loop semantics, model construction,
#: dataset generation), so stale cached cells are never reused.
CODE_VERSION = "trial-v5"

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = Path("results") / "cache"


class TrialFailure(RuntimeError):
    """A trial produced an unusable result (e.g. non-finite loss)."""


# ----------------------------------------------------------------------
# Trial cells
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TrialSpec:
    """One (model, dataset, run-seed) cell of an evaluation grid.

    Self-contained and picklable: a worker process can execute it
    without access to the parent's closures, and its field values are
    the content hashed into the cache key.
    """

    model_name: str
    dataset_name: str
    num_graphs: int
    graph_scale: float
    dataset_seed: int
    hidden_size: int
    time_dim: int
    snapshot_size: int
    train_fraction: float
    run_index: int
    train: TrainConfig

    def cell(self) -> str:
        """Human-readable cell label for progress output."""
        return f"{self.dataset_name}/{self.model_name}#run{self.run_index}"


def trial_specs(
    model_name: str, dataset_name: str, config: ExperimentConfig
) -> list[TrialSpec]:
    """The ``config.runs`` trial cells of one (model, dataset) pair.

    Seeds follow the serial protocol of
    :func:`repro.training.trainer.run_trials` exactly, so a parallel
    sweep reproduces the serial runner's numbers.
    """
    base = config.train_config()
    return [
        TrialSpec(
            model_name=model_name,
            dataset_name=dataset_name,
            num_graphs=config.num_graphs,
            graph_scale=config.graph_scale,
            dataset_seed=config.seed,
            hidden_size=config.hidden_size,
            time_dim=config.time_dim,
            snapshot_size=snapshot_size_for(dataset_name),
            train_fraction=config.train_fraction,
            run_index=run,
            train=replace(base, seed=trial_seed(base.seed, run)),
        )
        for run in range(config.runs)
    ]


def trial_cache_key(spec: TrialSpec, version: str = CODE_VERSION) -> str:
    """Content hash identifying one trial cell.

    Hashes the canonical JSON of the full spec (including every
    ``TrainConfig`` field, so newly added hyperparameters invalidate
    old entries conservatively) plus the code-version tag.
    """
    payload = {"version": version, "spec": asdict(spec)}
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TrialOutcome:
    """What one successfully executed trial produced."""

    metrics: Metrics
    losses: tuple[float, ...]
    train_seconds: float
    epochs_run: int
    nonfinite_batches: int

    def to_json(self) -> dict:
        """JSON-serialisable payload for the on-disk cache."""
        payload = asdict(self)
        payload["losses"] = list(self.losses)
        return payload

    @staticmethod
    def from_json(payload: dict) -> "TrialOutcome":
        """Invert :meth:`to_json`."""
        return TrialOutcome(
            metrics=Metrics(**payload["metrics"]),
            losses=tuple(payload["losses"]),
            train_seconds=float(payload["train_seconds"]),
            epochs_run=int(payload["epochs_run"]),
            nonfinite_batches=int(payload["nonfinite_batches"]),
        )


@dataclass
class TrialResult:
    """Terminal state of one cell after a sweep."""

    spec: TrialSpec
    key: str
    status: str  # "completed" | "cached" | "failed"
    outcome: TrialOutcome | None = None
    error: str | None = None
    attempts: int = 0
    #: Scheduler wall-clock spent on this cell across every attempt
    #: (0 for cache hits); surfaced for failed cells by ``repro bench``.
    seconds: float = 0.0
    #: Per-trial telemetry rows (spans / ops / metrics) captured by the
    #: worker; persisted as ``<key>.telemetry.jsonl`` next to the cache
    #: entry.
    telemetry: list[dict] | None = None


# ----------------------------------------------------------------------
# On-disk cache
# ----------------------------------------------------------------------
def _entry_digest(payload: dict) -> str:
    """SHA-256 of a cache entry's canonical JSON (minus its own digest)."""
    body = {key: value for key, value in payload.items() if key != "sha256"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TrialCache:
    """Content-keyed trial store under ``root`` (one JSON file per cell).

    Mid-training checkpoints of in-flight cells live under
    ``root/checkpoints/<key>.npz`` and are deleted when the cell's
    result is published, so the directory's steady state is results
    only.  Writes go through a temp file + atomic rename: a killed
    writer can never publish a torn entry.
    """

    def __init__(self, root: str | Path = DEFAULT_CACHE_DIR):
        self.root = Path(root)

    def path(self, key: str) -> Path:
        """Cache-entry file for ``key``."""
        return self.root / f"{key}.json"

    def quarantine_path(self, key: str) -> Path:
        """Where a corrupt entry for ``key`` is moved for post-mortem."""
        return self.root / "quarantine" / f"{key}.json"

    def checkpoint_path(self, key: str) -> Path:
        """Mid-training checkpoint file for an in-flight ``key``."""
        return self.root / "checkpoints" / f"{key}.npz"

    def telemetry_path(self, key: str) -> Path:
        """Telemetry JSONL persisted next to the cache entry for ``key``."""
        return self.root / f"{key}.telemetry.jsonl"

    def get(self, key: str) -> TrialOutcome | None:
        """Verified cached outcome for ``key``, or None.

        A miss and a *stale* entry (older ``CODE_VERSION``) both return
        None silently.  A *damaged* entry — unparseable JSON, a SHA-256
        digest mismatch, or a payload that no longer deserialises — is
        quarantined: moved to ``root/quarantine/`` for post-mortem,
        counted on the ``resilience/cache_quarantined`` telemetry
        counter, and reported as a miss so the scheduler recomputes the
        cell instead of crashing or trusting corrupt metrics.
        """
        path = self.path(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        try:
            # Decoding inside the guard: corruption can break the UTF-8
            # framing itself (UnicodeDecodeError is a ValueError).
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError(f"entry root is {type(payload).__name__}, not object")
            digest = payload.get("sha256")
            if digest is not None and digest != _entry_digest(payload):
                raise ValueError("sha256 digest mismatch")
            if payload.get("key") != key or payload.get("version") != CODE_VERSION:
                return None  # stale or foreign entry, not corruption
            return TrialOutcome.from_json(payload["outcome"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as error:
            self._quarantine(key, path, error)
            return None

    def _quarantine(self, key: str, path: Path, error: Exception) -> None:
        destination = self.quarantine_path(key)
        destination.parent.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, destination)
        except OSError:  # pragma: no cover - lost the race with another reader
            pass
        telemetry.get_registry().counter(
            "resilience/cache_quarantined", reason=type(error).__name__
        ).inc()

    def put(
        self,
        key: str,
        spec: TrialSpec,
        outcome: TrialOutcome,
        telemetry_rows: list[dict] | None = None,
    ) -> Path:
        """Publish a completed trial and drop its mid-training checkpoint.

        When the trial carried telemetry (spans / op stats / metric
        snapshots), the rows are persisted as ``<key>.telemetry.jsonl``
        alongside the result so a sweep's timing profile survives the
        processes that produced it.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "version": CODE_VERSION,
            "spec": asdict(spec),
            "outcome": outcome.to_json(),
        }
        payload["sha256"] = _entry_digest(payload)
        path = self.path(key)
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temporary.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        os.replace(temporary, path)
        if telemetry_rows:
            lines = "".join(
                json.dumps(row, sort_keys=True) + "\n" for row in telemetry_rows
            )
            telemetry_file = self.telemetry_path(key)
            temporary = telemetry_file.with_name(
                f".{telemetry_file.name}.{os.getpid()}.tmp"
            )
            temporary.write_text(lines, encoding="utf-8")
            os.replace(temporary, telemetry_file)
        checkpoint = self.checkpoint_path(key)
        if checkpoint.exists():
            checkpoint.unlink()
        return path

    def get_telemetry(self, key: str) -> list[dict] | None:
        """Persisted telemetry rows for ``key`` (None when absent/torn)."""
        try:
            text = self.telemetry_path(key).read_text(encoding="utf-8")
            return [json.loads(line) for line in text.splitlines() if line]
        except (OSError, json.JSONDecodeError):
            return None

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json")))

    def clear(self) -> int:
        """Delete every cache entry, telemetry file, checkpoint and
        quarantined entry; returns result entries removed."""
        removed = 0
        for entry in self.root.glob("*.json"):
            entry.unlink()
            removed += 1
        for telemetry_file in self.root.glob("*.telemetry.jsonl"):
            telemetry_file.unlink()
        for checkpoint in self.root.glob("checkpoints/*.npz"):
            checkpoint.unlink()
        for quarantined in self.root.glob("quarantine/*.json"):
            quarantined.unlink()
        return removed


# ----------------------------------------------------------------------
# Trial execution
# ----------------------------------------------------------------------
def run_trial(
    spec: TrialSpec,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
) -> TrialOutcome:
    """Execute one trial cell in the current process.

    Builds the dataset (per-process memoised), trains one seeded model
    instance — resuming from ``checkpoint_path`` if it exists — and
    evaluates on the chronological test split.  A non-finite training
    loss raises :class:`TrialFailure` so the scheduler records the cell
    as failed instead of caching poisoned metrics.
    """
    outcome, _ = run_trial_instrumented(
        spec, checkpoint_path, checkpoint_every, collect=False
    )
    return outcome


def run_trial_instrumented(
    spec: TrialSpec,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 1,
    collect: bool = True,
    profile: bool = False,
) -> tuple[TrialOutcome, list[dict] | None]:
    """:func:`run_trial` plus a telemetry capture of the run.

    With ``collect``, training executes inside
    :func:`repro.telemetry.capture`, so the returned rows hold the
    trial's span tree and loss/grad-norm histograms (plus per-op
    timings when ``profile`` is set).  The capture swaps the
    process-global tracer/registry for the duration, so in-process
    callers' telemetry state is untouched.
    """
    dataset = dataset_for(
        spec.dataset_name, spec.num_graphs, spec.dataset_seed, spec.graph_scale
    )
    train_data, test_data = dataset.split(spec.train_fraction)
    model = make_model(
        spec.model_name,
        in_features=dataset.feature_dim,
        seed=spec.train.seed,
        hidden_size=spec.hidden_size,
        time_dim=spec.time_dim,
        snapshot_size=spec.snapshot_size,
    )

    def execute() -> "TrainResult":
        return train_model(
            model,
            train_data,
            spec.train,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
        )

    rows: list[dict] | None = None
    if collect:
        with telemetry.capture(profile=profile) as cap:
            result = execute()
        rows = [{"kind": "trial", "cell": spec.cell(),
                 "train_seconds": result.train_seconds,
                 "epochs_run": result.epochs_run}]
        rows += cap.to_rows()
    else:
        result = execute()
    if any(not math.isfinite(loss) for loss in result.losses):
        raise TrialFailure(
            f"non-finite training loss in {spec.cell()}: losses={result.losses}"
        )
    metrics = evaluate(model, test_data)
    outcome = TrialOutcome(
        metrics=metrics,
        losses=tuple(result.losses),
        train_seconds=result.train_seconds,
        epochs_run=result.epochs_run,
        nonfinite_batches=result.nonfinite_batches,
    )
    return outcome, rows


def _trial_worker(spec, checkpoint_path, checkpoint_every, conn) -> None:
    """Worker-process entry point: run one trial, ship the result back."""
    try:
        outcome, rows = run_trial_instrumented(spec, checkpoint_path, checkpoint_every)
        conn.send(("ok", outcome.to_json(), rows))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _profiled_trial_worker(spec, checkpoint_path, checkpoint_every, conn) -> None:
    """Like :func:`_trial_worker` with op-level profiling enabled."""
    try:
        outcome, rows = run_trial_instrumented(
            spec, checkpoint_path, checkpoint_every, profile=True
        )
        conn.send(("ok", outcome.to_json(), rows))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Scheduler
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepProgress:
    """One progress event of a sweep (for live CLI reporting)."""

    total: int
    completed: int
    cached: int
    failed: int
    running: int
    eta_seconds: float | None
    message: str

    @property
    def done(self) -> int:
        """Cells in a terminal state."""
        return self.completed + self.cached + self.failed


@dataclass
class _ActiveTrial:
    """Scheduler bookkeeping for one in-flight worker."""

    process: multiprocessing.process.BaseProcess
    conn: object
    spec: TrialSpec
    key: str
    attempt: int
    deadline: float | None
    index: int = 0
    #: When this attempt's worker was launched (monotonic clock).
    launched: float = 0.0
    #: Wall-clock burned by this cell's *previous* attempts.
    prior_seconds: float = 0.0

    def elapsed(self) -> float:
        """Total scheduler wall-clock spent on this cell so far."""
        return self.prior_seconds + (time.monotonic() - self.launched)


class ParallelRunner:
    """Process-pool scheduler over trial cells with retries and caching.

    Parameters
    ----------
    cache:
        Optional :class:`TrialCache`; hits skip execution entirely and
        misses publish their outcome (plus mid-training checkpoints for
        crash/kill resume).
    jobs:
        Maximum concurrent worker processes (default: CPU count).
    retries:
        Extra attempts per cell after the first failure; a cell is
        reported failed only when all ``retries + 1`` attempts are
        exhausted.  Shorthand for ``retry=RetryPolicy(attempts=retries
        + 1)``.
    retry:
        Full :class:`~repro.resilience.RetryPolicy` (attempts, backoff
        + seeded jitter between attempts, per-cell wall-clock
        deadline).  Overrides ``retries`` when given; a retried cell is
        re-queued with a ``ready_at`` timestamp so backoff never blocks
        other cells.
    trial_timeout:
        Per-attempt wall-clock budget in seconds; an expired worker is
        terminated (its checkpoint survives) and the attempt counts as
        a failure.  ``None`` disables the timeout.
    checkpoint_every:
        Epoch interval between worker training checkpoints.
    progress:
        Optional callback receiving :class:`SweepProgress` events.
    start_method:
        ``multiprocessing`` start method override (tests use the
        platform default; ``"spawn"`` works but pays import cost).
    profile:
        Run workers with the op-level autograd profiler enabled, so
        each trial's telemetry includes per-op timings (``repro bench
        --profile``).  Ignored when a custom ``worker`` is supplied.
    """

    def __init__(
        self,
        cache: TrialCache | None = None,
        jobs: int | None = None,
        retries: int = 1,
        retry: RetryPolicy | None = None,
        trial_timeout: float | None = None,
        checkpoint_every: int = 1,
        progress: Callable[[SweepProgress], None] | None = None,
        start_method: str | None = None,
        worker: Callable = _trial_worker,
        profile: bool = False,
    ):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if trial_timeout is not None and trial_timeout <= 0:
            raise ValueError(f"trial_timeout must be positive, got {trial_timeout}")
        if profile and worker is _trial_worker:
            worker = _profiled_trial_worker
        self.cache = cache
        self.jobs = max(1, jobs if jobs is not None else os.cpu_count() or 1)
        self.retry = retry if retry is not None else RetryPolicy(attempts=retries + 1)
        self.retries = self.retry.retries
        self.trial_timeout = trial_timeout
        self.checkpoint_every = checkpoint_every
        self.progress = progress
        self.worker = worker
        self._ctx = multiprocessing.get_context(start_method)
        self._retry_rng = np.random.default_rng(0)

    # -- public API ----------------------------------------------------
    def run(self, specs: list[TrialSpec]) -> list[TrialResult]:
        """Execute every cell; returns results in spec order.

        Never raises on worker failure: each cell ends ``completed``,
        ``cached`` or ``failed`` (with its captured traceback).
        """
        total = len(specs)
        results: list[TrialResult | None] = [None] * total
        stats = {"completed": 0, "cached": 0, "failed": 0}
        started = time.monotonic()
        # Pending entries are (index, spec, key, attempt, prior_seconds,
        # ready_at): retried cells carry a backoff timestamp and are
        # skipped (rotated past) until it passes.
        pending: deque[tuple[int, TrialSpec, str, int, float, float]] = deque()
        for index, spec in enumerate(specs):
            key = trial_cache_key(spec)
            outcome = self.cache.get(key) if self.cache is not None else None
            if outcome is not None:
                results[index] = TrialResult(
                    spec=spec, key=key, status="cached", outcome=outcome,
                    telemetry=self.cache.get_telemetry(key),
                )
                stats["cached"] += 1
                self._report(stats, total, 0, started, f"{spec.cell()} cached")
            else:
                pending.append((index, spec, key, 1, 0.0, 0.0))
        active: dict[int, _ActiveTrial] = {}
        try:
            while pending or active:
                now = time.monotonic()
                considered = 0
                while pending and len(active) < self.jobs and considered < len(pending):
                    if pending[0][5] > now:
                        pending.rotate(-1)
                        considered += 1
                        continue
                    self._launch(*pending.popleft()[:5], active=active)
                    self._report(
                        stats, total, len(active), started,
                        f"{len(active)} worker(s) running",
                    )
                if not active and pending:
                    # Everything left is backing off; nap until the
                    # earliest becomes ready (bounded to stay responsive).
                    earliest = min(entry[5] for entry in pending)
                    time.sleep(max(0.0, min(earliest - time.monotonic(), 0.05)))
                    continue
                self._poll(active, pending, results, stats, total, started)
        finally:
            for trial in active.values():
                if trial.process.is_alive():
                    trial.process.terminate()
                trial.process.join()
        return [result for result in results if result is not None]

    # -- internals -----------------------------------------------------
    def _launch(
        self, index: int, spec: TrialSpec, key: str, attempt: int,
        prior_seconds: float, active: dict[int, _ActiveTrial],
    ) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=False)
        checkpoint = None
        if self.cache is not None:
            checkpoint = self.cache.checkpoint_path(key)
            checkpoint.parent.mkdir(parents=True, exist_ok=True)
        process = self._ctx.Process(
            target=self.worker,
            args=(spec, checkpoint, self.checkpoint_every, child_conn),
            daemon=True,
        )
        process.start()
        child_conn.close()
        deadline = (
            time.monotonic() + self.trial_timeout
            if self.trial_timeout is not None
            else None
        )
        active[index] = _ActiveTrial(
            process=process, conn=parent_conn, spec=spec, key=key,
            attempt=attempt, deadline=deadline, index=index,
            launched=time.monotonic(), prior_seconds=prior_seconds,
        )

    def _poll(self, active, pending, results, stats, total, started) -> None:
        """Wait briefly for any worker to finish, die, or time out."""
        if not active:
            return
        connection_wait([trial.conn for trial in active.values()], timeout=0.05)
        now = time.monotonic()
        for index, trial in list(active.items()):
            message = None
            received = False
            if trial.conn.poll():
                try:
                    message = trial.conn.recv()
                    received = True
                except EOFError:
                    received = False
            elif trial.process.is_alive():
                if trial.deadline is not None and now > trial.deadline:
                    trial.process.terminate()
                    trial.process.join()
                    trial.conn.close()
                    del active[index]
                    self._attempt_failed(
                        trial, pending, results, stats, total, started,
                        f"trial timed out after {self.trial_timeout:.0f}s "
                        f"(attempt {trial.attempt})",
                    )
                continue
            # Worker exited: either it sent a result or it crashed.
            trial.process.join()
            trial.conn.close()
            del active[index]
            if received and message[0] == "ok":
                outcome = TrialOutcome.from_json(message[1])
                # Custom workers may send bare ("ok", outcome) pairs;
                # the stock workers append their telemetry rows.
                rows = message[2] if len(message) > 2 else None
                if self.cache is not None:
                    self.cache.put(trial.key, trial.spec, outcome,
                                   telemetry_rows=rows)
                results[index] = TrialResult(
                    spec=trial.spec, key=trial.key, status="completed",
                    outcome=outcome, attempts=trial.attempt,
                    seconds=trial.elapsed(), telemetry=rows,
                )
                stats["completed"] += 1
                self._report(
                    stats, total, len(active), started,
                    f"{trial.spec.cell()} completed",
                )
            elif received:
                self._attempt_failed(
                    trial, pending, results, stats, total, started, message[1]
                )
            else:
                self._attempt_failed(
                    trial, pending, results, stats, total, started,
                    f"worker crashed with exit code {trial.process.exitcode} "
                    f"(attempt {trial.attempt})",
                )

    def _attempt_failed(
        self, trial, pending, results, stats, total, started, error: str
    ) -> None:
        elapsed = trial.elapsed()
        delay = self.retry.delay_for(trial.attempt + 1, rng=self._retry_rng)
        budget_left = (
            self.retry.deadline is None or elapsed + delay < self.retry.deadline
        )
        if trial.attempt <= self.retries and budget_left:
            pending.append((trial.index, trial.spec, trial.key,
                            trial.attempt + 1, elapsed,
                            time.monotonic() + delay))
            self._report(
                stats, total, 0, started,
                f"{trial.spec.cell()} failed (attempt {trial.attempt}), retrying",
            )
        else:
            results[trial.index] = TrialResult(
                spec=trial.spec, key=trial.key, status="failed",
                error=error, attempts=trial.attempt, seconds=trial.elapsed(),
            )
            stats["failed"] += 1
            self._report(
                stats, total, 0, started,
                f"{trial.spec.cell()} failed permanently "
                f"after {trial.attempt} attempt(s)",
            )

    def _report(self, stats, total, running, started, message: str) -> None:
        if self.progress is None:
            return
        executed = stats["completed"] + stats["failed"]
        remaining = total - executed - stats["cached"]
        if remaining <= 0:
            eta = 0.0
        elif executed:
            eta = (time.monotonic() - started) / executed * remaining
        else:
            eta = None
        self.progress(
            SweepProgress(
                total=total,
                completed=stats["completed"],
                cached=stats["cached"],
                failed=stats["failed"],
                running=running,
                eta_seconds=eta,
                message=message,
            )
        )


# ----------------------------------------------------------------------
# Grid-level entry points
# ----------------------------------------------------------------------
def run_cell_cached(
    model_name: str,
    dataset_name: str,
    config: ExperimentConfig,
    cache: TrialCache,
) -> MetricSummary:
    """Cache-aware, in-process version of one evaluation-grid cell.

    Used by :func:`repro.experiments.runner.evaluate_model` (and hence
    the pytest benchmarks) so repeated table regenerations only execute
    the runs missing from the cache.  Cold results are identical to the
    serial runner's; warm results are the cold results replayed.
    """
    metrics: list[Metrics] = []
    for spec in trial_specs(model_name, dataset_name, config):
        key = trial_cache_key(spec)
        outcome = cache.get(key)
        if outcome is None:
            outcome, rows = run_trial_instrumented(
                spec, checkpoint_path=cache.checkpoint_path(key)
            )
            cache.put(key, spec, outcome, telemetry_rows=rows)
        metrics.append(outcome.metrics)
    return MetricSummary.from_runs(metrics)


def summarize_trials(
    results: list[TrialResult],
) -> dict[str, dict[str, MetricSummary]]:
    """Fold trial results back into the ``{dataset: {model: summary}}``
    shape the table formatters expect.

    A cell appears only if at least one of its runs succeeded; fully
    failed cells are reported separately via :func:`failed_trials`.
    """
    grouped: dict[tuple[str, str], list[Metrics]] = {}
    order: list[tuple[str, str]] = []
    for result in results:
        cell = (result.spec.dataset_name, result.spec.model_name)
        if cell not in grouped:
            grouped[cell] = []
            order.append(cell)
        if result.outcome is not None:
            grouped[cell].append(result.outcome.metrics)
    table: dict[str, dict[str, MetricSummary]] = {}
    for dataset, model in order:
        runs = grouped[(dataset, model)]
        if runs:
            table.setdefault(dataset, {})[model] = MetricSummary.from_runs(runs)
    return table


def failed_trials(results: list[TrialResult]) -> list[TrialResult]:
    """The cells that exhausted every retry."""
    return [result for result in results if result.status == "failed"]


def run_table_parallel(
    config: ExperimentConfig,
    datasets: tuple[str, ...],
    models: tuple[str, ...],
    cache: TrialCache | None = None,
    jobs: int | None = None,
    retries: int = 1,
    retry: RetryPolicy | None = None,
    trial_timeout: float | None = None,
    progress: Callable[[SweepProgress], None] | None = None,
    profile: bool = False,
) -> tuple[dict[str, dict[str, MetricSummary]], list[TrialResult]]:
    """Evaluate a (datasets x models) grid through the parallel runner.

    Returns ``(table, trial_results)`` where ``table`` feeds
    ``format_table2``/``format_table3`` directly and ``trial_results``
    carries per-cell status (cached / completed / failed + traceback)
    plus each trial's telemetry rows.  With ``profile``, workers also
    attribute time per tensor op (see ``repro bench --profile``).
    """
    specs = [
        spec
        for dataset in datasets
        for model in models
        for spec in trial_specs(model, dataset, config)
    ]
    runner = ParallelRunner(
        cache=cache,
        jobs=jobs,
        retries=retries,
        retry=retry,
        trial_timeout=trial_timeout,
        progress=progress,
        profile=profile,
    )
    results = runner.run(specs)
    return summarize_trials(results), results


def aggregate_telemetry(
    results: list[TrialResult], kind: str = "op"
) -> list[list[dict]]:
    """Collect each trial's telemetry rows of one ``kind``.

    Feed the ``"op"`` groups to
    :func:`repro.telemetry.aggregate_op_rows` for a sweep-wide top-ops
    table.
    """
    groups = []
    for result in results:
        if result.telemetry:
            rows = [row for row in result.telemetry if row.get("kind") == kind]
            if rows:
                groups.append(rows)
    return groups
