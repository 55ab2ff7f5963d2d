"""Tests for the parallel, fault-tolerant trial runner and its cache."""

import dataclasses
import json
import os
import time

import pytest

from repro.experiments import ExperimentConfig
from repro.experiments.parallel import (
    CODE_VERSION,
    ParallelRunner,
    TrialCache,
    TrialOutcome,
    TrialResult,
    TrialSpec,
    failed_trials,
    run_cell_cached,
    run_table_parallel,
    summarize_trials,
    trial_cache_key,
    trial_specs,
)
from repro.experiments.runner import evaluate_model, set_default_trial_cache
from repro.training import TrainConfig
from repro.training.metrics import Metrics

TINY = ExperimentConfig(
    num_graphs=8,
    graph_scale=0.1,
    epochs=1,
    runs=2,
    hidden_size=4,
    time_dim=2,
    batch_size=4,
)


def make_spec(run_index=0, **overrides):
    fields = dict(
        model_name="GCN",
        dataset_name="HDFS",
        num_graphs=8,
        graph_scale=0.1,
        dataset_seed=0,
        hidden_size=4,
        time_dim=2,
        snapshot_size=5,
        train_fraction=0.3,
        run_index=run_index,
        train=TrainConfig(epochs=1, seed=1000 * run_index),
    )
    fields.update(overrides)
    return TrialSpec(**fields)


def make_outcome(f1=0.5):
    return TrialOutcome(
        metrics=Metrics(precision=0.5, recall=0.5, f1=f1),
        losses=(0.7, 0.6),
        train_seconds=0.01,
        epochs_run=2,
        nonfinite_batches=0,
    )


# Fake workers must be module-level so every multiprocessing start
# method can resolve them.  Signature matches _trial_worker.
def _ok_worker(spec, checkpoint_path, checkpoint_every, conn):
    conn.send(("ok", make_outcome(f1=float(spec.run_index)).to_json()))
    conn.close()


def _error_worker(spec, checkpoint_path, checkpoint_every, conn):
    conn.send(("error", "Traceback (most recent call last):\nRuntimeError: boom"))
    conn.close()


def _crash_worker(spec, checkpoint_path, checkpoint_every, conn):
    os._exit(7)


def _sleep_worker(spec, checkpoint_path, checkpoint_every, conn):
    time.sleep(30)


def _flaky_worker(spec, checkpoint_path, checkpoint_every, conn):
    # The spec's dataset_name doubles as a sentinel path: the first
    # attempt crashes, every later one succeeds.
    sentinel = spec.dataset_name
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        os._exit(3)
    conn.send(("ok", make_outcome().to_json()))
    conn.close()


def _telemetry_worker(spec, checkpoint_path, checkpoint_every, conn):
    rows = [{"kind": "span", "span": "train", "count": 1,
             "total_seconds": 0.25, "self_seconds": 0.0}]
    conn.send(("ok", make_outcome(f1=float(spec.run_index)).to_json(), rows))
    conn.close()


class TestCacheKey:
    def test_deterministic(self):
        assert trial_cache_key(make_spec()) == trial_cache_key(make_spec())
        assert len(trial_cache_key(make_spec())) == 64

    @pytest.mark.parametrize(
        "overrides",
        [
            {"model_name": "GAT"},
            {"dataset_name": "Gowalla"},
            {"num_graphs": 9},
            {"graph_scale": 0.2},
            {"dataset_seed": 1},
            {"hidden_size": 8},
            {"run_index": 1},
            {"train": TrainConfig(epochs=2, seed=0)},
            {"train": TrainConfig(epochs=1, seed=1)},
        ],
    )
    def test_sensitive_to_every_field(self, overrides):
        assert trial_cache_key(make_spec(**overrides)) != trial_cache_key(make_spec())

    def test_sensitive_to_code_version(self):
        spec = make_spec()
        assert trial_cache_key(spec, version="trial-v999") != trial_cache_key(spec)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"train": TrainConfig(epochs=1, seed=0, replay_buffer=512)},
            {"train": TrainConfig(epochs=1, seed=0, online_update_every=4)},
        ],
    )
    def test_sensitive_to_online_fields(self, overrides):
        # The online-learning TrainConfig fields must invalidate cached
        # trials, same as every offline hyperparameter.
        assert trial_cache_key(make_spec(**overrides)) != trial_cache_key(make_spec())

    def test_version_bumped_for_online_fields(self):
        # TrainConfig grew replay_buffer / online_update_every in
        # trial-v3; keys minted under the previous version must miss.
        spec = make_spec()
        assert trial_cache_key(spec, version="trial-v2") != trial_cache_key(spec)

    def test_version_bumped_for_batched_baselines(self):
        # trial-v5 trains the baselines with one batched backward per
        # minibatch (it was per-graph accumulation) and TrainConfig lost
        # its megabatch field; cells minted under trial-v4 must not be
        # reused.
        assert CODE_VERSION == "trial-v5"
        spec = make_spec()
        assert trial_cache_key(spec, version="trial-v4") != trial_cache_key(spec)

    def test_specs_follow_serial_seed_protocol(self):
        specs = trial_specs("GCN", "HDFS", TINY)
        assert [spec.run_index for spec in specs] == [0, 1]
        assert [spec.train.seed for spec in specs] == [TINY.seed, TINY.seed + 1000]
        # Non-seed hyperparameters identical across runs.
        base = TINY.train_config()
        for spec in specs:
            assert dataclasses.replace(spec.train, seed=base.seed) == base


@pytest.mark.cache
class TestTrialCache:
    def test_miss_returns_none(self, tmp_path):
        assert TrialCache(tmp_path).get("0" * 64) is None

    def test_round_trip(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        outcome = make_outcome(f1=0.875)
        cache.put(key, spec, outcome)
        assert cache.get(key) == outcome
        assert len(cache) == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        key = trial_cache_key(make_spec())
        cache.path(key).parent.mkdir(parents=True, exist_ok=True)
        cache.path(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_stale_code_version_is_a_miss(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        cache.put(key, spec, make_outcome())
        payload = json.loads(cache.path(key).read_text(encoding="utf-8"))
        assert payload["version"] == CODE_VERSION
        payload["version"] = "trial-v0"
        cache.path(key).write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None

    def test_put_is_atomic_and_drops_checkpoint(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        checkpoint = cache.checkpoint_path(key)
        checkpoint.parent.mkdir(parents=True, exist_ok=True)
        checkpoint.write_bytes(b"mid-training state")
        cache.put(key, spec, make_outcome())
        assert not checkpoint.exists()
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name not in (f"{key}.json", "checkpoints")]
        assert leftovers == []

    def test_clear(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        cache.put(key, spec, make_outcome())
        other = cache.checkpoint_path("f" * 64)
        other.parent.mkdir(parents=True, exist_ok=True)
        other.write_bytes(b"x")
        assert cache.clear() == 1
        assert len(cache) == 0
        assert not other.exists()


@pytest.mark.cache
class TestParallelRunner:
    def test_results_in_spec_order(self, tmp_path):
        specs = [make_spec(run_index=i) for i in range(4)]
        runner = ParallelRunner(cache=TrialCache(tmp_path), jobs=2, worker=_ok_worker)
        results = runner.run(specs)
        assert [r.spec.run_index for r in results] == [0, 1, 2, 3]
        assert all(r.status == "completed" and r.attempts == 1 for r in results)
        assert [r.outcome.metrics.f1 for r in results] == [0.0, 1.0, 2.0, 3.0]

    def test_warm_run_executes_nothing(self, tmp_path):
        specs = [make_spec(run_index=i) for i in range(3)]
        cache = TrialCache(tmp_path)
        cold = ParallelRunner(cache=cache, jobs=2, worker=_ok_worker).run(specs)
        # Second pass uses a crashing worker: it can only succeed if every
        # cell is served from the cache without launching any process.
        warm = ParallelRunner(
            cache=cache, jobs=2, retries=0, worker=_crash_worker
        ).run(specs)
        assert all(r.status == "cached" for r in warm)
        assert [r.outcome for r in warm] == [r.outcome for r in cold]

    def test_crash_is_retried_then_reported(self, tmp_path):
        runner = ParallelRunner(
            cache=TrialCache(tmp_path), jobs=1, retries=1, worker=_crash_worker
        )
        (result,) = runner.run([make_spec()])
        assert result.status == "failed"
        assert result.attempts == 2
        assert "exit code 7" in result.error

    def test_worker_traceback_captured(self):
        (result,) = ParallelRunner(retries=0, worker=_error_worker).run([make_spec()])
        assert result.status == "failed"
        assert "RuntimeError: boom" in result.error

    def test_timeout_terminates_worker(self):
        runner = ParallelRunner(retries=0, trial_timeout=0.5, worker=_sleep_worker)
        start = time.monotonic()
        (result,) = runner.run([make_spec()])
        assert time.monotonic() - start < 10.0
        assert result.status == "failed"
        assert "timed out" in result.error

    def test_flaky_worker_succeeds_on_retry(self, tmp_path):
        spec = make_spec(dataset_name=str(tmp_path / "sentinel"))
        runner = ParallelRunner(retries=1, worker=_flaky_worker)
        (result,) = runner.run([spec])
        assert result.status == "completed"
        assert result.attempts == 2

    def test_failure_does_not_abort_sweep(self, tmp_path):
        # One permanently crashing cell amid healthy ones: the healthy
        # ones must still complete.  The flaky worker's sentinel path is
        # unwritable for the first spec (missing directory -> it dies on
        # every attempt) and pre-created for the others.
        crash = make_spec(run_index=0,
                          dataset_name=str(tmp_path / "missing" / "nope"))
        sentinel = tmp_path / "sentinel"
        sentinel.write_text("")
        healthy = [make_spec(run_index=i, dataset_name=str(sentinel))
                   for i in range(1, 3)]
        runner = ParallelRunner(retries=0, jobs=2, worker=_flaky_worker)
        results = runner.run([crash] + healthy)
        assert results[0].status == "failed"
        assert [r.status for r in results[1:]] == ["completed", "completed"]

    def test_invalid_parameters(self):
        with pytest.raises(ValueError, match="retries"):
            ParallelRunner(retries=-1)
        with pytest.raises(ValueError, match="trial_timeout"):
            ParallelRunner(trial_timeout=0.0)

    def test_progress_events(self, tmp_path):
        events = []
        runner = ParallelRunner(
            cache=TrialCache(tmp_path), jobs=2,
            progress=events.append, worker=_ok_worker,
        )
        specs = [make_spec(run_index=i) for i in range(3)]
        runner.run(specs)
        assert events
        final = events[-1]
        assert final.done == final.total == 3
        assert final.completed == 3
        assert final.eta_seconds == 0.0
        # Warm rerun reports cache hits.
        events.clear()
        runner.run(specs)
        assert events[-1].cached == 3


@pytest.mark.telemetry
class TestTrialTelemetry:
    def test_cache_round_trips_telemetry_rows(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        rows = [{"kind": "op", "op": "matmul", "calls": 3, "total_seconds": 0.1}]
        cache.put(key, spec, make_outcome(), telemetry_rows=rows)
        assert cache.telemetry_path(key).exists()
        assert cache.get_telemetry(key) == rows

    def test_no_rows_means_no_sidecar(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        cache.put(key, spec, make_outcome())
        assert not cache.telemetry_path(key).exists()
        assert cache.get_telemetry(key) is None

    def test_clear_removes_sidecars(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        cache.put(key, spec, make_outcome(), telemetry_rows=[{"kind": "trial"}])
        cache.clear()
        assert not cache.telemetry_path(key).exists()

    @pytest.mark.cache
    def test_runner_persists_and_reserves_telemetry(self, tmp_path):
        specs = [make_spec(run_index=i) for i in range(2)]
        cache = TrialCache(tmp_path)
        runner = ParallelRunner(cache=cache, jobs=2, worker=_telemetry_worker)
        cold = runner.run(specs)
        assert all(r.telemetry is not None for r in cold)
        assert all(r.seconds > 0 for r in cold)
        for result in cold:
            assert cache.get_telemetry(result.key) == result.telemetry
        # A warm rerun serves the persisted rows alongside the outcome.
        warm = ParallelRunner(cache=cache, jobs=2, worker=_crash_worker).run(specs)
        assert all(r.status == "cached" for r in warm)
        assert [r.telemetry for r in warm] == [r.telemetry for r in cold]

    @pytest.mark.cache
    def test_run_trial_instrumented_collects_spans(self):
        from repro.experiments.parallel import run_trial_instrumented

        outcome, rows = run_trial_instrumented(make_spec())
        assert outcome.epochs_run == 1
        assert rows is not None
        header = rows[0]
        assert header["kind"] == "trial" and header["cell"] == "HDFS/GCN#run0"
        spans = {row["span"] for row in rows if row["kind"] == "span"}
        assert {"train", "train/epoch", "train/epoch/megabatch"} <= spans
        metrics = {row["metric"] for row in rows if row["kind"] == "metric"}
        assert "train/batch_loss" in metrics

    def test_aggregate_telemetry_filters_by_kind(self):
        from repro.experiments.parallel import aggregate_telemetry

        results = [
            TrialResult(spec=make_spec(), key="a", status="completed",
                        outcome=make_outcome(), attempts=1,
                        telemetry=[{"kind": "op", "op": "add"},
                                   {"kind": "span", "span": "train"}]),
            TrialResult(spec=make_spec(run_index=1), key="b", status="failed",
                        error="boom", attempts=1),
        ]
        groups = aggregate_telemetry(results, kind="op")
        assert groups == [[{"kind": "op", "op": "add"}]]


class TestSummaries:
    def test_summarize_skips_fully_failed_cells(self):
        ok = make_spec(run_index=0)
        bad = make_spec(model_name="GAT", run_index=0)
        results = [
            TrialResult(spec=ok, key="k1", status="completed",
                        outcome=make_outcome(f1=0.75), attempts=1),
            TrialResult(spec=bad, key="k2", status="failed",
                        error="boom", attempts=2),
        ]
        table = summarize_trials(results)
        assert table["HDFS"]["GCN"].f1_mean == pytest.approx(0.75)
        assert "GAT" not in table["HDFS"]
        assert [r.spec.model_name for r in failed_trials(results)] == ["GAT"]

    def test_partial_cell_uses_surviving_runs(self):
        results = [
            TrialResult(spec=make_spec(run_index=0), key="a", status="completed",
                        outcome=make_outcome(f1=0.5), attempts=1),
            TrialResult(spec=make_spec(run_index=1), key="b", status="failed",
                        error="boom", attempts=2),
        ]
        table = summarize_trials(results)
        assert table["HDFS"]["GCN"].runs == 1


@pytest.mark.cache
class TestGridEquivalence:
    """Real (tiny) trials: the acceptance criteria of the runner."""

    def test_cold_warm_and_serial_agree(self, tmp_path):
        cache = TrialCache(tmp_path)
        datasets, models = ("HDFS",), ("GCN",)
        cold_table, cold = run_table_parallel(
            TINY, datasets, models, cache=cache, jobs=2
        )
        assert [r.status for r in cold] == ["completed"] * 2
        warm_table, warm = run_table_parallel(
            TINY, datasets, models, cache=cache, jobs=2
        )
        assert [r.status for r in warm] == ["cached"] * 2
        assert warm_table == cold_table
        # The serial runner (no cache) computes the same cell.
        serial = evaluate_model("GCN", "HDFS", TINY, cache=None)
        assert serial == cold_table["HDFS"]["GCN"]

    def test_run_cell_cached_matches_serial(self, tmp_path):
        cache = TrialCache(tmp_path)
        cold = run_cell_cached("GCN", "HDFS", TINY, cache)
        assert len(cache) == TINY.runs
        warm = run_cell_cached("GCN", "HDFS", TINY, cache)
        assert warm == cold
        assert cold == evaluate_model("GCN", "HDFS", TINY, cache=None)

    def test_default_cache_wiring(self, tmp_path):
        cache = TrialCache(tmp_path)
        previous = set_default_trial_cache(cache)
        try:
            summary = evaluate_model("GCN", "HDFS", TINY)
            assert len(cache) == TINY.runs
            assert summary == evaluate_model("GCN", "HDFS", TINY)
        finally:
            restored = set_default_trial_cache(previous)
            assert restored is cache


def _kill_then_resume_worker(spec, checkpoint_path, checkpoint_every, conn):
    # First attempt: die mid-trial, right after the epoch-0 checkpoint
    # lands (the train.epoch hook fires once per epoch; ``at=(1,)``
    # targets the start of epoch 1).  Every later attempt runs the real
    # worker, which resumes from the checkpoint.
    from repro.experiments.parallel import _trial_worker
    from repro.resilience.faults import FaultPlan, activate

    sentinel = str(checkpoint_path) + ".died"
    if not os.path.exists(sentinel):
        with open(sentinel, "w"):
            pass
        plan = FaultPlan().add(
            "train.epoch", kind="call", at=(1,),
            action=lambda _context: os._exit(17),
        )
        with activate(plan):
            _trial_worker(spec, checkpoint_path, checkpoint_every, conn)
    else:
        _trial_worker(spec, checkpoint_path, checkpoint_every, conn)


@pytest.mark.cache
class TestCacheQuarantine:
    def _seeded_entry(self, tmp_path):
        cache = TrialCache(tmp_path)
        spec = make_spec()
        key = trial_cache_key(spec)
        cache.put(key, spec, make_outcome(f1=0.625))
        return cache, spec, key

    def test_corrupt_bytes_quarantined_not_crash(self, tmp_path):
        from repro.resilience.faults import corrupt_file

        cache, _, key = self._seeded_entry(tmp_path)
        corrupt_file(cache.path(key), rng=0, nbytes=8)
        assert cache.get(key) is None
        assert not cache.path(key).exists()
        assert cache.quarantine_path(key).exists()

    def test_invalid_utf8_quarantined(self, tmp_path):
        cache, _, key = self._seeded_entry(tmp_path)
        cache.path(key).write_bytes(b"\xff\xfe broken")
        assert cache.get(key) is None
        assert cache.quarantine_path(key).exists()

    def test_valid_json_tamper_fails_digest(self, tmp_path):
        # An attacker-style edit that keeps the JSON well-formed: the
        # per-entry SHA-256 still catches it.
        cache, _, key = self._seeded_entry(tmp_path)
        payload = json.loads(cache.path(key).read_text(encoding="utf-8"))
        payload["outcome"]["metrics"]["f1"] = 0.999
        cache.path(key).write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.quarantine_path(key).exists()

    def test_stale_version_is_silent_not_quarantined(self, tmp_path):
        cache, _, key = self._seeded_entry(tmp_path)
        payload = json.loads(cache.path(key).read_text(encoding="utf-8"))
        payload["version"] = "trial-v0"
        del payload["sha256"]  # pre-digest entries have no checksum
        cache.path(key).write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None
        assert cache.path(key).exists()  # left in place: stale, not damaged
        assert not cache.quarantine_path(key).exists()

    def test_quarantine_counts_on_telemetry(self, tmp_path):
        from repro import telemetry

        def quarantined_total():
            return sum(
                instrument.value
                for name, _labels, kind, instrument in telemetry.get_registry()
                if name == "resilience/cache_quarantined" and kind == "counter"
            )

        cache, _, key = self._seeded_entry(tmp_path)
        cache.path(key).write_text("{torn", encoding="utf-8")
        before = quarantined_total()
        cache.get(key)
        assert quarantined_total() == before + 1

    def test_recompute_republishes_after_quarantine(self, tmp_path):
        cache, spec, key = self._seeded_entry(tmp_path)
        cache.path(key).write_text("garbage", encoding="utf-8")
        runner = ParallelRunner(cache=cache, jobs=1, worker=_ok_worker)
        (result,) = runner.run([spec])
        assert result.status == "completed"  # recomputed, not "cached"
        assert cache.get(key) == result.outcome  # fresh verified entry
        assert cache.quarantine_path(key).exists()  # post-mortem kept

    def test_clear_removes_quarantine(self, tmp_path):
        cache, _, key = self._seeded_entry(tmp_path)
        cache.path(key).write_text("garbage", encoding="utf-8")
        cache.get(key)
        cache.clear()
        assert not cache.quarantine_path(key).exists()


class TestRetryPolicyWiring:
    def test_retries_count_builds_default_policy(self):
        from repro.resilience.retry import RetryPolicy

        runner = ParallelRunner(retries=2)
        assert isinstance(runner.retry, RetryPolicy)
        assert runner.retry.attempts == 3
        assert runner.retries == 2

    def test_explicit_policy_wins(self):
        from repro.resilience.retry import RetryPolicy

        policy = RetryPolicy(attempts=4, backoff=0.0)
        runner = ParallelRunner(retries=0, retry=policy)
        assert runner.retry is policy
        assert runner.retries == 3

    def test_flaky_trial_recovers_under_policy(self, tmp_path):
        from repro.resilience.retry import RetryPolicy

        spec = make_spec(dataset_name=str(tmp_path / "sentinel"))
        runner = ParallelRunner(
            retry=RetryPolicy(attempts=2, backoff=0.01), worker=_flaky_worker
        )
        (result,) = runner.run([spec])
        assert result.status == "completed"
        assert result.attempts == 2

    def test_retry_deadline_caps_attempts(self):
        from repro.resilience.retry import RetryPolicy

        # The first failure schedules a 10s backoff, which cannot fit a
        # 0.5s deadline: the runner must give up after one attempt
        # instead of sleeping past the budget.
        runner = ParallelRunner(
            retry=RetryPolicy(attempts=3, backoff=10.0, deadline=0.5),
            worker=_crash_worker,
        )
        start = time.monotonic()
        (result,) = runner.run([make_spec()])
        assert time.monotonic() - start < 5.0
        assert result.status == "failed"
        assert result.attempts == 1


@pytest.mark.cache
class TestMidEpochKillResume:
    def test_killed_trial_resumes_bit_exact(self, tmp_path):
        from repro.experiments.parallel import run_trial

        spec = make_spec(train=TrainConfig(epochs=2, seed=0))
        reference = run_trial(spec)  # healthy, uninterrupted run
        assert reference.epochs_run == 2

        cache = TrialCache(tmp_path)
        runner = ParallelRunner(
            cache=cache, jobs=1, retries=1, checkpoint_every=1,
            worker=_kill_then_resume_worker,
        )
        (result,) = runner.run([spec])
        assert result.status == "completed"
        assert result.attempts == 2  # died once, resumed once
        resumed = result.outcome
        # Bit-exact: the checkpoint restores parameters, optimizer state
        # and RNG streams, so losses and metrics match to the last bit.
        assert resumed.losses == reference.losses
        assert resumed.metrics == reference.metrics
        assert resumed.epochs_run == 2

    def test_checkpoint_dropped_after_publish(self, tmp_path):
        spec = make_spec(train=TrainConfig(epochs=2, seed=0))
        cache = TrialCache(tmp_path)
        key = trial_cache_key(spec)
        runner = ParallelRunner(
            cache=cache, jobs=1, retries=1, checkpoint_every=1,
            worker=_kill_then_resume_worker,
        )
        runner.run([spec])
        assert not cache.checkpoint_path(key).exists()
        assert cache.get(key) is not None
