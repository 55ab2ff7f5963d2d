"""Crash recovery: checkpoint + journal replay == never crashed.

The equivalence suite is the durability contract: an engine rebuilt by
:func:`repro.serve.recover_engine` after a kill at any point — mid
ingest, mid learner update, mid segment rotation — must be bit-for-bit
identical to one that never crashed, session arrays, learner weights,
Adam moments, replay buffer and RNG included.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import GraphDataset
from repro.online import OnlineLearner
from repro.resilience import (
    CheckpointVersionError,
    IntegrityError,
    Journal,
    list_segments,
    scan_segment,
    truncate_file,
)
from repro.serve import StreamingEngine, dataset_to_feed, recover_engine
from repro.training import TrainConfig
from tests.serve.conftest import make_model, random_ctdn

pytestmark = pytest.mark.recovery


def make_feed(n_graphs: int = 8, seed: int = 3):
    graphs = [
        random_ctdn(seed * 100 + i, label=i % 2, graph_id=f"r{i}")
        for i in range(n_graphs)
    ]
    dataset = GraphDataset(graphs, name="recovery")
    return dataset_to_feed(
        dataset, rng=np.random.default_rng(seed), spread=2.0
    )


def make_learner(model) -> OnlineLearner:
    return OnlineLearner(
        model, TrainConfig(online_update_every=2, replay_buffer=8, seed=7)
    )


def assert_engines_equal(recovered: StreamingEngine, reference: StreamingEngine):
    assert set(recovered.live_sessions()) == set(reference.live_sessions())
    for session_id in reference.live_sessions():
        ours = recovered.snapshot_session(session_id)
        theirs = reference.snapshot_session(session_id)
        assert set(ours) == set(theirs)
        for key in theirs:
            assert ours[key].dtype == theirs[key].dtype
            assert ours[key].tobytes() == theirs[key].tobytes(), (
                f"session {session_id!r} array {key!r} drifted"
            )
    assert recovered.metrics.events_applied == reference.metrics.events_applied


def assert_learners_equal(recovered: OnlineLearner, reference: OnlineLearner):
    ours, theirs = recovered.snapshot(), reference.snapshot()
    assert set(ours) == set(theirs)
    for key in theirs:
        assert ours[key].dtype == theirs[key].dtype, key
        assert ours[key].tobytes() == theirs[key].tobytes(), (
            f"learner state {key!r} drifted"
        )


class TestCrashEquivalence:
    @pytest.mark.parametrize("kill_at", [1, 9, 23])
    def test_kill_mid_ingest(self, tmp_path, kill_at):
        feed = make_feed()
        assert kill_at <= len(feed)
        journal = Journal(tmp_path / "wal", fsync="always")
        crashed = StreamingEngine(make_model(), journal=journal)
        for event in feed[:kill_at]:
            crashed.ingest(event)
        # Crash: the process dies here — no close, no checkpoint.
        del crashed

        recovered, report = recover_engine(tmp_path / "wal", make_model())
        assert report.checkpoint is None
        assert report.events_replayed == kill_at
        assert not report.gaps

        reference = StreamingEngine(make_model())
        for event in feed[:kill_at]:
            reference.ingest(event)
        assert_engines_equal(recovered, reference)

    def test_checkpoint_anchors_the_replay(self, tmp_path):
        feed = make_feed()
        journal = Journal(tmp_path / "wal", fsync="always")
        crashed = StreamingEngine(make_model(), journal=journal)
        for event in feed[:10]:
            crashed.ingest(event)
        crashed.checkpoint(tmp_path / "state.npz")
        for event in feed[10:]:
            crashed.ingest(event)
        del crashed

        recovered, report = recover_engine(
            tmp_path / "wal", make_model(), checkpoint=tmp_path / "state.npz"
        )
        assert report.checkpoint == tmp_path / "state.npz"
        assert report.anchor_seq == 10
        assert report.events_replayed == len(feed) - 10
        assert report.last_seq == len(feed)

        reference = StreamingEngine(make_model())
        for event in feed:
            reference.ingest(event)
        assert_engines_equal(recovered, reference)

    def test_kill_mid_learner_update(self, tmp_path):
        feed = make_feed()
        observed = [
            random_ctdn(9000 + i, label=i % 2, graph_id=f"o{i}") for i in range(5)
        ]
        journal = Journal(tmp_path / "wal", fsync="always")
        crashed_model = make_model()
        crashed = StreamingEngine(crashed_model, journal=journal)
        crashed.attach_learner(make_learner(crashed_model))
        for event in feed[:12]:
            crashed.ingest(event)
        for graph in observed[:4]:
            crashed.observe_example(graph)
        # The write-ahead window: the fifth observation reaches the
        # journal, then the process dies before the learner sees it.
        journal.append_observation(observed[4])
        del crashed

        recovery_model = make_model()
        recovered, report = recover_engine(
            tmp_path / "wal", recovery_model, learner=make_learner(recovery_model)
        )
        assert report.events_replayed == 12
        assert report.observations_replayed == 5

        reference_model = make_model()
        reference = StreamingEngine(reference_model)
        reference.attach_learner(make_learner(reference_model))
        for event in feed[:12]:
            reference.ingest(event)
        for graph in observed:
            reference.observe_example(graph)

        assert_engines_equal(recovered, reference)
        assert_learners_equal(recovered.learner, reference.learner)
        # The weights the two engines now serve are identical too.
        for key, value in reference_model.state_dict().items():
            assert np.array_equal(value, recovery_model.state_dict()[key])

    def test_kill_mid_rotation(self, tmp_path):
        feed = make_feed(n_graphs=10)
        journal = Journal(tmp_path / "wal", fsync="always", segment_bytes=512)
        crashed = StreamingEngine(make_model(), journal=journal)
        for event in feed:
            crashed.ingest(event)
        del crashed
        assert len(list_segments(tmp_path / "wal")) >= 2

        recovered, report = recover_engine(tmp_path / "wal", make_model())
        assert report.events_replayed == len(feed)

        reference = StreamingEngine(make_model())
        for event in feed:
            reference.ingest(event)
        assert_engines_equal(recovered, reference)

    def test_recovered_engine_resumes_journaling(self, tmp_path):
        feed = make_feed()
        with Journal(tmp_path / "wal", fsync="off") as journal:
            crashed = StreamingEngine(make_model(), journal=journal)
            for event in feed[:6]:
                crashed.ingest(event)
        del crashed

        # Attach-after-replay: the new writer continues the sequence
        # without re-appending what it just replayed.
        resumed = Journal(tmp_path / "wal", fsync="off")
        recovered, report = recover_engine(
            tmp_path / "wal", make_model(), journal=resumed
        )
        assert recovered.journal is resumed
        assert recovered.journal_anchor == 6
        assert resumed.last_seq == 6
        recovered.ingest(feed[6])
        assert resumed.last_seq == 7
        resumed.close()


class TestVersionGate:
    def test_version_mismatch_is_a_typed_error(self, tmp_path, monkeypatch):
        engine = StreamingEngine(make_model())
        for event in make_feed()[:5]:
            engine.ingest(event)
        path = engine.checkpoint(tmp_path / "state.npz")

        import repro.experiments.parallel as parallel

        stored = parallel.CODE_VERSION
        monkeypatch.setattr(parallel, "CODE_VERSION", "trial-v999")
        with pytest.raises(CheckpointVersionError) as excinfo:
            StreamingEngine.restore(path, make_model())
        assert excinfo.value.stored == stored
        assert excinfo.value.current == "trial-v999"
        assert "allow_version_mismatch" in str(excinfo.value)
        assert isinstance(excinfo.value, IntegrityError)

    def test_mismatch_can_be_overridden(self, tmp_path, monkeypatch):
        engine = StreamingEngine(make_model())
        for event in make_feed()[:5]:
            engine.ingest(event)
        path = engine.checkpoint(tmp_path / "state.npz")

        import repro.experiments.parallel as parallel

        monkeypatch.setattr(parallel, "CODE_VERSION", "trial-v999")
        restored = StreamingEngine.restore(
            path, make_model(), allow_version_mismatch=True
        )
        assert_engines_equal(restored, engine)

    def test_matching_version_restores_silently(self, tmp_path):
        engine = StreamingEngine(make_model())
        for event in make_feed()[:5]:
            engine.ingest(event)
        path = engine.checkpoint(tmp_path / "state.npz")
        assert_engines_equal(StreamingEngine.restore(path, make_model()), engine)


class TestDamageReports:
    def _journaled_run(self, tmp_path, n_events: int, **journal_kwargs):
        """Journal ``n_events``, then crash: without ``close()`` nothing
        raises the high-water mark over the tail, so tearing it is the
        benign crash artifact rather than loss of durable records."""
        feed = make_feed(n_graphs=10)[:n_events]
        journal = Journal(tmp_path / "wal", fsync="off", **journal_kwargs)
        engine = StreamingEngine(make_model(), journal=journal)
        for event in feed:
            engine.ingest(event)
        return feed

    def test_torn_tail_reported_and_dropped(self, tmp_path):
        feed = self._journaled_run(tmp_path, 12)
        truncate_file(list_segments(tmp_path / "wal")[-1], keep_fraction=0.97)
        recovered, report = recover_engine(tmp_path / "wal", make_model())
        assert report.torn_tail
        assert report.events_replayed == len(feed) - 1
        assert "torn tail         : yes (dropped)" in report.render()

        reference = StreamingEngine(make_model())
        for event in feed[:-1]:
            reference.ingest(event)
        assert_engines_equal(recovered, reference)

    def test_corrupt_record_quarantined_with_offsets(self, tmp_path):
        self._journaled_run(tmp_path, 20, segment_bytes=512)
        segment = list_segments(tmp_path / "wal")[0]
        flip_at = segment.stat().st_size // 2
        data = bytearray(segment.read_bytes())
        data[flip_at] ^= 0xFF
        segment.write_bytes(bytes(data))

        recovered, report = recover_engine(tmp_path / "wal", make_model())
        corrupt = [gap for gap in report.gaps if gap.reason != "torn-tail"]
        assert corrupt
        gap = corrupt[0]
        assert gap.start_offset <= flip_at < gap.end_offset
        rendered = report.render()
        assert "quarantined" in rendered
        assert f"bytes {gap.start_offset}-{gap.end_offset}" in rendered

    def test_strict_mode_escalates_corruption(self, tmp_path):
        self._journaled_run(tmp_path, 20, segment_bytes=512)
        segment = list_segments(tmp_path / "wal")[0]
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF
        segment.write_bytes(bytes(data))
        with pytest.raises(IntegrityError, match="strict mode"):
            recover_engine(tmp_path / "wal", make_model(), strict=True)
        # A torn tail alone never trips strict mode.
        other = tmp_path / "other"
        self._journaled_run(other, 56)
        truncate_file(list_segments(other / "wal")[-1], keep_fraction=0.97)
        _, report = recover_engine(other / "wal", make_model(), strict=True)
        assert report.torn_tail

    def test_tail_lost_below_the_high_water_mark_is_reported(self, tmp_path):
        feed = make_feed(n_graphs=10)[:12]
        with Journal(tmp_path / "wal", fsync="off") as journal:
            engine = StreamingEngine(make_model(), journal=journal)
            for event in feed:
                engine.ingest(event)
        # Cut the last two (durable) records exactly on a record
        # boundary: what survives parses cleanly.
        segment = list_segments(tmp_path / "wal")[-1]
        records, _ = scan_segment(segment)
        with open(segment, "r+b") as stream:
            stream.truncate(records[-2].offset)
        _, report = recover_engine(tmp_path / "wal", make_model())
        assert report.events_replayed == len(feed) - 2
        assert not report.torn_tail
        (gap,) = report.gaps
        assert gap.reason == "truncated-tail"
        assert "seqs lost: 11..12" in report.render()
        with pytest.raises(IntegrityError, match="truncated-tail"):
            recover_engine(tmp_path / "wal", make_model(), strict=True)

    def test_observations_without_learner_is_actionable(self, tmp_path):
        with Journal(tmp_path / "wal", fsync="off") as journal:
            journal.append_observation(random_ctdn(5, label=1))
        with pytest.raises(ValueError, match="pass learner="):
            recover_engine(tmp_path / "wal", make_model())


class TestEngineJournalPlumbing:
    def test_ingest_journals_before_apply(self, tmp_path):
        from repro.resilience import FaultInjected, FaultPlan, activate

        feed = make_feed()
        with Journal(tmp_path / "wal", fsync="off") as journal:
            engine = StreamingEngine(make_model(), journal=journal)
            engine.ingest(feed[0])
            # Poison the router apply: the journal record must already
            # be on disk when the apply blows up (write-ahead order).
            plan = FaultPlan(seed=0).add("journal.write", kind="raise", at=(0,))
            with activate(plan):
                with pytest.raises(FaultInjected):
                    engine.ingest(feed[1])
            assert journal.last_seq == 1  # poisoned append never happened
            engine.ingest(feed[1])
            assert journal.last_seq == 2

    def test_dropped_events_replay_identically(self, tmp_path):
        # Out-of-order drops happen AFTER journaling (the journal is
        # write-ahead of the router), so replay re-drops them through
        # the same deterministic path and stays bit-exact.
        import dataclasses

        feed = make_feed()
        stale = dataclasses.replace(feed[0], time=feed[0].time - 1000.0)
        sequence = feed[:8] + [stale] + feed[8:12]
        with Journal(tmp_path / "wal", fsync="off") as journal:
            crashed = StreamingEngine(
                make_model(), journal=journal, out_of_order="drop"
            )
            for event in sequence:
                crashed.ingest(event)
            assert journal.last_seq == len(sequence)  # stale one journaled too
            assert crashed.metrics.events_dropped == 1
        del crashed

        recovered, report = recover_engine(
            tmp_path / "wal", make_model(),
            engine_config={"out_of_order": "drop"},
        )
        assert report.events_replayed == len(sequence)
        assert recovered.metrics.events_dropped == 1

        reference = StreamingEngine(make_model(), out_of_order="drop")
        for event in sequence:
            reference.ingest(event)
        assert_engines_equal(recovered, reference)

    def test_checkpoint_records_journal_anchor(self, tmp_path):
        feed = make_feed()
        with Journal(tmp_path / "wal", fsync="off") as journal:
            engine = StreamingEngine(make_model(), journal=journal)
            for event in feed[:7]:
                engine.ingest(event)
            path = engine.checkpoint(tmp_path / "state.npz")
        restored = StreamingEngine.restore(path, make_model())
        assert restored.journal_anchor == 7
