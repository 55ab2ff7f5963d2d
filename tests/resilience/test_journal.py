"""The write-ahead journal: codecs, writer mechanics, damage recovery.

The damage suite is property-based: under seeded ``corrupt_file`` /
``truncate_file`` attacks, every record the scanner returns must be
bit-identical to one that was written (a damaged record is *detected*,
never misparsed), and every sequence number that went missing must be
covered by a reported gap with exact byte offsets.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import CTDN
from repro.resilience import (
    FSYNC_POLICIES,
    IntegrityError,
    Journal,
    corrupt_file,
    list_segments,
    read_records,
    scan_journal,
    scan_segment,
    truncate_file,
)
from repro.resilience.journal import (
    RECORD_EVENT,
    RECORD_OBSERVATION,
    _pack_payload,
    decode_event,
    decode_observation,
    encode_event,
    encode_observation,
    read_high_water,
)
from repro.serve import StreamEvent


def make_event(i: int, features: bool = True) -> StreamEvent:
    rng = np.random.default_rng(1000 + i)
    return StreamEvent(
        session_id=f"s{i % 4}",
        src=i % 5,
        dst=(i + 1) % 5,
        time=float(i) + 0.25,
        node_features=(
            {i % 5: rng.normal(size=3), (i + 1) % 5: rng.normal(size=3)}
            if features
            else None
        ),
        label=i % 2 if i % 3 == 0 else None,
    )


def make_graph(i: int) -> CTDN:
    rng = np.random.default_rng(2000 + i)
    n = 4 + i % 3
    edges = []
    t = 0.0
    for _ in range(5 + i % 4):
        t += float(rng.exponential(1.0)) + 0.05
        u, v = rng.choice(n, size=2, replace=False)
        edges.append((int(u), int(v), t))
    return CTDN(n, rng.normal(size=(n, 3)), edges, label=i % 2, graph_id=f"g{i}")


def events_equal(a: StreamEvent, b: StreamEvent) -> bool:
    if (a.session_id, a.src, a.dst, a.time, a.label) != (
        b.session_id, b.src, b.dst, b.time, b.label,
    ):
        return False
    fa, fb = a.node_features or {}, b.node_features or {}
    if set(fa) != set(fb):
        return False
    return all(
        np.asarray(fa[k]).tobytes() == np.asarray(fb[k]).tobytes() for k in fa
    )


class TestCodecs:
    def test_event_round_trip_bit_exact(self):
        for i in range(8):
            event = make_event(i, features=i % 2 == 0)
            back = decode_event(encode_event(event))
            assert events_equal(event, back)

    def test_event_encoder_matches_the_generic_route(self):
        # The hand-formatted hot-path header must stay byte-identical to
        # json.dumps of the same header, or old journals stop decoding
        # to the same events.
        odd = [
            StreamEvent('s"\\é\t', 1, 2, 3.5, {np.int64(2): [1.0, 2.0], 1: np.float32(3.0)}, 1),
            StreamEvent("a b\x7f", 0, 1, 1e300, {0: np.arange(6.0).reshape(2, 3)[:, 1]}),
            StreamEvent("plain", np.int64(4), 2, -0.0, {3: np.arange(3, dtype=">i4")}, 0),
        ]
        for event in [make_event(i, features=i % 2 == 0) for i in range(8)] + odd:
            features = event.node_features or {}
            nodes = sorted(features)
            header = {
                "sid": str(event.session_id), "src": int(event.src), "dst": int(event.dst),
                "time": float(event.time), "label": event.label,
                "nodes": [int(n) for n in nodes],
            }
            generic = _pack_payload(RECORD_EVENT, header, [np.asarray(features[n]) for n in nodes])
            assert encode_event(event) == generic

    def test_observation_round_trip_bit_exact(self):
        for i in range(6):
            graph = make_graph(i)
            back = decode_observation(encode_observation(graph))
            assert back.num_nodes == graph.num_nodes
            assert back.label == graph.label
            assert back.graph_id == graph.graph_id
            assert back.features.tobytes() == graph.features.tobytes()
            for name in ("src", "dst", "t"):
                ours = getattr(back.store, name)
                theirs = getattr(graph.store, name)
                assert ours.dtype == theirs.dtype
                assert ours.tobytes() == theirs.tobytes()

    def test_kind_mismatch_raises(self):
        with pytest.raises(IntegrityError, match="expected an event"):
            decode_event(encode_observation(make_graph(0)))
        with pytest.raises(IntegrityError, match="expected an observation"):
            decode_observation(encode_event(make_event(0)))


class TestWriter:
    def test_sequence_and_last_seq(self, tmp_path):
        with Journal(tmp_path / "wal") as journal:
            assert journal.last_seq == 0
            seqs = [journal.append_event(make_event(i)) for i in range(5)]
            assert seqs == [1, 2, 3, 4, 5]
            assert journal.last_seq == 5

    def test_rotation_names_segments_by_first_seq(self, tmp_path):
        with Journal(tmp_path / "wal", segment_bytes=256) as journal:
            for i in range(12):
                journal.append_event(make_event(i))
        segments = list_segments(tmp_path / "wal")
        assert len(segments) > 1
        firsts = [int(path.stem[len("segment-"):]) for path in segments]
        assert firsts[0] == 1
        assert firsts == sorted(firsts)
        # Every name matches the first record actually inside.
        for path, first in zip(segments, firsts):
            records, gaps = scan_segment(path)
            assert not gaps
            assert records[0].seq == first

    def test_reopen_continues_sequence(self, tmp_path):
        with Journal(tmp_path / "wal") as journal:
            for i in range(4):
                journal.append_event(make_event(i))
        with Journal(tmp_path / "wal") as journal:
            assert journal.last_seq == 4
            assert journal.append_event(make_event(4)) == 5
        scan = scan_journal(tmp_path / "wal")
        assert [record.seq for record in scan.records] == [1, 2, 3, 4, 5]
        assert not scan.gaps

    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    def test_append_reaches_the_os_before_returning(self, tmp_path, policy):
        # Write-ahead: a record must be visible to another reader (and so
        # survive the writer's process dying) before the event is applied.
        journal = Journal(tmp_path / "wal", fsync=policy)
        for i in range(3):
            seq = journal.append_event(make_event(i))
            assert [r.seq for r in scan_journal(tmp_path / "wal").records][-1] == seq
        journal.close()

    def test_reopen_truncates_torn_tail_and_appends_clean(self, tmp_path):
        crash_after_appends(tmp_path / "wal", 6)
        tail = list_segments(tmp_path / "wal")[-1]
        truncate_file(tail, keep_fraction=0.95)
        with Journal(tmp_path / "wal") as journal:
            resumed_at = journal.last_seq
            assert resumed_at == 5  # the torn 6th record is gone
            journal.append_event(make_event(6))
        scan = scan_journal(tmp_path / "wal")
        assert not scan.gaps  # reopen removed the damage
        assert [r.seq for r in scan.records] == [1, 2, 3, 4, 5, 6]

    def test_reopen_never_reuses_a_seq_below_the_high_water_mark(self, tmp_path):
        # Closed cleanly: all six records were acknowledged durable, so
        # the torn 6th is damage, not a crash artifact.
        with Journal(tmp_path / "wal", fsync="off") as journal:
            for i in range(6):
                journal.append_event(make_event(i))
        assert read_high_water(tmp_path / "wal") == 6
        truncate_file(list_segments(tmp_path / "wal")[-1], keep_fraction=0.95)
        with Journal(tmp_path / "wal") as journal:
            assert journal.last_seq == 6
            assert journal.append_event(make_event(6)) == 7
        scan = scan_journal(tmp_path / "wal")
        assert [r.seq for r in scan.records] == [1, 2, 3, 4, 5, 7]
        (gap,) = scan.corrupt_gaps()
        assert (gap.last_seq_before, gap.first_seq_after) == (5, 7)

    def test_high_water_mark_written_at_fsync_rotation_and_close(self, tmp_path):
        wal = tmp_path / "wal"
        journal = Journal(wal, fsync="off", segment_bytes=256)
        journal.append_event(make_event(0))
        assert read_high_water(wal) == 0  # off: no per-append mark write
        while len(list_segments(wal)) == 1:
            journal.append_event(make_event(journal.last_seq))
        rotated_at = journal.last_seq - 1
        assert read_high_water(wal) == rotated_at
        journal.append_event(make_event(99))
        journal.sync()
        assert read_high_water(wal) == journal.last_seq
        journal.append_event(make_event(100))
        journal.close()
        assert read_high_water(wal) == journal.last_seq
        # interval: the mark moves with the fsync clock, not per append.
        with Journal(tmp_path / "slow", fsync_interval=3600.0) as journal:
            for i in range(4):
                journal.append_event(make_event(i))
            assert read_high_water(tmp_path / "slow") == 0

    def test_truncate_upto_drops_covered_segments_only(self, tmp_path):
        with Journal(tmp_path / "wal", segment_bytes=256) as journal:
            for i in range(12):
                journal.append_event(make_event(i))
            segments = list_segments(tmp_path / "wal")
            assert len(segments) >= 3
            # Anchor mid-journal: only fully-covered segments may go.
            anchor = int(segments[-2].stem[len("segment-"):]) - 1
            removed = journal.truncate_upto(anchor)
            assert removed == len(segments) - 2
            survivors = list_segments(tmp_path / "wal")
            assert survivors == segments[-2:]
            # Everything after the anchor is still replayable.
            scan = scan_journal(tmp_path / "wal", after_seq=anchor)
            assert [r.seq for r in scan.records] == list(range(anchor + 1, 13))
            # The active segment is never deleted, whatever the anchor.
            journal.truncate_upto(journal.last_seq)
            assert list_segments(tmp_path / "wal")[-1] == segments[-1]

    def test_fsync_policy_validation(self, tmp_path):
        assert set(FSYNC_POLICIES) == {"always", "interval", "off"}
        with pytest.raises(ValueError, match="fsync must be one of"):
            Journal(tmp_path / "wal", fsync="sometimes")
        with pytest.raises(ValueError, match="segment_bytes"):
            Journal(tmp_path / "wal", segment_bytes=0)
        with pytest.raises(ValueError, match="fsync_interval"):
            Journal(tmp_path / "wal", fsync_interval=0.0)

    def test_append_after_close_raises(self, tmp_path):
        journal = Journal(tmp_path / "wal")
        journal.close()
        journal.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            journal.append_event(make_event(0))

    def test_metrics_counted(self, tmp_path):
        from repro.telemetry import MetricRegistry

        registry = MetricRegistry()
        with Journal(
            tmp_path / "wal", fsync="always", segment_bytes=256,
            registry=registry,
        ) as journal:
            for i in range(8):
                journal.append_event(make_event(i))
            journal.truncate_upto(journal.last_seq)
        assert registry.counter("journal/appends").value == 8
        assert registry.counter("journal/fsyncs").value >= 8
        assert registry.counter("journal/rotations").value >= 1
        assert registry.counter("journal/segments_removed").value >= 1
        assert registry.counter("journal/bytes_written").value > 0

    def test_read_records_fires_replay_injection_point(self, tmp_path):
        from repro.resilience import FaultInjected, FaultPlan, activate

        with Journal(tmp_path / "wal") as journal:
            for i in range(3):
                journal.append_event(make_event(i))
        plan = FaultPlan(seed=0).add("journal.replay", kind="raise", at=(1,))
        with activate(plan):
            with pytest.raises(FaultInjected):
                list(read_records(tmp_path / "wal"))


def crash_after_appends(directory, n_events: int) -> None:
    """Append ``n_events`` and die without ``close()`` (a process crash).

    Under ``fsync="off"`` with no rotation nothing raises the
    high-water mark, so the records sit above it, as a crash leaves them.
    """
    journal = Journal(directory, fsync="off")
    for i in range(n_events):
        journal.append_event(make_event(i))
    del journal


def write_reference_journal(directory, n_events: int = 14):
    """A multi-segment journal of known records; payload bytes by seq."""
    with Journal(directory, fsync="off", segment_bytes=1024) as journal:
        for i in range(n_events):
            if i % 4 == 3:
                journal.append_observation(make_graph(i))
            else:
                journal.append_event(make_event(i))
    scan = scan_journal(directory)
    assert not scan.gaps
    return {record.seq: record.payload for record in scan.records}


class TestDamageProperties:
    """Seeded corruption never leads to a misparse, only reported gaps."""

    def _check_damaged(self, directory, pristine: dict[int, bytes]) -> None:
        scan = scan_journal(directory)
        seen = set()
        for record in scan.records:
            # Survived records decode to exactly what was written —
            # a CRC pass on modified bytes would be a misparse.
            assert record.payload == pristine[record.seq]
            assert record.kind in (RECORD_EVENT, RECORD_OBSERVATION)
            record.decode()
            seen.add(record.seq)
        missing = set(pristine) - seen
        # Every missing seq is accounted for by a gap interval.
        covered = set()
        for gap in scan.gaps:
            assert 0 <= gap.start_offset < gap.end_offset
            assert gap.describe()
            low = (gap.last_seq_before or 0) + 1
            high = (
                gap.first_seq_after - 1
                if gap.first_seq_after is not None
                else max(pristine)
            )
            covered.update(range(low, high + 1))
        assert missing <= covered, (
            f"seqs {sorted(missing - covered)} lost without a reported gap"
        )

    def test_byte_corruption_never_misparses(self, tmp_path):
        from hypothesis import HealthCheck, given, settings, strategies as st

        base = tmp_path / "wal"
        pristine = write_reference_journal(base)
        segments = list_segments(base)
        originals = {path: path.read_bytes() for path in segments}

        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
               nbytes=st.integers(min_value=1, max_value=24),
               which=st.integers(min_value=0, max_value=len(segments) - 1))
        def check(seed, nbytes, which):
            for path, data in originals.items():
                path.write_bytes(data)
            target = segments[which]
            offsets = corrupt_file(target, rng=seed, nbytes=nbytes)
            assert offsets
            self._check_damaged(base, pristine)

        check()

    def test_truncation_never_misparses(self, tmp_path):
        from hypothesis import HealthCheck, example, given, settings, strategies as st

        base = tmp_path / "wal"
        pristine = write_reference_journal(base)
        segments = list_segments(base)
        originals = {path: path.read_bytes() for path in segments}

        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(fraction=st.floats(min_value=0.0, max_value=1.0,
                                  exclude_max=True),
               which=st.integers(min_value=0, max_value=len(segments) - 1))
        # The final segment cut exactly on a record boundary: every
        # surviving record verifies, only the high-water mark shows the
        # lost tail.
        @example(fraction=0.642578125, which=2)
        @example(fraction=0.8203125, which=2)
        def check(fraction, which):
            for path, data in originals.items():
                path.write_bytes(data)
            truncate_file(segments[which], keep_fraction=fraction)
            self._check_damaged(base, pristine)

        check()

    def test_combined_damage_never_misparses(self, tmp_path):
        from hypothesis import HealthCheck, given, settings, strategies as st

        base = tmp_path / "wal"
        pristine = write_reference_journal(base)
        segments = list_segments(base)
        originals = {path: path.read_bytes() for path in segments}

        @settings(max_examples=40, deadline=None,
                  suppress_health_check=[HealthCheck.function_scoped_fixture])
        @given(seed=st.integers(min_value=0, max_value=2**31 - 1),
               fraction=st.floats(min_value=0.3, max_value=1.0,
                                  exclude_max=True))
        def check(seed, fraction):
            for path, data in originals.items():
                path.write_bytes(data)
            corrupt_file(segments[0], rng=seed, nbytes=8)
            truncate_file(segments[-1], keep_fraction=fraction)
            self._check_damaged(base, pristine)

        check()


class TestGapClassification:
    def test_torn_tail_only_in_final_segment(self, tmp_path):
        with Journal(tmp_path / "wal", fsync="off", segment_bytes=512) as journal:
            for i in range(12):
                journal.append_event(make_event(i))
        segments = list_segments(tmp_path / "wal")
        assert len(segments) >= 2
        # Chop the END of a NON-final segment: the writer had already
        # rotated past it, so this is corruption, not a torn tail.
        truncate_file(segments[0], keep_fraction=0.9)
        scan = scan_journal(tmp_path / "wal")
        assert not scan.torn_tail
        (gap,) = scan.corrupt_gaps()
        assert gap.reason == "corrupt-record"
        assert gap.first_seq_after is not None  # resync bound from the next segment

    def test_final_segment_cut_on_a_record_boundary_is_reported(self, tmp_path):
        write_reference_journal(tmp_path / "wal")
        segments = list_segments(tmp_path / "wal")
        truncate_file(segments[-1], keep_fraction=0.642578125)
        scan = scan_journal(tmp_path / "wal")
        assert [r.seq for r in scan.records] == list(range(1, 13))
        (gap,) = scan.gaps
        assert gap.reason == "truncated-tail"
        assert (gap.last_seq_before, gap.first_seq_after) == (12, 15)
        assert "13..14" in gap.describe()
        assert not scan.torn_tail and scan.corrupt_gaps() == [gap]

    def test_segments_removed_behind_an_anchor_are_not_a_lost_tail(self, tmp_path):
        wal = tmp_path / "wal"
        with Journal(wal, segment_bytes=256) as journal:
            while len(list_segments(wal)) < 3:
                journal.append_event(make_event(journal.last_seq))
            assert journal.truncate_upto(journal.last_seq) == 2
        assert not scan_journal(wal).gaps
        # Every record covered: a writer reopened on the bare mark starts
        # an empty segment named past it, which ends the journal there.
        mark = read_high_water(wal)
        for path in list_segments(wal):
            path.unlink()
        with Journal(wal) as journal:
            assert journal.last_seq == mark
        assert list_segments(wal)[-1].name == f"segment-{mark + 1:020d}.wal"
        assert not scan_journal(wal).gaps

    def test_torn_final_segment_is_benign(self, tmp_path):
        crash_after_appends(tmp_path / "wal", 6)
        truncate_file(list_segments(tmp_path / "wal")[-1], keep_fraction=0.95)
        scan = scan_journal(tmp_path / "wal")
        assert scan.torn_tail
        assert not scan.corrupt_gaps()
        assert scan.last_seq == 5
        assert "torn-tail" in scan.describe()
