"""Segmented, CRC-checksummed write-ahead journal for the serve layer.

TP-GNN serving state is the accumulated effect of every event seen so
far, so a crash between checkpoints silently loses sessions and
online-learner updates.  The :class:`Journal` closes that hole with the
classic WAL discipline: every accepted :class:`~repro.serve.events.StreamEvent`
and every online-learner observation is appended (and optionally
fsynced) *before* it is applied, so recovery can replay the tail past
the last good checkpoint and reconstruct the exact pre-crash state.

Wire format — one record::

    magic(4B) | seq(u64 LE) | payload_len(u32 LE) | crc32(u32 LE) | payload

The CRC covers ``seq + payload_len + payload``, so a flipped bit
anywhere in a record (header or body) fails verification; the magic
marker lets the reader *resync* after a corrupt record by scanning
forward for the next verifiable header.  The payload is a kind byte
(event / observation) followed by a JSON header and the raw array
buffers, dtype- and shape-tagged so decode is bit-exact.

Every append is one unbuffered ``write``, so a record survives
*process* death under every policy.  Durability against power loss is
tiered by fsync policy (:data:`FSYNC_POLICIES`):

``always``
    ``fsync`` after every append — survives power loss, slowest.
``interval``
    ``fsync`` at most every ``fsync_interval`` seconds (bounds
    data-at-risk under power loss).  The serving default.
``off``
    No fsync but on :meth:`Journal.sync` and close; for bulk
    replay/backfill where the source feed still exists.

A **high-water mark** file beside the segments holds the last seq
written out, rewritten at every fsync, rotation and close (never per
append under ``interval``/``off``).  Records ending below it are
reported as a ``truncated-tail`` gap, and a reopened writer never
reuses a seq at or below it.

Segments are named by the first sequence number they contain
(``segment-<seq>.wal``), so :meth:`Journal.truncate_upto` can drop
whole segments behind a checkpoint anchor without scanning them.  On
reopen after a crash the writer truncates a torn tail record (the
normal crash artifact) and continues the sequence; a corrupt record
*mid*-segment is never overwritten — the scanner quarantines it into a
:class:`JournalGap` with exact byte offsets and replays past it.

This module deliberately imports nothing from :mod:`repro.serve` or
:mod:`repro.graph` at module scope — the serve package imports
:mod:`repro.resilience` back, and the journal must stay importable
from inside that cycle (decoders import lazily).
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path
from time import monotonic
from typing import Iterable

import numpy as np

from repro.resilience.errors import IntegrityError
from repro.resilience.faults import inject

FSYNC_POLICIES = ("always", "interval", "off")

RECORD_EVENT = 1
RECORD_OBSERVATION = 2
_RECORD_KINDS = (RECORD_EVENT, RECORD_OBSERVATION)

_MAGIC = b"RJL1"
_HEADER = struct.Struct("<4sQII")  # magic, seq, payload_len, crc32
_HEADER_SIZE = _HEADER.size
_CRC_PREFIX = struct.Struct("<QI")  # the crc covers seq + payload_len + payload
_MAX_PAYLOAD = 64 * 1024 * 1024  # plausibility bound while resyncing
_SEGMENT_GLOB = "segment-*.wal"
_MARK_NAME = "high-water.mark"  # seq u64 LE | crc32 of those 8 bytes
_U32 = struct.Struct("<I")
_EVENT_KIND = bytes([RECORD_EVENT])


# ----------------------------------------------------------------------
# Payload codecs
# ----------------------------------------------------------------------
def _pack_payload(kind: int, header: dict, arrays: list[np.ndarray]) -> bytes:
    """kind byte + u32 JSON length + JSON header + raw array buffers."""
    descriptors = []
    buffers = []
    for array in arrays:
        array = np.ascontiguousarray(array)
        descriptors.append([array.dtype.str, list(array.shape)])
        buffers.append(array.tobytes())
    blob = json.dumps(
        dict(header, arrays=descriptors), separators=(",", ":")
    ).encode("utf-8")
    return bytes([kind]) + struct.pack("<I", len(blob)) + blob + b"".join(buffers)


def _unpack_payload(payload: bytes) -> tuple[int, dict, list[np.ndarray]]:
    if len(payload) < 5:
        raise IntegrityError(f"journal payload too short ({len(payload)} bytes)")
    kind = payload[0]
    if kind not in _RECORD_KINDS:
        raise IntegrityError(f"unknown journal record kind {kind}")
    (blob_len,) = struct.unpack_from("<I", payload, 1)
    if 5 + blob_len > len(payload):
        raise IntegrityError("journal payload header overruns the record")
    header = json.loads(payload[5 : 5 + blob_len].decode("utf-8"))
    offset = 5 + blob_len
    arrays = []
    for dtype_str, shape in header.get("arrays", []):
        dtype = np.dtype(dtype_str)
        count = int(np.prod(shape)) if shape else 1
        nbytes = dtype.itemsize * count
        if offset + nbytes > len(payload):
            raise IntegrityError("journal payload arrays overrun the record")
        arrays.append(
            np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            .reshape(shape)
            .copy()
        )
        offset += nbytes
    if offset != len(payload):
        raise IntegrityError(
            f"journal payload has {len(payload) - offset} trailing bytes"
        )
    return kind, header, arrays


@lru_cache(maxsize=256)
def _descriptor(dtype: np.dtype, shape: tuple) -> str:
    """``[dtype.str, shape]`` as JSON (``dtype.str`` is slow to build)."""
    return '["%s",[%s]]' % (dtype.str, ",".join(str(d) for d in shape))


@lru_cache(maxsize=4096)
def _quote(text: str) -> str:
    """``json.dumps(text)``, skipping the serializer for plain ids."""
    if text.isascii() and text.isprintable() and '"' not in text and "\\" not in text:
        return '"%s"' % text
    return json.dumps(text)


def encode_event(event) -> bytes:
    """Encode one :class:`~repro.serve.events.StreamEvent` payload.

    Hand-formats the JSON header instead of round-tripping a dict
    through :func:`json.dumps`: this codec sits on the hot write-ahead
    path (every ingested event pays for it before the model runs), and
    the dict build + serializer cost dominated the journal's overhead.
    The bytes produced are identical to the ``_pack_payload`` route.
    """
    features = event.node_features
    if features:
        nodes = sorted(features)
        arrays = [np.ascontiguousarray(features[n]) for n in nodes]
        descriptors = ",".join([_descriptor(a.dtype, a.shape) for a in arrays])
        buffers = b"".join([a.tobytes() for a in arrays])
        nodes_json = "[%s]" % ",".join([str(int(n)) for n in nodes])
    else:
        descriptors, buffers, nodes_json = "", b"", "[]"
    time = float(event.time)
    label = event.label
    blob = (
        '{"sid":%s,"src":%d,"dst":%d,"time":%s,"label":%s,"nodes":%s,"arrays":[%s]}'
        % (
            _quote(str(event.session_id)),
            event.src,
            event.dst,
            repr(time) if math.isfinite(time) else json.dumps(time),
            "null" if label is None else int(label),
            nodes_json,
            descriptors,
        )
    ).encode("utf-8")
    return b"".join((_EVENT_KIND, _U32.pack(len(blob)), blob, buffers))


def decode_event(payload: bytes):
    """Decode an event payload back into a :class:`StreamEvent`."""
    from repro.serve.events import StreamEvent

    kind, header, arrays = _unpack_payload(payload)
    if kind != RECORD_EVENT:
        raise IntegrityError(f"expected an event record, got kind {kind}")
    nodes = header.get("nodes", [])
    if len(nodes) != len(arrays):
        raise IntegrityError("event record nodes/arrays mismatch")
    return StreamEvent(
        session_id=header["sid"],
        src=header["src"],
        dst=header["dst"],
        time=header["time"],
        node_features=dict(zip(nodes, arrays)) or None,
        label=header.get("label"),
    )


def encode_observation(graph) -> bytes:
    """Encode one labelled :class:`~repro.graph.ctdn.CTDN` observation."""
    store = graph.store
    header = {
        "gid": graph.graph_id,
        "n": int(graph.num_nodes),
        "label": None if graph.label is None else int(graph.label),
    }
    arrays = [graph.features, store.src, store.dst, store.t]
    return _pack_payload(RECORD_OBSERVATION, header, arrays)


def decode_observation(payload: bytes):
    """Decode an observation payload back into a :class:`CTDN`."""
    from repro.graph.ctdn import CTDN
    from repro.graph.store import EventStore

    kind, header, arrays = _unpack_payload(payload)
    if kind != RECORD_OBSERVATION:
        raise IntegrityError(f"expected an observation record, got kind {kind}")
    if len(arrays) != 4:
        raise IntegrityError(
            f"observation record carries {len(arrays)} arrays, expected 4"
        )
    features, src, dst, t = arrays
    num_nodes = int(header["n"])
    store = EventStore(src, dst, t, num_nodes)
    return CTDN.from_store(
        num_nodes,
        features,
        store,
        label=header.get("label"),
        graph_id=header.get("gid"),
    )


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
def _frame(seq: int, payload: bytes) -> bytes:
    crc = zlib.crc32(payload, zlib.crc32(_CRC_PREFIX.pack(seq, len(payload))))
    return _HEADER.pack(_MAGIC, seq, len(payload), crc & 0xFFFFFFFF) + payload


def _try_parse(data: bytes, offset: int):
    """Parse one record at ``offset``; None if it does not verify."""
    if offset + _HEADER_SIZE > len(data):
        return None
    magic, seq, length, crc = _HEADER.unpack_from(data, offset)
    if magic != _MAGIC or length > _MAX_PAYLOAD:
        return None
    end = offset + _HEADER_SIZE + length
    if end > len(data):
        return None
    payload = data[offset + _HEADER_SIZE : end]
    expected = zlib.crc32(payload, zlib.crc32(_CRC_PREFIX.pack(seq, length)))
    if crc != expected & 0xFFFFFFFF:
        return None
    return seq, payload, end - offset


def _find_next_record(data: bytes, start: int):
    """Byte offset of the next verifiable record at/after ``start``."""
    offset = data.find(_MAGIC, start)
    while offset != -1:
        if _try_parse(data, offset) is not None:
            return offset
        offset = data.find(_MAGIC, offset + 1)
    return None


@dataclass(frozen=True)
class JournalRecord:
    """One verified record, with its provenance in the segment file."""

    seq: int
    kind: int
    payload: bytes
    segment: str
    offset: int
    length: int

    def decode(self):
        """The original :class:`StreamEvent` or :class:`CTDN`."""
        if self.kind == RECORD_EVENT:
            return decode_event(self.payload)
        return decode_observation(self.payload)


@dataclass(frozen=True)
class JournalGap:
    """A quarantined byte range the scanner could not verify.

    ``reason`` is ``"torn-tail"`` (the gap runs to end-of-file — the
    benign artifact of a crash mid-append), ``"corrupt-record"`` (the
    scanner resynced to a later valid record; whatever lived in
    ``[start_offset, end_offset)`` is lost) or ``"truncated-tail"``
    (records the high-water mark covers are gone from the end).
    ``last_seq_before`` / ``first_seq_after`` bound the sequence
    numbers that may be missing (either may be None at a segment edge).
    """

    segment: str
    start_offset: int
    end_offset: int
    reason: str
    last_seq_before: int | None
    first_seq_after: int | None

    def describe(self) -> str:
        lost = "?"
        if self.last_seq_before is not None and self.first_seq_after is not None:
            low, high = self.last_seq_before + 1, self.first_seq_after - 1
            lost = f"{low}..{high}" if low <= high else "none"
        elif self.last_seq_before is not None:
            lost = f">{self.last_seq_before}"
        return (
            f"{self.segment}: bytes {self.start_offset}-{self.end_offset} "
            f"{self.reason} (seqs lost: {lost})"
        )


def _first_seq_of(path: Path) -> int:
    stem = path.name[len("segment-") : -len(".wal")]
    try:
        return int(stem)
    except ValueError:
        raise IntegrityError(f"not a journal segment name: {path.name}") from None


def _segment_name(first_seq: int) -> str:
    return f"segment-{first_seq:020d}.wal"


def read_high_water(directory: str | Path) -> int:
    """The journal's high-water mark; 0 if absent or unreadable, which
    can only hide a lost tail, never invent one."""
    path = Path(directory) / _MARK_NAME
    data = path.read_bytes() if path.exists() else b""
    if len(data) == 12 and data[8:] == _U32.pack(zlib.crc32(data[:8])):
        return struct.unpack_from("<Q", data)[0]
    return 0


def list_segments(directory: str | Path) -> list[Path]:
    """Segment files of a journal directory, in sequence order."""
    return sorted(Path(directory).glob(_SEGMENT_GLOB), key=_first_seq_of)


def scan_segment(path: str | Path) -> tuple[list[JournalRecord], list[JournalGap]]:
    """Verify one segment: records in order, plus quarantined gaps.

    Never raises on damage — a corrupt record becomes a
    :class:`JournalGap` and scanning resyncs on the next verifiable
    magic marker.  A gap that reaches end-of-file is classified
    ``"torn-tail"`` here; :func:`scan_journal` reclassifies it as
    corruption when later segments exist (a true torn tail can only be
    in the newest segment).
    """
    path = Path(path)
    data = path.read_bytes()
    records: list[JournalRecord] = []
    gaps: list[JournalGap] = []
    offset = 0
    last_seq: int | None = None
    size = len(data)
    while offset < size:
        parsed = _try_parse(data, offset)
        if parsed is not None:
            seq, payload, length = parsed
            records.append(
                JournalRecord(seq, payload[0], payload, path.name, offset, length)
            )
            last_seq = seq
            offset += length
            continue
        resumed = _find_next_record(data, offset + 1)
        if resumed is None:
            gaps.append(
                JournalGap(path.name, offset, size, "torn-tail", last_seq, None)
            )
            break
        next_seq, _, _ = _try_parse(data, resumed)
        gaps.append(
            JournalGap(
                path.name, offset, resumed, "corrupt-record", last_seq, next_seq
            )
        )
        offset = resumed
    return records, gaps


@dataclass(frozen=True)
class JournalScan:
    """The verified contents of a whole journal directory."""

    records: list[JournalRecord]
    gaps: list[JournalGap]

    @property
    def last_seq(self) -> int:
        return self.records[-1].seq if self.records else 0

    @property
    def torn_tail(self) -> bool:
        """True when the only tail damage is the benign crash artifact."""
        return bool(self.gaps) and self.gaps[-1].reason == "torn-tail"

    def corrupt_gaps(self) -> list[JournalGap]:
        """Gaps that are real data loss (everything but a torn tail)."""
        return [gap for gap in self.gaps if gap.reason != "torn-tail"]

    def describe(self) -> str:
        if not self.gaps:
            return "journal clean: no gaps"
        lines = [f"journal gaps ({len(self.gaps)}):"]
        lines += [f"  - {gap.describe()}" for gap in self.gaps]
        return "\n".join(lines)


def scan_journal(directory: str | Path, after_seq: int = 0) -> JournalScan:
    """Scan every segment of a journal; records with ``seq > after_seq``.

    Gap classification is journal-wide: a gap that reaches the end of a
    *non-final* segment cannot be a torn tail (the writer had already
    rotated past it), so it is reported as ``"corrupt-record"`` with
    the next segment's first record as its resync point.  A tail lost
    below the high-water mark — torn or cut on a record boundary — is a
    ``"truncated-tail"`` gap: those records had been written out, so
    losing them is damage, not a crash artifact.
    """
    segments = list_segments(directory)
    records: list[JournalRecord] = []
    gaps: list[JournalGap] = []
    for index, segment in enumerate(segments):
        seg_records, seg_gaps = scan_segment(segment)
        final_segment = index == len(segments) - 1
        for gap in seg_gaps:
            if gap.reason == "torn-tail" and not final_segment:
                next_first = None
                for later in segments[index + 1 :]:
                    later_records, _ = scan_segment(later)
                    if later_records:
                        next_first = later_records[0].seq
                        break
                gap = JournalGap(
                    gap.segment,
                    gap.start_offset,
                    gap.end_offset,
                    "corrupt-record",
                    gap.last_seq_before,
                    next_first,
                )
            gaps.append(gap)
        records.extend(seg_records)
    _add_continuity_gaps(segments, records, gaps)
    _add_high_water_gap(directory, segments, records, gaps)
    if after_seq:
        records = [record for record in records if record.seq > after_seq]
    return JournalScan(records=records, gaps=gaps)


def _add_continuity_gaps(
    segments: list[Path],
    records: list[JournalRecord],
    gaps: list[JournalGap],
) -> None:
    """Report sequence holes that no byte-level gap explains.

    A non-final segment truncated *exactly* on a record boundary parses
    cleanly — every surviving record verifies, nothing is torn — yet
    its tail records are gone.  Journal-wide sequence continuity is the
    only witness: a jump from seq ``a`` to ``b > a + 1`` across a
    segment boundary with no covering gap means the bytes that held
    ``a+1..b-1`` were lost past the truncated end-of-file.
    """
    sizes = {path.name: path.stat().st_size for path in segments}
    for prev, nxt in zip(records, records[1:]):
        if nxt.seq <= prev.seq + 1:
            continue
        if any(
            (gap.last_seq_before or 0) <= prev.seq
            and (gap.first_seq_after is None or gap.first_seq_after >= nxt.seq)
            for gap in gaps
        ):
            continue
        start = prev.offset + prev.length
        end = max(sizes.get(prev.segment, start), start + 1)
        gaps.append(
            JournalGap(
                prev.segment, start, end, "corrupt-record", prev.seq, nxt.seq
            )
        )


def _add_high_water_gap(
    directory,
    segments: list[Path],
    records: list[JournalRecord],
    gaps: list[JournalGap],
) -> None:
    """Report a tail lost below the high-water mark.

    The journal ends at its last verified record, or just before the
    final segment's name (what ``truncate_upto`` removed is not lost).
    """
    mark = read_high_water(directory)
    end = records[-1].seq if records else 0
    if segments:
        end = max(end, _first_seq_of(segments[-1]) - 1)
    if end >= mark:
        return
    for index, gap in enumerate(gaps):
        if gap.reason == "torn-tail":
            gaps[index] = replace(
                gap, reason="truncated-tail", last_seq_before=end, first_seq_after=mark + 1
            )
            return
    name = segments[-1].name if segments else _MARK_NAME
    size = segments[-1].stat().st_size if segments else 0
    gaps.append(JournalGap(name, size, size + 1, "truncated-tail", end, mark + 1))


def read_records(
    directory: str | Path, after_seq: int = 0
) -> Iterable[JournalRecord]:
    """Iterate verified records, firing the ``journal.replay`` point."""
    scan = scan_journal(directory, after_seq=after_seq)
    for record in scan.records:
        inject("journal.replay", context=record.payload)
        yield record


# ----------------------------------------------------------------------
# Writer
# ----------------------------------------------------------------------
class Journal:
    """Appending side of the write-ahead log.

    Parameters
    ----------
    directory:
        Segment directory (created if missing).  One journal per
        engine; a sharded cluster gives each shard its own directory.
    fsync:
        Durability policy, one of :data:`FSYNC_POLICIES` (see the
        module docstring for the trade-offs).
    fsync_interval:
        Max seconds between fsyncs under the ``interval`` policy.
    segment_bytes:
        Rotation threshold; a segment is closed once it exceeds this.
    registry:
        Metric registry for the ``journal/*`` series (the process
        global one is used otherwise).
    """

    def __init__(
        self,
        directory: str | Path,
        fsync: str = "interval",
        fsync_interval: float = 0.2,
        segment_bytes: int = 4 * 1024 * 1024,
        registry=None,
    ):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval <= 0:
            raise ValueError(f"fsync_interval must be positive, got {fsync_interval}")
        if segment_bytes <= 0:
            raise ValueError(f"segment_bytes must be positive, got {segment_bytes}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.fsync = fsync
        self.fsync_interval = float(fsync_interval)
        self.segment_bytes = int(segment_bytes)
        if registry is None:
            from repro import telemetry

            registry = telemetry.get_registry()
        self.registry = registry
        self._c_appends = registry.counter("journal/appends")
        self._c_bytes = registry.counter("journal/bytes_written")
        self._c_fsyncs = registry.counter("journal/fsyncs")
        self._c_rotations = registry.counter("journal/rotations")
        self._c_removed = registry.counter("journal/segments_removed")
        self._handle = None
        self._segment_path: Path | None = None
        self._segment_size = 0
        self._last_fsync = monotonic()
        self._closed = False
        self._open_tail()

    # -- startup -------------------------------------------------------
    def _open_tail(self) -> None:
        """Resume the newest segment, trimming a torn/corrupt tail.

        The sequence resumes past the high-water mark even if records
        below it were lost: a seq a checkpoint may anchor is never reused.
        """
        mark = read_high_water(self.directory)
        segments = list_segments(self.directory)
        if not segments:
            self._next_seq = mark + 1
            self._start_segment()
            return
        newest = segments[-1]
        records, gaps = scan_segment(newest)
        keep = records[-1].offset + records[-1].length if records else 0
        tail_damaged = bool(gaps) and gaps[-1].end_offset > keep
        if tail_damaged and newest.stat().st_size > keep:
            # Standard WAL reopen: the torn tail is the crash artifact;
            # drop it so fresh appends never interleave with garbage.
            # (Recovery must scan *before* the journal is reopened for
            # append if it wants to report the torn record.)
            with open(newest, "r+b") as handle:
                handle.truncate(keep)
        resume = records[-1].seq + 1 if records else _first_seq_of(newest)
        self._next_seq = max(resume, mark + 1)
        self._segment_path = newest
        self._handle = open(newest, "ab", buffering=0)
        self._segment_size = newest.stat().st_size

    def _start_segment(self) -> None:
        self._segment_path = self.directory / _segment_name(self._next_seq)
        self._handle = open(self._segment_path, "ab", buffering=0)
        self._segment_size = self._segment_path.stat().st_size

    # -- append path ---------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the last appended record (0 when empty)."""
        return self._next_seq - 1

    def append_event(self, event) -> int:
        """Journal one stream event; returns its sequence number."""
        return self._append(encode_event(event))

    def append_observation(self, graph) -> int:
        """Journal one learner observation; returns its sequence number."""
        return self._append(encode_observation(graph))

    def _append(self, payload: bytes) -> int:
        if self._closed:
            raise ValueError(f"journal {self.directory} is closed")
        inject("journal.write", context=payload)
        if self._segment_size >= self.segment_bytes:
            self._rotate()
        seq = self._next_seq
        record = _frame(seq, payload)
        # Unbuffered: the record is in the OS before the event is applied.
        written = self._handle.write(record)
        while written < len(record):
            written += self._handle.write(record[written:])
        self._next_seq += 1
        self._segment_size += len(record)
        self._c_appends.inc()
        self._c_bytes.inc(len(record))
        if self.fsync == "always":
            self._fsync()
        elif self.fsync == "interval":
            now = monotonic()
            if now - self._last_fsync >= self.fsync_interval:
                self._fsync(now)
        return seq

    def _fsync(self, now: float | None = None) -> None:
        seq = self.last_seq
        os.fsync(self._handle.fileno())
        self._last_fsync = monotonic() if now is None else now
        self._c_fsyncs.inc()
        self._write_mark(seq)

    def _write_mark(self, seq: int, durable: bool = False) -> None:
        head = struct.pack("<Q", seq)
        # Rewritten in place (no O_TRUNC): a crash never leaves it empty.
        fd = os.open(self.directory / _MARK_NAME, os.O_WRONLY | os.O_CREAT, 0o644)
        try:
            os.pwrite(fd, head + _U32.pack(zlib.crc32(head)), 0)
            if durable:
                os.fsync(fd)
        finally:
            os.close(fd)

    def sync(self) -> None:
        """Force the written tail to stable storage."""
        if self._handle is not None and not self._handle.closed:
            self._fsync()

    def _rotate(self) -> None:
        # The finished segment must be durable before the writer moves
        # on — otherwise truncate_upto could delete the only copy of
        # records whose bytes never reached the disk.
        if self.fsync != "off":
            self._fsync()
        else:
            self._write_mark(self.last_seq)
        self._handle.close()
        self._start_segment()
        self._c_rotations.inc()

    # -- maintenance ---------------------------------------------------
    def truncate_upto(self, anchor_seq: int) -> int:
        """Delete whole segments at/behind a checkpoint anchor.

        A non-final segment covers ``[first, next_first - 1]`` (the
        names carry the bounds — no scan needed), so it can go once
        ``next_first - 1 <= anchor_seq``.  The active segment is never
        deleted.  Returns how many segments were removed.
        """
        segments = list_segments(self.directory)
        firsts = [_first_seq_of(path) for path in segments]
        removed = 0
        for path, next_first in zip(segments, firsts[1:]):
            if next_first - 1 <= anchor_seq and path != self._segment_path:
                path.unlink()
                removed += 1
        if removed:
            self._c_removed.inc(removed)
        return removed

    def stats(self) -> dict:
        """Operational snapshot: position, segment count, bytes on disk."""
        segments = list_segments(self.directory)
        return {
            "last_seq": self.last_seq,
            "segments": len(segments),
            "bytes": sum(path.stat().st_size for path in segments),
            "fsync": self.fsync,
        }

    def close(self) -> None:
        """Flush, fsync and close the active segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if self._handle is not None and not self._handle.closed:
            os.fsync(self._handle.fileno())
            self._handle.close()
        self._write_mark(self.last_seq, durable=True)

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Journal({str(self.directory)!r}, fsync={self.fsync!r}, "
            f"last_seq={self.last_seq})"
        )
