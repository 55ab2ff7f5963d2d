"""Crash recovery: checkpoint + write-ahead journal tail replay.

:func:`recover_engine` rebuilds a :class:`~repro.serve.engine.StreamingEngine`
to the exact pre-crash state: load the last good checkpoint (or start
fresh), scan the journal, and replay every record past the checkpoint's
anchor through the engine's own deterministic ingest/observe paths.
Because admission, LRU movement, drop policy and the learner's seeded
update schedule are all deterministic, ``checkpoint + replay`` is
bit-for-bit identical to an engine that never crashed — session arrays,
learner weights, Adam moments, replay buffer and RNG included.

Damage tolerance follows the journal scanner
(:mod:`repro.resilience.journal`): a torn tail record above the
high-water mark — the normal artifact of dying mid-append — is dropped
as benign (it never finished reaching stable storage, so it is as if
the event was never accepted); a corrupt record, or a tail lost below
the mark, is real data loss, reported in :attr:`RecoveryReport.gaps`
with exact byte offsets and replayed past (or escalated to
:class:`~repro.resilience.IntegrityError` under ``strict=True``).

Caveat for the ``buffer`` out-of-order policy: events still buffered
when a checkpoint is written are anchored as applied but not part of
the session arrays — drain with ``engine.flush()`` before
checkpointing, or recover from the journal alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.resilience.errors import IntegrityError
from repro.resilience.journal import (
    RECORD_EVENT,
    JournalGap,
    scan_journal,
)
from repro.resilience.faults import inject
from repro.serve.engine import StreamingEngine


@dataclass(frozen=True)
class RecoveryReport:
    """What :func:`recover_engine` found and replayed."""

    checkpoint: Path | None
    anchor_seq: int
    last_seq: int
    events_replayed: int
    observations_replayed: int
    gaps: list[JournalGap] = field(default_factory=list)
    torn_tail: bool = False

    @property
    def records_replayed(self) -> int:
        return self.events_replayed + self.observations_replayed

    def render(self) -> str:
        """Human-readable recovery summary (the ``repro recover`` output)."""
        lines = [
            "recovery report",
            f"  checkpoint        : {self.checkpoint or '(none — journal only)'}",
            f"  anchor seq        : {self.anchor_seq}",
            f"  journal last seq  : {self.last_seq}",
            f"  events replayed   : {self.events_replayed}",
            f"  observations      : {self.observations_replayed}",
            f"  torn tail         : {'yes (dropped)' if self.torn_tail else 'no'}",
        ]
        corrupt = [gap for gap in self.gaps if gap.reason != "torn-tail"]
        if corrupt:
            lines.append(f"  corrupt records   : {len(corrupt)} quarantined")
            lines += [f"    - {gap.describe()}" for gap in corrupt]
        else:
            lines.append("  corrupt records   : none")
        return "\n".join(lines)


def recover_engine(
    journal_dir: str | Path,
    model,
    checkpoint: str | Path | None = None,
    learner=None,
    engine_config: dict | None = None,
    journal=None,
    strict: bool = False,
    allow_version_mismatch: bool = False,
    load_weights: bool = True,
    on_evict=None,
    registry=None,
) -> tuple[StreamingEngine, RecoveryReport]:
    """Rebuild an engine from ``checkpoint`` + the journal tail.

    Parameters
    ----------
    journal_dir:
        The crashed engine's journal directory.
    model:
        Architecture-matched model instance; overwritten with the
        checkpointed weights unless ``load_weights=False``.
    checkpoint:
        Last serving checkpoint (its ``journal_seq`` anchors replay).
        ``None`` — or a path that does not exist yet — replays the
        whole journal into a fresh engine.
    learner:
        Fresh :class:`~repro.online.OnlineLearner` over ``model``.
        Required when the journal holds observation records and no
        checkpoint carries learner state; restored from the checkpoint
        when one does.
    engine_config:
        ``StreamingEngine`` kwargs for the fresh-engine path (ignored
        when restoring a checkpoint, which carries its own config).
    journal:
        Open :class:`~repro.resilience.journal.Journal` to attach
        *after* replay, so the recovered engine resumes journaling new
        traffic without re-appending what it just replayed.  Open the
        writer only after recovery — reopening truncates the torn tail
        this function wants to report.
    strict:
        Escalate corrupt mid-segment records (real data loss) to
        :class:`~repro.resilience.IntegrityError` instead of replaying
        past them.  A torn tail never trips strict mode.
    allow_version_mismatch, load_weights, on_evict:
        Forwarded to :meth:`StreamingEngine.restore`.
    registry:
        Metric registry for ``journal/records_replayed`` and
        ``journal/gaps_detected`` (process global one by default).

    Returns
    -------
    ``(engine, report)`` — the reconstructed engine and what replay did.
    """
    if registry is None:
        from repro import telemetry

        registry = telemetry.get_registry()
    checkpoint_path: Path | None = None
    if checkpoint is not None and Path(checkpoint).exists():
        checkpoint_path = Path(checkpoint)
        engine = StreamingEngine.restore(
            checkpoint_path,
            model,
            on_evict=on_evict,
            learner=learner,
            allow_version_mismatch=allow_version_mismatch,
            load_weights=load_weights,
        )
    else:
        engine = StreamingEngine(model, on_evict=on_evict, **(engine_config or {}))
        if learner is not None:
            engine.attach_learner(learner)
    anchor = engine.journal_anchor
    scan = scan_journal(journal_dir)
    # Gaps entirely at/behind the anchor are already covered by the
    # checkpoint; only damage in the replayed tail matters.
    gaps = [
        gap
        for gap in scan.gaps
        if gap.first_seq_after is None or gap.first_seq_after > anchor + 1
    ]
    corrupt = [gap for gap in gaps if gap.reason != "torn-tail"]
    if corrupt:
        registry.counter("journal/gaps_detected").inc(len(corrupt))
        if strict:
            raise IntegrityError(
                f"journal {journal_dir} has {len(corrupt)} corrupt record(s) past "
                f"the checkpoint anchor (strict mode):\n"
                + "\n".join(f"  - {gap.describe()}" for gap in corrupt)
            )
    events = observations = 0
    replayed = registry.counter("journal/records_replayed")
    for record in scan.records:
        if record.seq <= anchor:
            continue
        inject("journal.replay", context=record.payload)
        if record.kind == RECORD_EVENT:
            engine.ingest(record.decode())
            events += 1
        else:
            if engine.learner is None:
                raise ValueError(
                    f"journal {journal_dir} holds learner observations (seq "
                    f"{record.seq}) but no learner is attached; pass learner= "
                    "to recover_engine (or --updater/--learner flags to "
                    "repro recover)"
                )
            engine.observe_example(record.decode())
            observations += 1
        replayed.inc()
    engine._journal_anchor = max(anchor, scan.last_seq)
    if journal is not None:
        engine.attach_journal(journal)
    report = RecoveryReport(
        checkpoint=checkpoint_path,
        anchor_seq=anchor,
        last_seq=scan.last_seq,
        events_replayed=events,
        observations_replayed=observations,
        gaps=gaps,
        torn_tail=scan.torn_tail,
    )
    return engine, report
