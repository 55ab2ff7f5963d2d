"""The OnlineLearner: prequential test-then-train on the live stream.

Offline, the reproduction trains with Adam over epochs; online, a
deployed model must keep serving while the stream may be shifting under
it.  :class:`OnlineLearner` closes the loop with the standard
continual-learning discipline:

1. **test** — every completed session is scored first (under
   ``no_grad``), and the score/loss lands in the
   :class:`~repro.online.prequential.PrequentialMetrics` series;
2. **then train** — the session joins a bounded
   :class:`~repro.online.buffer.ReplayBuffer`, and every
   ``online_update_every`` examples one micro-batch update round runs:
   a seeded sample from the buffer, one batched forward/backward over
   its mean loss, then the offline trainer's own guarded step
   (``clip_grad_norm``, a finiteness guard, one Adam step).

With ``online_update_every=0`` the learner never touches a parameter:
the online path is then *exactly* offline inference (a property test
pins this bit-for-bit).  All learner state — weights, Adam moments,
replay buffer, sampling RNG, counters, prequential series — snapshots
to flat arrays, so serve checkpoints and cluster migration carry the
updates along (see ``StreamingEngine.checkpoint`` and the round-trip
tests).

Hyperparameters come from :class:`~repro.training.TrainConfig`:
``learning_rate`` / ``batch_size`` / ``grad_clip`` / ``seed`` exactly as
offline, plus the online-only ``replay_buffer`` and
``online_update_every`` fields.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Mapping

import numpy as np

from repro import telemetry
from repro.core.base import GraphClassifierBase
from repro.graph.ctdn import CTDN
from repro.nn import bce_with_logits
from repro.online.buffer import ReplayBuffer
from repro.online.prequential import PrequentialMetrics
from repro.optim import Adam
from repro.resilience.faults import inject
from repro.tensor import no_grad
from repro.training.trainer import TrainConfig, guarded_step


def _json_array(payload) -> np.ndarray:
    return np.frombuffer(json.dumps(payload).encode("utf-8"), dtype=np.uint8).copy()


def _json_load(array: np.ndarray):
    return json.loads(np.asarray(array, dtype=np.uint8).tobytes().decode("utf-8"))


class OnlineLearner:
    """Incremental parameter updates over a stream of labelled sessions.

    Parameters
    ----------
    model:
        Any :class:`~repro.core.base.GraphClassifierBase`; its
        parameters are updated **in place** (shared with every serving
        engine holding the same model object).
    config:
        Hyperparameters; see the module docstring.  ``replay_buffer``
        must be >= 1; ``online_update_every=0`` disables updates.
    metrics_window:
        Default window for rolling prequential loss/AUC.
    """

    def __init__(
        self,
        model: GraphClassifierBase,
        config: TrainConfig | None = None,
        metrics_window: int = 40,
    ):
        config = config if config is not None else TrainConfig()
        if config.online_update_every < 0:
            raise ValueError(
                f"online_update_every must be >= 0, got {config.online_update_every}"
            )
        self.model = model
        self.config = config
        self.optimizer = Adam(model.parameters(), lr=config.learning_rate)
        self.buffer = ReplayBuffer(config.replay_buffer)
        self.metrics = PrequentialMetrics(window=metrics_window)
        self.rng = np.random.default_rng(config.seed)
        self.examples_seen = 0
        self.updates_applied = 0
        self.nonfinite_updates = 0
        # Frozen copy of the weights at attach time: what the
        # reset-and-retrain policy rolls back to.
        self._initial_weights = {
            key: value.copy() for key, value in model.state_dict().items()
        }

    # ------------------------------------------------------------------
    # Prequential write path
    # ------------------------------------------------------------------
    def score(self, graph: CTDN) -> float:
        """P(label=1) under the current weights (no training side effects)."""
        with no_grad():
            logit = float(self.model(graph).item())
        return float(1.0 / (1.0 + np.exp(-logit)))

    def observe(self, graph: CTDN) -> float:
        """Test-then-train on one completed labelled session.

        Returns the *pre-update* probability — the honest prequential
        score, produced before this example could influence the weights.
        """
        if graph.label is None:
            raise ValueError("online learning needs labelled sessions")
        with telemetry.span("online_observe"):
            with no_grad():
                logit = float(self.model(graph).item())
            probability = float(1.0 / (1.0 + np.exp(-logit)))
            label = float(graph.label)
            # Stable scalar BCE from the raw logit (same form the
            # training loss uses).
            loss = max(logit, 0.0) - logit * label + float(np.log1p(np.exp(-abs(logit))))
            self.metrics.record(graph.label, probability, loss)
            self.buffer.add(graph)
            self.examples_seen += 1
            if telemetry.enabled():
                telemetry.get_registry().counter("online/examples").inc()
            if (
                self.config.online_update_every > 0
                and self.examples_seen % self.config.online_update_every == 0
            ):
                self.update()
        return probability

    # ------------------------------------------------------------------
    # Update rounds
    # ------------------------------------------------------------------
    def update(self, rounds: int = 1) -> int:
        """Run ``rounds`` micro-batch update rounds from the replay buffer.

        Each round mirrors one optimizer step of the offline trainer:
        one :meth:`forward_batch` over a seeded ``batch_size`` sample,
        the batch-mean loss backpropagated, then
        :func:`~repro.training.trainer.guarded_step` — globally clipped
        and stepped only if the norm is finite (a poisoned round is
        skipped and counted in ``nonfinite_updates``, never stepped into
        the Adam moments).  Returns how many rounds actually stepped.
        """
        stepped = 0
        for _ in range(rounds):
            batch = self.buffer.sample(self.config.batch_size, self.rng)
            if not batch:
                break
            with telemetry.span("online_update"):
                was_training = self.model.training
                self.model.train()
                try:
                    self.optimizer.zero_grad()
                    targets = np.array([float(graph.label) for graph in batch])
                    bce_with_logits(self.model.forward_batch(batch), targets).backward()
                    # Chaos hook: "nan"/"inf" plans poison the averaged
                    # gradients here; the finiteness guard below must
                    # then skip the round.
                    inject(
                        "online.update",
                        context=lambda: [
                            param.grad
                            for param in self.model.parameters()
                            if param.grad is not None
                        ],
                    )
                    norm = guarded_step(self.model, self.optimizer, self.config.grad_clip)
                    if np.isfinite(norm):
                        self.updates_applied += 1
                        stepped += 1
                        if telemetry.enabled():
                            registry = telemetry.get_registry()
                            registry.counter("online/updates").inc()
                            registry.histogram("online/update_grad_norm").record(
                                float(norm)
                            )
                    else:
                        self.nonfinite_updates += 1
                        if telemetry.enabled():
                            telemetry.get_registry().counter(
                                "online/update_skipped_nonfinite"
                            ).inc()
                finally:
                    if not was_training:
                        self.model.eval()
        return stepped

    def reset_parameters(self) -> None:
        """Roll the model back to its attach-time weights, fresh moments.

        The reset-and-retrain adaptation policy calls this before
        retraining on the (post-drift) replay buffer.
        """
        self.model.load_state_dict(
            {key: value.copy() for key, value in self._initial_weights.items()}
        )
        self.optimizer = Adam(self.model.parameters(), lr=self.config.learning_rate)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, np.ndarray]:
        """Everything needed to continue the learner bit-exactly.

        Weights, Adam moments (including the bias-correction step
        count), the attach-time weights, the replay buffer, the
        sampling-RNG state, the prequential series and the counters.
        """
        arrays: dict[str, np.ndarray] = {}
        for key, value in self.model.state_dict().items():
            arrays[f"model.{key}"] = value.copy()
        for key, value in self.optimizer.state_dict().items():
            arrays[f"optim.{key}"] = np.asarray(value).copy()
        for key, value in self._initial_weights.items():
            arrays[f"init.{key}"] = value.copy()
        for key, value in self.buffer.snapshot().items():
            arrays[f"buffer.{key}"] = value
        for key, value in self.metrics.snapshot().items():
            arrays[f"metrics.{key}"] = value
        arrays["counters"] = np.asarray(
            [self.examples_seen, self.updates_applied, self.nonfinite_updates],
            dtype=np.int64,
        )
        arrays["rng"] = _json_array(self.rng.bit_generator.state)
        arrays["config"] = _json_array(asdict(self.config))
        return arrays

    def restore(self, arrays: Mapping[str, np.ndarray]) -> None:
        """Load a :meth:`snapshot` in place (config must match exactly).

        Like resuming offline training, restoring under different
        hyperparameters would splice two trajectories, so a mismatched
        config raises instead.
        """
        stored = _json_load(arrays["config"])
        if stored != asdict(self.config):
            raise ValueError(
                f"learner snapshot was written under a different TrainConfig "
                f"({stored} vs {asdict(self.config)}); refusing to restore"
            )

        def group(prefix: str) -> dict[str, np.ndarray]:
            return {
                key[len(prefix):]: value
                for key, value in arrays.items()
                if key.startswith(prefix)
            }

        self.model.load_state_dict(group("model."))
        self.optimizer.load_state_dict(group("optim."))
        self._initial_weights = {
            key: np.asarray(value).copy() for key, value in group("init.").items()
        }
        self.buffer = ReplayBuffer.restore(group("buffer."))
        self.metrics = PrequentialMetrics.restore(group("metrics."))
        seen, applied, nonfinite = (int(v) for v in arrays["counters"])
        self.examples_seen = seen
        self.updates_applied = applied
        self.nonfinite_updates = nonfinite
        self.rng = np.random.default_rng(self.config.seed)
        self.rng.bit_generator.state = _json_load(arrays["rng"])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OnlineLearner(examples={self.examples_seen}, "
            f"updates={self.updates_applied}, buffer={len(self.buffer)}, "
            f"update_every={self.config.online_update_every})"
        )
