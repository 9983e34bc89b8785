"""Configuration of the edge-churn stream (`RareConfig.stream`).

Kept dependency-free (a plain frozen dataclass) so both
:mod:`repro.core.config` and the stream engine can import it without
touching the package import graph.
"""

from __future__ import annotations

from dataclasses import dataclass

#: The deterministic synthetic churn regimes :func:`repro.stream.make_stream`
#: knows how to build (see ``docs/streaming.md`` for their shapes).
REGIMES = ("drift", "burst", "hubs")


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of the live edge-churn subsystem (:mod:`repro.stream`).

    Attached to :class:`repro.core.config.RareConfig` as the ``stream``
    field (CLI: ``--churn``); both environments read it to interleave
    external edge events with the agent's own rewires.
    """

    regime: str = "drift"
    """Synthetic event generator: ``"drift"`` (steady random add/remove
    churn), ``"burst"`` (quiet phases punctuated by event bursts focused
    on one node), or ``"hubs"`` (adversarial: every event touches a
    top-degree hub, so the dirty fraction climbs fastest)."""

    events_per_step: int = 4
    """External events drained from the stream before each env step."""

    rebase_threshold: float = 0.25
    """Dirty-node fraction (touched nodes of the accumulated delta over
    ``N``) above which the chained-delta representation is abandoned for
    a fresh, fully validated rebuild (bitwise-verified against the
    chained edge keys)."""

    window: int = 32
    """Sliding-window length (in recorded events/batches) of the online
    evaluator; window aggregates are byte-identical to recomputing every
    record from a fresh graph."""

    seed: int = 0
    """Seed of the synthetic event stream, independent of the run seed so
    the same churn trace can be replayed under different agents."""

    def validate(self) -> None:
        """Raise ``ValueError`` on out-of-range fields (called by
        :class:`~repro.core.config.RareConfig.__post_init__`)."""
        if self.regime not in REGIMES:
            raise ValueError(
                f"stream regime must be one of {REGIMES}, got {self.regime!r}"
            )
        if self.events_per_step < 1:
            raise ValueError(
                f"events_per_step must be >= 1, got {self.events_per_step}"
            )
        if not 0.0 < self.rebase_threshold <= 1.0:
            raise ValueError(
                "rebase_threshold must be in (0, 1], got "
                f"{self.rebase_threshold}"
            )
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
