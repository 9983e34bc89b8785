"""Live edge churn: streams, the churn engine, online evaluation.

The dynamic-graph workload class (the paper's future-work direction, per
``ROADMAP.md``): an external stream of timestamped add/remove edge
events (:mod:`~repro.stream.events`) folds into a live graph as chained
:class:`~repro.graph.graph.GraphDelta` edits
(:class:`~repro.stream.engine.StreamingGraph`) that collapse to one
shared root until a dirty-fraction threshold triggers a
bitwise-verified fresh rebuild.  Consumers that memoise rewires of the
live graph drop them whenever its ``version`` changes.
:class:`~repro.stream.online.OnlineEvaluator` maintains sliding-window
accuracy/entropy metrics incrementally, byte-identical to full
recomputation at every window boundary.  See ``docs/streaming.md``.
"""

from .config import REGIMES, StreamConfig
from .engine import ChurnReport, StreamingGraph
from .events import (
    ADD,
    REMOVE,
    EdgeEvent,
    apply_events,
    event_arrays,
    events_from_pairs,
    net_event_pairs,
    replay_events,
    validate_events,
)
from .generators import (
    BurstStream,
    ChurnStream,
    DriftStream,
    HubStream,
    make_stream,
)
from .online import OnlineEvaluator, degree_entropy

__all__ = [
    "ADD",
    "REMOVE",
    "REGIMES",
    "BurstStream",
    "ChurnReport",
    "ChurnStream",
    "DriftStream",
    "EdgeEvent",
    "HubStream",
    "OnlineEvaluator",
    "StreamConfig",
    "StreamingGraph",
    "apply_events",
    "degree_entropy",
    "event_arrays",
    "events_from_pairs",
    "make_stream",
    "net_event_pairs",
    "replay_events",
    "validate_events",
]
