"""Rewiring-as-a-service: a stdlib-only asyncio serving layer.

Everything the training stack computes per rollout step — entropy-guided
rewires, GNN scoring of candidate topologies — exposed as a long-lived
network service, so interactive clients (dashboards, sweep drivers,
notebook users) share one warm process instead of each paying dataset
load, entropy build and model warm-up per question:

* **Sessions** (:mod:`repro.serve.session`) — ``open_session`` binds a
  client to a :class:`~repro.serve.session.GraphArtifact` (base graph +
  entropy sequences + warmed backbone), deduplicated across sessions so
  two tenants asking about the same dataset/config share one artifact.
  Each session carries its own ``(k, d)`` rewire memo (the shared
  :class:`~repro.core.lru.LRUCache`), and sessions themselves are
  LRU-evicted at the configured bound.
* **Micro-batching** (:mod:`repro.serve.batcher`) — concurrent ``score``
  requests that arrive within one collection window are stacked into a
  single block-diagonal forward
  (:class:`~repro.rl.vector.stacked.StackedGraphBuilder`), the same
  kernel the vectorized env uses, then sliced back per request.  Scores
  are byte-identical to unbatched single-graph evaluation (see
  ``docs/serving.md``).
* **Graceful degradation** — a bounded intake queue sheds load with a
  ``retry_after_ms`` hint instead of growing without bound; per-request
  deadlines are honoured even mid-batch; malformed frames get a
  ``bad_request`` error and the connection keeps serving.

Run it with ``python -m repro serve`` and talk to it with
:class:`~repro.serve.client.ServeClient` (newline-delimited JSON over
TCP or a unix socket; protocol in :mod:`repro.serve.protocol`).
"""

from .batcher import MicroBatcher
from .client import ServeClient
from .config import ServeConfig
from .protocol import (
    DeadlineExceededError,
    OverloadedError,
    ServeError,
    UnknownSessionError,
)
from .server import RewiringServer
from .session import (
    GraphArtifact,
    GraphSession,
    SessionManager,
    SessionSpec,
    build_artifact,
)

__all__ = [
    "DeadlineExceededError",
    "GraphArtifact",
    "GraphSession",
    "MicroBatcher",
    "OverloadedError",
    "RewiringServer",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "SessionManager",
    "SessionSpec",
    "UnknownSessionError",
    "build_artifact",
]
