"""Back-compat name for the topology MDP.

:class:`repro.core.env.TopologyEnv` steps ``config.num_envs`` episodes at
once and is the only implementation of the MDP; ``VecTopologyEnv`` is the
same class under its former name.  Its one remaining user is
``bench_e2e/tracer.py``; delete this module with that import (ROADMAP
item 2).
"""

from ...core.env import TopologyEnv

VecTopologyEnv = TopologyEnv

__all__ = ["VecTopologyEnv"]
