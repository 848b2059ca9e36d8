"""World assembly: wire a cluster, backing volumes, and a PLFS mount.

Federated volumes share one physical OSD pool and lock domain — they are
realms of a single storage system divided among metadata servers, which
is exactly the PanFS arrangement the paper federates over (§V).
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from typing import List, Optional

from ..analysis.sanitize import attach_sanitizer, sanitize_enabled
from ..mpi.trace import attach_tracer, validate_collectives_enabled
from ..cluster import Cluster, ClusterSpec, NodeSpec
from ..pfs import PfsConfig, Volume, panfs
from ..pfs.locks import RangeLockManager
from ..pfs.osd import OsdPool
from ..plfs import PlfsConfig, PlfsMount
from ..sim import Engine

__all__ = ["World", "build_world"]


@dataclass
class World:
    """One assembled simulation: engine, cluster, backing volumes, PLFS mount."""

    env: Engine
    cluster: Cluster
    volumes: List[Volume]
    mount: PlfsMount

    @property
    def volume(self) -> Volume:
        """The first backing volume (the 'without PLFS' direct-access target)."""
        return self.volumes[0]

    def drop_caches(self) -> None:
        """Cold-start every client: page caches and metadata caches."""
        self.cluster.drop_caches()
        for vol in self.volumes:
            vol._md_cache.clear()


def build_world(*, n_volumes: int = 1, n_nodes: int = 4, cores: int = 4,
                pfs_cfg: Optional[PfsConfig] = None,
                cluster_spec: Optional[ClusterSpec] = None,
                plfs_cfg: Optional[PlfsConfig] = None,
                **plfs_kw) -> World:
    """Build a world.

    ``plfs_kw`` forwards to :class:`~repro.plfs.PlfsConfig`
    (``aggregation=...``, ``federation=...``, ...) unless an explicit
    ``plfs_cfg`` is given.
    """
    # The one place retired worlds are reclaimed.  Engine.run holds the
    # cycle collector off while events fire, and a retired world is the
    # one cyclic structure left: its Engine (bound into its own factory
    # partials), whatever its queues still hold, and with
    # --validate-collectives the tracer's cluster references.
    gc.collect()
    env = Engine()
    if sanitize_enabled():
        # REPRO_SANITIZE=1 (the harness --sanitize flag): every process in
        # this world gets yield-epoch instrumentation and the registered
        # shared containers become recording proxies; a detected race
        # raises RaceConditionError at the offending write.  The env-var
        # channel means sweep worker processes inherit the setting.
        attach_sanitizer(env)
    if validate_collectives_enabled():
        # REPRO_VALIDATE_COLLECTIVES=1 (--validate-collectives): every
        # communicator created on this engine records per-rank
        # collective traces, and run_job raises CollectiveMismatchError
        # at drain when ranks diverge (see repro.mpi.trace).
        attach_tracer(env, strict=True)
    spec = cluster_spec or ClusterSpec(name="world", n_nodes=n_nodes,
                                       node=NodeSpec(cores=cores))
    cluster = Cluster(env, spec)
    cfg = pfs_cfg or panfs()
    pool = OsdPool(env, cfg)
    locks = RangeLockManager(env, cfg)
    volumes = [Volume(env, cluster, cfg, name=f"vol{i}", pool=pool, locks=locks)
               for i in range(n_volumes)]
    mount = PlfsMount(env, volumes, plfs_cfg or PlfsConfig(**plfs_kw))
    return World(env=env, cluster=cluster, volumes=volumes, mount=mount)
