"""Distributed serve tier: a router in front of shared-nothing workers.

Where :mod:`repro.serve` hosts every session in one process,
:mod:`repro.serve.cluster` splits the fleet across N worker *processes*
(one event loop, one :class:`~repro.serve.sessions.SessionManager` each)
behind a :class:`~repro.serve.cluster.router.ClusterRouter` speaking the
same JSON-lines protocol, so clients cannot tell a cluster from a single
process. Sessions are entity-closed groups already (the split of
:func:`repro.serve.loadgen.build_workload`), so co-dependent entities
always share a process. The router places each session on a live worker
hosting the fewest sessions (rendezvous hashing from
:mod:`repro.rtec.partition` breaks ties) and moves it only when that
worker dies, so a dead worker reshuffles only its own sessions.

The control plane (registration, heartbeats, the ``attach`` verb,
checkpoint leases) lives in :mod:`~repro.serve.cluster.worker`
and :mod:`~repro.serve.cluster.router`; picklable engine recipes for
spawned workers in :mod:`~repro.serve.cluster.engines`; the kill-a-worker
drill is :func:`repro.serve.replay.run_replay` with ``workers > 1``.
"""

from repro.serve.cluster.engines import (
    EngineSpec,
    gold_engine_spec,
    soak_description,
    soak_engine,
)
from repro.serve.cluster.router import ClusterRouter, WorkerHandle
from repro.serve.cluster.worker import WorkerServer, worker_main

__all__ = [
    "ClusterRouter",
    "EngineSpec",
    "WorkerHandle",
    "WorkerServer",
    "gold_engine_spec",
    "soak_description",
    "soak_engine",
    "worker_main",
]
