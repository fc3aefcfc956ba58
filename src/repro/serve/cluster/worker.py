"""One shared-nothing worker: a SessionManager host with a control verb.

A worker is a spawned process running :func:`worker_main`: it binds the
ordinary JSON-lines data protocol on an ephemeral loopback port, dials the
router's control port, registers (``{"type": "register", "worker": ...,
"port": ..., "pid": ...}``), and then serves *the same dispatch loop* on
that control connection — so the router can issue any protocol message
(heartbeat ``status`` polls, ``attach``, ``shutdown``) over the channel
the worker opened, with no listening port on the router's side of the
relationship.

The one control verb extending the base protocol:

``attach``
    ``{"type": "attach", "session": S, "restore": bool, "lease": int}`` —
    host session ``S``, building a fresh engine from the worker's
    :class:`~repro.serve.cluster.engines.EngineSpec`. With ``restore`` the
    latest checkpoint is adopted; ``lease`` fences subsequent checkpoint
    writes (the router bumps it on every failover). Replies with the
    session's ``applied``/``windows`` counters so the router learns the
    resume offset.

A session leaves a worker only with the worker. Worker death is the
router's business (heartbeats, process liveness); the worker itself shuts
down when told to — or when its control connection drops, so an orphaned
worker never outlives its router.
"""

from __future__ import annotations

import asyncio
import os
from typing import Any, Dict, Optional

from repro import telemetry
from repro.serve.cluster.engines import EngineSpec
from repro.serve.protocol import ProtocolError, encode, ok_response, require_session
from repro.serve.server import Connection, RecognitionServer
from repro.serve.sessions import SessionConfig, SessionManager

__all__ = ["WorkerServer", "worker_main"]


class WorkerServer(RecognitionServer):
    """A recognition server that also understands ``attach``."""

    def __init__(
        self,
        manager: SessionManager,
        engine_spec: EngineSpec,
        default_config: SessionConfig,
    ) -> None:
        super().__init__(manager)
        self.engine_spec = engine_spec
        self.default_config = default_config

    async def dispatch(
        self,
        message: Dict[str, Any],
        line: bytes = b"",
        connection: Optional[Connection] = None,
    ) -> Optional[Dict[str, Any]]:
        if message["type"] == "attach":
            return await self._attach(message)
        return await super().dispatch(message, line, connection)

    async def _attach(self, message: Dict[str, Any]) -> Dict[str, Any]:
        name = require_session(message)
        lease = message.get("lease")
        if lease is not None and (isinstance(lease, bool) or not isinstance(lease, int)):
            raise ProtocolError("bad-request", "attach 'lease' must be an integer")
        if name in self.manager.sessions:
            raise ProtocolError("session-exists", "session %r is already hosted" % name)
        managed = self.manager.add_session(
            name,
            self.engine_spec.create(),
            self.default_config,
            restore=bool(message.get("restore", False)),
            lease=lease,
        )
        managed.start()
        telemetry.count("cluster.attach")
        return ok_response(
            type="attached",
            session=name,
            applied=managed.counters.applied,
            windows=managed.counters.windows,
            lease=managed.lease,
        )


async def _worker_async(
    worker_id: str,
    router_host: str,
    control_port: int,
    spec_payload: Dict[str, Any],
    config_payload: Dict[str, Any],
    checkpoint_dir: Optional[str],
) -> None:
    manager = SessionManager(checkpoint_dir=checkpoint_dir, owner=worker_id)
    server = WorkerServer(
        manager, EngineSpec(**spec_payload), SessionConfig(**config_payload)
    )
    # Signals are often delivered to the whole process group (Ctrl-C,
    # systemd stop): each worker must turn them into a graceful stop —
    # final checkpoints included — rather than dying on the default
    # disposition before the router can say "shutdown".
    server.install_signal_handlers()
    data_port = await server.start_tcp("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection(router_host, control_port)
    writer.write(encode({
        "type": "register",
        "worker": worker_id,
        "port": data_port,
        "pid": os.getpid(),
    }))
    await writer.drain()
    ack = await reader.readline()
    if not ack:
        raise ConnectionError("router closed the control connection during registration")
    # From here the registration socket doubles as the control channel:
    # the router writes protocol requests, this worker's ordinary dispatch
    # loop answers them. Either way it ends (shutdown verb or router loss),
    # the stop is graceful: every session worker writes its final checkpoint.
    await server.serve(reader, writer)


def worker_main(
    worker_id: str,
    router_host: str,
    control_port: int,
    spec_payload: Dict[str, Any],
    config_payload: Dict[str, Any],
    checkpoint_dir: Optional[str] = None,
) -> None:
    """Spawn entry point: run one worker until shutdown or router loss."""
    asyncio.run(_worker_async(
        worker_id, router_host, control_port, spec_payload, config_payload,
        checkpoint_dir,
    ))
