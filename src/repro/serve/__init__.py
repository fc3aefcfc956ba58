"""Streaming recognition service: async ingest, routing, checkpoint/restore.

This package runs the windowed RTEC engine as a long-lived service. Where
RTEC's reference implementation drives recognition from a Prolog run-time
loop polling a stream file, :mod:`repro.serve` exposes a JSON-lines
protocol (TCP or stdin/stdout), hosts many named sessions behind one
:class:`~repro.serve.sessions.SessionManager`, applies backpressure at a
configurable high-water mark, and checkpoints bounded session state so a
crashed service restarts without re-reading history.

Layering, bottom up:

* :mod:`repro.serve.protocol` — wire format, term parsing, validation;
* :mod:`repro.serve.checkpoint` — durable snapshots, versioned files;
* :mod:`repro.serve.sessions` — per-session ingest queues, the worker
  loop, the deterministic window-advance schedule;
* :mod:`repro.serve.server` — asyncio transports and request dispatch;
* :mod:`repro.serve.loadgen` / :mod:`repro.serve.replay` — workload
  construction, load measurement, and the one crash-and-restore drill
  (whole service for one process, one worker for a fleet);
* :mod:`repro.serve.cluster` — the distributed tier: a router in front
  of N shared-nothing worker processes, with heartbeat-driven failover
  fenced by checkpoint leases (imported on demand:
  only a drill with ``workers > 1`` reaches it from above this line).
"""

from repro.serve.checkpoint import (
    CHECKPOINT_VERSION,
    Checkpoint,
    CheckpointError,
    description_hash,
    latest_checkpoint,
    latest_lease,
    list_checkpoints,
    load_checkpoint,
    write_checkpoint,
)
from repro.serve.loadgen import (
    LoadReport,
    ServiceClient,
    Workload,
    build_workload,
    run_ingest,
)
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_line,
    encode,
    parse_event_term,
    read_protocol_lines,
)
from repro.serve.replay import (
    ReplayOutcome,
    applied_event_offsets,
    drive_reference_session,
    reference_merged,
    resume_workload,
    run_replay,
)
from repro.serve.server import RecognitionServer
from repro.serve.sessions import ManagedSession, SessionConfig, SessionManager

__all__ = [
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointError",
    "LoadReport",
    "MAX_LINE_BYTES",
    "ManagedSession",
    "ProtocolError",
    "RecognitionServer",
    "ReplayOutcome",
    "ServiceClient",
    "SessionConfig",
    "SessionManager",
    "Workload",
    "applied_event_offsets",
    "build_workload",
    "decode_line",
    "description_hash",
    "drive_reference_session",
    "encode",
    "latest_checkpoint",
    "latest_lease",
    "list_checkpoints",
    "load_checkpoint",
    "parse_event_term",
    "read_protocol_lines",
    "reference_merged",
    "resume_workload",
    "run_ingest",
    "run_replay",
    "write_checkpoint",
]
