"""The always-on fleet service: actor-style serving of net instances.

Layered on the :class:`~repro.runtime.fleet.FleetEngine` stepping
kernel:

- :mod:`~repro.service.messages` — frozen typed messages, the
  versioned wire codecs every endpoint speaks (JSON lines, binary
  inject frames), plus the internal zero-copy
  :class:`InjectBatchPacked` (pre-interned int64 id columns).
- :mod:`~repro.service.shard` — the shard: one kernel behind one ordered
  bounded inbox, served by an asyncio actor loop (coalesced vectorized
  injects, controls as barriers, typed failure).  It is the fleet's
  only shard, so no message or record carries a shard id, and its
  :class:`SnapshotReply` is the fleet's.
- :mod:`~repro.service.supervisor` — the ingest boundary in front of
  the one shard actor: packing, snapshots, reload, drain-and-stop.
- :mod:`~repro.service.ingest` — the socket server and its client.
- :mod:`~repro.service.telemetry` — versioned JSON-lines telemetry, one
  record per sampling tick.

``repro-qss serve --listen/--duration/--telemetry`` is the CLI front
end; ``tests/test_service_differential.py`` pins service results equal
to the one-shot batch path.
"""

from .ingest import IngestServer, ServiceClient, events_to_injects
from .messages import (
    WIRE_SCHEMA,
    Ack,
    InjectBatchPacked,
    InjectEvent,
    InjectView,
    ProtocolError,
    Reload,
    Shutdown,
    SnapshotReply,
    SnapshotRequest,
    decode_message,
    encode_message,
    inject_columns,
)
from .shard import DEFAULT_INBOX_LIMIT, ShardActor, ShardCore, ShardFailed
from .supervisor import FleetSupervisor, SupervisorNotRunning
from .telemetry import TELEMETRY_SCHEMA, TelemetryWriter, validate_telemetry_record

__all__ = [
    "WIRE_SCHEMA",
    "TELEMETRY_SCHEMA",
    "DEFAULT_INBOX_LIMIT",
    "Ack",
    "InjectBatchPacked",
    "InjectEvent",
    "InjectView",
    "ProtocolError",
    "Reload",
    "Shutdown",
    "SnapshotReply",
    "SnapshotRequest",
    "decode_message",
    "encode_message",
    "inject_columns",
    "FleetSupervisor",
    "SupervisorNotRunning",
    "ShardActor",
    "ShardCore",
    "ShardFailed",
    "IngestServer",
    "ServiceClient",
    "events_to_injects",
    "TelemetryWriter",
    "validate_telemetry_record",
]
