"""Long-running policy service: warm incremental SEPAR over a socket.

The ``repro serve`` daemon keeps per-device analysis sessions resident --
extracted app models, the shared-encoding synthesis engine with its live
relational problem, an in-memory content-addressed result cache, and the
compiled PDP -- so an install/uninstall stream is answered by warm
incremental work instead of cold full-bundle reruns, while staying
byte-identical to those cold runs.  See ``docs/SERVICE.md``.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import (
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
)
from repro.service.server import PolicyService, ServerConfig
from repro.service.session import (
    DeviceSession,
    SessionConfig,
    cold_analysis,
    detection_delta,
)

__all__ = [
    "DeviceSession",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "PolicyService",
    "ProtocolError",
    "ServerConfig",
    "ServiceClient",
    "ServiceError",
    "SessionConfig",
    "cold_analysis",
    "detection_delta",
]
